#!/usr/bin/env bash
# Source guards: greps that keep retired designs from creeping back. Each
# one pins an invariant an earlier refactor established; a match fails the
# script with the guard's message. Both the CI lint job and
# scripts/repro-smoke.sh run this one script, so every guard is written
# once.
#
# Usage: scripts/guards.sh
set -euo pipefail

cd "$(dirname "$0")/.."

FAILED=0
fail() {
    echo "guards FAILED: $1" >&2
    FAILED=1
}

# One scheduler everywhere: the whole workspace runs on mcqa-runtime's
# work-stealing pool. A reappearing rayon dependency or import would split
# the pipeline across two schedulers and hide stages from the metrics
# surface.
if grep -rn --include='Cargo.toml' --exclude-dir=target 'rayon' . ||
    grep -rn --exclude-dir=target 'use rayon' crates src tests examples; then
    fail "rayon reappeared in the workspace"
fi

# The pipeline and evaluator program against the VectorStore trait and
# IndexSpec; a concrete FlatIndex reference reappearing would re-pin the
# hot path to one backend.
if grep -rn 'FlatIndex' crates/core/src crates/eval/src; then
    fail "FlatIndex leaked back into core/eval"
fi

# Same invariant for the model layer: every model call goes through the
# ModelEndpoint trait and its role adapters. A concrete simulator type
# (TeacherModel, JudgeModel, MathClassifier, ResolvedModel) reappearing in
# core/eval would re-pin the call choreography to one backend and bypass
# the cache + ledger.
if grep -rn 'TeacherModel\|JudgeModel\|MathClassifier\|ResolvedModel' crates/core/src crates/eval/src; then
    fail "a concrete model type leaked back into core/eval"
fi

# IVF and PQ both train through crates/index/src/kmeans.rs (k-means++
# seeding + pooled Lloyd). The retired permutation seeding reappearing in
# ivf.rs would fork the trainers again.
if grep -n 'permutation' crates/index/src/ivf.rs; then
    fail "ivf.rs regained an ad-hoc seeding path (permutation)"
fi

# Eval retrieval goes through QueryService's admission queue and
# micro-batcher; a direct store.search_batch call reappearing in
# crates/eval would bypass admission control, the latency ledger, and the
# bit-identity guarantees the serving tests pin down.
if grep -rnE '(expect_store|\.store)\([^)]*\)[[:space:]]*\.[[:space:]]*search_batch' crates/eval/src; then
    fail "eval bypasses the query service with a direct search_batch"
fi

# Every backend's F16 scan goes through the cache-aware accessor
# (EmbeddingMatrix::for_each_panel), so a lone request replays resident
# panels instead of re-decoding the matrix. The raw streaming iterator
# reappearing under crates/index would fork the scan path and silently
# reopen the batch-of-1 latency floor.
if grep -rn 'for_each_block(' crates/index/src; then
    fail "crates/index bypasses the panel cache (for_each_block)"
fi

# The lexical channel is served, never side-doored: eval retrieval reaches
# BM25 only through QueryMode on the request envelope. A direct
# LexicalIndex / registry-sibling reference in crates/eval would bypass
# admission control and the bit-identity guarantees the hybrid serving
# tests pin down.
if grep -rn 'LexicalIndex\|expect_lexical\|lexical_sibling\|\.lexical(' crates/eval/src; then
    fail "eval reaches the lexical index outside the query service"
fi

# The incremental-ingest invariant: the cold build and the incremental
# re-run flow through the same planner (`run_planned`), so there is
# exactly one generation call site for the single bookkeeping path to
# guard. A second call site reappearing means a fork of the plan logic.
if [[ "$(grep -c 'generate_question_batch' crates/core/src/pipeline.rs)" != "1" ]]; then
    fail "pipeline.rs must call generate_question_batch exactly once (cold and incremental share the planner)"
fi
if ! grep -q 'fn run_planned' crates/core/src/pipeline.rs; then
    fail "pipeline.rs lost the shared ingest planner (run_planned)"
fi

# An incremental run clones the previous registry structurally
# (IndexRegistry: Clone, VectorStore::clone_box). Copying it through its
# serialised bytes instead costs a full encode + decode per update and
# silently compacts every store on every run.
if grep -rn 'IndexRegistry::from_bytes' crates/core/src; then
    fail "crates/core copies the index registry through its bytes (IndexRegistry::from_bytes)"
fi

if [[ "${FAILED}" != "0" ]]; then
    exit 1
fi
echo "guards: OK"
