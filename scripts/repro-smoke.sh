#!/usr/bin/env bash
# Smoke-test the end-to-end paper pipeline: run the `repro` binary over every
# table/figure at ~1% of paper scale with a fixed seed, then re-run the fig1
# smoke under every vector-store backend (flat / hnsw / ivf / pq) and assert
# the generation artifacts are identical and ANN recall stays above the floor.
# Any panic, stage failure, or non-zero exit fails the script (and CI).
#
# Usage: scripts/repro-smoke.sh [scale] [seed]
set -euo pipefail

SCALE="${1:-0.01}"
SEED="${2:-42}"

cd "$(dirname "$0")/.."

echo "== repro smoke: source guards =="
# The static grep guards (one scheduler, backend-agnostic consumers, one
# k-means trainer, served retrieval, panel-cache scans, one ingest
# planner, structural registry clone) live in one script the CI lint job
# runs too.
scripts/guards.sh

echo "== repro smoke: scale=${SCALE} seed=${SEED} =="
ALL_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- all --scale "${SCALE}" --seed "${SEED}")"
echo "${ALL_OUT}"

echo "== repro smoke: stage census (fig1) per index backend =="
# `repro fig1` under each backend: the generation artifacts (docs, chunks,
# candidates, accepted questions) must not depend on the store backend.
declare -A CENSUS
for backend in flat hnsw ivf pq; do
    OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- fig1 --scale "${SCALE}" --seed "${SEED}" --index "${backend}" 2>&1)"
    echo "${OUT}"
    # `|| true`: a format drift must reach the diagnostic below, not kill
    # the script via set -e inside the command substitution.
    CENSUS[$backend]="$(grep -oE '[0-9]+ docs → [0-9]+ chunks → [0-9]+ candidates → [0-9]+ accepted' <<<"${OUT}" || true)"
    if [[ -z "${CENSUS[$backend]}" ]]; then
        echo "repro smoke FAILED: no artifact census under --index ${backend}" >&2
        exit 1
    fi
    # The workflow must report the paper's Figure-1 stage census — one
    # index-build row per store and one model-layer cost row per role the
    # pipeline called — with the throughput columns recorded by the
    # runtime metrics.
    for stage in acquire parse chunk embed-chunks index-chunks generate+judge traces \
        embed-traces index-traces-detailed index-traces-focused index-traces-efficient \
        model-teacher model-judge out/s; do
        if ! grep -qF "${stage}" <<<"${OUT}"; then
            echo "repro smoke FAILED: --index ${backend} stage report is missing '${stage}'" >&2
            exit 1
        fi
    done
done
for backend in hnsw ivf pq; do
    if [[ "${CENSUS[$backend]}" != "${CENSUS[flat]}" ]]; then
        echo "repro smoke FAILED: --index ${backend} artifacts (${CENSUS[$backend]}) differ from flat (${CENSUS[flat]})" >&2
        exit 1
    fi
done

echo "== repro smoke: ANN recall floor =="
RECALL_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- recall --scale "${SCALE}" --seed "${SEED}")"
echo "${RECALL_OUT}"
for backend in flat hnsw ivf pq; do
    LINE="$(grep -F "[recall] backend=${backend} " <<<"${RECALL_OUT}" || true)"
    RECALL="$(grep -oE 'recall_at_5=[0-9.]+' <<<"${LINE}" | cut -d= -f2 || true)"
    if [[ -z "${RECALL}" ]]; then
        echo "repro smoke FAILED: no recall line for ${backend}" >&2
        exit 1
    fi
    if ! awk -v r="${RECALL}" 'BEGIN { exit !(r >= 0.9) }'; then
        echo "repro smoke FAILED: ${backend} recall@5 ${RECALL} < 0.9 vs flat baseline" >&2
        exit 1
    fi
    # Every [recall] line must also report exact-search throughput and the
    # serialised footprint, so the blocked-kernel win and the compression
    # claim stay greppable regression surfaces.
    if ! grep -qE 'search_qps=[0-9]+' <<<"${LINE}"; then
        echo "repro smoke FAILED: ${backend} recall line reports no search_qps" >&2
        exit 1
    fi
    if ! grep -qE 'mem_bytes=[0-9]+' <<<"${LINE}"; then
        echo "repro smoke FAILED: ${backend} recall line reports no mem_bytes" >&2
        exit 1
    fi
done
# The quantized backend must actually compress: its serialised store must be
# at most 55% of the flat store's, even at smoke scale. The bar is loose here
# because the fixed centroid table (nlist x dim f32s) amortises over only
# ~2k vectors at scale 0.01; at scale 0.1 the ratio is already 2.3x and the
# clustered crossover bench enforces >= 4x at 10^5 vectors.
FLAT_MEM="$(grep -F '[recall] backend=flat ' <<<"${RECALL_OUT}" | grep -oE 'mem_bytes=[0-9]+' | cut -d= -f2)"
PQ_MEM="$(grep -F '[recall] backend=pq ' <<<"${RECALL_OUT}" | grep -oE 'mem_bytes=[0-9]+' | cut -d= -f2)"
if ! awk -v f="${FLAT_MEM}" -v p="${PQ_MEM}" 'BEGIN { exit !(p * 100 <= f * 55) }'; then
    echo "repro smoke FAILED: pq store (${PQ_MEM}B) is not ≤ 55% of the flat store (${FLAT_MEM}B)" >&2
    exit 1
fi
# Flat is the exact baseline: its recall is 1.0 by definition, and anything
# else means the blocked/batched kernel diverged from ground truth.
FLAT_RECALL="$(grep -F '[recall] backend=flat ' <<<"${RECALL_OUT}" | grep -oE 'recall_at_5=[0-9.]+' | cut -d= -f2)"
if ! awk -v r="${FLAT_RECALL}" 'BEGIN { exit !(r == 1.0) }'; then
    echo "repro smoke FAILED: flat recall@5 ${FLAT_RECALL} != 1.0 (exact search is no longer exact)" >&2
    exit 1
fi

echo "== repro smoke: retrieval modes (dense / lexical / hybrid) =="
# Every retrieval mode must report a greppable per-source recall line plus
# the source=all aggregate — the surface the README's hybrid table and the
# ROADMAP memory table read from.
for mode in dense lexical hybrid; do
    for source in chunks traces-detailed traces-focused traces-efficient all; do
        if ! grep -qF "[recall] mode=${mode} source=${source} " <<<"${RECALL_OUT}"; then
            echo "repro smoke FAILED: no [recall] mode=${mode} line for source=${source}" >&2
            exit 1
        fi
    done
done
# The lexical channel reports its resident footprint like every dense
# backend, so the memory table stays uniform across channels.
if ! grep -F '[recall] mode=lexical source=chunks ' <<<"${RECALL_OUT}" |
    grep -qE 'mem_bytes=[0-9]+ bytes_per_vec=[0-9.]+'; then
    echo "repro smoke FAILED: lexical recall line reports no mem_bytes/bytes_per_vec" >&2
    exit 1
fi
# Fusing the lexical channel in must not lose recall vs dense-only, even
# at smoke scale.
DENSE_R="$(grep -F '[recall] mode=dense source=all ' <<<"${RECALL_OUT}" | grep -oE 'recall_at_5=[0-9.]+' | cut -d= -f2)"
HYBRID_R="$(grep -F '[recall] mode=hybrid source=all ' <<<"${RECALL_OUT}" | grep -oE 'recall_at_5=[0-9.]+' | cut -d= -f2)"
if ! awk -v d="${DENSE_R}" -v h="${HYBRID_R}" 'BEGIN { exit !(h >= d) }'; then
    echo "repro smoke FAILED: hybrid recall@5 ${HYBRID_R} < dense-only ${DENSE_R}" >&2
    exit 1
fi

# The evaluation runs on the same scheduler: `repro all` must surface both
# the pipeline stages (generate+judge included) and the eval stages via
# runtime StageMetrics.
for stage in generate+judge eval-retrieve eval-embed-cache eval-assemble eval-answer out/s; do
    if ! grep -qF "${stage}" <<<"${ALL_OUT}"; then
        echo "repro smoke FAILED: 'repro all' stage report is missing '${stage}'" >&2
        exit 1
    fi
done
# The eval-retrieve row must report a measured throughput (questions/s in
# the items/s column): retrieval goes through the timed multi-query path,
# not an unmeasured inline loop.
RETRIEVE_QPS="$(grep -E '^eval-retrieve ' <<<"${ALL_OUT}" | head -1 | awk '{print $7}')"
if [[ -z "${RETRIEVE_QPS}" ]] || ! awk -v q="${RETRIEVE_QPS}" 'BEGIN { exit !(q > 0) }'; then
    echo "repro smoke FAILED: eval-retrieve row reports no q/s (got '${RETRIEVE_QPS}')" >&2
    exit 1
fi

echo "== repro smoke: serving layer =="
# `repro serve-bench` drives the query service end to end: the served
# results must verify bit-identical against direct search, and every mode
# must report a full percentile line with sane ordering and no lost work.
SERVE_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- serve-bench --scale "${SCALE}" --seed "${SEED}" --serve-requests 128 --serve-concurrency 1,8 2>&1)"
echo "${SERVE_OUT}" | grep '\[serve\]'
if ! grep -qF '[serve] verify=ok' <<<"${SERVE_OUT}"; then
    echo "repro smoke FAILED: serve-bench verification pass did not report verify=ok" >&2
    exit 1
fi
if ! grep -qE '\[serve\] startup .*lazy_ms=[0-9.]+' <<<"${SERVE_OUT}"; then
    echo "repro smoke FAILED: serve-bench reports no lazy-open startup timing" >&2
    exit 1
fi
for mode in baseline batched; do
    while IFS= read -r LINE; do
        for key in requests= submitted= served= rejected= qps= p50_ms= p95_ms= p99_ms= saturation=; do
            if ! grep -qF "${key}" <<<"${LINE}"; then
                echo "repro smoke FAILED: serve-bench ${mode} line is missing '${key}'" >&2
                exit 1
            fi
        done
        SUBMITTED="$(grep -oE 'submitted=[0-9]+' <<<"${LINE}" | cut -d= -f2)"
        SERVED="$(grep -oE ' served=[0-9]+' <<<"${LINE}" | grep -oE '[0-9]+')"
        P50="$(grep -oE 'p50_ms=[0-9.]+' <<<"${LINE}" | cut -d= -f2)"
        P99="$(grep -oE 'p99_ms=[0-9.]+' <<<"${LINE}" | cut -d= -f2)"
        if [[ "${SERVED}" != "${SUBMITTED}" ]]; then
            echo "repro smoke FAILED: serve-bench ${mode} lost work (served=${SERVED} != submitted=${SUBMITTED})" >&2
            exit 1
        fi
        if ! awk -v p50="${P50}" -v p99="${P99}" 'BEGIN { exit !(p99 >= p50 && p50 >= 0) }'; then
            echo "repro smoke FAILED: serve-bench ${mode} percentiles disordered (p50=${P50} p99=${P99})" >&2
            exit 1
        fi
    done < <(grep -F "[serve] mode=${mode} " <<<"${SERVE_OUT}")
    if ! grep -qF "[serve] mode=${mode} " <<<"${SERVE_OUT}"; then
        echo "repro smoke FAILED: serve-bench reports no ${mode} percentile line" >&2
        exit 1
    fi
done

echo "== repro smoke: panel cache + single-request fast path =="
# Every percentile line reports the fast-path observable, and the run
# reports the cache's resident footprint against its budget.
if ! grep -F '[serve] mode=' <<<"${SERVE_OUT}" | grep -qE 'fast_path_hits=[0-9]+'; then
    echo "repro smoke FAILED: serve-bench percentile lines report no fast_path_hits" >&2
    exit 1
fi
if ! grep -qE '\[serve\] panel_cache resident_bytes=[0-9]+ budget=' <<<"${SERVE_OUT}"; then
    echo "repro smoke FAILED: serve-bench reports no panel_cache footprint line" >&2
    exit 1
fi
# Batch-of-1 p50: the resident cache must not be slower than the
# decode-per-query floor it replaced. Compare the default (auto budget)
# against --cache-budget 0 (cache disabled) at concurrency 1, with 5%
# slack for timer noise. At scale 0.1 the gap is ~10x, not 5%.
P50_CACHED="$(grep -F '[serve] mode=baseline concurrency=1 ' <<<"${SERVE_OUT}" | grep -oE 'p50_ms=[0-9.]+' | cut -d= -f2)"
NOCACHE_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- serve-bench --scale "${SCALE}" --seed "${SEED}" --serve-requests 128 --serve-concurrency 1 --cache-budget 0 2>&1)"
echo "${NOCACHE_OUT}" | grep -E '\[serve\] (mode=|panel_cache)'
P50_UNCACHED="$(grep -F '[serve] mode=baseline concurrency=1 ' <<<"${NOCACHE_OUT}" | grep -oE 'p50_ms=[0-9.]+' | cut -d= -f2)"
if [[ -z "${P50_CACHED}" || -z "${P50_UNCACHED}" ]]; then
    echo "repro smoke FAILED: missing concurrency-1 p50 (cached='${P50_CACHED}' uncached='${P50_UNCACHED}')" >&2
    exit 1
fi
if ! awk -v c="${P50_CACHED}" -v u="${P50_UNCACHED}" 'BEGIN { exit !(c <= u * 1.05) }'; then
    echo "repro smoke FAILED: cached batch-of-1 p50 ${P50_CACHED}ms > uncached ${P50_UNCACHED}ms" >&2
    exit 1
fi
# A zero budget must actually disable residency.
if ! grep -qF '[serve] panel_cache resident_bytes=0 budget=0' <<<"${NOCACHE_OUT}"; then
    echo "repro smoke FAILED: --cache-budget 0 left panels resident" >&2
    exit 1
fi

echo "== repro smoke: saturation-knee sweep =="
# `--sweep` walks the offered open-loop rate to the saturation knee and
# must report the max sustainable rate for the dense and hybrid modes,
# with the seed and arrival discipline on every line.
SWEEP_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- serve-bench --scale "${SCALE}" --seed "${SEED}" --serve-requests 128 --serve-concurrency 2 --sweep 2>&1)"
echo "${SWEEP_OUT}" | grep '\[serve\] sweep'
for mode in dense hybrid; do
    KNEE="$(grep -E "\[serve\] sweep mode=${mode} .*max_sustainable_qps=[0-9]+" <<<"${SWEEP_OUT}" || true)"
    if [[ -z "${KNEE}" ]]; then
        echo "repro smoke FAILED: sweep reports no max_sustainable_qps for mode=${mode}" >&2
        exit 1
    fi
    for key in "seed=${SEED}" "arrivals=open"; do
        if ! grep -qF "${key}" <<<"${KNEE}"; then
            echo "repro smoke FAILED: sweep knee line for mode=${mode} is missing '${key}'" >&2
            exit 1
        fi
    done
done

echo "== repro smoke: incremental ingest (no-op edit batch) =="
# An unchanged corpus must re-run nothing: every document skipped, zero
# tombstones, zero compactions, and the post-edit indexes verify
# identical against the cold rebuild.
INGEST0_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- ingest --scale "${SCALE}" --seed "${SEED}" --edits 0 2>&1)"
echo "${INGEST0_OUT}" | grep '\[ingest\]'
for want in "edits=0" "docs_added=0" "docs_modified=0" "docs_removed=0" "chunks_rerun=0" \
    "tombstones_dense=0" "tombstones_lexical=0" "compactions=0" "verify=identical"; do
    if ! grep -qF "${want}" <<<"${INGEST0_OUT}"; then
        echo "repro smoke FAILED: no-op ingest census is missing '${want}'" >&2
        exit 1
    fi
done
SCANNED="$(grep -F '[ingest] docs_scanned=' <<<"${INGEST0_OUT}" | cut -d= -f2)"
SKIPPED="$(grep -F '[ingest] docs_skipped=' <<<"${INGEST0_OUT}" | cut -d= -f2)"
if [[ -z "${SCANNED}" || "${SCANNED}" != "${SKIPPED}" ]]; then
    echo "repro smoke FAILED: no-op ingest must skip 100% of documents (scanned=${SCANNED} skipped=${SKIPPED})" >&2
    exit 1
fi

echo "== repro smoke: incremental ingest (single-document edit) =="
# One edited document must re-run only its own slices: exactly one
# document changed, the rest of the chunk set reused, and the re-run
# indexes still verify against the cold rebuild.
INGEST1_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- ingest --scale "${SCALE}" --seed "${SEED}" --edits 1 2>&1)"
echo "${INGEST1_OUT}" | grep '\[ingest\]'
if ! grep -qF 'verify=identical' <<<"${INGEST1_OUT}"; then
    echo "repro smoke FAILED: single-edit ingest did not verify against the cold rebuild" >&2
    exit 1
fi
ADDED="$(grep -F '[ingest] docs_added=' <<<"${INGEST1_OUT}" | cut -d= -f2)"
MODIFIED="$(grep -F '[ingest] docs_modified=' <<<"${INGEST1_OUT}" | cut -d= -f2)"
REMOVED="$(grep -F '[ingest] docs_removed=' <<<"${INGEST1_OUT}" | cut -d= -f2)"
if [[ "$((ADDED + MODIFIED + REMOVED))" != "1" ]]; then
    echo "repro smoke FAILED: a 1-op edit batch must change exactly one document (add=${ADDED} mod=${MODIFIED} rm=${REMOVED})" >&2
    exit 1
fi
TOTAL="$(grep -F '[ingest] chunks_total=' <<<"${INGEST1_OUT}" | cut -d= -f2)"
RERUN="$(grep -F '[ingest] chunks_rerun=' <<<"${INGEST1_OUT}" | cut -d= -f2)"
REUSED="$(grep -F '[ingest] chunks_reused=' <<<"${INGEST1_OUT}" | cut -d= -f2)"
if ! awk -v t="${TOTAL}" -v r="${RERUN}" -v u="${REUSED}" \
    'BEGIN { exit !(u > 0 && t > 0 && r * 10 < t) }'; then
    echo "repro smoke FAILED: a single edit re-ran too much (rerun=${RERUN} of ${TOTAL}, reused=${REUSED})" >&2
    exit 1
fi
if ! grep -qE '\[ingest\] full_secs=[0-9.]+ incremental_secs=[0-9.]+ verify_secs=[0-9.]+ speedup=[0-9.]+' <<<"${INGEST1_OUT}"; then
    echo "repro smoke FAILED: ingest reports no wall-clock comparison line" >&2
    exit 1
fi

echo "== repro smoke: golden artifact census (scale 0.02, seed 42) =="
# The golden determinism bar: the sim-backend generation artifacts at the
# pinned (scale, seed) must stay byte-identical across refactors. Captured
# from the pre-ModelEndpoint pipeline; the full-artifact hashes behind the
# same run are pinned in tests/golden.rs at the tiny config.
GOLDEN_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- fig1 --scale 0.02 --seed 42 2>&1)"
GOLDEN_CENSUS="451 docs → 3760 chunks → 3760 candidates → 430 accepted"
if ! grep -qF "${GOLDEN_CENSUS}" <<<"${GOLDEN_OUT}"; then
    echo "repro smoke FAILED: scale-0.02 census drifted from the golden run (${GOLDEN_CENSUS})" >&2
    grep -oE '[0-9]+ docs → [0-9]+ chunks → [0-9]+ candidates → [0-9]+ accepted' <<<"${GOLDEN_OUT}" >&2 || true
    exit 1
fi

echo "== repro smoke: model-layer call-ledger census =="
# `repro models` is the cost-accounting surface: every role must report
# greppable calls / token-estimate / cache-hit-rate key=value lines, and
# the evaluation must actually exercise the response cache (the no-math
# re-answer pass is served from it).
MODELS_OUT="$(cargo run --release -q -p mcqa-bench --bin repro -- models --scale "${SCALE}" --seed "${SEED}" 2>&1)"
echo "${MODELS_OUT}" | grep '\[models\]'
# `reranker` rides the same census: `repro models` replays a short
# hybrid+rerank retrieval bundle so the cross-encoder's traffic is priced
# by the shared ledger alongside every other role.
for role in teacher judge classifier answerer reranker total; do
    LINE="$(grep -F "[models] backend=sim role=${role} " <<<"${MODELS_OUT}" || true)"
    if [[ -z "${LINE}" ]]; then
        echo "repro smoke FAILED: no ledger line for role=${role}" >&2
        exit 1
    fi
    for key in calls= batches= cache_hits= hit_rate= tokens_in= tokens_out=; do
        if ! grep -qF "${key}" <<<"${LINE}"; then
            echo "repro smoke FAILED: role=${role} ledger line is missing '${key}'" >&2
            exit 1
        fi
    done
done
ANSWER_HITS="$(grep -F '[models] backend=sim role=answerer ' <<<"${MODELS_OUT}" | grep -oE 'cache_hits=[0-9]+' | cut -d= -f2)"
if [[ "${ANSWER_HITS}" -le 0 ]]; then
    echo "repro smoke FAILED: the response cache never served an answer (hits=${ANSWER_HITS})" >&2
    exit 1
fi

echo "== repro smoke: OK =="
