//! `update`: the write path beside `serve`'s reads. Set-up is a cold flat
//! build; each timed step applies a ≈1% synthetic edit batch (untimed)
//! and times `Pipeline::run_incremental` on the previous output.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use mcqa_core::pipeline::CORPUS_SOURCE;
use mcqa_core::{ChunkRecord, Pipeline, PipelineConfig, PipelineOutput, CHUNKS_STORE};
use mcqa_corpus::{CorpusLibrary, DocId, EditBatch};
use mcqa_index::{IndexRegistry, IndexSpec};
use mcqa_ingest::{ContentHash, IngestManifest};
use mcqa_runtime::Executor;

use crate::layers;
use crate::report::{metric, Metric, Report};
use crate::stats::{median, spread};
use crate::trace::{SpanId, Tracer};
use crate::Args;

/// Batches per run: a fixed count per measured second (≈0.45 s each on a
/// 2-CPU VM, so the batches take about 1.4 × `--seconds`). Host speed on
/// such a VM drifts over seconds; a longer stretch of batches averages
/// more of that drift into the median.
const BATCHES_PER_SECOND: u64 = 3;

/// Seed offset of the edit batch the write-path replays apply: past any
/// batch a run times.
const REPLAY_BATCH: u64 = 1 << 20;

/// A cold flat build; returns the output, the set-up time and the
/// build's documents per second.
fn setup(cfg: &PipelineConfig, tracer: &Tracer) -> (PipelineOutput, f64, f64) {
    let t = Instant::now();
    let root = tracer.open("setup", None);
    let out = tracer.time("core.pipeline_run", root, || Pipeline::run(cfg));
    tracer.close(root);
    let secs = t.elapsed().as_secs_f64();
    let rate = out.library.len() as f64 / secs;
    (out, secs, rate)
}

/// The `i`-th edit batch of a run, applied to a copy of `prev`'s corpus:
/// ≈1% of the live documents, drawn with seed `seed + i`.
fn edited(prev: &PipelineOutput, seed: u64, i: u64) -> CorpusLibrary {
    let mut library = (*prev.library).clone();
    let n = (library.live_len() / 100).max(1);
    let batch = EditBatch::synthetic(&library, seed.wrapping_add(i), n);
    library.apply_edits(&prev.ontology, &batch);
    library
}

struct Measured {
    e2e: Vec<Metric>,
    last: PipelineOutput,
    rerun: Vec<f64>,
    tasks: Vec<f64>,
}

fn measure(
    base: PipelineOutput,
    build_rate: f64,
    setup_s: f64,
    args: &Args,
    tracer: &Tracer,
    rep: &mut Report,
) -> Measured {
    let cfg = base.config.clone();
    let batches = BATCHES_PER_SECOND * args.seconds;
    let (mut walls, mut rerun, mut tasks) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev = base;
    for i in 0..batches {
        let library = Arc::new(edited(&prev, args.seed, i));
        let root = tracer.open("update.batch", None);
        let t = Instant::now();
        let next = tracer
            .time("core.run_incremental", root, || Pipeline::run_incremental(&cfg, &prev, library));
        walls.push(t.elapsed().as_secs_f64());
        tracer.close(root);
        let c = &next.ingest;
        rerun.push(c.chunks_rerun as f64 / c.chunks_total.max(1) as f64);
        tasks.push(next.executor.stats().total_executed() as f64 / c.docs_changed().max(1) as f64);
        prev = next;
    }
    rep.attempted += batches;
    let peak = crate::report::peak_rss_mb();
    verify(&prev, &cfg, args.seed, rep);
    let recall = crate::serve::recall_at_k(&prev, &prev.indexes, args.seed, |req| {
        crate::serve::direct(&prev.indexes, &prev.indexes, &prev.encoder, &req)
    });
    let updates_per_s = 1.0 / median(&walls).unwrap_or(f64::NAN);
    Measured {
        e2e: crate::end_to_end(setup_s, peak, build_rate, updates_per_s, recall),
        last: prev,
        rerun,
        tasks,
    }
}

/// After the last batch the artifacts must equal a cold rebuild of the
/// edited corpus, and flat and lexical probe searches must be identical.
fn verify(inc: &PipelineOutput, cfg: &PipelineConfig, seed: u64, rep: &mut Report) {
    let cold = Pipeline::run_full(cfg, inc.ontology.clone(), inc.library.clone());
    let mismatched: Vec<&str> = [
        ("chunks", inc.chunks == cold.chunks),
        ("questions", inc.questions == cold.questions),
        ("items", inc.items == cold.items),
        ("traces", inc.traces == cold.traces),
        ("manifest", inc.manifest == cold.manifest),
    ]
    .into_iter()
    .filter(|(_, ok)| !ok)
    .map(|(what, _)| what)
    .collect();
    rep.check(
        "artifacts-equal-full-rebuild",
        mismatched.is_empty(),
        format!("differ: {mismatched:?}"),
    );

    let mut probes: Vec<String> =
        ["proton therapy dose", "gene expression pathway", "tumour margin imaging"]
            .map(String::from)
            .to_vec();
    let mut rng = crate::load::Rng::new(seed, 0x9B);
    probes.extend((0..5).map(|_| inc.items[rng.below(inc.items.len())].stem.clone()));
    let mut differ = 0usize;
    let mut compared = 0usize;
    for name in inc.indexes.names() {
        for p in &probes {
            let q = inc.encoder.encode(p);
            compared += 1;
            if inc.indexes.expect_store(name).search(&q, 10)
                != cold.indexes.expect_store(name).search(&q, 10)
            {
                differ += 1;
            }
        }
    }
    for name in inc.indexes.lexical_names() {
        for p in &probes {
            compared += 1;
            if inc.indexes.expect_lexical(name).search(p, 10)
                != cold.indexes.expect_lexical(name).search(p, 10)
            {
                differ += 1;
            }
        }
    }
    rep.check(
        "probe-searches-identical",
        differ == 0 && compared > 0,
        format!("{differ} of {compared} differ"),
    );
}

pub fn run(args: &Args, rep: &mut Report) {
    let cfg = crate::config(args.seed, IndexSpec::Flat);
    let off = Tracer::new(false);
    let mut builds = Vec::new();
    let (base, setup_s) = crate::set_up(args, || {
        let (out, t, rate) = setup(&cfg, &off);
        builds.push(rate);
        (out, t)
    });
    let build_rate = median(&builds).unwrap_or(f64::NAN);
    let untraced = measure(base, build_rate, setup_s, args, &off, rep).e2e;
    if !args.trace {
        rep.extend(untraced);
        return;
    }

    let on = Tracer::new(true);
    let (base, traced_setup, traced_build) = setup(&cfg, &on);
    let m = measure(base, traced_build, traced_setup, args, &on, rep);
    rep.extend(crate::overhead(&untraced, &m.e2e));
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    rep.extend([
        metric("core.pipeline_run_s", layers::span_median(&on, "core.pipeline_run"), "s"),
        metric("core.run_incremental_s", layers::span_median(&on, "core.run_incremental"), "s"),
        metric("ingest.rerun_ratio", med(&m.rerun), "ratio"),
        metric("runtime.tasks_per_op", med(&m.tasks), "ratio"),
        metric("runtime.steal_ratio", steal_ratio(&m.last), "ratio"),
    ]);
    let (r, t) = (spread(&m.rerun), spread(&m.tasks));
    rep.info(
        "spread",
        format!(
            "{{\"ingest.rerun_ratio\":[{},{}],\"runtime.tasks_per_op\":[{},{}]}}",
            r.0, r.1, t.0, t.1
        ),
    );
    let replay = on.open("replay", None);
    rep.extend(layers::eval(&m.last, args.seed, &on, replay));
    rep.extend(layers::llm(&m.last));
    rep.extend(replay_write_path(&m.last, args.seed, &on, replay));
    rep.extend(layers::replay_build(&m.last, &on, replay));
    on.close(replay);
    let registry = m.last.indexes.clone();
    let s = crate::serve::serve(m.last, registry, &on, None);
    let served = crate::serve::open_loop(&s, args.seed, &on, rep);
    rep.extend(served);
    crate::finish_trace(args, &on, &[], rep);
}

/// Share of the last incremental run's pool tasks that were stolen.
fn steal_ratio(out: &PipelineOutput) -> f64 {
    let s = out.executor.stats();
    s.total_steals() as f64 / s.total_executed().max(1) as f64
}

/// `core.run_incremental_s` and `ingest.rerun_ratio` for the workloads
/// that do not update: one ≈1% edit batch through
/// `Pipeline::run_incremental` on `out`.
pub fn replay_incremental(
    out: &PipelineOutput,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<Metric> {
    let library = Arc::new(edited(out, seed, REPLAY_BATCH));
    let t = Instant::now();
    let next = tracer.time("core.run_incremental", parent, || {
        Pipeline::run_incremental(&out.config, out, library)
    });
    let secs = t.elapsed().as_secs_f64();
    let c = &next.ingest;
    vec![
        metric("core.run_incremental_s", secs, "s"),
        metric("ingest.rerun_ratio", c.chunks_rerun as f64 / c.chunks_total.max(1) as f64, "ratio"),
    ]
}

/// Replay the write path of one more edit batch, one layer at a time
/// on one thread: content hashing of every live blob, the manifest diff, the registry byte round trip, and the
/// dense and BM25 chunk-store mutation (remove, add, compact) on the
/// decoded copy.
pub fn replay_write_path(
    last: &PipelineOutput,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<Metric> {
    let exec = Executor::new(1);
    let library = edited(last, seed, REPLAY_BATCH);

    let t = Instant::now();
    let table: Vec<(u64, ContentHash)> = tracer.time("replay.ingest_hash", parent, || {
        library
            .live_ids()
            .iter()
            .map(|id| {
                (id.0 as u64, ContentHash::of_bytes(library.download(*id).expect("live blob")))
            })
            .collect()
    });
    let hash_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut manifest = IngestManifest::new();
    manifest.set_source(CORPUS_SOURCE, table);
    let t = Instant::now();
    let changes = tracer.time("replay.ingest_diff", parent, || {
        IngestManifest::diff(&last.manifest, &manifest, CORPUS_SOURCE)
    });
    let diff_ms = t.elapsed().as_secs_f64() * 1e3;

    // Untimed preparation: the rows the mutation removes and adds.
    let dead_docs: HashSet<u64> =
        changes.modified.iter().chain(&changes.removed).copied().collect();
    let dead: Vec<u64> = last
        .chunks
        .iter()
        .filter(|c| dead_docs.contains(&(c.doc.0 as u64)))
        .map(|c| c.chunk_id)
        .collect();
    let parser = mcqa_parse::AdaptiveParser::new(Default::default());
    let chunker = mcqa_text::Chunker::new(&last.encoder, last.config.chunker.clone());
    let mut fresh: Vec<(u64, String)> = Vec::new();
    for id in changes.added.iter().chain(&changes.modified) {
        let doc = DocId(*id as u32);
        let Some(parsed) = library.download(doc).and_then(|b| parser.parse(b).document().cloned())
        else {
            continue;
        };
        for (ci, c) in chunker.chunk(&parsed.full_text()).into_iter().enumerate() {
            fresh.push((ChunkRecord::make_id(doc, ci as u32), c.text));
        }
    }
    let rows: Vec<(u64, Vec<f32>)> =
        fresh.iter().map(|(id, text)| (*id, last.encoder.encode(text))).collect();

    let t = Instant::now();
    let bytes = tracer.time("replay.registry_encode", parent, || last.indexes.to_bytes());
    let encode_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut reg = tracer
        .time("replay.registry_decode", parent, || IndexRegistry::from_bytes(&bytes))
        .expect("the registry decodes from its own bytes");
    let decode_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    tracer.time("replay.index_mutate", parent, || {
        let store = reg.expect_store_mut(CHUNKS_STORE);
        store.remove(&dead);
        store.add_batch(&exec, &rows);
        store.compact(&exec);
    });
    let index_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    tracer.time("replay.lexical_mutate", parent, || {
        let lex = reg.expect_lexical_mut(&IndexRegistry::lexical_sibling(CHUNKS_STORE));
        lex.remove(&dead);
        lex.add_batch(&exec, &fresh);
        lex.compact();
    });
    let lex_ms = t.elapsed().as_secs_f64() * 1e3;
    vec![
        metric("ingest.hash_ms", hash_ms, "ms"),
        metric("ingest.diff_ms", diff_ms, "ms"),
        metric("index.registry_encode_ms", encode_ms, "ms"),
        metric("index.registry_decode_ms", decode_ms, "ms"),
        metric("index.registry_bytes", bytes.len() as f64, "bytes"),
        metric("index.mutate_ms", index_ms, "ms"),
        metric("lexical.mutate_ms", lex_ms, "ms"),
    ]
}
