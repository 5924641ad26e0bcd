//! Per-layer replays for the traced run. Each replays one layer's public
//! function serially, on one thread, over the workload's own inputs, and
//! reports busy time per item: the layer's cost without the scheduling
//! and contention of the workload around it.

use std::time::Instant;

use mcqa_core::{PipelineConfig, PipelineOutput};
use mcqa_embed::Precision;
use mcqa_eval::{EvalConfig, Evaluator};
use mcqa_index::{build_store_from_vectors, Metric as VecMetric};
use mcqa_lexical::LexicalIndex;
use mcqa_llm::{endpoint::Role, TraceMode, MODEL_CARDS};
use mcqa_runtime::{Executor, PoolStats};

use crate::report::{metric, Metric};
use crate::trace::{SpanId, Tracer};

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `corpus.build_s`: ontology generation plus corpus synthesis and
/// rendering, on a one-worker pool.
pub fn corpus(cfg: &PipelineConfig, tracer: &Tracer, parent: Option<SpanId>) -> Vec<Metric> {
    let exec = Executor::new(1);
    let t = Instant::now();
    tracer.time("replay.corpus", parent, || {
        let ontology = mcqa_ontology::Ontology::generate(&cfg.ontology);
        std::hint::black_box(mcqa_corpus::CorpusLibrary::build(&ontology, &cfg.acquisition, &exec));
    });
    vec![metric("corpus.build_s", secs(t), "s")]
}

/// Parse and chunk every live document, as the pipeline's parse and
/// chunk stages do.
pub fn parse_and_chunk(
    out: &PipelineOutput,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<Metric> {
    let parser = mcqa_parse::AdaptiveParser::new(Default::default());
    let ids = out.library.live_ids();
    let (mut parse_s, mut fails) = (0.0, 0usize);
    let mut docs = Vec::with_capacity(ids.len());
    tracer.time("replay.parse", parent, || {
        for id in &ids {
            let blob = out.library.download(*id).expect("live document has a blob");
            let t = Instant::now();
            let parsed = parser.parse(blob);
            parse_s += secs(t);
            match parsed.document() {
                Some(d) => docs.push(d.full_text()),
                None => fails += 1,
            }
        }
    });
    let chunker = mcqa_text::Chunker::new(&out.encoder, out.config.chunker.clone());
    let (mut chunk_s, mut chunks) = (0.0, 0usize);
    tracer.time("replay.chunk", parent, || {
        for text in &docs {
            let t = Instant::now();
            chunks += std::hint::black_box(chunker.chunk(text)).len();
            chunk_s += secs(t);
        }
    });
    let n = ids.len().max(1) as f64;
    vec![
        metric("parse.us_per_doc", parse_s * 1e6 / n, "us"),
        metric("parse.fail_ratio", fails as f64 / n, "ratio"),
        metric("text.chunk_us_per_doc", chunk_s * 1e6 / docs.len().max(1) as f64, "us"),
        metric("text.chunks", chunks as f64, "count"),
    ]
}

/// Encode every chunk and trace text one at a time.
pub fn embed(out: &PipelineOutput, tracer: &Tracer, parent: Option<SpanId>) -> Vec<Metric> {
    let texts: Vec<&str> = out
        .chunks
        .iter()
        .map(|c| c.text.as_str())
        .chain(out.traces.iter().map(|t| t.trace.as_str()))
        .collect();
    let t = Instant::now();
    tracer.time("replay.embed", parent, || {
        for text in &texts {
            std::hint::black_box(out.encoder.encode(text));
        }
    });
    vec![metric("embed.encode_us_per_text", secs(t) * 1e6 / texts.len().max(1) as f64, "us")]
}

/// One store's (id, vector) rows.
pub type Rows = Vec<(u64, Vec<f32>)>;

/// The pipeline's four dense stores as named rows: chunk texts re-encoded
/// (the output keeps no chunk vectors), trace vectors as kept.
pub fn store_rows(out: &PipelineOutput) -> Vec<(String, Rows)> {
    let texts: Vec<&str> = out.chunks.iter().map(|c| c.text.as_str()).collect();
    let vectors = out.encoder.encode_batch(&out.executor, &texts);
    let mut rows = vec![(
        mcqa_core::CHUNKS_STORE.to_string(),
        out.chunks.iter().map(|c| c.chunk_id).zip(vectors).collect(),
    )];
    for (mi, mode) in TraceMode::ALL.iter().enumerate() {
        let vs = &out.trace_vectors[mi];
        rows.push((
            mode.db_name().to_string(),
            vs.iter().cloned().enumerate().map(|(q, v)| (q as u64, v)).collect(),
        ));
    }
    rows
}

/// Build one store of `spec` from rows, as the pipeline does.
pub fn build_store(
    spec: &mcqa_index::IndexSpec,
    out: &PipelineOutput,
    exec: &Executor,
    rows: &[(u64, Vec<f32>)],
) -> Box<dyn mcqa_index::VectorStore> {
    build_store_from_vectors(
        spec,
        out.config.embed.dim,
        VecMetric::Cosine,
        Precision::F16,
        exec,
        rows,
    )
}

/// `index.build_s` and `lexical.build_s`: the four dense stores and
/// their BM25 siblings built on a one-worker pool.
pub fn index_build(
    out: &PipelineOutput,
    rows: &[(String, Rows)],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<Metric> {
    let exec = Executor::new(1);
    let t = Instant::now();
    tracer.time("replay.index_build", parent, || {
        for (_, r) in rows {
            std::hint::black_box(build_store(&out.config.index, out, &exec, r));
        }
    });
    let index_s = secs(t);
    let mut lex_texts: Vec<Vec<(u64, &str)>> =
        vec![out.chunks.iter().map(|c| (c.chunk_id, c.text.as_str())).collect()];
    for mode in TraceMode::ALL {
        lex_texts.push(
            out.traces
                .iter()
                .filter(|t| t.mode == mode)
                .map(|t| (t.question_id, t.trace.as_str()))
                .collect(),
        );
    }
    let t = Instant::now();
    tracer.time("replay.lexical_build", parent, || {
        for pairs in &lex_texts {
            let mut lex = LexicalIndex::new(Default::default());
            lex.add_batch(&exec, pairs);
            std::hint::black_box(lex);
        }
    });
    vec![metric("index.build_s", index_s, "s"), metric("lexical.build_s", secs(t), "s")]
}

/// Calls and batching per model role, and the response-cache hit ratio,
/// from the hub's ledger. A role with no calls reads 0 calls of batch 0.
pub fn llm(out: &PipelineOutput) -> Vec<Metric> {
    let ledger = out.models.ledger();
    let mut ms = Vec::new();
    for role in [Role::Teacher, Role::Judge, Role::Classifier, Role::Answerer] {
        let s = ledger.role(role);
        ms.push(metric(format!("llm.{}.calls", role.label()), s.calls as f64, "count"));
        ms.push(metric(format!("llm.{}.mean_batch", role.label()), s.mean_batch_size(), "count"));
    }
    ms.push(metric("llm.cache_hit_ratio", ledger.total().hit_rate(), "ratio"));
    ms
}

/// Pool tasks per operation of the workload (a document, a request or
/// a changed document) and the share of tasks that were stolen, between
/// two pool snapshots.
pub fn runtime(before: &PoolStats, after: &PoolStats, ops: usize) -> Vec<Metric> {
    let tasks = after.total_executed() - before.total_executed();
    let steals = after.total_steals() - before.total_steals();
    vec![
        metric("runtime.tasks_per_op", tasks as f64 / ops.max(1) as f64, "ratio"),
        metric("runtime.steal_ratio", steals as f64 / tasks.max(1) as f64, "ratio"),
    ]
}

/// The build layers replayed over `out`: corpus synthesis, parse and
/// chunk, encoding, and the dense and BM25 store builds.
pub fn replay_build(out: &PipelineOutput, tracer: &Tracer, parent: Option<SpanId>) -> Vec<Metric> {
    let mut ms = corpus(&out.config, tracer, parent);
    ms.extend(parse_and_chunk(out, tracer, parent));
    ms.extend(embed(out, tracer, parent));
    let rows = store_rows(out);
    ms.extend(index_build(out, &rows, tracer, parent));
    ms
}

/// The eval layer replayed over `out`: `Evaluator::new` (exam generation
/// and retrieval bundles) and one model card, for the workloads that do
/// not evaluate.
pub fn eval(
    out: &PipelineOutput,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<Metric> {
    let t = Instant::now();
    let ev = tracer.time("eval.new", parent, || {
        Evaluator::new(out, EvalConfig { seed, ..Default::default() })
    });
    let prep_s = secs(t);
    let t = Instant::now();
    tracer.time("eval.card", parent, || std::hint::black_box(ev.evaluate_card(&MODEL_CARDS[0])));
    let card_s = secs(t);
    let (hits, misses) = ev.embed_cache_stats();
    vec![
        metric("eval.prep_s", prep_s, "s"),
        metric("eval.card_s", card_s, "s"),
        metric("eval.retrieve_mean_batch", ev.serve_stats().mean_batch(), "count"),
        metric("eval.embed_cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio"),
    ]
}

/// Median of the durations of spans named `name`, in seconds.
pub fn span_median(tracer: &Tracer, name: &str) -> f64 {
    crate::stats::median(&tracer.durations(name)).unwrap_or(f64::NAN)
}
