//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <reproduce|serve|serve-pq|update> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every input is generated from `--seed`:
//! the pipeline config seed, the edit batches and the request schedule;
//! the program under test sees only those. An untraced run (`--trace 0`)
//! prints every end-to-end metric ([`END_TO_END`]). A traced run
//! (`--trace 1`) repeats set-up and measurement with spans recorded,
//! prints every per-layer metric ([`PER_LAYER`]: the tracing overhead of
//! each end-to-end metric, and each layer, replayed where the workload
//! does not run it), and writes its spans to `perfbench/out/`. Every
//! workload prints the same metrics; `BENCHMARK.json` lists them. The last line of standard
//! output is the result object; the line before it is the environment
//! stamp with the output checks, digests and sample counts.

mod layers;
mod load;
mod report;
mod reproduce;
mod serve;
mod stats;
mod trace;
mod update;

use mcqa_core::PipelineConfig;
use mcqa_index::IndexSpec;

use report::{metric, Metric, Report};

/// Corpus scale of every workload (0.1 = 2,255 documents).
pub const SCALE: f64 = 0.1;

/// Set-ups per untraced run (a traced run sets up once); `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 3;

pub const WORKLOADS: [&str; 4] = ["reproduce", "serve", "serve-pq", "update"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The pipeline configuration a workload seed generates.
pub fn config(seed: u64, index: IndexSpec) -> PipelineConfig {
    let mut c = PipelineConfig::at_scale(SCALE, seed);
    c.index = index;
    c
}

/// Set up `SETUP_REPS` times (once in a traced run), dropping each state
/// before the next; returns the last state and the median set-up time.
pub fn set_up<S>(args: &Args, mut setup: impl FnMut() -> (S, f64)) -> (S, f64) {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (mut last, mut secs) = (None, Vec::with_capacity(reps));
    for _ in 0..reps {
        drop(last.take());
        let (state, t) = setup();
        secs.push(t);
        last = Some(state);
    }
    (last.expect("at least one set-up"), stats::median(&secs).expect("at least one set-up"))
}

/// The end-to-end metrics every untraced run prints, in order.
pub const END_TO_END: [&str; 5] =
    ["setup_s", "peak_rss_mb", "build_docs_per_s", "ops_per_s", "recall_at_8"];

/// The per-layer metrics every traced run prints.
pub const PER_LAYER: [&str; 61] = [
    "trace_overhead.setup_s",
    "trace_overhead.peak_rss_mb",
    "trace_overhead.build_docs_per_s",
    "trace_overhead.ops_per_s",
    "trace_overhead.recall_at_8",
    "corpus.build_s",
    "parse.us_per_doc",
    "parse.fail_ratio",
    "text.chunk_us_per_doc",
    "text.chunks",
    "embed.encode_us_per_text",
    "embed.panel_cache_bytes",
    "index.build_s",
    "index.search_us.chunks",
    "index.search_us.traces-detailed",
    "index.search_us.traces-efficient",
    "index.search_us.traces-focused",
    "index.registry_encode_ms",
    "index.registry_decode_ms",
    "index.registry_bytes",
    "index.mutate_ms",
    "lexical.build_s",
    "lexical.search_us",
    "lexical.fuse_us",
    "lexical.mutate_ms",
    "llm.teacher.calls",
    "llm.teacher.mean_batch",
    "llm.judge.calls",
    "llm.judge.mean_batch",
    "llm.classifier.calls",
    "llm.classifier.mean_batch",
    "llm.answerer.calls",
    "llm.answerer.mean_batch",
    "llm.cache_hit_ratio",
    "runtime.tasks_per_op",
    "runtime.steal_ratio",
    "serve.queue_ms.p50",
    "serve.queue_ms.p99",
    "serve.encode_ms.p50",
    "serve.search_ms.p50",
    "serve.search_ms.p99",
    "serve.unattributed_ms.p50",
    "serve.unattributed_ms.p99",
    "serve.batch_mean",
    "serve.fast_path_ratio",
    "serve.refused_ratio",
    "serve.lo_p50_ms",
    "serve.lo_p99_ms",
    "serve.hi_p50_ms",
    "serve.hi_p99_ms",
    "serve.max_qps",
    "gen.lag_ms.p99",
    "ingest.hash_ms",
    "ingest.diff_ms",
    "ingest.rerun_ratio",
    "eval.prep_s",
    "eval.card_s",
    "eval.retrieve_mean_batch",
    "eval.embed_cache_hit_ratio",
    "core.pipeline_run_s",
    "core.run_incremental_s",
];

/// A run's end-to-end metrics, in the order of [`END_TO_END`]. `ops_per_s`
/// counts the workload's own operation: graded answers (`reproduce`),
/// answered requests (`serve`, `serve-pq`), incremental updates
/// (`update`).
pub fn end_to_end(
    setup_s: f64,
    peak_rss_mb: f64,
    build_docs_per_s: f64,
    ops_per_s: f64,
    recall_at_8: f64,
) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("build_docs_per_s", build_docs_per_s, "1/s"),
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("recall_at_8", recall_at_8, "ratio"),
    ]
}

/// `trace_overhead.<metric>`: (traced − untraced) / untraced for every
/// metric measured both ways (NaN, which fails the run, where the
/// untraced value is zero).
pub fn overhead(untraced: &[Metric], traced: &[Metric]) -> Vec<Metric> {
    untraced
        .iter()
        .filter_map(|u| {
            let t = traced.iter().find(|t| t.name == u.name)?;
            Some(metric(
                format!("trace_overhead.{}", u.name),
                (t.value - u.value) / u.value,
                "ratio",
            ))
        })
        .collect()
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if !std::path::Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }
    let mut rep = Report::default();
    match args.workload.as_str() {
        "reproduce" => reproduce::run(&args, &mut rep),
        "serve" => serve::run(&args, IndexSpec::Flat, &mut rep),
        "serve-pq" => serve::run(&args, IndexSpec::parse("pq").expect("pq is a backend"), &mut rep),
        "update" => update::run(&args, &mut rep),
        _ => unreachable!("workload validated by parse_args"),
    }
    rep.expect_metrics(if args.trace { &PER_LAYER } else { &END_TO_END });
    rep.print(&args);
}

/// Finish a traced run: check the span tree and write it out.
pub fn finish_trace(args: &Args, tracer: &trace::Tracer, annotations: &[String], rep: &mut Report) {
    let spans = tracer.spans();
    let tree = trace::check_tree(&spans);
    rep.check(
        "span-tree",
        tree.is_ok(),
        tree.err().unwrap_or_else(|| format!("{} spans", spans.len())),
    );
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-{}.jsonl",
        args.workload, args.seed
    ));
    match tracer.write(&path, annotations) {
        Ok(()) => rep.info("trace_file", report::quote(&path.to_string_lossy())),
        Err(e) => rep.check("trace-write", false, e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve-pq --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("serve-pq", 7, 10, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload serve --seed x").is_err());
        assert!(args("--workload serve --seed 1 --trace 2").is_err());
        assert!(args("--workload serve").is_err());
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_value() {
        let u = vec![metric("a", 2.0, "ms"), metric("b", 1.0, "s")];
        let t = vec![metric("a", 2.5, "ms")];
        let o = overhead(&u, &t);
        assert_eq!(o, vec![metric("trace_overhead.a", 0.25, "ratio")]);
        let zero = overhead(&[metric("c", 0.0, "1/s")], &[metric("c", 0.0, "1/s")]);
        assert!(zero[0].value.is_nan(), "a zero base is not a silent gap");
    }

    /// The `"name"` values of one section of `BENCHMARK.json`.
    fn manifest_names(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn the_printed_metrics_are_the_manifest_s() {
        assert_eq!(manifest_names("end_to_end"), END_TO_END);
        assert_eq!(manifest_names("per_layer"), PER_LAYER);
        let e2e = end_to_end(1.0, 2.0, 3.0, 4.0, 0.5);
        assert_eq!(e2e.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(), END_TO_END);
    }
}
