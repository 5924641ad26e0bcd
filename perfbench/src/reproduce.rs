//! `reproduce`: the paper's offline job, closed. `Pipeline::run` on the
//! flat backend, then `Evaluator::new` and `Evaluator::run` (8 cards × 5
//! conditions × 2 benchmarks), repeated while another iteration still
//! fits in `--seconds`, and at least [`MIN_ITERATIONS`] times.

use std::hint::black_box;
use std::time::Instant;

use mcqa_core::{Pipeline, PipelineConfig, PipelineOutput};
use mcqa_eval::{EvalConfig, EvalRun, Evaluator};
use mcqa_index::IndexSpec;
use mcqa_runtime::{PoolStats, RunReport};
use mcqa_util::fnv1a;

use crate::layers;
use crate::report::{metric, Metric, Report};
use crate::stats::{median, spread};
use crate::trace::Tracer;
use crate::Args;

/// One iteration takes about ten seconds on a 2-CPU box, and single
/// iterations drift by ±10% within a minute there: the reported rates are
/// medians over at least this many.
pub const MIN_ITERATIONS: usize = 2;

/// Set-up is a warm-up pass of the whole job at the smallest scale, so
/// the first timed iteration pays no first-touch costs.
fn setup(seed: u64, tracer: &Tracer) -> f64 {
    let t = Instant::now();
    tracer.time("setup.warmup", None, || {
        let out = Pipeline::run(&PipelineConfig::tiny(seed));
        let ev = Evaluator::new(&out, EvalConfig { seed, ..Default::default() });
        black_box(ev.run());
    });
    t.elapsed().as_secs_f64()
}

/// What one measurement leaves for the per-layer report.
struct Measured {
    e2e: Vec<Metric>,
    last: PipelineOutput,
    embed_hit: Vec<f64>,
    retrieve_batch: Vec<f64>,
}

/// Digests of the question and trace artifacts (as `tests/golden.rs`
/// hashes them) and of the Table-2 accuracy grid.
fn digests(out: &PipelineOutput, run: &EvalRun) -> [u64; 3] {
    let q = serde_json::to_string(&out.questions).expect("questions serialise");
    let t = serde_json::to_string(&out.traces).expect("traces serialise");
    let mut grid = Vec::new();
    for m in &run.models {
        grid.extend_from_slice(m.name.as_bytes());
        for (_, acc) in &m.synth {
            grid.extend_from_slice(&acc.correct.to_le_bytes());
            grid.extend_from_slice(&acc.total.to_le_bytes());
        }
    }
    [fnv1a(q.as_bytes()), fnv1a(t.as_bytes()), fnv1a(&grid)]
}

fn measure(
    cfg: &PipelineConfig,
    setup_s: f64,
    args: &Args,
    tracer: &Tracer,
    rep: &mut Report,
) -> Measured {
    let eval_cfg = EvalConfig { seed: args.seed, ..Default::default() };
    let start = Instant::now();
    let (mut build_rates, mut eval_rates) = (Vec::new(), Vec::new());
    let mut all_digests = Vec::new();
    let (mut embed_hit, mut retrieve_batch) = (Vec::new(), Vec::new());
    let mut last = None;
    loop {
        drop(last.take());
        let iteration = Instant::now();
        let root = tracer.open("reproduce.iteration", None);
        let t = Instant::now();
        let out = tracer.time("core.pipeline_run", root, || Pipeline::run(cfg));
        build_rates.push(out.library.len() as f64 / t.elapsed().as_secs_f64());

        let t = Instant::now();
        let ev = tracer.time("eval.new", root, || Evaluator::new(&out, eval_cfg.clone()));
        let run = if tracer.enabled() {
            // Card by card, so each card gets its own span; the same work
            // `Evaluator::run` does.
            let id = tracer.open("eval.run", root);
            let models = mcqa_llm::MODEL_CARDS
                .iter()
                .map(|c| tracer.time("eval.card", id, || ev.evaluate_card(c)))
                .collect();
            tracer.close(id);
            EvalRun {
                models,
                synth_questions: out.items.len(),
                astro_questions: ev.exam().items.len(),
                astro_nomath_questions: ev.exam().no_math_items().len(),
                report: RunReport::new(),
            }
        } else {
            ev.run()
        };
        let eval_secs = t.elapsed().as_secs_f64();
        tracer.close(root);

        let answers: u64 = run
            .models
            .iter()
            .flat_map(|m| m.synth.iter().chain(&m.astro_all).chain(&m.astro_nomath))
            .map(|(_, a)| a.total)
            .sum();
        let expected = (mcqa_llm::MODEL_CARDS.len() * mcqa_llm::answer::Condition::all().len())
            as u64
            * (run.synth_questions + run.astro_questions + run.astro_nomath_questions) as u64;
        rep.attempted += expected;
        rep.failed += expected.saturating_sub(answers);
        rep.check("answers-graded", answers == expected, format!("{answers} of {expected}"));
        rep.check(
            "three-traces-per-question",
            out.traces.len() == 3 * out.questions.len() && !out.questions.is_empty(),
            format!("{} traces, {} questions", out.traces.len(), out.questions.len()),
        );
        eval_rates.push(answers as f64 / eval_secs);
        all_digests.push(digests(&out, &run));

        let (hits, misses) = ev.embed_cache_stats();
        embed_hit.push(hits as f64 / (hits + misses).max(1) as f64);
        retrieve_batch.push(ev.serve_stats().mean_batch());
        drop(ev);
        last = Some(out);
        let next_end = start.elapsed().as_secs_f64() + iteration.elapsed().as_secs_f64();
        if build_rates.len() >= MIN_ITERATIONS && next_end > args.seconds as f64 {
            break;
        }
    }
    let d = all_digests[0];
    rep.check(
        "iterations-agree",
        all_digests.iter().all(|x| *x == d),
        format!("{} iterations", all_digests.len()),
    );
    rep.info(
        "digests",
        format!(
            "{{\"questions\":\"{:016x}\",\"traces\":\"{:016x}\",\"table2\":\"{:016x}\"}}",
            d[0], d[1], d[2]
        ),
    );
    rep.info("iterations", build_rates.len().to_string());
    let m = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let peak = crate::report::peak_rss_mb();
    let last = last.expect("at least one iteration");
    let recall = crate::serve::recall_at_k(&last, &last.indexes, args.seed, |req| {
        crate::serve::direct(&last.indexes, &last.indexes, &last.encoder, &req)
    });
    Measured {
        e2e: crate::end_to_end(setup_s, peak, m(&build_rates), m(&eval_rates), recall),
        last,
        embed_hit,
        retrieve_batch,
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    let cfg = crate::config(args.seed, IndexSpec::Flat);
    let off = Tracer::new(false);
    let ((), setup_s) = crate::set_up(args, || ((), setup(args.seed, &off)));
    let untraced = measure(&cfg, setup_s, args, &off, rep).e2e;
    if !args.trace {
        rep.extend(untraced);
        return;
    }

    let on = Tracer::new(true);
    let traced_setup = setup(args.seed, &on);
    let m = measure(&cfg, traced_setup, args, &on, rep);
    rep.extend(crate::overhead(&untraced, &m.e2e));

    let out = &m.last;
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    rep.extend([
        metric("core.pipeline_run_s", layers::span_median(&on, "core.pipeline_run"), "s"),
        metric("eval.prep_s", layers::span_median(&on, "eval.new"), "s"),
        metric("eval.card_s", layers::span_median(&on, "eval.card"), "s"),
        metric("eval.retrieve_mean_batch", med(&m.retrieve_batch), "count"),
        metric("eval.embed_cache_hit_ratio", med(&m.embed_hit), "ratio"),
    ]);
    let spreads = [
        ("eval.retrieve_mean_batch", &m.retrieve_batch),
        ("eval.embed_cache_hit_ratio", &m.embed_hit),
    ];
    let spreads: Vec<String> =
        spreads.iter().map(|(n, v)| format!("\"{n}\":[{},{}]", spread(v).0, spread(v).1)).collect();
    rep.info("spread", format!("{{{}}}", spreads.join(",")));
    rep.extend(layers::llm(out));
    rep.extend(layers::runtime(&PoolStats::default(), &out.executor.stats(), out.library.len()));

    // The Figure-1 stage rows ride along as annotations, not metrics:
    // they overlap and do not add up to wall time.
    let notes: Vec<String> = out
        .report
        .stages()
        .iter()
        .map(|s| {
            format!(
                "{{\"annotation\":\"stage\",\"name\":\"{}\",\"secs\":{}}}",
                s.name, s.elapsed_secs
            )
        })
        .collect();

    let replay = on.open("replay", None);
    rep.extend(layers::replay_build(out, &on, replay));
    rep.extend(crate::update::replay_write_path(out, args.seed, &on, replay));
    rep.extend(crate::update::replay_incremental(out, args.seed, &on, replay));
    on.close(replay);
    let registry = m.last.indexes.clone();
    let s = crate::serve::serve(m.last, registry, &on, None);
    let served = crate::serve::open_loop(&s, args.seed, &on, rep);
    rep.extend(served);
    crate::finish_trace(args, &on, &notes, rep);
}
