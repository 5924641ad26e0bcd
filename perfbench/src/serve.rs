//! `serve` and `serve-pq`: requests into a `QueryService` over the
//! pipeline's four stores, on the flat backend or on the quantized
//! inverted file.
//!
//! Set-up builds the pipeline, round-trips the registry through its byte
//! form (as after a restart), starts the service and sends one warm-up
//! query per store. The untraced measurement is a closed loop: windows of
//! [`WINDOW`] requests through `QueryService::query_batch`, the next one
//! sent when the last reply of the previous one is in. The traced run adds
//! the open loop ([`open_loop`]): two fixed Poisson rates, then a ladder
//! from the high rate in ×1.1 steps until a step misses the limit. Every
//! workload's traced run sends that open loop at its own stores.

use std::sync::Arc;
use std::time::Instant;

use mcqa_core::{Pipeline, PipelineConfig, PipelineOutput};
use mcqa_embed::BioEncoder;
use mcqa_index::{IndexRegistry, IndexSpec, SearchResult};
use mcqa_lexical::fuse_depth;
use mcqa_runtime::PoolStats;
use mcqa_serve::{QueryMode, QueryRequest, QueryService, ServeConfig, ServiceSnapshot};

use crate::layers;
use crate::load::{self, Arrival, Outcome, Point};
use crate::report::{metric, Metric, Report};
use crate::stats::{median, percentile};
use crate::trace::{self, SpanId, Tracer};
use crate::Args;

/// The fixed low and high offered rates (q/s) of the open loop. The high
/// rate sits below the knee: on a 2-CPU VM the flat stores miss the 25 ms
/// limit from about 900–1,700 q/s, depending on the host's load.
pub const LO_RATE: f64 = 400.0;
pub const HI_RATE: f64 = 800.0;
/// Requests sent at each fixed rate: enough for a p99 with ten beyond.
const FIXED_REQUESTS: usize = 1_200;
/// Ladder step factor above the high rate, and the most steps climbed.
pub const STEP: f64 = 1.1;
pub const MAX_STEPS: usize = 20;
/// Requests per ladder step: enough for the 99%-within-limit verdict to
/// rest on at least ten misses.
pub const STEP_REQUESTS: usize = 1_000;
/// Rounds each fixed rate is split into, sent lo, hi, lo, hi, …, so both
/// rates sample the same stretch of a run whose machine may drift.
const ROUNDS: u64 = 4;
/// Schedule stream of the first ladder step (fixed rounds use 1..=8).
const LADDER_STREAM: u64 = 16;
/// Schedule stream of the first closed-loop window.
const CLOSED_STREAM: u64 = 1 << 20;
/// Requests per closed-loop window.
pub const WINDOW: usize = 32;
/// Every this-many-th open-loop request, and every request of every
/// this-many-th closed-loop window, is checked against a direct search.
const VERIFY_EVERY: usize = 16;
/// Requests in the fixed recall sample.
const RECALL_SAMPLE: usize = 256;
/// Request-id ranges per schedule stream (stream `i` uses `i * ID_STRIDE..`).
const ID_STRIDE: u64 = 1 << 32;

/// A running service over a pipeline output's stores.
pub struct Served {
    pub out: PipelineOutput,
    pub registry: Arc<IndexRegistry>,
    service: QueryService,
    stores: Vec<String>,
    stems: Vec<String>,
    warm_failures: usize,
}

/// Start a service over `registry` (`out`'s stores, or a copy of them)
/// and send one warm-up query per store.
pub fn serve(
    out: PipelineOutput,
    registry: Arc<IndexRegistry>,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Served {
    let service = tracer.time("serve.start", parent, || {
        QueryService::start(
            registry.clone(),
            Some(out.encoder.clone()),
            out.executor.clone(),
            ServeConfig::default(),
        )
    });
    let stores: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    let stems: Vec<String> = out.items.iter().map(|i| i.stem.clone()).collect();
    let warm = tracer.open("serve.warmup", parent);
    let warm_failures = (0..stores.len())
        .filter(|&store| {
            let warm =
                Arrival { offset: Default::default(), store, hybrid: true, stem: 0, variant: None };
            let req = load::request(&warm, &stores, &stems);
            service.submit(req).and_then(|t| t.wait()).is_err()
        })
        .count();
    tracer.close(warm);
    Served { out, registry, service, stores, stems, warm_failures }
}

/// Build, round-trip the registry, serve. Returns the state, the set-up
/// time and the build's documents per second.
fn setup(cfg: &PipelineConfig, tracer: &Tracer) -> (Served, f64, f64) {
    let t = Instant::now();
    let root = tracer.open("setup", None);
    let build = Instant::now();
    let out = tracer.time("core.pipeline_run", root, || Pipeline::run(cfg));
    let build_rate = out.library.len() as f64 / build.elapsed().as_secs_f64();
    let bytes = tracer.time("index.registry_encode", root, || out.indexes.to_bytes());
    let registry = tracer
        .time("index.registry_decode", root, || IndexRegistry::from_bytes(&bytes))
        .expect("the pipeline's registry decodes from its own bytes");
    drop(bytes);
    let s = serve(out, Arc::new(registry), tracer, root);
    tracer.close(root);
    (s, t.elapsed().as_secs_f64(), build_rate)
}

/// A direct search answering `req` without the service: the dense store,
/// or both channels fused, from `dense` and `lexical` registries.
pub fn direct(
    dense: &IndexRegistry,
    lexical: &IndexRegistry,
    enc: &BioEncoder,
    req: &QueryRequest,
) -> Vec<SearchResult> {
    let text = req.input.text().expect("benchmark requests carry text");
    let q = enc.encode(text);
    let store = dense.expect_store(&req.source);
    match req.mode {
        QueryMode::Hybrid { fusion, depth, .. } => {
            let d = fuse_depth(req.k, depth);
            let lex = lexical.expect_lexical(&IndexRegistry::lexical_sibling(&req.source));
            fusion.fuse(&store.search(&q, d), &lex.search(text, d), req.k)
        }
        _ => store.search(&q, req.k),
    }
}

/// What one closed loop measured.
struct Closed {
    ops_per_s: f64,
    windows: usize,
    failed: usize,
    checked: usize,
    mismatched: usize,
    /// Median window wall time, ms.
    wall_ms: f64,
    pools: (PoolStats, PoolStats),
}

/// Send windows of [`WINDOW`] requests for `secs`, each through
/// `query_batch`; throughput is the window size over the median window
/// wall time. Afterwards every [`VERIFY_EVERY`]-th window's responses are
/// compared with direct searches.
fn closed_loop(s: &Served, seed: u64, secs: f64, tracer: &Tracer) -> Closed {
    let root = tracer.open("serve.closed", None);
    let pool0 = s.out.executor.stats();
    let mut walls = Vec::new();
    let mut kept = Vec::new();
    let mut failed = 0usize;
    let start = Instant::now();
    let mut w = 0u64;
    while start.elapsed().as_secs_f64() < secs {
        let arrivals =
            load::schedule(seed, CLOSED_STREAM + w, 1.0, WINDOW, s.stores.len(), s.stems.len());
        let reqs = arrivals.iter().map(|a| load::request(a, &s.stores, &s.stems)).collect();
        let t = Instant::now();
        let results = tracer.time("serve.window", root, || s.service.query_batch(reqs));
        walls.push(t.elapsed().as_secs_f64());
        failed += results.iter().filter(|r| r.is_err()).count();
        if w.is_multiple_of(VERIFY_EVERY as u64) {
            kept.push((arrivals, results));
        }
        w += 1;
    }
    let pool1 = s.out.executor.stats();
    tracer.close(root);

    let (mut checked, mut mismatched) = (0usize, 0usize);
    for (arrivals, results) in &kept {
        for (a, r) in arrivals.iter().zip(results) {
            let Ok(resp) = r else { continue };
            let req = load::request(a, &s.stores, &s.stems);
            checked += 1;
            if resp.hits != direct(&s.registry, &s.registry, &s.out.encoder, &req) {
                mismatched += 1;
            }
        }
    }
    let wall = median(&walls).unwrap_or(f64::NAN);
    Closed {
        ops_per_s: WINDOW as f64 / wall,
        windows: w as usize,
        failed,
        checked,
        mismatched,
        wall_ms: wall * 1e3,
        pools: (pool0, pool1),
    }
}

/// One round of one rate: its schedule and what became of each request.
struct Run {
    arrivals: Vec<Arrival>,
    outcomes: Vec<Outcome>,
}

/// Send one round of `count` requests at `rate` from schedule `stream`.
fn run_round(
    s: &Served,
    seed: u64,
    stream: u64,
    rate: f64,
    count: usize,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Run {
    let arrivals = load::schedule(seed, stream, rate, count, s.stores.len(), s.stems.len());
    let reqs = arrivals.iter().map(|a| load::request(a, &s.stores, &s.stems)).collect();
    let id = tracer.open("serve.round", parent);
    let outcomes = load::drive(&s.service, &arrivals, reqs, tracer, id, stream * ID_STRIDE);
    tracer.close(id);
    Run { arrivals, outcomes }
}

fn pooled(runs: &[Run]) -> Point {
    let rounds: Vec<&[Outcome]> = runs.iter().map(|r| r.outcomes.as_slice()).collect();
    Point::of(&rounds)
}

/// The open loop, for the traced run: the fixed rates in interleaved
/// rounds, then the ladder. Returns the serve-layer metrics (client
/// latencies, the highest passing rate, stage times, ledger ratios,
/// generator lateness), the panel-cache residency after the traffic, and
/// the fixed-rate requests' layers replayed one call at a time.
pub fn open_loop(s: &Served, seed: u64, tracer: &Tracer, rep: &mut Report) -> Vec<Metric> {
    let root = tracer.open("serve.open", None);
    let snap0 = s.service.stats();
    let n = FIXED_REQUESTS / ROUNDS as usize;
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        lo.push(run_round(s, seed, 1 + 2 * r, LO_RATE, n, tracer, root));
        hi.push(run_round(s, seed, 2 + 2 * r, HI_RATE, n, tracer, root));
    }
    let snap1 = s.service.stats();
    let (lo_point, hi_point) = (pooled(&lo), pooled(&hi));

    let mut max_qps = if hi_point.passes() {
        HI_RATE
    } else if lo_point.passes() {
        LO_RATE
    } else {
        0.0
    };
    let mut ladder = Vec::new();
    if hi_point.passes() {
        let mut rate = HI_RATE;
        for step in 0..MAX_STEPS as u64 {
            rate *= STEP;
            let r = run_round(s, seed, LADDER_STREAM + step, rate, STEP_REQUESTS, tracer, root);
            let point = Point::of(&[&r.outcomes]);
            ladder.push(point_json(rate, &point));
            rep.attempted += point.sent as u64;
            rep.failed += point.errors as u64;
            if !point.passes() {
                break;
            }
            max_qps = rate;
        }
    }
    tracer.close(root);

    // Outside the timed window: served responses against direct searches.
    let mut checked = 0usize;
    let mut mismatched = 0usize;
    for p in [&lo_point, &hi_point] {
        rep.attempted += p.sent as u64;
        rep.failed += (p.refused + p.errors) as u64;
    }
    for run in lo.iter().chain(&hi) {
        for (i, (a, o)) in run.arrivals.iter().zip(&run.outcomes).enumerate() {
            if i % VERIFY_EVERY != 0 {
                continue;
            }
            let Ok(resp) = &o.result else { continue };
            let req = load::request(a, &s.stores, &s.stems);
            checked += 1;
            if resp.hits != direct(&s.registry, &s.registry, &s.out.encoder, &req) {
                mismatched += 1;
            }
        }
    }
    rep.check(
        "open-loop-served-equals-direct",
        mismatched == 0 && checked > 0,
        format!("{mismatched} of {checked} differ"),
    );
    rep.check("warmup-answered", s.warm_failures == 0, format!("{} failures", s.warm_failures));
    rep.info(
        "samples",
        format!(
            "{{\"lo\":{},\"hi\":{},\"verify\":{checked},\"recall\":{RECALL_SAMPLE},\"ladder\":[{}]}}",
            point_json(LO_RATE, &lo_point),
            point_json(HI_RATE, &hi_point),
            ladder.join(",")
        ),
    );

    let p = |v: Option<f64>| v.unwrap_or(f64::NAN);
    let runs: Vec<&Run> = lo.iter().chain(&hi).collect();
    let mut out = vec![
        metric("serve.lo_p50_ms", p(lo_point.p50_ms), "ms"),
        metric("serve.lo_p99_ms", p(lo_point.p99_ms), "ms"),
        metric("serve.hi_p50_ms", p(hi_point.p50_ms), "ms"),
        metric("serve.hi_p99_ms", p(hi_point.p99_ms), "ms"),
        metric("serve.max_qps", max_qps, "1/s"),
        metric("embed.panel_cache_bytes", s.registry.panel_cache_resident_bytes() as f64, "bytes"),
    ];
    out.extend(stage_metrics(&runs, (&snap0, &snap1), tracer));
    let replay = tracer.open("replay", None);
    out.extend(replay_requests(s, &runs, tracer, replay));
    tracer.close(replay);
    out
}

/// One rate point's verdict and the sample counts behind it.
fn point_json(rate: f64, p: &Point) -> String {
    let num = |v: Option<f64>| crate::report::num(v.unwrap_or(f64::NAN));
    format!(
        "{{\"rate\":{rate:.1},\"sent\":{},\"p50_ms\":{},\"p99_ms\":{},\"within\":{},\"refused\":{},\
         \"errors\":{},\"lag_p99_ms\":{},\"backlog_grew\":{},\"passes\":{}}}",
        p.sent,
        num(p.p50_ms),
        num(p.p99_ms),
        p.within,
        p.refused,
        p.errors,
        num(p.lag_p99_ms),
        p.backlog_grew,
        p.passes()
    )
}

/// `recall_at_8`: `served`'s top-k against exact flat top-k over a fixed
/// request sample of `out`'s stores, one request at a time. On the flat
/// backend `out`'s own stores are exact; otherwise exact flat stores are
/// built from the same rows. `lexical` holds the BM25 channels.
pub fn recall_at_k(
    out: &PipelineOutput,
    lexical: &IndexRegistry,
    seed: u64,
    mut served: impl FnMut(QueryRequest) -> Vec<SearchResult>,
) -> f64 {
    let flat;
    let exact: &IndexRegistry = if out.config.index == IndexSpec::Flat {
        &out.indexes
    } else {
        let mut reg = IndexRegistry::new();
        for (name, rows) in layers::store_rows(out) {
            reg.insert(&name, layers::build_store(&IndexSpec::Flat, out, &out.executor, &rows));
        }
        flat = reg;
        &flat
    };
    let stores: Vec<String> = exact.names().iter().map(|s| s.to_string()).collect();
    let stems: Vec<String> = out.items.iter().map(|i| i.stem.clone()).collect();
    let sample = load::schedule(seed, 0xEC, 1.0, RECALL_SAMPLE, stores.len(), stems.len());
    let (mut found, mut total) = (0usize, 0usize);
    for a in &sample {
        let req = load::request(a, &stores, &stems);
        let truth = direct(exact, lexical, &out.encoder, &req);
        let got = served(req);
        found += truth.iter().filter(|h| got.iter().any(|x| x.id == h.id)).count();
        total += truth.len();
    }
    found as f64 / total.max(1) as f64
}

/// What one measurement of a serve workload leaves.
struct Measured {
    e2e: Vec<Metric>,
    /// The last set-up's closed loop.
    closed: Closed,
}

/// Set up `reps` times, dropping the last state first, and run a closed
/// loop of `--seconds / reps` after each set-up. Closed-loop throughput
/// moved by up to ±15% between runs of one seed on a 2-CPU VM, with the
/// whole window-time distribution shifting; measuring after every set-up
/// samples that within the run. Every rate reported is the median over
/// set-ups. Returns the last state.
fn measure(
    cfg: &PipelineConfig,
    reps: usize,
    args: &Args,
    tracer: &Tracer,
    rep: &mut Report,
) -> (Served, Measured) {
    let secs = args.seconds as f64 / reps as f64;
    let (mut setups, mut builds, mut rates, mut loops) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (s, t, build_rate) = setup(cfg, tracer);
        let c = closed_loop(&s, args.seed, secs, tracer);
        setups.push(t);
        builds.push(build_rate);
        rates.push(c.ops_per_s);
        loops.push(c);
        last = Some(s);
    }
    let s = last.expect("at least one set-up");
    let requests: usize = loops.iter().map(|c| c.windows * WINDOW).sum();
    let failed: usize = loops.iter().map(|c| c.failed).sum();
    let checked: usize = loops.iter().map(|c| c.checked).sum();
    let mismatched: usize = loops.iter().map(|c| c.mismatched).sum();
    rep.attempted += requests as u64;
    rep.failed += failed as u64;
    rep.check(
        "closed-loop-served-equals-direct",
        mismatched == 0 && checked > 0,
        format!("{mismatched} of {checked} differ"),
    );
    let per_setup: Vec<String> = loops
        .iter()
        .map(|c| {
            format!(
                "{{\"windows\":{},\"failed\":{},\"wall_ms_p50\":{}}}",
                c.windows,
                c.failed,
                crate::report::num(c.wall_ms)
            )
        })
        .collect();
    rep.info(
        "closed_loop",
        format!("{{\"window\":{WINDOW},\"per_setup\":[{}]}}", per_setup.join(",")),
    );

    let peak = crate::report::peak_rss_mb();
    let recall = recall_at_k(&s.out, &s.registry, args.seed, |req| {
        s.service.submit(req).and_then(|t| t.wait()).map(|r| r.hits).unwrap_or_default()
    });
    let m = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let e2e = crate::end_to_end(m(&setups), peak, m(&builds), m(&rates), recall);
    let closed = loops.pop().expect("at least one closed loop");
    (s, Measured { e2e, closed })
}

pub fn run(args: &Args, spec: IndexSpec, rep: &mut Report) {
    let cfg = crate::config(args.seed, spec);
    let off = Tracer::new(false);
    let reps = if args.trace { 1 } else { crate::SETUP_REPS };
    let (s, untraced) = measure(&cfg, reps, args, &off, rep);
    if !args.trace {
        rep.extend(untraced.e2e);
        return;
    }
    drop(s);

    let on = Tracer::new(true);
    let (s, m) = measure(&cfg, 1, args, &on, rep);
    rep.extend(crate::overhead(&untraced.e2e, &m.e2e));
    let served = open_loop(&s, args.seed, &on, rep);
    rep.extend(served);
    let requests = m.closed.windows * WINDOW;
    rep.extend(layers::runtime(&m.closed.pools.0, &m.closed.pools.1, requests));
    rep.extend([metric("core.pipeline_run_s", layers::span_median(&on, "core.pipeline_run"), "s")]);
    let replay = on.open("replay", None);
    rep.extend(layers::eval(&s.out, args.seed, &on, replay));
    rep.extend(layers::llm(&s.out));
    rep.extend(layers::replay_build(&s.out, &on, replay));
    rep.extend(crate::update::replay_write_path(&s.out, args.seed, &on, replay));
    rep.extend(crate::update::replay_incremental(&s.out, args.seed, &on, replay));
    on.close(replay);
    crate::finish_trace(args, &on, &[], rep);
}

/// Serve-layer stage metrics over the fixed-rate rounds: per-request
/// stage times from `QueryResponse::timing`, the request span's self
/// time, and the service ledger between the first and last request.
fn stage_metrics(
    runs: &[&Run],
    (a, b): (&ServiceSnapshot, &ServiceSnapshot),
    tracer: &Tracer,
) -> Vec<Metric> {
    let ok: Vec<&mcqa_serve::QueryResponse> =
        runs.iter().flat_map(|r| &r.outcomes).filter_map(|o| o.result.as_ref().ok()).collect();
    let ms = |f: fn(&mcqa_serve::QueryResponse) -> f64| -> Vec<f64> {
        ok.iter().map(|r| f(r) * 1e3).collect()
    };
    let queue = ms(|r| r.timing.queue_secs);
    let encode = ms(|r| r.timing.encode_secs);
    let search = ms(|r| r.timing.search_secs);

    let spans = tracer.spans();
    let kids = trace::children(&spans);
    let fixed = |r: Option<u64>| r.is_some_and(|id| id < LADDER_STREAM * ID_STRIDE);
    let unattributed: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, sp)| sp.name == "serve.request" && fixed(sp.request))
        .map(|(i, _)| trace::self_time_ns(&spans, &kids[i], i) as f64 / 1e6)
        .collect();

    let batches = (b.batches - a.batches).max(1) as f64;
    let offered = ((b.admitted + b.rejected) - (a.admitted + a.rejected)).max(1) as f64;
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(f64::NAN);
    let lag: Vec<f64> = runs.iter().flat_map(|r| &r.outcomes).map(Outcome::lag_ms).collect();
    vec![
        metric("serve.queue_ms.p50", p(&queue, 50.0), "ms"),
        metric("serve.queue_ms.p99", p(&queue, 99.0), "ms"),
        metric("serve.encode_ms.p50", p(&encode, 50.0), "ms"),
        metric("serve.search_ms.p50", p(&search, 50.0), "ms"),
        metric("serve.search_ms.p99", p(&search, 99.0), "ms"),
        metric("serve.unattributed_ms.p50", p(&unattributed, 50.0), "ms"),
        metric("serve.unattributed_ms.p99", p(&unattributed, 99.0), "ms"),
        metric("serve.batch_mean", (b.served() - a.served()) as f64 / batches, "count"),
        metric(
            "serve.fast_path_ratio",
            (b.fast_path_hits - a.fast_path_hits) as f64 / batches,
            "ratio",
        ),
        metric("serve.refused_ratio", (b.rejected - a.rejected) as f64 / offered, "ratio"),
        metric("gen.lag_ms.p99", p(&lag, 99.0), "ms"),
    ]
}

/// Replay the fixed-rate requests' layers one call at a time: the dense
/// search per store, BM25 search and rank fusion.
fn replay_requests(
    s: &Served,
    runs: &[&Run],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Vec<Metric> {
    let reqs: Vec<QueryRequest> = runs
        .iter()
        .flat_map(|r| &r.arrivals)
        .map(|a| load::request(a, &s.stores, &s.stems))
        .collect();
    let id = tracer.open("replay.requests", parent);
    let (mut lex_s, mut fuse_s) = (0.0, 0.0);
    let (mut lex_n, mut dense) = (0usize, vec![(0.0f64, 0usize); s.stores.len()]);
    for req in &reqs {
        let text = req.input.text().expect("benchmark requests carry text");
        let q = s.out.encoder.encode(text);
        let si = s.stores.iter().position(|x| *x == req.source).expect("served store");
        let store = s.registry.expect_store(&req.source);
        let depth = match req.mode {
            QueryMode::Hybrid { depth, .. } => fuse_depth(req.k, depth),
            _ => req.k,
        };
        let t = Instant::now();
        let hits = std::hint::black_box(store.search(&q, depth));
        dense[si].0 += t.elapsed().as_secs_f64();
        dense[si].1 += 1;
        if let QueryMode::Hybrid { fusion, .. } = req.mode {
            let lex = s.registry.expect_lexical(&IndexRegistry::lexical_sibling(&req.source));
            let t = Instant::now();
            let lh = lex.search(text, depth);
            lex_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(fusion.fuse(&hits, &lh, req.k));
            fuse_s += t.elapsed().as_secs_f64();
            lex_n += 1;
        }
    }
    tracer.close(id);
    let mut out = vec![
        metric("lexical.search_us", lex_s * 1e6 / lex_n.max(1) as f64, "us"),
        metric("lexical.fuse_us", fuse_s * 1e6 / lex_n.max(1) as f64, "us"),
    ];
    for (name, (secs, n)) in s.stores.iter().zip(dense) {
        out.push(metric(format!("index.search_us.{name}"), secs * 1e6 / n.max(1) as f64, "us"));
    }
    out
}
