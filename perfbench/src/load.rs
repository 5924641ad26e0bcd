//! Open-loop load generation: a seeded Poisson request schedule, and a
//! load loop with one sender thread and one collector thread.
//!
//! Every request is timed from its *scheduled* send, so a stall charges
//! the wait it imposes on every later request. A refused or failed
//! request is a miss at `+inf` in every percentile. The collector waits on
//! tickets in send order, so a reply that overtakes an earlier one is
//! observed when the earlier one arrives (within one micro-batch).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use mcqa_serve::{QueryMode, QueryRequest, QueryResponse, QueryService, ServeError};

use crate::stats;
use crate::trace::{SpanId, Tracer};

/// splitmix64: the benchmark's own generator, so input generation does
/// not depend on any RNG inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n.max(1)
    }
}

/// What one scheduled request asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Scheduled send, relative to the start of its rate point.
    pub offset: Duration,
    /// Index into the served store names.
    pub store: usize,
    /// Hybrid RRF (no rerank) instead of dense.
    pub hybrid: bool,
    /// Index of the question stem the text derives from.
    pub stem: usize,
    /// `Some(nonce)`: an unseen variant of the stem, which misses the
    /// dispatcher's encode cache; `None`: the verbatim stem, which hits it.
    pub variant: Option<u64>,
}

/// Retrieval depth of every request.
pub const K: usize = 8;

/// A seeded Poisson schedule of `count` arrivals at `rate` q/s. Stores are
/// uniform, 1/4 of requests are hybrid, half of the texts are unseen
/// variants. `stream` separates the schedules of different rate points.
pub fn schedule(
    seed: u64,
    stream: u64,
    rate: f64,
    count: usize,
    stores: usize,
    stems: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, stream);
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -(1.0 - rng.uniform()).ln() / rate;
            let store = rng.below(stores);
            let hybrid = rng.below(4) == 0;
            let stem = rng.below(stems);
            let variant = (rng.below(2) == 0).then(|| rng.next_u64());
            Arrival { offset: Duration::from_secs_f64(at), store, hybrid, stem, variant }
        })
        .collect()
}

/// An unseen variant of `stem`: one word dropped and a nonce appended, so
/// no two variants (and no variant and stem) share an encode-cache key.
pub fn variant_text(stem: &str, nonce: u64) -> String {
    let words: Vec<&str> = stem.split_whitespace().collect();
    let drop = (nonce % words.len().max(1) as u64) as usize;
    let mut out: Vec<&str> =
        words.iter().enumerate().filter(|(i, _)| *i != drop).map(|(_, w)| *w).collect();
    let tag = format!("v{:x}", nonce >> 16);
    out.push(&tag);
    out.join(" ")
}

pub fn request(a: &Arrival, stores: &[String], stems: &[String]) -> QueryRequest {
    let text = match a.variant {
        Some(n) => variant_text(&stems[a.stem], n),
        None => stems[a.stem].clone(),
    };
    let req = QueryRequest::text(stores[a.store].clone(), text, K);
    if a.hybrid {
        req.with_mode(QueryMode::Hybrid { fusion: Default::default(), rerank: false, depth: 0 })
    } else {
        req
    }
}

/// One request's fate.
#[derive(Debug)]
pub struct Outcome {
    pub due: Instant,
    pub sent: Instant,
    /// When the collector saw the reply (`None`: refused at admission).
    pub done: Option<Instant>,
    pub result: Result<QueryResponse, ServeError>,
}

impl Outcome {
    /// Latency from the scheduled send; `+inf` for a refused or failed
    /// request.
    pub fn latency_ms(&self) -> f64 {
        match (self.done, &self.result) {
            (Some(done), Ok(_)) => done.saturating_duration_since(self.due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Send `reqs` on `arrivals`' schedule from one sender thread and collect
/// the replies on one collector thread. With tracing on, the collector
/// records a request span (scheduled send → reply) under `parent`, with
/// queue, encode and search children rebuilt from the response timing;
/// `id_base` keeps request ids unique across rate points.
pub fn drive(
    service: &QueryService,
    arrivals: &[Arrival],
    reqs: Vec<QueryRequest>,
    tracer: &Tracer,
    parent: Option<SpanId>,
    id_base: u64,
) -> Vec<Outcome> {
    assert_eq!(arrivals.len(), reqs.len());
    type Sent = (Instant, Instant, Result<mcqa_serve::QueryTicket, ServeError>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let t0 = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            for (a, req) in arrivals.iter().zip(reqs) {
                let due = t0 + a.offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let ticket = service.submit(req);
                tx.send((due, sent, ticket)).expect("collector alive");
            }
        });
        let collector = s.spawn(move || {
            let mut out = Vec::with_capacity(arrivals.len());
            for (i, (due, sent, ticket)) in rx.into_iter().enumerate() {
                let (done, result) = match ticket {
                    Ok(t) => {
                        let r = t.wait();
                        (Some(Instant::now()), r)
                    }
                    Err(e) => (None, Err(e)),
                };
                let o = Outcome { due, sent, done, result };
                if tracer.enabled() {
                    trace_request(tracer, &o, parent, id_base + i as u64);
                }
                out.push(o);
            }
            out
        });
        sender.join().expect("sender thread");
        collector.join().expect("collector thread")
    })
}

/// Record one request's spans. Children are laid end to end from the
/// send and clipped to the reply, so they always lie within the request.
fn trace_request(tracer: &Tracer, o: &Outcome, parent: Option<SpanId>, id: u64) {
    let end = o.done.unwrap_or(o.sent);
    let root = tracer.record("serve.request", o.due, end, parent, Some(id));
    let Ok(r) = &o.result else { return };
    let mut at = o.sent;
    for (name, secs) in [
        ("serve.queue", r.timing.queue_secs),
        ("serve.encode", r.timing.encode_secs),
        ("serve.search", r.timing.search_secs),
    ] {
        let next = (at + Duration::from_secs_f64(secs)).min(end);
        tracer.record(name, at, next, root, Some(id));
        at = next;
    }
}

/// Verdict and figures for one rate point, pooled over its rounds.
#[derive(Debug, Clone)]
pub struct Point {
    pub sent: usize,
    pub p50_ms: Option<f64>,
    pub p99_ms: Option<f64>,
    pub lag_p99_ms: Option<f64>,
    /// Share of requests sent that were answered within the limit.
    pub within: f64,
    pub refused: usize,
    pub errors: usize,
    pub backlog_grew: bool,
    pub on_time: bool,
}

/// Latency limit a request must meet.
pub const LIMIT_MS: f64 = 25.0;
/// Share of requests that must meet [`LIMIT_MS`] for a rate to pass.
pub const WITHIN_SHARE: f64 = 0.99;
/// A point is invalid when the sender's p99 lateness exceeds this.
pub const LAG_BOUND_MS: f64 = 5.0;
/// Backlog growth tolerated between the middle and the end of a point:
/// one full micro-batch.
pub const BACKLOG_SLACK: usize = 64;

impl Point {
    pub fn of(rounds: &[&[Outcome]]) -> Self {
        let all = || rounds.iter().flat_map(|r| r.iter());
        let lat: Vec<f64> = all().map(Outcome::latency_ms).collect();
        let lag: Vec<f64> = all().map(Outcome::lag_ms).collect();
        let within =
            lat.iter().filter(|l| **l <= LIMIT_MS).count() as f64 / lat.len().max(1) as f64;
        let refused = all().filter(|o| o.done.is_none()).count();
        let errors = all().filter(|o| o.done.is_some() && o.result.is_err()).count();
        let lag_p99_ms = stats::percentile(&lag, 99.0);
        Point {
            sent: lat.len(),
            p50_ms: stats::percentile(&lat, 50.0),
            p99_ms: stats::percentile(&lat, 99.0),
            lag_p99_ms,
            within,
            refused,
            errors,
            backlog_grew: rounds.iter().any(|r| backlog_grew(r)),
            on_time: lag_p99_ms.is_some_and(|l| l <= LAG_BOUND_MS),
        }
    }

    pub fn passes(&self) -> bool {
        self.within >= WITHIN_SHARE && self.on_time && !self.backlog_grew
    }
}

/// Requests sent but not yet answered at a round's midpoint and at its
/// last send: a backlog that grows by more than [`BACKLOG_SLACK`]
/// means the service falls behind the offered rate.
fn backlog_grew(outcomes: &[Outcome]) -> bool {
    let (Some(first), Some(last)) = (outcomes.first(), outcomes.last()) else { return false };
    let mid = first.due + (last.due - first.due) / 2;
    let backlog = |t: Instant| {
        let sent = outcomes.iter().filter(|o| o.sent <= t).count();
        let done = outcomes.iter().filter(|o| o.done.is_some_and(|d| d <= t)).count();
        sent.saturating_sub(done)
    };
    backlog(last.sent) > backlog(mid) + BACKLOG_SLACK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = schedule(42, 1, 400.0, 2_000, 4, 1_500);
        let b = schedule(42, 1, 400.0, 2_000, 4, 1_500);
        assert_eq!(a, b);
        assert_ne!(a, schedule(43, 1, 400.0, 2_000, 4, 1_500));
        assert_ne!(a, schedule(42, 2, 400.0, 2_000, 4, 1_500));
    }

    #[test]
    fn the_schedule_has_the_stated_mix_and_rate() {
        let n = 20_000;
        let a = schedule(7, 0, 1_000.0, n, 4, 100);
        let span = a.last().expect("non-empty").offset.as_secs_f64();
        assert!((span - n as f64 / 1_000.0).abs() < 0.05 * span, "rate off: {span}s");
        let hybrid = a.iter().filter(|x| x.hybrid).count() as f64 / n as f64;
        let unseen = a.iter().filter(|x| x.variant.is_some()).count() as f64 / n as f64;
        assert!((hybrid - 0.25).abs() < 0.02, "{hybrid}");
        assert!((unseen - 0.5).abs() < 0.02, "{unseen}");
        for s in 0..4 {
            let share = a.iter().filter(|x| x.store == s).count() as f64 / n as f64;
            assert!((share - 0.25).abs() < 0.02, "{share}");
        }
        assert!(a.windows(2).all(|w| w[0].offset <= w[1].offset));
    }

    #[test]
    fn requests_rebuild_identically_and_variants_are_unseen() {
        let stores = vec!["chunks".to_string(), "traces-detailed".to_string()];
        let stems = vec!["What limits the dose in proton therapy?".to_string()];
        let a = schedule(5, 0, 100.0, 200, 2, 1);
        let r1: Vec<QueryRequest> = a.iter().map(|x| request(x, &stores, &stems)).collect();
        let r2: Vec<QueryRequest> = a.iter().map(|x| request(x, &stores, &stems)).collect();
        assert_eq!(r1, r2);
        let texts: std::collections::HashSet<_> =
            a.iter().filter_map(|x| x.variant.map(|n| variant_text(&stems[0], n))).collect();
        let variants = a.iter().filter(|x| x.variant.is_some()).count();
        assert_eq!(texts.len(), variants, "every variant text is distinct");
        assert!(!texts.contains(&stems[0]));
    }
}
