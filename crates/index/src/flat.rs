//! Exact brute-force index over an [`EmbeddingMatrix`], scored by a
//! blocked, query-batched kernel.
//!
//! Search never materialises the full hit list: rows arrive in panels
//! through the cache-aware accessor ([`EmbeddingMatrix::for_each_panel`],
//! backed by the index's resident [`PanelCache`]), scored by
//! [`Metric::score_block`] against the matrix's build-time-cached row
//! norms, and fed into a bounded top-k heap. Batched search additionally
//! blocks over *queries*, so one F16 panel fetch is amortised across a
//! whole block of queries instead of being repeated per query; the panel
//! cache removes the remaining per-search decode for batch-of-1 traffic —
//! after the first search the decoded panels are resident and a lone
//! query runs at F32 speed. Results are bit-identical to scoring each row
//! with [`Metric::score`] and fully sorting (the property suite in
//! `tests/kernel.rs` holds every path to that oracle).

use std::collections::HashMap;

use mcqa_embed::{EmbeddingMatrix, PanelBudget, PanelCache, Precision};
use mcqa_runtime::{run_stage, Executor};
use mcqa_util::kernel;

use crate::codec::{encode_metric, put_u64, ReadMetricExt, Reader};
use crate::metric::Metric;
use crate::{SearchResult, TopK, VectorStore};

/// An exact (non-approximate) vector index. Ground truth for recall tests
/// and the right default below ~10⁵ vectors.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    matrix: EmbeddingMatrix,
    ids: Vec<u64>,
    metric: Metric,
    /// Tombstone bitmap by row position; tombstoned rows stay resident
    /// (and scored — their hits are filtered at the top-k push) until
    /// [`VectorStore::compact`] rewrites the matrix.
    dead: Vec<bool>,
    dead_count: usize,
    /// Resident decoded panels for F16 matrices (a `Clone` starts cold, so
    /// derived `Clone` stays correct for independently-mutating copies).
    /// Invalidated whenever the matrix bytes change; `remove` only
    /// tombstones, so it leaves the panels resident.
    cache: PanelCache,
}

impl FlatIndex {
    /// Magic tag opening the serialised format.
    pub(crate) const MAGIC: &'static [u8; 4] = b"FLAT";

    /// Create an empty index.
    pub fn new(dim: usize, metric: Metric, precision: Precision) -> Self {
        Self {
            matrix: EmbeddingMatrix::new(dim, precision),
            ids: Vec::new(),
            metric,
            dead: Vec::new(),
            dead_count: 0,
            cache: PanelCache::default(),
        }
    }

    /// Deserialise from [`VectorStore::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(Self::MAGIC)?;
        let metric = r.metric()?;
        let mlen = r.u64()? as usize;
        let matrix = EmbeddingMatrix::from_bytes(r.take(mlen)?)?;
        let n = matrix.len();
        let ids: Vec<u64> = (0..n).map(|_| r.u64()).collect::<Option<_>>()?;
        r.exhausted().then_some(Self {
            matrix,
            ids,
            metric,
            dead: vec![false; n],
            dead_count: 0,
            cache: PanelCache::default(),
        })
    }

    /// The resident panel cache (hit/miss counters, budget, residency) —
    /// read-only; budgets change through
    /// [`VectorStore::set_panel_cache_budget`].
    pub fn panel_cache(&self) -> &PanelCache {
        &self.cache
    }

    /// A tombstone-free copy: the live rows' stored bytes and cached norms
    /// copied in position order (no decode, no re-quantisation), so the
    /// copy scores — and serialises — byte-identically to a cold build
    /// over the live rows.
    fn live_clone(&self) -> Self {
        let live = (0..self.ids.len()).filter(|&i| !self.dead[i]);
        let ids: Vec<u64> = live.clone().map(|i| self.ids[i]).collect();
        Self {
            matrix: self.matrix.select_rows(live),
            dead: vec![false; ids.len()],
            ids,
            metric: self.metric,
            dead_count: 0,
            cache: self.cache.clone(), // cold, but keeps the budget policy
        }
    }

    /// The external id stored at `position` (insertion order). Panics out
    /// of range.
    pub fn row_id(&self, position: usize) -> u64 {
        self.ids[position]
    }

    /// The stored vector at `position`, decoded to `f32` (i.e. exactly the
    /// values search scores). Panics out of range.
    pub fn row(&self, position: usize) -> Vec<f32> {
        self.matrix.row(position).expect("position out of range")
    }

    /// Default rows per decoded panel: sized so an f32 panel stays around
    /// 64 KiB (L2-resident) at any dimensionality.
    fn default_block_rows(&self) -> usize {
        (16_384 / self.dim().max(1)).clamp(8, 4096)
    }

    /// [`VectorStore::search`] with an explicit panel height. Exposed so
    /// the property suite and benches can sweep block sizes (including
    /// ragged tails, `len % block_rows != 0`); results are independent of
    /// `block_rows`.
    pub fn search_blocked(&self, query: &[f32], k: usize, block_rows: usize) -> Vec<SearchResult> {
        assert_eq!(query.len(), self.dim(), "query dimension mismatch");
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let q_sq = kernel::sq_norm(query);
        let mut topk = TopK::new(k);
        let mut scores = vec![0.0f32; block_rows];
        let norms = self.matrix.row_sq_norms();
        self.matrix.for_each_panel(&self.cache, 0, block_rows, |start, panel| {
            let rows = panel.len() / self.dim();
            let out = &mut scores[..rows];
            self.metric.score_block(query, q_sq, panel, &norms[start..start + rows], out);
            for (j, &score) in out.iter().enumerate() {
                if !self.dead[start + j] {
                    topk.push(SearchResult { id: self.ids[start + j], score });
                }
            }
        });
        topk.into_sorted()
    }

    /// [`VectorStore::search_batch`] with explicit panel height and
    /// queries-per-task block. `query_block == 0` picks the size
    /// automatically (the pool's stage batching heuristic). Results are
    /// independent of both block sizes and of the worker count.
    pub fn search_batch_blocked(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        k: usize,
        block_rows: usize,
        query_block: usize,
    ) -> Vec<Vec<SearchResult>> {
        for q in queries {
            assert_eq!(q.len(), self.dim(), "query dimension mismatch");
        }
        if k == 0 || self.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        let query_block = if query_block == 0 {
            // One query block per worker, not `auto_batch_size`'s 8 tasks
            // per worker: search tasks are uniform, so nothing is gained
            // from finer load balancing, while every extra query in a
            // block is one less full-matrix panel decode — on few workers
            // (or a micro-batch from the serving dispatcher) the widest
            // block is the whole speedup.
            queries.len().div_ceil(exec.workers().max(1)).max(1)
        } else {
            query_block
        };
        // One pool task per *query block*: inside a task every panel is
        // decoded once and scored against the whole block of queries, so
        // the number of full-matrix decodes is `ceil(queries / block)`
        // rather than `queries`.
        let ranges: Vec<std::ops::Range<usize>> = (0..queries.len())
            .step_by(query_block)
            .map(|s| s..(s + query_block).min(queries.len()))
            .collect();
        let (blocks, _metrics) = run_stage(exec, "search-batch", ranges, |range| {
            let block_queries = &queries[range.start..range.end];
            let q_sqs: Vec<f32> = block_queries.iter().map(|q| kernel::sq_norm(q)).collect();
            let mut topks: Vec<TopK> = (0..block_queries.len()).map(|_| TopK::new(k)).collect();
            let mut scores = vec![0.0f32; block_rows];
            let norms = self.matrix.row_sq_norms();
            self.matrix.for_each_panel(&self.cache, 0, block_rows, |start, panel| {
                let rows = panel.len() / self.dim();
                let row_norms = &norms[start..start + rows];
                for ((q, &q_sq), topk) in block_queries.iter().zip(&q_sqs).zip(topks.iter_mut()) {
                    let out = &mut scores[..rows];
                    self.metric.score_block(q, q_sq, panel, row_norms, out);
                    for (j, &score) in out.iter().enumerate() {
                        if !self.dead[start + j] {
                            topk.push(SearchResult { id: self.ids[start + j], score });
                        }
                    }
                }
            });
            Ok::<_, String>(topks.into_iter().map(TopK::into_sorted).collect::<Vec<_>>())
        });
        blocks.into_iter().flat_map(|b| b.expect("search cannot fail")).collect()
    }
}

impl VectorStore for FlatIndex {
    fn add(&mut self, id: u64, vector: &[f32]) {
        self.matrix.push(vector);
        self.ids.push(id);
        self.dead.push(false);
        // The tail panel's row count changed; resident copies are stale.
        self.cache.invalidate();
    }

    fn add_batch(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        // Row quantisation is the per-item cost; fan it out while keeping
        // insertion order (and therefore bytes) identical to serial adds.
        let rows: Vec<&[f32]> = items.iter().map(|(_, v)| v.as_slice()).collect();
        self.matrix.extend_parallel(exec, &rows);
        self.ids.extend(items.iter().map(|(id, _)| *id));
        self.dead.resize(self.ids.len(), false);
        self.cache.invalidate();
    }

    fn remove(&mut self, ids: &[u64]) -> usize {
        let targets: std::collections::HashSet<u64> = ids.iter().copied().collect();
        let mut newly = 0;
        for (i, id) in self.ids.iter().enumerate() {
            if !self.dead[i] && targets.contains(id) {
                self.dead[i] = true;
                newly += 1;
            }
        }
        self.dead_count += newly;
        newly
    }

    fn rekey(&mut self, map: &HashMap<u64, u64>) -> usize {
        // Ids live beside the matrix, so resident panels stay valid.
        crate::rekey_live(self.ids.iter_mut().zip(&self.dead), map)
    }

    fn clone_box(&self) -> Box<dyn VectorStore> {
        Box::new(self.clone())
    }

    fn tombstones(&self) -> usize {
        self.dead_count
    }

    fn compact(&mut self, _exec: &Executor) {
        if self.dead_count > 0 {
            *self = self.live_clone();
        }
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        self.search_blocked(query, k, self.default_block_rows())
    }

    fn search_batch(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<SearchResult>> {
        self.search_batch_blocked(exec, queries, k, self.default_block_rows(), 0)
    }

    fn len(&self) -> usize {
        self.ids.len() - self.dead_count
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.matrix.dim()
    }

    fn payload_bytes(&self) -> usize {
        self.matrix.payload_bytes() + self.ids.len() * 8
    }

    fn set_panel_cache_budget(&mut self, budget: PanelBudget) {
        self.cache.set_budget(budget);
    }

    fn panel_cache_resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }

    fn to_bytes(&self) -> Vec<u8> {
        if self.dead_count > 0 {
            // The wire format is tombstone-free: serialise the live view.
            return self.live_clone().to_bytes();
        }
        let m = self.matrix.to_bytes();
        let mut out = Vec::with_capacity(m.len() + self.ids.len() * 8 + 16);
        out.extend_from_slice(Self::MAGIC);
        out.push(encode_metric(self.metric));
        put_u64(&mut out, m.len() as u64);
        out.extend_from_slice(&m);
        for id in &self.ids {
            put_u64(&mut out, *id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(dim: usize, hot: usize) -> Vec<f32> {
        let mut v = vec![0.0; dim];
        v[hot] = 1.0;
        v
    }

    #[test]
    fn exact_nearest_neighbour() {
        let mut idx = FlatIndex::new(4, Metric::Cosine, Precision::F32);
        for i in 0..4 {
            idx.add(100 + i as u64, &unit(4, i));
        }
        let hits = idx.search(&unit(4, 2), 2);
        assert_eq!(hits[0].id, 102);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn ties_break_by_id() {
        let mut idx = FlatIndex::new(2, Metric::Dot, Precision::F32);
        idx.add(7, &[1.0, 0.0]);
        idx.add(3, &[1.0, 0.0]);
        idx.add(5, &[1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 3);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 5, 7]);
    }

    #[test]
    fn k_larger_than_len() {
        let mut idx = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        idx.add(1, &[1.0, 0.0]);
        assert_eq!(idx.search(&[1.0, 0.0], 10).len(), 1);
        assert!(idx.search(&[1.0, 0.0], 0).is_empty());
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        assert!(idx.search(&[1.0, 0.0], 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn dim_mismatch_panics() {
        let mut idx = FlatIndex::new(3, Metric::Cosine, Precision::F32);
        idx.add(1, &[1.0, 0.0, 0.0]);
        idx.search(&[1.0, 0.0], 1);
    }

    #[test]
    fn f16_backing_preserves_ranking() {
        let dim = 64;
        let mk = |seed: u64| -> Vec<f32> {
            let mut v: Vec<f32> = (0..dim)
                .map(|j| {
                    (mcqa_util::splitmix64(seed * 1000 + j as u64) as f32 / u64::MAX as f32) - 0.5
                })
                .collect();
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= n);
            v
        };
        let mut f32_idx = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
        let mut f16_idx = FlatIndex::new(dim, Metric::Cosine, Precision::F16);
        for i in 0..200u64 {
            let v = mk(i);
            f32_idx.add(i, &v);
            f16_idx.add(i, &v);
        }
        // Top-1 must agree on (almost) every query; check exactly.
        let mut agree = 0;
        for q in 0..50u64 {
            let query = mk(10_000 + q);
            let a = f32_idx.search(&query, 1)[0].id;
            let b = f16_idx.search(&query, 1)[0].id;
            if a == b {
                agree += 1;
            }
        }
        assert!(agree >= 48, "f16 quantisation changed too many top-1s: {agree}/50");
    }

    #[test]
    fn batch_matches_serial() {
        let mut idx = FlatIndex::new(8, Metric::Cosine, Precision::F32);
        for i in 0..20 {
            idx.add(i as u64, &unit(8, i % 8));
        }
        let queries: Vec<Vec<f32>> = (0..8).map(|i| unit(8, i)).collect();
        let batch = idx.search_batch(Executor::global(), &queries, 3);
        for (q, hits) in queries.iter().zip(&batch) {
            assert_eq!(hits, &idx.search(q, 3));
        }
    }

    #[test]
    fn add_batch_is_bit_identical_to_serial_adds() {
        let items: Vec<(u64, Vec<f32>)> =
            (0..100).map(|i| (i as u64 * 7, unit(8, i % 8))).collect();
        for precision in [Precision::F32, Precision::F16] {
            let mut serial = FlatIndex::new(8, Metric::Cosine, precision);
            for (id, v) in &items {
                serial.add(*id, v);
            }
            let mut batched = FlatIndex::new(8, Metric::Cosine, precision);
            batched.add_batch(Executor::global(), &items);
            assert_eq!(batched.to_bytes(), serial.to_bytes(), "{precision:?}");
        }
    }

    #[test]
    fn remove_hides_rows_and_compact_rewrites() {
        for precision in [Precision::F32, Precision::F16] {
            let mut idx = FlatIndex::new(4, Metric::Cosine, precision);
            for i in 0..4 {
                idx.add(100 + i as u64, &unit(4, i));
            }
            assert_eq!(idx.remove(&[102, 999]), 1, "unknown ids are ignored");
            assert_eq!(idx.remove(&[102]), 0, "already tombstoned");
            assert_eq!(idx.len(), 3);
            assert_eq!(idx.tombstones(), 1);
            let hits = idx.search(&unit(4, 2), 4);
            assert!(hits.iter().all(|h| h.id != 102), "tombstoned row surfaced: {hits:?}");

            // Serialisation is tombstone-free and equals a cold build of
            // the live rows; compaction produces the same store.
            let mut cold = FlatIndex::new(4, Metric::Cosine, precision);
            for i in [0usize, 1, 3] {
                cold.add(100 + i as u64, &unit(4, i));
            }
            assert_eq!(idx.to_bytes(), cold.to_bytes(), "{precision:?}");
            idx.compact(Executor::global());
            assert_eq!(idx.tombstones(), 0);
            assert_eq!(idx.to_bytes(), cold.to_bytes(), "{precision:?}");
        }
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut idx = FlatIndex::new(4, Metric::Cosine, Precision::F32);
        for i in 0..4 {
            idx.add(i as u64, &unit(4, i as usize));
        }
        idx.upsert(Executor::global(), &[(1, unit(4, 3)), (9, unit(4, 0))]);
        assert_eq!(idx.len(), 5, "one replacement + one insert");
        let hits = idx.search(&unit(4, 3), 2);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![1, 3], "id 1 re-vectored");
    }

    #[test]
    fn serialisation_roundtrip() {
        let mut idx = FlatIndex::new(8, Metric::L2, Precision::F16);
        for i in 0..10 {
            idx.add(i as u64 * 3, &unit(8, i % 8));
        }
        let bytes = idx.to_bytes();
        let back = FlatIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.metric(), Metric::L2);
        let q = unit(8, 3);
        assert_eq!(back.search(&q, 5), idx.search(&q, 5));
        // Corruption rejected.
        assert!(FlatIndex::from_bytes(&bytes[..bytes.len() - 5]).is_none());
        assert!(FlatIndex::from_bytes(b"nope").is_none());
    }
}
