//! IVF: inverted-file index with a k-means coarse quantiser.
//!
//! Build: k-means over a training sample assigns every vector to its
//! nearest centroid's inverted list. Search: score the query against all
//! centroids, visit the best `nprobe` lists exhaustively. The classic
//! FAISS `IndexIVFFlat` trade-off: `nprobe ≪ nlist` gives large speedups
//! at a small recall cost (measured against [`crate::FlatIndex`] in the
//! benches and by `repro recall`).
//!
//! Each inverted list stores its rows as one packed row-major F32 panel
//! with insert-time-cached squared norms — permanently resident in the
//! shape search wants, so the in-list scan is a direct
//! [`Metric::score_block`] sweep (the same kernel as flat search) with no
//! per-entry pointer chase and nothing to decode or cache. The wire
//! format is unchanged from the per-entry layout: packing is an in-memory
//! choice only.

use std::collections::HashMap;

use mcqa_runtime::{run_stage_batched, Executor};
use mcqa_util::kernel;
use serde::{Deserialize, Serialize};

use crate::codec::{encode_metric, put_f32s, put_u32, put_u64, ReadMetricExt, Reader};
use crate::kmeans;
use crate::metric::Metric;
use crate::{SearchResult, TopK, VectorStore};

/// IVF configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IvfConfig {
    /// Number of coarse centroids (inverted lists).
    pub nlist: usize,
    /// Lists visited per query.
    pub nprobe: usize,
    /// k-means iterations.
    pub train_iters: usize,
    /// Seed for centroid initialisation.
    pub seed: u64,
}

impl Default for IvfConfig {
    /// Defaults tuned on the pipeline's own chunk embeddings (see `repro
    /// recall`): the hash-encoded text vectors cluster weakly, so a high
    /// `nprobe`/`nlist` ratio is needed to hold recall@5 ≥ 0.9 against
    /// the flat baseline. Lower `nprobe` for sharply clustered data.
    fn default() -> Self {
        Self { nlist: 64, nprobe: 48, train_iters: 8, seed: 42 }
    }
}

/// One inverted list as a resident row panel: parallel arrays of ids,
/// packed row-major F32 rows, insert-time-cached squared norms, and
/// per-entry tombstones. Tombstoned entries stay resident (and are
/// skipped at the top-k push) until [`VectorStore::compact`]; per-entry
/// rather than per-id so an upsert's re-added id is live while its
/// superseded entry stays dead. Norms are derived data — recomputed on
/// deserialisation, never serialised.
#[derive(Debug, Clone, Default)]
struct IvfList {
    ids: Vec<u64>,
    /// `ids.len() × dim` packed rows — already the panel shape
    /// [`Metric::score_block`] scans, with no gather step.
    rows: Vec<f32>,
    norms: Vec<f32>,
    dead: Vec<bool>,
}

/// The IVF index.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    config: IvfConfig,
    dim: usize,
    metric: Metric,
    centroids: Vec<Vec<f32>>,
    /// Inverted lists, one packed panel per centroid.
    lists: Vec<IvfList>,
    dead_count: usize,
    len: usize,
    trained: bool,
}

impl IvfIndex {
    /// Magic tag opening the serialised format.
    pub(crate) const MAGIC: &'static [u8; 4] = b"IVF0";

    /// Create an untrained index.
    pub fn new(dim: usize, metric: Metric, config: IvfConfig) -> Self {
        assert!(config.nlist >= 1);
        assert!(config.nprobe >= 1);
        Self {
            config,
            dim,
            metric,
            centroids: Vec::new(),
            lists: Vec::new(),
            dead_count: 0,
            len: 0,
            trained: false,
        }
    }

    /// True when the coarse quantiser has been trained.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Number of inverted lists actually in use.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Occupancy histogram (list lengths), useful for balance diagnostics.
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(|l| l.ids.len()).collect()
    }

    /// Rows per scored block within a list panel: sized like flat
    /// search's so the scores buffer stays L2-resident at any
    /// dimensionality (the panel itself is always resident).
    fn block_rows(&self) -> usize {
        (16_384 / self.dim.max(1)).clamp(8, 4096)
    }

    /// Deserialise from [`VectorStore::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(Self::MAGIC)?;
        let metric = r.metric()?;
        let dim = r.u32()? as usize;
        let config = IvfConfig {
            nlist: r.u32()? as usize,
            nprobe: r.u32()? as usize,
            train_iters: r.u32()? as usize,
            seed: r.u64()?,
        };
        if config.nlist == 0 || config.nprobe == 0 {
            return None;
        }
        let trained = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let n_centroids = r.count(dim * 4)?;
        let centroids: Vec<Vec<f32>> =
            (0..n_centroids).map(|_| r.f32_vec(dim)).collect::<Option<_>>()?;
        let n_lists = r.count(4)?;
        if trained && n_lists != n_centroids {
            return None;
        }
        let mut len = 0usize;
        let mut lists = Vec::with_capacity(n_lists);
        for _ in 0..n_lists {
            let entries = r.count(8 + dim * 4)?;
            let mut list = IvfList::default();
            for _ in 0..entries {
                list.ids.push(r.u64()?);
                let v = r.f32_vec(dim)?;
                // Norms are derived data, recomputed through the same
                // kernel insert-time caching uses — bit-identical scores.
                list.norms.push(kernel::sq_norm(&v));
                list.rows.extend_from_slice(&v);
            }
            list.dead.resize(entries, false);
            len += entries;
            lists.push(list);
        }
        r.exhausted().then_some(Self {
            config,
            dim,
            metric,
            centroids,
            lists,
            dead_count: 0,
            len,
            trained,
        })
    }

    /// Drop tombstoned entries from every inverted list, preserving each
    /// list's insertion order. The trained coarse structure is untouched,
    /// so assignment — and therefore search — is bit-identical to a store
    /// rebuilt from the live rows with the same centroids.
    fn drop_dead_entries(&mut self) {
        if self.dead_count == 0 {
            return;
        }
        let dim = self.dim;
        for list in &mut self.lists {
            if !list.dead.iter().any(|&d| d) {
                continue;
            }
            let live = list.dead.iter().filter(|&&d| !d).count();
            let mut ids = Vec::with_capacity(live);
            let mut rows = Vec::with_capacity(live * dim);
            let mut norms = Vec::with_capacity(live);
            for (r, &dead) in list.dead.iter().enumerate() {
                if dead {
                    continue;
                }
                ids.push(list.ids[r]);
                rows.extend_from_slice(&list.rows[r * dim..(r + 1) * dim]);
                norms.push(list.norms[r]);
            }
            list.ids = ids;
            list.rows = rows;
            list.norms = norms;
            list.dead.clear();
            list.dead.resize(list.ids.len(), false);
        }
        self.len -= self.dead_count;
        self.dead_count = 0;
    }
}

impl VectorStore for IvfIndex {
    fn add(&mut self, id: u64, vector: &[f32]) {
        assert!(self.trained, "IvfIndex::add before train()");
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        let c = kmeans::nearest(self.metric, &self.centroids, vector);
        let list = &mut self.lists[c];
        list.ids.push(id);
        list.rows.extend_from_slice(vector);
        list.norms.push(kernel::sq_norm(vector));
        list.dead.push(false);
        self.len += 1;
    }

    fn remove(&mut self, ids: &[u64]) -> usize {
        let targets: std::collections::HashSet<u64> = ids.iter().copied().collect();
        let mut newly = 0;
        for list in &mut self.lists {
            for (id, d) in list.ids.iter().zip(list.dead.iter_mut()) {
                if !*d && targets.contains(id) {
                    *d = true;
                    newly += 1;
                }
            }
        }
        self.dead_count += newly;
        newly
    }

    fn rekey(&mut self, map: &HashMap<u64, u64>) -> usize {
        // Lists hold rows by centroid, not by id: relabelling moves
        // nothing and leaves every row in place.
        self.lists.iter_mut().map(|l| crate::rekey_live(l.ids.iter_mut().zip(&l.dead), map)).sum()
    }

    fn clone_box(&self) -> Box<dyn VectorStore> {
        Box::new(self.clone())
    }

    fn tombstones(&self) -> usize {
        self.dead_count
    }

    fn compact(&mut self, _exec: &Executor) {
        self.drop_dead_entries();
    }

    fn add_batch(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        assert!(self.trained, "IvfIndex::add_batch before train()");
        for (_, v) in items {
            assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        }
        // Centroid assignment is the per-item cost and is independent per
        // vector; fan it out, then fill the lists in input order so each
        // list's contents match sequential `add` calls exactly.
        let (assigned, _) =
            run_stage_batched(exec, "ivf-assign", (0..items.len()).collect(), 0, |i| {
                Ok::<_, String>(kmeans::nearest(self.metric, &self.centroids, &items[i].1))
            });
        for (c, (id, v)) in assigned.into_iter().zip(items) {
            let c = c.expect("assignment cannot fail");
            let list = &mut self.lists[c];
            list.ids.push(*id);
            list.rows.extend_from_slice(v);
            list.norms.push(kernel::sq_norm(v));
            list.dead.push(false);
        }
        self.len += items.len();
    }

    /// Train the coarse quantiser with the shared k-means++ trainer
    /// ([`crate::kmeans::train_centroids`], Lloyd fanned out on `exec`),
    /// after which the index accepts [`VectorStore::add`].
    ///
    /// When fewer training vectors than `nlist` are supplied, the number of
    /// lists shrinks to the training size. Panics on an empty sample.
    fn train(&mut self, exec: &Executor, training: &[Vec<f32>]) {
        assert!(!training.is_empty(), "cannot train on an empty sample");
        for t in training {
            assert_eq!(t.len(), self.dim, "training vector dimension mismatch");
        }
        let k = self.config.nlist.min(training.len());
        let centroids = kmeans::train_centroids(
            exec,
            self.metric,
            training,
            k,
            self.config.train_iters,
            self.config.seed,
        );
        self.lists = vec![IvfList::default(); centroids.len()];
        self.dead_count = 0;
        self.centroids = centroids;
        self.trained = true;
    }

    fn needs_training(&self) -> bool {
        true
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        // Rank centroids, visit nprobe lists.
        let mut ranked: Vec<(usize, f32)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (i, self.metric.score(query, c)))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        // The in-list exact scan shares flat search's machinery: each
        // probed list is a resident packed panel, swept block-by-block by
        // the fixed-order `Metric::score_block` kernel against the
        // insert-time-cached norms (bit-identical to per-row
        // `Metric::score` — the kernel property suite holds that oracle)
        // and kept in a bounded heap instead of a materialise-then-sort
        // pass.
        let q_sq = kernel::sq_norm(query);
        let block_rows = self.block_rows();
        let mut scores = vec![0.0f32; block_rows];
        let mut topk = TopK::new(k);
        for &(list_idx, _) in ranked.iter().take(self.config.nprobe) {
            let list = &self.lists[list_idx];
            let n = list.ids.len();
            let mut start = 0usize;
            while start < n {
                let rows = block_rows.min(n - start);
                let panel = &list.rows[start * self.dim..(start + rows) * self.dim];
                let out = &mut scores[..rows];
                self.metric.score_block(query, q_sq, panel, &list.norms[start..start + rows], out);
                for (j, &score) in out.iter().enumerate() {
                    if !list.dead[start + j] {
                        topk.push(SearchResult { id: list.ids[start + j], score });
                    }
                }
                start += rows;
            }
        }
        topk.into_sorted()
    }

    fn len(&self) -> usize {
        self.len - self.dead_count
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn payload_bytes(&self) -> usize {
        let vectors = self.len * (self.dim * 4 + 8);
        let centroids = self.centroids.len() * self.dim * 4;
        vectors + centroids
    }

    fn to_bytes(&self) -> Vec<u8> {
        if self.dead_count > 0 {
            // The wire format is tombstone-free: serialise the live view.
            let mut live = self.clone();
            live.drop_dead_entries();
            return live.to_bytes();
        }
        let mut out = Vec::with_capacity(self.payload_bytes() + 64);
        out.extend_from_slice(Self::MAGIC);
        out.push(encode_metric(self.metric));
        put_u32(&mut out, self.dim);
        put_u32(&mut out, self.config.nlist);
        put_u32(&mut out, self.config.nprobe);
        put_u32(&mut out, self.config.train_iters);
        put_u64(&mut out, self.config.seed);
        out.push(u8::from(self.trained));
        put_u32(&mut out, self.centroids.len());
        for c in &self.centroids {
            put_f32s(&mut out, c);
        }
        put_u32(&mut out, self.lists.len());
        for list in &self.lists {
            put_u32(&mut out, list.ids.len());
            for (r, id) in list.ids.iter().enumerate() {
                put_u64(&mut out, *id);
                put_f32s(&mut out, &list.rows[r * self.dim..(r + 1) * self.dim]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use mcqa_embed::Precision;
    use mcqa_util::KeyedStochastic;

    /// Clustered synthetic vectors: `n` points around `c` centres.
    fn clustered(n: usize, centres: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let rng = KeyedStochastic::new(seed);
        (0..n)
            .map(|i| {
                let c = i % centres;
                let mut v: Vec<f32> = (0..dim)
                    .map(|j| {
                        let base = if j % centres == c { 1.0 } else { 0.0 };
                        base + 0.15 * rng.gaussian(&["g", &i.to_string(), &j.to_string()]) as f32
                    })
                    .collect();
                let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                v.iter_mut().for_each(|x| *x /= norm);
                v
            })
            .collect()
    }

    #[test]
    fn recall_against_flat() {
        let dim = 32;
        let data = clustered(600, 8, dim, 7);
        let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
        let mut ivf = IvfIndex::new(
            dim,
            Metric::Cosine,
            IvfConfig { nlist: 16, nprobe: 4, train_iters: 6, seed: 3 },
        );
        ivf.train(Executor::global(), &data);
        for (i, v) in data.iter().enumerate() {
            flat.add(i as u64, v);
            ivf.add(i as u64, v);
        }
        let queries = clustered(50, 8, dim, 99);
        let mut recall_hits = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let truth: std::collections::HashSet<u64> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            let approx = ivf.search(q, 10);
            recall_hits += approx.iter().filter(|h| truth.contains(&h.id)).count();
            total += truth.len();
        }
        let recall = recall_hits as f64 / total as f64;
        assert!(recall >= 0.8, "IVF recall@10 = {recall}");
    }

    #[test]
    fn full_probe_equals_flat() {
        // nprobe == nlist ⇒ exhaustive ⇒ identical to flat search.
        let dim = 16;
        let data = clustered(200, 4, dim, 5);
        let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
        let mut ivf = IvfIndex::new(
            dim,
            Metric::Cosine,
            IvfConfig { nlist: 8, nprobe: 8, train_iters: 5, seed: 1 },
        );
        ivf.train(Executor::global(), &data);
        for (i, v) in data.iter().enumerate() {
            flat.add(i as u64, v);
            ivf.add(i as u64, v);
        }
        for q in clustered(10, 4, dim, 31) {
            let a: Vec<u64> = flat.search(&q, 5).into_iter().map(|h| h.id).collect();
            let b: Vec<u64> = ivf.search(&q, 5).into_iter().map(|h| h.id).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn deterministic_build() {
        let dim = 16;
        let data = clustered(100, 4, dim, 5);
        let mk = || {
            let mut ivf = IvfIndex::new(dim, Metric::Cosine, IvfConfig::default());
            ivf.train(Executor::global(), &data);
            for (i, v) in data.iter().enumerate() {
                ivf.add(i as u64, v);
            }
            ivf
        };
        let a = mk();
        let b = mk();
        let q = &data[3];
        assert_eq!(a.search(q, 5), b.search(q, 5));
        assert_eq!(a.list_sizes(), b.list_sizes());
    }

    #[test]
    fn add_batch_is_bit_identical_to_serial_adds() {
        let dim = 16;
        let data = clustered(150, 4, dim, 21);
        let items: Vec<(u64, Vec<f32>)> =
            data.iter().enumerate().map(|(i, v)| (i as u64 * 3, v.clone())).collect();
        let mut serial = IvfIndex::new(dim, Metric::Cosine, IvfConfig::default());
        serial.train(Executor::global(), &data);
        for (id, v) in &items {
            serial.add(*id, v);
        }
        let mut batched = IvfIndex::new(dim, Metric::Cosine, IvfConfig::default());
        batched.train(Executor::global(), &data);
        batched.add_batch(Executor::global(), &items);
        assert_eq!(batched.to_bytes(), serial.to_bytes());
    }

    #[test]
    fn small_training_shrinks_nlist() {
        let mut ivf =
            IvfIndex::new(4, Metric::Cosine, IvfConfig { nlist: 64, ..Default::default() });
        ivf.train(Executor::global(), &[vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]]);
        assert_eq!(ivf.nlist(), 2);
        ivf.add(1, &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(ivf.search(&[1.0, 0.0, 0.0, 0.0], 1)[0].id, 1);
    }

    #[test]
    #[should_panic(expected = "before train")]
    fn add_before_train_panics() {
        let mut ivf = IvfIndex::new(4, Metric::Cosine, IvfConfig::default());
        ivf.add(0, &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "before train")]
    fn add_batch_before_train_panics() {
        let mut ivf = IvfIndex::new(4, Metric::Cosine, IvfConfig::default());
        ivf.add_batch(Executor::global(), &[(0, vec![0.0; 4])]);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn train_empty_panics() {
        let mut ivf = IvfIndex::new(4, Metric::Cosine, IvfConfig::default());
        ivf.train(Executor::global(), &[]);
    }

    #[test]
    fn untrained_search_is_empty_not_a_panic() {
        // An untrained index holds no vectors; searching it is a defined
        // no-op (the registry path may probe stores before they're built).
        let ivf = IvfIndex::new(4, Metric::Cosine, IvfConfig::default());
        assert!(!ivf.is_trained());
        assert!(ivf.search(&[1.0, 0.0, 0.0, 0.0], 5).is_empty());
        assert!(ivf.search(&[0.0; 4], 5).is_empty(), "zero query on untrained index");
    }

    #[test]
    fn trained_empty_search_is_empty() {
        let mut ivf = IvfIndex::new(4, Metric::Cosine, IvfConfig::default());
        ivf.train(Executor::global(), &[vec![1.0, 0.0, 0.0, 0.0]]);
        assert!(ivf.search(&[1.0, 0.0, 0.0, 0.0], 5).is_empty());
    }

    #[test]
    fn all_vectors_land_in_some_list() {
        let dim = 8;
        let data = clustered(120, 3, dim, 9);
        let mut ivf =
            IvfIndex::new(dim, Metric::Cosine, IvfConfig { nlist: 6, ..Default::default() });
        ivf.train(Executor::global(), &data);
        for (i, v) in data.iter().enumerate() {
            ivf.add(i as u64, v);
        }
        assert_eq!(ivf.list_sizes().iter().sum::<usize>(), 120);
        assert_eq!(ivf.len(), 120);
    }

    #[test]
    fn remove_upsert_compact_match_rebuild_with_same_centroids() {
        let dim = 16;
        let data = clustered(120, 4, dim, 17);
        let mut ivf = IvfIndex::new(dim, Metric::Cosine, IvfConfig::default());
        ivf.train(Executor::global(), &data);
        for (i, v) in data.iter().enumerate() {
            ivf.add(i as u64, v);
        }
        // Remove a third, re-vector a few ids.
        let gone: Vec<u64> = (0..40u64).collect();
        assert_eq!(ivf.remove(&gone), 40);
        assert_eq!(ivf.len(), 80);
        assert_eq!(ivf.tombstones(), 40);
        let upserts: Vec<(u64, Vec<f32>)> =
            (50..55u64).map(|i| (i, data[(i as usize + 7) % data.len()].clone())).collect();
        ivf.upsert(Executor::global(), &upserts);
        assert_eq!(ivf.len(), 80, "upsert replaces without growing");

        // Rebuild from scratch over the live rows, reusing the same
        // trained structure (same config/seed trains the same centroids
        // on the same sample).
        let mut rebuilt = IvfIndex::new(dim, Metric::Cosine, IvfConfig::default());
        rebuilt.train(Executor::global(), &data);
        for (i, v) in data.iter().enumerate().skip(40) {
            let id = i as u64;
            match upserts.iter().find(|(uid, _)| *uid == id) {
                Some(_) => continue, // re-added below in upsert order
                None => rebuilt.add(id, v),
            }
        }
        rebuilt.add_batch(Executor::global(), &upserts);
        for q in data.iter().take(8) {
            assert_eq!(ivf.search(q, 10), rebuilt.search(q, 10));
        }
        // Compaction drops the tombstones without changing results, and
        // the wire format was already tombstone-free.
        let before = ivf.search(&data[0], 10);
        let wire = ivf.to_bytes();
        ivf.compact(Executor::global());
        assert_eq!(ivf.tombstones(), 0);
        assert_eq!(ivf.search(&data[0], 10), before);
        assert_eq!(ivf.to_bytes(), wire, "compaction equals the serialised live view");
    }

    #[test]
    fn serialisation_roundtrip() {
        let dim = 12;
        let data = clustered(80, 4, dim, 13);
        let mut ivf = IvfIndex::new(
            dim,
            Metric::Dot,
            IvfConfig { nlist: 8, nprobe: 3, train_iters: 4, seed: 9 },
        );
        ivf.train(Executor::global(), &data);
        for (i, v) in data.iter().enumerate() {
            ivf.add(i as u64 + 5, v);
        }
        let bytes = ivf.to_bytes();
        let back = IvfIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), ivf.len());
        assert_eq!(back.metric(), Metric::Dot);
        assert_eq!(back.nlist(), ivf.nlist());
        assert_eq!(back.list_sizes(), ivf.list_sizes());
        assert!(back.is_trained());
        for q in data.iter().take(5) {
            assert_eq!(back.search(q, 7), ivf.search(q, 7));
        }
        assert_eq!(back.to_bytes(), bytes, "re-serialisation is stable");
        // Corruption rejected.
        assert!(IvfIndex::from_bytes(&bytes[..bytes.len() - 3]).is_none());
        assert!(IvfIndex::from_bytes(b"IVF0").is_none());
        assert!(IvfIndex::from_bytes(b"FLATxxxx").is_none());
        // Untrained round-trip.
        let empty = IvfIndex::new(4, Metric::Cosine, IvfConfig::default());
        let back = IvfIndex::from_bytes(&empty.to_bytes()).unwrap();
        assert!(!back.is_trained());
        assert_eq!(back.len(), 0);
    }
}
