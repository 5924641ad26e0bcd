//! Quantized IVF: coarse centroids plus per-dimension quantized residuals
//! (the PLAID/IVF-SQ family of compressed indexes).
//!
//! Each stored vector is reduced to its nearest coarse centroid's id plus
//! a residual (`v − centroid`) quantized at a configurable 4–8 bits per
//! dimension with per-subspace scale/bias — 4 bits is a 4× compression of
//! the F16 flat matrix, 8 bits matches FAISS's `SQ8`. Search is
//! **asymmetric**: the query stays full-precision while candidate rows are
//! reconstructed (`centroid + dequantized residual`) into panels and
//! scored by the same [`Metric::score_block`] kernel as flat search, with
//! reconstruction norms cached at insert time so cosine stays one dot
//! product per row. Batched search shards the inverted file across the
//! [`Executor`]'s workers *by list*: every probed list's panel is decoded
//! once and scored against all the queries probing it, and per-list
//! partial top-k results merge into the final [`crate::SearchResult`]
//! ranking through the shared `TopK`/`cmp_hits` order — bit-identical to
//! sequential per-query search at any worker count.
//!
//! Training (k-means++ seeding + Lloyd) is shared with plain IVF through
//! [`crate::kmeans`]. Persistence follows the magic-tag codec contract
//! (`PQIV`); inverted-list ids are delta + zigzag varint coded, so the
//! serialized store stays close to `bits/8` bytes per dimension.

use std::collections::HashMap;

use mcqa_embed::{PanelBudget, PanelCache};
use mcqa_runtime::{run_stage_batched, Executor};
use mcqa_util::kernel;
use serde::{Deserialize, Serialize};

use crate::codec::{
    encode_metric, put_f32s, put_u32, put_varint, unzigzag, zigzag, ReadMetricExt, Reader,
};
use crate::kmeans;
use crate::metric::Metric;
use crate::{SearchResult, TopK, VectorStore};

/// Quantized-IVF configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PqConfig {
    /// Number of coarse centroids (inverted lists).
    pub nlist: usize,
    /// Lists visited per query.
    pub nprobe: usize,
    /// k-means iterations.
    pub train_iters: usize,
    /// Residual bits per dimension (4–8).
    pub bits: usize,
    /// Dimensions per scale/bias subspace.
    pub sub_dim: usize,
    /// Seed for centroid initialisation.
    pub seed: u64,
}

impl Default for PqConfig {
    /// Defaults tuned on the pipeline's own chunk embeddings alongside
    /// [`crate::IvfConfig`] (see `repro recall`): the weakly clustered
    /// hash embeddings need the same high `nprobe`/`nlist` ratio to hold
    /// recall@5 ≥ 0.9, and 7 residual bits keep quantization loss below
    /// the ranking noise floor at both smoke (0.01) and characterisation
    /// (0.1) scales — 6 bits dips to 0.89 at scale 0.1 for one byte less
    /// per 8 dims. Narrow subspaces (`sub_dim: 4`) fit the
    /// scale/bias to the hash embeddings' uneven per-dim ranges at no
    /// memory cost (scale/bias is per store, not per vector) and buy
    /// ~2 recall points over whole-vector fitting. Sharply clustered
    /// corpora tolerate `bits: 4` and a much lower `nprobe` (see the
    /// crossover bench).
    fn default() -> Self {
        Self { nlist: 64, nprobe: 48, train_iters: 8, bits: 7, sub_dim: 4, seed: 42 }
    }
}

/// A uniform scalar quantizer over centroid residuals with per-subspace
/// scale/bias, bit-packing `bits` bits per dimension LSB-first.
///
/// Fitting takes each subspace's observed `[min, max]` residual range;
/// values inside the fitted range round-trip within `scale/2` per
/// dimension, values outside clamp to the range edge. A zero-width
/// subspace (constant residuals) stores `scale = 0` and decodes to the
/// constant exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualCodec {
    dim: usize,
    bits: usize,
    sub_dim: usize,
    scale: Vec<f32>,
    bias: Vec<f32>,
}

impl ResidualCodec {
    /// Fit scale/bias per subspace from training residuals. Panics on an
    /// empty sample, out-of-range `bits`, or `sub_dim == 0`.
    pub fn fit(dim: usize, bits: usize, sub_dim: usize, residuals: &[Vec<f32>]) -> Self {
        assert!((4..=8).contains(&bits), "bits must be in 4..=8, got {bits}");
        assert!(sub_dim >= 1, "sub_dim must be >= 1");
        assert!(!residuals.is_empty(), "cannot fit a codec on an empty sample");
        let n_sub = dim.div_ceil(sub_dim);
        let max_code = (1u32 << bits) - 1;
        let mut scale = vec![0.0f32; n_sub];
        let mut bias = vec![0.0f32; n_sub];
        for s in 0..n_sub {
            let lo_dim = s * sub_dim;
            let hi_dim = ((s + 1) * sub_dim).min(dim);
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for r in residuals {
                debug_assert_eq!(r.len(), dim);
                for &x in &r[lo_dim..hi_dim] {
                    lo = lo.min(x);
                    hi = hi.max(x);
                }
            }
            if hi > lo {
                bias[s] = lo;
                scale[s] = (hi - lo) / max_code as f32;
            } else {
                // Constant (or empty) subspace: decode reproduces it exactly.
                bias[s] = if lo.is_finite() { lo } else { 0.0 };
                scale[s] = 0.0;
            }
        }
        Self { dim, bits, sub_dim, scale, bias }
    }

    /// Packed bytes per encoded vector.
    pub fn code_bytes(&self) -> usize {
        (self.dim * self.bits).div_ceil(8)
    }

    /// The decode step size for dimension `j` (0 for constant subspaces);
    /// in-range values round-trip within half of this.
    pub fn quantum(&self, j: usize) -> f32 {
        self.scale[j / self.sub_dim]
    }

    /// Quantize `residual` and append [`ResidualCodec::code_bytes`] packed
    /// bytes to `out`.
    pub fn encode_into(&self, residual: &[f32], out: &mut Vec<u8>) {
        assert_eq!(residual.len(), self.dim, "residual dimension mismatch");
        let max_code = (1u32 << self.bits) - 1;
        let mut acc = 0u32;
        let mut nbits = 0usize;
        for (j, &x) in residual.iter().enumerate() {
            let s = j / self.sub_dim;
            let code = if self.scale[s] == 0.0 {
                0
            } else {
                // NaN-safe: clamp() orders the comparison so NaN falls to
                // the lower bound via the `as` cast's saturating-to-0.
                ((x - self.bias[s]) / self.scale[s]).round().clamp(0.0, max_code as f32) as u32
            };
            acc |= code << nbits;
            nbits += self.bits;
            while nbits >= 8 {
                out.push((acc & 0xff) as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push((acc & 0xff) as u8);
        }
    }

    /// Reconstruct a full-precision row into `out`: `centroid +
    /// dequantized residual`. This is the one expression every consumer
    /// (insert-time norm caching, deserialisation, search panels) decodes
    /// through, so reconstructions are bit-identical everywhere.
    pub fn decode_into(&self, codes: &[u8], centroid: &[f32], out: &mut [f32]) {
        assert_eq!(codes.len(), self.code_bytes(), "code length mismatch");
        assert_eq!(out.len(), self.dim, "output dimension mismatch");
        let mask = (1u32 << self.bits) - 1;
        let mut acc = 0u32;
        let mut nbits = 0usize;
        let mut bytes = codes.iter();
        for (j, o) in out.iter_mut().enumerate() {
            while nbits < self.bits {
                acc |= u32::from(*bytes.next().expect("code_bytes covers dim")) << nbits;
                nbits += 8;
            }
            let code = acc & mask;
            acc >>= self.bits;
            nbits -= self.bits;
            let s = j / self.sub_dim;
            *o = centroid[j] + (self.bias[s] + code as f32 * self.scale[s]);
        }
    }
}

/// One inverted list: parallel arrays of ids, packed codes, and cached
/// reconstruction norms.
#[derive(Debug, Clone, Default)]
struct PqList {
    ids: Vec<u64>,
    /// `ids.len() × code_bytes` packed residual codes.
    codes: Vec<u8>,
    /// Squared norms of the *reconstructed* rows — the values search
    /// scores — so cosine's cached-norm path is bit-identical to scoring
    /// the reconstruction directly. Derived data: recomputed on
    /// deserialisation, never part of the wire format.
    norms: Vec<f32>,
    /// Per-entry tombstones, parallel to `ids`. Per entry rather than per
    /// id so an upsert (tombstone + re-append the same id) never masks
    /// the new live entry. Never serialised: the wire format is the live
    /// view.
    dead: Vec<bool>,
}

/// The quantized IVF index.
#[derive(Debug, Clone)]
pub struct PqIndex {
    config: PqConfig,
    dim: usize,
    metric: Metric,
    centroids: Vec<Vec<f32>>,
    codec: Option<ResidualCodec>,
    lists: Vec<PqList>,
    /// Resident entries (live + tombstoned).
    len: usize,
    dead_count: usize,
    /// Resident reconstructed panels, keyed by inverted list (`seg` = list
    /// index). Invalidated whenever list contents change; `remove` only
    /// tombstones, so panels stay resident across it.
    cache: PanelCache,
}

impl PqIndex {
    /// Magic tag opening the serialised format.
    pub(crate) const MAGIC: &'static [u8; 4] = b"PQIV";

    /// Create an untrained index.
    pub fn new(dim: usize, metric: Metric, config: PqConfig) -> Self {
        assert!(config.nlist >= 1);
        assert!(config.nprobe >= 1);
        assert!((4..=8).contains(&config.bits), "bits must be in 4..=8");
        assert!(config.sub_dim >= 1);
        Self {
            config,
            dim,
            metric,
            centroids: Vec::new(),
            codec: None,
            lists: Vec::new(),
            len: 0,
            dead_count: 0,
            cache: PanelCache::default(),
        }
    }

    /// The resident panel cache (hit/miss counters, budget, residency) —
    /// read-only; budgets change through
    /// [`VectorStore::set_panel_cache_budget`].
    pub fn panel_cache(&self) -> &PanelCache {
        &self.cache
    }

    /// True when the coarse quantiser and residual codec have been trained.
    pub fn is_trained(&self) -> bool {
        self.codec.is_some()
    }

    /// Number of inverted lists actually in use.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Occupancy histogram (list lengths), useful for balance diagnostics.
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(|l| l.ids.len()).collect()
    }

    /// Rows per reconstructed panel: sized like flat search's so an f32
    /// panel stays around 64 KiB at any dimensionality.
    fn block_rows(&self) -> usize {
        (16_384 / self.dim.max(1)).clamp(8, 4096)
    }

    /// Quantize one vector: (list index, packed codes, reconstruction
    /// squared norm). Deterministic, so parallel encoding commutes with
    /// serial insertion.
    fn encode_one(&self, v: &[f32]) -> (usize, Vec<u8>, f32) {
        let codec = self.codec.as_ref().expect("trained");
        let c = kmeans::nearest(self.metric, &self.centroids, v);
        let centroid = &self.centroids[c];
        let residual: Vec<f32> = v.iter().zip(centroid).map(|(x, m)| x - m).collect();
        let mut codes = Vec::with_capacity(codec.code_bytes());
        codec.encode_into(&residual, &mut codes);
        let mut rec = vec![0.0f32; self.dim];
        codec.decode_into(&codes, centroid, &mut rec);
        (c, codes, kernel::sq_norm(&rec))
    }

    fn push_encoded(&mut self, list: usize, id: u64, codes: &[u8], norm: f32) {
        let l = &mut self.lists[list];
        l.ids.push(id);
        l.codes.extend_from_slice(codes);
        l.norms.push(norm);
        l.dead.push(false);
        self.len += 1;
        // The appended list's tail panel changed; resident copies are stale.
        self.cache.invalidate();
    }

    /// Rewrite every list without its tombstoned entries. Centroids and
    /// codec are untouched, so live rows keep their codes (and therefore
    /// their scores) bit-for-bit.
    fn drop_dead_entries(&mut self) {
        if self.dead_count == 0 {
            return;
        }
        let code_bytes = self.codec.as_ref().map_or(0, |c| c.code_bytes());
        for list in &mut self.lists {
            if !list.dead.iter().any(|&d| d) {
                continue;
            }
            let live = list.dead.iter().filter(|&&d| !d).count();
            let mut ids = Vec::with_capacity(live);
            let mut codes = Vec::with_capacity(live * code_bytes);
            let mut norms = Vec::with_capacity(live);
            for (r, &dead) in list.dead.iter().enumerate() {
                if dead {
                    continue;
                }
                ids.push(list.ids[r]);
                codes.extend_from_slice(&list.codes[r * code_bytes..(r + 1) * code_bytes]);
                norms.push(list.norms[r]);
            }
            list.ids = ids;
            list.codes = codes;
            list.norms = norms;
            list.dead.clear();
            list.dead.resize(list.ids.len(), false);
        }
        self.len -= self.dead_count;
        self.dead_count = 0;
        self.cache.invalidate();
    }

    /// The `nprobe` best lists for `query`, best first (descending
    /// centroid score, ascending index on ties).
    fn ranked_lists(&self, query: &[f32]) -> Vec<usize> {
        let mut ranked: Vec<(usize, f32)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(i, c)| (i, self.metric.score(query, c)))
            .collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        ranked.truncate(self.config.nprobe);
        ranked.into_iter().map(|(i, _)| i).collect()
    }

    /// Scan one inverted list for a set of queries: fetch each row panel
    /// through the resident [`PanelCache`] (reconstructing it **once** on a
    /// miss), score it against every probing query with
    /// [`Metric::score_block`], and feed the per-query `TopK`s. The
    /// single-query and batched paths both come through here, so their
    /// per-row math (and therefore their results) is identical; the cache
    /// replays the same [`ResidualCodec::decode_into`] output a miss
    /// produces, so residency never changes a bit either.
    fn scan_list(
        &self,
        li: usize,
        queries: &[&[f32]],
        q_sqs: &[f32],
        topks: &mut [TopK],
        scratch: &mut Vec<f32>,
        scores: &mut [f32],
    ) {
        let list = &self.lists[li];
        if list.ids.is_empty() {
            return;
        }
        let codec = self.codec.as_ref().expect("trained");
        let centroid = &self.centroids[li];
        let code_bytes = codec.code_bytes();
        let block_rows = self.block_rows();
        // Budget `Auto` resolves to the whole reconstructed store (every
        // resident entry across all lists, decoded to F32).
        let auto_cap = self.len * self.dim * 4;
        let n = list.ids.len();
        let mut start = 0usize;
        while start < n {
            let rows = block_rows.min(n - start);
            let floats = rows * self.dim;
            self.cache.with_panel(
                li as u64,
                start,
                floats,
                auto_cap,
                scratch,
                |buf| {
                    for r in 0..rows {
                        let codes =
                            &list.codes[(start + r) * code_bytes..(start + r + 1) * code_bytes];
                        codec.decode_into(
                            codes,
                            centroid,
                            &mut buf[r * self.dim..(r + 1) * self.dim],
                        );
                    }
                },
                |panel| {
                    let row_norms = &list.norms[start..start + rows];
                    for ((q, &q_sq), topk) in queries.iter().zip(q_sqs).zip(topks.iter_mut()) {
                        let out = &mut scores[..rows];
                        self.metric.score_block(q, q_sq, &panel[..floats], row_norms, out);
                        for (j, &score) in out.iter().enumerate() {
                            if !list.dead[start + j] {
                                topk.push(SearchResult { id: list.ids[start + j], score });
                            }
                        }
                    }
                },
            );
            start += rows;
        }
    }

    /// Deserialise from [`VectorStore::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(Self::MAGIC)?;
        let metric = r.metric()?;
        let dim = r.u32()? as usize;
        let config = PqConfig {
            nlist: r.u32()? as usize,
            nprobe: r.u32()? as usize,
            train_iters: r.u32()? as usize,
            bits: r.u8()? as usize,
            sub_dim: r.u32()? as usize,
            seed: r.u64()?,
        };
        if config.nlist == 0
            || config.nprobe == 0
            || !(4..=8).contains(&config.bits)
            || config.sub_dim == 0
        {
            return None;
        }
        let trained = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let n_sub = r.count(8)?;
        let scale = r.f32_vec(n_sub)?;
        let bias = r.f32_vec(n_sub)?;
        let codec = if trained {
            if n_sub != dim.div_ceil(config.sub_dim) {
                return None;
            }
            Some(ResidualCodec { dim, bits: config.bits, sub_dim: config.sub_dim, scale, bias })
        } else {
            if n_sub != 0 {
                return None;
            }
            None
        };
        let n_centroids = r.count(dim * 4)?;
        let centroids: Vec<Vec<f32>> =
            (0..n_centroids).map(|_| r.f32_vec(dim)).collect::<Option<_>>()?;
        let n_lists = r.count(4)?;
        if trained && n_lists != n_centroids {
            return None;
        }
        let code_bytes = (dim * config.bits).div_ceil(8);
        let mut len = 0usize;
        let mut lists = Vec::with_capacity(n_lists);
        for _ in 0..n_lists {
            let entries = r.count(code_bytes.max(1))?;
            let payload_len = r.count(1)?;
            let mut p = Reader::new(r.take(payload_len)?);
            let mut ids = Vec::with_capacity(entries);
            let mut prev = 0i64;
            for _ in 0..entries {
                let id = prev.checked_add(unzigzag(p.varint()?))?;
                if id < 0 {
                    return None;
                }
                ids.push(id as u64);
                prev = id;
            }
            let codes = p.take(entries.checked_mul(code_bytes)?)?.to_vec();
            if !p.exhausted() {
                return None;
            }
            len += entries;
            lists.push(PqList { ids, codes, norms: Vec::new(), dead: vec![false; entries] });
        }
        if !r.exhausted() {
            return None;
        }
        let mut index = Self {
            config,
            dim,
            metric,
            centroids,
            codec,
            lists,
            len,
            dead_count: 0,
            cache: PanelCache::default(),
        };
        // Reconstruction norms are derived data: recompute them through
        // the same decode path insert-time caching used, so the decoded
        // store searches bit-identically to the original.
        if let Some(codec) = index.codec.as_ref() {
            let mut rec = vec![0.0f32; dim];
            for (li, list) in index.lists.iter_mut().enumerate() {
                let centroid = &index.centroids[li];
                let cb = codec.code_bytes();
                list.norms = (0..list.ids.len())
                    .map(|r| {
                        codec.decode_into(&list.codes[r * cb..(r + 1) * cb], centroid, &mut rec);
                        kernel::sq_norm(&rec)
                    })
                    .collect();
            }
        }
        Some(index)
    }
}

impl VectorStore for PqIndex {
    fn add(&mut self, id: u64, vector: &[f32]) {
        assert!(self.is_trained(), "PqIndex::add before train()");
        assert_eq!(vector.len(), self.dim, "vector dimension mismatch");
        let (c, codes, norm) = self.encode_one(vector);
        self.push_encoded(c, id, &codes, norm);
    }

    fn add_batch(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        assert!(self.is_trained(), "PqIndex::add_batch before train()");
        for (_, v) in items {
            assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        }
        // Assignment + quantization is the per-item cost and is
        // independent per vector; fan it out, then fill the lists in
        // input order so the store is bit-identical to sequential adds.
        let (encoded, _) =
            run_stage_batched(exec, "pq-encode", (0..items.len()).collect(), 0, |i| {
                Ok::<_, String>(self.encode_one(&items[i].1))
            });
        for (enc, (id, _)) in encoded.into_iter().zip(items) {
            let (c, codes, norm) = enc.expect("encoding cannot fail");
            self.push_encoded(c, *id, &codes, norm);
        }
    }

    /// Train the coarse quantiser (shared k-means++, Lloyd on `exec`) and
    /// fit the residual codec on the sample's residuals, after which the
    /// index accepts [`VectorStore::add`]. Fewer training vectors than
    /// `nlist` shrink the list count. Panics on an empty sample.
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
        let (residuals, _) =
            run_stage_batched(exec, "pq-residuals", (0..training.len()).collect(), 0, |i| {
                let c = kmeans::nearest(self.metric, &centroids, &training[i]);
                let r: Vec<f32> =
                    training[i].iter().zip(&centroids[c]).map(|(x, m)| x - m).collect();
                Ok::<_, String>(r)
            });
        let residuals: Vec<Vec<f32>> =
            residuals.into_iter().map(|r| r.expect("residual cannot fail")).collect();
        self.codec =
            Some(ResidualCodec::fit(self.dim, self.config.bits, self.config.sub_dim, &residuals));
        self.lists = vec![PqList::default(); centroids.len()];
        self.centroids = centroids;
        self.len = 0;
        self.dead_count = 0;
        self.cache.invalidate();
    }

    fn remove(&mut self, ids: &[u64]) -> usize {
        let targets: std::collections::HashSet<u64> = ids.iter().copied().collect();
        let mut removed = 0usize;
        for list in &mut self.lists {
            for (id, dead) in list.ids.iter().zip(list.dead.iter_mut()) {
                if !*dead && targets.contains(id) {
                    *dead = true;
                    removed += 1;
                }
            }
        }
        self.dead_count += removed;
        removed
    }

    fn rekey(&mut self, map: &HashMap<u64, u64>) -> usize {
        // Lists hold rows by centroid, not by id: relabelling moves
        // nothing and leaves every code (and resident panel) in place.
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

    fn needs_training(&self) -> bool {
        true
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        if k == 0 || self.len() == 0 {
            return Vec::new();
        }
        let q_sq = kernel::sq_norm(query);
        let mut topk = vec![TopK::new(k)];
        let mut scratch = Vec::new();
        let mut scores = vec![0.0f32; self.block_rows()];
        for li in self.ranked_lists(query) {
            self.scan_list(li, &[query], &[q_sq], &mut topk, &mut scratch, &mut scores);
        }
        topk.pop().expect("one accumulator").into_sorted()
    }

    fn search_batch(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<SearchResult>> {
        for q in queries {
            assert_eq!(q.len(), self.dim, "query dimension mismatch");
        }
        if k == 0 || self.len() == 0 || queries.is_empty() {
            return vec![Vec::new(); queries.len()];
        }
        // Stage 1: rank centroids per query (independent, fan out).
        let (probes, _) =
            run_stage_batched(exec, "pq-rank", (0..queries.len()).collect(), 0, |qi| {
                Ok::<_, String>(self.ranked_lists(&queries[qi]))
            });
        // Invert to the list-centric view: which queries probe each list.
        let mut by_list: Vec<Vec<usize>> = vec![Vec::new(); self.lists.len()];
        for (qi, lists) in probes.into_iter().enumerate() {
            for li in lists.expect("ranking cannot fail") {
                by_list[li].push(qi);
            }
        }
        let work: Vec<usize> = (0..self.lists.len())
            .filter(|&li| !by_list[li].is_empty() && !self.lists[li].ids.is_empty())
            .collect();
        // Stage 2: shard the inverted file across the pool by list. Each
        // task reconstructs its list's panels once, scores every probing
        // query, and returns per-(list, query) partial top-k sets.
        let (partials, _) = run_stage_batched(exec, "pq-scan", work, 0, |li| {
            let qis = &by_list[li];
            let qrefs: Vec<&[f32]> = qis.iter().map(|&qi| queries[qi].as_slice()).collect();
            let q_sqs: Vec<f32> = qrefs.iter().map(|q| kernel::sq_norm(q)).collect();
            let mut topks: Vec<TopK> = (0..qis.len()).map(|_| TopK::new(k)).collect();
            let mut scratch = Vec::new();
            let mut scores = vec![0.0f32; self.block_rows()];
            self.scan_list(li, &qrefs, &q_sqs, &mut topks, &mut scratch, &mut scores);
            let out: Vec<(usize, Vec<SearchResult>)> =
                qis.iter().copied().zip(topks.into_iter().map(TopK::into_sorted)).collect();
            Ok::<_, String>(out)
        });
        // Stage 3: merge. The global top-k of a union equals the top-k of
        // the per-list top-k's under `cmp_hits` (a total order whose ties
        // are value-identical), so this matches sequential search exactly.
        let mut topks: Vec<TopK> = (0..queries.len()).map(|_| TopK::new(k)).collect();
        for part in partials {
            for (qi, hits) in part.expect("scan cannot fail") {
                for h in hits {
                    topks[qi].push(h);
                }
            }
        }
        topks.into_iter().map(TopK::into_sorted).collect()
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
        let lists: usize =
            self.lists.iter().map(|l| l.ids.len() * 8 + l.codes.len() + l.norms.len() * 4).sum();
        let centroids = self.centroids.len() * self.dim * 4;
        let codec = self.codec.as_ref().map_or(0, |c| (c.scale.len() + c.bias.len()) * 4);
        lists + centroids + codec
    }

    fn set_panel_cache_budget(&mut self, budget: PanelBudget) {
        self.cache.set_budget(budget);
    }

    fn panel_cache_resident_bytes(&self) -> usize {
        self.cache.resident_bytes()
    }

    fn to_bytes(&self) -> Vec<u8> {
        if self.dead_count > 0 {
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
        out.push(self.config.bits as u8);
        put_u32(&mut out, self.config.sub_dim);
        crate::codec::put_u64(&mut out, self.config.seed);
        out.push(u8::from(self.is_trained()));
        match self.codec.as_ref() {
            Some(c) => {
                put_u32(&mut out, c.scale.len());
                put_f32s(&mut out, &c.scale);
                put_f32s(&mut out, &c.bias);
            }
            None => put_u32(&mut out, 0),
        }
        put_u32(&mut out, self.centroids.len());
        for c in &self.centroids {
            put_f32s(&mut out, c);
        }
        put_u32(&mut out, self.lists.len());
        let mut payload = Vec::new();
        for list in &self.lists {
            put_u32(&mut out, list.ids.len());
            payload.clear();
            let mut prev = 0i64;
            for &id in &list.ids {
                put_varint(&mut payload, zigzag(id as i64 - prev));
                prev = id as i64;
            }
            payload.extend_from_slice(&list.codes);
            put_u32(&mut out, payload.len());
            out.extend_from_slice(&payload);
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

    fn trained(dim: usize, data: &[Vec<f32>], config: PqConfig) -> PqIndex {
        let mut pq = PqIndex::new(dim, Metric::Cosine, config);
        pq.train(Executor::global(), data);
        for (i, v) in data.iter().enumerate() {
            pq.add(i as u64, v);
        }
        pq
    }

    #[test]
    fn codec_roundtrip_within_quantum() {
        let dim = 24;
        let rng = KeyedStochastic::new(5);
        let residuals: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                (0..dim)
                    .map(|j| 0.3 * rng.gaussian(&["r", &i.to_string(), &j.to_string()]) as f32)
                    .collect()
            })
            .collect();
        for bits in [4usize, 6, 8] {
            let codec = ResidualCodec::fit(dim, bits, 8, &residuals);
            assert_eq!(codec.code_bytes(), (dim * bits).div_ceil(8));
            let zero = vec![0.0f32; dim];
            let mut rec = vec![0.0f32; dim];
            for r in &residuals {
                let mut codes = Vec::new();
                codec.encode_into(r, &mut codes);
                assert_eq!(codes.len(), codec.code_bytes());
                codec.decode_into(&codes, &zero, &mut rec);
                for (j, (&x, &y)) in r.iter().zip(&rec).enumerate() {
                    let bound = codec.quantum(j) * 0.5001 + 1e-6;
                    assert!((x - y).abs() <= bound, "bits={bits} dim {j}: |{x} - {y}| > {bound}");
                }
            }
        }
    }

    #[test]
    fn codec_constant_subspace_is_exact() {
        let residuals = vec![vec![0.5f32, -1.0, 0.5, -1.0]; 3];
        let codec = ResidualCodec::fit(4, 4, 2, &residuals);
        let mut codes = Vec::new();
        codec.encode_into(&residuals[0], &mut codes);
        let mut rec = vec![0.0f32; 4];
        codec.decode_into(&codes, &[0.0; 4], &mut rec);
        assert_eq!(rec, residuals[0], "zero-width ranges decode exactly");
    }

    #[test]
    fn recall_against_flat() {
        let dim = 32;
        let data = clustered(600, 8, dim, 7);
        let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F32);
        for (i, v) in data.iter().enumerate() {
            flat.add(i as u64, v);
        }
        let pq = trained(
            dim,
            &data,
            PqConfig { nlist: 16, nprobe: 4, train_iters: 6, bits: 4, sub_dim: 8, seed: 3 },
        );
        let queries = clustered(50, 8, dim, 99);
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in &queries {
            let truth: std::collections::HashSet<u64> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            hits += pq.search(q, 10).iter().filter(|h| truth.contains(&h.id)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.8, "PQ recall@10 = {recall}");
    }

    #[test]
    fn search_batch_is_identical_to_sequential() {
        let dim = 16;
        let data = clustered(300, 4, dim, 21);
        let pq = trained(
            dim,
            &data,
            PqConfig { nlist: 8, nprobe: 3, train_iters: 4, bits: 6, sub_dim: 4, seed: 1 },
        );
        let queries = clustered(17, 4, dim, 77);
        let sequential: Vec<Vec<SearchResult>> = queries.iter().map(|q| pq.search(q, 5)).collect();
        for workers in [1usize, 4] {
            let pool = Executor::new(workers);
            assert_eq!(pq.search_batch(&pool, &queries, 5), sequential, "workers={workers}");
        }
        assert!(pq.search_batch(Executor::global(), &[], 5).is_empty());
    }

    #[test]
    fn add_batch_is_bit_identical_to_serial_adds() {
        let dim = 16;
        let data = clustered(150, 4, dim, 13);
        let items: Vec<(u64, Vec<f32>)> =
            data.iter().enumerate().map(|(i, v)| (i as u64 * 3, v.clone())).collect();
        let exec = Executor::global();
        let mut serial = PqIndex::new(dim, Metric::Cosine, PqConfig::default());
        serial.train(exec, &data);
        for (id, v) in &items {
            serial.add(*id, v);
        }
        let mut batched = PqIndex::new(dim, Metric::Cosine, PqConfig::default());
        batched.train(exec, &data);
        batched.add_batch(exec, &items);
        assert_eq!(batched.to_bytes(), serial.to_bytes());
    }

    #[test]
    fn serialisation_roundtrip_preserves_search_bits() {
        let dim = 12;
        let data = clustered(160, 4, dim, 31);
        let pq = trained(
            dim,
            &data,
            PqConfig { nlist: 8, nprobe: 8, train_iters: 4, bits: 5, sub_dim: 5, seed: 9 },
        );
        let bytes = pq.to_bytes();
        let back = PqIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), pq.len());
        assert_eq!(back.list_sizes(), pq.list_sizes());
        assert!(back.is_trained());
        for q in data.iter().take(8) {
            let a = pq.search(q, 7);
            let b = back.search(q, 7);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "scores bit-identical");
            }
        }
        assert_eq!(back.to_bytes(), bytes, "re-serialisation is stable");
        // Corruption rejected.
        assert!(PqIndex::from_bytes(&bytes[..bytes.len() - 3]).is_none());
        assert!(PqIndex::from_bytes(b"PQIV").is_none());
        assert!(PqIndex::from_bytes(b"FLATxxxx").is_none());
        // Untrained round-trip.
        let empty = PqIndex::new(4, Metric::Cosine, PqConfig::default());
        let back = PqIndex::from_bytes(&empty.to_bytes()).unwrap();
        assert!(!back.is_trained());
        assert_eq!(back.len(), 0);
    }

    #[test]
    fn remove_upsert_compact_match_rebuild_with_same_codec() {
        let dim = 16;
        let data = clustered(120, 4, dim, 19);
        let config = PqConfig { nlist: 8, nprobe: 8, train_iters: 4, bits: 6, sub_dim: 4, seed: 2 };
        let mut pq = trained(dim, &data, config.clone());
        let exec = Executor::global();

        let gone: Vec<u64> = (0..40).collect();
        assert_eq!(pq.remove(&gone), 40);
        assert_eq!(pq.remove(&gone), 0, "re-removal is a no-op");
        assert_eq!(pq.len(), 80);
        assert_eq!(pq.tombstones(), 40);

        let upserts: Vec<(u64, Vec<f32>)> =
            (50u64..55).map(|i| (i, data[(i as usize + 7) % data.len()].clone())).collect();
        pq.upsert(exec, &upserts);
        assert_eq!(pq.len(), 80, "upsert replaces, not grows");

        // Rebuild cold over the surviving rows, reusing the same trained
        // structure (same config + training sample → same centroids/codec).
        let mut rebuilt = PqIndex::new(dim, Metric::Cosine, config);
        rebuilt.train(exec, &data);
        for (i, v) in data.iter().enumerate() {
            if i >= 40 && !(50..55).contains(&i) {
                rebuilt.add(i as u64, v);
            }
        }
        rebuilt.add_batch(exec, &upserts);

        let queries = clustered(8, 4, dim, 91);
        for q in &queries {
            assert_eq!(pq.search(q, 10), rebuilt.search(q, 10));
        }
        let wire = pq.to_bytes();
        pq.compact(exec);
        assert_eq!(pq.tombstones(), 0);
        assert_eq!(pq.to_bytes(), wire, "serialisation already wrote the live view");
        for q in &queries {
            assert_eq!(pq.search(q, 10), rebuilt.search(q, 10), "post-compaction");
        }
    }

    #[test]
    fn compression_beats_4x_at_4_bits() {
        // Per row: flat/F16 stores 2·dim + 8 (id) bytes, pq stores dim/2
        // (codes) + ~1 (delta-varint id); the centroid table amortises
        // away with corpus size, so the serialized ratio clears 4×.
        let dim = 32;
        let data = clustered(2_000, 8, dim, 17);
        let pq = trained(
            dim,
            &data,
            PqConfig { nlist: 8, nprobe: 4, train_iters: 4, bits: 4, sub_dim: 16, seed: 5 },
        );
        let mut flat = FlatIndex::new(dim, Metric::Cosine, Precision::F16);
        for (i, v) in data.iter().enumerate() {
            flat.add(i as u64, v);
        }
        let ratio = flat.to_bytes().len() as f64 / pq.to_bytes().len() as f64;
        assert!(ratio >= 4.0, "serialized compression vs flat/F16 = {ratio:.2}x");
    }

    #[test]
    fn untrained_and_degenerate_are_total() {
        let pq = PqIndex::new(4, Metric::Cosine, PqConfig::default());
        assert!(!pq.is_trained());
        assert!(pq.search(&[1.0, 0.0, 0.0, 0.0], 5).is_empty());
        let mut pq = pq;
        pq.train(Executor::global(), &[vec![1.0, 0.0, 0.0, 0.0]]);
        assert_eq!(pq.nlist(), 1, "training shrinks nlist to the sample size");
        assert!(pq.search(&[1.0, 0.0, 0.0, 0.0], 5).is_empty(), "trained but empty");
        pq.add(9, &[1.0, 0.0, 0.0, 0.0]);
        assert!(pq.search(&[1.0, 0.0, 0.0, 0.0], 0).is_empty(), "k=0");
        assert_eq!(pq.search(&[1.0, 0.0, 0.0, 0.0], 50)[0].id, 9, "k>len");
    }

    #[test]
    #[should_panic(expected = "before train")]
    fn add_before_train_panics() {
        let mut pq = PqIndex::new(4, Metric::Cosine, PqConfig::default());
        pq.add(0, &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn train_empty_panics() {
        let mut pq = PqIndex::new(4, Metric::Cosine, PqConfig::default());
        pq.train(Executor::global(), &[]);
    }
}
