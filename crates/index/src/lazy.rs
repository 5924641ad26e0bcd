//! Lazy store opening: decode headers now, row data on first use.
//!
//! [`IndexRegistry::from_bytes`](crate::IndexRegistry::from_bytes) decodes
//! every row of every store eagerly — fine for a batch pipeline, wrong for
//! a serving process whose startup cost must be bounded and measured. The
//! lazy path ([`IndexRegistry::open_bytes`](crate::IndexRegistry::open_bytes))
//! wraps each store in a [`LazyStore`]: the self-describing header (magic
//! tag, metric, dimensionality, row count) is validated up front, while
//! the row payload stays raw bytes until the first search forces a full
//! decode. Header-only facts (`len`/`dim`/`metric`) answer without any
//! decode, so a service can report capacity and route requests before it
//! has paid for a single row.

use std::collections::HashMap;
use std::sync::OnceLock;

use mcqa_embed::PanelBudget;
use mcqa_runtime::Executor;

use crate::codec::{ReadMetricExt, Reader};
use crate::metric::Metric;
use crate::{decode_store, FlatIndex, HnswIndex, IvfIndex, PqIndex, SearchResult, VectorStore};

/// The header-only facts of a serialised store, readable without touching
/// row data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreHeader {
    /// Backend label (`flat` / `hnsw` / `ivf` / `pq`), from the magic tag.
    pub backend: &'static str,
    /// Scoring metric.
    pub metric: Metric,
    /// Vector dimensionality.
    pub dim: usize,
    /// Stored vector count.
    pub len: usize,
}

/// Decode the header of a store serialised by
/// [`VectorStore::to_bytes`], walking length framing but never row
/// payloads. `None` on unknown magic or a malformed header.
pub fn peek_store_header(bytes: &[u8]) -> Option<StoreHeader> {
    let mut r = Reader::new(bytes);
    match bytes.get(..4)? {
        m if m == FlatIndex::MAGIC => {
            r.expect_magic(FlatIndex::MAGIC)?;
            let metric = r.metric()?;
            let mlen = r.u64()? as usize;
            // The matrix's own EMBX header: magic, u32 dim, u32 rows.
            let matrix = r.take(mlen)?;
            let mut m = Reader::new(matrix);
            m.expect_magic(b"EMBX")?;
            let dim = m.u32()? as usize;
            let len = m.u32()? as usize;
            Some(StoreHeader { backend: "flat", metric, dim, len })
        }
        m if m == HnswIndex::MAGIC => {
            r.expect_magic(HnswIndex::MAGIC)?;
            let metric = r.metric()?;
            let dim = r.u32()? as usize;
            let _m = r.u32()?;
            let _ef_construction = r.u32()?;
            let _ef_search = r.u32()?;
            let _seed = r.u64()?;
            let len = r.count(8 + dim * 4)?;
            Some(StoreHeader { backend: "hnsw", metric, dim, len })
        }
        m if m == IvfIndex::MAGIC => {
            r.expect_magic(IvfIndex::MAGIC)?;
            let metric = r.metric()?;
            let dim = r.u32()? as usize;
            let _nlist = r.u32()?;
            let _nprobe = r.u32()?;
            let _train_iters = r.u32()?;
            let _seed = r.u64()?;
            let _trained = r.u8()?;
            let n_centroids = r.count(dim * 4)?;
            r.take(n_centroids.checked_mul(dim.checked_mul(4)?)?)?;
            // Total length lives in the per-list entry counts; walk the
            // framing (4 bytes per list) and skip the entry payloads.
            let n_lists = r.count(4)?;
            let entry_size = 8usize.checked_add(dim.checked_mul(4)?)?;
            let mut len = 0usize;
            for _ in 0..n_lists {
                let entries = r.count(entry_size)?;
                r.take(entries.checked_mul(entry_size)?)?;
                len = len.checked_add(entries)?;
            }
            Some(StoreHeader { backend: "ivf", metric, dim, len })
        }
        m if m == PqIndex::MAGIC => {
            r.expect_magic(PqIndex::MAGIC)?;
            let metric = r.metric()?;
            let dim = r.u32()? as usize;
            let _nlist = r.u32()?;
            let _nprobe = r.u32()?;
            let _train_iters = r.u32()?;
            let bits = r.u8()? as usize;
            let _sub_dim = r.u32()?;
            let _seed = r.u64()?;
            let _trained = r.u8()?;
            let n_sub = r.count(8)?;
            r.take(n_sub.checked_mul(8)?)?; // scale + bias
            let n_centroids = r.count(dim * 4)?;
            r.take(n_centroids.checked_mul(dim.checked_mul(4)?)?)?;
            // Total length lives in the per-list entry counts; each list
            // frames its delta-varint ids + packed codes behind an
            // explicit payload length, so the walk skips blobs whole.
            let n_lists = r.count(4)?;
            let code_bytes = dim.checked_mul(bits)?.checked_add(7)? / 8;
            let mut len = 0usize;
            for _ in 0..n_lists {
                let entries = r.count(code_bytes.max(1))?;
                let payload_len = r.count(1)?;
                r.take(payload_len)?;
                len = len.checked_add(entries)?;
            }
            Some(StoreHeader { backend: "pq", metric, dim, len })
        }
        _ => None,
    }
}

/// A store whose bytes are held raw until first use.
///
/// Header facts ([`VectorStore::len`], [`VectorStore::dim`],
/// [`VectorStore::metric`]) answer from the validated [`StoreHeader`];
/// the first search (or mutation) forces a full [`decode_store`] of the
/// retained bytes. A corrupt body — possible because opening validated
/// only the header — panics at that first use rather than being skipped.
pub struct LazyStore {
    header: StoreHeader,
    bytes: Vec<u8>,
    /// A panel-cache budget configured before the body decode; applied to
    /// the inner store the moment it materialises (budgets are a
    /// registry-open-time configuration, decoding is first-search-time).
    budget: Option<PanelBudget>,
    inner: OnceLock<Box<dyn VectorStore>>,
}

impl LazyStore {
    /// Validate the header of `bytes` and wrap them for deferred decoding.
    /// `None` when the header is malformed or the magic tag unknown.
    pub fn open(bytes: Vec<u8>) -> Option<Self> {
        let header = peek_store_header(&bytes)?;
        Some(Self { header, bytes, budget: None, inner: OnceLock::new() })
    }

    /// The header decoded at open time. Reflects the serialised store;
    /// post-open mutations (`add`/`train`) are visible through the trait
    /// accessors, not here.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// True once row data has been decoded (by a search or a mutation).
    pub fn is_decoded(&self) -> bool {
        self.inner.get().is_some()
    }

    fn force(&self) -> &dyn VectorStore {
        self.inner
            .get_or_init(|| {
                let mut store = decode_store(&self.bytes).unwrap_or_else(|| {
                    panic!("lazy {} store body is corrupt (header was valid)", self.header.backend)
                });
                if let Some(budget) = self.budget {
                    store.set_panel_cache_budget(budget);
                }
                store
            })
            .as_ref()
    }

    fn force_mut(&mut self) -> &mut Box<dyn VectorStore> {
        if self.inner.get().is_none() {
            self.force();
        }
        self.inner.get_mut().expect("store decoded above")
    }
}

impl VectorStore for LazyStore {
    fn add(&mut self, id: u64, vector: &[f32]) {
        self.force_mut().add(id, vector);
    }

    fn add_batch(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        self.force_mut().add_batch(exec, items);
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<SearchResult> {
        self.force().search(query, k)
    }

    fn search_batch(
        &self,
        exec: &Executor,
        queries: &[Vec<f32>],
        k: usize,
    ) -> Vec<Vec<SearchResult>> {
        // Delegate so the backend's own batched kernel (the flat panel
        // amortisation) is preserved, not the trait's per-query default.
        self.force().search_batch(exec, queries, k)
    }

    fn len(&self) -> usize {
        match self.inner.get() {
            Some(inner) => inner.len(),
            None => self.header.len,
        }
    }

    fn metric(&self) -> Metric {
        self.header.metric
    }

    fn dim(&self) -> usize {
        self.header.dim
    }

    fn needs_training(&self) -> bool {
        match self.inner.get() {
            Some(inner) => inner.needs_training(),
            None => matches!(self.header.backend, "ivf" | "pq"),
        }
    }

    fn train(&mut self, exec: &Executor, sample: &[Vec<f32>]) {
        self.force_mut().train(exec, sample);
    }

    fn remove(&mut self, ids: &[u64]) -> usize {
        self.force_mut().remove(ids)
    }

    fn upsert(&mut self, exec: &Executor, items: &[(u64, Vec<f32>)]) {
        self.force_mut().upsert(exec, items);
    }

    fn rekey(&mut self, map: &HashMap<u64, u64>) -> usize {
        self.force_mut().rekey(map)
    }

    fn clone_box(&self) -> Box<dyn VectorStore> {
        // Undecoded: copy the raw bytes and stay lazy. Decoded: clone the
        // live structure (the retained bytes may predate its mutations).
        let inner = OnceLock::new();
        let bytes = match self.inner.get() {
            Some(store) => {
                let _ = inner.set(store.clone_box());
                Vec::new()
            }
            None => self.bytes.clone(),
        };
        Box::new(Self { header: self.header.clone(), bytes, budget: self.budget, inner })
    }

    fn tombstones(&self) -> usize {
        self.inner.get().map_or(0, |inner| inner.tombstones())
    }

    fn compact(&mut self, exec: &Executor) {
        // An undecoded blob has no tombstones (serialisation writes the
        // live view), so compaction only has work once decoded.
        if self.inner.get().is_some() {
            self.force_mut().compact(exec);
        }
    }

    fn payload_bytes(&self) -> usize {
        // Backend-specific accounting (matrix payload + graph/list
        // structure) needs the decoded store; capacity reporting is not a
        // startup-path call.
        self.force().payload_bytes()
    }

    fn set_panel_cache_budget(&mut self, budget: PanelBudget) {
        match self.inner.get() {
            // Already decoded: apply directly.
            Some(_) => self.force_mut().set_panel_cache_budget(budget),
            // Still raw bytes: stash it; `force` applies it after decode.
            None => self.budget = Some(budget),
        }
    }

    fn panel_cache_resident_bytes(&self) -> usize {
        // An undecoded store has no cache; never force a decode for a
        // capacity probe.
        self.inner.get().map_or(0, |inner| inner.panel_cache_resident_bytes())
    }

    fn to_bytes(&self) -> Vec<u8> {
        match self.inner.get() {
            Some(inner) => inner.to_bytes(),
            None => self.bytes.clone(),
        }
    }
}

impl std::fmt::Debug for LazyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyStore")
            .field("header", &self.header)
            .field("decoded", &self.is_decoded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{build_store_from_vectors, IndexSpec};
    use mcqa_embed::Precision;

    fn items(n: usize, dim: usize) -> Vec<(u64, Vec<f32>)> {
        (0..n)
            .map(|i| {
                let mut v = vec![0.0f32; dim];
                v[i % dim] = 1.0;
                v[(i * 7) % dim] += 0.25;
                (i as u64 * 3, v)
            })
            .collect()
    }

    #[test]
    fn header_peek_matches_store_facts_across_backends() {
        let exec = Executor::global();
        for spec in IndexSpec::all_defaults() {
            let store = build_store_from_vectors(
                &spec,
                6,
                Metric::Cosine,
                Precision::F16,
                exec,
                &items(37, 6),
            );
            let header = peek_store_header(&store.to_bytes()).expect("header decodes");
            assert_eq!(header.backend, spec.label());
            assert_eq!(header.metric, store.metric(), "{}", spec.label());
            assert_eq!(header.dim, store.dim(), "{}", spec.label());
            assert_eq!(header.len, store.len(), "{}", spec.label());
        }
        assert!(peek_store_header(b"????rest").is_none());
        assert!(peek_store_header(b"FLAT").is_none(), "truncated header rejected");
        assert!(peek_store_header(b"").is_none());
    }

    #[test]
    fn lazy_store_defers_decoding_until_first_search() {
        let exec = Executor::global();
        for spec in IndexSpec::all_defaults() {
            let eager = build_store_from_vectors(
                &spec,
                8,
                Metric::Cosine,
                Precision::F16,
                exec,
                &items(50, 8),
            );
            let lazy = LazyStore::open(eager.to_bytes()).expect("opens");
            // Header facts answer without decoding row data.
            assert!(!lazy.is_decoded(), "{}: open must not decode rows", spec.label());
            assert_eq!(lazy.len(), eager.len());
            assert_eq!(lazy.dim(), eager.dim());
            assert_eq!(lazy.metric(), eager.metric());
            assert_eq!(lazy.to_bytes(), eager.to_bytes(), "undecoded bytes pass through");
            assert!(!lazy.is_decoded(), "header reads must not force a decode");
            // First search forces the decode and matches the eager store.
            let q = &items(1, 8)[0].1;
            assert_eq!(lazy.search(q, 5), eager.search(q, 5), "{}", spec.label());
            assert!(lazy.is_decoded());
            assert_eq!(lazy.payload_bytes(), eager.payload_bytes());
        }
    }

    #[test]
    fn lazy_batch_search_is_bit_identical() {
        let exec = Executor::global();
        let eager = build_store_from_vectors(
            &IndexSpec::Flat,
            8,
            Metric::Cosine,
            Precision::F16,
            exec,
            &items(64, 8),
        );
        let lazy = LazyStore::open(eager.to_bytes()).expect("opens");
        let queries: Vec<Vec<f32>> = items(9, 8).into_iter().map(|(_, v)| v).collect();
        assert_eq!(lazy.search_batch(exec, &queries, 4), eager.search_batch(exec, &queries, 4));
    }

    #[test]
    fn lazy_store_mutation_decodes_then_delegates() {
        let exec = Executor::global();
        let eager = build_store_from_vectors(
            &IndexSpec::Flat,
            4,
            Metric::Cosine,
            Precision::F32,
            exec,
            &items(10, 4),
        );
        let mut lazy = LazyStore::open(eager.to_bytes()).expect("opens");
        lazy.add(999, &[0.0, 0.0, 0.0, 1.0]);
        assert!(lazy.is_decoded());
        assert_eq!(lazy.len(), 11);
        let hits = lazy.search(&[0.0, 0.0, 0.0, 1.0], 1);
        assert_eq!(hits[0].id, 999);

        // Tombstone surface forwards to the decoded backend.
        assert_eq!(lazy.remove(&[999]), 1);
        assert_eq!(lazy.tombstones(), 1);
        assert_eq!(lazy.len(), 10);
        assert_ne!(lazy.search(&[0.0, 0.0, 0.0, 1.0], 1)[0].id, 999);
        lazy.compact(exec);
        assert_eq!(lazy.tombstones(), 0);

        // An undecoded store reports no tombstones and compacts for free.
        let mut cold = LazyStore::open(eager.to_bytes()).expect("opens");
        assert_eq!(cold.tombstones(), 0);
        cold.compact(exec);
        assert!(!cold.is_decoded(), "compacting an undecoded blob is a no-op");
    }

    #[test]
    #[should_panic(expected = "body is corrupt")]
    fn corrupt_body_panics_at_first_use_not_open() {
        let exec = Executor::global();
        let eager = build_store_from_vectors(
            &IndexSpec::Flat,
            4,
            Metric::Cosine,
            Precision::F32,
            exec,
            &items(10, 4),
        );
        let mut bytes = eager.to_bytes();
        let n = bytes.len();
        bytes.truncate(n - 2); // ids truncated: header intact, body corrupt
        let lazy = LazyStore::open(bytes).expect("header still validates");
        assert!(!lazy.is_decoded());
        lazy.search(&[1.0, 0.0, 0.0, 0.0], 1); // panics here
    }
}
