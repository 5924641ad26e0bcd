//! A named multi-database registry.
//!
//! The paper's evaluation keeps four FAISS stores side by side: the chunk
//! database plus one per reasoning-trace mode (detailed / focused /
//! efficient). [`IndexRegistry`] holds that family behind names — the
//! pipeline registers `chunks` and `traces-<mode>`, the evaluator looks
//! them up — and round-trips the whole family to bytes via each store's
//! self-describing [`VectorStore::to_bytes`] format.
//!
//! Each dense store may carry a **lexical sibling** — a BM25
//! [`LexicalIndex`] over the same documents, registered under its own
//! name (the pipeline uses `lex-chunks` / `lex-traces-<mode>`). Siblings
//! ride the same serialised registry (a trailing lexical section) and the
//! same lazy-open discipline: [`IndexRegistry::open_bytes`] keeps their
//! payload as raw bytes until the first lexical search touches them.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mcqa_lexical::LexicalIndex;

use crate::codec::{put_u32, Reader};
use crate::{decode_store, SearchResult, VectorStore};

/// A lexical sibling slot: either an already-decoded index or its raw
/// `LEXI` bytes, decoded once on first touch (the lexical mirror of
/// [`crate::lazy::LazyStore`]). A clone copies whichever form it holds.
#[derive(Clone)]
struct LexicalSlot {
    /// Raw serialised bytes when opened lazily; empty for eager slots.
    bytes: Vec<u8>,
    inner: OnceLock<LexicalIndex>,
}

impl LexicalSlot {
    fn eager(index: LexicalIndex) -> Self {
        let inner = OnceLock::new();
        let _ = inner.set(index);
        Self { bytes: Vec::new(), inner }
    }

    fn lazy(bytes: Vec<u8>) -> Self {
        Self { bytes, inner: OnceLock::new() }
    }

    /// The decoded index, decoding on first touch. Panics on corrupted
    /// body bytes — the same contract as [`crate::lazy::LazyStore`]:
    /// framing is validated at open, body corruption surfaces at first
    /// use.
    fn get(&self) -> &LexicalIndex {
        self.inner.get_or_init(|| {
            LexicalIndex::from_bytes(&self.bytes).expect("lexical index bytes corrupted")
        })
    }

    /// Serialised bytes: raw pass-through for undecoded lazy slots (no
    /// decode forced just to re-encode), fresh encode otherwise.
    fn to_bytes(&self) -> Vec<u8> {
        match self.inner.get() {
            Some(idx) => idx.to_bytes(),
            None => self.bytes.clone(),
        }
    }

    /// Mutable access, decoding a lazy slot first (mutation must see the
    /// decoded structure).
    fn get_mut(&mut self) -> &mut LexicalIndex {
        if self.inner.get().is_none() {
            self.get();
        }
        self.inner.get_mut().expect("decoded above")
    }
}

/// A registry of named vector stores plus their lexical siblings.
#[derive(Default)]
pub struct IndexRegistry {
    stores: BTreeMap<String, Box<dyn VectorStore>>,
    lexical: BTreeMap<String, LexicalSlot>,
}

/// A structural deep copy: every store through
/// [`VectorStore::clone_box`], every lexical sibling by value. Tombstones
/// carry over, so an incremental run that mutates the copy keeps
/// accumulating them until its compaction threshold; no store is decoded
/// or re-encoded along the way.
impl Clone for IndexRegistry {
    fn clone(&self) -> Self {
        Self {
            stores: self.stores.iter().map(|(n, s)| (n.clone(), s.clone_box())).collect(),
            lexical: self.lexical.clone(),
        }
    }
}

impl IndexRegistry {
    /// Magic tag opening the serialised registry format.
    const MAGIC: &'static [u8; 4] = b"REGY";

    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a store under `name`, replacing any existing one.
    pub fn insert(&mut self, name: &str, store: Box<dyn VectorStore>) {
        self.stores.insert(name.to_string(), store);
    }

    /// Borrow a store by name. Prefer [`IndexRegistry::expect_store`] on
    /// paths where the store's absence is a bug.
    pub fn get(&self, name: &str) -> Option<&dyn VectorStore> {
        self.stores.get(name).map(|b| b.as_ref())
    }

    /// Borrow a store that must exist. Panics with the registered names
    /// when it doesn't — a missing store on the evaluation path is a
    /// wiring bug, never a condition to skip silently.
    pub fn expect_store(&self, name: &str) -> &dyn VectorStore {
        self.get(name)
            .unwrap_or_else(|| panic!("store '{name}' not registered (have: {:?})", self.names()))
    }

    /// Mutably borrow a store by name — the incremental-ingest path, which
    /// applies `remove`/`upsert`/`compact` in place.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Box<dyn VectorStore>> {
        self.stores.get_mut(name)
    }

    /// Mutably borrow a store that must exist; panics with the registered
    /// names when it doesn't.
    pub fn expect_store_mut(&mut self, name: &str) -> &mut Box<dyn VectorStore> {
        let names = format!("{:?}", self.names());
        self.stores
            .get_mut(name)
            .unwrap_or_else(|| panic!("store '{name}' not registered (have: {names})"))
    }

    /// Search a named store. `None` when the store does not exist.
    pub fn search(&self, name: &str, query: &[f32], k: usize) -> Option<Vec<SearchResult>> {
        self.get(name).map(|s| s.search(query, k))
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.stores.keys().map(String::as_str).collect()
    }

    /// Iterate `(name, store)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &dyn VectorStore)> {
        self.stores.iter().map(|(n, s)| (n.as_str(), s.as_ref()))
    }

    /// Number of stores.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// True when no stores are registered.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Total payload bytes across every registered dense store (lexical
    /// siblings report their own [`LexicalIndex::payload_bytes`]).
    pub fn payload_bytes(&self) -> usize {
        self.stores.values().map(|s| s.payload_bytes()).sum()
    }

    /// Apply one panel-cache budget to every registered store (see
    /// [`VectorStore::set_panel_cache_budget`]). Lazily-opened stores
    /// stash the budget and apply it when their body decodes, so this is
    /// safe (and cheap) to call right after
    /// [`IndexRegistry::open_bytes`].
    pub fn set_panel_cache_budget(&mut self, budget: mcqa_embed::PanelBudget) {
        for store in self.stores.values_mut() {
            store.set_panel_cache_budget(budget);
        }
    }

    /// Total bytes of decoded panels resident across every store's panel
    /// cache, for capacity reporting.
    pub fn panel_cache_resident_bytes(&self) -> usize {
        self.stores.values().map(|s| s.panel_cache_resident_bytes()).sum()
    }

    /// The registry name of a dense source's lexical sibling: the one
    /// naming convention every layer (pipeline build, serving, eval,
    /// benches) shares, so there is exactly one place to spell it.
    pub fn lexical_sibling(source: &str) -> String {
        format!("lex-{source}")
    }

    /// Register a lexical sibling under `name` (the pipeline pairs each
    /// dense source with [`IndexRegistry::lexical_sibling`]), replacing
    /// any existing one.
    pub fn insert_lexical(&mut self, name: &str, index: LexicalIndex) {
        self.lexical.insert(name.to_string(), LexicalSlot::eager(index));
    }

    /// Borrow a lexical sibling by name, decoding a lazily-opened slot on
    /// first touch. `None` when no sibling is registered under `name`.
    pub fn lexical(&self, name: &str) -> Option<&LexicalIndex> {
        self.lexical.get(name).map(LexicalSlot::get)
    }

    /// Mutably borrow a lexical sibling by name, decoding a lazily-opened
    /// slot first — the incremental-ingest path.
    pub fn lexical_mut(&mut self, name: &str) -> Option<&mut LexicalIndex> {
        self.lexical.get_mut(name).map(LexicalSlot::get_mut)
    }

    /// Mutably borrow a lexical sibling that must exist; panics with the
    /// registered names when it doesn't.
    pub fn expect_lexical_mut(&mut self, name: &str) -> &mut LexicalIndex {
        let names = format!("{:?}", self.lexical_names());
        self.lexical
            .get_mut(name)
            .map(LexicalSlot::get_mut)
            .unwrap_or_else(|| panic!("lexical index '{name}' not registered (have: {names})"))
    }

    /// Borrow a lexical sibling that must exist; panics with the
    /// registered names when it doesn't.
    pub fn expect_lexical(&self, name: &str) -> &LexicalIndex {
        self.lexical(name).unwrap_or_else(|| {
            panic!("lexical index '{name}' not registered (have: {:?})", self.lexical_names())
        })
    }

    /// Registered lexical sibling names, sorted.
    pub fn lexical_names(&self) -> Vec<&str> {
        self.lexical.keys().map(String::as_str).collect()
    }

    /// Iterate `(name, index)` over lexical siblings in name order
    /// (forces decode of lazy slots).
    pub fn lexical_iter(&self) -> impl Iterator<Item = (&str, &LexicalIndex)> {
        self.lexical.iter().map(|(n, s)| (n.as_str(), s.get()))
    }

    /// Serialise every store (name-tagged, in name order), then the
    /// lexical siblings as a trailing section in the same framing.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(Self::MAGIC);
        put_u32(&mut out, self.stores.len());
        for (name, store) in &self.stores {
            let b = store.to_bytes();
            put_u32(&mut out, name.len());
            out.extend_from_slice(name.as_bytes());
            put_u32(&mut out, b.len());
            out.extend_from_slice(&b);
        }
        put_u32(&mut out, self.lexical.len());
        for (name, slot) in &self.lexical {
            let b = slot.to_bytes();
            put_u32(&mut out, name.len());
            out.extend_from_slice(name.as_bytes());
            put_u32(&mut out, b.len());
            out.extend_from_slice(&b);
        }
        out
    }

    /// Decode the trailing lexical section. An exhausted cursor means a
    /// pre-section artifact (zero siblings) — accepted for back-compat.
    /// `validate_eagerly` decides whether each sibling's payload is
    /// decoded now (`from_bytes`) or kept as raw bytes until first touch
    /// (`open_bytes` — only the `LEXI` magic is checked upfront).
    fn decode_lexical_section(&mut self, r: &mut Reader<'_>, validate_eagerly: bool) -> Option<()> {
        if r.exhausted() {
            return Some(());
        }
        let n = r.count(8)?;
        for _ in 0..n {
            let name_len = r.count(1)?;
            let name = std::str::from_utf8(r.take(name_len)?).ok()?.to_string();
            let blob_len = r.count(1)?;
            let blob = r.take(blob_len)?;
            let slot = if validate_eagerly {
                LexicalSlot::eager(LexicalIndex::from_bytes(blob)?)
            } else {
                if !blob.starts_with(LexicalIndex::MAGIC) {
                    return None;
                }
                LexicalSlot::lazy(blob.to_vec())
            };
            self.lexical.insert(name, slot);
        }
        Some(())
    }

    /// Deserialise a registry written by [`IndexRegistry::to_bytes`].
    /// `None` on any corruption (unknown store tag, truncation, garbage).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(Self::MAGIC)?;
        let n = r.count(8)?;
        let mut reg = Self::new();
        for _ in 0..n {
            let name_len = r.count(1)?;
            let name = std::str::from_utf8(r.take(name_len)?).ok()?.to_string();
            let store_len = r.count(1)?;
            let store = decode_store(r.take(store_len)?)?;
            reg.stores.insert(name, store);
        }
        reg.decode_lexical_section(&mut r, true)?;
        r.exhausted().then_some(reg)
    }

    /// Open a registry written by [`IndexRegistry::to_bytes`] **lazily**:
    /// the registry framing and every store header are validated now, but
    /// each store's row data stays raw bytes until its first search (see
    /// [`crate::lazy::LazyStore`]). This bounds serving startup to a
    /// header walk — O(stores), not O(vectors) — while `names`/`len`/
    /// `dim`/`metric` queries answer immediately from the headers.
    ///
    /// `None` on framing corruption or a malformed store header. Body
    /// corruption beyond the headers is only discovered (as a panic) at
    /// the first use of the affected store.
    pub fn open_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        r.expect_magic(Self::MAGIC)?;
        let n = r.count(8)?;
        let mut reg = Self::new();
        for _ in 0..n {
            let name_len = r.count(1)?;
            let name = std::str::from_utf8(r.take(name_len)?).ok()?.to_string();
            let store_len = r.count(1)?;
            let store = crate::lazy::LazyStore::open(r.take(store_len)?.to_vec())?;
            reg.stores.insert(name, Box::new(store));
        }
        reg.decode_lexical_section(&mut r, false)?;
        r.exhausted().then_some(reg)
    }
}

impl std::fmt::Debug for IndexRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_map();
        for (name, store) in &self.stores {
            d.entry(&name, &format_args!("{} vectors (dim {})", store.len(), store.dim()));
        }
        for name in self.lexical.keys() {
            d.entry(&name, &format_args!("lexical (bm25)"));
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::metric::Metric;
    use crate::spec::{build_store_from_vectors, IndexSpec};
    use mcqa_embed::Precision;
    use mcqa_runtime::Executor;

    #[test]
    fn insert_search_names() {
        let mut reg = IndexRegistry::new();
        let mut chunks = FlatIndex::new(4, Metric::Cosine, Precision::F32);
        chunks.add(1, &[1.0, 0.0, 0.0, 0.0]);
        let mut traces = FlatIndex::new(4, Metric::Cosine, Precision::F16);
        traces.add(2, &[0.0, 1.0, 0.0, 0.0]);
        reg.insert("chunks", Box::new(chunks));
        reg.insert("traces-detailed", Box::new(traces));

        assert_eq!(reg.names(), vec!["chunks", "traces-detailed"]);
        let hits = reg.search("chunks", &[1.0, 0.0, 0.0, 0.0], 1).unwrap();
        assert_eq!(hits[0].id, 1);
        assert!(reg.search("missing", &[0.0; 4], 1).is_none());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn expect_store_returns_registered() {
        let mut reg = IndexRegistry::new();
        let mut a = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        a.add(10, &[1.0, 0.0]);
        reg.insert("chunks", Box::new(a));
        assert_eq!(reg.expect_store("chunks").len(), 1);
    }

    #[test]
    #[should_panic(expected = "store 'traces-detailed' not registered")]
    fn expect_store_panics_loudly_on_missing() {
        let mut reg = IndexRegistry::new();
        reg.insert("chunks", Box::new(FlatIndex::new(2, Metric::Cosine, Precision::F32)));
        reg.expect_store("traces-detailed");
    }

    #[test]
    fn replacement_overwrites() {
        let mut reg = IndexRegistry::new();
        let mut a = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        a.add(10, &[1.0, 0.0]);
        reg.insert("x", Box::new(a));
        let mut b = FlatIndex::new(2, Metric::Cosine, Precision::F32);
        b.add(20, &[1.0, 0.0]);
        reg.insert("x", Box::new(b));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.search("x", &[1.0, 0.0], 1).unwrap()[0].id, 20);
    }

    #[test]
    fn bytes_roundtrip_mixed_backends() {
        let items: Vec<(u64, Vec<f32>)> = (0..30)
            .map(|i| {
                let mut v = vec![0.0f32; 6];
                v[i % 6] = 1.0;
                (i as u64, v)
            })
            .collect();
        let exec = Executor::global();
        let mut reg = IndexRegistry::new();
        for spec in IndexSpec::all_defaults() {
            reg.insert(
                spec.label(),
                build_store_from_vectors(&spec, 6, Metric::Cosine, Precision::F16, exec, &items),
            );
        }
        let bytes = reg.to_bytes();
        let back = IndexRegistry::from_bytes(&bytes).unwrap();
        assert_eq!(back.names(), reg.names());
        let q = {
            let mut v = vec![0.0f32; 6];
            v[2] = 1.0;
            v
        };
        for (name, store) in back.iter() {
            let orig = reg.expect_store(name);
            assert_eq!(store.len(), orig.len(), "{name}");
            assert_eq!(store.search(&q, 4), orig.search(&q, 4), "{name}");
        }
        // Corruption rejected.
        assert!(IndexRegistry::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(IndexRegistry::from_bytes(b"REGY").is_none());
        assert!(IndexRegistry::from_bytes(b"nope").is_none());
        // Empty registry round-trips.
        let empty = IndexRegistry::new();
        assert!(IndexRegistry::from_bytes(&empty.to_bytes()).unwrap().is_empty());
    }

    fn sample_lexical() -> LexicalIndex {
        let mut lex = LexicalIndex::default();
        lex.add(1, "radiation induces apoptosis in tumour cells");
        lex.add(2, "hypoxia causes radioresistance");
        lex.add(3, "hospital billing budget codes");
        lex
    }

    #[test]
    fn lexical_siblings_roundtrip_alongside_stores() {
        let mut reg = IndexRegistry::new();
        let mut chunks = FlatIndex::new(4, Metric::Cosine, Precision::F32);
        chunks.add(1, &[1.0, 0.0, 0.0, 0.0]);
        reg.insert("chunks", Box::new(chunks));
        reg.insert_lexical("lex-chunks", sample_lexical());

        // Dense surface unchanged: names() stays dense-only.
        assert_eq!(reg.names(), vec!["chunks"]);
        assert_eq!(reg.lexical_names(), vec!["lex-chunks"]);
        let hits = reg.expect_lexical("lex-chunks").search("radiation tumour", 2);
        assert_eq!(hits[0].id, 1);
        assert!(reg.lexical("missing").is_none());

        let bytes = reg.to_bytes();
        // Eager decode validates and reproduces the sibling.
        let back = IndexRegistry::from_bytes(&bytes).unwrap();
        assert_eq!(back.lexical_names(), vec!["lex-chunks"]);
        assert_eq!(back.expect_lexical("lex-chunks"), reg.expect_lexical("lex-chunks"));
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");

        // Lazy open defers the sibling decode but searches identically
        // and passes raw bytes through on re-encode.
        let lazy = IndexRegistry::open_bytes(&bytes).unwrap();
        assert_eq!(lazy.lexical_names(), vec!["lex-chunks"]);
        assert_eq!(lazy.to_bytes(), bytes, "undecoded slot round-trips raw");
        assert_eq!(
            lazy.expect_lexical("lex-chunks").search("radiation tumour", 2),
            reg.expect_lexical("lex-chunks").search("radiation tumour", 2),
        );

        // Corrupting the lexical section is caught: eagerly by
        // from_bytes, at the magic check by open_bytes.
        let mut corrupt = bytes.clone();
        let tail = corrupt.len() - 1;
        corrupt[tail] ^= 0xff;
        assert!(IndexRegistry::from_bytes(&corrupt).is_none());
        assert!(IndexRegistry::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    #[should_panic(expected = "lexical index 'lex-chunks' not registered")]
    fn expect_lexical_panics_loudly_on_missing() {
        IndexRegistry::new().expect_lexical("lex-chunks");
    }

    #[test]
    fn open_bytes_lazily_matches_eager_decode() {
        let items: Vec<(u64, Vec<f32>)> = (0..30)
            .map(|i| {
                let mut v = vec![0.0f32; 6];
                v[i % 6] = 1.0;
                (i as u64, v)
            })
            .collect();
        let exec = Executor::global();
        let mut reg = IndexRegistry::new();
        for spec in IndexSpec::all_defaults() {
            reg.insert(
                spec.label(),
                build_store_from_vectors(&spec, 6, Metric::Cosine, Precision::F16, exec, &items),
            );
        }
        let bytes = reg.to_bytes();
        let lazy = IndexRegistry::open_bytes(&bytes).unwrap();
        assert_eq!(lazy.names(), reg.names());
        // Header facts answer before any row decode.
        for (name, store) in lazy.iter() {
            let orig = reg.expect_store(name);
            assert_eq!(store.len(), orig.len(), "{name}");
            assert_eq!(store.dim(), orig.dim(), "{name}");
            assert_eq!(store.metric(), orig.metric(), "{name}");
        }
        // Searches force the decode and stay bit-identical, and the
        // registry re-serialises byte-identically.
        let q = {
            let mut v = vec![0.0f32; 6];
            v[3] = 1.0;
            v
        };
        for (name, store) in lazy.iter() {
            assert_eq!(store.search(&q, 4), reg.expect_store(name).search(&q, 4), "{name}");
        }
        assert_eq!(lazy.to_bytes(), bytes);
        // Corruption in framing or headers is rejected at open.
        assert!(IndexRegistry::open_bytes(&bytes[..10]).is_none());
        assert!(IndexRegistry::open_bytes(b"nope").is_none());
        assert!(IndexRegistry::open_bytes(&IndexRegistry::new().to_bytes()).unwrap().is_empty());
    }
}
