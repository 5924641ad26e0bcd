//! An Okapi BM25 inverted index over the workspace's shared tokenisation.
//!
//! Documents are tokenised with [`content_tokens`] — the same helper the
//! vocabulary and the hash embeddings use, so the corpus side and the
//! query side can never disagree — and interned into a
//! [`Vocabulary`], which carries the term ↔ id tables and document
//! frequencies. Per-term postings record `(doc index, term frequency)`
//! in insertion order, which keeps doc indices strictly increasing per
//! list and makes the serialised form delta-varint friendly.
//!
//! Determinism contract (property-tested in `tests/bm25.rs`):
//! [`LexicalIndex::add_batch`] produces a store bit-identical to serial
//! [`LexicalIndex::add`] calls in item order, and
//! [`LexicalIndex::search_batch`] is bit-identical to per-query
//! [`LexicalIndex::search`], at any worker count. Scoring accumulates
//! per-document sums in sorted term-**string** order, so the
//! floating-point addition order is fixed *and* independent of interning
//! order — a mutated index (whose vocabulary still holds terms the live
//! documents no longer use) scores bit-identically to one rebuilt from
//! scratch over the live documents.
//!
//! Mutation surface (mirroring [`mcqa-index`'s](../index) `VectorStore`):
//! [`LexicalIndex::remove`] tombstones documents by external id — their
//! postings stay resident but are skipped, with `n`, `avgdl`, and each
//! term's `df` corrected to the live view so scores match a live-only
//! rebuild. Tombstones persist — through `Clone` too — until
//! [`LexicalIndex::compact`] (or serialisation, whose `LEXI` wire format
//! is always tombstone-free) rewrites postings without the dead
//! documents; the caller decides when. [`LexicalIndex::rekey`] relabels
//! live documents in place without re-tokenising them.

use std::collections::HashMap;

use mcqa_runtime::{run_stage_batched, Executor};
use mcqa_text::{content_tokens, TermId, Vocabulary};
use mcqa_util::codec::{put_u32, put_varint, unzigzag, zigzag, Reader};
use mcqa_util::{SearchResult, TopK};

/// Okapi BM25 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation (`k1`).
    pub k1: f32,
    /// Length normalisation strength (`b`).
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Self { k1: 1.2, b: 0.75 }
    }
}

/// One posting: a document (by insertion index) and the term's frequency
/// in it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Posting {
    doc: u32,
    tf: u32,
}

/// One indexed document: its external id and content-token length.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DocEntry {
    id: u64,
    len: u32,
}

/// A BM25 inverted index: the lexical sibling of a dense vector store.
///
/// External ids are arbitrary `u64`s supplied at insertion — the same id
/// space the paired dense store uses, so fused result lists refer to the
/// same documents.
#[derive(Debug, Clone, PartialEq)]
pub struct LexicalIndex {
    params: Bm25Params,
    vocab: Vocabulary,
    /// Postings per term, indexed by [`TermId`]; doc indices are strictly
    /// increasing within each list.
    postings: Vec<Vec<Posting>>,
    /// Documents in insertion order.
    docs: Vec<DocEntry>,
    /// Sum of all documents' content-token lengths.
    total_tokens: u64,
    /// Per-document tombstones, parallel to `docs`. Per entry rather than
    /// per id so an upsert (tombstone + re-append the same id) never
    /// masks the new live document. Never serialised.
    dead: Vec<bool>,
    dead_count: usize,
    /// Content-token lengths of tombstoned documents, for `avgdl`
    /// correction.
    dead_tokens: u64,
}

/// The per-item tokenisation product `add_batch` fans out: distinct terms
/// in first-occurrence order with their frequencies, plus the content
/// length.
type TokenCounts = (Vec<(String, u32)>, u32);

fn count_tokens(text: &str) -> TokenCounts {
    let toks = content_tokens(text);
    let len = toks.len() as u32;
    let mut order: Vec<(String, u32)> = Vec::new();
    let mut at: HashMap<String, usize> = HashMap::new();
    for tok in toks {
        match at.get(&tok) {
            Some(&i) => order[i].1 += 1,
            None => {
                at.insert(tok.clone(), order.len());
                order.push((tok, 1));
            }
        }
    }
    (order, len)
}

impl Default for LexicalIndex {
    fn default() -> Self {
        Self::new(Bm25Params::default())
    }
}

impl LexicalIndex {
    /// Serialisation magic tag.
    pub const MAGIC: &'static [u8; 4] = b"LEXI";

    /// An empty index.
    pub fn new(params: Bm25Params) -> Self {
        Self {
            params,
            vocab: Vocabulary::new(),
            postings: Vec::new(),
            docs: Vec::new(),
            total_tokens: 0,
            dead: Vec::new(),
            dead_count: 0,
            dead_tokens: 0,
        }
    }

    /// The BM25 parameters in use.
    pub fn params(&self) -> Bm25Params {
        self.params
    }

    /// Number of live (non-tombstoned) indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len() - self.dead_count
    }

    /// True when no live documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vocabulary size (distinct content terms seen).
    pub fn num_terms(&self) -> usize {
        self.vocab.len()
    }

    /// Index one document under an external id. Stopword-only and empty
    /// documents are recorded (they count toward length statistics) but
    /// post nothing.
    pub fn add(&mut self, id: u64, text: &str) {
        let (counts, len) = count_tokens(text);
        self.merge(id, counts, len);
    }

    /// Fold one document's pre-tokenised counts into the index. The
    /// serial tail of both `add` and `add_batch` — interning happens here,
    /// in document order, so term ids are identical however the
    /// tokenisation was produced.
    fn merge(&mut self, id: u64, counts: Vec<(String, u32)>, len: u32) {
        let doc = u32::try_from(self.docs.len()).expect("doc count fits u32");
        let mut distinct = Vec::with_capacity(counts.len());
        for (term, tf) in counts {
            let tid = self.vocab.intern(&term);
            if tid.0 as usize == self.postings.len() {
                self.postings.push(Vec::new());
            }
            self.postings[tid.0 as usize].push(Posting { doc, tf });
            distinct.push(tid);
        }
        self.vocab.record_document(&distinct);
        self.docs.push(DocEntry { id, len });
        self.dead.push(false);
        self.total_tokens += u64::from(len);
    }

    /// Tombstone the documents stored under `ids`: they stop appearing in
    /// results (and stop counting toward `n`/`avgdl`/`df`) immediately;
    /// postings are only rewritten by [`LexicalIndex::compact`] or
    /// serialisation. Unknown (or already tombstoned) ids are ignored.
    /// Returns the number of documents newly tombstoned.
    pub fn remove(&mut self, ids: &[u64]) -> usize {
        let targets: std::collections::HashSet<u64> = ids.iter().copied().collect();
        let mut removed = 0usize;
        let mut removed_tokens = 0u64;
        for (d, dead) in self.docs.iter().zip(self.dead.iter_mut()) {
            if !*dead && targets.contains(&d.id) {
                *dead = true;
                removed += 1;
                removed_tokens += u64::from(d.len);
            }
        }
        self.dead_count += removed;
        self.dead_tokens += removed_tokens;
        removed
    }

    /// Re-key live documents in place: every live document stored under
    /// an `old` key of `map` is relabelled `map[old]`, all at once.
    /// Postings, lengths and the vocabulary are untouched — no text is
    /// re-tokenised — which is how the incremental pipeline moves a
    /// question whose dense id shifted instead of tombstoning and
    /// re-adding its trace. Tombstoned documents and ids absent from
    /// `map` keep their keys; the caller keeps live ids unique. Scores
    /// never depend on ids and ties break by (score, id), so afterwards
    /// search is bit-identical to a cold build over the re-keyed live
    /// documents. Returns the number of documents re-keyed.
    pub fn rekey(&mut self, map: &HashMap<u64, u64>) -> usize {
        let mut rekeyed = 0;
        for (d, &dead) in self.docs.iter_mut().zip(&self.dead) {
            if let (false, Some(&to)) = (dead, map.get(&d.id)) {
                d.id = to;
                rekeyed += 1;
            }
        }
        rekeyed
    }

    /// Replace-or-insert: tombstone any existing documents under the item
    /// ids, then bulk-insert the new texts. Afterwards search results are
    /// bit-identical to an index rebuilt from scratch over the final live
    /// documents.
    pub fn upsert<S: AsRef<str> + Sync>(&mut self, exec: &Executor, items: &[(u64, S)]) {
        let ids: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
        self.remove(&ids);
        self.add_batch(exec, items);
    }

    /// Number of tombstoned documents still resident in the postings.
    pub fn tombstones(&self) -> usize {
        self.dead_count
    }

    /// Rewrite postings without the tombstoned documents (a no-op when
    /// nothing is tombstoned). Vocabulary term ids are preserved — terms
    /// whose every posting died stay interned with an empty list — which
    /// is invisible to search (accumulation is string-ordered and `df`
    /// counts live postings).
    pub fn compact(&mut self) {
        if self.dead_count > 0 {
            *self = self.live_view();
        }
    }

    /// The tombstone-free rewrite backing [`LexicalIndex::compact`] and
    /// [`LexicalIndex::to_bytes`]: live documents keep their insertion
    /// order (doc indices renumbered densely), postings drop dead entries,
    /// and the vocabulary's document frequencies are rebuilt from the
    /// surviving lists.
    fn live_view(&self) -> Self {
        let mut remap = vec![u32::MAX; self.docs.len()];
        let mut docs = Vec::with_capacity(self.docs.len() - self.dead_count);
        for (i, (d, &dead)) in self.docs.iter().zip(&self.dead).enumerate() {
            if !dead {
                remap[i] = docs.len() as u32;
                docs.push(*d);
            }
        }
        let mut dfs = Vec::with_capacity(self.postings.len());
        let mut postings = Vec::with_capacity(self.postings.len());
        for list in &self.postings {
            let live: Vec<Posting> = list
                .iter()
                .filter(|p| remap[p.doc as usize] != u32::MAX)
                .map(|p| Posting { doc: remap[p.doc as usize], tf: p.tf })
                .collect();
            dfs.push(live.len() as u32);
            postings.push(live);
        }
        let terms: Vec<String> = self.vocab.terms().map(str::to_string).collect();
        let vocab = Vocabulary::from_parts(terms, dfs, docs.len() as u32)
            .expect("live view preserves vocabulary invariants");
        let n_docs = docs.len();
        Self {
            params: self.params,
            vocab,
            postings,
            docs,
            total_tokens: self.total_tokens - self.dead_tokens,
            dead: vec![false; n_docs],
            dead_count: 0,
            dead_tokens: 0,
        }
    }

    /// Bulk insertion: tokenisation and counting fan out on `exec`'s
    /// pool; interning and posting stay serial in `items` order, so the
    /// result is **bit-identical** to sequential [`LexicalIndex::add`]
    /// calls at any worker count.
    pub fn add_batch<S: AsRef<str> + Sync>(&mut self, exec: &Executor, items: &[(u64, S)]) {
        let (counted, _) =
            run_stage_batched(exec, "lex-tokenize", (0..items.len()).collect(), 0, |i| {
                Ok::<_, String>(count_tokens(items[i].1.as_ref()))
            });
        for ((id, _), c) in items.iter().zip(counted) {
            let (counts, len) = c.expect("tokenisation cannot fail");
            self.merge(*id, counts, len);
        }
    }

    /// Top-`k` BM25 hits for `query`, best first, ties broken by
    /// ascending id (the shared [`mcqa_util::cmp_hits`] order). Returns
    /// fewer than `k` hits when fewer documents share a term with the
    /// query — lexical recall is sparse by nature, and the fusion layer
    /// treats a short list as "no lexical evidence" rather than padding
    /// it with zeros.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // Distinct known query terms in sorted term-**string** order: a
        // fixed accumulation order makes scores bit-stable however the
        // query spelled them, and — unlike id order — is independent of
        // interning history, so a tombstoned index scores bit-identically
        // to one rebuilt from scratch over its live documents.
        let mut qterms: Vec<(String, TermId)> = content_tokens(query)
            .into_iter()
            .filter_map(|t| self.vocab.id(&t).map(|id| (t, id)))
            .collect();
        qterms.sort_by(|a, b| a.0.cmp(&b.0));
        qterms.dedup_by(|a, b| a.0 == b.0);
        if qterms.is_empty() {
            return Vec::new();
        }
        let n = self.len() as f64;
        let avgdl = (self.total_tokens - self.dead_tokens) as f64 / n;
        let Bm25Params { k1, b } = self.params;
        let (k1, b) = (f64::from(k1), f64::from(b));
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for (_, tid) in qterms {
            let list = &self.postings[tid.0 as usize];
            let df = if self.dead_count == 0 {
                list.len()
            } else {
                list.iter().filter(|p| !self.dead[p.doc as usize]).count()
            } as f64;
            if df == 0.0 {
                continue; // every posting tombstoned: no live evidence
            }
            // Lucene's non-negative Okapi idf.
            let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
            for p in list {
                if self.dead[p.doc as usize] {
                    continue;
                }
                let tf = f64::from(p.tf);
                let dl = f64::from(self.docs[p.doc as usize].len);
                let norm = k1 * (1.0 - b + b * dl / avgdl);
                *scores.entry(p.doc).or_insert(0.0) += idf * (tf * (k1 + 1.0)) / (tf + norm);
            }
        }
        // TopK's total order makes the outcome independent of the
        // HashMap's iteration order.
        let mut topk = TopK::new(k);
        for (&doc, &score) in &scores {
            topk.push(SearchResult { id: self.docs[doc as usize].id, score: score as f32 });
        }
        topk.into_sorted()
    }

    /// Batch search fanned out on `exec`'s pool; results are
    /// index-aligned with `queries` and bit-identical to per-query
    /// [`LexicalIndex::search`].
    pub fn search_batch<S: AsRef<str> + Sync>(
        &self,
        exec: &Executor,
        queries: &[S],
        k: usize,
    ) -> Vec<Vec<SearchResult>> {
        let (results, _) =
            run_stage_batched(exec, "lex-search", (0..queries.len()).collect(), 0, |i| {
                Ok::<_, String>(self.search(queries[i].as_ref(), k))
            });
        results.into_iter().map(|r| r.expect("search cannot fail")).collect()
    }

    /// Resident payload bytes: postings, the documents table, and the
    /// vocabulary's term strings + frequency table. The capacity number
    /// `mem_bytes=` columns report for the lexical channel.
    pub fn payload_bytes(&self) -> usize {
        let postings: usize = self.postings.iter().map(|l| l.len() * 8).sum();
        let docs = self.docs.len() * 12;
        let terms: usize = self.vocab.terms().map(|t| t.len()).sum();
        postings + docs + terms + 4 * self.vocab.len()
    }

    /// Serialise under the `LEXI` magic tag. External doc ids are
    /// delta-zigzag-varint coded in insertion order; each term's posting
    /// list delta-varint codes its (strictly increasing) doc indices.
    pub fn to_bytes(&self) -> Vec<u8> {
        if self.dead_count > 0 {
            return self.live_view().to_bytes();
        }
        let mut out = Vec::new();
        out.extend_from_slice(Self::MAGIC);
        out.extend_from_slice(&self.params.k1.to_le_bytes());
        out.extend_from_slice(&self.params.b.to_le_bytes());
        put_u32(&mut out, self.docs.len());
        let mut prev_id = 0i64;
        for d in &self.docs {
            put_varint(&mut out, zigzag((d.id as i64).wrapping_sub(prev_id)));
            put_varint(&mut out, u64::from(d.len));
            prev_id = d.id as i64;
        }
        put_u32(&mut out, self.vocab.len());
        for (term, list) in self.vocab.terms().zip(&self.postings) {
            put_varint(&mut out, term.len() as u64);
            out.extend_from_slice(term.as_bytes());
            put_varint(&mut out, list.len() as u64);
            let mut prev_doc = 0u64;
            for p in list {
                put_varint(&mut out, u64::from(p.doc) - prev_doc);
                put_varint(&mut out, u64::from(p.tf));
                prev_doc = u64::from(p.doc);
            }
        }
        out
    }

    /// Decode a [`LexicalIndex::to_bytes`] artifact. `None` on any
    /// truncation, magic mismatch, or internal inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let idx = Self::decode(&mut r)?;
        r.exhausted().then_some(idx)
    }

    /// Decode one index off a cursor (shared by [`Self::from_bytes`] and
    /// embedded contexts like the registry's lexical section, which
    /// frame the payload themselves).
    pub(crate) fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.expect_magic(Self::MAGIC)?;
        let k1 = f32::from_le_bytes(r.take(4)?.try_into().ok()?);
        let b = f32::from_le_bytes(r.take(4)?.try_into().ok()?);
        if !(k1.is_finite() && b.is_finite()) {
            return None;
        }
        let ndocs = r.count(2)?; // ≥ 2 bytes per doc entry
        let mut docs = Vec::with_capacity(ndocs);
        let mut total_tokens = 0u64;
        let mut prev_id = 0i64;
        for _ in 0..ndocs {
            let id = prev_id.wrapping_add(unzigzag(r.varint()?));
            let len = u32::try_from(r.varint()?).ok()?;
            docs.push(DocEntry { id: id as u64, len });
            total_tokens = total_tokens.checked_add(u64::from(len))?;
            prev_id = id;
        }
        let nterms = r.count(2)?; // ≥ 2 bytes per term entry
        let mut terms = Vec::with_capacity(nterms);
        let mut dfs = Vec::with_capacity(nterms);
        let mut postings = Vec::with_capacity(nterms);
        for _ in 0..nterms {
            let tlen = usize::try_from(r.varint()?).ok()?;
            let term = std::str::from_utf8(r.take(tlen)?).ok()?;
            terms.push(term.to_string());
            let n = usize::try_from(r.varint()?).ok()?;
            if n > ndocs {
                return None; // a term cannot appear in more docs than exist
            }
            let mut list = Vec::with_capacity(n);
            let mut doc = 0u64;
            for i in 0..n {
                let delta = r.varint()?;
                if i > 0 && delta == 0 {
                    return None; // doc indices strictly increase
                }
                doc = doc.checked_add(delta)?;
                if doc as usize >= ndocs {
                    return None;
                }
                let tf = u32::try_from(r.varint()?).ok()?;
                list.push(Posting { doc: doc as u32, tf });
            }
            dfs.push(list.len() as u32);
            postings.push(list);
        }
        let vocab = Vocabulary::from_parts(terms, dfs, u32::try_from(ndocs).ok()?)?;
        Some(Self {
            params: Bm25Params { k1, b },
            vocab,
            postings,
            docs,
            total_tokens,
            dead: vec![false; ndocs],
            dead_count: 0,
            dead_tokens: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<(u64, &'static str)> {
        vec![
            (10, "Radiation induces apoptosis in tumour cells."),
            (11, "Radiation damages DNA. Repair pathways respond to radiation."),
            (12, "Hypoxia causes radioresistance in tumour cores."),
            (13, "Hospital billing codes changed in fiscal budgets."),
            (14, "the of and"), // stopword-only: counted, posts nothing
            (15, ""),
        ]
    }

    fn build() -> LexicalIndex {
        let mut idx = LexicalIndex::default();
        for (id, text) in corpus() {
            idx.add(id, text);
        }
        idx
    }

    #[test]
    fn bm25_ranks_keyword_matches_first() {
        let idx = build();
        let hits = idx.search("radiation repair", 3);
        assert_eq!(hits[0].id, 11, "two matching terms beat one: {hits:?}");
        assert_eq!(hits[1].id, 10);
        assert!(hits.iter().all(|h| h.id != 13), "unrelated doc never surfaces");
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        let idx = build();
        let hits = idx.search("hypoxia radiation", 4);
        // "hypoxia" (df 1) out-scores "radiation" (df 2, higher tf).
        assert_eq!(hits[0].id, 12, "{hits:?}");
    }

    #[test]
    fn degenerate_queries_are_total() {
        let idx = build();
        assert!(idx.search("", 5).is_empty());
        assert!(idx.search("the of and", 5).is_empty(), "all-stopword query");
        assert!(idx.search("zzzunknown", 5).is_empty());
        assert!(idx.search("radiation", 0).is_empty(), "k = 0");
        let all = idx.search("radiation tumour hypoxia billing", 100);
        assert!(all.len() <= idx.len(), "k > len returns at most the matches");
        assert!(LexicalIndex::default().search("radiation", 5).is_empty(), "empty index");
    }

    #[test]
    fn batch_build_and_search_match_serial() {
        let exec = Executor::global();
        let serial = build();
        let mut batched = LexicalIndex::default();
        batched.add_batch(exec, &corpus());
        assert_eq!(serial, batched, "add_batch ≡ serial add");
        let queries = ["radiation repair", "", "tumour cores", "billing"];
        let batch = batched.search_batch(exec, &queries, 4);
        for (q, hits) in queries.iter().zip(&batch) {
            assert_eq!(hits, &serial.search(q, 4), "query {q:?}");
        }
    }

    #[test]
    fn codec_roundtrip_is_bit_identical() {
        let idx = build();
        let bytes = idx.to_bytes();
        let back = LexicalIndex::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, idx);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
        // Truncation at every prefix length is rejected, never panics.
        for cut in 0..bytes.len() {
            assert!(LexicalIndex::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage rejected.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(LexicalIndex::from_bytes(&longer).is_none());
        // Wrong magic rejected.
        let mut wrong = idx.to_bytes();
        wrong[0] = b'X';
        assert!(LexicalIndex::from_bytes(&wrong).is_none());
    }

    #[test]
    fn remove_upsert_compact_match_rebuild_from_scratch() {
        let exec = Executor::global();
        let mut idx = build();

        assert_eq!(idx.remove(&[11, 14, 999]), 2);
        assert_eq!(idx.remove(&[11]), 0, "re-removal is a no-op");
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.tombstones(), 2);
        assert!(idx.search("repair", 5).is_empty(), "df of a fully dead term is live-corrected");

        // Upsert replaces doc 12 and re-introduces id 11 with new text:
        // per-entry tombstones must surface the new entries.
        idx.upsert(
            exec,
            &[(12, "Proton arcs spare healthy tissue."), (11, "Dose painting boosts tumours.")],
        );
        assert_eq!(idx.len(), 5, "12 replaced in place, 11 re-added");

        // From-scratch rebuild over the final live docs: interning order
        // differs (e.g. "radiation" is no longer term 0), yet every score
        // must match bit-for-bit thanks to string-ordered accumulation
        // and live-corrected n/avgdl/df.
        let mut rebuilt = LexicalIndex::default();
        rebuilt.add(10, "Radiation induces apoptosis in tumour cells.");
        rebuilt.add(13, "Hospital billing codes changed in fiscal budgets.");
        rebuilt.add(15, "");
        rebuilt.add(12, "Proton arcs spare healthy tissue.");
        rebuilt.add(11, "Dose painting boosts tumours.");
        for q in ["radiation tumour", "proton dose", "billing", "repair pathways", ""] {
            assert_eq!(idx.search(q, 6), rebuilt.search(q, 6), "query {q:?}");
        }

        // Serialisation writes the live view; compaction is the same
        // rewrite in place, and neither changes a single search bit.
        let wire = idx.to_bytes();
        idx.compact();
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.to_bytes(), wire);
        for q in ["radiation tumour", "proton dose", "billing"] {
            assert_eq!(idx.search(q, 6), rebuilt.search(q, 6), "post-compaction query {q:?}");
        }
        // The decoded live view keeps matching too.
        let back = LexicalIndex::from_bytes(&wire).expect("decodes");
        assert_eq!(back.search("radiation tumour", 6), rebuilt.search("radiation tumour", 6));

        // Degenerate: removing everything empties the index (the
        // vocabulary survives with zero-df terms, invisible to search).
        let mut all_gone = build();
        let ids: Vec<u64> = corpus().iter().map(|(id, _)| *id).collect();
        assert_eq!(all_gone.remove(&ids), 6);
        assert!(all_gone.is_empty());
        assert!(all_gone.search("radiation", 5).is_empty());
        all_gone.compact();
        assert_eq!(all_gone.len(), 0);
        let back = LexicalIndex::from_bytes(&all_gone.to_bytes()).expect("decodes");
        assert!(back.is_empty());
        assert!(back.search("radiation", 5).is_empty());
    }

    #[test]
    fn payload_bytes_counts_resident_structures() {
        let idx = build();
        assert!(idx.payload_bytes() > 0);
        assert!(idx.payload_bytes() >= idx.num_terms() * 4);
        assert_eq!(LexicalIndex::default().payload_bytes(), 0);
    }

    #[test]
    fn stats_track_documents() {
        let idx = build();
        assert_eq!(idx.len(), 6);
        assert!(idx.num_terms() > 0);
        assert!(!idx.is_empty());
    }
}
