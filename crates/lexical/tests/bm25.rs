//! Property tests for the lexical channel's determinism contract:
//!
//! * **Batch ≡ serial** — `add_batch` and `search_batch` are bit-identical
//!   to their sequential counterparts at 1 and 4 workers.
//! * **Codec fidelity** — a `LEXI` round trip reproduces the index
//!   structurally *and* behaviourally: every search on the decoded index
//!   is bit-identical, and re-encoding is byte-identical.
//! * **RRF permutation invariance** — fusing the same ranked lists in any
//!   order yields bitwise-identical output (the canonical-order summation
//!   the fusion module promises).
//! * **Degenerate totality** — empty queries, all-stopword queries,
//!   `k = 0`, `k > len`, and empty indexes all return cleanly, and top-k
//!   lists are prefixes of deeper searches.
//! * **Rekey and clone** — re-keying live documents searches
//!   bit-identically to a cold build over the re-keyed live set, and a
//!   clone mutates without touching its original.

use std::collections::{BTreeMap, HashMap};

use mcqa_lexical::fusion::rrf;
use mcqa_lexical::LexicalIndex;
use mcqa_runtime::Executor;
use mcqa_util::SearchResult;
use proptest::prelude::*;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Content words plus genuine stopwords ("the", "of", "and", "during"),
/// so generated documents exercise the stopword filter and repeated-term
/// frequencies, not just distinct-term postings.
const WORDS: [&str; 16] = [
    "radiation",
    "dose",
    "fractionation",
    "apoptosis",
    "hypoxia",
    "tumour",
    "repair",
    "pathway",
    "proton",
    "dosimetry",
    "plasma",
    "telescope",
    "the",
    "of",
    "and",
    "during",
];

/// A deterministic pseudo-document: 0-11 pool words drawn by seed (length
/// 0 covers the empty-document case inside corpora).
fn doc(seed: u64) -> String {
    let n = (splitmix(seed) % 12) as usize;
    (0..n)
        .map(|j| WORDS[(splitmix(seed ^ (j as u64 + 1).wrapping_mul(0x9e39)) % 16) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

/// `n` documents under deliberately non-contiguous external ids (the
/// delta-zigzag id codec must not depend on dense id spaces).
fn corpus(n: usize, seed: u64) -> Vec<(u64, String)> {
    (0..n).map(|i| (i as u64 * 7 + 3, doc(seed ^ ((i as u64 + 1) * 0x5bd1)))).collect()
}

fn build(docs: &[(u64, String)]) -> LexicalIndex {
    let mut idx = LexicalIndex::default();
    for (id, text) in docs {
        idx.add(*id, text);
    }
    idx
}

proptest! {
    /// `add_batch` produces the same index as serial `add`, and
    /// `search_batch` the same hits as per-query `search`, at 1 and 4
    /// workers — bit-identical, scores included.
    #[test]
    fn batch_build_and_search_match_serial_at_any_worker_count(
        n in 1usize..24,
        seed in 0u64..1000,
        k in 0usize..12,
        workers_pick in 0usize..2,
    ) {
        let workers = [1usize, 4][workers_pick];
        let exec = Executor::new(workers);
        let docs = corpus(n, seed);
        let serial = build(&docs);
        let mut batched = LexicalIndex::default();
        batched.add_batch(&exec, &docs);
        prop_assert_eq!(&batched, &serial, "add_batch diverged at {} workers", workers);

        let queries: Vec<String> =
            (0..6).map(|i| doc(seed ^ 0xbeef ^ (i as u64 * 0x7f4a))).collect();
        let batch = batched.search_batch(&exec, &queries, k);
        prop_assert_eq!(batch.len(), queries.len());
        for (q, hits) in queries.iter().zip(&batch) {
            prop_assert_eq!(hits, &serial.search(q, k), "query {:?} at {} workers", q, workers);
        }
    }

    /// A serialise → decode round trip reproduces the index exactly: the
    /// decoded index searches bit-identically and re-encodes to the same
    /// bytes.
    #[test]
    fn codec_roundtrip_searches_bit_identically(
        n in 1usize..24,
        seed in 0u64..1000,
        k in 1usize..8,
    ) {
        let idx = build(&corpus(n, seed));
        let bytes = idx.to_bytes();
        let back = LexicalIndex::from_bytes(&bytes).expect("round trip decodes");
        prop_assert_eq!(&back, &idx);
        prop_assert_eq!(back.to_bytes(), bytes, "re-encode must be byte-identical");
        for i in 0..6u64 {
            let q = doc(seed ^ 0xdead ^ (i * 0x1331));
            prop_assert_eq!(back.search(&q, k), idx.search(&q, k), "query {:?}", q);
        }
    }

    /// RRF output is bitwise invariant under permutation of its input
    /// lists, for real BM25 result lists at any damping constant.
    #[test]
    fn rrf_is_invariant_under_list_permutation(
        n in 2usize..24,
        seed in 0u64..1000,
        k0 in 1u32..120,
        k in 1usize..10,
    ) {
        let idx = build(&corpus(n, seed));
        let lists: Vec<Vec<SearchResult>> = (0..3u64)
            .map(|i| idx.search(&doc(seed ^ 0xfeed ^ (i * 0x49bb)), n))
            .collect();
        let as_slices = |order: [usize; 3]| -> Vec<&[SearchResult]> {
            order.iter().map(|&i| lists[i].as_slice()).collect()
        };
        let base = rrf(&as_slices([0, 1, 2]), k0, k);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            prop_assert_eq!(rrf(&as_slices(order), k0, k), base.clone(), "order {:?}", order);
        }
    }

    /// Degenerate inputs are total, and top-k lists are prefixes of
    /// deeper searches (the total order makes truncation consistent).
    #[test]
    fn degenerate_queries_are_total(n in 0usize..16, seed in 0u64..1000, k in 1usize..6) {
        let idx = build(&corpus(n, seed));
        prop_assert_eq!(idx.len(), n);
        prop_assert!(idx.search("", 5).is_empty(), "empty query");
        prop_assert!(idx.search("the of and during", 5).is_empty(), "all-stopword query");
        prop_assert!(idx.search("zzz9unknown", 5).is_empty(), "unknown term");
        prop_assert!(idx.search("radiation dose", 0).is_empty(), "k = 0");

        let q = doc(seed ^ 0xabcd);
        let deep = idx.search(&q, n + 100);
        prop_assert!(deep.len() <= n, "k > len returns at most the matching docs");
        let top = idx.search(&q, k);
        prop_assert_eq!(&top[..], &deep[..k.min(deep.len())], "top-k is a prefix of top-all");
    }

    /// `rekey` relabels live documents without re-tokenising them: after
    /// tombstoning some documents and re-keying others (a permutation
    /// among themselves plus moves to fresh ids), search is bit-identical
    /// to a cold build over the final live set. The re-keyed index is a
    /// clone, so its original must still answer as before, bytes and all.
    #[test]
    fn rekey_matches_cold_build_and_leaves_the_clone_source_alone(
        n in 2usize..24,
        seed in 0u64..1000,
        k in 1usize..10,
    ) {
        let docs = corpus(n, seed);
        let mut original = build(&docs);
        let mut live: BTreeMap<u64, String> = docs.iter().cloned().collect();
        let dead: Vec<u64> =
            docs.iter().map(|(id, _)| *id).filter(|id| splitmix(seed ^ id).is_multiple_of(4)).collect();
        original.remove(&dead);
        for id in &dead {
            live.remove(id);
        }
        let bytes = original.to_bytes();
        let queries: Vec<String> = (0..6u64).map(|i| doc(seed ^ 0x5eed ^ (i * 0x2545))).collect();
        let before: Vec<_> = queries.iter().map(|q| original.search(q, k)).collect();

        // Odd-ranked live ids rotate among themselves; every fourth moves
        // to a fresh id past the corpus.
        let picked: Vec<u64> = live.keys().copied().skip(1).step_by(2).collect();
        let mut map: HashMap<u64, u64> = HashMap::new();
        for (i, id) in picked.iter().enumerate() {
            let to = if i % 4 == 3 { 10_000 + id } else { picked[(i + 1) % picked.len()] };
            map.insert(*id, to);
        }
        let mut rekeyed = original.clone();
        prop_assert_eq!(rekeyed.rekey(&map), map.len());
        let moved: Vec<(u64, String)> =
            map.iter().map(|(old, new)| (*new, live[old].clone())).collect();
        for old in map.keys() {
            live.remove(old);
        }
        live.extend(moved);
        let cold = build(&live.into_iter().collect::<Vec<_>>());
        for q in &queries {
            prop_assert_eq!(rekeyed.search(q, k), cold.search(q, k), "query {:?}", q);
        }
        rekeyed.compact();
        prop_assert_eq!(rekeyed.search(&queries[0], k), cold.search(&queries[0], k));

        prop_assert_eq!(original.to_bytes(), bytes, "the clone source is untouched");
        for (q, hits) in queries.iter().zip(&before) {
            prop_assert_eq!(&original.search(q, k), hits, "query {:?}", q);
        }
    }
}
