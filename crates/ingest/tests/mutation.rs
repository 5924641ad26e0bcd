//! Property tests for the mutation surface the incremental planner
//! drives: random edit sequences (upsert / remove / compact / rekey) over
//! every mutable index family must leave search results identical to an
//! index holding only the final live set, and a structural clone
//! (`clone_box`, `LexicalIndex::clone`) must be independent of its
//! original.
//!
//! The reference differs per family, matching the determinism contract:
//!
//! * **flat** and **lexical** — a cold rebuild from scratch over the live
//!   set (per-row scores are insertion-order independent, BM25 statistics
//!   are live-corrected), bit for bit;
//! * **ivf** / **pq** — a decode of the store's own serialised live view
//!   (`to_bytes` drops tombstones), i.e. a rebuild reusing the same
//!   trained coarse structure. A from-scratch rebuild would retrain
//!   k-means on the edited collection and legitimately rank differently.

use std::collections::{BTreeMap, HashMap};

use mcqa_embed::Precision;
use mcqa_index::{
    build_store_from_vectors, decode_store, IndexSpec, LazyStore, Metric, VectorStore,
};
use mcqa_ingest::{ContentHash, IngestManifest};
use mcqa_lexical::{Bm25Params, LexicalIndex};
use mcqa_runtime::Executor;
use mcqa_util::KeyedStochastic;
use proptest::prelude::*;

const DIM: usize = 8;

/// A deterministic unit-free vector keyed by (tag, id).
fn vector(rng: &KeyedStochastic, tag: &str, id: u64) -> Vec<f32> {
    (0..DIM)
        .map(|d| {
            let u = rng.uniform(&["vec", tag, &id.to_string(), &d.to_string()]);
            (u * 2.0 - 1.0) as f32
        })
        .collect()
}

/// A deterministic pseudo-document keyed by (tag, id): a handful of words
/// from a tiny vocabulary, so postings overlap across documents.
fn text(rng: &KeyedStochastic, tag: &str, id: u64) -> String {
    const WORDS: [&str; 12] = [
        "proton",
        "dose",
        "tumour",
        "margin",
        "gene",
        "pathway",
        "kinase",
        "imaging",
        "therapy",
        "expression",
        "receptor",
        "trial",
    ];
    let n = 3 + rng.below(6, &["len", tag, &id.to_string()]);
    (0..n)
        .map(|w| WORDS[rng.below(WORDS.len(), &["w", tag, &id.to_string(), &w.to_string()])])
        .collect::<Vec<_>>()
        .join(" ")
}

/// The shared edit-sequence shape: at step `s`, op 0 = upsert a small
/// batch (half fresh ids, half overwrites), op 1 = remove a prefix of the
/// live set (possibly all of it), op 2 = compact, op 3 = rekey (see
/// [`rekey_map`]).
fn op_at(rng: &KeyedStochastic, s: usize) -> usize {
    rng.below(4, &["op", &s.to_string()])
}

/// A random re-keying of the live ids `live`, as the incremental planner
/// produces it: a random subset is permuted among itself, and some of its
/// members move to fresh ids past `next_id` (which advances). Live ids stay
/// unique afterwards. Returns the old → new map.
fn rekey_map(
    rng: &KeyedStochastic,
    st: &str,
    live: &[u64],
    next_id: &mut u64,
) -> HashMap<u64, u64> {
    let picked: Vec<u64> = live
        .iter()
        .copied()
        .filter(|id| rng.bernoulli(0.5, &["rk", st, &id.to_string()]))
        .collect();
    let mut targets = picked.clone();
    targets.sort_by_key(|id| rng.raw(&["rk-to", st, &id.to_string()]));
    for t in &mut targets {
        if rng.bernoulli(0.3, &["rk-fresh", st, &t.to_string()]) {
            *next_id += 1;
            *t = *next_id;
        }
    }
    picked.into_iter().zip(targets).collect()
}

/// Apply `map` to a live-set model, all keys at once.
fn rekey_model<V>(live: &mut BTreeMap<u64, V>, map: &HashMap<u64, u64>) {
    let moved: Vec<(u64, V)> = map
        .iter()
        .map(|(old, new)| (*new, live.remove(old).expect("rekeyed id is live")))
        .collect();
    live.extend(moved);
}

proptest! {
    /// Dense stores: after any edit sequence, the mutated store's search
    /// equals a decode of its own serialised live view — and on flat, a
    /// genuine from-scratch rebuild over the live set, bit for bit, with
    /// the serialised live view byte-identical to a cold build over the
    /// live rows in storage order.
    #[test]
    fn dense_mutation_matches_rebuild(
        seed in 0u64..24,
        spec_pick in 0usize..3,
        workers_pick in 0usize..2,
        precision_pick in 0usize..2,
    ) {
        let spec = match spec_pick {
            0 => IndexSpec::Flat,
            1 => IndexSpec::Ivf(Default::default()),
            _ => IndexSpec::Pq(Default::default()),
        };
        let precision = [Precision::F32, Precision::F16][precision_pick];
        let exec = Executor::new([1, 4][workers_pick]);
        let rng = KeyedStochastic::new(seed ^ 0x317A_B00C);

        let n0 = 8 + rng.below(24, &["n0"]) as u64;
        let mut live: BTreeMap<u64, Vec<f32>> =
            (0..n0).map(|id| (id, vector(&rng, "init", id))).collect();
        let items: Vec<(u64, Vec<f32>)> = live.iter().map(|(k, v)| (*k, v.clone())).collect();
        let mut store =
            build_store_from_vectors(&spec, DIM, Metric::Cosine, precision, &exec, &items);
        // Flat's storage-order model: (id, vector, tombstoned) per row.
        let mut rows: Vec<(u64, Vec<f32>, bool)> =
            items.iter().map(|(id, v)| (*id, v.clone(), false)).collect();

        let steps = 1 + rng.below(12, &["steps"]);
        let mut next_id = n0;
        for s in 0..steps {
            let st = s.to_string();
            match op_at(&rng, s) {
                0 => {
                    let m = 1 + rng.below(4, &["m", &st]);
                    let mut batch: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
                    for j in 0..m {
                        let jt = format!("{s}.{j}");
                        let id = if live.is_empty() || rng.bernoulli(0.5, &["new", &jt]) {
                            next_id += 1;
                            next_id
                        } else {
                            *live.keys().nth(rng.below(live.len(), &["pick", &jt])).expect("live")
                        };
                        batch.insert(id, vector(&rng, &jt, id));
                    }
                    let batch: Vec<(u64, Vec<f32>)> = batch.into_iter().collect();
                    for row in rows.iter_mut().filter(|r| batch.iter().any(|(id, _)| *id == r.0)) {
                        row.2 = true;
                    }
                    rows.extend(batch.iter().map(|(id, v)| (*id, v.clone(), false)));
                    live.extend(batch.iter().cloned());
                    store.upsert(&exec, &batch);
                }
                1 => {
                    let m = rng.below(live.len() + 1, &["rm", &st]);
                    let ids: Vec<u64> = live.keys().copied().take(m).collect();
                    for id in &ids {
                        live.remove(id);
                    }
                    for row in rows.iter_mut().filter(|r| ids.contains(&r.0)) {
                        row.2 = true;
                    }
                    prop_assert_eq!(store.remove(&ids), ids.len());
                }
                2 => {
                    rows.retain(|r| !r.2);
                    store.compact(&exec);
                    prop_assert_eq!(store.tombstones(), 0);
                }
                _ => {
                    let ids: Vec<u64> = live.keys().copied().collect();
                    let map = rekey_map(&rng, &st, &ids, &mut next_id);
                    rekey_model(&mut live, &map);
                    for row in rows.iter_mut().filter(|r| !r.2) {
                        row.0 = map.get(&row.0).copied().unwrap_or(row.0);
                    }
                    let tombstones = store.tombstones();
                    prop_assert_eq!(store.rekey(&map), map.len());
                    prop_assert_eq!(store.tombstones(), tombstones, "rekey never tombstones");
                }
            }
        }

        prop_assert_eq!(store.len(), live.len());
        let roundtrip = decode_store(&store.to_bytes()).expect("live view decodes");
        prop_assert_eq!(roundtrip.len(), live.len());
        prop_assert_eq!(roundtrip.tombstones(), 0, "serialised view carries no tombstones");

        let queries: Vec<Vec<f32>> = (0..5).map(|q| vector(&rng, "query", q)).collect();
        for q in &queries {
            prop_assert_eq!(store.search(q, 10), roundtrip.search(q, 10));
        }
        if matches!(spec, IndexSpec::Flat) {
            let items: Vec<(u64, Vec<f32>)> = live.iter().map(|(k, v)| (*k, v.clone())).collect();
            let cold = build_store_from_vectors(&spec, DIM, Metric::Cosine, precision, &exec, &items);
            for q in &queries {
                prop_assert_eq!(store.search(q, 10), cold.search(q, 10));
            }
            let in_order: Vec<(u64, Vec<f32>)> =
                rows.iter().filter(|r| !r.2).map(|r| (r.0, r.1.clone())).collect();
            let cold =
                build_store_from_vectors(&spec, DIM, Metric::Cosine, precision, &exec, &in_order);
            prop_assert_eq!(store.to_bytes(), cold.to_bytes(), "live view = cold build");
            store.compact(&exec);
            prop_assert_eq!(store.to_bytes(), cold.to_bytes(), "compaction = cold build");
        }
    }

    /// The lexical index: any edit sequence is bit-identical to a cold
    /// BM25 rebuild over the final live set — document frequencies,
    /// lengths, and the corpus average all correct themselves as
    /// tombstones accrue, and re-keyed documents rank under their new ids.
    #[test]
    fn lexical_mutation_matches_rebuild(seed in 0u64..32, workers_pick in 0usize..2) {
        let exec = Executor::new([1, 4][workers_pick]);
        let rng = KeyedStochastic::new(seed ^ 0x1E_C1A1);

        let n0 = 8 + rng.below(24, &["n0"]) as u64;
        let mut live: BTreeMap<u64, String> =
            (0..n0).map(|id| (id, text(&rng, "init", id))).collect();
        let mut index = LexicalIndex::new(Bm25Params::default());
        let items: Vec<(u64, String)> = live.iter().map(|(k, v)| (*k, v.clone())).collect();
        index.add_batch(&exec, &items);

        let steps = 1 + rng.below(12, &["steps"]);
        let mut next_id = n0;
        for s in 0..steps {
            let st = s.to_string();
            match op_at(&rng, s) {
                0 => {
                    let m = 1 + rng.below(4, &["m", &st]);
                    let mut batch: BTreeMap<u64, String> = BTreeMap::new();
                    for j in 0..m {
                        let jt = format!("{s}.{j}");
                        let id = if live.is_empty() || rng.bernoulli(0.5, &["new", &jt]) {
                            next_id += 1;
                            next_id
                        } else {
                            *live.keys().nth(rng.below(live.len(), &["pick", &jt])).expect("live")
                        };
                        batch.insert(id, text(&rng, &jt, id));
                    }
                    let batch: Vec<(u64, String)> = batch.into_iter().collect();
                    live.extend(batch.iter().cloned());
                    index.upsert(&exec, &batch);
                }
                1 => {
                    let m = rng.below(live.len() + 1, &["rm", &st]);
                    let ids: Vec<u64> = live.keys().copied().take(m).collect();
                    for id in &ids {
                        live.remove(id);
                    }
                    prop_assert_eq!(index.remove(&ids), ids.len());
                }
                2 => index.compact(),
                _ => {
                    let ids: Vec<u64> = live.keys().copied().collect();
                    let map = rekey_map(&rng, &st, &ids, &mut next_id);
                    rekey_model(&mut live, &map);
                    prop_assert_eq!(index.rekey(&map), map.len());
                }
            }
        }

        prop_assert_eq!(index.len(), live.len());
        let mut cold = LexicalIndex::new(Bm25Params::default());
        let items: Vec<(u64, String)> = live.iter().map(|(k, v)| (*k, v.clone())).collect();
        cold.add_batch(&exec, &items);
        for probe in ["proton dose", "gene pathway kinase", "tumour margin imaging", "trial"] {
            prop_assert_eq!(index.search(probe, 10), cold.search(probe, 10), "probe {}", probe);
        }
    }

    /// The manifest codec: a decode → re-encode cycle is byte-identical
    /// (canonical layout), and the decoded manifest compares equal.
    #[test]
    fn manifest_roundtrip_is_byte_identical(seed in 0u64..64) {
        let rng = KeyedStochastic::new(seed ^ 0x3A_11F3);
        let mut manifest = IngestManifest::new();
        let sources = 1 + rng.below(3, &["sources"]);
        for s in 0..sources {
            let name = format!("source-{s}");
            let n = rng.below(40, &["n", &name]);
            let items: BTreeMap<u64, ContentHash> = (0..n)
                .map(|i| {
                    let id = rng.raw(&["id", &name, &i.to_string()]) % 10_000;
                    let body = rng.raw(&["content", &name, &id.to_string()]);
                    (id, ContentHash::of_bytes(&body.to_le_bytes()))
                })
                .collect();
            manifest.set_source(&name, items.into_iter().collect());
        }
        let bytes = manifest.to_bytes();
        let back = IngestManifest::from_bytes(&bytes).expect("manifest decodes");
        prop_assert_eq!(&back, &manifest);
        prop_assert_eq!(back.to_bytes(), bytes, "re-encode must be byte-identical");
    }
}

/// Removing every document leaves an empty, searchable store — and
/// compacting the all-tombstone store stays empty and searchable.
#[test]
fn remove_all_is_a_valid_state() {
    let exec = Executor::new(2);
    let rng = KeyedStochastic::new(77);
    let items: Vec<(u64, Vec<f32>)> = (0..16).map(|id| (id, vector(&rng, "ra", id))).collect();
    let ids: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
    let q = vector(&rng, "q", 0);

    for spec in
        [IndexSpec::Flat, IndexSpec::Ivf(Default::default()), IndexSpec::Pq(Default::default())]
    {
        let mut store =
            build_store_from_vectors(&spec, DIM, Metric::Cosine, Precision::F32, &exec, &items);
        assert_eq!(store.remove(&ids), ids.len(), "{}", spec.label());
        assert_eq!(store.len(), 0);
        assert!(store.search(&q, 5).is_empty(), "{}", spec.label());
        store.compact(&exec);
        assert_eq!(store.len(), 0);
        assert_eq!(store.tombstones(), 0, "compaction drops every tombstone");
        assert!(store.search(&q, 5).is_empty());
    }

    let mut lex = LexicalIndex::new(Bm25Params::default());
    let docs: Vec<(u64, String)> = (0..16u64).map(|id| (id, text(&rng, "ra", id))).collect();
    lex.add_batch(&exec, &docs);
    assert_eq!(lex.remove(&ids), ids.len());
    assert_eq!(lex.len(), 0);
    assert!(lex.search("proton dose", 5).is_empty());
    lex.compact();
    assert_eq!(lex.len(), 0);
    assert!(lex.search("proton dose", 5).is_empty());
}

/// Upserting identical content over the same ids must not change what
/// search returns (the planner's no-op path never reaches the index, but
/// the index itself must also tolerate the identity edit).
#[test]
fn upsert_same_content_preserves_search() {
    let exec = Executor::new(2);
    let rng = KeyedStochastic::new(99);
    let items: Vec<(u64, Vec<f32>)> = (0..20).map(|id| (id, vector(&rng, "same", id))).collect();
    let q = vector(&rng, "q", 1);

    let mut store = build_store_from_vectors(
        &IndexSpec::Flat,
        DIM,
        Metric::Cosine,
        Precision::F32,
        &exec,
        &items,
    );
    let before = store.search(&q, 10);
    store.upsert(&exec, &items[3..9]);
    assert_eq!(store.search(&q, 10), before);
    store.compact(&exec);
    assert_eq!(store.search(&q, 10), before);

    let mut lex = LexicalIndex::new(Bm25Params::default());
    let docs: Vec<(u64, String)> = (0..20u64).map(|id| (id, text(&rng, "same", id))).collect();
    lex.add_batch(&exec, &docs);
    let before = lex.search("gene pathway", 10);
    lex.upsert(&exec, &docs[5..12]);
    assert_eq!(lex.search("gene pathway", 10), before);
    lex.compact();
    assert_eq!(lex.search("gene pathway", 10), before);
}

/// A structural clone is a deep copy: it carries the original's
/// tombstones and searches identically, and mutating it (remove, rekey,
/// upsert, compact) leaves the original's searches, tombstones and bytes
/// untouched — on every backend, and on a lazily opened store both before
/// and after its body is decoded.
#[test]
fn clone_box_is_independent_of_its_original() {
    let exec = Executor::new(2);
    let rng = KeyedStochastic::new(4242);
    let items: Vec<(u64, Vec<f32>)> = (0..40).map(|id| (id, vector(&rng, "cl", id))).collect();
    let queries: Vec<Vec<f32>> = (0..4).map(|q| vector(&rng, "cl-q", q)).collect();
    let fresh: Vec<(u64, Vec<f32>)> =
        (0..6).map(|id| (id * 3, vector(&rng, "cl-new", id))).collect();
    let rekey: HashMap<u64, u64> = [(10, 11), (11, 10), (12, 900)].into_iter().collect();

    let mut originals: Vec<(String, Box<dyn VectorStore>)> = Vec::new();
    for spec in IndexSpec::all_defaults() {
        let mut store =
            build_store_from_vectors(&spec, DIM, Metric::Cosine, Precision::F16, &exec, &items);
        store.remove(&[1, 2, 3]);
        originals.push((spec.label().to_string(), store));
    }
    let flat = build_store_from_vectors(
        &IndexSpec::Flat,
        DIM,
        Metric::Cosine,
        Precision::F16,
        &exec,
        &items,
    );
    originals.push(("lazy-undecoded".into(), Box::new(LazyStore::open(flat.to_bytes()).unwrap())));
    let decoded = LazyStore::open(flat.to_bytes()).unwrap();
    decoded.search(&queries[0], 1);
    assert!(decoded.is_decoded());
    originals.push(("lazy-decoded".into(), Box::new(decoded)));

    for (label, original) in &originals {
        let bytes = original.to_bytes();
        let searches: Vec<_> = queries.iter().map(|q| original.search(q, 8)).collect();
        let tombstones = original.tombstones();

        let mut copy = original.clone_box();
        assert_eq!(copy.tombstones(), tombstones, "{label}: tombstones carry over");
        assert_eq!(copy.len(), original.len(), "{label}");
        assert_eq!(copy.to_bytes(), bytes, "{label}");
        for (q, hits) in queries.iter().zip(&searches) {
            assert_eq!(&copy.search(q, 8), hits, "{label}: the clone searches identically");
        }

        copy.remove(&[0, 4, 5]);
        assert_eq!(copy.rekey(&rekey), 3, "{label}");
        copy.upsert(&exec, &fresh);
        copy.compact(&exec);
        assert_ne!(copy.to_bytes(), bytes, "{label}: the clone did change");

        assert_eq!(original.to_bytes(), bytes, "{label}: original bytes untouched");
        assert_eq!(original.tombstones(), tombstones, "{label}");
        for (q, hits) in queries.iter().zip(&searches) {
            assert_eq!(&original.search(q, 8), hits, "{label}: original searches untouched");
        }
    }
}

/// Every re-keyed backend finds the hits it found before, ranked under
/// their new ids — HNSW included, whose graph keeps the shape it was
/// built with.
#[test]
fn rekey_relabels_hits_on_every_backend() {
    let exec = Executor::new(2);
    let rng = KeyedStochastic::new(515);
    let items: Vec<(u64, Vec<f32>)> = (0..48).map(|id| (id, vector(&rng, "rk", id))).collect();
    let map: HashMap<u64, u64> =
        (0..48).filter(|id| id % 3 == 0).map(|id| (id, id + 1000)).collect();
    for spec in IndexSpec::all_defaults() {
        let mut store =
            build_store_from_vectors(&spec, DIM, Metric::Cosine, Precision::F32, &exec, &items);
        store.remove(&[3]);
        let before: Vec<_> = (0..5).map(|q| store.search(&vector(&rng, "rk-q", q), 10)).collect();
        assert_eq!(
            store.rekey(&map),
            map.len() - 1,
            "{}: tombstoned rows keep their keys",
            spec.label()
        );
        for (q, hits) in before.into_iter().enumerate() {
            let mut expect: Vec<_> = hits
                .into_iter()
                .map(|mut h| {
                    h.id = map.get(&h.id).copied().unwrap_or(h.id);
                    h
                })
                .collect();
            mcqa_util::hits::sort_hits(&mut expect);
            assert_eq!(
                store.search(&vector(&rng, "rk-q", q as u64), 10),
                expect,
                "{}",
                spec.label()
            );
        }
    }
}
