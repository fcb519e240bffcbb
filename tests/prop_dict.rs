//! Property tests for the interned term dictionary and the id-keyed postings
//! layer (DESIGN.md §10/§12): `TermDict` intern/resolve round-trips, the
//! `Postings` whole-dictionary view (`dict().iter_sorted()`) is identical to a
//! straightforward string-keyed model of the same corpus — i.e. interning is
//! invisible to every read path — and the parallel index build replays the
//! sequential interning order for the annotation layer exactly like it does
//! for postings.

use deepweb::common::ids::DocId;
use deepweb::common::{TermDict, ThreadPool, Url};
use deepweb::index::{Annotation, BatchDoc, DocKind, Posting, Postings, SearchIndex};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interning any word list round-trips: `intern` is idempotent, ids are
    /// dense and first-appearance ordered, `resolve` inverts `intern`, and
    /// `get` agrees with `intern` without mutating.
    #[test]
    fn termdict_intern_resolve_roundtrip(words in prop::collection::vec("[a-z0-9]{1,8}", 1..60)) {
        let mut dict = TermDict::new();
        let ids: Vec<_> = words.iter().map(|w| dict.intern(w)).collect();
        // Resolve inverts intern.
        for (w, id) in words.iter().zip(&ids) {
            prop_assert_eq!(dict.resolve(*id), w.as_str());
            prop_assert_eq!(dict.get(w), Some(*id));
        }
        // Idempotence: a second pass assigns no new ids.
        let len = dict.len();
        let again: Vec<_> = words.iter().map(|w| dict.intern(w)).collect();
        prop_assert_eq!(&again, &ids);
        prop_assert_eq!(dict.len(), len);
        // Ids are dense 0..len in first-appearance order.
        let mut distinct_in_order: Vec<&str> = Vec::new();
        for w in &words {
            if !distinct_in_order.contains(&w.as_str()) {
                distinct_in_order.push(w);
            }
        }
        prop_assert_eq!(dict.len(), distinct_in_order.len());
        let by_id: Vec<&str> = dict.iter().map(|(_, t)| t).collect();
        prop_assert_eq!(by_id, distinct_in_order);
        // The sorted view is a permutation of the dictionary in strict
        // lexicographic order.
        let sorted: Vec<&str> = dict.iter_sorted().map(|(_, t)| t).collect();
        prop_assert_eq!(sorted.len(), dict.len());
        prop_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    /// The sorted dictionary walk over the interned postings is identical —
    /// same term order, same postings — to a string-keyed model built from
    /// the same documents: interning changed the storage key, not any
    /// observable output.
    #[test]
    fn iter_terms_matches_string_model_pre_interning(
        docs in prop::collection::vec(
            prop::collection::vec("[a-z]{1,4}", 1..10),
            1..12,
        ),
    ) {
        let mut postings = Postings::new();
        // The pre-interning model: term -> sorted (doc, tf) list, exactly
        // what the old string-keyed layout stored, in the lexicographic
        // order the old merged iterator yielded.
        let mut model: BTreeMap<String, Vec<Posting>> = BTreeMap::new();
        for (i, words) in docs.iter().enumerate() {
            let doc = DocId(i as u32);
            let terms: Vec<String> = words.clone();
            postings.add_document(doc, &terms);
            let mut tf: BTreeMap<&String, u32> = BTreeMap::new();
            for w in words {
                *tf.entry(w).or_insert(0) += 1;
            }
            for (w, tf) in tf {
                model.entry(w.clone()).or_default().push(Posting { doc, tf });
            }
        }
        let got: Vec<(String, Vec<Posting>)> = postings
            .dict()
            .iter_sorted()
            .map(|(id, t)| (t.to_string(), postings.postings_id(id).to_vec()))
            .collect();
        let want: Vec<(String, Vec<Posting>)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
        // Point lookups agree with the dictionary view.
        for (id, t) in postings.dict().iter_sorted() {
            prop_assert_eq!(postings.term_id(t), Some(id));
            prop_assert_eq!(postings.postings(t), postings.postings_id(id));
        }
    }

    /// The annotation layer's id remap is as deterministic as the postings
    /// one: a parallel batch build assigns byte-identical facet-key ids,
    /// facet value-token ids and per-doc pre-tokenised annotation slices to
    /// a sequential `add` loop over the same documents, at any worker count
    /// — including annotation tokens that never occur in any body text, and
    /// mixed-case/punctuated values that only analysis can line up.
    #[test]
    fn parallel_build_annotation_ids_equal_sequential(
        docs in prop::collection::vec(
            (
                prop::collection::vec("[a-z]{1,4}", 1..8),
                prop::collection::vec(
                    ("[a-z]{1,2}", "[A-Za-z]{1,4}", "[A-Za-z]{0,3}"),
                    0..3,
                ),
            ),
            1..12,
        ),
        workers in 1usize..5,
    ) {
        let batch: Vec<BatchDoc> = docs
            .iter()
            .enumerate()
            .map(|(i, (words, anns))| BatchDoc {
                url: Url::new("w.sim", format!("/d{i}")),
                title: String::new(),
                text: words.join(" "),
                kind: DocKind::Surfaced,
                site: None,
                annotations: anns
                    .iter()
                    .map(|(k, v, tail)| Annotation {
                        key: k.clone(),
                        // Mixed-case and (when the tail is non-empty)
                        // hyphen-punctuated values, composed here because
                        // the vendored proptest stub has no regex groups.
                        value: if tail.is_empty() {
                            v.clone()
                        } else {
                            format!("{v}-{tail}")
                        },
                    })
                    .collect(),
            })
            .collect();
        let mut sequential = SearchIndex::new();
        for d in batch.iter().cloned() {
            sequential.add(d.url, d.title, d.text, d.kind, d.site, d.annotations);
        }
        let mut parallel = SearchIndex::new();
        parallel.add_batch(&ThreadPool::new(workers), batch);
        // Postings + dictionary replay (the existing contract) …
        prop_assert_eq!(
            format!("{:?}", sequential.postings()),
            format!("{:?}", parallel.postings())
        );
        // … and the annotation layer replays with them.
        prop_assert_eq!(sequential.facet_values(), parallel.facet_values());
        for (s, p) in sequential.docs().iter().zip(parallel.docs().iter()) {
            prop_assert_eq!(&s.annotation_ids, &p.annotation_ids);
        }
    }
}
