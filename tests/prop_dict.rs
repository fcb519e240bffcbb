//! Property tests for the interned term dictionary and the id-keyed postings
//! layer (DESIGN.md §10/§12): `TermDict` intern/resolve round-trips, the
//! `Postings` whole-dictionary view (`dict().iter_sorted()`) is identical to a
//! straightforward string-keyed model of the same corpus — i.e. interning is
//! invisible to every read path — and the parallel index build replays the
//! sequential interning order for the annotation layer exactly like it does
//! for postings; a model of term ids, facet-key ids and the facet
//! vocabulary, written without the index's seal, holds for one batch and
//! for a base grown by `apply` and `merge`. The build's streaming tokeniser is checked against the
//! allocating reference `common::text::tokenize` on text that exercises
//! every token-boundary rule, and its one-probe path
//! (`raw_tokens` + `TermDict::intern_lowercase`) against splitting,
//! lowercasing and `TermDict::intern` on arbitrary UTF-8.

use deepweb::common::ids::DocId;
use deepweb::common::ids::TermId;
use deepweb::common::text::{is_stopword, raw_tokens, tokenize};
use deepweb::common::{TermDict, ThreadPool, Url};
use deepweb::index::{
    Annotation, BatchDoc, DocKind, Posting, Postings, SearchIndex, SegmentedIndex,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};

/// Text fragments covering every token-boundary rule: case, digits, `-` and
/// `_` splits, non-ASCII letters (which split ASCII runs and never form a
/// token of their own), stopwords, and punctuation-only runs.
const FRAGMENTS: &[&str] = &[
    "Honda",
    "CIVIC",
    "ford",
    "1993",
    "Zip94043",
    "x_y",
    "Out-of",
    "Stock",
    "café",
    "Ünïcode",
    "the",
    "of",
    "a-B-c",
    "!!",
    "...",
    "--",
    "é",
    "ÀB9",
];

/// Separators between fragments; the empty one glues two into one run.
const SEPARATORS: &[&str] = &[" ", "-", "_", ", ", "", "?! "];

/// One text field: fragment and separator picks, concatenated.
type Picks = Vec<(usize, usize)>;

fn compose(picks: &Picks) -> String {
    picks
        .iter()
        .map(|&(f, s)| format!("{}{}", FRAGMENTS[f], SEPARATORS[s]))
        .collect()
}

fn field() -> impl Strategy<Value = Picks> {
    prop::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 0..6)
}

/// Arbitrary UTF-8 that exercises the one-probe path, as
/// `(runs, printable, which)`: alphanumeric runs of up to twenty bytes (so
/// terms of one, two and three hashed words), upper and lower case and
/// digits, each followed by separators that include multi-byte characters
/// — or, for `which == 1`, any printable text.
type Utf8Picks = (Vec<(String, String)>, String, usize);

fn utf8_text() -> impl Strategy<Value = Utf8Picks> {
    let separator = "[ _.,!\\-é€中Üßλ\u{80}-\u{7ff}]{0,3}";
    let runs = prop::collection::vec(("[A-Za-z0-9]{0,20}", separator), 0..12);
    (runs, "\\PC{0,60}", 0..2usize)
}

fn utf8_compose((runs, printable, which): &Utf8Picks) -> String {
    match which {
        0 => runs
            .iter()
            .map(|(run, sep)| format!("{run}{sep}"))
            .collect(),
        _ => printable.clone(),
    }
}

/// Facet key names an annotation in `batch_build_tokenises_as_the_oracle`
/// is drawn from (the first two or all three).
const KEYS: [&str; 3] = ["make", "model", "year"];

/// The oracle's model of a built index over a batch.
#[derive(Default)]
struct Model {
    /// Terms in first-appearance order: body tokens, then annotation value
    /// tokens, document by document.
    order: Vec<String>,
    /// Facet keys in first-appearance order.
    keys: Vec<String>,
    /// Term → its `(doc, tf)` list.
    lists: BTreeMap<String, Vec<Posting>>,
    /// Per doc, its token count.
    lens: Vec<u32>,
    /// Per doc and annotation, its key's position in `keys` and its
    /// analysed value.
    values: Vec<Vec<(usize, Vec<String>)>>,
    /// `(key, value token)` for every annotated value token.
    known: BTreeSet<(String, String)>,
}

/// The position of `item` in `seen`, appended first if absent.
fn first_appearance(seen: &mut Vec<String>, item: &str) -> usize {
    match seen.iter().position(|s| s == item) {
        Some(at) => at,
        None => {
            seen.push(item.to_string());
            seen.len() - 1
        }
    }
}

/// `index` against `model`: the dictionary in id order, every posting list
/// and doc length, the token total, each annotation's facet-key id and
/// value terms, and `facet_value_known` for every key name and term.
fn equals_the_model(index: &SearchIndex, model: &Model) -> Result<(), TestCaseError> {
    let postings = index.postings();
    let dict: Vec<&str> = postings.dict().iter().map(|(_, t)| t).collect();
    prop_assert_eq!(&dict, &model.order);
    for (id, t) in postings.dict().iter() {
        let want = model.lists.get(t).map_or(&[][..], Vec::as_slice);
        prop_assert_eq!((t, postings.postings_id(id)), (t, want));
    }
    let got_lens: Vec<u32> = (0..model.lens.len())
        .map(|d| postings.doc_len(DocId(d as u32)))
        .collect();
    prop_assert_eq!(&got_lens, &model.lens);
    let total: u64 = model.lens.iter().map(|&l| u64::from(l)).sum();
    prop_assert_eq!(postings.total_doc_len(), total);
    let column = index.annotation_column();
    for (doc, want) in model.values.iter().enumerate() {
        let got: Vec<(usize, Vec<String>)> = column
            .doc(DocId(doc as u32))
            .map(|(key, terms)| {
                let terms = terms
                    .iter()
                    .map(|&t| postings.dict().resolve(t).to_string());
                (key.as_usize(), terms.collect())
            })
            .collect();
        prop_assert_eq!(&got, want);
    }
    for key in KEYS {
        for (_, term) in postings.dict().iter() {
            let want = model.known.contains(&(key.to_string(), term.to_string()));
            prop_assert_eq!(
                (key, term, index.facet_value_known(key, term)),
                (key, term, want)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The build's analysis fast path — `raw_tokens`, then
    /// `TermDict::intern_lowercase` of each raw slice — yields the tokens of
    /// `split` on non-alphanumerics + `to_ascii_lowercase`, and the ids the
    /// reference `TermDict::intern` gives those lowercase tokens, text after
    /// text into one dictionary; interning a whole text that way equals
    /// `intern` of its lowercase form too. The two dictionaries end equal.
    #[test]
    fn one_probe_analysis_equals_split_lowercase_intern(
        picks in prop::collection::vec(utf8_text(), 1..6),
    ) {
        let (mut fast, mut reference) = (TermDict::new(), TermDict::new());
        for text in picks.iter().map(utf8_compose) {
            let text = text.as_str();
            let want: Vec<String> = text
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|s| !s.is_empty())
                .map(str::to_ascii_lowercase)
                .collect();
            let raw: Vec<&str> = raw_tokens(text).collect();
            let lowered: Vec<String> = raw.iter().map(|r| r.to_ascii_lowercase()).collect();
            prop_assert_eq!(&lowered, &want);
            let want_ids: Vec<TermId> = want.iter().map(|t| reference.intern(t)).collect();
            let ids: Vec<TermId> = raw.iter().map(|r| fast.intern_lowercase(r)).collect();
            prop_assert_eq!(ids, want_ids);
            let whole = fast.intern_lowercase(text);
            prop_assert_eq!(whole, reference.intern(&text.to_ascii_lowercase()));
            prop_assert_eq!(fast.resolve(whole), text.to_ascii_lowercase());
        }
        prop_assert_eq!(format!("{fast:?}"), format!("{reference:?}"));
        for (id, term) in reference.iter() {
            prop_assert_eq!(fast.get(term), Some(id));
        }
    }

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
            postings.add_document(words.iter().map(String::as_str));
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

    /// The index build tokenises exactly as the oracle does (`tests/oracle.rs`):
    /// a document is `tokenize(title) ++ tokenize(text)` with stopwords
    /// kept, an annotation value is `tokenize(value)` with stopwords dropped,
    /// and terms are interned in that order, document by document; facet
    /// keys (two or three names) get ids in first-appearance order, and a
    /// value token is a known value of each key it was annotated under. The
    /// model is written from that rule alone, not from the index's seal. At
    /// 1 and 3 workers two builds equal it — one `add_batch`, and a base
    /// plus one to three `apply` calls and a `merge` — in dictionary id
    /// order, every posting list, every `doc_len`, `total_doc_len`, each
    /// annotation's facet-key id and term ids, and `facet_value_known` for
    /// every key name and term. The first document is all punctuation and
    /// has no annotations: zero tokens, `doc_len` 0.
    #[test]
    fn batch_build_tokenises_as_the_oracle(
        docs in prop::collection::vec(
            (field(), field(), prop::collection::vec((0..3usize, field()), 0..3)),
            1..10,
        ),
        names in 2..4usize,
        cuts in prop::collection::vec(0..12usize, 1..4),
    ) {
        let mut batch = vec![BatchDoc {
            url: Url::new("w.sim", "/empty"),
            title: String::new(),
            text: "-- ?! ...".to_string(),
            kind: DocKind::Surfaced,
            site: None,
            annotations: Vec::new(),
        }];
        batch.extend(docs.iter().enumerate().map(|(i, (title, text, values))| BatchDoc {
            url: Url::new("w.sim", format!("/d{i}")),
            title: compose(title),
            text: compose(text),
            kind: DocKind::Surfaced,
            site: None,
            annotations: values
                .iter()
                .map(|(k, v)| Annotation { key: KEYS[k % names].to_string(), value: compose(v) })
                .collect(),
        }));
        // The model: first-appearance term and key order, term → (doc, tf)
        // list, per-doc lengths, per-annotation key and analysed value, and
        // the known (key, value token) pairs.
        let mut model = Model::default();
        for (i, d) in batch.iter().enumerate() {
            let tokens: Vec<String> = tokenize(&d.title).chain(tokenize(&d.text)).collect();
            let analysed: Vec<(usize, Vec<String>)> = d
                .annotations
                .iter()
                .map(|a| {
                    let value: Vec<String> =
                        tokenize(&a.value).filter(|t| !is_stopword(t)).collect();
                    (first_appearance(&mut model.keys, &a.key), value)
                })
                .collect();
            for t in tokens.iter().chain(analysed.iter().flat_map(|(_, v)| v)) {
                first_appearance(&mut model.order, t);
            }
            for (key, value) in &analysed {
                for t in value {
                    model.known.insert((model.keys[*key].clone(), t.clone()));
                }
            }
            let mut tf: BTreeMap<&String, u32> = BTreeMap::new();
            for t in &tokens {
                *tf.entry(t).or_insert(0) += 1;
            }
            for (t, tf) in tf {
                model.lists.entry(t.clone()).or_default().push(Posting { doc: DocId(i as u32), tf });
            }
            model.lens.push(tokens.len() as u32);
            model.values.push(analysed);
        }
        prop_assert_eq!(model.lens[0], 0);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(batch.len())).collect();
        cuts.sort_unstable();
        cuts.push(batch.len());
        for workers in [1, 3] {
            let pool = ThreadPool::new(workers);
            let mut index = SearchIndex::new();
            index.add_batch(&pool, batch.clone());
            equals_the_model(&index, &model)?;
            let mut base = SearchIndex::new();
            base.add_batch(&pool, batch[..cuts[0]].to_vec());
            let tier = SegmentedIndex::new(base);
            for run in cuts.windows(2) {
                prop_assert_eq!(tier.apply(batch[run[0]..run[1]].to_vec()), run[1] - run[0]);
            }
            prop_assert_eq!(tier.merge(), batch.len() - cuts[0]);
            equals_the_model(tier.snapshot().base(), &model)?;
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
        let one = ThreadPool::new(1);
        for d in batch.iter().cloned() {
            sequential.add_batch(&one, vec![d]);
        }
        let mut parallel = SearchIndex::new();
        parallel.add_batch(&ThreadPool::new(workers), batch);
        // Postings + dictionary replay (the existing contract) …
        prop_assert_eq!(
            format!("{:?}", sequential.postings()),
            format!("{:?}", parallel.postings())
        );
        // … and the annotation layer replays with them: the same column,
        // and the same known values under every key any doc names.
        prop_assert_eq!(sequential.annotation_column(), parallel.annotation_column());
        for doc in sequential.docs().iter() {
            for ann in &doc.annotations {
                for (_, term) in sequential.postings().dict().iter() {
                    prop_assert_eq!(
                        sequential.facet_value_known(&ann.key, term),
                        parallel.facet_value_known(&ann.key, term)
                    );
                }
            }
        }
    }
}
