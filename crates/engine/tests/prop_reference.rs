//! Reference-semantics property test: for small single-rule programs, the
//! engine's possible worlds must contain every world of the *true* Alog
//! semantics (§2.2.3) computed by brute force —
//!
//! 1. the true relation R: every (doc, value) with value a token-aligned
//!    sub-span satisfying all domain constraints (by `Verify`) and all
//!    comparisons;
//! 2. annotations applied to R per Definitions 1 and 2;
//! 3. engine worlds ⊇ the resulting set of relations.

use iflex_alog::parse_program;
use iflex_ctable::{worlds, Value};
use iflex_engine::Engine;
use iflex_features::{FeatureArg, FeatureRegistry};
use iflex_text::{DocumentStore, Span};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

type Relation = BTreeSet<Vec<Value>>;

/// Brute force: the true relation of
/// `q(x, v) :- pages(x), e(#x, v), v > T.`
/// `e(#x, v) :- from(#x, v), numeric(v) = yes [, bold-font(v) = yes]`.
fn true_relation(
    store: &DocumentStore,
    reg: &FeatureRegistry,
    docs: &[iflex_text::DocId],
    with_bold: bool,
    threshold: f64,
) -> Relation {
    let mut out = Relation::new();
    let numeric = reg.get("numeric").unwrap();
    let bold = reg.get("bold-font").unwrap();
    for &d in docs {
        let doc = store.doc(d);
        let full = doc.full_span();
        for (s, e) in doc.tokens().subspans(0, doc.len()) {
            let span = Span::new(d, s, e);
            if !numeric.verify(store, span, &FeatureArg::yes()).unwrap() {
                continue;
            }
            if with_bold && !bold.verify(store, span, &FeatureArg::yes()).unwrap() {
                continue;
            }
            let v = iflex_text::parse_number(store.span_text(&span)).unwrap();
            if v > threshold {
                out.insert(vec![Value::Span(full), Value::Span(span)]);
            }
        }
    }
    out
}

/// Definition 2 on the true relation: group by doc, one value per doc.
fn definition2_worlds(r: &Relation) -> BTreeSet<Relation> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<Value, BTreeSet<Vec<Value>>> = BTreeMap::new();
    for row in r {
        groups.entry(row[0].clone()).or_default().insert(row.clone());
    }
    let mut out: BTreeSet<Relation> = BTreeSet::new();
    out.insert(Relation::new());
    for rows in groups.values() {
        let mut next = BTreeSet::new();
        for rel in &out {
            for row in rows {
                let mut r2 = rel.clone();
                r2.insert(row.clone());
                next.insert(r2);
            }
        }
        out = next;
    }
    out
}

/// Brute force: the true relation of the Panel-shaped program, two
/// extractions from one document with a constraint on each and a
/// comparison between them:
/// `q(x, v, w) :- pages(x), e(#x, v), v > T, b(#x, w).`
/// `e(#x, v) :- from(#x, v), numeric(v) = yes.`
/// `b(#x, w) :- from(#x, w), bold-font(w) = yes.`
fn true_pair_relation(
    store: &DocumentStore,
    reg: &FeatureRegistry,
    docs: &[iflex_text::DocId],
    threshold: f64,
) -> Relation {
    let mut out = Relation::new();
    let numeric = reg.get("numeric").unwrap();
    let bold = reg.get("bold-font").unwrap();
    for &d in docs {
        let doc = store.doc(d);
        let full = doc.full_span();
        let spans: Vec<Span> = doc
            .tokens()
            .subspans(0, doc.len())
            .map(|(s, e)| Span::new(d, s, e))
            .collect();
        for &v in &spans {
            if !numeric.verify(store, v, &FeatureArg::yes()).unwrap() {
                continue;
            }
            let n = iflex_text::parse_number(store.span_text(&v)).unwrap();
            if n <= threshold {
                continue;
            }
            for &w in &spans {
                if bold.verify(store, w, &FeatureArg::yes()).unwrap() {
                    out.insert(vec![Value::Span(full), Value::Span(v), Value::Span(w)]);
                }
            }
        }
    }
    out
}

/// Brute force: the true relation of the Chair-shaped program
/// `q(x, v, w, t) :- pages(x), e(#x, v), b(#x, w), twice(#v, t).`
/// with `e` and `b` as in [`true_pair_relation`], where the generator
/// `twice` returns `2v` for `v > T` and nothing else.
fn true_generated_relation(
    store: &DocumentStore,
    reg: &FeatureRegistry,
    docs: &[iflex_text::DocId],
    threshold: f64,
) -> Relation {
    true_pair_relation(store, reg, docs, threshold)
        .into_iter()
        .map(|mut row| {
            let Value::Span(v) = row[1] else {
                unreachable!("v is a span")
            };
            let n = iflex_text::parse_number(store.span_text(&v)).unwrap();
            row.push(Value::Num(2.0 * n));
            row
        })
        .collect()
}

fn build_docs(specs: &[(Vec<u8>, usize)]) -> (Arc<DocumentStore>, Vec<iflex_text::DocId>) {
    let mut store = DocumentStore::new();
    let mut ids = Vec::new();
    for (nums, bold_at) in specs {
        let body: Vec<String> = nums
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let tok = if n % 2 == 0 {
                    format!("{}", n as u32 * 3)
                } else {
                    format!("w{n}")
                };
                if i == bold_at % nums.len() {
                    format!("<b>{tok}</b>")
                } else {
                    tok
                }
            })
            .collect();
        ids.push(store.add_markup(&body.join(" ")));
    }
    (Arc::new(store), ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Without annotations: every true tuple appears in the engine's tuple
    /// universe, and the *certain* part of the engine result is a subset
    /// of the truth.
    #[test]
    fn engine_brackets_the_true_relation(
        specs in proptest::collection::vec(
            (proptest::collection::vec(0u8..40, 1..5), 0usize..4),
            1..4,
        ),
        with_bold in proptest::bool::ANY,
        threshold in 0u32..60,
    ) {
        let (store, ids) = build_docs(&specs);
        let mut eng = Engine::new(store);
        eng.add_doc_table("pages", &ids);
        let constraint = if with_bold { ", bold-font(v) = yes" } else { "" };
        let prog = parse_program(&format!(
            "q(x, v) :- pages(x), e(#x, v), v > {threshold}.\n\
             e(#x, v) :- from(#x, v), numeric(v) = yes{constraint}."
        ))
        .unwrap();
        let result = eng.run(&prog).unwrap();
        let truth = true_relation(eng.store(), eng.features(), &ids, with_bold, threshold as f64);

        // superset: truth ⊆ tuple universe
        let universe = worlds::tuple_universe(&result, eng.store(), 1_000_000).unwrap();
        for row in &truth {
            prop_assert!(universe.contains(row), "true tuple {row:?} lost");
        }
        // lower bound: certain ⊆ truth
        for row in result.certain_tuples(eng.store(), 1_000_000) {
            prop_assert!(truth.contains(&row), "wrong certain tuple {row:?}");
        }
    }

    /// With an attribute annotation `<v>`: every Definition-2 world of the
    /// true relation appears among the engine's worlds.
    #[test]
    fn engine_worlds_cover_definition2_of_truth(
        specs in proptest::collection::vec(
            (proptest::collection::vec(0u8..20, 1..3), 0usize..2),
            1..3,
        ),
        threshold in 0u32..30,
    ) {
        let (store, ids) = build_docs(&specs);
        let mut eng = Engine::new(store);
        eng.add_doc_table("pages", &ids);
        let prog = parse_program(&format!(
            "q(x, <v>) :- pages(x), e(#x, v), v > {threshold}.\n\
             e(#x, v) :- from(#x, v), numeric(v) = yes."
        ))
        .unwrap();
        let result = eng.run(&prog).unwrap();
        let truth = true_relation(eng.store(), eng.features(), &ids, false, threshold as f64);
        let reference = definition2_worlds(&truth);
        let engine_worlds =
            worlds::worlds_of_compact(&result, eng.store(), 1_000_000).unwrap();
        for rel in &reference {
            prop_assert!(
                engine_worlds.contains(rel),
                "reference world {rel:?} missing (engine has {} worlds)",
                engine_worlds.len()
            );
        }
    }

    /// Two extractions from one document, interleaved with a constraint
    /// each and a comparison (the Panel task's shape, one fused pass):
    /// the tuple universe contains the truth and the certain tuples lie
    /// inside it, serial and threaded.
    #[test]
    fn two_extractions_in_one_pass_bracket_the_truth(
        specs in proptest::collection::vec(
            (proptest::collection::vec(0u8..40, 1..5), 0usize..4),
            1..4,
        ),
        threshold in 0u32..60,
    ) {
        let (store, ids) = build_docs(&specs);
        let prog = parse_program(&format!(
            "q(x, v, w) :- pages(x), e(#x, v), v > {threshold}, b(#x, w).\n\
             e(#x, v) :- from(#x, v), numeric(v) = yes.\n\
             b(#x, w) :- from(#x, w), bold-font(w) = yes."
        ))
        .unwrap();
        let mut results = Vec::new();
        for threads in [1, 4] {
            let mut eng = Engine::new(Arc::clone(&store));
            eng.limits.threads = threads;
            eng.add_doc_table("pages", &ids);
            let plan = eng.explain(&prog).unwrap();
            prop_assert_eq!(plan.matches("Fused[").count(), 1, "{}", plan);
            prop_assert_eq!(plan.matches("from(#0)").count(), 2, "{}", plan);
            let result = eng.run(&prog).unwrap();
            let truth = true_pair_relation(eng.store(), eng.features(), &ids, threshold as f64);
            let universe = worlds::tuple_universe(&result, eng.store(), 1_000_000).unwrap();
            for row in &truth {
                prop_assert!(universe.contains(row), "true tuple {row:?} lost");
            }
            for row in result.certain_tuples(eng.store(), 1_000_000) {
                prop_assert!(truth.contains(&row), "wrong certain tuple {row:?}");
            }
            results.push(result);
        }
        prop_assert_eq!(&results[0], &results[1]);
    }

    /// A generator over one extracted column beside a second extracted
    /// column (the Chair task's shape): the tuple universe contains the
    /// truth and the certain tuples lie inside it, serial and threaded.
    #[test]
    fn generator_beside_an_unread_column_brackets_the_truth(
        specs in proptest::collection::vec(
            (proptest::collection::vec(0u8..40, 1..5), 0usize..4),
            1..4,
        ),
        threshold in 0u32..60,
    ) {
        let (store, ids) = build_docs(&specs);
        let prog = parse_program(
            "q(x, v, w, t) :- pages(x), e(#x, v), b(#x, w), twice(#v, t).\n\
             e(#x, v) :- from(#x, v), numeric(v) = yes.\n\
             b(#x, w) :- from(#x, w), bold-font(w) = yes.",
        )
        .unwrap();
        let mut results = Vec::new();
        for threads in [1, 4] {
            let mut eng = Engine::new(Arc::clone(&store));
            eng.limits.threads = threads;
            eng.add_doc_table("pages", &ids);
            let t = threshold as f64;
            eng.procs_mut().register_generator("twice", 1, move |st, args| {
                match args[0].as_num(st) {
                    Some(n) if n > t => vec![vec![Value::Num(2.0 * n)]],
                    _ => Vec::new(),
                }
            });
            let result = eng.run(&prog).unwrap();
            let truth = true_generated_relation(eng.store(), eng.features(), &ids, t);
            let universe = worlds::tuple_universe(&result, eng.store(), 1_000_000).unwrap();
            for row in &truth {
                prop_assert!(universe.contains(row), "true tuple {row:?} lost");
            }
            for row in result.certain_tuples(eng.store(), 1_000_000) {
                prop_assert!(truth.contains(&row), "wrong certain tuple {row:?}");
            }
            results.push(result);
        }
        prop_assert_eq!(&results[0], &results[1]);
    }
}
