//! Differential possible-worlds oracle: for tiny compact tables (≤3
//! tuples, ≤3 assignments per cell) the worlds of every engine result are
//! enumerated exactly via [`iflex_ctable::worlds`] and compared against
//! the world-by-world relational semantics — for each possible world `W`
//! of the inputs, the true operator result over `W` must appear among the
//! engine output's possible worlds (the §4 superset guarantee, checked
//! without approximation).

use iflex_alog::parse_program;
use iflex_ctable::{worlds, Assignment, Cell, CompactTable, CompactTuple, Value};
use iflex_engine::Engine;
use iflex_features::{FeatureArg, FeatureRegistry};
use iflex_text::{DocumentStore, Span};
use std::collections::BTreeSet;
use std::sync::Arc;

type Relation = BTreeSet<Vec<Value>>;

const BUDGET: usize = 1_000_000;

/// Numeric reading of a world-level value: exact numbers as-is, spans via
/// the text they cover (how the engine's comparison operands read cells).
fn num_of(store: &DocumentStore, v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        Value::Span(s) => iflex_text::parse_number(store.span_text(s)),
        _ => None,
    }
}

fn exact_num(n: f64) -> Cell {
    Cell::exact(Value::Num(n))
}

/// Asserts every relation of `expected` is among the worlds of `table`.
fn assert_worlds_contain(
    table: &CompactTable,
    store: &DocumentStore,
    expected: &BTreeSet<Relation>,
    what: &str,
) {
    let engine_worlds = worlds::worlds_of_compact(table, store, BUDGET).unwrap();
    for rel in expected {
        assert!(
            engine_worlds.contains(rel),
            "{what}: world-level result {rel:?} missing from engine worlds \
             (engine has {} worlds)",
            engine_worlds.len()
        );
    }
}

/// Runs `prog_src` once on a fresh engine over `tables`.
fn run(
    store: &Arc<DocumentStore>,
    tables: &[(&str, CompactTable)],
    prog_src: &str,
) -> CompactTable {
    let mut eng = Engine::new(Arc::clone(store));
    for (name, t) in tables {
        eng.add_table(name, t.clone());
    }
    (*eng.run(&parse_program(prog_src).unwrap()).unwrap()).clone()
}

/// The reference refinement of `numeric(col) = yes`: keep only the
/// candidate values the feature verifies; a tuple whose cell empties out
/// cannot exist in any world.
fn numeric_refined(t: &CompactTable, col: usize, store: &DocumentStore) -> CompactTable {
    let features = FeatureRegistry::default();
    let numeric = features.get("numeric").unwrap();
    let mut refined = CompactTable::new(t.columns().to_vec());
    for tuple in t.tuples() {
        let kept: Vec<Assignment> = tuple.cells[col]
            .values(store)
            .filter(|v| numeric.verify_value(store, v, &FeatureArg::yes()).unwrap())
            .map(Assignment::Exact)
            .collect();
        if kept.is_empty() {
            continue;
        }
        let mut cells = tuple.cells.clone();
        cells[col] = Cell::of(kept);
        refined.push(CompactTuple {
            cells,
            maybe: tuple.maybe,
        });
    }
    refined
}

/// σ: `q(a) :- t(a), a < 10.` over a table mixing a certain exact tuple, a
/// choice cell (two candidate spans), and a maybe tuple. Every σ(W) must
/// be a world of the output.
#[test]
fn selection_contains_every_world_result() {
    let mut store = DocumentStore::new();
    let d = store.add_plain("5 20");
    let five = Span::new(d, 0, 1);
    let twenty = Span::new(d, 2, 4);
    let store = Arc::new(store);

    let mut t = CompactTable::new(vec!["a".into()]);
    t.push(CompactTuple::new(vec![exact_num(3.0)]));
    t.push(CompactTuple::new(vec![Cell::of(vec![
        Assignment::exact_span(five),
        Assignment::exact_span(twenty),
    ])]));
    t.push(CompactTuple::maybe(vec![exact_num(12.0)]));

    let input_worlds = worlds::worlds_of_compact(&t, &store, BUDGET).unwrap();
    assert!(input_worlds.len() > 1, "inputs must be genuinely uncertain");

    let result = run(&store, &[("t", t)], "q(a) :- t(a), a < 10.");

    let expected: BTreeSet<Relation> = input_worlds
        .iter()
        .map(|w| {
            w.iter()
                .filter(|row| num_of(&store, &row[0]).is_some_and(|n| n < 10.0))
                .cloned()
                .collect()
        })
        .collect();
    assert_worlds_contain(&result, &store, &expected, "σ(a < 10)");
}

/// π: `q(a) :- t(a, b).` — projection must contain π_a(W) for every input
/// world, including worlds where the projected-away column was the only
/// uncertain one.
#[test]
fn projection_contains_every_world_result() {
    let mut store = DocumentStore::new();
    let d = store.add_plain("x y");
    let x = Span::new(d, 0, 1);
    let y = Span::new(d, 2, 3);
    let store = Arc::new(store);

    let mut t = CompactTable::new(vec!["a".into(), "b".into()]);
    t.push(CompactTuple::new(vec![
        exact_num(1.0),
        Cell::of(vec![Assignment::exact_span(x), Assignment::exact_span(y)]),
    ]));
    t.push(CompactTuple::maybe(vec![exact_num(2.0), exact_num(7.0)]));

    let input_worlds = worlds::worlds_of_compact(&t, &store, BUDGET).unwrap();

    let result = run(&store, &[("t", t)], "q(a) :- t(a, b).");

    let expected: BTreeSet<Relation> = input_worlds
        .iter()
        .map(|w| w.iter().map(|row| vec![row[0].clone()]).collect())
        .collect();
    assert_worlds_contain(&result, &store, &expected, "π_a");
}

/// ⋈: `q(a, b, c) :- r(a, b), s(b2, c), b = b2.` (equality comparison is
/// how Alog spells the join, per T8). For every pair of input worlds the
/// joined relation must be a world of the output.
#[test]
fn join_contains_every_world_result() {
    let store = Arc::new(DocumentStore::new());

    let mut r = CompactTable::new(vec!["a".into(), "b".into()]);
    r.push(CompactTuple::new(vec![exact_num(1.0), exact_num(10.0)]));
    r.push(CompactTuple::maybe(vec![exact_num(2.0), exact_num(20.0)]));

    let mut s = CompactTable::new(vec!["b2".into(), "c".into()]);
    s.push(CompactTuple::new(vec![exact_num(10.0), exact_num(100.0)]));
    s.push(CompactTuple::maybe(vec![exact_num(20.0), exact_num(200.0)]));

    let r_worlds = worlds::worlds_of_compact(&r, &store, BUDGET).unwrap();
    let s_worlds = worlds::worlds_of_compact(&s, &store, BUDGET).unwrap();

    let result = run(
        &store,
        &[("r", r), ("s", s)],
        "q(a, b, c) :- r(a, b), s(b2, c), b = b2.",
    );

    let mut expected: BTreeSet<Relation> = BTreeSet::new();
    for wr in &r_worlds {
        for ws in &s_worlds {
            let mut rel = Relation::new();
            for rr in wr {
                for sr in ws {
                    let (b, b2) = (num_of(&store, &rr[1]), num_of(&store, &sr[0]));
                    if b.is_some() && b == b2 {
                        rel.insert(vec![rr[0].clone(), rr[1].clone(), sr[1].clone()]);
                    }
                }
            }
            expected.insert(rel);
        }
    }
    assert_worlds_contain(&result, &store, &expected, "r ⋈ s");
}

/// Domain-constraint selection: `q(v) :- t(v), numeric(v) = yes.` Unlike
/// σ, a constraint is developer *knowledge* (§2.2.2): it narrows each
/// cell's candidate set, so a world where an uncertain cell chose a
/// refuted candidate is eliminated outright — it does not map to the
/// empty relation. The oracle therefore applies the candidate filter to
/// the compact input directly and enumerates the refined table's worlds.
#[test]
fn constraint_selection_contains_every_world_result() {
    let mut store = DocumentStore::new();
    let d = store.add_plain("42 abc 7");
    let n42 = Span::new(d, 0, 2);
    let abc = Span::new(d, 3, 6);
    let n7 = Span::new(d, 7, 8);
    let store = Arc::new(store);

    let mut t = CompactTable::new(vec!["v".into()]);
    t.push(CompactTuple::new(vec![Cell::of(vec![
        Assignment::exact_span(n42),
        Assignment::exact_span(abc),
    ])]));
    t.push(CompactTuple::maybe(vec![Cell::of(vec![
        Assignment::exact_span(n7),
    ])]));

    let refined = numeric_refined(&t, 0, &store);
    let expected = worlds::worlds_of_compact(&refined, &store, BUDGET).unwrap();
    assert!(expected.len() > 1, "refined input must stay uncertain");

    let result = run(&store, &[("t", t)], "q(v) :- t(v), numeric(v) = yes.");
    assert_worlds_contain(&result, &store, &expected, "σ_numeric(v)=yes");

    // Differential form: the same containment stated through the library's
    // superset check — every world of the reference refinement must be a
    // world of the engine result.
    assert!(
        worlds::worlds_superset(&result, &refined, &store, BUDGET).unwrap(),
        "engine result is not a worlds-superset of the reference refinement"
    );
}

/// A fused constraint → compare → projection chain,
/// `q(a) :- t(a, b), numeric(a) = yes, a > 4.`, over duplicate rows, a
/// refinable `contain` cell and a maybe row, run twice on one engine.
/// The reference applies the constraint as candidate knowledge (as
/// above), then σ and π world by world; both runs must contain every
/// such answer. The rule cache is dropped between the runs, so the
/// second one re-executes the chain — byte-identical to the first.
#[test]
fn fused_chain_contains_every_world_result_cold_and_memoized() {
    let mut store = DocumentStore::new();
    let d = store.add_plain("5 abc 20 3 42");
    let five = Span::new(d, 0, 1);
    let abc = Span::new(d, 2, 5);
    let twenty_three = Span::new(d, 6, 10);
    let n42 = Span::new(d, 11, 13);
    let store = Arc::new(store);

    let dup = || {
        CompactTuple::new(vec![
            Cell::of(vec![Assignment::exact_span(five), Assignment::exact_span(abc)]),
            exact_num(10.0),
        ])
    };
    let mut t = CompactTable::new(vec!["a".into(), "b".into()]);
    t.push(dup());
    t.push(dup());
    t.push(CompactTuple::new(vec![Cell::contain(twenty_three), exact_num(20.0)]));
    t.push(CompactTuple::maybe(vec![
        Cell::of(vec![Assignment::exact_span(n42)]),
        exact_num(30.0),
    ]));

    let refined = numeric_refined(&t, 0, &store);
    let expected: BTreeSet<Relation> = worlds::worlds_of_compact(&refined, &store, BUDGET)
        .unwrap()
        .iter()
        .map(|w| {
            w.iter()
                .filter(|row| num_of(&store, &row[0]).is_some_and(|n| n > 4.0))
                .map(|row| vec![row[0].clone()])
                .collect()
        })
        .collect();
    assert!(expected.len() > 1, "the answer must stay uncertain");

    let mut eng = Engine::new(Arc::clone(&store));
    eng.add_table("t", t.clone());
    let prog = parse_program("q(a) :- t(a, b), numeric(a) = yes, a > 4.").unwrap();
    let first = eng.run(&prog).unwrap();
    assert_worlds_contain(&first, &store, &expected, "π_a σ_{a>4} σ_numeric, cold");

    eng.clear_cache();
    let second = eng.run(&prog).unwrap();
    assert_worlds_contain(&second, &store, &expected, "π_a σ_{a>4} σ_numeric, re-executed");
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert_eq!(eng.stats.incr_hits, 0, "the rule cache must not answer the second run");
}

/// A pass computes what it does to a row's *cells* apart from the row's
/// own `maybe` flag, which is OR-ed in at emission and must not leak
/// from one row to the next. Rows with identical cells, the `maybe` one
/// first, go through a two-step pass (σ_{a>10}, π) — once where the
/// comparison may but need not hold (`extra`), once where it must —
/// cold, then re-executed with the rule cache dropped: every output flag
/// is `input.maybe || extra` both times, and the bytes are identical.
#[test]
fn memoized_pass_keeps_the_input_rows_own_maybe_flag() {
    let mut store = DocumentStore::new();
    let d = store.add_plain("5 20");
    let five = Span::new(d, 0, 1);
    let twenty = Span::new(d, 2, 4);
    let store = Arc::new(store);

    let either = || vec![Cell::of(vec![Assignment::exact_span(five), Assignment::exact_span(twenty)])];
    let certain = || vec![Cell::of(vec![Assignment::exact_span(twenty)])];
    let mut t = CompactTable::new(vec!["a".into()]);
    t.push(CompactTuple::maybe(either()));
    t.push(CompactTuple::new(either()));
    t.push(CompactTuple::maybe(certain()));
    t.push(CompactTuple::new(certain()));

    let mut eng = Engine::new(Arc::clone(&store));
    eng.add_table("t", t.clone());
    let prog = parse_program("q(a) :- t(a), a > 10.").unwrap();
    let flags = |table: &CompactTable| table.tuples().iter().map(|r| r.maybe).collect::<Vec<_>>();
    let cold = eng.run(&prog).unwrap();
    assert_eq!(flags(&cold), [true, true, true, false]);
    eng.clear_cache();
    let second = eng.run(&prog).unwrap();
    assert_eq!(flags(&second), [true, true, true, false]);
    assert_eq!(format!("{cold:?}"), format!("{second:?}"));
}

