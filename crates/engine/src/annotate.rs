//! The ψ annotation operator (§4.3): applies a rule's existence and
//! attribute annotations to the compact table its plan fragment produced.
//!
//! Two implementations:
//! * **BAnnotate** — the paper's default: convert to an a-table, build the
//!   per-key indexes, emit one a-tuple per key, convert back (exact).
//! * **compact-direct** — the full-paper optimization: operate on compact
//!   cells without expansion. Groups only tuples whose key cells are
//!   singleton-exact (everything else passes through unchanged), which is
//!   superset-preserving.

use iflex_ctable::{ATable, ATuple, Cell, CompactTable, CompactTuple, Value};
use iflex_text::DocumentStore;
use std::collections::{BTreeMap, BTreeSet};

/// Budget for the a-table conversion of ψ's exact path: the engine passes
/// it to [`apply_annotations`] until the run's deadline has expired.
pub const ATABLE_BUDGET: usize = 500_000;

/// Applies annotations `(existence, annotated_cols)` to `table`.
///
/// `budget` bounds the a-table conversion of the exact path; when it is
/// `None` or the conversion does not fit, the compact-direct path runs
/// instead.
pub fn apply_annotations(
    table: CompactTable,
    existence: bool,
    annotated: &[usize],
    store: &DocumentStore,
    budget: Option<usize>,
) -> CompactTable {
    let mut out = if annotated.is_empty() {
        table
    } else {
        budget
            .and_then(|b| bannotate_exact(&table, annotated, store, b))
            .unwrap_or_else(|| bannotate_compact(&table, annotated, store))
    };
    if existence {
        for t in out.tuples_mut() {
            t.maybe = true;
        }
    }
    out
}

/// The paper's BAnnotate over a-tables. Returns `None` when the value
/// universe exceeds `budget`.
pub fn bannotate_exact(
    table: &CompactTable,
    annotated: &[usize],
    store: &DocumentStore,
    budget: usize,
) -> Option<CompactTable> {
    let at = ATable::from_compact(table, store, budget).ok()?;
    let arity = table.arity();
    let key_cols: Vec<usize> = (0..arity).filter(|c| !annotated.contains(c)).collect();

    // Index: key values → one value set per annotated column.
    let mut index: BTreeMap<Vec<Value>, Vec<BTreeSet<Value>>> = BTreeMap::new();
    // Keys for which some possible-relations-certain tuple exists.
    let mut certain: BTreeSet<Vec<Value>> = BTreeSet::new();

    for t in &at.tuples {
        // All key combinations of this a-tuple.
        let mut keys: Vec<Vec<Value>> = vec![Vec::new()];
        let mut combos: u64 = 1;
        for &kc in &key_cols {
            combos = combos.saturating_mul(t.cells[kc].len() as u64);
            if combos > budget as u64 {
                return None;
            }
            let mut next = Vec::new();
            for prefix in &keys {
                for v in &t.cells[kc] {
                    let mut k = prefix.clone();
                    k.push(v.clone());
                    next.push(k);
                }
            }
            keys = next;
        }
        let key_is_singleton = key_cols.iter().all(|&kc| t.cells[kc].len() == 1);
        for key in keys {
            let entry = index
                .entry(key.clone())
                .or_insert_with(|| vec![BTreeSet::new(); annotated.len()]);
            for (slot, &ac) in annotated.iter().enumerate() {
                entry[slot].extend(t.cells[ac].iter().cloned());
            }
            if !t.maybe && key_is_singleton {
                certain.insert(key);
            }
        }
    }

    // Emit one a-tuple per key, in the original column order.
    let mut out_at = ATable::new(table.columns().to_vec());
    for (key, sets) in index {
        let mut cells: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); arity];
        for (slot, &kc) in key_cols.iter().enumerate() {
            cells[kc].insert(key[slot].clone());
        }
        for (slot, &ac) in annotated.iter().enumerate() {
            cells[ac] = sets[slot].clone();
        }
        let mut tup = ATuple::new(cells);
        tup.maybe = !certain.contains(&key);
        out_at.tuples.push(tup);
    }
    Some(out_at.to_compact(store))
}

/// Compact-direct ψ: converts annotated expansion cells into choice cells,
/// groups tuples whose key cells are all singleton-exact, and merges the
/// annotated cells within each group. Superset-preserving.
pub fn bannotate_compact(
    table: &CompactTable,
    annotated: &[usize],
    store: &DocumentStore,
) -> CompactTable {
    let arity = table.arity();
    let key_cols: Vec<usize> = (0..arity).filter(|c| !annotated.contains(c)).collect();
    let mut out = CompactTable::new(table.columns().to_vec());

    struct Group {
        key_cells: Vec<Cell>,
        merged: Vec<Cell>,
        certain: bool,
    }
    let mut groups: BTreeMap<Vec<Value>, Group> = BTreeMap::new();

    for t in table.tuples() {
        // Attribute annotation turns tuple-level multiplicity into
        // value-level choice: drop the expand flag on annotated cells.
        let mut cells = t.cells.clone();
        for &ac in annotated {
            cells[ac].set_expand(false);
        }
        let key: Option<Vec<Value>> = key_cols
            .iter()
            .map(|&kc| cells[kc].exact_singleton().cloned())
            .collect();
        match key {
            None => {
                // Cannot group; pass through.
                out.push(CompactTuple {
                    cells,
                    maybe: t.maybe,
                });
            }
            Some(key) => {
                let g = groups.entry(key).or_insert_with(|| Group {
                    key_cells: key_cols.iter().map(|&kc| cells[kc].clone()).collect(),
                    merged: annotated.iter().map(|_| Cell::of(vec![])).collect(),
                    certain: false,
                });
                for (slot, &ac) in annotated.iter().enumerate() {
                    g.merged[slot].merge(&cells[ac]);
                }
                if !t.maybe {
                    g.certain = true;
                }
            }
        }
    }

    for (_, mut g) in groups {
        let mut cells: Vec<Cell> = vec![Cell::of(vec![]); arity];
        for (slot, &kc) in key_cols.iter().enumerate() {
            cells[kc] = g.key_cells[slot].clone();
        }
        for (slot, &ac) in annotated.iter().enumerate() {
            g.merged[slot].condense(store);
            cells[ac] = g.merged[slot].clone();
        }
        out.push(CompactTuple {
            cells,
            maybe: !g.certain,
        });
    }
    out.drop_impossible();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_ctable::Assignment;
    use iflex_text::{DocId, Span};

    fn store_with(text: &str) -> (DocumentStore, DocId) {
        let mut st = DocumentStore::new();
        let id = st.add_plain(text);
        (st, id)
    }

    fn nv(n: f64) -> Value {
        Value::Num(n)
    }

    fn sv(s: &str) -> Value {
        Value::Str(s.into())
    }

    /// Builds the paper's Figure 5 input a-table T1 as a compact table.
    fn figure5_input() -> CompactTable {
        let mut t = CompactTable::new(vec!["name".into(), "age".into()]);
        t.push(CompactTuple::new(vec![
            Cell::of(vec![
                Assignment::Exact(sv("Alice")),
                Assignment::Exact(sv("Bob")),
            ]),
            Cell::exact(nv(5.0)),
        ]));
        t.push(CompactTuple::new(vec![
            Cell::of(vec![
                Assignment::Exact(sv("Alice")),
                Assignment::Exact(sv("Carol")),
            ]),
            Cell::of(vec![Assignment::Exact(nv(6.0)), Assignment::Exact(nv(7.0))]),
        ]));
        t.push(CompactTuple::new(vec![
            Cell::exact(sv("Dave")),
            Cell::of(vec![Assignment::Exact(nv(8.0)), Assignment::Exact(nv(9.0))]),
        ]));
        t
    }

    #[test]
    fn figure5_exact_bannotate() {
        let (st, _) = store_with("x");
        let out = bannotate_exact(&figure5_input(), &[1], &st, 10_000).unwrap();
        assert_eq!(out.len(), 4);
        let by_name: BTreeMap<String, (&CompactTuple, BTreeSet<Value>)> = out
            .tuples()
            .iter()
            .map(|t| {
                let name = match t.cells[0].exact_singleton().unwrap() {
                    Value::Str(s) => s.clone(),
                    _ => panic!(),
                };
                (name, (t, t.cells[1].value_set(&st)))
            })
            .collect();
        // Alice: ages {5,6,7}, maybe
        let (alice, ages) = &by_name["Alice"];
        assert!(alice.maybe);
        assert_eq!(ages.len(), 3);
        // Bob: {5}, maybe
        assert!(by_name["Bob"].0.maybe);
        // Carol: {6,7}, maybe
        assert!(by_name["Carol"].0.maybe);
        assert_eq!(by_name["Carol"].1.len(), 2);
        // Dave: {8,9}, NOT maybe (Figure 5.b)
        assert!(!by_name["Dave"].0.maybe);
        assert_eq!(by_name["Dave"].1.len(), 2);
    }

    #[test]
    fn compact_direct_matches_exact_on_singleton_keys() {
        let (st, _) = store_with("x");
        // input where every key (name) is singleton-exact
        let mut t = CompactTable::new(vec!["name".into(), "age".into()]);
        t.push(CompactTuple::new(vec![
            Cell::exact(sv("Dave")),
            Cell::exact(nv(8.0)),
        ]));
        t.push(CompactTuple::new(vec![
            Cell::exact(sv("Dave")),
            Cell::exact(nv(9.0)),
        ]));
        t.push(CompactTuple::maybe(vec![
            Cell::exact(sv("Eve")),
            Cell::exact(nv(1.0)),
        ]));
        let exact = bannotate_exact(&t, &[1], &st, 10_000).unwrap();
        let compact = bannotate_compact(&t, &[1], &st);
        assert_eq!(exact.len(), compact.len());
        for out in [&exact, &compact] {
            let dave = out
                .tuples()
                .iter()
                .find(|u| u.cells[0].exact_singleton() == Some(&sv("Dave")))
                .unwrap();
            assert!(!dave.maybe);
            assert_eq!(dave.cells[1].value_set(&st).len(), 2);
            let eve = out
                .tuples()
                .iter()
                .find(|u| u.cells[0].exact_singleton() == Some(&sv("Eve")))
                .unwrap();
            assert!(eve.maybe);
        }
    }

    #[test]
    fn expand_cell_becomes_choice_under_annotation() {
        // Mirrors Example 2.3: houses(x, <p>) with p an expansion cell over
        // the doc's numbers → one tuple per x with a choice of p.
        let (st, d) = store_with("351000 5146 2750");
        let full = st.doc(d).full_span();
        let mut t = CompactTable::new(vec!["x".into(), "p".into()]);
        t.push(CompactTuple::new(vec![
            Cell::exact(Value::Span(full)),
            Cell::expansion(vec![
                Assignment::exact_span(Span::new(d, 0, 6)),
                Assignment::exact_span(Span::new(d, 7, 11)),
                Assignment::exact_span(Span::new(d, 12, 16)),
            ]),
        ]));
        let out = apply_annotations(t, false, &[1], &st, Some(10_000));
        assert_eq!(out.len(), 1);
        let tup = &out.tuples()[0];
        // (the a-table path rebuilds cells, so the expand flag may be gone;
        // only the value set matters here)
        assert_eq!(tup.cells[1].value_set(&st).len(), 3);
        assert!(!tup.maybe);
    }

    #[test]
    fn existence_annotation_marks_all_maybe() {
        let (st, _) = store_with("x");
        let mut t = CompactTable::new(vec!["s".into()]);
        t.push(CompactTuple::new(vec![Cell::exact(nv(1.0))]));
        let out = apply_annotations(t, true, &[], &st, Some(100));
        assert!(out.tuples().iter().all(|u| u.maybe));
    }

    #[test]
    fn compact_direct_passes_through_nonexact_keys() {
        let (st, d) = store_with("a b");
        let mut t = CompactTable::new(vec!["k".into(), "v".into()]);
        t.push(CompactTuple::new(vec![
            Cell::contain(Span::new(d, 0, 3)), // non-singleton key
            Cell::exact(nv(1.0)),
        ]));
        let out = bannotate_compact(&t, &[1], &st);
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].cells[0], Cell::contain(Span::new(d, 0, 3)));
    }

    #[test]
    fn exact_path_budget_overflow_returns_none() {
        let (st, d) = store_with("a b c d e f g h i j k l m n o p q r s t");
        let full = st.doc(d).full_span();
        let mut t = CompactTable::new(vec!["k".into(), "v".into()]);
        t.push(CompactTuple::new(vec![
            Cell::contain(full),
            Cell::exact(nv(1.0)),
        ]));
        assert!(bannotate_exact(&t, &[1], &st, 10).is_none());
    }
}
