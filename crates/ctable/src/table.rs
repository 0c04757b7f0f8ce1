//! Compact tables: the approximate-relation representation of §3.

use crate::cell::Cell;
use crate::tuple::CompactTuple;
use crate::value::Value;
use iflex_text::DocumentStore;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Size statistics used by the next-effort assistant's convergence monitor
/// (§5.1): result tuples and total assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TableStats {
    /// Compact tuples stored.
    pub tuples: usize,
    /// Tuples flagged maybe (existence-uncertain).
    pub maybe_tuples: usize,
    /// The assignments.
    pub assignments: usize,
}

/// A compact table: named columns plus a multiset of compact tuples.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CompactTable {
    cols: Vec<String>,
    tuples: Vec<CompactTuple>,
}

impl CompactTable {
    /// An empty table with the given column names.
    pub fn new(cols: Vec<String>) -> Self {
        CompactTable {
            cols,
            tuples: Vec::new(),
        }
    }

    /// Builds a compact table from an ordinary (exact) relation: every cell
    /// becomes `{exact(v)}` (§4, step one of plan conversion).
    pub fn from_exact_rows(cols: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        let tuples = rows
            .into_iter()
            .map(|r| CompactTuple::new(r.into_iter().map(Cell::exact).collect()))
            .collect();
        CompactTable { cols, tuples }
    }

    #[inline]
    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.cols
    }

    /// Index of column `name`. An O(arity) scan — **cold-path only**: the
    /// engine resolves every column reference to a `usize` index when it
    /// compiles a plan (`iflex_engine::plan`), so per-tuple
    /// operator loops never call this (pinned by the `project_by_index`
    /// regression tests below).
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c == name)
    }

    #[inline]
    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    /// The stored tuples.
    pub fn tuples(&self) -> &[CompactTuple] {
        &self.tuples
    }

    #[inline]
    /// Tuples mut.
    pub fn tuples_mut(&mut self) -> &mut Vec<CompactTuple> {
        &mut self.tuples
    }

    #[inline]
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    #[inline]
    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Appends a tuple; panics (debug) on arity mismatch.
    pub fn push(&mut self, t: CompactTuple) {
        debug_assert_eq!(t.arity(), self.cols.len(), "tuple arity mismatch");
        self.tuples.push(t);
    }

    /// Drops tuples that can no longer exist (an empty cell).
    pub fn drop_impossible(&mut self) {
        self.tuples.retain(|t| !t.has_empty_cell());
    }

    /// Condenses every cell of every tuple.
    pub fn condense(&mut self, store: &DocumentStore) {
        for t in &mut self.tuples {
            for c in &mut t.cells {
                c.condense(store);
            }
        }
    }

    /// Projection onto the named columns (duplicates kept: bag semantics).
    pub fn project(&self, names: &[&str]) -> Option<CompactTable> {
        // Resolve every name exactly once, before the tuple loop.
        let idxs: Vec<usize> = names
            .iter()
            .map(|n| self.col_index(n))
            .collect::<Option<_>>()?;
        Some(self.project_idx(&idxs, names.iter().map(|n| n.to_string()).collect()))
    }

    /// Projection by pre-resolved column indices (bag semantics), renaming
    /// to `cols` — the hot path callers with compile-time-resolved
    /// indices use directly, bypassing name resolution entirely.
    ///
    /// # Panics
    /// When an index is out of bounds for this table's arity.
    pub fn project_idx(&self, idxs: &[usize], cols: Vec<String>) -> CompactTable {
        debug_assert_eq!(idxs.len(), cols.len());
        let tuples = self
            .tuples
            .iter()
            .map(|t| CompactTuple {
                cells: idxs.iter().map(|&i| t.cells[i].clone()).collect(),
                maybe: t.maybe,
            })
            .collect();
        CompactTable { cols, tuples }
    }

    /// Number of result tuples after expanding all expansion cells — the
    /// paper's result-set size (expansion cells multiply tuples; choice
    /// cells do not). Tuples with an empty expansion cell contribute 0.
    pub fn expanded_len(&self, store: &DocumentStore) -> u64 {
        self.tuples
            .iter()
            .map(|t| {
                t.cells
                    .iter()
                    .filter(|c| c.is_expand())
                    .fold(1u64, |acc, c| acc.saturating_mul(c.value_count(store)))
            })
            .sum()
    }

    /// The **certain** sub-relation: concrete tuples present in *every*
    /// possible world — non-maybe tuples whose non-expansion cells all
    /// encode exactly one value (expansion cells enumerate certainly-
    /// existing tuples, so each of their values yields one certain tuple,
    /// provided every other cell is a singleton).
    ///
    /// Together with the superset result this brackets the true answer:
    /// `certain ⊆ truth ⊆ superset` — the complementary execution
    /// semantics §4 sketches as future work ("one that minimizes the
    /// number of incorrect tuples").
    pub fn certain_tuples(&self, store: &DocumentStore, limit: usize) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for t in &self.tuples {
            if t.maybe {
                continue;
            }
            // Every non-expansion cell must be a singleton.
            let singletons: Option<Vec<Option<Value>>> = t
                .cells
                .iter()
                .map(|c| {
                    if c.is_expand() {
                        Some(None) // enumerate below
                    } else {
                        c.singleton(store).map(Some)
                    }
                })
                .collect();
            let Some(cells) = singletons else { continue };
            // Expand the expansion cells (each value = one certain tuple).
            let mut rows: Vec<Vec<Value>> = vec![Vec::with_capacity(t.cells.len())];
            for (cell, fixed) in t.cells.iter().zip(&cells) {
                match fixed {
                    Some(v) => {
                        for r in &mut rows {
                            r.push(v.clone());
                        }
                    }
                    None => {
                        let vals: Vec<Value> = cell.values(store).collect();
                        let mut next = Vec::with_capacity(rows.len() * vals.len());
                        for r in rows {
                            for v in &vals {
                                let mut r2 = r.clone();
                                r2.push(v.clone());
                                next.push(r2);
                            }
                        }
                        rows = next;
                    }
                }
                if rows.len() + out.len() > limit {
                    return out; // budget: report what we have (still certain)
                }
            }
            out.extend(rows);
        }
        out
    }

    /// Current statistics.
    pub fn stats(&self) -> TableStats {
        TableStats {
            tuples: self.tuples.len(),
            maybe_tuples: self.tuples.iter().filter(|t| t.maybe).count(),
            assignments: self.tuples.iter().map(CompactTuple::assignment_count).sum(),
        }
    }

    /// Renders the table with resolved span text — for examples and
    /// debugging, not for machine consumption.
    pub fn render(&self, store: &DocumentStore, max_rows: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.cols.join(" | "));
        for t in self.tuples.iter().take(max_rows) {
            let row: Vec<String> = t
                .cells
                .iter()
                .map(|c| {
                    let vals: Vec<String> = c
                        .values(store)
                        .take(3)
                        .map(|v| match v {
                            Value::Span(sp) => format!("{:?}", store.span_text(&sp)),
                            other => other.to_string(),
                        })
                        .collect();
                    let more = if c.value_count(store) > 3 { ", …" } else { "" };
                    format!("{{{}{more}}}", vals.join(", "))
                })
                .collect();
            let _ = writeln!(
                s,
                "{}{}",
                row.join(" | "),
                if t.maybe { " ?" } else { "" }
            );
        }
        if self.tuples.len() > max_rows {
            let _ = writeln!(s, "… ({} rows total)", self.tuples.len());
        }
        s
    }
}

impl fmt::Display for CompactTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.cols.join(" | "))?;
        for t in &self.tuples {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vnum(n: f64) -> Value {
        Value::Num(n)
    }

    #[test]
    fn from_exact_rows_roundtrip() {
        let t = CompactTable::from_exact_rows(
            vec!["a".into(), "b".into()],
            vec![vec![vnum(1.0), vnum(2.0)], vec![vnum(3.0), vnum(4.0)]],
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.col_index("b"), Some(1));
        assert!(t.col_index("z").is_none());
        assert_eq!(t.stats().assignments, 4);
    }

    #[test]
    fn project_keeps_order_and_maybe() {
        let mut t = CompactTable::from_exact_rows(
            vec!["a".into(), "b".into(), "c".into()],
            vec![vec![vnum(1.0), vnum(2.0), vnum(3.0)]],
        );
        t.tuples_mut()[0].maybe = true;
        let p = t.project(&["c", "a"]).unwrap();
        assert_eq!(p.columns(), &["c".to_string(), "a".to_string()]);
        assert!(p.tuples()[0].maybe);
        assert!(t.project(&["nope"]).is_none());
    }

    /// Pins the hot-path contract `col_index` documents: projection by
    /// pre-resolved indices equals name-based projection (which resolves
    /// each name exactly once, outside the tuple loop) — so operator
    /// loops can carry `usize` indices from plan compilation and never pay
    /// the O(arity) name scan per tuple.
    #[test]
    fn project_by_index_equals_project_by_name() {
        let mut t = CompactTable::from_exact_rows(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                vec![vnum(1.0), vnum(2.0), vnum(3.0)],
                vec![vnum(4.0), vnum(5.0), vnum(6.0)],
            ],
        );
        t.tuples_mut()[1].maybe = true;
        let names = ["c", "a", "c"];
        let idxs: Vec<usize> = names.iter().map(|n| t.col_index(n).unwrap()).collect();
        assert_eq!(idxs, vec![2, 0, 2]);
        let by_name = t.project(&names).unwrap();
        let by_idx = t.project_idx(&idxs, names.iter().map(|n| n.to_string()).collect());
        assert_eq!(by_name, by_idx);
        assert_eq!(format!("{by_name:?}"), format!("{by_idx:?}"));
        assert!(by_idx.tuples()[1].maybe);
    }

    /// Index projection renames freely — the plan compiler aliases
    /// head columns without round-tripping through `col_index`.
    #[test]
    fn project_by_index_renames_without_name_resolution() {
        let t = CompactTable::from_exact_rows(
            vec!["a".into(), "b".into()],
            vec![vec![vnum(1.0), vnum(2.0)]],
        );
        let p = t.project_idx(&[1], vec!["renamed".into()]);
        assert_eq!(p.columns(), &["renamed".to_string()]);
        assert_eq!(p.tuples()[0].cells, vec![Cell::exact(vnum(2.0))]);
        // The rename is invisible to the source table.
        assert_eq!(t.col_index("renamed"), None);
    }

    #[test]
    fn drop_impossible_removes_empty_cells() {
        let mut t = CompactTable::new(vec!["a".into()]);
        t.push(CompactTuple::new(vec![Cell::of(vec![])]));
        t.push(CompactTuple::new(vec![Cell::exact(vnum(1.0))]));
        t.drop_impossible();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn certain_tuples_bracket_the_answer() {
        let store = DocumentStore::new();
        let mut t = CompactTable::new(vec!["a".into(), "b".into()]);
        // certain: both singletons, not maybe
        t.push(CompactTuple::new(vec![Cell::exact(vnum(1.0)), Cell::exact(vnum(2.0))]));
        // not certain: maybe flag
        t.push(CompactTuple::maybe(vec![Cell::exact(vnum(3.0)), Cell::exact(vnum(4.0))]));
        // not certain: value choice
        t.push(CompactTuple::new(vec![
            Cell::of(vec![
                crate::assignment::Assignment::Exact(vnum(5.0)),
                crate::assignment::Assignment::Exact(vnum(6.0)),
            ]),
            Cell::exact(vnum(7.0)),
        ]));
        let certain = t.certain_tuples(&store, 1000);
        assert_eq!(certain, vec![vec![vnum(1.0), vnum(2.0)]]);
    }

    #[test]
    fn certain_tuples_expand_expansion_cells() {
        let store = DocumentStore::new();
        let mut t = CompactTable::new(vec!["k".into(), "v".into()]);
        t.push(CompactTuple::new(vec![
            Cell::exact(vnum(1.0)),
            Cell::expansion(vec![
                crate::assignment::Assignment::Exact(vnum(10.0)),
                crate::assignment::Assignment::Exact(vnum(20.0)),
            ]),
        ]));
        let certain = t.certain_tuples(&store, 1000);
        assert_eq!(certain.len(), 2);
        assert!(certain.contains(&vec![vnum(1.0), vnum(10.0)]));
    }

    #[test]
    fn stats_counts_maybe() {
        let mut t = CompactTable::new(vec!["a".into()]);
        t.push(CompactTuple::maybe(vec![Cell::exact(vnum(1.0))]));
        t.push(CompactTuple::new(vec![Cell::exact(vnum(2.0))]));
        let s = t.stats();
        assert_eq!(s.tuples, 2);
        assert_eq!(s.maybe_tuples, 1);
    }
}
