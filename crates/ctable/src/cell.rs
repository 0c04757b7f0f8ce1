//! Cells of compact tuples: multisets of assignments, optionally marked
//! as *expansion cells* (§3).

use crate::assignment::Assignment;
use crate::value::Value;
use iflex_text::DocumentStore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A compact-table cell.
///
/// * Non-expansion cell: the attribute takes **one** value out of the set
///   encoded by `assigns` (value-level uncertainty within a single tuple).
/// * Expansion cell (`expand == true`): the tuple stands for **one tuple
///   per value** encoded by `assigns` (tuple-multiplying shorthand, used by
///   the `from` predicate).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    assigns: Vec<Assignment>,
    expand: bool,
}

impl Cell {
    /// A cell holding exactly one known value.
    pub fn exact(v: impl Into<Value>) -> Self {
        Cell {
            assigns: vec![Assignment::Exact(v.into())],
            expand: false,
        }
    }

    /// A cell whose value is any token-aligned sub-span of `span`.
    pub fn contain(span: iflex_text::Span) -> Self {
        Cell {
            assigns: vec![Assignment::Contain(span)],
            expand: false,
        }
    }

    /// A non-expansion cell over the given assignments.
    pub fn of(assigns: Vec<Assignment>) -> Self {
        Cell {
            assigns,
            expand: false,
        }
    }

    /// An expansion cell over the given assignments.
    pub fn expansion(assigns: Vec<Assignment>) -> Self {
        Cell {
            assigns,
            expand: true,
        }
    }

    #[inline]
    /// Is expand.
    pub fn is_expand(&self) -> bool {
        self.expand
    }

    /// Marks / unmarks this cell as an expansion cell.
    pub fn set_expand(&mut self, expand: bool) {
        self.expand = expand;
    }

    #[inline]
    /// Assignments.
    pub fn assignments(&self) -> &[Assignment] {
        &self.assigns
    }

    /// Replaces the assignment multiset, keeping the expansion flag.
    pub fn with_assignments(&self, assigns: Vec<Assignment>) -> Cell {
        Cell {
            assigns,
            expand: self.expand,
        }
    }

    /// True when the cell encodes no value at all (σ removed everything).
    pub fn is_empty(&self) -> bool {
        self.assigns.is_empty()
    }

    /// Number of values encoded (union counted with multiplicity bound).
    pub fn value_count(&self, store: &DocumentStore) -> u64 {
        self.assigns
            .iter()
            .fold(0u64, |acc, a| acc.saturating_add(a.value_count(store)))
    }

    /// Number of assignments (the paper's convergence monitor counts these).
    pub fn assignment_count(&self) -> usize {
        self.assigns.len()
    }

    /// Iterates all encoded values (may repeat across assignments).
    pub fn values<'a>(&'a self, store: &'a DocumentStore) -> impl Iterator<Item = Value> + 'a {
        self.assigns.iter().flat_map(move |a| a.values(store))
    }

    /// The distinct encoded values.
    pub fn value_set(&self, store: &DocumentStore) -> BTreeSet<Value> {
        self.values(store).collect()
    }

    /// True when `v` is among the encoded values.
    pub fn encodes(&self, v: &Value, store: &DocumentStore) -> bool {
        self.assigns.iter().any(|a| a.encodes(v, store))
    }

    /// When the cell encodes exactly one value, returns it.
    pub fn singleton(&self, store: &DocumentStore) -> Option<Value> {
        let mut it = self.values(store);
        let first = it.next()?;
        for v in it {
            if v != first {
                return None;
            }
        }
        Some(first)
    }

    /// Fast path of [`Cell::singleton`]: a single `Exact` assignment.
    pub fn exact_singleton(&self) -> Option<&Value> {
        match self.assigns.as_slice() {
            [Assignment::Exact(v)] => Some(v),
            _ => None,
        }
    }

    /// Removes redundant assignments: duplicates and assignments fully
    /// covered by another assignment in the cell.
    pub fn condense(&mut self, store: &DocumentStore) {
        // Sort so bigger contains come first, then dedupe by coverage.
        self.assigns.sort();
        self.assigns.dedup();
        let mut kept: Vec<Assignment> = Vec::with_capacity(self.assigns.len());
        for a in self.assigns.drain(..) {
            if kept.iter().any(|k| k.covers(&a, store)) {
                continue;
            }
            kept.retain(|k| !a.covers(k, store));
            kept.push(a);
        }
        self.assigns = kept;
    }

    /// Merges another cell's assignments into this one.
    pub fn merge(&mut self, other: &Cell) {
        self.assigns.extend(other.assigns.iter().cloned());
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.expand {
            write!(f, "expand(")?;
        }
        write!(f, "{{")?;
        for (i, a) in self.assigns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")?;
        if self.expand {
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_text::{DocId, Span};

    fn store_with(text: &str) -> (DocumentStore, DocId) {
        let mut st = DocumentStore::new();
        let id = st.add_plain(text);
        (st, id)
    }

    #[test]
    fn exact_cell_is_singleton() {
        let (st, d) = store_with("x");
        let c = Cell::exact(Value::Span(Span::new(d, 0, 1)));
        assert_eq!(c.value_count(&st), 1);
        assert!(c.singleton(&st).is_some());
        assert!(c.exact_singleton().is_some());
    }

    #[test]
    fn contain_cell_counts() {
        let (st, d) = store_with("a b c d");
        let c = Cell::contain(Span::new(d, 0, 7));
        assert_eq!(c.value_count(&st), 10);
        assert!(c.singleton(&st).is_none());
    }

    #[test]
    fn condense_removes_covered() {
        let (st, d) = store_with("one two three");
        let mut c = Cell::of(vec![
            Assignment::Contain(Span::new(d, 0, 13)),
            Assignment::Contain(Span::new(d, 0, 7)),
            Assignment::exact_span(Span::new(d, 4, 7)),
            Assignment::exact_span(Span::new(d, 4, 7)),
        ]);
        c.condense(&st);
        assert_eq!(c.assignments().len(), 1);
        assert_eq!(
            c.assignments()[0],
            Assignment::Contain(Span::new(d, 0, 13))
        );
    }

    #[test]
    fn condense_keeps_disjoint() {
        let (st, d) = store_with("one two three");
        let mut c = Cell::of(vec![
            Assignment::exact_span(Span::new(d, 0, 3)),
            Assignment::exact_span(Span::new(d, 4, 7)),
        ]);
        c.condense(&st);
        assert_eq!(c.assignments().len(), 2);
    }

    #[test]
    fn singleton_with_duplicate_values() {
        let (st, d) = store_with("one one"); // two tokens, same text, different spans
        let c = Cell::of(vec![
            Assignment::exact_span(Span::new(d, 0, 3)),
            Assignment::exact_span(Span::new(d, 0, 3)),
        ]);
        assert!(c.singleton(&st).is_some());
        let c2 = Cell::of(vec![
            Assignment::exact_span(Span::new(d, 0, 3)),
            Assignment::exact_span(Span::new(d, 4, 7)),
        ]);
        // different spans are different values even with identical text
        assert!(c2.singleton(&st).is_none());
    }

    #[test]
    fn expansion_flag_preserved_by_with_assignments() {
        let (_, d) = store_with("x");
        let c = Cell::expansion(vec![Assignment::Contain(Span::new(d, 0, 1))]);
        let c2 = c.with_assignments(vec![]);
        assert!(c2.is_expand());
        assert!(c2.is_empty());
    }
}
