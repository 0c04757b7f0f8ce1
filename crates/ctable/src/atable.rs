//! A-tables (§3): the non-compact approximate representation, used as the
//! exact reference model and as the intermediate form of the default
//! BAnnotate strategy (§4.3).

use crate::assignment::Assignment;
use crate::cell::Cell;
use crate::table::CompactTable;
use crate::tuple::CompactTuple;
use crate::value::Value;
use iflex_text::{DocumentStore, Span};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// An a-tuple: a set of possible values per attribute plus the maybe flag.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ATuple {
    /// The cells.
    pub cells: Vec<BTreeSet<Value>>,
    /// The maybe.
    pub maybe: bool,
}

impl ATuple {
    /// Creates a new instance.
    pub fn new(cells: Vec<BTreeSet<Value>>) -> Self {
        ATuple {
            cells,
            maybe: false,
        }
    }
}

/// An a-table: columns plus a multiset of a-tuples.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ATable {
    /// The cols.
    pub cols: Vec<String>,
    /// The tuples.
    pub tuples: Vec<ATuple>,
}

/// Error raised when a conversion would enumerate too many values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooLarge {
    /// The budget.
    pub budget: usize,
    /// The needed.
    pub needed: u64,
}

impl std::fmt::Display for TooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a-table conversion exceeds budget: needs {} values, budget {}",
            self.needed, self.budget
        )
    }
}

impl std::error::Error for TooLarge {}

impl ATable {
    /// Creates a new instance.
    pub fn new(cols: Vec<String>) -> Self {
        ATable {
            cols,
            tuples: Vec::new(),
        }
    }

    /// Converts a compact table into an a-table: expansion cells are fully
    /// expanded, then each cell becomes its value set. `budget` bounds the
    /// total number of (tuple, value) entries produced.
    pub fn from_compact(
        table: &CompactTable,
        store: &DocumentStore,
        budget: usize,
    ) -> Result<ATable, TooLarge> {
        let mut out = ATable::new(table.columns().to_vec());
        let mut spent: u64 = 0;
        for t in table.tuples() {
            let flats = t.expand_fully(store, budget).ok_or(TooLarge {
                budget,
                needed: t.possible_tuple_count(store),
            })?;
            for ft in flats {
                let mut cells = Vec::with_capacity(ft.cells.len());
                for c in &ft.cells {
                    let vs = c.value_set(store);
                    spent = spent.saturating_add(vs.len() as u64);
                    if spent > budget as u64 {
                        return Err(TooLarge {
                            budget,
                            needed: spent,
                        });
                    }
                    cells.push(vs);
                }
                out.tuples.push(ATuple {
                    cells,
                    maybe: ft.maybe,
                });
            }
        }
        Ok(out)
    }

    /// Converts back to a compact table, condensing each value set into a
    /// minimal assignment multiset (exact values, plus `contain` whenever a
    /// set is exactly "all token-aligned sub-spans of one span").
    pub fn to_compact(&self, store: &DocumentStore) -> CompactTable {
        let mut out = CompactTable::new(self.cols.clone());
        for t in &self.tuples {
            let cells = t
                .cells
                .iter()
                .map(|vs| Cell::of(condense_values(vs, store)))
                .collect();
            out.push(CompactTuple {
                cells,
                maybe: t.maybe,
            });
        }
        out
    }

    /// Tuple count.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when there are no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// Condenses a set of values into assignments. Span values that form the
/// complete token-aligned sub-span set of their common cover are packed
/// into a single `contain`; everything else stays `exact`.
pub fn condense_values(values: &BTreeSet<Value>, store: &DocumentStore) -> Vec<Assignment> {
    // Partition: spans per doc vs other values.
    let mut spans: Vec<Span> = Vec::new();
    let mut others: Vec<Assignment> = Vec::new();
    for v in values {
        match v {
            Value::Span(s) => spans.push(*s),
            other => others.push(Assignment::Exact(other.clone())),
        }
    }
    if spans.is_empty() {
        return others;
    }
    // Group span values by doc, then try to pack each doc-group into
    // contains over maximal covers.
    spans.sort();
    let mut out = others;
    let mut i = 0;
    while i < spans.len() {
        let doc = spans[i].doc;
        let mut j = i;
        while j < spans.len() && spans[j].doc == doc {
            j += 1;
        }
        let group = &spans[i..j];
        pack_doc_group(doc, group, store, &mut out);
        i = j;
    }
    out
}

/// Packs one document's span values: greedily finds covers whose complete
/// sub-span set is present, emits `contain` for those, `exact` for the rest.
fn pack_doc_group(
    doc: iflex_text::DocId,
    group: &[Span],
    store: &DocumentStore,
    out: &mut Vec<Assignment>,
) {
    let set: BTreeSet<Span> = group.iter().copied().collect();
    let toks = store.doc(doc).tokens();
    let mut consumed: BTreeSet<Span> = BTreeSet::new();
    // Consider candidate covers in decreasing length: a span S is a valid
    // cover when every token-aligned sub-span of S is in the set.
    let mut candidates: Vec<Span> = set.iter().copied().collect();
    candidates.sort_by_key(|s| std::cmp::Reverse(s.len()));
    for cand in candidates {
        if consumed.contains(&cand) {
            continue;
        }
        let n = toks.subspan_count(cand.start, cand.end);
        if n > 1 && n <= set.len() as u64 {
            let all_present = toks
                .subspans(cand.start, cand.end)
                .all(|(a, b)| set.contains(&Span::new(doc, a, b)));
            if all_present {
                out.push(Assignment::Contain(cand));
                for (a, b) in toks.subspans(cand.start, cand.end) {
                    consumed.insert(Span::new(doc, a, b));
                }
                continue;
            }
        }
    }
    for s in &set {
        if !consumed.contains(s) {
            out.push(Assignment::exact_span(*s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_text::DocId;

    fn store_with(text: &str) -> (DocumentStore, DocId) {
        let mut st = DocumentStore::new();
        let id = st.add_plain(text);
        (st, id)
    }

    #[test]
    fn compact_to_atable_expands() {
        let (st, d) = store_with("a b");
        let mut ct = CompactTable::new(vec!["x".into(), "s".into()]);
        ct.push(CompactTuple::new(vec![
            Cell::exact(Value::Num(1.0)),
            Cell::expansion(vec![Assignment::Contain(Span::new(d, 0, 3))]),
        ]));
        let at = ATable::from_compact(&ct, &st, 1000).unwrap();
        assert_eq!(at.len(), 3); // "a", "b", "a b"
        assert!(at.tuples.iter().all(|t| t.cells[1].len() == 1));
    }

    #[test]
    fn budget_enforced() {
        let (st, d) = store_with("a b c d e f g h i j");
        let mut ct = CompactTable::new(vec!["s".into()]);
        ct.push(CompactTuple::new(vec![Cell::contain(Span::new(d, 0, 19))]));
        assert!(ATable::from_compact(&ct, &st, 10).is_err());
        assert!(ATable::from_compact(&ct, &st, 100).is_ok());
    }

    #[test]
    fn condense_full_subspan_set_becomes_contain() {
        let (st, d) = store_with("one two three");
        let toks = st.doc(d).tokens();
        let set: BTreeSet<Value> = toks
            .subspans(0, 13)
            .map(|(a, b)| Value::Span(Span::new(d, a, b)))
            .collect();
        let assigns = condense_values(&set, &st);
        assert_eq!(assigns.len(), 1);
        assert_eq!(assigns[0], Assignment::Contain(Span::new(d, 0, 13)));
    }

    #[test]
    fn condense_partial_set_stays_exact() {
        let (st, d) = store_with("one two three");
        let mut set = BTreeSet::new();
        set.insert(Value::Span(Span::new(d, 0, 3)));
        set.insert(Value::Span(Span::new(d, 8, 13)));
        let assigns = condense_values(&set, &st);
        assert_eq!(assigns.len(), 2);
        assert!(assigns
            .iter()
            .all(|a| matches!(a, Assignment::Exact(_))));
    }

    #[test]
    fn roundtrip_compact_atable_compact_preserves_worlds_size() {
        let (st, d) = store_with("alpha beta");
        let mut ct = CompactTable::new(vec!["s".into()]);
        ct.push(CompactTuple::new(vec![Cell::contain(Span::new(d, 0, 10))]));
        let at = ATable::from_compact(&ct, &st, 1000).unwrap();
        let back = at.to_compact(&st);
        assert_eq!(back.len(), 1);
        assert_eq!(
            back.tuples()[0].cells[0].value_set(&st),
            ct.tuples()[0].cells[0].value_set(&st)
        );
    }

    #[test]
    fn mixed_values_condense() {
        let (st, d) = store_with("a b");
        let mut set = BTreeSet::new();
        set.insert(Value::Num(5.0));
        set.insert(Value::Span(Span::new(d, 0, 1)));
        let assigns = condense_values(&set, &st);
        assert_eq!(assigns.len(), 2);
    }
}
