//! Cell-level evaluation machinery: candidate-value extraction with
//! explicit completeness, and may/must (superset-semantics) evaluation of
//! comparisons and p-function filters.

use iflex_alog::CmpOp;
use iflex_ctable::{Assignment, Cell, Value};
use iflex_text::{DocumentStore, Span, TokenKind};

/// Max values enumerated from one cell for a filter's arguments or a
/// `similar` step's value profiles.
pub(crate) const ENUM_CAP: u64 = 4096;

/// Max value combinations per tuple for p-function evaluation. A
/// generator enumerates only its input cells, so this is its one bound.
pub(crate) const COMBO_CAP: u64 = 65_536;

/// Max values enumerated per cell for *comparison* operands. Smaller
/// than [`ENUM_CAP`]: beyond it the numeric-token fallback kicks in,
/// which is exact for ordering comparisons and conservative for
/// equality — crucial when comparing unrefined cells across a large
/// join.
pub(crate) const CMP_ENUM_CAP: u64 = 64;

/// Candidate values of a cell for predicate evaluation.
#[derive(Debug, Clone)]
pub enum Cands {
    /// The complete value set (within budget).
    Full(Vec<Value>),
    /// Only the numeric values (a `contain` too large to enumerate was
    /// reduced to its number tokens). Sound for numeric predicates; for
    /// others, satisfaction by a non-numeric value may be missed.
    NumericOnly(Vec<Value>),
    /// Nothing is known (too large to enumerate at all).
    Unknown,
}

/// Extracts candidates from `cell`, enumerating at most `cap` values.
pub fn candidates(cell: &Cell, store: &DocumentStore, cap: u64) -> Cands {
    let count = cell.value_count(store);
    if count <= cap {
        return Cands::Full(cell.values(store).collect());
    }
    // Fall back to numeric tokens of contain regions + exacts.
    let mut vals = Vec::new();
    for a in cell.assignments() {
        match a {
            Assignment::Exact(v) => vals.push(v.clone()),
            Assignment::Contain(s) => {
                let doc = store.doc(s.doc);
                for t in doc.token_slice(s) {
                    if t.kind == TokenKind::Number {
                        vals.push(Value::Span(Span::new(s.doc, t.start, t.end)));
                    }
                }
            }
        }
        if vals.len() as u64 > cap {
            return Cands::Unknown;
        }
    }
    Cands::NumericOnly(vals)
}

/// [`candidates`] under a run clock: once the deadline has expired
/// (`expired == true`), enumeration is skipped entirely and the answer is
/// [`Cands::Unknown`] — the conservative, superset-safe "keep as maybe"
/// signal that downstream may/must evaluation passes tuples through on.
/// This is how selections stay O(1) per tuple after expiry instead of
/// still paying full enumeration on the way out.
pub fn candidates_budgeted(
    cell: &Cell,
    store: &DocumentStore,
    cap: u64,
    expired: bool,
) -> Cands {
    if expired {
        return Cands::Unknown;
    }
    candidates(cell, store, cap)
}

/// Three-valued result of evaluating a predicate over a compact tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MayMust {
    /// Some possible tuple satisfies the predicate.
    pub may: bool,
    /// Every possible tuple satisfies the predicate.
    pub must: bool,
}

impl MayMust {
    /// No possible tuple satisfies the predicate.
    pub const NONE: MayMust = MayMust {
        may: false,
        must: false,
    };
    /// Some but not all possible tuples satisfy it.
    pub const SOME: MayMust = MayMust {
        may: true,
        must: false,
    };
    /// Every possible tuple satisfies it.
    pub const ALL: MayMust = MayMust {
        may: true,
        must: true,
    };
}

/// Compares two concrete values: numeric comparison when both sides parse
/// as numbers, textual equality otherwise (ordering on non-numbers fails).
pub fn compare_values(a: &Value, op: CmpOp, b: &Value, store: &DocumentStore) -> bool {
    // NULL comparisons: only `= NULL` / `!= NULL` are meaningful.
    let a_null = a.is_null();
    let b_null = b.is_null();
    if a_null || b_null {
        return match op {
            CmpOp::Eq => a_null && b_null,
            CmpOp::Ne => a_null != b_null,
            _ => false,
        };
    }
    if let (Some(x), Some(y)) = (a.as_num(store), b.as_num(store)) {
        return match op {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        };
    }
    match op {
        CmpOp::Eq => a.as_text(store) == b.as_text(store),
        CmpOp::Ne => a.as_text(store) != b.as_text(store),
        _ => false,
    }
}

fn op_is_numeric(op: CmpOp) -> bool {
    matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
}

/// Evaluates `left op right` over candidate sets with superset semantics.
pub fn compare_cands(
    left: &Cands,
    op: CmpOp,
    right: &Cands,
    store: &DocumentStore,
) -> MayMust {
    use Cands::*;
    match (left, right) {
        (Unknown, _) | (_, Unknown) => MayMust::SOME,
        // NumericOnly is complete for numeric ops (non-numbers can't
        // satisfy them), but `must` cannot hold because the cell also
        // encodes non-numeric values.
        (NumericOnly(a), NumericOnly(b)) => {
            if !op_is_numeric(op) && !matches!(op, CmpOp::Ne) {
                return MayMust::SOME;
            }
            let may = a
                .iter()
                .any(|x| b.iter().any(|y| compare_values(x, op, y, store)));
            MayMust {
                may: may || matches!(op, CmpOp::Ne),
                must: false,
            }
        }
        (NumericOnly(a), Full(b)) => numeric_one_sided(a, op, b, false, store),
        (Full(a), NumericOnly(b)) => numeric_one_sided(b, op, a, true, store),
        (Full(a), Full(b)) => {
            if a.is_empty() || b.is_empty() {
                return MayMust::NONE;
            }
            let mut may = false;
            let mut must = true;
            for x in a {
                for y in b {
                    if compare_values(x, op, y, store) {
                        may = true;
                    } else {
                        must = false;
                    }
                    if may && !must {
                        return MayMust::SOME;
                    }
                }
            }
            MayMust { may, must }
        }
    }
}

fn numeric_one_sided(
    numeric_side: &[Value],
    op: CmpOp,
    full_side: &[Value],
    numeric_is_right: bool,
    store: &DocumentStore,
) -> MayMust {
    if !op_is_numeric(op) && !matches!(op, CmpOp::Ne) {
        // equality against an un-enumerable cell: stay conservative
        return MayMust::SOME;
    }
    let may = numeric_side.iter().any(|x| {
        full_side.iter().any(|y| {
            if numeric_is_right {
                compare_values(y, op, x, store)
            } else {
                compare_values(x, op, y, store)
            }
        })
    });
    MayMust {
        may: may || matches!(op, CmpOp::Ne),
        must: false,
    }
}

/// Evaluates a boolean p-function over the cross product of candidate
/// values, with a combination budget.
pub fn filter_cands(
    cands: &[Cands],
    f: &dyn Fn(&[Value]) -> bool,
    combo_cap: u64,
) -> MayMust {
    // Any unknown/numeric-reduced side → conservative keep.
    let mut sets: Vec<&Vec<Value>> = Vec::with_capacity(cands.len());
    for c in cands {
        match c {
            Cands::Full(v) => sets.push(v),
            Cands::NumericOnly(_) | Cands::Unknown => return MayMust::SOME,
        }
    }
    if sets.iter().any(|s| s.is_empty()) {
        return MayMust::NONE;
    }
    let total: u64 = sets.iter().fold(1u64, |acc, s| {
        acc.saturating_mul(s.len() as u64)
    });
    if total > combo_cap {
        return MayMust::SOME;
    }
    let mut idx = vec![0usize; sets.len()];
    let mut args: Vec<Value> = Vec::with_capacity(sets.len());
    let mut may = false;
    let mut must = true;
    loop {
        args.clear();
        for (k, s) in sets.iter().enumerate() {
            args.push(s[idx[k]].clone());
        }
        if f(&args) {
            may = true;
        } else {
            must = false;
        }
        if may && !must {
            return MayMust::SOME;
        }
        // odometer
        let mut k = sets.len();
        loop {
            if k == 0 {
                return MayMust { may, must };
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < sets[k].len() {
                break;
            }
            idx[k] = 0;
            if k == 0 {
                return MayMust { may, must };
            }
        }
    }
}

/// True when the two cells may take equal values (used by variable
/// unification selections). Equality follows [`compare_values`]: numeric
/// when both sides parse as numbers, textual otherwise — so spans from
/// different documents with the same text unify, the natural semantics
/// for Datalog over extracted text.
pub fn cells_may_equal(
    a: &Cell,
    b: &Cell,
    store: &DocumentStore,
    cap: u64,
) -> MayMust {
    if let (Some(x), Some(y)) = (a.exact_singleton(), b.exact_singleton()) {
        return if compare_values(x, CmpOp::Eq, y, store) {
            MayMust::ALL
        } else {
            MayMust::NONE
        };
    }
    let ca = candidates(a, store, cap);
    let cb = candidates(b, store, cap);
    compare_cands(&ca, CmpOp::Eq, &cb, store)
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
    fn full_candidates_small_cell() {
        let (st, d) = store_with("a b");
        let c = Cell::contain(Span::new(d, 0, 3));
        match candidates(&c, &st, 10) {
            Cands::Full(v) => assert_eq!(v.len(), 3),
            _ => panic!(),
        }
    }

    #[test]
    fn numeric_fallback_for_large_cells() {
        let (st, d) = store_with("w1 w2 w3 w4 w5 42 w6 w7 w8 99 w9 w10");
        let full = st.doc(d).full_span();
        let c = Cell::contain(full);
        match candidates(&c, &st, 5) {
            Cands::NumericOnly(v) => {
                let texts: Vec<_> = v
                    .iter()
                    .map(|x| x.as_text(&st).to_string())
                    .collect();
                assert_eq!(texts, vec!["42", "99"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compare_values_numeric_and_text() {
        let (st, d) = store_with("619000 Basktall");
        let num_span = Value::Span(Span::new(d, 0, 6));
        assert!(compare_values(
            &num_span,
            CmpOp::Gt,
            &Value::Num(500000.0),
            &st
        ));
        let word = Value::Span(Span::new(d, 7, 15));
        assert!(compare_values(
            &word,
            CmpOp::Eq,
            &Value::Str("Basktall".into()),
            &st
        ));
        assert!(!compare_values(&word, CmpOp::Gt, &Value::Num(1.0), &st));
    }

    #[test]
    fn null_comparisons() {
        let (st, _) = store_with("x");
        assert!(compare_values(&Value::Null, CmpOp::Eq, &Value::Null, &st));
        assert!(compare_values(
            &Value::Num(1.0),
            CmpOp::Ne,
            &Value::Null,
            &st
        ));
        assert!(!compare_values(
            &Value::Num(1.0),
            CmpOp::Lt,
            &Value::Null,
            &st
        ));
    }

    #[test]
    fn may_must_full_full() {
        let (st, _) = store_with("x");
        let a = Cands::Full(vec![Value::Num(1.0), Value::Num(10.0)]);
        let b = Cands::Full(vec![Value::Num(5.0)]);
        let r = compare_cands(&a, CmpOp::Gt, &b, &st);
        assert_eq!(r, MayMust::SOME);
        let all = compare_cands(
            &Cands::Full(vec![Value::Num(7.0), Value::Num(9.0)]),
            CmpOp::Gt,
            &b,
            &st,
        );
        assert_eq!(all, MayMust::ALL);
        let none = compare_cands(
            &Cands::Full(vec![Value::Num(1.0)]),
            CmpOp::Gt,
            &b,
            &st,
        );
        assert_eq!(none, MayMust::NONE);
    }

    #[test]
    fn unknown_is_conservative() {
        let (st, _) = store_with("x");
        let r = compare_cands(
            &Cands::Unknown,
            CmpOp::Eq,
            &Cands::Full(vec![Value::Num(1.0)]),
            &st,
        );
        assert_eq!(r, MayMust::SOME);
    }

    #[test]
    fn numeric_only_sound_for_numeric_ops() {
        let (st, _) = store_with("x");
        let a = Cands::NumericOnly(vec![Value::Num(600000.0)]);
        let b = Cands::Full(vec![Value::Num(500000.0)]);
        let r = compare_cands(&a, CmpOp::Gt, &b, &st);
        assert!(r.may);
        assert!(!r.must);
        let a2 = Cands::NumericOnly(vec![Value::Num(100.0)]);
        let r2 = compare_cands(&a2, CmpOp::Gt, &b, &st);
        assert!(!r2.may);
    }

    #[test]
    fn filter_may_must() {
        let gt5 = |args: &[Value]| matches!(args[0], Value::Num(n) if n > 5.0);
        let r = filter_cands(
            &[Cands::Full(vec![Value::Num(3.0), Value::Num(7.0)])],
            &gt5,
            100,
        );
        assert_eq!(r, MayMust::SOME);
        let all = filter_cands(&[Cands::Full(vec![Value::Num(7.0)])], &gt5, 100);
        assert_eq!(all, MayMust::ALL);
        let none = filter_cands(&[Cands::Full(vec![Value::Num(1.0)])], &gt5, 100);
        assert_eq!(none, MayMust::NONE);
        let over_cap = filter_cands(
            &[
                Cands::Full(vec![Value::Num(1.0), Value::Num(2.0)]),
                Cands::Full(vec![Value::Num(1.0), Value::Num(2.0)]),
            ],
            &gt5,
            2,
        );
        assert_eq!(over_cap, MayMust::SOME);
    }

    #[test]
    fn cells_equality() {
        let (st, d) = store_with("a b");
        let ea = Cell::exact(Value::Span(Span::new(d, 0, 1)));
        let eb = Cell::exact(Value::Span(Span::new(d, 0, 1)));
        let ec = Cell::exact(Value::Span(Span::new(d, 2, 3)));
        assert_eq!(cells_may_equal(&ea, &eb, &st, 100), MayMust::ALL);
        assert_eq!(cells_may_equal(&ea, &ec, &st, 100), MayMust::NONE);
        let big = Cell::contain(Span::new(d, 0, 3));
        assert_eq!(cells_may_equal(&ea, &big, &st, 100), MayMust::SOME);
    }
}
