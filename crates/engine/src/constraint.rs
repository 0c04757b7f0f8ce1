//! Domain-constraint selection over compact-table cells (§4.2): applies
//! `A(k, m(s))` per assignment via the feature's `Verify`/`Refine`, and
//! re-checks every *prior* constraint on freshly created sub-spans.
//!
//! A constraint step applies `new` to a cell. Its `priors` are the earlier
//! constraints on the same variable, which the steps before it applied.
//! Who owes which constraint:
//!
//! * an input `exact` value owes `new` only: the step that applied the
//!   last prior verified it against all of them;
//! * an `exact` value that `Refine(k)` returned owes every constraint but
//!   `k`: Refine returns only sub-spans with `f(·) = arg` (the feature
//!   contract, property-tested for every built-in feature);
//! * an input region owes every constraint, and a region that `Refine(k)`
//!   returned owes the constraints after `k`.
//!
//! So two shapes of cell need no worklist. A cell of exact values only is
//! filtered by `new` in input order, and a strictly sorted one (as
//! `Cell::condense` leaves it) stays condensed without condensing again.
//! A lone region with no priors becomes `condense(Refine(new))`. Mixed
//! cells and regions that carry priors run the worklist, whose round cap
//! counts `Refine` calls only.

use crate::plan::CompiledConstraint;
use iflex_ctable::{Assignment, Cell, Value};
use iflex_features::{Feature, FeatureArg, FeatureError, FeatureRegistry};
use iflex_text::{DocumentStore, Span};
use std::sync::Arc;

/// Applies `new` (and re-checks `priors`) to one cell, returning the
/// transformed cell. Expansion flags are preserved (§4.2: "if c is an
/// expansion cell we set c' to be an expansion cell").
///
/// Looks the features up on every call; a plan step resolves its
/// `Chain` once instead.
pub fn apply_constraint(
    cell: &Cell,
    new: &CompiledConstraint,
    priors: &[CompiledConstraint],
    store: &DocumentStore,
    features: &FeatureRegistry,
) -> Result<Cell, FeatureError> {
    Chain::resolve(new, priors, features)?.apply(cell, store)
}

/// A constraint with its feature looked up.
#[derive(Clone)]
struct Resolved {
    feature: Arc<dyn Feature>,
    arg: FeatureArg,
}

impl Resolved {
    fn new(k: &CompiledConstraint, features: &FeatureRegistry) -> Result<Self, FeatureError> {
        Ok(Resolved {
            feature: Arc::clone(features.get(&k.feature)?),
            arg: k.arg.clone(),
        })
    }

    fn verify(&self, store: &DocumentStore, v: &Value) -> Result<bool, FeatureError> {
        self.feature.verify_value(store, v, &self.arg)
    }

    fn refine(&self, store: &DocumentStore, s: Span) -> Result<Vec<Assignment>, FeatureError> {
        self.feature.refine(store, s, &self.arg)
    }
}

/// A constraint step's chain with every feature resolved: `new`, then
/// the priors it re-checks.
#[derive(Clone)]
pub(crate) struct Chain {
    new: Resolved,
    priors: Vec<Resolved>,
}

/// The constraints a worklist item still owes: chain indices
/// `from..to` (0 is `new`, `i` is prior `i - 1`), less `skip`, the
/// constraint whose `Refine` produced it.
#[derive(Clone, Copy)]
struct Owed {
    from: usize,
    to: usize,
    skip: Option<usize>,
}

impl Owed {
    fn new(from: usize, to: usize, skip: Option<usize>) -> Owed {
        Owed { from, to, skip }
    }
}

impl Chain {
    /// Looks up the features of `new` and then of `priors`, failing with
    /// the first one that is not registered.
    pub(crate) fn resolve(
        new: &CompiledConstraint,
        priors: &[CompiledConstraint],
        features: &FeatureRegistry,
    ) -> Result<Chain, FeatureError> {
        Ok(Chain {
            new: Resolved::new(new, features)?,
            priors: priors
                .iter()
                .map(|k| Resolved::new(k, features))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Constraint `i` of the chain: `new` for 0, prior `i - 1` otherwise.
    fn k(&self, i: usize) -> &Resolved {
        match i {
            0 => &self.new,
            _ => &self.priors[i - 1],
        }
    }

    /// The chain applied to one cell (see [`apply_constraint`]).
    pub(crate) fn apply(&self, cell: &Cell, store: &DocumentStore) -> Result<Cell, FeatureError> {
        let assigns = cell.assignments();
        let mut out = match assigns {
            [Assignment::Contain(s)] if self.priors.is_empty() => {
                cell.with_assignments(self.new.refine(store, *s)?)
            }
            _ if assigns.iter().all(|a| matches!(a, Assignment::Exact(_))) => {
                let mut kept = Vec::with_capacity(assigns.len());
                for a in assigns {
                    if let Assignment::Exact(v) = a {
                        if self.new.verify(store, v)? {
                            kept.push(a.clone());
                        }
                    }
                }
                let kept = cell.with_assignments(kept);
                // Any subset of a strictly sorted run of exact values is
                // what `condense` would make of it.
                if assigns.windows(2).all(|w| w[0] < w[1]) {
                    return Ok(kept);
                }
                kept
            }
            _ => cell.with_assignments(self.worklist(assigns, store)?),
        };
        out.condense(store);
        Ok(out)
    }

    /// The §4.2 worklist of (assignment, constraints it still owes).
    /// Exact values are verified against all they owe at once; regions
    /// are refined constraint by constraint, and what a `Refine` returns
    /// owes constraints again. Spans only shrink, so this terminates; a
    /// cap on `Refine` calls bounds pathological cases. Past it the
    /// pending assignments are kept as they stand, which is
    /// superset-safe. Only `Refine` calls count toward the cap, so
    /// however many exact values a cell holds, none of them uses it up.
    fn worklist(
        &self,
        assigns: &[Assignment],
        store: &DocumentStore,
    ) -> Result<Vec<Assignment>, FeatureError> {
        let n = self.priors.len() + 1;
        let mut out = Vec::new();
        let mut work: Vec<(Assignment, Owed)> = assigns
            .iter()
            .map(|a| {
                let to = match a {
                    Assignment::Exact(_) => 1,
                    Assignment::Contain(_) => n,
                };
                (a.clone(), Owed::new(0, to, None))
            })
            .collect();
        let max_rounds = (n + 1) * 16;
        let mut rounds = 0usize;

        'work: while let Some((assign, owed)) = work.pop() {
            match &assign {
                Assignment::Exact(v) => {
                    for i in owed.from..owed.to {
                        if Some(i) != owed.skip && !self.k(i).verify(store, v)? {
                            continue 'work; // dropped
                        }
                    }
                    out.push(assign);
                }
                Assignment::Contain(s) => {
                    let i = owed.from;
                    if i == owed.to {
                        out.push(assign);
                        continue;
                    }
                    rounds += 1;
                    if rounds > max_rounds.max(work.len() * 4 + 64) {
                        out.push(assign);
                        out.extend(work.drain(..).map(|(a, _)| a));
                        break;
                    }
                    let refined = self.k(i).refine(store, *s)?;
                    let rest = Owed::new(i + 1, n, None);
                    if refined.len() == 1 && refined[0] == assign {
                        // Region stable under this constraint; move on.
                        work.push((assign, rest));
                        continue;
                    }
                    for r in refined {
                        let owed = match r {
                            Assignment::Exact(_) => Owed::new(0, n, Some(i)),
                            Assignment::Contain(_) => rest,
                        };
                        work.push((r, owed));
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cc(feature: &str, arg: FeatureArg) -> CompiledConstraint {
        CompiledConstraint {
            feature: feature.into(),
            arg,
        }
    }

    fn setup(src: &str) -> (DocumentStore, FeatureRegistry, Span) {
        let mut st = DocumentStore::new();
        let id = st.add_markup(src);
        let full = st.doc(id).full_span();
        (st, FeatureRegistry::default(), full)
    }

    /// The single worklist every call ran before the shortcuts: every
    /// exact value `Refine` returns re-verified against the whole chain,
    /// its producer included. Its round cap counts `Refine` calls only,
    /// as the kernel's does.
    fn reference(
        cell: &Cell,
        new: &CompiledConstraint,
        priors: &[CompiledConstraint],
        store: &DocumentStore,
        features: &FeatureRegistry,
    ) -> Result<Cell, FeatureError> {
        let mut all: Vec<&CompiledConstraint> = Vec::with_capacity(priors.len() + 1);
        all.push(new);
        all.extend(priors.iter());
        let mut out: Vec<Assignment> = Vec::new();
        let mut work: Vec<(Assignment, &[&CompiledConstraint])> = cell
            .assignments()
            .iter()
            .map(|a| match a {
                Assignment::Exact(_) => (a.clone(), &all[..1]),
                Assignment::Contain(_) => (a.clone(), &all[..]),
            })
            .collect();
        let max_rounds = (all.len() + 1) * 16;
        let mut rounds = 0usize;
        'work: while let Some((assign, owed)) = work.pop() {
            match &assign {
                Assignment::Exact(v) => {
                    for k in owed {
                        if !features.get(&k.feature)?.verify_value(store, v, &k.arg)? {
                            continue 'work;
                        }
                    }
                    out.push(assign);
                }
                Assignment::Contain(s) => {
                    let Some((k, rest)) = owed.split_first() else {
                        out.push(assign);
                        continue;
                    };
                    rounds += 1;
                    if rounds > max_rounds.max(work.len() * 4 + 64) {
                        out.push(assign);
                        out.extend(work.drain(..).map(|(a, _)| a));
                        break;
                    }
                    let refined = features.get(&k.feature)?.refine(store, *s, &k.arg)?;
                    if refined.len() == 1 && refined[0] == assign {
                        work.push((assign, rest));
                    } else {
                        for r in refined {
                            match r {
                                Assignment::Exact(_) => work.push((r, &all[..])),
                                Assignment::Contain(_) => work.push((r, rest)),
                            }
                        }
                    }
                }
            }
        }
        let mut result = cell.with_assignments(out);
        result.condense(store);
        Ok(result)
    }

    #[test]
    fn numeric_constraint_on_contain() {
        let (st, reg, full) = setup("Sqft: 2750 price 351000");
        let cell = Cell::expansion(vec![Assignment::Contain(full)]);
        let out =
            apply_constraint(&cell, &cc("numeric", FeatureArg::yes()), &[], &st, &reg).unwrap();
        assert!(out.is_expand());
        assert_eq!(out.value_set(&st).len(), 2);
    }

    #[test]
    fn chained_constraints_all_hold() {
        // numeric AND min-value 3000: only 351000 survives
        let (st, reg, full) = setup("Sqft: 2750 price 351000");
        let cell = Cell::contain(full);
        let after_numeric =
            apply_constraint(&cell, &cc("numeric", FeatureArg::yes()), &[], &st, &reg).unwrap();
        let after_min = apply_constraint(
            &after_numeric,
            &cc("min-value", FeatureArg::Num(3000.0)),
            &[cc("numeric", FeatureArg::yes())],
            &st,
            &reg,
        )
        .unwrap();
        let vals = after_min.value_set(&st);
        assert_eq!(vals.len(), 1);
        let v = vals.into_iter().next().unwrap();
        assert_eq!(v.as_num(&st), Some(351000.0));
    }

    #[test]
    fn prior_recheck_prunes_new_regions() {
        // bold first, then numeric: numeric refine of the bold region must
        // only keep numbers that are bold.
        let (st, reg, full) = setup("noise 111 <b>price 222</b> 333");
        let cell = Cell::contain(full);
        let after_bold =
            apply_constraint(&cell, &cc("bold-font", FeatureArg::yes()), &[], &st, &reg).unwrap();
        let after_num = apply_constraint(
            &after_bold,
            &cc("numeric", FeatureArg::yes()),
            &[cc("bold-font", FeatureArg::yes())],
            &st,
            &reg,
        )
        .unwrap();
        let vals: Vec<String> = after_num
            .value_set(&st)
            .into_iter()
            .map(|v| v.as_text(&st).to_string())
            .collect();
        assert_eq!(vals, vec!["222"]);
    }

    #[test]
    fn order_independence() {
        let (st, reg, full) = setup("noise 111 <b>price 222</b> 333");
        let cell = Cell::contain(full);
        let k_bold = cc("bold-font", FeatureArg::yes());
        let k_num = cc("numeric", FeatureArg::yes());
        let ab = apply_constraint(
            &apply_constraint(&cell, &k_bold, &[], &st, &reg).unwrap(),
            &k_num,
            std::slice::from_ref(&k_bold),
            &st,
            &reg,
        )
        .unwrap();
        let ba = apply_constraint(
            &apply_constraint(&cell, &k_num, &[], &st, &reg).unwrap(),
            &k_bold,
            std::slice::from_ref(&k_num),
            &st,
            &reg,
        )
        .unwrap();
        assert_eq!(ab.value_set(&st), ba.value_set(&st));
    }

    #[test]
    fn exact_assignments_filtered_by_verify() {
        let (st, reg, _) = setup("x");
        let cell = Cell::of(vec![
            Assignment::Exact(Value::Num(10.0)),
            Assignment::Exact(Value::Num(2.0)),
        ]);
        let out = apply_constraint(
            &cell,
            &cc("min-value", FeatureArg::Num(5.0)),
            &[],
            &st,
            &reg,
        )
        .unwrap();
        assert_eq!(out.value_set(&st).len(), 1);
    }

    #[test]
    fn every_exact_value_is_verified_however_many() {
        // The round cap once counted exact verifications, so 100 values
        // that all fail kept 8 of them unverified. A region beside them
        // sends the cell through the worklist.
        let (st, reg, full) = setup("x");
        let values = (0..100).map(|n| Assignment::Exact(Value::Num(f64::from(n))));
        let exacts: Vec<Assignment> = values.collect();
        let mut mixed = exacts.clone();
        mixed.push(Assignment::Contain(full));
        let k = cc("min-value", FeatureArg::Num(1e9));
        for cell in [Cell::of(exacts), Cell::of(mixed)] {
            for priors in [vec![], vec![cc("numeric", FeatureArg::yes())]] {
                let out = apply_constraint(&cell, &k, &priors, &st, &reg).unwrap();
                assert!(out.is_empty(), "{out}");
                assert_eq!(reference(&cell, &k, &priors, &st, &reg), Ok(out));
            }
        }
    }

    #[test]
    fn unknown_feature_is_error() {
        let (st, reg, full) = setup("x");
        let cell = Cell::contain(full);
        assert!(apply_constraint(&cell, &cc("nope", FeatureArg::yes()), &[], &st, &reg).is_err());
    }

    fn arb_markup() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                "[a-z]{1,6}".prop_map(|w| w),
                (0u32..100_000).prop_map(|n| n.to_string()),
                "[a-z]{1,5}".prop_map(|w| format!("<b>{w}</b>")),
                (0u32..9_999).prop_map(|n| format!("<b>{n}</b>")),
                "[A-Z][a-z]{1,5}".prop_map(|w| format!("<u>{w}</u>")),
                "[A-Z][a-z]{1,5}".prop_map(|w| w),
                Just("price".to_string()),
            ],
            1..20,
        )
        .prop_map(|toks| toks.join(" "))
    }

    /// Constraints drawn by index in the kernel equivalence property.
    fn constraints() -> Vec<CompiledConstraint> {
        vec![
            cc("numeric", FeatureArg::yes()),
            cc("numeric", FeatureArg::no()),
            cc("bold-font", FeatureArg::yes()),
            cc("bold-font", FeatureArg::distinct_yes()),
            cc("bold-font", FeatureArg::no()),
            cc("underlined", FeatureArg::distinct_yes()),
            cc("capitalized", FeatureArg::yes()),
            cc("person-name", FeatureArg::yes()),
            cc("min-value", FeatureArg::Num(100.0)),
            cc("max-value", FeatureArg::Num(5_000.0)),
            cc("max-length", FeatureArg::Num(2.0)),
            cc("preceded-by", FeatureArg::Text("price".into())),
            cc("followed-by", FeatureArg::Text("price".into())),
            cc("bold-font", FeatureArg::Num(1.0)),
        ]
    }

    /// How a property case builds its cell from the drawn assignments.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Exact values as drawn: unsorted, maybe duplicated.
        Exacts,
        /// Exact values sorted, duplicates kept.
        SortedExacts,
        /// Exact values as a condensed cell holds them.
        CondensedExacts,
        /// One region.
        Region,
        /// Exact values and regions.
        Mixed,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The kernel's shortcuts and producer skip change no result:
        /// `apply_constraint` equals the reference worklist, errors
        /// included, on exact-only cells (unsorted, duplicated, condensed,
        /// past 64 values), lone regions with 0–3 priors and mixed cells.
        #[test]
        fn kernel_equals_the_reference_worklist(
            src in arb_markup(),
            drawn in proptest::collection::vec((0usize..64, 0usize..64, 0u8..8), 0..100),
            shape in 0u8..5,
            ks in proptest::collection::vec(0usize..64, 1..5),
            expand in proptest::bool::ANY,
        ) {
            let mut st = DocumentStore::new();
            let id = st.add_markup(&src);
            let toks = st.doc(id).tokens().tokens().to_vec();
            prop_assume!(!toks.is_empty());
            let span = |a: usize, b: usize| {
                let (a, b) = (a % toks.len(), b % toks.len());
                let (lo, hi) = (a.min(b), a.max(b));
                Span::new(id, toks[lo].start, toks[hi].end)
            };
            let exact = |&(a, b, kind): &(usize, usize, u8)| match kind {
                0 => Assignment::Exact(Value::Num(a as f64 * 97.0)),
                _ => Assignment::exact_span(span(a, b)),
            };
            let shape = [
                Shape::Exacts,
                Shape::SortedExacts,
                Shape::CondensedExacts,
                Shape::Region,
                Shape::Mixed,
            ][usize::from(shape)];
            let mut assigns: Vec<Assignment> = match shape {
                Shape::Region => drawn
                    .first()
                    .map(|&(a, b, _)| Assignment::Contain(span(a, b)))
                    .into_iter()
                    .collect(),
                Shape::Mixed => drawn
                    .iter()
                    .map(|d| match d.2 {
                        1 | 2 => Assignment::Contain(span(d.0, d.1)),
                        _ => exact(d),
                    })
                    .collect(),
                _ => drawn.iter().map(exact).collect(),
            };
            match shape {
                Shape::SortedExacts => assigns.sort(),
                Shape::CondensedExacts => {
                    assigns.sort();
                    assigns.dedup();
                }
                _ => {}
            }
            let cell = match expand {
                true => Cell::expansion(assigns),
                false => Cell::of(assigns),
            };
            let pool = constraints();
            let chain: Vec<CompiledConstraint> =
                ks.iter().map(|&k| pool[k % pool.len()].clone()).collect();
            let reg = FeatureRegistry::default();
            prop_assert_eq!(
                apply_constraint(&cell, &chain[0], &chain[1..], &st, &reg),
                reference(&cell, &chain[0], &chain[1..], &st, &reg),
                "{:?} cell {} chain {:?} in {:?}",
                shape,
                cell,
                chain.iter().map(|k| format!("{}={}", k.feature, k.arg)).collect::<Vec<_>>(),
                src
            );
        }
    }
}
