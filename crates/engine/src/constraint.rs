//! Domain-constraint selection over compact-table cells (§4.2): applies
//! `A(k, m(s))` per assignment via the feature's `Verify`/`Refine`, and
//! re-checks every *prior* constraint on freshly created sub-spans.

use crate::plan::CompiledConstraint;
use iflex_ctable::{Assignment, Cell};
use iflex_features::{FeatureError, FeatureRegistry};
use iflex_text::DocumentStore;

/// Applies `new` (and re-checks `priors`) to one cell, returning the
/// transformed cell. Expansion flags are preserved (§4.2: "if c is an
/// expansion cell we set c' to be an expansion cell").
///
/// `priors` are the earlier constraints on the same variable, so the
/// step that applied the last of them verified every `exact` it passed
/// against all of them: an input `exact` owes `new` only. Two corners
/// stay as wide as they arrive, a superset: what that step's round cap
/// left unrefined, and a variable bound on both sides of a join, whose
/// priors include the other side's chain.
pub fn apply_constraint(
    cell: &Cell,
    new: &CompiledConstraint,
    priors: &[CompiledConstraint],
    store: &DocumentStore,
    features: &FeatureRegistry,
) -> Result<Cell, FeatureError> {
    // Full constraint list; `new` is applied first, then priors re-checked
    // (order is immaterial for the final set — §4.2).
    let mut all: Vec<&CompiledConstraint> = Vec::with_capacity(priors.len() + 1);
    all.push(new);
    all.extend(priors.iter());

    // Worklist of (assignment, constraints it still owes). Exact
    // assignments are verified against all they owe at once; contain
    // assignments are refined constraint by constraint. Whenever a
    // refine changes the region, the new assignments owe constraints
    // again — spans only shrink, so this terminates; a round cap keeps
    // pathological cases bounded (left-over items are kept as-is, which
    // is superset-safe).
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
        rounds += 1;
        if rounds > max_rounds.max(work.len() * 4 + 64) {
            // Budget blown: keep the remaining assignments unrefined.
            out.push(assign);
            for (a, _) in work.drain(..) {
                out.push(a);
            }
            break;
        }
        match &assign {
            Assignment::Exact(v) => {
                // One shot: verify every owed constraint.
                for k in owed {
                    if !features.get(&k.feature)?.verify_value(store, v, &k.arg)? {
                        continue 'work; // dropped
                    }
                }
                out.push(assign);
            }
            Assignment::Contain(s) => {
                let Some((k, rest)) = owed.split_first() else {
                    out.push(assign);
                    continue;
                };
                let refined = features.get(&k.feature)?.refine(store, *s, &k.arg)?;
                if refined.len() == 1 && refined[0] == assign {
                    // Region stable under this constraint; move on.
                    work.push((assign, rest));
                } else {
                    for r in refined {
                        match r {
                            // New exact values still need all other checks.
                            Assignment::Exact(_) => work.push((r, &all[..])),
                            // New regions: restart from the next constraint
                            // (the producing constraint holds for them by
                            // construction of Refine's maximal regions).
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

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_ctable::Value;
    use iflex_features::FeatureArg;
    use iflex_text::Span;

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

    #[test]
    fn numeric_constraint_on_contain() {
        let (st, reg, full) = setup("Sqft: 2750 price 351000");
        let cell = Cell::expansion(vec![Assignment::Contain(full)]);
        let out = apply_constraint(&cell, &cc("numeric", FeatureArg::yes()), &[], &st, &reg)
            .unwrap();
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
    fn unknown_feature_is_error() {
        let (st, reg, full) = setup("x");
        let cell = Cell::contain(full);
        assert!(apply_constraint(&cell, &cc("nope", FeatureArg::yes()), &[], &st, &reg).is_err());
    }
}
