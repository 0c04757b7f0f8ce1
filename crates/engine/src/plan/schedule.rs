//! Step scheduling inside one pass (DESIGN.md §11): each pass's steps
//! run cheapest-and-most-selective first, but only across steps with
//! disjoint column sets. Steps sharing a column keep their source order,
//! which the §4.2 prior-recheck worklist and cell refinement before
//! candidate enumeration depend on. The selectivities and costs are
//! static priors per step shape, so a plan depends only on its rule.

use super::{FusedOp, Operand};
use iflex_alog::CmpOp;

/// Prior fraction of tuples the step lets through.
fn selectivity(op: &FusedOp) -> f64 {
    match op {
        // Constraints mostly shrink cells rather than drop whole tuples.
        FusedOp::Constraint { .. } => 0.8,
        FusedOp::Compare {
            op, left, right, ..
        } => {
            let const_side =
                matches!(left, Operand::Const(_)) || matches!(right, Operand::Const(_));
            match op {
                // Superset semantics keep a pair unless it *must* fail, so
                // equality against a constant is the most selective shape;
                // column-column equality less so.
                CmpOp::Eq if const_side => 0.1,
                CmpOp::Eq => 0.25,
                CmpOp::Ne => 0.9,
                _ => 0.5,
            }
        }
        FusedOp::VarUnify { .. } => 0.25,
        FusedOp::FilterProc { .. } => 0.5,
        // Only rows whose source holds no span drop.
        FusedOp::Extract { .. } => 1.0,
    }
}

/// Prior relative per-tuple cost of the step.
fn cost(op: &FusedOp) -> f64 {
    match op {
        // Refinement worklists re-check the whole prior chain.
        FusedOp::Constraint { priors, .. } => 8.0 + 2.0 * priors.len() as f64,
        FusedOp::FilterProc { .. } => 4.0,
        FusedOp::Compare { .. } | FusedOp::VarUnify { .. } | FusedOp::Extract { .. } => 1.0,
    }
}

/// Scheduling rank: classic `(selectivity − 1) / cost`, most negative
/// first — cheap, highly selective steps run earliest.
fn rank(op: &FusedOp) -> f64 {
    (selectivity(op) - 1.0) / cost(op)
}

/// Reorders one pass's `steps` by greedy list scheduling over their
/// dependency partial order: repeatedly emit the ready step with the best
/// (lowest) rank; ties keep the earliest source position, so equal-rank
/// steps keep their order and the result is deterministic. A `from` step
/// has selectivity 1, so by its own rank it would wait behind every
/// selective step and hold its consumers back: it ranks by its most
/// urgent consumer instead, running just before that step and never
/// ahead of a more selective one.
pub(super) fn schedule(steps: &mut Vec<FusedOp>) {
    let n = steps.len();
    let conflicts = |a: &FusedOp, b: &FusedOp| -> bool {
        let ca = a.cols();
        b.cols().iter().any(|c| ca.contains(c))
    };
    let mut rank: Vec<f64> = steps.iter().map(rank).collect();
    for i in (0..n).rev() {
        if let FusedOp::Extract { col, .. } = steps[i] {
            let consumers = (i + 1..n).filter(|&j| steps[j].cols().contains(&col));
            rank[i] = consumers.fold(rank[i], |r, j| r.min(rank[j]));
        }
    }
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            if emitted[i] {
                continue;
            }
            let ready = (0..i).all(|j| emitted[j] || !conflicts(&steps[i], &steps[j]));
            if ready && best.is_none_or(|(br, _)| rank[i] < br - 1e-12) {
                best = Some((rank[i], i));
            }
        }
        let (_, i) = best.expect("some unemitted step is always ready");
        emitted[i] = true;
        order.push(i);
    }
    let mut source: Vec<Option<FusedOp>> = std::mem::take(steps).into_iter().map(Some).collect();
    *steps = order
        .into_iter()
        .map(|i| source[i].take().expect("schedule emits each step once"))
        .collect();
}

#[cfg(test)]
mod tests {
    use super::super::tests::compile;
    use super::super::{FusedOp, Plan};

    #[test]
    fn reorder_respects_same_column_chains() {
        // `a = 5` outranks the constraint (a cheap, selective equality
        // against a constant) but shares its column, so the two keep
        // their source order.
        let plan = compile("q(a) :- pagesA(x), from(#x, a), numeric(a) = yes, a = 5.");
        let Plan::Pass { steps, .. } = &plan else {
            panic!("one pass:\n{}", plan.explain());
        };
        assert!(
            matches!(
                steps.as_slice(),
                [
                    FusedOp::Extract { .. },
                    FusedOp::Constraint { .. },
                    FusedOp::Compare { .. }
                ]
            ),
            "source order kept: {steps:?}"
        );
    }

    #[test]
    fn reorder_moves_selective_disjoint_op_first() {
        // A highly selective cheap comparison on column y runs before the
        // extraction and the barely-selective constraint on column a.
        let plan = compile("q(a, y) :- r2(x, y), from(#x, a), numeric(a) = yes, y = 5.");
        let Plan::Pass { steps, .. } = &plan else {
            panic!("one pass:\n{}", plan.explain());
        };
        assert!(
            matches!(
                steps.as_slice(),
                [
                    FusedOp::Compare { .. },
                    FusedOp::Extract { .. },
                    FusedOp::Constraint { .. }
                ]
            ),
            "comparison scheduled first: {steps:?}"
        );
    }
}
