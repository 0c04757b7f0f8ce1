//! Plan analysis: arity, cardinality, and selectivity estimation.
//!
//! Leaf cardinalities are exact (the engine hands the optimizer actual
//! table sizes); everything above is modeled. Selectivities and costs
//! are static priors per step shape, so a plan depends only on its rule
//! and the relation sizes. The estimates only steer *which* byte-exact
//! rewrite fires — a bad estimate can cost speed, never correctness.

use super::Relations;
use crate::plan::{FusedOp, Operand, Plan};
use iflex_alog::CmpOp;

/// Arity (column count) of a plan's output schema. `None` when a scanned
/// relation is unknown.
pub fn arity(p: &Plan, rels: &Relations) -> Option<usize> {
    p.arity(&|name| Some(rels.get(name)?.0))
}

/// Product of leaf cardinalities: the rows the rule would touch with no
/// selection at all (denominator of the whole-rule selectivity figure).
pub fn input_rows(p: &Plan, rels: &Relations) -> Option<f64> {
    match p {
        Plan::ScanExt { name } | Plan::ScanRel { name } => Some(rels.get(name)?.1 as f64),
        _ => p.inputs().try_fold(1.0, |rows, input| Some(rows * input_rows(input, rels)?)),
    }
}

/// Estimated output cardinality under the selectivity model.
pub fn est_rows(p: &Plan, rels: &Relations) -> Option<f64> {
    let rows = match p {
        Plan::ScanExt { name } | Plan::ScanRel { name } => return Some(rels.get(name)?.1 as f64),
        _ => p.inputs().try_fold(1.0, |rows, input| Some(rows * est_rows(input, rels)?))?,
    };
    Some(match p {
        Plan::Pass { steps, .. } => steps.iter().fold(rows, |rows, step| rows * selectivity(step)),
        _ => rows,
    })
}

/// Estimated fraction of tuples the step lets through.
pub fn selectivity(op: &FusedOp) -> f64 {
    match op {
        // Constraints mostly shrink cells rather than drop whole tuples.
        FusedOp::Constraint { .. } => 0.8,
        FusedOp::Compare { op, left, right, .. } => {
            let const_side =
                matches!(left, Operand::Const(_)) || matches!(right, Operand::Const(_));
            match op {
                // Superset semantics keep a pair unless it *must* fail, so
                // equality against a constant is the most selective shape;
                // column-column equality less so.
                CmpOp::Eq => {
                    if const_side {
                        0.1
                    } else {
                        0.25
                    }
                }
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

/// Relative per-tuple cost of the step.
pub fn cost(op: &FusedOp) -> f64 {
    match op {
        // Refinement worklists re-check the whole prior chain.
        FusedOp::Constraint { priors, .. } => 8.0 + 2.0 * priors.len() as f64,
        FusedOp::FilterProc { .. } => 4.0,
        FusedOp::Compare { .. } | FusedOp::VarUnify { .. } | FusedOp::Extract { .. } => 1.0,
    }
}

/// Scheduling rank: classic `(selectivity − 1) / cost`, most negative
/// first — cheap, highly selective steps run earliest.
pub fn rank(op: &FusedOp) -> f64 {
    (selectivity(op) - 1.0) / cost(op)
}
