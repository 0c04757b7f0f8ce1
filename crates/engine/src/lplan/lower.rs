//! Pass 4 + lowering: turns the rewritten [`LNode`] tree back into a
//! physical [`Plan`], folding each run of adjacent selections (plus a
//! directly-above projection) into one [`Plan::Fused`] batch pass. A
//! fused pass over a cross join streams the product pairwise — the
//! interpreter never materializes the un-filtered product table.

use super::analyze;
use super::node::{peel, LNode};
use super::rewrite::straddling_similar;
use super::{OptCtx, OptReport};
use crate::plan::{FusedOp, Plan};

/// Lowers a logical node tree to a physical plan.
pub fn lower(n: LNode, ctx: &OptCtx<'_>, report: &mut OptReport) -> Option<Plan> {
    Some(match n {
        LNode::Leaf { plan } => plan,
        LNode::FromExtract { input, in_col } => Plan::FromExtract {
            input: Box::new(lower(*input, ctx, report)?),
            in_col,
        },
        LNode::GenerateProc {
            input,
            name,
            in_cols,
            out_arity,
        } => Plan::GenerateProc {
            input: Box::new(lower(*input, ctx, report)?),
            name,
            in_cols,
            out_arity,
        },
        LNode::Annotate {
            input,
            existence,
            annotated,
        } => Plan::Annotate {
            input: Box::new(lower(*input, ctx, report)?),
            existence,
            annotated,
        },
        LNode::Project { input, cols, names } => {
            let (ops, base) = peel(*input);
            lower_run(ops, base, Some((cols, names)), ctx, report)?
        }
        n @ LNode::Select { .. } => {
            let (ops, base) = peel(n);
            lower_run(ops, base, None, ctx, report)?
        }
        LNode::Join { left, right, .. } => Plan::CrossJoin {
            left: Box::new(lower(*left, ctx, report)?),
            right: Box::new(lower(*right, ctx, report)?),
        },
    })
}

/// Lowers one selection run (ops in application order) over `base`,
/// optionally capped by a projection.
fn lower_run(
    mut ops: Vec<FusedOp>,
    base: LNode,
    project: Option<(Vec<usize>, Vec<String>)>,
    ctx: &OptCtx<'_>,
    report: &mut OptReport,
) -> Option<Plan> {
    // Column references are resolved to `usize` indices at compile time
    // and carried through rewriting untouched; re-check them against the
    // base arity here, once, so the interpreter's per-tuple bodies index
    // cells without a per-access name lookup — `CompactTable::col_index`'s
    // linear scan stays off every hot path.
    if let Some(arity) = analyze::arity(&base, ctx) {
        debug_assert!(
            fused_in_bounds(&ops, project.as_ref(), arity),
            "lowering produced an out-of-bounds column index (arity {arity})"
        );
    }
    // Lower the base, keeping track of whether the fused pass would sit
    // directly on a cross join (streaming mode).
    let (base_plan, join_input, outer_right) = match base {
        LNode::Join {
            left,
            right,
            outer_right,
        } => {
            let la = analyze::arity(&left, ctx)?;
            let cj = Plan::CrossJoin {
                left: Box::new(lower(*left, ctx, report)?),
                right: Box::new(lower(*right, ctx, report)?),
            };
            // Keep the interpreter's token-prefilter similarity join: the
            // straddling filter stays a one-step Select directly above
            // the CrossJoin, and the rest of the run fuses above it.
            if ops.first().is_some_and(|op| straddling_similar(op, la).is_some()) {
                let select = Plan::Select {
                    input: Box::new(cj),
                    step: ops.remove(0),
                };
                (select, false, false)
            } else {
                (cj, true, outer_right)
            }
        }
        other => (lower(other, ctx, report)?, false, false),
    };

    let weight = ops.len() + usize::from(project.is_some());
    if (join_input && weight >= 1) || weight >= 2 {
        report.fused_nodes += 1;
        report.fused_steps += ops.len() as u32;
        return Some(Plan::Fused {
            input: Box::new(base_plan),
            ops,
            project,
            outer_right,
        });
    }
    // Nothing worth fusing: re-emit one operator per step.
    let mut out = base_plan;
    for step in ops {
        out = Plan::Select {
            input: Box::new(out),
            step,
        };
    }
    if let Some((cols, names)) = project {
        out = Plan::Project {
            input: Box::new(out),
            cols,
            names,
        };
    }
    Some(out)
}

/// True when every column index a selection run (and its projection)
/// references is inside the base arity. Lowering asserts this once per
/// run — the interpreter then indexes cells directly.
fn fused_in_bounds(
    ops: &[FusedOp],
    project: Option<&(Vec<usize>, Vec<String>)>,
    arity: usize,
) -> bool {
    ops.iter().all(|op| op.cols().iter().all(|&c| c < arity))
        && project.is_none_or(|(cols, _)| cols.iter().all(|&c| c < arity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Operand;
    use iflex_alog::CmpOp;
    use iflex_ctable::Value;

    fn cmp(l: usize, r: usize) -> FusedOp {
        FusedOp::Compare {
            left: Operand::Col(l),
            op: CmpOp::Eq,
            right: Operand::Col(r),
            offset: 0.0,
        }
    }

    #[test]
    fn bounds_check_accepts_resolved_indices() {
        let ops = vec![
            cmp(0, 2),
            FusedOp::VarUnify { col_a: 1, col_b: 2 },
            FusedOp::FilterProc {
                name: "p".into(),
                cols: vec![0, 1, 2],
            },
        ];
        let project = (vec![2, 0], vec!["a".into(), "b".into()]);
        assert!(fused_in_bounds(&ops, Some(&project), 3));
        // Constants reference no column and never fail the check.
        let const_only = vec![FusedOp::Compare {
            left: Operand::Const(Value::Num(1.0)),
            op: CmpOp::Lt,
            right: Operand::Const(Value::Num(2.0)),
            offset: 0.0,
        }];
        assert!(fused_in_bounds(&const_only, None, 0));
    }

    #[test]
    fn bounds_check_rejects_out_of_range() {
        assert!(!fused_in_bounds(&[cmp(0, 3)], None, 3));
        assert!(!fused_in_bounds(
            &[FusedOp::VarUnify { col_a: 5, col_b: 0 }],
            None,
            2
        ));
        let project = (vec![4], vec!["x".into()]);
        assert!(!fused_in_bounds(&[], Some(&project), 3));
    }
}
