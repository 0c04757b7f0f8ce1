//! The cost-driven rewrite passes. Every rewrite here is byte-exact by
//! construction (see the module docs in [`super`]): pushdown moves whole
//! same-side steps across a join, reordering only permutes steps with
//! disjoint column sets, and join flips are compensated at execution
//! time by order-restoring index sorts.

use super::analyze::{self, SelModel};
use super::node::{peel, LNode};
use super::{OptCtx, OptReport};
use crate::plan::FusedOp;

/// Pass 1: sink single-side selections below cross joins (recursively,
/// so a step can cross several nested joins). Steps whose columns span
/// both sides — or that read no columns at all — stay put.
pub fn pushdown(n: LNode, ctx: &OptCtx<'_>, report: &mut OptReport) -> Option<LNode> {
    Some(match n {
        LNode::Select { input, op } => {
            let input = pushdown(*input, ctx, report)?;
            sink(op, input, ctx, report)?
        }
        LNode::FromExtract { input, in_col } => LNode::FromExtract {
            input: Box::new(pushdown(*input, ctx, report)?),
            in_col,
        },
        LNode::GenerateProc {
            input,
            name,
            in_cols,
            out_arity,
        } => LNode::GenerateProc {
            input: Box::new(pushdown(*input, ctx, report)?),
            name,
            in_cols,
            out_arity,
        },
        LNode::Join {
            left,
            right,
            outer_right,
        } => LNode::Join {
            left: Box::new(pushdown(*left, ctx, report)?),
            right: Box::new(pushdown(*right, ctx, report)?),
            outer_right,
        },
        LNode::Project { input, cols, names } => LNode::Project {
            input: Box::new(pushdown(*input, ctx, report)?),
            cols,
            names,
        },
        LNode::Annotate {
            input,
            existence,
            annotated,
        } => LNode::Annotate {
            input: Box::new(pushdown(*input, ctx, report)?),
            existence,
            annotated,
        },
        leaf @ LNode::Leaf { .. } => leaf,
    })
}

/// Pushes one selection step as deep as it can go into `input`. On the
/// way down it may commute past other selections whose column sets are
/// disjoint (independent drops over disjoint cells — byte-exact), which
/// is what lets a late σ reach a join buried under the branch-merging
/// comparison that forced the join in the first place.
fn sink(op: FusedOp, input: LNode, ctx: &OptCtx<'_>, report: &mut OptReport) -> Option<LNode> {
    match input {
        LNode::Select {
            input: inner_input,
            op: inner_op,
        } => {
            let cols = op.cols();
            let inner_cols = inner_op.cols();
            let disjoint = !cols.is_empty() && !cols.iter().any(|c| inner_cols.contains(c));
            if disjoint && sinks_into_join(&op, &inner_input, ctx) {
                let sunk = sink(op, *inner_input, ctx, report)?;
                Some(LNode::Select {
                    input: Box::new(sunk),
                    op: inner_op,
                })
            } else {
                Some(LNode::Select {
                    input: Box::new(LNode::Select {
                        input: inner_input,
                        op: inner_op,
                    }),
                    op,
                })
            }
        }
        LNode::Join {
            left,
            right,
            outer_right,
        } => {
            let cols = op.cols();
            let la = analyze::arity(&left, ctx)?;
            if !cols.is_empty() && cols.iter().all(|&c| c < la) {
                report.pushdowns += 1;
                let left = sink(op, *left, ctx, report)?;
                Some(LNode::Join {
                    left: Box::new(left),
                    right,
                    outer_right,
                })
            } else if !cols.is_empty() && cols.iter().all(|&c| c >= la) {
                report.pushdowns += 1;
                let right = sink(shift_down(op, la), *right, ctx, report)?;
                Some(LNode::Join {
                    left,
                    right: Box::new(right),
                    outer_right,
                })
            } else {
                Some(LNode::Select {
                    input: Box::new(LNode::Join {
                        left,
                        right,
                        outer_right,
                    }),
                    op,
                })
            }
        }
        other => Some(LNode::Select {
            input: Box::new(other),
            op,
        }),
    }
}

/// Would `op` actually cross a join if sunk through the selection chain
/// below? Commuting past disjoint selections is only done when it ends
/// at a sinkable join — otherwise the step stays put and the
/// selectivity reorderer decides the chain's final order (with
/// attribution under the right counter).
fn sinks_into_join(op: &FusedOp, node: &LNode, ctx: &OptCtx<'_>) -> bool {
    let cols = op.cols();
    if cols.is_empty() {
        return false;
    }
    match node {
        LNode::Select { input, op: inner } => {
            let inner_cols = inner.cols();
            !cols.iter().any(|c| inner_cols.contains(c)) && sinks_into_join(op, input, ctx)
        }
        LNode::Join { left, .. } => match analyze::arity(left, ctx) {
            Some(la) => cols.iter().all(|&c| c < la) || cols.iter().all(|&c| c >= la),
            None => false,
        },
        _ => false,
    }
}

/// Rebases a right-side step's columns onto the right input's schema.
fn shift_down(op: FusedOp, la: usize) -> FusedOp {
    use crate::plan::Operand;
    match op {
        FusedOp::Constraint {
            col,
            constraint,
            priors,
        } => FusedOp::Constraint {
            col: col - la,
            constraint,
            priors,
        },
        FusedOp::Compare {
            left,
            op,
            right,
            offset,
        } => {
            let shift = |o: Operand| match o {
                Operand::Col(c) => Operand::Col(c - la),
                c => c,
            };
            FusedOp::Compare {
                left: shift(left),
                op,
                right: shift(right),
                offset,
            }
        }
        FusedOp::VarUnify { col_a, col_b } => FusedOp::VarUnify {
            col_a: col_a - la,
            col_b: col_b - la,
        },
        FusedOp::FilterProc { name, cols } => FusedOp::FilterProc {
            name,
            cols: cols.into_iter().map(|c| c - la).collect(),
        },
    }
}

/// Pass 2: reschedule each maximal selection chain cheapest-and-most-
/// selective first, keeping the source order of any two steps whose
/// column sets overlap (their relative order is semantically binding —
/// §4.2 prior re-checks, cell refinement before candidate enumeration).
pub fn reorder(n: LNode, model: &SelModel<'_>, report: &mut OptReport) -> LNode {
    match n {
        LNode::Select { .. } => {
            let (ops, base) = peel(n);
            let base = reorder(base, model, report);
            let order = schedule(&ops, model);
            report.reorders += order
                .iter()
                .enumerate()
                .filter(|&(pos, &i)| pos != i)
                .count() as u32;
            let mut out = base;
            let mut ops: Vec<Option<FusedOp>> = ops.into_iter().map(Some).collect();
            for i in order {
                let op = ops[i].take().expect("schedule emits each step once");
                out = LNode::Select {
                    input: Box::new(out),
                    op,
                };
            }
            out
        }
        LNode::FromExtract { input, in_col } => LNode::FromExtract {
            input: Box::new(reorder(*input, model, report)),
            in_col,
        },
        LNode::GenerateProc {
            input,
            name,
            in_cols,
            out_arity,
        } => LNode::GenerateProc {
            input: Box::new(reorder(*input, model, report)),
            name,
            in_cols,
            out_arity,
        },
        LNode::Join {
            left,
            right,
            outer_right,
        } => LNode::Join {
            left: Box::new(reorder(*left, model, report)),
            right: Box::new(reorder(*right, model, report)),
            outer_right,
        },
        LNode::Project { input, cols, names } => LNode::Project {
            input: Box::new(reorder(*input, model, report)),
            cols,
            names,
        },
        LNode::Annotate {
            input,
            existence,
            annotated,
        } => LNode::Annotate {
            input: Box::new(reorder(*input, model, report)),
            existence,
            annotated,
        },
        leaf @ LNode::Leaf { .. } => leaf,
    }
}

/// Greedy list scheduling over the chain's dependency partial order:
/// repeatedly emit the ready step with the best (lowest) rank; ties keep
/// the earliest source position, so equal-rank chains are untouched and
/// the result is deterministic.
fn schedule(ops: &[FusedOp], model: &SelModel<'_>) -> Vec<usize> {
    let n = ops.len();
    let conflicts = |a: &FusedOp, b: &FusedOp| -> bool {
        let ca = a.cols();
        b.cols().iter().any(|c| ca.contains(c))
    };
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            if emitted[i] {
                continue;
            }
            let ready = (0..i).all(|j| emitted[j] || !conflicts(&ops[i], &ops[j]));
            if !ready {
                continue;
            }
            let r = model.rank(&ops[i]);
            if best.is_none_or(|(br, _)| r < br - 1e-12) {
                best = Some((r, i));
            }
        }
        let (_, i) = best.expect("some unemitted step is always ready");
        emitted[i] = true;
        order.push(i);
    }
    order
}

/// Is this step the interpreter's specialized token-prefilter similarity
/// join: a `similar`/`approxMatch` filter with exactly one column on
/// each side, left side first, of a join with left arity `la`? Returns
/// the left input's column and the right input's (rebased) column.
pub(crate) fn straddling_similar(op: &FusedOp, la: usize) -> Option<(usize, usize)> {
    match op {
        FusedOp::FilterProc { name, cols } if name == "similar" || name == "approxMatch" => {
            match cols.as_slice() {
                [a, b] if *a < la && *b >= la => Some((*a, *b - la)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Pass 3: orient each cross join so its larger input becomes the outer
/// (sharded) loop — better parallel granularity and a cache-resident
/// inner side. Joins feeding the specialized similarity filter keep the
/// compiler's orientation (that path shards the left side by design).
pub fn orient_joins(
    n: LNode,
    ctx: &OptCtx<'_>,
    model: &SelModel<'_>,
    report: &mut OptReport,
) -> Option<LNode> {
    Some(match n {
        LNode::Select { input, op } => {
            // Detect (and protect) the similarity-join specialization.
            if let LNode::Join {
                left,
                right,
                outer_right,
            } = *input
            {
                let la = analyze::arity(&left, ctx)?;
                if straddling_similar(&op, la).is_some() {
                    let left = orient_joins(*left, ctx, model, report)?;
                    let right = orient_joins(*right, ctx, model, report)?;
                    return Some(LNode::Select {
                        input: Box::new(LNode::Join {
                            left: Box::new(left),
                            right: Box::new(right),
                            outer_right,
                        }),
                        op,
                    });
                }
                let join = orient_joins(
                    LNode::Join {
                        left,
                        right,
                        outer_right,
                    },
                    ctx,
                    model,
                    report,
                )?;
                LNode::Select {
                    input: Box::new(join),
                    op,
                }
            } else {
                LNode::Select {
                    input: Box::new(orient_joins(*input, ctx, model, report)?),
                    op,
                }
            }
        }
        LNode::Join {
            left,
            right,
            outer_right,
        } => {
            let lrows = analyze::est_rows(&left, ctx, model)?;
            let rrows = analyze::est_rows(&right, ctx, model)?;
            let left = Box::new(orient_joins(*left, ctx, model, report)?);
            let right = Box::new(orient_joins(*right, ctx, model, report)?);
            // Hysteresis: only flip on a clear margin, so estimate noise
            // near parity doesn't churn plans between runs.
            let flip = rrows > lrows * 2.0;
            if flip && !outer_right {
                report.join_flips += 1;
            }
            LNode::Join {
                left,
                right,
                outer_right: outer_right || flip,
            }
        }
        LNode::FromExtract { input, in_col } => LNode::FromExtract {
            input: Box::new(orient_joins(*input, ctx, model, report)?),
            in_col,
        },
        LNode::GenerateProc {
            input,
            name,
            in_cols,
            out_arity,
        } => LNode::GenerateProc {
            input: Box::new(orient_joins(*input, ctx, model, report)?),
            name,
            in_cols,
            out_arity,
        },
        LNode::Project { input, cols, names } => LNode::Project {
            input: Box::new(orient_joins(*input, ctx, model, report)?),
            cols,
            names,
        },
        LNode::Annotate {
            input,
            existence,
            annotated,
        } => LNode::Annotate {
            input: Box::new(orient_joins(*input, ctx, model, report)?),
            existence,
            annotated,
        },
        leaf @ LNode::Leaf { .. } => leaf,
    })
}
