//! The rewrite passes, each editing a [`Plan`] in place. The rewrites
//! are byte-exact by construction, with the one `similar` exception
//! the module docs in [`super`] name: merging only regroups the same
//! steps into passes, and reordering only permutes steps with disjoint
//! column sets.

use super::{analyze, OptReport, Relations};
use crate::plan::{extracts, FusedOp, Plan};

/// Pass 0: merge each chain of passes into one — a pass whose input is a
/// pass without a projection takes over that pass's steps (they apply
/// first) and its input.
pub fn merge(p: &mut Plan) {
    p.inputs_mut().for_each(merge);
    if let Plan::Pass { input, steps, .. } = p {
        if let Plan::Pass { project: None, .. } = **input {
            if let Plan::Pass {
                input: inner,
                steps: mut first,
                ..
            } = input.take()
            {
                first.append(steps);
                *steps = first;
                *input = inner;
            }
        }
    }
}

/// Pass 1: reschedule each pass's steps cheapest-and-most-selective
/// first, keeping the source order of any two steps whose column sets
/// overlap (their relative order is semantically binding — §4.2 prior
/// re-checks, cell refinement before candidate enumeration).
pub fn reorder(p: &mut Plan, report: &mut OptReport) {
    for input in p.inputs_mut() {
        reorder(input, report);
    }
    if let Plan::Pass { steps, .. } = p {
        let order = schedule(steps);
        report.reorders += order
            .iter()
            .enumerate()
            .filter(|&(pos, &i)| pos != i)
            .count() as u32;
        let mut source: Vec<Option<FusedOp>> =
            std::mem::take(steps).into_iter().map(Some).collect();
        *steps = order
            .into_iter()
            .map(|i| source[i].take().expect("schedule emits each step once"))
            .collect();
    }
}

/// Greedy list scheduling over the steps' dependency partial order:
/// repeatedly emit the ready step with the best (lowest) rank; ties keep
/// the earliest source position, so equal-rank passes are untouched and
/// the result is deterministic. A `from` step has selectivity 1, so by
/// its own rank it would wait behind every selective step and hold its
/// consumers back: it ranks by its most urgent consumer instead, running
/// just before that step and never ahead of a more selective one.
fn schedule(ops: &[FusedOp]) -> Vec<usize> {
    let n = ops.len();
    let conflicts = |a: &FusedOp, b: &FusedOp| -> bool {
        let ca = a.cols();
        b.cols().iter().any(|c| ca.contains(c))
    };
    let mut rank: Vec<f64> = ops.iter().map(analyze::rank).collect();
    for i in (0..n).rev() {
        if let FusedOp::Extract { col, .. } = ops[i] {
            let consumers = (i + 1..n).filter(|&j| ops[j].cols().contains(&col));
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
            let ready = (0..i).all(|j| emitted[j] || !conflicts(&ops[i], &ops[j]));
            if !ready {
                continue;
            }
            let r = rank[i];
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

/// Pass 2: check every pass's column indices against its schema, then
/// count the passes the interpreter runs fused (see [`Plan::fused`]).
pub fn count_fused(p: &Plan, rels: &Relations, report: &mut OptReport) {
    for input in p.inputs() {
        count_fused(input, rels, report);
    }
    let Plan::Pass {
        input,
        steps,
        project,
    } = p
    else {
        return;
    };
    // Column references are resolved to `usize` indices at compile time
    // and carried through rewriting untouched; re-check them against the
    // pass's schema here, once, so the interpreter's per-tuple bodies
    // index cells without a per-access name lookup.
    if let Some(arity) = analyze::arity(input, rels) {
        let arity = arity + extracts(steps);
        debug_assert!(
            in_bounds(steps, project.as_ref(), arity),
            "rewriting produced an out-of-bounds column index (arity {arity})"
        );
    }
    if p.fused() {
        report.fused_nodes += 1;
        report.fused_steps += steps.len() as u32;
    }
}

/// True when every column index a pass's steps (and its projection)
/// reference is inside the pass's schema of `arity` columns.
fn in_bounds(steps: &[FusedOp], project: Option<&(Vec<usize>, Vec<String>)>, arity: usize) -> bool {
    steps.iter().all(|op| op.cols().iter().all(|&c| c < arity))
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
        assert!(in_bounds(&ops, Some(&project), 3));
        // Constants reference no column and never fail the check.
        let const_only = vec![FusedOp::Compare {
            left: Operand::Const(Value::Num(1.0)),
            op: CmpOp::Lt,
            right: Operand::Const(Value::Num(2.0)),
            offset: 0.0,
        }];
        assert!(in_bounds(&const_only, None, 0));
    }

    #[test]
    fn bounds_check_rejects_out_of_range() {
        assert!(!in_bounds(&[cmp(0, 3)], None, 3));
        assert!(!in_bounds(&[FusedOp::VarUnify { col_a: 5, col_b: 0 }], None, 2));
        let project = (vec![4], vec!["x".into()]);
        assert!(!in_bounds(&[], Some(&project), 3));
    }
}
