//! Plan analysis: arity, cardinality, and selectivity estimation.
//!
//! Leaf cardinalities are exact (the engine hands the optimizer actual
//! table sizes); everything above is modeled. Selectivities come from
//! two sources: measured per-feature pass rates ([`FeatStats`], tallied
//! on every constraint application and kept in the engine's shared
//! [`FeatureStats`]) and closed-form defaults for operators with no
//! measured signal. The estimates only steer *which* byte-exact rewrite
//! fires — a bad estimate can cost speed, never correctness.

use super::OptCtx;
use crate::plan::{FusedOp, Operand, Plan};
use iflex_alog::CmpOp;
use iflex_ctable::{Assignment, Cell};
use std::collections::HashMap;
use std::sync::Mutex;

/// Per-feature call statistics: what the selectivity model ranks
/// constraints by. A feature whose `Verify` mostly returns false, or
/// whose `Refine` shrinks its input a lot, is *selective* and worth
/// running early.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeatStats {
    /// Constraint applications (one per cell).
    pub verify_calls: u64,
    /// Applications that left the cell non-empty.
    pub verify_true: u64,
    /// Applications to a cell with a `contain` region to refine.
    pub refine_calls: u64,
    /// Total assignments those applications produced.
    pub refine_out: u64,
}

impl FeatStats {
    /// Estimated pass rate in `[0, 1]`: fraction of probes this feature
    /// lets through. `None` until enough calls have been observed to
    /// trust the estimate.
    pub fn pass_rate(&self) -> Option<f64> {
        let calls = self.verify_calls + self.refine_calls;
        if calls < 8 {
            return None;
        }
        // A refine call "passes" to the extent it produces output; cap
        // the per-call contribution at 1 so prolific refines don't look
        // anti-selective.
        let passed = self.verify_true as f64 + (self.refine_out as f64).min(self.refine_calls as f64);
        Some((passed / calls as f64).clamp(0.0, 1.0))
    }

    /// Counts one constraint application that turned `input` into `out`.
    pub fn note(&mut self, input: &Cell, out: &Cell) {
        self.verify_calls += 1;
        self.verify_true += u64::from(!out.is_empty());
        if input.assignments().iter().any(|a| matches!(a, Assignment::Contain(_))) {
            self.refine_calls += 1;
            self.refine_out = self.refine_out.saturating_add(out.assignments().len() as u64);
        }
    }

    fn add(&mut self, other: &FeatStats) {
        self.verify_calls += other.verify_calls;
        self.verify_true += other.verify_true;
        self.refine_calls += other.refine_calls;
        self.refine_out = self.refine_out.saturating_add(other.refine_out);
    }
}

/// The measured [`FeatStats`] of every feature, shared (by `Arc`) by an
/// engine, its snapshots, forks of its core and every morsel worker.
/// Evaluation never touches it per call: a morsel tallies its steps
/// locally and [`FeatureStats::fold`]s them in once, so the lock is
/// taken once per morsel and a name allocated once per feature.
#[derive(Debug, Default)]
pub struct FeatureStats {
    map: Mutex<HashMap<String, FeatStats>>,
}

impl FeatureStats {
    /// Adds per-feature tallies; all-zero tallies are skipped, and the
    /// lock is not taken when nothing is left.
    pub fn fold<'a>(&self, tallies: impl IntoIterator<Item = (&'a str, &'a FeatStats)>) {
        let mut map = None;
        for (feature, t) in tallies {
            if t.verify_calls == 0 {
                continue;
            }
            let map = map.get_or_insert_with(|| self.map.lock().unwrap_or_else(|p| p.into_inner()));
            match map.get_mut(feature) {
                Some(s) => s.add(t),
                None => {
                    map.insert(feature.to_string(), *t);
                }
            }
        }
    }

    /// A copy of the current statistics, for one optimizer call.
    pub fn snapshot(&self) -> HashMap<String, FeatStats> {
        self.map.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Forgets everything (the feature registry changed).
    pub fn clear(&self) {
        self.map.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }
}

/// A scanned relation's arity, from the context.
pub fn relation_arity(ctx: &OptCtx<'_>, name: &str) -> Option<usize> {
    Some(ctx.relations.get(name)?.0)
}

/// Arity (column count) of a plan's output schema. `None` when a scanned
/// relation is unknown to the context.
pub fn arity(p: &Plan, ctx: &OptCtx<'_>) -> Option<usize> {
    p.arity(&|name| relation_arity(ctx, name))
}

/// Product of leaf cardinalities: the rows the rule would touch with no
/// selection at all (denominator of the whole-rule selectivity figure).
pub fn input_rows(p: &Plan, ctx: &OptCtx<'_>) -> Option<f64> {
    match p {
        Plan::ScanExt { name } | Plan::ScanRel { name } => Some(ctx.relations.get(name)?.1 as f64),
        _ => p.inputs().try_fold(1.0, |rows, input| Some(rows * input_rows(input, ctx)?)),
    }
}

/// Estimated output cardinality under the selectivity model.
pub fn est_rows(p: &Plan, ctx: &OptCtx<'_>, model: &SelModel<'_>) -> Option<f64> {
    let rows = match p {
        Plan::ScanExt { name } | Plan::ScanRel { name } => {
            return Some(ctx.relations.get(name)?.1 as f64)
        }
        _ => p.inputs().try_fold(1.0, |rows, input| Some(rows * est_rows(input, ctx, model)?))?,
    };
    Some(match p {
        Plan::Pass { steps, .. } => {
            steps.iter().fold(rows, |rows, step| rows * model.selectivity(step))
        }
        _ => rows,
    })
}

/// The selectivity / cost model behind the reordering pass and the
/// rule's estimated output rows.
pub struct SelModel<'a> {
    stats: &'a HashMap<String, FeatStats>,
}

impl<'a> SelModel<'a> {
    /// A model over one [`FeatureStats::snapshot`].
    pub fn new(stats: &'a HashMap<String, FeatStats>) -> Self {
        SelModel { stats }
    }

    /// Estimated fraction of tuples the step lets through.
    pub fn selectivity(&self, op: &FusedOp) -> f64 {
        match op {
            FusedOp::Constraint { constraint, .. } => self
                .stats
                .get(&constraint.feature)
                .and_then(FeatStats::pass_rate)
                // Constraints mostly shrink cells rather than drop whole
                // tuples; default near-neutral until measured.
                .unwrap_or(0.8),
            FusedOp::Compare { op, left, right, .. } => {
                let const_side = matches!(left, Operand::Const(_))
                    || matches!(right, Operand::Const(_));
                match op {
                    // Superset semantics keep a pair unless it *must*
                    // fail, so equality against a constant is the most
                    // selective shape; column-column equality less so.
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
    pub fn cost(&self, op: &FusedOp) -> f64 {
        match op {
            // Refinement worklists re-check the whole prior chain.
            FusedOp::Constraint { priors, .. } => 8.0 + 2.0 * priors.len() as f64,
            FusedOp::FilterProc { .. } => 4.0,
            FusedOp::Compare { .. } | FusedOp::VarUnify { .. } | FusedOp::Extract { .. } => 1.0,
        }
    }

    /// Scheduling rank: classic `(selectivity − 1) / cost`, most
    /// negative first — cheap, highly selective steps run earliest.
    pub fn rank(&self, op: &FusedOp) -> f64 {
        (self.selectivity(op) - 1.0) / self.cost(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_ctable::Value;
    use iflex_text::{DocId, Span};

    #[test]
    fn feature_stats_accumulate_and_rate() {
        let exact = Cell::exact(Value::Num(1.0));
        let empty = Cell::of(Vec::new());
        let contain = Cell::contain(Span {
            doc: DocId(0),
            start: 0,
            end: 4,
        });
        let mut picky = FeatStats::default();
        for i in 0..10 {
            picky.note(&exact, if i == 0 { &exact } else { &empty });
        }
        picky.note(&contain, &empty);
        let mut lenient = FeatStats::default();
        for _ in 0..10 {
            lenient.note(&exact, &exact);
        }
        let table = FeatureStats::default();
        table.fold([("picky", &picky), ("lenient", &lenient)]);
        let stats = table.snapshot();
        let picky = stats["picky"];
        assert_eq!((picky.verify_calls, picky.verify_true), (11, 1));
        assert_eq!((picky.refine_calls, picky.refine_out), (1, 0));
        assert!(picky.pass_rate().unwrap() < 0.2);
        assert!(stats["lenient"].pass_rate().unwrap() > 0.9);
        // too few observations → no estimate
        let mut rare = FeatStats::default();
        rare.note(&exact, &exact);
        table.fold([("rare", &rare)]);
        assert!(table.snapshot()["rare"].pass_rate().is_none());
        // folding adds; all-zero tallies leave no entry; clear forgets
        table.fold([("rare", &rare), ("unused", &FeatStats::default())]);
        let stats = table.snapshot();
        assert_eq!(stats["rare"].verify_calls, 2);
        assert!(!stats.contains_key("unused"));
        table.clear();
        assert!(table.snapshot().is_empty());
    }
}
