//! Logical-plan optimizer (DESIGN.md §11).
//!
//! Sits between the rule compiler ([`crate::plan::compile_rule`]) and the
//! interpreter ([`crate::exec`]): the compiled [`Plan`] is rebuilt as a
//! [`node::LNode`] tree, analyzed for arity / cardinality / selectivity, run
//! through cost-driven rewrite passes, and lowered back to a physical
//! [`Plan`] with adjacent σ/constraint/π operators fused into single
//! batch passes ([`crate::plan::Plan::Fused`]).
//!
//! The passes, in order:
//!
//! 1. **σ pushdown** — selections touching only one side of a cross join
//!    sink below it (and keep sinking through nested joins), so per-side
//!    filtering happens before the product is formed.
//! 2. **selectivity reordering** — runs of adjacent selections are
//!    rescheduled cheapest-and-most-selective first, *only* across steps
//!    with disjoint column sets (steps sharing a column keep their
//!    source order, which the §4.2 prior-recheck worklist depends on).
//!    Constraint selectivities are seeded from the per-feature
//!    [`FeatStats`] the pass evaluator tallies.
//! 3. **join orientation** — the larger input becomes the sharded outer
//!    loop of a fused join; output order is restored by index-sorting,
//!    so results are unchanged.
//! 4. **fusion** — each remaining run of selections (plus a trailing
//!    projection) becomes one [`Plan::Fused`] pass; a fused pass over a
//!    cross join streams the product pairwise instead of materializing
//!    it.
//!
//! Every pass preserves results **byte-for-byte**, not just up to
//! worlds-equivalence: moves are restricted to transformations that
//! provably commute at the tuple/cell level (disjoint columns, whole
//! same-side chains, order-compensated join flips). This is what lets
//! `Limits::use_optimizer` be a pure ablation knob, and why incremental
//! cache fingerprints — which hash the *pre-optimization* unfolded rule
//! (see [`crate::plan::rule_fingerprint`]) — remain valid for optimized
//! and unoptimized executions alike.

mod analyze;
mod lower;
mod node;
mod rewrite;

pub(crate) use analyze::{FeatStats, FeatureStats};
pub(crate) use rewrite::straddling_similar;

use crate::plan::Plan;
use std::collections::{BTreeMap, HashMap};

/// What the optimizer knows about the world at rewrite time.
pub struct OptCtx<'a> {
    /// Relation name → (arity, current row count). Covers every
    /// extensional table and every intensional relation computed earlier
    /// in evaluation order; row counts are *actual* sizes, so the
    /// cardinality model is exact at the leaves.
    pub relations: &'a BTreeMap<String, (usize, usize)>,
    /// Per-feature call statistics ([`FeatureStats::snapshot`]); seeds
    /// constraint selectivities.
    pub stats: &'a HashMap<String, FeatStats>,
}

/// What the optimizer did to one plan, for `engine.opt.*` counters and
/// the EXPLAIN rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptReport {
    /// Selections sunk below a join (one count per join crossed).
    pub pushdowns: u32,
    /// Selection steps moved by the selectivity reordering pass.
    pub reorders: u32,
    /// Joins whose outer loop was flipped to the larger input.
    pub join_flips: u32,
    /// `Fused` nodes emitted.
    pub fused_nodes: u32,
    /// Selection steps folded into `Fused` nodes.
    pub fused_steps: u32,
    /// Estimated rows entering the rule (product of leaf cardinalities).
    pub est_in_rows: f64,
    /// Estimated rows leaving the rule (after modeled selectivities).
    pub est_out_rows: f64,
}

impl OptReport {
    /// Estimated whole-rule selectivity in `[0, 1]`.
    pub fn est_selectivity(&self) -> f64 {
        if self.est_in_rows > 0.0 {
            (self.est_out_rows / self.est_in_rows).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }

    /// One-line summary for EXPLAIN output.
    pub fn summary(&self) -> String {
        format!(
            "pushdowns={} reorders={} join_flips={} fused={}({} steps) est_sel={:.4}",
            self.pushdowns,
            self.reorders,
            self.join_flips,
            self.fused_nodes,
            self.fused_steps,
            self.est_selectivity()
        )
    }
}

/// Optimizes one compiled plan. Returns `None` when the plan contains a
/// shape the optimizer does not model (already-fused nodes, relations
/// missing from `ctx`) — the caller then runs the original plan, which
/// is always correct.
pub fn optimize(plan: &Plan, ctx: &OptCtx<'_>) -> Option<(Plan, OptReport)> {
    let mut report = OptReport::default();
    let node = node::build(plan)?;
    report.est_in_rows = analyze::input_rows(&node, ctx)?;
    let model = analyze::SelModel::new(ctx.stats);
    let node = rewrite::pushdown(node, ctx, &mut report)?;
    let node = rewrite::reorder(node, &model, &mut report);
    let node = rewrite::orient_joins(node, ctx, &model, &mut report)?;
    report.est_out_rows = analyze::est_rows(&node, ctx, &model)?;
    let plan = lower::lower(node, ctx, &mut report)?;
    Some((plan, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_rule, CompileEnv, FusedOp};
    use iflex_alog::parse_rule;

    fn ctx_maps() -> (BTreeMap<String, (usize, usize)>, HashMap<String, FeatStats>) {
        let mut rel = BTreeMap::new();
        rel.insert("small".to_string(), (1, 10));
        rel.insert("big".to_string(), (1, 1000));
        rel.insert("r2".to_string(), (2, 50));
        (rel, HashMap::new())
    }

    fn compile(src: &str) -> Plan {
        let mut ext = BTreeMap::new();
        ext.insert("small".to_string(), 1);
        ext.insert("big".to_string(), 1);
        ext.insert("r2".to_string(), 2);
        let int = BTreeMap::new();
        let mut procs = BTreeMap::new();
        procs.insert("similar".to_string(), (true, 0));
        let env = CompileEnv {
            extensional: &ext,
            intensional: &int,
            procedures: &procs,
        };
        compile_rule(&parse_rule(src).unwrap(), &env).unwrap()
    }

    fn optimize_src(src: &str) -> (Plan, OptReport) {
        let (rel, stats) = ctx_maps();
        let ctx = OptCtx {
            relations: &rel,
            stats: &stats,
        };
        optimize(&compile(src), &ctx).expect("optimizable")
    }

    #[test]
    fn pushdown_sinks_post_join_selection() {
        // numeric(b) appears after `x < a` merges the branches, so the
        // compiler leaves it above the join; its column is disjoint from
        // the comparison's, so the optimizer must commute it past the
        // comparison and sink it into the right branch.
        let (plan, report) =
            optimize_src("q(x, a, b) :- small(x), r2(a, b), x < a, numeric(b) = yes.");
        assert!(report.pushdowns >= 1, "report: {report:?}");
        let explained = plan.explain();
        let join = explained.find("CrossJoin").unwrap();
        let numeric = explained.find("numeric").unwrap();
        assert!(numeric > join, "σ must print below the join:\n{explained}");
    }

    #[test]
    fn pushdown_keeps_shared_column_order() {
        // numeric(a) shares column `a` with the straddling similar()
        // filter: sinking it past the filter would reorder two steps on a
        // shared column — forbidden (candidate enumeration over a refined
        // vs. unrefined cell differs). It must stay above.
        let (plan, report) = optimize_src(
            "q(a, b) :- small(x), from(#x, a), big(y), from(#y, b), \
             similar(#a, #b), numeric(a) = yes.",
        );
        assert_eq!(report.pushdowns, 0, "report: {report:?}");
        let explained = plan.explain();
        let sim = explained.find("similar").unwrap();
        let numeric = explained.find("numeric").unwrap();
        assert!(numeric < sim, "σ must stay above the filter:\n{explained}");
    }

    #[test]
    fn similar_filter_specialization_is_preserved() {
        let (plan, _) = optimize_src(
            "q(a, b) :- small(x), from(#x, a), big(y), from(#y, b), similar(#a, #b).",
        );
        let explained = plan.explain();
        // The straddling similar filter must stay a one-step Select
        // directly above the CrossJoin so exec's token-prefilter join
        // specialization still applies.
        assert!(
            explained.contains("Filter[similar"),
            "similar specialization lost:\n{explained}"
        );
    }

    #[test]
    fn join_flips_to_larger_outer() {
        let (plan, report) = optimize_src("q(x, y) :- small(x), big(y), x = \"a\".");
        // left branch small(10) + σ, right big(1000): outer should flip.
        assert!(report.join_flips >= 1, "report: {report:?}");
        assert!(plan.explain().contains("outer=right"), "{}", plan.explain());
    }

    #[test]
    fn adjacent_selections_fuse_with_projection() {
        let (plan, report) = optimize_src(
            "q(a) :- small(x), from(#x, a), numeric(a) = yes, min-value(a) = 10.",
        );
        assert!(report.fused_nodes >= 1, "report: {report:?}");
        assert!(report.fused_steps >= 2, "report: {report:?}");
        let explained = plan.explain();
        assert!(explained.contains("Fused["), "{explained}");
        assert!(explained.contains("π["), "{explained}");
    }

    #[test]
    fn single_selection_stays_standalone() {
        // One σ, no trailing π on the branch below FromExtract: nothing
        // worth fusing there.
        let (plan, _) = optimize_src("q(x) :- small(x).");
        assert!(!plan.explain().contains("Fused["), "{}", plan.explain());
    }

    #[test]
    fn reorder_respects_same_column_chains() {
        // Two constraints on the same variable must keep source order no
        // matter what the stats say.
        let mut stats = HashMap::new();
        stats.insert(
            "numeric".to_string(),
            FeatStats {
                verify_calls: 100,
                verify_true: 99,
                refine_calls: 0,
                refine_out: 0,
            },
        );
        stats.insert(
            "min-value".to_string(),
            FeatStats {
                verify_calls: 100,
                verify_true: 1,
                refine_calls: 0,
                refine_out: 0,
            },
        );
        let (rel, _) = ctx_maps();
        let ctx = OptCtx {
            relations: &rel,
            stats: &stats,
        };
        let plan = compile(
            "q(a) :- small(x), from(#x, a), numeric(a) = yes, min-value(a) = 10.",
        );
        let (opt, report) = optimize(&plan, &ctx).unwrap();
        assert_eq!(report.reorders, 0, "same-column chain must not move");
        if let Plan::Fused { ops, .. } = find_fused(&opt).expect("fused node") {
            let feats: Vec<&str> = ops
                .iter()
                .filter_map(|o| match o {
                    FusedOp::Constraint { constraint, .. } => Some(constraint.feature.as_str()),
                    _ => None,
                })
                .collect();
            assert_eq!(feats, ["numeric", "min-value"], "source order kept");
        }
    }

    #[test]
    fn reorder_moves_selective_disjoint_op_first() {
        // A highly selective cheap comparison on column y should run
        // before a barely-selective constraint on column a.
        let mut stats = HashMap::new();
        stats.insert(
            "numeric".to_string(),
            FeatStats {
                verify_calls: 100,
                verify_true: 99,
                refine_calls: 0,
                refine_out: 0,
            },
        );
        let (rel, _) = ctx_maps();
        let ctx = OptCtx {
            relations: &rel,
            stats: &stats,
        };
        let plan = compile("q(a, y) :- r2(x, y), from(#x, a), numeric(a) = yes, y = 5.");
        let (opt, report) = optimize(&plan, &ctx).unwrap();
        assert!(report.reorders >= 1, "report: {report:?}");
        if let Plan::Fused { ops, .. } = find_fused(&opt).expect("fused node") {
            assert!(
                matches!(ops[0], FusedOp::Compare { .. }),
                "comparison should be scheduled first: {ops:?}"
            );
        }
    }

    #[test]
    fn unknown_relation_aborts_optimization() {
        let (_, stats) = ctx_maps();
        let rel = BTreeMap::new(); // nothing known
        let ctx = OptCtx {
            relations: &rel,
            stats: &stats,
        };
        let plan = compile("q(x) :- small(x), x = 5.");
        assert!(optimize(&plan, &ctx).is_none());
    }

    fn find_fused(p: &Plan) -> Option<&Plan> {
        match p {
            Plan::Fused { .. } => Some(p),
            Plan::Annotate { input, .. }
            | Plan::Project { input, .. }
            | Plan::FromExtract { input, .. }
            | Plan::Select { input, .. }
            | Plan::GenerateProc { input, .. } => find_fused(input),
            Plan::CrossJoin { left, right } => find_fused(left).or_else(|| find_fused(right)),
            Plan::ScanExt { .. } | Plan::ScanRel { .. } => None,
        }
    }
}
