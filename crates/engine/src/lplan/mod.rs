//! Logical-plan optimizer (DESIGN.md §11).
//!
//! Sits between the rule compiler ([`crate::plan::compile_rule`]) and the
//! interpreter ([`crate::exec`]) and rewrites the compiled [`Plan`] in
//! place — there is no second plan tree. The compiler emits one
//! [`Plan::Pass`] per selection step plus one for the head projection;
//! the optimizer analyzes arity / cardinality / selectivity and runs its
//! passes, in order:
//!
//! 0. **merge** — each chain of passes becomes one pass (its steps in
//!    application order, the chain's projection last).
//! 1. **selectivity reordering** — each pass's steps are rescheduled
//!    cheapest-and-most-selective first, *only* across steps with
//!    disjoint column sets (steps sharing a column keep their source
//!    order, which the §4.2 prior-recheck worklist depends on). The
//!    selectivities are static priors per step shape, so a plan depends
//!    only on its rule and the relation sizes: EXPLAIN prints the same
//!    plan before and after a session, and no session reorders
//!    another's plans.
//! 2. **bounds check and fused count** — every pass's column indices
//!    are checked against its schema, and every pass the interpreter
//!    runs fused ([`Plan::fused`]) is counted. A pass over a cross join
//!    streams the product's pairs instead of materializing it.
//!
//! Every pass preserves results **byte-for-byte**, not just up to
//! worlds-equivalence: moves are restricted to transformations that
//! provably commute at the tuple/cell level (disjoint columns) — with
//! one exception: scheduling a step ahead of a straddling `similar`
//! filter that was first over a cross join moves it off that pass's
//! token prefilter onto candidate enumeration, a different
//! approximation of the same predicate (DESIGN.md §11). The
//! byte-exactness is what makes `Limits::use_optimizer` an ablation
//! knob, and why incremental cache fingerprints — which hash the
//! *pre-optimization* unfolded rule (see
//! [`crate::plan::rule_fingerprint`]) — remain valid for optimized and
//! unoptimized executions alike.

mod analyze;
mod rewrite;

use crate::plan::Plan;
use std::collections::BTreeMap;

/// Relation name → (arity, current row count): what the optimizer knows
/// about the world at rewrite time. Covers every extensional table and
/// every intensional relation computed earlier in evaluation order; row
/// counts are *actual* sizes, so the cardinality model is exact at the
/// leaves.
pub type Relations = BTreeMap<String, (usize, usize)>;

/// What the optimizer did to one plan, for the `engine.opt.fused_nodes`
/// counter and the EXPLAIN rendering.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptReport {
    /// Selection steps moved by the selectivity reordering pass.
    pub reorders: u32,
    /// Fused passes in the optimized plan ([`Plan::fused`]).
    pub fused_nodes: u32,
    /// Selection steps in those passes.
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
            "reorders={} fused={}({} steps) est_sel={:.4}",
            self.reorders,
            self.fused_nodes,
            self.fused_steps,
            self.est_selectivity()
        )
    }
}

/// Optimizes one compiled plan in place. Returns `None`, with the plan
/// untouched, when it scans a relation missing from `rels` — the caller
/// then runs the original plan, which is always correct.
pub fn optimize(plan: &mut Plan, rels: &Relations) -> Option<OptReport> {
    // Every leaf is looked up here, before anything is rewritten; the
    // passes below cannot meet an unknown relation after this.
    let mut report = OptReport {
        est_in_rows: analyze::input_rows(plan, rels)?,
        ..OptReport::default()
    };
    rewrite::merge(plan);
    rewrite::reorder(plan, &mut report);
    report.est_out_rows = analyze::est_rows(plan, rels)?;
    rewrite::count_fused(plan, rels, &mut report);
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_rule, CompileEnv, FusedOp};
    use iflex_alog::parse_rule;

    fn rels() -> Relations {
        let mut rel = BTreeMap::new();
        rel.insert("small".to_string(), (1, 10));
        rel.insert("big".to_string(), (1, 1000));
        rel.insert("r2".to_string(), (2, 50));
        rel
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
        let mut plan = compile(src);
        let report = optimize(&mut plan, &rels()).expect("optimizable");
        (plan, report)
    }

    #[test]
    fn similar_filter_specialization_is_preserved() {
        let (plan, _) = optimize_src(
            "q(a, b) :- small(x), from(#x, a), big(y), from(#y, b), similar(#a, #b).",
        );
        // The straddling similar filter must stay the first step of the
        // pass directly over the CrossJoin, where the interpreter runs it
        // as the pass's token prefilter.
        assert_eq!(
            plan.explain(),
            "Fused[1 steps]\n\
             \x20 π[[1, 3] as [\"a\", \"b\"]]\n\
             \x20 Filter[similar[1, 3]]\n\
             \x20 CrossJoin\n\
             \x20   Fused[1 steps]\n\
             \x20     from(#0)→1\n\
             \x20     ScanExt(small)\n\
             \x20   Fused[1 steps]\n\
             \x20     from(#0)→1\n\
             \x20     ScanExt(big)\n"
        );
    }

    #[test]
    fn similar_then_comparison_over_a_join_keeps_its_plan() {
        // T9's top rule: the cheap comparison is scheduled ahead of the
        // similarity filter, so `similar` is no longer the first step over
        // the join — it runs inside the fused pairwise pass by candidate
        // enumeration, not as the pass's prefilter. Each side extracts and
        // constrains in one pass of its own below the join.
        let (plan, report) = optimize_src(
            "q(a) :- small(x), from(#x, a), from(#x, p), numeric(p) = yes, \
             big(y), from(#y, b), from(#y, c), numeric(c) = yes, \
             similar(#a, #b), p < c.",
        );
        assert_eq!(report.reorders, 2, "{report:?}");
        assert_eq!(
            (report.fused_nodes, report.fused_steps),
            (3, 8),
            "{report:?}"
        );
        assert_eq!(
            plan.explain(),
            "Fused[2 steps]\n\
             \x20 π[[1] as [\"a\"]]\n\
             \x20 Filter[similar[1, 4]]\n\
             \x20 σ[Col(2) < Col(5) + 0]\n\
             \x20 CrossJoin\n\
             \x20   Fused[3 steps]\n\
             \x20     σ[numeric(col 2) = yes]\n\
             \x20     from(#0)→2\n\
             \x20     from(#0)→1\n\
             \x20     ScanExt(small)\n\
             \x20   Fused[3 steps]\n\
             \x20     σ[numeric(col 2) = yes]\n\
             \x20     from(#0)→2\n\
             \x20     from(#0)→1\n\
             \x20     ScanExt(big)\n"
        );
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
        // A scan and its projection alone: nothing worth fusing.
        let (plan, _) = optimize_src("q(x) :- small(x).");
        assert!(!plan.explain().contains("Fused["), "{}", plan.explain());
    }

    #[test]
    fn reorder_respects_same_column_chains() {
        // `a = 5` outranks the constraint (a cheap, selective equality
        // against a constant) but shares its column, so the two keep
        // their source order.
        let (plan, report) =
            optimize_src("q(a) :- small(x), from(#x, a), numeric(a) = yes, a = 5.");
        assert_eq!(report.reorders, 0, "same-column chain must not move");
        let Some(Plan::Pass { steps, .. }) = find_fused(&plan) else {
            panic!("fused node:\n{}", plan.explain());
        };
        assert!(
            matches!(
                steps.as_slice(),
                [FusedOp::Extract { .. }, FusedOp::Constraint { .. }, FusedOp::Compare { .. }]
            ),
            "source order kept: {steps:?}"
        );
    }

    #[test]
    fn reorder_moves_selective_disjoint_op_first() {
        // A highly selective cheap comparison on column y should run
        // before a barely-selective constraint on column a.
        let (plan, report) =
            optimize_src("q(a, y) :- r2(x, y), from(#x, a), numeric(a) = yes, y = 5.");
        assert!(report.reorders >= 1, "report: {report:?}");
        if let Plan::Pass { steps, .. } = find_fused(&plan).expect("fused node") {
            assert!(
                matches!(steps[0], FusedOp::Compare { .. }),
                "comparison should be scheduled first: {steps:?}"
            );
        }
    }

    #[test]
    fn unknown_relation_aborts_optimization() {
        let mut plan = compile("q(x) :- small(x), x = 5.");
        let before = format!("{plan:?}");
        assert!(optimize(&mut plan, &Relations::new()).is_none());
        assert_eq!(format!("{plan:?}"), before, "plan left untouched");
    }
    fn find_fused(p: &Plan) -> Option<&Plan> {
        if p.fused() {
            return Some(p);
        }
        p.inputs().find_map(find_fused)
    }
}
