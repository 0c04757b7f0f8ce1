//! Logical plans for Alog rules (§4): one plan fragment per unfolded rule,
//! compiled bottom-up and capped with the ψ annotation operator. The
//! compiler emits the plan that runs (DESIGN.md §11): each chain of
//! selections is one pass, its steps scheduled by [`schedule`].

mod schedule;

use iflex_alog::{BodyAtom, CmpOp, ConstraintArg, Rule, Term};
use iflex_ctable::Value;
use iflex_features::{FeatureArg, FeatureValue};
use std::collections::BTreeMap;
use std::fmt;

/// A comparison operand: a column of the current intermediate table or a
/// constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A column of the current intermediate schema.
    Col(usize),
    /// A constant value.
    Const(Value),
}

/// One domain constraint as compiled: feature name plus argument.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledConstraint {
    /// The feature.
    pub feature: String,
    /// The arg.
    pub arg: FeatureArg,
}

/// One step of a [`Plan::Pass`]: a pass applies its steps in sequence,
/// per tuple, without materializing intermediate tables. Column indices
/// refer to the pass's schema: the input's columns, then one column per
/// [`FusedOp::Extract`] step, numbered from the input arity on.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedOp {
    /// The built-in `from(#x, y)`: writes the expansion cell
    /// `expand({contain(s) | s a span of cell src})` into the new column
    /// `col` (§4.2), and drops the row when `src` holds no span.
    Extract {
        /// Column holding the source spans.
        src: usize,
        /// The column this step defines.
        col: usize,
    },
    /// Domain-constraint selection σ_{f(a)=v} on `col`, re-checking all
    /// `priors` on refined sub-spans (§4.2).
    Constraint {
        /// Column the constraint applies to.
        col: usize,
        /// The newly applied constraint.
        constraint: CompiledConstraint,
        /// Constraints applied earlier to the same attribute (§4.2 re-checks).
        priors: Vec<CompiledConstraint>,
    },
    /// Comparison selection with may/must (superset) semantics; `offset`
    /// is added to the right operand (`lp < fp + 5`).
    Compare {
        /// Left operand.
        left: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
        /// Constant added to the right operand.
        offset: f64,
    },
    /// Equality of two columns bound to the same rule variable.
    VarUnify {
        /// First unified column.
        col_a: usize,
        /// Second unified column.
        col_b: usize,
    },
    /// Boolean p-function filter.
    FilterProc {
        /// Procedure name.
        name: String,
        /// Argument columns.
        cols: Vec<usize>,
    },
}

impl FusedOp {
    /// The columns this step reads or defines (used by the step
    /// scheduler's dependency analysis; steps touching disjoint column
    /// sets commute byte-exactly).
    pub fn cols(&self) -> Vec<usize> {
        match self {
            FusedOp::Extract { src, col } => vec![*src, *col],
            FusedOp::Constraint { col, .. } => vec![*col],
            FusedOp::Compare { left, right, .. } => {
                let mut v = Vec::new();
                if let Operand::Col(c) = left {
                    v.push(*c);
                }
                if let Operand::Col(c) = right {
                    v.push(*c);
                }
                v
            }
            FusedOp::VarUnify { col_a, col_b } => vec![*col_a, *col_b],
            FusedOp::FilterProc { cols, .. } => cols.clone(),
        }
    }

    /// The left input's column and the right input's (rebased) column
    /// when this step, in a pass over a cross join whose left input has
    /// `la` columns, is a `similar`/`approxMatch` filter with one column
    /// on each side, left side first — a step that can read per-row
    /// profiles of the two sides (the pass's token prefilter when it is
    /// the first step).
    pub fn similar_cols(&self, la: usize) -> Option<(usize, usize)> {
        match self {
            FusedOp::FilterProc { name, cols } if name == "similar" || name == "approxMatch" => {
                match cols.as_slice() {
                    [a, b] if *a < la && *b >= la => Some((*a, *b - la)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Short σ-style rendering for EXPLAIN output.
    pub fn render(&self) -> String {
        match self {
            FusedOp::Extract { src, col } => format!("from(#{src})→{col}"),
            FusedOp::Constraint {
                col,
                constraint,
                priors,
            } => format!(
                "σ[{}(col {col}) = {}]{}",
                constraint.feature,
                constraint.arg,
                if priors.is_empty() {
                    String::new()
                } else {
                    format!(" (+{} priors)", priors.len())
                }
            ),
            FusedOp::Compare {
                left,
                op,
                right,
                offset,
            } => {
                format!("σ[{left:?} {op} {right:?} + {offset}]")
            }
            FusedOp::VarUnify { col_a, col_b } => format!("σ[col {col_a} == col {col_b}]"),
            FusedOp::FilterProc { name, cols } => format!("Filter[{name}{cols:?}]"),
        }
    }
}

/// A plan node. Column indices refer to the node's *input* schema; nodes
/// that add columns append them on the right.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan an extensional compact table.
    ScanExt {
        /// The predicate / relation name.
        name: String,
    },
    /// Scan an intensional relation computed earlier in evaluation order.
    ScanRel {
        /// The predicate / relation name.
        name: String,
    },
    /// Generating p-predicate: appends `out_arity` columns.
    GenerateProc {
        /// Child plan.
        input: Box<Plan>,
        /// Procedure / relation name.
        name: String,
        /// Input-argument columns.
        in_cols: Vec<usize>,
        /// Number of appended output columns.
        out_arity: usize,
    },
    /// Cartesian product (θ-conditions are applied by later selects).
    CrossJoin {
        /// Left input plan.
        left: Box<Plan>,
        /// Right input plan.
        right: Box<Plan>,
    },
    /// The ψ annotation operator (§4.3); column indices are post-project.
    Annotate {
        /// Child plan.
        input: Box<Plan>,
        /// Existence annotation flag.
        existence: bool,
        /// Attribute-annotated column indices.
        annotated: Vec<usize>,
    },
    /// One pass over the input's tuples (DESIGN.md §11): steps applied in
    /// order, then an optional projection, with no intermediate table per
    /// step. Without a projection the output is the pass's schema: the
    /// input's columns, then the columns its `from` steps define. The
    /// compiler appends each selection to the open pass of its branch, so
    /// a chain of selections and the head projection form one pass.
    ///
    /// When `input` is a [`Plan::CrossJoin`], the pass streams over the
    /// cross product's pairs, left-major, instead of materializing it.
    Pass {
        /// Child plan.
        input: Box<Plan>,
        /// Selection steps, in application order.
        steps: Vec<FusedOp>,
        /// Trailing projection onto the given columns, renamed to the
        /// given names.
        project: Option<(Vec<usize>, Vec<String>)>,
    },
}

impl Plan {
    /// A pass over `input`.
    pub fn pass(
        input: Plan,
        steps: Vec<FusedOp>,
        project: Option<(Vec<usize>, Vec<String>)>,
    ) -> Plan {
        Plan::Pass {
            input: Box::new(input),
            steps,
            project,
        }
    }

    /// Moves the node out, leaving an empty scan behind (for rewrites
    /// that rebuild a node around its own old contents).
    pub fn take(&mut self) -> Plan {
        std::mem::replace(
            self,
            Plan::ScanExt {
                name: String::new(),
            },
        )
    }

    /// The node's direct inputs: none for a scan, both sides of a join,
    /// the one input of everything else.
    pub fn inputs(&self) -> impl Iterator<Item = &Plan> {
        let (a, b) = match self {
            Plan::ScanExt { .. } | Plan::ScanRel { .. } => (None, None),
            Plan::CrossJoin { left, right } => (Some(&**left), Some(&**right)),
            Plan::GenerateProc { input, .. }
            | Plan::Annotate { input, .. }
            | Plan::Pass { input, .. } => (Some(&**input), None),
        };
        a.into_iter().chain(b)
    }

    /// [`Plan::inputs`], mutably — what the compiler recurses through to
    /// schedule every pass's steps.
    pub fn inputs_mut(&mut self) -> impl Iterator<Item = &mut Plan> {
        let (a, b) = match self {
            Plan::ScanExt { .. } | Plan::ScanRel { .. } => (None, None),
            Plan::CrossJoin { left, right } => (Some(&mut **left), Some(&mut **right)),
            Plan::GenerateProc { input, .. }
            | Plan::Annotate { input, .. }
            | Plan::Pass { input, .. } => (Some(&mut **input), None),
        };
        a.into_iter().chain(b)
    }

    /// Whether this node is a *fused* pass (DESIGN.md §11) — what the
    /// `engine.opt.fused_nodes` counter counts, the operator span is named
    /// after and EXPLAIN heads `Fused[…]`: a pass that does two or more
    /// things (steps plus projection), that defines a column (a `from`
    /// step has no operator of its own), or that does at least one thing
    /// while streaming the pairs of a cross join.
    pub fn fused(&self) -> bool {
        let Plan::Pass {
            input,
            steps,
            project,
        } = self
        else {
            return false;
        };
        let weight = steps.len() + usize::from(project.is_some());
        weight >= 2
            || extracts(steps) > 0
            || (weight == 1 && matches!(**input, Plan::CrossJoin { .. }))
    }

    /// How many fused passes ([`Plan::fused`]) the plan holds.
    pub fn fused_passes(&self) -> u64 {
        u64::from(self.fused()) + self.inputs().map(Plan::fused_passes).sum::<u64>()
    }

    /// Pretty, indented operator-tree rendering (for EXPLAIN-style
    /// output).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0);
        s
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        match self {
            Plan::ScanExt { name } => {
                let _ = writeln!(out, "{pad}ScanExt({name})");
            }
            Plan::ScanRel { name } => {
                let _ = writeln!(out, "{pad}ScanRel({name})");
            }
            Plan::GenerateProc {
                name,
                in_cols,
                out_arity,
                ..
            } => {
                let _ = writeln!(out, "{pad}Generate[{name}{in_cols:?} +{out_arity}]");
            }
            Plan::CrossJoin { .. } => {
                let _ = writeln!(out, "{pad}CrossJoin");
            }
            Plan::Annotate {
                existence,
                annotated,
                ..
            } => {
                let _ = writeln!(out, "{pad}ψ[existence={existence}, attrs={annotated:?}]");
            }
            Plan::Pass { steps, project, .. } => {
                // A fused pass heads its lines; an unfused one is a single
                // step or projection and prints as that operator.
                let pad = if self.fused() {
                    let _ = writeln!(out, "{pad}Fused[{} steps]", steps.len());
                    format!("{pad}  ")
                } else {
                    pad
                };
                if let Some((cols, names)) = project {
                    let _ = writeln!(out, "{pad}π[{cols:?} as {names:?}]");
                }
                // Steps print outermost-last like standalone operators
                // would: the last-applied step first.
                for step in steps.iter().rev() {
                    let _ = writeln!(out, "{pad}{}", step.render());
                }
            }
        }
        for input in self.inputs() {
            input.explain_into(out, depth + 1);
        }
    }
}

/// How many columns the `steps` of one pass define.
pub fn extracts(steps: &[FusedOp]) -> usize {
    steps
        .iter()
        .filter(|s| matches!(s, FusedOp::Extract { .. }))
        .count()
}

/// Error raised during plan compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The rule body cannot be ordered: some atom's inputs are never bound.
    Deadlock {
        /// The offending rule, rendered.
        rule: String,
        /// The atom that never became ready.
        atom: String,
    },
    /// A head variable is unbound after the whole body (unsafe rule).
    UnboundHead {
        /// The offending rule, rendered.
        rule: String,
        /// The variable concerned.
        var: String,
    },
    /// `from`'s first argument must be a bound input variable.
    BadFrom {
        /// The offending rule, rendered.
        rule: String,
    },
    /// A constraint's value is malformed (unknown symbol).
    BadConstraintValue {
        /// The offending rule, rendered.
        rule: String,
        /// The malformed value, rendered.
        value: String,
    },
    /// A predicate is not a relation, not `from`, and not a procedure.
    UnknownPredicate {
        /// The offending rule, rendered.
        rule: String,
        /// The predicate / relation name.
        name: String,
    },
    /// A compiler invariant failed — reported as an error instead of a
    /// panic so one bad rule cannot take the engine down.
    Internal {
        /// The offending rule, rendered.
        rule: String,
        /// Which invariant failed.
        detail: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Deadlock { rule, atom } => {
                write!(
                    f,
                    "cannot order rule body (atom '{atom}' never ready): {rule}"
                )
            }
            PlanError::UnboundHead { rule, var } => {
                write!(f, "head variable {var} unbound in: {rule}")
            }
            PlanError::BadFrom { rule } => {
                write!(f, "from(#x, y) needs a bound input variable in: {rule}")
            }
            PlanError::BadConstraintValue { rule, value } => {
                write!(f, "bad constraint value {value} in: {rule}")
            }
            PlanError::UnknownPredicate { rule, name } => {
                write!(
                    f,
                    "predicate {name} is not a relation or procedure in: {rule}"
                )
            }
            PlanError::Internal { rule, detail } => {
                write!(f, "compiler invariant failed ({detail}) in: {rule}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// What the compiler needs to know about predicate names.
pub struct CompileEnv<'a> {
    /// Extensional table name → column count.
    pub extensional: &'a BTreeMap<String, usize>,
    /// Intensional predicate name → column count (computed earlier).
    pub intensional: &'a BTreeMap<String, usize>,
    /// Procedure name → (is_filter, out_arity).
    pub procedures: &'a BTreeMap<String, (bool, usize)>,
}

/// Fingerprint of a compiled rule for the incremental re-execution cache
/// (DESIGN.md §9): a hash of the rendered rule — which, for an unfolded
/// program, already inlines the entire description-rule chain including
/// every domain constraint and annotation — plus the signature of each
/// p-predicate procedure the body calls, so re-registering a procedure
/// with a different shape changes the fingerprint even though the rule
/// text is identical. Two rules share a fingerprint exactly when they
/// compile to the same plan over the same procedure registry.
pub fn rule_fingerprint(rule: &Rule, env: &CompileEnv<'_>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    rule.to_string().hash(&mut h);
    for atom in &rule.body {
        if let BodyAtom::Pred { name, .. } = atom {
            if let Some(sig) = env.procedures.get(name) {
                name.hash(&mut h);
                sig.hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Converts a parsed constraint value into a [`FeatureArg`].
pub fn constraint_arg(value: &ConstraintArg) -> Option<FeatureArg> {
    Some(match value {
        ConstraintArg::Num(n) => FeatureArg::Num(*n),
        ConstraintArg::Str(s) => FeatureArg::Text(s.clone()),
        ConstraintArg::Symbol(s) => FeatureArg::Tri(s.parse::<FeatureValue>().ok()?),
    })
}

/// Converts a [`FeatureArg`] into the constraint value a rule body
/// writes: the inverse of `constraint_arg`.
pub fn to_constraint_arg(arg: &FeatureArg) -> ConstraintArg {
    match arg {
        FeatureArg::Tri(v) => ConstraintArg::Symbol(v.to_string()),
        FeatureArg::Num(n) => ConstraintArg::Num(*n),
        FeatureArg::Text(t) => ConstraintArg::Str(t.clone()),
    }
}

fn term_value(t: &Term) -> Option<Value> {
    Some(match t {
        Term::Num(n) => Value::Num(*n),
        Term::Str(s) => Value::Str(s.clone()),
        Term::Null => Value::Null,
        Term::Var(_) => return None,
    })
}

/// One independent sub-plan during compilation: a connected component of
/// the rule body. Branches are only cross-joined when an atom genuinely
/// spans them, so per-side extraction and selection stay on the small
/// side of every join.
struct Branch {
    plan: Plan,
    /// var name → column in this branch's schema.
    bound: BTreeMap<String, usize>,
    ncols: usize,
    /// Constraints applied so far, per variable (§4.2 prior re-checks).
    applied: BTreeMap<String, Vec<CompiledConstraint>>,
}

/// Schedules the steps of every pass in `plan` ([`schedule`]).
fn schedule_passes(plan: &mut Plan) {
    plan.inputs_mut().for_each(schedule_passes);
    if let Plan::Pass { steps, .. } = plan {
        schedule::schedule(steps);
    }
}

impl Branch {
    /// Appends `step` to the branch's open pass — a [`Plan::Pass`] without
    /// a projection — or caps the branch's plan with a new one-step pass.
    fn select(&mut self, step: FusedOp) {
        match &mut self.plan {
            Plan::Pass {
                steps,
                project: None,
                ..
            } => steps.push(step),
            plan => *plan = Plan::pass(plan.take(), vec![step], None),
        }
    }

    fn unify_dup(&mut self, var: &str, new_col: usize) {
        if let Some(&old) = self.bound.get(var) {
            self.select(FusedOp::VarUnify {
                col_a: old,
                col_b: new_col,
            });
        } else {
            self.bound.insert(var.to_string(), new_col);
        }
    }
}

/// Merges two branches with a cross join, unifying variables bound on
/// both sides.
fn merge(a: Branch, b: Branch) -> Branch {
    let shift = a.ncols;
    let mut merged = Branch {
        plan: Plan::CrossJoin {
            left: Box::new(a.plan),
            right: Box::new(b.plan),
        },
        bound: a.bound,
        ncols: a.ncols + b.ncols,
        applied: a.applied,
    };
    for (var, chain) in b.applied {
        merged.applied.entry(var).or_default().extend(chain);
    }
    for (var, col) in b.bound {
        let bcol = col + shift;
        match merged.bound.get(&var) {
            Some(&acol) => merged.select(FusedOp::VarUnify {
                col_a: acol,
                col_b: bcol,
            }),
            None => {
                merged.bound.insert(var, bcol);
            }
        }
    }
    merged
}

/// Merges the branches at `idxs` out of `branches`, returning the merged
/// branch's new index; `None` when `idxs` is empty (nothing to merge).
fn merge_indices(branches: &mut Vec<Branch>, mut idxs: Vec<usize>) -> Option<usize> {
    idxs.sort_unstable();
    idxs.dedup();
    let first = *idxs.first()?;
    // Remove from the back so earlier indices stay valid.
    let mut acc: Option<Branch> = None;
    for &i in idxs.iter().rev() {
        let b = branches.remove(i);
        acc = Some(match acc {
            None => b,
            Some(prev) => merge(b, prev),
        });
    }
    branches.insert(first, acc?);
    Some(first)
}

fn branch_of(branches: &[Branch], var: &str) -> Option<usize> {
    branches.iter().position(|b| b.bound.contains_key(var))
}

/// Compiles one unfolded, non-description rule into the plan that runs:
/// its output columns are the head variables in order (ψ appended last).
///
/// Atoms are applied in a ready-first order over independent branches:
/// relation scans open branches; `from`, constraints, and single-branch
/// selections stay on their branch; predicates spanning branches merge
/// them (cross join + variable unification) first. Every selection joins
/// its branch's open pass, the head projection closes the top one, and
/// each pass's steps are then scheduled ([`schedule`]).
pub fn compile_rule(rule: &Rule, env: &CompileEnv<'_>) -> Result<Plan, PlanError> {
    let rule_str = rule.to_string();
    let mut branches: Vec<Branch> = Vec::new();

    let mut pending: Vec<&BodyAtom> = rule.body.iter().collect();
    while !pending.is_empty() {
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            if apply_atom(pending[i], env, &mut branches, &rule_str)? {
                pending.remove(i);
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            return Err(PlanError::Deadlock {
                rule: rule_str,
                atom: pending[0].to_string(),
            });
        }
    }

    if branches.is_empty() {
        return Err(PlanError::Deadlock {
            rule: rule_str,
            atom: "<empty body>".into(),
        });
    }
    // Join all remaining branches.
    while branches.len() > 1 {
        let b = branches.remove(1);
        let a = branches.remove(0);
        branches.insert(0, merge(a, b));
    }
    let branch = branches.pop().ok_or_else(|| PlanError::Internal {
        rule: rule.to_string(),
        detail: "branch join left no branch".into(),
    })?;

    // Project to head variables.
    let mut proj_cols = Vec::with_capacity(rule.head.args.len());
    let mut names = Vec::with_capacity(rule.head.args.len());
    for a in &rule.head.args {
        let col = branch
            .bound
            .get(&a.var)
            .copied()
            .ok_or(PlanError::UnboundHead {
                rule: rule.to_string(),
                var: a.var.clone(),
            })?;
        proj_cols.push(col);
        names.push(a.var.clone());
    }
    let project = Some((proj_cols, names));
    let mut projected = branch.plan;
    if let Plan::Pass {
        project: open @ None,
        ..
    } = &mut projected
    {
        *open = project;
    } else {
        projected = Plan::pass(projected, Vec::new(), project);
    }
    schedule_passes(&mut projected);

    // ψ for the rule's annotations.
    let annotated: Vec<usize> = rule
        .head
        .args
        .iter()
        .enumerate()
        .filter(|(_, a)| a.annotated)
        .map(|(i, _)| i)
        .collect();
    if rule.head.existence || !annotated.is_empty() {
        Ok(Plan::Annotate {
            input: Box::new(projected),
            existence: rule.head.existence,
            annotated,
        })
    } else {
        Ok(projected)
    }
}

/// Attempts to apply `atom`; returns false when its inputs are not bound
/// in any branch yet.
fn apply_atom(
    atom: &BodyAtom,
    env: &CompileEnv<'_>,
    branches: &mut Vec<Branch>,
    rule_str: &str,
) -> Result<bool, PlanError> {
    match atom {
        BodyAtom::Pred { name, args } if name == "from" => {
            let (Some(in_var), Some(out_var)) = (match args.as_slice() {
                [inp, out] => (inp.term.var(), out.term.var()),
                _ => (None, None),
            }) else {
                return Err(PlanError::BadFrom {
                    rule: rule_str.to_string(),
                });
            };
            let Some(bi) = branch_of(branches, in_var) else {
                return Ok(false);
            };
            let b = &mut branches[bi];
            let new_col = b.ncols;
            b.select(FusedOp::Extract {
                src: b.bound[in_var],
                col: new_col,
            });
            b.ncols += 1;
            // Out var duplicated in the same branch → unify; in another
            // branch → unified at merge time.
            b.unify_dup(out_var, new_col);
            Ok(true)
        }
        BodyAtom::Pred { name, args } => {
            if env.extensional.contains_key(name) || env.intensional.contains_key(name) {
                let scan = if env.extensional.contains_key(name) {
                    Plan::ScanExt { name: name.clone() }
                } else {
                    Plan::ScanRel { name: name.clone() }
                };
                let mut b = Branch {
                    plan: scan,
                    bound: BTreeMap::new(),
                    ncols: args.len(),
                    applied: BTreeMap::new(),
                };
                for (col, a) in args.iter().enumerate() {
                    match &a.term {
                        Term::Var(v) => b.unify_dup(v, col),
                        other => {
                            let c = term_value(other).ok_or_else(|| PlanError::Internal {
                                rule: rule_str.to_string(),
                                detail: "variable term in constant position".into(),
                            })?;
                            b.select(FusedOp::Compare {
                                left: Operand::Col(col),
                                op: CmpOp::Eq,
                                right: Operand::Const(c),
                                offset: 0.0,
                            });
                        }
                    }
                }
                branches.push(b);
                Ok(true)
            } else if let Some(&(is_filter, out_arity)) = env.procedures.get(name) {
                if is_filter {
                    let mut vars: Vec<&str> = Vec::with_capacity(args.len());
                    for a in args {
                        match a.term.var() {
                            Some(v) => vars.push(v),
                            None => {
                                return Err(PlanError::UnknownPredicate {
                                    rule: rule_str.to_string(),
                                    name: format!("{name} (constant arg)"),
                                })
                            }
                        }
                    }
                    let mut idxs = Vec::new();
                    for v in &vars {
                        match branch_of(branches, v) {
                            Some(i) => idxs.push(i),
                            None => return Ok(false),
                        }
                    }
                    if idxs.is_empty() {
                        // zero-variable filter: attach to the first branch
                        // (evaluated once per tuple, like a constant-only
                        // comparison)
                        if branches.is_empty() {
                            return Ok(false);
                        }
                        idxs.push(0);
                    }
                    let bi = merge_indices(branches, idxs).ok_or_else(|| PlanError::Internal {
                        rule: rule_str.to_string(),
                        detail: "filter branch merge produced no branch".into(),
                    })?;
                    let b = &mut branches[bi];
                    let cols: Vec<usize> = vars.iter().map(|v| b.bound[*v]).collect();
                    b.select(FusedOp::FilterProc {
                        name: name.clone(),
                        cols,
                    });
                    Ok(true)
                } else {
                    // generator: `#`-marked args are inputs, the rest outputs
                    let in_vars: Vec<&str> = args
                        .iter()
                        .filter(|a| a.input)
                        .filter_map(|a| a.term.var())
                        .collect();
                    let out_args: Vec<&iflex_alog::Arg> =
                        args.iter().filter(|a| !a.input).collect();
                    if out_args.len() != out_arity {
                        return Err(PlanError::UnknownPredicate {
                            rule: rule_str.to_string(),
                            name: format!("{name} (arity mismatch)"),
                        });
                    }
                    let mut idxs = Vec::new();
                    for v in &in_vars {
                        match branch_of(branches, v) {
                            Some(i) => idxs.push(i),
                            None => return Ok(false),
                        }
                    }
                    if idxs.is_empty() {
                        return Ok(false);
                    }
                    let bi = merge_indices(branches, idxs).ok_or_else(|| PlanError::Internal {
                        rule: rule_str.to_string(),
                        detail: "generator branch merge produced no branch".into(),
                    })?;
                    let b = &mut branches[bi];
                    let in_cols: Vec<usize> = in_vars.iter().map(|v| b.bound[*v]).collect();
                    b.plan = Plan::GenerateProc {
                        input: Box::new(b.plan.take()),
                        name: name.clone(),
                        in_cols,
                        out_arity,
                    };
                    for a in &out_args {
                        let col = b.ncols;
                        b.ncols += 1;
                        match &a.term {
                            Term::Var(v) => b.unify_dup(v, col),
                            other => {
                                let c = term_value(other).ok_or_else(|| PlanError::Internal {
                                    rule: rule_str.to_string(),
                                    detail: "variable term in constant position".into(),
                                })?;
                                b.select(FusedOp::Compare {
                                    left: Operand::Col(col),
                                    op: CmpOp::Eq,
                                    right: Operand::Const(c),
                                    offset: 0.0,
                                });
                            }
                        }
                    }
                    Ok(true)
                }
            } else {
                Err(PlanError::UnknownPredicate {
                    rule: rule_str.to_string(),
                    name: name.clone(),
                })
            }
        }
        BodyAtom::Compare {
            left,
            op,
            right,
            offset,
        } => {
            let mut idxs = Vec::new();
            for t in [left, right] {
                if let Term::Var(v) = t {
                    match branch_of(branches, v) {
                        Some(i) => idxs.push(i),
                        None => return Ok(false),
                    }
                }
            }
            if idxs.is_empty() {
                // constant-only comparison: attach to the first branch
                if branches.is_empty() {
                    return Ok(false);
                }
                idxs.push(0);
            }
            let bi = merge_indices(branches, idxs).ok_or_else(|| PlanError::Internal {
                rule: rule_str.to_string(),
                detail: "comparison branch merge produced no branch".into(),
            })?;
            let b = &mut branches[bi];
            let resolve =
                |t: &Term, b: &Branch| -> Result<Operand, PlanError> {
                    match t {
                        Term::Var(v) => Ok(Operand::Col(b.bound[v.as_str()])),
                        other => term_value(other).map(Operand::Const).ok_or_else(|| {
                            PlanError::Internal {
                                rule: rule_str.to_string(),
                                detail: "unbound variable resolved as constant".into(),
                            }
                        }),
                    }
                };
            let l = resolve(left, b)?;
            let r = resolve(right, b)?;
            b.select(FusedOp::Compare {
                left: l,
                op: *op,
                right: r,
                offset: *offset,
            });
            Ok(true)
        }
        BodyAtom::Constraint {
            feature,
            var,
            value,
        } => {
            let Some(bi) = branch_of(branches, var) else {
                return Ok(false);
            };
            let arg = constraint_arg(value).ok_or_else(|| PlanError::BadConstraintValue {
                rule: rule_str.to_string(),
                value: value.to_string(),
            })?;
            let cc = CompiledConstraint {
                feature: feature.clone(),
                arg,
            };
            let b = &mut branches[bi];
            let col = b.bound[var.as_str()];
            let priors = b.applied.entry(var.clone()).or_default();
            let prior_list = priors.clone();
            priors.push(cc.clone());
            b.select(FusedOp::Constraint {
                col,
                constraint: cc,
                priors: prior_list,
            });
            Ok(true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_alog::parse_rule;

    #[allow(clippy::type_complexity)]
    fn env_maps() -> (
        BTreeMap<String, usize>,
        BTreeMap<String, usize>,
        BTreeMap<String, (bool, usize)>,
    ) {
        let mut ext = BTreeMap::new();
        ext.insert("pagesA".to_string(), 1);
        ext.insert("pagesB".to_string(), 1);
        ext.insert("r2".to_string(), 2);
        let int = BTreeMap::new();
        let mut procs = BTreeMap::new();
        procs.insert("similar".to_string(), (true, 0));
        procs.insert("gen".to_string(), (false, 1));
        (ext, int, procs)
    }

    /// Compiles `src` over `pagesA`, `pagesB`, `r2(a, b)`, the `similar`
    /// filter and the one-output `gen` generator.
    pub(super) fn compile(src: &str) -> Plan {
        let (ext, int, procs) = env_maps();
        let env = CompileEnv {
            extensional: &ext,
            intensional: &int,
            procedures: &procs,
        };
        compile_rule(&parse_rule(src).unwrap(), &env).unwrap()
    }

    #[test]
    fn per_side_work_stays_below_the_join() {
        // Both sides extract before the cross join: the CrossJoin node must
        // sit *above* the extract/constraint steps of both branches.
        let plan = compile(
            "q(a, b) :- pagesA(x), from(#x, a), numeric(a) = yes, \
             pagesB(y), from(#y, b), numeric(b) = yes, similar(#a, #b).",
        );
        let explained = plan.explain();
        let join_pos = explained.find("CrossJoin").unwrap();
        let from_positions: Vec<usize> = explained
            .match_indices("from(#0)→1")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(from_positions.len(), 2, "{explained}");
        // In the indented tree, children print after parents; both
        // extract steps must be below (after) the join line, and the
        // filter above it.
        assert!(from_positions.iter().all(|&p| p > join_pos));
        let filter_pos = explained.find("Filter[similar").unwrap();
        assert!(filter_pos < join_pos);
    }

    #[test]
    fn shared_var_across_branches_unifies_at_merge() {
        let plan = compile("q(x) :- pagesA(x), pagesB(x).");
        let explained = plan.explain();
        assert!(explained.contains("col 0 == col 1"), "{explained}");
    }

    #[test]
    fn duplicate_var_within_atom_unifies() {
        let (ext, int, procs) = {
            let mut ext = BTreeMap::new();
            ext.insert("r".to_string(), 2);
            (ext, BTreeMap::new(), procs_map())
        };
        fn procs_map() -> BTreeMap<String, (bool, usize)> {
            BTreeMap::new()
        }
        let env = CompileEnv {
            extensional: &ext,
            intensional: &int,
            procedures: &procs,
        };
        let plan = compile_rule(&parse_rule("q(x) :- r(x, x).").unwrap(), &env).unwrap();
        assert!(plan.explain().contains("=="));
    }

    #[test]
    fn constants_become_selections() {
        let plan = compile("q(x) :- pagesA(x), x = 5.");
        assert!(plan.explain().contains("Const(Num(5.0))"));
    }

    #[test]
    fn generator_waits_for_inputs() {
        let plan = compile("q(x, o) :- gen(#x, o), pagesA(x).");
        let explained = plan.explain();
        assert!(explained.contains("Generate[gen"));
    }

    #[test]
    fn deadlock_reported() {
        let (ext, int, procs) = env_maps();
        let env = CompileEnv {
            extensional: &ext,
            intensional: &int,
            procedures: &procs,
        };
        let err = compile_rule(&parse_rule("q(a) :- from(#z, a).").unwrap(), &env).unwrap_err();
        assert!(matches!(err, PlanError::Deadlock { .. }));
    }

    #[test]
    fn annotations_cap_the_plan() {
        let plan = compile("q(x, <a>)? :- pagesA(x), from(#x, a).");
        let explained = plan.explain();
        assert!(explained.starts_with("ψ[existence=true, attrs=[1]]"));
    }

    #[test]
    fn similar_filter_specialization_is_preserved() {
        let plan =
            compile("q(a, b) :- pagesA(x), from(#x, a), pagesB(y), from(#y, b), similar(#a, #b).");
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
             \x20     ScanExt(pagesA)\n\
             \x20   Fused[1 steps]\n\
             \x20     from(#0)→1\n\
             \x20     ScanExt(pagesB)\n"
        );
    }

    #[test]
    fn similar_then_comparison_over_a_join_keeps_its_plan() {
        // T9's top rule: the cheap comparison is scheduled ahead of the
        // similarity filter, so `similar` is no longer the first step over
        // the join — it runs inside the fused pairwise pass by candidate
        // enumeration, not as the pass's prefilter. Each side extracts and
        // constrains in one pass of its own below the join, its `from`
        // steps scheduled after the constraint they do not feed.
        let plan = compile(
            "q(a) :- pagesA(x), from(#x, a), from(#x, p), numeric(p) = yes, \
             pagesB(y), from(#y, b), from(#y, c), numeric(c) = yes, \
             similar(#a, #b), p < c.",
        );
        assert_eq!(plan.fused_passes(), 3);
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
             \x20     ScanExt(pagesA)\n\
             \x20   Fused[3 steps]\n\
             \x20     σ[numeric(col 2) = yes]\n\
             \x20     from(#0)→2\n\
             \x20     from(#0)→1\n\
             \x20     ScanExt(pagesB)\n"
        );
    }

    #[test]
    fn adjacent_selections_fuse_with_projection() {
        // The extraction, both constraints and the head projection are
        // one pass over the scan.
        let plan = compile("q(a) :- pagesA(x), from(#x, a), numeric(a) = yes, min-value(a) = 10.");
        let Plan::Pass {
            input,
            steps,
            project,
        } = &plan
        else {
            panic!("one pass:\n{}", plan.explain());
        };
        assert!(plan.fused(), "{}", plan.explain());
        assert_eq!(plan.fused_passes(), 1);
        assert_eq!(steps.len(), 3, "{steps:?}");
        assert!(project.is_some());
        assert!(matches!(**input, Plan::ScanExt { .. }));
    }

    #[test]
    fn single_selection_stays_standalone() {
        // A scan and its projection alone: nothing worth fusing.
        let plan = compile("q(x) :- pagesA(x).");
        assert!(!plan.explain().contains("Fused["), "{}", plan.explain());
        assert_eq!(plan.fused_passes(), 0);
    }

    #[test]
    fn unknown_predicate_error() {
        let (ext, int, procs) = env_maps();
        let env = CompileEnv {
            extensional: &ext,
            intensional: &int,
            procedures: &procs,
        };
        let err = compile_rule(&parse_rule("q(x) :- mystery(x).").unwrap(), &env).unwrap_err();
        assert!(matches!(err, PlanError::UnknownPredicate { .. }));
    }
}
