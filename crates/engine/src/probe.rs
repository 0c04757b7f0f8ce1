//! Count-only Simulation probes (§5.1).
//!
//! The Simulation strategy ranks a question by the result size
//! |exec(g(P,(a,f,v)))| after each candidate answer `v`.
//! [`Engine::probe_sizes`] sizes every answer of every question it is
//! given, along one of three paths (DESIGN.md §9):
//!
//! - **Overlay.** Where the query rule admits the split, an answer's
//!   refinement is one σ step over the rows of the query's **base
//!   relation** — the query rule with every extraction attribute in its
//!   head — followed by the query head's projection. A row's contribution
//!   to `expanded_len` and to the extraction volume depends on that row
//!   alone, so one pass over the base rows counts every answer of every
//!   question at once, and no result table is built. (Maturana, Riveros
//!   and Vrgoč read a cell as a set of partial mappings; counting the
//!   mappings a constraint keeps needs no output relation.)
//! - **Restricted join.** Where extraction calls read different inputs
//!   (T3, T6, T9), the query rule's plan is a skeleton of cross-join
//!   passes over *leaf* passes, one per scanned table, and an answer
//!   changes only the leaf pass of the side it constrains. A refinement
//!   only narrows cells, and every step over a join's pairs is monotone
//!   under narrowing (the token prefilter, `decide`, `compare`,
//!   `VarUnify`, SOME past `ENUM_CAP`), so the pairs the refined program
//!   keeps are a subset of those the current program keeps. The current
//!   program is evaluated once with row **lineage** (a [`JoinTrace`]: each
//!   leaf row's source tuple, each result row's leaf rows). A result row
//!   contributes `(expanded_len, volume)` on its own, and the join passes
//!   are deterministic in their cells, so the trace also keeps, per leaf
//!   row `r`, the summed contribution `W(r)` of the result rows that read
//!   it. An answer then re-runs its leaf pass on the source tuples some
//!   result row reads and counts as a **delta**: a leaf row the answer
//!   left cell-for-cell unchanged adds its `W(r)`, a dropped one nothing,
//!   and the join passes run only over the result rows whose probed leaf
//!   row narrowed — the paper's §5.2 reuse ("re-execute the parts of the
//!   plan that may possibly have changed") inside the join operator.
//! - **Refined run.** Every other answer — a union query, an annotated
//!   head, a changed join skeleton, a predicate called at several sites, a
//!   join refinement that cuts a word a token prefilter reads — runs its
//!   [`refine`]d program on this engine. Its upstream rules come from the
//!   rule cache, and its own rules land there for the next question.
//!
//! The base relation and the current program's result come from the rule
//! cache, and the sizes (and the trace) are memoized on that cache entry:
//! a "don't know" answer leaves the program unchanged, so the next
//! question asks for the same sizes again. The memos go with the entry —
//! on an epoch bump, [`Engine::clear_cache`] or LRU eviction — and count
//! against the cache's byte budget.

use crate::eval::ENUM_CAP;
use crate::exec::{injected, panic_message, Engine, EngineError, EvalCtx, Pass};
use crate::fault::site;
use crate::obs::SpanKind;
use crate::pfunc::Procedure;
use crate::plan::{compile_rule, extracts, to_constraint_arg, CompiledConstraint, FusedOp, Plan};
use crate::sample::Sample;
use crate::similarity::{tokens_within, SimSeed};
use iflex_alog::{Arg, BodyAtom, Head, HeadArg, Program, Rule, Term};
use iflex_ctable::{Cell, CompactTable, CompactTuple};
use iflex_features::FeatureArg;
use iflex_text::DocumentStore;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One question to size: the attribute at head position `pos` of the IE
/// predicate `pred` (its variable `var` in the description rules), the
/// feature asked about, and its candidate answers.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec<'a> {
    /// The IE predicate the attribute belongs to.
    pub pred: &'a str,
    /// The attribute's position in the predicate's head.
    pub pos: usize,
    /// The attribute's variable in the predicate's description rules.
    pub var: &'a str,
    /// The feature asked about.
    pub feature: &'a str,
    /// The candidate answers.
    pub values: &'a [FeatureArg],
}

/// What [`Engine::probe_sizes`] reports for one [`ProbeSpec`]:
/// `(size, assignments)` per answer, in order, or the error that left the
/// sizes unknown.
pub type ProbeSizes = Result<Vec<(usize, usize)>, EngineError>;

/// `program` with `feature(var) = value` appended to every description
/// rule of the IE predicate `pred` (§5.1: "iFlex adds the predicate
/// f(a) = v to the description rule"): the refinement an answer makes and
/// a probe sizes.
pub fn refine(
    program: &Program,
    pred: &str,
    var: &str,
    feature: &str,
    value: &FeatureArg,
) -> Program {
    let mut out = program.clone();
    for r in out.rules.iter_mut() {
        if r.is_description() && r.head.name == pred {
            r.body.push(BodyAtom::Constraint {
                feature: feature.to_string(),
                var: var.to_string(),
                value: to_constraint_arg(value),
            });
        }
    }
    out
}

/// A query rule split into a candidate-independent base relation and a
/// per-answer σ (DESIGN.md §9).
struct Split<'p> {
    /// The query rule.
    rule: &'p Rule,
    /// The program whose query is the base relation.
    base: Program,
    /// The base relation's columns: the query head's variables, then every
    /// other output variable of an extraction call.
    vars: Vec<String>,
    /// The IE predicates with description rules.
    desc: BTreeSet<&'p str>,
}

/// The split of `prog`, when its query is one rule without annotations:
/// a union's branches may map columns differently, and ψ is not a
/// per-row operator.
fn split(prog: &Program) -> Option<Split<'_>> {
    let mut query_rules = prog
        .rules
        .iter()
        .filter(|r| !r.is_description() && r.head.name == prog.query);
    let rule = query_rules.next()?;
    if query_rules.next().is_some()
        || rule.head.existence
        || rule.head.args.iter().any(|a| a.annotated)
    {
        return None;
    }
    let desc: BTreeSet<&str> = prog
        .description_rules()
        .map(|r| r.head.name.as_str())
        .collect();
    // The base head exposes the query head plus every extraction attribute
    // bound in the rule, so one base result serves probes of any attribute.
    let mut vars: Vec<String> = rule.head.args.iter().map(|h| h.var.clone()).collect();
    for atom in &rule.body {
        let BodyAtom::Pred { name, args } = atom else {
            continue;
        };
        if !desc.contains(name.as_str()) {
            continue;
        }
        for a in args {
            if let (false, Term::Var(v)) = (a.input, &a.term) {
                if !vars.contains(v) {
                    vars.push(v.clone());
                }
            }
        }
    }
    let name = format!("{}__probe_base", prog.query);
    let base_rule = Rule {
        head: Head {
            name: name.clone(),
            args: vars
                .iter()
                .map(|v| HeadArg {
                    var: v.clone(),
                    input: false,
                    annotated: false,
                })
                .collect(),
            existence: false,
        },
        body: rule.body.clone(),
    };
    // The base rule replaces the query rule: a probe must not evaluate
    // the query itself.
    let mut rules: Vec<Rule> = prog
        .rules
        .iter()
        .filter(|r| r.is_description() || r.head.name != prog.query)
        .cloned()
        .collect();
    rules.push(base_rule);
    Some(Split {
        rule,
        base: Program { rules, query: name },
        vars,
        desc,
    })
}

/// True when every call has exactly one input argument and all of them
/// are the same variable.
fn shared_input(calls: &[&[Arg]]) -> bool {
    let mut inputs = calls.iter().map(|args| {
        let mut ins = args.iter().filter(|a| a.input);
        match (ins.next(), ins.next()) {
            (Some(a), None) => a.term.var(),
            _ => None,
        }
    });
    let first = inputs.next().flatten();
    first.is_some() && inputs.all(|v| v == first)
}

/// How many times `atom` mentions the variable `var`.
fn mentions(atom: &BodyAtom, var: &str) -> usize {
    let is_var = |t: &Term| t.var() == Some(var);
    match atom {
        BodyAtom::Pred { args, .. } => args.iter().filter(|a| is_var(&a.term)).count(),
        BodyAtom::Compare { left, right, .. } => {
            usize::from(is_var(left)) + usize::from(is_var(right))
        }
        BodyAtom::Constraint { var: v, .. } => usize::from(v == var),
    }
}

/// The rows one count produces for one answer: its `expanded_len` and
/// its extraction volume, or the error that stopped it.
type Count = Result<(u64, u64), EngineError>;

/// What one output row adds to a count: its `expanded_len` and the
/// assignments of its cells.
fn row_size(cells: &[Cell], store: &DocumentStore) -> (u64, u64) {
    let len = cells
        .iter()
        .filter(|c| c.is_expand())
        .fold(1u64, |acc, c| acc.saturating_mul(c.value_count(store)));
    let assigns: usize = cells.iter().map(|c| c.assignment_count()).sum();
    (len, assigns as u64)
}

/// A join query's compiled plan read as a skeleton: cross-join passes
/// over leaves, each leaf a pass (possibly empty) over one scanned
/// extensional table.
#[derive(Debug, PartialEq)]
struct Skeleton {
    root: Node,
    /// Each leaf's table and pass steps, left to right.
    leaves: Vec<(String, Vec<FusedOp>)>,
}

/// A node of a [`Skeleton`].
#[derive(Debug, PartialEq)]
enum Node {
    /// The leaf at this index.
    Leaf(usize),
    /// A pass over the pairs of `left` × `right`.
    Join {
        steps: Vec<FusedOp>,
        project: Option<(Vec<usize>, Vec<String>)>,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Skeleton {
    /// The skeleton of `plan`, when it holds only passes, cross joins and
    /// extensional scans, joins at least two tables, and only its root
    /// projects: a projecting pass counts the volume of every row it
    /// emits, so any other one would count rows no result row reads.
    fn of(plan: Plan) -> Option<Skeleton> {
        fn node(plan: Plan, leaves: &mut Vec<(String, Vec<FusedOp>)>, root: bool) -> Option<Node> {
            let (input, steps, project) = match plan {
                Plan::ScanExt { name } => {
                    leaves.push((name, Vec::new()));
                    return Some(Node::Leaf(leaves.len() - 1));
                }
                Plan::CrossJoin { left, right } => {
                    (Plan::CrossJoin { left, right }, Vec::new(), None)
                }
                Plan::Pass {
                    input,
                    steps,
                    project,
                } => (*input, steps, project),
                _ => return None,
            };
            if project.is_some() && !root {
                return None;
            }
            match input {
                Plan::ScanExt { name } if project.is_none() => {
                    leaves.push((name, steps));
                    Some(Node::Leaf(leaves.len() - 1))
                }
                Plan::CrossJoin { left, right } => Some(Node::Join {
                    steps,
                    project,
                    left: Box::new(node(*left, leaves, false)?),
                    right: Box::new(node(*right, leaves, false)?),
                }),
                _ => None,
            }
        }
        let mut leaves = Vec::new();
        let root = node(plan, &mut leaves, true)?;
        matches!(root, Node::Join { .. }).then_some(Skeleton { root, leaves })
    }

    /// The leaf whose pass `refined` changes, when that is all it changes:
    /// the same joins over the same tables, and one leaf pass defining
    /// the same columns with other steps.
    fn probed_leaf(&self, refined: &Skeleton) -> Option<usize> {
        if self.root != refined.root || self.leaves.len() != refined.leaves.len() {
            return None;
        }
        let mut changed = None;
        for (k, ((t, steps), (rt, rsteps))) in self.leaves.iter().zip(&refined.leaves).enumerate() {
            if t != rt {
                return None;
            }
            if steps != rsteps {
                if changed.is_some() || extracts(steps) != extracts(rsteps) {
                    return None;
                }
                changed = Some(k);
            }
        }
        changed
    }
}

/// What the result rows reading one leaf row contribute to a count
/// together: `W(r)` of DESIGN.md §9.
#[derive(Debug, Clone, Copy, Default)]
struct Weight {
    /// How many result rows read the leaf row.
    rows: u64,
    /// Their summed `expanded_len`.
    len: u64,
    /// Their summed extraction volume.
    volume: u64,
}

/// One leaf of a [`JoinTrace`]: the rows its pass emitted, the sampled
/// source tuple each came from, and what the result rows reading each
/// one contribute.
#[derive(Debug)]
struct TraceLeaf {
    rows: Arc<CompactTable>,
    sources: CompactTable,
    /// Each row's `W(r)`, by row.
    weights: Vec<Weight>,
    /// The rows some result row reads, ascending.
    used: Vec<u32>,
}

/// The current program's query rule evaluated with row lineage, which
/// join probes count refinements over (DESIGN.md §9): each leaf row's
/// source tuple, each result row's leaf rows, and per leaf row the summed
/// contribution `W(r)` — `expanded_len` and extraction volume — of the
/// result rows that read it, which an answer leaving that row unchanged
/// adds instead of re-evaluating them. Memoized on the query's rule-cache
/// entry.
#[derive(Debug)]
pub(crate) struct JoinTrace {
    /// The skeleton's leaves, left to right.
    leaves: Vec<TraceLeaf>,
    /// Each result row's lineage: the index of the leaf row it reads, one
    /// per leaf, rows concatenated.
    lineage: Vec<u32>,
}

impl JoinTrace {
    /// Estimated heap bytes, counted against the rule cache's budget.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of;
        let leaves: usize = self
            .leaves
            .iter()
            .map(|l| {
                crate::incr::table_bytes(&l.rows)
                    + crate::incr::table_bytes(&l.sources)
                    + l.weights.len() * size_of::<Weight>()
                    + l.used.len() * size_of::<u32>()
            })
            .sum();
        leaves + self.lineage.len() * size_of::<u32>()
    }

    /// The lineage of every result row.
    fn rows(&self) -> std::slice::ChunksExact<'_, u32> {
        self.lineage.chunks_exact(self.leaves.len())
    }
}

/// A node of a [`Skeleton`] evaluated over the traced leaves: its rows,
/// each row's volume, and each row's lineage (one leaf row index per leaf
/// below the node, rows concatenated) with its width.
struct Traced {
    rows: Arc<CompactTable>,
    volumes: Vec<u64>,
    lineage: Vec<u32>,
    width: usize,
}

/// One answer of a join probe: the leaf it refines, that leaf's refined
/// pass, and the columns it narrows that a token prefilter reads.
struct JoinJob {
    leaf: usize,
    pass: Pass,
    check: Vec<usize>,
}

/// The skeleton's join passes, resolved once per call, with the
/// profiles of the current result's cells their `similar` steps read (by
/// step), and profiled per answer over the rows it reads.
enum JoinPlan {
    Leaf(usize),
    Join(Pass, Vec<Option<SimSeed>>, Box<JoinPlan>, Box<JoinPlan>),
}

/// One node's rows in a restricted count: a leaf's rows are its own,
/// found through each result row's lineage; a join's are built, one per
/// distinct pair some result row reads, with their volumes, and each
/// result row points at its own (or at none, when the pair failed).
enum NodeRows {
    Leaf(usize),
    Join(Vec<Option<u32>>, Vec<(Vec<Cell>, u64)>),
}

/// The re-evaluated part of a refined program's delta count
/// ([`count_job`]): the result rows of a [`JoinTrace`] whose probed leaf
/// row its refined leaf pass narrowed. The rows reading a leaf row it
/// left unchanged are served from that row's `W(r)`, and the rows reading
/// one it dropped contribute nothing, so neither appears here.
struct Restricted<'a> {
    ec: &'a EvalCtx,
    trace: &'a JoinTrace,
    /// The refined leaf.
    probed: usize,
    /// The refined leaf's narrowed rows, by the parent's row index.
    refined: Vec<Option<Vec<Cell>>>,
    /// The lineage of every result row whose probed leaf row narrowed.
    rows: Vec<&'a [u32]>,
}

impl Restricted<'_> {
    /// The row of `node` that result row `t` reads.
    fn key(&self, node: &NodeRows, t: usize) -> Option<u32> {
        match node {
            NodeRows::Leaf(k) => Some(self.rows[t][*k]),
            NodeRows::Join(ids, _) => ids[t],
        }
    }

    /// The cells of row `key` of `node`.
    fn cells<'n>(&'n self, node: &'n NodeRows, key: u32) -> &'n [Cell] {
        let key = key as usize;
        match node {
            NodeRows::Leaf(k) if *k == self.probed => self.refined[key].as_deref().unwrap_or(&[]),
            NodeRows::Leaf(k) => &self.trace.leaves[*k].rows.tuples()[key].cells,
            NodeRows::Join(_, rows) => &rows[key].0,
        }
    }

    /// `keys`' rows of `node` as a table, for profiling a join side.
    fn side(&self, node: &NodeRows, keys: &[u32]) -> CompactTable {
        let arity = keys.first().map_or(0, |&k| self.cells(node, k).len());
        let mut t = CompactTable::new(vec![String::new(); arity]);
        for &k in keys {
            t.push(CompactTuple {
                cells: self.cells(node, k).to_vec(),
                maybe: false,
            });
        }
        t
    }

    /// Evaluates `plan` over the narrowed result rows: a join runs its
    /// pass once per distinct (left row, right row) pair they read, with
    /// its `similar` steps profiled over those rows only, and adds the
    /// pairs to `pairs_rerun`. The outer error stops the whole call (the
    /// clock, an injected fault); the inner one fails this answer.
    fn eval(
        &self,
        plan: &JoinPlan,
        pairs_rerun: &mut u64,
    ) -> Result<Result<NodeRows, EngineError>, EngineError> {
        let (pass, seeds, left, right) = match plan {
            JoinPlan::Leaf(k) => return Ok(Ok(NodeRows::Leaf(*k))),
            JoinPlan::Join(pass, seeds, left, right) => (pass, seeds, left, right),
        };
        let l = match self.eval(left, pairs_rerun)? {
            Ok(l) => l,
            Err(e) => return Ok(Err(e)),
        };
        let r = match self.eval(right, pairs_rerun)? {
            Ok(r) => r,
            Err(e) => return Ok(Err(e)),
        };
        // Distinct rows per side and distinct pairs, in first-use order.
        let (mut lkeys, mut rkeys, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
        let (mut lpos, mut rpos) = (HashMap::new(), HashMap::new());
        let mut pair_pos: HashMap<(u32, u32), u32> = HashMap::new();
        let mut pair_of: Vec<Option<u32>> = vec![None; self.rows.len()];
        for (t, slot) in pair_of.iter_mut().enumerate() {
            let (Some(a), Some(b)) = (self.key(&l, t), self.key(&r, t)) else {
                continue;
            };
            let a = *lpos.entry(a).or_insert_with(|| {
                lkeys.push(a);
                lkeys.len() as u32 - 1
            });
            let b = *rpos.entry(b).or_insert_with(|| {
                rkeys.push(b);
                rkeys.len() as u32 - 1
            });
            *slot = Some(*pair_pos.entry((a, b)).or_insert_with(|| {
                pairs.push((a, b));
                pairs.len() as u32 - 1
            }));
        }
        *pairs_rerun += pairs.len() as u64;
        let (lt, rt) = (self.side(&l, &lkeys), self.side(&r, &rkeys));
        let pass = pass.profiled(&lt, &rt, &self.ec.store, seeds);
        let mut overlay = vec![None; lt.arity() + rt.arity() + pass.extracts];
        let mut built: Vec<(Vec<Cell>, u64)> = Vec::new();
        let mut row_of_pair: Vec<Option<u32>> = Vec::with_capacity(pairs.len());
        for &(a, b) in &pairs {
            let (a, b) = (a as usize, b as usize);
            self.ec.clock.tick().map_err(EngineError::from)?;
            if let Some(f) = self.ec.fault.hit(site::JOIN_TUPLE) {
                return Err(injected(f));
            }
            let (lc, rc) = (&lt.tuples()[a].cells, &rt.tuples()[b].cells);
            match self.ec.pass_row(&pass, lc, rc, Some((a, b)), &mut overlay) {
                Ok(Some((cells, _, volume))) => {
                    row_of_pair.push(Some(built.len() as u32));
                    built.push((cells, volume));
                }
                Ok(None) => row_of_pair.push(None),
                Err(e) => return Ok(Err(e)),
            }
        }
        let ids = pair_of
            .into_iter()
            .map(|p| p.and_then(|p| row_of_pair[p as usize]))
            .collect();
        Ok(Ok(NodeRows::Join(ids, built)))
    }
}

/// A join probe's count of one answer: its size and volume, `None` when
/// the count cannot stand for the refined run, or the error that
/// stopped it.
type JoinCount = Result<Option<(u64, u64)>, EngineError>;

/// How a call's join counts split their work, reported by its `delta`
/// trace mark.
#[derive(Debug, Clone, Copy, Default)]
struct Delta {
    /// Leaf rows an answer left unchanged, served from their `W(r)`.
    leaves_served: u64,
    /// The result rows reading them.
    rows_served: u64,
    /// Result rows whose probed leaf row an answer narrowed, re-evaluated.
    rows_rerun: u64,
    /// Distinct pairs the join passes re-evaluated for them.
    pairs_rerun: u64,
}

impl Delta {
    fn add(&mut self, other: Delta) {
        self.leaves_served += other.leaves_served;
        self.rows_served += other.rows_served;
        self.rows_rerun += other.rows_rerun;
        self.pairs_rerun += other.pairs_rerun;
    }
}

/// The refined program's count for `job` over `trace`, as a delta of the
/// current one: its leaf pass over the source tuples of the leaf rows
/// some result row reads; then, per surviving leaf row, its `W(r)` when
/// the refined cells equal the parent's — each such row costing the
/// clock one tick and the fault plan one `engine.join_tuple` hit, as one
/// re-evaluated pair would — and otherwise the join passes over the
/// result rows that read it. When no row narrowed, no join pass runs.
///
/// When the refinement narrows a column a token prefilter reads, the
/// leaf pass runs over every leaf row, and a refined cell that gains a
/// token leaves the count inexact (`None`): the prefilter profiles a
/// `contain` region by its text, so a region cut inside a word may match
/// a pair the current program dropped. The outer error stops the whole
/// call; the inner one fails this answer.
fn count_job(
    ec: &EvalCtx,
    trace: &JoinTrace,
    joins: &JoinPlan,
    job: &JoinJob,
) -> Result<(JoinCount, Delta), EngineError> {
    let leaf = &trace.leaves[job.leaf];
    let mut delta = Delta::default();
    let (mut size, mut volume) = (0u64, 0u64);
    let mut refined = vec![None; leaf.rows.len()];
    let mut narrowed = false;
    let mut overlay = vec![None; leaf.sources.arity() + job.pass.extracts];
    let every: Vec<u32>;
    let rows: &[u32] = if job.check.is_empty() {
        &leaf.used
    } else {
        every = (0..leaf.rows.len() as u32).collect();
        &every
    };
    for &i in rows {
        let i = i as usize;
        ec.clock.tick().map_err(EngineError::from)?;
        let src = &leaf.sources.tuples()[i].cells;
        let cells = match ec.pass_row(&job.pass, src, &[], None, &mut overlay) {
            Ok(Some((cells, ..))) => cells,
            Ok(None) => continue,
            Err(e) => return Ok((Err(e), delta)),
        };
        let parent = &leaf.rows.tuples()[i].cells;
        let w = leaf.weights[i];
        if cells == *parent {
            // The join passes are deterministic in their cells, so every
            // result row reading this row contributes what it did in the
            // trace.
            if w.rows > 0 {
                ec.clock.tick().map_err(EngineError::from)?;
                if let Some(f) = ec.fault.hit(site::JOIN_TUPLE) {
                    return Err(injected(f));
                }
                size = size.saturating_add(w.len);
                volume = volume.saturating_add(w.volume);
                delta.leaves_served += 1;
                delta.rows_served += w.rows;
            }
            continue;
        }
        let store = &ec.store;
        if !job
            .check
            .iter()
            .all(|&c| tokens_within(&cells[c], &parent[c], store))
        {
            return Ok((Ok(None), delta));
        }
        narrowed |= w.rows > 0;
        refined[i] = Some(cells);
    }
    if narrowed {
        let rows: Vec<&[u32]> = trace
            .rows()
            .filter(|t| refined[t[job.leaf] as usize].is_some())
            .collect();
        delta.rows_rerun = rows.len() as u64;
        let restricted = Restricted {
            ec,
            trace,
            probed: job.leaf,
            refined,
            rows,
        };
        let root = match restricted.eval(joins, &mut delta.pairs_rerun)? {
            Ok(NodeRows::Join(_, rows)) => rows,
            Ok(NodeRows::Leaf(_)) => Vec::new(),
            Err(e) => return Ok((Err(e), delta)),
        };
        // Each result row reads its own root pair, so the root's rows are
        // the refined result's.
        for (cells, v) in &root {
            let (len, assigns) = row_size(cells, &ec.store);
            size = size.saturating_add(len);
            volume = volume.saturating_add(*v).saturating_add(assigns);
        }
    }
    Ok((Ok(Some((size, volume))), delta))
}

/// Seeds the `similar` steps of `plan` with the profiles of the cells
/// they read in the current result — the used rows of each leaf — and
/// returns each output column as the (leaf, column) it passes through,
/// or `None` for a column a join pass defines. The leaf columns a token
/// prefilter reads go to `read`.
fn seed(
    plan: &mut JoinPlan,
    trace: &JoinTrace,
    store: &DocumentStore,
    read: &mut BTreeSet<(usize, usize)>,
) -> Vec<Option<(usize, usize)>> {
    let (pass, seeds, left, right) = match plan {
        JoinPlan::Leaf(k) => {
            let arity = trace.leaves[*k].rows.arity();
            return (0..arity).map(|c| Some((*k, c))).collect();
        }
        JoinPlan::Join(pass, seeds, left, right) => (pass, seeds, left, right),
    };
    let mut cols = seed(left, trace, store, read);
    let la = cols.len();
    cols.extend(seed(right, trace, store, read));
    for (i, lc, rc) in pass.sim_steps(la) {
        let origins = [cols[lc], cols[la + rc]];
        if i == 0 {
            read.extend(origins.iter().flatten());
        }
        let cells = origins.into_iter().flatten().flat_map(|(k, c)| {
            let leaf = &trace.leaves[k];
            let rows = leaf.rows.tuples();
            leaf.used.iter().map(move |&r| &rows[r as usize].cells[c])
        });
        seeds.resize_with(seeds.len().max(i + 1), || None);
        seeds[i] = Some(SimSeed::new(i == 0, cells, store, ENUM_CAP));
    }
    // Only the root projects, and nothing reads its output.
    cols.resize(cols.len() + pass.extracts, None);
    cols
}

/// The columns of a leaf pass `refined` narrows beyond `parent`: each
/// new constraint's and new `from` step's, and each column a `from` step
/// extracts out of a narrowed one. Any other step drops rows, not values.
fn narrowed(parent: &[FusedOp], refined: &[FusedOp]) -> Vec<usize> {
    let mut cols = Vec::new();
    for step in refined {
        let new = !parent.contains(step);
        match step {
            FusedOp::Extract { src, col } if new || cols.contains(src) => cols.push(*col),
            FusedOp::Constraint { col, .. } if new => cols.push(*col),
            _ => {}
        }
    }
    cols
}

impl Engine {
    /// Sizes every candidate answer of every question in `specs` over
    /// `sample`: for each answer, the `expanded_len` of the refined
    /// program's result and the run's `assignments_produced` — what
    /// running the split program of DESIGN.md §9 (overlay probes) or the
    /// refined program (join probes and every other shape) reports.
    ///
    /// Overlay probes run the base relation (or serve it from the rule
    /// cache) once per call, then one morsel-parallel pass sends each base
    /// row through every answer's one-step σ and the head projection (the
    /// pass evaluator's `pass_row`), adding up sizes instead of building
    /// rows. Join probes run the current program once per call and count
    /// every answer in one morsel section over its `JoinTrace`, as a delta
    /// that re-evaluates join rows only where the answer narrowed their
    /// probed leaf row. Sizes
    /// (and the trace) are memoized on the cache entry, so a repeated call
    /// evaluates no rule and scans no tuple. An answer neither count
    /// admits — or a join answer whose refinement cuts a word the token
    /// prefilter reads — is sized by running its [`refine`]d program; a
    /// join answer's run is memoized like its count. [`Engine::stats`]
    /// describes the last run.
    ///
    /// A degraded run, an expired deadline, a cancellation, an injected
    /// fault or a panic in a count or a refined run fails its whole
    /// question with `Err`, and nothing is memoized from it; a feature
    /// error fails its own question only.
    pub fn probe_sizes(
        &mut self,
        prog: &Program,
        sample: Sample,
        specs: &[ProbeSpec<'_>],
    ) -> Vec<ProbeSizes> {
        let mut out: Vec<Option<ProbeSizes>> = vec![None; specs.len()];
        if let Some(split) = split(prog) {
            let cols: Vec<Option<usize>> = specs
                .iter()
                .map(|s| self.probed_col(&split, s.pred, s.pos))
                .collect();
            if cols.iter().any(Option::is_some) {
                self.count_overlay(&split, sample, specs, &cols, &mut out);
            }
            if cols.iter().any(Option::is_none) {
                let joins: Vec<usize> = (0..specs.len()).filter(|&i| cols[i].is_none()).collect();
                self.count_joins(prog, split.rule, sample, specs, &joins, &mut out);
            }
        }
        out.into_iter()
            .zip(specs)
            .map(|(sizes, spec)| match sizes {
                Some(sizes) => sizes,
                // Neither count admits the spec: run each answer.
                None => spec
                    .values
                    .iter()
                    .map(|v| self.refined_size(prog, sample, spec, v))
                    .collect(),
            })
            .collect()
    }

    /// `(expanded_len, assignments_produced)` of the refinement of `prog`
    /// by `spec`'s answer `v`, run over `sample`.
    fn refined_size(
        &mut self,
        prog: &Program,
        sample: Sample,
        spec: &ProbeSpec<'_>,
        v: &FeatureArg,
    ) -> Result<(usize, usize), EngineError> {
        let refined = refine(prog, spec.pred, spec.var, spec.feature, v);
        let t = self.clean_run(&refined, sample)?;
        let size = t.expanded_len(self.store()).min(usize::MAX as u64) as usize;
        Ok((size, self.stats.assignments_produced))
    }

    /// Runs `prog` over `sample`: its result, or the run's error — or its
    /// first degradation's, since a degraded run is no result to count
    /// over or to size.
    fn clean_run(
        &mut self,
        prog: &Program,
        sample: Sample,
    ) -> Result<Arc<CompactTable>, EngineError> {
        let t = self.run_sampled(prog, sample)?;
        match self.stats.degradations.first() {
            None => Ok(t),
            Some(d) => Err(EngineError::from(d.cause)),
        }
    }

    /// The overlay path: every spec with a base column in `cols`, counted
    /// over the split's base relation.
    fn count_overlay(
        &mut self,
        split: &Split<'_>,
        sample: Sample,
        specs: &[ProbeSpec<'_>],
        cols: &[Option<usize>],
        out: &mut [Option<ProbeSizes>],
    ) {
        for ((o, c), s) in out.iter_mut().zip(cols).zip(specs) {
            if c.is_some() {
                *o = Some(Ok(vec![(0, 0); s.values.len()]));
            }
        }
        let base = match self.clean_run(&split.base, sample) {
            Ok(t) => t,
            Err(e) => {
                for (o, c) in out.iter_mut().zip(cols) {
                    if c.is_some() {
                        *o = Some(Err(e.clone()));
                    }
                }
                return;
            }
        };
        let key = self.query_key.take();
        let base_volume = self.stats.assignments_produced;
        let head = split.rule.head.args.len();
        let proj: Vec<usize> = (0..head).collect();
        let names = &split.vars[..head];

        // Memo hits fill in directly; the rest become one pass each.
        let mut todo: Vec<(usize, usize, String)> = Vec::new();
        let mut passes: Vec<Pass> = Vec::new();
        for (i, (spec, col)) in specs.iter().zip(cols).enumerate() {
            let Some(col) = *col else { continue };
            for (j, v) in spec.values.iter().enumerate() {
                let probe = format!("{col}/{head} {}={v:?}", spec.feature);
                if let Some((size, vol)) =
                    key.as_ref().and_then(|k| self.incr.probe_size(k, &probe))
                {
                    if let Some(Ok(sizes)) = &mut out[i] {
                        sizes[j] = (size, base_volume.saturating_add(vol as usize));
                    }
                    continue;
                }
                let step = FusedOp::Constraint {
                    col,
                    constraint: CompiledConstraint {
                        feature: spec.feature.to_string(),
                        arg: v.clone(),
                    },
                    priors: Vec::new(),
                };
                match self.resolve_pass(&[step], Some((&proj, names)), None) {
                    Ok(pass) => {
                        passes.push(pass);
                        todo.push((i, j, probe));
                    }
                    Err(e) => out[i] = Some(Err(e)),
                }
            }
        }
        if passes.is_empty() {
            return;
        }
        let counts = match self.count_pass(&base, passes) {
            Ok(counts) => counts,
            Err(e) => (0..todo.len()).map(|_| Err(e.clone())).collect(),
        };
        for ((i, j, probe), count) in todo.into_iter().zip(counts) {
            let Some(Ok(sizes)) = &mut out[i] else {
                continue; // an earlier answer of this spec failed
            };
            match count {
                Ok((size, vol)) => {
                    let size = size.min(usize::MAX as u64) as usize;
                    sizes[j] = (size, base_volume.saturating_add(vol as usize));
                    if let Some(k) = &key {
                        self.incr.memo_probe(k, probe, (size, vol));
                    }
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
    }

    /// The join path: each spec of `todo` whose answers all change only
    /// one leaf pass of `prog`'s join skeleton, counted over the current
    /// program's [`JoinTrace`]; an answer whose count cannot stand for
    /// its refined run is run. A spec left `None` is run whole.
    fn count_joins(
        &mut self,
        prog: &Program,
        rule: &Rule,
        sample: Sample,
        specs: &[ProbeSpec<'_>],
        todo: &[usize],
        out: &mut [Option<ProbeSizes>],
    ) {
        let Some(parent) = self.skeleton(prog) else {
            return;
        };
        // The refined call site must be the only one: the real refinement
        // constrains every call site.
        let one_site = |pred: &str| {
            let sites = rule
                .body
                .iter()
                .filter(|a| matches!(a, BodyAtom::Pred { name, .. } if name == pred));
            sites.count() == 1
        };
        let todo: Vec<usize> = todo
            .iter()
            .copied()
            .filter(|&i| one_site(specs[i].pred))
            .collect();
        if todo.is_empty() {
            return;
        }
        if let Err(e) = self.clean_run(prog, sample) {
            for &i in &todo {
                out[i] = Some(Err(e.clone()));
            }
            return;
        }
        let key = self.query_key.take();

        // Memo hits fill in directly; every other answer must refine one
        // leaf pass, or its spec is run whole. The compiler places a
        // constraint by its variable and its step scheduler reads no
        // constraint argument, so the answers of one spec compile to one
        // plan up to the new constraint's argument: the first is compiled,
        // the others substitute theirs.
        let mut todo_jobs: Vec<(usize, usize, String)> = Vec::new();
        let mut jobs: Vec<JoinJob> = Vec::new();
        for &i in &todo {
            let spec = &specs[i];
            let mut sizes = vec![(0, 0); spec.values.len()];
            let mut spec_jobs = Vec::new();
            let mut compiled: Option<(usize, Vec<FusedOp>, usize)> = None;
            let admitted = spec.values.iter().enumerate().all(|(j, v)| {
                let probe = format!("join {}/{} {}={v:?}", spec.pred, spec.pos, spec.feature);
                if let Some(memo) = key.as_ref().and_then(|k| self.incr.probe_size(k, &probe)) {
                    sizes[j] = (memo.0, memo.1 as usize);
                    return true;
                }
                let (leaf, steps) = match &compiled {
                    Some((leaf, steps, at)) => {
                        let mut steps = steps.clone();
                        if let FusedOp::Constraint { constraint, .. } = &mut steps[*at] {
                            constraint.arg = v.clone();
                        }
                        (*leaf, steps)
                    }
                    None => {
                        let refined = refine(prog, spec.pred, spec.var, spec.feature, v);
                        let Some(mut skel) = self.skeleton(&refined) else {
                            return false;
                        };
                        let Some(leaf) = parent.probed_leaf(&skel) else {
                            return false;
                        };
                        let steps = std::mem::take(&mut skel.leaves[leaf].1);
                        let new = |op: &FusedOp| match op {
                            FusedOp::Constraint { constraint, .. } => {
                                constraint.feature == spec.feature
                                    && constraint.arg == *v
                                    && !parent.leaves[leaf].1.contains(op)
                            }
                            _ => false,
                        };
                        let Some(at) = steps.iter().position(new) else {
                            return false;
                        };
                        compiled = Some((leaf, steps.clone(), at));
                        (leaf, steps)
                    }
                };
                let check = narrowed(&parent.leaves[leaf].1, &steps);
                match self.resolve_pass(&steps, None, None) {
                    Ok(pass) => {
                        spec_jobs.push(((i, j, probe), JoinJob { leaf, pass, check }));
                        true
                    }
                    Err(_) => false,
                }
            });
            if admitted {
                out[i] = Some(Ok(sizes));
                for (meta, job) in spec_jobs {
                    todo_jobs.push(meta);
                    jobs.push(job);
                }
            }
        }
        if jobs.is_empty() {
            return;
        }
        let memo = key.as_ref().and_then(|k| self.incr.trace(k));
        let counted = match memo {
            Some(t) => Ok(t),
            None => self.join_trace(&parent, sample).map(Arc::new),
        }
        .and_then(|trace| {
            let joins = self.join_plan(&parent.root)?;
            let counts = self.count_restricted(Arc::clone(&trace), joins, jobs)?;
            Ok((trace, counts))
        });
        let counts = match counted {
            Ok((trace, counts)) => {
                if let Some(k) = &key {
                    self.incr.memo_trace(k, trace);
                }
                counts
            }
            Err(e) => {
                for (i, ..) in &todo_jobs {
                    out[*i] = Some(Err(e.clone()));
                }
                return;
            }
        };
        for ((i, j, probe), count) in todo_jobs.into_iter().zip(counts) {
            if !matches!(out[i], Some(Ok(_))) {
                continue; // an earlier answer of this spec failed
            }
            let size = match count {
                Ok(Some((size, vol))) => Ok((size.min(usize::MAX as u64) as usize, vol)),
                // The refinement cuts a word a prefilter reads: run it.
                Ok(None) => self
                    .refined_size(prog, sample, &specs[i], &specs[i].values[j])
                    .map(|(size, vol)| (size, vol as u64)),
                Err(e) => Err(e),
            };
            match size {
                Ok((size, vol)) => {
                    if let Some(Ok(sizes)) = &mut out[i] {
                        sizes[j] = (size, vol.min(usize::MAX as u64) as usize);
                    }
                    if let Some(k) = &key {
                        self.incr.memo_probe(k, probe, (size, vol));
                    }
                }
                Err(e) => out[i] = Some(Err(e)),
            }
        }
    }

    /// The join skeleton of `prog`'s query rule as a run compiles it,
    /// when `prog` unfolds to that one rule.
    fn skeleton(&self, prog: &Program) -> Option<Skeleton> {
        let pro = self.prologue(prog).ok()?;
        let [rule] = pro.unfolded.rules.as_slice() else {
            return None;
        };
        Skeleton::of(compile_rule(rule, &pro.env()).ok()?)
    }

    /// `node`'s join passes, resolved without profiles.
    fn join_plan(&self, node: &Node) -> Result<JoinPlan, EngineError> {
        Ok(match node {
            Node::Leaf(k) => JoinPlan::Leaf(*k),
            Node::Join {
                steps,
                project,
                left,
                right,
            } => {
                let proj = project.as_ref().map(|(c, n)| (c.as_slice(), n.as_slice()));
                JoinPlan::Join(
                    self.resolve_pass(steps, proj, None)?,
                    Vec::new(),
                    Box::new(self.join_plan(left)?),
                    Box::new(self.join_plan(right)?),
                )
            }
        })
    }

    /// Runs `body` as one evaluation behind the rule boundary: with a
    /// worker pool of its own, after the `engine.eval_rule` fault site
    /// fires once, and with a panic turned into
    /// [`EngineError::RulePanic`].
    fn rule_boundary<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        self.pool = Some(crate::par::RunPool::new(self.limits.threads));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(f) = self.fault.hit(site::EVAL_RULE) {
                return Err(injected(f));
            }
            body(self)
        }));
        self.pool = None;
        caught
            .unwrap_or_else(|payload| Err(EngineError::RulePanic(panic_message(payload.as_ref()))))
    }

    /// Evaluates the query rule of skeleton `skel` over `sample` with row
    /// lineage, behind the rule boundary, and sums each result row's
    /// contribution into the `W(r)` of every leaf row it reads.
    fn join_trace(&mut self, skel: &Skeleton, sample: Sample) -> Result<JoinTrace, EngineError> {
        self.rule_boundary(|eng| {
            let mut leaves = Vec::with_capacity(skel.leaves.len());
            for (table, steps) in &skel.leaves {
                leaves.push(eng.trace_leaf(table, steps, sample)?);
            }
            let root = eng.trace_join(&skel.root, &leaves)?;
            // A result row contributes what a count sums for it: its
            // `expanded_len`, and its root pass's volume plus its cells'
            // assignments.
            let lineage = root.lineage.chunks_exact(root.width);
            for ((tup, &v), t) in root.rows.tuples().iter().zip(&root.volumes).zip(lineage) {
                let (len, assigns) = row_size(&tup.cells, eng.store());
                for (leaf, &r) in leaves.iter_mut().zip(t) {
                    let w = &mut leaf.weights[r as usize];
                    w.rows += 1;
                    w.len = w.len.saturating_add(len);
                    w.volume = w.volume.saturating_add(v).saturating_add(assigns);
                }
            }
            for leaf in &mut leaves {
                let read = |&r: &u32| leaf.weights[r as usize].rows > 0;
                leaf.used = (0..leaf.weights.len() as u32).filter(read).collect();
            }
            Ok(JoinTrace {
                leaves,
                lineage: root.lineage,
            })
        })
    }

    /// A leaf's pass over the sampled `table`, each row kept with its
    /// source tuple.
    fn trace_leaf(
        &mut self,
        table: &str,
        steps: &[FusedOp],
        sample: Sample,
    ) -> Result<TraceLeaf, EngineError> {
        let ext = self
            .ext_tables()
            .find(|(name, _)| *name == table)
            .map(|(_, t)| sample.apply(t))
            .ok_or_else(|| EngineError::MissingTable(table.to_string()))?;
        let pass = self.resolve_pass(steps, None, None)?;
        let mut rows = CompactTable::new(pass.columns(ext.columns().to_vec(), None));
        let mut sources = CompactTable::new(ext.columns().to_vec());
        let ext = Arc::new(ext);
        for (i, row, _) in self.table_rows(Arc::clone(&ext), pass, self.trace_parent)? {
            rows.push(row);
            sources.push(ext.tuples()[i].clone());
        }
        Ok(TraceLeaf {
            weights: vec![Weight::default(); rows.len()],
            used: Vec::new(),
            rows: Arc::new(rows),
            sources,
        })
    }

    /// `node` over the traced leaves, with each row's volume and lineage.
    fn trace_join(&mut self, node: &Node, leaves: &[TraceLeaf]) -> Result<Traced, EngineError> {
        let (steps, project, left, right) = match node {
            Node::Leaf(k) => {
                let rows = Arc::clone(&leaves[*k].rows);
                return Ok(Traced {
                    volumes: vec![0; rows.len()],
                    lineage: (0..rows.len() as u32).collect(),
                    width: 1,
                    rows,
                });
            }
            Node::Join {
                steps,
                project,
                left,
                right,
            } => (steps, project, left, right),
        };
        let l = self.trace_join(left, leaves)?;
        let r = self.trace_join(right, leaves)?;
        let proj = project.as_ref().map(|(c, n)| (c.as_slice(), n.as_slice()));
        let pass = self.resolve_pass(steps, proj, Some((&l.rows, &r.rows)))?;
        let in_cols = [l.rows.columns(), r.rows.columns()].concat();
        let mut out = CompactTable::new(pass.columns(in_cols, proj));
        let rows = self.pair_rows(l.rows, r.rows, pass, self.trace_parent)?;
        if rows.len() > self.limits.max_result_tuples {
            return Err(EngineError::TooLarge("join result".into()));
        }
        let (lw, rw) = (l.width, r.width);
        let mut lineage = Vec::with_capacity(rows.len() * (lw + rw));
        let mut volumes = Vec::with_capacity(rows.len());
        for ((li, ri), tup, volume) in rows {
            lineage.extend_from_slice(&l.lineage[li * lw..][..lw]);
            lineage.extend_from_slice(&r.lineage[ri * rw..][..rw]);
            volumes.push(volume);
            out.push(tup);
        }
        Ok(Traced {
            rows: Arc::new(out),
            volumes,
            lineage,
            width: lw + rw,
        })
    }

    /// Counts every job over `trace` in one morsel section, parallel
    /// across answers, behind the rule boundary, each as a delta
    /// ([`count_job`]). A feature error fails its own answer; a clock
    /// trip, an injected fault or a panic fails all. With the tracer on, a
    /// call that counts emits one `delta` mark: the leaf rows and result
    /// rows its answers served from the trace, and the result rows and
    /// distinct pairs they re-evaluated.
    fn count_restricted(
        &mut self,
        trace: Arc<JoinTrace>,
        mut joins: JoinPlan,
        mut jobs: Vec<JoinJob>,
    ) -> Result<Vec<JoinCount>, EngineError> {
        self.rule_boundary(|eng| {
            // Each cell of the current result a `similar` step reads is
            // profiled once here, not once per answer; a narrowed column
            // is token-checked only where a prefilter reads it.
            let mut read = BTreeSet::new();
            seed(&mut joins, &trace, eng.store(), &mut read);
            for job in &mut jobs {
                job.check.retain(|&c| read.contains(&(job.leaf, c)));
            }
            let ec = eng.eval_ctx();
            let mut section = eng.section_ctx(eng.trace_parent);
            // An answer is a leaf pass and a join's worth of work: one
            // answer per morsel keeps both threads busy.
            section.cfg.min = 1;
            let mr = crate::par::scatter(&section, jobs.len(), move |range| {
                range
                    .map(|j| count_job(&ec, &trace, &joins, &jobs[j]))
                    .collect()
            });
            eng.note_section(&mr.stats);
            let mut total = Delta::default();
            let counts = mr.merge()?.into_iter().map(|(count, delta)| {
                total.add(delta);
                count
            });
            let counts = counts.collect();
            if let Some((t, parent)) = eng.tracer.ctx(eng.trace_parent) {
                let note = format!(
                    "leaf_rows_served={} rows_served={} rows_rerun={} pairs_rerun={}",
                    total.leaves_served, total.rows_served, total.rows_rerun, total.pairs_rerun
                );
                t.instant(parent, SpanKind::Mark, "delta", Some(&note));
            }
            Ok(counts)
        })
    }

    /// The base column a probe of `pred`'s attribute `pos` constrains, when
    /// the split admits it (DESIGN.md §9): the σ after the base pass must
    /// drop exactly the rows the constraint would drop inside the
    /// description rule. That holds when `pred` is called once and its
    /// caller variable is a base column, and — with several extraction
    /// calls — when every call reads the same single input (one row per
    /// input tuple) and no other atom reads the probed variable before the
    /// σ could narrow it, except a generator p-predicate whose outputs
    /// only the head reads (Chair's `extractType(#x, z)`): a generator
    /// enumerates its input, so each of its rows carries one value the σ
    /// keeps or drops whole. Calls over different inputs join their rows,
    /// and a pre-join constraint prunes partners a post-join σ cannot (T3,
    /// T6, T9): the join path counts those. With one call, a compare on the probed variable (T1's
    /// `votes < 25000`) only loosens the count's upper bound, so the split
    /// stays.
    fn probed_col(&self, split: &Split<'_>, pred: &str, pos: usize) -> Option<usize> {
        let body = &split.rule.body;
        // A repeated call site would make the mapping ambiguous (the real
        // refinement constrains every call site).
        let mut sites = body
            .iter()
            .filter(|a| matches!(a, BodyAtom::Pred { name, .. } if name == pred));
        let site = sites.next()?;
        if sites.next().is_some() {
            return None;
        }
        let BodyAtom::Pred { args, .. } = site else {
            return None;
        };
        let caller = args.get(pos)?.term.var()?;
        let calls: Vec<&[Arg]> = body
            .iter()
            .filter_map(|a| match a {
                BodyAtom::Pred { name, args } if split.desc.contains(name.as_str()) => {
                    Some(args.as_slice())
                }
                _ => None,
            })
            .collect();
        let read_elsewhere = body.iter().any(|a| {
            !std::ptr::eq(a, site)
                && mentions(a, caller) > 0
                && !self.head_only_generator(body, a, caller)
        });
        if calls.len() > 1
            && (!shared_input(&calls) || mentions(site, caller) != 1 || read_elsewhere)
        {
            return None;
        }
        split.vars.iter().position(|v| v == caller)
    }

    /// True when `atom` calls a generator p-predicate that reads `var`
    /// only as an input and whose every output is a variable no other
    /// body atom reads.
    fn head_only_generator(&self, body: &[BodyAtom], atom: &BodyAtom, var: &str) -> bool {
        let BodyAtom::Pred { name, args } = atom else {
            return false;
        };
        matches!(self.procs.get(name), Some(Procedure::Generator { .. }))
            && args.iter().all(|a| {
                if a.input {
                    return true;
                }
                match a.term.var() {
                    Some(out) => {
                        out != var
                            && body
                                .iter()
                                .all(|b| std::ptr::eq(b, atom) || mentions(b, out) == 0)
                    }
                    None => false,
                }
            })
    }

    /// One morsel-parallel pass over `base`: every row through every
    /// pass, summing per pass the surviving rows' `expanded_len` and
    /// extraction volume (`pass_row`'s pre-projection volume plus the
    /// projected cells' assignments). The pass is one evaluation behind
    /// the rule boundary. An error in one pass leaves the others
    /// counting; a clock trip, an injected fault or a panic fails all.
    fn count_pass(
        &mut self,
        base: &Arc<CompactTable>,
        passes: Vec<Pass>,
    ) -> Result<Vec<Count>, EngineError> {
        let n = passes.len();
        self.rule_boundary(|eng| {
            let ec = eng.eval_ctx();
            let t = Arc::clone(base);
            let mr =
                crate::par::scatter(&eng.section_ctx(eng.trace_parent), t.len(), move |range| {
                    let mut overlay = vec![None; t.arity()];
                    let mut sums: Vec<Count> = vec![Ok((0, 0)); n];
                    for tup in &t.tuples()[range] {
                        ec.clock.tick().map_err(EngineError::from)?;
                        for (pass, sum) in passes.iter().zip(&mut sums) {
                            let Ok((size, volume)) = sum else { continue };
                            let row = ec.pass_row(pass, &tup.cells, &[], None, &mut overlay);
                            match row {
                                Ok(Some((cells, _, v))) => {
                                    let (len, assigns) = row_size(&cells, &ec.store);
                                    *size = size.saturating_add(len);
                                    *volume = volume.saturating_add(v).saturating_add(assigns);
                                }
                                Ok(None) => {}
                                Err(e) => *sum = Err(e),
                            }
                        }
                    }
                    Ok(vec![sums])
                });
            eng.note_section(&mr.stats);
            let mut total: Vec<Count> = vec![Ok((0, 0)); n];
            for part in mr.merge()? {
                for (acc, c) in total.iter_mut().zip(part) {
                    match (acc, c) {
                        (Ok((s, v)), Ok((ds, dv))) => {
                            *s = s.saturating_add(ds);
                            *v = v.saturating_add(dv);
                        }
                        (acc @ Ok(_), Err(e)) => *acc = Err(e),
                        (Err(_), _) => {}
                    }
                }
            }
            Ok(total)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_alog::{parse_program, ConstraintArg};
    use iflex_features::FeatureValue;
    use iflex_text::DocumentStore;

    /// Whether the probe of attribute `pos` of `pred` in `src` is counted
    /// over the split; otherwise the join count or the refined run sizes
    /// it.
    fn admits(src: &str, pred: &str, pos: usize) -> bool {
        let p = parse_program(src).unwrap();
        let mut eng = Engine::new(Arc::new(DocumentStore::new()));
        eng.procs_mut()
            .register_generator("extractType", 1, |_, _| Vec::new());
        split(&p)
            .and_then(|s| eng.probed_col(&s, pred, pos))
            .is_some()
    }

    #[test]
    fn calls_over_one_input_split_every_attribute() {
        let panel = r#"
            onPanel(x, y) :- docs(d), extractPanelists(#d, x), extractConference(#d, y).
            extractPanelists(#d, x) :- from(#d, x), person-name(x) = yes.
            extractConference(#d, y) :- from(#d, y), in-title(y) = yes.
        "#;
        assert!(admits(panel, "extractPanelists", 1));
        assert!(admits(panel, "extractConference", 1));
        let project = r#"
            worksOn(x, y) :- docs(d), extractOwner(#d, x), extractProjects(#d, y).
            extractOwner(#d, x) :- from(#d, x), person-name(x) = yes.
            extractProjects(#d, y) :- from(#d, y), in-title(y) = yes.
        "#;
        assert!(admits(project, "extractOwner", 1));
        assert!(admits(project, "extractProjects", 1));
    }

    const T3: &str = r#"
        t3(title1) :- imdb(x), extractIMDBt(#x, title1),
                      ebert(y), extractEbertT(#y, title2),
                      prasanna(z), extractPrasT(#z, title3),
                      similar(#title1, #title2), similar(#title2, #title3).
        extractIMDBt(#x, t) :- from(#x, t).
        extractEbertT(#y, t) :- from(#y, t).
        extractPrasT(#z, t) :- from(#z, t).
    "#;
    const T6: &str = r#"
        t6(title1) :- sigmod(x), extractSIGMOD(#x, title1, authors1),
                      icde(y), extractICDE(#y, title2, authors2),
                      similar(#authors1, #authors2).
        extractSIGMOD(#x, t, a) :- from(#x, t), from(#x, a), bold-font(t) = distinct-yes.
        extractICDE(#y, t, a) :- from(#y, t), from(#y, a), bold-font(t) = distinct-yes.
    "#;
    const T9: &str = r#"
        t9(title1) :- amazon(x), extractAmazonT(#x, title1, np),
                      barnes(y), extractBarnesT(#y, title2, bp),
                      similar(#title1, #title2), np < bp.
        extractAmazonT(#x, t, p) :- from(#x, t), from(#x, p), numeric(p) = yes.
        extractBarnesT(#y, t, p) :- from(#y, t), from(#y, p), numeric(p) = yes.
    "#;

    /// The probed attributes of [`T3`], [`T6`] and [`T9`] as (program, IE
    /// predicate, position, variable).
    const JOIN_ATTRS: [(&str, &str, usize, &str); 10] = [
        (T3, "extractIMDBt", 1, "t"),
        (T3, "extractEbertT", 1, "t"),
        (T3, "extractPrasT", 1, "t"),
        (T6, "extractSIGMOD", 1, "t"),
        (T6, "extractSIGMOD", 2, "a"),
        (T6, "extractICDE", 2, "a"),
        (T9, "extractAmazonT", 1, "t"),
        (T9, "extractAmazonT", 2, "p"),
        (T9, "extractBarnesT", 1, "t"),
        (T9, "extractBarnesT", 2, "p"),
    ];

    /// `engine(docs)` with the join tasks' tables, each over its pages.
    fn join_engine(docs: usize) -> Engine {
        let mut eng = engine(docs);
        let ids: Vec<_> = eng.store().iter().map(|d| d.id()).collect();
        for table in ["ebert", "prasanna", "sigmod", "icde", "amazon", "barnes"] {
            eng.add_doc_table(table, &ids);
        }
        eng
    }

    /// `feature`'s answers for attribute `pos` (variable `var`) of `pred`
    /// in `src`, sized by [`Engine::probe_sizes`] on `eng`.
    fn join_probe(
        eng: &mut Engine,
        src: &str,
        (pred, pos, var): (&str, usize, &str),
        feature: &str,
        sample: Sample,
    ) -> ProbeSizes {
        let values = answers(feature);
        let spec = ProbeSpec {
            pred,
            pos,
            var,
            feature,
            values: &values,
        };
        eng.probe_sizes(&parse_program(src).unwrap(), sample, &[spec])
            .remove(0)
    }

    #[test]
    fn calls_over_different_inputs_count_over_the_join() {
        let sample = Sample::new(1.0, 0);
        for (src, pred, pos, var) in JOIN_ATTRS {
            assert!(!admits(src, pred, pos), "{pred}.{var} is no overlay");
            let mut eng = join_engine(6);
            let (sizes, runs) = traced(&mut eng, |eng| {
                join_probe(eng, src, (pred, pos, var), "italic-font", sample)
            });
            assert!(sizes.is_ok(), "{pred}.{var}: {sizes:?}");
            assert_eq!(runs, 1, "{pred}.{var}: an answer was run, not counted");
        }
    }

    #[test]
    fn join_counts_equal_the_refined_run() {
        let sample = Sample::new(0.8, 5);
        for threads in [1, 2] {
            for (src, pred, pos, var) in JOIN_ATTRS {
                let mut counted = join_engine(10);
                counted.limits.threads = threads;
                let mut run = join_engine(10);
                for feature in ["italic-font", "bold-font", "max-length", "capitalized"] {
                    let got = join_probe(&mut counted, src, (pred, pos, var), feature, sample);
                    let want = refined_runs(&mut run, src, (pred, var), feature, sample);
                    assert_eq!(got.ok(), Some(want), "{pred}.{var}: {feature}");
                }
            }
        }
    }

    /// `probe`'s result on `eng`, and how many runs it started.
    fn traced<T>(eng: &mut Engine, probe: impl FnOnce(&mut Engine) -> T) -> (T, usize) {
        use crate::obs::{Phase, SpanKind};
        let runs = |eng: &Engine| {
            let events = eng.tracer.events();
            let run = |e: &&crate::obs::TraceEvent| e.ph == Phase::Begin && e.kind == SpanKind::Run;
            events.iter().filter(run).count()
        };
        eng.tracer.enable();
        let before = runs(eng);
        let out = probe(eng);
        (out, runs(eng) - before)
    }

    /// `(expanded_len, assignments_produced)` of the refinement of `src`
    /// by `feature(var) = v` for each answer `v`, each run on `eng`.
    fn refined_runs(
        eng: &mut Engine,
        src: &str,
        (pred, var): (&str, &str),
        feature: &str,
        sample: Sample,
    ) -> Vec<(usize, usize)> {
        let prog = parse_program(src).unwrap();
        let runs = answers(feature)
            .into_iter()
            .map(|v| refined_run(eng, &prog, (pred, var), feature, &v, sample));
        runs.collect()
    }

    /// `(expanded_len, assignments_produced)` of the refinement of `prog`
    /// by `feature(var) = v`, run on `eng`.
    fn refined_run(
        eng: &mut Engine,
        prog: &Program,
        (pred, var): (&str, &str),
        feature: &str,
        v: &FeatureArg,
        sample: Sample,
    ) -> (usize, usize) {
        let t = eng
            .run_sampled(&refine(prog, pred, var, feature, v), sample)
            .unwrap();
        (
            t.expanded_len(eng.store()) as usize,
            eng.stats.assignments_produced,
        )
    }

    #[test]
    fn other_joins_probe_exactly() {
        let sample = Sample::new(1.0, 0);
        let union = format!("{T9}\nt9(title1) :- amazon(x), extractAmazonT(#x, title1, np).");
        let annotated = T9.replace("t9(title1)", "t9(<title1>)");
        let generator = T9
            .replace("t9(title1)", "t9(title1, kind)")
            .replace("np < bp.", "np < bp, extractType(#title1, kind).");
        let both_sides = r#"
            q(u) :- imdb(x), e(#x, u), ebert(y), e(#y, v), similar(#u, #v).
            e(#x, t) :- from(#x, t).
        "#;
        let shapes = [
            (union.as_str(), ("extractAmazonT", 1, "t"), "a union"),
            (&annotated, ("extractAmazonT", 1, "t"), "ψ"),
            (&generator, ("extractAmazonT", 1, "t"), "a generator"),
            (both_sides, ("e", 1, "t"), "one predicate on both sides"),
        ];
        for (src, (pred, pos, var), case) in shapes {
            let engine = || {
                let mut eng = join_engine(4);
                eng.procs_mut()
                    .register_generator("extractType", 1, |_, _| Vec::new());
                eng
            };
            let mut eng = engine();
            let (got, runs) = traced(&mut eng, |eng| {
                join_probe(eng, src, (pred, pos, var), "italic-font", sample)
            });
            let want = refined_runs(&mut engine(), src, (pred, var), "italic-font", sample);
            assert_eq!(got.as_ref().ok(), Some(&want), "{case}");
            assert_eq!(runs, want.len(), "{case}: one run per answer");
        }
    }

    #[test]
    fn a_failed_refined_run_fails_its_question_and_is_not_memoized() {
        use crate::fault::{Fault, FaultPlan, Trigger};
        let sample = Sample::new(1.0, 0);
        let union = format!("{T9}\nt9(title1) :- amazon(x), extractAmazonT(#x, title1, np).");
        let attr = ("extractAmazonT", 1, "t");
        let want = join_probe(&mut join_engine(2), &union, attr, "bold-font", sample);
        assert!(want.is_ok(), "{want:?}");
        let faults = [
            (Trigger::Nth(0), Fault::TooLarge),
            (Trigger::Nth(0), Fault::Panic("probe".into())),
            (Trigger::Always, Fault::TooLarge),
        ];
        for (trigger, fault) in faults {
            let case = format!("{trigger:?} {fault:?}");
            let mut eng = join_engine(2);
            eng.fault.arm(site::EVAL_RULE, trigger, fault, 7);
            let failed = join_probe(&mut eng, &union, attr, "bold-font", sample);
            assert!(failed.is_err(), "{case}: {failed:?}");
            if trigger == Trigger::Always {
                assert_eq!(eng.incr.len(), 0, "{case}: a degraded rule was cached");
            }
            eng.fault = Arc::new(FaultPlan::disarmed());
            let again = join_probe(&mut eng, &union, attr, "bold-font", sample);
            assert_eq!(format!("{again:?}"), format!("{want:?}"), "{case}");
        }
    }

    #[test]
    fn a_changed_join_skeleton_falls_back() {
        let eng = join_engine(2);
        let skeleton = |src: &str| eng.skeleton(&parse_program(src).unwrap()).unwrap();
        let parent = skeleton(T9);
        let leaf = T9.replace(
            "numeric(p) = yes.\n        extractBarnesT",
            "numeric(p) = yes, bold-font(t) = yes.\n        extractBarnesT",
        );
        assert_eq!(parent.probed_leaf(&skeleton(&leaf)), Some(0));
        let join = T9.replace("np < bp.", "np < bp, np < 5000.");
        assert_eq!(
            parent.probed_leaf(&skeleton(&join)),
            None,
            "the join changed"
        );
        assert_eq!(parent.probed_leaf(&skeleton(T9)), None, "no leaf changed");
    }

    #[test]
    fn repeated_join_counts_come_from_the_memo() {
        let sample = Sample::new(1.0, 0);
        let attr = ("extractBarnesT", 1, "t");
        // Few pages: unit tests run the rule cache on a 4 KiB budget.
        let mut eng = join_engine(2);
        let first = format!("{:?}", join_probe(&mut eng, T9, attr, "bold-font", sample));
        assert!(eng.stats.rules_evaluated > 0);
        let again = format!("{:?}", join_probe(&mut eng, T9, attr, "bold-font", sample));
        assert_eq!(again, first);
        assert_eq!(
            (eng.stats.rules_evaluated, eng.stats.tuples_scanned),
            (0, 0)
        );
    }

    #[test]
    fn a_failed_join_count_reports_no_size_and_is_not_memoized() {
        use crate::fault::{Fault, Trigger};
        let sample = Sample::new(1.0, 0);
        let attr = ("extractAmazonT", 2, "p");
        let prog = parse_program(T9).unwrap();
        // Few pages, so the entry and its trace fit the unit tests' 4 KiB
        // rule cache.
        let mut clean = join_engine(2);
        let want = format!(
            "{:?}",
            join_probe(&mut clean, T9, attr, "bold-font", sample)
        );
        let key = clean.query_key.clone().unwrap_or_else(|| {
            clean.run_sampled(&prog, sample).unwrap();
            clean.query_key.clone().unwrap()
        });
        assert!(
            clean.incr.trace(&key).is_some(),
            "a clean count keeps its trace"
        );
        let faults = [
            (site::EVAL_RULE, Fault::TooLarge),
            (site::EVAL_RULE, Fault::DeadlineExpired),
            (site::EVAL_RULE, Fault::Panic("probe".into())),
            (site::JOIN_TUPLE, Fault::TooLarge),
            (site::JOIN_TUPLE, Fault::Panic("probe".into())),
        ];
        let memo = |eng: &Engine| {
            let yes = FeatureArg::Tri(FeatureValue::Yes);
            eng.incr
                .probe_size(&key, &format!("join extractAmazonT/2 bold-font={yes:?}"))
        };
        assert!(memo(&clean).is_some(), "a clean count is memoized");
        for (at, fault) in faults {
            // The fault hits the trace, or — once another question traced
            // the current program — the count.
            for traced in [false, true] {
                let mut eng = join_engine(2);
                eng.run_sampled(&prog, sample).unwrap();
                if traced {
                    join_probe(&mut eng, T9, attr, "italic-font", sample).unwrap();
                }
                eng.fault.arm(at, Trigger::Nth(0), fault.clone(), 7);
                let failed = join_probe(&mut eng, T9, attr, "bold-font", sample);
                let case = format!("{at} {fault:?} traced={traced}");
                assert!(failed.is_err(), "{case}: {failed:?}");
                assert_eq!(eng.incr.trace(&key).is_some(), traced, "{case}");
                assert!(memo(&eng).is_none(), "{case}: a size is memoized");
                let again = join_probe(&mut eng, T9, attr, "bold-font", sample);
                assert_eq!(format!("{again:?}"), want, "{case}");
            }
        }
        // A cancelled run is no current result to count over.
        let mut eng = join_engine(2);
        eng.budget.cancel_token().cancel();
        let failed = join_probe(&mut eng, T9, attr, "bold-font", sample);
        assert!(matches!(failed, Err(EngineError::Cancelled)), "{failed:?}");
    }

    /// An engine whose join tables hold two pages: one with bold and
    /// italic text, one with bold text only. Few pages, so a trace fits
    /// the unit tests' 4 KiB rule cache.
    fn mixed_join_engine() -> Engine {
        let mut store = DocumentStore::new();
        let pages = [
            "<title>Conf 0</title> <b>Paper on joins</b> by <i>Ada Lovelace</i> pages 10 - 12 votes 900",
            "<title>Conf 1</title> <b>Paper on spans</b> by Alan Turing pages 11 - 14 votes 1800",
        ];
        let ids: Vec<_> = pages.iter().map(|p| store.add_markup(p)).collect();
        let mut eng = Engine::new(Arc::new(store));
        for table in [
            "imdb", "ebert", "prasanna", "sigmod", "icde", "amazon", "barnes",
        ] {
            eng.add_doc_table(table, &ids);
        }
        eng
    }

    /// The last `delta` mark's four figures: leaf rows served, result
    /// rows served, result rows re-evaluated, pairs re-evaluated.
    fn last_delta(eng: &Engine) -> [u64; 4] {
        let events = eng.tracer.events();
        let mark = events.iter().rev().find(|e| e.name == "delta").unwrap();
        let note = mark.note.as_deref().unwrap();
        let mut figures = note
            .split(' ')
            .map(|kv| kv.split_once('=').unwrap().1.parse().unwrap());
        [(); 4].map(|_| figures.next().unwrap())
    }

    #[test]
    fn unchanged_leaf_rows_are_served_from_the_trace() {
        use crate::fault::{Fault, Trigger};
        use FeatureArg::Num;
        let sample = Sample::new(1.0, 0);
        let yes = FeatureArg::Tri(FeatureValue::Yes);
        // Per attribute: an answer leaving every used leaf row unchanged,
        // one narrowing every row, and one dropping some rows.
        let whole_page = [
            ("min-length", Num(2.0)),
            ("in-title", yes.clone()),
            ("italic-font", yes),
        ];
        let number = [
            ("max-length", Num(80.0)),
            ("min-length", Num(2.0)),
            ("min-length", Num(4.0)),
        ];
        let attrs = [
            (T3, ("extractEbertT", 1, "t"), &whole_page),
            (T6, ("extractSIGMOD", 2, "a"), &whole_page),
            (T9, ("extractAmazonT", 1, "t"), &whole_page),
            (T9, ("extractBarnesT", 2, "p"), &number),
        ];
        for threads in [1, 2] {
            for (src, (pred, pos, var), answers) in attrs {
                let prog = parse_program(src).unwrap();
                let mut eng = mixed_join_engine();
                eng.limits.threads = threads;
                eng.run_sampled(&prog, sample).unwrap();
                let key = eng.query_key.clone().unwrap();
                // Another question traces the current program.
                join_probe(&mut eng, src, (pred, pos, var), "underlined", sample).unwrap();
                let trace = eng.incr.trace(&key).expect("the trace fits the cache");
                let (feature, v) = &answers[0];
                let skel = eng.skeleton(&refine(&prog, pred, var, feature, v));
                let leaf = eng.skeleton(&prog).unwrap().probed_leaf(&skel.unwrap());
                let used = trace.leaves[leaf.unwrap()].used.len() as u64;
                let rows = trace.rows().count() as u64;
                eng.tracer.enable();
                let never = Trigger::Nth(u64::MAX);
                eng.fault.arm(site::JOIN_TUPLE, never, Fault::TooLarge, 7);
                for (kind, (feature, v)) in answers.iter().enumerate() {
                    let case = format!("threads={threads} {pred}.{var} {feature}={v:?}");
                    let hits = eng.fault.hit_count(site::JOIN_TUPLE);
                    let values = [v.clone()];
                    let spec = ProbeSpec {
                        pred,
                        pos,
                        var,
                        feature,
                        values: &values,
                    };
                    let got = eng.probe_sizes(&prog, sample, &[spec]).remove(0);
                    let hits = eng.fault.hit_count(site::JOIN_TUPLE) - hits;
                    let mut run = mixed_join_engine();
                    let want = refined_run(&mut run, &prog, (pred, var), feature, v, sample);
                    assert_eq!(got.ok(), Some(vec![want]), "{case}");
                    let [leaves_served, rows_served, rows_rerun, pairs_rerun] = last_delta(&eng);
                    match kind {
                        0 => {
                            assert_eq!((leaves_served, rows_served), (used, rows), "{case}");
                            assert_eq!((rows_rerun, pairs_rerun), (0, 0), "{case}");
                            assert_eq!(hits, leaves_served, "{case}: a join pair ran");
                        }
                        1 => assert_eq!((rows_served, rows_rerun), (0, rows), "{case}"),
                        _ => {
                            assert!(rows_rerun > 0, "{case}: nothing narrowed");
                            assert!(rows_served + rows_rerun < rows, "{case}: nothing dropped");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_join_count_marks_its_delta_when_traced() {
        let sample = Sample::new(1.0, 0);
        let attr = ("extractAmazonT", 1, "t");
        let delta = |e: &&crate::obs::TraceEvent| e.name == "delta";
        let mut eng = join_engine(2);
        join_probe(&mut eng, T9, attr, "bold-font", sample).unwrap();
        assert!(eng.tracer.events().is_empty(), "the tracer is off");
        eng.tracer.enable();
        eng.trace_parent = eng
            .tracer
            .begin(crate::obs::SpanId::NONE, SpanKind::Probe, "probe");
        join_probe(&mut eng, T9, attr, "italic-font", sample).unwrap();
        let events = eng.tracer.events();
        let marks: Vec<_> = events.iter().filter(delta).collect();
        assert_eq!(marks.len(), 1, "one mark per call: {marks:?}");
        assert_eq!(
            (marks[0].kind, marks[0].parent),
            (SpanKind::Mark, eng.trace_parent.0)
        );
        // A call the memo serves counts nothing.
        join_probe(&mut eng, T9, attr, "italic-font", sample).unwrap();
        assert_eq!(eng.tracer.events().iter().filter(delta).count(), 1);
    }

    #[test]
    fn head_only_p_predicate_keeps_the_split() {
        let chair = r#"
            chair(x, y, z) :- docs(d), extractChairs(#d, x), extractConference(#d, y),
                              extractType(#x, z).
            extractChairs(#d, x) :- from(#d, x), person-name(x) = yes.
            extractConference(#d, y) :- from(#d, y), in-title(y) = yes.
        "#;
        assert!(admits(chair, "extractChairs", 1));
        assert!(admits(chair, "extractConference", 1));
        // An output another atom reads, a filter, or an unregistered
        // predicate still consumes the unconstrained cell.
        let read = chair.replace("extractType(#x, z).", "extractType(#x, z), z != NULL.");
        assert!(!admits(&read, "extractChairs", 1));
        let filter = chair
            .replace("extractType(#x, z)", "similar(#x, #y)")
            .replace("(x, y, z)", "(x, y)");
        assert!(!admits(&filter, "extractChairs", 1));
        let unknown = chair.replace("extractType", "extractKind");
        assert!(!admits(&unknown, "extractChairs", 1));
    }

    #[test]
    fn compare_on_the_probed_variable_probes_exactly_over_several_calls() {
        let two_calls = r#"
            q(x, y) :- docs(d), a(#d, x), b(#d, y), y > 3.
            a(#d, x) :- from(#d, x).
            b(#d, y) :- from(#d, y).
        "#;
        assert!(admits(two_calls, "a", 1));
        assert!(!admits(two_calls, "b", 1));
        // One call: the compare only loosens the count's upper bound.
        let one_call = r#"
            t1(title) :- imdb(x), extractIMDB(#x, title, votes), votes < 25000.
            extractIMDB(#x, title, votes) :- from(#x, title), from(#x, votes).
        "#;
        assert!(admits(one_call, "extractIMDB", 2));
    }

    #[test]
    fn union_query_probes_exactly() {
        let union = r#"
            q(x) :- docs(d), a(#d, x).
            q(x) :- pages(d), a(#d, x).
            a(#d, x) :- from(#d, x).
        "#;
        assert!(!admits(union, "a", 1));
        let annotated = r#"
            q(d, <x>) :- docs(d), a(#d, x).
            a(#d, x) :- from(#d, x).
        "#;
        assert!(!admits(annotated, "a", 1), "ψ is not a per-row operator");
    }

    /// Pages with titles, people, numbers and page ranges.
    fn engine(docs: usize) -> Engine {
        let mut store = DocumentStore::new();
        let names = [
            "Ada Lovelace",
            "Alan Turing",
            "Grace Hopper",
            "Edsger Dijkstra",
        ];
        let ids: Vec<_> = (0..docs)
            .map(|i| {
                store.add_markup(&format!(
                    "<title>Conf {i}</title> <b>Paper on {}</b> by <i>{}</i> pages {} - {} votes {}",
                    ["joins", "spans", "caches"][i % 3],
                    names[i % names.len()],
                    10 + i,
                    12 + i + (i % 7),
                    900 * (i + 1) % 40_000,
                ))
            })
            .collect();
        let mut eng = Engine::new(Arc::new(store));
        for table in ["imdb", "vldb", "docs"] {
            eng.add_doc_table(table, &ids);
        }
        eng
    }

    /// The static answer spaces the Simulation strategy probes.
    fn answers(feature: &str) -> Vec<FeatureArg> {
        let tri = |v| FeatureArg::Tri(v);
        match feature {
            "numeric" | "bold-font" | "italic-font" | "underlined" | "hyperlinked" | "in-title"
            | "in-list" | "first-half" | "capitalized" | "person-name" => vec![
                tri(FeatureValue::Yes),
                tri(FeatureValue::DistinctYes),
                tri(FeatureValue::No),
            ],
            "max-length" => [12.0, 18.0, 40.0, 80.0].map(FeatureArg::Num).to_vec(),
            "min-length" => [2.0, 4.0, 8.0].map(FeatureArg::Num).to_vec(),
            "prec-label-max-dist" => [100.0, 300.0, 700.0].map(FeatureArg::Num).to_vec(),
            _ => Vec::new(),
        }
    }

    /// The split program of DESIGN.md §9 written out: `base` (the base
    /// rule and the description rules) plus the overlay rule
    /// `<query>__probe(head) :- <query>__probe_base(vars), feature(var) = value.`
    fn split_program(
        base: &str,
        query: &str,
        head: &str,
        vars: &str,
        var: &str,
        feature: &str,
        v: &FeatureArg,
    ) -> Program {
        let src = format!("{query}__probe({head}) :- {query}__probe_base({vars}), bold-font({var}) = yes.\n{base}");
        let mut p = parse_program(&src).unwrap();
        p.query = format!("{query}__probe");
        let value = match v {
            FeatureArg::Tri(t) => ConstraintArg::Symbol(t.to_string()),
            FeatureArg::Num(n) => ConstraintArg::Num(*n),
            FeatureArg::Text(s) => ConstraintArg::Str(s.clone()),
        };
        p.rules[0].body[1] = BodyAtom::Constraint {
            feature: feature.to_string(),
            var: var.to_string(),
            value,
        };
        p
    }

    /// (program, base rules of its split, query, head, base columns,
    /// probed attributes as (IE predicate, position, variable)).
    type Shape = (
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        &'static str,
        &'static [(&'static str, usize, &'static str)],
    );

    const SHAPES: [Shape; 3] = [
        (
            // T1: one call, a compare on the probed variable.
            "t1(title) :- imdb(x), extractIMDB(#x, title, votes), votes < 25000.
             extractIMDB(#x, title, votes) :- from(#x, title), from(#x, votes), numeric(votes) = yes.",
            "t1__probe_base(title, votes) :- imdb(x), extractIMDB(#x, title, votes), votes < 25000.
             extractIMDB(#x, title, votes) :- from(#x, title), from(#x, votes), numeric(votes) = yes.",
            "t1",
            "title",
            "title, votes",
            &[("extractIMDB", 1, "title"), ("extractIMDB", 2, "votes")],
        ),
        (
            // T5: three attributes, a compare across two of them.
            "t5(title) :- vldb(x), extractVLDB(#x, title, fp, lp), lp < fp + 5.
             extractVLDB(#x, title, fp, lp) :- from(#x, title), from(#x, fp), from(#x, lp),
                                               numeric(fp) = yes, numeric(lp) = yes.",
            "t5__probe_base(title, fp, lp) :- vldb(x), extractVLDB(#x, title, fp, lp), lp < fp + 5.
             extractVLDB(#x, title, fp, lp) :- from(#x, title), from(#x, fp), from(#x, lp),
                                               numeric(fp) = yes, numeric(lp) = yes.",
            "t5",
            "title",
            "title, fp, lp",
            &[("extractVLDB", 1, "title"), ("extractVLDB", 2, "fp"), ("extractVLDB", 3, "lp")],
        ),
        (
            // Panel: two calls over one input.
            "onPanel(x, y) :- docs(d), extractPanelists(#d, x), extractConference(#d, y).
             extractPanelists(#d, x) :- from(#d, x), person-name(x) = yes.
             extractConference(#d, y) :- from(#d, y), in-title(y) = yes.",
            "onPanel__probe_base(x, y) :- docs(d), extractPanelists(#d, x), extractConference(#d, y).
             extractPanelists(#d, x) :- from(#d, x), person-name(x) = yes.
             extractConference(#d, y) :- from(#d, y), in-title(y) = yes.",
            "onPanel",
            "x, y",
            "x, y",
            &[("extractPanelists", 1, "x"), ("extractConference", 1, "y")],
        ),
    ];

    #[test]
    fn counts_equal_the_split_program_run() {
        let sample = Sample::new(0.7, 3);
        for (src, base, query, head, vars, attrs) in SHAPES {
            let prog = parse_program(src).unwrap();
            let mut counted = engine(12);
            let mut run = engine(12);
            let features: Vec<String> = run.features().names().map(str::to_string).collect();
            for &(pred, pos, var) in attrs {
                for feature in &features {
                    let values = answers(feature);
                    if values.is_empty() {
                        continue;
                    }
                    let spec = ProbeSpec {
                        pred,
                        pos,
                        var,
                        feature,
                        values: &values,
                    };
                    let got = counted.probe_sizes(&prog, sample, &[spec]);
                    let Ok(got) = &got[0] else {
                        panic!("{query} {pred}.{pos} {feature}: {:?}", got[0]);
                    };
                    for (v, &got) in values.iter().zip(got) {
                        let split = split_program(base, query, head, vars, var, feature, v);
                        let t = run.run_sampled(&split, sample).unwrap();
                        let want = (
                            t.expanded_len(run.store()) as usize,
                            run.stats.assignments_produced,
                        );
                        assert_eq!(got, want, "{query}: {feature}({var}) = {v:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn counts_are_thread_count_invariant() {
        let sample = Sample::new(1.0, 0);
        let values = answers("bold-font");
        let lengths = answers("max-length");
        let counts = |threads: usize| {
            let mut out = Vec::new();
            for (src, _, _, _, _, attrs) in SHAPES {
                let prog = parse_program(src).unwrap();
                let mut eng = engine(80);
                eng.limits.threads = threads;
                let specs: Vec<ProbeSpec<'_>> = attrs
                    .iter()
                    .flat_map(|&(pred, pos, var)| {
                        [
                            ProbeSpec {
                                pred,
                                pos,
                                var,
                                feature: "bold-font",
                                values: &values,
                            },
                            ProbeSpec {
                                pred,
                                pos,
                                var,
                                feature: "max-length",
                                values: &lengths,
                            },
                        ]
                    })
                    .collect();
                out.push(format!("{:?}", eng.probe_sizes(&prog, sample, &specs)));
            }
            out
        };
        let serial = counts(1);
        for threads in [2, 4, 8] {
            assert_eq!(counts(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn repeated_counts_come_from_the_memo_until_the_cache_goes() {
        let (src, ..) = SHAPES[1];
        let prog = parse_program(src).unwrap();
        // Few pages: unit tests run the rule cache on a 4 KiB budget.
        let mut eng = engine(3);
        let values = answers("bold-font");
        let spec = [ProbeSpec {
            pred: "extractVLDB",
            pos: 2,
            var: "fp",
            feature: "bold-font",
            values: &values,
        }];
        let sample = Sample::new(1.0, 0);
        let first = format!("{:?}", eng.probe_sizes(&prog, sample, &spec));
        assert!(eng.stats.rules_evaluated > 0);
        assert_eq!(
            format!("{:?}", eng.probe_sizes(&prog, sample, &spec)),
            first
        );
        assert_eq!(
            (eng.stats.rules_evaluated, eng.stats.tuples_scanned),
            (0, 0)
        );
        eng.clear_cache();
        assert_eq!(
            format!("{:?}", eng.probe_sizes(&prog, sample, &spec)),
            first
        );
        assert!(
            eng.stats.rules_evaluated > 0,
            "the memo went with the entry"
        );
    }

    #[test]
    fn a_failed_count_reports_no_size_and_is_not_memoized() {
        use crate::fault::{Fault, Trigger};
        let (src, ..) = SHAPES[0];
        let prog = parse_program(src).unwrap();
        let values = answers("italic-font");
        let spec = [ProbeSpec {
            pred: "extractIMDB",
            pos: 2,
            var: "votes",
            feature: "italic-font",
            values: &values,
        }];
        let sample = Sample::new(1.0, 0);
        let want = format!("{:?}", engine(12).probe_sizes(&prog, sample, &spec));
        for fault in [Fault::TooLarge, Fault::Panic("probe".into())] {
            let mut eng = engine(12);
            // Warm the base relation, so the fault hits the count pass.
            eng.run_sampled(&split(&prog).unwrap().base, sample)
                .unwrap();
            eng.fault.arm(site::EVAL_RULE, Trigger::Nth(0), fault, 7);
            let failed = eng.probe_sizes(&prog, sample, &spec);
            assert!(failed[0].is_err(), "{failed:?}");
            assert_eq!(format!("{:?}", eng.probe_sizes(&prog, sample, &spec)), want);
        }
        // A degraded base run is no base to count over.
        let mut eng = engine(12);
        eng.budget.cancel_token().cancel();
        let failed = eng.probe_sizes(&prog, sample, &spec);
        assert!(
            matches!(failed[0], Err(EngineError::Cancelled)),
            "{failed:?}"
        );
        // A feature error fails its own question only.
        let bad = [FeatureArg::Text("x".into())];
        let specs = [
            spec[0],
            ProbeSpec {
                feature: "bold-font",
                values: &bad,
                ..spec[0]
            },
        ];
        let mut eng = engine(12);
        let out = eng.probe_sizes(&prog, sample, &specs);
        assert!(
            out[0].is_ok() && matches!(out[1], Err(EngineError::Feature(_))),
            "{out:?}"
        );
    }
}
