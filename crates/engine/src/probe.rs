//! Count-only Simulation probes (§5.1).
//!
//! The Simulation strategy ranks a question by the result size
//! |exec(g(P,(a,f,v)))| after each candidate answer `v`.
//! [`Engine::probe_sizes`] computes those sizes without a program per
//! answer. Where the query rule admits the split (DESIGN.md §9), an
//! answer's refinement is one σ step over the rows of the query's **base
//! relation** — the query rule with every extraction attribute in its
//! head — followed by the query head's projection. A row's contribution
//! to `expanded_len` and to the extraction volume depends on that row
//! alone, so one pass over the base rows counts every answer of every
//! question at once, and no result table is built. (Maturana, Riveros and
//! Vrgoč read a cell as a set of partial mappings; counting the mappings
//! a constraint keeps needs no output relation.)
//!
//! The base relation comes from the rule cache, and the sizes are
//! memoized on its cache entry: a "don't know" answer leaves the program
//! unchanged, so the next question asks for the same sizes again. The
//! memo goes with the entry — on an epoch bump, [`Engine::clear_cache`] or
//! LRU eviction — and counts against the cache's byte budget.

use crate::exec::{injected, panic_message, Engine, EngineError, Pass};
use crate::fault::site;
use crate::pfunc::Procedure;
use crate::plan::{CompiledConstraint, FusedOp};
use crate::sample::Sample;
use iflex_alog::{Arg, BodyAtom, Head, HeadArg, Program, Rule, Term};
use iflex_ctable::CompactTable;
use iflex_features::FeatureArg;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One question to size: the attribute at head position `pos` of the IE
/// predicate `pred`, the feature asked about, and its candidate answers.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec<'a> {
    /// The IE predicate the attribute belongs to.
    pub pred: &'a str,
    /// The attribute's position in the predicate's head.
    pub pos: usize,
    /// The feature asked about.
    pub feature: &'a str,
    /// The candidate answers.
    pub values: &'a [FeatureArg],
}

/// What [`Engine::probe_sizes`] reports for one [`ProbeSpec`]: `None` when
/// the program's shape does not admit a count-only probe of the attribute,
/// otherwise `(size, assignments)` per answer, in order — or the error
/// that left the sizes unknown.
pub type ProbeSizes = Option<Result<Vec<(usize, usize)>, EngineError>>;

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

/// The rows one count pass produces for one answer: its `expanded_len`
/// and its extraction volume, or the error that stopped it.
type Count = Result<(u64, u64), EngineError>;

impl Engine {
    /// Sizes every candidate answer of every question in `specs` over
    /// `sample`: for each answer, the `expanded_len` of the refined
    /// program's result and the run's `assignments_produced` — what
    /// running the split program of DESIGN.md §9 would report — without
    /// building that program or its result.
    ///
    /// The base relation is run (or served from the rule cache) once per
    /// call, then one morsel-parallel pass sends each base row through
    /// every answer's one-step σ and the head projection (the pass
    /// evaluator's `pass_row`), adding up sizes instead of building rows.
    /// Sizes are memoized on the base relation's cache entry, so a
    /// repeated call evaluates no rule and scans no tuple.
    /// [`Engine::stats`] describes the base run.
    ///
    /// A spec whose shape the split does not admit reports `None` (the
    /// caller probes the refined program instead). A degraded base run, an
    /// expired deadline, a cancellation, an injected fault, a feature
    /// error or a panic in the pass reports `Some(Err(_))` — no size — and
    /// nothing is memoized from it.
    pub fn probe_sizes(
        &mut self,
        prog: &Program,
        sample: Sample,
        specs: &[ProbeSpec<'_>],
    ) -> Vec<ProbeSizes> {
        let Some(split) = split(prog) else {
            return specs.iter().map(|_| None).collect();
        };
        let cols: Vec<Option<usize>> = specs
            .iter()
            .map(|s| self.probed_col(&split, s.pred, s.pos))
            .collect();
        let mut out: Vec<ProbeSizes> = cols
            .iter()
            .zip(specs)
            .map(|(c, s)| c.map(|_| Ok(vec![(0, 0); s.values.len()])))
            .collect();
        if cols.iter().all(Option::is_none) {
            return out;
        }
        let base = match self.run_sampled(&split.base, sample) {
            Ok(t) => match self.stats.degradations.first() {
                None => Ok(t),
                Some(d) => Err(EngineError::from(d.cause)),
            },
            Err(e) => Err(e),
        };
        let base = match base {
            Ok(t) => t,
            Err(e) => {
                for o in out.iter_mut().flatten() {
                    *o = Err(e.clone());
                }
                return out;
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
        for (i, (spec, col)) in specs.iter().zip(&cols).enumerate() {
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
            return out;
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
        out
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
    /// T6, T9). With one call, a compare on the probed variable (T1's
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
    /// the rule boundary: the `engine.eval_rule` fault site fires once,
    /// and a panic becomes [`EngineError::RulePanic`]. An error in one
    /// pass leaves the others counting; a clock trip or a panic fails all.
    fn count_pass(
        &mut self,
        base: &Arc<CompactTable>,
        passes: Vec<Pass>,
    ) -> Result<Vec<Count>, EngineError> {
        let n = passes.len();
        self.pool = Some(crate::par::RunPool::new(self.limits.threads));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(f) = self.fault.hit(site::EVAL_RULE) {
                return Err(injected(f));
            }
            let ec = self.eval_ctx();
            let t = Arc::clone(base);
            let mr = crate::par::scatter(
                &self.section_ctx(self.trace_parent),
                t.len(),
                move |range| {
                    let mut overlay = vec![None; t.arity()];
                    let mut sums: Vec<Count> = vec![Ok((0, 0)); n];
                    for tup in &t.tuples()[range] {
                        ec.clock.tick().map_err(EngineError::from)?;
                        for (pass, sum) in passes.iter().zip(&mut sums) {
                            let Ok((size, volume)) = sum else { continue };
                            let row = ec.pass_row(pass, &tup.cells, &[], None, &mut overlay);
                            match row {
                                Ok(Some((cells, _, v))) => {
                                    let store = &*ec.store;
                                    let len = cells
                                        .iter()
                                        .filter(|c| c.is_expand())
                                        .fold(1u64, |acc, c| {
                                            acc.saturating_mul(c.value_count(store))
                                        });
                                    let assigns: usize =
                                        cells.iter().map(|c| c.assignment_count()).sum();
                                    *size = size.saturating_add(len);
                                    *volume =
                                        volume.saturating_add(v).saturating_add(assigns as u64);
                                }
                                Ok(None) => {}
                                Err(e) => *sum = Err(e),
                            }
                        }
                    }
                    Ok(vec![sums])
                },
            );
            self.note_section(&mr.stats);
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
        }));
        self.pool = None;
        match caught {
            Ok(res) => res,
            Err(payload) => Err(EngineError::RulePanic(panic_message(payload.as_ref()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_alog::{parse_program, ConstraintArg};
    use iflex_features::FeatureValue;
    use iflex_text::DocumentStore;

    /// Whether the probe of attribute `pos` of `pred` in `src` is counted
    /// over the split; otherwise the caller runs the refined program.
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

    #[test]
    fn calls_over_different_inputs_probe_exactly() {
        let t3 = r#"
            t3(title1) :- imdb(x), extractIMDBt(#x, title1),
                          ebert(y), extractEbertT(#y, title2),
                          prasanna(z), extractPrasT(#z, title3),
                          similar(#title1, #title2), similar(#title2, #title3).
            extractIMDBt(#x, t) :- from(#x, t).
            extractEbertT(#y, t) :- from(#y, t).
            extractPrasT(#z, t) :- from(#z, t).
        "#;
        for pred in ["extractIMDBt", "extractEbertT", "extractPrasT"] {
            assert!(!admits(t3, pred, 1), "{pred}");
        }
        let t6 = r#"
            t6(title1) :- sigmod(x), extractSIGMOD(#x, title1, authors1),
                          icde(y), extractICDE(#y, title2, authors2),
                          similar(#authors1, #authors2).
            extractSIGMOD(#x, t, a) :- from(#x, t), from(#x, a), bold-font(t) = distinct-yes.
            extractICDE(#y, t, a) :- from(#y, t), from(#y, a), bold-font(t) = distinct-yes.
        "#;
        for (pred, pos) in [
            ("extractSIGMOD", 1),
            ("extractSIGMOD", 2),
            ("extractICDE", 1),
            ("extractICDE", 2),
        ] {
            assert!(!admits(t6, pred, pos), "{pred}.{pos}");
        }
        let t9 = r#"
            t9(title1) :- amazon(x), extractAmazonT(#x, title1, np),
                          barnes(y), extractBarnesT(#y, title2, bp),
                          similar(#title1, #title2), np < bp.
            extractAmazonT(#x, t, p) :- from(#x, t), from(#x, p), numeric(p) = yes.
            extractBarnesT(#y, t, p) :- from(#y, t), from(#y, p), numeric(p) = yes.
        "#;
        for (pred, pos) in [
            ("extractAmazonT", 1),
            ("extractAmazonT", 2),
            ("extractBarnesT", 1),
            ("extractBarnesT", 2),
        ] {
            assert!(!admits(t9, pred, pos), "{pred}.{pos}");
        }
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
                        feature,
                        values: &values,
                    };
                    let got = counted.probe_sizes(&prog, sample, &[spec]);
                    let Some(Ok(got)) = &got[0] else {
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
                    .flat_map(|&(pred, pos, _)| {
                        [
                            ProbeSpec {
                                pred,
                                pos,
                                feature: "bold-font",
                                values: &values,
                            },
                            ProbeSpec {
                                pred,
                                pos,
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
            assert!(matches!(failed[0], Some(Err(_))), "{failed:?}");
            assert_eq!(format!("{:?}", eng.probe_sizes(&prog, sample, &spec)), want);
        }
        // A degraded base run is no base to count over.
        let mut eng = engine(12);
        eng.budget.cancel_token().cancel();
        let failed = eng.probe_sizes(&prog, sample, &spec);
        assert!(
            matches!(failed[0], Some(Err(EngineError::Cancelled))),
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
            matches!(out[0], Some(Ok(_))) && matches!(out[1], Some(Err(EngineError::Feature(_)))),
            "{out:?}"
        );
    }
}
