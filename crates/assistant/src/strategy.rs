//! Question-selection strategies (§5.1): **sequential** (predefined order
//! over the question space) and **simulation** (size each candidate
//! refinement and pick the question with the largest expected reduction).
//! Simulation sizes every candidate answer with one engine call
//! ([`Engine::probe_sizes`]): an overlay σ over the query's base relation
//! for single-input rules, a count over the current result's join lineage
//! for joins (T3, T6, T9), and a run of the refined program for every
//! other shape (DESIGN.md §9).

use crate::feedback::Examples;
use crate::probe::{dynamic_feature, probe_program, probe_spans, spans_answer_space};
use crate::question::{answer_space, attributes, question_space, Attribute, Question};
use iflex_alog::{BodyAtom, Program, Term};
use iflex_engine::{Engine, ProbeSizes, ProbeSpec, Sample};
use iflex_features::{FeatureArg, FeatureRegistry};
use iflex_text::Span;
use std::collections::{BTreeMap, BTreeSet};

/// Everything a strategy may look at when choosing the next question.
pub struct AssistContext<'a> {
    /// The program.
    pub program: &'a Program,
    /// The engine.
    pub engine: &'a mut Engine,
    /// Questions already asked (attribute display name, feature).
    pub asked: &'a BTreeSet<(String, String)>,
    /// Sampling policy used for simulations.
    pub sample: Sample,
    /// Result size (tuples) of the current program on the sample.
    pub current_size: usize,
    /// Marked-up example values (§5.1.1); prune contradicted answers.
    pub examples: Examples,
}

/// A question-selection strategy.
pub trait Strategy {
    /// The strategy / feature name.
    fn name(&self) -> &'static str;

    /// Picks the next question, or `None` when the space is exhausted.
    fn next_question(&mut self, ctx: &mut AssistContext<'_>) -> Option<Question>;
}

/// The curated feature order of the sequential strategy: appearance first
/// (quick to answer visually), then location, then semantics.
pub const FEATURE_ORDER: &[&str] = &[
    "numeric",
    "bold-font",
    "italic-font",
    "underlined",
    "hyperlinked",
    "in-title",
    "in-list",
    "capitalized",
    "person-name",
    "preceded-by",
    "followed-by",
    "max-value",
    "min-value",
    "max-length",
    "starts-with",
    "ends-with",
    "prec-label-contains",
    "prec-label-max-dist",
    "first-half",
    "min-length",
];

fn feature_rank(name: &str) -> usize {
    FEATURE_ORDER
        .iter()
        .position(|f| *f == name)
        .unwrap_or(FEATURE_ORDER.len())
}

/// Importance of an attribute (§5.1: "whether an attribute participates in
/// a join, commonly appears in a variety of Web pages, etc."): higher
/// scores are asked about first.
pub fn attribute_importance(program: &Program, attr: &Attribute) -> u32 {
    let mut score = 0u32;
    for rule in program.rules.iter().filter(|r| !r.is_description()) {
        // The caller variable bound to this attribute's position.
        let mut caller_vars: Vec<&str> = Vec::new();
        for atom in &rule.body {
            if let BodyAtom::Pred { name, args } = atom {
                if name == &attr.pred {
                    if let Some(arg) = args.get(attr.pos) {
                        if let Term::Var(v) = &arg.term {
                            caller_vars.push(v);
                        }
                    }
                }
            }
        }
        for v in caller_vars {
            // participates in a comparison?
            for atom in &rule.body {
                match atom {
                    BodyAtom::Compare { left, right, .. }
                        if (left.var() == Some(v) || right.var() == Some(v)) =>
                    {
                        score += 3;
                    }
                    BodyAtom::Pred { name, args }
                        if name != &attr.pred && args.iter().any(|a| a.term.var() == Some(v)) =>
                    {
                        score += 2; // join / p-function participation
                    }
                    _ => {}
                }
            }
            // exported by the head?
            if rule.head.args.iter().any(|a| a.var == v) {
                score += 1;
            }
        }
    }
    score
}

/// Orders the whole question space the way the sequential strategy walks
/// it: attributes by decreasing importance, features by the curated order.
pub fn ordered_questions(
    program: &Program,
    features: &FeatureRegistry,
    asked: &BTreeSet<(String, String)>,
) -> Vec<Question> {
    let mut qs = question_space(program, features, asked);
    let importance: std::collections::BTreeMap<String, u32> = attributes(program)
        .iter()
        .map(|a| (a.display(), attribute_importance(program, a)))
        .collect();
    qs.sort_by_key(|q| {
        (
            std::cmp::Reverse(*importance.get(&q.attr.display()).unwrap_or(&0)),
            q.attr.display(),
            feature_rank(&q.feature),
        )
    });
    qs
}

/// §5.1 "Sequential Strategy".
#[derive(Debug, Default)]
pub struct Sequential;

impl Strategy for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn next_question(&mut self, ctx: &mut AssistContext<'_>) -> Option<Question> {
        ordered_questions(ctx.program, ctx.engine.features(), ctx.asked)
            .into_iter()
            .next()
    }
}

/// The "I do not know" probability α the simulation strategy assumes (§5.1).
const ALPHA: f64 = 0.1;

/// Candidate questions simulated per choice, taken in interleaved order.
const MAX_CANDIDATES: usize = 24;

/// §5.1 "Simulation Strategy": selects the question minimizing the
/// expected result size after the developer's answer. One value serves
/// one session: it keeps the candidate spans its data-driven answer
/// spaces were derived from, so a question asked again after a "don't
/// know" answer does not re-run their probe.
#[derive(Debug, Default)]
pub struct Simulation {
    /// Spans of each clean answer-space probe run, by the probe program's
    /// rendering and the sample key.
    spans: BTreeMap<(String, String), Vec<Span>>,
}

impl Simulation {
    /// The data-driven answer space of (attribute, feature) (§5.1), from
    /// the spans of the attribute's answer-space probe, which runs once
    /// per program and sample. A failed or degraded run's spans still
    /// serve this call but are not kept.
    pub fn dynamic_space(
        &mut self,
        engine: &mut Engine,
        program: &Program,
        attr: &Attribute,
        feature: &str,
        sample: Sample,
    ) -> Vec<FeatureArg> {
        if !dynamic_feature(feature) {
            return Vec::new();
        }
        let Some(probe) = probe_program(program, attr) else {
            return Vec::new();
        };
        let key = (probe.to_string(), sample.key());
        if let Some(spans) = self.spans.get(&key) {
            return spans_answer_space(engine, feature, spans);
        }
        let (spans, clean) = probe_spans(engine, &probe, sample);
        let space = spans_answer_space(engine, feature, &spans);
        if clean {
            self.spans.insert(key, spans);
        }
        space
    }
}

impl Strategy for Simulation {
    fn name(&self) -> &'static str {
        "simulation"
    }

    fn next_question(&mut self, ctx: &mut AssistContext<'_>) -> Option<Question> {
        let by_attr = ordered_questions(ctx.program, ctx.engine.features(), ctx.asked);
        if by_attr.is_empty() {
            return None;
        }
        let ordered = interleave_by_attr(by_attr);
        // Over an empty current result every refinement sizes 0, which
        // reads as contradicted, so the fallback below would win anyway.
        // Answers only narrow, so the iteration's size, measured before
        // its first answer, stays a sound zero for its later questions.
        if ctx.current_size == 0 {
            return ordered.into_iter().next();
        }

        // Phase A: derive and prune answer spaces, honoring the candidate
        // cap in interleaved order.
        let mut cands: Vec<(usize, Vec<FeatureArg>)> = Vec::new();
        for (i, q) in ordered.iter().enumerate() {
            let mut space = answer_space(&q.feature);
            if space.is_empty() {
                // derive an answer space from the data being queried (§5.1)
                space =
                    self.dynamic_space(ctx.engine, ctx.program, &q.attr, &q.feature, ctx.sample);
            }
            if space.is_empty() {
                continue; // cannot simulate free-text answers
            }
            // §5.1.1: answers the marked-up examples contradict need not
            // be simulated.
            space.retain(|v| ctx.examples.consistent(ctx.engine, &q.attr, &q.feature, v));
            if space.is_empty() {
                continue;
            }
            if cands.len() == MAX_CANDIDATES {
                break;
            }
            cands.push((i, space));
        }

        // Phase B: size every (candidate, answer) refinement in one engine
        // call (DESIGN.md §9). A question whose sizes failed carries no
        // information, so its answers report the current size, with
        // saturated assignments so they never win a tie-break.
        let specs: Vec<ProbeSpec<'_>> = cands
            .iter()
            .map(|(i, space)| ProbeSpec {
                pred: &ordered[*i].attr.pred,
                pos: ordered[*i].attr.pos,
                var: &ordered[*i].attr.var,
                feature: &ordered[*i].feature,
                values: space,
            })
            .collect();
        let counted = count_probes(ctx.engine, ctx.program, ctx.sample, &specs);
        let results: Vec<Vec<(usize, usize)>> = cands
            .iter()
            .zip(counted)
            .map(|((_, space), sizes)| {
                sizes.unwrap_or_else(|_| vec![(ctx.current_size, usize::MAX); space.len()])
            })
            .collect();

        // Phase C: fold expected sizes in candidate order.
        //
        // (expected size, expected assignments, index): primary criterion
        // is the paper's expected result size; expected assignments break
        // ties so that refinements invisible to the projected size (e.g.
        // exactifying one side of a conjunctive condition) still register
        // as progress.
        let mut best: Option<(f64, f64, usize)> = None;
        for ((i, _), sizes) in cands.iter().zip(&results) {
            // expected = α·|current| + Σ_v (1-α)/|V| · |exec(g(P,(a,f,v)))|
            // Answers whose simulated result is empty are contradicted by
            // the data (superset semantics: the true result is contained
            // in every approximate result) — a truthful developer cannot
            // give them, so they are excluded and V renormalized.
            let feasible: Vec<(usize, usize)> =
                sizes.iter().copied().filter(|&(s, _)| s > 0).collect();
            if feasible.is_empty() {
                continue; // every answer contradicted: nothing to learn
            }
            let per_answer = (1.0 - ALPHA) / feasible.len() as f64;
            let mut expected = ALPHA * ctx.current_size as f64;
            let mut expected_assigns = 0.0;
            for (s, a) in &feasible {
                expected += per_answer * *s as f64;
                expected_assigns += per_answer * *a as f64;
            }
            let better = match best {
                None => true,
                Some((bs, ba, _)) => {
                    expected + 1e-9 < bs
                        || ((expected - bs).abs() <= 1e-9 && expected_assigns + 1e-9 < ba)
                }
            };
            if better {
                best = Some((expected, expected_assigns, *i));
            }
        }
        match best {
            Some((_, _, i)) => Some(ordered[i].clone()),
            // Nothing simulatable: fall back to the sequential order.
            None => ordered.into_iter().next(),
        }
    }
}

/// Interleaves questions round-robin across attributes so every attribute
/// gets simulated within the budget (the sequential attribute-exhaustion
/// order would starve late attributes).
fn interleave_by_attr(by_attr: Vec<Question>) -> Vec<Question> {
    let mut buckets: Vec<(String, std::collections::VecDeque<Question>)> = Vec::new();
    for q in by_attr {
        let key = q.attr.display();
        match buckets.iter_mut().find(|(k, _)| *k == key) {
            Some((_, b)) => b.push_back(q),
            None => {
                let mut d = std::collections::VecDeque::new();
                d.push_back(q);
                buckets.push((key, d));
            }
        }
    }
    let mut ordered: Vec<Question> = Vec::new();
    loop {
        let mut any = false;
        for (_, b) in buckets.iter_mut() {
            if let Some(q) = b.pop_front() {
                ordered.push(q);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    ordered
}

/// Sizes the answers of `specs` with [`Engine::probe_sizes`] inside one
/// `probe` span, which carries how many answers were sized and the
/// smallest size among them.
fn count_probes(
    engine: &mut Engine,
    program: &Program,
    sample: Sample,
    specs: &[ProbeSpec<'_>],
) -> Vec<ProbeSizes> {
    use iflex_engine::obs::{SpanId, SpanKind};
    let probe_span = match engine.tracer.ctx(engine.trace_parent) {
        Some((t, parent)) => t.begin(parent, SpanKind::Probe, "probe:count"),
        None => SpanId::NONE,
    };
    let saved = engine.trace_parent;
    engine.trace_parent = probe_span;
    let out = engine.probe_sizes(program, sample, specs);
    engine.trace_parent = saved;
    let sizes = out.iter().flatten().flatten();
    engine.tracer.end_with(
        probe_span,
        &[
            ("answers", sizes.clone().count() as u64),
            ("size", sizes.map(|&(s, _)| s as u64).min().unwrap_or(0)),
        ],
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_alog::parse_program;
    use iflex_ctable::CompactTable;
    use iflex_ctable::Value;
    use iflex_text::DocumentStore;
    use std::sync::Arc;

    fn engine_with_pages() -> Engine {
        let mut store = DocumentStore::new();
        let a = store.add_markup("noise 7 words <b>42</b> more 99 noise");
        let b = store.add_markup("plain 5 page <b>77</b> stuff 1234");
        let store = Arc::new(store);
        let mut eng = Engine::new(store);
        eng.add_doc_table("pages", &[a, b]);
        eng.add_table(
            "limits",
            CompactTable::from_exact_rows(vec!["l".into()], vec![vec![Value::Num(50.0)]]),
        );
        eng
    }

    fn prog() -> Program {
        parse_program(
            r#"
            q(x, v) :- pages(x), extractV(#x, v), v < 1000.
            extractV(#x, v) :- from(#x, v), numeric(v) = yes.
        "#,
        )
        .unwrap()
    }

    #[test]
    fn importance_prefers_compared_attributes() {
        let p = parse_program(
            r#"
            q(x, v) :- pages(x), extractV(#x, v, w), v < 1000.
            extractV(#x, v, w) :- from(#x, v), from(#x, w).
        "#,
        )
        .unwrap();
        let attrs = attributes(&p);
        let v = attrs.iter().find(|a| a.var == "v").unwrap();
        let w = attrs.iter().find(|a| a.var == "w").unwrap();
        assert!(attribute_importance(&p, v) > attribute_importance(&p, w));
    }

    #[test]
    fn sequential_asks_in_feature_order() {
        let p = prog();
        let mut eng = engine_with_pages();
        let asked = BTreeSet::new();
        let mut ctx = AssistContext {
            program: &p,
            engine: &mut eng,
            asked: &asked,
            sample: Sample::new(1.0, 0),
            current_size: 10,
            examples: Default::default(),
        };
        let q = Sequential.next_question(&mut ctx).unwrap();
        // numeric is already constrained; next in order is bold-font
        assert_eq!(q.feature, "bold-font");
    }

    #[test]
    fn asked_questions_are_skipped() {
        let p = prog();
        let mut eng = engine_with_pages();
        let mut asked = BTreeSet::new();
        asked.insert(("extractV.v".to_string(), "bold-font".to_string()));
        let mut ctx = AssistContext {
            program: &p,
            engine: &mut eng,
            asked: &asked,
            sample: Sample::new(1.0, 0),
            current_size: 10,
            examples: Default::default(),
        };
        let q = Sequential.next_question(&mut ctx).unwrap();
        assert_ne!(
            (q.attr.display(), q.feature.clone()),
            ("extractV.v".to_string(), "bold-font".to_string())
        );
    }

    #[test]
    fn simulation_picks_a_reducing_question() {
        let p = prog();
        let mut eng = engine_with_pages();
        let asked = BTreeSet::new();
        let current = eng.run(&p).unwrap().len();
        let mut ctx = AssistContext {
            program: &p,
            engine: &mut eng,
            asked: &asked,
            sample: Sample::new(1.0, 0),
            current_size: current,
            examples: Default::default(),
        };
        let q = Simulation::default().next_question(&mut ctx).unwrap();
        // Simulation must pick *some* simulatable question; on this corpus
        // the bold-font answer collapses each page to one number, so an
        // appearance or value-bound feature is expected.
        assert!(
            !answer_space(&q.feature).is_empty()
                || q.feature == "preceded-by"
                || q.feature == "followed-by"
                || q.feature == "max-value"
                || q.feature == "min-value",
            "{q:?}"
        );
    }

    #[test]
    fn simulation_choice_is_thread_count_invariant() {
        let p = prog();
        let pick = |threads: usize| {
            let mut eng = engine_with_pages();
            eng.limits.threads = threads;
            let asked = BTreeSet::new();
            let current = eng.run(&p).unwrap().len();
            let mut ctx = AssistContext {
                program: &p,
                engine: &mut eng,
                asked: &asked,
                sample: Sample::new(1.0, 0),
                current_size: current,
                examples: Default::default(),
            };
            let q = Simulation::default().next_question(&mut ctx).unwrap();
            (q.attr.display(), q.feature)
        };
        let serial = pick(1);
        for threads in [2, 4, 8] {
            assert_eq!(pick(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn probe_results_serve_a_repeated_probe() {
        // A "don't know" answer leaves the program unchanged, so the next
        // question sizes the same answers again: the memoized sizes must
        // serve them without evaluating a rule or scanning a tuple.
        let p = prog();
        let mut eng = engine_with_pages();
        let asked = BTreeSet::new();
        let sample = Sample::new(1.0, 0);
        let current = eng.run(&p).unwrap().len();
        let mut ctx = AssistContext {
            program: &p,
            engine: &mut eng,
            asked: &asked,
            sample,
            current_size: current,
            examples: Default::default(),
        };
        let mut sim = Simulation::default();
        let q = sim.next_question(&mut ctx).unwrap();
        // The chosen question was simulated over this answer space.
        let mut space = answer_space(&q.feature);
        if space.is_empty() {
            space = sim.dynamic_space(&mut eng, &p, &q.attr, &q.feature, sample);
        }
        let spec = ProbeSpec {
            pred: &q.attr.pred,
            pos: q.attr.pos,
            var: &q.attr.var,
            feature: &q.feature,
            values: &space,
        };
        let sizes = eng.probe_sizes(&p, sample, &[spec]);
        assert!(
            matches!(&sizes[0], Ok(s) if s.len() == space.len()),
            "{q:?}"
        );
        assert_eq!(
            (eng.stats.rules_evaluated, eng.stats.tuples_scanned),
            (0, 0),
            "{q:?}: a repeated probe evaluated a rule"
        );
    }

    #[test]
    fn answer_space_spans_are_kept_for_the_session() {
        // The answer-space probe's spans serve every dynamic feature of the
        // attribute, and a later call with the same program and sample.
        let p = prog();
        let mut eng = engine_with_pages();
        let sample = Sample::new(1.0, 0);
        let attr = attributes(&p).remove(0);
        let mut sim = Simulation::default();
        for feature in ["preceded-by", "followed-by", "min-value", "max-value"] {
            let kept = sim.dynamic_space(&mut eng, &p, &attr, feature, sample);
            let fresh = Simulation::default().dynamic_space(&mut eng, &p, &attr, feature, sample);
            assert_eq!(kept, fresh, "{feature}");
        }
        assert_eq!(sim.spans.len(), 1);
        sim.dynamic_space(&mut eng, &p, &attr, "max-value", Sample::new(0.5, 1));
        assert_eq!(sim.spans.len(), 2, "another sample is another probe");
    }

    #[test]
    fn degraded_answer_space_spans_are_not_kept() {
        let p = prog();
        let mut eng = engine_with_pages();
        eng.fault.arm(
            iflex_engine::fault::site::EVAL_RULE,
            iflex_engine::Trigger::Always,
            iflex_engine::Fault::TooLarge,
            7,
        );
        let attr = attributes(&p).remove(0);
        let mut sim = Simulation::default();
        sim.dynamic_space(&mut eng, &p, &attr, "max-value", Sample::new(1.0, 0));
        assert!(eng.stats.degraded());
        assert!(sim.spans.is_empty());
    }

    #[test]
    fn an_empty_current_result_asks_in_sequential_order_without_probing() {
        // Every refinement of an empty result sizes 0 and reads as
        // contradicted, so the fallback question is the answer: asked
        // without sizing a single refinement.
        let p = parse_program(
            r#"
            q(x, v) :- pages(x), extractV(#x, v), v > 1000000.
            extractV(#x, v) :- from(#x, v), numeric(v) = yes.
        "#,
        )
        .unwrap();
        let mut eng = engine_with_pages();
        let sample = Sample::new(1.0, 0);
        assert_eq!(eng.run_sampled(&p, sample).unwrap().len(), 0);
        eng.clear_cache();
        eng.stats = Default::default();
        let asked = BTreeSet::new();
        let mut ctx = AssistContext {
            program: &p,
            engine: &mut eng,
            asked: &asked,
            sample,
            current_size: 0,
            examples: Default::default(),
        };
        let q = Simulation::default().next_question(&mut ctx).unwrap();
        let first = interleave_by_attr(ordered_questions(&p, eng.features(), &asked)).remove(0);
        assert_eq!(q, first);
        // Any run over the cleared cache would evaluate a rule.
        assert_eq!(eng.stats.rules_evaluated, 0, "a refinement was run");
    }

    #[test]
    fn space_exhaustion_returns_none() {
        let p = prog();
        let mut eng = engine_with_pages();
        // mark everything asked
        let mut asked = BTreeSet::new();
        for q in question_space(&p, eng.features(), &BTreeSet::new()) {
            asked.insert((q.attr.display(), q.feature));
        }
        let mut ctx = AssistContext {
            program: &p,
            engine: &mut eng,
            asked: &asked,
            sample: Sample::new(1.0, 0),
            current_size: 1,
            examples: Default::default(),
        };
        assert!(Sequential.next_question(&mut ctx).is_none());
        assert!(Simulation::default().next_question(&mut ctx).is_none());
    }
}
