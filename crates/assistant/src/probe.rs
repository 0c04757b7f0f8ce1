//! Data-driven answer spaces for the simulation strategy (§5.1: "We are
//! currently examining how to better estimate these probabilities from the
//! data being queried" — this module estimates the *answer candidates*
//! from the data).
//!
//! For a question about attribute `a`, the probe runs a tiny program that
//! extracts `a`'s current candidate values over the sampled input, then
//! derives answer candidates:
//! * `preceded-by` / `followed-by`: the most frequent tokens adjacent to
//!   candidate values;
//! * `min-value` / `max-value`: quantiles of the candidate numeric values.

use crate::question::Attribute;
use iflex_alog::{Arg, BodyAtom, Head, HeadArg, Program, Rule, Term};
use iflex_ctable::{Assignment, Value};
use iflex_engine::{Engine, Sample};
use iflex_features::FeatureArg;
use iflex_text::Span;
use std::collections::BTreeMap;

/// Maximum candidate spans collected per probe.
const PROBE_CAP: usize = 400;

/// Builds a probe program `__probe(v) :- table(x), pred(#x, ..., v, ...).`
/// plus the description rules, for the attribute's IE predicate. Returns
/// `None` when no caller rule binds the predicate to an extensional table.
pub(crate) fn probe_program(program: &Program, attr: &Attribute) -> Option<Program> {
    for rule in program.rules.iter().filter(|r| !r.is_description()) {
        for atom in &rule.body {
            let BodyAtom::Pred { name, args } = atom else {
                continue;
            };
            if name != &attr.pred || args.len() <= attr.pos {
                continue;
            }
            // the input variable feeding the IE predicate
            let input_var = args.iter().find(|a| a.input)?.term.var()?.to_string();
            // a relation atom binding it (anything that is not the IE pred)
            let table_atom = rule.body.iter().find_map(|b| match b {
                BodyAtom::Pred {
                    name: tname,
                    args: targs,
                } if tname != &attr.pred
                    && targs.iter().any(|a| a.term.var() == Some(&input_var)) =>
                {
                    Some(b.clone())
                }
                _ => None,
            })?;
            // fresh head: project the attribute's caller variable
            let out_var = args[attr.pos].term.var()?.to_string();
            let probe_rule = Rule {
                head: Head {
                    name: "__probe".into(),
                    args: vec![HeadArg {
                        var: out_var,
                        input: false,
                        annotated: false,
                    }],
                    existence: false,
                },
                body: vec![
                    table_atom,
                    BodyAtom::Pred {
                        name: name.clone(),
                        args: args
                            .iter()
                            .map(|a| Arg {
                                term: Term::Var(a.term.var().unwrap_or("_").to_string()),
                                input: a.input,
                            })
                            .collect(),
                    },
                ],
            };
            let mut rules = vec![probe_rule];
            rules.extend(program.description_rules().cloned());
            return Some(Program {
                rules,
                query: "__probe".into(),
            });
        }
    }
    None
}

/// Runs an answer-space probe program, returning the candidate spans of
/// the attribute's current extraction and whether the run was clean (it
/// succeeded and nothing degraded).
pub(crate) fn probe_spans(
    engine: &mut Engine,
    probe: &Program,
    sample: Sample,
) -> (Vec<Span>, bool) {
    use iflex_engine::obs::{SpanId, SpanKind};
    // Answer-space probes execute a synthetic program; trace them like
    // simulation probes so a dump attributes this engine time correctly.
    let probe_span = match engine.tracer.ctx(engine.trace_parent) {
        Some((t, parent)) => t.begin(parent, SpanKind::Probe, "probe:answer-space"),
        None => SpanId::NONE,
    };
    let saved = engine.trace_parent;
    engine.trace_parent = probe_span;
    let run = engine.run_sampled(probe, sample);
    engine.trace_parent = saved;
    engine.tracer.end(probe_span);
    let Ok(table) = run else {
        return (Vec::new(), false);
    };
    let mut out = Vec::new();
    'outer: for t in table.tuples() {
        for a in t.cells[0].assignments() {
            match a {
                Assignment::Exact(Value::Span(s)) => out.push(*s),
                Assignment::Exact(_) => {}
                Assignment::Contain(s) => {
                    // take the region's individual tokens as representatives
                    let doc = engine.store().doc(s.doc);
                    for tok in doc.token_slice(s).iter().take(8) {
                        out.push(Span::new(s.doc, tok.start, tok.end));
                    }
                }
            }
            if out.len() >= PROBE_CAP {
                break 'outer;
            }
        }
    }
    (out, !engine.stats.degraded())
}

/// The token (plus adjacent `:`/`$` punctuation) immediately before `s`.
fn preceding_label(engine: &Engine, s: Span) -> Option<String> {
    let doc = engine.store().doc(s.doc);
    let text = doc.text();
    let before = text[..s.start as usize].trim_end();
    if before.is_empty() {
        return None;
    }
    // walk back over trailing punctuation/space and one word token
    let mut start = before.len();
    let bytes = before.as_bytes();
    while start > 0
        && matches!(bytes[start - 1], b'$' | b':' | b'-' | b' ' | b'%' | b'(' | b')')
    {
        start -= 1;
    }
    while start > 0 && bytes[start - 1].is_ascii_alphanumeric() {
        start -= 1;
    }
    let label = before[start..].trim_start();
    if label.is_empty() || label.len() > 24 {
        None
    } else {
        Some(label.to_string())
    }
}

/// The token immediately after `s`.
fn following_label(engine: &Engine, s: Span) -> Option<String> {
    let doc = engine.store().doc(s.doc);
    let text = doc.text();
    let after = text[s.end as usize..].trim_start();
    if after.is_empty() {
        return None;
    }
    let bytes = after.as_bytes();
    let mut end = 0;
    while end < bytes.len()
        && (bytes[end] == b'(' || bytes[end] == b')' || bytes[end] == b':' || bytes[end] == b'-'
            || bytes[end] == b'$')
    {
        end += 1;
    }
    if end == 0 {
        while end < bytes.len() && bytes[end].is_ascii_alphanumeric() {
            end += 1;
        }
    }
    let label = after[..end].trim();
    if label.is_empty() || label.len() > 24 {
        None
    } else {
        Some(label.to_string())
    }
}

fn top_labels(mut counts: BTreeMap<String, usize>, k: usize) -> Vec<FeatureArg> {
    let mut items: Vec<(String, usize)> = counts.iter().map(|(s, &c)| (s.clone(), c)).collect();
    counts.clear();
    items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    items
        .into_iter()
        .take(k)
        .map(|(s, _)| FeatureArg::Text(s))
        .collect()
}

/// Quantile ladder over numeric values.
fn ladder(mut vals: Vec<f64>) -> Vec<f64> {
    if vals.is_empty() {
        return Vec::new();
    }
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |f: f64| vals[((vals.len() - 1) as f64 * f) as usize];
    let mut out = vec![q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)];
    out.dedup();
    out
}

/// Whether `feature`'s answer space is derived from candidate spans.
pub(crate) fn dynamic_feature(feature: &str) -> bool {
    matches!(
        feature,
        "preceded-by" | "followed-by" | "min-value" | "max-value"
    )
}

/// The answer candidates of `feature` derived from an attribute's
/// candidate spans; empty when the feature has no derivable space.
pub(crate) fn spans_answer_space(
    engine: &Engine,
    feature: &str,
    spans: &[Span],
) -> Vec<FeatureArg> {
    match feature {
        "preceded-by" | "followed-by" => {
            let mut counts: BTreeMap<String, usize> = BTreeMap::new();
            for &s in spans {
                let label = if feature == "preceded-by" {
                    preceding_label(engine, s)
                } else {
                    following_label(engine, s)
                };
                if let Some(l) = label {
                    *counts.entry(l).or_default() += 1;
                }
            }
            top_labels(counts, 4)
        }
        "min-value" | "max-value" => {
            let vals: Vec<f64> = spans
                .iter()
                .filter_map(|s| iflex_text::parse_number(engine.store().span_text(s)))
                .collect();
            ladder(vals).into_iter().map(FeatureArg::Num).collect()
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_alog::parse_program;
    use iflex_text::DocumentStore;
    use std::sync::Arc;

    fn setup() -> (Engine, Program) {
        let mut store = DocumentStore::new();
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(store.add_markup(&format!("item {} price: {} votes {}", i, 100 + i, 50 + i)));
        }
        let store = Arc::new(store);
        let mut eng = Engine::new(store);
        eng.add_doc_table("pages", &ids);
        let prog = parse_program(
            r#"
            q(x, v) :- pages(x), extractV(#x, v), v > 10.
            extractV(#x, v) :- from(#x, v), numeric(v) = yes.
        "#,
        )
        .unwrap();
        (eng, prog)
    }

    fn attr() -> Attribute {
        Attribute {
            pred: "extractV".into(),
            var: "v".into(),
            pos: 1,
        }
    }

    #[test]
    fn probe_program_construction() {
        let (_, prog) = setup();
        let probe = probe_program(&prog, &attr()).unwrap();
        assert_eq!(probe.query, "__probe");
        assert!(probe.rules[0].to_string().contains("pages("));
    }

    /// The data-driven answer space the Simulation strategy derives.
    fn space(eng: &mut Engine, prog: &Program, feature: &str) -> Vec<FeatureArg> {
        crate::Simulation::default().dynamic_space(eng, prog, &attr(), feature, Sample::new(1.0, 0))
    }

    #[test]
    fn probe_collects_numeric_spans() {
        let (mut eng, prog) = setup();
        let probe = probe_program(&prog, &attr()).unwrap();
        let (spans, clean) = probe_spans(&mut eng, &probe, Sample::new(1.0, 0));
        assert!(clean);
        assert!(!spans.is_empty());
        // all collected spans parse as numbers (description constrains to numeric)
        assert!(spans
            .iter()
            .all(|s| iflex_text::parse_number(eng.store().span_text(s)).is_some()));
    }

    #[test]
    fn preceded_by_labels_found() {
        let (mut eng, prog) = setup();
        let args = space(&mut eng, &prog, "preceded-by");
        let labels: Vec<&str> = args.iter().filter_map(|a| a.as_text()).collect();
        assert!(labels.iter().any(|l| l.contains("price") || l.contains("votes") || l.contains("item")), "{labels:?}");
    }

    #[test]
    fn value_ladder_derived() {
        let (mut eng, prog) = setup();
        let args = space(&mut eng, &prog, "max-value");
        assert!(!args.is_empty());
        assert!(args.iter().all(|a| a.as_num().is_some()));
    }

    #[test]
    fn unknown_feature_gives_empty_space() {
        let (mut eng, prog) = setup();
        assert!(space(&mut eng, &prog, "bold-font").is_empty());
    }
}
