//! The question space of the next-effort assistant (§5.1): questions of
//! the form "what is the value of feature f for attribute a?", and the
//! program surgery that folds an answer back into a description rule.

use iflex_alog::{Arg, BodyAtom, ConstraintArg, Program, Rule, Term};
use iflex_features::{FeatureArg, FeatureRegistry, FeatureValue};
use std::collections::BTreeSet;

/// An extraction attribute: an output variable of an IE predicate that has
/// description rules.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Attribute {
    /// The IE predicate the attribute belongs to (`extractHouses`).
    pub pred: String,
    /// The variable name inside the description rule (`p`).
    pub var: String,
    /// Position in the IE predicate's head.
    pub pos: usize,
}

impl Attribute {
    /// Human-readable name (`extractHouses.p`).
    pub fn display(&self) -> String {
        format!("{}.{}", self.pred, self.var)
    }
}

/// A concrete question the assistant may ask.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// The attr.
    pub attr: Attribute,
    /// The feature.
    pub feature: String,
    /// The rendered question text shown to the developer.
    pub text: String,
}

/// The developer's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A concrete feature value; iFlex adds `feature(attr) = value`.
    Value(FeatureArg),
    /// "I do not know" — the question is retired without a constraint.
    DontKnow,
}

/// Collects the attributes of every IE predicate that has description
/// rules: the head's non-input variables.
pub fn attributes(program: &Program) -> Vec<Attribute> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for r in program.description_rules() {
        for (pos, a) in r.head.args.iter().enumerate() {
            if a.input {
                continue;
            }
            let attr = Attribute {
                pred: r.head.name.clone(),
                var: a.var.clone(),
                pos,
            };
            if seen.insert(attr.clone()) {
                out.push(attr);
            }
        }
    }
    out
}

/// Features already constrained for `attr` in its description rules.
pub fn constrained_features(program: &Program, attr: &Attribute) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for r in program.description_rules() {
        if r.head.name != attr.pred {
            continue;
        }
        for atom in &r.body {
            if let BodyAtom::Constraint { feature, var, .. } = atom {
                if var == &attr.var {
                    out.insert(feature.clone());
                }
            }
        }
    }
    out
}

/// The full question space: every (attribute, feature) pair not yet
/// constrained and not yet asked.
pub fn question_space(
    program: &Program,
    features: &FeatureRegistry,
    asked: &BTreeSet<(String, String)>,
) -> Vec<Question> {
    let mut out = Vec::new();
    for attr in attributes(program) {
        let constrained = constrained_features(program, &attr);
        for fname in features.names() {
            if constrained.contains(fname) {
                continue;
            }
            if asked.contains(&(attr.display(), fname.to_string())) {
                continue;
            }
            let text = features
                .get(fname)
                .map(|f| f.question(&attr.display()))
                .unwrap_or_else(|_| format!("what is {fname} for {}?", attr.display()));
            out.push(Question {
                attr: attr.clone(),
                feature: fname.to_string(),
                text,
            });
        }
    }
    out
}

/// Converts a [`FeatureArg`] answer into the AST's constraint value.
pub fn to_constraint_arg(arg: &FeatureArg) -> ConstraintArg {
    match arg {
        FeatureArg::Tri(v) => ConstraintArg::Symbol(v.to_string()),
        FeatureArg::Num(n) => ConstraintArg::Num(*n),
        FeatureArg::Text(t) => ConstraintArg::Str(t.clone()),
    }
}

/// Returns a copy of `program` with `feature(attr) = value` appended to
/// every description rule of the attribute's IE predicate (§5.1: "iFlex
/// adds the predicate f(a) = v to the description rule").
pub fn add_constraint(
    program: &Program,
    attr: &Attribute,
    feature: &str,
    value: &FeatureArg,
) -> Program {
    let mut out = program.clone();
    for r in out.rules.iter_mut() {
        if !r.is_description() || r.head.name != attr.pred {
            continue;
        }
        push_constraint(r, &attr.var, feature, value);
    }
    out
}

fn push_constraint(rule: &mut Rule, var: &str, feature: &str, value: &FeatureArg) {
    rule.body.push(BodyAtom::Constraint {
        feature: feature.to_string(),
        var: var.to_string(),
        value: to_constraint_arg(value),
    });
}

/// Builds the program a simulation probe executes for one candidate
/// refinement (DESIGN.md §9). When the query is a single rule that calls
/// the probed IE predicate directly (as its only extraction call, or as one
/// of several calls that all read the same input variable while no other
/// atom mentions the probed variable), the query rule is split into a
/// candidate-independent **base rule** that exposes every extraction
/// attribute, plus a σ **overlay rule** carrying only the probed
/// constraint:
///
/// ```text
/// q__probe_base(title, votes) :- imdb(x), extractIMDB(#x, title, votes), votes < 25000.
/// q__probe(title)             :- q__probe_base(title, votes), max-value(votes) = 500000.
/// ```
///
/// The base rule's fingerprint is the same for every candidate answer of
/// every question in a strategy call, so with the incremental engine it is
/// evaluated once and served from cache thereafter — each probe evaluates
/// only its overlay, shrinking Simulation cost from
/// O(candidates × program) toward O(candidates × cone). The overlay
/// constrains the base result *after* extraction rather than inside the
/// description rule (no §4.2 prior re-checks), which under superset
/// semantics yields an upper bound of the refined size — the quantity the
/// simulation ranks candidates by. When the program shape does not admit
/// the split (union query, the IE predicate is not called from the query
/// rule, extraction calls over different inputs, or another atom reading
/// the probed variable of a multi-call rule), the exact refined program
/// from [`add_constraint`] is probed instead.
pub fn probe_program(
    program: &Program,
    attr: &Attribute,
    feature: &str,
    value: &FeatureArg,
) -> Program {
    overlay_probe(program, attr, feature, value)
        .unwrap_or_else(|| add_constraint(program, attr, feature, value))
}

fn overlay_probe(
    program: &Program,
    attr: &Attribute,
    feature: &str,
    value: &FeatureArg,
) -> Option<Program> {
    use iflex_alog::{Head, HeadArg};
    let mut query_rules = program
        .rules
        .iter()
        .filter(|r| !r.is_description() && r.head.name == program.query);
    let rule = query_rules.next()?;
    if query_rules.next().is_some() {
        return None; // union query: per-branch column mapping may differ
    }
    // The variable the query rule binds at the probed attribute position.
    // A repeated call site would make the mapping ambiguous (the real
    // refinement constrains every call site); leave those to the fallback.
    let mut sites = rule.body.iter().filter_map(|a| match a {
        BodyAtom::Pred { name, args } if name == &attr.pred => Some(args),
        _ => None,
    });
    let args = sites.next()?;
    if sites.next().is_some() {
        return None;
    }
    let caller = match args.get(attr.pos) {
        Some(Arg {
            term: Term::Var(v), ..
        }) => v.clone(),
        _ => return None,
    };
    let description_preds: BTreeSet<&str> = program
        .description_rules()
        .map(|r| r.head.name.as_str())
        .collect();
    // The split is faithful when the unfolded rule is one pass with one row
    // per input tuple and only the probed call site reads the probed
    // variable: a σ over the pass then drops what the constraint would drop
    // inside the description rule (less the prior re-checks noted on
    // `probe_program`). Several extraction calls form one pass when they all
    // read the same single input (Panel's `extractPanelists(#d, x),
    // extractConference(#d, y)`). Another atom reading the probed variable,
    // such as Chair's p-predicate `extractType(#x, z)`, consumes the
    // unconstrained cell before the σ; calls over different inputs join
    // their rows, and a pre-join constraint prunes partners a post-join σ
    // cannot (T3, T6, T9). Those keep exact probes. With one call a compare
    // on the probed variable (T1's `votes < 25000`) only loosens the upper
    // bound, so the split stays.
    let calls: Vec<&[Arg]> = rule
        .body
        .iter()
        .filter_map(|a| match a {
            BodyAtom::Pred { name, args } if description_preds.contains(name.as_str()) => {
                Some(args.as_slice())
            }
            _ => None,
        })
        .collect();
    let uses: usize = rule.body.iter().map(|a| mentions(a, &caller)).sum();
    if calls.len() > 1 && !(shared_input(&calls) && uses == 1) {
        return None;
    }
    // The base head exposes the query head plus every extraction attribute
    // bound in this rule, so one base result serves probes of any
    // attribute.
    let mut base_vars: Vec<String> = rule.head.args.iter().map(|h| h.var.clone()).collect();
    for atom in &rule.body {
        if let BodyAtom::Pred { name, args } = atom {
            if !description_preds.contains(name.as_str()) {
                continue;
            }
            for a in args {
                if let (false, Term::Var(v)) = (a.input, &a.term) {
                    if !base_vars.contains(v) {
                        base_vars.push(v.clone());
                    }
                }
            }
        }
    }
    if !base_vars.contains(&caller) {
        return None;
    }
    let base_name = format!("{}__probe_base", program.query);
    let probe_name = format!("{}__probe", program.query);
    let plain = |v: &String| HeadArg {
        var: v.clone(),
        input: false,
        annotated: false,
    };
    let base_rule = Rule {
        head: Head {
            name: base_name.clone(),
            args: base_vars.iter().map(plain).collect(),
            existence: false,
        },
        body: rule.body.clone(),
    };
    let overlay = Rule {
        // Mirror the original head (annotations included) so the probe's
        // size estimate tracks the real program's projected result.
        head: Head {
            name: probe_name.clone(),
            args: rule.head.args.clone(),
            existence: rule.head.existence,
        },
        body: vec![
            BodyAtom::Pred {
                name: base_name,
                args: base_vars
                    .iter()
                    .map(|v| Arg {
                        term: Term::Var(v.clone()),
                        input: false,
                    })
                    .collect(),
            },
            BodyAtom::Constraint {
                feature: feature.to_string(),
                var: caller,
                value: to_constraint_arg(value),
            },
        ],
    };
    let mut out = Program {
        // The original query rule is replaced by the split pair: probing
        // must not evaluate the unsplit rule a second time.
        rules: program
            .rules
            .iter()
            .filter(|r| r.is_description() || r.head.name != program.query)
            .cloned()
            .collect(),
        query: probe_name,
    };
    out.rules.push(base_rule);
    out.rules.push(overlay);
    Some(out)
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

/// The answer space the simulation strategy sums over for a feature.
/// Tri-state features have a closed space; numeric features get
/// data-independent ladder candidates; free-text features cannot be
/// enumerated (empty → the simulation strategy skips them).
pub fn answer_space(feature: &str) -> Vec<FeatureArg> {
    match feature {
        "numeric" | "bold-font" | "italic-font" | "underlined" | "hyperlinked" | "in-title"
        | "in-list" | "first-half" | "capitalized" | "person-name" => vec![
            FeatureArg::Tri(FeatureValue::Yes),
            FeatureArg::Tri(FeatureValue::DistinctYes),
            FeatureArg::Tri(FeatureValue::No),
        ],
        "max-length" => vec![
            FeatureArg::Num(12.0),
            FeatureArg::Num(18.0),
            FeatureArg::Num(40.0),
            FeatureArg::Num(80.0),
        ],
        "min-length" => vec![FeatureArg::Num(2.0), FeatureArg::Num(4.0), FeatureArg::Num(8.0)],
        "prec-label-max-dist" => vec![
            FeatureArg::Num(100.0),
            FeatureArg::Num(300.0),
            FeatureArg::Num(700.0),
        ],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iflex_alog::parse_program;

    fn prog() -> Program {
        parse_program(
            r#"
            houses(x, p, h) :- housePages(x), extractHouses(#x, p, h).
            extractHouses(#x, p, h) :- from(#x, p), from(#x, h), numeric(p) = yes.
        "#,
        )
        .unwrap()
    }

    #[test]
    fn attributes_found() {
        let attrs = attributes(&prog());
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].display(), "extractHouses.p");
        assert_eq!(attrs[1].pos, 2);
    }

    #[test]
    fn constrained_features_detected() {
        let p = prog();
        let attrs = attributes(&p);
        assert!(constrained_features(&p, &attrs[0]).contains("numeric"));
        assert!(constrained_features(&p, &attrs[1]).is_empty());
    }

    #[test]
    fn question_space_excludes_constrained_and_asked() {
        let p = prog();
        let reg = FeatureRegistry::default();
        let mut asked = BTreeSet::new();
        let qs = question_space(&p, &reg, &asked);
        // p already has numeric constrained → one fewer question for p
        let p_questions = qs
            .iter()
            .filter(|q| q.attr.var == "p")
            .count();
        let h_questions = qs.iter().filter(|q| q.attr.var == "h").count();
        assert_eq!(h_questions, p_questions + 1);
        // mark one asked
        asked.insert(("extractHouses.h".to_string(), "bold-font".to_string()));
        let qs2 = question_space(&p, &reg, &asked);
        assert_eq!(qs2.len(), qs.len() - 1);
    }

    #[test]
    fn add_constraint_modifies_description_rule() {
        let p = prog();
        let attrs = attributes(&p);
        let p2 = add_constraint(&p, &attrs[1], "bold-font", &FeatureArg::yes());
        let desc = p2.description_rules().next().unwrap();
        assert!(desc.to_string().contains("bold-font(h) = yes"));
        // original untouched
        assert!(!prog()
            .description_rules()
            .next()
            .unwrap()
            .to_string()
            .contains("bold-font"));
    }

    /// Whether the probe of `attr` (`pred.var`) in `src` is the split
    /// overlay; otherwise it must be exactly the refined program.
    fn overlaid(src: &str, attr: &str) -> bool {
        let p = parse_program(src).unwrap();
        let attr = attributes(&p)
            .into_iter()
            .find(|a| a.display() == attr)
            .unwrap_or_else(|| panic!("no attribute {attr}"));
        let v = FeatureArg::yes();
        let probe = probe_program(&p, &attr, "bold-font", &v);
        let split = probe.query == format!("{}__probe", p.query);
        if !split {
            assert_eq!(probe, add_constraint(&p, &attr, "bold-font", &v));
        }
        split
    }

    #[test]
    fn calls_over_one_input_split_every_attribute() {
        let panel = r#"
            onPanel(x, y) :- docs(d), extractPanelists(#d, x), extractConference(#d, y).
            extractPanelists(#d, x) :- from(#d, x), person-name(x) = yes.
            extractConference(#d, y) :- from(#d, y), in-title(y) = yes.
        "#;
        assert!(overlaid(panel, "extractPanelists.x"));
        assert!(overlaid(panel, "extractConference.y"));
        let project = r#"
            worksOn(x, y) :- docs(d), extractOwner(#d, x), extractProjects(#d, y).
            extractOwner(#d, x) :- from(#d, x), person-name(x) = yes.
            extractProjects(#d, y) :- from(#d, y), in-title(y) = yes.
        "#;
        assert!(overlaid(project, "extractOwner.x"));
        assert!(overlaid(project, "extractProjects.y"));
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
        for attr in ["extractIMDBt.t", "extractEbertT.t", "extractPrasT.t"] {
            assert!(!overlaid(t3, attr), "{attr}");
        }
        let t6 = r#"
            t6(title1) :- sigmod(x), extractSIGMOD(#x, title1, authors1),
                          icde(y), extractICDE(#y, title2, authors2),
                          similar(#authors1, #authors2).
            extractSIGMOD(#x, t, a) :- from(#x, t), from(#x, a), bold-font(t) = distinct-yes.
            extractICDE(#y, t, a) :- from(#y, t), from(#y, a), bold-font(t) = distinct-yes.
        "#;
        for attr in [
            "extractSIGMOD.t",
            "extractSIGMOD.a",
            "extractICDE.t",
            "extractICDE.a",
        ] {
            assert!(!overlaid(t6, attr), "{attr}");
        }
        let t9 = r#"
            t9(title1) :- amazon(x), extractAmazonT(#x, title1, np),
                          barnes(y), extractBarnesT(#y, title2, bp),
                          similar(#title1, #title2), np < bp.
            extractAmazonT(#x, t, p) :- from(#x, t), from(#x, p), numeric(p) = yes.
            extractBarnesT(#y, t, p) :- from(#y, t), from(#y, p), numeric(p) = yes.
        "#;
        for attr in [
            "extractAmazonT.t",
            "extractAmazonT.p",
            "extractBarnesT.t",
            "extractBarnesT.p",
        ] {
            assert!(!overlaid(t9, attr), "{attr}");
        }
    }

    #[test]
    fn p_predicate_reading_the_probed_variable_probes_exactly() {
        let chair = r#"
            chair(x, y, z) :- docs(d), extractChairs(#d, x), extractConference(#d, y),
                              extractType(#x, z).
            extractChairs(#d, x) :- from(#d, x), person-name(x) = yes.
            extractConference(#d, y) :- from(#d, y), in-title(y) = yes.
        "#;
        assert!(!overlaid(chair, "extractChairs.x"));
        assert!(overlaid(chair, "extractConference.y"));
    }

    #[test]
    fn compare_on_the_probed_variable_probes_exactly_over_several_calls() {
        let two_calls = r#"
            q(x, y) :- docs(d), a(#d, x), b(#d, y), y > 3.
            a(#d, x) :- from(#d, x).
            b(#d, y) :- from(#d, y).
        "#;
        assert!(overlaid(two_calls, "a.x"));
        assert!(!overlaid(two_calls, "b.y"));
        // One call: the compare only loosens the overlay's upper bound.
        let one_call = r#"
            t1(title) :- imdb(x), extractIMDB(#x, title, votes), votes < 25000.
            extractIMDB(#x, title, votes) :- from(#x, title), from(#x, votes).
        "#;
        assert!(overlaid(one_call, "extractIMDB.votes"));
    }

    #[test]
    fn union_query_probes_exactly() {
        let union = r#"
            q(x) :- docs(d), a(#d, x).
            q(x) :- pages(d), a(#d, x).
            a(#d, x) :- from(#d, x).
        "#;
        assert!(!overlaid(union, "a.x"));
    }

    #[test]
    fn answer_spaces() {
        assert_eq!(answer_space("bold-font").len(), 3);
        assert!(!answer_space("max-length").is_empty());
        assert!(answer_space("preceded-by").is_empty());
    }

    #[test]
    fn constraint_arg_conversion() {
        assert_eq!(
            to_constraint_arg(&FeatureArg::yes()),
            ConstraintArg::Symbol("yes".into())
        );
        assert_eq!(
            to_constraint_arg(&FeatureArg::Num(7.0)),
            ConstraintArg::Num(7.0)
        );
        assert_eq!(
            to_constraint_arg(&FeatureArg::Text("x".into())),
            ConstraintArg::Str("x".into())
        );
    }
}
