//! The question space of the next-effort assistant (§5.1): questions of
//! the form "what is the value of feature f for attribute a?", and the
//! program surgery that folds an answer back into a description rule.
//! Sizing a candidate answer is the engine's business
//! (`Engine::probe_sizes`), which refines a program the way
//! [`add_constraint`] does.

use iflex_alog::{BodyAtom, Program};
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

pub use iflex_engine::to_constraint_arg;

/// Returns a copy of `program` with `feature(attr) = value` appended to
/// every description rule of the attribute's IE predicate (§5.1: "iFlex
/// adds the predicate f(a) = v to the description rule") — the engine's
/// [`iflex_engine::refine`], which its probes size.
pub fn add_constraint(
    program: &Program,
    attr: &Attribute,
    feature: &str,
    value: &FeatureArg,
) -> Program {
    iflex_engine::refine(program, &attr.pred, &attr.var, feature, value)
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
    use iflex_alog::{parse_program, ConstraintArg};

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
