//! Abstract syntax of Alog programs (§2).
//!
//! An Alog program is a set of rules `head :- body.` where:
//!
//! * the head may carry an **existence annotation** (`p(...)? :- ...`) and
//!   per-attribute **attribute annotations** (`p(x, <y>) :- ...`);
//! * body atoms are predicates (extensional, intensional, or p-predicates
//!   with `#`-marked input arguments), comparisons (`p > 500000`,
//!   `listPrice = newPrice`, `journalYear != NULL`), and **domain
//!   constraints** (`numeric(p) = yes`, `preceded-by(p) = "Price:"`);
//! * rules whose head has `#`-marked input variables are **description
//!   rules** partially implementing an IE predicate.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A term: variable or constant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// A variable (`x`, `price`).
    Var(String),
    /// A numeric constant (`500000`).
    Num(f64),
    /// A string constant (`"Lincoln"`).
    Str(String),
    /// The NULL constant.
    Null,
}

impl Term {
    /// The variable name, when this term is one.
    pub fn var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Term::Str(s) => write!(f, "{s:?}"),
            Term::Null => write!(f, "NULL"),
        }
    }
}

/// Comparison operators allowed in rule bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        })
    }
}

/// The right-hand side of a domain constraint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConstraintArg {
    /// `yes`, `distinct-yes`, `no`, `distinct-no`, `unknown`.
    Symbol(String),
    /// A number (`max-value(p) = 1000000`).
    Num(f64),
    /// A string (`preceded-by(p) = "Price:"`).
    Str(String),
}

impl fmt::Display for ConstraintArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintArg::Symbol(s) => write!(f, "{s}"),
            ConstraintArg::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            ConstraintArg::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// One argument of a predicate atom: a term plus its input marker (`#x`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arg {
    /// The term.
    pub term: Term,
    /// True when written `#x`: the argument is an *input* the predicate
    /// must be given (the paper's overlined variables).
    pub input: bool,
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.input {
            write!(f, "#")?;
        }
        write!(f, "{}", self.term)
    }
}

/// A body atom.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BodyAtom {
    /// `name(arg, ...)` — extensional/intensional relation, p-predicate, or
    /// the built-in `from(#x, y)`.
    Pred {
        /// The predicate / relation name.
        name: String,
        /// Arguments in order.
        args: Vec<Arg>,
    },
    /// `left OP right (+ offset)` — the optional constant offset supports
    /// bounds like `lastPage < firstPage + 5` (task T5).
    Compare {
        /// Left operand.
        left: Term,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: Term,
        /// Constant added to the right operand.
        offset: f64,
    },
    /// `feature(var) = value` — a domain constraint (§2.2.2).
    Constraint {
        /// The feature name.
        feature: String,
        /// The variable concerned.
        var: String,
        /// The constraint value.
        value: ConstraintArg,
    },
}

impl fmt::Display for BodyAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyAtom::Pred { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            BodyAtom::Compare {
                left,
                op,
                right,
                offset,
            } => {
                write!(f, "{left} {op} {right}")?;
                if *offset > 0.0 {
                    write!(f, " + {offset}")?;
                } else if *offset < 0.0 {
                    write!(f, " - {}", -offset)?;
                }
                Ok(())
            }
            BodyAtom::Constraint {
                feature,
                var,
                value,
            } => write!(f, "{feature}({var}) = {value}"),
        }
    }
}

/// One head argument: a variable, its input marker, and its attribute
/// annotation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadArg {
    /// The var.
    pub var: String,
    /// `#x`: input variable of a description-rule head.
    pub input: bool,
    /// `<x>`: attribute annotation (Definition 2).
    pub annotated: bool,
}

impl fmt::Display for HeadArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.input {
            write!(f, "#")?;
        }
        if self.annotated {
            write!(f, "<{}>", self.var)
        } else {
            write!(f, "{}", self.var)
        }
    }
}

/// A rule head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Head {
    /// The name.
    pub name: String,
    /// The args.
    pub args: Vec<HeadArg>,
    /// `p(...)?`: existence annotation (Definition 1).
    pub existence: bool,
}

impl Head {
    /// Names of attribute-annotated head variables.
    pub fn annotated_vars(&self) -> Vec<&str> {
        self.args
            .iter()
            .filter(|a| a.annotated)
            .map(|a| a.var.as_str())
            .collect()
    }

    /// True when some argument is an input (`#x`): the rule is a
    /// description rule for an IE predicate.
    pub fn has_inputs(&self) -> bool {
        self.args.iter().any(|a| a.input)
    }
}

impl fmt::Display for Head {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
        if self.existence {
            write!(f, "?")?;
        }
        Ok(())
    }
}

/// A rule `head :- body.`
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// The head.
    pub head: Head,
    /// The body.
    pub body: Vec<BodyAtom>,
}

impl Rule {
    /// True when this rule (partially) implements an IE predicate.
    pub fn is_description(&self) -> bool {
        self.head.has_inputs()
    }

    /// The rule's annotation pair `(f, A)` of §2.2.3.
    pub fn annotations(&self) -> (bool, Vec<&str>) {
        (self.head.existence, self.head.annotated_vars())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ".")
    }
}

/// A whole program: rules plus the designated query predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// The rules.
    pub rules: Vec<Rule>,
    /// Name of the query predicate; defaults to the head of the last
    /// non-description rule.
    pub query: String,
}

impl Program {
    /// Rules whose head is `name`.
    pub fn rules_for<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Rule> + 'a {
        self.rules.iter().filter(move |r| r.head.name == name)
    }

    /// The description rules, keyed by the IE predicate they implement.
    pub fn description_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| r.is_description())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrip_shapes() {
        let rule = Rule {
            head: Head {
                name: "houses".into(),
                args: vec![
                    HeadArg {
                        var: "x".into(),
                        input: false,
                        annotated: false,
                    },
                    HeadArg {
                        var: "p".into(),
                        input: false,
                        annotated: true,
                    },
                ],
                existence: true,
            },
            body: vec![
                BodyAtom::Pred {
                    name: "housePages".into(),
                    args: vec![Arg {
                        term: Term::Var("x".into()),
                        input: false,
                    }],
                },
                BodyAtom::Constraint {
                    feature: "numeric".into(),
                    var: "p".into(),
                    value: ConstraintArg::Symbol("yes".into()),
                },
                BodyAtom::Compare {
                    left: Term::Var("p".into()),
                    op: CmpOp::Gt,
                    right: Term::Num(500000.0),
                    offset: 0.0,
                },
            ],
        };
        let s = rule.to_string();
        assert_eq!(
            s,
            "houses(x, <p>)? :- housePages(x), numeric(p) = yes, p > 500000."
        );
        assert_eq!(rule.annotations(), (true, vec!["p"]));
        assert!(!rule.is_description());
    }

    #[test]
    fn description_rule_detection() {
        let rule = Rule {
            head: Head {
                name: "extractHouses".into(),
                args: vec![
                    HeadArg {
                        var: "x".into(),
                        input: true,
                        annotated: false,
                    },
                    HeadArg {
                        var: "p".into(),
                        input: false,
                        annotated: false,
                    },
                ],
                existence: false,
            },
            body: vec![],
        };
        assert!(rule.is_description());
        assert_eq!(rule.head.to_string(), "extractHouses(#x, p)");
    }
}
