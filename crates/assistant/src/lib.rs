//! # iflex-assistant
//!
//! The **next-effort assistant** of iFlex (§5): given the current
//! approximate Alog program and the data, it suggests where the
//! developer's next unit of effort is best spent, as questions of the form
//! *"what is the value of feature f for attribute a?"*. Answers are folded
//! back into the program's description rules as domain constraints.
//!
//! Two selection strategies are provided (§5.1):
//! * [`Sequential`] — a predefined order: attributes by decreasing
//!   importance, features by a curated appearance → location → semantics
//!   order;
//! * [`Simulation`] — sizes each candidate refinement over a sampled
//!   subset (one engine call per choice, `Engine::probe_sizes`, which
//!   counts the answers it can and runs the refined program of the rest)
//!   and picks the question with the minimum expected result size.
//!
//! [`ConvergenceMonitor`] implements the §5.1 convergence notification:
//! stable result size and assignment count for k consecutive iterations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod converge;
pub mod feedback;
mod probe;
pub mod question;
pub mod strategy;

pub use converge::ConvergenceMonitor;
pub use feedback::{implied_answers, Examples};
pub use question::{
    add_constraint, answer_space, attributes, constrained_features, question_space, Answer,
    Attribute, Question,
};
pub use strategy::{
    attribute_importance, ordered_questions, AssistContext, Sequential, Simulation, Strategy,
    FEATURE_ORDER,
};
