//! # iflex-engine
//!
//! The approximate query processor of iFlex (§4 of *Toward Best-Effort
//! Information Extraction*, SIGMOD 2008). It validates and unfolds Alog
//! programs, compiles one plan fragment per rule, stitches them in
//! dependency order, and executes relational operators, p-predicates,
//! domain-constraint selections (`Verify`/`Refine`), and the ψ annotation
//! operator (BAnnotate) over compact tables — all under **superset
//! semantics**: the produced set of possible relations is guaranteed to
//! contain every relation the program defines.
//!
//! Multi-iteration optimizations from §5.2 are built in: per-rule **reuse**
//! of results across runs, and **subset evaluation** over sampled inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod budget;
pub mod constraint;
mod eval;
pub mod exec;
pub mod fault;
mod incr;
mod par;
pub mod pfunc;
mod plan;
mod probe;
pub mod sample;
pub mod similarity;

pub use annotate::apply_annotations;
pub use budget::{CancelToken, DegradeCause, RunBudget, RunClock};
pub use exec::{default_threads, Degradation, Engine, EngineCore, EngineError, ExecStats, Limits};
pub use fault::{Fault, FaultPlan, Trigger};
pub use pfunc::{builtin_procs, ProcRegistry, Procedure};
pub use plan::{to_constraint_arg, CompiledConstraint, PlanError};
pub use probe::{refine, ProbeSizes, ProbeSpec};
pub use sample::Sample;

// The observability crate travels with the engine: downstream crates take
// tracer handles and metric registries from `Engine` and need the types.
pub use iflex_obs as obs;
