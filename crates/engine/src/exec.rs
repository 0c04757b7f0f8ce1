//! The approximate query processor (§4): validates, unfolds, compiles, and
//! executes Alog programs over compact tables with superset semantics,
//! with multi-iteration **reuse** and **subset evaluation** (§5.2).
//!
//! Execution is **fault tolerant**: rule evaluation runs inside a panic
//! boundary and under a [`RunClock`], and any budget overflow, deadline
//! expiry, cancellation, or contained panic degrades just that rule — the
//! run still returns `Ok` with a superset-safe widened result and a
//! [`Degradation`] record in [`ExecStats`]. Only semantic errors
//! (validation, planning, unknown tables or procedures) fail a run.
//!
//! Execution is also **observable** (DESIGN.md §8): every run drives the
//! engine's [`iflex_obs::Registry`] — [`ExecStats`] is a per-run *view*
//! over that registry, filled at the end of each run — and, when the
//! engine's [`iflex_obs::Tracer`] is enabled, emits a span tree
//! `run → rule → operator → shard` into the shared trace journal. A
//! disabled tracer costs one relaxed atomic load per probe.

use crate::annotate::{apply_annotations, ATABLE_BUDGET};
use crate::budget::{DegradeCause, RunBudget, RunClock};
use crate::constraint::Chain;
use crate::eval::{
    candidates_budgeted, cells_may_equal, compare_cands, filter_cands, Cands, CMP_ENUM_CAP,
    COMBO_CAP, ENUM_CAP,
};
use crate::fault::{self, Fault, FaultPlan};
use crate::pfunc::{builtin_procs, ProcRegistry, Procedure};
use crate::plan::{compile_rule, extracts, CompileEnv, FusedOp, Operand, Plan, PlanError};
use crate::sample::Sample;
use crate::similarity::{SimSeed, SimStep};
use iflex_alog::{
    evaluation_order, unfold, validate, Program, Rule, ValidateEnv, ValidateError,
};

use iflex_ctable::{Assignment, Cell, CompactTable, CompactTuple, Value};
use iflex_features::{FeatureError, FeatureRegistry};
use iflex_obs::{
    metrics::names, Counter, FlightRecorder, LiveSet, Registry, SpanId, SpanKind, Tracer,
};
use iflex_text::{DocId, DocumentStore};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Execution settings: the result-size bound, parallelism, and the two
/// reuse/rewrite switches. The enumeration caps every run shares are
/// constants next to their reader (`eval.rs`, [`crate::annotate`]).
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max compact tuples any single operator may materialize; exceeding
    /// it degrades the rule with [`DegradeCause::Budget`] (an unrefined
    /// join over the full input can otherwise explode).
    pub max_result_tuples: usize,
    /// Worker threads for every morsel section of a run (1 = sequential).
    pub threads: usize,
    /// `(min, max)` clamp, in tuples, for the auto-tuned morsel size of
    /// the work-stealing executor (`par.rs`). Each parallel
    /// section calibrates on its first `min` tuples and sizes later
    /// morsels to ~1ms of work within this clamp. `min` doubles as the
    /// serial threshold: inputs of at most `2 * min` tuples never engage
    /// the pool.
    pub morsel_tuples: (usize, usize),
    /// Run the incremental re-execution engine (DESIGN.md §9): fingerprint
    /// rules, version relations, and serve unchanged rule results from the
    /// incremental cache (`incr.rs`) across iterations and simulation probes.
    /// Disabling it (ablation knob) re-executes every rule on every run —
    /// no lookups, no inserts.
    pub use_incremental: bool,
    /// Programmatic switch for the structured trace journal: sessions
    /// enable the engine's [`Tracer`] when this is set *or* the
    /// `IFLEX_TRACE` environment variable requests a dump (see
    /// `iflex::Session`). The engine itself only journals through
    /// [`Engine::tracer`]; this flag exists so embedding code can opt in
    /// without touching the environment.
    pub trace: bool,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_result_tuples: 2_000_000,
            threads: default_threads(),
            morsel_tuples: (16, 65_536),
            use_incremental: true,
            trace: false,
        }
    }
}

/// The default worker-thread count: the `IFLEX_THREADS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism capped at 8. `IFLEX_THREADS=1` forces fully
/// serial execution. An invalid value (non-numeric, zero, or not UTF-8)
/// falls back to the machine default — and warns once on stderr with the
/// offending value, so a typo'd knob never degrades silently.
pub fn default_threads() -> usize {
    let machine_default = || {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1)
    };
    match std::env::var("IFLEX_THREADS") {
        Ok(v) => match parse_threads_value(&v) {
            Some(n) => n,
            None => {
                let d = machine_default();
                warn_knob_once(&format!(
                    "iflex: ignoring invalid IFLEX_THREADS={v:?} \
                     (expected a positive integer); using default {d}"
                ));
                d
            }
        },
        Err(std::env::VarError::NotPresent) => machine_default(),
        Err(std::env::VarError::NotUnicode(raw)) => {
            let d = machine_default();
            warn_knob_once(&format!(
                "iflex: ignoring invalid IFLEX_THREADS={raw:?} \
                 (not valid UTF-8); using default {d}"
            ));
            d
        }
    }
}

/// `IFLEX_THREADS` value parsing, factored out for tests: a positive
/// integer (surrounding whitespace tolerated) or nothing.
pub(crate) fn parse_threads_value(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Emits an env-knob warning exactly once per process (the knobs are read
/// once per engine/session construction; repeating the warning per engine
/// would drown real diagnostics).
fn warn_knob_once(msg: &str) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| eprintln!("{msg}"));
}

/// One graceful-degradation event: a rule whose evaluation could not be
/// completed exactly and was replaced by a superset-safe widened result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The rule (rendered) whose evaluation degraded.
    pub rule: String,
    /// Why it degraded.
    pub cause: DegradeCause,
    /// The fault-injection site (see [`crate::fault::site`]) whose armed
    /// fault produced this degradation, when one fired; `None` for organic
    /// degradations (real budget overflows, deadlines, panics).
    pub site: Option<String>,
    /// What was truncated (the original error rendered).
    pub truncated: String,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.cause, self.rule, self.truncated)?;
        if let Some(site) = &self.site {
            write!(f, " (site: {site})")?;
        }
        Ok(())
    }
}

/// Execution statistics (reuse, work done); reset per `run`.
///
/// Since the observability refactor this is a **view** over the engine's
/// [`Registry`]: operators increment registry counters (through handles
/// resolved once per engine) while a run executes, and the numeric
/// fields below are filled from the registry when the run finishes — on
/// every exit path, success or error. `degradations` is the one field
/// still carried directly (it holds structured records, not numbers);
/// the registry mirrors its count as `engine.degradations`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rules actually (re)computed this run.
    pub rules_evaluated: usize,
    /// Extensional tuples scanned this run.
    pub tuples_scanned: usize,
    /// Possible-value volume across *all* pre-projection extraction
    /// results of the last run — the "assignments produced by the
    /// extraction process" signal the §5.1 convergence monitor watches.
    /// Value counts (not raw assignment counts) are used because refining
    /// `contain(s)` to `exact(v)` keeps the assignment count at one while
    /// strictly shrinking the encoded value set.
    pub assignments_produced: usize,
    /// Rules degraded this run (empty for an exact run).
    pub degradations: Vec<Degradation>,
    /// Rules served from the incremental rule cache this run (zero when
    /// `use_incremental` is off).
    pub incr_hits: usize,
    /// Incremental-cache misses this run (rules that fell through to
    /// evaluation while the incremental engine was on).
    pub incr_misses: usize,
    /// Incremental-cache entries the byte budget evicted since the
    /// previous run ended: this run's inserts plus any probe sizes and
    /// join traces memoized in between.
    pub incr_invalidations: usize,
}

impl ExecStats {
    /// True when at least one rule degraded this run.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// True when some degradation this run had the given cause.
    pub fn degraded_by(&self, cause: DegradeCause) -> bool {
        self.degradations.iter().any(|d| d.cause == cause)
    }
}

/// Engine errors.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// The program failed static validation.
    Validation(Vec<ValidateError>),
    /// A rule could not be compiled into a plan.
    Plan(PlanError),
    /// A feature rejected its argument or is unknown.
    Feature(FeatureError),
    /// An operator exceeded a materialization/enumeration budget. Never
    /// returned by [`Engine::run`]: the rule degrades instead.
    TooLarge(String),
    /// An extensional or intensional relation was not found.
    MissingTable(String),
    /// A registered procedure was used incorrectly.
    BadProcedure(String),
    /// The run's wall-clock deadline expired. Never returned by
    /// [`Engine::run`]: the rule degrades instead.
    Deadline,
    /// The run was cancelled through its [`crate::CancelToken`]. Never
    /// returned by [`Engine::run`]: the rule degrades instead.
    Cancelled,
    /// A rule's evaluation panicked; the panic was contained at the rule
    /// boundary. Never returned by [`Engine::run`]: the rule degrades
    /// instead.
    RulePanic(String),
    /// An internal invariant failed (a bug surfaced as an error rather
    /// than a panic).
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Validation(errs) => {
                write!(f, "program validation failed:")?;
                for e in errs {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            EngineError::Plan(e) => write!(f, "plan error: {e}"),
            EngineError::Feature(e) => write!(f, "feature error: {e}"),
            EngineError::TooLarge(what) => write!(f, "budget exceeded: {what}"),
            EngineError::MissingTable(name) => write!(f, "no such table: {name}"),
            EngineError::BadProcedure(name) => write!(f, "bad procedure use: {name}"),
            EngineError::Deadline => write!(f, "run deadline expired"),
            EngineError::Cancelled => write!(f, "run cancelled"),
            EngineError::RulePanic(msg) => write!(f, "rule evaluation panicked: {msg}"),
            EngineError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Plan(e) => Some(e),
            EngineError::Feature(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DegradeCause> for EngineError {
    fn from(c: DegradeCause) -> Self {
        match c {
            DegradeCause::Budget => EngineError::TooLarge("run budget".into()),
            DegradeCause::Deadline => EngineError::Deadline,
            DegradeCause::Cancelled => EngineError::Cancelled,
            DegradeCause::RulePanic => EngineError::RulePanic("(injected)".into()),
        }
    }
}

/// The degradation cause a recoverable error maps to; `None` for semantic
/// errors (validation, planning, unknown tables), which fail the run.
pub(crate) fn degrade_cause(e: &EngineError) -> Option<DegradeCause> {
    match e {
        EngineError::TooLarge(_) => Some(DegradeCause::Budget),
        EngineError::Deadline => Some(DegradeCause::Deadline),
        EngineError::Cancelled => Some(DegradeCause::Cancelled),
        EngineError::RulePanic(_) => Some(DegradeCause::RulePanic),
        _ => None,
    }
}

/// Renders a contained panic payload (`&str` / `String` payloads; anything
/// else is opaque).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Converts an injected engine-site fault into its error (panics for
/// [`Fault::Panic`] — deliberately, so the real containment path runs).
pub(crate) fn injected(f: Fault) -> EngineError {
    match f {
        Fault::TooLarge => EngineError::TooLarge("injected fault".into()),
        Fault::DeadlineExpired => EngineError::Deadline,
        Fault::Panic(msg) => panic!("injected fault: {msg}"),
        Fault::Io(msg) => EngineError::Internal(format!("injected i/o fault: {msg}")),
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

impl From<FeatureError> for EngineError {
    fn from(e: FeatureError) -> Self {
        EngineError::Feature(e)
    }
}

/// Stable operator span names, indexed by [`op_idx`]. Static so the hot
/// path never formats a name.
const OP_NAMES: [&str; 11] = [
    "scan_ext",
    "scan_rel",
    "constraint",
    "compare",
    "var_unify",
    "filter_proc",
    "generate_proc",
    "cross_join",
    "project",
    "annotate",
    "fused",
];

/// The [`OP_NAMES`] index of a plan node. A pass is named from its
/// shape: `fused` when it is one ([`Plan::fused`] — always, when it
/// extracts), else after its one step, else `project`.
fn op_idx(plan: &Plan) -> usize {
    match plan {
        Plan::ScanExt { .. } => 0,
        Plan::ScanRel { .. } => 1,
        Plan::Pass { .. } if plan.fused() => 10,
        Plan::Pass { steps, .. } => match steps.first() {
            Some(FusedOp::Constraint { .. }) => 2,
            Some(FusedOp::Compare { .. }) => 3,
            Some(FusedOp::VarUnify { .. }) => 4,
            Some(FusedOp::FilterProc { .. }) => 5,
            Some(FusedOp::Extract { .. }) => 10,
            None => 8,
        },
        Plan::GenerateProc { .. } => 6,
        Plan::CrossJoin { .. } => 7,
        Plan::Annotate { .. } => 9,
    }
}

/// Metric handles the engine updates on hot paths, resolved once at
/// construction so no per-call registry lookup (or name formatting) ever
/// happens during a run. Handles stay valid across [`Registry::reset`].
struct EngineCounters {
    rules_evaluated: Counter,
    tuples_scanned: Counter,
    assignments_produced: Counter,
    degradations: Counter,
    par_sections: Counter,
    par_morsels: Counter,
    par_steals: Counter,
    par_dispense_us: Counter,
    incr_hits: Counter,
    incr_misses: Counter,
    incr_invalidations: Counter,
    /// Fused passes in the compiled plans (DESIGN.md §11).
    opt_fused_nodes: Counter,
}

impl EngineCounters {
    fn new(reg: &Registry) -> Self {
        EngineCounters {
            rules_evaluated: reg.counter(names::RULES_EVALUATED),
            tuples_scanned: reg.counter(names::TUPLES_SCANNED),
            assignments_produced: reg.counter(names::ASSIGNMENTS_PRODUCED),
            degradations: reg.counter(names::DEGRADATIONS),
            par_sections: reg.counter(names::PAR_SECTIONS),
            par_morsels: reg.counter(names::PAR_MORSELS),
            par_steals: reg.counter(names::PAR_STEALS),
            par_dispense_us: reg.counter(names::PAR_DISPENSE_US),
            incr_hits: reg.counter(names::INCR_HITS),
            incr_misses: reg.counter(names::INCR_MISSES),
            incr_invalidations: reg.counter(names::INCR_INVALIDATIONS),
            opt_fused_nodes: reg.counter(names::OPT_FUSED_NODES),
        }
    }
}

/// The shareable core of an engine: everything concurrent sessions over
/// the same corpus can safely share, split out from the per-session parts
/// they must **not** share.
///
/// Shared (by reference count): the immutable [`DocumentStore`], the
/// extensional tables and the feature/procedure registries; forks also
/// start from a warm incremental cache of rule results. Sharing the rule
/// cache is observationally invisible: every entry is a pure function of
/// its key, and degraded (widened) results are never inserted — so a
/// session can never observe another session's faults through it.
///
/// Per-session (fresh on every [`EngineCore::fork`]): the fault plan, the
/// run budget and its cancellation token, the run clock, the metrics
/// registry, and the tracer. This is the bulkhead boundary the
/// multi-session service builds on: a fork that panics, degrades, or
/// exhausts its budget cannot perturb a sibling fork.
pub struct EngineCore {
    store: Arc<DocumentStore>,
    features: FeatureRegistry,
    procs: ProcRegistry,
    ext: BTreeMap<String, Arc<CompactTable>>,
    /// Warm rule-result entries; forks start from a clone and may publish
    /// clean entries back through [`EngineCore::publish`].
    incr: std::sync::Mutex<crate::incr::IncrCache>,
    epoch: u64,
    limits: Limits,
}

impl EngineCore {
    /// Forks a fresh engine off the shared core: read-only inputs are
    /// shared by `Arc`, the incremental cache starts from a clone of the
    /// core's warm entries, and every isolation-relevant part — fault
    /// plan, budget, clock, metrics, tracer — is brand new.
    pub fn fork(&self) -> Engine {
        let metrics = Registry::new();
        let counters = EngineCounters::new(&metrics);
        let incr = self
            .incr
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        Engine {
            store: Arc::clone(&self.store),
            features: self.features.clone(),
            procs: self.procs.clone(),
            ext: self.ext.clone(),
            incr,
            query_key: None,
            epoch: self.epoch,
            limits: self.limits,
            stats: ExecStats::default(),
            budget: RunBudget::unlimited(),
            fault: Arc::new(FaultPlan::disarmed()),
            clock: Arc::new(RunClock::unlimited()),
            proc_sigs_cache: std::sync::OnceLock::new(),
            metrics,
            tracer: Tracer::disabled(),
            trace_parent: SpanId::NONE,
            counters,
            live: LiveSet::disabled(),
            flight: FlightRecorder::disabled(),
            pool: None,
        }
    }

    /// Folds a fork's incremental-cache entries back into the shared core
    /// so later forks start warm. Existing entries win (both engines
    /// computed the same pure results), and the whole call is refused —
    /// returning `false` — when the fork has diverged from the core
    /// (registry mutations bump the epoch), so a session that redefined
    /// procedures or features can never pollute its siblings. The core's
    /// cache is bounded by the same byte budget as an engine's.
    pub fn publish(&self, engine: &Engine) -> bool {
        if engine.epoch != self.epoch {
            return false;
        }
        let mut core = self.incr.lock().unwrap_or_else(|p| p.into_inner());
        core.absorb(engine.incr.clone());
        // The core has no registry: drop its eviction count so forks do
        // not report it as their own.
        core.take_evicted();
        true
    }

    /// The shared document store.
    pub fn store(&self) -> &Arc<DocumentStore> {
        &self.store
    }

    /// How many warm rule-result entries forks currently start from.
    pub fn warm_entries(&self) -> usize {
        self.incr
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }
}

/// The iFlex approximate query processor.
pub struct Engine {
    store: Arc<DocumentStore>,
    features: FeatureRegistry,
    pub(crate) procs: ProcRegistry,
    ext: BTreeMap<String, Arc<CompactTable>>,
    /// The incremental re-execution cache (§5.2 reuse, generalized in
    /// DESIGN.md §9): per-rule results keyed by `(relation, sample,
    /// fingerprint, input versions)`, bounded by a byte-budget LRU.
    pub(crate) incr: crate::incr::IncrCache,
    /// The cache key of the last run's query relation when one rule
    /// computes it (the entry [`Engine::probe_sizes`] memoizes on).
    pub(crate) query_key: Option<crate::incr::Key>,
    epoch: u64,
    /// The limits.
    pub limits: Limits,
    /// The stats.
    pub stats: ExecStats,
    /// Wall-clock/cancellation budget applied to every run.
    pub budget: RunBudget,
    /// Fault-injection plan (disarmed by default; tests arm it). Shared
    /// with worker threads so per-site hit counts are global: a fault
    /// armed `Nth` fires exactly once no matter which worker reaches it.
    pub fault: Arc<FaultPlan>,
    /// The clock of the current (or last) run; `Arc` so worker threads
    /// observe this engine's deadline/cancellation.
    clock: Arc<RunClock>,
    /// Lazily computed procedure signatures, reset whenever the
    /// procedure or feature registries are touched mutably.
    proc_sigs_cache: std::sync::OnceLock<Arc<BTreeMap<String, (bool, usize)>>>,
    /// The metrics registry this engine's runs drive. Per-engine (a
    /// fork gets its own), reset at the start of every run;
    /// [`Engine::stats`] is filled from it when a run finishes.
    pub metrics: Registry,
    /// The structured trace journal. Disabled by default (one relaxed
    /// atomic load per probe); sessions enable it per `IFLEX_TRACE` /
    /// [`Limits::trace`]. Worker threads clone the handle, so every
    /// worker appends to one shared journal.
    pub tracer: Tracer,
    /// Parent span for the next run's `run` span: the session sets this to
    /// its current iteration/question/probe span so engine spans nest
    /// under the assistant timeline. [`SpanId::NONE`] (the default) makes
    /// runs top-level spans.
    pub trace_parent: SpanId,
    /// Cached metric handles (see [`EngineCounters`]).
    counters: EngineCounters,
    /// Live windowed/quantile telemetry that **survives the per-run
    /// registry reset**: run latency (a p50/p95/p99 sketch under
    /// [`names::RUN_US`]), a degradation-rate window, and per-shard busy
    /// windows. Disabled by default — one relaxed atomic load per probe;
    /// the service wires a per-session set in so every engine run feeds
    /// that tenant's scoped metrics.
    pub live: LiveSet,
    /// Always-on bounded flight recorder. Disabled by default; the
    /// service shares its per-session ring so degradations inside engine
    /// runs land next to the session's request history when a dump
    /// triggers.
    pub flight: FlightRecorder,
    /// The current run's worker pool: created (cheap, no threads yet) at
    /// the start of every run, spawned lazily by the first
    /// parallel-worthy section, reused by every later section of the run,
    /// and joined at run end; a probe's count section builds one the
    /// same way. `None` otherwise; forks build their own.
    pub(crate) pool: Option<crate::par::RunPool>,
}

impl Engine {
    /// A new engine over `store` with the default feature set and the
    /// built-in `similar`/`approxMatch` procedures.
    pub fn new(store: Arc<DocumentStore>) -> Self {
        let metrics = Registry::new();
        let counters = EngineCounters::new(&metrics);
        Engine {
            store,
            features: FeatureRegistry::default(),
            procs: builtin_procs(),
            ext: BTreeMap::new(),
            incr: crate::incr::IncrCache::new(),
            query_key: None,
            epoch: 0,
            limits: Limits::default(),
            stats: ExecStats::default(),
            budget: RunBudget::unlimited(),
            fault: Arc::new(FaultPlan::disarmed()),
            clock: Arc::new(RunClock::unlimited()),
            proc_sigs_cache: std::sync::OnceLock::new(),
            metrics,
            tracer: Tracer::disabled(),
            trace_parent: SpanId::NONE,
            counters,
            live: LiveSet::disabled(),
            flight: FlightRecorder::disabled(),
            pool: None,
        }
    }

    /// Freezes this engine into a shareable [`EngineCore`]: the store,
    /// tables, registries, and any warm incremental-cache entries it
    /// accumulated become the seed that every
    /// [`EngineCore::fork`] starts from. The typical service pattern is
    /// *configure → warm up → `into_core` → fork per session*.
    pub fn into_core(self) -> EngineCore {
        EngineCore {
            store: self.store,
            features: self.features,
            procs: self.procs,
            ext: self.ext,
            incr: std::sync::Mutex::new(self.incr),
            epoch: self.epoch,
            limits: self.limits,
        }
    }

    /// Store.
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// Features.
    pub fn features(&self) -> &FeatureRegistry {
        &self.features
    }

    /// Features mut. Mutable access may change feature behavior, so it
    /// invalidates everything derived from feature results: the rule
    /// reuse cache (by epoch bump).
    pub fn features_mut(&mut self) -> &mut FeatureRegistry {
        self.epoch += 1;
        self.incr.clear();
        self.proc_sigs_cache = std::sync::OnceLock::new();
        &mut self.features
    }

    /// Procs.
    pub fn procs(&self) -> &ProcRegistry {
        &self.procs
    }

    /// Procs mut.
    pub fn procs_mut(&mut self) -> &mut ProcRegistry {
        self.epoch += 1;
        self.incr.clear();
        self.proc_sigs_cache = std::sync::OnceLock::new();
        &mut self.procs
    }

    /// Registers an extensional table (invalidates the reuse cache).
    pub fn add_table(&mut self, name: &str, table: CompactTable) {
        self.epoch += 1;
        self.incr.clear();
        self.ext.insert(name.to_string(), Arc::new(table));
    }

    /// Registers a one-column extensional table of whole documents —
    /// the typical `housePages(x)` input.
    pub fn add_doc_table(&mut self, name: &str, ids: &[DocId]) {
        let rows: Vec<Vec<Value>> = ids
            .iter()
            .map(|&id| vec![Value::Span(self.store.doc(id).full_span())])
            .collect();
        self.add_table(
            name,
            CompactTable::from_exact_rows(vec!["doc".to_string()], rows),
        );
    }

    /// The registered extensional table names and arities.
    pub fn ext_tables(&self) -> impl Iterator<Item = (&str, &CompactTable)> {
        self.ext.iter().map(|(k, v)| (k.as_str(), v.as_ref()))
    }

    /// Drops all memoized rule results.
    pub fn clear_cache(&mut self) {
        self.incr.clear();
    }

    /// Signatures of the registered procedures for the rule compiler.
    /// Computed once and cached until [`Engine::procs_mut`] /
    /// [`Engine::features_mut`] invalidate it — `run` is called once per
    /// iteration and per simulation probe, and the signatures never
    /// change in between.
    fn proc_sigs(&self) -> Arc<BTreeMap<String, (bool, usize)>> {
        Arc::clone(self.proc_sigs_cache.get_or_init(|| {
            Arc::new(
                self.procs
                    .names()
                    .into_iter()
                    .filter_map(|n| {
                        let sig = match self.procs.get(n)? {
                            Procedure::Filter(_) => (true, 0),
                            Procedure::Generator { out_arity, .. } => (false, *out_arity),
                        };
                        Some((n.to_string(), sig))
                    })
                    .collect(),
            )
        }))
    }

    /// The validation environment matching this engine's state.
    pub fn validate_env(&self) -> ValidateEnv {
        let mut env = ValidateEnv::new();
        env.extensional.extend(self.ext.keys().cloned());
        env.procedures
            .extend(self.procs.names().into_iter().map(str::to_string));
        env
    }

    /// What every run and every EXPLAIN starts from: `prog` validated,
    /// unfolded and put in evaluation order, with the compiler's arity
    /// maps.
    pub(crate) fn prologue(&self, prog: &Program) -> Result<Prologue, EngineError> {
        let errors = validate(prog, &self.validate_env());
        if !errors.is_empty() {
            return Err(EngineError::Validation(errors));
        }
        let unfolded = unfold(prog);
        let order = evaluation_order(&unfolded).map_err(|e| EngineError::Validation(vec![e]))?;
        let ext_arity = self.ext.iter().map(|(k, v)| (k.clone(), v.arity())).collect();
        let int_arity = unfolded
            .rules
            .iter()
            .map(|r| (r.head.name.clone(), r.head.args.len()))
            .collect();
        Ok(Prologue {
            unfolded,
            order,
            ext_arity,
            int_arity,
            proc_sigs: self.proc_sigs(),
        })
    }

    /// Renders the compiled execution plan of `prog` (one fragment per
    /// unfolded rule, evaluation order first) — EXPLAIN for Alog.
    pub fn explain(&self, prog: &Program) -> Result<String, EngineError> {
        let pro = self.prologue(prog)?;
        let cenv = pro.env();
        let mut out = String::new();
        for name in &pro.order {
            for rule in pro.unfolded.rules_for(name) {
                let plan = compile_rule(rule, &cenv)?;
                out += &format!("-- {rule}\n");
                out += &plan.explain();
            }
        }
        Ok(out)
    }

    /// Executes `prog` over the full input, returning the query's compact
    /// table. The result is reference-counted: reuse-cache entries, the
    /// caller, and session retries all share one allocation.
    pub fn run(&mut self, prog: &Program) -> Result<Arc<CompactTable>, EngineError> {
        self.run_inner(prog, None)
    }

    /// Executes `prog` over a sampled subset of the extensional tables
    /// (§5.2 subset evaluation).
    pub fn run_sampled(
        &mut self,
        prog: &Program,
        sample: Sample,
    ) -> Result<Arc<CompactTable>, EngineError> {
        self.run_inner(prog, Some(sample))
    }

    /// Per-run setup and teardown around [`Engine::run_body`]: resets the
    /// metrics registry and stats, opens the `run` span, and — on **every**
    /// exit path, including validation/compile errors — fills
    /// [`Engine::stats`] from the registry and closes the span, so
    /// observers never see one run's numbers under another run's label.
    fn run_inner(
        &mut self,
        prog: &Program,
        sample: Option<Sample>,
    ) -> Result<Arc<CompactTable>, EngineError> {
        self.metrics.reset();
        self.stats = ExecStats::default();
        let live_t0 = std::time::Instant::now();
        // Clear stale fault-site attribution from a previous run so a
        // degradation this run is never blamed on last run's injection.
        self.fault.take_last_fired();
        self.clock = Arc::new(self.budget.start());
        // Arm the run's worker pool. Creation is free — threads spawn
        // lazily on the first parallel-worthy section and are reused by
        // every later section of this run.
        self.pool = Some(crate::par::RunPool::new(self.limits.threads));
        let run_span = self.tracer.begin(
            self.trace_parent,
            SpanKind::Run,
            if sample.is_some() { "run:sampled" } else { "run:full" },
        );

        let result = self.run_body(prog, sample, run_span);
        // Join (and drop) the pool on every exit path.
        self.pool = None;
        self.counters
            .incr_invalidations
            .add(self.incr.take_evicted() as u64);

        let c = &self.counters;
        self.stats.rules_evaluated = c.rules_evaluated.get() as usize;
        self.stats.tuples_scanned = c.tuples_scanned.get() as usize;
        self.stats.assignments_produced = c.assignments_produced.get() as usize;
        self.stats.incr_hits = c.incr_hits.get() as usize;
        self.stats.incr_misses = c.incr_misses.get() as usize;
        self.stats.incr_invalidations = c.incr_invalidations.get() as usize;

        self.tracer.end_with(
            run_span,
            &[
                ("tuples_out", result.as_ref().map(|t| t.len()).unwrap_or(0) as u64),
                ("degradations", self.stats.degradations.len() as u64),
            ],
        );
        // Live telemetry outlives the per-run registry reset above: run
        // latency feeds a quantile sketch and degradations feed a rate
        // window, both under the tenant this engine is scoped to. One
        // relaxed load when disabled.
        if self.live.is_enabled() {
            let run_us = live_t0.elapsed().as_micros() as u64;
            self.live.sketch(names::RUN_US).observe(run_us);
            self.live
                .window(names::DEGRADATIONS)
                .add_count(self.stats.degradations.len() as u64);
        }
        if self.flight.is_enabled() {
            self.flight.record(
                "run",
                if sample.is_some() { "run:sampled" } else { "run:full" },
                format!(
                    "tuples={} degradations={}",
                    result.as_ref().map(|t| t.len()).unwrap_or(0),
                    self.stats.degradations.len()
                ),
            );
        }
        result
    }

    /// The run proper: validate → unfold → order → per-rule
    /// compile/reuse/evaluate → merge. Factored out of [`Engine::run_inner`]
    /// so `?`-style early returns cannot skip the stats/span teardown.
    fn run_body(
        &mut self,
        prog: &Program,
        sample: Option<Sample>,
        run_span: SpanId,
    ) -> Result<Arc<CompactTable>, EngineError> {
        let pro = self.prologue(prog)?;
        let (unfolded, order, cenv) = (&pro.unfolded, &pro.order, pro.env());
        let sample_key = sample.map(|s| s.key()).unwrap_or_else(|| "full".into());
        let use_incr = self.limits.use_incremental;
        self.query_key = None;
        use std::hash::{Hash, Hasher};

        // Incremental pre-pass (DESIGN.md §9): fingerprint every rule —
        // once per run; `rule_fps` keeps them in rule order for the rule
        // loop — and record which intensional relations each relation
        // reads. Both feed the relation versions the cache keys carry.
        let mut fps: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut rule_fps: Vec<Vec<u64>> = Vec::with_capacity(order.len());
        let mut deps: BTreeMap<String, std::collections::BTreeSet<String>> = BTreeMap::new();
        for name in order {
            let in_order: Vec<u64> = unfolded
                .rules_for(name)
                .map(|r| crate::plan::rule_fingerprint(r, &cenv))
                .collect();
            let mut sorted = in_order.clone();
            sorted.sort_unstable();
            fps.insert(name.clone(), sorted);
            rule_fps.push(in_order);
            let reads: std::collections::BTreeSet<String> = unfolded
                .rules_for(name)
                .flat_map(|r| r.body.iter())
                .filter_map(|atom| match atom {
                    iflex_alog::BodyAtom::Pred { name: dep, .. }
                        if pro.int_arity.contains_key(dep) =>
                    {
                        Some(dep.clone())
                    }
                    _ => None,
                })
                .collect();
            deps.insert(name.clone(), reads);
        }

        let mut computed: BTreeMap<String, Arc<CompactTable>> = BTreeMap::new();
        // Derivational versions: a relation's version hashes its rules'
        // fingerprints and the versions of every intensional relation those
        // rules read, so a refinement upstream changes the *input version*
        // of every dependent rule — the cache misses on exactly the
        // dependency cone (the paper's reuse re-executes "the parts of the
        // plan that may possibly have changed", §5.2).
        let mut versions: BTreeMap<String, u64> = BTreeMap::new();

        for (name, rule_fps) in order.iter().zip(&rule_fps) {
            let rules: Vec<&Rule> = unfolded.rules_for(name).collect();
            let Some(first_rule) = rules.first() else {
                // evaluation_order only yields defined relations; guard
                // anyway rather than index.
                continue;
            };
            let cols: Vec<String> = first_rule
                .head
                .args
                .iter()
                .map(|a| a.var.clone())
                .collect();
            let mut version_hasher = std::collections::hash_map::DefaultHasher::new();
            if let Some(rule_fps) = fps.get(name) {
                rule_fps.hash(&mut version_hasher);
            }
            if let Some(reads) = deps.get(name) {
                for dep in reads {
                    if let Some(v) = versions.get(dep) {
                        dep.hash(&mut version_hasher);
                        v.hash(&mut version_hasher);
                    }
                }
            }
            versions.insert(name.clone(), version_hasher.finish());
            // Per-rule result fragments in rule order; merged below. The
            // enum keeps degraded stand-ins interleaved exactly where the
            // rule's real result would have been.
            enum Part {
                Table(Arc<CompactTable>),
                Widened(CompactTuple),
            }
            let mut parts: Vec<Part> = Vec::new();
            for (rule, &fp) in rules.into_iter().zip(rule_fps) {
                // The rule's input versions: what its intensional reads
                // currently are. Extensional inputs are covered by the
                // epoch (any `add_table` clears the cache outright).
                let mut input_hasher = std::collections::hash_map::DefaultHasher::new();
                for atom in &rule.body {
                    if let iflex_alog::BodyAtom::Pred { name: dep, .. } = atom {
                        if let Some(v) = versions.get(dep.as_str()) {
                            dep.hash(&mut input_hasher);
                            v.hash(&mut input_hasher);
                        }
                    }
                }
                let inputs = input_hasher.finish();
                if use_incr && name == &prog.query && rule_fps.len() == 1 {
                    self.query_key = Some((name.clone(), sample_key.clone(), fp, inputs));
                }
                // The cache lookup runs behind the same containment
                // boundary as evaluation: a fault at `engine.memo_lookup`
                // (or a panic during the lookup itself) degrades just this
                // rule rather than failing the run.
                let mut lookup_err: Option<EngineError> = None;
                if use_incr {
                    match self.rule_cache_lookup_guarded(name, &sample_key, fp, inputs) {
                        Ok(Some((hit, volume))) => {
                            self.counters.incr_hits.inc();
                            self.counters.assignments_produced.add(volume as u64);
                            if let Some((t, parent)) = self.tracer.ctx(run_span) {
                                t.instant(parent, SpanKind::Rule, &rule.to_string(), Some("cache_hit"));
                            }
                            parts.push(Part::Table(hit));
                            continue;
                        }
                        Ok(None) => self.counters.incr_misses.inc(),
                        Err(e) => lookup_err = Some(e),
                    }
                }
                let plan = compile_rule(rule, &cenv)?;
                self.counters.opt_fused_nodes.add(plan.fused_passes());
                let rule_span = match self.tracer.ctx(run_span) {
                    Some((t, parent)) => t.begin(parent, SpanKind::Rule, &rule.to_string()),
                    None => SpanId::NONE,
                };
                let before = self.counters.assignments_produced.get();
                let evaled = match lookup_err {
                    Some(e) => Err(e),
                    None => self.eval_rule_guarded(&plan, &computed, sample, rule_span),
                };
                match evaled {
                    Ok(result) => {
                        let volume = self
                            .counters
                            .assignments_produced
                            .get()
                            .saturating_sub(before) as usize;
                        self.counters.rules_evaluated.inc();
                        self.tracer
                            .end_with(rule_span, &[("tuples_out", result.len() as u64)]);
                        parts.push(Part::Table(Arc::clone(&result)));
                        if use_incr {
                            self.incr.insert(name, &sample_key, fp, inputs, result, volume);
                        }
                    }
                    Err(e) => {
                        let Some(cause) = degrade_cause(&e) else {
                            self.tracer.end(rule_span);
                            return Err(e);
                        };
                        // Graceful degradation: substitute a widened,
                        // superset-safe stand-in for this rule's result and
                        // record what happened. Degraded results are never
                        // cached — the next run retries the rule exactly.
                        self.counters.rules_evaluated.inc();
                        self.counters.degradations.inc();
                        // S3: if an armed fault fired since the last
                        // degradation, attribute this record to its site.
                        let site = self.fault.take_last_fired();
                        if let Some((t, parent)) = self.tracer.ctx(rule_span) {
                            let note = match site {
                                Some(s) => format!("{} @ {s}", cause.slug()),
                                None => cause.slug().to_string(),
                            };
                            t.instant(parent, SpanKind::Mark, "degradation", Some(&note));
                        }
                        self.tracer.end(rule_span);
                        if self.flight.is_enabled() {
                            self.flight.record(
                                "degradation",
                                rule.to_string(),
                                match site {
                                    Some(s) => format!("{} @ {s}", cause.slug()),
                                    None => cause.slug().to_string(),
                                },
                            );
                        }
                        self.stats.degradations.push(Degradation {
                            rule: rule.to_string(),
                            cause,
                            site: site.map(str::to_string),
                            truncated: e.to_string(),
                        });
                        parts.push(Part::Widened(self.widened_tuple(cols.len())));
                    }
                }
            }
            // Single exact rule whose result already has the head columns:
            // share its allocation instead of copying tuple by tuple (the
            // overwhelmingly common shape after unfolding).
            let table: Arc<CompactTable> = match parts.as_slice() {
                [Part::Table(t)] if t.columns() == cols.as_slice() => match parts.pop() {
                    Some(Part::Table(t)) => t,
                    _ => unreachable!("just matched a single-table part"),
                },
                _ => {
                    let mut merged = CompactTable::new(cols);
                    for part in parts {
                        match part {
                            Part::Table(t) => {
                                for tup in t.tuples() {
                                    merged.push(tup.clone());
                                }
                            }
                            Part::Widened(tup) => merged.push(tup),
                        }
                    }
                    Arc::new(merged)
                }
            };
            self.counters
                .assignments_produced
                .add(table.stats().assignments as u64);
            computed.insert(name.clone(), table);
        }

        computed
            .remove(&prog.query)
            .ok_or_else(|| EngineError::MissingTable(prog.query.clone()))
    }

    /// Looks up a rule's result in the incremental rule cache behind the
    /// fault-containment boundary: the [`fault::site::MEMO_LOOKUP`]
    /// injection site fires here, and a panic raised during the lookup is
    /// caught and converted into [`EngineError::RulePanic`] — a corrupted
    /// or faulted shared cache degrades one rule, never the run or the
    /// process.
    fn rule_cache_lookup_guarded(
        &mut self,
        rel: &str,
        sample_key: &str,
        fp: u64,
        inputs: u64,
    ) -> Result<Option<(Arc<CompactTable>, usize)>, EngineError> {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(f) = self.fault.hit(fault::site::MEMO_LOOKUP) {
                return Err(injected(f));
            }
            Ok(self.incr.get(rel, sample_key, fp, inputs))
        }));
        match caught {
            Ok(res) => res,
            Err(payload) => Err(EngineError::RulePanic(panic_message(payload.as_ref()))),
        }
    }

    /// Evaluates one rule's plan behind the fault-containment boundary:
    /// injected faults fire first, the run clock is consulted, and any
    /// panic raised during evaluation is caught and converted into
    /// [`EngineError::RulePanic`] — the process never aborts on a bad rule.
    fn eval_rule_guarded(
        &mut self,
        plan: &Plan,
        computed: &BTreeMap<String, Arc<CompactTable>>,
        sample: Option<Sample>,
        rule_span: SpanId,
    ) -> Result<Arc<CompactTable>, EngineError> {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(f) = self.fault.hit(fault::site::EVAL_RULE) {
                return Err(injected(f));
            }
            self.clock.check().map_err(EngineError::from)?;
            self.eval_plan(plan, computed, sample, rule_span)
        }));
        match caught {
            Ok(res) => res,
            Err(payload) => Err(EngineError::RulePanic(panic_message(payload.as_ref()))),
        }
    }

    /// The superset-safe stand-in for a degraded rule: one `maybe` tuple
    /// whose every cell covers any token-aligned sub-span of any input
    /// document. Every extraction-derived value the exact evaluation could
    /// have produced is therefore still encoded (widening is lossy only
    /// for values never drawn from the corpus, e.g. pure numeric
    /// constants).
    fn widened_tuple(&self, arity: usize) -> CompactTuple {
        let assigns: Vec<Assignment> = self
            .store
            .iter()
            .map(|doc| Assignment::Contain(doc.full_span()))
            .collect();
        CompactTuple {
            cells: vec![Cell::of(assigns); arity],
            maybe: true,
        }
    }

    /// Evaluates one plan fragment bottom-up. Results are
    /// reference-counted so scans of cached/extensional tables are free
    /// and per-tuple operators can fan out over shared inputs.
    ///
    /// This wrapper owns the per-operator observability: it opens an
    /// `operator` span under `parent` (a static name — nothing is
    /// formatted when tracing is off) and closes it with the node's output
    /// tuples. The cost is per plan *node*, not per tuple, so the
    /// disabled path is a relaxed atomic load per operator.
    fn eval_plan(
        &mut self,
        plan: &Plan,
        computed: &BTreeMap<String, Arc<CompactTable>>,
        sample: Option<Sample>,
        parent: SpanId,
    ) -> Result<Arc<CompactTable>, EngineError> {
        self.clock.tick().map_err(EngineError::from)?;
        let span = self
            .tracer
            .begin(parent, SpanKind::Operator, OP_NAMES[op_idx(plan)]);
        let result = self.eval_plan_inner(plan, computed, sample, span);
        match &result {
            Ok(t) => self.tracer.end_with(span, &[("tuples_out", t.len() as u64)]),
            Err(_) => self.tracer.end(span),
        }
        result
    }

    fn eval_plan_inner(
        &mut self,
        plan: &Plan,
        computed: &BTreeMap<String, Arc<CompactTable>>,
        sample: Option<Sample>,
        span: SpanId,
    ) -> Result<Arc<CompactTable>, EngineError> {
        match plan {
            Plan::ScanExt { name } => {
                let t = self
                    .ext
                    .get(name)
                    .ok_or_else(|| EngineError::MissingTable(name.clone()))?;
                self.counters.tuples_scanned.add(t.len() as u64);
                Ok(match sample {
                    Some(s) => Arc::new(s.apply(t)),
                    None => Arc::clone(t),
                })
            }
            Plan::ScanRel { name } => computed
                .get(name)
                .cloned()
                .ok_or_else(|| EngineError::MissingTable(name.clone())),
            Plan::GenerateProc {
                input,
                name,
                in_cols,
                out_arity,
            } => {
                let t = self.eval_plan(input, computed, sample, span)?;
                let Some(Procedure::Generator { out_arity: oa, f }) = self.procs.get(name) else {
                    return Err(EngineError::BadProcedure(name.clone()));
                };
                debug_assert_eq!(oa, out_arity);
                let f = f.clone();
                let out_arity = *out_arity;
                let mut cols = t.columns().to_vec();
                cols.extend((0..out_arity).map(|k| format!("_g{}", t.arity() + k)));
                let mr = {
                    let ec = self.eval_ctx();
                    let name = name.clone();
                    let in_cols = in_cols.clone();
                    let t = Arc::clone(&t);
                    crate::par::scatter(&self.section_ctx(span), t.len(), move |range| {
                        let store: &DocumentStore = &ec.store;
                        let mut out = Vec::new();
                        // Enumeration slots (the column each reads) and the
                        // slot each argument takes, rebuilt per row.
                        let mut slot_col: Vec<usize> = Vec::new();
                        let mut arg_slot: Vec<usize> = Vec::new();
                        for tup in &t.tuples()[range] {
                            if let Some(f) = ec.fault.hit(fault::site::GENERATOR) {
                                return Err(injected(f));
                            }
                            // An empty expansion cell stands for no row (§3).
                            if tup.cells.iter().any(|c| c.is_expand() && c.is_empty()) {
                                continue;
                            }
                            // Only the input cells are enumerated; every other
                            // cell, expansion cells included, passes through.
                            // Choosing a value of an expansion cell picks one
                            // of the rows it stands for, so arguments naming
                            // the same expansion column share one slot; each
                            // argument over a plain cell is its own slot.
                            slot_col.clear();
                            arg_slot.clear();
                            for &c in &in_cols {
                                let shared = tup.cells[c]
                                    .is_expand()
                                    .then(|| slot_col.iter().position(|&x| x == c))
                                    .flatten();
                                arg_slot.push(shared.unwrap_or_else(|| {
                                    slot_col.push(c);
                                    slot_col.len() - 1
                                }));
                            }
                            let sets: Vec<Vec<Value>> = slot_col
                                .iter()
                                .map(|&c| tup.cells[c].value_set(store).into_iter().collect())
                                .collect();
                            // Two bounds, both `combo_cap`: the values of the
                            // expansion inputs (one row each), and the plain
                            // inputs' combinations per such row.
                            let (mut rows, mut combos) = (1u64, 1u64);
                            for (&c, s) in slot_col.iter().zip(&sets) {
                                let n = if tup.cells[c].is_expand() {
                                    &mut rows
                                } else {
                                    &mut combos
                                };
                                *n = n.saturating_mul(s.len() as u64);
                            }
                            if rows > COMBO_CAP || combos > COMBO_CAP {
                                return Err(EngineError::TooLarge(format!(
                                    "input enumeration in generator {name}"
                                )));
                            }
                            if rows == 0 || combos == 0 {
                                continue;
                            }
                            // An expanded row is as certain as the compact
                            // one; a choice among a plain cell's values is not.
                            let maybe = tup.maybe || combos > 1;
                            let mut idx = vec![0usize; sets.len()];
                            loop {
                                ec.clock.tick().map_err(EngineError::from)?;
                                let args: Vec<Value> =
                                    arg_slot.iter().map(|&j| sets[j][idx[j]].clone()).collect();
                                for row in f(store, &args) {
                                    if row.len() != out_arity {
                                        return Err(EngineError::BadProcedure(format!(
                                            "{name}: returned arity {} != {out_arity}",
                                            row.len()
                                        )));
                                    }
                                    let mut cells = Vec::with_capacity(tup.arity() + out_arity);
                                    cells.extend_from_slice(&tup.cells);
                                    for (j, &c) in slot_col.iter().enumerate() {
                                        if cells[c].is_expand() {
                                            cells[c] = Cell::exact(sets[j][idx[j]].clone());
                                        }
                                    }
                                    cells.extend(row.into_iter().map(Cell::exact));
                                    out.push(CompactTuple { cells, maybe });
                                }
                                // odometer
                                let mut k = sets.len();
                                let mut done = sets.is_empty();
                                while k > 0 {
                                    k -= 1;
                                    idx[k] += 1;
                                    if idx[k] < sets[k].len() {
                                        break;
                                    }
                                    idx[k] = 0;
                                    if k == 0 {
                                        done = true;
                                    }
                                }
                                if done {
                                    break;
                                }
                            }
                        }
                        Ok(out)
                    })
                };
                self.note_section(&mr.stats);
                let mut out = CompactTable::new(cols);
                for tup in mr.merge()? {
                    out.push(tup);
                }
                Ok(Arc::new(out))
            }
            // A cross join is a pass with no steps over itself: every
            // pair survives.
            Plan::CrossJoin { .. } => {
                self.eval_pass(plan, &[], None, computed, sample, span)
            }
            Plan::Annotate {
                input,
                existence,
                annotated,
            } => {
                let t = self.eval_plan(input, computed, sample, span)?;
                if let Some(f) = self.fault.hit(fault::site::ANNOTATE) {
                    return Err(injected(f));
                }
                // ψ consumes its input; unshare only when another owner
                // (ext table / reuse cache) still references it.
                let t = Arc::try_unwrap(t).unwrap_or_else(|shared| (*shared).clone());
                // Past the deadline the ψ operator skips the a-table
                // conversion for the cheap compact-direct path (still
                // superset-preserving).
                let budget = (!self.clock.tripped()).then_some(ATABLE_BUDGET);
                Ok(Arc::new(apply_annotations(
                    t,
                    *existence,
                    annotated,
                    &self.store,
                    budget,
                )))
            }
            Plan::Pass {
                input,
                steps,
                project,
            } => self.eval_pass(
                input,
                steps,
                project.as_ref().map(|(cols, names)| (cols.as_slice(), names.as_slice())),
                computed,
                sample,
                span,
            ),
        }
    }

    /// Records a morsel section in the metrics registry: bumps
    /// `engine.par_sections` when the section actually fanned out, adds
    /// the morsel / steal / dispense totals, and accumulates
    /// per-participant busy time into the indexed
    /// `engine.shard_busy_us.<i>` counters. The registry resets at the
    /// start of every run, so these describe one run.
    pub(crate) fn note_section(&self, stats: &crate::par::SectionStats) {
        if stats.went_parallel {
            self.counters.par_sections.inc();
        }
        self.counters.par_morsels.add(stats.morsels);
        self.counters.par_steals.add(stats.steals);
        self.counters.par_dispense_us.add(stats.dispense_us);
        let live = self.live.is_enabled();
        for (i, us) in stats.busy_micros.iter().enumerate() {
            self.metrics
                .counter(&format!("{}{}", names::SHARD_BUSY_PREFIX, i))
                .add(*us);
            // Windowed companion (ROADMAP item 2: imbalance over the last
            // few seconds is what a scheduler can act on, not lifetime
            // sums).
            if live {
                self.live.shard_busy(i).observe(*us);
            }
        }
    }

    /// Snapshots the engine's shared read-only handles for use inside a
    /// `'static` morsel closure. Pool workers outlive any one operator's
    /// stack frame, so per-tuple bodies cannot borrow `&Engine` — they
    /// capture an [`EvalCtx`] by value instead (all handles are `Arc`s or
    /// `Copy`, so a snapshot is a few refcount bumps).
    pub(crate) fn eval_ctx(&self) -> EvalCtx {
        EvalCtx {
            store: Arc::clone(&self.store),
            clock: Arc::clone(&self.clock),
            fault: Arc::clone(&self.fault),
        }
    }

    /// The morsel-scatter context for one operator section under `span`:
    /// the run's pool, the configured morsel bounds, and the handles the
    /// dispenser itself needs (cooperative clock, steal-site fault probe,
    /// per-morsel tracing).
    pub(crate) fn section_ctx(&self, span: SpanId) -> crate::par::SectionCtx<'_> {
        crate::par::SectionCtx {
            pool: self.pool.as_ref(),
            cfg: crate::par::MorselCfg {
                min: self.limits.morsel_tuples.0,
                max: self.limits.morsel_tuples.1,
            },
            clock: Some(Arc::clone(&self.clock)),
            fault: Some((*self.fault).clone()),
            trace: self.tracer.ctx(span).map(|(t, s)| (t.clone(), s)),
        }
    }

    /// Resolves a pass once per operator: each filter step's procedure,
    /// each constraint step's features, and — for a pass over the pairs
    /// of a join's two tables — the [`SimStep`]s of [`Pass::profiled`].
    /// An unregistered feature fails here, with the error its first row
    /// would raise.
    pub(crate) fn resolve_pass(
        &self,
        ops: &[FusedOp],
        project: Option<(&[usize], &[String])>,
        join: Option<(&CompactTable, &CompactTable)>,
    ) -> Result<Pass, EngineError> {
        let mut steps = Vec::with_capacity(ops.len());
        for op in ops {
            let (filter, chain) = match op {
                FusedOp::FilterProc { name, .. } => match self.procs.get(name) {
                    Some(Procedure::Filter(f)) => (Some(f.clone()), None),
                    _ => return Err(EngineError::BadProcedure(name.clone())),
                },
                FusedOp::Constraint {
                    constraint, priors, ..
                } => {
                    let chain = Chain::resolve(constraint, priors, &self.features)?;
                    (None, Some(chain))
                }
                _ => (None, None),
            };
            steps.push(Step {
                op: op.clone(),
                filter,
                chain,
                sim: None,
            });
        }
        let pass = Pass {
            steps,
            extracts: extracts(ops),
            proj: project.map(|(cols, _)| cols.to_vec()),
        };
        Ok(match join {
            Some((l, r)) => pass.profiled(l, r, &self.store, &[]),
            None => pass,
        })
    }

    /// The one σ/π/× evaluator: a [`Plan::Pass`] and a [`Plan::CrossJoin`]
    /// (no steps over itself) both execute as one streaming pass that
    /// sends each row through [`EvalCtx::pass_row`] —
    /// per *pair* when `input` is a cross join, whose product is then
    /// never materialized — so no intermediate table exists per step.
    fn eval_pass(
        &mut self,
        input: &Plan,
        ops: &[FusedOp],
        project: Option<(&[usize], &[String])>,
        computed: &BTreeMap<String, Arc<CompactTable>>,
        sample: Option<Sample>,
        span: SpanId,
    ) -> Result<Arc<CompactTable>, EngineError> {
        if let Plan::CrossJoin { left, right } = input {
            let l = self.eval_plan(left, computed, sample, span)?;
            let r = self.eval_plan(right, computed, sample, span)?;
            let pass = self.resolve_pass(ops, project, Some((&l, &r)))?;
            return self.pass_over_pairs(l, r, pass, project, span);
        }

        let pass = self.resolve_pass(ops, project, None)?;
        let t = self.eval_plan(input, computed, sample, span)?;
        let out_cols = pass.columns(t.columns().to_vec(), project);
        let rows = self.table_rows(t, pass, span)?;
        let rows = rows.into_iter().map(|(_, tup, volume)| (tup, volume));
        self.pass_table(out_cols, rows, usize::MAX, project.is_some())
    }

    /// Every row of `t` through `pass`, in order: each survivor with its
    /// row index in `t` and its volume.
    pub(crate) fn table_rows(
        &mut self,
        t: Arc<CompactTable>,
        pass: Pass,
        span: SpanId,
    ) -> Result<Vec<(usize, CompactTuple, u64)>, EngineError> {
        let mr = {
            let ec = self.eval_ctx();
            crate::par::scatter(&self.section_ctx(span), t.len(), move |range| {
                let mut overlay = vec![None; t.arity() + pass.extracts];
                let mut out = Vec::new();
                for i in range {
                    let tup = &t.tuples()[i];
                    ec.clock.tick().map_err(EngineError::from)?;
                    let row = ec.pass_row(&pass, &tup.cells, &[], None, &mut overlay)?;
                    if let Some((cells, extra, volume)) = row {
                        let maybe = tup.maybe || extra;
                        out.push((i, CompactTuple { cells, maybe }, volume));
                    }
                }
                Ok(out)
            })
        };
        self.note_section(&mr.stats);
        mr.merge()
    }

    /// A pass's output table from its surviving rows and their volumes:
    /// refused past `cap` rows, the volume added to the convergence
    /// signal when the pass projects — a rule's π is where §5.1's
    /// "assignments produced by the extraction process" are counted.
    fn pass_table(
        &self,
        cols: Vec<String>,
        rows: impl IntoIterator<Item = (CompactTuple, u64)>,
        cap: usize,
        projects: bool,
    ) -> Result<Arc<CompactTable>, EngineError> {
        let mut out = CompactTable::new(cols);
        let mut volume = 0u64;
        for (tup, v) in rows {
            if out.len() >= cap {
                return Err(EngineError::TooLarge("join result".into()));
            }
            volume = volume.saturating_add(v);
            out.push(tup);
        }
        if projects {
            self.counters.assignments_produced.add(volume);
        }
        Ok(Arc::new(out))
    }

    /// The pairwise mode of [`Engine::eval_pass`] over two already
    /// evaluated join inputs: [`Engine::pair_rows`], built into a table.
    fn pass_over_pairs(
        &mut self,
        l: Arc<CompactTable>,
        r: Arc<CompactTable>,
        pass: Pass,
        project: Option<(&[usize], &[String])>,
        span: SpanId,
    ) -> Result<Arc<CompactTable>, EngineError> {
        let in_cols = l.columns().iter().chain(r.columns()).cloned().collect();
        let out_cols = pass.columns(in_cols, project);
        let rows = self.pair_rows(l, r, pass, span)?;
        let cap = self.limits.max_result_tuples;
        let rows = rows.into_iter().map(|(_, tup, volume)| (tup, volume));
        self.pass_table(out_cols, rows, cap, project.is_some())
    }

    /// Every pair of `l` × `r` through `pass`: pairs are sent through the
    /// pass as they are generated, left-major, and only survivors are
    /// built, each with its (left, right) row indices and its volume. The
    /// morsels shard the pair index rather than a side, so output needs
    /// no reordering and a join with one row on a side still spreads over
    /// the pool.
    pub(crate) fn pair_rows(
        &mut self,
        l: Arc<CompactTable>,
        r: Arc<CompactTable>,
        pass: Pass,
        span: SpanId,
    ) -> Result<Vec<PairRow>, EngineError> {
        let cap = self.limits.max_result_tuples;
        let pairs = l.len() * r.len();
        // The dispenser packs index ranges into u32: past that many pairs,
        // one index stands for a block of consecutive pairs.
        let block = pairs.div_ceil(u32::MAX as usize - 1).max(1);
        let indices = pairs.div_ceil(block);
        let mr = {
            let ec = self.eval_ctx();
            crate::par::scatter(&self.section_ctx(span), indices, move |range| {
                let mut overlay = vec![None; l.arity() + r.arity() + pass.extracts];
                let mut out: Vec<PairRow> = Vec::new();
                for p in range.start * block..pairs.min(range.end * block) {
                    let (li, ri) = (p / r.len(), p % r.len());
                    let (lt, rt) = (&l.tuples()[li], &r.tuples()[ri]);
                    ec.clock.tick().map_err(EngineError::from)?;
                    if let Some(f) = ec.fault.hit(fault::site::JOIN_TUPLE) {
                        return Err(injected(f));
                    }
                    let pair = Some((li, ri));
                    let Some((cells, extra, volume)) =
                        ec.pass_row(&pass, &lt.cells, &rt.cells, pair, &mut overlay)?
                    else {
                        continue;
                    };
                    // Per-morsel heuristic; the authoritative cap check
                    // is `pass_table`'s, over the merged rows.
                    if out.len() >= cap {
                        return Err(EngineError::TooLarge("join result".into()));
                    }
                    let maybe = lt.maybe || rt.maybe || extra;
                    out.push(((li, ri), CompactTuple { cells, maybe }, volume));
                }
                Ok(out)
            })
        };
        self.note_section(&mr.stats);
        mr.merge()
    }
}

/// A row of [`Engine::pair_rows`]: its (left, right) row indices, the
/// row, and its volume.
pub(crate) type PairRow = ((usize, usize), CompactTuple, u64);

/// What [`Engine::prologue`] hands a run or an EXPLAIN.
pub(crate) struct Prologue {
    pub(crate) unfolded: Program,
    order: Vec<String>,
    ext_arity: BTreeMap<String, usize>,
    int_arity: BTreeMap<String, usize>,
    proc_sigs: Arc<BTreeMap<String, (bool, usize)>>,
}

impl Prologue {
    /// The compiler's view of the program's predicates.
    pub(crate) fn env(&self) -> CompileEnv<'_> {
        CompileEnv {
            extensional: &self.ext_arity,
            intensional: &self.int_arity,
            procedures: &self.proc_sigs,
        }
    }
}

/// One pass as [`Engine::resolve_pass`] prepares it for the morsel
/// closures: steps in application order, how many columns they define,
/// and the trailing projection's columns.
pub(crate) struct Pass {
    steps: Vec<Step>,
    /// How many columns the steps define.
    pub(crate) extracts: usize,
    proj: Option<Vec<usize>>,
}

impl Pass {
    /// The steps that read per-row profiles in a pass over the pairs of
    /// a join whose left input has `la` columns, as (step, left column,
    /// right column): each built-in straddling `similar`
    /// ([`FusedOp::similar_cols`]) whose columns no earlier step defines
    /// or refines. The step's position picks the approximation, and this
    /// test is where the two meet (DESIGN.md §11): first in the pass
    /// (step 0) it is the token prefilter, anywhere else the
    /// candidate-value enumeration.
    pub(crate) fn sim_steps(&self, la: usize) -> Vec<(usize, usize, usize)> {
        let mut written = Vec::new();
        let mut out = Vec::new();
        for (i, step) in self.steps.iter().enumerate() {
            if let Some(f) = &step.filter {
                let cols = step.op.similar_cols(la).filter(|&(lc, rc)| {
                    !written.contains(&lc) && !written.contains(&(la + rc))
                });
                if let (true, Some((lc, rc))) = (crate::pfunc::is_builtin_similar(f), cols) {
                    out.push((i, lc, rc));
                }
            }
            if let FusedOp::Extract { col, .. } | FusedOp::Constraint { col, .. } = &step.op {
                written.push(*col);
            }
        }
        out
    }

    /// The pass over the pairs of `l` × `r`, each of its
    /// [`Pass::sim_steps`] with a [`SimStep`]: both sides' columns
    /// profiled once per distinct cell, except the cells `seeds` (by
    /// step) profiled already. A profile depends on its cell alone, so a
    /// pass profiled over some of a join's rows decides their pairs as
    /// one profiled over all of them.
    pub(crate) fn profiled(
        &self,
        l: &CompactTable,
        r: &CompactTable,
        store: &DocumentStore,
        seeds: &[Option<SimSeed>],
    ) -> Pass {
        let mut sims: Vec<Option<SimStep>> = self.steps.iter().map(|_| None).collect();
        for (i, lc, rc) in self.sim_steps(l.arity()) {
            let seed = seeds.get(i).and_then(Option::as_ref);
            sims[i] = Some(SimStep::new(i == 0, (l, lc), (r, rc), store, ENUM_CAP, seed));
        }
        let steps = self.steps.iter().zip(sims).map(|(step, sim)| Step {
            op: step.op.clone(),
            filter: step.filter.clone(),
            chain: step.chain.clone(),
            sim,
        });
        Pass {
            steps: steps.collect(),
            extracts: self.extracts,
            proj: self.proj.clone(),
        }
    }

    /// The output's column names: the projection's, else the input's
    /// followed by `_f<i>` for each column the pass defines.
    pub(crate) fn columns(
        &self,
        mut cols: Vec<String>,
        proj: Option<(&[usize], &[String])>,
    ) -> Vec<String> {
        if let Some((_, names)) = proj {
            return names.to_vec();
        }
        let n = cols.len();
        cols.extend((n..n + self.extracts).map(|c| format!("_f{c}")));
        cols
    }
}

/// One selection step with what evaluating it per row needs.
struct Step {
    op: FusedOp,
    /// A filter step's procedure.
    filter: Option<crate::pfunc::FilterFn>,
    /// A constraint step's `Verify`/`Refine` chain, its features looked
    /// up once per pass. Its kernel verifies an input exact value against
    /// the step's own constraint only, an exact value that `Refine(k)`
    /// returned against every constraint but `k`, and runs the §4.2
    /// worklist, whose round cap counts `Refine` calls only, just for
    /// mixed cells and regions that carry priors.
    chain: Option<Chain>,
    /// A built-in `similar` step's per-row profiles of a join's two
    /// sides, which it reads instead of calling `filter`.
    sim: Option<SimStep>,
}

/// Everything an operator's per-tuple body needs from the engine, as
/// owned (`Arc`-shared) handles. Morsel closures run on the run's
/// worker pool, whose threads outlive any one operator's stack frame —
/// so the bodies capture this snapshot by value instead of borrowing
/// `&Engine`. All handles alias the engine's own (the clock and fault
/// plan share state with the engine that built the snapshot).
#[derive(Clone)]
pub(crate) struct EvalCtx {
    pub(crate) store: Arc<DocumentStore>,
    pub(crate) clock: Arc<RunClock>,
    pub(crate) fault: Arc<FaultPlan>,
}

impl EvalCtx {
    /// A comparison operand's candidate values: a constant as itself, a
    /// column through `cell` (how the caller reaches its cells — a built
    /// tuple, a fused pass's cell slice, a join pair's borrowed cells).
    fn operand_cands<'a>(&self, op: &Operand, cell: impl Fn(usize) -> &'a Cell) -> Cands {
        match op {
            Operand::Col(c) => candidates_budgeted(
                cell(*c),
                &self.store,
                CMP_ENUM_CAP,
                self.clock.tripped(),
            ),
            Operand::Const(v) => Cands::Full(vec![v.clone()]),
        }
    }

    /// One row through one pass — the only place a step is evaluated.
    /// The input cells are read where they are (`left` then `right`: a
    /// table row and nothing, or the two halves of a join pair, whose row
    /// indices `pair` locates a [`SimStep`]'s profiles by); a cell a
    /// constraint refines or a `from` step defines goes to `overlay` (the
    /// caller's per-morsel scratch, one slot per column of the pass's
    /// schema), and output cells are built only for a row that survives
    /// every step. Returns the output cells, whether a may-but-not-must
    /// step widened the row (`maybe |=` at emission — never the input
    /// row's own flag, which the caller ORs in), and the row's
    /// pre-projection convergence volume; `None` when a step drops it.
    pub(crate) fn pass_row(
        &self,
        pass: &Pass,
        left: &[Cell],
        right: &[Cell],
        pair: Option<(usize, usize)>,
        overlay: &mut [Option<Cell>],
    ) -> Result<Option<(Vec<Cell>, bool, u64)>, EngineError> {
        fn cell<'a>(o: &'a [Option<Cell>], l: &'a [Cell], r: &'a [Cell], c: usize) -> &'a Cell {
            match &o[c] {
                Some(refined) => refined,
                None if c < l.len() => &l[c],
                None => &r[c - l.len()],
            }
        }
        overlay.fill(None);
        let mut extra = false;
        for step in &pass.steps {
            let mm = match &step.op {
                FusedOp::Extract { src, col } => {
                    let spans = cell(overlay, left, right, *src).assignments().iter();
                    let assigns: Vec<Assignment> = spans
                        .filter_map(|a| a.span().map(Assignment::Contain))
                        .collect();
                    if assigns.is_empty() {
                        return Ok(None); // nothing to extract from
                    }
                    overlay[*col] = Some(Cell::expansion(assigns));
                    continue;
                }
                FusedOp::Constraint { col, .. } => {
                    let chain = step.chain.as_ref().expect("a resolved chain");
                    let refined = chain.apply(cell(overlay, left, right, *col), &self.store)?;
                    if refined.is_empty() {
                        return Ok(None);
                    }
                    overlay[*col] = Some(refined);
                    continue;
                }
                FusedOp::Compare {
                    left: lhs,
                    op,
                    right: rhs,
                    offset,
                } => {
                    let lc = self.operand_cands(lhs, |c| cell(overlay, left, right, c));
                    let rc = shift_cands(
                        self.operand_cands(rhs, |c| cell(overlay, left, right, c)),
                        *offset,
                        &self.store,
                    );
                    compare_cands(&lc, *op, &rc, &self.store)
                }
                FusedOp::VarUnify { col_a, col_b } => cells_may_equal(
                    cell(overlay, left, right, *col_a),
                    cell(overlay, left, right, *col_b),
                    &self.store,
                    CMP_ENUM_CAP,
                ),
                FusedOp::FilterProc { name, cols } => match (&step.sim, pair) {
                    (Some(sim), Some((li, ri))) => {
                        sim.eval(li, ri, self.clock.tripped(), COMBO_CAP)
                    }
                    _ => {
                        let f = step
                            .filter
                            .as_ref()
                            .ok_or_else(|| EngineError::BadProcedure(name.clone()))?;
                        let cands: Vec<Cands> = cols
                            .iter()
                            .map(|&c| {
                                candidates_budgeted(
                                    cell(overlay, left, right, c),
                                    &self.store,
                                    ENUM_CAP,
                                    self.clock.tripped(),
                                )
                            })
                            .collect();
                        filter_cands(
                            &cands,
                            &|args: &[Value]| f(&self.store, args),
                            COMBO_CAP,
                        )
                    }
                },
            };
            if !mm.may {
                return Ok(None);
            }
            extra |= !mm.must;
        }
        Ok(Some(match &pass.proj {
            Some(cols) => {
                // The convergence monitor watches assignments "produced by
                // the extraction process" (§5.1) — measure extraction
                // volume before projection hides refined-but-unprojected
                // attributes.
                let volume = (0..overlay.len()).fold(0u64, |acc, c| {
                    let count = cell(overlay, left, right, c).value_count(&self.store);
                    acc.saturating_add(count.min(1 << 20))
                });
                let cells = cols.iter().map(|&c| cell(overlay, left, right, c).clone());
                (cells.collect(), extra, volume)
            }
            None => {
                let n = left.len();
                let cells = overlay.iter_mut().enumerate().map(|(c, o)| {
                    o.take()
                        .unwrap_or_else(|| if c < n { &left[c] } else { &right[c - n] }.clone())
                });
                (cells.collect(), extra, 0)
            }
        }))
    }
}

/// Adds a constant offset to the numeric values of a candidate set (the
/// `+ n` arithmetic of comparisons). Non-numeric values pass through —
/// they cannot satisfy an arithmetic comparison anyway.
fn shift_cands(c: Cands, offset: f64, store: &DocumentStore) -> Cands {
    if offset == 0.0 {
        return c;
    }
    let map = |vals: Vec<Value>| -> Vec<Value> {
        vals.into_iter()
            .map(|v| match v.as_num(store) {
                Some(n) => Value::Num(n + offset),
                None => v,
            })
            .collect()
    };
    match c {
        Cands::Full(v) => Cands::Full(map(v)),
        Cands::NumericOnly(v) => Cands::NumericOnly(map(v)),
        Cands::Unknown => Cands::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Trigger;
    use iflex_alog::parse_program;

    /// Builds a store with the Figure 1 example pages and an engine over it.
    fn example_engine() -> (Engine, Vec<DocId>, Vec<DocId>) {
        let mut store = DocumentStore::new();
        let x1 = store.add_markup(
            "<title>$351,000</title>Cozy house on quiet street. 5146 Windsor Ave., Champaign \
             <b>Sqft: 2750</b> High school: <i>Vanhise High</i> price 351000",
        );
        let x2 = store.add_markup(
            "<title>$619,000</title>Amazing house in great location. 3112 Stonecreek Blvd., \
             Cherry Hills <b>Sqft: 4700</b> High school: <i>Basktall HS</i> price 619000",
        );
        let y1 = store.add_markup(
            "<h2>Top High Schools and Location (page 1)</h2><b>Basktall</b>, Cherry Hills \
             <b>Franklin</b>, Robeson <b>Vanhise</b>, Champaign",
        );
        let y2 = store.add_markup(
            "<h2>Top High Schools and Location (page 2)</h2><b>Hoover</b>, Akron \
             <b>Ossage</b>, Lynneville",
        );
        let store = Arc::new(store);
        let mut eng = Engine::new(store);
        eng.add_doc_table("housePages", &[x1, x2]);
        eng.add_doc_table("schoolPages", &[y1, y2]);
        (eng, vec![x1, x2], vec![y1, y2])
    }

    #[test]
    fn numeric_extraction_on_figure1() {
        let (mut eng, _, _) = example_engine();
        let prog = parse_program(
            r#"
            houses(x, p) :- housePages(x), extractPrice(#x, p).
            extractPrice(#x, p) :- from(#x, p), numeric(p) = yes.
        "#,
        )
        .unwrap();
        let out = eng.run(&prog).unwrap();
        // one tuple per house page, p an expansion cell over its numbers
        assert_eq!(out.len(), 2);
        let store = eng.store();
        for t in out.tuples() {
            assert!(t.cells[1].is_expand());
            assert!(t.cells[1].value_count(store) >= 3);
        }
    }

    #[test]
    fn comparison_prunes_pages() {
        // Example 1.1: only pages with a number above 500000 survive.
        let (mut eng, _, _) = example_engine();
        let prog = parse_program(
            r#"
            big(x, p) :- housePages(x), extractPrice(#x, p), p > 500000.
            extractPrice(#x, p) :- from(#x, p), numeric(p) = yes.
        "#,
        )
        .unwrap();
        let out = eng.run(&prog).unwrap();
        assert_eq!(out.len(), 1);
        // the kept tuple is maybe (not all candidate prices exceed 500000)
        assert!(out.tuples()[0].maybe);
    }

    #[test]
    fn full_figure2_pipeline() {
        let (mut eng, _, _) = example_engine();
        let prog = parse_program(
            r#"
            houses(x, <p>, <a>, <h>) :- housePages(x), extractHouses(#x, p, a, h).
            schools(s)? :- schoolPages(y), extractSchools(#y, s).
            Q(x, p, a, h) :- houses(x, p, a, h), schools(s), p > 500000,
                             a > 4500, approxMatch(#h, #s).
            extractHouses(#x, p, a, h) :- from(#x, p), from(#x, a), from(#x, h),
                                          numeric(p) = yes, numeric(a) = yes,
                                          italic-font(h) = yes.
            extractSchools(#y, s) :- from(#y, s), bold-font(s) = yes.
        "#,
        )
        .unwrap();
        let out = eng.run(&prog).unwrap();
        // Only house x2 (619000 / 4700 / "Basktall HS") can satisfy Q.
        assert!(!out.is_empty());
        let store = eng.store();
        for t in out.tuples() {
            let h_vals = t.cells[3].value_set(store);
            assert!(h_vals
                .iter()
                .any(|v| v.as_text(store).contains("Basktall")));
        }
    }

    #[test]
    fn existence_annotation_propagates() {
        let (mut eng, _, _) = example_engine();
        let prog = parse_program(
            r#"
            schools(s)? :- schoolPages(y), extractSchools(#y, s).
            extractSchools(#y, s) :- from(#y, s), bold-font(s) = yes.
        "#,
        )
        .unwrap();
        let out = eng.run(&prog).unwrap();
        assert!(out.tuples().iter().all(|t| t.maybe));
    }

    #[test]
    fn reuse_cache_hits_on_second_run() {
        let (mut eng, _, _) = example_engine();
        let prog = parse_program(
            r#"
            houses(x, p) :- housePages(x), extractPrice(#x, p).
            extractPrice(#x, p) :- from(#x, p), numeric(p) = yes.
        "#,
        )
        .unwrap();
        eng.run(&prog).unwrap();
        assert_eq!(eng.stats.incr_hits, 0);
        eng.run(&prog).unwrap();
        assert!(eng.stats.incr_hits >= 1);
        assert_eq!(eng.stats.rules_evaluated, 0);
    }

    #[test]
    fn refined_rule_recomputes_only_changed_rule() {
        let (mut eng, _, _) = example_engine();
        let p1 = parse_program(
            r#"
            houses(x, p) :- housePages(x), extractPrice(#x, p).
            other(y) :- schoolPages(y).
            extractPrice(#x, p) :- from(#x, p), numeric(p) = yes.
        "#,
        )
        .unwrap();
        eng.run(&p1).unwrap();
        let p2 = parse_program(
            r#"
            houses(x, p) :- housePages(x), extractPrice(#x, p).
            other(y) :- schoolPages(y).
            extractPrice(#x, p) :- from(#x, p), numeric(p) = yes, min-value(p) = 1000.
        "#,
        )
        .unwrap();
        eng.run(&p2).unwrap();
        // `other` is unchanged → cache hit; `houses` changed → recomputed.
        assert_eq!(eng.stats.incr_hits, 1);
        assert_eq!(eng.stats.rules_evaluated, 1);
    }

    #[test]
    fn upstream_refinement_invalidates_dependent_cache() {
        // Regression: rule Q is unchanged between runs, but its input
        // relation `houses` gains a constraint — Q must be recomputed.
        let (mut eng, _, _) = example_engine();
        let p1 = parse_program(
            r#"
            houses(x, p) :- housePages(x), extractPrice(#x, p).
            q(x, p) :- houses(x, p), p > 500000.
            extractPrice(#x, p) :- from(#x, p), numeric(p) = yes.
        "#,
        )
        .unwrap();
        let r1 = eng.run(&p1).unwrap();
        let p2 = parse_program(
            r#"
            houses(x, p) :- housePages(x), extractPrice(#x, p).
            q(x, p) :- houses(x, p), p > 500000.
            extractPrice(#x, p) :- from(#x, p), numeric(p) = yes,
                                   preceded-by(p) = "price".
        "#,
        )
        .unwrap();
        let r2 = eng.run(&p2).unwrap();
        let store = eng.store();
        let v1 = r1.tuples()[0].cells[1].value_set(store).len();
        let v2 = r2.tuples()[0].cells[1].value_set(store).len();
        assert!(v2 < v1, "refinement must narrow the cached dependent: {v1} -> {v2}");
        assert_eq!(v2, 1);
    }

    #[test]
    fn explain_renders_plans_in_order() {
        let (eng, _, _) = example_engine();
        let prog = parse_program(
            r#"
            houses(x, p) :- housePages(x), extractPrice(#x, p).
            q(x) :- houses(x, p), p > 500000.
            extractPrice(#x, p) :- from(#x, p), numeric(p) = yes.
        "#,
        )
        .unwrap();
        let text = eng.explain(&prog).unwrap();
        let houses_at = text.find("-- houses").unwrap();
        let q_at = text.find("-- q(").unwrap();
        assert!(houses_at < q_at, "dependencies explained first:
{text}");
        assert!(text.contains("from(#0)→1"), "{text}");
        assert!(text.contains("σ[numeric"));
        assert!(text.contains("ScanRel(houses)"));
    }

    #[test]
    fn sampling_reduces_input() {
        let (mut eng, _, _) = example_engine();
        let prog = parse_program(
            r#"
            houses(x, p) :- housePages(x), extractPrice(#x, p).
            extractPrice(#x, p) :- from(#x, p), numeric(p) = yes.
        "#,
        )
        .unwrap();
        let full = eng.run(&prog).unwrap();
        let sampled = eng
            .run_sampled(&prog, Sample::new(0.5, 123))
            .unwrap();
        assert!(sampled.len() <= full.len());
        assert!(!sampled.is_empty());
    }

    #[test]
    fn validation_errors_surface() {
        let (mut eng, _, _) = example_engine();
        let prog = parse_program("q(x) :- nothere(x).").unwrap();
        assert!(matches!(
            eng.run(&prog),
            Err(EngineError::Validation(_))
        ));
    }

    #[test]
    fn generator_procedure_runs() {
        let (mut eng, _, _) = example_engine();
        eng.procs_mut().register_generator("tag", 1, |_, args| {
            vec![vec![Value::Str(format!("tag:{}", args[0]))]]
        });
        let prog = parse_program("q(x, t) :- housePages(x), tag(#x, t).").unwrap();
        let out = eng.run(&prog).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.tuples().iter().all(|t| !t.maybe));
        // Appended columns are named by position, however many there are.
        eng.procs_mut().register_generator("three", 3, |_, _| vec![]);
        eng.add_table("r", CompactTable::new(vec!["a".into(), "b".into()]));
        let plan = Plan::GenerateProc {
            input: Box::new(Plan::ScanExt { name: "r".into() }),
            name: "three".into(),
            in_cols: vec![0],
            out_arity: 3,
        };
        let out = eng.eval_plan(&plan, &BTreeMap::new(), None, SpanId::NONE).unwrap();
        assert_eq!(out.columns(), ["a", "b", "_g2", "_g3", "_g4"]);
    }

    #[test]
    fn generator_on_uncertain_input_marks_maybe() {
        // §4.1: p-predicate outputs become maybe when the input tuple
        // represents more than one possible input (|V| > 1).
        let mut store = DocumentStore::new();
        let d = store.add_plain("10 20");
        let store = Arc::new(store);
        let mut eng = Engine::new(store);
        eng.add_doc_table("pages", &[d]);
        eng.procs_mut().register_generator("double", 1, |st, args| {
            args[0]
                .as_num(st)
                .map(|n| vec![vec![Value::Num(n * 2.0)]])
                .unwrap_or_default()
        });
        let prog = parse_program(
            r#"
            q(v, w) :- pages(x), e(#x, v), double(#v, w).
            e(#x, v) :- from(#x, v), numeric(v) = yes.
        "#,
        )
        .unwrap();
        let out = eng.run(&prog).unwrap();
        // the expansion cell enumerates both numbers: each invocation has a
        // single concrete input → tuples are certain
        assert_eq!(out.len(), 2);
        assert!(out.tuples().iter().all(|t| !t.maybe));
        let store = eng.store();
        let ws: std::collections::BTreeSet<String> = out
            .tuples()
            .iter()
            .flat_map(|t| t.cells[1].values(store).map(|v| v.as_text(store).to_string()))
            .collect();
        assert!(ws.contains("20") && ws.contains("40"), "{ws:?}");
    }

    fn nums(vals: &[u32]) -> Vec<Assignment> {
        vals.iter()
            .map(|&n| Assignment::Exact(Value::Num(n as f64)))
            .collect()
    }

    /// Runs generator `name` over table `t` (registered as `r`) on its
    /// input columns `in_cols`.
    fn run_generator(
        eng: &mut Engine,
        t: CompactTable,
        name: &str,
        in_cols: Vec<usize>,
    ) -> Result<Arc<CompactTable>, EngineError> {
        eng.add_table("r", t);
        let plan = Plan::GenerateProc {
            input: Box::new(Plan::ScanExt { name: "r".into() }),
            name: name.into(),
            in_cols,
            out_arity: 1,
        };
        eng.eval_plan(&plan, &BTreeMap::new(), None, SpanId::NONE)
    }

    /// Every flat possible tuple of `t` with the maybe flag of its row, as a
    /// sorted multiset.
    fn flat_rows(t: &[CompactTuple], store: &DocumentStore) -> Vec<(Vec<Value>, bool)> {
        let mut out: Vec<(Vec<Value>, bool)> = t
            .iter()
            .flat_map(|tup| {
                let rows = tup.possible_tuples(store, 1 << 20).unwrap();
                rows.into_iter().map(move |r| (r, tup.maybe))
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn generator_output_matches_full_expansion_reference() {
        // The reference is the full-expansion semantics: flatten every
        // expansion cell, call the procedure once per combination of the
        // flat row's input values, mark maybe when there is more than one.
        let rows = vec![
            // expansion input beside an expansion cell in another column
            CompactTuple::new(vec![
                Cell::expansion(nums(&[1, 2, 3])),
                Cell::expansion(nums(&[10, 20])),
                Cell::exact(Value::Num(7.0)),
            ]),
            // multi-valued plain input cell
            CompactTuple::new(vec![
                Cell::of(nums(&[4, 5])),
                Cell::exact(Value::Num(30.0)),
                Cell::exact(Value::Num(8.0)),
            ]),
            // maybe row over an expansion input and a plain two-valued cell
            CompactTuple::maybe(vec![
                Cell::expansion(nums(&[6, 2])),
                Cell::of(nums(&[40, 50])),
                Cell::exact(Value::Num(9.0)),
            ]),
            // empty expansion cell in another column: stands for no row
            CompactTuple::new(vec![
                Cell::exact(Value::Num(1.0)),
                Cell::expansion(Vec::new()),
                Cell::exact(Value::Num(1.0)),
            ]),
        ];
        let mut table = CompactTable::new(vec!["x".into(), "y".into(), "z".into()]);
        for r in &rows {
            table.push(r.clone());
        }
        // Joins its arguments; returns nothing when the first is 2.
        let gen = |args: &[Value]| -> Vec<Vec<Value>> {
            if args[0] == Value::Num(2.0) {
                return Vec::new();
            }
            let text: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            vec![vec![Value::Str(text.join("+"))]]
        };
        let store = Arc::new(DocumentStore::new());
        for in_cols in [vec![0], vec![0, 0], vec![0, 2], vec![2, 0, 1]] {
            let mut eng = Engine::new(Arc::clone(&store));
            eng.procs_mut()
                .register_generator("g", 1, move |_, args| gen(args));
            let out = run_generator(&mut eng, table.clone(), "g", in_cols.clone()).unwrap();
            let mut reference = Vec::new();
            for r in &rows {
                for flat in r.expand_fully(&store, 1 << 20).unwrap() {
                    let sets: Vec<Vec<Value>> = in_cols
                        .iter()
                        .map(|&c| flat.cells[c].value_set(&store).into_iter().collect())
                        .collect();
                    let total: usize = sets.iter().map(Vec::len).product();
                    let mut idx = vec![0usize; sets.len()];
                    for _ in 0..total {
                        let args: Vec<Value> =
                            idx.iter().zip(&sets).map(|(&i, s)| s[i].clone()).collect();
                        for row in gen(&args) {
                            let mut cells = flat.cells.clone();
                            cells.extend(row.into_iter().map(Cell::exact));
                            reference.push(CompactTuple {
                                cells,
                                maybe: flat.maybe || total > 1,
                            });
                        }
                        for k in (0..idx.len()).rev() {
                            idx[k] += 1;
                            if idx[k] < sets[k].len() {
                                break;
                            }
                            idx[k] = 0;
                        }
                    }
                }
            }
            assert_eq!(
                flat_rows(out.tuples(), &store),
                flat_rows(&reference, &store),
                "in_cols {in_cols:?}"
            );
            // Unread expansion cells stay compact.
            if !in_cols.contains(&1) {
                assert!(out.len() < reference.len(), "in_cols {in_cols:?}");
                assert!(out.tuples().iter().any(|t| t.cells[1].is_expand()));
            }
        }
    }

    #[test]
    fn generator_is_called_once_per_input_value() {
        // x has 3 values, y (unread) 2: the procedure sees each x once;
        // flattening y as well would call it 3 × 2 times.
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut eng = Engine::new(Arc::new(DocumentStore::new()));
        let counter = Arc::clone(&calls);
        eng.procs_mut()
            .register_generator("count", 1, move |_, args| {
                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                vec![vec![args[0].clone()]]
            });
        let mut t = CompactTable::new(vec!["x".into(), "y".into()]);
        t.push(CompactTuple::new(vec![
            Cell::expansion(nums(&[1, 2, 3])),
            Cell::expansion(nums(&[10, 20])),
        ]));
        t.push(CompactTuple::new(vec![
            Cell::of(nums(&[4, 5])),
            Cell::expansion(nums(&[30, 40, 50])),
        ]));
        let out = run_generator(&mut eng, t, "count", vec![0]).unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 3 + 2);
        assert_eq!(out.len(), 5);
        assert_eq!(out.expanded_len(eng.store()), 3 * 2 + 2 * 3);
    }

    #[test]
    fn generator_bounds_inputs_not_unread_cells() {
        let mut eng = Engine::new(Arc::new(DocumentStore::new()));
        eng.procs_mut()
            .register_generator("none", 1, |_, _| Vec::new());
        eng.procs_mut()
            .register_generator("echo", 1, |_, args| vec![vec![args[0].clone()]]);
        let wide: Vec<u32> = (0..70_000).collect();
        const { assert!(70_000 > COMBO_CAP) };
        // An unread expansion cell wider than combo_cap passes through.
        let mut t = CompactTable::new(vec!["x".into(), "y".into()]);
        t.push(CompactTuple::new(vec![
            Cell::exact(Value::Num(1.0)),
            Cell::expansion(nums(&wide)),
        ]));
        let out = run_generator(&mut eng, t.clone(), "echo", vec![0]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.expanded_len(eng.store()), 70_000);
        // Reading it exceeds the bound.
        let err = run_generator(&mut eng, t, "echo", vec![1]).unwrap_err();
        assert!(matches!(err, EngineError::TooLarge(_)), "{err:?}");
        // The expansion input and the plain inputs are bounded apart:
        // 300 rows of 300 plain combinations each run.
        let three_hundred: Vec<u32> = (0..300).collect();
        let mut t = CompactTable::new(vec!["x".into(), "z".into()]);
        t.push(CompactTuple::new(vec![
            Cell::expansion(nums(&three_hundred)),
            Cell::of(nums(&three_hundred)),
        ]));
        assert!(run_generator(&mut eng, t, "none", vec![0, 1])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn comparison_against_null_constant() {
        let store = Arc::new(DocumentStore::new());
        let mut eng = Engine::new(store);
        eng.add_table(
            "vals",
            CompactTable::from_exact_rows(
                vec!["v".into()],
                vec![vec![Value::Num(1.0)], vec![Value::Null]],
            ),
        );
        let keep_non_null = parse_program("q(v) :- vals(v), v != NULL.").unwrap();
        let out = eng.run(&keep_non_null).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.tuples()[0].cells[0].exact_singleton(), Some(&Value::Num(1.0)));
        let keep_null = parse_program("q(v) :- vals(v), v = NULL.").unwrap();
        let out = eng.run(&keep_null).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.tuples()[0].cells[0].exact_singleton().unwrap().is_null());
    }

    #[test]
    fn projection_keeps_bag_semantics() {
        let store = Arc::new(DocumentStore::new());
        let mut eng = Engine::new(store);
        eng.add_table(
            "r",
            CompactTable::from_exact_rows(
                vec!["a".into(), "b".into()],
                vec![
                    vec![Value::Num(1.0), Value::Num(10.0)],
                    vec![Value::Num(1.0), Value::Num(20.0)],
                ],
            ),
        );
        // projecting away b keeps both tuples (multiset, §3)
        let prog = parse_program("q(a) :- r(a, b).").unwrap();
        assert_eq!(eng.run(&prog).unwrap().len(), 2);
    }

    #[test]
    fn from_on_non_span_value_drops_tuple() {
        let store = Arc::new(DocumentStore::new());
        let mut eng = Engine::new(store);
        eng.add_table(
            "nums",
            CompactTable::from_exact_rows(vec!["n".into()], vec![vec![Value::Num(5.0)]]),
        );
        let prog = parse_program("q(n, s) :- nums(n), from(#n, s).").unwrap();
        // nothing to extract from a number: empty result, not an error
        assert!(eng.run(&prog).unwrap().is_empty());
    }

    #[test]
    fn from_over_a_joined_column_streams_the_pairs() {
        // `from(#m, a)` after the comparison that joins its branch runs
        // inside the pass over the join's pairs, and drops the pairs whose
        // `m` holds no span: the same bytes as extracting below the join.
        let (mut eng, houses, schools) = example_engine();
        let spans = schools
            .iter()
            .map(|&d| vec![Value::Span(eng.store().doc(d).full_span())]);
        let rows = spans.chain([vec![Value::Num(5.0)]]).collect();
        eng.add_table(
            "mixed",
            CompactTable::from_exact_rows(vec!["m".into()], rows),
        );
        let joined = parse_program(
            "q(x, m, a) :- housePages(x), mixed(m), x != m, from(#m, a), bold-font(a) = yes.",
        )
        .unwrap();
        let below = parse_program(
            "q(x, m, a) :- housePages(x), mixed(m), from(#m, a), bold-font(a) = yes, x != m.",
        )
        .unwrap();
        let plan = eng.explain(&joined).unwrap();
        let (from_at, join_at) = (
            plan.find("from(#1)→2").unwrap(),
            plan.find("CrossJoin").unwrap(),
        );
        assert!(
            from_at < join_at,
            "the extract streams over the pairs:\n{plan}"
        );
        for threads in [1, 4] {
            eng.limits.threads = threads;
            eng.limits.morsel_tuples = (1, 2);
            eng.clear_cache();
            let streamed = eng.run(&joined).unwrap();
            let extracted_first = eng.run(&below).unwrap();
            assert_eq!(streamed.len(), houses.len() * schools.len());
            assert_eq!(format!("{streamed:?}"), format!("{extracted_first:?}"));
        }
    }

    #[test]
    fn constant_in_predicate_selects() {
        let store = Arc::new(DocumentStore::new());
        let mut eng = Engine::new(store);
        eng.add_table(
            "nums",
            CompactTable::from_exact_rows(
                vec!["a".into(), "b".into()],
                vec![
                    vec![Value::Num(1.0), Value::Num(10.0)],
                    vec![Value::Num(2.0), Value::Num(20.0)],
                ],
            ),
        );
        let prog = parse_program("q(b) :- nums(a, b), a = 2.").unwrap();
        let out = eng.run(&prog).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.tuples()[0].cells[0].exact_singleton(),
            Some(&Value::Num(20.0))
        );
    }

    #[test]
    fn ext_tables_lists_registrations() {
        let (eng, houses, schools) = example_engine();
        let names: Vec<&str> = eng.ext_tables().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["housePages", "schoolPages"]);
        let sizes: Vec<usize> = eng.ext_tables().map(|(_, t)| t.len()).collect();
        assert_eq!(sizes, vec![houses.len(), schools.len()]);
    }

    #[test]
    fn threads_env_value_parsing() {
        assert_eq!(parse_threads_value("4"), Some(4));
        assert_eq!(parse_threads_value("  8 "), Some(8));
        assert_eq!(parse_threads_value("0"), None, "zero threads is invalid");
        assert_eq!(parse_threads_value("-2"), None);
        assert_eq!(parse_threads_value("four"), None);
        assert_eq!(parse_threads_value(""), None);
    }

    #[test]
    fn core_fork_shares_caches_but_isolates_faults() {
        let (mut eng, _, _) = example_engine();
        let prog = parse_program("q(x) :- housePages(x).").unwrap();
        eng.run(&prog).unwrap(); // warm the incremental cache
        let warm = {
            let core = eng.into_core();
            assert!(core.warm_entries() > 0, "into_core keeps warm entries");
            core
        };
        let mut a = warm.fork();
        let mut b = warm.fork();
        // Forks start warm: the very first run hits the shared entries.
        a.run(&prog).unwrap();
        assert!(a.stats.incr_hits > 0, "fork starts from the warm cache");
        // Fault plans are per-fork: arming one never fires in the other.
        a.fault.arm(
            crate::fault::site::EVAL_RULE,
            Trigger::Always,
            Fault::Panic("fork a only".into()),
            7,
        );
        a.clear_cache(); // force evaluation so the armed fault can fire
        a.run(&prog).unwrap();
        assert!(a.stats.degraded(), "fork a degrades");
        b.run(&prog).unwrap();
        assert!(!b.stats.degraded(), "fork b never sees a's fault plan");
    }

    #[test]
    fn core_publish_rejects_diverged_forks() {
        let (eng, _, _) = example_engine();
        let core = eng.into_core();
        let mut clean = core.fork();
        let prog = parse_program("q(x) :- housePages(x).").unwrap();
        clean.run(&prog).unwrap();
        assert!(core.publish(&clean), "same-epoch fork publishes");
        let entries = core.warm_entries();
        assert!(entries > 0);
        let mut diverged = core.fork();
        diverged.procs_mut(); // epoch bump: the fork no longer matches
        assert!(!core.publish(&diverged), "diverged fork is refused");
        assert_eq!(core.warm_entries(), entries);
    }

    #[test]
    fn memo_lookup_fault_degrades_that_rule() {
        let (mut eng, houses, _) = example_engine();
        let prog = parse_program("q(x) :- housePages(x).").unwrap();
        let exact = eng.run(&prog).unwrap();
        assert_eq!(exact.len(), houses.len());
        eng.fault.arm(
            crate::fault::site::MEMO_LOOKUP,
            Trigger::Nth(0),
            Fault::Panic("cache corrupted".into()),
            7,
        );
        let degraded = eng.run(&prog).unwrap();
        assert!(eng.stats.degraded_by(DegradeCause::RulePanic));
        assert_eq!(
            eng.stats.degradations[0].site.as_deref(),
            Some(crate::fault::site::MEMO_LOOKUP)
        );
        assert!(!degraded.is_empty(), "widened stand-in keeps a result");
        // The fault fired exactly once: the next run is exact again.
        let after = eng.run(&prog).unwrap();
        assert!(!eng.stats.degraded());
        assert_eq!(after.tuples(), exact.tuples());
    }

    /// A feature that holds everywhere and counts its `Verify` calls.
    struct CountVerify(&'static str, Arc<std::sync::atomic::AtomicUsize>);

    impl iflex_features::Feature for CountVerify {
        fn name(&self) -> &'static str {
            self.0
        }

        fn verify(
            &self,
            _: &DocumentStore,
            _: iflex_text::Span,
            _: &iflex_features::FeatureArg,
        ) -> Result<bool, FeatureError> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(true)
        }

        fn refine(
            &self,
            _: &DocumentStore,
            s: iflex_text::Span,
            _: &iflex_features::FeatureArg,
        ) -> Result<Vec<Assignment>, FeatureError> {
            Ok(vec![Assignment::Contain(s)])
        }

        fn verify_value(
            &self,
            _: &DocumentStore,
            _: &Value,
            _: &iflex_features::FeatureArg,
        ) -> Result<bool, FeatureError> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(true)
        }
    }

    #[test]
    fn a_pass_through_exact_is_verified_once_per_step() {
        // Each constraint step on `v` verifies the exact values reaching
        // it against its own constraint: the step before it already
        // verified them against the priors.
        let mut eng = Engine::new(Arc::new(DocumentStore::new()));
        let rows = (1..=3).map(|n| vec![Value::Num(f64::from(n))]).collect();
        eng.add_table(
            "vals",
            CompactTable::from_exact_rows(vec!["v".into()], rows),
        );
        let calls: Vec<_> = ["count-a", "count-b", "count-c"]
            .into_iter()
            .map(|name| {
                let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
                eng.features_mut()
                    .register(Arc::new(CountVerify(name, Arc::clone(&calls))));
                calls
            })
            .collect();
        let prog =
            parse_program("q(v) :- vals(v), count-a(v) = yes, count-b(v) = yes, count-c(v) = yes.")
                .unwrap();
        assert_eq!(eng.run(&prog).unwrap().len(), 3);
        for calls in &calls {
            assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 3);
        }
    }

    /// A feature whose `Refine` returns each token of a region as an
    /// exact value, and which counts its `Verify` calls.
    struct ExactTokens(Arc<std::sync::atomic::AtomicUsize>);

    impl iflex_features::Feature for ExactTokens {
        fn name(&self) -> &'static str {
            "exact-tokens"
        }

        fn verify(
            &self,
            _: &DocumentStore,
            _: iflex_text::Span,
            _: &iflex_features::FeatureArg,
        ) -> Result<bool, FeatureError> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(true)
        }

        fn refine(
            &self,
            store: &DocumentStore,
            s: iflex_text::Span,
            _: &iflex_features::FeatureArg,
        ) -> Result<Vec<Assignment>, FeatureError> {
            let toks = store.doc(s.doc).token_slice(&s).iter();
            let span = |t: &iflex_text::Token| iflex_text::Span::new(s.doc, t.start, t.end);
            Ok(toks.map(|t| Assignment::exact_span(span(t))).collect())
        }
    }

    #[test]
    fn a_refined_exact_is_never_verified_against_its_producer() {
        // `Refine(k)` returns only values satisfying `k`, so its exact
        // values owe the chain's other constraints and not `k`, whichever
        // of the two steps runs first.
        let mut store = DocumentStore::new();
        let d = store.add_plain("one two three");
        let mut eng = Engine::new(Arc::new(store));
        eng.add_doc_table("pages", &[d]);
        let own = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let other = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        eng.features_mut()
            .register(Arc::new(ExactTokens(Arc::clone(&own))));
        eng.features_mut()
            .register(Arc::new(CountVerify("count-a", Arc::clone(&other))));
        for chain in [
            "count-a(x) = yes, exact-tokens(x) = yes",
            "exact-tokens(x) = yes, count-a(x) = yes",
        ] {
            let prog = parse_program(&format!(
                "q(d, x) :- pages(d), t(#d, x).\nt(#d, x) :- from(#d, x), {chain}."
            ))
            .unwrap();
            let out = eng.run(&prog).unwrap();
            assert_eq!(out.tuples()[0].cells[1].value_count(eng.store()), 3);
        }
        assert_eq!(own.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(other.load(std::sync::atomic::Ordering::Relaxed), 6);
    }

    #[test]
    fn shared_var_unifies() {
        let store = Arc::new(DocumentStore::new());
        let mut eng = Engine::new(store);
        eng.add_table(
            "r1",
            CompactTable::from_exact_rows(
                vec!["a".into()],
                vec![vec![Value::Num(1.0)], vec![Value::Num(2.0)]],
            ),
        );
        eng.add_table(
            "r2",
            CompactTable::from_exact_rows(
                vec!["a".into()],
                vec![vec![Value::Num(2.0)], vec![Value::Num(3.0)]],
            ),
        );
        let prog = parse_program("q(x) :- r1(x), r2(x).").unwrap();
        let out = eng.run(&prog).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn only_a_builtin_similar_over_unwritten_join_columns_reads_profiles() {
        let mut store = DocumentStore::new();
        let d = store.add_plain("Big Sleep");
        let eng = Engine::new(Arc::new(store));
        let side = CompactTable::from_exact_rows(
            vec!["v".into()],
            vec![vec![Value::Span(eng.store.doc(d).full_span())]],
        );
        let similar = |cols: Vec<usize>| FusedOp::FilterProc {
            name: "similar".into(),
            cols,
        };
        let profiled = |eng: &Engine, ops: &[FusedOp]| -> Vec<bool> {
            let pass = eng.resolve_pass(ops, None, Some((&side, &side))).unwrap();
            pass.steps.iter().map(|s| s.sim.is_some()).collect()
        };
        let unify = FusedOp::VarUnify { col_a: 0, col_b: 1 };
        assert_eq!(profiled(&eng, &[similar(vec![0, 1])]), [true]);
        assert_eq!(profiled(&eng, &[unify.clone(), similar(vec![0, 1])]), [false, true]);
        // Both arguments on one side, or right before left: enumerated.
        assert_eq!(profiled(&eng, &[similar(vec![0, 0]), similar(vec![1, 0])]), [false, false]);
        // Column 2 is defined by the pass itself, so its cells are not
        // the right input's.
        let extract = FusedOp::Extract { src: 1, col: 2 };
        assert_eq!(profiled(&eng, &[extract, similar(vec![0, 2])]), [false, false]);
        let mut eng = eng;
        eng.procs_mut().register_filter("similar", |_, _| true);
        assert_eq!(profiled(&eng, &[similar(vec![0, 1])]), [false]);
    }
}
