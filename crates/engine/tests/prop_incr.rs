//! Property tests of the incremental re-execution engine: for seeded
//! random developer-answer sequences over full sessions, turning
//! `use_incremental` on must be observationally invisible — byte-identical
//! final tables, the same [`StopReason`], the same question count, and the
//! same degradations — under injected faults at every named site, and
//! identically at 1 and 4 threads. The cache is a pure performance lever;
//! serving a rule from it (or evicting one) may never change what a
//! session computes.

use iflex::{Developer, OracleSpec, Session};
use iflex_assistant::{Answer, Question, Simulation, Strategy};
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use iflex_engine::{fault, Fault, Trigger};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Every named injection site, in a fixed order the generator indexes.
const SITES: &[&str] = &[
    fault::site::EVAL_RULE,
    fault::site::JOIN_TUPLE,
    fault::site::GENERATOR,
    fault::site::ANNOTATE,
    fault::site::IO_READ,
];

/// One tiny corpus shared by every case: corpus construction dominates a
/// session at these sizes and the inputs themselves are not under test.
fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::build(CorpusConfig::tiny()))
}

/// A developer whose answer *sequence* is seeded-random: each question the
/// oracle could answer is returned or withheld ("I do not know") by a
/// deterministic coin. Withheld answers steer sessions down different
/// refinement paths, so the cache sees varied invalidation patterns —
/// while the same seed drives the on/off runs identically.
struct FlakyDeveloper {
    oracle: OracleSpec,
    rng: SmallRng,
    withhold_permille: u64,
}

impl FlakyDeveloper {
    fn new(oracle: OracleSpec, seed: u64, withhold_permille: u64) -> Self {
        FlakyDeveloper {
            oracle,
            rng: SmallRng::seed_from_u64(seed),
            withhold_permille,
        }
    }
}

impl Developer for FlakyDeveloper {
    fn answer(&mut self, question: &Question) -> Answer {
        let known = self
            .oracle
            .lookup(&question.attr.display(), &question.feature)
            .cloned();
        // Draw unconditionally so the stream position depends only on how
        // many questions were asked, not on which were answerable.
        let withhold = self.rng.gen_range_u64(1000) < self.withhold_permille;
        match known {
            Some(v) if !withhold => Answer::Value(v),
            _ => Answer::DontKnow,
        }
    }
}

/// Everything observable about one full session, rendered byte-comparably.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observation {
    table: String,
    stop: String,
    iterations: usize,
    questions_asked: usize,
    final_degraded: Vec<String>,
}

/// Runs one full session (iterate → ask → refine → final execution) and
/// records its observable outcome. `site` arms a `Trigger::Always` fault:
/// unlike `Nth`, an always-firing trigger is insensitive to how many times
/// a site is probed, which is exactly what caching changes — hit counts
/// may differ between configurations, observable behaviour may not.
fn observe(
    id: TaskId,
    n: usize,
    threads: usize,
    site: Option<usize>,
    seed: u64,
    withhold_permille: u64,
    use_incremental: bool,
) -> Observation {
    let c = corpus();
    let task = c.task(id, Some(n));
    let mut engine = task.engine(c);
    engine.limits.use_incremental = use_incremental;
    engine.limits.threads = threads;
    if let Some(i) = site {
        engine.fault.arm(
            SITES[i % SITES.len()],
            Trigger::Always,
            Fault::TooLarge,
            seed,
        );
    }
    let strategy: Box<dyn Strategy> = Box::new(Simulation::default());
    let mut session = Session::new(
        engine,
        task.program.clone(),
        strategy,
        Box::new(FlakyDeveloper::new(
            task.oracle.clone(),
            seed,
            withhold_permille,
        )),
    );
    let outcome = session.run().expect("session runs");
    Observation {
        // Debug output is a faithful structural rendering; comparing it
        // keeps the assertion byte-level without requiring tables to be Ord.
        table: format!("{:?}", outcome.table),
        stop: format!("{:?}", outcome.stop),
        iterations: outcome.iterations,
        questions_asked: outcome.questions_asked,
        final_degraded: outcome
            .final_stats
            .degradations
            .iter()
            .map(|d| d.rule.clone())
            .collect(),
    }
}

const TASKS: [TaskId; 2] = [TaskId::T1, TaskId::T2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Exact runs: for any seeded answer sequence and either task, the
    /// incremental engine returns byte-identical results, and the session
    /// observes the same thing at 1 and 4 threads (the cache's contents
    /// never depend on the probe schedule).
    #[test]
    fn incremental_is_invisible(
        task_idx in 0usize..2,
        n in 4usize..14,
        seed in any::<u64>(),
        withhold in 0u64..400,
    ) {
        let id = TASKS[task_idx];
        let mut seen = Vec::new();
        for threads in [1usize, 4] {
            let off = observe(id, n, threads, None, seed, withhold, false);
            let on = observe(id, n, threads, None, seed, withhold, true);
            prop_assert_eq!(&on, &off, "task={:?} threads={}", id, threads);
            seen.push(on);
        }
        prop_assert_eq!(&seen[0], &seen[1], "task={:?}: 1 vs 4 threads", id);
    }

    /// Faulted runs: an always-firing fault at any named site degrades the
    /// same rules and leaves the same widened table whether or not the
    /// cache is on and at 1 or 4 threads — and degraded results are never
    /// served from it.
    #[test]
    fn incremental_is_invisible_under_faults(
        task_idx in 0usize..2,
        n in 4usize..10,
        site_idx in 0usize..5,
        seed in any::<u64>(),
        withhold in 0u64..400,
    ) {
        let id = TASKS[task_idx];
        let mut seen = Vec::new();
        for threads in [1usize, 4] {
            let off = observe(id, n, threads, Some(site_idx), seed, withhold, false);
            let on = observe(id, n, threads, Some(site_idx), seed, withhold, true);
            prop_assert_eq!(
                &on, &off,
                "task={:?} threads={} site={}", id, threads, SITES[site_idx]
            );
            seen.push(on);
        }
        prop_assert_eq!(
            &seen[0], &seen[1],
            "task={:?} site={}: 1 vs 4 threads", id, SITES[site_idx]
        );
    }
}

/// Pinned sanity check (not property-driven): with every answer given, T1
/// converges identically on/off, and the incremental run actually reuses
/// cached rule results (otherwise the properties above would pass
/// vacuously with the cache never consulted).
#[test]
fn incremental_run_actually_hits_the_cache() {
    let off = observe(TaskId::T1, 12, 1, None, 7, 0, false);
    let on = observe(TaskId::T1, 12, 1, None, 7, 0, true);
    assert_eq!(on, off);

    let c = corpus();
    let task = c.task(TaskId::T1, Some(12));
    let mut engine = task.engine(c);
    engine.limits.use_incremental = true;
    engine.limits.threads = 1;
    let mut session = Session::new(
        engine,
        task.program.clone(),
        Box::new(Simulation::default()) as Box<dyn Strategy>,
        Box::new(FlakyDeveloper::new(task.oracle.clone(), 7, 0)),
    );
    session.run().expect("session runs");
    let hits = session
        .engine
        .metrics
        .counter_value(iflex_engine::obs::metrics::names::INCR_HITS)
        .unwrap_or(0);
    assert!(hits > 0, "expected incremental cache hits, got {hits}");
}
