//! Property tests of the logical-plan optimizer (DESIGN.md §11): for each
//! program shape below, thread count, and fault arm, the optimized execution
//! must produce a result **byte-identical** to the unoptimized one —
//! same table rendering, same degradation records. The optimizer is a
//! pure performance lever; `Limits::use_optimizer` is an ablation knob
//! that may never change what the engine computes.
//!
//! Fault arms use `Trigger::Always`: an always-armed site fires on its
//! first visit in both modes whenever the site is visited at all, so the
//! same rules degrade for the same cause. (`Trigger::Nth` visit *counts*
//! are plan-dependent by design — doing less work is the optimizer's
//! whole point — so Nth equivalence is deliberately out of scope; see
//! the module docs in `lplan`.)

use iflex_alog::{parse_program, Program};
use iflex_ctable::Value;
use iflex_engine::{fault, Engine, Fault, Trigger};
use iflex_text::DocumentStore;
use proptest::prelude::*;
use std::sync::Arc;

/// Every engine-side injection site the optimizer's rewrites could
/// plausibly disturb, in a fixed order the generator indexes.
const SITES: &[&str] = &[
    fault::site::EVAL_RULE,
    fault::site::MEMO_LOOKUP,
    fault::site::JOIN_TUPLE,
    fault::site::GENERATOR,
    fault::site::ANNOTATE,
];

/// An engine over `n` markup documents plus a 3×-larger second corpus
/// (`big`) for skewed joins, and a pass-through generator for generator
/// shapes.
fn build_engine(n: usize, threads: usize, use_optimizer: bool) -> Engine {
    let mut store = DocumentStore::new();
    let mut pages = Vec::new();
    for i in 0..n {
        pages.push(store.add_markup(&format!(
            "row {} val <b>{}</b> extra {}",
            i,
            (i + 1) * 10,
            i % 7
        )));
    }
    let mut big = Vec::new();
    for i in 0..3 * n {
        big.push(store.add_markup(&format!("item {} cost <b>{}</b>", i, i + 5)));
    }
    // A two-column table (exact number, numeric-text span) for the
    // post-join-selection shape.
    let r2_rows: Vec<Vec<iflex_ctable::Value>> = (0..n)
        .map(|i| {
            let d = store.add_plain(format!("{}", i * 3));
            vec![
                Value::Num(i as f64),
                Value::Span(store.doc(d).full_span()),
            ]
        })
        .collect();
    let mut eng = Engine::new(Arc::new(store));
    eng.add_doc_table("pages", &pages);
    eng.add_doc_table("big", &big);
    eng.add_table(
        "r2",
        iflex_ctable::CompactTable::from_exact_rows(
            vec!["a".to_string(), "b".to_string()],
            r2_rows,
        ),
    );
    eng.procs_mut().register_generator("gen", 1, |_, args| {
        let Some(Value::Span(x)) = args.first() else {
            return vec![];
        };
        vec![vec![Value::Span(*x)]]
    });
    eng.limits.threads = threads;
    eng.limits.use_optimizer = use_optimizer;
    eng
}

/// Program shapes covering the optimizer's passes: a constraint chain
/// that fuses, a skewed cross join, a join with a single-side post-join
/// selection, a generator, an annotated head, a similarity join, and a
/// similarity prefilter with a trailing step and a projection in one
/// pass.
fn program(kind: u8) -> Program {
    let src = match kind % 7 {
        0 => {
            // fusion: constraint + comparison chain over an extraction
            "q(x, v) :- pages(x), e(#x, v), v > 20.\n\
             e(#x, v) :- from(#x, v), numeric(v) = yes."
        }
        1 => {
            // a skewed join: pages × big is 1:3, streamed pair by pair
            "q(x, y) :- pages(x), big(y)."
        }
        2 => {
            // a post-join selection: `x < a` straddles pages × r2 and
            // forces the join; `numeric(b)` touches only the right side
            // and runs over the pairs in both modes (it keeps every r2
            // row, so JOIN_TUPLE stays visited in both modes)
            "q(x, a, b) :- pages(x), r2(a, b), x < a, numeric(b) = yes."
        }
        3 => "q(v) :- pages(x), gen(#x, v).",
        4 => {
            // annotated head over a fused chain (ψ after Fused)
            "q(x, <v>) :- pages(x), e(#x, v).\n\
             e(#x, v) :- from(#x, v), numeric(v) = yes."
        }
        5 => {
            // similarity join: the straddling `similar` is the first step
            // over the cross join in both modes, so both run it as the
            // pass's token prefilter (and visit JOIN_TUPLE)
            "q(a, b) :- pages(x), from(#x, a), big(y), from(#y, b), similar(#a, #b)."
        }
        _ => {
            // a similarity-first pass with a π, as T3's outer rule, plus
            // a trailing step: `numeric(a)` shares `a` with the straddling
            // `similar`, so the optimizer keeps `similar` first and runs
            // prefilter, constraint and π in one pass over the pairs; off,
            // each is a pass of its own
            "q(a) :- pages(x), from(#x, a), big(y), from(#y, b), \
             similar(#a, #b), numeric(a) = yes."
        }
    };
    parse_program(src).unwrap()
}

/// One full run: the result table plus which rules degraded (with their
/// cause and site), in order.
fn observe(
    n: usize,
    threads: usize,
    kind: u8,
    use_optimizer: bool,
    arm: Option<(usize, bool)>,
) -> (String, Vec<String>) {
    let mut eng = build_engine(n, threads, use_optimizer);
    if let Some((site_idx, panic_not_budget)) = arm {
        let f = if panic_not_budget {
            Fault::Panic("prop-opt".into())
        } else {
            Fault::TooLarge
        };
        eng.fault
            .arm(SITES[site_idx % SITES.len()], Trigger::Always, f, 17);
    }
    let table = eng.run(&program(kind)).unwrap();
    let degraded: Vec<String> = eng
        .stats
        .degradations
        .iter()
        .map(|d| d.to_string())
        .collect();
    (format!("{table:?}"), degraded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact runs: optimized ≡ unoptimized, byte for byte, at one and
    /// four worker threads.
    #[test]
    fn optimizer_ablation_is_byte_identical(
        n in 3usize..20,
        kind in 0u8..7,
    ) {
        for threads in [1usize, 4] {
            let off = observe(n, threads, kind, false, None);
            let on = observe(n, threads, kind, true, None);
            prop_assert_eq!(&on, &off, "threads={}", threads);
        }
    }

    /// Faulted runs: an always-armed fault at any named site degrades
    /// the same rules for the same cause and leaves the same widened
    /// table, with the optimizer on or off, at either thread count.
    #[test]
    fn faults_degrade_identically_with_optimizer_on_or_off(
        n in 3usize..20,
        kind in 0u8..7,
        site_idx in 0usize..5,
        panic_not_budget in any::<bool>(),
    ) {
        let armed = Some((site_idx, panic_not_budget));
        for threads in [1usize, 4] {
            let off = observe(n, threads, kind, false, armed);
            let on = observe(n, threads, kind, true, armed);
            prop_assert_eq!(&on, &off, "threads={} site={}", threads, SITES[site_idx]);
        }
    }

    /// A warm rule cache with the optimizer on must be invisible: a
    /// second run on the same engine returns exactly what a fresh
    /// unoptimized engine returns.
    #[test]
    fn warm_optimized_caches_preserve_results(
        n in 3usize..16,
        kind in 0u8..7,
    ) {
        let prog = program(kind);
        let mut eng = build_engine(n, 4, true);
        let first = format!("{:?}", eng.run(&prog).unwrap());
        let warm = format!("{:?}", eng.run(&prog).unwrap());
        prop_assert_eq!(&warm, &first);
        prop_assert_eq!(&observe(n, 4, kind, false, None).0, &first);
    }
}

/// Fingerprint stability (DESIGN.md §11): incremental-cache entries are
/// keyed by the *pre-optimization* rule, so entries warmed by an
/// optimized run are served — byte-identically — to a later run with
/// the optimizer off, and vice versa.
#[test]
fn incremental_cache_entries_are_shared_across_optimizer_settings() {
    let prog = program(0);
    let mut eng = build_engine(8, 1, true);
    let warm = format!("{:?}", eng.run(&prog).unwrap());
    eng.limits.use_optimizer = false;
    let served = format!("{:?}", eng.run(&prog).unwrap());
    assert!(
        eng.stats.incr_hits > 0,
        "optimizer-off run must hit entries warmed by the optimized run"
    );
    assert_eq!(served, warm);
}

/// The optimizer actually fires on these shapes: the fusion counter is
/// non-zero where the shape is built to trigger it (this guards against
/// the ablation tests passing vacuously because nothing was ever
/// rewritten).
#[test]
fn shapes_actually_exercise_the_passes() {
    use iflex_engine::obs::metrics::names;
    let mut eng = build_engine(8, 1, true);
    eng.run(&program(0)).unwrap();
    let fused = eng.metrics.counter_value(names::OPT_FUSED_NODES);
    assert!(fused.unwrap_or(0) > 0, "kind 0 fused nothing: {fused:?}");
}
