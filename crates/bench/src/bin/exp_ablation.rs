//! Ablation experiment: measures each design choice DESIGN.md calls out
//! by turning it off and re-running a representative workload —
//!
//! * ψ path: exact BAnnotate (a-table) vs compact-direct;
//! * reuse: warm per-rule cache vs cold re-execution per iteration;
//! * subset evaluation: simulation over a 15 % sample vs the full input.
//!
//! Reported as wall-clock of a fixed work unit; lower is better.

use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use iflex_engine::AnnotatePolicy;
use std::time::Instant;

fn time<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let corpus = Corpus::build(CorpusConfig::tiny());
    println!("Ablations (tiny corpus; seconds per run, lower is better)\n");

    // --- ψ path: a program with attribute annotations over many values
    let t1 = corpus.task(TaskId::T1, Some(30));
    let annotated = parse_program(
        r#"
        q(x, <v>) :- imdb(x), e(#x, v).
        e(#x, v) :- from(#x, v), numeric(v) = yes.
    "#,
    )
    .unwrap();
    for (label, policy) in [
        ("psi/auto", AnnotatePolicy::Auto),
        ("psi/force-exact", AnnotatePolicy::ForceExact),
        ("psi/force-compact", AnnotatePolicy::ForceCompact),
    ] {
        let mut eng = t1.engine(&corpus);
        eng.limits.annotate_policy = policy;
        let secs = time(
            || {
                eng.clear_cache();
                let _ = eng.run(&annotated).unwrap();
            },
            20,
        );
        println!("{label:<22} {secs:.4}s");
    }

    // --- reuse: iterate a refinement sequence with and without the cache
    println!();
    let t8 = corpus.task(TaskId::T8, Some(40));
    let refinements = [
        ("underlined", FeatureArg::distinct_yes()),
        ("max-value", FeatureArg::Num(200.0)),
    ];
    for (label, reuse) in [("reuse/on", true), ("reuse/off", false)] {
        let mut eng = t8.engine(&corpus);
        eng.limits.use_incremental = reuse;
        let attrs = iflex::assistant::attributes(&t8.program);
        let lp = attrs.iter().find(|a| a.var == "lp").unwrap().clone();
        let secs = time(
            || {
                let mut prog = t8.program.clone();
                eng.run(&prog).unwrap();
                for (feature, arg) in &refinements {
                    prog = iflex::assistant::add_constraint(&prog, &lp, feature, arg);
                    eng.run(&prog).unwrap();
                }
            },
            10,
        );
        println!("{label:<22} {secs:.4}s");
    }

    // --- subset evaluation: one simulation-style run per fraction
    println!();
    let t9 = corpus.task(TaskId::T9, Some(40));
    for pct in [5u32, 15, 30, 100] {
        let mut eng = t9.engine(&corpus);
        let sample = Sample::new(pct as f64 / 100.0, 7);
        let secs = time(
            || {
                eng.clear_cache();
                let _ = eng.run_sampled(&t9.program, sample).unwrap();
            },
            10,
        );
        println!("subset/{pct:<3}%            {secs:.4}s");
    }
}
