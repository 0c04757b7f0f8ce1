//! Ablation experiment: measures each design choice DESIGN.md calls out
//! by timing it against the alternative it replaces —
//!
//! * compact tables vs a-table conversion (§3);
//! * `Refine`-based constraint selection vs naive sub-span enumeration
//!   plus `Verify` (§4.2);
//! * ψ path: exact BAnnotate (a-table) vs compact-direct (§4.3);
//! * similarity join over unrefined vs refined cells (§4.1);
//! * reuse: warm per-rule cache vs cold re-execution per iteration;
//! * subset evaluation: simulation over a 15 % sample vs the full input.
//!
//! Reported as wall-clock of a fixed work unit; lower is better.

use iflex::ctable::ATable;
use iflex::engine::annotate::{bannotate_compact, bannotate_exact, ATABLE_BUDGET};
use iflex::engine::constraint::apply_constraint;
use iflex::engine::CompiledConstraint;
use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use std::hint::black_box;
use std::time::Instant;

/// Mean wall clock of `f` over `reps` calls. Each result passes through
/// `black_box`, so the timed work cannot be optimized away.
fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn row(label: &str, secs: f64) {
    println!("{label:<24} {:>12.3}µs", secs * 1e6);
}

fn main() {
    let corpus = Corpus::build(CorpusConfig::tiny());
    println!("Ablations (tiny corpus; microseconds per run, lower is better)\n");

    // --- compact vs a-table (§3): a `contain` region is one assignment
    // compact; the a-table enumerates every token-aligned sub-span
    let mut store = DocumentStore::new();
    let words: Vec<String> = (0..24).map(|i| format!("w{i}")).collect();
    let doc = store.add_plain(words.join(" "));
    let region = store.doc(doc).full_span();
    let mut regions = CompactTable::new(vec!["s".into()]);
    for _ in 0..16 {
        regions.push(CompactTuple::new(vec![Cell::expansion(vec![
            Assignment::Contain(region),
        ])]));
    }
    let to_atable = time(20, || {
        ATable::from_compact(&regions, &store, 1_000_000).unwrap()
    });
    row("ctable/to-atable", to_atable);
    row(
        "ctable/stay-compact",
        time(10_000, || regions.expanded_len(&store)),
    );

    // --- Refine vs naive (§4.2): one numeric constraint over a page
    println!();
    let mut store = DocumentStore::new();
    let mut page = String::new();
    for i in 0..128 {
        if i % 7 == 3 {
            page += &format!("<b>{}</b> ", i * 13);
        } else if i % 5 == 0 {
            page += &format!("{i} ");
        } else {
            page += &format!("word{i} ");
        }
    }
    let doc = store.add_markup(&page);
    let cell = Cell::contain(store.doc(doc).full_span());
    let features = FeatureRegistry::default();
    let numeric = CompiledConstraint {
        feature: "numeric".into(),
        arg: FeatureArg::yes(),
    };
    let refine = time(200, || {
        apply_constraint(&cell, &numeric, &[], &store, &features).unwrap()
    });
    row("constraint/refine", refine);
    let verify = features.get("numeric").unwrap();
    let naive = time(20, || {
        cell.values(&store)
            .filter(|v| match v {
                Value::Span(s) => verify.verify(&store, *s, &numeric.arg).unwrap(),
                _ => false,
            })
            .count()
    });
    row("constraint/naive-verify", naive);

    // --- ψ path (§4.3): the paper's exact BAnnotate vs compact-direct,
    // over the table an annotated head's rule body produces
    println!();
    let t1 = corpus.task(TaskId::T1, Some(30));
    let body = parse_program(
        r#"
        q(x, v) :- imdb(x), e(#x, v).
        e(#x, v) :- from(#x, v), numeric(v) = yes.
    "#,
    )
    .unwrap();
    let mut eng = t1.engine(&corpus);
    let input = eng.run(&body).unwrap();
    let store = eng.store();
    let exact = time(20, || bannotate_exact(&input, &[1], store, ATABLE_BUDGET).unwrap());
    row("psi/exact", exact);
    row(
        "psi/compact",
        time(20, || bannotate_compact(&input, &[1], store)),
    );

    // --- similarity join (§4.1): unrefined regions take the token
    // prefilter; refined exact cells are matched pair by pair
    println!();
    let t6 = corpus.task(TaskId::T6, Some(40));
    let refined = parse_program(
        r#"
        t6(title1) :- sigmod(x), extractSIGMOD(#x, title1, authors1),
                      icde(y), extractICDE(#y, title2, authors2),
                      similar(#authors1, #authors2).
        extractSIGMOD(#x, t, a) :- from(#x, t), from(#x, a),
            bold-font(t) = distinct-yes, italic-font(a) = distinct-yes.
        extractICDE(#y, t, a) :- from(#y, t), from(#y, a),
            bold-font(t) = distinct-yes, italic-font(a) = distinct-yes.
    "#,
    )
    .unwrap();
    for (label, prog) in [("join/unrefined", &t6.program), ("join/refined", &refined)] {
        let mut eng = t6.engine(&corpus);
        let secs = time(10, || {
            eng.clear_cache();
            eng.run(prog).unwrap()
        });
        row(label, secs);
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
        let secs = time(10, || {
            let mut prog = t8.program.clone();
            eng.run(&prog).unwrap();
            for (feature, arg) in &refinements {
                prog = iflex::assistant::add_constraint(&prog, &lp, feature, arg);
                eng.run(&prog).unwrap();
            }
        });
        row(label, secs);
    }

    // --- subset evaluation: one simulation-style run per fraction
    println!();
    let t9 = corpus.task(TaskId::T9, Some(40));
    for pct in [5u32, 15, 30, 100] {
        let mut eng = t9.engine(&corpus);
        let sample = Sample::new(pct as f64 / 100.0, 7);
        let secs = time(10, || {
            eng.clear_cache();
            eng.run_sampled(&t9.program, sample).unwrap()
        });
        row(&format!("subset/{pct}%"), secs);
    }
}
