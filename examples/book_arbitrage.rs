//! A full interactive best-effort session on the Books domain: task T9
//! ("books cheaper at Amazon than at Barnes & Noble") driven end-to-end by
//! the next-effort assistant's simulation strategy and a simulated
//! developer, with per-iteration progress printed like Table 4.
//!
//! Run with: `cargo run --release -p iflex-examples --bin book_arbitrage`

use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig, TaskId};

fn main() {
    println!("building the Books corpus (synthetic Amazon + Barnes & Noble)...");
    let corpus = Corpus::build(CorpusConfig::tiny());
    let task = corpus.task(TaskId::T9, Some(40));
    println!("task {}: {}", task.id.name(), TaskId::T9.description());
    println!("initial program:\n{}", task.program);

    let engine = task.engine(&corpus);
    let mut session = iflex::Session::new(
        engine,
        task.program.clone(),
        Box::new(Simulation::default()),
        Box::new(SimulatedDeveloper::new(task.oracle.clone())),
    );

    let outcome = session.run().expect("session runs");
    println!("\nper-iteration progress (cf. Table 4):");
    println!("  iter | mode   | result size | questions");
    for r in &outcome.records {
        println!(
            "  {:>4} | {:?}{}| {:>11} | {}",
            r.iteration,
            r.mode,
            if matches!(r.mode, iflex::ExecMode::Reuse) { " " } else { "" },
            r.result_tuples,
            r.questions_this_iter
        );
    }
    println!(
        "\nstopped: {:?} after {} questions, {:.1} simulated minutes",
        outcome.stop, outcome.questions_asked, outcome.minutes
    );
    println!("final program:\n{}", session.program());

    let q = iflex::score(
        &outcome.table,
        &task.truth_cols,
        &task.truth,
        session.engine.store(),
    );
    println!(
        "result: {} tuples vs {} correct → superset {:.0}%, recall {:.0}%",
        q.result_tuples,
        q.correct_tuples,
        q.superset_pct,
        q.recall * 100.0
    );
    println!("\nsample rows:");
    println!("{}", outcome.table.render(session.engine.store(), 5));
}
