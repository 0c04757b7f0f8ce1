//! Machine-time scaling: session wall clock vs corpus scale, one
//! representative task per domain. §6.3's anecdotal claim — "the
//! approximate query processor proves quite efficient even on large data
//! sets" — corresponds to near-linear growth here.
//!
//! Usage: `exp_scaling [--scale <f>]...`. Without arguments the table
//! runs the default ladder; each `--scale` adds a positive corpus scale
//! and replaces the ladder. Factors ≥10× the paper's sizes are supported
//! (the corpus generators stay injective at any scale). Any other
//! argument, a missing value, or a value that is not a positive number
//! exits non-zero with a usage line.

use iflex_bench::{run_session, Strat};
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use std::time::Instant;

const USAGE: &str = "usage: exp_scaling [--scale <positive number>]...";

/// The corpus scales run when no `--scale` is given.
const DEFAULT_SCALES: [f64; 4] = [0.1, 0.25, 0.5, 1.0];

fn scaling_table(scales: &[f64]) {
    println!("Scaling: session wall clock (seconds) vs corpus scale");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "scale", "T1", "T5", "T8", "Panel"
    );
    for &scale in scales {
        let corpus = Corpus::build(CorpusConfig::scaled(scale));
        let mut row = format!("{scale:>6}");
        for id in [TaskId::T1, TaskId::T5, TaskId::T8, TaskId::Panel] {
            let task = corpus.task(id, None);
            let t0 = Instant::now();
            let run = run_session(&corpus, &task, Strat::Sim);
            assert!(run.quality.recall > 0.99, "{id:?} at scale {scale}");
            row += &format!(" {:>9.2}s", t0.elapsed().as_secs_f64());
        }
        println!("{row}");
    }
}

/// The scales named by `--scale <f>` flags, or the default ladder when
/// there are none.
fn scale_args(args: &[String]) -> Result<Vec<f64>, String> {
    let mut scales = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a != "--scale" {
            return Err(format!("unknown argument `{a}`"));
        }
        let v = it.next().ok_or("--scale needs a value")?;
        match v.parse::<f64>() {
            Ok(f) if f > 0.0 && f.is_finite() => scales.push(f),
            _ => return Err(format!("--scale takes a positive number, got `{v}`")),
        }
    }
    if scales.is_empty() {
        scales = DEFAULT_SCALES.to_vec();
    }
    Ok(scales)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match scale_args(&args) {
        Ok(scales) => scaling_table(&scales),
        Err(e) => {
            eprintln!("exp_scaling: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Vec<f64>, String> {
        scale_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_flags_replace_the_default_ladder() {
        assert_eq!(parse(&[]).unwrap(), DEFAULT_SCALES);
        assert_eq!(parse(&["--scale", "2"]).unwrap(), [2.0]);
        assert_eq!(
            parse(&["--scale", "0.5", "--scale", "10"]).unwrap(),
            [0.5, 10.0]
        );
    }

    #[test]
    fn rejected_forms_are_errors() {
        for args in [
            &["--smoke"][..],
            &["--report", "out.json"],
            &["out.json"],
            &["--scale"],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "abc"],
            &["--scale", "nan"],
            &["--scale", "inf"],
            &["--scale", "1", "--bogus"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
