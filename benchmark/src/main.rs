//! The iFlex benchmark.
//!
//! `iflex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints every metric by name, with
//! unit, direction and bound, then one JSON object as its last line. With
//! `--trace 0` the metrics are the end-to-end ones, measured with tracing
//! off; with `--trace 1` they are the per-layer ones, from a traced
//! repetition and the layer probes. See `README.md`.

#![warn(missing_docs)]

mod alloc;
mod cal;
mod layers;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use report::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::extract::ExtractCold;
use workloads::iterate::{IterateJoin, IterateSelect};
use workloads::service::ServiceSessions;
use workloads::{run, Opts, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: iflex-benchmark --workload <iterate-select|iterate-join|extract-cold|service-sessions> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]";

struct Cli {
    workload: String,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 7,
        seconds: 20.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Cli { workload, opts })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} cores {}",
        cli.workload,
        cli.opts.seed,
        cli.opts.seconds,
        cli.opts.trace as u8,
        cli.opts.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match cli.workload.as_str() {
        IterateSelect::NAME => run::<IterateSelect>(&cli.opts),
        IterateJoin::NAME => run::<IterateJoin>(&cli.opts),
        ExtractCold::NAME => run::<ExtractCold>(&cli.opts),
        _ => run::<ServiceSessions>(&cli.opts),
    };
    let defs: &[report::MetricDef] = if cli.opts.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    report::print(&cli.workload, defs, &outcome);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cli = parse_args(&args(
            "--workload extract-cold --seed 11 --seconds 20 --trace 1",
        ))
        .expect("the driver's arguments parse");
        assert_eq!(cli.workload, "extract-cold");
        assert_eq!(cli.opts.seed, 11);
        assert_eq!(cli.opts.seconds, 20.0);
        assert!(cli.opts.trace && !cli.opts.smoke);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload extract-cold --trace 2")).is_err());
        assert!(parse_args(&args("--workload extract-cold --seconds 0")).is_err());
        assert!(parse_args(&args("--workload extract-cold --bogus")).is_err());
    }
}
