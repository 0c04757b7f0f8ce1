//! Machine-time scaling: final-program execution wall clock vs corpus
//! scale, one representative task per domain. §6.3's anecdotal claim —
//! "the approximate query processor proves quite efficient even on large
//! data sets" — corresponds to near-linear growth here.
//!
//! Modes:
//! * no arguments — the original scaling table;
//! * `--scale <f>` (repeatable) — run the scaling table at the given
//!   corpus scale(s) instead of the default ladder; factors ≥10× the
//!   paper's sizes are supported (the corpus generators stay injective
//!   at any scale);
//! * `--parallel-report [path] [--smoke]` — runs each workload serial
//!   and threaded at corpus scales 1 and 10, asserts the threaded result
//!   is byte-identical to serial, and — on hosts with ≥4 cores — asserts
//!   the morsel executor is never slower than serial; writes a
//!   `BENCH_parallel.json` report. With `--smoke` the sweep is
//!   the speedup gate alone (or, on smaller hosts, a tiny identity-only
//!   sweep with a skip notice);
//! * `--smoke [path]` — alias for `--parallel-report [path] --smoke`,
//!   kept for the tier-1 gate;
//! * `--telemetry-report [path] [--smoke]` — the live-telemetry overhead
//!   gate (DESIGN.md §12): the same session with the engine's window /
//!   sketch / flight-recorder instrumentation off vs on, asserting the
//!   results are identical and (in full mode) that the enabled arm costs
//!   under 5% extra wall clock on T1, writing `BENCH_telemetry.json`.

use iflex_bench::{run_session, run_session_configured, ExecConfig, RunResult, Strat};
use iflex_corpus::{Corpus, CorpusConfig, TaskId};
use iflex_engine::default_threads;
use std::time::Instant;

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

struct Workload {
    id: TaskId,
    scale: f64,
}

struct Row {
    task: String,
    scale: f64,
    serial_secs: f64,
    threaded_secs: f64,
    /// Morsels dispensed by the threaded final run's work-stealing
    /// executor, and how many of them were stolen from another
    /// participant's segment.
    par_morsels: u64,
    par_steals: u64,
    /// min/max/imbalance summary of the threaded final run's
    /// per-participant busy time; `None` when the run had no parallel
    /// sections.
    shard_balance: Option<ShardBalance>,
}

#[derive(Clone, Copy)]
struct ShardBalance {
    min_us: u64,
    max_us: u64,
    /// max / mean — 1.0 is perfect balance.
    imbalance: f64,
}

fn shard_balance(busy_us: &[u64]) -> Option<ShardBalance> {
    if busy_us.is_empty() {
        return None;
    }
    let min_us = *busy_us.iter().min().unwrap();
    let max_us = *busy_us.iter().max().unwrap();
    let mean = busy_us.iter().sum::<u64>() as f64 / busy_us.len() as f64;
    Some(ShardBalance {
        min_us,
        max_us,
        imbalance: if mean > 0.0 { max_us as f64 / mean } else { 1.0 },
    })
}

fn timed(corpus: &Corpus, id: TaskId, exec: ExecConfig) -> (f64, RunResult) {
    let task = corpus.task(id, None);
    let run = run_session_configured(corpus, &task, Strat::Sim, exec);
    // Session wall-clock only: iterations + probes + final execution.
    // Engine construction and truth scoring are configuration-independent.
    (run.session_secs, run)
}

/// Runs one workload serial and threaded, checking that both produce the
/// byte-identical result table (parallel execution is a performance
/// lever, not semantics).
fn sweep(workload: &Workload, threads: usize) -> Row {
    let corpus = Corpus::build(CorpusConfig::scaled(workload.scale));
    let serial = ExecConfig {
        threads: Some(1),
        ..ExecConfig::default()
    };
    let threaded = ExecConfig {
        threads: Some(threads),
        ..ExecConfig::default()
    };
    let (serial_secs, s) = timed(&corpus, workload.id, serial);
    let (threaded_secs, t) = timed(&corpus, workload.id, threaded);
    assert_eq!(
        t.quality.result_tuples, s.quality.result_tuples,
        "{:?} scale {}: threads changed the result",
        workload.id, workload.scale
    );
    assert!((t.quality.recall - s.quality.recall).abs() < 1e-12);
    // The determinism contract is byte-level, not just count-level:
    // morsel-parallel execution must fold to the exact serial table.
    assert_eq!(
        format!("{:?}", t.outcome.table),
        format!("{:?}", s.outcome.table),
        "{:?} scale {}: threads changed the result bytes",
        workload.id, workload.scale
    );
    let stats = &t.outcome.final_stats;
    Row {
        task: format!("{:?}", workload.id),
        scale: workload.scale,
        serial_secs,
        threaded_secs,
        par_morsels: stats.par_morsels,
        par_steals: stats.par_steals,
        shard_balance: shard_balance(&stats.shard_busy_us),
    }
}

/// Hand-rendered JSON (the workspace deliberately carries no JSON
/// dependency).
fn render_json(rows: &[Row], threads: usize) -> String {
    let mut out = String::from("{\n");
    out += &format!("  \"threads\": {threads},\n");
    out += &format!("  \"requested_threads\": {threads},\n");
    out += &format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    out += "  \"workloads\": [\n";
    for (i, r) in rows.iter().enumerate() {
        out += "    {\n";
        out += &format!("      \"task\": \"{}\",\n", r.task);
        out += &format!("      \"scale\": {},\n", r.scale);
        out += &format!("      \"serial_secs\": {:.4},\n", r.serial_secs);
        out += &format!("      \"threaded_secs\": {:.4},\n", r.threaded_secs);
        out += &format!(
            "      \"speedup_vs_serial\": {:.2},\n",
            r.serial_secs / r.threaded_secs.max(1e-9)
        );
        out += &format!("      \"par_morsels\": {},\n", r.par_morsels);
        out += &format!("      \"par_steals\": {},\n", r.par_steals);
        match r.shard_balance {
            Some(b) => {
                out += &format!("      \"shard_busy_us_min\": {},\n", b.min_us);
                out += &format!("      \"shard_busy_us_max\": {},\n", b.max_us);
                out += &format!("      \"shard_imbalance_ratio\": {:.3}\n", b.imbalance);
            }
            None => out += "      \"shard_imbalance_ratio\": null\n",
        }
        out += if i + 1 == rows.len() { "    }\n" } else { "    },\n" };
    }
    out += "  ]\n}\n";
    out
}

/// Warns (once per process) when the requested worker count exceeds the
/// host's available parallelism. The sweep still runs — the output stays
/// correct by construction — but threaded timings on an oversubscribed
/// host mostly measure scheduler churn, so the report records both
/// counts and the console says so up front. Returns the host count.
fn warn_if_oversubscribed(requested: usize) -> usize {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if requested > host {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "exp_scaling: warning: {requested} worker threads requested on a host \
                 with {host} available core(s); threaded timings will be dominated by \
                 oversubscription (both counts are recorded in the report)"
            );
        });
    }
    host
}

/// The corpus scale of the smoke gate's workload (per-tuple work is deep
/// enough to amortize dispatch).
const GATE_SCALE: f64 = 10.0;

fn parallel_report(path: &str, smoke: bool) {
    let threads = default_threads().max(4);
    let host = warn_if_oversubscribed(threads);
    // A host without ≥4 real cores cannot show a 4-thread speedup; the
    // gate is skipped there (with a notice), never silently weakened.
    let gate = host >= 4;
    let workloads: Vec<Workload> = if smoke {
        if gate {
            vec![Workload {
                id: TaskId::T1,
                scale: GATE_SCALE,
            }]
        } else {
            println!(
                "parallel speedup gate SKIPPED: host has {host} core(s), the gate \
                 needs >= 4; running the tiny identity-only sweep instead"
            );
            vec![Workload {
                id: TaskId::T1,
                scale: 0.1,
            }]
        }
    } else {
        vec![
            Workload {
                id: TaskId::T1,
                scale: 1.0,
            },
            Workload {
                id: TaskId::T5,
                scale: 1.0,
            },
            Workload {
                id: TaskId::T8,
                scale: 1.0,
            },
            Workload {
                id: TaskId::Panel,
                scale: 1.0,
            },
            Workload {
                id: TaskId::T1,
                scale: GATE_SCALE,
            },
            Workload {
                id: TaskId::T5,
                scale: GATE_SCALE,
            },
            Workload {
                id: TaskId::T8,
                scale: GATE_SCALE,
            },
        ]
    };
    let rows: Vec<Row> = workloads.iter().map(|w| sweep(w, threads)).collect();
    for r in &rows {
        let balance = match r.shard_balance {
            Some(b) => format!(
                "shards {:.1}–{:.1}ms ({:.2}x imbalance)",
                b.min_us as f64 / 1000.0,
                b.max_us as f64 / 1000.0,
                b.imbalance
            ),
            None => "no parallel sections".to_string(),
        };
        println!(
            "{:>6} @{}: serial {:.2}s  {}-threads {:.2}s  ({:.2}x vs serial)  \
             morsels {} (stolen {})  {balance}",
            r.task,
            r.scale,
            r.serial_secs,
            threads,
            r.threaded_secs,
            r.serial_secs / r.threaded_secs.max(1e-9),
            r.par_morsels,
            r.par_steals,
        );
    }
    if gate {
        // The perf gate proper: threads must not lose to serial (Panel
        // is excluded — its sessions are dominated by question rounds,
        // not engine runs).
        for r in rows.iter().filter(|r| r.task != "Panel") {
            let speedup = r.serial_secs / r.threaded_secs.max(1e-9);
            assert!(
                speedup >= 1.0,
                "{} @{}: threads lose to serial ({speedup:.2}x)",
                r.task,
                r.scale
            );
        }
        println!("parallel speedup gate: OK");
    } else if !smoke {
        println!(
            "parallel speedup gate SKIPPED: host has {host} core(s), the gate needs >= 4 \
             (byte-identity was still asserted on every row)"
        );
    }
    std::fs::write(path, render_json(&rows, threads)).expect("write report");
    println!("wrote {path}");
}

/// One workload of the telemetry-overhead comparison: the identical
/// session with live telemetry off and on.
struct TelRow {
    task: String,
    scale: f64,
    off_secs: f64,
    on_secs: f64,
    result_tuples: usize,
}

impl TelRow {
    /// Extra wall clock of the enabled arm, as a percentage of the
    /// disabled arm.
    fn overhead_pct(&self) -> f64 {
        (self.on_secs / self.off_secs.max(1e-9) - 1.0) * 100.0
    }
}

fn render_telemetry_json(rows: &[TelRow], trials: usize, budget_pct: f64) -> String {
    let mut out = String::from("{\n");
    out += &format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    out += "  \"strategy\": \"Simulation\",\n";
    out += "  \"regime\": \"threads=1, best-of-N trials per arm\",\n";
    out += &format!("  \"trials_per_arm\": {trials},\n");
    out += &format!("  \"overhead_budget_pct\": {budget_pct},\n");
    out += "  \"workloads\": [\n";
    for (i, r) in rows.iter().enumerate() {
        out += "    {\n";
        out += &format!("      \"task\": \"{}\",\n", r.task);
        out += &format!("      \"scale\": {},\n", r.scale);
        out += &format!("      \"telemetry_off_secs\": {:.4},\n", r.off_secs);
        out += &format!("      \"telemetry_on_secs\": {:.4},\n", r.on_secs);
        out += &format!("      \"overhead_pct\": {:.2},\n", r.overhead_pct());
        out += &format!("      \"result_tuples\": {}\n", r.result_tuples);
        out += if i + 1 == rows.len() { "    }\n" } else { "    },\n" };
    }
    out += "  ]\n}\n";
    out
}

/// Best-of-N session wall clock under one configuration (the minimum is
/// the standard noise-robust estimator for a deterministic workload; the
/// last run's result is returned for the identity check — every run
/// produces the same tuples).
fn best_of(corpus: &Corpus, id: TaskId, exec: ExecConfig, trials: usize) -> (f64, RunResult) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..trials {
        let (secs, run) = timed(corpus, id, exec);
        best = best.min(secs);
        last = Some(run);
    }
    (best, last.expect("at least one trial"))
}

/// The live-telemetry overhead sweep (`--telemetry-report`): the same
/// single-threaded session with the engine's windows, quantile sketches
/// and flight recorder disabled (the default — one relaxed atomic load
/// per observation site) and enabled. The binary asserts both arms
/// converge to the identical result, and in full mode that T1's enabled
/// arm stays within the 5% overhead budget the telemetry design promises
/// (smoke mode reports the number without asserting — one 0.1-scale run
/// is too noisy to gate on).
fn telemetry_report(path: &str, smoke: bool) {
    const BUDGET_PCT: f64 = 5.0;
    let (workloads, trials): (Vec<Workload>, usize) = if smoke {
        (
            vec![Workload {
                id: TaskId::T1,
                scale: 0.1,
            }],
            1,
        )
    } else {
        (
            vec![
                Workload {
                    id: TaskId::T1,
                    scale: 1.0,
                },
                Workload {
                    id: TaskId::T5,
                    scale: 1.0,
                },
            ],
            3,
        )
    };
    let off = ExecConfig {
        threads: Some(1),
        ..ExecConfig::default()
    };
    let on = ExecConfig {
        threads: Some(1),
        telemetry: true,
    };
    let mut rows = Vec::new();
    for w in &workloads {
        let corpus = Corpus::build(CorpusConfig::scaled(w.scale));
        let (off_secs, o) = best_of(&corpus, w.id, off, trials);
        let (on_secs, t) = best_of(&corpus, w.id, on, trials);
        assert_eq!(
            t.quality.result_tuples, o.quality.result_tuples,
            "{:?} scale {}: telemetry changed the result",
            w.id, w.scale
        );
        assert!((t.quality.recall - o.quality.recall).abs() < 1e-12);
        rows.push(TelRow {
            task: format!("{:?}", w.id),
            scale: w.scale,
            off_secs,
            on_secs,
            result_tuples: t.quality.result_tuples,
        });
    }
    for r in &rows {
        println!(
            "{:>6} @{}: telemetry off {:.3}s  on {:.3}s  (overhead {:+.2}%)",
            r.task,
            r.scale,
            r.off_secs,
            r.on_secs,
            r.overhead_pct(),
        );
    }
    if !smoke {
        let t1 = rows.iter().find(|r| r.task == "T1").expect("T1 row");
        assert!(
            t1.overhead_pct() < BUDGET_PCT,
            "telemetry overhead on T1 is {:.2}%, over the {BUDGET_PCT}% budget",
            t1.overhead_pct()
        );
        println!(
            "telemetry overhead on T1: {:+.2}% (budget {BUDGET_PCT}%) — OK",
            t1.overhead_pct()
        );
    }
    std::fs::write(path, render_telemetry_json(&rows, trials, BUDGET_PCT)).expect("write report");
    println!("wrote {path}");
}

/// Collects every value following a `--scale` flag.
fn scale_args(args: &[String]) -> Vec<f64> {
    let mut scales = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            let v = it
                .next()
                .and_then(|s| s.parse::<f64>().ok())
                .expect("--scale takes a positive number");
            assert!(v > 0.0, "--scale takes a positive number");
            scales.push(v);
        }
    }
    scales
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("--parallel-report") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let default = if smoke {
                "BENCH_parallel_smoke.json"
            } else {
                "BENCH_parallel.json"
            };
            let path = args[1..]
                .iter()
                .find(|a| !a.starts_with("--"))
                .map(|s| s.as_str())
                .unwrap_or(default);
            parallel_report(path, smoke);
        }
        Some("--smoke") => parallel_report(
            args.get(1).map(|s| s.as_str()).unwrap_or("BENCH_parallel_smoke.json"),
            true,
        ),
        Some("--telemetry-report") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let default = if smoke {
                "BENCH_telemetry_smoke.json"
            } else {
                "BENCH_telemetry.json"
            };
            let path = args[1..]
                .iter()
                .find(|a| !a.starts_with("--"))
                .map(|s| s.as_str())
                .unwrap_or(default);
            telemetry_report(path, smoke);
        }
        Some("--scale") => scaling_table(&scale_args(&args)),
        _ => scaling_table(&[0.1, 0.25, 0.5, 1.0]),
    }
}
