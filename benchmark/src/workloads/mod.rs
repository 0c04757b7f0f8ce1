//! The workload contract and the driver that runs one workload: set-up
//! (several times, median), a warm-up repetition checked against ground
//! truth, then either the measured loop (tracing off) or the traced
//! repetition plus the per-layer probes.

pub mod extract;
pub mod iterate;
pub mod service;

use crate::cal::{self, Calibrator};
use crate::report::{Metrics, Outcome};
use crate::spans::{journal_times, At, JournalTimes, Recorder};
use crate::{alloc, layers, stats, sys};
use iflex::ctable::CompactTable;
use iflex::engine::obs::{Registry, Tracer};
use iflex::text::DocumentStore;
use iflex_corpus::{Corpus, Task};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: task order within a repetition, which client runs
    /// which task in the service workload, and the probes' sample draws.
    /// Sessions keep the default `sample_seed`: which subset a session
    /// samples decides which program it converges on (and so how many
    /// questions it asks and how large its result is), and the benchmark
    /// measures one fixed piece of work.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the measured loop.
    pub trace: bool,
    /// Tiny inputs and one repetition: exercises every code path fast.
    pub smoke: bool,
    /// Where the traced run writes `<workload>.trace.jsonl`.
    pub out_dir: PathBuf,
}

/// What a repetition is run for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Repetition 0: results are scored against the corpus generator's
    /// ground truth (expensive, so only here).
    WarmUp,
    /// A measured repetition: results must equal repetition 0's.
    Measured,
    /// The traced repetition: engine tracers on, registries read after
    /// every public call.
    Traced,
}

/// What one repetition produced.
#[derive(Debug, Default)]
pub struct RepOut {
    /// Summed wall-clock of the timed public calls (`Session::run`,
    /// `Engine::run`), or of the whole repetition for the service.
    pub work_s: f64,
    /// Every wait a user of the system sat through, in ms.
    pub waits_ms: Vec<f64>,
    /// Questions the developer was asked.
    pub questions: u64,
    /// Summed expanded result sizes.
    pub result_tuples: u64,
    /// Summed ground-truth sizes.
    pub truth_tuples: u64,
    /// Input documents the repetition processed.
    pub input_docs: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// `(operation, [len, expanded_len, assignments])` per result, compared
    /// with repetition 0.
    pub signature: Vec<(String, [u64; 3])>,
    /// Seconds the benchmark spent checking results (excluded from set-up).
    pub check_s: f64,
    /// Engine span journals, one per engine (traced only).
    pub journals: Vec<(String, Tracer)>,
    /// Engine registry counters summed over every run whose registry the
    /// benchmark could read (traced only).
    pub registry: BTreeMap<String, u64>,
    /// Per-layer values measured directly by the repetition.
    pub layer: Vec<(String, f64)>,
}

impl RepOut {
    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Records a result table: its size signature and, when `score_it`,
    /// its recall against the task's ground truth, which must be exactly 1
    /// (the returned partial mappings contain every true mapping).
    pub fn record_table(
        &mut self,
        label: &str,
        table: &CompactTable,
        store: &DocumentStore,
        task: &Task,
        score_it: bool,
    ) {
        let expanded = table.expanded_len(store);
        self.result_tuples += expanded;
        self.signature.push((
            label.to_string(),
            [
                table.len() as u64,
                expanded,
                table.stats().assignments as u64,
            ],
        ));
        if score_it {
            let t0 = Instant::now();
            let quality = iflex::score(table, &task.truth_cols, &task.truth, store);
            self.check_s += t0.elapsed().as_secs_f64();
            if quality.recall < 1.0 {
                self.fail(format!(
                    "{label}: recall {:.4} against the generator's truth ({} true tuples)",
                    quality.recall, quality.correct_tuples
                ));
            }
        }
    }

    /// Adds a registry's counters to the running sums. The engine resets
    /// its registry at the start of every run, so this must be called
    /// after each run it is to account for.
    pub fn absorb_registry(&mut self, reg: &Registry) {
        for (name, v) in reg.snapshot().counters {
            *self.registry.entry(name).or_insert(0) += v;
        }
    }
}

/// Times of one construction, for the `corpus` layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildTimes {
    /// `Corpus::build` seconds.
    pub corpus_s: f64,
    /// Median `Corpus::task` milliseconds.
    pub task_ms: f64,
}

/// One workload.
pub trait Workload: Sized {
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Whether its wall-clock metrics are host-calibrated: CPU-bound
    /// workloads are; the service's are set by a 40 ms timer, not by the
    /// host's speed, and stay raw. CPU seconds are calibrated everywhere.
    const WALL_CALIBRATED: bool;

    /// Everything that happens once before the first repetition: corpus,
    /// tasks, engines or host, converged programs.
    fn build(opts: &Opts) -> (Self, BuildTimes);

    /// One pass over the workload's task list.
    fn rep(&mut self, mode: Mode, at: At) -> RepOut;

    /// The corpus the per-layer probes sample from.
    fn corpus(&self) -> &Corpus;

    /// Converged programs the workload already holds, for the engine
    /// probes to reuse.
    fn converged(&self) -> Option<&[extract::Converged]> {
        None
    }

    /// Workload-specific per-layer probes (traced run only); returns the
    /// checks that failed.
    fn probe_layers(&mut self, _at: At, _m: &mut Metrics) -> Vec<String> {
        Vec::new()
    }

    /// Tears the workload down, stopping every thread it started.
    fn finish(self) {}
}

/// How many times set-up is repeated; its median is reported.
const SETUP_REPS: usize = 3;
/// Wait samples the p90 needs under the percentile rule.
const MIN_WAIT_SAMPLES: usize = 100;
/// How long past `--seconds` the measured loop may run to collect them.
const MAX_OVERRUN_S: f64 = 40.0;

struct Checked {
    attempted: u64,
    failures: Vec<String>,
}

impl Checked {
    fn absorb(&mut self, rep: &RepOut, rep0: Option<&RepOut>, label: &str) {
        self.attempted += rep.attempted;
        self.failures
            .extend(rep.failures.iter().map(|f| format!("{label}: {f}")));
        if let Some(rep0) = rep0 {
            if rep.signature != rep0.signature {
                let diff = rep
                    .signature
                    .iter()
                    .zip(&rep0.signature)
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("{a:?} vs repetition 0's {b:?}"))
                    .unwrap_or_else(|| "different number of results".into());
                self.failures
                    .push(format!("{label}: results differ from repetition 0: {diff}"));
            }
            if rep.questions != rep0.questions {
                self.failures.push(format!(
                    "{label}: {} questions asked, repetition 0 asked {}",
                    rep.questions, rep0.questions
                ));
            }
        }
    }
}

/// Runs workload `W` and returns its outcome.
pub fn run<W: Workload>(opts: &Opts) -> Outcome {
    let rec = Recorder::new(opts.trace);
    let mut m = Metrics::default();
    let mut checked = Checked {
        attempted: 0,
        failures: Vec::new(),
    };
    let mut calibrator = Calibrator::new();
    calibrator.run(); // first touch of the buffer is not representative
    let scale = |raw: f64, f: f64| if W::WALL_CALIBRATED { raw * f } else { raw };

    // Set-up, several times; the last construction is the one used.
    let setup_reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut builds = Series::default();
    let mut build_times: Vec<BuildTimes> = Vec::new();
    let mut workload: Option<W> = None;
    for i in 0..setup_reps {
        if let Some(old) = workload.take() {
            old.finish();
        }
        let c0 = calibrator.run();
        let t0 = Instant::now();
        let (built, times) = At::root(&rec)
            .op(i as u64)
            .scope("set-up", || W::build(opts));
        let dt = t0.elapsed().as_secs_f64();
        let c1 = calibrator.run();
        builds.push(dt, cal::factor(c0, c1));
        build_times.push(times);
        workload = Some(built);
    }
    let mut w = workload.expect("set-up ran at least once");

    // Repetition 0: warm-up, charged to set-up, scored against truth.
    let c0 = calibrator.run();
    let t0 = Instant::now();
    let rep0 = w.rep(Mode::WarmUp, At::root(&rec));
    let warm_s = (t0.elapsed().as_secs_f64() - rep0.check_s).max(0.0);
    let warm_f = cal::factor(c0, calibrator.run());
    checked.absorb(&rep0, None, "repetition 0");
    let build_raw = stats::median(&builds.raw);
    let build = if W::WALL_CALIBRATED {
        stats::median(&builds.calibrated)
    } else {
        build_raw
    };
    m.set("setup_s", build + scale(warm_s, warm_f));
    m.note(
        "setup_s",
        format!(
            "raw {:.4}: median of {} constructions {:.4} + warm-up repetition {:.4}",
            build_raw + warm_s,
            builds.raw.len(),
            build_raw,
            warm_s
        ),
    );
    m.set("questions_asked", rep0.questions as f64);
    m.set(
        "superset_ratio",
        rep0.result_tuples as f64 / rep0.truth_tuples.max(1) as f64,
    );
    m.note(
        "superset_ratio",
        format!(
            "{} result tuples / {} true tuples",
            rep0.result_tuples, rep0.truth_tuples
        ),
    );

    if opts.trace {
        traced(
            opts,
            &mut w,
            &rec,
            &rep0,
            &build_times,
            &mut m,
            &mut checked,
        );
    } else {
        measured::<W>(
            opts,
            &mut w,
            &rec,
            &rep0,
            &mut calibrator,
            &mut m,
            &mut checked,
        );
    }
    w.finish();
    m.set("peak_rss_mb", sys::peak_rss_mb());

    let failed = checked.failures.len() as u64;
    Outcome {
        correct: failed == 0,
        attempted: checked.attempted,
        failed,
        metrics: m,
        failures: checked.failures,
    }
}

/// A series of measurements, raw and scaled to the host's nominal speed.
#[derive(Default)]
struct Series {
    raw: Vec<f64>,
    calibrated: Vec<f64>,
}

impl Series {
    fn push(&mut self, raw: f64, factor: f64) {
        self.raw.push(raw);
        self.calibrated.push(raw * factor);
    }

    /// Records percentile `p` of the series as metric `name`: calibrated
    /// or raw as the workload asks, with the other value in the remark.
    fn report(&self, m: &mut Metrics, name: &str, p: f64, calibrated: bool, remark: &str) {
        let (raw, cal) = (
            stats::percentile(&self.raw, p),
            stats::percentile(&self.calibrated, p),
        );
        m.set(name, if calibrated { cal } else { raw });
        m.note(name, format!("raw {raw:.4}, calibrated {cal:.4}{remark}"));
    }
}

/// The measured loop: repetitions until `--seconds` have passed, each
/// bracketed by calibration kernels.
fn measured<W: Workload>(
    opts: &Opts,
    w: &mut W,
    rec: &Recorder,
    rep0: &RepOut,
    calibrator: &mut Calibrator,
    m: &mut Metrics,
    checked: &mut Checked,
) {
    let (mut work, mut cpu, mut waits) = (Series::default(), Series::default(), Series::default());
    let started = Instant::now();
    let mut c_prev = calibrator.run();
    let mut reps = 0usize;
    // A slow host fits fewer repetitions into `--seconds`; the loop then
    // runs on until the p90 has its samples, for at most `MAX_OVERRUN_S`
    // more, so that the host's speed decides how long a run takes, never
    // whether it passes.
    let more = |reps: usize, samples: usize| {
        let elapsed = started.elapsed().as_secs_f64();
        reps == 0
            || (!opts.smoke
                && (elapsed < opts.seconds || samples < MIN_WAIT_SAMPLES)
                && elapsed < opts.seconds + MAX_OVERRUN_S)
    };
    while more(reps, waits.raw.len()) {
        reps += 1;
        let cpu0 = sys::process_cpu_s();
        let rep = w.rep(Mode::Measured, At::root(rec));
        let cpu_used = sys::process_cpu_s() - cpu0;
        let c_next = calibrator.run();
        let f = cal::factor(c_prev, c_next);
        c_prev = c_next;
        checked.absorb(&rep, Some(rep0), &format!("repetition {reps}"));
        println!(
            "repetition {reps}: work {:.4} s, cpu {cpu_used:.4} s, {} waits, kernel {c_next:.4} s, factor {f:.4}",
            rep.work_s,
            rep.waits_ms.len()
        );
        work.push(rep.work_s, f);
        cpu.push(cpu_used, f);
        for wait in rep.waits_ms {
            waits.push(wait, f);
        }
    }
    let samples = waits.raw.len();
    work.report(
        m,
        "rep_s",
        50.0,
        W::WALL_CALIBRATED,
        &format!(", {reps} repetitions"),
    );
    cpu.report(m, "cpu_s", 50.0, true, "");
    waits.report(
        m,
        "wait_p50_ms",
        50.0,
        W::WALL_CALIBRATED,
        &format!(", {samples} samples"),
    );
    waits.report(
        m,
        "wait_p90_ms",
        90.0,
        W::WALL_CALIBRATED,
        &format!(", {samples} samples"),
    );
    if !opts.smoke && !stats::supports(samples, 90.0) {
        checked.failures.push(format!(
            "{samples} wait samples, the p90 needs {MIN_WAIT_SAMPLES}"
        ));
    }
}

/// The traced run: one untraced reference repetition, one traced
/// repetition with allocation counting, then the per-layer probes.
fn traced<W: Workload>(
    opts: &Opts,
    w: &mut W,
    rec: &Recorder,
    rep0: &RepOut,
    builds: &[BuildTimes],
    m: &mut Metrics,
    checked: &mut Checked,
) {
    m.set(
        "corpus.build.s",
        stats::median(&builds.iter().map(|b| b.corpus_s).collect::<Vec<_>>()),
    );
    m.set(
        "corpus.task.ms",
        stats::median(&builds.iter().map(|b| b.task_ms).collect::<Vec<_>>()),
    );

    // `Recorder` is on for the whole traced run; the reference repetition
    // passes a recorder that is off so that it measures the untraced cost.
    let off = Recorder::new(false);
    let reference = w.rep(Mode::Measured, At::root(&off));
    checked.absorb(&reference, Some(rep0), "reference repetition");

    alloc::start();
    let (span, inside) = At::root(rec).open("traced-repetition");
    let rep = w.rep(Mode::Traced, inside);
    inside.close(span);
    let allocs = alloc::stop();
    checked.absorb(&rep, Some(rep0), "traced repetition");

    m.set(
        "obs.trace.overhead_pct",
        (rep.work_s - reference.work_s) / reference.work_s.max(1e-9) * 100.0,
    );
    m.note(
        "obs.trace.overhead_pct",
        format!(
            "traced {:.4} s vs untraced {:.4} s, one repetition each",
            rep.work_s, reference.work_s
        ),
    );
    let docs = rep.input_docs.max(1) as f64;
    m.set("alloc.count_per_input_doc", allocs.count as f64 / docs);
    m.set("alloc.bytes_per_input_doc", allocs.bytes as f64 / docs);
    m.set(
        "alloc.peak_live_mb",
        allocs.peak_live as f64 / (1024.0 * 1024.0),
    );
    for (name, v) in &rep.layer {
        m.set(name, *v);
    }

    let mut jt = JournalTimes::default();
    for (label, tracer) in &rep.journals {
        match journal_times(&tracer.events()) {
            Ok(t) => jt.merge(&t),
            Err(e) => checked
                .failures
                .push(format!("journal of {label} is malformed: {e}")),
        }
    }
    // The service's engines live inside the host: the benchmark can read
    // neither their journals nor their registries.
    if !rep.journals.is_empty() {
        journal_metrics(&jt, m);
        registry_metrics(&rep.registry, m);
    }

    layers::probe_all(
        w.corpus(),
        w.converged(),
        opts,
        At::root(rec),
        m,
        &mut checked.failures,
    );
    checked.failures.extend(w.probe_layers(At::root(rec), m));

    if let Err(e) = write_trace(opts, W::NAME, rec, &rep.journals) {
        checked
            .failures
            .push(format!("writing the trace file: {e}"));
    }
}

/// The engine's and the assistant's layers, by the wire names of their
/// spans. A name the journal no longer carries reads as 0.
fn journal_metrics(jt: &JournalTimes, m: &mut Metrics) {
    m.set("obs.trace.events", jt.events as f64);
    m.set("engine.run.self_ms", jt.self_ms("run"));
    m.set("engine.rule.self_ms", jt.self_ms("rule"));
    for op in [
        "scan_ext",
        "scan_rel",
        "from_extract",
        "constraint",
        "compare",
        "var_unify",
        "filter_proc",
        "generate_proc",
        "cross_join",
        "project",
        "annotate",
        "fused",
    ] {
        m.set(
            &format!("engine.op.self_ms.{op}"),
            jt.self_ms(&format!("operator:{op}")),
        );
    }
    m.set(
        "engine.par.morsel_self_ms",
        jt.self_ms("morsel") + jt.self_ms("shard"),
    );
    m.set("assistant.question.self_ms", jt.self_ms("question"));
    m.set("assistant.probe.self_ms", jt.self_ms("probe"));
    m.set("assistant.probe.count", jt.spans("probe") as f64);
    m.set("assistant.iteration.count", jt.spans("iteration") as f64);
}

/// The engine's caches, executor and optimizer, by the string names of
/// their registry counters. A name the registry no longer carries reads
/// as 0 and is remarked on.
fn registry_metrics(reg: &BTreeMap<String, u64>, m: &mut Metrics) {
    let mut read = |metric: &str, source: &str, div: f64| -> f64 {
        let v = match reg.get(source) {
            Some(v) => *v as f64 / div,
            None => {
                m.note(metric, format!("registry has no counter {source:?}"));
                0.0
            }
        };
        m.set(metric, v);
        v
    };
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let hits = read("engine.memo.hits", "engine.feature_cache_hits", 1.0);
    let misses = read("engine.memo.misses", "engine.feature_cache_misses", 1.0);
    let incr_hits = read("engine.incr.hits", "engine.incr.hits", 1.0);
    let incr_misses = read("engine.incr.misses", "engine.incr.misses", 1.0);
    read(
        "engine.incr.invalidations",
        "engine.incr.invalidations",
        1.0,
    );
    read("engine.par.sections", "engine.par_sections", 1.0);
    read("engine.par.morsels", "engine.par.morsels", 1.0);
    read("engine.par.steals", "engine.par.steals", 1.0);
    read("engine.par.dispense_ms", "engine.par.dispense_us", 1e3);
    read("engine.opt.pushdowns", "engine.opt.pushdowns", 1.0);
    read("engine.opt.fused_nodes", "engine.opt.fused_nodes", 1.0);
    read("engine.rules_evaluated", "engine.rules_evaluated", 1.0);
    read("engine.tuples_scanned", "engine.tuples_scanned", 1.0);
    read(
        "engine.assignments_produced",
        "engine.assignments_produced",
        1.0,
    );
    read("engine.degradations", "engine.degradations", 1.0);
    m.set("engine.memo.hit_ratio", ratio(hits, misses));
    m.set("engine.incr.hit_ratio", ratio(incr_hits, incr_misses));
    // Busiest worker over the mean worker: 1 is perfectly balanced.
    let busy: Vec<f64> = reg
        .iter()
        .filter(|(k, _)| k.starts_with("engine.shard_busy_us."))
        .map(|(_, v)| *v as f64)
        .collect();
    let mean = stats::mean(&busy);
    let max = busy.iter().copied().fold(0.0, f64::max);
    m.set(
        "engine.par.busy_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
}

/// Writes the benchmark's spans followed by every engine journal.
fn write_trace(
    opts: &Opts,
    workload: &str,
    rec: &Recorder,
    journals: &[(String, Tracer)],
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join(format!("{workload}.trace.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    out.write_all(rec.to_jsonl().as_bytes())?;
    for (label, tracer) in journals {
        writeln!(
            out,
            "{{\"src\":\"engine\",\"journal\":\"{}\",\"events\":{}}}",
            iflex::engine::obs::json_escape(label),
            tracer.recorded()
        )?;
        out.write_all(tracer.to_jsonl().as_bytes())?;
    }
    out.flush()?;
    println!("trace written to {}", path.display());
    Ok(())
}
