//! Per-layer probes: direct timings of the public functions of each crate
//! below the engine, and of the engine's public calls. They run only in the
//! traced run, over documents drawn (by `--seed`) from the workload's own
//! corpus, and call nothing outside the allow-listed API.

use crate::report::Metrics;
use crate::spans::At;
use crate::sys::Rng;
use crate::workloads::extract::{cold_run, probe_programs, Converged};
use crate::workloads::Opts;
use crate::{alloc, stats};
use iflex::alog::{parse_program, unfold};
use iflex::ctable::{Assignment, Cell, CompactTable, CompactTuple, Value};
use iflex::engine::Sample;
use iflex::features::{FeatureArg, FeatureRegistry, FeatureValue};
use iflex::pattern::Pattern;
use iflex::text::{markup, tokenize, Document, Span};
use iflex_corpus::{Corpus, TaskId};
use iflex_service::json::{self, Json};
use iflex_service::protocol::decode;
use std::hint::black_box;
use std::time::Instant;

/// Documents each probe samples (a tenth in `--smoke`).
const SAMPLE_DOCS: usize = 2_000;
/// Tuples of the `ctable` probe's table.
const TABLE_TUPLES: usize = 20_000;

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Re-serialises a parsed document to the mini-HTML it could have come
/// from: its formatting runs become tags again.
fn to_markup(doc: &Document) -> String {
    let text = doc.text();
    let mut out = String::with_capacity(text.len() * 2);
    let escape = |out: &mut String, s: &str| {
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                c => out.push(c),
            }
        }
    };
    let tags = [
        (markup::style::BOLD, "b"),
        (markup::style::ITALIC, "i"),
        (markup::style::UNDERLINE, "u"),
    ];
    let mut cursor = 0usize;
    for run in doc.runs() {
        let (start, end) = (run.start as usize, run.end as usize);
        if start < cursor || end > text.len() {
            continue;
        }
        escape(&mut out, &text[cursor..start]);
        for (flag, tag) in tags {
            if run.flags & flag != 0 {
                out.push_str(&format!("<{tag}>"));
            }
        }
        escape(&mut out, &text[start..end]);
        for (flag, tag) in tags.iter().rev() {
            if run.flags & flag != 0 {
                out.push_str(&format!("</{tag}>"));
            }
        }
        cursor = end;
    }
    escape(&mut out, &text[cursor..]);
    out
}

/// Runs every probe and records its metric.
pub fn probe_all(
    corpus: &Corpus,
    converged: Option<&[Converged]>,
    opts: &Opts,
    at: At,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let n_docs = if opts.smoke {
        SAMPLE_DOCS / 10
    } else {
        SAMPLE_DOCS
    };
    let mut rng = Rng::new(opts.seed, 2);
    let store = &corpus.store;
    let all: Vec<&Document> = store.iter().collect();
    let docs: Vec<&Document> = (0..n_docs).map(|_| all[rng.below(all.len())]).collect();
    at.scope("probe:text", || text(&docs, m));
    at.scope("probe:pattern", || pattern(&docs, m, failures));
    at.scope("probe:features", || {
        features(corpus, &docs, &mut rng, m, failures)
    });
    at.scope("probe:ctable", || ctable(corpus, &docs, opts, m));
    at.scope("probe:alog", || alog(corpus, m, failures));
    at.scope("probe:service-codec", || service_codec(m, failures));
    at.scope("probe:engine", || match converged {
        Some(programs) => engine(corpus, programs, opts, at, m, failures),
        None => engine(corpus, &probe_programs(corpus), opts, at, m, failures),
    });
}

fn text(docs: &[&Document], m: &mut Metrics) {
    let sources: Vec<String> = docs.iter().map(|d| to_markup(d)).collect();
    let bytes: usize = sources.iter().map(String::len).sum();
    let t = secs(|| {
        for s in &sources {
            black_box(markup::parse(black_box(s)));
        }
    });
    m.set(
        "text.markup.parse_mb_per_s",
        bytes as f64 / 1e6 / t.max(1e-9),
    );

    let bytes: usize = docs.iter().map(|d| d.text().len()).sum();
    let t = secs(|| {
        for d in docs {
            black_box(tokenize(black_box(d.text())));
        }
    });
    m.set("text.tokenize.mb_per_s", bytes as f64 / 1e6 / t.max(1e-9));

    // Sub-span enumeration is quadratic in tokens; a window of 30 tokens
    // is the size of one record's candidate region.
    let mut produced = 0u64;
    let t = secs(|| {
        for d in docs {
            let tokens = d.tokens();
            let Some((start, end)) = tokens.cover(0..tokens.len().min(30)) else {
                continue;
            };
            produced += black_box(tokens.subspans(start, end)).count() as u64;
        }
    });
    m.set("text.subspans.m_per_s", produced as f64 / 1e6 / t.max(1e-9));
}

const PATTERNS: [&str; 6] = [
    "[A-Z][A-Z]+",
    "0\\d|19\\d\\d|20\\d\\d",
    "\\d+(\\.\\d+)?",
    "[A-Z][a-z]+ [A-Z][a-z]+",
    "(Mr|Ms|Dr)\\.? [A-Z]\\w+",
    "\\$\\d+\\.\\d\\d",
];

fn pattern(docs: &[&Document], m: &mut Metrics, failures: &mut Vec<String>) {
    const ROUNDS: usize = 50;
    let t = secs(|| {
        for _ in 0..ROUNDS {
            for p in PATTERNS {
                black_box(Pattern::new(black_box(p)).is_ok());
            }
        }
    });
    m.set(
        "pattern.compile.us",
        t * 1e6 / (ROUNDS * PATTERNS.len()) as f64,
    );

    let Ok(number) = Pattern::new(PATTERNS[2]) else {
        failures.push(format!("pattern {:?} does not compile", PATTERNS[2]));
        return;
    };
    let bytes: usize = docs.iter().map(|d| d.text().len()).sum();
    let t = secs(|| {
        for d in docs {
            black_box(number.find_iter(black_box(d.text())).count());
        }
    });
    m.set("pattern.match.ns_per_byte", t * 1e9 / bytes.max(1) as f64);

    // Single-threaded allocation counts must repeat exactly.
    let calls = docs.len().min(200);
    let count = || {
        alloc::counted(|| {
            for d in &docs[..calls] {
                black_box(number.is_match(black_box(d.text())));
            }
        })
        .1
        .count
    };
    let (first, second) = (count(), count());
    if first != second {
        failures.push(format!(
            "pattern match allocation count did not repeat: {first} then {second}"
        ));
    }
    m.set(
        "pattern.match.allocs_per_call",
        first as f64 / calls.max(1) as f64,
    );
}

/// One feature per family of the features crate.
const FAMILIES: [(&str, &str); 6] = [
    ("style", "bold-font"),
    ("numeric", "numeric"),
    ("shape", "capitalized"),
    ("context", "preceded-by"),
    ("structure", "in-title"),
    ("pattern", "starts-with"),
];

fn family_arg(family: &str) -> FeatureArg {
    match family {
        "style" => FeatureArg::Tri(FeatureValue::DistinctYes),
        "context" => FeatureArg::Text("by".into()),
        "pattern" => FeatureArg::Text(PATTERNS[0].into()),
        _ => FeatureArg::Tri(FeatureValue::Yes),
    }
}

fn features(
    corpus: &Corpus,
    docs: &[&Document],
    rng: &mut Rng,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let store = &corpus.store;
    let registry = FeatureRegistry::default();
    // Candidate values: token-aligned spans of one to three tokens.
    let mut spans: Vec<Span> = Vec::new();
    for d in docs {
        let tokens = d.tokens();
        if tokens.is_empty() {
            continue;
        }
        for _ in 0..4 {
            let first = rng.below(tokens.len());
            let last = (first + 1 + rng.below(3)).min(tokens.len());
            if let Some((start, end)) = tokens.cover(first..last) {
                spans.push(Span::new(d.id(), start, end));
            }
        }
    }
    let (mut refined, mut refine_calls) = (0u64, 0u64);
    for (family, name) in FAMILIES {
        let Ok(feature) = registry.get(name) else {
            failures.push(format!("feature {name:?} is not registered"));
            continue;
        };
        let arg = family_arg(family);
        let t = secs(|| {
            for s in &spans {
                black_box(feature.verify(store, *s, &arg).unwrap_or(false));
            }
        });
        m.set(
            &format!("features.verify.ns_per_call.{family}"),
            t * 1e9 / spans.len().max(1) as f64,
        );
        let t = secs(|| {
            for d in docs {
                let found = feature
                    .refine(store, d.full_span(), &arg)
                    .map_or(0, |a| a.len());
                refined += black_box(found) as u64;
            }
        });
        refine_calls += docs.len() as u64;
        m.set(
            &format!("features.refine.ns_per_call.{family}"),
            t * 1e9 / docs.len().max(1) as f64,
        );
    }
    m.set(
        "features.refine.assignments_per_call",
        refined as f64 / refine_calls.max(1) as f64,
    );
}

fn ctable(corpus: &Corpus, docs: &[&Document], opts: &Opts, m: &mut Metrics) {
    let store = &corpus.store;
    let n = if opts.smoke {
        TABLE_TUPLES / 10
    } else {
        TABLE_TUPLES
    };
    let spans: Vec<Span> = docs.iter().map(|d| d.full_span()).collect();
    if spans.is_empty() {
        return;
    }
    let mut table = CompactTable::new(vec!["doc".into(), "value".into(), "rank".into()]);
    let t = secs(|| {
        for i in 0..n {
            let span = spans[i % spans.len()];
            table.push(CompactTuple::new(vec![
                Cell::exact(Value::Span(span)),
                Cell::expansion(vec![Assignment::Contain(span)]),
                Cell::exact(Value::Num(i as f64)),
            ]));
        }
    });
    m.set("ctable.build.ns_per_tuple", t * 1e9 / n as f64);
    let t = secs(|| {
        black_box(table.expanded_len(store));
    });
    m.set("ctable.expanded_len.ns_per_tuple", t * 1e9 / n as f64);
    let t = secs(|| {
        black_box(table.stats());
    });
    m.set("ctable.stats.ns_per_tuple", t * 1e9 / n as f64);
    let rows = 200.min(n);
    let t = secs(|| {
        black_box(table.render(store, rows));
    });
    m.set("ctable.render.us_per_row", t * 1e6 / rows as f64);
}

fn alog(corpus: &Corpus, m: &mut Metrics, failures: &mut Vec<String>) {
    const ROUNDS: usize = 20;
    let programs: Vec<_> = TaskId::TABLE2
        .iter()
        .chain(TaskId::DBLIFE.iter())
        .map(|&id| corpus.task(id, Some(10)).program)
        .collect();
    let sources: Vec<String> = programs.iter().map(|p| p.to_string()).collect();
    let calls = (ROUNDS * programs.len()) as f64;
    let mut reparsed = true;
    let t = secs(|| {
        for _ in 0..ROUNDS {
            for s in &sources {
                reparsed &= black_box(parse_program(black_box(s))).is_ok();
            }
        }
    });
    if !reparsed {
        failures.push("a task program does not parse back from its own display".into());
    }
    m.set("alog.parse.us_per_program", t * 1e6 / calls);
    let t = secs(|| {
        for _ in 0..ROUNDS {
            for p in &programs {
                black_box(unfold(black_box(p)));
            }
        }
    });
    m.set("alog.unfold.us_per_program", t * 1e6 / calls);
    let t = secs(|| {
        for _ in 0..ROUNDS {
            for p in &programs {
                black_box(p.to_string());
            }
        }
    });
    m.set("alog.display.us_per_program", t * 1e6 / calls);
}

fn service_codec(m: &mut Metrics, failures: &mut Vec<String>) {
    const ROUNDS: usize = 200;
    let requests = [
        r#"{"cmd":"create-session","id":"c1","program":"q(x, <v>) :- pages(x), extractV(#x, v).\nextractV(#x, v) :- from(#x, v), numeric(v) = yes.\n"}"#,
        r#"{"cmd":"ask-question","session":3,"count":2}"#,
        r#"{"cmd":"answer","session":3,"attr":"extractV.v","feature":"preceded-by","value":"List: $"}"#,
        r#"{"cmd":"get-results","session":3,"limit":10}"#,
        r#"{"cmd":"close-session","session":3}"#,
        r#"{"cmd":"stats"}"#,
    ];
    // A reply the size of a ten-row `get-results`.
    let row = "{\"Database Systems: The Complete Book\"} | {\"List: $\", \"89.99\", …}\n";
    let reply = Json::obj(vec![
        ("id", Json::str("c1")),
        ("ok", Json::Bool(true)),
        ("table", Json::str(row.repeat(10))),
        ("tuples", Json::num(7470)),
        ("expanded", Json::num(7470)),
        ("degradations", Json::num(0)),
        ("degraded", Json::Bool(false)),
    ]);
    let rendered = reply.render();
    let mut ok = true;
    let t = secs(|| {
        for _ in 0..ROUNDS {
            ok &= black_box(json::parse(black_box(&rendered))).is_ok();
        }
    });
    m.set("service.json.parse_us", t * 1e6 / ROUNDS as f64);
    let t = secs(|| {
        for _ in 0..ROUNDS {
            black_box(black_box(&reply).render());
        }
    });
    m.set("service.json.render_us", t * 1e6 / ROUNDS as f64);
    let t = secs(|| {
        for _ in 0..ROUNDS {
            for r in requests {
                ok &= black_box(decode(black_box(r))).is_ok();
            }
        }
    });
    m.set(
        "service.protocol.decode_us",
        t * 1e6 / (ROUNDS * requests.len()) as f64,
    );
    if !ok {
        failures.push("the service codec rejected one of the probe's own lines".into());
    }
}

/// The engine through its public calls: construction, a cold run per
/// converged program, the same program again on the same engine (every
/// cache probe hits), a sampled run, and EXPLAIN.
fn engine(
    corpus: &Corpus,
    programs: &[Converged],
    opts: &Opts,
    at: At,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let (mut construct, mut warm, mut sampled, mut explain) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for c in programs {
        let name = c.task.id.name();
        construct.push(
            secs(|| {
                black_box(c.task.engine(corpus));
            }) * 1e3,
        );
        let mut run = cold_run(corpus, c, None, false, at);
        if run.result.is_err() {
            failures.push(format!("engine probe: cold run of {name} failed"));
            continue;
        }
        let cold = format!("engine.run.cold_ms.{name}");
        if m.get(&cold).is_none() {
            m.set(&cold, run.wall_s * 1e3);
        }
        warm.push(
            secs(|| {
                black_box(run.engine.run(&c.program).is_ok());
            }) * 1e3,
        );
        explain.push(
            secs(|| {
                black_box(run.engine.explain(&c.program).is_ok());
            }) * 1e3,
        );
        let mut fresh = c.task.engine(corpus);
        sampled.push(
            secs(|| {
                black_box(
                    fresh
                        .run_sampled(&c.program, Sample::new(0.05, opts.seed))
                        .is_ok(),
                );
            }) * 1e3,
        );
    }
    m.set("engine.construct.ms", stats::median(&construct));
    m.set("engine.run.warm_ms", stats::median(&warm));
    m.set("engine.run_sampled.cold_ms", stats::median(&sampled));
    m.set("engine.explain.ms", stats::median(&explain));

    // One worker thread: the allocation count of a cold run must repeat.
    let Some(c) = programs.iter().min_by_key(|c| c.task.id) else {
        return;
    };
    let count = || {
        alloc::counted(|| cold_run(corpus, c, Some(1), false, at).result.is_ok())
            .1
            .count
    };
    let (first, second) = (count(), count());
    if first != second {
        failures.push(format!(
            "serial Engine::run of {} allocated {first} then {second} times",
            c.task.id.name()
        ));
    }
    m.set("alloc.engine_serial_run.count", first as f64);
}
