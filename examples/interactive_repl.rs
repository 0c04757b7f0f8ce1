//! An interactive iFlex shell, now a **thin client** of the multi-session
//! service: every command is serialized to one JSON-lines protocol
//! request, handed to an in-process [`iflex_service::Host`], and the
//! response is pretty-printed. The same requests work verbatim against
//! `cargo run -p iflex-service --bin service -- --tcp 127.0.0.1:7878`.
//!
//! Run with: `cargo run --release -p iflex-examples --bin interactive_repl`
//!
//! Commands:
//!
//! ```text
//! .help                 show help
//! .ask [n]              ask the assistant for the next n questions
//! .answer <attr> <feature> <value>   fold an answer in (e.g.
//!                       .answer extractTitle.t bold-font yes)
//! .run [limit]          execute the program, show the result table
//! .cancel               cancel the in-flight run
//! .stats                service counters
//! .raw <json>           send a raw protocol line
//! .quit                 exit (drains the session gracefully)
//! ```

use iflex::prelude::*;
use iflex_corpus::{Corpus, CorpusConfig};
use iflex_service::{Host, Json, ServiceConfig};
use std::io::{BufRead, Write};

const PROGRAM: &str = "q(x, title) :- imdb(x), extractTitle(#x, title).\n\
                       extractTitle(#x, t) :- from(#x, t), bold-font(t) = yes.\n";

/// Renders a response for humans: the result table verbatim, everything
/// else as compact JSON.
fn show(resp: &Json) {
    if let Some(table) = resp.get("table").and_then(Json::as_str) {
        print!("{table}");
        println!(
            "{} compact tuples / {} expanded{}",
            resp.get("tuples").and_then(Json::as_u64).unwrap_or(0),
            resp.get("expanded").and_then(Json::as_u64).unwrap_or(0),
            if resp.get("degraded") == Some(&Json::Bool(true)) {
                " (degraded: superset-safe widening applied)"
            } else {
                ""
            }
        );
        return;
    }
    if let Some(Json::Arr(qs)) = resp.get("questions") {
        if qs.is_empty() {
            println!("the question space is exhausted");
        }
        for q in qs {
            println!(
                "  [{} {}] {}",
                q.get("attr").and_then(Json::as_str).unwrap_or("?"),
                q.get("feature").and_then(Json::as_str).unwrap_or("?"),
                q.get("text").and_then(Json::as_str).unwrap_or("")
            );
        }
        return;
    }
    println!("{}", resp.render());
}

fn main() {
    println!("iFlex shell — thin client over the multi-session service\n");
    let corpus = Corpus::build(CorpusConfig::tiny());
    let mut engine = Engine::new(corpus.store.clone());
    let imdb: Vec<_> = corpus.movies.imdb.iter().map(|(d, _)| *d).collect();
    let ebert: Vec<_> = corpus.movies.ebert.iter().map(|(d, _)| *d).collect();
    engine.add_doc_table("imdb", &imdb);
    engine.add_doc_table("ebert", &ebert);
    let host = Host::new(engine.into_core(), PROGRAM, ServiceConfig::default());

    // The client side: one session over the wire protocol.
    let send = |line: &str| host.handle_line(line);
    let created = send(r#"{"cmd":"create-session","id":"repl"}"#);
    let Some(sid) = created.get("session").and_then(Json::as_u64) else {
        eprintln!("could not create a session: {}", created.render());
        return;
    };
    println!("session {sid} created (warm cache entries: {})", created
        .get("warm_entries")
        .and_then(Json::as_u64)
        .unwrap_or(0));
    println!("type .help for commands\n");

    let stdin = std::io::stdin();
    loop {
        print!("iflex> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        let mut parts = line.split_whitespace();
        match parts.next().unwrap_or("") {
            "" => continue,
            ".quit" | ".exit" => break,
            ".help" => println!(
                ".ask [n] | .answer <attr> <feature> <value> | .run [limit] | \
                 .cancel | .stats | .raw <json> | .quit"
            ),
            ".ask" => {
                let n: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1);
                show(&send(&format!(
                    r#"{{"cmd":"ask-question","session":{sid},"count":{n}}}"#
                )));
            }
            ".answer" => {
                let (Some(attr), Some(feature), Some(value)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    println!("usage: .answer <attr> <feature> <value>");
                    continue;
                };
                show(&send(&format!(
                    r#"{{"cmd":"answer","session":{sid},"attr":"{attr}","feature":"{feature}","value":"{value}"}}"#
                )));
            }
            ".run" => {
                let limit: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(8);
                show(&send(&format!(
                    r#"{{"cmd":"get-results","session":{sid},"limit":{limit}}}"#
                )));
            }
            ".cancel" => show(&send(&format!(r#"{{"cmd":"cancel","session":{sid}}}"#))),
            ".stats" => show(&send(r#"{"cmd":"stats"}"#)),
            ".raw" => {
                let raw = line.strip_prefix(".raw").unwrap_or("").trim();
                show(&send(raw));
            }
            other => println!("unrecognized command {other:?} (try .help)"),
        }
    }
    let closed = send(&format!(r#"{{"cmd":"close-session","session":{sid}}}"#));
    println!(
        "session closed (cache published: {})",
        closed.get("published") == Some(&Json::Bool(true))
    );
}
