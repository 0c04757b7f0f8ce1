//! # iflex-service
//!
//! A resilient multi-session iFlex server. Many concurrent development
//! sessions (§2.2.4's execute → examine → refine loop) share one
//! immutable document store and the warm incremental rule cache
//! through an
//! [`iflex_engine::EngineCore`], while a bulkhead-per-session worker
//! model keeps every tenant's faults —
//! panics, budget overflows, deadline expiry, injected chaos — strictly
//! contained: siblings produce byte-identical results to a solo run.
//!
//! The wire protocol is JSON lines over stdio or TCP ([`protocol`],
//! [`server`]); resilience policy (admission control, bounded-queue
//! backpressure, watchdog cancellation, graceful drain) lives in
//! [`host`]; the seeded fault-matrix harness that proves the isolation
//! claims is [`chaos`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod host;
pub mod json;
pub mod protocol;
pub mod server;

pub use chaos::{run_matrix, ChaosReport};
pub use host::{FlightDump, Host, ServiceConfig};
pub use json::Json;
pub use protocol::{decode, Request};
pub use server::{serve_lines, serve_stdio, serve_tcp, Client};

/// Shared demo fixtures: a tiny synthetic corpus and program used by the
/// chaos harness, the `--smoke` gate, and the crate's own tests. Kept in
/// the library (not `#[cfg(test)]`) so the binary and integration tests
/// replay exactly the same workload.
pub mod fixture {
    use iflex_engine::{Engine, EngineCore};
    use iflex_text::DocumentStore;
    use std::sync::Arc;

    /// The demo program: extract the bold numeric value of each page.
    pub const PROGRAM: &str = "q(x, <v>) :- pages(x), extractV(#x, v).\n\
                               extractV(#x, v) :- from(#x, v), numeric(v) = yes.\n";

    /// The attribute the canonical workload answers about.
    pub const ANSWER_ATTR: &str = "extractV.v";

    /// Five small marked-up pages behind a shared core.
    pub fn tiny_core() -> EngineCore {
        tiny_engine().into_core()
    }

    /// [`tiny_core`] configured to maximize work-stealing: a worker pool
    /// and pathological one-tuple morsels, so the `engine.par_steal`
    /// fault site is actually reachable. Results must still be
    /// byte-identical to the serial [`tiny_core`] — parallelism is a
    /// pure performance lever, never a semantic one.
    pub fn stealing_core() -> EngineCore {
        let mut engine = tiny_engine();
        engine.limits.threads = 4;
        engine.limits.morsel_tuples = (1, 2);
        engine.into_core()
    }

    fn tiny_engine() -> Engine {
        let mut store = DocumentStore::new();
        let mut ids = Vec::new();
        for i in 0..5 {
            ids.push(store.add_markup(&format!(
                "pad {} <b>{}</b> tail {}",
                i * 3 + 1,
                (i + 1) * 100,
                i * 7 + 2
            )));
        }
        let mut engine = Engine::new(Arc::new(store));
        engine.add_doc_table("pages", &ids);
        engine
    }
}
