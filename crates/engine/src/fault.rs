//! Deterministic, seeded fault injection for robustness testing.
//!
//! A [`FaultPlan`] arms named sites in the engine (and the corpus loader)
//! with faults — budget overflows, deadline expiry, rule panics, I/O
//! errors — that fire on a chosen hit count or with a seeded probability.
//! The plan is a cheap cloneable handle: clones share state, so one plan
//! can drive both the engine and `iflex::io`. An unarmed plan costs one
//! relaxed atomic load per probe.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The named injection sites.
pub mod site {
    /// Before each rule's evaluation in the engine's run loop.
    pub const EVAL_RULE: &str = "engine.eval_rule";
    /// Inside the tuple-pair loop of the join operators (cross, fused,
    /// similarity).
    pub const JOIN_TUPLE: &str = "engine.join_tuple";
    /// Per input tuple of a generator procedure.
    pub const GENERATOR: &str = "engine.generator";
    /// At the entry of the ψ annotation operator.
    pub const ANNOTATE: &str = "engine.annotate";
    /// Per file read by the corpus loader.
    pub const IO_READ: &str = "core.io.read";
    /// Per stolen morsel in the work-stealing executor, probed at the
    /// moment a participant begins a range it took from another
    /// participant's segment. A panic here unwinds the thief mid-steal —
    /// the worst spot for the dispenser's bookkeeping — and must still be
    /// contained as a per-rule degradation.
    pub const PAR_STEAL: &str = "engine.par_steal";
    /// Per rule-result lookup in the incremental rule cache (`Engine::run`
    /// consults it before evaluating a rule; a fault here degrades just
    /// that rule, exactly like an evaluation failure). The site name
    /// predates the rule cache's name and is kept so fault plans and chaos
    /// scenarios written against it stay valid.
    pub const MEMO_LOOKUP: &str = "engine.memo_lookup";
    /// Per session-spawn attempt in the multi-session service (worker
    /// thread creation + engine fork).
    pub const SESSION_SPAWN: &str = "service.session_spawn";
    /// Per job taken off a session worker's queue, inside the bulkhead's
    /// `catch_unwind`. Arming [`crate::Fault::Panic`] here kills the job
    /// from the worker's own frame — the hard-crash case the bulkhead
    /// and the flight recorder exist for.
    pub const WORKER_JOB: &str = "service.worker_job";
    /// Per protocol request decoded from the wire by the service.
    pub const REQUEST_DECODE: &str = "service.request_decode";
    /// Per protocol response written to the wire by the service.
    pub const RESPONSE_WRITE: &str = "service.response_write";
    /// At the cross-session cache hand-off points of the service: forking
    /// a warm cache into a new session and publishing a session's entries
    /// back to the shared core.
    pub const CACHE_SHARE: &str = "service.cache_share";
}

/// What an armed site does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Report a budget overflow (`EngineError::TooLarge`).
    TooLarge,
    /// Behave as if the run's wall-clock deadline expired.
    DeadlineExpired,
    /// Panic with the given message (must be contained at the rule
    /// boundary — the process may never abort).
    Panic(String),
    /// An I/O error with the given message (corpus loading).
    Io(String),
}

/// When an armed site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire exactly once, on the `n`-th probe of the site (0-based).
    Nth(u64),
    /// Fire on every probe.
    Always,
    /// Fire per probe with the given per-mille probability, drawn from a
    /// deterministic stream seeded at arm time.
    PerMille(u32),
}

#[derive(Debug)]
struct Arm {
    site: &'static str,
    trigger: Trigger,
    fault: Fault,
    hits: u64,
    fired: u64,
    rng: u64,
}

/// splitmix64: small, deterministic, dependency-free.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Arm {
    fn probe(&mut self) -> Option<Fault> {
        let hit = self.hits;
        self.hits += 1;
        let fires = match self.trigger {
            Trigger::Nth(n) => hit == n,
            Trigger::Always => true,
            Trigger::PerMille(p) => (next_rand(&mut self.rng) % 1000) < u64::from(p),
        };
        if fires {
            self.fired += 1;
            Some(self.fault.clone())
        } else {
            None
        }
    }
}

/// A shared fault-injection plan. The default plan is disarmed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    armed: Arc<AtomicBool>,
    arms: Arc<Mutex<Vec<Arm>>>,
    last_fired: Arc<Mutex<Option<&'static str>>>,
}

impl FaultPlan {
    /// A disarmed plan (what every engine starts with).
    pub fn disarmed() -> Self {
        Self::default()
    }

    /// Arms `site` with `fault`, firing per `trigger`. Probabilistic
    /// triggers draw from a stream seeded with `seed`, so a plan replays
    /// identically run after run.
    pub fn arm(&self, site: &'static str, trigger: Trigger, fault: Fault, seed: u64) {
        let mut arms = self.arms.lock().expect("fault plan lock");
        arms.push(Arm {
            site,
            trigger,
            fault,
            hits: 0,
            fired: 0,
            rng: seed ^ 0x5851_f42d_4c95_7f2d,
        });
        self.armed.store(true, Ordering::Release);
    }

    /// Removes every arm and resets the fast path to "disarmed".
    pub fn disarm_all(&self) {
        let mut arms = self.arms.lock().expect("fault plan lock");
        arms.clear();
        self.armed.store(false, Ordering::Release);
    }

    /// True when at least one site is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Probes `site`: counts the hit on every matching arm and returns the
    /// first fault that fires. The unarmed fast path is one atomic load.
    pub fn hit(&self, site: &str) -> Option<Fault> {
        if !self.is_armed() {
            return None;
        }
        let mut arms = self.arms.lock().expect("fault plan lock");
        let mut fired = None;
        let mut fired_site = None;
        for arm in arms.iter_mut().filter(|a| a.site == site) {
            let f = arm.probe();
            if fired.is_none() && f.is_some() {
                fired_site = Some(arm.site);
                fired = f;
            }
        }
        if fired_site.is_some() {
            *self.last_fired.lock().expect("fault plan lock") = fired_site;
        }
        fired
    }

    /// Takes (and clears) the site of the most recently fired fault.
    ///
    /// The engine calls this when it records a [`crate::Degradation`] so
    /// the record can name the injection site that caused it. Attribution
    /// is best-effort: a run's worker threads share the plan, so under
    /// parallel execution the taken site is the last one fired by *any*
    /// worker, not necessarily the one that degraded this rule.
    pub fn take_last_fired(&self) -> Option<&'static str> {
        self.last_fired.lock().expect("fault plan lock").take()
    }

    /// How many times `site`'s arms have fired so far.
    pub fn fired_count(&self, site: &str) -> u64 {
        let arms = self.arms.lock().expect("fault plan lock");
        arms.iter().filter(|a| a.site == site).map(|a| a.fired).sum()
    }

    /// How many times `site` has been probed so far.
    pub fn hit_count(&self, site: &str) -> u64 {
        let arms = self.arms.lock().expect("fault plan lock");
        arms.iter()
            .filter(|a| a.site == site)
            .map(|a| a.hits)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_plan_never_fires() {
        let plan = FaultPlan::disarmed();
        assert!(!plan.is_armed());
        for _ in 0..100 {
            assert_eq!(plan.hit(site::EVAL_RULE), None);
        }
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::disarmed();
        plan.arm(site::EVAL_RULE, Trigger::Nth(2), Fault::TooLarge, 0);
        assert_eq!(plan.hit(site::EVAL_RULE), None);
        assert_eq!(plan.hit(site::EVAL_RULE), None);
        assert_eq!(plan.hit(site::EVAL_RULE), Some(Fault::TooLarge));
        assert_eq!(plan.hit(site::EVAL_RULE), None);
        assert_eq!(plan.fired_count(site::EVAL_RULE), 1);
        assert_eq!(plan.hit_count(site::EVAL_RULE), 4);
    }

    #[test]
    fn sites_are_independent() {
        let plan = FaultPlan::disarmed();
        plan.arm(site::JOIN_TUPLE, Trigger::Always, Fault::DeadlineExpired, 0);
        assert_eq!(plan.hit(site::EVAL_RULE), None);
        assert_eq!(
            plan.hit(site::JOIN_TUPLE),
            Some(Fault::DeadlineExpired)
        );
    }

    #[test]
    fn per_mille_stream_is_deterministic() {
        let collect = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::disarmed();
            plan.arm(site::IO_READ, Trigger::PerMille(300), Fault::Io("x".into()), seed);
            (0..64).map(|_| plan.hit(site::IO_READ).is_some()).collect()
        };
        assert_eq!(collect(42), collect(42));
        assert_ne!(collect(42), collect(43), "different seeds, different stream");
        let fires = collect(42).iter().filter(|&&b| b).count();
        assert!(fires > 0 && fires < 64, "p=0.3 should fire sometimes: {fires}");
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::disarmed();
        let other = plan.clone();
        plan.arm(site::ANNOTATE, Trigger::Nth(0), Fault::Panic("boom".into()), 0);
        assert!(other.is_armed());
        assert_eq!(other.hit(site::ANNOTATE), Some(Fault::Panic("boom".into())));
        assert_eq!(plan.fired_count(site::ANNOTATE), 1);
        other.disarm_all();
        assert!(!plan.is_armed());
    }
}
