//! Run budgets: wall-clock deadlines and cooperative cancellation.
//!
//! A [`RunBudget`] is attached to the engine and describes how long a run
//! may take; [`RunBudget::start`] arms a [`RunClock`] that operators probe
//! at loop boundaries. Expiry never aborts a run outright — the engine
//! records a degradation and substitutes a superset-safe widened result
//! (see `exec.rs`), which is the paper's best-effort contract extended to
//! the time axis.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a rule's evaluation was degraded instead of completed exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeCause {
    /// A materialization/enumeration budget ([`crate::Limits`]) overflowed.
    Budget,
    /// The run's wall-clock deadline expired.
    Deadline,
    /// The run was cancelled through its [`CancelToken`].
    Cancelled,
    /// The rule's evaluation panicked and was contained at the rule
    /// boundary.
    RulePanic,
}

impl DegradeCause {
    /// Stable machine-readable identifier for the `degradation` trace
    /// instant and the flight recorder: no spaces, lowercase.
    pub fn slug(self) -> &'static str {
        match self {
            DegradeCause::Budget => "budget",
            DegradeCause::Deadline => "deadline",
            DegradeCause::Cancelled => "cancelled",
            DegradeCause::RulePanic => "rule_panic",
        }
    }
}

impl fmt::Display for DegradeCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeCause::Budget => write!(f, "budget"),
            DegradeCause::Deadline => write!(f, "deadline"),
            DegradeCause::Cancelled => write!(f, "cancelled"),
            DegradeCause::RulePanic => write!(f, "rule panic"),
        }
    }
}

/// A cloneable flag for cooperative cancellation: hand a clone to another
/// thread, call [`CancelToken::cancel`], and the engine degrades the rest
/// of the run at its next operator boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Clears the flag so the token can be reused for the next run.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

/// The time budget of one engine run.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Wall-clock allowance for a single run; `None` means unlimited.
    pub deadline: Option<Duration>,
    cancel: CancelToken,
}

impl RunBudget {
    /// No deadline, not cancellable from outside (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget with the given wall-clock deadline per run.
    pub fn with_deadline(deadline: Duration) -> Self {
        RunBudget {
            deadline: Some(deadline),
            cancel: CancelToken::new(),
        }
    }

    /// A clone of the budget's cancellation token, to be triggered from
    /// another thread.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Arms a clock for one run starting now.
    pub fn start(&self) -> RunClock {
        RunClock {
            deadline_at: self.deadline.map(|d| Instant::now() + d),
            cancel: self.cancel.clone(),
            tripped: AtomicBool::new(false),
            tick: AtomicU32::new(0),
        }
    }
}

/// How many [`RunClock::tick`] calls are amortized into one wall-clock
/// read.
const TICK_STRIDE: u32 = 1024;

/// A per-run armed clock. `Sync`, so parallel join workers sharing the
/// engine can probe it.
#[derive(Debug)]
pub struct RunClock {
    deadline_at: Option<Instant>,
    cancel: CancelToken,
    /// Latched once expiry/cancellation has been observed; lets hot paths
    /// ask "already expired?" without reading the wall clock again.
    tripped: AtomicBool,
    tick: AtomicU32,
}

impl RunClock {
    /// A clock that never expires (engine default before any run).
    pub fn unlimited() -> Self {
        RunBudget::unlimited().start()
    }

    /// Reads the wall clock and the cancellation flag.
    pub fn expired(&self) -> Option<DegradeCause> {
        if self.cancel.is_cancelled() {
            self.tripped.store(true, Ordering::Relaxed);
            return Some(DegradeCause::Cancelled);
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                self.tripped.store(true, Ordering::Relaxed);
                return Some(DegradeCause::Deadline);
            }
        }
        None
    }

    /// True once expiry has been observed by any prior probe. Never reads
    /// the wall clock — the cheap question for per-tuple paths.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// Full check: `Err(cause)` when the run should degrade.
    pub fn check(&self) -> Result<(), DegradeCause> {
        match self.expired() {
            Some(c) => Err(c),
            None => Ok(()),
        }
    }

    /// Amortized check for inner loops: only every `TICK_STRIDE`-th call
    /// (and the first) reads the wall clock.
    pub fn tick(&self) -> Result<(), DegradeCause> {
        let n = self.tick.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(TICK_STRIDE) {
            if self.tripped() {
                return self.check();
            }
            return Ok(());
        }
        self.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let clock = RunClock::unlimited();
        for _ in 0..5000 {
            assert!(clock.tick().is_ok());
        }
        assert!(clock.check().is_ok());
        assert!(!clock.tripped());
    }

    #[test]
    fn deadline_expires_and_latches() {
        let budget = RunBudget::with_deadline(Duration::from_millis(0));
        let clock = budget.start();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.check(), Err(DegradeCause::Deadline));
        assert!(clock.tripped());
    }

    #[test]
    fn cancel_token_cooperates() {
        let budget = RunBudget::unlimited();
        let token = budget.cancel_token();
        let clock = budget.start();
        assert!(clock.check().is_ok());
        token.cancel();
        assert_eq!(clock.check(), Err(DegradeCause::Cancelled));
        token.reset();
        assert!(budget.start().check().is_ok());
    }

    #[test]
    fn tick_detects_expiry_within_a_stride() {
        let budget = RunBudget::with_deadline(Duration::from_millis(0));
        let clock = budget.start();
        std::thread::sleep(Duration::from_millis(2));
        let mut saw = false;
        for _ in 0..2 * TICK_STRIDE {
            if clock.tick().is_err() {
                saw = true;
                break;
            }
        }
        assert!(saw, "expiry must surface within one stride");
    }
}
