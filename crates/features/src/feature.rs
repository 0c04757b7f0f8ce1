//! The [`Feature`] trait: `Verify` and `Refine` (§2.2.2, §4.2).
//!
//! To add a feature a developer implements only these two procedures —
//! done once, not per Alog program. `Verify(s, f, v)` checks `f(s) = v`;
//! `Refine(s, f, v)` returns all *maximal* sub-spans `t` of `s` with
//! `f(t) = v`, each as an `exact` or `contain` assignment depending on
//! whether sub-spans of the region still satisfy the constraint.

use crate::arg::{FeatureArg, FeatureError};
use iflex_ctable::{Assignment, Value};
use iflex_text::{DocumentStore, Span};

/// A text feature with its `Verify` / `Refine` procedures.
pub trait Feature: Send + Sync {
    /// The feature's name as written in Alog programs (`bold-font`, ...).
    fn name(&self) -> &'static str;

    /// Does `f(span) = arg` hold?
    fn verify(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<bool, FeatureError>;

    /// All maximal sub-spans of `span` satisfying `f(·) = arg`, encoded as
    /// assignments (`contain` when every token-aligned sub-span of the
    /// region also satisfies the constraint or when the region only bounds
    /// the value, `exact` when the region itself is the only candidate).
    fn refine(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<Vec<Assignment>, FeatureError>;

    /// Verifies the constraint against an arbitrary value. Span values use
    /// [`Feature::verify`]; other values default to *pass* (constraints on
    /// non-text constants are not this feature's business) unless a feature
    /// overrides (the numeric family does).
    fn verify_value(
        &self,
        store: &DocumentStore,
        value: &Value,
        arg: &FeatureArg,
    ) -> Result<bool, FeatureError> {
        match value {
            Value::Span(s) => self.verify(store, *s, arg),
            _ => Ok(false),
        }
    }

    /// Whether the refined regions of a `yes` answer should be *pruned
    /// further* by later constraints (true for every built-in).
    fn refinable(&self) -> bool {
        true
    }

    /// Human-readable question the next-effort assistant asks for this
    /// feature, e.g. `"is <attr> in bold font?"`.
    fn question(&self, attr: &str) -> String {
        format!("what is the value of {} for {attr}?", self.name())
    }
}

/// Helper for features whose argument must be tri-state.
pub fn expect_tri(
    feature: &'static str,
    arg: &FeatureArg,
) -> Result<crate::arg::FeatureValue, FeatureError> {
    arg.as_tri().ok_or(FeatureError::BadArg {
        feature: feature.to_string(),
        expected: "yes/distinct-yes/no",
    })
}

/// Helper for features whose argument must be numeric.
pub fn expect_num(feature: &'static str, arg: &FeatureArg) -> Result<f64, FeatureError> {
    arg.as_num().ok_or(FeatureError::BadArg {
        feature: feature.to_string(),
        expected: "number",
    })
}

/// Helper for features whose argument must be a string.
pub fn expect_text<'a>(
    feature: &'static str,
    arg: &'a FeatureArg,
) -> Result<&'a str, FeatureError> {
    arg.as_text().ok_or(FeatureError::BadArg {
        feature: feature.to_string(),
        expected: "string",
    })
}
