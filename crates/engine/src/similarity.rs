//! Token-based string similarity, the engine's stand-in for the paper's
//! TF/IDF `approxMatch` (§2.1: "'similar' according to some similarity
//! function (e.g., TF/IDF)").

use iflex_ctable::{Assignment, Cell};
use iflex_text::DocumentStore;
use std::collections::BTreeSet;

/// Lower-cases and splits into word/number tokens, dropping punctuation.
pub fn norm_tokens(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            cur.push(c.to_ascii_lowercase());
        } else if !cur.is_empty() {
            out.insert(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.insert(cur);
    }
    out
}

/// Jaccard similarity of normalized token sets.
pub fn jaccard(a: &str, b: &str) -> f64 {
    let ta = norm_tokens(a);
    let tb = norm_tokens(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    inter / union
}

/// Containment: |A ∩ B| / min(|A|, |B|). Robust to one string being a
/// fragment of the other ("Basktall HS" vs "Basktall").
pub fn containment(a: &str, b: &str) -> f64 {
    let ta = norm_tokens(a);
    let tb = norm_tokens(b);
    let smaller = ta.len().min(tb.len());
    if smaller == 0 {
        return 0.0;
    }
    let inter = ta.intersection(&tb).count() as f64;
    inter / smaller as f64
}

/// The default `similar` / `approxMatch` predicate: containment ≥ 0.8 with
/// at least one shared non-trivial token.
pub fn approx_match(a: &str, b: &str) -> bool {
    if a.trim().is_empty() || b.trim().is_empty() {
        return false;
    }
    containment(a, b) >= 0.8
}

/// A precomputed profile of one cell's text for the approximate string
/// join (the paper defers its full treatment to the tech report; we use a
/// token prefilter): the union of tokens the cell's values can draw from,
/// plus the exact text when the cell is a singleton.
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// The tokens.
    pub tokens: BTreeSet<String>,
    /// The value's text when the cell encodes exactly one value.
    pub singleton: Option<String>,
}

impl SimProfile {
    /// The profile of one cell: the tokens of every value it may encode
    /// (an `exact` value's text, a `contain` span's whole text).
    pub fn of(cell: &Cell, store: &DocumentStore) -> SimProfile {
        let mut tokens = BTreeSet::new();
        for a in cell.assignments() {
            match a {
                Assignment::Exact(v) => tokens.extend(norm_tokens(&v.as_text(store))),
                Assignment::Contain(s) => tokens.extend(norm_tokens(store.span_text(s))),
            }
        }
        let singleton = cell.singleton(store).map(|v| v.as_text(store).to_string());
        SimProfile { tokens, singleton }
    }

    /// May any value of `self` approximately match any value of `other`?
    /// Sound prefilter: a match needs ≥ 0.8 containment, hence at least
    /// one shared token. For singleton cells the precomputed token sets
    /// give the exact containment decision without re-tokenizing.
    pub fn may_match(&self, other: &SimProfile) -> bool {
        if self.singleton.is_some() && other.singleton.is_some() {
            let smaller = self.tokens.len().min(other.tokens.len());
            if smaller == 0 {
                return false;
            }
            let inter = self.tokens.intersection(&other.tokens).count();
            return inter as f64 / smaller as f64 >= 0.8;
        }
        let (small, big) = if self.tokens.len() <= other.tokens.len() {
            (&self.tokens, &other.tokens)
        } else {
            (&other.tokens, &self.tokens)
        };
        small.iter().any(|t| big.contains(t))
    }

    /// True when both sides are singletons (prefilter answer is exact).
    pub fn exact_pair(&self, other: &SimProfile) -> bool {
        self.singleton.is_some() && other.singleton.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_normalize_case_and_punct() {
        let t = norm_tokens("Basktall, HS!");
        assert!(t.contains("basktall"));
        assert!(t.contains("hs"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard("a b", "a b"), 1.0);
        assert_eq!(jaccard("a", "b"), 0.0);
        assert!((jaccard("a b", "b c") - (1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn containment_handles_fragments() {
        assert_eq!(containment("Basktall HS", "Basktall"), 1.0);
        assert!(containment("The Big Sleep", "Big Sleep") >= 0.99);
    }

    #[test]
    fn approx_match_paper_example() {
        // Figure 1: high school "Basktall HS" matches school "Basktall"
        assert!(approx_match("Basktall HS", "Basktall"));
        assert!(!approx_match("Vanhise High", "Basktall"));
        assert!(!approx_match("", "x"));
    }
}
