//! # iflex-pattern
//!
//! A small, from-scratch regular-expression engine ("regex-lite") used by
//! iFlex text features (`starts-with`, `ends-with`, pattern constraints)
//! and by the precise-Xlog baseline extractors. The offline crate set has
//! no `regex`, and the paper's features only need a modest subset:
//! literals, classes (`[a-z]`, `\d`, `\w`, `\s`), `.`, anchors, grouping,
//! alternation, and `* + ? {m,n}` repetition.
//!
//! Matching is a Pike VM (Thompson NFA simulation): a search is one pass
//! over the text whose threads carry their start offsets, so it is linear
//! in `pattern × text` with no catastrophic backtracking, however many
//! offsets it tries; the leftmost match is reported, longest from its
//! start.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod parse;
pub mod vm;

pub use ast::PatternError;

use compile::Program;

/// A compiled pattern, ready for repeated matching.
#[derive(Debug, Clone)]
pub struct Pattern {
    source: String,
    prog: Program,
}

/// A match: byte offsets into the searched text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// The start.
    pub start: usize,
    /// The end.
    pub end: usize,
}

impl Pattern {
    /// Compiles `pattern`, or reports a [`PatternError`].
    pub fn new(pattern: &str) -> Result<Self, PatternError> {
        let ast = parse::parse(pattern)?;
        Ok(Pattern {
            source: pattern.to_string(),
            prog: compile::compile(&ast),
        })
    }

    /// The original pattern source.
    pub fn as_str(&self) -> &str {
        &self.source
    }

    /// True when the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        vm::find_from(&self.prog, text, 0).is_some()
    }

    /// True when the pattern matches the *entire* `text`.
    pub fn matches_full(&self, text: &str) -> bool {
        vm::match_at(&self.prog, text, 0) == Some(text.len())
    }

    /// True when some match begins at byte 0.
    pub fn matches_prefix(&self, text: &str) -> bool {
        vm::match_at(&self.prog, text, 0).is_some()
    }

    /// True when some match ends exactly at the end of `text`.
    pub fn matches_suffix(&self, text: &str) -> bool {
        self.find_iter(text).any(|m| m.end == text.len())
    }

    /// Leftmost match, if any.
    pub fn find(&self, text: &str) -> Option<Match> {
        vm::find_from(&self.prog, text, 0).map(|(start, end)| Match { start, end })
    }

    /// Leftmost match starting at or after `from`.
    pub fn find_at(&self, text: &str, from: usize) -> Option<Match> {
        vm::find_from(&self.prog, text, from).map(|(start, end)| Match { start, end })
    }

    /// Iterator over non-overlapping matches, left to right.
    pub fn find_iter<'p, 't>(&'p self, text: &'t str) -> Matches<'p, 't> {
        Matches {
            pattern: self,
            text,
            next_start: 0,
            done: false,
        }
    }
}

/// Iterator returned by [`Pattern::find_iter`].
pub struct Matches<'p, 't> {
    pattern: &'p Pattern,
    text: &'t str,
    next_start: usize,
    done: bool,
}

impl Iterator for Matches<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        if self.done {
            return None;
        }
        let m = self.pattern.find_at(self.text, self.next_start)?;
        if m.end == m.start {
            // Empty match: step forward one char to guarantee progress.
            let step = self.text[m.end..]
                .chars()
                .next()
                .map(char::len_utf8)
                .unwrap_or(0);
            if step == 0 {
                self.done = true;
            }
            self.next_start = m.end + step;
        } else {
            self.next_start = m.end;
        }
        if self.pattern.prog.anchored_start {
            self.done = true;
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_partial_match() {
        let p = Pattern::new("[A-Z][A-Z]+").unwrap();
        assert!(p.matches_full("SIGMOD"));
        assert!(!p.matches_full("SIGMOD 2005"));
        assert!(p.is_match("see SIGMOD 2005"));
    }

    #[test]
    fn prefix_suffix() {
        let starts = Pattern::new("[A-Z][A-Z]+").unwrap();
        assert!(starts.matches_prefix("VLDB Conference"));
        assert!(!starts.matches_prefix("the VLDB"));
        let ends = Pattern::new("0\\d|19\\d\\d|20\\d\\d").unwrap();
        assert!(ends.matches_suffix("SIGMOD 2005"));
        assert!(ends.matches_suffix("ICDE 05"));
        assert!(!ends.matches_suffix("SIGMOD 2005 papers"));
    }

    #[test]
    fn find_iter_nonoverlapping() {
        let p = Pattern::new("\\d+").unwrap();
        let ms: Vec<_> = p
            .find_iter("a1 b22 c333")
            .map(|m| ("a1 b22 c333"[m.start..m.end]).to_string())
            .collect();
        assert_eq!(ms, vec!["1", "22", "333"]);
    }

    #[test]
    fn empty_match_progress() {
        let p = Pattern::new("x*").unwrap();
        // Must terminate despite empty matches.
        let count = p.find_iter("aaa").count();
        assert!(count >= 3);
    }

    #[test]
    fn price_like_pattern() {
        let p = Pattern::new("\\$\\d+(\\.\\d\\d)?").unwrap();
        let text = "List: $104.99 New: $89";
        let ms: Vec<_> = p.find_iter(text).map(|m| &text[m.start..m.end]).collect();
        assert_eq!(ms, vec!["$104.99", "$89"]);
    }

    #[test]
    fn error_display() {
        let e = Pattern::new("(a").unwrap_err();
        assert!(e.to_string().contains("pattern error"));
    }
}
