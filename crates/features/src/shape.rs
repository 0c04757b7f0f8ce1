//! Shape features: `capitalized`, `person-name`, `max-length`,
//! `min-length`, `starts-with`, `ends-with`.

use crate::arg::{FeatureArg, FeatureError, FeatureValue};
use crate::feature::{expect_num, expect_text, expect_tri, Feature};
use iflex_ctable::Assignment;
use iflex_pattern::Pattern;
use iflex_text::{DocumentStore, Span, Token, TokenKind};

fn is_cap_word(text: &str, t: &Token) -> bool {
    t.kind == TokenKind::Word
        && text[t.range()]
            .chars()
            .next()
            .map(char::is_uppercase)
            .unwrap_or(false)
}

/// `capitalized(a) = yes`: every word of the value starts uppercase.
pub struct Capitalized;

impl Feature for Capitalized {
    fn name(&self) -> &'static str {
        "capitalized"
    }

    fn verify(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<bool, FeatureError> {
        let doc = store.doc(span.doc);
        let toks = doc.token_slice(&span);
        let mut words = toks.iter().filter(|t| t.kind == TokenKind::Word).peekable();
        let all_cap = words.peek().is_some() && words.all(|t| is_cap_word(doc.text(), t));
        Ok(match expect_tri(self.name(), arg)? {
            FeatureValue::Yes | FeatureValue::DistinctYes => all_cap,
            FeatureValue::No | FeatureValue::DistinctNo => !all_cap,
            FeatureValue::Unknown => true,
        })
    }

    fn refine(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<Vec<Assignment>, FeatureError> {
        let doc = store.doc(span.doc);
        match expect_tri(self.name(), arg)? {
            FeatureValue::Yes | FeatureValue::DistinctYes => {
                // maximal runs of capitalized words (numbers break a run)
                let mut out = Vec::new();
                let mut run: Option<(u32, u32)> = None;
                for t in doc.token_slice(&span) {
                    if is_cap_word(doc.text(), t) {
                        run = Some(match run {
                            Some((s, _)) => (s, t.end),
                            None => (t.start, t.end),
                        });
                    } else if t.kind != TokenKind::Punct {
                        if let Some((s, e)) = run.take() {
                            out.push(Assignment::Contain(Span::new(span.doc, s, e)));
                        }
                    }
                }
                if let Some((s, e)) = run {
                    out.push(Assignment::Contain(Span::new(span.doc, s, e)));
                }
                Ok(out)
            }
            _ => Ok(vec![Assignment::Contain(span)]),
        }
    }

    fn question(&self, attr: &str) -> String {
        format!("is every word of {attr} capitalized?")
    }
}

/// `person-name(a) = yes`: the value looks like a person name — a run of
/// 2–3 capitalized words. Used by the DBLife tasks (§6.3, `personPattern`).
pub struct PersonName;

impl Feature for PersonName {
    fn name(&self) -> &'static str {
        "person-name"
    }

    fn verify(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<bool, FeatureError> {
        let doc = store.doc(span.doc);
        let toks = doc.token_slice(&span);
        let looks = (2..=3).contains(&toks.len())
            && toks.iter().all(|t| is_cap_word(doc.text(), t));
        Ok(match expect_tri(self.name(), arg)? {
            FeatureValue::Yes | FeatureValue::DistinctYes => looks,
            FeatureValue::No | FeatureValue::DistinctNo => !looks,
            FeatureValue::Unknown => true,
        })
    }

    fn refine(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<Vec<Assignment>, FeatureError> {
        let doc = store.doc(span.doc);
        match expect_tri(self.name(), arg)? {
            FeatureValue::Yes | FeatureValue::DistinctYes => {
                let toks = doc.token_slice(&span);
                let mut out = Vec::new();
                let mut i = 0;
                while i < toks.len() {
                    if !is_cap_word(doc.text(), &toks[i]) {
                        i += 1;
                        continue;
                    }
                    // extent of this capitalized run
                    let mut j = i;
                    while j + 1 < toks.len() && is_cap_word(doc.text(), &toks[j + 1]) {
                        j += 1;
                    }
                    let run_len = j - i + 1;
                    if run_len >= 2 {
                        // candidate 2- and 3-word windows within the run
                        for w in 2..=3usize.min(run_len) {
                            for s in i..=(j + 1 - w) {
                                out.push(Assignment::exact_span(Span::new(
                                    span.doc,
                                    toks[s].start,
                                    toks[s + w - 1].end,
                                )));
                            }
                        }
                    }
                    i = j + 1;
                }
                Ok(out)
            }
            _ => Ok(vec![Assignment::Contain(span)]),
        }
    }

    fn question(&self, attr: &str) -> String {
        format!("does {attr} look like a person name?")
    }
}

/// `max-length(a) = n` / `min-length(a) = n`: bounds on the value's length
/// in bytes (the paper's `max_length(y) = 18`).
pub struct LengthBound {
    name: &'static str,
    is_max: bool,
}

impl LengthBound {
    /// The `max-length` feature.
    pub const fn max() -> Self {
        LengthBound {
            name: "max-length",
            is_max: true,
        }
    }

    /// The `min-length` feature.
    pub const fn min() -> Self {
        LengthBound {
            name: "min-length",
            is_max: false,
        }
    }
}

impl Feature for LengthBound {
    fn name(&self) -> &'static str {
        self.name
    }

    fn verify(
        &self,
        _store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<bool, FeatureError> {
        let n = expect_num(self.name, arg)?;
        Ok(if self.is_max {
            (span.len() as f64) <= n
        } else {
            (span.len() as f64) >= n
        })
    }

    fn refine(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<Vec<Assignment>, FeatureError> {
        let n = expect_num(self.name, arg)? as u32;
        let doc = store.doc(span.doc);
        if !self.is_max {
            // min-length: only the region itself bounds candidates.
            return Ok(if span.len() >= n {
                vec![Assignment::Contain(span)]
            } else {
                vec![]
            });
        }
        // max-length: maximal token windows of byte length <= n.
        let toks = doc.token_slice(&span);
        let mut out: Vec<Assignment> = Vec::new();
        let mut j = 0usize;
        let mut last_j: Option<usize> = None;
        for i in 0..toks.len() {
            if j < i {
                j = i;
            }
            while j + 1 < toks.len() && toks[j + 1].end - toks[i].start <= n {
                j += 1;
            }
            if toks[j].end - toks[i].start > n {
                continue; // single token longer than n
            }
            // maximal: previous window must not already cover this one
            if last_j != Some(j) {
                out.push(Assignment::Contain(Span::new(
                    span.doc,
                    toks[i].start,
                    toks[j].end,
                )));
                last_j = Some(j);
            }
        }
        Ok(out)
    }

    fn question(&self, attr: &str) -> String {
        if self.is_max {
            format!("what is the maximum length (characters) of {attr}?")
        } else {
            format!("what is the minimum length (characters) of {attr}?")
        }
    }
}

/// `starts-with(a) = "<pattern>"` / `ends-with(a) = "<pattern>"`:
/// regex-lite constraints on the value's boundary (§6.3).
pub struct PatternEdge {
    name: &'static str,
    at_start: bool,
}

impl PatternEdge {
    /// The `starts-with` feature.
    pub const fn starts_with() -> Self {
        PatternEdge {
            name: "starts-with",
            at_start: true,
        }
    }

    /// The `ends-with` feature.
    pub const fn ends_with() -> Self {
        PatternEdge {
            name: "ends-with",
            at_start: false,
        }
    }

    fn compile(&self, arg: &FeatureArg) -> Result<Pattern, FeatureError> {
        let src = expect_text(self.name, arg)?;
        Pattern::new(src).map_err(|e| FeatureError::BadPattern {
            feature: self.name.to_string(),
            message: e.to_string(),
        })
    }
}

impl Feature for PatternEdge {
    fn name(&self) -> &'static str {
        self.name
    }

    fn verify(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<bool, FeatureError> {
        let pat = self.compile(arg)?;
        let text = store.span_text(&span);
        Ok(if self.at_start {
            pat.matches_prefix(text)
        } else {
            pat.matches_suffix(text)
        })
    }

    fn refine(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<Vec<Assignment>, FeatureError> {
        let pat = self.compile(arg)?;
        let doc = store.doc(span.doc);
        let text = doc.text();
        let hay = &text[span.range()];
        let toks = doc.tokens();
        let mut out = Vec::new();
        for m in pat.find_iter(hay) {
            let abs_start = span.start + m.start as u32;
            let abs_end = span.start + m.end as u32;
            if self.at_start {
                // match must begin on a token boundary; candidates extend to
                // end of line
                if toks.token_at(abs_start).map(|t| t.start) != Some(abs_start) {
                    continue;
                }
                let (_, le) = super::shape::line_bounds_of(text, abs_start as usize);
                let region_end = (le as u32).min(span.end);
                if abs_start < region_end {
                    if let Some((s, e)) = toks.cover(toks.tokens_within(abs_start, region_end)) {
                        if s == abs_start {
                            out.push(Assignment::Contain(Span::new(span.doc, s, e)));
                        }
                    }
                }
            } else {
                // match must end on a token boundary; candidates extend back
                // to start of line
                let ts = toks.tokens();
                let at = ts.partition_point(|t| t.end < abs_end);
                if ts.get(at).map(|t| t.end) != Some(abs_end) {
                    continue;
                }
                let (ls, _) = super::shape::line_bounds_of(text, abs_start as usize);
                let region_start = (ls as u32).max(span.start);
                if region_start < abs_end {
                    if let Some((s, e)) = toks.cover(toks.tokens_within(region_start, abs_end)) {
                        if e == abs_end {
                            out.push(Assignment::Contain(Span::new(span.doc, s, e)));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn question(&self, attr: &str) -> String {
        if self.at_start {
            format!("what pattern does {attr} start with?")
        } else {
            format!("what pattern does {attr} end with?")
        }
    }
}

/// `matches(a) = "<pattern>"`: the whole value matches the regex-lite
/// pattern — the strongest of the pattern features (e.g.
/// `matches(year) = "19\d\d|20\d\d"` pins a value to exactly a year).
pub struct MatchesPattern;

impl MatchesPattern {
    fn compile(arg: &FeatureArg) -> Result<Pattern, FeatureError> {
        let src = expect_text("matches", arg)?;
        Pattern::new(src).map_err(|e| FeatureError::BadPattern {
            feature: "matches".to_string(),
            message: e.to_string(),
        })
    }
}

impl Feature for MatchesPattern {
    fn name(&self) -> &'static str {
        "matches"
    }

    fn verify(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<bool, FeatureError> {
        Ok(Self::compile(arg)?.matches_full(store.span_text(&span)))
    }

    fn refine(
        &self,
        store: &DocumentStore,
        span: Span,
        arg: &FeatureArg,
    ) -> Result<Vec<Assignment>, FeatureError> {
        let pat = Self::compile(arg)?;
        let doc = store.doc(span.doc);
        let toks = doc.tokens();
        let mut out = Vec::new();
        // every token-aligned match inside the region is a candidate; the
        // match must start and end on token boundaries
        let hay = &doc.text()[span.range()];
        for m in pat.find_iter(hay) {
            let s = span.start + m.start as u32;
            let e = span.start + m.end as u32;
            let r = toks.tokens_within(s, e);
            if toks.cover(r) == Some((s, e)) {
                out.push(Assignment::exact_span(Span::new(span.doc, s, e)));
            }
        }
        Ok(out)
    }

    fn question(&self, attr: &str) -> String {
        format!("what pattern does {attr} match exactly?")
    }
}

/// Line bounds helper shared by pattern-edge refinement.
pub(crate) fn line_bounds_of(text: &str, pos: usize) -> (usize, usize) {
    let start = text[..pos].rfind('\n').map(|i| i + 1).unwrap_or(0);
    let end = text[pos..].find('\n').map(|i| pos + i).unwrap_or(text.len());
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(text: &str) -> (DocumentStore, Span) {
        let mut st = DocumentStore::new();
        let id = st.add_plain(text);
        let full = st.doc(id).full_span();
        (st, full)
    }

    #[test]
    fn capitalized_runs() {
        let (st, full) = setup("the Big Sleep and Casablanca movie");
        let out = Capitalized.refine(&st, full, &FeatureArg::yes()).unwrap();
        let texts: Vec<&str> = out
            .iter()
            .map(|a| st.span_text(&a.span().unwrap()))
            .collect();
        assert_eq!(texts, vec!["Big Sleep", "Casablanca"]);
    }

    #[test]
    fn person_name_windows() {
        let (st, full) = setup("panelist Alice Mary Smith spoke");
        let out = PersonName.refine(&st, full, &FeatureArg::yes()).unwrap();
        let texts: Vec<&str> = out
            .iter()
            .map(|a| st.span_text(&a.span().unwrap()))
            .collect();
        assert!(texts.contains(&"Alice Mary"));
        assert!(texts.contains(&"Mary Smith"));
        assert!(texts.contains(&"Alice Mary Smith"));
        assert!(out.iter().all(|a| matches!(a, Assignment::Exact(_))));
    }

    #[test]
    fn person_name_verify() {
        let (st, full) = setup("Alice Smith");
        assert!(PersonName.verify(&st, full, &FeatureArg::yes()).unwrap());
        let (st2, full2) = setup("alice smith");
        assert!(!PersonName.verify(&st2, full2, &FeatureArg::yes()).unwrap());
    }

    #[test]
    fn max_length_windows() {
        let (st, full) = setup("aa bb cc dd");
        let out = LengthBound::max()
            .refine(&st, full, &FeatureArg::Num(5.0))
            .unwrap();
        let texts: Vec<&str> = out
            .iter()
            .map(|a| st.span_text(&a.span().unwrap()))
            .collect();
        assert_eq!(texts, vec!["aa bb", "bb cc", "cc dd"]);
    }

    #[test]
    fn max_length_skips_oversized_tokens() {
        let (st, full) = setup("tiny enormouslylongword ok");
        let out = LengthBound::max()
            .refine(&st, full, &FeatureArg::Num(4.0))
            .unwrap();
        let texts: Vec<&str> = out
            .iter()
            .map(|a| st.span_text(&a.span().unwrap()))
            .collect();
        assert_eq!(texts, vec!["tiny", "ok"]);
    }

    #[test]
    fn min_length_keeps_or_drops() {
        let (st, full) = setup("short");
        let keep = LengthBound::min()
            .refine(&st, full, &FeatureArg::Num(3.0))
            .unwrap();
        assert_eq!(keep.len(), 1);
        let drop = LengthBound::min()
            .refine(&st, full, &FeatureArg::Num(100.0))
            .unwrap();
        assert!(drop.is_empty());
    }

    #[test]
    fn starts_with_pattern() {
        let (st, full) = setup("SIGMOD 2005 Conference\nlowercase line");
        let f = PatternEdge::starts_with();
        let out = f
            .refine(&st, full, &FeatureArg::Text("[A-Z][A-Z]+".into()))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            st.span_text(&out[0].span().unwrap()),
            "SIGMOD 2005 Conference"
        );
    }

    #[test]
    fn ends_with_pattern() {
        let (st, full) = setup("VLDB 2004\nno year here");
        let f = PatternEdge::ends_with();
        let out = f
            .refine(&st, full, &FeatureArg::Text("19\\d\\d|20\\d\\d".into()))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(st.span_text(&out[0].span().unwrap()), "VLDB 2004");
    }

    #[test]
    fn matches_feature_pins_exact_values() {
        let (st, full) = setup("VLDB 2004 and ICDE 05 are events in 1999");
        let f = MatchesPattern;
        let out = f
            .refine(&st, full, &FeatureArg::Text(r"19\d\d|20\d\d".into()))
            .unwrap();
        let texts: Vec<&str> = out
            .iter()
            .map(|a| st.span_text(&a.span().unwrap()))
            .collect();
        assert_eq!(texts, vec!["2004", "1999"]);
        assert!(f
            .verify(&st, out[0].span().unwrap(), &FeatureArg::Text(r"19\d\d|20\d\d".into()))
            .unwrap());
    }

    #[test]
    fn bad_pattern_reported() {
        let (st, full) = setup("x");
        let f = PatternEdge::starts_with();
        assert!(matches!(
            f.verify(&st, full, &FeatureArg::Text("(".into())),
            Err(FeatureError::BadPattern { .. })
        ));
    }
}
