//! Tokenization of document text.
//!
//! Compact-table semantics enumerate "all sub-spans" of a span. iFlex
//! interprets that as *token-aligned* sub-spans (contiguous token ranges):
//! extraction targets are words, numbers, and phrases, never half a word.
//! The tokenizer here is deliberately simple and deterministic so that
//! possible-worlds enumeration in `iflex-ctable` is well defined.

use serde::{Deserialize, Serialize};

/// Classification of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenKind {
    /// Alphabetic word (may contain interior apostrophes: `don't`).
    Word,
    /// Number: digits with optional interior `,` group separators, optional
    /// decimal point, optional leading `$` handled as punctuation.
    Number,
    /// Single punctuation character.
    Punct,
}

/// A token: byte range within the owning document plus its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Token {
    /// The start.
    pub start: u32,
    /// The end.
    pub end: u32,
    /// The kind.
    pub kind: TokenKind,
}

impl Token {
    #[inline]
    /// The byte range.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    #[inline]
    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    #[inline]
    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Tokenizes `text` into words, numbers, and punctuation.
///
/// Whitespace separates tokens and is never part of one. Number tokens
/// accept interior thousands separators (`1,234,567`) and one decimal point
/// (`35.99`); a trailing separator/point belongs to the following
/// punctuation, so `"5146."` is `[Number("5146"), Punct(".")]`.
pub fn tokenize(text: &str) -> Vec<Token> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            i += 1;
            loop {
                if i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                } else if i + 1 < bytes.len()
                    && (bytes[i] == b',' || bytes[i] == b'.')
                    && bytes[i + 1].is_ascii_digit()
                {
                    // interior separator followed by more digits
                    i += 2;
                } else {
                    break;
                }
            }
            tokens.push(Token {
                start: start as u32,
                end: i as u32,
                kind: TokenKind::Number,
            });
            continue;
        }
        if b.is_ascii_alphabetic() || b >= 0x80 {
            let start = i;
            i += 1;
            loop {
                if i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] >= 0x80) {
                    i += 1;
                } else if i + 1 < bytes.len()
                    && (bytes[i] == b'\'' || bytes[i] == b'-')
                    && (bytes[i + 1].is_ascii_alphanumeric() || bytes[i + 1] >= 0x80)
                {
                    // interior apostrophe or hyphen: don't, Garcia-Molina
                    i += 2;
                } else {
                    break;
                }
            }
            tokens.push(Token {
                start: start as u32,
                end: i as u32,
                kind: TokenKind::Word,
            });
            continue;
        }
        // single punctuation byte
        tokens.push(Token {
            start: i as u32,
            end: (i + 1) as u32,
            kind: TokenKind::Punct,
        });
        i += 1;
    }
    tokens
}

/// Index over a token stream supporting span/token alignment queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TokenIndex {
    tokens: Vec<Token>,
}

impl TokenIndex {
    /// Creates a new instance.
    pub fn new(text: &str) -> Self {
        TokenIndex {
            tokens: tokenize(text),
        }
    }

    #[inline]
    /// The token list.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    #[inline]
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    #[inline]
    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Indices `[lo, hi)` of tokens fully contained in byte range
    /// `[start, end)`.
    pub fn tokens_within(&self, start: u32, end: u32) -> std::ops::Range<usize> {
        let lo = self.tokens.partition_point(|t| t.start < start);
        let hi = self.tokens.partition_point(|t| t.end <= end);
        if lo >= hi {
            lo..lo
        } else {
            lo..hi
        }
    }

    /// Number of tokens fully contained in `[start, end)`.
    pub fn count_within(&self, start: u32, end: u32) -> usize {
        self.tokens_within(start, end).len()
    }

    /// Byte range covered by tokens `[lo, hi)`, or `None` when empty.
    pub fn cover(&self, range: std::ops::Range<usize>) -> Option<(u32, u32)> {
        if range.is_empty() || range.end > self.tokens.len() {
            return None;
        }
        Some((self.tokens[range.start].start, self.tokens[range.end - 1].end))
    }

    /// Token containing byte position `pos`, if any.
    pub fn token_at(&self, pos: u32) -> Option<&Token> {
        let idx = self.tokens.partition_point(|t| t.end <= pos);
        self.tokens.get(idx).filter(|t| t.start <= pos)
    }

    /// Number of token-aligned non-empty sub-spans of `[start, end)`:
    /// `n * (n + 1) / 2` for `n` contained tokens.
    pub fn subspan_count(&self, start: u32, end: u32) -> u64 {
        let n = self.count_within(start, end) as u64;
        n * (n + 1) / 2
    }

    /// Iterates all token-aligned sub-spans (as byte ranges) of `[start, end)`.
    pub fn subspans(&self, start: u32, end: u32) -> SubspanIter<'_> {
        let range = self.tokens_within(start, end);
        SubspanIter {
            tokens: &self.tokens[range],
            i: 0,
            j: 0,
        }
    }
}

/// Iterator over token-aligned sub-spans; see [`TokenIndex::subspans`].
pub struct SubspanIter<'a> {
    tokens: &'a [Token],
    i: usize,
    j: usize,
}

impl Iterator for SubspanIter<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.i >= self.tokens.len() {
            return None;
        }
        let out = (self.tokens[self.i].start, self.tokens[self.j].end);
        self.j += 1;
        if self.j >= self.tokens.len() {
            self.i += 1;
            self.j = self.i;
        }
        Some(out)
    }
}

/// Parses the numeric value of a token or span text, accepting `,` group
/// separators and an optional leading `$`. Returns `None` for anything that
/// is not a single number. The digits are cleaned into a stack buffer, so
/// no call on a text of up to 64 bytes allocates.
pub fn parse_number(text: &str) -> Option<f64> {
    let t = text.trim();
    let t = t.strip_prefix('$').unwrap_or(t).as_bytes();
    let mut stack = [0u8; 64];
    let mut heap = Vec::new();
    let cleaned: &mut [u8] = if t.len() <= stack.len() {
        &mut stack
    } else {
        heap.resize(t.len(), 0);
        &mut heap
    };
    let mut n = 0;
    let mut seen_dot = false;
    // Any non-ASCII byte is rejected, so byte positions are char positions.
    for (i, &b) in t.iter().enumerate() {
        match b {
            b'0'..=b'9' => {}
            b',' if i > 0 && i + 1 < t.len() => continue, // group separator
            b'.' if !seen_dot => seen_dot = true,
            b'-' if i == 0 => {}
            _ => return None,
        }
        cleaned[n] = b;
        n += 1;
    }
    match std::str::from_utf8(&cleaned[..n]).ok()? {
        "" | "-" | "." => None,
        cleaned => cleaned.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<(String, TokenKind)> {
        tokenize(text)
            .into_iter()
            .map(|t| (text[t.range()].to_string(), t.kind))
            .collect()
    }

    #[test]
    fn words_numbers_punct() {
        let ks = kinds("Price: $35.99 today!");
        assert_eq!(
            ks,
            vec![
                ("Price".into(), TokenKind::Word),
                (":".into(), TokenKind::Punct),
                ("$".into(), TokenKind::Punct),
                ("35.99".into(), TokenKind::Number),
                ("today".into(), TokenKind::Word),
                ("!".into(), TokenKind::Punct),
            ]
        );
    }

    #[test]
    fn grouped_numbers_stay_single_tokens() {
        let ks = kinds("1,234,567 and 5146.");
        assert_eq!(ks[0].0, "1,234,567");
        assert_eq!(ks[0].1, TokenKind::Number);
        assert_eq!(ks[2].0, "5146");
        assert_eq!(ks[3].0, ".");
    }

    #[test]
    fn hyphen_and_apostrophe_words() {
        let ks = kinds("Garcia-Molina doesn't");
        assert_eq!(ks[0].0, "Garcia-Molina");
        assert_eq!(ks[1].0, "doesn't");
    }

    #[test]
    fn tokens_within_is_inclusive_of_aligned_bounds() {
        let text = "one two three";
        let idx = TokenIndex::new(text);
        assert_eq!(idx.count_within(0, text.len() as u32), 3);
        assert_eq!(idx.count_within(4, 7), 1); // exactly "two"
        assert_eq!(idx.count_within(5, 7), 0); // cuts into "two"
    }

    #[test]
    fn subspan_enumeration_counts() {
        let text = "a b c";
        let idx = TokenIndex::new(text);
        let subs: Vec<_> = idx.subspans(0, 5).collect();
        assert_eq!(subs.len(), 6); // 3*(3+1)/2
        assert_eq!(idx.subspan_count(0, 5), 6);
        assert!(subs.contains(&(0, 1)));
        assert!(subs.contains(&(0, 5)));
        assert!(subs.contains(&(2, 5)));
    }

    #[test]
    fn token_at_positions() {
        let idx = TokenIndex::new("ab cd");
        assert_eq!(idx.token_at(0).map(|t| t.start), Some(0));
        assert_eq!(idx.token_at(1).map(|t| t.start), Some(0));
        assert!(idx.token_at(2).map(|t| t.start != 2).unwrap_or(true));
        assert_eq!(idx.token_at(3).map(|t| t.start), Some(3));
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(parse_number("92"), Some(92.0));
        assert_eq!(parse_number("$500,000"), Some(500000.0));
        assert_eq!(parse_number("35.99"), Some(35.99));
        assert_eq!(parse_number("-4"), Some(-4.0));
        assert_eq!(parse_number("12a"), None);
        assert_eq!(parse_number(""), None);
        assert_eq!(parse_number("1.2.3"), None);
    }

    /// The allocating implementation the stack-buffer one replaced.
    fn parse_number_via_string(text: &str) -> Option<f64> {
        let t = text.trim();
        let t = t.strip_prefix('$').unwrap_or(t);
        let mut cleaned = String::with_capacity(t.len());
        let mut seen_dot = false;
        for (i, c) in t.chars().enumerate() {
            match c {
                '0'..='9' => cleaned.push(c),
                ',' if i > 0 && i + 1 < t.len() => {}
                '.' if !seen_dot => {
                    seen_dot = true;
                    cleaned.push('.');
                }
                '-' if i == 0 => cleaned.push('-'),
                _ => return None,
            }
        }
        if cleaned.is_empty() || cleaned == "-" || cleaned == "." {
            return None;
        }
        cleaned.parse().ok()
    }

    #[test]
    fn parse_number_matches_the_allocating_version() {
        let long = "7".repeat(100);
        let table: [(&str, Option<f64>); 14] = [
            ("1,234.50", Some(1234.5)),
            ("$35.99", Some(35.99)),
            ("-", None),
            (".", None),
            ("1.2.3", None),
            ("-5", Some(-5.0)),
            (",5", None),
            (&long, long.parse().ok()),
            (" $1,000 ", Some(1000.0)),
            ("5,", None),
            ("5-", None),
            ("1,5é", None),
            ("é", None),
            ("", None),
        ];
        for (text, want) in table {
            let got = parse_number(text);
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{text:?}");
            let old = parse_number_via_string(text);
            assert_eq!(got.map(f64::to_bits), old.map(f64::to_bits), "{text:?}");
        }
    }

    #[test]
    fn cover_roundtrip() {
        let idx = TokenIndex::new("alpha beta gamma");
        let r = idx.tokens_within(0, 16);
        assert_eq!(idx.cover(r), Some((0, 16)));
        assert_eq!(idx.cover(0..0), None);
    }
}
