//! Pike VM: linear-time NFA simulation with greedy (leftmost-longest within
//! greedy thread priority) match extraction.

use crate::compile::{Inst, Program};

/// The VM's thread lists, kept across the start positions of one search.
#[derive(Default)]
struct Scratch {
    clist: Vec<usize>,
    nlist: Vec<usize>,
    on_clist: Vec<bool>,
    on_nlist: Vec<bool>,
}

/// Executes `prog` against `text[start..]`, requiring the match to begin
/// exactly at byte offset `start`. Returns the end byte offset of the match
/// chosen by greedy thread priority.
pub fn match_at(prog: &Program, text: &str, start: usize) -> Option<usize> {
    match_at_in(prog, text, start, &mut Scratch::default())
}

/// [`match_at`] over caller-owned thread lists.
fn match_at_in(prog: &Program, text: &str, start: usize, scratch: &mut Scratch) -> Option<usize> {
    debug_assert!(text.is_char_boundary(start));
    let insts = &prog.insts;
    let Scratch {
        clist,
        nlist,
        on_clist,
        on_nlist,
    } = scratch;
    clist.clear();
    clist.reserve(insts.len());
    nlist.reserve(insts.len());
    on_clist.clear();
    on_clist.resize(insts.len(), false);
    on_nlist.clear();
    on_nlist.resize(insts.len(), false);
    let mut best: Option<usize> = None;

    // addthread follows epsilon transitions in priority order.
    #[allow(clippy::too_many_arguments)] // one flat VM state, called in a hot loop
    fn add(
        insts: &[Inst],
        list: &mut Vec<usize>,
        on_list: &mut [bool],
        pc: usize,
        at_start: bool,
        at_end: bool,
        pos: usize,
        best: &mut Option<usize>,
    ) {
        if on_list[pc] {
            return;
        }
        on_list[pc] = true;
        match insts[pc] {
            Inst::Jmp(t) => add(insts, list, on_list, t, at_start, at_end, pos, best),
            Inst::Split { a, b } => {
                add(insts, list, on_list, a, at_start, at_end, pos, best);
                add(insts, list, on_list, b, at_start, at_end, pos, best);
            }
            Inst::AssertStart => {
                if at_start {
                    add(insts, list, on_list, pc + 1, at_start, at_end, pos, best);
                }
            }
            Inst::AssertEnd => {
                if at_end {
                    add(insts, list, on_list, pc + 1, at_start, at_end, pos, best);
                }
            }
            Inst::Match => {
                // Record longest match seen (any thread reaching Match).
                if best.map(|b| pos > b).unwrap_or(true) {
                    *best = Some(pos);
                }
                list.push(pc);
            }
            Inst::Class(_) => list.push(pc),
        }
    }

    let tail = &text[start..];
    let pos = start;
    let at_input_start = start == 0;
    add(
        insts,
        clist,
        on_clist,
        0,
        at_input_start,
        tail.is_empty(),
        pos,
        &mut best,
    );

    let mut chars = tail.char_indices().peekable();
    while let Some((off, c)) = chars.next() {
        if clist.is_empty() {
            break;
        }
        let next_pos = start + off + c.len_utf8();
        let next_is_end = chars.peek().is_none();
        nlist.clear();
        on_nlist.iter_mut().for_each(|b| *b = false);
        for &pc in clist.iter() {
            if let Inst::Class(ref cls) = insts[pc] {
                if cls.matches(c) {
                    add(
                        insts,
                        nlist,
                        on_nlist,
                        pc + 1,
                        false,
                        next_is_end,
                        next_pos,
                        &mut best,
                    );
                }
            }
        }
        std::mem::swap(clist, nlist);
        std::mem::swap(on_clist, on_nlist);
    }
    best
}

/// Finds the leftmost match starting at or after `from`; returns byte range.
pub fn find_from(prog: &Program, text: &str, from: usize) -> Option<(usize, usize)> {
    let mut scratch = Scratch::default();
    let mut start = from;
    loop {
        if let Some(end) = match_at_in(prog, text, start, &mut scratch) {
            return Some((start, end));
        }
        if prog.anchored_start && start > 0 {
            return None;
        }
        if start >= text.len() {
            return None;
        }
        // advance one char
        start += text[start..].chars().next().map(char::len_utf8).unwrap_or(1);
        if prog.anchored_start {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse::parse;

    fn p(pat: &str) -> Program {
        compile(&parse(pat).unwrap())
    }

    #[test]
    fn exact_literal() {
        let prog = p("abc");
        assert_eq!(match_at(&prog, "abcdef", 0), Some(3));
        assert_eq!(match_at(&prog, "abX", 0), None);
    }

    #[test]
    fn greedy_star_longest() {
        let prog = p("a*");
        assert_eq!(match_at(&prog, "aaab", 0), Some(3));
        assert_eq!(match_at(&prog, "b", 0), Some(0)); // empty match
    }

    #[test]
    fn alternation_longest_wins() {
        let prog = p("a|ab");
        // Pike VM with longest-tracking reports the longer alternative.
        assert_eq!(match_at(&prog, "ab", 0), Some(2));
    }

    #[test]
    fn anchors() {
        let prog = p("^ab$");
        assert_eq!(match_at(&prog, "ab", 0), Some(2));
        assert_eq!(match_at(&prog, "abc", 0), None);
        assert_eq!(find_from(&p("c$"), "abc", 0), Some((2, 3)));
    }

    #[test]
    fn find_scans_forward() {
        let prog = p("\\d+");
        assert_eq!(find_from(&prog, "abc 123 x", 0), Some((4, 7)));
        assert_eq!(find_from(&prog, "abc 123 x", 7), None);
    }

    #[test]
    fn anchored_find_only_at_zero() {
        let prog = p("^x");
        assert_eq!(find_from(&prog, "yx", 0), None);
        assert_eq!(find_from(&prog, "xy", 0), Some((0, 1)));
    }

    #[test]
    fn unicode_safe() {
        let prog = p("é+");
        let text = "caéé!";
        let (s, e) = find_from(&prog, text, 0).unwrap();
        assert_eq!(&text[s..e], "éé");
    }

    #[test]
    fn paper_year_pattern() {
        let prog = p("0\\d|19\\d\\d|20\\d\\d");
        assert_eq!(find_from(&prog, "SIGMOD 2005", 0), Some((7, 11)));
        assert_eq!(find_from(&prog, "ICDE 05", 0), Some((5, 7)));
    }
}
