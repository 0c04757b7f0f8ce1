//! Pike VM: linear-time NFA simulation with greedy (leftmost-longest within
//! greedy thread priority) match extraction.
//!
//! A search is one pass over the text. Each thread carries the byte offset
//! it started at, and a new thread starts at every char boundary until a
//! match is found. Threads are kept in start order, so when two reach the
//! same instruction the earlier start keeps it: whatever the later one
//! could still match, the earlier one matches too. Each step therefore
//! holds at most one thread per instruction, and a search costs
//! O(`pattern × text`) steps however many offsets it tries.

use crate::compile::{Inst, Program};

/// Marks a pc no thread of the list has reached.
const FREE: usize = usize::MAX;

/// One step's threads: the pcs they hold, in start order, and for each
/// pc the start offset of the thread that reached it, or [`FREE`].
struct Threads {
    pcs: Vec<usize>,
    start: Vec<usize>,
}

impl Threads {
    fn new(len: usize) -> Threads {
        Threads {
            pcs: Vec::with_capacity(len),
            start: vec![FREE; len],
        }
    }

    fn clear(&mut self) {
        self.pcs.clear();
        self.start.fill(FREE);
    }
}

/// Where the threads being added stand: the byte offset, whether it is
/// the start or the end of the input, and the best match so far as
/// `(start, end)` — the leftmost start, and its longest end.
struct At {
    pos: usize,
    at_start: bool,
    at_end: bool,
    best: Option<(usize, usize)>,
}

/// Adds the thread `(pc, start)` to `threads`, following epsilon
/// transitions in priority order; a pc already held is left to its
/// earlier-started thread.
fn add(insts: &[Inst], threads: &mut Threads, pc: usize, start: usize, at: &mut At) {
    if threads.start[pc] != FREE {
        return;
    }
    threads.start[pc] = start;
    match insts[pc] {
        Inst::Jmp(t) => add(insts, threads, t, start, at),
        Inst::Split { a, b } => {
            add(insts, threads, a, start, at);
            add(insts, threads, b, start, at);
        }
        Inst::AssertStart => {
            if at.at_start {
                add(insts, threads, pc + 1, start, at);
            }
        }
        Inst::AssertEnd => {
            if at.at_end {
                add(insts, threads, pc + 1, start, at);
            }
        }
        Inst::Match => {
            let better = match at.best {
                None => true,
                Some((s, e)) => start < s || (start == s && at.pos > e),
            };
            if better {
                at.best = Some((start, at.pos));
            }
            threads.pcs.push(pc);
        }
        Inst::Class(_) => threads.pcs.push(pc),
    }
}

/// The search: threads start at `from` and, when `every_offset`, at each
/// later char boundary until a match is found. Returns the leftmost
/// start's longest match, and adds the number of thread steps taken to
/// `steps`.
fn search(
    prog: &Program,
    text: &str,
    from: usize,
    every_offset: bool,
    steps: &mut u64,
) -> Option<(usize, usize)> {
    debug_assert!(text.is_char_boundary(from));
    let insts = &prog.insts;
    let mut clist = Threads::new(insts.len());
    let mut nlist = Threads::new(insts.len());
    let mut at = At {
        pos: from,
        at_start: from == 0,
        at_end: from == text.len(),
        best: None,
    };
    add(insts, &mut clist, 0, from, &mut at);
    for (off, c) in text[from..].char_indices() {
        if clist.pcs.is_empty() && (at.best.is_some() || !every_offset) {
            break;
        }
        at.pos = from + off + c.len_utf8();
        at.at_start = false;
        at.at_end = at.pos == text.len();
        nlist.clear();
        for &pc in &clist.pcs {
            let start = clist.start[pc];
            // A later start than the best match's can no longer win.
            if at.best.is_some_and(|(s, _)| start > s) {
                continue;
            }
            *steps += 1;
            if let Inst::Class(ref cls) = insts[pc] {
                if cls.matches(c) {
                    add(insts, &mut nlist, pc + 1, start, &mut at);
                }
            }
        }
        if every_offset && at.best.is_none() {
            add(insts, &mut nlist, 0, at.pos, &mut at);
        }
        std::mem::swap(&mut clist, &mut nlist);
    }
    at.best
}

/// Executes `prog` against `text[start..]`, requiring the match to begin
/// exactly at byte offset `start`. Returns the end byte offset of the
/// longest match.
pub fn match_at(prog: &Program, text: &str, start: usize) -> Option<usize> {
    search(prog, text, start, false, &mut 0).map(|(_, end)| end)
}

/// Finds the leftmost match starting at or after `from`; returns byte
/// range, the longest match from that start.
pub fn find_from(prog: &Program, text: &str, from: usize) -> Option<(usize, usize)> {
    search(prog, text, from, !prog.anchored_start, &mut 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parse::parse;
    use proptest::prelude::*;

    fn p(pat: &str) -> Program {
        compile(&parse(pat).unwrap())
    }

    /// The search as it was before threads carried their start: the VM
    /// restarted at every offset from `from` on, the first offset with a
    /// match winning.
    fn find_per_offset(prog: &Program, text: &str, from: usize) -> Option<(usize, usize)> {
        let mut start = from;
        loop {
            if let Some(end) = match_at(prog, text, start) {
                return Some((start, end));
            }
            if prog.anchored_start || start >= text.len() {
                return None;
            }
            start += text[start..].chars().next().map_or(1, char::len_utf8);
        }
    }

    /// The thread steps one search from offset 0 takes.
    fn steps(prog: &Program, text: &str) -> u64 {
        let mut steps = 0;
        search(prog, text, 0, !prog.anchored_start, &mut steps);
        steps
    }

    /// Pattern fragments the property concatenates: literals, classes,
    /// groups, every repetition form, alternation and both anchors.
    const PIECES: &[&str] = &[
        "a", "b", "c", ".", "é", "[ab]", "(a|bc?)", "a*", "[bc]+", "a?", "b{1,2}", "(ab)*", "|",
        "^", "$", "(a|aa)*", "(|c)",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn one_pass_finds_what_the_per_offset_loop_finds(
            pieces in proptest::collection::vec(0usize..PIECES.len(), 1..7),
            text in "[abcé]{0,14}",
            from in 0usize..16,
        ) {
            let pat: String = pieces.iter().map(|&i| PIECES[i]).collect();
            let Ok(ast) = parse(&pat) else { return; };
            let prog = compile(&ast);
            let from = from.min(text.len());
            let from = (0..=from).rev().find(|&i| text.is_char_boundary(i)).unwrap();
            prop_assert_eq!(
                find_from(&prog, &text, from),
                find_per_offset(&prog, &text, from),
                "{:?} in {:?} from {}", pat, text, from
            );
        }
    }

    #[test]
    fn steps_grow_linearly_with_the_text() {
        // Both patterns fail at every offset of a run of `a`s, so the
        // per-offset loop stepped O(text²) threads.
        for pat in ["a*b", "(a|aa)*c"] {
            let prog = p(pat);
            let (short, long) = ("a".repeat(4000), "a".repeat(8000));
            assert_eq!(find_from(&prog, &long, 0), None);
            let (s, l) = (steps(&prog, &short), steps(&prog, &long));
            assert!(
                l <= 2 * s + 2 * prog.insts.len() as u64,
                "{pat}: {s} then {l} steps"
            );
            assert!(l <= prog.insts.len() as u64 * 8001, "{pat}: {l} steps");
        }
    }

    #[test]
    fn a_found_match_stops_the_threads_of_later_starts() {
        // `ab` matches at offset 0 two bytes in; the `b*` thread started
        // at offset 1 could run to the end of the text, but cannot win.
        let prog = p("b*c|ab");
        let text = format!("a{}", "b".repeat(4000));
        assert_eq!(find_from(&prog, &text, 0), Some((0, 2)));
        assert!(steps(&prog, &text) <= 4 * prog.insts.len() as u64);
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
