//! Token-based string similarity, the engine's stand-in for the paper's
//! TF/IDF `approxMatch` (§2.1: "'similar' according to some similarity
//! function (e.g., TF/IDF)").
//!
//! Over a join's pairs the built-in `similar` never tokenizes inside the
//! pair loop. Each such step interns its tokens to `u32` ids
//! (`Interner`), and each side of the join profiles the step's column
//! once per distinct cell (`RowProfiles`) before the pass starts; a pair
//! then costs sorted merges of id lists. A profile depends on its cell
//! alone, so profiles made ahead of time (`SimSeed`) serve any step over
//! rows holding those cells. The
//! step's position in the pass picks one of two approximations
//! (`SimStep`, DESIGN.md §11), each computed exactly as the string
//! version it replaces:
//! - first step: the token prefilter (`SimProfile::may_match`);
//! - any later step: `filter_cands` ∘ [`approx_match`] over the cells'
//!   enumerated values (`decide`).

use crate::eval::MayMust;
use iflex_ctable::{Assignment, Cell, CompactTable};
use iflex_text::DocumentStore;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Calls `f` on each lower-cased word/number token of `text`, in order
/// and with repeats, using `buf` as scratch.
fn each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            buf.push(c.to_ascii_lowercase());
        } else if !buf.is_empty() {
            f(buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(buf);
    }
}

/// Lower-cases and splits into word/number tokens, dropping punctuation.
pub fn norm_tokens(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    each_token(text, &mut String::new(), |t| {
        out.insert(t.to_string());
    });
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

/// One pass's token dictionary: each distinct token gets the next `u32`,
/// after the ids of a [`SimSeed`]'s dictionary when it extends one.
#[derive(Default)]
pub(crate) struct Interner {
    base: Arc<HashMap<String, u32>>,
    ids: HashMap<String, u32>,
    buf: String,
}

impl Interner {
    /// Appends the ids of `text`'s tokens to `out`, unsorted and with
    /// repeats.
    fn push_ids(&mut self, text: &str, out: &mut Vec<u32>) {
        let Interner { base, ids, buf } = self;
        each_token(text, buf, |t| {
            let id = match base.get(t).or_else(|| ids.get(t)) {
                Some(&id) => id,
                None => {
                    let id = (base.len() + ids.len()) as u32;
                    ids.insert(t.to_string(), id);
                    id
                }
            };
            out.push(id);
        });
    }

    /// The ids of `text`'s token set, sorted: [`norm_tokens`] interned.
    fn ids(&mut self, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        self.push_ids(text, &mut out);
        sorted(out)
    }
}

fn sorted(mut ids: Vec<u32>) -> Vec<u32> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// |a ∩ b| of two sorted, deduplicated id lists.
fn shared(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// [`containment`] ≥ 0.8 over two interned token sets. This is all of
/// [`approx_match`]: blank text has no tokens, so it fails here too.
fn contained(a: &[u32], b: &[u32]) -> bool {
    let smaller = a.len().min(b.len());
    smaller != 0 && shared(a, b) as f64 / smaller as f64 >= 0.8
}

/// The token prefilter's profile of one cell: the sorted ids of every
/// token the cell's values draw from (an `exact` value's text, a
/// `contain` span's whole text), and whether the cell encodes exactly one
/// value.
#[derive(Debug)]
pub(crate) struct SimProfile {
    tokens: Vec<u32>,
    singleton: bool,
}

/// Calls `f` with the text of each of `cell`'s assignments that the token
/// prefilter profiles: an `exact` value's text, a `contain` span's whole
/// text.
fn profiled_texts(cell: &Cell, store: &DocumentStore, mut f: impl FnMut(&str)) {
    for a in cell.assignments() {
        match a {
            Assignment::Exact(v) => f(&v.as_text(store)),
            Assignment::Contain(s) => f(store.span_text(s)),
        }
    }
}

/// True when every token the prefilter profiles `narrow` by is one it
/// profiles `wide` by. Narrowing a cell keeps this true except where a
/// `contain` region cuts a word: "released 1954" cut after its "1" gains
/// the token "1".
pub(crate) fn tokens_within(narrow: &Cell, wide: &Cell, store: &DocumentStore) -> bool {
    let mut buf = String::new();
    let mut wide_tokens = std::collections::HashSet::new();
    profiled_texts(wide, store, |text| {
        each_token(text, &mut buf, |t| {
            if !wide_tokens.contains(t) {
                wide_tokens.insert(t.to_string());
            }
        });
    });
    let mut within = true;
    profiled_texts(narrow, store, |text| {
        each_token(text, &mut buf, |t| within &= wide_tokens.contains(t));
    });
    within
}

impl SimProfile {
    /// The profile of `cell`, its tokens interned in `ids`.
    pub(crate) fn of(cell: &Cell, store: &DocumentStore, ids: &mut Interner) -> SimProfile {
        let mut tokens = Vec::new();
        profiled_texts(cell, store, |text| ids.push_ids(text, &mut tokens));
        SimProfile {
            tokens: sorted(tokens),
            singleton: cell.singleton(store).is_some(),
        }
    }

    /// May any value of `self` approximately match any value of `other`?
    /// Sound prefilter: a match needs ≥ 0.8 containment, hence at least
    /// one shared token. For two singleton cells the token sets give the
    /// exact containment decision.
    pub(crate) fn may_match(&self, other: &SimProfile) -> bool {
        if self.exact_pair(other) {
            return contained(&self.tokens, &other.tokens);
        }
        shared_any(&self.tokens, &other.tokens)
    }

    /// True when both sides are singletons (prefilter answer is exact).
    pub(crate) fn exact_pair(&self, other: &SimProfile) -> bool {
        self.singleton && other.singleton
    }
}

/// True when two sorted id lists share an id.
fn shared_any(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The filter position's profile of one cell: the token set of each
/// value `candidates(cell, enum_cap)` enumerates, in order and with
/// repeats, or `None` when the cell holds more than `enum_cap` values.
#[derive(Debug)]
pub(crate) struct ValueProfile(Option<Vec<Vec<u32>>>);

impl ValueProfile {
    /// The profile of `cell`, its tokens interned in `ids`.
    pub(crate) fn of(
        cell: &Cell,
        store: &DocumentStore,
        enum_cap: u64,
        ids: &mut Interner,
    ) -> ValueProfile {
        if cell.value_count(store) > enum_cap {
            return ValueProfile(None);
        }
        ValueProfile(Some(
            cell.values(store)
                .map(|v| ids.ids(&v.as_text(store)))
                .collect(),
        ))
    }
}

/// `filter_cands(&[candidates(l), candidates(r)], approx_match, combo_cap)`
/// over two profiles: `SOME` when a side cannot be enumerated, `NONE`
/// when a side is empty, `SOME` when the value pairs outnumber
/// `combo_cap`, else may/must over the pairs.
pub(crate) fn decide(l: &ValueProfile, r: &ValueProfile, combo_cap: u64) -> MayMust {
    let (Some(a), Some(b)) = (&l.0, &r.0) else {
        return MayMust::SOME;
    };
    if a.is_empty() || b.is_empty() {
        return MayMust::NONE;
    }
    if (a.len() as u64).saturating_mul(b.len() as u64) > combo_cap {
        return MayMust::SOME;
    }
    let (mut may, mut must) = (false, true);
    for x in a {
        for y in b {
            if contained(x, y) {
                may = true;
            } else {
                must = false;
            }
            if may && !must {
                return MayMust::SOME;
            }
        }
    }
    MayMust { may, must }
}

/// One side's profiles of one column: one per distinct cell, keyed by
/// the cell's assignments, and each row's index into them.
pub(crate) struct RowProfiles<P> {
    distinct: Vec<P>,
    rows: Vec<u32>,
}

impl<P> RowProfiles<P> {
    /// Profiles column `col` of `t`, calling `profile` once per distinct
    /// cell.
    fn build(t: &CompactTable, col: usize, mut profile: impl FnMut(&Cell) -> P) -> Self {
        let mut index: HashMap<&[Assignment], u32> = HashMap::new();
        let mut distinct = Vec::new();
        let rows = t
            .tuples()
            .iter()
            .map(|tup| {
                let cell = &tup.cells[col];
                *index.entry(cell.assignments()).or_insert_with(|| {
                    distinct.push(profile(cell));
                    (distinct.len() - 1) as u32
                })
            })
            .collect();
        RowProfiles { distinct, rows }
    }

    /// Row `i`'s profile.
    fn row(&self, i: usize) -> &P {
        &self.distinct[self.rows[i] as usize]
    }
}

/// A built-in `similar` step over the two sides of a join, with each
/// side's column profiled per row; which approximation it computes is
/// fixed by the step's position in the pass (DESIGN.md §11).
pub(crate) enum SimStep {
    /// The pass's first step: the token prefilter. A pair survives when
    /// its cells share a token, and is decided exactly (not `maybe`) when
    /// both cells are singletons.
    Prefilter(RowProfiles<Arc<SimProfile>>, RowProfiles<Arc<SimProfile>>),
    /// Any later step: [`decide`] over the cells' enumerated values.
    Values(
        RowProfiles<Arc<ValueProfile>>,
        RowProfiles<Arc<ValueProfile>>,
    ),
}

/// One `similar` step's profiles of some cells, made ahead of the steps
/// that read them: a step over any rows holding those cells takes the
/// profiles over, and interns the tokens of the other cells past the
/// seed's dictionary.
#[derive(Default)]
pub(crate) struct SimSeed {
    ids: Arc<HashMap<String, u32>>,
    tokens: HashMap<Vec<Assignment>, Arc<SimProfile>>,
    values: HashMap<Vec<Assignment>, Arc<ValueProfile>>,
}

impl SimSeed {
    /// The profiles of `cells` for the prefilter (`first`) or for
    /// [`decide`], whose cells enumerate at most `enum_cap` values.
    pub(crate) fn new<'c>(
        first: bool,
        cells: impl IntoIterator<Item = &'c Cell>,
        store: &DocumentStore,
        enum_cap: u64,
    ) -> SimSeed {
        let mut ids = Interner::default();
        let mut seed = SimSeed::default();
        for cell in cells {
            let key = cell.assignments();
            if first && !seed.tokens.contains_key(key) {
                let p = Arc::new(SimProfile::of(cell, store, &mut ids));
                seed.tokens.insert(key.to_vec(), p);
            } else if !first && !seed.values.contains_key(key) {
                let p = Arc::new(ValueProfile::of(cell, store, enum_cap, &mut ids));
                seed.values.insert(key.to_vec(), p);
            }
        }
        seed.ids = Arc::new(ids.ids);
        seed
    }
}

impl SimStep {
    /// Profiles column `lcol` of `l` and column `rcol` of `r` for the
    /// prefilter (`first`) or for [`decide`], whose cells enumerate at
    /// most `enum_cap` values, taking over what `seed` profiled.
    pub(crate) fn new(
        first: bool,
        (l, lcol): (&CompactTable, usize),
        (r, rcol): (&CompactTable, usize),
        store: &DocumentStore,
        enum_cap: u64,
        seed: Option<&SimSeed>,
    ) -> SimStep {
        let empty = SimSeed::default();
        let seed = seed.unwrap_or(&empty);
        let mut ids = Interner {
            base: Arc::clone(&seed.ids),
            ..Interner::default()
        };
        if first {
            let mut side = |t, col| {
                RowProfiles::build(t, col, |c| match seed.tokens.get(c.assignments()) {
                    Some(p) => Arc::clone(p),
                    None => Arc::new(SimProfile::of(c, store, &mut ids)),
                })
            };
            SimStep::Prefilter(side(l, lcol), side(r, rcol))
        } else {
            let mut side = |t, col| {
                RowProfiles::build(t, col, |c| match seed.values.get(c.assignments()) {
                    Some(p) => Arc::clone(p),
                    None => Arc::new(ValueProfile::of(c, store, enum_cap, &mut ids)),
                })
            };
            SimStep::Values(side(l, lcol), side(r, rcol))
        }
    }

    /// The step's verdict on the pair of left row `li` and right row
    /// `ri`. Once the run clock has `tripped`, a value step keeps every
    /// pair as `maybe`, as enumeration under an expired clock does.
    pub(crate) fn eval(&self, li: usize, ri: usize, tripped: bool, combo_cap: u64) -> MayMust {
        match self {
            SimStep::Prefilter(l, r) => {
                let (a, b) = (l.row(li), r.row(ri));
                let may = a.may_match(b);
                MayMust {
                    may,
                    must: may && a.exact_pair(b),
                }
            }
            SimStep::Values(..) if tripped => MayMust::SOME,
            SimStep::Values(l, r) => decide(l.row(li), r.row(ri), combo_cap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{candidates, filter_cands};
    use iflex_ctable::Value;
    use iflex_text::{DocId, Span};
    use proptest::prelude::*;

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

    #[test]
    fn interned_ids_are_the_token_set() {
        let mut ids = Interner::default();
        let a = ids.ids("The Big Sleep, the big one");
        let b = ids.ids("big THE");
        assert_eq!(a.len(), norm_tokens("The Big Sleep, the big one").len());
        assert_eq!(shared(&a, &b), 2);
        assert!(contained(&a, &b) && !contained(&a, &ids.ids("--")));
    }

    #[test]
    fn the_containment_threshold_is_inclusive() {
        let mut ids = Interner::default();
        let (a, b) = (ids.ids("a b c d e"), ids.ids("A b, c d x"));
        assert!(approx_match("a b c d e", "A b, c d x"));
        assert!(contained(&a, &b) && !contained(&a, &ids.ids("a b c x y")));
    }

    #[test]
    fn one_profile_per_distinct_cell() {
        let names = ["Big Sleep", "Basktall", "Big Sleep", "Big Sleep"];
        let t = CompactTable::from_exact_rows(
            vec!["n".into()],
            names
                .iter()
                .map(|n| vec![Value::Str((*n).into())])
                .collect(),
        );
        let mut calls = 0;
        let p = RowProfiles::build(&t, 0, |_| {
            calls += 1;
            calls
        });
        assert_eq!(calls, 2);
        let rows: Vec<_> = (0..names.len()).map(|i| *p.row(i)).collect();
        assert_eq!(rows, vec![1, 2, 1, 1]);
    }

    /// Words, numbers, punctuation-only stretches and repeats, so spans
    /// over it can be blank-free yet token-free.
    const TEXT: &str = "The Big Sleep -- 42 , Basktall HS ; big sleep ! 3.5 !! the";

    /// Exact strings drawn by the generator, blank and punctuation-only
    /// ones included.
    const STRS: &[&str] = &[
        "",
        "  ",
        "--",
        "Big Sleep",
        "the big",
        "Basktall",
        "HS 42",
        "3.5",
        "big sleep the 42 hs",
        "Big Sleep, the 42 x",
    ];

    /// One generated assignment: `(kind, a, b)`.
    type Spec = (u8, usize, usize);

    fn cell_of(specs: &[Spec], doc: DocId, store: &DocumentStore) -> Cell {
        let toks = store
            .doc(doc)
            .token_slice(&store.doc(doc).full_span())
            .to_vec();
        let span = |a: usize, b: usize| {
            let (i, j) = (a % toks.len(), b % toks.len());
            let (i, j) = (i.min(j), i.max(j));
            Span::new(doc, toks[i].start, toks[j].end)
        };
        let assigns = specs
            .iter()
            .map(|&(kind, a, b)| match kind % 5 {
                0 => Assignment::Exact(Value::Str(STRS[a % STRS.len()].into())),
                1 => Assignment::Exact(Value::Num(a as f64 / 2.0)),
                2 => Assignment::exact_span(span(a, a)),
                3 => Assignment::exact_span(span(a, b)),
                _ => Assignment::Contain(span(a, b)),
            })
            .collect();
        Cell::of(assigns)
    }

    /// The token prefilter as it was before interning: `BTreeSet<String>`
    /// token sets. Returns `(may_match, exact_pair)`.
    fn string_prefilter(l: &Cell, r: &Cell, store: &DocumentStore) -> (bool, bool) {
        let tokens = |c: &Cell| -> BTreeSet<String> {
            let mut out = BTreeSet::new();
            for a in c.assignments() {
                match a {
                    Assignment::Exact(v) => out.extend(norm_tokens(&v.as_text(store))),
                    Assignment::Contain(s) => out.extend(norm_tokens(store.span_text(s))),
                }
            }
            out
        };
        let (ta, tb) = (tokens(l), tokens(r));
        let exact = l.singleton(store).is_some() && r.singleton(store).is_some();
        if exact {
            let smaller = ta.len().min(tb.len());
            let inter = ta.intersection(&tb).count();
            return (smaller != 0 && inter as f64 / smaller as f64 >= 0.8, true);
        }
        (ta.iter().any(|t| tb.contains(t)), false)
    }

    fn specs() -> impl Strategy<Value = Vec<Spec>> {
        proptest::collection::vec((0u8..5, 0usize..40, 0usize..40), 0..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn profiles_decide_as_the_string_predicates(
            l in specs(),
            r in specs(),
            seeded in specs(),
            enum_cap in 0u64..30,
            combo_cap in 0u64..60,
        ) {
            let mut store = DocumentStore::new();
            let doc = store.add_plain(TEXT);
            let (lc, rc) = (cell_of(&l, doc, &store), cell_of(&r, doc, &store));

            // A step that takes some profiles over from a seed decides as
            // one that makes them all.
            let sc = cell_of(&seeded, doc, &store);
            let table = |c: &Cell| {
                let mut t = CompactTable::new(vec!["c".into()]);
                t.push(iflex_ctable::CompactTuple::new(vec![c.clone()]));
                t
            };
            let (lt, rt) = (table(&lc), table(&rc));
            for first in [true, false] {
                let seed = SimSeed::new(first, [&lc, &sc], &store, enum_cap);
                let step = |seed| SimStep::new(first, (&lt, 0), (&rt, 0), &store, enum_cap, seed);
                prop_assert_eq!(
                    step(Some(&seed)).eval(0, 0, false, combo_cap),
                    step(None).eval(0, 0, false, combo_cap),
                    "first={} {:?} / {:?}", first, lc, rc
                );
            }
            let mut ids = Interner::default();

            let by_enumeration = filter_cands(
                &[candidates(&lc, &store, enum_cap), candidates(&rc, &store, enum_cap)],
                &|args: &[Value]| approx_match(&args[0].as_text(&store), &args[1].as_text(&store)),
                combo_cap,
            );
            let lv = ValueProfile::of(&lc, &store, enum_cap, &mut ids);
            let rv = ValueProfile::of(&rc, &store, enum_cap, &mut ids);
            prop_assert_eq!(decide(&lv, &rv, combo_cap), by_enumeration, "{:?} / {:?}", lc, rc);

            let lp = SimProfile::of(&lc, &store, &mut ids);
            let rp = SimProfile::of(&rc, &store, &mut ids);
            prop_assert_eq!(
                (lp.may_match(&rp), lp.exact_pair(&rp)),
                string_prefilter(&lc, &rc, &store),
                "{:?} / {:?}", lc, rc
            );
        }
    }
}
