//! Property tests of the Verify/Refine contract (§4.2): every sub-span a
//! `Refine` produces must `Verify`, refinement never invents values from
//! outside the refined region, and Verify is total (never panics) on
//! arbitrary spans.

use iflex_ctable::Assignment;
use iflex_features::{FeatureArg, FeatureRegistry};
use iflex_text::{DocumentStore, Span};
use proptest::prelude::*;

fn arb_markup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            "[a-z]{1,6}".prop_map(|w| w),
            (0u32..100_000).prop_map(|n| n.to_string()),
            "[a-z]{1,5}".prop_map(|w| format!("<b>{w}</b>")),
            (0u32..9_999).prop_map(|n| format!("<u>{n}</u>")),
            "[A-Z][a-z]{1,5}".prop_map(|w| w),
            "[A-Z][a-z]{1,5} [A-Z][a-z]{1,5}".prop_map(|w| format!("<i>{w}</i>")),
            "[a-z]{1,5}".prop_map(|w| format!("<title>{w}</title>")),
            (0u32..999).prop_map(|n| format!("<li>{n}</li>")),
            Just("price:".to_string()),
        ],
        1..12,
    )
    .prop_map(|toks| toks.join(" "))
}

/// One argument of every kind a built-in feature takes: tri-state
/// values, numeric bounds, and text for the context labels and patterns.
/// Each feature rejects the kinds it does not take.
fn args() -> Vec<FeatureArg> {
    vec![
        FeatureArg::yes(),
        FeatureArg::distinct_yes(),
        FeatureArg::no(),
        FeatureArg::Num(2.0),
        FeatureArg::Num(100.0),
        FeatureArg::Num(5_000.0),
        FeatureArg::Text("price".into()),
        FeatureArg::Text("[A-Z][a-z]+".into()),
    ]
}

proptest! {
    /// For every registered feature and every argument it takes, over
    /// the whole document and over a token sub-span: every exact
    /// assignment Refine produces satisfies Verify, and every produced
    /// span stays inside the refined region. A constraint step relies
    /// on the first half: it never verifies an exact value against the
    /// constraint whose Refine produced it.
    #[test]
    fn refine_output_verifies(src in arb_markup(), seed in 0usize..64) {
        let mut store = DocumentStore::new();
        let id = store.add_markup(&src);
        let doc = store.doc(id);
        let full = doc.full_span();
        let toks = doc.tokens().tokens();
        let mut regions = vec![full];
        if !toks.is_empty() {
            let (a, b) = (seed % toks.len(), (seed * 7) % toks.len());
            regions.push(Span::new(id, toks[a.min(b)].start, toks[a.max(b)].end));
        }
        let reg = FeatureRegistry::default();
        for fname in reg.names() {
            let f = reg.get(fname).unwrap();
            let mut taken = 0;
            for arg in args() {
                for &region in &regions {
                    let Ok(out) = f.refine(&store, region, &arg) else {
                        continue; // an argument kind this feature does not take
                    };
                    taken += 1;
                    for a in out {
                        if let Assignment::Exact(v) = &a {
                            prop_assert!(
                                f.verify_value(&store, v, &arg).unwrap(),
                                "{fname}({arg}): refined exact {v} does not verify in {src:?}"
                            );
                        }
                        if let Some(s) = a.span() {
                            prop_assert!(region.contains(&s), "{fname}: {s} outside {region}");
                        }
                    }
                }
            }
            prop_assert!(taken > 0, "{fname} took none of the arguments");
        }
    }

    /// Verify never panics for any feature on any token-aligned sub-span.
    #[test]
    fn verify_is_total(src in arb_markup(), seed in 0usize..64) {
        let mut store = DocumentStore::new();
        let id = store.add_markup(&src);
        let doc = store.doc(id);
        let toks = doc.tokens().tokens();
        prop_assume!(!toks.is_empty());
        let a = seed % toks.len();
        let b = (seed * 7) % toks.len();
        let (lo, hi) = (a.min(b), a.max(b));
        let span = Span::new(id, toks[lo].start, toks[hi].end);
        let reg = FeatureRegistry::default();
        for fname in reg.names() {
            let f = reg.get(fname).unwrap();
            for arg in [
                FeatureArg::yes(),
                FeatureArg::no(),
                FeatureArg::Num(10.0),
                FeatureArg::Text("price".into()),
            ] {
                // wrong-typed args error cleanly; right-typed succeed
                let _ = f.verify(&store, span, &arg);
                let _ = f.refine(&store, span, &arg);
            }
        }
    }

    /// Numeric refinement is exactly the number tokens of the region.
    #[test]
    fn numeric_refine_is_number_tokens(src in arb_markup()) {
        let mut store = DocumentStore::new();
        let id = store.add_markup(&src);
        let full = store.doc(id).full_span();
        let reg = FeatureRegistry::default();
        let f = reg.get("numeric").unwrap();
        let out = f.refine(&store, full, &FeatureArg::yes()).unwrap();
        let expected = store
            .doc(id)
            .token_slice(&full)
            .iter()
            .filter(|t| t.kind == iflex_text::TokenKind::Number)
            .count();
        prop_assert_eq!(out.len(), expected);
    }
}
