//! Property tests of the log-scale quantile sketch: the advertised
//! relative-error bound `|q̂ − x_q| ≤ α·x_q` must hold for every quantile
//! on every stream — adversarial heavy-tailed mixtures, sorted, reversed,
//! and shuffled orders — and `merge(a, b)` must answer exactly like the
//! sketch of the concatenated stream (merging is bucket-wise addition, so
//! the agreement is exact, not merely within the bound).

use iflex_obs::QuantileSketch;
use proptest::prelude::*;

/// The exact sample at the sketch's rank convention (`⌈q·n⌉`, 1-based).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Asserts the bound for a fixed quantile grid over one stream.
fn assert_within_bound(values: &[u64]) {
    let s = QuantileSketch::new();
    for &v in values {
        s.observe(v);
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
        let est = s.quantile(q).expect("non-empty sketch");
        let x = exact_quantile(&sorted, q) as f64;
        // Tiny additive slack absorbs f64 rounding in the bucket-index
        // computation for samples sitting exactly on a bucket boundary.
        let bound = s.alpha() * x * 1.0001 + 1e-6;
        assert!(
            (est - x).abs() <= bound,
            "q={q}: estimate {est} vs exact {x} (bound {bound})"
        );
    }
}

/// Heavy-tailed generator: `base >> shift` spreads samples log-uniformly
/// across all 64 orders of magnitude — the adversarial regime for a
/// log-bucketed sketch (every populated bucket is far from its
/// neighbours).
fn heavy_tail(pairs: &[(u64, u64)]) -> Vec<u64> {
    pairs.iter().map(|&(base, shift)| base >> (shift % 64)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rank-error bound on heavy-tailed streams in generated order.
    #[test]
    fn bound_holds_on_heavy_tailed_streams(
        pairs in proptest::collection::vec((0u64..u64::MAX, 0u64..64), 1..300),
    ) {
        assert_within_bound(&heavy_tail(&pairs));
    }

    /// Rank-error bound is order-insensitive: sorted and reversed
    /// (adversarially monotone) insertions answer identically to the
    /// generated order.
    #[test]
    fn bound_holds_under_adversarial_orders(
        pairs in proptest::collection::vec((0u64..u64::MAX, 0u64..64), 1..200),
    ) {
        let values = heavy_tail(&pairs);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut reversed = sorted.clone();
        reversed.reverse();
        assert_within_bound(&sorted);
        assert_within_bound(&reversed);

        let by_order = |vs: &[u64]| {
            let s = QuantileSketch::new();
            for &v in vs {
                s.observe(v);
            }
            [s.quantile(0.5), s.quantile(0.95), s.quantile(0.99)]
        };
        prop_assert_eq!(by_order(&values), by_order(&sorted));
        prop_assert_eq!(by_order(&values), by_order(&reversed));
    }

    /// Clustered duplicates (many ties at few magnitudes) — the regime
    /// where a rank off by one crosses a whole cluster.
    #[test]
    fn bound_holds_with_ties(
        magnitudes in proptest::collection::vec(0u64..20, 1..8),
        reps in 1usize..50,
    ) {
        let values: Vec<u64> = magnitudes
            .iter()
            .flat_map(|&m| std::iter::repeat_n(1u64 << m, reps))
            .collect();
        assert_within_bound(&values);
    }

    /// `merge(a, b)` answers exactly like the sketch of `a ++ b`, and the
    /// merged answers still satisfy the bound against the concatenated
    /// stream.
    #[test]
    fn merge_agrees_with_concatenation(
        xs in proptest::collection::vec((0u64..u64::MAX, 0u64..64), 0..150),
        ys in proptest::collection::vec((0u64..u64::MAX, 0u64..64), 1..150),
    ) {
        let a_vals = heavy_tail(&xs);
        let b_vals = heavy_tail(&ys);
        let a = QuantileSketch::new();
        let b = QuantileSketch::new();
        let both = QuantileSketch::new();
        for &v in &a_vals {
            a.observe(v);
            both.observe(v);
        }
        for &v in &b_vals {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), both.count());
        prop_assert_eq!(a.sum(), both.sum());
        prop_assert_eq!(a.max(), both.max());
        let mut concat = a_vals.clone();
        concat.extend_from_slice(&b_vals);
        concat.sort_unstable();
        for q in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let merged = a.quantile(q).expect("non-empty");
            let direct = both.quantile(q).expect("non-empty");
            prop_assert_eq!(merged, direct, "merge must be exact at q={}", q);
            let x = exact_quantile(&concat, q) as f64;
            let bound = a.alpha() * x * 1.0001 + 1e-6;
            prop_assert!((merged - x).abs() <= bound, "q={}: {} vs {}", q, merged, x);
        }
    }
}
