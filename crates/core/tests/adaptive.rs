//! Property tests for the adaptive (precision-targeted) trial budget:
//! the ISSUE-3 contract. Across a randomized cloud of (graph size, walk
//! count, seed, target) an adaptive cover estimate must
//!
//! (a) never consume more trials than the rule's hard cap,
//! (b) achieve the requested half-width whenever it stops below the cap,
//! (c) consume an identical trial count across 1/2/4-thread pools on a
//!     fixed seed — the wave schedule is part of the determinism
//!     contract, not a scheduling accident.

use mrw_core::{Budget, CoverTimeEstimator, Precision};
use mrw_graph::generators;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adaptive_run_honors_cap_and_target(
        n in 8usize..32,
        k in 1usize..5,
        seed in 0u64..1_000,
        rel in 0.1f64..0.4,
    ) {
        let g = generators::cycle(n);
        let rule = Precision::relative(rel).with_min_trials(8).with_max_trials(256);
        let budget = Budget { precision: Some(rule), seed, ..Budget::default() };
        let est = CoverTimeEstimator::new(&g, k, budget).run_from(0);
        let consumed = est.consumed_trials() as usize;
        // (a) floor ≤ consumed ≤ cap, always.
        prop_assert!(consumed >= rule.min_trials, "below floor: {consumed}");
        prop_assert!(consumed <= rule.max_trials, "cap exceeded: {consumed}");
        // (b) stopping below the cap certifies the target.
        if consumed < rule.max_trials {
            prop_assert!(
                est.ci().half_width() <= rel * est.mean().abs() + 1e-12,
                "stopped at {consumed} with half-width {} > {rel} × {}",
                est.ci().half_width(),
                est.mean()
            );
        }
    }

    #[test]
    fn adaptive_consumed_count_identical_across_pools(
        n in 8usize..24,
        seed in 0u64..1_000,
    ) {
        let g = generators::torus_2d(4 + n % 4);
        let rule = Precision::relative(0.2).with_min_trials(8).with_max_trials(128);
        let run = |threads: usize| {
            CoverTimeEstimator::new(
                &g,
                2,
                Budget { precision: Some(rule), seed, threads, ..Budget::default() },
            )
            .run_from(0)
        };
        // (c) 1-, 2-, and 4-thread pools agree byte-for-byte: same
        // consumed count, same sample moments.
        let base = run(1);
        for threads in [2usize, 4] {
            let est = run(threads);
            prop_assert_eq!(est.consumed_trials(), base.consumed_trials(), "threads={}", threads);
            prop_assert_eq!(est.cover_time().mean(), base.cover_time().mean(), "threads={}", threads);
            prop_assert_eq!(est.cover_time().min(), base.cover_time().min(), "threads={}", threads);
            prop_assert_eq!(est.cover_time().max(), base.cover_time().max(), "threads={}", threads);
        }
    }

    #[test]
    fn hopeless_targets_stop_exactly_at_cap(
        n in 8usize..24,
        seed in 0u64..1_000,
    ) {
        let g = generators::cycle(n);
        let rule = Precision::absolute(1e-9).with_min_trials(4).with_max_trials(48);
        let budget = Budget { precision: Some(rule), seed, ..Budget::default() };
        let est = CoverTimeEstimator::new(&g, 1, budget).run_from(0);
        prop_assert_eq!(est.consumed_trials(), 48);
    }
}
