//! Property-based tests for the parallel substrate: parallel results must
//! equal serial results for arbitrary sizes, thread counts, and workloads.

use mrw_par::{par_map, SeedSequence};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn par_map_equals_serial(items in 0usize..500, threads in 1usize..12, salt in 0u64..1000) {
        let f = |i: usize| (i as u64).wrapping_mul(salt).rotate_left(13);
        let par = par_map(items, threads, f);
        let serial: Vec<u64> = (0..items).map(f).collect();
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn par_map_fold_equals_fold(items in 0usize..300, threads in 1usize..8) {
        // An order-sensitive fold: equal only if results arrive in index order.
        let op = |acc: u64, x: u64| acc.wrapping_mul(31).wrapping_add(x);
        let par = par_map(items, threads, |i| i as u64 + 1).into_iter().fold(0u64, op);
        prop_assert_eq!(par, (1..=items as u64).fold(0u64, op));
    }

    #[test]
    fn seed_streams_are_pure_functions(master in any::<u64>(), idx in any::<u64>()) {
        let a = SeedSequence::new(master).seed_for(idx);
        let b = SeedSequence::new(master).seed_for(idx);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn seed_streams_distinct_across_children(master in any::<u64>(), l1 in 0u64..64, l2 in 0u64..64) {
        prop_assume!(l1 != l2);
        let root = SeedSequence::new(master);
        // Children with different labels should disagree on (essentially)
        // every stream index.
        let collisions = (0..32)
            .filter(|&i| root.child(l1).seed_for(i) == root.child(l2).seed_for(i))
            .count();
        prop_assert_eq!(collisions, 0);
    }
}
