//! Property tests for the shared k-ary enumeration arithmetic — the formula
//! every scheme in the UID family stands on — over a fixed ladder of
//! SplitMix64 seeds: every run checks the same cases, and a failure names
//! the seed that replays it.

use schemes::kary;
use ubig::Uint;
use xmlgen::SplitMix64;

const CASES: u64 = 256;

/// Names the case's seed when the property panics.
struct SeedOnPanic(u64);

impl Drop for SeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing seed: {:#x}", self.0);
        }
    }
}

/// Runs `property` once per seed `base..base + CASES`.
fn for_each_seed(base: u64, property: impl Fn(&mut SplitMix64)) {
    for seed in base..base + CASES {
        let _named = SeedOnPanic(seed);
        property(&mut SplitMix64::seed_from_u64(seed));
    }
}

/// parent(child(p, j)) == p, for u64 and Uint alike.
#[test]
fn child_parent_round_trip() {
    for_each_seed(0x1000, |rng| {
        let p = rng.gen_range(1u64..1_000_000);
        let k = rng.gen_range(1u64..1_000);
        let j = rng.gen_range(1..=k);
        if let Some(c) = kary::child_u64(p, k, j) {
            assert_eq!(kary::parent_u64(c, k), Some(p));
            assert_eq!(kary::sibling_rank_u64(c, k), j);
        }
        let cp = kary::child_uint(&Uint::from(p), k, j);
        assert_eq!(kary::parent_uint(&cp, k), Some(Uint::from(p)));
        assert_eq!(kary::sibling_rank_uint(&cp, k), j);
    });
}

/// Children ranges of distinct parents never overlap.
#[test]
fn child_ranges_disjoint() {
    for_each_seed(0x2000, |rng| {
        let p = rng.gen_range(1u64..100_000);
        let k = rng.gen_range(1u64..100);
        let (lo1, hi1) = kary::children_range_u64(p, k).unwrap();
        let (lo2, hi2) = kary::children_range_u64(p + 1, k).unwrap();
        assert!(hi1 < lo2, "ranges [{lo1},{hi1}] and [{lo2},{hi2}] overlap");
        assert_eq!(hi1 - lo1 + 1, k);
        assert_eq!(hi2 - lo2 + 1, k);
    });
}

/// Ancestry is consistent with repeated parent steps, and levels add up.
#[test]
fn ancestor_matches_parent_chain() {
    for_each_seed(0x3000, |rng| {
        let i = rng.gen_range(2u64..1_000_000);
        let k = rng.gen_range(2u64..50);
        let mut chain = vec![i];
        let mut cur = i;
        while let Some(p) = kary::parent_u64(cur, k) {
            chain.push(p);
            cur = p;
        }
        assert_eq!(*chain.last().unwrap(), 1);
        assert_eq!(kary::level_u64(i, k) as usize, chain.len() - 1);
        for (d, &a) in chain.iter().enumerate().skip(1) {
            assert!(kary::is_ancestor_u64(a, i, k), "{a} should be an ancestor of {i}");
            assert_eq!(kary::level_u64(a, k) as usize, chain.len() - 1 - d);
        }
        // Not self-ancestor; larger identifiers are never ancestors.
        assert!(!kary::is_ancestor_u64(i, i, k));
        assert!(!kary::is_ancestor_u64(i + 1, i, k));
    });
}

/// capacity(k, h) = 1 + k * capacity(k, h-1) (the geometric recurrence).
#[test]
fn capacity_recurrence() {
    for_each_seed(0x4000, |rng| {
        let k = rng.gen_range(1u64..200);
        let h = rng.gen_range(1u32..30);
        let expected = kary::capacity(k, h - 1).mul_u64(k).add_u64(1);
        assert_eq!(kary::capacity(k, h), expected);
    });
}

/// Uint and u64 agree wherever u64 does not overflow.
#[test]
fn uint_u64_agree() {
    for_each_seed(0x5000, |rng| {
        let p = rng.gen_range(1u64..1_000_000);
        let k = rng.gen_range(1u64..1_000);
        for j in [1, k / 2 + 1, k] {
            if let Some(c) = kary::child_u64(p, k, j) {
                assert_eq!(kary::child_uint(&Uint::from(p), k, j), Uint::from(c));
            }
        }
    });
}

#[test]
fn sibling_of_same_parent_not_ancestor() {
    // Deterministic check for the sibling case skipped above.
    let k = 4;
    let a = kary::child_u64(7, k, 2).unwrap();
    let b = kary::child_u64(7, k, 3).unwrap();
    assert!(!kary::is_ancestor_u64(a, b, k));
    assert!(!kary::is_ancestor_u64(b, a, k));
}
