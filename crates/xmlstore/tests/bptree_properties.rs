//! Model-based property tests for the B+-tree (invariant I7 of DESIGN.md):
//! arbitrary interleavings of inserts, overwrites, removes and range scans
//! must agree with a `BTreeMap` model. The interleavings come from a fixed
//! ladder of SplitMix64 seeds, so every run checks the same cases and a
//! failure names the seed that replays it.

use std::collections::BTreeMap;

use xmlgen::SplitMix64;
use xmlstore::bptree::{Key, KEY_LEN};
use xmlstore::{BPlusTree, MemPager};

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

fn key_of(n: u64) -> Key {
    let mut k = [0u8; KEY_LEN];
    k[..8].copy_from_slice(&n.to_be_bytes());
    k
}

fn number_of(key: &Key) -> u64 {
    u64::from_be_bytes(key[..8].try_into().unwrap())
}

#[test]
fn matches_btreemap_model() {
    for_each_seed(0x1000, |rng| {
        let mut tree = BPlusTree::new(MemPager::new());
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..rng.gen_range(1..600usize) {
            // A small key universe forces overwrites and hits.
            let k = rng.gen_range(0u64..2_000);
            // Insert : remove : get : range = 4 : 2 : 2 : 1.
            match rng.gen_range(0..9u8) {
                0..=3 => {
                    let v = rng.next_u64();
                    assert_eq!(tree.insert(key_of(k), v), model.insert(k, v));
                }
                4 | 5 => assert_eq!(tree.remove(&key_of(k)), model.remove(&k)),
                6 | 7 => assert_eq!(tree.get(&key_of(k)), model.get(&k).copied()),
                _ => {
                    let other = rng.gen_range(0u64..2_000);
                    let (a, b) = (k.min(other), k.max(other));
                    let got: Vec<(u64, u64)> = tree
                        .range(&key_of(a), &key_of(b))
                        .into_iter()
                        .map(|(k, v)| (number_of(&k), v))
                        .collect();
                    let want: Vec<(u64, u64)> =
                        model.range(a..=b).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want);
                }
            }
            assert_eq!(tree.len(), model.len());
        }
        // Final full scan agrees and is sorted.
        let got: Vec<u64> = tree.scan_all().iter().map(|(k, _)| number_of(k)).collect();
        let want: Vec<u64> = model.keys().copied().collect();
        assert_eq!(got, want);
    });
}

#[test]
fn bulk_sequential_then_holes() {
    for_each_seed(0x2000, |rng| {
        let n = rng.gen_range(1..3_000usize);
        let stride = rng.gen_range(1..7usize);
        let mut tree = BPlusTree::new(MemPager::new());
        for i in 0..n {
            tree.insert(key_of(i as u64), i as u64);
        }
        for i in (0..n).step_by(stride) {
            tree.remove(&key_of(i as u64));
        }
        let survivors: Vec<u64> = tree.scan_all().iter().map(|(k, _)| number_of(k)).collect();
        let expected: Vec<u64> =
            (0..n as u64).filter(|i| !(*i as usize).is_multiple_of(stride)).collect();
        assert_eq!(survivors, expected);
    });
}
