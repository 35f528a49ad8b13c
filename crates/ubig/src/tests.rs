use crate::Uint;
use std::str::FromStr;

fn u(v: u64) -> Uint {
    Uint::from(v)
}

#[test]
fn zero_and_one_basics() {
    assert!(Uint::zero().is_zero());
    assert!(!Uint::one().is_zero());
    assert_eq!(Uint::zero().to_u64(), Some(0));
    assert_eq!(Uint::one().to_u64(), Some(1));
    assert_eq!(Uint::zero().bits(), 0);
    assert_eq!(Uint::one().bits(), 1);
    assert_eq!(Uint::default(), Uint::zero());
}

#[test]
fn from_limbs_normalizes() {
    let a = Uint::from_limbs(vec![5, 0, 0]);
    assert_eq!(a, u(5));
    assert_eq!(a.limbs(), &[5]);
    assert_eq!(Uint::from_limbs(vec![0, 0]), Uint::zero());
}

#[test]
fn add_with_carry_across_limbs() {
    let a = u(u64::MAX);
    let b = a.add_u64(1);
    assert_eq!(b.limbs(), &[0, 1]);
    assert_eq!(b.bits(), 65);
    let c = b.add_ref(&u(u64::MAX));
    assert_eq!(c.limbs(), &[u64::MAX, 1]);
}

#[test]
fn sub_with_borrow_across_limbs() {
    let a = Uint::from_limbs(vec![0, 1]); // 2^64
    assert_eq!(a.checked_sub_u64(1).unwrap(), u(u64::MAX));
    assert_eq!(a.checked_sub(&u(u64::MAX)).unwrap(), u(1));
    assert_eq!(u(3).checked_sub(&u(5)), None);
    assert_eq!(u(3).checked_sub_u64(5), None);
}

#[test]
#[should_panic(expected = "underflow")]
fn sub_operator_panics_on_underflow() {
    let _ = u(1) - u(2);
}

#[test]
fn mul_u64_carries() {
    let a = u(u64::MAX);
    let b = a.mul_u64(u64::MAX);
    // (2^64-1)^2 = 2^128 - 2^65 + 1 = u128::MAX - 2*(2^64 - 1)
    let expected = Uint::from(u128::MAX) - Uint::from(u128::from(u64::MAX) * 2);
    assert_eq!(b, expected);
}

#[test]
fn mul_ref_matches_u128() {
    let a = u(0xdead_beef_1234_5678);
    let b = u(0x9abc_def0_8765_4321);
    let prod = a.mul_ref(&b);
    let expected = u128::from(0xdead_beef_1234_5678u64) * u128::from(0x9abc_def0_8765_4321u64);
    assert_eq!(prod.to_u128(), Some(expected));
}

#[test]
fn div_rem_u64_basics() {
    let (q, r) = u(17).div_rem_u64(5);
    assert_eq!((q.to_u64().unwrap(), r), (3, 2));
    let (q, r) = Uint::from(u128::MAX).div_rem_u64(3);
    assert_eq!(r, u128::MAX.rem_euclid(3) as u64);
    assert_eq!(q.to_u128(), Some(u128::MAX / 3));
    let (q, r) = u(42).div_rem_u64(1);
    assert_eq!((q.to_u64().unwrap(), r), (42, 0));
}

#[test]
#[should_panic(expected = "division by zero")]
fn div_by_zero_panics() {
    let _ = u(1).div_rem_u64(0);
}

#[test]
fn div_rem_full_width() {
    let a = u(7).pow(100);
    let b = u(7).pow(40);
    let (q, r) = a.div_rem(&b);
    assert_eq!(q, u(7).pow(60));
    assert!(r.is_zero());

    let (q, r) = a.add_u64(5).div_rem(&b);
    assert_eq!(q, u(7).pow(60));
    assert_eq!(r, u(5));

    let small = u(10);
    let (q, r) = small.div_rem(&a);
    assert!(q.is_zero());
    assert_eq!(r, small);
}

#[test]
fn pow_conventions() {
    assert_eq!(u(0).pow(0), u(1));
    assert_eq!(u(0).pow(5), u(0));
    assert_eq!(u(2).pow(64), Uint::from_limbs(vec![0, 1]));
    assert_eq!(u(3).pow(4), u(81));
}

#[test]
fn shifts() {
    let a = u(1);
    assert_eq!(a.shl_bits(64).limbs(), &[0, 1]);
    assert_eq!(a.shl_bits(65).limbs(), &[0, 2]);
    assert_eq!(a.shl_bits(0), a);
    let b = Uint::from_limbs(vec![0, 2]);
    assert_eq!(b.shr_bits(65), u(1));
    assert_eq!(b.shr_bits(200), Uint::zero());
    assert_eq!(Uint::zero().shl_bits(10), Uint::zero());
}

#[test]
fn display_and_parse_small() {
    assert_eq!(Uint::zero().to_string(), "0");
    assert_eq!(u(12345).to_string(), "12345");
    assert_eq!(Uint::from_str("12345").unwrap(), u(12345));
    assert!(Uint::from_str("").is_err());
    assert!(Uint::from_str("12a").is_err());
}

#[test]
fn display_pads_internal_chunks() {
    // A value whose low decimal chunk has leading zeros when printed.
    let v = Uint::from_str("100000000000000000000000000000000000001").unwrap();
    assert_eq!(v.to_string(), "100000000000000000000000000000000000001");
}

#[test]
fn display_known_big_value() {
    // 2^128 = 340282366920938463463374607431768211456
    let v = u(2).pow(128);
    assert_eq!(v.to_string(), "340282366920938463463374607431768211456");
    assert_eq!(v.bits(), 129);
    assert_eq!(v.decimal_digits(), 39);
}

#[test]
fn ordering() {
    assert!(u(2) < u(3));
    assert!(Uint::from_limbs(vec![0, 1]) > u(u64::MAX));
    assert!(u(5) > 4u64);
    assert!(u(5) == 5u64);
    assert!(Uint::from_limbs(vec![0, 1]) > u64::MAX);
}

#[test]
fn byte_round_trip() {
    for v in [0u64, 1, 255, 256, u64::MAX] {
        let x = u(v);
        assert_eq!(Uint::from_le_bytes(&x.to_le_bytes()), x);
    }
    let big = u(3).pow(200);
    assert_eq!(Uint::from_le_bytes(&big.to_le_bytes()), big);
}

#[test]
fn uid_parent_formula_shape() {
    // parent(i) = (i-2)/k + 1 on big identifiers: the exact operation the
    // original-UID baseline performs.
    let k = 100u64;
    // A node at depth 40 in a complete 100-ary tree has an astronomically
    // large identifier; check parent^40 walks back to the root.
    let mut id = Uint::one();
    for _ in 0..40 {
        // first child of id: (id-1)*k + 2
        id = (id - 1u64) * k + 2u64;
    }
    assert!(id.bits() > 64, "depth-40 100-ary identifier must overflow u64");
    let mut cur = id;
    for _ in 0..40 {
        cur = (cur - 2u64).div_rem_u64(k).0 + 1u64;
    }
    assert_eq!(cur, Uint::one());
}

/// Property tests over a fixed ladder of seeds: every run checks the same
/// cases, and a failure names the seed that replays it.
mod props {
    use super::*;

    const CASES: u64 = 256;

    /// SplitMix64 (Steele, Lea, Flood), local because this crate sits
    /// below `xmlgen` and depends on nothing.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Shifted so that every bit length occurs, not only 127 and 128.
        fn next_u128(&mut self) -> u128 {
            let wide = u128::from(self.next_u64()) << 64 | u128::from(self.next_u64());
            wide >> (self.next_u64() % 128)
        }

        /// A value of `min..max` limbs (the modulo bias is irrelevant
        /// for choosing a length).
        fn uint(&mut self, min: u64, max: u64) -> Uint {
            let len = min + self.next_u64() % (max - min);
            Uint::from_limbs((0..len).map(|_| self.next_u64()).collect())
        }
    }

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
            property(&mut SplitMix64(seed));
        }
    }

    #[test]
    fn add_matches_u128() {
        for_each_seed(0x1000, |rng| {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            let s = Uint::from(a).add_ref(&Uint::from(b));
            assert_eq!(s.to_u128(), Some(u128::from(a) + u128::from(b)));
        });
    }

    #[test]
    fn add_sub_round_trip() {
        for_each_seed(0x2000, |rng| {
            let (a, b) = (rng.uint(0, 5), rng.uint(0, 5));
            let s = a.add_ref(&b);
            assert_eq!(s.checked_sub(&b).unwrap(), a);
            assert_eq!(s.checked_sub(&a).unwrap(), b);
        });
    }

    #[test]
    fn mul_div_round_trip() {
        for_each_seed(0x3000, |rng| {
            let a = rng.uint(0, 4);
            let d = rng.next_u64().max(1);
            let (q, r) = a.mul_u64(d).div_rem_u64(d);
            assert_eq!(q, a);
            assert_eq!(r, 0);
        });
    }

    #[test]
    fn div_rem_reconstructs() {
        for_each_seed(0x4000, |rng| {
            let (a, b) = (rng.uint(0, 4), rng.uint(1, 3));
            if b.is_zero() {
                return;
            }
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            assert_eq!(q.mul_ref(&b).add_ref(&r), a);
        });
    }

    #[test]
    fn decimal_round_trip() {
        for_each_seed(0x5000, |rng| {
            let a = rng.uint(0, 4);
            assert_eq!(Uint::from_str(&a.to_string()).unwrap(), a);
        });
    }

    #[test]
    fn bytes_round_trip() {
        for_each_seed(0x6000, |rng| {
            let a = rng.uint(0, 5);
            assert_eq!(Uint::from_le_bytes(&a.to_le_bytes()), a);
        });
    }

    #[test]
    fn shift_round_trip() {
        for_each_seed(0x7000, |rng| {
            let a = rng.uint(0, 4);
            let s = rng.next_u64() % 200;
            assert_eq!(a.shl_bits(s).shr_bits(s), a);
        });
    }

    #[test]
    fn cmp_matches_u128() {
        for_each_seed(0x8000, |rng| {
            let (a, b) = (rng.next_u128(), rng.next_u128());
            assert_eq!(Uint::from(a).cmp(&Uint::from(b)), a.cmp(&b));
        });
    }

    #[test]
    fn bits_matches_u128() {
        for_each_seed(0x9000, |rng| {
            let a = rng.next_u128();
            assert_eq!(Uint::from(a).bits(), u64::from(128 - a.leading_zeros()));
        });
    }
}

#[test]
fn display_respects_format_width() {
    let v = u(42);
    assert_eq!(format!("{v:>8}"), "      42");
    assert_eq!(format!("{v:08}"), "00000042");
    let z = Uint::zero();
    assert_eq!(format!("{z:>4}"), "   0");
}

#[test]
fn sum_iterator() {
    let total: Uint = (1..=100u64).map(Uint::from).sum();
    assert_eq!(total, u(5050));
    let empty: Uint = std::iter::empty::<Uint>().sum();
    assert_eq!(empty, Uint::zero());
}

#[test]
fn assign_operators() {
    let mut v = u(10);
    v += 5u64;
    assert_eq!(v, u(15));
    v -= 3u64;
    assert_eq!(v, u(12));
    v *= 4u64;
    assert_eq!(v, u(48));
    v += &u(2);
    assert_eq!(v, u(50));
    assert_eq!((&v >> 1u64), u(25));
    assert_eq!((&v << 1u64), u(100));
}
