//! Property-based tests validating bignum and rational arithmetic against
//! machine-integer models and algebraic laws.

use std::hash::{DefaultHasher, Hash, Hasher};

use bayonet_num::{BigInt, BigUint, Rat};
use proptest::prelude::*;

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Values clustered around the small/big representation boundaries (2^63,
/// 2^64) plus uniform words and double words, so every test in this file
/// that uses it exercises both representations and the crossover.
fn arb_boundary_u128() -> impl Strategy<Value = u128> {
    prop_oneof![
        any::<u64>().prop_map(u128::from),
        any::<u128>(),
        (0u32..9).prop_map(|d| ((1u128 << 63) - 4) + d as u128),
        (0u32..9).prop_map(|d| ((1u128 << 64) - 4) + d as u128),
        (0u32..9).prop_map(|d| (u128::MAX - 8) + d as u128),
    ]
}

fn biguint_from_u128(v: u128) -> BigUint {
    BigUint::from(v)
}

prop_compose! {
    /// A BigUint built from up to four random limbs (up to 256 bits).
    fn arb_biguint()(limbs in proptest::collection::vec(any::<u64>(), 0..4)) -> BigUint {
        BigUint::from_limbs(limbs)
    }
}

prop_compose! {
    fn arb_bigint()(mag in arb_biguint(), neg in any::<bool>()) -> BigInt {
        let v = BigInt::from(mag);
        if neg { -v } else { v }
    }
}

prop_compose! {
    fn arb_rat()(n in -1_000_000i64..1_000_000, d in 1i64..1000) -> Rat {
        Rat::ratio(n, d)
    }
}

proptest! {
    #[test]
    fn biguint_add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let s = BigUint::from(a) + BigUint::from(b);
        prop_assert_eq!(s.to_u128(), Some(a as u128 + b as u128));
    }

    #[test]
    fn biguint_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let p = BigUint::from(a) * BigUint::from(b);
        prop_assert_eq!(p.to_u128(), Some(a as u128 * b as u128));
    }

    #[test]
    fn biguint_div_rem_invariant(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn biguint_div_rem_matches_u128(a in any::<u128>(), b in 1u128..) {
        let (q, r) = biguint_from_u128(a).div_rem(&biguint_from_u128(b));
        prop_assert_eq!(q, biguint_from_u128(a / b));
        prop_assert_eq!(r, biguint_from_u128(a % b));
    }

    #[test]
    fn biguint_gcd_divides_both(a in arb_biguint(), b in arb_biguint()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.div_rem(&g).1.is_zero());
            prop_assert!(b.div_rem(&g).1.is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn biguint_gcd_matches_u128(a in any::<u128>(), b in any::<u128>()) {
        fn gcd128(mut a: u128, mut b: u128) -> u128 {
            while b != 0 { let t = a % b; a = b; b = t; }
            a
        }
        prop_assert_eq!(
            biguint_from_u128(a).gcd(&biguint_from_u128(b)),
            biguint_from_u128(gcd128(a, b))
        );
    }

    #[test]
    fn biguint_display_parse_roundtrip(a in arb_biguint()) {
        let s = a.to_string();
        let back: BigUint = s.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn biguint_shift_roundtrip(a in arb_biguint(), bits in 0u64..200) {
        prop_assert_eq!(&(&a << bits) >> bits, a);
    }

    #[test]
    fn biguint_cmp_consistent_with_sub(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.checked_sub(&b).is_some(), a >= b);
    }

    #[test]
    fn bigint_ring_laws(a in arb_bigint(), b in arb_bigint(), c in arb_bigint()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        prop_assert_eq!(&a - &a, BigInt::zero());
    }

    #[test]
    fn bigint_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let (ba, bb) = (BigInt::from(a), BigInt::from(b));
        prop_assert_eq!(&ba + &bb, BigInt::from(a as i128 + b as i128));
        prop_assert_eq!(&ba - &bb, BigInt::from(a as i128 - b as i128));
        prop_assert_eq!(&ba * &bb, BigInt::from(a as i128 * b as i128));
        if b != 0 {
            let (q, r) = ba.div_rem(&bb);
            prop_assert_eq!(q, BigInt::from(a as i128 / b as i128));
            prop_assert_eq!(r, BigInt::from(a as i128 % b as i128));
        }
    }

    #[test]
    fn bigint_ordering_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(BigInt::from(a).cmp(&BigInt::from(b)), (a as i128).cmp(&(b as i128)));
    }

    #[test]
    fn rat_field_laws(a in arb_rat(), b in arb_rat(), c in arb_rat()) {
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        if !b.is_zero() {
            prop_assert_eq!(&(&a / &b) * &b, a.clone());
        }
        prop_assert_eq!(&a - &a, Rat::zero());
    }

    #[test]
    fn rat_lowest_terms_invariant(a in arb_rat(), b in arb_rat()) {
        for v in [&a + &b, &a * &b, &a - &b] {
            let g = v.numer().magnitude().gcd(v.denom());
            prop_assert!(v.is_zero() || g.is_one(), "not reduced: {}", v);
            prop_assert!(!v.denom().is_zero());
        }
    }

    #[test]
    fn rat_ordering_matches_f64(a in arb_rat(), b in arb_rat()) {
        // With numerators < 2^20 and denominators < 2^10, f64 comparison is exact.
        let fa = a.to_f64();
        let fb = b.to_f64();
        if fa != fb {
            prop_assert_eq!(a < b, fa < fb);
        }
    }

    #[test]
    fn rat_display_parse_roundtrip(a in arb_rat()) {
        let back: Rat = a.to_string().parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn rat_floor_ceil_bracket(a in arb_rat()) {
        let fl = Rat::from(a.floor());
        let ce = Rat::from(a.ceil());
        prop_assert!(fl <= a && a <= ce);
        prop_assert!(&ce - &fl <= Rat::one());
    }

    // ---- small/big representation differentials -------------------------
    //
    // The tagged representation must be observationally identical to pure
    // limb arithmetic. These tests cross-check against u128/i128 reference
    // arithmetic on operands straddling the 2^63/2^64 boundaries, and pin
    // Hash/Eq agreement for values reached via small and big code paths.

    #[test]
    fn biguint_boundary_ops_match_u128(a in arb_boundary_u128(), b in arb_boundary_u128()) {
        let (ba, bb) = (BigUint::from(a), BigUint::from(b));
        if let Some(s) = a.checked_add(b) {
            prop_assert_eq!((&ba + &bb).to_u128(), Some(s));
        }
        if let Some(p) = a.checked_mul(b) {
            prop_assert_eq!((&ba * &bb).to_u128(), Some(p));
        }
        if a >= b {
            prop_assert_eq!((&ba - &bb).to_u128(), Some(a - b));
        }
        prop_assert_eq!(ba.cmp(&bb), a.cmp(&b));
        if let (Some(q), Some(r)) = (a.checked_div(b), a.checked_rem(b)) {
            let (bq, br) = ba.div_rem(&bb);
            prop_assert_eq!(bq.to_u128(), Some(q));
            prop_assert_eq!(br.to_u128(), Some(r));
        }
    }

    #[test]
    fn biguint_hash_eq_across_representations(v in arb_boundary_u128()) {
        // Reach the same value twice: directly, and by shrinking a value
        // that transited the multi-limb representation.
        let direct = BigUint::from(v);
        let shifted = (BigUint::from(v) << 64u64) >> 64u64;
        let detour = (&BigUint::from(v) + &BigUint::from(u64::MAX)) - BigUint::from(u64::MAX);
        for other in [shifted, detour] {
            prop_assert_eq!(&direct, &other);
            prop_assert_eq!(hash_of(&direct), hash_of(&other));
            prop_assert_eq!(direct.cmp(&other), std::cmp::Ordering::Equal);
            prop_assert_eq!(direct.limbs(), other.limbs());
        }
    }

    #[test]
    fn bigint_boundary_ops_match_i128(a in any::<i64>(), b in any::<i64>()) {
        // i64 extremes exercise the 2^63 sign boundary; products cover the
        // full i128 range without overflow.
        let (ba, bb) = (BigInt::from(a), BigInt::from(b));
        prop_assert_eq!((&ba + &bb).to_i128(), Some(a as i128 + b as i128));
        prop_assert_eq!((&ba - &bb).to_i128(), Some(a as i128 - b as i128));
        prop_assert_eq!((&ba * &bb).to_i128(), Some(a as i128 * b as i128));
    }

    #[test]
    fn rat_ops_match_i128_reference(
        an in any::<i64>(), ad in 1i64..(1 << 31),
        bn in any::<i64>(), bd in 1i64..(1 << 31),
    ) {
        // Reference arithmetic entirely in i128: with |num| < 2^63 and
        // den < 2^31, cross products stay far from overflow.
        let a = Rat::ratio(an, ad);
        let b = Rat::ratio(bn, bd);
        let sum_ref = Rat::new(
            BigInt::from(an as i128 * bd as i128 + bn as i128 * ad as i128),
            BigInt::from(ad as i128 * bd as i128),
        );
        let prod_ref = Rat::new(
            BigInt::from(an as i128 * bn as i128),
            BigInt::from(ad as i128 * bd as i128),
        );
        prop_assert_eq!(&a + &b, sum_ref.clone());
        prop_assert_eq!(&a * &b, prod_ref.clone());
        let mut s = a.clone();
        s += &b;
        prop_assert_eq!(&s, &sum_ref);
        prop_assert_eq!(hash_of(&s), hash_of(&sum_ref));
        let mut p = a.clone();
        p *= &b;
        prop_assert_eq!(&p, &prod_ref);
        prop_assert_eq!(hash_of(&p), hash_of(&prod_ref));
        let mut d = a.clone();
        d -= &b;
        prop_assert_eq!(d, &a - &b);
        prop_assert_eq!(
            a.cmp(&b),
            (an as i128 * bd as i128).cmp(&(bn as i128 * ad as i128))
        );
    }

    #[test]
    fn rat_hash_eq_across_representations(n in any::<i64>(), d in 1i64..(1 << 31)) {
        // The same rational built small and via a huge common factor that
        // forces the limb path before reduction brings it back to words.
        let small = Rat::ratio(n, d);
        let huge = BigInt::from(10) * BigInt::from(10).pow(25);
        let big = Rat::new(BigInt::from(n) * &huge, BigInt::from(d) * &huge);
        prop_assert_eq!(&small, &big);
        prop_assert_eq!(hash_of(&small), hash_of(&big));
        prop_assert_eq!(small.cmp(&big), std::cmp::Ordering::Equal);
        prop_assert_eq!(small.complement(), big.complement());
    }
}
