//! Property-based tests for the big-integer substrate.
//!
//! These pin down the ring axioms and division invariants that the RSA
//! implementation silently relies on.

use proptest::prelude::*;
use tep_crypto::bignum::MontgomeryCtx;
use tep_crypto::BigUint;

/// Strategy: a BigUint with up to `max_limbs` random limbs.
fn biguint(max_limbs: usize) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(BigUint::from_limbs)
}

/// Strategy: a nonzero BigUint.
fn biguint_nonzero(max_limbs: usize) -> impl Strategy<Value = BigUint> {
    biguint(max_limbs).prop_filter("nonzero", |n| !n.is_zero())
}

/// Limb counts on both sides of every width the Montgomery kernel is
/// compiled for (4, 8, 16, 32), plus the smallest; always exercised.
const EDGE_WIDTHS: [usize; 14] = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33];

/// An odd `k`-limb modulus > 1 cut from `limbs` (33 random limbs). With
/// `saturated` the top limb is `u64::MAX`, so products overflow `k` limbs
/// (the kernel's carry word is set) and the final subtraction fires.
fn odd_modulus(limbs: &[u64], k: usize, saturated: bool) -> BigUint {
    let mut m = limbs[..k].to_vec();
    m[0] |= 1;
    m[k - 1] = if saturated { u64::MAX } else { m[k - 1] | 2 };
    BigUint::from_limbs(m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `modpow` against the division-based oracle at every edge width and one
    /// random width, with exponents on both strategies (65537 and a short one
    /// take the binary ladder, a modulus-width one the sliding window) and
    /// bases at the edges of the residue range.
    #[test]
    fn modpow_matches_naive_at_every_width(
        limbs in prop::collection::vec(any::<u64>(), 33),
        base in biguint(34),
        exp in prop::collection::vec(any::<u64>(), 33),
        random_width in 1usize..=33,
        saturated in any::<bool>(),
    ) {
        for k in EDGE_WIDTHS.into_iter().chain([random_width]) {
            let m = odd_modulus(&limbs, k, saturated);
            let m_minus_1 = m.sub_ref(&BigUint::one());
            let exps = [
                BigUint::from_u64(65537),
                BigUint::from_u64(exp[0] >> 40),
                BigUint::from_limbs(exp[..k].to_vec()),
            ];
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                m_minus_1.clone(),
                m.clone(),
                m.add_ref(&m_minus_1),
                base.clone(), // usually wider than m
                base.rem_ref(&m),
            ];
            for e in &exps {
                for b in &bases {
                    prop_assert_eq!(b.modpow(e, &m), b.modpow_naive(e, &m), "k={} e={} b={}", k, e, b);
                }
            }
        }
    }

    /// The fixed-width entry and the any-width body are one algorithm: same
    /// limbs out, and the product they agree on is the right one.
    #[test]
    fn mont_mul_entries_agree(
        limbs in prop::collection::vec(any::<u64>(), 33),
        a in biguint(33),
        b in biguint(33),
        saturated in any::<bool>(),
    ) {
        for k in EDGE_WIDTHS {
            let m = odd_modulus(&limbs, k, saturated);
            let ctx = MontgomeryCtx::new(&m);
            let m_minus_1 = m.sub_ref(&BigUint::one());
            for (a, b) in [(a.rem_ref(&m), b.rem_ref(&m)), (m_minus_1.clone(), m_minus_1.clone())] {
                let (am, bm) = (ctx.to_mont(&a), ctx.to_mont(&b));
                let (mut dispatched, mut any_width) = (vec![0u64; k], vec![0u64; k]);
                ctx.mont_mul(&am, &bm, &mut dispatched);
                ctx.mont_mul_any_width(&am, &bm, &mut any_width);
                prop_assert_eq!(&dispatched, &any_width, "k={}", k);
                prop_assert_eq!(ctx.from_mont(&dispatched), a.mul_ref(&b).rem_ref(&m), "k={}", k);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutative(a in biguint(6), b in biguint(6)) {
        prop_assert_eq!(a.add_ref(&b), b.add_ref(&a));
    }

    #[test]
    fn add_associative(a in biguint(4), b in biguint(4), c in biguint(4)) {
        prop_assert_eq!(a.add_ref(&b).add_ref(&c), a.add_ref(&b.add_ref(&c)));
    }

    #[test]
    fn add_sub_roundtrip(a in biguint(6), b in biguint(6)) {
        let sum = a.add_ref(&b);
        prop_assert_eq!(sum.sub_ref(&b), a.clone());
        prop_assert_eq!(sum.sub_ref(&a), b);
    }

    #[test]
    fn mul_commutative(a in biguint(5), b in biguint(5)) {
        prop_assert_eq!(a.mul_ref(&b), b.mul_ref(&a));
    }

    #[test]
    fn mul_associative(a in biguint(3), b in biguint(3), c in biguint(3)) {
        prop_assert_eq!(a.mul_ref(&b).mul_ref(&c), a.mul_ref(&b.mul_ref(&c)));
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(3), b in biguint(3), c in biguint(3)) {
        prop_assert_eq!(
            a.mul_ref(&b.add_ref(&c)),
            a.mul_ref(&b).add_ref(&a.mul_ref(&c))
        );
    }

    #[test]
    fn mul_identity_and_zero(a in biguint(6)) {
        prop_assert_eq!(a.mul_ref(&BigUint::one()), a.clone());
        prop_assert_eq!(a.mul_ref(&BigUint::zero()), BigUint::zero());
    }

    #[test]
    fn div_rem_reconstructs(a in biguint(8), b in biguint_nonzero(5)) {
        let (q, r) = a.div_rem(&b);
        prop_assert_eq!(q.mul_ref(&b).add_ref(&r), a);
        prop_assert!(r < b);
    }

    #[test]
    fn div_rem_self_is_one(a in biguint_nonzero(6)) {
        let (q, r) = a.div_rem(&a);
        prop_assert!(q.is_one());
        prop_assert!(r.is_zero());
    }

    #[test]
    fn shift_is_mul_by_power_of_two(a in biguint(4), bits in 0usize..130) {
        let shifted = a.shl_bits(bits);
        let pow = BigUint::one().shl_bits(bits);
        prop_assert_eq!(shifted, a.mul_ref(&pow));
    }

    #[test]
    fn bytes_roundtrip(a in biguint(6)) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in biguint(6)) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn modpow_matches_naive(
        b in biguint(3),
        e in biguint(1),
        m in biguint_nonzero(3).prop_filter("odd modulus > 1", |m| !m.is_even() && !m.is_one()),
    ) {
        prop_assert_eq!(b.modpow(&e, &m), b.modpow_naive(&e, &m));
    }

    #[test]
    fn modpow_product_of_exponents(
        b in biguint(2),
        e1 in 0u64..50, e2 in 0u64..50,
        m in biguint_nonzero(2).prop_filter("odd modulus > 1", |m| !m.is_even() && !m.is_one()),
    ) {
        // b^(e1+e2) = b^e1 · b^e2 (mod m)
        let lhs = b.modpow(&BigUint::from_u64(e1 + e2), &m);
        let rhs = b
            .modpow(&BigUint::from_u64(e1), &m)
            .mul_ref(&b.modpow(&BigUint::from_u64(e2), &m))
            .rem_ref(&m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn gcd_divides_both(a in biguint_nonzero(4), b in biguint_nonzero(4)) {
        let g = a.gcd(&b);
        prop_assert!(a.rem_ref(&g).is_zero());
        prop_assert!(b.rem_ref(&g).is_zero());
    }

    #[test]
    fn modinv_is_inverse(
        a in biguint_nonzero(3),
        m in biguint_nonzero(3).prop_filter("m > 1", |m| !m.is_one()),
    ) {
        if let Some(inv) = a.modinv(&m) {
            prop_assert_eq!(a.mul_ref(&inv).rem_ref(&m), BigUint::one());
            prop_assert!(inv < m);
        } else {
            // No inverse implies a nontrivial common factor.
            prop_assert!(!a.gcd(&m).is_one());
        }
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in biguint(5), b in biguint(5)) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}
