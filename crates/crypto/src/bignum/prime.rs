//! Prime generation and primality testing for RSA key generation.
//!
//! Candidates are filtered by trial division against a small-prime table
//! before running Miller–Rabin rounds with random bases — the standard
//! recipe for generating RSA primes.

use super::{BigUint, MontgomeryCtx};
use rand::RngCore;

/// Trial-division table: all primes below 1000.
const SMALL_PRIMES: &[u64] = &[
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

impl BigUint {
    /// Uniformly random value with exactly `bits` significant bits
    /// (the top bit is always set); `bits == 0` yields zero.
    pub fn random_bits(bits: usize, rng: &mut dyn RngCore) -> BigUint {
        if bits == 0 {
            return BigUint::zero();
        }
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
        let top_bits = bits - (limbs - 1) * 64;
        // Mask excess bits, then force the top bit so bit_len is exact.
        if top_bits < 64 {
            v[limbs - 1] &= (1u64 << top_bits) - 1;
        }
        v[limbs - 1] |= 1u64 << (top_bits - 1);
        BigUint::from_limbs(v)
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn random_below(bound: &BigUint, rng: &mut dyn RngCore) -> BigUint {
        assert!(!bound.is_zero(), "random_below bound must be nonzero");
        let bits = bound.bit_len();
        let limbs = bits.div_ceil(64);
        let top_bits = bits - (limbs - 1) * 64;
        let mask = if top_bits == 64 {
            u64::MAX
        } else {
            (1u64 << top_bits) - 1
        };
        loop {
            let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
            v[limbs - 1] &= mask;
            let candidate = BigUint::from_limbs(v);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// A composite passes all rounds with probability at most `4^-rounds`.
pub fn is_probable_prime(n: &BigUint, rounds: u32, rng: &mut dyn RngCore) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in SMALL_PRIMES {
        let bp = BigUint::from_u64(p);
        if *n == bp {
            return true;
        }
        if n.rem_ref(&bp).is_zero() {
            return false;
        }
    }
    // n is odd and > 997² is not guaranteed, but all small factors are gone;
    // any remaining composite below 1000² would have a factor below 1000.
    if n < &BigUint::from_u64(1_000_000) {
        return true;
    }

    // Write n - 1 = d · 2^s with d odd.
    let n_minus_1 = n.sub_ref(&BigUint::one());
    let s = trailing_zeros(&n_minus_1);
    let d = n_minus_1.shr_bits(s);
    let two = BigUint::from_u64(2);
    let bound = n_minus_1.sub_ref(&two); // bases drawn from [2, n-2]

    // One context per candidate; `x` stays in the Montgomery domain, where
    // values below `n` still have exactly one representation, so it is
    // compared against the Montgomery forms of 1 and n − 1.
    let ctx = MontgomeryCtx::new(n);
    let one_m = ctx.to_mont(&BigUint::one());
    let minus_one_m = ctx.to_mont(&n_minus_1);
    let mut x = vec![0u64; ctx.limb_count()];
    let mut sq = x.clone();

    'witness: for _ in 0..rounds {
        let a = BigUint::random_below(&bound, rng).add_ref(&two);
        ctx.pow_mont(&a, &d, &mut x);
        if x == one_m || x == minus_one_m {
            continue;
        }
        for _ in 0..s.saturating_sub(1) {
            ctx.mont_mul(&x, &x, &mut sq);
            std::mem::swap(&mut x, &mut sq);
            if x == minus_one_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The top two bits are set (so products of two such primes have exactly
/// `2·bits` bits, as RSA key generation requires) and the value is odd.
///
/// # Panics
/// Panics if `bits < 8`.
pub fn gen_prime(bits: usize, rng: &mut dyn RngCore) -> BigUint {
    assert!(bits >= 8, "prime size too small: {bits} bits");
    loop {
        let mut candidate = BigUint::random_bits(bits, rng);
        // Set the second-highest bit and make odd.
        candidate = or_bit(candidate, bits - 2);
        candidate = or_bit(candidate, 0);
        // Cheap pre-filter: one round with base 2 (via full MR machinery is
        // fine; trial division inside is the real filter), then 32 rounds.
        if is_probable_prime(&candidate, 32, rng) {
            return candidate;
        }
    }
}

fn or_bit(mut n: BigUint, i: usize) -> BigUint {
    let limb = i / 64;
    if limb >= n.limbs.len() {
        n.limbs.resize(limb + 1, 0);
    }
    n.limbs[limb] |= 1u64 << (i % 64);
    n.normalize();
    n
}

fn trailing_zeros(n: &BigUint) -> usize {
    debug_assert!(!n.is_zero());
    let mut count = 0usize;
    for &l in n.limbs() {
        if l == 0 {
            count += 64;
        } else {
            return count + l.trailing_zeros() as usize;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 997, 1009, 104729, 1_000_000_007] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 9, 15, 1001, 104730, 1_000_000_007 * 3] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat pseudoprimes that Miller-Rabin must still catch.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "Carmichael number {c} should be composite"
            );
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let p = BigUint::one().shl_bits(127).sub_ref(&BigUint::one());
        assert!(is_probable_prime(&p, 16, &mut rng()));
        // 2^128 - 1 is composite.
        let c = BigUint::one().shl_bits(128).sub_ref(&BigUint::one());
        assert!(!is_probable_prime(&c, 16, &mut rng()));
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut r = rng();
        for bits in [1usize, 7, 63, 64, 65, 128, 512] {
            for _ in 0..10 {
                assert_eq!(BigUint::random_bits(bits, &mut r).bit_len(), bits);
            }
        }
        assert!(BigUint::random_bits(0, &mut r).is_zero());
    }

    #[test]
    fn random_below_in_range() {
        let mut r = rng();
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            assert!(BigUint::random_below(&bound, &mut r) < bound);
        }
        // Bound of 1 always yields 0.
        assert!(BigUint::random_below(&BigUint::one(), &mut r).is_zero());
    }

    #[test]
    fn gen_prime_produces_primes_of_right_size() {
        let mut r = rng();
        for bits in [64usize, 128, 256] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit must be set");
            assert!(is_probable_prime(&p, 16, &mut r));
        }
    }

    #[test]
    fn trailing_zeros_counts() {
        assert_eq!(trailing_zeros(&BigUint::from_u64(1)), 0);
        assert_eq!(trailing_zeros(&BigUint::from_u64(8)), 3);
        assert_eq!(trailing_zeros(&BigUint::one().shl_bits(100)), 100);
    }
}
