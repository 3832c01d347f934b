//! Addition, subtraction, multiplication, and bit shifts for [`BigUint`].

use super::BigUint;
use std::ops::{Add, Mul, Shl, Shr, Sub};

impl BigUint {
    /// `self + other`.
    pub fn add_ref(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// `self - other`; panics if the result would be negative.
    pub fn sub_ref(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// Schoolbook multiplication, O(n·m) in the limb counts. Key generation
    /// and the CRT recombination multiply at most 16 × 16 limbs (RSA-2048);
    /// the hot path never comes here — it is Montgomery's.
    pub fn mul_ref(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let (a, b) = (&self.limbs, &other.limbs);
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &bj) in b.iter().enumerate() {
                let t = (ai as u128) * (bj as u128) + (out[i + j] as u128) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            // The row's top limb is still zero: rows below i end at i + b.len() - 1.
            out[i + b.len()] = carry as u64;
        }
        BigUint::from_limbs(out)
    }

    /// `self << bits`.
    pub fn shl_bits(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self >> bits`.
    pub(crate) fn shr_bits(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let out = if bit_shift == 0 {
            src.to_vec()
        } else {
            let mut out = Vec::with_capacity(src.len());
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
            out
        };
        BigUint::from_limbs(out)
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $impl_fn:ident) => {
        impl $trait<&BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                self.$impl_fn(rhs)
            }
        }
        impl $trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                (&self).$impl_fn(&rhs)
            }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                (&self).$impl_fn(rhs)
            }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                self.$impl_fn(&rhs)
            }
        }
    };
}

forward_binop!(Add, add, add_ref);
forward_binop!(Sub, sub, sub_ref);
forward_binop!(Mul, mul, mul_ref);

impl Shl<usize> for &BigUint {
    type Output = BigUint;
    fn shl(self, bits: usize) -> BigUint {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;
    fn shr(self, bits: usize) -> BigUint {
        self.shr_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn add_small() {
        assert_eq!(n(2) + n(3), n(5));
        assert_eq!(n(0) + n(7), n(7));
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let sum = &a + &BigUint::one();
        assert_eq!(sum.limbs(), &[0, 1]);
        let b = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let sum2 = &b + &BigUint::one();
        assert_eq!(sum2.limbs(), &[0, 0, 1]);
    }

    #[test]
    fn sub_basic() {
        assert_eq!(n(9) - n(4), n(5));
        assert_eq!(n(4).checked_sub(&n(4)).unwrap(), BigUint::zero());
        assert!(n(3).checked_sub(&n(4)).is_none());
    }

    #[test]
    fn sub_borrows_across_limbs() {
        let a = BigUint::from_limbs(vec![0, 1]); // 2^64
        let d = &a - &BigUint::one();
        assert_eq!(d.limbs(), &[u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = n(1) - n(2);
    }

    #[test]
    fn mul_small() {
        assert_eq!(n(6) * n(7), n(42));
        assert_eq!(n(0) * n(7), BigUint::zero());
    }

    #[test]
    fn mul_cross_limb() {
        let a = BigUint::from_u64(u64::MAX);
        let sq = &a * &a;
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(sq.limbs(), &[1, u64::MAX - 1]);
    }

    #[test]
    fn shifts() {
        let a = n(1);
        assert_eq!(a.shl_bits(64).limbs(), &[0, 1]);
        assert_eq!(a.shl_bits(65).limbs(), &[0, 2]);
        let b = BigUint::from_limbs(vec![0, 1]);
        assert_eq!(b.shr_bits(64), n(1));
        assert_eq!(b.shr_bits(63), n(2));
        assert_eq!(b.shr_bits(65), BigUint::zero());
        assert_eq!(n(0b1010).shr_bits(1), n(0b101));
    }

    #[test]
    fn shift_roundtrip() {
        let a = BigUint::from_limbs(vec![0xdead_beef, 0xcafe_babe, 0x1234]);
        for bits in [0, 1, 13, 63, 64, 65, 127, 130] {
            assert_eq!(a.shl_bits(bits).shr_bits(bits), a, "bits={bits}");
        }
    }

    #[test]
    fn distributive_law_spot_check() {
        let a = BigUint::from_limbs(vec![u64::MAX, 3]);
        let b = n(0xffff_0000);
        let c = n(0x1234_5678);
        assert_eq!(&a * &(&b + &c), (&a * &b) + (&a * &c));
    }
}
