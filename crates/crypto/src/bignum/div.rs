//! Long division (Knuth Algorithm D) for [`BigUint`].
//!
//! Division runs on base-2³² digits with `u64` intermediates — the classic
//! `divmnu` formulation from Hacker's Delight — which keeps the quotient-digit
//! estimation simple and well-tested. Limb conversion costs are negligible
//! next to the O(m·n) core loop.

use super::BigUint;

impl BigUint {
    /// Computes `(self / divisor, self % divisor)`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        let u = to_u32_digits(&self.limbs);
        let v = to_u32_digits(&divisor.limbs);
        let (q, r) = divmnu(&u, &v);
        (from_u32_digits(&q), from_u32_digits(&r))
    }

    /// `self % m`.
    pub fn rem_ref(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `self / m` (floor).
    pub(crate) fn div_ref(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).0
    }
}

impl std::ops::Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.rem_ref(rhs)
    }
}

impl std::ops::Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_ref(rhs)
    }
}

/// Expands u64 limbs into little-endian u32 digits (not normalized).
fn to_u32_digits(limbs: &[u64]) -> Vec<u32> {
    let mut out = Vec::with_capacity(limbs.len() * 2);
    for &l in limbs {
        out.push(l as u32);
        out.push((l >> 32) as u32);
    }
    while out.last() == Some(&0) {
        out.pop();
    }
    out
}

/// Packs little-endian u32 digits back into a normalized `BigUint`.
fn from_u32_digits(digits: &[u32]) -> BigUint {
    let mut limbs = Vec::with_capacity(digits.len() / 2 + 1);
    for chunk in digits.chunks(2) {
        let lo = chunk[0] as u64;
        let hi = chunk.get(1).copied().unwrap_or(0) as u64;
        limbs.push(lo | (hi << 32));
    }
    BigUint::from_limbs(limbs)
}

const BASE: u64 = 1 << 32;

/// Knuth Algorithm D: divides `u` by `v` (little-endian u32 digits, both
/// normalized, `u >= v`, `v` non-empty). Returns `(quotient, remainder)`.
fn divmnu(u: &[u32], v: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let m = u.len();
    let n = v.len();
    debug_assert!(n > 0 && m >= n);

    if n == 1 {
        // Short division by a single digit.
        let d = v[0] as u64;
        let mut q = vec![0u32; m];
        let mut rem = 0u64;
        for j in (0..m).rev() {
            let cur = (rem << 32) | u[j] as u64;
            q[j] = (cur / d) as u32;
            rem = cur % d;
        }
        let r = if rem == 0 { vec![] } else { vec![rem as u32] };
        return (trim(q), r);
    }

    // D1: normalize so the divisor's top digit has its high bit set.
    let s = v[n - 1].leading_zeros();
    let mut vn = vec![0u32; n];
    for i in (1..n).rev() {
        vn[i] = shl_digit(v[i], v[i - 1], s);
    }
    vn[0] = v[0] << s;

    let mut un = vec![0u32; m + 1];
    un[m] = if s == 0 {
        0
    } else {
        (u[m - 1] as u64 >> (32 - s)) as u32
    };
    for i in (1..m).rev() {
        un[i] = shl_digit(u[i], u[i - 1], s);
    }
    un[0] = u[0] << s;

    let mut q = vec![0u32; m - n + 1];

    // D2-D7: main loop over quotient digits.
    for j in (0..=(m - n)).rev() {
        // D3: estimate q̂.
        let numer = (un[j + n] as u64) * BASE + un[j + n - 1] as u64;
        let mut qhat = numer / vn[n - 1] as u64;
        let mut rhat = numer % vn[n - 1] as u64;
        loop {
            if qhat >= BASE || qhat * vn[n - 2] as u64 > BASE * rhat + un[j + n - 2] as u64 {
                qhat -= 1;
                rhat += vn[n - 1] as u64;
                if rhat < BASE {
                    continue;
                }
            }
            break;
        }

        // D4: multiply and subtract.
        let mut borrow = 0i64;
        let mut carry = 0u64;
        for i in 0..n {
            let p = qhat * vn[i] as u64 + carry;
            carry = p >> 32;
            let t = un[i + j] as i64 - borrow - (p as u32) as i64;
            un[i + j] = t as u32;
            borrow = if t < 0 { 1 } else { 0 };
        }
        let t = un[j + n] as i64 - borrow - carry as i64;
        un[j + n] = t as u32;

        q[j] = qhat as u32;

        // D6: add back if we subtracted one time too many.
        if t < 0 {
            q[j] -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let t = un[i + j] as u64 + vn[i] as u64 + carry;
                un[i + j] = t as u32;
                carry = t >> 32;
            }
            un[j + n] = (un[j + n] as u64).wrapping_add(carry) as u32;
        }
    }

    // D8: denormalize the remainder.
    let mut r = vec![0u32; n];
    for i in 0..n {
        let hi = if i + 1 < n { un[i + 1] } else { 0 };
        r[i] = shr_digit(hi, un[i], s);
    }
    (trim(q), trim(r))
}

/// `(hi:lo) << s` keeping the upper 32 bits of `lo` shifted in, for s in 0..32.
fn shl_digit(hi: u32, lo: u32, s: u32) -> u32 {
    if s == 0 {
        hi
    } else {
        (hi << s) | (lo >> (32 - s))
    }
}

/// `(hi:lo) >> s` pulling bits of `hi` down, for s in 0..32.
fn shr_digit(hi: u32, lo: u32, s: u32) -> u32 {
    if s == 0 {
        lo
    } else {
        (lo >> s) | (hi << (32 - s))
    }
}

fn trim(mut v: Vec<u32>) -> Vec<u32> {
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_division() {
        let (q, r) = n(17).div_rem(&n(5));
        assert_eq!((q, r), (n(3), n(2)));
        let (q, r) = n(4).div_rem(&n(5));
        assert_eq!((q, r), (BigUint::zero(), n(4)));
        let (q, r) = n(20).div_rem(&n(5));
        assert_eq!((q, r), (n(4), BigUint::zero()));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divide_by_zero_panics() {
        let _ = n(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn single_digit_divisor_multi_limb() {
        // (2^128 - 1) / 3 has a known closed form; verify via reconstruction.
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let (q, r) = a.div_rem(&n(3));
        assert_eq!(&q * &n(3) + &r, a);
        assert!(r < n(3));
    }

    #[test]
    fn multi_digit_divisor() {
        let a = BigUint::from_hex("123456789abcdef0fedcba9876543210aabbccdd").unwrap();
        let b = BigUint::from_hex("fedcba98765432100").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r < b);
    }

    #[test]
    fn add_back_case() {
        // Construct a case known to trigger the D6 add-back path:
        // u = b^4/2, v = b^2/2 + 1 in base 2^32 triggers qhat overestimation.
        let u = BigUint::from_limbs(vec![0, 0, 0x8000_0000_0000_0000]);
        let v = BigUint::from_limbs(vec![1, 0x8000_0000_0000_0000]);
        let (q, r) = u.div_rem(&v);
        assert_eq!(&q * &v + &r, u);
        assert!(r < v);
    }

    #[test]
    fn exact_division_by_self() {
        let a = BigUint::from_hex("deadbeefcafebabe1234567890").unwrap();
        let (q, r) = a.div_rem(&a);
        assert!(q.is_one());
        assert!(r.is_zero());
    }

    #[test]
    fn reconstruction_over_many_shapes() {
        // Deterministic pseudo-random coverage of limb-length combinations.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for ul in 1..6usize {
            for vl in 1..=ul {
                for _ in 0..50 {
                    let u = BigUint::from_limbs((0..ul).map(|_| next()).collect());
                    let v = BigUint::from_limbs((0..vl).map(|_| next()).collect());
                    if v.is_zero() {
                        continue;
                    }
                    let (q, r) = u.div_rem(&v);
                    assert_eq!(&q * &v + &r, u, "u={u} v={v}");
                    assert!(r < v, "u={u} v={v}");
                }
            }
        }
    }
}
