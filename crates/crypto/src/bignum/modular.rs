//! Modular arithmetic: Montgomery multiplication, modular exponentiation,
//! GCD, and modular inverse.
//!
//! [`MontgomeryCtx`] implements the CIOS (coarsely integrated operand
//! scanning) variant of Montgomery multiplication over `u64` limbs, which is
//! what makes RSA signing practical without external crypto crates. Odd
//! moduli only — exactly what RSA and Miller–Rabin need; `BigUint::modpow`
//! splits an even modulus into its odd part and a power of two so it stays
//! total.
//!
//! There is one CIOS body ([`cios`]). A modulus of 4, 8, 16 or 32 limbs —
//! the prime and modulus widths of RSA-512/1024/2048 — enters it through
//! [`cios_fixed`], where the limb count is a compile-time constant and the
//! inner loops unroll (a 16-limb product takes 0.7× the time it takes
//! through the run-time-width entry: EXPERIMENTS.md "Crypto kernel"); every
//! other width runs the same body on run-time lengths. An exponentiation
//! keeps its operands in stack buffers up to [`STACK_LIMBS`] limbs and
//! ping-pongs the accumulator between two of them, so it allocates nothing
//! below that width.

use super::BigUint;

/// Widest modulus whose exponentiation scratch lives on the stack
/// (2048 bits); wider ones fall back to one heap buffer.
const STACK_LIMBS: usize = 32;

/// Sliding-window width for exponents too long for the binary ladder: the
/// table holds the 16 odd powers `base^1, base^3, … base^31`.
const WINDOW: usize = 5;
const TABLE: usize = 1 << (WINDOW - 1);

/// Precomputed Montgomery-domain parameters for a fixed odd modulus.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    n: BigUint,
    /// `-n[0]^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64·k)`, padded to `k` limbs.
    rr: Vec<u64>,
}

impl MontgomeryCtx {
    /// Builds a context for odd modulus `n > 1`.
    ///
    /// # Panics
    /// Panics if `n` is even or `n <= 1`.
    pub fn new(n: &BigUint) -> Self {
        assert!(!n.is_even(), "Montgomery modulus must be odd");
        assert!(!n.is_one() && !n.is_zero(), "modulus must exceed 1");
        let k = n.limbs.len();
        let n0inv = inv64(n.limbs[0]).wrapping_neg();
        let mut rr = BigUint::one().shl_bits(128 * k).rem_ref(n).limbs;
        rr.resize(k, 0);
        MontgomeryCtx {
            n: n.clone(),
            n0inv,
            rr,
        }
    }

    /// Number of limbs in the modulus.
    pub(crate) fn limb_count(&self) -> usize {
        self.n.limbs.len()
    }

    /// Converts `x < n` into the Montgomery domain (`x·R mod n`).
    pub fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        let k = self.limb_count();
        let (mut stack, mut heap) = ([0u64; STACK_LIMBS], Vec::new());
        let padded = scratch(&mut stack, &mut heap, k);
        self.reduce_into(x, padded);
        let mut out = vec![0u64; k];
        self.mont_mul(padded, &self.rr, &mut out);
        out
    }

    /// `out = x mod n`, as `k` limbs.
    fn reduce_into(&self, x: &BigUint, out: &mut [u64]) {
        let reduced;
        let x = if x < &self.n {
            x
        } else {
            reduced = x.rem_ref(&self.n);
            &reduced
        };
        out.fill(0);
        out[..x.limbs.len()].copy_from_slice(&x.limbs);
    }

    /// Converts a Montgomery-domain value back to the ordinary domain.
    pub fn from_mont(&self, x: &[u64]) -> BigUint {
        let k = self.limb_count();
        let (mut stack, mut heap) = ([0u64; STACK_LIMBS], Vec::new());
        let out = scratch(&mut stack, &mut heap, k);
        self.leave_mont(x, out);
        BigUint::from_limbs(out.to_vec())
    }

    /// `out = x·R^{-1} mod n`: one product with 1.
    fn leave_mont(&self, x: &[u64], out: &mut [u64]) {
        let (mut stack, mut heap) = ([0u64; STACK_LIMBS], Vec::new());
        let one = scratch(&mut stack, &mut heap, self.limb_count());
        one[0] = 1;
        self.mont_mul(x, one, out);
    }

    /// CIOS Montgomery multiplication: `out = a·b·R^{-1} mod n`.
    ///
    /// `a`, `b` and `out` are `k`-limb slices, `a` and `b` with values `< n`.
    /// The limb count selects the compiled width; nothing is allocated.
    ///
    /// # Panics
    /// Panics if a slice is not exactly `k` limbs.
    pub fn mont_mul(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        let (n, n0inv) = (&self.n.limbs[..], self.n0inv);
        match n.len() {
            4 => cios_fixed::<4>(a, b, n, n0inv, out),
            8 => cios_fixed::<8>(a, b, n, n0inv, out),
            16 => cios_fixed::<16>(a, b, n, n0inv, out),
            32 => cios_fixed::<32>(a, b, n, n0inv, out),
            _ => cios(a, b, n, n0inv, out),
        }
    }

    /// [`Self::mont_mul`] through the run-time-width entry whatever the
    /// limb count (test/bench hook: the two entries must agree limb for
    /// limb).
    #[doc(hidden)]
    pub fn mont_mul_any_width(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        cios(a, b, &self.n.limbs, self.n0inv, out)
    }

    /// Modular exponentiation `base^exp mod n` using this precomputed
    /// context.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let k = self.limb_count();
        let (mut stack, mut heap) = ([0u64; 2 * STACK_LIMBS], Vec::new());
        let (b, x) = scratch(&mut stack, &mut heap, 2 * k).split_at_mut(k);
        self.reduce_into(base, b);
        self.pow_into(b, exp, x);
        BigUint::from_limbs(x.to_vec())
    }

    /// `base^exp mod n` over big-endian bytes, allocating nothing up to
    /// [`STACK_LIMBS`] limbs: `base` is read as an integer, and `out` gets
    /// the power left-padded to its length, which must hold `n`. `false`
    /// (and `out` untouched) when `base >= n`.
    pub(crate) fn pow_be_bytes(&self, base: &[u8], exp: &BigUint, out: &mut [u8]) -> bool {
        let k = self.limb_count();
        let (mut stack, mut heap) = ([0u64; 2 * STACK_LIMBS], Vec::new());
        let (b, x) = scratch(&mut stack, &mut heap, 2 * k).split_at_mut(k);
        let mut chunks = base.rchunks(8);
        for (limb, chunk) in b.iter_mut().zip(&mut chunks) {
            *limb = chunk.iter().fold(0, |l, &byte| (l << 8) | u64::from(byte));
        }
        if chunks.flatten().any(|&byte| byte != 0) || ge(b, &self.n.limbs) {
            return false;
        }
        self.pow_into(b, exp, x);
        out.fill(0);
        for (chunk, limb) in out.rchunks_mut(8).zip(&*x) {
            chunk.copy_from_slice(&limb.to_be_bytes()[8 - chunk.len()..]);
        }
        true
    }

    /// `out = base^exp mod n`, in the ordinary domain, for a `k`-limb
    /// `base < n`.
    ///
    /// An odd exponent of at most 32 bits other than 1 (RSA's e = 65537)
    /// takes one product fewer than entering and leaving the Montgomery
    /// domain around the power: the ladder builds `base^(e−1)·R`, and one
    /// product with the *plain* base gives `base^(e−1)·R · base · R^{-1} =
    /// base^e`, already out of the domain. For e = 65537 that is 18
    /// products: into the domain, 16 squarings, the plain product. The
    /// plain operand is why `base < n` is required.
    fn pow_into(&self, base: &[u64], exp: &BigUint, out: &mut [u64]) {
        let k = self.limb_count();
        let (mut stack, mut heap) = ([0u64; STACK_LIMBS], Vec::new());
        let x = scratch(&mut stack, &mut heap, k);
        match exp.limbs() {
            [] => {
                out.fill(0);
                out[0] = 1;
            }
            &[e] if e & 1 == 1 && e > 1 && e <= u64::from(u32::MAX) => {
                let even = e - 1;
                let bits = (u64::BITS - even.leading_zeros()) as usize;
                self.pow_mont(base, bits, |i| even >> i & 1 == 1, x);
                self.mont_mul(x, base, out);
            }
            _ => {
                self.pow_mont(base, exp.bit_len(), |i| exp.bit(i), x);
                self.leave_mont(x, out);
            }
        }
    }

    /// `out = base^exp · R mod n`: the power of a `k`-limb `base < n`,
    /// left in the Montgomery domain (Miller–Rabin keeps squaring it
    /// there). The exponent is `e_bits` bits long, bit `i` being `bit(i)`;
    /// it must be nonzero.
    ///
    /// Strategy selection:
    /// - small exponents (≤ 32 bits, e.g. the RSA public exponent 65537)
    ///   use plain left-to-right square-and-multiply — building a window
    ///   table would cost more multiplications than it saves;
    /// - larger exponents (the CRT half-exponents, Miller–Rabin's `d`) use
    ///   a 5-bit sliding window over a table of odd powers.
    ///
    /// Either way the accumulator alternates between two buffers, one
    /// product reading the one and writing the other, and every buffer is
    /// carved from one stack array up to [`STACK_LIMBS`] limbs.
    pub(crate) fn pow_mont(
        &self,
        base: &[u64],
        e_bits: usize,
        bit: impl Fn(usize) -> bool,
        out: &mut [u64],
    ) {
        assert!(e_bits > 0, "pow_mont exponent must be nonzero");
        let k = self.limb_count();
        // The ladder needs the base alone; the window, its odd powers. Only
        // the stack array the strategy uses is zeroed.
        let (mut ladder, mut window, mut heap);
        let (powers, stack): (usize, &mut [u64]) = if e_bits <= 32 {
            ladder = [0u64; 3 * STACK_LIMBS];
            (1, &mut ladder)
        } else {
            window = [0u64; (TABLE + 2) * STACK_LIMBS];
            (TABLE, &mut window)
        };
        heap = Vec::new();
        let (table, rest) = scratch(stack, &mut heap, (powers + 2) * k).split_at_mut(powers * k);
        let (mut acc, mut tmp) = rest.split_at_mut(k);
        // One product, then the roles of the two buffers swap.
        macro_rules! step {
            ($b:expr) => {{
                self.mont_mul(acc, $b, tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }};
        }
        self.mont_mul(base, &self.rr, &mut table[..k]);

        if e_bits <= 32 {
            // Binary ladder: e_bits-1 squarings + (popcount-1) multiplies.
            acc.copy_from_slice(table);
            for i in (0..e_bits - 1).rev() {
                step!(acc);
                if bit(i) {
                    step!(table);
                }
            }
        } else {
            // table[i] = base^(2i+1), built from base^2 (held in `tmp`).
            self.mont_mul(&table[..k], &table[..k], tmp);
            for i in 1..TABLE {
                let (done, next) = table.split_at_mut(i * k);
                self.mont_mul(&done[(i - 1) * k..], tmp, &mut next[..k]);
            }
            // Left to right: a zero bit is one squaring; a one bit opens the
            // longest window of at most WINDOW bits that ends in a one, which
            // costs its length in squarings and one multiply by an odd power.
            let mut rem = e_bits; // unprocessed bits are exp[..rem]
            let mut started = false;
            while rem > 0 {
                if !bit(rem - 1) {
                    step!(acc);
                    rem -= 1;
                    continue;
                }
                let mut low = rem.saturating_sub(WINDOW);
                while !bit(low) {
                    low += 1;
                }
                let digit = (low..rem).rev().fold(0, |d, i| (d << 1) | bit(i) as usize);
                let power = &table[(digit >> 1) * k..][..k];
                if started {
                    for _ in low..rem {
                        step!(acc);
                    }
                    step!(power);
                } else {
                    acc.copy_from_slice(power);
                    started = true;
                }
                rem = low;
            }
        }
        out.copy_from_slice(acc);
    }
}

/// `len` zeroed limbs: the front of `stack` (fresh, all zero) if it is long
/// enough, else `heap` (fresh, empty) grown to fit.
fn scratch<'a>(stack: &'a mut [u64], heap: &'a mut Vec<u64>, len: usize) -> &'a mut [u64] {
    if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap.resize(len, 0);
        heap
    }
}

/// The CIOS body: `out = a·b·R^{-1} mod n` over `k = n.len()` limbs, for
/// `a, b < n`. The running sum is `out` plus one carry word (`top`); each
/// outer step adds `a[i]·b`, then adds the multiple of `n` that zeroes the
/// low limb and shifts down one limb.
#[inline(always)]
fn cios(a: &[u64], b: &[u64], n: &[u64], n0inv: u64, out: &mut [u64]) {
    let k = n.len();
    // Checked once here so the loops below index without bounds checks.
    assert!(
        k > 0 && a.len() == k && b.len() == k && out.len() == k,
        "Montgomery operands must match the modulus width"
    );
    out.fill(0);
    let mut top = 0u64;
    for &ai in a {
        // out:top += ai * b
        let mut c = 0u128;
        for j in 0..k {
            let s = out[j] as u128 + (ai as u128) * (b[j] as u128) + c;
            out[j] = s as u64;
            c = s >> 64;
        }
        let hi = top as u128 + c;

        // Reduce: make the sum divisible by 2^64 and shift down one limb.
        let m = out[0].wrapping_mul(n0inv);
        let mut c = (out[0] as u128 + (m as u128) * (n[0] as u128)) >> 64;
        for j in 1..k {
            let s = out[j] as u128 + (m as u128) * (n[j] as u128) + c;
            out[j - 1] = s as u64;
            c = s >> 64;
        }
        let s = (hi as u64) as u128 + c;
        out[k - 1] = s as u64;
        top = (hi >> 64) as u64 + (s >> 64) as u64;
    }

    // Conditional final subtraction keeps the result < n.
    if top != 0 || ge(out, n) {
        let mut borrow = 0u64;
        for j in 0..k {
            let (d1, b1) = out[j].overflowing_sub(n[j]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[j] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
    }
}

/// [`cios`] compiled for one limb count: the conversions to `[u64; K]` are
/// what tell the compiler the width.
fn cios_fixed<const K: usize>(a: &[u64], b: &[u64], n: &[u64], n0inv: u64, out: &mut [u64]) {
    let (Ok(a), Ok(b), Ok(n), Ok(out)) = (
        <&[u64; K]>::try_from(a),
        <&[u64; K]>::try_from(b),
        <&[u64; K]>::try_from(n),
        <&mut [u64; K]>::try_from(out),
    ) else {
        panic!("Montgomery operands must match the modulus width");
    };
    cios(a, b, n, n0inv, out)
}

/// Limb-slice comparison `a >= b` for equal-length slices.
fn ge(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x > y;
        }
    }
    true
}

/// Inverse of an odd `u64` modulo 2^64 by Newton iteration.
fn inv64(n: u64) -> u64 {
    debug_assert!(n & 1 == 1);
    let mut x = n; // Correct mod 2^3.
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(x)));
    }
    debug_assert_eq!(n.wrapping_mul(x), 1);
    x
}

impl BigUint {
    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Odd moduli use windowed Montgomery multiplication
    /// ([`MontgomeryCtx::modpow`]). Even moduli split `m = 2^t · m_odd` and
    /// recombine `self^exp mod m_odd` (Montgomery) with `self^exp mod 2^t`
    /// (truncated square-and-multiply) via the power-of-two CRT, avoiding
    /// the division-based fallback entirely.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow modulus must be nonzero");
        if m.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        if !m.is_even() {
            let ctx = MontgomeryCtx::new(m);
            return ctx.modpow(self, exp);
        }

        // m = 2^t · m_odd with m_odd odd.
        let t = trailing_zero_bits(m);
        let m_odd = m.shr_bits(t);

        // x2 = self^exp mod 2^t (word-truncated square-and-multiply).
        let x2 = pow_mod_pow2(self, exp, t);
        if m_odd.is_one() {
            return x2;
        }

        // x1 = self^exp mod m_odd via Montgomery.
        let ctx = MontgomeryCtx::new(&m_odd);
        let x1 = ctx.modpow(self, exp);

        // CRT: y = x1 + m_odd · ((x2 − x1) · m_odd^{-1} mod 2^t)
        // is the unique value < m with y ≡ x1 (mod m_odd), y ≡ x2 (mod 2^t).
        let minv = inv_mod_pow2(&m_odd, t);
        let diff = mask_low_bits(&x2.add_ref(&pow2(t)).sub_ref(&mask_low_bits(&x1, t)), t);
        let h = mask_low_bits(&diff.mul_ref(&minv), t);
        x1.add_ref(&m_odd.mul_ref(&h))
    }

    /// Square-and-multiply with `div_rem` reduction (any modulus ≥ 1).
    pub fn modpow_naive(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow modulus must be nonzero");
        if m.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem_ref(m);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul_ref(&base).rem_ref(m);
            }
            base = base.mul_ref(&base).rem_ref(m);
        }
        result
    }

    /// Greatest common divisor (Euclid's algorithm).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let r = a.rem_ref(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: the `x` with `self·x ≡ 1 (mod m)`, if it exists.
    ///
    /// Returns `None` when `gcd(self, m) != 1` or `m <= 1`.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Extended Euclid with sign-tracked coefficients.
        let mut old_r = self.rem_ref(m);
        let mut r = m.clone();
        let mut old_t = Signed::pos(BigUint::one());
        let mut t = Signed::pos(BigUint::zero());
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let qt = t.mul_mag(&q);
            let next_t = old_t.sub(&qt);
            old_t = std::mem::replace(&mut t, next_t);
        }
        if !old_r.is_one() {
            return None;
        }
        Some(old_t.rem_euclid(m))
    }
}

/// Number of trailing zero bits (i.e. the largest `t` with `2^t | n`).
fn trailing_zero_bits(n: &BigUint) -> usize {
    for (i, &limb) in n.limbs.iter().enumerate() {
        if limb != 0 {
            return i * 64 + limb.trailing_zeros() as usize;
        }
    }
    0
}

/// `2^t` as a `BigUint`.
fn pow2(t: usize) -> BigUint {
    BigUint::one().shl_bits(t)
}

/// Keeps the low `t` bits of `x` (i.e. `x mod 2^t`) without division.
fn mask_low_bits(x: &BigUint, t: usize) -> BigUint {
    let full = t / 64;
    let rem = t % 64;
    let mut limbs: Vec<u64> = x.limbs.iter().copied().take(full + 1).collect();
    if limbs.len() > full {
        if rem == 0 {
            limbs.truncate(full);
        } else {
            limbs[full] &= (1u64 << rem) - 1;
        }
    }
    BigUint::from_limbs(limbs)
}

/// `base^exp mod 2^t` by square-and-multiply with word truncation.
fn pow_mod_pow2(base: &BigUint, exp: &BigUint, t: usize) -> BigUint {
    let mut result = BigUint::one();
    let mut b = mask_low_bits(base, t);
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            result = mask_low_bits(&result.mul_ref(&b), t);
        }
        b = mask_low_bits(&b.mul_ref(&b), t);
    }
    result
}

/// Inverse of odd `a` modulo `2^t` by Newton–Hensel lifting: each step
/// doubles the number of correct low bits, starting from the word-level
/// inverse of the lowest limb.
fn inv_mod_pow2(a: &BigUint, t: usize) -> BigUint {
    debug_assert!(!a.is_even());
    let two = BigUint::from_u64(2);
    let mut x = BigUint::from_u64(inv64(a.limbs[0]));
    let mut correct = 64usize;
    while correct < t {
        correct *= 2;
        let bits = correct.min(t + 64);
        // x <- x · (2 − a·x) mod 2^bits
        let ax = mask_low_bits(&a.mul_ref(&x), bits);
        let factor = mask_low_bits(&two.add_ref(&pow2(bits)).sub_ref(&ax), bits);
        x = mask_low_bits(&x.mul_ref(&factor), bits);
    }
    mask_low_bits(&x, t)
}

/// Minimal signed big integer used only by the extended Euclid loop.
#[derive(Clone, Debug)]
struct Signed {
    mag: BigUint,
    neg: bool,
}

impl Signed {
    fn pos(mag: BigUint) -> Self {
        Signed { mag, neg: false }
    }

    fn mul_mag(&self, m: &BigUint) -> Signed {
        Signed {
            mag: self.mag.mul_ref(m),
            neg: self.neg && !self.mag.is_zero(),
        }
    }

    fn sub(&self, other: &Signed) -> Signed {
        match (self.neg, other.neg) {
            (false, true) => Signed::pos(self.mag.add_ref(&other.mag)),
            (true, false) => Signed {
                mag: self.mag.add_ref(&other.mag),
                neg: true,
            },
            (sn, _) => {
                // Same signs: subtract magnitudes.
                if self.mag >= other.mag {
                    Signed {
                        neg: sn && self.mag != other.mag,
                        mag: self.mag.sub_ref(&other.mag),
                    }
                } else {
                    Signed {
                        mag: other.mag.sub_ref(&self.mag),
                        neg: !sn,
                    }
                }
            }
        }
    }

    /// Canonical representative in `[0, m)`.
    fn rem_euclid(&self, m: &BigUint) -> BigUint {
        let r = self.mag.rem_ref(m);
        if self.neg && !r.is_zero() {
            m.sub_ref(&r)
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn short_odd_exponents_match_naive() {
        let mut rng = StdRng::seed_from_u64(42);
        // 4, 8, 16 and 32 limbs take the compiled widths; 3 and 5 the
        // run-time one.
        for limbs in [3usize, 4, 5, 8, 16, 32] {
            let mut m = BigUint::from_limbs((0..limbs).map(|_| rng.next_u64()).collect());
            m.limbs.resize(limbs, 0);
            m.limbs[limbs - 1] |= 1 << 63;
            m.limbs[0] |= 1;
            let ctx = MontgomeryCtx::new(&m);
            let mut exps = vec![3u64, 5, 65537, u64::from(u32::MAX)];
            exps.extend((0..12).map(|_| u64::from(rng.next_u32() | 1)));
            for e in exps {
                let e = n(e);
                let random = BigUint::random_below(&m, &mut rng);
                for base in [n(0), n(1), n(2), random, m.sub_ref(&n(1))] {
                    assert_eq!(
                        ctx.modpow(&base, &e),
                        base.modpow_naive(&e, &m),
                        "limbs={limbs} e={e} base={base}"
                    );
                }
            }
        }
    }

    #[test]
    fn pow_be_bytes_refuses_a_base_at_or_above_the_modulus() {
        let m = BigUint::from_hex("c3a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5b3").unwrap();
        let ctx = MontgomeryCtx::new(&m);
        let len = m.to_bytes_be().len();
        let e = n(65537);
        let mut out = vec![0u8; len];
        for base in [m.clone(), m.add_ref(&n(1))] {
            let bytes = base.to_bytes_be_padded(len + 8).unwrap();
            assert!(!ctx.pow_be_bytes(&bytes, &e, &mut out));
        }
        let base = m.sub_ref(&n(2));
        // Leading zero bytes beyond the limb width are only padding.
        assert!(ctx.pow_be_bytes(&base.to_bytes_be_padded(len + 9).unwrap(), &e, &mut out));
        assert_eq!(
            out,
            base.modpow_naive(&e, &m).to_bytes_be_padded(len).unwrap()
        );
    }

    #[test]
    fn inv64_on_odd_values() {
        for v in [1u64, 3, 5, 0xdead_beef_1234_5679, u64::MAX] {
            let x = inv64(v);
            assert_eq!(v.wrapping_mul(x), 1);
        }
    }

    #[test]
    fn mont_mul_matches_schoolbook() {
        let m = BigUint::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let ctx = MontgomeryCtx::new(&m);
        let a = BigUint::from_hex("1234567890abcdef").unwrap();
        let b = BigUint::from_hex("fedcba0987654321aabb").unwrap();
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        let mut pm = vec![0u64; ctx.limb_count()];
        ctx.mont_mul(&am, &bm, &mut pm);
        let prod = ctx.from_mont(&pm);
        assert_eq!(prod, a.mul_ref(&b).rem_ref(&m));
    }

    #[test]
    fn to_from_mont_roundtrip() {
        let m = BigUint::from_hex("deadbeefcafebabedeadbeefcafebabf").unwrap();
        let ctx = MontgomeryCtx::new(&m);
        for hexes in [
            "0",
            "1",
            "2",
            "deadbeef",
            "deadbeefcafebabedeadbeefcafebabe",
        ] {
            let x = BigUint::from_hex(hexes).unwrap().rem_ref(&m);
            let xm = ctx.to_mont(&x);
            assert_eq!(ctx.from_mont(&xm), x);
        }
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn montgomery_rejects_even_modulus() {
        let _ = MontgomeryCtx::new(&n(100));
    }

    #[test]
    fn modpow_small_cases() {
        assert_eq!(n(2).modpow(&n(10), &n(1000)), n(24)); // 1024 mod 1000
        assert_eq!(n(3).modpow(&n(0), &n(7)), n(1));
        assert_eq!(n(0).modpow(&n(5), &n(7)), n(0));
        assert_eq!(n(5).modpow(&n(1), &n(7)), n(5));
        assert_eq!(n(7).modpow(&n(2), &n(49)), n(0));
    }

    #[test]
    fn modpow_fermat_little_theorem() {
        // p prime, a^(p-1) = 1 mod p.
        let p = n(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(n(a).modpow(&n(1_000_000_006), &p), n(1));
        }
    }

    #[test]
    fn modpow_matches_naive_large() {
        let m = BigUint::from_hex("c3a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5b3").unwrap();
        let b = BigUint::from_hex("1234567890abcdef998877").unwrap();
        let e = BigUint::from_hex("fedcba").unwrap();
        assert_eq!(b.modpow(&e, &m), b.modpow_naive(&e, &m));
    }

    #[test]
    fn modpow_even_modulus_falls_back() {
        let m = n(1 << 20);
        assert_eq!(n(3).modpow(&n(10), &m), n(59049));
        assert_eq!(n(2).modpow(&n(25), &m), BigUint::zero());
    }

    #[test]
    fn modpow_even_modulus_crt_matches_naive() {
        // The even-modulus path splits m = 2^t · m_odd, runs Montgomery on
        // the odd part and square-multiply mod 2^t, then recombines by CRT.
        // Cross-check every branch against the naive ladder.
        let cases: [(u64, u64, u64); 8] = [
            (3, 10, 2),                    // t=1, trivial odd part
            (7, 13, 6),                    // m = 2 · 3
            (12345, 77, 1 << 16),          // pure power of two, even base
            (54321, 99, 3 << 20),          // large t with odd part 3
            (999_983, 65537, 2 * 999_979), // RSA-style exponent
            (5, 0, 12),                    // zero exponent
            (0, 5, 48),                    // zero base
            (1 << 30, 3, 6),               // base larger than modulus
        ];
        for (b, e, m) in cases {
            assert_eq!(
                n(b).modpow(&n(e), &n(m)),
                n(b).modpow_naive(&n(e), &n(m)),
                "b={b} e={e} m={m}"
            );
        }

        // Multi-limb even moduli with both factors large.
        let m = BigUint::from_hex("3b9aca07deadbeefcafef00d00000000").unwrap(); // 2^32 · odd
        let b = BigUint::from_hex("123456789abcdef0123456789abcdef").unwrap();
        let e = BigUint::from_hex("10001").unwrap();
        assert_eq!(b.modpow(&e, &m), b.modpow_naive(&e, &m));

        let m = BigUint::from_hex("fffffffffffffffe").unwrap(); // 2 · large odd
        let e = BigUint::from_hex("abcdef0123").unwrap();
        assert_eq!(b.modpow(&e, &m), b.modpow_naive(&e, &m));
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(31)), n(1));
        assert_eq!(n(0).gcd(&n(5)), n(5));
        assert_eq!(n(5).gcd(&n(0)), n(5));
    }

    #[test]
    fn modinv_basic() {
        let inv = n(3).modinv(&n(7)).unwrap();
        assert_eq!(inv, n(5)); // 3·5 = 15 ≡ 1 mod 7
        assert!(n(6).modinv(&n(9)).is_none()); // gcd 3
        assert!(n(4).modinv(&n(1)).is_none());
    }

    #[test]
    fn modinv_large() {
        let m =
            BigUint::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
                .unwrap(); // P-256 prime
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef").unwrap();
        let inv = a.modinv(&m).unwrap();
        assert_eq!(a.mul_ref(&inv).rem_ref(&m), BigUint::one());
    }

    #[test]
    fn modinv_of_rsa_style_exponent() {
        // e = 65537 mod a random odd phi-like value must satisfy e·d ≡ 1.
        let phi =
            BigUint::from_hex("6ae2d0e87c9dbcd1f30a9bd2e1aa9cc0a1b2c3d4e5f60718293a4b5c6d7e8f00")
                .unwrap();
        let e = n(65537);
        let d = e.modinv(&phi).unwrap();
        assert_eq!(e.mul_ref(&d).rem_ref(&phi), BigUint::one());
    }
}
