//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`BigUint`] stores magnitude as little-endian `u64` limbs and provides the
//! arithmetic needed by the RSA implementation in [`crate::rsa`]: addition,
//! subtraction, multiplication, Knuth-D division, Montgomery modular
//! exponentiation, extended-Euclid modular inverse, and Miller–Rabin
//! primality testing.
//!
//! The representation is always *normalized*: no trailing zero limbs, and
//! zero is the empty limb vector. All public constructors and operations
//! maintain this invariant.

mod div;
mod modular;
mod ops;
mod prime;

pub use modular::MontgomeryCtx;
pub(crate) use prime::gen_prime;

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Little-endian `u64` limbs; the limb vector never has trailing zeros
/// (zero is represented by an empty vector).
///
/// ```
/// use tep_crypto::BigUint;
///
/// let p = BigUint::from_u64(1_000_000_007); // prime
/// let a = BigUint::from_u64(123_456_789);
/// // Fermat: a^(p-1) ≡ 1 (mod p)
/// let e = p.sub_ref(&BigUint::one());
/// assert!(a.modpow(&e, &p).is_one());
/// // Modular inverse round-trips.
/// let inv = a.modinv(&p).unwrap();
/// assert!(a.mul_ref(&inv).rem_ref(&p).is_one());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value `0`.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value `1`.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs from little-endian limbs (normalizing trailing zeros).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Interprets big-endian bytes as an unsigned integer.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes as minimal-length big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most-significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes as big-endian bytes, left-padded with zeros to `len`.
    ///
    /// Returns `None` if the value does not fit in `len` bytes.
    pub(crate) fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        if self.bit_len().div_ceil(8) > len {
            return None;
        }
        let mut out = vec![0u8; len];
        // Limb i fills the i-th 8-byte chunk from the end; a short leading
        // chunk takes the limb's low bytes (its high ones are zero: it fits).
        for (chunk, limb) in out.rchunks_mut(8).zip(&self.limbs) {
            chunk.copy_from_slice(&limb.to_be_bytes()[8 - chunk.len()..]);
        }
        Some(out)
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` iff the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// `true` iff the value is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|&l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub(crate) fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (little-endian bit order; out-of-range bits are 0).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// Borrowed view of the limb slice (little-endian).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// Lower-case hexadecimal rendering without leading zeros (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Parses a hexadecimal string (no prefix). Returns `None` on invalid input.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let bytes: Vec<u8> = {
            // Left-pad to even length so hex pairs align.
            let padded = if s.len() % 2 == 1 {
                format!("0{s}")
            } else {
                s.to_owned()
            };
            let mut out = Vec::with_capacity(padded.len() / 2);
            let chars = padded.as_bytes();
            for pair in chars.chunks(2) {
                let hi = (pair[0] as char).to_digit(16)?;
                let lo = (pair[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
            }
            out
        };
        Some(Self::from_bytes_be(&bytes))
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        Self::from_u64(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_normalized() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from_limbs(vec![0, 0, 0]), BigUint::zero());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
    }

    #[test]
    fn from_u64_roundtrip() {
        for v in [0u64, 1, 2, 255, 256, u64::MAX] {
            let n = BigUint::from_u64(v);
            assert_eq!(n.limbs().first().copied().unwrap_or(0), v);
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let cases: Vec<Vec<u8>> = vec![
            vec![1],
            vec![0xff],
            vec![1, 0],
            vec![0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11],
            (1..=32).collect(),
        ];
        for bytes in cases {
            let n = BigUint::from_bytes_be(&bytes);
            assert_eq!(n.to_bytes_be(), bytes, "roundtrip failed for {bytes:?}");
        }
    }

    #[test]
    fn leading_zero_bytes_are_dropped() {
        let n = BigUint::from_bytes_be(&[0, 0, 1, 2]);
        assert_eq!(n.to_bytes_be(), vec![1, 2]);
    }

    #[test]
    fn padded_bytes() {
        let n = BigUint::from_u64(0x1234);
        assert_eq!(n.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0x12, 0x34]);
        assert_eq!(n.to_bytes_be_padded(2).unwrap(), vec![0x12, 0x34]);
        assert!(n.to_bytes_be_padded(1).is_none());
    }

    #[test]
    fn bit_len_and_bit() {
        let n = BigUint::from_u64(0b1011);
        assert_eq!(n.bit_len(), 4);
        assert!(n.bit(0));
        assert!(n.bit(1));
        assert!(!n.bit(2));
        assert!(n.bit(3));
        assert!(!n.bit(64));
        let big = BigUint::from_limbs(vec![0, 1]);
        assert_eq!(big.bit_len(), 65);
        assert!(big.bit(64));
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(9);
        let c = BigUint::from_limbs(vec![0, 1]); // 2^64
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn hex_roundtrip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let n = BigUint::from_hex(s).unwrap();
            // from_hex("0") is zero which renders as "0".
            assert_eq!(
                n.to_hex(),
                s.trim_start_matches('0').to_owned().min_nonempty()
            );
        }
        assert!(BigUint::from_hex("xyz").is_none());
        assert!(BigUint::from_hex("").is_none());
    }

    trait MinNonEmpty {
        fn min_nonempty(self) -> String;
    }
    impl MinNonEmpty for String {
        fn min_nonempty(self) -> String {
            if self.is_empty() {
                "0".to_owned()
            } else {
                self
            }
        }
    }

    #[test]
    fn is_even() {
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert!(BigUint::from_u64(2).is_even());
    }
}
