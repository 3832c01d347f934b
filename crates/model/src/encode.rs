//! Canonical byte encoding for hashing and storage.
//!
//! Every hash in the checksum scheme — `h(A, val)` for atomic objects and
//! the recursive `h(subtree(A))` for compound objects — must be computed
//! over a *canonical, unambiguous* byte string, or two different
//! (id, value) pairs could collide by construction rather than by breaking
//! the hash. This module defines that encoding:
//!
//! * every variable-length field is length-prefixed (u64 big-endian), and
//! * every encoded form starts with a domain-separation tag so an atom
//!   encoding can never be confused with a node encoding or a value.
//!
//! The same encoding doubles as the storage wire format for values.

use crate::id::ObjectId;
use crate::value::{CanonicalF64, Value};
use std::fmt;

/// Domain tag for `h(A, val)` atom hashes.
pub(crate) const TAG_ATOM: u8 = 0xA1;
/// Domain tag for compound-object node headers (Fig. 5 triples).
pub(crate) const TAG_NODE: u8 = 0xA2;

const VAL_NULL: u8 = 0x00;
const VAL_BOOL: u8 = 0x01;
const VAL_INT: u8 = 0x02;
const VAL_REAL: u8 = 0x03;
const VAL_TEXT: u8 = 0x04;
const VAL_BYTES: u8 = 0x05;

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    UnexpectedEof,
    /// Unknown tag byte.
    BadTag(u8),
    /// Text payload was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes after a complete structure.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            DecodeError::BadUtf8 => write!(f, "text payload is not valid UTF-8"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends the canonical encoding of `value` to `out`.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(VAL_NULL),
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(VAL_INT);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Real(r) => {
            out.push(VAL_REAL);
            out.extend_from_slice(&r.bits().to_be_bytes());
        }
        Value::Text(s) => {
            out.push(VAL_TEXT);
            out.extend_from_slice(&(s.len() as u64).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(VAL_BYTES);
            out.extend_from_slice(&(b.len() as u64).to_be_bytes());
            out.extend_from_slice(b);
        }
    }
}

/// Canonical encoding of a value as an owned buffer.
pub fn value_bytes(value: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(value, &mut out);
    out
}

/// A simple forward-only reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array::<4>()?))
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array::<8>()?))
    }

    /// Reads a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let slice = self.bytes(N)?;
        Ok(slice.try_into().expect("length checked"))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a u64-length-prefixed byte string.
    pub fn len_prefixed(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u64()? as usize;
        self.bytes(len)
    }

    /// Fails unless the reader is exhausted.
    pub fn expect_end(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }
}

/// Decodes one canonical value from the reader. Only the bytes
/// [`encode_value`] writes are accepted, so every value has exactly one
/// encoding.
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, DecodeError> {
    match r.u8()? {
        VAL_NULL => Ok(Value::Null),
        VAL_BOOL => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            t => Err(DecodeError::BadTag(t)),
        },
        VAL_INT => Ok(Value::Int(i64::from_be_bytes(r.array::<8>()?))),
        VAL_REAL => {
            // Only the canonical bits: a NaN payload or -0.0 that the
            // encoder never writes would give the value a second encoding.
            let bits = r.u64()?;
            let real = CanonicalF64::new(f64::from_bits(bits));
            if real.bits() != bits {
                return Err(DecodeError::BadTag(VAL_REAL));
            }
            Ok(Value::Real(real))
        }
        VAL_TEXT => {
            let bytes = r.len_prefixed()?;
            let s = std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)?;
            Ok(Value::Text(s.to_owned()))
        }
        VAL_BYTES => Ok(Value::Bytes(r.len_prefixed()?.to_vec())),
        t => Err(DecodeError::BadTag(t)),
    }
}

/// Decodes a value from a complete buffer (no trailing bytes allowed).
pub fn value_from_bytes(buf: &[u8]) -> Result<Value, DecodeError> {
    let mut r = Reader::new(buf);
    let v = decode_value(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

/// Canonical preimage for the atomic-object hash `h(A, val)` (§3):
/// `TAG_ATOM || id || value`.
pub fn atom_preimage(id: ObjectId, value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.push(TAG_ATOM);
    out.extend_from_slice(&id.raw().to_be_bytes());
    encode_value(value, &mut out);
    out
}

/// Canonical prefix for the compound (subtree) hash of Fig. 5:
/// `TAG_NODE || id || value`.
///
/// The full subtree hash is
/// `h(node_prefix(A) || h_c1 || … || h_ck || child_count)` with children in
/// `ObjectId` order. Each child hash already binds its own id, and the
/// trailing count delimits the fixed-width hash sequence, so the encoding
/// stays unambiguous *and* can be computed one child at a time — which is
/// what makes the §5.2 streaming (larger-than-memory) hash a single pass.
pub fn node_prefix(id: ObjectId, value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    node_prefix_into(id, value, &mut out);
    out
}

/// Appends the canonical node prefix to `out` — the allocation-free variant
/// hot hashing loops use with a reused buffer.
pub fn node_prefix_into(id: ObjectId, value: &Value, out: &mut Vec<u8>) {
    out.push(TAG_NODE);
    out.extend_from_slice(&id.raw().to_be_bytes());
    encode_value(value, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) {
        let bytes = value_bytes(&v);
        assert_eq!(value_from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn value_roundtrips() {
        roundtrip(Value::Null);
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::real(3.25));
        roundtrip(Value::real(-0.0)); // canonicalized to +0.0
        roundtrip(Value::text(""));
        roundtrip(Value::text("héllo wörld"));
        roundtrip(Value::Bytes(vec![]));
        roundtrip(Value::Bytes((0..=255).collect()));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(value_from_bytes(&[]), Err(DecodeError::UnexpectedEof));
        assert_eq!(value_from_bytes(&[0xee]), Err(DecodeError::BadTag(0xee)));
        assert_eq!(
            value_from_bytes(&[VAL_INT, 1, 2]),
            Err(DecodeError::UnexpectedEof)
        );
        // Trailing bytes rejected.
        let mut buf = value_bytes(&Value::Int(1));
        buf.push(0);
        assert_eq!(value_from_bytes(&buf), Err(DecodeError::TrailingBytes(1)));
        // Invalid UTF-8 text rejected.
        let mut bad = vec![VAL_TEXT];
        bad.extend_from_slice(&2u64.to_be_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(value_from_bytes(&bad), Err(DecodeError::BadUtf8));
        // Bytes the encoder never writes: a bool other than 0/1, a NaN
        // payload, -0.0.
        assert_eq!(
            value_from_bytes(&[VAL_BOOL, 2]),
            Err(DecodeError::BadTag(2))
        );
        for bits in [f64::NAN.to_bits() | 1, (-0.0f64).to_bits()] {
            let mut buf = vec![VAL_REAL];
            buf.extend_from_slice(&bits.to_be_bytes());
            assert_eq!(value_from_bytes(&buf), Err(DecodeError::BadTag(VAL_REAL)));
        }
    }

    #[test]
    fn encoding_is_unambiguous_across_values() {
        // Distinct values produce distinct encodings.
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::real(0.0),
            Value::text(""),
            Value::Bytes(vec![]),
            Value::text("\0"),
            Value::Bytes(vec![0]),
        ];
        for (i, a) in values.iter().enumerate() {
            for (j, b) in values.iter().enumerate() {
                if i != j {
                    assert_ne!(value_bytes(a), value_bytes(b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn atom_preimage_separates_id_and_value() {
        // (id=1, "ab") must differ from (id=2, "ab") and from (id=1, "ac").
        let a = atom_preimage(ObjectId(1), &Value::text("ab"));
        let b = atom_preimage(ObjectId(2), &Value::text("ab"));
        let c = atom_preimage(ObjectId(1), &Value::text("ac"));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[0], TAG_ATOM);
    }

    #[test]
    fn node_prefix_binds_id_and_value() {
        let a = node_prefix(ObjectId(1), &Value::text("v"));
        let b = node_prefix(ObjectId(2), &Value::text("v"));
        let c = node_prefix(ObjectId(1), &Value::text("w"));
        assert_eq!(a[0], TAG_NODE);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Atom and node prefixes never collide (distinct domain tags).
        assert_ne!(a, atom_preimage(ObjectId(1), &Value::text("v")));
    }

    #[test]
    fn reader_primitives() {
        let mut buf = Vec::new();
        buf.push(7);
        buf.extend_from_slice(&0xdead_beefu32.to_be_bytes());
        buf.extend_from_slice(&42u64.to_be_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 42);
        r.expect_end().unwrap();
        assert_eq!(r.u8(), Err(DecodeError::UnexpectedEof));
    }
}
