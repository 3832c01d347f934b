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
//!
//! It is also the one codec every byte format in the workspace is declared
//! with: a [`Codec`] says how one field type is written and read, the
//! generic rows of [`codecs!`] below cover integers, ids, algorithms,
//! length-prefixed bytes and text, values, options, counted lists, maps,
//! pairs and framed bodies, and [`codec_structs!`] declares a struct and
//! its codec from one field list. Proofs, checkpoints, archive frames and
//! wire messages are each written down once, so no format has an encoder
//! and a decoder that can drift apart.

use crate::id::ObjectId;
use crate::value::{CanonicalF64, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use tep_crypto::digest::HashAlgorithm;
use tep_crypto::pki::ParticipantId;

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
    /// The format tag a structure opens with is wrong: these are not the
    /// bytes of that format.
    BadMagic,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            DecodeError::BadUtf8 => write!(f, "text payload is not valid UTF-8"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            DecodeError::BadMagic => write!(f, "bad format magic"),
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

    /// Reads a `W`-byte big-endian count.
    fn count<const W: usize>(&mut self) -> Result<usize, DecodeError> {
        let bytes = self.bytes(W)?;
        Ok(bytes.iter().fold(0, |n, &b| n << 8 | usize::from(b)))
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
    decode_exact::<Value>(buf)
}

/// One field encoding: how a format writes and reads a `T`.
pub trait Codec {
    /// The value this codec carries.
    type T;
    /// Fewest bytes one encoded value takes; [`List`] divides the bytes
    /// left by it to cap what an input-supplied count may pre-allocate.
    const MIN: usize;
    /// Appends the encoding of `v` to `out`.
    fn put(v: &Self::T, out: &mut Vec<u8>);
    /// Reads one value.
    fn take(r: &mut Reader<'_>) -> Result<Self::T, DecodeError>;
    /// Reads one value into `out`, reusing the buffers it holds: the same
    /// value or the same error as [`Self::take`], except that a [`Skip`]
    /// field keeps what it held. After an error `out` holds a partly read
    /// value.
    fn take_into(r: &mut Reader<'_>, out: &mut Self::T) -> Result<(), DecodeError> {
        *out = Self::take(r)?;
        Ok(())
    }
}

/// Decodes exactly one `C` from `buf`; trailing bytes are refused.
pub fn decode_exact<C: Codec>(buf: &[u8]) -> Result<C::T, DecodeError> {
    let mut r = Reader::new(buf);
    let v = C::take(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

/// Decodes exactly one `C` from `buf` into `out` ([`Codec::take_into`]);
/// trailing bytes are refused.
pub fn decode_exact_into<C: Codec>(buf: &[u8], out: &mut C::T) -> Result<(), DecodeError> {
    let mut r = Reader::new(buf);
    C::take_into(&mut r, out)?;
    r.expect_end()
}

/// The codec table, one row per encoding: `[generics] codec => carried
/// type, MIN`, then the writer, the reader and, where it reuses what the
/// value holds, the reader into a value.
#[macro_export]
macro_rules! codecs {
    ($($(#[$m:meta])* [$($g:tt)*] $c:ty => $t:ty, $min:expr,
        |$v:ident, $out:ident| $put:expr, |$r:ident| $take:expr
        $(, |$ri:ident, $into:ident| $take_into:expr)?;)*) => {$(
        $(#[$m])*
        impl<$($g)*> $crate::encode::Codec for $c {
            type T = $t;
            const MIN: usize = $min;
            fn put($v: &$t, $out: &mut Vec<u8>) {
                $put;
            }
            fn take(
                $r: &mut $crate::encode::Reader<'_>,
            ) -> Result<$t, $crate::encode::DecodeError> {
                Ok($take)
            }
            $(fn take_into(
                $ri: &mut $crate::encode::Reader<'_>,
                $into: &mut $t,
            ) -> Result<(), $crate::encode::DecodeError> {
                $take_into;
                Ok(())
            })?
        }
    )*};
}

/// Structs with their codecs, each declared once: its fields in encoding
/// order, each written and read by the field's own type or by the codec
/// named after `as`. `magic NAME` opens the encoding with the bytes of the
/// constant `NAME` (a mismatch is [`DecodeError::BadMagic`]), and `impl
/// to_bytes, from_bytes` adds those two methods, with the struct's
/// visibility: the encoding as a buffer, and its strict inverse. A struct
/// may take one lifetime, so that it can encode a borrowed field (a
/// `Cow`) without copying it.
#[macro_export]
macro_rules! codec_structs {
    (@codec $t:ty) => { $t };
    (@codec $t:ty as $c:ty) => { $c };
    ($($(#[$m:meta])* $vis:vis struct $name:ident $(<$lt:lifetime>)? $(magic $magic:ident)?
        $(impl $to:ident, $from:ident)? {
        $($(#[$fm:meta])* $fvis:vis $f:ident: $t:ty $(as $c:ty)?,)*
    })*) => {$(
        $(#[$m])*
        $vis struct $name $(<$lt>)? {
            $($(#[$fm])* $fvis $f: $t,)*
        }

        impl $(<$lt>)? $crate::encode::Codec for $name $(<$lt>)? {
            type T = $name $(<$lt>)?;
            const MIN: usize = 0 $(+ $magic.len())?
                $(+ <$crate::codec_structs!(@codec $t $(as $c)?) as $crate::encode::Codec>::MIN)*;
            fn put(v: &Self::T, out: &mut Vec<u8>) {
                $(out.extend_from_slice(&$magic[..]);)?
                $(<$crate::codec_structs!(@codec $t $(as $c)?) as $crate::encode::Codec>::put(
                    &v.$f, out,
                );)*
            }
            fn take(
                r: &mut $crate::encode::Reader<'_>,
            ) -> Result<Self::T, $crate::encode::DecodeError> {
                $(if r.bytes($magic.len())? != &$magic[..] {
                    return Err($crate::encode::DecodeError::BadMagic);
                })?
                Ok($name {
                    $($f: <$crate::codec_structs!(@codec $t $(as $c)?)
                        as $crate::encode::Codec>::take(r)?,)*
                })
            }
            fn take_into(
                r: &mut $crate::encode::Reader<'_>,
                out: &mut Self::T,
            ) -> Result<(), $crate::encode::DecodeError> {
                $(if r.bytes($magic.len())? != &$magic[..] {
                    return Err($crate::encode::DecodeError::BadMagic);
                })?
                $(<$crate::codec_structs!(@codec $t $(as $c)?)
                    as $crate::encode::Codec>::take_into(r, &mut out.$f)?;)*
                Ok(())
            }
        }

        $crate::codec_structs!(@methods [$($lt)?] $vis $name $($to $from)?);
    )*};
    (@methods [$($lt:lifetime)?] $vis:vis $name:ident) => {};
    (@methods [$($lt:lifetime)?] $vis:vis $name:ident $to:ident $from:ident) => {
        impl $(<$lt>)? $name $(<$lt>)? {
            /// The canonical encoding.
            $vis fn $to(&self) -> Vec<u8> {
                let mut out = Vec::new();
                <Self as $crate::encode::Codec>::put(self, &mut out);
                out
            }

            /// Decodes exactly one canonical encoding; trailing bytes are
            /// refused.
            $vis fn $from(buf: &[u8]) -> Result<Self, $crate::encode::DecodeError> {
                $crate::encode::decode_exact::<Self>(buf)
            }
        }
    };
}

codecs! {
    /// Integers are big-endian.
    [] u16 => u16, 2, |v, out| out.extend_from_slice(&v.to_be_bytes()), |r| {
        u16::from_be_bytes(r.array()?)
    };
    [] u32 => u32, 4, |v, out| out.extend_from_slice(&v.to_be_bytes()), |r| r.u32()?;
    [] u64 => u64, 8, |v, out| out.extend_from_slice(&v.to_be_bytes()), |r| r.u64()?;
    [] ObjectId => ObjectId, 8, |v, out| u64::put(&v.raw(), out), |r| ObjectId(r.u64()?);
    [] ParticipantId => ParticipantId, 8, |v, out| u64::put(&v.0, out), |r| {
        ParticipantId(r.u64()?)
    };
    /// The algorithm's one-byte wire id; an unknown id is refused.
    [] HashAlgorithm => HashAlgorithm, 1, |v, out| out.push(v.wire_id()), |r| {
        let id = r.u8()?;
        HashAlgorithm::from_wire_id(id).ok_or(DecodeError::BadTag(id))?
    };
    /// Length-prefixed bytes (u64 length).
    [] Vec<u8> => Vec<u8>, 8, |v, out| put_len_prefixed(v, out), |r| r.len_prefixed()?.to_vec(),
    |r, out| {
        let bytes = r.len_prefixed()?;
        out.clear();
        out.extend_from_slice(bytes)
    };
    /// Length-prefixed UTF-8 text.
    [] String => String, 8, |v, out| put_len_prefixed(v.as_bytes(), out), |r| {
        String::from_utf8(r.len_prefixed()?.to_vec()).map_err(|_| DecodeError::BadUtf8)?
    };
    /// The rest of the input, verbatim: a body with its own framing that
    /// the carrying format never interprets.
    [] Rest => Vec<u8>, 0, |v, out| out.extend_from_slice(v), |r| {
        r.bytes(r.remaining())?.to_vec()
    };
    /// A canonical value ([`encode_value`]).
    [] Value => Value, 1, |v, out| encode_value(v, out), |r| decode_value(r)?;
    /// A value that encodes borrowed and decodes owned.
    ['a] Cow<'a, Value> => Cow<'a, Value>, 1, |v, out| encode_value(v, out), |r| {
        Cow::Owned(decode_value(r)?)
    };
    /// A tag byte (0 absent, 1 present), then the value if present.
    [C: Codec] Option<C> => Option<C::T>, 1, |v, out| {
        out.push(v.is_some() as u8);
        v.iter().for_each(|x| C::put(x, out))
    }, |r| match r.u8()? {
        0 => None,
        1 => Some(C::take(r)?),
        t => return Err(DecodeError::BadTag(t)),
    };
    /// One value after the other.
    [A: Codec, B: Codec] (A, B) => (A::T, B::T), A::MIN + B::MIN, |v, out| {
        A::put(&v.0, out);
        B::put(&v.1, out)
    }, |r| (A::take(r)?, B::take(r)?);
    /// A `W`-byte big-endian count, then that many `C`s. A count the width
    /// cannot express is refused, not truncated, and so is a count over
    /// `MAX`, as input that cannot be there.
    [const W: usize, C: Codec, const MAX: usize] List<W, C, MAX> => Vec<C::T>, W, |v, out| {
        put_count::<W>(v.len(), out);
        v.iter().for_each(|x| C::put(x, out))
    }, |r| {
        let count = r.count::<W>()?;
        if count > MAX {
            return Err(DecodeError::UnexpectedEof);
        }
        // The one allocation guard: an input-supplied count never sizes an
        // allocation past what the remaining bytes could hold.
        let mut v = Vec::with_capacity(count.min(r.remaining() / C::MIN.max(1) + 1));
        for _ in 0..count {
            v.push(C::take(r)?);
        }
        v
    }, |r, out| {
        let count = r.count::<W>()?;
        if count > MAX {
            return Err(DecodeError::UnexpectedEof);
        }
        // The values kept are read into; a new one is pushed only once it
        // has been read, so the count sizes nothing.
        out.truncate(count);
        for i in 0..count {
            match out.get_mut(i) {
                Some(x) => C::take_into(r, x)?,
                None => out.push(C::take(r)?),
            }
        }
    };
    /// A `W`-byte count, then that many key-value pairs in strictly
    /// increasing key order, so a map has one encoding.
    [const W: usize, K: Codec<T: Ord>, V: Codec] Map<W, K, V> => BTreeMap<K::T, V::T>, W,
    |v, out| {
        put_count::<W>(v.len(), out);
        v.iter().for_each(|(k, x)| {
            K::put(k, out);
            V::put(x, out)
        })
    }, |r| {
        let mut map = BTreeMap::new();
        for _ in 0..r.count::<W>()? {
            let k = K::take(r)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(DecodeError::BadTag(0xF2));
            }
            let x = V::take(r)?;
            map.insert(k, x);
        }
        map
    };
    /// A field the encoding leaves out: nothing is written, and it reads
    /// back as its default; read into a value, it is left as it was, for
    /// the caller to fill.
    [T: Default] Skip<T> => T, 0, |_v, _out| {}, |_r| T::default(), |_r, _out| {};
    /// A u64 length, then exactly one `C` in that many bytes.
    [C: Codec] Framed<C> => C::T, 8, |v, out| {
        let at = out.len();
        out.extend_from_slice(&[0; 8]);
        C::put(v, out);
        let len = (out.len() - at - 8) as u64;
        out[at..at + 8].copy_from_slice(&len.to_be_bytes())
    }, |r| decode_exact::<C>(r.len_prefixed()?)?;
}

fn put_len_prefixed(bytes: &[u8], out: &mut Vec<u8>) {
    u64::put(&(bytes.len() as u64), out);
    out.extend_from_slice(bytes);
}

/// Writes `n` as a `W`-byte big-endian count.
fn put_count<const W: usize>(n: usize, out: &mut Vec<u8>) {
    let n = n as u64;
    assert!(
        u128::from(n) >> (8 * W) == 0,
        "{n} entries overflow a {W}-byte count"
    );
    out.extend_from_slice(&n.to_be_bytes()[8 - W..]);
}

/// Codecs a carried type does not imply: the rest of the input, a counted
/// list, a counted map, a length-framed body, a field left out.
pub enum Rest {}
/// See [`codecs!`]: a `W`-byte count, then at most `MAX` `C`s.
pub struct List<const W: usize, C, const MAX: usize = { usize::MAX }>(PhantomData<C>);
/// See [`codecs!`]: a `W`-byte count, then key-value pairs in key order.
pub struct Map<const W: usize, K, V>(PhantomData<(K, V)>);
/// See [`codecs!`]: a u64 length, then exactly one `C`.
pub struct Framed<C>(PhantomData<C>);
/// See [`codecs!`]: a field left out of the encoding.
pub struct Skip<T>(PhantomData<T>);

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
