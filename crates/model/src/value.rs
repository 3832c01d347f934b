//! Typed atomic values.

use std::fmt;

/// The value stored in an atomic data object.
///
/// `Real` values are compared and hashed by canonical bit pattern (NaN is
/// normalized to a single representation at construction), so `Value` is a
/// well-behaved `Eq`/`Hash` key and hashes deterministically.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// Absent / placeholder value (e.g. structural row nodes).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer (the paper's synthetic tables are all-integer).
    Int(i64),
    /// 64-bit float stored as canonical bits.
    Real(CanonicalF64),
    /// UTF-8 text (the paper's large "Title" table is a varchar column).
    Text(String),
    /// Raw bytes.
    Bytes(Vec<u8>),
}

impl Value {
    /// Constructs a `Real`, normalizing NaN to one canonical bit pattern.
    pub fn real(v: f64) -> Self {
        Value::Real(CanonicalF64::new(v))
    }

    /// Constructs a `Text` value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{}", r.get()),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "x'{}'", tep_crypto::hex::to_hex(b)),
        }
    }
}

/// An `f64` with bitwise equality and hashing (NaN canonicalized).
#[derive(Clone, Copy, Debug)]
pub struct CanonicalF64(u64);

impl CanonicalF64 {
    /// Wraps `v`, replacing any NaN with the canonical quiet NaN.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            CanonicalF64(f64::NAN.to_bits())
        } else if v == 0.0 {
            // Collapse -0.0 and +0.0 so equal values hash equally.
            CanonicalF64(0.0f64.to_bits())
        } else {
            CanonicalF64(v.to_bits())
        }
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// Canonical bit pattern (used by the byte encoding).
    pub fn bits(self) -> u64 {
        self.0
    }
}

impl PartialEq for CanonicalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for CanonicalF64 {}

impl std::hash::Hash for CanonicalF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn nan_is_canonical() {
        let a = Value::real(f64::NAN);
        let b = Value::real(-f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn signed_zero_collapses() {
        assert_eq!(Value::real(0.0), Value::real(-0.0));
    }

    #[test]
    fn distinct_reals_distinct() {
        assert_ne!(Value::real(1.0), Value::real(2.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::Text("hi".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::text("a").to_string(), "\"a\"");
        assert_eq!(Value::Bytes(vec![0xab]).to_string(), "x'ab'");
    }
}
