//! Error type for the provenance core.

use std::fmt;
use tep_crypto::pki::PkiError;
use tep_crypto::rsa::RsaError;
use tep_model::encode::DecodeError;
use tep_model::{ModelError, ObjectId};
use tep_storage::StoreError;

/// Errors from provenance tracking.
#[derive(Debug)]
pub enum CoreError {
    /// The underlying database operation failed.
    Model(ModelError),
    /// Signing failed.
    Rsa(RsaError),
    /// The provenance store failed.
    Store(StoreError),
    /// A stored record could not be decoded.
    Decode(DecodeError),
    /// The stored row at `(oid, seq)` does not decode to one record.
    UndecodableRecord {
        /// The row's object.
        oid: ObjectId,
        /// The row's sequence id.
        seq: u64,
        /// Why it does not decode.
        error: DecodeError,
    },
    /// PKI lookup/validation failed.
    Pki(PkiError),
    /// The object has no provenance records.
    NoProvenance(ObjectId),
    /// Aggregations must be tracked on their own, not inside a complex
    /// operation (§4.4 groups only insert/update/delete primitives).
    AggregateInComplexOp,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "database operation failed: {e}"),
            CoreError::Rsa(e) => write!(f, "signing failed: {e}"),
            CoreError::Store(e) => write!(f, "provenance store failed: {e}"),
            CoreError::Decode(e) => write!(f, "stored record corrupt: {e}"),
            CoreError::UndecodableRecord { oid, seq, error } => {
                write!(f, "stored record {oid} seq {seq} corrupt: {error}")
            }
            CoreError::Pki(e) => write!(f, "pki failure: {e}"),
            CoreError::NoProvenance(oid) => write!(f, "object {oid} has no provenance records"),
            CoreError::AggregateInComplexOp => {
                write!(
                    f,
                    "aggregate operations cannot appear inside a complex operation"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            CoreError::Rsa(e) => Some(e),
            CoreError::Store(e) => Some(e),
            CoreError::Decode(e) | CoreError::UndecodableRecord { error: e, .. } => Some(e),
            CoreError::Pki(e) => Some(e),
            CoreError::NoProvenance(_) | CoreError::AggregateInComplexOp => None,
        }
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<RsaError> for CoreError {
    fn from(e: RsaError) -> Self {
        CoreError::Rsa(e)
    }
}

impl From<StoreError> for CoreError {
    fn from(e: StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<DecodeError> for CoreError {
    fn from(e: DecodeError) -> Self {
        CoreError::Decode(e)
    }
}

impl From<PkiError> for CoreError {
    fn from(e: PkiError) -> Self {
        CoreError::Pki(e)
    }
}
