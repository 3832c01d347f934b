//! Per-object checksum chains (§3.2).
//!
//! The paper chains checksums **per object** rather than through one global
//! chain: participants working on different objects never contend, and
//! corruption of one object's chain does not invalidate others. This module
//! tracks the *head* (latest seqID + checksum) of every live chain.

use std::collections::HashMap;
use tep_model::ObjectId;

/// The latest record of one object's chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Head {
    /// `seqID` of the latest record.
    pub seq: u64,
    /// Checksum bytes of the latest record (chained into the next one).
    pub checksum: Vec<u8>,
}

/// Chain heads for all live objects.
#[derive(Clone, Debug, Default)]
pub(crate) struct ChainHeads {
    heads: HashMap<ObjectId, Head>,
}

impl ChainHeads {
    /// Creates an empty head table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current head for `oid`, if it has any records.
    pub(crate) fn get(&self, oid: ObjectId) -> Option<&Head> {
        self.heads.get(&oid)
    }

    /// The `seqID` the next record for `oid` should carry: `head + 1`, or
    /// `0` for a fresh chain (§2.1 numbering).
    pub(crate) fn next_seq(&self, oid: ObjectId) -> u64 {
        self.heads.get(&oid).map_or(0, |h| h.seq + 1)
    }

    /// Advances `oid`'s chain to a new head.
    pub(crate) fn advance(&mut self, oid: ObjectId, seq: u64, checksum: Vec<u8>) {
        self.heads.insert(oid, Head { seq, checksum });
    }

    /// Drops `oid`'s chain (after deletion its provenance object is no
    /// longer relevant — §2.1 footnote 3).
    pub(crate) fn remove(&mut self, oid: ObjectId) -> Option<Head> {
        self.heads.remove(&oid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_chain_starts_at_zero() {
        let heads = ChainHeads::new();
        assert_eq!(heads.next_seq(ObjectId(1)), 0);
        assert!(heads.get(ObjectId(1)).is_none());
    }

    #[test]
    fn advance_and_next() {
        let mut heads = ChainHeads::new();
        heads.advance(ObjectId(1), 0, vec![1]);
        assert_eq!(heads.next_seq(ObjectId(1)), 1);
        heads.advance(ObjectId(1), 1, vec![2]);
        assert_eq!(heads.get(ObjectId(1)).unwrap().checksum, vec![2]);
        assert_eq!(heads.next_seq(ObjectId(1)), 2);
        // Independent per object.
        assert_eq!(heads.next_seq(ObjectId(2)), 0);
    }

    #[test]
    fn remove_resets_chain() {
        let mut heads = ChainHeads::new();
        heads.advance(ObjectId(1), 4, vec![9]);
        let removed = heads.remove(ObjectId(1)).unwrap();
        assert_eq!(removed.seq, 4);
        assert_eq!(heads.next_seq(ObjectId(1)), 0);
        assert!(heads.get(ObjectId(1)).is_none());
    }
}
