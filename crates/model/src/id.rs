//! Object identifiers.

use std::fmt;

/// Unique identifier of a data object in the database.
///
/// The paper assumes "a pre-defined total order over atomic objects" used to
/// sort aggregation inputs and subtree children before hashing; `ObjectId`'s
/// numeric ordering is that global order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

/// Unique identifier of a tenant — an isolation domain owning its own
/// signing key, append-log shard, and evidence counters.
///
/// Tenancy is a *bulkhead*: every artifact the system produces (records,
/// denials, quarantine sidecars, metrics) is attributed to exactly one
/// tenant, and faults in one tenant's shard must not leak into another's.
/// The numeric ordering gives tenants a stable enumeration order for
/// federated verify reports and shard directory layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl TenantId {
    /// The default tenant used by single-tenant deployments and by peers
    /// that predate tenancy (wire v3 interop is gone; v4 clients always
    /// state a tenant, and `DEFAULT` is the conventional "the only one").
    pub const DEFAULT: TenantId = TenantId(0);

    /// The raw numeric id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Stable label for metrics and shard directory names: `t<id>`.
    pub fn label(self) -> String {
        format!("t{}", self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant:{}", self.0)
    }
}

impl From<u64> for TenantId {
    fn from(v: u64) -> Self {
        TenantId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_numeric() {
        assert!(ObjectId(1) < ObjectId(2));
        assert!(ObjectId(100) > ObjectId(99));
    }

    #[test]
    fn display() {
        assert_eq!(ObjectId(42).to_string(), "#42");
    }

    #[test]
    fn tenant_ordering_and_labels() {
        assert!(TenantId(1) < TenantId(2));
        assert_eq!(TenantId::DEFAULT, TenantId(0));
        assert_eq!(TenantId(7).label(), "t7");
        assert_eq!(TenantId(7).to_string(), "tenant:7");
        assert_eq!(TenantId::from(9u64).raw(), 9);
    }
}
