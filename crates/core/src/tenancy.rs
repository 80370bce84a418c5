//! Multi-application isolation — the paper's future work, implemented.
//!
//! The conclusion of the paper notes that "our distributed software runtime
//! offers the opportunity for isolating different applications, which we
//! leave as a study for future work". This module provides that study's
//! mechanism: groups are partitioned among *tenants*; the NIC steers each
//! tenant's connections only to its own groups, and the runtime restricts
//! migration destinations to same-tenant managers — so one tenant's
//! overload can never spill onto another's cores, while migration still
//! balances load *within* each tenant.

use workload::request::ConnectionId;

/// A static partition of manager groups among tenants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tenancy {
    /// `tenant_of_group[g]` = tenant owning group `g`.
    tenant_of_group: Vec<u32>,
    /// Number of tenants.
    tenants: u32,
}

impl Tenancy {
    /// Creates a tenancy from a per-group tenant assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is empty, tenant ids are not contiguous from
    /// zero, or some tenant owns no group.
    pub fn new(tenant_of_group: Vec<u32>) -> Self {
        assert!(!tenant_of_group.is_empty(), "need at least one group");
        let tenants = tenant_of_group.iter().copied().max().unwrap() + 1;
        for t in 0..tenants {
            assert!(tenant_of_group.contains(&t), "tenant {t} owns no group");
        }
        Tenancy {
            tenant_of_group,
            tenants,
        }
    }

    /// Splits `groups` groups evenly among `tenants` tenants
    /// (round-robin remainder).
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is zero or exceeds `groups`.
    pub fn even(groups: usize, tenants: u32) -> Self {
        assert!(tenants > 0, "need at least one tenant");
        assert!(tenants as usize <= groups, "more tenants than groups");
        Self::new((0..groups).map(|g| (g as u32) % tenants).collect())
    }

    /// Number of tenants.
    pub fn tenants(&self) -> u32 {
        self.tenants
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.tenant_of_group.len()
    }

    /// The tenant owning group `g`.
    pub fn tenant_of_group(&self, g: usize) -> u32 {
        self.tenant_of_group[g]
    }

    /// The tenant a connection belongs to (static striping, mirroring how a
    /// provider would map client flows to applications).
    pub fn tenant_of_conn(&self, conn: ConnectionId) -> u32 {
        conn.0 % self.tenants
    }

    /// The groups owned by `tenant`, in index order.
    pub fn groups_of(&self, tenant: u32) -> Vec<usize> {
        self.tenant_of_group
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == tenant)
            .map(|(g, _)| g)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let t = Tenancy::even(8, 2);
        assert_eq!(t.tenants(), 2);
        assert_eq!(t.groups_of(0), vec![0, 2, 4, 6]);
        assert_eq!(t.groups_of(1), vec![1, 3, 5, 7]);
    }

    #[test]
    fn uneven_split() {
        let t = Tenancy::even(5, 2);
        assert_eq!(t.groups_of(0).len(), 3);
        assert_eq!(t.groups_of(1).len(), 2);
    }

    #[test]
    fn conn_striping_covers_all_tenants() {
        let t = Tenancy::even(4, 4);
        let mut seen = std::collections::HashSet::new();
        for c in 0..16 {
            seen.insert(t.tenant_of_conn(ConnectionId(c)));
        }
        assert_eq!(seen.len(), 4);
        // Stable.
        assert_eq!(
            t.tenant_of_conn(ConnectionId(7)),
            t.tenant_of_conn(ConnectionId(7))
        );
    }

    #[test]
    #[should_panic(expected = "owns no group")]
    fn rejects_gaps() {
        Tenancy::new(vec![0, 2]); // tenant 1 missing
    }

    #[test]
    #[should_panic(expected = "more tenants than groups")]
    fn rejects_overcommit() {
        Tenancy::even(2, 3);
    }

    #[test]
    fn custom_assignment() {
        let t = Tenancy::new(vec![0, 0, 0, 1]); // asymmetric: 3 + 1 groups
        assert_eq!(t.groups_of(0).len(), 3);
        assert_eq!(t.groups_of(1), vec![3]);
        assert_eq!(t.tenant_of_group(3), 1);
    }
}
