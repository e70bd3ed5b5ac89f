//! The benchmark's own model of the ledger, kept apart from the program.
//!
//! The driver leases a key from submission until commit, so at most one
//! write per key is in flight and the orderer's FIFO makes submission order
//! the commit order. Applying each committed operation here therefore
//! yields the state every peer must hold.

use fabric_types::OrgId;
use std::collections::HashSet;

/// Namespace of the private-data chaincode.
pub const PDC_NS: &str = "bench_pdc";
/// Namespace of the public / SBE chaincode.
pub const PUBLIC_NS: &str = "bench_public";
/// The private collection.
pub const COLLECTION: &str = "BENCHPDC";
/// The collection's member organizations; the workloads' first two orgs.
pub fn member_orgs() -> [OrgId; 2] {
    [OrgId::new("Org1MSP"), OrgId::new("Org2MSP")]
}
/// Collection-level policy, also the key-level policy of every SBE key.
pub const MEMBERS_POLICY: &str = "AND('Org1MSP.peer','Org2MSP.peer')";

/// Private values are 13-digit integers starting with 1, public values
/// 13-digit integers starting with 9, so a scan of committed bytes can
/// tell a private plaintext from anything else.
pub const PRIVATE_BASE: u64 = 1_000_000_000_000;
const PRIVATE_SEED_BASE: u64 = 1_500_000_000_000;
pub const PUBLIC_BASE: u64 = 9_000_000_000_000;
/// Decimal digits of every value.
pub const VALUE_DIGITS: usize = 13;

/// The key spaces a workload writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    Pdc,
    Public,
    Sbe,
}

pub fn key_name(space: Space, i: usize) -> String {
    match space {
        Space::Pdc => format!("p{i}"),
        Space::Public => format!("u{i}"),
        Space::Sbe => format!("s{i}"),
    }
}

/// The value set-up writes into key `i` of `space`.
pub fn seed_value(space: Space, i: usize) -> u64 {
    match space {
        Space::Pdc => PRIVATE_SEED_BASE + i as u64,
        Space::Public | Space::Sbe => PUBLIC_BASE + 500_000_000_000 + i as u64,
    }
}

/// One write operation, as submitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Blind private write.
    PdcWrite { key: usize, value: u64 },
    /// Private read-modify-write; `expected` is the sum the endorsers
    /// returned to the client.
    PdcAdd {
        key: usize,
        delta: u64,
        expected: u64,
    },
    /// Public put (`space` is `Public` or `Sbe`).
    Put {
        space: Space,
        key: usize,
        value: u64,
    },
    /// Sets the key-level policy of an SBE key (set-up only).
    SetPolicy { key: usize },
}

impl Op {
    /// The key this operation writes, which it leases while in flight.
    pub fn key(&self) -> (Space, usize) {
        match *self {
            Op::PdcWrite { key, .. } | Op::PdcAdd { key, .. } => (Space::Pdc, key),
            Op::Put { space, key, .. } => (space, key),
            Op::SetPolicy { key } => (Space::Sbe, key),
        }
    }

    pub fn is_private(&self) -> bool {
        matches!(self, Op::PdcWrite { .. } | Op::PdcAdd { .. })
    }
}

/// Committed state, per key, plus every private value ever held.
#[derive(Debug, Clone)]
pub struct Model {
    pub private: Vec<Option<u64>>,
    pub public: Vec<Option<u64>>,
    pub sbe: Vec<Option<u64>>,
    pub sbe_policy: Vec<bool>,
    pub private_values: HashSet<u64>,
    leased: [Vec<bool>; 3],
}

impl Model {
    pub fn new(pdc_keys: usize, public_keys: usize, sbe_keys: usize) -> Self {
        Model {
            private: vec![None; pdc_keys],
            public: vec![None; public_keys],
            sbe: vec![None; sbe_keys],
            sbe_policy: vec![false; sbe_keys],
            private_values: HashSet::new(),
            leased: [
                vec![false; pdc_keys],
                vec![false; public_keys],
                vec![false; sbe_keys],
            ],
        }
    }

    pub fn len(&self, space: Space) -> usize {
        self.leased[space as usize].len()
    }

    pub fn is_leased(&self, space: Space, key: usize) -> bool {
        self.leased[space as usize][key]
    }

    pub fn set_lease(&mut self, space: Space, key: usize, leased: bool) {
        self.leased[space as usize][key] = leased;
    }

    pub fn value(&self, space: Space, key: usize) -> Option<u64> {
        match space {
            Space::Pdc => self.private[key],
            Space::Public => self.public[key],
            Space::Sbe => self.sbe[key],
        }
    }

    /// Applies a committed operation.
    ///
    /// # Errors
    ///
    /// When the operation's outcome disagrees with the model: an `add`
    /// whose endorsed sum is not the committed value plus its delta, or
    /// one on a key the model holds no value for.
    pub fn apply(&mut self, op: &Op) -> Result<(), String> {
        match *op {
            Op::PdcWrite { key, value } => {
                self.private[key] = Some(value);
                self.private_values.insert(value);
            }
            Op::PdcAdd {
                key,
                delta,
                expected,
            } => {
                let Some(current) = self.private[key] else {
                    return Err(format!("add on unset private key {key}"));
                };
                if current + delta != expected {
                    return Err(format!(
                        "add on private key {key}: endorsed {expected}, model {current}+{delta}"
                    ));
                }
                self.private[key] = Some(expected);
                self.private_values.insert(expected);
            }
            Op::Put {
                space: Space::Sbe,
                key,
                value,
            } => self.sbe[key] = Some(value),
            Op::Put { key, value, .. } => self.public[key] = Some(value),
            Op::SetPolicy { key } => self.sbe_policy[key] = true,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_checks_the_endorsed_sum() {
        let mut m = Model::new(1, 0, 0);
        assert!(m
            .apply(&Op::PdcAdd {
                key: 0,
                delta: 1,
                expected: 1
            })
            .is_err());
        m.apply(&Op::PdcWrite { key: 0, value: 5 }).unwrap();
        m.apply(&Op::PdcAdd {
            key: 0,
            delta: 2,
            expected: 7,
        })
        .unwrap();
        assert_eq!(m.private[0], Some(7));
        assert!(m
            .apply(&Op::PdcAdd {
                key: 0,
                delta: 2,
                expected: 10
            })
            .is_err());
        assert!(m.private_values.contains(&5) && m.private_values.contains(&7));
    }

    #[test]
    fn value_ranges_are_disjoint_and_fixed_width() {
        for v in [PRIVATE_BASE, seed_value(Space::Pdc, 99_999), PUBLIC_BASE] {
            assert_eq!(v.to_string().len(), VALUE_DIGITS);
        }
        assert!(seed_value(Space::Pdc, 99_999) < 2 * PRIVATE_BASE);
        assert!(seed_value(Space::Sbe, 0) > PUBLIC_BASE);
    }
}
