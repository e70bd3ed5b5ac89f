//! Output checks: against the benchmark's own model, against a replay,
//! and against properties the protocol must have. None compares with a
//! stored copy of earlier output.

use crate::driver::parse_value;
use crate::model::{
    key_name, member_orgs, Model, Space, COLLECTION, MEMBERS_POLICY, PDC_NS, PUBLIC_NS,
    VALUE_DIGITS,
};
use fabric_crypto::sha256;
use fabric_ledger::BlockStore;
use fabric_network::FabricNetwork;
use fabric_types::{Block, ChaincodeId, CollectionName};
use fabric_wire::Encode;
use std::collections::{BTreeMap, HashSet};

/// The chain must be intact and identical to the orderer replay: same
/// headers (hence block hashes) and same transactions.
pub fn check_chain(chain: &[Block], replay: &[Block]) -> Vec<String> {
    let mut errors = Vec::new();
    let mut store = BlockStore::new();
    for block in chain {
        store.append_unchecked(block.clone());
    }
    if !store.verify_chain() {
        errors.push("committed chain fails verify_chain".to_string());
    }
    if chain.len() != replay.len() {
        errors.push(format!(
            "orderer replay cut {} blocks, the chain holds {}",
            replay.len(),
            chain.len()
        ));
    }
    if let Some((n, _)) = chain
        .iter()
        .zip(replay)
        .enumerate()
        .find(|(_, (a, b))| a.header != b.header || a.transactions != b.transactions)
    {
        errors.push(format!(
            "orderer replay differs from the chain at block {n}"
        ));
    }
    errors
}

/// Feature 2: no committed transaction's bytes may contain a private
/// value's plaintext. Values are fixed-width decimals, so every window of
/// that width inside a run of ASCII digits is looked up.
pub fn scan_plaintext(chain: &[Block], private_values: &HashSet<u64>) -> Vec<String> {
    let mut errors = Vec::new();
    for block in chain {
        for tx in block.transactions.iter() {
            if let Some(v) = find_value(&tx.to_wire(), private_values) {
                errors.push(format!(
                    "block {} tx {} carries private plaintext {v}",
                    block.header.number, tx.tx_id
                ));
            }
        }
    }
    errors
}

fn find_value(bytes: &[u8], values: &HashSet<u64>) -> Option<u64> {
    bytes
        .split(|b| !b.is_ascii_digit())
        .filter(|run| run.len() >= VALUE_DIGITS)
        .flat_map(|run| run.windows(VALUE_DIGITS))
        .filter_map(parse_value)
        .find(|v| values.contains(v))
}

/// Every peer against the model and against each other:
/// - same height and tip, each chain intact;
/// - equal state digests among peers of the same collection membership;
/// - member peers hold the model's private values, the non-member only
///   their hashes and no plaintext (not even in its transient store);
/// - every peer holds the model's public values and key-level policies.
pub fn check_peers(net: &mut FabricNetwork, model: &Model) -> Vec<String> {
    let mut errors = Vec::new();
    let members = member_orgs();
    let names = net.peer_names();
    let first = net.peer(&names[0]).block_store();
    let (height, tip) = (first.height(), first.tip_hash());
    let mut digests: BTreeMap<bool, Vec<(String, fabric_crypto::Hash256)>> = BTreeMap::new();
    for name in &names {
        let peer = net.peer(name);
        let store = peer.block_store();
        if store.height() != height || store.tip_hash() != tip {
            errors.push(format!(
                "{name} is at height {} with another tip",
                store.height()
            ));
        }
        if !store.verify_chain() {
            errors.push(format!("{name}: verify_chain fails"));
        }
        let member = members.contains(peer.org());
        digests
            .entry(member)
            .or_default()
            .push((name.clone(), peer.world_state().digest()));
        let ws = peer.world_state();
        let (pdc, col) = (ChaincodeId::new(PDC_NS), CollectionName::new(COLLECTION));
        for (key, want) in model.private.iter().enumerate() {
            let k = key_name(Space::Pdc, key);
            let plain = ws.get_private(&pdc, &col, &k).map(|v| v.value.clone());
            let want_plain = if member {
                want.map(|v| v.to_string().into_bytes())
            } else {
                None
            };
            if plain != want_plain {
                errors.push(format!(
                    "{name}: private {k} is {plain:?}, model {want_plain:?}"
                ));
            }
            let hash = ws.get_private_hash(&pdc, &col, &k).map(|(h, _)| h);
            let want_hash = want.map(|v| sha256(v.to_string().as_bytes()));
            if hash != want_hash {
                errors.push(format!(
                    "{name}: private hash of {k} differs from the model"
                ));
            }
        }
        if !member && ws.private_len() != 0 {
            errors.push(format!(
                "non-member {name} holds {} private values",
                ws.private_len()
            ));
        }
        let public = ChaincodeId::new(PUBLIC_NS);
        for (space, values) in [(Space::Public, &model.public), (Space::Sbe, &model.sbe)] {
            for (key, want) in values.iter().enumerate() {
                let k = key_name(space, key);
                let got = ws
                    .get_public(&public, &k)
                    .and_then(|v| parse_value(&v.value));
                if got != *want {
                    errors.push(format!("{name}: public {k} is {got:?}, model {want:?}"));
                }
            }
        }
        for (key, set) in model.sbe_policy.iter().enumerate() {
            let k = key_name(Space::Sbe, key);
            let got = ws.get_validation_parameter(&public, &k);
            if got != set.then_some(MEMBERS_POLICY) {
                errors.push(format!("{name}: key-level policy of {k} is {got:?}"));
            }
        }
        if !member {
            let id = peer.gossip_id().clone();
            let held = net.gossip_mut().transient_len(&id);
            if held != 0 {
                errors.push(format!("non-member {name} holds {held} transient packages"));
            }
        }
    }
    for group in digests.values() {
        if let Some((name, _)) = group.iter().find(|(_, d)| *d != group[0].1) {
            errors.push(format!(
                "{name}'s state digest differs from {}'s",
                group[0].0
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_values_only_as_whole_windows_of_digit_runs() {
        let values: HashSet<u64> = [1_000_000_000_123].into();
        assert_eq!(
            find_value(b"x1000000000123y", &values),
            Some(1_000_000_000_123)
        );
        assert_eq!(
            find_value(b"991000000000123", &values),
            Some(1_000_000_000_123)
        );
        assert_eq!(find_value(b"100000000012", &values), None);
        assert_eq!(find_value(b"1000000000124", &values), None);
    }
}
