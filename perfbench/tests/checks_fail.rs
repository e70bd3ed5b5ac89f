//! The output checks can fail: one corrupted model value or one corrupted
//! committed byte makes them report an error.

use fabric_perfbench::check::{check_chain, check_peers, scan_plaintext};
use fabric_perfbench::driver::{Bench, Recorder, NETWORK_SEED};
use fabric_perfbench::model::PRIVATE_BASE;
use fabric_perfbench::replay::replay_orderer;
use fabric_perfbench::workload;
use fabric_types::Block;
use std::sync::Arc;

fn small_run() -> (Bench, Vec<Block>, Vec<Block>) {
    let mut w = workload::pdc_small_blocks();
    w.pdc_keys = 64;
    w.public_keys = 64;
    let mut bench = Bench::setup(&w, 5, false, true).expect("set-up");
    bench.run_ticks(60);
    bench.drain(&mut Recorder::inactive()).expect("drain");
    assert!(bench.errors.is_empty(), "{:?}", bench.errors);
    assert_eq!(bench.failed, 0);
    let chain = bench.chain();
    let replay = replay_orderer(NETWORK_SEED, bench.batch(), &bench.schedule, &chain, 0..0);
    (bench, chain, replay.blocks)
}

/// Rebuilds `chain[n]` with its first transaction changed by `edit`.
fn with_tx_edit(
    chain: &[Block],
    n: usize,
    edit: impl Fn(&mut fabric_types::Transaction),
) -> Vec<Block> {
    let mut out = chain.to_vec();
    let mut txs = out[n].transactions.to_vec();
    edit(&mut txs[0]);
    out[n].transactions = Arc::from(txs);
    out
}

#[test]
fn checks_pass_on_an_honest_run_and_fail_on_each_corruption() {
    let (mut bench, chain, replay) = small_run();
    assert!(chain.len() > 4);
    assert_eq!(check_chain(&chain, &replay), Vec::<String>::new());
    assert_eq!(
        scan_plaintext(&chain, &bench.model.private_values),
        Vec::<String>::new()
    );
    assert_eq!(
        check_peers(&mut bench.net, &bench.model),
        Vec::<String>::new()
    );

    // One model value off by one.
    let mut model = bench.model.clone();
    let key = model
        .private
        .iter()
        .position(Option::is_some)
        .expect("seeded");
    model.private[key] = model.private[key].map(|v| v + 1);
    let errors = check_peers(&mut bench.net, &model);
    assert!(!errors.is_empty(), "a wrong model value must be caught");

    // One committed byte flipped: the chain no longer verifies and no
    // longer matches the orderer replay.
    let last = chain.len() - 1;
    let flipped = with_tx_edit(&chain, last, |tx| {
        let id = tx.tx_id.as_str();
        let first = if id.starts_with('0') { "1" } else { "0" };
        tx.tx_id = fabric_types::TxId::new(format!("{first}{}", &id[1..]));
    });
    let errors = check_chain(&flipped, &replay);
    assert!(
        errors.iter().any(|e| e.contains("verify_chain")),
        "{errors:?}"
    );
    assert!(errors.iter().any(|e| e.contains("replay")), "{errors:?}");

    // A private value planted in a committed transaction (what Feature 2
    // forbids) is found by the scan.
    let secret = *bench
        .model
        .private_values
        .iter()
        .find(|v| **v >= PRIVATE_BASE)
        .expect("private values were written");
    let leaked = with_tx_edit(&chain, last, |tx| {
        tx.payload.response.payload = secret.to_string().into_bytes();
    });
    let errors = scan_plaintext(&leaked, &bench.model.private_values);
    assert_eq!(errors.len(), 1, "{errors:?}");
}

#[test]
fn orderer_replay_covers_the_requested_ticks_only() {
    let (bench, chain, _) = small_run();
    let ticks = bench.schedule.len() as u64;
    let all = replay_orderer(
        NETWORK_SEED,
        bench.batch(),
        &bench.schedule,
        &chain,
        0..ticks,
    );
    let none = replay_orderer(NETWORK_SEED, bench.batch(), &bench.schedule, &chain, 0..0);
    assert_eq!(all.measured_blocks as usize, chain.len());
    assert_eq!(none.measured_blocks, 0);
    assert!(none.queue_ticks.is_empty() && none.measured.is_zero());
    let txs: usize = chain.iter().map(|b| b.transactions.len()).sum();
    assert_eq!(all.queue_ticks.len(), txs);
}
