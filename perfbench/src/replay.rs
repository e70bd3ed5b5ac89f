//! The standalone orderer replay of a finished run, timed apart from it.

use crate::driver::ORDERERS;
use fabric_orderer::{BatchConfig, OrderingService};
use fabric_types::{Block, Transaction};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Ticks `NetworkBuilder::build` allows the Raft cluster to elect a
/// leader; the replay repeats the same start-up.
const LEADER_TICKS: usize = 10_000;

/// What a standalone orderer did with the run's submissions.
#[derive(Debug, Default)]
pub struct OrdererReplay {
    /// Every block the replay cut, in order.
    pub blocks: Vec<Block>,
    /// Time in `tick` and `take_blocks` over the measured ticks.
    pub measured: Duration,
    /// Blocks and transactions delivered in the measured ticks.
    pub measured_blocks: u64,
    pub measured_txs: u64,
    /// Per transaction submitted in the measured ticks: ticks from submit
    /// to batch cut, and from cut to block delivered.
    pub queue_ticks: Vec<f64>,
    pub replicate_ticks: Vec<f64>,
}

/// Replays the run's per-tick submission schedule through a standalone
/// [`OrderingService`] built like the network's. The committed chain
/// holds the transactions in submission order (the orderer is FIFO), so
/// the schedule's counts say which of them entered before each tick.
/// Only the ticks in `measured` are timed.
pub fn replay_orderer(
    seed: u64,
    batch: BatchConfig,
    schedule: &[u32],
    chain: &[Block],
    measured: Range<u64>,
) -> OrdererReplay {
    let mut txs = chain
        .iter()
        .flat_map(|b| b.transactions.iter().cloned())
        .collect::<Vec<Transaction>>()
        .into_iter();
    let mut orderer = OrderingService::new(ORDERERS, seed, batch);
    orderer.run_until_ready(LEADER_TICKS);
    let mut out = OrdererReplay::default();
    let mut submit_tick: Vec<u64> = Vec::with_capacity(txs.len());
    let mut cut_tick: Vec<u64> = Vec::with_capacity(txs.len());
    let mut delivered = 0usize;
    for (tick, &n) in (0u64..).zip(schedule) {
        for tx in txs.by_ref().take(n as usize) {
            orderer.submit(tx);
            submit_tick.push(tick);
        }
        let start = Instant::now();
        orderer.tick();
        let blocks = orderer.take_blocks();
        let elapsed = start.elapsed();
        let cut = submit_tick.len() - orderer.pending_len();
        cut_tick.resize(cut.max(cut_tick.len()), tick);
        let timed = measured.contains(&tick);
        for block in blocks {
            let len = block.transactions.len();
            if timed {
                out.measured_blocks += 1;
                out.measured_txs += len as u64;
            }
            for j in delivered..delivered + len {
                if measured.contains(&submit_tick[j]) {
                    out.queue_ticks.push((cut_tick[j] - submit_tick[j]) as f64);
                    out.replicate_ticks.push((tick - cut_tick[j]) as f64);
                }
            }
            delivered += len;
            out.blocks.push(block);
        }
        if timed {
            out.measured += elapsed;
        }
    }
    out
}
