//! Open-loop benchmark of the Fabric PDC network, scored end to end and
//! per layer.
//!
//! An untraced run ([`run_end_to_end`]) builds the network with no-op
//! telemetry and the monitor, drives one workload for a fixed wall time
//! and reports what a user sees. A traced run ([`run_layers`]) drives the
//! same workload with span tracing on and attributes each tick's time to
//! the layers the driver calls, the orderer and the commit path (both
//! from replays), and what is left over. Both check every output against
//! the benchmark's own model before reporting.

pub mod check;
pub mod driver;
pub mod model;
pub mod replay;
pub mod report;
pub mod workload;

use driver::{Bench, Recorder};
use fabric_telemetry::MetricValue;
use fabric_wire::Encode;
use replay::{replay_orderer, OrdererReplay};
use report::{band_quantile, cpu_seconds, quantile, ratio, tick_quantile, Metric};
use std::time::{Duration, Instant};
use workload::Workload;

/// Rank band (a share of the measured commits on each side) of the
/// smoothed commit-latency p99, which is printed but not scored: ranks
/// 98.5-99.5 %.
const P99_BAND: f64 = 0.005;

/// The organization whose late-joining peer replays the chain.
const REPLAY_ORG: &str = "Org1MSP";

/// Adds a peer to the running network, which replays the whole committed
/// chain at it, and returns how long that took.
fn time_add_peer(bench: &mut Bench) -> Duration {
    let start = Instant::now();
    bench.net.add_peer(REPLAY_ORG);
    start.elapsed()
}

/// What one run prints.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Wrong outputs and failed operations.
    pub errors: Vec<String>,
    /// Human-readable notes (the reconciliation line).
    pub notes: Vec<String>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Checks a drained run: the orderer replay, the chain, the Feature-2
/// scan and every peer against the model. Returns the replay for timing.
fn verify(bench: &mut Bench, measured: std::ops::Range<u64>) -> (Vec<String>, OrdererReplay) {
    let chain = bench.chain();
    let replay = replay_orderer(
        driver::NETWORK_SEED,
        bench.batch(),
        &bench.schedule,
        &chain,
        measured,
    );
    let mut errors = std::mem::take(&mut bench.errors);
    errors.extend(check::check_chain(&chain, &replay.blocks));
    errors.extend(check::scan_plaintext(&chain, &bench.model.private_values));
    errors.extend(check::check_peers(&mut bench.net, &bench.model));
    (errors, replay)
}

fn measured_ticks(rec: &Recorder) -> std::ops::Range<u64> {
    rec.first_tick..rec.first_tick + rec.ticks
}

/// The untraced run: `setup_reps` set-ups, warm-up, `seconds` of
/// measured load, drain, checks.
///
/// # Errors
///
/// When set-up fails or the drain does not finish.
pub fn run_end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(w.setup_reps);
    let mut bench = None;
    for _ in 0..w.setup_reps.max(1) {
        drop(bench.take());
        let start = Instant::now();
        bench = Some(Bench::setup(w, seed, false, true)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    bench.run_ticks(w.warmup_ticks);
    let mut rec = bench.run_measured(seconds);
    if rec.ticks < w.memory_ticks {
        // A run too short to reach the memory reading keeps going,
        // unrecorded, until it does.
        bench.run_ticks(w.memory_ticks - rec.ticks);
        rec.peak_rss_mb = report::peak_rss_mb();
    }
    bench.drain(&mut Recorder::inactive())?;
    let (errors, _) = verify(&mut bench, measured_ticks(&rec));
    let metrics = vec![
        metric("setup_s", "s", quantile(&setups, 0.5)),
        metric(
            "commit_tps",
            "tx/s",
            rec.committed as f64 / rec.wall.as_secs_f64(),
        ),
        metric("commit_ms_p50", "ms", rec.window_mean(|w| w.commit_ms_p50)),
        metric(
            "commit_ticks_p50",
            "ticks",
            tick_quantile(&rec.commit_ticks, 0.5),
        ),
        metric(
            "commit_ticks_p99",
            "ticks",
            tick_quantile(&rec.commit_ticks, 0.99),
        ),
        metric(
            "endorse_us_p50",
            "us",
            rec.window_mean(|w| w.endorse_us_p50),
        ),
        metric("query_us_p50", "us", rec.window_mean(|w| w.query_us_p50)),
        metric("peak_rss_mb", "MB", rec.peak_rss_mb),
    ];
    let window_tps: Vec<f64> = rec.windows.iter().map(|w| w.commit_tps).collect();
    let notes = vec![
        format!(
            "{} ticks in {:.3} s, {} commits, {} queries; commit_tps over {} windows: \
             p10 {:.0}, p50 {:.0}, p90 {:.0}",
            rec.ticks,
            rec.wall.as_secs_f64(),
            rec.committed,
            rec.queries,
            window_tps.len(),
            quantile(&window_tps, 0.1),
            quantile(&window_tps, 0.5),
            quantile(&window_tps, 0.9),
        ),
        // Printed, not scored: on a shared host the tail is set by the
        // host's pauses and did not repeat from run to run.
        format!(
            "commit_ms_p99 {:.4} ms (not scored)",
            band_quantile(&rec.commit_ms, 0.99, P99_BAND)
        ),
    ];
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: bench.attempted,
        failed: bench.failed,
        metrics,
        errors,
        notes,
    })
}

/// Registry readings taken at both ends of the traced measured phase.
struct Readings {
    stateless: (f64, u64),
    stateful: (f64, u64),
    raft_messages: f64,
    gossip_events: usize,
    cpu: f64,
}

fn read_layers(bench: &mut Bench) -> Readings {
    let metrics = bench.telemetry.metrics();
    let stage = |s: &str| {
        metrics
            .find_histogram("fabric_commit_stage_seconds", &[("stage", s)])
            .map_or((0.0, 0), |h| (h.sum(), h.count()))
    };
    let raft_messages = metrics
        .samples()
        .into_iter()
        .find(|s| s.name == "fabric_raft_messages_delivered")
        .map_or(0.0, |s| match s.value {
            MetricValue::Gauge(v) => v,
            _ => 0.0,
        });
    Readings {
        stateless: stage("stateless"),
        stateful: stage("stateful"),
        raft_messages,
        gossip_events: bench.net.gossip_mut().events().len(),
        cpu: cpu_seconds(),
    }
}

fn per_stage_us((sum1, n1): (f64, u64), (sum0, n0): (f64, u64)) -> f64 {
    ratio((sum1 - sum0) * 1e6, n1.saturating_sub(n0) as f64)
}

fn setup_and_warm(w: &Workload, seed: u64, traced: bool, monitor: bool) -> Result<Bench, String> {
    let mut bench = Bench::setup(w, seed, traced, monitor)?;
    bench.run_ticks(w.warmup_ticks);
    Ok(bench)
}

/// The traced run. Four networks are driven in turn from the same seed:
/// - untraced with the monitor, for `seconds / 2`: the baseline of the
///   tracing overhead;
/// - traced without the monitor, for `seconds / 2`: the monitor's share
///   of `advance`;
/// - traced, set-up and warm-up only, then a late peer joins: the replay
///   cost of the chain before the measured phase;
/// - traced with the monitor, for `seconds`: every other layer, then a
///   late peer joins, whose replay cost less the previous one is the
///   commit cost of exactly the measured blocks.
///
/// # Errors
///
/// When set-up fails or a drain does not finish.
pub fn run_layers(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    let mut tally = |b: &mut Bench| {
        attempted += b.attempted;
        failed += b.failed;
        errors.append(&mut b.errors);
    };

    let mut base = setup_and_warm(w, seed, false, true)?;
    let base_rec = base.run_measured(seconds / 2.0);
    tally(&mut base);
    drop(base);

    let mut quiet = setup_and_warm(w, seed, true, false)?;
    let quiet_rec = quiet.run_measured(seconds / 2.0);
    tally(&mut quiet);
    drop(quiet);

    let mut twin = setup_and_warm(w, seed, true, true)?;
    let replay_before = time_add_peer(&mut twin);
    let twin_height = twin.seen_height();
    let twin_tip = twin.chain().last().map(|b| b.hash());
    tally(&mut twin);
    drop(twin);

    let mut bench = setup_and_warm(w, seed, true, true)?;
    bench.sample_transient = true;
    let before = read_layers(&mut bench);
    let rec = bench.run_measured(seconds);
    let after = read_layers(&mut bench);
    let replay_after = time_add_peer(&mut bench);
    bench.drain(&mut Recorder::inactive())?;
    let (mut check_errors, orderer) = verify(&mut bench, measured_ticks(&rec));
    tally(&mut bench);
    errors.append(&mut check_errors);

    let chain = bench.chain();
    let at_twin_height = twin_height
        .checked_sub(1)
        .and_then(|n| chain.get(n as usize));
    if at_twin_height.map(|b| b.hash()) != twin_tip {
        errors.push("the replay twin's chain differs from the measured run's".to_string());
    }
    let measured_blocks = &chain[rec.first_block as usize..(rec.first_block + rec.blocks) as usize];
    let block_bytes: usize = measured_blocks.iter().map(|b| b.to_wire().len()).sum();

    let ticks = rec.ticks as f64;
    let per_tick = |d: Duration| us(d) / ticks;
    let commit_per_block = ratio(
        us(replay_after.saturating_sub(replay_before)),
        rec.blocks as f64,
    );
    let advance = per_tick(rec.advance);
    let orderer_per_tick = per_tick(orderer.measured);
    let commit_per_tick = commit_per_block * (rec.blocks * bench.peers.len() as u64) as f64 / ticks;
    let unattributed = advance - orderer_per_tick - commit_per_tick;
    let tick_us = per_tick(rec.tick_wall);
    let calls = per_tick(rec.proposal + rec.endorse + rec.query + rec.assemble + rec.submit);
    let driver = per_tick(rec.driver);
    let residual = tick_us - (calls + advance + driver);
    let tps = |r: &Recorder| ratio(r.committed as f64, r.wall.as_secs_f64());

    let metrics = vec![
        metric(
            "client.proposal_us",
            "us",
            ratio(us(rec.proposal), rec.proposals as f64),
        ),
        metric(
            "client.assemble_us",
            "us",
            ratio(us(rec.assemble), rec.assembles as f64),
        ),
        metric(
            "peer.endorse_us",
            "us",
            ratio(us(rec.endorse), rec.endorsements as f64),
        ),
        metric(
            "peer.query_us",
            "us",
            ratio(us(rec.query), rec.queries as f64),
        ),
        metric(
            "network.submit_us",
            "us",
            ratio(us(rec.submit), rec.assembles as f64),
        ),
        metric(
            "gossip.pushes_per_pdc_tx",
            "count",
            ratio(
                bench.net.gossip_mut().events()[before.gossip_events..after.gossip_events]
                    .iter()
                    .filter(|e| !e.pull)
                    .count() as f64,
                rec.pdc_submits as f64,
            ),
        ),
        metric("gossip.transient_peak", "count", rec.transient_peak as f64),
        metric(
            "orderer.us_per_block",
            "us",
            ratio(us(orderer.measured), orderer.measured_blocks as f64),
        ),
        metric(
            "orderer.txs_per_block",
            "count",
            ratio(orderer.measured_txs as f64, orderer.measured_blocks as f64),
        ),
        metric(
            "orderer.queue_ticks_p50",
            "ticks",
            tick_quantile(&orderer.queue_ticks, 0.5),
        ),
        metric(
            "orderer.queue_ticks_p99",
            "ticks",
            tick_quantile(&orderer.queue_ticks, 0.99),
        ),
        metric(
            "raft.replicate_ticks_p50",
            "ticks",
            tick_quantile(&orderer.replicate_ticks, 0.5),
        ),
        metric(
            "raft.messages_per_block",
            "count",
            ratio(
                after.raft_messages - before.raft_messages,
                rec.blocks as f64,
            ),
        ),
        metric("peer.commit_us_per_block", "us", commit_per_block),
        metric(
            "peer.commit_us_per_tx",
            "us",
            ratio(
                us(replay_after.saturating_sub(replay_before)),
                rec.block_txs as f64,
            ),
        ),
        metric(
            "peer.stateless_us_per_block",
            "us",
            per_stage_us(after.stateless, before.stateless),
        ),
        metric(
            "peer.stateful_us_per_block",
            "us",
            per_stage_us(after.stateful, before.stateful),
        ),
        metric("network.advance_us_per_tick", "us", advance),
        metric("network.unattributed_us_per_tick", "us", unattributed),
        metric(
            "monitor.us_per_tick",
            "us",
            advance - ratio(us(quiet_rec.advance), quiet_rec.ticks as f64),
        ),
        metric(
            "ledger.block_bytes_per_tx",
            "B/tx",
            ratio(block_bytes as f64, rec.block_txs as f64),
        ),
        metric(
            "telemetry.tracing_overhead_pct",
            "%",
            ratio(tps(&base_rec) - tps(&rec), tps(&base_rec)) * 100.0,
        ),
        metric(
            "process.cpu_util",
            "ratio",
            ratio(after.cpu - before.cpu, rec.wall.as_secs_f64()),
        ),
        metric("driver.us_per_tick", "us", driver),
        metric("reconcile.tick_us", "us", tick_us),
        metric("reconcile.residual_us_per_tick", "us", residual),
    ];
    let notes = vec![
        format!(
            "reconcile per tick (us): wall {tick_us:.2} = client+peer calls {calls:.2} \
             + orderer {orderer_per_tick:.2} + peer commit {commit_per_tick:.2} \
             + unattributed {unattributed:.2} + driver {driver:.2} + residual {residual:.3} \
             ({:.3}% of wall)",
            ratio(residual * 100.0, tick_us)
        ),
        format!(
            "traced: {} ticks in {:.3} s, {} commits; commit_tps traced {:.1} vs untraced {:.1}",
            rec.ticks,
            rec.wall.as_secs_f64(),
            rec.committed,
            tps(&rec),
            tps(&base_rec)
        ),
    ];
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
        notes,
    })
}
