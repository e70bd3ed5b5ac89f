//! Drives one network through set-up, warm-up, a timed open-loop phase and
//! a drain, timing each of its own calls into the layers.
//!
//! The driver sets only options a deployment sets: organizations, seed,
//! defenses, batch size and timeout, telemetry and the monitor.

use crate::model::{
    key_name, member_orgs, seed_value, Model, Op, Space, COLLECTION, MEMBERS_POLICY, PDC_NS,
    PRIVATE_BASE, PUBLIC_BASE, PUBLIC_NS,
};
use crate::report::{band_quantile, peak_rss_mb, quantile, trimmed_mean};
use crate::workload::{Clients, Kind, Query, Rng, Workload, Zipf};
use fabric_chaincode::samples::{GuardedPdc, SbeDemo};
use fabric_chaincode::ChaincodeDefinition;
use fabric_client::Client;
use fabric_crypto::Keypair;
use fabric_monitor::Monitor;
use fabric_network::{FabricNetwork, NetworkBuilder};
use fabric_orderer::BatchConfig;
use fabric_telemetry::Telemetry;
use fabric_types::{
    Block, ChannelId, CollectionConfig, DefenseConfig, OrgId, Proposal, TxId, TxValidationCode,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raft orderer nodes; the orderer replay builds the same cluster.
pub const ORDERERS: usize = 3;
/// The network's own seed (identities, Raft timeouts), a deployment
/// setting: it stays the same for every workload seed, so set-up and the
/// ordering service's timing do not change with the seed.
pub const NETWORK_SEED: u64 = 1;
/// Length of the windows the measured phase is cut into. The per-call
/// medians are taken per window and averaged over the windows: a shared
/// host switches between a faster and a slower state every second or so,
/// and a mean over many short windows moves in proportion to the time
/// spent in each, where a median over a few windows jumps from one state
/// to the other between runs.
pub const WINDOW: Duration = Duration::from_millis(250);
/// Share of the windows dropped at each end before the per-window
/// figures are averaged: a stall of the program (such as a large table
/// growing) lands in one window and must not move the mean.
pub const WINDOW_TRIM: f64 = 0.1;
/// Rank band (a share of the window's commits on each side) of the
/// smoothed commit-latency median: ranks 45-55 %.
pub const P50_BAND: f64 = 0.05;
/// Keypair-seed base of per-arrival client identities.
const CLIENT_SEED_BASE: u64 = 1 << 40;
/// Keypair seed of the set-up client.
const SEEDER_SEED: u64 = 1 << 41;
/// Ticks a drain may take before the run is declared stuck.
const DRAIN_LIMIT: u64 = 100_000;
/// Failure messages kept for the report.
const ERRORS_KEPT: usize = 16;

/// Who signs a proposal.
#[derive(Debug, Clone, Copy)]
enum Who {
    /// A fresh identity: virtual client `vid` of org `orgs[org]`.
    Fresh { vid: u64, org: usize },
    /// One of the fixed clients.
    Fixed(usize),
    /// The set-up client.
    Seeder,
}

/// Time spent in each call of one write.
#[derive(Debug, Clone, Copy, Default)]
struct WriteTimes {
    proposal: Duration,
    endorse: [Duration; 2],
    assemble: Duration,
    submit: Duration,
}

/// A submitted, not yet committed write.
#[derive(Debug)]
struct Flight {
    op: Op,
    /// Tick index of its arrival.
    tick: u64,
    /// Start of its arrival tick: when it was due.
    due: Instant,
}

/// Per-phase accounting. Only an active recorder accumulates.
#[derive(Debug, Default)]
pub struct Recorder {
    active: bool,
    /// Index (in the orderer schedule) of the first recorded tick.
    pub first_tick: u64,
    /// Number of the first block committed in a recorded tick.
    pub first_block: u64,
    pub ticks: u64,
    /// Wall time of the whole phase.
    pub wall: Duration,
    /// Sum of the per-tick wall times.
    pub tick_wall: Duration,
    pub proposal: Duration,
    pub proposals: u64,
    pub endorse: Duration,
    pub endorsements: u64,
    pub query: Duration,
    pub queries: u64,
    pub assemble: Duration,
    pub assembles: u64,
    pub submit: Duration,
    pub advance: Duration,
    /// The driver's own bookkeeping.
    pub driver: Duration,
    /// Per write: proposal creation plus every endorsement, in µs.
    pub endorse_us: Vec<f64>,
    /// Per query: the one endorsement, in µs.
    pub query_us: Vec<f64>,
    /// Per commit: due time to end of the committing tick, in ms.
    pub commit_ms: Vec<f64>,
    /// Per commit: arrival tick to committing tick, inclusive.
    pub commit_ticks: Vec<f64>,
    /// Writes committed Valid at every peer.
    pub committed: u64,
    pub blocks: u64,
    pub block_txs: u64,
    /// Private writes submitted.
    pub pdc_submits: u64,
    /// Largest transient store seen at any peer (sampled when asked).
    pub transient_peak: usize,
    /// Per-window wall-clock figures.
    pub windows: Vec<Window>,
    /// Where the open window starts in the per-sample series.
    cursor: Cursor,
    /// High-water RSS once `memory_ticks` ticks were recorded, in MB.
    pub peak_rss_mb: f64,
}

/// Wall-clock figures of one window of the measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    pub commit_tps: f64,
    /// `None` when the window saw no commit, or timed no call, of the kind.
    pub commit_ms_p50: Option<f64>,
    pub endorse_us_p50: Option<f64>,
    pub query_us_p50: Option<f64>,
}

#[derive(Debug, Default)]
struct Cursor {
    committed: u64,
    commit_ms: usize,
    endorse_us: usize,
    query_us: usize,
}

fn median(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| quantile(values, 0.5))
}

impl Recorder {
    pub fn inactive() -> Self {
        Recorder::default()
    }

    fn close_window(&mut self, length: Duration) {
        let c = &self.cursor;
        self.windows.push(Window {
            commit_tps: (self.committed - c.committed) as f64 / length.as_secs_f64(),
            commit_ms_p50: (self.commit_ms.len() > c.commit_ms)
                .then(|| band_quantile(&self.commit_ms[c.commit_ms..], 0.5, P50_BAND)),
            endorse_us_p50: median(&self.endorse_us[c.endorse_us..]),
            query_us_p50: median(&self.query_us[c.query_us..]),
        });
        self.cursor = Cursor {
            committed: self.committed,
            commit_ms: self.commit_ms.len(),
            endorse_us: self.endorse_us.len(),
            query_us: self.query_us.len(),
        };
    }

    /// The mean over the windows that have it of one per-window figure,
    /// less the highest and lowest [`WINDOW_TRIM`] of the windows; 0 when
    /// none has.
    pub fn window_mean(&self, figure: impl Fn(&Window) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.windows.iter().filter_map(figure).collect();
        trimmed_mean(&values, WINDOW_TRIM)
    }
}

/// One network under drive, with the model of what it must hold.
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub net: FabricNetwork,
    pub telemetry: Telemetry,
    traced: bool,
    /// Peer names at set-up, in network order.
    pub peers: Vec<String>,
    /// The endorsing peers of every write: the first peer of each member
    /// org.
    endorsers: [String; 2],
    /// Peers that answer queries.
    readers: Vec<String>,
    channel: ChannelId,
    pub model: Model,
    rng: Rng,
    zipf: [Option<Zipf>; 3],
    clients: Vec<Client>,
    seeder: Client,
    nonce: u64,
    /// Transactions submitted before each `advance(1)`, from the first.
    pub schedule: Vec<u32>,
    pending_submits: u32,
    inflight: HashMap<TxId, Flight>,
    seen_height: u64,
    /// Operations offered after set-up, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs and failures, for the report.
    pub errors: Vec<String>,
    /// Sample the gossip transient stores every tick.
    pub sample_transient: bool,
}

impl Bench {
    /// Builds the network, deploys the chaincodes and commits the
    /// workload's full key space. `seed` drives the workload's draws only.
    ///
    /// # Errors
    ///
    /// When a set-up transaction is refused or does not commit Valid.
    pub fn setup(w: &Workload, seed: u64, traced: bool, monitor: bool) -> Result<Bench, String> {
        let telemetry = if traced {
            Telemetry::new()
        } else {
            Telemetry::noop()
        };
        let mut builder = NetworkBuilder::new("benchchannel")
            .orgs(w.orgs)
            .orderers(ORDERERS)
            .seed(NETWORK_SEED)
            .defense(DefenseConfig::hardened())
            .batch(batch_config(w))
            .with_telemetry(telemetry.clone());
        if monitor {
            builder = builder.with_monitor(Monitor::new(&telemetry));
        }
        let mut net = builder.build();
        for org in w.orgs {
            for _ in 1..w.peers_per_org {
                net.add_peer(org);
            }
        }
        if w.pdc_keys > 0 {
            let collection = CollectionConfig::membership_of(COLLECTION, &member_orgs())
                .with_endorsement_policy(MEMBERS_POLICY);
            net.deploy_chaincode(
                ChaincodeDefinition::new(PDC_NS)
                    .with_endorsement_policy("MAJORITY Endorsement")
                    .with_collection(collection),
                Arc::new(GuardedPdc::unconstrained(COLLECTION)),
            );
        }
        net.deploy_chaincode(
            ChaincodeDefinition::new(PUBLIC_NS).with_endorsement_policy("MAJORITY Endorsement"),
            Arc::new(SbeDemo),
        );

        let peers = net.peer_names();
        let of_org = |org: &OrgId| -> Vec<String> {
            peers
                .iter()
                .filter(|p| net.peer(p).org() == org)
                .cloned()
                .collect()
        };
        let [org1, org2] = member_orgs().map(|o| of_org(&o));
        let endorsers = [org1[0].clone(), org2[0].clone()];
        let readers = match w.query {
            Query::Private => org1.iter().chain(&org2).cloned().collect(),
            Query::Public => peers.clone(),
        };
        let clients = match w.clients {
            Clients::Fixed(n) => (0..n)
                .map(|i| {
                    fresh_client(
                        &member_orgs()[i % 2],
                        CLIENT_SEED_BASE ^ (i as u64),
                        traced.then_some(&telemetry),
                    )
                })
                .collect(),
            Clients::Fresh(_) => Vec::new(),
        };
        let seeder = fresh_client(&member_orgs()[0], SEEDER_SEED, traced.then_some(&telemetry));
        let zipf = [w.pdc_keys, w.public_keys, w.sbe_keys]
            .map(|n| (n > 0).then(|| Zipf::new(n, w.zipf_skew)));
        let mut bench = Bench {
            workload: w.clone(),
            seed,
            channel: net.channel().clone(),
            net,
            telemetry,
            traced,
            peers,
            endorsers,
            readers,
            model: Model::new(w.pdc_keys, w.public_keys, w.sbe_keys),
            rng: Rng::new(seed),
            zipf,
            clients,
            seeder,
            nonce: 0,
            schedule: Vec::new(),
            pending_submits: 0,
            inflight: HashMap::new(),
            seen_height: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            sample_transient: false,
        };
        bench.seed_state()?;
        Ok(bench)
    }

    /// Commits every key's initial value, then (in later blocks) the
    /// key-level policy of every SBE key.
    fn seed_state(&mut self) -> Result<(), String> {
        let mut puts = Vec::new();
        for key in 0..self.workload.pdc_keys {
            puts.push(Op::PdcWrite {
                key,
                value: seed_value(Space::Pdc, key),
            });
        }
        for space in [Space::Public, Space::Sbe] {
            for key in 0..self.model.len(space) {
                puts.push(Op::Put {
                    space,
                    key,
                    value: seed_value(space, key),
                });
            }
        }
        let policies = (0..self.workload.sbe_keys)
            .map(|key| Op::SetPolicy { key })
            .collect();
        for ops in [puts, policies] {
            for op in ops {
                self.nonce += 1;
                let (tx_id, _, _) = self.execute(&op, Who::Seeder, self.nonce)?;
                self.track(tx_id, op, Instant::now());
            }
            let mut rec = Recorder::inactive();
            self.drain(&mut rec)?;
        }
        if self.failed > 0 {
            return Err(format!("set-up: {}", self.errors.join("; ")));
        }
        Ok(())
    }

    /// Runs `ticks` ticks of the workload without recording them.
    pub fn run_ticks(&mut self, ticks: u64) {
        let mut rec = Recorder::inactive();
        for _ in 0..ticks {
            self.tick(&mut rec, true);
        }
    }

    /// Runs the workload for `seconds` of wall time, ending on a tick
    /// boundary, and records it in windows of about [`WINDOW`]. Reads the
    /// high-water RSS after the workload's `memory_ticks` ticks, so that
    /// figure is per fixed work, not per wall time.
    pub fn run_measured(&mut self, seconds: f64) -> Recorder {
        let mut rec = Recorder {
            active: true,
            first_tick: self.schedule.len() as u64,
            first_block: self.seen_height,
            ..Recorder::default()
        };
        let memory_ticks = self.workload.memory_ticks;
        let total = Duration::from_secs_f64(seconds);
        let window = total / (seconds / WINDOW.as_secs_f64()).round().max(1.0) as u32;
        let start = Instant::now();
        let mut window_start = start;
        loop {
            self.tick(&mut rec, true);
            if rec.ticks == memory_ticks {
                rec.peak_rss_mb = peak_rss_mb();
            }
            let now = Instant::now();
            let done = now - start >= total;
            // A window ends on its own length, not on a fixed grid, so a
            // stall of the program makes one long window, not a row of
            // one-tick windows after it.
            if done || now - window_start >= window {
                rec.close_window(now - window_start);
                window_start = now;
            }
            if done {
                break;
            }
        }
        rec.wall = start.elapsed();
        rec.active = false;
        rec
    }

    /// Ticks without arrivals until every submitted write has committed.
    ///
    /// # Errors
    ///
    /// When writes are still in flight after [`DRAIN_LIMIT`] ticks.
    pub fn drain(&mut self, rec: &mut Recorder) -> Result<(), String> {
        for _ in 0..DRAIN_LIMIT {
            if self.inflight.is_empty() {
                return Ok(());
            }
            self.tick(rec, false);
        }
        Err(format!(
            "{} writes still in flight after {DRAIN_LIMIT} drain ticks",
            self.inflight.len()
        ))
    }

    /// The committed chain as the first peer holds it.
    pub fn chain(&self) -> Vec<Block> {
        self.net
            .peer(&self.peers[0])
            .block_store()
            .iter()
            .cloned()
            .collect()
    }

    /// Blocks every peer has committed.
    pub fn seen_height(&self) -> u64 {
        self.seen_height
    }

    /// Batch parameters the network was built with.
    pub fn batch(&self) -> BatchConfig {
        batch_config(&self.workload)
    }

    fn tick(&mut self, rec: &mut Recorder, arrivals: bool) {
        let start = Instant::now();
        let mut driver = Duration::ZERO;
        if arrivals {
            for _ in 0..self.workload.arrivals_per_tick {
                match self.workload.mix.pick(self.rng.next_u64()) {
                    Kind::Query => self.arrive_query(rec, &mut driver),
                    kind => self.arrive_write(kind, rec, start, &mut driver),
                }
            }
            if self.sample_transient && rec.active {
                let t = Instant::now();
                for name in &self.peers {
                    let id = self.net.peer(name).gossip_id().clone();
                    let len = self.net.gossip_mut().transient_len(&id);
                    rec.transient_peak = rec.transient_peak.max(len);
                }
                driver += t.elapsed();
            }
        }
        let advance_start = Instant::now();
        self.net.advance(1);
        let advance_end = Instant::now();
        self.schedule
            .push(std::mem::take(&mut self.pending_submits));
        self.detect_commits(rec, advance_end);
        let end = Instant::now();
        if rec.active {
            rec.ticks += 1;
            rec.advance += advance_end - advance_start;
            rec.driver += driver + (end - advance_end);
            rec.tick_wall += end - start;
        }
    }

    fn arrive_write(
        &mut self,
        kind: Kind,
        rec: &mut Recorder,
        due: Instant,
        driver: &mut Duration,
    ) {
        let t0 = Instant::now();
        self.attempted += 1;
        let space = match kind {
            Kind::PdcWrite | Kind::PdcAdd => Space::Pdc,
            Kind::PublicPut => Space::Public,
            Kind::SbePut => Space::Sbe,
            Kind::Query => unreachable!("queries arrive through arrive_query"),
        };
        let key = self.draw_key(space, true);
        self.nonce += 1;
        let nonce = self.nonce;
        let op = match kind {
            Kind::PdcWrite => Op::PdcWrite {
                key,
                value: PRIVATE_BASE + nonce * 1000 + self.seed % 1000,
            },
            Kind::PdcAdd => Op::PdcAdd {
                key,
                delta: 1 + self.rng.below(999),
                expected: 0,
            },
            _ => Op::Put {
                space,
                key,
                value: PUBLIC_BASE + nonce,
            },
        };
        let who = self.draw_client(op.is_private());
        *driver += t0.elapsed();
        match self.execute(&op, who, nonce) {
            Ok((tx_id, payload, times)) => {
                let t = Instant::now();
                let mut op = op;
                if let Op::PdcAdd { expected, .. } = &mut op {
                    match parse_value(&payload) {
                        Some(v) => *expected = v,
                        None => self.error(format!("add on key {key}: bad response {payload:?}")),
                    }
                }
                if rec.active {
                    rec.proposal += times.proposal;
                    rec.proposals += 1;
                    rec.endorse += times.endorse[0] + times.endorse[1];
                    rec.endorsements += 2;
                    rec.assemble += times.assemble;
                    rec.assembles += 1;
                    rec.submit += times.submit;
                    rec.pdc_submits += u64::from(op.is_private());
                    let exec = times.proposal + times.endorse[0] + times.endorse[1];
                    rec.endorse_us.push(exec.as_secs_f64() * 1e6);
                }
                self.track(tx_id, op, due);
                *driver += t.elapsed();
            }
            Err(e) => {
                let t = Instant::now();
                self.model.set_lease(space, key, false);
                self.failed += 1;
                self.error(e);
                *driver += t.elapsed();
            }
        }
    }

    fn arrive_query(&mut self, rec: &mut Recorder, driver: &mut Duration) {
        let t0 = Instant::now();
        self.attempted += 1;
        let (space, function, ns) = match self.workload.query {
            Query::Private => (Space::Pdc, "read", PDC_NS),
            Query::Public => (Space::Public, "get", PUBLIC_NS),
        };
        let key = self.draw_key(space, false);
        self.nonce += 1;
        let nonce = self.nonce;
        let who = self.draw_client(space == Space::Pdc);
        let peer = &self.readers[(nonce as usize) % self.readers.len()];
        let t1 = Instant::now();
        let client = client_ref(
            who,
            &self.workload,
            &self.clients,
            &self.seeder,
            self.traced_telemetry(),
        );
        let proposal = Proposal::new(
            self.channel.clone(),
            ns,
            function,
            vec![key_name(space, key).into_bytes()],
            BTreeMap::new(),
            client.identity().clone(),
            nonce,
        );
        drop(client);
        let t2 = Instant::now();
        let result = self.net.endorse(peer, &proposal);
        let t3 = Instant::now();
        match result {
            Ok(response) => {
                let got = parse_value(&response.payload.response.payload);
                let want = self.model.value(space, key);
                if got != want {
                    self.error(format!(
                        "query of {} at {peer}: got {got:?}, model {want:?}",
                        key_name(space, key)
                    ));
                }
            }
            Err(e) => {
                self.failed += 1;
                self.error(format!("query at {peer}: {e}"));
            }
        }
        if rec.active {
            rec.proposal += t2 - t1;
            rec.proposals += 1;
            rec.query += t3 - t2;
            rec.queries += 1;
            rec.query_us.push((t3 - t2).as_secs_f64() * 1e6);
        }
        *driver += (t1 - t0) + t3.elapsed();
    }

    /// Draws a key of `space` from the workload's Zipf distribution. A
    /// write redraws, then probes, until it finds a key not in flight.
    fn draw_key(&mut self, space: Space, lease: bool) -> usize {
        let zipf = self.zipf[space as usize]
            .as_ref()
            .expect("workload draws only from its own key spaces");
        let mut key = zipf.sample(&mut self.rng);
        if lease {
            for _ in 0..8 {
                if !self.model.is_leased(space, key) {
                    break;
                }
                key = zipf.sample(&mut self.rng);
            }
            let n = self.model.len(space);
            key = (0..n)
                .map(|i| (key + i) % n)
                .find(|&k| !self.model.is_leased(space, k))
                .expect("the key space is larger than the writes in flight");
            self.model.set_lease(space, key, true);
        }
        key
    }

    fn draw_client(&mut self, private: bool) -> Who {
        match self.workload.clients {
            Clients::Fresh(space) => {
                let vid = self.rng.below(space);
                let orgs = if private {
                    2
                } else {
                    self.workload.orgs.len() as u64
                };
                Who::Fresh {
                    vid,
                    org: (vid % orgs) as usize,
                }
            }
            Clients::Fixed(n) => Who::Fixed(self.rng.below(n as u64) as usize),
        }
    }

    /// Creates the proposal, endorses it at one peer of each member org,
    /// assembles and submits the transaction, timing each call.
    fn execute(
        &mut self,
        op: &Op,
        who: Who,
        nonce: u64,
    ) -> Result<(TxId, Vec<u8>, WriteTimes), String> {
        let (ns, function, args) = call_of(op);
        let t0 = Instant::now();
        // Identity creation (for fresh clients) is part of proposal time.
        let client = client_ref(
            who,
            &self.workload,
            &self.clients,
            &self.seeder,
            self.traced_telemetry(),
        );
        let proposal = Proposal::new(
            self.channel.clone(),
            ns,
            function,
            args,
            BTreeMap::new(),
            client.identity().clone(),
            nonce,
        );
        let t1 = Instant::now();
        let [e0, e1] = &self.endorsers;
        let r0 = self.net.endorse(e0, &proposal).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let r1 = self.net.endorse(e1, &proposal).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let (tx, payload) = client
            .assemble_transaction(&proposal, &[r0, r1])
            .map_err(|e| e.to_string())?;
        let tx_id = tx.tx_id.clone();
        let t4 = Instant::now();
        self.net.submit(tx);
        let t5 = Instant::now();
        self.pending_submits += 1;
        Ok((
            tx_id,
            payload,
            WriteTimes {
                proposal: t1 - t0,
                endorse: [t2 - t1, t3 - t2],
                assemble: t4 - t3,
                submit: t5 - t4,
            },
        ))
    }

    fn track(&mut self, tx_id: TxId, op: Op, due: Instant) {
        let tick = self.schedule.len() as u64;
        self.inflight.insert(tx_id, Flight { op, tick, due });
    }

    /// Resolves every block all peers have committed since the last call.
    fn detect_commits(&mut self, rec: &mut Recorder, tick_end: Instant) {
        let height = self
            .peers
            .iter()
            .map(|p| self.net.peer(p).block_store().height())
            .min()
            .unwrap_or(0);
        let tick = self.schedule.len() as u64 - 1;
        let store = self.net.peer(&self.peers[0]).block_store();
        for number in self.seen_height..height {
            let block = store.block(number).expect("below the common height");
            if rec.active {
                rec.blocks += 1;
                rec.block_txs += block.transactions.len() as u64;
            }
            for (i, tx) in block.transactions.iter().enumerate() {
                let Some(flight) = self.inflight.remove(&tx.tx_id) else {
                    push_error(
                        &mut self.errors,
                        format!("unknown tx {} committed", tx.tx_id),
                    );
                    continue;
                };
                let (space, key) = flight.op.key();
                self.model.set_lease(space, key, false);
                let code = block.validation_code(i);
                if code != Some(TxValidationCode::Valid) {
                    self.failed += 1;
                    push_error(
                        &mut self.errors,
                        format!("{:?} committed as {code:?}", flight.op),
                    );
                    continue;
                }
                if let Err(e) = self.model.apply(&flight.op) {
                    push_error(&mut self.errors, e);
                }
                if rec.active {
                    rec.committed += 1;
                    rec.commit_ms
                        .push((tick_end - flight.due).as_secs_f64() * 1e3);
                    rec.commit_ticks.push((tick - flight.tick + 1) as f64);
                }
            }
        }
        self.seen_height = height;
    }

    /// The telemetry fresh clients attach: only a traced run's.
    fn traced_telemetry(&self) -> Option<&Telemetry> {
        self.traced.then_some(&self.telemetry)
    }

    fn error(&mut self, e: String) {
        push_error(&mut self.errors, e);
    }
}

fn push_error(errors: &mut Vec<String>, e: String) {
    if errors.len() < ERRORS_KEPT {
        errors.push(e);
    }
}

/// A client made for one arrival, or one kept for the run.
enum ClientRef<'a> {
    Owned(Client),
    Borrowed(&'a Client),
}

impl std::ops::Deref for ClientRef<'_> {
    type Target = Client;

    fn deref(&self) -> &Client {
        match self {
            ClientRef::Owned(c) => c,
            ClientRef::Borrowed(c) => c,
        }
    }
}

fn client_ref<'a>(
    who: Who,
    w: &Workload,
    clients: &'a [Client],
    seeder: &'a Client,
    telemetry: Option<&Telemetry>,
) -> ClientRef<'a> {
    match who {
        Who::Fresh { vid, org } => ClientRef::Owned(fresh_client(
            &OrgId::new(w.orgs[org]),
            CLIENT_SEED_BASE + vid,
            telemetry,
        )),
        Who::Fixed(i) => ClientRef::Borrowed(&clients[i]),
        Who::Seeder => ClientRef::Borrowed(seeder),
    }
}

fn fresh_client(org: &OrgId, seed: u64, telemetry: Option<&Telemetry>) -> Client {
    let mut client = Client::new(
        org.clone(),
        Keypair::generate_from_seed(seed),
        DefenseConfig::hardened(),
    );
    if let Some(t) = telemetry {
        client.attach_telemetry(t.clone());
    }
    client
}

fn batch_config(w: &Workload) -> BatchConfig {
    BatchConfig {
        max_message_count: w.block_txs,
        batch_timeout_ticks: w.batch_timeout_ticks,
    }
}

/// Chaincode, function and arguments of a write.
fn call_of(op: &Op) -> (&'static str, &'static str, Vec<Vec<u8>>) {
    let arg = |s: String| s.into_bytes();
    match *op {
        Op::PdcWrite { key, value } => (
            PDC_NS,
            "write",
            vec![arg(key_name(Space::Pdc, key)), arg(value.to_string())],
        ),
        Op::PdcAdd { key, delta, .. } => (
            PDC_NS,
            "add",
            vec![arg(key_name(Space::Pdc, key)), arg(delta.to_string())],
        ),
        Op::Put { space, key, value } => (
            PUBLIC_NS,
            "put",
            vec![arg(key_name(space, key)), arg(value.to_string())],
        ),
        Op::SetPolicy { key } => (
            PUBLIC_NS,
            "set_policy",
            vec![
                arg(key_name(Space::Sbe, key)),
                arg(MEMBERS_POLICY.to_string()),
            ],
        ),
    }
}

/// Parses a decimal value as a chaincode returns or stores it.
pub fn parse_value(bytes: &[u8]) -> Option<u64> {
    std::str::from_utf8(bytes).ok()?.parse().ok()
}
