//! The three workload shapes and the seeded generators that drive them.
//!
//! Every workload is open-loop in logical ticks: each tick offers a fixed
//! number of arrivals, whether or not earlier transactions have committed.
//! Each arrival is a write or a read-only query, drawn by weight, so the
//! writes per tick vary with the seed while their mean stays below the
//! block-cut capacity (one block of `block_txs` per tick). Arrivals per
//! tick never exceed that capacity, so queues stay bounded and no
//! operation fails.

/// Where the per-operation client identities come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clients {
    /// A fresh identity per arrival, drawn from a space this large, so
    /// identity-keyed caches mostly miss.
    Fresh(u64),
    /// This many identities created at set-up and reused, so
    /// identity-keyed caches hit.
    Fixed(usize),
}

/// What a read-only query asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `read` of a private key at a collection-member peer.
    Private,
    /// `get` of a public key at any peer.
    Public,
}

/// Integer weights of the arrival kinds (0 disables one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Blind private `write`.
    pub pdc_write: u64,
    /// Private read-modify-write (`add`).
    pub pdc_add: u64,
    /// Public `put` on a key without a key-level policy.
    pub public_put: u64,
    /// Public `put` on a key governed by a key-level (SBE) policy.
    pub sbe_put: u64,
    /// Read-only query (see [`Workload::query`]).
    pub query: u64,
}

/// One arrival kind, as drawn from a [`Mix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PdcWrite,
    PdcAdd,
    PublicPut,
    SbePut,
    Query,
}

impl Mix {
    fn total(&self) -> u64 {
        self.pdc_write + self.pdc_add + self.public_put + self.sbe_put + self.query
    }

    /// Maps a uniform draw onto an arrival kind by weight.
    pub fn pick(&self, draw: u64) -> Kind {
        let mut d = draw % self.total();
        for (weight, kind) in [
            (self.pdc_write, Kind::PdcWrite),
            (self.pdc_add, Kind::PdcAdd),
            (self.public_put, Kind::PublicPut),
            (self.sbe_put, Kind::SbePut),
        ] {
            if d < weight {
                return kind;
            }
            d -= weight;
        }
        Kind::Query
    }

    /// Mean share of arrivals that are writes.
    pub fn write_share(&self) -> f64 {
        (self.total() - self.query) as f64 / self.total() as f64
    }
}

/// The shape of one workload. Fields are public so tests can shrink a
/// workload; the command line selects workloads only by name.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Channel organizations; the private collection's members are the
    /// first two.
    pub orgs: &'static [&'static str],
    /// Peers per organization (the first is `peer0.<org>`).
    pub peers_per_org: usize,
    /// Orderer block-cut size; capacity is one block per tick.
    pub block_txs: usize,
    /// Orderer batch timeout in ticks.
    pub batch_timeout_ticks: u64,
    /// Arrivals offered per tick, writes and queries together.
    pub arrivals_per_tick: usize,
    pub mix: Mix,
    pub query: Query,
    /// Private keys (0 when the workload has no private data).
    pub pdc_keys: usize,
    /// Public keys without a key-level policy.
    pub public_keys: usize,
    /// Public keys with a key-level (SBE) policy.
    pub sbe_keys: usize,
    /// Zipf skew of key draws (0 = uniform).
    pub zipf_skew: f64,
    pub clients: Clients,
    /// Ticks run after set-up and before the measured phase.
    pub warmup_ticks: u64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Measured ticks after which the high-water RSS is read.
    pub memory_ticks: u64,
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        pdc_small_blocks(),
        public_fanout_large_blocks(),
        pdc_read_heavy(),
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The paper's Fig. 11 setting: a two-org collection on a three-org
/// channel, small blocks at three quarters of the cut capacity, a fresh
/// client identity per arrival. Per-transaction and per-block fixed costs
/// dominate.
pub fn pdc_small_blocks() -> Workload {
    Workload {
        name: "pdc_small_blocks",
        orgs: &["Org1MSP", "Org2MSP", "Org3MSP"],
        peers_per_org: 1,
        block_txs: 4,
        batch_timeout_ticks: 2,
        arrivals_per_tick: 4,
        mix: Mix {
            pdc_write: 30,
            pdc_add: 24,
            public_put: 21,
            sbe_put: 0,
            query: 25,
        },
        query: Query::Private,
        pdc_keys: 4096,
        public_keys: 1024,
        sbe_keys: 0,
        zipf_skew: 0.99,
        clients: Clients::Fresh(1 << 20),
        warmup_ticks: 400,
        setup_reps: 5,
        memory_ticks: 8000,
    }
}

/// Public and SBE-governed puts only, two orgs of three peers each, large
/// blocks close to the cut capacity: validation and commit repeated at
/// every peer dominate, gossip is idle.
pub fn public_fanout_large_blocks() -> Workload {
    Workload {
        name: "public_fanout_large_blocks",
        orgs: &["Org1MSP", "Org2MSP"],
        peers_per_org: 3,
        block_txs: 64,
        batch_timeout_ticks: 2,
        arrivals_per_tick: 64,
        mix: Mix {
            pdc_write: 0,
            pdc_add: 0,
            public_put: 40,
            sbe_put: 18,
            query: 6,
        },
        query: Query::Public,
        pdc_keys: 0,
        public_keys: 8192,
        sbe_keys: 2048,
        zipf_skew: 0.0,
        clients: Clients::Fresh(1 << 20),
        warmup_ticks: 60,
        setup_reps: 3,
        memory_ticks: 400,
    }
}

/// Mostly private queries at member peers over a large key space, a few
/// writes, a small fixed set of clients: the endorse-only path dominates
/// while ordering and commit are nearly idle.
pub fn pdc_read_heavy() -> Workload {
    Workload {
        name: "pdc_read_heavy",
        orgs: &["Org1MSP", "Org2MSP", "Org3MSP"],
        peers_per_org: 1,
        block_txs: 32,
        batch_timeout_ticks: 2,
        arrivals_per_tick: 25,
        mix: Mix {
            pdc_write: 2,
            pdc_add: 2,
            public_put: 0,
            sbe_put: 0,
            query: 96,
        },
        query: Query::Private,
        pdc_keys: 16384,
        public_keys: 0,
        sbe_keys: 0,
        zipf_skew: 0.6,
        clients: Clients::Fixed(8),
        warmup_ticks: 200,
        setup_reps: 3,
        memory_ticks: 5000,
    }
}

/// SplitMix64: a small seeded generator, kept here so the benchmark's
/// inputs do not depend on any crate's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf sampler over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, skew: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(skew);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(3);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(3);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(3).next_u64(), Rng::new(4).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100, 0.99);
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] * 10);
        let u = Zipf::new(10, 0.0);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[u.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn offered_writes_stay_below_cut_capacity() {
        for w in all() {
            assert!(w.arrivals_per_tick <= w.block_txs, "{}", w.name);
            assert!(w.mix.write_share() < 1.0, "{}", w.name);
        }
    }

    #[test]
    fn mix_pick_partitions_the_weights() {
        let mix = pdc_small_blocks().mix;
        let picks: Vec<Kind> = (0..100).map(|d| mix.pick(d)).collect();
        let count = |k| picks.iter().filter(|p| **p == k).count() as u64;
        assert_eq!(count(Kind::PdcWrite), mix.pdc_write);
        assert_eq!(count(Kind::PdcAdd), mix.pdc_add);
        assert_eq!(count(Kind::PublicPut), mix.public_put);
        assert_eq!(count(Kind::Query), mix.query);
    }
}
