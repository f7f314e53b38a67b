//! The benchmark's workloads. Each is a fixed world shape built from one
//! seed through the cluster crate's public scenario builders, a warm-up,
//! and a fixed measured horizon of simulated time. All three are closed
//! loop: every RUBiS (and Zipf) session waits for its reply and then
//! thinks for an exponential time with a 300 ms mean.

use fgmon_cluster::scenarios::{big_cluster, rubis_world, RubisWorldCfg, NOISY_RATE_LIMIT};
use fgmon_cluster::Cluster;
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{
    BreakerConfig, FaultOp, FaultPlan, NodeId, RetryPolicy, Scheme, ServiceSlot, TenancyConfig,
};

/// Mean client think time shared by every workload.
const THINK: SimDuration = SimDuration::from_millis(300);

/// Slices the traced run cuts every workload's horizon into (one
/// `run.chunk` span each).
pub const CHUNKS: u32 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PaperSocket,
    Big256Sharded,
    NoisyTenant,
}

/// One named workload: its world shape and how long it is simulated.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Worker shards for `Cluster::run_parallel` (1 = sequential engine).
    pub shards: usize,
    /// Simulated time run before measuring (caches, queues, and the
    /// closed loop's staggered session starts settle here).
    pub warmup: SimDuration,
    /// Simulated time measured.
    pub horizon: SimDuration,
    /// Independent worlds (cells) a run simulates, each from its own
    /// sub-seed of the run's seed; simulated metrics pool all of them.
    pub cells: u32,
    /// Monitoring scheme of the dispatcher, which names its
    /// `mon/latency/<scheme>` and `mon/staleness/<scheme>` histograms.
    pub scheme: Scheme,
}

pub const ALL: [Spec; 3] = [
    Spec {
        name: "paper_socket",
        kind: Kind::PaperSocket,
        shards: 1,
        warmup: SimDuration::from_millis(1000),
        horizon: SimDuration::from_secs(30),
        cells: 1,
        scheme: Scheme::SocketSync,
    },
    Spec {
        name: "big256_sharded",
        kind: Kind::Big256Sharded,
        shards: 2,
        warmup: SimDuration::from_millis(250),
        horizon: SimDuration::from_secs(3),
        cells: 4,
        scheme: Scheme::RdmaSync,
    },
    Spec {
        name: "noisy_tenant",
        kind: Kind::NoisyTenant,
        shards: 1,
        warmup: SimDuration::from_millis(250),
        horizon: SimDuration::from_secs(3),
        cells: 24,
        scheme: Scheme::RdmaSync,
    },
];

pub fn by_name(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// A built world, with the handles the probes read through.
pub struct World {
    pub cluster: Cluster,
    pub frontend: NodeId,
    pub client_node: NodeId,
    pub backends: Vec<NodeId>,
    pub dispatcher_slot: ServiceSlot,
    pub rubis_client_slot: ServiceSlot,
    pub zipf_client_slot: Option<ServiceSlot>,
}

const PAPER_RUBIS_SESSIONS: u32 = 192;
const PAPER_ZIPF_SESSIONS: u32 = 96;
const BIG_BACKENDS: u16 = 256;
const NOISY_SESSIONS: u32 = 100;

impl Spec {
    /// Build the world for `seed`. The seed is the only input: the same
    /// seed builds the same world, event for event.
    pub fn build(&self, seed: u64) -> World {
        match self.kind {
            Kind::PaperSocket => from_rubis(&RubisWorldCfg {
                scheme: self.scheme,
                backends: 8,
                rubis_sessions: PAPER_RUBIS_SESSIONS,
                think_mean: THINK,
                zipf: Some((0.9, PAPER_ZIPF_SESSIONS)),
                granularity: SimDuration::from_millis(10),
                background_hogs: 2,
                seed,
                ..Default::default()
            }),
            Kind::Big256Sharded => {
                let w = big_cluster(BIG_BACKENDS, seed);
                World {
                    cluster: w.cluster,
                    frontend: w.frontend,
                    client_node: w.client_node,
                    backends: w.backends,
                    dispatcher_slot: w.dispatcher_slot,
                    rubis_client_slot: w.rubis_client_slot,
                    zipf_client_slot: None,
                }
            }
            Kind::NoisyTenant => {
                // Node ids follow `rubis_world`'s fixed order: front-end,
                // client, then the back-ends.
                let first_backend = NodeId(2);
                // Gray failures on monitor reads only: a lost request frame
                // would strand its closed-loop session for good.
                let faults = FaultPlan::new(seed)
                    .slow_nic(
                        first_backend,
                        4.0,
                        SimTime::ZERO + SimDuration::from_millis(750),
                        SimTime::ZERO + SimDuration::from_millis(1500),
                    )
                    .lossy_op(FaultOp::RdmaRead, 0.02);
                from_rubis(&RubisWorldCfg {
                    scheme: self.scheme,
                    backends: 2,
                    rubis_sessions: NOISY_SESSIONS,
                    think_mean: THINK,
                    granularity: SimDuration::from_millis(5),
                    retry: RetryPolicy::aggressive(SimDuration::from_millis(60)),
                    max_info_age: Some(SimDuration::from_millis(250)),
                    fallback_reporter: true,
                    tenancy: Some(TenancyConfig::with_qos(NOISY_RATE_LIMIT)),
                    breaker: Some(BreakerConfig::default()),
                    hostile_flood: 1,
                    faults,
                    seed,
                    ..Default::default()
                })
            }
        }
    }
}

fn from_rubis(cfg: &RubisWorldCfg) -> World {
    let w = rubis_world(cfg);
    World {
        cluster: w.cluster,
        frontend: w.frontend,
        client_node: w.client_node,
        backends: w.backends,
        dispatcher_slot: w.dispatcher_slot,
        rubis_client_slot: w.rubis_client_slot,
        zipf_client_slot: w.zipf_client_slot,
    }
}

impl World {
    /// Advance the world by `dur` on the workload's shard count.
    pub fn advance(&mut self, dur: SimDuration, shards: usize) {
        if shards > 1 {
            self.cluster.run_parallel(dur, shards);
        } else {
            self.cluster.run_for(dur);
        }
    }
}
