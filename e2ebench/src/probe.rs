//! Reads a world from outside, through the public counters of every layer:
//! `Engine` event totals, `FabricStats`, `OsCore` fields, the recorder's
//! counters, the dispatcher's `DispatcherStats` and its `MonitorClient`
//! views and channel health, and the closed-loop clients' completions.
//! The only write is emptying the recorder's histograms at the start of a
//! measured window; no service reads them, so the run itself is unchanged.

use fgmon_balancer::Dispatcher;
use fgmon_cluster::Cluster;
use fgmon_sim::{Histogram, SimTime};
use fgmon_types::{NodeId, QueryClass, TenantId};
use fgmon_workload::{RubisClient, ZipfClient};

use crate::workloads::World;

/// Declares [`Counters`] once: every field is a cumulative `u64` counter
/// that a measured window reports as the difference of two readings.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Cumulative counters of every layer at one instant (or, after
        /// [`Counters::since`], their growth over a window).
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
            /// Requests the dispatcher forwarded to each back-end.
            pub per_backend: Vec<u64>,
        }

        impl Counters {
            /// Growth from `earlier` to `self`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                    per_backend: self
                        .per_backend
                        .iter()
                        .zip(&earlier.per_backend)
                        .map(|(a, b)| a - b)
                        .collect(),
                }
            }

            /// Pool another window (another cell) into this one.
            pub fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
                if self.per_backend.len() < other.per_backend.len() {
                    self.per_backend.resize(other.per_backend.len(), 0);
                }
                for (a, b) in self.per_backend.iter_mut().zip(&other.per_backend) {
                    *a += b;
                }
            }
        }
    };
}

counters!(
    // sim
    events,
    // net
    socket_frames,
    socket_bytes,
    rdma_reads,
    rdma_batch_posts,
    rdma_batched_reads,
    dropped,
    fault_dropped,
    fault_delayed,
    tenant0_posted,
    tenant1_rate_limited,
    tenant1_contention_dropped,
    // os
    backend_busy_ns,
    irq_total,
    pkt_dropped,
    // core (the dispatcher's monitor: the served tenant's polls)
    polls,
    replies,
    timed_out,
    retries,
    gave_up,
    denied,
    late_ignored,
    breaker_trips,
    fallback_polls,
    // balancer
    forwarded,
    completed,
    rejected,
    degraded_exclusions,
    // workload
    rubis_completed,
    zipf_completed,
);

const PKT_DROP_KEYS: [&str; 3] = [
    "os/pkt_dropped_dead_thread",
    "os/pkt_dropped_no_listener",
    "os/mcast_dropped",
];

impl Counters {
    pub fn read(w: &World) -> Counters {
        let c = &w.cluster;
        let fabric = c.fabric_stats();
        let d: &Dispatcher = c.service(w.frontend, w.dispatcher_slot);
        let views = d.monitor.views();
        let health = d.monitor.health_total();
        let sum = |f: fn(&fgmon_core::BackendView) -> u64| views.iter().map(f).sum::<u64>();
        let backend_busy_ns = w
            .backends
            .iter()
            .flat_map(|&be| &c.node(be).core().cpu_acct)
            .map(|a| a.busy_total.nanos())
            .sum();
        let irq_total = nodes(c)
            .map(|n| c.node(n).core().irq.iter().map(|q| q.total).sum::<u64>())
            .sum();
        let pkt_dropped = PKT_DROP_KEYS
            .iter()
            .filter_map(|k| c.recorder().get_counter(k))
            .map(|n| n.get())
            .sum();
        let rubis: &RubisClient = c.service(w.client_node, w.rubis_client_slot);
        let zipf_completed = w.zipf_client_slot.map_or(0, |slot| {
            c.service::<ZipfClient>(w.client_node, slot).completed
        });
        let hostile = fabric.tenants[TenantId(1).index()];
        Counters {
            events: c.eng.events_processed(),
            socket_frames: fabric.socket_frames,
            socket_bytes: fabric.socket_bytes,
            rdma_reads: fabric.rdma_reads,
            rdma_batch_posts: fabric.rdma_batch_posts,
            rdma_batched_reads: fabric.rdma_batched_reads,
            dropped: fabric.dropped,
            fault_dropped: fabric.fault_dropped,
            fault_delayed: fabric.fault_delayed,
            tenant0_posted: fabric.tenants[TenantId::INFRA.index()].posted,
            tenant1_rate_limited: hostile.rate_limited,
            tenant1_contention_dropped: hostile.contention_dropped,
            backend_busy_ns,
            irq_total,
            pkt_dropped,
            polls: sum(|v| v.polls),
            replies: sum(|v| v.replies),
            timed_out: sum(|v| v.timed_out),
            retries: sum(|v| v.retries),
            gave_up: sum(|v| v.gave_up),
            denied: sum(|v| v.denied),
            late_ignored: sum(|v| v.late_ignored),
            breaker_trips: health.trips,
            fallback_polls: health.fallback_polls,
            forwarded: d.stats.forwarded,
            completed: d.stats.completed,
            rejected: d.stats.rejected,
            degraded_exclusions: d.stats.degraded_exclusions,
            rubis_completed: rubis.completed,
            zipf_completed,
            per_backend: d.stats.per_backend.clone(),
        }
    }
}

fn nodes(c: &Cluster) -> impl Iterator<Item = NodeId> {
    (0..c.node_count()).map(|i| NodeId(i as u16))
}

/// Closed-loop sessions over all clients, as the built client services
/// hold them: the most client requests that can be outstanding at once.
pub fn sessions(w: &World) -> u64 {
    let c = &w.cluster;
    let rubis: &RubisClient = c.service(w.client_node, w.rubis_client_slot);
    let zipf = w.zipf_client_slot.map_or(0, |slot| {
        c.service::<ZipfClient>(w.client_node, slot).sessions
    });
    u64::from(rubis.sessions) + u64::from(zipf)
}

/// CPUs over all back-ends.
pub fn backend_cpus(w: &World) -> u64 {
    w.backends
        .iter()
        .map(|&be| w.cluster.node(be).core().ncpus() as u64)
        .sum()
}

/// Largest `OsCore::rdma_pending` table over all nodes.
pub fn rdma_pending_max(c: &Cluster) -> u64 {
    nodes(c)
        .map(|n| c.node(n).core().rdma_pending.len() as u64)
        .max()
        .unwrap_or(0)
}

/// Most live threads on any one node.
pub fn live_threads_max(c: &Cluster) -> u64 {
    nodes(c)
        .map(|n| u64::from(c.node(n).core().threads.live_count()))
        .max()
        .unwrap_or(0)
}

/// Empty every recorder histogram in place, so the histograms describe
/// only what follows (the measured window). Interned ids stay valid.
pub fn clear_histograms(c: &mut Cluster) {
    let rec = c.eng.recorder_mut();
    let keys: Vec<String> = rec.histogram_keys().map(str::to_owned).collect();
    for key in keys {
        *rec.histogram(&key) = Histogram::new();
    }
}

/// Every client response time recorded so far, pooled over query classes
/// and services (RUBiS per class plus the flat Zipf histogram).
pub fn responses(c: &Cluster) -> Histogram {
    let mut pooled = Histogram::new();
    let rec = c.recorder();
    for prefix in ["rubis", "zipf"] {
        for class in QueryClass::ALL {
            if let Some(h) = rec.get_histogram(&format!("{prefix}/resp/{}", class.label())) {
                pooled.merge(h);
            }
        }
        if let Some(h) = rec.get_histogram(&format!("{prefix}/resp")) {
            pooled.merge(h);
        }
    }
    pooled
}

/// The monitor's own latency histogram (`mon/latency/<scheme>`).
pub fn monitor_latency(c: &Cluster, scheme: fgmon_types::Scheme) -> Histogram {
    c.recorder()
        .get_histogram(&format!("mon/latency/{scheme}"))
        .cloned()
        .unwrap_or_default()
}

/// Age of the dispatcher's information about each back-end at `now`
/// (nanoseconds), for every back-end it has heard from.
pub fn info_ages(w: &World, now: SimTime, out: &mut Vec<u64>) {
    let d: &Dispatcher = w.cluster.service(w.frontend, w.dispatcher_slot);
    out.extend(
        d.monitor
            .views()
            .iter()
            .filter_map(|v| v.info_age(now))
            .map(|age| age.nanos()),
    );
}
