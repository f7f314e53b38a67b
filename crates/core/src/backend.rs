//! Back-end side of the monitoring schemes (paper §3, Figs. 1–2).
//!
//! The paper builds every scheme from the same three parts: a periodic
//! load-calculating thread, a socket reporting thread, and an exported
//! memory region. [`MonitorBackend`] is the one back-end service; each
//! scheme is one row of parts, chosen in [`MonitorBackend::new`]:
//!
//! | Scheme          | Calc loop publishes to | Reporter              | Export |
//! |-----------------|------------------------|-----------------------|--------|
//! | Socket-Async    | shared buffer          | answer from published | —      |
//! | Socket-Sync     | —                      | compute per request   | —      |
//! | RDMA-Async      | user region            | standby: answer from published | user region |
//! | RDMA-Sync       | —                      | standby: compute per request | kernel region |
//! | e-RDMA-Sync     | —                      | standby: compute per request | kernel region + `irq_stat` |
//! | Mcast-Push      | multicast group        | —                     | —      |
//! | RDMA-Write-Push | remote RDMA write      | —                     | —      |
//!
//! Standby reporters run only with [`BackendConfig::fallback_reporter`]:
//! without one, RDMA-Sync runs **no** back-end thread at all, which is the
//! paper's whole point.

use std::collections::VecDeque;

use fgmon_os::{OsApi, Service};
use fgmon_sim::SimDuration;
use fgmon_types::{
    ConnId, LoadSnapshot, McastGroup, NodeId, Payload, RdmaResult, RecordFence, RegionId, Scheme,
    ThreadId,
};

/// Tokens used by backend threads.
const TOK_CALC_DONE: u64 = 0xBAC0_0001;
const TOK_CALC_WAKE: u64 = 0xBAC0_0002;
const TOK_REPORT_DONE: u64 = 0xBAC0_0003;

/// Hardware multicast group the Mcast-Push back-ends publish to.
pub(crate) const MONITOR_GROUP: McastGroup = McastGroup(0);

/// Configuration shared by the backend services.
#[derive(Clone, Copy, Debug)]
pub struct BackendConfig {
    /// Calc-thread refresh interval `T` (async schemes).
    pub calc_interval: SimDuration,
    /// Expose `irq_stat` to the user-space schemes through the helper
    /// kernel module (the paper's Fig. 6 experiment setup).
    pub via_kernel_module: bool,
    /// Target of the RDMA-write-push extension: the front-end node and
    /// the buffer registered there for this back-end.
    pub push_target: Option<(NodeId, RegionId)>,
    /// Run a standby socket reporter thread on the RDMA back-ends so the
    /// front-end's circuit breaker has a fallback path to divert to when
    /// the RDMA channel trips. Off by default: the paper's RDMA-Sync
    /// property (no back-end thread at all) is preserved unless failover
    /// is explicitly wanted.
    pub fallback_reporter: bool,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            calc_interval: SimDuration::from_millis(50),
            via_kernel_module: false,
            push_target: None,
            fallback_reporter: false,
        }
    }
}

/// Where the calc loop puts each round's snapshot (paper Fig. 1a Step 3,
/// Fig. 2a, and the §6 push extensions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Publish {
    /// The service-local "known memory location" (Socket-Async).
    SharedBuffer,
    /// The exported user region (RDMA-Async).
    UserRegion,
    /// A status frame to [`MONITOR_GROUP`] (Mcast-Push).
    Multicast,
    /// A one-sided write into [`BackendConfig::push_target`]
    /// (RDMA-Write-Push).
    RemoteWrite,
}

/// How the socket reporter answers a `MonitorRequest`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reporter {
    /// Read `/proc` for this request and reply when done (Fig. 1b).
    ComputePerRequest,
    /// Reply at once with the calc loop's last published snapshot
    /// (Fig. 1a Steps a–c).
    AnswerFromPublished,
}

/// The memory region a back-end registers for one-sided reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Export {
    None,
    /// A user buffer the calc loop refreshes (RDMA-Async).
    UserRegion,
    /// The live kernel statistics; `detail` adds `irq_stat` (e-RDMA-Sync).
    KernelRegion {
        detail: bool,
    },
}

/// One scheme's row: which of the three parts its back-end runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Parts {
    calc: Option<Publish>,
    /// Beside an exported region the reporter is a standby: it spawns
    /// after the calc thread as `mon-standby`, and also answers
    /// `RegionQuery`.
    reporter: Option<Reporter>,
    export: Export,
}

/// Build the back-end service for `scheme` from its row of parts.
pub fn make_backend(scheme: Scheme, cfg: BackendConfig) -> Box<dyn Service> {
    Box::new(MonitorBackend::new(scheme, cfg))
}

/// The monitoring back-end service: a calc loop, a socket reporter and an
/// exported region, each present or not as the scheme's row says.
pub struct MonitorBackend {
    cfg: BackendConfig,
    parts: Parts,
    /// The current registration of the exported region, if any.
    pub region: Option<RegionId>,
    /// Connections the front-ends talk over (set before boot by the
    /// cluster builder): the reporter listens on them, and restarts
    /// re-advertise the region on them.
    pub conns: Vec<ConnId>,
    /// The "known memory location" of [`Publish::SharedBuffer`].
    shared: Option<LoadSnapshot>,
    /// Requests whose `/proc` scan is in flight
    /// ([`Reporter::ComputePerRequest`]): the reply connection plus the
    /// correlation id to echo.
    pending: VecDeque<(ConnId, u64)>,
    /// Monotonic reply sequence stamped into fences.
    reply_seq: u64,
    pub calc_rounds: u64,
    /// `MonitorRequest`s answered by the reporter.
    pub requests_served: u64,
    /// `RegionAdvertise` frames sent (restarts + query answers).
    pub readvertisements: u64,
    pub write_acks: u64,
    pub write_denied: u64,
}

impl MonitorBackend {
    pub fn new(scheme: Scheme, cfg: BackendConfig) -> Self {
        use Publish::*;
        use Reporter::*;
        let standby = |r| cfg.fallback_reporter.then_some(r);
        let (calc, reporter, export) = match scheme {
            Scheme::SocketAsync => (Some(SharedBuffer), Some(AnswerFromPublished), Export::None),
            Scheme::SocketSync => (None, Some(ComputePerRequest), Export::None),
            Scheme::RdmaAsync => (
                Some(UserRegion),
                standby(AnswerFromPublished),
                Export::UserRegion,
            ),
            Scheme::RdmaSync => (
                None,
                standby(ComputePerRequest),
                Export::KernelRegion {
                    detail: cfg.via_kernel_module,
                },
            ),
            Scheme::ERdmaSync => (
                None,
                standby(ComputePerRequest),
                Export::KernelRegion { detail: true },
            ),
            Scheme::McastPush => (Some(Multicast), None, Export::None),
            Scheme::RdmaWritePush => (Some(RemoteWrite), None, Export::None),
        };
        MonitorBackend {
            cfg,
            parts: Parts {
                calc,
                reporter,
                export,
            },
            region: None,
            conns: Vec::new(),
            shared: None,
            pending: VecDeque::new(),
            reply_seq: 0,
            calc_rounds: 0,
            requests_served: 0,
            readvertisements: 0,
            write_acks: 0,
            write_denied: 0,
        }
    }

    /// The multicast group the front-end and this back-end must join.
    pub fn mcast_group(&self) -> Option<McastGroup> {
        (self.parts.calc == Some(Publish::Multicast)).then_some(MONITOR_GROUP)
    }

    /// Whether `/proc` reads expose `irq_stat`.
    fn kernel_detail(&self) -> bool {
        self.cfg.via_kernel_module || self.parts.export == (Export::KernelRegion { detail: true })
    }

    /// (Re-)register the exported region under the current boot
    /// generation.
    fn register(&mut self, os: &mut OsApi<'_, '_>) {
        self.region = match self.parts.export {
            Export::None => None,
            Export::UserRegion => Some(os.register_user_region(false)),
            Export::KernelRegion { detail } => Some(os.register_kernel_region(detail)),
        };
    }

    fn spawn_reporter(&self, name: &'static str, os: &mut OsApi<'_, '_>) {
        if self.parts.reporter.is_some() {
            let tid = os.spawn_thread(name);
            for &c in &self.conns {
                os.listen_thread(c, tid);
            }
        }
    }

    /// Steps 1–2 of Fig. 1: read `/proc` and compute the load.
    fn compute(tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        let cost = os.proc_read_cost() + os.load_calc_cost();
        os.burst(tid, cost, token);
    }

    /// Steps 3–4 of Fig. 1a: publish the values, then sleep for `T`.
    fn publish(&mut self, tid: ThreadId, publish: Publish, os: &mut OsApi<'_, '_>) {
        let snap = os.proc_snapshot(self.kernel_detail());
        match publish {
            Publish::SharedBuffer => self.shared = Some(snap),
            Publish::UserRegion => {
                if let Some(region) = self.region {
                    os.write_user_region(region, snap);
                }
            }
            Publish::Multicast => {
                let origin = os.node();
                os.mcast_send(tid, MONITOR_GROUP, Payload::StatusPush { origin, snap });
            }
            Publish::RemoteWrite => {
                if let Some((fe, region)) = self.cfg.push_target {
                    os.rdma_write(fe, region, snap, TOK_CALC_DONE);
                }
            }
        }
        self.calc_rounds += 1;
        os.sleep(tid, self.cfg.calc_interval, TOK_CALC_WAKE);
    }

    /// The calc loop's last published snapshot (zero before its first
    /// round, and after a restart until its next one).
    fn published(&self, os: &OsApi<'_, '_>) -> LoadSnapshot {
        let published = match self.parts.calc {
            Some(Publish::UserRegion) => self.region.and_then(|r| os.read_local_region(r)),
            _ => self.shared,
        };
        published.unwrap_or_else(LoadSnapshot::zero)
    }

    fn reply(
        &mut self,
        tid: ThreadId,
        conn: ConnId,
        req: u64,
        snap: LoadSnapshot,
        os: &mut OsApi<'_, '_>,
    ) {
        self.requests_served += 1;
        self.reply_seq += 1;
        let fence = RecordFence {
            generation: os.boot_generation(),
            seq: self.reply_seq,
        };
        os.send(tid, conn, Payload::MonitorReply { snap, req, fence });
    }

    /// Tell a front-end where the region lives: on the reporter thread in
    /// answer to a `RegionQuery`, or as a zero-cost control-plane frame
    /// after a restart (the handshake is not part of the measured
    /// monitoring path).
    fn advertise(&mut self, tid: Option<ThreadId>, conn: ConnId, req: u64, os: &mut OsApi<'_, '_>) {
        let Some(region) = self.region else { return };
        self.readvertisements += 1;
        let payload = Payload::RegionAdvertise {
            region,
            generation: os.boot_generation(),
            req,
        };
        match tid {
            Some(tid) => os.send(tid, conn, payload),
            None => os.send_direct(conn, payload),
        }
    }
}

impl Service for MonitorBackend {
    fn name(&self) -> &'static str {
        "monitor-backend"
    }

    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        // Exported read-only to remote peers.
        self.register(os);
        let standby = self.region.is_some();
        if !standby {
            self.spawn_reporter("mon-report", os);
        }
        if let Some(publish) = self.parts.calc {
            let name = match publish {
                Publish::SharedBuffer | Publish::UserRegion => "mon-calc",
                Publish::Multicast => "mon-push",
                Publish::RemoteWrite => "mon-wpush",
            };
            let tid = os.spawn_thread(name);
            Self::compute(tid, TOK_CALC_DONE, os);
        }
        if standby {
            self.spawn_reporter("mon-standby", os);
        }
    }

    fn on_restart(&mut self, os: &mut OsApi<'_, '_>) {
        // The old registration died with the previous boot generation:
        // re-register under the new one and tell every front-end, so
        // monitoring resumes instead of the backend staying excluded
        // forever. A calc loop refreshes the new region from its next
        // round on.
        self.register(os);
        for i in 0..self.conns.len() {
            self.advertise(None, self.conns[i], 0, os);
        }
    }

    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        match (token, self.parts.calc) {
            (TOK_CALC_DONE, Some(publish)) => self.publish(tid, publish, os),
            (TOK_REPORT_DONE, _) => {
                // Step 5 of Fig. 1b: reply with the freshly computed load.
                let snap = os.proc_snapshot(self.kernel_detail());
                if let Some((conn, req)) = self.pending.pop_front() {
                    self.reply(tid, conn, req, snap, os);
                }
            }
            _ => {}
        }
    }

    fn on_wake(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_CALC_WAKE {
            Self::compute(tid, TOK_CALC_DONE, os);
        }
    }

    fn on_packet(
        &mut self,
        tid: Option<ThreadId>,
        conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        let (Some(tid), Some(reporter)) = (tid, self.parts.reporter) else {
            return;
        };
        match (payload, reporter) {
            (Payload::MonitorRequest { req, .. }, Reporter::ComputePerRequest) => {
                self.pending.push_back((conn, req));
                Self::compute(tid, TOK_REPORT_DONE, os);
            }
            (Payload::MonitorRequest { req, .. }, Reporter::AnswerFromPublished) => {
                let snap = self.published(os);
                self.reply(tid, conn, req, snap, os);
            }
            (Payload::RegionQuery { req }, _) => self.advertise(Some(tid), conn, req, os),
            _ => {}
        }
    }

    fn on_rdma_complete(&mut self, _token: u64, result: RdmaResult, _os: &mut OsApi<'_, '_>) {
        match result {
            RdmaResult::WriteOk => self.write_acks += 1,
            RdmaResult::AccessDenied => self.write_denied += 1,
            _ => {}
        }
    }
}
