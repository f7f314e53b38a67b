//! The node actor: a complete simulated machine.
//!
//! Ties together the CPU scheduler (round-robin with a fixed quantum,
//! interrupt preemption, optional packet-wakeup boost), the NIC (socket
//! receive path and one-sided RDMA target engine), and the hosted
//! [`Service`]s.
//!
//! ### Scheduling model
//!
//! Each CPU executes *segments*: a segment is `min(quantum_left,
//! burst_remaining)` of the current thread's burst. Interrupt arrivals
//! preempt the running segment immediately (generation counters invalidate
//! the segment's pending `QuantumEnd` event); the preempted thread resumes
//! on the same CPU once the IRQ batch drains. When a burst completes the
//! owning service is called back *while the thread still holds the CPU*,
//! so a service can chain work without losing its quantum — exactly like a
//! real process continuing after `read()` returns.

use std::any::Any;

use fgmon_sim::{Actor, ActorId, Ctx, SeriesId, SimDuration, SimTime};
use fgmon_types::{
    Msg, NetMsg, NodeId, NodeMsg, PostedKey, RdmaResult, RegionData, RegionId, ReqId, ServiceSlot,
    ThreadId,
};

use crate::core_state::{CpuRt, ListenMode, OsCore, RegionKind};
use crate::irq::PendingDelivery;
use crate::service::{OsApi, Service};
use crate::thread::{ActiveBurst, BurstKind, ThreadOp, ThreadState};

/// Result of trying to give a thread something to execute.
enum Ensure {
    /// `thread.burst` is now `Some`.
    HasBurst,
    /// The thread went to sleep (wake event scheduled).
    Slept,
    /// Nothing to do: the thread blocked.
    Blocked,
}

/// Interned recorder handles for the ground-truth series this node emits
/// every tick; formatting the keys once makes the tick allocation-free.
struct GtSeries {
    nthreads: SeriesId,
    cpu_util: SeriesId,
    run_queue: SeriesId,
    loadavg1: SeriesId,
    pending_irqs: SeriesId,
    per_cpu_pending: Vec<SeriesId>,
}

/// One simulated machine: kernel state plus hosted services.
pub struct NodeActor {
    core: OsCore,
    services: Vec<Option<Box<dyn Service>>>,
    /// Reused buffer for draining IRQ delivery batches (capacity persists
    /// across batches so the hot path never reallocates).
    delivery_scratch: Vec<PendingDelivery>,
    /// Lazily interned ground-truth metric handles.
    gt_series: Option<GtSeries>,
}

impl NodeActor {
    pub fn new(core: OsCore) -> Self {
        NodeActor {
            core,
            services: Vec::new(),
            delivery_scratch: Vec::new(),
            gt_series: None,
        }
    }

    /// Host a service on this node; slots are assigned in order.
    pub fn add_service(&mut self, svc: Box<dyn Service>) -> ServiceSlot {
        let slot = ServiceSlot(self.services.len() as u16);
        self.services.push(Some(svc));
        slot
    }

    pub fn node_id(&self) -> NodeId {
        self.core.node
    }

    /// Number of hosted services (slots are `0..service_count()`).
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    pub fn core(&self) -> &OsCore {
        &self.core
    }

    pub fn core_mut(&mut self) -> &mut OsCore {
        &mut self.core
    }

    /// Downcast a hosted service (harness result extraction).
    pub fn service<T: Service>(&self, slot: ServiceSlot) -> Option<&T> {
        self.services
            .get(slot.index())
            .and_then(|s| s.as_deref())
            .and_then(|s| (s as &dyn Any).downcast_ref::<T>())
    }

    pub fn service_mut<T: Service>(&mut self, slot: ServiceSlot) -> Option<&mut T> {
        self.services
            .get_mut(slot.index())
            .and_then(|s| s.as_deref_mut())
            .and_then(|s| (s as &mut dyn Any).downcast_mut::<T>())
    }

    // ---- service callback plumbing ----------------------------------------

    fn call_service<F>(&mut self, ctx: &mut Ctx<'_, Msg>, slot: ServiceSlot, f: F)
    where
        F: FnOnce(&mut dyn Service, &mut OsApi<'_, '_>),
    {
        let Some(mut svc) = self.services.get_mut(slot.index()).and_then(Option::take) else {
            return;
        };
        {
            let mut api = OsApi {
                core: &mut self.core,
                ctx,
                slot,
            };
            f(svc.as_mut(), &mut api);
        }
        self.services[slot.index()] = Some(svc);
    }

    // ---- scheduler ---------------------------------------------------------

    /// Dispatch runnable threads onto idle CPUs until fixpoint.
    fn balance(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>) {
        loop {
            let Some(cpu) = self.core.cpus.iter().position(|c| c.is_idle()) else {
                return;
            };
            if !self.dispatch_one(now, ctx, cpu as u8) {
                return;
            }
        }
    }

    /// Try to put one thread on `cpu`. Returns false when the run queue is
    /// exhausted.
    fn dispatch_one(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>, cpu: u8) -> bool {
        loop {
            let Some(tid) = self.core.run_queue.pop_front() else {
                return false;
            };
            if !self.core.threads.get(tid).is_alive()
                || self.core.threads.get(tid).state != ThreadState::Runnable
            {
                continue;
            }
            match self.ensure_burst(now, ctx, tid) {
                Ensure::HasBurst => {
                    // Fresh dispatch from the queue: charge the context
                    // switch by folding it into the burst.
                    let cs = self.core.cfg.costs.ctx_switch;
                    let quantum = self.core.cfg.costs.quantum;
                    {
                        let t = self.core.threads.get_mut(tid);
                        if let Some(b) = t.burst.as_mut() {
                            b.remaining += cs;
                        }
                        t.state = ThreadState::Running(cpu);
                    }
                    self.continue_run(now, ctx, cpu, tid, quantum);
                    return true;
                }
                Ensure::Slept => continue,
                Ensure::Blocked => {
                    self.core.touch_loadavg(now);
                    self.core.threads.get_mut(tid).state = ThreadState::Idle;
                    continue;
                }
            }
        }
    }

    /// Give `tid` something to execute, running service callbacks as
    /// needed. On return the thread either has a burst, sleeps, or blocks.
    fn ensure_burst(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>, tid: ThreadId) -> Ensure {
        // A service that wakes itself in a loop without queueing work would
        // otherwise spin forever at one instant.
        for _ in 0..1024 {
            if !self.core.threads.get(tid).is_alive() {
                return Ensure::Blocked;
            }
            if self.core.threads.get(tid).burst.is_some() {
                return Ensure::HasBurst;
            }
            let op = self.core.threads.get_mut(tid).ops.pop_front();
            match op {
                Some(ThreadOp::Burst { dur, token }) => {
                    self.core.threads.get_mut(tid).burst = Some(ActiveBurst {
                        remaining: dur,
                        kind: BurstKind::Work { token },
                    });
                }
                Some(ThreadOp::Sleep { dur, token }) => {
                    let tick = self.core.cfg.costs.timer_tick;
                    let wake_at = (now + dur).round_up_to(tick);
                    self.core.touch_loadavg(now);
                    let gen = {
                        let t = self.core.threads.get_mut(tid);
                        t.state = ThreadState::Sleeping;
                        t.pending_wake = token;
                        t.bump_gen()
                    };
                    let me = self.core.self_actor;
                    ctx.send_at(
                        wake_at,
                        me,
                        Msg::Node(NodeMsg::ThreadWake { thread: tid, gen }),
                    );
                    return Ensure::Slept;
                }
                Some(ThreadOp::Send { conn, payload }) => {
                    self.core.threads.get_mut(tid).burst = Some(ActiveBurst {
                        remaining: self.core.cfg.costs.send_cpu,
                        kind: BurstKind::Send { conn, payload },
                    });
                }
                Some(ThreadOp::McastSend { group, payload }) => {
                    self.core.threads.get_mut(tid).burst = Some(ActiveBurst {
                        remaining: self.core.cfg.costs.send_cpu,
                        kind: BurstKind::McastSend { group, payload },
                    });
                }
                None => {
                    // Queued packets are delivered before the wake token:
                    // a select()-style loop sees ready sockets and the
                    // expired timer together, and starving the socket
                    // buffer behind a periodic timer would let a
                    // sleep-loop service buffer input forever.
                    if !self.core.threads.get(tid).inbox.is_empty() {
                        self.core.threads.get_mut(tid).burst = Some(ActiveBurst {
                            remaining: self.core.cfg.costs.recv_syscall,
                            kind: BurstKind::Recv,
                        });
                        continue;
                    }
                    if let Some(token) = self.core.threads.get_mut(tid).pending_wake.take() {
                        let owner = self.core.threads.get(tid).owner;
                        self.call_service(ctx, owner, |svc, os| svc.on_wake(tid, token, os));
                        continue;
                    }
                    return Ensure::Blocked;
                }
            }
        }
        panic!(
            "thread {:?} on {} spun 1024 callback iterations without queueing work",
            tid, self.core.node
        );
    }

    /// Start (or continue) executing `tid`'s burst on `cpu` with
    /// `quantum_left` budget. Precondition: the thread has a burst.
    fn continue_run(
        &mut self,
        now: SimTime,
        ctx: &mut Ctx<'_, Msg>,
        cpu: u8,
        tid: ThreadId,
        quantum_left: SimDuration,
    ) {
        let remaining = self
            .core
            .threads
            .get(tid)
            .burst
            .as_ref()
            .expect("continue_run: no burst")
            .remaining;
        let seg_len = quantum_left.min(remaining);
        let gen = self.core.threads.get_mut(tid).bump_gen();
        self.core.threads.get_mut(tid).state = ThreadState::Running(cpu);
        self.core.cpus[cpu as usize] = CpuRt::Running {
            tid,
            gen,
            seg_start: now,
            seg_len,
            quantum_left,
        };
        self.core.cpu_acct[cpu as usize].set_busy(now, true);
        let me = self.core.self_actor;
        ctx.send_in(seg_len, me, Msg::Node(NodeMsg::QuantumEnd { cpu, gen }));
    }

    fn on_segment_end(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>, cpu: u8, gen: u64) {
        let (tid, seg_len, quantum_left) = match self.core.cpus[cpu as usize] {
            CpuRt::Running {
                tid,
                gen: g,
                seg_len,
                quantum_left,
                ..
            } if g == gen && self.core.threads.get(tid).gen == gen => (tid, seg_len, quantum_left),
            _ => return, // stale event (preemption or reconfiguration)
        };
        self.core.cpus[cpu as usize] = CpuRt::Idle;
        self.core.cpu_acct[cpu as usize].set_busy(now, false);

        let q_left = quantum_left.saturating_sub(seg_len);
        let burst_done = {
            let t = self.core.threads.get_mut(tid);
            let b = t.burst.as_mut().expect("running thread lost its burst");
            b.remaining = b.remaining.saturating_sub(seg_len);
            b.remaining == SimDuration::ZERO
        };

        if burst_done {
            let burst = self
                .core
                .threads
                .get_mut(tid)
                .burst
                .take()
                .expect("checked");
            self.complete_burst(now, ctx, tid, burst.kind);
            // The completion callback may have killed the thread.
            if self.core.threads.get(tid).is_alive() {
                if q_left > SimDuration::ZERO {
                    match self.ensure_burst(now, ctx, tid) {
                        Ensure::HasBurst => {
                            self.continue_run(now, ctx, cpu, tid, q_left);
                            return;
                        }
                        Ensure::Slept => {}
                        Ensure::Blocked => {
                            self.core.touch_loadavg(now);
                            self.core.threads.get_mut(tid).state = ThreadState::Idle;
                        }
                    }
                } else {
                    self.requeue_or_block(now, tid);
                }
            }
        } else {
            // Quantum exhausted mid-burst: rotate to the queue tail.
            self.core.threads.get_mut(tid).state = ThreadState::Runnable;
            self.core.run_queue.push_back(tid);
        }
        self.balance(now, ctx);
    }

    fn requeue_or_block(&mut self, now: SimTime, tid: ThreadId) {
        if self.core.threads.get(tid).has_work() {
            self.core.threads.get_mut(tid).state = ThreadState::Runnable;
            self.core.run_queue.push_back(tid);
        } else {
            self.core.touch_loadavg(now);
            self.core.threads.get_mut(tid).state = ThreadState::Idle;
        }
    }

    fn complete_burst(
        &mut self,
        now: SimTime,
        ctx: &mut Ctx<'_, Msg>,
        tid: ThreadId,
        kind: BurstKind,
    ) {
        match kind {
            BurstKind::Work { token: Some(token) } => {
                let owner = self.core.threads.get(tid).owner;
                self.call_service(ctx, owner, |svc, os| svc.on_burst_done(tid, token, os));
            }
            BurstKind::Work { token: None } => {}
            BurstKind::Recv => {
                let pkt = self.core.threads.get_mut(tid).inbox.pop_front();
                if let Some((conn, size, payload)) = pkt {
                    let owner = self.core.threads.get(tid).owner;
                    self.call_service(ctx, owner, |svc, os| {
                        svc.on_packet(Some(tid), conn, size, payload, os)
                    });
                }
            }
            BurstKind::Send { conn, payload } => {
                let size = payload.wire_size();
                self.core.stats.net.add(now, size as u64);
                let src = self.core.node;
                let fabric = self.core.fabric;
                ctx.send_now(
                    fabric,
                    Msg::Net(NetMsg::SocketSend {
                        src,
                        conn,
                        size,
                        payload,
                    }),
                );
            }
            BurstKind::McastSend { group, payload } => {
                let size = payload.wire_size();
                self.core.stats.net.add(now, size as u64);
                let src = self.core.node;
                let fabric = self.core.fabric;
                ctx.send_now(
                    fabric,
                    Msg::Net(NetMsg::McastSend {
                        src,
                        group,
                        size,
                        payload,
                    }),
                );
            }
        }
    }

    // ---- interrupts ---------------------------------------------------------

    /// A network event needs interrupt service on some CPU.
    fn raise_irq(
        &mut self,
        now: SimTime,
        ctx: &mut Ctx<'_, Msg>,
        delivery: Option<PendingDelivery>,
        hw: u32,
        soft: u32,
    ) {
        let cpu = self.core.pick_irq_cpu() as usize;
        {
            let irq = &mut self.core.irq[cpu];
            irq.pending_hw += hw;
            irq.pending_soft += soft;
            if let Some(d) = delivery {
                irq.queued.push(d);
            }
        }
        match self.core.cpus[cpu] {
            CpuRt::Idle => {
                self.start_irq_batch(now, ctx, cpu as u8, None);
            }
            CpuRt::Running { .. } => {
                self.preempt_into_irq(now, ctx, cpu as u8);
            }
            CpuRt::Irq { .. } => {
                // Current batch in progress; arrivals queue for the next.
            }
        }
    }

    fn preempt_into_irq(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>, cpu: u8) {
        let (tid, seg_start, quantum_left) = match self.core.cpus[cpu as usize] {
            CpuRt::Running {
                tid,
                seg_start,
                quantum_left,
                ..
            } => (tid, seg_start, quantum_left),
            _ => unreachable!("preempt on non-running cpu"),
        };
        let elapsed = now.since(seg_start);
        {
            let t = self.core.threads.get_mut(tid);
            if let Some(b) = t.burst.as_mut() {
                b.remaining = b.remaining.saturating_sub(elapsed);
            }
            t.bump_gen(); // invalidates the pending QuantumEnd
            t.state = ThreadState::Preempted(cpu);
        }
        let q_left = quantum_left.saturating_sub(elapsed);
        self.start_irq_batch(now, ctx, cpu, Some((tid, q_left)));
    }

    /// Begin servicing everything pending on `cpu`. `resume` carries a
    /// preempted thread to continue afterwards.
    fn start_irq_batch(
        &mut self,
        now: SimTime,
        ctx: &mut Ctx<'_, Msg>,
        cpu: u8,
        resume: Option<(ThreadId, SimDuration)>,
    ) {
        let (hw, soft) = self.core.irq[cpu as usize].begin_batch();
        if hw == 0 && soft == 0 {
            self.finish_irq_mode(now, ctx, cpu, resume);
            return;
        }
        let cost = SimDuration(
            self.core.cfg.costs.hw_irq_cost.nanos() * hw as u64
                + self.core.cfg.costs.softirq_cost.nanos() * soft as u64,
        );
        let gen = self.core.irq[cpu as usize].bump_gen();
        self.core.cpus[cpu as usize] = CpuRt::Irq { gen, resume };
        self.core.cpu_acct[cpu as usize].set_busy(now, true);
        let me = self.core.self_actor;
        ctx.send_in(cost, me, Msg::Node(NodeMsg::IrqBatchDone { cpu, gen }));
    }

    fn on_irq_batch_done(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>, cpu: u8, gen: u64) {
        let resume = match self.core.cpus[cpu as usize] {
            CpuRt::Irq { gen: g, resume } if g == gen => resume,
            _ => return, // stale
        };
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        self.core.irq[cpu as usize].finish_batch_into(&mut deliveries);
        for d in deliveries.drain(..) {
            self.route_delivery(now, ctx, d);
        }
        self.delivery_scratch = deliveries;
        // More interrupts arrived during the batch?
        if self.core.irq[cpu as usize].visible_pending() > 0 {
            self.start_irq_batch(now, ctx, cpu, resume);
        } else {
            self.finish_irq_mode(now, ctx, cpu, resume);
        }
    }

    /// Leave interrupt mode on `cpu`: resume the preempted thread or go
    /// idle and let the balancer fill the CPU.
    fn finish_irq_mode(
        &mut self,
        now: SimTime,
        ctx: &mut Ctx<'_, Msg>,
        cpu: u8,
        resume: Option<(ThreadId, SimDuration)>,
    ) {
        self.core.cpus[cpu as usize] = CpuRt::Idle;
        self.core.cpu_acct[cpu as usize].set_busy(now, false);
        if let Some((tid, q_left)) = resume {
            let alive = self.core.threads.get(tid).is_alive();
            if alive && self.core.threads.get(tid).burst.is_some() && q_left > SimDuration::ZERO {
                self.continue_run(now, ctx, cpu, tid, q_left);
                return;
            }
            if alive {
                // Burst finished exactly at preemption or quantum drained:
                // back through the normal path.
                self.requeue_or_block(now, tid);
            }
        }
        self.balance(now, ctx);
    }

    fn route_delivery(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>, d: PendingDelivery) {
        let (conn, size, payload) = match d {
            PendingDelivery::Mcast { group, payload, .. } => {
                if let Some(&slot) = self.core.mcast_subs.get(&group) {
                    self.call_service(ctx, slot, |svc, os| svc.on_mcast(group, payload, os));
                } else {
                    ctx.recorder().counter("os/mcast_dropped").inc();
                }
                return;
            }
            PendingDelivery::Packet {
                conn,
                size,
                payload,
                ..
            } => (conn, size, payload),
        };
        match self.core.listeners.get(&conn).copied() {
            Some((slot, ListenMode::Thread(tid))) => {
                if self.core.threads.get(tid).is_alive() {
                    self.core
                        .threads
                        .get_mut(tid)
                        .inbox
                        .push_back((conn, size, payload));
                    self.core.make_runnable(now, tid, true);
                } else {
                    ctx.recorder().counter("os/pkt_dropped_dead_thread").inc();
                }
                let _ = slot;
            }
            Some((slot, ListenMode::Direct)) => {
                self.call_service(ctx, slot, |svc, os| {
                    svc.on_packet(None, conn, size, payload, os)
                });
            }
            None => {
                ctx.recorder().counter("os/pkt_dropped_no_listener").inc();
            }
        }
    }

    // ---- NIC: RDMA target engine ---------------------------------------------

    /// Serve a one-sided read entirely in the NIC — **zero host CPU**.
    /// This is the crux of the paper: the value returned is materialized at
    /// the instant of access, regardless of what the host CPUs are doing.
    fn serve_rdma_read(
        &mut self,
        now: SimTime,
        ctx: &mut Ctx<'_, Msg>,
        initiator: NodeId,
        region: RegionId,
        req_id: ReqId,
        posted: PostedKey,
    ) {
        let result = match self.core.region(region).copied() {
            // A registration from a previous boot generation is dead: the
            // NIC refuses it distinctly from a plain denial so the
            // initiator knows to re-learn the region (epoch fencing).
            Some(_) if !self.core.region_current(region) => RdmaResult::RegionInvalidated,
            Some(r) => match r.kind {
                RegionKind::UserSnapshot => match self.core.read_user_snapshot(region) {
                    Some(snap) => RdmaResult::ReadOk {
                        data: RegionData::Snapshot(snap),
                        fence: self.core.region_fence(region),
                    },
                    None => RdmaResult::ReadOk {
                        data: RegionData::Raw(0),
                        fence: self.core.region_fence(region),
                    },
                },
                RegionKind::KernelLoad { detail } => {
                    let snap = self.core.snapshot(now, detail);
                    RdmaResult::ReadOk {
                        data: RegionData::Snapshot(snap),
                        fence: self.core.bump_region_seq(region),
                    }
                }
                // Atomic banks are accessed only through atomic verbs
                // (fetch is a failing CAS); the NIC refuses plain reads.
                RegionKind::AtomicWords { .. } => RdmaResult::AccessDenied,
            },
            None => RdmaResult::AccessDenied,
        };
        // Only successful region reads open a race window: denied or
        // fenced-off requests return no region data, so nothing can tear.
        if matches!(result, RdmaResult::ReadOk { .. }) {
            self.core
                .note_read_arrive(initiator, req_id, region, posted);
        }
        self.core.stats.net.add(now, 256);
        let target = self.core.node;
        let fabric = self.core.fabric;
        ctx.send_now(
            fabric,
            Msg::Net(NetMsg::RdmaReadData {
                initiator,
                req_id,
                result,
                target,
                region,
                posted,
            }),
        );
    }

    fn serve_rdma_write(
        &mut self,
        now: SimTime,
        ctx: &mut Ctx<'_, Msg>,
        initiator: NodeId,
        region: RegionId,
        req_id: ReqId,
        data: RegionData,
    ) {
        let result = match self.core.region(region).copied() {
            Some(_) if !self.core.region_current(region) => RdmaResult::RegionInvalidated,
            // Atomic banks reject plain writes: only the atomic verbs
            // touch them, keeping every mutation single-word.
            Some(r) if matches!(r.kind, RegionKind::AtomicWords { .. }) => RdmaResult::AccessDenied,
            Some(r) if r.writable => {
                if let RegionData::Snapshot(snap) = data {
                    self.core.write_user_snapshot(region, snap, now);
                }
                RdmaResult::WriteOk
            }
            // Read-only or unknown region: the NIC rejects the write
            // (the paper's §6 security property).
            _ => RdmaResult::AccessDenied,
        };
        self.core.stats.net.add(now, 256);
        let target = self.core.node;
        let fabric = self.core.fabric;
        ctx.send_now(
            fabric,
            Msg::Net(NetMsg::RdmaWriteAck {
                initiator,
                req_id,
                result,
                target,
            }),
        );
    }

    /// Serve a one-sided compare-and-swap in the NIC — zero host CPU,
    /// like every other one-sided verb. The word either swaps or it
    /// does not; the prior value returns to the initiator either way
    /// (which is also how pure-CAS clients read: a CAS whose `expected`
    /// can never match is a fetch).
    // lint: allow-attr — the NIC serve path threads the full wire
    // five-tuple plus fault context; bundling them into a struct for one
    // internal call would just move the argument list.
    #[allow(clippy::too_many_arguments)]
    fn serve_rdma_cas(
        &mut self,
        now: SimTime,
        ctx: &mut Ctx<'_, Msg>,
        initiator: NodeId,
        region: RegionId,
        req_id: ReqId,
        word: u32,
        expected: u64,
        swap: u64,
    ) {
        let result = match self.core.region(region).copied() {
            Some(_) if !self.core.region_current(region) => RdmaResult::RegionInvalidated,
            Some(r) if r.writable && matches!(r.kind, RegionKind::AtomicWords { .. }) => {
                match self.core.atomic_cas(region, word, expected, swap) {
                    Some(prior) => RdmaResult::CasOk { prior },
                    None => RdmaResult::AccessDenied,
                }
            }
            _ => RdmaResult::AccessDenied,
        };
        // An atomic op moves one word each way; far lighter on the NIC's
        // DMA engines than a snapshot read.
        self.core.stats.net.add(now, 64);
        let target = self.core.node;
        let fabric = self.core.fabric;
        ctx.send_now(
            fabric,
            Msg::Net(NetMsg::RdmaWriteAck {
                initiator,
                req_id,
                result,
                target,
            }),
        );
    }

    fn on_rdma_completion(&mut self, ctx: &mut Ctx<'_, Msg>, req_id: ReqId, result: RdmaResult) {
        if let Some((slot, token)) = self.core.take_rdma_pending(req_id.0) {
            self.call_service(ctx, slot, |svc, os| svc.on_rdma_complete(token, result, os));
        }
    }

    fn record_ground_truth(&mut self, now: SimTime, ctx: &mut Ctx<'_, Msg>, period_nanos: u64) {
        let snap = self.core.snapshot(now, true);
        let node = self.core.node;
        let ncpus = self.core.ncpus();
        let r = ctx.recorder();
        let ids = self.gt_series.get_or_insert_with(|| GtSeries {
            nthreads: r.series_id(&format!("gt/{node}/nthreads")),
            cpu_util: r.series_id(&format!("gt/{node}/cpu_util")),
            run_queue: r.series_id(&format!("gt/{node}/run_queue")),
            loadavg1: r.series_id(&format!("gt/{node}/loadavg1")),
            pending_irqs: r.series_id(&format!("gt/{node}/pending_irqs")),
            per_cpu_pending: (0..ncpus)
                .map(|cpu| r.series_id(&format!("gt/{node}/pending_irqs_cpu{cpu}")))
                .collect(),
        });
        r.series_at(ids.nthreads).push(now, snap.nthreads as f64);
        r.series_at(ids.cpu_util).push(now, snap.cpu_util);
        r.series_at(ids.run_queue).push(now, snap.run_queue as f64);
        r.series_at(ids.loadavg1).push(now, snap.loadavg1);
        r.series_at(ids.pending_irqs)
            .push(now, snap.pending_irqs_total() as f64);
        for (&id, &p) in ids.per_cpu_pending.iter().zip(snap.pending_irqs.iter()) {
            r.series_at(id).push(now, p as f64);
        }
        let me = self.core.self_actor;
        ctx.send_in(
            SimDuration(period_nanos),
            me,
            Msg::Node(NodeMsg::GroundTruthTick { period_nanos }),
        );
    }
}

impl Actor<Msg> for NodeActor {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Node(msg) = msg else {
            debug_assert!(false, "node actor received a fabric message");
            return;
        };
        // Stamp the engine key of this event so every host write the
        // handler performs is logged against it in the race detector.
        self.core.set_event_seq(ctx.event_seq);
        match msg {
            NodeMsg::Boot => {
                for i in 0..self.services.len() {
                    self.call_service(ctx, ServiceSlot(i as u16), |svc, os| svc.on_start(os));
                }
            }
            NodeMsg::Restart => {
                self.core.restart(now);
                for i in 0..self.services.len() {
                    self.call_service(ctx, ServiceSlot(i as u16), |svc, os| svc.on_restart(os));
                }
            }
            NodeMsg::QuantumEnd { cpu, gen } => self.on_segment_end(now, ctx, cpu, gen),
            NodeMsg::IrqBatchDone { cpu, gen } => self.on_irq_batch_done(now, ctx, cpu, gen),
            NodeMsg::ThreadWake { thread, gen } => {
                let t = self.core.threads.get(thread);
                if t.is_alive() && t.gen == gen && t.state == ThreadState::Sleeping {
                    self.core.make_runnable(now, thread, false);
                }
            }
            NodeMsg::ServiceTimer { service, token } => {
                self.call_service(ctx, service, |svc, os| svc.on_timer(token, os));
            }
            NodeMsg::PacketArrive {
                conn,
                dst_service,
                size,
                payload,
            } => {
                self.core.stats.net.add(now, size as u64);
                self.raise_irq(
                    now,
                    ctx,
                    Some(PendingDelivery::Packet {
                        conn,
                        dst_service,
                        size,
                        payload,
                    }),
                    1,
                    1,
                );
            }
            NodeMsg::McastDeliver {
                group,
                size,
                payload,
            } => {
                self.core.stats.net.add(now, size as u64);
                self.raise_irq(
                    now,
                    ctx,
                    Some(PendingDelivery::Mcast {
                        group,
                        size,
                        payload,
                    }),
                    1,
                    1,
                );
            }
            NodeMsg::RdmaReadArrive {
                initiator,
                region,
                req_id,
                posted,
            } => self.serve_rdma_read(now, ctx, initiator, region, req_id, posted),
            NodeMsg::RdmaWriteArrive {
                initiator,
                region,
                req_id,
                data,
            } => self.serve_rdma_write(now, ctx, initiator, region, req_id, data),
            NodeMsg::RdmaCasArrive {
                initiator,
                region,
                req_id,
                word,
                expected,
                swap,
            } => self.serve_rdma_cas(now, ctx, initiator, region, req_id, word, expected, swap),
            NodeMsg::RdmaCompletion { req_id, result } => {
                self.on_rdma_completion(ctx, req_id, result)
            }
            NodeMsg::RdmaLost { req_id } => self.core.lose_rdma_pending(req_id.0),
            NodeMsg::GroundTruthTick { period_nanos } => {
                self.record_ground_truth(now, ctx, period_nanos)
            }
        }
        self.balance(now, ctx);
    }
}

/// Convenience: engine id pair used when wiring nodes to the fabric.
pub fn node_actor_ids(first_node: ActorId, count: usize) -> Vec<ActorId> {
    (0..count as u32)
        .map(|i| ActorId(first_node.0 + i))
        .collect()
}
