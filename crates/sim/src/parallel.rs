//! Conservative parallel discrete-event execution (bounded-lag PDES)
//! with asynchronous safe-time watermarks.
//!
//! [`run_sharded`] partitions an [`Engine`]'s actors across worker
//! shards — each owning its own timing-wheel queue — and lets every
//! shard advance *independently* as far as its neighbors' published
//! watermarks allow. There is no global barrier: shard `s` publishes a
//! monotonically increasing watermark `W_s` (a lower bound on the time
//! of any event it will ever process again), and processes its local
//! events strictly below `min over in-neighbors p of (W_p + L)`, where
//! the *lookahead* `L` is a static lower bound on every cross-shard
//! latency. Cross-shard events travel through per-`(src, dst)` mailbox
//! channels with their engine `(time, seq)` keys already assigned and
//! are flushed once per window as a batch (buffers recycle between the
//! two endpoints, so steady state allocates nothing).
//!
//! ## Determinism argument
//!
//! A parallel run is bitwise identical to a sequential run because the
//! two assign identical keys to identical events, and key order is the
//! only order either engine honors:
//!
//! 1. **Keys are shard-invariant.** Sequence keys are `lane << 40 |
//!    counter` (see `engine`), and each lane is advanced by exactly one
//!    actor's deterministic handling stream. Since every actor processes
//!    the same events in the same order whichever shard hosts it, every
//!    staged event gets the same key in any execution.
//! 2. **No event is processed early.** Shard `s` only processes times
//!    `< min_p(W_p + L)` *after* draining its inbound channels. A
//!    watermark read of `W_p = X` synchronizes with `p`'s publish, so
//!    every batch `p` deposited before publishing `X` is visible to the
//!    drain; mail `p` deposits later comes from events at times `≥ X`
//!    and so arrives with keys `≥ X + L` — at or beyond everything `s`
//!    processes under that read. (Replicated actors — the fabric — are
//!    the reason node→fabric sends are exempt: those are same-instant
//!    sends to a local replica.)
//! 3. **Progress.** Suppose every shard is stuck: each `W_s` equals
//!    `min_p(W_p) + L`. The globally minimal watermark would then have
//!    to exceed itself by `L > 0` — a contradiction — so some shard can
//!    always either raise its watermark or process its head event.
//!
//! The caller supplies per-shard replicas of actors that logically exist
//! on every shard and merges their state afterwards; see
//! `ShardPlan::REPLICATED`. For the fabric that means routing tables,
//! additive counters, and per-node slots (rate-limit buckets, QP-cache
//! pressure) that only the node's own shard touches, so the merge must
//! copy each slot back from that shard's replica rather than add.
//!
//! ## Execution modes
//!
//! * [`run_sharded`] — picks the best mode for the host: real worker
//!   threads when more than one core is available, otherwise the
//!   cooperative driver (one core cannot overlap shards; preemptive
//!   interleaving would only add context switches to the identical
//!   protocol).
//! * [`run_sharded_threaded`] — always spawns one OS thread per shard.
//! * [`run_sharded_cooperative`] — steps shards one at a time on the
//!   calling thread in an arbitrary caller-chosen order; any order
//!   yields the bitwise-identical result (the equivalence proptests
//!   drive this with random schedules). Being single-threaded, it can
//!   observe a globally quiescent instant — a watermark-only step with
//!   every mailbox empty — and leap all watermarks to the minimum
//!   local queue head at once, instead of crawling across idle gaps in
//!   lookahead-sized hops.
//!
//! Windows ignore `Ctx::request_stop` and event budgets — bounded-lag
//! windows must drain deterministically. Worlds driven through the
//! parallel path use plain horizons (all shipped scenarios do).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::engine::{Actor, ActorId, Engine};
use crate::queue::Entry;
use crate::time::{SimDuration, SimTime};

/// Which shard owns each actor slot, plus the static channel graph the
/// watermark protocol blocks on.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `shard_of[actor.index()]`: owning shard, or [`ShardPlan::REPLICATED`].
    pub shard_of: Vec<u16>,
    /// Number of shards (worker threads).
    pub shards: usize,
    /// Directed shard→shard channels: `channels[s]` lists the shards
    /// that may send cross-shard events *to* shard `s` (its
    /// in-neighbors), sorted ascending. `None` means fully connected —
    /// always safe, at the cost of blocking on every shard's watermark.
    /// A declared graph is enforced at flush time: mail crossing an
    /// undeclared channel panics instead of silently racing the
    /// receiver's clock.
    pub channels: Option<Vec<Vec<u16>>>,
}

impl ShardPlan {
    /// Marks an actor that exists once per shard instead of being owned.
    pub const REPLICATED: u16 = u16::MAX;

    /// A plan with a fully-connected channel graph.
    pub fn new(shard_of: Vec<u16>, shards: usize) -> Self {
        ShardPlan {
            shard_of,
            shards,
            channels: None,
        }
    }

    /// Derive the shard channel graph from actor-level communication
    /// edges (pairs of actor indices that may exchange events, in either
    /// direction). Edges touching replicated or same-shard actors are
    /// local and create no channel. The edge list must cover every pair
    /// that can actually exchange events; mail outside the derived graph
    /// panics the run.
    pub fn derive_channels(&mut self, edges: &[(usize, usize)]) {
        let s = self.shards;
        let mut adj = vec![false; s * s];
        for &(a, b) in edges {
            let (Some(&sa), Some(&sb)) = (self.shard_of.get(a), self.shard_of.get(b)) else {
                continue;
            };
            if sa == Self::REPLICATED || sb == Self::REPLICATED || sa == sb {
                continue;
            }
            // Connections carry traffic both ways (requests one way,
            // completions the other), so channels are symmetric.
            adj[sa as usize * s + sb as usize] = true;
            adj[sb as usize * s + sa as usize] = true;
        }
        self.channels = Some(
            (0..s)
                .map(|dst| {
                    (0..s)
                        .filter(|&src| src != dst && adj[dst * s + src])
                        .map(|src| src as u16)
                        .collect()
                })
                .collect(),
        );
    }

    /// Greedy communication-affinity partition: split `n` items into
    /// `shards` balanced groups, keeping heavily-chattering items (ring
    /// or rack neighbors) together so most traffic never crosses a
    /// mailbox. `edges` are undirected `(a, b, weight)` chatter edges
    /// over item indices. Deterministic: ties break toward the heaviest
    /// total chatter, then the lowest index.
    ///
    /// Each shard is seeded with the most-connected unassigned item and
    /// grown by strongest attraction to the members chosen so far, up to
    /// its capacity share; isolated items fill remaining capacity in
    /// index order.
    pub fn affinity_groups(n: usize, shards: usize, edges: &[(usize, usize, u64)]) -> Vec<u16> {
        assert!(shards <= u16::MAX as usize, "too many shards");
        let mut out = vec![0u16; n];
        if shards <= 1 || n == 0 {
            return out;
        }
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        let mut degree = vec![0u64; n];
        for &(a, b, w) in edges {
            if a >= n || b >= n || a == b {
                continue;
            }
            adj[a].push((b as u32, w));
            adj[b].push((a as u32, w));
            degree[a] += w;
            degree[b] += w;
        }
        let mut assigned = vec![false; n];
        let mut attraction = vec![0u64; n];
        let mut remaining = n;
        for s in 0..shards {
            // Even split of what's left, so late shards never end up empty.
            let cap = remaining.div_ceil(shards - s);
            for a in attraction.iter_mut() {
                *a = 0;
            }
            for _ in 0..cap {
                let mut pick = None;
                let mut best = (0u64, 0u64, 0usize);
                for (i, &done) in assigned.iter().enumerate() {
                    if done {
                        continue;
                    }
                    let key = (attraction[i], degree[i], usize::MAX - i);
                    if pick.is_none() || key > best {
                        best = key;
                        pick = Some(i);
                    }
                }
                let Some(i) = pick else { break };
                assigned[i] = true;
                out[i] = s as u16;
                remaining -= 1;
                for &(nb, w) in &adj[i] {
                    if !assigned[nb as usize] {
                        attraction[nb as usize] += w;
                    }
                }
            }
        }
        out
    }
}

/// A replicated actor's per-shard instances, handed into and back out of
/// [`run_sharded`] (the caller splits and re-merges their state).
pub struct ReplicaSet<M> {
    pub id: ActorId,
    /// One replica per shard, indexed by shard.
    pub replicas: Vec<Box<dyn Actor<M>>>,
}

/// One directed `(src, dst)` mailbox channel. Senders deposit whole
/// per-window batches; receivers drain them and hand the emptied buffers
/// back through `spare`, so steady state recycles the same few `Vec`s
/// forever instead of allocating per window (let alone per event).
struct MailChannel<M> {
    /// Cheap "anything deposited?" probe so idle polls skip the lock.
    has_mail: AtomicBool,
    slot: Mutex<MailSlot<M>>,
}

struct MailSlot<M> {
    /// Deposited batches awaiting the receiver.
    full: Vec<Vec<Entry<M>>>,
    /// Drained buffers awaiting reuse by the sender.
    spare: Vec<Vec<Entry<M>>>,
}

impl<M> MailChannel<M> {
    fn fresh() -> Self {
        MailChannel {
            has_mail: AtomicBool::new(false),
            slot: Mutex::new(MailSlot {
                full: Vec::new(),
                spare: Vec::new(),
            }),
        }
    }
}

/// State shared by every shard of one parallel run.
struct Shared<M> {
    /// `watermarks[s]`: shard `s`'s published safe-time floor. Monotone.
    watermarks: Vec<AtomicU64>,
    /// `chans[dst][src]`: the directed mailbox channel src→dst.
    chans: Vec<Vec<MailChannel<M>>>,
    /// `in_nbrs[s]`: shards whose watermark bounds `s`'s window.
    in_nbrs: Vec<Vec<usize>>,
    /// `out_ok[src * shards + dst]`: channel declared by the plan.
    out_ok: Vec<bool>,
    lookahead: u64,
    /// Exclusive event-time bound (`horizon + 1`).
    bound: u64,
}

/// Per-shard worker bookkeeping (thread-private).
struct ShardWorker<M> {
    s: usize,
    /// Per-destination staging buffers for the current window's flush.
    outbox: Vec<Vec<Entry<M>>>,
    /// Last published watermark (avoids redundant stores).
    watermark: u64,
    done: bool,
}

/// One protocol step for shard `s`: read neighbor watermarks, drain
/// inbound mail, process the safe window, flush outbound batches, and
/// republish the watermark. Returns `(advanced, worked)`: `advanced`
/// is true if anything changed at all (including a watermark-only
/// publish), `worked` only if mail was drained or events ran — the
/// distinction lets the cooperative driver spot pure watermark crawls
/// across idle gaps and leap them (see `run_sharded_cooperative`).
fn step<M: Send + 'static>(
    se: &mut Engine<M>,
    w: &mut ShardWorker<M>,
    sh: &Shared<M>,
    shard_of: &[u16],
) -> (bool, bool) {
    if w.done {
        return (false, false);
    }
    let mut worked = false;
    // Read watermarks *before* draining mail: the Acquire load
    // synchronizes with the neighbor's Release publish, so every batch
    // deposited before the value we read is visible to the drain below,
    // and later deposits carry keys `>= read value + L`.
    let mut safe_in = u64::MAX;
    for &p in &sh.in_nbrs[w.s] {
        let wp = sh.watermarks[p].load(Ordering::Acquire);
        safe_in = safe_in.min(wp.saturating_add(sh.lookahead));
    }
    for &p in &sh.in_nbrs[w.s] {
        let ch = &sh.chans[w.s][p];
        if !ch.has_mail.load(Ordering::Relaxed) || !ch.has_mail.swap(false, Ordering::Acquire) {
            continue;
        }
        let mut slot = ch.slot.lock().expect("mail channel poisoned");
        while let Some(mut batch) = slot.full.pop() {
            for entry in batch.drain(..) {
                se.inject_entry(entry);
            }
            slot.spare.push(batch);
            worked = true;
        }
    }
    let safe = safe_in.min(sh.bound);
    let head = se.peek_head().map(|(t, _)| t.0).unwrap_or(u64::MAX);
    if head < safe {
        se.run_window(SimTime(safe));
        worked = true;
        // Flush cross-shard output as one batch per (src, dst, window).
        for entry in se.take_foreign() {
            let dst = shard_of[entry.dst.index()] as usize;
            w.outbox[dst].push(entry);
        }
        let shards = sh.in_nbrs.len();
        for dst in 0..shards {
            if w.outbox[dst].is_empty() {
                continue;
            }
            assert!(
                sh.out_ok[w.s * shards + dst],
                "cross-shard event outside the declared channel graph \
                 (shard {} -> shard {dst}); the plan's channel edges must \
                 cover every communicating pair",
                w.s
            );
            let ch = &sh.chans[dst][w.s];
            let mut slot = ch.slot.lock().expect("mail channel poisoned");
            let replacement = slot.spare.pop().unwrap_or_default();
            let batch = std::mem::replace(&mut w.outbox[dst], replacement);
            slot.full.push(batch);
            drop(slot);
            ch.has_mail.store(true, Ordering::Release);
        }
    }
    // Republish: the floor of everything this shard can still process is
    // its local head min'd with the bound on future inbound mail. Both
    // components are monotone under the reasoning above; the max() keeps
    // the promise monotone even across head fluctuations from new mail.
    let head_after = se.peek_head().map(|(t, _)| t.0).unwrap_or(u64::MAX);
    let wm = safe_in.min(head_after).max(w.watermark);
    let mut advanced = worked;
    if wm > w.watermark {
        w.watermark = wm;
        sh.watermarks[w.s].store(wm, Ordering::Release);
        advanced = true;
    }
    if wm >= sh.bound {
        w.done = true;
    }
    (advanced, worked)
}

/// Everything [`run_sharded`]'s phases share, independent of how the
/// shard loop is driven.
struct SplitRun<M> {
    shard_engines: Vec<Engine<M>>,
    replicated_originals: Vec<(ActorId, Box<dyn Actor<M>>)>,
    base_recorder: crate::metrics::Recorder,
    shared: Shared<M>,
    replicas: Vec<ReplicaSet<M>>,
}

fn validate<M: 'static>(eng: &Engine<M>, lookahead: SimDuration, plan: &ShardPlan) {
    assert!(plan.shards >= 2, "run_sharded needs at least two shards");
    assert!(
        lookahead > SimDuration::ZERO,
        "zero lookahead cannot overlap shards; run sequentially instead"
    );
    assert_eq!(plan.shard_of.len(), eng.actor_count());
    if let Some(channels) = &plan.channels {
        assert_eq!(channels.len(), plan.shards, "one channel row per shard");
    }
}

/// Phases 0 and 1: drain the current instant sequentially (so every
/// lazily-interned metric id exists before the recorders fork), then
/// split the engine into per-shard engines and build the shared state.
fn split_shards<M: Send + 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    mut replicas: Vec<ReplicaSet<M>>,
) -> SplitRun<M> {
    let shards = plan.shards;
    // Events can land exactly at the horizon; the exclusive bound is one
    // past it, matching run_until's inclusive horizon.
    let bound = SimTime(horizon.0.saturating_add(1));
    let start = eng.now();
    eng.run_window(SimTime(start.0 + 1).min(bound));

    let base_recorder = eng.recorder().clone();
    let kind = eng.queue_kind();
    let mut shard_engines: Vec<Engine<M>> = (0..shards)
        .map(|s| {
            let mut se: Engine<M> = Engine::new();
            se.set_queue_kind(kind);
            for _ in 0..eng.actor_count() {
                se.reserve_actor();
            }
            se.set_lane_counters(eng.lane_counters().to_vec());
            se.set_recorder(base_recorder.clone());
            se.set_now(eng.now());
            let mask: Vec<bool> = plan
                .shard_of
                .iter()
                .map(|&o| o == s as u16 || o == ShardPlan::REPLICATED)
                .collect();
            se.set_local_mask(Some(mask));
            se
        })
        .collect();
    // Originals of replicated actors sit out the run (their per-shard
    // replicas run instead) and return to their slots afterwards, so the
    // main engine stays whole for sequential use before and after.
    let mut replicated_originals: Vec<(ActorId, Box<dyn Actor<M>>)> = Vec::new();
    for (idx, &owner) in plan.shard_of.iter().enumerate() {
        let id = ActorId(idx as u32);
        if owner == ShardPlan::REPLICATED {
            for se in shard_engines.iter_mut() {
                se.mark_replicated(id);
            }
            if let Some(actor) = eng.take_actor(id) {
                replicated_originals.push((id, actor));
            }
        } else if let Some(actor) = eng.take_actor(id) {
            shard_engines[owner as usize].install(id, actor);
        }
    }
    for set in replicas.iter_mut() {
        assert_eq!(set.replicas.len(), shards, "one replica per shard");
        for (se, rep) in shard_engines.iter_mut().zip(set.replicas.drain(..)) {
            se.install(set.id, rep);
        }
    }
    while let Some(entry) = eng.pop_entry() {
        let owner = plan.shard_of[entry.dst.index()];
        assert!(
            owner != ShardPlan::REPLICATED,
            "event pending for a replicated actor at a window boundary \
             (replicated actors must only receive same-instant sends)"
        );
        shard_engines[owner as usize].inject_entry(entry);
    }

    // Shared protocol state. Watermarks start at the fork instant: a
    // valid floor, since phase 0 drained everything at or below it.
    let in_nbrs: Vec<Vec<usize>> = match &plan.channels {
        Some(channels) => channels
            .iter()
            .map(|row| row.iter().map(|&p| p as usize).collect())
            .collect(),
        None => (0..shards)
            .map(|s| (0..shards).filter(|&p| p != s).collect())
            .collect(),
    };
    let mut out_ok = vec![false; shards * shards];
    for (dst, row) in in_nbrs.iter().enumerate() {
        for &src in row {
            out_ok[src * shards + dst] = true;
        }
    }
    let shared = Shared {
        watermarks: (0..shards).map(|_| AtomicU64::new(eng.now().0)).collect(),
        chans: (0..shards)
            .map(|_| (0..shards).map(|_| MailChannel::fresh()).collect())
            .collect(),
        in_nbrs,
        out_ok,
        lookahead: lookahead.nanos(),
        bound: bound.0,
    };
    SplitRun {
        shard_engines,
        replicated_originals,
        base_recorder,
        shared,
        replicas,
    }
}

/// Phase 3 — rejoin. Actors move home, pending events re-merge (keys
/// intact), lanes take the elementwise max (each advanced by exactly
/// one shard), metrics fold in as deltas against the fork point.
fn rejoin<M: Send + 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    plan: &ShardPlan,
    run: SplitRun<M>,
) -> Vec<ReplicaSet<M>> {
    let SplitRun {
        shard_engines,
        replicated_originals,
        base_recorder,
        shared,
        replicas,
    } = run;
    let mut out = replicas;
    let mut events = 0u64;
    let mut last_event_time = eng.now();
    for (s, mut se) in shard_engines.into_iter().enumerate() {
        last_event_time = last_event_time.max(se.now());
        se.set_local_mask(None);
        assert_eq!(se.take_foreign().count(), 0, "undelivered foreign events");
        for (idx, &owner) in plan.shard_of.iter().enumerate() {
            let id = ActorId(idx as u32);
            if owner as usize == s {
                if let Some(actor) = se.take_actor(id) {
                    eng.install(id, actor);
                }
            }
        }
        for set in out.iter_mut() {
            set.replicas
                .push(se.take_actor(set.id).expect("replica vanished"));
        }
        while let Some(entry) = se.pop_entry() {
            eng.inject_entry(entry);
        }
        eng.merge_lane_counters(se.lane_counters());
        eng.recorder_mut()
            .merge_shard_deltas(&base_recorder, se.recorder());
        events += se.events_processed();
    }
    // Mail can legally outlive a receiver: a shard exits once no event
    // below the bound can reach it, so anything still in its channels is
    // strictly beyond the horizon and re-merges as pending work.
    for row in shared.chans {
        for ch in row {
            let slot = ch.slot.into_inner().expect("mail channel poisoned");
            for batch in slot.full {
                for entry in batch {
                    assert!(
                        entry.time > horizon,
                        "mail at or below the horizon left undelivered"
                    );
                    eng.inject_entry(entry);
                }
            }
        }
    }
    for (id, actor) in replicated_originals {
        eng.install(id, actor);
    }
    eng.add_events_processed(events);
    // Mirror run_until: the clock rests at the horizon if work remains
    // beyond it, else at the last processed event (queue drained).
    if eng.queue_len() > 0 {
        eng.set_now(horizon);
    } else {
        eng.set_now(last_event_time);
    }
    out
}

/// Run `eng` in parallel until `horizon` (inclusive), bitwise identically
/// to `eng.run_until(horizon)`. See the module docs for the protocol.
///
/// Picks the execution mode for the host: worker threads when more than
/// one core is available, otherwise the cooperative driver (identical
/// protocol, zero scheduler overhead).
///
/// `replicas` carries the per-shard instances of every actor the plan
/// marks [`ShardPlan::REPLICATED`]; the same sets (with whatever state
/// the window left in them) are returned for the caller to merge.
///
/// # Panics
/// Panics if `lookahead` is zero, `plan.shards < 2`, an event addressed
/// to a replicated actor is pending at the boundary, a cross-shard event
/// crosses a channel the plan does not declare, or a shard interns new
/// metric keys mid-window (see
/// [`Recorder::merge_shard_deltas`](crate::metrics::Recorder::merge_shard_deltas)).
pub fn run_sharded<M: Send + 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    replicas: Vec<ReplicaSet<M>>,
) -> Vec<ReplicaSet<M>> {
    // lint: thread-spawn — core-count probe choosing between the threaded
    // and cooperative drivers of the same bitwise-identical protocol.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores > 1 {
        run_sharded_threaded(eng, horizon, lookahead, plan, replicas)
    } else {
        let mut next = 0usize;
        run_sharded_cooperative(eng, horizon, lookahead, plan, replicas, move |_| {
            next = next.wrapping_add(1);
            next - 1
        })
    }
}

/// [`run_sharded`] on one OS thread per shard, regardless of core count.
pub fn run_sharded_threaded<M: Send + 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    replicas: Vec<ReplicaSet<M>>,
) -> Vec<ReplicaSet<M>> {
    validate(eng, lookahead, plan);
    let mut run = split_shards(eng, horizon, lookahead, plan, replicas);
    let shared = &run.shared;
    // lint: thread-spawn — the parallel executor itself: shards are
    // disjoint actor sets, cross-shard traffic flows only through the
    // keyed mailbox channels, and the watermark protocol above makes the
    // result bitwise identical to the sequential engine.
    std::thread::scope(|scope| {
        for (s, se) in run.shard_engines.iter_mut().enumerate() {
            let shard_of = &plan.shard_of;
            // lint: thread-spawn — see the scope justification above.
            scope.spawn(move || {
                let mut w = ShardWorker {
                    s,
                    outbox: (0..shared.in_nbrs.len()).map(|_| Vec::new()).collect(),
                    watermark: shared.watermarks[s].load(Ordering::Relaxed),
                    done: false,
                };
                let mut idle = 0u32;
                while !w.done {
                    if step(se, &mut w, shared, shard_of).0 {
                        idle = 0;
                    } else {
                        idle += 1;
                        // Spin briefly, then yield so oversubscribed hosts
                        // (more shards than cores) still make progress.
                        if idle < 64 {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    rejoin(eng, horizon, plan, run)
}

/// [`run_sharded`] driven on the calling thread: `pick` chooses which
/// shard to step next (its return value is taken modulo the shard
/// count). Any pick sequence produces the bitwise-identical result; a
/// full round-robin sweep is forced whenever the chosen sequence stalls,
/// and a sweep that advances nothing panics (it would mean the channel
/// graph under-approximates real traffic).
pub fn run_sharded_cooperative<M: Send + 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    replicas: Vec<ReplicaSet<M>>,
    mut pick: impl FnMut(usize) -> usize,
) -> Vec<ReplicaSet<M>> {
    validate(eng, lookahead, plan);
    let mut run = split_shards(eng, horizon, lookahead, plan, replicas);
    let shards = plan.shards;
    let mut workers: Vec<ShardWorker<M>> = (0..shards)
        .map(|s| ShardWorker {
            s,
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            watermark: run.shared.watermarks[s].load(Ordering::Relaxed),
            done: false,
        })
        .collect();
    let mut live = shards;
    let mut stalled = 0usize;
    while live > 0 {
        let s = pick(shards) % shards;
        let was_done = workers[s].done;
        let (advanced, worked) = step(
            &mut run.shard_engines[s],
            &mut workers[s],
            &run.shared,
            &plan.shard_of,
        );
        if !was_done && workers[s].done {
            live -= 1;
        }
        // Quiescence jump. Running on one thread, this driver can see a
        // globally idle instant the concurrent protocol cannot: on any
        // watermark-only step, if no channel holds mail (outboxes are
        // always empty between steps), then the smallest local queue
        // head T across live shards bounds every future send anywhere —
        // so every watermark may leap straight to T instead of crawling
        // there in lookahead-sized hops. Deposits made after the leap
        // still carry keys >= T + lookahead, keeping exactly the
        // promise the watermark encodes.
        if advanced && !worked {
            let mail_free = run
                .shared
                .chans
                .iter()
                .flatten()
                .all(|ch| !ch.has_mail.load(Ordering::Relaxed));
            if mail_free {
                let t = workers
                    .iter()
                    .filter(|w| !w.done)
                    .map(|w| {
                        run.shard_engines[w.s]
                            .peek_head()
                            .map(|(t, _)| t.0)
                            .unwrap_or(u64::MAX)
                    })
                    .min()
                    .unwrap_or(u64::MAX)
                    .min(run.shared.bound);
                for w in workers.iter_mut().filter(|w| !w.done) {
                    if t > w.watermark {
                        w.watermark = t;
                        run.shared.watermarks[w.s].store(t, Ordering::Release);
                    }
                }
            }
        }
        if advanced {
            stalled = 0;
            continue;
        }
        stalled += 1;
        if stalled > 4 * shards + 16 {
            // The pick sequence may simply be starving a shard; sweep
            // every live shard once before declaring the protocol stuck.
            let mut any = false;
            for (s, w) in workers.iter_mut().enumerate() {
                let was_done = w.done;
                if step(&mut run.shard_engines[s], w, &run.shared, &plan.shard_of).0 {
                    any = true;
                }
                if !was_done && w.done {
                    live -= 1;
                }
            }
            assert!(
                any || live == 0,
                "watermark executor stalled: no shard can advance \
                 (incomplete channel graph?)"
            );
            stalled = 0;
        }
    }
    rejoin(eng, horizon, plan, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;

    /// A deterministic "node": on each Tick, records into a histogram and
    /// a counter, then pings a peer through the hub with a wire delay.
    #[derive(Debug)]
    enum TestMsg {
        Tick { hops: u32 },
        Via { dst: ActorId, hops: u32 },
    }

    struct TestNode {
        peer: ActorId,
        hub: ActorId,
        hist: crate::metrics::HistogramId,
        seen: u64,
    }

    impl Actor<TestMsg> for TestNode {
        fn handle(&mut self, now: SimTime, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
            if let TestMsg::Tick { hops } = msg {
                self.seen += 1;
                ctx.recorder().histogram_at(self.hist).record(now.0 % 1024);
                if hops > 0 {
                    // Same-instant send to the (replicated) hub.
                    ctx.send_now(
                        self.hub,
                        TestMsg::Via {
                            dst: self.peer,
                            hops: hops - 1,
                        },
                    );
                }
            }
        }
    }

    /// The replicated hub: forwards with a fixed latency (the lookahead).
    struct TestHub {
        wire: SimDuration,
        forwarded: u64,
    }

    impl Actor<TestMsg> for TestHub {
        fn handle(&mut self, _now: SimTime, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
            if let TestMsg::Via { dst, hops } = msg {
                self.forwarded += 1;
                ctx.send_in(self.wire, dst, TestMsg::Tick { hops });
            }
        }
    }

    const WIRE: SimDuration = SimDuration::from_micros(5);

    fn build(nodes: u32) -> (Engine<TestMsg>, ActorId) {
        let mut eng: Engine<TestMsg> = Engine::new();
        let hub = eng.reserve_actor();
        let ids: Vec<ActorId> = (0..nodes).map(|_| eng.reserve_actor()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let hist = eng.recorder_mut().histogram_id(&format!("node{i}/t"));
            eng.install(
                id,
                Box::new(TestNode {
                    peer: ids[(i + 1) % ids.len()],
                    hub,
                    hist,
                    seen: 0,
                }),
            );
        }
        eng.install(
            hub,
            Box::new(TestHub {
                wire: WIRE,
                forwarded: 0,
            }),
        );
        eng.mark_replicated(hub);
        for (i, &id) in ids.iter().enumerate() {
            // Staggered starts, long relay chains crossing every node.
            eng.schedule(SimTime(1 + 7 * i as u64), id, TestMsg::Tick { hops: 4000 });
        }
        (eng, hub)
    }

    fn fingerprint(eng: &Engine<TestMsg>, nodes: u32) -> (u64, SimTime, Vec<(String, u64, u64)>) {
        let hists = eng
            .recorder()
            .histogram_keys()
            .map(|k| {
                let h = eng.recorder().get_histogram(k).unwrap();
                (k.to_string(), h.count(), h.max())
            })
            .collect();
        let seen: u64 = (1..=nodes)
            .map(|i| eng.actor::<TestNode>(ActorId(i)).unwrap().seen)
            .sum();
        (seen, eng.now(), hists)
    }

    /// The toy world's ring plan: node `i` pings node `i + 1`, so the
    /// actor chatter edges are the ring pairs (the hub is replicated and
    /// contributes no channel).
    fn ring_plan(nodes: u32, shards: usize, hub: ActorId, derive: bool) -> ShardPlan {
        let mut shard_of = vec![0u16; 1 + nodes as usize];
        shard_of[hub.index()] = ShardPlan::REPLICATED;
        for i in 0..nodes as usize {
            shard_of[1 + i] = (i % shards) as u16;
        }
        let mut plan = ShardPlan::new(shard_of, shards);
        if derive {
            let edges: Vec<(usize, usize)> = (0..nodes as usize)
                .map(|i| (1 + i, 1 + (i + 1) % nodes as usize))
                .collect();
            plan.derive_channels(&edges);
        }
        plan
    }

    fn hub_replicas(shards: usize, hub: ActorId) -> Vec<ReplicaSet<TestMsg>> {
        vec![ReplicaSet {
            id: hub,
            replicas: (0..shards)
                .map(|_| {
                    Box::new(TestHub {
                        wire: WIRE,
                        forwarded: 0,
                    }) as Box<dyn Actor<TestMsg>>
                })
                .collect(),
        }]
    }

    enum Mode {
        Auto,
        Threaded,
        RoundRobin,
    }

    fn run_parallel(
        nodes: u32,
        shards: usize,
        horizon: SimTime,
        mode: Mode,
        derive: bool,
    ) -> (u64, SimTime, Vec<(String, u64, u64)>, u64) {
        let (mut eng, hub) = build(nodes);
        let plan = ring_plan(nodes, shards, hub, derive);
        let replicas = hub_replicas(shards, hub);
        let back = match mode {
            Mode::Auto => run_sharded(&mut eng, horizon, WIRE, &plan, replicas),
            Mode::Threaded => run_sharded_threaded(&mut eng, horizon, WIRE, &plan, replicas),
            Mode::RoundRobin => {
                let mut n = 0usize;
                run_sharded_cooperative(&mut eng, horizon, WIRE, &plan, replicas, move |_| {
                    n = n.wrapping_add(1);
                    n - 1
                })
            }
        };
        // Replica counters plus whatever the original handled in the
        // sequential prefix reassemble the hub's sequential total.
        let forwarded: u64 = back[0]
            .replicas
            .iter()
            .map(|r| {
                (r.as_ref() as &dyn std::any::Any)
                    .downcast_ref::<TestHub>()
                    .unwrap()
                    .forwarded
            })
            .sum::<u64>()
            + eng.actor::<TestHub>(hub).unwrap().forwarded;
        let (seen, now, hists) = fingerprint(&eng, nodes);
        (seen, now, hists, forwarded)
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let horizon = SimTime(30_000_000);
        let (mut seq_eng, _) = build(6);
        seq_eng.run_until(horizon);
        let seq_events = seq_eng.events_processed();
        let (seen, now, hists) = fingerprint(&seq_eng, 6);
        for shards in [2usize, 3, 4] {
            for derive in [false, true] {
                let (p_seen, p_now, p_hists, _fw) =
                    run_parallel(6, shards, horizon, Mode::Auto, derive);
                assert_eq!(p_seen, seen, "{shards} shards diverged");
                assert_eq!(p_now, now);
                assert_eq!(p_hists, hists, "{shards} shards: histograms diverged");
            }
        }
        assert!(seq_events > 10_000, "world must actually run");
    }

    #[test]
    fn threaded_and_cooperative_agree() {
        // Both drivers of the protocol — real threads and the
        // single-thread round-robin — must match the sequential run,
        // whatever the host's core count.
        let horizon = SimTime(20_000_000);
        let (mut seq_eng, _) = build(5);
        seq_eng.run_until(horizon);
        let (seen, now, hists) = fingerprint(&seq_eng, 5);
        for mode in [Mode::Threaded, Mode::RoundRobin] {
            let (p_seen, p_now, p_hists, _fw) = run_parallel(5, 3, horizon, mode, true);
            assert_eq!(p_seen, seen);
            assert_eq!(p_now, now);
            assert_eq!(p_hists, hists);
        }
    }

    #[test]
    fn skewed_cooperative_schedules_agree() {
        // Heavily biased pick sequences (one shard stepped 7× more than
        // the rest) still converge to the sequential fingerprint; the
        // anti-starvation sweep covers shards the sequence neglects.
        let horizon = SimTime(15_000_000);
        let (mut seq_eng, _) = build(4);
        seq_eng.run_until(horizon);
        let (seen, now, hists) = fingerprint(&seq_eng, 4);
        let (mut eng, hub) = build(4);
        let plan = ring_plan(4, 2, hub, true);
        let mut n = 0usize;
        run_sharded_cooperative(
            &mut eng,
            horizon,
            WIRE,
            &plan,
            hub_replicas(2, hub),
            move |_| {
                n += 1;
                if n.is_multiple_of(8) {
                    1
                } else {
                    0
                }
            },
        );
        let (p_seen, p_now, p_hists) = fingerprint(&eng, 4);
        assert_eq!((p_seen, p_now, p_hists), (seen, now, hists));
    }

    #[test]
    #[should_panic(expected = "outside the declared channel graph")]
    fn undeclared_channel_panics() {
        // Declare an empty channel graph for a world whose ring really
        // does cross shards: the first cross-shard flush must die loudly
        // rather than let the receiver's clock race the mail.
        let (mut eng, hub) = build(4);
        let mut plan = ring_plan(4, 2, hub, false);
        plan.channels = Some(vec![Vec::new(), Vec::new()]);
        let _ = run_sharded_cooperative(
            &mut eng,
            SimTime(10_000_000),
            WIRE,
            &plan,
            hub_replicas(2, hub),
            |_| 0,
        );
    }

    #[test]
    fn replica_state_returns_for_merging() {
        let horizon = SimTime(10_000_000);
        let (mut seq_eng, hub) = build(4);
        seq_eng.run_until(horizon);
        let seq_fw = seq_eng.actor::<TestHub>(hub).unwrap().forwarded;
        let (_, _, _, fw) = run_parallel(4, 2, horizon, Mode::Auto, true);
        assert_eq!(fw, seq_fw, "summed replica counters must match");
    }

    #[test]
    fn pending_events_survive_rejoin() {
        // Events beyond the horizon re-merge into the main queue and a
        // follow-up sequential run continues bitwise-correctly.
        let horizon = SimTime(5_000_000);
        let (mut a, _) = build(4);
        a.run_until(horizon);
        a.run_until(SimTime(9_000_000));
        let (seen_a, _, hists_a) = fingerprint(&a, 4);

        let (mut b, hub) = build(4);
        let plan = ring_plan(4, 2, hub, true);
        let _back = run_sharded(&mut b, horizon, WIRE, &plan, hub_replicas(2, hub));
        // The original hub is back in its slot; continue sequentially.
        b.run_until(SimTime(9_000_000));
        let (seen_b, _, hists_b) = fingerprint(&b, 4);
        assert_eq!(seen_a, seen_b);
        assert_eq!(hists_a, hists_b);
    }

    #[test]
    fn affinity_groups_keep_ring_neighbors_together() {
        // A 16-node ring split two ways: the greedy partition should cut
        // the ring in exactly two places (contiguous arcs), not sixteen.
        let n = 16usize;
        let edges: Vec<(usize, usize, u64)> = (0..n).map(|i| (i, (i + 1) % n, 4)).collect();
        let groups = ShardPlan::affinity_groups(n, 2, &edges);
        let cuts = (0..n).filter(|&i| groups[i] != groups[(i + 1) % n]).count();
        assert_eq!(cuts, 2, "ring should split into two arcs: {groups:?}");
        let per_shard = groups.iter().filter(|&&g| g == 0).count();
        assert_eq!(per_shard, 8, "partition must stay balanced");
    }

    #[test]
    fn affinity_groups_balance_star_with_hub() {
        // A hub chattering with every leaf plus a leaf ring: every shard
        // gets its fair share even though the hub attracts everything.
        let n = 9usize; // hub = 0, leaves 1..=8
        let mut edges: Vec<(usize, usize, u64)> = (1..n).map(|i| (0, i, 4)).collect();
        edges.extend((1..n).map(|i| (i, if i + 1 < n { i + 1 } else { 1 }, 8)));
        let groups = ShardPlan::affinity_groups(n, 3, &edges);
        for s in 0..3u16 {
            let size = groups.iter().filter(|&&g| g == s).count();
            assert!((2..=4).contains(&size), "shard {s} got {size}: {groups:?}");
        }
    }
}
