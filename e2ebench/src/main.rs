//! End-to-end benchmark of the simulated cluster and of the simulator that
//! runs it. One command runs one named workload from a seed and prints, as
//! its last line, one JSON object with every metric, its unit, and whether
//! the outputs were correct:
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper_socket --seed 1 --seconds 35 --trace 0
//! ```
//!
//! A run has three passes over the workload's cells (independent worlds
//! built from sub-seeds of `--seed`):
//!
//! 1. a reference pass, sequential and stepped in sub-millisecond slices
//!    of simulated time so the dispatcher's information age can be sampled,
//!    which gives every simulated-clock metric;
//! 2. timed repeats of the first few cells, untraced on the workload's
//!    shard count, interleaved with the reference pass and then in whole
//!    passes until `--seconds` have passed, which give the host-clock
//!    metrics (each timed cell's median repeat, scaled to a reference
//!    host's speed by a kernel timed between its slices, averaged over
//!    those cells) and must reproduce the reference pass bit for bit;
//! 3. with `--trace 1`, a traced pass that records spans around each call
//!    into the program and gives the per-layer metrics.
//!
//! See `e2ebench/README.md` for the workloads and the metric definitions.

mod alloc;
mod calib;
mod metrics;
mod probe;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use fgmon_cluster::{node_summaries, pooled_responses, Cluster};
use fgmon_net::Fabric;
use fgmon_sim::{Histogram, ShardPlan, SimDuration, SimTime, Summary};

use metrics::{median, quantile, ratio, sample_percentile, supports};
use probe::Counters;
use trace::Tracer;
use workloads::{Kind, Spec, World, CHUNKS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Spacing of the reference pass's information-age samples. Prime in
/// microseconds, so the samples do not lock onto any poll period.
const SAMPLE_PERIOD: SimDuration = SimDuration::from_micros(997);
/// Cells the timed repeats cover: the first ones of the workload. Fewer
/// cells than the simulated metrics need, so that each is timed several
/// times within `--seconds` and its median repeat is a steady estimate.
const TIMED_CELLS: u32 = 4;
/// Fewest timed passes over those cells, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Most timed repeats per run (rounded up to whole passes).
const MAX_TIMED: usize = 500;
/// Shard count the traced run plans for on every workload (on sequential
/// ones the plan is measured but not used).
const PLAN_SHARDS: usize = 2;

const USAGE: &str =
    "usage: e2ebench --workload <paper_socket|big256_sharded|noisy_tenant> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workloads::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Seed of cell `cell`: the run's seed itself for the first cell, spread
/// by the golden-ratio increment for the others.
fn sub_seed(seed: u64, cell: u32) -> u64 {
    seed.wrapping_add(u64::from(cell).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one cell's measured window produced, in simulated terms.
struct CellSim {
    /// Counter growth over the window.
    window: Counters,
    /// Counters since time zero (for the ordering checks).
    total: Counters,
    /// Simulated time when the window ended.
    end: SimTime,
    /// Closed-loop sessions of the world's clients.
    sessions: u64,
    resp: Histogram,
    mon_latency: Histogram,
}

/// Everything about a cell that must repeat exactly.
#[derive(PartialEq)]
struct Fingerprint {
    window: Counters,
    end: SimTime,
    resp: Summary,
    resp_quantiles: [u64; 2],
    mon_latency: Summary,
}

impl CellSim {
    fn read(w: &World, start: &Counters, spec: &Spec) -> CellSim {
        let total = Counters::read(w);
        CellSim {
            window: total.since(start),
            total,
            end: w.cluster.eng.now(),
            sessions: probe::sessions(w),
            resp: probe::responses(&w.cluster),
            mon_latency: probe::monitor_latency(&w.cluster, spec.scheme),
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            window: self.window.clone(),
            end: self.end,
            resp: self.resp.summary(),
            resp_quantiles: [0.5, 0.99].map(|q| quantile(&self.resp, q).to_bits()),
            mon_latency: self.mon_latency.summary(),
        }
    }
}

/// Collected check failures; the run is correct when there are none.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// Open a warmed-up world's measured window: returns the counters at its
/// start and empties the histograms, so they describe only the window.
fn open_window(w: &mut World) -> Counters {
    let start = Counters::read(w);
    probe::clear_histograms(&mut w.cluster);
    start
}

/// Reference pass for one cell: sequential, stepped every
/// [`SAMPLE_PERIOD`] to sample the dispatcher's information age.
fn reference_cell(spec: &Spec, seed: u64, cell: u32, ages: &mut Vec<u64>) -> CellSim {
    let mut w = spec.build(sub_seed(seed, cell));
    w.advance(spec.warmup, 1);
    let start = open_window(&mut w);
    let end = w.cluster.eng.now() + spec.horizon;
    let mut next = w.cluster.eng.now() + SAMPLE_PERIOD;
    while next < end {
        let now = w.cluster.eng.now();
        w.cluster.run_for(next.since(now));
        probe::info_ages(&w, next, ages);
        next += SAMPLE_PERIOD;
    }
    let now = w.cluster.eng.now();
    w.cluster.run_for(end.since(now));
    CellSim::read(&w, &start, spec)
}

/// One timed repeat: host time of setup (build plus warm-up) and of the
/// horizon, each also scaled to the reference host's speed, and the peak
/// heap over both beyond what was live before.
struct Timed {
    setup_s: f64,
    run_s: f64,
    raw_run_s: f64,
    /// Host seconds per reference-host second over the repeat.
    slowdown: f64,
    peak_mib: f64,
    sim: CellSim,
}

/// Build, warm up and run one cell, timing the setup and the horizon.
/// The horizon runs in [`CHUNKS`] slices, as in the traced pass, with a
/// pass of the reference kernel before the setup and after every stretch,
/// so each stretch is scaled by the host's speed around it.
fn timed_cell(
    spec: &Spec,
    seed: u64,
    cell: u32,
    shards: usize,
    k: &mut calib::Speedometer,
) -> Timed {
    let live_before = alloc::rebase_peak();
    let k0 = k.pass();
    let t0 = Instant::now();
    let mut w = spec.build(sub_seed(seed, cell));
    w.advance(spec.warmup, shards);
    let raw_setup_s = t0.elapsed().as_secs_f64();
    let mut k_prev = k.pass();
    let setup_s = calib::scaled(raw_setup_s, k0, k_prev);
    let start = open_window(&mut w);
    let slice = SimDuration(spec.horizon.nanos() / u64::from(CHUNKS));
    let (mut run_s, mut raw_run_s) = (0.0, 0.0);
    for _ in 0..CHUNKS {
        let t = Instant::now();
        w.advance(slice, shards);
        let secs = t.elapsed().as_secs_f64();
        let k_next = k.pass();
        run_s += calib::scaled(secs, k_prev, k_next);
        raw_run_s += secs;
        k_prev = k_next;
    }
    let peak_mib = (alloc::peak_bytes() - live_before) as f64 / (1024.0 * 1024.0);
    Timed {
        setup_s,
        run_s,
        raw_run_s,
        slowdown: (raw_setup_s + raw_run_s) / (setup_s + run_s),
        peak_mib,
        sim: CellSim::read(&w, &start, spec),
    }
}

/// The sharded executor's node grouping, computed from outside exactly as
/// `Cluster::run_parallel` plans it: the fabric's chatter graph,
/// partitioned by affinity.
fn plan(c: &Cluster, shards: usize) -> Vec<u16> {
    let edges: Vec<(usize, usize, u64)> = fabric(c)
        .chatter_edges()
        .iter()
        .map(|&(a, b, w)| (a.index(), b.index(), w))
        .collect();
    ShardPlan::affinity_groups(c.node_count(), shards, &edges)
}

fn fabric(c: &Cluster) -> &Fabric {
    c.eng.actor(c.fabric).expect("fabric actor")
}

fn distinct(groups: &[u16]) -> usize {
    groups.iter().collect::<BTreeSet<_>>().len()
}

/// Shards `Cluster::run_parallel(_, shards)` really runs `c` on: 1 where it
/// falls back to the sequential engine (zero fabric lookahead, or fewer
/// than two shards after capping at the node count), else the non-empty
/// groups of its plan.
fn shards_in_use(c: &Cluster, shards: usize) -> usize {
    let shards = shards.min(c.node_count());
    if shards < 2 || fabric(c).lookahead() == SimDuration::ZERO {
        return 1;
    }
    distinct(&plan(c, shards))
}

/// What the traced pass measured for one cell.
struct TracedCell {
    sim: CellSim,
    /// Host seconds of the horizon, summed over its chunks and scaled to
    /// the reference host's speed as the timed repeats are.
    run_s: f64,
    /// `(host_ns, events)` per chunk.
    chunks: Vec<(u64, u64)>,
    rubis_pooled: u64,
    backend_cpus: u64,
}

fn traced_cell(
    spec: &Spec,
    seed: u64,
    cell: u32,
    tr: &mut Tracer,
    k: &mut calib::Speedometer,
) -> TracedCell {
    let setup = tr.open(cell, None, "setup");
    let build = tr.open(cell, Some(setup), "cluster.build");
    let mut w = spec.build(sub_seed(seed, cell));
    tr.close(build, vec![("nodes", w.cluster.node_count() as f64)]);
    let plan_span = tr.open(cell, Some(setup), "cluster.plan");
    let groups = plan(&w.cluster, PLAN_SHARDS);
    tr.close(plan_span, vec![("shards_used", distinct(&groups) as f64)]);
    tr.close(setup, Vec::new());

    let warmup = tr.open(cell, None, "warmup");
    let events0 = w.cluster.eng.events_processed();
    w.advance(spec.warmup, spec.shards);
    let events = (w.cluster.eng.events_processed() - events0) as f64;
    tr.close(warmup, vec![("events", events)]);

    let start = open_window(&mut w);
    let slice = SimDuration(spec.horizon.nanos() / u64::from(CHUNKS));
    let mut chunks = Vec::with_capacity(CHUNKS as usize);
    let mut run_s = 0.0;
    let mut k_prev = k.pass();
    for _ in 0..CHUNKS {
        let pending0 = probe::rdma_pending_max(&w.cluster);
        let events0 = w.cluster.eng.events_processed();
        let span = tr.open(cell, None, "run.chunk");
        let allocs0 = alloc::Snapshot::now();
        let t = Instant::now();
        w.advance(slice, spec.shards);
        let ns = t.elapsed().as_nanos() as u64;
        let allocs = alloc::Snapshot::now().since(allocs0);
        let events = w.cluster.eng.events_processed() - events0;
        let pending = probe::rdma_pending_max(&w.cluster);
        tr.close(
            span,
            vec![
                ("events", events as f64),
                ("allocs", allocs.allocs as f64),
                ("alloc_bytes", allocs.bytes as f64),
                ("rdma_pending", pending as f64),
                ("rdma_pending_delta", pending as f64 - pending0 as f64),
                ("queue_len", w.cluster.eng.queue_len() as f64),
                ("live_threads", probe::live_threads_max(&w.cluster) as f64),
            ],
        );
        let k_next = k.pass();
        run_s += calib::scaled(ns as f64 / 1e9, k_prev, k_next);
        k_prev = k_next;
        chunks.push((ns, events));
    }

    let report = tr.open(cell, None, "report");
    let sim = CellSim::read(&w, &start, spec);
    let rubis_pooled = pooled_responses(&w.cluster, "rubis").map_or(0, |r| r.count);
    let nodes = node_summaries(&mut w.cluster);
    let live_threads = nodes.iter().map(|n| n.live_threads).max().unwrap_or(0);
    tr.close(
        report,
        vec![
            ("rubis_responses", rubis_pooled as f64),
            ("live_threads", f64::from(live_threads)),
        ],
    );
    TracedCell {
        sim,
        run_s,
        chunks,
        rubis_pooled,
        backend_cpus: probe::backend_cpus(&w),
    }
}

/// Columns of a timed repeat's record.
const SETUP_S: usize = 0;
const RUN_S: usize = 1;
const PEAK_MIB: usize = 2;
const RAW_RUN_S: usize = 3;
const SLOWDOWN: usize = 4;

/// Time the next repeat, round robin over the first `timed_cells` cells
/// (whose reference runs must be done), check it against the reference,
/// and record it by the columns above.
fn time_repeat(
    spec: &Spec,
    seed: u64,
    reference: &[CellSim],
    timed_cells: usize,
    timed: &mut Vec<(u32, [f64; 5])>,
    checks: &mut Checks,
    k: &mut calib::Speedometer,
) {
    let cell = (timed.len() % timed_cells) as u32;
    let t = timed_cell(spec, seed, cell, spec.shards, k);
    check_cell(checks, spec, &t.sim, cell);
    checks.require(
        t.sim.fingerprint() == reference[cell as usize].fingerprint(),
        || {
            format!(
                "cell {cell}: timed repeat {} on {} shard(s) differs from the sequential reference",
                timed.len(),
                spec.shards
            )
        },
    );
    timed.push((
        cell,
        [t.setup_s, t.run_s, t.peak_mib, t.raw_run_s, t.slowdown],
    ));
}

/// Host seconds of cell 0's horizon run sequentially and on the
/// workload's shards, and whether the two runs agreed exactly. Both runs
/// step the warm-up and each slice of the horizon as separate segments.
fn parallel_vs_sequential(spec: &Spec, seed: u64, k: &mut calib::Speedometer) -> (f64, f64, bool) {
    let seq = timed_cell(spec, seed, 0, 1, k);
    let par = timed_cell(spec, seed, 0, spec.shards, k);
    let same = seq.sim.fingerprint() == par.sim.fingerprint();
    (seq.raw_run_s, par.raw_run_s, same)
}

/// Simulated-clock end-to-end metrics, pooled over every cell.
struct SimMetrics {
    resp_p50_ms: f64,
    resp_p99_ms: f64,
    goodput_rps: f64,
    mon_staleness_p99_ms: f64,
    poll_ok_share: f64,
}

fn sim_metrics(
    window: &Counters,
    resp: &Histogram,
    ages: &mut [u64],
    horizon_s: f64,
) -> SimMetrics {
    let served = window.rubis_completed + window.zipf_completed;
    SimMetrics {
        resp_p50_ms: quantile(resp, 0.5) / 1e6,
        resp_p99_ms: quantile(resp, 0.99) / 1e6,
        goodput_rps: served.saturating_sub(window.rejected) as f64 / horizon_s,
        mon_staleness_p99_ms: sample_percentile(ages, 99) as f64 / 1e6,
        poll_ok_share: metrics::poll_ok_share(window),
    }
}

/// Ordering and horizon checks on one cell.
fn check_cell(checks: &mut Checks, spec: &Spec, w: &CellSim, cell: u32) {
    let want_end = SimTime::ZERO + spec.warmup + spec.horizon;
    checks.require(w.end == want_end, || {
        format!(
            "cell {cell}: simulation ended at {:?}, not {want_end:?}",
            w.end
        )
    });
    let t = &w.total;
    let received = t.rubis_completed + t.zipf_completed;
    checks.require(t.completed <= t.forwarded, || {
        format!(
            "cell {cell}: completed {} > forwarded {}",
            t.completed, t.forwarded
        )
    });
    // Closed loop: clients issued at most one request per session beyond
    // the responses they received, so the front-end cannot have taken in
    // more than that.
    checks.require(t.forwarded + t.rejected <= received + w.sessions, || {
        format!(
            "cell {cell}: front-end took {} requests, clients issued at most {}",
            t.forwarded + t.rejected,
            received + w.sessions
        )
    });
    checks.require(received <= t.completed + t.rejected, || {
        format!(
            "cell {cell}: clients received {received} responses, front-end sent {}",
            t.completed + t.rejected
        )
    });
}

/// Each workload must keep exercising the layers it was chosen for.
/// `shards_used` is what [`shards_in_use`] says `run_parallel` runs on;
/// `worker_allocs` counts allocations made off the main thread during the
/// timed repeats: on a multi-core host `run_parallel` steps its shards on
/// worker threads, and every worker allocates at least its outboxes.
fn check_gates(
    checks: &mut Checks,
    spec: &Spec,
    window: &Counters,
    shards_used: usize,
    worker_allocs: u64,
) {
    let gate = |checks: &mut Checks, ok: bool, what: &str| {
        checks.require(ok, || format!("{} gate failed: {what}", spec.name));
    };
    match spec.kind {
        Kind::PaperSocket => {
            gate(checks, window.rdma_reads == 0, "rdma_reads == 0");
            gate(checks, window.replies > 0, "socket monitoring replies > 0");
        }
        Kind::Big256Sharded => {
            gate(checks, window.rdma_batch_posts > 0, "rdma_batch_posts > 0");
            gate(checks, shards_used == spec.shards, "both shards in use");
            gate(
                checks,
                host_cpus() == 1 || worker_allocs > 0,
                "sharded repeats ran on worker threads",
            );
        }
        Kind::NoisyTenant => {
            gate(
                checks,
                window.tenant1_rate_limited > 0,
                "tenant1_rate_limited > 0",
            );
            gate(checks, window.fault_delayed > 0, "fault_delayed > 0");
            gate(checks, window.timed_out > 0, "core.timed_out > 0");
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = args.spec;
    let seed = args.seed;
    let begun = Instant::now();
    let budget = Duration::from_secs(if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    });
    alloc::mark_main_thread();
    let mut checks = Checks::default();

    // 1. Reference pass: every simulated-clock metric. 2. Timed repeats:
    // host-clock metrics, reproducing the reference. The host's speed
    // drifts over seconds, so the first timed repeats interleave with the
    // reference pass and the repeats are spread over the whole run.
    let timed_cells = spec.cells.min(TIMED_CELLS) as usize;
    let mut timed = Vec::new();
    // One kernel thread per core the workload keeps busy, started before
    // the off-main allocation count so that only the simulator's own
    // workers enter it.
    let mut kernel = calib::Speedometer::new(spec.shards.min(host_cpus()));
    let off_main0 = alloc::off_main_allocs();
    let mut ages = Vec::new();
    let mut reference = Vec::with_capacity(spec.cells as usize);
    for cell in 0..spec.cells {
        reference.push(reference_cell(&spec, seed, cell, &mut ages));
        time_repeat(
            &spec,
            seed,
            &reference,
            timed_cells,
            &mut timed,
            &mut checks,
            &mut kernel,
        );
    }
    let mut window = Counters::default();
    let mut resp = Histogram::new();
    let mut mon_latency = Histogram::new();
    for (cell, sim) in reference.iter().enumerate() {
        check_cell(&mut checks, &spec, sim, cell as u32);
        window.add(&sim.window);
        resp.merge(&sim.resp);
        mon_latency.merge(&sim.mon_latency);
    }
    let horizon_s = spec.horizon.as_secs_f64() * f64::from(spec.cells);
    let age_samples = ages.len() as u64;
    let sim = sim_metrics(&window, &resp, &mut ages, horizon_s);
    checks.require(supports(resp.count(), 99), || {
        format!("only {} response samples: p99 lacks support", resp.count())
    });
    checks.require(supports(age_samples, 99), || {
        format!("only {age_samples} information-age samples: p99 lacks support")
    });
    // The shards `run_parallel` will use, computed from outside on a
    // fresh build of the first cell.
    let shards_used = if spec.shards > 1 {
        shards_in_use(&spec.build(seed).cluster, spec.shards)
    } else {
        1
    };

    // The rest of the timed repeats run in whole passes over the timed
    // cells, so every one of them is timed equally often.
    loop {
        let pass_done = timed.len().is_multiple_of(timed_cells);
        if pass_done
            && timed.len() >= MIN_PASSES * timed_cells
            && (begun.elapsed() >= budget || timed.len() >= MAX_TIMED)
        {
            break;
        }
        time_repeat(
            &spec,
            seed,
            &reference,
            timed_cells,
            &mut timed,
            &mut checks,
            &mut kernel,
        );
    }
    let worker_allocs = alloc::off_main_allocs() - off_main0;
    check_gates(&mut checks, &spec, &window, shards_used, worker_allocs);
    // Scaled to the reference host's speed, a cell's median repeat moves
    // far less from run to run than its fastest or its unscaled median.
    let column = |i: usize| timed.iter().map(|&(c, t)| (c, t[i])).collect::<Vec<_>>();
    let all = |i: usize| timed.iter().map(|&(_, t)| t[i]).collect::<Vec<_>>();
    let setup_s = metrics::mean_of_cell_medians(&column(SETUP_S));
    let run_host_s = metrics::mean_of_cell_medians(&column(RUN_S));
    let raw_run_host_s = metrics::mean_of_cell_medians(&column(RAW_RUN_S));
    let peak_heap_mib = median(&all(PEAK_MIB));
    let slowdown = median(&all(SLOWDOWN));

    let mut out = vec![
        metric("setup_s", setup_s, "s"),
        metric("run_host_s", run_host_s, "s"),
        metric("peak_heap_mib", peak_heap_mib, "MiB"),
        metric("resp_p50_ms", sim.resp_p50_ms, "ms"),
        metric("resp_p99_ms", sim.resp_p99_ms, "ms"),
        metric("goodput_rps", sim.goodput_rps, "1/s"),
        metric("mon_staleness_p99_ms", sim.mon_staleness_p99_ms, "ms"),
        metric("poll_ok_share", sim.poll_ok_share, "share"),
    ];

    // 3. Traced pass: per-layer metrics from spans.
    let mut trace_file = None;
    if args.trace {
        let mut tr = Tracer::new();
        let mut traced = Vec::new();
        for cell in 0..spec.cells {
            let t = traced_cell(&spec, seed, cell, &mut tr, &mut kernel);
            checks.require(
                t.sim.fingerprint() == reference[cell as usize].fingerprint(),
                || format!("cell {cell}: traced run differs from the reference"),
            );
            checks.require(t.rubis_pooled == t.sim.window.rubis_completed, || {
                format!(
                    "cell {cell}: pooled_responses counted {} RUBiS responses, the client {}",
                    t.rubis_pooled, t.sim.window.rubis_completed
                )
            });
            traced.push(t);
        }
        // Only sharded workloads compare their horizon's host time on
        // shards against sequential; 0 marks "not measured" elsewhere.
        let mut host_s_vs_seq = 0.0;
        if spec.shards > 1 {
            let (seq_s, par_s, same) = parallel_vs_sequential(&spec, seed, &mut kernel);
            checks.require(same, || {
                format!("sequential and {}-shard runs differ", spec.shards)
            });
            host_s_vs_seq = par_s / seq_s;
        }
        out = per_layer(&spec, &tr, &traced, run_host_s, host_s_vs_seq);
        let path = PathBuf::from(format!(
            "target/e2ebench/trace-{}-seed{seed}.jsonl",
            spec.name
        ));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"host_cpus\":{},\"shards\":{},\"cells\":{}}}",
            spec.name,
            host_cpus(),
            spec.shards,
            spec.cells
        );
        match tr.write_jsonl(&path, &header) {
            Ok(()) => trace_file = Some(path),
            Err(e) => checks.require(false, || format!("writing {}: {e}", path.display())),
        }
    }

    drop(kernel);

    let attempted = window.forwarded + window.rejected;
    checks.require(attempted > 0, || {
        "no client request reached the front-end".to_owned()
    });
    for failure in &checks.0 {
        eprintln!("e2ebench: CHECK FAILED: {failure}");
    }
    let correct = checks.0.is_empty();
    let mut context = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"host_cpus\":{},\"shards\":{},\"shards_used\":{shards_used},\"worker_allocs\":{},\"cells\":{},\"warmup_s\":{},\"horizon_s\":{},\"timed_repeats\":{},\"host_slowdown\":{slowdown},\"raw_run_host_s\":{raw_run_host_s},\"resp_samples\":{},\"staleness_samples\":{age_samples},\"mon_latency_p99_us\":{},\"mon_latency_samples\":{}",
        spec.name,
        host_cpus(),
        spec.shards,
        worker_allocs,
        spec.cells,
        spec.warmup.as_secs_f64(),
        spec.horizon.as_secs_f64(),
        timed.len(),
        resp.count(),
        mon_latency.quantile(0.99) as f64 / 1e3,
        mon_latency.count(),
    );
    if let Some(path) = &trace_file {
        let _ = write!(context, ",\"trace_file\":\"{}\"", path.display());
    }
    context.push('}');
    println!("{context}");
    let mut result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        attempted.max(1),
        window.rejected
    );
    for (i, m) in out.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            result,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    result.push_str("}}");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

/// Per-layer metrics from the traced pass, pooled over its cells.
fn per_layer(
    spec: &Spec,
    tr: &Tracer,
    traced: &[TracedCell],
    untraced_run_s: f64,
    host_s_vs_seq: f64,
) -> Vec<Metric> {
    let mut w = Counters::default();
    for t in traced {
        w.add(&t.sim.window);
    }
    let span_median = |name: &str| median(&tr.named(name).map(|s| s.secs()).collect::<Vec<_>>());
    let chunk_max = |key: &str| {
        tr.named("run.chunk")
            .map(|s| s.attr(key))
            .fold(0.0, f64::max)
    };
    let chunk_sum = |key: &str| tr.named("run.chunk").map(|s| s.attr(key)).sum::<f64>();
    let steady_allocs: f64 = tr
        .named("run.chunk")
        .enumerate()
        .filter(|(i, _)| i % CHUNKS as usize >= CHUNKS as usize / 2)
        .map(|(_, s)| s.attr("allocs"))
        .sum();
    let events = chunk_sum("events");
    let run_s: f64 = tr.named("run.chunk").map(|s| s.secs()).sum();
    let growth = median(
        &traced
            .iter()
            .map(|t| metrics::ns_per_event_growth(&t.chunks))
            .collect::<Vec<_>>(),
    );
    let traced_run_s = traced.iter().map(|t| t.run_s).sum::<f64>() / traced.len() as f64;
    // Back-end CPU time available over every traced horizon.
    let horizon_ns = spec.horizon.nanos() as f64;
    let backend_cpus: u64 = traced.iter().map(|t| t.backend_cpus).sum();
    let live_threads = tr
        .named("report")
        .map(|s| s.attr("live_threads"))
        .fold(chunk_max("live_threads"), f64::max);
    let n = |v: u64| v as f64;
    vec![
        metric("cluster.build_s", span_median("cluster.build"), "s"),
        metric("cluster.plan_s", span_median("cluster.plan"), "s"),
        metric("sim.events", events, "count"),
        metric("sim.events_per_host_s", ratio(events, run_s), "1/s"),
        metric("sim.host_ns_per_event", ratio(run_s * 1e9, events), "ns"),
        metric("sim.run_allocs", chunk_sum("allocs"), "count"),
        metric("sim.steady_allocs", steady_allocs, "count"),
        metric(
            "sim.alloc_bytes_per_event",
            ratio(chunk_sum("alloc_bytes"), events),
            "B",
        ),
        metric("sim.queue_len_max", chunk_max("queue_len"), "count"),
        metric("sim.ns_per_event_growth", growth, "ratio"),
        metric("sim.parallel.host_s_vs_seq", host_s_vs_seq, "ratio"),
        metric("net.socket_frames", n(w.socket_frames), "count"),
        metric("net.socket_bytes", n(w.socket_bytes), "B"),
        metric("net.rdma_reads", n(w.rdma_reads), "count"),
        metric("net.rdma_batch_posts", n(w.rdma_batch_posts), "count"),
        metric(
            "net.reads_per_doorbell",
            ratio(n(w.rdma_batched_reads), n(w.rdma_batch_posts)),
            "ratio",
        ),
        metric("net.dropped", n(w.dropped), "count"),
        metric("net.fault_dropped", n(w.fault_dropped), "count"),
        metric("net.fault_delayed", n(w.fault_delayed), "count"),
        metric("net.tenant0_posted", n(w.tenant0_posted), "count"),
        metric(
            "net.tenant1_rate_limited",
            n(w.tenant1_rate_limited),
            "count",
        ),
        metric(
            "net.tenant1_contention_dropped",
            n(w.tenant1_contention_dropped),
            "count",
        ),
        metric(
            "os.backend_cpu_busy_share",
            ratio(n(w.backend_busy_ns), horizon_ns * n(backend_cpus)),
            "share",
        ),
        metric("os.irq_total", n(w.irq_total), "count"),
        metric("os.live_threads_max", live_threads, "count"),
        metric("os.pkt_dropped", n(w.pkt_dropped), "count"),
        metric("os.rdma_pending_max", chunk_max("rdma_pending"), "count"),
        metric("core.polls", n(w.polls), "count"),
        metric("core.replies", n(w.replies), "count"),
        metric("core.timed_out", n(w.timed_out), "count"),
        metric("core.retries", n(w.retries), "count"),
        metric("core.gave_up", n(w.gave_up), "count"),
        metric("core.denied", n(w.denied), "count"),
        metric("core.late_ignored", n(w.late_ignored), "count"),
        metric("core.breaker_trips", n(w.breaker_trips), "count"),
        metric("core.fallback_polls", n(w.fallback_polls), "count"),
        metric(
            "core.replies_per_poll",
            ratio(n(w.replies), n(w.polls + w.retries)),
            "ratio",
        ),
        metric("balancer.forwarded", n(w.forwarded), "count"),
        metric("balancer.completed", n(w.completed), "count"),
        metric("balancer.rejected", n(w.rejected), "count"),
        metric(
            "balancer.degraded_exclusions",
            n(w.degraded_exclusions),
            "count",
        ),
        metric(
            "balancer.load_imbalance",
            metrics::load_imbalance(&w.per_backend),
            "ratio",
        ),
        metric("workload.rubis_completed", n(w.rubis_completed), "count"),
        metric("workload.zipf_completed", n(w.zipf_completed), "count"),
        metric("trace.overhead_s", traced_run_s - untraced_run_s, "s"),
    ]
}
