//! Host speed reference. A shared host's speed drifts by up to 1.8× over
//! stretches of seconds to minutes as its other tenants contend for the
//! caches, and that drift slows the simulator and other code with a
//! similar memory footprint together. The reference is a fixed kernel
//! shaped like a discrete-event simulator's inner loop, with a working set
//! of about 2.5 MiB: pop the earliest timer from a binary heap, update a
//! hash table entry, push a new timer. Timed between the slices of each
//! timed repeat, it tells how fast the host was while each slice ran. A
//! sharded workload keeps one core busy per shard and waits for its
//! slowest shard, so it is timed on as many threads at once, and the
//! slowest thread's pass counts.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Pending timers in the kernel's heap.
const TIMERS: u64 = 16384;
/// Slots of the kernel's hash table.
const SLOTS: u64 = 65536;
/// Timer pops per pass.
const OPS: u64 = 20_000;

/// Host seconds of one kernel pass on the reference host, a shared 2-vCPU
/// Xeon VM, at a quiet moment. Host times are reported scaled to the
/// speed the reference host had then.
pub const NOMINAL_S: f64 = 0.0028;

/// Host seconds of a stretch that took `secs` while the kernel passes on
/// either side of it took `k_before` and `k_after`, scaled to the speed
/// of the reference host.
pub fn scaled(secs: f64, k_before: f64, k_after: f64) -> f64 {
    secs * NOMINAL_S * 2.0 / (k_before + k_after)
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// The kernel's heap and table, allocated once so that a pass allocates
/// nothing and can run inside a peak-heap measurement.
pub struct Kernel {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            heap: BinaryHeap::with_capacity(TIMERS as usize),
            table: HashMap::with_capacity_and_hasher(SLOTS as usize, Default::default()),
        }
    }

    /// Host seconds of one pass. Every pass does the same work: the hash
    /// table uses fixed keys, not the per-process random ones.
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        self.heap.clear();
        self.table.clear();
        for id in 0..TIMERS {
            self.heap.push(Reverse((mix(id) % 1000, id)));
        }
        for i in 0..OPS {
            let Reverse((now, id)) = self.heap.pop().expect("the heap never empties");
            *self.table.entry(mix(id ^ now) % SLOTS).or_insert(0) += now;
            self.heap.push(Reverse((now + 1 + mix(i) % 1000, id)));
        }
        black_box(&self.table);
        t.elapsed().as_secs_f64()
    }
}

/// What the main thread and its helpers share. Barriers and atomics only,
/// so a pass allocates nothing on any thread.
struct Shared {
    go: Barrier,
    done: Barrier,
    stop: AtomicBool,
    /// Each helper's last pass, as `f64` bits.
    secs: Vec<AtomicU64>,
}

/// Kernel passes on `threads` threads at once: the caller's and helpers
/// that wait for it between passes, started and joined by this value.
pub struct Speedometer {
    main: Kernel,
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl Speedometer {
    /// Start the helpers and wait until each has allocated its kernel.
    pub fn new(threads: usize) -> Speedometer {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            go: Barrier::new(threads),
            done: Barrier::new(threads),
            stop: AtomicBool::new(false),
            secs: (1..threads).map(|_| AtomicU64::new(0)).collect(),
        });
        let helpers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut kernel = Kernel::new();
                    shared.done.wait();
                    loop {
                        shared.go.wait();
                        if shared.stop.load(Ordering::Acquire) {
                            return;
                        }
                        let secs = kernel.pass();
                        shared.secs[i - 1].store(secs.to_bits(), Ordering::Relaxed);
                        shared.done.wait();
                    }
                })
            })
            .collect();
        shared.done.wait();
        Speedometer {
            main: Kernel::new(),
            shared,
            helpers,
        }
    }

    /// Host seconds of the slowest of one pass on every thread.
    pub fn pass(&mut self) -> f64 {
        if self.helpers.is_empty() {
            return self.main.pass();
        }
        self.shared.go.wait();
        let mine = self.main.pass();
        // The barrier orders the helpers' stores before these loads.
        self.shared.done.wait();
        self.shared
            .secs
            .iter()
            .map(|s| f64::from_bits(s.load(Ordering::Relaxed)))
            .fold(mine, f64::max)
    }
}

impl Drop for Speedometer {
    fn drop(&mut self) {
        if self.helpers.is_empty() {
            return;
        }
        self.shared.stop.store(true, Ordering::Release);
        self.shared.go.wait();
        for helper in self.helpers.drain(..) {
            helper.join().expect("a kernel helper panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_hosts_slowdown() {
        assert_eq!(scaled(0.5, NOMINAL_S, NOMINAL_S), 0.5);
        let slow = 1.6 * NOMINAL_S;
        assert!((scaled(0.8, slow, slow) - 0.5).abs() < 1e-12);
        assert!((scaled(0.8, NOMINAL_S, 2.2 * NOMINAL_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_pass_allocates_nothing() {
        let mut k = Kernel::new();
        k.pass();
        let (heap, table) = (k.heap.capacity(), k.table.capacity());
        assert!(k.pass() > 0.0);
        assert_eq!((k.heap.capacity(), k.table.capacity()), (heap, table));
    }

    #[test]
    fn helpers_pass_together_and_stop() {
        for threads in [1, 2, 3] {
            let mut speed = Speedometer::new(threads);
            assert_eq!(speed.helpers.len(), threads - 1);
            for _ in 0..3 {
                assert!(speed.pass() > 0.0);
            }
        }
    }
}
