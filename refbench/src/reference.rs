//! Reference speed: a fixed kernel run on every core between measured
//! units, so that each unit's time can be rescaled to what it would have
//! been on a machine where the kernel takes [`REF_NOMINAL_MS`].
//!
//! Shared machines change speed from minute to minute (other tenants,
//! frequency scaling). The kernel is sampled on all cores at once right
//! before and right after each unit, while no request is in flight, and
//! the unit's raw time is multiplied by `REF_NOMINAL_MS / mean(before,
//! after)`. Sampling only the client thread, or only the two ends of a
//! long block, does not track the cores the program runs on.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Frozen: the kernel time every normalised figure is scaled to.
pub const REF_NOMINAL_MS: f64 = 0.5;

const TILE: usize = 96;
const TABLE_ROWS: usize = 1024;
const GATHER_WIDTH: usize = 32;
const GATHERS: usize = 4096;
/// Timed kernel runs per thread per sample, after one untimed run.
const REPS: usize = 3;

/// Buffers of one kernel instance, allocated once per thread.
pub struct KernelBufs {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    table: Vec<f32>,
    acc: [f32; GATHER_WIDTH],
}

impl Default for KernelBufs {
    fn default() -> Self {
        let fill = |n: usize, salt: u32| -> Vec<f32> {
            (0..n as u32)
                .map(|i| ((i.wrapping_mul(2_654_435_761) ^ salt) % 1000) as f32 / 1000.0 - 0.5)
                .collect()
        };
        KernelBufs {
            a: fill(TILE * TILE, 1),
            b: fill(TILE * TILE, 2),
            c: vec![0.0; TILE * TILE],
            table: fill(TABLE_ROWS * GATHER_WIDTH, 3),
            acc: [0.0; GATHER_WIDTH],
        }
    }
}

/// One run of the reference kernel: a dense multiply-add on a
/// `TILE`×`TILE` tile, a pseudo-random row gather-accumulate, and `tanh`
/// over the product. Allocation-free; the result depends on every step.
pub fn kernel(bufs: &mut KernelBufs) -> f32 {
    let KernelBufs {
        a,
        b,
        c,
        table,
        acc,
    } = bufs;
    c.fill(0.0);
    for (arow, crow) in a.chunks_exact(TILE).zip(c.chunks_exact_mut(TILE)) {
        for (&av, brow) in arow.iter().zip(b.chunks_exact(TILE)) {
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    acc.fill(0.0);
    let mut state = 0x9E37_79B9u32;
    for _ in 0..GATHERS {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        let row = state as usize % TABLE_ROWS;
        let src = &table[row * GATHER_WIDTH..(row + 1) * GATHER_WIDTH];
        for (dst, &v) in acc.iter_mut().zip(src) {
            *dst += v;
        }
    }
    c.iter()
        .zip(acc.iter().cycle())
        .map(|(&v, &g)| (0.05 * v + 0.001 * g).tanh())
        .sum()
}

/// Rescales a raw duration measured between two reference samples (ms).
pub fn at_reference(raw: f64, before_ms: f64, after_ms: f64) -> f64 {
    raw * REF_NOMINAL_MS / (0.5 * (before_ms + after_ms))
}

struct Shared {
    start: Barrier,
    done: Barrier,
    stop: AtomicBool,
    times_ms: Mutex<Vec<f64>>,
    tids: Mutex<Vec<u32>>,
}

/// One kernel thread per core, parked between samples.
pub struct RefPool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Every sample taken, in order (ms, mean over the cores).
    pub samples: Vec<f64>,
    /// The sample that closed the previous unit, when nothing ran since.
    last: Option<f64>,
}

impl RefPool {
    pub fn new(cores: usize) -> RefPool {
        let shared = Arc::new(Shared {
            start: Barrier::new(cores + 1),
            done: Barrier::new(cores + 1),
            stop: AtomicBool::new(false),
            times_ms: Mutex::new(vec![0.0; cores]),
            tids: Mutex::new(Vec::new()),
        });
        let threads = (0..cores)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("refbench-ref-{slot}"))
                    .spawn(move || {
                        if let Some(tid) = crate::sys::thread_id() {
                            shared.tids.lock().expect("tid list poisoned").push(tid);
                        }
                        let mut bufs = KernelBufs::default();
                        loop {
                            shared.start.wait();
                            if shared.stop.load(Ordering::SeqCst) {
                                break;
                            }
                            // The first run refills caches the program
                            // evicted; the mean of the rest is the sample.
                            black_box(kernel(black_box(&mut bufs)));
                            let t0 = Instant::now();
                            for _ in 0..REPS {
                                black_box(kernel(black_box(&mut bufs)));
                            }
                            let ms = t0.elapsed().as_secs_f64() * 1e3 / REPS as f64;
                            shared.times_ms.lock().expect("ref times poisoned")[slot] = ms;
                            shared.done.wait();
                        }
                    })
                    .expect("spawn reference thread")
            })
            .collect();
        let mut pool = RefPool {
            shared,
            threads,
            samples: Vec::new(),
            last: None,
        };
        // First touch of the buffers is not representative.
        pool.sample();
        pool.samples.clear();
        pool
    }

    /// Thread ids of the kernel threads (their CPU time is not the
    /// program's).
    pub fn tids(&self) -> Vec<u32> {
        self.shared.tids.lock().expect("tid list poisoned").clone()
    }

    /// Runs the kernel on every core at once; returns the mean time of
    /// one run, over cores and over [`REPS`] runs after a warm-up run.
    pub fn sample(&mut self) -> f64 {
        self.shared.start.wait();
        self.shared.done.wait();
        let ms = crate::report::mean(&self.shared.times_ms.lock().expect("ref times poisoned"));
        self.samples.push(ms);
        ms
    }

    /// Forget the last sample: something unmeasured ran since.
    pub fn invalidate(&mut self) {
        self.last = None;
    }

    /// Runs `f` as one measured unit between two reference samples.
    /// Returns its output, raw seconds and the reference-speed factor
    /// (multiply a raw time by it). Adjacent units share a sample.
    pub fn unit<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = match self.last {
            Some(ms) => ms,
            None => self.sample(),
        };
        let t0 = Instant::now();
        let out = f();
        let raw = t0.elapsed().as_secs_f64();
        let after = self.sample();
        self.last = Some(after);
        (out, raw, at_reference(1.0, before, after))
    }
}

impl Drop for RefPool {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.start.wait();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniformly_slower_machine_gives_unchanged_normalised_times() {
        // The same unit on a machine 2x slower: raw time and both
        // reference samples double.
        let fast = at_reference(0.120, 0.48, 0.52);
        let slow = at_reference(0.240, 0.96, 1.04);
        assert!((fast - slow).abs() < 1e-12);
        // At nominal speed the raw time is returned unchanged.
        assert!((at_reference(0.3, REF_NOMINAL_MS, REF_NOMINAL_MS) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_deterministic() {
        let mut a = KernelBufs::default();
        let mut b = KernelBufs::default();
        let x = kernel(&mut a);
        assert_eq!(x.to_bits(), kernel(&mut b).to_bits());
        assert_eq!(x.to_bits(), kernel(&mut a).to_bits());
        assert!(x.is_finite());
    }

    #[test]
    fn pool_samples_and_units_share_adjacent_samples() {
        let mut pool = RefPool::new(2);
        let ((), _, f1) = pool.unit(|| ());
        let ((), _, f2) = pool.unit(|| ());
        // Three samples for two adjacent units.
        assert_eq!(pool.samples.len(), 3);
        assert!(f1 > 0.0 && f2 > 0.0);
        pool.invalidate();
        let _ = pool.unit(|| ());
        assert_eq!(pool.samples.len(), 5);
    }
}
