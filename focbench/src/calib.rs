//! Host-speed calibration.
//!
//! A shared 2-CPU host changes speed by up to 1.6× in phases that last
//! tens of seconds (contention and frequency, not steal: thread CPU
//! time tracks wall time), so raw wall times of runs made minutes apart
//! spread by 15–30%. A fixed kernel is timed on the measuring thread
//! right before and after each measured operation, and a measured
//! interval is scaled by `REFERENCE_S / (median kernel time around the
//! interval)`, which gives its length at the reference speed.
//!
//! The serve workload is not scaled: its work floats over both CPUs,
//! where a sampling thread competes with the server it would measure
//! and added more spread than it removed.
//!
//! The kernel is breadth-first search over a grid held in this file's
//! own arrays: no program code runs in it, so a change to the program
//! cannot move the yardstick.

use std::time::{Duration, Instant};

const SIDE: u32 = 96;
/// Sources and radius of one kernel run.
const SOURCES: u32 = 400;
const RADIUS: u32 = 6;
/// Samples this far before and after an interval count for it: wide
/// enough that even a millisecond-long interval gets a dozen samples,
/// narrow next to the host's speed phases.
const WINDOW: Duration = Duration::from_secs(2);
/// Kernel runs per [`Yardstick::mark`]: one run is noisy on its own.
const RUNS_PER_MARK: usize = 3;

/// The kernel's time per run at the reference speed, in seconds (its
/// median on a 2-CPU host in that host's fast phase).
pub const REFERENCE_S: f64 = 0.35e-3;

struct Kernel {
    offsets: Vec<u32>,
    adj: Vec<u32>,
    stamp: Vec<u32>,
    round: u32,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl Kernel {
    fn new() -> Kernel {
        let n = SIDE * SIDE;
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut adj = Vec::new();
        offsets.push(0);
        for v in 0..n {
            let (x, y) = (v % SIDE, v / SIDE);
            let mut push = |ok: bool, w: u32| {
                if ok {
                    adj.push(w);
                }
            };
            push(x > 0, v.wrapping_sub(1));
            push(x + 1 < SIDE, v + 1);
            push(y > 0, v.wrapping_sub(SIDE));
            push(y + 1 < SIDE, v + SIDE);
            offsets.push(adj.len() as u32);
        }
        Kernel {
            offsets,
            adj,
            stamp: vec![0; n as usize],
            round: 0,
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Seconds one fixed unit of work takes right now.
    fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let n = SIDE * SIDE;
        let mut reached = 0u64;
        for s in 0..SOURCES {
            self.round += 1;
            let src = (s * 7919) % n;
            self.frontier.clear();
            self.frontier.push(src);
            self.stamp[src as usize] = self.round;
            for _ in 0..RADIUS {
                self.next.clear();
                for &u in &self.frontier {
                    let (a, b) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
                    for &w in &self.adj[a as usize..b as usize] {
                        if self.stamp[w as usize] != self.round {
                            self.stamp[w as usize] = self.round;
                            self.next.push(w);
                        }
                    }
                }
                reached += self.next.len() as u64;
                std::mem::swap(&mut self.frontier, &mut self.next);
            }
        }
        std::hint::black_box(reached);
        t0.elapsed().as_secs_f64()
    }
}

/// Kernel runs taken on the measuring thread itself, right before and
/// after each measured operation: a single-threaded workload stays on
/// one CPU, whose contention another thread's samples would miss.
pub struct Yardstick {
    kernel: Kernel,
    samples: Vec<(Instant, f64)>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        Yardstick {
            kernel: Kernel::new(),
            samples: Vec::new(),
        }
    }

    /// Takes samples now.
    pub fn mark(&mut self) {
        for _ in 0..RUNS_PER_MARK {
            let at = Instant::now();
            let s = self.kernel.run();
            self.samples.push((at, s));
        }
    }

    pub fn into_speed(self) -> Speed {
        Speed {
            samples: self.samples,
        }
    }
}

/// The recorded kernel times, in time order.
pub struct Speed {
    samples: Vec<(Instant, f64)>,
}

impl Speed {
    /// Median kernel time over the samples within [`WINDOW`] of the
    /// interval (the nearest sample when none is).
    fn kernel_s(&self, from: Instant, to: Instant) -> f64 {
        let lo = self.samples.partition_point(|(t, _)| *t + WINDOW < from);
        let hi = self.samples.partition_point(|(t, _)| *t <= to + WINDOW);
        let mut v: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        if v.is_empty() {
            let i = lo.min(self.samples.len().saturating_sub(1));
            v.extend(self.samples.get(i).map(|s| s.1));
        }
        crate::report::median(&v)
    }

    /// `secs` measured from `from`, scaled to the reference speed.
    pub fn scale(&self, from: Instant, secs: f64) -> f64 {
        let k = self.kernel_s(from, from + Duration::from_secs_f64(secs.max(0.0)));
        if k > 0.0 {
            secs * REFERENCE_S / k
        } else {
            secs
        }
    }

    /// Median kernel time over the whole run, in seconds.
    pub fn median_kernel_s(&self) -> f64 {
        crate::report::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}
