//! Rotation of the benchmark thread over the CPUs it may run on.
//!
//! On a shared host the CPUs a run may use are not equally fast: on a 2-vCPU
//! VM, three back-to-back pairs of `cold_dynamic` runs pinned to one vCPU or
//! the other ran 7–12% apart, always the same vCPU ahead. The kernel keeps a
//! single busy thread on one CPU for long stretches, so a whole run could
//! land on the slow one. Moving the thread to the next allowed CPU every
//! [`PERIOD`] makes every run sample each of them for an equal share of its
//! time.

use std::time::{Duration, Instant};

/// How long the thread stays on one CPU. Long against the cache refill a
/// move costs, short against a run.
const PERIOD: Duration = Duration::from_millis(250);

pub struct CpuRotation {
    cpus: Vec<usize>,
    next: usize,
    since: Instant,
}

impl CpuRotation {
    /// A rotation over the CPUs the calling thread may run on.
    pub fn new() -> Self {
        let cpus = sys::allowed();
        println!("cpu rotation over {cpus:?} every {} ms", PERIOD.as_millis());
        Self {
            cpus,
            next: 0,
            since: Instant::now(),
        }
    }

    /// Moves the calling thread to the next CPU once [`PERIOD`] has passed
    /// since the last move. Call it between timed requests.
    pub fn tick(&mut self) {
        if self.cpus.len() < 2 || self.since.elapsed() < PERIOD {
            return;
        }
        self.next = (self.next + 1) % self.cpus.len();
        sys::pin(self.cpus[self.next]);
        self.since = Instant::now();
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words of a `cpu_set_t` (1024 bits).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on; empty if unknown.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of the size passed; pid 0 names
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
            .collect()
    }

    /// Pins the calling thread to `cpu`. A failed call leaves the thread
    /// where it was, which only skips one step of the rotation.
    pub fn pin(cpu: usize) {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of the size passed; pid 0 names
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}
