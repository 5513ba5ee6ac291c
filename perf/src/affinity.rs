//! Pinning the benchmark thread to one CPU at a time (Linux).
//!
//! On the shared host each virtual CPU slows down independently, for
//! seconds to minutes, as other tenants load its physical core. A
//! single-threaded run stays on whichever CPU it started on, so a whole
//! run can land in one CPU's slow phase. Rotating passes over the
//! allowed CPUs and reporting the fastest decile of passes measures the
//! quietest CPU instead.

#![allow(unsafe_code)]

/// `cpu_set_t` as glibc defines it: 1024 bits.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, ascending; empty if unknown.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly `cpusetsize` bytes
    // that outlives the call; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; `false` if the kernel refused.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly `cpusetsize` bytes
    // that outlives the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
