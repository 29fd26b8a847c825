//! The process's CPU clock: the time the CPUs spent running this
//! process, the clock the end-to-end latency and throughput are read
//! from.
//!
//! On a shared virtual machine the wall clock also counts the time the
//! host runs other guests instead of this one (steal time); the process
//! CPU clock leaves that time out. The checker runs on one thread and
//! does no I/O in a timed operation, so otherwise the two clocks agree;
//! every run prints both. Contention that slows the CPU itself shows on
//! both clocks; [`crate::calibrate`] takes that out.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used so far, on all its threads.
pub fn cpu_now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for),
    // and `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU seconds used since `start`, a reading of [`cpu_now`].
pub fn cpu_since(start: Duration) -> f64 {
    cpu_now().saturating_sub(start).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    // Other tests run in this process meanwhile, so only a lower bound
    // holds.
    #[test]
    fn the_cpu_clock_counts_this_threads_work() {
        let (start, wall) = (cpu_now(), Instant::now());
        let mut x = 0u64;
        while wall.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spun = cpu_since(start);
        assert!(spun > 0.015, "spinning used only {spun} s of CPU");
    }
}
