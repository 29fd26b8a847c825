//! A fixed calibration kernel that measures how fast the machine is
//! running at the moment, and the scale that brings a time measured
//! now to the reference speed.
//!
//! On a shared host the speed of the same code moves by up to 1.5×
//! for minutes at a time, as other tenants load the caches and memory
//! the cores share; the process CPU clock slows with it. The kernel
//! does the kind of work the checker's hot loops do — probes and
//! inserts into a hash table of a few MB, and complex multiply-adds —
//! in this benchmark's own code, so no change to the checker changes
//! it. Run between the workload's operations, it slows with them.

use crate::clock::{cpu_now, cpu_since};
use std::cell::RefCell;
use std::collections::HashMap;

/// Table slots the kernel probes: a table of about 3 MB, past the
/// per-core caches, like a node store under a mid-sized contraction.
const SLOTS: u64 = 1 << 16;

/// The kernel's CPU time, in ms, at the reference speed: about its
/// median between the workloads' operations on a 2-core x86-64
/// container of a shared host. The timings the benchmark reports are
/// scaled to this speed.
pub const REFERENCE_KERNEL_MS: f64 = 9.0;

thread_local! {
    /// The kernel's table, allocated once: a fresh allocation of this
    /// size would be fresh pages, and page faults would then take much
    /// of the kernel's time.
    static TABLE: RefCell<HashMap<u64, (f64, f64)>> =
        RefCell::new(HashMap::with_capacity(SLOTS as usize));
}

/// Runs the kernel once and returns its CPU time in ms.
pub fn kernel_ms() -> f64 {
    TABLE.with(|table| run_kernel(&mut table.borrow_mut()))
}

fn run_kernel(table: &mut HashMap<u64, (f64, f64)>) -> f64 {
    table.clear();
    let start = cpu_now();
    let mut key = 0x9e37_79b9_7f4a_7c15u64;
    let (mut re, mut im) = (1.0f64, 0.0f64);
    for i in 0..2 * SLOTS {
        key ^= key << 13;
        key ^= key >> 7;
        key ^= key << 17;
        let (a, b) = *table.entry(key % SLOTS).or_insert((re, im));
        // (re + i·im) · (a + i·b), renormalised so it stays finite.
        let (r, s) = (re * a - im * b, re * b + im * a);
        let norm = (r * r + s * s).sqrt().max(1e-300);
        re = r / norm + 1e-3 * (i & 7) as f64;
        im = s / norm;
    }
    std::hint::black_box((re, im, table.len()));
    cpu_since(start) * 1e3
}

/// The factor that scales a time measured while the kernel took
/// `kernel_ms` (a median of its runs) to the reference speed.
pub fn to_reference(kernel_ms: f64) -> f64 {
    REFERENCE_KERNEL_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_takes_milliseconds() {
        let ms = kernel_ms();
        assert!(ms > 0.1 && ms < 1000.0, "{ms} ms");
        assert_eq!(to_reference(2.0 * REFERENCE_KERNEL_MS), 0.5);
    }
}
