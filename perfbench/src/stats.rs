//! Summary statistics under the benchmark's percentile rule.

use std::ops::Range;
use std::time::{Duration, Instant};

/// A percentile as the benchmark reports it: the requested percentile,
/// lowered to the highest one that still has at least
/// [`MIN_BEYOND`] samples above it (but never below the median), with
/// the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at the effective percentile (nearest rank).
    pub value: f64,
    /// The percentile actually read, in `[50, requested]`.
    pub percentile: f64,
    /// How many samples the reading rests on.
    pub samples: usize,
}

/// Samples a tail percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

/// Reads percentile `requested` (in `[50, 100)`) from `samples` under
/// the rule above, by nearest rank: the `p`-th percentile of `n` sorted
/// samples is the one at rank `⌈p·n/100⌉`. `None` when there are no
/// samples.
pub fn percentile(samples: &[f64], requested: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Rank n − MIN_BEYOND leaves exactly MIN_BEYOND samples above it.
    let supported = 100.0 * n.saturating_sub(MIN_BEYOND) as f64 / n as f64;
    let p = requested.min(supported).max(50.0);
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        percentile: p,
        samples: n,
    })
}

/// The median (nearest rank), or 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// The timed operations of a run, read on two clocks — the process
/// CPU clock the metrics use and the wall clock printed beside them —
/// grouped into windows, each one whole repetition of the workload's
/// fixed mix, with runs of the calibration kernel (see
/// [`crate::calibrate`]) between them.
#[derive(Default)]
pub struct Run {
    /// Each operation's time in ms on the CPU clock.
    pub cpu_ms: Vec<f64>,
    /// Each operation's time in ms on the wall clock.
    pub wall_ms: Vec<f64>,
    windows: Vec<Window>,
    /// Where the open window's operations start.
    window_start: usize,
    /// The kernel's times in ms, each with the number of operations
    /// recorded before it ran.
    kernels: Vec<(usize, f64)>,
    last_kernel: Option<Instant>,
}

/// One window: its operations, the work they did (checks or sweep
/// points) and the seconds they took on each clock.
struct Window {
    ops: Range<usize>,
    work: f64,
    cpu_s: f64,
    wall_s: f64,
}

/// What a run reads over its windows.
#[derive(Default)]
pub struct Reading {
    /// The operation times, in ms.
    pub latency_ms: Vec<f64>,
    /// The work over the seconds.
    pub throughput: f64,
    /// The scale of each block of windows (1 when unscaled).
    pub scales: Vec<f64>,
}

/// How often the calibration kernel runs between operations.
pub const KERNEL_EVERY: Duration = Duration::from_millis(250);

/// The shortest stretch of whole windows, in wall seconds, that one
/// scale covers: long enough for eight kernel runs, short enough to
/// follow the host's slow spells, which last seconds to minutes.
pub const BLOCK_S: f64 = 2.0;

impl Run {
    /// Records one operation.
    pub fn op(&mut self, cpu_ms: f64, wall_ms: f64) {
        self.cpu_ms.push(cpu_ms);
        self.wall_ms.push(wall_ms);
    }

    /// Runs the calibration kernel when [`KERNEL_EVERY`] has passed
    /// since it last ran. Called between operations, so the kernel
    /// samples the host's speed all through the run.
    pub fn calibrate_if_due(&mut self) {
        if self.last_kernel.is_none_or(|t| t.elapsed() >= KERNEL_EVERY) {
            self.kernel(crate::calibrate::kernel_ms());
            self.last_kernel = Some(Instant::now());
        }
    }

    /// Records a kernel run that took `ms`, after the operations so far.
    pub fn kernel(&mut self, ms: f64) {
        self.kernels.push((self.cpu_ms.len(), ms));
    }

    /// Opens a window: the operations recorded from now until it is
    /// closed belong to it. Operations outside every window (warm-up)
    /// are in no reading.
    pub fn open_window(&mut self) {
        self.window_start = self.cpu_ms.len();
    }

    /// Closes the open window, in which the operations did `work`
    /// (checks or sweep points). Its time is the sum of theirs, so the
    /// kernel runs between them are not in it.
    pub fn close_window(&mut self, work: f64) {
        let ops = self.window_start..self.cpu_ms.len();
        let seconds = |ms: &[f64]| ms.iter().sum::<f64>() / 1e3;
        self.windows.push(Window {
            cpu_s: seconds(&self.cpu_ms[ops.clone()]),
            wall_s: seconds(&self.wall_ms[ops.clone()]),
            ops,
            work,
        });
    }

    pub fn windows(&self) -> usize {
        self.windows.len()
    }

    /// The median of all the run's kernel runs, in ms.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.kernels.iter().map(|&(_, ms)| ms).collect::<Vec<_>>())
    }

    /// The windows, as ranges of indices, in blocks of consecutive
    /// windows that span at least [`BLOCK_S`]; a shorter tail joins the
    /// block before it.
    fn blocks(&self) -> Vec<Range<usize>> {
        let mut blocks: Vec<Range<usize>> = Vec::new();
        let (mut start, mut span) = (0, 0.0);
        for (i, window) in self.windows.iter().enumerate() {
            span += window.wall_s;
            if span >= BLOCK_S {
                blocks.push(start..i + 1);
                (start, span) = (i + 1, 0.0);
            }
        }
        if start < self.windows.len() {
            match blocks.last_mut() {
                Some(last) => last.end = self.windows.len(),
                None => blocks.push(start..self.windows.len()),
            }
        }
        blocks
    }

    /// The scale of a block of windows: the reference kernel time over
    /// the median of the kernel runs after the block's operations (or,
    /// when none ran there, of all the run's). A kernel run recorded
    /// after `after` operations ran right after operation `after − 1`.
    fn scale(&self, block: &Range<usize>) -> f64 {
        let ops = self.windows[block.start].ops.start..self.windows[block.end - 1].ops.end;
        let inside: Vec<f64> = self
            .kernels
            .iter()
            .filter(|&&(after, _)| after > 0 && ops.contains(&(after - 1)))
            .map(|&(_, ms)| ms)
            .collect();
        let kernel = if inside.is_empty() {
            self.kernel_ms()
        } else {
            median(&inside)
        };
        crate::calibrate::to_reference(kernel)
    }

    /// The reading over all windows: on the CPU clock scaled block by
    /// block to the reference speed, or unscaled on either clock.
    /// Interference from other tenants of the host comes in spells that
    /// slow every operation alike, and the kernel alike; scaling each
    /// block by its own kernel runs takes the spells out.
    pub fn read(&self, clock: Clock) -> Reading {
        let samples = match clock {
            Clock::Wall => &self.wall_ms,
            _ => &self.cpu_ms,
        };
        let (mut reading, mut work, mut seconds) = (Reading::default(), 0.0, 0.0);
        for block in self.blocks() {
            let scale = match clock {
                Clock::Scaled => self.scale(&block),
                _ => 1.0,
            };
            reading.scales.push(scale);
            for window in &self.windows[block] {
                let ms = &samples[window.ops.clone()];
                reading.latency_ms.extend(ms.iter().map(|ms| ms * scale));
                work += window.work;
                seconds += scale
                    * match clock {
                        Clock::Wall => window.wall_s,
                        _ => window.cpu_s,
                    };
            }
        }
        reading.throughput = ratio(work, seconds);
        reading
    }
}

/// The clock a [`Reading`] is on.
#[derive(Clone, Copy, PartialEq)]
pub enum Clock {
    /// The process CPU clock, scaled to the reference speed.
    Scaled,
    /// The process CPU clock as read.
    Cpu,
    /// The wall clock as read.
    Wall,
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the reader must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn supported_percentiles_are_read_as_asked() {
        let p = percentile(&ramp(100), 90.0).unwrap();
        assert_eq!((p.value, p.percentile, p.samples), (90.0, 90.0, 100));
        let p = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!((p.value, p.percentile), (990.0, 99.0));
        // Exactly ten samples lie above the reading.
        assert_eq!(
            ramp(1000).iter().filter(|&&x| x > p.value).count(),
            MIN_BEYOND
        );
    }

    #[test]
    fn thin_tails_fall_back_to_the_highest_supported_percentile() {
        // p99 of 100 samples has one sample beyond it; p90 has ten.
        let p = percentile(&ramp(100), 99.0).unwrap();
        assert_eq!((p.value, p.percentile, p.samples), (90.0, 90.0, 100));
        let p = percentile(&ramp(250), 99.0).unwrap();
        assert_eq!((p.value, p.percentile), (240.0, 96.0));
        assert_eq!(
            ramp(250).iter().filter(|&&x| x > p.value).count(),
            MIN_BEYOND
        );
    }

    #[test]
    fn each_block_of_windows_is_scaled_by_its_own_kernel_runs() {
        use crate::calibrate::REFERENCE_KERNEL_MS as K;
        let mut run = Run::default();
        // A warm-up operation outside every window, then twelve 0.5 s
        // windows of two 100 ms operations with a kernel run after
        // each; the host is twice as slow for the last four.
        run.op(1.0, 1.0);
        run.kernel(100.0 * K);
        for k in 0..12 {
            let slow = if k < 8 { 1.0 } else { 2.0 };
            run.open_window();
            for _ in 0..2 {
                run.op(100.0 * slow, 250.0);
                run.kernel(slow * K);
            }
            run.close_window(2.0);
        }
        assert_eq!(run.blocks(), vec![0..4, 4..8, 8..12]);
        let scaled = run.read(Clock::Scaled);
        assert_eq!(scaled.scales, vec![1.0, 1.0, 0.5]);
        assert_eq!(scaled.latency_ms, vec![100.0; 24]);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b;
        assert!(close(scaled.throughput, 10.0), "{}", scaled.throughput);
        let cpu = run.read(Clock::Cpu);
        assert_eq!(cpu.latency_ms.iter().filter(|&&ms| ms == 200.0).count(), 8);
        assert!(close(cpu.throughput, 24.0 / 3.2), "{}", cpu.throughput);
        assert!(close(run.read(Clock::Wall).throughput, 4.0));
    }

    #[test]
    fn a_short_tail_of_windows_joins_the_last_block() {
        let mut run = Run::default();
        for wall_s in [1.5, 1.0, 0.5, 2.5, 0.5] {
            run.open_window();
            run.op(1.0, 1e3 * wall_s);
            run.close_window(1.0);
        }
        assert_eq!(run.blocks(), vec![0..2, 2..5]);
        // One kernel run, in the last block: the first block, which has
        // none, takes the run's median.
        run.kernel(crate::calibrate::REFERENCE_KERNEL_MS);
        assert_eq!(run.read(Clock::Scaled).scales, vec![1.0, 1.0]);
    }

    #[test]
    fn small_samples_report_the_median() {
        let p = percentile(&ramp(5), 90.0).unwrap();
        assert_eq!((p.value, p.percentile, p.samples), (3.0, 50.0, 5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
    }
}
