//! Extension table (beyond the paper): accuracy and cost of the Monte
//! Carlo fidelity estimator against the exact algorithms.
//!
//! ```text
//! cargo run -p qaec-bench --release --bin mc_accuracy [--timeout SECS]
//! ```
//!
//! For each benchmark/noise-count pair: the exact fidelity (Algorithm
//! II), the MC estimate for growing sample counts, the signed error in
//! units of the reported standard error, and the number of distinct
//! Kraus strings actually contracted (the memo makes light-noise runs
//! nearly free).

use qaec::{fidelity_alg2, fidelity_monte_carlo, CheckOptions, QaecError};
use qaec_bench::{HarnessArgs, NOISE_SEED};
use qaec_circuit::generators::{bernstein_vazirani_all_ones, qft, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::NoiseChannel;
use std::time::Instant;

const USAGE: &str = "mc_accuracy [--timeout SECS]";

fn main() {
    let args = HarnessArgs::parse(USAGE);
    // Each run gets its own deadline, like the other binaries' cells.
    let opts = || CheckOptions {
        deadline: Some(Instant::now() + args.timeout),
        ..CheckOptions::default()
    };
    println!(
        "# Monte Carlo estimator vs exact fidelity (extension, timeout {}s)\n",
        args.timeout.as_secs()
    );
    println!(
        "{:<8} {:>3} {:>12} {:>8} {:>12} {:>10} {:>8} {:>8} {:>9}",
        "circuit", "k", "exact F", "N", "estimate", "std err", "err/se", "strings", "time"
    );

    let cases = [
        ("bv5", bernstein_vazirani_all_ones(5), 4usize),
        ("bv9", bernstein_vazirani_all_ones(9), 8),
        ("qft4", qft(4, QftStyle::DecomposedNoSwaps), 6),
        ("qft6", qft(6, QftStyle::DecomposedNoSwaps), 10),
    ];
    for (name, ideal, k) in cases {
        let noisy = insert_random_noise(
            &ideal,
            &NoiseChannel::Depolarizing { p: 0.999 },
            k,
            NOISE_SEED + k as u64,
        );
        let exact = match fidelity_alg2(&ideal, &noisy, &opts()) {
            Ok(report) => report.fidelity,
            Err(QaecError::Timeout) => {
                println!("{name:<8} {k:>3} {:>12}", "TO");
                continue;
            }
            Err(e) => panic!("{name}: Algorithm II failed: {e}"),
        };
        for samples in [200usize, 1000, 5000] {
            let start = Instant::now();
            let mc = match fidelity_monte_carlo(&ideal, &noisy, samples, 0xE57, &opts()) {
                Ok(mc) => mc,
                Err(QaecError::Timeout) => {
                    println!("{name:<8} {k:>3} {exact:>12.8} {samples:>8} {:>12}", "TO");
                    continue;
                }
                Err(e) => panic!("{name}: Monte Carlo failed: {e}"),
            };
            let sigmas = if mc.std_error > 0.0 {
                (mc.estimate - exact) / mc.std_error
            } else {
                0.0
            };
            println!(
                "{name:<8} {k:>3} {exact:>12.8} {samples:>8} {:>12.8} {:>10.2e} {sigmas:>8.2} {:>8} {:>8.1?}",
                mc.estimate,
                mc.std_error,
                mc.distinct_strings,
                start.elapsed()
            );
        }
    }
    println!(
        "\nerr/se should sit within ±3 for an honest estimator; `strings` stays\n\
         nearly flat in N because the memo absorbs repeated light-noise samples."
    );
}
