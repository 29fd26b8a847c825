//! Monte Carlo fidelity estimation (beyond the paper).
//!
//! The paper's related work (Li et al., DAC'20) simulates noisy circuits
//! by sampling Kraus strings; the same idea yields an *estimator* for the
//! Jamiolkowski fidelity. Writing `F_J = Σᵢ tᵢ` with
//! `tᵢ = |tr(U†Eᵢ)|²/d²` and sampling strings `i` with probability
//! `pᵢ = Π` (per-site Kraus masses), the importance-weighted average
//!
//! ```text
//! F̂ = (1/N) Σ_{i ~ p} tᵢ / pᵢ
//! ```
//!
//! is unbiased with low variance precisely in the regime the paper
//! targets (light noise, where `tᵢ ≈ pᵢ`). Each sampled string costs one
//! miter contraction — and because light-noise sampling hits the same few
//! strings repeatedly, a per-string memo makes the expected cost a
//! handful of contractions regardless of `N`.
//!
//! This gives a third evaluation path between Algorithm I (exact,
//! exponential in noise sites) and Algorithm II (exact, doubled network):
//! approximate, with a reported standard error, at near-constant cost.
//!
//! It is Algorithm I with a different job list: the pair compiles
//! exactly as for Algorithm I (`Alg1Artifacts::compile`: template,
//! §IV-C passes, plan), and the distinct strings run on Algorithm I's
//! term engine as a fixed job list ([`crate::engine`]).

use crate::alg1::Alg1Artifacts;
use crate::engine::Jobs;
use crate::error::QaecError;
use crate::options::CheckOptions;
use crate::validate;
use qaec_circuit::Circuit;
use qaec_tdd::TddStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Outcome of a Monte Carlo fidelity estimation.
#[derive(Clone, Debug, PartialEq)]
pub struct McReport {
    /// The unbiased estimate `F̂`.
    pub estimate: f64,
    /// Standard error of the mean (0 when every sample hit the memo with
    /// identical ratios).
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: usize,
    /// Distinct Kraus strings actually contracted.
    pub distinct_strings: usize,
    /// Largest intermediate diagram, in nodes.
    pub max_nodes: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Decision-diagram statistics, merged across all workers.
    pub stats: TddStats,
}

/// Estimates `F_J(E, U)` by importance-sampled Kraus strings.
///
/// The sample stream is drawn up front (deterministic in `seed` alone,
/// whatever `options.threads` is), the distinct strings are contracted
/// on the work-stealing [`crate::engine`], and the estimator is then
/// replayed over the sample sequence in draw order. Every worker
/// contracts on a private manager, which glues weights along its own
/// interning history (tolerance ≈1e-10), so estimates at different
/// thread counts agree within that tolerance; at one thread the
/// estimate is a function of `seed` alone, bit for bit.
///
/// # Errors
///
/// As [`crate::fidelity_alg1`]: invalid inputs or an expired deadline.
///
/// # Example
///
/// ```
/// use qaec::alg_mc::fidelity_monte_carlo;
/// use qaec::CheckOptions;
/// use qaec_circuit::generators::{qft, QftStyle};
/// use qaec_circuit::noise_insertion::insert_random_noise;
/// use qaec_circuit::NoiseChannel;
///
/// let ideal = qft(3, QftStyle::DecomposedNoSwaps);
/// let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 4, 1);
/// let report = fidelity_monte_carlo(&ideal, &noisy, 500, 42, &CheckOptions::default())?;
/// assert!((report.estimate - 0.996).abs() < 0.01);
/// # Ok::<(), qaec::QaecError>(())
/// ```
pub fn fidelity_monte_carlo(
    ideal: &Circuit,
    noisy: &Circuit,
    samples: usize,
    seed: u64,
    options: &CheckOptions,
) -> Result<McReport, QaecError> {
    validate(ideal, noisy, None)?;
    let start = Instant::now();

    let artifacts = Alg1Artifacts::compile(ideal, noisy, options);
    let sites = &artifacts.template.sites;

    // Per-site cumulative mass tables for sampling.
    let cumulative: Vec<Vec<f64>> = sites
        .iter()
        .map(|site| {
            let mut acc = 0.0;
            site.masses
                .iter()
                .map(|&m| {
                    acc += m;
                    acc
                })
                .collect()
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let samples = samples.max(1);

    // Draw the whole sample stream first: the RNG sequence (and thus the
    // estimate) is fixed by `seed` alone, independent of thread count.
    let mut drawn: Vec<usize> = Vec::with_capacity(samples); // index into `distinct`
    let mut distinct: Vec<(Vec<usize>, f64)> = Vec::new(); // (string, probability)
    let mut memo: HashMap<Vec<usize>, usize> = HashMap::new();
    for _ in 0..samples {
        let mut choice = Vec::with_capacity(sites.len());
        let mut probability = 1.0f64;
        for (site, cum) in sites.iter().zip(&cumulative) {
            let total = *cum.last().unwrap_or(&1.0);
            let u: f64 = rng.gen_range(0.0..total);
            let idx = cum.partition_point(|&c| c <= u).min(site.masses.len() - 1);
            probability *= site.masses[idx];
            choice.push(idx);
        }
        let slot = *memo.entry(choice.clone()).or_insert_with(|| {
            distinct.push((choice, probability));
            distinct.len() - 1
        });
        drawn.push(slot);
    }

    // Contract each distinct string once, work-stolen across
    // `options.threads` workers.
    let outcome = artifacts
        .engine(&artifacts.template, options)
        .run(None, Jobs::Fixed(&distinct))?;
    let ratios: Vec<f64> = outcome
        .values
        .iter()
        .zip(&distinct)
        .map(|(&term, &(_, p))| if p > 0.0 { term / p } else { 0.0 })
        .collect();

    // Welford online mean/variance, replayed in draw order.
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    for (k, &slot) in drawn.iter().enumerate() {
        let ratio = ratios[slot];
        let delta = ratio - mean;
        mean += delta / (k + 1) as f64;
        m2 += delta * (ratio - mean);
    }

    let variance = if samples > 1 {
        m2 / (samples - 1) as f64
    } else {
        0.0
    };
    Ok(McReport {
        estimate: mean,
        std_error: (variance / samples as f64).sqrt(),
        samples,
        distinct_strings: distinct.len().max(1),
        max_nodes: outcome.max_nodes,
        elapsed: start.elapsed(),
        stats: outcome.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity_alg1;
    use qaec_circuit::generators::random_circuit;
    use qaec_circuit::noise_insertion::insert_random_noise;
    use qaec_circuit::NoiseChannel;

    fn opts() -> CheckOptions {
        CheckOptions::default()
    }

    #[test]
    fn unbiased_against_exact_value() {
        for seed in 0..3u64 {
            let ideal = random_circuit(2, 10, seed);
            let noisy =
                insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.95 }, 2, seed + 7);
            let exact = fidelity_alg1(&ideal, &noisy, None, &opts())
                .expect("exact")
                .fidelity_lower;
            let mc = fidelity_monte_carlo(&ideal, &noisy, 4000, seed, &opts()).expect("mc");
            let tolerance = (5.0 * mc.std_error).max(0.01);
            assert!(
                (mc.estimate - exact).abs() < tolerance,
                "seed {seed}: {} vs exact {exact} (se {})",
                mc.estimate,
                mc.std_error
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let ideal = random_circuit(2, 8, 1);
        let noisy = insert_random_noise(&ideal, &NoiseChannel::BitFlip { p: 0.9 }, 2, 2);
        // One worker: bitwise reproducibility is a single-manager
        // guarantee (work stealing makes the string→manager partition
        // scheduler-dependent, shifting results by the interning
        // tolerance).
        let seq = CheckOptions {
            threads: 1,
            ..opts()
        };
        let a = fidelity_monte_carlo(&ideal, &noisy, 200, 9, &seq).unwrap();
        let b = fidelity_monte_carlo(&ideal, &noisy, 200, 9, &seq).unwrap();
        // All deterministic fields agree (elapsed is wall-clock).
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.std_error, b.std_error);
        assert_eq!(a.distinct_strings, b.distinct_strings);
        let c = fidelity_monte_carlo(&ideal, &noisy, 200, 10, &seq).unwrap();
        assert_ne!(a.estimate, c.estimate);
    }

    #[test]
    fn noiseless_circuit_is_exact_with_one_string() {
        let c = random_circuit(3, 12, 4);
        let mc = fidelity_monte_carlo(&c, &c, 50, 0, &opts()).unwrap();
        assert!((mc.estimate - 1.0).abs() < 1e-9);
        assert_eq!(mc.distinct_strings, 1);
        assert!(mc.std_error < 1e-9);
    }

    #[test]
    fn light_noise_hits_the_memo() {
        // p = 0.999 on 5 sites: nearly every sample is the identity
        // string, so distinct strings ≪ samples.
        let ideal = random_circuit(3, 10, 5);
        let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 5, 6);
        let mc = fidelity_monte_carlo(&ideal, &noisy, 1000, 3, &opts()).unwrap();
        assert!(
            mc.distinct_strings < 30,
            "expected heavy memoization, got {} distinct strings",
            mc.distinct_strings
        );
        assert!(mc.estimate > 0.9);
    }

    #[test]
    fn deadline_respected() {
        let ideal = random_circuit(2, 8, 6);
        let noisy = insert_random_noise(&ideal, &NoiseChannel::BitFlip { p: 0.9 }, 2, 7);
        let options = CheckOptions {
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            ..CheckOptions::default()
        };
        assert_eq!(
            fidelity_monte_carlo(&ideal, &noisy, 100, 0, &options),
            Err(QaecError::Timeout)
        );
    }
}
