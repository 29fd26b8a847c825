//! The top-level ε-equivalence checker.
//!
//! The free functions here are thin wrappers over a single-query
//! session: each call compiles a [`crate::CompiledCheck`] and runs one
//! query against it, so results and error precedence are identical to
//! building the session yourself — re-checking the same pair many times
//! (ε- or noise-sweeps) should go through [`crate::Checker`] instead,
//! which pays the compilation once.

use crate::error::QaecError;
use crate::options::CheckOptions;
use crate::report::{AlgorithmUsed, EquivalenceReport};
use crate::session::CompiledCheck;
use qaec_circuit::Circuit;
use std::time::Instant;

/// Kraus-term count at or below which the automatic algorithm choice
/// prefers Algorithm I (the paper's Fig. 7 crossover sits around one to
/// two noise sites, i.e. 4–16 depolarizing terms).
pub const AUTO_TERM_THRESHOLD: usize = 16;

/// Picks the exact algorithm [`crate::AlgorithmChoice::Auto`] runs on a
/// pair whose qubit-interaction graph is connected: Algorithm I up to
/// [`AUTO_TERM_THRESHOLD`] Kraus terms, Algorithm II above. A pair that
/// splits into several components runs every distinct component on
/// Algorithm II instead.
pub fn auto_choice(noisy: &Circuit) -> AlgorithmUsed {
    if noisy.kraus_term_count() <= AUTO_TERM_THRESHOLD {
        AlgorithmUsed::AlgorithmI
    } else {
        AlgorithmUsed::AlgorithmII
    }
}

/// The connected components of the pair's qubit-interaction graph, in
/// which every multi-qubit gate or noise instruction of either circuit
/// links its qubits. Each component lists its qubits in ascending order,
/// and the components come in the order of their first qubit.
///
/// No instruction spans two components, so the miter is a tensor product
/// over them and `F_J` is the product of the components' `F_J`.
pub(crate) fn components(ideal: &Circuit, noisy: &Circuit) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let n = noisy.n_qubits();
    let mut parent: Vec<usize> = (0..n).collect();
    for inst in ideal.iter().chain(noisy.iter()) {
        for pair in inst.qubits.windows(2) {
            let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
            parent[a.max(b)] = a.min(b);
        }
    }
    // Each root is its component's smallest qubit (unions keep the
    // smaller root), so indexing by root orders the components.
    let mut components = vec![Vec::new(); n];
    for q in 0..n {
        components[find(&mut parent, q)].push(q);
    }
    components.retain(|qubits| !qubits.is_empty());
    components
}

/// Computes the Jamiolkowski fidelity `F_J(E, U)` between an ideal
/// circuit and its noisy implementation.
///
/// # Errors
///
/// See [`crate::fidelity_alg1`] / [`crate::fidelity_alg2`].
///
/// # Example
///
/// ```
/// use qaec::{jamiolkowski_fidelity, CheckOptions};
/// use qaec_circuit::{Circuit, NoiseChannel};
///
/// // The paper's Example 3: F_J = p².
/// let p = 0.95;
/// let mut noisy = Circuit::new(2);
/// noisy.h(0)
///     .noise(NoiseChannel::BitFlip { p }, &[1])
///     .cp(std::f64::consts::FRAC_PI_2, 1, 0)
///     .noise(NoiseChannel::PhaseFlip { p }, &[0])
///     .h(1)
///     .swap(0, 1);
/// let f = jamiolkowski_fidelity(&noisy.ideal(), &noisy, &CheckOptions::default())?;
/// assert!((f - p * p).abs() < 1e-9);
/// # Ok::<(), qaec::QaecError>(())
/// ```
pub fn jamiolkowski_fidelity(
    ideal: &Circuit,
    noisy: &Circuit,
    options: &CheckOptions,
) -> Result<f64, QaecError> {
    // A single-query session: validate once, compile once, ask once.
    crate::validate(ideal, noisy, None)?;
    CompiledCheck::compile_prevalidated(ideal, noisy, options.clone()).fidelity()
}

/// Decides the paper's Problem 1: is the noisy circuit ε-equivalent to
/// the ideal one, i.e. `F_J(E, U) > 1 − ε`?
///
/// # Errors
///
/// * [`QaecError::InvalidEpsilon`] if `epsilon ∉ [0, 1]`;
/// * plus everything [`jamiolkowski_fidelity`] can return.
///
/// # Example
///
/// ```
/// use qaec::{check_equivalence, CheckOptions, Verdict};
/// use qaec_circuit::{Circuit, NoiseChannel};
///
/// let p = 0.95; // F_J = p² = 0.9025
/// let mut noisy = Circuit::new(2);
/// noisy.h(0)
///     .noise(NoiseChannel::BitFlip { p }, &[1])
///     .cp(std::f64::consts::FRAC_PI_2, 1, 0)
///     .noise(NoiseChannel::PhaseFlip { p }, &[0])
///     .h(1)
///     .swap(0, 1);
/// let ideal = noisy.ideal();
/// // ε = 0.1: 0.9025 > 0.9 → equivalent (the paper's example decision).
/// let report = check_equivalence(&ideal, &noisy, 0.1, &CheckOptions::default())?;
/// assert_eq!(report.verdict, Verdict::Equivalent);
/// // ε = 0.05: 0.9025 ≤ 0.95 → not equivalent.
/// let report = check_equivalence(&ideal, &noisy, 0.05, &CheckOptions::default())?;
/// assert_eq!(report.verdict, Verdict::NotEquivalent);
/// # Ok::<(), qaec::QaecError>(())
/// ```
pub fn check_equivalence(
    ideal: &Circuit,
    noisy: &Circuit,
    epsilon: f64,
    options: &CheckOptions,
) -> Result<EquivalenceReport, QaecError> {
    // Validation runs exactly once per call, before either arm, so both
    // algorithms reject invalid inputs with identical error precedence
    // (width mismatch, then non-unitary ideal, then bad epsilon). The
    // body is a single-query session; the ε comparison itself lives in
    // [`Verdict::decide`], shared with every session query.
    crate::validate(ideal, noisy, Some(epsilon))?;
    let start = Instant::now();
    let mut compiled = CompiledCheck::compile_prevalidated(ideal, noisy, options.clone());
    let mut report = compiled.check_prevalidated(epsilon)?;
    // One-shot elapsed covers compilation + query, as it always has.
    report.elapsed = start.elapsed();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::AlgorithmChoice;
    use crate::report::Verdict;
    use qaec_circuit::NoiseChannel;

    /// Regression: the ε comparison used to live in three places (the
    /// checker's two arms and the engine's early-exit bounds), so the
    /// exact boundary `F_J == 1 − ε` could in principle decide
    /// differently per path. It now lives only in [`Verdict::decide`]:
    /// the boundary must yield `NotEquivalent` identically via
    /// `check_equivalence`, `CompiledCheck::verdict` and both forced
    /// algorithm arms.
    #[test]
    fn epsilon_boundary_is_not_equivalent_on_every_path() {
        // A noiseless identity pair: F_J is *exactly* 1.0 on both
        // algorithms (exact weight arithmetic — Algorithm I on its
        // private store, Algorithm II on the shared one), so ε = 0 puts
        // every path exactly on the boundary. The comparison under
        // regression, `Verdict::decide`, is the single one every backend
        // shares.
        let mut ideal = Circuit::new(2);
        ideal.h(0).cx(0, 1);
        let noisy = ideal.clone();
        for algorithm in [
            AlgorithmChoice::Auto,
            AlgorithmChoice::AlgorithmI,
            AlgorithmChoice::AlgorithmII,
        ] {
            let options = CheckOptions {
                algorithm,
                threads: 1,
                ..CheckOptions::default()
            };
            let report = check_equivalence(&ideal, &noisy, 0.0, &options).expect("check");
            assert_eq!(
                (report.verdict, report.fidelity_bounds.0),
                (Verdict::NotEquivalent, 1.0),
                "one-shot, {algorithm:?}: F_J == 1 − ε must NOT be equivalent"
            );
            let mut compiled = crate::Checker::new(&ideal, &noisy)
                .options(options.clone())
                .compile()
                .expect("compile");
            assert_eq!(
                compiled.verdict(0.0).expect("verdict"),
                Verdict::NotEquivalent,
                "session, {algorithm:?}"
            );
            // Strictly above the boundary the same fidelity is accepted.
            assert_eq!(
                compiled.verdict(1e-12).expect("verdict"),
                Verdict::Equivalent,
                "session off-boundary, {algorithm:?}"
            );
        }
    }

    /// [`components`] links the qubits of both circuits' multi-qubit
    /// instructions, and keeps idle qubits apart.
    #[test]
    fn components_cover_both_circuits() {
        use qaec_circuit::generators::{qft, tile, QftStyle};
        let tiled = tile(&qft(3, QftStyle::DecomposedNoSwaps), 3);
        let blocks = vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]];
        assert_eq!(components(&tiled, &tiled), blocks);
        let joined = vec![vec![0, 1, 2, 6, 7, 8], vec![3, 4, 5]];
        let mut noisy = tiled.clone();
        noisy.noise(NoiseChannel::TwoQubitDepolarizing { p: 0.99 }, &[7, 1]);
        assert_eq!(components(&tiled, &noisy), joined);
        let mut ideal = tiled.clone();
        ideal.cx(2, 6);
        assert_eq!(components(&ideal, &tiled), joined);
        assert_eq!(
            components(&Circuit::new(2), &Circuit::new(2)),
            vec![vec![0], vec![1]]
        );
    }

    /// Regression: the Algorithm II arm used to validate twice (once in
    /// `check_equivalence`, once inside `fidelity_alg2`) while the
    /// Algorithm I arm validated only inside `fidelity_alg1`. Validation
    /// now runs exactly once, before either arm, so invalid inputs fail
    /// with identical error precedence whichever algorithm is forced.
    #[test]
    fn validation_precedence_is_identical_across_arms() {
        let two = Circuit::new(2);
        let three = Circuit::new(3);
        let mut noisy_ideal = Circuit::new(2);
        noisy_ideal.noise(NoiseChannel::BitFlip { p: 0.9 }, &[0]);
        let arms = [AlgorithmChoice::AlgorithmI, AlgorithmChoice::AlgorithmII];
        for algorithm in arms {
            let options = CheckOptions {
                algorithm,
                ..CheckOptions::default()
            };
            // Width mismatch beats a bad epsilon.
            assert_eq!(
                check_equivalence(&two, &three, 1.5, &options).unwrap_err(),
                QaecError::WidthMismatch { ideal: 2, noisy: 3 },
                "{algorithm:?}"
            );
            // A noisy ideal beats a bad epsilon.
            assert_eq!(
                check_equivalence(&noisy_ideal, &two, 1.5, &options).unwrap_err(),
                QaecError::IdealNotUnitary,
                "{algorithm:?}"
            );
            // With valid circuits the epsilon error surfaces.
            assert_eq!(
                check_equivalence(&two, &two, 1.5, &options).unwrap_err(),
                QaecError::InvalidEpsilon { value: 1.5 },
                "{algorithm:?}"
            );
        }
    }
}
