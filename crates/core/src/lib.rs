//! Approximate equivalence checking of noisy quantum circuits.
//!
//! Rust reproduction of Hong, Ying, Feng, Zhou & Li, *"Approximate
//! Equivalence Checking of Noisy Quantum Circuits"*, DAC 2021
//! (arXiv:2103.11595).
//!
//! An ideal circuit `U` and its noisy implementation `E = {Eᵢ}` are
//! **ε-equivalent** when their Jamiolkowski fidelity
//!
//! ```text
//! F_J(E, U) = (1/d²) · Σᵢ |tr(U† Eᵢ)|²        (d = 2^n)
//! ```
//!
//! exceeds `1 − ε`. This crate computes `F_J` by contracting miter-like
//! tensor networks on Tensor Decision Diagrams, with the paper's two
//! algorithms:
//!
//! * [`fidelity_alg1`] — one small trace network per Kraus selection, with
//!   a shared computed table, best-first term ordering and two-sided early
//!   termination: the right choice when noise sites are few;
//! * [`fidelity_alg2`] — a single doubled network
//!   (`tr((U†⊗Uᵀ)·M_E)`): the right choice when noise is everywhere;
//! * [`check_equivalence`] / [`jamiolkowski_fidelity`] — the one-shot
//!   entry points with automatic algorithm selection (thin wrappers over
//!   a single-query session);
//! * [`Checker`] / [`CompiledCheck`] — the compile-once session API:
//!   validation, algorithm selection, network construction and
//!   contraction planning run once, then ε-queries, ε-sweeps and
//!   noise sweeps reuse the compiled artifacts and one warm store;
//! * [`Service`] — the serving layer: a content-keyed, byte-budgeted
//!   LRU cache of compiled sessions with single-flight compilation,
//!   answering check/sweep request streams (what `qaec serve` runs);
//! * [`fidelity_monte_carlo`] — an importance-sampling estimator with
//!   reported standard errors, for when both exact algorithms are too
//!   expensive (beyond the paper);
//! * [`exact::check_unitary_equivalence`] — the noiseless (QCEC-style)
//!   problem, decided by a single miter trace.
//!
//! Optimisations from the paper's §IV-C — tree-decomposition contraction
//! orders, the shared computed table, cyclic local gate cancellation and
//! SWAP elimination — are all implemented and individually switchable
//! through [`CheckOptions`].
//!
//! # Example
//!
//! ```
//! use qaec::{check_equivalence, CheckOptions, Verdict};
//! use qaec_circuit::generators::{qft, QftStyle};
//! use qaec_circuit::noise_insertion::insert_random_noise;
//! use qaec_circuit::NoiseChannel;
//!
//! // A 3-qubit QFT with two random depolarizing faults (p = 0.999).
//! let ideal = qft(3, QftStyle::DecomposedNoSwaps);
//! let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 2, 7);
//! let report = check_equivalence(&ideal, &noisy, 0.01, &CheckOptions::default())?;
//! assert_eq!(report.verdict, Verdict::Equivalent);
//! # Ok::<(), qaec::QaecError>(())
//! ```

pub mod alg1;
pub mod alg2;
pub mod alg_mc;
pub mod checker;
pub mod engine;
pub mod error;
pub mod exact;
#[cfg(test)]
mod golden_bits;
#[cfg(test)]
mod golden_plans;
pub mod miter;
pub mod optimize;
pub mod options;
pub mod report;
pub mod service;
pub mod session;

pub use alg1::{fidelity_alg1, Alg1Report};
pub use alg2::{fidelity_alg2, Alg2Report};
pub use alg_mc::{fidelity_monte_carlo, McReport};
pub use checker::{
    auto_choice, check_equivalence, jamiolkowski_fidelity, mpo_favored, AUTO_TERM_THRESHOLD,
    MPO_WIDTH_THRESHOLD,
};
pub use error::QaecError;
pub use options::{
    default_shared_table, default_store_reclaim, default_threads, AlgorithmChoice, CheckOptions,
    SharedTableMode, StoreReclaimMode, TermOrder, VarOrderStyle,
};
pub use qaec_tdd::{SharedTddStore, StoreEpoch, TddStats};
pub use report::{AlgorithmUsed, EquivalenceReport, Verdict};
pub use service::{
    CacheOutcome, Service, ServiceConfig, ServiceQuery, ServiceReply, ServiceRequest,
    ServiceResponse, ServiceStats,
};
pub use session::{Checker, CompiledCheck, EpsilonPoint, SweepPoint};

use qaec_circuit::Circuit;

/// Shared input validation for both algorithms.
///
/// # Errors
///
/// [`QaecError::WidthMismatch`], [`QaecError::IdealNotUnitary`] or
/// [`QaecError::InvalidEpsilon`].
pub(crate) fn validate(
    ideal: &Circuit,
    noisy: &Circuit,
    epsilon: Option<f64>,
) -> Result<(), QaecError> {
    if ideal.n_qubits() != noisy.n_qubits() {
        return Err(QaecError::WidthMismatch {
            ideal: ideal.n_qubits(),
            noisy: noisy.n_qubits(),
        });
    }
    if !ideal.is_unitary() {
        return Err(QaecError::IdealNotUnitary);
    }
    if let Some(eps) = epsilon {
        validate_epsilon(eps)?;
    }
    Ok(())
}

/// The ε range check alone, for session queries on already-validated
/// circuit pairs (the comparison against the *fidelity* lives in
/// [`Verdict::decide`]; this only polices `ε ∈ [0, 1]`).
pub(crate) fn validate_epsilon(epsilon: f64) -> Result<(), QaecError> {
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(QaecError::InvalidEpsilon { value: epsilon });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_circuit::NoiseChannel;

    #[test]
    fn validation_catches_bad_inputs() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(matches!(
            validate(&a, &b, None),
            Err(QaecError::WidthMismatch { ideal: 2, noisy: 3 })
        ));

        let mut noisy_ideal = Circuit::new(2);
        noisy_ideal.noise(NoiseChannel::BitFlip { p: 0.9 }, &[0]);
        assert_eq!(
            validate(&noisy_ideal, &a, None),
            Err(QaecError::IdealNotUnitary)
        );

        assert_eq!(
            validate(&a, &a, Some(1.5)),
            Err(QaecError::InvalidEpsilon { value: 1.5 })
        );
        assert!(validate(&a, &a, Some(0.1)).is_ok());
    }
}
