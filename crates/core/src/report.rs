//! Check verdicts and the unified equivalence report.

use qaec_tdd::TddStats;
use std::fmt;
use std::time::Duration;

/// The ε-equivalence decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `F_J(E, U) > 1 − ε` — the circuits are ε-equivalent.
    Equivalent,
    /// `F_J(E, U) ≤ 1 − ε`.
    NotEquivalent,
    /// The proven fidelity interval straddles `1 − ε`, so neither side
    /// is established. Only a forced Algorithm III session returns this
    /// (when its truncation-error interval is too wide at the requested
    /// ε); the exact backends, `Auto` included, never do.
    Inconclusive,
}

impl Verdict {
    /// The paper's Problem 1 decision, in **one** place: `F_J > 1 − ε`
    /// is [`Verdict::Equivalent`], anything else — including the exact
    /// boundary `F_J == 1 − ε` — is [`Verdict::NotEquivalent`].
    ///
    /// Every ε comparison in the checker routes through here (the
    /// one-shot [`crate::check_equivalence`], both algorithm arms, the
    /// term engine's two-sided early-termination bounds and the session
    /// API's cached-bound queries), so the boundary semantics cannot
    /// drift between paths.
    ///
    /// # Example
    ///
    /// ```
    /// use qaec::Verdict;
    ///
    /// assert_eq!(Verdict::decide(0.9025, 0.1), Verdict::Equivalent);
    /// // The boundary itself is NOT equivalent: F_J must *exceed* 1 − ε.
    /// assert_eq!(Verdict::decide(0.75, 0.25), Verdict::NotEquivalent);
    /// assert_eq!(Verdict::decide(1.0, 0.0), Verdict::NotEquivalent);
    /// ```
    #[inline]
    pub fn decide(fidelity: f64, epsilon: f64) -> Verdict {
        if fidelity > 1.0 - epsilon {
            Verdict::Equivalent
        } else {
            Verdict::NotEquivalent
        }
    }

    /// Decides ε-equivalence from a proven fidelity interval, or `None`
    /// when the bounds cannot decide: [`Verdict::Equivalent`] when even
    /// the lower bound clears the threshold, [`Verdict::NotEquivalent`]
    /// when even the upper bound fails it. For a point interval
    /// (`lower == upper`) this always decides, identically to
    /// [`Verdict::decide`].
    #[inline]
    pub fn decide_bounds(lower: f64, upper: f64, epsilon: f64) -> Option<Verdict> {
        if Verdict::decide(lower, epsilon) == Verdict::Equivalent {
            Some(Verdict::Equivalent)
        } else if Verdict::decide(upper, epsilon) == Verdict::NotEquivalent {
            Some(Verdict::NotEquivalent)
        } else {
            None
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Equivalent => write!(f, "equivalent"),
            Verdict::NotEquivalent => write!(f, "not equivalent"),
            Verdict::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// Which algorithm actually ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgorithmUsed {
    /// Per-term trace calculation (§IV-A).
    AlgorithmI,
    /// Collective doubled-network calculation (§IV-B).
    AlgorithmII,
    /// Approximate MPO contraction with a rigorous truncation-error
    /// interval (Algorithm III, crate `qaec-mpo`; runs only when forced).
    Mpo,
}

impl AlgorithmUsed {
    /// The serve-protocol wire name of the algorithm (`method` field of
    /// v1 responses): `"1"`, `"2"` or `"mpo"`.
    pub fn wire_name(self) -> &'static str {
        match self {
            AlgorithmUsed::AlgorithmI => "1",
            AlgorithmUsed::AlgorithmII => "2",
            AlgorithmUsed::Mpo => "mpo",
        }
    }
}

impl fmt::Display for AlgorithmUsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgorithmUsed::AlgorithmI => write!(f, "Algorithm I"),
            AlgorithmUsed::AlgorithmII => write!(f, "Algorithm II"),
            AlgorithmUsed::Mpo => write!(f, "Algorithm III (MPO)"),
        }
    }
}

/// The result of an ε-equivalence check.
#[derive(Clone, Debug, PartialEq)]
pub struct EquivalenceReport {
    /// The decision.
    pub verdict: Verdict,
    /// Proven fidelity interval at the moment of decision (a point for
    /// Algorithm II).
    pub fidelity_bounds: (f64, f64),
    /// The threshold that was checked.
    pub epsilon: f64,
    /// Which algorithm ran.
    pub algorithm: AlgorithmUsed,
    /// Trace terms contracted (1 for Algorithm II).
    pub terms_computed: usize,
    /// Total trace terms available (1 for Algorithm II).
    pub total_terms: usize,
    /// Largest intermediate diagram in nodes.
    pub max_nodes: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Decision-diagram statistics, merged across all workers.
    pub stats: TddStats,
    /// MPO truncation-error bound — half the interval width before
    /// clamping. `Some` only when Algorithm III ran.
    pub trunc_error: Option<f64>,
    /// Largest MPO bond dimension reached. `Some` only when
    /// Algorithm III ran.
    pub bond_max: Option<usize>,
    /// Always `None`: the agreement check of a retired `Auto` mode that
    /// ran MPO first and escalated to an exact backend. Kept so that
    /// code reading the field still builds.
    pub cross_check: Option<bool>,
}

impl fmt::Display for EquivalenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (ε = {}): F_J ∈ [{:.6}, {:.6}] via {} ({}/{} terms, {} nodes, {:.3?})",
            self.verdict,
            self.epsilon,
            self.fidelity_bounds.0,
            self.fidelity_bounds.1,
            self.algorithm,
            self.terms_computed,
            self.total_terms,
            self.max_nodes,
            self.elapsed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_pins_the_epsilon_boundary() {
        // Strictly above the threshold: equivalent.
        assert_eq!(Verdict::decide(0.9025, 0.1), Verdict::Equivalent);
        // Exactly on it (exact floats, no rounding): not equivalent.
        assert_eq!(Verdict::decide(0.75, 0.25), Verdict::NotEquivalent);
        assert_eq!(Verdict::decide(0.5, 0.5), Verdict::NotEquivalent);
        assert_eq!(Verdict::decide(1.0, 0.0), Verdict::NotEquivalent);
        assert_eq!(Verdict::decide(0.0, 1.0), Verdict::NotEquivalent);
        // Below: not equivalent.
        assert_eq!(Verdict::decide(0.89, 0.1), Verdict::NotEquivalent);
    }

    #[test]
    fn decide_bounds_is_two_sided() {
        assert_eq!(
            Verdict::decide_bounds(0.95, 0.99, 0.1),
            Some(Verdict::Equivalent)
        );
        assert_eq!(
            Verdict::decide_bounds(0.1, 0.85, 0.1),
            Some(Verdict::NotEquivalent)
        );
        assert_eq!(Verdict::decide_bounds(0.85, 0.95, 0.1), None);
        // Point intervals always decide, boundary included.
        assert_eq!(
            Verdict::decide_bounds(0.75, 0.75, 0.25),
            Some(Verdict::NotEquivalent)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Verdict::Equivalent.to_string(), "equivalent");
        assert_eq!(AlgorithmUsed::AlgorithmII.to_string(), "Algorithm II");
        let report = EquivalenceReport {
            verdict: Verdict::Equivalent,
            fidelity_bounds: (0.9, 0.95),
            epsilon: 0.2,
            algorithm: AlgorithmUsed::AlgorithmI,
            terms_computed: 3,
            total_terms: 16,
            max_nodes: 42,
            elapsed: Duration::from_millis(12),
            stats: TddStats::default(),
            trunc_error: None,
            bond_max: None,
            cross_check: None,
        };
        let text = report.to_string();
        assert!(text.contains("equivalent"));
        assert!(text.contains("3/16"));
        assert!(text.contains("42"));
    }

    #[test]
    fn inconclusive_and_mpo_display() {
        assert_eq!(Verdict::Inconclusive.to_string(), "inconclusive");
        assert_eq!(AlgorithmUsed::Mpo.to_string(), "Algorithm III (MPO)");
        assert_eq!(AlgorithmUsed::AlgorithmI.wire_name(), "1");
        assert_eq!(AlgorithmUsed::AlgorithmII.wire_name(), "2");
        assert_eq!(AlgorithmUsed::Mpo.wire_name(), "mpo");
    }
}
