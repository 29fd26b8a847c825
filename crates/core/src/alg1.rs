//! Algorithm I: calculate trace terms individually.
//!
//! `F_J(E, U) = Σᵢ |tr(U†Eᵢ)|² / d²`, one miter contraction per Kraus
//! selection. The number of selections is exponential in the number of
//! noise sites, but:
//!
//! * the shared manager reuses unique/computed-table entries across terms
//!   (Table II's "Opt." configuration);
//! * terms can be enumerated best-first by probability mass, and
//!   Cauchy–Schwarz (`|tr(U†Eᵢ)|² ≤ d·tr(Eᵢ†Eᵢ)`) bounds the mass still
//!   outstanding, so an ε-decision can stop early in *both* directions —
//!   the paper's "calculate only a small part of these trace terms"
//!   future-work item;
//! * independent terms parallelize across threads (`threads > 1`) through
//!   the work-stealing [`crate::engine`], which composes with `epsilon`,
//!   `term_order`, `max_terms` and `deadline`;
//! * parallel workers share one concurrent decision-diagram store by
//!   default (`options.shared_table`), hash-consing sub-diagrams across
//!   threads — so parallel runs keep Table II's "Opt." structure sharing
//!   *and* every shared-store run returns bit-identical bounds/verdicts
//!   whatever the thread count (force the store on at `threads == 1`
//!   for a bit-comparable sequential reference; the `Auto` default
//!   keeps the private fast path there).

use crate::engine::TermEngine;
use crate::error::QaecError;
use crate::miter::{identity_map, Alg1Template};
use crate::optimize::{cancel_inverse_pairs, eliminate_swaps};
use crate::options::CheckOptions;
use crate::report::Verdict;
use crate::validate;
use qaec_circuit::Circuit;
use qaec_tdd::{SharedTddStore, TddStats};
use qaec_tensornet::{ContractionPlan, VarOrder};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of an Algorithm I run.
#[derive(Clone, Debug, PartialEq)]
pub struct Alg1Report {
    /// Proven lower bound on the fidelity (sum of computed terms).
    pub fidelity_lower: f64,
    /// Proven upper bound (lower + outstanding Kraus mass).
    pub fidelity_upper: f64,
    /// Terms actually contracted.
    pub terms_computed: usize,
    /// Total number of Kraus selections.
    pub total_terms: usize,
    /// Largest intermediate diagram, in nodes (Table I's `nodes`).
    pub max_nodes: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// The ε-decision, when a threshold was supplied.
    pub verdict: Option<Verdict>,
    /// Decision-diagram statistics, merged across all workers.
    pub stats: TddStats,
}

/// Computes the Jamiolkowski fidelity with Algorithm I.
///
/// With `epsilon = None` every term is evaluated (up to
/// `options.max_terms`) and the bounds coincide; with `Some(ε)` the run
/// stops as soon as ε-equivalence is decided either way. Both modes run
/// on `options.threads` work-stealing workers, which share the
/// enumerated term stream and stop together the moment a verdict, the
/// `max_terms` cap or the deadline lands.
///
/// # Errors
///
/// * [`QaecError::WidthMismatch`] / [`QaecError::IdealNotUnitary`] /
///   [`QaecError::InvalidEpsilon`] on invalid inputs;
/// * [`QaecError::Timeout`] if `options.deadline` expires.
pub fn fidelity_alg1(
    ideal: &Circuit,
    noisy: &Circuit,
    epsilon: Option<f64>,
    options: &CheckOptions,
) -> Result<Alg1Report, QaecError> {
    validate(ideal, noisy, epsilon)?;
    fidelity_alg1_prevalidated(ideal, noisy, epsilon, options)
}

/// [`fidelity_alg1`] minus input validation, for callers (the top-level
/// checker) that already validated once — so `check_equivalence` never
/// validates the same pair twice. One-shot: compiles the artifacts and
/// runs a single query; the reported `elapsed` covers both, as it always
/// has.
pub(crate) fn fidelity_alg1_prevalidated(
    ideal: &Circuit,
    noisy: &Circuit,
    epsilon: Option<f64>,
    options: &CheckOptions,
) -> Result<Alg1Report, QaecError> {
    let start = Instant::now();
    let artifacts = Alg1Artifacts::compile(ideal, noisy, options);
    let mut report = artifacts.run(epsilon, options, None)?;
    report.elapsed = start.elapsed();
    Ok(report)
}

/// The compiled, reusable part of an Algorithm I check: the miter
/// template (noise sites still substitutable), the SWAP-elimination wire
/// map, and the contraction plan + variable order shared by every Kraus
/// instantiation. Compiling once and querying many times is what the
/// session API ([`crate::Checker`]) amortises across ε- and
/// noise-sweeps.
#[derive(Clone, Debug)]
pub(crate) struct Alg1Artifacts {
    pub(crate) template: Alg1Template,
    final_map: Vec<usize>,
    pub(crate) plan: ContractionPlan,
    order: VarOrder,
    d2: f64,
}

impl Alg1Artifacts {
    /// Builds the template, applies the §IV-C optimisations, and plans
    /// the contraction — everything that does not depend on ε or the
    /// concrete Kraus weights. Planning uses the component-parallel
    /// planner on `options.threads` workers (the emitted plan is
    /// worker-count independent).
    ///
    /// Callers must have validated the circuit pair.
    pub(crate) fn compile(ideal: &Circuit, noisy: &Circuit, options: &CheckOptions) -> Self {
        let mut template = Alg1Template::build(ideal, noisy);
        let n_wires = template.n_wires;
        let final_map = if options.swap_elimination {
            eliminate_swaps(&mut template.elements, n_wires)
        } else {
            identity_map(n_wires)
        };
        if options.local_optimization {
            cancel_inverse_pairs(&mut template.elements, n_wires);
        }

        let d = (noisy.n_qubits() as f64).exp2();

        // Every instantiation shares the network structure, so the plan
        // and variable order come from the first term and are reused
        // throughout — including across noise-sweep re-instantiations.
        let first_choice = vec![0usize; template.sites.len()];
        let first = {
            let elements = template.instantiate(&first_choice);
            crate::miter::build_trace_network(&elements, n_wires, &final_map, options.var_order)
        };
        let plan = first
            .network
            .plan_parallel(options.strategy, options.threads.max(1));
        Alg1Artifacts {
            template,
            final_map,
            plan,
            order: first.order,
            d2: d * d,
        }
    }

    /// One query over the compiled artifacts (the compiled channels).
    pub(crate) fn run(
        &self,
        epsilon: Option<f64>,
        options: &CheckOptions,
        warm_store: Option<&Arc<SharedTddStore>>,
    ) -> Result<Alg1Report, QaecError> {
        self.run_template(&self.template, epsilon, options, warm_store)
    }

    /// One query over a re-instantiated template (a noise-sweep point):
    /// same element structure, new Kraus weights, same plan and order.
    pub(crate) fn run_template(
        &self,
        template: &Alg1Template,
        epsilon: Option<f64>,
        options: &CheckOptions,
        warm_store: Option<&Arc<SharedTddStore>>,
    ) -> Result<Alg1Report, QaecError> {
        let start = Instant::now();
        let total_terms = template.total_terms();
        let engine = TermEngine {
            template,
            final_map: &self.final_map,
            plan: &self.plan,
            order: &self.order,
            options,
            d2: self.d2,
            warm_store,
        };
        let outcome = engine.run(epsilon, total_terms)?;

        Ok(Alg1Report {
            fidelity_lower: outcome.lower.min(1.0 + 1e-9),
            fidelity_upper: (outcome.lower + outcome.remaining).min(1.0),
            terms_computed: outcome.terms_computed,
            total_terms,
            max_nodes: outcome.max_nodes,
            elapsed: start.elapsed(),
            verdict: outcome.verdict,
            stats: outcome.stats,
        })
    }

    /// Worker count a run over `total_terms` terms would use (bounds the
    /// shared-store resolution the session makes at compile time).
    pub(crate) fn workers(&self, options: &CheckOptions) -> usize {
        options
            .threads
            .max(1)
            .min(self.template.total_terms().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_circuit::generators::random_circuit;
    use qaec_circuit::noise_insertion::insert_random_noise;
    use qaec_circuit::NoiseChannel;

    #[test]
    fn report_carries_merged_stats() {
        let ideal = random_circuit(2, 8, 11);
        let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.95 }, 2, 12);
        let report = fidelity_alg1(&ideal, &noisy, None, &CheckOptions::default()).expect("run");
        assert!(report.stats.nodes_created > 0, "{:?}", report.stats);
        assert!(report.stats.cont_calls > 0);
        assert!(report.stats.peak_nodes > 0);
    }

    #[test]
    fn parallel_exact_honours_max_terms() {
        // Regression: the old fixed-chunk parallel path ignored
        // `max_terms` and collapsed the bounds to a point.
        let ideal = random_circuit(2, 8, 3);
        let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.9 }, 3, 5);
        let cap = 5usize;
        let capped = fidelity_alg1(
            &ideal,
            &noisy,
            None,
            &CheckOptions {
                threads: 4,
                max_terms: Some(cap),
                ..CheckOptions::default()
            },
        )
        .expect("capped parallel");
        assert_eq!(capped.terms_computed, cap);
        assert!(
            capped.fidelity_upper > capped.fidelity_lower + 1e-6,
            "capped bounds must stay open: [{}, {}]",
            capped.fidelity_lower,
            capped.fidelity_upper
        );
        let sequential = fidelity_alg1(
            &ideal,
            &noisy,
            None,
            &CheckOptions {
                max_terms: Some(cap),
                ..CheckOptions::default()
            },
        )
        .expect("capped sequential");
        assert_eq!(sequential.terms_computed, cap);
        assert!((capped.fidelity_lower - sequential.fidelity_lower).abs() < 1e-9);
        assert!((capped.fidelity_upper - sequential.fidelity_upper).abs() < 1e-9);
    }

    #[test]
    fn parallel_epsilon_matches_sequential_verdict() {
        let ideal = random_circuit(2, 10, 21);
        let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.97 }, 3, 22);
        for eps in [1e-2, 0.2] {
            let sequential =
                fidelity_alg1(&ideal, &noisy, Some(eps), &CheckOptions::default()).expect("seq");
            let parallel = fidelity_alg1(
                &ideal,
                &noisy,
                Some(eps),
                &CheckOptions {
                    threads: 4,
                    ..CheckOptions::default()
                },
            )
            .expect("par");
            assert_eq!(sequential.verdict, parallel.verdict, "ε = {eps}");
        }
    }
}
