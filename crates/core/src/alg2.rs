//! Algorithm II: calculate all trace terms collectively.
//!
//! A single contraction of the doubled network computes
//! `Σᵢ |tr(U†Eᵢ)|² = tr((U† ⊗ Uᵀ) · M_E)` at the cost of twice the
//! qubits — the right trade when noise sites are plentiful (every gate on
//! a real device is noisy).
//!
//! ## Parallelism
//!
//! There are no independent trace terms to steal here, so `threads > 1`
//! parallelises *inside* the contraction: the plan's step DAG is
//! dispatched critical-path-first to a worker pool over one
//! [`SharedTddStore`] ([`qaec_tdd::par_driver`]). Because each step is
//! one weight scope — exact-bits interning, glued only within the
//! step — every step's result is a pure function of its operands, and
//! the fidelity and `max_nodes` are **bit-identical for every thread
//! count** — which is why Algorithm II always contracts on the shared
//! store, even at one worker (`--threads` stays a pure performance
//! knob). The shared arenas are append-only, so sessions bound their
//! footprint by store reclamation ([`crate::StoreReclaimMode`]), not by
//! the private store's mark-compact GC.
//!
//! ## The fold
//!
//! A noise sweep changes only the noise-site tensors of the doubled
//! network — a handful among thousands — so most plan steps compute the
//! same edge at every point. A session's first noise sweep contracts
//! every step whose operands do not depend on a noise site once, on its
//! warm store, and keeps the edges those steps hand to noise-dependent
//! steps (the *frontier*, an `Alg2Fold`). Each sweep point then
//! converts only its noise-site tensors and runs the remaining steps
//! from the frontier ([`qaec_tdd::contract_steps_parallel`]). Step purity
//! makes every edge, the fidelity and `max_nodes` bit-identical to a
//! cold one-shot check of the re-parameterised pair.

use crate::error::QaecError;
use crate::miter::{build_trace_network, identity_map, Alg2Template, BuiltNetwork, MiterElement};
use crate::optimize::{cancel_inverse_pairs, eliminate_swaps};
use crate::options::CheckOptions;
use crate::validate;
use qaec_circuit::{Circuit, NoiseChannel};
use qaec_math::C64;
use qaec_tdd::{
    contract_network_parallel, contract_steps_parallel, scale_free_loops, Edge, ParallelOptions,
    SharedTddStore, StepRun, TddManager, TddStats,
};
use qaec_tensornet::plan::{PlanCost, PlanGraph};
use qaec_tensornet::{ContractionPlan, PlanStep, Tensor};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of an Algorithm II run.
#[derive(Clone, Debug, PartialEq)]
pub struct Alg2Report {
    /// The Jamiolkowski fidelity (exact up to floating point).
    pub fidelity: f64,
    /// Largest intermediate diagram, in nodes (Table I's `nodes`).
    pub max_nodes: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Static cost estimates of the contraction plan.
    pub plan_cost: PlanCost,
    /// Decision-diagram statistics of the single contraction (merged
    /// across workers for parallel runs).
    pub stats: TddStats,
}

/// Computes the Jamiolkowski fidelity with Algorithm II.
///
/// # Errors
///
/// * [`QaecError::WidthMismatch`] / [`QaecError::IdealNotUnitary`] on
///   invalid inputs;
/// * [`QaecError::Timeout`] if `options.deadline` expires mid-contraction.
pub fn fidelity_alg2(
    ideal: &Circuit,
    noisy: &Circuit,
    options: &CheckOptions,
) -> Result<Alg2Report, QaecError> {
    validate(ideal, noisy, None)?;
    fidelity_alg2_prevalidated(ideal, noisy, options)
}

/// [`fidelity_alg2`] minus input validation, for callers (the top-level
/// checker) that already validated once — so `check_equivalence` never
/// validates the same pair twice. One-shot: compiles the doubled-network
/// artifacts and runs a single contraction; `elapsed` covers both.
pub(crate) fn fidelity_alg2_prevalidated(
    ideal: &Circuit,
    noisy: &Circuit,
    options: &CheckOptions,
) -> Result<Alg2Report, QaecError> {
    let start = Instant::now();
    let artifacts = Alg2Artifacts::compile(ideal, noisy, options);
    let mut report = artifacts.run(&SharedTddStore::new(), options)?;
    report.elapsed = start.elapsed();
    Ok(report)
}

/// The compiled, reusable part of an Algorithm II check: the base
/// network for the compiled channels, where each noise site sits, and
/// the contraction plan + variable order every sweep point shares. A
/// noise-sweep point replaces the noise-site tensors and contracts on
/// the *same* plan — no replanning.
#[derive(Clone, Debug)]
pub(crate) struct Alg2Artifacts {
    /// The compiled channel of each noise site, in site order.
    pub(crate) channels: Vec<NoiseChannel>,
    built: BuiltNetwork,
    pub(crate) plan: ContractionPlan,
    plan_cost: PlanCost,
    /// `(slot, site)` of every noise-site tensor in `built.network`.
    noise_slots: Vec<(usize, usize)>,
    d: f64,
}

/// The noise-free part of a compiled doubled network, contracted once on
/// one store generation: the edges the folded steps hand to
/// noise-dependent steps (the *frontier*). It lives beside the store
/// generation its edges point into; reclamation compacts the store with
/// the frontier as roots and remaps it ([`Alg2Fold::remapped`]).
pub(crate) struct Alg2Fold {
    split: Arc<FoldSplit>,
    /// The edges of `split.frontier`, in order.
    frontier: Vec<Edge>,
    /// Largest diagram among the folded steps and the conversions they
    /// made — part of every point's `max_nodes`.
    max_nodes: usize,
}

/// Which plan steps fold and which slots the fold keeps: a function of
/// the compiled plan and its noise sites alone, so it survives store
/// reclamation unchanged.
struct FoldSplit {
    graph: PlanGraph,
    /// Steps with an operand that depends on a noise site: run per
    /// point. The other steps run once, into the fold.
    residual: Vec<bool>,
    /// Noise-free slots a point run reads: operands of residual steps,
    /// plus the root and unconsumed inputs when they are noise-free.
    frontier: Vec<usize>,
    /// What a point run returns: the unconsumed inputs, then the root.
    keep: Vec<usize>,
}

impl fmt::Debug for Alg2Fold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Alg2Fold")
            .field("frontier", &self.frontier.len())
            .field("max_nodes", &self.max_nodes)
            .finish()
    }
}

impl Alg2Fold {
    /// The frontier edges, in the fold's store generation.
    pub(crate) fn frontier(&self) -> &[Edge] {
        &self.frontier
    }

    /// The same fold over a compacted store: `frontier` is this fold's
    /// frontier as [`SharedTddStore::compact`] remapped it.
    pub(crate) fn remapped(&self, frontier: Vec<Edge>) -> Alg2Fold {
        Alg2Fold {
            split: Arc::clone(&self.split),
            frontier,
            max_nodes: self.max_nodes,
        }
    }
}

impl Alg2Artifacts {
    /// Builds the doubled template, applies the §IV-C optimisations, and
    /// plans the contraction once. Planning uses the component-parallel
    /// planner on `options.threads` workers (tiled workloads' doubled
    /// networks decompose into independent components; the emitted plan
    /// is worker-count independent).
    ///
    /// Callers must have validated the circuit pair.
    pub(crate) fn compile(ideal: &Circuit, noisy: &Circuit, options: &CheckOptions) -> Self {
        let mut template = Alg2Template::build(ideal, noisy);
        let width = template.width;
        let final_map = if options.swap_elimination {
            eliminate_swaps(&mut template.elements, width)
        } else {
            identity_map(width)
        };
        if options.local_optimization {
            cancel_inverse_pairs(&mut template.elements, width);
        }

        let elements = template.instantiate(&template.channels);
        let built = build_trace_network(&elements, width, &final_map, options.var_order);
        let plan = built
            .network
            .plan_parallel(options.strategy, options.threads.max(1));
        let plan_cost = plan.cost(&built.network);
        // The network holds one tensor per miter element, in order.
        let noise_slots = template
            .elements
            .iter()
            .enumerate()
            .filter_map(|(slot, element)| match element {
                MiterElement::NoiseSite { site, .. } => Some((slot, *site)),
                MiterElement::Fixed { .. } => None,
            })
            .collect();
        Alg2Artifacts {
            channels: template.channels,
            built,
            plan,
            plan_cost,
            noise_slots,
            d: (noisy.n_qubits() as f64).exp2(),
        }
    }

    /// One contraction of the compiled (base) network on `store`.
    pub(crate) fn run(
        &self,
        store: &Arc<SharedTddStore>,
        options: &CheckOptions,
    ) -> Result<Alg2Report, QaecError> {
        let start = Instant::now();
        // Statistics fence: a warm (session-reused) store reports only
        // this contraction's allocation delta.
        let epoch = store.reset_between_runs();
        let outcome = contract_network_parallel(
            store,
            &self.built.network,
            &self.plan,
            &self.built.order,
            parallel(options),
        )
        .map_err(|_| QaecError::Timeout)?;
        let trace = TddManager::new_shared(store)
            .edge_scalar(outcome.result.root)
            .expect("closed network");
        let mut stats = outcome.stats;
        // Allocation counters are store-owned: merged exactly once.
        stats.merge(&store.stats_since(epoch));
        Ok(self.report(trace, outcome.result.max_nodes, stats, start))
    }

    /// One noise-sweep point on `store`: converts the point's
    /// noise-site tensors and runs the noise-dependent steps from
    /// `fold`, building the fold first when `fold` is `None` (the
    /// report's time and statistics then include it). Returns the fold
    /// for the caller to keep beside `store`.
    ///
    /// The fidelity and `max_nodes` are bit-identical to a cold one-shot
    /// check of the pair with these channels, at every thread count.
    pub(crate) fn run_folded(
        &self,
        store: &Arc<SharedTddStore>,
        fold: Option<Arc<Alg2Fold>>,
        channels: &[NoiseChannel],
        options: &CheckOptions,
    ) -> Result<(Alg2Report, Arc<Alg2Fold>), QaecError> {
        let start = Instant::now();
        // Statistics fence: a warm (session-reused) store reports only
        // this point's allocation delta.
        let epoch = store.reset_between_runs();
        let mut stats = TddStats::default();
        let fold = match fold {
            Some(fold) => fold,
            None => Arc::new(self.fold(store, options, &mut stats)?),
        };
        let split = &fold.split;
        let noise = self.noise_tensors(channels);
        let inputs = |slot: usize| {
            let k = self.noise_slots.iter().position(|&(s, _)| s == slot);
            &noise[k.expect("a point run converts only noise-site tensors")]
        };
        let resolved: Vec<(usize, Edge)> = split
            .frontier
            .iter()
            .copied()
            .zip(fold.frontier.iter().copied())
            .collect();
        let run = StepRun {
            steps: &split.residual,
            resolved: &resolved,
            keep: &split.keep,
        };
        let out = contract_steps_parallel(
            store,
            &self.plan,
            &split.graph,
            &inputs,
            &self.built.order,
            run,
            parallel(options),
        )
        .map_err(|_| QaecError::Timeout)?;
        stats.merge(&out.stats);
        let root = match split.graph.root_slot {
            Some(_) => *out.kept.last().expect("root kept"),
            None => Edge::ONE,
        };
        let root = scale_free_loops(store, root, self.plan.free_loops, &mut stats);
        let trace = TddManager::new_shared(store)
            .edge_scalar(root)
            .expect("closed network");
        // Allocation counters are store-owned: merged exactly once.
        stats.merge(&store.stats_since(epoch));
        let max_nodes = fold.max_nodes.max(out.max_nodes).max(1);
        let report = self.report(trace, max_nodes, stats, start);
        Ok((report, fold))
    }

    /// Contracts every step whose operands do not depend on a noise site
    /// on `store`, keeping the frontier edges; merges the work into
    /// `stats`.
    fn fold(
        &self,
        store: &Arc<SharedTddStore>,
        options: &CheckOptions,
        stats: &mut TddStats,
    ) -> Result<Alg2Fold, QaecError> {
        let split = Arc::new(self.split());
        let folded: Vec<bool> = split.residual.iter().map(|r| !r).collect();
        let inputs = |slot: usize| &self.built.network.tensors()[slot];
        let run = StepRun {
            steps: &folded,
            resolved: &[],
            keep: &split.frontier,
        };
        let out = contract_steps_parallel(
            store,
            &self.plan,
            &split.graph,
            &inputs,
            &self.built.order,
            run,
            parallel(options),
        )
        .map_err(|_| QaecError::Timeout)?;
        stats.merge(&out.stats);
        Ok(Alg2Fold {
            split,
            frontier: out.kept,
            max_nodes: out.max_nodes,
        })
    }

    /// Marks every slot that depends on a noise site, in plan order
    /// (steps come in topological order), and derives the fold's split.
    fn split(&self) -> FoldSplit {
        let graph = self.plan.graph(&self.built.network);
        let n_slots = self.plan.n_slots.max(graph.n_inputs);
        let mut noisy = vec![false; n_slots];
        for &(slot, _) in &self.noise_slots {
            noisy[slot] = true;
        }
        let mut read = vec![false; n_slots];
        let mut residual = vec![false; self.plan.steps.len()];
        for (i, step) in self.plan.steps.iter().enumerate() {
            let operands = match step {
                PlanStep::Contract { a, b, .. } => vec![*a, *b],
                PlanStep::SumOut { t, .. } => vec![*t],
            };
            if operands.iter().any(|&slot| noisy[slot]) {
                residual[i] = true;
                noisy[step.result()] = true;
                for slot in operands {
                    read[slot] = true;
                }
            }
        }
        let mut keep = graph.unconsumed_inputs.clone();
        keep.extend(graph.root_slot);
        for &slot in &keep {
            read[slot] = true;
        }
        FoldSplit {
            frontier: (0..n_slots).filter(|&s| read[s] && !noisy[s]).collect(),
            residual,
            keep,
            graph,
        }
    }

    /// The noise-site tensors of one sweep point, in `noise_slots`
    /// order: each channel's superoperator matrix over the base
    /// network's indices for its site.
    fn noise_tensors(&self, channels: &[NoiseChannel]) -> Vec<Tensor> {
        self.noise_slots
            .iter()
            .map(|&(slot, site)| {
                let base = &self.built.network.tensors()[slot];
                let (outs, ins) = base.indices().split_at(base.rank() / 2);
                Tensor::from_matrix(&channels[site].superop_matrix(), outs, ins)
            })
            .collect()
    }

    /// The report of one contraction with trace `trace`.
    fn report(&self, trace: C64, max_nodes: usize, stats: TddStats, start: Instant) -> Alg2Report {
        // Σ|tr(U†Eᵢ)|² is real and non-negative; the imaginary part is
        // round-off.
        let fidelity = (trace.re / (self.d * self.d))
            .clamp(0.0, 1.0 + 1e-9)
            .min(1.0);
        Alg2Report {
            fidelity,
            max_nodes,
            elapsed: start.elapsed(),
            plan_cost: self.plan_cost,
            stats,
        }
    }
}

/// The plan-driver knobs of `options`.
fn parallel(options: &CheckOptions) -> ParallelOptions {
    ParallelOptions {
        workers: options.threads.max(1),
        deadline: options.deadline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_circuit::generators::{quantum_volume, tile};
    use qaec_circuit::noise_insertion::insert_random_noise;
    use qaec_tdd::{contract_network_opts, DriverOptions};

    /// The tiled qv6x4_k8 workload (four 6-qubit QV blocks, 8
    /// depolarizing sites, Table I seed), compiled at one thread.
    fn qv6x4_k8() -> Alg2Artifacts {
        const NOISE_SEED: u64 = 0xDAC2021;
        let ideal = tile(&quantum_volume(6, 5, NOISE_SEED), 4);
        let noisy = insert_random_noise(
            &ideal,
            &NoiseChannel::Depolarizing { p: 0.999 },
            8,
            NOISE_SEED + 8,
        );
        let options = CheckOptions {
            threads: 1,
            ..CheckOptions::default()
        };
        Alg2Artifacts::compile(&ideal, &noisy, &options)
    }

    /// qv6x4_k8 leaves 4 workers room to run: its plan's total step cost
    /// is at least 4 times its critical path, both in the dense `2^rank`
    /// estimate the scheduler ranks by.
    #[test]
    fn tiled_plan_has_work_for_four_workers() {
        let artifacts = qv6x4_k8();
        let graph = artifacts.plan.graph(&artifacts.built.network);
        let critical_path = graph.priority.iter().copied().fold(0.0, f64::max);
        let parallelism = artifacts.plan_cost.dense_ops / critical_path;
        assert!(parallelism >= 4.0, "total / critical path = {parallelism}");
    }

    /// On qv6x4_k8, 1 and 4 workers report the same fidelity bits and
    /// `max_nodes`, and the shared store does the work of the private
    /// sequential driver on the same network, plan and order: equal
    /// `cont_calls` and `add_calls`, `nodes_created` within 1%, fidelity
    /// within 1e-9. Both shared runs account a store footprint whose
    /// peak is at least what is still held.
    #[test]
    fn qv6x4_shared_store_matches_private_work_at_any_thread_count() {
        let artifacts = qv6x4_k8();
        let shared = |threads| {
            let options = CheckOptions {
                threads,
                ..CheckOptions::default()
            };
            artifacts
                .run(&SharedTddStore::new(), &options)
                .expect("qv6x4_k8")
        };
        let private = || {
            let mut manager = TddManager::new();
            let driver = DriverOptions {
                gc_threshold: CheckOptions::default().gc_threshold,
                deadline: None,
            };
            let result = contract_network_opts(
                &mut manager,
                &artifacts.built.network,
                &artifacts.plan,
                &artifacts.built.order,
                driver,
            )
            .expect("private driver");
            let trace = manager.edge_scalar(result.root).expect("closed network");
            artifacts.report(trace, result.max_nodes, manager.stats(), Instant::now())
        };
        // The three runs are independent (a store each), so they run
        // side by side.
        let (t1, t4, private) = std::thread::scope(|scope| {
            let t4 = scope.spawn(|| shared(4));
            let private = scope.spawn(private);
            let t1 = shared(1);
            (
                t1,
                t4.join().expect("t4 run thread"),
                private.join().expect("private run thread"),
            )
        });
        assert_eq!(t1.fidelity.to_bits(), t4.fidelity.to_bits());
        assert_eq!((t1.max_nodes, t4.max_nodes), (448, 448));
        for shared in [&t1, &t4] {
            let stats = &shared.stats;
            assert!(stats.store_bytes > 0, "{stats:?}");
            assert!(stats.peak_store_bytes >= stats.store_bytes, "{stats:?}");
        }
        assert!(
            (t1.fidelity - private.fidelity).abs() < 1e-9,
            "shared {} vs private {}",
            t1.fidelity,
            private.fidelity
        );
        let (shared, private) = (&t1.stats, &private.stats);
        assert_eq!(shared.cont_calls, private.cont_calls);
        assert_eq!(shared.add_calls, private.add_calls);
        assert!(
            shared.nodes_created.abs_diff(private.nodes_created) * 100 <= private.nodes_created,
            "nodes created: shared {} vs private {}",
            shared.nodes_created,
            private.nodes_created
        );
    }
}
