//! Plan execution on the decision-diagram backend.

use crate::convert::from_tensor;
use crate::gc;
use crate::manager::{Edge, TddManager};
use crate::ops;
use qaec_tensornet::{ContractionPlan, PlanStep, TensorNetwork, VarOrder};
use std::time::Instant;

/// Outcome of contracting one network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContractionResult {
    /// Root edge of the final diagram (a terminal edge for fully closed
    /// networks; read with [`TddManager::edge_scalar`]).
    pub root: Edge,
    /// Largest node count over all intermediate diagrams — the `nodes`
    /// statistic of the paper's Table I.
    pub max_nodes: usize,
    /// Largest arena occupancy observed during this contraction.
    pub peak_arena: usize,
    /// Number of plan steps executed.
    pub steps: usize,
}

/// Error returned when a driver deadline expires mid-contraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriverTimeout;

impl std::fmt::Display for DriverTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "contraction deadline exceeded")
    }
}

impl std::error::Error for DriverTimeout {}

/// Execution knobs for [`contract_network_opts`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverOptions {
    /// When `Some(n)`, run a mark-compact GC between steps whenever the
    /// arena exceeds `n` nodes (clears the computed tables).
    pub gc_threshold: Option<usize>,
    /// Abort with [`DriverTimeout`] once this instant passes. Checked
    /// between steps *and* — via the manager's amortised probe (see
    /// [`TddManager::set_deadline`]) — inside the `cont` recursion, so
    /// even a single huge step fires with bounded overshoot.
    pub deadline: Option<Instant>,
}

/// Executes `plan` over `network` on TDDs with full execution options.
///
/// # Errors
///
/// [`DriverTimeout`] if the deadline expires between steps.
///
/// # Panics
///
/// Panics if the plan does not match the network or an index is missing
/// from `order`.
pub fn contract_network_opts(
    m: &mut TddManager,
    network: &TensorNetwork,
    plan: &ContractionPlan,
    order: &VarOrder,
    options: DriverOptions,
) -> Result<ContractionResult, DriverTimeout> {
    m.set_deadline(options.deadline);
    let result = drive(m, network, plan, order, options);
    m.set_deadline(None);
    result
}

fn drive(
    m: &mut TddManager,
    network: &TensorNetwork,
    plan: &ContractionPlan,
    order: &VarOrder,
    options: DriverOptions,
) -> Result<ContractionResult, DriverTimeout> {
    let mut slots: Vec<Option<Edge>> = network
        .tensors()
        .iter()
        .map(|t| Some(from_tensor(m, t, order)))
        .collect();
    slots.resize(plan.n_slots.max(slots.len()), None);

    let mut max_nodes = slots
        .iter()
        .flatten()
        .map(|&e| m.count_nodes(e))
        .max()
        .unwrap_or(1);
    let mut peak_arena = m.arena_len();

    for step in &plan.steps {
        if let Some(deadline) = options.deadline {
            if Instant::now() >= deadline {
                return Err(DriverTimeout);
            }
        }
        let result = match step {
            PlanStep::Contract {
                a,
                b,
                eliminate,
                result,
            } => {
                let ea = slots[*a].take().expect("operand a live");
                let eb = slots[*b].take().expect("operand b live");
                let mut levels: Vec<u32> = eliminate.iter().map(|&i| order.level(i)).collect();
                levels.sort_unstable();
                let set = m.intern_elim_set(levels);
                // One plan step = one weight scope (a no-op on a private
                // manager).
                m.begin_weight_scope();
                let e = ops::try_cont(m, ea, eb, set)?;
                slots[*result] = Some(e);
                e
            }
            PlanStep::SumOut {
                t,
                eliminate,
                result,
            } => {
                let et = slots[*t].take().expect("operand live");
                let mut levels: Vec<u32> = eliminate.iter().map(|&i| order.level(i)).collect();
                levels.sort_unstable();
                let set = m.intern_elim_set(levels);
                m.begin_weight_scope();
                let e = ops::try_cont(m, et, Edge::ONE, set)?;
                slots[*result] = Some(e);
                e
            }
        };
        max_nodes = max_nodes.max(m.count_nodes(result));
        peak_arena = peak_arena.max(m.arena_len());

        if let Some(threshold) = options.gc_threshold {
            // Scoped stores do not collect: they reclaim by compaction
            // at quiescent boundaries instead (`TddManager::compact`).
            if m.supports_gc() && m.arena_len() > threshold {
                let roots: Vec<Edge> = slots.iter().flatten().copied().collect();
                let kept = gc::collect(m, &roots);
                let mut it = kept.into_iter();
                for slot in slots.iter_mut() {
                    if slot.is_some() {
                        *slot = Some(it.next().expect("remapped root"));
                    }
                }
            }
        }
    }

    let mut root = (0..slots.len())
        .rev()
        .find_map(|i| slots[i].take())
        .unwrap_or(Edge::ONE);
    if plan.free_loops > 0 {
        m.begin_weight_scope();
        root = Edge {
            node: root.node,
            weight: m.wscale_real(root.weight, (plan.free_loops as f64).exp2()),
        };
    }
    Ok(ContractionResult {
        root,
        max_nodes,
        peak_arena,
        steps: plan.steps.len(),
    })
}

/// [`contract_network_opts`] with a GC threshold and no deadline.
pub fn contract_network_with(
    m: &mut TddManager,
    network: &TensorNetwork,
    plan: &ContractionPlan,
    order: &VarOrder,
    gc_threshold: Option<usize>,
) -> ContractionResult {
    contract_network_opts(
        m,
        network,
        plan,
        order,
        DriverOptions {
            gc_threshold,
            deadline: None,
        },
    )
    .expect("no deadline configured")
}

/// [`contract_network_with`] without garbage collection.
pub fn contract_network(
    m: &mut TddManager,
    network: &TensorNetwork,
    plan: &ContractionPlan,
    order: &VarOrder,
) -> ContractionResult {
    contract_network_with(m, network, plan, order, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_math::{Matrix, C64};
    use qaec_tensornet::{IndexId, Strategy, Tensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_unitary_2x2(rng: &mut StdRng) -> Matrix {
        // U3-style parameterization.
        let theta: f64 = rng.gen_range(0.0..std::f64::consts::PI);
        let phi: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
        let lambda: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
        let c = C64::real((theta / 2.0).cos());
        let s = C64::real((theta / 2.0).sin());
        Matrix::from_rows(&[
            vec![c, -(C64::cis(lambda) * s)],
            vec![C64::cis(phi) * s, C64::cis(phi + lambda) * c],
        ])
    }

    /// Random single-wire chains: TDD result must equal dense result.
    #[test]
    fn agrees_with_dense_backend_on_chains() {
        let mut rng = StdRng::seed_from_u64(97);
        for trial in 0..10 {
            let n = 3 + (trial % 4);
            let mut net = TensorNetwork::new();
            for k in 0..n {
                let input = IndexId(k as u32);
                let output = IndexId(((k + 1) % n) as u32);
                net.add(Tensor::from_matrix(
                    &random_unitary_2x2(&mut rng),
                    &[output],
                    &[input],
                ));
            }
            let order = VarOrder::from_sequence((0..n as u32).map(IndexId));
            for strategy in [
                Strategy::Sequential,
                Strategy::MinFill,
                Strategy::GreedySize,
            ] {
                let plan = net.plan(strategy);
                let dense = net.contract_dense(&plan).as_scalar().unwrap();
                let mut m = TddManager::new();
                let result = contract_network(&mut m, &net, &plan, &order);
                let got = m.edge_scalar(result.root).expect("scalar");
                assert!(
                    (got - dense).abs() < 1e-8,
                    "trial {trial} {strategy:?}: dense {dense} vs tdd {got}"
                );
                assert!(result.max_nodes >= 1);
            }
        }
    }

    #[test]
    fn two_qubit_network_with_open_indices() {
        // CX · CX = I with open boundary indices; verify via eval.
        let cx = {
            let (o, z) = (C64::ONE, C64::ZERO);
            Matrix::from_rows(&[
                vec![o, z, z, z],
                vec![z, o, z, z],
                vec![z, z, z, o],
                vec![z, z, o, z],
            ])
        };
        let mut net = TensorNetwork::new();
        // first CX: in (0,1) → out (2,3); second: in (2,3) → out (4,5)
        net.add(Tensor::from_matrix(
            &cx,
            &[IndexId(2), IndexId(3)],
            &[IndexId(0), IndexId(1)],
        ));
        net.add(Tensor::from_matrix(
            &cx,
            &[IndexId(4), IndexId(5)],
            &[IndexId(2), IndexId(3)],
        ));
        for i in [0u32, 1, 4, 5] {
            net.mark_open(IndexId(i));
        }
        let order = VarOrder::from_sequence((0..6).map(IndexId));
        let plan = net.plan(Strategy::MinFill);
        let mut m = TddManager::new();
        let result = contract_network(&mut m, &net, &plan, &order);
        // Result should be δ(0,4)·δ(1,5): identity on two qubits.
        for a in 0..2u8 {
            for b in 0..2u8 {
                for c in 0..2u8 {
                    for d in 0..2u8 {
                        let mut assignment = [0u8; 6];
                        assignment[0] = a;
                        assignment[1] = b;
                        assignment[4] = c;
                        assignment[5] = d;
                        let v = m.eval(result.root, &assignment);
                        let expected = if a == c && b == d {
                            C64::ONE
                        } else {
                            C64::ZERO
                        };
                        assert!((v - expected).abs() < 1e-9, "{a}{b}|{c}{d}");
                    }
                }
            }
        }
    }

    #[test]
    fn gc_threshold_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(101);
        let n = 6;
        let mut net = TensorNetwork::new();
        for k in 0..n {
            let input = IndexId(k as u32);
            let output = IndexId(((k + 1) % n) as u32);
            net.add(Tensor::from_matrix(
                &random_unitary_2x2(&mut rng),
                &[output],
                &[input],
            ));
        }
        let order = VarOrder::from_sequence((0..n as u32).map(IndexId));
        let plan = net.plan(Strategy::Sequential);
        let mut m1 = TddManager::new();
        let r1 = contract_network(&mut m1, &net, &plan, &order);
        let mut m2 = TddManager::new();
        let r2 = contract_network_with(&mut m2, &net, &plan, &order, Some(1));
        let v1 = m1.edge_scalar(r1.root).unwrap();
        let v2 = m2.edge_scalar(r2.root).unwrap();
        assert!((v1 - v2).abs() < 1e-9);
        assert!(m2.stats().gc_runs > 0, "tiny threshold must trigger GC");
    }

    #[test]
    fn deadline_mid_step_fires_with_bounded_overshoot() {
        // Regression: the deadline used to be checked only between plan
        // steps, so a plan whose *single* step was huge overran it by
        // the full step cost. With the in-recursion probe the driver
        // must abort well before the contraction completes.
        let mut rng = StdRng::seed_from_u64(33);
        let rank = 12u32;
        let idx: Vec<IndexId> = (0..rank).map(IndexId).collect();
        let random = |rng: &mut StdRng| {
            let data: Vec<C64> = (0..1usize << rank)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            qaec_tensornet::Tensor::from_flat(idx.clone(), data)
        };
        let mut net = TensorNetwork::new();
        net.add(random(&mut rng));
        net.add(random(&mut rng));
        let order = VarOrder::from_sequence(idx.iter().copied());
        let plan = net.plan(Strategy::Sequential);
        assert_eq!(plan.steps.len(), 1, "one huge step by construction");

        // Reference run: how long the full contraction takes here.
        let mut reference = TddManager::new();
        let started = Instant::now();
        let full = contract_network_opts(
            &mut reference,
            &net,
            &plan,
            &order,
            DriverOptions::default(),
        )
        .expect("no deadline");
        let total = started.elapsed();

        // Deadline at a fraction of that: the run must abort mid-step,
        // long before the full contraction cost. The cost is measured in
        // work, not wall time, so load on the machine cannot flip it:
        // the aborted run must have made fewer `cont` calls than the
        // full one.
        let mut m = TddManager::new();
        let started = Instant::now();
        let result = contract_network_opts(
            &mut m,
            &net,
            &plan,
            &order,
            DriverOptions {
                gc_threshold: None,
                deadline: Some(started + total / 20),
            },
        );
        assert_eq!(result.unwrap_err(), DriverTimeout);
        let (aborted, whole) = (m.stats().cont_calls, reference.stats().cont_calls);
        assert!(
            aborted < whole,
            "overshoot unbounded: {aborted} cont calls vs {whole} for the full contraction"
        );
        assert!(full.max_nodes > 1);
    }

    #[test]
    fn free_loops_scale_result() {
        let mut net = TensorNetwork::new();
        net.add(Tensor::delta(IndexId(0), IndexId(1)));
        net.close_index(IndexId(5));
        net.close_index(IndexId(6));
        let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
        let plan = net.plan(Strategy::Sequential);
        let mut m = TddManager::new();
        let result = contract_network(&mut m, &net, &plan, &order);
        // tr(I)·2·2 = 8.
        assert!((m.edge_scalar(result.root).unwrap() - C64::real(8.0)).abs() < 1e-9);
    }
}
