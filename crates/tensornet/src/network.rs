//! The tensor-network container and the dense contraction executor.

use crate::index::IndexId;
use crate::plan::{ContractionPlan, PlanStep, Strategy};
use crate::tensor::Tensor;
use qaec_math::C64;
use std::collections::BTreeSet;

/// A tensor network: a list of tensors plus bookkeeping about which
/// indices are *open* (must survive contraction) and which closed indices
/// exist even if no tensor touches them (bare wire loops, each worth a
/// factor 2 in a trace network).
///
/// # Example
///
/// ```
/// use qaec_math::{C64, Matrix};
/// use qaec_tensornet::{IndexId, Tensor, TensorNetwork, Strategy};
///
/// // tr(H·H) = 2.
/// let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
/// let h = Matrix::from_rows(&[vec![s, s], vec![s, -s]]);
/// let mut net = TensorNetwork::new();
/// net.add(Tensor::from_matrix(&h, &[IndexId(1)], &[IndexId(0)]));
/// net.add(Tensor::from_matrix(&h, &[IndexId(0)], &[IndexId(1)]));
/// let plan = net.plan(Strategy::MinFill);
/// let out = net.contract_dense(&plan);
/// assert!((out.as_scalar().unwrap().re - 2.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TensorNetwork {
    tensors: Vec<Tensor>,
    open: BTreeSet<IndexId>,
    closed_extra: BTreeSet<IndexId>,
}

impl TensorNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a tensor, returning its slot id.
    pub fn add(&mut self, tensor: Tensor) -> usize {
        self.tensors.push(tensor);
        self.tensors.len() - 1
    }

    /// Replaces the tensor in `slot` with one over the same indices, so
    /// every plan built for the network still applies; returns the old
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or the index lists differ.
    pub fn replace(&mut self, slot: usize, tensor: Tensor) -> Tensor {
        assert_eq!(
            self.tensors[slot].indices(),
            tensor.indices(),
            "a replacement tensor must keep the slot's indices"
        );
        std::mem::replace(&mut self.tensors[slot], tensor)
    }

    /// Marks an index as open: it survives contraction into the result.
    pub fn mark_open(&mut self, idx: IndexId) {
        self.open.insert(idx);
    }

    /// Registers a closed index that may touch no tensor at all (a bare
    /// traced wire); each such loop multiplies a trace value by 2.
    pub fn close_index(&mut self, idx: IndexId) {
        self.closed_extra.insert(idx);
    }

    /// Whether `idx` is open.
    pub fn is_open(&self, idx: IndexId) -> bool {
        self.open.contains(&idx)
    }

    /// The open indices.
    pub fn open_indices(&self) -> &BTreeSet<IndexId> {
        &self.open
    }

    /// Closed indices registered via [`TensorNetwork::close_index`].
    pub fn closed_indices(&self) -> &BTreeSet<IndexId> {
        &self.closed_extra
    }

    /// The tensors.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the network has no tensors.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// All distinct indices appearing in tensors.
    pub fn all_indices(&self) -> BTreeSet<IndexId> {
        let mut out = BTreeSet::new();
        for t in &self.tensors {
            out.extend(t.indices().iter().copied());
        }
        out
    }

    /// Builds a contraction plan (see [`Strategy`]).
    pub fn plan(&self, strategy: Strategy) -> ContractionPlan {
        ContractionPlan::build(self, strategy)
    }

    /// Builds a contraction plan with component-level parallel
    /// construction (see [`ContractionPlan::build_parallel`]): plans for
    /// disconnected components are built concurrently on up to `workers`
    /// threads and stitched. The resulting plan depends only on the
    /// network and strategy — `workers` never changes the emitted steps.
    pub fn plan_parallel(&self, strategy: Strategy, workers: usize) -> ContractionPlan {
        ContractionPlan::build_parallel(self, strategy, workers)
    }

    /// Executes a plan with the dense backend, returning the final tensor
    /// (rank 0 for a fully closed network). Bare wire loops contribute
    /// their powers of two to the result.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match this network (wrong slot ids).
    pub fn contract_dense(&self, plan: &ContractionPlan) -> Tensor {
        let mut slots: Vec<Option<Tensor>> = self.tensors.iter().cloned().map(Some).collect();
        slots.resize(plan.n_slots.max(slots.len()), None);
        for step in &plan.steps {
            match step {
                PlanStep::Contract {
                    a,
                    b,
                    eliminate,
                    result,
                } => {
                    let ta = slots[*a].take().expect("operand a live");
                    let tb = slots[*b].take().expect("operand b live");
                    slots[*result] = Some(ta.contract(&tb, eliminate));
                }
                PlanStep::SumOut {
                    t,
                    eliminate,
                    result,
                } => {
                    let tt = slots[*t].take().expect("operand live");
                    slots[*result] = Some(tt.contract(&Tensor::scalar(C64::ONE), eliminate));
                }
            }
        }
        let mut out = (0..slots.len())
            .rev()
            .find_map(|i| slots[i].take())
            .unwrap_or_else(|| Tensor::scalar(C64::ONE));
        if plan.free_loops > 0 {
            out = out.scale(C64::real((plan.free_loops as f64).exp2()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_math::Matrix;

    #[test]
    fn empty_network_contracts_to_one() {
        let net = TensorNetwork::new();
        let plan = net.plan(Strategy::Sequential);
        assert_eq!(net.contract_dense(&plan).as_scalar().unwrap(), C64::ONE);
    }

    #[test]
    fn bare_loops_multiply() {
        let mut net = TensorNetwork::new();
        net.close_index(IndexId(0));
        net.close_index(IndexId(1));
        let plan = net.plan(Strategy::Sequential);
        // Two untouched traced wires: tr(I⊗I) = 4.
        assert_eq!(
            net.contract_dense(&plan).as_scalar().unwrap(),
            C64::real(4.0)
        );
    }

    #[test]
    fn all_indices_collects() {
        let mut net = TensorNetwork::new();
        net.add(Tensor::delta(IndexId(3), IndexId(8)));
        net.add(Tensor::delta(IndexId(8), IndexId(5)));
        let all = net.all_indices();
        assert_eq!(
            all.into_iter().collect::<Vec<_>>(),
            vec![IndexId(3), IndexId(5), IndexId(8)]
        );
    }

    #[test]
    fn identity_chain_traces_to_dimension() {
        // tr(I) over a 3-tensor identity chain = 2.
        let mut net = TensorNetwork::new();
        net.add(Tensor::delta(IndexId(1), IndexId(0)));
        net.add(Tensor::delta(IndexId(2), IndexId(1)));
        net.add(Tensor::delta(IndexId(0), IndexId(2)));
        for strategy in [
            Strategy::Sequential,
            Strategy::GreedySize,
            Strategy::MinDegree,
            Strategy::MinFill,
        ] {
            let plan = net.plan(strategy);
            let out = net.contract_dense(&plan);
            assert_eq!(out.as_scalar().unwrap(), C64::real(2.0), "{strategy:?}");
        }
    }

    #[test]
    fn two_qubit_gate_trace() {
        // tr(SWAP) = 2: SWAP[o0,o1,i0,i1] with o=i.
        let swap = {
            let (o, z) = (C64::ONE, C64::ZERO);
            Matrix::from_rows(&[
                vec![o, z, z, z],
                vec![z, z, o, z],
                vec![z, o, z, z],
                vec![z, z, z, o],
            ])
        };
        // Duplicate indices within one tensor are rejected by design, so
        // the trace closure goes through explicit delta tensors, exactly
        // as the miter builder does.
        let mut net = TensorNetwork::new();
        net.add(Tensor::from_matrix(
            &swap,
            &[IndexId(2), IndexId(3)],
            &[IndexId(0), IndexId(1)],
        ));
        net.add(Tensor::delta(IndexId(2), IndexId(0)));
        net.add(Tensor::delta(IndexId(3), IndexId(1)));
        let plan = net.plan(Strategy::MinFill);
        let out = net.contract_dense(&plan);
        assert_eq!(out.as_scalar().unwrap(), C64::real(2.0));
    }
}
