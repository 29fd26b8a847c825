//! Tensor networks over binary (qubit-wire) indices.
//!
//! A quantum circuit viewed as a tensor network — one tensor per gate,
//! with indices for the wire segments between gates — is the computational
//! object both checking algorithms of the paper contract. This crate
//! provides:
//!
//! * [`IndexId`] / [`VarOrder`] — global index identities and total orders
//!   over them (the decision-diagram engine requires a fixed variable
//!   order);
//! * [`Tensor`] — a dense complex tensor over binary indices, used as the
//!   reference contraction backend and for converting gate matrices;
//! * [`TensorNetwork`] — a bag of tensors plus the set of open indices;
//! * [`plan`] — contraction planning: sequential, greedy-size, and
//!   elimination-ordering-based plans derived from tree decompositions of
//!   the network's line graph (the paper's §IV-C, after Markov & Shi);
//! * [`elimination`] — min-degree / min-fill elimination orderings and
//!   tree decompositions with validity checking.
//!
//! # Example
//!
//! ```
//! use qaec_math::C64;
//! use qaec_tensornet::{IndexId, Tensor, TensorNetwork, plan::Strategy};
//!
//! // tr(X · X) = 2, as a two-tensor network: X[a,b] · X[b,a].
//! let a = IndexId(0);
//! let b = IndexId(1);
//! let x = |i, j| Tensor::from_flat(vec![i, j],
//!     vec![C64::ZERO, C64::ONE, C64::ONE, C64::ZERO]);
//! let mut net = TensorNetwork::new();
//! net.add(x(a, b));
//! net.add(x(b, a));
//! let plan = net.plan(Strategy::Sequential);
//! let result = net.contract_dense(&plan);
//! assert!((result.as_scalar().unwrap().re - 2.0).abs() < 1e-12);
//! ```

pub mod elimination;
pub mod index;
pub mod network;
pub mod plan;
pub mod tensor;

pub use index::{IndexId, VarOrder};
pub use network::TensorNetwork;
pub use plan::{ContractionPlan, PlanGraph, PlanStep, Strategy};
pub use tensor::Tensor;

/// A SplitMix64 draw below `bound`: seeded test inputs that are the
/// same on every platform.
#[cfg(test)]
pub(crate) fn splitmix(state: &mut u64, bound: u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % bound
}
