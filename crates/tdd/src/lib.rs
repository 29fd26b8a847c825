//! Tensor Decision Diagrams (TDDs).
//!
//! A TDD (Hong et al., arXiv:2009.02618) represents a tensor over binary
//! index variables as a reduced, normalized, hash-consed decision diagram:
//! each internal node branches on one variable (under a fixed global
//! order), edges carry complex weights, and structurally identical
//! sub-diagrams are shared through a unique table. Tensor-network
//! contraction then works directly on the diagrams, with a *computed
//! table* memoizing every `add`/`cont` sub-call — the optimisation whose
//! effect the paper quantifies in Table II.
//!
//! The engine lives in [`TddManager`]:
//!
//! * [`weight`] — tolerance-canonical interning of complex edge weights,
//!   so that edges are two `u32`s and table lookups are exact, and the
//!   one first-come tolerance rule every interner uses;
//! * [`manager`] — normalization rules and the `TddStore` storage
//!   abstraction: a per-manager arena + unique table (the sequential
//!   fast path) or a handle onto a shared concurrent store. Private
//!   managers intern weights first come; owned and shared ones glue
//!   weights within one scope per leaf conversion and per plan step;
//! * [`store`] — the [`SharedTddStore`]: a lock-striped unique table and
//!   sharded exact-bits weight interning over append-only arenas, so the
//!   worker managers of a parallel run hash-cons sub-diagrams *across*
//!   threads and produce bit-identical results whatever the scheduling;
//! * [`ops`] — pointwise addition and contraction (multiply + sum out a
//!   set of variables, with ×2 factors for variables skipped by both
//!   operands);
//! * [`convert`] — dense tensor ↔ TDD conversion;
//! * [`driver`] — executes a [`qaec_tensornet::ContractionPlan`] on TDDs
//!   sequentially and records the node-count statistics reported in the
//!   paper's Table I (deadlines are honoured *inside* steps via an
//!   amortised probe in the `cont` recursion);
//! * [`par_driver`] — the plan-level parallel driver: a DAG scheduler
//!   dispatching independent plan steps critical-path-first to a worker
//!   pool over one shared store (or, for one worker, inline on the
//!   caller's owned store), bit-identical to sequential execution for
//!   every worker count — for a whole plan, or for a subset of its
//!   steps resumed from edges an earlier run kept;
//! * [`fxhash`] — the dependency-free Fx-style hasher behind every hot
//!   table (unique, computed, interning);
//! * [`gc`] — mark-compact garbage collection for long Algorithm I runs
//!   (a documented no-op on scoped stores, which reclaim by
//!   [`TddManager::compact`]).
//!
//! # Example
//!
//! ```
//! use qaec_math::{C64, Matrix};
//! use qaec_tensornet::{IndexId, Tensor, TensorNetwork, Strategy, VarOrder};
//! use qaec_tdd::TddManager;
//!
//! // tr(H·H) = 2 on the decision-diagram backend.
//! let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
//! let h = Matrix::from_rows(&[vec![s, s], vec![s, -s]]);
//! let mut net = TensorNetwork::new();
//! net.add(Tensor::from_matrix(&h, &[IndexId(1)], &[IndexId(0)]));
//! net.add(Tensor::from_matrix(&h, &[IndexId(0)], &[IndexId(1)]));
//! let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
//! let plan = net.plan(Strategy::MinFill);
//!
//! let mut manager = TddManager::new();
//! let result = qaec_tdd::driver::contract_network(&mut manager, &net, &plan, &order);
//! let value = manager.edge_scalar(result.root).expect("closed network");
//! assert!((value - C64::real(2.0)).abs() < 1e-9);
//! ```

pub mod convert;
pub mod dot;
pub mod driver;
pub mod fxhash;
pub mod gc;
pub mod manager;
pub mod ops;
pub mod par_driver;
pub mod store;
pub mod sync;
pub mod weight;

#[cfg(all(test, qaec_model))]
mod model_tests;

pub use driver::{
    contract_network, contract_network_opts, ContractionResult, DriverOptions, DriverTimeout,
};
pub use manager::{Edge, NodeId, TddManager, TddStats, DEADLINE_PROBE_INTERVAL};
pub use par_driver::{
    contract_network_parallel, contract_steps_parallel, run_on_workers, scale_free_loops,
    ParallelOptions, ParallelOutcome, StepOutcome, StepRun,
};
pub use store::{SharedTddStore, StoreEpoch};
pub use weight::{WeightId, WeightTable};
