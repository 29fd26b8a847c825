//! Configuration of the equivalence checker.

use qaec_tensornet::Strategy;
use std::time::Instant;

/// Which checking algorithm to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AlgorithmChoice {
    /// Exact, by one rule. A pair whose interaction graph splits into
    /// several disjoint components is answered as the product of its
    /// components' fidelities, each distinct component compiled once on
    /// Algorithm II; any other pair runs the algorithm
    /// [`crate::auto_choice`] picks from the number of Kraus terms (the
    /// paper's observed crossover). Never runs Algorithm III.
    #[default]
    Auto,
    /// Algorithm I: one trace network per Kraus selection.
    AlgorithmI,
    /// Algorithm II: a single doubled network.
    AlgorithmII,
    /// Algorithm III: approximate MPO contraction with a rigorous
    /// truncation-error interval (`qaec-mpo`). An interval straddling
    /// `1 − ε` yields [`crate::Verdict::Inconclusive`].
    Mpo,
}

/// Global variable orders for the decision diagrams.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VarOrderStyle {
    /// Indices sorted by `(qubit, circuit column)` — wires stay together.
    #[default]
    QubitMajor,
    /// Indices sorted by `(circuit column, qubit)` — time slices stay
    /// together.
    TimeMajor,
}

/// Has no effect: `Auto` is the only value. Kept so that struct
/// literals and `--shared-table auto` flags written for the retired
/// store switch stay valid. Each algorithm has one store: Algorithm I
/// and the Monte-Carlo estimator contract on private per-worker
/// managers, Algorithm II on the shared concurrent store (see
/// [`crate::fidelity_alg2`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SharedTableMode {
    /// The only mode: each algorithm uses its own store.
    #[default]
    Auto,
}

/// When a session retires its shared store for a compact successor
/// (epoch-based reclamation, [`qaec_tdd::SharedTddStore::successor`]).
///
/// The shared store's arenas are append-only: without reclamation a
/// long session — a Table I noise sweep, a service entry answering
/// queries for hours — pins every node and weight it ever interned
/// until the session drops. Reclamation swaps the store for a fresh
/// successor at *quiescent* batch boundaries (between sweep points /
/// queries, when no contraction holds ids into the store), releasing
/// the retired arenas while cumulative statistics, epoch fences and
/// peak high-water marks carry over.
///
/// Reclamation is value-transparent: interning is a pure function of
/// each scope's input values (exact bits, glued within the scope), and
/// no engine value ever depends on an id, so every
/// fidelity and verdict is bit-identical whichever mode runs. `Off`
/// remains the escape hatch that additionally keeps warm-store *reuse*
/// unconditional.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreReclaimMode {
    /// Reclaim when the store's payload passes a size threshold
    /// (~16 MiB): small sessions keep their warm store intact, big
    /// sweeps stop peaking at full-arena memory. The default.
    #[default]
    Auto,
    /// Reclaim at every quiescent boundary — minimal footprint, no
    /// warm-store reuse between points.
    On,
    /// Never reclaim (the pre-reclamation behaviour): the store grows
    /// monotonically until the session drops.
    Off,
}

/// The `Auto` reclamation trigger: retire the store once its payload
/// arenas pass this many bytes.
pub(crate) const RECLAIM_AUTO_THRESHOLD_BYTES: usize = 16 << 20;

impl StoreReclaimMode {
    /// Whether a store whose payload measures `approx_bytes` should be
    /// retired at the current quiescent boundary.
    pub fn should_reclaim(self, approx_bytes: usize) -> bool {
        match self {
            StoreReclaimMode::On => true,
            StoreReclaimMode::Off => false,
            StoreReclaimMode::Auto => approx_bytes >= RECLAIM_AUTO_THRESHOLD_BYTES,
        }
    }
}

/// Order in which Algorithm I enumerates Kraus selections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TermOrder {
    /// Descending probability mass (best-first): high-mass terms
    /// accumulate fidelity fastest, enabling early accept/reject — the
    /// paper's "calculate only a small part of these trace terms".
    #[default]
    BestFirst,
    /// Plain mixed-radix order (the paper's baseline behaviour).
    Lexicographic,
}

/// Tunables shared by both algorithms.
///
/// The defaults mirror the paper's experimental configuration: tree
/// decomposition (min-fill) contraction ordering and a shared computed
/// table, with the §IV-C local optimisations *disabled* (the paper
/// excludes them for fairness against Qiskit).
///
/// # Example
///
/// ```
/// use qaec::CheckOptions;
///
/// let opts = CheckOptions {
///     local_optimization: true,
///     swap_elimination: true,
///     ..CheckOptions::default()
/// };
/// assert!(opts.reuse_tables);
/// ```
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Which algorithm to run.
    pub algorithm: AlgorithmChoice,
    /// Contraction-order strategy (default: min-fill tree decomposition).
    pub strategy: Strategy,
    /// Decision-diagram variable order.
    pub var_order: VarOrderStyle,
    /// Keep one shared computed table across Algorithm I trace terms
    /// (the paper's "Opt." configuration of Table II).
    pub reuse_tables: bool,
    /// Cancel adjacent mutually-inverse gates in the miter, including
    /// cyclically across the trace boundary (§IV-C).
    pub local_optimization: bool,
    /// Remove SWAP gates by rewiring the trace closure (§IV-C).
    pub swap_elimination: bool,
    /// Kraus-term enumeration order for Algorithm I.
    pub term_order: TermOrder,
    /// Abort with [`crate::QaecError::Timeout`] past this instant.
    pub deadline: Option<Instant>,
    /// Arena size that triggers decision-diagram garbage collection.
    pub gc_threshold: Option<usize>,
    /// Worker threads. Algorithm I and the Monte-Carlo estimator steal
    /// independent trace terms (the paper notes they parallelize
    /// trivially), composing with `epsilon`, `term_order`, `max_terms`
    /// and `deadline`: decisions and term counts are those of the
    /// sequential run, and values agree across thread counts within the
    /// interning tolerance (≲1e-9). Algorithm II dispatches independent
    /// contraction *plan steps* to the pool instead (there is only one
    /// term), with bit-identical results at every thread count. Plan *construction*
    /// (one-shot calls and [`crate::Checker::compile`]) also plans
    /// disconnected network components concurrently on this many
    /// workers — the emitted plan is worker-count independent, so this
    /// stays a pure performance knob end to end.
    pub threads: usize,
    /// Cap on Algorithm I terms (None = all); bounds stay correct, they
    /// just stop tightening.
    pub max_terms: Option<usize>,
    /// Has no effect (see [`SharedTableMode`]): Algorithm I and Monte
    /// Carlo always run on private per-worker managers, Algorithm II
    /// always on the shared store.
    pub shared_table: SharedTableMode,
    /// Has no effect. Kept so that struct literals and `--seed-cache`
    /// flags written for the retired cross-worker contraction-cache
    /// seeding stay valid. Default: `true`.
    pub seed_cont_cache: bool,
    /// Has no effect. Kept so that struct literals and `--lanes` flags
    /// written for the multi-lane noise-sweep engine, which this crate
    /// no longer has, stay valid. Default: 8.
    pub sweep_lanes: usize,
    /// When the session retires its shared store for a compact
    /// successor (default: [`StoreReclaimMode::Auto`] — once the store
    /// passes ~16 MiB of payload — overridable via the
    /// `QAEC_STORE_RECLAIM` environment variable). Bit-transparent:
    /// every result is identical with reclamation on, off or auto.
    pub store_reclaim: StoreReclaimMode,
    /// Relative singular-value mass one Algorithm III truncation may
    /// discard (every discarded mass is charged to the reported error
    /// interval, so loosening this widens intervals rather than
    /// corrupting answers). Ignored by the exact backends. Default
    /// `1e-8`.
    pub svd_threshold: f64,
    /// Hard cap on Algorithm III bond dimension; overflow past the cap
    /// is likewise charged to the error interval. Ignored by the exact
    /// backends. Default `16`.
    pub max_bond: usize,
}

/// The default worker-thread count: the `QAEC_THREADS` environment
/// variable when set to a positive integer, else 1.
///
/// This is what [`CheckOptions::default`] uses, so exporting
/// `QAEC_THREADS=4` runs every default-configured check (including the
/// whole test suite) through the parallel engine — CI uses exactly that
/// as its thread-sanity pass.
pub fn default_threads() -> usize {
    std::env::var("QAEC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// The default store-reclamation mode: the `QAEC_STORE_RECLAIM`
/// environment variable when set (`on`/`1`/`true` reclaim at every
/// quiescent boundary, `off`/`0`/`false` never reclaim, `auto` the
/// size-triggered default), else [`StoreReclaimMode::Auto`].
///
/// This is what [`CheckOptions::default`] uses, so CI can force either
/// extreme for the whole suite — the `store-reclaim-sanity` matrix runs
/// a `QAEC_STORE_RECLAIM=on`/`off` leg to prove reclamation
/// bit-transparent end to end.
pub fn default_store_reclaim() -> StoreReclaimMode {
    match std::env::var("QAEC_STORE_RECLAIM").as_deref() {
        Ok("on") | Ok("1") | Ok("true") => StoreReclaimMode::On,
        Ok("off") | Ok("0") | Ok("false") => StoreReclaimMode::Off,
        _ => StoreReclaimMode::Auto,
    }
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            algorithm: AlgorithmChoice::Auto,
            strategy: Strategy::MinFill,
            var_order: VarOrderStyle::QubitMajor,
            reuse_tables: true,
            local_optimization: false,
            swap_elimination: false,
            term_order: TermOrder::BestFirst,
            deadline: None,
            gc_threshold: Some(2_000_000),
            threads: default_threads(),
            max_terms: None,
            shared_table: SharedTableMode::Auto,
            seed_cont_cache: true,
            sweep_lanes: 8,
            store_reclaim: default_store_reclaim(),
            svd_threshold: 1e-8,
            max_bond: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let o = CheckOptions::default();
        assert_eq!(o.algorithm, AlgorithmChoice::Auto);
        assert_eq!(o.strategy, Strategy::MinFill);
        assert!(o.reuse_tables);
        assert!(!o.local_optimization);
        assert!(!o.swap_elimination);
        // 1 unless the QAEC_THREADS env override is active (the CI
        // thread-sanity pass sets it to exercise the parallel engine).
        assert_eq!(o.threads, default_threads());
        assert!(o.deadline.is_none());
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn shared_table_resolution() {
        // `Auto` is the only store mode; it and the other no-op knobs
        // keep their old defaults.
        let o = CheckOptions::default();
        assert_eq!(o.shared_table, SharedTableMode::Auto);
        assert!(o.seed_cont_cache);
        assert_eq!(o.sweep_lanes, 8);
    }

    #[test]
    fn store_reclaim_resolution() {
        assert!(StoreReclaimMode::On.should_reclaim(0));
        assert!(!StoreReclaimMode::Off.should_reclaim(usize::MAX));
        assert!(!StoreReclaimMode::Auto.should_reclaim(0));
        assert!(StoreReclaimMode::Auto.should_reclaim(RECLAIM_AUTO_THRESHOLD_BYTES));
        // Unless the env override is active, the default is Auto; the
        // CI reclamation leg forces on/off for the whole suite.
        let expected = match std::env::var("QAEC_STORE_RECLAIM").as_deref() {
            Ok("on") | Ok("1") | Ok("true") => StoreReclaimMode::On,
            Ok("off") | Ok("0") | Ok("false") => StoreReclaimMode::Off,
            _ => StoreReclaimMode::Auto,
        };
        assert_eq!(CheckOptions::default().store_reclaim, expected);
    }
}
