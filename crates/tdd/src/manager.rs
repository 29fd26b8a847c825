//! The TDD node arena, normalization rules and unique table.
//!
//! Node and weight storage sit behind the `TddStore` abstraction with
//! two implementations: the default **private** store (a plain arena +
//! unique table + [`WeightTable`], exactly the sequential fast path) and
//! the **shared** [`crate::SharedTddStore`] (lock-striped concurrent
//! tables over append-only arenas), which several managers — one per
//! worker thread — can attach to so sub-diagrams hash-cons *across*
//! threads. Computed tables (`add`/`cont` memoization) always stay
//! per-manager; only `make_node`, weight interning/arithmetic and
//! elimination-set interning route through the store.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::store::{SharedTddStore, WeightClass};
use crate::weight::{ToleranceIndex, WeightId, WeightTable};
use qaec_math::C64;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Handle to a node in the manager's arena. `NodeId::TERMINAL` (id 0) is
/// the unique terminal node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The terminal node.
    pub const TERMINAL: NodeId = NodeId(0);

    /// Whether this is the terminal node.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self == NodeId::TERMINAL
    }
}

/// A weighted edge: the fundamental TDD value. A whole diagram is named by
/// its root edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Target node.
    pub node: NodeId,
    /// Interned complex weight multiplying the whole sub-diagram.
    pub weight: WeightId,
}

impl Edge {
    /// The constant-zero edge.
    pub const ZERO: Edge = Edge {
        node: NodeId::TERMINAL,
        weight: WeightId::ZERO,
    };
    /// The constant-one edge.
    pub const ONE: Edge = Edge {
        node: NodeId::TERMINAL,
        weight: WeightId::ONE,
    };

    /// Whether this edge denotes the zero tensor.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.weight.is_zero()
    }
}

/// Internal node: branches on variable `var` (a level in the global
/// [`qaec_tensornet::VarOrder`]; smaller = closer to the root).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub var: u32,
    pub low: Edge,
    pub high: Edge,
}

/// The variable level reported for the terminal (below every real level).
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// Key of one `cont` computed-table entry: the two (unit-weight) operand
/// nodes, the interned elimination-set id and the position already
/// consumed within it. With a shared store all four components are
/// globally consistent, which is what lets entries travel between the
/// workers of one run (see [`TddManager::seed_cont_cache`]).
pub type ContCacheKey = (NodeId, NodeId, u32, u32);

/// Operation counters and size statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TddStats {
    /// Nodes ever allocated (monotone; survives GC). For a manager
    /// attached to a shared store this stays 0 — allocations are counted
    /// once, store-side (see [`crate::SharedTddStore::stats`]), so
    /// merging every worker's stats cannot double-count them.
    pub nodes_created: u64,
    /// Unique-table hits (structure sharing events). Store-side under
    /// sharing, like `nodes_created`.
    pub unique_hits: u64,
    /// Unique-table hits that resolved to a node created by a *different*
    /// worker — the cross-thread structure sharing a shared store exists
    /// to create. Always 0 for private stores.
    pub cross_unique_hits: u64,
    /// `add` invocations / computed-table hits.
    pub add_calls: u64,
    /// `add` computed-table hits.
    pub add_hits: u64,
    /// `cont` invocations.
    pub cont_calls: u64,
    /// `cont` computed-table hits.
    pub cont_hits: u64,
    /// `cont` cache entries imported from another worker's snapshot
    /// ([`TddManager::seed_cont_cache`]).
    pub seed_imports: u64,
    /// `cont` computed-table hits served by an imported (seeded) entry.
    pub seed_hits: u64,
    /// Garbage collections performed.
    pub gc_runs: u64,
    /// Largest arena size observed (live + dead nodes, excluding terminal).
    pub peak_nodes: usize,
    /// Bytes of backing storage held by the run's shared store
    /// ([`crate::SharedTddStore::bytes_used`]) at report time. 0 for
    /// private-store runs, whose arenas die with the manager; for warm
    /// sessions this is the footprint the service layer's byte-budgeted
    /// eviction accounts against.
    pub store_bytes: u64,
    /// High-water mark of `store_bytes` over the run (and, for shared
    /// stores, over every retired predecessor in a reclamation chain —
    /// see [`crate::SharedTddStore::peak_bytes_used`]). With reclamation
    /// off this equals the final `store_bytes`; with it on, the gap
    /// between the two is the memory reclamation returned.
    pub peak_store_bytes: u64,
}

impl TddStats {
    /// Folds another manager's counters into this one: counts add up,
    /// size maxima take the max. Used to combine the thread-local
    /// managers of a parallel run into one report; with a shared store,
    /// merge [`crate::SharedTddStore::stats`] exactly once on top.
    ///
    /// # Example
    ///
    /// ```
    /// use qaec_tdd::TddStats;
    ///
    /// let mut total = TddStats { nodes_created: 3, peak_nodes: 10, ..TddStats::default() };
    /// let worker = TddStats { nodes_created: 2, peak_nodes: 25, ..TddStats::default() };
    /// total.merge(&worker);
    /// assert_eq!(total.nodes_created, 5);
    /// assert_eq!(total.peak_nodes, 25);
    /// ```
    pub fn merge(&mut self, other: &TddStats) {
        self.nodes_created += other.nodes_created;
        self.unique_hits += other.unique_hits;
        self.cross_unique_hits += other.cross_unique_hits;
        self.add_calls += other.add_calls;
        self.add_hits += other.add_hits;
        self.cont_calls += other.cont_calls;
        self.cont_hits += other.cont_hits;
        self.seed_imports += other.seed_imports;
        self.seed_hits += other.seed_hits;
        self.gc_runs += other.gc_runs;
        self.peak_nodes = self.peak_nodes.max(other.peak_nodes);
        // A footprint, not a counter: every worker of a run reports the
        // same store, so summing would multiply it by the worker count.
        self.store_bytes = self.store_bytes.max(other.store_bytes);
        self.peak_store_bytes = self.peak_store_bytes.max(other.peak_store_bytes);
    }
}

impl std::fmt::Display for TddStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rate = |hits: u64, calls: u64| {
            if calls == 0 {
                0.0
            } else {
                hits as f64 / calls as f64
            }
        };
        write!(
            f,
            "nodes created {} (peak {}), unique hits {} ({} cross-thread), add {} ({:.0}% hit), cont {} ({:.0}% hit), seeded {} (hits {}), gc runs {}, store {} B (peak {} B)",
            self.nodes_created,
            self.peak_nodes,
            self.unique_hits,
            self.cross_unique_hits,
            self.add_calls,
            100.0 * rate(self.add_hits, self.add_calls),
            self.cont_calls,
            100.0 * rate(self.cont_hits, self.cont_calls),
            self.seed_imports,
            self.seed_hits,
            self.gc_runs,
            self.store_bytes,
            self.peak_store_bytes,
        )
    }
}

/// The private (per-manager) node/weight store: the sequential fast
/// path, unchanged from the original single-threaded engine.
#[derive(Debug)]
pub(crate) struct PrivateStore {
    pub(crate) weights: WeightTable,
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: FxHashMap<Node, NodeId>,
}

impl PrivateStore {
    /// Bytes of backing storage this private store holds: arena and
    /// unique-table capacity plus the weight table — the private
    /// counterpart of [`SharedTddStore::bytes_used`], so shared-vs-
    /// private memory is actually comparable in reports. Capacity-based
    /// like the shared estimate (hash-table entries count one control
    /// byte per bucket, the std layout).
    pub(crate) fn bytes_used(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.unique.capacity()
                * (std::mem::size_of::<Node>() + std::mem::size_of::<NodeId>() + 1)
            + self.weights.bytes_used()
    }
}

/// How a shared-store manager maps arithmetic results to [`WeightId`]s —
/// the choice of interning family (see `crate::store`'s module docs).
#[derive(Debug)]
pub(crate) enum SharedInterning {
    /// The grid family: snap to the canonical `tol/32` cell, globally.
    /// Every manager on the store maps equal values to one id *and one
    /// stored value*, which is what makes memo-table entries portable
    /// across workers and trace terms (Algorithm I's seeding).
    Canonical {
        /// Write-combining lookaside: grid cell → interned id. Only the
        /// first sighting of a cell takes the store's stripe lock.
        weight_cache: FxHashMap<(i64, i64), WeightId>,
    },
    /// The exact-bits family with *scope-local* tolerance gluing: within
    /// one weight scope (one leaf conversion, one plan step — see
    /// [`TddManager::begin_weight_scope`]) the first value seen in a
    /// tolerance neighbourhood becomes its representative, by the same
    /// [`ToleranceIndex`] rule as a private [`WeightTable`]; the
    /// representative's bits intern globally by identity. Avoids the
    /// grid's cell-straddling fragmentation (round-off twins landing in
    /// different cells), which is what made shared-store plan runs
    /// allocate ~3× the private driver's weights. Results stay
    /// bit-identical across schedules because each scope is a pure
    /// function of its operand values.
    ///
    /// A value resolves in three tiers: the scope memo (its exact bits
    /// seen before in this scope), then the tolerance index (a
    /// representative within `tol`), then — for a new representative —
    /// the store's exact-bits map
    /// ([`SharedTddStore::intern_weight_exact`]). The first two are
    /// cleared at every scope boundary; the third is the store's and
    /// never is, so equal bits get one id across scopes and managers.
    Scoped {
        /// Scope-local representatives. Cleared at every scope boundary.
        glue: ToleranceIndex,
        /// Scope-local bits → already-glued id (probe short-circuit).
        resolved: FxHashMap<(u64, u64), WeightId>,
    },
}

impl SharedInterning {
    fn canonical() -> Self {
        SharedInterning::Canonical {
            weight_cache: FxHashMap::default(),
        }
    }

    fn scoped(tol: f64) -> Self {
        SharedInterning::Scoped {
            glue: ToleranceIndex::new(tol),
            resolved: FxHashMap::default(),
        }
    }
}

/// Where a manager keeps its nodes and weights: its own [`PrivateStore`]
/// or a handle onto a cross-thread [`SharedTddStore`].
#[derive(Debug)]
pub(crate) enum TddStore {
    /// Exclusive storage owned by this manager.
    Private(PrivateStore),
    /// A worker handle onto storage shared with other managers.
    Shared {
        store: Arc<SharedTddStore>,
        worker: u32,
        /// Which interning family this manager routes weights through.
        interning: SharedInterning,
    },
}

/// Shared-store interning through the manager's chosen family.
#[inline]
fn intern_shared(store: &SharedTddStore, interning: &mut SharedInterning, z: C64) -> WeightId {
    debug_assert!(z.is_finite(), "non-finite weight {z}");
    match interning {
        SharedInterning::Canonical { weight_cache } => match store.classify(z) {
            WeightClass::Zero => WeightId::ZERO,
            WeightClass::Huge => store.intern_weight_huge(z),
            WeightClass::Grid(re, im) => *weight_cache
                .entry((re, im))
                .or_insert_with(|| store.intern_weight_cell((re, im))),
        },
        SharedInterning::Scoped { glue, resolved } => {
            if glue.is_zero(z) {
                return WeightId::ZERO;
            }
            // Bits new to this scope take the id of the first
            // representative within tol; a first sighting in its
            // neighbourhood becomes the representative, interned globally
            // by exact bits — so every id a scoped manager hands out is
            // *the* global id of its stored bits, making id equality
            // equivalent to value-bit equality (the fast paths below rely
            // on this).
            match resolved.entry((z.re.to_bits(), z.im.to_bits())) {
                Entry::Occupied(seen) => *seen.get(),
                Entry::Vacant(slot) => {
                    *slot.insert(glue.find_or_insert_with(z, || store.intern_weight_exact(z)))
                }
            }
        }
    }
}

/// The decision-diagram engine: arena, unique table, computed tables and
/// weight interning, shared by every diagram it creates.
///
/// # Example
///
/// ```
/// use qaec_math::C64;
/// use qaec_tdd::TddManager;
///
/// let mut m = TddManager::new();
/// // A one-variable tensor T[x] = (3, 4i) built from raw cofactors.
/// let low = m.terminal(C64::real(3.0));
/// let high = m.terminal(C64::new(0.0, 4.0));
/// let t = m.make_node(0, low, high);
/// assert_eq!(m.eval(t, &[0]), C64::real(3.0));
/// assert_eq!(m.eval(t, &[1]), C64::new(0.0, 4.0));
/// assert_eq!(m.node_count(t), 2); // one internal node + terminal
/// ```
#[derive(Debug)]
pub struct TddManager {
    pub(crate) store: TddStore,
    pub(crate) add_cache: FxHashMap<(Edge, Edge), Edge>,
    pub(crate) cont_cache: FxHashMap<ContCacheKey, Edge>,
    /// Keys of `cont_cache` entries imported from another worker.
    pub(crate) cont_seeded: FxHashSet<ContCacheKey>,
    /// Private-mode elimination sets (shared mode interns store-side).
    elim_sets: Vec<Vec<u32>>,
    elim_set_ids: FxHashMap<Vec<u32>, u32>,
    /// Deadline probed inside the `add`/`cont` recursions (see
    /// [`Self::set_deadline`]).
    deadline: Option<std::time::Instant>,
    /// Recursion calls left before the next `Instant::now()` probe.
    probe_budget: u32,
    /// Latched once a probe observes the deadline in the past.
    expired: bool,
    pub(crate) stats: TddStats,
}

/// How many `add`/`cont` recursion calls run between two clock reads of
/// the amortised deadline probe. Each call does O(1) work outside its
/// sub-calls, so the overshoot past a deadline is bounded by roughly
/// this many node constructions plus one in-flight leaf operation.
pub const DEADLINE_PROBE_INTERVAL: u32 = 1024;

impl Default for TddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TddManager {
    /// A manager with a private store and the default weight tolerance
    /// (`1e-10`).
    pub fn new() -> Self {
        Self::with_tolerance(1e-10)
    }

    /// A manager with a private store and a custom weight-interning
    /// tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not strictly positive and finite.
    pub fn with_tolerance(tol: f64) -> Self {
        Self::with_store(TddStore::Private(PrivateStore {
            weights: WeightTable::new(tol),
            nodes: vec![Node {
                var: TERMINAL_VAR,
                low: Edge::ZERO,
                high: Edge::ZERO,
            }], // slot 0 = terminal sentinel
            unique: FxHashMap::default(),
        }))
    }

    /// A worker manager attached to a [`SharedTddStore`]: nodes, weights
    /// and elimination sets go through the shared concurrent tables,
    /// while computed tables stay local to this manager. Handles minted
    /// here are valid in every other manager attached to `store`.
    pub fn new_shared(store: &Arc<SharedTddStore>) -> Self {
        Self::new_shared_with_id(store, store.register_worker())
    }

    /// [`Self::new_shared`] under an explicit worker id (from
    /// [`SharedTddStore::register_worker`]). Use this when one logical
    /// worker creates several managers over its lifetime — e.g. fresh
    /// per-term managers when table reuse is off — so unique-table hits
    /// against that worker's own earlier nodes are not misattributed as
    /// cross-thread sharing.
    pub fn new_shared_with_id(store: &Arc<SharedTddStore>, worker: u32) -> Self {
        Self::with_store(TddStore::Shared {
            store: Arc::clone(store),
            worker,
            interning: SharedInterning::canonical(),
        })
    }

    /// [`Self::new_shared`] with **scope-local** weight interning: the
    /// manager glues within [`Self::begin_weight_scope`] windows and
    /// interns representatives by exact bits, instead of snapping to the
    /// store's global grid. This is the plan drivers' mode — it keeps a
    /// shared-store contraction as compact as the private driver's.
    /// Callers own the scope boundaries: open one per leaf conversion
    /// and per plan step, and results are bit-identical whatever the
    /// schedule or thread count.
    pub fn new_shared_scoped(store: &Arc<SharedTddStore>) -> Self {
        let mut m = Self::new_shared(store);
        m.set_scoped_interning();
        m
    }

    /// Switches this shared-store manager to the scoped interning family
    /// (no-op on private stores). Computed tables are cleared: their
    /// entries may cache grid-family ids, which scoped scopes must never
    /// observe.
    pub fn set_scoped_interning(&mut self) {
        if let TddStore::Shared {
            store, interning, ..
        } = &mut self.store
        {
            *interning = SharedInterning::scoped(store.tolerance());
            self.clear_computed_tables();
        }
    }

    /// Opens a new weight scope on a scoped-interning manager: empties
    /// the scope memo and the tolerance index in place (keeping their
    /// capacity) so the next tolerance neighbourhood elects a fresh
    /// representative, and clears the computed tables (their
    /// entries embed the outgoing scope's representative ids). A no-op
    /// for canonical and private managers, so generic call sites —
    /// `from_tensor`, the plan drivers — can mark scope boundaries
    /// unconditionally.
    ///
    /// Each scope is a pure function of its operand *values*: within a
    /// scope, representative election follows the deterministic
    /// recursion order, and across scopes only exact bits persist (via
    /// the global exact-interning family). That is the determinism
    /// invariant that keeps scoped shared-store runs bit-identical for
    /// every thread count.
    pub fn begin_weight_scope(&mut self) {
        if let TddStore::Shared {
            interning: SharedInterning::Scoped { glue, resolved },
            ..
        } = &mut self.store
        {
            glue.clear();
            resolved.clear();
        } else {
            return;
        }
        self.clear_computed_tables();
    }

    fn with_store(store: TddStore) -> Self {
        TddManager {
            store,
            add_cache: FxHashMap::default(),
            cont_cache: FxHashMap::default(),
            cont_seeded: FxHashSet::default(),
            elim_sets: Vec::new(),
            elim_set_ids: FxHashMap::default(),
            deadline: None,
            probe_budget: DEADLINE_PROBE_INTERVAL,
            expired: false,
            stats: TddStats::default(),
        }
    }

    /// Arms (or clears) the amortised in-recursion deadline: while set,
    /// [`crate::ops::try_add`] / [`crate::ops::try_cont`] probe the
    /// clock every [`DEADLINE_PROBE_INTERVAL`] recursion calls and abort
    /// with [`crate::DriverTimeout`] once it has passed — so a single
    /// huge contraction cannot overrun a deadline unboundedly the way
    /// the old between-steps check allowed.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
        self.probe_budget = DEADLINE_PROBE_INTERVAL;
        self.expired = false;
    }

    /// The armed deadline, if any.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }

    /// One tick of the amortised probe: cheap counter work on most
    /// calls, a clock read every [`DEADLINE_PROBE_INTERVAL`] ticks.
    /// Returns `true` once the armed deadline has passed (latched).
    #[inline]
    pub(crate) fn deadline_exceeded(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.expired {
            return true;
        }
        self.probe_budget -= 1;
        if self.probe_budget == 0 {
            self.probe_budget = DEADLINE_PROBE_INTERVAL;
            if std::time::Instant::now() >= deadline {
                self.expired = true;
                return true;
            }
        }
        false
    }

    /// Whether this manager is attached to a shared store.
    pub fn is_shared(&self) -> bool {
        matches!(self.store, TddStore::Shared { .. })
    }

    /// Whether mark-compact garbage collection is available. Shared
    /// stores are append-only (other workers hold live ids into the
    /// arena), so [`crate::gc::collect`] is a no-op for them.
    pub fn supports_gc(&self) -> bool {
        !self.is_shared()
    }

    /// The private store, for the collector.
    ///
    /// # Panics
    ///
    /// Panics on a shared-store manager (callers check
    /// [`Self::supports_gc`] first).
    pub(crate) fn private_mut(&mut self) -> &mut PrivateStore {
        match &mut self.store {
            TddStore::Private(p) => p,
            TddStore::Shared { .. } => unreachable!("GC requested on a shared store"),
        }
    }

    /// Operation statistics so far. For shared-store managers this holds
    /// only the manager-local counters (computed tables, seeding);
    /// allocation counters and store footprint live in
    /// [`crate::SharedTddStore::stats`]. Private-store managers report
    /// their own arena/table footprint here, so shared-vs-private
    /// memory is comparable in merged reports.
    pub fn stats(&self) -> TddStats {
        let mut stats = self.stats;
        if let TddStore::Private(p) = &self.store {
            stats.store_bytes = p.bytes_used() as u64;
            stats.peak_store_bytes = stats.peak_store_bytes.max(stats.store_bytes);
        }
        stats
    }

    /// Records the current private-store footprint into the
    /// `peak_store_bytes` high-water mark. Called before garbage
    /// collection, which is the only event that can shrink a private
    /// store mid-run.
    pub(crate) fn note_store_peak(&mut self) {
        if let TddStore::Private(p) = &self.store {
            self.stats.peak_store_bytes = self.stats.peak_store_bytes.max(p.bytes_used() as u64);
        }
    }

    /// The weight-interning tolerance.
    pub fn tolerance(&self) -> f64 {
        match &self.store {
            TddStore::Private(p) => p.weights.tolerance(),
            TddStore::Shared { store, .. } => store.tolerance(),
        }
    }

    /// Number of arena slots currently allocated (live + dead, excluding
    /// the terminal sentinel). Global — i.e. across all workers — for a
    /// shared store.
    pub fn arena_len(&self) -> usize {
        match &self.store {
            TddStore::Private(p) => p.nodes.len() - 1,
            TddStore::Shared { store, .. } => store.arena_len(),
        }
    }

    /// Interns a complex value as an edge weight.
    pub fn intern_weight(&mut self, z: C64) -> WeightId {
        match &mut self.store {
            TddStore::Private(p) => p.weights.intern(z),
            TddStore::Shared {
                store, interning, ..
            } => intern_shared(store, interning, z),
        }
    }

    /// The complex value of an edge weight.
    #[inline]
    pub fn weight_value(&self, w: WeightId) -> C64 {
        match &self.store {
            TddStore::Private(p) => p.weights.value(w),
            TddStore::Shared { store, .. } => store.weight_value(w),
        }
    }

    /// Interned product `a·b`.
    pub(crate) fn wmul(&mut self, a: WeightId, b: WeightId) -> WeightId {
        match &mut self.store {
            TddStore::Private(p) => p.weights.mul(a, b),
            TddStore::Shared {
                store, interning, ..
            } => {
                if a.is_zero() || b.is_zero() {
                    WeightId::ZERO
                } else if a.is_one() {
                    b
                } else if b.is_one() {
                    a
                } else {
                    intern_shared(
                        store,
                        interning,
                        store.weight_value(a) * store.weight_value(b),
                    )
                }
            }
        }
    }

    /// Interned sum `a + b`.
    pub(crate) fn wadd(&mut self, a: WeightId, b: WeightId) -> WeightId {
        match &mut self.store {
            TddStore::Private(p) => p.weights.add(a, b),
            TddStore::Shared {
                store, interning, ..
            } => {
                if a.is_zero() {
                    b
                } else if b.is_zero() {
                    a
                } else {
                    intern_shared(
                        store,
                        interning,
                        store.weight_value(a) + store.weight_value(b),
                    )
                }
            }
        }
    }

    /// Interned quotient `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is the zero weight.
    pub(crate) fn wdiv(&mut self, a: WeightId, b: WeightId) -> WeightId {
        match &mut self.store {
            TddStore::Private(p) => p.weights.div(a, b),
            TddStore::Shared {
                store, interning, ..
            } => {
                assert!(!b.is_zero(), "division by the zero weight");
                if a.is_zero() {
                    WeightId::ZERO
                } else if b.is_one() {
                    a
                } else if a == b {
                    WeightId::ONE
                } else {
                    intern_shared(
                        store,
                        interning,
                        store.weight_value(a) / store.weight_value(b),
                    )
                }
            }
        }
    }

    /// Interned scalar multiple by a real factor.
    pub(crate) fn wscale_real(&mut self, a: WeightId, factor: f64) -> WeightId {
        match &mut self.store {
            TddStore::Private(p) => p.weights.scale_real(a, factor),
            TddStore::Shared {
                store, interning, ..
            } => {
                if factor == 0.0 || a.is_zero() {
                    if factor == 0.0 {
                        WeightId::ZERO
                    } else {
                        a
                    }
                } else {
                    intern_shared(store, interning, store.weight_value(a) * factor)
                }
            }
        }
    }

    /// The modulus of the value behind `a`.
    #[inline]
    pub(crate) fn wmagnitude(&self, a: WeightId) -> f64 {
        self.weight_value(a).abs()
    }

    /// A terminal edge with the given scalar value.
    pub fn terminal(&mut self, z: C64) -> Edge {
        Edge {
            node: NodeId::TERMINAL,
            weight: self.intern_weight(z),
        }
    }

    /// The scalar behind an edge, if it is a terminal edge.
    pub fn edge_scalar(&self, e: Edge) -> Option<C64> {
        e.node.is_terminal().then(|| self.weight_value(e.weight))
    }

    /// The variable level of an edge's root node (`u32::MAX` for the
    /// terminal).
    #[inline]
    pub fn var(&self, n: NodeId) -> u32 {
        self.node(n).var
    }

    #[inline]
    pub(crate) fn node(&self, n: NodeId) -> Node {
        match &self.store {
            TddStore::Private(p) => p.nodes[n.0 as usize],
            TddStore::Shared { store, .. } => store.node(n),
        }
    }

    /// The normalized node constructor: applies the reduction rule (equal
    /// children → skip the node) and weight normalization (divide both
    /// child weights by the larger-magnitude one, ties preferring the low
    /// child), then hash-conses through the store's unique table.
    ///
    /// `low`/`high` are the cofactor edges at `var = 0` / `var = 1`.
    ///
    /// # Panics
    ///
    /// Panics if a child's root variable is not below `var` in the order.
    pub fn make_node(&mut self, var: u32, low: Edge, high: Edge) -> Edge {
        debug_assert!(
            self.var(low.node) > var && self.var(high.node) > var,
            "child variable above parent in the order"
        );
        // Reduction: x-independent sub-diagram.
        if low == high {
            return low;
        }
        // Normalization.
        if low.is_zero() && high.is_zero() {
            return Edge::ZERO;
        }
        let ml = self.wmagnitude(low.weight);
        let mh = self.wmagnitude(high.weight);
        let norm = if ml + self.tolerance() >= mh {
            low.weight
        } else {
            high.weight
        };
        let new_low = Edge {
            node: low.node,
            weight: if low.weight == norm {
                WeightId::ONE
            } else {
                self.wdiv(low.weight, norm)
            },
        };
        let new_high = Edge {
            node: high.node,
            weight: if high.weight == norm {
                WeightId::ONE
            } else {
                self.wdiv(high.weight, norm)
            },
        };
        let key = Node {
            var,
            low: new_low,
            high: new_high,
        };
        let node = match &mut self.store {
            TddStore::Private(p) => match p.unique.get(&key) {
                Some(&id) => {
                    self.stats.unique_hits += 1;
                    id
                }
                None => {
                    let id = NodeId(p.nodes.len() as u32);
                    p.nodes.push(key);
                    p.unique.insert(key, id);
                    self.stats.nodes_created += 1;
                    self.stats.peak_nodes = self.stats.peak_nodes.max(p.nodes.len() - 1);
                    id
                }
            },
            // Allocation counters are store-owned under sharing (merged
            // once per run), so nothing is added to the local stats here.
            TddStore::Shared { store, worker, .. } => store.unique_node(key, *worker),
        };
        Edge { node, weight: norm }
    }

    /// Cofactors of `e` with respect to variable `var`: the pair of edges
    /// for `var = 0` and `var = 1`. If `e`'s root is below `var`, both
    /// cofactors are `e` itself (skipped variable).
    pub fn cofactors(&mut self, e: Edge, var: u32) -> (Edge, Edge) {
        let node = self.node(e.node);
        if e.node.is_terminal() || node.var > var {
            return (e, e);
        }
        debug_assert_eq!(node.var, var, "edge root above requested variable");
        let low = Edge {
            node: node.low.node,
            weight: self.wmul(e.weight, node.low.weight),
        };
        let high = Edge {
            node: node.high.node,
            weight: self.wmul(e.weight, node.high.weight),
        };
        (low, high)
    }

    /// Evaluates the tensor entry for a full assignment.
    ///
    /// `assignment[k]` is the value (0/1) of the variable at level
    /// `offset + k` where `offset` is the level of `assignment[0]`; more
    /// precisely, the walk consumes `assignment[var]` at every node
    /// branching on `var`, so the slice must be indexed by level.
    pub fn eval(&self, e: Edge, assignment: &[u8]) -> C64 {
        let mut value = self.weight_value(e.weight);
        let mut node_id = e.node;
        while !node_id.is_terminal() {
            let node = self.node(node_id);
            let bit = assignment
                .get(node.var as usize)
                .copied()
                .unwrap_or_else(|| panic!("assignment missing level {}", node.var));
            let next = if bit == 0 { node.low } else { node.high };
            value *= self.weight_value(next.weight);
            node_id = next.node;
        }
        value
    }

    /// Number of distinct nodes reachable from `e`, including the terminal.
    pub fn node_count(&self, e: Edge) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = vec![e.node];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if !n.is_terminal() {
                let node = self.node(n);
                stack.push(node.low.node);
                stack.push(node.high.node);
            }
        }
        seen.len()
    }

    /// Clears the computed tables (add/cont memoization) but keeps nodes
    /// and weights. Used to model the paper's "Ori." (no shared computed
    /// table) configuration and after GC.
    pub fn clear_computed_tables(&mut self) {
        self.add_cache.clear();
        self.cont_cache.clear();
        self.cont_seeded.clear();
    }

    /// A copy of this manager's `cont` computed table, for shipping to
    /// another worker on the *same shared store* (handles are not
    /// portable between private stores).
    pub fn snapshot_cont_cache(&self) -> FxHashMap<ContCacheKey, Edge> {
        self.cont_cache.clone()
    }

    /// Imports another worker's computed-table snapshot: entries whose
    /// key this manager has not computed itself are inserted and marked,
    /// so [`TddStats::seed_imports`] counts what arrived and
    /// [`TddStats::seed_hits`] later proves which imports paid off.
    ///
    /// Only meaningful between managers attached to the same
    /// [`SharedTddStore`] — node, weight and elimination-set handles in
    /// the entries must be valid here.
    pub fn seed_cont_cache(&mut self, entries: &FxHashMap<ContCacheKey, Edge>) {
        debug_assert!(
            matches!(
                &self.store,
                TddStore::Shared {
                    interning: SharedInterning::Canonical { .. },
                    ..
                }
            ),
            "cont-cache seeding requires globally-pure (canonical) interning \
             on a shared store — scoped entries embed scope-local ids"
        );
        for (&key, &result) in entries {
            if let Entry::Vacant(slot) = self.cont_cache.entry(key) {
                slot.insert(result);
                self.cont_seeded.insert(key);
                self.stats.seed_imports += 1;
            }
        }
    }

    /// Interns an elimination set (sorted variable levels) for contraction
    /// cache keys, returning its id. Calling twice with the same content
    /// returns the same id, which is what lets the computed table share
    /// work across Algorithm I trace terms (and, store-wide, across
    /// workers).
    pub fn intern_elim_set(&mut self, levels: Vec<u32>) -> u32 {
        debug_assert!(levels.windows(2).all(|w| w[0] < w[1]), "levels not sorted");
        match &self.store {
            TddStore::Shared { store, .. } => store.intern_elim_set(levels),
            TddStore::Private(_) => {
                if let Some(&id) = self.elim_set_ids.get(&levels) {
                    return id;
                }
                let id = self.elim_sets.len() as u32;
                self.elim_sets.push(levels.clone());
                self.elim_set_ids.insert(levels, id);
                id
            }
        }
    }

    pub(crate) fn elim_set(&self, id: u32) -> &[u32] {
        match &self.store {
            TddStore::Private(_) => &self.elim_sets[id as usize],
            TddStore::Shared { store, .. } => store.elim_set(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_edges() {
        let mut m = TddManager::new();
        let e = m.terminal(C64::new(2.0, -1.0));
        assert!(e.node.is_terminal());
        assert_eq!(m.edge_scalar(e), Some(C64::new(2.0, -1.0)));
        assert_eq!(m.node_count(e), 1);
        assert!(m.terminal(C64::ZERO).is_zero());
    }

    #[test]
    fn reduction_skips_redundant_node() {
        let mut m = TddManager::new();
        let c = m.terminal(C64::real(0.7));
        let e = m.make_node(3, c, c);
        assert_eq!(e, c, "equal children must collapse");
    }

    #[test]
    fn normalization_prefers_larger_magnitude() {
        let mut m = TddManager::new();
        let low = m.terminal(C64::real(0.5));
        let high = m.terminal(C64::real(-1.0));
        let e = m.make_node(0, low, high);
        // Norm = the high weight (-1), low child becomes 0.5/-1 = -0.5.
        assert_eq!(m.weight_value(e.weight), C64::real(-1.0));
        let n = m.node(e.node);
        assert_eq!(m.weight_value(n.high.weight), C64::ONE);
        assert_eq!(m.weight_value(n.low.weight), C64::real(-0.5));
    }

    #[test]
    fn normalization_ties_prefer_low() {
        let mut m = TddManager::new();
        let low = m.terminal(C64::real(-2.0));
        let high = m.terminal(C64::new(0.0, 2.0));
        let e = m.make_node(0, low, high);
        assert_eq!(m.weight_value(e.weight), C64::real(-2.0));
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut m = TddManager::new();
        let a0 = m.terminal(C64::real(1.0));
        let a1 = m.terminal(C64::real(2.0));
        let e1 = m.make_node(0, a0, a1);
        let e2 = m.make_node(0, a0, a1);
        assert_eq!(e1, e2);
        assert_eq!(m.arena_len(), 1);
        assert_eq!(m.stats().unique_hits, 1);
    }

    #[test]
    fn canonicity_across_scaling() {
        // T and 2·T must share the same node, differing only in the edge
        // weight.
        let mut m = TddManager::new();
        let e1 = {
            let l = m.terminal(C64::real(1.0));
            let h = m.terminal(C64::real(3.0));
            m.make_node(0, l, h)
        };
        let e2 = {
            let l = m.terminal(C64::real(2.0));
            let h = m.terminal(C64::real(6.0));
            m.make_node(0, l, h)
        };
        assert_eq!(e1.node, e2.node);
        let r1 = m.weight_value(e1.weight);
        let r2 = m.weight_value(e2.weight);
        assert!((r2 / r1 - C64::real(2.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_children_collapse_to_zero() {
        let mut m = TddManager::new();
        let e = m.make_node(1, Edge::ZERO, Edge::ZERO);
        assert_eq!(e, Edge::ZERO);
    }

    #[test]
    fn eval_walks_assignments() {
        let mut m = TddManager::new();
        // T[x0, x1] = [[1, 2], [3, 4]] built bottom-up.
        let rows: Vec<Edge> = (1..=4).map(|v| m.terminal(C64::real(v as f64))).collect();
        let row0 = m.make_node(1, rows[0], rows[1]);
        let row1 = m.make_node(1, rows[2], rows[3]);
        let root = m.make_node(0, row0, row1);
        assert!((m.eval(root, &[0, 0]) - C64::real(1.0)).abs() < 1e-9);
        assert!((m.eval(root, &[0, 1]) - C64::real(2.0)).abs() < 1e-9);
        assert!((m.eval(root, &[1, 0]) - C64::real(3.0)).abs() < 1e-9);
        assert!((m.eval(root, &[1, 1]) - C64::real(4.0)).abs() < 1e-9);
        assert_eq!(m.node_count(root), 4); // root + 2 rows + terminal
    }

    #[test]
    fn cofactors_of_skipped_variable() {
        let mut m = TddManager::new();
        let low = m.terminal(C64::real(1.0));
        let high = m.terminal(C64::real(2.0));
        let e = m.make_node(5, low, high);
        // Variable 2 is above the root (5): both cofactors are e.
        let (c0, c1) = m.cofactors(e, 2);
        assert_eq!(c0, e);
        assert_eq!(c1, e);
        // At its own variable the node splits.
        let (c0, c1) = m.cofactors(e, 5);
        assert!((m.edge_scalar(c0).unwrap() - C64::real(1.0)).abs() < 1e-9);
        assert!((m.edge_scalar(c1).unwrap() - C64::real(2.0)).abs() < 1e-9);
    }

    #[test]
    fn elim_set_interning_is_stable() {
        let mut m = TddManager::new();
        let a = m.intern_elim_set(vec![1, 4, 9]);
        let b = m.intern_elim_set(vec![1, 4, 9]);
        let c = m.intern_elim_set(vec![1, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(m.elim_set(a), &[1, 4, 9]);
    }

    #[test]
    fn stats_track_creation() {
        let mut m = TddManager::new();
        let l = m.terminal(C64::real(1.0));
        let h = m.terminal(C64::real(2.0));
        let _ = m.make_node(0, l, h);
        assert_eq!(m.stats().nodes_created, 1);
        assert_eq!(m.stats().peak_nodes, 1);
        let text = m.stats().to_string();
        assert!(text.contains("nodes created 1"));
        assert!(text.contains("gc runs 0"));
    }

    #[test]
    fn stats_merge_sums_counters_and_maxes_peaks() {
        let mut a = TddStats {
            nodes_created: 10,
            unique_hits: 1,
            cross_unique_hits: 1,
            add_calls: 2,
            add_hits: 1,
            cont_calls: 4,
            cont_hits: 3,
            seed_imports: 2,
            seed_hits: 1,
            gc_runs: 1,
            peak_nodes: 100,
            store_bytes: 4096,
            peak_store_bytes: 8192,
        };
        let b = TddStats {
            nodes_created: 5,
            unique_hits: 2,
            cross_unique_hits: 0,
            add_calls: 3,
            add_hits: 2,
            cont_calls: 6,
            cont_hits: 1,
            seed_imports: 1,
            seed_hits: 2,
            gc_runs: 0,
            peak_nodes: 40,
            store_bytes: 9000,
            peak_store_bytes: 9000,
        };
        a.merge(&b);
        assert_eq!(a.nodes_created, 15);
        assert_eq!(a.unique_hits, 3);
        assert_eq!(a.cross_unique_hits, 1);
        assert_eq!(a.add_calls, 5);
        assert_eq!(a.add_hits, 3);
        assert_eq!(a.cont_calls, 10);
        assert_eq!(a.cont_hits, 4);
        assert_eq!(a.seed_imports, 3);
        assert_eq!(a.seed_hits, 3);
        assert_eq!(a.gc_runs, 1);
        assert_eq!(a.peak_nodes, 100, "peak takes the max, not the sum");
        assert_eq!(a.store_bytes, 9000, "footprint takes the max, not the sum");
        assert_eq!(a.peak_store_bytes, 9000, "peak footprint maxes too");
    }

    #[test]
    fn shared_managers_hash_cons_across_instances() {
        let store = SharedTddStore::new();
        let mut a = TddManager::new_shared(&store);
        let mut b = TddManager::new_shared(&store);
        let build = |m: &mut TddManager| {
            let l = m.terminal(C64::real(1.0));
            let h = m.terminal(C64::real(2.0));
            m.make_node(0, l, h)
        };
        let ea = build(&mut a);
        let eb = build(&mut b);
        assert_eq!(ea, eb, "same structure must get the same global id");
        assert_eq!(a.arena_len(), 1, "stored once, visible to both");
        assert_eq!(b.arena_len(), 1);
        // Store-aware attribution: locals stay 0, the store counts once.
        assert_eq!(a.stats().nodes_created, 0);
        assert_eq!(b.stats().nodes_created, 0);
        let mut merged = a.stats();
        merged.merge(&b.stats());
        merged.merge(&store.stats());
        assert_eq!(
            merged.nodes_created, 1,
            "merged stats must not double-count shared allocations"
        );
        assert_eq!(merged.cross_unique_hits, 1);
        // b can read a's diagram through its own handle.
        assert!((b.eval(ea, &[1]) - C64::real(2.0)).abs() < 1e-9);
    }

    #[test]
    fn shared_normalization_matches_private_semantics() {
        let store = SharedTddStore::new();
        let mut m = TddManager::new_shared(&store);
        let low = m.terminal(C64::real(0.5));
        let high = m.terminal(C64::real(-1.0));
        let e = m.make_node(0, low, high);
        assert!((m.weight_value(e.weight) - C64::real(-1.0)).abs() < 1e-9);
        let n = m.node(e.node);
        assert_eq!(n.high.weight, WeightId::ONE);
        assert!((m.weight_value(n.low.weight) - C64::real(-0.5)).abs() < 1e-9);
    }

    #[test]
    fn seeded_cont_entries_are_imported_once_and_marked() {
        let store = SharedTddStore::new();
        let mut a = TddManager::new_shared(&store);
        let mut b = TddManager::new_shared(&store);
        let l = a.terminal(C64::real(1.0));
        let h = a.terminal(C64::real(2.0));
        let e = a.make_node(0, l, h);
        let set = a.intern_elim_set(vec![0]);
        let key: ContCacheKey = (e.node, NodeId::TERMINAL, set, 0);
        a.cont_cache.insert(key, Edge::ONE);

        let snapshot = a.snapshot_cont_cache();
        b.seed_cont_cache(&snapshot);
        assert_eq!(b.stats().seed_imports, 1);
        assert!(b.cont_seeded.contains(&key));
        // Re-seeding the same snapshot imports nothing new.
        b.seed_cont_cache(&snapshot);
        assert_eq!(b.stats().seed_imports, 1);
        // Clearing computed tables drops the seeded markers too.
        b.clear_computed_tables();
        assert!(b.cont_cache.is_empty());
        assert!(b.cont_seeded.is_empty());
    }
}
