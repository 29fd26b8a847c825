//! The TDD node arena, normalization rules and unique table.
//!
//! Node and weight storage sit behind the `TddStore` abstraction. A
//! manager either holds its store alone — a plain arena, unique table
//! and weight table, the sequential fast path — or is a worker handle
//! onto a [`crate::SharedTddStore`] (lock-striped concurrent tables over
//! append-only arenas), which several managers — one per worker thread —
//! attach to so sub-diagrams hash-cons *across* threads. Computed tables
//! (`add`/`cont` memoization) always stay per-manager; only `make_node`,
//! weight interning/arithmetic and elimination-set interning route
//! through the store.
//!
//! Weights intern by one of two rules. A **private** store
//! ([`TddManager::new`]) merges values first come within tolerance for
//! its whole life. The **scoped** rule glues almost-equal weights within
//! one weight scope (see [`TddManager::begin_weight_scope`]) and interns
//! each scope's representatives by exact bits; it makes every scope a
//! pure function of its operand values. Shared-store managers use it,
//! and so does an **owned** store ([`TddManager::new_owned`]): the
//! private store's arena and unique table with the shared store's
//! interning rule, and none of its atomics, locks or stripes — what a
//! run with one worker contracts on.

use crate::fxhash::{map_bytes, FxHashMap, FxHashSet};
use crate::store::{SharedTddStore, StoreEpoch};
use crate::weight::{exact_bits, WeightId, WeightScope, WeightTable};
use qaec_math::C64;
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
/// consumed within it.
pub(crate) type ContCacheKey = (NodeId, NodeId, u32, u32);

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
    /// to create. Always 0 for a store one manager holds alone (private
    /// or owned), so always 0 for a one-worker Algorithm II run.
    pub cross_unique_hits: u64,
    /// `add` invocations / computed-table hits.
    pub add_calls: u64,
    /// `add` computed-table hits.
    pub add_hits: u64,
    /// `cont` invocations.
    pub cont_calls: u64,
    /// `cont` computed-table hits.
    pub cont_hits: u64,
    /// Garbage collections performed.
    pub gc_runs: u64,
    /// Largest arena size observed (live + dead nodes, excluding terminal).
    pub peak_nodes: usize,
    /// Bytes of backing storage held at report time: the shared store's
    /// [`crate::SharedTddStore::bytes_used`], or the arenas and tables of
    /// a store the manager holds alone. For warm sessions this is the
    /// footprint the service layer's byte-budgeted eviction accounts
    /// against.
    pub store_bytes: u64,
    /// High-water mark of `store_bytes` over the run and every retired
    /// predecessor in a reclamation chain (see
    /// [`crate::SharedTddStore::peak_bytes_used`] and
    /// [`TddManager::compact`]). With reclamation off this equals the
    /// final `store_bytes`; with it on, the gap between the two is the
    /// memory reclamation returned.
    pub peak_store_bytes: u64,
}

impl TddStats {
    /// Folds another manager's counters into this one: counts add up,
    /// size maxima take the max. Used to combine the thread-local
    /// managers of a parallel run into one report; with a shared store,
    /// merge [`crate::SharedTddStore::stats`] exactly once on top. The
    /// store footprints take the max too, which is right for managers
    /// on one shared store and for managers that succeed one another;
    /// concurrent private managers hold disjoint stores, so those
    /// combine through [`TddStats::merge_disjoint`] instead.
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
        self.gc_runs += other.gc_runs;
        self.peak_nodes = self.peak_nodes.max(other.peak_nodes);
        // A footprint, not a counter: workers on one shared store all
        // report it, so summing would multiply it by the worker count.
        self.store_bytes = self.store_bytes.max(other.store_bytes);
        self.peak_store_bytes = self.peak_store_bytes.max(other.peak_store_bytes);
    }

    /// Folds in a run on a store that is disjoint from this one's and
    /// live at the same time — concurrent private workers, or the
    /// components of a factorised check. Counts add up as in
    /// [`TddStats::merge`], and so do the sizes (`peak_nodes` and the
    /// store footprints), because both stores hold their nodes at once.
    ///
    /// # Example
    ///
    /// ```
    /// use qaec_tdd::TddStats;
    ///
    /// let mut total = TddStats { peak_nodes: 10, store_bytes: 64, ..TddStats::default() };
    /// let other = TddStats { peak_nodes: 25, store_bytes: 32, ..TddStats::default() };
    /// total.merge_disjoint(&other);
    /// assert_eq!((total.peak_nodes, total.store_bytes), (35, 96));
    /// ```
    pub fn merge_disjoint(&mut self, other: &TddStats) {
        let peak_nodes = self.peak_nodes + other.peak_nodes;
        let store_bytes = self.store_bytes + other.store_bytes;
        let peak_store_bytes = self.peak_store_bytes + other.peak_store_bytes;
        self.merge(other);
        self.peak_nodes = peak_nodes;
        self.store_bytes = store_bytes;
        self.peak_store_bytes = peak_store_bytes;
    }

    /// The work counted since `earlier`, an earlier snapshot of the same
    /// counters: counts subtract, sizes (`peak_nodes` and the store
    /// footprints) are this snapshot's.
    fn since(&self, earlier: &TddStats) -> TddStats {
        TddStats {
            nodes_created: self.nodes_created - earlier.nodes_created,
            unique_hits: self.unique_hits - earlier.unique_hits,
            cross_unique_hits: self.cross_unique_hits - earlier.cross_unique_hits,
            add_calls: self.add_calls - earlier.add_calls,
            add_hits: self.add_hits - earlier.add_hits,
            cont_calls: self.cont_calls - earlier.cont_calls,
            cont_hits: self.cont_hits - earlier.cont_hits,
            gc_runs: self.gc_runs - earlier.gc_runs,
            ..*self
        }
    }
}

/// A statistics fence over a manager and its store, taken with
/// [`TddManager::fence`] before a run so [`TddManager::stats_since`]
/// reports that run's work alone.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StatsFence {
    local: TddStats,
    store: StoreEpoch,
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
            "nodes created {} (peak {}), unique hits {} ({} cross-thread), add {} ({:.0}% hit), cont {} ({:.0}% hit), gc runs {}, store {} B (peak {} B)",
            self.nodes_created,
            self.peak_nodes,
            self.unique_hits,
            self.cross_unique_hits,
            self.add_calls,
            100.0 * rate(self.add_hits, self.add_calls),
            self.cont_calls,
            100.0 * rate(self.cont_hits, self.cont_calls),
            self.gc_runs,
            self.store_bytes,
            self.peak_store_bytes,
        )
    }
}

/// A node/weight store one manager holds alone: a plain arena and
/// unique table, the sequential fast path. A *private* store interns
/// weights first come in its [`WeightTable`]; an *owned* store differs
/// only there, interning by the scoped rule, each representative keyed
/// by its exact bits in `exact` and stored in the table's arena.
#[derive(Debug)]
pub(crate) struct PrivateStore {
    pub(crate) weights: WeightTable,
    pub(crate) nodes: Vec<Node>,
    pub(crate) unique: FxHashMap<Node, NodeId>,
    /// An owned store's exact-bits ids; `None` for a private store.
    exact: Option<FxHashMap<(u64, u64), WeightId>>,
}

impl PrivateStore {
    /// An empty private store merging weights within `tol`.
    fn private(tol: f64) -> Self {
        PrivateStore {
            weights: WeightTable::new(tol),
            nodes: vec![Node {
                var: TERMINAL_VAR,
                low: Edge::ZERO,
                high: Edge::ZERO,
            }], // slot 0 = terminal sentinel
            unique: FxHashMap::default(),
            exact: None,
        }
    }

    /// An empty owned store: weight ids follow insertion order from the
    /// exact 0 and 1, and 1 is pre-seeded under its bits, as a shared
    /// store seeds it.
    fn owned(tol: f64) -> Self {
        let mut ids = FxHashMap::default();
        ids.insert(exact_bits(C64::ONE), WeightId::ONE);
        PrivateStore {
            exact: Some(ids),
            ..PrivateStore::private(tol)
        }
    }

    /// Bytes of backing storage this store holds: arena and
    /// unique-table capacity plus the weights — the counterpart of
    /// [`SharedTddStore::bytes_used`], so shared and unshared memory
    /// are comparable in reports. Capacity-based like the shared
    /// estimate (`fxhash::map_bytes` charges a hash map per slot).
    pub(crate) fn bytes_used(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + map_bytes(&self.unique)
            + self.weights.bytes_used()
            + self.exact.as_ref().map_or(0, map_bytes)
    }

    /// The id of `z`'s exact bits in an owned store, minted on first
    /// sight: the owned counterpart of
    /// [`SharedTddStore::intern_weight_exact`].
    fn intern_exact(
        ids: &mut FxHashMap<(u64, u64), WeightId>,
        weights: &mut WeightTable,
        z: C64,
    ) -> WeightId {
        *ids.entry(exact_bits(z)).or_insert_with(|| weights.push(z))
    }

    /// Appends a node the unique table does not hold.
    fn insert(&mut self, key: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(key);
        self.unique.insert(key, id);
        id
    }

    /// Migrates the diagrams reachable from `roots` into a fresh owned
    /// store, returning it and the remapped roots: the owned store's
    /// [`SharedTddStore::compact`], visiting edges in the same order
    /// (each edge's weight, then its node's low and high edges, then the
    /// node). Every weight but 0 and 1 re-interns by its exact bits, so
    /// values migrate bit-exactly and a later intern of the same bits
    /// finds the migrated id.
    fn compact(&self, roots: &[Edge]) -> (Self, Vec<Edge>) {
        let mut next = PrivateStore::owned(self.weights.tolerance());
        let mut maps = MigrationMaps::default();
        let remapped = roots
            .iter()
            .map(|&root| self.migrate_edge(&mut next, root, &mut maps))
            .collect();
        (next, remapped)
    }

    fn migrate_edge(&self, next: &mut Self, edge: Edge, maps: &mut MigrationMaps) -> Edge {
        let weight = if edge.weight.is_zero() || edge.weight.is_one() {
            edge.weight
        } else {
            let ids = next.exact.as_mut().expect("a compacted store is owned");
            let weights = &mut next.weights;
            *maps.0.entry(edge.weight).or_insert_with(|| {
                Self::intern_exact(ids, weights, self.weights.value(edge.weight))
            })
        };
        Edge {
            node: self.migrate_node(next, edge.node, maps),
            weight,
        }
    }

    fn migrate_node(&self, next: &mut Self, id: NodeId, maps: &mut MigrationMaps) -> NodeId {
        if id.is_terminal() {
            return id;
        }
        if let Some(&mapped) = maps.1.get(&id) {
            return mapped;
        }
        let old = self.nodes[id.0 as usize];
        let low = self.migrate_edge(next, old.low, maps);
        let high = self.migrate_edge(next, old.high, maps);
        let mapped = next.insert(Node {
            var: old.var,
            low,
            high,
        });
        maps.1.insert(id, mapped);
        mapped
    }
}

/// Both halves of a migration's memo: old → new weight and node ids.
type MigrationMaps = (FxHashMap<WeightId, WeightId>, FxHashMap<NodeId, NodeId>);

/// Where a manager keeps its nodes and weights: a store it holds alone
/// (private or owned), or a handle onto a cross-thread
/// [`SharedTddStore`].
#[derive(Debug)]
pub(crate) enum TddStore {
    /// Storage this manager alone holds.
    Private(PrivateStore),
    /// A worker handle onto storage shared with other managers; weights
    /// intern by the scoped rule, their exact bits in the store
    /// ([`SharedTddStore::intern_weight_exact`]).
    Shared {
        store: Arc<SharedTddStore>,
        worker: u32,
    },
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
    /// The weight-interning tolerance.
    tol: f64,
    /// The scoped rule's per-scope state (owned and shared stores; a
    /// private store leaves it empty).
    scope: WeightScope,
    pub(crate) add_cache: FxHashMap<(Edge, Edge), Edge>,
    pub(crate) cont_cache: FxHashMap<ContCacheKey, Edge>,
    /// Elimination sets of a store the manager holds alone (a shared
    /// store interns them store-side).
    elim_sets: Vec<Vec<u32>>,
    elim_set_ids: FxHashMap<Vec<u32>, u32>,
    /// Deadline probed inside the `add`/`cont` recursions (see
    /// [`Self::set_deadline`]).
    deadline: Option<std::time::Instant>,
    /// Recursion calls left before the next `Instant::now()` probe.
    probe_budget: u32,
    /// Latched once a probe observes the deadline in the past.
    expired: bool,
    /// The traversal buffers [`Self::count_nodes`] reuses (visited set,
    /// stack), so counting each plan step's result allocates nothing.
    count_buffers: (FxHashSet<NodeId>, Vec<NodeId>),
    pub(crate) stats: TddStats,
}

/// How many `add`/`cont` recursion calls run between two clock reads of
/// the amortised deadline probe. Each call does O(1) work outside its
/// sub-calls, so the overshoot past a deadline is bounded by roughly
/// this many node constructions plus one in-flight leaf operation.
pub const DEADLINE_PROBE_INTERVAL: u32 = 1024;

/// The default weight-interning tolerance.
const DEFAULT_TOLERANCE: f64 = 1e-10;

impl Default for TddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TddManager {
    /// A manager with a private store and the default weight tolerance
    /// (`1e-10`).
    pub fn new() -> Self {
        Self::with_tolerance(DEFAULT_TOLERANCE)
    }

    /// A manager with a private store and a custom weight-interning
    /// tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not strictly positive and finite.
    pub fn with_tolerance(tol: f64) -> Self {
        Self::with_store(TddStore::Private(PrivateStore::private(tol)), tol)
    }

    /// A manager with an owned store and the default weight tolerance:
    /// the private store's arena and unique table, with weights interned
    /// by the shared store's scoped rule on plain tables. A run on it
    /// computes the same values as the same run on a [`SharedTddStore`],
    /// without its atomics, locks or stripes; this is what a one-worker
    /// Algorithm II run contracts on. Ids follow insertion order — node
    /// 0 is the terminal, weights 0 and 1 the exact constants. Callers
    /// own the scope boundaries, as on a shared store.
    ///
    /// # Example
    ///
    /// ```
    /// use qaec_math::C64;
    /// use qaec_tdd::TddManager;
    ///
    /// let mut m = TddManager::new_owned();
    /// m.begin_weight_scope();
    /// let a = m.terminal(C64::real(0.5));
    /// m.begin_weight_scope();
    /// // A new scope elects a new representative: within tolerance but
    /// // not bit-equal, so a different weight.
    /// let b = m.terminal(C64::real(0.5 + 1e-12));
    /// assert_ne!(a, b);
    /// assert_eq!(m.terminal(C64::real(0.5 + 2e-12)), b, "glued within the scope");
    /// ```
    pub fn new_owned() -> Self {
        let store = PrivateStore::owned(DEFAULT_TOLERANCE);
        Self::with_store(TddStore::Private(store), DEFAULT_TOLERANCE)
    }

    /// A worker manager attached to a [`SharedTddStore`]: nodes, weights
    /// and elimination sets go through the shared concurrent tables,
    /// while computed tables stay local to this manager. Handles minted
    /// here are valid in every other manager attached to `store`.
    ///
    /// Weights glue within [`Self::begin_weight_scope`] windows and
    /// intern by exact bits. Callers own the scope boundaries: open one
    /// per leaf conversion and per plan step (the drivers and
    /// [`crate::convert::from_tensor`] do), and results are
    /// bit-identical whatever the schedule or thread count.
    pub fn new_shared(store: &Arc<SharedTddStore>) -> Self {
        let shared = TddStore::Shared {
            store: Arc::clone(store),
            worker: store.register_worker(),
        };
        Self::with_store(shared, store.tolerance())
    }

    /// Opens a new weight scope on a scoped (owned or shared) manager:
    /// empties the scope memo and the tolerance index in place (keeping
    /// their capacity) so the next tolerance neighbourhood elects a fresh
    /// representative, and clears the computed tables (their entries
    /// embed the outgoing scope's representative ids). A no-op for
    /// private managers, so generic call sites — `from_tensor`, the plan
    /// drivers — can mark scope boundaries unconditionally.
    ///
    /// Each scope is a pure function of its operand *values*: within a
    /// scope, representative election follows the deterministic
    /// recursion order, and across scopes only exact bits persist (via
    /// the store's exact-bits interning). That is the determinism
    /// invariant that keeps scoped runs bit-identical for every thread
    /// count and store kind.
    pub fn begin_weight_scope(&mut self) {
        if self.is_scoped() {
            self.scope.clear();
            self.clear_computed_tables();
        }
    }

    fn with_store(store: TddStore, tol: f64) -> Self {
        TddManager {
            store,
            tol,
            scope: WeightScope::new(tol),
            add_cache: FxHashMap::default(),
            cont_cache: FxHashMap::default(),
            elim_sets: Vec::new(),
            elim_set_ids: FxHashMap::default(),
            deadline: None,
            probe_budget: DEADLINE_PROBE_INTERVAL,
            expired: false,
            count_buffers: Default::default(),
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
        self.shared_store().is_some()
    }

    /// The shared store this manager is attached to, if any.
    pub(crate) fn shared_store(&self) -> Option<&Arc<SharedTddStore>> {
        match &self.store {
            TddStore::Shared { store, .. } => Some(store),
            TddStore::Private(_) => None,
        }
    }

    /// Whether weights intern by the scoped rule: on an owned or a
    /// shared store.
    fn is_scoped(&self) -> bool {
        match &self.store {
            TddStore::Private(p) => p.exact.is_some(),
            TddStore::Shared { .. } => true,
        }
    }

    /// The weight table of a private store, which does its own weight
    /// arithmetic; `None` on a scoped manager.
    #[inline]
    fn first_come(&mut self) -> Option<&mut WeightTable> {
        match &mut self.store {
            TddStore::Private(PrivateStore {
                weights,
                exact: None,
                ..
            }) => Some(weights),
            _ => None,
        }
    }

    /// Whether mark-compact garbage collection is available: on a
    /// private store only. Shared stores are append-only (other workers
    /// hold live ids into the arena), and both scoped stores reclaim by
    /// [`Self::compact`], so [`crate::gc::collect`] is a no-op for them.
    pub fn supports_gc(&self) -> bool {
        !self.is_scoped()
    }

    /// The private store, for the collector.
    ///
    /// # Panics
    ///
    /// Panics on a scoped manager (callers check [`Self::supports_gc`]
    /// first).
    pub(crate) fn private_mut(&mut self) -> &mut PrivateStore {
        match &mut self.store {
            TddStore::Private(p) => p,
            TddStore::Shared { .. } => unreachable!("GC requested on a shared store"),
        }
    }

    /// Operation statistics so far. For shared-store managers this holds
    /// only the manager-local counters (computed tables);
    /// allocation counters and store footprint live in
    /// [`crate::SharedTddStore::stats`]. A manager that holds its store
    /// alone reports the store's counters and footprint here too, so
    /// shared and unshared memory are comparable in merged reports.
    pub fn stats(&self) -> TddStats {
        let mut stats = self.stats;
        if let TddStore::Private(p) = &self.store {
            stats.store_bytes = p.bytes_used() as u64;
            stats.peak_store_bytes = stats.peak_store_bytes.max(stats.store_bytes);
        }
        stats
    }

    /// Fences the statistics before a run: [`Self::stats_since`] then
    /// reports the run's work alone, however warm the manager and its
    /// store are.
    pub(crate) fn fence(&self) -> StatsFence {
        StatsFence {
            local: self.stats,
            store: self
                .shared_store()
                .map_or_else(StoreEpoch::default, |store| store.reset_between_runs()),
        }
    }

    /// The statistics of the work since `fence`: this manager's counters
    /// and, on a shared store, the store's allocation and sharing
    /// counters — every manager's, since the store counts them once.
    /// Sizes (`peak_nodes`, the store footprints) are the current ones.
    pub(crate) fn stats_since(&self, fence: &StatsFence) -> TddStats {
        let mut stats = self.stats().since(&fence.local);
        if let Some(store) = self.shared_store() {
            stats.merge(&store.stats_since(fence.store));
        }
        stats
    }

    /// The store's current and peak bytes of backing storage (see
    /// [`TddStats::store_bytes`]); for a shared store, every attached
    /// manager's.
    pub fn store_bytes(&self) -> (usize, usize) {
        let stats = self
            .shared_store()
            .map_or_else(|| self.stats(), |store| store.stats());
        (stats.store_bytes as usize, stats.peak_store_bytes as usize)
    }

    /// A lower-bound estimate of the store's payload bytes (node and
    /// weight entries), cheap enough to poll at every quiescent
    /// boundary: the reclamation trigger.
    pub fn approx_data_bytes(&self) -> usize {
        match &self.store {
            TddStore::Private(p) => {
                (p.nodes.len() - 1) * std::mem::size_of::<Node>()
                    + p.weights.len() * std::mem::size_of::<C64>()
            }
            TddStore::Shared { store, .. } => store.approx_data_bytes(),
        }
    }

    /// The payload ([`Self::approx_data_bytes`]) from which a session's
    /// size-triggered reclamation compacts this store ([`Self::compact`]).
    /// A store this manager holds alone compacts from 256 KiB, so a
    /// sweep keeps about one point's nodes and weights and its unique
    /// and exact-bits tables stay cache-sized; its fresh successor costs
    /// little. A shared store waits for 16 MiB, because its successor
    /// allocates a probe table per stripe up front.
    pub fn reclaim_budget(&self) -> usize {
        match &self.store {
            TddStore::Private(_) => 256 << 10,
            TddStore::Shared { .. } => 16 << 20,
        }
    }

    /// Reclaims a scoped store at a quiescent boundary: migrates exactly
    /// the diagrams reachable from `roots` — nodes *and* weights — into
    /// a fresh store of the same kind and returns the remapped roots, in
    /// order. An owned store is replaced in place; a shared-store manager
    /// swaps to [`SharedTddStore::compact`]'s successor. Values migrate
    /// bit-exactly, so no result moves. Every other edge the caller
    /// holds becomes invalid, and the computed tables and scope are
    /// emptied. Statistics stay continuous: the store's peak footprint
    /// carries over, and migration counts no work.
    ///
    /// # Panics
    ///
    /// Panics on a private store, whose first-come weights cannot
    /// re-intern by exact bits ([`crate::gc::collect`] compacts those).
    pub fn compact(&mut self, roots: &[Edge]) -> Vec<Edge> {
        self.note_store_peak();
        let remapped = match &mut self.store {
            TddStore::Private(p) => {
                assert!(
                    p.exact.is_some(),
                    "a private store compacts with gc::collect"
                );
                let (next, remapped) = p.compact(roots);
                *p = next;
                remapped
            }
            TddStore::Shared { store, worker } => {
                let (next, remapped) = store.compact(roots);
                *worker = next.register_worker();
                *store = next;
                remapped
            }
        };
        self.scope.clear();
        self.clear_computed_tables();
        remapped
    }

    /// Records the current footprint of a store the manager holds alone
    /// into the `peak_store_bytes` high-water mark. Called before garbage
    /// collection and compaction, the only events that shrink such a
    /// store.
    pub(crate) fn note_store_peak(&mut self) {
        if let TddStore::Private(p) = &self.store {
            self.stats.peak_store_bytes = self.stats.peak_store_bytes.max(p.bytes_used() as u64);
        }
    }

    /// The weight-interning tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tol
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
    #[inline]
    pub fn intern_weight(&mut self, z: C64) -> WeightId {
        match &mut self.store {
            TddStore::Private(PrivateStore {
                weights,
                exact: Some(ids),
                ..
            }) => self
                .scope
                .intern(z, |z| PrivateStore::intern_exact(ids, weights, z)),
            TddStore::Private(p) => p.weights.intern(z),
            TddStore::Shared { store, .. } => {
                self.scope.intern(z, |z| store.intern_weight_exact(z))
            }
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
        if let Some(table) = self.first_come() {
            return table.mul(a, b);
        }
        if a.is_zero() || b.is_zero() {
            WeightId::ZERO
        } else if a.is_one() {
            b
        } else if b.is_one() {
            a
        } else {
            self.intern_weight(self.weight_value(a) * self.weight_value(b))
        }
    }

    /// Interned sum `a + b`.
    pub(crate) fn wadd(&mut self, a: WeightId, b: WeightId) -> WeightId {
        if let Some(table) = self.first_come() {
            return table.add(a, b);
        }
        if a.is_zero() {
            b
        } else if b.is_zero() {
            a
        } else {
            self.intern_weight(self.weight_value(a) + self.weight_value(b))
        }
    }

    /// Interned quotient `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is the zero weight.
    pub(crate) fn wdiv(&mut self, a: WeightId, b: WeightId) -> WeightId {
        if let Some(table) = self.first_come() {
            return table.div(a, b);
        }
        assert!(!b.is_zero(), "division by the zero weight");
        if a.is_zero() {
            WeightId::ZERO
        } else if b.is_one() {
            a
        } else if a == b {
            WeightId::ONE
        } else {
            self.intern_weight(self.weight_value(a) / self.weight_value(b))
        }
    }

    /// Interned scalar multiple by a real factor.
    pub(crate) fn wscale_real(&mut self, a: WeightId, factor: f64) -> WeightId {
        if let Some(table) = self.first_come() {
            return table.scale_real(a, factor);
        }
        if factor == 0.0 {
            WeightId::ZERO
        } else if a.is_zero() {
            a
        } else {
            self.intern_weight(self.weight_value(a) * factor)
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
        let norm = if ml + self.tol >= mh {
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
                    let id = p.insert(key);
                    self.stats.nodes_created += 1;
                    self.stats.peak_nodes = self.stats.peak_nodes.max(p.nodes.len() - 1);
                    id
                }
            },
            // Allocation counters are store-owned under sharing (merged
            // once per run), so nothing is added to the local stats here.
            TddStore::Shared { store, worker } => store.unique_node(key, *worker),
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
        self.count_reachable(e, &mut FxHashSet::default(), &mut Vec::new())
    }

    /// [`Self::node_count`] on the manager's reused buffers, for the
    /// plan drivers, which count every step's result and every
    /// converted input.
    pub(crate) fn count_nodes(&mut self, e: Edge) -> usize {
        let (mut seen, mut stack) = std::mem::take(&mut self.count_buffers);
        let count = self.count_reachable(e, &mut seen, &mut stack);
        self.count_buffers = (seen, stack);
        count
    }

    /// Counts the nodes reachable from `e` (terminal included) with the
    /// given visited set and stack, emptying the set first.
    fn count_reachable(
        &self,
        e: Edge,
        seen: &mut FxHashSet<NodeId>,
        stack: &mut Vec<NodeId>,
    ) -> usize {
        seen.clear();
        stack.push(e.node);
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
    fn owned_store_charges_each_map_slot_its_stored_tuple() {
        // A slot holds its stored tuple, alignment padding included,
        // plus one control byte.
        let node_slot = std::mem::size_of::<(Node, NodeId)>() + 1;
        let exact_slot = std::mem::size_of::<((u64, u64), WeightId)>() + 1;
        assert_eq!((node_slot, exact_slot), (25, 25));

        let mut m = TddManager::new_owned();
        for k in 0..300 {
            m.begin_weight_scope();
            let low = m.terminal(C64::real(f64::from(k) + 0.5));
            let high = m.terminal(C64::new(0.25, f64::from(k)));
            m.make_node(k as u32 % 7, low, high);
        }
        let TddStore::Private(p) = &m.store else {
            panic!("an owned store is private");
        };
        let exact = p
            .exact
            .as_ref()
            .expect("an owned store keeps exact-bits ids");
        assert!(exact.len() > 300 && p.unique.len() > 100);
        let expected = p.nodes.capacity() * std::mem::size_of::<Node>()
            + p.unique.capacity() * node_slot
            + p.weights.bytes_used()
            + exact.capacity() * exact_slot;
        assert_eq!(p.bytes_used(), expected);
    }

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
    fn shared_normalization_keeps_weights_just_above_the_tolerance() {
        // A weight just above the zero tolerance must keep its value:
        // stored as exactly `tol`, normalisation would take the zero
        // sibling as the norm and divide by it (seen on Algorithm I over
        // qv_n6d5 with three depolarizing sites).
        let store = SharedTddStore::new();
        let mut m = TddManager::new_shared(&store);
        let z = C64::real(m.tolerance() * (1.0 + 1e-6));
        let high = m.terminal(z);
        let e = m.make_node(0, Edge::ZERO, high);
        assert_eq!(m.weight_value(e.weight), z);
        assert_eq!(m.eval(e, &[0]), C64::ZERO);
        assert_eq!(m.eval(e, &[1]), z);
    }

    /// A small diagram whose weights glue within one scope, built the
    /// same way on any scoped manager.
    fn scoped_sample(m: &mut TddManager) -> Edge {
        m.begin_weight_scope();
        let l = m.terminal(C64::new(0.5, -0.25));
        let h = m.terminal(C64::new(0.5 + 1e-12, -0.25));
        let x = m.terminal(C64::real(1.0 / 3.0));
        let inner = m.make_node(1, l, x);
        let other = m.make_node(1, h, x);
        let weight = m.wscale_real(other.weight, 3.0);
        m.make_node(0, inner, Edge { weight, ..other })
    }

    fn values(m: &TddManager, e: Edge) -> Vec<(u64, u64)> {
        [[0, 0], [0, 1], [1, 0], [1, 1]]
            .iter()
            .map(|a| {
                let z = m.eval(e, a);
                (z.re.to_bits(), z.im.to_bits())
            })
            .collect()
    }

    #[test]
    fn owned_store_interns_by_the_shared_rule() {
        let mut owned = TddManager::new_owned();
        let mut shared = TddManager::new_shared(&SharedTddStore::new());
        let (a, b) = (scoped_sample(&mut owned), scoped_sample(&mut shared));
        assert_eq!(values(&owned, a), values(&shared, b), "same bits");
        assert!(owned.is_scoped() && !owned.is_shared() && !owned.supports_gc());
        // The store is the manager's own: it counts its allocations, and
        // no hit can cross workers.
        let stats = owned.stats();
        assert_eq!(stats.nodes_created, owned.arena_len() as u64);
        assert_eq!(stats.cross_unique_hits, 0);
        assert!(stats.store_bytes > 0);
    }

    #[test]
    fn owned_compaction_migrates_nodes_and_weights_bit_exactly() {
        let mut m = TddManager::new_owned();
        let root = scoped_sample(&mut m);
        // Garbage the compaction must drop: nodes and weights no root
        // reaches.
        for k in 1..50 {
            m.begin_weight_scope();
            let l = m.terminal(C64::real(k as f64 * 0.01));
            let _ = m.make_node(2, l, Edge::ONE);
        }
        let (before, data, expected) = (m.stats(), m.approx_data_bytes(), values(&m, root));
        let kept = m.compact(&[root]);
        assert_eq!(values(&m, kept[0]), expected, "values migrate bit-exactly");
        assert_eq!(
            m.arena_len(),
            m.node_count(kept[0]) - 1,
            "only live nodes stay"
        );
        assert!(m.approx_data_bytes() < data, "dead weights go too");
        let after = m.stats();
        assert_eq!(
            after.nodes_created, before.nodes_created,
            "migration is not work"
        );
        assert!(after.peak_store_bytes >= before.store_bytes);
        // A later intern of a migrated value's bits finds its id.
        m.begin_weight_scope();
        let bits = m.weight_value(kept[0].weight);
        assert_eq!(m.intern_weight(bits), kept[0].weight);
    }

    #[test]
    #[should_panic(expected = "gc::collect")]
    fn private_store_does_not_compact() {
        TddManager::new().compact(&[]);
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
}
