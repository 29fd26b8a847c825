//! The shared concurrent TDD store: a lock-striped unique table plus
//! sharded exact-bits weight interning over per-stripe append-only
//! arenas.
//!
//! A [`SharedTddStore`] lets several [`crate::TddManager`]s — one per
//! worker thread — hash-cons nodes and intern weights into *one* set of
//! tables, so common sub-diagrams built by different workers are stored
//! once and cross-thread `NodeId`/`WeightId` handles stay valid
//! everywhere. It is the store for runs with more than one worker; a
//! run with one worker contracts on an owned store
//! ([`crate::TddManager::new_owned`]), which applies the same interning
//! rule on plain tables. Four design rules make this safe and fast:
//!
//! * **Append-only arenas.** Nodes, weights and elimination sets live in
//!   append-only arenas that never move or free entries, so `node(id)` and
//!   `weight_value(id)` are lock-free reads from any thread. *In-place*
//!   compacting garbage collection is therefore impossible while a store
//!   is shared; [`crate::gc::collect`] degrades to a documented no-op.
//!   Long sessions reclaim memory by **epoch-based store swapping**
//!   instead: once every attached manager announces quiescence (a
//!   sweep-point boundary, or a plan-step barrier in a single-worker
//!   run), the session swaps in [`SharedTddStore::successor`] (no live
//!   roots) or [`SharedTddStore::compact`] (live roots migrated
//!   bit-exactly) and drops the retired store, freeing every
//!   unreachable chunk at once.
//! * **Lock striping with a lock-free hit path.** Find-or-insert goes
//!   through one of 64 mutex-guarded hash-map shards selected by the
//!   key's hash (a node, or a weight's bit pattern), so concurrent
//!   inserts rarely meet on one lock. In front of each node stripe sits
//!   a fixed-size probe table of single-word atomic slots: the dominant
//!   case — a lookup that *hits* — verifies its candidate against the
//!   immutable arena entry and returns without ever taking the stripe
//!   mutex, which only insertions and probe misses touch. Managers reach
//!   the weight stripes only for a scope's new representatives (see
//!   below).
//! * **No global hot lines.** Each stripe owns its *own* arena shard —
//!   an id is `(stripe, index)` packed into a `u32`, the shard in the
//!   high 6 bits and the index in the low 26 — so
//!   allocation happens under the stripe lock the inserter already
//!   holds, and sharing statistics live inside the stripe too. There is
//!   no global allocation lock, counter or length for every worker to
//!   bounce a cache line on — reads only check their own shard's length,
//!   written solely by that stripe's insertions; independent
//!   sub-contractions scale because they touch disjoint stripes most of
//!   the time.
//! * **Value-pure interning.** The private [`crate::WeightTable`] merges
//!   values *first-come-first-served* within a tolerance, which makes
//!   the stored representative depend on insertion order — harmless
//!   sequentially, but racy across threads. The shared store interns by
//!   **exact bits** instead (`SharedTddStore::intern_weight_exact`): the
//!   bit pattern is both the key and the stored value, a pure function
//!   of the value. Gluing of almost-equal values is layered on top by
//!   the *managers*, inside per-operation scopes (see
//!   `TddManager::begin_weight_scope` and `weight::WeightScope`): one
//!   leaf conversion or one plan step is one scope, whose first value
//!   seen in a tolerance neighbourhood becomes its representative by the
//!   private table's rule (`weight::ToleranceIndex`). A manager resolves
//!   a value through its scope memo (exact bits seen in this scope),
//!   then its tolerance index, and only a new representative reaches
//!   this store's map — the one place an exact-bits id is kept across
//!   scopes and managers.
//!   Each scope is a pure function of its operand values, so every
//!   arithmetic result is identical whatever the thread interleaving,
//!   which is what makes shared-store parallel runs **bit-identical**
//!   to sequential ones, and to one-worker runs on an owned store. (Ids
//!   themselves are scheduling-dependent — which stripe index a node
//!   lands on depends on who inserts first — and follow the stripe
//!   layout, but no value ever depends on an id.)

use crate::fxhash::{self, map_bytes, FxHashMap};
use crate::manager::{Edge, Node, NodeId, TddStats, TERMINAL_VAR};
use crate::weight::WeightId;
use qaec_math::C64;
use std::cell::UnsafeCell;
use std::hash::Hash;
use std::mem::MaybeUninit;
use std::sync::{Arc, OnceLock};

use crate::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::Mutex;

/// log2 of the stripe count: 64 mutex stripes per concurrent table (a
/// power of two, so stripe selection is a mask).
const STRIPE_BITS: u32 = 6;
/// Number of lock stripes (and arena shards) per table.
const STRIPES: usize = 1 << STRIPE_BITS;
/// Bits of an id left to the in-shard index.
const INDEX_BITS: u32 = u32::BITS - STRIPE_BITS;

/// log2 of the per-stripe probe-table size: 4096 slots × 8 B = 32 KiB
/// per stripe, 2 MiB per store — a fixed cache overhead, deliberately
/// *excluded* from [`SharedTddStore::bytes_used`] (it neither grows with
/// the workload nor is reclaimed before the store drops).
const PROBE_BITS: u32 = 12;
/// Slots in each stripe's lock-free probe table.
const PROBE_SLOTS: usize = 1 << PROBE_BITS;

/// Packs a `(shard, index)` pair into an id: the shard takes the high
/// [`STRIPE_BITS`] bits and the index the low [`INDEX_BITS`].
///
/// # Panics
///
/// Panics if `index` does not fit its bits — the shard is full. Only
/// insertions pack ids, so reads never pay for the check.
#[inline]
fn encode(shard: usize, index: usize) -> u32 {
    assert!(
        index >> INDEX_BITS == 0,
        "arena shard full: index {index} needs more than {INDEX_BITS} bits"
    );
    ((shard << INDEX_BITS) | index) as u32
}

/// Unpacks an id into its `(shard, index)` pair.
#[inline]
fn decode(id: u32) -> (usize, usize) {
    (
        (id >> INDEX_BITS) as usize,
        (id & ((1 << INDEX_BITS) - 1)) as usize,
    )
}

/// log2 of the first arena chunk's capacity.
const FIRST_BITS: u32 = 10;
/// Spine length: chunk `c` holds `2^(10 + c)` slots, so 17 chunks cover
/// the 2^26 indices of a shard.
const SPINE: usize = 17;

/// One lazily-allocated chunk of arena slots.
type Chunk<T> = Box<[UnsafeCell<MaybeUninit<T>>]>;

/// An append-only, grow-only arena shard with lock-free reads.
///
/// Entries are immutable once pushed. Storage is a spine of
/// doubling-size chunks allocated lazily, so pushing never moves
/// existing entries and readers never observe a reallocation. A small
/// internal mutex serialises appends — uncontended in practice, because
/// each shard is only pushed to under its table stripe's lock. The
/// published length is released *after* the slot is written, so any
/// reader that checks `index < len` (with an acquire load) sees fully
/// initialised data; per-shard lengths keep that check off the globally
/// contended cache lines a single shared counter would create.
struct AppendArena<T> {
    spine: [OnceLock<Chunk<T>>; SPINE],
    len: AtomicUsize,
    push_lock: Mutex<()>,
}

// SAFETY: slots are written exactly once, under the push lock, before
// the id escapes through a synchronising publication (release store of
// `len` plus the stripe mutex release); they are immutable afterwards.
unsafe impl<T: Send + Sync> Sync for AppendArena<T> {}
// SAFETY: moving the arena moves ownership of every initialised slot, so
// sending it between threads only requires the entries themselves to be
// `Send`; the spine, length and push lock are all `Send` already.
unsafe impl<T: Send> Send for AppendArena<T> {}

/// Maps an entry index to its (chunk, offset) coordinates.
#[inline]
fn locate(index: usize) -> (usize, usize) {
    let adjusted = index + (1usize << FIRST_BITS);
    let level = usize::BITS - 1 - adjusted.leading_zeros();
    let chunk = (level - FIRST_BITS) as usize;
    (chunk, adjusted - (1usize << level))
}

impl<T> AppendArena<T> {
    fn new() -> Self {
        AppendArena {
            spine: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            push_lock: Mutex::new(()),
        }
    }

    /// Number of initialised entries.
    #[inline]
    fn len(&self) -> usize {
        // ordering: Acquire pairs with the Release store in `push`; any
        // index below the loaded length has its slot write visible.
        self.len.load(Ordering::Acquire)
    }

    /// Appends `value`, returning its index.
    fn push(&self, value: T) -> usize {
        let _guard = self.push_lock.lock().expect("arena push lock poisoned");
        // ordering: Relaxed is enough — `len` is only stored under the push
        // lock we hold, so this read cannot miss a concurrent append.
        let index = self.len.load(Ordering::Relaxed);
        let (chunk, offset) = locate(index);
        let slots = self.spine[chunk].get_or_init(|| {
            let capacity = 1usize << (FIRST_BITS as usize + chunk);
            (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect()
        });
        // SAFETY: `index` is past the published length, so no reader may
        // hold its id yet, and the push lock excludes other writers.
        unsafe { (*slots[offset].get()).write(value) };
        // ordering: Release publishes the slot write above; readers that
        // acquire-load `len` and see `index < len` see the initialised slot.
        self.len.store(index + 1, Ordering::Release);
        index
    }

    /// Bytes of arena backing storage currently allocated: the capacity
    /// of every lazily-materialised chunk, whether or not its slots are
    /// filled yet. Chunks are never freed while the arena lives, so this
    /// is exactly what dropping the arena returns to the allocator
    /// (excluding per-entry heap owned by `T` itself).
    fn bytes_allocated(&self) -> usize {
        self.spine
            .iter()
            .enumerate()
            .filter(|(_, chunk)| chunk.get().is_some())
            .map(|(level, _)| (1usize << (FIRST_BITS as usize + level)) * std::mem::size_of::<T>())
            .sum()
    }

    /// Reads the entry at `index`.
    ///
    /// The bounds check keeps handle misuse (e.g. an `Edge` minted by a
    /// *different* store) a clean panic rather than an uninitialised
    /// read. It is cheap: each shard's length line is written only on
    /// that stripe's insertions, so readers rarely bounce it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    fn get(&self, index: usize) -> &T {
        assert!(index < self.len(), "arena index {index} out of bounds");
        let (chunk, offset) = locate(index);
        let slots = self.spine[chunk].get().expect("chunk published");
        // SAFETY: `index < len` (acquire) implies the slot was fully
        // written before the length was released, and it never mutates.
        unsafe { (*slots[offset].get()).assume_init_ref() }
    }
}

impl<T> Drop for AppendArena<T> {
    fn drop(&mut self) {
        if !std::mem::needs_drop::<T>() {
            return;
        }
        for index in 0..*self.len.get_mut() {
            let (chunk, offset) = locate(index);
            if let Some(slots) = self.spine[chunk].get_mut() {
                // SAFETY: every index below `len` was initialised once
                // and is dropped exactly once here.
                unsafe { slots[offset].get_mut().assume_init_drop() };
            }
        }
    }
}

/// A statistics fence over a [`SharedTddStore`], taken between two runs
/// that share one warm store (see
/// [`SharedTddStore::reset_between_runs`]). Holds the allocation and
/// sharing counters at fence time so [`SharedTddStore::stats_since`] can
/// attribute only the *delta* to the run that follows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreEpoch {
    nodes_created: u64,
    unique_hits: u64,
    cross_unique_hits: u64,
}

/// One arena entry: the canonical node plus the worker that first
/// interned it (so cross-thread hit attribution is a lock-free arena
/// read instead of a map-entry field behind the stripe mutex).
#[derive(Clone, Copy)]
pub(crate) struct NodeEntry {
    pub(crate) node: Node,
    pub(crate) creator: u32,
}

/// One unique-table stripe.
///
/// The authoritative find-or-insert map sits behind a mutex, but in
/// front of it is a fixed-size, lock-free *probe table*: each slot is a
/// single `AtomicU64` packing `(hash tag << 32) | node id`, published
/// with release ordering after the node is pushed to the arena. The hot
/// path — lookups that hit, which outnumber insertions by an order of
/// magnitude on contraction workloads — loads one slot with acquire
/// ordering, verifies the candidate by reading the (immutable) arena
/// entry and comparing the full node key, and never touches the mutex.
/// A word-sized atomic slot cannot tear, and the full-key verification
/// rejects tag collisions and slots overwritten by a colliding node, so
/// a probe miss or mismatch simply falls back to the mutex-guarded map.
/// Zero means "empty": the terminal sentinel (id 0) is never published,
/// so every real entry is non-zero. Sharing counters are plain atomics
/// so fast-path hits count without taking the stripe lock.
struct NodeStripe {
    /// Authoritative `node → id` map (insertions and probe misses).
    map: Mutex<FxHashMap<Node, NodeId>>,
    /// Lock-free hit cache in front of `map`; see the struct docs.
    probe: Box<[AtomicU64]>,
    hits: AtomicU64,
    cross_hits: AtomicU64,
}

impl NodeStripe {
    fn new() -> Self {
        NodeStripe {
            map: Mutex::new(FxHashMap::default()),
            probe: (0..PROBE_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            hits: AtomicU64::new(0),
            cross_hits: AtomicU64::new(0),
        }
    }

    /// The probe slot and tag for a key hash. The slot skips the low
    /// [`STRIPE_BITS`] bits (they select the stripe, so are constant
    /// within it) and the tag takes the high 32, so slot and tag are
    /// nearly independent.
    #[inline]
    fn probe_coords(hash: u64) -> (usize, u32) {
        (
            ((hash >> STRIPE_BITS) as usize) & (PROBE_SLOTS - 1),
            (hash >> 32) as u32,
        )
    }

    /// Packs a probe entry; `id` is non-zero for every published node.
    #[inline]
    fn pack(tag: u32, id: NodeId) -> u64 {
        ((tag as u64) << 32) | id.0 as u64
    }
}

/// The concurrent node + weight + elimination-set store shared by the
/// worker managers of one parallel run.
///
/// Create one per run with [`SharedTddStore::new`] (or
/// [`SharedTddStore::with_tolerance`]) and hand clones of the `Arc` to
/// [`crate::TddManager::new_shared`]. All handles minted by any attached
/// manager are valid in every other attached manager.
///
/// # Example
///
/// ```
/// use qaec_math::C64;
/// use qaec_tdd::{SharedTddStore, TddManager};
///
/// let store = SharedTddStore::new();
/// let mut a = TddManager::new_shared(&store);
/// let mut b = TddManager::new_shared(&store);
/// let ea = {
///     let l = a.terminal(C64::real(1.0));
///     let h = a.terminal(C64::real(2.0));
///     a.make_node(0, l, h)
/// };
/// let eb = {
///     let l = b.terminal(C64::real(1.0));
///     let h = b.terminal(C64::real(2.0));
///     b.make_node(0, l, h)
/// };
/// // Hash-consed across managers: same node id, stored exactly once.
/// assert_eq!(ea, eb);
/// assert_eq!(store.stats().nodes_created, 1);
/// assert_eq!(store.stats().cross_unique_hits, 1);
/// ```
pub struct SharedTddStore {
    /// The merging radius the attached managers glue weights within.
    tol: f64,
    /// One node arena shard per stripe, pushed under that stripe's lock.
    nodes: Vec<AppendArena<NodeEntry>>,
    node_stripes: Vec<NodeStripe>,
    /// One weight arena shard per stripe, pushed under that stripe's
    /// exact-bits map lock.
    weights: Vec<AppendArena<C64>>,
    /// Exact-bits find-or-insert maps, one per stripe, sharded by the
    /// bit pattern's hash.
    exact_stripes: Vec<Mutex<FxHashMap<(u64, u64), WeightId>>>,
    elim_sets: AppendArena<Box<[u32]>>,
    elim_ids: Mutex<FxHashMap<Vec<u32>, u32>>,
    workers: AtomicU32,
    /// Counter totals inherited from retired predecessors in a
    /// reclamation chain (see [`Self::successor`]): `stats` adds these
    /// so a [`StoreEpoch`] taken before a swap stays a valid fence
    /// against the store that replaced it.
    base: StoreEpoch,
    /// Peak arena occupancy inherited from retired predecessors.
    base_peak_nodes: usize,
    /// High-water mark of [`Self::bytes_used`], seeded with the
    /// predecessor's peak across a reclamation swap.
    peak_bytes: AtomicUsize,
}

impl std::fmt::Debug for SharedTddStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SharedTddStore(nodes = {}, weights = {}, tol = {})",
            self.arena_len(),
            self.weight_count(),
            self.tol
        )
    }
}

impl SharedTddStore {
    /// A shared store with the default weight tolerance (`1e-10`),
    /// matching [`crate::TddManager::new`].
    pub fn new() -> Arc<Self> {
        Self::with_tolerance(1e-10)
    }

    /// A shared store with a custom weight tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not strictly positive and finite.
    pub fn with_tolerance(tol: f64) -> Arc<Self> {
        assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive");
        Self::build(tol, StoreEpoch::default(), 0, 0)
    }

    /// The shared constructor: a fresh store carrying `base` counter
    /// offsets from a retired predecessor (all zero for a first store).
    fn build(
        tol: f64,
        base: StoreEpoch,
        base_peak_nodes: usize,
        peak_bytes_seed: usize,
    ) -> Arc<Self> {
        let store = SharedTddStore {
            tol,
            nodes: (0..STRIPES).map(|_| AppendArena::new()).collect(),
            node_stripes: (0..STRIPES).map(|_| NodeStripe::new()).collect(),
            weights: (0..STRIPES).map(|_| AppendArena::new()).collect(),
            exact_stripes: (0..STRIPES)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            elim_sets: AppendArena::new(),
            elim_ids: Mutex::new(FxHashMap::default()),
            workers: AtomicU32::new(0),
            base,
            base_peak_nodes,
            peak_bytes: AtomicUsize::new(peak_bytes_seed),
        };
        // Shard 0, slot 0: the terminal sentinel — id 0, as in the
        // private arena.
        store.nodes[0].push(NodeEntry {
            node: Node {
                var: TERMINAL_VAR,
                low: Edge::ZERO,
                high: Edge::ZERO,
            },
            creator: u32::MAX,
        });
        // Weight shard 0, slots 0/1: exact 0 and 1, so
        // `WeightId::{ZERO, ONE}` hold exact constants; 1 is also
        // pre-inserted under its bit pattern so interning finds it.
        // (Managers snap values near zero to `WeightId::ZERO` before
        // they reach the map.)
        store.weights[0].push(C64::ZERO);
        store.weights[0].push(C64::ONE);
        let one_bits = (C64::ONE.re.to_bits(), C64::ONE.im.to_bits());
        store.exact_stripes[store.stripe_of(&one_bits)]
            .lock()
            .expect("exact weight stripe poisoned")
            .insert(one_bits, WeightId::ONE);
        Arc::new(store)
    }

    /// The weight-interning tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tol
    }

    /// The stripe of a key hash.
    #[inline]
    fn stripe_of_hash(&self, hash: u64) -> usize {
        (hash as usize) & (STRIPES - 1)
    }

    /// The stripe of a hashable key (Fx-hashed: these tables see no
    /// attacker-controlled data and live on the hot path).
    #[inline]
    fn stripe_of<K: Hash>(&self, key: &K) -> usize {
        self.stripe_of_hash(fxhash::hash_one(key))
    }

    /// Registers a new worker and returns its id (used to attribute
    /// cross-thread unique-table hits). [`crate::TddManager::new_shared`]
    /// calls this for you.
    pub fn register_worker(&self) -> u32 {
        // ordering: Relaxed — a pure id allocator; the RMW's atomicity
        // guarantees uniqueness and nothing is published through it.
        self.workers.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of arena slots allocated (live nodes, excluding the
    /// terminal sentinel). Monotone within one store; epoch-based
    /// reclamation shrinks a *session's* footprint by swapping in a
    /// [`Self::successor`] or [`Self::compact`] store, never by
    /// compacting in place.
    pub fn arena_len(&self) -> usize {
        self.nodes.iter().map(AppendArena::len).sum::<usize>() - 1
    }

    /// Number of distinct interned weights.
    pub fn weight_count(&self) -> usize {
        self.weights.iter().map(AppendArena::len).sum()
    }

    /// Bytes of backing storage this store holds: every materialised
    /// arena chunk (nodes, weights, elimination sets — allocated
    /// capacity, since chunks never free while the store lives), the
    /// per-entry heap of the interned elimination sets, and the
    /// allocated capacity of the find-or-insert tables. Table capacity
    /// is an estimate (entry size plus one control byte per bucket, the
    /// std hash-table layout); everything else is exact.
    ///
    /// The arenas are append-only, so this number is **monotone** over
    /// a single store's life: within one store, dropping it is the only
    /// reclaim. Under epoch-based reclamation a *session* swaps retired
    /// stores for compact successors (see [`Self::successor`] and
    /// [`Self::compact`]), so the per-store number can step down across
    /// a swap while [`Self::peak_bytes_used`] keeps the high-water mark.
    /// The fixed-size probe tables (32 KiB per stripe, 2 MiB per store)
    /// are deliberately excluded: they neither grow with the workload
    /// nor free before the store drops, and the service layer's byte
    /// budget meters workload growth.
    pub fn bytes_used(&self) -> usize {
        let mut bytes = 0usize;
        for shard in &self.nodes {
            bytes += shard.bytes_allocated();
        }
        for shard in &self.weights {
            bytes += shard.bytes_allocated();
        }
        bytes += self.elim_sets.bytes_allocated();
        for index in 0..self.elim_sets.len() {
            bytes += self.elim_sets.get(index).len() * std::mem::size_of::<u32>();
        }
        for stripe in &self.node_stripes {
            bytes += map_bytes(&stripe.map.lock().expect("node stripe poisoned"));
        }
        for stripe in &self.exact_stripes {
            bytes += map_bytes(&stripe.lock().expect("exact weight stripe poisoned"));
        }
        let elim = self.elim_ids.lock().expect("elim set map poisoned");
        bytes += map_bytes(&elim);
        bytes += elim
            .keys()
            .map(|levels| levels.len() * std::mem::size_of::<u32>())
            .sum::<usize>();
        // ordering: Relaxed — a monotone statistics high-water mark; the
        // RMW's atomicity keeps the max correct and no data hangs off it.
        self.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
        bytes
    }

    /// High-water mark of [`Self::bytes_used`] across this store's life
    /// *and* every retired predecessor in its reclamation chain — the
    /// number a peak-memory report wants, since per-store `bytes_used`
    /// steps down when a session swaps in a compact successor.
    pub fn peak_bytes_used(&self) -> usize {
        self.peak_with(self.bytes_used())
    }

    /// [`Self::peak_bytes_used`] given the footprint `now` that
    /// [`Self::bytes_used`] just returned, so a caller wanting both pays
    /// for one pass over the stripe locks.
    fn peak_with(&self, now: usize) -> usize {
        // ordering: Relaxed — statistics read; `max(now)` already covers
        // any concurrent update this load could miss.
        self.peak_bytes.load(Ordering::Relaxed).max(now)
    }

    /// A cheap lower-bound estimate of payload bytes (node + weight
    /// arena entries) used as the reclamation trigger: unlike
    /// [`Self::bytes_used`] it takes no locks, so a driver can poll it
    /// at every plan-step barrier.
    pub fn approx_data_bytes(&self) -> usize {
        self.arena_len() * std::mem::size_of::<NodeEntry>()
            + self.weight_count() * std::mem::size_of::<C64>()
    }

    /// Store-level statistics: total nodes created across *all* attached
    /// managers, unique-table hits, and how many of those hits resolved
    /// to a node created by a different worker. Merge this **once** into
    /// a report — per-manager [`crate::TddManager::stats`] deliberately
    /// exclude these store-owned counters so they are never
    /// double-counted (each worker would otherwise re-report the same
    /// global allocations).
    pub fn stats(&self) -> TddStats {
        let counters = self.reset_between_runs();
        let bytes = self.bytes_used();
        TddStats {
            nodes_created: counters.nodes_created,
            unique_hits: counters.unique_hits,
            cross_unique_hits: counters.cross_unique_hits,
            peak_nodes: self.base_peak_nodes.max(self.arena_len()),
            store_bytes: bytes as u64,
            peak_store_bytes: self.peak_with(bytes) as u64,
            ..TddStats::default()
        }
    }

    /// Fences the store between two runs that *reuse* it warm — the
    /// compile-once session API's noise/ε sweeps, where one store serves
    /// a whole batch of queries so later queries hash-cons against
    /// everything earlier ones interned.
    ///
    /// Nothing is cleared: the arenas are append-only and the interned
    /// diagrams are exactly what the next run wants to find. What the
    /// hook *does* reset is statistics attribution — it snapshots the
    /// allocation and sharing counters, and [`Self::stats_since`] later
    /// reports only the delta, so each query's report counts its own
    /// work rather than the whole session's. (Because exact-bits
    /// interning makes every stored value a pure function of the value
    /// alone, and gluing is scope-local, reuse is value-transparent: a
    /// warm-store run is bit-identical to the same run on a fresh
    /// store.)
    ///
    /// The counters are *cumulative across reclamation swaps*: a
    /// successor store inherits its predecessor's totals as base
    /// offsets, so an epoch taken before a swap remains a valid fence
    /// against the store that replaced it.
    pub fn reset_between_runs(&self) -> StoreEpoch {
        let mut hits = self.base.unique_hits;
        let mut cross = self.base.cross_unique_hits;
        for stripe in &self.node_stripes {
            // ordering: Relaxed — statistics counters read between runs;
            // callers sequence this after the workers have joined, and an
            // in-flight bump attributes to whichever side reads it.
            hits += stripe.hits.load(Ordering::Relaxed);
            cross += stripe.cross_hits.load(Ordering::Relaxed);
        }
        StoreEpoch {
            nodes_created: self.base.nodes_created + self.arena_len() as u64,
            unique_hits: hits,
            cross_unique_hits: cross,
        }
    }

    /// Store-level statistics attributed since `epoch` (from
    /// [`Self::reset_between_runs`]): allocation and sharing counter
    /// *deltas*, with `peak_nodes` reporting the store's current total
    /// arena occupancy (the real memory footprint — a warm store never
    /// shrinks). `stats_since(StoreEpoch::default())` equals
    /// [`Self::stats`].
    pub fn stats_since(&self, epoch: StoreEpoch) -> TddStats {
        let total = self.stats();
        TddStats {
            nodes_created: total.nodes_created - epoch.nodes_created,
            unique_hits: total.unique_hits - epoch.unique_hits,
            cross_unique_hits: total.cross_unique_hits - epoch.cross_unique_hits,
            ..total
        }
    }

    /// Exact-bits interning: the value's bit pattern is both the key and
    /// the stored value, so this is trivially a pure function of the
    /// value — two runs, whatever their schedules, map equal bits to one
    /// id with identical stored bits. Tolerance gluing happens *above*
    /// this, in the interning manager's per-operation scope, never in
    /// the store: a manager calls this once per representative its scope
    /// elects, and keeps no copy of the map.
    pub(crate) fn intern_weight_exact(&self, z: C64) -> WeightId {
        let key = (z.re.to_bits(), z.im.to_bits());
        let shard = self.stripe_of(&key);
        let mut stripe = self.exact_stripes[shard]
            .lock()
            .expect("exact weight stripe poisoned");
        if let Some(&id) = stripe.get(&key) {
            return id;
        }
        let id = WeightId(encode(shard, self.weights[shard].push(z)));
        stripe.insert(key, id);
        id
    }

    /// The value behind a weight handle (lock-free).
    #[inline]
    pub(crate) fn weight_value(&self, w: WeightId) -> C64 {
        let (shard, index) = decode(w.0);
        *self.weights[shard].get(index)
    }

    /// Hash-conses a (pre-normalized) node, returning its id. `worker`
    /// attributes cross-thread hits.
    ///
    /// The overwhelmingly common case — the node already exists — is
    /// lock-free: one acquire load of the stripe's probe slot, one
    /// immutable arena read to verify the candidate against the full
    /// key, and relaxed counter bumps. Only a probe miss (empty slot,
    /// tag mismatch, or a slot evicted by a colliding node) falls back
    /// to the mutex-guarded map, which also publishes the slot for the
    /// next lookup. Publication is release-ordered after the arena push,
    /// so a fast-path reader that observes the slot also observes the
    /// fully-written arena entry.
    pub(crate) fn unique_node(&self, key: Node, worker: u32) -> NodeId {
        let hash = fxhash::hash_one(&key);
        let shard = self.stripe_of_hash(hash);
        let stripe = &self.node_stripes[shard];
        let (slot, tag) = NodeStripe::probe_coords(hash);
        // ordering: Acquire pairs with the Release publication below — a
        // non-zero slot implies the publisher's arena push (and its release
        // of `len`) happened-before, so `get` below cannot miss the entry.
        let seen = stripe.probe[slot].load(Ordering::Acquire);
        if seen != 0 && (seen >> 32) as u32 == tag {
            let id = NodeId(seen as u32);
            let (s, index) = decode(id.0);
            let entry = self.nodes[s].get(index);
            if entry.node == key {
                // ordering: Relaxed — statistics counters; nothing reads
                // them for synchronisation, totals are summed after joins.
                stripe.hits.fetch_add(1, Ordering::Relaxed);
                if entry.creator != worker {
                    // ordering: Relaxed — statistics counter (see above).
                    stripe.cross_hits.fetch_add(1, Ordering::Relaxed);
                }
                return id;
            }
        }
        let mut map = stripe.map.lock().expect("node stripe poisoned");
        match map.get(&key) {
            Some(&id) => {
                // ordering: Relaxed — statistics counters (see fast path).
                stripe.hits.fetch_add(1, Ordering::Relaxed);
                let (s, index) = decode(id.0);
                if self.nodes[s].get(index).creator != worker {
                    // ordering: Relaxed — statistics counter.
                    stripe.cross_hits.fetch_add(1, Ordering::Relaxed);
                }
                // ordering: Release — republishing an existing id; its arena
                // entry was already published before the id entered the map,
                // and release keeps that visible to future Acquire probes.
                stripe.probe[slot].store(NodeStripe::pack(tag, id), Ordering::Release);
                id
            }
            None => {
                let id = NodeId(encode(
                    shard,
                    self.nodes[shard].push(NodeEntry {
                        node: key,
                        creator: worker,
                    }),
                ));
                map.insert(key, id);
                // ordering: Release publishes the arena push above: a probe
                // that Acquire-loads this slot value observes the fully
                // initialised node entry behind the id.
                stripe.probe[slot].store(NodeStripe::pack(tag, id), Ordering::Release);
                id
            }
        }
    }

    /// The node behind an id (lock-free).
    #[inline]
    pub(crate) fn node(&self, n: NodeId) -> Node {
        let (shard, index) = decode(n.0);
        self.nodes[shard].get(index).node
    }

    /// Interns an elimination set; ids are globally consistent, which is
    /// what lets contraction caches travel between workers.
    pub(crate) fn intern_elim_set(&self, levels: Vec<u32>) -> u32 {
        let mut map = self.elim_ids.lock().expect("elim set map poisoned");
        if let Some(&id) = map.get(&levels) {
            return id;
        }
        let id = self.elim_sets.push(levels.clone().into_boxed_slice()) as u32;
        map.insert(levels, id);
        id
    }

    /// The levels behind an elimination-set id (lock-free).
    #[inline]
    pub(crate) fn elim_set(&self, id: u32) -> &[u32] {
        self.elim_sets.get(id as usize)
    }

    /// An empty successor store for epoch-based reclamation with **no**
    /// live roots — the sweep-point boundary case, where every result
    /// has been extracted as plain numbers and nothing in the arenas is
    /// reachable any more. The successor inherits this store's
    /// cumulative counters, peak occupancy and peak bytes, so
    /// epochs, session statistics and high-water marks remain
    /// continuous; the retired store's arenas free when its last `Arc`
    /// drops.
    ///
    /// Callers must only swap a successor in once every attached manager
    /// has quiesced (no in-flight contraction holds ids into the old
    /// store) and must rebuild managers against the new store.
    pub fn successor(&self) -> Arc<SharedTddStore> {
        self.compact(&[]).0
    }

    /// Epoch-based reclamation with live roots: migrates exactly the
    /// sub-diagrams reachable from `roots` into a fresh successor store
    /// and returns the successor plus the remapped roots (in order).
    /// Everything unreachable — dead intermediate nodes, weights only
    /// they referenced, the find-or-insert maps' dead entries — is
    /// retired with the old store once its last `Arc` drops.
    ///
    /// **Bit-exactness.** Every weight but 0 and 1 re-interns through
    /// the successor's exact-bits maps, so it keeps its stored bits, and
    /// a post-swap intern of the same bits finds the migrated id
    /// (id-equality fast paths stay sound). Node ids are renumbered, but
    /// no value in the engine ever depends on an id, so contraction
    /// results are unchanged to the last bit.
    ///
    /// Callers must hold quiescence (no concurrent mutation, no
    /// in-flight ids outside `roots`) for the whole call and must
    /// rebuild managers — including their memo tables, which cache old
    /// ids — against the successor.
    pub fn compact(&self, roots: &[Edge]) -> (Arc<SharedTddStore>, Vec<Edge>) {
        // Count the live node set so the successor's inherited
        // `nodes_created` offset can be pre-deducted: migration re-pushes
        // exactly the live set, restoring the cumulative total.
        let mut live = 0u64;
        let mut seen: FxHashMap<NodeId, ()> = FxHashMap::default();
        let mut stack: Vec<NodeId> = roots.iter().map(|r| r.node).collect();
        while let Some(id) = stack.pop() {
            if id == NodeId::TERMINAL || seen.insert(id, ()).is_some() {
                continue;
            }
            live += 1;
            let node = self.node(id);
            stack.push(node.low.node);
            stack.push(node.high.node);
        }

        let totals = self.reset_between_runs();
        let base = StoreEpoch {
            nodes_created: totals.nodes_created - live,
            ..totals
        };
        let next = Self::build(
            self.tol,
            base,
            self.base_peak_nodes.max(self.arena_len()),
            self.peak_bytes_used(),
        );

        let mut weight_map: FxHashMap<WeightId, WeightId> = FxHashMap::default();
        let mut node_map: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        let remapped = roots
            .iter()
            .map(|root| self.migrate_edge(&next, *root, &mut weight_map, &mut node_map))
            .collect();
        (next, remapped)
    }

    /// Migrates one edge (weight + reachable sub-diagram) into `next`.
    fn migrate_edge(
        &self,
        next: &SharedTddStore,
        edge: Edge,
        weight_map: &mut FxHashMap<WeightId, WeightId>,
        node_map: &mut FxHashMap<NodeId, NodeId>,
    ) -> Edge {
        let weight = if edge.weight == WeightId::ZERO || edge.weight == WeightId::ONE {
            edge.weight
        } else {
            *weight_map
                .entry(edge.weight)
                .or_insert_with(|| next.intern_weight_exact(self.weight_value(edge.weight)))
        };
        let node = self.migrate_node(next, edge.node, weight_map, node_map);
        Edge { node, weight }
    }

    /// Migrates one reachable node (recursively, memoised). Stored
    /// nodes are already canonical, so they re-intern through
    /// `unique_node` without re-normalisation.
    fn migrate_node(
        &self,
        next: &SharedTddStore,
        id: NodeId,
        weight_map: &mut FxHashMap<WeightId, WeightId>,
        node_map: &mut FxHashMap<NodeId, NodeId>,
    ) -> NodeId {
        if id == NodeId::TERMINAL {
            return NodeId::TERMINAL;
        }
        if let Some(&mapped) = node_map.get(&id) {
            return mapped;
        }
        let old = self.node(id);
        let low = self.migrate_edge(next, old.low, weight_map, node_map);
        let high = self.migrate_edge(next, old.high, weight_map, node_map);
        let creator = {
            let (shard, index) = decode(id.0);
            self.nodes[shard].get(index).creator
        };
        let mapped = next.unique_node(
            Node {
                var: old.var,
                low,
                high,
            },
            creator,
        );
        node_map.insert(id, mapped);
        mapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::TddManager;

    #[test]
    fn id_encoding_round_trips() {
        let largest = (1usize << INDEX_BITS) - 1;
        for (shard, index) in [
            (0, 0),
            (0, 1),
            (STRIPES - 1, 5),
            (STRIPES / 2, 12345),
            (0, largest),
            (STRIPES - 1, largest),
        ] {
            assert_eq!(decode(encode(shard, index)), (shard, index));
        }
        assert_eq!(encode(0, 0), 0, "terminal/zero must stay id 0");
        assert_eq!(encode(0, 1), 1, "the unit weight must stay id 1");
        assert_eq!(decode(u32::MAX), (63, (1 << 26) - 1));
    }

    #[test]
    #[should_panic(expected = "arena shard full")]
    fn encode_panics_past_64_stripe_capacity() {
        // Index 2^26 would carry into the shard bits: id (63, 2^26)
        // would decode as shard 0 once the shard bits wrapped.
        encode(63, 1 << 26);
    }

    #[test]
    fn arena_locate_covers_doubling_chunks() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        assert_eq!(locate(7167), (2, 4095));
        assert_eq!(locate(7168), (3, 0));
        // The spine covers the whole index space of a shard.
        let (chunk, _) = locate((1 << INDEX_BITS) - 1);
        assert_eq!(chunk, SPINE - 1);
    }

    #[test]
    fn arena_push_get_across_chunk_boundaries() {
        let arena: AppendArena<usize> = AppendArena::new();
        for value in 0..5000 {
            assert_eq!(arena.push(value), value);
        }
        assert_eq!(arena.len(), 5000);
        for index in [0usize, 1023, 1024, 2047, 2048, 4095, 4096, 4999] {
            assert_eq!(*arena.get(index), index);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn arena_rejects_unpublished_index() {
        let arena: AppendArena<u32> = AppendArena::new();
        arena.push(7);
        let _ = arena.get(1);
    }

    #[test]
    fn arena_drops_owned_entries() {
        // Box<[u32]> entries must be dropped with the arena (miri-style
        // leak check is out of scope; this exercises the Drop path).
        let arena: AppendArena<Box<[u32]>> = AppendArena::new();
        for k in 0..100u32 {
            arena.push(vec![k; 3].into_boxed_slice());
        }
        assert_eq!(&arena.get(42)[..], &[42, 42, 42]);
    }

    #[test]
    fn concurrent_interning_stays_consistent() {
        // Hammer the store from several threads with overlapping values:
        // every thread must resolve each value to one id and one stored
        // representative.
        let store = SharedTddStore::new();
        let ids: Vec<Vec<WeightId>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || {
                        (0..2000)
                            .map(|k| store.intern_weight_exact(C64::new(k as f64 * 0.125, -1.0)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("interner"))
                .collect()
        });
        for thread in &ids[1..] {
            assert_eq!(thread, &ids[0], "ids must agree across threads");
        }
        assert_eq!(store.weight_count(), 2000 + 2, "0/1 pre-seeded + 2000");
    }

    #[test]
    fn zero_and_one_stay_exact() {
        let store = SharedTddStore::new();
        // The exact map does not snap values near zero; managers do.
        let mut m = TddManager::new_shared(&store);
        assert_eq!(m.intern_weight(C64::ZERO), WeightId::ZERO);
        assert_eq!(m.intern_weight(C64::new(5e-11, -5e-11)), WeightId::ZERO);
        assert_eq!(store.intern_weight_exact(C64::ONE), WeightId::ONE);
        assert_eq!(store.weight_value(WeightId::ONE), C64::ONE);
        assert_eq!(store.weight_value(WeightId::ZERO), C64::ZERO);
    }

    #[test]
    fn exact_interning_is_pure_and_bit_preserving() {
        let store = SharedTddStore::new();
        let z = C64::new(0.1 + 0.2, -0.3); // bits deliberately inexact
        let a = store.intern_weight_exact(z);
        let b = store.intern_weight_exact(z);
        assert_eq!(a, b, "same bits, same id");
        assert_eq!(store.weight_value(a), z, "bits stored verbatim");
        // One ulp away is a *different* exact weight.
        let z2 = C64::new(f64::from_bits(z.re.to_bits() + 1), z.im);
        assert_ne!(store.intern_weight_exact(z2), a);
        // The multiplicative identity is pre-seeded in the exact maps.
        assert_eq!(store.intern_weight_exact(C64::ONE), WeightId::ONE);
    }

    #[test]
    fn compact_migrates_exact_weights_through_the_exact_family() {
        let store = SharedTddStore::new();
        let z = C64::new(0.1 + 0.2, -0.3);
        let root = Edge {
            node: NodeId::TERMINAL,
            weight: store.intern_weight_exact(z),
        };
        let (next, remapped) = store.compact(&[root]);
        assert_eq!(next.weight_value(remapped[0].weight), z);
        // A post-swap exact intern of the same bits must find the
        // migrated id — id-equality fast paths depend on it.
        assert_eq!(next.intern_weight_exact(z), remapped[0].weight);
    }

    #[test]
    fn elim_sets_are_globally_consistent() {
        let store = SharedTddStore::new();
        let a = store.intern_elim_set(vec![1, 4, 9]);
        let b = store.intern_elim_set(vec![1, 4, 9]);
        let c = store.intern_elim_set(vec![1, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.elim_set(a), &[1, 4, 9]);
    }

    #[test]
    fn epochs_fence_statistics_between_runs() {
        let store = SharedTddStore::new();
        let w = store.register_worker();
        let node = |k: u32, low: WeightId| Node {
            var: k,
            low: Edge {
                node: NodeId::TERMINAL,
                weight: low,
            },
            high: Edge {
                node: NodeId::TERMINAL,
                weight: WeightId::ONE,
            },
        };
        let half = store.intern_weight_exact(C64::real(0.5));

        // "Run 1": two fresh nodes plus one re-find.
        let epoch1 = store.reset_between_runs();
        assert_eq!(epoch1, StoreEpoch::default(), "fresh store = zero epoch");
        store.unique_node(node(0, half), w);
        store.unique_node(node(1, half), w);
        store.unique_node(node(0, half), w);
        let run1 = store.stats_since(epoch1);
        assert_eq!(run1.nodes_created, 2);
        assert_eq!(run1.unique_hits, 1);
        assert_eq!(run1, store.stats(), "zero epoch delta equals totals");

        // "Run 2" re-finds run 1's structure warm: zero allocations,
        // only hits — the delta must not re-report run 1's work.
        let epoch2 = store.reset_between_runs();
        store.unique_node(node(0, half), w);
        store.unique_node(node(1, half), w);
        let run2 = store.stats_since(epoch2);
        assert_eq!(run2.nodes_created, 0, "warm reuse allocates nothing");
        assert_eq!(run2.unique_hits, 2);
        // The footprint (peak) stays the cumulative arena size.
        assert_eq!(run2.peak_nodes, 2);
        assert_eq!(store.stats().nodes_created, 2, "totals unaffected");
    }

    #[test]
    fn bytes_used_is_monotone_and_tracks_growth() {
        let store = SharedTddStore::new();
        let baseline = store.bytes_used();
        // A fresh store already holds the sentinel chunks (node shard 0,
        // weight shard 0) — the floor a budget has to stay above.
        assert!(baseline > 0);

        let mut previous = baseline;
        for batch in 0..4 {
            for k in 0..2000 {
                store.intern_weight_exact(C64::new((batch * 2000 + k) as f64 * 0.25, 1.0));
            }
            let now = store.bytes_used();
            assert!(now >= previous, "append-only storage never shrinks");
            previous = now;
        }
        assert!(previous > baseline, "8000 interns must allocate chunks");

        // Elimination sets count both arena slots and per-entry heap.
        let before_elim = store.bytes_used();
        store.intern_elim_set((0..512).collect());
        assert!(store.bytes_used() > before_elim);

        // And the footprint is what stats() reports.
        assert_eq!(store.stats().store_bytes, store.bytes_used() as u64);
    }

    #[test]
    fn bytes_used_charges_each_map_slot_its_stored_tuple() {
        // A slot holds its stored tuple, alignment padding included,
        // plus one control byte.
        let node_slot = std::mem::size_of::<(Node, NodeId)>() + 1;
        let exact_slot = std::mem::size_of::<((u64, u64), WeightId)>() + 1;
        let elim_slot = std::mem::size_of::<(Vec<u32>, u32)>() + 1;
        assert_eq!((node_slot, exact_slot, elim_slot), (25, 25, 33));

        let store = SharedTddStore::new();
        let worker = store.register_worker();
        for k in 0..300u32 {
            let weight = store.intern_weight_exact(C64::new(f64::from(k) * 0.25, 1.0));
            let high = Edge {
                node: NodeId::TERMINAL,
                weight,
            };
            store.unique_node(
                Node {
                    var: k % 7,
                    low: Edge::ZERO,
                    high,
                },
                worker,
            );
            store.intern_elim_set((0..k % 11).collect());
        }

        let u32s = std::mem::size_of::<u32>();
        let mut expected = store.elim_sets.bytes_allocated();
        for shard in &store.nodes {
            expected += shard.bytes_allocated();
        }
        for shard in &store.weights {
            expected += shard.bytes_allocated();
        }
        for index in 0..store.elim_sets.len() {
            expected += store.elim_sets.get(index).len() * u32s;
        }
        for stripe in &store.node_stripes {
            expected += stripe.map.lock().unwrap().capacity() * node_slot;
        }
        for stripe in &store.exact_stripes {
            expected += stripe.lock().unwrap().capacity() * exact_slot;
        }
        let elim = store.elim_ids.lock().unwrap();
        expected += elim.capacity() * elim_slot;
        expected += elim.keys().map(|levels| levels.len() * u32s).sum::<usize>();
        drop(elim);
        assert_eq!(store.bytes_used(), expected);
    }

    #[test]
    fn cross_worker_hits_are_attributed() {
        let store = SharedTddStore::new();
        let w0 = store.register_worker();
        let w1 = store.register_worker();
        let one = WeightId::ONE;
        let half = store.intern_weight_exact(C64::real(0.5));
        let key = Node {
            var: 3,
            low: Edge {
                node: NodeId::TERMINAL,
                weight: one,
            },
            high: Edge {
                node: NodeId::TERMINAL,
                weight: half,
            },
        };
        let id0 = store.unique_node(key, w0);
        let id_self = store.unique_node(key, w0);
        let id1 = store.unique_node(key, w1);
        assert_eq!(id0, id_self);
        assert_eq!(id0, id1);
        let stats = store.stats();
        assert_eq!(stats.nodes_created, 1);
        assert_eq!(stats.unique_hits, 2);
        assert_eq!(stats.cross_unique_hits, 1, "only w1's hit crosses");
    }

    /// A tiny two-level diagram with a shared interior node, for the
    /// migration tests.
    fn sample_root(store: &SharedTddStore, worker: u32) -> Edge {
        let half = store.intern_weight_exact(C64::new(0.5, -0.25));
        let third = store.intern_weight_exact(C64::real(1.0 / 3.0));
        let leaf = |w: WeightId| Edge {
            node: NodeId::TERMINAL,
            weight: w,
        };
        let inner = store.unique_node(
            Node {
                var: 1,
                low: leaf(half),
                high: leaf(WeightId::ONE),
            },
            worker,
        );
        let top = store.unique_node(
            Node {
                var: 0,
                low: Edge {
                    node: inner,
                    weight: third,
                },
                high: Edge {
                    node: inner,
                    weight: WeightId::ONE,
                },
            },
            worker,
        );
        Edge {
            node: top,
            weight: half,
        }
    }

    /// Reads back every value reachable from a root, depth-first, as a
    /// store-independent fingerprint (values + shape, no ids).
    fn fingerprint(store: &SharedTddStore, root: Edge, out: &mut Vec<(u32, u64, u64)>) {
        let w = store.weight_value(root.weight);
        if root.node == NodeId::TERMINAL {
            out.push((u32::MAX, w.re.to_bits(), w.im.to_bits()));
            return;
        }
        let node = store.node(root.node);
        out.push((node.var, w.re.to_bits(), w.im.to_bits()));
        fingerprint(store, node.low, out);
        fingerprint(store, node.high, out);
    }

    #[test]
    fn probe_fast_path_agrees_with_the_map() {
        // Re-find the same keys many times: every id must be stable and
        // the hit counters exact, whichever path served the lookup.
        let store = SharedTddStore::new();
        let w = store.register_worker();
        let half = store.intern_weight_exact(C64::real(0.5));
        let key = |k: u32| Node {
            var: k,
            low: Edge {
                node: NodeId::TERMINAL,
                weight: half,
            },
            high: Edge {
                node: NodeId::TERMINAL,
                weight: WeightId::ONE,
            },
        };
        let first: Vec<NodeId> = (0..500).map(|k| store.unique_node(key(k), w)).collect();
        for _ in 0..3 {
            let again: Vec<NodeId> = (0..500).map(|k| store.unique_node(key(k), w)).collect();
            assert_eq!(again, first);
        }
        let stats = store.stats();
        assert_eq!(stats.nodes_created, 500);
        assert_eq!(stats.unique_hits, 1500);
        assert_eq!(stats.cross_unique_hits, 0);
    }

    #[test]
    fn successor_keeps_counters_and_peaks_continuous() {
        let store = SharedTddStore::new();
        let w = store.register_worker();
        let root = sample_root(&store, w);
        let _again = sample_root(&store, w); // re-finds: hits
        let _ = root;
        let before = store.stats();
        let epoch = store.reset_between_runs();

        let next = store.successor();
        assert_eq!(next.arena_len(), 0, "successor starts empty");
        let after = next.stats();
        assert_eq!(after.nodes_created, before.nodes_created);
        assert_eq!(after.unique_hits, before.unique_hits);
        assert_eq!(after.peak_nodes, before.peak_nodes);
        assert!(after.peak_store_bytes >= before.store_bytes);
        assert!(
            (next.bytes_used() as u64) < before.store_bytes || store.arena_len() == 0,
            "successor footprint drops the retired arenas"
        );

        // An epoch taken on the predecessor fences the successor too.
        let w2 = next.register_worker();
        let _ = sample_root(&next, w2);
        let delta = next.stats_since(epoch);
        assert_eq!(delta.nodes_created, 2, "only post-swap work attributed");
    }

    #[test]
    fn compact_migrates_live_roots_bit_exactly() {
        let store = SharedTddStore::new();
        let w = store.register_worker();
        let root = sample_root(&store, w);
        // Garbage the compaction must drop: nodes unreachable from root.
        for k in 100..150 {
            let dead = store.intern_weight_exact(C64::real(k as f64 * 0.01));
            store.unique_node(
                Node {
                    var: k,
                    low: Edge {
                        node: NodeId::TERMINAL,
                        weight: dead,
                    },
                    high: Edge {
                        node: NodeId::TERMINAL,
                        weight: WeightId::ONE,
                    },
                },
                w,
            );
        }
        // And a live root that is a weight alone.
        let big = C64::new(4.25e12, 1.0);
        let scalar_root = Edge {
            node: NodeId::TERMINAL,
            weight: store.intern_weight_exact(big),
        };
        let before = store.stats();

        let (next, remapped) = store.compact(&[root, scalar_root]);
        assert_eq!(remapped.len(), 2);
        assert_eq!(next.arena_len(), 2, "only the two reachable nodes migrate");
        let mut old_print = Vec::new();
        let mut new_print = Vec::new();
        fingerprint(&store, root, &mut old_print);
        fingerprint(&next, remapped[0], &mut new_print);
        assert_eq!(old_print, new_print, "values migrate bit-exactly");
        assert_eq!(next.weight_value(remapped[1].weight), big);

        // Counter continuity: migration must not inflate totals.
        let after = next.stats();
        assert_eq!(after.nodes_created, before.nodes_created);
        assert_eq!(after.unique_hits, before.unique_hits);
        assert_eq!(after.peak_nodes, before.peak_nodes);

        // Re-interning post-swap values finds the migrated ids.
        assert_eq!(
            next.intern_weight_exact(C64::new(0.5, -0.25)),
            remapped[0].weight,
            "the migrated root weight is the exact-bits entry"
        );
    }

    #[test]
    fn peak_bytes_survive_a_swap_chain() {
        let store = SharedTddStore::new();
        for k in 0..4000 {
            store.intern_weight_exact(C64::new(k as f64 * 0.25, 1.0));
        }
        let peak = store.peak_bytes_used();
        assert!(peak >= store.bytes_used());
        let next = store.successor();
        assert!(next.peak_bytes_used() >= peak, "peak is inherited");
        assert!(next.bytes_used() < peak, "current footprint drops");
        assert_eq!(next.stats().peak_store_bytes, next.peak_bytes_used() as u64);
    }
}
