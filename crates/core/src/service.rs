//! The serving layer: a keyed cache of compiled sessions answering
//! check/sweep requests for a hot set of circuit pairs.
//!
//! The paper's workloads — and the ROADMAP's north-star service — are
//! repeated-query shaped: the same circuit pair is checked at many
//! thresholds and noise strengths, and a hot pair is asked again long
//! after its first request. [`crate::Checker`] already splits compile
//! from query *within* one session; a [`Service`] extends that across
//! requests:
//!
//! * **Content-keyed sessions.** Each request names a pair; the cache
//!   key is [`qaec_circuit::hash::pair_hash`] — gates, parameters,
//!   wiring and noise sites, order-canonicalised — so the same pair
//!   submitted twice (from a file, inline, re-serialized) lands on the
//!   same [`crate::CompiledCheck`], and its warm store and cached
//!   fidelity interval serve the repeat for free.
//! * **Single-flight compilation.** Concurrent requests for the same
//!   uncached pair compile **once**: the loser threads block on the
//!   winner's compile and then share its session, so a thundering herd
//!   on a cold pair costs one plan construction
//!   ([`ServiceStats::compiles`] proves it).
//! * **Byte-budgeted LRU eviction.** The cache sums
//!   [`crate::CompiledCheck::warm_store_bytes`] over its sessions and
//!   evicts least-recently-used entries until the total fits
//!   [`ServiceConfig::cache_bytes`] (the session that just served is
//!   never evicted — a single pair bigger than the budget still serves,
//!   the budget then simply holds nothing else). Within a session,
//!   epoch-based store reclamation ([`crate::StoreReclaimMode`])
//!   retires oversized stores for compact successors at query
//!   boundaries, so a long-lived entry's footprint steps down instead
//!   of growing without bound — the budget then holds more warm
//!   sessions.
//! * **Batch concurrency.** [`Service::handle_batch`] groups a request
//!   stream by pair, runs distinct pairs concurrently on
//!   [`qaec_tdd::run_on_workers`] and queries each pair's session
//!   sequentially in stream order — so batched repeats are cache hits,
//!   not racing duplicate compiles.
//!
//! Results are **bit-identical** to cold one-shot calls: a session is
//! exactly the [`crate::Checker`] artifact, and warm-store reuse is
//! value-transparent (see [`crate::session`]).
//!
//! # Example
//!
//! ```
//! use qaec::{CacheOutcome, Service, ServiceConfig, ServiceReply, ServiceRequest, ServiceQuery};
//! use qaec_circuit::{Circuit, NoiseChannel};
//!
//! let mut noisy = Circuit::new(2);
//! noisy.h(0).cx(0, 1).noise(NoiseChannel::Depolarizing { p: 0.999 }, &[1]);
//! let ideal = noisy.ideal();
//!
//! let service = Service::new(ServiceConfig::default());
//! let request = ServiceRequest {
//!     ideal: ideal.clone(),
//!     noisy: noisy.clone(),
//!     query: ServiceQuery::Check { epsilon: 0.05 },
//!     algorithm: None,
//! };
//!
//! // First request compiles; the repeat is served by the cached session.
//! let cold = service.handle(&request);
//! let warm = service.handle(&request);
//! assert_eq!(cold.cache, CacheOutcome::Miss);
//! assert_eq!(warm.cache, CacheOutcome::Hit);
//! let stats = service.stats();
//! assert_eq!((stats.hits, stats.misses, stats.compiles), (1, 1, 1));
//!
//! // And the answers are bit-identical.
//! let (a, b) = (cold.result.unwrap(), warm.result.unwrap());
//! match (&a, &b) {
//!     (ServiceReply::Check(x), ServiceReply::Check(y)) => {
//!         assert_eq!(x.verdict, y.verdict);
//!         assert_eq!(x.fidelity_bounds.0.to_bits(), y.fidelity_bounds.0.to_bits());
//!     }
//!     _ => unreachable!(),
//! }
//! ```

use crate::error::QaecError;
use crate::options::{AlgorithmChoice, CheckOptions};
use crate::report::EquivalenceReport;
use crate::session::{CompiledCheck, EpsilonPoint, StoreCell, SweepPoint};
use crate::validate;
use qaec_circuit::hash::pair_hash;
use qaec_circuit::Circuit;
use qaec_tdd::run_on_workers;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use qaec_tdd::sync::atomic::{AtomicU64, Ordering};
use qaec_tdd::sync::Mutex;

/// Configuration of a [`Service`].
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// Checker options every session is compiled with (algorithm,
    /// strategy, threads, store mode, …). `threads` doubles as the
    /// worker count [`Service::handle_batch`] spreads distinct pairs
    /// over.
    pub options: CheckOptions,
    /// Warm-store byte budget for the session cache, summed over
    /// [`crate::CompiledCheck::warm_store_bytes`]. `None` (the default)
    /// caches without bound; `Some(0)` keeps at most the session that
    /// served the last request.
    pub cache_bytes: Option<usize>,
}

/// One query against a circuit pair — the three request shapes of the
/// `qaec serve` protocol (see `docs/PROTOCOL.md`).
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceQuery {
    /// An ε-equivalence check: [`crate::CompiledCheck::check`].
    Check {
        /// The threshold to decide.
        epsilon: f64,
    },
    /// A threshold sweep: [`crate::CompiledCheck::sweep_epsilon`].
    SweepEpsilon {
        /// The thresholds to decide, in response order.
        epsilons: Vec<f64>,
    },
    /// A noise-strength sweep: [`crate::CompiledCheck::sweep_noise`].
    SweepNoise {
        /// The threshold each point is decided at.
        epsilon: f64,
        /// The per-point noise strengths.
        strengths: Vec<f64>,
    },
}

/// One request: the circuit pair (the cache key) plus the query to run
/// on its session.
#[derive(Clone, Debug)]
pub struct ServiceRequest {
    /// The specification circuit (must be noise-free).
    pub ideal: Circuit,
    /// The noisy implementation.
    pub noisy: Circuit,
    /// What to compute.
    pub query: ServiceQuery,
    /// Per-request algorithm override (`None` uses the service's
    /// configured options unchanged). Sessions compiled under different
    /// algorithms answer differently, so the override is folded into
    /// the cache key — a pair checked both ways holds two cache
    /// entries, and `None` keys exactly as before the field existed.
    pub algorithm: Option<AlgorithmChoice>,
}

/// Folds a per-request algorithm override into the pair's cache key.
/// `None` maps to 0 so requests without an override keep the bare
/// [`pair_hash`] key.
fn algorithm_tag(algorithm: Option<AlgorithmChoice>) -> u64 {
    match algorithm {
        None => 0,
        // Arbitrary fixed odd constants, well spread so XORing them
        // into a 64-bit content hash cannot collide two overrides of
        // the same pair.
        Some(AlgorithmChoice::Auto) => 0x9e37_79b9_7f4a_7c15,
        Some(AlgorithmChoice::AlgorithmI) => 0xc2b2_ae3d_27d4_eb4f,
        Some(AlgorithmChoice::AlgorithmII) => 0x1656_67b1_9e37_79f9,
        Some(AlgorithmChoice::Mpo) => 0x27d4_eb2f_1656_67c5,
    }
}

/// The successful payload of a [`ServiceResponse`] — one variant per
/// [`ServiceQuery`] shape, carrying the same report types the session
/// API returns.
#[derive(Clone, Debug)]
pub enum ServiceReply {
    /// Response to [`ServiceQuery::Check`].
    Check(EquivalenceReport),
    /// Response to [`ServiceQuery::SweepEpsilon`].
    SweepEpsilon(Vec<EpsilonPoint>),
    /// Response to [`ServiceQuery::SweepNoise`].
    SweepNoise(Vec<SweepPoint>),
}

/// Whether a request found its pair's session already in the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The session existed (compiled or compiling) when the request
    /// arrived.
    Hit,
    /// The request created the cache entry; the session is compiled
    /// exactly once by whichever request for the pair first reaches it.
    Miss,
}

impl CacheOutcome {
    /// The wire-format label (`"hit"` / `"miss"`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// The outcome of one request: the pair's cache key, whether the
/// session was cached, and the query result.
#[derive(Clone, Debug)]
pub struct ServiceResponse {
    /// The request's cache key: the pair's content hash
    /// ([`qaec_circuit::hash::pair_hash`]), XORed with a fixed tag when
    /// the request carried an algorithm override (bare content hash
    /// otherwise).
    pub key: u64,
    /// Whether the pair's session was already cached.
    pub cache: CacheOutcome,
    /// The query result, or the same error the session API would raise.
    pub result: Result<ServiceReply, QaecError>,
}

/// Cache and traffic counters of a [`Service`]
/// ([`Service::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests whose pair was already cached.
    pub hits: u64,
    /// Requests that created their pair's cache entry.
    pub misses: u64,
    /// Sessions actually compiled — equals `misses` unless single-flight
    /// deduplicated a concurrent cold herd (then it is the number of
    /// distinct pairs, not of requests).
    pub compiles: u64,
    /// Sessions evicted to fit [`ServiceConfig::cache_bytes`], plus
    /// sessions dropped because a request panicked while it held them.
    pub evictions: u64,
    /// Sessions currently cached.
    pub sessions: usize,
    /// Total warm-store bytes currently held by the cached sessions.
    pub store_bytes: u64,
    /// Sum of the cached sessions' warm-store high-water marks — the
    /// aggregate counterpart of `store_bytes` (each session's peak is
    /// carried across reclamation swaps, so this reports true peaks
    /// even after stores stepped down; never below `store_bytes`).
    pub peak_store_bytes: u64,
}

impl fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} compiles, {} evictions; {} session(s) holding {} B (peak {} B)",
            self.hits,
            self.misses,
            self.compiles,
            self.evictions,
            self.sessions,
            self.store_bytes,
            self.peak_store_bytes
        )
    }
}

/// What a cache entry's `OnceLock` publishes after the winning request
/// compiles: the session, plus its swappable store cells (one per
/// Algorithm II store the session holds) pulled out so eviction can
/// size entries without taking the (possibly busy) session lock —
/// through the *cells*, so a reclamation swap inside the session is
/// immediately visible to the sizing path instead of pinning the
/// retired store.
struct SlotCell {
    session: Mutex<CompiledCheck>,
    stores: Vec<StoreCell>,
}

/// One cache slot. The `OnceLock` is the single-flight mechanism:
/// whichever request reaches `get_or_init` first compiles, every
/// concurrent request for the same pair blocks on it and then shares
/// the published session.
struct Slot {
    cell: OnceLock<SlotCell>,
}

impl Slot {
    /// The session's current store footprint and high-water mark.
    fn footprint(&self) -> (usize, usize) {
        self.cell
            .get()
            .map_or((0, 0), |cell| StoreCell::footprint(&cell.stores))
    }
}

struct CacheEntry {
    slot: Arc<Slot>,
    last_used: u64,
}

struct Cache {
    entries: HashMap<u64, CacheEntry>,
    tick: u64,
}

/// A long-lived checking service: a byte-budgeted, content-keyed cache
/// of compiled sessions behind [`Service::handle`] /
/// [`Service::handle_batch`]. See the [module docs](self) for the
/// caching rules and the example.
pub struct Service {
    config: ServiceConfig,
    cache: Mutex<Cache>,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
}

impl Service {
    /// A service with the given configuration and an empty cache.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            config,
            cache: Mutex::new(Cache {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Handles one request: validates the pair, finds or compiles its
    /// session (single-flight), runs the query, then enforces the byte
    /// budget. Validation failures return the same [`QaecError`] (and
    /// precedence) as the one-shot API, without touching the cache.
    ///
    /// Safe to call from many threads at once; queries for the *same*
    /// pair serialise on that pair's session, distinct pairs proceed in
    /// parallel.
    ///
    /// A session whose lock a panicking request poisoned may be
    /// half-updated, so the next request for the pair treats it as a
    /// cache miss: it drops the session (counted as an eviction) and
    /// compiles afresh, once.
    pub fn handle(&self, request: &ServiceRequest) -> ServiceResponse {
        let key = pair_hash(&request.ideal, &request.noisy) ^ algorithm_tag(request.algorithm);
        if let Err(error) = validate(&request.ideal, &request.noisy, None) {
            return ServiceResponse {
                key,
                cache: CacheOutcome::Miss,
                result: Err(error),
            };
        }
        let (slot, cache) = self.lookup(key, None);
        let (cache, result) = match self.query(&slot, request) {
            Some(result) => (cache, result),
            None => {
                let (fresh, cache) = self.lookup(key, Some(&slot));
                let result = self
                    .query(&fresh, request)
                    .expect("fresh session lock poisoned");
                (cache, result)
            }
        };
        let counter = match cache {
            CacheOutcome::Hit => &self.hits,
            CacheOutcome::Miss => &self.misses,
        };
        // ordering: Relaxed — statistics counter; the cache lock orders
        // the cache state itself.
        counter.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget(key);
        ServiceResponse { key, cache, result }
    }

    /// Runs `request`'s query on `slot`'s session, compiling it first if
    /// no request has (single-flight). `None` if the session's lock is
    /// poisoned.
    fn query(
        &self,
        slot: &Slot,
        request: &ServiceRequest,
    ) -> Option<Result<ServiceReply, QaecError>> {
        let cell = slot.cell.get_or_init(|| {
            // ordering: Relaxed — statistics counter; the OnceLock is what
            // synchronises the compiled session itself.
            self.compiles.fetch_add(1, Ordering::Relaxed);
            let mut options = self.config.options.clone();
            if let Some(algorithm) = request.algorithm {
                options.algorithm = algorithm;
            }
            let session =
                CompiledCheck::compile_prevalidated(&request.ideal, &request.noisy, options);
            SlotCell {
                stores: session.warm_store_cells(),
                session: Mutex::new(session),
            }
        });
        let mut session = cell.session.lock().ok()?;
        Some(match &request.query {
            ServiceQuery::Check { epsilon } => session.check(*epsilon).map(ServiceReply::Check),
            ServiceQuery::SweepEpsilon { epsilons } => session
                .sweep_epsilon(epsilons)
                .map(ServiceReply::SweepEpsilon),
            ServiceQuery::SweepNoise { epsilon, strengths } => session
                .sweep_noise(*epsilon, strengths)
                .map(ServiceReply::SweepNoise),
        })
    }

    /// Handles a request stream: requests are grouped by pair, distinct
    /// pairs run concurrently on [`qaec_tdd::run_on_workers`]
    /// (`options.threads` workers), and each pair's requests run
    /// sequentially in stream order against one shared session — so
    /// repeats within the batch are cache hits. Responses come back in
    /// input order.
    pub fn handle_batch(&self, requests: &[ServiceRequest]) -> Vec<ServiceResponse> {
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        for (index, request) in requests.iter().enumerate() {
            let key = pair_hash(&request.ideal, &request.noisy) ^ algorithm_tag(request.algorithm);
            match groups.entry(key) {
                MapEntry::Vacant(entry) => {
                    order.push(key);
                    entry.insert(vec![index]);
                }
                MapEntry::Occupied(mut entry) => entry.get_mut().push(index),
            }
        }
        let workers = self.config.options.threads.max(1).min(order.len().max(1));
        let per_worker: Vec<Vec<(usize, ServiceResponse)>> = run_on_workers(workers, |worker| {
            order
                .iter()
                .skip(worker)
                .step_by(workers)
                .flat_map(|key| {
                    groups[key]
                        .iter()
                        .map(|&index| (index, self.handle(&requests[index])))
                        .collect::<Vec<_>>()
                })
                .collect()
        });
        let mut responses: Vec<Option<ServiceResponse>> = requests.iter().map(|_| None).collect();
        for (index, response) in per_worker.into_iter().flatten() {
            responses[index] = Some(response);
        }
        responses
            .into_iter()
            .map(|response| response.expect("every request handled"))
            .collect()
    }

    /// Current counters and cache footprint.
    pub fn stats(&self) -> ServiceStats {
        let cache = self.cache.lock().expect("cache lock poisoned");
        let footprints = cache.entries.values().map(|e| e.slot.footprint());
        let (store_bytes, peak_store_bytes) =
            footprints.fold((0, 0), |(now, peak), (n, p)| (now + n, peak + p));
        ServiceStats {
            // ordering: Relaxed (×4) — statistics counters; a reader racing
            // a live request may be one bump behind, which a stats snapshot
            // tolerates by design.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            // ordering: Relaxed — statistics counters, as above.
            compiles: self.compiles.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            sessions: cache.entries.len(),
            store_bytes: store_bytes as u64,
            peak_store_bytes: peak_store_bytes as u64,
        }
    }

    /// Finds or creates the slot for `key`, stamping recency. The entry
    /// is inserted *before* compilation so concurrent requests for the
    /// same pair converge on one slot — the slot's `OnceLock` then makes
    /// the compile single-flight. A `poisoned` slot still cached under
    /// `key` is dropped first and counted as an eviction; a concurrent
    /// request may already have replaced it.
    fn lookup(&self, key: u64, poisoned: Option<&Arc<Slot>>) -> (Arc<Slot>, CacheOutcome) {
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        if let Some(poisoned) = poisoned {
            if cache
                .entries
                .get(&key)
                .is_some_and(|entry| Arc::ptr_eq(&entry.slot, poisoned))
            {
                cache.entries.remove(&key);
                // ordering: Relaxed — statistics counter under the cache
                // lock; the lock orders the cache state itself.
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        cache.tick += 1;
        let tick = cache.tick;
        match cache.entries.entry(key) {
            MapEntry::Occupied(mut entry) => {
                entry.get_mut().last_used = tick;
                (Arc::clone(&entry.get().slot), CacheOutcome::Hit)
            }
            MapEntry::Vacant(entry) => {
                let slot = Arc::new(Slot {
                    cell: OnceLock::new(),
                });
                entry.insert(CacheEntry {
                    slot: Arc::clone(&slot),
                    last_used: tick,
                });
                (slot, CacheOutcome::Miss)
            }
        }
    }

    /// Evicts least-recently-used sessions until the summed warm-store
    /// bytes fit the budget. Exempt from eviction: the session that just
    /// served (`keep` — always the most useful entry to hold) and
    /// entries still compiling (their size is unknown and a concurrent
    /// request is blocked on them). Dropping the map's `Arc` is safe
    /// even if another in-flight request still holds the slot — the
    /// session then dies when that request finishes.
    fn enforce_budget(&self, keep: u64) {
        let Some(budget) = self.config.cache_bytes else {
            return;
        };
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        loop {
            let total: usize = cache.entries.values().map(|e| e.slot.footprint().0).sum();
            if total <= budget {
                return;
            }
            let victim = cache
                .entries
                .iter()
                .filter(|(&key, entry)| key != keep && entry.slot.cell.get().is_some())
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(&key, _)| key);
            match victim {
                Some(key) => {
                    cache.entries.remove(&key);
                    // ordering: Relaxed — statistics counter under the
                    // cache lock (see `lookup`).
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Service({})", self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_circuit::NoiseChannel;

    /// A panic while a request holds a cached session's lock poisons
    /// that mutex. The next request for the pair must drop the session
    /// and compile afresh, instead of panicking on it for the life of
    /// the process.
    #[test]
    fn poisoned_session_is_dropped_and_compiled_afresh() {
        let mut noisy = Circuit::new(2);
        noisy
            .h(0)
            .cx(0, 1)
            .noise(NoiseChannel::Depolarizing { p: 0.999 }, &[1]);
        let request = ServiceRequest {
            ideal: noisy.ideal(),
            noisy,
            query: ServiceQuery::Check { epsilon: 0.05 },
            algorithm: None,
        };
        let service = Service::new(ServiceConfig::default());
        let cold = service.handle(&request);
        let slot = Arc::clone(&service.cache.lock().expect("cache lock").entries[&cold.key].slot);
        std::thread::scope(|scope| {
            let panicked = scope
                .spawn(|| {
                    let cell = slot.cell.get().expect("compiled");
                    let _session = cell.session.lock().expect("not yet poisoned");
                    panic!("a query panics while it holds the session");
                })
                .join();
            assert!(panicked.is_err());
        });

        let fresh = service.handle(&request);
        assert_eq!(fresh.cache, CacheOutcome::Miss);
        let stats = service.stats();
        assert_eq!((stats.compiles, stats.evictions), (2, 1), "{stats}");
        match (cold.result.expect("cold"), fresh.result.expect("fresh")) {
            (ServiceReply::Check(a), ServiceReply::Check(b)) => {
                assert_eq!(a.verdict, b.verdict);
                assert_eq!(a.fidelity_bounds.0.to_bits(), b.fidelity_bounds.0.to_bits());
                assert_eq!(a.fidelity_bounds.1.to_bits(), b.fidelity_bounds.1.to_bits());
            }
            other => panic!("expected two check replies, got {other:?}"),
        }
        // The fresh session is cached and serves the next repeat.
        assert_eq!(service.handle(&request).cache, CacheOutcome::Hit);
    }
}
