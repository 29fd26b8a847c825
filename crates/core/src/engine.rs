//! The work-stealing ε-aware parallel term engine.
//!
//! Algorithm I and the Monte-Carlo estimator both reduce to "contract
//! many instantiations of one miter template". This module runs those
//! contractions on a pool of workers that *pull* work from a shared
//! source instead of being handed fixed chunks. The source is either
//! every Kraus selection of the template (Algorithm I) or a fixed job
//! list (the Monte-Carlo estimator's distinct strings); one worker loop
//! serves both, so that:
//!
//! * ε-decisions compose with `threads > 1`: every worker folds its
//!   terms into a shared ordered reducer and broadcasts a stop signal
//!   the moment either bound resolves, in either term order;
//! * `max_terms`, `deadline` and `term_order` behave identically in
//!   sequential and parallel runs;
//! * slow terms don't stall the run: a worker that finishes its batch
//!   steals the next one from the shared enumerator, so load balances
//!   even when term costs vary by orders of magnitude;
//! * every worker keeps a private [`TddManager`] and reuses its computed
//!   tables across every term it contracts (the paper's Table II "Opt."
//!   configuration).
//!
//! ## Sequential-prefix semantics
//!
//! The ordered reducer folds completed terms strictly in enumeration
//! order: workers deposit `(sequence, value, mass)` and the reducer
//! advances a gapless frontier, so partial sums — and therefore the
//! ε-decision point, the verdict and the reported term count — are
//! those of the sequential prefix. Terms completed beyond the frontier
//! when a decision lands are simply discarded from the report (work
//! wasted, semantics unchanged). A fixed-job run keeps each folded
//! value too, so its per-job values come back in job order.
//!
//! Values are not bit-identical across thread counts: each private
//! manager glues weights along its own interning history, so a term's
//! value depends on which terms its worker contracted before, and
//! bounds drift within the interning tolerance (≲1e-9). At one thread
//! the run is the sequential loop, bit for bit.

use crate::error::QaecError;
use crate::miter::{build_trace_network, Alg1Template, BuiltNetwork};
use crate::options::{CheckOptions, TermOrder};
use crate::report::Verdict;
use qaec_tdd::{contract_network_opts, run_on_workers, DriverOptions, TddManager, TddStats};
use qaec_tensornet::{ContractionPlan, VarOrder};
use std::collections::{BinaryHeap, HashMap, HashSet};

use qaec_tdd::sync::atomic::{AtomicBool, Ordering};
use qaec_tdd::sync::Mutex;
use std::time::Instant;

/// Everything the workers need to instantiate and contract one term.
pub(crate) struct TermEngine<'a> {
    /// The miter with substitutable noise sites.
    pub template: &'a Alg1Template,
    /// Wire remapping from SWAP elimination.
    pub final_map: &'a [usize],
    /// Contraction plan shared by every instantiation.
    pub plan: &'a ContractionPlan,
    /// Decision-diagram variable order shared by every instantiation.
    pub order: &'a VarOrder,
    /// Checker options (threads, tables, GC, deadline).
    pub options: &'a CheckOptions,
    /// `d²` normalisation for `|tr(U†Eᵢ)|²`.
    pub d2: f64,
}

/// The terms an engine run contracts.
#[derive(Clone, Copy)]
pub(crate) enum Jobs<'j> {
    /// Every Kraus selection of the template, in `options.term_order`,
    /// capped at `options.max_terms`.
    Enumerate,
    /// These `(Kraus selection, mass)` jobs, in list order, uncapped.
    Fixed(&'j [(Vec<usize>, f64)]),
}

/// What an engine run produced.
pub(crate) struct EngineOutcome {
    /// Sum of folded terms (proven fidelity lower bound).
    pub lower: f64,
    /// Outstanding Kraus mass (upper bound = `lower + remaining`).
    pub remaining: f64,
    /// Terms folded into the bounds (the gapless frontier; for decided
    /// runs, frozen at the decision point).
    pub terms_computed: usize,
    /// Largest intermediate diagram across all workers.
    pub max_nodes: usize,
    /// Early ε-decision, if one was reached.
    pub verdict: Option<Verdict>,
    /// Decision-diagram statistics merged across workers; the peak node
    /// count and the store footprints are the workers' sum (see
    /// [`fold_workers`]).
    pub stats: TddStats,
    /// Per-job term values `|tr(U†E_choice)|²/d²` in job order
    /// ([`Jobs::Fixed`] runs only; empty otherwise).
    pub values: Vec<f64>,
}

/// One pulled term: `(sequence, (Kraus selection, mass))`. The sequence
/// is the fold position the [`Reducer`] will give the term, identical in
/// every scheduling.
type Term = (usize, (Vec<usize>, f64));

/// The mutex-guarded work source, capped before numbering so a cap
/// limits *pulled* work exactly.
struct TermQueue<'j>(Box<dyn Iterator<Item = Term> + Send + 'j>);

impl<'j> TermQueue<'j> {
    fn new(terms: impl Iterator<Item = (Vec<usize>, f64)> + Send + 'j, cap: Option<usize>) -> Self {
        TermQueue(Box::new(terms.take(cap.unwrap_or(usize::MAX)).enumerate()))
    }

    /// Pulls up to `max` terms into `out` (cleared first). An empty
    /// result means the source is exhausted or capped.
    fn pull(&mut self, max: usize, out: &mut Vec<Term>) {
        out.clear();
        out.extend(self.0.by_ref().take(max));
    }
}

/// The ε-decision at the moment the frontier crossed a threshold, frozen
/// so late-arriving terms cannot perturb the reported result.
#[derive(Clone, Copy, Debug)]
struct Decision {
    verdict: Verdict,
    lower: f64,
    remaining: f64,
    terms: usize,
}

/// Order-restoring accumulator: terms arrive in completion order (any
/// scheduling) and are folded in enumeration order, so the partial sums
/// — and any ε-decision taken on them — are exactly those of the
/// sequential run.
struct Reducer {
    epsilon: Option<f64>,
    /// Every folded value in fold order, when the run keeps them.
    values: Option<Vec<f64>>,
    /// Completed terms waiting for the frontier: `seq → (value, mass)`.
    /// Bounded by [`PENDING_LIMIT`] plus one in-flight batch per worker
    /// — workers stop pulling new batches while the frontier lags (see
    /// `TermEngine::epsilon_worker`), so one slow term cannot make the
    /// rest of the pool buffer the whole enumeration here.
    pending: HashMap<usize, (f64, f64)>,
    /// Number of terms folded so far (= next sequence to fold).
    folded: usize,
    lower: f64,
    mass_done: f64,
    decision: Option<Decision>,
}

/// Backpressure threshold on [`Reducer::pending`]: workers pause ahead
/// of a stalled frontier once this many completed terms are buffered.
/// Generous enough that ordinary cost skew never trips it (a few MB at
/// worst), small enough that a pathological straggler cannot turn the
/// buffer into the whole term set.
const PENDING_LIMIT: usize = 4096;

impl Reducer {
    fn new(epsilon: Option<f64>, keep_values: bool) -> Self {
        Reducer {
            epsilon,
            values: keep_values.then(Vec::new),
            pending: HashMap::new(),
            folded: 0,
            lower: 0.0,
            mass_done: 0.0,
            decision: None,
        }
    }

    /// Outstanding Kraus mass given the folded prefix (CPTP: site masses
    /// sum to 1, so the unfolded terms hold exactly the complement).
    fn remaining(&self) -> f64 {
        (1.0 - self.mass_done).max(0.0)
    }

    /// Deposits one completed term and advances the gapless frontier.
    /// Returns `true` once an ε-decision exists (callers then stop).
    fn submit(&mut self, seq: usize, value: f64, mass: f64) -> bool {
        self.pending.insert(seq, (value, mass));
        while self.decision.is_none() {
            let Some((value, mass)) = self.pending.remove(&self.folded) else {
                break;
            };
            self.folded += 1;
            self.lower += value;
            self.mass_done += mass;
            if let Some(values) = &mut self.values {
                values.push(value);
            }
            if let Some(eps) = self.epsilon {
                let remaining = self.remaining();
                // The one boundary-pinning comparison (`Verdict::decide`)
                // applied to both proven bounds: accept when even the
                // lower bound clears 1 − ε, reject when even the upper
                // bound fails it.
                if let Some(verdict) =
                    Verdict::decide_bounds(self.lower, self.lower + remaining, eps)
                {
                    self.decision = Some(Decision {
                        verdict,
                        lower: self.lower,
                        remaining,
                        terms: self.folded,
                    });
                }
            }
        }
        self.decision.is_some()
    }
}

/// Cross-worker shared state for an engine run.
struct SharedState<'j> {
    queue: Mutex<TermQueue<'j>>,
    reducer: Mutex<Reducer>,
    stop: AtomicBool,
}

/// A worker's private contraction context: its thread-local manager (or
/// a fresh one per term when table reuse is off) and its local maxima.
struct WorkerCtx<'a> {
    engine: &'a TermEngine<'a>,
    manager: Option<TddManager>,
    max_nodes: usize,
    stats: TddStats,
}

impl<'a> WorkerCtx<'a> {
    fn new(engine: &'a TermEngine<'a>) -> Self {
        WorkerCtx {
            engine,
            manager: engine.options.reuse_tables.then(TddManager::new),
            max_nodes: 0,
            stats: TddStats::default(),
        }
    }

    /// Contracts one Kraus selection, returning `|tr(U†E_choice)|²/d²`.
    fn contract(&mut self, choice: &[usize]) -> Result<f64, QaecError> {
        let built = self.engine.build_network(choice);
        let mut fresh = None;
        let manager = match self.manager.as_mut() {
            Some(m) => m,
            None => fresh.insert(TddManager::new()),
        };
        let result = contract_network_opts(
            manager,
            &built.network,
            self.engine.plan,
            self.engine.order,
            DriverOptions {
                gc_threshold: self.engine.options.gc_threshold,
                deadline: self.engine.options.deadline,
            },
        )
        .map_err(|_| QaecError::Timeout)?;
        let trace = manager.edge_scalar(result.root).expect("closed network");
        self.max_nodes = self.max_nodes.max(result.max_nodes);
        if let Some(fresh) = fresh {
            // Successive per-term managers never coexist: `merge` keeps
            // the largest footprint.
            self.stats.merge(&fresh.stats());
        }
        Ok(trace.norm_sqr() / self.engine.d2)
    }

    /// The worker's merged stats after its last term.
    fn into_stats(self) -> (usize, TddStats) {
        let mut stats = self.stats;
        if let Some(m) = &self.manager {
            stats.merge(&m.stats());
        }
        (self.max_nodes, stats)
    }
}

/// Folds the workers' results into the run's `max_nodes` and stats, and
/// the last error if any worker failed. Every worker's private store is
/// live at once and disjoint from the others, so their peak node counts
/// and store footprints add up ([`TddStats::merge_disjoint`]).
fn fold_workers(
    outcomes: Vec<Result<(usize, TddStats), QaecError>>,
) -> (usize, TddStats, Option<QaecError>) {
    let mut max_nodes = 0usize;
    let mut stats = TddStats::default();
    let mut error = None;
    for outcome in outcomes {
        match outcome {
            Ok((nodes, worker)) => {
                max_nodes = max_nodes.max(nodes);
                stats.merge_disjoint(&worker);
            }
            Err(e) => error = Some(e),
        }
    }
    (max_nodes, stats, error)
}

impl TermEngine<'_> {
    fn build_network(&self, choice: &[usize]) -> BuiltNetwork {
        let elements = self.template.instantiate(choice);
        build_trace_network(
            &elements,
            self.template.n_wires,
            self.final_map,
            self.options.var_order,
        )
    }

    fn deadline_expired(&self) -> bool {
        self.options.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn worker_count(&self, jobs: usize) -> usize {
        self.options.threads.max(1).min(jobs.max(1))
    }

    /// Runs the ε-aware accumulation over `jobs` (`options.deadline`
    /// and `options.threads` respected; `options.term_order` and
    /// `options.max_terms` shape [`Jobs::Enumerate`]).
    ///
    /// Verdicts and term counts follow sequential-prefix semantics, and
    /// the bounds agree with the sequential run's within the interning
    /// tolerance (see the module docs).
    pub(crate) fn run(
        &self,
        epsilon: Option<f64>,
        jobs: Jobs<'_>,
    ) -> Result<EngineOutcome, QaecError> {
        let (queue, total_terms) = match jobs {
            Jobs::Enumerate => (
                TermQueue::new(
                    TermEnumerator::new(self.template, self.options.term_order),
                    self.options.max_terms,
                ),
                self.template.total_terms(),
            ),
            Jobs::Fixed(list) => (TermQueue::new(list.iter().cloned(), None), list.len()),
        };
        let workers = self.worker_count(total_terms);
        // Small batches keep the stop signal responsive during ε runs;
        // exact runs amortise queue locking with larger ones.
        let batch_size = if epsilon.is_some() {
            1
        } else {
            (total_terms / (workers * 4)).clamp(1, 32)
        };
        let shared = SharedState {
            queue: Mutex::new(queue),
            reducer: Mutex::new(Reducer::new(epsilon, matches!(jobs, Jobs::Fixed(_)))),
            stop: AtomicBool::new(false),
        };

        let folded = run_on_workers(workers, |_| self.epsilon_worker(&shared, batch_size));

        let reducer = shared
            .reducer
            .into_inner()
            .expect("engine reducer poisoned");
        let (max_nodes, stats, error) = fold_workers(folded);
        // A decided verdict outranks a racing deadline in another worker
        // (the sequential loop likewise checks the bounds first).
        if reducer.decision.is_none() {
            if let Some(e) = error {
                return Err(e);
            }
        }

        let (lower, remaining, terms_computed, verdict) = match reducer.decision {
            Some(d) => (d.lower, d.remaining, d.terms, Some(d.verdict)),
            None => {
                let remaining = if reducer.folded == total_terms {
                    0.0
                } else {
                    reducer.remaining()
                };
                (reducer.lower, remaining, reducer.folded, None)
            }
        };
        Ok(EngineOutcome {
            lower,
            remaining,
            terms_computed,
            max_nodes,
            verdict,
            stats,
            values: reducer.values.unwrap_or_default(),
        })
    }

    /// One worker of [`TermEngine::run`]: steal a batch, contract it,
    /// fold into the shared reducer, stop on the ε-decision.
    fn epsilon_worker(
        &self,
        shared: &SharedState,
        batch_size: usize,
    ) -> Result<(usize, TddStats), QaecError> {
        let mut ctx = WorkerCtx::new(self);
        let mut batch = Vec::with_capacity(batch_size);
        'steal: loop {
            // ordering: SeqCst — stop is a control-flow flag only (result
            // data travels through the reducer mutex); SeqCst everywhere
            // keeps the flag's reads/writes in one total order at
            // negligible cost off the per-node hot path.
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            // Backpressure: don't race arbitrarily far past a stalled
            // frontier — the worker contracting the frontier term is
            // never the one waiting here, so this cannot deadlock.
            while shared
                .reducer
                .lock()
                .expect("engine reducer poisoned")
                .pending
                .len()
                >= PENDING_LIMIT
            {
                // ordering: SeqCst — control-flow flag (see loop head).
                if shared.stop.load(Ordering::SeqCst) {
                    break 'steal;
                }
                std::thread::yield_now();
            }
            shared
                .queue
                .lock()
                .expect("engine queue poisoned")
                .pull(batch_size, &mut batch);
            if batch.is_empty() {
                break;
            }
            for (seq, (choice, mass)) in batch.drain(..) {
                // ordering: SeqCst — control-flow flag (see loop head).
                if shared.stop.load(Ordering::SeqCst) {
                    break 'steal;
                }
                if self.deadline_expired() {
                    // ordering: SeqCst — control-flow flag (see loop head).
                    shared.stop.store(true, Ordering::SeqCst);
                    return Err(QaecError::Timeout);
                }
                let term = match ctx.contract(&choice) {
                    Ok(term) => term,
                    Err(e) => {
                        // A timeout *inside* a contraction must also stop
                        // the siblings, not just the pre-term check above.
                        // ordering: SeqCst — control-flow flag (loop head).
                        shared.stop.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                };
                let decided = shared
                    .reducer
                    .lock()
                    .expect("engine reducer poisoned")
                    .submit(seq, term, mass);
                if decided {
                    // ordering: SeqCst — control-flow flag (loop head);
                    // the decision itself came out of the reducer mutex.
                    shared.stop.store(true, Ordering::SeqCst);
                    break 'steal;
                }
            }
        }
        Ok(ctx.into_stats())
    }
}

/// Mixed-radix / best-first enumeration of Kraus selections with their
/// probability masses.
pub(crate) struct TermEnumerator {
    counts: Vec<usize>,
    /// Per site, masses sorted descending (positions, not raw indices).
    masses: Vec<Vec<f64>>,
    /// Per site, sorted position → raw Kraus index.
    sorted_maps: Vec<Vec<usize>>,
    mode: TermOrder,
    // Lexicographic state.
    next_lex: Option<Vec<usize>>,
    // Best-first state.
    heap: BinaryHeap<HeapTerm>,
    seen: HashSet<Vec<usize>>,
}

struct HeapTerm {
    mass: f64,
    choice: Vec<usize>,
}

impl PartialEq for HeapTerm {
    fn eq(&self, other: &Self) -> bool {
        self.mass == other.mass && self.choice == other.choice
    }
}
impl Eq for HeapTerm {}
impl PartialOrd for HeapTerm {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapTerm {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.mass
            .total_cmp(&other.mass)
            .then_with(|| other.choice.cmp(&self.choice))
    }
}

impl TermEnumerator {
    pub(crate) fn new(template: &Alg1Template, mode: TermOrder) -> Self {
        let counts: Vec<usize> = template.sites.iter().map(|s| s.kraus.len()).collect();
        // Per site: Kraus indices sorted by descending mass, so the
        // all-zero choice over *sorted positions* is the heaviest term.
        let sorted_indices: Vec<Vec<usize>> = template
            .sites
            .iter()
            .map(|s| {
                let mut idx: Vec<usize> = (0..s.masses.len()).collect();
                idx.sort_by(|&a, &b| s.masses[b].total_cmp(&s.masses[a]));
                idx
            })
            .collect();
        let masses: Vec<Vec<f64>> = template
            .sites
            .iter()
            .zip(&sorted_indices)
            .map(|(s, idx)| idx.iter().map(|&i| s.masses[i]).collect())
            .collect();
        let root = vec![0usize; counts.len()];
        let mut e = TermEnumerator {
            counts,
            masses,
            sorted_maps: sorted_indices,
            mode,
            next_lex: Some(root.clone()),
            heap: BinaryHeap::new(),
            seen: HashSet::new(),
        };
        if mode == TermOrder::BestFirst {
            e.heap.push(HeapTerm {
                mass: e.mass_of(&root),
                choice: root.clone(),
            });
            e.seen.insert(root);
        }
        e
    }

    fn mass_of(&self, positions: &[usize]) -> f64 {
        positions
            .iter()
            .enumerate()
            .map(|(site, &p)| self.masses[site][p])
            .product()
    }

    fn to_raw(&self, positions: &[usize]) -> Vec<usize> {
        positions
            .iter()
            .enumerate()
            .map(|(site, &p)| self.sorted_maps[site][p])
            .collect()
    }
}

impl Iterator for TermEnumerator {
    type Item = (Vec<usize>, f64);

    /// Yields `(raw Kraus choice, mass)` or `None` when exhausted.
    fn next(&mut self) -> Option<(Vec<usize>, f64)> {
        match self.mode {
            TermOrder::Lexicographic => {
                let current = self.next_lex.take()?;
                // Advance the mixed-radix counter.
                let mut next = current.clone();
                let mut carry = true;
                for (digit, &radix) in next.iter_mut().zip(&self.counts) {
                    if carry {
                        *digit += 1;
                        if *digit == radix {
                            *digit = 0;
                        } else {
                            carry = false;
                        }
                    }
                }
                if !carry && !next.is_empty() {
                    self.next_lex = Some(next);
                }
                let mass = self.mass_of(&current);
                let raw = self.to_raw(&current);
                Some((raw, mass))
            }
            TermOrder::BestFirst => {
                let top = self.heap.pop()?;
                for site in 0..self.counts.len() {
                    if top.choice[site] + 1 < self.counts[site] {
                        let mut succ = top.choice.clone();
                        succ[site] += 1;
                        if self.seen.insert(succ.clone()) {
                            self.heap.push(HeapTerm {
                                mass: self.mass_of(&succ),
                                choice: succ,
                            });
                        }
                    }
                }
                let raw = self.to_raw(&top.choice);
                Some((raw, top.mass))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_circuit::{Circuit, NoiseChannel};
    use std::collections::HashSet;

    fn template_with(channels: &[NoiseChannel]) -> Alg1Template {
        let mut noisy = Circuit::new(1);
        for ch in channels {
            noisy.noise(ch.clone(), &[0]);
        }
        Alg1Template::build(&Circuit::new(1), &noisy)
    }

    #[test]
    fn lexicographic_covers_every_selection_once() {
        let template = template_with(&[
            NoiseChannel::Depolarizing { p: 0.9 },
            NoiseChannel::BitFlip { p: 0.8 },
        ]);
        let mut seen = HashSet::new();
        let mut total_mass = 0.0;
        for (choice, mass) in TermEnumerator::new(&template, TermOrder::Lexicographic) {
            assert!(seen.insert(choice.clone()), "duplicate {choice:?}");
            assert!(choice[0] < 4 && choice[1] < 2);
            total_mass += mass;
        }
        assert_eq!(seen.len(), 8);
        assert!((total_mass - 1.0).abs() < 1e-12, "masses must sum to 1");
    }

    #[test]
    fn best_first_is_non_increasing_and_complete() {
        let template = template_with(&[
            NoiseChannel::Depolarizing { p: 0.7 },
            NoiseChannel::Pauli {
                pi: 0.6,
                px: 0.25,
                py: 0.1,
                pz: 0.05,
            },
        ]);
        let mut seen = HashSet::new();
        let mut last = f64::INFINITY;
        for (choice, mass) in TermEnumerator::new(&template, TermOrder::BestFirst) {
            assert!(mass <= last + 1e-12, "mass not descending: {mass} > {last}");
            last = mass;
            assert!(seen.insert(choice));
        }
        assert_eq!(seen.len(), 16);
        // The first term must be the heaviest: 0.7 · 0.6.
        let mut e = TermEnumerator::new(&template, TermOrder::BestFirst);
        let (_, first_mass) = e.next().expect("non-empty");
        assert!((first_mass - 0.42).abs() < 1e-12);
    }

    #[test]
    fn best_first_maps_back_to_raw_indices() {
        // Amplitude damping masses are not sorted by Kraus index for
        // large gamma: K1 (decay) can outweigh K0.
        let template = template_with(&[NoiseChannel::AmplitudeDamping { gamma: 0.9 }]);
        let mut e = TermEnumerator::new(&template, TermOrder::BestFirst);
        let (first, first_mass) = e.next().expect("some");
        // masses: K0 = (1 + (1−γ))/2 = 0.55, K1 = γ/2 = 0.45 → K0 first.
        assert_eq!(first, vec![0]);
        assert!((first_mass - 0.55).abs() < 1e-12);
        let (second, second_mass) = e.next().expect("some");
        assert_eq!(second, vec![1]);
        assert!((second_mass - 0.45).abs() < 1e-12);
    }

    #[test]
    fn zero_sites_yield_single_unit_term() {
        let template = template_with(&[]);
        for order in [TermOrder::Lexicographic, TermOrder::BestFirst] {
            let mut e = TermEnumerator::new(&template, order);
            let (choice, mass) = e.next().expect("one term");
            assert!(choice.is_empty());
            assert!((mass - 1.0).abs() < 1e-12);
            assert!(e.next().is_none(), "{order:?} must be exhausted");
        }
    }

    #[test]
    fn term_queue_respects_cap_across_pulls() {
        let template = template_with(&[NoiseChannel::Depolarizing { p: 0.9 }]);
        let mut queue = TermQueue::new(
            TermEnumerator::new(&template, TermOrder::Lexicographic),
            Some(3),
        );
        let mut out = Vec::new();
        queue.pull(2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].0, out[1].0), (0, 1), "sequence numbers are dense");
        queue.pull(2, &mut out);
        assert_eq!(out.len(), 1, "cap must stop the third pull at one term");
        assert_eq!(out[0].0, 2);
        queue.pull(2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reducer_folds_out_of_order_terms_in_sequence_order() {
        let mut r = Reducer::new(None, false);
        // Terms 1 and 2 land before 0: nothing folds until the gap fills.
        assert!(!r.submit(1, 0.25, 0.3));
        assert!(!r.submit(2, 0.125, 0.2));
        assert_eq!(r.folded, 0);
        assert!(!r.submit(0, 0.5, 0.5));
        assert_eq!(r.folded, 3);
        assert!((r.lower - 0.875).abs() < 1e-15);
        assert!((r.remaining() - 0.0).abs() < 1e-12);
        assert!(r.pending.is_empty());
    }

    #[test]
    fn reducer_decides_at_the_sequential_prefix_point() {
        // ε = 0.2: the decision must land exactly when the *prefix* sum
        // crosses 0.8, no matter that a later term arrived first.
        let mut r = Reducer::new(Some(0.2), false);
        assert!(!r.submit(2, 0.05, 0.06), "gap: nothing folds, no decision");
        assert!(!r.submit(0, 0.5, 0.52));
        let decided = r.submit(1, 0.35, 0.36);
        assert!(decided);
        let d = r.decision.expect("decision");
        assert_eq!(d.verdict, Verdict::Equivalent);
        assert_eq!(d.terms, 2, "term 2 is beyond the deciding prefix");
        assert!((d.lower - 0.85).abs() < 1e-15);
        // The frozen snapshot ignores the already-submitted term 2.
        assert!((d.remaining - (1.0 - 0.52 - 0.36)).abs() < 1e-12);
    }

    #[test]
    fn worker_footprints_add_up_across_private_stores() {
        let worker = |nodes, store_bytes, peak_store_bytes| {
            Ok((
                nodes,
                TddStats {
                    nodes_created: 10,
                    peak_nodes: 2 * nodes,
                    store_bytes,
                    peak_store_bytes,
                    ..TddStats::default()
                },
            ))
        };
        let (max_nodes, stats, error) =
            fold_workers(vec![worker(7, 4096, 8192), worker(12, 9000, 9000)]);
        assert!(error.is_none());
        assert_eq!(max_nodes, 12);
        assert_eq!(stats.nodes_created, 20);
        assert_eq!(
            (stats.peak_nodes, stats.store_bytes, stats.peak_store_bytes),
            (38, 13_096, 17_192),
            "disjoint private stores add up"
        );
        let (_, _, error) = fold_workers(vec![worker(7, 4096, 8192), Err(QaecError::Timeout)]);
        assert_eq!(error, Some(QaecError::Timeout));
    }

    #[test]
    fn reducer_rejects_when_upper_bound_collapses() {
        let mut r = Reducer::new(Some(0.05), false);
        // One heavy term with almost no fidelity: upper bound crashes.
        assert!(r.submit(0, 0.01, 0.9));
        let d = r.decision.expect("decision");
        assert_eq!(d.verdict, Verdict::NotEquivalent);
        assert_eq!(d.terms, 1);
    }
}
