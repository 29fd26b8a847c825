//! Plan-level parallel contraction: a DAG scheduler over
//! [`ContractionPlan`] steps.
//!
//! Algorithm II is one big contraction, so term-level work stealing (the
//! `qaec` engine's trick for Algorithm I) has nothing to steal. The
//! parallelism lives *inside* the plan instead: steps form an explicit
//! dependency tree through their slot indices, and any two steps whose
//! operands have resolved are independent. This driver extracts that DAG
//! ([`ContractionPlan::graph`]), keeps a critical-path-first ready heap,
//! and dispatches runnable steps to a pool of workers that all hash-cons
//! into one [`crate::SharedTddStore`]. With one worker the same
//! scheduler runs inline on the caller's manager — typically one that
//! owns its store ([`TddManager::new_owned`]), which applies the shared
//! store's interning rule without its atomics, locks or stripes.
//!
//! ## Why any schedule gives the same answer, bit for bit
//!
//! Workers attach to the store with [`TddManager::new_shared`], whose
//! interning is **scoped** (an owned store's is the same rule): each
//! leaf conversion and each plan step opens a fresh weight scope, whose
//! tolerance gluing and computed tables start empty. Within a scope the
//! computation is the deterministic `cont` recursion over the operand
//! *values* — glue representatives are elected in recursion order,
//! interned store-wide by exact bits, and `ops::add` orders its operands
//! by weight value — so a step's result edge (value bits and node shape)
//! is a pure function of its operands and the elimination set. Nothing
//! value-bearing leaks between scopes except the exact-bits ids
//! themselves, a store-wide find-or-insert keyed by bit pattern. Each
//! step's result is therefore
//! the same in every topological execution order, including the fully
//! sequential one, and on an owned store as on a shared one; scheduling
//! affects only which worker computes what.
//! The reported `max_nodes` is a max over per-step
//! [`TddManager::node_count`] values of those scheduling-independent
//! edges, so it is deterministic too.
//!
//! The same argument lets a run cover only part of a plan
//! ([`contract_steps_parallel`]): a slot's edge depends on nothing but
//! the steps and inputs below it, so edges kept from an earlier run on
//! the same store resume a later run exactly where a full run would
//! stand.

use crate::convert::from_tensor;
use crate::driver::{ContractionResult, DriverTimeout};
use crate::manager::{Edge, TddManager, TddStats};
use qaec_tensornet::{ContractionPlan, PlanGraph, PlanStep, Tensor, TensorNetwork, VarOrder};
use std::collections::BinaryHeap;
// The pool scheduler's ready-queue uses Condvar, which has no model twin, so
// its Mutex stays `std::sync` (see `crate::sync`); the atomics go through the
// shim and are model-checkable.
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Execution knobs for [`contract_network_parallel`].
#[derive(Clone, Copy, Debug)]
pub struct ParallelOptions {
    /// Worker threads. `1` runs the scheduler inline on the calling
    /// thread and the caller's manager (no spawn) — same code path,
    /// bit-identical results. More than one needs a caller's manager on
    /// a shared store, which the other workers attach to; a manager that
    /// holds its store alone runs the plan on one worker.
    pub workers: usize,
    /// Abort with [`DriverTimeout`] once this instant passes (probed
    /// between steps and, amortised, inside every `cont` recursion).
    pub deadline: Option<Instant>,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            workers: 1,
            deadline: None,
        }
    }
}

/// What a parallel contraction produced.
#[derive(Clone, Copy, Debug)]
pub struct ParallelOutcome {
    /// The contraction result (root edge handles are valid in the
    /// caller's manager, and in any manager attached to its store).
    pub result: ContractionResult,
    /// The run's statistics (see [`StepOutcome::stats`]).
    pub stats: TddStats,
}

/// Runs `f(worker_index)` on `workers` OS threads, returning every
/// worker's value in index order. `workers <= 1` runs inline on the
/// calling thread — no spawn, identical code path. This is the one
/// worker-pool primitive shared by the term engine and the plan
/// scheduler.
///
/// # Panics
///
/// Propagates worker panics.
pub fn run_on_workers<T, F>(workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 {
        return vec![f(0)];
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || f(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    })
}

/// A runnable step in the ready heap: higher critical-path priority pops
/// first, ties broken toward the lower step id (deterministic pop order;
/// results do not depend on it either way).
struct ReadyStep {
    priority: f64,
    step: usize,
}

impl PartialEq for ReadyStep {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for ReadyStep {}
impl PartialOrd for ReadyStep {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyStep {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then_with(|| other.step.cmp(&self.step))
    }
}

/// The mutex-guarded scheduler core: the ready heap plus the count of
/// steps still unfinished (workers park on the condvar while the heap is
/// empty but work remains in flight).
struct ReadyState {
    heap: BinaryHeap<ReadyStep>,
    unfinished: usize,
}

/// Cross-worker scheduler state.
struct Scheduler {
    ready: Mutex<ReadyState>,
    wake: Condvar,
    /// Unfinished running producers per step; a step joins the heap
    /// when its count hits zero.
    indegree: Vec<AtomicUsize>,
    /// Write-once slot table: resolved slots are set before the run,
    /// inputs resolve lazily inside the consuming step, and results
    /// publish here before dependents wake.
    slots: Vec<OnceLock<Edge>>,
    /// Raised on timeout: everyone drains and exits.
    stop: AtomicBool,
}

impl Scheduler {
    /// Blocks until a step is runnable. `None` means done or stopped.
    fn next_step(&self) -> Option<usize> {
        let mut state = self.ready.lock().expect("scheduler poisoned");
        loop {
            // ordering: Acquire pairs with the Release in `halt`; a worker
            // that observes the stop flag also observes whatever state the
            // halting thread wrote before raising it.
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            if let Some(top) = state.heap.pop() {
                return Some(top.step);
            }
            if state.unfinished == 0 {
                return None;
            }
            state = self.wake.wait(state).expect("scheduler poisoned");
        }
    }

    /// Marks `step` finished and promotes dependents whose last
    /// dependency this was. The highest-priority newly-ready dependent
    /// is handed straight back to the finishing worker (chain
    /// following): the worker's computed tables already hold that
    /// region's sub-results, and skipping the heap round-trip keeps
    /// long dependency chains off the scheduler lock.
    fn finish_step(&self, step: usize, graph: &PlanGraph, running: &[bool]) -> Option<usize> {
        let mut rest: Vec<usize> = graph.dependents[step]
            .iter()
            .copied()
            .filter(|&d| running[d])
            // ordering: AcqRel — the release half publishes this step's
            // result slot to whoever decrements last; the acquire half makes
            // every predecessor's published slot visible to the thread that
            // takes the dependent (it alone sees the count hit zero).
            .filter(|&d| self.indegree[d].fetch_sub(1, Ordering::AcqRel) == 1)
            .collect();
        let follow = rest
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| graph.priority[a].total_cmp(&graph.priority[b]))
            .map(|(i, _)| i)
            .map(|i| rest.swap_remove(i));

        let mut state = self.ready.lock().expect("scheduler poisoned");
        state.unfinished -= 1;
        let done = state.unfinished == 0;
        for d in rest.iter().copied() {
            state.heap.push(ReadyStep {
                priority: graph.priority[d],
                step: d,
            });
        }
        drop(state);
        if done {
            self.wake.notify_all();
        } else {
            for _ in &rest {
                self.wake.notify_one();
            }
        }
        follow
    }

    /// Raises the stop flag and wakes every parked worker.
    ///
    /// The flag is raised under the scheduler lock. A worker in
    /// [`Self::next_step`] holds that lock from its stop check until
    /// `wait` parks it, so it either sees the flag or is already parked
    /// when `notify_all` runs; raised without the lock, the wakeup could
    /// land between the check and the park and leave that worker asleep
    /// while the pool waits to join it. A poisoned lock still serves:
    /// the flag is all it guards here, and a worker halts as it unwinds.
    fn halt(&self) {
        let state = self.ready.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: Release pairs with the Acquire in `next_step` (see
        // there); notify_all below handles the wakeup itself.
        self.stop.store(true, Ordering::Release);
        drop(state);
        self.wake.notify_all();
    }
}

/// Halts the scheduler if its worker unwinds: without this, a panicking
/// worker would leave `unfinished` above zero forever and every sibling
/// parked on the condvar — the pool would deadlock instead of
/// propagating the panic through `run_on_workers`'s join.
struct PanicGuard<'a>(&'a Scheduler);

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt();
        }
    }
}

/// What one [`contract_steps_parallel`] call executes: a subset of a
/// plan's steps, started from slots an earlier call resolved.
///
/// This is how a compiled check folds the part of a plan that never
/// changes between calls: one call runs the steps whose operands do not
/// depend on the inputs that change and keeps the edges those steps pass
/// on; every later call runs only the remaining steps, from those edges.
/// Step purity (module docs) makes the split invisible: every slot's
/// edge is bit-identical to the one a full run computes.
#[derive(Clone, Copy, Debug)]
pub struct StepRun<'a> {
    /// `steps[i]`: whether plan step `i` runs. Every operand of a
    /// running step must be a running step's result, a `resolved` slot
    /// or an input slot.
    pub steps: &'a [bool],
    /// Slots whose edges are already in the store.
    pub resolved: &'a [(usize, Edge)],
    /// Slots whose edges the call returns, in order. An input slot among
    /// them that no running step consumed is converted here.
    pub keep: &'a [usize],
}

/// What a [`contract_steps_parallel`] call produced.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// The edges of [`StepRun::keep`], in order.
    pub kept: Vec<Edge>,
    /// Largest diagram among the steps run and the inputs converted.
    pub max_nodes: usize,
    /// The call's statistics: every worker's counters and, once, the
    /// store's — fenced, so a warm manager or store reports this call's
    /// work alone.
    pub stats: TddStats,
}

/// Executes `plan` over `network` on the caller's manager `m` and, for
/// more than one worker, a pool of workers attached to its shared store.
///
/// Results are **bit-identical** to executing the same plan sequentially
/// on a scoped manager (owned or shared), for every worker count (see
/// the module docs for the purity argument).
///
/// # Errors
///
/// [`DriverTimeout`] if the deadline expires (between steps or inside a
/// step's `cont` recursion).
///
/// # Panics
///
/// Panics if the plan does not match the network or an index is missing
/// from `order`.
pub fn contract_network_parallel(
    m: &mut TddManager,
    network: &TensorNetwork,
    plan: &ContractionPlan,
    order: &VarOrder,
    options: ParallelOptions,
) -> Result<ParallelOutcome, DriverTimeout> {
    let graph = plan.graph(network);
    let steps = vec![true; plan.steps.len()];
    // Unconsumed inputs are converted too, so `max_nodes` matches the
    // sequential driver's leaf accounting; the root comes last.
    let mut keep = graph.unconsumed_inputs.clone();
    keep.extend(graph.root_slot);
    let run = StepRun {
        steps: &steps,
        resolved: &[],
        keep: &keep,
    };
    let inputs = |slot: usize| &network.tensors()[slot];
    let out = contract_steps_parallel(m, plan, &graph, &inputs, order, run, options)?;
    let root = match graph.root_slot {
        Some(_) => *out.kept.last().expect("root kept"),
        None => Edge::ONE,
    };
    let mut stats = out.stats;
    let root = scale_free_loops(m, root, plan.free_loops, &mut stats);
    Ok(ParallelOutcome {
        result: ContractionResult {
            root,
            max_nodes: out.max_nodes.max(1),
            peak_arena: m.arena_len(),
            steps: plan.steps.len(),
        },
        stats,
    })
}

/// Multiplies a plan's root by `2^free_loops` (closed indices no tensor
/// touches) on the run's manager, in a weight scope of its own — the
/// close-out of every run that ends at the root, whether full or
/// resumed from a fold. Merges the scaling's statistics into `stats`.
pub fn scale_free_loops(
    m: &mut TddManager,
    root: Edge,
    free_loops: u32,
    stats: &mut TddStats,
) -> Edge {
    if free_loops == 0 {
        return root;
    }
    let fence = m.fence();
    m.begin_weight_scope();
    let weight = m.wscale_real(root.weight, (free_loops as f64).exp2());
    stats.merge(&m.stats_since(&fence));
    Edge {
        node: root.node,
        weight,
    }
}

/// Executes the steps `run` selects on the caller's manager `m` — inline
/// for one worker, with a pool attached to `m`'s shared store for more:
/// the one driver behind a full run ([`contract_network_parallel`]), the
/// fold of a plan's fixed part and every run resumed from that fold.
/// `inputs(slot)` supplies the tensor of an input slot (`slot <
/// n_inputs`) a running step or `run.keep` reads without a resolved
/// edge; `graph` is `plan.graph(network)` of the network the plan was
/// built for.
///
/// Each slot's edge is bit-identical to the one a full sequential run
/// computes, for every worker count and every split of the plan (see
/// the module docs for the purity argument).
///
/// # Errors
///
/// [`DriverTimeout`] if the deadline expires (between steps or inside a
/// step's `cont` recursion).
///
/// # Panics
///
/// Panics if a running step's operand is neither produced, resolved nor
/// an input, or an index is missing from `order`.
pub fn contract_steps_parallel<'t>(
    m: &mut TddManager,
    plan: &ContractionPlan,
    graph: &PlanGraph,
    inputs: &(dyn Fn(usize) -> &'t Tensor + Sync),
    order: &VarOrder,
    run: StepRun<'_>,
    options: ParallelOptions,
) -> Result<StepOutcome, DriverTimeout> {
    let n_inputs = graph.n_inputs;
    let runs = |step: usize| run.steps[step];
    let n_run = (0..plan.steps.len()).filter(|&s| runs(s)).count();
    let slots: Vec<OnceLock<Edge>> = (0..plan.n_slots.max(n_inputs))
        .map(|_| OnceLock::new())
        .collect();
    for &(slot, edge) in run.resolved {
        slots[slot].set(edge).expect("slot resolved twice");
    }
    // A running step waits only on the running steps producing its
    // operands; every other operand is resolved or an input.
    let indegree: Vec<usize> = graph
        .operands
        .iter()
        .map(|producers| producers.iter().filter(|&&p| runs(p)).count())
        .collect();
    let scheduler = Scheduler {
        ready: Mutex::new(ReadyState {
            heap: (0..plan.steps.len())
                .filter(|&step| runs(step) && indegree[step] == 0)
                .map(|step| ReadyStep {
                    priority: graph.priority[step],
                    step,
                })
                .collect(),
            unfinished: n_run,
        }),
        wake: Condvar::new(),
        indegree: indegree.into_iter().map(AtomicUsize::new).collect(),
        slots,
        stop: AtomicBool::new(false),
    };
    let convert = |m: &mut TddManager, max_nodes: &mut usize, slot: usize| -> Edge {
        assert!(
            slot < n_inputs,
            "slot {slot} is neither produced nor resolved"
        );
        let e = from_tensor(m, inputs(slot), order);
        *max_nodes = (*max_nodes).max(m.count_nodes(e));
        e
    };

    // Workers beyond the caller's manager attach to its shared store; a
    // manager that holds its store alone runs the plan by itself.
    let workers = match m.shared_store() {
        Some(_) => options.workers.max(1).min(n_run.max(1)),
        None => 1,
    };
    let fence = m.fence();
    // One worker's loop on manager `m`, returning the largest diagram it
    // converted or produced.
    let work = |m: &mut TddManager| -> Result<usize, DriverTimeout> {
        let mut max_nodes = 0usize;
        // Resolves one operand slot: produced and resolved slots read
        // the published edge, input slots convert the tensor here (each
        // input is consumed by exactly one step, so no work is
        // duplicated).
        let fetch = |m: &mut TddManager, max_nodes: &mut usize, slot: usize| -> Edge {
            match scheduler.slots[slot].get() {
                Some(&e) => e,
                None => convert(m, max_nodes, slot),
            }
        };
        let mut follow: Option<usize> = None;
        while let Some(step) = follow.take().or_else(|| scheduler.next_step()) {
            if options.deadline.is_some_and(|d| Instant::now() >= d) {
                scheduler.halt();
                return Err(DriverTimeout);
            }
            let (operands, eliminate, result_slot) = match &plan.steps[step] {
                PlanStep::Contract {
                    a,
                    b,
                    eliminate,
                    result,
                } => {
                    let ea = fetch(m, &mut max_nodes, *a);
                    let eb = fetch(m, &mut max_nodes, *b);
                    ((ea, eb), eliminate, *result)
                }
                PlanStep::SumOut {
                    t,
                    eliminate,
                    result,
                } => {
                    let et = fetch(m, &mut max_nodes, *t);
                    ((et, Edge::ONE), eliminate, *result)
                }
            };
            let mut levels: Vec<u32> = eliminate.iter().map(|&i| order.level(i)).collect();
            levels.sort_unstable();
            let set = m.intern_elim_set(levels);
            // One plan step = one weight scope, mirroring the sequential
            // driver exactly (the purity unit of the module docs).
            m.begin_weight_scope();
            let e = match crate::ops::try_cont(m, operands.0, operands.1, set) {
                Ok(e) => e,
                Err(timeout) => {
                    scheduler.halt();
                    return Err(timeout);
                }
            };
            max_nodes = max_nodes.max(m.count_nodes(e));
            scheduler.slots[result_slot]
                .set(e)
                .expect("step result published twice");
            follow = scheduler.finish_step(step, graph, run.steps);
        }
        Ok(max_nodes)
    };

    let mut max_nodes = 0usize;
    let mut stats = TddStats::default();
    if workers == 1 {
        let armed = m.deadline();
        m.set_deadline(options.deadline);
        let result = work(m);
        m.set_deadline(armed);
        max_nodes = result?;
    } else {
        let store = m.shared_store().expect("several workers share a store");
        let hauls = run_on_workers(workers, |_| {
            let _panic_guard = PanicGuard(&scheduler);
            let mut worker = TddManager::new_shared(store);
            worker.set_deadline(options.deadline);
            work(&mut worker).map(|nodes| (nodes, worker.stats()))
        });
        let mut error = None;
        for haul in hauls {
            match haul {
                Ok((nodes, worker_stats)) => {
                    max_nodes = max_nodes.max(nodes);
                    stats.merge(&worker_stats);
                }
                Err(e) => error = Some(e),
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
    }
    // ordering: Acquire (pairs with `halt`'s Release) — read after the
    // workers finished, which already ordered everything; Acquire keeps
    // the site self-documenting and uniform with `next_step`.
    if scheduler.stop.load(Ordering::Acquire) {
        return Err(DriverTimeout);
    }

    // Close out: read the kept slots, converting any input no running
    // step consumed (published, so a slot kept twice converts once).
    let kept = run
        .keep
        .iter()
        .map(|&slot| *scheduler.slots[slot].get_or_init(|| convert(m, &mut max_nodes, slot)))
        .collect();
    // The caller's manager counts its own work and, once, its store's.
    stats.merge(&m.stats_since(&fence));
    Ok(StepOutcome {
        kept,
        max_nodes,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{contract_network_opts, DriverOptions};
    use crate::SharedTddStore;
    use qaec_math::{Matrix, C64};
    use qaec_tensornet::{IndexId, Strategy, Tensor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    fn random_unitary_2x2(rng: &mut StdRng) -> Matrix {
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

    fn random_chain(n: usize, seed: u64) -> TensorNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
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
        net
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential_on_the_same_store_kind() {
        for strategy in [
            Strategy::MinFill,
            Strategy::GreedySize,
            Strategy::Sequential,
        ] {
            let net = random_chain(8, 0xA11CE);
            let order = VarOrder::from_sequence((0..8).map(IndexId));
            let plan = net.plan(strategy);

            // Sequential reference on a (fresh) shared store, same
            // interning rule as the parallel workers.
            let seq_store = SharedTddStore::new();
            let mut seq_m = TddManager::new_shared(&seq_store);
            let seq =
                contract_network_opts(&mut seq_m, &net, &plan, &order, DriverOptions::default())
                    .expect("no deadline");
            let seq_value = seq_m.edge_scalar(seq.root).expect("scalar");

            // One worker on an owned store, then 1–8 on a shared one.
            for (workers, owned) in [
                (1usize, true),
                (1, false),
                (2, false),
                (4, false),
                (8, false),
            ] {
                let mut m = match owned {
                    true => TddManager::new_owned(),
                    false => TddManager::new_shared(&SharedTddStore::new()),
                };
                let out = contract_network_parallel(
                    &mut m,
                    &net,
                    &plan,
                    &order,
                    ParallelOptions {
                        workers,
                        deadline: None,
                    },
                )
                .expect("no deadline");
                let value = m.edge_scalar(out.result.root).expect("scalar");
                assert_eq!(
                    value.re.to_bits(),
                    seq_value.re.to_bits(),
                    "{strategy:?} workers={workers}: re drifted"
                );
                assert_eq!(
                    value.im.to_bits(),
                    seq_value.im.to_bits(),
                    "{strategy:?} workers={workers}: im drifted"
                );
                assert_eq!(
                    out.result.max_nodes, seq.max_nodes,
                    "{strategy:?} workers={workers}: max_nodes drifted"
                );
            }
        }
    }

    #[test]
    fn parallel_agrees_with_dense_backend() {
        let net = random_chain(6, 42);
        let order = VarOrder::from_sequence((0..6).map(IndexId));
        let plan = net.plan(Strategy::MinFill);
        let dense = net.contract_dense(&plan).as_scalar().expect("scalar");
        let mut m = TddManager::new_shared(&SharedTddStore::new());
        let out = contract_network_parallel(
            &mut m,
            &net,
            &plan,
            &order,
            ParallelOptions {
                workers: 4,
                deadline: None,
            },
        )
        .expect("no deadline");
        let got = m.edge_scalar(out.result.root).expect("scalar");
        assert!(
            (got - dense).abs() < 1e-8,
            "dense {dense} vs parallel {got}"
        );
        assert_eq!(out.result.steps, plan.steps.len());
        assert!(out.result.peak_arena > 0);
    }

    #[test]
    fn parallel_free_loops_and_empty_plans() {
        // Free loops scale the root; an empty network contracts to 1.
        let mut net = TensorNetwork::new();
        net.add(Tensor::delta(IndexId(0), IndexId(1)));
        net.close_index(IndexId(5));
        let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
        let plan = net.plan(Strategy::Sequential);
        let mut m = TddManager::new_owned();
        let out =
            contract_network_parallel(&mut m, &net, &plan, &order, ParallelOptions::default())
                .expect("no deadline");
        // tr(I)·2 = 4.
        assert!((m.edge_scalar(out.result.root).unwrap() - C64::real(4.0)).abs() < 1e-9);

        let empty = TensorNetwork::new();
        let plan = empty.plan(Strategy::MinFill);
        let mut m = TddManager::new_owned();
        let out =
            contract_network_parallel(&mut m, &empty, &plan, &order, ParallelOptions::default())
                .expect("no deadline");
        assert_eq!(out.result.root, Edge::ONE);
    }

    #[test]
    fn expired_deadline_times_out_every_worker_count() {
        let net = random_chain(8, 7);
        let order = VarOrder::from_sequence((0..8).map(IndexId));
        let plan = net.plan(Strategy::MinFill);
        for workers in [1usize, 4] {
            let mut m = match workers {
                1 => TddManager::new_owned(),
                _ => TddManager::new_shared(&SharedTddStore::new()),
            };
            let result = contract_network_parallel(
                &mut m,
                &net,
                &plan,
                &order,
                ParallelOptions {
                    workers,
                    deadline: Some(Instant::now() - Duration::from_millis(1)),
                },
            );
            assert_eq!(result.unwrap_err(), DriverTimeout, "workers={workers}");
        }
    }
}
