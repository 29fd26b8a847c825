//! Contraction planning.
//!
//! A [`ContractionPlan`] is a deterministic sequence of pairwise
//! contractions (plus a final sum-out) that reduces a network to a single
//! tensor over its open indices. Plans are computed once and can then be
//! executed by either backend — dense ([`crate::TensorNetwork::contract_dense`])
//! or decision diagrams (`qaec-tdd`).

use crate::elimination::{eliminate, Heuristic, LineGraph};
use crate::index::IndexId;
use crate::network::TensorNetwork;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of top-level plan constructions
/// ([`ContractionPlan::build`] / [`ContractionPlan::build_parallel`] —
/// a stitched multi-component build counts once, not per component).
///
/// This is the observable behind the compile-once session API's
/// "plan built exactly once per `compile()`" guarantee: the bench
/// harness snapshots [`build_count`] around an N-point sweep and asserts
/// the delta is 1, not N.
static PLAN_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total number of contraction plans built by this process so far.
/// Monotone; take a snapshot before and after an operation to count the
/// plans it constructed.
pub fn build_count() -> u64 {
    // ordering: Relaxed — monotone statistics counter; callers snapshot
    // before/after an operation they themselves sequence.
    PLAN_BUILDS.load(Ordering::Relaxed)
}

/// How to choose the contraction order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Fold tensors left-to-right in insertion (circuit) order.
    Sequential,
    /// Greedily contract the adjacent pair minimizing the resulting rank.
    GreedySize,
    /// Index-elimination order from a min-degree tree decomposition of the
    /// line graph.
    MinDegree,
    /// Index-elimination order from a min-fill tree decomposition (the
    /// paper's tree-decomposition optimisation).
    MinFill,
}

/// One step of a plan.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanStep {
    /// Contract slots `a` and `b`, eliminating `eliminate`, producing slot
    /// `result`.
    Contract {
        /// Left operand slot.
        a: usize,
        /// Right operand slot.
        b: usize,
        /// Indices summed out in this step (sorted).
        eliminate: Vec<IndexId>,
        /// Slot id of the result.
        result: usize,
    },
    /// Sum the listed indices out of slot `t`, producing slot `result`
    /// (used to close single-tensor networks).
    SumOut {
        /// Operand slot.
        t: usize,
        /// Indices summed out.
        eliminate: Vec<IndexId>,
        /// Slot id of the result.
        result: usize,
    },
}

impl PlanStep {
    /// The slot the step writes.
    pub fn result(&self) -> usize {
        match *self {
            PlanStep::Contract { result, .. } | PlanStep::SumOut { result, .. } => result,
        }
    }
}

/// A complete contraction schedule for one network.
#[derive(Clone, Debug, Default)]
pub struct ContractionPlan {
    /// The steps, in execution order. Slot ids `0..n_tensors` are the
    /// network's tensors; results occupy fresh slots.
    pub steps: Vec<PlanStep>,
    /// Total number of slots (inputs + results).
    pub n_slots: usize,
    /// Scalar power-of-two factor from closed indices touching no tensor.
    pub free_loops: u32,
}

/// Static cost estimates for a plan (used by reports and the planner
/// ablation bench).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanCost {
    /// Largest intermediate tensor rank.
    pub max_rank: usize,
    /// `Σ 2^{union rank}` over steps — dense flop estimate.
    pub dense_ops: f64,
}

/// The step-level dependency DAG of a [`ContractionPlan`], extracted for
/// parallel (out-of-order) execution.
///
/// Steps form a tree through their slot indices: a step depends on the
/// steps producing its operand slots (operand slots below the tensor
/// count are network inputs and impose no dependency). Any topological
/// execution order computes the same result, so a scheduler is free to
/// run steps whose dependencies have resolved concurrently.
#[derive(Clone, Debug, Default)]
pub struct PlanGraph {
    /// Per step, the indices of the steps producing its operand slots
    /// (0, 1 or 2 entries).
    pub operands: Vec<Vec<usize>>,
    /// Per step, the indices of the steps consuming its result slot.
    pub dependents: Vec<Vec<usize>>,
    /// Per step, the number of producing steps it waits on
    /// (`operands[i].len()`).
    pub indegree: Vec<usize>,
    /// Per step, a critical-path-first priority: the estimated dense
    /// cost of the step plus the heaviest chain of dependent steps above
    /// it. Schedulers that prefer high-priority ready steps shorten the
    /// makespan by keeping the critical path busy.
    pub priority: Vec<f64>,
    /// The slot holding the final result: the highest-numbered slot
    /// (input or step result) no step consumes. `None` for an empty
    /// network.
    pub root_slot: Option<usize>,
    /// Input slots (`< n_tensors`) that no step consumes — at most the
    /// root for well-formed plans, but tracked so an executor can
    /// account for every converted input.
    pub unconsumed_inputs: Vec<usize>,
    /// The network's tensor count: slots below it are inputs.
    pub n_inputs: usize,
}

impl PlanGraph {
    /// Steps that are immediately runnable (no step dependencies), in
    /// step order.
    pub fn initial_ready(&self) -> Vec<usize> {
        (0..self.indegree.len())
            .filter(|&i| self.indegree[i] == 0)
            .collect()
    }
}

impl ContractionPlan {
    /// Builds a plan for `network` with the given strategy.
    ///
    /// This is usually called through [`TensorNetwork::plan`].
    pub fn build(network: &TensorNetwork, strategy: Strategy) -> ContractionPlan {
        // ordering: Relaxed — statistics counter (see `build_count`).
        PLAN_BUILDS.fetch_add(1, Ordering::Relaxed);
        Self::build_inner(network, strategy)
    }

    fn build_inner(network: &TensorNetwork, strategy: Strategy) -> ContractionPlan {
        let merges = match strategy {
            Strategy::Sequential => sequential_merges(network),
            Strategy::GreedySize => greedy_merges(network),
            Strategy::MinDegree => elimination_merges(network, Heuristic::MinDegree),
            Strategy::MinFill => elimination_merges(network, Heuristic::MinFill),
        };
        from_merges(network, &merges)
    }

    /// [`ContractionPlan::build`] with component-level parallel
    /// construction: when the network splits into disconnected
    /// components (no shared indices), each component is planned
    /// independently — concurrently on up to `workers` threads — and
    /// the per-component plans are stitched into one plan whose tail
    /// folds the component results together.
    ///
    /// The stitched plan is a **pure function of the network and
    /// strategy**: `workers` only bounds construction concurrency, never
    /// the emitted steps, so callers may pass their thread count freely
    /// without perturbing downstream node statistics. Connected networks
    /// fall back to the plain single-component build.
    ///
    /// This is usually called through [`TensorNetwork::plan_parallel`].
    pub fn build_parallel(
        network: &TensorNetwork,
        strategy: Strategy,
        workers: usize,
    ) -> ContractionPlan {
        let components = connected_components(network);
        if components.len() <= 1 {
            return Self::build(network, strategy);
        }
        // ordering: Relaxed — statistics counter (see `build_count`).
        PLAN_BUILDS.fetch_add(1, Ordering::Relaxed);

        // Per-component sub-networks: the component's tensors (in global
        // slot order) with the global open marks restricted to them.
        // Closed-but-untouched indices stay a global concern (free
        // loops, counted below).
        let sub_networks: Vec<TensorNetwork> = components
            .iter()
            .map(|slots| {
                let mut sub = TensorNetwork::new();
                for &slot in slots {
                    let tensor = network.tensors()[slot].clone();
                    for &idx in tensor.indices() {
                        if network.is_open(idx) {
                            sub.mark_open(idx);
                        }
                    }
                    sub.add(tensor);
                }
                sub
            })
            .collect();

        // Plan every component; concurrently when it pays. Results land
        // in component order, so the stitched plan is scheduling-free.
        let workers = workers.max(1).min(sub_networks.len());
        let sub_plans: Vec<ContractionPlan> = if workers <= 1 {
            sub_networks
                .iter()
                .map(|sub| Self::build_inner(sub, strategy))
                .collect()
        } else {
            // Work-stealing off a shared cursor; each worker returns its
            // `(component, plan)` haul and the hauls are re-assembled in
            // component order.
            let next = AtomicU64::new(0);
            let mut plans: Vec<Option<ContractionPlan>> = vec![None; sub_networks.len()];
            let hauls: Vec<Vec<(usize, ContractionPlan)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut haul = Vec::new();
                            loop {
                                // ordering: Relaxed — the RMW's atomicity
                                // alone partitions the component range;
                                // result publication happens through
                                // scope join, not through this cursor.
                                let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                                let Some(sub) = sub_networks.get(k) else {
                                    break;
                                };
                                haul.push((k, Self::build_inner(sub, strategy)));
                            }
                            haul
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("planner worker panicked"))
                    .collect()
            });
            for (k, plan) in hauls.into_iter().flatten() {
                plans[k] = Some(plan);
            }
            plans
                .into_iter()
                .map(|p| p.expect("every component planned"))
                .collect()
        };

        stitch_component_plans(network, &components, sub_plans)
    }

    /// Cost estimates given the index sets of the original tensors.
    pub fn cost(&self, network: &TensorNetwork) -> PlanCost {
        let mut sets: Vec<Option<BTreeSet<IndexId>>> = network
            .tensors()
            .iter()
            .map(|t| Some(t.indices().iter().copied().collect()))
            .collect();
        sets.resize(self.n_slots, None);
        let mut cost = PlanCost::default();
        for step in &self.steps {
            match step {
                PlanStep::Contract {
                    a,
                    b,
                    eliminate,
                    result,
                } => {
                    let sa = sets[*a].take().expect("operand a live");
                    let sb = sets[*b].take().expect("operand b live");
                    let union: BTreeSet<IndexId> = sa.union(&sb).copied().collect();
                    cost.dense_ops += (union.len() as f64).exp2();
                    let out: BTreeSet<IndexId> = union
                        .into_iter()
                        .filter(|i| !eliminate.contains(i))
                        .collect();
                    cost.max_rank = cost.max_rank.max(out.len());
                    sets[*result] = Some(out);
                }
                PlanStep::SumOut {
                    t,
                    eliminate,
                    result,
                } => {
                    let st = sets[*t].take().expect("operand live");
                    cost.dense_ops += (st.len() as f64).exp2();
                    let out: BTreeSet<IndexId> =
                        st.into_iter().filter(|i| !eliminate.contains(i)).collect();
                    sets[*result] = Some(out);
                }
            }
        }
        cost
    }

    /// Extracts the step dependency DAG (see [`PlanGraph`]).
    ///
    /// `network` must be the network the plan was built for; its tensor
    /// index sets seed the per-step cost estimates behind the
    /// critical-path priorities.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not match the network (an operand slot is
    /// consumed twice or never produced).
    pub fn graph(&self, network: &TensorNetwork) -> PlanGraph {
        let n_inputs = network.tensors().len();
        let n_steps = self.steps.len();
        // producer[slot] = step writing that slot (inputs have none).
        let mut producer: Vec<Option<usize>> = vec![None; self.n_slots.max(n_inputs)];
        let mut consumed: Vec<bool> = vec![false; self.n_slots.max(n_inputs)];
        for (i, step) in self.steps.iter().enumerate() {
            assert!(
                producer[step.result()].is_none(),
                "slot {} produced twice",
                step.result()
            );
            producer[step.result()] = Some(i);
        }
        let mut operands: Vec<Vec<usize>> = vec![Vec::new(); n_steps];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_steps];
        for (i, step) in self.steps.iter().enumerate() {
            let slots: &[usize] = match step {
                PlanStep::Contract { a, b, .. } => &[*a, *b],
                PlanStep::SumOut { t, .. } => &[*t],
            };
            for &slot in slots {
                assert!(!consumed[slot], "slot {slot} consumed twice");
                consumed[slot] = true;
                if let Some(p) = producer[slot] {
                    operands[i].push(p);
                    dependents[p].push(i);
                }
            }
        }
        let indegree: Vec<usize> = operands.iter().map(Vec::len).collect();

        // Per-step dense cost estimate (2^{union rank}), replayed like
        // `cost` but kept per step for the priorities.
        let mut sets: Vec<Option<BTreeSet<IndexId>>> = network
            .tensors()
            .iter()
            .map(|t| Some(t.indices().iter().copied().collect()))
            .collect();
        sets.resize(self.n_slots.max(n_inputs), None);
        let mut step_cost = vec![0.0f64; n_steps];
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                PlanStep::Contract {
                    a,
                    b,
                    eliminate,
                    result,
                } => {
                    let sa = sets[*a].take().expect("operand a live");
                    let sb = sets[*b].take().expect("operand b live");
                    let union: BTreeSet<IndexId> = sa.union(&sb).copied().collect();
                    step_cost[i] = (union.len() as f64).exp2();
                    sets[*result] = Some(
                        union
                            .into_iter()
                            .filter(|x| !eliminate.contains(x))
                            .collect(),
                    );
                }
                PlanStep::SumOut {
                    t,
                    eliminate,
                    result,
                } => {
                    let st = sets[*t].take().expect("operand live");
                    step_cost[i] = (st.len() as f64).exp2();
                    sets[*result] =
                        Some(st.into_iter().filter(|x| !eliminate.contains(x)).collect());
                }
            }
        }

        // Critical-path priority: own cost plus the heaviest dependent
        // chain. Steps are stored in topological order (results occupy
        // fresh, increasing slots), so one reverse pass suffices.
        let mut priority = step_cost;
        for i in (0..n_steps).rev() {
            let above = dependents[i]
                .iter()
                .map(|&d| priority[d])
                .fold(0.0f64, f64::max);
            priority[i] += above;
        }

        let root_slot = (0..self.n_slots.max(n_inputs))
            .rev()
            .find(|&s| !consumed[s] && (producer[s].is_some() || s < n_inputs));
        let unconsumed_inputs: Vec<usize> = (0..n_inputs).filter(|&s| !consumed[s]).collect();

        PlanGraph {
            operands,
            dependents,
            indegree,
            priority,
            root_slot,
            unconsumed_inputs,
            n_inputs,
        }
    }
}

/// Groups tensor slots into connected components (tensors sharing an
/// index are connected), each sorted ascending, components ordered by
/// their smallest slot — a deterministic decomposition.
fn connected_components(network: &TensorNetwork) -> Vec<Vec<usize>> {
    let n = network.tensors().len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut holder: BTreeMap<IndexId, usize> = BTreeMap::new();
    for (slot, tensor) in network.tensors().iter().enumerate() {
        for &idx in tensor.indices() {
            match holder.get(&idx) {
                Some(&first) => {
                    let (a, b) = (find(&mut parent, first), find(&mut parent, slot));
                    if a != b {
                        // Union toward the smaller root so representatives
                        // stay the component's first slot.
                        let (lo, hi) = (a.min(b), a.max(b));
                        parent[hi] = lo;
                    }
                }
                None => {
                    holder.insert(idx, slot);
                }
            }
        }
    }
    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for slot in 0..n {
        let root = find(&mut parent, slot);
        by_root.entry(root).or_default().push(slot);
    }
    by_root.into_values().collect()
}

/// Stitches independently-built component plans into one plan over the
/// full network: remaps each sub-plan's slots (inputs to the component's
/// global tensor slots, results to fresh global slots in emission
/// order), then folds the component results pairwise. Components share
/// no indices, so the folds eliminate nothing — for closed networks they
/// multiply the component scalars.
fn stitch_component_plans(
    network: &TensorNetwork,
    components: &[Vec<usize>],
    sub_plans: Vec<ContractionPlan>,
) -> ContractionPlan {
    let n_inputs = network.tensors().len();
    let mut steps: Vec<PlanStep> = Vec::new();
    let mut next_slot = n_inputs;
    let mut roots: Vec<usize> = Vec::with_capacity(components.len());
    for (slots, sub) in components.iter().zip(sub_plans) {
        // `from_merges` numbers sub-results densely from the sub input
        // count, one per step, so the remap is a fixed offset.
        let base = next_slot;
        let map = |s: usize| {
            if s < slots.len() {
                slots[s]
            } else {
                base + (s - slots.len())
            }
        };
        for step in &sub.steps {
            steps.push(match step {
                PlanStep::Contract {
                    a,
                    b,
                    eliminate,
                    result,
                } => PlanStep::Contract {
                    a: map(*a),
                    b: map(*b),
                    eliminate: eliminate.clone(),
                    result: map(*result),
                },
                PlanStep::SumOut {
                    t,
                    eliminate,
                    result,
                } => PlanStep::SumOut {
                    t: map(*t),
                    eliminate: eliminate.clone(),
                    result: map(*result),
                },
            });
        }
        next_slot += sub.steps.len();
        roots.push(match sub.steps.last() {
            Some(last) => base + (last.result() - slots.len()),
            // A stepless component is a single tensor whose indices all
            // survive (open): its root is the input itself.
            None => slots[0],
        });
    }

    // Fold the component results left to right.
    let mut acc = roots[0];
    for &root in &roots[1..] {
        steps.push(PlanStep::Contract {
            a: acc,
            b: root,
            eliminate: Vec::new(),
            result: next_slot,
        });
        acc = next_slot;
        next_slot += 1;
    }

    // Free loops are a whole-network property: closed indices no tensor
    // touches (the sub-plans saw none of them).
    let touched: BTreeSet<IndexId> = network.all_indices();
    let free_loops = network
        .closed_indices()
        .iter()
        .filter(|i| !touched.contains(i))
        .count() as u32;

    ContractionPlan {
        steps,
        n_slots: next_slot,
        free_loops,
    }
}

/// Reference-counted merge lowering: turns a sequence of slot merges into
/// concrete steps with per-step eliminations.
fn from_merges(network: &TensorNetwork, merges: &[(usize, usize)]) -> ContractionPlan {
    let n = network.tensors().len();
    let mut sets: Vec<Option<BTreeSet<IndexId>>> = network
        .tensors()
        .iter()
        .map(|t| Some(t.indices().iter().copied().collect()))
        .collect();
    // occurrence count per index over live slots
    let mut occ: BTreeMap<IndexId, usize> = BTreeMap::new();
    for set in sets.iter().flatten() {
        for &i in set {
            *occ.entry(i).or_default() += 1;
        }
    }
    // Closed indices that no tensor touches: each contributes a factor 2
    // (a bare wire loop). They are the network's closed indices minus all
    // tensor indices.
    let free_loops = network
        .closed_indices()
        .iter()
        .filter(|i| !occ.contains_key(i))
        .count() as u32;

    let mut steps = Vec::with_capacity(merges.len() + 1);
    let mut next_slot = n;
    for &(a, b) in merges {
        let sa = sets[a]
            .take()
            .unwrap_or_else(|| panic!("slot {a} not live"));
        let sb = sets[b]
            .take()
            .unwrap_or_else(|| panic!("slot {b} not live"));
        let union: BTreeSet<IndexId> = sa.union(&sb).copied().collect();
        let mut eliminate = Vec::new();
        let mut out = BTreeSet::new();
        for &i in &union {
            let mut count = occ[&i];
            count -= usize::from(sa.contains(&i));
            count -= usize::from(sb.contains(&i));
            if count == 0 && !network.is_open(i) {
                eliminate.push(i);
                occ.remove(&i);
            } else {
                out.insert(i);
                occ.insert(i, count + 1);
            }
        }
        let result = next_slot;
        next_slot += 1;
        sets.push(Some(out));
        steps.push(PlanStep::Contract {
            a,
            b,
            eliminate,
            result,
        });
    }

    // Close the final tensor: sum out any remaining non-open indices.
    if let Some(last) = (0..sets.len()).rev().find(|&i| sets[i].is_some()) {
        let remaining: Vec<IndexId> = sets[last]
            .as_ref()
            .expect("live")
            .iter()
            .copied()
            .filter(|&i| !network.is_open(i))
            .collect();
        if !remaining.is_empty() {
            steps.push(PlanStep::SumOut {
                t: last,
                eliminate: remaining,
                result: next_slot,
            });
            next_slot += 1;
        }
    }

    ContractionPlan {
        steps,
        n_slots: next_slot,
        free_loops,
    }
}

/// Left-to-right fold, then fold in any disconnected leftovers (there are
/// none for a fold, but keep the shape general).
fn sequential_merges(network: &TensorNetwork) -> Vec<(usize, usize)> {
    let n = network.tensors().len();
    if n <= 1 {
        return Vec::new();
    }
    let mut merges = Vec::with_capacity(n - 1);
    let mut acc = 0usize;
    for (k, t) in (1..n).enumerate() {
        merges.push((acc, t));
        acc = n + k;
    }
    merges
}

/// Greedy: repeatedly contract the pair of live, index-sharing slots whose
/// result has minimal rank; falls back to the two smallest slots when the
/// network is disconnected.
fn greedy_merges(network: &TensorNetwork) -> Vec<(usize, usize)> {
    let n = network.tensors().len();
    if n <= 1 {
        return Vec::new();
    }
    let mut sets: Vec<Option<BTreeSet<IndexId>>> = network
        .tensors()
        .iter()
        .map(|t| Some(t.indices().iter().copied().collect()))
        .collect();
    let mut occ: BTreeMap<IndexId, usize> = BTreeMap::new();
    for set in sets.iter().flatten() {
        for &i in set {
            *occ.entry(i).or_default() += 1;
        }
    }
    let mut merges = Vec::with_capacity(n - 1);
    let mut live: BTreeSet<usize> = (0..n).collect();
    while live.len() > 1 {
        // Candidate pairs: slots sharing an index.
        let mut best: Option<(usize, usize, usize)> = None; // (rank, a, b)
        let mut index_holders: BTreeMap<IndexId, Vec<usize>> = BTreeMap::new();
        for &s in &live {
            for &i in sets[s].as_ref().expect("live") {
                index_holders.entry(i).or_default().push(s);
            }
        }
        for holders in index_holders.values() {
            for (x, &a) in holders.iter().enumerate() {
                for &b in &holders[x + 1..] {
                    let sa = sets[a].as_ref().expect("live");
                    let sb = sets[b].as_ref().expect("live");
                    let union: BTreeSet<IndexId> = sa.union(sb).copied().collect();
                    let out_rank = union
                        .iter()
                        .filter(|&&i| {
                            let residual = occ[&i]
                                - usize::from(sa.contains(&i))
                                - usize::from(sb.contains(&i));
                            residual > 0 || network.is_open(i)
                        })
                        .count();
                    if best.is_none_or(|(r, ba, bb)| (out_rank, a, b) < (r, ba, bb)) {
                        best = Some((out_rank, a, b));
                    }
                }
            }
        }
        let (a, b) = match best {
            Some((_, a, b)) => (a, b),
            None => {
                // Disconnected: merge the two smallest-rank slots.
                let mut by_rank: Vec<usize> = live.iter().copied().collect();
                by_rank.sort_by_key(|&s| sets[s].as_ref().expect("live").len());
                (by_rank[0], by_rank[1])
            }
        };
        let sa = sets[a].take().expect("live");
        let sb = sets[b].take().expect("live");
        live.remove(&a);
        live.remove(&b);
        let mut out = BTreeSet::new();
        for &i in sa.union(&sb) {
            let count = occ[&i] - usize::from(sa.contains(&i)) - usize::from(sb.contains(&i));
            if count == 0 && !network.is_open(i) {
                occ.remove(&i);
            } else {
                out.insert(i);
                occ.insert(i, count + 1);
            }
        }
        let result = sets.len();
        sets.push(Some(out));
        live.insert(result);
        merges.push((a, b));
    }
    merges
}

/// Index-elimination order from a tree decomposition of the line graph:
/// eliminating index `v` merges all live slots containing `v`.
fn elimination_merges(network: &TensorNetwork, heuristic: Heuristic) -> Vec<(usize, usize)> {
    let n = network.tensors().len();
    if n <= 1 {
        return Vec::new();
    }
    let graph = LineGraph::from_cliques(
        network
            .tensors()
            .iter()
            .map(|t| t.indices().to_vec())
            .collect::<Vec<_>>(),
    );
    let td = eliminate(&graph, heuristic);

    let mut sets: Vec<Option<BTreeSet<IndexId>>> = network
        .tensors()
        .iter()
        .map(|t| Some(t.indices().iter().copied().collect()))
        .collect();
    let mut merges = Vec::new();
    for &v in &td.order {
        if network.is_open(v) {
            continue; // open indices are never eliminated
        }
        let holders: Vec<usize> = (0..sets.len())
            .filter(|&s| sets[s].as_ref().is_some_and(|set| set.contains(&v)))
            .collect();
        if holders.len() < 2 {
            continue;
        }
        let mut acc = holders[0];
        for &next in &holders[1..] {
            let sa = sets[acc].take().expect("live");
            let sb = sets[next].take().expect("live");
            let union: BTreeSet<IndexId> = sa.union(&sb).copied().collect();
            merges.push((acc, next));
            acc = sets.len();
            sets.push(Some(union));
        }
    }
    // Fold any remaining live slots (disconnected pieces / leftovers).
    let mut live: Vec<usize> = (0..sets.len()).filter(|&s| sets[s].is_some()).collect();
    while live.len() > 1 {
        let a = live[0];
        let b = live[1];
        let sa = sets[a].take().expect("live");
        let sb = sets[b].take().expect("live");
        merges.push((a, b));
        sets.push(Some(sa.union(&sb).copied().collect()));
        live = (0..sets.len()).filter(|&s| sets[s].is_some()).collect();
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use qaec_math::{Matrix, C64};

    fn wire_chain(n: usize) -> TensorNetwork {
        // H_0 · H_1 · ... · H_{n-1} as a chain, traced: index i connects
        // tensor i-1 out to tensor i in; index n-1 wraps to 0.
        let h = {
            let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
            Matrix::from_rows(&[vec![s, s], vec![s, -s]])
        };
        let mut net = TensorNetwork::new();
        for k in 0..n {
            let input = IndexId(k as u32);
            let output = IndexId(((k + 1) % n) as u32);
            net.add(Tensor::from_matrix(&h, &[output], &[input]));
        }
        net
    }

    #[test]
    fn all_strategies_agree_on_trace_of_h_chain() {
        // tr(H^4) = tr(I⊗... for 2x2: H² = I so tr(H⁴) = tr(I) = 2.
        for strategy in [
            Strategy::Sequential,
            Strategy::GreedySize,
            Strategy::MinDegree,
            Strategy::MinFill,
        ] {
            let net = wire_chain(4);
            let plan = net.plan(strategy);
            let out = net.contract_dense(&plan);
            let v = out.as_scalar().expect("scalar");
            assert!((v - C64::real(2.0)).abs() < 1e-12, "{strategy:?} gave {v}");
        }
    }

    #[test]
    fn odd_chain_traces_h() {
        // tr(H³) = tr(H) = 0... H³ = H. tr(H) = 0? H trace = 1/√2 − 1/√2 = 0.
        let net = wire_chain(3);
        let plan = net.plan(Strategy::MinFill);
        let out = net.contract_dense(&plan);
        assert!(out.as_scalar().unwrap().abs() < 1e-12);
    }

    #[test]
    fn single_tensor_network_sums_out() {
        // One identity tensor with both indices closed: tr(I) = 2.
        let mut net = TensorNetwork::new();
        net.add(Tensor::delta(IndexId(0), IndexId(1)));
        let plan = net.plan(Strategy::Sequential);
        assert_eq!(plan.steps.len(), 1);
        assert!(matches!(plan.steps[0], PlanStep::SumOut { .. }));
        let out = net.contract_dense(&plan);
        assert_eq!(out.as_scalar().unwrap(), C64::real(2.0));
    }

    #[test]
    fn open_indices_survive() {
        let h = {
            let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
            Matrix::from_rows(&[vec![s, s], vec![s, -s]])
        };
        let mut net = TensorNetwork::new();
        net.add(Tensor::from_matrix(&h, &[IndexId(1)], &[IndexId(0)]));
        net.add(Tensor::from_matrix(&h, &[IndexId(2)], &[IndexId(1)]));
        net.mark_open(IndexId(0));
        net.mark_open(IndexId(2));
        let plan = net.plan(Strategy::GreedySize);
        let out = net.contract_dense(&plan);
        // H·H = I with open ends.
        assert_eq!(out.rank(), 2);
        let expected = Tensor::from_matrix(&Matrix::identity(2), &[IndexId(2)], &[IndexId(0)]);
        let expected = expected.permute_to(out.indices());
        assert!(out.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn free_loops_counted() {
        let mut net = TensorNetwork::new();
        net.add(Tensor::delta(IndexId(0), IndexId(1)));
        net.close_index(IndexId(7)); // a bare wire loop touching nothing
        let plan = net.plan(Strategy::Sequential);
        assert_eq!(plan.free_loops, 1);
    }

    #[test]
    fn cost_tracks_max_rank() {
        let net = wire_chain(6);
        let plan = net.plan(Strategy::MinFill);
        let cost = plan.cost(&net);
        assert!(cost.max_rank <= 2, "chain should stay rank ≤ 2");
        assert!(cost.dense_ops > 0.0);
        // Sequential on a closed chain keeps the wrap-around index open
        // until the very end → same bound here.
        let seq = net.plan(Strategy::Sequential).cost(&net);
        assert!(seq.max_rank <= 2);
    }

    #[test]
    fn empty_network_plan() {
        let net = TensorNetwork::new();
        let plan = net.plan(Strategy::MinDegree);
        assert!(plan.steps.is_empty());
        let graph = plan.graph(&net);
        assert_eq!(graph.root_slot, None);
        assert!(graph.initial_ready().is_empty());
    }

    #[test]
    fn graph_is_a_consistent_dag() {
        for strategy in [
            Strategy::Sequential,
            Strategy::GreedySize,
            Strategy::MinDegree,
            Strategy::MinFill,
        ] {
            let net = wire_chain(6);
            let plan = net.plan(strategy);
            let graph = plan.graph(&net);
            assert_eq!(graph.operands.len(), plan.steps.len());
            assert_eq!(graph.indegree.len(), plan.steps.len());
            // Dependencies only point backwards; dependents forwards.
            for (i, deps) in graph.operands.iter().enumerate() {
                for &d in deps {
                    assert!(d < i, "{strategy:?}: dep {d} not before step {i}");
                    assert!(graph.dependents[d].contains(&i));
                }
            }
            // Executing in ready order covers every step exactly once.
            let mut indegree = graph.indegree.clone();
            let mut ready: Vec<usize> = graph.initial_ready();
            assert!(!ready.is_empty(), "{strategy:?}: no runnable step");
            let mut done = 0usize;
            while let Some(step) = ready.pop() {
                done += 1;
                for &d in &graph.dependents[step] {
                    indegree[d] -= 1;
                    if indegree[d] == 0 {
                        ready.push(d);
                    }
                }
            }
            assert_eq!(done, plan.steps.len(), "{strategy:?}: DAG not covered");
            // The root slot is the one the sequential executor would
            // pick: highest live slot after all steps ran.
            let root = graph.root_slot.expect("non-empty network has a root");
            assert_eq!(root, plan.steps.last().expect("steps").result());
            assert!(graph.unconsumed_inputs.is_empty());
        }
    }

    #[test]
    fn graph_priorities_are_critical_path_monotone() {
        let net = wire_chain(8);
        let plan = net.plan(Strategy::MinFill);
        let graph = plan.graph(&net);
        // A step's priority strictly exceeds every dependent's: it must
        // run earlier on the critical path.
        for (i, deps) in graph.dependents.iter().enumerate() {
            for &d in deps {
                assert!(
                    graph.priority[i] > graph.priority[d],
                    "step {i} priority {} not above dependent {d} ({})",
                    graph.priority[i],
                    graph.priority[d]
                );
            }
        }
    }

    /// `k` disjoint traced H-chains of length `len`: value = 2^k for
    /// even `len` (H² = I), with indices offset so chains share nothing.
    fn disconnected_chains(k: usize, len: usize) -> TensorNetwork {
        let h = {
            let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
            Matrix::from_rows(&[vec![s, s], vec![s, -s]])
        };
        let mut net = TensorNetwork::new();
        for chain in 0..k {
            let offset = (chain * len) as u32;
            for t in 0..len {
                let input = IndexId(offset + t as u32);
                let output = IndexId(offset + ((t + 1) % len) as u32);
                net.add(Tensor::from_matrix(&h, &[output], &[input]));
            }
        }
        net
    }

    #[test]
    fn components_are_detected_deterministically() {
        let net = disconnected_chains(3, 4);
        let components = connected_components(&net);
        assert_eq!(components.len(), 3);
        assert_eq!(components[0], vec![0, 1, 2, 3]);
        assert_eq!(components[2], vec![8, 9, 10, 11]);
        // A connected chain is one component.
        let connected = wire_chain(5);
        assert_eq!(connected_components(&connected).len(), 1);
        // The empty network has none.
        assert!(connected_components(&TensorNetwork::new()).is_empty());
    }

    #[test]
    fn stitched_plan_is_worker_independent_and_correct() {
        for strategy in [Strategy::MinFill, Strategy::GreedySize] {
            let net = disconnected_chains(4, 4);
            let reference = net.plan_parallel(strategy, 1);
            for workers in [2usize, 4, 8] {
                let plan = net.plan_parallel(strategy, workers);
                assert_eq!(
                    plan.steps, reference.steps,
                    "{strategy:?} workers={workers}: plan must not depend on workers"
                );
                assert_eq!(plan.n_slots, reference.n_slots);
            }
            // tr over 4 chains of H⁴ = I: 2⁴ = 16.
            let out = net.contract_dense(&reference);
            assert!(
                (out.as_scalar().unwrap() - C64::real(16.0)).abs() < 1e-12,
                "{strategy:?}"
            );
            // The stitched plan is a valid DAG with one root.
            let graph = reference.graph(&net);
            assert!(graph.root_slot.is_some());
            assert!(graph.unconsumed_inputs.is_empty());
        }
    }

    #[test]
    fn stitched_plan_handles_stepless_and_free_loop_components() {
        // One fully-open tensor (stepless component), one closed delta
        // pair, plus a bare closed loop (free_loops).
        let mut net = TensorNetwork::new();
        net.add(Tensor::delta(IndexId(0), IndexId(1)));
        net.mark_open(IndexId(0));
        net.mark_open(IndexId(1));
        net.add(Tensor::delta(IndexId(2), IndexId(3)));
        net.add(Tensor::delta(IndexId(3), IndexId(2)));
        net.close_index(IndexId(9));
        let plan = net.plan_parallel(Strategy::MinFill, 4);
        assert_eq!(plan.free_loops, 1);
        let out = net.contract_dense(&plan);
        // Open identity ⊗ tr(I)=2 × loop 2 → rank-2 tensor scaled by 4.
        assert_eq!(out.rank(), 2);
        let expected = Tensor::delta(IndexId(0), IndexId(1)).scale(C64::real(4.0));
        assert!(out.approx_eq(&expected.permute_to(out.indices()), 1e-12));
    }

    #[test]
    fn connected_networks_fall_back_to_the_plain_plan() {
        let net = wire_chain(6);
        let plain = net.plan(Strategy::MinFill);
        let parallel = net.plan_parallel(Strategy::MinFill, 4);
        assert_eq!(plain.steps, parallel.steps);
    }

    #[test]
    fn build_count_counts_top_level_builds_once() {
        let net = disconnected_chains(3, 4);
        let before = build_count();
        let _ = net.plan_parallel(Strategy::MinFill, 4);
        let mid = build_count();
        let _ = net.plan(Strategy::MinFill);
        let after = build_count();
        // Other tests build plans concurrently in this process, so the
        // deltas are lower bounds — but a *stitched* build incrementing
        // once per component would show up here as a jump of 3+.
        assert!(mid > before);
        assert!(after > mid);
    }

    #[test]
    fn graph_tracks_unconsumed_single_input() {
        // A single-tensor network whose only step is a SumOut consumes
        // the input; a no-step plan leaves it unconsumed as the root.
        let mut net = TensorNetwork::new();
        net.add(Tensor::delta(IndexId(0), IndexId(1)));
        net.mark_open(IndexId(0));
        net.mark_open(IndexId(1));
        let plan = net.plan(Strategy::Sequential);
        assert!(plan.steps.is_empty(), "fully open tensor needs no step");
        let graph = plan.graph(&net);
        assert_eq!(graph.root_slot, Some(0));
        assert_eq!(graph.unconsumed_inputs, vec![0]);
    }
}
