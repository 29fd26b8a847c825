//! Contraction planning.
//!
//! A [`ContractionPlan`] is a deterministic sequence of pairwise
//! contractions (plus a final sum-out) that reduces a network to a single
//! tensor over its open indices. Plans are computed once and can then be
//! executed by either backend — dense ([`crate::TensorNetwork::contract_dense`])
//! or decision diagrams (`qaec-tdd`).

use crate::elimination::{dense_elimination_order, dense_id, Heuristic, LineGraph};
use crate::index::IndexId;
use crate::network::TensorNetwork;
use crate::tensor::Tensor;
use std::collections::VecDeque;
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
        let skeleton = Skeleton::of(network, network.tensors());
        ContractionPlan {
            free_loops: skeleton.free_loops(network),
            ..skeleton.plan(strategy)
        }
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
        // ordering: Relaxed — statistics counter (see `build_count`).
        PLAN_BUILDS.fetch_add(1, Ordering::Relaxed);
        let whole = Skeleton::of(network, network.tensors());
        let components = whole.components();
        let plan = if components.len() <= 1 {
            whole.plan(strategy)
        } else {
            // Per-component skeletons: the component's tensors, in global
            // slot order. Closed-but-untouched indices stay a global
            // concern (free loops, counted from `whole`).
            let skeletons: Vec<Skeleton> = components
                .iter()
                .map(|slots| Skeleton::of(network, slots.iter().map(|&s| &network.tensors()[s])))
                .collect();
            let sub_plans = plan_all(&skeletons, strategy, workers);
            stitch_component_plans(network.tensors().len(), &components, sub_plans)
        };
        ContractionPlan {
            free_loops: whole.free_loops(network),
            ..plan
        }
    }

    /// A stable 64-bit content hash of the plan (FNV-1a over each step's
    /// kind, operand and result slots and `eliminate` list, then
    /// `n_slots` and `free_loops`). Equal digests mean the same
    /// contraction, step for step; the golden-plan tests pin them.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| {
            for byte in w.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for step in &self.steps {
            let (kind, operands, eliminate, result): (u64, &[usize], _, _) = match step {
                PlanStep::Contract {
                    a,
                    b,
                    eliminate,
                    result,
                } => (0, &[*a, *b], eliminate, *result),
                PlanStep::SumOut {
                    t,
                    eliminate,
                    result,
                } => (1, std::slice::from_ref(t), eliminate, *result),
            };
            word(kind);
            operands.iter().for_each(|&s| word(s as u64));
            word(result as u64);
            word(eliminate.len() as u64);
            eliminate.iter().for_each(|i| word(u64::from(i.0)));
        }
        word(self.n_slots as u64);
        word(u64::from(self.free_loops));
        hash
    }

    /// Cost estimates given the index sets of the original tensors.
    pub fn cost(&self, network: &TensorNetwork) -> PlanCost {
        let mut cost = PlanCost::default();
        for (step, (union, out)) in self.steps.iter().zip(self.step_ranks(network)) {
            cost.dense_ops += (union as f64).exp2();
            if matches!(step, PlanStep::Contract { .. }) {
                cost.max_rank = cost.max_rank.max(out);
            }
        }
        cost
    }

    /// Replays the plan over the tensors' sorted index sets: per step,
    /// the rank of its operands' union and of its result.
    fn step_ranks(&self, network: &TensorNetwork) -> Vec<(usize, usize)> {
        let mut sets: Vec<Option<Vec<IndexId>>> = network
            .tensors()
            .iter()
            .map(|t| {
                let mut set = t.indices().to_vec();
                set.sort_unstable();
                Some(set)
            })
            .collect();
        sets.resize(self.n_slots.max(sets.len()), None);
        let mut ranks = Vec::with_capacity(self.steps.len());
        for step in &self.steps {
            let (union, eliminate, result) = match step {
                PlanStep::Contract {
                    a,
                    b,
                    eliminate,
                    result,
                } => {
                    let sa = sets[*a].take().expect("operand a live");
                    let sb = sets[*b].take().expect("operand b live");
                    let mut union = Vec::with_capacity(sa.len() + sb.len());
                    merge_walk(&sa, &sb, |i, _, _| union.push(i));
                    (union, eliminate, *result)
                }
                PlanStep::SumOut {
                    t,
                    eliminate,
                    result,
                } => (sets[*t].take().expect("operand live"), eliminate, *result),
            };
            let rank = union.len();
            let out: Vec<IndexId> = union
                .into_iter()
                .filter(|i| !eliminate.contains(i))
                .collect();
            ranks.push((rank, out.len()));
            sets[result] = Some(out);
        }
        ranks
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

        // Critical-path priority: own dense cost estimate (2^{union
        // rank}) plus the heaviest dependent chain. Steps are stored in
        // topological order (results occupy fresh, increasing slots), so
        // one reverse pass suffices.
        let mut priority: Vec<f64> = self
            .step_ranks(network)
            .into_iter()
            .map(|(union, _)| (union as f64).exp2())
            .collect();
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

/// Walks two ascending, duplicate-free slices in step, calling
/// `f(item, in_a, in_b)` on each item of their union in ascending order.
fn merge_walk<T: Ord + Copy>(a: &[T], b: &[T], mut f: impl FnMut(T, bool, bool)) {
    let (mut i, mut j) = (0, 0);
    loop {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                f(x, true, true);
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                f(x, true, false);
                i += 1;
            }
            (Some(&x), None) => {
                f(x, true, false);
                i += 1;
            }
            (_, Some(&y)) => {
                f(y, false, true);
                j += 1;
            }
            (None, None) => return,
        }
    }
}

/// What planning reads of a network: each tensor's index set as sorted
/// dense vertex ids (vertex `k` is the `k`-th smallest index id on a
/// tensor, so dense order is id order) and which vertices are open.
struct Skeleton {
    /// The index id of each vertex, ascending.
    ids: Vec<IndexId>,
    /// Per tensor, its vertices, ascending.
    sets: Vec<Vec<u32>>,
    /// Per vertex, whether the index is open.
    open: Vec<bool>,
}

impl Skeleton {
    /// The skeleton of `tensors`, with open marks from `network`.
    fn of<'a>(
        network: &TensorNetwork,
        tensors: impl IntoIterator<Item = &'a Tensor, IntoIter: Clone>,
    ) -> Skeleton {
        let tensors = tensors.into_iter();
        let mut ids: Vec<IndexId> = tensors
            .clone()
            .flat_map(|t| t.indices().iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let sets = tensors
            .map(|t| {
                let mut set: Vec<u32> = t.indices().iter().map(|&i| dense_id(&ids, i)).collect();
                set.sort_unstable();
                set
            })
            .collect();
        let open = ids.iter().map(|&i| network.is_open(i)).collect();
        Skeleton { ids, sets, open }
    }

    /// Closed indices of `network` that touch no tensor of the skeleton
    /// (bare wire loops, each a factor 2).
    fn free_loops(&self, network: &TensorNetwork) -> u32 {
        network
            .closed_indices()
            .iter()
            .filter(|i| self.ids.binary_search(i).is_err())
            .count() as u32
    }

    /// Plans the skeleton's tensors (`free_loops` left at 0).
    fn plan(&self, strategy: Strategy) -> ContractionPlan {
        let merges = match strategy {
            Strategy::Sequential => sequential_merges(self.sets.len()),
            Strategy::GreedySize => greedy_merges(self),
            Strategy::MinDegree => elimination_merges(self, Heuristic::MinDegree),
            Strategy::MinFill => elimination_merges(self, Heuristic::MinFill),
        };
        from_merges(self, &merges)
    }

    /// Groups tensor slots into connected components (tensors sharing an
    /// index are connected), each sorted ascending, components ordered by
    /// their smallest slot — a deterministic decomposition.
    fn components(&self) -> Vec<Vec<usize>> {
        let n = self.sets.len();
        let mut parent: Vec<usize> = (0..n).collect();
        // The first slot holding each vertex.
        let mut first = vec![usize::MAX; self.ids.len()];
        for (slot, set) in self.sets.iter().enumerate() {
            for &v in set {
                match first[v as usize] {
                    usize::MAX => first[v as usize] = slot,
                    holder => {
                        let (a, b) = (find(&mut parent, holder), find(&mut parent, slot));
                        // Union toward the smaller root so representatives
                        // stay the component's first slot.
                        parent[a.max(b)] = a.min(b);
                    }
                }
            }
        }
        let mut components: Vec<Vec<usize>> = Vec::new();
        let mut component_of = vec![usize::MAX; n];
        for slot in 0..n {
            let root = find(&mut parent, slot);
            if root == slot {
                component_of[root] = components.len();
                components.push(Vec::new());
            }
            components[component_of[root]].push(slot);
        }
        components
    }
}

/// The union-find root of `x`, halving paths on the way.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Plans every skeleton, concurrently on up to `workers` threads when
/// there is more than one; plans come back in skeleton order, so the
/// result does not depend on scheduling.
fn plan_all(skeletons: &[Skeleton], strategy: Strategy, workers: usize) -> Vec<ContractionPlan> {
    let workers = workers.max(1).min(skeletons.len());
    if workers <= 1 {
        return skeletons.iter().map(|s| s.plan(strategy)).collect();
    }
    // Work-stealing off a shared cursor; each worker returns its
    // `(component, plan)` haul and the hauls are re-assembled in
    // component order.
    let next = AtomicU64::new(0);
    let mut plans: Vec<Option<ContractionPlan>> = vec![None; skeletons.len()];
    let hauls: Vec<Vec<(usize, ContractionPlan)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut haul = Vec::new();
                    loop {
                        // ordering: Relaxed — the RMW's atomicity alone
                        // partitions the component range; result
                        // publication happens through scope join, not
                        // through this cursor.
                        let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(skeleton) = skeletons.get(k) else {
                            break;
                        };
                        haul.push((k, skeleton.plan(strategy)));
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
}

/// Stitches independently-built component plans into one plan over the
/// full network (`free_loops` left at 0): remaps each sub-plan's slots
/// (inputs to the component's global tensor slots, results to fresh
/// global slots in emission order), then folds the component results
/// pairwise. Components share no indices, so the folds eliminate nothing
/// — for closed networks they multiply the component scalars.
fn stitch_component_plans(
    n_inputs: usize,
    components: &[Vec<usize>],
    sub_plans: Vec<ContractionPlan>,
) -> ContractionPlan {
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

    ContractionPlan {
        steps,
        n_slots: next_slot,
        free_loops: 0,
    }
}

/// Reference-counted merge lowering: turns a sequence of slot merges into
/// concrete steps with per-step eliminations (`free_loops` left at 0).
/// An index is summed out by the merge that consumes its last other
/// holder, unless it is open.
fn from_merges(skeleton: &Skeleton, merges: &[(usize, usize)]) -> ContractionPlan {
    let n = skeleton.sets.len();
    let mut sets: Vec<Option<Vec<u32>>> = skeleton.sets.iter().cloned().map(Some).collect();
    // Occurrence count per vertex over live slots.
    let mut occ = vec![0usize; skeleton.ids.len()];
    for &v in skeleton.sets.iter().flatten() {
        occ[v as usize] += 1;
    }

    let mut steps = Vec::with_capacity(merges.len() + 1);
    let mut next_slot = n;
    for &(a, b) in merges {
        let sa = sets[a]
            .take()
            .unwrap_or_else(|| panic!("slot {a} not live"));
        let sb = sets[b]
            .take()
            .unwrap_or_else(|| panic!("slot {b} not live"));
        let mut eliminate = Vec::new();
        let mut out = Vec::with_capacity(sa.len() + sb.len());
        merge_walk(&sa, &sb, |v, in_a, in_b| {
            let count = &mut occ[v as usize];
            *count -= usize::from(in_a) + usize::from(in_b);
            if *count == 0 && !skeleton.open[v as usize] {
                eliminate.push(skeleton.ids[v as usize]);
            } else {
                out.push(v);
                *count += 1;
            }
        });
        sets.push(Some(out));
        steps.push(PlanStep::Contract {
            a,
            b,
            eliminate,
            result: next_slot,
        });
        next_slot += 1;
    }

    // Close the final tensor: sum out any remaining non-open indices.
    if let Some(last) = (0..sets.len()).rev().find(|&i| sets[i].is_some()) {
        let remaining: Vec<IndexId> = sets[last]
            .as_ref()
            .expect("live")
            .iter()
            .filter(|&&v| !skeleton.open[v as usize])
            .map(|&v| skeleton.ids[v as usize])
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
        free_loops: 0,
    }
}

/// Left-to-right fold of `n` tensors.
fn sequential_merges(n: usize) -> Vec<(usize, usize)> {
    let mut acc = 0usize;
    (1..n)
        .map(|t| {
            let merge = (acc, t);
            acc = n + t - 1;
            merge
        })
        .collect()
}

/// Greedy: repeatedly contract the pair of live, index-sharing slots whose
/// result has minimal rank (ties to the smaller slot pair); falls back to
/// the two smallest slots when no live slots share an index.
fn greedy_merges(skeleton: &Skeleton) -> Vec<(usize, usize)> {
    let n = skeleton.sets.len();
    let mut sets: Vec<Option<Vec<u32>>> = skeleton.sets.iter().cloned().map(Some).collect();
    let mut occ = vec![0usize; skeleton.ids.len()];
    for &v in skeleton.sets.iter().flatten() {
        occ[v as usize] += 1;
    }
    let mut merges = Vec::with_capacity(n.saturating_sub(1));
    let mut live: Vec<usize> = (0..n).collect();
    // `(vertex, slot)` for every vertex of every live slot.
    let mut holders: Vec<(u32, usize)> = Vec::new();
    while live.len() > 1 {
        holders.clear();
        for &s in &live {
            holders.extend(sets[s].as_ref().expect("live").iter().map(|&v| (v, s)));
        }
        holders.sort_unstable();
        let mut best: Option<(usize, usize, usize)> = None; // (rank, a, b)
        for group in holders.chunk_by(|x, y| x.0 == y.0) {
            for (x, &(_, a)) in group.iter().enumerate() {
                for &(_, b) in &group[x + 1..] {
                    let sa = sets[a].as_deref().expect("live");
                    let sb = sets[b].as_deref().expect("live");
                    let mut out_rank = 0;
                    merge_walk(sa, sb, |v, in_a, in_b| {
                        let residual = occ[v as usize] - usize::from(in_a) - usize::from(in_b);
                        if residual > 0 || skeleton.open[v as usize] {
                            out_rank += 1;
                        }
                    });
                    if best.is_none_or(|old| (out_rank, a, b) < old) {
                        best = Some((out_rank, a, b));
                    }
                }
            }
        }
        let (a, b) = match best {
            Some((_, a, b)) => (a, b),
            None => {
                // Disconnected: merge the two smallest-rank slots.
                let mut by_rank = live.clone();
                by_rank.sort_by_key(|&s| sets[s].as_ref().expect("live").len());
                (by_rank[0], by_rank[1])
            }
        };
        let sa = sets[a].take().expect("live");
        let sb = sets[b].take().expect("live");
        live.retain(|&s| s != a && s != b);
        let mut out = Vec::with_capacity(sa.len() + sb.len());
        merge_walk(&sa, &sb, |v, in_a, in_b| {
            let count = &mut occ[v as usize];
            *count -= usize::from(in_a) + usize::from(in_b);
            if *count > 0 || skeleton.open[v as usize] {
                out.push(v);
                *count += 1;
            }
        });
        live.push(sets.len());
        sets.push(Some(out));
        merges.push((a, b));
    }
    merges
}

/// Index-elimination order from a tree decomposition of the line graph:
/// eliminating index `v` merges all live slots holding `v`, in ascending
/// slot order. A slot holds `v` when one of its tensors does, so the
/// live slots are tracked as union-find groups of tensors and each
/// index's holders come from its fixed list of tensors. Slots still live
/// at the end (disconnected pieces) are merged pairwise, front to back.
fn elimination_merges(skeleton: &Skeleton, heuristic: Heuristic) -> Vec<(usize, usize)> {
    let n = skeleton.sets.len();
    if n <= 1 {
        return Vec::new();
    }
    let graph = LineGraph::from_dense_cliques(
        skeleton.ids.clone(),
        skeleton.sets.iter().map(Vec::as_slice),
    );
    let order = dense_elimination_order(&graph, heuristic);

    // The tensors holding each vertex, ascending.
    let mut tensors_of: Vec<Vec<usize>> = vec![Vec::new(); skeleton.ids.len()];
    for (t, set) in skeleton.sets.iter().enumerate() {
        for &v in set {
            tensors_of[v as usize].push(t);
        }
    }
    // Union-find over tensors; `slot_of[root]` is the live slot holding
    // the root's group.
    let mut parent: Vec<usize> = (0..n).collect();
    let mut slot_of: Vec<usize> = (0..n).collect();
    let mut next_slot = n;
    let mut merges = Vec::new();
    let mut holders: Vec<(usize, usize)> = Vec::new(); // (slot, root)
    for v in order {
        if skeleton.open[v as usize] {
            continue; // open indices are never eliminated
        }
        holders.clear();
        for &t in &tensors_of[v as usize] {
            let root = find(&mut parent, t);
            holders.push((slot_of[root], root));
        }
        holders.sort_unstable();
        holders.dedup();
        let Some((&(mut acc, acc_root), rest)) = holders.split_first() else {
            continue;
        };
        for &(slot, root) in rest {
            merges.push((acc, slot));
            parent[root] = acc_root;
            acc = next_slot;
            next_slot += 1;
        }
        slot_of[acc_root] = acc;
    }
    // Fold any remaining live slots (disconnected pieces / leftovers).
    let mut live: Vec<usize> = (0..n)
        .filter(|&t| find(&mut parent, t) == t)
        .map(|root| slot_of[root])
        .collect();
    live.sort_unstable();
    let mut live: VecDeque<usize> = live.into();
    while let (Some(a), Some(b)) = (live.pop_front(), live.pop_front()) {
        merges.push((a, b));
        live.push_back(next_slot);
        next_slot += 1;
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
        let components = |net: &TensorNetwork| Skeleton::of(net, net.tensors()).components();
        let chains = components(&disconnected_chains(3, 4));
        assert_eq!(chains.len(), 3);
        assert_eq!(chains[0], vec![0, 1, 2, 3]);
        assert_eq!(chains[2], vec![8, 9, 10, 11]);
        // A connected chain is one component.
        assert_eq!(components(&wire_chain(5)).len(), 1);
        // The empty network has none.
        assert!(components(&TensorNetwork::new()).is_empty());
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

    /// A seeded random circuit-shaped network: gates of arity 1–3 on
    /// `wires` wires with sparse index ids, read-only taps that put one
    /// index on three or more tensors, scalar tensors, wires left open
    /// or closed by a delta, and a bare closed loop. Gates only span
    /// wires of the same group on some seeds, so those networks split
    /// into components and `plan_parallel` stitches.
    fn random_network(seed: u64) -> TensorNetwork {
        let mut state = seed;
        let mut next = move |bound: u64| crate::splitmix(&mut state, bound);
        let wires = 3 + next(6) as usize;
        let groups = 1 + next(3) as usize;
        let mut id = 0u32;
        let mut fresh = |next: &mut dyn FnMut(u64) -> u64| {
            id += 1 + next(3) as u32;
            IndexId(id)
        };
        let tensor = |indices: Vec<IndexId>| {
            let len = 1usize << indices.len();
            Tensor::from_flat(indices, vec![C64::ZERO; len])
        };
        let input: Vec<IndexId> = (0..wires).map(|_| fresh(&mut next)).collect();
        let mut current = input.clone();
        let mut net = TensorNetwork::new();
        for _ in 0..10 + next(30) {
            let first = next(wires as u64) as usize;
            let group: Vec<usize> = (0..wires)
                .filter(|q| q % groups == first % groups)
                .collect();
            let mut qubits = vec![first];
            for _ in 0..next(3) {
                let q = group[next(group.len() as u64) as usize];
                if !qubits.contains(&q) {
                    qubits.push(q);
                }
            }
            match next(8) {
                0 => {
                    net.add(tensor(qubits.iter().map(|&q| current[q]).collect()));
                }
                1 => {
                    net.add(Tensor::scalar(C64::ONE));
                }
                _ => {
                    let mut indices: Vec<IndexId> = qubits.iter().map(|&q| current[q]).collect();
                    for &q in &qubits {
                        current[q] = fresh(&mut next);
                        indices.push(current[q]);
                    }
                    net.add(tensor(indices));
                }
            }
        }
        for q in 0..wires {
            if next(4) == 0 {
                net.mark_open(input[q]);
                net.mark_open(current[q]);
            } else if current[q] == input[q] {
                net.close_index(input[q]);
            } else {
                net.add(Tensor::delta(current[q], input[q]));
            }
        }
        net.close_index(fresh(&mut next));
        net
    }

    /// `(seed/strategy/method, digest)` of every plan the golden test
    /// builds, in its order.
    const GOLDEN: &[(&str, u64)] = &[
        ("0/Sequential/plan", 0x548a08f2317714aa),
        ("0/Sequential/parallel", 0xb2833ec2294c374a),
        ("0/GreedySize/plan", 0xf91007063b68c268),
        ("0/GreedySize/parallel", 0xc9a43b0b746ad1e8),
        ("0/MinDegree/plan", 0x0225174402fcdda8),
        ("0/MinDegree/parallel", 0x6622735996159528),
        ("0/MinFill/plan", 0xba451e5be1bf0e2e),
        ("0/MinFill/parallel", 0x4644d2307e26e22e),
        ("1/Sequential/plan", 0x12c532a4972e5a85),
        ("1/Sequential/parallel", 0x010345e843f85fe5),
        ("1/GreedySize/plan", 0x08a3115eb133a4c5),
        ("1/GreedySize/parallel", 0x62b300a813878b45),
        ("1/MinDegree/plan", 0x082d2abb694f7281),
        ("1/MinDegree/parallel", 0xe3cb303308f39821),
        ("1/MinFill/plan", 0x0a4b6435b870246b),
        ("1/MinFill/parallel", 0xf226e19834f98e0b),
        ("2/Sequential/plan", 0x06fd1f60dfe9c898),
        ("2/Sequential/parallel", 0x593fa322d3250cc7),
        ("2/GreedySize/plan", 0xa7d43f8d42349058),
        ("2/GreedySize/parallel", 0xffab24f9269e96c7),
        ("2/MinDegree/plan", 0xa2982b95c5603e7a),
        ("2/MinDegree/parallel", 0xeea4f8f37c339f65),
        ("2/MinFill/plan", 0x6352188bfa52327a),
        ("2/MinFill/parallel", 0xb6b423291f1f9365),
        ("3/Sequential/plan", 0xbc3f6f710131c10e),
        ("3/Sequential/parallel", 0x1531ca3dfc85168e),
        ("3/GreedySize/plan", 0x28b2a541b46d4c0a),
        ("3/GreedySize/parallel", 0xd6a539345899ddaa),
        ("3/MinDegree/plan", 0xd34dff5b08ddb96e),
        ("3/MinDegree/parallel", 0x6ae947661896e98e),
        ("3/MinFill/plan", 0x1af55ecc845935ea),
        ("3/MinFill/parallel", 0x109de066b1ad190a),
        ("4/Sequential/plan", 0x1a4343417806541b),
        ("4/Sequential/parallel", 0xbd9b2bb89130a7db),
        ("4/GreedySize/plan", 0x085e3ace51bd591f),
        ("4/GreedySize/parallel", 0x06d826e7820da09f),
        ("4/MinDegree/plan", 0x7ad81dc468d90e99),
        ("4/MinDegree/parallel", 0x07ef0361e8ab90f9),
        ("4/MinFill/plan", 0xb95c74c939fc82bf),
        ("4/MinFill/parallel", 0xd8a862d2aec9639f),
        ("5/Sequential/plan", 0xf638a2a14e134b73),
        ("5/Sequential/parallel", 0xfa286a9d0a9d7633),
        ("5/GreedySize/plan", 0x4f1e19470f524b55),
        ("5/GreedySize/parallel", 0x591eb3f36867d375),
        ("5/MinDegree/plan", 0x16eb96d11905d695),
        ("5/MinDegree/parallel", 0xb57fc4fcfed96655),
        ("5/MinFill/plan", 0xaaf780abe75b66b5),
        ("5/MinFill/parallel", 0xb260a58e80852f55),
        ("6/Sequential/plan", 0xf4b071811a181397),
        ("6/Sequential/parallel", 0x4e0c8592f792ca37),
        ("6/GreedySize/plan", 0xbe4c75eae69fe7f7),
        ("6/GreedySize/parallel", 0xe4bedfa8b8c34737),
        ("6/MinDegree/plan", 0xfee6b4a1d20e0a77),
        ("6/MinDegree/parallel", 0x18051699f7e63117),
        ("6/MinFill/plan", 0xf8b672253aa987b5),
        ("6/MinFill/parallel", 0x84d6f6f6ca98f3f5),
        ("7/Sequential/plan", 0x20a2ccb1dd440979),
        ("7/Sequential/parallel", 0x038b6d8f67b3bf99),
        ("7/GreedySize/plan", 0x6ffd7f514590851b),
        ("7/GreedySize/parallel", 0x91859bc5b7bb53fb),
        ("7/MinDegree/plan", 0x43af553d297e41ff),
        ("7/MinDegree/parallel", 0x94d8a6f28344579f),
        ("7/MinFill/plan", 0xe8b7e6a6799c1a1f),
        ("7/MinFill/parallel", 0x655d2f945c5d3fbf),
    ];

    #[test]
    fn random_network_plans_match_the_golden_digests() {
        let mut actual = Vec::new();
        for seed in 0..8u64 {
            let net = random_network(seed);
            for strategy in [
                Strategy::Sequential,
                Strategy::GreedySize,
                Strategy::MinDegree,
                Strategy::MinFill,
            ] {
                let plain = net.plan(strategy);
                let stitched = net.plan_parallel(strategy, 2);
                actual.push((format!("{seed}/{strategy:?}/plan"), plain.digest()));
                actual.push((format!("{seed}/{strategy:?}/parallel"), stitched.digest()));
            }
        }
        let changed: Vec<&str> = actual
            .iter()
            .zip(GOLDEN)
            .filter(|((name, digest), (golden_name, golden))| {
                name != golden_name || digest != golden
            })
            .map(|((name, _), _)| name.as_str())
            .collect();
        let table: String = actual
            .iter()
            .map(|(name, digest)| format!("        (\"{name}\", 0x{digest:016x}),\n"))
            .collect();
        assert!(
            changed.is_empty() && actual.len() == GOLDEN.len(),
            "plans changed for {changed:?}; the digests now are:\n{table}"
        );
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
