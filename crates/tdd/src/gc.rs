//! Mark-compact garbage collection.
//!
//! Long Algorithm I runs create millions of short-lived nodes; this pass
//! keeps the arena bounded. Collection invalidates the computed tables
//! (their keys hold stale node ids), so the driver triggers it only
//! between plan steps and re-registers the live roots.
//!
//! **Scoped stores do not collect.** A [`crate::SharedTddStore`] is
//! append-only (other workers hold live ids into the same arena, so
//! nothing can move or be freed), and both it and an owned store reclaim
//! by [`TddManager::compact`], which migrates weights as well as nodes.
//! For their managers [`collect`] is a documented no-op that returns the
//! roots unchanged; callers can check [`TddManager::supports_gc`] to
//! skip the call entirely.

use crate::fxhash::FxHashMap;
use crate::manager::{Edge, Node, NodeId, TddManager, TERMINAL_VAR};

/// Collects every node unreachable from `roots`, compacting the arena.
///
/// Returns the remapped roots (same order). All previously held [`Edge`]s
/// other than the returned ones become invalid. Weight ids remain valid.
///
/// On a scoped (owned or shared) manager this is a no-op (see the
/// module docs): the roots come back unchanged, still valid, and
/// `gc_runs` does not advance.
///
/// # Example
///
/// ```
/// use qaec_math::C64;
/// use qaec_tdd::{gc, TddManager};
///
/// let mut m = TddManager::new();
/// let keep = {
///     let l = m.terminal(C64::real(1.0));
///     let h = m.terminal(C64::real(2.0));
///     m.make_node(0, l, h)
/// };
/// let _garbage = {
///     let l = m.terminal(C64::real(3.0));
///     let h = m.terminal(C64::real(5.0));
///     m.make_node(1, l, h)
/// };
/// assert_eq!(m.arena_len(), 2);
/// let kept = gc::collect(&mut m, &[keep]);
/// assert_eq!(m.arena_len(), 1);
/// assert_eq!(m.eval(kept[0], &[1]), C64::real(2.0));
/// ```
pub fn collect(m: &mut TddManager, roots: &[Edge]) -> Vec<Edge> {
    if !m.supports_gc() {
        // Scoped stores never move here: every root stays valid as-is.
        return roots.to_vec();
    }
    // Collection is the only event that shrinks a private store mid-run:
    // latch the pre-collection footprint into the high-water mark first.
    m.note_store_peak();
    let store = m.private_mut();

    // Mark.
    let mut live: Vec<bool> = vec![false; store.nodes.len()];
    live[0] = true; // terminal
    let mut stack: Vec<NodeId> = roots.iter().map(|e| e.node).collect();
    while let Some(n) = stack.pop() {
        let slot = n.0 as usize;
        if live[slot] {
            continue;
        }
        live[slot] = true;
        let node = store.nodes[slot];
        stack.push(node.low.node);
        stack.push(node.high.node);
    }

    // Compact: children always live at lower ids than parents (the arena
    // grows bottom-up), so a single forward pass can rewrite child ids.
    let mut remap: Vec<u32> = vec![0; store.nodes.len()];
    let mut new_nodes: Vec<Node> = Vec::with_capacity(store.nodes.len());
    new_nodes.push(Node {
        var: TERMINAL_VAR,
        low: Edge::ZERO,
        high: Edge::ZERO,
    });
    for (old_id, node) in store.nodes.iter().enumerate().skip(1) {
        if !live[old_id] {
            continue;
        }
        let mapped = Node {
            var: node.var,
            low: Edge {
                node: NodeId(remap[node.low.node.0 as usize]),
                weight: node.low.weight,
            },
            high: Edge {
                node: NodeId(remap[node.high.node.0 as usize]),
                weight: node.high.weight,
            },
        };
        remap[old_id] = new_nodes.len() as u32;
        new_nodes.push(mapped);
    }

    // Rebuild the unique table over live nodes.
    let mut unique = FxHashMap::with_capacity_and_hasher(new_nodes.len(), Default::default());
    for (id, node) in new_nodes.iter().enumerate().skip(1) {
        unique.insert(*node, NodeId(id as u32));
    }

    store.nodes = new_nodes;
    store.unique = unique;
    m.clear_computed_tables();
    m.stats.gc_runs += 1;

    roots
        .iter()
        .map(|e| Edge {
            node: NodeId(remap[e.node.0 as usize]),
            weight: e.weight,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{from_tensor, to_tensor};
    use crate::ops;
    use qaec_math::C64;
    use qaec_tensornet::{IndexId, Tensor, VarOrder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(indices: &[IndexId], rng: &mut StdRng) -> Tensor {
        let data: Vec<C64> = (0..1usize << indices.len())
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        Tensor::from_flat(indices.to_vec(), data)
    }

    #[test]
    fn collection_preserves_semantics() {
        let mut rng = StdRng::seed_from_u64(71);
        let indices: Vec<IndexId> = (0..5).map(IndexId).collect();
        let order = VarOrder::from_sequence(indices.iter().copied());
        let t = random_tensor(&indices, &mut rng);
        let mut m = TddManager::new();
        let keep = from_tensor(&mut m, &t, &order);
        // Create garbage.
        for _ in 0..20 {
            let g = random_tensor(&indices, &mut rng);
            let _ = from_tensor(&mut m, &g, &order);
        }
        let before = m.arena_len();
        let kept = collect(&mut m, &[keep]);
        assert!(m.arena_len() < before);
        let back = to_tensor(&m, kept[0], &indices, &order);
        assert!(back.approx_eq(&t, 1e-9));
        assert_eq!(m.stats().gc_runs, 1);
    }

    #[test]
    fn operations_work_after_collection() {
        let mut rng = StdRng::seed_from_u64(73);
        let indices: Vec<IndexId> = (0..4).map(IndexId).collect();
        let order = VarOrder::from_sequence(indices.iter().copied());
        let ta = random_tensor(&indices, &mut rng);
        let tb = random_tensor(&indices, &mut rng);
        let mut m = TddManager::new();
        let ea = from_tensor(&mut m, &ta, &order);
        let eb = from_tensor(&mut m, &tb, &order);
        let roots = collect(&mut m, &[ea, eb]);
        let sum = ops::add(&mut m, roots[0], roots[1]);
        let expected: Vec<C64> = ta
            .data()
            .iter()
            .zip(tb.data())
            .map(|(&x, &y)| x + y)
            .collect();
        let got = to_tensor(&m, sum, &indices, &order);
        assert!(got.approx_eq(&Tensor::from_flat(indices, expected), 1e-8));
    }

    #[test]
    fn unique_table_still_canonical_after_gc() {
        let mut m = TddManager::new();
        let root = {
            let l = m.terminal(C64::real(1.0));
            let h = m.terminal(C64::real(2.0));
            m.make_node(0, l, h)
        };
        let kept = collect(&mut m, &[root]);
        // Rebuilding the same node must hit the rebuilt unique table.
        let l = m.terminal(C64::real(1.0));
        let h = m.terminal(C64::real(2.0));
        let again = m.make_node(0, l, h);
        assert_eq!(again.node, kept[0].node);
        assert_eq!(m.arena_len(), 1);
    }

    #[test]
    fn shared_store_collection_is_a_noop() {
        let store = crate::SharedTddStore::new();
        let mut m = TddManager::new_shared(&store);
        let keep = {
            let l = m.terminal(C64::real(1.0));
            let h = m.terminal(C64::real(2.0));
            m.make_node(0, l, h)
        };
        let _garbage = {
            let l = m.terminal(C64::real(3.0));
            let h = m.terminal(C64::real(5.0));
            m.make_node(1, l, h)
        };
        let before = m.arena_len();
        let kept = collect(&mut m, &[keep]);
        assert_eq!(kept, vec![keep], "shared roots must come back unchanged");
        assert_eq!(m.arena_len(), before, "append-only arena never shrinks");
        assert_eq!(m.stats().gc_runs, 0, "no collection is recorded");
        assert!((m.eval(kept[0], &[1]) - C64::real(2.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_roots_clear_everything() {
        let mut m = TddManager::new();
        for k in 0..10 {
            let l = m.terminal(C64::real(k as f64));
            let h = m.terminal(C64::real(k as f64 + 1.0));
            let _ = m.make_node(0, l, h);
        }
        assert!(m.arena_len() > 0);
        let kept = collect(&mut m, &[]);
        assert!(kept.is_empty());
        assert_eq!(m.arena_len(), 0);
    }
}
