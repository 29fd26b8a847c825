//! Dense tensor ↔ TDD conversion.

use crate::manager::{Edge, TddManager};
use qaec_tensornet::{IndexId, Tensor, VarOrder};
use std::collections::BTreeSet;

/// Builds a TDD for a dense tensor under the given variable order.
///
/// The tensor's indices are first permuted into order; the diagram then
/// branches on them top-down (Boole–Shannon expansion), sharing equal
/// sub-tensors through the unique table.
///
/// # Panics
///
/// Panics if a tensor index is missing from `order`.
///
/// # Example
///
/// ```
/// use qaec_math::{C64, Matrix};
/// use qaec_tensornet::{IndexId, Tensor, VarOrder};
/// use qaec_tdd::{convert, TddManager};
///
/// let z = Matrix::from_diagonal(&[C64::ONE, -C64::ONE]);
/// let t = Tensor::from_matrix(&z, &[IndexId(0)], &[IndexId(1)]);
/// let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
/// let mut m = TddManager::new();
/// let e = convert::from_tensor(&mut m, &t, &order);
/// assert_eq!(m.eval(e, &[1, 1]), -C64::ONE);
/// assert_eq!(m.eval(e, &[0, 1]), C64::ZERO);
/// ```
pub fn from_tensor(m: &mut TddManager, tensor: &Tensor, order: &VarOrder) -> Edge {
    // One tensor = one weight scope: on a shared store (see
    // [`TddManager::begin_weight_scope`]) the conversion becomes a pure
    // function of the tensor's entries, whichever worker runs it. A
    // no-op for private managers.
    m.begin_weight_scope();
    let sorted = tensor.sorted_by(order);
    let levels: Vec<u32> = sorted.indices().iter().map(|&i| order.level(i)).collect();
    build(m, sorted.data(), &levels)
}

fn build(m: &mut TddManager, data: &[qaec_math::C64], levels: &[u32]) -> Edge {
    if levels.is_empty() {
        return m.terminal(data[0]);
    }
    let half = data.len() / 2;
    let low = build(m, &data[..half], &levels[1..]);
    let high = build(m, &data[half..], &levels[1..]);
    m.make_node(levels[0], low, high)
}

/// The set of variable levels the diagram actually branches on.
pub fn support(m: &TddManager, e: Edge) -> BTreeSet<u32> {
    let mut vars = BTreeSet::new();
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![e.node];
    while let Some(n) = stack.pop() {
        if n.is_terminal() || !seen.insert(n) {
            continue;
        }
        let node = m.node(n);
        vars.insert(node.var);
        stack.push(node.low.node);
        stack.push(node.high.node);
    }
    vars
}

/// Expands a TDD back into a dense tensor over `indices` (which must be
/// sorted by `order` and cover the diagram's support).
///
/// # Panics
///
/// Panics if the diagram branches on a variable outside `indices`, or if
/// `indices` are not sorted by `order`.
pub fn to_tensor(m: &TddManager, e: Edge, indices: &[IndexId], order: &VarOrder) -> Tensor {
    let levels: Vec<u32> = indices.iter().map(|&i| order.level(i)).collect();
    assert!(
        levels.windows(2).all(|w| w[0] < w[1]),
        "indices must be sorted by the variable order"
    );
    let sup = support(m, e);
    for v in &sup {
        assert!(
            levels.contains(v),
            "diagram branches on level {v} outside the requested indices"
        );
    }
    let rank = indices.len();
    let n_levels = order.len();
    let mut data = Vec::with_capacity(1usize << rank);
    let mut assignment = vec![0u8; n_levels];
    for flat in 0..(1usize << rank) {
        for (k, &level) in levels.iter().enumerate() {
            assignment[level as usize] = ((flat >> (rank - 1 - k)) & 1) as u8;
        }
        data.push(m.eval(e, &assignment));
    }
    Tensor::from_flat(indices.to_vec(), data)
}

/// Expands a TDD into a `2^m × 2^k` matrix: `outs` become the row bits
/// (most significant first), `ins` the column bits.
///
/// Convenience wrapper over [`to_tensor`] for comparing diagrams against
/// gate matrices in tests and debugging.
///
/// # Panics
///
/// As [`to_tensor`], plus if `outs`/`ins` overlap.
pub fn to_matrix(
    m: &TddManager,
    e: Edge,
    outs: &[IndexId],
    ins: &[IndexId],
    order: &VarOrder,
) -> qaec_math::Matrix {
    for o in outs {
        assert!(!ins.contains(o), "index {o} appears in both outs and ins");
    }
    let mut indices: Vec<IndexId> = outs.iter().chain(ins).copied().collect();
    order.sort(&mut indices);
    let tensor = to_tensor(m, e, &indices, order);
    // Permute into [outs..., ins...] layout, then reshape row-major.
    let layout: Vec<IndexId> = outs.iter().chain(ins).copied().collect();
    let permuted = tensor.permute_to(&layout);
    let rows = 1usize << outs.len();
    let cols = 1usize << ins.len();
    qaec_math::Matrix::from_fn(rows, cols, |r, c| permuted.get(r * cols + c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_math::{Matrix, C64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_random_tensors() {
        let mut rng = StdRng::seed_from_u64(17);
        for rank in 0..=5usize {
            let indices: Vec<IndexId> = (0..rank as u32).map(IndexId).collect();
            let order = VarOrder::from_sequence(indices.iter().copied());
            let data: Vec<C64> = (0..1usize << rank)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let t = Tensor::from_flat(indices.clone(), data);
            let mut m = TddManager::new();
            let e = from_tensor(&mut m, &t, &order);
            let back = to_tensor(&m, e, &indices, &order);
            assert!(back.approx_eq(&t, 1e-9), "rank {rank} roundtrip failed");
        }
    }

    #[test]
    fn roundtrip_with_permuted_storage() {
        // The tensor stores indices out of order; conversion must sort.
        let order = VarOrder::from_sequence([IndexId(3), IndexId(1)]);
        let t = Tensor::from_flat(
            vec![IndexId(1), IndexId(3)],
            vec![
                C64::real(1.0),
                C64::real(2.0),
                C64::real(3.0),
                C64::real(4.0),
            ],
        );
        let mut m = TddManager::new();
        let e = from_tensor(&mut m, &t, &order);
        // t[i1=1, i3=0] = 3; in order (3,1): assignment level0(=idx3)=0, level1(=idx1)=1.
        assert_eq!(m.eval(e, &[0, 1]), C64::real(3.0));
        let back = to_tensor(&m, e, &[IndexId(3), IndexId(1)], &order);
        let expected = t.permute_to(&[IndexId(3), IndexId(1)]);
        assert!(back.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn identity_matrix_is_compact() {
        // δ[a,b] needs exactly 2 internal nodes + terminal.
        let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
        let t = Tensor::from_matrix(&Matrix::identity(2), &[IndexId(0)], &[IndexId(1)]);
        let mut m = TddManager::new();
        let e = from_tensor(&mut m, &t, &order);
        assert_eq!(m.node_count(e), 4); // root + two x1-nodes + terminal
        assert_eq!(support(&m, e), [0u32, 1].into_iter().collect());
    }

    #[test]
    fn constant_tensor_collapses_to_terminal() {
        let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
        let t = Tensor::from_flat(vec![IndexId(0), IndexId(1)], vec![C64::real(0.5); 4]);
        let mut m = TddManager::new();
        let e = from_tensor(&mut m, &t, &order);
        assert!(
            e.node.is_terminal(),
            "constant tensor must be a terminal edge"
        );
        assert_eq!(m.edge_scalar(e), Some(C64::real(0.5)));
        assert!(support(&m, e).is_empty());
    }

    #[test]
    fn shared_submatrices_share_nodes() {
        // [[a, b], [a, b]] — rows identical → x0 node collapses.
        let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
        let t = Tensor::from_flat(
            vec![IndexId(0), IndexId(1)],
            vec![
                C64::real(0.3),
                C64::real(0.9),
                C64::real(0.3),
                C64::real(0.9),
            ],
        );
        let mut m = TddManager::new();
        let e = from_tensor(&mut m, &t, &order);
        assert_eq!(support(&m, e), [1u32].into_iter().collect());
    }

    #[test]
    fn to_matrix_round_trips_gate_matrices() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        // Random 4×4 matrix as a tensor M[o0,o1,i0,i1], back to a matrix.
        let m4 = Matrix::from_fn(4, 4, |_, _| {
            C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        });
        let outs = [IndexId(0), IndexId(1)];
        let ins = [IndexId(2), IndexId(3)];
        let t = Tensor::from_matrix(&m4, &outs, &ins);
        let order = VarOrder::from_sequence((0..4).map(IndexId));
        let mut mgr = TddManager::new();
        let e = from_tensor(&mut mgr, &t, &order);
        let back = to_matrix(&mgr, e, &outs, &ins, &order);
        assert!(back.approx_eq(&m4, 1e-9));
        // And with a scrambled variable order (ins above outs).
        let order2 = VarOrder::from_sequence([IndexId(2), IndexId(0), IndexId(3), IndexId(1)]);
        let mut mgr2 = TddManager::new();
        let e2 = from_tensor(&mut mgr2, &t, &order2);
        let back2 = to_matrix(&mgr2, e2, &outs, &ins, &order2);
        assert!(back2.approx_eq(&m4, 1e-9));
    }

    #[test]
    #[should_panic(expected = "appears in both outs and ins")]
    fn to_matrix_rejects_overlap() {
        let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
        let mut m = TddManager::new();
        let e = m.terminal(C64::ONE);
        let _ = to_matrix(&m, e, &[IndexId(0)], &[IndexId(0)], &order);
    }

    #[test]
    #[should_panic(expected = "outside the requested indices")]
    fn to_tensor_rejects_missing_support() {
        let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
        let t = Tensor::from_flat(vec![IndexId(0)], vec![C64::ONE, C64::real(2.0)]);
        let mut m = TddManager::new();
        let e = from_tensor(&mut m, &t, &order);
        let _ = to_tensor(&m, e, &[IndexId(1)], &order);
    }
}
