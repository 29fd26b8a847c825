//! Pointwise addition and contraction of TDDs.
//!
//! Both operations factor the operand edge weights out first, so the
//! computed tables key on node identities (plus, for `add`, the interned
//! weight ratio, and for `cont`, the interned remaining elimination
//! suffix). This is what makes memoized results reusable across the many
//! structurally-similar trace networks of Algorithm I — the effect the
//! paper isolates in Table II.

use crate::driver::DriverTimeout;
use crate::manager::{Edge, TddManager};
use crate::weight::WeightId;

/// Pointwise sum of two diagrams over the union of their variables.
///
/// Infallible convenience wrapper over [`try_add`] for managers without
/// an armed deadline (see [`TddManager::set_deadline`]).
///
/// # Panics
///
/// Panics if an armed deadline expires mid-recursion — callers that arm
/// deadlines must use [`try_add`].
///
/// # Example
///
/// ```
/// use qaec_math::C64;
/// use qaec_tdd::{ops, TddManager};
///
/// let mut m = TddManager::new();
/// let a = m.terminal(C64::real(2.0));
/// let b = m.terminal(C64::real(-0.5));
/// let s = ops::add(&mut m, a, b);
/// assert_eq!(m.edge_scalar(s), Some(C64::real(1.5)));
/// ```
pub fn add(m: &mut TddManager, a: Edge, b: Edge) -> Edge {
    try_add(m, a, b).expect("deadline expired mid-add — arm-aware callers use try_add")
}

/// Pointwise sum of two diagrams, aborting with [`DriverTimeout`] if the
/// manager's armed deadline expires (probed every
/// [`crate::manager::DEADLINE_PROBE_INTERVAL`] recursion calls).
///
/// # Errors
///
/// [`DriverTimeout`] once the armed deadline has passed.
// hot-region: begin(try_add) — per-node recursion core; no clocks or
// allocation allowed (deadline probes are amortised in the manager).
pub fn try_add(m: &mut TddManager, a: Edge, b: Edge) -> Result<Edge, DriverTimeout> {
    m.stats.add_calls += 1;
    if m.deadline_exceeded() {
        return Err(DriverTimeout);
    }
    if a.is_zero() {
        return Ok(b);
    }
    if b.is_zero() {
        return Ok(a);
    }
    // Same structure: add the weights.
    if a.node == b.node {
        let w = m.wadd(a.weight, b.weight);
        if w.is_zero() {
            return Ok(Edge::ZERO);
        }
        return Ok(Edge {
            node: a.node,
            weight: w,
        });
    }
    // Canonical operand order (commutative). Ordering by weight *value*
    // — not by handle — keeps the factorization below a pure function of
    // the operands, so shared-store runs compute bit-identical results
    // whatever order the ids were allocated in across threads. Handles
    // only break exact-value ties, where the factor weights coincide and
    // the recursion is numerically symmetric anyway.
    let (a, b) = {
        let va = m.weight_value(a.weight);
        let vb = m.weight_value(b.weight);
        let swap = vb
            .re
            .total_cmp(&va.re)
            .then(vb.im.total_cmp(&va.im))
            .then_with(|| (b.node, b.weight).cmp(&(a.node, a.weight)))
            .is_lt();
        if swap {
            (b, a)
        } else {
            (a, b)
        }
    };
    // Factor out a's weight: add(wa·A, wb·B) = wa · add(A, (wb/wa)·B).
    let ratio = m.wdiv(b.weight, a.weight);
    let na = Edge {
        node: a.node,
        weight: WeightId::ONE,
    };
    let nb = Edge {
        node: b.node,
        weight: ratio,
    };
    let key = (na, nb);
    if let Some(&hit) = m.add_cache.get(&key) {
        m.stats.add_hits += 1;
        return Ok(Edge {
            node: hit.node,
            weight: m.wmul(hit.weight, a.weight),
        });
    }
    let x = m.var(na.node).min(m.var(nb.node));
    let (a0, a1) = m.cofactors(na, x);
    let (b0, b1) = m.cofactors(nb, x);
    let low = try_add(m, a0, b0)?;
    let high = try_add(m, a1, b1)?;
    let result = m.make_node(x, low, high);
    m.add_cache.insert(key, result);
    Ok(Edge {
        node: result.node,
        weight: m.wmul(result.weight, a.weight),
    })
}
// hot-region: end(try_add)

/// Contraction: multiplies two diagrams (matching along shared variables)
/// and sums out the variables of the interned elimination set `set_id`
/// (see [`TddManager::intern_elim_set`]).
///
/// Variables in the elimination set skipped by *both* operands contribute
/// a factor of 2 each (they are summed over a constant), which is exactly
/// the bare-wire-loop semantics of trace tensor networks.
///
/// # Example
///
/// ```
/// use qaec_math::{C64, Matrix};
/// use qaec_tensornet::{IndexId, Tensor, VarOrder};
/// use qaec_tdd::{convert, ops, TddManager};
///
/// // tr(Z·Z) = 2 : contract Z[a,b] with Z[b,a] eliminating both indices.
/// let z = Matrix::from_diagonal(&[C64::ONE, -C64::ONE]);
/// let order = VarOrder::from_sequence([IndexId(0), IndexId(1)]);
/// let mut m = TddManager::new();
/// let t1 = convert::from_tensor(&mut m, &Tensor::from_matrix(&z, &[IndexId(0)], &[IndexId(1)]), &order);
/// let t2 = convert::from_tensor(&mut m, &Tensor::from_matrix(&z, &[IndexId(1)], &[IndexId(0)]), &order);
/// let set = m.intern_elim_set(vec![0, 1]);
/// let tr = ops::cont(&mut m, t1, t2, set);
/// assert!((m.edge_scalar(tr).unwrap() - C64::real(2.0)).abs() < 1e-9);
/// ```
pub fn cont(m: &mut TddManager, a: Edge, b: Edge, set_id: u32) -> Edge {
    try_cont(m, a, b, set_id).expect("deadline expired mid-cont — arm-aware callers use try_cont")
}

/// Contraction with deadline awareness: like [`cont`], but aborts with
/// [`DriverTimeout`] once the manager's armed deadline (see
/// [`TddManager::set_deadline`]) has passed. The probe is amortised —
/// one clock read every [`crate::manager::DEADLINE_PROBE_INTERVAL`]
/// recursion calls — so the overshoot past the deadline is bounded even
/// inside one huge contraction.
///
/// # Errors
///
/// [`DriverTimeout`] once the armed deadline has passed.
pub fn try_cont(m: &mut TddManager, a: Edge, b: Edge, set_id: u32) -> Result<Edge, DriverTimeout> {
    cont_rec(m, a, b, set_id, 0)
}

// hot-region: begin(cont_rec) — per-node recursion core; no clocks or
// allocation allowed (deadline probes are amortised in the manager).
fn cont_rec(
    m: &mut TddManager,
    a: Edge,
    b: Edge,
    set_id: u32,
    k: usize,
) -> Result<Edge, DriverTimeout> {
    m.stats.cont_calls += 1;
    if m.deadline_exceeded() {
        return Err(DriverTimeout);
    }
    let w = m.wmul(a.weight, b.weight);
    if w.is_zero() {
        return Ok(Edge::ZERO);
    }
    // Both terminal: every remaining eliminated variable is skipped by
    // both operands → factor 2 each.
    if a.node.is_terminal() && b.node.is_terminal() {
        let remaining = m.elim_set(set_id).len() - k;
        let weight = m.wscale_real(w, (remaining as f64).exp2());
        return Ok(Edge {
            node: a.node,
            weight,
        });
    }
    // Canonical operand order (contraction is symmetric, and both
    // operands are reduced to unit weight below, so — unlike `add` —
    // id-based ordering affects only the cache key, never the value).
    let (na, nb) = if b.node < a.node {
        (b.node, a.node)
    } else {
        (a.node, b.node)
    };
    let key = (na, nb, set_id, k as u32);
    if let Some(&hit) = m.cont_cache.get(&key) {
        m.stats.cont_hits += 1;
        return Ok(Edge {
            node: hit.node,
            weight: m.wmul(hit.weight, w),
        });
    }

    let x = m.var(na).min(m.var(nb));
    // Eliminated variables strictly above x are skipped by both operands.
    let mut kk = k;
    {
        let elim = m.elim_set(set_id);
        while kk < elim.len() && elim[kk] < x {
            kk += 1;
        }
    }
    let skips = (kk - k) as f64;
    let ea = Edge {
        node: na,
        weight: WeightId::ONE,
    };
    let eb = Edge {
        node: nb,
        weight: WeightId::ONE,
    };
    let (a0, a1) = m.cofactors(ea, x);
    let (b0, b1) = m.cofactors(eb, x);

    let eliminate_x = {
        let elim = m.elim_set(set_id);
        kk < elim.len() && elim[kk] == x
    };
    let mut result = if eliminate_x {
        let low = cont_rec(m, a0, b0, set_id, kk + 1)?;
        let high = cont_rec(m, a1, b1, set_id, kk + 1)?;
        try_add(m, low, high)?
    } else {
        let low = cont_rec(m, a0, b0, set_id, kk)?;
        let high = cont_rec(m, a1, b1, set_id, kk)?;
        m.make_node(x, low, high)
    };
    if skips > 0.0 {
        result = Edge {
            node: result.node,
            weight: m.wscale_real(result.weight, skips.exp2()),
        };
    }
    m.cont_cache.insert(key, result);
    Ok(Edge {
        node: result.node,
        weight: m.wmul(result.weight, w),
    })
}
// hot-region: end(cont_rec)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{from_tensor, to_tensor};
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

    fn order_upto(n: u32) -> VarOrder {
        VarOrder::from_sequence((0..n).map(IndexId))
    }

    #[test]
    fn add_matches_dense_on_random_tensors() {
        let mut rng = StdRng::seed_from_u64(11);
        let order = order_upto(4);
        for _ in 0..30 {
            let idx: Vec<IndexId> = (0..4).map(IndexId).collect();
            let ta = random_tensor(&idx, &mut rng);
            let tb = random_tensor(&idx, &mut rng);
            let mut m = TddManager::new();
            let ea = from_tensor(&mut m, &ta, &order);
            let eb = from_tensor(&mut m, &tb, &order);
            let sum = add(&mut m, ea, eb);
            let dense: Vec<C64> = ta
                .data()
                .iter()
                .zip(tb.data())
                .map(|(&x, &y)| x + y)
                .collect();
            let expected = Tensor::from_flat(idx.clone(), dense);
            let got = to_tensor(&m, sum, &idx, &order);
            assert!(got.approx_eq(&expected, 1e-8), "dense/TDD add mismatch");
        }
    }

    #[test]
    fn add_with_mismatched_supports() {
        // A over {0}, B over {1}: sum is A[x0] + B[x1] over {0,1}.
        let mut rng = StdRng::seed_from_u64(3);
        let order = order_upto(2);
        let ta = random_tensor(&[IndexId(0)], &mut rng);
        let tb = random_tensor(&[IndexId(1)], &mut rng);
        let mut m = TddManager::new();
        let ea = from_tensor(&mut m, &ta, &order);
        let eb = from_tensor(&mut m, &tb, &order);
        let sum = add(&mut m, ea, eb);
        for x0 in 0..2usize {
            for x1 in 0..2usize {
                let got = m.eval(sum, &[x0 as u8, x1 as u8]);
                let expected = ta.data()[x0] + tb.data()[x1];
                assert!((got - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn add_is_commutative_and_caches() {
        let mut rng = StdRng::seed_from_u64(5);
        let order = order_upto(3);
        let idx: Vec<IndexId> = (0..3).map(IndexId).collect();
        let ta = random_tensor(&idx, &mut rng);
        let tb = random_tensor(&idx, &mut rng);
        let mut m = TddManager::new();
        let ea = from_tensor(&mut m, &ta, &order);
        let eb = from_tensor(&mut m, &tb, &order);
        let ab = add(&mut m, ea, eb);
        let ba = add(&mut m, eb, ea);
        assert_eq!(ab, ba, "canonical operand order must make add symmetric");
        assert!(m.stats().add_hits > 0, "second call should hit the cache");
    }

    #[test]
    fn additive_cancellation_gives_zero() {
        let mut rng = StdRng::seed_from_u64(7);
        let order = order_upto(3);
        let idx: Vec<IndexId> = (0..3).map(IndexId).collect();
        let ta = random_tensor(&idx, &mut rng);
        let tneg = ta.scale(C64::real(-1.0));
        let mut m = TddManager::new();
        let ea = from_tensor(&mut m, &ta, &order);
        let eb = from_tensor(&mut m, &tneg, &order);
        let sum = add(&mut m, ea, eb);
        assert!(sum.is_zero());
    }

    #[test]
    fn cont_matches_dense_random_matrix_products() {
        // A[a,b] · B[b,c] summed over b, for random data.
        let mut rng = StdRng::seed_from_u64(23);
        let order = order_upto(3);
        for _ in 0..30 {
            let ta = random_tensor(&[IndexId(0), IndexId(1)], &mut rng);
            let tb = random_tensor(&[IndexId(1), IndexId(2)], &mut rng);
            let mut m = TddManager::new();
            let ea = from_tensor(&mut m, &ta, &order);
            let eb = from_tensor(&mut m, &tb, &order);
            let set = m.intern_elim_set(vec![1]);
            let prod = cont(&mut m, ea, eb, set);
            let expected = ta.contract(&tb, &[IndexId(1)]);
            let got = to_tensor(&m, prod, &[IndexId(0), IndexId(2)], &order);
            assert!(got.approx_eq(&expected, 1e-8), "cont mismatch");
        }
    }

    #[test]
    fn cont_full_trace_matches_dense() {
        let mut rng = StdRng::seed_from_u64(31);
        let order = order_upto(4);
        for _ in 0..20 {
            let idx: Vec<IndexId> = (0..4).map(IndexId).collect();
            let ta = random_tensor(&idx, &mut rng);
            let tb = random_tensor(&idx, &mut rng);
            let mut m = TddManager::new();
            let ea = from_tensor(&mut m, &ta, &order);
            let eb = from_tensor(&mut m, &tb, &order);
            let set = m.intern_elim_set(vec![0, 1, 2, 3]);
            let scalar = cont(&mut m, ea, eb, set);
            let expected = ta.contract(&tb, &idx).as_scalar().unwrap();
            let got = m.edge_scalar(scalar).expect("scalar result");
            assert!((got - expected).abs() < 1e-8);
        }
    }

    #[test]
    fn eliminating_absent_variables_doubles() {
        // Two scalars contracted while "eliminating" variables neither
        // touches: result ×2 per variable.
        let mut m = TddManager::new();
        let a = m.terminal(C64::real(3.0));
        let b = m.terminal(C64::real(0.5));
        let set = m.intern_elim_set(vec![0, 1, 2]);
        let r = cont(&mut m, a, b, set);
        assert!((m.edge_scalar(r).unwrap() - C64::real(12.0)).abs() < 1e-9);
    }

    #[test]
    fn partially_absent_elimination_variable() {
        // A[x0] contracted with scalar 1, eliminating {x0, x5}: x0 sums
        // A's entries, x5 doubles.
        let ta = Tensor::from_flat(vec![IndexId(0)], vec![C64::real(0.25), C64::real(0.5)]);
        let order = VarOrder::from_sequence([IndexId(0), IndexId(5)]);
        let mut m = TddManager::new();
        let ea = from_tensor(&mut m, &ta, &order);
        let one = m.terminal(C64::ONE);
        let set = m.intern_elim_set(vec![0, 1]); // levels of IndexId(0), IndexId(5)
        let r = cont(&mut m, ea, one, set);
        assert!((m.edge_scalar(r).unwrap() - C64::real(1.5)).abs() < 1e-9);
    }

    #[test]
    fn pointwise_product_when_nothing_eliminated() {
        let mut rng = StdRng::seed_from_u64(41);
        let order = order_upto(2);
        let idx = [IndexId(0), IndexId(1)];
        let ta = random_tensor(&idx, &mut rng);
        let tb = random_tensor(&idx, &mut rng);
        let mut m = TddManager::new();
        let ea = from_tensor(&mut m, &ta, &order);
        let eb = from_tensor(&mut m, &tb, &order);
        let set = m.intern_elim_set(vec![]);
        let prod = cont(&mut m, ea, eb, set);
        let expected = ta.contract(&tb, &[]);
        let got = to_tensor(&m, prod, &idx, &order);
        assert!(got.approx_eq(&expected, 1e-8));
    }

    #[test]
    fn expired_deadline_aborts_inside_the_cont_recursion() {
        // Regression: deadlines used to be checked only *between* plan
        // steps, so one huge `cont` overran them unboundedly. The
        // amortised probe must abort mid-recursion: arm an
        // already-expired deadline and contract a pair big enough that
        // the recursion passes the probe interval many times over.
        let mut rng = StdRng::seed_from_u64(97);
        let idx: Vec<IndexId> = (0..12).map(IndexId).collect();
        let order = order_upto(12);
        let ta = random_tensor(&idx, &mut rng);
        let tb = random_tensor(&idx, &mut rng);
        let mut m = TddManager::new();
        let ea = from_tensor(&mut m, &ta, &order);
        let eb = from_tensor(&mut m, &tb, &order);
        let set = m.intern_elim_set((0..12).collect());

        let started = std::time::Instant::now();
        m.set_deadline(Some(started - std::time::Duration::from_millis(1)));
        let result = try_cont(&mut m, ea, eb, set);
        assert!(result.is_err(), "expired deadline must abort the cont");
        // Bounded overshoot: the abort lands within one probe interval
        // of recursion calls, nowhere near the full contraction.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "probe must fire long before the contraction completes"
        );

        // Disarming restores the infallible path and the full result.
        m.set_deadline(None);
        let ok = try_cont(&mut m, ea, eb, set).expect("no deadline");
        let expected = ta.contract(&tb, &idx).as_scalar().unwrap();
        assert!((m.edge_scalar(ok).unwrap() - expected).abs() < 1e-8);
    }

    #[test]
    fn deadline_probe_is_amortised() {
        // A future deadline must not abort fast operations: the probe
        // reads the clock rarely and the work finishes first.
        let mut rng = StdRng::seed_from_u64(13);
        let order = order_upto(3);
        let idx: Vec<IndexId> = (0..3).map(IndexId).collect();
        let ta = random_tensor(&idx, &mut rng);
        let tb = random_tensor(&idx, &mut rng);
        let mut m = TddManager::new();
        let ea = from_tensor(&mut m, &ta, &order);
        let eb = from_tensor(&mut m, &tb, &order);
        let set = m.intern_elim_set(vec![0, 1, 2]);
        m.set_deadline(Some(
            std::time::Instant::now() + std::time::Duration::from_secs(3600),
        ));
        let r = try_cont(&mut m, ea, eb, set).expect("far deadline never fires");
        let expected = ta.contract(&tb, &idx).as_scalar().unwrap();
        assert!((m.edge_scalar(r).unwrap() - expected).abs() < 1e-8);
    }

    #[test]
    fn cont_cache_shares_across_identical_calls() {
        let mut rng = StdRng::seed_from_u64(53);
        let order = order_upto(3);
        let ta = random_tensor(&[IndexId(0), IndexId(1)], &mut rng);
        let tb = random_tensor(&[IndexId(1), IndexId(2)], &mut rng);
        let mut m = TddManager::new();
        let ea = from_tensor(&mut m, &ta, &order);
        let eb = from_tensor(&mut m, &tb, &order);
        let set = m.intern_elim_set(vec![1]);
        let first = cont(&mut m, ea, eb, set);
        let hits_before = m.stats().cont_hits;
        let second = cont(&mut m, ea, eb, set);
        assert_eq!(first, second);
        assert!(m.stats().cont_hits > hits_before);
    }
}
