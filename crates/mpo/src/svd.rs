//! Complex singular value decomposition for MPO bond truncation.
//!
//! Two engines share one interface:
//!
//! * [`svd`] — a full decomposition via the Hermitian eigensolver
//!   ([`qaec_math::eigen::eigh`]) applied to the smaller Gram matrix
//!   `A·A†` or `A†·A`. Exact (to roundoff), used whenever the matrix is
//!   small enough that cubic Jacobi cost does not matter.
//! * [`svd_lowrank`] — a deterministic subspace iteration that captures
//!   the dominant `block` singular triples of a large matrix. Crucially
//!   for the checker's soundness story, its *error accounting does not
//!   depend on convergence*: the mass the subspace missed is measured
//!   exactly as `‖A‖²_F − ‖Q†A‖²_F` and reported alongside the triples,
//!   so an under-converged iteration only widens the fidelity interval.
//!   That holds only while `Q` is an isometry, so the basis is kept
//!   orthonormal at every step and the caller checks the kept vectors.
//!
//! [`truncation_spec`] turns a singular spectrum plus a total-mass
//! figure into a keep count and a rigorously discarded Frobenius mass.

use qaec_math::eigen::eigh;
use qaec_math::{Matrix, C64};

/// Singular values below `σ_max · RANK_FLOOR` are treated as numerical
/// zeros: they are always discardable (their mass still lands in the
/// error bound, so dropping them is sound, merely pessimistic by an
/// ulp-scale amount).
pub(crate) const RANK_FLOOR: f64 = 1e-14;

/// A (possibly partial) singular value decomposition `A ≈ U·diag(σ)·V†`
/// with `σ` in descending order, `U` column-isometric and `V†`
/// row-isometric on the rows with nonzero `σ`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, one column per retained triple.
    pub u: Matrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors, conjugate-transposed (one row per
    /// retained triple).
    pub vh: Matrix,
    /// `‖A‖²_F` of the *input* — the reference against which truncation
    /// budgets and (for the low-rank engine) the subspace residual are
    /// accounted. For [`svd`] this equals `Σ σ²` to roundoff.
    pub total_sq: f64,
}

fn frobenius_sq(a: &Matrix) -> f64 {
    a.as_slice().iter().map(|z| z.norm_sqr()).sum()
}

/// Forces exact Hermitian symmetry on a Gram matrix before handing it to
/// the eigensolver (products `A·A†` deviate from symmetry by roundoff).
fn symmetrize(g: &mut Matrix) {
    let n = g.rows();
    for r in 0..n {
        for c in (r + 1)..n {
            let avg = (g[(r, c)] + g[(c, r)].conj()) * 0.5;
            g[(r, c)] = avg;
            g[(c, r)] = avg.conj();
        }
        g[(r, r)] = C64::real(g[(r, r)].re);
    }
}

/// Full SVD of a complex matrix through the smaller Gram matrix.
///
/// Returns `min(rows, cols)` triples. Cost is cubic in the smaller
/// dimension (the Jacobi eigensolver dominates); the crate-internal
/// `svd_lowrank` is preferred when only a bounded number of triples
/// can survive truncation anyway.
///
/// # Example
///
/// ```
/// use qaec_math::{C64, Matrix};
/// let a = Matrix::from_rows(&[
///     vec![C64::new(1.0, 0.5), C64::ZERO, C64::real(2.0)],
///     vec![C64::ZERO, C64::new(0.0, -1.0), C64::real(1.0)],
/// ]);
/// let s = qaec_mpo::svd(&a);
/// // Reconstruction: A = U Σ V†.
/// let mut rebuilt = Matrix::zeros(2, 3);
/// for k in 0..s.sigma.len() {
///     for r in 0..2 {
///         for c in 0..3 {
///             rebuilt[(r, c)] += s.u[(r, k)] * s.vh[(k, c)] * s.sigma[k];
///         }
///     }
/// }
/// assert!(rebuilt.approx_eq(&a, 1e-10));
/// ```
pub fn svd(a: &Matrix) -> Svd {
    let (m, n) = a.shape();
    let total_sq = frobenius_sq(a);
    let k = m.min(n);
    if m <= n {
        // Gram on the row side: A·A† = U Σ² U†.
        let mut g = a.mul(&a.adjoint());
        symmetrize(&mut g);
        let e = eigh(&g);
        // eigh returns ascending eigenvalues; singular order is descending.
        let mut sigma = Vec::with_capacity(k);
        let mut u = Matrix::zeros(m, k);
        for (col, src) in (0..m).rev().enumerate() {
            sigma.push(e.values[src].max(0.0).sqrt());
            for r in 0..m {
                u[(r, col)] = e.vectors[(r, src)];
            }
        }
        let uta = u.adjoint().mul(a);
        let mut vh = Matrix::zeros(k, n);
        for (row, &s) in sigma.iter().enumerate() {
            if s > 0.0 {
                let inv = 1.0 / s;
                for c in 0..n {
                    vh[(row, c)] = uta[(row, c)] * inv;
                }
            }
        }
        Svd {
            u,
            sigma,
            vh,
            total_sq,
        }
    } else {
        // Gram on the column side: A†·A = V Σ² V†.
        let mut g = a.adjoint().mul(a);
        symmetrize(&mut g);
        let e = eigh(&g);
        let mut sigma = Vec::with_capacity(k);
        let mut vh = Matrix::zeros(k, n);
        let mut v = Matrix::zeros(n, k);
        for (row, src) in (0..n).rev().enumerate() {
            sigma.push(e.values[src].max(0.0).sqrt());
            for c in 0..n {
                vh[(row, c)] = e.vectors[(c, src)].conj();
                v[(c, row)] = e.vectors[(c, src)];
            }
        }
        let av = a.mul(&v);
        let mut u = Matrix::zeros(m, k);
        for (col, &s) in sigma.iter().enumerate() {
            if s > 0.0 {
                let inv = 1.0 / s;
                for r in 0..m {
                    u[(r, col)] = av[(r, col)] * inv;
                }
            }
        }
        Svd {
            u,
            sigma,
            vh,
            total_sq,
        }
    }
}

/// Number of power iterations for [`svd_lowrank`]. Each squares the
/// singular-value separation; four passes resolve the rapidly decaying
/// spectra the near-identity miter MPO produces, and *under*-resolution
/// is sound by construction (the residual is measured, not assumed).
const POWER_ITERS: usize = 4;

/// Dominant-subspace SVD: captures up to `block` leading triples of `a`
/// by deterministic subspace iteration (started from the largest-norm
/// columns — no randomness, so results are reproducible bit for bit).
///
/// The returned [`Svd::total_sq`] is the full `‖A‖²_F`; since the
/// returned `σ` are exact singular values of the captured part `Q·Q†·A`,
/// the difference `total_sq − Σσ²` is exactly the mass of the missed
/// complement `(I − Q·Q†)·A` — [`truncation_spec`] charges it to the
/// discarded side automatically.
pub fn svd_lowrank(a: &Matrix, block: usize) -> Svd {
    let (m, n) = a.shape();
    let k = block.min(m).min(n).max(1);
    if k >= m.min(n) {
        return svd(a);
    }
    let total_sq = frobenius_sq(a);
    let at = a.adjoint();

    // Start from the `k` largest-norm columns of A (deterministic).
    let mut col_norms: Vec<(usize, f64)> = (0..n)
        .map(|c| ((0..m).map(|r| a[(r, c)].norm_sqr()).sum::<f64>(), c))
        .map(|(nrm, c)| (c, nrm))
        .collect();
    col_norms.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    let mut q = Matrix::zeros(m, k);
    for (j, &(c, _)) in col_norms.iter().take(k).enumerate() {
        for r in 0..m {
            q[(r, j)] = a[(r, c)];
        }
    }
    orthonormalize_columns(&mut q);

    for _ in 0..POWER_ITERS {
        // Q ← orth(A·orth(A†·Q)) — one power step of A·A†, with both
        // half-steps orthonormalised (Halko, Martinsson and Tropp 2011,
        // Algorithm 4.4). Without the inner step the small-σ directions
        // are roundoff by the time Gram–Schmidt runs, and `Q` stops
        // being an isometry.
        let mut z = at.mul(&q);
        orthonormalize_columns(&mut z);
        q = a.mul(&z);
        orthonormalize_columns(&mut q);
    }

    // Project and finish with an exact small SVD: B = Q†A (k×n).
    let b = q.adjoint().mul(a);
    let small = svd(&b);
    let u = q.mul(&small.u);
    Svd {
        u,
        sigma: small.sigma,
        vh: small.vh,
        total_sq,
    }
}

/// A Gram–Schmidt residual below this fraction of the column's norm
/// before projection is roundoff, not a new direction.
const RESIDUAL_FLOOR: f64 = 1e-10;

/// In-place modified Gram–Schmidt with one reorthogonalization pass.
/// Columns whose residual collapses (rank deficiency: below
/// [`RESIDUAL_FLOOR`] of the column's norm before projection) are
/// zeroed — the projector `Q·Q†` then simply spans less, which the
/// residual accounting in [`svd_lowrank`] charges as discarded mass.
fn orthonormalize_columns(q: &mut Matrix) {
    let (m, k) = q.shape();
    let column_norm =
        |q: &Matrix, j: usize| (0..m).map(|r| q[(r, j)].norm_sqr()).sum::<f64>().sqrt();
    for j in 0..k {
        let before = column_norm(q, j);
        for _pass in 0..2 {
            for i in 0..j {
                let dot: C64 = (0..m).map(|r| q[(r, i)].conj() * q[(r, j)]).sum();
                for r in 0..m {
                    let sub = dot * q[(r, i)];
                    q[(r, j)] -= sub;
                }
            }
        }
        let norm = column_norm(q, j);
        if norm > 1e-150 && norm > RESIDUAL_FLOOR * before {
            let inv = 1.0 / norm;
            for r in 0..m {
                q[(r, j)] = q[(r, j)] * inv;
            }
        } else {
            for r in 0..m {
                q[(r, j)] = C64::ZERO;
            }
        }
    }
}

/// Whether the leading `keep` columns of `u` are orthonormal to within
/// `tol` entrywise (`‖U†U − I‖_max`): the isometry every truncation
/// charge assumes.
pub(crate) fn orthonormal_columns(u: &Matrix, keep: usize, tol: f64) -> bool {
    let rows = u.rows();
    (0..keep.min(u.cols())).all(|i| {
        (0..=i).all(|j| {
            let dot: C64 = (0..rows).map(|r| u[(r, i)].conj() * u[(r, j)]).sum();
            let target = if i == j { C64::ONE } else { C64::ZERO };
            (dot - target).abs() <= tol
        })
    })
}

/// A truncation decision: keep the leading `keep` triples, discarding
/// Frobenius mass `discarded` (the square root of everything in
/// `total_sq` not carried by the kept `σ`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Truncation {
    /// Leading triples to retain (always ≥ 1).
    pub keep: usize,
    /// `√(total_sq − Σ_{kept} σ²)` — the rigorous Frobenius mass removed.
    pub discarded: f64,
}

/// Decides how many leading singular values survive: numerical zeros
/// (below [`RANK_FLOOR`] relative to `σ_max`) always go, then the tail
/// is discarded greedily while the accumulated squared mass stays within
/// `threshold² · total_sq`, and finally the `max_bond` cap is enforced
/// unconditionally. At least one triple is always kept.
pub(crate) fn truncation_spec(
    sigma: &[f64],
    total_sq: f64,
    threshold: f64,
    max_bond: usize,
) -> Truncation {
    let smax = sigma.first().copied().unwrap_or(0.0);
    let floor = smax * RANK_FLOOR;
    let carried: f64 = sigma.iter().map(|s| s * s).sum();
    // Mass the spectrum never carried (subspace residual) starts discarded.
    let mut disc_sq = (total_sq - carried).max(0.0);
    let budget_sq = threshold * threshold * total_sq;
    let mut keep = sigma.len();
    while keep > 1 {
        let s = sigma[keep - 1];
        let candidate = disc_sq + s * s;
        if keep > max_bond || s <= floor || candidate <= budget_sq {
            disc_sq = candidate;
            keep -= 1;
        } else {
            break;
        }
    }
    Truncation {
        keep,
        discarded: disc_sq.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rebuild(s: &Svd, keep: usize, m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |r, c| {
            (0..keep)
                .map(|k| s.u[(r, k)] * s.vh[(k, c)] * s.sigma[k])
                .sum()
        })
    }

    fn test_matrix(m: usize, n: usize) -> Matrix {
        // Deterministic pseudo-random entries with decaying row scale,
        // so the spectrum has structure to resolve.
        Matrix::from_fn(m, n, |r, c| {
            let t = ((r * 31 + c * 17 + 3) % 97) as f64 / 97.0;
            let u = ((r * 13 + c * 41 + 7) % 89) as f64 / 89.0;
            let scale = 1.0 / (1.0 + r as f64);
            C64::new((t - 0.5) * scale, (u - 0.5) * scale)
        })
    }

    #[test]
    fn full_svd_reconstructs_wide_and_tall() {
        for (m, n) in [(4, 7), (7, 4), (5, 5), (1, 6), (6, 1)] {
            let a = test_matrix(m, n);
            let s = svd(&a);
            assert_eq!(s.sigma.len(), m.min(n));
            for w in s.sigma.windows(2) {
                assert!(w[0] >= w[1], "descending order");
            }
            let rebuilt = rebuild(&s, s.sigma.len(), m, n);
            assert!(rebuilt.approx_eq(&a, 1e-10));
            let carried: f64 = s.sigma.iter().map(|x| x * x).sum();
            assert!((carried - s.total_sq).abs() < 1e-10 * s.total_sq.max(1.0));
        }
    }

    #[test]
    fn full_svd_isometries() {
        let a = test_matrix(5, 8);
        let s = svd(&a);
        assert!(s.u.adjoint().mul(&s.u).is_identity(1e-10));
        assert!(s.vh.mul(&s.vh.adjoint()).is_identity(1e-10));
    }

    #[test]
    fn lowrank_captures_dominant_mass_and_accounts_rest() {
        // A rank-2-dominant matrix with a tiny tail.
        let m = 12;
        let n = 10;
        let mut a = Matrix::zeros(m, n);
        for r in 0..m {
            for c in 0..n {
                let big = C64::real(((r + 1) * (c + 1)) as f64 / (m * n) as f64);
                let tiny = C64::new(
                    1e-9 * ((r * 7 + c * 3) % 11) as f64,
                    1e-9 * ((r * 5 + c) % 13) as f64,
                );
                a[(r, c)] = big + tiny;
            }
        }
        let s = svd_lowrank(&a, 3);
        assert_eq!(s.sigma.len(), 3);
        // Captured mass + residual accounting must cover the total.
        let carried: f64 = s.sigma.iter().map(|x| x * x).sum();
        assert!(carried <= s.total_sq * (1.0 + 1e-12));
        // The dominant value matches the full decomposition.
        let full = svd(&a);
        assert!((s.sigma[0] - full.sigma[0]).abs() < 1e-9 * full.sigma[0]);
        // Reconstruction from the captured part is within the residual.
        let rebuilt = rebuild(&s, 3, m, n);
        let miss2 = frobenius_sq(&rebuilt.sub(&a));
        assert!(miss2.sqrt() <= (s.total_sq - carried).max(0.0).sqrt() + 1e-9);
    }

    #[test]
    fn truncation_spec_respects_budget_floor_and_cap() {
        let sigma = [1.0, 0.5, 1e-3, 1e-8, 1e-16];
        let total: f64 = sigma.iter().map(|s| s * s).sum();
        // Loose threshold eats the small tail, keeps the bulk.
        let t = truncation_spec(&sigma, total, 1e-2, 64);
        assert_eq!(t.keep, 2);
        let expect = (1e-3f64.powi(2) + 1e-8f64.powi(2) + 1e-16f64.powi(2)).sqrt();
        assert!((t.discarded - expect).abs() < 1e-12);
        // Tight threshold still drops the numerical zero.
        let t = truncation_spec(&sigma, total, 0.0, 64);
        assert_eq!(t.keep, 4);
        // The cap wins over the budget.
        let t = truncation_spec(&sigma, total, 0.0, 1);
        assert_eq!(t.keep, 1);
        assert!(t.discarded > 0.5);
        // Residual mass not carried by the spectrum is charged.
        let t = truncation_spec(&sigma, total + 1e-4, 0.0, 64);
        assert!(t.discarded >= 1e-2 * 0.999);
    }
}
