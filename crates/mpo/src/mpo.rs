//! The MPO tensor engine: an operator on `n` qubits held as a chain of
//! per-site tensors with bounded bond dimension.
//!
//! Each site tensor has shape `[dl, 4, 4, dr]`: a left bond, a doubled
//! *out* leg, a doubled *in* leg, and a right bond. The represented
//! operator is `scale · (site product)`, with the per-site factors kept
//! at unit Frobenius norm at initialisation (`(1/2)·I₄` per site,
//! `scale = 2^n`), so the accumulated truncation error `err` is
//! measured in units that bound the Jamiolkowski-fidelity error
//! directly: `|ΔF| = |ΔTr|/4^n ≤ 2^n·‖ΔM_full‖_F/4^n = err`.
//!
//! # Canonical form and error accounting
//!
//! The chain is kept in mixed-canonical form around an orthogonality
//! center: every site left of the center is left-canonical (its
//! `[dl·16, dr]` matricization is an isometry), every site right of it
//! is right-canonical. Truncating SVDs happen **only at the center**,
//! where both environments are isometries — so the discarded Frobenius
//! mass equals the exact global error introduced, and summing those
//! masses (amplified by the spectral norm of every later
//! superoperator) is a rigorous bound, not a heuristic. Center moves
//! use exact QR/LQ factorizations and contribute no error.

use crate::svd::{orthonormal_columns, svd, svd_lowrank, truncation_spec, Svd};
use qaec_math::{Matrix, C64};

/// Matrices whose smaller side is at most this use the full Jacobi
/// SVD; larger ones go through the subspace-iteration low-rank SVD
/// (whose unresolved residual is measured exactly and charged to the
/// truncation-error bound, so the choice affects tightness only — as
/// long as its kept vectors are an isometry, which each split checks
/// before it trusts the result).
const FULL_SVD_MAX_SIDE: usize = 32;

/// Extra subspace columns beyond `max_bond` in the low-rank SVD, so
/// the truncation decision sees a few singular values past the cap.
const OVERSAMPLE: usize = 8;

/// How far the kept left singular vectors of a low-rank SVD may stray
/// from orthonormal (`‖U†U − I‖_max`) before the split is redone with
/// the full SVD: every truncation charge assumes an isometry.
const ISOMETRY_TOL: f64 = 1e-10;

/// Which side of the accumulated operator a superoperator multiplies.
///
/// The engine builds `M = S_E · S_U†`: superoperators of the noisy
/// circuit are applied on the [`Side::Left`], adjoint superoperators
/// of the ideal circuit on the [`Side::Right`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `M ← W · M` — acts on the *out* legs.
    Left,
    /// `M ← M · W` — acts on the *in* legs.
    Right,
}

/// One site tensor, shape `[dl, 4(out), 4(in), dr]`, stored row-major
/// with the two physical legs fused: index `(l·16 + po·4 + pi)·dr + r`.
struct Site {
    dl: usize,
    dr: usize,
    data: Vec<C64>,
}

impl Site {
    /// The `[dl·16, dr]` matricization (left bond + physical vs right
    /// bond). Shares the row-major layout, so this is a reshape.
    fn left_mat(&self) -> Matrix {
        Matrix::from_flat(self.dl * 16, self.dr, self.data.clone())
    }

    /// The `[dl, 16·dr]` matricization (left bond vs physical + right
    /// bond). Also a pure reshape of the same buffer.
    fn right_mat(&self) -> Matrix {
        Matrix::from_flat(self.dl, 16 * self.dr, self.data.clone())
    }

    fn from_left_mat(m: Matrix, dl: usize) -> Site {
        let dr = m.cols();
        debug_assert_eq!(m.rows(), dl * 16);
        Site {
            dl,
            dr,
            data: m.as_slice().to_vec(),
        }
    }

    fn from_right_mat(m: Matrix, dr: usize) -> Site {
        let dl = m.rows();
        debug_assert_eq!(m.cols(), 16 * dr);
        Site {
            dl,
            dr,
            data: m.as_slice().to_vec(),
        }
    }
}

/// Modified Gram-Schmidt QR with a reorthogonalization pass:
/// `A = Q·R` with `Q` of shape `[m, min(m, k)]` having orthonormal
/// columns and `R` of shape `[min(m, k), k]`. Numerically vanished
/// columns are replaced by fill-in basis vectors (their `R` entry stays
/// zero, so the product is unchanged and `Q` stays a strict isometry).
fn mgs_qr(a: &Matrix) -> (Matrix, Matrix) {
    let (m, k) = a.shape();
    let kq = m.min(k);
    let mut q = a.clone();
    let mut r = Matrix::zeros(kq, k);
    for j in 0..k {
        for _pass in 0..2 {
            for i in 0..j.min(kq) {
                let mut dot = C64::ZERO;
                for t in 0..m {
                    dot += q[(t, i)].conj() * q[(t, j)];
                }
                r[(i, j)] += dot;
                for t in 0..m {
                    let sub = q[(t, i)] * dot;
                    q[(t, j)] -= sub;
                }
            }
        }
        if j < kq {
            let norm = (0..m).map(|t| q[(t, j)].norm_sqr()).sum::<f64>().sqrt();
            if norm > 1e-300 {
                r[(j, j)] = C64::new(norm, 0.0);
                let inv = 1.0 / norm;
                for t in 0..m {
                    q[(t, j)] = q[(t, j)] * inv;
                }
            } else {
                fill_orthonormal(&mut q, j, m);
            }
        }
        // Columns j ≥ kq were orthogonalized against a complete basis of
        // C^m; their residual is zero to rounding and has no Q column.
    }
    if k > kq {
        q = Matrix::from_fn(m, kq, |t, i| q[(t, i)]);
    }
    (q, r)
}

/// Replaces the (numerically zero) column `j` of `q` with a unit vector
/// orthogonal to columns `0..j`: picks the canonical basis vector whose
/// residual against the existing columns is largest, then normalizes.
fn fill_orthonormal(q: &mut Matrix, j: usize, m: usize) {
    let mut best: Option<(f64, Vec<C64>)> = None;
    for t in 0..m {
        let mut v = vec![C64::ZERO; m];
        v[t] = C64::ONE;
        for i in 0..j {
            let mut dot = C64::ZERO;
            for s in 0..m {
                dot += q[(s, i)].conj() * v[s];
            }
            for s in 0..m {
                let sub = q[(s, i)] * dot;
                v[s] -= sub;
            }
        }
        let nsq: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        if best.as_ref().is_none_or(|(b, _)| nsq > *b) {
            best = Some((nsq, v));
        }
    }
    let (nsq, v) = best.expect("m >= 1");
    let inv = 1.0 / nsq.sqrt();
    for (s, val) in v.into_iter().enumerate() {
        q[(s, j)] = val * inv;
    }
}

/// A matrix product operator over `n` qubit sites with rigorous
/// truncation-error accounting. See the module docs for the canonical
/// form and the error-bound argument; [`Mpo::identity`] starts the
/// chain at the `4^n`-dimensional identity and [`Mpo::apply`] drives
/// superoperator layers onto it.
pub struct Mpo {
    sites: Vec<Site>,
    /// Qubit label carried by each site (routing reorders qubits).
    site_q: Vec<usize>,
    /// Inverse of `site_q`: current site of each qubit.
    pos: Vec<usize>,
    center: usize,
    /// Global scalar `2^n`: the represented operator is
    /// `scale · (site product)`.
    scale: f64,
    /// Accumulated truncation error, in units that bound `|ΔF|`.
    err: f64,
    bond_peak: usize,
    /// Splits the low-rank SVD answered (it passed the isometry check).
    lowrank_splits: usize,
    threshold: f64,
    max_bond: usize,
}

impl Mpo {
    /// The identity operator on `n` qubits as an MPO: bond dimension 1
    /// everywhere, each site `(1/2)·I₄` with global `scale = 2^n`.
    ///
    /// `svd_threshold` is the per-truncation relative Frobenius budget
    /// (singular values are discarded greedily while the discarded mass
    /// stays below `threshold · ‖block‖_F`); `max_bond` caps every bond
    /// unconditionally, with the overflow charged to the error bound.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `max_bond == 0`.
    pub fn identity(n: usize, svd_threshold: f64, max_bond: usize) -> Mpo {
        assert!(n >= 1, "MPO needs at least one site");
        assert!(max_bond >= 1, "max_bond must be at least 1");
        let sites = (0..n)
            .map(|_| {
                let mut data = vec![C64::ZERO; 16];
                for p in 0..4 {
                    data[p * 4 + p] = C64::new(0.5, 0.0);
                }
                Site { dl: 1, dr: 1, data }
            })
            .collect();
        Mpo {
            sites,
            site_q: (0..n).collect(),
            pos: (0..n).collect(),
            center: 0,
            scale: (n as f64).exp2(),
            err: 0.0,
            bond_peak: 1,
            lowrank_splits: 0,
            threshold: svd_threshold,
            max_bond,
        }
    }

    /// Number of qubit sites.
    pub fn n_qubits(&self) -> usize {
        self.sites.len()
    }

    /// The accumulated truncation-error bound: `|F_exact − F_mpo|` is
    /// at most this (up to floating-point rounding slack, which callers
    /// add separately).
    pub fn trunc_error(&self) -> f64 {
        self.err
    }

    /// Largest bond dimension reached at any point so far.
    pub fn bond_max(&self) -> usize {
        self.bond_peak
    }

    /// Bond splits answered by the low-rank SVD so far (the rest used
    /// the full SVD: small matrices, or a low-rank result whose kept
    /// vectors failed the isometry check).
    pub fn lowrank_splits(&self) -> usize {
        self.lowrank_splits
    }

    /// `Tr(M)` of the represented operator, including the global scale.
    /// The trace contracts each site's physical legs diagonally
    /// (`out = in`), so it is a single left-to-right bond sweep.
    pub fn trace(&self) -> C64 {
        let mut v = vec![C64::ONE];
        for site in &self.sites {
            let mut nv = vec![C64::ZERO; site.dr];
            for (l, &vl) in v.iter().enumerate().take(site.dl) {
                if vl == C64::ZERO {
                    continue;
                }
                for p in 0..4 {
                    let base = (l * 16 + p * 4 + p) * site.dr;
                    for (r, out) in nv.iter_mut().enumerate() {
                        *out += vl * site.data[base + r];
                    }
                }
            }
            v = nv;
        }
        v[0] * self.scale
    }

    /// Applies a superoperator `w` (site-major layout, `4^a × 4^a` for
    /// `a = qubits.len()`) to the given qubits on the given [`Side`].
    ///
    /// `norm` must be an upper bound on `‖w‖₂` (use
    /// [`crate::superop_norm`], or `1.0` for unitary gate
    /// superoperators): previously accumulated truncation error passes
    /// through `w` and is amplified by it. Non-adjacent qubits are
    /// routed together with truncated swap layers (their error is
    /// accounted like any other truncation), applied, and left in their
    /// new positions.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is empty, repeats a qubit, references a qubit
    /// out of range, or `w` is not `4^a × 4^a`.
    pub fn apply(&mut self, qubits: &[usize], w: &Matrix, side: Side, norm: f64) {
        let a = qubits.len();
        assert!(a >= 1, "superoperator must act on at least one qubit");
        let d = 1usize << (2 * a);
        assert_eq!(
            w.shape(),
            (d, d),
            "superoperator on {a} qubits must be {d}×{d}"
        );
        for (i, q) in qubits.iter().enumerate() {
            assert!(*q < self.sites.len(), "qubit {q} out of range");
            assert!(!qubits[..i].contains(q), "repeated qubit {q}");
        }
        let s = self.route_adjacent(qubits);
        self.ensure_center_in(s, s + a - 1);
        self.err *= norm;
        let (theta, dl, dr) = self.merge(s, a);
        let out = apply_superop(&theta, dl, dr, a, w, side);
        self.split_theta(s, a, out, dl, dr);
    }

    /// Moves the orthogonality center into `[lo, hi]` with exact QR/LQ
    /// sweeps (no truncation, no error).
    fn ensure_center_in(&mut self, lo: usize, hi: usize) {
        while self.center < lo {
            self.move_center_right();
        }
        while self.center > hi {
            self.move_center_left();
        }
    }

    fn move_center_right(&mut self) {
        let c = self.center;
        let dl = self.sites[c].dl;
        let (q, r) = mgs_qr(&self.sites[c].left_mat());
        self.sites[c] = Site::from_left_mat(q, dl);
        let next_dr = self.sites[c + 1].dr;
        let absorbed = r.mul(&self.sites[c + 1].right_mat());
        self.sites[c + 1] = Site::from_right_mat(absorbed, next_dr);
        self.center = c + 1;
    }

    fn move_center_left(&mut self) {
        let c = self.center;
        let dr = self.sites[c].dr;
        // LQ via QR of the adjoint: A = R†·Q† with Q† row-orthonormal.
        let (q, r) = mgs_qr(&self.sites[c].right_mat().adjoint());
        self.sites[c] = Site::from_right_mat(q.adjoint(), dr);
        let prev_dl = self.sites[c - 1].dl;
        let absorbed = self.sites[c - 1].left_mat().mul(&r.adjoint());
        self.sites[c - 1] = Site::from_left_mat(absorbed, prev_dl);
        self.center = c - 1;
    }

    /// Contracts sites `s..s+a` into a single block tensor
    /// `[dl, 16^a, dr]` (physical composite site-major), returned as a
    /// flat row-major buffer with its bond dimensions.
    fn merge(&self, s: usize, a: usize) -> (Vec<C64>, usize, usize) {
        let dl = self.sites[s].dl;
        let mut tm = self.sites[s].left_mat();
        for j in 1..a {
            // Row-major [(l,P), (p_next, r')] is the same buffer as
            // [(l, P·16 + p_next), r'], so the reshape is free.
            let prod = tm.mul(&self.sites[s + j].right_mat());
            let rows = prod.rows() * 16;
            let cols = prod.cols() / 16;
            tm = Matrix::from_flat(rows, cols, prod.as_slice().to_vec());
        }
        let dr = tm.cols();
        (tm.as_slice().to_vec(), dl, dr)
    }

    /// Splits a block tensor back into `a` sites with a truncating SVD
    /// at each internal cut. The environment is isometric on both sides
    /// (center was inside the block), so each discarded mass is charged
    /// to `err` as an exact global Frobenius error. The center ends on
    /// the block's last site.
    fn split_theta(&mut self, s: usize, a: usize, theta: Vec<C64>, dl: usize, dr: usize) {
        if a == 1 {
            self.sites[s] = Site {
                dl,
                dr,
                data: theta,
            };
            self.center = s;
            return;
        }
        let mut cur = theta;
        let mut dl_cur = dl;
        for j in 0..a - 1 {
            let rest = 16usize.pow((a - 1 - j) as u32) * dr;
            let rows = dl_cur * 16;
            let am = Matrix::from_flat(rows, rest, cur);
            let min_side = rows.min(rest);
            let block = (self.max_bond + OVERSAMPLE).min(min_side);
            let (threshold, max_bond) = (self.threshold, self.max_bond);
            let truncate = |dec: Svd| {
                let spec = truncation_spec(&dec.sigma, dec.total_sq, threshold, max_bond);
                (spec, dec)
            };
            let lowrank = (min_side > FULL_SVD_MAX_SIDE && block < min_side)
                .then(|| truncate(svd_lowrank(&am, block)))
                .filter(|(spec, dec)| orthonormal_columns(&dec.u, spec.keep, ISOMETRY_TOL));
            self.lowrank_splits += usize::from(lowrank.is_some());
            let (spec, dec) = lowrank.unwrap_or_else(|| truncate(svd(&am)));
            self.err += spec.discarded;
            let keep = spec.keep;
            self.bond_peak = self.bond_peak.max(keep);
            let mut site = vec![C64::ZERO; rows * keep];
            for t in 0..rows {
                for i in 0..keep {
                    site[t * keep + i] = dec.u[(t, i)];
                }
            }
            self.sites[s + j] = Site {
                dl: dl_cur,
                dr: keep,
                data: site,
            };
            let mut carry = vec![C64::ZERO; keep * rest];
            for i in 0..keep {
                let row = i * rest;
                for c in 0..rest {
                    carry[row + c] = dec.vh[(i, c)] * dec.sigma[i];
                }
            }
            cur = carry;
            dl_cur = keep;
        }
        self.sites[s + a - 1] = Site {
            dl: dl_cur,
            dr,
            data: cur,
        };
        self.center = s + a - 1;
    }

    /// Swaps the qubits at sites `s` and `s+1` by merging the pair,
    /// permuting the physical legs, and splitting with truncation.
    fn swap_sites(&mut self, s: usize) {
        self.ensure_center_in(s, s + 1);
        let (theta, dl, dr) = self.merge(s, 2);
        let mut out = vec![C64::ZERO; theta.len()];
        for l in 0..dl {
            for p1 in 0..16 {
                for p2 in 0..16 {
                    let src = (l * 256 + p1 * 16 + p2) * dr;
                    let dst = (l * 256 + p2 * 16 + p1) * dr;
                    out[dst..dst + dr].copy_from_slice(&theta[src..src + dr]);
                }
            }
        }
        self.split_theta(s, 2, out, dl, dr);
        let (qa, qb) = (self.site_q[s], self.site_q[s + 1]);
        self.site_q[s] = qb;
        self.site_q[s + 1] = qa;
        self.pos[qa] = s + 1;
        self.pos[qb] = s;
    }

    /// Bubbles the given qubits into adjacent sites in the listed
    /// order; returns the site now holding `qs[0]`. The target is
    /// recomputed after every swap, so bubbling a qubit through
    /// already-placed block members keeps the block contiguous.
    fn route_adjacent(&mut self, qs: &[usize]) -> usize {
        for i in 1..qs.len() {
            loop {
                let target = self.pos[qs[i - 1]] + 1;
                let p = self.pos[qs[i]];
                if p == target {
                    break;
                }
                if p > target {
                    self.swap_sites(p - 1);
                } else {
                    self.swap_sites(p);
                }
            }
        }
        self.pos[qs[0]]
    }
}

/// Applies `w` to the physical legs of a merged block tensor. `w` uses
/// site-major doubled indices in `[0, 4^a)`; the block's composite
/// physical index interleaves per-site (out, in) pairs, so index
/// tables translate between the two. Iteration runs over the nonzero
/// entries of `w` — gate superoperators are sparse.
fn apply_superop(
    theta: &[C64],
    dl: usize,
    dr: usize,
    a: usize,
    w: &Matrix,
    side: Side,
) -> Vec<C64> {
    let d = 1usize << (2 * a); // 4^a: composite out (or in) leg
    let pdim = d * d; // 16^a: fused physical composite
                      // idx_of[PO·d + PI] = interleaved composite physical index P.
    let mut idx_of = vec![0usize; pdim];
    for p in 0..pdim {
        let mut po = 0usize;
        let mut pi = 0usize;
        let mut rem = p;
        for _ in 0..a {
            let digit = rem / (pdim / 16);
            let (hi, lo) = (digit / 4, digit % 4);
            po = po * 4 + hi;
            pi = pi * 4 + lo;
            rem = (rem % (pdim / 16)) * 16;
        }
        idx_of[po * d + pi] = p;
    }
    let mut nnz = Vec::new();
    for row in 0..d {
        for col in 0..d {
            let v = w[(row, col)];
            if v != C64::ZERO {
                nnz.push((row, col, v));
            }
        }
    }
    let mut out = vec![C64::ZERO; theta.len()];
    for &(row, col, v) in &nnz {
        for other in 0..d {
            let (src_p, dst_p) = match side {
                // M ← W·M: out legs transform, row is the new out index.
                Side::Left => (idx_of[col * d + other], idx_of[row * d + other]),
                // M ← M·W: in legs transform, col is the new in index.
                Side::Right => (idx_of[other * d + row], idx_of[other * d + col]),
            };
            for l in 0..dl {
                let sb = (l * pdim + src_p) * dr;
                let db = (l * pdim + dst_p) * dr;
                for r in 0..dr {
                    out[db + r] += v * theta[sb + r];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::superop::gate_superop;
    use qaec_circuit::Gate;

    #[test]
    fn identity_trace_is_4_to_n() {
        for n in 1..=5 {
            let mpo = Mpo::identity(n, 1e-8, 16);
            let t = mpo.trace();
            assert!((t.re - 4f64.powi(n as i32)).abs() < 1e-12);
            assert!(t.im.abs() < 1e-12);
        }
    }

    #[test]
    fn unitary_left_then_adjoint_right_restores_identity() {
        // M = W · I · W† = I for a unitary superoperator, applied on
        // opposite sides; exercises both code paths.
        let mut mpo = Mpo::identity(3, 1e-12, 64);
        let w = gate_superop(&Gate::Cx);
        let wd = gate_superop(&Gate::Cx); // cx is self-adjoint
        mpo.apply(&[0, 1], &w, Side::Left, 1.0);
        mpo.apply(&[0, 1], &wd, Side::Right, 1.0);
        let t = mpo.trace();
        assert!((t.re - 64.0).abs() < 1e-9, "trace {}", t.re);
        // The Gram-SVD residual certifies no tighter than √eps·‖A‖ per
        // truncation, so the bound floors near 1e-8 even when nothing
        // was actually discarded.
        assert!(mpo.trunc_error() < 1e-6);
    }

    #[test]
    fn routing_nonadjacent_qubits_preserves_unitarity() {
        // cx on (0, 2) twice is the identity; the first application
        // routes qubit 2 next to qubit 0 and leaves it there, the
        // second finds them already adjacent.
        let mut mpo = Mpo::identity(4, 1e-12, 64);
        let w = gate_superop(&Gate::Cx);
        mpo.apply(&[0, 2], &w, Side::Left, 1.0);
        mpo.apply(&[0, 2], &w, Side::Left, 1.0);
        let t = mpo.trace();
        assert!((t.re - 256.0).abs() < 1e-8, "trace {}", t.re);
        assert!(mpo.trunc_error() < 1e-6);
    }

    #[test]
    fn reversed_qubit_order_matches_swapped_gate() {
        // cx with control/target reversed equals swap·cx·swap; check
        // via trace against the explicitly-routed application.
        let w = gate_superop(&Gate::Cx);
        let mut a = Mpo::identity(2, 1e-12, 64);
        a.apply(&[1, 0], &w, Side::Left, 1.0);
        let mut b = Mpo::identity(2, 1e-12, 64);
        let sw = gate_superop(&Gate::Swap);
        b.apply(&[0, 1], &sw, Side::Left, 1.0);
        b.apply(&[0, 1], &w, Side::Left, 1.0);
        b.apply(&[0, 1], &sw, Side::Left, 1.0);
        let (ta, tb) = (a.trace(), b.trace());
        assert!((ta - tb).abs() < 1e-9);
    }

    #[test]
    fn max_bond_cap_is_charged_to_error() {
        // A three-qubit entangler at bond cap 1 must truncate, and the
        // engine must admit it in the error bound rather than report a
        // confident wrong trace.
        let mut mpo = Mpo::identity(3, 1e-12, 1);
        for q in 0..3 {
            mpo.apply(&[q], &gate_superop(&Gate::H), Side::Left, 1.0);
        }
        mpo.apply(&[0, 1], &gate_superop(&Gate::Cx), Side::Left, 1.0);
        mpo.apply(&[1, 2], &gate_superop(&Gate::Cx), Side::Left, 1.0);
        assert!(mpo.bond_max() == 1);
        assert!(mpo.trunc_error() > 0.0);
    }

    #[test]
    #[should_panic(expected = "repeated qubit")]
    fn repeated_qubits_are_rejected() {
        let mut mpo = Mpo::identity(2, 1e-8, 8);
        let w = gate_superop(&Gate::Cx);
        mpo.apply(&[0, 0], &w, Side::Left, 1.0);
    }
}
