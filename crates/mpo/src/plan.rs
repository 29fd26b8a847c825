//! Compiled MPO programs: a circuit pair lowered to an interleaved
//! sequence of superoperator applications, runnable many times (and at
//! re-instantiated noise strengths) without re-walking the circuits.

use crate::mpo::{Mpo, Side};
use crate::superop::{channel_superop, gate_superop, superop_norm};
use qaec_circuit::{Circuit, NoiseChannel};
use qaec_math::Matrix;
use std::fmt;
use std::time::{Duration, Instant};

/// Tuning knobs for an MPO run.
///
/// `svd_threshold` is the relative Frobenius mass a single truncation
/// may discard (each discarded mass is added to the rigorous error
/// bound, so a looser threshold widens the reported interval rather
/// than silently degrading the answer). `max_bond` caps every bond
/// dimension unconditionally; overflow past the cap is likewise
/// charged to the bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpoOptions {
    /// Relative per-truncation singular-value budget. Default `1e-8`.
    pub svd_threshold: f64,
    /// Hard cap on bond dimension. Default `16`.
    pub max_bond: usize,
}

impl Default for MpoOptions {
    fn default() -> Self {
        MpoOptions {
            svd_threshold: 1e-8,
            max_bond: 16,
        }
    }
}

/// One lowered operation of a compiled plan.
enum PlanOp {
    /// A noisy-side gate superoperator, `M ← W·M` (norm exactly 1).
    Left { qubits: Vec<usize>, w: Matrix },
    /// An ideal-side adjoint gate superoperator, `M ← M·W`.
    Right { qubits: Vec<usize>, w: Matrix },
    /// A noise channel kept as a re-instantiable hole: the superop is
    /// built at run time from `channels[index]`, so noise sweeps can
    /// substitute strengths without recompiling.
    Channel { index: usize, qubits: Vec<usize> },
}

/// The result of running a compiled plan: a point estimate plus the
/// rigorous interval `[f_lo, f_hi]` that is guaranteed to contain the
/// exact Jamiolkowski fidelity of the compiled pair.
#[derive(Clone, Copy, Debug)]
pub struct MpoOutcome {
    /// Midpoint estimate of the Jamiolkowski fidelity, clamped to
    /// `[0, 1]`.
    pub fidelity: f64,
    /// Sound lower bound on the exact fidelity.
    pub f_lo: f64,
    /// Sound upper bound on the exact fidelity.
    pub f_hi: f64,
    /// Largest bond dimension reached during the contraction.
    pub bond_max: usize,
    /// Total accumulated truncation-error bound (half the interval
    /// width before clamping).
    pub trunc_error: f64,
    /// Bond splits the low-rank SVD answered ([`Mpo::lowrank_splits`]).
    pub lowrank_splits: usize,
    /// Wall-clock time of the contraction.
    pub elapsed: Duration,
}

/// A circuit pair compiled to an MPO program.
///
/// Gate superoperators are precomputed; noise channels stay symbolic
/// so [`MpoPlan::run_channels`] can re-instantiate their strengths —
/// the MPO analogue of the exact backends' compiled-sweep path.
pub struct MpoPlan {
    n: usize,
    ops: Vec<PlanOp>,
    channels: Vec<NoiseChannel>,
}

impl fmt::Debug for MpoPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MpoPlan")
            .field("n_qubits", &self.n)
            .field("channels", &self.channels.len())
            .finish()
    }
}

impl MpoPlan {
    /// Compiles an (ideal, noisy) circuit pair into an interleaved
    /// program building `M = S_E · S_U†`: walking the noisy circuit in
    /// order, each noisy gate is paired with the adjoint of the next
    /// ideal gate (applied on the right), so matching prefixes
    /// telescope and `M` stays near the identity — which is exactly
    /// what keeps MPO bonds small.
    ///
    /// # Panics
    ///
    /// Panics if the circuits act on different qubit counts, if the
    /// qubit count is zero, or if `ideal` contains noise instructions.
    pub fn compile(ideal: &Circuit, noisy: &Circuit) -> MpoPlan {
        assert_eq!(
            ideal.n_qubits(),
            noisy.n_qubits(),
            "circuit pair must act on the same qubits"
        );
        let n = ideal.n_qubits();
        assert!(n >= 1, "cannot compile an empty register");
        assert!(
            ideal.instructions().iter().all(|i| i.is_gate()),
            "the ideal circuit must be noise-free"
        );
        let ideal_gates: Vec<_> = ideal.instructions().iter().collect();
        let mut ops = Vec::new();
        let mut channels = Vec::new();
        let mut next_ideal = 0usize;
        for inst in noisy.instructions() {
            match inst.as_noise() {
                Some(ch) => {
                    ops.push(PlanOp::Channel {
                        index: channels.len(),
                        qubits: inst.qubits.clone(),
                    });
                    channels.push(ch.clone());
                }
                None => {
                    let gate = inst.as_gate().expect("instruction is gate or noise");
                    // Ideal adjoint first, then the noisy gate: the
                    // intermediate stays the telescoped near-identity.
                    if let Some(iinst) = ideal_gates.get(next_ideal) {
                        let ig = iinst.as_gate().expect("validated gate-only");
                        ops.push(PlanOp::Right {
                            qubits: iinst.qubits.clone(),
                            w: gate_superop(&ig.adjoint()),
                        });
                        next_ideal += 1;
                    }
                    ops.push(PlanOp::Left {
                        qubits: inst.qubits.clone(),
                        w: gate_superop(gate),
                    });
                }
            }
        }
        for iinst in &ideal_gates[next_ideal..] {
            let ig = iinst.as_gate().expect("validated gate-only");
            ops.push(PlanOp::Right {
                qubits: iinst.qubits.clone(),
                w: gate_superop(&ig.adjoint()),
            });
        }
        MpoPlan { n, ops, channels }
    }

    /// Number of qubits the compiled pair acts on.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The noise channels of the compiled noisy circuit, in program
    /// order — the slice shape expected by [`MpoPlan::run_channels`].
    pub fn channels(&self) -> &[NoiseChannel] {
        &self.channels
    }

    /// Runs the program with its compiled noise channels.
    pub fn run(&self, options: &MpoOptions) -> MpoOutcome {
        self.run_channels(options, &self.channels)
    }

    /// Runs the program with substituted noise channels (one per
    /// compiled channel, in order) — the noise-sweep entry point.
    ///
    /// # Panics
    ///
    /// Panics if `channels.len()` differs from the compiled channel
    /// count.
    pub fn run_channels(&self, options: &MpoOptions, channels: &[NoiseChannel]) -> MpoOutcome {
        assert_eq!(
            channels.len(),
            self.channels.len(),
            "substituted channel count must match the compiled plan"
        );
        let start = Instant::now();
        let mut mpo = Mpo::identity(self.n, options.svd_threshold, options.max_bond);
        // Channel superops repeat heavily in practice (one template
        // instantiated at many sites); cache by channel equality.
        let mut cache: Vec<(NoiseChannel, Matrix, f64)> = Vec::new();
        for op in &self.ops {
            match op {
                PlanOp::Left { qubits, w } => mpo.apply(qubits, w, Side::Left, 1.0),
                PlanOp::Right { qubits, w } => mpo.apply(qubits, w, Side::Right, 1.0),
                PlanOp::Channel { index, qubits } => {
                    let ch = &channels[*index];
                    let hit = cache.iter().position(|(c, _, _)| c == ch);
                    let at = hit.unwrap_or_else(|| {
                        let w = channel_superop(ch);
                        let nu = superop_norm(&w);
                        cache.push((ch.clone(), w, nu));
                        cache.len() - 1
                    });
                    let (_, w, nu) = &cache[at];
                    mpo.apply(qubits, w, Side::Left, *nu);
                }
            }
        }
        let dim = 4f64.powi(self.n as i32);
        let raw = mpo.trace().re / dim;
        // Rounding slack on top of the rigorous truncation bound: one
        // ulp-scale term per applied operation.
        let ferr = mpo.trunc_error() + 1e-12 * (1.0 + self.ops.len() as f64);
        MpoOutcome {
            fidelity: raw.clamp(0.0, 1.0),
            f_lo: (raw - ferr).clamp(0.0, 1.0),
            f_hi: (raw + ferr).clamp(0.0, 1.0),
            bond_max: mpo.bond_max(),
            trunc_error: ferr,
            lowrank_splits: mpo.lowrank_splits(),
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testref::fidelity_ref;
    use qaec_circuit::{Circuit, Gate, NoiseChannel};

    const TIGHT: MpoOptions = MpoOptions {
        svd_threshold: 1e-12,
        max_bond: 64,
    };

    fn assert_exact(ideal: &Circuit, noisy: &Circuit) {
        let fref = fidelity_ref(ideal, noisy);
        let out = MpoPlan::compile(ideal, noisy).run(&TIGHT);
        assert!(
            (out.fidelity - fref).abs() < 1e-9,
            "mpo {} vs dense {fref}",
            out.fidelity
        );
        assert!(out.f_lo <= fref && fref <= out.f_hi);
        assert!(out.f_hi - out.f_lo < 1e-6);
    }

    #[test]
    fn matches_dense_reference_single_qubit() {
        let mut noisy = Circuit::new(1);
        noisy
            .h(0)
            .noise(NoiseChannel::AmplitudeDamping { gamma: 0.2 }, &[0])
            .gate(Gate::Rz(0.4), &[0]);
        assert_exact(&noisy.ideal(), &noisy);
    }

    #[test]
    fn matches_dense_reference_with_routing_and_ccx() {
        // Nonadjacent cx plus a three-qubit gate: exercises swap
        // routing and the arity-3 merge/split path.
        let mut noisy = Circuit::new(3);
        noisy
            .h(0)
            .cx(0, 2)
            .noise(NoiseChannel::Depolarizing { p: 0.97 }, &[2])
            .ccx(0, 1, 2)
            .noise(NoiseChannel::BitFlip { p: 0.99 }, &[1]);
        assert_exact(&noisy.ideal(), &noisy);
    }

    #[test]
    fn detects_genuinely_different_circuits() {
        let mut ideal = Circuit::new(1);
        ideal.h(0);
        let mut noisy = Circuit::new(1);
        noisy.x(0);
        let fref = fidelity_ref(&ideal, &noisy);
        let out = MpoPlan::compile(&ideal, &noisy).run(&TIGHT);
        assert!((out.fidelity - fref).abs() < 1e-9);
        assert!(out.fidelity < 0.6, "h vs x must not look equivalent");
    }

    #[test]
    fn truncated_interval_still_contains_exact_value() {
        // Entangling pair run at a crude threshold and bond cap 2: the
        // point estimate may drift, but the interval must stay sound.
        let mut noisy = Circuit::new(3);
        noisy.h(0).cx(0, 1).cx(1, 2).cp(0.8, 0, 2);
        noisy.noise(NoiseChannel::Depolarizing { p: 0.9 }, &[0]);
        noisy.noise(NoiseChannel::AmplitudeDamping { gamma: 0.15 }, &[2]);
        let ideal = noisy.ideal();
        let fref = fidelity_ref(&ideal, &noisy);
        let out = MpoPlan::compile(&ideal, &noisy).run(&MpoOptions {
            svd_threshold: 1e-2,
            max_bond: 2,
        });
        assert!(
            out.f_lo <= fref && fref <= out.f_hi,
            "[{}, {}] must contain {fref}",
            out.f_lo,
            out.f_hi
        );
    }

    #[test]
    fn run_channels_reinstantiates_noise_strengths() {
        let mut noisy = Circuit::new(2);
        noisy
            .h(0)
            .cx(0, 1)
            .noise(NoiseChannel::Depolarizing { p: 0.999 }, &[1]);
        let plan = MpoPlan::compile(&noisy.ideal(), &noisy);
        let swapped: Vec<_> = plan
            .channels()
            .iter()
            .map(|c| c.with_strength(0.95).expect("depolarizing has a strength"))
            .collect();
        let out = plan.run_channels(&TIGHT, &swapped);
        let mut reref = Circuit::new(2);
        reref
            .h(0)
            .cx(0, 1)
            .noise(NoiseChannel::Depolarizing { p: 0.95 }, &[1]);
        let fref = fidelity_ref(&reref.ideal(), &reref);
        assert!((out.fidelity - fref).abs() < 1e-9);
    }

    #[test]
    fn leftover_ideal_gates_are_applied() {
        // Noisy circuit shorter than ideal: the trailing ideal adjoints
        // must still be folded in.
        let mut ideal = Circuit::new(2);
        ideal.h(0).cx(0, 1).s(1);
        let mut noisy = Circuit::new(2);
        noisy.h(0).cx(0, 1);
        let fref = fidelity_ref(&ideal, &noisy);
        let out = MpoPlan::compile(&ideal, &noisy).run(&TIGHT);
        assert!((out.fidelity - fref).abs() < 1e-9);
    }
}
