//! The `sweep_lanes` option against the scalar per-point replay.
//!
//! `CheckOptions::sweep_lanes` (`--lanes`) is accepted and has no
//! effect: it once chose how many sweep points a noise sweep contracted
//! together. The contract under test is that it stays a pure no-op —
//! a noise sweep at any lane width is bit-identical to the same
//! session's points replayed one strength at a time, at every thread
//! count — and that a sweep does not depend on the thread count.
//!
//! Options are always set explicitly (the CI thread-sanity and
//! store-reclaim matrices override the defaults via environment
//! variables, and these tests pin exact configurations).

use qaec::{AlgorithmChoice, CheckOptions, Checker, CompiledCheck};
use qaec_circuit::generators::{qft, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};

/// A QFT with several depolarizing sites — the sweep workload shape
/// (every site re-parameterised per point).
fn fixture(n: usize, sites: usize) -> (Circuit, Circuit) {
    let ideal = qft(n, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(
        &ideal,
        &NoiseChannel::Depolarizing { p: 0.999 },
        sites,
        0xC0FFEE + n as u64,
    );
    (ideal, noisy)
}

fn options(threads: usize, lanes: usize) -> CheckOptions {
    CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        threads,
        sweep_lanes: lanes,
        ..CheckOptions::default()
    }
}

fn compile(ideal: &Circuit, noisy: &Circuit, opts: &CheckOptions) -> CompiledCheck {
    Checker::new(ideal, noisy)
        .options(opts.clone())
        .compile()
        .expect("compile")
}

/// Nine strengths: a ragged tail for every former lane width > 1
/// (9 = 8+1 = 4+4+1 = 2·4+1).
const STRENGTHS: [f64; 9] = [0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.97, 0.96];
const EPSILON: f64 = 0.02;

/// Lane widths {1, 2, 4, 8} × threads {1, 4}: every configuration's
/// sweep is bit-identical to a lanes-1 session that sweeps one strength
/// per call (the scalar per-point replay).
#[test]
fn lane_sweep_is_bitwise_identical_to_scalar_replay() {
    let (ideal, noisy) = fixture(3, 4);
    for threads in [1usize, 4] {
        let replay = compile(&ideal, &noisy, &options(threads, 1));
        let scalar: Vec<_> = STRENGTHS
            .iter()
            .map(|&strength| {
                let mut point = replay
                    .sweep_noise(EPSILON, &[strength])
                    .expect("scalar point");
                assert_eq!(point.len(), 1);
                point.remove(0)
            })
            .collect();
        for lanes in [1usize, 2, 4, 8] {
            let swept = compile(&ideal, &noisy, &options(threads, lanes))
                .sweep_noise(EPSILON, &STRENGTHS)
                .expect("lane sweep");
            assert_eq!(swept.len(), scalar.len());
            for (i, (lane, reference)) in swept.iter().zip(&scalar).enumerate() {
                assert_eq!(
                    lane.fidelity.to_bits(),
                    reference.fidelity.to_bits(),
                    "lanes={lanes} t{threads} point {i}: {} != {}",
                    lane.fidelity,
                    reference.fidelity
                );
                assert_eq!(
                    lane.verdict, reference.verdict,
                    "lanes={lanes} t{threads} point {i}"
                );
                assert_eq!(
                    lane.max_nodes, reference.max_nodes,
                    "lanes={lanes} t{threads} point {i}"
                );
            }
        }
    }
}

/// A sweep is thread-count independent: `threads` cannot change a
/// fidelity bit, a verdict or a node count.
#[test]
fn lane_sweep_is_thread_count_independent() {
    let (ideal, noisy) = fixture(3, 4);
    let t1 = compile(&ideal, &noisy, &options(1, 8))
        .sweep_noise(EPSILON, &STRENGTHS)
        .expect("t1 sweep");
    let t4 = compile(&ideal, &noisy, &options(4, 8))
        .sweep_noise(EPSILON, &STRENGTHS)
        .expect("t4 sweep");
    assert_eq!(t1.len(), STRENGTHS.len());
    assert_eq!(t4.len(), STRENGTHS.len());
    for (a, b) in t1.iter().zip(&t4) {
        assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.max_nodes, b.max_nodes);
    }
}
