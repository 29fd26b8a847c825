//! Epoch-based store reclamation (`CheckOptions::store_reclaim`) is a
//! pure memory knob.
//!
//! The contract under test: compacting the session's store — owned at
//! one thread, shared at more — at quiescent boundaries changes *nothing*
//! observable but the footprint — every sweep fidelity and verdict is
//! bit-identical with reclamation on, off or auto, at every thread
//! count; and on a multi-point sweep the reclaim-on peak
//! footprint stays strictly (in fact multiples) below the append-only
//! reclaim-off peak.
//!
//! Options are always set explicitly (the CI thread-sanity and
//! reclamation matrices override the defaults via environment
//! variables, and these tests pin exact configurations).

use qaec::{AlgorithmChoice, CheckOptions, Checker, CompiledCheck, StoreReclaimMode};
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
        0xEC0 + n as u64,
    );
    (ideal, noisy)
}

fn options(threads: usize, reclaim: StoreReclaimMode) -> CheckOptions {
    CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        threads,
        store_reclaim: reclaim,
        ..CheckOptions::default()
    }
}

fn compile(ideal: &Circuit, noisy: &Circuit, opts: &CheckOptions) -> CompiledCheck {
    Checker::new(ideal, noisy)
        .options(opts.clone())
        .compile()
        .expect("compile")
}

/// Eight distinct strengths: every point interns a fresh set of Kraus
/// weights, so an append-only store grows at every point.
const STRENGTHS: [f64; 8] = [0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.97];
const EPSILON: f64 = 0.02;

/// Reclamation modes {off, on, auto} × threads {1, 4}: every
/// configuration's 8-point sweep is bit-identical to the reclaim-off
/// single-thread reference. Interning is pure (a function of the value,
/// or of the scope's values), no engine value depends on an id, and the
/// fold's frontier migrates bit-exactly, so swapping stores between
/// points cannot move a bit.
#[test]
fn reclaim_modes_are_bit_identical_across_threads() {
    let (ideal, noisy) = fixture(3, 4);
    let reference = compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off))
        .sweep_noise(EPSILON, &STRENGTHS)
        .expect("reference sweep");
    assert_eq!(reference.len(), STRENGTHS.len());
    for threads in [1usize, 4] {
        for reclaim in [
            StoreReclaimMode::Off,
            StoreReclaimMode::On,
            StoreReclaimMode::Auto,
        ] {
            let swept = compile(&ideal, &noisy, &options(threads, reclaim))
                .sweep_noise(EPSILON, &STRENGTHS)
                .expect("sweep");
            assert_eq!(swept.len(), reference.len());
            for (i, (point, expected)) in swept.iter().zip(&reference).enumerate() {
                assert_eq!(
                    point.fidelity.to_bits(),
                    expected.fidelity.to_bits(),
                    "t{threads} {reclaim:?} point {i}: {} != {}",
                    point.fidelity,
                    expected.fidelity
                );
                assert_eq!(
                    point.verdict, expected.verdict,
                    "t{threads} {reclaim:?} point {i}"
                );
            }
        }
    }
}

/// Repeated queries keep their answers across reclamation too — the
/// session's cached knowledge is scalars, never store ids, so a swap
/// between queries is invisible.
#[test]
fn queries_survive_reclamation_between_them() {
    let (ideal, noisy) = fixture(3, 3);
    let mut off = compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off));
    let mut on = compile(&ideal, &noisy, &options(1, StoreReclaimMode::On));
    let f_off = off.fidelity().expect("fidelity off");
    let f_on = on.fidelity().expect("fidelity on");
    assert_eq!(f_off.to_bits(), f_on.to_bits());
    for epsilon in [0.2, 0.05, 0.01] {
        assert_eq!(
            off.verdict(epsilon).expect("verdict off"),
            on.verdict(epsilon).expect("verdict on"),
            "epsilon {epsilon}"
        );
    }
}

/// `Auto` compacts a one-thread session's owned store only once its
/// payload reaches 256 KiB, so a sweep that stays under that budget
/// keeps its warm store: a repeated 8-point sweep re-creates no node,
/// where reclaim-on, which compacts at every point, re-creates each
/// point's diagrams. The counts are bit-identical either way, and
/// [`CompiledCheck::store_reclaims`] counts the compactions.
#[test]
fn auto_keeps_warm_reuse_under_the_owned_budget() {
    let (ideal, noisy) = fixture(3, 4);
    let repeated_nodes = |reclaim| {
        let session = compile(&ideal, &noisy, &options(1, reclaim));
        let first = session
            .sweep_noise(EPSILON, &STRENGTHS)
            .expect("first sweep");
        let repeated = session.sweep_noise(EPSILON, &STRENGTHS).expect("repeated");
        for (a, b) in first.iter().zip(&repeated) {
            assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits(), "{reclaim:?}");
        }
        let nodes: Vec<u64> = repeated.iter().map(|p| p.stats.nodes_created).collect();
        (nodes, session.store_reclaims())
    };
    let (auto, auto_reclaims) = repeated_nodes(StoreReclaimMode::Auto);
    assert_eq!(auto, vec![0; STRENGTHS.len()], "Auto re-created nodes");
    assert_eq!(auto_reclaims, 0);
    let (on, on_reclaims) = repeated_nodes(StoreReclaimMode::On);
    assert!(on.iter().all(|&n| n > 0), "reclaim-on {on:?}");
    assert_eq!(on_reclaims, 2 * STRENGTHS.len() as u64);
}

/// The memory contract: on a multi-point sweep, reclaim-on retires every
/// point's arenas at the point boundary (keeping only the fold's
/// frontier), so its peak footprint is about one point's worth —
/// strictly below the reclaim-off store that accumulates all eight
/// points. The
/// current footprint drops the same way. Fidelities stay bit-equal
/// while it happens.
#[test]
fn reclaim_on_peaks_strictly_below_reclaim_off() {
    let (ideal, noisy) = fixture(4, 5);
    let off = compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off));
    let off_points = off.sweep_noise(EPSILON, &STRENGTHS).expect("off sweep");
    let peak_off = off.warm_store_peak_bytes();
    let on = compile(&ideal, &noisy, &options(1, StoreReclaimMode::On));
    let on_points = on.sweep_noise(EPSILON, &STRENGTHS).expect("on sweep");
    let peak_on = on.warm_store_peak_bytes();
    for (a, b) in off_points.iter().zip(&on_points) {
        assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
        assert_eq!(a.verdict, b.verdict);
    }
    assert!(peak_on > 0, "the store did work");
    assert!(
        peak_on < peak_off,
        "reclaim-on peak {peak_on} B must stay below reclaim-off {peak_off} B"
    );
    assert!(
        on.warm_store_bytes() < off.warm_store_bytes(),
        "reclaim-on current footprint {} B must stay below reclaim-off {} B",
        on.warm_store_bytes(),
        off.warm_store_bytes()
    );
}
