//! The MPO approximate backend (Algorithm III) against the exact
//! algorithms, and `Auto`'s exact answer on the tiled pairs it used to
//! send to MPO.
//!
//! The contracts under test:
//!
//! * **Interval soundness** — on every smoke-class scenario and noise
//!   strength, and on wide tiled pairs whose bond splits take the
//!   low-rank SVD, the certified interval `[F_lo, F_hi]` of an explicit
//!   `--algorithm mpo` check contains the exact Algorithm II fidelity;
//! * **Tight-threshold parity** — with the truncation threshold tiny
//!   and the bond cap generous nothing is discarded, and the midpoint
//!   estimate matches the exact fidelity to 1e-9;
//! * **Verdict agreement** — whenever the interval decides at the
//!   paper's ε values, the verdict equals the exact one (an interval
//!   that cannot decide says `Inconclusive`, never the wrong side);
//! * **Factorised `Auto`** — a pair whose interaction graph splits into
//!   disjoint components is answered as the product of its components'
//!   Algorithm II fidelities: within 1e-12 of forced Algorithm II on
//!   the whole pair and of the block fidelity to the power of the copy
//!   count, sweep points included, and bit-identical across thread
//!   counts and reclamation modes.

use qaec::{
    check_equivalence, jamiolkowski_fidelity, AlgorithmChoice, AlgorithmUsed, CheckOptions,
    Checker, StoreReclaimMode, Verdict,
};
use qaec_circuit::generators::{ghz, grover_dac21, qft, quantum_volume, tile, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};
use qaec_mpo::{MpoOptions, MpoPlan};

const SEED: u64 = 0xDAC21;

/// Small named ideal circuits that the exact backends answer quickly.
fn scenarios() -> Vec<(&'static str, Circuit)> {
    vec![
        ("qft3", qft(3, QftStyle::DecomposedNoSwaps)),
        ("grover", grover_dac21()),
        ("qv3", quantum_volume(3, 2, SEED)),
        ("tiled-qft", tile(&qft(3, QftStyle::DecomposedNoSwaps), 3)),
    ]
}

fn mpo_options(svd_threshold: f64, max_bond: usize) -> CheckOptions {
    CheckOptions {
        algorithm: AlgorithmChoice::Mpo,
        svd_threshold,
        max_bond,
        ..CheckOptions::default()
    }
}

fn mpo_check(
    ideal: &Circuit,
    noisy: &Circuit,
    epsilon: f64,
    svd_threshold: f64,
    max_bond: usize,
) -> qaec::EquivalenceReport {
    let mut compiled = Checker::new(ideal, noisy)
        .options(mpo_options(svd_threshold, max_bond))
        .compile()
        .expect("mpo compile");
    compiled.check(epsilon).expect("mpo check")
}

/// The certified MPO interval contains the exact fidelity on every
/// smoke scenario, across noise strengths — at default truncation
/// settings, where truncation genuinely happens.
#[test]
fn mpo_interval_contains_exact_fidelity() {
    for (name, ideal) in scenarios() {
        for (k, p) in [0.999, 0.99, 0.9].into_iter().enumerate() {
            let noisy = insert_random_noise(
                &ideal,
                &NoiseChannel::Depolarizing { p },
                2,
                SEED + k as u64,
            );
            let exact =
                jamiolkowski_fidelity(&ideal, &noisy, &CheckOptions::default()).expect("exact");
            let report = mpo_check(&ideal, &noisy, 0.5, 1e-8, 16);
            let (lo, hi) = report.fidelity_bounds;
            assert_eq!(report.algorithm, AlgorithmUsed::Mpo, "{name} p={p}");
            assert!(
                lo - 1e-12 <= exact && exact <= hi + 1e-12,
                "{name} p={p}: exact {exact} outside certified [{lo}, {hi}]"
            );
            assert!(
                report.trunc_error.expect("mpo reports trunc_error") >= 0.0,
                "{name} p={p}"
            );
            assert!(report.bond_max.expect("mpo reports bond_max") >= 1);
        }
    }
}

/// With the truncation threshold tight and the bond cap generous, the
/// MPO contraction is exact up to rounding: the midpoint matches the
/// exact Algorithm II fidelity to 1e-9.
#[test]
fn tight_threshold_midpoint_matches_exact() {
    for (name, ideal) in scenarios() {
        let noisy = insert_random_noise(
            &ideal,
            &NoiseChannel::Depolarizing { p: 0.995 },
            2,
            SEED + 9,
        );
        let exact = jamiolkowski_fidelity(
            &ideal,
            &noisy,
            &CheckOptions {
                algorithm: AlgorithmChoice::AlgorithmII,
                ..CheckOptions::default()
            },
        )
        .expect("exact");
        let report = mpo_check(&ideal, &noisy, 0.5, 1e-13, 4096);
        let midpoint = (report.fidelity_bounds.0 + report.fidelity_bounds.1) / 2.0;
        assert!(
            (midpoint - exact).abs() < 1e-9,
            "{name}: midpoint {midpoint} vs exact {exact}"
        );
    }
}

/// At the paper's ε values a decided MPO verdict always agrees with the
/// exact decision; an undecidable interval is `Inconclusive`, never the
/// wrong side.
#[test]
fn decided_mpo_verdicts_agree_with_exact() {
    for (name, ideal) in scenarios() {
        let noisy = insert_random_noise(
            &ideal,
            &NoiseChannel::Depolarizing { p: 0.99 },
            2,
            SEED + 17,
        );
        for epsilon in [1e-4, 1e-2, 0.1, 0.3] {
            let exact = check_equivalence(&ideal, &noisy, epsilon, &CheckOptions::default())
                .expect("exact check");
            let report = mpo_check(&ideal, &noisy, epsilon, 1e-8, 16);
            if report.verdict != Verdict::Inconclusive {
                assert_eq!(
                    report.verdict, exact.verdict,
                    "{name} ε={epsilon}: decided MPO verdict must match exact"
                );
            }
        }
    }
}

/// A wide, weakly-coupled pair: eight independent noisy QFT blocks,
/// 24 qubits in total.
fn wide_shallow_pair() -> (Circuit, Circuit) {
    let block = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy_block = insert_random_noise(
        &block,
        &NoiseChannel::Depolarizing { p: 0.998 },
        1,
        SEED + 33,
    );
    (tile(&block, 8), tile(&noisy_block, 8))
}

/// An explicit MPO session sweeps noise per point on re-instantiated
/// channels: every point's estimate is within the certified width of
/// the exact value and decided verdicts agree.
#[test]
fn explicit_mpo_noise_sweep_tracks_exact() {
    let (ideal, noisy) = wide_shallow_pair();
    let strengths = [0.999, 0.99, 0.9];
    let mpo_session = Checker::new(&ideal, &noisy)
        .options(mpo_options(1e-8, 16))
        .compile()
        .expect("mpo compile");
    let exact_session = Checker::new(&ideal, &noisy)
        .options(CheckOptions {
            algorithm: AlgorithmChoice::AlgorithmII,
            ..CheckOptions::default()
        })
        .compile()
        .expect("exact compile");
    let mpo_points = mpo_session.sweep_noise(0.5, &strengths).expect("mpo sweep");
    let exact_points = exact_session
        .sweep_noise(0.5, &strengths)
        .expect("exact sweep");
    for ((p, m), e) in strengths.iter().zip(&mpo_points).zip(&exact_points) {
        // The estimate is a midpoint of an interval whose half-width the
        // backend certifies; 1e-6 is orders of magnitude above the
        // per-truncation floor and far below any physical effect.
        assert!(
            (m.fidelity - e.fidelity).abs() < 1e-6,
            "p={p}: mpo {} vs exact {}",
            m.fidelity,
            e.fidelity
        );
        if m.verdict != Verdict::Inconclusive {
            assert_eq!(m.verdict, e.verdict, "p={p}");
        }
    }
}

/// Past 64 qubits the Hilbert-space dimension `2^n` no longer fits a
/// `u64` shift: Algorithm II must still normalise by the true dimension.
/// `tile(qft3 + one depolarizing site, k)` has `F_J = 0.999^k` exactly,
/// and the certified MPO interval must contain the exact answer.
#[test]
fn fidelity_past_64_qubits_keeps_its_dimension() {
    let block = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy_block =
        insert_random_noise(&block, &NoiseChannel::Depolarizing { p: 0.999 }, 1, SEED);
    for copies in [22usize, 32] {
        let (ideal, noisy) = (tile(&block, copies), tile(&noisy_block, copies));
        assert!(ideal.n_qubits() > 64, "{} qubits", ideal.n_qubits());
        let alg2 = jamiolkowski_fidelity(
            &ideal,
            &noisy,
            &CheckOptions {
                algorithm: AlgorithmChoice::AlgorithmII,
                ..CheckOptions::default()
            },
        )
        .expect("exact");
        let expected = 0.999f64.powi(copies as i32);
        assert!(
            (alg2 - expected).abs() < 1e-9,
            "{copies} copies: Algorithm II {alg2} vs {expected}"
        );
        let (lo, hi) = mpo_check(&ideal, &noisy, 0.5, 1e-8, 16).fidelity_bounds;
        assert!(
            lo - 1e-12 <= alg2 && alg2 <= hi + 1e-12,
            "{copies} copies: {alg2} outside certified [{lo}, {hi}]"
        );
    }
}

/// `copies` side-by-side copies of one noisy block.
struct Tiled {
    label: String,
    block: Circuit,
    noisy_block: Circuit,
    copies: usize,
}

impl Tiled {
    fn pair(&self) -> (Circuit, Circuit) {
        (
            tile(&self.block, self.copies),
            tile(&self.noisy_block, self.copies),
        )
    }
}

/// The Table I seed, which places the `lowrank_pairs`' blocks.
const NOISE_SEED: u64 = 0xDAC2021;

/// Four seeded tiled QV pairs, `(n, d, copies, s)`: the block
/// `quantum_volume(n, d, 0xDAC2021 ^ s)` with 2 depolarizing sites
/// (p = 0.999, placement seed 77 + s). Before the low-rank SVD kept its
/// basis orthonormal, the default MPO interval of each was [1, 1],
/// excluding the exact value, and `Auto` answered `Equivalent` from it
/// at ε = (1 − F)/2.
fn lowrank_pairs() -> Vec<Tiled> {
    [(4, 4, 6, 1), (5, 3, 2, 7), (5, 3, 2, 11), (5, 4, 2, 12)]
        .into_iter()
        .map(|(n, d, copies, s)| {
            let block = quantum_volume(n, d, NOISE_SEED ^ s);
            let channel = NoiseChannel::Depolarizing { p: 0.999 };
            let noisy_block = insert_random_noise(&block, &channel, 2, 77 + s);
            let label = format!("({n},{d},{copies},{s})");
            Tiled {
                label,
                block,
                noisy_block,
                copies,
            }
        })
        .collect()
}

/// The exact `F_J` of a pair: forced Algorithm II on the whole network.
fn exact(ideal: &Circuit, noisy: &Circuit) -> f64 {
    let forced = CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        ..CheckOptions::default()
    };
    jamiolkowski_fidelity(ideal, noisy, &forced).expect("forced Algorithm II")
}

/// On the four `lowrank_pairs`, splits reach the low-rank SVD, and the
/// forced MPO run (default `MpoOptions`, those of forced MPO sessions)
/// certifies an interval that holds forced Algorithm II's value.
#[test]
fn lowrank_mpo_intervals_contain_the_exact_fidelity() {
    std::thread::scope(|scope| {
        for pair in lowrank_pairs() {
            scope.spawn(move || {
                let (ideal, noisy) = pair.pair();
                let out = MpoPlan::compile(&ideal, &noisy).run(&MpoOptions::default());
                assert!(out.lowrank_splits > 0, "{}: no low-rank split", pair.label);
                let f = exact(&ideal, &noisy);
                let (lo, hi) = (out.f_lo, out.f_hi);
                assert!(
                    lo <= f && f <= hi,
                    "{}: {f} outside [{lo}, {hi}]",
                    pair.label
                );
            });
        }
    });
}

/// The tiling relation on `check_suite`'s four tiled shapes (qft3 with
/// one site at 8, 16 and 20 copies, ghz4 with one at 6) and the
/// `lowrank_pairs`: `Auto`'s `F_J(tile(b, k))` is within 1e-12 of
/// forced Algorithm II on the whole pair and of `F_J(b)^k`, equal bit
/// for bit at 1 and 4 threads, and at ε = (1 − F)/2 the default check
/// answers `NotEquivalent`, which the `lowrank_pairs`' MPO intervals
/// used to accept.
#[test]
fn auto_fidelity_of_a_tile_is_the_block_fidelity_to_the_power_of_copies() {
    let qft3 = qft(3, QftStyle::DecomposedNoSwaps);
    let suite = [
        (qft3.clone(), 8),
        (qft3.clone(), 16),
        (qft3, 20),
        (ghz(4), 6),
    ];
    let suite = suite.into_iter().map(|(block, copies)| {
        let channel = NoiseChannel::Depolarizing { p: 0.999 };
        let noisy_block = insert_random_noise(&block, &channel, 1, NOISE_SEED + copies as u64);
        let label = format!("{}q x{copies}", block.n_qubits());
        Tiled {
            label,
            block,
            noisy_block,
            copies,
        }
    });
    for pair in suite.chain(lowrank_pairs()) {
        let (ideal, noisy) = pair.pair();
        let auto = |threads| {
            let options = CheckOptions {
                threads,
                ..CheckOptions::default()
            };
            jamiolkowski_fidelity(&ideal, &noisy, &options).expect("auto")
        };
        let f = auto(1);
        assert_eq!(f.to_bits(), auto(4).to_bits(), "{}", pair.label);
        let power = exact(&pair.block, &pair.noisy_block).powi(pair.copies as i32);
        for reference in [exact(&ideal, &noisy), power] {
            assert!(
                (f - reference).abs() <= 1e-12,
                "{}: {f} vs {reference}",
                pair.label
            );
        }
        let epsilon = (1.0 - power) / 2.0;
        let report = check_equivalence(&ideal, &noisy, epsilon, &CheckOptions::default())
            .expect("auto check");
        assert_eq!(report.verdict, Verdict::NotEquivalent, "{}", pair.label);
        assert_eq!(
            report.algorithm,
            AlgorithmUsed::AlgorithmII,
            "{}",
            pair.label
        );
    }
}

/// A sweep point that gives two copies of one block different strengths
/// runs both on the block's session and still matches forced Algorithm
/// II on the whole pair, bit for bit at 1 and 4 threads with store
/// reclamation on and off. The session reports Algorithm II, and its
/// sites in the whole pair's order.
#[test]
fn auto_sweep_points_with_unequal_copies_match_forced_algorithm_two() {
    let (ideal, noisy) = wide_shallow_pair();
    let forced = CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        ..CheckOptions::default()
    };
    let whole = Checker::new(&ideal, &noisy)
        .options(forced)
        .compile()
        .expect("forced");
    let channels = whole.noise_channels().to_vec();
    let points: Vec<Vec<NoiseChannel>> = [0.998, 0.99]
        .into_iter()
        .map(|p| {
            let mut point = channels.clone();
            point[3] = point[3].with_strength(p).expect("depolarizing");
            point[5] = point[5].with_strength(0.97).expect("depolarizing");
            point
        })
        .collect();
    let reference = whole
        .sweep_noise_channels(1e-2, &points)
        .expect("reference");
    let mut first: Option<Vec<u64>> = None;
    for (threads, store_reclaim) in [(1, StoreReclaimMode::On), (4, StoreReclaimMode::Off)] {
        let options = CheckOptions {
            threads,
            store_reclaim,
            ..CheckOptions::default()
        };
        let auto = Checker::new(&ideal, &noisy)
            .options(options)
            .compile()
            .expect("auto");
        assert_eq!(auto.algorithm(), AlgorithmUsed::AlgorithmII);
        assert_eq!(auto.noise_channels(), &channels[..]);
        let swept = auto
            .sweep_noise_channels(1e-2, &points)
            .expect("auto sweep");
        for (point, exact) in swept.iter().zip(&reference) {
            assert!((point.fidelity - exact.fidelity).abs() <= 1e-12);
            assert_eq!(point.verdict, exact.verdict);
        }
        let bits: Vec<u64> = swept.iter().map(|p| p.fidelity.to_bits()).collect();
        assert_eq!(first.get_or_insert_with(|| bits.clone()), &bits);
    }
}
