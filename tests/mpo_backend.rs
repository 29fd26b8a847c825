//! The MPO approximate backend (Algorithm III) against the exact
//! algorithms, and the `Auto` portfolio's escalation contract.
//!
//! The contracts under test:
//!
//! * **Interval soundness** — on every smoke-class scenario and noise
//!   strength, the certified interval `[F_lo, F_hi]` of an explicit
//!   `--algorithm mpo` check contains the exact Algorithm II fidelity;
//! * **Tight-threshold parity** — with the truncation threshold tiny
//!   and the bond cap generous nothing is discarded, and the midpoint
//!   estimate matches the exact fidelity to 1e-9;
//! * **Verdict agreement** — whenever the interval decides at the
//!   paper's ε values, the verdict equals the exact one (an interval
//!   that cannot decide says `Inconclusive`, never the wrong side);
//! * **Portfolio escalation** — `Auto` on a wide, weakly-coupled pair
//!   runs the MPO pass; at an ε the interval straddles it escalates to
//!   an exact backend (recording the agreement cross-check) and never
//!   returns an inconclusive or interval-straddling verdict.

use qaec::{
    check_equivalence, jamiolkowski_fidelity, mpo_favored, AlgorithmChoice, AlgorithmUsed,
    CheckOptions, Checker, Verdict, MPO_WIDTH_THRESHOLD,
};
use qaec_circuit::generators::{ghz, grover_dac21, qft, quantum_volume, tile, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};

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

/// The wide, weakly-coupled fixture the portfolio routes to MPO: eight
/// independent noisy QFT blocks, 24 qubits in total.
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

/// `Auto` picks the MPO pass on the wide/shallow pair and answers from
/// it when the interval decides — and the session records Algorithm III
/// as the method used.
#[test]
fn auto_portfolio_answers_from_mpo_when_decidable() {
    let (ideal, noisy) = wide_shallow_pair();
    assert!(ideal.n_qubits() >= MPO_WIDTH_THRESHOLD);
    assert!(mpo_favored(&noisy), "fixture must be portfolio-favored");
    let mut compiled = Checker::new(&ideal, &noisy)
        .options(CheckOptions::default())
        .compile()
        .expect("auto compile");
    // A generous ε: the certified interval decides without escalation.
    let report = compiled.check(0.5).expect("auto check");
    assert_eq!(report.algorithm, AlgorithmUsed::Mpo);
    assert_eq!(report.verdict, Verdict::Equivalent);
    assert_eq!(
        report.cross_check, None,
        "no escalation, nothing to compare"
    );
    // The verdict agrees with a cold exact check.
    let exact = check_equivalence(
        &ideal,
        &noisy,
        0.5,
        &CheckOptions {
            algorithm: AlgorithmChoice::AlgorithmII,
            ..CheckOptions::default()
        },
    )
    .expect("exact comparator");
    assert_eq!(report.verdict, exact.verdict);
}

/// The Table I seed: noise placement of the wide24 and ghz8 pairs.
const NOISE_SEED: u64 = 0xDAC2021;

/// `wide24`: `tile(qft3, 8)`, each block with one depolarizing site
/// (p = 0.998), checked at ε = 0.2.
fn wide24() -> (Circuit, Circuit) {
    let block = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy_block = insert_random_noise(
        &block,
        &NoiseChannel::Depolarizing { p: 0.998 },
        1,
        NOISE_SEED + 24,
    );
    (tile(&block, 8), tile(&noisy_block, 8))
}

/// On wide24 the MPO interval decides with Algorithm II's verdict,
/// holds the exact fidelity and stays on bonds of at most 4; `Auto`
/// answers from that MPO pass. ghz8, whose one interaction component
/// spans the register, goes to an exact backend.
#[test]
fn wide24_decides_on_mpo_and_ghz8_routes_to_an_exact_backend() {
    let epsilon = 0.2;
    let (ideal, noisy) = wide24();
    let exact_options = CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        ..CheckOptions::default()
    };
    let exact = check_equivalence(&ideal, &noisy, epsilon, &exact_options).expect("exact");
    let mpo = mpo_check(&ideal, &noisy, epsilon, 1e-8, 16);
    assert_eq!(mpo.algorithm, AlgorithmUsed::Mpo);
    assert_ne!(mpo.verdict, Verdict::Inconclusive);
    assert_eq!(mpo.verdict, exact.verdict);
    let (lo, hi) = mpo.fidelity_bounds;
    let f = exact.fidelity_bounds.0;
    assert!(
        lo - 1e-12 <= f && f <= hi + 1e-12,
        "exact {f} outside certified [{lo}, {hi}]"
    );
    let bond = mpo.bond_max.expect("mpo reports bond_max");
    assert!(bond <= 4, "bond_max {bond}");

    let auto = |ideal: &Circuit, noisy: &Circuit| {
        let mut compiled = Checker::new(ideal, noisy)
            .options(CheckOptions::default())
            .compile()
            .expect("auto compile");
        compiled.check(epsilon).expect("auto check")
    };
    assert!(mpo_favored(&noisy));
    let report = auto(&ideal, &noisy);
    assert_eq!(report.algorithm, AlgorithmUsed::Mpo);
    assert_eq!(report.verdict, exact.verdict);

    let ghz8 = ghz(8);
    let ghz8_noisy = insert_random_noise(
        &ghz8,
        &NoiseChannel::Depolarizing { p: 0.999 },
        2,
        NOISE_SEED + 25,
    );
    assert!(!mpo_favored(&ghz8_noisy));
    assert_ne!(auto(&ghz8, &ghz8_noisy).algorithm, AlgorithmUsed::Mpo);
}

/// When the certified interval straddles 1 − ε, `Auto` escalates to an
/// exact backend end-to-end: the report carries the exact algorithm, a
/// point (or proven) interval that does not straddle the threshold, and
/// the recorded cross-check against the MPO pass.
#[test]
fn auto_escalates_on_straddling_interval() {
    let (ideal, noisy) = wide_shallow_pair();
    // Find an ε the MPO interval cannot decide, from an explicit MPO
    // run's own bounds (the midpoint puts 1 − ε strictly inside them).
    let probe = mpo_check(&ideal, &noisy, 0.5, 1e-8, 16);
    let (lo, hi) = probe.fidelity_bounds;
    assert!(lo < hi, "truncation must have widened the interval");
    let epsilon = 1.0 - (lo + hi) / 2.0;

    let mut compiled = Checker::new(&ideal, &noisy)
        .options(CheckOptions::default())
        .compile()
        .expect("auto compile");
    let report = compiled.check(epsilon).expect("auto check");
    assert_ne!(
        report.algorithm,
        AlgorithmUsed::Mpo,
        "a straddling interval must escalate to an exact backend"
    );
    assert_ne!(report.verdict, Verdict::Inconclusive);
    // The escalated report still carries the MPO pass's metadata and the
    // two backends' intervals intersect.
    assert_eq!(report.cross_check, Some(true));
    assert!(report.trunc_error.is_some());
    assert!(report.bond_max.is_some());
    // And the Auto verdict is the exact verdict.
    let exact = check_equivalence(
        &ideal,
        &noisy,
        epsilon,
        &CheckOptions {
            algorithm: AlgorithmChoice::AlgorithmII,
            ..CheckOptions::default()
        },
    )
    .expect("exact comparator");
    assert_eq!(report.verdict, exact.verdict);
    assert_eq!(
        report.fidelity_bounds.0.to_bits(),
        exact.fidelity_bounds.0.to_bits(),
        "escalated bounds are the exact backend's bounds"
    );
}

/// Exact queries on an `Auto` portfolio session keep the exactness
/// promise: `fidelity()` and whole noise sweeps escalate entirely and
/// return bit-identical values to a forced exact session.
#[test]
fn auto_exact_queries_bypass_the_mpo_estimate() {
    let (ideal, noisy) = wide_shallow_pair();
    let exact_opts = CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        ..CheckOptions::default()
    };
    let mut auto_session = Checker::new(&ideal, &noisy)
        .options(CheckOptions::default())
        .compile()
        .expect("auto compile");
    let mut exact_session = Checker::new(&ideal, &noisy)
        .options(exact_opts)
        .compile()
        .expect("exact compile");

    let auto_f = auto_session.fidelity().expect("auto fidelity");
    let exact_f = exact_session.fidelity().expect("exact fidelity");
    assert_eq!(
        auto_f.to_bits(),
        exact_f.to_bits(),
        "Auto fidelity() must be the exact value, not an MPO midpoint"
    );

    let strengths = [0.999, 0.99, 0.95];
    let auto_sweep = auto_session
        .sweep_noise(1e-2, &strengths)
        .expect("auto sweep");
    let exact_sweep = exact_session
        .sweep_noise(1e-2, &strengths)
        .expect("exact sweep");
    for (a, e) in auto_sweep.iter().zip(&exact_sweep) {
        assert_eq!(a.fidelity.to_bits(), e.fidelity.to_bits());
        assert_eq!(a.verdict, e.verdict);
    }
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
