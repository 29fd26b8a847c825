//! The compile-once session API (`Checker` / `CompiledCheck`) against
//! the one-shot free functions it wraps.
//!
//! The contract under test: compiling once and querying many times must
//! change *nothing* but the cost — per-query fidelities and verdicts
//! match the one-shot path (bit for bit wherever the engine guarantees
//! determinism), ε-sweeps are monotone, noise sweeps re-instantiate the
//! compiled plan without drifting from cold re-checks, the warm store's
//! statistics are epoch-fenced per query, and the wrappers keep the
//! pinned error precedence.

use qaec::{
    check_equivalence, jamiolkowski_fidelity, AlgorithmChoice, CheckOptions, Checker, QaecError,
    SharedTableMode, StoreReclaimMode, Verdict,
};
use qaec_circuit::generators::{qft, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel, Operation};

/// The shared fixture: a QFT with a few depolarizing sites — small
/// enough for exhaustive Algorithm I, wide enough for Algorithm II.
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

fn options(algorithm: AlgorithmChoice, threads: usize, shared: SharedTableMode) -> CheckOptions {
    CheckOptions {
        algorithm,
        threads,
        shared_table: shared,
        ..CheckOptions::default()
    }
}

/// The same noisy circuit with every noise channel re-parameterised to
/// strength `p` — the cold-path comparator for `sweep_noise`.
fn reparameterise(noisy: &Circuit, p: f64) -> Circuit {
    let mut out = Circuit::new(noisy.n_qubits());
    for instr in noisy.iter() {
        match &instr.op {
            Operation::Gate(g) => {
                out.gate(*g, &instr.qubits);
            }
            Operation::Noise(ch) => {
                let swept = ch.with_strength(p).expect("single-parameter channel");
                out.noise(swept, &instr.qubits);
            }
        }
    }
    out
}

/// Compile-once / query-many returns the one-shot values: bitwise
/// wherever the engine guarantees determinism (sequential runs; any
/// shared-store run — canonical interning makes warm reuse
/// value-transparent), and within the interning tolerance for the one
/// configuration without that guarantee (parallel private stores, whose
/// per-worker interning history is scheduler-dependent).
#[test]
fn compiled_fidelity_matches_one_shot_across_backends() {
    let (ideal, noisy) = fixture(3, 4);
    for algorithm in [AlgorithmChoice::AlgorithmI, AlgorithmChoice::AlgorithmII] {
        for threads in [1usize, 4] {
            for shared in [SharedTableMode::On, SharedTableMode::Off] {
                let opts = options(algorithm, threads, shared);
                let one_shot = jamiolkowski_fidelity(&ideal, &noisy, &opts).expect("one-shot");
                let mut compiled = Checker::new(&ideal, &noisy)
                    .options(opts.clone())
                    .compile()
                    .expect("compile");
                let first = compiled.fidelity().expect("query 1");
                let second = compiled.fidelity().expect("query 2 (cached)");
                let label = format!("{algorithm:?} t{threads} {shared:?}");
                assert_eq!(
                    first.to_bits(),
                    second.to_bits(),
                    "{label}: repeated queries must be stable"
                );
                // Parallel Algorithm I on private stores is the one
                // configuration whose exact sum is only
                // tolerance-reproducible (per-worker interning history
                // depends on scheduling) — everywhere else the session
                // must match the one-shot value bit for bit.
                let bit_deterministic = !(algorithm == AlgorithmChoice::AlgorithmI
                    && threads > 1
                    && shared == SharedTableMode::Off);
                if bit_deterministic {
                    assert_eq!(
                        first.to_bits(),
                        one_shot.to_bits(),
                        "{label}: compiled vs one-shot drifted: {first} vs {one_shot}"
                    );
                } else {
                    assert!(
                        (first - one_shot).abs() < 1e-9,
                        "{label}: {first} vs {one_shot}"
                    );
                }
            }
        }
    }
}

/// `check` on a fresh session equals `check_equivalence` (verdict and
/// bounds), and `verdict` keeps agreeing at every ε once answers come
/// from the cached interval.
#[test]
fn compiled_check_and_verdict_match_one_shot() {
    let (ideal, noisy) = fixture(3, 4);
    for algorithm in [AlgorithmChoice::AlgorithmI, AlgorithmChoice::AlgorithmII] {
        let opts = options(algorithm, 1, SharedTableMode::Auto);
        for eps in [0.5, 0.01, 1e-4, 0.0] {
            let one_shot = check_equivalence(&ideal, &noisy, eps, &opts).expect("one-shot");
            // Fresh compile: the first query is exactly the one-shot run.
            let mut fresh = Checker::new(&ideal, &noisy)
                .options(opts.clone())
                .compile()
                .expect("compile");
            let report = fresh.check(eps).expect("check");
            assert_eq!(report.verdict, one_shot.verdict, "{algorithm:?} ε={eps}");
            assert_eq!(
                report.fidelity_bounds.0.to_bits(),
                one_shot.fidelity_bounds.0.to_bits(),
                "{algorithm:?} ε={eps}: lower bound"
            );
            assert_eq!(
                report.fidelity_bounds.1.to_bits(),
                one_shot.fidelity_bounds.1.to_bits(),
                "{algorithm:?} ε={eps}: upper bound"
            );
            assert_eq!(report.terms_computed, one_shot.terms_computed);
        }
        // One long-lived session across all thresholds: cache-served
        // verdicts must still agree with one-shot calls.
        let mut session = Checker::new(&ideal, &noisy)
            .options(opts.clone())
            .compile()
            .expect("compile");
        for eps in [0.5, 0.01, 1e-4, 0.0] {
            let one_shot = check_equivalence(&ideal, &noisy, eps, &opts).expect("one-shot");
            assert_eq!(
                session.verdict(eps).expect("verdict"),
                one_shot.verdict,
                "{algorithm:?} cached ε={eps}"
            );
        }
    }
}

/// ε-sweep verdicts are monotone (a larger tolerance can only flip
/// NotEquivalent → Equivalent) and consistent with the exact fidelity.
#[test]
fn epsilon_sweep_is_monotone_in_epsilon() {
    let (ideal, noisy) = fixture(3, 4);
    for algorithm in [AlgorithmChoice::AlgorithmI, AlgorithmChoice::AlgorithmII] {
        let mut compiled = Checker::new(&ideal, &noisy)
            .options(options(algorithm, 1, SharedTableMode::Auto))
            .compile()
            .expect("compile");
        let fidelity = compiled.fidelity().expect("fidelity");
        let epsilons = [0.0, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0];
        let points = compiled.sweep_epsilon(&epsilons).expect("sweep");
        assert_eq!(points.len(), epsilons.len());
        let mut seen_equivalent = false;
        for point in &points {
            if seen_equivalent {
                assert_eq!(
                    point.verdict,
                    Verdict::Equivalent,
                    "{algorithm:?}: verdicts must not flip back at larger ε"
                );
            }
            seen_equivalent |= point.verdict == Verdict::Equivalent;
            assert_eq!(
                point.verdict,
                Verdict::decide(fidelity, point.epsilon),
                "{algorithm:?} ε={}: sweep must agree with the exact fidelity",
                point.epsilon
            );
            // After the exact evaluation the bounds are a point.
            assert!(point.fidelity_bounds.1 <= point.fidelity_bounds.0);
        }
        assert!(seen_equivalent, "ε = 1 accepts anything with F > 0");
    }
}

/// `sweep_noise` re-instantiates Kraus weights on the compiled plan:
/// every point must match a cold one-shot check of the re-parameterised
/// pair bit for bit, and the whole sweep must build no new plan.
#[test]
fn noise_sweep_matches_cold_checks_bitwise() {
    let (ideal, noisy) = fixture(3, 3);
    let strengths = [0.999, 0.995, 0.99, 0.95];
    let eps = 0.01;
    for algorithm in [AlgorithmChoice::AlgorithmI, AlgorithmChoice::AlgorithmII] {
        for threads in [1usize, 4] {
            let opts = options(algorithm, threads, SharedTableMode::Auto);
            let compiled = Checker::new(&ideal, &noisy)
                .options(opts.clone())
                .compile()
                .expect("compile");
            // (The "plan built exactly once per compile" counter is
            // asserted in the single-flow bench_smoke harness —
            // `qaec_tensornet::plan::build_count()` is process-global and
            // this test binary runs tests concurrently.)
            let points = compiled.sweep_noise(eps, &strengths).expect("sweep");
            assert_eq!(points.len(), strengths.len());
            for (point, &p) in points.iter().zip(&strengths) {
                let cold_noisy = reparameterise(&noisy, p);
                let cold_f = jamiolkowski_fidelity(&ideal, &cold_noisy, &opts).expect("cold");
                let cold_verdict = check_equivalence(&ideal, &cold_noisy, eps, &opts)
                    .expect("cold check")
                    .verdict;
                // Exhaustive sums on the shared store (Auto resolves
                // shared for alg2 always, and for alg1 at t4) are
                // bit-deterministic; the private sequential alg1 path is
                // the identical code path either way.
                let bit_deterministic = algorithm == AlgorithmChoice::AlgorithmII || threads == 1;
                if bit_deterministic {
                    assert_eq!(
                        point.fidelity.to_bits(),
                        cold_f.to_bits(),
                        "{algorithm:?} t{threads} p={p}: {} vs cold {cold_f}",
                        point.fidelity
                    );
                } else {
                    assert!((point.fidelity - cold_f).abs() < 1e-9);
                }
                assert_eq!(
                    point.verdict, cold_verdict,
                    "{algorithm:?} t{threads} p={p}"
                );
            }
            // Lighter noise ⇒ higher fidelity: strengths descend, so
            // fidelities must descend too (depolarizing p = no-error
            // probability).
            for pair in points.windows(2) {
                assert!(
                    pair[0].fidelity >= pair[1].fidelity,
                    "{algorithm:?}: fidelity must fall as noise grows"
                );
            }
        }
    }
}

/// Store-reuse statistics are epoch-fenced: a repeated sweep point on
/// the warm store re-finds everything (≈no new nodes) instead of
/// re-reporting the session's cumulative allocations.
#[test]
fn warm_store_stats_are_epoch_fenced_per_point() {
    let (ideal, noisy) = fixture(4, 3);
    // Algorithm II with the shared store at one worker: deterministic
    // and warm across the whole batch (reclamation off, whatever the
    // environment sets).
    let compiled = Checker::new(&ideal, &noisy)
        .options(CheckOptions {
            store_reclaim: StoreReclaimMode::Off,
            ..options(AlgorithmChoice::AlgorithmII, 1, SharedTableMode::On)
        })
        .compile()
        .expect("compile");
    // The same strength twice: point 2 contracts an identical network
    // over a store already holding every node point 1 interned.
    let points = compiled.sweep_noise(0.01, &[0.99, 0.99]).expect("sweep");
    let (first, second) = (&points[0], &points[1]);
    assert_eq!(first.fidelity.to_bits(), second.fidelity.to_bits());
    assert!(
        first.stats.nodes_created > 0,
        "point 1 allocates the diagrams: {:?}",
        first.stats
    );
    assert_eq!(
        second.stats.nodes_created, 0,
        "point 2 must re-find, not re-allocate (epoch fencing): {:?}",
        second.stats
    );
    assert!(
        second.stats.unique_hits > 0,
        "point 2's work shows up as unique-table hits: {:?}",
        second.stats
    );
}

/// The free functions are wrappers over a single-query session: both
/// must reject invalid inputs with the pinned precedence (width
/// mismatch > noisy ideal > bad ε), whichever algorithm is forced.
#[test]
fn wrapper_and_session_error_precedence_agree() {
    let two = Circuit::new(2);
    let three = Circuit::new(3);
    let mut noisy_ideal = Circuit::new(2);
    noisy_ideal.noise(NoiseChannel::BitFlip { p: 0.9 }, &[0]);
    for algorithm in [AlgorithmChoice::AlgorithmI, AlgorithmChoice::AlgorithmII] {
        let opts = options(algorithm, 1, SharedTableMode::Auto);
        // Width mismatch beats a bad epsilon, in the wrapper and at
        // session compile time.
        assert_eq!(
            check_equivalence(&two, &three, 1.5, &opts).unwrap_err(),
            QaecError::WidthMismatch { ideal: 2, noisy: 3 },
            "{algorithm:?}"
        );
        assert_eq!(
            Checker::new(&two, &three)
                .options(opts.clone())
                .compile()
                .unwrap_err(),
            QaecError::WidthMismatch { ideal: 2, noisy: 3 },
            "{algorithm:?}"
        );
        // A noisy ideal beats a bad epsilon.
        assert_eq!(
            check_equivalence(&noisy_ideal, &two, 1.5, &opts).unwrap_err(),
            QaecError::IdealNotUnitary,
            "{algorithm:?}"
        );
        assert_eq!(
            Checker::new(&noisy_ideal, &two)
                .options(opts.clone())
                .compile()
                .unwrap_err(),
            QaecError::IdealNotUnitary,
            "{algorithm:?}"
        );
        // With valid circuits the epsilon error surfaces at query time.
        assert_eq!(
            check_equivalence(&two, &two, 1.5, &opts).unwrap_err(),
            QaecError::InvalidEpsilon { value: 1.5 },
            "{algorithm:?}"
        );
        let mut compiled = Checker::new(&two, &two)
            .options(opts.clone())
            .compile()
            .expect("valid pair compiles");
        assert_eq!(
            compiled.verdict(1.5).unwrap_err(),
            QaecError::InvalidEpsilon { value: 1.5 },
            "{algorithm:?}"
        );
        assert_eq!(
            compiled.sweep_epsilon(&[0.1, 1.5]).unwrap_err(),
            QaecError::InvalidEpsilon { value: 1.5 },
            "{algorithm:?}: sweeps validate every threshold up front"
        );
    }
}

/// Noise sweeps reject what they cannot re-instantiate — multi-parameter
/// channels, out-of-range strengths, mismatched point shapes — before
/// doing any work.
#[test]
fn noise_sweep_rejects_unsupported_points() {
    let mut noisy = Circuit::new(2);
    noisy.h(0).noise(
        NoiseChannel::Pauli {
            pi: 0.9,
            px: 0.05,
            py: 0.03,
            pz: 0.02,
        },
        &[0],
    );
    let compiled = Checker::new(&noisy.ideal(), &noisy)
        .compile()
        .expect("compile");
    // A Pauli site has no single scalar strength.
    assert!(matches!(
        compiled.sweep_noise(0.1, &[0.5]).unwrap_err(),
        QaecError::NoiseSweepUnsupported { .. }
    ));
    // Explicit channels work as long as shape and arity match …
    let ok = compiled.sweep_noise_channels(
        0.1,
        &[vec![NoiseChannel::Pauli {
            pi: 0.8,
            px: 0.1,
            py: 0.05,
            pz: 0.05,
        }]],
    );
    assert!(ok.is_ok(), "{ok:?}");
    // … and are rejected otherwise.
    assert!(matches!(
        compiled.sweep_noise_channels(0.1, &[vec![]]).unwrap_err(),
        QaecError::NoiseSweepUnsupported { .. }
    ));
    assert!(matches!(
        compiled
            .sweep_noise_channels(0.1, &[vec![NoiseChannel::TwoQubitDepolarizing { p: 0.9 }]])
            .unwrap_err(),
        QaecError::NoiseSweepUnsupported { .. }
    ));

    // Out-of-range strengths fail validation before any contraction.
    let (ideal, depol) = {
        let mut c = Circuit::new(1);
        c.h(0).noise(NoiseChannel::Depolarizing { p: 0.99 }, &[0]);
        (c.ideal(), c)
    };
    let compiled = Checker::new(&ideal, &depol).compile().expect("compile");
    assert!(matches!(
        compiled.sweep_noise(0.1, &[0.9, 1.5]).unwrap_err(),
        QaecError::NoiseSweepUnsupported { .. }
    ));
}

/// Auto algorithm selection is resolved once at compile time and
/// reported on the session.
#[test]
fn compile_resolves_auto_choice() {
    let (ideal, few) = fixture(3, 1); // 4 terms → Algorithm I
    let compiled = Checker::new(&ideal, &few).compile().expect("compile");
    assert_eq!(compiled.algorithm(), qaec::AlgorithmUsed::AlgorithmI);
    assert_eq!(compiled.noise_channels().len(), 1);

    let (ideal, many) = fixture(3, 4); // 256 terms → Algorithm II
    let compiled = Checker::new(&ideal, &many).compile().expect("compile");
    assert_eq!(compiled.algorithm(), qaec::AlgorithmUsed::AlgorithmII);
}
