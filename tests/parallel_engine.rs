//! The work-stealing parallel term engine: sequential/parallel agreement
//! on bounds and verdicts, `max_terms`/`deadline` composition, early
//! ε-exit on the Fig. 7 QFT workloads, and thread-count stability of the
//! Monte-Carlo estimator. Every worker contracts on a private manager,
//! so values agree across thread counts within the interning tolerance.

use proptest::prelude::*;
use qaec::{
    check_equivalence, fidelity_alg1, fidelity_monte_carlo, AlgorithmChoice, CheckOptions,
    QaecError, TermOrder, Verdict,
};
use qaec_circuit::generators::{qft, random_circuit, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};
use std::time::{Duration, Instant};

fn with_threads(threads: usize, term_order: TermOrder) -> CheckOptions {
    CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmI,
        threads,
        term_order,
        ..CheckOptions::default()
    }
}

/// Strategy: a small random noisy instance described by seeds.
fn instance() -> impl proptest::strategy::Strategy<Value = (Circuit, Circuit)> {
    (
        1usize..=3,
        2usize..=10,
        any::<u64>(),
        1usize..=3,
        any::<u64>(),
        900u32..=999,
    )
        .prop_map(|(n, gates, seed, noises, noise_seed, p_millis)| {
            let ideal = random_circuit(n, gates, seed);
            let noisy = insert_random_noise(
                &ideal,
                &NoiseChannel::Depolarizing {
                    p: p_millis as f64 / 1000.0,
                },
                noises,
                noise_seed,
            );
            (ideal, noisy)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Exact mode: 2/4/8 workers reproduce the sequential bounds to 1e-9
    /// in both term orders (each private manager glues weights along its
    /// own history, so tolerance-level drift is the contract).
    #[test]
    fn parallel_exact_matches_sequential_bounds((ideal, noisy) in instance()) {
        for term_order in [TermOrder::Lexicographic, TermOrder::BestFirst] {
            let seq = fidelity_alg1(
                &ideal, &noisy, None,
                &with_threads(1, term_order),
            ).expect("sequential");
            for threads in [2usize, 4, 8] {
                let par = fidelity_alg1(
                    &ideal, &noisy, None,
                    &with_threads(threads, term_order),
                ).expect("parallel");
                prop_assert!(
                    (par.fidelity_lower - seq.fidelity_lower).abs() < 1e-9,
                    "{term_order:?} t={threads}: lower {} vs {}",
                    par.fidelity_lower, seq.fidelity_lower
                );
                prop_assert!(
                    (par.fidelity_upper - seq.fidelity_upper).abs() < 1e-9,
                    "{term_order:?} t={threads}: upper {} vs {}",
                    par.fidelity_upper, seq.fidelity_upper
                );
                prop_assert_eq!(par.terms_computed, seq.terms_computed);
                prop_assert!(par.stats.nodes_created > 0);
            }
        }
    }

    /// ε-decision mode: parallel verdicts agree with sequential ones for
    /// ε ∈ {1e-2, 1e-4} in both term orders (skipping razor-edge
    /// instances where fidelity sits within 1e-9 of the threshold) — the
    /// ordered reducer freezes the decision at the sequential-prefix
    /// point whatever the scheduling.
    #[test]
    fn parallel_epsilon_verdicts_match_sequential((ideal, noisy) in instance()) {
        let exact = fidelity_alg1(&ideal, &noisy, None, &CheckOptions::default())
            .expect("exact")
            .fidelity_lower;
        for term_order in [TermOrder::Lexicographic, TermOrder::BestFirst] {
            for eps in [1e-2f64, 1e-4] {
                if (exact - (1.0 - eps)).abs() < 1e-9 {
                    continue; // razor edge: fp ordering may legitimately flip
                }
                let seq = check_equivalence(&ideal, &noisy, eps, &with_threads(1, term_order))
                    .expect("sequential");
                for threads in [2usize, 4, 8] {
                    let par =
                        check_equivalence(&ideal, &noisy, eps, &with_threads(threads, term_order))
                            .expect("parallel");
                    prop_assert_eq!(
                        par.verdict, seq.verdict,
                        "{:?} t={} ε={}: exact fidelity {}", term_order, threads, eps, exact
                    );
                }
            }
        }
    }
}

/// The acceptance workload: a Fig. 7 QFT circuit, ε = 1e-4, 4 threads.
/// The parallel ε run must return the sequential verdict while computing
/// strictly fewer terms than exact mode.
#[test]
fn parallel_epsilon_early_exits_on_fig7_qft_workloads() {
    for (n, k) in [(3usize, 4usize), (4, 3)] {
        let ideal = qft(n, QftStyle::DecomposedNoSwaps);
        let noisy = insert_random_noise(
            &ideal,
            &NoiseChannel::Depolarizing { p: 0.999 },
            k,
            0xDAC2021 + k as u64,
        );
        let exact = fidelity_alg1(&ideal, &noisy, None, &with_threads(1, TermOrder::BestFirst))
            .expect("exact");
        let seq = fidelity_alg1(
            &ideal,
            &noisy,
            Some(1e-4),
            &with_threads(1, TermOrder::BestFirst),
        )
        .expect("sequential ε");
        let par = fidelity_alg1(
            &ideal,
            &noisy,
            Some(1e-4),
            &with_threads(4, TermOrder::BestFirst),
        )
        .expect("parallel ε");
        assert_eq!(par.verdict, seq.verdict, "qft{n} k={k}");
        assert!(par.verdict.is_some(), "qft{n} k={k} must decide early");
        assert!(
            par.terms_computed < exact.terms_computed,
            "qft{n} k={k}: parallel ε computed {} of {} terms — no early exit",
            par.terms_computed,
            exact.terms_computed
        );
    }
}

#[test]
fn parallel_epsilon_respects_expired_deadline() {
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 3, 4);
    let options = CheckOptions {
        threads: 4,
        deadline: Some(Instant::now() - Duration::from_secs(1)),
        ..CheckOptions::default()
    };
    assert_eq!(
        fidelity_alg1(&ideal, &noisy, Some(1e-4), &options).unwrap_err(),
        QaecError::Timeout
    );
}

/// Regression for the old fixed-chunk path: `threads > 1` with an ε
/// used to silently fall back to one core *or* ignore `max_terms`; now
/// both compose, and capped runs keep the bounds open.
#[test]
fn parallel_max_terms_and_epsilon_compose() {
    let ideal = random_circuit(2, 8, 17);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.9 }, 3, 18);
    let options = CheckOptions {
        threads: 4,
        max_terms: Some(3),
        term_order: TermOrder::Lexicographic,
        ..CheckOptions::default()
    };
    let report = fidelity_alg1(&ideal, &noisy, None, &options).expect("capped parallel");
    assert!(report.terms_computed <= 3);
    assert!(report.total_terms > 3);
    assert!(
        report.fidelity_upper > report.fidelity_lower,
        "capped parallel bounds collapsed: [{}, {}]",
        report.fidelity_lower,
        report.fidelity_upper
    );
}

/// The Monte-Carlo sample stream is a function of the seed alone: thread
/// count changes only which worker contracts which distinct string, and
/// the estimate agrees to the weight-interning tolerance.
#[test]
fn monte_carlo_estimate_is_thread_count_stable() {
    let ideal = random_circuit(2, 8, 41);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::BitFlip { p: 0.9 }, 2, 42);
    let reference = fidelity_monte_carlo(
        &ideal,
        &noisy,
        400,
        7,
        &with_threads(1, TermOrder::BestFirst),
    )
    .expect("sequential mc");
    let repeat = fidelity_monte_carlo(
        &ideal,
        &noisy,
        400,
        7,
        &with_threads(1, TermOrder::BestFirst),
    )
    .expect("repeat mc");
    // One worker → bitwise identical.
    assert_eq!(reference.estimate, repeat.estimate);
    assert_eq!(reference.std_error, repeat.std_error);
    for threads in [2usize, 4, 8] {
        let opts = with_threads(threads, TermOrder::BestFirst);
        let parallel = fidelity_monte_carlo(&ideal, &noisy, 400, 7, &opts).expect("parallel mc");
        // Identical sampling; interning-level numerical drift only.
        assert!(
            (reference.estimate - parallel.estimate).abs() < 1e-7,
            "t={threads}: {} vs {}",
            reference.estimate,
            parallel.estimate
        );
        assert_eq!(
            reference.distinct_strings, parallel.distinct_strings,
            "t={threads}"
        );
        assert_eq!(reference.samples, parallel.samples, "t={threads}");
    }
}

/// Every worker's decision-diagram statistics end up merged in the
/// report, and the ε-decision path carries them up to the checker.
#[test]
fn reports_carry_merged_worker_stats() {
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.99 }, 2, 5);
    let seq = fidelity_alg1(
        &ideal,
        &noisy,
        None,
        &with_threads(1, TermOrder::Lexicographic),
    )
    .expect("sequential");
    let par = fidelity_alg1(
        &ideal,
        &noisy,
        None,
        &with_threads(4, TermOrder::Lexicographic),
    )
    .expect("parallel");
    assert!(seq.stats.cont_calls > 0);
    assert!(par.stats.cont_calls > 0);
    assert!(par.stats.nodes_created >= seq.stats.nodes_created / 2);
    // Private stores report their footprint, and the peak never reads
    // below what is still held.
    for stats in [&seq.stats, &par.stats] {
        assert!(stats.store_bytes > 0, "{stats:?}");
        assert!(stats.peak_store_bytes >= stats.store_bytes, "{stats:?}");
    }

    let checked = check_equivalence(&ideal, &noisy, 0.05, &with_threads(4, TermOrder::BestFirst))
        .expect("check");
    assert_eq!(checked.verdict, Verdict::Equivalent);
    assert!(checked.stats.nodes_created > 0);
}
