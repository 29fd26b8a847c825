//! Contraction-plan counts of compile-once sessions and of the session
//! cache, read from `qaec_tensornet::plan::build_count()`.
//!
//! The counter is process-global and the test harness runs a binary's
//! tests on parallel threads, so this file holds exactly one test: no
//! other test can build a plan between two reads of the counter.
//!
//! Options are set explicitly, so the `QAEC_*` environment variables
//! that steer `CheckOptions::default()` cannot change a count.

use qaec::{
    check_equivalence, AlgorithmChoice, CheckOptions, Checker, EquivalenceReport, Service,
    ServiceConfig, ServiceQuery, ServiceRequest, StoreReclaimMode,
};
use qaec_circuit::generators::{qft, quantum_volume, tile, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};
use qaec_tensornet::plan::build_count;

/// The Table I seed: noise placement of the paper-table rows.
const NOISE_SEED: u64 = 0xDAC2021;

fn options(algorithm: AlgorithmChoice) -> CheckOptions {
    CheckOptions {
        algorithm,
        threads: 1,
        store_reclaim: StoreReclaimMode::Auto,
        ..CheckOptions::default()
    }
}

/// `noises` depolarizing sites of strength `p` on `ideal`, at the
/// positions `seed` picks (the same for every `p`).
fn noisy(ideal: &Circuit, p: f64, noises: usize, seed: u64) -> Circuit {
    insert_random_noise(ideal, &NoiseChannel::Depolarizing { p }, noises, seed)
}

/// Plans built while `f` runs, with its result.
fn counting_builds<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = build_count();
    let out = f();
    (build_count() - before, out)
}

#[test]
fn sessions_and_the_service_build_one_plan_per_pair() {
    // The qft5 Table I row (3 sites) swept over 8 strengths through one
    // session, against 8 cold one-shot checks of the same pairs: the
    // session plans once, does at most half the cold `cont_calls`, and
    // answers every point bit-identically to its cold check.
    let qft5 = qft(5, QftStyle::DecomposedNoSwaps);
    let seed = NOISE_SEED ^ "qft5".len() as u64;
    let strengths = [0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.97];
    let epsilon = 1e-3;
    let opts = options(AlgorithmChoice::Auto);
    let (sweep_builds, points) = counting_builds(|| {
        Checker::new(&qft5, &noisy(&qft5, 0.999, 3, seed))
            .options(opts.clone())
            .compile()
            .expect("compile")
            .sweep_noise(epsilon, &strengths)
            .expect("sweep")
    });
    let (cold_builds, cold) = counting_builds(|| {
        strengths
            .iter()
            .map(|&p| {
                check_equivalence(&qft5, &noisy(&qft5, p, 3, seed), epsilon, &opts)
                    .expect("cold check")
            })
            .collect::<Vec<EquivalenceReport>>()
    });
    assert_eq!(sweep_builds, 1, "a compiled sweep plans once");
    assert_eq!(cold_builds, 8, "cold checks plan once per point");
    for (k, (point, report)) in points.iter().zip(&cold).enumerate() {
        assert_eq!(
            point.fidelity.to_bits(),
            report.fidelity_bounds.0.to_bits(),
            "point {k}"
        );
        assert_eq!(point.verdict, report.verdict, "point {k}");
    }
    let sweep_calls: u64 = points.iter().map(|p| p.stats.cont_calls).sum();
    let cold_calls: u64 = cold.iter().map(|r| r.stats.cont_calls).sum();
    assert!(
        sweep_calls * 2 <= cold_calls,
        "the sweep must do at most half the cold cont_calls: {sweep_calls} vs {cold_calls}"
    );

    // `Auto` on a pair of disjoint components plans each distinct
    // component once: one plan for eight identical qft3 blocks, four for
    // qv6x4_k8's four distinct QV blocks.
    let qft3 = qft(3, QftStyle::DecomposedNoSwaps);
    let compile = |ideal: &Circuit, noisy: &Circuit| {
        counting_builds(|| Checker::new(ideal, noisy).options(opts.clone()).compile()).0
    };
    let qft3_block = noisy(&qft3, 0.999, 1, NOISE_SEED + 24);
    assert_eq!(compile(&tile(&qft3, 8), &tile(&qft3_block, 8)), 1, "qft3x8");
    let qv6x4 = tile(&quantum_volume(6, 5, NOISE_SEED), 4);
    let qv6x4_k8 = noisy(&qv6x4, 0.999, 8, NOISE_SEED + 8);
    assert_eq!(compile(&qv6x4, &qv6x4_k8), 4, "qv6x4_k8");

    // 9 check requests over 3 distinct qft3 pairs through one service:
    // one compile, and one plan, per pair; the repeats hit the cache.
    // (Cached answers against cold checks: `tests/service.rs`.)
    let requests: Vec<ServiceRequest> = (0..9)
        .map(|k| ServiceRequest {
            ideal: qft3.clone(),
            noisy: noisy(&qft3, 0.999, 2, NOISE_SEED + 10 + k % 3),
            query: ServiceQuery::Check { epsilon },
            algorithm: None,
        })
        .collect();
    let service = Service::new(ServiceConfig {
        options: options(AlgorithmChoice::AlgorithmII),
        cache_bytes: None,
    });
    let (service_builds, responses) = counting_builds(|| service.handle_batch(&requests));
    assert!(responses.iter().all(|r| r.result.is_ok()));
    assert_eq!(service_builds, 3, "one plan per distinct pair");
    let stats = service.stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.compiles),
        (3, 6, 3),
        "{stats}"
    );
    assert!(
        stats.store_bytes > 0 && stats.peak_store_bytes >= stats.store_bytes,
        "{stats}"
    );
}
