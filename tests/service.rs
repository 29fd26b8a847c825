//! Integration tests for the serving layer: the content-keyed session
//! cache (`qaec::Service`) and the `qaec serve` batch entry point.
//!
//! The acceptance bar (ISSUE 6): cache hits answer bit-identically to
//! cold compiles, the LRU respects the warm-store byte budget measured
//! through `SharedTddStore::bytes_used`, a concurrent cold herd
//! compiles once, and a malformed serve request is a structured JSON
//! error — never a crash.
//!
//! Plan-build counting (`qaec_tensornet::plan::build_count`) is
//! process-global and therefore asserted only in `tests/plan_builds.rs`,
//! a binary with a single test, never here where tests run concurrently.

use qaec::{
    check_equivalence, AlgorithmChoice, CacheOutcome, CheckOptions, Checker, QaecError, Service,
    ServiceConfig, ServiceQuery, ServiceReply, ServiceRequest,
};
use qaec_circuit::generators::{qft, tile, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{pair_hash, Circuit, NoiseChannel};

/// A QFT pair with `sites` depolarizing faults at seeded positions.
fn fixture(n: usize, sites: usize, seed: u64) -> (Circuit, Circuit) {
    let ideal = qft(n, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(
        &ideal,
        &NoiseChannel::Depolarizing { p: 0.999 },
        sites,
        seed,
    );
    (ideal, noisy)
}

/// Deterministic-by-construction options: the thread count is explicit
/// (Algorithm II is bit-reproducible at every count, Algorithm I runs
/// at one), so every comparison below compares like with like
/// regardless of the CI env matrix (`QAEC_THREADS`).
fn options(algorithm: AlgorithmChoice, threads: usize) -> CheckOptions {
    CheckOptions {
        algorithm,
        threads,
        ..CheckOptions::default()
    }
}

fn service(algorithm: AlgorithmChoice, threads: usize, cache_bytes: Option<usize>) -> Service {
    Service::new(ServiceConfig {
        options: options(algorithm, threads),
        cache_bytes,
    })
}

fn check_request(ideal: &Circuit, noisy: &Circuit, epsilon: f64) -> ServiceRequest {
    ServiceRequest {
        ideal: ideal.clone(),
        noisy: noisy.clone(),
        query: ServiceQuery::Check { epsilon },
        algorithm: None,
    }
}

fn check_reply(response: &qaec::ServiceResponse) -> &qaec::EquivalenceReport {
    match response.result.as_ref().expect("check succeeds") {
        ServiceReply::Check(report) => report,
        other => panic!("expected a check reply, got {other:?}"),
    }
}

#[test]
fn cache_hits_are_bit_identical_to_cold_checks() {
    // Both algorithm paths: few-site (Algorithm I territory) and
    // many-site (Algorithm II).
    for algorithm in [AlgorithmChoice::AlgorithmI, AlgorithmChoice::AlgorithmII] {
        let (ideal, noisy) = fixture(3, 2, 0xC0FFEE);
        let service = service(algorithm, 1, None);
        let request = check_request(&ideal, &noisy, 1e-3);

        let cold = service.handle(&request);
        let warm = service.handle(&request);
        assert_eq!(cold.cache, CacheOutcome::Miss, "{algorithm:?}");
        assert_eq!(warm.cache, CacheOutcome::Hit, "{algorithm:?}");
        assert_eq!(cold.key, pair_hash(&ideal, &noisy));
        assert_eq!(warm.key, cold.key);

        // Warm answers match the cached cold ones bit for bit...
        let (a, b) = (check_reply(&cold), check_reply(&warm));
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(
            a.fidelity_bounds.0.to_bits(),
            b.fidelity_bounds.0.to_bits(),
            "{algorithm:?}: hit must be bit-identical to the miss"
        );
        assert_eq!(a.fidelity_bounds.1.to_bits(), b.fidelity_bounds.1.to_bits());

        // ...and both match a cold one-shot check outside any cache.
        let one_shot = check_equivalence(&ideal, &noisy, 1e-3, &options(algorithm, 1))
            .expect("one-shot comparator");
        assert_eq!(a.verdict, one_shot.verdict);
        assert_eq!(
            a.fidelity_bounds.0.to_bits(),
            one_shot.fidelity_bounds.0.to_bits(),
            "{algorithm:?}: cached answer must equal a cold one-shot check"
        );

        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses, stats.compiles), (1, 1, 1));
        assert_eq!(stats.evictions, 0);
    }
}

#[test]
fn sweep_queries_match_the_session_api() {
    let (ideal, noisy) = fixture(3, 4, 0xC0FFEE + 3);
    let service = service(AlgorithmChoice::AlgorithmII, 1, None);

    let epsilons = [0.2, 1e-2, 1e-4];
    let strengths = [0.999, 0.99, 0.9];
    let eps_reply = service.handle(&ServiceRequest {
        ideal: ideal.clone(),
        noisy: noisy.clone(),
        query: ServiceQuery::SweepEpsilon {
            epsilons: epsilons.to_vec(),
        },
        algorithm: None,
    });
    let noise_reply = service.handle(&ServiceRequest {
        ideal: ideal.clone(),
        noisy: noisy.clone(),
        query: ServiceQuery::SweepNoise {
            epsilon: 1e-2,
            strengths: strengths.to_vec(),
        },
        algorithm: None,
    });
    assert_eq!(
        noise_reply.cache,
        CacheOutcome::Hit,
        "same pair, same session"
    );

    // The direct session API on the same options is the oracle.
    let mut compiled = Checker::new(&ideal, &noisy)
        .options(options(AlgorithmChoice::AlgorithmII, 1))
        .compile()
        .expect("direct session compiles");
    let direct_eps = compiled.sweep_epsilon(&epsilons).expect("direct ε sweep");
    let direct_noise = compiled
        .sweep_noise(1e-2, &strengths)
        .expect("direct noise sweep");

    match eps_reply.result.expect("ε sweep succeeds") {
        ServiceReply::SweepEpsilon(points) => {
            assert_eq!(points.len(), direct_eps.len());
            for (served, direct) in points.iter().zip(&direct_eps) {
                assert_eq!(served.verdict, direct.verdict);
                assert_eq!(
                    served.fidelity_bounds.0.to_bits(),
                    direct.fidelity_bounds.0.to_bits()
                );
            }
        }
        other => panic!("expected an ε sweep reply, got {other:?}"),
    }
    match noise_reply.result.expect("noise sweep succeeds") {
        ServiceReply::SweepNoise(points) => {
            assert_eq!(points.len(), direct_noise.len());
            for (served, direct) in points.iter().zip(&direct_noise) {
                assert_eq!(served.verdict, direct.verdict);
                assert_eq!(served.fidelity.to_bits(), direct.fidelity.to_bits());
            }
        }
        other => panic!("expected a noise sweep reply, got {other:?}"),
    }
}

#[test]
fn lru_eviction_respects_the_byte_budget() {
    // Algorithm II sessions always hold a warm store, so their
    // `warm_store_bytes` is what the budget meters.
    let pairs: Vec<(Circuit, Circuit)> = (0..3).map(|k| fixture(3, 2, 0xBEEF + k)).collect();

    // Unbudgeted: every session stays resident; the footprint is the
    // sum of live `bytes_used` readings.
    let unbounded = service(AlgorithmChoice::AlgorithmII, 1, None);
    for (ideal, noisy) in &pairs {
        unbounded.handle(&check_request(ideal, noisy, 1e-3));
    }
    let stats = unbounded.stats();
    assert_eq!(stats.sessions, 3);
    assert_eq!(stats.evictions, 0);
    assert!(stats.store_bytes > 0, "warm stores must be accounted");
    let one_session_bytes = stats.store_bytes as usize / 3;

    // A budget that fits two sessions but not three: the third request
    // must evict exactly the least-recently-used pair.
    let budget = one_session_bytes * 5 / 2;
    let bounded = service(AlgorithmChoice::AlgorithmII, 1, Some(budget));
    for (ideal, noisy) in &pairs {
        bounded.handle(&check_request(ideal, noisy, 1e-3));
    }
    let stats = bounded.stats();
    assert_eq!(stats.sessions, 2, "budget {budget} holds two sessions");
    assert_eq!(stats.evictions, 1);
    assert!(
        stats.store_bytes as usize <= budget,
        "resident bytes {} must fit the budget {budget}",
        stats.store_bytes
    );
    // Pair 1 (recently used) is still cached; pair 0 (the LRU victim)
    // must recompile.
    let hit = bounded.handle(&check_request(&pairs[1].0, &pairs[1].1, 1e-3));
    assert_eq!(hit.cache, CacheOutcome::Hit);
    let evicted = bounded.handle(&check_request(&pairs[0].0, &pairs[0].1, 1e-3));
    assert_eq!(
        evicted.cache,
        CacheOutcome::Miss,
        "the LRU victim was evicted"
    );

    // The degenerate budget keeps only the just-served session — and
    // still serves correctly (a pair larger than the budget is never
    // evicted mid-request).
    let tiny = service(AlgorithmChoice::AlgorithmII, 1, Some(1));
    for (ideal, noisy) in &pairs {
        let response = tiny.handle(&check_request(ideal, noisy, 1e-3));
        assert!(response.result.is_ok());
        assert_eq!(
            tiny.stats().sessions,
            1,
            "only the serving session survives"
        );
    }
    assert_eq!(tiny.stats().evictions, 2);
}

/// A factorised `Auto` session holds one Algorithm II store per
/// distinct component, and the cache meters it: a noise sweep on
/// `tile(qft3 + 1 site, 8)` leaves a non-zero footprint.
#[test]
fn factorised_sessions_meter_their_component_stores() {
    let block = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy_block = insert_random_noise(&block, &NoiseChannel::Depolarizing { p: 0.999 }, 1, 5);
    let service = service(AlgorithmChoice::Auto, 1, None);
    let response = service.handle(&ServiceRequest {
        ideal: tile(&block, 8),
        noisy: tile(&noisy_block, 8),
        query: ServiceQuery::SweepNoise {
            epsilon: 1e-2,
            strengths: vec![0.999, 0.99],
        },
        algorithm: None,
    });
    assert!(response.result.is_ok());
    let stats = service.stats();
    assert!(
        stats.store_bytes > 0 && stats.peak_store_bytes >= stats.store_bytes,
        "{stats}"
    );
}

#[test]
fn single_flight_compiles_a_cold_herd_once() {
    let (ideal, noisy) = fixture(3, 4, 0xC0FFEE + 7);
    let service = service(AlgorithmChoice::AlgorithmII, 1, None);
    let request = check_request(&ideal, &noisy, 1e-3);

    let responses: Vec<qaec::ServiceResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| service.handle(&request)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("herd thread"))
            .collect()
    });

    let stats = service.stats();
    assert_eq!(
        stats.compiles, 1,
        "a thundering herd on one cold pair compiles once"
    );
    assert_eq!(stats.misses, 1, "exactly one request created the entry");
    assert_eq!(stats.hits, 7);
    assert_eq!(stats.sessions, 1);
    let first = check_reply(&responses[0]);
    for response in &responses {
        let report = check_reply(response);
        assert_eq!(report.verdict, first.verdict);
        assert_eq!(
            report.fidelity_bounds.0.to_bits(),
            first.fidelity_bounds.0.to_bits(),
            "every herd member sees the same session's answer"
        );
    }
}

#[test]
fn batches_group_by_pair_and_answer_in_input_order() {
    let a = fixture(3, 2, 0xAAAA);
    let b = fixture(3, 2, 0xBBBB);
    // Interleaved stream [A, B, A, B, A]: two distinct pairs.
    let requests = [
        check_request(&a.0, &a.1, 1e-3),
        check_request(&b.0, &b.1, 1e-3),
        check_request(&a.0, &a.1, 1e-3),
        check_request(&b.0, &b.1, 1e-3),
        check_request(&a.0, &a.1, 1e-3),
    ];
    let service = service(AlgorithmChoice::AlgorithmII, 2, None);
    let responses = service.handle_batch(&requests);

    assert_eq!(responses.len(), 5);
    let key_a = pair_hash(&a.0, &a.1);
    let key_b = pair_hash(&b.0, &b.1);
    let expected = [key_a, key_b, key_a, key_b, key_a];
    for (k, response) in responses.iter().enumerate() {
        assert_eq!(response.key, expected[k], "response {k} out of order");
    }
    // Repeats of one pair share a session, so they answer identically.
    for (i, j) in [(0, 2), (2, 4), (1, 3)] {
        assert_eq!(
            check_reply(&responses[i]).fidelity_bounds.0.to_bits(),
            check_reply(&responses[j]).fidelity_bounds.0.to_bits()
        );
    }
    let stats = service.stats();
    assert_eq!(stats.compiles, 2, "one compile per distinct pair");
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 3);
}

#[test]
fn invalid_requests_error_without_poisoning_the_cache() {
    let service = service(AlgorithmChoice::AlgorithmII, 1, None);

    // A width mismatch is rejected before the cache is touched.
    let (ideal, _) = fixture(3, 2, 0xDEAD);
    let (_, wrong_width) = fixture(4, 2, 0xDEAD);
    let response = service.handle(&check_request(&ideal, &wrong_width, 1e-3));
    assert!(matches!(
        response.result,
        Err(QaecError::WidthMismatch { ideal: 3, noisy: 4 })
    ));
    let stats = service.stats();
    assert_eq!((stats.hits, stats.misses, stats.sessions), (0, 0, 0));

    // An out-of-range ε fails the query but still caches the compiled
    // session for later valid queries on the same pair.
    let (ideal, noisy) = fixture(3, 2, 0xDEAD);
    let response = service.handle(&check_request(&ideal, &noisy, 1.5));
    assert!(matches!(
        response.result,
        Err(QaecError::InvalidEpsilon { .. })
    ));
    assert_eq!(service.stats().sessions, 1);
    let retry = service.handle(&check_request(&ideal, &noisy, 1e-3));
    assert_eq!(
        retry.cache,
        CacheOutcome::Hit,
        "the session survived the bad ε"
    );
    assert!(retry.result.is_ok());
}

#[test]
fn malformed_serve_requests_are_structured_errors_not_crashes() {
    // Drive the CLI's serve entry point end to end: a stream mixing a
    // valid request with malformed ones must answer every line, in
    // order, and keep serving.
    let service = Service::new(ServiceConfig::default());
    let ideal = "OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0], q[1];\\n";
    let noisy = "OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\n\
                 // qaec.noise: depolarizing(0.999) q[0];\\ncx q[0], q[1];\\n";
    let input = format!(
        concat!(
            "{{not json at all\n",
            "{{\"v\": 1, \"id\": 1, \"op\": \"check\", \"ideal\": \"{i}\", ",
            "\"noisy\": \"{n}\", \"epsilon\": 0.05}}\n",
            "{{\"v\": 1, \"id\": 2, \"op\": \"launch_missiles\"}}\n",
            "{{\"v\": 1, \"id\": 3, \"op\": \"check\", \"epsilon\": 0.05}}\n",
            "{{\"v\": 1, \"id\": 4, \"op\": \"stats\"}}\n",
        ),
        i = ideal,
        n = noisy,
    );
    let mut out = Vec::new();
    qaec_cli::serve::serve_batch(&service, input.as_bytes(), &mut out).expect("serve_batch");
    let text = String::from_utf8(out).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "every request line is answered:\n{text}");

    assert!(lines[0].contains("\"ok\": false"), "{}", lines[0]);
    assert!(lines[0].contains("\"error\""), "{}", lines[0]);
    assert!(lines[1].contains("\"ok\": true"), "{}", lines[1]);
    assert!(lines[1].contains("\"id\": 1"), "{}", lines[1]);
    assert!(lines[1].contains("\"verdict\""), "{}", lines[1]);
    assert!(lines[2].contains("\"ok\": false"), "{}", lines[2]);
    assert!(lines[2].contains("unknown op"), "{}", lines[2]);
    assert!(lines[3].contains("\"ok\": false"), "{}", lines[3]);
    assert!(lines[3].contains("missing"), "{}", lines[3]);
    // The stats barrier proves the service survived the bad lines: the
    // one valid request was served.
    assert!(lines[4].contains("\"op\": \"stats\""), "{}", lines[4]);
    assert!(lines[4].contains("\"misses\": 1"), "{}", lines[4]);
    assert!(lines[4].contains("\"compiles\": 1"), "{}", lines[4]);
}
