//! Plan-level parallel Algorithm II: determinism, cross-algorithm
//! agreement and deadline behaviour of the DAG-scheduled contraction.
//!
//! The properties under test mirror the Algorithm I engine suite:
//! shared-store runs must be **bit-identical** for every thread count
//! (the scheduler's purity argument), `--threads` must not change what
//! `check` reports, and deadlines must fire on every worker count.

use qaec::{
    check_equivalence, fidelity_alg1, fidelity_alg2, AlgorithmChoice, CheckOptions,
    SharedTableMode, StoreReclaimMode, TermOrder,
};
use qaec_circuit::generators::{grover_dac21, qft, quantum_volume, tile, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};
use std::time::{Duration, Instant};

fn fixtures() -> Vec<(&'static str, Circuit, Circuit)> {
    let qft4 = qft(4, QftStyle::DecomposedNoSwaps);
    let qft4_noisy = insert_random_noise(&qft4, &NoiseChannel::Depolarizing { p: 0.999 }, 3, 11);
    let grover = grover_dac21();
    let grover_noisy =
        insert_random_noise(&grover, &NoiseChannel::Depolarizing { p: 0.999 }, 4, 13);
    vec![
        ("qft4_k3", qft4, qft4_noisy),
        ("grover_k4", grover, grover_noisy),
    ]
}

fn alg2_options(threads: usize, shared_table: SharedTableMode) -> CheckOptions {
    CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        threads,
        shared_table,
        ..CheckOptions::default()
    }
}

/// Shared-store Algorithm II is bit-identical across thread counts: one
/// weight scope per plan step makes every step a pure function of its
/// operands, so any topological schedule computes the same fidelity and
/// the same `max_nodes`.
#[test]
fn parallel_alg2_is_bit_identical_across_thread_counts() {
    for (name, ideal, noisy) in fixtures() {
        let reference = fidelity_alg2(&ideal, &noisy, &alg2_options(1, SharedTableMode::On))
            .expect("sequential shared");
        for threads in [2usize, 4, 8] {
            let parallel =
                fidelity_alg2(&ideal, &noisy, &alg2_options(threads, SharedTableMode::On))
                    .expect("parallel shared");
            assert_eq!(
                parallel.fidelity.to_bits(),
                reference.fidelity.to_bits(),
                "{name} threads={threads}: fidelity drifted"
            );
            assert_eq!(
                parallel.max_nodes, reference.max_nodes,
                "{name} threads={threads}: max_nodes drifted"
            );
        }
    }
}

/// The acceptance property of the top-level checker: under default
/// options, `check --algorithm 2 --threads 4` reports bit-identical
/// fidelity bounds and the same verdict and node count as `--threads 1`
/// — whichever storage backend the environment selects (`Auto` resolves
/// to the shared store for Algorithm II at every thread count, `Off`
/// falls back to the private sequential driver for both).
#[test]
fn check_alg2_reports_identically_for_any_thread_count() {
    for (name, ideal, noisy) in fixtures() {
        for epsilon in [1e-2, 1e-4] {
            let base = CheckOptions {
                algorithm: AlgorithmChoice::AlgorithmII,
                ..CheckOptions::default()
            };
            let seq = check_equivalence(
                &ideal,
                &noisy,
                epsilon,
                &CheckOptions {
                    threads: 1,
                    ..base.clone()
                },
            )
            .expect("t1");
            let par = check_equivalence(
                &ideal,
                &noisy,
                epsilon,
                &CheckOptions {
                    threads: 4,
                    ..base.clone()
                },
            )
            .expect("t4");
            assert_eq!(seq.verdict, par.verdict, "{name} ε={epsilon}");
            assert_eq!(
                seq.fidelity_bounds.0.to_bits(),
                par.fidelity_bounds.0.to_bits(),
                "{name} ε={epsilon}: bounds drifted"
            );
            assert_eq!(seq.max_nodes, par.max_nodes, "{name} ε={epsilon}");
        }
    }
}

/// The private sequential driver (`--shared-table off`) and the shared
/// parallel driver agree to the interning tolerance, and Algorithm I
/// cross-checks Algorithm II under threads.
#[test]
fn parallel_alg2_agrees_with_private_driver_and_alg1() {
    for (name, ideal, noisy) in fixtures() {
        let private = fidelity_alg2(&ideal, &noisy, &alg2_options(4, SharedTableMode::Off))
            .expect("private fallback");
        let shared = fidelity_alg2(&ideal, &noisy, &alg2_options(4, SharedTableMode::On))
            .expect("shared parallel");
        assert!(
            (private.fidelity - shared.fidelity).abs() < 1e-9,
            "{name}: private {} vs shared {}",
            private.fidelity,
            shared.fidelity
        );
        let alg1 = fidelity_alg1(
            &ideal,
            &noisy,
            None,
            &CheckOptions {
                threads: 4,
                term_order: TermOrder::Lexicographic,
                ..CheckOptions::default()
            },
        )
        .expect("alg1 parallel");
        assert!(
            (alg1.fidelity_lower - shared.fidelity).abs() < 1e-6,
            "{name}: alg1 {} vs alg2 {}",
            alg1.fidelity_lower,
            shared.fidelity
        );
    }
}

/// Tiled ("simultaneous") circuits decompose into independent plan
/// branches — the workload plan-level parallelism exists for. The
/// fidelity must factor across tiles: F(block ⊗ block) over disjoint
/// noise = product of per-block fidelities.
#[test]
fn tiled_circuits_stay_bit_identical_and_factor() {
    let block = qft(3, QftStyle::DecomposedNoSwaps);
    let ideal = tile(&block, 3);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 6, 17);
    let seq = fidelity_alg2(&ideal, &noisy, &alg2_options(1, SharedTableMode::On)).expect("t1");
    let par = fidelity_alg2(&ideal, &noisy, &alg2_options(4, SharedTableMode::On)).expect("t4");
    assert_eq!(seq.fidelity.to_bits(), par.fidelity.to_bits());
    assert_eq!(seq.max_nodes, par.max_nodes);
    assert!(seq.fidelity > 0.9 && seq.fidelity < 1.0, "noise must bite");
}

/// The Table I seed: generator instances and noise placement.
const NOISE_SEED: u64 = 0xDAC2021;

/// `qv6x4_k8`: four disjoint 6-qubit QV blocks with 8 depolarizing
/// sites. Its doubled network splits into four independent branches.
fn qv6x4_k8() -> (Circuit, Circuit) {
    let ideal = tile(&quantum_volume(6, 5, NOISE_SEED), 4);
    let noisy = insert_random_noise(
        &ideal,
        &NoiseChannel::Depolarizing { p: 0.999 },
        8,
        NOISE_SEED + 8,
    );
    (ideal, noisy)
}

/// On the tiled qv6x4_k8 workload, 1 and 4 workers report the same
/// fidelity bits and `max_nodes`, and the shared store does the private
/// driver's work: equal `cont_calls` and `add_calls`, `nodes_created`
/// within 1%. Both shared runs account a store footprint whose peak is
/// at least what is still held.
#[test]
fn qv6x4_shared_store_matches_private_work_at_any_thread_count() {
    let (ideal, noisy) = qv6x4_k8();
    let run = |threads: usize, shared_table: SharedTableMode| {
        let options = CheckOptions {
            store_reclaim: StoreReclaimMode::Off,
            ..alg2_options(threads, shared_table)
        };
        fidelity_alg2(&ideal, &noisy, &options).expect("qv6x4_k8")
    };
    // The three runs are independent (a store each), so they run side
    // by side.
    let [t1, t4, private] = std::thread::scope(|scope| {
        let run = &run;
        [
            (1, SharedTableMode::On),
            (4, SharedTableMode::On),
            (1, SharedTableMode::Off),
        ]
        .map(|(threads, shared_table)| scope.spawn(move || run(threads, shared_table)))
        .map(|handle| handle.join().expect("qv6x4_k8 run thread"))
    });
    assert_eq!(t1.fidelity.to_bits(), t4.fidelity.to_bits());
    assert_eq!((t1.max_nodes, t4.max_nodes), (448, 448));
    for shared in [&t1, &t4] {
        let stats = &shared.stats;
        assert!(stats.store_bytes > 0, "{stats:?}");
        assert!(stats.peak_store_bytes >= stats.store_bytes, "{stats:?}");
    }
    assert!(
        (t1.fidelity - private.fidelity).abs() < 1e-9,
        "shared {} vs private {}",
        t1.fidelity,
        private.fidelity
    );
    let (shared, private) = (&t1.stats, &private.stats);
    assert_eq!(shared.cont_calls, private.cont_calls);
    assert_eq!(shared.add_calls, private.add_calls);
    assert!(
        shared.nodes_created.abs_diff(private.nodes_created) * 100 <= private.nodes_created,
        "nodes created: shared {} vs private {}",
        shared.nodes_created,
        private.nodes_created
    );
}

/// Deadlines abort the parallel driver on every worker count, including
/// mid-contraction (the amortised in-recursion probe).
#[test]
fn parallel_alg2_deadline_times_out() {
    let (_, ideal, noisy) = fixtures().pop().expect("fixture");
    for threads in [1usize, 4] {
        let options = CheckOptions {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..alg2_options(threads, SharedTableMode::On)
        };
        assert_eq!(
            fidelity_alg2(&ideal, &noisy, &options).unwrap_err(),
            qaec::QaecError::Timeout,
            "threads={threads}"
        );
    }
}
