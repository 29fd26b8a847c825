//! Plan-level parallel Algorithm II: determinism, cross-algorithm
//! agreement and deadline behaviour of the DAG-scheduled contraction.
//!
//! The properties under test mirror the Algorithm I engine suite: runs
//! on the shared store must be **bit-identical** for every thread count
//! (the scheduler's purity argument), `--threads` must not change what
//! `check` reports, and deadlines must fire on every worker count.

use qaec::{
    check_equivalence, fidelity_alg1, fidelity_alg2, AlgorithmChoice, CheckOptions, TermOrder,
};
use qaec_circuit::generators::{grover_dac21, qft, tile, QftStyle};
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

fn alg2_options(threads: usize) -> CheckOptions {
    CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        threads,
        ..CheckOptions::default()
    }
}

/// Algorithm II is bit-identical across thread counts: one
/// weight scope per plan step makes every step a pure function of its
/// operands, so any topological schedule computes the same fidelity and
/// the same `max_nodes`.
#[test]
fn parallel_alg2_is_bit_identical_across_thread_counts() {
    for (name, ideal, noisy) in fixtures() {
        let reference = fidelity_alg2(&ideal, &noisy, &alg2_options(1)).expect("sequential");
        for threads in [2usize, 4, 8] {
            let parallel = fidelity_alg2(&ideal, &noisy, &alg2_options(threads)).expect("parallel");
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
/// fidelity bounds and the same verdict and node count as `--threads 1`.
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

/// The shared parallel driver agrees to the interning tolerance with a
/// private reference: Algorithm I's term engine, whose workers keep
/// private managers, under threads. (The private sequential driver on
/// the same doubled network is the reference of
/// `alg2::tests::qv6x4_shared_store_matches_private_work_at_any_thread_count`.)
#[test]
fn parallel_alg2_agrees_with_private_driver_and_alg1() {
    for (name, ideal, noisy) in fixtures() {
        let shared = fidelity_alg2(&ideal, &noisy, &alg2_options(4)).expect("shared parallel");
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
            (alg1.fidelity_lower - shared.fidelity).abs() < 1e-9,
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
    let seq = fidelity_alg2(&ideal, &noisy, &alg2_options(1)).expect("t1");
    let par = fidelity_alg2(&ideal, &noisy, &alg2_options(4)).expect("t4");
    assert_eq!(seq.fidelity.to_bits(), par.fidelity.to_bits());
    assert_eq!(seq.max_nodes, par.max_nodes);
    assert!(seq.fidelity > 0.9 && seq.fidelity < 1.0, "noise must bite");
}

/// Deadlines abort the parallel driver on every worker count, including
/// mid-contraction (the amortised in-recursion probe).
#[test]
fn parallel_alg2_deadline_times_out() {
    let (_, ideal, noisy) = fixtures().pop().expect("fixture");
    for threads in [1usize, 4] {
        let options = CheckOptions {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..alg2_options(threads)
        };
        assert_eq!(
            fidelity_alg2(&ideal, &noisy, &options).unwrap_err(),
            qaec::QaecError::Timeout,
            "threads={threads}"
        );
    }
}
