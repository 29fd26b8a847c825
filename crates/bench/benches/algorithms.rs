//! Criterion benches of the two checking algorithms: per-family
//! contraction cost, the Algorithm I/II scaling in the noise count (the
//! continuous version of Fig. 7), and `Checker::compile` alone, whose
//! cost is mostly contraction planning.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qaec::{fidelity_alg1, fidelity_alg2, AlgorithmChoice, CheckOptions, Checker};
use qaec_circuit::generators::{bernstein_vazirani_all_ones, qft, quantum_volume, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::NoiseChannel;

fn bench_alg2_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg2/family");
    group.sample_size(10);
    let cases = vec![
        ("bv5", bernstein_vazirani_all_ones(5)),
        ("bv9", bernstein_vazirani_all_ones(9)),
        ("qft4", qft(4, QftStyle::DecomposedNoSwaps)),
        ("qft6", qft(6, QftStyle::DecomposedNoSwaps)),
    ];
    for (name, ideal) in cases {
        let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 3, 1);
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(
                    fidelity_alg2(&ideal, &noisy, &CheckOptions::default()).expect("alg2"),
                )
            });
        });
    }
    group.finish();
}

fn bench_alg1_vs_noise_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg1/noise_count");
    group.sample_size(10);
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    for k in [1usize, 2, 3, 4] {
        let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, k, 7);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    fidelity_alg1(&ideal, &noisy, None, &CheckOptions::default()).expect("alg1"),
                )
            });
        });
    }
    group.finish();
}

fn bench_alg2_vs_noise_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("alg2/noise_count");
    group.sample_size(10);
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    for k in [1usize, 2, 3, 4] {
        let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, k, 7);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    fidelity_alg2(&ideal, &noisy, &CheckOptions::default()).expect("alg2"),
                )
            });
        });
    }
    group.finish();
}

fn bench_early_termination(c: &mut Criterion) {
    // ε-decision with best-first ordering vs exhaustive enumeration.
    let mut group = c.benchmark_group("alg1/early_termination");
    group.sample_size(10);
    let ideal = qft(3, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.9995 }, 5, 3);
    group.bench_function("decide_eps_0.05", |b| {
        b.iter(|| {
            std::hint::black_box(
                qaec::check_equivalence(&ideal, &noisy, 0.05, &CheckOptions::default())
                    .expect("check"),
            )
        });
    });
    group.bench_function("exact_all_terms", |b| {
        b.iter(|| {
            std::hint::black_box(
                fidelity_alg1(&ideal, &noisy, None, &CheckOptions::default()).expect("alg1"),
            )
        });
    });
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    // Validation, miter construction and planning on Table I rows where
    // planning dominates; no query runs.
    let mut group = c.benchmark_group("compile");
    group.sample_size(20);
    let seed = 0xDAC2021;
    let cases = [
        (
            "qft7_k6_alg2",
            qft(7, QftStyle::DecomposedNoSwaps),
            6,
            AlgorithmChoice::AlgorithmII,
        ),
        (
            "qv_n9d5_k3_alg2",
            quantum_volume(9, 5, seed),
            3,
            AlgorithmChoice::AlgorithmII,
        ),
        (
            "qft10_k2_alg1",
            qft(10, QftStyle::DecomposedNoSwaps),
            2,
            AlgorithmChoice::AlgorithmI,
        ),
    ];
    for (name, ideal, sites, algorithm) in cases {
        let noisy = insert_random_noise(
            &ideal,
            &NoiseChannel::Depolarizing { p: 0.999 },
            sites,
            seed,
        );
        let options = CheckOptions {
            algorithm,
            threads: 1,
            ..CheckOptions::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                Checker::new(&ideal, &noisy)
                    .options(options.clone())
                    .compile()
                    .expect("compile")
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_alg2_families,
    bench_alg1_vs_noise_count,
    bench_alg2_vs_noise_count,
    bench_early_termination
);
criterion_main!(benches);
