//! Criterion micro-benchmarks of the decision-diagram engine: tensor
//! conversion, addition and contraction on random dense tensors, and
//! the weight interning and store construction beneath them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qaec_math::C64;
use qaec_tdd::{convert, ops, SharedTddStore, TddManager, WeightTable};
use qaec_tensornet::{IndexId, Tensor, VarOrder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(rank: usize, rng: &mut StdRng) -> Tensor {
    let data: Vec<C64> = (0..1usize << rank)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    Tensor::from_flat((0..rank as u32).map(IndexId).collect(), data)
}

fn bench_from_tensor(c: &mut Criterion) {
    let mut group = c.benchmark_group("tdd/from_tensor");
    group.sample_size(20);
    for rank in [4usize, 8, 10] {
        let mut rng = StdRng::seed_from_u64(1);
        let t = random_tensor(rank, &mut rng);
        let order = VarOrder::from_sequence((0..rank as u32).map(IndexId));
        group.bench_with_input(BenchmarkId::from_parameter(rank), &rank, |b, _| {
            b.iter(|| {
                let mut m = TddManager::new();
                std::hint::black_box(convert::from_tensor(&mut m, &t, &order));
            });
        });
    }
    group.finish();
}

fn bench_add(c: &mut Criterion) {
    let mut group = c.benchmark_group("tdd/add");
    group.sample_size(20);
    for rank in [6usize, 10] {
        let mut rng = StdRng::seed_from_u64(2);
        let ta = random_tensor(rank, &mut rng);
        let tb = random_tensor(rank, &mut rng);
        let order = VarOrder::from_sequence((0..rank as u32).map(IndexId));
        group.bench_with_input(BenchmarkId::from_parameter(rank), &rank, |b, _| {
            b.iter(|| {
                let mut m = TddManager::new();
                let ea = convert::from_tensor(&mut m, &ta, &order);
                let eb = convert::from_tensor(&mut m, &tb, &order);
                std::hint::black_box(ops::add(&mut m, ea, eb));
            });
        });
    }
    group.finish();
}

fn bench_cont(c: &mut Criterion) {
    let mut group = c.benchmark_group("tdd/cont");
    group.sample_size(20);
    // Matrix-product shaped contraction: A[0..h, h..r] · B[h..r, r..]
    for half in [3usize, 5] {
        let mut rng = StdRng::seed_from_u64(3);
        let a_idx: Vec<IndexId> = (0..2 * half as u32).map(IndexId).collect();
        let b_idx: Vec<IndexId> = (half as u32..3 * half as u32).map(IndexId).collect();
        let ta = Tensor::from_flat(
            a_idx.clone(),
            (0..1usize << (2 * half))
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect(),
        );
        let tb = Tensor::from_flat(
            b_idx.clone(),
            (0..1usize << (2 * half))
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect(),
        );
        let order = VarOrder::from_sequence((0..3 * half as u32).map(IndexId));
        let shared: Vec<u32> = (half as u32..2 * half as u32).collect();
        group.bench_with_input(BenchmarkId::from_parameter(half * 2), &half, |b, _| {
            b.iter(|| {
                let mut m = TddManager::new();
                let ea = convert::from_tensor(&mut m, &ta, &order);
                let eb = convert::from_tensor(&mut m, &tb, &order);
                let set = m.intern_elim_set(shared.clone());
                std::hint::black_box(ops::cont(&mut m, ea, eb, set));
            });
        });
    }
    group.finish();
}

fn bench_structured_vs_random(c: &mut Criterion) {
    // Structure exploitation: a CX-layer tensor (sparse, repetitive) must
    // convert much faster than a dense random tensor of equal rank.
    let mut group = c.benchmark_group("tdd/structure");
    group.sample_size(20);
    let order = VarOrder::from_sequence((0..12u32).map(IndexId));
    let idx: Vec<IndexId> = (0..12u32).map(IndexId).collect();
    // δ-chain tensor: product of deltas — maximal structure.
    let mut structured = Tensor::delta(IndexId(0), IndexId(1));
    for k in 1..6u32 {
        structured = structured.contract(&Tensor::delta(IndexId(2 * k), IndexId(2 * k + 1)), &[]);
    }
    group.bench_function("structured_delta_chain", |b| {
        b.iter(|| {
            let mut m = TddManager::new();
            std::hint::black_box(convert::from_tensor(&mut m, &structured, &order));
        });
    });
    let mut rng = StdRng::seed_from_u64(4);
    let random = Tensor::from_flat(
        idx,
        (0..1usize << 12)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect(),
    );
    group.bench_function("dense_random", |b| {
        b.iter(|| {
            let mut m = TddManager::new();
            std::hint::black_box(convert::from_tensor(&mut m, &random, &order));
        });
    });
    group.finish();
}

fn bench_intern(c: &mut Criterion) {
    // Weight interning, which every `add`/`cont` result goes through.
    // The values are seeded and far apart at the default tolerance, so
    // each is a new representative on first sight.
    let mut group = c.benchmark_group("tdd/intern");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(5);
    let values: Vec<C64> = (0..10_000)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    group.bench_function("private_fresh", |b| {
        b.iter(|| {
            let mut table = WeightTable::new(1e-10);
            for &z in &values {
                std::hint::black_box(table.intern(z));
            }
            table
        });
    });
    let mut warm = WeightTable::new(1e-10);
    for &z in &values {
        warm.intern(z);
    }
    group.bench_function("private_repeated", |b| {
        b.iter(|| {
            for &z in &values {
                std::hint::black_box(warm.intern(z));
            }
        });
    });
    // Structured values, the kind contractions produce: dyadic reals,
    // dyadic values with a zero imaginary part, and runs of values 3 and
    // 5 tolerances apart. Unlike uniform values these sit on the
    // tolerance grid's bucket and cell edges.
    let structured: Vec<C64> = (0..10_000)
        .map(|k| {
            let dyadic = |rng: &mut StdRng| {
                rng.gen_range(-1024i32..1024) as f64 / (1u32 << rng.gen_range(0..12)) as f64
            };
            match k % 4 {
                0 => C64::new(dyadic(&mut rng), dyadic(&mut rng)),
                1 => C64::real(dyadic(&mut rng)),
                2 => C64::real(rng.gen_range(-1.0..1.0)),
                _ => {
                    let (run, step) = ((k / 64) as f64 / 256.0, (k / 4 % 16) as f64);
                    C64::new(run + step * 3e-10, -run - step * 5e-10)
                }
            }
        })
        .collect();
    group.bench_function("private_structured_fresh", |b| {
        b.iter(|| {
            let mut table = WeightTable::new(1e-10);
            for &z in &structured {
                std::hint::black_box(table.intern(z));
            }
            table
        });
    });
    // Hit-heavy: the structured stream interned twice over on a fresh
    // table, so every value of the second pass finds its first.
    group.bench_function("private_structured_twice", |b| {
        b.iter(|| {
            let mut table = WeightTable::new(1e-10);
            for &z in structured.iter().chain(&structured) {
                std::hint::black_box(table.intern(z));
            }
            table
        });
    });
    // A plan driver's pattern: a new weight scope per step, here every
    // 200 values, on a fresh owned store — what a one-worker run interns
    // on.
    group.bench_function("scoped_fresh_scope200", |b| {
        b.iter(|| {
            let mut m = TddManager::new_owned();
            for scope in values.chunks(200) {
                m.begin_weight_scope();
                for &z in scope {
                    std::hint::black_box(m.intern_weight(z));
                }
            }
        });
    });
    // Building and dropping the store several workers share.
    group.bench_function("store_new_drop", |b| {
        b.iter(|| drop(std::hint::black_box(SharedTddStore::new())));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_from_tensor,
    bench_add,
    bench_cont,
    bench_structured_vs_random,
    bench_intern
);
criterion_main!(benches);
