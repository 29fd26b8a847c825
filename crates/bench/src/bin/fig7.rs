//! Regenerates the paper's **Fig. 7**: `log10(t1/t2)` — Algorithm I time
//! over Algorithm II time — as the number of noise sites grows, for the
//! Bernstein–Vazirani and QFT families on 3–5 qubits.
//!
//! ```text
//! cargo run -p qaec-bench --release --bin fig7 [--max-noises K] [--timeout SECS] [--json PATH]
//! ```
//!
//! The paper's reading: at one noise site most circuits have
//! `log10(t1/t2) < 0` (Algorithm I wins); each extra site adds ≈
//! `log10(4) ≈ 0.6`, so the polyline rises linearly and Algorithm II
//! dominates beyond the crossover.

use qaec_bench::{run_alg1, run_alg2, HarnessArgs, RunRecord, NOISE_SEED};
use qaec_circuit::generators::{bernstein_vazirani_all_ones, qft, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};

const USAGE: &str = "fig7 [--max-noises K] [--timeout SECS] [--json PATH]";

fn main() {
    let args = HarnessArgs::parse(USAGE);
    let families: Vec<(String, Circuit)> = vec![
        ("bv3".into(), bernstein_vazirani_all_ones(3)),
        ("bv4".into(), bernstein_vazirani_all_ones(4)),
        ("bv5".into(), bernstein_vazirani_all_ones(5)),
        ("qft3".into(), qft(3, QftStyle::DecomposedNoSwaps)),
        ("qft4".into(), qft(4, QftStyle::DecomposedNoSwaps)),
        ("qft5".into(), qft(5, QftStyle::DecomposedNoSwaps)),
    ];

    println!(
        "# Fig. 7 — log10(t1/t2) vs number of noise sites (timeout {}s)\n",
        args.timeout.as_secs()
    );
    print!("{:<8}", "circuit");
    for k in 1..=args.max_noises {
        print!("{k:>9}");
    }
    println!();

    let mut records: Vec<RunRecord> = Vec::new();
    for (name, ideal) in families {
        print!("{name:<8}");
        for k in 1..=args.max_noises {
            let noisy = insert_random_noise(
                &ideal,
                &NoiseChannel::Depolarizing { p: 0.999 },
                k,
                NOISE_SEED + k as u64,
            );
            let a1 = qaec_bench::measure_best(3, || run_alg1(&ideal, &noisy, args.timeout));
            let a2 = qaec_bench::measure_best(3, || run_alg2(&ideal, &noisy, args.timeout));
            records.extend(RunRecord::from_outcome(format!("{name}_k{k}_alg1"), &a1));
            records.extend(RunRecord::from_outcome(format!("{name}_k{k}_alg2"), &a2));
            match (&a1, &a2) {
                (
                    qaec_bench::Outcome::Done {
                        time: t1,
                        fidelity: f1,
                        ..
                    },
                    qaec_bench::Outcome::Done {
                        time: t2,
                        fidelity: f2,
                        ..
                    },
                ) => {
                    assert!((f1 - f2).abs() < 1e-6, "{name} k={k}: {f1} vs {f2}");
                    let ratio = (t1.as_secs_f64() / t2.as_secs_f64()).log10();
                    print!("{ratio:>9.2}");
                }
                _ => print!("{:>9}", "TO"),
            }
        }
        println!();
    }
    println!(
        "\nPositive values: Algorithm II faster; each +0.6 ≈ one more 4-operator noise\n\
         site's worth of Algorithm I work. The paper's Fig. 7 shows the same linear rise\n\
         from below zero at a single noise site."
    );
    args.emit_json(&records);
}
