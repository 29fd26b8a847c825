//! Regenerates the paper's **Table II**: the utility of the shared
//! computed table in Algorithm I.
//!
//! ```text
//! cargo run -p qaec-bench --release --bin table2 [--max-noises K] [--timeout SECS] [--json PATH]
//! ```
//!
//! "Opt." keeps one decision-diagram manager (unique + computed tables)
//! across all trace terms; "Ori." rebuilds them per term. The paper
//! reports rates (Opt./Ori.) around 0.25–0.8, improving as the noise
//! count grows — the same trend this binary prints.

use qaec_bench::{run_alg1_with, HarnessArgs, RunRecord, NOISE_SEED};
use qaec_circuit::generators::bernstein_vazirani_all_ones;
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::NoiseChannel;

const USAGE: &str = "table2 [--max-noises K] [--timeout SECS] [--json PATH]";

fn main() {
    let args = HarnessArgs::parse(USAGE);
    let circuits = [3usize, 4, 5].map(|n| (format!("bv{n}"), bernstein_vazirani_all_ones(n)));

    println!(
        "# Table II — Alg. I runtime with (Opt.) / without (Ori.) the shared computed table\n"
    );
    print!("{:<7}", "noises");
    for (name, _) in &circuits {
        print!("{:>10} {:>10} {:>7}", format!("{name} Opt"), "Ori", "rate");
    }
    println!();

    let mut records: Vec<RunRecord> = Vec::new();
    let mut sums = vec![(0.0f64, 0.0f64); circuits.len()];
    for k in 1..=args.max_noises {
        print!("{k:<7}");
        for (slot, (name, ideal)) in circuits.iter().enumerate() {
            let noisy = insert_random_noise(
                ideal,
                &NoiseChannel::Depolarizing { p: 0.999 },
                k,
                NOISE_SEED + k as u64,
            );
            let opt =
                qaec_bench::measure_best(3, || run_alg1_with(ideal, &noisy, args.timeout, true));
            let ori =
                qaec_bench::measure_best(3, || run_alg1_with(ideal, &noisy, args.timeout, false));
            records.extend(RunRecord::from_outcome(format!("{name}_k{k}_opt"), &opt));
            records.extend(RunRecord::from_outcome(format!("{name}_k{k}_ori"), &ori));
            match (&opt, &ori) {
                (
                    qaec_bench::Outcome::Done {
                        time: to,
                        fidelity: fo,
                        ..
                    },
                    qaec_bench::Outcome::Done {
                        time: tr,
                        fidelity: fr,
                        ..
                    },
                ) => {
                    assert!((fo - fr).abs() < 1e-7, "{name} k={k}");
                    let (to, tr) = (to.as_secs_f64(), tr.as_secs_f64());
                    sums[slot].0 += to;
                    sums[slot].1 += tr;
                    print!("{to:>10.3} {tr:>10.3} {:>7.2}", to / tr);
                }
                _ => print!("{:>10} {:>10} {:>7}", "TO", "TO", "-"),
            }
        }
        println!();
    }
    print!("{:<7}", "SUM");
    for (opt, ori) in &sums {
        let rate = if *ori > 0.0 { opt / ori } else { f64::NAN };
        print!("{opt:>10.3} {ori:>10.3} {rate:>7.2}");
    }
    println!(
        "\n\nrate = Opt./Ori.; the paper reports average savings of 72%/62%/65%\n\
         (rates ≈ 0.28/0.38/0.35) for bv3/bv4/bv5 — expect the same downward\n\
         trend with growing noise count here."
    );
    args.emit_json(&records);
}
