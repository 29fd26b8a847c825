//! `check_suite`: one closed-loop client runs cold one-shot checks —
//! QASM parse, `Checker::compile`, `check(ε)` — the path of
//! `qaec check`, over the Table I rows and wide tiled pairs.

use crate::clock::{cpu_now, cpu_since};
use crate::inputs::{self, Pair, Rng};
use crate::layers::{self, Counters};
use crate::report::Outcome;
use crate::serve::{self, Expected};
use crate::stats::Run;
use crate::trace::Tracer;
use crate::{layer_metrics, peak_rss_self, repeat_setup, serve_probe, set_timed};
use qaec::{AlgorithmUsed, EquivalenceReport};
use qaec_tensornet::plan::build_count;
use std::path::Path;
use std::time::Instant;

/// The parts of a report that must repeat exactly on every check of a
/// pair (everything but the timings).
fn answer(report: &EquivalenceReport) -> impl PartialEq {
    (
        report.verdict,
        report.fidelity_bounds.0.to_bits(),
        report.fidelity_bounds.1.to_bits(),
        report.algorithm,
        report.terms_computed,
        report.total_terms,
        report.max_nodes,
        report.trunc_error.map(f64::to_bits),
        report.bond_max,
        report.cross_check,
    )
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, out: &mut Outcome, dir: &Path) {
    let pairs = repeat_setup(out, || inputs::check_suite(seed));

    // Closed loop over whole passes, each in a seed-shuffled order, so
    // every pair is checked equally often. The first pass is the
    // canonical one the work counters cover.
    let mut order_rng = Rng::new(seed.rotate_left(17) ^ 0x000c_4ec5);
    let mut first: Vec<Option<(AlgorithmUsed, EquivalenceReport)>> = vec![None; pairs.len()];
    let mut ops = vec![0u64; pairs.len()];
    let mut counters = Counters::default();
    let mut run = Run::default();
    let start = Instant::now();
    while run.windows() == 0 || start.elapsed().as_secs_f64() < seconds {
        run.open_window();
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order_rng.shuffle(&mut order);
        for i in order {
            let pair = &pairs[i];
            tracer.next_op();
            let plans = build_count();
            let (cpu0, t0) = (cpu_now(), Instant::now());
            let result = layers::one_shot(pair, tracer);
            let (t1, cpu) = (Instant::now(), cpu_since(cpu0));
            tracer.record("op", tracer.op(), t0, t1);
            run.op(cpu * 1e3, (t1 - t0).as_secs_f64() * 1e3);
            run.calibrate_if_due();
            out.attempted += 1;
            ops[i] += 1;
            match (result, &first[i]) {
                (Err(e), _) => out.fail(1, format!("{}: {e}", pair.label)),
                (Ok((compiled, report)), None) => {
                    counters.plans_built += build_count() - plans;
                    counters.add_check(compiled, &report);
                    first[i] = Some((compiled, report));
                }
                (Ok((_, report)), Some((_, earlier))) => {
                    if answer(&report) != answer(earlier) {
                        out.fail(
                            1,
                            format!("{}: the answer changed between checks", pair.label),
                        );
                    }
                }
            }
        }
        run.close_window(pairs.len() as f64);
    }
    peak_rss_self(out);
    set_timed(out, &run);

    // References, outside the timed region: each pair's exact fidelity,
    // cross-checked between backends, must lie in the checked interval.
    for (i, pair) in pairs.iter().enumerate() {
        let Some((_, report)) = &first[i] else {
            continue;
        };
        let verdict = layers::parse(pair, &mut Tracer::new(false)).and_then(|(ideal, noisy)| {
            let exact = layers::exact_fidelity(&ideal, &noisy)?;
            layers::verify_check(report, exact)
        });
        if let Err(e) = verdict {
            out.fail(ops[i], format!("{}: {e}", pair.label));
        }
    }

    if tracer.on() {
        layer_metrics(out, tracer, &counters, run.cpu_ms.len());
        let requests: Vec<(Pair, Expected)> = pairs
            .iter()
            .zip(&first)
            .filter_map(|(pair, first)| {
                let (_, report) = first.as_ref()?;
                Some((pair.clone(), serve::expect_check(report)))
            })
            .collect();
        serve_probe(out, dir, &requests);
    }
}
