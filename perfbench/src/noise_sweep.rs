//! `noise_sweep`: one closed-loop client compiles each pair once,
//! checks it at its threshold, then runs repeated 8-strength
//! `sweep_noise` calls — the paper's Table I column, compile-once.

use crate::clock::{cpu_now, cpu_since};
use crate::inputs::{self, Pair, SWEEP_EPSILON};
use crate::layers::{self, Counters, OP_DEADLINE};
use crate::report::Outcome;
use crate::serve::{self, Expected};
use crate::stats::Run;
use crate::trace::Tracer;
use crate::{layer_metrics, peak_rss_self, repeat_setup, serve_probe, set_timed};
use qaec::{CompiledCheck, EquivalenceReport, SweepPoint};
use qaec_circuit::Circuit;
use qaec_tensornet::plan::build_count;
use std::path::Path;
use std::time::{Duration, Instant};

struct Session {
    pair: Pair,
    ideal: Circuit,
    noisy: Circuit,
    compiled: CompiledCheck,
    check: EquivalenceReport,
    first: Vec<SweepPoint>,
    ops: u64,
}

/// One timed sweep call.
fn sweep(
    session: &mut Session,
    strengths: &[f64],
    tracer: &mut Tracer,
    run: &mut Run,
    out: &mut Outcome,
) -> Option<Vec<SweepPoint>> {
    tracer.next_op();
    let (cpu0, t0) = (cpu_now(), Instant::now());
    let result = tracer.span("session.query", || {
        session.compiled.sweep_noise(SWEEP_EPSILON, strengths)
    });
    let (t1, cpu) = (Instant::now(), cpu_since(cpu0));
    tracer.record("op", tracer.op(), t0, t1);
    run.op(cpu * 1e3, (t1 - t0).as_secs_f64() * 1e3);
    run.calibrate_if_due();
    out.attempted += 1;
    session.ops += 1;
    match result {
        Ok(points) => Some(points),
        Err(e) => {
            out.fail(1, format!("{}: sweep: {e}", session.pair.label));
            None
        }
    }
}

fn same_points(a: &[SweepPoint], b: &[SweepPoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.fidelity.to_bits() == y.fidelity.to_bits()
                && x.verdict == y.verdict
                && x.max_nodes == y.max_nodes
        })
}

/// Compiles a pair and checks it; the session answers sweeps until
/// `deadline`.
fn open(pair: &Pair, deadline: Instant, tracer: &mut Tracer) -> Result<Session, String> {
    let (ideal, noisy) = layers::parse(pair, tracer)?;
    let mut compiled = layers::compile(&ideal, &noisy, deadline, tracer)?;
    let check = layers::check(&mut compiled, pair.epsilon, tracer)?;
    Ok(Session {
        pair: pair.clone(),
        ideal,
        noisy,
        compiled,
        check,
        first: Vec::new(),
        ops: 0,
    })
}

/// The references for one session: its check against the exact
/// fidelity, and every point of its sweep against the exact fidelity of
/// the re-parameterised pair.
fn verify(session: &Session, strengths: &[f64]) -> Result<(), String> {
    let exact = layers::exact_fidelity(&session.ideal, &session.noisy)?;
    layers::verify_check(&session.check, exact)?;
    layers::verify_sweep(
        &session.ideal,
        &session.noisy,
        SWEEP_EPSILON,
        strengths,
        &session.first,
    )
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, out: &mut Outcome, dir: &Path) {
    let inputs = repeat_setup(out, || inputs::noise_sweep(seed));
    let strengths = &inputs.strengths;
    let mut counters = Counters::default();
    let mut run = Run::default();
    let start = Instant::now();

    // The canonical pass: compile and check every pair, then sweep each
    // once. The heavy pair comes last.
    // Sessions live the whole run: their deadline is the run's end plus
    // the per-operation allowance.
    let deadline = start + Duration::from_secs_f64(seconds) + OP_DEADLINE;
    let plans = build_count();
    let mut sessions = Vec::new();
    for pair in inputs.light.iter().chain([&inputs.heavy]) {
        tracer.next_op();
        match open(pair, deadline, tracer) {
            Ok(session) => {
                counters.add_check(session.compiled.algorithm(), &session.check);
                sessions.push(session);
            }
            Err(e) => {
                out.fail(1, format!("{}: {e}", pair.label));
                return;
            }
        }
    }
    for session in &mut sessions {
        if let Some(points) = sweep(session, strengths, tracer, &mut run, out) {
            counters.add_sweep(session.compiled.algorithm(), &session.noisy, &points);
            session.first = points;
        }
    }
    // MPO-compiled sessions plan their exact fallback on first use.
    counters.plans_built = build_count() - plans;

    // Then whole cycles — one heavy sweep, then the light ones in the
    // seeded order — until the time is up; every answer must repeat the
    // first.
    let (heavy, light) = sessions.split_last_mut().expect("sessions were opened");
    while run.windows() == 0 || start.elapsed().as_secs_f64() < seconds {
        run.open_window();
        let mut points = 0;
        for k in 0..=inputs.cycle.len() {
            let session = match k {
                0 => &mut *heavy,
                k => &mut light[inputs.cycle[k - 1]],
            };
            if let Some(answer) = sweep(session, strengths, tracer, &mut run, out) {
                points += answer.len();
                if !same_points(&answer, &session.first) {
                    let why = format!("{}: the sweep changed between calls", session.pair.label);
                    out.fail(1, why);
                }
            }
        }
        run.close_window(points as f64);
    }
    peak_rss_self(out);
    set_timed(out, &run);

    for session in &sessions {
        if let Err(e) = verify(session, strengths) {
            out.fail(session.ops, format!("{}: {e}", session.pair.label));
        }
    }

    if tracer.on() {
        layer_metrics(out, tracer, &counters, run.cpu_ms.len());
        let requests: Vec<(Pair, Expected)> = sessions
            .iter()
            .map(|s| (s.pair.clone(), serve::expect_check(&s.check)))
            .collect();
        serve_probe(out, dir, &requests);
    }
}
