//! `serve_stream`: two closed-loop clients drive `qaec serve` over its
//! unix socket — checks on a hot set (cache hits), fresh pairs (misses,
//! which compile) and a few sweeps — under a cache budget below the hot
//! set's footprint, so the cache evicts.

use crate::inputs::{self, Query, Request};
use crate::json::{self, Value};
use crate::layers::{self, Counters, OP_DEADLINE};
use crate::report::Outcome;
use crate::serve::{self, Client, Expected, ServeTimes, Server};
use crate::trace::Tracer;
use crate::{layer_metrics, set_latency, set_serve, set_throughput, SETUPS};
use qaec::{EpsilonPoint, EquivalenceReport, SweepPoint, Verdict};
use qaec_tensornet::plan::build_count;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Client connections, each a closed loop.
pub const CLIENTS: usize = 2;
/// `--cache-bytes`: below the hot set's warm-store footprint.
pub const CACHE_BYTES: usize = 8 << 20;

/// Replies per throughput window.
const WINDOW: usize = 200;

/// One request as a client sent it.
struct Sent {
    index: usize,
    start: Instant,
    end: Instant,
    reply: Result<String, String>,
}

/// A request's one-shot answer, computed in-process.
enum Answer {
    Check(EquivalenceReport),
    Noise(Vec<SweepPoint>),
    Epsilon(Vec<EpsilonPoint>),
}

/// Answers a request the one-shot way (parse, compile, query on a fresh
/// session), counting its work when `counters` is given.
fn one_shot(
    request: &Request,
    tracer: &mut Tracer,
    counters: Option<&mut Counters>,
) -> Result<Answer, String> {
    let (ideal, noisy) = layers::parse(&request.pair, tracer)?;
    let plans = build_count();
    let mut compiled = layers::compile(&ideal, &noisy, Instant::now() + OP_DEADLINE, tracer)?;
    let answer = match &request.query {
        Query::Check { epsilon } => Answer::Check(layers::check(&mut compiled, *epsilon, tracer)?),
        Query::SweepNoise { epsilon, strengths } => Answer::Noise(
            tracer
                .span("session.query", || {
                    compiled.sweep_noise(*epsilon, strengths)
                })
                .map_err(|e| e.to_string())?,
        ),
        Query::SweepEpsilon { epsilons } => Answer::Epsilon(
            tracer
                .span("session.query", || compiled.sweep_epsilon(epsilons))
                .map_err(|e| e.to_string())?,
        ),
    };
    if let Some(counters) = counters {
        counters.plans_built += build_count() - plans;
        match &answer {
            Answer::Check(report) => counters.add_check(compiled.algorithm(), report),
            Answer::Noise(points) => counters.add_sweep(compiled.algorithm(), &noisy, points),
            Answer::Epsilon(_) => {}
        }
    }
    Ok(answer)
}

/// Checks a one-shot answer against the exact fidelity.
fn verify(request: &Request, answer: &Answer) -> Result<(), String> {
    let (ideal, noisy) = layers::parse(&request.pair, &mut Tracer::new(false))?;
    match (answer, &request.query) {
        (Answer::Check(report), _) => {
            layers::verify_check(report, layers::exact_fidelity(&ideal, &noisy)?)
        }
        (Answer::Noise(points), Query::SweepNoise { epsilon, strengths }) => {
            layers::verify_sweep(&ideal, &noisy, *epsilon, strengths, points)
        }
        (Answer::Epsilon(points), _) => {
            let exact = layers::exact_fidelity(&ideal, &noisy)?;
            points.iter().try_for_each(|point| {
                let (lo, hi) = point.fidelity_bounds;
                let contains =
                    lo - layers::EXACT_TOLERANCE <= exact && exact <= hi + layers::EXACT_TOLERANCE;
                if contains && point.verdict == Verdict::decide(exact, point.epsilon) {
                    Ok(())
                } else {
                    Err(format!(
                        "ε = {}: [{lo}, {hi}] {}, exact {exact}",
                        point.epsilon, point.verdict
                    ))
                }
            })
        }
        (Answer::Noise(_), _) => Err("a noise sweep answered another query".into()),
    }
}

fn expected(request: &Request, answer: &Answer) -> Expected {
    match (answer, &request.query) {
        (Answer::Check(report), _) => serve::expect_check(report),
        (Answer::Noise(points), Query::SweepNoise { strengths, .. }) => {
            serve::expect_sweep_noise(strengths, points)
        }
        (Answer::Noise(points), _) => serve::expect_sweep_noise(&[], points),
        (Answer::Epsilon(points), _) => serve::expect_sweep_epsilon(points),
    }
}

/// One client's closed loop: send, wait for the reply, repeat, until
/// `stop` or the first failed call.
fn drive(mut client: Client, script: &[usize], lines: &[String], stop: Instant) -> Vec<Sent> {
    let mut log = Vec::new();
    for (k, &index) in script.iter().enumerate() {
        if Instant::now() >= stop {
            break;
        }
        let line = format!("{}, \"id\": {k}}}\n", lines[index]);
        let start = Instant::now();
        let reply = client.call(&line);
        let failed = reply.is_err();
        log.push(Sent {
            index,
            start,
            end: Instant::now(),
            reply,
        });
        if failed {
            break;
        }
    }
    log
}

pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
    dir: &Path,
) -> Result<(), String> {
    // Set-up — input generation plus server start — several times; the
    // last server stays up for the timed stream.
    let mut setup = Vec::new();
    let mut ready = None;
    for attempt in 0..SETUPS {
        drop(ready.take());
        let t0 = Instant::now();
        let inputs = inputs::serve_stream(seed, CLIENTS);
        let lines: Vec<String> = inputs.requests.iter().map(Request::line_prefix).collect();
        let socket = dir.join(format!("serve-{}-{attempt}.sock", std::process::id()));
        let server = Server::start(socket, CACHE_BYTES)?;
        setup.push(t0.elapsed().as_secs_f64());
        ready = Some((inputs, lines, server));
    }
    out.set("setup_s", crate::stats::median(&setup));
    let (inputs, lines, server) = ready.expect("set up at least once");
    let clients = (0..CLIENTS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;

    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut sent: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&inputs.scripts)
            .map(|(client, script)| {
                let lines = &lines;
                scope.spawn(move || drive(client, script, lines, stop))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = sent.iter().map(|s| s.end).max().unwrap_or(start);
    out.set("peak_rss_mb", server.peak_rss_mb()?);
    let service = serve::service_counters(&mut server.connect()?)?;
    drop(server);

    sent.sort_by_key(|s| s.start);
    let latency: Vec<f64> = sent
        .iter()
        .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
        .collect();
    out.attempted = sent.len() as u64;
    set_latency(out, &latency);
    // Windows of WINDOW consecutive replies, across both clients.
    let mut ends: Vec<Instant> = sent.iter().map(|s| s.end).collect();
    ends.sort();
    let mut marks = vec![start];
    marks.extend(ends.iter().skip(WINDOW - 1).step_by(WINDOW).copied());
    let mut rates: Vec<f64> = marks
        .windows(2)
        .map(|w| WINDOW as f64 / (w[1] - w[0]).as_secs_f64())
        .collect();
    if rates.is_empty() {
        rates.push(sent.len() as f64 / (end - start).as_secs_f64());
    }
    set_throughput(out, &rates);

    // Replies, outside the timed region.
    let mut times = ServeTimes::default();
    let mut replies: BTreeMap<usize, Vec<Value>> = BTreeMap::new();
    for (op, s) in sent.iter().enumerate() {
        tracer.record("op", op as u64, s.start, s.end);
        let parsed = s.reply.clone().and_then(|text| json::parse(&text));
        match parsed {
            Ok(reply) => {
                times.add(&reply, (s.end - s.start).as_secs_f64() * 1e3);
                replies.entry(s.index).or_default().push(reply);
            }
            Err(e) => out.fail(1, format!("request {}: {e}", s.index)),
        }
    }
    set_serve(out, &times, &service);

    // Every reply must match its request's one-shot answer. The fixed
    // requests (hot set and sweeps) are answered whether sent or not, so
    // the work counters cover the same inputs on every run, and are also
    // checked against the exact fidelity.
    let mut counters = Counters::default();
    let fixed = (0..inputs.fixed).chain(replies.range(inputs.fixed..).map(|(&i, _)| i));
    for index in fixed.collect::<Vec<_>>() {
        let request = &inputs.requests[index];
        let got = replies.get(&index).map_or(&[][..], Vec::as_slice);
        let counted = index < inputs.fixed;
        tracer.next_op();
        let answer = one_shot(request, tracer, counted.then_some(&mut counters)).and_then(|a| {
            if counted {
                verify(request, &a)?;
            }
            Ok(a)
        });
        let label = &request.pair.label;
        match answer {
            Err(e) => out.fail(got.len() as u64, format!("{label}: {e}")),
            Ok(answer) => {
                let expected = expected(request, &answer);
                for reply in got {
                    if let Err(e) = serve::compare(reply, &expected) {
                        out.fail(1, format!("{label} via qaec serve: {e}"));
                    }
                }
            }
        }
    }
    if tracer.on() {
        layer_metrics(out, tracer, &counters, latency.len());
    }
    Ok(())
}
