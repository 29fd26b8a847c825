//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <check_suite|noise_sweep|serve_stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload built from the seed, checks every answer against a
//! reference computed outside the timed region, and prints each metric
//! with its unit; the last line is one JSON object
//! (`correct`/`attempted`/`failed`/`metrics`). `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones from spans
//! recorded around each layer call (also written to
//! `.perfbench/trace-<workload>-seed<n>.jsonl`). Exits 1 when any answer
//! is wrong or any operation fails, 2 on a usage or set-up error. See
//! `README.md` beside this file for the workloads and metrics.

mod calibrate;
mod check_suite;
mod clock;
mod inputs;
mod json;
mod layers;
mod noise_sweep;
mod report;
mod serve;
mod serve_stream;
mod stats;
mod trace;

use layers::Counters;
use report::{Outcome, END_TO_END, PER_LAYER};
use serve::{Expected, ServeTimes, ServiceCounters};
use stats::{ratio, Clock, Run};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Where runs keep sockets and span files, relative to the working
/// directory (the checkout root).
const RUN_DIR: &str = ".perfbench";

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 41;

/// The workloads. `BENCHMARK.json` lists the first two; `serve_stream`
/// runs on demand (see `README.md` for why).
const WORKLOADS: &[&str] = &["check_suite", "noise_sweep", "serve_stream"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The checker's `QAEC_*` variables force modes (threads, store,
/// lanes, reclamation) that would silently change what is measured.
fn refuse_qaec_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QAEC_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// Runs the input generation `SETUPS` times, each followed by the
/// calibration kernel, and sets `setup_s`: the median set-up's CPU
/// time, scaled to the reference speed by the kernel's median (see
/// [`calibrate`]). Returns the inputs.
pub fn repeat_setup<T>(out: &mut Outcome, mut generate: impl FnMut() -> T) -> T {
    let (mut times, mut kernels) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut inputs = None;
    for _ in 0..SETUPS {
        let start = clock::cpu_now();
        inputs = Some(generate());
        times.push(clock::cpu_since(start));
        kernels.push(calibrate::kernel_ms());
    }
    let (median, kernel) = (stats::median(&times), stats::median(&kernels));
    out.set("setup_s", median * calibrate::to_reference(kernel));
    out.info(format!(
        "setup_s unscaled: {median} s on the cpu clock, where the kernel took {kernel} ms"
    ));
    inputs.expect("SETUPS > 0")
}

/// The latency percentiles of the timed operations.
pub fn set_latency(out: &mut Outcome, latency_ms: &[f64]) {
    out.set_percentile("latency_ms.p50", latency_ms, 50.0);
    out.set_percentile("latency_ms.p90", latency_ms, 90.0);
}

/// Throughput as the upper quartile (nearest rank) of the rates of the
/// run's windows — whole passes or cycles of the workload's fixed mix,
/// or runs of replies — so that bursts of interference from outside the
/// process, which slow some windows, barely move it.
pub fn set_throughput(out: &mut Outcome, window_rates: &[f64]) {
    let mut rates = window_rates.to_vec();
    rates.sort_by(f64::total_cmp);
    let rank = (rates.len() * 3).div_ceil(4).max(1);
    out.set(
        "throughput_per_s",
        rates.get(rank - 1).copied().unwrap_or(0.0),
    );
}

/// Latency and throughput of an in-process workload over all its
/// windows, on the process CPU clock (see [`clock`]) scaled to the
/// reference speed (see [`Run::read`] and [`calibrate`]). The unscaled
/// figures, on both clocks, are printed beside them.
pub fn set_timed(out: &mut Outcome, run: &Run) {
    let scaled = run.read(Clock::Scaled);
    set_latency(out, &scaled.latency_ms);
    out.set("throughput_per_s", scaled.throughput);
    let (lo, hi) = scaled
        .scales
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    out.info(format!(
        "{} windows in {} blocks; kernel median {} ms; block scales {lo} to {hi}",
        run.windows(),
        scaled.scales.len(),
        run.kernel_ms()
    ));
    for (clock, reading) in [
        ("cpu", run.read(Clock::Cpu)),
        ("wall", run.read(Clock::Wall)),
    ] {
        let mut raw = Outcome::default();
        set_latency(&mut raw, &reading.latency_ms);
        let ms = |name| raw.get(name).unwrap_or(f64::NAN);
        out.info(format!(
            "unscaled, {clock} clock: p50 {} ms, p90 {} ms, {} /s",
            ms("latency_ms.p50"),
            ms("latency_ms.p90"),
            reading.throughput
        ));
    }
}

/// This process's peak resident memory so far, as `peak_rss_mb`.
pub fn peak_rss_self(out: &mut Outcome) {
    match report::peak_rss_mb("/proc/self/status") {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.wrong(e),
    }
}

/// The per-layer metrics from the spans and the canonical pass's
/// counters; `ops` is the number of timed operations.
pub fn layer_metrics(out: &mut Outcome, tracer: &Tracer, counters: &Counters, ops: usize) {
    let compile = tracer.durations_ms("session.compile");
    let query = tracer.durations_ms("session.query");
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    out.set_percentile(
        "circuit.parse_ms.p50",
        &tracer.durations_ms("circuit.parse"),
        50.0,
    );
    out.set_percentile("session.compile_ms.p50", &compile, 50.0);
    out.set(
        "session.compile_frac",
        ratio(sum(&compile), sum(&compile) + sum(&query)),
    );
    out.set_percentile("session.query_ms.p50", &query, 50.0);
    out.set_percentile("session.query_ms.p90", &query, 90.0);
    out.set("tensornet.plans_built", counters.plans_built as f64);
    let tdd = &counters.tdd;
    out.set("tdd.cont_calls", tdd.cont_calls as f64);
    out.set(
        "tdd.cont_hit_ratio",
        ratio(tdd.cont_hits as f64, tdd.cont_calls as f64),
    );
    out.set("tdd.add_calls", tdd.add_calls as f64);
    out.set(
        "tdd.add_hit_ratio",
        ratio(tdd.add_hits as f64, tdd.add_calls as f64),
    );
    out.set("tdd.nodes_created", tdd.nodes_created as f64);
    let probes = (tdd.unique_hits + tdd.nodes_created) as f64;
    out.set(
        "tdd.unique_hit_ratio",
        ratio(tdd.unique_hits as f64, probes),
    );
    out.set("tdd.max_nodes", counters.max_nodes as f64);
    out.set("tdd.peak_store_mb", tdd.peak_store_bytes as f64 / 1e6);
    out.set(
        "alg1.term_ratio",
        ratio(counters.alg1_terms as f64, counters.alg1_total as f64),
    );
    let answered = counters.answered.iter().sum::<u64>() as f64;
    for (name, count) in [
        "backend.alg1_share",
        "backend.alg2_share",
        "backend.mpo_share",
    ]
    .into_iter()
    .zip(counters.answered)
    {
        out.set(name, ratio(count as f64, answered));
    }
    out.set_percentile("mpo.query_ms.p50", &tracer.durations_ms("mpo.query"), 50.0);
    out.set("mpo.bond_max", counters.mpo_bond_max as f64);
    out.set("mpo.trunc_error", counters.mpo_trunc_error);
    out.set("mpo.escalations", counters.mpo_escalations as f64);
    for (traced, plain) in [
        ("trace.latency_ms.p50", "latency_ms.p50"),
        ("trace.throughput_per_s", "throughput_per_s"),
    ] {
        if let Some(value) = out.get(plain) {
            out.set(traced, value);
        }
    }
    out.set("trace.spans_per_op", ratio(tracer.len() as f64, ops as f64));
}

/// The `service.*` and `serve.*` metrics.
pub fn set_serve(out: &mut Outcome, times: &ServeTimes, service: &ServiceCounters) {
    out.set_percentile("serve.hit_ms.p50", &times.hit_ms, 50.0);
    out.set_percentile("serve.miss_ms.p99", &times.miss_ms, 99.0);
    out.set_percentile("serve.overhead_ms.p50", &times.overhead_ms, 50.0);
    let requests = service.hits + service.misses;
    out.set("service.hit_ratio", ratio(service.hits, requests));
    out.set("service.compiles", service.compiles);
    out.set("service.evictions", service.evictions);
    out.set("service.store_mb", service.store_bytes / 1e6);
}

/// Measures the serve layer on a workload that does not pass through
/// it: a fresh `qaec serve` answers each of the workload's checks twice
/// (a miss, then a hit), and every reply must match the workload's own
/// answer.
pub fn serve_probe(out: &mut Outcome, dir: &Path, checks: &[(inputs::Pair, Expected)]) {
    if let Err(e) = probe(out, dir, checks) {
        out.wrong(format!("serve probe: {e}"));
    }
}

/// The probe's `--cache-bytes`: room for every session.
const PROBE_CACHE_BYTES: usize = 1 << 30;

fn probe(out: &mut Outcome, dir: &Path, checks: &[(inputs::Pair, Expected)]) -> Result<(), String> {
    let socket = dir.join(format!("probe-{}.sock", std::process::id()));
    let server = serve::Server::start(socket, PROBE_CACHE_BYTES)?;
    let mut client = server.connect()?;
    let mut times = ServeTimes::default();
    for round in 0..2 {
        for (k, (pair, expected)) in checks.iter().enumerate() {
            let prefix = inputs::Request::check(pair.clone()).line_prefix();
            let line = format!("{prefix}, \"id\": {}}}\n", round * checks.len() + k);
            let t0 = Instant::now();
            let reply = json::parse(&client.call(&line)?)?;
            times.add(&reply, t0.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = serve::compare(&reply, expected) {
                out.wrong(format!("{} via qaec serve: {e}", pair.label));
            }
        }
    }
    let counters = serve::service_counters(&mut client)?;
    set_serve(out, &times, &counters);
    Ok(())
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    refuse_qaec_env()?;
    println!(
        "workload = {}, seed = {}, seconds = {}, trace = {}, threads = 1, cores = {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let dir = PathBuf::from(RUN_DIR);
    let mut tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let (seed, seconds) = (args.seed, args.seconds);
    match args.workload.as_str() {
        "check_suite" => check_suite::run(seed, seconds, &mut tracer, &mut out, &dir),
        "noise_sweep" => noise_sweep::run(seed, seconds, &mut tracer, &mut out, &dir),
        _ => serve_stream::run(seed, seconds, &mut tracer, &mut out, &dir)?,
    }
    if args.trace {
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} spans written to {}", tracer.len(), path.display());
        out.print(PER_LAYER, END_TO_END)?;
    } else {
        out.print(END_TO_END, &[])?;
    }
    Ok(out.correct())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::QAEC_ENTRY) {
        std::process::exit(serve::run_qaec(&argv[1..]));
    }
    let code = match run(&argv) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("perfbench: {message}");
            2
        }
    };
    std::process::exit(code);
}
