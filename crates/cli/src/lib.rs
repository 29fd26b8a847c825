//! Implementation of the `qaec` command-line tool.
//!
//! Subcommands:
//!
//! * `qaec info <circuit.qasm>` — statistics and an ASCII rendering;
//! * `qaec fidelity <ideal.qasm> <noisy.qasm>` — the Jamiolkowski
//!   fidelity (algorithm selectable);
//! * `qaec check <ideal.qasm> <noisy.qasm> --epsilon ε` — the
//!   ε-equivalence decision; process exit code 0 = equivalent,
//!   1 = not equivalent, 2 = usage/runtime error, 3 = inconclusive
//!   (only `--algorithm mpo`, when the certified interval straddles
//!   the threshold);
//! * `qaec sweep <ideal.qasm> <noisy.qasm> --epsilon ε --noise p,…` (or
//!   `--epsilons ε,…`) — compile the pair **once** and re-check it at
//!   every point on the compiled plan, one row per point.
//!
//! * `qaec serve` — the long-running batch query layer: line-delimited
//!   JSON requests on stdin (or `--listen`/`--unix` sockets) answered
//!   from a content-keyed cache of compiled sessions (see [`serve`] and
//!   `docs/PROTOCOL.md`).
//!
//! `check` and `sweep` accept `--json` for machine-readable output
//! (flat objects, the same hand-rolled writer as the bench artifacts);
//! `serve` responses embed the *same* objects, so a field documented
//! once in `docs/PROTOCOL.md` means the same thing everywhere.
//!
//! Noisy circuits are OpenQASM 2 files with `// qaec.noise:` directives
//! (see `qaec_circuit::qasm`).

pub mod serve;

use qaec::{
    check_equivalence, fidelity_monte_carlo, AlgorithmChoice, AlgorithmUsed, CheckOptions, Checker,
    EpsilonPoint, EquivalenceReport, StoreReclaimMode, SweepPoint, TddStats, Verdict,
};
use qaec_bench::json;
use qaec_circuit::{qasm, Circuit};
use qaec_tensornet::Strategy;
use serve::ServeArgs;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `qaec info <file>`
    Info {
        /// Circuit file.
        file: String,
    },
    /// `qaec fidelity <ideal> <noisy> [options]`
    Fidelity {
        /// Ideal circuit file.
        ideal: String,
        /// Noisy circuit file.
        noisy: String,
        /// Shared options.
        options: CliOptions,
    },
    /// `qaec check <ideal> <noisy> --epsilon ε [options]`
    Check {
        /// Ideal circuit file.
        ideal: String,
        /// Noisy circuit file.
        noisy: String,
        /// The error threshold.
        epsilon: f64,
        /// Shared options.
        options: CliOptions,
    },
    /// `qaec sweep <ideal> <noisy> (--epsilon ε --noise p,… | --epsilons ε,…)`
    Sweep {
        /// Ideal circuit file.
        ideal: String,
        /// Noisy circuit file.
        noisy: String,
        /// The error threshold for noise sweeps.
        epsilon: Option<f64>,
        /// Noise strengths to sweep (`--noise`).
        noise: Option<Vec<f64>>,
        /// Thresholds to sweep at the file's noise (`--epsilons`).
        epsilons: Option<Vec<f64>>,
        /// Shared options.
        options: CliOptions,
    },
    /// `qaec serve [--cache-bytes n] [--listen addr | --unix path]`
    Serve {
        /// Serving configuration (cache budget, transport, checker
        /// options).
        args: ServeArgs,
    },
    /// `qaec help`
    Help,
}

/// Options shared by `fidelity` and `check`.
#[derive(Clone, Debug, PartialEq)]
pub struct CliOptions {
    /// Algorithm selection.
    pub algorithm: AlgorithmChoice,
    /// Monte Carlo sample count (`fidelity --algorithm mc`).
    pub mc_samples: Option<usize>,
    /// Monte Carlo seed.
    pub mc_seed: u64,
    /// Contraction strategy.
    pub strategy: Strategy,
    /// Per-run timeout.
    pub timeout: Option<Duration>,
    /// Worker threads (`--threads`): Algorithm I / Monte Carlo terms,
    /// Algorithm II plan steps.
    pub threads: usize,
    /// Algorithm II store reclamation at quiescent boundaries
    /// (`--store-reclaim`).
    pub store_reclaim: StoreReclaimMode,
    /// MPO singular-value truncation threshold (`--svd-threshold`;
    /// Algorithm III only).
    pub svd_threshold: f64,
    /// MPO bond-dimension cap (`--max-bond`; Algorithm III only).
    pub max_bond: usize,
    /// Enable §IV-C local optimisations.
    pub optimize: bool,
    /// Print decision-diagram statistics after the result.
    pub verbose: bool,
    /// Emit machine-readable JSON instead of text (`check` / `sweep`).
    pub json: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        let core = CheckOptions::default();
        CliOptions {
            algorithm: AlgorithmChoice::Auto,
            mc_samples: None,
            mc_seed: 0,
            strategy: Strategy::MinFill,
            timeout: None,
            threads: qaec::default_threads(),
            store_reclaim: qaec::default_store_reclaim(),
            svd_threshold: core.svd_threshold,
            max_bond: core.max_bond,
            optimize: false,
            verbose: false,
            json: false,
        }
    }
}

impl CliOptions {
    pub(crate) fn to_check_options(&self) -> CheckOptions {
        CheckOptions {
            algorithm: self.algorithm,
            strategy: self.strategy,
            threads: self.threads,
            store_reclaim: self.store_reclaim,
            svd_threshold: self.svd_threshold,
            max_bond: self.max_bond,
            local_optimization: self.optimize,
            swap_elimination: self.optimize,
            deadline: self.timeout.map(|t| Instant::now() + t),
            ..CheckOptions::default()
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
qaec — approximate equivalence checking of noisy quantum circuits

USAGE:
    qaec info <circuit.qasm>
    qaec fidelity <ideal.qasm> <noisy.qasm> [OPTIONS]
    qaec check <ideal.qasm> <noisy.qasm> --epsilon <ε> [OPTIONS]
    qaec sweep <ideal.qasm> <noisy.qasm> --epsilon <ε> --noise <p,...> [OPTIONS]
    qaec sweep <ideal.qasm> <noisy.qasm> --epsilons <ε,...> [OPTIONS]
    qaec serve [--cache-bytes <n[k|m|g]>] [--listen <host:port> | --unix <path>] [OPTIONS]

SERVE:
    Long-running batch query mode: line-delimited JSON requests
    (op = check | sweep_epsilon | sweep_noise | stats) on stdin — or,
    with --listen/--unix, per-connection streams — answered from a
    content-keyed cache of compiled sessions. Repeated pairs hit the
    cache; --cache-bytes budgets its warm-store footprint (LRU
    eviction). Wire format: docs/PROTOCOL.md. Serve takes the checker
    OPTIONS below except --timeout, --algorithm mc, --samples/--seed
    and --json (responses are always JSON); --threads also sets how
    many distinct pairs a stdin batch checks concurrently. A final
    stats footer goes to stderr.

SWEEP:
    Compiles the pair once (validation, algorithm selection, variable
    ordering, network construction, contraction planning) and re-checks
    it at every point on the compiled artifacts — one output row per
    point. `--noise` re-instantiates every noise site at each strength;
    `--epsilons` re-decides the compiled noise at each threshold.

OPTIONS:
    --algorithm <auto|1|2|mpo|mc>
                               checking algorithm (default: auto —
                               exact: a pair whose interaction graph
                               splits into disjoint components is the
                               product of its components, each distinct
                               one on Algorithm II; any other pair runs
                               Algorithm I up to 16 Kraus terms, else
                               Algorithm II; mpo, the approximate
                               certified-interval backend, runs only
                               when asked for; mc, the Monte Carlo
                               estimator, is fidelity only)
    --samples <n>              Monte Carlo samples (fidelity only,
                               default 2000)
    --seed <n>                 Monte Carlo seed (fidelity only, default 0)
    --strategy <sequential|greedy|min-degree|min-fill>
                               contraction order (default: min-fill)
    --timeout <seconds>        abort after this long (default: none)
    --threads <n>              worker threads: Algorithm I / MC steal
                               trace terms (composes with --epsilon
                               early termination), Algorithm II runs
                               independent contraction-plan steps.
                               Algorithm II contracts on an owned TDD
                               store at 1, on one shared store at more,
                               and is bit-identical at any count;
                               Algorithm I / MC workers keep private
                               managers, take the same decisions and
                               agree within the interning tolerance
                               (~1e-9) (default: QAEC_THREADS env var,
                               else 1)
    --shared-table auto        accepted, no effect (the retired store
                               switch; on and off are errors)
    --lanes <n>                accepted, no effect (the retired
                               multi-lane sweep width)
    --store-reclaim <on|off|auto>
                               compact an Algorithm II session's TDD
                               store to what it still holds at quiescent
                               boundaries (between sweep points / serve
                               queries): on at every boundary, auto
                               once its payload reaches 256 KiB at
                               --threads 1 or 16 MiB at more, off never
                               (reclamation is value-transparent:
                               results are bit-identical either way;
                               default: QAEC_STORE_RECLAIM env var,
                               else auto)
    --seed-cache <on|off>      accepted, no effect (the retired
                               cross-worker contraction-cache seeding)
    --svd-threshold <t>        MPO (algorithm mpo only): discard
                               singular values below t·σ_max at
                               each truncation; every discard widens the
                               certified fidelity interval by the proven
                               residual (default 1e-8)
    --max-bond <n>             MPO: bond-dimension cap; exceeding it
                               truncates (accounted the same way;
                               default 16)
    --noise <p,...>            sweep: comma-separated noise strengths
                               (each replaces every noise site's single
                               scalar parameter; requires --epsilon)
    --epsilons <e,...>         sweep: comma-separated thresholds to
                               decide at the file's noise level
    --json                     check/sweep: emit machine-readable JSON
                               (flat objects, bench-artifact style)
    --optimize                 enable local cancellation + SWAP elimination
    --verbose                  print decision-diagram statistics

EXIT CODES (check):
    0 = equivalent, 1 = not equivalent, 2 = error,
    3 = inconclusive (--algorithm mpo only: the certified interval
        straddles 1 − ε; re-run exact or loosen --svd-threshold)
";

/// Walks `args` as `--flag value` / `--flag=value` pairs, calling
/// `handle(flag, inline value, value getter)` once per flag. The getter
/// returns the inline value, else takes the next argument.
pub(crate) fn for_each_flag<'a>(
    args: &'a [String],
    mut handle: impl FnMut(
        &'a str,
        Option<&'a str>,
        &mut dyn FnMut() -> Result<&'a str, String>,
    ) -> Result<(), String>,
) -> Result<(), String> {
    let mut k = 0;
    while k < args.len() {
        let raw = args[k].as_str();
        let (flag, inline) = match raw.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (raw, None),
        };
        handle(flag, inline, &mut || match inline {
            Some(v) => Ok(v),
            None => {
                k += 1;
                args.get(k)
                    .map(String::as_str)
                    .ok_or_else(|| format!("missing value for {flag}"))
            }
        })?;
        k += 1;
    }
    Ok(())
}

/// `text` as the value of `flag`: a `T` that passes `valid`.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    text: &str,
    valid: fn(&T) -> bool,
) -> Result<T, String> {
    text.parse::<T>()
        .ok()
        .filter(valid)
        .ok_or_else(|| format!("bad {flag} value"))
}

/// Boolean flags must not silently swallow an inline value
/// (`--optimize=off` would otherwise *enable* the flag).
fn no_value(flag: &str, inline: Option<&str>) -> Result<(), String> {
    match inline {
        None => Ok(()),
        Some(v) => Err(format!("{flag} takes no value (got `{v}`)")),
    }
}

/// Parses one of the checker flags that `fidelity`, `check`, `sweep` and
/// `serve` share into `options`; `Ok(false)` when `flag` is none of
/// them. `--algorithm mc`, `--samples` and `--seed` select the
/// Monte-Carlo estimator, which only `fidelity` runs: without
/// `monte_carlo` they are errors, not silently ignored. `--lanes`,
/// `--seed-cache` and `--shared-table auto` are validated and have no
/// effect.
pub(crate) fn checker_flag<'a>(
    options: &mut CliOptions,
    flag: &str,
    inline: Option<&str>,
    value: &mut dyn FnMut() -> Result<&'a str, String>,
    monte_carlo: bool,
) -> Result<bool, String> {
    let fidelity_only = |what: &str| {
        if monte_carlo {
            Ok(())
        } else {
            Err(format!(
                "{what} is only accepted by `qaec fidelity` (Monte Carlo)"
            ))
        }
    };
    match flag {
        "--algorithm" => match value()? {
            "auto" => options.algorithm = AlgorithmChoice::Auto,
            "1" | "I" | "i" => options.algorithm = AlgorithmChoice::AlgorithmI,
            "2" | "II" | "ii" => options.algorithm = AlgorithmChoice::AlgorithmII,
            "mpo" | "3" | "III" | "iii" => options.algorithm = AlgorithmChoice::Mpo,
            "mc" => {
                fidelity_only("--algorithm mc")?;
                options.mc_samples = Some(options.mc_samples.unwrap_or(2000));
            }
            other => return Err(format!("unknown algorithm `{other}`")),
        },
        "--samples" => {
            fidelity_only(flag)?;
            options.mc_samples = Some(flag_value(flag, value()?, |_| true)?);
        }
        "--seed" => {
            fidelity_only(flag)?;
            options.mc_seed = flag_value(flag, value()?, |_| true)?;
        }
        "--strategy" => {
            options.strategy = match value()? {
                "sequential" => Strategy::Sequential,
                "greedy" => Strategy::GreedySize,
                "min-degree" => Strategy::MinDegree,
                "min-fill" => Strategy::MinFill,
                other => return Err(format!("unknown strategy `{other}`")),
            };
        }
        "--threads" => options.threads = flag_value(flag, value()?, |_| true)?,
        "--lanes" => {
            flag_value::<usize>(flag, value()?, |&n| n >= 1)?;
        }
        "--shared-table" => match value()? {
            "auto" => {}
            mode @ ("on" | "off") => {
                return Err(format!(
                    "--shared-table {mode} is no longer supported: Algorithm I and Monte Carlo \
                     always run on private per-worker managers, Algorithm II on the shared \
                     store (only `auto` is accepted)"
                ))
            }
            other => return Err(format!("unknown shared-table mode `{other}`")),
        },
        "--store-reclaim" => {
            options.store_reclaim = match value()? {
                "on" => StoreReclaimMode::On,
                "off" => StoreReclaimMode::Off,
                "auto" => StoreReclaimMode::Auto,
                other => return Err(format!("unknown store-reclaim mode `{other}`")),
            };
        }
        "--seed-cache" => match value()? {
            "on" | "off" => {}
            other => return Err(format!("unknown seed-cache mode `{other}`")),
        },
        "--svd-threshold" => {
            options.svd_threshold =
                flag_value(flag, value()?, |t: &f64| t.is_finite() && *t >= 0.0)?;
        }
        "--max-bond" => options.max_bond = flag_value(flag, value()?, |&n| n >= 1)?,
        "--optimize" => {
            no_value(flag, inline)?;
            options.optimize = true;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// A human-readable message on malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => {
            let file = it
                .next()
                .ok_or_else(|| "info: missing circuit file".to_string())?;
            Ok(Command::Info { file: file.clone() })
        }
        "serve" => {
            let rest: Vec<String> = it.cloned().collect();
            let args = serve::parse_serve_args(&rest)?;
            Ok(Command::Serve { args })
        }
        "fidelity" | "check" | "sweep" => {
            let ideal = it
                .next()
                .ok_or_else(|| format!("{sub}: missing ideal circuit file"))?
                .clone();
            let noisy = it
                .next()
                .ok_or_else(|| format!("{sub}: missing noisy circuit file"))?
                .clone();
            let mut options = CliOptions::default();
            let mut epsilon: Option<f64> = None;
            let mut noise: Option<Vec<f64>> = None;
            let mut epsilons: Option<Vec<f64>> = None;
            let parse_list = |flag: &str, text: &str| -> Result<Vec<f64>, String> {
                let values: Result<Vec<f64>, _> =
                    text.split(',').map(|v| v.trim().parse::<f64>()).collect();
                match values {
                    Ok(v) if !v.is_empty() => Ok(v),
                    _ => Err(format!("bad {flag} list `{text}`")),
                }
            };
            for_each_flag(it.as_slice(), |flag, inline, value| {
                if checker_flag(&mut options, flag, inline, value, sub == "fidelity")? {
                    return Ok(());
                }
                match flag {
                    "--epsilon" => epsilon = Some(flag_value(flag, value()?, |_| true)?),
                    "--timeout" => {
                        let secs = flag_value(flag, value()?, |_| true)?;
                        options.timeout = Some(Duration::from_secs(secs));
                    }
                    "--noise" => noise = Some(parse_list("--noise", value()?)?),
                    "--epsilons" => epsilons = Some(parse_list("--epsilons", value()?)?),
                    "--json" => {
                        no_value(flag, inline)?;
                        options.json = true;
                    }
                    "--verbose" => {
                        no_value(flag, inline)?;
                        options.verbose = true;
                    }
                    other => return Err(format!("unknown flag `{other}`")),
                }
                Ok(())
            })?;
            match sub {
                "check" => {
                    let epsilon =
                        epsilon.ok_or_else(|| "check: --epsilon is required".to_string())?;
                    Ok(Command::Check {
                        ideal,
                        noisy,
                        epsilon,
                        options,
                    })
                }
                "sweep" => {
                    match (&noise, &epsilons) {
                        (Some(_), Some(_)) => {
                            return Err("sweep: --noise and --epsilons are exclusive".to_string())
                        }
                        (None, None) => {
                            return Err(
                                "sweep: one of --noise or --epsilons is required".to_string()
                            )
                        }
                        (Some(_), None) if epsilon.is_none() => {
                            return Err("sweep: --noise requires --epsilon".to_string())
                        }
                        _ => {}
                    }
                    Ok(Command::Sweep {
                        ideal,
                        noisy,
                        epsilon,
                        noise,
                        epsilons,
                        options,
                    })
                }
                _ => Ok(Command::Fidelity {
                    ideal,
                    noisy,
                    options,
                }),
            }
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// The `check --json` object — also the payload grafted into `serve`
/// check responses, so both frontends emit exactly the fields
/// `docs/PROTOCOL.md` documents.
pub(crate) fn check_json(report: &EquivalenceReport) -> json::Object {
    let mut object = json::Object::new()
        .string("verdict", &report.verdict.to_string())
        .number("fidelity_lower", report.fidelity_bounds.0, 12)
        .number("fidelity_upper", report.fidelity_bounds.1, 12)
        .number("epsilon", report.epsilon, 12)
        .string("algorithm", &report.algorithm.to_string())
        .string("method", report.algorithm.wire_name())
        .int("terms_computed", report.terms_computed as u64)
        .int("total_terms", report.total_terms as u64)
        .int("max_nodes", report.max_nodes as u64)
        .number("wall_ms", report.elapsed.as_secs_f64() * 1e3, 3);
    // Algorithm III metadata rides along only when the MPO pass ran, so
    // pre-existing consumers of exact-check objects see an unchanged
    // field set.
    if let Some(trunc_error) = report.trunc_error {
        object = object.number("trunc_error", trunc_error, 15);
    }
    if let Some(bond_max) = report.bond_max {
        object = object.int("bond_max", bond_max as u64);
    }
    object
}

/// One `sweep --noise --json` row (also a `serve` sweep_noise point).
pub(crate) fn noise_point_json(strength: f64, point: &SweepPoint) -> json::Object {
    json::Object::new()
        .number("noise", strength, 6)
        .number("fidelity", point.fidelity, 12)
        .string("verdict", &point.verdict.to_string())
        .int("max_nodes", point.max_nodes as u64)
        .number("wall_ms", point.elapsed.as_secs_f64() * 1e3, 3)
}

/// One `sweep --epsilons --json` row (also a `serve` sweep_epsilon
/// point).
pub(crate) fn epsilon_point_json(point: &EpsilonPoint) -> json::Object {
    json::Object::new()
        .number("epsilon", point.epsilon, 12)
        .number("fidelity_lower", point.fidelity_bounds.0, 12)
        .number("fidelity_upper", point.fidelity_bounds.1, 12)
        .string("verdict", &point.verdict.to_string())
}

fn write_stats(
    out: &mut impl std::io::Write,
    verbose: bool,
    stats: &TddStats,
) -> Result<(), String> {
    if verbose {
        writeln!(out, "tdd stats: {stats}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub(crate) fn load(path: &str) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    qasm::parse(&text).map_err(|e| format!("`{path}`: {e}"))
}

/// Executes a parsed command, writing to `out`. Returns the process exit
/// code.
pub fn run(command: Command, out: &mut impl std::io::Write) -> i32 {
    match run_inner(command, out) {
        Ok(code) => code,
        Err(message) => {
            let _ = writeln!(out, "error: {message}");
            2
        }
    }
}

fn run_inner(command: Command, out: &mut impl std::io::Write) -> Result<i32, String> {
    let w =
        |out: &mut dyn std::io::Write, s: String| writeln!(out, "{s}").map_err(|e| e.to_string());
    match command {
        Command::Help => {
            w(out, USAGE.to_string())?;
            Ok(0)
        }
        Command::Info { file } => {
            let circuit = load(&file)?;
            w(out, format!("{circuit}"))?;
            w(
                out,
                format!(
                    "depth: {}   kraus terms (Alg I): {}",
                    circuit.depth(),
                    circuit.kraus_term_count()
                ),
            )?;
            w(out, circuit.draw())?;
            Ok(0)
        }
        Command::Fidelity {
            ideal,
            noisy,
            options,
        } => {
            let ideal = load(&ideal)?;
            let noisy = load(&noisy)?;
            let opts = options.to_check_options();
            let start = Instant::now();
            if let Some(samples) = options.mc_samples {
                let r = fidelity_monte_carlo(&ideal, &noisy, samples, options.mc_seed, &opts)
                    .map_err(|e| e.to_string())?;
                w(
                    out,
                    format!("F_J ≈ {:.9} ± {:.1e}", r.estimate, r.std_error),
                )?;
                w(
                    out,
                    format!(
                        "(monte carlo, {} samples, {} distinct strings, {:.3?})",
                        r.samples,
                        r.distinct_strings,
                        start.elapsed()
                    ),
                )?;
                write_stats(out, options.verbose, &r.stats)?;
                return Ok(0);
            }
            // One session, as `check` and the library compile it, so
            // `auto` answers a pair of disjoint components as the product
            // of its components here too.
            let auto_note = match opts.algorithm {
                AlgorithmChoice::Auto => "auto: ",
                _ => "",
            };
            let mut session = Checker::new(&ideal, &noisy)
                .options(opts)
                .compile()
                .map_err(|e| e.to_string())?;
            let fidelity = session.fidelity().map_err(|e| e.to_string())?;
            let detail = match session.algorithm() {
                AlgorithmUsed::Mpo => {
                    "Algorithm III (MPO), midpoint of certified interval".to_string()
                }
                exact => format!(
                    "{auto_note}{exact}, {} nodes",
                    session.max_nodes().unwrap_or_default()
                ),
            };
            w(out, format!("F_J = {fidelity:.12}"))?;
            w(out, format!("({detail}, {:.3?})", start.elapsed()))?;
            write_stats(out, options.verbose, &session.stats().unwrap_or_default())?;
            Ok(0)
        }
        Command::Check {
            ideal,
            noisy,
            epsilon,
            options,
        } => {
            let ideal = load(&ideal)?;
            let noisy = load(&noisy)?;
            let opts = options.to_check_options();
            let report =
                check_equivalence(&ideal, &noisy, epsilon, &opts).map_err(|e| e.to_string())?;
            if options.json {
                w(out, check_json(&report).render())?;
            } else {
                w(out, format!("{report}"))?;
                write_stats(out, options.verbose, &report.stats)?;
            }
            Ok(match report.verdict {
                Verdict::Equivalent => 0,
                Verdict::NotEquivalent => 1,
                Verdict::Inconclusive => 3,
            })
        }
        Command::Sweep {
            ideal,
            noisy,
            epsilon,
            noise,
            epsilons,
            options,
        } => {
            let ideal = load(&ideal)?;
            let noisy = load(&noisy)?;
            let opts = options.to_check_options();
            let compile_start = Instant::now();
            let mut compiled = Checker::new(&ideal, &noisy)
                .options(opts)
                .compile()
                .map_err(|e| e.to_string())?;
            let compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;
            let algorithm = compiled.algorithm();

            if let Some(strengths) = noise {
                // Noise sweep: one row per strength, same compiled plan.
                let eps = epsilon.expect("parser enforced --epsilon");
                let points = compiled
                    .sweep_noise(eps, &strengths)
                    .map_err(|e| e.to_string())?;
                if options.json {
                    let rows: Vec<json::Object> = strengths
                        .iter()
                        .zip(&points)
                        .map(|(&p, point)| noise_point_json(p, point))
                        .collect();
                    w(out, json::array(&rows).trim_end().to_string())?;
                } else {
                    for (p, point) in strengths.iter().zip(&points) {
                        w(
                            out,
                            format!(
                                "p={p:<8} F_J = {:.12}  {} ({} nodes, {:.3?})",
                                point.fidelity, point.verdict, point.max_nodes, point.elapsed
                            ),
                        )?;
                        write_stats(out, options.verbose, &point.stats)?;
                    }
                    w(
                        out,
                        format!(
                            "({} points via {algorithm}, ε = {eps}, compiled once in {compile_ms:.1}ms)",
                            points.len()
                        ),
                    )?;
                }
            } else {
                // ε sweep at the file's noise level.
                let thresholds = epsilons.expect("parser enforced --epsilons");
                let points = compiled
                    .sweep_epsilon(&thresholds)
                    .map_err(|e| e.to_string())?;
                if options.json {
                    let rows: Vec<json::Object> = points.iter().map(epsilon_point_json).collect();
                    w(out, json::array(&rows).trim_end().to_string())?;
                } else {
                    for point in &points {
                        w(
                            out,
                            format!(
                                "ε={:<10} F_J ∈ [{:.9}, {:.9}]  {}",
                                point.epsilon,
                                point.fidelity_bounds.0,
                                point.fidelity_bounds.1,
                                point.verdict
                            ),
                        )?;
                    }
                    w(
                        out,
                        format!(
                            "({} thresholds via {algorithm}, compiled once in {compile_ms:.1}ms)",
                            points.len()
                        ),
                    )?;
                }
            }
            Ok(0)
        }
        Command::Serve { args } => serve::run_serve(&args, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_help_and_empty() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&strings(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&strings(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parse_info() {
        assert_eq!(
            parse_args(&strings(&["info", "a.qasm"])).unwrap(),
            Command::Info {
                file: "a.qasm".into()
            }
        );
        assert!(parse_args(&strings(&["info"])).is_err());
    }

    #[test]
    fn parse_fidelity_with_options() {
        let cmd = parse_args(&strings(&[
            "fidelity",
            "i.qasm",
            "n.qasm",
            "--algorithm",
            "2",
            "--strategy",
            "greedy",
            "--threads",
            "4",
            "--optimize",
        ]))
        .unwrap();
        match cmd {
            Command::Fidelity { options, .. } => {
                assert_eq!(options.algorithm, AlgorithmChoice::AlgorithmII);
                assert_eq!(options.strategy, Strategy::GreedySize);
                assert_eq!(options.threads, 4);
                assert!(options.optimize);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_mpo_algorithm_and_knobs() {
        // `mpo` and its aliases select Algorithm III; the knobs parse in
        // both flag styles and default to the core options.
        let defaults = CliOptions::default();
        assert_eq!(
            defaults.svd_threshold,
            CheckOptions::default().svd_threshold
        );
        assert_eq!(defaults.max_bond, CheckOptions::default().max_bond);
        for alias in ["mpo", "3", "III", "iii"] {
            match parse_args(&strings(&[
                "check",
                "i.qasm",
                "n.qasm",
                "--epsilon",
                "0.01",
                "--algorithm",
                alias,
            ]))
            .unwrap()
            {
                Command::Check { options, .. } => {
                    assert_eq!(options.algorithm, AlgorithmChoice::Mpo, "{alias}")
                }
                other => panic!("wrong command {other:?}"),
            }
        }
        match parse_args(&strings(&[
            "check",
            "i.qasm",
            "n.qasm",
            "--epsilon=0.01",
            "--algorithm=mpo",
            "--svd-threshold=1e-6",
            "--max-bond",
            "32",
        ]))
        .unwrap()
        {
            Command::Check { options, .. } => {
                assert_eq!(options.algorithm, AlgorithmChoice::Mpo);
                assert_eq!(options.svd_threshold, 1e-6);
                assert_eq!(options.max_bond, 32);
                let core = options.to_check_options();
                assert_eq!(core.svd_threshold, 1e-6);
                assert_eq!(core.max_bond, 32);
            }
            other => panic!("wrong command {other:?}"),
        }
        for bad in [
            vec!["--svd-threshold", "-1"],
            vec!["--svd-threshold", "nope"],
            vec!["--max-bond", "0"],
            vec!["--max-bond", "many"],
        ] {
            let mut full = vec!["check", "i.qasm", "n.qasm", "--epsilon", "0.01"];
            full.extend(bad.iter());
            assert!(parse_args(&strings(&full)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_store_reclaim_modes_in_both_flag_styles() {
        for (args, expected) in [
            (vec!["--store-reclaim", "on"], StoreReclaimMode::On),
            (vec!["--store-reclaim=off"], StoreReclaimMode::Off),
            (vec!["--store-reclaim=auto"], StoreReclaimMode::Auto),
        ] {
            let mut full = vec!["fidelity", "i.qasm", "n.qasm"];
            full.extend(args);
            match parse_args(&strings(&full)).unwrap() {
                Command::Fidelity { options, .. } => {
                    assert_eq!(options.store_reclaim, expected, "{full:?}")
                }
                other => panic!("wrong command {other:?}"),
            }
        }
        assert!(parse_args(&strings(&[
            "fidelity",
            "i.qasm",
            "n.qasm",
            "--store-reclaim",
            "sometimes"
        ]))
        .is_err());
    }

    #[test]
    fn parse_shared_table_modes_in_both_flag_styles() {
        // `--shared-table on|off` selected a retired store path: a usage
        // error (exit 2) on every subcommand that takes checker flags,
        // whose message names the store each algorithm uses.
        for sub in [
            vec!["fidelity", "i.qasm", "n.qasm"],
            vec!["check", "i.qasm", "n.qasm", "--epsilon", "0.05"],
            vec!["sweep", "i.qasm", "n.qasm", "--epsilons", "0.1,0.01"],
            vec!["serve"],
        ] {
            for flags in [vec!["--shared-table", "on"], vec!["--shared-table=off"]] {
                let mut full = sub.clone();
                full.extend(&flags);
                let err = parse_args(&strings(&full)).unwrap_err();
                assert!(
                    err.contains("private per-worker managers"),
                    "{full:?}: {err}"
                );
            }
        }
        assert!(parse_args(&strings(&[
            "fidelity",
            "i.qasm",
            "n.qasm",
            "--shared-table",
            "sometimes"
        ]))
        .is_err());
        // Boolean flags reject inline values instead of silently
        // enabling themselves.
        for bad in ["--seed-cache=false", "--verbose=0", "--optimize=off"] {
            assert!(
                parse_args(&strings(&["fidelity", "i.qasm", "n.qasm", bad])).is_err(),
                "{bad} must be rejected"
            );
        }
        // `--seed-cache`, `--lanes` and `--shared-table auto` are
        // validated, then ignored.
        match parse_args(&strings(&[
            "check",
            "i.qasm",
            "n.qasm",
            "--epsilon=0.25",
            "--seed-cache=off",
            "--lanes",
            "4",
            "--shared-table",
            "auto",
        ]))
        .unwrap()
        {
            Command::Check {
                epsilon, options, ..
            } => {
                assert!((epsilon - 0.25).abs() < 1e-12, "inline --epsilon=v works");
                assert_eq!(options, CliOptions::default(), "no-op flags change nothing");
            }
            other => panic!("wrong command {other:?}"),
        }
        for bad in [["--seed-cache", "maybe"], ["--lanes", "0"]] {
            let mut full = vec!["fidelity", "i.qasm", "n.qasm"];
            full.extend(bad);
            assert!(parse_args(&strings(&full)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn monte_carlo_flags_are_rejected_outside_fidelity() {
        for sub in [
            vec!["check", "i.qasm", "n.qasm", "--epsilon", "0.05"],
            vec!["sweep", "i.qasm", "n.qasm", "--epsilons", "0.1,0.01"],
        ] {
            for flags in [
                vec!["--algorithm", "mc"],
                vec!["--algorithm=mc"],
                vec!["--samples", "500"],
                vec!["--seed", "7"],
            ] {
                let mut full = sub.clone();
                full.extend(&flags);
                let err = parse_args(&strings(&full)).unwrap_err();
                assert!(err.contains("`qaec fidelity`"), "{full:?}: {err}");
            }
        }
        match parse_args(&strings(&[
            "fidelity",
            "i.qasm",
            "n.qasm",
            "--algorithm=mc",
            "--seed=3",
        ]))
        .unwrap()
        {
            Command::Fidelity { options, .. } => {
                assert_eq!((options.mc_samples, options.mc_seed), (Some(2000), 3));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_sweep_modes_and_rejections() {
        // Noise sweep: --noise + --epsilon.
        match parse_args(&strings(&[
            "sweep",
            "i.qasm",
            "n.qasm",
            "--epsilon",
            "0.01",
            "--noise",
            "0.999,0.99,0.9",
        ]))
        .unwrap()
        {
            Command::Sweep {
                epsilon,
                noise,
                epsilons,
                ..
            } => {
                assert_eq!(epsilon, Some(0.01));
                assert_eq!(noise, Some(vec![0.999, 0.99, 0.9]));
                assert_eq!(epsilons, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        // ε sweep: --epsilons alone.
        match parse_args(&strings(&[
            "sweep",
            "i.qasm",
            "n.qasm",
            "--epsilons=0.1,0.01",
            "--json",
        ]))
        .unwrap()
        {
            Command::Sweep {
                epsilons, options, ..
            } => {
                assert_eq!(epsilons, Some(vec![0.1, 0.01]));
                assert!(options.json);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Invalid combinations are usage errors.
        assert!(parse_args(&strings(&["sweep", "i", "n"])).is_err());
        assert!(parse_args(&strings(&["sweep", "i", "n", "--noise", "0.9"])).is_err());
        assert!(parse_args(&strings(&[
            "sweep",
            "i",
            "n",
            "--epsilon",
            "0.1",
            "--noise",
            "0.9",
            "--epsilons",
            "0.1",
        ]))
        .is_err());
        assert!(parse_args(&strings(&[
            "sweep",
            "i",
            "n",
            "--epsilon",
            "0.1",
            "--noise",
            "0.9,oops",
        ]))
        .is_err());
        // --json is a boolean flag on check too.
        match parse_args(&strings(&["check", "i", "n", "--epsilon", "0.1", "--json"])).unwrap() {
            Command::Check { options, .. } => assert!(options.json),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&strings(&[
            "check",
            "i",
            "n",
            "--epsilon",
            "0.1",
            "--json=yes"
        ]))
        .is_err());
    }

    #[test]
    fn sweep_and_json_end_to_end() {
        let dir = std::env::temp_dir().join("qaec_cli_sweep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ideal_path = dir.join("ideal.qasm");
        let noisy_path = dir.join("noisy.qasm");
        std::fs::write(
            &ideal_path,
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n",
        )
        .unwrap();
        std::fs::write(
            &noisy_path,
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n// qaec.noise: depolarizing(0.999) q[0];\ncx q[0], q[1];\n",
        )
        .unwrap();
        let ideal = ideal_path.to_str().unwrap();
        let noisy = noisy_path.to_str().unwrap();

        // Noise sweep, text mode: one row per point plus a footer.
        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "sweep",
                ideal,
                noisy,
                "--epsilon",
                "0.01",
                "--noise",
                "0.999,0.99,0.9",
            ]))
            .unwrap(),
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert_eq!(text.matches("F_J = ").count(), 3, "{text}");
        assert!(text.contains("compiled once"), "{text}");

        // Noise sweep, JSON: an array of flat objects, monotone fidelity.
        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "sweep",
                ideal,
                noisy,
                "--epsilon",
                "0.01",
                "--noise",
                "0.999,0.9",
                "--json",
            ]))
            .unwrap(),
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.trim_start().starts_with('['), "{text}");
        assert_eq!(text.matches("\"noise\":").count(), 2, "{text}");
        assert_eq!(text.matches("\"verdict\":").count(), 2, "{text}");

        // ε sweep, JSON.
        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "sweep",
                ideal,
                noisy,
                "--epsilons",
                "0.2,0.01,0.0001",
                "--json",
            ]))
            .unwrap(),
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert_eq!(text.matches("\"epsilon\":").count(), 3, "{text}");

        // check --json: one flat object, exit code still verdict-driven.
        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "check",
                ideal,
                noisy,
                "--epsilon",
                "0.01",
                "--json",
            ]))
            .unwrap(),
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.trim_start().starts_with('{'), "{text}");
        for key in [
            "\"verdict\":",
            "\"fidelity_lower\":",
            "\"algorithm\":",
            "\"max_nodes\":",
            "\"wall_ms\":",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }

        // A sweep over an unsupported (multi-parameter) channel is a
        // runtime error, exit code 2.
        let pauli_path = dir.join("pauli.qasm");
        std::fs::write(
            &pauli_path,
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n// qaec.noise: pauli(0.9,0.05,0.03,0.02) q[0];\ncx q[0], q[1];\n",
        )
        .unwrap();
        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "sweep",
                ideal,
                pauli_path.to_str().unwrap(),
                "--epsilon",
                "0.01",
                "--noise",
                "0.9",
            ]))
            .unwrap(),
            &mut out,
        );
        assert_eq!(code, 2, "{}", String::from_utf8_lossy(&out));
        assert!(String::from_utf8_lossy(&out).contains("noise sweep unsupported"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_check_requires_epsilon() {
        assert!(parse_args(&strings(&["check", "i.qasm", "n.qasm"])).is_err());
        let cmd = parse_args(&strings(&[
            "check",
            "i.qasm",
            "n.qasm",
            "--epsilon",
            "0.01",
        ]))
        .unwrap();
        match cmd {
            Command::Check { epsilon, .. } => assert!((epsilon - 0.01).abs() < 1e-12),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_args(&strings(&["frobnicate"])).is_err());
        assert!(parse_args(&strings(&["check", "a", "b", "--epsilon", "x"])).is_err());
        assert!(parse_args(&strings(&["fidelity", "a", "b", "--bogus"])).is_err());
        assert!(parse_args(&strings(&["fidelity", "a", "b", "--algorithm", "7"])).is_err());
    }

    #[test]
    fn end_to_end_check_on_temp_files() {
        let dir = std::env::temp_dir().join("qaec_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ideal_path = dir.join("ideal.qasm");
        let noisy_path = dir.join("noisy.qasm");
        std::fs::write(
            &ideal_path,
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n",
        )
        .unwrap();
        std::fs::write(
            &noisy_path,
            "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n// qaec.noise: depolarizing(0.999) q[0];\ncx q[0], q[1];\n",
        )
        .unwrap();

        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "check",
                ideal_path.to_str().unwrap(),
                noisy_path.to_str().unwrap(),
                "--epsilon",
                "0.01",
            ]))
            .unwrap(),
            &mut out,
        );
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&out));
        assert!(String::from_utf8_lossy(&out).contains("equivalent"));

        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "check",
                ideal_path.to_str().unwrap(),
                noisy_path.to_str().unwrap(),
                "--epsilon",
                "0.0001",
            ]))
            .unwrap(),
            &mut out,
        );
        assert_eq!(code, 1, "{}", String::from_utf8_lossy(&out));

        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&["info", noisy_path.to_str().unwrap()])).unwrap(),
            &mut out,
        );
        assert_eq!(code, 0);
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("noise site"));

        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "fidelity",
                ideal_path.to_str().unwrap(),
                noisy_path.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut out,
        );
        assert_eq!(code, 0);
        assert!(String::from_utf8_lossy(&out).contains("F_J ="));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_and_run_monte_carlo() {
        let cmd = parse_args(&strings(&[
            "fidelity",
            "i.qasm",
            "n.qasm",
            "--algorithm",
            "mc",
            "--samples",
            "300",
            "--seed",
            "7",
        ]))
        .unwrap();
        match &cmd {
            Command::Fidelity { options, .. } => {
                assert_eq!(options.mc_samples, Some(300));
                assert_eq!(options.mc_seed, 7);
            }
            other => panic!("wrong command {other:?}"),
        }

        let dir = std::env::temp_dir().join("qaec_cli_mc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ideal_path = dir.join("ideal.qasm");
        let noisy_path = dir.join("noisy.qasm");
        std::fs::write(&ideal_path, "qreg q[1];\nh q[0];\n").unwrap();
        std::fs::write(
            &noisy_path,
            "qreg q[1];\nh q[0];\n// qaec.noise: bit_flip(0.9) q[0];\n",
        )
        .unwrap();
        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "fidelity",
                ideal_path.to_str().unwrap(),
                noisy_path.to_str().unwrap(),
                "--algorithm",
                "mc",
                "--samples",
                "500",
            ]))
            .unwrap(),
            &mut out,
        );
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&out));
        assert!(String::from_utf8_lossy(&out).contains("monte carlo"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verbose_prints_tdd_stats() {
        let dir = std::env::temp_dir().join("qaec_cli_verbose_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ideal_path = dir.join("ideal.qasm");
        let noisy_path = dir.join("noisy.qasm");
        std::fs::write(&ideal_path, "qreg q[1];\nh q[0];\n").unwrap();
        std::fs::write(
            &noisy_path,
            "qreg q[1];\nh q[0];\n// qaec.noise: bit_flip(0.99) q[0];\n",
        )
        .unwrap();

        // `check` with --threads 2 --verbose: ε run through the parallel
        // engine, stats line present.
        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "check",
                ideal_path.to_str().unwrap(),
                noisy_path.to_str().unwrap(),
                "--epsilon",
                "0.05",
                "--threads",
                "2",
                "--verbose",
            ]))
            .unwrap(),
            &mut out,
        );
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("tdd stats:"), "{text}");
        assert!(text.contains("nodes created"), "{text}");

        // Without --verbose the stats line is absent.
        let mut out = Vec::new();
        let code = run(
            parse_args(&strings(&[
                "fidelity",
                ideal_path.to_str().unwrap(),
                noisy_path.to_str().unwrap(),
            ]))
            .unwrap(),
            &mut out,
        );
        assert_eq!(code, 0);
        assert!(!String::from_utf8_lossy(&out).contains("tdd stats:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `fidelity` compiles the session `check` compiles, so `auto`
    /// answers a pair of disjoint components (four qft3 blocks) from the
    /// product of its components in both: the same fidelity from the
    /// same `cont` calls.
    #[test]
    fn fidelity_and_check_answer_from_one_session() {
        let fixture =
            |name: &str| format!("{}/../../fixtures/smoke/{name}", env!("CARGO_MANIFEST_DIR"));
        let (ideal, noisy) = (fixture("qft3x4.qasm"), fixture("qft3x4_depol.qasm"));
        let run_verbose = |args: &[&str]| {
            let mut argv = vec![args[0], &ideal, &noisy, "--threads", "1", "--verbose"];
            argv.extend_from_slice(&args[1..]);
            let mut out = Vec::new();
            let code = run(parse_args(&strings(&argv)).unwrap(), &mut out);
            let text = String::from_utf8(out).unwrap();
            assert_eq!(code, 0, "{text}");
            let cont: u64 = text
                .split(", cont ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|calls| calls.parse().ok())
                .unwrap_or_else(|| panic!("no cont count in {text}"));
            (text, cont)
        };
        let (fidelity, fidelity_cont) = run_verbose(&["fidelity"]);
        let (check, check_cont) = run_verbose(&["check", "--epsilon", "0.05"]);
        assert!(fidelity.starts_with("F_J = 0.996006296189"), "{fidelity}");
        assert!(check.contains("F_J ∈ [0.996006, 0.996006]"), "{check}");
        assert_eq!(fidelity_cont, check_cont, "{fidelity}{check}");
    }

    #[test]
    fn missing_file_is_runtime_error() {
        let mut out = Vec::new();
        let code = run(
            Command::Info {
                file: "/nonexistent/file.qasm".into(),
            },
            &mut out,
        );
        assert_eq!(code, 2);
        assert!(String::from_utf8_lossy(&out).contains("error"));
    }
}
