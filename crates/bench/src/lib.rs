//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§V).
//!
//! Three binaries regenerate the artifacts:
//!
//! * `table1` — Table I: Qiskit-baseline vs Algorithm II vs Algorithm I
//!   across the 21 benchmark circuits (time, TDD node counts, TO/MO);
//! * `fig7` — Fig. 7: `log10(t1/t2)` as the number of noise sites grows;
//! * `table2` — Table II: Algorithm I with a shared computed table
//!   ("Opt.") vs fresh tables per term ("Ori.").
//!
//! Criterion micro-benches live under `benches/`.

use qaec::{fidelity_alg1, fidelity_alg2, CheckOptions, QaecError, TermOrder};
use qaec_circuit::generators::{
    bernstein_vazirani_all_ones, grover_dac21, mod_mul_7x1_mod15, qft, quantum_volume,
    randomized_benchmarking, QftStyle,
};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};
use std::time::{Duration, Instant};

/// Seed namespace for noise placement, fixed so every run of the harness
/// sees the same noisy circuits.
pub const NOISE_SEED: u64 = 0xDAC2021;

/// One row of Table I.
#[derive(Clone)]
pub struct BenchCase {
    /// Row label (the paper's `Circuit` column).
    pub name: &'static str,
    /// The ideal benchmark circuit.
    pub ideal: Circuit,
    /// Number of depolarizing noise sites (the paper's `k` column).
    pub noises: usize,
}

impl BenchCase {
    fn new(name: &'static str, ideal: Circuit, noises: usize) -> Self {
        BenchCase {
            name,
            ideal,
            noises,
        }
    }

    /// The noisy implementation: `noises` depolarizing sites with
    /// `p = 0.999` at seeded-random positions (§V-A).
    pub fn noisy(&self) -> Circuit {
        insert_random_noise(
            &self.ideal,
            &NoiseChannel::Depolarizing { p: 0.999 },
            self.noises,
            NOISE_SEED ^ self.name.len() as u64,
        )
    }
}

/// The 21 rows of Table I, with the paper's qubit/gate/noise counts.
pub fn table1_suite() -> Vec<BenchCase> {
    vec![
        BenchCase::new("rb", randomized_benchmarking(2, 7, NOISE_SEED), 6),
        BenchCase::new("qft2", qft(2, QftStyle::DecomposedNoSwaps), 2),
        BenchCase::new("grover", grover_dac21(), 4),
        BenchCase::new("qft3", qft(3, QftStyle::DecomposedNoSwaps), 7),
        BenchCase::new("qv_n3d5", quantum_volume(3, 5, NOISE_SEED), 2),
        BenchCase::new("bv4", bernstein_vazirani_all_ones(4), 7),
        BenchCase::new("7x1mod15", mod_mul_7x1_mod15(), 3),
        BenchCase::new("bv5", bernstein_vazirani_all_ones(5), 6),
        BenchCase::new("qft5", qft(5, QftStyle::DecomposedNoSwaps), 3),
        BenchCase::new("qv_n5d5", quantum_volume(5, 5, NOISE_SEED), 3),
        BenchCase::new("bv6", bernstein_vazirani_all_ones(6), 14),
        BenchCase::new("qv_n6d5", quantum_volume(6, 5, NOISE_SEED), 1),
        BenchCase::new("qft7", qft(7, QftStyle::DecomposedNoSwaps), 6),
        BenchCase::new("qv_n7d5", quantum_volume(7, 5, NOISE_SEED), 2),
        BenchCase::new("bv9", bernstein_vazirani_all_ones(9), 6),
        BenchCase::new("qv_n9d5", quantum_volume(9, 5, NOISE_SEED), 3),
        BenchCase::new("qft9", qft(9, QftStyle::DecomposedNoSwaps), 2),
        BenchCase::new("qft10", qft(10, QftStyle::DecomposedNoSwaps), 2),
        BenchCase::new("bv13", bernstein_vazirani_all_ones(13), 4),
        BenchCase::new("bv14", bernstein_vazirani_all_ones(14), 4),
        BenchCase::new("bv16", bernstein_vazirani_all_ones(16), 9),
    ]
}

/// The outcome of one measured run.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Succeeded with fidelity value, wall time and max TDD nodes
    /// (0 for the dense baseline).
    Done {
        /// Fidelity computed.
        fidelity: f64,
        /// Wall-clock time.
        time: Duration,
        /// Max intermediate TDD nodes (0 for the baseline).
        nodes: usize,
        /// Trace terms contracted (1 for Algorithm II, 0 for the
        /// baseline where the notion does not apply).
        terms: usize,
    },
    /// Timed out (the paper's "TO").
    TimedOut,
    /// Out of memory bound (the paper's "MO").
    OutOfMemory,
}

impl Outcome {
    /// Renders the paper's `time (s)` cell.
    pub fn time_cell(&self) -> String {
        match self {
            Outcome::Done { time, .. } => format!("{:.2}", time.as_secs_f64()),
            Outcome::TimedOut => "TO".into(),
            Outcome::OutOfMemory => "MO".into(),
        }
    }

    /// Renders the paper's `nodes` cell.
    pub fn nodes_cell(&self) -> String {
        match self {
            Outcome::Done { nodes, .. } if *nodes > 0 => nodes.to_string(),
            Outcome::Done { .. } => "-".into(),
            Outcome::TimedOut => "TO".into(),
            Outcome::OutOfMemory => "MO".into(),
        }
    }

    /// The fidelity, if the run finished.
    pub fn fidelity(&self) -> Option<f64> {
        match self {
            Outcome::Done { fidelity, .. } => Some(*fidelity),
            _ => None,
        }
    }
}

/// Runs the dense superoperator baseline (the Qiskit
/// `process_fidelity` substitute) under the paper's 8 GB bound, with an
/// in-flight deadline.
pub fn run_baseline(ideal: &Circuit, noisy: &Circuit, timeout: Duration) -> Outcome {
    let start = Instant::now();
    let deadline = Some(start + timeout);
    // The memory estimate rejects before allocation, mirroring Qiskit's MO.
    let operator = match qaec_dmsim::Operator::from_circuit(ideal) {
        Ok(op) => op,
        Err(qaec_dmsim::SimError::MemoryExceeded { .. }) => return Outcome::OutOfMemory,
        Err(_) => return Outcome::OutOfMemory,
    };
    match qaec_dmsim::SuperOp::from_circuit_opts(
        noisy,
        qaec_dmsim::memory::PAPER_MEMORY_BOUND,
        deadline,
    ) {
        Ok(superop) => {
            let fidelity = qaec_dmsim::process_fidelity::process_fidelity(&superop, &operator);
            let time = start.elapsed();
            if time > timeout {
                Outcome::TimedOut
            } else {
                Outcome::Done {
                    fidelity,
                    time,
                    nodes: 0,
                    terms: 0,
                }
            }
        }
        Err(qaec_dmsim::SimError::DeadlineExceeded) => Outcome::TimedOut,
        Err(qaec_dmsim::SimError::MemoryExceeded { .. }) => Outcome::OutOfMemory,
        Err(_) => Outcome::OutOfMemory,
    }
}

/// Runs Algorithm II with a deadline, on one worker.
pub fn run_alg2(ideal: &Circuit, noisy: &Circuit, timeout: Duration) -> Outcome {
    let opts = CheckOptions {
        deadline: Some(Instant::now() + timeout),
        threads: 1,
        ..CheckOptions::default()
    };
    let start = Instant::now();
    match fidelity_alg2(ideal, noisy, &opts) {
        Ok(report) => Outcome::Done {
            fidelity: report.fidelity,
            time: start.elapsed(),
            nodes: report.max_nodes,
            terms: 1,
        },
        Err(QaecError::Timeout) => Outcome::TimedOut,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Runs Algorithm I exactly (all terms) with a deadline.
pub fn run_alg1(ideal: &Circuit, noisy: &Circuit, timeout: Duration) -> Outcome {
    run_alg1_with(ideal, noisy, timeout, true)
}

/// Runs Algorithm I with the shared computed table on or off — the
/// "Opt." / "Ori." configurations of Table II.
pub fn run_alg1_with(
    ideal: &Circuit,
    noisy: &Circuit,
    timeout: Duration,
    reuse_tables: bool,
) -> Outcome {
    let opts = CheckOptions {
        deadline: Some(Instant::now() + timeout),
        reuse_tables,
        term_order: TermOrder::Lexicographic,
        ..CheckOptions::default()
    };
    let start = Instant::now();
    match fidelity_alg1(ideal, noisy, None, &opts) {
        Ok(report) => Outcome::Done {
            fidelity: report.fidelity_lower,
            time: start.elapsed(),
            nodes: report.max_nodes,
            terms: report.terms_computed,
        },
        Err(QaecError::Timeout) => Outcome::TimedOut,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Re-measures fast cells for stability: runs `f` up to `max_repeats`
/// times (stopping once the accumulated time exceeds one second) and
/// returns the best (minimum-time) successful outcome, or the first
/// non-success. Timing noise on sub-millisecond cells otherwise dominates
/// ratio plots like Fig. 7 / Table II.
pub fn measure_best(max_repeats: usize, mut f: impl FnMut() -> Outcome) -> Outcome {
    let mut best: Option<Outcome> = None;
    let mut spent = Duration::ZERO;
    for _ in 0..max_repeats.max(1) {
        let outcome = f();
        match &outcome {
            Outcome::Done { time, .. } => {
                spent += *time;
                let better = match &best {
                    Some(Outcome::Done { time: bt, .. }) => time < bt,
                    _ => true,
                };
                if better {
                    best = Some(outcome);
                }
                if spent > Duration::from_secs(1) {
                    break;
                }
            }
            other => return other.clone(),
        }
    }
    best.expect("at least one run")
}

/// The hand-rolled JSON writer behind the harnesses' `--json` output,
/// factored out so other frontends (the CLI's `check --json` / `sweep
/// --json` and the `qaec serve` responses) emit the same shape without a
/// serde dependency: objects of string and number fields, rendered in
/// insertion order, no escapes. Nesting is possible through
/// [`Object::raw`](json::Object::raw) (the serve protocol's `points`
/// arrays).
pub mod json {
    /// Replaces characters the minimal parser cannot round-trip
    /// (quotes, backslashes, control characters) with `_`. Values fed
    /// through here are harness- or checker-chosen identifiers, never
    /// user data that must survive verbatim.
    pub fn sanitize(value: &str) -> String {
        value
            .chars()
            .map(|c| {
                if c == '"' || c == '\\' || c.is_control() {
                    '_'
                } else {
                    c
                }
            })
            .collect()
    }

    /// A flat JSON object under construction: fields render in insertion
    /// order.
    #[derive(Clone, Debug, Default)]
    pub struct Object {
        fields: Vec<(String, String)>,
    }

    impl Object {
        /// An empty object.
        pub fn new() -> Object {
            Object::default()
        }

        /// Appends a string field (sanitised, see [`sanitize`]).
        pub fn string(mut self, key: &str, value: &str) -> Object {
            self.fields
                .push((key.to_string(), format!("\"{}\"", sanitize(value))));
            self
        }

        /// Appends a float field with `decimals` fractional digits.
        pub fn number(mut self, key: &str, value: f64, decimals: usize) -> Object {
            self.fields
                .push((key.to_string(), format!("{value:.decimals$}")));
            self
        }

        /// Appends an integer field.
        pub fn int(mut self, key: &str, value: u64) -> Object {
            self.fields.push((key.to_string(), value.to_string()));
            self
        }

        /// Appends a boolean field.
        pub fn boolean(mut self, key: &str, value: bool) -> Object {
            self.fields.push((
                key.to_string(),
                if value { "true" } else { "false" }.to_string(),
            ));
            self
        }

        /// Appends a pre-rendered JSON value verbatim — the escape hatch
        /// for nested arrays/objects (e.g. a `"points"` array of
        /// [`Object::render`]ed rows). The caller owns the value's
        /// well-formedness.
        pub fn raw(mut self, key: &str, value: impl Into<String>) -> Object {
            self.fields.push((key.to_string(), value.into()));
            self
        }

        /// Appends every field of `other`, in order — used to graft a
        /// shared row shape (the CLI's `check --json` object) into a
        /// larger envelope (a serve response) without re-listing fields.
        pub fn extend(mut self, other: Object) -> Object {
            self.fields.extend(other.fields);
            self
        }

        /// Renders the object on one line: `{"k": v, ...}`.
        pub fn render(&self) -> String {
            let body: Vec<String> = self
                .fields
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
    }

    /// Renders a stable, human-diffable array: one object per line,
    /// two-space indent, trailing newline — the shape of the harnesses'
    /// `--json` files.
    pub fn array(objects: &[Object]) -> String {
        let mut out = String::from("[\n");
        for (i, object) in objects.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&object.render());
            out.push_str(if i + 1 < objects.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        out
    }

    /// Renders an array on ONE line: `[{...}, {...}]` — the shape
    /// line-delimited protocols need for nested rows ([`Object::raw`]).
    pub fn array_inline(objects: &[Object]) -> String {
        let body: Vec<String> = objects.iter().map(Object::render).collect();
        format!("[{}]", body.join(", "))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn objects_render_flat_json() {
            let o = Object::new()
                .string("name", "qft\"3\\k4\n")
                .number("wall_ms", 1.5, 3)
                .int("max_nodes", 42);
            assert_eq!(
                o.render(),
                "{\"name\": \"qft_3_k4_\", \"wall_ms\": 1.500, \"max_nodes\": 42}"
            );
            let rendered = array(&[Object::new().int("a", 1), Object::new().int("a", 2)]);
            assert_eq!(rendered, "[\n  {\"a\": 1},\n  {\"a\": 2}\n]\n");
            assert_eq!(array(&[]), "[\n]\n");
        }

        #[test]
        fn nested_and_boolean_rendering() {
            let rows = [Object::new().int("k", 1), Object::new().int("k", 2)];
            assert_eq!(array_inline(&rows), "[{\"k\": 1}, {\"k\": 2}]");
            assert_eq!(array_inline(&[]), "[]");
            let envelope = Object::new()
                .boolean("ok", true)
                .raw("points", array_inline(&rows))
                .extend(Object::new().string("cache", "hit"));
            assert_eq!(
                envelope.render(),
                "{\"ok\": true, \"points\": [{\"k\": 1}, {\"k\": 2}], \"cache\": \"hit\"}"
            );
        }
    }
}

/// One measured run, as the table/figure binaries write it with
/// `--json`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Scenario label, unique within one artifact.
    pub name: String,
    /// Wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// Trace terms contracted per second (0 when terms don't apply).
    pub terms_per_sec: f64,
    /// Largest intermediate decision diagram, in nodes.
    pub max_nodes: usize,
    /// The computed fidelity (or lower bound, for early-stopped runs).
    pub fidelity: f64,
}

impl RunRecord {
    /// Builds a record from a finished [`Outcome`]; `None` for TO/MO.
    pub fn from_outcome(name: impl Into<String>, outcome: &Outcome) -> Option<RunRecord> {
        match outcome {
            Outcome::Done {
                fidelity,
                time,
                nodes,
                terms,
            } => {
                let secs = time.as_secs_f64();
                Some(RunRecord {
                    name: name.into(),
                    wall_ms: secs * 1e3,
                    terms_per_sec: if secs > 0.0 {
                        *terms as f64 / secs
                    } else {
                        0.0
                    },
                    max_nodes: *nodes,
                    fidelity: *fidelity,
                })
            }
            _ => None,
        }
    }
}

/// Serialises records as a stable, human-diffable JSON array (the
/// [`json`] writer; scenario names are sanitised, never escaped — they
/// are harness-chosen identifiers, never data).
pub fn records_to_json(records: &[RunRecord]) -> String {
    let objects: Vec<json::Object> = records
        .iter()
        .map(|r| {
            json::Object::new()
                .string("name", &r.name)
                .number("wall_ms", r.wall_ms, 3)
                .number("terms_per_sec", r.terms_per_sec, 3)
                .int("max_nodes", r.max_nodes as u64)
                .number("fidelity", r.fidelity, 12)
        })
        .collect();
    json::array(&objects)
}

/// Writes records to `path` as a JSON array, one record per line.
///
/// # Errors
///
/// Propagates the I/O error message.
pub fn write_records(path: &str, records: &[RunRecord]) -> Result<(), String> {
    std::fs::write(path, records_to_json(records)).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The flags the harness binaries share: `--timeout SECS`, `--only
/// ROWS`, `--max-noises K`, `--skip-baseline` and `--json PATH`.
#[derive(Clone, Debug, PartialEq)]
pub struct HarnessArgs {
    /// Per-run timeout (default 120 s; the paper used 3600 s).
    pub timeout: Duration,
    /// Table I rows to run (comma separated); every row when `None`.
    pub only: Option<Vec<String>>,
    /// Maximum noise count for the sweep binaries.
    pub max_noises: usize,
    /// Skip the dense baseline column.
    pub skip_baseline: bool,
    /// Write per-run JSON records here (`--json PATH`).
    pub json: Option<String>,
}

impl HarnessArgs {
    /// Parses `std::env::args` with [`HarnessArgs::parse_from`]. On a bad
    /// argument, prints the error and `usage` and exits with status 2.
    pub fn parse(usage: &str) -> Self {
        Self::parse_from(std::env::args().skip(1), usage).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {usage}");
            std::process::exit(2)
        })
    }

    /// Parses `args`, the arguments after the program name. `usage` is
    /// the binary's usage line: a flag it does not name is rejected, so
    /// no binary silently ignores a flag it has no use for.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or unparsable value, or an `--only`
    /// name that matches no Table I row.
    pub fn parse_from(args: impl IntoIterator<Item = String>, usage: &str) -> Result<Self, String> {
        let mut parsed = HarnessArgs {
            timeout: Duration::from_secs(120),
            only: None,
            max_noises: 8,
            skip_baseline: false,
            json: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !flag.starts_with("--") || !usage.split([' ', '[', ']']).any(|word| word == flag) {
                return Err(format!("unknown flag `{flag}`"));
            }
            let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
            match flag.as_str() {
                "--timeout" => {
                    parsed.timeout = Duration::from_secs(number(&flag, value()?)?);
                    // Every run computes `now + timeout` as its deadline.
                    if Instant::now().checked_add(parsed.timeout).is_none() {
                        return Err(format!("`{flag}` is too large"));
                    }
                }
                "--only" => {
                    let rows = table1_suite();
                    let names: Vec<String> = value()?.split(',').map(str::to_string).collect();
                    if let Some(name) = names.iter().find(|n| rows.iter().all(|r| r.name != *n)) {
                        return Err(format!("no Table I row is named `{name}`"));
                    }
                    parsed.only = Some(names);
                }
                "--max-noises" => parsed.max_noises = number(&flag, value()?)?,
                "--skip-baseline" => parsed.skip_baseline = true,
                "--json" => parsed.json = Some(value()?),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(parsed)
    }

    /// Writes collected records to `--json` if requested, reporting on
    /// stderr so table output stays clean.
    pub fn emit_json(&self, records: &[RunRecord]) {
        if let Some(path) = &self.json {
            match write_records(path, records) {
                Ok(()) => eprintln!("wrote {} run records to {path}", records.len()),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
}

/// `value`, the argument of `flag`, as a whole number.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` takes a whole number, not `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_paper_inventory() {
        let suite = table1_suite();
        assert_eq!(suite.len(), 21);
        // Spot-check the paper's (n, |G|, k) columns.
        let find = |name: &str| {
            suite
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        for (name, n, g, k) in [
            ("rb", 2, 7, 6),
            ("qft2", 2, 7, 2),
            ("grover", 3, 96, 4),
            ("bv6", 6, 17, 14),
            ("qft10", 10, 235, 2),
            ("bv16", 16, 47, 9),
        ] {
            let case = find(name);
            assert_eq!(case.ideal.n_qubits(), n, "{name} qubits");
            assert_eq!(case.ideal.gate_count(), g, "{name} gates");
            assert_eq!(case.noises, k, "{name} noises");
            assert_eq!(case.noisy().noise_count(), k, "{name} inserted noises");
        }
    }

    #[test]
    fn runners_agree_on_a_small_case() {
        let case = &table1_suite()[1]; // qft2, k = 2
        let noisy = case.noisy();
        let timeout = Duration::from_secs(60);
        let baseline = run_baseline(&case.ideal, &noisy, timeout);
        let alg2 = run_alg2(&case.ideal, &noisy, timeout);
        let alg1 = run_alg1(&case.ideal, &noisy, timeout);
        let (Some(fb), Some(f2), Some(f1)) =
            (baseline.fidelity(), alg2.fidelity(), alg1.fidelity())
        else {
            panic!("small case must not TO/MO");
        };
        assert!((fb - f2).abs() < 1e-7);
        assert!((fb - f1).abs() < 1e-7);
    }

    #[test]
    fn baseline_mo_at_seven_qubits() {
        let case = table1_suite()
            .into_iter()
            .find(|c| c.name == "qft7")
            .expect("qft7");
        let noisy = case.noisy();
        assert!(matches!(
            run_baseline(&case.ideal, &noisy, Duration::from_secs(5)),
            Outcome::OutOfMemory
        ));
    }

    #[test]
    fn expired_timeouts_surface_as_to() {
        let case = &table1_suite()[3]; // qft3, k = 7 → enough terms to trip
        let noisy = case.noisy();
        let zero = Duration::from_secs(0);
        assert!(matches!(
            run_alg1(&case.ideal, &noisy, zero),
            Outcome::TimedOut
        ));
        assert!(matches!(
            run_alg2(&case.ideal, &noisy, zero),
            Outcome::TimedOut
        ));
        assert!(matches!(
            run_baseline(&case.ideal, &noisy, zero),
            Outcome::TimedOut
        ));
    }

    #[test]
    fn records_render_one_flat_object_per_line() {
        let records = [
            RunRecord {
                name: "qft3_k4_alg1_exact".into(),
                wall_ms: 12.345,
                terms_per_sec: 20736.5,
                max_nodes: 87,
                fidelity: 0.996005996001,
            },
            RunRecord {
                name: "qft\"3\\k4\n".into(),
                wall_ms: 0.75,
                terms_per_sec: 0.0,
                max_nodes: 1024,
                fidelity: 0.5,
            },
        ];
        assert_eq!(
            records_to_json(&records),
            "[\n  {\"name\": \"qft3_k4_alg1_exact\", \"wall_ms\": 12.345, \
             \"terms_per_sec\": 20736.500, \"max_nodes\": 87, \"fidelity\": 0.996005996001},\n  \
             {\"name\": \"qft_3_k4_\", \"wall_ms\": 0.750, \"terms_per_sec\": 0.000, \
             \"max_nodes\": 1024, \"fidelity\": 0.500000000000}\n]\n"
        );
    }

    const USAGE: &str = "table1 [--timeout SECS] [--only rb,qft2] [--skip-baseline] [--json PATH]";

    fn parse(args: &[&str], usage: &str) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|a| a.to_string()), usage)
    }

    #[test]
    fn harness_args_parse_the_flags_a_usage_line_names() {
        let defaults = parse(&[], USAGE).expect("no flags");
        assert_eq!(defaults.timeout, Duration::from_secs(120));
        assert_eq!((defaults.only, defaults.max_noises), (None, 8));
        assert!(!defaults.skip_baseline && defaults.json.is_none());
        let args = parse(
            &[
                "--timeout",
                "5",
                "--only",
                "rb,qft2",
                "--skip-baseline",
                "--json",
                "t1.json",
            ],
            USAGE,
        )
        .expect("documented flags");
        assert_eq!(args.timeout, Duration::from_secs(5));
        assert_eq!(args.only, Some(vec!["rb".to_string(), "qft2".to_string()]));
        assert!(args.skip_baseline);
        assert_eq!(args.json.as_deref(), Some("t1.json"));
        let args = parse(&["--max-noises", "2"], "fig7 [--max-noises K]").expect("sweep flag");
        assert_eq!(args.max_noises, 2);
    }

    #[test]
    fn harness_args_reject_bad_arguments() {
        for (args, error) in [
            (&["--timout", "5"][..], "unknown flag `--timout`"),
            (&["rb"], "unknown flag `rb`"),
            (&["SECS"], "unknown flag `SECS`"),
            (&["--max-noises", "2"], "unknown flag `--max-noises`"),
            (&["--timeout"], "`--timeout` needs a value"),
            (
                &["--timeout", "5s"],
                "`--timeout` takes a whole number, not `5s`",
            ),
            (
                &["--timeout", "-1"],
                "`--timeout` takes a whole number, not `-1`",
            ),
            (
                &["--timeout", "18446744073709551615"],
                "`--timeout` is too large",
            ),
            (&["--only", "rb,nosuch"], "no Table I row is named `nosuch`"),
            (&["--only", ""], "no Table I row is named ``"),
        ] {
            assert_eq!(parse(args, USAGE), Err(error.to_string()), "{args:?}");
        }
    }

    #[test]
    fn record_from_outcome_computes_rates() {
        let done = Outcome::Done {
            fidelity: 0.5,
            time: Duration::from_millis(500),
            nodes: 7,
            terms: 100,
        };
        let r = RunRecord::from_outcome("x", &done).expect("record");
        assert!((r.wall_ms - 500.0).abs() < 1e-9);
        assert!((r.terms_per_sec - 200.0).abs() < 1e-9);
        assert!(RunRecord::from_outcome("to", &Outcome::TimedOut).is_none());
    }

    #[test]
    fn outcome_cells() {
        assert_eq!(Outcome::TimedOut.time_cell(), "TO");
        assert_eq!(Outcome::OutOfMemory.nodes_cell(), "MO");
        let done = Outcome::Done {
            fidelity: 0.5,
            time: Duration::from_millis(1500),
            nodes: 7,
            terms: 3,
        };
        assert_eq!(done.time_cell(), "1.50");
        assert_eq!(done.nodes_cell(), "7");
        assert_eq!(done.fidelity(), Some(0.5));
    }
}
