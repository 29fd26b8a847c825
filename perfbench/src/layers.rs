//! Calls into the checker's layers, with the options every workload
//! pins, the work counters a traced run reports, and the references
//! answers are checked against.

use crate::inputs::Pair;
use crate::trace::Tracer;
use qaec::{
    auto_choice, fidelity_alg1, fidelity_alg2, AlgorithmChoice, AlgorithmUsed, CheckOptions,
    Checker, CompiledCheck, EquivalenceReport, SharedTableMode, StoreReclaimMode, SweepPoint,
    TddStats, TermOrder, VarOrderStyle, Verdict,
};
use qaec_circuit::{qasm, Circuit, Operation};
use qaec_tensornet::Strategy;
use std::time::{Duration, Instant};

/// Per-operation deadline: an operation still running after this long
/// fails with a timeout.
pub const OP_DEADLINE: Duration = Duration::from_secs(60);

/// The checker configuration of every workload, with every field set,
/// so neither a changed default nor an environment override can change
/// what is measured. One thread: the container has two cores, and the
/// load generator needs one. Work still running at `deadline` fails
/// with a timeout.
pub fn options(algorithm: AlgorithmChoice, deadline: Instant) -> CheckOptions {
    CheckOptions {
        algorithm,
        strategy: Strategy::MinFill,
        var_order: VarOrderStyle::QubitMajor,
        reuse_tables: true,
        local_optimization: false,
        swap_elimination: false,
        term_order: TermOrder::BestFirst,
        deadline: Some(deadline),
        gc_threshold: Some(2_000_000),
        threads: 1,
        max_terms: None,
        shared_table: SharedTableMode::Auto,
        seed_cont_cache: true,
        sweep_lanes: 8,
        store_reclaim: StoreReclaimMode::Auto,
        svd_threshold: 1e-8,
        max_bond: 16,
    }
}

/// The same configuration as `qaec serve` flags.
pub const SERVE_FLAGS: &[&str] = &[
    "--algorithm",
    "auto",
    "--strategy",
    "min-fill",
    "--threads",
    "1",
    "--shared-table",
    "auto",
    "--seed-cache",
    "on",
    "--lanes",
    "8",
    "--store-reclaim",
    "auto",
    "--svd-threshold",
    "1e-8",
    "--max-bond",
    "16",
];

/// Parses a pair (one `circuit.parse` span for both circuits).
pub fn parse(pair: &Pair, tracer: &mut Tracer) -> Result<(Circuit, Circuit), String> {
    tracer.span("circuit.parse", || {
        let ideal = qasm::parse(&pair.ideal).map_err(|e| format!("{}: {e}", pair.label))?;
        let noisy = qasm::parse(&pair.noisy).map_err(|e| format!("{}: {e}", pair.label))?;
        Ok((ideal, noisy))
    })
}

/// `Checker::compile` under the pinned options (`session.compile`).
/// Every query on the session must end by `deadline`.
pub fn compile(
    ideal: &Circuit,
    noisy: &Circuit,
    deadline: Instant,
    tracer: &mut Tracer,
) -> Result<CompiledCheck, String> {
    tracer
        .span("session.compile", || {
            Checker::new(ideal, noisy)
                .options(options(AlgorithmChoice::Auto, deadline))
                .compile()
        })
        .map_err(|e| e.to_string())
}

/// `CompiledCheck::check` (`session.query`, also `mpo.query` when the
/// session compiled for the MPO portfolio).
pub fn check(
    compiled: &mut CompiledCheck,
    epsilon: f64,
    tracer: &mut Tracer,
) -> Result<EquivalenceReport, String> {
    let report = tracer
        .span("session.query", || compiled.check(epsilon))
        .map_err(|e| e.to_string())?;
    if compiled.algorithm() == AlgorithmUsed::Mpo {
        tracer.alias_last("mpo.query");
    }
    Ok(report)
}

/// The cold one-shot path of `qaec check`: parse, compile, check.
pub fn one_shot(
    pair: &Pair,
    tracer: &mut Tracer,
) -> Result<(AlgorithmUsed, EquivalenceReport), String> {
    let (ideal, noisy) = parse(pair, tracer)?;
    let mut compiled = compile(&ideal, &noisy, Instant::now() + OP_DEADLINE, tracer)?;
    let report = check(&mut compiled, pair.epsilon, tracer)?;
    Ok((compiled.algorithm(), report))
}

/// Work counters over a workload's canonical pass — each distinct
/// input once, in a seed-fixed order — so at one thread they repeat
/// exactly between runs with the same seed.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub tdd: TddStats,
    pub max_nodes: usize,
    pub plans_built: u64,
    pub alg1_terms: u64,
    pub alg1_total: u64,
    /// Queries answered by Algorithm I, II and III.
    pub answered: [u64; 3],
    pub mpo_bond_max: usize,
    pub mpo_trunc_error: f64,
    /// Queries on an MPO-compiled session that the exact fallback
    /// answered.
    pub mpo_escalations: u64,
}

fn slot(algorithm: AlgorithmUsed) -> usize {
    match algorithm {
        AlgorithmUsed::AlgorithmI => 0,
        AlgorithmUsed::AlgorithmII => 1,
        AlgorithmUsed::Mpo => 2,
    }
}

impl Counters {
    /// Counts a check answered by a session compiled for `compiled`.
    pub fn add_check(&mut self, compiled: AlgorithmUsed, report: &EquivalenceReport) {
        self.answered[slot(report.algorithm)] += 1;
        if report.algorithm != AlgorithmUsed::Mpo {
            self.tdd.merge(&report.stats);
            self.max_nodes = self.max_nodes.max(report.max_nodes);
        }
        if report.algorithm == AlgorithmUsed::AlgorithmI {
            self.alg1_terms += report.terms_computed as u64;
            self.alg1_total += report.total_terms as u64;
        }
        if let (Some(bond), Some(err)) = (report.bond_max, report.trunc_error) {
            self.mpo_bond_max = self.mpo_bond_max.max(bond);
            self.mpo_trunc_error = self.mpo_trunc_error.max(err);
        }
        if compiled == AlgorithmUsed::Mpo && report.algorithm != AlgorithmUsed::Mpo {
            self.mpo_escalations += 1;
        }
    }

    /// Counts a noise sweep. Sweeps always answer exactly: an
    /// MPO-compiled `Auto` session escalates the whole sweep.
    pub fn add_sweep(&mut self, compiled: AlgorithmUsed, noisy: &Circuit, points: &[SweepPoint]) {
        let answered_by = match compiled {
            AlgorithmUsed::Mpo => {
                self.mpo_escalations += 1;
                auto_choice(noisy)
            }
            other => other,
        };
        self.answered[slot(answered_by)] += 1;
        let mut previous: Option<&SweepPoint> = None;
        for point in points {
            // The points of one lane batch share its statistics: count
            // the batch once.
            let same_batch = previous.is_some_and(|p| {
                p.elapsed == point.elapsed
                    && p.stats == point.stats
                    && p.max_nodes == point.max_nodes
            });
            if !same_batch {
                self.tdd.merge(&point.stats);
            }
            self.max_nodes = self.max_nodes.max(point.max_nodes);
            if answered_by == AlgorithmUsed::AlgorithmI {
                // A sweep point evaluates every term.
                let total = noisy.kraus_term_count() as u64;
                self.alg1_terms += total;
                self.alg1_total += total;
            }
            previous = Some(point);
        }
    }
}

/// Algorithm I cross-checks run only below this many Kraus terms.
pub const ALG1_REFERENCE_TERMS: usize = 1 << 8;
/// The dense simulator cross-checks run only up to this width.
pub const DMSIM_MAX_QUBITS: usize = 4;
/// How closely independent exact computations must agree.
pub const EXACT_TOLERANCE: f64 = 1e-9;

/// The exact fidelity of a pair from Algorithm II, cross-checked
/// against Algorithm I (below [`ALG1_REFERENCE_TERMS`] terms) and the
/// dense `qaec_dmsim` process fidelity (up to [`DMSIM_MAX_QUBITS`]
/// qubits).
pub fn exact_fidelity(ideal: &Circuit, noisy: &Circuit) -> Result<f64, String> {
    let f2 = fidelity_alg2(
        ideal,
        noisy,
        &options(AlgorithmChoice::AlgorithmII, Instant::now() + OP_DEADLINE),
    )
    .map_err(|e| format!("reference Algorithm II: {e}"))?
    .fidelity;
    if noisy.kraus_term_count() <= ALG1_REFERENCE_TERMS {
        let f1 = fidelity_alg1(
            ideal,
            noisy,
            None,
            &options(AlgorithmChoice::AlgorithmI, Instant::now() + OP_DEADLINE),
        )
        .map_err(|e| format!("reference Algorithm I: {e}"))?
        .fidelity_lower;
        if (f1 - f2).abs() > EXACT_TOLERANCE {
            return Err(format!("Algorithm I gives {f1}, Algorithm II {f2}"));
        }
    }
    if noisy.n_qubits() <= DMSIM_MAX_QUBITS {
        let dense = qaec_dmsim::process_fidelity::process_fidelity_baseline(ideal, noisy)
            .map_err(|e| format!("reference dmsim: {e}"))?;
        if (dense - f2).abs() > EXACT_TOLERANCE {
            return Err(format!("dmsim gives {dense}, Algorithm II {f2}"));
        }
    }
    Ok(f2)
}

/// Checks a check report against the exact fidelity: its proven
/// interval (a point for the exact backends, the certified MPO interval
/// otherwise) must contain it, and its verdict must be the one the
/// exact value gives.
pub fn verify_check(report: &EquivalenceReport, exact: f64) -> Result<(), String> {
    let (lo, hi) = report.fidelity_bounds;
    if !(lo - EXACT_TOLERANCE <= exact && exact <= hi + EXACT_TOLERANCE) {
        return Err(format!(
            "{} interval [{lo}, {hi}] misses the exact fidelity {exact}",
            report.algorithm
        ));
    }
    let expected = Verdict::decide(exact, report.epsilon);
    if report.verdict != expected {
        return Err(format!(
            "verdict {} at ε = {}, exact fidelity {exact} gives {expected}",
            report.verdict, report.epsilon
        ));
    }
    Ok(())
}

/// Checks every point of a noise sweep against the exact fidelity of
/// the pair re-parameterised at that point's strength.
pub fn verify_sweep(
    ideal: &Circuit,
    noisy: &Circuit,
    epsilon: f64,
    strengths: &[f64],
    points: &[SweepPoint],
) -> Result<(), String> {
    if points.len() != strengths.len() {
        return Err(format!(
            "{} points for {} strengths",
            points.len(),
            strengths.len()
        ));
    }
    for (&strength, point) in strengths.iter().zip(points) {
        let exact = exact_fidelity(ideal, &with_strength(noisy, strength)?)?;
        if (point.fidelity - exact).abs() > EXACT_TOLERANCE {
            return Err(format!(
                "at strength {strength}: the sweep gives {}, exact {exact}",
                point.fidelity
            ));
        }
        if point.verdict != Verdict::decide(exact, epsilon) {
            return Err(format!("at strength {strength}: verdict {}", point.verdict));
        }
    }
    Ok(())
}

/// `noisy` with every noise site re-instantiated at `strength`.
pub fn with_strength(noisy: &Circuit, strength: f64) -> Result<Circuit, String> {
    let mut out = Circuit::new(noisy.n_qubits());
    for instruction in noisy.iter() {
        match &instruction.op {
            Operation::Gate(gate) => {
                out.gate(*gate, &instruction.qubits);
            }
            Operation::Noise(channel) => {
                let channel = channel
                    .with_strength(strength)
                    .ok_or_else(|| format!("{} has no single strength", channel.name()))?;
                out.noise(channel, &instruction.qubits);
            }
        }
    }
    Ok(out)
}
