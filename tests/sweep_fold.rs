//! The folded Algorithm II noise sweep against cold one-shot checks.
//!
//! The contract under test: a session's first noise sweep contracts the
//! noise-free plan steps once (the fold), and every sweep point runs
//! only the steps that depend on a noise site. That must change
//! *nothing* observable per point — fidelity bits, verdict and
//! `max_nodes` equal a cold one-shot check of the re-parameterised pair
//! at every thread count and reclamation mode — while a repeated sweep
//! does strictly less decision-diagram work than the first.
//!
//! Options are always set explicitly (the CI thread-sanity and
//! store-reclaim matrices override the defaults via environment
//! variables, and these tests pin exact configurations).

use qaec::{
    check_equivalence, AlgorithmChoice, CheckOptions, Checker, CompiledCheck, EquivalenceReport,
    StoreReclaimMode, SweepPoint,
};
use qaec_circuit::generators::{qft, quantum_volume, tile, QftStyle};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel, Operation};
use qaec_math::{Matrix, C64};
use qaec_tdd::{
    contract_network_parallel, contract_steps_parallel, scale_free_loops, Edge, ParallelOptions,
    SharedTddStore, StepRun, TddManager,
};
use qaec_tensornet::{IndexId, PlanStep, Strategy, Tensor, TensorNetwork, VarOrder};

/// A QFT with several depolarizing sites — the sweep workload shape
/// (every site re-parameterised per point).
fn fixture(n: usize, sites: usize) -> (Circuit, Circuit) {
    let ideal = qft(n, QftStyle::DecomposedNoSwaps);
    let noisy = insert_random_noise(
        &ideal,
        &NoiseChannel::Depolarizing { p: 0.999 },
        sites,
        0xC0FFEE + n as u64,
    );
    (ideal, noisy)
}

fn options(threads: usize, reclaim: StoreReclaimMode) -> CheckOptions {
    CheckOptions {
        algorithm: AlgorithmChoice::AlgorithmII,
        threads,
        store_reclaim: reclaim,
        ..CheckOptions::default()
    }
}

fn compile(ideal: &Circuit, noisy: &Circuit, opts: &CheckOptions) -> CompiledCheck {
    Checker::new(ideal, noisy)
        .options(opts.clone())
        .compile()
        .expect("compile")
}

/// `noisy` with every noise site re-instantiated at `strength` — the
/// pair a sweep point checks.
fn with_strength(noisy: &Circuit, strength: f64) -> Circuit {
    let mut out = Circuit::new(noisy.n_qubits());
    for instruction in noisy.iter() {
        match &instruction.op {
            Operation::Gate(gate) => {
                out.gate(*gate, &instruction.qubits);
            }
            Operation::Noise(channel) => {
                let channel = channel.with_strength(strength).expect("sweepable channel");
                out.noise(channel, &instruction.qubits);
            }
        }
    }
    out
}

/// Nine strengths, the shape of the CI parity job.
const STRENGTHS: [f64; 9] = [0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.97, 0.96];
const EPSILON: f64 = 0.02;

/// Every point must equal a cold one-shot check of its pair: fidelity
/// bits, verdict and `max_nodes`.
fn assert_matches_cold(ideal: &Circuit, noisy: &Circuit, points: &[SweepPoint], what: &str) {
    let cold_options = options(1, StoreReclaimMode::Auto);
    assert_eq!(points.len(), STRENGTHS.len(), "{what}");
    for (i, (point, &strength)) in points.iter().zip(&STRENGTHS).enumerate() {
        let cold = check_equivalence(
            ideal,
            &with_strength(noisy, strength),
            EPSILON,
            &cold_options,
        )
        .expect("cold check");
        assert_eq!(
            point.fidelity.to_bits(),
            cold.fidelity_bounds.0.to_bits(),
            "{what} point {i}: {} != {}",
            point.fidelity,
            cold.fidelity_bounds.0
        );
        assert_eq!(point.verdict, cold.verdict, "{what} point {i}");
        assert_eq!(point.max_nodes, cold.max_nodes, "{what} point {i}");
    }
}

/// Threads {1, 4} × reclamation {on, off, auto}: the first sweep (which
/// builds the fold) and a repeated sweep (which reuses it, across
/// reclamation swaps) both match cold one-shot checks bit for bit.
#[test]
fn folded_sweep_matches_cold_one_shot_checks() {
    let (ideal, noisy) = fixture(3, 4);
    for threads in [1usize, 4] {
        for reclaim in [
            StoreReclaimMode::On,
            StoreReclaimMode::Off,
            StoreReclaimMode::Auto,
        ] {
            let session = compile(&ideal, &noisy, &options(threads, reclaim));
            for sweep in ["first", "repeated"] {
                let points = session.sweep_noise(EPSILON, &STRENGTHS).expect("sweep");
                let what = format!("t{threads} {reclaim:?} {sweep} sweep");
                assert_matches_cold(&ideal, &noisy, &points, &what);
            }
        }
    }
}

/// The fold is observable: the point that builds it pays for the
/// noise-free steps once, and a repeated sweep on the same session does
/// strictly fewer `cont_calls` than the first.
#[test]
fn repeated_sweep_does_fewer_cont_calls() {
    let (ideal, noisy) = fixture(3, 4);
    let session = compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off));
    let cont_calls =
        |points: &[SweepPoint]| -> u64 { points.iter().map(|p| p.stats.cont_calls).sum() };
    let first = session.sweep_noise(EPSILON, &STRENGTHS).expect("first");
    let repeated = session.sweep_noise(EPSILON, &STRENGTHS).expect("repeated");
    assert!(
        cont_calls(&repeated) < cont_calls(&first),
        "repeated {} vs first {}",
        cont_calls(&repeated),
        cont_calls(&first)
    );
    assert!(
        first[0].stats.cont_calls > repeated[0].stats.cont_calls,
        "the first point builds the fold: {:?} vs {:?}",
        first[0].stats,
        repeated[0].stats
    );
    for (a, b) in first.iter().zip(&repeated) {
        assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
        assert_eq!(a.max_nodes, b.max_nodes);
    }
}

/// The fold's and reclamation's payoff on 8-point sweeps of the tiled
/// qv6x4_k8 workload (four 6-qubit QV blocks, 8 depolarizing sites,
/// Table I seed). A reclaim-off session's first sweep builds the fold;
/// its repeated sweep does at most 0.35× the `cont_calls` of 8 cold
/// one-shot checks, and every point equals its cold check bit for bit.
/// A reclaim-on session answers the same bits with a peak footprint at
/// most 1/1.5 of the reclaim-off one.
#[test]
fn qv6x4_sweeps_fold_to_0_35x_the_cold_work_and_reclaim_1_5x_of_the_peak() {
    const NOISE_SEED: u64 = 0xDAC2021;
    let ideal = tile(&quantum_volume(6, 5, NOISE_SEED), 4);
    let noisy = insert_random_noise(
        &ideal,
        &NoiseChannel::Depolarizing { p: 0.999 },
        8,
        NOISE_SEED + 8,
    );
    let strengths = [0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.97];
    let epsilon = 1e-3;
    let opts = |reclaim| options(1, reclaim);
    // A session's sweep, with its store's peak and current footprint.
    let sweep = |session: &CompiledCheck| {
        let points = session.sweep_noise(epsilon, &strengths).expect("sweep");
        let (bytes, peak) = (session.warm_store_bytes(), session.warm_store_peak_bytes());
        assert!(bytes > 0 && peak >= bytes, "{bytes} B, peak {peak} B");
        (points, peak)
    };
    // The cold checks and the reclaim-on session run on threads of their
    // own. Each has its own store and one worker, so no counter depends
    // on another.
    let (off, repeated, on, cold) = std::thread::scope(|scope| {
        let (ideal, noisy, opts, sweep) = (&ideal, &noisy, &opts, &sweep);
        let halves: Vec<_> = strengths
            .chunks(4)
            .map(|half| {
                scope.spawn(move || {
                    half.iter()
                        .map(|&p| {
                            let cold_opts = opts(StoreReclaimMode::Off);
                            check_equivalence(ideal, &with_strength(noisy, p), epsilon, &cold_opts)
                        })
                        .collect::<Result<Vec<EquivalenceReport>, _>>()
                })
            })
            .collect();
        let on = scope.spawn(move || sweep(&compile(ideal, noisy, &opts(StoreReclaimMode::On))));
        let session = compile(ideal, noisy, &opts(StoreReclaimMode::Off));
        let off = sweep(&session);
        let (repeated, _) = sweep(&session);
        let cold: Vec<EquivalenceReport> = halves
            .into_iter()
            .flat_map(|half| half.join().expect("cold check thread").expect("cold check"))
            .collect();
        (
            off,
            repeated,
            on.join().expect("reclaim-on sweep thread"),
            cold,
        )
    });
    for (k, (point, cold)) in repeated.iter().zip(&cold).enumerate() {
        assert_eq!(
            point.fidelity.to_bits(),
            cold.fidelity_bounds.0.to_bits(),
            "point {k}"
        );
        assert_eq!(point.verdict, cold.verdict, "point {k}");
        assert_eq!(point.max_nodes, cold.max_nodes, "point {k}");
    }
    let repeated_calls: u64 = repeated.iter().map(|p| p.stats.cont_calls).sum();
    let cold_calls: u64 = cold.iter().map(|r| r.stats.cont_calls).sum();
    assert!(
        repeated_calls as f64 <= 0.35 * cold_calls as f64,
        "repeated sweep {repeated_calls} cont_calls vs cold {cold_calls}"
    );
    let ((off_points, peak_off), (on_points, peak_on)) = (off, on);
    for (k, (a, b)) in off_points.iter().zip(&on_points).enumerate() {
        assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits(), "point {k}");
        assert_eq!(a.verdict, b.verdict, "point {k}");
    }
    assert!(
        peak_off as f64 >= 1.5 * peak_on as f64,
        "reclaim-off peak {peak_off} B vs reclaim-on {peak_on} B"
    );
}

/// An Algorithm I session sweeps on private per-worker managers, one
/// full term enumeration per point; its fidelities agree with the
/// folded Algorithm II sweep to the interning tolerance, and its
/// verdicts exactly.
#[test]
fn private_store_sweep_agrees_with_the_folded_sweep() {
    let (ideal, noisy) = fixture(3, 4);
    for threads in [1usize, 4] {
        let folded = compile(&ideal, &noisy, &options(threads, StoreReclaimMode::Auto))
            .sweep_noise(EPSILON, &STRENGTHS)
            .expect("folded sweep");
        let alg1 = CheckOptions {
            algorithm: AlgorithmChoice::AlgorithmI,
            ..options(threads, StoreReclaimMode::Auto)
        };
        let private = compile(&ideal, &noisy, &alg1)
            .sweep_noise(EPSILON, &STRENGTHS)
            .expect("private sweep");
        for (i, (a, b)) in folded.iter().zip(&private).enumerate() {
            assert!(
                (a.fidelity - b.fidelity).abs() < 1e-9,
                "t{threads} point {i}: {} vs {}",
                a.fidelity,
                b.fidelity
            );
            assert_eq!(a.verdict, b.verdict, "t{threads} point {i}");
        }
    }
}

/// No noise sites: every step folds, and the points after the first do
/// no contraction at all. The untouched third qubit adds free loops
/// (its doubled wires trace to factors of 2).
#[test]
fn pair_without_noise_sites_folds_everything() {
    let mut ideal = Circuit::new(3);
    ideal.h(0).cx(0, 1).t(1);
    let noisy = ideal.clone();
    let session = compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off));
    let points = session.sweep_noise(EPSILON, &STRENGTHS).expect("sweep");
    assert_matches_cold(&ideal, &noisy, &points, "noise-free pair");
    assert_eq!(points[0].fidelity, 1.0);
    assert!(points[0].stats.cont_calls > 0, "the fold contracts");
    for (i, point) in points.iter().enumerate().skip(1) {
        assert_eq!(point.stats.cont_calls, 0, "point {i} reads the fold");
    }
}

/// A pair whose every plan step touches the noise: the fold runs no
/// step, so the point that builds it does exactly the work of any later
/// point at the same strength. The untouched second qubit adds free
/// loops.
#[test]
fn pair_whose_every_step_depends_on_noise_has_an_empty_fold() {
    let ideal = Circuit::new(2);
    let mut noisy = Circuit::new(2);
    noisy.noise(NoiseChannel::Depolarizing { p: 0.999 }, &[0]);
    let session = compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off));
    let points = session.sweep_noise(EPSILON, &STRENGTHS).expect("sweep");
    assert_matches_cold(&ideal, &noisy, &points, "noise-only pair");
    let same = session.sweep_noise(EPSILON, &[0.99, 0.99]).expect("repeat");
    assert_eq!(same[0].stats.cont_calls, same[1].stats.cont_calls);
    let fresh = compile(&ideal, &noisy, &options(1, StoreReclaimMode::Off))
        .sweep_noise(EPSILON, &[0.99, 0.99])
        .expect("fresh");
    assert_eq!(
        fresh[0].stats.cont_calls, fresh[1].stats.cont_calls,
        "an empty fold contracts nothing"
    );
}

/// `sweep_noise_verdicts` (ε-aware, early-exit) agrees with the exact
/// sweep's decisions and with itself run one strength at a time, on
/// both backends. The ε is chosen to split the strength range, so both
/// verdicts actually occur.
#[test]
fn verdicts_sweep_matches_exact_sweep_and_point_by_point_runs() {
    let (ideal, noisy) = fixture(3, 4);
    for algorithm in [AlgorithmChoice::AlgorithmI, AlgorithmChoice::AlgorithmII] {
        let opts = CheckOptions {
            algorithm,
            ..options(1, StoreReclaimMode::Auto)
        };
        let compiled = compile(&ideal, &noisy, &opts);
        let verdicts = compiled
            .sweep_noise_verdicts(EPSILON, &STRENGTHS)
            .expect("verdict sweep");
        assert_eq!(verdicts.len(), STRENGTHS.len());
        let exact = compiled
            .sweep_noise(EPSILON, &STRENGTHS)
            .expect("exact sweep");
        for (i, (v, point)) in verdicts.iter().zip(&exact).enumerate() {
            assert_eq!(*v, point.verdict, "{algorithm:?} point {i}");
        }
        for (i, &strength) in STRENGTHS.iter().enumerate() {
            let single = compiled
                .sweep_noise_verdicts(EPSILON, &[strength])
                .expect("single-point verdict");
            assert_eq!(single[0], verdicts[i], "{algorithm:?} point {i}");
        }
        let seen: std::collections::HashSet<_> = verdicts.iter().map(|v| format!("{v}")).collect();
        assert_eq!(seen.len(), 2, "ε must split the range: {verdicts:?}");
    }
}

/// The driver underneath, on a plan no doubled miter produces: two
/// single-tensor components (each closed by a `SumOut` step, stitched
/// by a `Contract`) plus a free loop. Folding the steps that do not
/// read the varying tensor and resuming from their edges gives the
/// full run's root and `max_nodes`, bit for bit, at 1 and 4 workers —
/// for the original tensor and for a replacement over the same indices.
#[test]
fn step_runs_resume_sum_out_plans_with_free_loops_bit_identically() {
    let matrix = |a: f64, b: f64| {
        Matrix::from_rows(&[
            vec![C64::new(a, 0.1), C64::new(b, 0.0)],
            vec![C64::new(0.0, b), C64::new(a, -0.2)],
        ])
    };
    let mut network = TensorNetwork::new();
    network.add(Tensor::from_matrix(
        &matrix(0.8, 0.3),
        &[IndexId(0)],
        &[IndexId(1)],
    ));
    let varying = network.add(Tensor::from_matrix(
        &matrix(0.6, 0.5),
        &[IndexId(2)],
        &[IndexId(3)],
    ));
    network.close_index(IndexId(4));
    let order = VarOrder::from_sequence((0..5).map(IndexId));
    let plan = network.plan_parallel(Strategy::MinFill, 1);
    assert!(plan
        .steps
        .iter()
        .any(|step| matches!(step, PlanStep::SumOut { .. })));
    assert_eq!(plan.free_loops, 1);
    let graph = plan.graph(&network);

    // Steps reading the varying tensor, transitively; the frontier is
    // every other slot they (or the root read) consume.
    let n_slots = plan.n_slots.max(graph.n_inputs);
    let mut noisy = vec![false; n_slots];
    noisy[varying] = true;
    let mut residual = vec![false; plan.steps.len()];
    let mut read = vec![false; n_slots];
    for (i, step) in plan.steps.iter().enumerate() {
        let operands = match step {
            PlanStep::Contract { a, b, .. } => vec![*a, *b],
            PlanStep::SumOut { t, .. } => vec![*t],
        };
        if operands.iter().any(|&slot| noisy[slot]) {
            residual[i] = true;
            noisy[step.result()] = true;
            operands.iter().for_each(|&slot| read[slot] = true);
        }
    }
    let root_slot = graph.root_slot.expect("root");
    read[root_slot] = true;
    let frontier: Vec<usize> = (0..n_slots).filter(|&s| read[s] && !noisy[s]).collect();
    let folded: Vec<bool> = residual.iter().map(|r| !r).collect();
    assert!(folded.iter().any(|&f| f) && residual.iter().any(|&r| r));

    let replacement = Tensor::from_matrix(&matrix(0.2, 0.9), &[IndexId(2)], &[IndexId(3)]);
    for tensor in [network.tensors()[varying].clone(), replacement] {
        let mut full_network = network.clone();
        full_network.replace(varying, tensor.clone());
        for workers in [1usize, 4] {
            let parallel = ParallelOptions {
                workers,
                deadline: None,
            };
            let store = SharedTddStore::new();
            let full = contract_network_parallel(&store, &full_network, &plan, &order, parallel)
                .expect("full run");
            let full_value = TddManager::new_shared(&store)
                .edge_scalar(full.result.root)
                .expect("scalar");

            let store = SharedTddStore::new();
            let inputs = |slot: usize| &network.tensors()[slot];
            let fold = contract_steps_parallel(
                &store,
                &plan,
                &graph,
                &inputs,
                &order,
                StepRun {
                    steps: &folded,
                    resolved: &[],
                    keep: &frontier,
                },
                parallel,
            )
            .expect("fold");
            let resolved: Vec<(usize, Edge)> = frontier
                .iter()
                .copied()
                .zip(fold.kept.iter().copied())
                .collect();
            let inputs = |slot: usize| {
                assert_eq!(slot, varying, "only the varying tensor converts");
                &tensor
            };
            let rest = contract_steps_parallel(
                &store,
                &plan,
                &graph,
                &inputs,
                &order,
                StepRun {
                    steps: &residual,
                    resolved: &resolved,
                    keep: &[root_slot],
                },
                parallel,
            )
            .expect("residual");
            let mut stats = rest.stats;
            let root = scale_free_loops(&store, rest.kept[0], plan.free_loops, &mut stats);
            let value = TddManager::new_shared(&store)
                .edge_scalar(root)
                .expect("scalar");
            assert_eq!(value.re.to_bits(), full_value.re.to_bits(), "w{workers}");
            assert_eq!(value.im.to_bits(), full_value.im.to_bits(), "w{workers}");
            assert_eq!(
                fold.max_nodes.max(rest.max_nodes).max(1),
                full.result.max_nodes,
                "w{workers}"
            );
        }
    }
}
