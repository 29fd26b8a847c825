//! Golden work bits: the exact fidelity bits, `max_nodes` and TDD work
//! counters (`cont_calls`, `add_calls`, `nodes_created`) of one-shot
//! checks on the Table I rows cheap enough for a debug build, and of
//! every point of one folded noise sweep.
//!
//! Algorithm I runs on a private store with one thread; Algorithm II
//! and the sweep run on the shared store, also with one thread. Reclamation is off and
//! every option is explicit, so the environment variables that steer
//! [`CheckOptions::default`] cannot move a number. A change to weight
//! interning, node construction or the recursions that alters a single
//! fidelity bit or a single unit of work fails here.
//!
//! The term engine has its own tables: Algorithm I at one and four
//! threads (both term orders, and an ε early exit), which pins the
//! ordered reducer, and the Monte-Carlo estimator at one thread. Bits,
//! `max_nodes` and work counters are pinned only at one thread; with
//! four, each private worker glues weights along its own history, so
//! the values drift within 1e-9 and how the workers split the terms
//! decides the counters.

use crate::golden_plans::pairs;
use crate::options::{AlgorithmChoice, CheckOptions, StoreReclaimMode, TermOrder};
use crate::report::Verdict;
use crate::session::Checker;
use crate::{fidelity_alg1, fidelity_alg2, fidelity_monte_carlo};
use qaec_tdd::TddStats;

/// `(fidelity bits, max_nodes, cont_calls, add_calls, nodes_created)`.
type Bits = (u64, usize, u64, u64, u64);

/// Table I rows run under Algorithm I: those whose 4^k trace terms
/// finish in well under a second in a debug build, three of them QV.
const ALG1_ROWS: &[&str] = &[
    "qft2", "qv_n3d5", "7x1mod15", "qft5", "qv_n6d5", "qv_n7d5", "qft9",
];

/// Rows run under Algorithm II: all 21 Table I rows and the two tiled
/// pairs.
const ALG2_ROWS: &[&str] = &[
    "rb", "qft2", "grover", "qft3", "qv_n3d5", "bv4", "7x1mod15", "bv5", "qft5", "qv_n5d5", "bv6",
    "qv_n6d5", "qft7", "qv_n7d5", "bv9", "qv_n9d5", "qft9", "qft10", "bv13", "bv14", "bv16",
    "qft3x8", "ghz4x6",
];

/// The swept row and its eight depolarizing strengths.
const SWEEP_ROW: &str = "qv_n5d5";
const SWEEP_STRENGTHS: [f64; 8] = [0.999, 0.998, 0.995, 0.99, 0.98, 0.95, 0.9, 0.8];

// A change meant to keep every result bit-identical leaves these tables
// as they are; a deliberate numeric change replaces them with the table
// the failure message prints, and says why in its description.

/// [`ALG1_ROWS`] in order.
const GOLDEN_ALG1: &[(&str, Bits)] = &[
    ("qft2", (0x3fefef9fcb0c026f, 8, 970, 369, 283)),
    ("qv_n3d5", (0x3fefefa006b300e6, 16, 15976, 15960, 9890)),
    ("7x1mod15", (0x3fefe773881e2d51, 23, 4720, 752, 921)),
    ("qft5", (0x3fefe772d557016c, 20, 11686, 1402, 1678)),
    ("qv_n6d5", (0x3feff7ced9168758, 448, 22874, 23555, 15443)),
    ("qv_n7d5", (0x3fefef9fcb0bf550, 67, 30256, 21634, 13657)),
    ("qft9", (0x3fefef9fcb0c0275, 90, 21032, 4541, 6400)),
];
/// [`ALG2_ROWS`] in order.
const GOLDEN_ALG2: &[(&str, Bits)] = &[
    ("rb", (0x3fefcefd9cd83b5f, 34, 1647, 427, 701)),
    ("qft2", (0x3fefef9fcb0c026e, 10, 633, 168, 293)),
    ("grover", (0x3fefdf4a3c06ebff, 26, 9211, 2922, 3927)),
    ("qft3", (0x3fefc6d5fd9a5c76, 58, 2702, 977, 1248)),
    ("qv_n3d5", (0x3fefefa006b30117, 16, 5545, 3524, 3281)),
    ("bv4", (0x3fefc6d586e4bc5f, 82, 2300, 1149, 972)),
    ("7x1mod15", (0x3fefe773881e2d4f, 34, 3518, 878, 1471)),
    ("bv5", (0x3fefcef9e5816556, 44, 1805, 956, 988)),
    ("qft5", (0x3fefe772d5570168, 24, 6156, 1784, 2784)),
    ("qv_n5d5", (0x3fefe7731476bef8, 256, 25620, 22320, 14892)),
    ("bv6", (0x3fef8e137ad755f3, 32, 2999, 1309, 1493)),
    ("qv_n6d5", (0x3feff7ced9168774, 448, 39660, 44409, 29049)),
    ("qft7", (0x3fefcef932ca6adb, 535, 25295, 10536, 9514)),
    ("qv_n7d5", (0x3fefef9fcb0be6b0, 76, 21119, 17398, 13670)),
    ("bv9", (0x3fefcef8bc46c124, 22, 2735, 974, 1253)),
    ("qv_n9d5", (0x3fefe772d557017c, 1027, 50278, 118302, 66295)),
    ("qft9", (0x3fefef9fcb0c027b, 58, 24491, 6263, 10388)),
    ("qft10", (0x3fefef9fcb0c0286, 448, 37493, 10104, 15035)),
    ("bv13", (0x3fefdf47f76e36ef, 14, 3313, 1005, 1470)),
    ("bv14", (0x3fefdf47f76e36ee, 14, 3579, 1078, 1582)),
    ("bv16", (0x3fefb692ce0afe8a, 28, 4512, 1363, 2031)),
    ("qft3x8", (0x3fefbeb1630ff3ff, 14, 13479, 4392, 6256)),
    ("ghz4x6", (0x3fefcef880dcc074, 10, 2597, 726, 1290)),
];
/// The sweep's points in strength order; the first also builds the fold.
const GOLDEN_SWEEP: &[(&str, Bits)] = &[
    (
        "qv_n5d5@0.999",
        (0x3fefe7731476bef8, 256, 25620, 22320, 14892),
    ),
    ("qv_n5d5@0.998", (0x3fefcef338efb24a, 256, 9815, 8782, 4320)),
    ("qv_n5d5@0.995", (0x3fef85c1e28b6ce6, 256, 9815, 8782, 4321)),
    ("qv_n5d5@0.99", (0x3fef0cc8eead5950, 256, 9815, 8782, 4321)),
    ("qv_n5d5@0.98", (0x3fee1e9f828997f7, 256, 9815, 8782, 4321)),
    ("qv_n5d5@0.95", (0x3feb71e905d9d17b, 256, 9815, 8782, 4321)),
    ("qv_n5d5@0.9", (0x3fe75cae439d39e8, 256, 9815, 8782, 4321)),
    ("qv_n5d5@0.8", (0x3fe08170d68ae7dd, 256, 9815, 8782, 4321)),
];

/// Rows for the term engine tables: 64 Algorithm I terms each.
const TERM_ROWS: &[&str] = &["7x1mod15", "qft5"];

/// The early-exit threshold: 1 − ε lies between the rows' fidelity
/// (≈0.99701) and the upper bound after the heaviest term (≈1), so the
/// upper bound must fall through it one light term at a time.
const EARLY_EPSILON: f64 = 0.0015;

/// Monte-Carlo sample count and seed.
const MC_SAMPLES: usize = 20_000;
const MC_SEED: u64 = 7;

/// `(terms_computed, verdict, at one thread (lower bits, upper bits,
/// max_nodes, cont_calls, add_calls, nodes_created))`.
type TermBits = (
    usize,
    Option<Verdict>,
    Option<(u64, u64, usize, u64, u64, u64)>,
);

/// `(estimate bits, std_error bits, distinct_strings)`.
type McBits = (u64, u64, usize);

/// [`TERM_ROWS`] × (best-first exact, lexicographic exact, ε early
/// exit) × threads 1 and 4.
#[rustfmt::skip]
const GOLDEN_TERMS: &[(&str, TermBits)] = &[
    ("7x1mod15/best_first/t1", (64, None, Some((0x3fefe773881e2d51, 0x3fefe773881e2d51, 23, 4720, 752, 921)))),
    ("7x1mod15/best_first/t4", (64, None, None)),
    ("7x1mod15/lexicographic/t1", (64, None, Some((0x3fefe773881e2d51, 0x3fefe773881e2d51, 23, 4720, 752, 921)))),
    ("7x1mod15/lexicographic/t4", (64, None, None)),
    ("7x1mod15/early_exit/t1", (6, Some(Verdict::NotEquivalent), Some((0x3fefe772d557016a, 0x3feff25fbbd253a0, 23, 1926, 492, 719)))),
    ("7x1mod15/early_exit/t4", (6, Some(Verdict::NotEquivalent), None)),
    ("qft5/best_first/t1", (64, None, Some((0x3fefe772d557016c, 0x3fefe772d557016c, 20, 11686, 1402, 1678)))),
    ("qft5/best_first/t4", (64, None, None)),
    ("qft5/lexicographic/t1", (64, None, Some((0x3fefe772d557016c, 0x3fefe772d557016c, 20, 11686, 1402, 1678)))),
    ("qft5/lexicographic/t4", (64, None, None)),
    ("qft5/early_exit/t1", (6, Some(Verdict::NotEquivalent), Some((0x3fefe772d557016c, 0x3feff25fbbd253a2, 20, 4164, 1090, 1487)))),
    ("qft5/early_exit/t4", (6, Some(Verdict::NotEquivalent), None)),
];
/// [`TERM_ROWS`] at one thread.
#[rustfmt::skip]
const GOLDEN_MC: &[(&str, McBits)] = &[
    ("7x1mod15/private_t1", (0x3fefe56041893743, 0x3f3a604823920cb8, 10)),
    ("qft5/private_t1", (0x3fefe56041893745, 0x3f3a604823920cb9, 10)),
];

fn options(algorithm: AlgorithmChoice) -> CheckOptions {
    CheckOptions {
        algorithm,
        threads: 1,
        store_reclaim: StoreReclaimMode::Off,
        ..CheckOptions::default()
    }
}

fn bits(fidelity: f64, max_nodes: usize, stats: &TddStats) -> Bits {
    (
        fidelity.to_bits(),
        max_nodes,
        stats.cont_calls,
        stats.add_calls,
        stats.nodes_created,
    )
}

fn render_bits((f, m, c, a, n): &Bits) -> String {
    format!("(0x{f:016x}, {m}, {c}, {a}, {n})")
}

fn render_term_bits((terms, verdict, work): &TermBits) -> String {
    let verdict = verdict.map_or("None".to_string(), |v| format!("Some(Verdict::{v:?})"));
    let work = work.map_or(
        "None".to_string(),
        |(lower, upper, max_nodes, cont, add, nodes)| {
            format!("Some((0x{lower:016x}, 0x{upper:016x}, {max_nodes}, {cont}, {add}, {nodes}))")
        },
    );
    format!("({terms}, {verdict}, {work})")
}

fn render_mc_bits((estimate, std_error, distinct): &McBits) -> String {
    format!("(0x{estimate:016x}, 0x{std_error:016x}, {distinct})")
}

/// Fails listing every label whose bits moved, with the whole table as
/// it is now.
fn assert_golden<T: PartialEq>(
    actual: &[(String, T)],
    golden: &[(&str, T)],
    render: fn(&T) -> String,
) {
    let changed: Vec<&str> = actual
        .iter()
        .zip(golden)
        .filter(|((name, got), (golden_name, want))| name != golden_name || got != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, bits)| format!("    (\"{name}\", {}),\n", render(bits)))
        .collect();
    assert!(
        changed.is_empty() && actual.len() == golden.len(),
        "bits changed for {changed:?} ({} rows, {} golden); the table now is:\n{table}",
        actual.len(),
        golden.len()
    );
}

fn rows(names: &[&str]) -> Vec<(String, qaec_circuit::Circuit, qaec_circuit::Circuit)> {
    let all = pairs();
    names
        .iter()
        .map(|name| {
            all.iter()
                .find(|(row, _, _)| row == name)
                .cloned()
                .unwrap_or_else(|| panic!("no row {name}"))
        })
        .collect()
}

#[test]
fn algorithm_one_private_bits_match_golden() {
    let options = options(AlgorithmChoice::AlgorithmI);
    let actual: Vec<(String, Bits)> = rows(ALG1_ROWS)
        .into_iter()
        .map(|(name, ideal, noisy)| {
            let r = fidelity_alg1(&ideal, &noisy, None, &options).expect("alg1 runs");
            (name, bits(r.fidelity_lower, r.max_nodes, &r.stats))
        })
        .collect();
    assert_golden(&actual, GOLDEN_ALG1, render_bits);
}

#[test]
fn algorithm_two_scoped_bits_match_golden() {
    let options = options(AlgorithmChoice::AlgorithmII);
    let actual: Vec<(String, Bits)> = rows(ALG2_ROWS)
        .into_iter()
        .map(|(name, ideal, noisy)| {
            let r = fidelity_alg2(&ideal, &noisy, &options).expect("alg2 runs");
            (name, bits(r.fidelity, r.max_nodes, &r.stats))
        })
        .collect();
    assert_golden(&actual, GOLDEN_ALG2, render_bits);
}

#[test]
fn folded_sweep_bits_match_golden() {
    let (_, ideal, noisy) = rows(&[SWEEP_ROW]).remove(0);
    let check = Checker::new(&ideal, &noisy)
        .options(options(AlgorithmChoice::AlgorithmII))
        .compile()
        .expect("compiles");
    let points = check
        .sweep_noise(0.01, &SWEEP_STRENGTHS)
        .expect("sweep runs");
    let actual: Vec<(String, Bits)> = SWEEP_STRENGTHS
        .iter()
        .zip(&points)
        .map(|(strength, p)| {
            (
                format!("{SWEEP_ROW}@{strength}"),
                bits(p.fidelity, p.max_nodes, &p.stats),
            )
        })
        .collect();
    assert_golden(&actual, GOLDEN_SWEEP, render_bits);
}

#[test]
fn algorithm_one_terms_match_golden_at_one_and_four_threads() {
    let mut actual = Vec::new();
    for (name, ideal, noisy) in rows(TERM_ROWS) {
        for (mode, term_order, epsilon) in [
            ("best_first", TermOrder::BestFirst, None),
            ("lexicographic", TermOrder::Lexicographic, None),
            ("early_exit", TermOrder::BestFirst, Some(EARLY_EPSILON)),
        ] {
            let run = |threads| {
                let options = CheckOptions {
                    threads,
                    term_order,
                    ..options(AlgorithmChoice::AlgorithmI)
                };
                fidelity_alg1(&ideal, &noisy, epsilon, &options).expect("alg1 runs")
            };
            let (t1, t4) = (run(1), run(4));
            for (bound, one, four) in [
                ("lower", t1.fidelity_lower, t4.fidelity_lower),
                ("upper", t1.fidelity_upper, t4.fidelity_upper),
            ] {
                assert!(
                    (four - one).abs() < 1e-9,
                    "{name}/{mode} {bound}: t4 {four} vs t1 {one}"
                );
            }
            let work = (
                t1.fidelity_lower.to_bits(),
                t1.fidelity_upper.to_bits(),
                t1.max_nodes,
                t1.stats.cont_calls,
                t1.stats.add_calls,
                t1.stats.nodes_created,
            );
            actual.push((
                format!("{name}/{mode}/t1"),
                (t1.terms_computed, t1.verdict, Some(work)),
            ));
            actual.push((
                format!("{name}/{mode}/t4"),
                (t4.terms_computed, t4.verdict, None),
            ));
        }
    }
    assert_golden(&actual, GOLDEN_TERMS, render_term_bits);
}

#[test]
fn monte_carlo_bits_match_golden() {
    let mut actual = Vec::new();
    let options = options(AlgorithmChoice::AlgorithmI);
    for (name, ideal, noisy) in rows(TERM_ROWS) {
        let r = fidelity_monte_carlo(&ideal, &noisy, MC_SAMPLES, MC_SEED, &options)
            .expect("monte carlo runs");
        actual.push((
            format!("{name}/private_t1"),
            (
                r.estimate.to_bits(),
                r.std_error.to_bits(),
                r.distinct_strings,
            ),
        ));
    }
    assert_golden(&actual, GOLDEN_MC, render_mc_bits);
}
