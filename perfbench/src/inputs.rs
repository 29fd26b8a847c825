//! Seeded workload inputs. Everything a workload feeds the checker —
//! circuits, noise placement, thresholds, the serve hot set and request
//! order — derives from the workload seed alone, and reaches the
//! checker only as generated OpenQASM.

use qaec_circuit::generators::{
    bernstein_vazirani_all_ones, ghz, grover_dac21, mod_mul_7x1_mod15, qft, quantum_volume,
    random_circuit, randomized_benchmarking, tile, QftStyle,
};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{qasm, Circuit, NoiseChannel};

/// The no-error probability of every inserted depolarizing site (the
/// paper's §V-A setting).
pub const NOISE_P: f64 = 0.999;

/// Seed of the random circuits whose contraction cost swings with the
/// instance — the quantum-volume and RB rows of `check_suite` and
/// `noise_sweep` — so the metrics measure the checker rather than the
/// draw: qv_n9d5 alone takes 0.2–1.9 s between random instances. The
/// workload seed places the other noise, orders the checks and draws
/// the whole serve stream.
pub const GENERATOR_SEED: u64 = 0xDAC2021;

/// A SplitMix64 stream: small, seedable and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// One circuit pair as the checker receives it, with the threshold it
/// is checked at. `label` is for the benchmark's own report only.
#[derive(Clone, Debug, PartialEq)]
pub struct Pair {
    pub label: String,
    pub ideal: String,
    pub noisy: String,
    pub epsilon: f64,
}

/// `ideal` with `sites` depolarizing faults at seeded positions.
fn with_faults(ideal: &Circuit, sites: usize, rng: &mut Rng) -> Circuit {
    insert_random_noise(
        ideal,
        &NoiseChannel::Depolarizing { p: NOISE_P },
        sites,
        rng.next_u64(),
    )
}

/// Renders a pair, with ε placed a factor of two either side of the
/// pair's estimated infidelity `1 − p^k` (a coin flip picks the side),
/// so about half the verdicts are Equivalent and none sits near the
/// threshold.
fn pair(label: String, ideal: &Circuit, noisy: &Circuit, rng: &mut Rng) -> Pair {
    let loss = 1.0 - NOISE_P.powi(noisy.noise_count() as i32);
    let epsilon = if rng.next_u64() & 1 == 0 {
        2.0 * loss
    } else {
        0.5 * loss
    };
    Pair {
        label,
        ideal: qasm::write(ideal),
        noisy: qasm::write(noisy),
        epsilon,
    }
}

/// A block with `sites` faults, tiled `copies` times side by side: a
/// wide, weakly coupled pair the `Auto` portfolio sends to MPO.
fn tiled(label: &str, block: &Circuit, sites: usize, copies: usize, rng: &mut Rng) -> Pair {
    let noisy_block = with_faults(block, sites, rng);
    pair(
        format!("{label}x{copies}"),
        &tile(block, copies),
        &tile(&noisy_block, copies),
        rng,
    )
}

/// `check_suite`: the 21 rows of the paper's Table I plus four wide
/// tiled pairs. `seed` places the noise and picks the threshold side of
/// every row but the random-circuit ones, which stay the paper's fixed
/// instances (see [`GENERATOR_SEED`]).
pub fn check_suite(seed: u64) -> Vec<Pair> {
    let mut rng = Rng::new(seed);
    let rows: Vec<(&str, Circuit, usize)> = vec![
        ("rb", randomized_benchmarking(2, 7, GENERATOR_SEED), 6),
        ("qft2", qft(2, QftStyle::DecomposedNoSwaps), 2),
        ("grover", grover_dac21(), 4),
        ("qft3", qft(3, QftStyle::DecomposedNoSwaps), 7),
        ("qv_n3d5", quantum_volume(3, 5, GENERATOR_SEED), 2),
        ("bv4", bernstein_vazirani_all_ones(4), 7),
        ("7x1mod15", mod_mul_7x1_mod15(), 3),
        ("bv5", bernstein_vazirani_all_ones(5), 6),
        ("qft5", qft(5, QftStyle::DecomposedNoSwaps), 3),
        ("qv_n5d5", quantum_volume(5, 5, GENERATOR_SEED), 3),
        ("bv6", bernstein_vazirani_all_ones(6), 14),
        ("qv_n6d5", quantum_volume(6, 5, GENERATOR_SEED), 1),
        ("qft7", qft(7, QftStyle::DecomposedNoSwaps), 6),
        ("qv_n7d5", quantum_volume(7, 5, GENERATOR_SEED), 2),
        ("bv9", bernstein_vazirani_all_ones(9), 6),
        ("qv_n9d5", quantum_volume(9, 5, GENERATOR_SEED), 3),
        ("qft9", qft(9, QftStyle::DecomposedNoSwaps), 2),
        ("qft10", qft(10, QftStyle::DecomposedNoSwaps), 2),
        ("bv13", bernstein_vazirani_all_ones(13), 4),
        ("bv14", bernstein_vazirani_all_ones(14), 4),
        ("bv16", bernstein_vazirani_all_ones(16), 9),
    ];
    let mut pairs: Vec<Pair> = rows
        .into_iter()
        .enumerate()
        .map(|(i, (label, ideal, sites))| {
            // The random-circuit rows keep the paper's whole instance:
            // where their noise sits moves qv_n9d5 between 0.1 and 1 s.
            let mut pinned = Rng::new(GENERATOR_SEED ^ i as u64);
            let rng = if label.starts_with("qv") || label == "rb" {
                &mut pinned
            } else {
                &mut rng
            };
            let noisy = with_faults(&ideal, sites, rng);
            pair(format!("{label}_k{sites}"), &ideal, &noisy, rng)
        })
        .collect();
    let qft3 = qft(3, QftStyle::DecomposedNoSwaps);
    for copies in [8, 16, 20] {
        pairs.push(tiled("qft3", &qft3, 1, copies, &mut rng));
    }
    pairs.push(tiled("ghz4", &ghz(4), 1, 6, &mut rng));
    pairs
}

/// `noise_sweep`: lane-friendly pairs, one lane-divergent wide pair,
/// and the order the light sweeps of a cycle run in.
pub struct SweepInputs {
    pub light: Vec<Pair>,
    pub heavy: Pair,
    /// The eight strengths every sweep re-instantiates the noise at.
    pub strengths: Vec<f64>,
    /// Indices into `light`, one per light sweep of a cycle.
    pub cycle: Vec<usize>,
}

/// Threshold of every `noise_sweep` point.
pub const SWEEP_EPSILON: f64 = 0.01;

/// Light sweeps per heavy sweep: a fixed mix, which at this revision
/// splits the time about evenly between the lane-friendly pairs (~9 ms
/// a sweep on average) and the lane-divergent wide pair (~3 s), on a
/// 2-core x86-64 container.
pub const LIGHT_PER_HEAVY: usize = 400;

/// The `noise_sweep` pairs and strengths are fixed — the noise seeds and
/// strengths the repository's bench harness uses for the same rows —
/// because both move a sweep's cost: where the sites sit by 3–5× (the
/// wide QV pair takes 2–11 s), and the strength values decide whether
/// lane batches diverge (throughput 530 or 675 points/s between random
/// strength draws). The workload seed orders the light sweeps.
pub fn noise_sweep(seed: u64) -> SweepInputs {
    let fixed = |label: &str, ideal: &Circuit, noisy: &Circuit| Pair {
        label: label.to_string(),
        ideal: qasm::write(ideal),
        noisy: qasm::write(noisy),
        epsilon: SWEEP_EPSILON,
    };
    let depolarize = |ideal: &Circuit, sites: usize, noise_seed: u64| {
        let channel = NoiseChannel::Depolarizing { p: NOISE_P };
        insert_random_noise(ideal, &channel, sites, noise_seed)
    };
    let qft3 = qft(3, QftStyle::DecomposedNoSwaps);
    let qft5 = qft(5, QftStyle::DecomposedNoSwaps);
    let bv5 = bernstein_vazirani_all_ones(5);
    let qft3_block = depolarize(&qft3, 1, GENERATOR_SEED + 24);
    let qft4 = qft(4, QftStyle::DecomposedNoSwaps);
    // Five pairs, so the median sweep falls inside one pair's times
    // rather than in the gap between two.
    let light = vec![
        fixed("qft5_k3", &qft5, &depolarize(&qft5, 3, GENERATOR_SEED ^ 4)),
        fixed("qft4_k3", &qft4, &depolarize(&qft4, 3, GENERATOR_SEED ^ 5)),
        fixed("bv5_k6", &bv5, &depolarize(&bv5, 6, GENERATOR_SEED + 6)),
        fixed("qft3_k4", &qft3, &depolarize(&qft3, 4, GENERATOR_SEED ^ 3)),
        fixed("qft3x8", &tile(&qft3, 8), &tile(&qft3_block, 8)),
    ];
    let qv6x4 = tile(&quantum_volume(6, 5, GENERATOR_SEED), 4);
    let heavy = fixed(
        "qv6x4_k8",
        &qv6x4,
        &depolarize(&qv6x4, 8, GENERATOR_SEED + 8),
    );
    let strengths = vec![0.999, 0.998, 0.997, 0.996, 0.995, 0.99, 0.98, 0.97];
    let mut cycle: Vec<usize> = (0..LIGHT_PER_HEAVY).map(|i| i % light.len()).collect();
    Rng::new(seed).shuffle(&mut cycle);
    SweepInputs {
        light,
        heavy,
        strengths,
        cycle,
    }
}

/// One `qaec serve` request, as the line a client sends (the `id` is
/// appended per send).
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    Check { epsilon: f64 },
    SweepEpsilon { epsilons: Vec<f64> },
    SweepNoise { epsilon: f64, strengths: Vec<f64> },
}

#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub pair: Pair,
    pub query: Query,
}

impl Request {
    /// A check of `pair` at its own threshold.
    pub fn check(pair: Pair) -> Request {
        Request {
            query: Query::Check {
                epsilon: pair.epsilon,
            },
            pair,
        }
    }

    /// The request line minus its closing brace, so a client can append
    /// `, "id": n}`.
    pub fn line_prefix(&self) -> String {
        use crate::json::quote;
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
            format!("[{}]", items.join(", "))
        };
        let (op, args) = match &self.query {
            Query::Check { epsilon } => ("check", format!("\"epsilon\": {epsilon:?}")),
            Query::SweepEpsilon { epsilons } => {
                ("sweep_epsilon", format!("\"epsilons\": {}", list(epsilons)))
            }
            Query::SweepNoise { epsilon, strengths } => (
                "sweep_noise",
                format!("\"epsilon\": {epsilon:?}, \"noise\": {}", list(strengths)),
            ),
        };
        format!(
            "{{\"v\": 1, \"op\": \"{op}\", \"ideal\": {}, \"noisy\": {}, {args}",
            quote(&self.pair.ideal),
            quote(&self.pair.noisy)
        )
    }
}

/// `serve_stream`: a hot set of checks, a pool of fresh pairs, a few
/// sweep pairs, and each client's request order.
pub struct ServeInputs {
    /// Every distinct request: hot checks first, then sweeps, then the
    /// fresh checks.
    pub requests: Vec<Request>,
    /// How many leading `requests` are fixed (hot set and sweeps); the
    /// rest are fresh pairs.
    pub fixed: usize,
    /// Per client, indices into `requests` in send order.
    pub scripts: Vec<Vec<usize>>,
}

/// Hot-set size: a few dozen pairs.
pub const HOT_PAIRS: usize = 32;
/// Requests each client has scripted — more than a run can send.
pub const SCRIPT_LEN: usize = 30_000;

/// Draws pairs that are all distinct: the server caches by pair, so a
/// repeated pair asked at another ε would be answered from the first
/// query's cached bounds rather than as a cold check would answer it.
struct Distinct {
    seen: std::collections::HashSet<(String, String)>,
}

impl Distinct {
    /// `ideal` with `sites` seeded faults, re-drawn until the pair is new.
    fn pair(&mut self, label: String, ideal: &Circuit, sites: usize, rng: &mut Rng) -> Pair {
        loop {
            let noisy = with_faults(ideal, sites, rng);
            let drawn = pair(label.clone(), ideal, &noisy, rng);
            if self.seen.insert((drawn.ideal.clone(), drawn.noisy.clone())) {
                return drawn;
            }
        }
    }
}

pub fn serve_stream(seed: u64, clients: usize) -> ServeInputs {
    let mut rng = Rng::new(seed);
    let mut distinct = Distinct {
        seen: Default::default(),
    };
    let mut requests = Vec::new();
    let check = Request::check;
    // The hot set's shapes are fixed, so its cost is the same for every
    // seed; the seed draws the random circuits, the noise and ε.
    for i in 0..HOT_PAIRS {
        let size = i / 8;
        let (label, ideal, sites) = match i % 8 {
            0 => (
                format!("qft{}", 3 + size % 2),
                qft(3 + size % 2, QftStyle::DecomposedNoSwaps),
                2 + size % 3,
            ),
            1 => {
                let circuit = quantum_volume(3, 3 + size % 2, rng.next_u64());
                (format!("qv_n3d{}", 3 + size % 2), circuit, 1 + size % 2)
            }
            2 => (
                format!("bv{}", 3 + size),
                bernstein_vazirani_all_ones(3 + size),
                2 + size % 3,
            ),
            3 => {
                let circuit = randomized_benchmarking(2, 4 + 2 * size, rng.next_u64());
                (format!("rb{}", 4 + 2 * size), circuit, 2 + size % 2)
            }
            4 => (format!("ghz{}", 3 + size), ghz(3 + size), 1 + size % 3),
            5 | 6 => {
                let (n, gates) = (3 + size % 2, 12 + 4 * size);
                let circuit = random_circuit(n, gates, rng.next_u64());
                (format!("rand{n}_{gates}"), circuit, 1 + size % 3)
            }
            // Wide and weakly coupled: `Auto` sends it to MPO.
            _ => ("ghz3x8".to_string(), tile(&ghz(3), 8), 8),
        };
        requests.push(check(distinct.pair(
            format!("{label}_k{sites}"),
            &ideal,
            sites,
            &mut rng,
        )));
    }
    // Sweeps go to pairs of their own. An ε-sweep can tighten a
    // session's cached bounds, so its pairs keep ≥3 sites and route to
    // the exact Algorithm II, whose cached answer is a point. Noise
    // sweeps are fixed instances at fixed strengths: they are the
    // stream's slowest requests, and placement and strengths decide
    // whether their lanes diverge.
    let sweep_start = requests.len();
    for n in [3, 4] {
        let ideal = qft(n, QftStyle::DecomposedNoSwaps);
        let mut fixed = Rng::new(GENERATOR_SEED ^ n as u64);
        let base = distinct.pair(format!("qft{n}_k3"), &ideal, 3, &mut fixed);
        requests.push(Request {
            query: Query::SweepNoise {
                epsilon: base.epsilon,
                strengths: vec![0.999, 0.99, 0.98, 0.97],
            },
            pair: base.clone(),
        });
        let epsilons = vec![base.epsilon * 0.25, base.epsilon, base.epsilon * 4.0];
        let ideal = quantum_volume(n, 3, rng.next_u64());
        requests.push(Request {
            query: Query::SweepEpsilon { epsilons },
            pair: distinct.pair(format!("qv_n{n}d3_k3"), &ideal, 3, &mut rng),
        });
    }
    let fresh_start = requests.len();
    let mut scripts = vec![Vec::with_capacity(SCRIPT_LEN); clients];
    for script in &mut scripts {
        for _ in 0..SCRIPT_LEN {
            let roll = rng.unit();
            let index = if roll < 0.75 {
                rng.range(0, sweep_start - 1)
            } else if roll < 0.95 {
                // A fresh pair: compiled on arrival, never asked again.
                let (n, gates) = (rng.range(3, 4), rng.range(10, 20));
                let ideal = random_circuit(n, gates, rng.next_u64());
                let label = format!("fresh{}", requests.len() - fresh_start);
                let sites = rng.range(1, 3);
                requests.push(check(distinct.pair(label, &ideal, sites, &mut rng)));
                requests.len() - 1
            } else {
                rng.range(sweep_start, fresh_start - 1)
            };
            script.push(index);
        }
    }
    ServeInputs {
        requests,
        fixed: fresh_start,
        scripts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaec_circuit::hash::pair_hash;
    use std::collections::BTreeSet;

    fn hashes(pairs: &[Pair]) -> BTreeSet<u64> {
        pairs
            .iter()
            .map(|p| {
                let ideal = qasm::parse(&p.ideal).expect("generated QASM parses");
                let noisy = qasm::parse(&p.noisy).expect("generated QASM parses");
                pair_hash(&ideal, &noisy)
            })
            .collect()
    }

    #[test]
    fn a_seed_fixes_every_input() {
        assert_eq!(check_suite(7), check_suite(7));
        let (a, b) = (noise_sweep(7), noise_sweep(7));
        assert_eq!(
            (&a.light, &a.heavy, &a.strengths, &a.cycle),
            (&b.light, &b.heavy, &b.strengths, &b.cycle)
        );
        assert_ne!(a.cycle, noise_sweep(8).cycle);
        let (a, b) = (serve_stream(7, 2), serve_stream(7, 2));
        assert_eq!((&a.requests, &a.scripts), (&b.requests, &b.scripts));
    }

    #[test]
    fn a_seed_fixes_the_pair_hash_set() {
        let suite = check_suite(11);
        let set = hashes(&suite);
        assert_eq!(set.len(), suite.len(), "every pair is distinct");
        assert_eq!(set, hashes(&check_suite(11)));
        assert_ne!(
            set,
            hashes(&check_suite(12)),
            "another seed draws other inputs"
        );
    }

    #[test]
    fn about_half_the_thresholds_expect_equivalence() {
        let suite = check_suite(3);
        let equivalent = suite
            .iter()
            .filter(|p| {
                let k = qasm::parse(&p.noisy).unwrap().noise_count() as i32;
                p.epsilon > 1.0 - NOISE_P.powi(k)
            })
            .count();
        assert!(
            (5..=20).contains(&equivalent),
            "{equivalent} of {}",
            suite.len()
        );
    }

    #[test]
    fn request_lines_are_json() {
        let inputs = serve_stream(5, 2);
        for request in inputs.requests.iter().take(HOT_PAIRS + 5) {
            let line = format!("{}, \"id\": 1}}", request.line_prefix());
            let value = crate::json::parse(&line).expect("request line parses");
            let qasm_text = match value.get("noisy") {
                Some(crate::json::Value::Str(s)) => s.clone(),
                other => panic!("noisy field: {other:?}"),
            };
            assert_eq!(qasm_text, request.pair.noisy);
        }
        assert!(inputs.scripts.iter().all(|s| s.len() == SCRIPT_LEN));
    }
}
