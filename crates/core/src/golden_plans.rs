//! Golden contraction plans: a digest ([`ContractionPlan::digest`]) of
//! every plan compilation emits for the 21 Table I rows and two tiled
//! pairs, under Algorithms I and II and both elimination heuristics.
//!
//! Plans are a pure function of the network and the strategy, and the
//! checker's fidelities, verdicts, `max_nodes` and work counters all
//! follow from the plan. A planner change that alters any step, slot or
//! `eliminate` list fails here before it can move a number downstream.
//! The tiled pairs' networks split into components, so their plans are
//! the stitched ones.
//!
//! [`ContractionPlan::digest`]: qaec_tensornet::ContractionPlan::digest

use crate::alg1::Alg1Artifacts;
use crate::alg2::Alg2Artifacts;
use crate::options::CheckOptions;
use qaec_circuit::generators::{
    bernstein_vazirani_all_ones, ghz, grover_dac21, mod_mul_7x1_mod15, qft, quantum_volume,
    randomized_benchmarking, tile, QftStyle,
};
use qaec_circuit::noise_insertion::insert_random_noise;
use qaec_circuit::{Circuit, NoiseChannel};
use qaec_tensornet::Strategy;

/// The Table I seed: generator instances and noise placement.
const SEED: u64 = 0xDAC2021;

/// `(label, digest)` of every plan [`digests`] computes, in its order.
const GOLDEN: &[(&str, u64)] = &[
    ("rb/alg1/min_fill", 0xbabd4a61c42ab300),
    ("rb/alg2/min_fill", 0x1cc6c86b990e9b6d),
    ("rb/alg1/min_degree", 0x4733c3669e2f4660),
    ("rb/alg2/min_degree", 0x43f82fa61ef47be7),
    ("qft2/alg1/min_fill", 0x42c265a8acece500),
    ("qft2/alg2/min_fill", 0xc69672b5204397e1),
    ("qft2/alg1/min_degree", 0x160a1672d2ccd820),
    ("qft2/alg2/min_degree", 0xc81a755b1b762ac1),
    ("grover/alg1/min_fill", 0x6606915bc2b6dc10),
    ("grover/alg2/min_fill", 0x7b221ca8e0d474c8),
    ("grover/alg1/min_degree", 0x40ec822066ef1818),
    ("grover/alg2/min_degree", 0xaa69fcbf593f0004),
    ("qft3/alg1/min_fill", 0x4db31101d7a48940),
    ("qft3/alg2/min_fill", 0xe493c4ed1534f65c),
    ("qft3/alg1/min_degree", 0x1eff5860e05b25e0),
    ("qft3/alg2/min_degree", 0x76769cfa193a1e3e),
    ("qv_n3d5/alg1/min_fill", 0x7a1058232c8280ee),
    ("qv_n3d5/alg2/min_fill", 0x7bcf21929175b5e1),
    ("qv_n3d5/alg1/min_degree", 0x8b29cc37729b06ae),
    ("qv_n3d5/alg2/min_degree", 0x7d23e4d553a79b51),
    ("bv4/alg1/min_fill", 0x9cee69f3efe8fc46),
    ("bv4/alg2/min_fill", 0x5ac6295207b85938),
    ("bv4/alg1/min_degree", 0x61d09f95b4551d26),
    ("bv4/alg2/min_degree", 0xe1b46ac57a340298),
    ("7x1mod15/alg1/min_fill", 0x02152df2cb52a166),
    ("7x1mod15/alg2/min_fill", 0x3b6136f75c885f46),
    ("7x1mod15/alg1/min_degree", 0x21020e7cb14e39cc),
    ("7x1mod15/alg2/min_degree", 0x52e401870522878a),
    ("bv5/alg1/min_fill", 0x98712427a5157b8b),
    ("bv5/alg2/min_fill", 0x7997ce62b9c941c3),
    ("bv5/alg1/min_degree", 0xc75e1ee316d7868b),
    ("bv5/alg2/min_degree", 0xf14c85d1bcfb33a7),
    ("qft5/alg1/min_fill", 0xaf90cc76fcc145e6),
    ("qft5/alg2/min_fill", 0x65fb8aa606758122),
    ("qft5/alg1/min_degree", 0x15f192a41ddf58c4),
    ("qft5/alg2/min_degree", 0xe27fc917218ffcc8),
    ("qv_n5d5/alg1/min_fill", 0x751acd7b0f2c3c76),
    ("qv_n5d5/alg2/min_fill", 0x20d3971be7e8d1a1),
    ("qv_n5d5/alg1/min_degree", 0x65a16b4dccaed400),
    ("qv_n5d5/alg2/min_degree", 0x13e4f112e300a34b),
    ("bv6/alg1/min_fill", 0xe6d0eb14e6bacbc1),
    ("bv6/alg2/min_fill", 0x18c9181dfc910fa7),
    ("bv6/alg1/min_degree", 0x158d9b035ea602e1),
    ("bv6/alg2/min_degree", 0x2ea89d77a69fb405),
    ("qv_n6d5/alg1/min_fill", 0xd8ea080b7c074742),
    ("qv_n6d5/alg2/min_fill", 0xf2c4232f7b74ff83),
    ("qv_n6d5/alg1/min_degree", 0xabb07493d57bea96),
    ("qv_n6d5/alg2/min_degree", 0xfd64682f122675f9),
    ("qft7/alg1/min_fill", 0x7dcb67627fa2bcb0),
    ("qft7/alg2/min_fill", 0x03761bc2ccd348df),
    ("qft7/alg1/min_degree", 0x47577336fcf8431e),
    ("qft7/alg2/min_degree", 0x4d6efd6010996e7d),
    ("qv_n7d5/alg1/min_fill", 0xebe3c0d53fea10c2),
    ("qv_n7d5/alg2/min_fill", 0x440bc39260db6a31),
    ("qv_n7d5/alg1/min_degree", 0x27b8f6e12b42948e),
    ("qv_n7d5/alg2/min_degree", 0xdb402762ffa70f73),
    ("bv9/alg1/min_fill", 0xca48fef6a98dc9f3),
    ("bv9/alg2/min_fill", 0x72ee4289bf498ce5),
    ("bv9/alg1/min_degree", 0xa6ece97221362173),
    ("bv9/alg2/min_degree", 0x5a22a1eb40fb2065),
    ("qv_n9d5/alg1/min_fill", 0x89fd832dc35ffcc0),
    ("qv_n9d5/alg2/min_fill", 0x178d223cda9b4739),
    ("qv_n9d5/alg1/min_degree", 0xd433a94fbdec90de),
    ("qv_n9d5/alg2/min_degree", 0xb08eada974f4eba3),
    ("qft9/alg1/min_fill", 0x74bdd302fe5968ba),
    ("qft9/alg2/min_fill", 0xdd4b1362eb41c295),
    ("qft9/alg1/min_degree", 0x7fe13ab3d579831c),
    ("qft9/alg2/min_degree", 0x32b61f538061f493),
    ("qft10/alg1/min_fill", 0x00659da279f1a012),
    ("qft10/alg2/min_fill", 0x1c42f0786c3ad30b),
    ("qft10/alg1/min_degree", 0x07e9c0e95142737c),
    ("qft10/alg2/min_degree", 0x708fdeb04ba090a3),
    ("bv13/alg1/min_fill", 0x077fb601085eff6b),
    ("bv13/alg2/min_fill", 0xaf72ea93ec3e3e14),
    ("bv13/alg1/min_degree", 0xb7c18f90d433d38b),
    ("bv13/alg2/min_degree", 0x8f9775c3f0ff68dc),
    ("bv14/alg1/min_fill", 0x9c117ae93e759201),
    ("bv14/alg2/min_fill", 0xdf5e067afc964d34),
    ("bv14/alg1/min_degree", 0x97141263461a82c1),
    ("bv14/alg2/min_degree", 0xb313735bdb2e11cc),
    ("bv16/alg1/min_fill", 0x1e6978a9e1cc1d02),
    ("bv16/alg2/min_fill", 0x6f32de76c759d309),
    ("bv16/alg1/min_degree", 0x46c85624484d0fa2),
    ("bv16/alg2/min_degree", 0x93366bdcdcdbc52f),
    ("qft3x8/alg1/min_fill", 0x991ad6a0dc20970c),
    ("qft3x8/alg2/min_fill", 0xfb3a65c607f173f4),
    ("qft3x8/alg1/min_degree", 0xf63407a03c88abb4),
    ("qft3x8/alg2/min_degree", 0xe1104ee96afc6e78),
    ("ghz4x6/alg1/min_fill", 0xab9e4c49d12d9304),
    ("ghz4x6/alg2/min_fill", 0xd3bc47bab474c3f1),
    ("ghz4x6/alg1/min_degree", 0x0c0c9ac4cbf4e504),
    ("ghz4x6/alg2/min_degree", 0xe5fcffdaede66331),
];

/// `ideal` with `sites` depolarizing faults (`p = 0.999`) at seeded
/// positions.
fn faulty(ideal: &Circuit, sites: usize, seed: u64) -> Circuit {
    insert_random_noise(ideal, &NoiseChannel::Depolarizing { p: 0.999 }, sites, seed)
}

/// The Table I rows (the bench harness's noise placement), then
/// `tile(qft3 + 1 fault, 8)` and `tile(ghz4 + 1 fault, 6)`.
pub(crate) fn pairs() -> Vec<(String, Circuit, Circuit)> {
    let rows: Vec<(&str, Circuit, usize)> = vec![
        ("rb", randomized_benchmarking(2, 7, SEED), 6),
        ("qft2", qft(2, QftStyle::DecomposedNoSwaps), 2),
        ("grover", grover_dac21(), 4),
        ("qft3", qft(3, QftStyle::DecomposedNoSwaps), 7),
        ("qv_n3d5", quantum_volume(3, 5, SEED), 2),
        ("bv4", bernstein_vazirani_all_ones(4), 7),
        ("7x1mod15", mod_mul_7x1_mod15(), 3),
        ("bv5", bernstein_vazirani_all_ones(5), 6),
        ("qft5", qft(5, QftStyle::DecomposedNoSwaps), 3),
        ("qv_n5d5", quantum_volume(5, 5, SEED), 3),
        ("bv6", bernstein_vazirani_all_ones(6), 14),
        ("qv_n6d5", quantum_volume(6, 5, SEED), 1),
        ("qft7", qft(7, QftStyle::DecomposedNoSwaps), 6),
        ("qv_n7d5", quantum_volume(7, 5, SEED), 2),
        ("bv9", bernstein_vazirani_all_ones(9), 6),
        ("qv_n9d5", quantum_volume(9, 5, SEED), 3),
        ("qft9", qft(9, QftStyle::DecomposedNoSwaps), 2),
        ("qft10", qft(10, QftStyle::DecomposedNoSwaps), 2),
        ("bv13", bernstein_vazirani_all_ones(13), 4),
        ("bv14", bernstein_vazirani_all_ones(14), 4),
        ("bv16", bernstein_vazirani_all_ones(16), 9),
    ];
    let mut pairs: Vec<(String, Circuit, Circuit)> = rows
        .into_iter()
        .map(|(name, ideal, sites)| {
            let noisy = faulty(&ideal, sites, SEED ^ name.len() as u64);
            (name.to_string(), ideal, noisy)
        })
        .collect();
    for (name, block, copies) in [
        ("qft3", qft(3, QftStyle::DecomposedNoSwaps), 8),
        ("ghz4", ghz(4), 6),
    ] {
        let noisy = faulty(&block, 1, SEED);
        pairs.push((
            format!("{name}x{copies}"),
            tile(&block, copies),
            tile(&noisy, copies),
        ));
    }
    pairs
}

/// The digest of every compiled plan, labelled `row/algorithm/strategy`.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, ideal, noisy) in pairs() {
        for (label, strategy) in [
            ("min_fill", Strategy::MinFill),
            ("min_degree", Strategy::MinDegree),
        ] {
            let options = CheckOptions {
                strategy,
                threads: 1,
                ..CheckOptions::default()
            };
            let alg1 = Alg1Artifacts::compile(&ideal, &noisy, &options).plan;
            out.push((format!("{name}/alg1/{label}"), alg1.digest()));
            let alg2 = Alg2Artifacts::compile(&ideal, &noisy, &options).plan;
            out.push((format!("{name}/alg2/{label}"), alg2.digest()));
        }
    }
    out
}

#[test]
fn compiled_plans_match_the_golden_digests() {
    let actual = digests();
    let changed: Vec<&str> = actual
        .iter()
        .zip(GOLDEN)
        .filter(|((name, digest), (golden_name, golden))| name != golden_name || digest != golden)
        .map(|((name, _), _)| name.as_str())
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", 0x{digest:016x}),\n"))
        .collect();
    assert!(
        changed.is_empty() && actual.len() == GOLDEN.len(),
        "plans changed for {changed:?} ({} plans, {} golden); the digests now are:\n{table}",
        actual.len(),
        GOLDEN.len()
    );
}
