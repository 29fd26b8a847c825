//! The compile-once session API: build a [`Checker`], compile it once,
//! query the resulting [`CompiledCheck`] many times.
//!
//! The paper's whole evaluation is sweep-shaped — Table I re-checks one
//! circuit pair across noise strengths, Fig. 7 across ε — and the
//! north-star workload is the same shape at service scale: the *pair* is
//! the expensive part, the *query* is cheap. The one-shot free functions
//! ([`crate::check_equivalence`], [`crate::jamiolkowski_fidelity`])
//! re-validate, rebuild the miter or doubled network, re-run min-fill
//! planning and allocate a fresh store on every call. A session splits
//! that:
//!
//! * [`Checker::compile`] performs validation, algorithm selection,
//!   §IV-C optimisation, miter/doubled-network construction, variable
//!   ordering and contraction planning **exactly once**;
//! * [`CompiledCheck`] answers queries against those artifacts:
//!   [`CompiledCheck::fidelity`] (cached after the first evaluation),
//!   [`CompiledCheck::verdict`] (free once cached bounds decide the new
//!   ε; Algorithm I re-runs only when they cannot),
//!   [`CompiledCheck::sweep_epsilon`], and
//!   [`CompiledCheck::sweep_noise`] — which re-weights the noise sites
//!   on the compiled plan instead of replanning.
//!
//! Each algorithm has one store. Algorithm I (and the Monte-Carlo
//! estimator) contracts every query on fresh private per-worker
//! managers. An Algorithm II session holds one warm [`SharedTddStore`]
//! for its whole life: its first noise sweep folds the noise-free part
//! of the doubled network into that store once, so every later point
//! contracts only the noise-dependent plan steps (see
//! [`crate::alg2`]'s fold). Under [`AlgorithmChoice::Auto`], a pair
//! that splits into several disjoint interaction components holds one
//! such Algorithm II session per distinct component and answers every
//! query as the exact product of the components' answers.
//!
//! Warm-store reuse is value-transparent: the shared store's value-pure
//! interning makes every contraction a pure function of its inputs, so a
//! query on a store warmed by earlier queries is **bit-identical** to
//! the same query on a fresh store — the reuse only saves re-interning
//! work. Per-query statistics are epoch-fenced
//! ([`SharedTddStore::reset_between_runs`]) so each report counts its
//! own work, not the session's history.
//!
//! The same quiescent boundaries (between queries and sweep points — no
//! diagram edges survive them but the fold's frontier) drive
//! **epoch-based store reclamation** ([`crate::StoreReclaimMode`], the
//! `store_reclaim` knob): the session swaps the warm store for
//! [`SharedTddStore::compact`] with the frontier as its roots — always
//! (`On`), past a size threshold (`Auto`, the default) or never
//! (`Off`) — bounding a long session's footprint without moving a
//! result bit.
//! [`CompiledCheck::warm_store_bytes`] reports the live footprint,
//! [`CompiledCheck::warm_store_peak_bytes`] the high-water mark across
//! swaps.
//!
//! The free functions remain as thin wrappers over a single-query
//! session, with identical results and error precedence.
//!
//! # Example
//!
//! ```
//! use qaec::{Checker, CheckOptions, Verdict};
//! use qaec_circuit::{Circuit, NoiseChannel};
//!
//! // The paper's Example 3 pair: F_J = p².
//! let p = 0.95;
//! let mut noisy = Circuit::new(2);
//! noisy.h(0)
//!     .noise(NoiseChannel::BitFlip { p }, &[1])
//!     .cp(std::f64::consts::FRAC_PI_2, 1, 0)
//!     .noise(NoiseChannel::PhaseFlip { p }, &[0])
//!     .h(1)
//!     .swap(0, 1);
//! let mut check = Checker::new(&noisy.ideal(), &noisy)
//!     .options(CheckOptions::default())
//!     .compile()?;
//!
//! // Many queries, one compilation.
//! assert!((check.fidelity()? - p * p).abs() < 1e-9);
//! assert_eq!(check.verdict(0.1)?, Verdict::Equivalent);   // 0.9025 > 0.9
//! assert_eq!(check.verdict(0.05)?, Verdict::NotEquivalent);
//!
//! // An ε-sweep over the cached fidelity costs nothing more.
//! let points = check.sweep_epsilon(&[0.2, 0.1, 0.05, 0.01])?;
//! assert_eq!(points.len(), 4);
//! assert_eq!(points[0].verdict, Verdict::Equivalent);
//! # Ok::<(), qaec::QaecError>(())
//! ```

use crate::alg1::{Alg1Artifacts, Alg1Report};
use crate::alg2::{Alg2Artifacts, Alg2Fold, Alg2Report};
use crate::checker::{auto_choice, components};
use crate::error::QaecError;
use crate::options::{AlgorithmChoice, CheckOptions, StoreReclaimMode};
use crate::report::{AlgorithmUsed, EquivalenceReport, Verdict};
use crate::{validate, validate_epsilon};
use qaec_circuit::{Circuit, NoiseChannel, Operation};
use qaec_mpo::{MpoOptions, MpoOutcome, MpoPlan};
use qaec_tdd::{SharedTddStore, TddStats};
use std::sync::Arc;

use qaec_tdd::sync::Mutex;
use std::time::Duration;

/// A swappable handle to an Algorithm II session's warm shared store,
/// together with the fold whose frontier edges live in it.
///
/// Epoch-based reclamation retires the store for a compact successor
/// ([`SharedTddStore::compact`], with the fold's frontier as its roots)
/// at *quiescent* boundaries — between queries and sweep points, when
/// no contraction holds ids into the arenas. Every holder of the cell
/// (the session, its clones, the service cache's sizing path) observes
/// the swap through this shared handle, so the retired store's arenas
/// free as soon as the last in-flight reference drops. The store and
/// its fold always swap together: a fold never outlives the generation
/// it points into.
///
/// Cloning shares the cell — exactly the sharing the session's `Clone`
/// had when it cloned the store `Arc` directly.
#[derive(Clone, Debug)]
pub(crate) struct StoreCell(Arc<Mutex<Warm>>);

/// One store generation and the fold built on it, if any.
#[derive(Clone, Debug)]
struct Warm {
    store: Arc<SharedTddStore>,
    fold: Option<Arc<Alg2Fold>>,
}

impl StoreCell {
    fn new(store: Arc<SharedTddStore>) -> StoreCell {
        StoreCell(Arc::new(Mutex::new(Warm { store, fold: None })))
    }

    /// The current store (an owned handle — safe across a concurrent
    /// swap; the handle keeps the generation it observed alive).
    pub(crate) fn get(&self) -> Arc<SharedTddStore> {
        self.warm().store
    }

    fn warm(&self) -> Warm {
        self.0.lock().expect("store cell poisoned").clone()
    }

    /// Keeps `fold`, built on `store`, beside it — unless reclamation
    /// has already retired that generation.
    fn keep_fold(&self, store: &Arc<SharedTddStore>, fold: Arc<Alg2Fold>) {
        let mut warm = self.0.lock().expect("store cell poisoned");
        if Arc::ptr_eq(&warm.store, store) {
            warm.fold = Some(fold);
        }
    }

    /// The quiescent-boundary reclamation hook, called between queries
    /// and sweep points, when no contraction holds ids into the store:
    /// when `mode` says so, swaps the store for a compact successor that
    /// keeps only the fold's frontier, remapped. Value-transparent
    /// (interning is pure, no engine value depends on an id, and the
    /// frontier migrates bit-exactly), so results are bit-identical
    /// whether or when swaps happen.
    fn reclaim(&self, mode: StoreReclaimMode) {
        let Warm { store, fold } = self.warm();
        if !mode.should_reclaim(store.approx_data_bytes()) {
            return;
        }
        let roots = fold.as_ref().map_or(&[][..], |fold| fold.frontier());
        let (store, frontier) = store.compact(roots);
        let fold = fold.map(|fold| Arc::new(fold.remapped(frontier)));
        *self.0.lock().expect("store cell poisoned") = Warm { store, fold };
    }

    /// The summed current footprint and high-water mark of `cells`.
    pub(crate) fn footprint(cells: &[StoreCell]) -> (usize, usize) {
        let stores = cells.iter().map(StoreCell::get);
        stores.fold((0, 0), |(now, peak), s| {
            (now + s.bytes_used(), peak + s.peak_bytes_used())
        })
    }
}

/// The MPO tuning knobs of `options`, in the engine's own vocabulary.
fn mpo_options(options: &CheckOptions) -> MpoOptions {
    MpoOptions {
        svd_threshold: options.svd_threshold,
        max_bond: options.max_bond,
    }
}

/// Staged builder for a compiled equivalence check: name the circuit
/// pair, optionally set [`CheckOptions`], then [`Checker::compile`].
///
/// # Example
///
/// ```
/// use qaec::{AlgorithmChoice, Checker, CheckOptions};
/// use qaec_circuit::generators::{qft, QftStyle};
/// use qaec_circuit::noise_insertion::insert_random_noise;
/// use qaec_circuit::NoiseChannel;
///
/// let ideal = qft(3, QftStyle::DecomposedNoSwaps);
/// let noisy = insert_random_noise(&ideal, &NoiseChannel::Depolarizing { p: 0.999 }, 2, 7);
/// let mut check = Checker::new(&ideal, &noisy)
///     .options(CheckOptions {
///         algorithm: AlgorithmChoice::AlgorithmII,
///         ..CheckOptions::default()
///     })
///     .compile()?;
/// assert!(check.fidelity()? > 0.99);
/// # Ok::<(), qaec::QaecError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Checker {
    ideal: Circuit,
    noisy: Circuit,
    options: CheckOptions,
}

impl Checker {
    /// Names the circuit pair to check (nothing is validated or built
    /// until [`Checker::compile`]).
    pub fn new(ideal: &Circuit, noisy: &Circuit) -> Checker {
        Checker {
            ideal: ideal.clone(),
            noisy: noisy.clone(),
            options: CheckOptions::default(),
        }
    }

    /// Sets the checker options (algorithm, strategy, threads, store
    /// mode, …). Defaults to [`CheckOptions::default`].
    pub fn options(mut self, options: CheckOptions) -> Checker {
        self.options = options;
        self
    }

    /// Validates the pair and performs every input-independent stage
    /// exactly once: algorithm selection, §IV-C optimisation,
    /// miter/doubled-network construction, variable ordering and
    /// contraction planning (component-parallel on `options.threads`
    /// workers). The returned [`CompiledCheck`] answers many queries
    /// against these artifacts.
    ///
    /// # Errors
    ///
    /// [`QaecError::WidthMismatch`] or [`QaecError::IdealNotUnitary`] —
    /// the same validation, in the same precedence, as the one-shot
    /// functions.
    pub fn compile(self) -> Result<CompiledCheck, QaecError> {
        validate(&self.ideal, &self.noisy, None)?;
        Ok(CompiledCheck::compile_prevalidated(
            &self.ideal,
            &self.noisy,
            self.options,
        ))
    }
}

/// The per-algorithm compiled artifacts behind a [`CompiledCheck`].
#[derive(Clone, Debug)]
enum Backend {
    Alg1(Alg1Artifacts),
    /// The doubled network and the session's warm shared store, reused
    /// across every query and sweep point: later queries hash-cons
    /// against everything earlier ones interned. Held through a
    /// swappable cell so `options.store_reclaim` can retire the store
    /// for a compact successor at quiescent boundaries.
    Alg2(Alg2Artifacts, StoreCell),
    /// A forced Algorithm III session's compiled MPO program.
    Mpo(Arc<MpoPlan>),
    /// An `Auto` pair that splits into several interaction components.
    Product(Product),
}

/// An `Auto` session over a pair of several interaction components
/// ([`components`]): the miter is a tensor product over them, so `F_J`,
/// at the compiled channels or at any sweep point, is exactly the
/// product of the components' `F_J`. Each distinct component compiles
/// once, on Algorithm II because its sweep points fold.
#[derive(Clone, Debug)]
struct Product {
    /// The whole pair's noise channels, in site order.
    channels: Vec<NoiseChannel>,
    /// The distinct components, in the order of their first copy.
    parts: Vec<Part>,
}

/// One distinct component: its session, restricted to its own width
/// (qubits renumbered in ascending order), and for each copy the whole
/// pair's indices of the copy's noise sites, in the session's site order.
#[derive(Clone, Debug)]
struct Part {
    session: CompiledCheck,
    copies: Vec<Vec<usize>>,
}

impl Product {
    /// Compiles each distinct restriction of the pair to a component
    /// once. Restrictions must be equal instruction for instruction to
    /// share a part, so that copies share a site numbering.
    fn compile(
        ideal: &Circuit,
        noisy: &Circuit,
        components: &[Vec<usize>],
        options: &CheckOptions,
    ) -> Product {
        let n = noisy.n_qubits();
        let (mut component, mut local) = (vec![0; n], vec![0; n]);
        for (c, qubits) in components.iter().enumerate() {
            for (i, &q) in qubits.iter().enumerate() {
                (component[q], local[q]) = (c, i);
            }
        }
        let (mut sites, mut channels) = (vec![Vec::new(); components.len()], Vec::new());
        for inst in noisy.iter() {
            if let Operation::Noise(channel) = &inst.op {
                sites[component[inst.qubits[0]]].push(channels.len());
                channels.push(channel.clone());
            }
        }
        let restrict = |circuit: &Circuit, c: usize| {
            let mut out = Circuit::new(components[c].len());
            for inst in circuit.iter().filter(|inst| component[inst.qubits[0]] == c) {
                let qubits: Vec<usize> = inst.qubits.iter().map(|&q| local[q]).collect();
                match &inst.op {
                    Operation::Gate(gate) => out.gate(*gate, &qubits),
                    Operation::Noise(channel) => out.noise(channel.clone(), &qubits),
                };
            }
            out
        };
        let forced = CheckOptions {
            algorithm: AlgorithmChoice::AlgorithmII,
            ..options.clone()
        };
        let mut parts: Vec<((Circuit, Circuit), Part)> = Vec::new();
        for (c, copy) in sites.into_iter().enumerate() {
            let pair = (restrict(ideal, c), restrict(noisy, c));
            match parts.iter_mut().find(|(seen, _)| *seen == pair) {
                Some((_, part)) => part.copies.push(copy),
                None => {
                    let session =
                        CompiledCheck::compile_prevalidated(&pair.0, &pair.1, forced.clone());
                    let copies = vec![copy];
                    parts.push((pair, Part { session, copies }));
                }
            }
        }
        let parts = parts.into_iter().map(|(_, part)| part).collect();
        Product { channels, parts }
    }

    /// The exact `F_J`, multiplied part by part and copy by copy. Times
    /// and statistics add up, footprints too: the part stores coexist.
    fn fidelity(&mut self) -> Result<Knowledge, QaecError> {
        let mut product = Knowledge::point(1.0, 0, Duration::ZERO, TddStats::default());
        for part in &mut self.parts {
            let f = part.session.fidelity()?;
            let run = part.session.knowledge.as_ref().expect("kept by fidelity()");
            for _ in &part.copies {
                product.lower *= f;
            }
            product.max_nodes = product.max_nodes.max(run.max_nodes);
            product.elapsed += run.elapsed;
            product.stats.merge_disjoint(&run.stats);
        }
        product.upper = product.lower;
        Ok(product)
    }

    /// A noise sweep: each part sweeps the distinct channel vectors its
    /// copies take across all points, once each, and every point
    /// multiplies its copies' values in [`Product::fidelity`]'s order. A
    /// run's time and statistics go to the first point that uses it.
    fn sweep(
        &self,
        epsilon: f64,
        points: &[Vec<NoiseChannel>],
    ) -> Result<Vec<SweepPoint>, QaecError> {
        let mut out: Vec<SweepPoint> = points
            .iter()
            .map(|_| SweepPoint {
                fidelity: 1.0,
                verdict: Verdict::NotEquivalent,
                max_nodes: 0,
                elapsed: Duration::ZERO,
                stats: TddStats::default(),
            })
            .collect();
        for part in &self.parts {
            let (mut runs, mut uses) = (Vec::new(), Vec::new());
            for (point, channels) in points.iter().enumerate() {
                for copy in &part.copies {
                    let run: Vec<NoiseChannel> =
                        copy.iter().map(|&s| channels[s].clone()).collect();
                    let index = runs.iter().position(|seen| *seen == run);
                    uses.push((point, index.unwrap_or(runs.len())));
                    if index.is_none() {
                        runs.push(run);
                    }
                }
            }
            let results = part.session.sweep_noise_prevalidated(epsilon, &runs)?;
            // Per point, this part's runs share one store: merge, then
            // add the part's footprint to the other parts'.
            let mut charged = vec![false; results.len()];
            let mut stats = vec![TddStats::default(); points.len()];
            for (point, index) in uses {
                let run = &results[index];
                out[point].fidelity *= run.fidelity;
                out[point].max_nodes = out[point].max_nodes.max(run.max_nodes);
                if !std::mem::replace(&mut charged[index], true) {
                    out[point].elapsed += run.elapsed;
                    stats[point].merge(&run.stats);
                }
            }
            for (point, stats) in out.iter_mut().zip(&stats) {
                point.stats.merge_disjoint(stats);
            }
        }
        for point in &mut out {
            point.verdict = Verdict::decide(point.fidelity, epsilon);
        }
        Ok(out)
    }
}

/// The tightest proven fidelity interval so far, with the evidence of
/// the run that established it (for cache-served reports).
#[derive(Clone, Debug)]
struct Knowledge {
    lower: f64,
    upper: f64,
    /// The MPO midpoint estimate, when Algorithm III established the
    /// interval — what [`CompiledCheck::fidelity`] returns for a forced
    /// approximate session.
    estimate: Option<f64>,
    terms_computed: usize,
    total_terms: usize,
    max_nodes: usize,
    elapsed: Duration,
    stats: TddStats,
    trunc_error: Option<f64>,
    bond_max: Option<usize>,
}

impl Knowledge {
    /// Whether the interval is a point (the exact fidelity is known).
    fn exact(&self) -> bool {
        self.upper <= self.lower
    }

    fn width(&self) -> f64 {
        (self.upper - self.lower).max(0.0)
    }

    /// Evidence of one exact collective evaluation (Algorithm II, or
    /// the product over components).
    fn point(fidelity: f64, max_nodes: usize, elapsed: Duration, stats: TddStats) -> Knowledge {
        Knowledge {
            lower: fidelity,
            upper: fidelity,
            estimate: None,
            terms_computed: 1,
            total_terms: 1,
            max_nodes,
            elapsed,
            stats,
            trunc_error: None,
            bond_max: None,
        }
    }

    fn from_alg1(report: &Alg1Report) -> Knowledge {
        Knowledge {
            lower: report.fidelity_lower,
            upper: report.fidelity_upper,
            estimate: None,
            terms_computed: report.terms_computed,
            total_terms: report.total_terms,
            max_nodes: report.max_nodes,
            elapsed: report.elapsed,
            stats: report.stats,
            trunc_error: None,
            bond_max: None,
        }
    }

    fn from_alg2(report: &Alg2Report) -> Knowledge {
        Knowledge::point(
            report.fidelity,
            report.max_nodes,
            report.elapsed,
            report.stats,
        )
    }

    /// Evidence of an Algorithm III run, interval and estimate alike.
    fn from_mpo(out: &MpoOutcome) -> Knowledge {
        Knowledge {
            lower: out.f_lo,
            upper: out.f_hi,
            estimate: Some(out.fidelity),
            terms_computed: 1,
            total_terms: 1,
            max_nodes: out.bond_max,
            elapsed: out.elapsed,
            stats: TddStats::default(),
            trunc_error: Some(out.trunc_error),
            bond_max: Some(out.bond_max),
        }
    }

    /// The report of a decision taken on this evidence.
    fn report(
        &self,
        algorithm: AlgorithmUsed,
        verdict: Verdict,
        epsilon: f64,
    ) -> EquivalenceReport {
        EquivalenceReport {
            verdict,
            fidelity_bounds: (self.lower, self.upper),
            epsilon,
            algorithm,
            terms_computed: self.terms_computed,
            total_terms: self.total_terms,
            max_nodes: self.max_nodes,
            elapsed: self.elapsed,
            stats: self.stats,
            trunc_error: self.trunc_error,
            bond_max: self.bond_max,
            cross_check: None,
        }
    }
}

/// One row of an ε-sweep ([`CompiledCheck::sweep_epsilon`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpsilonPoint {
    /// The threshold queried.
    pub epsilon: f64,
    /// The decision at this ε.
    pub verdict: Verdict,
    /// The proven fidelity interval the decision was taken on (a point
    /// once the exact fidelity is known).
    pub fidelity_bounds: (f64, f64),
}

/// One row of a noise sweep ([`CompiledCheck::sweep_noise`]). On a pair
/// of several interaction components, a component run that several
/// points share is timed and counted once, on the first of them.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// The Jamiolkowski fidelity at this noise point (exact — sweeps
    /// evaluate every term so the per-point value matches the one-shot
    /// [`crate::jamiolkowski_fidelity`] bit for bit).
    pub fidelity: f64,
    /// The ε-decision at this point.
    pub verdict: Verdict,
    /// Largest intermediate diagram, in nodes — the same count a cold
    /// one-shot check of the point's pair reports (an Algorithm II
    /// point counts the folded steps too).
    pub max_nodes: usize,
    /// Wall-clock time of this point's contraction (planning is paid
    /// once at compile time, not here). On Algorithm II, the point that
    /// builds the session's fold — the first point of its first noise
    /// sweep — includes building it.
    pub elapsed: Duration,
    /// Decision-diagram statistics of this point alone — epoch-fenced on
    /// the session's warm store, so warm reuse shows up as fewer
    /// `nodes_created`, not as double-counted history. The point that
    /// builds the Algorithm II fold includes the fold's work; later
    /// points count only their noise-dependent steps.
    pub stats: TddStats,
}

/// A compiled equivalence check: reusable artifacts (miter or doubled
/// network, variable order, contraction plan, and for Algorithm II a
/// warm store) answering many cheap queries. Build one with
/// [`Checker::compile`].
///
/// Queries are *incremental*: every run tightens a cached fidelity
/// interval, and any later query the interval already decides — a
/// repeated [`CompiledCheck::fidelity`], a [`CompiledCheck::verdict`] at
/// a new ε the bounds cover, a whole [`CompiledCheck::sweep_epsilon`]
/// after one exact evaluation — is answered without touching a diagram.
#[derive(Clone, Debug)]
pub struct CompiledCheck {
    options: CheckOptions,
    algorithm: AlgorithmUsed,
    backend: Backend,
    knowledge: Option<Knowledge>,
}

impl CompiledCheck {
    /// [`Checker::compile`] minus validation, for the one-shot wrappers
    /// that already validated (so they never validate twice).
    pub(crate) fn compile_prevalidated(
        ideal: &Circuit,
        noisy: &Circuit,
        options: CheckOptions,
    ) -> CompiledCheck {
        // `Auto` answers exactly: a pair that splits into several
        // interaction components is the product of its components (each
        // distinct one on Algorithm II), any other pair takes the exact
        // backend `auto_choice` picks.
        let components = match options.algorithm {
            AlgorithmChoice::Auto => components(ideal, noisy),
            _ => Vec::new(),
        };
        let algorithm = match options.algorithm {
            AlgorithmChoice::Auto if components.len() > 1 => AlgorithmUsed::AlgorithmII,
            AlgorithmChoice::Auto => auto_choice(noisy),
            AlgorithmChoice::AlgorithmI => AlgorithmUsed::AlgorithmI,
            AlgorithmChoice::AlgorithmII => AlgorithmUsed::AlgorithmII,
            AlgorithmChoice::Mpo => AlgorithmUsed::Mpo,
        };
        let backend = match algorithm {
            _ if components.len() > 1 => {
                Backend::Product(Product::compile(ideal, noisy, &components, &options))
            }
            AlgorithmUsed::AlgorithmI => {
                Backend::Alg1(Alg1Artifacts::compile(ideal, noisy, &options))
            }
            AlgorithmUsed::AlgorithmII => Backend::Alg2(
                Alg2Artifacts::compile(ideal, noisy, &options),
                StoreCell::new(SharedTddStore::new()),
            ),
            // The MPO engine works on dense site tensors: no
            // decision-diagram store.
            AlgorithmUsed::Mpo => Backend::Mpo(Arc::new(MpoPlan::compile(ideal, noisy))),
        };
        CompiledCheck {
            options,
            algorithm,
            backend,
            knowledge: None,
        }
    }

    /// Which algorithm the session compiled for (resolved from
    /// [`AlgorithmChoice::Auto`] at compile time).
    pub fn algorithm(&self) -> AlgorithmUsed {
        self.algorithm
    }

    /// The options the session was compiled with.
    pub fn options(&self) -> &CheckOptions {
        &self.options
    }

    /// The swappable cells of the session's Algorithm II stores (one per
    /// distinct component of a factorised session), for holders that must
    /// observe reclamation swaps instead of pinning one generation.
    pub(crate) fn warm_store_cells(&self) -> Vec<StoreCell> {
        match &self.backend {
            Backend::Alg2(_, cell) => vec![cell.clone()],
            Backend::Product(product) => product
                .parts
                .iter()
                .flat_map(|part| part.session.warm_store_cells())
                .collect(),
            Backend::Alg1(_) | Backend::Mpo(_) => Vec::new(),
        }
    }

    /// Bytes of backing storage held by the session's warm stores
    /// ([`SharedTddStore::bytes_used`], summed over a factorised
    /// session's components) — the footprint a byte-budgeted session
    /// cache accounts against. 0 for sessions without one (Algorithm I,
    /// whose per-query private arenas die with each query, and MPO).
    ///
    /// Steps down when `options.store_reclaim` retires a store for a
    /// compact successor at a quiescent boundary; with reclamation off
    /// the shared arenas are append-only and the number is monotone
    /// until the session drops. [`CompiledCheck::warm_store_peak_bytes`]
    /// keeps the high-water mark either way.
    pub fn warm_store_bytes(&self) -> usize {
        StoreCell::footprint(&self.warm_store_cells()).0
    }

    /// High-water mark of [`CompiledCheck::warm_store_bytes`] across the
    /// session's life, *including* every store generation reclamation
    /// has since retired ([`SharedTddStore::peak_bytes_used`] carries
    /// across successor swaps), summed over the session's stores.
    pub fn warm_store_peak_bytes(&self) -> usize {
        StoreCell::footprint(&self.warm_store_cells()).1
    }

    /// The compiled noise channels, in site order — the sites
    /// [`CompiledCheck::sweep_noise`] re-instantiates.
    pub fn noise_channels(&self) -> &[NoiseChannel] {
        match &self.backend {
            Backend::Alg1(a) => &a.template.channels,
            Backend::Alg2(a, _) => &a.channels,
            Backend::Mpo(plan) => plan.channels(),
            Backend::Product(product) => &product.channels,
        }
    }

    /// The exact Jamiolkowski fidelity `F_J(E, U)`, cached after the
    /// first evaluation (subject to `options.max_terms`, which — as in
    /// the one-shot path — returns the proven lower bound).
    ///
    /// Bit-identical to [`crate::jamiolkowski_fidelity`] on the same
    /// pair and options. Only a forced [`AlgorithmChoice::Mpo`] session
    /// returns an approximation: the MPO midpoint estimate, whose
    /// distance from the exact value is bounded by the reported
    /// truncation error.
    ///
    /// # Errors
    ///
    /// [`QaecError::Timeout`] if `options.deadline` expires.
    pub fn fidelity(&mut self) -> Result<f64, QaecError> {
        if let Some(k) = &self.knowledge {
            if k.exact() {
                return Ok(k.lower);
            }
            // A forced approximate session serves its cached estimate
            // rather than re-contracting.
            if let Some(estimate) = k.estimate {
                return Ok(estimate);
            }
        }
        let fresh = match &mut self.backend {
            Backend::Alg1(artifacts) => Knowledge::from_alg1(&artifacts.run(None, &self.options)?),
            Backend::Alg2(artifacts, cell) => {
                let report = artifacts.run(&cell.get(), &self.options)?;
                cell.reclaim(self.options.store_reclaim);
                Knowledge::from_alg2(&report)
            }
            Backend::Mpo(plan) => Knowledge::from_mpo(&plan.run(&mpo_options(&self.options))),
            Backend::Product(product) => product.fidelity()?,
        };
        let value = fresh.estimate.unwrap_or(fresh.lower);
        self.remember(fresh);
        Ok(value)
    }

    /// Decides ε-equivalence: `F_J > 1 − ε`?
    ///
    /// Costs nothing when the cached fidelity interval already decides
    /// this ε (always, once [`CompiledCheck::fidelity`] has run);
    /// otherwise Algorithm I re-runs with two-sided early termination at
    /// the new threshold (Algorithm II computes its single exact value
    /// once and every later verdict is free).
    ///
    /// Agrees with [`crate::check_equivalence`] on every input,
    /// boundary included ([`Verdict::decide`] is the single comparison
    /// both paths share).
    ///
    /// # Errors
    ///
    /// [`QaecError::InvalidEpsilon`] or [`QaecError::Timeout`].
    pub fn verdict(&mut self, epsilon: f64) -> Result<Verdict, QaecError> {
        validate_epsilon(epsilon)?;
        self.verdict_prevalidated(epsilon)
    }

    fn verdict_prevalidated(&mut self, epsilon: f64) -> Result<Verdict, QaecError> {
        Ok(self.check_prevalidated(epsilon)?.verdict)
    }

    /// The full ε-equivalence report (what [`crate::check_equivalence`]
    /// returns): verdict, proven bounds, term counts and statistics.
    ///
    /// When the cached interval decides this ε the report is served from
    /// the cache — its bounds, counts and statistics are those of the
    /// run that established the interval, and no diagram work happens.
    ///
    /// # Errors
    ///
    /// [`QaecError::InvalidEpsilon`] or [`QaecError::Timeout`].
    pub fn check(&mut self, epsilon: f64) -> Result<EquivalenceReport, QaecError> {
        validate_epsilon(epsilon)?;
        self.check_prevalidated(epsilon)
    }

    pub(crate) fn check_prevalidated(
        &mut self,
        epsilon: f64,
    ) -> Result<EquivalenceReport, QaecError> {
        if let Some(k) = &self.knowledge {
            if let Some(verdict) = Verdict::decide_bounds(k.lower, k.upper, epsilon) {
                return Ok(k.report(self.algorithm, verdict, epsilon));
            }
        }
        let (fresh, verdict) = match &self.backend {
            Backend::Alg1(artifacts) => {
                let report = artifacts.run(Some(epsilon), &self.options)?;
                // All terms evaluated without an early decision: compare
                // the exact value (the same single comparison the early
                // exit used on its bounds).
                let verdict = report
                    .verdict
                    .unwrap_or_else(|| Verdict::decide(report.fidelity_lower, epsilon));
                (Knowledge::from_alg1(&report), verdict)
            }
            Backend::Alg2(artifacts, cell) => {
                let report = artifacts.run(&cell.get(), &self.options)?;
                cell.reclaim(self.options.store_reclaim);
                let verdict = Verdict::decide(report.fidelity, epsilon);
                (Knowledge::from_alg2(&report), verdict)
            }
            // A forced Algorithm III session decides from its certified
            // interval, or reports that the interval straddles 1 − ε.
            Backend::Mpo(plan) => {
                let out = plan.run(&mpo_options(&self.options));
                let verdict = Verdict::decide_bounds(out.f_lo, out.f_hi, epsilon)
                    .unwrap_or(Verdict::Inconclusive);
                (Knowledge::from_mpo(&out), verdict)
            }
            // The exact product, cached: the cached branch above answers.
            Backend::Product(_) => {
                self.fidelity()?;
                return self.check_prevalidated(epsilon);
            }
        };
        let report = fresh.report(self.algorithm, verdict, epsilon);
        self.remember(fresh);
        Ok(report)
    }

    /// Decides every threshold in `epsilons` (any order), re-running
    /// Algorithm I only for thresholds the accumulated bounds cannot
    /// decide. After one exact fidelity evaluation the whole sweep is
    /// pure arithmetic.
    ///
    /// # Errors
    ///
    /// [`QaecError::InvalidEpsilon`] (checked for *every* threshold
    /// before any work) or [`QaecError::Timeout`].
    pub fn sweep_epsilon(&mut self, epsilons: &[f64]) -> Result<Vec<EpsilonPoint>, QaecError> {
        for &epsilon in epsilons {
            validate_epsilon(epsilon)?;
        }
        epsilons
            .iter()
            .map(|&epsilon| {
                let verdict = self.verdict_prevalidated(epsilon)?;
                let k = self.knowledge.as_ref().expect("verdict established bounds");
                Ok(EpsilonPoint {
                    epsilon,
                    verdict,
                    fidelity_bounds: (k.lower, k.upper),
                })
            })
            .collect()
    }

    /// Re-checks the compiled pair at each noise strength: every noise
    /// site's channel is replaced by the same channel at strength
    /// `strengths[i]` (via [`NoiseChannel::with_strength`]) and the
    /// point is evaluated **on the compiled plan** — only the noise-site
    /// weights change, and planning is not repeated. On Algorithm II the
    /// whole batch shares the session's warm store: the session's first
    /// noise sweep contracts the noise-free plan steps once (the fold)
    /// and every point runs only the steps that depend on a noise site.
    ///
    /// Every point's fidelity, verdict and `max_nodes` are bit-identical
    /// to a cold [`crate::jamiolkowski_fidelity`] /
    /// [`crate::check_equivalence`] call on the corresponding
    /// re-parameterised pair, at every thread count — the paper's
    /// Table I column, `N` points for one compilation.
    ///
    /// # Errors
    ///
    /// * [`QaecError::InvalidEpsilon`];
    /// * [`QaecError::NoiseSweepUnsupported`] if a compiled site has no
    ///   single scalar strength (Pauli / custom channels) or a strength
    ///   is outside its valid range — checked for every point before any
    ///   contraction runs;
    /// * [`QaecError::Timeout`].
    pub fn sweep_noise(
        &self,
        epsilon: f64,
        strengths: &[f64],
    ) -> Result<Vec<SweepPoint>, QaecError> {
        validate_epsilon(epsilon)?;
        let points = self.strength_points(strengths)?;
        self.sweep_noise_prevalidated(epsilon, &points)
    }

    /// ε-aware noise sweep: one verdict per strength, letting each point
    /// terminate as early as its backend allows. Algorithm I runs every
    /// point with genuine two-sided early exit at ε — high-mass terms
    /// accumulate first and the point stops the moment its bounds
    /// decide, without computing the exact fidelity. Algorithm II
    /// evaluates its single exact value per point (from the fold, like
    /// [`CompiledCheck::sweep_noise`]); its bounds collapse to a point,
    /// so each decision is immediate once the point's trace is known.
    ///
    /// Verdicts agree with [`CompiledCheck::sweep_noise`] on every
    /// point: the early exit only proves the same comparison cheaper.
    ///
    /// # Errors
    ///
    /// As [`CompiledCheck::sweep_noise`].
    pub fn sweep_noise_verdicts(
        &self,
        epsilon: f64,
        strengths: &[f64],
    ) -> Result<Vec<Verdict>, QaecError> {
        validate_epsilon(epsilon)?;
        let points = self.strength_points(strengths)?;
        self.validate_sweep_points(&points)?;
        match &self.backend {
            Backend::Alg1(artifacts) => points
                .iter()
                .map(|channels| {
                    let template = artifacts.template.with_channels(channels);
                    let report = artifacts.run_template(&template, Some(epsilon), &self.options)?;
                    Ok(report
                        .verdict
                        .unwrap_or_else(|| Verdict::decide(report.fidelity_lower, epsilon)))
                })
                .collect(),
            Backend::Alg2(..) | Backend::Mpo(_) | Backend::Product(_) => Ok(self
                .sweep_noise_prevalidated(epsilon, &points)?
                .into_iter()
                .map(|point| point.verdict)
                .collect()),
        }
    }

    /// Re-parameterises every compiled site at each strength — the
    /// shared first step of [`CompiledCheck::sweep_noise`] and
    /// [`CompiledCheck::sweep_noise_verdicts`].
    fn strength_points(&self, strengths: &[f64]) -> Result<Vec<Vec<NoiseChannel>>, QaecError> {
        let base = self.noise_channels();
        strengths
            .iter()
            .map(|&strength| {
                base.iter()
                    .enumerate()
                    .map(|(site, channel)| {
                        channel.with_strength(strength).ok_or_else(|| {
                            QaecError::NoiseSweepUnsupported {
                                reason: format!(
                                    "site {site} ({}) has no single scalar strength to sweep",
                                    channel.name()
                                ),
                            }
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// [`CompiledCheck::sweep_noise`] with explicit per-site channels
    /// per point — for sweeping multi-parameter channels, or different
    /// strengths per site. Each point must supply one channel per
    /// compiled site, with matching arity.
    ///
    /// # Errors
    ///
    /// As [`CompiledCheck::sweep_noise`]; mismatched site counts or
    /// arities are [`QaecError::NoiseSweepUnsupported`].
    pub fn sweep_noise_channels(
        &self,
        epsilon: f64,
        points: &[Vec<NoiseChannel>],
    ) -> Result<Vec<SweepPoint>, QaecError> {
        validate_epsilon(epsilon)?;
        self.sweep_noise_prevalidated(epsilon, points)
    }

    fn sweep_noise_prevalidated(
        &self,
        epsilon: f64,
        points: &[Vec<NoiseChannel>],
    ) -> Result<Vec<SweepPoint>, QaecError> {
        self.validate_sweep_points(points)?;
        match &self.backend {
            Backend::Alg1(artifacts) => points
                .iter()
                .map(|channels| self.alg1_point(artifacts, channels, epsilon))
                .collect(),
            Backend::Alg2(artifacts, cell) => points
                .iter()
                .map(|channels| self.alg2_point(artifacts, cell, channels, epsilon))
                .collect(),
            // A forced Algorithm III session sweeps on the compiled MPO
            // program: per-point midpoint estimates, with verdicts taken
            // on each point's certified interval — straddling points
            // surface as Inconclusive.
            Backend::Mpo(plan) => Ok(points
                .iter()
                .map(|channels| {
                    let out = plan.run_channels(&mpo_options(&self.options), channels);
                    SweepPoint {
                        fidelity: out.fidelity,
                        verdict: Verdict::decide_bounds(out.f_lo, out.f_hi, epsilon)
                            .unwrap_or(Verdict::Inconclusive),
                        max_nodes: out.bond_max,
                        elapsed: out.elapsed,
                        stats: TddStats::default(),
                    }
                })
                .collect()),
            Backend::Product(product) => product.sweep(epsilon, points),
        }
    }

    /// Validates a whole sweep batch before contracting anything, so a
    /// bad late point cannot waste the early ones.
    fn validate_sweep_points(&self, points: &[Vec<NoiseChannel>]) -> Result<(), QaecError> {
        let base = self.noise_channels();
        for (index, channels) in points.iter().enumerate() {
            if channels.len() != base.len() {
                return Err(QaecError::NoiseSweepUnsupported {
                    reason: format!(
                        "point {index} supplies {} channels for {} compiled sites",
                        channels.len(),
                        base.len()
                    ),
                });
            }
            for (site, (new, old)) in channels.iter().zip(base).enumerate() {
                if new.arity() != old.arity() {
                    return Err(QaecError::NoiseSweepUnsupported {
                        reason: format!(
                            "point {index}, site {site}: arity {} replaces arity {}",
                            new.arity(),
                            old.arity()
                        ),
                    });
                }
                new.validate()
                    .map_err(|e| QaecError::NoiseSweepUnsupported {
                        reason: format!("point {index}, site {site}: {e}"),
                    })?;
            }
        }
        Ok(())
    }

    fn alg1_point(
        &self,
        artifacts: &Alg1Artifacts,
        channels: &[NoiseChannel],
        epsilon: f64,
    ) -> Result<SweepPoint, QaecError> {
        let template = artifacts.template.with_channels(channels);
        let report = artifacts.run_template(&template, None, &self.options)?;
        Ok(SweepPoint {
            fidelity: report.fidelity_lower,
            verdict: Verdict::decide(report.fidelity_lower, epsilon),
            max_nodes: report.max_nodes,
            elapsed: report.elapsed,
            stats: report.stats,
        })
    }

    /// One Algorithm II sweep point, from the fold on the session's
    /// store (building the fold on first use).
    fn alg2_point(
        &self,
        artifacts: &Alg2Artifacts,
        cell: &StoreCell,
        channels: &[NoiseChannel],
        epsilon: f64,
    ) -> Result<SweepPoint, QaecError> {
        let Warm { store, fold } = cell.warm();
        let (report, fold) = artifacts.run_folded(&store, fold, channels, &self.options)?;
        cell.keep_fold(&store, fold);
        cell.reclaim(self.options.store_reclaim);
        Ok(SweepPoint {
            fidelity: report.fidelity,
            verdict: Verdict::decide(report.fidelity, epsilon),
            max_nodes: report.max_nodes,
            elapsed: report.elapsed,
            stats: report.stats,
        })
    }

    /// Records a run's proven interval, keeping the tightest evidence
    /// seen so far (an exact evaluation wins over any early-stopped
    /// bounds or approximate interval, and every later query is then
    /// cache-served).
    fn remember(&mut self, fresh: Knowledge) {
        match &self.knowledge {
            Some(old) if old.width() <= fresh.width() => {}
            _ => self.knowledge = Some(fresh),
        }
    }
}
