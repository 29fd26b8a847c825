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
//! [`crate::alg2`]'s fold).
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

use crate::alg1::Alg1Artifacts;
use crate::alg2::{Alg2Artifacts, Alg2Fold};
use crate::checker::{auto_choice, mpo_favored};
use crate::error::QaecError;
use crate::options::{AlgorithmChoice, CheckOptions, StoreReclaimMode};
use crate::report::{AlgorithmUsed, EquivalenceReport, Verdict};
use crate::{validate, validate_epsilon};
use qaec_circuit::{Circuit, NoiseChannel};
use qaec_mpo::{MpoOptions, MpoOutcome, MpoPlan};
use qaec_tdd::{SharedTddStore, TddStats};
use std::fmt;
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
    Mpo(MpoBackend),
}

/// The Algorithm III artifacts: a compiled MPO program plus, under the
/// `Auto` portfolio, a lazily-compiled exact session to escalate to
/// when the MPO interval cannot decide a query.
#[derive(Clone)]
struct MpoBackend {
    plan: Arc<MpoPlan>,
    /// `Some` when compiled under [`AlgorithmChoice::Auto`]; `None`
    /// when Algorithm III was forced explicitly (a straddling interval
    /// then surfaces as [`Verdict::Inconclusive`] instead).
    escalation: Option<Arc<Mutex<EscalationState>>>,
}

impl fmt::Debug for MpoBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MpoBackend")
            .field("n_qubits", &self.plan.n_qubits())
            .field("channels", &self.plan.channels().len())
            .field("escalation", &self.escalation.is_some())
            .finish()
    }
}

/// The portfolio's exact fallback, compiled on first use so the cheap
/// MPO pass pays nothing for it when the interval decides outright.
enum EscalationState {
    Pending { ideal: Circuit, noisy: Circuit },
    Ready(Box<CompiledCheck>),
}

impl EscalationState {
    /// The compiled exact fallback session, compiling it on first use
    /// with the caller's options forced to the algorithm the exact
    /// [`auto_choice`] picks for the pair — so an escalated `Auto`
    /// query is bit-identical to what `Auto` computed before the
    /// portfolio existed.
    fn ready(&mut self, options: &CheckOptions) -> &mut CompiledCheck {
        if let EscalationState::Pending { ideal, noisy } = self {
            let forced = CheckOptions {
                algorithm: match auto_choice(noisy) {
                    AlgorithmUsed::AlgorithmI => AlgorithmChoice::AlgorithmI,
                    AlgorithmUsed::AlgorithmII | AlgorithmUsed::Mpo => AlgorithmChoice::AlgorithmII,
                },
                ..options.clone()
            };
            let compiled = CompiledCheck::compile_prevalidated(ideal, noisy, forced);
            *self = EscalationState::Ready(Box::new(compiled));
        }
        match self {
            EscalationState::Ready(check) => check,
            EscalationState::Pending { .. } => unreachable!("compiled above"),
        }
    }
}

/// The tightest proven fidelity interval so far, with the evidence of
/// the run that established it (for cache-served reports).
#[derive(Clone, Debug)]
struct Knowledge {
    lower: f64,
    upper: f64,
    /// The MPO midpoint estimate, when Algorithm III established the
    /// interval — what [`CompiledCheck::fidelity`] returns for an
    /// explicitly-forced approximate session.
    estimate: Option<f64>,
    /// The algorithm whose run established the interval (under the
    /// portfolio this can differ from the session's compiled backend).
    algorithm: AlgorithmUsed,
    terms_computed: usize,
    total_terms: usize,
    max_nodes: usize,
    elapsed: Duration,
    stats: TddStats,
    trunc_error: Option<f64>,
    bond_max: Option<usize>,
    cross_check: Option<bool>,
}

impl Knowledge {
    /// Whether the interval is a point (the exact fidelity is known).
    fn exact(&self) -> bool {
        self.upper <= self.lower
    }

    fn width(&self) -> f64 {
        (self.upper - self.lower).max(0.0)
    }

    /// Evidence of an Algorithm III run, interval and estimate alike.
    fn from_mpo(out: &MpoOutcome) -> Knowledge {
        Knowledge {
            lower: out.f_lo,
            upper: out.f_hi,
            estimate: Some(out.fidelity),
            algorithm: AlgorithmUsed::Mpo,
            terms_computed: 1,
            total_terms: 1,
            max_nodes: out.bond_max,
            elapsed: out.elapsed,
            stats: TddStats::default(),
            trunc_error: Some(out.trunc_error),
            bond_max: Some(out.bond_max),
            cross_check: None,
        }
    }

    /// Evidence of the run behind an [`EquivalenceReport`] (exact
    /// backends and escalated portfolio queries).
    fn from_report(report: &EquivalenceReport) -> Knowledge {
        Knowledge {
            lower: report.fidelity_bounds.0,
            upper: report.fidelity_bounds.1,
            estimate: None,
            algorithm: report.algorithm,
            terms_computed: report.terms_computed,
            total_terms: report.total_terms,
            max_nodes: report.max_nodes,
            elapsed: report.elapsed,
            stats: report.stats,
            trunc_error: report.trunc_error,
            bond_max: report.bond_max,
            cross_check: report.cross_check,
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

/// One row of a noise sweep ([`CompiledCheck::sweep_noise`]).
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
        let algorithm = match options.algorithm {
            // The portfolio: try the cheap MPO pass on wide, shallowly
            // entangled pairs (escalating when its interval cannot
            // decide); everything else goes straight to an exact
            // backend, exactly as before.
            AlgorithmChoice::Auto if mpo_favored(noisy) => AlgorithmUsed::Mpo,
            AlgorithmChoice::Auto => auto_choice(noisy),
            AlgorithmChoice::AlgorithmI => AlgorithmUsed::AlgorithmI,
            AlgorithmChoice::AlgorithmII => AlgorithmUsed::AlgorithmII,
            AlgorithmChoice::Mpo => AlgorithmUsed::Mpo,
        };
        let backend = match algorithm {
            AlgorithmUsed::AlgorithmI => {
                Backend::Alg1(Alg1Artifacts::compile(ideal, noisy, &options))
            }
            AlgorithmUsed::AlgorithmII => Backend::Alg2(
                Alg2Artifacts::compile(ideal, noisy, &options),
                StoreCell::new(SharedTddStore::new()),
            ),
            AlgorithmUsed::Mpo => {
                // Only the `Auto` portfolio gets an exact fallback; a
                // forced Algorithm III session reports Inconclusive
                // when its interval straddles the threshold. The MPO
                // engine works on dense site tensors, so no
                // decision-diagram store is allocated — the escalated
                // session (compiled lazily) brings its own.
                let escalation = (options.algorithm == AlgorithmChoice::Auto).then(|| {
                    Arc::new(Mutex::new(EscalationState::Pending {
                        ideal: ideal.clone(),
                        noisy: noisy.clone(),
                    }))
                });
                Backend::Mpo(MpoBackend {
                    plan: Arc::new(MpoPlan::compile(ideal, noisy)),
                    escalation,
                })
            }
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

    /// The swappable store cell of an Algorithm II session — `None` for
    /// the other backends, which hold no store between queries — for
    /// holders (the service cache) that must observe reclamation swaps
    /// instead of pinning one generation.
    pub(crate) fn warm_store_cell(&self) -> Option<&StoreCell> {
        match &self.backend {
            Backend::Alg2(_, cell) => Some(cell),
            Backend::Alg1(_) | Backend::Mpo(_) => None,
        }
    }

    /// Bytes of backing storage held by the session's warm store
    /// ([`SharedTddStore::bytes_used`]) — the footprint a byte-budgeted
    /// session cache accounts against. 0 for sessions without one
    /// (Algorithm I, whose per-query private arenas die with each
    /// query, and MPO).
    ///
    /// Steps down when `options.store_reclaim` retires the store for a
    /// compact successor at a quiescent boundary; with reclamation off
    /// the shared arenas are append-only and the number is monotone
    /// until the session drops. [`CompiledCheck::warm_store_peak_bytes`]
    /// keeps the high-water mark either way.
    pub fn warm_store_bytes(&self) -> usize {
        self.warm_store_cell()
            .map_or(0, |cell| cell.get().bytes_used())
    }

    /// High-water mark of [`CompiledCheck::warm_store_bytes`] across the
    /// session's life, *including* every store generation reclamation
    /// has since retired ([`SharedTddStore::peak_bytes_used`] carries
    /// across successor swaps).
    pub fn warm_store_peak_bytes(&self) -> usize {
        self.warm_store_cell()
            .map_or(0, |cell| cell.get().peak_bytes_used())
    }

    /// The compiled noise channels, in site order — the sites
    /// [`CompiledCheck::sweep_noise`] re-instantiates.
    pub fn noise_channels(&self) -> &[NoiseChannel] {
        match &self.backend {
            Backend::Alg1(a) => &a.template.channels,
            Backend::Alg2(a, _) => &a.channels,
            Backend::Mpo(b) => b.plan.channels(),
        }
    }

    /// The MPO tuning knobs of this session's options, in the engine's
    /// own vocabulary.
    fn mpo_options(&self) -> MpoOptions {
        MpoOptions {
            svd_threshold: self.options.svd_threshold,
            max_bond: self.options.max_bond,
        }
    }

    /// The exact Jamiolkowski fidelity `F_J(E, U)`, cached after the
    /// first evaluation (subject to `options.max_terms`, which — as in
    /// the one-shot path — returns the proven lower bound).
    ///
    /// Bit-identical to [`crate::jamiolkowski_fidelity`] on the same
    /// pair and options. An `Auto` session whose portfolio compiled the
    /// MPO backend keeps that promise by escalating this query to its
    /// exact fallback; only an explicitly-forced
    /// [`AlgorithmChoice::Mpo`] session returns the MPO midpoint
    /// estimate instead, whose distance from the exact value is bounded
    /// by the reported truncation error.
    ///
    /// # Errors
    ///
    /// [`QaecError::Timeout`] if `options.deadline` expires.
    pub fn fidelity(&mut self) -> Result<f64, QaecError> {
        if let Some(k) = &self.knowledge {
            if k.exact() {
                return Ok(k.lower);
            }
        }
        match &self.backend {
            Backend::Alg1(artifacts) => {
                let report = artifacts.run(None, &self.options)?;
                let value = report.fidelity_lower;
                self.remember(Knowledge {
                    lower: report.fidelity_lower,
                    upper: report.fidelity_upper,
                    estimate: None,
                    algorithm: AlgorithmUsed::AlgorithmI,
                    terms_computed: report.terms_computed,
                    total_terms: report.total_terms,
                    max_nodes: report.max_nodes,
                    elapsed: report.elapsed,
                    stats: report.stats,
                    trunc_error: None,
                    bond_max: None,
                    cross_check: None,
                });
                Ok(value)
            }
            Backend::Alg2(artifacts, cell) => {
                let report = artifacts.run(&cell.get(), &self.options)?;
                cell.reclaim(self.options.store_reclaim);
                let value = report.fidelity;
                self.remember(Knowledge {
                    lower: value,
                    upper: value,
                    estimate: None,
                    algorithm: AlgorithmUsed::AlgorithmII,
                    terms_computed: 1,
                    total_terms: 1,
                    max_nodes: report.max_nodes,
                    elapsed: report.elapsed,
                    stats: report.stats,
                    trunc_error: None,
                    bond_max: None,
                    cross_check: None,
                });
                Ok(value)
            }
            Backend::Mpo(backend) => {
                let backend = backend.clone();
                match &backend.escalation {
                    // `Auto` promised the exact value: escalate.
                    Some(cell) => {
                        let mut state = cell.lock().expect("escalation cell poisoned");
                        let exact = state.ready(&self.options);
                        let value = exact.fidelity()?;
                        let knowledge = exact.knowledge.clone();
                        drop(state);
                        if let Some(k) = knowledge {
                            self.remember(k);
                        }
                        Ok(value)
                    }
                    None => {
                        // A forced approximate session serves its
                        // cached estimate rather than re-contracting.
                        if let Some(estimate) = self.knowledge.as_ref().and_then(|k| k.estimate) {
                            return Ok(estimate);
                        }
                        let out = backend.plan.run(&self.mpo_options());
                        self.remember(Knowledge::from_mpo(&out));
                        Ok(out.fidelity)
                    }
                }
            }
        }
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
                return Ok(self.report_from_knowledge(verdict, epsilon));
            }
        }
        match &self.backend {
            Backend::Alg1(artifacts) => {
                let report = artifacts.run(Some(epsilon), &self.options)?;
                // All terms evaluated without an early decision: compare
                // the exact value (the same single comparison the early
                // exit used on its bounds).
                let verdict = report
                    .verdict
                    .unwrap_or_else(|| Verdict::decide(report.fidelity_lower, epsilon));
                let out = EquivalenceReport {
                    verdict,
                    fidelity_bounds: (report.fidelity_lower, report.fidelity_upper),
                    epsilon,
                    algorithm: AlgorithmUsed::AlgorithmI,
                    terms_computed: report.terms_computed,
                    total_terms: report.total_terms,
                    max_nodes: report.max_nodes,
                    elapsed: report.elapsed,
                    stats: report.stats,
                    trunc_error: None,
                    bond_max: None,
                    cross_check: None,
                };
                self.remember(Knowledge::from_report(&out));
                Ok(out)
            }
            Backend::Alg2(artifacts, cell) => {
                let report = artifacts.run(&cell.get(), &self.options)?;
                cell.reclaim(self.options.store_reclaim);
                let verdict = Verdict::decide(report.fidelity, epsilon);
                let out = EquivalenceReport {
                    verdict,
                    fidelity_bounds: (report.fidelity, report.fidelity),
                    epsilon,
                    algorithm: AlgorithmUsed::AlgorithmII,
                    terms_computed: 1,
                    total_terms: 1,
                    max_nodes: report.max_nodes,
                    elapsed: report.elapsed,
                    stats: report.stats,
                    trunc_error: None,
                    bond_max: None,
                    cross_check: None,
                };
                self.remember(Knowledge::from_report(&out));
                Ok(out)
            }
            Backend::Mpo(backend) => {
                let backend = backend.clone();
                self.check_mpo(&backend, epsilon)
            }
        }
    }

    /// The portfolio's query body: run the compiled MPO program, decide
    /// from its rigorous interval if possible, otherwise escalate to
    /// the exact fallback (`Auto`) or report
    /// [`Verdict::Inconclusive`] (forced Algorithm III).
    fn check_mpo(
        &mut self,
        backend: &MpoBackend,
        epsilon: f64,
    ) -> Result<EquivalenceReport, QaecError> {
        let out = backend.plan.run(&self.mpo_options());
        let decided = Verdict::decide_bounds(out.f_lo, out.f_hi, epsilon);
        if let Some(verdict) = decided {
            let report = EquivalenceReport {
                verdict,
                fidelity_bounds: (out.f_lo, out.f_hi),
                epsilon,
                algorithm: AlgorithmUsed::Mpo,
                terms_computed: 1,
                total_terms: 1,
                max_nodes: out.bond_max,
                elapsed: out.elapsed,
                stats: TddStats::default(),
                trunc_error: Some(out.trunc_error),
                bond_max: Some(out.bond_max),
                cross_check: None,
            };
            self.remember(Knowledge::from_mpo(&out));
            return Ok(report);
        }
        // The interval straddles 1 − ε.
        match &backend.escalation {
            None => {
                self.remember(Knowledge::from_mpo(&out));
                Ok(EquivalenceReport {
                    verdict: Verdict::Inconclusive,
                    fidelity_bounds: (out.f_lo, out.f_hi),
                    epsilon,
                    algorithm: AlgorithmUsed::Mpo,
                    terms_computed: 1,
                    total_terms: 1,
                    max_nodes: out.bond_max,
                    elapsed: out.elapsed,
                    stats: TddStats::default(),
                    trunc_error: Some(out.trunc_error),
                    bond_max: Some(out.bond_max),
                    cross_check: None,
                })
            }
            Some(cell) => {
                let mut state = cell.lock().expect("escalation cell poisoned");
                let mut report = state.ready(&self.options).check_prevalidated(epsilon)?;
                drop(state);
                // Cross-check: two sound fidelity intervals for the
                // same pair must intersect (the exact bounds are a
                // point unless Algorithm I early-stopped).
                let (lo, hi) = report.fidelity_bounds;
                report.cross_check = Some(lo <= out.f_hi && out.f_lo <= hi);
                report.trunc_error = Some(out.trunc_error);
                report.bond_max = Some(out.bond_max);
                self.remember(Knowledge::from_report(&report));
                Ok(report)
            }
        }
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
            Backend::Alg2(..) | Backend::Mpo(_) => Ok(self
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
            Backend::Mpo(backend) => match &backend.escalation {
                // `Auto` promised exact per-point fidelities: the whole
                // sweep escalates to the exact fallback (the compiled
                // channel sites are the same circuit walk, so the
                // points substitute one-for-one).
                Some(cell) => cell
                    .lock()
                    .expect("escalation cell poisoned")
                    .ready(&self.options)
                    .sweep_noise_prevalidated(epsilon, points),
                // A forced Algorithm III session sweeps on the compiled
                // MPO program: per-point midpoint estimates, with
                // verdicts taken on each point's rigorous interval —
                // straddling points surface as Inconclusive.
                None => Ok(points
                    .iter()
                    .map(|channels| {
                        let out = backend.plan.run_channels(&self.mpo_options(), channels);
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
            },
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

    /// Serves a report from the cached interval: the evidence (bounds,
    /// counts, statistics, elapsed) is that of the run that established
    /// it — the query itself did no diagram work.
    fn report_from_knowledge(&self, verdict: Verdict, epsilon: f64) -> EquivalenceReport {
        let k = self.knowledge.as_ref().expect("caller checked");
        EquivalenceReport {
            verdict,
            fidelity_bounds: (k.lower, k.upper),
            epsilon,
            algorithm: k.algorithm,
            terms_computed: k.terms_computed,
            total_terms: k.total_terms,
            max_nodes: k.max_nodes,
            elapsed: k.elapsed,
            stats: k.stats,
            trunc_error: k.trunc_error,
            bond_max: k.bond_max,
            cross_check: k.cross_check,
        }
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
