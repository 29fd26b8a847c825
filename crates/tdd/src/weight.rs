//! Tolerance-canonical interning of complex edge weights.
//!
//! Decision-diagram canonicity requires that "the same" weight always maps
//! to the same identity, even after different round-off histories. The
//! [`WeightTable`] interns complex values with an absolute tolerance:
//! values within `tol` (Chebyshev distance) of an already-interned value
//! reuse its [`WeightId`]. Edges then carry a `u32` handle, making
//! unique-table and computed-table keys exact and cheap to hash.
//!
//! The tolerance rule itself lives in one place, `ToleranceIndex`: the
//! private table and the scoped glue (see `crate::manager`) both find
//! representatives through it. The rule is stated on a grid of `2·tol`
//! buckets — the first-come representative in a value's 3×3 bucket
//! neighbourhood — and the index stores representatives per cell of
//! 32×32 buckets, so a lookup is one hash probe unless the neighbourhood
//! crosses a cell edge. The scoped rule's per-scope state is one type,
//! `WeightScope`, whichever store keeps the exact-bits ids behind it: an
//! owned store's map or the shared store's striped ones.

use crate::fxhash::{map_bytes, FxHashMap};
use qaec_math::C64;
use std::collections::hash_map::Entry;

/// Handle to an interned complex weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WeightId(pub(crate) u32);

impl WeightId {
    /// The interned value 0.
    pub const ZERO: WeightId = WeightId(0);
    /// The interned value 1.
    pub const ONE: WeightId = WeightId(1);

    /// Whether this is the interned zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == WeightId::ZERO
    }

    /// Whether this is the interned one.
    #[inline]
    pub fn is_one(self) -> bool {
        self == WeightId::ONE
    }
}

/// Interning table for complex weights.
///
/// # Example
///
/// ```
/// use qaec_math::C64;
/// use qaec_tdd::weight::{WeightId, WeightTable};
///
/// let mut table = WeightTable::new(1e-10);
/// let a = table.intern(C64::new(0.5, 0.0));
/// let b = table.intern(C64::new(0.5 + 1e-12, -1e-13));
/// assert_eq!(a, b); // merged within tolerance
/// assert_eq!(table.intern(C64::ONE), WeightId::ONE);
/// ```
#[derive(Clone, Debug)]
pub struct WeightTable {
    values: Vec<C64>,
    index: ToleranceIndex,
}

impl WeightTable {
    /// Creates a table with the given absolute tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not strictly positive and finite.
    pub fn new(tol: f64) -> Self {
        assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive");
        let mut table = WeightTable {
            values: Vec::new(),
            index: ToleranceIndex::new(tol),
        };
        let zero = table.intern_raw(C64::ZERO);
        let one = table.intern_raw(C64::ONE);
        debug_assert_eq!(zero, WeightId::ZERO);
        debug_assert_eq!(one, WeightId::ONE);
        table
    }

    /// The interning tolerance.
    pub fn tolerance(&self) -> f64 {
        self.index.tolerance()
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value behind a handle.
    #[inline]
    pub fn value(&self, w: WeightId) -> C64 {
        self.values[w.0 as usize]
    }

    /// Interns a value, merging with an existing one within tolerance.
    pub fn intern(&mut self, z: C64) -> WeightId {
        debug_assert!(z.is_finite(), "non-finite weight {z}");
        // Snap near-zero to the canonical zero.
        if self.index.is_zero(z) {
            return WeightId::ZERO;
        }
        self.intern_raw(z)
    }

    fn intern_raw(&mut self, z: C64) -> WeightId {
        let values = &mut self.values;
        self.index.find_or_insert_with(z, || {
            let id = WeightId(values.len() as u32);
            values.push(z);
            id
        })
    }

    /// Appends `z` under the next id without consulting the tolerance
    /// index: the arena of an owned store, whose exact-bits ids key the
    /// values themselves (see `crate::manager`).
    pub(crate) fn push(&mut self, z: C64) -> WeightId {
        let id = WeightId(self.values.len() as u32);
        self.values.push(z);
        id
    }

    /// Interned product `a·b`.
    pub fn mul(&mut self, a: WeightId, b: WeightId) -> WeightId {
        if a.is_zero() || b.is_zero() {
            return WeightId::ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        let z = self.value(a) * self.value(b);
        self.intern(z)
    }

    /// Interned sum `a + b`.
    pub fn add(&mut self, a: WeightId, b: WeightId) -> WeightId {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let z = self.value(a) + self.value(b);
        self.intern(z)
    }

    /// Interned quotient `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is the zero weight.
    pub fn div(&mut self, a: WeightId, b: WeightId) -> WeightId {
        assert!(!b.is_zero(), "division by the zero weight");
        if a.is_zero() {
            return WeightId::ZERO;
        }
        if b.is_one() {
            return a;
        }
        if a == b {
            return WeightId::ONE;
        }
        let z = self.value(a) / self.value(b);
        self.intern(z)
    }

    /// Interned complex conjugate.
    pub fn conj(&mut self, a: WeightId) -> WeightId {
        let z = self.value(a).conj();
        self.intern(z)
    }

    /// Interned scalar multiple by a real factor.
    pub fn scale_real(&mut self, a: WeightId, factor: f64) -> WeightId {
        if a.is_zero() || factor == 0.0 {
            if factor == 0.0 {
                return WeightId::ZERO;
            }
            return a;
        }
        let z = self.value(a) * factor;
        self.intern(z)
    }

    /// The modulus of the value behind `a`.
    pub fn magnitude(&self, a: WeightId) -> f64 {
        self.value(a).abs()
    }

    /// Bytes of backing storage the table holds: value-arena capacity
    /// plus the tolerance index — the private counterpart of the shared
    /// store's byte accounting.
    pub fn bytes_used(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<C64>() + self.index.bytes_used()
    }
}

/// The exact bit pattern of a value: the key of exact-bits interning.
#[inline]
pub(crate) fn exact_bits(z: C64) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

/// The per-scope half of the scoped rule, which owned and shared stores
/// both apply: within one weight scope (one leaf conversion, one plan
/// step) the first value seen in a tolerance neighbourhood becomes its
/// representative, and each representative interns store-wide by exact
/// bits. A value resolves in three tiers: the scope memo (its exact bits
/// seen before in this scope), then the tolerance index (the
/// first-come representative of the value's 3×3 bucket neighbourhood,
/// found in one index cell, or two or four at a cell edge), then — for
/// a new representative — the store's exact-bits ids. [`Self::clear`]
/// empties the first two at every scope boundary; the third is the
/// store's, so equal bits get one id across scopes (and, on a shared
/// store, across managers). Each scope is a pure function of its operand
/// values, so results are bit-identical whatever the schedule, the
/// thread count or the store kind.
#[derive(Clone, Debug)]
pub(crate) struct WeightScope {
    /// The scope's representatives.
    glue: ToleranceIndex,
    /// Exact bits already resolved in this scope.
    resolved: FxHashMap<(u64, u64), WeightId>,
}

impl WeightScope {
    /// An empty scope merging within `tol`.
    pub(crate) fn new(tol: f64) -> Self {
        WeightScope {
            glue: ToleranceIndex::new(tol),
            resolved: FxHashMap::default(),
        }
    }

    /// Opens a fresh scope, keeping the allocated capacity.
    pub(crate) fn clear(&mut self) {
        self.glue.clear();
        self.resolved.clear();
    }

    /// The id of `z` in this scope: `exact` interns a new
    /// representative's bits store-wide and is called only for one.
    /// Every id handed out is the store-wide id of its stored bits, so
    /// id equality is value-bit equality (the id-equality fast paths of
    /// `wdiv` and `make_node` rely on this).
    #[inline]
    pub(crate) fn intern(&mut self, z: C64, exact: impl FnOnce(C64) -> WeightId) -> WeightId {
        debug_assert!(z.is_finite(), "non-finite weight {z}");
        if self.glue.is_zero(z) {
            return WeightId::ZERO;
        }
        match self.resolved.entry(exact_bits(z)) {
            Entry::Occupied(seen) => *seen.get(),
            Entry::Vacant(slot) => *slot.insert(self.glue.find_or_insert_with(z, || exact(z))),
        }
    }
}

/// End of a cell's chain in [`ToleranceIndex`].
const NIL: u32 = u32::MAX;

/// Fine buckets per side of a [`ToleranceIndex`] cell.
const CELL: i64 = 32;

/// The cell of a bucket coordinate: shifted by half a cell, then
/// floored, saturating like the bucket key itself.
#[inline]
fn cell(k: i64) -> i64 {
    k.saturating_add(CELL / 2).div_euclid(CELL)
}

/// One representative in a [`ToleranceIndex`]: its value, its id and
/// the next representative of its cell.
#[derive(Clone, Copy, Debug)]
struct Representative {
    value: C64,
    id: WeightId,
    next: u32,
}

/// First-come tolerance lookup over complex values: the one rule by
/// which both [`WeightTable`] and a scoped shared-store manager decide
/// that two values are "the same" weight.
///
/// The rule is defined on fine buckets of width `2·tol`: a value's
/// bucket is `(z / 2·tol).round()` per component, saturating at
/// `i64::MAX`/`MIN`. Two values within `tol` (Chebyshev distance) have
/// buckets at most 1 apart per component, so the 3×3 bucket
/// neighbourhood of `z` holds every representative within `tol` of it.
/// A lookup returns the match whose bucket comes first in row-major
/// order over that neighbourhood (`re` offset −1, 0, 1, then `im`
/// offset within it) and, within a bucket, the earliest inserted — the
/// first-come representative.
///
/// Representatives are chained per cell of 32×32 buckets, so a lookup
/// probes the one cell that holds the whole neighbourhood, or two or
/// four where it crosses a cell edge. A cell is a bucket key shifted by
/// 16, then floored by 32. The shift keeps common values mid-cell: at
/// the default `tol = 1e-10`, `1/(2·tol)` is 5·10⁹ = 2⁹·5¹⁰, so a zero
/// component and every multiple of 1/16 has a bucket key divisible by
/// 32, which unshifted cells would put on an edge. A chain runs in
/// insertion order; the walk keeps the match whose bucket is least in
/// row-major order and, among equal buckets, the first found, so it
/// returns what a probe of the nine buckets would. A representative
/// equal to `z` returns at once, as no other representative lies
/// within tolerance of one. Representatives live in one flat vector;
/// each cell maps to the `(first, last)` positions of its chain, so
/// electing a representative appends one entry and allocates nothing
/// per cell, and [`Self::clear`] frees nothing.
#[derive(Clone, Debug)]
pub(crate) struct ToleranceIndex {
    tol: f64,
    cells: FxHashMap<(i64, i64), (u32, u32)>,
    reps: Vec<Representative>,
}

impl ToleranceIndex {
    /// An empty index merging within `tol`.
    pub(crate) fn new(tol: f64) -> Self {
        ToleranceIndex {
            tol,
            cells: FxHashMap::default(),
            reps: Vec::new(),
        }
    }

    /// The merging tolerance.
    pub(crate) fn tolerance(&self) -> f64 {
        self.tol
    }

    /// Whether `z` lies within tolerance of zero — the snap both
    /// interners apply before looking a value up.
    #[inline]
    pub(crate) fn is_zero(&self, z: C64) -> bool {
        z.re.abs() <= self.tol && z.im.abs() <= self.tol
    }

    /// The fine bucket of `z`; the `as i64` cast saturates huge values
    /// at `i64::MAX`/`MIN`.
    #[inline]
    fn bucket(&self, z: C64) -> (i64, i64) {
        let w = 2.0 * self.tol;
        ((z.re / w).round() as i64, (z.im / w).round() as i64)
    }

    /// The id of the first-come representative within tolerance of
    /// `z`; on a miss `z` becomes a representative under the id `mint`
    /// returns (called only then).
    #[inline]
    pub(crate) fn find_or_insert_with(
        &mut self,
        z: C64,
        mint: impl FnOnce() -> WeightId,
    ) -> WeightId {
        let (kr, ki) = self.bucket(z);
        // The neighbourhood saturates as the bucket key does.
        let rows = cell(kr.saturating_sub(1))..=cell(kr.saturating_add(1));
        let columns = cell(ki.saturating_sub(1))..=cell(ki.saturating_add(1));
        let mut first: Option<Representative> = None;
        for cr in rows {
            for ci in columns.clone() {
                let Some(&(mut at, _)) = self.cells.get(&(cr, ci)) else {
                    continue;
                };
                while at != NIL {
                    let rep = self.reps[at as usize];
                    if rep.value == z {
                        return rep.id;
                    }
                    if (rep.value.re - z.re).abs() <= self.tol
                        && (rep.value.im - z.im).abs() <= self.tol
                    {
                        first = match first {
                            Some(seen) if self.bucket(seen.value) <= self.bucket(rep.value) => {
                                Some(seen)
                            }
                            _ => Some(rep),
                        };
                    }
                    at = rep.next;
                }
            }
        }
        if let Some(rep) = first {
            return rep.id;
        }
        let id = mint();
        assert!(self.reps.len() < NIL as usize, "tolerance index full");
        let at = self.reps.len() as u32;
        self.reps.push(Representative {
            value: z,
            id,
            next: NIL,
        });
        match self.cells.entry((cell(kr), cell(ki))) {
            Entry::Occupied(mut chain) => {
                let last = &mut chain.get_mut().1;
                self.reps[*last as usize].next = at;
                *last = at;
            }
            Entry::Vacant(slot) => {
                slot.insert((at, at));
            }
        }
        id
    }

    /// Forgets every representative, keeping the allocated capacity.
    pub(crate) fn clear(&mut self) {
        self.cells.clear();
        self.reps.clear();
    }

    /// Bytes of backing storage: the representative vector's capacity
    /// plus the cell map's.
    pub(crate) fn bytes_used(&self) -> usize {
        self.reps.capacity() * std::mem::size_of::<Representative>() + map_bytes(&self.cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let table = WeightTable::new(1e-10);
        assert_eq!(table.value(WeightId::ZERO), C64::ZERO);
        assert_eq!(table.value(WeightId::ONE), C64::ONE);
        assert!(WeightId::ZERO.is_zero());
        assert!(WeightId::ONE.is_one());
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn near_values_merge() {
        let mut t = WeightTable::new(1e-10);
        let a = t.intern(C64::new(0.25, 0.75));
        let b = t.intern(C64::new(0.25 + 5e-11, 0.75 - 5e-11));
        assert_eq!(a, b);
        let c = t.intern(C64::new(0.25 + 5e-9, 0.75));
        assert_ne!(a, c);
    }

    #[test]
    fn near_zero_snaps() {
        let mut t = WeightTable::new(1e-10);
        assert_eq!(t.intern(C64::new(1e-12, -1e-12)), WeightId::ZERO);
        assert_ne!(t.intern(C64::new(1e-8, 0.0)), WeightId::ZERO);
    }

    #[test]
    fn boundary_values_across_buckets_still_merge() {
        // Values straddling a bucket boundary must still be unified by the
        // 3×3 probe.
        let mut t = WeightTable::new(1e-10);
        let w = 2e-10; // bucket width
        let base = 17.0 * w + w / 2.0; // near a boundary
        let a = t.intern(C64::new(base - 4e-11, 0.0));
        let b = t.intern(C64::new(base + 4e-11, 0.0));
        assert_eq!(a, b);
    }

    #[test]
    fn arithmetic() {
        let mut t = WeightTable::new(1e-10);
        let half = t.intern(C64::real(0.5));
        let two = t.intern(C64::real(2.0));
        assert_eq!(t.mul(half, two), WeightId::ONE);
        assert_eq!(t.mul(half, WeightId::ZERO), WeightId::ZERO);
        assert_eq!(t.add(WeightId::ZERO, half), half);
        let one = t.add(half, half);
        assert_eq!(one, WeightId::ONE);
        assert_eq!(t.div(half, half), WeightId::ONE);
        assert_eq!(t.div(WeightId::ZERO, two), WeightId::ZERO);
        let i = t.intern(C64::I);
        let minus_i = t.conj(i);
        assert_eq!(t.value(minus_i), C64::new(0.0, -1.0));
        assert_eq!(t.scale_real(half, 4.0), two);
    }

    #[test]
    #[should_panic(expected = "division by the zero weight")]
    fn division_by_zero_panics() {
        let mut t = WeightTable::new(1e-10);
        let one = WeightId::ONE;
        t.div(one, WeightId::ZERO);
    }

    #[test]
    fn cancellation_in_add_returns_zero() {
        let mut t = WeightTable::new(1e-10);
        let a = t.intern(C64::real(0.3));
        let b = t.intern(C64::real(-0.3));
        assert_eq!(t.add(a, b), WeightId::ZERO);
    }

    #[test]
    fn magnitudes() {
        let mut t = WeightTable::new(1e-10);
        let z = t.intern(C64::new(3.0, 4.0));
        assert!((t.magnitude(z) - 5.0).abs() < 1e-12);
    }

    /// Inserts `z` into `index` under `id` if no representative is
    /// within tolerance, returning the id it resolves to.
    fn resolve(index: &mut ToleranceIndex, z: (f64, f64), id: u32) -> WeightId {
        index.find_or_insert_with(C64::new(z.0, z.1), || WeightId(id))
    }

    // With tol = 0.1 buckets are 0.2 wide: bucket (5, 0) holds
    // re ∈ [0.9, 1.1), im ∈ [−0.1, 0.1).

    #[test]
    fn tolerance_index_prefers_the_earliest_in_a_bucket() {
        let mut index = ToleranceIndex::new(0.1);
        // Four pairwise-distinct representatives in bucket (5, 0).
        let corners = [(1.09, -0.09), (0.91, -0.09), (0.91, 0.09), (1.09, 0.09)];
        for (id, &z) in corners.iter().enumerate() {
            assert_eq!(resolve(&mut index, z, id as u32), WeightId(id as u32));
        }
        // The centre is within tolerance of all four: the first wins,
        // and a hit mints no id.
        assert_eq!(
            index.find_or_insert_with(C64::new(1.0, 0.0), || unreachable!("a hit mints no id")),
            WeightId(0)
        );
        // Near the last corner only: the chain is walked to its tail.
        assert_eq!(resolve(&mut index, (1.08, 0.08), 99), WeightId(3));
        // Inserted in reverse, the last corner is the first come.
        let mut index = ToleranceIndex::new(0.1);
        for (id, &z) in corners.iter().enumerate().rev() {
            resolve(&mut index, z, id as u32);
        }
        assert_eq!(resolve(&mut index, (1.0, 0.0), 99), WeightId(3));
    }

    #[test]
    fn tolerance_index_follows_the_probe_order_across_buckets() {
        let mut index = ToleranceIndex::new(0.1);
        // q in bucket (6, 0), then p in bucket (5, 1); they are 0.18
        // apart, so both become representatives.
        let q = resolve(&mut index, (1.14, -0.04), 1);
        let p = resolve(&mut index, (1.0, 0.14), 2);
        assert_eq!((q, p), (WeightId(1), WeightId(2)));
        // z in bucket (5, 0) is within tolerance of both. The probe
        // visits (5, 1) before (6, 0), so p wins although q came first.
        assert_eq!(resolve(&mut index, (1.05, 0.05), 99), p);
        // From bucket (5, 0) the (4, ·) row comes first of all.
        let mut index = ToleranceIndex::new(0.1);
        let b = resolve(&mut index, (1.02, 0.0), 1);
        let a = resolve(&mut index, (0.88, 0.0), 2);
        assert_ne!(a, b);
        assert_eq!(resolve(&mut index, (0.95, 0.0), 99), a);
    }

    #[test]
    fn tolerance_index_clear_starts_a_fresh_scope() {
        let mut index = ToleranceIndex::new(0.1);
        assert_eq!(resolve(&mut index, (1.0, 0.0), 7), WeightId(7));
        assert_eq!(resolve(&mut index, (1.05, 0.0), 8), WeightId(7));
        let bytes = index.bytes_used();
        index.clear();
        assert_eq!(index.bytes_used(), bytes, "clear keeps the capacity");
        // The old representative is gone: the next value elects anew,
        // and values near it now resolve to the new one.
        assert_eq!(resolve(&mut index, (1.05, 0.0), 9), WeightId(9));
        assert_eq!(resolve(&mut index, (1.0, 0.0), 10), WeightId(9));
        assert_eq!(resolve(&mut index, (1.2, 0.0), 11), WeightId(11));
    }

    #[test]
    fn huge_values_saturate_the_probe() {
        let mut t = WeightTable::new(1e-10);
        let a = t.intern(C64::new(1e300, -1e300));
        assert_eq!(t.intern(C64::new(1e300, -1e300)), a);
        assert_ne!(t.intern(C64::new(2e300, -1e300)), a);
    }
}

/// The cell index against a direct probe of the nine buckets, on seeded
/// streams.
#[cfg(test)]
mod probe_reference {
    use super::*;
    use proptest::prelude::*;

    /// The 3×3 probe: each `2·tol` bucket keeps its representatives in
    /// insertion order, and a lookup walks the nine buckets around `z`
    /// row-major, taking the first match. [`ToleranceIndex`] must
    /// return the same id on every lookup.
    struct GridProbe {
        tol: f64,
        buckets: FxHashMap<(i64, i64), Vec<(C64, WeightId)>>,
    }

    impl GridProbe {
        fn new(tol: f64) -> Self {
            GridProbe {
                tol,
                buckets: FxHashMap::default(),
            }
        }

        fn find_or_insert_with(&mut self, z: C64, mint: impl FnOnce() -> WeightId) -> WeightId {
            let w = 2.0 * self.tol;
            let (kr, ki) = ((z.re / w).round() as i64, (z.im / w).round() as i64);
            for dr in -1..=1i64 {
                for di in -1..=1i64 {
                    let key = (kr.saturating_add(dr), ki.saturating_add(di));
                    for &(value, id) in self.buckets.get(&key).into_iter().flatten() {
                        if (value.re - z.re).abs() <= self.tol
                            && (value.im - z.im).abs() <= self.tol
                        {
                            return id;
                        }
                    }
                }
            }
            let id = mint();
            self.buckets.entry((kr, ki)).or_default().push((z, id));
            id
        }

        fn clear(&mut self) {
            self.buckets.clear();
        }
    }

    /// The default tolerance, whose `1/(2·tol)` is a multiple of 32;
    /// a power of two, on whose grid dyadic values sit at bucket
    /// centres; and coarse ones, where a cell spans many values.
    const TOLERANCES: [f64; 5] = [1e-10, 1.0 / (1u64 << 30) as f64, 1e-3, 0.1, 0.37];

    /// Centres of the clusters the streams draw from.
    const ANCHORS: [f64; 5] = [0.5, -0.5, std::f64::consts::FRAC_1_SQRT_2, 0.3, -1e-3];

    /// The value of one stream step, shaped by `shape` from the raw
    /// draws `a`, `b` (small integers) and `f` (in `[−1, 1)`).
    fn stream_value(tol: f64, shape: u8, a: i64, b: i64, f: f64, seen: &[C64]) -> C64 {
        let w = 2.0 * tol;
        let anchor = |k: i64| ANCHORS[k.rem_euclid(ANCHORS.len() as i64) as usize];
        // Within a bucket or two of a cell edge (bucket keys 32c − 17
        // and 32c − 16 lie on either side of one), ±1.5 tol around it.
        let edge = |c: i64, j: i64, f: f64| ((CELL * c + j) as f64 - 16.5) * w + f * 1.5 * tol;
        match shape % 8 {
            0 => C64::new(
                edge(a.rem_euclid(7) - 3, b.rem_euclid(3) - 1, f),
                edge(b.rem_euclid(5) - 2, a.rem_euclid(3) - 1, -f),
            ),
            1 => C64::new(edge(a.rem_euclid(7) - 3, b.rem_euclid(3) - 1, f), 0.0),
            // Dyadic values, with zero or negative-zero imaginary parts.
            2 => {
                let im = [0.0, -0.0, b as f64 / 16.0][a.rem_euclid(3) as usize];
                C64::new(a as f64 / (1u64 << b.rem_euclid(8)) as f64, im)
            }
            // Clusters: offsets of up to 2.5 tol and 3 tol around a few
            // anchors, so representatives sit 1–3 tolerances apart and a
            // lookup often matches several.
            3 => C64::new(
                anchor(a) + b as f64 / 16.0 * tol,
                anchor(a + b) * f.signum() + f * 3.0 * tol,
            ),
            4 => {
                let side = anchor(b) + f * 2.0 * tol;
                match a.rem_euclid(4) {
                    0 => C64::new(side, -0.0),
                    1 => C64::new(-0.0, side),
                    2 => C64::new(0.0, side),
                    _ => C64::new(-0.0, -0.0),
                }
            }
            // Magnitudes whose bucket keys saturate at i64::MAX/MIN, at
            // and around the first saturated key.
            5 => {
                let limit = i64::MAX as f64 * w;
                let huge =
                    [1e300, limit, limit * (1.0 + f * 1e-3), 2.5 * limit][b.rem_euclid(4) as usize];
                let sign = if a < 0 { -1.0 } else { 1.0 };
                match a.rem_euclid(3) {
                    0 => C64::new(sign * huge, anchor(b) + f * tol),
                    1 => C64::new(anchor(b) + f * tol, sign * huge),
                    _ => C64::new(sign * huge, -sign * huge),
                }
            }
            // An earlier value again, exactly or within half a tolerance.
            6 if !seen.is_empty() => {
                let z = seen[a.rem_euclid(seen.len() as i64) as usize];
                if b % 2 == 0 {
                    z
                } else {
                    C64::new(z.re + f * 0.5 * tol, z.im - f * 0.5 * tol)
                }
            }
            _ => C64::new(2.0 * f, a as f64 / 40.0 + b as f64 * tol),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn cell_index_returns_the_3x3_probes_ids(
            tol in (0..TOLERANCES.len()).prop_map(|k| TOLERANCES[k]),
            clears in 0u8..6,
            steps in proptest::collection::vec(
                (any::<u8>(), -40i64..40, -40i64..40, -1.0f64..1.0),
                1..500,
            ),
        ) {
            let mut cells = ToleranceIndex::new(tol);
            let mut grid = GridProbe::new(tol);
            let (mut cell_ids, mut grid_ids) = (0u32, 0u32);
            let mut seen = Vec::new();
            for (at, &(shape, a, b, f)) in steps.iter().enumerate() {
                if shape < clears {
                    cells.clear();
                    grid.clear();
                    continue;
                }
                let z = stream_value(tol, shape, a, b, f, &seen);
                seen.push(z);
                let got = cells.find_or_insert_with(z, || {
                    cell_ids += 1;
                    WeightId(cell_ids)
                });
                let want = grid.find_or_insert_with(z, || {
                    grid_ids += 1;
                    WeightId(grid_ids)
                });
                prop_assert_eq!(got, want, "step {} of {}: {:?} at tol {}", at, steps.len(), z, tol);
            }
        }
    }
}
