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
//! private table and the shared store's scoped glue (see
//! `crate::manager`) both find representatives through it.

use crate::fxhash::FxHashMap;
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

/// End of a bucket's chain in [`ToleranceIndex`].
const NIL: u32 = u32::MAX;

/// One representative in a [`ToleranceIndex`]: its value, its id and
/// the next representative of its bucket.
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
/// Values are bucketed on a grid of width `2·tol`, so the 3×3 bucket
/// neighbourhood of a value holds every representative within `tol`
/// (Chebyshev distance). Representatives live in one flat vector; each
/// bucket maps to the `(first, last)` positions of a chain linked
/// through that vector in insertion order, so electing a representative
/// appends one entry and allocates nothing per bucket, and [`Self::clear`]
/// frees nothing. A lookup returns the first match in row-major probe
/// order (`re` offset −1, 0, 1, then `im` offset within it) and, within
/// a bucket, the earliest inserted — the first-come representative.
#[derive(Clone, Debug)]
pub(crate) struct ToleranceIndex {
    tol: f64,
    buckets: FxHashMap<(i64, i64), (u32, u32)>,
    reps: Vec<Representative>,
}

impl ToleranceIndex {
    /// An empty index merging within `tol`.
    pub(crate) fn new(tol: f64) -> Self {
        ToleranceIndex {
            tol,
            buckets: FxHashMap::default(),
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

    /// The id of the first-come representative within tolerance of
    /// `z`; on a miss `z` becomes a representative under the id `mint`
    /// returns (called only then).
    #[inline]
    pub(crate) fn find_or_insert_with(
        &mut self,
        z: C64,
        mint: impl FnOnce() -> WeightId,
    ) -> WeightId {
        let w = 2.0 * self.tol;
        let (kr, ki) = ((z.re / w).round() as i64, (z.im / w).round() as i64);
        for dr in -1..=1i64 {
            for di in -1..=1i64 {
                // The bucket key saturates at i64::MAX/MIN for huge values
                // (the `as i64` cast clamps), so the probe must saturate too.
                let key = (kr.saturating_add(dr), ki.saturating_add(di));
                let Some(&(mut at, _)) = self.buckets.get(&key) else {
                    continue;
                };
                while at != NIL {
                    let rep = self.reps[at as usize];
                    if (rep.value.re - z.re).abs() <= self.tol
                        && (rep.value.im - z.im).abs() <= self.tol
                    {
                        return rep.id;
                    }
                    at = rep.next;
                }
            }
        }
        let id = mint();
        assert!(self.reps.len() < NIL as usize, "tolerance index full");
        let at = self.reps.len() as u32;
        self.reps.push(Representative {
            value: z,
            id,
            next: NIL,
        });
        match self.buckets.entry((kr, ki)) {
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
        self.buckets.clear();
        self.reps.clear();
    }

    /// Bytes of backing storage: the representative vector's capacity
    /// plus the bucket map's (entry size and one control byte per
    /// bucket, the std hash-table layout).
    pub(crate) fn bytes_used(&self) -> usize {
        let bucket = std::mem::size_of::<((i64, i64), (u32, u32))>();
        self.reps.capacity() * std::mem::size_of::<Representative>()
            + self.buckets.capacity() * (bucket + 1)
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
