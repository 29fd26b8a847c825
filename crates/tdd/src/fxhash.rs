//! A minimal Fx-style hasher for the decision-diagram hot tables.
//!
//! Every TDD operation funnels through hash-map lookups — the unique
//! table on `make_node`, the `add`/`cont` computed tables on every
//! recursion, weight interning on every arithmetic result. The standard
//! library's SipHash is DoS-resistant but an order of magnitude slower
//! than needed for these tiny fixed-width keys (a handful of `u32`s),
//! and none of them hash attacker-controlled data. This is the rustc
//! "FxHash" multiply-rotate scheme: word-at-a-time, no finalisation,
//! deterministic across runs (bucket placement never affects values —
//! hash-consing and interning are keyed by full equality).

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` on the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` on the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Bytes of backing storage `map` holds: per slot of capacity, the
/// stored `(K, V)` tuple, alignment padding included, and one control
/// byte (the std hash-table layout). Heap owned by keys or values is
/// not counted.
pub(crate) fn map_bytes<K, V>(map: &FxHashMap<K, V>) -> usize {
    map.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

/// 64-bit Fx mixing constant (the golden-ratio fraction rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc Fx hasher: `state = (state.rotl(5) ^ word) * SEED` per
/// word.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// One-shot hash of a value, for stripe selection.
#[inline]
pub fn hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equal_and_deterministically() {
        let a = hash_one(&(1u32, 2u32, 3u32));
        let b = hash_one(&(1u32, 2u32, 3u32));
        assert_eq!(a, b);
        assert_ne!(a, hash_one(&(1u32, 2u32, 4u32)));
    }

    #[test]
    fn maps_work_on_the_fx_hasher() {
        let mut map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for k in 0..1000u32 {
            map.insert((k, k ^ 7), k);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(41, 41 ^ 7)), Some(&41));
        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(3));
        assert!(!set.insert(3));
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3]);
        let a = h.finish();
        let mut h = FxHasher::default();
        h.write(&[1, 2, 4]);
        assert_ne!(a, h.finish());
    }
}
