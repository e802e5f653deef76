//! Fixed-width bit-array fingerprints.
//!
//! CT-Index does not store its (tree and cycle) features: it hashes the
//! canonical label of every enumerated feature into a fixed-size bit array —
//! one fingerprint per dataset graph, 4096 bits in the paper's configuration.
//! Filtering a query then reduces to a bitwise check: a graph can only
//! contain the query if the graph's fingerprint has a 1 in every position
//! where the query's fingerprint has a 1. Hash collisions make the filter
//! lossy (different features may map to the same bit), which is exactly the
//! space/filtering-power trade-off the paper attributes to CT-Index.

use crate::canonical::FeatureKey;

/// A fixed-width bit-array fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    bits: usize,
    words: Vec<u64>,
}

impl Fingerprint {
    /// Creates an all-zero fingerprint with the given number of bits
    /// (rounded up to a multiple of 64). At least 64 bits are allocated.
    pub fn new(bits: usize) -> Self {
        let bits = bits.max(64);
        let words = bits.div_ceil(64);
        Fingerprint {
            bits: words * 64,
            words: vec![0; words],
        }
    }

    /// Number of bits in the fingerprint.
    pub fn bit_len(&self) -> usize {
        self.bits
    }

    /// Number of bits currently set.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hashes a feature key and sets `hashes_per_key` positions derived from
    /// it (double hashing). CT-Index uses a single position per feature; a
    /// higher value behaves like a Bloom filter with more probes.
    pub fn insert_key(&mut self, key: &FeatureKey, hashes_per_key: usize) {
        let (h1, h2) = hash_pair(key.as_str());
        let probes = hashes_per_key.max(1);
        for i in 0..probes {
            let pos = (h1.wrapping_add((i as u64).wrapping_mul(h2)) % self.bits as u64) as usize;
            self.set(pos);
        }
    }

    /// Sets an individual bit.
    pub fn set(&mut self, position: usize) {
        assert!(position < self.bits, "bit position out of range");
        self.words[position / 64] |= 1u64 << (position % 64);
    }

    /// Clears an individual bit — for a collection fingerprint whose owner
    /// counts, per bit, the members that set it (see [`Fingerprint::ones`])
    /// and has just seen the last of them leave.
    pub fn clear(&mut self, position: usize) {
        assert!(position < self.bits, "bit position out of range");
        self.words[position / 64] &= !(1u64 << (position % 64));
    }

    /// The positions of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// Tests an individual bit.
    pub fn get(&self, position: usize) -> bool {
        if position >= self.bits {
            return false;
        }
        (self.words[position / 64] >> (position % 64)) & 1 == 1
    }

    /// `true` iff every bit set in `other` is also set in `self` — the
    /// CT-Index filtering test (`self` is the dataset graph's fingerprint,
    /// `other` the query's).
    pub fn covers(&self, other: &Fingerprint) -> bool {
        assert_eq!(
            self.bits, other.bits,
            "fingerprints must have the same width"
        );
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == *b)
    }

    /// ORs `other`'s bits into `self`. This is how a *collection* synopsis
    /// is folded from per-graph fingerprints (e.g. a shard-level routing
    /// fingerprint): the union covers every member's fingerprint, so any
    /// query fingerprint covered by some member is covered by the union.
    pub fn union_with(&mut self, other: &Fingerprint) {
        assert_eq!(
            self.bits, other.bits,
            "fingerprints must have the same width"
        );
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// Estimated heap bytes used by the fingerprint.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>() + std::mem::size_of::<Self>()
    }
}

/// 64-bit FNV-1a hash plus a secondary hash for double hashing.
fn hash_pair(text: &str) -> (u64, u64) {
    let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h1 ^= *b as u64;
        h1 = h1.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Derive a second, independent-ish hash by re-mixing.
    let mut h2 = h1 ^ 0x9e37_79b9_7f4a_7c15;
    h2 ^= h2 >> 33;
    h2 = h2.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h2 ^= h2 >> 33;
    // Make the second hash odd so every probe position can be reached.
    (h1, h2 | 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> FeatureKey {
        FeatureKey::from_raw(s)
    }

    #[test]
    fn new_fingerprint_is_empty() {
        let fp = Fingerprint::new(4096);
        assert_eq!(fp.bit_len(), 4096);
        assert_eq!(fp.count_ones(), 0);
    }

    #[test]
    fn width_is_rounded_up_to_word_multiple() {
        let fp = Fingerprint::new(100);
        assert_eq!(fp.bit_len(), 128);
        let tiny = Fingerprint::new(1);
        assert_eq!(tiny.bit_len(), 64);
    }

    #[test]
    fn insert_key_sets_bits_deterministically() {
        let mut a = Fingerprint::new(512);
        let mut b = Fingerprint::new(512);
        a.insert_key(&key("T:(1(2))"), 1);
        b.insert_key(&key("T:(1(2))"), 1);
        assert_eq!(a, b);
        assert_eq!(a.count_ones(), 1);
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut fp = Fingerprint::new(128);
        fp.set(0);
        fp.set(63);
        fp.set(64);
        fp.set(127);
        assert!(fp.get(0) && fp.get(63) && fp.get(64) && fp.get(127));
        assert!(!fp.get(1));
        assert!(!fp.get(4096)); // out of range reads as false
        assert_eq!(fp.count_ones(), 4);
    }

    #[test]
    fn ones_lists_the_set_bits_and_clear_unsets_them() {
        let mut fp = Fingerprint::new(192);
        assert_eq!(fp.ones().count(), 0);
        for pos in [191, 0, 64, 63, 100] {
            fp.set(pos);
        }
        assert_eq!(fp.ones().collect::<Vec<_>>(), [0, 63, 64, 100, 191]);
        fp.clear(64);
        fp.clear(5); // clearing an unset bit is a no-op
        assert_eq!(fp.ones().collect::<Vec<_>>(), [0, 63, 100, 191]);
        assert!(!fp.get(64));
        for pos in fp.ones().collect::<Vec<_>>() {
            fp.clear(pos);
        }
        assert_eq!(fp, Fingerprint::new(192));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut fp = Fingerprint::new(64);
        fp.set(64);
    }

    #[test]
    fn covers_detects_subset_relation() {
        let mut graph_fp = Fingerprint::new(256);
        let mut query_fp = Fingerprint::new(256);
        for k in ["P:1,2", "P:2,3", "T:(1(2)(3))"] {
            graph_fp.insert_key(&key(k), 1);
        }
        query_fp.insert_key(&key("P:1,2"), 1);
        assert!(graph_fp.covers(&query_fp));
        // A feature the graph does not have breaks coverage (with high
        // probability; these particular keys do not collide at 256 bits).
        query_fp.insert_key(&key("C:9,9,9"), 1);
        assert!(!graph_fp.covers(&query_fp));
        // Every fingerprint covers the empty fingerprint.
        assert!(graph_fp.covers(&Fingerprint::new(256)));
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn covers_requires_equal_width() {
        let a = Fingerprint::new(64);
        let b = Fingerprint::new(128);
        let _ = a.covers(&b);
    }

    #[test]
    fn multiple_probes_set_multiple_bits() {
        let mut fp = Fingerprint::new(4096);
        fp.insert_key(&key("G:x"), 3);
        assert!(fp.count_ones() >= 2); // probes may rarely collide, never all three
    }

    #[test]
    fn different_keys_usually_map_to_different_bits() {
        let mut fp = Fingerprint::new(4096);
        for i in 0..50 {
            fp.insert_key(&key(&format!("P:{i}")), 1);
        }
        // Some collisions are tolerated, but most keys must land on distinct
        // bits for the filter to be useful.
        assert!(fp.count_ones() > 40);
    }

    #[test]
    fn memory_accounting() {
        let fp = Fingerprint::new(4096);
        assert!(fp.memory_bytes() >= 4096 / 8);
    }
}
