//! A flat point-lookup index: `u64` keys to small `Copy` values.
//!
//! Open addressing with linear probing in one power-of-two table. The
//! hash is a fixed multiplicative (Fibonacci) hash, not a per-process
//! `RandomState`, and the map has no iteration API, so nothing about its
//! layout can reach a result: the engine only asks it "which value has
//! this key". That is why it may stand in for a `BTreeMap` on the
//! per-request path while simlint's `collections` ban on
//! `HashMap`/`HashSet` stays.
//!
//! Deletion shifts the rest of the probe run back (no tombstones), so a
//! table never fills with dead slots however long a run churns. Load stays
//! at or below 1/2; the table doubles on demand and allocates nothing
//! before its first insert.

/// The key that marks a free slot; the map cannot hold it.
const EMPTY: u64 = u64::MAX;

/// Slots in the first table.
const MIN_SLOTS: usize = 8;

/// An open-addressing map from `u64` keys (any but `u64::MAX`) to `V`.
///
/// Keys and values sit in two parallel arrays: a probe walks only the
/// dense key array, and a free slot costs no value padding.
#[derive(Debug)]
pub(crate) struct FlatMap<V> {
    /// The key per slot; `EMPTY` marks a free slot.
    keys: Vec<u64>,
    /// The value per slot; stale in a free slot.
    vals: Vec<V>,
    len: usize,
    /// `64 - log2(keys.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl<V: Copy> FlatMap<V> {
    /// An empty map; it allocates on its first insert.
    pub(crate) fn new() -> Self {
        FlatMap {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
            shift: 64,
        }
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `key`, or the free slot ending its probe run.
    /// The table must be allocated.
    fn probe(&self, key: u64) -> usize {
        let mask = self.mask();
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot holding `key`, if any.
    fn find(&self, key: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let i = self.probe(key);
        (self.keys[i] == key).then_some(i)
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: u64) -> Option<V> {
        self.find(key).map(|i| self.vals[i])
    }

    /// Whether `key` is present.
    pub(crate) fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Stores `value` under `key`, returning the value it replaces.
    ///
    /// # Panics
    ///
    /// If `key` is `u64::MAX`, the free-slot marker.
    pub(crate) fn insert(&mut self, key: u64, value: V) -> Option<V> {
        assert!(key != EMPTY, "FlatMap cannot hold key u64::MAX");
        if !self.keys.is_empty() {
            let i = self.probe(key);
            if self.keys[i] == key {
                return Some(std::mem::replace(&mut self.vals[i], value));
            }
        }
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow(value);
        }
        let i = self.probe(key);
        self.keys[i] = key;
        self.vals[i] = value;
        self.len += 1;
        None
    }

    /// Doubles the table (or allocates the first one) and re-homes every
    /// entry. `fill` is the placeholder value of the new free slots.
    fn grow(&mut self, fill: V) {
        let n = (self.keys.len() * 2).max(MIN_SLOTS);
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; n]);
        let vals = std::mem::replace(&mut self.vals, vec![fill; n]);
        self.shift = 64 - n.trailing_zeros();
        for (k, v) in keys.into_iter().zip(vals) {
            if k != EMPTY {
                let i = self.probe(k);
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }

    /// Removes `key`, returning its value.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        let mut hole = self.find(key)?;
        let value = self.vals[hole];
        // Backward shift: walk the rest of the probe run and move each
        // entry whose home is not inside (hole, j] into the hole, so every
        // remaining key is still reachable from its home without gaps.
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            let from_home = j.wrapping_sub(self.home(k)) & mask;
            let from_hole = j.wrapping_sub(hole) & mask;
            if from_home >= from_hole {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        self.len -= 1;
        Some(value)
    }

    /// Removes every entry, keeping the table.
    pub(crate) fn clear(&mut self) {
        if self.len > 0 {
            self.keys.fill(EMPTY);
            self.len = 0;
        }
    }

    /// Slots in the table (zero before the first insert).
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_sim::check::check_cases;
    use mimd_sim::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn a_never_inserted_map_holds_no_heap() {
        let mut m = FlatMap::<u32>::new();
        assert_eq!(m.get(7), None);
        assert_eq!(m.remove(7), None);
        m.clear();
        assert!(m.is_empty());
        assert_eq!((m.keys.capacity(), m.vals.capacity()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "u64::MAX")]
    fn the_free_slot_marker_is_not_a_key() {
        FlatMap::new().insert(u64::MAX, 0u8);
    }

    /// `n` keys whose homes all fall on one slot of a `slots`-slot table.
    fn colliding_keys(slots: usize, n: usize) -> Vec<u64> {
        let probe = FlatMap::<u8> {
            keys: vec![EMPTY; slots],
            vals: vec![0; slots],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        };
        let target = slots - 1; // The last slot, so probe runs wrap.
        (0..u64::MAX)
            .filter(|&k| probe.home(k) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn flat_map_matches_btreemap() {
        check_cases("flat map == BTreeMap", 48, |case, rng| {
            let mut ops = SimRng::named(rng.below(u64::MAX), "flat-diff");
            // Small dense ranges, then keys that share a home slot in the
            // 8-, 16- and 32-slot tables (runs wrap the table's end).
            let keys: Vec<u64> = match case % 4 {
                0 => (0..24).collect(),
                1 => ((1 << 40)..(1 << 40) + 96).collect(),
                2 => colliding_keys(MIN_SLOTS, 12),
                _ => {
                    let mut k = colliding_keys(16, 8);
                    k.extend(colliding_keys(32, 8));
                    k.extend(0..8);
                    k.sort_unstable();
                    k.dedup();
                    k
                }
            };
            let mut fast = FlatMap::new();
            let mut slow = BTreeMap::new();
            let mut peak_slots = 0;
            for step in 0..800 {
                let key = keys[ops.below(keys.len() as u64) as usize];
                let value = ops.below(1_000) as u32;
                // Inserts outnumber removes, so the map fills up through
                // several doublings, with a rare clear to start over.
                let ctx = format!("case {case} step {step} key {key}");
                match ops.below(200) {
                    0 => {
                        fast.clear();
                        slow.clear();
                    }
                    1..=100 => assert_eq!(
                        fast.insert(key, value),
                        slow.insert(key, value),
                        "{ctx}: insert"
                    ),
                    101..=160 => assert_eq!(fast.remove(key), slow.remove(&key), "{ctx}: remove"),
                    _ => assert_eq!(fast.get(key), slow.get(&key).copied(), "{ctx}: get"),
                }
                assert_eq!(fast.len(), slow.len(), "{ctx}: len");
                for &k in &keys {
                    assert_eq!(fast.get(k), slow.get(&k).copied(), "{ctx}: get {k}");
                    assert_eq!(
                        fast.contains_key(k),
                        slow.contains_key(&k),
                        "{ctx}: has {k}"
                    );
                }
                assert!(fast.len() * 2 <= fast.slot_count(), "{ctx}: load over 1/2");
                peak_slots = peak_slots.max(fast.slot_count());
            }
            assert!(
                peak_slots >= 4 * MIN_SLOTS,
                "case {case}: too few doublings"
            );
        });
    }
}
