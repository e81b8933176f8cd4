//! The volatile memory cache used by the §4.1 "Comparison Against Memory
//! Caching" experiment (Figure 11).
//!
//! An LRU cache over 4 KiB blocks sits in front of the array. Reads whose
//! blocks are all resident complete at memory speed; synchronous writes are
//! "forced to disks in both alternatives" but leave their blocks resident,
//! so the read-after-write traffic of Table 3 becomes cache hits.
//!
//! Recency is an intrusive doubly linked list threaded through a slab of
//! nodes, least recent at the head. A touched range moves (or appends) its
//! blocks to the tail in ascending block order, so the list is always
//! sorted by (last touch, block id): the victim order of a stamp-per-touch
//! LRU whose ties go to the lower block, with O(1) eviction.

use std::collections::BTreeMap;

/// Sectors per cache block (4 KiB).
pub const CACHE_BLOCK_SECTORS: u64 = 8;

/// Slab slots beyond the capacity: a touched range is linked in before the
/// overflow is evicted, so ranges up to this many new blocks never grow the
/// slab.
const SLAB_SLACK: usize = 64;

/// The null link.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    block: u64,
    prev: u32,
    next: u32,
}

/// An LRU block cache.
///
/// # Examples
///
/// ```
/// use mimd_core::engine::cache::LruCache;
///
/// let mut c = LruCache::new(2 * 4096);
/// c.insert_range(0, 8);
/// assert!(c.contains_range(0, 8));
/// assert!(!c.contains_range(8, 8));
/// ```
#[derive(Debug)]
pub struct LruCache {
    capacity_blocks: usize,
    /// Block id -> slab slot. Ordered map so the structure, like the
    /// simulated cache contents, is reproducible across runs.
    slots: BTreeMap<u64, u32>,
    nodes: Vec<Node>,
    /// Head of the free-slot chain (linked through `next`).
    free: u32,
    /// Least recently used block.
    head: u32,
    /// Most recently used block.
    tail: u32,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Creates a cache of the given size in bytes (rounded down to whole
    /// 4 KiB blocks; a zero capacity caches nothing).
    pub fn new(bytes: u64) -> Self {
        let capacity_blocks = (bytes / (CACHE_BLOCK_SECTORS * 512)) as usize;
        let slab = if capacity_blocks == 0 {
            0
        } else {
            capacity_blocks + SLAB_SLACK
        };
        LruCache {
            capacity_blocks,
            slots: BTreeMap::new(),
            nodes: Vec::with_capacity(slab),
            free: NIL,
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Resident blocks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Hits recorded by [`LruCache::lookup_range`].
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`LruCache::lookup_range`].
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn blocks(lbn: u64, sectors: u32) -> std::ops::RangeInclusive<u64> {
        let first = lbn / CACHE_BLOCK_SECTORS;
        let last = (lbn + sectors as u64 - 1) / CACHE_BLOCK_SECTORS;
        first..=last
    }

    /// Whether every block of the range is resident (no LRU update).
    pub fn contains_range(&self, lbn: u64, sectors: u32) -> bool {
        if sectors == 0 || self.capacity_blocks == 0 {
            return false;
        }
        Self::blocks(lbn, sectors).all(|b| self.slots.contains_key(&b))
    }

    /// Checks residency, counts the hit/miss, and makes the range most
    /// recently used on a hit. Returns whether the whole range was resident.
    pub fn lookup_range(&mut self, lbn: u64, sectors: u32) -> bool {
        let hit = self.contains_range(lbn, sectors);
        if hit {
            self.hits += 1;
            for b in Self::blocks(lbn, sectors) {
                let slot = self.slots[&b];
                self.unlink(slot);
                self.push_tail(slot);
            }
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Makes a range resident (evicting LRU blocks as needed).
    pub fn insert_range(&mut self, lbn: u64, sectors: u32) {
        self.insert_range_with(lbn, sectors, |_| {});
    }

    /// [`LruCache::insert_range`], reporting each evicted block in order.
    fn insert_range_with(&mut self, lbn: u64, sectors: u32, mut on_evict: impl FnMut(u64)) {
        if sectors == 0 || self.capacity_blocks == 0 {
            return;
        }
        for b in Self::blocks(lbn, sectors) {
            let slot = match self.slots.get(&b) {
                Some(&slot) => {
                    self.unlink(slot);
                    slot
                }
                None => {
                    let slot = self.alloc(b);
                    self.slots.insert(b, slot);
                    slot
                }
            };
            self.push_tail(slot);
        }
        while self.slots.len() > self.capacity_blocks {
            let victim = self.head;
            let block = self.nodes[victim as usize].block;
            self.unlink(victim);
            self.slots.remove(&block);
            self.nodes[victim as usize].next = self.free;
            self.free = victim;
            on_evict(block);
        }
    }

    /// A free slab slot holding `block`, unlinked.
    fn alloc(&mut self, block: u64) -> u32 {
        let node = Node {
            block,
            prev: NIL,
            next: NIL,
        };
        if self.free == NIL {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn push_tail(&mut self, slot: u32) {
        let n = &mut self.nodes[slot as usize];
        n.prev = self.tail;
        n.next = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.nodes[self.tail as usize].next = slot;
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_sim::check::check_cases;
    use mimd_sim::SimRng;

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = LruCache::new(0);
        c.insert_range(0, 64);
        assert!(!c.lookup_range(0, 8));
        assert!(c.is_empty());
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn insert_then_hit() {
        let mut c = LruCache::new(16 * 4096);
        c.insert_range(0, 16); // Blocks 0, 1.
        assert!(c.lookup_range(0, 8));
        assert!(c.lookup_range(8, 8));
        assert!(c.lookup_range(0, 16));
        assert!(!c.lookup_range(16, 8));
        assert_eq!(c.hits(), 3);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn partial_residency_is_a_miss() {
        let mut c = LruCache::new(16 * 4096);
        c.insert_range(0, 8);
        assert!(!c.lookup_range(0, 16));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = LruCache::new(2 * 4096); // Two blocks.
        c.insert_range(0, 8); // Block 0.
        c.insert_range(8, 8); // Block 1.
        c.insert_range(16, 8); // Block 2 evicts block 0.
        assert!(!c.contains_range(0, 8));
        assert!(c.contains_range(8, 8));
        assert!(c.contains_range(16, 8));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut c = LruCache::new(2 * 4096);
        c.insert_range(0, 8);
        c.insert_range(8, 8);
        assert!(c.lookup_range(0, 8)); // Touch block 0.
        c.insert_range(16, 8); // Should evict block 1, not 0.
        assert!(c.contains_range(0, 8));
        assert!(!c.contains_range(8, 8));
    }

    #[test]
    fn unaligned_ranges_cover_their_blocks() {
        let mut c = LruCache::new(64 * 4096);
        c.insert_range(4, 8); // Spans blocks 0 and 1.
        assert!(c.contains_range(0, 8));
        assert!(c.contains_range(8, 8));
    }

    #[test]
    fn slab_does_not_grow_at_capacity() {
        let mut c = LruCache::new(64 * 4096);
        let reserved = c.nodes.capacity();
        for i in 0..10_000u64 {
            c.insert_range(i * 13 % 4_096, 1 + (i % 200) as u32);
        }
        assert_eq!(c.len(), 64);
        assert_eq!(c.nodes.capacity(), reserved);
    }

    /// The stamp-per-touch LRU with linear-scan eviction that the slab list
    /// replaced: the reference the differential test holds it to.
    struct StampLru {
        capacity_blocks: usize,
        stamps: BTreeMap<u64, u64>,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl StampLru {
        fn new(bytes: u64) -> Self {
            StampLru {
                capacity_blocks: (bytes / (CACHE_BLOCK_SECTORS * 512)) as usize,
                stamps: BTreeMap::new(),
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn contains_range(&self, lbn: u64, sectors: u32) -> bool {
            if sectors == 0 || self.capacity_blocks == 0 {
                return false;
            }
            LruCache::blocks(lbn, sectors).all(|b| self.stamps.contains_key(&b))
        }

        fn lookup_range(&mut self, lbn: u64, sectors: u32) -> bool {
            let hit = self.contains_range(lbn, sectors);
            if hit {
                self.hits += 1;
                self.clock += 1;
                for b in LruCache::blocks(lbn, sectors) {
                    self.stamps.insert(b, self.clock);
                }
            } else {
                self.misses += 1;
            }
            hit
        }

        fn insert_range(&mut self, lbn: u64, sectors: u32, victims: &mut Vec<u64>) {
            if sectors == 0 || self.capacity_blocks == 0 {
                return;
            }
            self.clock += 1;
            for b in LruCache::blocks(lbn, sectors) {
                self.stamps.insert(b, self.clock);
            }
            while self.stamps.len() > self.capacity_blocks {
                let (&victim, _) = self
                    .stamps
                    .iter()
                    .min_by_key(|(_, &s)| s)
                    .expect("over capacity means non-empty");
                self.stamps.remove(&victim);
                victims.push(victim);
            }
        }

        /// Resident blocks, least recent first, ties to the lower block.
        fn recency(&self) -> Vec<u64> {
            let mut v: Vec<(u64, u64)> = self.stamps.iter().map(|(&b, &s)| (s, b)).collect();
            v.sort_unstable();
            v.into_iter().map(|(_, b)| b).collect()
        }
    }

    impl LruCache {
        /// Resident blocks from the head of the recency list.
        fn recency(&self) -> Vec<u64> {
            let mut out = Vec::with_capacity(self.len());
            let mut at = self.head;
            while at != NIL {
                out.push(self.nodes[at as usize].block);
                at = self.nodes[at as usize].next;
            }
            out
        }
    }

    #[test]
    fn slab_list_matches_the_stamp_scan_reference() {
        check_cases("lru slab list == stamp scan", 40, |case, rng| {
            let mut ops = SimRng::named(rng.below(u64::MAX), "lru-diff");
            let capacity = [0u64, 1, 2, 7, 64][case as usize % 5];
            // A block span a few times the capacity keeps both hits and
            // evictions frequent.
            let span_sectors = capacity.max(1) * 3 * CACHE_BLOCK_SECTORS;
            // Ranges up to 2.5x the capacity (at least two blocks' worth),
            // unaligned, and sometimes empty.
            let max_sectors = (capacity * CACHE_BLOCK_SECTORS * 5 / 2).max(16);
            let mut fast = LruCache::new(capacity * 4096);
            let mut slow = StampLru::new(capacity * 4096);
            for step in 0..600 {
                let lbn = ops.below(span_sectors);
                let sectors = ops.below(max_sectors + 1) as u32;
                let ctx = format!("cap {capacity} step {step} range {lbn}+{sectors}");
                match ops.below(3) {
                    0 => assert_eq!(
                        fast.lookup_range(lbn, sectors),
                        slow.lookup_range(lbn, sectors),
                        "{ctx}: lookup"
                    ),
                    1 => {
                        let mut got = Vec::new();
                        let mut want = Vec::new();
                        fast.insert_range_with(lbn, sectors, |b| got.push(b));
                        slow.insert_range(lbn, sectors, &mut want);
                        assert_eq!(got, want, "{ctx}: eviction victims");
                    }
                    _ => assert_eq!(
                        fast.contains_range(lbn, sectors),
                        slow.contains_range(lbn, sectors),
                        "{ctx}: contains"
                    ),
                }
                assert_eq!(fast.recency(), slow.recency(), "{ctx}: resident set");
                assert_eq!(
                    (fast.hits(), fast.misses()),
                    (slow.hits, slow.misses),
                    "{ctx}: hit/miss counts"
                );
            }
        });
    }
}
