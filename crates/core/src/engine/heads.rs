//! The interleaved conductor's per-shard bookkeeping, kept current by
//! touching only the shards an event changed.
//!
//! - [`HeadIndex`] holds every shard's earliest pending event time in a
//!   tournament tree, so the earliest `(time, shard)` sits at the root and
//!   re-keying one shard costs O(log shards).
//! - [`ShardSet`] is a set of shard indices (flags plus a small vector)
//!   for the shards whose head may have moved and the shards holding
//!   undelivered notes: a handful per event, whatever the array width.

use mimd_sim::SimTime;

/// A small set of shard indices with O(1) insert.
#[derive(Debug)]
pub(crate) struct ShardSet {
    member: Vec<bool>,
    list: Vec<u32>,
}

impl ShardSet {
    pub(crate) fn new(shards: usize) -> Self {
        ShardSet {
            member: vec![false; shards],
            list: Vec::new(),
        }
    }

    pub(crate) fn insert(&mut self, shard: usize) {
        if !self.member[shard] {
            self.member[shard] = true;
            self.list.push(shard as u32);
        }
    }

    /// Removes and returns some member.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let s = self.list.pop()? as usize;
        self.member[s] = false;
        Some(s)
    }

    /// Removes and returns the least member `>= from`.
    pub(crate) fn take_first_from(&mut self, from: usize) -> Option<usize> {
        let (pos, s) = self
            .list
            .iter()
            .enumerate()
            .map(|(pos, &s)| (pos, s as usize))
            .filter(|&(_, s)| s >= from)
            .min_by_key(|&(_, s)| s)?;
        self.list.swap_remove(pos);
        self.member[s] = false;
        Some(s)
    }
}

/// Every shard's head time, ordered by `(time, shard index)`.
#[derive(Debug)]
pub(crate) struct HeadIndex {
    /// Each leaf's head; `None` for an idle shard and for the padding
    /// leaves past the last shard.
    heads: Vec<Option<SimTime>>,
    /// `win[n]` is the leaf with the least `(head, index)` under node `n`:
    /// the root is node 1 and leaf `i` is node `leaves + i`.
    win: Vec<u32>,
    leaves: usize,
}

impl HeadIndex {
    /// An index over `shards` idle shards.
    pub(crate) fn new(shards: usize) -> Self {
        let leaves = shards.max(1).next_power_of_two();
        let mut win = vec![0; 2 * leaves];
        for (i, w) in win[leaves..].iter_mut().enumerate() {
            *w = i as u32;
        }
        for n in (1..leaves).rev() {
            win[n] = win[2 * n];
        }
        HeadIndex {
            heads: vec![None; leaves],
            win,
            leaves,
        }
    }

    /// The earliest head and its shard, the lowest index on ties.
    pub(crate) fn min(&self) -> Option<(SimTime, usize)> {
        let w = self.win[1] as usize;
        self.heads[w].map(|t| (t, w))
    }

    /// Re-keys `shard` to `head`.
    pub(crate) fn set(&mut self, shard: usize, head: Option<SimTime>) {
        if self.heads[shard] == head {
            return;
        }
        self.heads[shard] = head;
        let mut n = (self.leaves + shard) / 2;
        while n >= 1 {
            // The left subtree holds the lower indices, so it keeps ties.
            let (l, r) = (self.win[2 * n], self.win[2 * n + 1]);
            self.win[n] = match (self.heads[l as usize], self.heads[r as usize]) {
                (Some(lt), Some(rt)) if rt < lt => r,
                (None, Some(_)) => r,
                _ => l,
            };
            n /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimd_sim::check::check_cases;

    #[test]
    fn index_min_equals_a_linear_scan() {
        check_cases("head index == scan", 40, |case, rng| {
            let shards = 1 + case as usize % 13;
            let mut index = HeadIndex::new(shards);
            let mut heads = vec![None; shards];
            assert_eq!(index.min(), None);
            for _ in 0..400 {
                let s = rng.below(shards as u64) as usize;
                // Few distinct times, so ties are common.
                let head = (!rng.chance(0.3)).then(|| SimTime::from_nanos(rng.below(6)));
                heads[s] = head;
                index.set(s, head);
                let scan = (0..shards).filter_map(|c| heads[c].map(|t| (t, c))).min();
                assert_eq!(index.min(), scan);
            }
        });
    }

    #[test]
    fn shard_set_takes_members_in_sweep_order() {
        let mut set = ShardSet::new(8);
        for s in [5, 1, 6, 1, 3] {
            set.insert(s);
        }
        assert_eq!(set.take_first_from(2), Some(3));
        assert_eq!(set.take_first_from(4), Some(5));
        set.insert(3);
        assert_eq!(set.take_first_from(6), Some(6));
        assert_eq!(set.take_first_from(7), None);
        assert_eq!(set.take_first_from(0), Some(1));
        assert_eq!(set.pop(), Some(3));
        assert_eq!(set.pop(), None);
    }
}
