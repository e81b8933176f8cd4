//! A generation-tagged slab: the one store for every record the engine
//! keeps live during a run — queued tasks, logical requests, fragment
//! jobs (a parity operation's included) and mirror-duplicate generations.
//!
//! A record is addressed by a [`Key`], its slot plus the slot's
//! generation when the record went in. Removing a record bumps its slot's
//! generation, so a stale key never matches the slot's next occupant and
//! lookups through it return `None`. Freed slots are reused last-in
//! first-out, so a store holds no more slots than were live at once,
//! whatever order its records leave in.

/// A stable handle to a slab-resident record.
///
/// The generation tag makes stale handles harmless: removing a record
/// and reusing its slot bumps the generation, so an old key no longer
/// matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// Records of one kind, each behind a generation-tagged [`Key`].
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Free slots; the last one freed is reused first.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// Stores `val` and returns its key.
    pub(crate) fn insert(&mut self, val: T) -> Key {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot { gen: 0, val: None });
            (self.slots.len() - 1) as u32
        });
        let s = &mut self.slots[slot as usize];
        s.val = Some(val);
        Key { slot, gen: s.gen }
    }

    /// The record behind `key`, if it is still live.
    pub(crate) fn get(&self, key: Key) -> Option<&T> {
        let s = self.slots.get(key.slot as usize)?;
        if s.gen != key.gen {
            return None;
        }
        s.val.as_ref()
    }

    pub(crate) fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        let s = self.slots.get_mut(key.slot as usize)?;
        if s.gen != key.gen {
            return None;
        }
        s.val.as_mut()
    }

    /// Removes and returns the record behind `key`; `None` if the key is
    /// stale. The slot's generation moves on, so `key` stays stale.
    pub(crate) fn remove(&mut self, key: Key) -> Option<T> {
        let s = self.slots.get_mut(key.slot as usize)?;
        if s.gen != key.gen {
            return None;
        }
        let val = s.val.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(key.slot);
        Some(val)
    }

    /// The key of the record in `slot`, if the slot is occupied.
    pub(crate) fn key_at(&self, slot: u32) -> Option<Key> {
        let s = self.slots.get(slot as usize)?;
        s.val.as_ref().map(|_| Key { slot, gen: s.gen })
    }

    /// Whether no record is live.
    pub(crate) fn is_empty(&self) -> bool {
        self.free.len() == self.slots.len()
    }

    /// Every live record, in slot order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.val.as_ref())
    }

    /// Slots allocated so far: the most records ever live at once.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use mimd_sim::check::check_cases;
    use mimd_sim::SimRng;

    use super::*;

    /// Random insert/get/get_mut/remove sequences against a `BTreeMap`
    /// keyed by issue order. Lookups and removals draw from every key ever
    /// issued, so stale keys — including ones whose slot a later record
    /// now holds — are exercised throughout.
    #[test]
    fn slab_matches_btreemap() {
        check_cases("slab == BTreeMap", 48, |case, rng| {
            let mut ops = SimRng::named(rng.below(u64::MAX), "slab-diff");
            let mut slab = Slab::default();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut issued: Vec<Key> = Vec::new();
            let (mut peak, mut stale_on_reused) = (0, 0);
            // Insert-heavy cases grow the slab; remove-heavy ones keep it
            // small and churn its slots.
            let insert_share = [100, 60, 45][(case % 3) as usize];
            for step in 0..600 {
                let ctx = format!("case {case} step {step}");
                let pick = |ops: &mut SimRng| ops.below(issued.len() as u64);
                match ops.below(200) {
                    r if r < insert_share || issued.is_empty() => {
                        let value = ops.below(1_000) as u32;
                        let key = slab.insert(value);
                        model.insert(issued.len() as u64, value);
                        issued.push(key);
                    }
                    r if r < 120 => {
                        let i = pick(&mut ops);
                        let want = model.remove(&i);
                        assert_eq!(slab.remove(issued[i as usize]), want, "{ctx}: remove");
                    }
                    r if r < 150 => {
                        let i = pick(&mut ops);
                        let bump = ops.below(1_000) as u32;
                        let got = slab.get_mut(issued[i as usize]).map(|v| {
                            *v += bump;
                            *v
                        });
                        let want = model.get_mut(&i).map(|v| {
                            *v += bump;
                            *v
                        });
                        assert_eq!(got, want, "{ctx}: get_mut");
                    }
                    _ => {
                        let i = pick(&mut ops);
                        let got = slab.get(issued[i as usize]).copied();
                        assert_eq!(got, model.get(&i).copied(), "{ctx}: get");
                    }
                }
                for (i, &key) in issued.iter().enumerate() {
                    let want = model.get(&(i as u64)).copied();
                    assert_eq!(slab.get(key).copied(), want, "{ctx}: get key {i}");
                    if want.is_none() && slab.key_at(key.slot).is_some() {
                        stale_on_reused += 1;
                    }
                }
                let mut live: Vec<u32> = slab.values().copied().collect();
                let mut want: Vec<u32> = model.values().copied().collect();
                live.sort_unstable();
                want.sort_unstable();
                assert_eq!(live, want, "{ctx}: values");
                assert_eq!(slab.is_empty(), model.is_empty(), "{ctx}: is_empty");
                peak = peak.max(model.len());
                assert!(
                    slab.slot_count() <= peak,
                    "{ctx}: {} slots for a peak of {peak} live",
                    slab.slot_count()
                );
            }
            assert!(
                stale_on_reused > 0,
                "case {case}: no stale key met its slot's next occupant"
            );
        });
    }
}
