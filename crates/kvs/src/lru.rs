//! One bounded LRU: a map bounded by total cost *and* by entry count that
//! evicts the least recently used entry first.
//!
//! Recency is a doubly linked list threaded through a slab by index, so a
//! hit moves two links and allocates nothing, and an eviction pops the
//! list's tail instead of scanning for the oldest stamp.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// "No slot": the end of the recency list in either direction.
const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    /// What the entry was charged going in, refunded when it leaves.
    cost: usize,
    newer: usize,
    older: usize,
}

/// A map from `K` to `V` holding at most `max_entries` entries whose costs
/// (as `cost_of` prices them on the way in) sum to at most `max_cost`.
pub struct BoundedLru<K, V> {
    index: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    free: Vec<usize>,
    newest: usize,
    oldest: usize,
    cost: usize,
    max_cost: usize,
    max_entries: usize,
    cost_of: fn(&K, &V) -> usize,
}

impl<K: Hash + Eq + Clone, V> BoundedLru<K, V> {
    /// An empty cache with the given bounds and pricing.
    pub fn new(max_cost: usize, max_entries: usize, cost_of: fn(&K, &V) -> usize) -> Self {
        BoundedLru {
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            newest: NIL,
            oldest: NIL,
            cost: 0,
            max_cost,
            max_entries,
            cost_of,
        }
    }

    fn slot(&mut self, at: usize) -> &mut Slot<K, V> {
        self.slots[at].as_mut().expect("a linked slot is occupied")
    }

    fn unlink(&mut self, at: usize) {
        let (newer, older) = (self.slot(at).newer, self.slot(at).older);
        match newer {
            NIL => self.newest = older,
            n => self.slot(n).older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slot(o).newer = newer,
        }
    }

    fn link_newest(&mut self, at: usize) {
        let was = std::mem::replace(&mut self.newest, at);
        (self.slot(at).newer, self.slot(at).older) = (NIL, was);
        match was {
            NIL => self.oldest = at,
            w => self.slot(w).newer = at,
        }
    }

    fn take(&mut self, at: usize) -> Slot<K, V> {
        self.unlink(at);
        let slot = self.slots[at].take().expect("a linked slot is occupied");
        self.index.remove(&slot.key);
        self.free.push(at);
        self.cost -= slot.cost;
        slot
    }

    /// Mark `key` the most recently used. No-op if absent.
    pub fn touch<Q: Hash + Eq + ?Sized>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
    {
        if let Some(&at) = self.index.get(key) {
            if self.newest != at {
                self.unlink(at);
                self.link_newest(at);
            }
        }
    }

    /// The value under `key`, recency untouched.
    pub fn peek<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let slot = self.slots[*self.index.get(key)?].as_ref();
        Some(&slot.expect("an indexed slot is occupied").value)
    }

    /// The value under `key` for an in-place update, recency untouched. The
    /// entry keeps the cost it was charged at insertion.
    pub fn peek_mut<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        let at = *self.index.get(key)?;
        Some(&mut self.slot(at).value)
    }

    /// Insert (or replace) `key` as the most recently used entry, then
    /// evict least-recently-used entries while over either bound. Returns
    /// how many were evicted, or `None` — the cache left as it was — when
    /// the entry alone costs more than the whole budget.
    pub fn insert(&mut self, key: K, value: V) -> Option<usize> {
        let cost = (self.cost_of)(&key, &value);
        if cost > self.max_cost {
            return None;
        }
        self.remove(&key);
        let at = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[at] = Some(Slot {
            key: key.clone(),
            value,
            cost,
            newer: NIL,
            older: NIL,
        });
        self.index.insert(key, at);
        self.link_newest(at);
        self.cost += cost;
        let mut evicted = 0;
        while self.cost > self.max_cost || self.index.len() > self.max_entries {
            self.take(self.oldest);
            evicted += 1;
        }
        Some(evicted)
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
    {
        let at = *self.index.get(key)?;
        Some(self.take(at).value)
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        (self.newest, self.oldest, self.cost) = (NIL, NIL, 0);
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no entry is held.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total cost charged across all entries.
    pub fn cost(&self) -> usize {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lru(max_cost: usize, max_entries: usize) -> BoundedLru<&'static str, Vec<u8>> {
        BoundedLru::new(max_cost, max_entries, |_, v| v.len())
    }

    #[test]
    fn evicts_least_recently_used_first_under_either_bound() {
        let mut lru = lru(10, 3);
        assert_eq!(lru.insert("a", vec![0; 4]), Some(0));
        assert_eq!(lru.insert("b", vec![0; 4]), Some(0));
        lru.touch("a");
        // Over the cost bound: "b" is now the oldest.
        assert_eq!(lru.insert("c", vec![0; 4]), Some(1));
        assert!(lru.peek("b").is_none() && lru.peek("a").is_some());
        assert_eq!((lru.len(), lru.cost()), (2, 8));
        // Over the entry bound: "a" was touched before "c" went in.
        assert_eq!(lru.insert("d", vec![]), Some(0));
        assert_eq!(lru.insert("e", vec![]), Some(1));
        assert!(lru.peek("a").is_none());
        assert_eq!((lru.len(), lru.cost()), (3, 4));
    }

    #[test]
    fn an_entry_over_the_whole_budget_is_refused_and_changes_nothing() {
        let mut lru = lru(8, 8);
        lru.insert("a", vec![1; 8]);
        assert_eq!(lru.insert("a", vec![2; 9]), None);
        assert_eq!(lru.peek("a"), Some(&vec![1; 8]));
        assert_eq!(lru.cost(), 8);
    }

    #[test]
    fn replace_remove_and_clear_keep_the_accounts_and_reuse_slots() {
        let mut lru = lru(100, 100);
        lru.insert("a", vec![0; 10]);
        lru.insert("b", vec![0; 20]);
        lru.insert("a", vec![0; 1]);
        assert_eq!((lru.len(), lru.cost()), (2, 21));
        lru.peek_mut("b").unwrap().clear();
        assert_eq!(lru.remove("b"), Some(vec![]));
        assert_eq!(lru.cost(), 1, "an entry refunds what it was charged");
        assert_eq!(lru.remove("b"), None);
        lru.insert("c", vec![0; 5]);
        assert_eq!(lru.slots.len(), 2, "freed slots are reused");
        lru.clear();
        assert!(lru.is_empty() && lru.cost() == 0);
        lru.insert("d", vec![0; 3]);
        lru.touch("d");
        assert_eq!((lru.len(), lru.cost()), (1, 3));
    }
}
