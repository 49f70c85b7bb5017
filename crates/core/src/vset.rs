//! Compact sorted-vec sets for the detectors' hot state.
//!
//! The per-vertex sets the algorithm consults on every probe — `out_waits`,
//! `in_black`, the lock table's blocker sets — hold a handful of small ids
//! (node, transaction), are read far more often than written, and must
//! iterate in a **deterministic sorted order** (probe send order feeds the
//! golden-determinism digests). A `BTreeSet` satisfies the ordering but
//! pays a node allocation per element and pointer-chasing per lookup;
//! [`VecSet`] keeps the elements in one sorted `Vec`, so
//!
//! * `contains` is a binary search over contiguous memory,
//! * iteration is a slice walk (and `as_slice` lets callers iterate by
//!   index while mutating *other* fields, eliminating the defensive
//!   `clone()`s the probe-propagation path used to make), and
//! * `clear`/refill recycles the allocation.
//!
//! Inserts and removes are `O(len)` memmoves — the right trade for sets
//! bounded by a vertex's degree. The §5 edge sets ([`crate::wfgd::EdgeSet`])
//! are not bounded that way — they grow with the run — and never take that
//! path: they change only by [`VecSet::union_with`], one linear merge per
//! message, and are copied by [`VecSet::with`].

use std::cmp::Ordering;
use std::fmt;

/// A set of `Copy + Ord` ids stored as a sorted vector.
///
/// # Examples
///
/// ```
/// use cmh_core::vset::VecSet;
///
/// let mut s = VecSet::new();
/// assert!(s.insert(3) && s.insert(1) && !s.insert(3));
/// assert_eq!(s.as_slice(), &[1, 3]);
/// assert!(s.contains(&3) && !s.contains(&2));
/// assert!(s.remove(&3) && !s.remove(&3));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct VecSet<T> {
    items: Vec<T>,
}

/// Hand-written: the derive would demand `T: Default`, which id tuples
/// are not, and `entry(..).or_default()` needs this.
impl<T> Default for VecSet<T> {
    fn default() -> Self {
        VecSet { items: Vec::new() }
    }
}

impl<T: Copy + Ord> VecSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        VecSet { items: Vec::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if `value` is in the set (binary search).
    pub fn contains(&self, value: &T) -> bool {
        self.items.binary_search(value).is_ok()
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        match self.items.binary_search(&value) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, value);
                true
            }
        }
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        match self.items.binary_search(value) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<&T> {
        self.items.first()
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The elements as a sorted slice — stable to index while mutating
    /// other fields of the owner.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// `self := self ∪ other` as one two-pointer merge of the two sorted
    /// slices; returns `true` if `self` grew.
    ///
    /// A first forward walk counts the elements of `other` missing from
    /// `self`; when there are none (`other ⊆ self`) nothing is written or
    /// allocated. Otherwise the vector grows once by exactly that count
    /// and the merge runs backwards in place.
    pub fn union_with(&mut self, other: &VecSet<T>) -> bool {
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j, mut missing) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                Ordering::Greater => {
                    missing += 1;
                    j += 1;
                }
            }
        }
        missing += b.len() - j;
        if missing == 0 {
            return false;
        }
        let old = self.items.len();
        self.items.resize(old + missing, b[0]);
        // Invariant: items[..i] and b[..j] are still to be merged into
        // items[..k]; k - i counts the missing elements of b[..j], so the
        // write cursor never overtakes the read cursor.
        let (mut i, mut j, mut k) = (old, b.len(), old + missing);
        while j > 0 {
            k -= 1;
            if i > 0 && self.items[i - 1] > b[j - 1] {
                i -= 1;
                self.items[k] = self.items[i];
            } else {
                j -= 1;
                if i > 0 && self.items[i - 1] == b[j] {
                    i -= 1;
                }
                self.items[k] = b[j];
            }
        }
        true
    }

    /// True if every element of `other` is in `self` (one two-pointer
    /// walk of the two sorted slices).
    pub fn is_superset(&self, other: &VecSet<T>) -> bool {
        let mut mine = self.items.iter();
        other.iter().all(|x| mine.any(|y| y == x))
    }

    /// A copy of the set that also contains `value`: one allocation of the
    /// final size and one pass, instead of `clone` + `insert`'s copy,
    /// regrow and shift.
    pub fn with(&self, value: T) -> VecSet<T> {
        match self.items.binary_search(&value) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut items = Vec::with_capacity(self.items.len() + 1);
                items.extend_from_slice(&self.items[..pos]);
                items.push(value);
                items.extend_from_slice(&self.items[pos..]);
                VecSet { items }
            }
        }
    }
}

/// Full set equality against the oracle's representation, so call sites
/// that compare a detector's set with a `BTreeSet` stay as written.
impl<T: Copy + Ord> PartialEq<std::collections::BTreeSet<T>> for VecSet<T> {
    fn eq(&self, other: &std::collections::BTreeSet<T>) -> bool {
        self.items.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for VecSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl<'a, T: Copy + Ord> IntoIterator for &'a VecSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T> IntoIterator for VecSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<T: Copy + Ord> FromIterator<T> for VecSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items: Vec<T> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        VecSet { items }
    }
}

impl<T: Copy + Ord> Extend<T> for VecSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// A map from `Copy + Ord` keys to values, stored as one sorted vector of
/// pairs — [`VecSet`]'s sibling for the detector tables keyed by node id.
///
/// Replaces the dense index-by-raw-`NodeId` vectors (`latest`,
/// `wait_epoch`) whose length grew to the *largest id ever touched*: fine
/// at N=10, quadratic across a million-vertex network (N processes × N
/// slots). Entries here are bounded by the keys actually used — a vertex's
/// degree / tracked-initiator count — which is what the paper's O(N) array
/// means per process in sparse topologies. Lookup is a binary search over
/// contiguous pairs; insert/remove are `O(len)` memmoves, the right trade
/// for degree-bounded tables.
///
/// # Examples
///
/// ```
/// use cmh_core::vset::VecMap;
///
/// let mut m = VecMap::new();
/// m.insert(3, "c");
/// m.insert(1, "a");
/// assert_eq!(m.get(&3), Some(&"c"));
/// assert_eq!(m.len(), 2);
/// *m.entry_or_default(7) = "g";
/// assert_eq!(m.get(&7), Some(&"g"));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct VecMap<K, V> {
    items: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap { items: Vec::new() }
    }
}

impl<K: Copy + Ord, V> VecMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        VecMap { items: Vec::new() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The value for `key`, if present (binary search).
    pub fn get(&self, key: &K) -> Option<&V> {
        self.items
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.items[i].1)
    }

    /// Mutable access to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.items.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => Some(&mut self.items[i].1),
            Err(_) => None,
        }
    }

    /// Inserts or replaces the value for `key`; returns the previous value
    /// if there was one.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.items.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut self.items[i].1, value)),
            Err(i) => {
                self.items.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes the entry for `key`; returns its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.items.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => Some(self.items.remove(i).1),
            Err(_) => None,
        }
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> std::slice::Iter<'_, (K, V)> {
        self.items.iter()
    }
}

impl<K: Copy + Ord, V: Default> VecMap<K, V> {
    /// Mutable access to the value for `key`, inserting `V::default()`
    /// first if absent.
    pub fn entry_or_default(&mut self, key: K) -> &mut V {
        let i = match self.items.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => i,
            Err(i) => {
                self.items.insert(i, (key, V::default()));
                i
            }
        };
        &mut self.items[i].1
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.items.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_sorted_unique_order() {
        let mut s = VecSet::new();
        for v in [5, 1, 3, 1, 5, 2, 4] {
            s.insert(v);
        }
        assert_eq!(s.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert_eq!(s.first(), Some(&1));
    }

    #[test]
    fn default_does_not_need_a_default_element() {
        struct NoDefault;
        assert_eq!(VecSet::<NoDefault>::default().items.len(), 0);
        assert_eq!(VecMap::<u32, NoDefault>::default().items.len(), 0);
    }

    #[test]
    fn from_iterator_dedups() {
        let s: VecSet<u32> = [3, 1, 3, 2, 2].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn vecmap_matches_btreemap_under_random_mix() {
        use std::collections::BTreeMap;
        let mut m = VecMap::new();
        let mut model = BTreeMap::new();
        let mut state = 6789u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % 24
        };
        for i in 0..2_000u64 {
            let k = rnd();
            match i % 4 {
                0 => assert_eq!(m.remove(&k), model.remove(&k)),
                1 => assert_eq!(m.insert(k, i), model.insert(k, i)),
                2 => {
                    *m.entry_or_default(k) += 1;
                    *model.entry(k).or_default() += 1;
                }
                _ => {
                    assert_eq!(m.get(&k), model.get(&k));
                    assert_eq!(m.get_mut(&k).map(|v| *v), model.get_mut(&k).map(|v| *v));
                }
            }
            assert_eq!(m.len(), model.len());
            assert_eq!(m.is_empty(), model.is_empty());
        }
        assert_eq!(
            m.iter().cloned().collect::<Vec<_>>(),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn matches_btreeset_under_random_mix() {
        use std::collections::BTreeSet;
        let mut s = VecSet::new();
        let mut model = BTreeSet::new();
        let mut state = 12345u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % 32
        };
        for step in 0..2_000 {
            let v = rnd();
            if v % 3 == 0 {
                assert_eq!(s.remove(&v), model.remove(&v));
            } else {
                assert_eq!(s.insert(v), model.insert(v));
            }
            assert_eq!(s.contains(&v), model.contains(&v));
            assert_eq!(s.len(), model.len());
            if step % 8 == 0 {
                // `union_with` against every shape of operand: a subset of
                // `s` (the early exit), a run beyond its largest element
                // (disjoint), and a random draw (interleaved, overlapping).
                let other: VecSet<u32> = match step / 8 % 3 {
                    0 => s.iter().copied().filter(|x| x % 2 == v % 2).collect(),
                    1 => (40 + v..44 + v).collect(),
                    _ => (0..v % 7).map(|_| rnd()).collect(),
                };
                let before = s.clone();
                let other_model: BTreeSet<u32> = other.clone().into_iter().collect();
                assert_eq!(s.is_superset(&other), model.is_superset(&other_model));
                let grew = s.union_with(&other);
                model.extend(other.iter().copied());
                assert_eq!(grew, s.len() > before.len());
                assert!(s.is_superset(&other) && s.is_superset(&before));
                assert!(grew || s == before);
                assert_eq!(s, model);
                // `with` leaves its receiver alone and agrees with insert.
                let mut inserted = s.clone();
                inserted.insert(v + 1);
                assert_eq!(s.with(v + 1), inserted);
                assert_eq!(s, model);
                // Keep the universe small enough to collide: drop the run.
                for x in 40..80 {
                    assert_eq!(s.remove(&x), model.remove(&x));
                }
            }
        }
        assert_eq!(s, model);
        assert!(VecSet::from_iter([1, 2]) != BTreeSet::from([1, 2, 3]));
        assert!(VecSet::from_iter([1, 2, 4]) != BTreeSet::from([1, 2, 3]));
    }

    #[test]
    fn union_with_a_subset_does_not_touch_the_buffer() {
        let mut s: VecSet<u32> = [1, 3, 5, 7].into_iter().collect();
        let before = (s.as_slice().as_ptr(), s.items.capacity());
        assert!(!s.union_with(&[3, 7].into_iter().collect()));
        assert!(!s.union_with(&VecSet::new()));
        assert_eq!((s.as_slice().as_ptr(), s.items.capacity()), before);
        assert!(s.union_with(&[0, 4, 7, 9].into_iter().collect()));
        assert_eq!(s.as_slice(), &[0, 1, 3, 4, 5, 7, 9]);
        let mut empty = VecSet::new();
        assert!(empty.union_with(&s));
        assert_eq!(empty, s);
    }
}
