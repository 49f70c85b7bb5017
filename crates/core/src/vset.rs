//! Compact sorted sets and maps for the detectors' hot state.
//!
//! The per-vertex sets the algorithm consults on every probe — `out_waits`,
//! `in_black`, the lock table's blocker sets — hold a handful of small ids
//! (node, transaction), are read far more often than written, and must
//! iterate in a **deterministic sorted order** (probe send order feeds the
//! golden-determinism digests). A `BTreeSet` satisfies the ordering but
//! pays a node allocation per element and pointer-chasing per lookup;
//! [`VecSet`] keeps the elements sorted and contiguous, and keeps a set of
//! zero or one element inside its own value: only the second element
//! allocates a `Vec`. Most vertices of a large wait-for graph have degree
//! one, so most of their sets own no heap block and a probe hop's lookups
//! stay inside the vertex. So
//!
//! * `contains` is one comparison inline, or a binary search over
//!   contiguous memory,
//! * iteration is a slice walk (and `as_slice` lets callers iterate by
//!   index while mutating *other* fields, eliminating the defensive
//!   `clone()`s the probe-propagation path used to make), and
//! * a set that has spilled keeps its `Vec` when it shrinks or is cleared,
//!   so a refill recycles the allocation.
//!
//! Equality, `Debug` and iteration see only the elements: a spilled set
//! that shrank to one element equals an inline one.
//!
//! Inserts and removes are `O(len)` memmoves — the right trade for sets
//! bounded by a vertex's degree. The §5 edge sets ([`crate::wfgd::EdgeSet`])
//! are not bounded that way — they grow with the run — and never take that
//! path: they change only by [`VecSet::union_with`], one linear merge per
//! message, and are copied by [`VecSet::with`].

use std::cmp::Ordering;
use std::fmt;

/// Room reserved when a set spills: what the first `push` onto an empty
/// `Vec` of small elements reserves, so a spilled set regrows no earlier
/// than the all-`Vec` layout did.
const SPILL_CAP: usize = 4;

/// Storage shared by [`VecSet`] and [`VecMap`]: the elements in ascending
/// order, zero or one of them inline and more in a `Vec`. A `Many` that
/// shrinks stays `Many`, keeping its allocation for the next insert, so it
/// may hold any number of elements: compare through [`Repr::as_slice`].
#[derive(Clone)]
enum Repr<T> {
    Many(Vec<T>),
    One(T),
    Empty,
}

impl<T> Repr<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Repr::Many(v) => v,
            Repr::One(x) => std::slice::from_ref(x),
            Repr::Empty => &[],
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Repr::Many(v) => v,
            Repr::One(x) => std::slice::from_mut(x),
            Repr::Empty => &mut [],
        }
    }

    fn len(&self) -> usize {
        match self {
            Repr::Many(v) => v.len(),
            Repr::One(_) => 1,
            Repr::Empty => 0,
        }
    }

    /// `binary_search_by` over the elements, matching the storage once.
    fn search_by(&self, mut f: impl FnMut(&T) -> Ordering) -> Result<usize, usize> {
        match self {
            Repr::Many(v) => v.binary_search_by(f),
            Repr::One(x) => match f(x) {
                Ordering::Less => Err(1),
                Ordering::Equal => Ok(0),
                Ordering::Greater => Err(0),
            },
            Repr::Empty => Err(0),
        }
    }

    /// Inserts `value` at position `pos` (≤ len) of the order. The second
    /// element spills both into a `Vec`.
    fn insert_at(&mut self, pos: usize, value: T) {
        if let Repr::Many(v) = self {
            return v.insert(pos, value);
        }
        *self = match std::mem::replace(self, Repr::Empty) {
            Repr::One(first) => {
                let mut v = Vec::with_capacity(SPILL_CAP);
                if pos == 0 {
                    v.extend([value, first]);
                } else {
                    v.extend([first, value]);
                }
                Repr::Many(v)
            }
            _ => Repr::One(value),
        };
    }

    fn clear(&mut self) {
        match self {
            Repr::Many(v) => v.clear(),
            _ => *self = Repr::Empty,
        }
    }
}

/// A set of `Copy + Ord` ids, sorted; zero or one of them inline.
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
#[derive(Clone)]
pub struct VecSet<T> {
    repr: Repr<T>,
}

/// Hand-written: the derive would demand `T: Default`, which id tuples
/// are not, and `entry(..).or_default()` needs this.
impl<T> Default for VecSet<T> {
    fn default() -> Self {
        VecSet { repr: Repr::Empty }
    }
}

impl<T: Copy + Ord> VecSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        VecSet::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.repr.len()
    }

    /// True if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `value` is in the set.
    pub fn contains(&self, value: &T) -> bool {
        self.repr.search_by(|x| x.cmp(value)).is_ok()
    }

    /// Inserts `value`; returns `true` if it was not already present.
    ///
    /// Forced inline, as [`VecMap::insert`]: its spill arm makes LLVM
    /// outline it, and then every insert into a spilled set — most of
    /// them on `basic_churn` and `basic_faulty` — pays a call.
    #[inline(always)]
    pub fn insert(&mut self, value: T) -> bool {
        match &mut self.repr {
            Repr::Many(v) => match v.binary_search(&value) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, value);
                    true
                }
            },
            Repr::One(x) if *x == value => false,
            Repr::One(x) => {
                let pos = usize::from(*x < value);
                self.repr.insert_at(pos, value);
                true
            }
            Repr::Empty => {
                self.repr = Repr::One(value);
                true
            }
        }
    }

    /// Removes `value`; returns `true` if it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        match &mut self.repr {
            Repr::Many(v) => match v.binary_search(value) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Repr::One(x) if x == value => {
                self.repr = Repr::Empty;
                true
            }
            _ => false,
        }
    }

    /// Removes all elements, keeping a spilled set's allocation.
    pub fn clear(&mut self) {
        self.repr.clear();
    }

    /// The elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }

    /// The elements as a sorted slice — stable to index while mutating
    /// other fields of the owner.
    pub fn as_slice(&self) -> &[T] {
        self.repr.as_slice()
    }

    /// `self := self ∪ other` as one two-pointer merge of the two sorted
    /// slices; returns `true` if `self` grew.
    ///
    /// A first forward walk counts the elements of `other` missing from
    /// `self`; when there are none (`other ⊆ self`) nothing is written or
    /// allocated. Otherwise the vector grows once by exactly that count
    /// (an inline receiver spills into a new one, unless the union is a
    /// single element) and the merge runs backwards in place.
    pub fn union_with(&mut self, other: &VecSet<T>) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
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
        let old = a.len();
        let mut items = match std::mem::replace(&mut self.repr, Repr::Empty) {
            Repr::Many(v) => v,
            Repr::Empty if missing == 1 => {
                self.repr = Repr::One(b[0]);
                return true;
            }
            inline => {
                let mut v = Vec::with_capacity(SPILL_CAP.max(old + missing));
                v.extend_from_slice(inline.as_slice());
                v
            }
        };
        items.resize(old + missing, b[0]);
        // Invariant: items[..i] and b[..j] are still to be merged into
        // items[..k]; k - i counts the missing elements of b[..j], so the
        // write cursor never overtakes the read cursor.
        let (mut i, mut j, mut k) = (old, b.len(), old + missing);
        while j > 0 {
            k -= 1;
            if i > 0 && items[i - 1] > b[j - 1] {
                i -= 1;
                items[k] = items[i];
            } else {
                j -= 1;
                if i > 0 && items[i - 1] == b[j] {
                    i -= 1;
                }
                items[k] = b[j];
            }
        }
        self.repr = Repr::Many(items);
        true
    }

    /// True if every element of `other` is in `self` (one two-pointer
    /// walk of the two sorted slices).
    pub fn is_superset(&self, other: &VecSet<T>) -> bool {
        let mut mine = self.iter();
        other.iter().all(|x| mine.any(|y| y == x))
    }

    /// A copy of the set that also contains `value`: one allocation of the
    /// final size (none if that is one element) and one pass, instead of
    /// `clone` + `insert`'s copy, regrow and shift.
    pub fn with(&self, value: T) -> VecSet<T> {
        let items = self.as_slice();
        let repr = match items.binary_search(&value) {
            Ok(_) => return self.clone(),
            Err(_) if items.is_empty() => Repr::One(value),
            Err(pos) => {
                let mut v = Vec::with_capacity(items.len() + 1);
                v.extend_from_slice(&items[..pos]);
                v.push(value);
                v.extend_from_slice(&items[pos..]);
                Repr::Many(v)
            }
        };
        VecSet { repr }
    }
}

impl<T: PartialEq> PartialEq for VecSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.repr.as_slice() == other.repr.as_slice()
    }
}

impl<T: Eq> Eq for VecSet<T> {}

/// Full set equality against the oracle's representation, so call sites
/// that compare a detector's set with a `BTreeSet` stay as written.
impl<T: Copy + Ord> PartialEq<std::collections::BTreeSet<T>> for VecSet<T> {
    fn eq(&self, other: &std::collections::BTreeSet<T>) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for VecSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.repr.as_slice()).finish()
    }
}

impl<'a, T: Copy + Ord> IntoIterator for &'a VecSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Ord> FromIterator<T> for VecSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return VecSet::new();
        };
        let Some(second) = iter.next() else {
            return VecSet {
                repr: Repr::One(first),
            };
        };
        let mut items: Vec<T> = [first, second].into_iter().chain(iter).collect();
        items.sort_unstable();
        items.dedup();
        let repr = if items.len() == 1 {
            Repr::One(items[0])
        } else {
            Repr::Many(items)
        };
        VecSet { repr }
    }
}

/// A map from `Copy + Ord` keys to values, sorted by key; zero or one
/// entry inline — [`VecSet`]'s sibling for the detector tables keyed by
/// node id.
///
/// Replaces the dense index-by-raw-`NodeId` vectors (`latest`,
/// `wait_epoch`) whose length grew to the *largest id ever touched*: fine
/// at N=10, quadratic across a million-vertex network (N processes × N
/// slots). Entries here are bounded by the keys actually used — a vertex's
/// degree / tracked-initiator count — which is what the paper's O(N) array
/// means per process in sparse topologies. Lookup is a binary search over
/// contiguous pairs; an insert is an `O(len)` memmove, the right trade for
/// degree-bounded tables.
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
#[derive(Clone)]
pub struct VecMap<K, V> {
    repr: Repr<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap { repr: Repr::Empty }
    }
}

impl<K: Copy + Ord, V> VecMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        VecMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.repr.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        match &self.repr {
            Repr::Many(v) => v
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|i| &v[i].1),
            Repr::One((k, v)) => (k == key).then_some(v),
            Repr::Empty => None,
        }
    }

    /// Inserts or replaces the value for `key`; returns the previous value
    /// if there was one.
    #[inline(always)]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match &mut self.repr {
            Repr::Many(v) => match v.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => Some(std::mem::replace(&mut v[i].1, value)),
                Err(i) => {
                    v.insert(i, (key, value));
                    None
                }
            },
            Repr::One((k, v)) if *k == key => Some(std::mem::replace(v, value)),
            Repr::One((k, _)) => {
                let pos = usize::from(*k < key);
                self.repr.insert_at(pos, (key, value));
                None
            }
            Repr::Empty => {
                self.repr = Repr::One((key, value));
                None
            }
        }
    }

    /// Removes all entries, keeping a spilled map's allocation.
    pub fn clear(&mut self) {
        self.repr.clear();
    }
}

impl<K: Copy + Ord, V: Default> VecMap<K, V> {
    /// Mutable access to the value for `key`, inserting `V::default()`
    /// first if absent.
    pub fn entry_or_default(&mut self, key: K) -> &mut V {
        let i = match self.repr.search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => i,
            Err(i) => {
                self.repr.insert_at(i, (key, V::default()));
                i
            }
        };
        &mut self.repr.as_mut_slice()[i].1
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for VecMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.repr.as_slice() == other.repr.as_slice()
    }
}

impl<K: Eq, V: Eq> Eq for VecMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.repr.as_slice().iter().map(|(k, v)| (k, v)))
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
    }

    #[test]
    fn default_does_not_need_a_default_element() {
        struct NoDefault;
        assert_eq!(VecSet::<NoDefault>::default().repr.len(), 0);
        assert_eq!(VecMap::<u32, NoDefault>::default().repr.len(), 0);
    }

    #[test]
    fn from_iterator_dedups() {
        let s: VecSet<u32> = [3, 1, 3, 2, 2].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        let one: VecSet<u32> = [4, 4].into_iter().collect();
        assert!(matches!(one.repr, Repr::One(4)));
    }

    /// Which storage a value is in: 0 inline empty, 1 inline one, 2 spilled.
    fn kind<T>(r: &Repr<T>) -> usize {
        match r {
            Repr::Empty => 0,
            Repr::One(_) => 1,
            Repr::Many(_) => 2,
        }
    }

    #[test]
    fn vecmap_matches_btreemap_under_random_mix() {
        use std::collections::BTreeMap;
        let mut m = VecMap::new();
        let mut model = BTreeMap::new();
        let mut state = 6789u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        // A universe of three keys, cleared now and then, keeps the map
        // crossing between empty, one inline entry and a spilled vector.
        let mut shrunk_spilled = 0;
        for i in 0..2_000u64 {
            let (k, op) = (rnd() % 3, rnd() % 8);
            match op {
                0 => {
                    m.clear();
                    model.clear();
                }
                1..=3 => assert_eq!(m.insert(k, i), model.insert(k, i)),
                4 | 5 => {
                    *m.entry_or_default(k) += 1;
                    *model.entry(k).or_default() += 1;
                }
                _ => assert_eq!(m.get(&k), model.get(&k)),
            }
            assert_eq!(m.len(), model.len());
            assert_eq!(m.is_empty(), model.is_empty());
            // The same entries built fresh are stored inline up to one;
            // storage never shows through equality or `Debug`.
            let mut fresh = VecMap::new();
            for (&k, &v) in &model {
                fresh.insert(k, v);
            }
            assert_eq!(kind(&fresh.repr), model.len().min(2));
            shrunk_spilled += usize::from(kind(&m.repr) == 2 && m.len() == 1);
            assert_eq!(m, fresh);
            assert_eq!(format!("{m:?}"), format!("{fresh:?}"));
            assert_eq!(format!("{m:?}"), format!("{model:?}"));
        }
        assert!(shrunk_spilled > 0, "the mix must refill a spilled map");
    }

    #[test]
    fn matches_btreeset_under_random_mix() {
        use std::collections::BTreeSet;
        let mut s = VecSet::new();
        let mut model = BTreeSet::new();
        let mut state = 12345u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        // A universe of three: empty, one inline element and a spilled
        // vector follow each other throughout. `receivers[k]` counts the
        // `union_with` / `with` calls made on a receiver of storage `k`.
        let (mut shrunk_spilled, mut receivers) = (0, [0; 3]);
        for step in 0..2_000 {
            let v = rnd() % 3;
            if rnd() % 2 == 0 {
                assert_eq!(s.remove(&v), model.remove(&v));
            } else {
                assert_eq!(s.insert(v), model.insert(v));
            }
            assert_eq!(s.contains(&v), model.contains(&v));
            assert_eq!(s.len(), model.len());
            let fresh: VecSet<u32> = model.iter().copied().collect();
            assert_eq!(kind(&fresh.repr), model.len().min(2));
            shrunk_spilled += usize::from(kind(&s.repr) == 2 && s.len() == 1);
            assert_eq!(s, fresh);
            assert_eq!(s.as_slice(), fresh.as_slice());
            assert_eq!(format!("{s:?}"), format!("{fresh:?}"));
            if step % 4 == 0 {
                // `union_with` against every shape of operand: a subset of
                // `s` (the early exit), a run beyond its largest element
                // (disjoint), and a random draw (interleaved, overlapping).
                let other: VecSet<u32> = match step / 4 % 3 {
                    0 => s.iter().copied().filter(|x| x % 2 == v % 2).collect(),
                    1 => (3 + v..3 + v + rnd() % 3).collect(),
                    _ => (0..rnd() % 4).map(|_| rnd() % 6).collect(),
                };
                // Every other union runs on a freshly built copy, so the
                // inline shapes keep meeting every operand shape after the
                // set's own history has spilled it.
                if step / 4 % 2 == 1 {
                    s = fresh.clone();
                }
                receivers[kind(&s.repr)] += 1;
                let before = s.clone();
                let other_model: BTreeSet<u32> = other.iter().copied().collect();
                assert_eq!(s.is_superset(&other), model.is_superset(&other_model));
                let grew = s.union_with(&other);
                model.extend(other.iter().copied());
                assert_eq!(grew, s.len() > before.len());
                assert!(s.is_superset(&other) && s.is_superset(&before));
                assert!(grew || s == before);
                assert_eq!(s, model);
                // `with` leaves its receiver alone and agrees with insert.
                for x in [v, v + 1] {
                    let mut inserted = before.clone();
                    inserted.insert(x);
                    assert_eq!(before.with(x), inserted);
                }
                // Keep the universe small: drop what lies beyond it.
                for x in 3..8 {
                    assert_eq!(s.remove(&x), model.remove(&x));
                }
            }
        }
        assert_eq!(s, model);
        assert!(shrunk_spilled > 0, "the mix must shrink a spilled set");
        assert!(
            receivers.iter().all(|&n| n > 0),
            "receivers by storage: {receivers:?}"
        );
        assert!(VecSet::from_iter([1, 2]) != BTreeSet::from([1, 2, 3]));
        assert!(VecSet::from_iter([1, 2, 4]) != BTreeSet::from([1, 2, 3]));
    }

    #[test]
    fn union_with_a_subset_does_not_touch_the_buffer() {
        let mut s: VecSet<u32> = [1, 3, 5, 7].into_iter().collect();
        let before = s.as_slice().as_ptr();
        assert!(!s.union_with(&[3, 7].into_iter().collect()));
        assert!(!s.union_with(&VecSet::new()));
        assert_eq!(
            (s.as_slice().as_ptr(), s.as_slice()),
            (before, &[1, 3, 5, 7][..])
        );
        assert!(s.union_with(&[0, 4, 7, 9].into_iter().collect()));
        assert_eq!(s.as_slice(), &[0, 1, 3, 4, 5, 7, 9]);
        let mut empty = VecSet::new();
        assert!(empty.union_with(&s));
        assert_eq!(empty, s);
    }

    #[test]
    fn only_the_second_element_allocates() {
        let mut s = VecSet::new();
        assert!(s.insert(2) && matches!(s.repr, Repr::One(2)));
        let mut one = VecSet::new();
        assert!(one.union_with(&s) && matches!(one.repr, Repr::One(2)));
        assert!(matches!(VecSet::new().with(2).repr, Repr::One(2)));
        assert!(s.insert(1) && kind(&s.repr) == 2);
        // A spilled set keeps its buffer through shrinking and clearing.
        let buf = s.as_slice().as_ptr();
        assert!(s.remove(&1) && s.remove(&2) && s.is_empty());
        s.clear();
        assert!(s.insert(3) && s.insert(4));
        assert_eq!((s.as_slice().as_ptr(), s.as_slice()), (buf, &[3, 4][..]));
    }
}
