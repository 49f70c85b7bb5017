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
//!   index while mutating *other* fields, with no defensive `clone()`
//!   of the set), and
//! * a set that has spilled keeps its `Vec` when it shrinks or is cleared,
//!   so a refill recycles the allocation.
//!
//! Equality, `Debug` and iteration see only the elements: a spilled set
//! that shrank to one element equals an inline one.
//!
//! Inserts and removes are `O(len)` memmoves — the right trade for sets
//! bounded by a vertex's degree. The §5 edge sets ([`crate::wfgd::EdgeSet`]
//! and the DDB model's agent edge sets) are not bounded that way — they
//! grow with the run, and every message carries one whole — so they are
//! an [`EdgeBitSet`] instead: the same storage, holding 64-bit blocks of a
//! bitmap over packed edge keys rather than the edges one by one.

use std::cmp::Ordering;
use std::fmt;
use std::marker::PhantomData;

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

/// A vertex type whose edges pack into one unsigned key that sorts as the
/// edge tuple does: `pack_edge(a, b) < pack_edge(c, d)` iff
/// `(a, b) < (c, d)`. [`EdgeBitSet`] stores its edges by that key.
pub trait PackedVertex: Copy + Ord {
    /// The edge key: a `u64` for a vertex that packs into 32 bits, a
    /// `(high, low)` pair of `u64` words for one that packs into 64.
    type Key: EdgeKey;

    /// The key of edge `(tail, head)`.
    ///
    /// # Panics
    ///
    /// If either vertex does not fit its half of the key: a truncated id
    /// would alias another edge.
    fn pack_edge(tail: Self, head: Self) -> Self::Key;

    /// The edge whose key is `key`: the inverse of [`Self::pack_edge`].
    fn unpack_edge(key: Self::Key) -> (Self, Self);
}

/// An unsigned edge key, cut into its block (the key without its low six
/// bits) and the bit of the key in that block's 64-bit mask (those six
/// bits). Blocks sort as their keys do.
pub trait EdgeKey: Copy + Ord + Default {
    /// The block of the key and its bit there.
    fn split(self) -> (Self, u32);
    /// The key of bit `bit` of block `block`.
    fn join(block: Self, bit: u32) -> Self;
}

impl EdgeKey for u64 {
    #[inline]
    fn split(self) -> (Self, u32) {
        (self >> 6, (self & 63) as u32)
    }
    #[inline]
    fn join(block: Self, bit: u32) -> Self {
        block << 6 | u64::from(bit)
    }
}

/// A 128-bit key as its high and low words. It sorts as a `u128` would,
/// but is 8-byte aligned: a block is 24 bytes where a `u128`'s would be
/// 32, and a set one word smaller.
impl EdgeKey for (u64, u64) {
    #[inline]
    fn split(self) -> (Self, u32) {
        let (high, low) = self;
        ((high, low >> 6), (low & 63) as u32)
    }
    #[inline]
    fn join((high, low): Self, bit: u32) -> Self {
        (high, low << 6 | u64::from(bit))
    }
}

/// A set of edges `(V, V)` that only grows: the §5 WFGD sets of both
/// models.
///
/// Each edge is a bit of a bitmap over [`PackedVertex::pack_edge`]'s keys,
/// kept as the sorted list of its non-zero 64-bit blocks `(block, mask)`
/// ([`EdgeKey::split`]) in [`VecSet`]'s storage: an empty or one-block set
/// lives inline.
/// The key order is the tuple order, so iteration, `Debug` and equality
/// see the edges in the tuple's derived `Ord`, as a sorted list of them
/// would. A block holds the edges from one tail to 64 neighbouring heads,
/// so on a small vertex set
///
/// * [`union_with`](Self::union_with) ORs 64 heads at a time, and a union
///   that teaches nothing (the common case once a knot has converged)
///   reads both lists once and writes nothing;
/// * [`with`](Self::with), the copy a message is sent with, copies blocks,
///   not edges;
/// * [`len`](Self::len) counts the mask bits: `O(blocks)`, so a caller
///   that needs it more than once keeps it.
///
/// # Examples
///
/// ```
/// use cmh_core::vset::EdgeBitSet;
/// use simnet::sim::NodeId;
///
/// let e = |a, b| (NodeId(a), NodeId(b));
/// let mut s: EdgeBitSet<NodeId> = [e(2, 0), e(0, 1)].into_iter().collect();
/// assert!(!s.union_with(&[e(0, 1)].into_iter().collect()));
/// assert!(s.union_with(&s.with(e(1, 2))));
/// assert!(s.contains(&e(1, 2)) && !s.contains(&e(2, 1)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), [e(0, 1), e(1, 2), e(2, 0)]);
/// assert_eq!(s.len(), 3);
/// ```
pub struct EdgeBitSet<V: PackedVertex> {
    /// `(block, mask)` for every block with an edge, ascending by block;
    /// no mask is zero, so equal sets have equal lists.
    blocks: Repr<(V::Key, u64)>,
    vertex: PhantomData<V>,
}

impl<V: PackedVertex> Default for EdgeBitSet<V> {
    fn default() -> Self {
        EdgeBitSet {
            blocks: Repr::Empty,
            vertex: PhantomData,
        }
    }
}

impl<V: PackedVertex> Clone for EdgeBitSet<V> {
    fn clone(&self) -> Self {
        EdgeBitSet {
            blocks: self.blocks.clone(),
            vertex: PhantomData,
        }
    }
}

impl<V: PackedVertex> EdgeBitSet<V> {
    /// Creates an empty set.
    pub fn new() -> Self {
        EdgeBitSet::default()
    }

    /// Number of edges: one popcount per block.
    pub fn len(&self) -> usize {
        self.blocks
            .as_slice()
            .iter()
            .map(|&(_, mask)| mask.count_ones() as usize)
            .sum()
    }

    /// True if the set has no edges.
    pub fn is_empty(&self) -> bool {
        self.blocks.len() == 0
    }

    /// The block of `edge` and its bit there as a mask.
    fn locate((tail, head): (V, V)) -> (V::Key, u64) {
        let (block, bit) = V::pack_edge(tail, head).split();
        (block, 1 << bit)
    }

    /// Where block `block` is, or would go, in the list.
    fn find(&self, block: V::Key) -> Result<usize, usize> {
        self.blocks.search_by(|&(b, _)| b.cmp(&block))
    }

    /// True if `edge` is in the set.
    pub fn contains(&self, &edge: &(V, V)) -> bool {
        let (block, bit) = Self::locate(edge);
        self.find(block)
            .is_ok_and(|i| self.blocks.as_slice()[i].1 & bit != 0)
    }

    /// Inserts `edge`; returns `true` if it was not already present.
    pub fn insert(&mut self, edge: (V, V)) -> bool {
        let (block, bit) = Self::locate(edge);
        match self.find(block) {
            Ok(i) => {
                let mask = &mut self.blocks.as_mut_slice()[i].1;
                let new = *mask & bit == 0;
                *mask |= bit;
                new
            }
            Err(i) => {
                self.blocks.insert_at(i, (block, bit));
                true
            }
        }
    }

    /// `self := self ∪ other` as one two-pointer merge of the two block
    /// lists; returns `true` if `self` grew.
    ///
    /// A first forward walk counts the blocks of `other` missing from
    /// `self` and tests the shared ones for a new bit; when there is
    /// neither (`other ⊆ self`) nothing is written or allocated. Otherwise
    /// the list grows once by exactly the missing count (an inline receiver
    /// spills into a new one, unless the union is a single block) and the
    /// merge runs backwards in place, ORing the shared blocks.
    pub fn union_with(&mut self, other: &Self) -> bool {
        let (a, b) = (self.blocks.as_slice(), other.blocks.as_slice());
        let (mut i, mut j, mut missing, mut news) = (0, 0, 0, false);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Equal => {
                    news |= b[j].1 & !a[i].1 != 0;
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
        if missing == 0 && !news {
            return false;
        }
        let old = a.len();
        let mut items = match std::mem::replace(&mut self.blocks, Repr::Empty) {
            Repr::Many(v) => v,
            // `other` is one block: new to an empty set, or this set's own.
            Repr::Empty if missing == 1 => {
                self.blocks = Repr::One(b[0]);
                return true;
            }
            Repr::One((block, mask)) if missing == 0 => {
                self.blocks = Repr::One((block, mask | b[0].1));
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
        // items[..k]; k - i counts the missing blocks of b[..j], so the
        // write cursor never overtakes the read cursor.
        let (mut i, mut j, mut k) = (old, b.len(), old + missing);
        while j > 0 {
            k -= 1;
            if i > 0 && items[i - 1].0 > b[j - 1].0 {
                i -= 1;
                items[k] = items[i];
            } else {
                j -= 1;
                let mut block = b[j];
                if i > 0 && items[i - 1].0 == block.0 {
                    i -= 1;
                    block.1 |= items[i].1;
                }
                items[k] = block;
            }
        }
        self.blocks = Repr::Many(items);
        true
    }

    /// A copy of the set that also contains `edge`: one allocation of the
    /// final size (none if that is one block) and one pass, instead of
    /// `clone` + `insert`'s copy, regrow and shift.
    pub fn with(&self, edge: (V, V)) -> Self {
        let (block, bit) = Self::locate(edge);
        let items = self.blocks.as_slice();
        let blocks = match self.find(block) {
            Ok(i) => {
                let mut copy = self.blocks.clone();
                copy.as_mut_slice()[i].1 |= bit;
                copy
            }
            Err(_) if items.is_empty() => Repr::One((block, bit)),
            Err(pos) => {
                let mut v = Vec::with_capacity(items.len() + 1);
                v.extend_from_slice(&items[..pos]);
                v.push((block, bit));
                v.extend_from_slice(&items[pos..]);
                Repr::Many(v)
            }
        };
        EdgeBitSet {
            blocks,
            vertex: PhantomData,
        }
    }

    /// The edges in ascending order.
    pub fn iter(&self) -> EdgeBitIter<'_, V> {
        EdgeBitIter {
            blocks: self.blocks.as_slice().iter(),
            block: V::Key::default(),
            mask: 0,
        }
    }
}

/// The edges of an [`EdgeBitSet`] in ascending order, by value.
pub struct EdgeBitIter<'a, V: PackedVertex> {
    blocks: std::slice::Iter<'a, (V::Key, u64)>,
    /// The block being walked and its bits not yet yielded.
    block: V::Key,
    mask: u64,
}

impl<V: PackedVertex> fmt::Debug for EdgeBitIter<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeBitIter").finish_non_exhaustive()
    }
}

impl<V: PackedVertex> Iterator for EdgeBitIter<'_, V> {
    type Item = (V, V);

    fn next(&mut self) -> Option<(V, V)> {
        while self.mask == 0 {
            (self.block, self.mask) = *self.blocks.next()?;
        }
        let bit = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some(V::unpack_edge(V::Key::join(self.block, bit)))
    }
}

impl<'a, V: PackedVertex> IntoIterator for &'a EdgeBitSet<V> {
    type Item = (V, V);
    type IntoIter = EdgeBitIter<'a, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<V: PackedVertex> FromIterator<(V, V)> for EdgeBitSet<V> {
    fn from_iter<I: IntoIterator<Item = (V, V)>>(iter: I) -> Self {
        let mut set = EdgeBitSet::new();
        for edge in iter {
            set.insert(edge);
        }
        set
    }
}

impl<V: PackedVertex> PartialEq for EdgeBitSet<V> {
    fn eq(&self, other: &Self) -> bool {
        self.blocks.as_slice() == other.blocks.as_slice()
    }
}

impl<V: PackedVertex> Eq for EdgeBitSet<V> {}

/// Full set equality against the oracle's representation, so call sites
/// that compare a detector's set with a `BTreeSet` stay as written.
impl<V: PackedVertex> PartialEq<std::collections::BTreeSet<(V, V)>> for EdgeBitSet<V> {
    fn eq(&self, other: &std::collections::BTreeSet<(V, V)>) -> bool {
        self.iter().eq(other.iter().copied())
    }
}

impl<V: PackedVertex + fmt::Debug> fmt::Debug for EdgeBitSet<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
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
    use simnet::sim::NodeId;

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
        // vector follow each other throughout.
        let mut shrunk_spilled = 0;
        for _ in 0..2_000 {
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
            assert_eq!(s, model);
            assert_eq!(s.as_slice(), fresh.as_slice());
            assert_eq!(format!("{s:?}"), format!("{fresh:?}"));
        }
        assert!(shrunk_spilled > 0, "the mix must shrink a spilled set");
        assert!(VecSet::from_iter([1, 2]) != BTreeSet::from([1, 2, 3]));
        assert!(VecSet::from_iter([1, 2, 4]) != BTreeSet::from([1, 2, 3]));
    }

    #[test]
    fn only_the_second_element_allocates() {
        let mut s = VecSet::new();
        assert!(s.insert(2) && matches!(s.repr, Repr::One(2)));
        assert!(s.insert(1) && kind(&s.repr) == 2);
        // A spilled set keeps its buffer through shrinking and clearing.
        let buf = s.as_slice().as_ptr();
        assert!(s.remove(&1) && s.remove(&2) && s.is_empty());
        s.clear();
        assert!(s.insert(3) && s.insert(4));
        assert_eq!((s.as_slice().as_ptr(), s.as_slice()), (buf, &[3, 4][..]));
    }

    /// A vertex of 64 bits, as the DDB model's agent `(txn, site)` is: its
    /// edges pack into two words, the head's site in the low bits.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Agent(u32, u32);

    impl PackedVertex for Agent {
        type Key = (u64, u64);
        fn pack_edge(tail: Agent, head: Agent) -> (u64, u64) {
            let word = |a: Agent| u64::from(a.0) << 32 | u64::from(a.1);
            (word(tail), word(head))
        }
        fn unpack_edge((tail, head): (u64, u64)) -> (Agent, Agent) {
            let agent = |w: u64| Agent((w >> 32) as u32, w as u32);
            (agent(tail), agent(head))
        }
    }

    /// Applies a random mix of every [`EdgeBitSet`] operation over the
    /// edges of `universe` and compares each result with a `BTreeSet`.
    fn edge_bits_match_btreeset<V: PackedVertex + fmt::Debug>(universe: &[V], seed: u64) {
        use std::collections::BTreeSet;
        let mut state = seed;
        let mut rnd = |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % n
        };
        let edge = |rnd: &mut dyn FnMut(usize) -> usize| {
            (universe[rnd(universe.len())], universe[rnd(universe.len())])
        };
        let steps = if cfg!(miri) { 300 } else { 3_000 };
        let mut s = EdgeBitSet::new();
        let mut model = BTreeSet::new();
        // `receivers[k]` counts the unions made into a receiver of storage
        // `k` (empty, one block inline, spilled).
        let mut receivers = [0; 3];
        for step in 0..steps {
            match rnd(8) {
                0 if rnd(8) == 0 => {
                    // Sets only grow: start over now and then, so the
                    // small shapes keep coming back.
                    s = EdgeBitSet::new();
                    model.clear();
                }
                0..=2 => {
                    let e = edge(&mut rnd);
                    assert_eq!(s.insert(e), model.insert(e), "insert {e:?}");
                }
                3..=5 => {
                    // `union_with` against every shape of operand: a subset
                    // of `s` (the early exit), a random draw, and a set
                    // built from the model (a copy, which it may then grow).
                    let other: EdgeBitSet<V> = match step % 3 {
                        0 => s.iter().filter(|_| rnd(2) == 0).collect(),
                        1 => (0..rnd(6)).map(|_| edge(&mut rnd)).collect(),
                        _ => model.iter().copied().filter(|_| rnd(4) != 0).collect(),
                    };
                    if step % 2 == 1 {
                        s = model.iter().copied().collect();
                    }
                    receivers[kind(&s.blocks)] += 1;
                    let before = model.len();
                    model.extend(other.iter());
                    assert_eq!(s.union_with(&other), model.len() > before);
                }
                6 => {
                    let e = edge(&mut rnd);
                    let mut want = model.clone();
                    want.insert(e);
                    let copy = s.with(e);
                    assert_eq!(copy, want, "with {e:?}");
                    assert_eq!(s, model, "with leaves its receiver alone");
                    assert_eq!(copy, want.iter().copied().collect::<EdgeBitSet<V>>());
                }
                _ => {
                    let e = edge(&mut rnd);
                    assert_eq!(s.contains(&e), model.contains(&e), "contains {e:?}");
                }
            }
            assert_eq!(s.len(), model.len());
            assert_eq!(s.is_empty(), model.is_empty());
            assert!(s.iter().eq(model.iter().copied()));
            assert_eq!(format!("{s:?}"), format!("{model:?}"));
        }
        assert!(
            receivers.iter().all(|&n| n > 0),
            "receivers by storage: {receivers:?}"
        );
    }

    #[test]
    fn edge_bits_match_btreeset_on_node_ids() {
        // Heads either side of a block boundary, and ids past 16 bits up
        // to the largest that packs.
        let max = u32::MAX as usize;
        let universe = [0, 1, 63, 64, 127, 128, 65_535, 65_536, 70_000, max];
        edge_bits_match_btreeset(&universe.map(NodeId), 0x5eed);
    }

    #[test]
    fn edge_bits_match_btreeset_on_two_word_keys() {
        let universe = [
            Agent(0, 0),
            Agent(0, 63),
            Agent(0, 64),
            Agent(1, 127),
            Agent(1, 128),
            Agent(65_536, 0),
            Agent(65_536, 63),
            Agent(65_536, 64),
            Agent(3, 70_000),
            Agent(u32::MAX, u32::MAX),
        ];
        edge_bits_match_btreeset(&universe, 0xa9e7);
    }

    #[test]
    fn union_with_a_subset_does_not_touch_the_buffer() {
        let e = |a, b| (NodeId(a), NodeId(b));
        let mut s: EdgeBitSet<NodeId> = [e(1, 0), e(3, 0), e(3, 64), e(7, 2)].into_iter().collect();
        let buf = s.blocks.as_slice().as_ptr();
        assert!(!s.union_with(&[e(3, 64), e(7, 2)].into_iter().collect()));
        assert!(!s.union_with(&EdgeBitSet::new()));
        let untouched = |s: &EdgeBitSet<NodeId>| (s.blocks.as_slice().as_ptr(), s.len());
        assert_eq!(untouched(&s), (buf, 4));
        // A new head in a block `s` has is ORed in place.
        assert!(s.union_with(&[e(3, 1)].into_iter().collect()));
        assert_eq!(untouched(&s), (buf, 5));
        assert!(s.union_with(&[e(0, 4), e(3, 63), e(9, 9)].into_iter().collect()));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [
                e(0, 4),
                e(1, 0),
                e(3, 0),
                e(3, 1),
                e(3, 63),
                e(3, 64),
                e(7, 2),
                e(9, 9)
            ]
        );
        let mut empty = EdgeBitSet::new();
        assert!(empty.union_with(&s));
        assert_eq!(empty, s);
    }

    #[test]
    fn edge_bits_of_one_block_stay_inline() {
        let e = |a, b| (NodeId(a), NodeId(b));
        let mut s = EdgeBitSet::new();
        assert!(s.insert(e(2, 0)) && s.insert(e(2, 63)) && kind(&s.blocks) == 1);
        let mut one = EdgeBitSet::new();
        assert!(one.union_with(&s) && kind(&one.blocks) == 1);
        assert!(one.union_with(&[e(2, 5)].into_iter().collect()) && kind(&one.blocks) == 1);
        assert_eq!(kind(&EdgeBitSet::new().with(e(2, 0)).blocks), 1);
        assert_eq!(kind(&s.with(e(2, 1)).blocks), 1);
        // The head's 64th neighbour is the next block.
        assert!(s.insert(e(2, 64)) && kind(&s.blocks) == 2);
    }
}
