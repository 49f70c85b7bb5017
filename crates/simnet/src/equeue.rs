//! Indexed event queue for the simulator's event loop: a heap of pending
//! **ticks**, each tick a FIFO of events.
//!
//! The scheduler pops the earliest pending event — ordered by `(time,
//! seq)`, `seq` unique, so a strict total order — pushes new ones, and
//! **cancels** arbitrary pending ones (timer cancellation).
//!
//! Two facts about the engine shape the structure. Virtual time is
//! discrete, so the events pending at any moment stand on few distinct
//! ticks (about a dozen for 283 k events on the E13 triples, hundreds
//! under churn). And `seq` is handed out by one allocator in push order,
//! so **every push carries a `seq` greater than every earlier push into
//! the same queue** — that is this module's contract (`debug_assert`ed in
//! [`EventQueue::push`]; a release build that breaks it gets push order
//! within a tick, not `seq` order). Under it the events of one tick
//! arrive already sorted, and ordering them costs nothing:
//!
//! * entries live in a slab (`Vec` of slots threaded with a free list),
//!   so memory is bounded by the *peak* number of concurrently pending
//!   events, not by the total scheduled over a run;
//! * a pending tick's entries form an intrusive doubly-linked FIFO
//!   through their slots: push onto a pending tick is an `O(1)` append,
//!   pop is "head of the earliest tick" in `O(1)`, and removal by handle
//!   is an `O(1)` unlink that frees the slot at once;
//! * only the ticks are ordered: a 4-ary min-heap with one `(head's key,
//!   head slot)` entry per FIFO, keys inline, sifted only when a FIFO
//!   opens or empties — `O(log T)` for `T` pending ticks;
//! * the FIFO to append to is found through a fixed direct-mapped table:
//!   cell `tick mod 1024` names the *tail* of the FIFO opened last in
//!   that residue class, validated against the tail's own time. A miss
//!   (pending ticks 1024 apart, pushed alternately) opens a *further*
//!   FIFO for the same tick: appends only go to a tick's newest FIFO, so
//!   an older one holds strictly smaller `seq`s, pops first, and never
//!   needs its tail again. The table never grows and has no overflow
//!   path — a tick 2⁴⁰ away is one more FIFO. The worst case, every
//!   event on its own tick or every push a miss, is one FIFO per event:
//!   the event-level heap this replaced, `O(log n)` per operation;
//! * handles ([`EntryId`]) carry a per-slot generation stamp, so a stale
//!   handle (entry popped, slot since reused) is detected in `O(1)` and
//!   removal is a no-op: cancelling a fired timer does nothing.
//!
//! # Examples
//!
//! ```
//! use simnet::equeue::EventQueue;
//! use simnet::time::SimTime;
//!
//! let mut q = EventQueue::new();
//! let t = |n| SimTime::from_ticks(n);
//! q.push((t(30), 0), "late");
//! let id = q.push((t(10), 1), "cancel me");
//! q.push((t(20), 2), "early");
//! q.push((t(20), 3), "early too");
//! assert_eq!(q.remove(id), Some("cancel me"));
//! assert_eq!(q.remove(id), None); // stale handle: no-op
//! assert_eq!(q.pop().map(|(_, _, v)| v), Some("early"));
//! assert_eq!(q.pop().map(|(_, _, v)| v), Some("early too"));
//! assert_eq!(q.pop().map(|(_, _, v)| v), Some("late"));
//! assert!(q.is_empty());
//! ```

use std::fmt;

use crate::time::SimTime;

/// Scheduling key: virtual time, tie-broken by a unique sequence number.
pub type EventKey = (SimTime, u64);

/// "No slot" (list end, empty cell); `slots.get(NIL as usize)` is `None`.
const NIL: u32 = u32::MAX;

/// Cells of the direct-mapped tick → tail table.
const TABLE: usize = 1024;

fn cell(at: SimTime) -> usize {
    (at.ticks() % TABLE as u64) as usize
}

/// Handle to a queued entry, valid until the entry pops or is removed.
/// Encodes `(generation << 32) | slot`; the generation stamp makes reuse
/// of the slot by a later entry detectable, so operations on stale
/// handles are safe no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId(u64);

impl EntryId {
    /// The raw encoded value (for embedding in opaque public handles).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from [`EntryId::raw`].
    pub fn from_raw(raw: u64) -> Self {
        EntryId(raw)
    }

    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn encode(slot: u32, generation: u32) -> Self {
        EntryId(((generation as u64) << 32) | slot as u64)
    }
}

struct Slot<T> {
    generation: u32,
    /// FIFO neighbours, `NIL` at the ends; `prev == NIL` marks the head.
    /// On a free slot `next` is the free-list link.
    prev: u32,
    next: u32,
    /// On a head, the position of its FIFO's entry in `heap`.
    pos: u32,
    key: EventKey,
    /// `None` iff the slot is free.
    value: Option<T>,
}

/// One pending FIFO: its head slot and, inline, the head's key.
#[derive(Clone, Copy)]
struct HeapEntry {
    key: EventKey,
    head: u32,
}

/// A slab of events threaded into per-tick FIFOs under a min-heap of
/// ticks; see the [module documentation](self) for the design.
pub struct EventQueue<T> {
    slots: Vec<Slot<T>>,
    free: u32,
    /// Min-heap over the pending FIFOs.
    heap: Vec<HeapEntry>,
    /// `table[cell(t)]`: tail of the newest FIFO of a tick in that residue
    /// class (a pending slot, `next == NIL`) or `NIL`; sized at first push.
    table: Vec<u32>,
    len: usize,
    peak: usize,
    /// One past the last pushed `seq` (the push-order contract).
    next_seq: u64,
}

impl<T> fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("slots", &self.slots.len())
            .field("ticks", &self.heap.len())
            .field("peak", &self.peak)
            .finish()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            heap: Vec::new(),
            table: Vec::new(),
            len: 0,
            peak: 0,
            next_seq: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest number of simultaneously pending entries ever observed.
    pub fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Inserts an entry and returns a handle usable with
    /// [`EventQueue::remove`] until the entry pops. `key.1` must exceed
    /// the `seq` of every earlier push (see the module documentation).
    pub fn push(&mut self, key: EventKey, value: T) -> EntryId {
        debug_assert!(key.1 >= self.next_seq, "push out of seq order: {key:?}");
        self.next_seq = key.1 + 1;
        let tail = self.table.get(cell(key.0)).copied().unwrap_or(NIL);
        let slot = self.free;
        let (slot, generation) = match self.slots.get_mut(slot as usize) {
            Some(sl) => {
                self.free = sl.next;
                sl.generation = sl.generation.wrapping_add(1);
                (sl.prev, sl.next, sl.key) = (NIL, NIL, key);
                sl.value = Some(value);
                (slot, sl.generation)
            }
            None => {
                self.table.resize(TABLE, NIL);
                self.slots.push(Slot {
                    generation: 0,
                    prev: NIL,
                    next: NIL,
                    pos: NIL,
                    key,
                    value: Some(value),
                });
                ((self.slots.len() - 1) as u32, 0)
            }
        };
        self.table[cell(key.0)] = slot;
        match self.slots.get_mut(tail as usize) {
            Some(t) if t.key.0 == key.0 => {
                t.next = slot;
                self.slots[slot as usize].prev = tail;
            }
            _ => {
                let entry = HeapEntry { key, head: slot };
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1, entry);
            }
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
        EntryId::encode(slot, generation)
    }

    /// The key of the earliest entry, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.first().map(|e| e.key)
    }

    /// The earliest pending entry, without removing it.
    pub fn peek(&self) -> Option<(EventKey, &T)> {
        let e = self.heap.first()?;
        let value = self.slots[e.head as usize].value.as_ref();
        Some((e.key, value.expect("occupied slot")))
    }

    /// Iterates over the pending entries' values in arbitrary (slab)
    /// order. Read-only introspection for schedulers that classify what
    /// is still outstanding; the queue is unchanged.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.entries().map(|(_, v)| v)
    }

    /// Iterates over the pending entries as `(key, value)` pairs in
    /// arbitrary (slab) order, in time linear in the slab. The schedule
    /// explorer uses this to enumerate the frontier — every entry whose
    /// time ties with [`EventQueue::peek_key`] is a candidate branch.
    pub fn entries(&self) -> impl Iterator<Item = (EventKey, &T)> {
        self.slots
            .iter()
            .filter_map(|s| s.value.as_ref().map(|v| (s.key, v)))
    }

    /// Removes and returns the entry with exactly `key`, if pending: the
    /// explorer's branch selector (`seq` is unique, so `key` names one
    /// event). `O(n)` slot scan — fine for model checking, where queues
    /// hold tens of entries; the simulation hot path never calls it.
    pub fn take(&mut self, key: EventKey) -> Option<(EntryId, T)> {
        let pending = |s: &Slot<T>| s.key == key && s.value.is_some();
        let slot = self.slots.iter().position(pending)? as u32;
        let id = EntryId::encode(slot, self.slots[slot as usize].generation);
        Some((id, self.unlink(slot).1))
    }

    /// Removes and returns the earliest entry as `(id, key, value)`.
    pub fn pop(&mut self) -> Option<(EntryId, EventKey, T)> {
        let slot = self.heap.first()?.head;
        let id = EntryId::encode(slot, self.slots[slot as usize].generation);
        let (key, value) = self.unlink(slot);
        Some((id, key, value))
    }

    /// Removes the entry behind `id`, if it is still pending. A stale
    /// handle — the entry already popped, even if its slot has since been
    /// reused — fails the generation check and returns `None`.
    pub fn remove(&mut self, id: EntryId) -> Option<T> {
        let sl = self.slots.get(id.slot())?;
        if sl.generation != id.generation() || sl.value.is_none() {
            return None;
        }
        Some(self.unlink(id.slot() as u32).1)
    }

    /// Unlinks `slot` from its FIFO and frees it, returning its contents.
    /// A head hands the heap entry to its successor, or closes it.
    fn unlink(&mut self, slot: u32) -> (EventKey, T) {
        let sl = &self.slots[slot as usize];
        let (prev, next, pos, key) = (sl.prev, sl.next, sl.pos as usize, sl.key);
        if self.table[cell(key.0)] == slot {
            self.table[cell(key.0)] = prev;
        }
        if let Some(p) = self.slots.get_mut(prev as usize) {
            p.next = next;
        }
        match self.slots.get_mut(next as usize) {
            Some(n) => {
                n.prev = prev;
                if prev == NIL {
                    n.pos = pos as u32;
                    (self.heap[pos].key, self.heap[pos].head) = (n.key, next);
                }
            }
            None if prev == NIL => self.close(pos),
            None => {}
        }
        // The payload moves last: taken first it is live (spilled) across
        // the heap work above — timer churn measured 57 → 70 ns that way.
        let sl = &mut self.slots[slot as usize];
        sl.next = self.free;
        self.free = slot;
        self.len -= 1;
        (key, sl.value.take().expect("occupied slot"))
    }

    /// Takes the entry at `pos` — an emptied FIFO's — out of the heap.
    fn close(&mut self, pos: usize) {
        let last = self.heap.pop().expect("a pending FIFO is in the heap");
        // The last entry fills the hole; coming from the bottom, it may
        // need to move either way relative to its new neighbourhood.
        if pos < self.heap.len() {
            if pos > 0 && last.key < self.heap[(pos - 1) / 4].key {
                self.sift_up(pos, last);
            } else {
                self.sift_down(pos, last);
            }
        }
    }

    /// Writes `entry` at heap position `pos` and tells its head slot.
    fn place(&mut self, pos: usize, entry: HeapEntry) {
        self.heap[pos] = entry;
        self.slots[entry.head as usize].pos = pos as u32;
    }

    /// Moves the hole at `pos` up until `entry` fits and places it there.
    fn sift_up(&mut self, mut pos: usize, entry: HeapEntry) {
        while pos > 0 {
            let parent = (pos - 1) / 4;
            if entry.key >= self.heap[parent].key {
                break;
            }
            self.place(pos, self.heap[parent]);
            pos = parent;
        }
        self.place(pos, entry);
    }

    /// Moves the hole at `pos` down until `entry` fits and places it there.
    fn sift_down(&mut self, mut pos: usize, entry: HeapEntry) {
        loop {
            let first = 4 * pos + 1;
            let children = first..(first + 4).min(self.heap.len());
            let Some(min) = children.min_by_key(|&c| self.heap[c].key) else {
                break;
            };
            if entry.key <= self.heap[min].key {
                break;
            }
            self.place(pos, self.heap[min]);
            pos = min;
        }
        self.place(pos, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_ticks(n)
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = EventQueue::new();
        let keys = [5u64, 3, 9, 1, 7, 2, 8, 0, 6, 4];
        for (i, &k) in keys.iter().enumerate() {
            q.push((t(k), i as u64), k);
        }
        let mut out = Vec::new();
        while let Some((_, _, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn ties_break_by_sequence() {
        // Pushed in `seq` order (the contract), interleaved over two
        // ticks — the second of which is pushed to again after the table
        // cell it shares with tick 10 + TABLE has been taken over.
        let mut q = EventQueue::new();
        let far = 10 + TABLE as u64;
        for (seq, at) in [10, 5, 10, far, 5, 10, far, 10].into_iter().enumerate() {
            q.push((t(at), seq as u64), seq as u64);
        }
        let mut out = Vec::new();
        while let Some((_, (_, seq), v)) = q.pop() {
            assert_eq!(seq, v);
            out.push(v);
        }
        assert_eq!(out, vec![1, 4, 0, 2, 5, 7, 3, 6]);
    }

    #[test]
    fn remove_is_exact_and_stale_safe() {
        let mut q = EventQueue::new();
        let a = q.push((t(1), 0), "a");
        let b = q.push((t(2), 1), "b");
        let c = q.push((t(3), 2), "c");
        assert_eq!(q.remove(b), Some("b"));
        assert_eq!(q.remove(b), None, "double cancel is a no-op");
        // The freed slot is reused; the old handle must not hit it.
        let d = q.push((t(4), 3), "d");
        assert_eq!(q.remove(b), None, "stale handle after slot reuse");
        assert_eq!(q.pop().map(|(_, _, v)| v), Some("a"));
        assert_eq!(q.remove(a), None, "popped handle is stale");
        assert_eq!(q.remove(c), Some("c"));
        assert_eq!(q.remove(d), Some("d"));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_key_follows_a_removed_head_tick() {
        let mut q = EventQueue::new();
        let only = q.push((t(3), 0), 'a');
        q.push((t(7), 1), 'b');
        q.push((t(7), 2), 'c');
        assert_eq!(q.peek_key(), Some((t(3), 0)));
        assert_eq!(q.remove(only), Some('a'));
        assert_eq!(q.peek_key(), Some((t(7), 1)));
        assert_eq!(q.peek(), Some(((t(7), 1), &'b')));
        assert_eq!(q.pop().map(|(_, _, v)| v), Some('b'));
        assert_eq!(q.peek_key(), Some((t(7), 2)));
    }

    #[test]
    fn take_by_key_removes_exactly_one_and_preserves_order() {
        let mut q = EventQueue::new();
        for seq in 0..6u64 {
            q.push((t(10 + (seq % 2)), seq), seq);
        }
        // Take a mid-frontier entry by key.
        assert_eq!(q.take((t(10), 2)).map(|(_, v)| v), Some(2));
        assert_eq!(q.take((t(10), 2)), None, "already taken");
        assert_eq!(q.take((t(99), 0)), None, "no such key");
        let frontier: Vec<u64> = q
            .entries()
            .filter(|&((at, _), _)| at == t(10))
            .map(|((_, seq), _)| seq)
            .collect();
        let mut sorted = frontier.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 4]);
        let mut out = Vec::new();
        while let Some((_, _, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![0, 4, 1, 3, 5]);
    }

    #[test]
    fn slab_memory_is_bounded_by_peak_not_throughput() {
        // 10^5 cycles on 10^5 distinct ticks: neither the slot slab nor
        // the tick index (heap, table) may keep anything per cycle.
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            let id = q.push((t(i), i), i);
            q.remove(id);
        }
        assert!(q.is_empty());
        assert_eq!(
            format!("{q:?}"),
            "EventQueue { len: 0, slots: 1, ticks: 0, peak: 1 }"
        );
        assert!(q.table.iter().all(|&c| c == NIL), "stale table cell");
        // The same under eight resident ticks, so each cycle's FIFOs
        // close in the middle of the heap, not at its root.
        let mut seq = 100_000;
        let mut push = |q: &mut EventQueue<u64>, at: u64| {
            seq += 1;
            q.push((t(at), seq), at)
        };
        for at in 0..8 {
            push(&mut q, at);
        }
        for i in 0..1_000 {
            let (a, b) = (push(&mut q, 100 + 2 * i), push(&mut q, 101 + 2 * i));
            assert_eq!(
                (q.remove(a), q.remove(b)),
                (Some(100 + 2 * i), Some(101 + 2 * i))
            );
        }
        assert_eq!(
            format!("{q:?}"),
            "EventQueue { len: 8, slots: 10, ticks: 8, peak: 10 }"
        );
    }

    /// Differential test against a sorted-vec reference model, with
    /// entries spread over `ticks` distinct times (`0` = one per entry).
    /// An entry's value is its `seq`.
    fn differential(ticks: u64, steps: u64) {
        let mut q = EventQueue::new();
        let mut model: Vec<EventKey> = Vec::new();
        let mut handles: Vec<(EntryId, EventKey)> = Vec::new();
        let mut state = 0x9e37_79b9_u64 ^ ticks;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for seq in 0..steps {
            match rnd() % 8 {
                0..=3 => {
                    // Distinct ticks are spaced TABLE / 2 apart so that
                    // pending ticks share table cells.
                    let at = match ticks {
                        0 => seq ^ (rnd() % 64),
                        n => (rnd() % n) * (TABLE as u64 / 2),
                    };
                    let key = (t(at), seq);
                    handles.push((q.push(key, seq), key));
                    model.insert(model.partition_point(|&k| k < key), key);
                }
                // Removal by handle: the earliest tick's head, the latest
                // tick's tail, or any handle (mid-list, or stale).
                4 | 5 if !handles.is_empty() => {
                    let key = match (rnd() % 4, model.first(), model.last()) {
                        (0, Some(&head), _) => head,
                        (1, _, Some(&tail)) => tail,
                        _ => handles[(rnd() as usize) % handles.len()].1,
                    };
                    let idx = handles.iter().position(|&(_, k)| k == key);
                    let (id, _) = handles.swap_remove(idx.expect("handle kept"));
                    let in_model = model.binary_search(&key).ok();
                    assert_eq!(q.remove(id), in_model.map(|_| key.1));
                    in_model.map(|p| model.remove(p));
                }
                // The explorer's move: take any entry of the earliest
                // tick by key.
                6 if !model.is_empty() => {
                    let tied = model.partition_point(|&(at, _)| at == model[0].0);
                    let key = model.remove((rnd() as usize) % tied);
                    assert_eq!(q.take(key).map(|(_, v)| v), Some(key.1));
                    assert_eq!(q.take(key), None);
                }
                _ => {
                    assert_eq!(q.peek_key(), model.first().copied());
                    assert_eq!(
                        q.peek().map(|(k, &v)| (k, v)),
                        q.peek_key().map(|k| (k, k.1))
                    );
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(q.pop().map(|(_, key, v)| (key, v)), want.map(|k| (k, k.1)));
                }
            }
            assert_eq!(q.len(), model.len());
            if seq % 64 == 0 {
                let mut entries: Vec<EventKey> = q.entries().map(|(k, _)| k).collect();
                entries.sort_unstable();
                assert_eq!(entries, model);
                let mut values: Vec<u64> = q.values().copied().collect();
                values.sort_unstable();
                entries.sort_unstable_by_key(|&(_, seq)| seq);
                assert_eq!(values, entries.iter().map(|k| k.1).collect::<Vec<_>>());
            }
        }
        for key in model {
            assert_eq!(q.pop().map(|(_, k, v)| (k, v)), Some((key, key.1)));
        }
        assert!(q.is_empty() && q.heap.is_empty());
    }

    #[test]
    fn matches_reference_heap_under_random_mix() {
        let steps = match (cfg!(miri), cfg!(debug_assertions)) {
            (true, _) => 1_000,
            (false, true) => 5_000,
            (false, false) => 50_000,
        };
        differential(4, steps); // long FIFOs
        differential(64, steps);
        differential(0, steps); // every entry on its own tick
    }
}
