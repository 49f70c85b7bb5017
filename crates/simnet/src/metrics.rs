//! Simulation metrics: message and event counters keyed by kind.
//!
//! Experiments in `EXPERIMENTS.md` report message volume per message kind
//! (probe, request, reply, WFGD set, snapshot, ...). Processes classify
//! their own traffic by calling [`crate::sim::Context::count`] with a kind
//! constant (a `&'static str` from their `counters` module, or [`builtin`]
//! here); the simulator additionally maintains built-in totals.

use std::fmt;

/// Counter bundle for one simulation run.
///
/// One `(name, value)` slot per kind, in first-use order. [`Metrics::add`]
/// finds its slot by the name's *address* and compares text only when no
/// address matches, so a name at two addresses (a literal duplicated across
/// crates) is still one counter. Reports — [`Metrics::iter`], `Display`,
/// `Debug`, `==` — go by name and omit zeros: fill order is invisible.
///
/// # Examples
///
/// ```
/// use simnet::metrics::Metrics;
///
/// let mut m = Metrics::new();
/// m.inc("probe.sent");
/// m.add("probe.sent", 2);
/// assert_eq!(m.get("probe.sent"), 3);
/// ```
#[derive(Clone, Default)]
pub struct Metrics {
    slots: Vec<(&'static str, u64)>,
}

/// Built-in counter names maintained by the simulator itself.
pub mod builtin {
    /// Total messages sent (any kind).
    pub const MESSAGES_SENT: &str = "sim.messages_sent";
    /// Total messages delivered.
    pub const MESSAGES_DELIVERED: &str = "sim.messages_delivered";
    /// Total timers fired.
    pub const TIMERS_FIRED: &str = "sim.timers_fired";
    /// Total events processed by the scheduler.
    pub const EVENTS: &str = "sim.events";
    /// Messages and wire packets dropped (fault injection, crash windows,
    /// partitions, transport abandonment).
    pub const MESSAGES_DROPPED: &str = "sim.messages_dropped";
    /// Extra copies injected by duplication faults.
    pub const MESSAGES_DUPLICATED: &str = "sim.messages_duplicated";
    /// Node crashes executed by the fault plan.
    pub const CRASHES: &str = "sim.crashes";
    /// Node restarts executed by the fault plan.
    pub const RESTARTS: &str = "sim.restarts";
    /// Wire packets retransmitted by the reliable layer.
    pub const RETRANSMISSIONS: &str = "reliable.retransmissions";
    /// Cumulative acknowledgements sent by the reliable layer.
    pub const ACKS_SENT: &str = "reliable.acks_sent";
    /// Duplicate wire packets suppressed before application delivery.
    pub const DUPLICATES_SUPPRESSED: &str = "reliable.duplicates_suppressed";
    /// Packets abandoned after the maximum transmission attempts.
    pub const DELIVERIES_ABANDONED: &str = "reliable.deliveries_abandoned";
}

impl Metrics {
    /// Creates an empty metric set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to the counter named `kind`. Several calls per event on
    /// the simulator's hot path, hence the address scan: a run holds about
    /// twenty kinds and each caller passes the same constant every time.
    pub fn add(&mut self, kind: &'static str, n: u64) {
        for (k, v) in &mut self.slots {
            if std::ptr::eq(*k, kind) {
                *v += n;
                return;
            }
        }
        self.add_by_name(kind, n);
    }

    /// First sight of this address: the name may still be known.
    #[cold]
    fn add_by_name(&mut self, kind: &'static str, n: u64) {
        match self.slots.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, v)) => *v += n,
            None => self.slots.push((kind, n)),
        }
    }

    /// Increments the counter named `kind` by one.
    pub fn inc(&mut self, kind: &'static str) {
        self.add(kind, 1);
    }

    /// Returns the value of the counter named `kind` (zero if never touched).
    pub fn get(&self, kind: &str) -> u64 {
        self.slots
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, v)| v)
    }

    /// The non-zero `(kind, value)` pairs in lexicographic kind order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut rows: Vec<_> = self.slots.iter().copied().filter(|r| r.1 != 0).collect();
        rows.sort_unstable();
        rows.into_iter()
    }

    /// Merges another metric set into this one, summing shared counters.
    pub fn merge(&mut self, other: &Metrics) {
        for &(k, v) in &other.slots {
            if v != 0 {
                self.add(k, v);
            }
        }
    }

    /// Resets every counter to zero. The slots stay, so a set drained and
    /// refilled (a shard's, every window) still finds its kinds by address.
    pub fn clear(&mut self) {
        for (_, v) in &mut self.slots {
            *v = 0;
        }
    }
}

impl PartialEq for Metrics {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Metrics {}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rows = self.iter().peekable();
        if rows.peek().is_none() {
            return write!(f, "(no metrics)");
        }
        for (k, v) in rows {
            writeln!(f, "{k:<40} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn add_get_and_default_zero() {
        let mut m = Metrics::new();
        assert_eq!(m.get("x"), 0);
        m.inc("x");
        m.add("x", 4);
        assert_eq!(m.get("x"), 5);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = Metrics::new();
        a.add("x", 1);
        let mut b = Metrics::new();
        b.add("x", 2);
        b.add("y", 3);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 3);
    }

    #[test]
    fn display_nonempty() {
        let mut m = Metrics::new();
        m.inc("k");
        let s = m.to_string();
        assert!(s.contains('k') && s.contains('1'));
        assert_eq!(Metrics::new().to_string(), "(no metrics)");
    }

    #[test]
    fn iter_is_sorted() {
        let mut m = Metrics::new();
        m.inc("b");
        m.inc("a");
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    /// Names with the shared prefixes real counters have, one of them a
    /// proper prefix of another.
    const POOL: [&str; 24] = [
        "sim.events",
        "sim.messages_sent",
        "sim.messages_delivered",
        "sim.messages_dropped",
        "sim.messages_duplicated",
        "sim.timers_fired",
        "sim.crashes",
        "sim.restarts",
        "reliable.retransmissions",
        "reliable.acks_sent",
        "reliable.duplicates_suppressed",
        "reliable.deliveries_abandoned",
        "probe.sent",
        "probe.sent.late",
        "probe.recv",
        "probe.meaningful",
        "probe.discarded",
        "probe.computation.initiated",
        "probe.initiation.avoided",
        "basic.request.sent",
        "basic.reply.sent",
        "basic.reply.stale",
        "deadlock.declared",
        "wfgd.sent",
    ];

    /// The map the slot vector replaced, with the one rule the reports
    /// follow: a counter at zero is not there.
    #[derive(Clone, Default)]
    struct Model(BTreeMap<String, u64>);

    impl Model {
        fn add(&mut self, kind: &str, n: u64) {
            if n != 0 {
                *self.0.entry(kind.to_owned()).or_insert(0) += n;
            }
        }

        fn display(&self) -> String {
            if self.0.is_empty() {
                return "(no metrics)".to_owned();
            }
            self.0
                .iter()
                .map(|(k, v)| format!("{k:<40} {v}\n"))
                .collect()
        }
    }

    fn assert_agrees(m: &Metrics, model: &Model, step: usize) {
        for name in POOL {
            let want = model.0.get(name).copied().unwrap_or(0);
            assert_eq!(m.get(name), want, "step {step}: {name}");
        }
        let rows: Vec<(String, u64)> = m.iter().map(|(k, v)| (k.to_owned(), v)).collect();
        let want: Vec<(String, u64)> = model.0.clone().into_iter().collect();
        assert_eq!(rows, want, "step {step}: iter()");
        assert_eq!(m.to_string(), model.display(), "step {step}: Display");
    }

    #[test]
    fn agrees_with_a_map_model_under_random_operations() {
        let mut rng = DetRng::seed_from_u64(23);
        // Two sets driven side by side so `merge` and `==` have a partner.
        let mut sets = [Metrics::new(), Metrics::new()];
        let mut models = [Model::default(), Model::default()];
        for step in 0..4_000 {
            let i = rng.next_below(2) as usize;
            let name = POOL[rng.next_below(POOL.len() as u64) as usize];
            match rng.next_below(20) {
                0..=9 => {
                    sets[i].inc(name);
                    models[i].add(name, 1);
                }
                10..=15 => {
                    let n = rng.next_below(5);
                    sets[i].add(name, n);
                    models[i].add(name, n);
                }
                16..=17 => {
                    let other = sets[1 - i].clone();
                    sets[i].merge(&other);
                    for (k, v) in models[1 - i].0.clone() {
                        models[i].add(&k, v);
                    }
                }
                18 => {
                    sets[i] = sets[1 - i].clone();
                    models[i] = models[1 - i].clone();
                }
                _ => {
                    sets[i].clear();
                    models[i].0.clear();
                }
            }
            assert_agrees(&sets[0], &models[0], step);
            assert_agrees(&sets[1], &models[1], step);
            assert_eq!(
                sets[0] == sets[1],
                models[0].0 == models[1].0,
                "step {step}: =="
            );
        }
    }

    #[test]
    fn fill_order_is_invisible() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        for (i, name) in POOL.iter().enumerate() {
            a.add(name, i as u64 + 1);
        }
        for (i, name) in POOL.iter().enumerate().rev() {
            b.add(name, i as u64 + 1);
        }
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // A drained set keeps its slots and still equals a fresh one.
        b.clear();
        assert_eq!(b, Metrics::new());
        assert_eq!(b.to_string(), "(no metrics)");
    }

    #[test]
    fn one_name_at_two_addresses_is_one_counter() {
        let literal: &'static str = "probe.sent";
        let leaked: &'static str = Box::leak(String::from(literal).into_boxed_str());
        assert!(!std::ptr::eq(literal, leaked));
        let mut m = Metrics::new();
        // Each address twice: first sight and again, in both orders.
        for (n, kind) in [(1, literal), (10, leaked), (100, leaked), (1_000, literal)] {
            m.add(kind, n);
        }
        assert_eq!(m.get("probe.sent"), 1_111);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![("probe.sent", 1_111)]);
        // A name that merely starts at the same address is another counter.
        m.inc(&literal[..5]);
        assert_eq!(m.get("probe"), 1);
        assert_eq!(m.get("probe.sent"), 1_111);
    }

    #[test]
    fn metrics_cross_threads() {
        // The threaded handler pass moves shard metrics across workers.
        fn assert_send<T: Send>() {}
        assert_send::<Metrics>();
    }
}
