//! Workloads for the basic model and the baseline detectors.
//!
//! A [`Schedule`] is a time-ordered list of *request* events. Because it is
//! generated up-front from a seed, the **same** schedule can drive the
//! probe computation and every baseline, making message-volume and
//! accuracy comparisons fair: all detectors see identical underlying
//! computations.

use simnet::rng::DetRng;
use simnet::sim::NodeId;
use simnet::time::SimTime;

/// A scheduled request: at `at`, node `from` requests node `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestEvent {
    /// Issue time (ticks).
    pub at: u64,
    /// Requester.
    pub from: usize,
    /// Requestee.
    pub to: usize,
}

/// A time-ordered request schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// Events in non-decreasing time order.
    pub events: Vec<RequestEvent>,
    /// Number of nodes the schedule spans.
    pub n: usize,
}

/// Parameters for [`random_churn`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Number of nodes.
    pub n: usize,
    /// Schedule horizon (ticks).
    pub duration: u64,
    /// Mean gap between consecutive requests (ticks).
    pub mean_gap: u64,
    /// Probability that, instead of a single random request, a whole
    /// request ring over `cycle_len` nodes is injected (a guaranteed
    /// deadlock among nodes that are currently unconstrained by the
    /// schedule).
    pub cycle_prob: f64,
    /// Ring size for injected cycles.
    pub cycle_len: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            n: 16,
            duration: 10_000,
            mean_gap: 50,
            cycle_prob: 0.0,
            cycle_len: 3,
            seed: 0,
        }
    }
}

/// Generates a random request/reply churn schedule.
///
/// Single requests pick a uniformly random ordered pair. With probability
/// `cycle_prob` an event instead injects a request ring over `cycle_len`
/// distinct nodes — a deadlock *if* those requests are all still pending
/// when the ring closes (the driver skips requests that are illegal at
/// issue time, so injections into busy nodes may dissolve).
pub fn random_churn(cfg: &ChurnConfig) -> Schedule {
    assert!(cfg.n >= 2, "need at least two nodes");
    assert!(
        cfg.cycle_len >= 2 && cfg.cycle_len <= cfg.n,
        "bad cycle_len"
    );
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let mut events = Vec::new();
    let mut t = 0u64;
    while t < cfg.duration {
        t += rng.skewed_delay(cfg.mean_gap);
        if t >= cfg.duration {
            break;
        }
        if rng.chance(cfg.cycle_prob) {
            // Injected ring over `cycle_len` distinct random nodes.
            let mut ids: Vec<usize> = (0..cfg.n).collect();
            rng.shuffle(&mut ids);
            ids.truncate(cfg.cycle_len);
            for i in 0..ids.len() {
                events.push(RequestEvent {
                    at: t,
                    from: ids[i],
                    to: ids[(i + 1) % ids.len()],
                });
            }
        } else {
            let from = rng.next_below(cfg.n as u64) as usize;
            let mut to = rng.next_below(cfg.n as u64) as usize;
            if to == from {
                to = (to + 1) % cfg.n;
            }
            events.push(RequestEvent { at: t, from, to });
        }
    }
    Schedule { events, n: cfg.n }
}

/// Generates churn that is **structurally deadlock-free**: every request
/// goes from a lower to a higher node id, so the wait-for graph is a DAG
/// at all times. Waits can still be long (chains, queues) but never
/// circular — the control workload for false-positive measurements.
pub fn acyclic_churn(cfg: &ChurnConfig) -> Schedule {
    assert!(cfg.n >= 2, "need at least two nodes");
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let mut events = Vec::new();
    let mut t = 0u64;
    while t < cfg.duration {
        t += rng.skewed_delay(cfg.mean_gap);
        if t >= cfg.duration {
            break;
        }
        let from = rng.next_below(cfg.n as u64 - 1) as usize;
        let to = from + 1 + rng.next_below((cfg.n - from - 1) as u64) as usize;
        events.push(RequestEvent { at: t, from, to });
    }
    Schedule { events, n: cfg.n }
}

/// A schedule that issues the edges of a fixed topology at time zero.
pub fn topology_schedule(n: usize, edges: &[(usize, usize)]) -> Schedule {
    Schedule {
        events: edges
            .iter()
            .map(|&(from, to)| RequestEvent { at: 0, from, to })
            .collect(),
        n,
    }
}

/// Drives `net` through `schedule`: advances virtual time to each event and
/// issues the request, skipping requests that are illegal at issue time
/// (already waiting / self). Returns how many requests were actually
/// issued.
///
/// `advance(net, t)` must run the net's simulation up to time `t`;
/// `request(net, from, to)` must issue a request and report success.
pub fn drive_schedule<N>(
    net: &mut N,
    schedule: &Schedule,
    mut advance: impl FnMut(&mut N, SimTime),
    mut request: impl FnMut(&mut N, NodeId, NodeId) -> bool,
) -> usize {
    let mut issued = 0;
    for ev in &schedule.events {
        advance(net, SimTime::from_ticks(ev.at));
        if request(net, NodeId(ev.from), NodeId(ev.to)) {
            issued += 1;
        }
    }
    issued
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_is_seed_stable_and_ordered() {
        let cfg = ChurnConfig {
            seed: 9,
            ..ChurnConfig::default()
        };
        let a = random_churn(&cfg);
        let b = random_churn(&cfg);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a
            .events
            .iter()
            .all(|e| e.from != e.to && e.from < 16 && e.to < 16));
    }

    #[test]
    fn cycle_injection_produces_rings() {
        let cfg = ChurnConfig {
            cycle_prob: 1.0,
            cycle_len: 4,
            ..ChurnConfig::default()
        };
        let s = random_churn(&cfg);
        // Every burst of equal-time events forms one ring of length 4.
        let mut i = 0;
        while i < s.events.len() {
            let t = s.events[i].at;
            let burst: Vec<&RequestEvent> =
                s.events[i..].iter().take_while(|e| e.at == t).collect();
            assert_eq!(burst.len(), 4, "ring size");
            // Ring property: each `to` is the next event's `from`.
            for k in 0..burst.len() {
                assert_eq!(burst[k].to, burst[(k + 1) % burst.len()].from);
            }
            i += burst.len();
        }
    }

    #[test]
    fn acyclic_churn_only_ascends() {
        let s = acyclic_churn(&ChurnConfig {
            seed: 3,
            ..ChurnConfig::default()
        });
        assert!(!s.events.is_empty());
        assert!(s.events.iter().all(|e| e.from < e.to && e.to < 16));
    }

    #[test]
    fn drive_schedule_counts_issued() {
        let s = topology_schedule(3, &[(0, 1), (0, 1), (1, 2)]);
        let mut dummy = ();
        let mut seen = Vec::new();
        let issued = drive_schedule(
            &mut dummy,
            &s,
            |_, _| {},
            |_, f, t| {
                let fresh = !seen.contains(&(f, t));
                seen.push((f, t));
                fresh
            },
        );
        assert_eq!(issued, 2, "duplicate request rejected by driver");
    }
}
