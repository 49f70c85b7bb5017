//! Wait-for-graph topology generators for tests and experiments.
//!
//! Generators produce edge lists (`Vec<(usize, usize)>`) so callers decide
//! how to realise them — as edges of a [`crate::WaitForGraph`], or as a
//! request schedule for a simulation.

use simnet::rng::DetRng;

/// A single directed cycle `0 → 1 → … → n-1 → 0`.
///
/// # Panics
///
/// Panics if `n < 2` (self-loops are not representable).
pub fn cycle(n: usize) -> Vec<(usize, usize)> {
    assert!(n >= 2, "a cycle needs at least two vertices");
    (0..n).map(|i| (i, (i + 1) % n)).collect()
}

/// A simple chain `0 → 1 → … → n-1` (no deadlock).
pub fn chain(n: usize) -> Vec<(usize, usize)> {
    (1..n).map(|i| (i - 1, i)).collect()
}

/// The complete digraph on `n` vertices (every ordered pair, no loops).
pub fn complete(n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::with_capacity(n * n.saturating_sub(1));
    for i in 0..n {
        for j in 0..n {
            if i != j {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// A cycle of length `cycle_len` with `n_tails` chains of length `tail_len`
/// hanging off it (each tail ends in an edge into cycle vertex
/// `tail_index % cycle_len`). Tail vertices are numbered after the cycle.
///
/// Models the common deadlock shape: a knot with blocked processes queued
/// behind it. Every vertex is permanently blocked; only the first
/// `cycle_len` are on the cycle.
///
/// # Panics
///
/// Panics if `cycle_len < 2`.
pub fn cycle_with_tails(cycle_len: usize, tail_len: usize, n_tails: usize) -> Vec<(usize, usize)> {
    let mut edges = cycle(cycle_len);
    let mut next = cycle_len;
    for t in 0..n_tails {
        // Tail: v_k -> v_{k-1} -> ... -> v_0 -> (t % cycle_len)
        let mut head = t % cycle_len;
        for _ in 0..tail_len {
            edges.push((next, head));
            head = next;
            next += 1;
        }
    }
    edges
}

/// An Erdős–Rényi style random digraph: each ordered pair `(i, j)`, `i ≠ j`,
/// is an edge independently with probability `p`.
pub fn random_digraph(n: usize, p: f64, rng: &mut DetRng) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.chance(p) {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// Two cycles sharing a single common vertex (vertex 0), of lengths `a` and
/// `b` — the smallest multi-cycle deadlock structure.
///
/// # Panics
///
/// Panics if `a < 2` or `b < 2`.
pub fn figure_eight(a: usize, b: usize) -> Vec<(usize, usize)> {
    assert!(a >= 2 && b >= 2, "cycles need at least two vertices");
    let mut edges = cycle(a);
    // Second cycle: 0 -> a -> a+1 -> ... -> a+b-2 -> 0
    let mut prev = 0;
    for k in 0..(b - 1) {
        edges.push((prev, a + k));
        prev = a + k;
    }
    edges.push((prev, 0));
    edges
}

/// Declarative topology description, used by workload configs and the
/// experiment binaries.
///
/// # Examples
///
/// ```
/// use wfg::generators::Topology;
///
/// let t = Topology::CycleWithTails { cycle_len: 3, tail_len: 2, n_tails: 1 };
/// assert_eq!(t.vertex_count(), 5);
/// assert_eq!(t.edges().len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// See [`cycle`].
    Cycle {
        /// Number of vertices.
        n: usize,
    },
    /// See [`chain`].
    Chain {
        /// Number of vertices.
        n: usize,
    },
    /// See [`complete`].
    Complete {
        /// Number of vertices.
        n: usize,
    },
    /// See [`cycle_with_tails`].
    CycleWithTails {
        /// Cycle length.
        cycle_len: usize,
        /// Length of each tail.
        tail_len: usize,
        /// Number of tails.
        n_tails: usize,
    },
    /// See [`random_digraph`]; seeded for reproducibility.
    Random {
        /// Number of vertices.
        n: usize,
        /// Edge probability.
        p: f64,
        /// RNG seed.
        seed: u64,
    },
    /// See [`figure_eight`].
    FigureEight {
        /// First cycle length.
        a: usize,
        /// Second cycle length.
        b: usize,
    },
}

impl Topology {
    /// Materialises the edge list.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        match *self {
            Topology::Cycle { n } => cycle(n),
            Topology::Chain { n } => chain(n),
            Topology::Complete { n } => complete(n),
            Topology::CycleWithTails {
                cycle_len,
                tail_len,
                n_tails,
            } => cycle_with_tails(cycle_len, tail_len, n_tails),
            Topology::Random { n, p, seed } => {
                let mut rng = DetRng::seed_from_u64(seed);
                random_digraph(n, p, &mut rng)
            }
            Topology::FigureEight { a, b } => figure_eight(a, b),
        }
    }

    /// Number of vertices the topology spans.
    pub fn vertex_count(&self) -> usize {
        match *self {
            Topology::Cycle { n }
            | Topology::Chain { n }
            | Topology::Complete { n }
            | Topology::Random { n, .. } => n,
            Topology::CycleWithTails {
                cycle_len,
                tail_len,
                n_tails,
            } => cycle_len + tail_len * n_tails,
            Topology::FigureEight { a, b } => a + b - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use simnet::sim::NodeId;

    use super::*;
    use crate::graph::WaitForGraph;
    use crate::oracle;

    /// An axiom-checked graph in which every listed edge is **black**
    /// (request sent and received, no reply yet).
    fn realise_black(edges: &[(usize, usize)]) -> WaitForGraph {
        let mut g = WaitForGraph::new();
        for &(a, b) in edges {
            g.create_grey(NodeId(a), NodeId(b))
                .expect("generator produced a duplicate or self-loop edge");
            g.blacken(NodeId(a), NodeId(b))
                .expect("freshly created grey edge");
        }
        g
    }

    #[test]
    fn cycle_shape() {
        assert_eq!(cycle(3), vec![(0, 1), (1, 2), (2, 0)]);
        let g = realise_black(&cycle(5));
        assert_eq!(oracle::dark_cycle_members(&g).len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn cycle_of_one_panics() {
        cycle(1);
    }

    #[test]
    fn chain_has_no_deadlock() {
        let g = realise_black(&chain(6));
        assert!(oracle::dark_cycle_members(&g).is_empty());
        assert_eq!(chain(1), vec![]);
    }

    #[test]
    fn complete_edge_count() {
        assert_eq!(complete(4).len(), 12);
        let g = realise_black(&complete(4));
        assert_eq!(oracle::dark_cycle_members(&g).len(), 4);
    }

    #[test]
    fn cycle_with_tails_blocks_everyone() {
        let edges = cycle_with_tails(3, 2, 2);
        assert_eq!(edges.len(), 3 + 2 * 2);
        let g = realise_black(&edges);
        assert_eq!(oracle::permanently_blocked(&g).len(), 7);
        assert_eq!(oracle::dark_cycle_members(&g).len(), 3);
    }

    #[test]
    fn random_digraph_is_seed_stable() {
        let a = random_digraph(10, 0.3, &mut DetRng::seed_from_u64(1));
        let b = random_digraph(10, 0.3, &mut DetRng::seed_from_u64(1));
        assert_eq!(a, b);
    }

    #[test]
    fn figure_eight_has_both_cycles_through_zero() {
        let edges = figure_eight(3, 4);
        let g = realise_black(&edges);
        let members = oracle::dark_cycle_members(&g);
        assert_eq!(members.len(), 3 + 4 - 1);
        assert!(oracle::is_on_black_cycle(&g, NodeId(0)));
    }

    #[test]
    fn topology_spec_roundtrip() {
        let t = Topology::CycleWithTails {
            cycle_len: 4,
            tail_len: 1,
            n_tails: 3,
        };
        assert_eq!(t.vertex_count(), 7);
        assert_eq!(t.edges().len(), 7);
        let t2 = Topology::Random {
            n: 6,
            p: 0.5,
            seed: 9,
        };
        assert_eq!(t2.edges(), t2.edges());
        assert_eq!(Topology::FigureEight { a: 2, b: 2 }.vertex_count(), 3);
    }
}
