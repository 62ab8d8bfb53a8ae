//! Undirected host graphs with integer link delays.

use serde::{Deserialize, Serialize};

/// Host processor (workstation) identifier, 0-based and dense.
pub type NodeId = u32;

/// Link delay in simulator ticks. The guest's unit-delay links correspond to
/// delay 1.
pub type Delay = u64;

/// One undirected link of the host network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Link {
    /// One endpoint (the smaller id).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Delay in ticks, ≥ 1.
    pub delay: Delay,
}

/// An undirected host network with per-link delays.
///
/// Parallel links and self-loops are rejected: none of the paper's
/// constructions need them, and forbidding them keeps routing tables simple.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HostGraph {
    name: String,
    n: u32,
    links: Vec<Link>,
    /// adjacency: for each node, (neighbour, delay) pairs.
    adj: Vec<Vec<(NodeId, Delay)>>,
}

impl HostGraph {
    /// An edgeless graph on `n` nodes.
    pub fn new(name: impl Into<String>, n: u32) -> Self {
        Self {
            name: name.into(),
            n,
            links: Vec::new(),
            adj: vec![Vec::new(); n as usize],
        }
    }

    /// Human-readable topology name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Override the topology name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Number of undirected links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Add an undirected link with the given delay (≥1 enforced).
    ///
    /// # Panics
    /// On self-loops, out-of-range endpoints, duplicate links, or zero delay.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, delay: Delay) {
        assert!(a != b, "self-loop on node {a}");
        assert!(a < self.n && b < self.n, "endpoint out of range: {a}-{b}");
        assert!(delay >= 1, "zero-delay link {a}-{b}");
        assert!(
            !self.adj[a as usize].iter().any(|&(x, _)| x == b),
            "duplicate link {a}-{b}"
        );
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.links.push(Link {
            a: lo,
            b: hi,
            delay,
        });
        self.adj[a as usize].push((b, delay));
        self.adj[b as usize].push((a, delay));
    }

    /// Change the delay of an existing link (≥ 1 enforced). The link's
    /// identity — its position in [`links`](Self::links) order, and hence
    /// any directed link ids derived from it — is unchanged.
    ///
    /// # Panics
    /// If the link does not exist or the delay is zero.
    pub fn set_link_delay(&mut self, a: NodeId, b: NodeId, delay: Delay) {
        assert!(delay >= 1, "zero-delay link {a}-{b}");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let l = self
            .links
            .iter_mut()
            .find(|l| (l.a, l.b) == (lo, hi))
            .unwrap_or_else(|| panic!("no link {a}-{b}"));
        l.delay = delay;
        for e in self.adj[a as usize].iter_mut() {
            if e.0 == b {
                e.1 = delay;
            }
        }
        for e in self.adj[b as usize].iter_mut() {
            if e.0 == a {
                e.1 = delay;
            }
        }
    }

    /// True if a link between `a` and `b` exists.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adj
            .get(a as usize)
            .is_some_and(|v| v.iter().any(|&(x, _)| x == b))
    }

    /// Delay of the direct link `a`-`b`, if present.
    pub fn link_delay(&self, a: NodeId, b: NodeId) -> Option<Delay> {
        self.adj[a as usize]
            .iter()
            .find(|&&(x, _)| x == b)
            .map(|&(_, d)| d)
    }

    /// All links, each undirected link exactly once.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbours of `v` with link delays.
    pub fn neighbours(&self, v: NodeId) -> &[(NodeId, Delay)] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Heap bytes the graph holds: the allocated capacity of its name,
    /// its link list and its adjacency lists.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.name.capacity()
            + self.links.capacity() * size_of::<Link>()
            + self.adj.capacity() * size_of::<Vec<(NodeId, Delay)>>()
            + self
                .adj
                .iter()
                .map(|a| a.capacity() * size_of::<(NodeId, Delay)>())
                .sum::<usize>()
    }

    /// Check a graph decoded from the wire against the invariants
    /// [`add_link`](Self::add_link) keeps: every link has `a < b < n`
    /// and delay ≥ 1 and appears once, and the adjacency lists are
    /// exactly those the links build, in order.
    pub fn validate(&self) -> Result<(), String> {
        // Compared before allocating: `n` is read from the wire.
        if self.adj.len() != self.n as usize {
            return Err(format!(
                "{} adjacency lists for {} nodes",
                self.adj.len(),
                self.n
            ));
        }
        let mut adj: Vec<Vec<(NodeId, Delay)>> = vec![Vec::new(); self.n as usize];
        for l in &self.links {
            let (a, b) = (l.a, l.b);
            if a >= b || b >= self.n {
                return Err(format!("link {a}-{b} is not a < b < {}", self.n));
            }
            if l.delay == 0 {
                return Err(format!("link {a}-{b} has delay 0"));
            }
            if adj[a as usize].iter().any(|&(x, _)| x == b) {
                return Err(format!("link {a}-{b} appears twice"));
            }
            adj[a as usize].push((b, l.delay));
            adj[b as usize].push((a, l.delay));
        }
        if adj != self.adj {
            return Err("the adjacency lists disagree with the links".into());
        }
        Ok(())
    }

    /// BFS connectivity check (ignoring delays).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n as usize];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in &self.adj[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n
    }

    /// Render the host as a Graphviz DOT document (undirected; link delays
    /// as edge labels) for external visualization.
    pub fn to_dot(&self) -> String {
        let mut out = format!("graph \"{}\" {{\n", self.name);
        out.push_str("  node [shape=circle];\n");
        for l in &self.links {
            out.push_str(&format!("  {} -- {} [label=\"{}\"];\n", l.a, l.b, l.delay));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> HostGraph {
        let mut g = HostGraph::new("tri", 3);
        g.add_link(0, 1, 1);
        g.add_link(1, 2, 5);
        g.add_link(2, 0, 2);
        g
    }

    /// `validate` accepts what `add_link` builds and rejects each
    /// invariant a decoded graph can break.
    #[test]
    fn validate_checks_add_link_invariants() {
        assert_eq!(triangle().validate(), Ok(()));
        let mut far = triangle();
        far.adj[0][0].0 = 99;
        let mut flipped = triangle();
        flipped.links[0] = Link {
            a: 1,
            b: 0,
            delay: 1,
        };
        let mut zero = triangle();
        zero.links[0].delay = 0;
        zero.adj[0][0].1 = 0;
        zero.adj[1][0].1 = 0;
        let mut twice = triangle();
        twice.links.push(twice.links[0]);
        let mut reordered = triangle();
        reordered.adj[1].reverse();
        let mut huge = triangle();
        huge.n = u32::MAX;
        for bad in [far, flipped, zero, twice, reordered, huge] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_links(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.link_delay(1, 2), Some(5));
        assert_eq!(g.link_delay(2, 1), Some(5));
        assert_eq!(g.link_delay(0, 0), None);
        assert!(g.has_link(0, 2));
        assert!(g.is_connected());
    }

    #[test]
    fn links_are_canonicalized() {
        let mut g = HostGraph::new("g", 4);
        g.add_link(3, 1, 2);
        let l = g.links()[0];
        assert!(l.a < l.b);
        assert_eq!((l.a, l.b, l.delay), (1, 3, 2));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = HostGraph::new("g", 4);
        g.add_link(0, 1, 1);
        g.add_link(2, 3, 1);
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(HostGraph::new("e", 0).is_connected());
        assert!(HostGraph::new("s", 1).is_connected());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = HostGraph::new("g", 2);
        g.add_link(1, 1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_link_panics() {
        let mut g = HostGraph::new("g", 2);
        g.add_link(0, 1, 1);
        g.add_link(1, 0, 2);
    }

    #[test]
    #[should_panic(expected = "zero-delay")]
    fn zero_delay_panics() {
        let mut g = HostGraph::new("g", 2);
        g.add_link(0, 1, 0);
    }

    #[test]
    fn dot_export_contains_every_link() {
        let g = triangle();
        let dot = g.to_dot();
        assert!(dot.starts_with("graph \"tri\""));
        assert!(dot.contains("0 -- 1 [label=\"1\"]"));
        assert!(dot.contains("1 -- 2 [label=\"5\"]"));
        assert!(dot.contains("0 -- 2 [label=\"2\"]"));
        assert_eq!(dot.matches(" -- ").count(), 3);
    }
}
