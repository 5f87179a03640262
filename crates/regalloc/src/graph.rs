//! The interference graph.
//!
//! Nodes are live ranges; an edge says two live ranges are simultaneously
//! live and must get different registers. Following Chaitin (and the paper's
//! §3.3 cost discussion), the graph is kept in **two representations at
//! once**: a triangular bit matrix for O(1) membership tests (needed by
//! coalescing and by edge insertion de-duplication) and adjacency lists for
//! fast neighbor iteration (needed by simplify and select).
//!
//! Only nodes of the same register class ever interfere: the RT/PC's integer
//! and floating-point files are colored independently, in one graph.

use optimist_analysis::DenseBitSet;
use optimist_ir::RegClass;

/// An undirected interference graph over live ranges.
#[derive(Debug, Clone)]
pub struct InterferenceGraph {
    classes: Vec<RegClass>,
    matrix: DenseBitSet,
    adj: Vec<Vec<u32>>,
    num_edges: usize,
}

#[inline]
fn tri_index(a: usize, b: usize) -> usize {
    debug_assert!(a < b);
    b * (b - 1) / 2 + a
}

impl InterferenceGraph {
    /// Create a graph with one node per entry of `classes` and no edges.
    pub fn new(classes: Vec<RegClass>) -> Self {
        let n = classes.len();
        InterferenceGraph {
            classes,
            matrix: DenseBitSet::new(n * n.saturating_sub(1) / 2),
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Number of nodes (live ranges).
    pub fn num_nodes(&self) -> usize {
        self.classes.len()
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Register class of node `n`.
    pub fn class(&self, n: u32) -> RegClass {
        self.classes[n as usize]
    }

    /// Add an interference between `a` and `b`.
    ///
    /// Self-edges, duplicate edges and cross-class pairs are ignored (the
    /// two register files are disjoint, so an int and a float range never
    /// constrain each other).
    pub fn add_edge(&mut self, a: u32, b: u32) {
        if a == b {
            return;
        }
        let (a, b) = (a as usize, b as usize);
        if self.classes[a] != self.classes[b] {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if self.matrix.insert(tri_index(lo, hi)) {
            self.adj[a].push(b as u32);
            self.adj[b].push(a as u32);
            self.num_edges += 1;
        }
    }

    /// True if `a` and `b` interfere.
    pub fn interferes(&self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        let (a, b) = (a as usize, b as usize);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.matrix.contains(tri_index(lo, hi))
    }

    /// Neighbors of `n` (each exactly once, in insertion order).
    pub fn neighbors(&self, n: u32) -> &[u32] {
        &self.adj[n as usize]
    }

    /// Degree of `n` in the full graph.
    pub fn degree(&self, n: u32) -> usize {
        self.adj[n as usize].len()
    }

    /// True if `self` and `other` describe the same graph: same node count,
    /// same classes, and the same edge set (adjacency order is ignored).
    /// Used by the differential tests against reference models.
    pub fn same_edges(&self, other: &InterferenceGraph) -> bool {
        if self.classes != other.classes || self.num_edges != other.num_edges {
            return false;
        }
        for (a, b) in self.adj.iter().zip(&other.adj) {
            let (mut a, mut b) = (a.clone(), b.clone());
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return false;
            }
        }
        true
    }

    /// Sum of all degrees (= 2 × edges); the paper's linearity argument for
    /// Matula–Beck bounds total search work by this quantity.
    pub fn degree_sum(&self) -> usize {
        2 * self.num_edges
    }

    /// Render the graph in Graphviz DOT form. `label` names each node
    /// (e.g. the live range's source name); `color` optionally supplies a
    /// register index to display, with `None` shown as a spill.
    pub fn to_dot(
        &self,
        mut label: impl FnMut(u32) -> String,
        mut color: impl FnMut(u32) -> Option<Option<u16>>,
    ) -> String {
        use std::fmt::Write;
        let mut s = String::from("graph interference {\n  node [shape=circle];\n");
        for v in 0..self.num_nodes() as u32 {
            let extra = match color(v) {
                None => String::new(),
                Some(Some(c)) => format!(" r{c}"),
                Some(None) => " SPILL".to_string(),
            };
            let style = if matches!(color(v), Some(None)) {
                ", style=filled, fillcolor=lightcoral"
            } else {
                ""
            };
            let _ = writeln!(s, "  n{v} [label=\"{}{extra}\"{style}];", label(v));
        }
        for a in 0..self.num_nodes() as u32 {
            for &b in self.neighbors(a) {
                if b > a {
                    let _ = writeln!(s, "  n{a} -- n{b};");
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_graph(n: usize) -> InterferenceGraph {
        InterferenceGraph::new(vec![RegClass::Int; n])
    }

    #[test]
    fn edges_are_symmetric_and_deduplicated() {
        let mut g = int_graph(4);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(0, 1);
        assert_eq!(g.num_edges(), 1);
        assert!(g.interferes(0, 1));
        assert!(g.interferes(1, 0));
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_edges_ignored() {
        let mut g = int_graph(2);
        g.add_edge(1, 1);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.interferes(1, 1));
    }

    #[test]
    fn cross_class_edges_ignored() {
        let mut g = InterferenceGraph::new(vec![RegClass::Int, RegClass::Float]);
        g.add_edge(0, 1);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.interferes(0, 1));
    }

    #[test]
    fn figure2_graph() {
        // The paper's Figure 2: a 5-node graph requiring three colors.
        // Edges: a-b, a-c, b-c, b-d, c-d, d-e (a pentagon-ish shape with a
        // triangle).
        let mut g = int_graph(5);
        for (x, y) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)] {
            g.add_edge(x, y);
        }
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree_sum(), 12);
        assert_eq!(g.degree(3), 3);
        assert_eq!(g.degree(4), 1);
    }

    #[test]
    fn dot_export_contains_nodes_edges_and_spills() {
        let mut g = int_graph(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let dot = g.to_dot(
            |v| format!("v{v}"),
            |v| Some(if v == 2 { None } else { Some(v as u16) }),
        );
        assert!(dot.starts_with("graph interference {"));
        assert!(dot.contains("n0 [label=\"v0 r0\"]"));
        assert!(dot.contains("n2 [label=\"v2 SPILL\""));
        assert!(dot.contains("n0 -- n1;"));
        assert!(dot.contains("n1 -- n2;"));
        assert!(!dot.contains("n1 -- n0;"), "each edge rendered once");
    }

    #[test]
    fn same_edges_ignores_adjacency_order() {
        let mut a = int_graph(3);
        a.add_edge(0, 1);
        a.add_edge(0, 2);
        let mut b = int_graph(3);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        assert!(a.same_edges(&b));
        b.add_edge(1, 2);
        assert!(!a.same_edges(&b));
        let c = InterferenceGraph::new(vec![RegClass::Int, RegClass::Int, RegClass::Float]);
        assert!(!a.same_edges(&c));
    }

    #[test]
    fn large_indices() {
        let mut g = int_graph(1000);
        g.add_edge(998, 999);
        g.add_edge(0, 999);
        assert!(g.interferes(999, 998));
        assert!(g.interferes(999, 0));
        assert!(!g.interferes(998, 0));
    }
}
