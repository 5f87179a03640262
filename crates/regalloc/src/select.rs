//! The *select* (coloring) phase.
//!
//! Nodes are re-inserted into the graph in reverse removal order and given
//! the lowest color not used by an already-colored neighbor. Under the
//! optimistic heuristic a node with ≥ k neighbors may still find a color —
//! either because two neighbors share one, or because a neighbor was itself
//! left uncolored — which is precisely the paper's improvement. A node whose
//! neighbors exhaust all k colors is left uncolored (it becomes an *actual*
//! spill).

use crate::graph::InterferenceGraph;
use optimist_machine::Target;

/// A (partial) coloring of the interference graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// `color[n]` is the assigned register index within node `n`'s class,
    /// or `None` if the node was left uncolored (must be spilled).
    pub color: Vec<Option<u16>>,
}

impl Coloring {
    /// Indices of uncolored nodes.
    pub fn uncolored(&self) -> Vec<u32> {
        self.color
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.is_none().then_some(i as u32))
            .collect()
    }

    /// True if every node has a color.
    pub fn is_complete(&self) -> bool {
        self.color.iter().all(|c| c.is_some())
    }

    /// Panic-checked validity: no two interfering nodes share a color.
    /// Used by tests and debug assertions.
    pub fn is_valid(&self, graph: &InterferenceGraph) -> bool {
        for a in 0..graph.num_nodes() as u32 {
            if let Some(ca) = self.color[a as usize] {
                for &b in graph.neighbors(a) {
                    if b > a {
                        continue; // each edge once
                    }
                    if self.color[b as usize] == Some(ca) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Color the nodes of `stack` (in reverse removal order). Nodes not on the
/// stack — Chaitin's simplify-time spill marks — stay uncolored.
pub fn select(graph: &InterferenceGraph, stack: &[u32], target: &Target) -> Coloring {
    let n = graph.num_nodes();
    let mut color: Vec<Option<u16>> = vec![None; n];
    let mut inserted = vec![false; n];
    // The lowest free color is at most the number of colored neighbors,
    // so `min(k, degree + 1)` flags, in one reused buffer, always hold it.
    let mut used = Vec::new();

    for &v in stack.iter().rev() {
        let k = target.regs(graph.class(v));
        let neighbors = graph.neighbors(v);
        used.clear();
        used.resize(k.min(neighbors.len() + 1), false);
        // Collect neighbor colors among already-inserted nodes.
        for &m in neighbors {
            if inserted[m as usize] {
                if let Some(flag) = color[m as usize].and_then(|c| used.get_mut(c as usize)) {
                    *flag = true;
                }
            }
        }
        color[v as usize] = used.iter().position(|&u| !u).map(|c| c as u16);
        inserted[v as usize] = true;
    }

    Coloring { color }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::{simplify, Heuristic};
    use optimist_ir::RegClass;

    fn int_graph(n: usize, edges: &[(u32, u32)]) -> InterferenceGraph {
        let mut g = InterferenceGraph::new(vec![RegClass::Int; n]);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    fn k(n: usize) -> Target {
        Target::custom("test", n, 8)
    }

    #[test]
    fn figure2_three_colors_suffice() {
        let g = int_graph(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]);
        let costs = vec![1.0; 5];
        let t = k(3);
        let out = simplify(&g, &costs, &t, Heuristic::ChaitinPessimistic);
        let col = select(&g, &out.stack, &t);
        assert!(col.is_complete());
        assert!(col.is_valid(&g));
    }

    #[test]
    fn figure3_optimism_two_colors_the_diamond() {
        // The paper's motivating example: the 4-cycle is 2-colorable but
        // Chaitin's heuristic gives up; the optimistic select succeeds.
        let g = int_graph(4, &[(0, 1), (1, 3), (3, 2), (2, 0)]);
        let costs = vec![1.0; 4];
        let t = k(2);
        let out = simplify(&g, &costs, &t, Heuristic::BriggsOptimistic);
        let col = select(&g, &out.stack, &t);
        assert!(
            col.is_complete(),
            "optimistic coloring must 2-color the 4-cycle"
        );
        assert!(col.is_valid(&g));
    }

    #[test]
    fn true_clique_still_spills_under_optimism() {
        // K4 with k=2 genuinely needs spills; optimism can't fix that.
        let g = int_graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let costs = vec![1.0; 4];
        let t = k(2);
        let out = simplify(&g, &costs, &t, Heuristic::BriggsOptimistic);
        let col = select(&g, &out.stack, &t);
        assert_eq!(col.uncolored().len(), 2);
        assert!(col.is_valid(&g));
    }

    #[test]
    fn chaitin_spill_marks_stay_uncolored() {
        let g = int_graph(4, &[(0, 1), (1, 3), (3, 2), (2, 0)]);
        let costs = vec![1.0; 4];
        let t = k(2);
        let out = simplify(&g, &costs, &t, Heuristic::ChaitinPessimistic);
        let col = select(&g, &out.stack, &t);
        assert_eq!(col.uncolored(), out.spill_marked);
        assert!(col.is_valid(&g));
    }

    #[test]
    fn optimism_exploits_spilled_neighbors() {
        // Star: center 0 connected to 1..=4, k=2, and the leaves pairwise
        // connected to force blocking. Simpler: K3 plus pendant.
        // Use a 5-clique with k=2: three nodes spill, two get colors, and
        // the spilled neighbors free colors for later insertions.
        let g = int_graph(
            5,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
            ],
        );
        let costs = vec![1.0; 5];
        let t = k(2);
        let out = simplify(&g, &costs, &t, Heuristic::BriggsOptimistic);
        let col = select(&g, &out.stack, &t);
        assert_eq!(col.uncolored().len(), 3);
        assert!(col.is_valid(&g));
    }

    #[test]
    fn empty_graph_colors_trivially() {
        let g = int_graph(0, &[]);
        let col = select(&g, &[], &k(2));
        assert!(col.is_complete());
        assert!(col.uncolored().is_empty());
    }
}
