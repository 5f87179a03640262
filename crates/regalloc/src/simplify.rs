//! The *simplify* phase, in both flavours.
//!
//! Shared machinery removes trivially-colorable nodes (current degree < k)
//! in linear time with a worklist. When every remaining node has degree ≥ k,
//! both heuristics pick the node with minimum `spill_cost / current degree`
//! (Chaitin's estimator); they differ in what they do with it:
//!
//! * [`Heuristic::ChaitinPessimistic`] — the baseline. The chosen node is
//!   **marked for spilling** and removed; it never reaches the coloring
//!   phase.
//! * [`Heuristic::BriggsOptimistic`] — the paper's contribution. The chosen
//!   node is removed but **pushed on the stack anyway**; the select phase
//!   decides whether it actually spills. Because blocked-phase removals are
//!   ordered by Chaitin's metric, if select is ultimately forced to spill it
//!   spills the same range Chaitin would have (the paper's §2.3 subset
//!   argument).
//!
//! Ties in `cost/degree` are broken by node index, mirroring the paper's
//! footnote 4 ("often something as trivial as a symbol table index") and
//! making the subset invariant hold exactly.

use crate::graph::InterferenceGraph;
use optimist_machine::Target;

/// Which spill-decision strategy the allocator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Chaitin's original pessimistic heuristic (the paper's "Old").
    ChaitinPessimistic,
    /// Briggs et al.'s optimistic heuristic (the paper's "New").
    BriggsOptimistic,
}

/// How the blocked-phase spill candidate is ranked (lowest value wins).
/// The paper uses [`SpillMetric::CostOverDegree`]; its §4 names improved
/// cost estimation as future work, so the alternatives are exposed for the
/// ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpillMetric {
    /// Chaitin's estimator: `cost / current degree`.
    #[default]
    CostOverDegree,
    /// Raw spill cost, ignoring how constraining the node is.
    Cost,
    /// `cost / degree²`: biased harder toward high-degree nodes.
    CostOverDegreeSquared,
}

impl SpillMetric {
    /// The ranking value for a node with `cost` and current `degree`.
    pub fn rank(self, cost: f64, degree: usize) -> f64 {
        let d = degree.max(1) as f64;
        match self {
            SpillMetric::CostOverDegree => cost / d,
            SpillMetric::Cost => cost,
            SpillMetric::CostOverDegreeSquared => cost / (d * d),
        }
    }
}

/// Result of the simplify phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimplifyOutcome {
    /// Nodes in removal order. The select phase re-inserts them by popping
    /// from the back.
    pub stack: Vec<u32>,
    /// Nodes marked for spilling during simplification (always empty for
    /// the optimistic heuristic, which defers the decision).
    pub spill_marked: Vec<u32>,
    /// Every node removed while the phase was *blocked* (min cost/degree
    /// picks), in choice order — Chaitin's spill candidates. Identical to
    /// `spill_marked` under the pessimistic heuristic; under the optimistic
    /// one these are the nodes select may end up spilling, and the driver's
    /// progress fallback draws from them.
    pub blocked: Vec<u32>,
}

/// Run the simplify phase with the paper's `cost/degree` metric.
///
/// `costs[n]` is the precomputed spill cost of node `n`
/// (see [`spill_costs`](crate::spill_costs)).
pub fn simplify(
    graph: &InterferenceGraph,
    costs: &[f64],
    target: &Target,
    heuristic: Heuristic,
) -> SimplifyOutcome {
    simplify_with_metric(graph, costs, target, heuristic, SpillMetric::CostOverDegree)
}

/// [`simplify`] with an explicit blocked-phase [`SpillMetric`].
pub fn simplify_with_metric(
    graph: &InterferenceGraph,
    costs: &[f64],
    target: &Target,
    heuristic: Heuristic,
    metric: SpillMetric,
) -> SimplifyOutcome {
    let n = graph.num_nodes();
    debug_assert_eq!(costs.len(), n);

    let mut cur_degree: Vec<usize> = (0..n).map(|i| graph.degree(i as u32)).collect();
    let mut removed = vec![false; n];
    let k_of = |node: u32| target.regs(graph.class(node));

    let mut stack = Vec::with_capacity(n);
    let mut spill_marked = Vec::new();
    let mut blocked = Vec::new();

    // Worklist of trivially-colorable nodes.
    let mut low: Vec<u32> = (0..n as u32)
        .filter(|&v| cur_degree[v as usize] < k_of(v))
        .collect();
    let mut remaining = n;

    let remove_node =
        |v: u32, cur_degree: &mut Vec<usize>, removed: &mut Vec<bool>, low: &mut Vec<u32>| {
            removed[v as usize] = true;
            for &m in graph.neighbors(v) {
                if removed[m as usize] {
                    continue;
                }
                let d = &mut cur_degree[m as usize];
                *d -= 1;
                if *d + 1 == k_of(m) {
                    // Crossed the threshold: now trivially colorable.
                    low.push(m);
                }
            }
        };

    while remaining > 0 {
        if let Some(v) = low.pop() {
            if removed[v as usize] {
                continue;
            }
            remove_node(v, &mut cur_degree, &mut removed, &mut low);
            stack.push(v);
            remaining -= 1;
            continue;
        }

        // Blocked: every remaining node has degree >= k. Pick the metric's
        // minimal candidate; the strict `<` lets the lowest index win ties.
        let mut best: Option<(f64, u32)> = None;
        for v in (0..n).filter(|&v| !removed[v]) {
            let rank = metric.rank(costs[v], cur_degree[v]);
            if best.is_none_or(|(r, _)| rank < r) {
                best = Some((rank, v as u32));
            }
        }
        let (_, v) = best.expect("remaining > 0 implies a candidate");
        remove_node(v, &mut cur_degree, &mut removed, &mut low);
        remaining -= 1;
        blocked.push(v);
        match heuristic {
            Heuristic::ChaitinPessimistic => spill_marked.push(v),
            Heuristic::BriggsOptimistic => stack.push(v),
        }
    }

    SimplifyOutcome {
        stack,
        spill_marked,
        blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::InterferenceGraph;
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
    fn colorable_graph_spills_nothing_either_way() {
        // Paper Figure 2: 3-colorable with k = 3.
        let g = int_graph(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]);
        let costs = vec![1.0; 5];
        for h in [Heuristic::ChaitinPessimistic, Heuristic::BriggsOptimistic] {
            let out = simplify(&g, &costs, &k(3), h);
            assert!(out.spill_marked.is_empty());
            assert_eq!(out.stack.len(), 5);
        }
    }

    #[test]
    fn figure3_diamond_chaitin_marks_a_spill_briggs_does_not() {
        // Paper Figure 3: the 4-cycle w-x-y-z with k = 2. Every node has
        // degree 2, so Chaitin immediately marks a spill; the optimistic
        // heuristic pushes everything.
        let g = int_graph(4, &[(0, 1), (1, 3), (3, 2), (2, 0)]);
        let costs = vec![1.0; 4];
        let old = simplify(&g, &costs, &k(2), Heuristic::ChaitinPessimistic);
        assert_eq!(old.spill_marked.len(), 1);
        assert_eq!(old.stack.len(), 3);

        let new = simplify(&g, &costs, &k(2), Heuristic::BriggsOptimistic);
        assert!(new.spill_marked.is_empty());
        assert_eq!(new.stack.len(), 4);
    }

    #[test]
    fn spill_choice_prefers_cheap_high_degree() {
        // Clique of 4 with k=2: repeatedly blocked. Node 2 is cheapest.
        let g = int_graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let costs = vec![9.0, 9.0, 1.0, 9.0];
        let old = simplify(&g, &costs, &k(2), Heuristic::ChaitinPessimistic);
        assert_eq!(old.spill_marked[0], 2);
    }

    #[test]
    fn infinite_cost_nodes_avoided_when_possible() {
        let g = int_graph(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let costs = vec![f64::INFINITY, f64::INFINITY, f64::INFINITY, 5.0];
        let old = simplify(&g, &costs, &k(2), Heuristic::ChaitinPessimistic);
        assert_eq!(old.spill_marked[0], 3);
    }

    #[test]
    fn tie_breaks_by_lowest_index() {
        let g = int_graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let costs = vec![4.0, 4.0, 4.0];
        let old = simplify(&g, &costs, &k(2), Heuristic::ChaitinPessimistic);
        assert_eq!(old.spill_marked, vec![0]);
    }

    #[test]
    fn briggs_stack_contains_all_nodes() {
        let g = int_graph(3, &[(0, 1), (1, 2), (2, 0)]);
        let costs = vec![1.0, 2.0, 3.0];
        let out = simplify(&g, &costs, &k(2), Heuristic::BriggsOptimistic);
        let mut sorted = out.stack.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn classes_use_their_own_k() {
        // 3 float nodes forming a triangle; float file has 2 registers, so
        // even with a huge int file one float node is blocked.
        let mut g = InterferenceGraph::new(vec![RegClass::Float; 3]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let t = Target::custom("t", 16, 2);
        let out = simplify(&g, &[1.0; 3], &t, Heuristic::ChaitinPessimistic);
        assert_eq!(out.spill_marked.len(), 1);
    }
}
