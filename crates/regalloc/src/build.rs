//! Interference-graph construction (the allocator's *build* phase).
//!
//! Each block is walked backward from its live-out set. At every definition
//! point the defined range interferes with everything currently live — with
//! Chaitin's copy refinement: for `dst = copy src`, `dst` does **not**
//! interfere with `src`, which is what later allows the two to coalesce.
//!
//! [`build_graph`] walks every block and produces a fresh graph, the full
//! rebuild run at the top of each allocation pass; [`build_graph_par`]
//! shards the same scan across threads.

use crate::graph::InterferenceGraph;
use optimist_analysis::{Cfg, DenseBitSet, Liveness};
use optimist_ir::{BlockId, Function, Inst, VReg};
use std::time::Instant;

/// Scratch buffers for the backward block scan, reusable across blocks.
struct ScanState {
    live_now: Vec<bool>,
    live_list: Vec<u32>,
    uses: Vec<VReg>,
}

impl ScanState {
    fn new(num_vregs: usize) -> Self {
        ScanState {
            live_now: vec![false; num_vregs],
            live_list: Vec::new(),
            uses: Vec::new(),
        }
    }

    fn add_to_live(&mut self, v: u32) {
        if !self.live_now[v as usize] {
            self.live_now[v as usize] = true;
            self.live_list.push(v);
        }
    }

    fn remove_from_live(&mut self, v: u32) {
        if self.live_now[v as usize] {
            self.live_now[v as usize] = false;
            if let Some(pos) = self.live_list.iter().position(|&x| x == v) {
                self.live_list.swap_remove(pos);
            }
        }
    }
}

/// Walk `b` backward from its live-out set, reporting each interference pair
/// `(def, live)` to `edge`. Honors the copy refinement. The same scan serves
/// the sequential build (where `edge` inserts) and the sharded one (where
/// `edge` logs each pair's first occurrence).
fn scan_block(
    func: &Function,
    live: &Liveness,
    b: BlockId,
    state: &mut ScanState,
    mut edge: impl FnMut(u32, u32),
) {
    state.live_now.fill(false);
    state.live_list.clear();
    for v in live.live_out(b).iter() {
        state.add_to_live(v as u32);
    }

    for inst in func.block(b).insts.iter().rev() {
        if let Some(d) = inst.def() {
            let dv = d.index() as u32;
            // Copy refinement: dst does not interfere with src.
            let skip = match inst {
                Inst::Copy { src, .. } => Some(src.index() as u32),
                _ => None,
            };
            state.remove_from_live(dv);
            for &l in &state.live_list {
                if Some(l) != skip {
                    edge(dv, l);
                }
            }
        }
        state.uses.clear();
        inst.uses_into(&mut state.uses);
        for i in 0..state.uses.len() {
            let u = state.uses[i].index() as u32;
            state.add_to_live(u);
        }
    }
}

/// Report the entry-block clique to `edge`: everything live at the top of
/// the function (parameters, plus any may-be-uninitialized webs) is
/// simultaneously defined on entry, so those ranges pairwise interfere.
fn entry_clique(func: &Function, live: &Liveness, mut edge: impl FnMut(u32, u32)) {
    let entry_live: Vec<u32> = live
        .live_in(func.entry())
        .iter()
        .map(|v| v as u32)
        .collect();
    for (i, &x) in entry_live.iter().enumerate() {
        for &y in &entry_live[i + 1..] {
            edge(x, y);
        }
    }
}

/// Build the interference graph of `func` (one node per virtual register;
/// run [`renumber`](optimist_analysis::renumber) first so registers are live
/// ranges).
pub fn build_graph(func: &Function, cfg: &Cfg, live: &Liveness) -> InterferenceGraph {
    let nv = func.num_vregs();
    let classes = (0..nv)
        .map(|i| func.class_of(VReg::new(i as u32)))
        .collect();
    let mut graph = InterferenceGraph::new(classes);
    let mut state = ScanState::new(nv);

    for &b in cfg.rpo() {
        scan_block(func, live, b, &mut state, |a, l| graph.add_edge(a, l));
    }
    entry_clique(func, live, |a, l| graph.add_edge(a, l));

    graph
}

/// [`build_graph`] with the block scan sharded across `threads` scoped
/// workers — bit-identical output for every thread count.
///
/// The RPO block sequence is cut into at most `threads` contiguous ranges;
/// each worker scans its range in order with a private scan state,
/// recording the **first in-shard occurrence** of every interference pair
/// (a private triangular bit set deduplicates repeats) into an ordered
/// shard log. The merge then replays the logs shard by shard, in range
/// order, through [`InterferenceGraph::add_edge`], and finishes with the
/// entry clique — exactly the order the sequential build presents pairs
/// in. Because adjacency lists record *insertion* order and `add_edge`
/// keeps only the first insertion of a pair, replaying first occurrences
/// in scan order reproduces the sequential graph exactly — `num_edges`,
/// neighbor order, everything (the `par_equivalence` proptests at the
/// workspace root compare against [`build_graph`] node by node).
///
/// `threads <= 1`, or a function too small to shard, falls back to the
/// sequential build.
pub fn build_graph_par(
    func: &Function,
    cfg: &Cfg,
    live: &Liveness,
    threads: usize,
) -> InterferenceGraph {
    let blocks = cfg.rpo();
    if threads <= 1 || blocks.len() < 2 {
        return build_graph(func, cfg, live);
    }
    let nv = func.num_vregs();
    let ranges = crate::par::chunk_ranges(blocks.len(), threads);

    // Phase 1: scan shards in parallel. Each shard log holds the pairs in
    // first-occurrence scan order, with the orientation (def, live) of the
    // first occurrence preserved — `add_edge(a, b)` pushes `b` onto `a`'s
    // adjacency first, so orientation matters for byte-identity.
    let shards: Vec<(Vec<(u32, u32)>, u128)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let shard_blocks = &blocks[r.start..r.end];
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut state = ScanState::new(nv);
                    let mut seen = DenseBitSet::new(nv * nv.saturating_sub(1) / 2);
                    let mut log: Vec<(u32, u32)> = Vec::new();
                    for &b in shard_blocks {
                        scan_block(func, live, b, &mut state, |a, l| {
                            if a == l {
                                return;
                            }
                            let (lo, hi) = if a < l { (a, l) } else { (l, a) };
                            let idx = hi as usize * (hi as usize - 1) / 2 + lo as usize;
                            if seen.insert(idx) {
                                log.push((a, l));
                            }
                        });
                    }
                    (log, start.elapsed().as_nanos())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("graph-build shard panicked"))
            .collect()
    });

    // Phase 2: deterministic merge — replay shard logs in range order.
    let classes = (0..nv)
        .map(|i| func.class_of(VReg::new(i as u32)))
        .collect();
    let mut graph = InterferenceGraph::new(classes);
    let mut shard_nanos = 0u128;
    for (log, nanos) in &shards {
        for &(a, l) in log {
            graph.add_edge(a, l);
        }
        shard_nanos += nanos;
    }
    entry_clique(func, live, |a, l| graph.add_edge(a, l));

    crate::par::record_parallel_build(shards.len(), shard_nanos);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_analysis::renumber;
    use optimist_ir::{BinOp, FunctionBuilder, Imm, RegClass};

    fn graph_of(func: &mut Function) -> InterferenceGraph {
        renumber(func);
        let cfg = Cfg::new(func);
        let live = Liveness::new(func, &cfg);
        build_graph(func, &cfg, &live)
    }

    #[test]
    fn simultaneously_live_values_interfere() {
        // a = 1; b = 2; c = a + b  — a and b are simultaneously live.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let a = b.int(1);
        let x = b.int(2);
        let c = b.binv(BinOp::AddI, a, x);
        b.ret(Some(c));
        let mut f = b.finish();
        let g = graph_of(&mut f);
        // After renumber the indices may shift; find by degree structure:
        // exactly one interference edge (a, x).
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn copy_source_does_not_interfere_with_dest() {
        // a = 1; b = copy a; use both separately afterwards? No — classic
        // case: b = copy a, then only b is used. a and b never interfere.
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let a = bld.int(1);
        let c = bld.new_vreg(RegClass::Int, "c");
        bld.copy(c, a);
        bld.ret(Some(c));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn copy_with_live_source_still_no_edge_but_third_interferes() {
        // a = 1; b = copy a; t = a + b: a live past the copy. Chaitin's
        // refinement still omits the a–b edge (they hold the same value).
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let a = bld.int(1);
        let c = bld.new_vreg(RegClass::Int, "c");
        bld.copy(c, a);
        let t = bld.binv(BinOp::AddI, a, c);
        bld.ret(Some(t));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn dead_def_still_interferes_with_live_values() {
        // x = 1; dead = 2; ret x — `dead` occupies a register while x is
        // live, so they interfere even though `dead` has no use.
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let x = bld.new_vreg(RegClass::Int, "x");
        bld.load_imm(x, Imm::Int(1));
        let dead = bld.new_vreg(RegClass::Int, "dead");
        bld.load_imm(dead, Imm::Int(2));
        bld.ret(Some(x));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn params_interfere_with_each_other() {
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let p = bld.add_param(RegClass::Int, "p");
        let q = bld.add_param(RegClass::Int, "q");
        let t = bld.binv(BinOp::AddI, p, q);
        bld.ret(Some(t));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert!(g.interferes(0, 1));
    }

    #[test]
    fn int_and_float_never_interfere() {
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Float));
        let i = bld.add_param(RegClass::Int, "i");
        let x = bld.add_param(RegClass::Float, "x");
        let t = bld.binv(BinOp::AddF, x, x);
        let _ = i;
        bld.ret(Some(t));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn loop_pressure_creates_clique() {
        // Three values all live across a loop back edge form a triangle.
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let n = bld.add_param(RegClass::Int, "n");
        let head = bld.new_block();
        let body = bld.new_block();
        let exit = bld.new_block();
        let a = bld.int(1);
        let c = bld.int(2);
        bld.jump(head);
        bld.switch_to(head);
        let cond = bld.cmp_i(optimist_ir::Cmp::Gt, n, a);
        bld.branch(cond, body, exit);
        bld.switch_to(body);
        let t = bld.binv(BinOp::AddI, a, c);
        let _ = t;
        bld.jump(head);
        bld.switch_to(exit);
        let r = bld.binv(BinOp::AddI, a, c);
        bld.ret(Some(r));
        let mut f = bld.finish();
        let g = graph_of(&mut f);
        // n, a, c all pairwise interfere (plus edges to temporaries).
        assert!(g.num_edges() >= 3);
    }

    /// Bit-identity, not just set equality: same neighbor *order* on every
    /// node, same edge count, same classes.
    fn assert_identical(par: &InterferenceGraph, seq: &InterferenceGraph) {
        assert_eq!(par.num_nodes(), seq.num_nodes());
        assert_eq!(par.num_edges(), seq.num_edges());
        for v in 0..seq.num_nodes() as u32 {
            assert_eq!(par.class(v), seq.class(v), "class of {v}");
            assert_eq!(par.neighbors(v), seq.neighbors(v), "adjacency of {v}");
        }
    }

    /// A loop-carried pair is the adversarial case for the shard merge: the
    /// pair {x, y} is first reported in the entry block as `(y, x)` (def of
    /// y while x is live) and again in the loop body with *both*
    /// orientations (`x = x + y` then `y = y + x`). A shard boundary
    /// between those blocks makes each shard record its own first
    /// occurrence; the ordered replay must keep the entry block's
    /// orientation, or the adjacency lists come out permuted.
    fn loop_carried_function() -> Function {
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let n = bld.add_param(RegClass::Int, "n");
        let x = bld.new_vreg(RegClass::Int, "x");
        let y = bld.new_vreg(RegClass::Int, "y");
        bld.load_imm(x, Imm::Int(1));
        bld.load_imm(y, Imm::Int(2));
        let head = bld.new_block();
        let body = bld.new_block();
        let exit = bld.new_block();
        bld.jump(head);
        bld.switch_to(head);
        let cond = bld.cmp_i(optimist_ir::Cmp::Gt, n, x);
        bld.branch(cond, body, exit);
        bld.switch_to(body);
        bld.bin(BinOp::AddI, x, x, y);
        bld.bin(BinOp::AddI, y, y, x);
        bld.jump(head);
        bld.switch_to(exit);
        let r = bld.binv(BinOp::AddI, x, y);
        bld.ret(Some(r));
        bld.finish()
    }

    #[test]
    fn parallel_build_matches_sequential_across_seam_orientations() {
        let mut f = loop_carried_function();
        renumber(&mut f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let seq = build_graph(&f, &cfg, &live);
        assert!(seq.num_edges() >= 3, "the loop must create interference");
        // Every chunking, including one block per shard and more shards
        // than blocks.
        for threads in [2, 3, 4, 8, 64] {
            let par = build_graph_par(&f, &cfg, &live, threads);
            assert_identical(&par, &seq);
        }
    }

    #[test]
    fn parallel_build_falls_back_on_tiny_functions() {
        let mut bld = FunctionBuilder::new("f");
        bld.set_ret_class(Some(RegClass::Int));
        let a = bld.int(1);
        let b = bld.int(2);
        let c = bld.binv(BinOp::AddI, a, b);
        bld.ret(Some(c));
        let mut f = bld.finish();
        renumber(&mut f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let seq = build_graph(&f, &cfg, &live);
        let par = build_graph_par(&f, &cfg, &live, 8);
        assert_identical(&par, &seq);
    }

    #[test]
    fn parallel_build_bumps_the_stats_registry() {
        let mut f = loop_carried_function();
        renumber(&mut f);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let before = crate::par::par_stats();
        let _ = build_graph_par(&f, &cfg, &live, 2);
        let after = crate::par::par_stats();
        assert!(after.parallel_builds > before.parallel_builds);
        assert!(after.shards_built >= before.shards_built + 2);
    }
}
