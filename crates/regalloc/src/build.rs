//! Interference-graph construction (the allocator's *build* phase).
//!
//! Each block is walked backward from its live-out set. At every definition
//! point the defined range interferes with everything currently live — with
//! Chaitin's copy refinement: for `dst = copy src`, `dst` does **not**
//! interfere with `src`, which is what later allows the two to coalesce.
//!
//! [`build_graph`] walks every block and produces a fresh graph, the full
//! rebuild run at the top of each allocation pass.

use crate::graph::InterferenceGraph;
use optimist_analysis::{Cfg, Liveness};
use optimist_ir::{BlockId, Function, Inst, VReg};

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

/// Walk `b` backward from its live-out set, adding each interference pair
/// `(def, live)` to `graph`. Honors the copy refinement.
fn scan_block(
    func: &Function,
    live: &Liveness,
    b: BlockId,
    state: &mut ScanState,
    graph: &mut InterferenceGraph,
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
                    graph.add_edge(dv, l);
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

/// Add the entry-block clique to `graph`: everything live at the top of
/// the function (parameters, plus any may-be-uninitialized webs) is
/// simultaneously defined on entry, so those ranges pairwise interfere.
fn entry_clique(func: &Function, live: &Liveness, graph: &mut InterferenceGraph) {
    let entry_live: Vec<u32> = live
        .live_in(func.entry())
        .iter()
        .map(|v| v as u32)
        .collect();
    for (i, &x) in entry_live.iter().enumerate() {
        for &y in &entry_live[i + 1..] {
            graph.add_edge(x, y);
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
        scan_block(func, live, b, &mut state, &mut graph);
    }
    entry_clique(func, live, &mut graph);

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
}
