//! Backward liveness analysis over virtual registers.

use crate::bitset::DenseBitSet;
use crate::cfg::Cfg;
use optimist_ir::{BlockId, Function, VReg};

/// Per-block live-in / live-out virtual-register sets.
///
/// A register is *live* at a point if some path from that point reaches a use
/// before any redefinition. The interference-graph builder walks each block
/// backward from `live_out` to discover interferences, exactly as Chaitin's
/// build phase does.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<DenseBitSet>,
    live_out: Vec<DenseBitSet>,
}

impl Liveness {
    /// Compute liveness for `func`.
    pub fn new(func: &Function, cfg: &Cfg) -> Self {
        Self::over(func, cfg, func.num_vregs(), |v| Some(v.index()))
    }

    /// Liveness of the registers that `position` maps into `0..n`, with
    /// each set holding positions; the other registers are ignored.
    /// Liveness is separable per register, so these are the sets of
    /// [`Liveness::new`] restricted to the chosen registers.
    pub fn over(
        func: &Function,
        cfg: &Cfg,
        n: usize,
        position: impl Fn(VReg) -> Option<usize>,
    ) -> Self {
        let nb = func.num_blocks();

        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut gen = vec![DenseBitSet::new(n); nb];
        let mut kill = vec![DenseBitSet::new(n); nb];
        let mut uses = Vec::new();
        for (bid, block) in func.blocks() {
            let g = &mut gen[bid.index()];
            let k = &mut kill[bid.index()];
            for inst in &block.insts {
                uses.clear();
                inst.uses_into(&mut uses);
                for &u in &uses {
                    if let Some(u) = position(u) {
                        if !k.contains(u) {
                            g.insert(u);
                        }
                    }
                }
                if let Some(d) = inst.def().and_then(&position) {
                    k.insert(d);
                }
            }
        }

        let mut live_in = vec![DenseBitSet::new(n); nb];
        let mut live_out = vec![DenseBitSet::new(n); nb];

        // Iterate to fixpoint in postorder (reverse RPO) for fast convergence.
        let mut changed = true;
        let mut tmp = DenseBitSet::new(n);
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                // live_out[b] = ∪ live_in[succ]
                for &s in cfg.succs(b) {
                    // Split borrows: copy into tmp then union.
                    tmp.copy_from(&live_in[s.index()]);
                    if live_out[bi].union_with(&tmp) {
                        changed = true;
                    }
                }
                // live_in[b] = gen[b] ∪ (live_out[b] − kill[b])
                tmp.copy_from(&live_out[bi]);
                tmp.subtract(&kill[bi]);
                tmp.union_with(&gen[bi]);
                if tmp != live_in[bi] {
                    live_in[bi].copy_from(&tmp);
                    changed = true;
                }
            }
        }

        Liveness { live_in, live_out }
    }

    /// Registers live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> &DenseBitSet {
        &self.live_in[b.index()]
    }

    /// Registers live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> &DenseBitSet {
        &self.live_out[b.index()]
    }

    /// The maximum number of simultaneously live registers of the given
    /// class at any block boundary — a cheap lower bound on register
    /// pressure, used by reports and tests.
    pub fn max_pressure(&self, func: &Function, class: optimist_ir::RegClass) -> usize {
        let count = |s: &DenseBitSet| {
            s.iter()
                .filter(|&v| func.class_of(optimist_ir::VReg::new(v as u32)) == class)
                .count()
        };
        self.live_in
            .iter()
            .chain(&self.live_out)
            .map(count)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_ir::{BinOp, Cmp, FunctionBuilder, Imm, RegClass};

    #[test]
    fn straightline_liveness() {
        // v1 = imm 1 ; v2 = add v0, v1 ; ret v2
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.add_param(RegClass::Int, "x");
        let one = b.int(1);
        let t = b.binv(BinOp::AddI, x, one);
        b.ret(Some(t));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        // The parameter is upward-exposed, hence live into the entry block;
        // nothing is live out of the only block.
        assert!(lv.live_in(f.entry()).contains(x.index()));
        assert_eq!(lv.live_in(f.entry()).count(), 1);
        assert!(lv.live_out(f.entry()).is_empty());
        let _ = (one, t);
    }

    #[test]
    fn loop_carried_value_is_live_around_loop() {
        // i starts at 0, incremented in loop body until i >= n.
        let mut b = FunctionBuilder::new("f");
        let n = b.add_param(RegClass::Int, "n");
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_vreg(RegClass::Int, "i");
        b.load_imm(i, Imm::Int(0));
        b.jump(head);

        b.switch_to(head);
        let c = b.cmp_i(Cmp::Lt, i, n);
        b.branch(c, body, exit);

        b.switch_to(body);
        let one = b.int(1);
        b.bin(BinOp::AddI, i, i, one);
        b.jump(head);

        b.switch_to(exit);
        b.ret(None);

        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        assert!(lv.live_in(head).contains(i.index()));
        assert!(lv.live_in(head).contains(n.index()));
        assert!(lv.live_out(body).contains(i.index()));
        // i is dead after the loop exits.
        assert!(!lv.live_in(exit).contains(i.index()));
    }

    #[test]
    fn value_live_across_branch_arms() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.add_param(RegClass::Int, "x");
        let t1 = b.new_block();
        let t2 = b.new_block();
        let join = b.new_block();
        let z = b.int(0);
        let c = b.cmp_i(Cmp::Gt, x, z);
        b.branch(c, t1, t2);
        b.switch_to(t1);
        b.jump(join);
        b.switch_to(t2);
        b.jump(join);
        b.switch_to(join);
        b.ret(Some(x));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        // x used only at the join, so it is live through both arms.
        assert!(lv.live_in(t1).contains(x.index()));
        assert!(lv.live_in(t2).contains(x.index()));
        assert!(lv.live_in(join).contains(x.index()));
    }

    #[test]
    fn dead_def_not_live() {
        let mut b = FunctionBuilder::new("f");
        let d = b.new_vreg(RegClass::Int, "dead");
        b.load_imm(d, Imm::Int(9));
        let exit = b.new_block();
        b.jump(exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        assert!(!lv.live_out(f.entry()).contains(d.index()));
    }

    #[test]
    fn max_pressure_counts_by_class() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Float));
        let a = b.add_param(RegClass::Float, "a");
        let i = b.add_param(RegClass::Int, "i");
        let next = b.new_block();
        b.jump(next);
        b.switch_to(next);
        let s = b.binv(BinOp::AddF, a, a);
        let _ = (i, s);
        b.ret(Some(s));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::new(&f, &cfg);
        assert_eq!(lv.max_pressure(&f, RegClass::Float), 1);
        // The int param i is dead everywhere.
        assert_eq!(lv.max_pressure(&f, RegClass::Int), 0);
    }
}
