//! Chaitin's *renumber* phase: split virtual registers into def-use webs.
//!
//! A *web* joins every definition that can reach a common use. After
//! renumbering, each web has its own virtual register, so one register is
//! one live range — the unit the allocator colors and spills. Spill code
//! inserted by the allocator introduces new short registers; renumbering the
//! rewritten function again naturally yields the paper's "several shorter
//! live ranges, one for each definition or use".
//!
//! Webs are found from liveness with one union-find. It has a node for each
//! register's entry pseudo-def (the parameter, or an *uninit* def standing
//! for a use that no real def reaches), one per instruction def, and one per
//! register live into each reachable block. Along every edge P→S out of a
//! reachable block, S's node for a live-in `v` joins the value of `v`
//! leaving P: P's last def of `v`, or else P's own live-in node for `v`.
//! The entry block's live-in nodes join their pseudo-defs. A use reads the
//! last def of its register earlier in its block, else the block's live-in
//! node, or in an unreachable block the register's pseudo-def. The work
//! grows with the instructions plus the live-in sets.

use crate::bitset::DenseBitSet;
use crate::cfg::Cfg;
use crate::liveness::Liveness;
use optimist_ir::{BlockId, Function, VReg};

/// Statistics returned by [`renumber`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenumberStats {
    /// Number of virtual registers before renumbering.
    pub vregs_before: usize,
    /// Number of webs (= virtual registers = live ranges) after.
    pub webs: usize,
}

/// A plain union-find over `u32` ids.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != cur {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// The node each register reads at the current point of one block walk.
/// Entries written before the latest [`enter`](Cursor::enter) are stale.
struct Cursor {
    node: Vec<u32>,
    walk: Vec<u32>,
    current: u32,
}

impl Cursor {
    /// Start a block whose live-in nodes are `base..` in `live_in`'s order.
    fn enter(&mut self, live_in: &DenseBitSet, base: u32) {
        self.current += 1;
        for (k, v) in live_in.iter().enumerate() {
            self.set(v, base + k as u32);
        }
    }

    fn set(&mut self, v: usize, node: u32) {
        self.node[v] = node;
        self.walk[v] = self.current;
    }

    /// The node `v` reads here: its node in this block, else its pseudo-def
    /// (node `v`), which only a use in unreachable code falls back to.
    fn read(&self, v: usize) -> u32 {
        if self.walk[v] == self.current {
            self.node[v]
        } else {
            v as u32
        }
    }
}

/// Rewrite `func` so every def-use web has a distinct virtual register.
///
/// Registers are numbered in first-encounter order: the parameters, then
/// the blocks in id order, each instruction's uses before its def. A table
/// entry that never occurs is dropped. Returns statistics (web count = the
/// paper's "live ranges" column).
pub fn renumber(func: &mut Function) -> RenumberStats {
    let vregs_before = func.num_vregs();
    let cfg = Cfg::new(func);
    let live = Liveness::new(func, &cfg);

    // Node ids: the pseudo-defs are `0..vregs_before` (one per register),
    // block b's live-in nodes start at `live_base[b]`, and the instruction
    // defs follow in block and instruction order.
    let mut live_base = Vec::with_capacity(func.num_blocks());
    let mut next = vregs_before as u32;
    for b in func.block_ids() {
        live_base.push(next);
        next += live.live_in(b).count() as u32;
    }
    let first_def = next;
    let mut uf = UnionFind {
        parent: (0..first_def + func.num_insts() as u32).collect(),
    };
    let mut at = Cursor {
        node: vec![0; vregs_before],
        walk: vec![0; vregs_before],
        current: 0,
    };

    // Pass 1: join each live-in node to the values flowing into it.
    let entry = func.entry();
    for (k, v) in live.live_in(entry).iter().enumerate() {
        uf.union(live_base[entry.index()] + k as u32, v as u32);
    }
    let mut def = first_def;
    for (b, block) in func.blocks() {
        at.enter(live.live_in(b), live_base[b.index()]);
        for d in block.insts.iter().filter_map(|inst| inst.def()) {
            at.set(d.index(), def);
            def += 1;
        }
        if !cfg.is_reachable(b) {
            continue;
        }
        for &s in cfg.succs(b) {
            for (k, v) in live.live_in(s).iter().enumerate() {
                uf.union(live_base[s.index()] + k as u32, at.read(v));
            }
        }
    }

    // Pass 2: number the webs in first-encounter order and rewrite.
    let mut web_of = vec![u32::MAX; uf.parent.len()];
    let mut origin: Vec<VReg> = Vec::new(); // new register -> old one
    let mut name = |node: u32, old: VReg| -> VReg {
        let root = uf.find(node) as usize;
        if web_of[root] == u32::MAX {
            web_of[root] = origin.len() as u32;
            origin.push(old);
        }
        VReg::new(web_of[root])
    };
    let params: Vec<VReg> = func
        .params()
        .iter()
        .map(|&p| name(p.index() as u32, p))
        .collect();
    let mut def = first_def;
    for (bi, &base) in live_base.iter().enumerate() {
        let b = BlockId::new(bi as u32);
        at.enter(live.live_in(b), base);
        for inst in &mut func.block_mut(b).insts {
            inst.map_uses(|u| name(at.read(u.index()), u));
            if let Some(d) = inst.def() {
                at.set(d.index(), def);
                inst.map_def(|d| name(def, d));
                def += 1;
            }
        }
    }

    func.set_params(params);
    let table = origin.iter().map(|&v| func.vreg(v).clone()).collect();
    func.set_vreg_table(table);
    RenumberStats {
        vregs_before,
        webs: origin.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_ir::{verify_function, Cmp, FunctionBuilder, Imm, RegClass};

    #[test]
    fn disjoint_lifetimes_split_into_two_webs() {
        // x = 1; use x; x = 2; use x  — two independent live ranges.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.new_vreg(RegClass::Int, "x");
        let s = b.new_vreg(RegClass::Int, "s");
        b.load_imm(x, Imm::Int(1));
        b.copy(s, x);
        b.load_imm(x, Imm::Int(2));
        b.copy(s, x);
        b.ret(Some(s));
        let mut f = b.finish();
        let stats = renumber(&mut f);
        // x splits in two. s also splits: its first def is killed by the
        // second before any use, so it forms a (dead) web of its own.
        assert_eq!(stats.vregs_before, 2);
        assert_eq!(stats.webs, 4);
        let s1 = f.block(f.entry()).insts[1].def().unwrap();
        let s2 = f.block(f.entry()).insts[3].def().unwrap();
        assert_ne!(s1, s2);
        verify_function(&f).unwrap();
    }

    #[test]
    fn defs_merging_at_join_stay_one_web() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let p = b.add_param(RegClass::Int, "p");
        let x = b.new_vreg(RegClass::Int, "x");
        let a1 = b.new_block();
        let a2 = b.new_block();
        let j = b.new_block();
        let z = b.int(0);
        let c = b.cmp_i(Cmp::Gt, p, z);
        b.branch(c, a1, a2);
        b.switch_to(a1);
        b.load_imm(x, Imm::Int(1));
        b.jump(j);
        b.switch_to(a2);
        b.load_imm(x, Imm::Int(2));
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        let mut f = b.finish();
        renumber(&mut f);
        verify_function(&f).unwrap();
        // The two defs of x feed one use: they must share a register.
        let d1 = f.block(a1).insts[0].def().unwrap();
        let d2 = f.block(a2).insts[0].def().unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn renumber_is_idempotent() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.new_vreg(RegClass::Int, "x");
        let s = b.new_vreg(RegClass::Int, "s");
        b.load_imm(x, Imm::Int(1));
        b.copy(s, x);
        b.load_imm(x, Imm::Int(2));
        b.copy(s, x);
        b.ret(Some(s));
        let mut f = b.finish();
        let first = renumber(&mut f);
        let second = renumber(&mut f);
        assert_eq!(first.webs, second.webs);
        assert_eq!(second.vregs_before, first.webs);
        verify_function(&f).unwrap();
    }

    #[test]
    fn params_remain_params() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let p = b.add_param(RegClass::Int, "p");
        let q = b.add_param(RegClass::Float, "q");
        let _ = q;
        b.ret(Some(p));
        let mut f = b.finish();
        renumber(&mut f);
        assert_eq!(f.params().len(), 2);
        assert_eq!(f.class_of(f.params()[0]), RegClass::Int);
        assert_eq!(f.class_of(f.params()[1]), RegClass::Float);
        verify_function(&f).unwrap();
    }

    #[test]
    fn loop_variable_is_one_web() {
        // i = 0; while (i < n) i = i + 1; return i
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
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
        b.bin(optimist_ir::BinOp::AddI, i, i, one);
        b.jump(head);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut f = b.finish();
        renumber(&mut f);
        verify_function(&f).unwrap();
        // The init def and the increment def must share one register.
        let init_def = f.block(f.entry()).insts[0].def().unwrap();
        let inc_def = f.block(body).insts[1].def().unwrap();
        assert_eq!(init_def, inc_def);
    }
}
