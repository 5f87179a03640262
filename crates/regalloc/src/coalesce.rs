//! Aggressive copy coalescing, as in Chaitin's build phase.
//!
//! Any register-to-register copy whose source and destination do not
//! interfere is removed by merging the two live ranges. Because merging
//! changes the graph, the build phase "repeatedly build[s] the graph and
//! coalesc[es] registers" ([CACC 81]) until no copy can be merged.
//!
//! The aggressive rounds build only what the merge loop reads: whether
//! two copy endpoints interfere. Every member of a group the loop tests
//! joined it through a copy, so liveness and interference among the
//! registers some copy names ([`CopyInterference`]) answer every question
//! the whole graph would. The conservative rule counts neighbours of
//! significant degree, so it still builds the whole graph each round.

use crate::build::build_graph;
use optimist_analysis::{Cfg, DenseBitSet, Liveness};
use optimist_ir::{Function, Inst, RegClass, VReg};
use optimist_machine::Target;

/// Which coalescing policy the build phase uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoalesceMode {
    /// Chaitin's aggressive coalescing, as the paper used: merge every
    /// non-interfering copy, no matter how constrained the result.
    #[default]
    Aggressive,
    /// Briggs' later *conservative* rule (1994, exposed here for ablation):
    /// merge only when the combined node has fewer than `k` neighbors of
    /// significant degree (≥ `k`), which can never turn a colorable graph
    /// uncolorable.
    Conservative,
    /// No coalescing.
    Off,
}

/// Options for [`coalesce`].
#[derive(Debug, Clone, Copy)]
pub struct CoalesceOpts<'a> {
    /// Which merging policy to apply.
    pub mode: CoalesceMode,
    /// Target machine, required by [`CoalesceMode::Conservative`] (it
    /// supplies `k` per register class). Ignored by the other modes.
    pub target: Option<&'a Target>,
}

impl Default for CoalesceOpts<'_> {
    /// Aggressive coalescing — the paper's configuration.
    fn default() -> Self {
        CoalesceOpts {
            mode: CoalesceMode::Aggressive,
            target: None,
        }
    }
}

/// Coalesce copies in `func` according to `opts`, repeating build-and-merge
/// passes until no copy can be merged (Chaitin: "repeatedly build the graph
/// and coalesce registers"). Returns the number of copies merged, totalled
/// across passes.
pub fn coalesce(func: &mut Function, opts: &CoalesceOpts) -> usize {
    if opts.mode == CoalesceMode::Off {
        return 0;
    }
    // A pass renames registers and drops self-copies, never a terminator,
    // so one CFG serves every pass.
    let cfg = Cfg::new(func);
    let mut total = 0;
    loop {
        let merged = one_pass(func, &cfg, opts.mode, opts.target);
        total += merged;
        if merged == 0 {
            return total;
        }
    }
}

fn find(root: &mut [u32], mut x: u32) -> u32 {
    while root[x as usize] != x {
        let p = root[root[x as usize] as usize];
        root[x as usize] = p;
        x = p;
    }
    x
}

/// One build-and-merge pass. Returns the number of copies coalesced.
fn one_pass(func: &mut Function, cfg: &Cfg, mode: CoalesceMode, target: Option<&Target>) -> usize {
    let (merged, mut root) = match mode {
        CoalesceMode::Off => return 0,
        CoalesceMode::Aggressive => {
            let ends = CopyInterference::new(func, cfg);
            merge_copies(func, |x, y| ends.interferes(x, y), |_, _, _| true)
        }
        CoalesceMode::Conservative => {
            let live = Liveness::new(func, cfg);
            let graph = build_graph(func, cfg, &live);
            let target = target.expect("conservative coalescing needs a target");
            merge_copies(
                func,
                |x, y| graph.interferes(x, y),
                |a, b, d| {
                    // Count the combined group's distinct neighbors of
                    // significant degree (>= k for the group's class).
                    let k = target.regs(graph.class(d));
                    let mut heavy = std::collections::HashSet::new();
                    for &m in a.iter().chain(b) {
                        for &nb in graph.neighbors(m) {
                            if graph.degree(nb) >= k {
                                heavy.insert(nb);
                            }
                        }
                    }
                    // Merging could make the graph uncolorable.
                    heavy.len() < k
                },
            )
        }
    };

    if merged == 0 {
        return 0;
    }

    // A merged range is unspillable if any member was (conservative: keeps
    // spill temporaries protected after they coalesce with something).
    for v in 0..func.num_vregs() as u32 {
        let r = find(&mut root, v);
        if r != v && !func.vreg(VReg::new(v)).spillable {
            func.set_spillable(VReg::new(r), false);
        }
    }

    // Rewrite all occurrences through the union-find and drop self-copies.
    func.for_each_inst_mut(|_, _, inst| {
        inst.map_uses(|v| VReg::new(find(&mut root, v.index() as u32)));
        inst.map_def(|v| VReg::new(find(&mut root, v.index() as u32)));
    });
    let params = func
        .params()
        .iter()
        .map(|p| VReg::new(find(&mut root, p.index() as u32)))
        .collect();
    func.set_params(params);
    func.rewrite_blocks(|_, insts| {
        insts
            .into_iter()
            .filter(|i| !matches!(i, Inst::Copy { dst, src } if dst == src))
            .collect()
    });

    merged
}

/// The merge loop: visit every copy in block order and union the groups
/// of its two ends unless a member of one interferes with a member of
/// the other, or `admit` (given both groups' members and the copy's
/// destination) declines. Returns the merge count and the union-find.
fn merge_copies(
    func: &Function,
    interferes: impl Fn(u32, u32) -> bool,
    mut admit: impl FnMut(&[u32], &[u32], u32) -> bool,
) -> (usize, Vec<u32>) {
    let nv = func.num_vregs();
    let mut root: Vec<u32> = (0..nv as u32).collect();
    // Members of each root's group, empty until the group first merges.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); nv];

    let mut merged = 0usize;
    for b in func.block_ids() {
        for inst in &func.block(b).insts {
            if let Inst::Copy { dst, src } = inst {
                let (d, s) = (dst.index() as u32, src.index() as u32);
                let (rd, rs) = (find(&mut root, d), find(&mut root, s));
                if rd == rs {
                    continue; // already merged; copy will collapse
                }
                let (gd, gs) = (group(&members, &rd), group(&members, &rs));
                if gd.iter().any(|&x| gs.iter().any(|&y| interferes(x, y))) || !admit(gd, gs, d) {
                    continue;
                }
                // Union rd into rs.
                root[rd as usize] = rs;
                let moved = std::mem::take(&mut members[rd as usize]);
                let into = &mut members[rs as usize];
                if into.is_empty() {
                    into.push(rs);
                }
                if moved.is_empty() {
                    into.push(rd);
                } else {
                    into.extend(moved);
                }
                merged += 1;
            }
        }
    }
    (merged, root)
}

/// The members of root `r`'s group: its list, or just `r` while the list
/// is empty (the group has not merged yet).
fn group<'a>(members: &'a [Vec<u32>], r: &'a u32) -> &'a [u32] {
    let m = &members[*r as usize];
    if m.is_empty() {
        std::slice::from_ref(r)
    } else {
        m
    }
}

/// Interference among copy endpoints only, equal pair for pair to what
/// [`build_graph`] would give them: liveness is separable per register,
/// so liveness over the endpoints alone is the full liveness restricted
/// to them, and the same backward scan — copy refinement, same-class
/// rule, entry clique — over those sets finds the same pairs.
struct CopyInterference {
    /// Each register's position among the endpoints, or `u32::MAX`.
    index: Vec<u32>,
    /// Triangular bit matrix over endpoint positions.
    matrix: DenseBitSet,
}

impl CopyInterference {
    fn new(func: &Function, cfg: &Cfg) -> Self {
        const NONE: u32 = u32::MAX;
        let mut index = vec![NONE; func.num_vregs()];
        let mut classes: Vec<RegClass> = Vec::new();
        for (_, block) in func.blocks() {
            for inst in &block.insts {
                if let Inst::Copy { dst, src } = inst {
                    for v in [dst, src] {
                        if index[v.index()] == NONE {
                            index[v.index()] = classes.len() as u32;
                            classes.push(func.class_of(*v));
                        }
                    }
                }
            }
        }
        let n = classes.len();
        let at = |v: VReg| Some(index[v.index()] as usize).filter(|&i| i != NONE as usize);
        let live = Liveness::over(func, cfg, n, at);

        // The build phase's scan: each def interferes with everything
        // live after it, except a copy's destination with its source.
        let mut matrix = DenseBitSet::new(n * n.saturating_sub(1) / 2);
        let mut add = |a: usize, b: usize| {
            if a != b && classes[a] == classes[b] {
                matrix.insert(tri(a, b));
            }
        };
        let mut cur = DenseBitSet::new(n);
        let mut uses = Vec::new();
        for &b in cfg.rpo() {
            cur.copy_from(live.live_out(b));
            for inst in func.block(b).insts.iter().rev() {
                if let Some(d) = inst.def().and_then(at) {
                    cur.remove(d);
                    let skip = match inst {
                        Inst::Copy { src, .. } => at(*src),
                        _ => None,
                    };
                    for l in cur.iter() {
                        if Some(l) != skip {
                            add(d, l);
                        }
                    }
                }
                uses.clear();
                inst.uses_into(&mut uses);
                for &u in &uses {
                    if let Some(i) = at(u) {
                        cur.insert(i);
                    }
                }
            }
        }
        // Everything live at the top of the function is defined on entry.
        let entry: Vec<usize> = live.live_in(func.entry()).iter().collect();
        for (i, &x) in entry.iter().enumerate() {
            for &y in &entry[i + 1..] {
                add(x, y);
            }
        }
        CopyInterference { index, matrix }
    }

    /// True if copy endpoints `x` and `y` interfere.
    fn interferes(&self, x: u32, y: u32) -> bool {
        let (a, b) = (self.index[x as usize], self.index[y as usize]);
        debug_assert!(a != u32::MAX && b != u32::MAX, "v{x} or v{y} ends no copy");
        a != b && self.matrix.contains(tri(a as usize, b as usize))
    }
}

/// Position of the pair `{a, b}` (`a ≠ b`) in a triangular bit matrix.
fn tri(a: usize, b: usize) -> usize {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    hi * (hi - 1) / 2 + lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_analysis::renumber;
    use optimist_ir::{verify_function, BinOp, FunctionBuilder, Imm, RegClass};

    #[test]
    fn simple_copy_is_coalesced() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let a = b.int(1);
        let c = b.new_vreg(RegClass::Int, "c");
        b.copy(c, a);
        b.ret(Some(c));
        let mut f = b.finish();
        renumber(&mut f);
        let n_before = f.num_insts();
        assert_eq!(coalesce(&mut f, &CoalesceOpts::default()), 1);
        assert_eq!(f.num_insts(), n_before - 1);
        verify_function(&f).unwrap();
    }

    #[test]
    fn interfering_copy_is_kept() {
        // c = copy a; a = 2; t = a + c  — a is redefined while c lives, so
        // the new a-range interferes with c. The copy from the *old* a-range
        // is still coalescable (they don't interfere), but after renumber
        // the old and new `a` are separate; simulate the interfering case
        // directly with distinct ranges.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let a = b.int(1);
        let c = b.new_vreg(RegClass::Int, "c");
        b.copy(c, a);
        let two = b.int(2);
        // Force c and two to interfere with everything alive, then use a
        // after the copy so a and c stay simultaneously... use both:
        let t = b.binv(BinOp::AddI, a, c);
        let u = b.binv(BinOp::AddI, t, two);
        b.ret(Some(u));
        let mut f = b.finish();
        renumber(&mut f);
        // a–c copy: a and c hold the same value and never interfere, so it
        // coalesces. This documents that value-identical overlap is merged.
        assert_eq!(coalesce(&mut f, &CoalesceOpts::default()), 1);
        verify_function(&f).unwrap();
    }

    #[test]
    fn copy_with_redefined_source_not_coalesced() {
        // c = copy a; a = 2 (same web via later merge? no: renumber splits);
        // build the interference explicitly: c = copy a; a2 uses make c and
        // a2 interfere. Here: x = 1; y = copy x; x2 = 2; r = x2 + y.
        // After renumber x and x2 are different ranges; the copy (y = x)
        // coalesces since x dies at the copy. To get a non-coalescable
        // copy we need dst and src simultaneously live with *different*
        // values — impossible for a copy pair itself, so Chaitin-style
        // aggressive coalescing merges every copy unless a previous merge
        // created interference. Exercise that: two copies from interfering
        // sources into one destination web.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let p = b.add_param(RegClass::Int, "p");
        let arm1 = b.new_block();
        let arm2 = b.new_block();
        let join = b.new_block();
        let x = b.int(1);
        let y = b.int(2);
        let m = b.new_vreg(RegClass::Int, "m");
        let z = b.int(0);
        let cnd = b.cmp_i(optimist_ir::Cmp::Gt, p, z);
        b.branch(cnd, arm1, arm2);
        b.switch_to(arm1);
        b.copy(m, x);
        b.jump(join);
        b.switch_to(arm2);
        b.copy(m, y);
        b.jump(join);
        b.switch_to(join);
        // Keep x and y live past the copies so merging m with one of them
        // interferes with the other.
        let s = b.binv(BinOp::AddI, x, y);
        let r = b.binv(BinOp::AddI, s, m);
        b.ret(Some(r));
        let mut f = b.finish();
        renumber(&mut f);
        let merged = coalesce(&mut f, &CoalesceOpts::default());
        // m can merge with at most one of x, y; the other copy must remain.
        assert!(merged <= 1);
        let copies = f.insts().filter(|(_, _, i)| i.is_copy()).count();
        assert!(copies >= 1, "one copy must survive");
        verify_function(&f).unwrap();
    }

    #[test]
    fn coalescing_is_idempotent_at_fixpoint() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let a = b.int(3);
        let c = b.new_vreg(RegClass::Int, "c");
        b.copy(c, a);
        let d = b.new_vreg(RegClass::Int, "d");
        b.copy(d, c);
        b.ret(Some(d));
        let mut f = b.finish();
        renumber(&mut f);
        assert_eq!(coalesce(&mut f, &CoalesceOpts::default()), 2);
        assert_eq!(coalesce(&mut f, &CoalesceOpts::default()), 0);
        verify_function(&f).unwrap();
    }

    #[test]
    fn params_survive_coalescing() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let p = b.add_param(RegClass::Int, "p");
        let c = b.new_vreg(RegClass::Int, "c");
        b.copy(c, p);
        b.ret(Some(c));
        let mut f = b.finish();
        renumber(&mut f);
        coalesce(&mut f, &CoalesceOpts::default());
        assert_eq!(f.params().len(), 1);
        verify_function(&f).unwrap();
        let _ = (p, c);
    }

    #[test]
    fn conservative_mode_declines_risky_merges() {
        // A copy whose merge would gather >= k heavy neighbors is skipped
        // under the conservative rule but taken aggressively. Build a
        // source range interfering with k heavy ranges.
        use optimist_machine::Target;
        let k = 3;
        let target = Target::custom("t", k, 8);

        let build = || {
            let mut b = FunctionBuilder::new("f");
            b.set_ret_class(Some(RegClass::Int));
            // heavy ranges h1..h3 all mutually live with a and each other
            let hs: Vec<_> = (0..k as i64).map(|i| b.int(10 + i)).collect();
            let a = b.int(1);
            let c = b.new_vreg(RegClass::Int, "c");
            b.copy(c, a);
            // Keep a alive past the copy and all heavies live with both.
            let mut acc = b.binv(BinOp::AddI, a, c);
            for &h in &hs {
                acc = b.binv(BinOp::AddI, acc, h);
            }
            // Re-use heavies again so they stay live across everything.
            let mut acc2 = acc;
            for &h in &hs {
                acc2 = b.binv(BinOp::AddI, acc2, h);
            }
            let mut f = b.finish();
            // terminate
            {
                use optimist_ir::Inst;
                f.block_mut(f.entry())
                    .insts
                    .push(Inst::Ret { value: Some(acc2) });
            }
            renumber(&mut f);
            f
        };

        let mut f_aggr = build();
        let aggressive = coalesce(&mut f_aggr, &CoalesceOpts::default());
        let mut f_cons = build();
        let conservative = coalesce(
            &mut f_cons,
            &CoalesceOpts {
                mode: CoalesceMode::Conservative,
                target: Some(&target),
            },
        );
        assert!(
            conservative <= aggressive,
            "conservative ({conservative}) must merge no more than aggressive ({aggressive})"
        );
        verify_function(&f_cons).unwrap();
        verify_function(&f_aggr).unwrap();
    }

    #[test]
    fn off_mode_merges_nothing() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let a = b.int(1);
        let c = b.new_vreg(RegClass::Int, "c");
        b.copy(c, a);
        b.ret(Some(c));
        let mut f = b.finish();
        renumber(&mut f);
        assert_eq!(
            coalesce(
                &mut f,
                &CoalesceOpts {
                    mode: CoalesceMode::Off,
                    ..Default::default()
                }
            ),
            0
        );
        assert_eq!(
            f.insts().filter(|(_, _, i)| i.is_copy()).count(),
            1,
            "the copy must survive"
        );
    }

    #[test]
    fn dead_copy_merges_without_changing_semantics() {
        let mut b = FunctionBuilder::new("f");
        let x = b.new_vreg(RegClass::Int, "x");
        b.load_imm(x, Imm::Int(1));
        let y = b.new_vreg(RegClass::Int, "y");
        b.copy(y, x);
        b.ret(None);
        let mut f = b.finish();
        renumber(&mut f);
        coalesce(&mut f, &CoalesceOpts::default());
        verify_function(&f).unwrap();
    }
}
