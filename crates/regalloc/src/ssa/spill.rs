//! The decoupled spill phase: lower register pressure to ≤ k *before*
//! coloring.
//!
//! Because SSA interference graphs are chordal, the chromatic number
//! equals the largest clique, and the largest clique is exactly the
//! maximum register pressure (*maxlive*). So unlike Chaitin's coupled
//! loop — color, fail, spill, rebuild, repeat — the SSA track makes
//! spilling a standalone phase with a precise termination test: once
//! maxlive ≤ k in every register class, coloring is *guaranteed* to
//! succeed in one pass.
//!
//! Victim selection is pressure-region guided: each round looks at the
//! live set of the single worst-pressure program point per class and
//! evicts the cheapest values (by the classic `cost.rs` loop-weighted
//! spill costs) until that point fits. Spilled values are demoted to
//! memory everywhere — stores after defs, reloads before uses, phis over
//! spilled values dissolved into per-edge stores — which is
//! spill-everywhere for the chosen values, but chosen by region rather
//! than globally, so values that never visit a hot point stay in
//! registers.

use super::construct::{PhiSrc, SsaForm};
use super::liveness::{
    analyze, classes, peaks, pressure, worst_sets, BlockPeak, SsaAnalysis, SsaLiveness,
};
use crate::allocator::AllocError;
use crate::cost::{depth_weight, spill_costs};
use optimist_analysis::LoopInfo;
use optimist_ir::{Addr, BlockId, FrameSlot, Function, Inst, RegClass, VReg};
use optimist_machine::Target;

fn frame(slot: FrameSlot) -> Addr {
    Addr::Frame { slot, offset: 0 }
}

/// Mint an unspillable scratch register (spill temporaries must never be
/// spilled themselves).
fn temp(f: &mut Function, class: RegClass, tag: &str) -> VReg {
    let v = f.new_vreg(class, tag);
    f.set_spillable(v, false);
    v
}

/// Repeatedly measure pressure and demote the cheapest values at the
/// worst-pressure point of each over-budget class until maxlive ≤ k
/// everywhere, building the interference graph only once it fits. Returns
/// each round's victims, their summed spill cost, and the final (≤ k)
/// analysis for the coloring phase.
///
/// Rounds carry their state: one liveness patched in place, each block's
/// pressure peaks re-walked only where a round changed the block or its
/// live-out set, spill costs kept as occurrence counters, and the blocks
/// that mention each value, so a round rewrites only those. Debug builds
/// check all of it against a fresh recompute after every round.
pub fn lower_pressure(
    ssa: &mut SsaForm,
    target: &Target,
    func_name: &str,
) -> Result<(Vec<Vec<VReg>>, f64, SsaAnalysis), AllocError> {
    let k = [target.regs(RegClass::Int), target.regs(RegClass::Float)];
    let nonconvergence = || AllocError::NonConvergence {
        function: func_name.to_string(),
        passes: 1,
    };

    let mut live = SsaLiveness::new(ssa);
    let mut classes = classes(ssa);
    let mut block_peaks = vec![BlockPeak::default(); ssa.func.num_blocks()];
    peaks(
        ssa,
        &live,
        &classes,
        ssa.cfg().rpo().iter().copied(),
        &mut block_peaks,
    );
    let mut facts = worst_sets(ssa, &live, &classes, &block_peaks);

    let mut rounds: Vec<Vec<VReg>> = Vec::new();
    let mut total_cost = 0.0;
    let round_limit = 16 + ssa.func.num_vregs();
    let mut state: Option<Rounds> = None;
    while (0..2).any(|ci| facts.maxlive[ci] > k[ci]) {
        if rounds.len() >= round_limit {
            return Err(nonconvergence());
        }
        let state = state.get_or_insert_with(|| Rounds::new(ssa));

        let mut chosen: Vec<(f64, u32)> = Vec::new();
        for (ci, &kc) in k.iter().enumerate() {
            if facts.maxlive[ci] <= kc {
                continue;
            }
            let excess = facts.maxlive[ci] - kc;
            // A demoted value needs a defining store: an instruction def,
            // a phi, or parameter status. Names live only because a path
            // bypasses every definition have none — never pick those.
            let mut candidates: Vec<(f64, u32)> = facts.worst[ci]
                .iter()
                .map(|&v| (state.cost(&ssa.func, v), v.index() as u32))
                .filter(|&(cost, v)| cost.is_finite() && state.has_def[v as usize])
                .collect();
            if candidates.len() < excess {
                return Err(nonconvergence());
            }
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            chosen.extend_from_slice(&candidates[..excess]);
        }
        for &(cost, _) in &chosen {
            total_cost += cost;
        }
        let chosen: Vec<VReg> = chosen.into_iter().map(|(_, v)| VReg::new(v)).collect();

        let dirty = spill_values(ssa, &chosen, state, &mut live);
        let grown = ssa.func.num_vregs();
        classes.extend((classes.len()..grown).map(|v| ssa.func.vreg(VReg::new(v as u32)).class));
        let walk = ssa.cfg().rpo().iter().copied().filter(|b| dirty[b.index()]);
        peaks(ssa, &live, &classes, walk, &mut block_peaks);
        facts = worst_sets(ssa, &live, &classes, &block_peaks);
        rounds.push(chosen);

        if cfg!(debug_assertions) {
            let fresh = SsaLiveness::new(ssa);
            let round = rounds.len();
            assert!(
                live.same_sets(&fresh),
                "`{func_name}`: round {round} left liveness unlike a fresh one"
            );
            assert!(
                facts == pressure(ssa, &fresh),
                "`{func_name}`: round {round} left pressure facts unlike a fresh walk"
            );
            let costs = spill_costs(&ssa.func, &state.loops);
            for (v, cost) in costs.iter().enumerate() {
                let kept = state.cost(&ssa.func, VReg::new(v as u32));
                assert!(
                    kept.to_bits() == cost.to_bits(),
                    "`{func_name}`: round {round} kept cost {kept} for v{v}, a fresh count says {cost}"
                );
            }
        }
    }

    let analysis = analyze(ssa, &live);
    debug_assert!(
        analysis.pressure == facts,
        "`{func_name}`: the graph walk disagrees with the pressure walk"
    );
    Ok((rounds, total_cost, analysis))
}

/// One value's occurrences, the terms of its spill cost (`cost.rs`): the
/// loop-weighted count of defs and of instructions using it, how many
/// defs and using instructions there are, and how many of those uses do
/// not follow a def of the value right away.
#[derive(Debug, Clone, Copy, Default)]
struct Occ {
    weight: f64,
    defs: i32,
    uses: i32,
    far: i32,
}

/// What the spill rounds carry from one round to the next. Built when a
/// first round is needed, so functions that fit never pay for it.
struct Rounds {
    /// Block structure is frozen after construction, so loops are
    /// computed once.
    loops: LoopInfo,
    /// Occurrence counters by value; a rewritten block's are subtracted
    /// before and added back after. Weights are powers of ten, so every
    /// sum is an exact integer and the costs match a fresh count bit for
    /// bit.
    occ: Vec<Occ>,
    /// Which values have a defining store site; see [`defined_values`].
    has_def: Vec<bool>,
    /// Which values are parameters.
    is_param: Vec<bool>,
    /// The blocks whose instructions or phis mention each value, repeats
    /// allowed. Temporaries are left out: they are never chosen.
    mentions: Vec<Vec<u32>>,
}

impl Rounds {
    fn new(ssa: &SsaForm) -> Self {
        let f = &ssa.func;
        let nv = f.num_vregs();
        let mut is_param = vec![false; nv];
        for &p in f.params() {
            is_param[p.index()] = true;
        }
        let mut mentions: Vec<Vec<u32>> = vec![Vec::new(); nv];
        let mut mention = |v: VReg, b: u32| {
            let m = &mut mentions[v.index()];
            if m.last() != Some(&b) {
                m.push(b);
            }
        };
        let mut uses = Vec::new();
        for (bid, block) in f.blocks() {
            let b = bid.index() as u32;
            for inst in &block.insts {
                inst.def().into_iter().for_each(|d| mention(d, b));
                uses.clear();
                inst.uses_into(&mut uses);
                uses.iter().for_each(|&u| mention(u, b));
            }
            for phi in &ssa.phis[bid.index()] {
                mention(phi.dst, b);
                for &(_, a) in &phi.args {
                    if let PhiSrc::Reg(v) = a {
                        mention(v, b);
                    }
                }
            }
        }
        let mut rounds = Rounds {
            loops: LoopInfo::new(f, ssa.cfg(), ssa.dom()),
            occ: vec![Occ::default(); nv],
            has_def: defined_values(ssa),
            is_param,
            mentions,
        };
        for b in f.block_ids() {
            rounds.count(f, b, 1);
        }
        rounds
    }

    /// Add (`sign` 1) or subtract (`sign` −1) block `b`'s occurrences.
    fn count(&mut self, f: &Function, b: BlockId, sign: i32) {
        let w = f64::from(sign) * depth_weight(self.loops.depth(b));
        let insts = &f.block(b).insts;
        let mut uses = Vec::new();
        for (i, inst) in insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                let o = &mut self.occ[d.index()];
                o.weight += w;
                o.defs += sign;
            }
            uses.clear();
            inst.uses_into(&mut uses);
            uses.sort_unstable();
            uses.dedup();
            for &u in &uses {
                let o = &mut self.occ[u.index()];
                o.weight += w;
                o.uses += sign;
                if i == 0 || insts[i - 1].def() != Some(u) {
                    o.far += sign;
                }
            }
        }
    }

    /// `v`'s spill cost, as [`spill_costs`] would compute it now: infinite
    /// for unspillable values and for non-parameters whose every use
    /// follows their single def right away.
    fn cost(&self, f: &Function, v: VReg) -> f64 {
        let o = self.occ[v.index()];
        let is_param = self.is_param.get(v.index()).copied().unwrap_or(false);
        if !f.vreg(v).spillable || (!is_param && o.defs == 1 && o.uses > 0 && o.far == 0) {
            f64::INFINITY
        } else {
            o.weight
        }
    }
}

/// Values with a defining store site: instruction defs in reachable
/// blocks, phi destinations, and parameters.
fn defined_values(ssa: &SsaForm) -> Vec<bool> {
    let mut has_def = vec![false; ssa.func.num_vregs()];
    for &p in ssa.func.params() {
        has_def[p.index()] = true;
    }
    for &b in ssa.cfg().rpo() {
        for inst in &ssa.func.block(b).insts {
            if let Some(d) = inst.def() {
                has_def[d.index()] = true;
            }
        }
        for phi in &ssa.phis[b.index()] {
            has_def[phi.dst.index()] = true;
        }
    }
    has_def
}

/// Demote `chosen` to stack slots: store after each def, reload into a
/// fresh unspillable temporary before each use, dissolve phis over
/// spilled destinations into per-edge stores, and store spilled
/// parameters once at function entry. Only the blocks that mention a
/// chosen value, the predecessors that take edge code and the entry are
/// touched, and temporaries are minted in block order, as a rewrite of
/// every block would mint them. Brings `rounds` and `live` up to date and
/// returns the blocks whose walk may have changed.
///
/// Edge code is appended before predecessor terminators — safe because
/// construction split critical edges, so every predecessor of a
/// phi-carrying block has that block as its only successor.
fn spill_values(
    ssa: &mut SsaForm,
    chosen: &[VReg],
    rounds: &mut Rounds,
    live: &mut SsaLiveness,
) -> Vec<bool> {
    let nb = ssa.func.num_blocks();
    let nv = ssa.func.num_vregs();
    let mut slot_of: Vec<Option<FrameSlot>> = vec![None; nv];
    for &v in chosen {
        let name = format!("{}.spill", ssa.func.vreg(v).name);
        let s = ssa.func.new_slot(8, name, true);
        slot_of[v.index()] = Some(s);
        ssa.func.set_spillable(v, false);
    }
    // Temporaries minted below have indices ≥ nv; `get` keeps them out.
    let in_set = |v: VReg| slot_of.get(v.index()).copied().flatten();

    let mut blocks: Vec<u32> = chosen
        .iter()
        .flat_map(|v| rounds.mentions[v.index()].iter().copied())
        .collect();
    blocks.sort_unstable();
    blocks.dedup();

    let mut edge_insts: Vec<Vec<Inst>> = vec![Vec::new(); nb];
    // (phi block, predecessor, value) for registers a dissolved phi's
    // edge now stores: the liveness update needs them.
    let mut stored: Vec<(BlockId, BlockId, VReg)> = Vec::new();

    // Phis whose destination is spilled dissolve: each predecessor stores
    // the incoming value straight into the destination's slot (memory to
    // memory moves bounce through a transient temporary that dies at its
    // store, so the edge gains at most one register of pressure).
    for &b in &blocks {
        let b = b as usize;
        if ssa.phis[b].iter().all(|phi| in_set(phi.dst).is_none()) {
            continue;
        }
        let mut kept = Vec::new();
        for phi in std::mem::take(&mut ssa.phis[b]) {
            let Some(slot) = in_set(phi.dst) else {
                kept.push(phi);
                continue;
            };
            for &(p, a) in &phi.args {
                let src_slot = match a {
                    PhiSrc::Reg(v) => in_set(v),
                    PhiSrc::Slot(s) => Some(s),
                };
                match (a, src_slot) {
                    (PhiSrc::Reg(v), None) => {
                        edge_insts[p.index()].push(Inst::Store {
                            src: v,
                            addr: frame(slot),
                        });
                        stored.push((BlockId::new(b as u32), p, v));
                        rounds.mentions[v.index()].push(p.index() as u32);
                    }
                    (a, Some(aslot)) => {
                        let class = match a {
                            PhiSrc::Reg(v) => ssa.func.vreg(v).class,
                            PhiSrc::Slot(_) => ssa.func.vreg(phi.dst).class,
                        };
                        let t = temp(&mut ssa.func, class, "spl");
                        edge_insts[p.index()].push(Inst::Load {
                            dst: t,
                            addr: frame(aslot),
                        });
                        edge_insts[p.index()].push(Inst::Store {
                            src: t,
                            addr: frame(slot),
                        });
                    }
                    (PhiSrc::Slot(_), None) => unreachable!("slot arg always has a slot"),
                }
            }
        }
        ssa.phis[b] = kept;
    }

    // Spilled arguments of surviving phis become slot sources: the value
    // waits in memory and the edge's parallel copy loads it directly into
    // the destination's register during destruction. No reload temporary,
    // no pressure at the predecessor's tail.
    for &b in &blocks {
        for phi in &mut ssa.phis[b as usize] {
            for arg in &mut phi.args {
                if let PhiSrc::Reg(v) = arg.1 {
                    if let Some(aslot) = in_set(v) {
                        arg.1 = PhiSrc::Slot(aslot);
                    }
                }
            }
        }
    }

    // Every block whose instructions change sheds its occurrence counts
    // now and adds them back once rewritten.
    let entry = ssa.func.entry();
    let mut changed = blocks.clone();
    changed.extend((0..nb as u32).filter(|&p| !edge_insts[p as usize].is_empty()));
    if ssa.func.params().iter().any(|&p| in_set(p).is_some()) {
        changed.push(entry.index() as u32);
    }
    changed.sort_unstable();
    changed.dedup();
    for &b in &changed {
        rounds.count(&ssa.func, BlockId::new(b), -1);
    }

    // Ordinary instructions: reload before uses, store after defs.
    let mut uses = Vec::new();
    for &b in &blocks {
        let bid = BlockId::new(b);
        let old = std::mem::take(&mut ssa.func.block_mut(bid).insts);
        let mut out = Vec::with_capacity(old.len());
        for mut inst in old {
            uses.clear();
            inst.uses_into(&mut uses);
            uses.sort_unstable_by_key(|v| v.index());
            uses.dedup();
            let mut remap: Vec<(VReg, VReg)> = Vec::new();
            for &u in &uses {
                if let Some(slot) = in_set(u) {
                    let class = ssa.func.vreg(u).class;
                    let t = temp(&mut ssa.func, class, "rld");
                    out.push(Inst::Load {
                        dst: t,
                        addr: frame(slot),
                    });
                    remap.push((u, t));
                }
            }
            if !remap.is_empty() {
                inst.map_uses(|u| {
                    remap
                        .iter()
                        .find(|&&(from, _)| from == u)
                        .map_or(u, |&(_, to)| to)
                });
            }
            let def_slot = inst.def().and_then(in_set);
            let d = inst.def();
            out.push(inst);
            if let (Some(d), Some(slot)) = (d, def_slot) {
                out.push(Inst::Store {
                    src: d,
                    addr: frame(slot),
                });
            }
        }
        ssa.func.block_mut(bid).insts = out;
    }

    // Spilled parameters are stored once, at the very top of the entry.
    let mut entry_stores = Vec::new();
    for &p in ssa.func.params() {
        if let Some(slot) = in_set(p) {
            entry_stores.push(Inst::Store {
                src: p,
                addr: frame(slot),
            });
        }
    }
    if !entry_stores.is_empty() {
        ssa.func.block_mut(entry).insts.splice(0..0, entry_stores);
    }

    // Splice edge code before each predecessor's terminator (after the
    // rewrite above so reloads feeding the terminator stay adjacent).
    for (b, insts) in edge_insts.into_iter().enumerate() {
        if insts.is_empty() {
            continue;
        }
        let bid = BlockId::new(b as u32);
        let at = ssa.func.block(bid).insts.len().saturating_sub(1);
        ssa.func.block_mut(bid).insts.splice(at..at, insts);
    }

    rounds.occ.resize(ssa.func.num_vregs(), Occ::default());
    let mut dirty = vec![false; nb];
    for &b in &changed {
        rounds.count(&ssa.func, BlockId::new(b), 1);
        dirty[b as usize] = true;
    }
    live.demote(ssa, chosen, &stored, &mut dirty);
    dirty
}
