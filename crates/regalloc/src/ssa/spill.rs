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
use super::liveness::{analyze, pressure, SsaAnalysis, SsaLiveness};
use crate::allocator::AllocError;
use crate::cost::spill_costs;
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
/// the spilled values, their summed spill cost, and the final (≤ k)
/// analysis for the coloring phase.
pub(crate) fn lower_pressure(
    ssa: &mut SsaForm,
    target: &Target,
    func_name: &str,
) -> Result<(Vec<VReg>, f64, SsaAnalysis), AllocError> {
    // Block structure is frozen after construction, so loops are computed
    // once; costs are recomputed per round over the grown function.
    let loops = LoopInfo::new(&ssa.func, ssa.cfg(), ssa.dom());
    let k = [target.regs(RegClass::Int), target.regs(RegClass::Float)];
    let nonconvergence = || AllocError::NonConvergence {
        function: func_name.to_string(),
        passes: 1,
    };

    let mut spilled = Vec::new();
    let mut total_cost = 0.0;
    let round_limit = 16 + ssa.func.num_vregs();
    let mut rounds = 0;
    loop {
        let live = SsaLiveness::new(ssa);
        let facts = pressure(ssa, &live);
        if (0..2).all(|ci| facts.maxlive[ci] <= k[ci]) {
            let analysis = analyze(ssa, &live);
            debug_assert!(
                analysis.pressure == facts,
                "`{func_name}`: the graph walk disagrees with the pressure walk"
            );
            return Ok((spilled, total_cost, analysis));
        }
        rounds += 1;
        if rounds > round_limit {
            return Err(nonconvergence());
        }

        let costs = spill_costs(&ssa.func, &loops);
        let has_def = defined_values(ssa);
        let mut chosen: Vec<VReg> = Vec::new();
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
                .filter(|&&v| {
                    ssa.func.vreg(v).spillable && costs[v.index()].is_finite() && has_def[v.index()]
                })
                .map(|&v| (costs[v.index()], v.index() as u32))
                .collect();
            if candidates.len() < excess {
                return Err(nonconvergence());
            }
            candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            chosen.extend(candidates[..excess].iter().map(|&(_, v)| VReg::new(v)));
        }
        for &v in &chosen {
            total_cost += costs[v.index()];
        }
        spill_values(ssa, &chosen);
        spilled.extend(chosen);
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
/// parameters once at function entry.
///
/// Edge code is appended before predecessor terminators — safe because
/// construction split critical edges, so every predecessor of a
/// phi-carrying block has that block as its only successor.
fn spill_values(ssa: &mut SsaForm, chosen: &[VReg]) {
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

    let mut edge_insts: Vec<Vec<Inst>> = vec![Vec::new(); nb];

    // Phis whose destination is spilled dissolve: each predecessor stores
    // the incoming value straight into the destination's slot (memory to
    // memory moves bounce through a transient temporary that dies at its
    // store, so the edge gains at most one register of pressure).
    for b in 0..nb {
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
                    (PhiSrc::Reg(v), None) => edge_insts[p.index()].push(Inst::Store {
                        src: v,
                        addr: frame(slot),
                    }),
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
    for b in 0..nb {
        for phi in &mut ssa.phis[b] {
            for arg in &mut phi.args {
                if let PhiSrc::Reg(v) = arg.1 {
                    if let Some(aslot) = in_set(v) {
                        arg.1 = PhiSrc::Slot(aslot);
                    }
                }
            }
        }
    }

    // Ordinary instructions: reload before uses, store after defs.
    let mut uses = Vec::new();
    for b in 0..nb {
        let bid = BlockId::new(b as u32);
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
    let entry = ssa.func.entry();
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
}
