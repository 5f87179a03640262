//! Spill-code insertion.
//!
//! A spilled live range lives in a stack slot: "the value is stored to
//! memory after each definition and restored before each use" (paper §2.1).
//! The temporaries created here are exactly the tiny def-adjacent ranges the
//! cost model marks never-spill, which is why the Build–Simplify–Color loop
//! converges (each spilled range is divided "into several shorter live
//! ranges, one for each definition or use", §3.3).

use optimist_ir::{Addr, FrameSlot, Function, GlobalId, Imm, Inst, RegClass, VReg};

/// How a rematerializable spilled range is recomputed in front of each use
/// instead of being reloaded from a spill slot.
///
/// The classic form (Briggs, Cooper & Torczon, PLDI 1992) covers
/// "never-killed" constants; this crate extends it to the other
/// operand-free instructions — address materializations — and to
/// constant-offset loads from frame slots that are provably read-only
/// within the function (no store to the slot and no escape of its address,
/// so no call or indirect store can change the loaded value either).
#[derive(Debug, Clone, Copy, PartialEq)]
enum RematRecipe {
    /// Recompute `dst = imm c`.
    Imm(Imm),
    /// Recompute `dst = frame_addr slot` (pure frame-pointer arithmetic).
    FrameAddr(FrameSlot),
    /// Recompute `dst = global_addr g` (pure address arithmetic).
    GlobalAddr(GlobalId),
    /// Re-load `dst = load [slot + offset]` from a read-only slot.
    LoadRo {
        /// The read-only frame slot.
        slot: FrameSlot,
        /// Byte displacement of the original load.
        offset: i64,
    },
}

impl RematRecipe {
    /// The recipe that recomputes `inst`'s definition, if it is one of the
    /// cheap recomputable forms. `LoadRo` still needs the read-only check.
    fn of(inst: &Inst) -> Option<RematRecipe> {
        match *inst {
            Inst::LoadImm { imm, .. } => Some(RematRecipe::Imm(imm)),
            Inst::FrameAddr { slot, .. } => Some(RematRecipe::FrameAddr(slot)),
            Inst::GlobalAddr { global, .. } => Some(RematRecipe::GlobalAddr(global)),
            Inst::Load {
                addr: Addr::Frame { slot, offset },
                ..
            } => Some(RematRecipe::LoadRo { slot, offset }),
            _ => None,
        }
    }

    /// Recipe equality; immediates compare bit-exactly so `-0.0 ≠ 0.0`.
    fn same(self, other: RematRecipe) -> bool {
        match (self, other) {
            (RematRecipe::Imm(a), RematRecipe::Imm(b)) => same_imm(a, b),
            _ => self == other,
        }
    }

    /// Emit the recomputation of this value into `dst`.
    fn emit(self, dst: VReg) -> Inst {
        match self {
            RematRecipe::Imm(imm) => Inst::LoadImm { dst, imm },
            RematRecipe::FrameAddr(slot) => Inst::FrameAddr { dst, slot },
            RematRecipe::GlobalAddr(global) => Inst::GlobalAddr { dst, global },
            RematRecipe::LoadRo { slot, offset } => Inst::Load {
                dst,
                addr: Addr::Frame { slot, offset },
            },
        }
    }
}

/// Static counts of inserted spill instructions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Stores inserted after definitions.
    pub stores: usize,
    /// Loads inserted before uses.
    pub loads: usize,
    /// Ranges handled by rematerialization (recomputed, not reloaded).
    pub rematerialized: usize,
}

/// Options for [`insert_spill_code`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillOpts {
    /// Enable **rematerialization** (Briggs, Cooper & Torczon's follow-up
    /// refinement, PLDI 1992): a spilled range whose every definition
    /// recomputes the same cheap value gets no frame slot at all — the
    /// value is recomputed in front of each use, which is never slower than
    /// a memory load and frees the slot and the stores. Covered forms:
    /// identical immediate constants, frame/global address materializations,
    /// and constant-offset loads from read-only frame slots (never stored
    /// to, address never taken).
    pub rematerialize: bool,
}

/// Insert spill code for every register in `spilled`.
///
/// Each spilled register gets an 8-byte frame slot. Uses are rewritten to
/// freshly loaded temporaries (one load per instruction even if the value is
/// used twice in it); definitions are rewritten to temporaries that are
/// immediately stored. A spilled *parameter* additionally gets a store at
/// function entry, since it arrives in a register. Returns the static
/// counts of what was inserted.
pub fn insert_spill_code(func: &mut Function, spilled: &[VReg], opts: &SpillOpts) -> SpillStats {
    let rematerialize = opts.rematerialize;
    let mut stats = SpillStats::default();
    if spilled.is_empty() {
        return stats;
    }

    let nv = func.num_vregs();

    // Rematerialization candidates: non-parameter ranges whose defs all
    // recompute one identical cheap value (see [`RematRecipe`]).
    let mut remat: Vec<Option<RematRecipe>> = vec![None; nv];
    if rematerialize {
        // A frame slot is read-only iff nothing stores to it and its address
        // is never materialized (an escaped address could be written through
        // by an `Addr::Reg` store or inside a call).
        let mut slot_mutable = vec![false; func.num_slots()];
        for (_, _, inst) in func.insts() {
            match *inst {
                Inst::Store {
                    addr: Addr::Frame { slot, .. },
                    ..
                }
                | Inst::FrameAddr { slot, .. } => slot_mutable[slot.index()] = true,
                _ => {}
            }
        }
        // None = unseen, Some(None) = disqualified.
        let mut candidate: Vec<Option<Option<RematRecipe>>> = vec![None; nv];
        for (_, _, inst) in func.insts() {
            if let Some(d) = inst.def() {
                let entry = &mut candidate[d.index()];
                let recipe = RematRecipe::of(inst).filter(|r| match r {
                    RematRecipe::LoadRo { slot, .. } => !slot_mutable[slot.index()],
                    _ => true,
                });
                *entry = match (&entry, recipe) {
                    (None, Some(r)) => Some(Some(r)),
                    (Some(Some(prev)), Some(r)) if prev.same(r) => Some(Some(r)),
                    _ => Some(None),
                };
            }
        }
        for &p in func.params() {
            candidate[p.index()] = Some(None);
        }
        for &v in spilled {
            if let Some(Some(recipe)) = candidate[v.index()] {
                remat[v.index()] = Some(recipe);
                stats.rematerialized += 1;
            }
        }
    }

    let mut slot_of = vec![None; nv];
    let mut is_spilled = vec![false; nv];
    for &v in spilled {
        is_spilled[v.index()] = true;
        if remat[v.index()].is_none() {
            let name = format!("spill.{}", func.vreg(v).name);
            slot_of[v.index()] = Some(func.new_slot(8, name, true));
        }
    }

    // Collect fresh-vreg creation outside the rewrite closure.
    struct Ctx {
        new_vregs: Vec<(RegClass, String)>,
        next: u32,
    }
    let mut ctx = Ctx {
        new_vregs: Vec::new(),
        next: nv as u32,
    };
    let fresh = |ctx: &mut Ctx, class: RegClass, name: &str| -> VReg {
        let v = VReg::new(ctx.next);
        ctx.next += 1;
        ctx.new_vregs.push((class, name.to_string()));
        v
    };

    let classes: Vec<RegClass> = (0..nv)
        .map(|i| func.class_of(VReg::new(i as u32)))
        .collect();

    let param_set: Vec<VReg> = func.params().to_vec();
    let entry = func.entry();

    func.rewrite_blocks(|bid, insts| {
        let mut out = Vec::with_capacity(insts.len());

        // A spilled parameter is stored to its slot on function entry.
        if bid == entry {
            for &p in &param_set {
                if is_spilled[p.index()] {
                    let slot = slot_of[p.index()].expect("spilled has slot");
                    out.push(Inst::Store {
                        src: p,
                        addr: Addr::Frame { slot, offset: 0 },
                    });
                    stats.stores += 1;
                }
            }
        }

        for mut inst in insts {
            // Reload each spilled register this instruction uses.
            let mut reloaded: Vec<(VReg, VReg)> = Vec::new(); // (old, temp)
            let uses = inst.uses();
            for u in uses {
                if u.index() < nv && is_spilled[u.index()] && !reloaded.iter().any(|(o, _)| *o == u)
                {
                    let t = fresh(&mut ctx, classes[u.index()], "rld");
                    match remat[u.index()] {
                        // Recompute the value instead of loading it from a
                        // spill slot.
                        Some(recipe) => out.push(recipe.emit(t)),
                        None => {
                            let slot = slot_of[u.index()].expect("spilled has slot");
                            out.push(Inst::Load {
                                dst: t,
                                addr: Addr::Frame { slot, offset: 0 },
                            });
                            stats.loads += 1;
                        }
                    }
                    reloaded.push((u, t));
                }
            }
            if !reloaded.is_empty() {
                inst.map_uses(|u| {
                    reloaded
                        .iter()
                        .find(|(o, _)| *o == u)
                        .map(|(_, t)| *t)
                        .unwrap_or(u)
                });
            }

            // Rewrite a spilled definition to a stored temporary — or, for
            // a rematerialized value, drop the definition entirely: every
            // use recomputes it in place.
            let def = inst.def();
            match def {
                Some(d) if d.index() < nv && is_spilled[d.index()] => {
                    if remat[d.index()].is_some() {
                        debug_assert!(RematRecipe::of(&inst).is_some());
                        // deleted: every use recomputes the value in place
                    } else {
                        let t = fresh(&mut ctx, classes[d.index()], "spl");
                        inst.map_def(|_| t);
                        let slot = slot_of[d.index()].expect("spilled has slot");
                        out.push(inst);
                        out.push(Inst::Store {
                            src: t,
                            addr: Addr::Frame { slot, offset: 0 },
                        });
                        stats.stores += 1;
                    }
                }
                _ => out.push(inst),
            }
        }
        out
    });

    for (class, name) in ctx.new_vregs {
        let v = func.new_vreg(class, name);
        // Spill temporaries must never themselves be spilled; that is what
        // makes the Build–Simplify–Color cycle converge.
        func.set_spillable(v, false);
    }
    // A spilled parameter's residual range (arrival in a register, one
    // store to its slot) cannot be shortened further either.
    for &p in &param_set {
        if is_spilled[p.index()] {
            func.set_spillable(p, false);
        }
    }

    stats
}

/// Bit-exact immediate equality (floats compared by bits so `-0.0 ≠ 0.0`).
fn same_imm(a: Imm, b: Imm) -> bool {
    match (a, b) {
        (Imm::Int(x), Imm::Int(y)) => x == y,
        (Imm::Float(x), Imm::Float(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_ir::{verify_function, BinOp, FunctionBuilder, Imm};

    #[test]
    fn def_gets_store_use_gets_load() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.new_vreg(RegClass::Int, "x");
        b.load_imm(x, Imm::Int(1));
        let y = b.int(2);
        let t = b.binv(BinOp::AddI, x, y);
        b.ret(Some(t));
        let mut f = b.finish();
        let stats = insert_spill_code(&mut f, &[x], &SpillOpts::default());
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.loads, 1);
        verify_function(&f).unwrap();
        // x itself no longer appears as a def or use of compute code.
        let still_defines_x = f
            .insts()
            .any(|(_, _, i)| i.def() == Some(x) && !i.is_memory());
        assert!(!still_defines_x);
    }

    #[test]
    fn double_use_in_one_inst_loads_once() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.new_vreg(RegClass::Int, "x");
        b.load_imm(x, Imm::Int(1));
        let filler = b.int(0);
        let _ = filler;
        let t = b.binv(BinOp::AddI, x, x);
        b.ret(Some(t));
        let mut f = b.finish();
        let stats = insert_spill_code(&mut f, &[x], &SpillOpts::default());
        assert_eq!(stats.loads, 1);
        verify_function(&f).unwrap();
    }

    #[test]
    fn spilled_param_stored_at_entry() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let p = b.add_param(RegClass::Int, "p");
        let one = b.int(1);
        let t = b.binv(BinOp::AddI, p, one);
        b.ret(Some(t));
        let mut f = b.finish();
        let stats = insert_spill_code(&mut f, &[p], &SpillOpts::default());
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.loads, 1);
        // First instruction of entry is the parameter store.
        let first = &f.block(f.entry()).insts[0];
        assert!(matches!(first, Inst::Store { src, .. } if *src == p));
        verify_function(&f).unwrap();
    }

    #[test]
    fn def_and_use_in_same_inst() {
        // i = i + 1 with i spilled: load before, store after.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let i = b.new_vreg(RegClass::Int, "i");
        b.load_imm(i, Imm::Int(0));
        let one = b.int(1);
        b.bin(BinOp::AddI, i, i, one);
        b.ret(Some(i));
        let mut f = b.finish();
        let stats = insert_spill_code(&mut f, &[i], &SpillOpts::default());
        // stores: initial def + increment def; loads: increment use + ret use.
        assert_eq!(stats.stores, 2);
        assert_eq!(stats.loads, 2);
        verify_function(&f).unwrap();
    }

    #[test]
    fn use_in_terminator_loads_before_it() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.new_vreg(RegClass::Int, "x");
        b.load_imm(x, Imm::Int(1));
        let y = b.int(0);
        let _ = y;
        b.ret(Some(x));
        let mut f = b.finish();
        insert_spill_code(&mut f, &[x], &SpillOpts::default());
        verify_function(&f).unwrap();
        let insts = &f.block(f.entry()).insts;
        let last = insts.len() - 1;
        assert!(matches!(insts[last], Inst::Ret { .. }));
        assert!(matches!(insts[last - 1], Inst::Load { .. }));
    }

    #[test]
    fn rematerialized_constant_needs_no_slot_or_stores() {
        // x = 42 used twice, far from its def.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.new_vreg(RegClass::Int, "x");
        b.load_imm(x, Imm::Int(42));
        let y = b.int(7);
        let t = b.binv(BinOp::AddI, x, y);
        let u = b.binv(BinOp::AddI, t, x);
        b.ret(Some(u));
        let mut f = b.finish();
        let stats = insert_spill_code(
            &mut f,
            &[x],
            &SpillOpts {
                rematerialize: true,
            },
        );
        assert_eq!(stats.rematerialized, 1);
        assert_eq!(stats.loads, 0);
        assert_eq!(stats.stores, 0);
        assert_eq!(f.num_slots(), 0, "no frame slot for a remat range");
        // The original def is gone; each use has a fresh LoadImm.
        let imm42 = f
            .insts()
            .filter(|(_, _, i)| {
                matches!(
                    i,
                    Inst::LoadImm {
                        imm: Imm::Int(42),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(imm42, 2);
        verify_function(&f).unwrap();
    }

    #[test]
    fn multi_def_different_constants_not_rematerialized() {
        // x = 1 … x = 2: values differ, must spill through memory.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let p = b.add_param(RegClass::Int, "p");
        let x = b.new_vreg(RegClass::Int, "x");
        let arm = b.new_block();
        let join = b.new_block();
        b.load_imm(x, Imm::Int(1));
        let z = b.int(0);
        let c = b.cmp_i(optimist_ir::Cmp::Gt, p, z);
        b.branch(c, arm, join);
        b.switch_to(arm);
        b.load_imm(x, Imm::Int(2));
        b.jump(join);
        b.switch_to(join);
        b.ret(Some(x));
        let mut f = b.finish();
        let stats = insert_spill_code(
            &mut f,
            &[x],
            &SpillOpts {
                rematerialize: true,
            },
        );
        assert_eq!(stats.rematerialized, 0);
        assert!(stats.stores >= 2);
        assert_eq!(f.num_slots(), 1);
        verify_function(&f).unwrap();
    }

    #[test]
    fn computed_value_not_rematerialized() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let p = b.add_param(RegClass::Int, "p");
        let x = b.binv(BinOp::AddI, p, p);
        let y = b.int(1);
        let t = b.binv(BinOp::AddI, x, y);
        let u = b.binv(BinOp::AddI, t, x);
        b.ret(Some(u));
        let mut f = b.finish();
        let stats = insert_spill_code(
            &mut f,
            &[x],
            &SpillOpts {
                rematerialize: true,
            },
        );
        assert_eq!(stats.rematerialized, 0);
        assert!(stats.loads > 0);
        verify_function(&f).unwrap();
    }

    #[test]
    fn remat_disabled_by_default() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.new_vreg(RegClass::Int, "x");
        b.load_imm(x, Imm::Int(42));
        let y = b.int(7);
        let t = b.binv(BinOp::AddI, x, y);
        b.ret(Some(t));
        let mut f = b.finish();
        let stats = insert_spill_code(&mut f, &[x], &SpillOpts::default());
        assert_eq!(stats.rematerialized, 0);
        assert_eq!(f.num_slots(), 1);
    }

    #[test]
    fn spill_slot_marked() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.new_vreg(RegClass::Int, "x");
        b.load_imm(x, Imm::Int(1));
        let y = b.int(0);
        let _ = y;
        b.ret(Some(x));
        let mut f = b.finish();
        assert_eq!(f.num_slots(), 0);
        insert_spill_code(&mut f, &[x], &SpillOpts::default());
        assert_eq!(f.num_slots(), 1);
        assert!(f.slot(optimist_ir::FrameSlot::new(0)).is_spill);
    }

    #[test]
    fn spilling_across_blocks_adds_one_temporary_per_def_and_use() {
        // Spill x, defined in entry and used in a second block; a third
        // block never mentions it.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let p = b.add_param(RegClass::Int, "p");
        let x = b.new_vreg(RegClass::Int, "x");
        let cold = b.new_block();
        let hot = b.new_block();
        b.load_imm(x, Imm::Int(1));
        let z = b.int(0);
        let c = b.cmp_i(optimist_ir::Cmp::Gt, p, z);
        b.branch(c, cold, hot);
        b.switch_to(cold);
        b.ret(Some(p));
        b.switch_to(hot);
        b.ret(Some(x));
        let mut f = b.finish();
        let nv_before = f.num_vregs();
        insert_spill_code(&mut f, &[x], &SpillOpts::default());
        // One store temp, one reload temp.
        assert_eq!(f.num_vregs(), nv_before + 2);
        verify_function(&f).unwrap();
    }

    #[test]
    fn frame_address_is_rematerialized() {
        // a = frame_addr s0, used far from its def: pure frame-pointer
        // arithmetic, recomputed at each use with no slot/stores/loads.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let arr = b.new_slot(32, "arr");
        let a = b.new_vreg(RegClass::Int, "a");
        b.frame_addr(a, arr);
        let x = b.int(1);
        let t = b.binv(BinOp::AddI, x, x);
        let u = b.binv(BinOp::AddI, a, t);
        let w = b.binv(BinOp::AddI, u, a);
        b.ret(Some(w));
        let mut f = b.finish();
        let slots_before = f.num_slots();
        let stats = insert_spill_code(
            &mut f,
            &[a],
            &SpillOpts {
                rematerialize: true,
            },
        );
        assert_eq!(stats.rematerialized, 1);
        assert_eq!(stats.loads, 0);
        assert_eq!(stats.stores, 0);
        assert_eq!(f.num_slots(), slots_before, "no spill slot allocated");
        let addr_insts = f
            .insts()
            .filter(|(_, _, i)| matches!(i, Inst::FrameAddr { .. }))
            .count();
        assert_eq!(addr_insts, 2, "one recomputation per use");
        verify_function(&f).unwrap();
    }

    #[test]
    fn read_only_slot_load_is_rematerialized() {
        // x = load [s0+8] from a slot that is never stored to and whose
        // address never escapes: the load is repeated at each use instead
        // of spilling x through a second slot.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let ro = b.new_slot(16, "ro");
        let x = b.new_vreg(RegClass::Int, "x");
        b.load(
            x,
            Addr::Frame {
                slot: ro,
                offset: 8,
            },
        );
        let y = b.int(7);
        let t = b.binv(BinOp::AddI, x, y);
        let u = b.binv(BinOp::AddI, t, x);
        b.ret(Some(u));
        let mut f = b.finish();
        let stats = insert_spill_code(
            &mut f,
            &[x],
            &SpillOpts {
                rematerialize: true,
            },
        );
        assert_eq!(stats.rematerialized, 1);
        assert_eq!(stats.stores, 0);
        assert_eq!(f.num_slots(), 1, "no new spill slot");
        // One re-load per use, both from the read-only slot at offset 8.
        let ro_loads = f
            .insts()
            .filter(|(_, _, i)| {
                matches!(
                    i,
                    Inst::Load {
                        addr: Addr::Frame { offset: 8, .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(ro_loads, 2);
        verify_function(&f).unwrap();
    }

    #[test]
    fn stored_to_slot_load_not_rematerialized() {
        // Same shape, but the slot is written between the load and the
        // second use — repeating the load would read the new value, so the
        // range must spill through memory.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let s = b.new_slot(16, "s");
        let x = b.new_vreg(RegClass::Int, "x");
        b.load(x, Addr::Frame { slot: s, offset: 0 });
        let y = b.int(7);
        b.store(y, Addr::Frame { slot: s, offset: 0 });
        let t = b.binv(BinOp::AddI, x, y);
        let u = b.binv(BinOp::AddI, t, x);
        b.ret(Some(u));
        let mut f = b.finish();
        let stats = insert_spill_code(
            &mut f,
            &[x],
            &SpillOpts {
                rematerialize: true,
            },
        );
        assert_eq!(stats.rematerialized, 0);
        assert_eq!(f.num_slots(), 2, "a real spill slot was needed");
        verify_function(&f).unwrap();
    }

    #[test]
    fn escaped_slot_load_not_rematerialized() {
        // The slot is never stored to directly, but its address escapes via
        // frame_addr — an indirect store or callee could mutate it, so the
        // load is not provably repeatable.
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let s = b.new_slot(16, "s");
        let x = b.new_vreg(RegClass::Int, "x");
        b.load(x, Addr::Frame { slot: s, offset: 0 });
        let p = b.new_vreg(RegClass::Int, "p");
        b.frame_addr(p, s);
        let t = b.binv(BinOp::AddI, x, p);
        let u = b.binv(BinOp::AddI, t, x);
        b.ret(Some(u));
        let mut f = b.finish();
        let stats = insert_spill_code(
            &mut f,
            &[x],
            &SpillOpts {
                rematerialize: true,
            },
        );
        assert_eq!(stats.rematerialized, 0);
        verify_function(&f).unwrap();
    }

    #[test]
    fn empty_spill_list_is_a_no_op() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.int(1);
        b.ret(Some(x));
        let mut f = b.finish();
        let nv_before = f.num_vregs();
        let stats = insert_spill_code(
            &mut f,
            &[],
            &SpillOpts {
                rematerialize: true,
            },
        );
        assert_eq!(stats, SpillStats::default());
        assert_eq!(f.num_vregs(), nv_before);
        assert_eq!(f.num_slots(), 0);
    }
}
