//! Phi-aware liveness and the pressure/interference walk for SSA form.
//!
//! Liveness under SSA needs two conventions beyond the plain dataflow in
//! `optimist-analysis`:
//!
//! * a phi **argument** is a use *on the incoming edge* — live out of the
//!   predecessor, but not live into the phi's block;
//! * a phi **destination** is defined *at the top of its block* — live in
//!   (so it interferes with everything else live there) but defined by no
//!   instruction.
//!
//! One backward walk per block tracks per-class register pressure;
//! [`pressure`] stops there and [`analyze`] also builds the interference
//! graph. The maximum pressure (*maxlive*) is exact for SSA form: every
//! live value occupies a register between its def and its uses, and
//! because SSA interference graphs are chordal, maxlive equals the size of
//! the largest clique — chordal coloring needs exactly that many
//! registers, so the spill phase lowers maxlive to ≤ k without a graph
//! and *knows* coloring will succeed.
//!
//! The spill phase keeps one [`SsaLiveness`] across its rounds, patched by
//! `SsaLiveness::demote`, and keeps each block's share of the walk as a
//! `BlockPeak`, re-walking only the blocks a round changed. DESIGN §13.2
//! lists what those updates rely on.

use super::construct::{PhiSrc, SsaForm};
use crate::graph::InterferenceGraph;
use optimist_analysis::DenseBitSet;
use optimist_ir::{BlockId, RegClass, VReg};

/// Per-block live-in/live-out sets of an [`SsaForm`], phi-aware.
pub struct SsaLiveness {
    live_in: Vec<DenseBitSet>,
    live_out: Vec<DenseBitSet>,
}

impl SsaLiveness {
    /// Compute liveness by backward fixpoint over the reversed RPO.
    pub fn new(ssa: &SsaForm) -> Self {
        let f = &ssa.func;
        let cfg = ssa.cfg();
        let nb = f.num_blocks();
        let nv = f.num_vregs();

        // Per-block summaries: upward-exposed uses, kills (instruction
        // defs), phi defs, and the phi arguments each block feeds into
        // successors' phis (live at this block's tail).
        let mut uevar = vec![DenseBitSet::new(nv); nb];
        let mut kill = vec![DenseBitSet::new(nv); nb];
        let mut phidefs = vec![DenseBitSet::new(nv); nb];
        let mut phiout = vec![DenseBitSet::new(nv); nb];
        let mut uses = Vec::new();
        for &b in cfg.rpo() {
            let bi = b.index();
            for inst in &f.block(b).insts {
                uses.clear();
                inst.uses_into(&mut uses);
                for &u in &uses {
                    if !kill[bi].contains(u.index()) {
                        uevar[bi].insert(u.index());
                    }
                }
                if let Some(d) = inst.def() {
                    kill[bi].insert(d.index());
                }
            }
            for phi in &ssa.phis[bi] {
                phidefs[bi].insert(phi.dst.index());
                for &(p, a) in &phi.args {
                    // Slot arguments live in memory; they put no pressure
                    // on the predecessor.
                    if let PhiSrc::Reg(v) = a {
                        phiout[p.index()].insert(v.index());
                    }
                }
            }
        }

        let mut live_in = vec![DenseBitSet::new(nv); nb];
        let mut live_out = vec![DenseBitSet::new(nv); nb];
        let mut tmp = DenseBitSet::new(nv);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().rev() {
                let bi = b.index();
                // live_out(b) = ∪_s (live_in(s) \ phidefs(s)) ∪ phiout(b)
                let mut grew = live_out[bi].union_with(&phiout[bi]);
                for &s in cfg.succs(b) {
                    tmp.copy_from(&live_in[s.index()]);
                    tmp.subtract(&phidefs[s.index()]);
                    grew |= live_out[bi].union_with(&tmp);
                }
                // live_in(b) = phidefs(b) ∪ uevar(b) ∪ (live_out(b) \ kill(b))
                tmp.copy_from(&live_out[bi]);
                tmp.subtract(&kill[bi]);
                tmp.union_with(&uevar[bi]);
                tmp.union_with(&phidefs[bi]);
                grew |= live_in[bi].union_with(&tmp);
                changed |= grew;
            }
        }
        SsaLiveness { live_in, live_out }
    }

    /// Values live into `b` (including `b`'s phi destinations).
    pub fn live_in(&self, b: BlockId) -> &DenseBitSet {
        &self.live_in[b.index()]
    }

    /// Values live out of `b` (including arguments `b` feeds into
    /// successors' phis).
    pub fn live_out(&self, b: BlockId) -> &DenseBitSet {
        &self.live_out[b.index()]
    }

    /// Patch the sets after the spill phase demoted `spilled` to memory,
    /// marking in `dirty` every block whose live-out set shrank.
    ///
    /// A demoted value is read only by reloads right before its uses and
    /// stored right after its def, so it leaves every set — except that a
    /// spilled parameter stays live into the entry, where its store reads
    /// it. `stored` lists `(phi block, predecessor, value)` for each
    /// register argument of a dissolved phi that was not itself spilled:
    /// the predecessor now stores it at its tail, so it stays live out of
    /// the predecessor only if the phi block still needs it, live in past
    /// its phis or as an argument of a surviving phi on the same edge.
    /// Everything else is unchanged: the rewrite's temporaries live within
    /// one block, and critical edges are split, so a phi block is its
    /// predecessors' only successor.
    pub(super) fn demote(
        &mut self,
        ssa: &SsaForm,
        spilled: &[VReg],
        stored: &[(BlockId, BlockId, VReg)],
        dirty: &mut [bool],
    ) {
        for (b, (live_in, live_out)) in self.live_in.iter_mut().zip(&mut self.live_out).enumerate()
        {
            for v in spilled {
                live_in.remove(v.index());
                dirty[b] |= live_out.remove(v.index());
            }
        }
        let entry = ssa.func.entry().index();
        for p in spilled.iter().filter(|p| ssa.func.params().contains(p)) {
            self.live_in[entry].insert(p.index());
        }
        for &(s, p, v) in stored {
            let phis = &ssa.phis[s.index()];
            let live_past_phis =
                self.live_in[s.index()].contains(v.index()) && phis.iter().all(|phi| phi.dst != v);
            let still_an_arg = phis
                .iter()
                .any(|phi| phi.args.contains(&(p, PhiSrc::Reg(v))));
            if !live_past_phis && !still_an_arg {
                dirty[p.index()] |= self.live_out[p.index()].remove(v.index());
            }
        }
    }

    /// True if both hold the same sets (capacities may differ).
    pub(super) fn same_sets(&self, other: &SsaLiveness) -> bool {
        let same = |a: &[DenseBitSet], b: &[DenseBitSet]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.iter().eq(y.iter()))
        };
        same(&self.live_in, &other.live_in) && same(&self.live_out, &other.live_out)
    }
}

/// Pressure facts from one backward scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SsaPressure {
    /// Maximum register pressure per class (`[int, float]`).
    pub maxlive: [usize; 2],
    /// The live set at the worst-pressure program point of each class —
    /// the spill phase picks its victims from these.
    pub worst: [Vec<VReg>; 2],
}

/// Interference graph plus pressure facts from one backward scan.
pub struct SsaAnalysis {
    /// The SSA interference graph (one node per SSA name). Chordal by
    /// construction — see the proptest in `tests/ssa_invariants.rs`.
    pub graph: InterferenceGraph,
    /// Maxlive and the worst live sets, as [`pressure`] reports them.
    pub pressure: SsaPressure,
}

/// Record the current pressure point, snapshotting the live set whenever a
/// class reaches a new maximum.
fn note(p: &mut SsaPressure, counts: &[usize; 2], cur: &DenseBitSet, classes: &[RegClass]) {
    for (ci, &count) in counts.iter().enumerate() {
        if count > p.maxlive[ci] {
            p.maxlive[ci] = count;
            p.worst[ci] = members(cur, classes, ci);
        }
    }
}

/// The values of class `ci` in `cur`, in index order.
fn members(cur: &DenseBitSet, classes: &[RegClass], ci: usize) -> Vec<VReg> {
    cur.iter()
        .filter(|&x| classes[x].index() == ci)
        .map(|x| VReg::new(x as u32))
        .collect()
}

/// The register class of every value of `ssa`, by index.
pub(super) fn classes(ssa: &SsaForm) -> Vec<RegClass> {
    let f = &ssa.func;
    (0..f.num_vregs())
        .map(|v| f.vreg(VReg::new(v as u32)).class)
        .collect()
}

/// Measure maxlive and the worst live sets of an [`SsaForm`], building no
/// graph: the same walk as [`analyze`], so the same facts.
pub fn pressure(ssa: &SsaForm, live: &SsaLiveness) -> SsaPressure {
    walk(ssa, live, &classes(ssa), None)
}

/// Build the interference graph of an [`SsaForm`] and measure maxlive.
///
/// Each reachable block is scanned backward from its live-out set; a def
/// interferes with everything live after it, and each phi destination
/// interferes with everything live at the block top (minus itself). No
/// copy special-case: skipping `dst`–`src` edges of copies could break
/// chordality, and the SSA track coalesces by other means (no-op parallel
/// copies are elided during destruction). Values live at function entry —
/// parameters and may-be-uninitialized names — pairwise interfere, exactly
/// as in the classic build phase.
pub fn analyze(ssa: &SsaForm, live: &SsaLiveness) -> SsaAnalysis {
    let f = &ssa.func;
    let classes = classes(ssa);
    let mut graph = InterferenceGraph::new(classes.clone());
    let pressure = walk(ssa, live, &classes, Some(&mut graph));

    // Entry clique: everything live at the top of the function is
    // simultaneously defined on entry. Parameters join the clique even
    // when renaming left the original name dead (unused before its first
    // redefinition): the calling convention writes *every* parameter's
    // register on entry, so a dead parameter still clobbers whatever
    // shares it.
    let mut entry_live: Vec<u32> = live.live_in(f.entry()).iter().map(|v| v as u32).collect();
    for &p in f.params() {
        if !live.live_in(f.entry()).contains(p.index()) {
            entry_live.push(p.index() as u32);
        }
    }
    for (i, &x) in entry_live.iter().enumerate() {
        for &y in &entry_live[i + 1..] {
            graph.add_edge(x, y);
        }
    }

    SsaAnalysis { graph, pressure }
}

/// The backward walk behind [`pressure`] and [`analyze`]; edges are added
/// only when a `graph` is given.
fn walk(
    ssa: &SsaForm,
    live: &SsaLiveness,
    classes: &[RegClass],
    mut graph: Option<&mut InterferenceGraph>,
) -> SsaPressure {
    let mut p = SsaPressure::default();
    let mut scratch = Scratch::new(classes.len());
    for &b in ssa.cfg().rpo() {
        walk_block(
            ssa,
            live,
            b,
            classes,
            &mut scratch,
            graph.as_deref_mut(),
            |counts, cur| note(&mut p, counts, cur, classes),
        );
    }
    p
}

/// The live set and use buffer [`walk_block`] works in, reused across
/// blocks.
struct Scratch {
    cur: DenseBitSet,
    uses: Vec<VReg>,
}

impl Scratch {
    fn new(num_values: usize) -> Self {
        Scratch {
            cur: DenseBitSet::new(num_values),
            uses: Vec::new(),
        }
    }
}

/// Walk `b` backward from its live-out set, calling `at` with the
/// per-class counts and the live set at each program point in turn: the
/// block bottom, each def, each instruction's uses, and the phi
/// destinations at the block top. Edges are added only when a `graph` is
/// given.
fn walk_block(
    ssa: &SsaForm,
    live: &SsaLiveness,
    b: BlockId,
    classes: &[RegClass],
    scratch: &mut Scratch,
    mut graph: Option<&mut InterferenceGraph>,
    mut at: impl FnMut(&[usize; 2], &DenseBitSet),
) {
    let Scratch { cur, uses } = scratch;
    cur.clear();
    let mut counts = [0usize; 2];
    for x in live.live_out(b).iter() {
        cur.insert(x);
        counts[classes[x].index()] += 1;
    }
    at(&counts, cur);

    for inst in ssa.func.block(b).insts.iter().rev() {
        if let Some(d) = inst.def() {
            let di = d.index();
            if cur.insert(di) {
                counts[classes[di].index()] += 1;
            }
            at(&counts, cur);
            cur.remove(di);
            counts[classes[di].index()] -= 1;
            if let Some(g) = graph.as_deref_mut() {
                for x in cur.iter() {
                    g.add_edge(di as u32, x as u32);
                }
            }
        }
        uses.clear();
        inst.uses_into(uses);
        for &u in uses.iter() {
            if cur.insert(u.index()) {
                counts[classes[u.index()].index()] += 1;
            }
        }
        at(&counts, cur);
    }

    // Block top: phi destinations are defined here, in parallel, on
    // top of everything else live in.
    let phis = &ssa.phis[b.index()];
    if !phis.is_empty() {
        for phi in phis {
            let di = phi.dst.index();
            if cur.insert(di) {
                counts[classes[di].index()] += 1;
            }
        }
        at(&counts, cur);
        if let Some(g) = graph {
            for phi in phis {
                let di = phi.dst.index() as u32;
                for x in cur.iter() {
                    g.add_edge(di, x as u32);
                }
            }
        }
    }
}

/// One block's share of the pressure walk: its maximum pressure per
/// class, and the index of the first program point (in [`walk_block`]'s
/// order) that reaches it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct BlockPeak {
    max: [usize; 2],
    at: [usize; 2],
}

/// Walk each block of `blocks` and store its peak in `peaks`.
pub(super) fn peaks(
    ssa: &SsaForm,
    live: &SsaLiveness,
    classes: &[RegClass],
    blocks: impl IntoIterator<Item = BlockId>,
    peaks: &mut [BlockPeak],
) {
    let mut scratch = Scratch::new(classes.len());
    for b in blocks {
        let mut peak = BlockPeak::default();
        let mut point = 0;
        walk_block(ssa, live, b, classes, &mut scratch, None, |counts, _| {
            for (ci, &count) in counts.iter().enumerate() {
                if count > peak.max[ci] {
                    peak.max[ci] = count;
                    peak.at[ci] = point;
                }
            }
            point += 1;
        });
        peaks[b.index()] = peak;
    }
}

/// The facts [`pressure`] reports, from per-block peaks: the worst point
/// of a class is the first point of the first block in RPO that reaches
/// the class's maximum — exactly where [`note`]'s strict `>` leaves it.
/// Only those blocks are walked again, to read their live sets.
pub(super) fn worst_sets(
    ssa: &SsaForm,
    live: &SsaLiveness,
    classes: &[RegClass],
    peaks: &[BlockPeak],
) -> SsaPressure {
    let mut p = SsaPressure::default();
    let mut scratch = Scratch::new(classes.len());
    for ci in 0..2 {
        let mut first = None;
        for &b in ssa.cfg().rpo() {
            if peaks[b.index()].max[ci] > p.maxlive[ci] {
                p.maxlive[ci] = peaks[b.index()].max[ci];
                first = Some(b);
            }
        }
        let Some(b) = first else { continue };
        let peak = peaks[b.index()];
        let mut point = 0;
        walk_block(ssa, live, b, classes, &mut scratch, None, |_, cur| {
            if point == peak.at[ci] {
                p.worst[ci] = members(cur, classes, ci);
            }
            point += 1;
        });
    }
    p
}
