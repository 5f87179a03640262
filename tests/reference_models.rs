//! Reference-model tests: the production analyses checked against small,
//! obviously-correct reimplementations on randomly generated programs.
//!
//! * liveness   vs. a naive per-program-point backward walk to fixpoint;
//! * dominators vs. the set definition (v dominates b iff removing v
//!   disconnects b from the entry);
//! * interference graph vs. a naive "simultaneously live or defined at the
//!   same point" pairwise check;
//! * `renumber` vs. [`reference::renumber`], the reaching-definitions
//!   formulation it was rewritten from: the same webs, numbered the same
//!   way, on the corpus, generated routines, post-spill code and hand-made
//!   edge cases.

use optimist::analysis::{renumber, Cfg, Dominators, Liveness};
use optimist::ir::{parse_function, BlockId, Function, Inst, VReg};
use optimist::regalloc::{build_graph, insert_spill_code, SpillOpts};
use optimist::workloads::{generate_routine, GenConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// Debug test runs keep the budget small; release runs (the CI gate) use
/// the full count.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 320 };

fn test_functions() -> Vec<Function> {
    let cfg = GenConfig::default();
    let mut out = Vec::new();
    for seed in 500..520u64 {
        let src = generate_routine("REF", seed, &cfg);
        let m = optimist::frontend::compile(&src).expect("generated code compiles");
        let mut f = m.function("REF").expect("exists").clone();
        renumber(&mut f);
        out.push(f);
    }
    // Plus a few real routines for structural variety.
    for (prog, name) in [("LINPACK", "DGEFA"), ("SVD", "SVD"), ("EULER", "DIFFR")] {
        let p = optimist::workloads::program(prog).unwrap();
        let m = optimist::frontend::compile(&p.source).unwrap();
        let mut f = m.function(name).unwrap().clone();
        renumber(&mut f);
        out.push(f);
    }
    out
}

/// Naive liveness: iterate per-instruction live sets to fixpoint.
struct NaiveLiveness {
    /// live_before[block][inst_index]
    live_before: Vec<Vec<HashSet<u32>>>,
    live_out: Vec<HashSet<u32>>,
}

fn naive_liveness(f: &Function, cfg: &Cfg) -> NaiveLiveness {
    let nb = f.num_blocks();
    let mut live_before: Vec<Vec<HashSet<u32>>> = (0..nb)
        .map(|b| vec![HashSet::new(); f.block(BlockId::new(b as u32)).insts.len()])
        .collect();
    let mut live_out: Vec<HashSet<u32>> = vec![HashSet::new(); nb];

    let mut changed = true;
    while changed {
        changed = false;
        for b in f.block_ids() {
            let bi = b.index();
            // live_out = union of successors' live_before[0]
            let mut out: HashSet<u32> = HashSet::new();
            for &s in cfg.succs(b) {
                if let Some(first) = live_before[s.index()].first() {
                    out.extend(first.iter().copied());
                }
            }
            if out != live_out[bi] {
                live_out[bi] = out.clone();
                changed = true;
            }
            let insts = &f.block(b).insts;
            let mut live = out;
            for (i, inst) in insts.iter().enumerate().rev() {
                if let Some(d) = inst.def() {
                    live.remove(&(d.index() as u32));
                }
                for u in inst.uses() {
                    live.insert(u.index() as u32);
                }
                if live != live_before[bi][i] {
                    live_before[bi][i] = live.clone();
                    changed = true;
                }
            }
        }
    }
    NaiveLiveness {
        live_before,
        live_out,
    }
}

#[test]
fn liveness_matches_naive_model() {
    for f in test_functions() {
        let cfg = Cfg::new(&f);
        let fast = Liveness::new(&f, &cfg);
        let naive = naive_liveness(&f, &cfg);
        for b in f.block_ids() {
            if !cfg.is_reachable(b) {
                continue;
            }
            let bi = b.index();
            let fast_out: HashSet<u32> = fast.live_out(b).iter().map(|v| v as u32).collect();
            assert_eq!(
                fast_out,
                naive.live_out[bi],
                "{}: live_out of {b}",
                f.name()
            );
            let fast_in: HashSet<u32> = fast.live_in(b).iter().map(|v| v as u32).collect();
            let naive_in = naive.live_before[bi].first().cloned().unwrap_or_default();
            assert_eq!(fast_in, naive_in, "{}: live_in of {b}", f.name());
        }
    }
}

/// Naive dominance: a dominates b iff every path entry→b passes through a,
/// i.e. b is unreachable when a is removed (a ≠ entry, a ≠ b).
fn naive_dominates(f: &Function, cfg: &Cfg, a: BlockId, b: BlockId) -> bool {
    if a == b {
        return true;
    }
    if !cfg.is_reachable(a) || !cfg.is_reachable(b) {
        return false;
    }
    if a == f.entry() {
        return true;
    }
    // BFS from entry avoiding a.
    let mut seen = vec![false; f.num_blocks()];
    let mut work = vec![f.entry()];
    seen[f.entry().index()] = true;
    while let Some(x) = work.pop() {
        if x == a {
            continue;
        }
        for &s in cfg.succs(x) {
            if s != a && !seen[s.index()] {
                seen[s.index()] = true;
                work.push(s);
            }
        }
    }
    !seen[b.index()]
}

#[test]
fn dominators_match_set_definition() {
    for f in test_functions() {
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        let blocks: Vec<BlockId> = f.block_ids().collect();
        // Quadratic check is fine at these sizes, but cap huge functions.
        if blocks.len() > 120 {
            continue;
        }
        for &a in &blocks {
            for &b in &blocks {
                let fast = dom.dominates(a, b);
                let slow =
                    cfg.is_reachable(a) && cfg.is_reachable(b) && naive_dominates(&f, &cfg, a, b);
                assert_eq!(fast, slow, "{}: dominates({a}, {b})", f.name());
            }
        }
    }
}

/// Naive interference: walk every block with explicit live sets and record
/// def-vs-live conflicts, with the copy exception.
fn naive_interference(f: &Function, cfg: &Cfg, live: &NaiveLiveness) -> HashSet<(u32, u32)> {
    let mut edges = HashSet::new();
    let mut add = |a: u32, b: u32| {
        if a != b && f.class_of(VReg::new(a)) == f.class_of(VReg::new(b)) {
            edges.insert((a.min(b), a.max(b)));
        }
    };
    for b in f.block_ids() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let bi = b.index();
        let insts = &f.block(b).insts;
        for (i, inst) in insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                // live after = live_before of next inst, or block live_out.
                let after: &HashSet<u32> = if i + 1 < insts.len() {
                    &live.live_before[bi][i + 1]
                } else {
                    &live.live_out[bi]
                };
                let skip = match inst {
                    Inst::Copy { src, .. } => Some(src.index() as u32),
                    _ => None,
                };
                for &l in after {
                    if Some(l) != skip && l != d.index() as u32 {
                        add(d.index() as u32, l);
                    }
                }
            }
        }
    }
    // Entry: everything live-in is simultaneously defined.
    let entry_in = live.live_before[f.entry().index()]
        .first()
        .cloned()
        .unwrap_or_default();
    let entry_vec: Vec<u32> = entry_in.into_iter().collect();
    for (i, &x) in entry_vec.iter().enumerate() {
        for &y in &entry_vec[i + 1..] {
            add(x, y);
        }
    }
    edges
}

#[test]
fn interference_graph_matches_naive_model() {
    for f in test_functions() {
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let graph = build_graph(&f, &cfg, &live);
        let naive = naive_interference(&f, &cfg, &naive_liveness(&f, &cfg));

        let mut fast = HashSet::new();
        for v in 0..graph.num_nodes() as u32 {
            for &m in graph.neighbors(v) {
                fast.insert((v.min(m), v.max(m)));
            }
        }
        assert_eq!(fast, naive, "{}: interference edge sets differ", f.name());
    }
}

// ---- renumber vs. its reference model -----------------------------------

/// Renumber copies of `f` with the library and with the reference model,
/// and require the same function and the same statistics.
fn renumber_both(f: &Function, what: &str) -> Function {
    let mut fast = f.clone();
    let mut slow = f.clone();
    let fast_stats = renumber(&mut fast);
    let slow_stats = reference::renumber(&mut slow);
    assert_eq!(fast.to_string(), slow.to_string(), "{what}: text differs");
    assert!(fast == slow, "{what}: functions differ");
    assert_eq!(fast_stats, slow_stats, "{what}: statistics differ");
    fast
}

/// Both renumbers agree on `f`, and again on their own output, which a
/// second renumber leaves unchanged.
fn check_renumber(f: &Function, what: &str) -> Function {
    let once = renumber_both(f, what);
    let twice = renumber_both(&once, &format!("{what}, renumbered again"));
    assert!(
        twice == once,
        "{what}: a second renumber changed the function"
    );
    once
}

/// What the allocator's next pass sees: spill a seeded quarter of the
/// spillable ranges of a renumbered function, then renumber again. Odd
/// seeds rematerialize.
fn check_after_spill(renumbered: &Function, seed: u64, what: &str) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let spilled: Vec<VReg> = (0..renumbered.num_vregs() as u32)
        .map(VReg::new)
        .filter(|&v| renumbered.vreg(v).spillable)
        .filter(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.is_multiple_of(4)
        })
        .collect();
    let mut f = renumbered.clone();
    let opts = SpillOpts {
        rematerialize: seed % 2 == 1,
    };
    insert_spill_code(&mut f, &spilled, &opts);
    check_renumber(&f, &format!("{what}, spill seed {seed}"));
}

#[test]
fn renumber_matches_reference_on_the_corpus() {
    for p in optimist::workloads::programs() {
        let modules = [
            (
                "compile",
                optimist::frontend::compile(&p.source).expect("compiles"),
            ),
            (
                "compile_optimized",
                optimist::compile_optimized(&p.source).expect("compiles"),
            ),
        ];
        for (mode, module) in modules {
            for (i, f) in module.functions().iter().enumerate() {
                let what = format!("{} {} ({mode})", p.name, f.name());
                let renumbered = check_renumber(f, &what);
                check_after_spill(&renumbered, i as u64, &what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Generated routines, optimized as `paper_invariants` compiles them.
    #[test]
    fn renumber_matches_reference_on_generated_routines(seed in 0u64..1_000_000) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for f in module.functions() {
            let what = format!("seed {seed} {}", f.name());
            let renumbered = check_renumber(f, &what);
            check_after_spill(&renumbered, seed, &what);
        }
    }
}

/// Renumber hand-written IR both ways and pin the result's text.
fn pin_renumber(input: &str, expected: &str) {
    let f = parse_function(input).expect("test IR parses");
    let out = check_renumber(&f, f.name());
    assert_eq!(out.to_string(), expected.trim_end());
}

#[test]
fn renumber_joins_a_use_reached_on_one_path_only_to_the_uninit_web() {
    // v1 is defined in b1 only; b2's use is reached by that def and, via
    // b0→b2, by no def at all. It joins the uninit web, which b0's
    // use-before-def also reads: all three share one register.
    pin_renumber(
        "func f(v0:int) -> int {
b0:
    v4 = copy v1
    v2 = imm 0
    v3 = cmp.i.gt v0, v2
    branch v3, b1, b2
b1:
    v1 = imm 1
    jump b2
b2:
    ret v1
}
",
        "func f(v0:int) -> int {
    reg v2:int \"v4\"
    reg v3:int \"v2\"
    reg v4:int \"v3\"
b0:
    v2 = copy v1
    v3 = imm 0
    v4 = cmp.i.gt v0, v3
    branch v4, b1, b2
b1:
    v1 = imm 1
    jump b2
b2:
    ret v1
}
",
    );
}

#[test]
fn renumber_sends_unreachable_uses_to_the_entry_web_and_unreachable_defs_nowhere() {
    // b1 is unreachable. Its uses before a local def read the register's
    // parameter or uninit web (v0 → param, v3 → uninit); its def of v0
    // is a web of its own that reaches neither b2's use nor anything else,
    // but the later use in b1 reads it.
    pin_renumber(
        "func f(v0:int) -> int {
b0:
    jump b2
b1:
    v1 = copy v0
    v2 = add.i v3, v1
    v0 = copy v2
    v5 = add.i v0, v0
    jump b2
b2:
    ret v0
}
",
        "func f(v0:int) -> int {
    reg v2:int \"v3\"
    reg v3:int \"v2\"
    reg v4:int \"v0\"
b0:
    jump b2
b1:
    v1 = copy v0
    v3 = add.i v2, v1
    v4 = copy v3
    v5 = add.i v4, v4
    jump b2
b2:
    ret v0
}
",
    );
}

#[test]
fn renumber_joins_a_looping_entry_to_its_pseudo_defs_and_back_edges() {
    // b0 is the entry and a loop header. Its reach-in is the pseudo-defs
    // plus what b1 sends back: v1's uninit def joins v1's def in b0, and
    // the parameter v0 joins b1's redefinition of v0. Nothing splits.
    let ir = "func f(v0:int) -> int {
b0:
    v1 = add.i v1, v0
    v2 = cmp.i.gt v1, v0
    branch v2, b1, b2
b1:
    v0 = add.i v0, v1
    jump b0
b2:
    ret v1
}
";
    pin_renumber(ir, ir);
}

#[test]
fn renumber_drops_table_entries_that_never_occur() {
    // v2 never occurs and is dropped, though it has a def site (its uninit
    // pseudo-def); the idle parameter v1 stays.
    let ir = "func f(v0:int, v1:int) -> int {
    reg v0:int \"a\"
    reg v1:int \"idle\"
    reg v2:int \"unused\"
    reg v3:int \"b\"
b0:
    v3 = add.i v0, v0
    ret v3
}
";
    let f = parse_function(ir).expect("test IR parses");
    let rd = reference::ReachingDefs::new(&f, &Cfg::new(&f));
    let unused_sites = rd.sites_of(VReg::new(2));
    assert_eq!(unused_sites.len(), 1);
    assert_eq!(
        rd.sites()[unused_sites[0] as usize].kind,
        reference::DefSiteKind::Uninit
    );
    pin_renumber(
        ir,
        "func f(v0:int, v1:int) -> int {
    reg v0:int \"a\"
    reg v1:int \"idle\"
    reg v2:int \"b\"
b0:
    v2 = add.i v0, v0
    ret v2
}
",
    );
}

#[test]
fn renumber_numbers_in_block_order_with_uses_before_the_def() {
    // Reverse postorder visits b2 before b1; numbering follows block ids.
    // In b1, each instruction's uses are numbered before its def, and
    // `v4 = add.i v4, v1` reads the uninit v4, a different web from its def.
    pin_renumber(
        "func f(v0:int) -> int {
b0:
    jump b2
b1:
    v1 = add.i v2, v0
    v4 = add.i v4, v1
    ret v4
b2:
    v3 = imm 7
    v2 = add.i v3, v3
    jump b1
}
",
        "func f(v0:int) -> int {
    reg v1:int \"v2\"
    reg v2:int \"v1\"
    reg v3:int \"v4\"
    reg v5:int \"v3\"
b0:
    jump b2
b1:
    v2 = add.i v1, v0
    v4 = add.i v3, v2
    ret v4
b2:
    v5 = imm 7
    v1 = add.i v5, v5
    jump b1
}
",
    );
}

/// The reference model of `renumber`, which the library's must match
/// exactly: the library's implementation before its linear rewrite, moved
/// here with only its paths changed.
///
/// Reaching-definitions analysis: each definition point of each virtual
/// register gets a *def-site* id; the analysis computes which def sites
/// reach the top of each block. The [`renumber`](reference::renumber) pass
/// uses this to join defs and uses into webs (the paper's live ranges).
mod reference {
    use optimist::analysis::{Cfg, DenseBitSet, RenumberStats};
    use optimist::ir::{BlockId, Function, VReg, VRegData};
    use std::collections::HashMap;

    /// Where a definition comes from.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DefSiteKind {
        /// An ordinary instruction def at `(block, inst)`.
        Inst {
            /// The defining block.
            block: BlockId,
            /// Index of the defining instruction within the block.
            inst: usize,
        },
        /// A parameter, implicitly defined on function entry.
        Param,
        /// A synthetic definition at entry for registers that may be used before
        /// being defined on some path. This keeps every use reachable by at least
        /// one def so web construction is total.
        Uninit,
    }

    /// One definition site.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DefSite {
        /// The register being defined.
        pub vreg: VReg,
        /// What kind of definition this is.
        pub kind: DefSiteKind,
    }

    /// Reaching definitions for a function.
    #[derive(Debug, Clone)]
    pub struct ReachingDefs {
        sites: Vec<DefSite>,
        /// Def-site ids reaching the top of each block.
        reach_in: Vec<DenseBitSet>,
        /// For each vreg, the ids of all its def sites.
        sites_of_vreg: Vec<Vec<u32>>,
    }

    impl ReachingDefs {
        /// Compute reaching definitions for `func`.
        pub fn new(func: &Function, cfg: &Cfg) -> Self {
            let nb = func.num_blocks();
            let nv = func.num_vregs();

            // Enumerate def sites: params and uninit pseudo-defs first (they
            // behave as defs at the top of the entry block), then instruction
            // defs in program order.
            let mut sites: Vec<DefSite> = Vec::new();
            let mut sites_of_vreg: Vec<Vec<u32>> = vec![Vec::new(); nv];
            let push =
                |sites: &mut Vec<DefSite>, sites_of_vreg: &mut Vec<Vec<u32>>, site: DefSite| {
                    let id = sites.len() as u32;
                    sites_of_vreg[site.vreg.index()].push(id);
                    sites.push(site);
                    id
                };

            let mut entry_defs: Vec<u32> = Vec::new();
            for &p in func.params() {
                let id = push(
                    &mut sites,
                    &mut sites_of_vreg,
                    DefSite {
                        vreg: p,
                        kind: DefSiteKind::Param,
                    },
                );
                entry_defs.push(id);
            }
            // Synthetic uninit defs for every non-param register. Registers that
            // are in fact always defined before use simply have this pseudo-def
            // killed on every path to their uses.
            for v in 0..nv {
                let vreg = VReg::new(v as u32);
                if func.params().contains(&vreg) {
                    continue;
                }
                let id = push(
                    &mut sites,
                    &mut sites_of_vreg,
                    DefSite {
                        vreg,
                        kind: DefSiteKind::Uninit,
                    },
                );
                entry_defs.push(id);
            }
            for (bid, block) in func.blocks() {
                for (i, inst) in block.insts.iter().enumerate() {
                    if let Some(d) = inst.def() {
                        push(
                            &mut sites,
                            &mut sites_of_vreg,
                            DefSite {
                                vreg: d,
                                kind: DefSiteKind::Inst {
                                    block: bid,
                                    inst: i,
                                },
                            },
                        );
                    }
                }
            }

            let ns = sites.len();

            // gen/kill per block over def-site ids.
            let mut gen = vec![DenseBitSet::new(ns); nb];
            let mut kill = vec![DenseBitSet::new(ns); nb];
            let mut site_cursor = entry_defs.len(); // inst sites start here
            for (bid, block) in func.blocks() {
                let bi = bid.index();
                for inst in &block.insts {
                    if let Some(d) = inst.def() {
                        let id = site_cursor;
                        site_cursor += 1;
                        // This def kills every other def of d and generates itself.
                        for &other in &sites_of_vreg[d.index()] {
                            gen[bi].remove(other as usize);
                            kill[bi].insert(other as usize);
                        }
                        kill[bi].remove(id);
                        gen[bi].insert(id);
                    }
                }
            }

            let mut reach_in = vec![DenseBitSet::new(ns); nb];
            let mut reach_out = vec![DenseBitSet::new(ns); nb];
            // Entry block starts with param + uninit defs reaching in.
            for &id in &entry_defs {
                reach_in[func.entry().index()].insert(id as usize);
            }

            let mut changed = true;
            let mut tmp = DenseBitSet::new(ns);
            while changed {
                changed = false;
                for &b in cfg.rpo() {
                    let bi = b.index();
                    for &p in cfg.preds(b) {
                        tmp.copy_from(&reach_out[p.index()]);
                        if reach_in[bi].union_with(&tmp) {
                            changed = true;
                        }
                    }
                    tmp.copy_from(&reach_in[bi]);
                    tmp.subtract(&kill[bi]);
                    tmp.union_with(&gen[bi]);
                    if tmp != reach_out[bi] {
                        reach_out[bi].copy_from(&tmp);
                        changed = true;
                    }
                }
            }

            ReachingDefs {
                sites,
                reach_in,
                sites_of_vreg,
            }
        }

        /// All def sites, indexed by id.
        pub fn sites(&self) -> &[DefSite] {
            &self.sites
        }

        /// Ids of def sites reaching the top of `b`.
        pub fn reach_in(&self, b: BlockId) -> &DenseBitSet {
            &self.reach_in[b.index()]
        }

        /// Ids of all def sites of `v`.
        pub fn sites_of(&self, v: VReg) -> &[u32] {
            &self.sites_of_vreg[v.index()]
        }
    }

    /// A plain union-find over `usize` ids.
    #[derive(Debug)]
    struct UnionFind {
        parent: Vec<u32>,
    }

    impl UnionFind {
        fn new(n: usize) -> Self {
            UnionFind {
                parent: (0..n as u32).collect(),
            }
        }

        fn find(&mut self, x: usize) -> usize {
            let mut root = x;
            while self.parent[root] as usize != root {
                root = self.parent[root] as usize;
            }
            // Path compression.
            let mut cur = x;
            while self.parent[cur] as usize != cur {
                let next = self.parent[cur] as usize;
                self.parent[cur] = root as u32;
                cur = next;
            }
            root
        }

        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                self.parent[ra] = rb as u32;
            }
        }
    }

    /// Rewrite `func` so every def-use web has a distinct virtual register.
    ///
    /// Returns statistics (web count = the paper's "live ranges" column).
    pub fn renumber(func: &mut Function) -> RenumberStats {
        let vregs_before = func.num_vregs();
        let cfg = Cfg::new(func);
        let rd = ReachingDefs::new(func, &cfg);
        let sites = rd.sites().to_vec();
        let ns = sites.len();

        // Map (block, inst) -> def site id for instruction defs.
        let mut inst_site: HashMap<(u32, usize), u32> = HashMap::new();
        // Pseudo-def site id per vreg (param or uninit).
        let mut pseudo_site: Vec<Option<u32>> = vec![None; vregs_before];
        for (id, site) in sites.iter().enumerate() {
            match site.kind {
                DefSiteKind::Inst { block, inst } => {
                    inst_site.insert((block.index() as u32, inst), id as u32);
                }
                DefSiteKind::Param | DefSiteKind::Uninit => {
                    pseudo_site[site.vreg.index()] = Some(id as u32);
                }
            }
        }

        let mut uf = UnionFind::new(ns);

        // Pass 1: union all defs that reach a common use.
        // Within a block we track the single locally-dominating def per vreg;
        // before any local def, the reach-in set applies.
        let mut uses = Vec::new();
        for &b in cfg.rpo() {
            let mut local_def: HashMap<u32, u32> = HashMap::new(); // vreg -> site
                                                                   // Group reach-in sites by vreg lazily.
            let mut reach_by_vreg: HashMap<u32, Vec<u32>> = HashMap::new();
            for id in rd.reach_in(b).iter() {
                reach_by_vreg
                    .entry(sites[id].vreg.index() as u32)
                    .or_default()
                    .push(id as u32);
            }
            for (i, inst) in func.block(b).insts.iter().enumerate() {
                uses.clear();
                inst.uses_into(&mut uses);
                for &u in &uses {
                    let key = u.index() as u32;
                    if let Some(&d) = local_def.get(&key) {
                        // Single dominating local def: nothing to merge with it
                        // beyond itself, but the use belongs to d's web.
                        let _ = d;
                    } else if let Some(ids) = reach_by_vreg.get(&key) {
                        for w in ids.windows(2) {
                            uf.union(w[0] as usize, w[1] as usize);
                        }
                    }
                }
                if let Some(d) = inst.def() {
                    let id = inst_site[&(b.index() as u32, i)];
                    local_def.insert(d.index() as u32, id);
                }
            }
        }

        // Pass 2: assign a fresh vreg per web root and rewrite occurrences.
        let old_vregs: Vec<VRegData> = (0..vregs_before)
            .map(|i| func.vreg(VReg::new(i as u32)).clone())
            .collect();
        let mut new_table: Vec<VRegData> = Vec::new();
        let mut web_vreg: HashMap<usize, VReg> = HashMap::new();
        let site_owner: Vec<VReg> = sites.iter().map(|s| s.vreg).collect();
        let vreg_for_site = move |uf: &mut UnionFind,
                                  new_table: &mut Vec<VRegData>,
                                  web_vreg: &mut HashMap<usize, VReg>,
                                  site: usize|
              -> VReg {
            let root = uf.find(site);
            *web_vreg.entry(root).or_insert_with(|| {
                let data = old_vregs[site_owner[root].index()].clone();
                let v = VReg::new(new_table.len() as u32);
                new_table.push(data);
                v
            })
        };

        // Rewrite params first so they keep low indices.
        let new_params: Vec<VReg> = func
            .params()
            .to_vec()
            .iter()
            .map(|p| {
                let site = pseudo_site[p.index()].expect("param has pseudo site") as usize;
                vreg_for_site(&mut uf, &mut new_table, &mut web_vreg, site)
            })
            .collect();

        let block_ids: Vec<_> = func.block_ids().collect();
        for b in block_ids {
            let reachable = cfg.is_reachable(b);
            let mut local_def: HashMap<u32, u32> = HashMap::new();
            let mut reach_rep: HashMap<u32, u32> = HashMap::new(); // vreg -> representative site
            if reachable {
                for id in rd.reach_in(b).iter() {
                    reach_rep
                        .entry(sites[id].vreg.index() as u32)
                        .or_insert(id as u32);
                }
            }
            let num_insts = func.block(b).insts.len();
            for i in 0..num_insts {
                // Resolve the def site first (needed after rewriting uses).
                let def_site = func.block(b).insts[i]
                    .def()
                    .map(|_| inst_site[&(b.index() as u32, i)]);

                let inst = &mut func.block_mut(b).insts[i];
                // Temporarily move out to satisfy the borrow checker.
                let mut tmp = inst.clone();
                tmp.map_uses(|u| {
                    let key = u.index() as u32;
                    let site = local_def
                        .get(&key)
                        .or_else(|| reach_rep.get(&key))
                        .copied()
                        // Unreachable code, or a use with no reaching def at all:
                        // fall back to the pseudo-def of the original register.
                        .unwrap_or_else(|| pseudo_site[u.index()].unwrap_or(0));
                    vreg_for_site(&mut uf, &mut new_table, &mut web_vreg, site as usize)
                });
                if let Some(site) = def_site {
                    let old_vreg = tmp.def().expect("def site implies def");
                    local_def.insert(old_vreg.index() as u32, site);
                    tmp.map_def(|_| {
                        vreg_for_site(&mut uf, &mut new_table, &mut web_vreg, site as usize)
                    });
                }
                *inst = tmp;
            }
        }

        func.set_params(new_params);
        let webs = new_table.len();
        func.set_vreg_table(new_table);

        RenumberStats { vregs_before, webs }
    }

    // The reaching-definitions unit tests, moved with the analysis.
    mod tests {
        use super::*;
        use optimist::ir::{Cmp, FunctionBuilder, Imm, RegClass};

        #[test]
        fn two_defs_merge_at_join() {
            // x defined in both arms; both defs reach the join.
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
            let f = b.finish();
            let cfg = Cfg::new(&f);
            let rd = ReachingDefs::new(&f, &cfg);

            let reaching_x: Vec<_> = rd
                .reach_in(j)
                .iter()
                .filter(|&id| rd.sites()[id].vreg == x)
                .map(|id| rd.sites()[id].kind)
                .collect();
            // Both instruction defs reach; the uninit pseudo-def is killed on
            // both paths.
            assert_eq!(reaching_x.len(), 2);
            assert!(reaching_x
                .iter()
                .all(|k| matches!(k, DefSiteKind::Inst { .. })));
        }

        #[test]
        fn redefinition_kills_previous() {
            let mut b = FunctionBuilder::new("f");
            b.set_ret_class(Some(RegClass::Int));
            let x = b.new_vreg(RegClass::Int, "x");
            b.load_imm(x, Imm::Int(1));
            b.load_imm(x, Imm::Int(2));
            let next = b.new_block();
            b.jump(next);
            b.switch_to(next);
            b.ret(Some(x));
            let f = b.finish();
            let cfg = Cfg::new(&f);
            let rd = ReachingDefs::new(&f, &cfg);
            let reaching_x: Vec<_> = rd
                .reach_in(next)
                .iter()
                .filter(|&id| rd.sites()[id].vreg == x)
                .collect();
            assert_eq!(reaching_x.len(), 1);
            match rd.sites()[reaching_x[0]].kind {
                DefSiteKind::Inst { inst, .. } => assert_eq!(inst, 1),
                k => panic!("unexpected kind {k:?}"),
            }
        }

        #[test]
        fn param_def_reaches_entry() {
            let mut b = FunctionBuilder::new("f");
            b.set_ret_class(Some(RegClass::Int));
            let p = b.add_param(RegClass::Int, "p");
            b.ret(Some(p));
            let f = b.finish();
            let cfg = Cfg::new(&f);
            let rd = ReachingDefs::new(&f, &cfg);
            let kinds: Vec<_> = rd
                .reach_in(f.entry())
                .iter()
                .map(|id| rd.sites()[id].kind)
                .collect();
            assert!(kinds.contains(&DefSiteKind::Param));
        }

        #[test]
        fn conditionally_defined_use_sees_uninit() {
            // x defined only on one path; uninit def must reach the use.
            let mut b = FunctionBuilder::new("f");
            b.set_ret_class(Some(RegClass::Int));
            let p = b.add_param(RegClass::Int, "p");
            let x = b.new_vreg(RegClass::Int, "x");
            let arm = b.new_block();
            let j = b.new_block();
            let z = b.int(0);
            let c = b.cmp_i(Cmp::Gt, p, z);
            b.branch(c, arm, j);
            b.switch_to(arm);
            b.load_imm(x, Imm::Int(1));
            b.jump(j);
            b.switch_to(j);
            b.ret(Some(x));
            let f = b.finish();
            let cfg = Cfg::new(&f);
            let rd = ReachingDefs::new(&f, &cfg);
            let kinds: Vec<_> = rd
                .reach_in(j)
                .iter()
                .filter(|&id| rd.sites()[id].vreg == x)
                .map(|id| rd.sites()[id].kind)
                .collect();
            assert!(kinds.contains(&DefSiteKind::Uninit));
            assert!(kinds.iter().any(|k| matches!(k, DefSiteKind::Inst { .. })));
        }
    }
}
