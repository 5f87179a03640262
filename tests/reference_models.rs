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
//!   edge cases;
//! * the IRC engine vs. [`reference::irc`], the `BTreeSet` engine it was
//!   rewritten from: the same outcome, field for field, on the first-pass
//!   graphs of the corpus and of generated routines, under every spill
//!   metric, with and without a third of the nodes unspillable;
//! * the IR printer vs. [`reference::display`] and
//!   [`reference::canonical_text`], `Function`'s `Display` and the
//!   clone-and-rename canonical text it was rewritten from: the same bytes
//!   from `to_string` and `write_canonical`, and the same `cache_key`, on
//!   the corpus, generated routines, their allocations under every
//!   strategy, α-renamings and adversarial names;
//! * `select` vs. [`reference::select`], its loop with a fresh `k`-entry
//!   scratch per node: the same colors on first-pass graphs of the corpus
//!   and on random graphs, from one register to 65,536.

use optimist::analysis::{renumber, Cfg, Dominators, Liveness, LoopInfo};
use optimist::ir::{
    parse_function, write_canonical, BlockId, FrameSlot, Function, Inst, RegClass, VReg,
};
use optimist::machine::Target;
use optimist::regalloc::irc::{collect_moves, irc};
use optimist::regalloc::{
    allocate, build_graph, fnv1a, insert_spill_code, select, simplify, spill_costs,
    AllocatorConfig, ConservativeTest, Heuristic, InterferenceGraph, IrcOutcome, SpillMetric,
    SpillOpts, Strategy,
};
use optimist::serve::cache_key;
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

/// A seeded xorshift stream, for the seeded choices below.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// What the allocator's next pass sees: spill a seeded quarter of the
/// spillable ranges of a renumbered function, then renumber again. Odd
/// seeds rematerialize.
fn check_after_spill(renumbered: &Function, seed: u64, what: &str) {
    let mut next = xorshift(seed);
    let spilled: Vec<VReg> = (0..renumbered.num_vregs() as u32)
        .map(VReg::new)
        .filter(|&v| renumbered.vreg(v).spillable)
        .filter(|_| next().is_multiple_of(4))
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

// ---- the IRC engine vs. its reference model ------------------------------

/// The engine's input as `allocate`'s first IRC pass builds it: the
/// renumbered function's interference graph (no up-front coalescing), its
/// candidate moves and its loop-weighted spill costs.
fn first_pass_input(f: &Function) -> (InterferenceGraph, Vec<(u32, u32)>, Vec<f64>) {
    let mut f = f.clone();
    renumber(&mut f);
    let cfg = Cfg::new(&f);
    let live = Liveness::new(&f, &cfg);
    let dom = Dominators::new(&f, &cfg);
    let loops = LoopInfo::new(&f, &cfg, &dom);
    let graph = build_graph(&f, &cfg, &live);
    let moves = collect_moves(&f, &graph);
    (graph, moves, spill_costs(&f, &loops))
}

/// Both engines on `f`'s first-pass input at `target`, under every spill
/// metric, with its own costs and again with a seeded third of the nodes
/// unspillable (so that George's test, which needs both ends unspillable,
/// runs). Every outcome field must match. Returns the George merges seen.
fn check_irc(f: &Function, target: &Target, seed: u64, what: &str) -> usize {
    let (graph, moves, costs) = first_pass_input(f);
    let mut next = xorshift(seed);
    let pinned: Vec<f64> = costs
        .iter()
        .map(|&c| {
            if next().is_multiple_of(3) {
                f64::INFINITY
            } else {
                c
            }
        })
        .collect();
    let mut george = 0;
    for (costs, which) in [(&costs, "own costs"), (&pinned, "a third unspillable")] {
        for metric in [
            SpillMetric::CostOverDegree,
            SpillMetric::Cost,
            SpillMetric::CostOverDegreeSquared,
        ] {
            let what = format!("{what}, {target:?}, {metric:?}, {which}");
            let fast = irc(&graph, &moves, costs, target, metric);
            let slow = reference::irc(&graph, &moves, costs, target, metric);
            assert_eq!(fast.events, slow.events, "{what}: events differ");
            assert_eq!(fast.stack, slow.stack, "{what}: stacks differ");
            assert_eq!(fast.alias, slow.alias, "{what}: alias maps differ");
            assert_eq!(fast.blocked, slow.blocked, "{what}: blocked differ");
            assert_eq!(fast.frozen_moves, slow.frozen_moves, "{what}: frozen");
            let merges = |o: &IrcOutcome| -> Vec<(u32, u32, ConservativeTest)> {
                o.coalesced.iter().map(|c| (c.u, c.v, c.test)).collect()
            };
            assert_eq!(merges(&fast), merges(&slow), "{what}: merges differ");
            assert!(
                fast.merged_graph.same_edges(&slow.merged_graph),
                "{what}: merged graphs differ"
            );
            george += fast
                .coalesced
                .iter()
                .filter(|c| c.test == ConservativeTest::George)
                .count();
        }
    }
    george
}

#[test]
fn irc_matches_reference_on_the_corpus() {
    let targets = [
        Target::rt_pc(),
        Target::with_int_regs(8),
        Target::custom("i4f4", 4, 4),
    ];
    let mut george = 0;
    for p in optimist::workloads::programs() {
        let module = optimist::compile_optimized(&p.source).expect("compiles");
        for (i, f) in module.functions().iter().enumerate() {
            for target in &targets {
                let what = format!("{} {}", p.name, f.name());
                george += check_irc(f, target, i as u64, &what);
            }
        }
    }
    assert!(george > 0, "no input reached the George test");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Generated routines, optimized as `paper_invariants` compiles them,
    /// at the register counts its IRC properties use.
    #[test]
    fn irc_matches_reference_on_generated_routines(seed in 0u64..1_000_000, k in 2usize..9) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let target = Target::custom("t", k, k);
        for f in module.functions() {
            check_irc(f, &target, seed, &format!("seed {seed} {}", f.name()));
        }
    }
}

// ---- the printer vs. its reference model ----------------------------------

/// Names that a printer comparing, escaping or defaulting names carelessly
/// would get wrong: another register's default name, a slot's default
/// name on a register, the empty name, quotes, backslashes and non-ASCII.
const ADVERSARIAL: [&str; 8] = [
    "v007",
    "s1",
    "",
    "q\"uote",
    "back\\slash",
    "ñ☃",
    "v1",
    "\\\"",
];

/// `f` with every register and slot renamed: adversarial names mixed with
/// plain ones, chosen by `seed`, so slot 2 may be called `s1`.
fn renamed(f: &Function, seed: u64) -> Function {
    let mut g = f.clone();
    let pick = |i: usize| ADVERSARIAL[(i + seed as usize) % ADVERSARIAL.len()];
    for i in 0..g.num_vregs() {
        let name = if i % 3 == 0 {
            format!("x.{i}")
        } else {
            pick(i).to_string()
        };
        g.rename_vreg(VReg::new(i as u32), name);
    }
    for i in 0..g.num_slots() {
        g.rename_slot(FrameSlot::new(i as u32), pick(i + 1));
    }
    g
}

/// The same bytes from both printers, in both forms, and the cache key
/// the daemon would have derived from the reference's canonical text.
fn check_printer(f: &Function, what: &str) {
    assert_eq!(f.to_string(), reference::display(f), "{what}: text differs");
    let canonical = reference::canonical_text(f);
    let mut streamed = String::new();
    write_canonical(&mut streamed, f).expect("writing to a String never fails");
    assert_eq!(streamed, canonical, "{what}: canonical text differs");
    for config in [
        AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs),
        AllocatorConfig::new(Target::custom("x", 5, 2), Strategy::Ssa),
    ] {
        let mut key = fnv1a(canonical.as_bytes());
        for b in config.fingerprint().to_le_bytes() {
            key = (key ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(cache_key(f, &config), key, "{what}: cache key differs");
    }
}

/// [`check_printer`] on `f`, on a renaming of it, and on its allocations
/// under every strategy at `target` (spill slots and never-spill
/// temporaries included). Returns how many allocations carried both.
fn check_printer_family(f: &Function, target: &Target, seed: u64, what: &str) -> usize {
    check_printer(f, what);
    check_printer(&renamed(f, seed), &format!("{what}, renamed"));
    let mut spilled = 0;
    for strategy in [
        Strategy::Chaitin,
        Strategy::Briggs,
        Strategy::Irc,
        Strategy::Ssa,
    ] {
        let config = AllocatorConfig::new(target.clone(), strategy);
        let Ok(out) = allocate(f, &config) else {
            continue;
        };
        let what = format!("{what}, allocated by {strategy:?}");
        check_printer(&out.func, &what);
        check_printer(&renamed(&out.func, seed), &format!("{what}, renamed"));
        let spill_slot =
            (0..out.func.num_slots()).any(|s| out.func.slot(FrameSlot::new(s as u32)).is_spill);
        let nospill =
            (0..out.func.num_vregs()).any(|v| !out.func.vreg(VReg::new(v as u32)).spillable);
        spilled += usize::from(spill_slot && nospill);
    }
    spilled
}

#[test]
fn printer_matches_reference_on_the_corpus() {
    let mut spilled = 0;
    for p in optimist::workloads::programs() {
        let compiled = optimist::frontend::compile(&p.source).expect("compiles");
        for (i, f) in compiled.functions().iter().enumerate() {
            check_printer(f, &format!("{} {} (compile)", p.name, f.name()));
            check_printer(
                &renamed(f, i as u64),
                &format!("{} {} (compile), renamed", p.name, f.name()),
            );
        }
        let optimized = optimist::compile_optimized(&p.source).expect("compiles");
        for (i, f) in optimized.functions().iter().enumerate() {
            let what = format!("{} {} (compile_optimized)", p.name, f.name());
            spilled += check_printer_family(f, &Target::rt_pc(), i as u64, &what);
        }
    }
    assert!(
        spilled > 0,
        "no allocation carried spill slots and never-spill temporaries"
    );
}

#[test]
fn printer_matches_reference_on_hand_made_edge_cases() {
    // Default-looking names on the wrong index, names a parser would
    // misread, unreferenced and never-spill registers, spill slots.
    let mut f = Function::new("edge");
    let p = f.add_param(RegClass::Float, "v1");
    let dead = f.new_vreg(RegClass::Int, "v1");
    let t = f.new_vreg(RegClass::Int, "v007");
    f.new_vreg(RegClass::Float, "");
    f.set_spillable(t, false);
    f.new_slot(8, "s1", false);
    f.new_slot(16, "s1", true);
    f.new_slot(24, "q\"\\ñ☃", true);
    let _ = dead;
    f.block_mut(f.entry())
        .insts
        .push(Inst::Ret { value: Some(p) });
    for seed in 0..ADVERSARIAL.len() as u64 {
        check_printer(&f, "edge");
        check_printer(
            &renamed(&f, seed),
            &format!("edge, renamed with seed {seed}"),
        );
    }
}

// ---- select vs. its reference model ---------------------------------------

/// Both selects color `stack` of `graph` alike at every register count of
/// the sweep.
fn check_select(graph: &InterferenceGraph, stack: &[u32], what: &str) {
    for k in [1, 2, 3, 16, 4096, 65536] {
        let target = Target::custom("k", k, k);
        assert_eq!(
            select(graph, stack, &target),
            reference::select(graph, stack, &target),
            "{what}, k = {k}: colors differ"
        );
    }
}

#[test]
fn select_matches_reference_on_the_corpus() {
    for p in optimist::workloads::programs() {
        let module = optimist::compile_optimized(&p.source).expect("compiles");
        for f in module.functions() {
            let (graph, _, costs) = first_pass_input(f);
            for (k, heuristic) in [
                (3, Heuristic::ChaitinPessimistic),
                (16, Heuristic::BriggsOptimistic),
            ] {
                let stack = simplify(&graph, &costs, &Target::custom("k", k, k), heuristic).stack;
                check_select(
                    &graph,
                    &stack,
                    &format!("{} {}, {heuristic:?} at {k}", p.name, f.name()),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Random two-class graphs, colored in a random order that leaves a
    /// random few nodes off the stack, as Chaitin's spill marks do.
    #[test]
    fn select_matches_reference_on_random_graphs(seed in 0u64..1_000_000, n in 1usize..120) {
        let mut next = xorshift(seed);
        let classes = (0..n)
            .map(|_| if next().is_multiple_of(4) { RegClass::Float } else { RegClass::Int })
            .collect();
        let mut graph = InterferenceGraph::new(classes);
        let density = 1 + next() % 60;
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                if graph.class(a) == graph.class(b) && next() % 100 < density {
                    graph.add_edge(a, b);
                }
            }
        }
        let mut stack: Vec<u32> = (0..n as u32).filter(|_| !next().is_multiple_of(8)).collect();
        for i in (1..stack.len()).rev() {
            stack.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        check_select(&graph, &stack, &format!("seed {seed}, {n} nodes"));
    }

    /// Generated routines and their allocations, optimized as
    /// `paper_invariants` compiles them.
    #[test]
    fn printer_matches_reference_on_generated_routines(seed in 0u64..1_000_000) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for f in module.functions() {
            let what = format!("seed {seed} {}", f.name());
            check_printer_family(f, &Target::custom("t", 4, 3), seed, &what);
        }
    }
}

/// The reference models of `renumber`, the IRC engine, the IR printer and
/// `select`, which the library's must match exactly: the library's
/// implementations before their rewrites, moved here with only their
/// paths changed (the printer with its own number formatting).
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

    // ---- the IRC engine before its flat-adjacency rewrite ----------------
    //
    // `irc.rs`'s worklist engine as it stood with `BTreeSet` adjacency,
    // move sets and a set-building conservative test, moved here with only
    // its paths changed. The library's engine must reproduce its outcome
    // field for field.

    use optimist::machine::Target;
    use optimist::regalloc::irc::{CoalescedMove, ConservativeTest, IrcEvent, IrcOutcome};
    use optimist::regalloc::{InterferenceGraph, SpillMetric};
    use std::collections::BTreeSet;

    /// Run the IRC worklist engine over `graph` with the given candidate
    /// `moves` (from [`collect_moves`]) and per-node spill `costs`. Costs of
    /// merged nodes are summed, so a web containing an unspillable member
    /// inherits its infinite cost and is never picked as a spill candidate.
    pub fn irc(
        graph: &InterferenceGraph,
        moves: &[(u32, u32)],
        costs: &[f64],
        target: &Target,
        metric: SpillMetric,
    ) -> IrcOutcome {
        let n = graph.num_nodes();
        let engine = Engine {
            graph,
            target,
            metric,
            adj_storage: (0..n as u32)
                .map(|v| graph.neighbors(v).iter().copied().collect())
                .collect(),
            degree: (0..n as u32).map(|v| graph.degree(v)).collect(),
            cost: costs.to_vec(),
            alias: (0..n as u32).collect(),
            merged: vec![false; n],
            on_stack: vec![false; n],
            move_list: vec![BTreeSet::new(); n],
            moves,
            worklist_moves: BTreeSet::new(),
            active_moves: BTreeSet::new(),
            simplify_wl: BTreeSet::new(),
            freeze_wl: BTreeSet::new(),
            spill_wl: BTreeSet::new(),
            stack: Vec::new(),
            coalesced: Vec::new(),
            frozen_moves: 0,
            blocked: Vec::new(),
            events: Vec::new(),
        };
        engine.run()
    }

    struct Engine<'a> {
        graph: &'a InterferenceGraph,
        target: &'a Target,
        metric: SpillMetric,
        /// Structural adjacency, grown by [`Engine::add_edge`] as merges add
        /// interferences; never shrunk (removal is the `on_stack`/`merged`
        /// filter in [`Engine::adjacent`]).
        adj_storage: Vec<BTreeSet<u32>>,
        degree: Vec<usize>,
        cost: Vec<f64>,
        alias: Vec<u32>,
        merged: Vec<bool>,
        on_stack: Vec<bool>,
        move_list: Vec<BTreeSet<usize>>,
        moves: &'a [(u32, u32)],
        worklist_moves: BTreeSet<usize>,
        active_moves: BTreeSet<usize>,
        simplify_wl: BTreeSet<u32>,
        freeze_wl: BTreeSet<u32>,
        spill_wl: BTreeSet<u32>,
        stack: Vec<u32>,
        coalesced: Vec<CoalescedMove>,
        frozen_moves: usize,
        blocked: Vec<u32>,
        events: Vec<IrcEvent>,
    }

    impl Engine<'_> {
        fn k_of(&self, v: u32) -> usize {
            self.target.regs(self.graph.class(v))
        }

        fn get_alias(&self, mut v: u32) -> u32 {
            while self.merged[v as usize] {
                v = self.alias[v as usize];
            }
            v
        }

        /// The live neighbors of `v`: structural adjacency minus nodes already
        /// on the stack or merged away (George–Appel's `Adjacent`).
        fn adjacent(&self, v: u32) -> Vec<u32> {
            self.adj_storage[v as usize]
                .iter()
                .copied()
                .filter(|&t| !self.on_stack[t as usize] && !self.merged[t as usize])
                .collect()
        }

        fn move_related(&self, v: u32) -> bool {
            self.move_list[v as usize]
                .iter()
                .any(|m| self.worklist_moves.contains(m) || self.active_moves.contains(m))
        }

        fn enable_moves(&mut self, nodes: &[u32]) {
            for &v in nodes {
                let ms: Vec<usize> = self.move_list[v as usize].iter().copied().collect();
                for m in ms {
                    if self.active_moves.remove(&m) {
                        self.worklist_moves.insert(m);
                    }
                }
            }
        }

        fn decrement_degree(&mut self, t: u32) {
            let d = self.degree[t as usize];
            self.degree[t as usize] = d.saturating_sub(1);
            if d == self.k_of(t) {
                // t just crossed from significant to insignificant degree:
                // its parked moves (and its neighbors') get another chance.
                let mut enable = vec![t];
                enable.extend(self.adjacent(t));
                self.enable_moves(&enable);
                self.spill_wl.remove(&t);
                if self.move_related(t) {
                    self.freeze_wl.insert(t);
                } else {
                    self.simplify_wl.insert(t);
                }
            }
        }

        fn add_edge(&mut self, a: u32, b: u32) {
            if a == b {
                return;
            }
            if self.adj_storage[a as usize].insert(b) {
                self.adj_storage[b as usize].insert(a);
                self.degree[a as usize] += 1;
                self.degree[b as usize] += 1;
            }
        }

        fn add_worklist(&mut self, u: u32) {
            if !self.move_related(u) && self.degree[u as usize] < self.k_of(u) {
                self.freeze_wl.remove(&u);
                self.simplify_wl.insert(u);
            }
        }

        fn do_simplify(&mut self) {
            let v = *self.simplify_wl.iter().next().expect("non-empty");
            self.simplify_wl.remove(&v);
            self.stack.push(v);
            self.on_stack[v as usize] = true;
            self.events.push(IrcEvent::Simplify(v));
            for t in self.adjacent(v) {
                self.decrement_degree(t);
            }
        }

        fn do_coalesce(&mut self) {
            let m = *self.worklist_moves.iter().next().expect("non-empty");
            self.worklist_moves.remove(&m);
            let (x, y) = self.moves[m];
            let (x, y) = (self.get_alias(x), self.get_alias(y));
            // Deterministic survivor: the lower-numbered root.
            let (u, v) = if x <= y { (x, y) } else { (y, x) };
            if u == v {
                self.add_worklist(u);
                return;
            }
            if self.adj_storage[u as usize].contains(&v) {
                // Constrained: the two ends interfere (a previous merge made
                // them overlap). The move can never be coalesced.
                self.add_worklist(u);
                self.add_worklist(v);
                return;
            }
            let test = self.conservative_test(u, v);
            match test {
                Some(test) => {
                    self.coalesced.push(CoalescedMove { u, v, test });
                    self.events.push(IrcEvent::Coalesce { u, v, test });
                    self.combine(u, v);
                    self.add_worklist(u);
                }
                None => {
                    // Park the move; a later degree drop re-enables it.
                    self.active_moves.insert(m);
                }
            }
        }

        /// Try Briggs first, then George; `None` means neither proves the
        /// merge of `v` into `u` safe right now.
        ///
        /// The George test is scoped the way Appel scopes it to precolored
        /// nodes. When George passes but Briggs does not, `u`'s web has ≥ `k`
        /// significant neighbors (George guarantees the merge adds no new
        /// significant ones, so Briggs' count *is* `u`'s count) — the merge
        /// glues `v` onto a web that is already a spill candidate. On graphs
        /// that need spills anyway, such merges concentrate live ranges into
        /// doomed webs and measurably inflate the spill count (the
        /// conservative guarantee only protects graphs that were k-colorable
        /// to begin with). The one case with nothing to lose is a move whose
        /// ends can *both* never be spilled — unspillable webs (infinite
        /// cost: the spill/reload temporaries of earlier passes), this
        /// allocator's analogue of Appel's precolored registers, which select
        /// must color no matter how the graph is carved up. Gating on one
        /// unspillable end is not enough: that would fuse spillable ranges
        /// into unspillable webs, taking them off the spill menu and forcing
        /// the driver's fallback to spill cheaper-but-useless ranges instead.
        /// Everything else is left to parked retry (Briggs often passes once
        /// degrees drop) and, eventually, the freeze path.
        fn conservative_test(&self, u: u32, v: u32) -> Option<ConservativeTest> {
            let k = self.k_of(u);
            let mut combined: BTreeSet<u32> = self.adjacent(u).into_iter().collect();
            combined.extend(self.adjacent(v));
            let significant = combined
                .iter()
                .filter(|&&t| self.degree[t as usize] >= self.k_of(t))
                .count();
            if significant < k {
                return Some(ConservativeTest::Briggs);
            }
            let unspillable_web =
                self.cost[u as usize].is_infinite() && self.cost[v as usize].is_infinite();
            let george = unspillable_web
                && self.adjacent(v).into_iter().all(|t| {
                    self.degree[t as usize] < self.k_of(t)
                        || self.adj_storage[t as usize].contains(&u)
                });
            if george {
                return Some(ConservativeTest::George);
            }
            None
        }

        fn combine(&mut self, u: u32, v: u32) {
            self.freeze_wl.remove(&v);
            self.spill_wl.remove(&v);
            self.simplify_wl.remove(&v);
            self.merged[v as usize] = true;
            self.alias[v as usize] = u;
            let vmoves: Vec<usize> = self.move_list[v as usize].iter().copied().collect();
            self.move_list[u as usize].extend(vmoves);
            self.cost[u as usize] += self.cost[v as usize];
            self.enable_moves(&[v]);
            for t in self.adjacent(v) {
                self.add_edge(t, u);
                self.decrement_degree(t);
            }
            if self.degree[u as usize] >= self.k_of(u) && self.freeze_wl.remove(&u) {
                self.spill_wl.insert(u);
            }
        }

        fn do_freeze(&mut self) {
            let u = *self.freeze_wl.iter().next().expect("non-empty");
            self.freeze_wl.remove(&u);
            self.simplify_wl.insert(u);
            self.events.push(IrcEvent::Freeze(u));
            self.freeze_moves(u);
        }

        fn freeze_moves(&mut self, u: u32) {
            let ms: Vec<usize> = self.move_list[u as usize]
                .iter()
                .copied()
                .filter(|m| self.worklist_moves.contains(m) || self.active_moves.contains(m))
                .collect();
            for m in ms {
                let (x, y) = self.moves[m];
                let v = if self.get_alias(y) == self.get_alias(u) {
                    self.get_alias(x)
                } else {
                    self.get_alias(y)
                };
                self.active_moves.remove(&m);
                self.worklist_moves.remove(&m);
                self.frozen_moves += 1;
                if !self.move_related(v) && self.degree[v as usize] < self.k_of(v) {
                    self.freeze_wl.remove(&v);
                    self.simplify_wl.insert(v);
                }
            }
        }

        fn do_select_spill(&mut self) {
            // Cheapest blocked candidate under the configured metric, over the
            // *web* cost (member costs were summed on combine); ties go to the
            // lowest node index, matching the classic simplify phase.
            let m = self
                .spill_wl
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let ra = self
                        .metric
                        .rank(self.cost[a as usize], self.degree[a as usize]);
                    let rb = self
                        .metric
                        .rank(self.cost[b as usize], self.degree[b as usize]);
                    ra.partial_cmp(&rb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
                .expect("non-empty");
            self.spill_wl.remove(&m);
            self.simplify_wl.insert(m);
            self.blocked.push(m);
            self.events.push(IrcEvent::PotentialSpill(m));
            self.freeze_moves(m);
        }

        fn run(mut self) -> IrcOutcome {
            let n = self.graph.num_nodes();
            for (mi, &(a, b)) in self.moves.iter().enumerate() {
                self.move_list[a as usize].insert(mi);
                self.move_list[b as usize].insert(mi);
                self.worklist_moves.insert(mi);
            }
            for v in 0..n as u32 {
                if self.degree[v as usize] >= self.k_of(v) {
                    self.spill_wl.insert(v);
                } else if self.move_related(v) {
                    self.freeze_wl.insert(v);
                } else {
                    self.simplify_wl.insert(v);
                }
            }
            loop {
                if !self.simplify_wl.is_empty() {
                    self.do_simplify();
                } else if !self.worklist_moves.is_empty() {
                    self.do_coalesce();
                } else if !self.freeze_wl.is_empty() {
                    self.do_freeze();
                } else if !self.spill_wl.is_empty() {
                    self.do_select_spill();
                } else {
                    break;
                }
            }

            let alias: Vec<u32> = (0..n as u32).map(|v| self.get_alias(v)).collect();
            let classes = (0..n as u32).map(|v| self.graph.class(v)).collect();
            let mut merged_graph = InterferenceGraph::new(classes);
            for a in 0..n as u32 {
                for &b in self.graph.neighbors(a) {
                    if b < a {
                        merged_graph.add_edge(alias[a as usize], alias[b as usize]);
                    }
                }
            }
            IrcOutcome {
                stack: self.stack,
                alias,
                merged_graph,
                coalesced: self.coalesced,
                frozen_moves: self.frozen_moves,
                blocked: self.blocked,
                events: self.events,
            }
        }
    }

    // ---- the IR printer before it was streamed -------------------------
    //
    // `Function`'s `Display` and `canonical_text` as they stood, when the
    // canonical text was a renamed clone printed into a `String`. Numbers,
    // operators and names are formatted here, not by the IR's `Display`
    // impls, so a change to those shows as a difference.

    use optimist::ir::{Addr, BinOp, Cmp, FrameSlot, Imm, Inst, RegClass, UnOp};

    fn class(c: RegClass) -> &'static str {
        match c {
            RegClass::Int => "int",
            RegClass::Float => "float",
        }
    }

    fn cmp(c: Cmp) -> &'static str {
        match c {
            Cmp::Eq => "eq",
            Cmp::Ne => "ne",
            Cmp::Lt => "lt",
            Cmp::Le => "le",
            Cmp::Gt => "gt",
            Cmp::Ge => "ge",
        }
    }

    fn unop(op: UnOp) -> &'static str {
        match op {
            UnOp::NegI => "neg.i",
            UnOp::NegF => "neg.f",
            UnOp::Not => "not",
            UnOp::AbsI => "abs.i",
            UnOp::AbsF => "abs.f",
            UnOp::SqrtF => "sqrt.f",
            UnOp::IntToFloat => "cvt.if",
            UnOp::FloatToInt => "cvt.fi",
        }
    }

    fn binop(op: BinOp) -> String {
        match op {
            BinOp::AddI => "add.i".into(),
            BinOp::SubI => "sub.i".into(),
            BinOp::MulI => "mul.i".into(),
            BinOp::DivI => "div.i".into(),
            BinOp::RemI => "rem.i".into(),
            BinOp::And => "and".into(),
            BinOp::Or => "or".into(),
            BinOp::Xor => "xor".into(),
            BinOp::Shl => "shl".into(),
            BinOp::Shr => "shr".into(),
            BinOp::MinI => "min.i".into(),
            BinOp::MaxI => "max.i".into(),
            BinOp::AddF => "add.f".into(),
            BinOp::SubF => "sub.f".into(),
            BinOp::MulF => "mul.f".into(),
            BinOp::DivF => "div.f".into(),
            BinOp::MinF => "min.f".into(),
            BinOp::MaxF => "max.f".into(),
            BinOp::CmpI(c) => format!("cmp.i.{}", cmp(c)),
            BinOp::CmpF(c) => format!("cmp.f.{}", cmp(c)),
        }
    }

    fn v(r: VReg) -> String {
        format!("v{}", r.index())
    }

    fn addr(a: &Addr) -> String {
        match *a {
            Addr::Reg { base, offset } => format!("[v{}{offset:+}]", base.index()),
            Addr::Frame { slot, offset } => format!("[s{}{offset:+}]", slot.index()),
            Addr::Global { global, offset } => format!("[g{}{offset:+}]", global.index()),
        }
    }

    fn inst(i: &Inst) -> String {
        match i {
            Inst::Copy { dst, src } => format!("{} = copy {}", v(*dst), v(*src)),
            Inst::LoadImm { dst, imm } => match imm {
                Imm::Int(x) => format!("{} = imm {x}", v(*dst)),
                Imm::Float(x) => format!("{} = imm {x:?}", v(*dst)),
            },
            Inst::Un { op, dst, src } => format!("{} = {} {}", v(*dst), unop(*op), v(*src)),
            Inst::Bin { op, dst, lhs, rhs } => {
                format!("{} = {} {}, {}", v(*dst), binop(*op), v(*lhs), v(*rhs))
            }
            Inst::Load { dst, addr: a } => format!("{} = load {}", v(*dst), addr(a)),
            Inst::Store { src, addr: a } => format!("store {}, {}", v(*src), addr(a)),
            Inst::FrameAddr { dst, slot } => format!("{} = frameaddr s{}", v(*dst), slot.index()),
            Inst::GlobalAddr { dst, global } => {
                format!("{} = globaladdr g{}", v(*dst), global.index())
            }
            Inst::Call { dst, callee, args } => {
                let args: Vec<String> = args.iter().map(|a| v(*a)).collect();
                let call = format!("call {callee}({})", args.join(", "));
                match dst {
                    Some(d) => format!("{} = {call}", v(*d)),
                    None => call,
                }
            }
            Inst::Jump { target } => format!("jump b{}", target.index()),
            Inst::Branch {
                cond,
                if_true,
                if_false,
            } => format!(
                "branch {}, b{}, b{}",
                v(*cond),
                if_true.index(),
                if_false.index()
            ),
            Inst::Ret { value: Some(x) } => format!("ret {}", v(*x)),
            Inst::Ret { value: None } => "ret".into(),
        }
    }

    /// `name` double-quoted, with `\` and `"` escaped.
    fn quoted(name: &str) -> String {
        let mut out = String::from("\"");
        for c in name.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// `Function`'s lossless text, as its `Display` wrote it.
    pub fn display(f: &Function) -> String {
        let params: Vec<String> = f
            .params()
            .iter()
            .map(|&p| format!("{}:{}", v(p), class(f.class_of(p))))
            .collect();
        let mut out = format!("func {}({})", f.name(), params.join(", "));
        if let Some(rc) = f.ret_class() {
            out += &format!(" -> {}", class(rc));
        }
        out += " {\n";
        for s in 0..f.num_slots() {
            let data = f.slot(FrameSlot::new(s as u32));
            out += &format!("    slot s{s} = {} bytes", data.size);
            if data.name != format!("s{s}") {
                out += &format!(" {}", quoted(&data.name));
            }
            if data.is_spill {
                out += " (spill)";
            }
            out += "\n";
        }
        let mut referenced = vec![false; f.num_vregs()];
        for &p in f.params() {
            referenced[p.index()] = true;
        }
        for (_, _, i) in f.insts() {
            if let Some(d) = i.def() {
                referenced[d.index()] = true;
            }
            for u in i.uses() {
                referenced[u.index()] = true;
            }
        }
        for (i, &is_referenced) in referenced.iter().enumerate() {
            let data = f.vreg(VReg::new(i as u32));
            let default = format!("v{i}");
            if data.name == default
                && data.spillable
                && data.class == RegClass::Int
                && is_referenced
            {
                continue;
            }
            out += &format!("    reg v{i}:{}", class(data.class));
            if data.name != default {
                out += &format!(" {}", quoted(&data.name));
            }
            if !data.spillable {
                out += " nospill";
            }
            out += "\n";
        }
        for (bid, block) in f.blocks() {
            out += &format!("b{}:\n", bid.index());
            for i in &block.insts {
                out += &format!("    {}\n", inst(i));
            }
        }
        out + "}"
    }

    /// The canonical text as it was built: a clone with every register
    /// renamed `v<N>` and every slot `s<N>`, printed.
    pub fn canonical_text(func: &Function) -> String {
        let mut f = func.clone();
        let table: Vec<VRegData> = (0..f.num_vregs())
            .map(|i| VRegData {
                class: f.class_of(VReg::new(i as u32)),
                name: format!("v{i}"),
                spillable: f.vreg(VReg::new(i as u32)).spillable,
            })
            .collect();
        f.set_vreg_table(table);
        for i in 0..f.num_slots() {
            f.rename_slot(FrameSlot::new(i as u32), format!("s{i}"));
        }
        display(&f)
    }

    // ---- select with a fresh k-entry scratch per node ------------------

    use optimist::regalloc::Coloring;

    /// `select` as it stood: every stack node allocates and zeroes a
    /// `k`-entry table of its neighbours' colors.
    pub fn select(graph: &InterferenceGraph, stack: &[u32], target: &Target) -> Coloring {
        let n = graph.num_nodes();
        let mut color: Vec<Option<u16>> = vec![None; n];
        let mut inserted = vec![false; n];

        for &v in stack.iter().rev() {
            let k = target.regs(graph.class(v));
            // Collect neighbor colors among already-inserted nodes.
            let mut used = vec![false; k];
            for &m in graph.neighbors(v) {
                if inserted[m as usize] {
                    if let Some(c) = color[m as usize] {
                        if (c as usize) < k {
                            used[c as usize] = true;
                        }
                    }
                }
            }
            color[v as usize] = used.iter().position(|&u| !u).map(|c| c as u16);
            inserted[v as usize] = true;
        }

        Coloring { color }
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
