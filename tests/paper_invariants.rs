//! The paper's §2.3 claim, checked **end to end at the IR level**: for the
//! interference graphs of real (generated) routines — not just random
//! graphs — the registers the optimistic allocator gives up on are always
//! a subset of the registers Chaitin's pessimistic heuristic marks for
//! spilling, per coloring attempt on the same graph with the same costs.
//!
//! Plus the degenerate anchor: an IR routine whose interference graph is
//! the Figure-3 diamond (C₄), which is 2-colorable but makes Chaitin
//! spill — the whole motivation for optimism.
//!
//! Run with `--release` for the full case count; debug builds use a
//! smaller budget so `cargo test` stays quick.

use optimist::analysis::{Cfg, Dominators, Liveness, LoopInfo};
use optimist::machine::Target;
use optimist::regalloc::irc::{collect_moves, irc};
use optimist::regalloc::{
    allocate, build_graph, select, simplify, simplify_with_metric, spill_costs, AllocatorConfig,
    ConservativeTest, Heuristic, IrcEvent, SpillMetric,
};
use optimist::workloads::{generate_routine, GenConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Debug test runs keep the budget small; release runs (the CI gate and
/// the acceptance bar) use the full count.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 320 };

/// Simplify a function's real interference graph with both heuristics and
/// check Briggs' spill set ⊆ Chaitin's spill set for register file size `k`.
fn check_subset_on_function(f: &optimist::ir::Function, k: usize) {
    let cfg = Cfg::new(f);
    let live = Liveness::new(f, &cfg);
    let dom = Dominators::new(f, &cfg);
    let loops = LoopInfo::new(f, &cfg, &dom);
    let graph = build_graph(f, &cfg, &live);
    let costs = spill_costs(f, &loops);
    let target = Target::custom("t", k, k);

    let chaitin = simplify(&graph, &costs, &target, Heuristic::ChaitinPessimistic);
    let briggs = simplify(&graph, &costs, &target, Heuristic::BriggsOptimistic);
    let coloring = select(&graph, &briggs.stack, &target);
    prop_assert!(coloring.is_valid(&graph), "{}: invalid coloring", f.name());

    let chaitin_spills: BTreeSet<u32> = chaitin.spill_marked.iter().copied().collect();
    let briggs_spills: BTreeSet<u32> = coloring.uncolored().into_iter().collect();
    for v in &briggs_spills {
        prop_assert!(
            chaitin_spills.contains(v),
            "{} (k={k}): optimism spilled v{v} which Chaitin kept \
             (briggs = {briggs_spills:?}, chaitin = {chaitin_spills:?})",
            f.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// §2.3 over the routine generator: every function of every generated
    /// module, at a register pressure low enough that spills actually
    /// happen, satisfies the subset invariant on its *real* interference
    /// graph (real liveness, real loop-weighted spill costs).
    #[test]
    fn generated_routines_satisfy_spill_subset(seed in 0u64..1_000_000, k in 2usize..9) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for f in module.functions() {
            check_subset_on_function(f, k);
        }
    }

    /// The same invariant through the full allocator driver: after all
    /// passes, Briggs never spills more *registers* than Chaitin on the
    /// same function with the same configuration, and never at higher
    /// total cost on the first pass' accounting.
    #[test]
    fn full_allocator_briggs_never_spills_more(seed in 0u64..1_000_000, k in 3usize..9) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let target = Target::custom("t", k, k);
        for f in module.functions() {
            let briggs = allocate(f, &AllocatorConfig::new(target.clone(), optimist::regalloc::Strategy::Briggs));
            let chaitin = allocate(f, &AllocatorConfig::new(target.clone(), optimist::regalloc::Strategy::Chaitin));
            let (Ok(briggs), Ok(chaitin)) = (briggs, chaitin) else {
                // Non-convergence under a tiny register file is legal for
                // either heuristic; the invariant is about spill choices,
                // not the pass budget.
                continue;
            };
            // First-pass spill decisions are on the same graph, so the
            // paper's per-attempt subset claim applies directly.
            let b1 = &briggs.passes[0];
            let c1 = &chaitin.passes[0];
            prop_assert!(
                b1.spilled <= c1.spilled,
                "{} (k={k}): pass-1 briggs spilled {} ranges, chaitin {}",
                f.name(), b1.spilled, c1.spilled
            );
        }
    }

    /// The conservative-coalescing guarantee, stated the way it is
    /// actually provable: when the *uncoalesced* graph is k-simplifiable
    /// (the classic optimistic phase never has to pick a potential
    /// spill), IRC's interleaved merging keeps it that way — no potential
    /// spills, and select colors every surviving web. The stronger
    /// folklore claim ("IRC never spills more than the uncoalesced
    /// allocator", unconditionally) is *false* under pressure: on graphs
    /// that need spills regardless, even a conservative merge can shift
    /// which blocked ranges optimistic select rescues (seed hunting finds
    /// ±1-register cases), which is why the corpus-level bar in
    /// `tests/codegen_golden.rs` pins IRC's spill totals to
    /// conservative-Briggs' instead of relying on a per-function theorem.
    #[test]
    fn irc_preserves_simplifiability(seed in 0u64..1_000_000, k in 2usize..9) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let target = Target::custom("t", k, k);
        for f in module.functions() {
            let mut f = f.clone();
            optimist::analysis::renumber(&mut f);
            let cfg = Cfg::new(&f);
            let live = Liveness::new(&f, &cfg);
            let dom = Dominators::new(&f, &cfg);
            let loops = LoopInfo::new(&f, &cfg, &dom);
            let graph = build_graph(&f, &cfg, &live);
            let costs = spill_costs(&f, &loops);
            let base = simplify_with_metric(
                &graph,
                &costs,
                &target,
                Heuristic::BriggsOptimistic,
                SpillMetric::CostOverDegree,
            );
            if !base.blocked.is_empty() {
                continue; // over pressure: no guarantee to check
            }
            let moves = collect_moves(&f, &graph);
            let out = irc(graph, &moves, &costs, &target, SpillMetric::CostOverDegree);
            prop_assert!(
                out.blocked.is_empty(),
                "{} (k={k}): the uncoalesced graph simplifies completely but \
                 IRC potential-spilled {:?}",
                f.name(),
                out.blocked
            );
            let coloring = select(&out.graph, &out.stack, &target);
            prop_assert!(
                coloring.uncolored().is_empty(),
                "{} (k={k}): simplifiable graph left {:?} uncolored after merging",
                f.name(),
                coloring.uncolored()
            );
        }
    }

    /// Every merge the IRC engine performs is re-proven from the event
    /// log on an independently maintained copy of the graph: at the
    /// moment of each `Coalesce` event, the recorded conservative test
    /// (Briggs' count or George's scoped subset rule) must actually hold.
    #[test]
    fn irc_coalesces_are_conservatively_justified(seed in 0u64..1_000_000, k in 2usize..9) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let target = Target::custom("t", k, k);
        for f in module.functions() {
            let mut f = f.clone();
            optimist::analysis::renumber(&mut f);
            let cfg = Cfg::new(&f);
            let live = Liveness::new(&f, &cfg);
            let dom = Dominators::new(&f, &cfg);
            let loops = LoopInfo::new(&f, &cfg, &dom);
            let graph = build_graph(&f, &cfg, &live);
            let costs = spill_costs(&f, &loops);
            let moves = collect_moves(&f, &graph);
            let out = irc(
                graph.clone(),
                &moves,
                &costs,
                &target,
                optimist::regalloc::SpillMetric::CostOverDegree,
            );
            if let Err(e) = replay_and_verify(&graph, &costs, &target, &out.events) {
                prop_assert!(false, "{} (k={k}): {e}", f.name());
            }
        }
    }
}

/// Re-run the IRC event log against a from-scratch mirror of the engine's
/// graph state (adjacency, live degrees, web costs) and check each
/// `Coalesce` entry's recorded test. The mirror is deliberately written
/// independently of `irc.rs`'s worklist machinery: it knows nothing about
/// worklists or move lists, only the structural effect of each event.
fn replay_and_verify(
    graph: &optimist::regalloc::InterferenceGraph,
    costs: &[f64],
    target: &Target,
    events: &[IrcEvent],
) -> Result<(), String> {
    let n = graph.num_nodes();
    let mut adj: Vec<BTreeSet<u32>> = (0..n as u32)
        .map(|v| graph.neighbors(v).iter().copied().collect())
        .collect();
    let mut degree: Vec<usize> = adj.iter().map(BTreeSet::len).collect();
    let mut gone = vec![false; n]; // stacked or merged away
    let mut cost = costs.to_vec();
    let k_of = |v: u32| target.regs(graph.class(v));
    let live = |adj: &[BTreeSet<u32>], gone: &[bool], v: u32| -> Vec<u32> {
        adj[v as usize]
            .iter()
            .copied()
            .filter(|&t| !gone[t as usize])
            .collect()
    };
    for (i, ev) in events.iter().enumerate() {
        match *ev {
            // A potential-spill pick is not structural: the node is only
            // removed when its own Simplify event follows.
            IrcEvent::PotentialSpill(_) | IrcEvent::Freeze(_) => {}
            IrcEvent::Simplify(v) => {
                if gone[v as usize] {
                    return Err(format!("event {i}: v{v} simplified twice"));
                }
                gone[v as usize] = true;
                for t in live(&adj, &gone, v) {
                    degree[t as usize] = degree[t as usize].saturating_sub(1);
                }
            }
            IrcEvent::Coalesce { u, v, test } => {
                if gone[u as usize] || gone[v as usize] {
                    return Err(format!("event {i}: merge of dead node u{u}/v{v}"));
                }
                if adj[u as usize].contains(&v) {
                    return Err(format!("event {i}: merged interfering v{v} into u{u}"));
                }
                let ok = match test {
                    ConservativeTest::Briggs => {
                        let mut combined: BTreeSet<u32> =
                            live(&adj, &gone, u).into_iter().collect();
                        combined.extend(live(&adj, &gone, v));
                        let significant = combined
                            .iter()
                            .filter(|&&t| degree[t as usize] >= k_of(t))
                            .count();
                        significant < k_of(u)
                    }
                    ConservativeTest::George => {
                        cost[u as usize].is_infinite()
                            && cost[v as usize].is_infinite()
                            && live(&adj, &gone, v).into_iter().all(|t| {
                                degree[t as usize] < k_of(t) || adj[t as usize].contains(&u)
                            })
                    }
                };
                if !ok {
                    return Err(format!(
                        "event {i}: {test:?} does not justify merging v{v} into u{u}"
                    ));
                }
                // Structural effect, mirroring Combine: v's live edges move
                // to u (new ones bump both degrees), then each neighbor
                // loses v; the web inherits the summed cost.
                for t in live(&adj, &gone, v) {
                    if adj[t as usize].insert(u) {
                        adj[u as usize].insert(t);
                        degree[t as usize] += 1;
                        degree[u as usize] += 1;
                    }
                    degree[t as usize] = degree[t as usize].saturating_sub(1);
                }
                gone[v as usize] = true;
                cost[u as usize] += cost[v as usize];
            }
        }
    }
    Ok(())
}

/// A cheap, high-volume pass over random graphs (256 fixed seeds) using
/// the same subset check as `tests/invariants.rs`, so the invariant is
/// exercised even when the generator proptests shrink their budget in
/// debug builds.
#[test]
fn random_graph_subset_over_256_seeds() {
    use optimist::ir::RegClass;
    use optimist::regalloc::InterferenceGraph;

    for seed in 0u64..256 {
        // SplitMix64-ish scramble for cheap deterministic pseudo-randomness.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let n = 4 + (next() % 40) as usize;
        let mut g = InterferenceGraph::new(vec![RegClass::Int; n]);
        let edges = next() % (4 * n as u64);
        for _ in 0..edges {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            g.add_edge(a, b);
        }
        let costs: Vec<f64> = (0..n).map(|_| 0.5 + (next() % 1000) as f64).collect();
        let k = 2 + (next() % 6) as usize;
        let target = Target::custom("t", k, 4);

        let chaitin = simplify(&g, &costs, &target, Heuristic::ChaitinPessimistic);
        let briggs = simplify(&g, &costs, &target, Heuristic::BriggsOptimistic);
        let coloring = select(&g, &briggs.stack, &target);
        assert!(coloring.is_valid(&g), "seed {seed}");
        let chaitin_spills: BTreeSet<u32> = chaitin.spill_marked.iter().copied().collect();
        for v in coloring.uncolored() {
            assert!(
                chaitin_spills.contains(&v),
                "seed {seed}: briggs spilled v{v}, chaitin kept it"
            );
        }
    }
}

/// IR whose interference graph is the paper's Figure-3 diamond: four
/// values in a 4-cycle (v1–v2–v3–v4–v1). Each arm of the branch kills
/// `v1`/`v2` in opposite orders, so the new values interfere with exactly
/// one old value each — opposite corners never interfere. Both arms merge
/// into `b3`, where both definitions of `v3`/`v4` reach the same use, so
/// the renumbering phase keeps each as one web and the cycle survives the
/// full allocator pipeline.
const DIAMOND_IR: &str = "func diamond() -> int {
b0:
    v1 = imm 1
    v2 = imm 2
    branch v1, b1, b2
b1:
    v3 = add.i v1, v1
    v4 = add.i v2, v2
    jump b3
b2:
    v4 = add.i v2, v2
    v3 = add.i v1, v1
    jump b3
b3:
    v5 = add.i v3, v4
    ret v5
}
";

/// The degenerate case the paper opens with, reproduced from IR rather
/// than a hand-built graph: the diamond is 2-colorable, optimism finds
/// the coloring, pessimism inserts spill code.
#[test]
fn diamond_ir_briggs_colors_chaitin_spills() {
    let module = optimist::ir::parse_module(DIAMOND_IR).expect("diamond parses");
    optimist::ir::verify_module(&module).expect("diamond verifies");
    let f = module.function("diamond").unwrap();

    // The graph really is C₄ on {v1, v2, v3, v4}: every corner has degree
    // 2 and opposite corners don't touch.
    let cfg = Cfg::new(f);
    let live = Liveness::new(f, &cfg);
    let g = build_graph(f, &cfg, &live);
    assert!(g.interferes(1, 2) && g.interferes(2, 3) && g.interferes(3, 4) && g.interferes(4, 1));
    assert!(!g.interferes(1, 3) && !g.interferes(2, 4), "no chords");

    let target = Target::custom("t", 2, 2);
    let briggs = allocate(
        f,
        &AllocatorConfig::new(target.clone(), optimist::regalloc::Strategy::Briggs),
    )
    .expect("briggs converges");
    assert_eq!(
        briggs.stats.registers_spilled, 0,
        "optimism must 2-color the diamond"
    );
    let chaitin = allocate(
        f,
        &AllocatorConfig::new(target, optimist::regalloc::Strategy::Chaitin),
    )
    .expect("chaitin converges");
    assert!(
        chaitin.stats.registers_spilled >= 1,
        "pessimism must give up on the diamond"
    );
}
