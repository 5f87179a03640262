//! Property-based tests for module allocation on a worker pool and the
//! incremental interference-graph rebuild.
//!
//! Two invariants:
//!
//! 1. **Scheduling independence** — a [`WorkerPool`] of any size produces
//!    exactly the results of allocating each function in turn, in module
//!    order. Allocation is a pure function of its input, so the pool may
//!    only change *when* each function is allocated, never *what* comes
//!    out.
//! 2. **Incremental rebuild fidelity** — after spill-code insertion,
//!    [`update_graph_after_spill`] repairs the pre-spill graph into exactly
//!    the graph a full [`build_graph`] would construct from scratch.

use optimist::analysis::{renumber, Cfg, Liveness};
use optimist::ir::{Module, VReg};
use optimist::machine::Target;
use optimist::regalloc::{
    allocate, build_graph, insert_spill_code, update_graph_after_spill, Allocation,
    AllocatorConfig, SpillOpts, Strategy, WorkerPool,
};
use optimist::workloads::{generate_routine, GenConfig};
use proptest::prelude::*;
use std::num::NonZeroUsize;

/// Build a module of generated routines, one per seed, uniquely named.
fn module_from_seeds(seeds: &[u64]) -> Module {
    let mut module = Module::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let sub =
            optimist::frontend::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        for f in sub.functions() {
            let mut f = f.clone();
            f.set_name(format!("GEN{i}"));
            module.add_function(f);
        }
    }
    module
}

/// The scheduling-independent facts of one allocation.
fn fingerprint(a: &Allocation) -> (usize, usize, Vec<(optimist::ir::RegClass, u16)>, usize) {
    (
        a.stats.registers_spilled,
        a.stats.passes,
        a.assignment.iter().map(|r| (r.class, r.index)).collect(),
        a.func.num_insts(),
    )
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::Chaitin,
    Strategy::Briggs,
    Strategy::Irc,
    Strategy::Ssa,
];

/// Debug test runs keep the budget small; release runs (the CI gate) use
/// the full count.
const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 96 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn parallel_pipeline_matches_sequential(
        seeds in proptest::collection::vec(0u64..500, 1..6),
        threads in 1usize..9,
        strategy in 0usize..4,
        incremental in any::<bool>(),
        regs in 4usize..12,
    ) {
        let module = module_from_seeds(&seeds);
        let config = AllocatorConfig::new(Target::with_int_regs(regs), STRATEGIES[strategy])
            .with_incremental(incremental);
        let seq: Vec<_> = module.functions().iter().map(|f| allocate(f, &config)).collect();
        let par = WorkerPool::new(NonZeroUsize::new(threads).unwrap())
            .allocate_module(&config, &module);

        prop_assert_eq!(seq.len(), par.results.len());
        for ((f, r1), (n2, r2)) in module.functions().iter().zip(&seq).zip(&par.results) {
            prop_assert_eq!(f.name(), n2, "output must keep module function order");
            match (r1, r2) {
                (Ok(a1), Ok(a2)) => prop_assert_eq!(fingerprint(a1), fingerprint(a2)),
                (Err(e1), Err(e2)) => prop_assert_eq!(e1.to_string(), e2.to_string()),
                other => prop_assert!(false, "ok/err disagreement: {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_rebuild_equals_full_rebuild(
        seed in 0u64..800,
        picks in proptest::collection::vec(any::<u32>(), 1..5),
        rematerialize in any::<bool>(),
    ) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::frontend::compile(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let mut f = module.functions()[0].clone();
        renumber(&mut f);

        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let mut graph = build_graph(&f, &cfg, &live);

        // Pick a random non-empty set of live ranges to spill.
        let nv = f.num_vregs() as u32;
        let mut spilled: Vec<u32> = picks.iter().map(|p| p % nv).collect();
        spilled.sort_unstable();
        spilled.dedup();
        let spill_vregs: Vec<VReg> = spilled.iter().map(|&v| VReg::new(v)).collect();

        let outcome = insert_spill_code(&mut f, &spill_vregs, &SpillOpts { rematerialize });

        // Spill insertion never adds or removes blocks, so the CFG is
        // reusable; only liveness must be recomputed.
        let live = Liveness::new(&f, &cfg);
        update_graph_after_spill(
            &f,
            &cfg,
            &live,
            &mut graph,
            &spilled,
            outcome.new_vregs,
            &outcome.touched_blocks,
        );

        let full = build_graph(&f, &cfg, &live);
        prop_assert!(
            graph.same_edges(&full),
            "seed {seed} spilling {spilled:?}: repaired graph diverged from rebuild\n{src}"
        );
    }
}
