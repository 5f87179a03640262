//! Property-based tests for module allocation on a worker pool and the
//! block structure the allocator's passes share.
//!
//! Two invariants:
//!
//! 1. **Scheduling independence** — a [`WorkerPool`] of any size produces
//!    exactly the results of allocating each function in turn, in module
//!    order. Allocation is a pure function of its input, so the pool may
//!    only change *when* each function is allocated, never *what* comes
//!    out.
//! 2. **Block-structure stability** — renumbering, coalescing and
//!    spill-code insertion leave the CFG exactly as it was, which is what
//!    lets [`allocate`] build the CFG, dominators and loop nesting once per
//!    allocation instead of once per pass.

use optimist::analysis::{renumber, Cfg};
use optimist::ir::{Module, VReg};
use optimist::machine::Target;
use optimist::regalloc::{
    allocate, coalesce, insert_spill_code, Allocation, AllocatorConfig, CoalesceOpts, SpillOpts,
    Strategy, WorkerPool,
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
        regs in 4usize..12,
    ) {
        let module = module_from_seeds(&seeds);
        let config = AllocatorConfig::new(Target::with_int_regs(regs), STRATEGIES[strategy]);
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
    fn renumber_coalesce_and_spill_code_keep_the_cfg(
        seed in 0u64..800,
        picks in proptest::collection::vec(any::<u32>(), 1..5),
        rematerialize in any::<bool>(),
    ) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::frontend::compile(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let mut f = module.functions()[0].clone();
        let before = format!("{:?}", Cfg::new(&f));

        renumber(&mut f);
        coalesce(&mut f, &CoalesceOpts::default());
        renumber(&mut f);
        // Spill a random non-empty set of live ranges, then renumber as the
        // next pass does.
        let nv = f.num_vregs() as u32;
        let mut spilled: Vec<VReg> = picks.iter().map(|p| VReg::new(p % nv)).collect();
        spilled.sort_unstable();
        spilled.dedup();
        insert_spill_code(&mut f, &spilled, &SpillOpts { rematerialize });
        renumber(&mut f);

        prop_assert_eq!(
            format!("{:?}", Cfg::new(&f)),
            before,
            "seed {seed} spilling {spilled:?}: the CFG changed\n{src}"
        );
    }
}
