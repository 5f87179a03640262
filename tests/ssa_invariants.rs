//! Invariants of the SSA allocation track, checked end to end:
//!
//! * **Chordality** — the interference graph of every constructed SSA
//!   function admits a perfect elimination order, found both by maximum
//!   cardinality search and by reversing the dominance order the allocator
//!   actually colors along; greedy coloring along it never needs more than
//!   maxlive colors per class (so with maxlive ≤ k, coloring is one pass).
//! * **Pressure without a graph** — the pressure-only walk the spill
//!   rounds use reports the same maxlive and worst live sets as the
//!   graph-building walk.
//! * **Round-trip** — construct → destruct with no allocation in between
//!   is behavior-preserving under the cycle simulator, on generated
//!   routines and on the whole workload corpus.
//! * **End to end** — `Strategy::Ssa` allocates generated routines and the
//!   corpus with zero simulator mismatches, always in exactly one pass.
//!
//! Run with `--release` for the full case count; debug builds use a
//! smaller budget so `cargo test` stays quick.

use optimist::machine::Target;
use optimist::prelude::*;
use optimist::regalloc::ssa::{
    analyze, chordal_color, construct, destruct, dominance_order, is_perfect_elimination_order,
    mcs_order, pressure, SsaLiveness,
};
use optimist::regalloc::{AllocatorConfig, Strategy};
use optimist::sim::AllocatedModule;
use optimist::workloads::{self, generate_routine, DriverArg, GenConfig};
use optimist::{allocate_module, ir::RegClass};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 48 } else { 256 };

fn scalar_args(args: &[DriverArg]) -> Vec<Scalar> {
    args.iter()
        .map(|a| match a {
            DriverArg::Int(v) => Scalar::Int(*v),
            DriverArg::Float(v) => Scalar::Float(*v),
        })
        .collect()
}

fn same_ret(a: Option<Scalar>, b: Option<Scalar>, what: &str) {
    match (a, b) {
        (Some(Scalar::Float(x)), Some(Scalar::Float(y))) => {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: float result diverged");
        }
        (x, y) => assert_eq!(x, y, "{what}: result diverged"),
    }
}

/// Chordality of one function's SSA interference graph, certified two
/// independent ways, plus the coloring bound; and the pressure-only walk
/// agrees with the graph-building one.
fn check_chordal(f: &optimist::ir::Function) {
    let ssa = construct(f);
    let live = SsaLiveness::new(&ssa);
    let analysis = analyze(&ssa, &live);
    assert_eq!(pressure(&ssa, &live), analysis.pressure, "{}", f.name());

    // MCS visit order reversed is a PEO iff the graph is chordal.
    let mut mcs_elim = mcs_order(&analysis.graph);
    mcs_elim.reverse();
    assert!(
        is_perfect_elimination_order(&analysis.graph, &mcs_elim),
        "{}: MCS found no perfect elimination order — graph not chordal",
        f.name()
    );

    // The order the allocator colors along is a reversed PEO too: a
    // value's already-colored neighbors are exactly the values live at
    // its definition, a clique.
    let order = dominance_order(&ssa);
    let dom_elim: Vec<u32> = order.iter().rev().copied().collect();
    assert!(
        is_perfect_elimination_order(&analysis.graph, &dom_elim),
        "{}: reversed dominance order is not a perfect elimination order",
        f.name()
    );

    // Greedy along the PEO needs exactly clique-many = maxlive colors.
    let k_int = analysis.pressure.maxlive[RegClass::Int.index()].max(1);
    let k_float = analysis.pressure.maxlive[RegClass::Float.index()].max(1);
    let coloring = chordal_color(
        &analysis.graph,
        &order,
        &Target::custom("peo", k_int, k_float),
    );
    assert!(
        coloring.is_complete(),
        "{}: chordal coloring exceeded maxlive ({k_int} int / {k_float} float) colors",
        f.name()
    );
    assert!(
        coloring.is_valid(&analysis.graph),
        "{}: invalid coloring",
        f.name()
    );
}

/// Construct → destruct (no allocation) on every function of `module`,
/// then compare a simulated run against the original.
fn check_round_trip(module: &optimist::ir::Module, entry: &str, args: &[Scalar], what: &str) {
    let mut round = module.clone();
    for f in module.functions() {
        let ssa = construct(f);
        let (back, _coalesced) = destruct(ssa, None);
        round.replace_function(back);
    }
    optimist::ir::verify_module(&round)
        .unwrap_or_else(|e| panic!("{what}: round-trip IR invalid: {e}"));

    let opts = ExecOptions::default();
    let reference = run_virtual(module, entry, args, &opts)
        .unwrap_or_else(|e| panic!("{what}: reference trap {e}"));
    let run = run_virtual(&round, entry, args, &opts)
        .unwrap_or_else(|e| panic!("{what}: round-trip trap {e}"));
    same_ret(reference.ret, run.ret, what);
}

/// Allocate `module` with `Strategy::Ssa` for `target`; the simulated
/// allocated run must match the virtual one, in exactly one pass.
fn check_ssa_allocation(
    module: &optimist::ir::Module,
    entry: &str,
    args: &[Scalar],
    target: &Target,
    what: &str,
) {
    let cfg = AllocatorConfig::new(target.clone(), Strategy::Ssa);
    let allocs = allocate_module(module, &cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
    for (name, alloc) in &allocs {
        assert_eq!(
            alloc.stats.passes, 1,
            "{what}: SSA track took {} passes on `{name}` (must be single-pass)",
            alloc.stats.passes
        );
    }
    let am = AllocatedModule::new(module, &allocs, target);
    let opts = ExecOptions::default();
    let reference = run_virtual(module, entry, args, &opts)
        .unwrap_or_else(|e| panic!("{what}: virtual trap {e}"));
    let run = run_allocated(&am, entry, args, &opts)
        .unwrap_or_else(|e| panic!("{what}: allocated trap {e}"));
    same_ret(reference.ret, run.ret, what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Every generated routine's SSA interference graph is chordal and
    /// colors greedily within maxlive.
    #[test]
    fn generated_ssa_graphs_are_chordal(seed in 0u64..1_000_000) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for f in module.functions() {
            check_chordal(f);
        }
    }

    /// SSA round-trip preserves behavior on generated routines.
    #[test]
    fn generated_round_trip_preserves_behavior(seed in 0u64..1_000_000) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let args = [Scalar::Int(5), Scalar::Int(3)];
        check_round_trip(&module, "GEN", &args, &format!("seed {seed}"));
    }

    /// `Strategy::Ssa` end to end on generated routines, including
    /// register files tight enough to force the spill phase.
    #[test]
    fn generated_ssa_allocation_matches_virtual(seed in 0u64..1_000_000) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let args = [Scalar::Int(5), Scalar::Int(3)];
        for target in [Target::rt_pc(), Target::with_int_regs(6), Target::custom("tiny", 4, 3)] {
            let what = format!("seed {seed} target {}", target.name());
            check_ssa_allocation(&module, "GEN", &args, &target, &what);
        }
    }
}

/// The whole workload corpus: chordality, round-trip and `Strategy::Ssa`
/// allocation (on the RT/PC and under pressure) must all hold.
#[test]
fn corpus_round_trip_and_ssa_allocation() {
    for p in workloads::programs() {
        let module =
            optimist::compile_optimized(&p.source).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let args = scalar_args(&p.smoke_args);
        for f in module.functions() {
            check_chordal(f);
        }
        check_round_trip(&module, p.driver, &args, p.name);
        // The tight file sizes sit just above the corpus's hard floor: one
        // call in EULER reads 11 distinct integer operands at once, so no
        // spill-everywhere allocator can get below 11 int registers there
        // (Briggs fails the same functions under the same targets).
        for target in [Target::rt_pc(), Target::custom("tiny", 11, 5)] {
            let what = format!("{} target {}", p.name, target.name());
            check_ssa_allocation(&module, p.driver, &args, &target, &what);
        }
    }
}
