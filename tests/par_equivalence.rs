//! Differential tests for speculative intra-function parallelism.
//!
//! The contract under test: **`graph_threads` never changes any output**.
//! Parallel interference-graph construction ([`build_graph_par`]) must
//! produce the *identical* graph — same edge count, same per-node adjacency
//! order — as the sequential [`build_graph`], and a full allocation with any
//! `graph_threads` setting must be byte-identical to the sequential run:
//! same assignment, same spills, same pass count, same rewritten function
//! text. Parallelism is pure mechanism; the paper's heuristics stay in
//! charge of every decision.
//!
//! Three layers of evidence, mirroring `pipeline_determinism.rs`:
//!
//! 1. Proptests over generated routines (graph equality, allocation
//!    identity across strategies) and over random graphs (select-level
//!    differential against the sequential `select`).
//! 2. A giant synthesized kernel — the workload intra-function parallelism
//!    exists for — checked for thread-count invariance end to end.
//! 3. Plumbing: worker panics stay contained with parallel build engaged,
//!    and the thread-budget guard observably clamps pool × intra-function
//!    oversubscription.

use optimist::analysis::{renumber, Cfg, Liveness};
use optimist::ir::{Function, Module, RegClass};
use optimist::machine::Target;
use optimist::regalloc::{
    allocate, build_graph, build_graph_par, select, select_with_threads, AllocError, Allocation,
    AllocatorConfig, InterferenceGraph, Pipeline, Strategy,
};
use optimist::workloads::{generate_routine, giant_kernel, GenConfig, GiantConfig};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// Compile one generated routine and renumber it for graph construction.
fn func_from_seed(seed: u64) -> Function {
    let src = generate_routine("GEN", seed, &GenConfig::default());
    let module =
        optimist::frontend::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    let mut f = module.functions()[0].clone();
    renumber(&mut f);
    f
}

/// Everything an allocation decides, including the rewritten body.
fn fingerprint(a: &Allocation) -> (usize, usize, Vec<(RegClass, u16)>, String) {
    (
        a.stats.registers_spilled,
        a.stats.passes,
        a.assignment.iter().map(|r| (r.class, r.index)).collect(),
        a.func.to_string(),
    )
}

/// Assert two graphs are identical down to adjacency-list order — the
/// strongest equality we can state, stricter than `same_edges`.
fn assert_graphs_identical(par: &InterferenceGraph, seq: &InterferenceGraph) {
    assert_eq!(par.num_nodes(), seq.num_nodes());
    assert_eq!(par.num_edges(), seq.num_edges());
    for v in 0..seq.num_nodes() as u32 {
        assert_eq!(par.class(v), seq.class(v), "class of node {v}");
        assert_eq!(par.neighbors(v), seq.neighbors(v), "adjacency of node {v}");
    }
}

const STRATEGIES: [Strategy; 3] = [Strategy::Chaitin, Strategy::Briggs, Strategy::Irc];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `build_graph_par` is an identity-preserving reimplementation of
    /// `build_graph` for every shard count, including counts far beyond
    /// the block count (which degrade to one block per shard).
    #[test]
    fn parallel_graph_build_matches_sequential(
        seed in 0u64..800,
        threads in 2usize..9,
    ) {
        let f = func_from_seed(seed);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let seq = build_graph(&f, &cfg, &live);
        for t in [threads, 64] {
            let par = build_graph_par(&f, &cfg, &live, t);
            assert_graphs_identical(&par, &seq);
        }
    }

    /// A full allocation is a pure function of (function, config minus
    /// threading knobs): any `graph_threads` produces the sequential
    /// result, bit for bit, under every classic strategy.
    #[test]
    fn allocation_is_graph_thread_invariant(
        seed in 0u64..500,
        strategy_idx in 0usize..3,
        regs in 4usize..12,
        threads in 2usize..9,
    ) {
        let f = func_from_seed(seed);
        let strategy = STRATEGIES[strategy_idx];
        let base = AllocatorConfig::new(Target::with_int_regs(regs), strategy)
            .with_thread_budget(nz(64));
        let seq = allocate(&f, &base.clone().with_graph_threads(nz(1))).unwrap();
        for t in [threads, 8] {
            let par = allocate(&f, &base.clone().with_graph_threads(nz(t))).unwrap();
            prop_assert_eq!(fingerprint(&par), fingerprint(&seq), "graph_threads={}", t);
        }
    }

    /// Select-level differential on adversarial random graphs: arbitrary
    /// edges, arbitrary stack order, tight register counts that force
    /// genuine `None` (spill) outcomes across chunk seams.
    #[test]
    fn parallel_select_matches_sequential_on_random_graphs(
        n in 2usize..48,
        edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..160),
        k in 1usize..5,
        shuffle in any::<u64>(),
        threads in 2usize..9,
    ) {
        let mut graph = InterferenceGraph::new(vec![RegClass::Int; n]);
        for (a, b) in edges {
            let (a, b) = (a % n as u32, b % n as u32);
            if a != b {
                graph.add_edge(a, b);
            }
        }
        // A seeded Fisher–Yates permutation of all nodes as the stack.
        let mut stack: Vec<u32> = (0..n as u32).collect();
        let mut state = shuffle | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            stack.swap(i, (state >> 33) as usize % (i + 1));
        }
        let target = Target::custom("par-eq", k, k);
        let seq = select(&graph, &stack, &target);
        let par = select_with_threads(&graph, &stack, &target, threads);
        prop_assert_eq!(par, seq);
    }
}

/// The workload this PR exists for: a giant kernel where one function
/// dominates a module. Thread-count invariance must hold end to end —
/// graph, allocation, and rewritten body — at every parallelism level.
#[test]
fn giant_kernel_is_thread_count_invariant() {
    // `small()` keeps debug-build runtime sane; it is still far larger
    // than anything in the paper corpus. The default config is exercised
    // in release builds by the giant drill in `crates/serve/tests/drills.rs`.
    let src = giant_kernel("GIANT", 7, &GiantConfig::small());
    let module = optimist::frontend::compile(&src).unwrap();
    let mut f = module.functions()[0].clone();
    renumber(&mut f);
    assert!(
        f.num_blocks() >= 80,
        "synthesizer lost its bulk: {} blocks",
        f.num_blocks()
    );

    let cfg = Cfg::new(&f);
    let live = Liveness::new(&f, &cfg);
    let seq_graph = build_graph(&f, &cfg, &live);
    for t in [2, 4, 8] {
        assert_graphs_identical(&build_graph_par(&f, &cfg, &live, t), &seq_graph);
    }

    let base = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs).with_thread_budget(nz(64));
    let seq = allocate(&f, &base.clone().with_graph_threads(nz(1))).unwrap();
    for t in [2, 4, 8] {
        let par = allocate(&f, &base.clone().with_graph_threads(nz(t))).unwrap();
        assert_eq!(fingerprint(&par), fingerprint(&seq), "graph_threads={t}");
    }
}

/// A panic inside a parallel graph-build shard must stay contained to its
/// function, exactly like a sequential worker panic: the scoped threads
/// propagate it at scope exit and the pipeline converts it to
/// [`AllocError::WorkerPanic`].
#[test]
fn shard_panic_is_contained_to_its_function() {
    let mut m = Module::new();
    let good = func_from_seed(11);
    let mut g0 = good.clone();
    g0.set_name("good0");
    m.add_function(g0);
    let mut bad = func_from_seed(12);
    bad.set_name("bad");
    bad.block_mut(bad.entry())
        .insts
        .push(optimist::ir::Inst::Ret {
            value: Some(optimist::ir::VReg::new(9999)),
        });
    m.add_function(bad);
    let mut g1 = good.clone();
    g1.set_name("good1");
    m.add_function(g1);

    let config = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs)
        .with_threads(nz(2))
        .with_graph_threads(nz(4))
        .with_thread_budget(nz(64));
    let out = Pipeline::new(config).allocate_module(&m);
    assert!(!out.is_ok());
    let results: Vec<_> = out.iter().collect();
    assert!(results[0].1.is_ok());
    assert!(matches!(
        results[1].1,
        Err(AllocError::WorkerPanic { ref function, .. }) if function == "bad"
    ));
    assert!(results[2].1.is_ok());
}

/// Regression test for the oversubscription guard: `--threads 8
/// --graph-threads 8` on an 8-thread budget must run 8 workers × 1 graph
/// thread, not 64 threads. Observable through the pipeline's metrics.
#[test]
fn thread_budget_clamps_are_visible_in_module_metrics() {
    let m = {
        let mut m = Module::new();
        m.add_function(func_from_seed(3));
        m
    };
    let base = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs)
        .with_threads(nz(8))
        .with_graph_threads(nz(8));

    let clamped = Pipeline::new(base.clone().with_thread_budget(nz(8)));
    assert_eq!(clamped.graph_parallelism(), 1);
    assert_eq!(clamped.allocate_module(&m).graph_threads_used, 1);

    let roomy = Pipeline::new(base.with_thread_budget(nz(64)));
    assert_eq!(roomy.graph_parallelism(), 8);
    assert_eq!(roomy.allocate_module(&m).graph_threads_used, 8);
}
