//! Criterion benchmarks of the allocator's individual phases on the
//! corpus's Figure-7 routines — the machine-time analog of the paper's
//! CPU-seconds table. The shape to expect: build dominates, simplify and
//! select are cheap and linear-ish in the size of the graph. The `renumber`
//! group times Chaitin's renumber on each routine as compiled, the first
//! step of every first pass's build.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optimist_analysis::{renumber, Cfg, Dominators, Liveness, LoopInfo};
use optimist_machine::Target;
use optimist_regalloc::{build_graph, select, simplify, spill_costs, Heuristic};

fn compiled(program: &str, name: &str) -> optimist_ir::Function {
    let p = optimist_workloads::program(program).expect("program exists");
    let m = optimist::compile_optimized(&p.source).expect("compiles");
    m.function(name).expect("routine exists").clone()
}

fn routine(program: &str, name: &str) -> optimist_ir::Function {
    let mut f = compiled(program, name);
    renumber(&mut f);
    f
}

fn bench_phases(c: &mut Criterion) {
    let subjects = [
        ("CEDETA", "DQRDC"),
        ("SVD", "SVD"),
        ("CEDETA", "GRADNT"),
        ("CEDETA", "HSSIAN"),
    ];
    let target = Target::rt_pc();

    // Each iteration renumbers a fresh clone, so the clone is timed too.
    let mut g_renumber = c.benchmark_group("renumber");
    for (prog, name) in subjects {
        let f = compiled(prog, name);
        g_renumber.bench_with_input(BenchmarkId::from_parameter(name), &f, |b, f| {
            b.iter(|| renumber(&mut f.clone()));
        });
    }
    g_renumber.finish();

    let mut g_build = c.benchmark_group("build");
    for (prog, name) in subjects {
        let f = routine(prog, name);
        g_build.bench_with_input(BenchmarkId::from_parameter(name), &f, |b, f| {
            b.iter(|| {
                let cfg = Cfg::new(f);
                let live = Liveness::new(f, &cfg);
                build_graph(f, &cfg, &live)
            });
        });
    }
    g_build.finish();

    let mut g_simplify = c.benchmark_group("simplify");
    for (prog, name) in subjects {
        let f = routine(prog, name);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let dom = Dominators::new(&f, &cfg);
        let loops = LoopInfo::new(&f, &cfg, &dom);
        let graph = build_graph(&f, &cfg, &live);
        let costs = spill_costs(&f, &loops);
        for (label, h) in [
            ("chaitin", Heuristic::ChaitinPessimistic),
            ("briggs", Heuristic::BriggsOptimistic),
        ] {
            g_simplify.bench_function(BenchmarkId::new(label, name), |b| {
                b.iter(|| simplify(&graph, &costs, &target, h));
            });
        }
    }
    g_simplify.finish();

    let mut g_select = c.benchmark_group("select");
    for (prog, name) in subjects {
        let f = routine(prog, name);
        let cfg = Cfg::new(&f);
        let live = Liveness::new(&f, &cfg);
        let dom = Dominators::new(&f, &cfg);
        let loops = LoopInfo::new(&f, &cfg, &dom);
        let graph = build_graph(&f, &cfg, &live);
        let costs = spill_costs(&f, &loops);
        let out = simplify(&graph, &costs, &target, Heuristic::BriggsOptimistic);
        g_select.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| select(&graph, &out.stack, &target));
        });
    }
    g_select.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_phases
}
criterion_main!(benches);
