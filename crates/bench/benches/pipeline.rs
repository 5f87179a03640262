//! Module-level allocation throughput: a [`WorkerPool`] of 1/2/4/8
//! workers.
//!
//! The 1-worker row is the baseline every other row is compared against.
//! On a single-core machine the >1-worker rows measure scheduling overhead
//! only — read them on multi-core hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optimist_ir::Module;
use optimist_machine::Target;
use optimist_regalloc::{AllocatorConfig, Strategy, WorkerPool};
use std::num::NonZeroUsize;

/// One module holding every routine of the paper's corpus programs — the
/// realistic "compile a whole program" workload the pipeline exists for.
fn corpus_module() -> Module {
    let mut out = Module::new();
    for prog in ["LINPACK", "SVD", "SIMPLEX", "EULER", "CEDETA"] {
        let p = optimist_workloads::program(prog).expect("program exists");
        let m = optimist::compile_optimized(&p.source).expect("compiles");
        for f in m.functions() {
            // Program corpora reuse routine names (e.g. MAIN); qualify them.
            let mut f = f.clone();
            f.set_name(format!("{prog}.{}", f.name()));
            out.add_function(f);
        }
    }
    out
}

fn bench_pipeline(c: &mut Criterion) {
    let module = corpus_module();
    let mut group = c.benchmark_group("pipeline");
    let cfg = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(NonZeroUsize::new(threads).expect("non-zero"));
        group.bench_function(BenchmarkId::from_parameter(format!("{threads}t")), |b| {
            b.iter(|| {
                let out = pool.allocate_module(&cfg, &module);
                assert!(out.is_ok());
                out
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);
