//! Criterion benchmarks of the serving daemon's warm path: the work every
//! request pays on the function text before any cache tier can answer.
//! One sample is one corpus pass over the 7 corpus module texts, compiled
//! as `optimist remote` ships them (`compile_optimized`): parse each text
//! with `parse_module`, derive every function's `cache_key` (Briggs at
//! rt-pc), and print every function back with `Function::to_string`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use optimist::serve::cache_key;
use optimist_ir::{parse_module, Module};
use optimist_machine::Target;
use optimist_regalloc::{AllocatorConfig, Strategy};

fn corpus() -> Vec<(String, Module)> {
    optimist_workloads::programs()
        .iter()
        .map(|p| {
            let m = optimist::compile_optimized(&p.source).expect("corpus compiles");
            (m.to_string(), m)
        })
        .collect()
}

fn bench_warm(c: &mut Criterion) {
    let corpus = corpus();
    let config = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
    let mut group = c.benchmark_group("warm");
    group.bench_function("parse_module", |b| {
        b.iter(|| {
            for (text, _) in &corpus {
                black_box(parse_module(text).expect("corpus text parses"));
            }
        });
    });
    group.bench_function("cache_key", |b| {
        b.iter(|| {
            for (_, m) in &corpus {
                for f in m.functions() {
                    black_box(cache_key(f, &config));
                }
            }
        });
    });
    group.bench_function("to_string", |b| {
        b.iter(|| {
            for (_, m) in &corpus {
                for f in m.functions() {
                    black_box(f.to_string());
                }
            }
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_warm
}
criterion_main!(benches);
