//! The experiment the paper proposed but did not run (§3.2): the
//! register-sweep study over "a more diverse set of non-floating point
//! programs" — heapsort, a prime sieve, and integer matrix multiply, plus
//! the original quicksort for reference. For each integer-register count,
//! reports total spilled ranges under both allocators and the simulated
//! whole-suite runtime.
//!
//! Usage: `cargo run --release -p optimist-bench --bin int_study [--quick]`

use optimist_bench::{cycles_to_seconds, pct_cell, quick_flag};
use optimist_machine::Target;
use optimist_regalloc::{allocate, AllocatorConfig, Strategy};
use optimist_sim::{run_allocated, AllocatedModule, ExecOptions, Scalar};
use std::collections::HashMap;

fn main() {
    let quick = quick_flag();

    let subjects = [
        ("INTEGER", if quick { 200i64 } else { 2000 }),
        ("QUICKSORT", if quick { 2_000 } else { 50_000 }),
    ];

    println!("integer programs under a shrinking register file\n");
    println!(
        "{:<10} {:>5} | {:>5} {:>5} {:>4} | {:>9} {:>9} {:>4}",
        "program", "regs", "old", "new", "pct", "time old", "time new", "pct"
    );
    println!("{}", "-".repeat(68));

    for (name, n) in subjects {
        let p = optimist_workloads::program(name).expect("program exists");
        let module = optimist::compile_optimized(&p.source).expect("compiles");
        for regs in [16usize, 14, 12, 10, 8] {
            let target = Target::with_int_regs(regs);
            let mut results = Vec::new();
            for strategy in [Strategy::Chaitin, Strategy::Briggs] {
                let cfg = AllocatorConfig::new(target.clone(), strategy);
                let allocs: HashMap<_, _> = module
                    .functions()
                    .iter()
                    .map(|f| (f.name().to_string(), allocate(f, &cfg).expect("allocates")))
                    .collect();
                let spilled: usize = p
                    .routines
                    .iter()
                    .map(|r| allocs[*r].stats.registers_spilled)
                    .sum();
                let am = AllocatedModule::new(&module, &allocs, &target);
                let run = run_allocated(&am, p.driver, &[Scalar::Int(n)], &ExecOptions::default())
                    .expect("runs");
                assert_eq!(
                    run.ret,
                    Some(Scalar::Int(0)),
                    "{name} k={regs}: self-check failed"
                );
                results.push((spilled, run.cycles));
            }
            let (old_s, old_c) = results[0];
            let (new_s, new_c) = results[1];
            println!(
                "{:<10} {:>5} | {:>5} {:>5} {:>4} | {:>8.2}s {:>8.2}s {:>4}",
                name,
                regs,
                old_s,
                new_s,
                pct_cell(old_s as f64, new_s as f64),
                cycles_to_seconds(old_c),
                cycles_to_seconds(new_c),
                pct_cell(old_c as f64, new_c as f64),
            );
        }
        println!("{}", "-".repeat(68));
    }
    println!("\n(every run self-checks: sorted output, exact prime counts, verified");
    println!(" matrix entries — an allocator bug would show up as a nonzero code)");
}
