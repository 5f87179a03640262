//! Fuzz the whole pipeline with generated routines: every generated routine
//! must compile, allocate under several targets, and compute the same
//! checksum through physical registers as through virtual registers.

use optimist::machine::Target;
use optimist::prelude::*;
use optimist::sim::AllocatedModule;
use optimist::workloads::{generate_routine, GenConfig};
use optimist::{allocate_module, regalloc::AllocatorConfig, regalloc::Strategy};

fn check_seed(seed: u64, cfg: &GenConfig, targets: &[Target]) {
    let src = generate_routine("FUZZ", seed, cfg);
    let module =
        optimist::frontend::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    optimist::ir::verify_module(&module).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

    let opts = ExecOptions::default();
    let args = [Scalar::Int(5), Scalar::Int(3)];
    let reference = run_virtual(&module, "FUZZ", &args, &opts)
        .unwrap_or_else(|e| panic!("seed {seed}: virtual trap {e}\n{src}"));

    for target in targets {
        for alloc_cfg in [
            AllocatorConfig::new(target.clone(), Strategy::Chaitin),
            AllocatorConfig::new(target.clone(), Strategy::Briggs),
        ] {
            let strategy = alloc_cfg.strategy;
            let allocs = allocate_module(&module, &alloc_cfg)
                .unwrap_or_else(|e| panic!("seed {seed} {target:?}: {e}"));
            let am = AllocatedModule::new(&module, &allocs, target);
            let run = run_allocated(&am, "FUZZ", &args, &opts).unwrap_or_else(|e| {
                panic!(
                    "seed {seed} {}/{strategy:?}: trap {e}\n{src}",
                    target.name()
                )
            });
            assert_eq!(
                run.ret,
                reference.ret,
                "seed {seed} {}/{strategy:?}: allocated run diverged\n{src}",
                target.name()
            );
        }
    }
}

#[test]
fn fuzz_default_shapes() {
    let cfg = GenConfig::default();
    let targets = [Target::rt_pc(), Target::with_int_regs(6)];
    for seed in 0..40 {
        check_seed(seed, &cfg, &targets);
    }
}

#[test]
fn fuzz_deep_nesting() {
    let cfg = GenConfig {
        max_depth: 4,
        stmts_per_block: 4,
        ..GenConfig::default()
    };
    let targets = [Target::with_int_regs(4)];
    for seed in 100..120 {
        check_seed(seed, &cfg, &targets);
    }
}

#[test]
fn fuzz_many_variables_under_tiny_files() {
    // Lots of scalars + a tiny register file forces spilling constantly;
    // the allocated runs must still agree with the reference.
    let cfg = GenConfig {
        int_vars: 10,
        real_vars: 10,
        stmts_per_block: 8,
        ..GenConfig::default()
    };
    let targets = [Target::custom("tiny", 4, 3)];
    for seed in 200..220 {
        check_seed(seed, &cfg, &targets);
    }
}
