//! The comparison harness: run both allocators over a module and collect
//! the paper's static columns, plus dynamic (simulated) comparisons.

use optimist_ir::Module;
use optimist_machine::{size, Target};
use optimist_regalloc::{
    default_threads, AllocError, AllocStats, Allocation, AllocatorConfig, Strategy, WorkerPool,
};
use optimist_sim::{run_allocated, AllocatedModule, ExecOptions, Scalar, Trap};
use optimist_workloads::{DriverArg, Program};
use std::collections::HashMap;
use std::num::NonZeroUsize;

/// Both allocators' results for one routine — one row of Figure 5.
#[derive(Debug, Clone)]
pub struct RoutineComparison {
    /// Routine name.
    pub name: String,
    /// Object bytes under the *new* (optimistic) allocation, as in the
    /// paper's Object Size column.
    pub object_size: u64,
    /// Live ranges in the first allocation pass (identical for both).
    pub live_ranges: usize,
    /// Chaitin ("Old") statistics.
    pub old: AllocStats,
    /// Briggs ("New") statistics.
    pub new: AllocStats,
    /// Per-pass records for Figure 7 (Old).
    pub old_passes: Vec<optimist_regalloc::PassRecord>,
    /// Per-pass records for Figure 7 (New).
    pub new_passes: Vec<optimist_regalloc::PassRecord>,
}

impl RoutineComparison {
    /// Percentage reduction in spilled registers (the paper's `Pct.`).
    pub fn spill_pct(&self) -> f64 {
        pct(
            self.old.registers_spilled as f64,
            self.new.registers_spilled as f64,
        )
    }

    /// Percentage reduction in estimated spill cost.
    pub fn cost_pct(&self) -> f64 {
        pct(self.old.spill_cost, self.new.spill_cost)
    }
}

/// Percentage improvement from `old` to `new` (0 when `old` is 0).
pub fn pct(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (old - new) / old * 100.0
    }
}

/// Allocate every function of `module` with `config`; returns allocations
/// keyed by function name.
///
/// Functions are allocated concurrently on a [`WorkerPool`] sized to the
/// machine (the results do not depend on the pool size).
///
/// # Errors
///
/// Propagates the error of the first function (in module order) that fails.
pub fn allocate_module(
    module: &Module,
    config: &AllocatorConfig,
) -> Result<HashMap<String, Allocation>, AllocError> {
    module_pool(module)
        .allocate_module(config, module)
        .into_map()
}

/// A pool of [`default_threads`] workers, but no more than `module` has
/// functions.
fn module_pool(module: &Module) -> WorkerPool {
    let funcs = NonZeroUsize::new(module.functions().len()).unwrap_or(NonZeroUsize::MIN);
    WorkerPool::new(default_threads().min(funcs))
}

/// Compare Chaitin vs. Briggs on every function of `module` under `target`.
///
/// # Errors
///
/// Propagates the first [`AllocError`].
pub fn compare_module(
    module: &Module,
    target: &Target,
) -> Result<Vec<RoutineComparison>, AllocError> {
    let old_cfg = AllocatorConfig::new(target.clone(), Strategy::Chaitin);
    let new_cfg = AllocatorConfig::new(target.clone(), Strategy::Briggs);
    let pool = module_pool(module);
    let olds = pool.allocate_module(&old_cfg, module);
    let news = pool.allocate_module(&new_cfg, module);
    olds.results
        .into_iter()
        .zip(news.results)
        .map(|((name, old), (_, new))| {
            let (old, new) = (old?, new?);
            Ok(RoutineComparison {
                name,
                object_size: size::function_size(&new.func),
                live_ranges: new.stats.live_ranges,
                old: old.stats,
                new: new.stats,
                old_passes: old.passes,
                new_passes: new.passes,
            })
        })
        .collect()
}

/// Simulated whole-program runtimes under both allocators.
#[derive(Debug, Clone)]
pub struct DynamicComparison {
    /// Cycles under the Chaitin allocation.
    pub old_cycles: u64,
    /// Cycles under the Briggs allocation.
    pub new_cycles: u64,
    /// Dynamic loads+stores under Chaitin.
    pub old_memops: u64,
    /// Dynamic loads+stores under Briggs.
    pub new_memops: u64,
    /// The checksum both runs returned (they must agree).
    pub checksum: Option<Scalar>,
}

impl DynamicComparison {
    /// Percentage runtime improvement (the paper's Dynamic column).
    pub fn dynamic_pct(&self) -> f64 {
        pct(self.old_cycles as f64, self.new_cycles as f64)
    }
}

/// Compile a corpus [`Program`], allocate it both ways, and run its driver
/// under both allocations, verifying they compute the same checksum.
///
/// `quick` selects the program's smoke-test arguments instead of the
/// full-size run.
///
/// # Errors
///
/// Returns a string describing any compile, allocation, or simulation
/// failure (including a checksum mismatch, which would indicate an
/// allocator bug).
pub fn compare_program(
    program: &Program,
    target: &Target,
    quick: bool,
) -> Result<(Vec<RoutineComparison>, DynamicComparison), String> {
    let module = crate::compile_optimized(&program.source)
        .map_err(|e| format!("{}: compile failed: {e}", program.name))?;
    let rows = compare_module(&module, target).map_err(|e| e.to_string())?;

    let old_allocs = allocate_module(
        &module,
        &AllocatorConfig::new(target.clone(), Strategy::Chaitin),
    )
    .map_err(|e| e.to_string())?;
    let new_allocs = allocate_module(
        &module,
        &AllocatorConfig::new(target.clone(), Strategy::Briggs),
    )
    .map_err(|e| e.to_string())?;
    let old_am = AllocatedModule::new(&module, &old_allocs, target);
    let new_am = AllocatedModule::new(&module, &new_allocs, target);

    let args: Vec<Scalar> = if quick {
        &program.smoke_args
    } else {
        &program.driver_args
    }
    .iter()
    .map(|a| match a {
        DriverArg::Int(v) => Scalar::Int(*v),
        DriverArg::Float(v) => Scalar::Float(*v),
    })
    .collect();
    let opts = ExecOptions::default();
    let run = |am: &AllocatedModule| -> Result<optimist_sim::RunResult, Trap> {
        run_allocated(am, program.driver, &args, &opts)
    };
    let old_run = run(&old_am).map_err(|e| format!("{}: old run trapped: {e}", program.name))?;
    let new_run = run(&new_am).map_err(|e| format!("{}: new run trapped: {e}", program.name))?;
    if !scalar_eq(old_run.ret, new_run.ret) {
        return Err(format!(
            "{}: allocations disagree: old {:?} vs new {:?}",
            program.name, old_run.ret, new_run.ret
        ));
    }

    Ok((
        rows,
        DynamicComparison {
            old_cycles: old_run.cycles,
            new_cycles: new_run.cycles,
            old_memops: old_run.loads + old_run.stores,
            new_memops: new_run.loads + new_run.stores,
            checksum: new_run.ret,
        },
    ))
}

fn scalar_eq(a: Option<Scalar>, b: Option<Scalar>) -> bool {
    match (a, b) {
        (Some(Scalar::Int(x)), Some(Scalar::Int(y))) => x == y,
        // Bit-exact: both runs execute the same arithmetic in the same
        // order; only the register naming differs.
        (Some(Scalar::Float(x)), Some(Scalar::Float(y))) => x.to_bits() == y.to_bits(),
        (None, None) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_handles_zero_baseline() {
        assert_eq!(pct(0.0, 0.0), 0.0);
        assert_eq!(pct(100.0, 49.0), 51.0);
        assert_eq!(pct(4.0, 4.0), 0.0);
    }

    #[test]
    fn compare_module_produces_row_per_function() {
        let m = optimist_frontend::compile(
            "SUBROUTINE A()\nEND\nFUNCTION B(X)\nREAL B, X\nB = X\nEND\n",
        )
        .unwrap();
        let rows = compare_module(&m, &Target::rt_pc()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "A");
        assert_eq!(rows[1].name, "B");
    }

    #[test]
    fn compare_program_smoke_quicksort() {
        let p = optimist_workloads::program("QUICKSORT").unwrap();
        let (rows, dynamic) = compare_program(&p, &Target::rt_pc(), true).unwrap();
        assert!(rows.iter().any(|r| r.name == "QSORT"));
        assert_eq!(dynamic.checksum, Some(Scalar::Int(0)));
        // At 16 registers the paper found no difference between the methods.
        assert_eq!(dynamic.dynamic_pct(), 0.0);
    }
}
