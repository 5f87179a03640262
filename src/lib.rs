#![warn(missing_docs)]

//! # optimist
//!
//! A from-scratch reproduction of Briggs, Cooper, Kennedy & Torczon,
//! *"Coloring Heuristics for Register Allocation"* (PLDI 1989): the
//! **optimistic** graph-coloring register allocator, Chaitin's pessimistic
//! baseline, and the full substrate needed to regenerate every table and
//! figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace and adds the comparison
//! harness the examples and benchmark binaries share.
//!
//! ## The pieces
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`ir`] | `optimist-ir` | typed three-address IR |
//! | [`frontend`] | `optimist-frontend` | FT (mini-FORTRAN) → IR |
//! | [`analysis`] | `optimist-analysis` | CFG, dominators, loops, liveness, webs |
//! | [`machine`] | `optimist-machine` | RT/PC-class target model |
//! | [`regalloc`] | `optimist-regalloc` | **the paper's contribution** |
//! | [`sim`] | `optimist-sim` | cycle simulator (the "hardware") |
//! | [`serve`] | `optimist-serve` | batch allocation daemon |
//! | [`store`] | `optimist-store` | persistent content-addressed result store |
//! | [`workloads`] | `optimist-workloads` | the paper's benchmark programs |
//!
//! ## Quick start
//!
//! ```
//! use optimist::prelude::*;
//!
//! let module = optimist::frontend::compile("
//! SUBROUTINE DAXPY(N, DA, DX, DY)
//!   INTEGER N, I
//!   REAL DA, DX(*), DY(*)
//!   IF (N .LE. 0) RETURN
//!   DO I = 1, N
//!     DY(I) = DY(I) + DA*DX(I)
//!   ENDDO
//! END
//! ")?;
//!
//! let report = optimist::compare_module(&module, &Target::rt_pc())?;
//! let daxpy = &report[0];
//! assert_eq!(daxpy.name, "DAXPY");
//! // Low register pressure: both heuristics avoid spilling entirely.
//! assert_eq!(daxpy.old.registers_spilled, 0);
//! assert_eq!(daxpy.new.registers_spilled, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use optimist_analysis as analysis;
pub use optimist_frontend as frontend;
pub use optimist_ir as ir;
pub use optimist_machine as machine;
pub use optimist_opt as opt;
pub use optimist_regalloc as regalloc;
pub use optimist_serve as serve;
pub use optimist_sim as sim;
pub use optimist_store as store;
pub use optimist_workloads as workloads;

/// Compile FT source and run the scalar optimizer — the configuration the
/// paper's numbers assume (its allocator sat behind an optimizing
/// front end; unoptimized code has far less register pressure).
///
/// # Errors
///
/// Propagates compile errors.
pub fn compile_optimized(source: &str) -> Result<ir::Module, frontend::CompileError> {
    let mut module = frontend::compile(source)?;
    opt::optimize_module(&mut module);
    Ok(module)
}

mod report;

pub use report::{
    allocate_module, compare_module, compare_program, pct, DynamicComparison, RoutineComparison,
};

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use crate::machine::{CycleModel, PhysReg, Target};
    pub use crate::regalloc::{allocate, AllocatorConfig, Heuristic, Strategy, WorkerPool};
    pub use crate::sim::{run_allocated, run_virtual, ExecOptions, Scalar};
}
