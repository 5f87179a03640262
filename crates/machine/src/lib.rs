#![warn(missing_docs)]

//! # optimist-machine
//!
//! A model of the paper's target machine: an IBM RT/PC-class RISC with
//! sixteen general-purpose registers and eight floating-point registers
//! (provided by a coprocessor, transparently to the code generator — the
//! paper's footnote 1).
//!
//! The model has three parts:
//!
//! * [`Target`] — how many registers each [`RegClass`](optimist_ir::RegClass) offers. The
//!   quicksort study (the paper's Figure 6) shrinks the integer file to
//!   14/12/10/8 via [`Target::with_int_regs`].
//! * [`size`] — an object-code size model (bytes per instruction), used for
//!   the *Object Size* columns of Figures 5 and 6.
//! * [`cycles`] — a cycle-cost model, used by the simulator to produce the
//!   *dynamic* improvement numbers (Figure 5's last column and Figure 6's
//!   running times).
//!
//! The absolute constants are era-plausible rather than die-accurate; the
//! reproduction targets relative shapes, and the constants are confined to
//! this crate so sensitivity experiments can swap them.

pub mod cycles;
pub mod size;

mod target;

pub use cycles::CycleModel;
pub use target::{PhysReg, Target, MAX_REGS_PER_CLASS};
