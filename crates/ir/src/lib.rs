#![warn(missing_docs)]

//! # optimist-ir
//!
//! A typed, three-address intermediate representation used throughout the
//! `optimist` register-allocation project (a reproduction of Briggs, Cooper,
//! Kennedy & Torczon, *"Coloring Heuristics for Register Allocation"*,
//! PLDI 1989).
//!
//! The IR models the input the paper's allocator saw: code over an unbounded
//! supply of *virtual registers* partitioned into two register classes
//! ([`RegClass::Int`] and [`RegClass::Float`], matching the RT/PC's sixteen
//! general-purpose and eight floating-point registers), organised into basic
//! blocks with explicit control flow, with memory reached only through
//! explicit loads and stores.
//!
//! ## Shape of the IR
//!
//! * A [`Module`] owns [`Function`]s and [`Global`] data blocks.
//! * A [`Function`] owns basic [`Block`]s, virtual-register metadata, and
//!   frame slots (stack-allocated arrays and spill slots).
//! * Every computation names its operands: there are no nested expressions.
//! * The IR is *not* SSA. A virtual register may be defined many times; the
//!   renumber pass in `optimist-analysis` splits registers into def-use webs
//!   ("live ranges" in the paper's terminology) before allocation.
//!
//! ## Example
//!
//! Build `fn double(x) { return x + x }` by hand:
//!
//! ```
//! use optimist_ir::{FunctionBuilder, RegClass, BinOp};
//!
//! let mut b = FunctionBuilder::new("double");
//! b.set_ret_class(Some(RegClass::Int));
//! let x = b.add_param(RegClass::Int, "x");
//! let t = b.new_vreg(RegClass::Int, "t");
//! b.bin(BinOp::AddI, t, x, x);
//! b.ret(Some(t));
//! let func = b.finish();
//! assert_eq!(func.name(), "double");
//! assert!(optimist_ir::verify_function(&func).is_ok());
//! ```

mod builder;
mod display;
mod func;
mod inst;
mod module;
mod parse;
mod verify;

pub use builder::FunctionBuilder;
pub use display::write_canonical;
pub use func::{Block, BlockId, FrameSlot, Function, SlotData, VReg, VRegData};
pub use inst::{Addr, BinOp, Cmp, Imm, Inst, RegClass, UnOp};
pub use module::{Global, GlobalId, Module};
pub use parse::{parse_function, parse_module, ParseError};
pub use verify::{verify_function, verify_module, VerifyError};
