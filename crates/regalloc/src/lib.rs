#![warn(missing_docs)]

//! # optimist-regalloc
//!
//! Graph-coloring register allocation: Chaitin's pessimistic baseline, the
//! **optimistic** allocator of Briggs, Cooper, Kennedy & Torczon
//! (*Coloring Heuristics for Register Allocation*, PLDI 1989),
//! **iterated register coalescing** (George & Appel), and an **SSA track**
//! that colors the chordal interference graph of SSA form in one pass.
//!
//! ## The four strategies
//!
//! Three allocators run the Build–Simplify–Color cycle of the paper's
//! Figure 4 ([`allocate`] is the driver), selected by [`Strategy`] on
//! [`AllocatorConfig`]. The classic two share the build phase (renumber →
//! aggressive coalesce → interference graph → spill costs) and the trivial
//! part of simplification (repeatedly remove nodes with `degree < k`).
//! They differ when simplification *blocks* — every remaining node has `k`
//! or more neighbors:
//!
//! * **Chaitin** ([`Strategy::Chaitin`]) picks the node with minimum
//!   `spill_cost / degree`, marks it spilled, and ultimately inserts
//!   spill code for it, even though the coloring phase might have found it a
//!   color.
//! * **Briggs** ([`Strategy::Briggs`]) removes the same node but
//!   pushes it on the coloring stack anyway. The select phase discovers
//!   whether its neighbors really exhaust all `k` colors; only then is it
//!   spilled. Optimism never loses: the spilled set is always a subset of
//!   Chaitin's (paper §2.3) — a property this crate's proptests check.
//! * **IRC** ([`Strategy::Irc`]) skips the aggressive pre-merge entirely
//!   and coalesces *during* simplification, only when the Briggs or George
//!   conservative test proves the merge safe — see the [`irc`] phase.
//!
//! The fourth strategy leaves the cycle altogether. **SSA**
//! ([`Strategy::Ssa`]) converts the function to SSA form, whose
//! interference graph is *chordal*: reverse dominance order is a perfect
//! elimination order, so maxlive registers per class always suffice and
//! greedy coloring along dominance order never blocks. Spilling becomes a
//! separate phase that runs *before* coloring (lower pressure to ≤ k,
//! then color — never iterate), and copy cleanup falls out of SSA
//! destruction eliding no-op parallel copies — see the [`ssa`] module.
//!
//! ## Example
//!
//! Allocate a tiny function for a two-register machine:
//!
//! ```
//! use optimist_ir::{FunctionBuilder, RegClass, BinOp};
//! use optimist_machine::Target;
//! use optimist_regalloc::{allocate, AllocatorConfig};
//!
//! let mut b = FunctionBuilder::new("demo");
//! b.set_ret_class(Some(RegClass::Int));
//! let x = b.add_param(RegClass::Int, "x");
//! let y = b.add_param(RegClass::Int, "y");
//! let t = b.binv(BinOp::AddI, x, y);
//! b.ret(Some(t));
//!
//! let config = AllocatorConfig::new(Target::rt_pc(), optimist_regalloc::Strategy::Briggs);
//! let alloc = allocate(&b.finish(), &config)?;
//! assert_eq!(alloc.stats.registers_spilled, 0);
//! # Ok::<(), optimist_regalloc::AllocError>(())
//! ```
//!
//! Lower-level pieces ([`build_graph`], [`simplify`], [`select`],
//! [`smallest_last_order`], …) are public so experiments can mix and match —
//! the benchmark harness uses them to time phases in isolation.

mod allocator;
mod build;
mod coalesce;
mod cost;
mod deadline;
mod graph;
pub mod irc;
mod listing;
mod matula;
mod pipeline;
mod select;
mod simplify;
mod spill;
pub mod ssa;

pub use allocator::{
    allocate, allocate_with_deadline, fnv1a, AllocError, AllocStats, Allocation, AllocatorConfig,
    PassRecord, PhaseTimes, Strategy,
};
pub use build::build_graph;
pub use coalesce::{coalesce, CoalesceMode, CoalesceOpts};
pub use cost::{depth_weight, spill_costs};
pub use deadline::Deadline;
pub use graph::InterferenceGraph;
pub use irc::{ConservativeTest, IrcEvent, IrcOutcome};
pub use matula::smallest_last_order;
pub use pipeline::{default_threads, ModuleAllocation, WorkerPool};
pub use select::{select, Coloring};
pub use simplify::{simplify, simplify_with_metric, Heuristic, SimplifyOutcome, SpillMetric};
pub use spill::{insert_spill_code, SpillOpts, SpillStats};
