#![warn(missing_docs)]

//! # optimist-analysis
//!
//! Dataflow analyses over [`optimist_ir`] functions, providing everything the
//! register allocator needs:
//!
//! * [`Cfg`] — successor/predecessor lists and a reverse postorder.
//! * [`Dominators`] — immediate dominators via the Cooper–Harvey–Kennedy
//!   iterative algorithm (a fitting choice: two of its authors wrote the
//!   paper this project reproduces), with dominator-tree child lists.
//! * [`DominanceFrontiers`] — per-block dominance frontiers (Cytron et
//!   al.), the phi-placement oracle of the SSA allocation track.
//! * [`LoopInfo`] — natural loops and per-block nesting depth, which drives
//!   the paper's spill-cost weighting (`10^depth` per inserted load/store).
//! * [`Liveness`] — per-block live-in/live-out virtual-register sets.
//! * [`renumber`] — Chaitin's *renumber* phase: splits each virtual register
//!   into its def-use webs so that, afterwards, **one virtual register is one
//!   live range**. The allocator runs renumber before building the
//!   interference graph, exactly as in the paper's build phase. It finds the
//!   webs with one union-find over liveness: each register live into a
//!   block joins the defs that flow into it along the block's incoming
//!   edges, so its work grows with the instructions plus the live-in sets.
//! * [`DenseBitSet`] — the fixed-capacity bit set used by all of the above.
//!
//! ## Example
//!
//! ```
//! use optimist_ir::{FunctionBuilder, RegClass, BinOp};
//! use optimist_analysis::{Cfg, Liveness, renumber};
//!
//! let mut b = FunctionBuilder::new("f");
//! b.set_ret_class(Some(RegClass::Int));
//! let x = b.add_param(RegClass::Int, "x");
//! let t = b.binv(BinOp::AddI, x, x);
//! b.ret(Some(t));
//! let mut f = b.finish();
//!
//! renumber(&mut f);
//! let cfg = Cfg::new(&f);
//! let live = Liveness::new(&f, &cfg);
//! // Parameters are live on entry (they are defined before the function starts).
//! assert_eq!(live.live_in(f.entry()).count(), 1);
//! ```

mod bitset;
mod cfg;
mod dom;
mod liveness;
mod loops;
mod webs;

pub use bitset::DenseBitSet;
pub use cfg::Cfg;
pub use dom::{DominanceFrontiers, Dominators};
pub use liveness::Liveness;
pub use loops::{Loop, LoopInfo};
pub use webs::{renumber, RenumberStats};
