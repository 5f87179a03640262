//! The SSA allocation track: construct → spill → color → destruct.
//!
//! The paper's Chaitin/Briggs allocators couple spilling and coloring in
//! one loop — color, fail, spill, rebuild, repeat. This module implements
//! the modern decoupled alternative enabled by SSA form ("On the
//! Complexity of Spill Everywhere under SSA Form"): the interference graph
//! of a program in SSA form is *chordal*, so its chromatic number equals
//! its largest clique, which in turn equals the maximum register pressure.
//! That turns allocation into four straight-line stages:
//!
//! 1. [`construct`] — phi insertion via dominance frontiers, renaming over
//!    the dominator tree ([`construct`] module docs for the details);
//! 2. [`lower_pressure`] — the *spill phase*:
//!    demote values until maxlive ≤ k, at which point coloring is
//!    guaranteed to succeed;
//! 3. [`chordal_color`] — one greedy pass over a perfect elimination
//!    order; no simplify stack, no optimism, no retry;
//! 4. [`destruct`] — parallel-copy sequentialization turns phis back into
//!    plain IR the cycle simulator can verify.
//!
//! Selected via [`Strategy::Ssa`](crate::Strategy); the whole track runs
//! in exactly one pass, so `AllocStats::passes` is always 1.

mod color;
mod construct;
mod destruct;
mod liveness;
mod spill;

pub use color::{chordal_color, dominance_order, is_perfect_elimination_order, mcs_order};
pub use construct::{construct, Phi, PhiSrc, SsaForm};
pub use destruct::destruct;
pub use liveness::{analyze, pressure, SsaAnalysis, SsaLiveness, SsaPressure};
pub use spill::lower_pressure;

use crate::allocator::{
    AllocError, AllocStats, Allocation, AllocatorConfig, PassRecord, PhaseTimes,
};
use optimist_ir::Function;
use optimist_machine::PhysReg;
use std::time::Instant;

/// Run the SSA track end to end under a cooperative deadline. Called by
/// [`allocate_with_deadline`](crate::allocate_with_deadline) when the
/// config selects [`Strategy::Ssa`](crate::Strategy::Ssa).
pub(crate) fn allocate_ssa(
    func: &Function,
    config: &AllocatorConfig,
    deadline: &crate::Deadline,
) -> Result<Allocation, AllocError> {
    let overdue = || AllocError::DeadlineExceeded {
        function: func.name().to_string(),
        passes: 0,
    };

    let t_build = Instant::now();
    let mut ssa = construct(func);
    let build = t_build.elapsed();
    if deadline.expired() {
        return Err(overdue());
    }

    let t_spill = Instant::now();
    let (rounds, spilled_cost, analysis) = lower_pressure(&mut ssa, &config.target, func.name())?;
    let spilled: usize = rounds.iter().map(Vec::len).sum();
    let mut spill_time = t_spill.elapsed();
    if deadline.expired() {
        return Err(overdue());
    }

    let t_color = Instant::now();
    let order = dominance_order(&ssa);
    let coloring = chordal_color(&analysis.graph, &order, &config.target);
    let color_time = t_color.elapsed();
    if !coloring.is_complete() {
        // Unreachable once maxlive ≤ k — chordal graphs color greedily
        // along a PEO with clique-many colors. Kept as an error rather
        // than a panic so a bug degrades into a reported failure.
        return Err(AllocError::NonConvergence {
            function: func.name().to_string(),
            passes: 1,
        });
    }
    if deadline.expired() {
        return Err(overdue());
    }
    debug_assert!(
        coloring.is_valid(&analysis.graph),
        "chordal coloring of `{}` violates an interference edge",
        func.name()
    );

    let assignment: Vec<PhysReg> = coloring
        .color
        .iter()
        .enumerate()
        .map(|(v, c)| {
            PhysReg::new(
                analysis.graph.class(v as u32),
                c.expect("coloring is complete"),
            )
        })
        .collect();

    // Destruction adds no virtual registers (cycle breaking parks values
    // in fresh *slots*), so the assignment covers the output function.
    // A classic interference rebuild on the destructed function would be
    // *too strict* as a cross-check: sequentialized parallel copies may
    // legally reuse the register of an edge-dying phi argument for a phi
    // destination — the copy ordering guarantees every read happens
    // before the overwrite. End-to-end validation is the cycle
    // simulator's job (`tests/ssa_invariants.rs` races every corpus
    // program through both interpreters).
    let t_destruct = Instant::now();
    let (out, coalesced) = destruct(ssa, Some(&assignment));
    spill_time += t_destruct.elapsed();
    debug_assert_eq!(out.num_vregs(), assignment.len());

    let live_ranges = analysis.graph.num_nodes();
    let record = PassRecord {
        times: PhaseTimes {
            build,
            simplify: std::time::Duration::ZERO,
            color: color_time,
            spill: spill_time,
        },
        live_ranges,
        edges: analysis.graph.num_edges(),
        spilled,
        spilled_cost,
        coalesced,
    };
    Ok(Allocation {
        func: out,
        assignment,
        stats: AllocStats {
            live_ranges,
            registers_spilled: spilled,
            spill_cost: spilled_cost,
            passes: 1,
            coalesced_copies: coalesced,
        },
        passes: vec![record],
    })
}
