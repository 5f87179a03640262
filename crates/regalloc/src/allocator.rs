//! The Build–Simplify–Color driver (the paper's Figure 4).
//!
//! ```text
//!            +-------+     +----------+     +-------+
//!   code --> | build | --> | simplify | --> | color | --> allocated code
//!            +-------+     +----------+     +-------+
//!                ^                               |
//!                |          +-------+            | uncolored nodes
//!                +----------| spill | <----------+
//!                           +-------+
//! ```
//!
//! Under the pessimistic heuristic the backward edge leaves *simplify*
//! (spill decisions are made there and the color phase is skipped for that
//! pass); under the optimistic heuristic it leaves *color*. Per-phase CPU
//! times and per-pass spill counts are recorded exactly so Figure 7 can be
//! regenerated.
//!
//! Every pass renumbers, coalesces and rebuilds liveness and the
//! interference graph from scratch, as the paper's driver does. Renumbering,
//! coalescing and spill-code insertion never change block structure, so the
//! CFG, dominators and loop nesting are built once, inside the first pass's
//! build phase.

use crate::build::build_graph;
use crate::coalesce::{coalesce, CoalesceOpts};
use crate::cost::spill_costs;
use crate::graph::InterferenceGraph;
use crate::irc::{apply_coalesces, collect_moves, irc};
use crate::select::select;
use crate::simplify::{simplify_with_metric, Heuristic};
use crate::spill::{insert_spill_code, SpillOpts};
use optimist_analysis::{renumber, Cfg, Dominators, Liveness, LoopInfo};
use optimist_ir::{Function, VReg};
use optimist_machine::{PhysReg, Target};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Which allocator family drives the Build–Simplify–Color cycle — the
/// paper's lineage, one variant per generation.
///
/// This is the single selection knob: it travels from `AllocatorConfig`
/// through [`AllocatorConfig::fingerprint`] into the serve protocol's
/// `"strategy"` field and both cache tiers. It alone picks the simplify
/// [`Heuristic`]; [`CoalesceMode`](crate::CoalesceMode) survives as an
/// ablation knob for the first two strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Chaitin's pessimistic allocator: spill decisions are made inside
    /// simplify, copies are merged aggressively before building the graph.
    Chaitin,
    /// Briggs' optimistic allocator (the paper's contribution): blocked
    /// nodes are pushed anyway and select decides, copies still merged
    /// aggressively up front.
    Briggs,
    /// Iterated register coalescing (George & Appel): no up-front merging;
    /// copies are coalesced *during* simplification, and only when the
    /// Briggs or George conservative test proves the merge cannot turn a
    /// colorable graph uncolorable. Selection is optimistic. The
    /// [`coalesce`](AllocatorConfig::coalesce) ablation knob is ignored —
    /// conservative, iterated coalescing *is* the strategy.
    Irc,
    /// The SSA track (see [`ssa`](crate::ssa)): convert to SSA form, run a
    /// decoupled spill phase that lowers register pressure to ≤ k up
    /// front, color the chordal SSA interference graph greedily in one
    /// pass, and lower phis back to copies. No Build–Simplify–Color
    /// iteration — [`AllocStats::passes`] is always 1. The `coalesce`,
    /// `spill_metric` and `rematerialize` ablation knobs are all ignored.
    Ssa,
}

impl Strategy {
    /// The simplify-phase heuristic this strategy implies.
    fn heuristic(self) -> Heuristic {
        match self {
            Strategy::Chaitin => Heuristic::ChaitinPessimistic,
            Strategy::Briggs | Strategy::Irc | Strategy::Ssa => Heuristic::BriggsOptimistic,
        }
    }
}

/// Configuration for one allocation run (or a whole module on a
/// [`WorkerPool`](crate::WorkerPool), whose size is the pool's business).
///
/// Construct with [`AllocatorConfig::new`] and refine with the `with_*`
/// builder methods:
///
/// ```
/// use optimist_machine::Target;
/// use optimist_regalloc::{AllocatorConfig, CoalesceMode, Strategy};
///
/// let config = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs)
///     .with_coalesce(CoalesceMode::Conservative)
///     .with_rematerialize(true);
/// assert!(config.rematerialize);
/// ```
///
/// The struct is `#[non_exhaustive]`: new knobs may appear in a minor
/// release, so downstream code must go through the constructors.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AllocatorConfig {
    /// The register files to color with.
    pub target: Target,
    /// The allocator family (Chaitin, Briggs, IRC or SSA). It alone picks
    /// the simplify heuristic: pessimistic for Chaitin, optimistic for the
    /// rest.
    pub strategy: Strategy,
    /// Coalescing policy (the paper used aggressive coalescing; the
    /// conservative and off settings exist for ablation experiments).
    /// Ignored when [`strategy`](AllocatorConfig::strategy) is
    /// [`Strategy::Irc`], which performs its own conservative coalescing
    /// inside the simplify loop.
    pub coalesce: crate::coalesce::CoalesceMode,
    /// How blocked-phase spill candidates are ranked (the paper uses
    /// `cost/degree`; alternatives exist for ablation).
    pub spill_metric: crate::simplify::SpillMetric,
    /// Rematerialize spilled constants instead of reloading them (Briggs,
    /// Cooper & Torczon's PLDI 1992 refinement; off in the 1989 paper).
    pub rematerialize: bool,
    /// Safety bound on Build–Simplify–Color cycles. The paper never
    /// observed more than three; we fail loudly rather than loop.
    pub max_passes: usize,
}

impl AllocatorConfig {
    /// An allocator configuration for `strategy` on `target`, with every
    /// other knob at its default (aggressive coalescing for the classic
    /// strategies, `cost/degree` spill ranking, no rematerialization).
    pub fn new(target: Target, strategy: Strategy) -> Self {
        AllocatorConfig {
            target,
            strategy,
            coalesce: crate::coalesce::CoalesceMode::Aggressive,
            spill_metric: crate::simplify::SpillMetric::CostOverDegree,
            rematerialize: false,
            max_passes: 64,
        }
    }

    /// Set the allocation strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the coalescing policy.
    pub fn with_coalesce(mut self, mode: crate::coalesce::CoalesceMode) -> Self {
        self.coalesce = mode;
        self
    }

    /// Set the blocked-phase spill-candidate ranking.
    pub fn with_spill_metric(mut self, metric: crate::simplify::SpillMetric) -> Self {
        self.spill_metric = metric;
        self
    }

    /// Enable or disable constant rematerialization.
    pub fn with_rematerialize(mut self, on: bool) -> Self {
        self.rematerialize = on;
        self
    }

    /// Set the Build–Simplify–Color pass bound.
    pub fn with_max_passes(mut self, max_passes: usize) -> Self {
        self.max_passes = max_passes;
        self
    }

    /// A stable 64-bit fingerprint of every knob that can change the
    /// *result* of an allocation: target register files, strategy,
    /// coalescing mode, spill metric and rematerialization.
    ///
    /// The size of the [`WorkerPool`](crate::WorkerPool) that runs an
    /// allocation never changes its output, so it has no place here.
    /// [`AllocatorConfig::max_passes`] caps how
    /// long the Build–Simplify–Color cycle may iterate but never changes a
    /// *converged* result: any bound ≥ the passes actually taken yields the
    /// identical allocation, and any smaller bound yields
    /// [`AllocError::NonConvergence`]. Consumers that cache results under
    /// this fingerprint must therefore compare the request's bound against
    /// the cached [`AllocStats::passes`] (`optimist-serve` does exactly
    /// that, which is what makes its negative cache invalidatable by
    /// raising `max_passes`).
    ///
    /// The hash is FNV-1a over a canonical rendering of the knobs, so it is
    /// identical across processes and runs — `optimist-serve` folds it into
    /// its content-addressed cache keys, in memory and on disk.
    ///
    /// Canonical spellings (compatibility contract): the classic strategies
    /// render as the `heuristic` their strategy implies plus the `coalesce`
    /// ablation knob, exactly as they did before [`Strategy`] existed, so
    /// every chaitin/briggs fingerprint — and therefore every warm cache
    /// entry persisted by older daemons — is byte-identical across the
    /// redesign. [`Strategy::Irc`]
    /// renders as `strategy=Irc` with no `heuristic`/`coalesce` terms (IRC
    /// ignores both), a spelling no pre-`Strategy` config could produce.
    /// [`Strategy::Ssa`] renders as just `strategy=Ssa` after the target:
    /// the SSA track ignores *every* ablation knob, so none may leak into
    /// its cache key. The classic and IRC spellings end in a constant term
    /// that a removed graph-repair knob used to render, so that every
    /// print, and every stored key, stays what it was.
    pub fn fingerprint(&self) -> u64 {
        use optimist_ir::RegClass;
        let canonical = if self.strategy == Strategy::Ssa {
            format!(
                "target={}/i{}/f{};strategy=Ssa",
                self.target.name(),
                self.target.regs(RegClass::Int),
                self.target.regs(RegClass::Float),
            )
        } else if self.strategy == Strategy::Irc {
            format!(
                "target={}/i{}/f{};strategy=Irc;metric={:?};remat={};incremental=false",
                self.target.name(),
                self.target.regs(RegClass::Int),
                self.target.regs(RegClass::Float),
                self.spill_metric,
                self.rematerialize,
            )
        } else {
            format!(
                "target={}/i{}/f{};heuristic={:?};coalesce={:?};metric={:?};remat={};incremental=false",
                self.target.name(),
                self.target.regs(RegClass::Int),
                self.target.regs(RegClass::Float),
                self.strategy.heuristic(),
                self.coalesce,
                self.spill_metric,
                self.rematerialize,
            )
        };
        fnv1a(canonical.as_bytes())
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across processes
/// (unlike [`std::collections::hash_map::DefaultHasher`], which is
/// randomly seeded per process).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CPU time spent in each phase of one pass (one row group of Figure 7).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Renumbering, coalescing, liveness, graph construction and cost
    /// computation; the first pass also builds the CFG, dominators and loop
    /// nesting that every pass shares.
    pub build: Duration,
    /// The simplify phase.
    pub simplify: Duration,
    /// The select/color phase (zero when the pessimistic heuristic skips it).
    pub color: Duration,
    /// Spill-code insertion.
    pub spill: Duration,
}

/// Everything measured during one Build–Simplify–Color pass.
#[derive(Debug, Clone)]
pub struct PassRecord {
    /// Phase timings.
    pub times: PhaseTimes,
    /// Live ranges (interference-graph nodes) in this pass.
    pub live_ranges: usize,
    /// Interference edges in this pass.
    pub edges: usize,
    /// Number of live ranges spilled in this pass (the parenthesized
    /// numbers in Figure 7's spill rows).
    pub spilled: usize,
    /// Total estimated cost of the ranges spilled this pass.
    pub spilled_cost: f64,
    /// Copies coalesced during this pass's build phase.
    pub coalesced: usize,
}

/// Summary statistics of a whole allocation.
#[derive(Debug, Clone)]
pub struct AllocStats {
    /// Live ranges in the first pass (the paper's *Live Ranges* column).
    pub live_ranges: usize,
    /// Total live ranges spilled across all passes (*Registers Spilled*).
    pub registers_spilled: usize,
    /// Total estimated spill cost (*Spill Cost*).
    pub spill_cost: f64,
    /// Number of Build–Simplify–Color passes.
    pub passes: usize,
    /// Total copies removed by coalescing.
    pub coalesced_copies: usize,
}

/// A completed register allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// The function after spill-code insertion and final renumbering; its
    /// virtual registers are exactly the colored live ranges.
    pub func: Function,
    /// Physical register for each virtual register of [`Allocation::func`].
    pub assignment: Vec<PhysReg>,
    /// Per-pass records (Figure 7's rows).
    pub passes: Vec<PassRecord>,
    /// Summary statistics (Figure 5's columns).
    pub stats: AllocStats,
}

impl Allocation {
    /// Number of distinct physical registers of `class` actually used.
    pub fn regs_used(&self, class: optimist_ir::RegClass) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for r in &self.assignment {
            if r.class == class {
                seen.insert(r.index);
            }
        }
        seen.len()
    }
}

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocError {
    /// The Build–Simplify–Color cycle did not converge within
    /// [`AllocatorConfig::max_passes`].
    NonConvergence {
        /// Name of the function being allocated.
        function: String,
        /// How many passes ran.
        passes: usize,
    },
    /// A [`WorkerPool`](crate::WorkerPool) worker panicked while allocating a
    /// function. The panic is contained: other functions of the module are
    /// unaffected.
    WorkerPanic {
        /// Name of the function being allocated.
        function: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The request's [`Deadline`](crate::Deadline) expired (or was
    /// cancelled) before the allocation converged. Checked between phases,
    /// so the result is abandoned at a clean pass boundary — the worker
    /// that ran it is immediately free for the next job. Unlike
    /// [`AllocError::NonConvergence`] this is a fact about the wall clock,
    /// not the function, and must never be negatively cached.
    DeadlineExceeded {
        /// Name of the function being allocated.
        function: String,
        /// Completed passes when the deadline fired (0 = it expired while
        /// the job was still queued).
        passes: usize,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NonConvergence { function, passes } => write!(
                f,
                "register allocation of `{function}` did not converge after {passes} passes"
            ),
            AllocError::WorkerPanic { function, message } => {
                write!(f, "register allocation of `{function}` panicked: {message}")
            }
            AllocError::DeadlineExceeded { function, passes } => write!(
                f,
                "register allocation of `{function}` exceeded its deadline after {passes} passes"
            ),
        }
    }
}

impl Error for AllocError {}

/// Run graph-coloring register allocation on `func`.
///
/// # Errors
///
/// Returns [`AllocError::NonConvergence`] if spilling fails to reduce
/// register pressure within the configured pass bound (this indicates a
/// pathological input; the paper reports convergence in at most three
/// passes on real code).
pub fn allocate(func: &Function, config: &AllocatorConfig) -> Result<Allocation, AllocError> {
    allocate_with_deadline(func, config, &crate::Deadline::none())
}

/// [`allocate`] under a cooperative [`Deadline`](crate::Deadline): the
/// token is checked between the build, simplify, color, and spill phases
/// of every pass, and an expired token abandons the allocation at that
/// boundary.
///
/// # Errors
///
/// Everything [`allocate`] returns, plus
/// [`AllocError::DeadlineExceeded`] once `deadline` expires (including
/// before the first pass — a job that waited out its whole budget in a
/// queue fails immediately instead of burning a worker).
pub fn allocate_with_deadline(
    func: &Function,
    config: &AllocatorConfig,
    deadline: &crate::Deadline,
) -> Result<Allocation, AllocError> {
    let overdue = |passes: usize| AllocError::DeadlineExceeded {
        function: func.name().to_string(),
        passes,
    };
    if deadline.expired() {
        return Err(overdue(0));
    }
    if config.strategy == Strategy::Ssa {
        // The SSA track has no Build–Simplify–Color loop; it runs its own
        // construct → spill → color → destruct pipeline.
        return crate::ssa::allocate_ssa(func, config, deadline);
    }
    let mut f = func.clone();
    let mut passes: Vec<PassRecord> = Vec::new();
    let mut total_spilled = 0usize;
    let mut total_cost = 0f64;
    let mut total_coalesced = 0usize;
    let mut blocks: Option<(Cfg, LoopInfo)> = None;

    for _pass in 0..config.max_passes {
        // ---- build: renumber, coalesce, graph, costs -------------------
        let t_build = Instant::now();
        renumber(&mut f);
        // IRC does no up-front merging: its conservative coalescing runs
        // inside the simplify loop below.
        let coalesced = if config.strategy == Strategy::Irc {
            0
        } else {
            coalesce(
                &mut f,
                &CoalesceOpts {
                    mode: config.coalesce,
                    target: Some(&config.target),
                },
            )
        };
        if coalesced > 0 {
            renumber(&mut f); // compact the register table after merging
        }
        let (cfg, loops) = &*blocks.get_or_insert_with(|| {
            let cfg = Cfg::new(&f);
            let dom = Dominators::new(&f, &cfg);
            let loops = LoopInfo::new(&f, &cfg, &dom);
            (cfg, loops)
        });
        let live = Liveness::new(&f, cfg);
        let mut graph = build_graph(&f, cfg, &live);
        // IRC's engine adds its merges' edges to the graph it colors; the
        // pass record counts the built graph's.
        let edges = graph.num_edges();
        total_coalesced += coalesced;
        let costs = spill_costs(&f, loops);
        let build_time = t_build.elapsed();
        if deadline.expired() {
            return Err(overdue(passes.len()));
        }

        // ---- simplify ---------------------------------------------------
        // Classic strategies run the stack-building simplify phase; IRC
        // runs its worklist engine, which interleaves simplification with
        // conservative coalescing and produces its own stack + alias map.
        let t_simplify = Instant::now();
        let (outcome, irc_out) = if config.strategy == Strategy::Irc {
            let moves = collect_moves(&f, &graph);
            // The engine takes the graph over and hands it back as `graph`.
            let graph = std::mem::replace(&mut graph, InterferenceGraph::new(Vec::new()));
            let out = irc(graph, &moves, &costs, &config.target, config.spill_metric);
            (None, Some(out))
        } else {
            let out = simplify_with_metric(
                &graph,
                &costs,
                &config.target,
                config.strategy.heuristic(),
                config.spill_metric,
            );
            (Some(out), None)
        };
        let simplify_time = t_simplify.elapsed();
        if deadline.expired() {
            return Err(overdue(passes.len()));
        }
        // IRC's graph holds every built edge, so the checks below hold on it.
        let graph = irc_out.as_ref().map_or(&graph, |out| &out.graph);

        // ---- color ------------------------------------------------------
        // Chaitin's flow: when simplify marked spills, the pass goes
        // straight to spill-code insertion; coloring runs only on a pass
        // that marked nothing (Figure 4 / Figure 7's empty Color cells).
        let skip_color = outcome
            .as_ref()
            .is_some_and(|o| config.strategy == Strategy::Chaitin && !o.spill_marked.is_empty());
        let t_color = Instant::now();
        let coloring = match (&outcome, &irc_out) {
            _ if skip_color => None,
            (_, Some(out)) => {
                // Color the engine's graph, which among roots is the merged
                // graph, then propagate each root's color to the nodes
                // coalesced into it: a member never interferes with anything
                // its root does not, so the propagated coloring is valid on
                // the original graph too.
                let mut c = select(&out.graph, &out.stack, &config.target);
                for v in 0..out.alias.len() {
                    let r = out.alias[v] as usize;
                    if r != v {
                        c.color[v] = c.color[r];
                    }
                }
                Some(c)
            }
            (Some(out), None) => Some(select(graph, &out.stack, &config.target)),
            (None, None) => unreachable!("one of the two simplify paths ran"),
        };
        let color_time = if skip_color {
            Duration::ZERO
        } else {
            t_color.elapsed()
        };

        let mut uncolored: Vec<u32> = match &coloring {
            None => outcome
                .as_ref()
                .expect("skip_color implies the classic path")
                .spill_marked
                .clone(),
            Some(c) => c.uncolored(),
        };
        // An uncolored IRC web shows up once per member (propagation gave
        // them all the root's missing color), but the spill decision is
        // per-web: spill the root's range only, as George–Appel's
        // RewriteProgram does. The members keep their registers; their
        // copies to and from the spilled root survive into the next pass.
        if let Some(out) = &irc_out {
            uncolored.retain(|&v| out.alias[v as usize] == v);
        }
        let uncolored = uncolored;

        // Spill only spillable ranges. Select can leave an *unspillable*
        // temporary uncolored (its reload neighbours crowd it out); in that
        // case fall back to the cheapest spillable blocked candidate so the
        // pass still makes progress, instead of respilling the temporary
        // forever.
        let mut to_spill: Vec<u32> = uncolored
            .iter()
            .copied()
            .filter(|&v| costs[v as usize].is_finite())
            .collect();
        if to_spill.is_empty() && !uncolored.is_empty() {
            let blocked: &[u32] = match (&outcome, &irc_out) {
                (Some(o), _) => &o.blocked,
                (None, Some(i)) => &i.blocked,
                (None, None) => unreachable!("one of the two simplify paths ran"),
            };
            let fallback = blocked
                .iter()
                .copied()
                .filter(|&v| costs[v as usize].is_finite())
                .min_by(|&a, &b| {
                    costs[a as usize]
                        .partial_cmp(&costs[b as usize])
                        .expect("finite costs compare")
                });
            match fallback {
                Some(v) => to_spill.push(v),
                None => {
                    // Every candidate is unspillable: the graph genuinely
                    // cannot be colored within k registers.
                    return Err(AllocError::NonConvergence {
                        function: func.name().to_string(),
                        passes: passes.len() + 1,
                    });
                }
            }
        }
        let uncolored = to_spill;

        if uncolored.is_empty() {
            let coloring = coloring.expect("no spills implies coloring ran");
            debug_assert!(coloring.is_valid(graph));
            let assignment: Vec<PhysReg> = coloring
                .color
                .iter()
                .enumerate()
                .map(|(i, c)| PhysReg::new(graph.class(i as u32), c.expect("complete coloring")))
                .collect();
            // IRC applies its merges only on the converging pass: spilling
            // passes leave the copies in place (next pass re-coalesces on
            // the post-spill graph), so only now do the provisional merges
            // become actual removed copies. The vreg table keeps its merged
            // entries, so `assignment` stays index-compatible with `func`.
            let applied = match &irc_out {
                Some(out) => apply_coalesces(&mut f, &out.alias),
                None => 0,
            };
            total_coalesced += applied;
            let coalesced = coalesced + applied;
            passes.push(PassRecord {
                times: PhaseTimes {
                    build: build_time,
                    simplify: simplify_time,
                    color: color_time,
                    spill: Duration::ZERO,
                },
                live_ranges: graph.num_nodes(),
                edges,
                spilled: 0,
                spilled_cost: 0.0,
                coalesced,
            });
            let stats = AllocStats {
                live_ranges: passes.first().map_or(0, |p| p.live_ranges),
                registers_spilled: total_spilled,
                spill_cost: total_cost,
                passes: passes.len(),
                coalesced_copies: total_coalesced,
            };
            return Ok(Allocation {
                func: f,
                assignment,
                passes,
                stats,
            });
        }

        // ---- spill ------------------------------------------------------
        let pass_cost: f64 = uncolored
            .iter()
            .map(|&v| {
                let c = costs[v as usize];
                if c.is_finite() {
                    c
                } else {
                    0.0
                }
            })
            .sum();
        total_spilled += uncolored.len();
        total_cost += pass_cost;
        if deadline.expired() {
            return Err(overdue(passes.len()));
        }

        let t_spill = Instant::now();
        let spill_vregs: Vec<VReg> = uncolored.iter().map(|&v| VReg::new(v)).collect();
        insert_spill_code(
            &mut f,
            &spill_vregs,
            &SpillOpts {
                rematerialize: config.rematerialize,
            },
        );
        let spill_time = t_spill.elapsed();

        passes.push(PassRecord {
            times: PhaseTimes {
                build: build_time,
                simplify: simplify_time,
                color: color_time,
                spill: spill_time,
            },
            live_ranges: graph.num_nodes(),
            edges,
            spilled: uncolored.len(),
            spilled_cost: pass_cost,
            coalesced,
        });
    }

    Err(AllocError::NonConvergence {
        function: func.name().to_string(),
        passes: config.max_passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_graph;
    use optimist_ir::{BinOp, Cmp, FunctionBuilder, Imm, RegClass};

    /// A function with `n` integer values all simultaneously live.
    fn pressure_function(n: usize) -> Function {
        let mut b = FunctionBuilder::new(format!("pressure{n}"));
        b.set_ret_class(Some(RegClass::Int));
        let vals: Vec<_> = (0..n).map(|i| b.int(i as i64)).collect();
        // Sum them all so every value stays live until consumed.
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.binv(BinOp::AddI, acc, v);
        }
        b.ret(Some(acc));
        b.finish()
    }

    #[test]
    fn low_pressure_allocates_without_spills() {
        let f = pressure_function(4);
        for cfgs in [
            AllocatorConfig::new(Target::rt_pc(), Strategy::Chaitin),
            AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs),
        ] {
            let a = allocate(&f, &cfgs).unwrap();
            assert_eq!(a.stats.registers_spilled, 0);
            assert_eq!(a.stats.passes, 1);
            assert_eq!(a.stats.spill_cost, 0.0);
        }
    }

    #[test]
    fn high_pressure_forces_spills() {
        let f = pressure_function(24);
        let a = allocate(&f, &AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs)).unwrap();
        assert!(a.stats.registers_spilled > 0);
        assert!(a.stats.passes >= 2);
        assert!(a.regs_used(RegClass::Int) <= 16);
    }

    #[test]
    fn briggs_never_spills_more_than_chaitin() {
        for n in [4, 10, 18, 24, 40] {
            let f = pressure_function(n);
            let old = allocate(
                &f,
                &AllocatorConfig::new(Target::rt_pc(), Strategy::Chaitin),
            )
            .unwrap();
            let new =
                allocate(&f, &AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs)).unwrap();
            assert!(
                new.stats.registers_spilled <= old.stats.registers_spilled,
                "n={n}: briggs {} > chaitin {}",
                new.stats.registers_spilled,
                old.stats.registers_spilled
            );
            assert!(new.stats.spill_cost <= old.stats.spill_cost);
        }
    }

    #[test]
    fn chaitin_skips_color_phase_on_spilling_passes() {
        let f = pressure_function(24);
        let a = allocate(
            &f,
            &AllocatorConfig::new(Target::rt_pc(), Strategy::Chaitin),
        )
        .unwrap();
        for p in &a.passes {
            if p.spilled > 0 {
                assert_eq!(p.times.color, Duration::ZERO);
            }
        }
        // The final pass always colors.
        assert_eq!(a.passes.last().unwrap().spilled, 0);
    }

    #[test]
    fn assignment_covers_every_register_within_k() {
        let f = pressure_function(20);
        let a = allocate(
            &f,
            &AllocatorConfig::new(Target::with_int_regs(8), Strategy::Briggs),
        )
        .unwrap();
        assert_eq!(a.assignment.len(), a.func.num_vregs());
        for r in &a.assignment {
            if r.class == RegClass::Int {
                assert!(r.index < 8);
            }
        }
    }

    #[test]
    fn assignment_respects_interference() {
        let f = pressure_function(20);
        let a = allocate(
            &f,
            &AllocatorConfig::new(Target::with_int_regs(8), Strategy::Briggs),
        )
        .unwrap();
        // Rebuild the graph of the final function and check validity.
        let cfg = Cfg::new(&a.func);
        let live = Liveness::new(&a.func, &cfg);
        let g = build_graph(&a.func, &cfg, &live);
        for v in 0..g.num_nodes() as u32 {
            for &m in g.neighbors(v) {
                assert_ne!(
                    a.assignment[v as usize], a.assignment[m as usize],
                    "{v} and {m} interfere but share a register"
                );
            }
        }
    }

    #[test]
    fn loops_spill_cheapest_outside_first() {
        // A value used heavily inside a loop plus many values used outside:
        // the outside values should spill, not the loop value.
        let mut b = FunctionBuilder::new("loopy");
        b.set_ret_class(Some(RegClass::Int));
        let n = b.add_param(RegClass::Int, "n");
        let outside: Vec<_> = (0..18).map(|i| b.int(i)).collect();
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let i = b.new_vreg(RegClass::Int, "i");
        b.load_imm(i, Imm::Int(0));
        let hot = b.int(99);
        b.jump(head);
        b.switch_to(head);
        let c = b.cmp_i(Cmp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let one = b.int(1);
        b.bin(BinOp::AddI, i, i, one);
        // hot is used in the loop.
        let t = b.binv(BinOp::AddI, i, hot);
        let _ = t;
        b.jump(head);
        b.switch_to(exit);
        let mut acc = hot;
        for &v in &outside {
            acc = b.binv(BinOp::AddI, acc, v);
        }
        b.ret(Some(acc));
        let f = b.finish();
        let a = allocate(
            &f,
            &AllocatorConfig::new(Target::with_int_regs(8), Strategy::Briggs),
        )
        .unwrap();
        assert!(a.stats.registers_spilled > 0);
        // The allocation is valid and converged.
        assert!(a.stats.passes <= 4);
    }

    #[test]
    fn nonconvergence_is_reported_not_hung() {
        let f = pressure_function(24);
        let cfg = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs).with_max_passes(1); // too few
        let err = allocate(&f, &cfg).unwrap_err();
        assert!(matches!(err, AllocError::NonConvergence { .. }));
        assert!(err.to_string().contains("did not converge"));
    }

    #[test]
    fn coalescing_can_be_disabled() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let x = b.int(1);
        let y = b.new_vreg(RegClass::Int, "y");
        b.copy(y, x);
        b.ret(Some(y));
        let f = b.finish();
        let on = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs)
            .with_coalesce(crate::coalesce::CoalesceMode::Aggressive);
        let off = on.clone().with_coalesce(crate::coalesce::CoalesceMode::Off);
        let a_on = allocate(&f, &on).unwrap();
        let a_off = allocate(&f, &off).unwrap();
        assert!(a_on.stats.coalesced_copies > 0);
        assert_eq!(a_off.stats.coalesced_copies, 0);
        assert!(a_on.func.num_insts() < a_off.func.num_insts());
    }

    #[test]
    fn spill_metric_variants_all_converge_and_color_validly() {
        use crate::simplify::SpillMetric;
        let f = pressure_function(24);
        for metric in [
            SpillMetric::CostOverDegree,
            SpillMetric::Cost,
            SpillMetric::CostOverDegreeSquared,
        ] {
            let cfg = AllocatorConfig::new(Target::with_int_regs(8), Strategy::Briggs)
                .with_spill_metric(metric);
            let a = allocate(&f, &cfg).unwrap_or_else(|e| panic!("{metric:?}: {e}"));
            assert!(a.stats.registers_spilled > 0, "{metric:?}");
            // Validate the assignment against a rebuilt graph.
            let cfg_ = Cfg::new(&a.func);
            let live = Liveness::new(&a.func, &cfg_);
            let g = build_graph(&a.func, &cfg_, &live);
            for v in 0..g.num_nodes() as u32 {
                for &m in g.neighbors(v) {
                    assert_ne!(
                        a.assignment[v as usize], a.assignment[m as usize],
                        "{metric:?}: {v} vs {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn raw_cost_metric_ignores_degree() {
        use crate::simplify::{simplify_with_metric, SpillMetric};
        use crate::InterferenceGraph;
        // Two candidates: node 0 cheap but low degree, node 1 pricier but
        // huge degree. cost/degree prefers 1; raw cost prefers 0.
        let n = 12;
        let mut g = InterferenceGraph::new(vec![optimist_ir::RegClass::Int; n]);
        // Node 0 in a triangle (degree 2); node 1 connected to everything.
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        g.add_edge(2, 3);
        for x in 2..n as u32 {
            g.add_edge(1, x);
        }
        // Make nodes 2..n mutually interfere so the graph blocks at k=2.
        for a in 2..n as u32 {
            for b in (a + 1)..n as u32 {
                g.add_edge(a, b);
            }
        }
        let mut costs = vec![1000.0; n];
        costs[0] = 30.0; // cheap
        costs[1] = 90.0; // 90 / degree 10 = 9 < 30/2 = 15
        let t = Target::custom("t", 2, 8);

        let by_ratio = simplify_with_metric(
            &g,
            &costs,
            &t,
            Heuristic::ChaitinPessimistic,
            SpillMetric::CostOverDegree,
        );
        assert_eq!(by_ratio.spill_marked[0], 1, "ratio prefers the hub");

        let by_cost = simplify_with_metric(
            &g,
            &costs,
            &t,
            Heuristic::ChaitinPessimistic,
            SpillMetric::Cost,
        );
        assert_eq!(
            by_cost.spill_marked[0], 0,
            "raw cost prefers the cheap node"
        );
    }

    #[test]
    fn rematerialize_config_reduces_static_spill_slots() {
        // A function forced to spill constants: with remat on, the final
        // code contains fewer spill slots.
        let mut b = FunctionBuilder::new("consts");
        b.set_ret_class(Some(RegClass::Int));
        let vals: Vec<_> = (0..12).map(|i| b.int(1000 + i)).collect();
        // Interleave uses so all constants stay live together.
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.binv(BinOp::AddI, acc, v);
        }
        for &v in &vals {
            acc = b.binv(BinOp::AddI, acc, v);
        }
        b.ret(Some(acc));
        let f = b.finish();
        let target = Target::with_int_regs(6);

        let plain = allocate(&f, &AllocatorConfig::new(target.clone(), Strategy::Briggs)).unwrap();
        let cfg = AllocatorConfig::new(target, Strategy::Briggs).with_rematerialize(true);
        let remat = allocate(&f, &cfg).unwrap();
        let slots = |a: &Allocation| {
            (0..a.func.num_slots())
                .filter(|&s| a.func.slot(optimist_ir::FrameSlot::new(s as u32)).is_spill)
                .count()
        };
        assert!(
            slots(&remat) < slots(&plain),
            "remat should eliminate spill slots: {} vs {}",
            slots(&remat),
            slots(&plain)
        );
    }

    #[test]
    fn float_and_int_files_allocated_independently() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Float));
        // 6 floats live together (fits in 8), 4 ints live together.
        let fs: Vec<_> = (0..6).map(|i| b.float(i as f64)).collect();
        let is: Vec<_> = (0..4).map(|i| b.int(i)).collect();
        let mut facc = fs[0];
        for &v in &fs[1..] {
            facc = b.binv(BinOp::AddF, facc, v);
        }
        let mut iacc = is[0];
        for &v in &is[1..] {
            iacc = b.binv(BinOp::AddI, iacc, v);
        }
        let cvt = b.unv(optimist_ir::UnOp::IntToFloat, iacc);
        let r = b.binv(BinOp::AddF, facc, cvt);
        b.ret(Some(r));
        let f = b.finish();
        let a = allocate(&f, &AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs)).unwrap();
        assert_eq!(a.stats.registers_spilled, 0);
        assert!(a.regs_used(RegClass::Float) <= 8);
        assert!(a.regs_used(RegClass::Int) <= 16);
    }

    #[test]
    fn builder_chains_every_knob() {
        let cfg = AllocatorConfig::new(Target::rt_pc(), Strategy::Chaitin)
            .with_strategy(Strategy::Briggs)
            .with_coalesce(crate::coalesce::CoalesceMode::Off)
            .with_spill_metric(crate::simplify::SpillMetric::Cost)
            .with_rematerialize(true)
            .with_max_passes(7);
        assert_eq!(cfg.strategy, Strategy::Briggs);
        assert_eq!(cfg.coalesce, crate::coalesce::CoalesceMode::Off);
        assert_eq!(cfg.spill_metric, crate::simplify::SpillMetric::Cost);
        assert!(cfg.rematerialize);
        assert_eq!(cfg.max_passes, 7);
    }

    #[test]
    fn fingerprint_tracks_result_relevant_knobs_only() {
        let base = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        // The pass bound never changes a converged result, so it never
        // changes the print either — a cache warmed under one bound stays
        // addressable under another (bound sensitivity is the caller's job).
        assert_eq!(
            base.fingerprint(),
            base.clone().with_max_passes(3).fingerprint()
        );
        // Every result-relevant knob moves it.
        let variants = [
            base.clone().with_strategy(Strategy::Chaitin),
            base.clone().with_strategy(Strategy::Irc),
            base.clone()
                .with_coalesce(crate::coalesce::CoalesceMode::Off),
            base.clone()
                .with_spill_metric(crate::simplify::SpillMetric::Cost),
            base.clone().with_rematerialize(true),
            AllocatorConfig::new(Target::with_int_regs(8), Strategy::Briggs),
        ];
        let mut prints: Vec<u64> = variants.iter().map(|c| c.fingerprint()).collect();
        prints.push(base.fingerprint());
        let distinct: std::collections::BTreeSet<u64> = prints.iter().copied().collect();
        assert_eq!(distinct.len(), prints.len(), "fingerprint collision");
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned value: the cache key must not drift between releases.
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"optimist"), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in b"optimist" {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        });
    }

    #[test]
    fn classic_fingerprints_are_pinned() {
        // Byte-compatibility contract with caches persisted by
        // pre-`Strategy` daemons: these exact values come from the old
        // heuristic+coalesce canonical rendering and must never drift,
        // or every warm store goes cold across the upgrade.
        let chaitin = AllocatorConfig::new(Target::rt_pc(), Strategy::Chaitin);
        let briggs = AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs);
        assert_eq!(chaitin.fingerprint(), 0xc97b_7a5e_6216_2597);
        assert_eq!(briggs.fingerprint(), 0x88a6_81b0_8f1c_d059);
        // IRC is new; it must collide with neither classic print.
        let irc_ = AllocatorConfig::new(Target::rt_pc(), Strategy::Irc);
        assert_ne!(irc_.fingerprint(), chaitin.fingerprint());
        assert_ne!(irc_.fingerprint(), briggs.fingerprint());
        // Every other strategy and every result-relevant knob is pinned
        // too: stored entries are keyed by these exact values.
        let ssa = AllocatorConfig::new(Target::rt_pc(), Strategy::Ssa);
        assert_eq!(irc_.fingerprint(), 0x85b4_4f3a_071e_1e00);
        assert_eq!(ssa.fingerprint(), 0xdc83_ff16_c1b3_423b);
        let knobs = [
            (
                briggs
                    .clone()
                    .with_coalesce(crate::coalesce::CoalesceMode::Conservative),
                0x047e_e77b_d4a3_78b4,
            ),
            (
                briggs
                    .clone()
                    .with_spill_metric(crate::simplify::SpillMetric::Cost),
                0x6e52_922e_d4ef_53a7,
            ),
            (
                briggs.clone().with_rematerialize(true),
                0x581d_9ba6_e7fb_0498,
            ),
            (
                AllocatorConfig::new(Target::with_int_regs(8), Strategy::Briggs),
                0x3f29_3177_6704_fc21,
            ),
        ];
        for (cfg, pinned) in knobs {
            assert_eq!(cfg.fingerprint(), pinned, "{cfg:?}");
        }
    }

    #[test]
    fn irc_fingerprint_ignores_the_coalesce_knob() {
        // IRC does its own conservative coalescing; the ablation knob is
        // dead weight and deliberately excluded from its canonical print.
        let base = AllocatorConfig::new(Target::rt_pc(), Strategy::Irc);
        assert_eq!(
            base.fingerprint(),
            base.clone()
                .with_coalesce(crate::coalesce::CoalesceMode::Off)
                .fingerprint()
        );
        // ...but the other result-relevant knobs still move it.
        assert_ne!(
            base.fingerprint(),
            base.clone().with_rematerialize(true).fingerprint()
        );
    }

    #[test]
    fn ssa_fingerprint_ignores_every_ablation_knob() {
        // The SSA track has no simplify stack, no coalesce phase and no
        // rematerialization, so none of the classic ablation knobs can
        // change its result — the canonical print ignores them all.
        let base = AllocatorConfig::new(Target::rt_pc(), Strategy::Ssa);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        for variant in [
            base.clone()
                .with_coalesce(crate::coalesce::CoalesceMode::Off),
            base.clone()
                .with_spill_metric(crate::simplify::SpillMetric::Cost),
            base.clone().with_rematerialize(true),
        ] {
            assert_eq!(base.fingerprint(), variant.fingerprint());
        }
        // The target still moves it, and it collides with no other
        // strategy's print.
        let shrunk = AllocatorConfig::new(Target::with_int_regs(8), Strategy::Ssa);
        assert_ne!(base.fingerprint(), shrunk.fingerprint());
        for other in [Strategy::Chaitin, Strategy::Briggs, Strategy::Irc] {
            assert_ne!(
                base.fingerprint(),
                AllocatorConfig::new(Target::rt_pc(), other).fingerprint()
            );
        }
    }

    #[test]
    fn ssa_allocates_under_pressure_in_one_pass() {
        let f = pressure_function(24);
        let a = allocate(
            &f,
            &AllocatorConfig::new(Target::with_int_regs(8), Strategy::Ssa),
        )
        .unwrap();
        assert!(a.stats.registers_spilled > 0, "pressure must force spills");
        assert_eq!(a.stats.passes, 1, "the SSA track is single-pass");
        assert_eq!(a.passes.len(), 1);
        assert_eq!(a.func.num_vregs(), a.assignment.len());
    }

    #[test]
    fn irc_allocates_under_pressure_with_valid_assignment() {
        let f = pressure_function(24);
        let a = allocate(
            &f,
            &AllocatorConfig::new(Target::with_int_regs(8), Strategy::Irc),
        )
        .unwrap();
        assert!(a.stats.registers_spilled > 0);
        let cfg = Cfg::new(&a.func);
        let live = Liveness::new(&a.func, &cfg);
        let g = build_graph(&a.func, &cfg, &live);
        for v in 0..g.num_nodes() as u32 {
            for &m in g.neighbors(v) {
                assert_ne!(
                    a.assignment[v as usize], a.assignment[m as usize],
                    "{v} and {m} interfere but share a register"
                );
            }
        }
    }

    #[test]
    fn irc_coalesces_trivial_copy_chains() {
        let mut b = FunctionBuilder::new("f");
        b.set_ret_class(Some(RegClass::Int));
        let a = b.int(3);
        let c = b.new_vreg(RegClass::Int, "c");
        b.copy(c, a);
        let d = b.new_vreg(RegClass::Int, "d");
        b.copy(d, c);
        b.ret(Some(d));
        let f = b.finish();
        let alloc = allocate(&f, &AllocatorConfig::new(Target::rt_pc(), Strategy::Irc)).unwrap();
        assert_eq!(alloc.stats.registers_spilled, 0);
        assert_eq!(alloc.stats.coalesced_copies, 2);
        assert_eq!(
            alloc.func.insts().filter(|(_, _, i)| i.is_copy()).count(),
            0,
            "both copies must be merged away"
        );
    }

    #[test]
    fn worker_panic_error_formats() {
        let e = AllocError::WorkerPanic {
            function: "f".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "register allocation of `f` panicked: boom");
    }
}
