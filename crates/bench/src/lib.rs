#![warn(missing_docs)]

//! # optimist-bench
//!
//! The reproduction harness: binaries that regenerate every table and
//! figure of the paper's evaluation section, plus Criterion benchmarks for
//! allocator-phase timing.
//!
//! | target | reproduces |
//! |--------|------------|
//! | `cargo run --release -p optimist-bench --bin figure5` | Figure 5 — per-routine static results across the five programs |
//! | `cargo run --release -p optimist-bench --bin figure6` | Figure 6 — the quicksort register-sweep study |
//! | `cargo run --release -p optimist-bench --bin figure7` | Figure 7 — CPU time per allocator phase per pass |
//! | `cargo bench -p optimist-bench` | phase timings, end-to-end allocator comparisons, pure-coloring comparisons, ablations |
//! | `cargo test --release --test codegen_golden -- --nocapture` | the strategy shootout (EXPERIMENTS.md), pinned as a golden in the root package's tests |
//!
//! Pass `--quick` to the binaries to use the smoke-test problem sizes.

use optimist_machine::Target;
use optimist_regalloc::PassRecord;
use optimist_sim::Scalar;
use optimist_workloads::Program;

/// Render `v` with thousands separators, like the paper's tables.
pub fn thousands(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Percentage cell: the paper prints whole percentages.
pub fn pct_cell(old: f64, new: f64) -> String {
    if old == 0.0 {
        "0".to_string()
    } else {
        format!("{:.0}", (old - new) / old * 100.0)
    }
}

/// `--quick` on the command line?
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// One fully-measured corpus program (static rows + dynamic comparison).
pub struct MeasuredProgram {
    /// The program.
    pub program: Program,
    /// Static rows in paper order.
    pub rows: Vec<optimist::RoutineComparison>,
    /// Whole-program dynamic comparison.
    pub dynamic: optimist::DynamicComparison,
}

/// Measure one corpus program under `target`.
///
/// # Panics
///
/// Panics if compilation, allocation, or simulation fails — the corpus is
/// fixed, so any failure is a bug worth crashing on.
pub fn measure_program(program: &Program, target: &Target, quick: bool) -> MeasuredProgram {
    let (all_rows, dynamic) =
        optimist::compare_program(program, target, quick).unwrap_or_else(|e| panic!("{e}"));
    // Keep only the paper's rows, in the paper's order (drivers excluded,
    // like the paper's footnote 6).
    let rows = program
        .routines
        .iter()
        .map(|name| {
            all_rows
                .iter()
                .find(|r| r.name == *name)
                .unwrap_or_else(|| panic!("{}: missing routine {name}", program.name))
                .clone()
        })
        .collect();
    MeasuredProgram {
        program: program.clone(),
        rows,
        dynamic,
    }
}

/// Simulated cycles → "seconds" at the nominal RT/PC clock (≈5.9 MHz,
/// 170 ns per cycle), so Figure 6's runtime column reads like the paper's.
pub fn cycles_to_seconds(cycles: u64) -> f64 {
    cycles as f64 * 170e-9
}

/// Sum of a pass list's spilled counts (total registers spilled).
pub fn total_spilled(passes: &[PassRecord]) -> usize {
    passes.iter().map(|p| p.spilled).sum()
}

/// Format an `Option<Scalar>` checksum compactly.
pub fn fmt_checksum(s: Option<Scalar>) -> String {
    match s {
        Some(Scalar::Int(v)) => v.to_string(),
        Some(Scalar::Float(v)) => format!("{v:.6}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_separators() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1,000");
        assert_eq!(thousands(596713), "596,713");
    }

    #[test]
    fn pct_cells() {
        assert_eq!(pct_cell(101.0, 49.0), "51");
        assert_eq!(pct_cell(0.0, 0.0), "0");
        assert_eq!(pct_cell(3.0, 3.0), "0");
    }

    #[test]
    fn cycle_seconds_scale() {
        // 48M cycles ≈ 8.2 seconds, the paper's quicksort figure.
        let secs = cycles_to_seconds(48_000_000);
        assert!(secs > 8.0 && secs < 8.5);
    }
}
