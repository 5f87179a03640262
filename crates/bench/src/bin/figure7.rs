//! Regenerates the paper's **Figure 7** — CPU time for the allocator's
//! phases, per Build–Simplify–Color pass, for DQRDC, SVD, GRADNT and
//! HSSIAN, under both allocators. The parenthesized numbers in the spill
//! rows are the live ranges spilled that pass, as in the paper.
//!
//! The paper's times were CPU-seconds on a 60 Hz-clock machine; ours are
//! wall-clock milliseconds on the host. The shape to reproduce: build
//! dominates, simplify and color are cheap, Chaitin's color cells are empty
//! on spilling passes, and the second pass's simplify is much faster than
//! the first.
//!
//! A second table splits the first pass's build into its steps, for the
//! four routines and for the whole corpus (every function of every corpus
//! program). Each step is the public function the allocator calls, timed
//! in the allocator's order, best of three runs.
//!
//! Usage: `cargo run --release -p optimist-bench --bin figure7`

use optimist_analysis::{renumber, Cfg, Dominators, Liveness, LoopInfo};
use optimist_ir::Function;
use optimist_machine::Target;
use optimist_regalloc::{
    allocate, build_graph_par, coalesce, spill_costs, AllocatorConfig, CoalesceOpts, PassRecord,
    Strategy,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUTINES: &[(&str, &str)] = &[
    ("CEDETA", "DQRDC"),
    ("SVD", "SVD"),
    ("CEDETA", "GRADNT"),
    ("CEDETA", "HSSIAN"),
];

fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

fn spill_cell(p: &PassRecord) -> String {
    if p.spilled > 0 {
        format!("({}) {}", p.spilled, ms(p.times.spill))
    } else {
        String::new()
    }
}

/// The rows of the build split, in the allocator's order.
const BUILD_STEPS: [&str; 5] = [
    "renumber",
    "coalesce",
    "renumber again",
    "cfg..graph",
    "spill costs",
];

/// Time the first pass's build of `f` step by step, as `allocate` runs it
/// for `config` (Chaitin and Briggs build alike).
fn build_split(f: &Function, config: &AllocatorConfig) -> [Duration; 5] {
    let mut f = f.clone();
    let mut times = [Duration::ZERO; 5];
    let mut clock = Instant::now();
    let mut lap = |step: usize| {
        times[step] = clock.elapsed();
        clock = Instant::now();
    };
    renumber(&mut f);
    lap(0);
    let opts = CoalesceOpts {
        mode: config.coalesce,
        target: Some(&config.target),
        fixpoint: true,
    };
    let merged = coalesce(&mut f, &opts);
    lap(1);
    if merged > 0 {
        renumber(&mut f);
    }
    lap(2);
    let cfg = Cfg::new(&f);
    let live = Liveness::new(&f, &cfg);
    let dom = Dominators::new(&f, &cfg);
    let loops = LoopInfo::new(&f, &cfg, &dom);
    black_box(build_graph_par(&f, &cfg, &live, config.graph_threads.get()));
    lap(3);
    black_box(spill_costs(&f, &loops));
    lap(4);
    times
}

/// Best-of-three build split summed over `functions`.
fn best_split(functions: &[&Function], config: &AllocatorConfig) -> [Duration; 5] {
    let mut best = [Duration::MAX; 5];
    for _ in 0..3 {
        let mut sum = [Duration::ZERO; 5];
        for f in functions {
            for (total, t) in sum.iter_mut().zip(build_split(f, config)) {
                *total += t;
            }
        }
        for (b, t) in best.iter_mut().zip(sum) {
            *b = (*b).min(t);
        }
    }
    best
}

/// The second table: the first pass's build split per routine and over
/// the corpus, with each step's share of the corpus total.
fn print_build_split(routines: &[(String, Function)], config: &AllocatorConfig) {
    let corpus: Vec<Function> = optimist_workloads::programs()
        .iter()
        .flat_map(|p| {
            let m = optimist::compile_optimized(&p.source).expect("compiles");
            m.functions().to_vec()
        })
        .collect();
    let mut columns: Vec<(String, [Duration; 5])> = routines
        .iter()
        .map(|(name, f)| (name.clone(), best_split(&[f], config)))
        .collect();
    let all: Vec<&Function> = corpus.iter().collect();
    columns.push((
        format!("Corpus ({})", corpus.len()),
        best_split(&all, config),
    ));
    let corpus_total: Duration = columns.last().expect("corpus column").1.iter().sum();

    println!("\nFirst-pass build split (ms, best of 3; IRC skips the coalesce rows)");
    print!("{:<14}", "Step");
    for (name, _) in &columns {
        print!(" | {name:>12}");
    }
    println!(" | {:>6}", "Share");
    let width = 14 + columns.len() * 15 + 9;
    println!("{}", "-".repeat(width));
    for (step, label) in BUILD_STEPS.iter().enumerate() {
        print!("{label:<14}");
        for (_, times) in &columns {
            print!(" | {:>12}", ms(times[step]));
        }
        let share = columns.last().expect("corpus column").1[step].as_secs_f64()
            / corpus_total.as_secs_f64().max(f64::MIN_POSITIVE);
        println!(" | {:>5.1}%", share * 100.0);
    }
    println!("{}", "-".repeat(width));
    print!("{:<14}", "Build");
    for (_, times) in &columns {
        print!(" | {:>12}", ms(times.iter().sum()));
    }
    println!(" | {:>5.1}%", 100.0);
    println!("\n(cfg..graph = CFG, liveness, dominators, loops and the interference graph)");
}

fn main() {
    let target = Target::rt_pc();

    // Allocate each routine with both heuristics, collecting pass records.
    let mut columns: Vec<(String, Vec<PassRecord>, Vec<PassRecord>)> = Vec::new();
    let mut routines: Vec<(String, Function)> = Vec::new();
    for (prog, routine) in ROUTINES {
        let p = optimist_workloads::program(prog).expect("program exists");
        let m = optimist::compile_optimized(&p.source).expect("compiles");
        let f = m.function(routine).expect("routine exists");
        routines.push((routine.to_string(), f.clone()));
        let old =
            allocate(f, &AllocatorConfig::new(target.clone(), Strategy::Chaitin)).expect("old");
        let new =
            allocate(f, &AllocatorConfig::new(target.clone(), Strategy::Briggs)).expect("new");
        columns.push((routine.to_string(), old.passes, new.passes));
    }

    let max_passes = columns
        .iter()
        .map(|(_, o, n)| o.len().max(n.len()))
        .max()
        .unwrap_or(1);

    // Header.
    print!("{:<10}", "Phase");
    for (name, _, _) in &columns {
        print!(" | {:^21}", name);
    }
    println!();
    print!("{:<10}", "(ms)");
    for _ in &columns {
        print!(" | {:>10} {:>10}", "Old", "New");
    }
    println!();
    let width = 10 + columns.len() * 25;
    println!("{}", "-".repeat(width));

    for pass in 0..max_passes {
        for (label, get) in [
            ("Build", 0usize),
            ("Simplify", 1),
            ("Color", 2),
            ("Spill", 3),
        ] {
            print!("{label:<10}");
            for (_, old, new) in &columns {
                let cell = |passes: &Vec<PassRecord>| -> String {
                    match passes.get(pass) {
                        None => String::new(),
                        Some(p) => match get {
                            0 => ms(p.times.build),
                            1 => ms(p.times.simplify),
                            2 => {
                                if p.times.color.is_zero() {
                                    String::new() // Chaitin skipped it (Figure 7's blanks)
                                } else {
                                    ms(p.times.color)
                                }
                            }
                            _ => spill_cell(p),
                        },
                    }
                };
                print!(" | {:>10} {:>10}", cell(old), cell(new));
            }
            println!();
        }
        println!("{}", "-".repeat(width));
    }

    // Totals row.
    print!("{:<10}", "Total");
    for (_, old, new) in &columns {
        let total = |passes: &[PassRecord]| -> std::time::Duration {
            passes
                .iter()
                .map(|p| p.times.build + p.times.simplify + p.times.color + p.times.spill)
                .sum()
        };
        print!(" | {:>10} {:>10}", ms(total(old)), ms(total(new)));
    }
    println!();
    println!("\n(spill cells show the pass's spilled-range count in parentheses, as in the paper)");

    print_build_split(
        &routines,
        &AllocatorConfig::new(target.clone(), Strategy::Briggs),
    );
}
