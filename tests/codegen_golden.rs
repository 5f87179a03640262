//! The codegen golden: EXPERIMENTS.md's strategy shootout, pinned.
//!
//! Five lanes — chaitin, briggs, briggs with conservative coalescing,
//! irc and ssa — allocate every workloads program (built with
//! `compile_optimized`) for the rt-pc. Each program's allocated code must
//! return what its virtual-register run returns, bit for bit, and each
//! lane's summed spills, copies removed, passes and simulated cycles must
//! equal [`GOLDEN`]. A change that moves a total updates the golden and
//! explains the move in CHANGES.md. Print the table with
//!
//! ```text
//! cargo test --release --test codegen_golden -- --nocapture
//! ```

use optimist::workloads::DriverArg;
use optimist_machine::Target;
use optimist_regalloc::{allocate, AllocatorConfig, CoalesceMode, Strategy};
use optimist_serve::protocol::parse_config;
use optimist_sim::{run_allocated, run_virtual, AllocatedModule, ExecOptions, Scalar};
use std::collections::HashMap;

/// One lane's corpus totals.
#[derive(Debug, Default, PartialEq, Eq, Clone, Copy)]
struct Totals {
    spills: usize,
    copies_removed: usize,
    passes: usize,
    cycles: u64,
}

const fn totals(spills: usize, copies_removed: usize, passes: usize, cycles: u64) -> Totals {
    Totals {
        spills,
        copies_removed,
        passes,
        cycles,
    }
}

/// EXPERIMENTS.md's shootout table, lane by lane.
const GOLDEN: [(&str, Totals); 5] = [
    ("chaitin", totals(614, 3_769, 61, 3_771_036)),
    ("briggs", totals(561, 3_769, 61, 3_768_864)),
    ("briggs-cons", totals(605, 2_347, 64, 4_014_998)),
    ("irc", totals(605, 2_721, 65, 3_983_531)),
    ("ssa", totals(1_169, 579, 39, 4_313_586)),
];

/// Each lane's local configuration and the wire config a client sends
/// for it.
fn lane(label: &str) -> (AllocatorConfig, &'static str) {
    let config = |strategy| AllocatorConfig::new(Target::rt_pc(), strategy);
    match label {
        "chaitin" => (config(Strategy::Chaitin), r#"{"strategy":"chaitin"}"#),
        "briggs" => (config(Strategy::Briggs), r#"{"strategy":"briggs"}"#),
        "briggs-cons" => (
            config(Strategy::Briggs).with_coalesce(CoalesceMode::Conservative),
            r#"{"strategy":"briggs","coalesce":"conservative"}"#,
        ),
        "irc" => (config(Strategy::Irc), r#"{"strategy":"irc"}"#),
        "ssa" => (config(Strategy::Ssa), r#"{"strategy":"ssa"}"#),
        _ => unreachable!("no lane {label}"),
    }
}

fn same_result(a: &Option<Scalar>, b: &Option<Scalar>) -> bool {
    match (a, b) {
        (Some(Scalar::Float(a)), Some(Scalar::Float(b))) => a.to_bits() == b.to_bits(),
        (a, b) => a == b,
    }
}

#[test]
fn shootout_totals_match_the_golden_table() {
    let target = Target::rt_pc();
    let programs: Vec<_> = optimist::workloads::programs()
        .into_iter()
        .map(|p| {
            let module = optimist::compile_optimized(&p.source).expect("corpus compiles");
            let args: Vec<Scalar> = p
                .smoke_args
                .iter()
                .map(|a| match *a {
                    DriverArg::Int(v) => Scalar::Int(v),
                    DriverArg::Float(v) => Scalar::Float(v),
                })
                .collect();
            let expected = run_virtual(&module, p.driver, &args, &ExecOptions::default())
                .expect("virtual run")
                .ret;
            (p, module, args, expected)
        })
        .collect();

    println!(
        "{:<12} {:>7} {:>15} {:>7} {:>14}",
        "strategy", "spills", "copies_removed", "passes", "cycles"
    );
    let mut measured = Vec::new();
    for (label, _) in GOLDEN {
        let (config, wire) = lane(label);
        // A client asking for this lane over the wire gets this config.
        let over_wire = parse_config(Some(&optimist_serve::json::parse(wire).unwrap())).unwrap();
        assert_eq!(over_wire.fingerprint(), config.fingerprint(), "{label}");

        let mut sum = Totals::default();
        for (p, module, args, expected) in &programs {
            let allocs: HashMap<_, _> = module
                .functions()
                .iter()
                .map(|f| {
                    let a = allocate(f, &config)
                        .unwrap_or_else(|e| panic!("{label}/{}/{}: {e}", p.name, f.name()));
                    sum.spills += a.stats.registers_spilled;
                    sum.copies_removed += a.stats.coalesced_copies;
                    sum.passes += a.stats.passes;
                    (f.name().to_string(), a)
                })
                .collect();
            let am = AllocatedModule::new(module, &allocs, &target);
            let run = run_allocated(&am, p.driver, args, &ExecOptions::default())
                .unwrap_or_else(|e| panic!("{label}/{}: {e}", p.name));
            assert!(
                same_result(&run.ret, expected),
                "{label}/{}: returned {:?}, the virtual run {expected:?}",
                p.name,
                run.ret
            );
            sum.cycles += run.cycles;
        }
        println!(
            "{label:<12} {:>7} {:>15} {:>7} {:>14}",
            sum.spills, sum.copies_removed, sum.passes, sum.cycles
        );
        measured.push((label, sum));
    }

    let get = |name| measured.iter().find(|(l, _)| *l == name).unwrap().1;
    // Conservative coalescing inside the simplify loop (IRC) must beat
    // one conservative pass up front: as many copies removed, no more
    // spills.
    let (cons, irc) = (get("briggs-cons"), get("irc"));
    assert!(
        irc.copies_removed >= cons.copies_removed,
        "{irc:?} vs {cons:?}"
    );
    assert!(irc.spills <= cons.spills, "{irc:?} vs {cons:?}");
    // The SSA track spills before it colors, so it never iterates: one
    // pass per function.
    let functions: usize = programs.iter().map(|(_, m, ..)| m.functions().len()).sum();
    assert_eq!(get("ssa").passes, functions, "ssa must be single-pass");

    assert_eq!(measured, GOLDEN.to_vec(), "the corpus codegen moved");
}
