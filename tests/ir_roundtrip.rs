//! IR text round-trip over the whole corpus: printing a module and parsing
//! it back must reconstruct the module **exactly** (the `optimist-serve`
//! wire protocol depends on the text format being lossless), verify, print
//! identically on the second trip, and compute the same results in the
//! simulator.

use optimist::ir::{parse_module, verify_module, write_canonical, FrameSlot, Function, VReg};
use optimist::prelude::*;
use optimist::workloads::{self, generate_routine, DriverArg, GenConfig};
use proptest::prelude::*;

/// Debug test runs keep the budget small; release runs (the CI gate) use
/// the full count.
const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 256 };

/// Names that a printer comparing, escaping or defaulting names carelessly
/// would get wrong: another register's default name, a slot's default
/// name on a register, the empty name, quotes, backslashes and non-ASCII.
const ADVERSARIAL: [&str; 8] = [
    "v007",
    "s1",
    "",
    "q\"uote",
    "back\\slash",
    "ñ☃",
    "v1",
    "\\\"",
];

fn canonical_text(f: &Function) -> String {
    let mut s = String::new();
    write_canonical(&mut s, f).expect("writing to a String never fails");
    s
}

fn args_of(p: &workloads::Program) -> Vec<Scalar> {
    p.smoke_args
        .iter()
        .map(|a| match a {
            DriverArg::Int(v) => Scalar::Int(*v),
            DriverArg::Float(v) => Scalar::Float(*v),
        })
        .collect()
}

#[test]
fn corpus_round_trips_through_text() {
    let opts = ExecOptions::default();
    for p in workloads::programs() {
        let module = optimist::compile_optimized(&p.source).unwrap();
        let text = module.to_string();
        let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        verify_module(&parsed).unwrap_or_else(|e| panic!("{}: parsed module invalid: {e}", p.name));
        assert_eq!(
            parsed, module,
            "{}: text round trip lost information",
            p.name
        );

        // Same observable behaviour.
        let args = args_of(&p);
        let a = run_virtual(&module, p.driver, &args, &opts).unwrap();
        let b = run_virtual(&parsed, p.driver, &args, &opts)
            .unwrap_or_else(|e| panic!("{}: parsed module trapped: {e}", p.name));
        match (a.ret, b.ret) {
            (Some(Scalar::Float(x)), Some(Scalar::Float(y))) => {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", p.name);
            }
            (x, y) => assert_eq!(x, y, "{}", p.name),
        }
        assert_eq!(a.insts, b.insts, "{}: instruction counts differ", p.name);
    }
}

#[test]
fn round_trip_survives_allocation() {
    // Parse-back of the *allocated* (spill-code-bearing) SVD still runs.
    let p = workloads::program("SVD").unwrap();
    let module = optimist::compile_optimized(&p.source).unwrap();
    let cfg = AllocatorConfig::new(Target::rt_pc(), optimist::regalloc::Strategy::Briggs);
    let allocs = optimist::allocate_module(&module, &cfg).unwrap();

    let svd = &allocs["SVD"];
    let text = svd.func.to_string();
    let parsed = optimist::ir::parse_function(&text).unwrap();
    optimist::ir::verify_function(&parsed).unwrap();
    // Exact reconstruction, including the never-spill temporaries and
    // spill-slot annotations the allocator introduced.
    assert_eq!(&parsed, &svd.func);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// `parse(display(f)) == f`, structurally, over generator output — the
    /// invariant the serve protocol's content-addressed cache rests on.
    #[test]
    fn parse_display_is_identity_over_generated_routines(seed in 0u64..100_000) {
        let src = generate_routine("GEN", seed, &GenConfig::default());
        let module = optimist::compile_optimized(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let text = module.to_string();
        let parsed = parse_module(&text)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        prop_assert_eq!(&parsed, &module);

        // Canonical text is invariant under α-renaming of registers and
        // slots, adversarial names included, and the renamed function
        // still round-trips exactly…
        for f in module.functions() {
            let mut renamed = f.clone();
            let pick = |i: usize| ADVERSARIAL[(i + seed as usize) % ADVERSARIAL.len()];
            for i in 0..renamed.num_vregs() {
                let name = if i % 2 == 0 { pick(i).to_string() } else { format!("weird.{i}") };
                renamed.rename_vreg(VReg::new(i as u32), name);
            }
            for i in 0..renamed.num_slots() {
                renamed.rename_slot(FrameSlot::new(i as u32), pick(i + 1));
            }
            prop_assert_eq!(canonical_text(&renamed), canonical_text(f));
            let text = renamed.to_string();
            let back = optimist::ir::parse_function(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            prop_assert_eq!(&back, &renamed);
            // …and parsing canonical text reproduces the allocation-relevant
            // state (everything but names).
            let back = optimist::ir::parse_function(&canonical_text(f)).unwrap();
            prop_assert_eq!(canonical_text(&back), canonical_text(f));
        }
    }
}
