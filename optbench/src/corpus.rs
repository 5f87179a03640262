//! The rt-pc corpus, the seeded request stream, and the local reference
//! allocations every served record is checked against.

use optimist::ir::{FrameSlot, Module, VReg};
use optimist::machine::{size::function_size, Target};
use optimist::regalloc::{allocate, Allocation, AllocatorConfig, Strategy};
use optimist::serve::{FnResult, Json};
use optimist::sim::{run_allocated, run_virtual, AllocatedModule, ExecOptions, Scalar};
use optimist::workloads::DriverArg;
use std::collections::HashMap;
use std::sync::Arc;

/// Every strategy the wire protocol can select, in the order metrics
/// are reported.
pub const STRATEGIES: [(&str, Strategy); 4] = [
    ("briggs", Strategy::Briggs),
    ("chaitin", Strategy::Chaitin),
    ("irc", Strategy::Irc),
    ("ssa", Strategy::Ssa),
];

/// One corpus program, compiled the way `optimist remote` ships it.
pub struct Program {
    pub name: &'static str,
    pub driver: &'static str,
    pub args: Vec<Scalar>,
    pub module: Module,
    pub ir: String,
}

/// Compile every rt-pc workload program with `compile_optimized`.
pub fn compile() -> Result<Vec<Program>, String> {
    optimist::workloads::programs()
        .into_iter()
        .map(|p| {
            let module =
                optimist::compile_optimized(&p.source).map_err(|e| format!("{}: {e}", p.name))?;
            let args = p
                .smoke_args
                .iter()
                .map(|a| match *a {
                    DriverArg::Int(v) => Scalar::Int(v),
                    DriverArg::Float(v) => Scalar::Float(v),
                })
                .collect();
            Ok(Program {
                name: p.name,
                driver: p.driver,
                args,
                ir: module.to_string(),
                module,
            })
        })
        .collect()
}

/// The allocator configuration a request with `"strategy": name` asks for.
pub fn config(strategy: usize) -> AllocatorConfig {
    AllocatorConfig::new(Target::rt_pc(), STRATEGIES[strategy].1)
}

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every order, draw and renaming.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One `alloc` request of the stream.
#[derive(Clone)]
pub struct Request {
    pub program: usize,
    pub strategy: usize,
    /// The text is a variant of the compiled module that no earlier
    /// request sent, so the daemon's text memo misses it.
    pub fresh: bool,
    /// The prefix this request's α-renaming put in front of every vreg
    /// and slot name; `None` when the names are the compiled module's.
    pub renamed: Option<String>,
    /// The request line, without its newline.
    pub line: Arc<str>,
}

/// The NDJSON `alloc` line for `ir` under strategy `strategy`.
pub fn alloc_line(ir: &str, strategy: usize) -> String {
    let mut req = Json::obj([("req", Json::from("alloc"))]);
    req.push("ir", Json::from(ir));
    req.push(
        "config",
        Json::obj([("strategy", Json::from(STRATEGIES[strategy].0))]),
    );
    req.to_string()
}

/// The request lines of every (program, strategy) pair, as compiled.
pub fn original_lines(programs: &[Program]) -> Vec<Vec<Arc<str>>> {
    programs
        .iter()
        .map(|p| {
            (0..STRATEGIES.len())
                .map(|s| Arc::from(alloc_line(&p.ir, s)))
                .collect()
        })
        .collect()
}

/// The seeded order of one pass: every (program, strategy) pair once.
pub fn pass_order(seed: u64, pass: usize, programs: usize) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = (0..programs)
        .flat_map(|p| (0..STRATEGIES.len()).map(move |s| (p, s)))
        .collect();
    Rng::new(seed, 1 + pass as u64).shuffle(&mut order);
    order
}

/// `passes` passes of the compiled modules in seeded order.
pub fn plain_stream(seed: u64, passes: usize, originals: &[Vec<Arc<str>>]) -> Vec<Vec<Request>> {
    (0..passes)
        .map(|pass| {
            pass_order(seed, pass, originals.len())
                .into_iter()
                .map(|(program, strategy)| Request {
                    program,
                    strategy,
                    fresh: false,
                    renamed: None,
                    line: Arc::clone(&originals[program][strategy]),
                })
                .collect()
        })
        .collect()
}

/// How the editor-loop stream makes a fresh variant of a module.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Edit {
    /// Re-format the text: new bytes, the same module and names.
    Reformat,
    /// α-rename every vreg and slot: new bytes and names, the same
    /// canonical key.
    Rename,
}

/// The editor-loop stream: each request is drawn, by seed, to be a
/// byte-identical resubmit of the compiled module or a fresh variant of
/// it, made by `edit`, that no earlier request used.
pub fn editor_stream(
    seed: u64,
    passes: usize,
    programs: &[Program],
    originals: &[Vec<Arc<str>>],
    edit: Edit,
) -> Vec<Vec<Request>> {
    let mut draws = Rng::new(seed, 0xED17);
    let mut fresh = 0u64;
    let mut stream = plain_stream(seed, passes, originals);
    let mut edited: Vec<(&mut Request, u64)> = Vec::new();
    for req in stream.iter_mut().flatten() {
        if draws.next() & 1 == 1 {
            fresh += 1;
            let salt = draws.next();
            req.fresh = true;
            if edit == Edit::Rename {
                req.renamed = Some(format!("a{:x}x{fresh}_", salt & 0xffff_ffff));
            }
            edited.push((req, (salt << FRESH_BITS) | fresh));
        }
    }
    // Rendering the variants is most of set-up: split it over the two
    // threads the benchmark may use.
    let half = edited.len().div_ceil(2);
    std::thread::scope(|s| {
        for chunk in edited.chunks_mut(half.max(1)) {
            s.spawn(move || {
                for (req, mark) in chunk {
                    let program = &programs[req.program];
                    let ir = match req.renamed.as_deref() {
                        Some(prefix) => rename(&program.module, prefix).to_string(),
                        None => reformat(&program.ir, *mark),
                    };
                    req.line = Arc::from(alloc_line(&ir, req.strategy));
                }
            });
        }
    });
    stream
}

/// Low bits of a re-formatting mark that hold the variant's serial
/// number, which makes the variants of one stream distinct.
const FRESH_BITS: u32 = 20;

/// Re-format `ir` without changing the module it parses to (the parser
/// trims every line): line `i` gets a trailing space when bit `i` of
/// `mark` is set. Distinct marks give distinct bytes on modules of at
/// least 64 lines, which every corpus module is.
pub fn reformat(ir: &str, mark: u64) -> String {
    let mut out = String::with_capacity(ir.len() + 64);
    for (i, line) in ir.lines().enumerate() {
        out.push_str(line);
        if i < 64 && mark >> i & 1 == 1 {
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

/// α-rename every vreg and frame slot of every function by putting
/// `prefix` in front of its name. Allocation is blind to names, so the
/// canonical cache key stays while the raw text (and text key) changes.
pub fn rename(module: &Module, prefix: &str) -> Module {
    let mut m = module.clone();
    for f in m.functions_mut() {
        for i in 0..f.num_vregs() {
            let v = VReg::new(i as u32);
            let name = format!("{prefix}{}", f.vreg(v).name);
            f.rename_vreg(v, name);
        }
        for i in 0..f.num_slots() {
            let s = FrameSlot::new(i as u32);
            let name = format!("{prefix}{}", f.slot(s).name);
            f.rename_slot(s, name);
        }
    }
    m
}

/// Per-strategy codegen of one program, from a local allocation.
#[derive(Default, Clone, Copy)]
pub struct Codegen {
    pub cycles: u64,
    pub insts: u64,
    pub loads: u64,
    pub stores: u64,
    pub code_bytes: u64,
    pub copies_removed: u64,
    pub spill_cost: f64,
    pub passes: u64,
}

impl Codegen {
    pub fn add(&mut self, o: &Codegen) {
        self.cycles += o.cycles;
        self.insts += o.insts;
        self.loads += o.loads;
        self.stores += o.stores;
        self.code_bytes += o.code_bytes;
        self.copies_removed += o.copies_removed;
        self.spill_cost += o.spill_cost;
        self.passes += o.passes;
    }
}

/// What the daemon must answer for one (program, strategy): each
/// function's record, and the codegen of the allocation behind it.
pub struct Reference {
    pub records: Vec<FnResult>,
    pub codegen: Codegen,
}

/// Allocate `program` locally under `strategy`, run its driver on the
/// allocated code, and demand the virtual-register checksum bit for bit.
pub fn reference(program: &Program, strategy: usize) -> Result<Reference, String> {
    let cfg = config(strategy);
    let label = format!("{}/{}", program.name, STRATEGIES[strategy].0);
    let allocs: HashMap<String, Allocation> = program
        .module
        .functions()
        .iter()
        .map(|f| {
            allocate(f, &cfg)
                .map(|a| (f.name().to_string(), a))
                .map_err(|e| format!("{label}/{}: {e}", f.name()))
        })
        .collect::<Result<_, String>>()?;
    let mut codegen = Codegen::default();
    let mut records = Vec::new();
    for f in program.module.functions() {
        let a = &allocs[f.name()];
        records.push(FnResult::from_allocation(f.name(), a));
        codegen.copies_removed += a.stats.coalesced_copies as u64;
        codegen.spill_cost += a.stats.spill_cost;
        codegen.passes += a.stats.passes as u64;
        codegen.code_bytes += function_size(&a.func);
    }
    let opts = ExecOptions::default();
    let expected = run_virtual(&program.module, program.driver, &program.args, &opts)
        .map_err(|e| format!("{label}: virtual run failed: {e}"))?;
    let am = AllocatedModule::new(&program.module, &allocs, &Target::rt_pc());
    let run = run_allocated(&am, program.driver, &program.args, &opts)
        .map_err(|e| format!("{label}: allocated run failed: {e}"))?;
    if !same_scalar(&run.ret, &expected.ret) {
        return Err(format!(
            "{label}: allocated run returned {:?}, virtual run {:?}",
            run.ret, expected.ret
        ));
    }
    codegen.cycles = run.cycles;
    codegen.insts = run.insts;
    codegen.loads = run.loads;
    codegen.stores = run.stores;
    Ok(Reference { records, codegen })
}

fn same_scalar(a: &Option<Scalar>, b: &Option<Scalar>) -> bool {
    match (a, b) {
        (Some(Scalar::Float(x)), Some(Scalar::Float(y))) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Spill-slot names the allocator invents rather than derives from a
/// vreg: SSA destruction's cycle-break slot.
const INVENTED: [&str; 1] = ["pcopy"];

/// The record a request renamed with `prefix` must be answered with:
/// the local allocation's record with the caller's names. Every other
/// name the allocator gives a spill (spill slots, SSA versions) extends
/// the vreg's own name, so the caller's spilled names are the
/// reference's, prefixed. Each run holds this derivation to a real
/// local allocation of renamed text.
pub fn renamed_record(record: &FnResult, prefix: Option<&str>) -> FnResult {
    let mut r = record.clone();
    if let Some(prefix) = prefix {
        r.spilled = r
            .spilled
            .iter()
            .map(|s| match INVENTED.contains(&s.as_str()) {
                true => s.clone(),
                false => format!("{prefix}{s}"),
            })
            .collect();
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist::serve::cache::text_key;
    use optimist::serve::cache_key;

    fn lines(stream: &[Vec<Request>]) -> Vec<String> {
        stream
            .iter()
            .flatten()
            .map(|r| r.line.to_string())
            .collect()
    }

    #[test]
    fn the_same_seed_gives_identical_request_bytes() {
        let programs = compile().expect("corpus compiles");
        let originals = original_lines(&programs);
        for edit in [Edit::Reformat, Edit::Rename] {
            let a = editor_stream(7, 3, &programs, &originals, edit);
            let b = editor_stream(7, 3, &programs, &originals, edit);
            assert_eq!(lines(&a), lines(&b), "{edit:?}");
        }
        assert_eq!(
            lines(&plain_stream(7, 3, &originals)),
            lines(&plain_stream(7, 3, &originals))
        );
    }

    #[test]
    fn a_different_seed_gives_different_renamings() {
        let programs = compile().expect("corpus compiles");
        let originals = original_lines(&programs);
        let prefixes = |seed| -> Vec<String> {
            editor_stream(seed, 3, &programs, &originals, Edit::Rename)
                .iter()
                .flatten()
                .filter_map(|r| r.renamed.clone())
                .collect()
        };
        let (a, b) = (prefixes(7), prefixes(8));
        assert!(!a.is_empty() && !b.is_empty());
        assert!(a.iter().all(|p| !b.contains(p)), "{a:?} vs {b:?}");
        let mut unique = a.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), a.len(), "every renaming is fresh");
    }

    #[test]
    fn a_different_seed_gives_different_reformattings() {
        let programs = compile().expect("corpus compiles");
        let originals = original_lines(&programs);
        let variants = |seed| -> Vec<String> {
            editor_stream(seed, 3, &programs, &originals, Edit::Reformat)
                .iter()
                .flatten()
                .filter(|r| r.fresh)
                .map(|r| {
                    assert!(r.renamed.is_none(), "re-formatting keeps the names");
                    r.line.to_string()
                })
                .collect()
        };
        let (a, b) = (variants(7), variants(8));
        assert!(!a.is_empty() && !b.is_empty());
        assert!(
            a.iter().all(|v| !b.contains(v)),
            "a seed repeated a variant"
        );
        let mut unique = a.clone();
        unique.extend(originals.iter().flatten().map(|l| l.to_string()));
        unique.sort();
        unique.dedup();
        assert_eq!(
            unique.len(),
            a.len() + originals.len() * STRATEGIES.len(),
            "every variant is fresh"
        );
    }

    #[test]
    fn renamed_variants_keep_cache_key_but_change_text_key() {
        let programs = compile().expect("corpus compiles");
        let cfg = config(0);
        for p in &programs {
            let renamed = rename(&p.module, "a1x1_");
            let text = renamed.to_string();
            assert_ne!(text_key(&p.ir, &cfg), text_key(&text, &cfg), "{}", p.name);
            let parsed = optimist::ir::parse_module(&text).expect("renamed text parses");
            for (f, g) in p.module.functions().iter().zip(parsed.functions()) {
                assert_ne!(f.to_string(), g.to_string(), "{} was not renamed", f.name());
                assert_eq!(cache_key(f, &cfg), cache_key(g, &cfg), "{}", f.name());
            }
        }
    }

    #[test]
    fn reformatted_variants_keep_module_and_names_but_change_text_key() {
        let programs = compile().expect("corpus compiles");
        let cfg = config(0);
        for p in &programs {
            assert!(
                p.ir.lines().count() >= 64,
                "{} is too short to mark",
                p.name
            );
            let text = reformat(&p.ir, 1 | 1 << FRESH_BITS);
            assert_ne!(text, reformat(&p.ir, 2 | 1 << FRESH_BITS), "{}", p.name);
            assert_ne!(text_key(&p.ir, &cfg), text_key(&text, &cfg), "{}", p.name);
            let parsed = optimist::ir::parse_module(&text).expect("re-formatted text parses");
            assert_eq!(
                parsed.to_string(),
                p.ir,
                "{} parses to another module",
                p.name
            );
            for (f, g) in p.module.functions().iter().zip(parsed.functions()) {
                assert_eq!(cache_key(f, &cfg), cache_key(g, &cfg), "{}", f.name());
            }
        }
    }
}
