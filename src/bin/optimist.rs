//! The `optimist` command-line driver: compile, optimize, allocate, and
//! run FT programs from the shell.
//!
//! ```text
//! optimist compile  FILE.ft [-O] [--routine NAME]       print IR
//! optimist allocate FILE.ft [options] [--routine NAME]  allocation report
//! optimist run      FILE.ft ENTRY [ARG...] [options]    execute a driver
//! optimist compare  FILE.ft [options]                   Chaitin vs Briggs table
//! optimist asm      FILE.ft [options]                   allocated-code listing
//! optimist remote   ADDR FILE.ft [options]              allocate via a daemon
//! optimist remote   ADDR --batch DIR [options]          stream a directory
//!                                                       through one daemon
//!                                                       connection
//!
//! FILE may be FT source (any extension) or a textual IR dump (`.ir`,
//! as produced by `optimist compile`).
//!
//! options:
//!   -O                 run the scalar optimizer (default for allocate/
//!                      run/compare; use --no-opt to disable)
//!   --no-opt           skip the optimizer
//!   --strategy S       chaitin | briggs | irc | ssa (default briggs)
//!   --int-regs N       integer registers, 1 to 65536 (default 16)
//!   --float-regs N     float registers, 1 to 65536 (default 8)
//!   --virtual          (run) use virtual registers instead of allocating
//!   --remat            rematerialize spilled constants
//!   --coalesce M       aggressive | conservative | off (default aggressive;
//!                      chaitin/briggs only — irc coalesces on its own and
//!                      ssa elides no-op phi copies instead)
//!   --threads N        worker-pool size for module allocation (default:
//!                      the machine's available parallelism); it never
//!                      changes any result
//!   --batch DIR        (remote) compile every .ft/.ir file in DIR and
//!                      stream them as one batch request; item reports
//!                      print in completion order
//! ```
//!
//! Arguments to `run` are integers or floats; the entry must be an FT
//! `FUNCTION` or `SUBROUTINE` taking scalars. The allocation daemon that
//! `remote` talks to is the separate `optimist-serve` binary.

use optimist::prelude::*;
use optimist::sim::AllocatedModule;
use std::process::ExitCode;

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("optimist: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    optimize: bool,
    strategy: Strategy,
    int_regs: usize,
    float_regs: usize,
    run_virtual: bool,
    rematerialize: bool,
    coalesce: Option<optimist::regalloc::CoalesceMode>,
    threads: Option<std::num::NonZeroUsize>,
    routine: Option<String>,
    batch: Option<std::path::PathBuf>,
    positional: Vec<String>,
}

fn parse_options(args: &[String], default_opt: bool) -> Result<Options, String> {
    let mut o = Options {
        optimize: default_opt,
        strategy: Strategy::Briggs,
        int_regs: 16,
        float_regs: 8,
        run_virtual: false,
        rematerialize: false,
        coalesce: None,
        threads: None,
        routine: None,
        batch: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-O" => o.optimize = true,
            "--no-opt" => o.optimize = false,
            "--virtual" => o.run_virtual = true,
            "--remat" => o.rematerialize = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                o.threads =
                    Some(v.parse().map_err(|_| {
                        format!("bad --threads `{v}` (expected a positive integer)")
                    })?);
            }
            "--coalesce" => {
                let v = it.next().ok_or("--coalesce needs a value")?;
                o.coalesce = Some(match v.as_str() {
                    "aggressive" => optimist::regalloc::CoalesceMode::Aggressive,
                    "conservative" => optimist::regalloc::CoalesceMode::Conservative,
                    "off" => optimist::regalloc::CoalesceMode::Off,
                    other => return Err(format!("unknown coalesce mode `{other}`")),
                });
            }
            "--strategy" => {
                let v = it.next().ok_or("--strategy needs a value")?;
                o.strategy = match v.as_str() {
                    "chaitin" => Strategy::Chaitin,
                    "briggs" => Strategy::Briggs,
                    "irc" => Strategy::Irc,
                    "ssa" => Strategy::Ssa,
                    other => return Err(format!("unknown strategy `{other}`")),
                };
            }
            "--int-regs" => {
                let v = it.next().ok_or("--int-regs needs a value")?;
                o.int_regs = register_count("--int-regs", v)?;
            }
            "--float-regs" => {
                let v = it.next().ok_or("--float-regs needs a value")?;
                o.float_regs = register_count("--float-regs", v)?;
            }
            "--routine" => {
                o.routine = Some(it.next().ok_or("--routine needs a value")?.clone());
            }
            "--batch" => {
                o.batch = Some(it.next().ok_or("--batch needs a directory")?.into());
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => o.positional.push(other.to_string()),
        }
    }
    // Same rule as the wire protocol: IRC coalesces on its own, so an
    // explicit mode alongside it would be silently ignored — fail loudly
    // instead.
    if o.strategy == Strategy::Irc && o.coalesce.is_some() {
        return Err("--strategy irc coalesces conservatively on its own; \
                    --coalesce only applies to chaitin/briggs"
            .into());
    }
    if o.strategy == Strategy::Ssa && o.coalesce.is_some() {
        return Err("--strategy ssa has no coalesce phase (no-op parallel \
                    copies are elided during SSA destruction); --coalesce \
                    only applies to chaitin/briggs"
            .into());
    }
    Ok(o)
}

/// A register-file size given to `flag`: an integer a register index can
/// name, so that no allocation sizes a table by a count it cannot hold.
fn register_count(flag: &str, v: &str) -> Result<usize, String> {
    use optimist::machine::MAX_REGS_PER_CLASS;
    v.parse()
        .ok()
        .filter(|n| (1..=MAX_REGS_PER_CLASS).contains(n))
        .ok_or_else(|| {
            format!("bad {flag} `{v}` (expected an integer from 1 to {MAX_REGS_PER_CLASS})")
        })
}

impl Options {
    fn target(&self) -> Target {
        Target::custom("cli", self.int_regs, self.float_regs)
    }

    /// Allocator configuration from the parsed flags.
    fn allocator_config(&self) -> AllocatorConfig {
        let mut cfg = AllocatorConfig::new(self.target(), self.strategy)
            .with_rematerialize(self.rematerialize);
        if let Some(mode) = self.coalesce {
            cfg = cfg.with_coalesce(mode);
        }
        cfg
    }

    /// The module-allocation worker pool, sized by `--threads`.
    fn pool(&self) -> WorkerPool {
        WorkerPool::new(
            self.threads
                .unwrap_or_else(optimist::regalloc::default_threads),
        )
    }

    fn load(&self) -> Result<optimist::ir::Module, String> {
        let path = self
            .positional
            .first()
            .ok_or("missing FILE.ft/.ir argument")?;
        self.load_path(path)
    }

    fn load_path(&self, path: &str) -> Result<optimist::ir::Module, String> {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        // `.ir` files hold the textual IR (e.g. an `optimist compile` dump);
        // everything else is FT source.
        let mut module = if path.ends_with(".ir") {
            optimist::ir::parse_module(&source).map_err(|e| format!("{path}: {e}"))?
        } else {
            optimist::frontend::compile(&source).map_err(|e| format!("{path}: {e}"))?
        };
        if self.optimize {
            optimist::opt::optimize_module(&mut module);
        }
        optimist::ir::verify_module(&module).map_err(|e| e.to_string())?;
        Ok(module)
    }
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .ok_or("usage: optimist <compile|allocate|run|compare> FILE.ft …")?;
    match cmd.as_str() {
        "compile" => cmd_compile(rest),
        "allocate" => cmd_allocate(rest),
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "graph" => cmd_graph(rest),
        "asm" => cmd_asm(rest),
        "remote" => cmd_remote(rest),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// `optimist asm FILE.ft [--routine NAME] [options]` — print the allocated
/// code as an assembly-style listing with physical registers.
fn cmd_asm(args: &[String]) -> Result<(), String> {
    let o = parse_options(args, true)?;
    let module = o.load()?;
    let cfg = o.allocator_config();
    for f in module.functions() {
        if let Some(name) = &o.routine {
            if f.name() != name {
                continue;
            }
        }
        let a = allocate(f, &cfg).map_err(|e| e.to_string())?;
        println!("{}", a.listing());
    }
    Ok(())
}

/// `optimist graph FILE.ft --routine NAME [options]` — emit the routine's
/// interference graph (post-allocation: colors and spills annotated) in
/// Graphviz DOT form on stdout.
fn cmd_graph(args: &[String]) -> Result<(), String> {
    let o = parse_options(args, true)?;
    let module = o.load()?;
    let name = o
        .routine
        .clone()
        .or_else(|| module.functions().first().map(|f| f.name().to_string()))
        .ok_or("empty module")?;
    let f = module
        .function(&name)
        .ok_or_else(|| format!("no routine `{name}`"))?;
    let cfg = o.allocator_config();
    let alloc = allocate(f, &cfg).map_err(|e| e.to_string())?;

    // Rebuild the final graph to render it with the assignment.
    let func = &alloc.func;
    let g = {
        let cfg_ = optimist::analysis::Cfg::new(func);
        let live = optimist::analysis::Liveness::new(func, &cfg_);
        optimist::regalloc::build_graph(func, &cfg_, &live)
    };
    let dot = g.to_dot(
        |v| func.vreg(optimist::ir::VReg::new(v)).name.clone(),
        |v| Some(Some(alloc.assignment[v as usize].index)),
    );
    print!("{dot}");
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let o = parse_options(args, false)?;
    let module = o.load()?;
    match &o.routine {
        Some(name) => {
            let f = module
                .function(name)
                .ok_or_else(|| format!("no routine `{name}`"))?;
            println!("{f}");
        }
        None => println!("{module}"),
    }
    Ok(())
}

fn cmd_allocate(args: &[String]) -> Result<(), String> {
    let o = parse_options(args, true)?;
    let module = o.load()?;
    let allocs = o.pool().allocate_module(&o.allocator_config(), &module);
    for (name, result) in allocs.iter() {
        if let Some(only) = &o.routine {
            if name != only {
                continue;
            }
        }
        let a = result.as_ref().map_err(|e| e.to_string())?;
        println!(
            "{:<12} live ranges {:>5}  spilled {:>4}  cost {:>10.0}  passes {}  coalesced {}",
            name,
            a.stats.live_ranges,
            a.stats.registers_spilled,
            a.stats.spill_cost,
            a.stats.passes,
            a.stats.coalesced_copies,
        );
    }
    Ok(())
}

fn parse_scalar(s: &str) -> Result<Scalar, String> {
    if let Ok(v) = s.parse::<i64>() {
        return Ok(Scalar::Int(v));
    }
    s.parse::<f64>()
        .map(Scalar::Float)
        .map_err(|_| format!("bad argument `{s}` (expected integer or float)"))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let o = parse_options(args, true)?;
    if o.positional.len() < 2 {
        return Err("usage: optimist run FILE.ft ENTRY [ARG...]".into());
    }
    let module = o.load()?;
    let entry = &o.positional[1];
    let scalars: Vec<Scalar> = o.positional[2..]
        .iter()
        .map(|s| parse_scalar(s))
        .collect::<Result<_, _>>()?;
    let opts = ExecOptions::default();

    let result = if o.run_virtual {
        run_virtual(&module, entry, &scalars, &opts).map_err(|e| e.to_string())?
    } else {
        let cfg = o.allocator_config();
        let allocs = o
            .pool()
            .allocate_module(&cfg, &module)
            .into_map()
            .map_err(|e| e.to_string())?;
        let am = AllocatedModule::new(&module, &allocs, &cfg.target);
        run_allocated(&am, entry, &scalars, &opts).map_err(|e| e.to_string())?
    };

    match result.ret {
        Some(Scalar::Int(v)) => println!("result: {v}"),
        Some(Scalar::Float(v)) => println!("result: {v}"),
        None => println!("result: (none)"),
    }
    println!(
        "cycles: {}   instructions: {}   loads: {}   stores: {}",
        result.cycles, result.insts, result.loads, result.stores
    );
    Ok(())
}

/// `optimist remote ADDR FILE.ft [options]` — compile locally, allocate on
/// a running daemon, and print the same report as `optimist allocate`.
/// With `--batch DIR`, every `.ft`/`.ir` file in DIR is compiled and sent
/// as one streaming batch request instead.
fn cmd_remote(args: &[String]) -> Result<(), String> {
    let o = parse_options(args, true)?;
    if let Some(dir) = o.batch.clone() {
        if o.positional.len() != 1 {
            return Err("usage: optimist remote ADDR --batch DIR [options]".into());
        }
        let addr = o.positional[0].clone();
        return cmd_remote_batch(&addr, &dir, &o);
    }
    if o.positional.len() != 2 {
        return Err("usage: optimist remote ADDR FILE.ft [options]".into());
    }
    let addr = o.positional[0].clone();
    // `load` reads the first positional as the file; shift ADDR out.
    let o = Options {
        positional: o.positional[1..].to_vec(),
        ..o
    };
    let module = o.load()?;

    use optimist::serve::Json;
    let config = remote_config(&o);

    let mut client = optimist::serve::Client::connect(addr.as_str())
        .map_err(|e| e.to_string())?
        .with_retry(optimist::serve::RetryPolicy::standard());
    let resp = client
        .alloc(&module.to_string(), config)
        .map_err(|e| e.to_string())?;
    let funcs = resp
        .get("functions")
        .and_then(Json::as_arr)
        .ok_or("malformed response: no functions array")?;
    for f in funcs {
        let name = f.get("name").and_then(Json::as_str).unwrap_or("?");
        if let Some(only) = &o.routine {
            if name != only {
                continue;
            }
        }
        print_remote_fn(name, f)?;
    }
    Ok(())
}

/// The protocol config object for `optimist remote`'s flags.
fn remote_config(o: &Options) -> optimist::serve::Json {
    use optimist::serve::Json;
    let mut config = Json::obj([
        (
            "strategy",
            Json::from(match o.strategy {
                Strategy::Chaitin => "chaitin",
                Strategy::Briggs => "briggs",
                Strategy::Irc => "irc",
                Strategy::Ssa => "ssa",
            }),
        ),
        ("target", Json::from("cli")),
        ("int_regs", Json::from(o.int_regs as u64)),
        ("float_regs", Json::from(o.float_regs as u64)),
    ]);
    // IRC coalesces on its own; sending an explicit mode alongside it is a
    // protocol error (and parse_options already rejects the combination),
    // so the field is only sent when the flag was actually given.
    if let Some(mode) = o.coalesce {
        config.push(
            "coalesce",
            Json::from(match mode {
                optimist::regalloc::CoalesceMode::Aggressive => "aggressive",
                optimist::regalloc::CoalesceMode::Conservative => "conservative",
                optimist::regalloc::CoalesceMode::Off => "off",
            }),
        );
    }
    config.push("rematerialize", Json::from(o.rematerialize));
    config
}

/// Print one function record from a remote response in the `optimist
/// allocate` report format.
fn print_remote_fn(name: &str, f: &optimist::serve::Json) -> Result<(), String> {
    use optimist::serve::Json;
    let stats = f.get("stats").ok_or("malformed response: no stats")?;
    let num = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "{:<12} live ranges {:>5}  spilled {:>4}  cost {:>10.0}  passes {}  coalesced {}{}",
        name,
        num("live_ranges"),
        num("registers_spilled"),
        num("spill_cost"),
        num("passes"),
        num("coalesced_copies"),
        if f.get("cached").and_then(Json::as_bool) == Some(true) {
            "  (cached)"
        } else {
            ""
        },
    );
    Ok(())
}

/// `optimist remote ADDR --batch DIR`: one streaming batch request for the
/// whole directory. Item reports print as they complete (which is not the
/// submission order), tagged by file name; the daemon's `done` record is
/// summarized at the end.
fn cmd_remote_batch(addr: &str, dir: &std::path::Path, o: &Options) -> Result<(), String> {
    use optimist::serve::Json;
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("ft" | "f" | "ir")
            )
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .ft/.f/.ir files in `{}`", dir.display()));
    }

    let mut items = Vec::with_capacity(files.len());
    for path in &files {
        let module = o.load_path(&path.display().to_string())?;
        let id = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let payload = Json::obj([("ir", Json::from(module.to_string()))]);
        items.push((Json::from(id.as_str()), payload));
    }

    let config = remote_config(o);
    let mut client = optimist::serve::Client::connect(addr)
        .map_err(|e| e.to_string())?
        .with_retry(optimist::serve::RetryPolicy::standard());
    let mut item_err: Option<String> = None;
    let done = client
        .batch(&items, config, |record| {
            let id = record.get("id").and_then(Json::as_str).unwrap_or("?");
            if record.get("ok").and_then(Json::as_bool) == Some(true) {
                println!("{id}:");
                if let Some(funcs) = record.get("functions").and_then(Json::as_arr) {
                    for f in funcs {
                        let name = f.get("name").and_then(Json::as_str).unwrap_or("?");
                        if print_remote_fn(name, f).is_err() {
                            println!("{name:<12} (malformed record)");
                        }
                    }
                }
            } else {
                let msg = record
                    .get("error")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .or_else(|| record.get("errors").map(|e| e.to_string()))
                    .unwrap_or_else(|| "(no error text)".into());
                println!("{id}: FAILED: {msg}");
                item_err.get_or_insert(format!("item `{id}` failed"));
            }
        })
        .map_err(|e| e.to_string())?;

    let items_n = done.get("items").and_then(Json::as_u64).unwrap_or(0);
    let errors_n = done.get("errors").and_then(Json::as_u64).unwrap_or(0);
    let latency = done.get("latency_us").and_then(Json::as_u64).unwrap_or(0);
    println!("batch done: {items_n} items, {errors_n} failed, {latency} us");
    match item_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let o = parse_options(args, true)?;
    let module = o.load()?;
    let rows = optimist::compare_module(&module, &o.target()).map_err(|e| e.to_string())?;
    println!(
        "{:<12} {:>7} {:>6} | {:>5} {:>5} {:>5} | {:>10} {:>10} {:>5}",
        "routine", "object", "ranges", "old", "new", "pct", "old cost", "new cost", "pct"
    );
    for r in rows {
        println!(
            "{:<12} {:>7} {:>6} | {:>5} {:>5} {:>4.0}% | {:>10.0} {:>10.0} {:>4.0}%",
            r.name,
            r.object_size,
            r.live_ranges,
            r.old.registers_spilled,
            r.new.registers_spilled,
            r.spill_pct(),
            r.old.spill_cost,
            r.new.spill_cost,
            r.cost_pct(),
        );
    }
    Ok(())
}
