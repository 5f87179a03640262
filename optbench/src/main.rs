//! `optbench`: the fleet benchmark. One workload, one seed, against the
//! real `optimist-serve` and `optimist-stored` binaries.
//!
//! ```text
//! optbench --workload cold_fleet|warm_session|store_warm|warm_rename --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! — the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A line before it records the commit (or a digest of the
//! sources outside a git checkout), core count, rustc version, seed and
//! store-peer labels. Run it from the repository root; see
//! `optbench/README.md`.

mod corpus;
mod daemon;
mod run;
mod stats;
mod trace;
mod wire;

use optimist::serve::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// The traffic mixes; `README.md` says why each was chosen, and why
/// `warm_rename` is not one of the benchmark's listed workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ColdFleet,
    WarmSession,
    StoreWarm,
    WarmRename,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_fleet" => Some(Workload::ColdFleet),
            "warm_session" => Some(Workload::WarmSession),
            "store_warm" => Some(Workload::StoreWarm),
            "warm_rename" => Some(Workload::WarmRename),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFleet => "cold_fleet",
            Workload::WarmSession => "warm_session",
            Workload::StoreWarm => "store_warm",
            Workload::WarmRename => "warm_rename",
        }
    }
}

/// One invocation's settings.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Where the benchmark keeps its run state: beside its own binary, in
/// the build directory, removed when the run ends.
pub struct Env {
    pub bin_dir: PathBuf,
    pub state: PathBuf,
    pub traces: PathBuf,
}

impl Env {
    fn new() -> Result<Env, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
        let bin_dir = exe.parent().ok_or("binary has no directory")?.to_path_buf();
        for bin in ["optimist-serve", "optimist-stored"] {
            if !bin_dir.join(bin).is_file() {
                return Err(format!(
                    "{bin} is not built beside {}; run optbench/run.sh",
                    exe.display()
                ));
            }
        }
        let build = bin_dir.parent().ok_or("build directory has no parent")?;
        let state = build.join(format!("optbench-state-{}", std::process::id()));
        std::fs::create_dir_all(&state)
            .map_err(|e| format!("cannot create {}: {e}", state.display()))?;
        Ok(Env {
            traces: build.join("optbench-traces"),
            bin_dir,
            state,
        })
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.state);
    }
}

/// The run's provenance, printed before the result.
fn record(args: &Args) -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    // Only this directory's own repository: git would otherwise report
    // the commit of any repository that happens to enclose the checkout.
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success() && std::path::Path::new(".git").exists())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut files = Vec::new();
    collect_sources(std::path::Path::new("crates"), &mut files);
    files.sort();
    files.push(PathBuf::from("Cargo.lock"));
    let mut digest = Vec::new();
    for f in &files {
        digest.extend_from_slice(f.to_string_lossy().as_bytes());
        digest.extend(std::fs::read(f).unwrap_or_default());
    }
    Json::obj([
        ("workload", Json::from(args.workload.name())),
        ("seed", Json::from(args.seed.to_string())),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("commit", Json::from(commit)),
        (
            "source_fnv",
            Json::from(format!("{:016x}", optimist::regalloc::fnv1a(&digest))),
        ),
        ("nproc", Json::from(nproc)),
        ("rustc", Json::from(rustc)),
        (
            "store_peers",
            Json::Arr(daemon::STORE_PEERS.iter().map(|p| Json::from(*p)).collect()),
        ),
        ("replicas", Json::from(daemon::REPLICAS)),
    ])
}

/// Every file under `dir`: with the commit unknown outside a git
/// checkout, their digest says which sources were measured.
fn collect_sources(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run found: counts, check failures and metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Json,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("optbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = match Env::new() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("optbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let record = record(&args);
    eprintln!("optbench: {record}");
    let outcome = if args.trace {
        run::traced(&args, &env)
    } else {
        run::measured(&args, &env)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("optbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for p in &outcome.problems {
        eprintln!("optbench: FAILED: {p}");
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let mut metrics = Json::obj([]);
    for m in &outcome.metrics {
        metrics.push(
            m.name.clone(),
            Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        );
    }
    let mut rec = Json::obj([("record", record)]);
    rec.push("notes", outcome.notes);
    println!("{rec}");
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
