//! Set-up, the timed phase and the checks of each workload.

use crate::corpus::{self, Edit, Program, Reference, Request, STRATEGIES};
use crate::daemon::{Daemon, Peers, REPLICAS, STORE_PEERS, TRACE_PEERS};
use crate::stats::{self, Counters};
use crate::trace::{self, AllocFacts, Mirror, Span, Tier, Tracer};
use crate::wire::{Exchange, Http, Ndjson};
use crate::{Args, Env, Metric, Outcome, Workload};
use optimist::serve::{cache_key, Json};
use optimist::store::net::StoreClient;
use optimist::store::{Store, StoreOptions};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per measured run; `setup_s` is their median. A `cold_fleet`
/// set-up only starts daemons, so it is cheap to repeat more often.
fn setup_repeats(w: Workload) -> usize {
    match w {
        Workload::ColdFleet => 9,
        _ => 3,
    }
}

/// NDJSON connections of the editor-loop workloads (one per core of the
/// 2-core reference machine).
const WARM_CONNECTIONS: usize = 2;

/// Stream id of the traced phase, so its variants are fresh too.
const TRACE_STREAM: u64 = 0x7ACE;

/// Whole passes per run. A run always sends whole passes, and the same
/// number of them for a given `--seconds`, so every run of a workload
/// sends the same requests and its percentiles index the same ranks.
/// The divisor is the workload's pass time on two cores when the
/// benchmark was added, so a run measures about `--seconds` there.
fn passes(args: &Args) -> usize {
    let pass_seconds = match args.workload {
        Workload::ColdFleet => 3.3,
        Workload::WarmSession | Workload::WarmRename => 0.07,
        Workload::StoreWarm => 0.27,
    };
    ((args.seconds / pass_seconds).round() as usize).max(1)
}

/// The compiled corpus and the request stream of one run.
struct Prepared {
    programs: Vec<Program>,
    originals: Vec<Vec<Arc<str>>>,
    stream: Vec<Vec<Request>>,
    compile: Duration,
}

fn stream(
    args: &Args,
    seed: u64,
    programs: &[Program],
    originals: &[Vec<Arc<str>>],
) -> Vec<Vec<Request>> {
    let passes = passes(args);
    match args.workload {
        Workload::ColdFleet | Workload::StoreWarm => corpus::plain_stream(seed, passes, originals),
        Workload::WarmSession => {
            corpus::editor_stream(seed, passes, programs, originals, Edit::Reformat)
        }
        Workload::WarmRename => {
            corpus::editor_stream(seed, passes, programs, originals, Edit::Rename)
        }
    }
}

fn prepare(args: &Args) -> Result<Prepared, String> {
    let t = Instant::now();
    let programs = corpus::compile()?;
    let compile = t.elapsed();
    let originals = corpus::original_lines(&programs);
    let stream = stream(args, args.seed, &programs, &originals);
    Ok(Prepared {
        programs,
        originals,
        stream,
        compile,
    })
}

/// The daemons a workload runs against.
struct Fleet {
    peers: Option<Peers>,
    serve: Option<Daemon>,
}

impl Fleet {
    fn shutdown(self) -> Result<(), String> {
        let served = self.serve.map_or(Ok(()), Daemon::shutdown);
        let peers = self.peers.map_or(Ok(()), Peers::shutdown);
        served.and(peers)
    }
}

/// Send every compiled module once under every strategy.
fn populate(addr: &str, originals: &[Vec<Arc<str>>]) -> Result<(), String> {
    let mut conn = Ndjson::connect(addr)?;
    for line in originals.iter().flatten() {
        let (_, resp) = conn.call(line)?;
        if !resp.starts_with(r#"{"ok":true"#) {
            return Err(format!("populating answer: {resp:.300}"));
        }
    }
    Ok(())
}

fn setup(args: &Args, env: &Env, prep: &Prepared) -> Result<Fleet, String> {
    let bin = &env.bin_dir;
    Ok(match args.workload {
        Workload::ColdFleet => {
            let peers = Peers::start(bin, &env.state, &STORE_PEERS)?;
            Fleet {
                serve: Some(Daemon::serve(bin, &STORE_PEERS, false)?),
                peers: Some(peers),
            }
        }
        Workload::WarmSession | Workload::WarmRename => {
            let serve = Daemon::serve(bin, &[], false)?;
            populate(&serve.addr, &prep.originals)?;
            Fleet {
                peers: None,
                serve: Some(serve),
            }
        }
        Workload::StoreWarm => {
            let peers = Peers::start(bin, &env.state, &STORE_PEERS)?;
            let seeder = Daemon::serve(bin, &STORE_PEERS, false)?;
            populate(&seeder.addr, &prep.originals)?;
            seeder.shutdown()?;
            Fleet {
                serve: Some(Daemon::serve(bin, &STORE_PEERS, true)?),
                peers: Some(peers),
            }
        }
    })
}

/// One timed request.
struct Sample {
    pass: usize,
    index: usize,
    latency: Duration,
    /// When the last response byte arrived, from the phase's start.
    done: Duration,
    answer: Result<String, String>,
    /// The decomposed path's `functions` array (traced phase only).
    mirror: Option<Result<String, String>>,
}

/// What one timed phase saw.
#[derive(Default)]
struct Measured {
    samples: Vec<Sample>,
    /// Wall time of each pass's requests.
    pass_times: Vec<Duration>,
    rss_kib: u64,
    counters: Counters,
    problems: Vec<String>,
    spans: Vec<Vec<Span>>,
    facts: AllocFacts,
}

impl Measured {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// A local log under the run's state directory, for the decomposed
/// path's `Store::get`/`put`.
fn local_store(env: &Env, name: &str) -> Result<Store, String> {
    let dir = env.state.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(&dir, StoreOptions::default()).map_err(|e| format!("local store: {e}"))
}

/// The timed phase: every pass of `stream`, closed-loop.
fn measure(
    args: &Args,
    env: &Env,
    stream: &[Vec<Request>],
    fleet: &mut Fleet,
    traced: bool,
    mut mirror: Option<&mut Mirror>,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let t0 = Instant::now();
    match args.workload {
        Workload::ColdFleet => {
            for (pass, reqs) in stream.iter().enumerate() {
                let (peers, serve) = match (fleet.peers.take(), fleet.serve.take()) {
                    (Some(p), Some(s)) => (p, s),
                    _ => {
                        let p = Peers::start(&env.bin_dir, &env.state, &STORE_PEERS)?;
                        (p, Daemon::serve(&env.bin_dir, &STORE_PEERS, false)?)
                    }
                };
                // The decomposed path writes to peers of its own, so neither
                // it nor the daemon ever finds the other's results.
                let shadow = if traced {
                    let peers = Peers::start(&env.bin_dir, &env.state, &TRACE_PEERS)?;
                    let tier = Tier::connect(&TRACE_PEERS, REPLICAS, local_store(env, "mirror")?)?;
                    Some((peers, Mirror::new(Some(tier))))
                } else {
                    None
                };
                let mut conn = Ndjson::connect(&serve.addr)?;
                let mut tracer = Tracer::new(t0);
                let started = Instant::now();
                for (index, req) in reqs.iter().enumerate() {
                    let traced = shadow.as_ref().map(|(_, mir)| (mir, &mut tracer));
                    m.samples.push(send(
                        &mut |l| conn.call(l),
                        t0,
                        pass,
                        index,
                        req,
                        traced,
                        &mut m.facts,
                    ));
                }
                m.pass_times.push(started.elapsed());
                let c = Counters::read(&serve.stats()?);
                m.expect(
                    c.hits == 0.0 && c.memo_hits == 0.0 && c.store_hits == 0.0,
                    || format!("cold_fleet pass {pass} hit a cache: {c:?}"),
                );
                m.counters = m.counters.plus(&c);
                m.rss_kib = m.rss_kib.max(serve.peak_rss_kib()? + peers.peak_rss_kib()?);
                m.spans.push(tracer.spans);
                serve.shutdown()?;
                peers.shutdown()?;
                if let Some((peers, _)) = shadow {
                    peers.shutdown()?;
                }
            }
        }
        Workload::WarmSession | Workload::WarmRename => {
            let name = args.workload.name();
            let serve = fleet
                .serve
                .as_ref()
                .ok_or_else(|| format!("{name} without a daemon"))?;
            let before = Counters::read(&serve.stats()?);
            let flat: Vec<(usize, usize)> = stream
                .iter()
                .enumerate()
                .flat_map(|(p, reqs)| (0..reqs.len()).map(move |i| (p, i)))
                .collect();
            let next = AtomicUsize::new(0);
            let shared = mirror.as_deref();
            let collected = Mutex::new((Vec::new(), Vec::new(), AllocFacts::default()));
            let started = Instant::now();
            std::thread::scope(|s| -> Result<(), String> {
                let workers: Vec<_> = (0..WARM_CONNECTIONS)
                    .map(|_| {
                        s.spawn(|| -> Result<(), String> {
                            let mut conn = Ndjson::connect(&serve.addr)?;
                            let mut tracer = Tracer::new(t0);
                            let mut facts = AllocFacts::default();
                            let mut mine = Vec::new();
                            loop {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&(pass, index)) = flat.get(k) else {
                                    break;
                                };
                                let traced = shared.map(|mir| (mir, &mut tracer));
                                let req = &stream[pass][index];
                                mine.push(send(
                                    &mut |l| conn.call(l),
                                    started,
                                    pass,
                                    index,
                                    req,
                                    traced,
                                    &mut facts,
                                ));
                            }
                            let mut all = collected.lock().expect("collector poisoned");
                            all.0.extend(mine);
                            all.1.push(tracer.spans);
                            all.2.merge(&facts);
                            Ok(())
                        })
                    })
                    .collect();
                for w in workers {
                    w.join()
                        .map_err(|_| "connection thread panicked".to_string())??;
                }
                Ok(())
            })?;
            let (mut samples, spans, facts) = collected.into_inner().expect("collector poisoned");
            samples.sort_by_key(|s| (s.pass, s.index));
            // Two connections share the stream, so a pass ends when its
            // last answer arrives and the next begins where it ended.
            let mut end = Duration::ZERO;
            for pass in samples.chunk_by(|a, b| a.pass == b.pass) {
                let last = pass
                    .iter()
                    .map(|s| s.done)
                    .max()
                    .expect("passes are not empty");
                m.pass_times.push(last.saturating_sub(end));
                end = end.max(last);
            }
            m.samples = samples;
            m.spans = spans;
            m.facts = facts;
            let c = Counters::read(&serve.stats()?).since(&before);
            let identical = stream.iter().flatten().filter(|r| !r.fresh).count() as f64;
            m.expect(c.misses == 0.0 && c.hits > 0.0, || {
                format!("{name} LRU hit ratio {} below 1: {c:?}", c.hit_ratio())
            });
            m.expect(c.memo_hits == identical, || {
                format!(
                    "{name} memo hits {} != identical draws {identical}",
                    c.memo_hits
                )
            });
            m.counters = c;
            m.rss_kib = serve.peak_rss_kib()?;
        }
        Workload::StoreWarm => {
            let peers = fleet.peers.as_ref().ok_or("store_warm without peers")?;
            for (pass, reqs) in stream.iter().enumerate() {
                let serve = match fleet.serve.take() {
                    Some(s) => s,
                    None => Daemon::serve(&env.bin_dir, &STORE_PEERS, true)?,
                };
                if let Some(mir) = mirror.as_deref_mut() {
                    mir.reset_caches();
                }
                let mut http = Http::connect(serve.http.as_deref().ok_or("daemon without http")?)?;
                let mut tracer = Tracer::new(t0);
                let started = Instant::now();
                for (index, req) in reqs.iter().enumerate() {
                    let traced = mirror.as_deref().map(|mir| (mir, &mut tracer));
                    m.samples.push(send(
                        &mut |l| http.call(l),
                        t0,
                        pass,
                        index,
                        req,
                        traced,
                        &mut m.facts,
                    ));
                }
                m.pass_times.push(started.elapsed());
                let c = Counters::read(&serve.stats()?);
                m.expect(
                    c.store_misses == 0.0
                        && c.store_hits > 0.0
                        && c.failovers == 0.0
                        && c.store_errors == 0.0,
                    || format!("store_warm pass {pass} left the store path: {c:?}"),
                );
                m.counters = m.counters.plus(&c);
                m.rss_kib = m.rss_kib.max(serve.peak_rss_kib()? + peers.peak_rss_kib()?);
                m.spans.push(tracer.spans);
                serve.shutdown()?;
            }
        }
    }
    Ok(m)
}

/// One closed-loop request over `call`, then (traced) the same request
/// through the decomposed path.
fn send(
    call: &mut dyn FnMut(&str) -> Exchange,
    t0: Instant,
    pass: usize,
    index: usize,
    req: &Request,
    traced: Option<(&Mirror, &mut Tracer)>,
    facts: &mut AllocFacts,
) -> Sample {
    let started = Instant::now();
    let (latency, answer) = match call(&req.line) {
        Ok((latency, resp)) => (latency, Ok(resp)),
        Err(e) => (started.elapsed(), Err(e)),
    };
    let mirror = traced.map(|(mir, tracer)| {
        let id = (pass * 1000 + index) as u32;
        mir.answer(&req.line, id, Some(tracer), facts)
    });
    Sample {
        pass,
        index,
        latency,
        done: started.duration_since(t0) + latency,
        answer,
        mirror,
    }
}

/// The local reference of every (program, strategy), two at a time.
fn references(programs: &[Program]) -> Result<Vec<Vec<Reference>>, String> {
    let jobs: Vec<(usize, usize)> = (0..programs.len())
        .flat_map(|p| (0..STRATEGIES.len()).map(move |s| (p, s)))
        .collect();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(p, st)) = jobs.get(k) else { break };
                let r = corpus::reference(&programs[p], st);
                done.lock().expect("reference lock").insert((p, st), r);
            });
        }
    });
    let mut done = done.into_inner().expect("reference lock");
    (0..programs.len())
        .map(|p| {
            (0..STRATEGIES.len())
                .map(|s| done.remove(&(p, s)).expect("every job ran"))
                .collect()
        })
        .collect()
}

/// Check one served answer against the reference. Returns the number of
/// functions it answered, or why it is wrong.
fn check(
    sample: &Sample,
    req: &Request,
    programs: &[Program],
    refs: &[Vec<Reference>],
    expect_cached: bool,
) -> Result<usize, String> {
    let label = format!(
        "{}/{} pass {} #{}",
        programs[req.program].name, STRATEGIES[req.strategy].0, sample.pass, sample.index
    );
    let text = sample
        .answer
        .as_ref()
        .map_err(|e| format!("{label}: {e}"))?;
    let v = optimist::serve::json::parse(text).map_err(|e| format!("{label}: bad JSON: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{label}: refused: {text:.300}"));
    }
    let funcs = v
        .get("functions")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{label}: no functions"))?;
    let reference = &refs[req.program][req.strategy];
    if funcs.len() != reference.records.len() {
        return Err(format!(
            "{label}: {} records for {} functions",
            funcs.len(),
            reference.records.len()
        ));
    }
    for (served, expected) in funcs.iter().zip(&reference.records) {
        let Json::Obj(pairs) = served else {
            return Err(format!("{label}: record is not an object"));
        };
        let cached = served.get("cached").and_then(Json::as_bool);
        let stripped = Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "cached" && k != "key")
                .cloned()
                .collect(),
        )
        .to_string();
        let want = corpus::renamed_record(expected, req.renamed.as_deref())
            .to_store_json()
            .to_string();
        if stripped != want {
            return Err(format!(
                "{label}: {} differs from local allocate in {}",
                expected.name,
                differing_fields(&stripped, &want, ("served", "local")).join(", ")
            ));
        }
        if cached != Some(expect_cached) {
            return Err(format!(
                "{label}: {} answered cached={cached:?}",
                expected.name
            ));
        }
    }
    if let Some(mirror) = &sample.mirror {
        let mine = mirror
            .as_ref()
            .map_err(|e| format!("{label}: decomposed path: {e}"))?;
        let wire = v.get("functions").map(Json::to_string).unwrap_or_default();
        if *mine != wire {
            return Err(format!("{label}: decomposed path answered differently:\n  wire  {wire:.400}\n  layers {mine:.400}"));
        }
    }
    Ok(funcs.len())
}

/// The top-level fields in which two rendered records differ, each with
/// both values under the given labels.
fn differing_fields(a: &str, b: &str, labels: (&str, &str)) -> Vec<String> {
    let (Ok(Json::Obj(a)), Ok(Json::Obj(b))) = (
        optimist::serve::json::parse(a),
        optimist::serve::json::parse(b),
    ) else {
        return vec!["(unparsable)".to_string()];
    };
    let mut keys: Vec<&String> = Vec::new();
    for (k, _) in a.iter().chain(&b) {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let field =
        |o: &[(String, Json)], k: &str| o.iter().find(|(x, _)| x == k).map(|(_, v)| v.to_string());
    keys.into_iter()
        .filter(|k| field(&a, k) != field(&b, k))
        .map(|k| match (field(&a, k), field(&b, k)) {
            (Some(x), Some(y)) => format!("{k} ({} {x:.120}, {} {y:.120})", labels.0, labels.1),
            _ => k.clone(),
        })
        .collect()
}

/// The sum of `registers_spilled` over one answer's records.
fn served_spills(sample: &Sample) -> f64 {
    let Some(v) = sample
        .answer
        .as_ref()
        .ok()
        .and_then(|t| optimist::serve::json::parse(t).ok())
    else {
        return 0.0;
    };
    v.get("functions")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|f| f.get("stats")?.get("registers_spilled")?.as_f64())
        .sum()
}

/// The renamed reference is derived (names prefixed); hold it to a real
/// local allocation of the first renamed request of every pair.
fn check_renaming(
    stream: &[Vec<Request>],
    programs: &[Program],
    refs: &[Vec<Reference>],
) -> Vec<String> {
    let mut seen = BTreeMap::new();
    for req in stream.iter().flatten() {
        if let Some(prefix) = &req.renamed {
            seen.entry((req.program, req.strategy))
                .or_insert(prefix.clone());
        }
    }
    let mut problems = Vec::new();
    for ((p, s), prefix) in seen {
        let module = corpus::rename(&programs[p].module, &prefix);
        let cfg = corpus::config(s);
        for (f, expected) in module.functions().iter().zip(&refs[p][s].records) {
            let local = match optimist::regalloc::allocate(f, &cfg) {
                Ok(a) => optimist::serve::FnResult::from_allocation(f.name(), &a),
                Err(e) => {
                    problems.push(format!("renamed {}: {e}", f.name()));
                    continue;
                }
            };
            let want = corpus::renamed_record(expected, Some(&prefix))
                .to_store_json()
                .to_string();
            let got = local.to_store_json().to_string();
            if got != want {
                problems.push(format!(
                    "renamed reference of {}/{} is not what allocate answers in {}",
                    programs[p].name,
                    f.name(),
                    differing_fields(&got, &want, ("allocate", "derived")).join(", ")
                ));
            }
        }
    }
    problems
}

fn expect_cached(w: Workload) -> bool {
    w != Workload::ColdFleet
}

/// Verify every sample; returns (functions answered per pass, failed
/// requests).
fn verify(
    args: &Args,
    m: &Measured,
    stream: &[Vec<Request>],
    programs: &[Program],
    refs: &[Vec<Reference>],
    problems: &mut Vec<String>,
) -> (Vec<usize>, u64) {
    let mut functions = vec![0; stream.len()];
    let mut failed = 0;
    for s in &m.samples {
        match check(
            s,
            &stream[s.pass][s.index],
            programs,
            refs,
            expect_cached(args.workload),
        ) {
            Ok(n) => functions[s.pass] += n,
            Err(e) => {
                failed += 1;
                if problems.len() < 20 {
                    problems.push(e);
                }
            }
        }
    }
    (functions, failed)
}

fn latencies_ms(m: &Measured) -> Vec<f64> {
    let mut v: Vec<f64> = m
        .samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Each pass's functions answered per second.
fn pass_fn_per_s(m: &Measured, functions: &[usize]) -> Vec<f64> {
    functions
        .iter()
        .zip(&m.pass_times)
        .map(|(&f, t)| f as f64 / t.as_secs_f64())
        .collect()
}

/// The median latency, as the mean of the middle fifth of all timed
/// requests. Latencies cluster by module and strategy with gaps between
/// the clusters, and a request type whose latency straddles a gap moves
/// the plain median from one cluster to the next between runs.
fn p50_ms(m: &Measured) -> f64 {
    stats::central_mean(&latencies_ms(m), 0.2)
}

/// Functions answered per second of the timed phase: every pass's
/// functions over every pass's wall time.
fn fn_per_s(m: &Measured, functions: &[usize]) -> f64 {
    let timed: Duration = m.pass_times.iter().sum();
    functions.iter().sum::<usize>() as f64 / timed.as_secs_f64()
}

fn json_list(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|x| Json::from(*x)).collect())
}

/// The `--trace 0` run: set up several times, time every pass, check
/// every answer, report the end-to-end metrics.
pub fn measured(args: &Args, env: &Env) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut last: Option<(Prepared, Fleet)> = None;
    for _ in 0..setup_repeats(args.workload) {
        if let Some((_, fleet)) = last.take() {
            fleet.shutdown()?;
        }
        let t = Instant::now();
        let prep = prepare(args)?;
        let fleet = setup(args, env, &prep)?;
        setups.push(t.elapsed().as_secs_f64());
        last = Some((prep, fleet));
    }
    let (prep, mut fleet) = last.expect("at least one set-up");
    let measured = measure(args, env, &prep.stream, &mut fleet, false, None);
    let shut = fleet.shutdown();
    let m = measured?;
    shut?;

    let refs = references(&prep.programs)?;
    let mut problems = m.problems.clone();
    problems.extend(check_renaming(&prep.stream, &prep.programs, &refs));
    let (functions, failed) = verify(args, &m, &prep.stream, &prep.programs, &refs, &mut problems);
    let attempted = m.samples.len() as u64;

    let lat = latencies_ms(&m);
    let (tail, tail_pct) = stats::tail(&lat).ok_or("fewer than eleven requests")?;
    let mut metrics = vec![
        Metric::new("setup_s", stats::median(&setups), "s"),
        Metric::new("req_p50_ms", p50_ms(&m), "ms"),
        Metric::new("req_tail_ms", tail, "ms"),
        Metric::new("fn_per_s", fn_per_s(&m, &functions), "1/s"),
        Metric::new(
            "answered_frac",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
        Metric::new("peak_rss_mb", m.rss_kib as f64 / 1024.0, "MiB"),
    ];
    // The served counts, summed over the first pass's answers.
    let mut spills = [0f64; 4];
    for sample in m.samples.iter().filter(|s| s.pass == 0) {
        let strategy = prep.stream[0][sample.index].strategy;
        spills[strategy] += served_spills(sample);
    }
    for (s, (name, _)) in STRATEGIES.iter().enumerate() {
        metrics.push(Metric::new(format!("spills_{name}"), spills[s], "count"));
    }
    for (s, (name, _)) in STRATEGIES.iter().enumerate() {
        let cycles: u64 = refs.iter().map(|r| r[s].codegen.cycles).sum();
        metrics.push(Metric::new(
            format!("cycles_{name}"),
            cycles as f64,
            "cycles",
        ));
    }
    let notes = Json::obj([
        ("passes", Json::from(prep.stream.len())),
        ("requests", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("tail_percentile", Json::from(tail_pct)),
        ("tail_n", Json::from(lat.len())),
        (
            "timed_s",
            Json::from(m.pass_times.iter().sum::<Duration>().as_secs_f64()),
        ),
        ("setup_samples_s", json_list(&setups)),
        ("median_ms", Json::from(stats::median(&lat))),
        ("pass_fn_per_s", json_list(&pass_fn_per_s(&m, &functions))),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        notes,
    })
}

/// The decomposed path's state for the traced phase: warm like the
/// daemon on the editor-loop workloads, reading the populated peers
/// (with a local copy of their logs) on `store_warm`. `cold_fleet`
/// builds its own per pass.
fn mirror_for(args: &Args, env: &Env, prep: &Prepared) -> Result<Option<Mirror>, String> {
    match args.workload {
        Workload::ColdFleet => Ok(None),
        Workload::WarmSession | Workload::WarmRename => {
            let mirror = Mirror::new(None);
            for line in prep.originals.iter().flatten() {
                mirror.answer(line, 0, None, &mut AllocFacts::default())?;
            }
            Ok(Some(mirror))
        }
        Workload::StoreWarm => {
            let local = local_store(env, "mirror")?;
            let mut clients = STORE_PEERS
                .iter()
                .map(|a| StoreClient::connect(*a).map_err(|e| format!("{a}: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            for p in &prep.programs {
                for s in 0..STRATEGIES.len() {
                    let cfg = corpus::config(s);
                    for f in p.module.functions() {
                        let key = cache_key(f, &cfg);
                        let found = clients
                            .iter_mut()
                            .find_map(|c| c.get(key).ok().flatten())
                            .ok_or_else(|| {
                                format!("{}: key {key:016x} missing from every peer", f.name())
                            })?;
                        local
                            .put(key, found.0, &found.1)
                            .map_err(|e| e.to_string())?;
                    }
                }
            }
            let tier = Tier::connect(&STORE_PEERS, REPLICAS, local)?;
            Ok(Some(Mirror::new(Some(tier))))
        }
    }
}

/// The `--trace 1` run: an untraced timed phase, then a traced one over
/// a fresh stream; reports the per-layer metrics and the overhead.
pub fn traced(args: &Args, env: &Env) -> Result<Outcome, String> {
    let prep = prepare(args)?;
    let mut fleet = setup(args, env, &prep)?;
    let phases = (|| {
        let mut mirror = mirror_for(args, env, &prep)?;
        let untraced = measure(args, env, &prep.stream, &mut fleet, false, None)?;
        let tstream = stream(
            args,
            args.seed ^ TRACE_STREAM,
            &prep.programs,
            &prep.originals,
        );
        let traced = measure(args, env, &tstream, &mut fleet, true, mirror.as_mut())?;
        Ok::<_, String>((untraced, tstream, traced))
    })();
    let shut = fleet.shutdown();
    let (untraced, tstream, traced) = phases?;
    shut?;

    let refs = references(&prep.programs)?;
    let mut problems = untraced.problems.clone();
    problems.extend(traced.problems.iter().cloned());
    problems.extend(check_renaming(&tstream, &prep.programs, &refs));
    let (fn_u, failed_u) = verify(
        args,
        &untraced,
        &prep.stream,
        &prep.programs,
        &refs,
        &mut problems,
    );
    let (fn_t, failed_t) = verify(
        args,
        &traced,
        &tstream,
        &prep.programs,
        &refs,
        &mut problems,
    );
    let attempted = (untraced.samples.len() + traced.samples.len()) as u64;
    let failed = failed_u + failed_t;

    // Self time per layer, summed over every thread's spans.
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    for spans in &traced.spans {
        for (name, ns) in trace::self_times(spans) {
            *self_ns.entry(name).or_insert(0) += ns;
        }
    }
    let requests = traced.samples.len().max(1) as f64;
    let mut per_strategy = [0f64; 4];
    for r in tstream.iter().flatten() {
        per_strategy[r.strategy] += 1.0;
    }
    let us = |name: &str, n: f64| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e3 / n.max(1.0);

    let mut metrics = Vec::new();
    let wire: f64 = traced
        .samples
        .iter()
        .filter_map(|s| {
            let text = s.answer.as_ref().ok()?;
            let v = optimist::serve::json::parse(text).ok()?;
            let server_us = v.get("latency_us")?.as_f64()?;
            Some(s.latency.as_secs_f64() * 1e6 - server_us)
        })
        .sum::<f64>()
        / requests;
    metrics.push(Metric::new("serve.wire_us", wire, "us"));
    for (metric, span) in [
        ("serve.protocol.decode_us", trace::DECODE),
        ("serve.protocol.encode_us", trace::ENCODE),
        ("ir.parse_us", trace::IR_PARSE),
        ("serve.cache.text_key_us", trace::TEXT_KEY),
        ("serve.cache.canon_us", trace::CANON),
        ("serve.cache.memo_get_us", trace::MEMO_GET),
        ("serve.cache.memo_insert_us", trace::MEMO_INSERT),
        ("serve.cache.lru_get_us", trace::LRU_GET),
        ("serve.cache.lru_insert_us", trace::LRU_INSERT),
        ("serve.persist.decode_us", trace::PERSIST_DECODE),
        ("serve.persist.encode_us", trace::PERSIST_ENCODE),
        ("store.net.get_us", trace::NET_GET),
        ("store.net.put_us", trace::NET_PUT),
        ("store.get_us", trace::STORE_GET),
        ("store.put_us", trace::STORE_PUT),
        ("regalloc.allocate_us", trace::ALLOCATE),
    ] {
        metrics.push(Metric::new(metric, us(span, requests), "us"));
    }
    let c = &traced.counters;
    for (name, value, unit) in [
        ("serve.cache.memo_hit_ratio", c.memo_hit_ratio(), "ratio"),
        ("serve.cache.hit_ratio", c.hit_ratio(), "ratio"),
        ("serve.store.hit_ratio", c.store_hit_ratio(), "ratio"),
        ("serve.store.failovers", c.failovers, "count"),
        ("serve.store.errors", c.store_errors, "count"),
        ("regalloc.pipeline.queue_depth", c.queue_depth(), "jobs"),
        ("regalloc.pipeline.busy_max", c.busy_max, "workers"),
        (
            "regalloc.max_fn_ms",
            traced.facts.max_fn.as_secs_f64() * 1e3,
            "ms",
        ),
    ] {
        metrics.push(Metric::new(name, value, unit));
    }
    for (s, (name, _)) in STRATEGIES.iter().enumerate() {
        for (p, phase) in trace::PHASES.iter().enumerate() {
            metrics.push(Metric::new(
                format!("regalloc.{name}.{phase}_us"),
                us(trace::phase_span(s, p), per_strategy[s]),
                "us",
            ));
        }
        let mut cg = corpus::Codegen::default();
        for r in &refs {
            cg.add(&r[s].codegen);
        }
        for (layer, what, value, unit) in [
            ("regalloc", "passes", cg.passes as f64, "count"),
            (
                "regalloc",
                "copies_removed",
                cg.copies_removed as f64,
                "count",
            ),
            ("regalloc", "spill_cost", cg.spill_cost, "cost"),
            ("sim", "loads", cg.loads as f64, "count"),
            ("sim", "stores", cg.stores as f64, "count"),
            ("sim", "insts", cg.insts as f64, "count"),
            ("machine", "code_bytes", cg.code_bytes as f64, "bytes"),
        ] {
            metrics.push(Metric::new(format!("{layer}.{name}.{what}"), value, unit));
        }
    }
    metrics.push(Metric::new(
        "frontend.compile_ms",
        prep.compile.as_secs_f64() * 1e3,
        "ms",
    ));
    let (p50_u, p50_t) = (p50_ms(&untraced), p50_ms(&traced));
    let (rate_u, rate_t) = (fn_per_s(&untraced, &fn_u), fn_per_s(&traced, &fn_t));
    metrics.push(Metric::new("trace.overhead_p50_ms", p50_t - p50_u, "ms"));
    metrics.push(Metric::new(
        "trace.overhead_fn_per_s",
        rate_u - rate_t,
        "1/s",
    ));

    // The spans themselves, and each layer's share of traced self time.
    let total: u64 = self_ns.values().sum();
    let shares = Json::Obj(
        self_ns
            .iter()
            .map(|(k, v)| {
                (
                    k.to_string(),
                    Json::from((*v as f64 / total.max(1) as f64 * 1e4).round() / 1e4),
                )
            })
            .collect(),
    );
    write_spans(args, env, &traced.spans)?;
    let notes = Json::obj([
        ("self_time_shares", shares),
        ("untraced_p50_ms", Json::from(p50_u)),
        ("traced_p50_ms", Json::from(p50_t)),
        ("untraced_fn_per_s", Json::from(rate_u)),
        ("traced_fn_per_s", Json::from(rate_t)),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        notes,
    })
}

fn write_spans(args: &Args, env: &Env, spans: &[Vec<Span>]) -> Result<(), String> {
    use std::io::Write;
    std::fs::create_dir_all(&env.traces).map_err(|e| e.to_string())?;
    let path = env
        .traces
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (thread, list) in spans.iter().enumerate() {
        for s in list {
            writeln!(out, "{}", trace::span_json(s, thread)).map_err(|e| e.to_string())?;
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!("optbench: spans written to {}", path.display());
    Ok(())
}
