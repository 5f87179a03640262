//! The traced run: the same request driven through each layer's public
//! functions in the daemon's order, one span around every call.
//!
//! Spans are recorded here, in the benchmark, around calls into the
//! layers; the daemons themselves are not instrumented. A span's self
//! time is its duration minus its children's (children never overlap).

use crate::corpus::STRATEGIES;
use optimist::ir::parse_module;
use optimist::ir::Function;
use optimist::regalloc::{allocate, AllocatorConfig};
use optimist::serve::cache::text_key;
use optimist::serve::persist::{decode_entry, encode_entry};
use optimist::serve::{cache_key, CacheEntry, FnResult, HashRing, Json, Request, ShardedLru};
use optimist::store::net::StoreClient;
use optimist::store::Store;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Layer names, one per kind of span. `REQUEST` is the parent of every
/// other span of one request.
pub const REQUEST: &str = "request";
pub const DECODE: &str = "serve.protocol.decode";
pub const TEXT_KEY: &str = "serve.cache.text_key";
pub const MEMO_GET: &str = "serve.cache.memo_get";
pub const MEMO_INSERT: &str = "serve.cache.memo_insert";
pub const IR_PARSE: &str = "ir.parse";
pub const CANON: &str = "serve.cache.canon";
pub const LRU_GET: &str = "serve.cache.lru_get";
pub const LRU_INSERT: &str = "serve.cache.lru_insert";
pub const NET_GET: &str = "store.net.get";
pub const NET_PUT: &str = "store.net.put";
pub const STORE_GET: &str = "store.get";
pub const STORE_PUT: &str = "store.put";
pub const PERSIST_DECODE: &str = "serve.persist.decode";
pub const PERSIST_ENCODE: &str = "serve.persist.encode";
pub const ENCODE: &str = "serve.protocol.encode";
pub const ALLOCATE: &str = "regalloc.allocate";
pub const PHASES: [&str; 4] = ["build", "simplify", "color", "spill"];

/// The span names of allocator phases, `[strategy][phase]`.
pub fn phase_span(strategy: usize, phase: usize) -> &'static str {
    const NAMES: [[&str; 4]; 4] = [
        [
            "regalloc.briggs.build",
            "regalloc.briggs.simplify",
            "regalloc.briggs.color",
            "regalloc.briggs.spill",
        ],
        [
            "regalloc.chaitin.build",
            "regalloc.chaitin.simplify",
            "regalloc.chaitin.color",
            "regalloc.chaitin.spill",
        ],
        [
            "regalloc.irc.build",
            "regalloc.irc.simplify",
            "regalloc.irc.color",
            "regalloc.irc.spill",
        ],
        [
            "regalloc.ssa.build",
            "regalloc.ssa.simplify",
            "regalloc.ssa.color",
            "regalloc.ssa.spill",
        ],
    ];
    NAMES[strategy][phase]
}

const NONE: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone)]
pub struct Span {
    pub req: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, req: u32, parent: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start,
            end: start,
        });
        id
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end = self.now();
    }

    fn span<T>(&mut self, req: u32, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(req, parent, name);
        let out = f();
        self.close(id);
        out
    }

    /// A child laid out after `at` for a duration measured elsewhere.
    fn after(&mut self, req: u32, parent: u32, name: &'static str, at: u64, d: Duration) -> u64 {
        let end = at + d.as_nanos() as u64;
        self.spans.push(Span {
            req,
            id: self.spans.len() as u32,
            parent,
            name,
            start: at,
            end,
        });
        end
    }
}

/// The decomposed daemon: the memo, the LRU and (when the workload has
/// one) a store tier, held in the benchmark's own process.
pub struct Mirror {
    memo: ShardedLru<Json>,
    lru: ShardedLru<CacheEntry>,
    tier: Option<Tier>,
}

/// The store tier of the decomposed path: one client per peer, routed
/// by the same ring the daemon builds, plus a local log that takes the
/// same gets and puts so `Store::get`/`put` are timed on a peer's log.
pub struct Tier {
    ring: HashRing,
    replicas: usize,
    clients: Vec<Mutex<StoreClient>>,
    local: Store,
}

impl Tier {
    pub fn connect(labels: &[&str], replicas: usize, local: Store) -> Result<Tier, String> {
        let clients = labels
            .iter()
            .map(|a| {
                StoreClient::connect(*a)
                    .map(Mutex::new)
                    .map_err(|e| format!("store peer {a}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Tier {
            ring: HashRing::new(labels),
            replicas,
            clients,
            local,
        })
    }
}

/// Per-allocation facts the traced run reports beside the spans.
#[derive(Default)]
pub struct AllocFacts {
    pub max_fn: Duration,
}

impl AllocFacts {
    pub fn merge(&mut self, o: &AllocFacts) {
        self.max_fn = self.max_fn.max(o.max_fn);
    }
}

impl Mirror {
    /// Geometry of a daemon run with default settings.
    pub fn new(tier: Option<Tier>) -> Mirror {
        Mirror {
            memo: ShardedLru::new(4096usize.div_ceil(4).max(16), 16),
            lru: ShardedLru::new(4096, 16),
            tier,
        }
    }

    /// Forget every cached answer, as a freshly started daemon would.
    pub fn reset_caches(&mut self) {
        let fresh = Mirror::new(None);
        self.memo = fresh.memo;
        self.lru = fresh.lru;
    }

    /// Answer `line` through the layers, recording spans as request
    /// `req` when `tracer` is given. Returns the `functions` array as
    /// the daemon would render it.
    pub fn answer(
        &self,
        line: &str,
        req: u32,
        tracer: Option<&mut Tracer>,
        facts: &mut AllocFacts,
    ) -> Result<String, String> {
        let mut rec = Recorder::new(tracer, req);
        let answer = self.answer_in(line, &mut rec, facts);
        rec.finish();
        answer
    }

    fn answer_in(
        &self,
        line: &str,
        rec: &mut Recorder<'_>,
        facts: &mut AllocFacts,
    ) -> Result<String, String> {
        let parsed = rec
            .time(DECODE, || Request::parse(line))
            .map_err(|e| e.to_string())?;
        let Request::Alloc { ir, config, .. } = parsed else {
            return Err("not an alloc request".to_string());
        };
        let memo_key = rec.time(TEXT_KEY, || text_key(&ir, &config));
        if let Some(memo) = rec.time(MEMO_GET, || self.memo.get(memo_key)) {
            return Ok(rec.time(ENCODE, || memo.to_string()));
        }
        let module = rec
            .time(IR_PARSE, || parse_module(&ir))
            .map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        for f in module.functions() {
            let key = rec.time(CANON, || cache_key(f, &config));
            let found = match rec.time(LRU_GET, || self.lru.get(key)) {
                Some(e) => Some(e),
                None => self.store_lookup(key, &config, rec)?,
            };
            let cached = found.is_some();
            let entry = match found {
                Some(e) => e,
                None => self.compute(f, key, &config, rec, facts)?,
            };
            out.push((entry, cached, f.name().to_string(), key));
        }
        let (answer, memo) = rec.time(ENCODE, || render(&out));
        rec.time(MEMO_INSERT, || self.memo.insert(memo_key, Arc::new(memo)));
        Ok(answer)
    }

    /// Walk the key's replica chain as the daemon does; a hit is decoded
    /// and promoted into the LRU.
    fn store_lookup(
        &self,
        key: u64,
        config: &AllocatorConfig,
        rec: &mut Recorder<'_>,
    ) -> Result<Option<Arc<CacheEntry>>, String> {
        let Some(tier) = &self.tier else {
            return Ok(None);
        };
        rec.time(STORE_GET, || tier.local.get(key));
        for peer in tier.ring.route_n(key, tier.replicas) {
            let mut client = tier.clients[peer].lock().expect("client poisoned");
            let got = rec
                .time(NET_GET, || client.get(key))
                .map_err(|e| format!("store get: {e}"))?;
            let Some((fp, payload)) = got else { continue };
            if fp != config.fingerprint() {
                return Ok(None);
            }
            let text =
                String::from_utf8(payload).map_err(|_| "store payload is not UTF-8".to_string())?;
            let entry = rec
                .time(PERSIST_DECODE, || decode_entry(&text))
                .ok_or("undecodable store payload")?;
            let entry = Arc::new(entry);
            rec.time(LRU_INSERT, || self.lru.insert(key, Arc::clone(&entry)));
            return Ok(Some(entry));
        }
        Ok(None)
    }

    /// Allocate a missed function, cache it, and write it through to
    /// every replica. `allocate`'s phase times become its child spans.
    fn compute(
        &self,
        f: &Function,
        key: u64,
        config: &AllocatorConfig,
        rec: &mut Recorder<'_>,
        facts: &mut AllocFacts,
    ) -> Result<Arc<CacheEntry>, String> {
        let span = rec.open(ALLOCATE);
        let alloc = allocate(f, config);
        rec.close(span);
        let alloc = alloc.map_err(|e| format!("{}: {e}", f.name()))?;
        if let Some((start, end)) = rec.bounds(span) {
            facts.max_fn = facts.max_fn.max(Duration::from_nanos(end - start));
            let strategy = strategy_index(config);
            let mut at = start;
            for pass in &alloc.passes {
                let t = &pass.times;
                for (phase, d) in [t.build, t.simplify, t.color, t.spill]
                    .into_iter()
                    .enumerate()
                {
                    at = rec.child(span, phase_span(strategy, phase), at, d);
                }
            }
        }
        let entry = Arc::new(CacheEntry::Ok(FnResult::from_allocation(f.name(), &alloc)));
        rec.time(LRU_INSERT, || self.lru.insert(key, Arc::clone(&entry)));
        if let Some(tier) = &self.tier {
            let fingerprint = config.fingerprint();
            let payload = rec.time(PERSIST_ENCODE, || encode_entry(&entry));
            for peer in tier.ring.route_n(key, tier.replicas) {
                let mut client = tier.clients[peer].lock().expect("client poisoned");
                rec.time(NET_PUT, || client.put(key, fingerprint, payload.as_bytes()))
                    .map_err(|e| format!("store put: {e}"))?;
            }
            rec.time(STORE_PUT, || {
                tier.local.put(key, fingerprint, payload.as_bytes())
            })
            .map_err(|e| format!("local store put: {e}"))?;
        }
        Ok(entry)
    }
}

/// The spans of one request: a parent, and children under it. Without a
/// tracer every call is made untimed.
struct Recorder<'a> {
    tracer: Option<&'a mut Tracer>,
    req: u32,
    root: u32,
}

impl<'a> Recorder<'a> {
    fn new(mut tracer: Option<&'a mut Tracer>, req: u32) -> Recorder<'a> {
        let root = tracer
            .as_deref_mut()
            .map_or(NONE, |t| t.open(req, NONE, REQUEST));
        Recorder { tracer, req, root }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.as_deref_mut() {
            Some(t) => t.span(self.req, self.root, name, f),
            None => f(),
        }
    }

    fn open(&mut self, name: &'static str) -> u32 {
        let (req, root) = (self.req, self.root);
        self.tracer
            .as_deref_mut()
            .map_or(NONE, |t| t.open(req, root, name))
    }

    fn close(&mut self, id: u32) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.close(id);
        }
    }

    fn bounds(&self, id: u32) -> Option<(u64, u64)> {
        let s = &self.tracer.as_deref()?.spans[id as usize];
        Some((s.start, s.end))
    }

    fn child(&mut self, parent: u32, name: &'static str, at: u64, d: Duration) -> u64 {
        let req = self.req;
        self.tracer
            .as_deref_mut()
            .map_or(at, |t| t.after(req, parent, name, at, d))
    }

    fn finish(self) {
        if let Some(t) = self.tracer {
            t.close(self.root);
        }
    }
}

type Answered = (Arc<CacheEntry>, bool, String, u64);

/// The response's `functions` array, and the memo's copy of it (every
/// record marked cached), rendered as the daemon renders them.
fn render(out: &[Answered]) -> (String, Json) {
    let record = |entry: &CacheEntry, cached: bool, name: &str, key: u64| {
        let CacheEntry::Ok(result) = entry else {
            unreachable!("negative entries are refused before rendering")
        };
        let mut r = result.to_json(cached);
        // A hit may carry another submitter's name; answer with the caller's.
        if result.name != name {
            r.set("name", Json::from(name));
        }
        r.push("key", Json::from(format!("{key:016x}")));
        r
    };
    let functions: Vec<Json> = out
        .iter()
        .map(|(e, cached, name, key)| record(e, *cached, name, *key))
        .collect();
    let memo: Vec<Json> = out
        .iter()
        .map(|(e, _, name, key)| record(e, true, name, *key))
        .collect();
    (Json::Arr(functions).to_string(), Json::Arr(memo))
}

fn strategy_index(config: &AllocatorConfig) -> usize {
    STRATEGIES
        .iter()
        .position(|(_, s)| *s == config.strategy)
        .expect("every wire strategy is benchmarked")
}

/// Self time per span name: duration minus the children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child) {
        *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(c);
    }
    out
}

/// One span as a JSON line, for the file written when the run ends.
pub fn span_json(s: &Span, thread: usize) -> String {
    let mut o = Json::obj([
        ("thread", Json::from(thread)),
        ("req", Json::from(s.req as u64)),
        ("id", Json::from(s.id as u64)),
        ("name", Json::from(s.name)),
        ("start_ns", Json::from(s.start)),
        ("end_ns", Json::from(s.end)),
    ]);
    if s.parent != NONE {
        o.push("parent", Json::from(s.parent as u64));
    }
    o.to_string()
}
