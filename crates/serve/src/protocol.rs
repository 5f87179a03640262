//! The newline-delimited JSON wire protocol.
//!
//! Every request is a single line holding one JSON object with a `"req"`
//! discriminator; every response is a single line with an `"ok"` boolean.
//! The IR travels as the textual format of `optimist_ir::parse` /
//! `Display`, embedded as a JSON string — the format is lossless, so
//! clients can ship allocator output back through the daemon verbatim.
//!
//! Request kinds:
//!
//! ```json
//! {"req":"alloc","ir":"fn F(v0:int) {...}","config":{"strategy":"briggs",
//!  "target":"rt-pc","int_regs":16,"float_regs":8,"coalesce":"aggressive",
//!  "spill_metric":"cost/degree","rematerialize":false,"max_passes":64}}
//! {"req":"batch","config":{...},"items":[
//!  {"id":"mod-a","ir":"func A() ..."},
//!  {"id":7,"key":"00baadf00dcafe42"}]}
//! {"req":"stats"}
//! {"req":"ping"}
//! {"req":"health"}
//! {"req":"shutdown"}
//! ```
//!
//! `alloc` and `batch` requests may carry a top-level `"deadline_ms"`
//! budget; past it, unfinished work answers `{"ok":false,"err":"deadline"}`.
//! When the daemon is over its admission limit it answers
//! `{"ok":false,"err":"overloaded","retry_after_ms":N}` without queueing;
//! `health` reports `ok`, `degraded`, or `draining` without touching the
//! allocation path.
//!
//! Every `config` field is optional; the default is the paper's Briggs
//! configuration on the RT/PC. `int_regs` and `float_regs` are bounded by
//! [`MAX_REGS_PER_CLASS`] (a request past it is refused before any table is
//! sized by it). The `alloc` response carries one entry per
//! function with the register assignment (vreg index → `r3`/`f1`/`spill`),
//! the spilled vregs, the headline `AllocStats`, and the function's
//! 16-hex-digit content address (`"key"`) — the handle a client hands
//! back in a batch `"key"` item to re-fetch the result without
//! resubmitting (or the server re-parsing) the module text.
//!
//! A `batch` request carries many modules at once. Each item names either
//! a module (`"ir"`) or a previously computed result by its 16-hex-digit
//! content address (`"key"`, see [`crate::cache::cache_key`] — a key item
//! never computes; a miss is an error for that id). Items are answered by
//! *individual* response lines tagged with the client-supplied `"id"` —
//! on every front-end these arrive **as each item finishes, in
//! completion order** — followed by one final record
//! `{"done":true,"ok":…,"items":N,"errors":M,"latency_us":…}`. Each item
//! is admitted on its own, so an overloaded daemon sheds single items
//! (counted in `errors`), not whole batches. Item records carry no
//! latency field: the same item always yields a byte-identical record
//! given the same cache state, regardless of interleaving.
//!
//! A connection answers one request at a time, in order: a request
//! pipelined behind another waits for it, and the `done` record of a
//! batch precedes the answer to the next request.

use crate::json::Json;
use optimist_machine::{Target, MAX_REGS_PER_CLASS};
use optimist_regalloc::{
    AllocStats, Allocation, AllocatorConfig, CoalesceMode, SpillMetric, Strategy,
};

/// A parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Allocate every function in the embedded IR text.
    Alloc {
        /// The module, in IR text format.
        ir: String,
        /// Allocator knobs for this request.
        config: AllocatorConfig,
        /// Per-request compute budget in milliseconds (`"deadline_ms"`);
        /// overrides the daemon-wide default. `0` means already expired —
        /// only cache hits can answer.
        deadline_ms: Option<u64>,
    },
    /// Allocate many modules (or fetch many cached results) in one
    /// request; responses stream back per item, tagged with the item ids.
    Batch {
        /// The items, in submission order.
        items: Vec<BatchItem>,
        /// Allocator knobs shared by every item.
        config: AllocatorConfig,
        /// Compute budget shared by the whole batch (`"deadline_ms"`):
        /// one absolute deadline is computed at admission and every item
        /// races it.
        deadline_ms: Option<u64>,
    },
    /// Dump the metrics registry.
    Stats,
    /// Liveness probe.
    Ping,
    /// Report serving state: `ok`, `degraded` (persistent store tripped
    /// out of the path), or `draining` (shutdown in progress).
    Health,
    /// Stop the server (after responding).
    Shutdown,
}

/// One unit of a [`Request::Batch`]: a client-chosen id plus what to
/// allocate or look up.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The client-supplied tag (a JSON string or number), echoed verbatim
    /// on the item's response record. Uniqueness is the client's problem.
    pub id: Json,
    /// What the item asks for.
    pub payload: BatchPayload,
}

/// The body of a [`BatchItem`].
#[derive(Debug, Clone)]
pub enum BatchPayload {
    /// A module in IR text format, allocated like an `alloc` request.
    Ir(String),
    /// A content address (the `"key"` field, 16 hex digits): serve the
    /// cached result under the request's config fingerprint, or fail the
    /// item — never compute.
    Key(u64),
}

impl BatchItem {
    fn parse(v: &Json) -> Result<BatchItem, ProtocolError> {
        let Json::Obj(pairs) = v else {
            return Err(bad("batch items must be objects"));
        };
        let mut id = None;
        let mut payload = None;
        for (key, value) in pairs {
            match key.as_str() {
                "id" => match value {
                    Json::Str(_) | Json::Num(_) => id = Some(value.clone()),
                    _ => return Err(bad("item id must be a string or number")),
                },
                "ir" => {
                    let ir = value
                        .as_str()
                        .ok_or_else(|| bad("item \"ir\" must be a string"))?;
                    payload = match payload {
                        None => Some(BatchPayload::Ir(ir.to_string())),
                        Some(_) => return Err(bad("item carries both \"ir\" and \"key\"")),
                    };
                }
                "key" => {
                    let hex = value
                        .as_str()
                        .ok_or_else(|| bad("item \"key\" must be a hex string"))?;
                    let parsed = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
                        .map_err(|_| bad(format!("bad item key {hex:?}")))?;
                    payload = match payload {
                        None => Some(BatchPayload::Key(parsed)),
                        Some(_) => return Err(bad("item carries both \"ir\" and \"key\"")),
                    };
                }
                other => return Err(bad(format!("unknown item field {other:?}"))),
            }
        }
        Ok(BatchItem {
            id: id.ok_or_else(|| bad("batch item needs an \"id\""))?,
            payload: payload.ok_or_else(|| bad("batch item needs \"ir\" or \"key\""))?,
        })
    }
}

/// A malformed request line.
#[derive(Debug, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn bad(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let v = crate::json::parse(line).map_err(|e| bad(format!("bad JSON: {e}")))?;
        let kind = v
            .get("req")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field \"req\""))?;
        match kind {
            "alloc" => {
                let ir = v
                    .get("ir")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("alloc request needs a string field \"ir\""))?
                    .to_string();
                let config = parse_config(v.get("config"))?;
                let deadline_ms = parse_deadline_ms(&v)?;
                Ok(Request::Alloc {
                    ir,
                    config,
                    deadline_ms,
                })
            }
            "batch" => {
                let items = v
                    .get("items")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("batch request needs an array field \"items\""))?
                    .iter()
                    .map(BatchItem::parse)
                    .collect::<Result<Vec<_>, _>>()?;
                let config = parse_config(v.get("config"))?;
                let deadline_ms = parse_deadline_ms(&v)?;
                Ok(Request::Batch {
                    items,
                    config,
                    deadline_ms,
                })
            }
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(bad(format!("unknown request kind {other:?}"))),
        }
    }
}

/// Parse the optional top-level `"deadline_ms"` field. `0` is legal (an
/// already-expired deadline: serve from cache or answer `deadline`) —
/// tests use it to exercise the timeout path deterministically.
fn parse_deadline_ms(v: &Json) -> Result<Option<u64>, ProtocolError> {
    match v.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad("deadline_ms must be a non-negative integer")),
    }
}

/// Build an [`AllocatorConfig`] from the optional `"config"` object.
/// Unknown fields are rejected so typos fail loudly instead of silently
/// running the default configuration.
///
/// The allocator is selected by `"strategy"` (`"chaitin"`, `"briggs"`,
/// `"irc"`, `"ssa"`). Combinations that cannot mean anything — `"irc"`
/// or `"ssa"` together with an explicit `"coalesce"` mode — are rejected
/// rather than silently ignored.
pub fn parse_config(spec: Option<&Json>) -> Result<AllocatorConfig, ProtocolError> {
    let spec = match spec {
        None | Some(Json::Null) => {
            return Ok(AllocatorConfig::new(Target::rt_pc(), Strategy::Briggs))
        }
        Some(Json::Obj(pairs)) => pairs,
        Some(_) => return Err(bad("\"config\" must be an object")),
    };

    let mut strategy: Option<Strategy> = None;
    let mut target_name: Option<String> = None;
    let mut int_regs: Option<usize> = None;
    let mut float_regs: Option<usize> = None;
    let mut coalesce = None;
    let mut spill_metric = None;
    let mut rematerialize = None;
    let mut max_passes = None;

    for (key, value) in spec {
        match key.as_str() {
            "strategy" => {
                strategy = Some(match value.as_str() {
                    Some("chaitin") => Strategy::Chaitin,
                    Some("briggs") => Strategy::Briggs,
                    Some("irc") => Strategy::Irc,
                    Some("ssa") => Strategy::Ssa,
                    _ => {
                        return Err(bad(
                            "strategy must be \"chaitin\", \"briggs\", \"irc\" or \"ssa\"",
                        ))
                    }
                })
            }
            "target" => {
                target_name = Some(
                    value
                        .as_str()
                        .ok_or_else(|| bad("target must be a string"))?
                        .to_string(),
                )
            }
            "int_regs" => int_regs = Some(register_count("int_regs", value)?),
            "float_regs" => float_regs = Some(register_count("float_regs", value)?),
            "coalesce" => {
                coalesce = Some(match value.as_str() {
                    Some("aggressive") => CoalesceMode::Aggressive,
                    Some("conservative") => CoalesceMode::Conservative,
                    Some("off") => CoalesceMode::Off,
                    _ => {
                        return Err(bad(
                            "coalesce must be \"aggressive\", \"conservative\" or \"off\"",
                        ))
                    }
                })
            }
            "spill_metric" => {
                spill_metric =
                    Some(match value.as_str() {
                        Some("cost/degree") => SpillMetric::CostOverDegree,
                        Some("cost") => SpillMetric::Cost,
                        Some("cost/degree^2") => SpillMetric::CostOverDegreeSquared,
                        _ => return Err(bad(
                            "spill_metric must be \"cost/degree\", \"cost\" or \"cost/degree^2\"",
                        )),
                    })
            }
            "rematerialize" => {
                rematerialize = Some(
                    value
                        .as_bool()
                        .ok_or_else(|| bad("rematerialize must be a boolean"))?,
                )
            }
            "max_passes" => {
                max_passes = Some(
                    value
                        .as_u64()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad("max_passes must be a positive integer"))?,
                )
            }
            other => return Err(bad(format!("unknown config field {other:?}"))),
        }
    }

    let target = match (target_name.as_deref(), int_regs, float_regs) {
        (None | Some("rt-pc"), None, None) => Target::rt_pc(),
        (name, ints, floats) => Target::custom(
            name.unwrap_or("custom"),
            ints.unwrap_or(16),
            floats.unwrap_or(8),
        ),
    };

    let strategy = strategy.unwrap_or(Strategy::Briggs);
    if strategy == Strategy::Irc && coalesce.is_some() {
        return Err(bad(
            "strategy \"irc\" does its own conservative coalescing during \
             simplification; drop the \"coalesce\" field",
        ));
    }
    if strategy == Strategy::Ssa && coalesce.is_some() {
        return Err(bad(
            "strategy \"ssa\" has no coalesce phase — no-op parallel copies \
             are elided during SSA destruction; drop the \"coalesce\" field",
        ));
    }

    let mut config = AllocatorConfig::new(target, strategy);
    if let Some(mode) = coalesce {
        config = config.with_coalesce(mode);
    }
    if let Some(metric) = spill_metric {
        config = config.with_spill_metric(metric);
    }
    if let Some(on) = rematerialize {
        config = config.with_rematerialize(on);
    }
    if let Some(n) = max_passes {
        config = config.with_max_passes(n as usize);
    }
    Ok(config)
}

/// A register-file size: an integer from 1 to [`MAX_REGS_PER_CLASS`], the
/// most colors a register index can name. Checked before any allocation
/// sizes a per-node table by it.
fn register_count(key: &str, value: &Json) -> Result<usize, ProtocolError> {
    value
        .as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .filter(|n| (1..=MAX_REGS_PER_CLASS).contains(n))
        .ok_or_else(|| {
            bad(format!(
                "{key} must be an integer from 1 to {MAX_REGS_PER_CLASS}"
            ))
        })
}

/// The cached portion of one function's allocation result: everything the
/// wire response needs, cheap to clone out of the cache.
#[derive(Debug, Clone)]
pub struct FnResult {
    /// Function name (as submitted — names are not part of the cache key,
    /// so the stored copy is overwritten per response).
    pub name: String,
    /// Physical register per vreg index (`"r3"`, `"f0"`, or `"spill"`).
    pub assignment: Vec<String>,
    /// Names of the vregs that were spilled.
    pub spilled: Vec<String>,
    /// Headline statistics from the winning run.
    pub stats: AllocStats,
}

impl FnResult {
    /// Capture the cacheable parts of an [`Allocation`].
    pub fn from_allocation(name: &str, alloc: &Allocation) -> FnResult {
        // Spilled live ranges survive only as their spill slots, which the
        // spill inserter names `spill.<vreg name>` and flags `is_spill`.
        let spilled: Vec<String> = (0..alloc.func.num_slots())
            .map(|i| alloc.func.slot(optimist_ir::FrameSlot::new(i as u32)))
            .filter(|s| s.is_spill)
            .map(|s| s.name.strip_prefix("spill.").unwrap_or(&s.name).to_string())
            .collect();
        FnResult {
            name: name.to_string(),
            assignment: alloc.assignment.iter().map(|r| r.to_string()).collect(),
            spilled,
            stats: alloc.stats.clone(),
        }
    }

    /// Render as one entry of the `alloc` response's `"functions"` array.
    pub fn to_json(&self, cached: bool) -> Json {
        let mut obj = self.to_store_json();
        obj.push("cached", Json::from(cached));
        obj
    }

    /// Render the persistable fields (everything except the per-response
    /// `cached` flag) — the disk tier's payload encoding.
    pub fn to_store_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.as_str())),
            (
                "assignment",
                Json::Arr(
                    self.assignment
                        .iter()
                        .map(|s| Json::from(s.as_str()))
                        .collect(),
                ),
            ),
            (
                "spilled",
                Json::Arr(
                    self.spilled
                        .iter()
                        .map(|s| Json::from(s.as_str()))
                        .collect(),
                ),
            ),
            (
                "stats",
                Json::obj([
                    ("live_ranges", Json::from(self.stats.live_ranges)),
                    (
                        "registers_spilled",
                        Json::from(self.stats.registers_spilled),
                    ),
                    ("spill_cost", Json::from(self.stats.spill_cost)),
                    ("passes", Json::from(self.stats.passes)),
                    ("coalesced_copies", Json::from(self.stats.coalesced_copies)),
                ]),
            ),
        ])
    }

    /// Rebuild from the JSON produced by [`FnResult::to_store_json`] (a
    /// trailing `cached` member, if present, is ignored). Returns `None`
    /// if any field is missing or mistyped — a payload from a foreign or
    /// damaged source must never be half-decoded into a response.
    pub fn from_json(v: &Json) -> Option<FnResult> {
        let strings = |key: &str| -> Option<Vec<String>> {
            v.get(key)?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let stats = v.get("stats")?;
        let count = |key: &str| -> Option<usize> {
            stats
                .get(key)?
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
        };
        Some(FnResult {
            name: v.get("name")?.as_str()?.to_string(),
            assignment: strings("assignment")?,
            spilled: strings("spilled")?,
            stats: AllocStats {
                live_ranges: count("live_ranges")?,
                registers_spilled: count("registers_spilled")?,
                spill_cost: stats.get("spill_cost")?.as_f64()?,
                passes: count("passes")?,
                coalesced_copies: count("coalesced_copies")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_ir::RegClass;

    #[test]
    fn default_config_is_briggs_on_rt_pc() {
        let req = Request::parse(r#"{"req":"alloc","ir":"fn F() { entry: ret }"}"#).unwrap();
        let Request::Alloc { config, .. } = req else {
            panic!("wrong kind")
        };
        assert_eq!(config.strategy, Strategy::Briggs);
        assert_eq!(config.target.name(), "rt-pc");
        assert_eq!(config.target.regs(RegClass::Int), 16);
    }

    #[test]
    fn config_fields_map_onto_allocator_knobs() {
        let line = r#"{"req":"alloc","ir":"","config":{
            "strategy":"chaitin","target":"tiny","int_regs":4,"float_regs":2,
            "coalesce":"off","spill_metric":"cost","rematerialize":true,
            "max_passes":7}}"#
            .replace('\n', " ");
        let Request::Alloc { config, .. } = Request::parse(&line).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(config.strategy, Strategy::Chaitin);
        assert_eq!(config.target.name(), "tiny");
        assert_eq!(config.target.regs(RegClass::Int), 4);
        assert_eq!(config.target.regs(RegClass::Float), 2);
        assert_eq!(config.coalesce, CoalesceMode::Off);
        assert_eq!(config.spill_metric, SpillMetric::Cost);
        assert!(config.rematerialize);
        assert_eq!(config.max_passes, 7);
    }

    #[test]
    fn register_counts_must_fit_a_register_index() {
        let parse = |key: &str, n: &str| {
            Request::parse(&format!(
                r#"{{"req":"alloc","ir":"","config":{{"{key}":{n}}}}}"#
            ))
        };
        for key in ["int_regs", "float_regs"] {
            for bad in ["0", "65537", "1000000000000", "-1", "2.5", "\"16\""] {
                let err = parse(key, bad).unwrap_err();
                assert_eq!(
                    err.0,
                    format!("{key} must be an integer from 1 to 65536"),
                    "{key}:{bad}"
                );
            }
            let Request::Alloc { config, .. } = parse(key, "65536").unwrap() else {
                panic!("wrong kind")
            };
            let class = if key == "int_regs" {
                RegClass::Int
            } else {
                RegClass::Float
            };
            assert_eq!(config.target.regs(class), 65_536, "{key}");
        }
    }

    #[test]
    fn strategy_key_selects_each_allocator() {
        for (spelling, want) in [
            ("chaitin", Strategy::Chaitin),
            ("briggs", Strategy::Briggs),
            ("irc", Strategy::Irc),
            ("ssa", Strategy::Ssa),
        ] {
            let line = format!(r#"{{"req":"alloc","ir":"","config":{{"strategy":"{spelling}"}}}}"#);
            let Request::Alloc { config, .. } = Request::parse(&line).unwrap() else {
                panic!("wrong kind")
            };
            assert_eq!(config.strategy, want, "strategy={spelling}");
        }
        // Unknown names, the old `optimistic`/`pessimistic` among them.
        for spelling in ["graphviz", "optimistic", "pessimistic"] {
            let line = format!(r#"{{"req":"alloc","ir":"","config":{{"strategy":"{spelling}"}}}}"#);
            assert!(Request::parse(&line).is_err(), "strategy={spelling}");
        }
    }

    #[test]
    fn irc_with_explicit_coalesce_is_rejected_precisely() {
        for mode in ["aggressive", "conservative", "off"] {
            let line = format!(
                r#"{{"req":"alloc","ir":"","config":{{"strategy":"irc","coalesce":"{mode}"}}}}"#
            );
            let err = Request::parse(&line).unwrap_err();
            assert!(
                err.0.contains("irc") && err.0.contains("coalesce"),
                "error must name the conflicting fields, got: {}",
                err.0
            );
        }
        // The same coalesce modes remain legal for the classic strategies.
        let line = r#"{"req":"alloc","ir":"","config":{"strategy":"briggs","coalesce":"off"}}"#;
        assert!(Request::parse(line).is_ok());
    }

    #[test]
    fn ssa_with_explicit_coalesce_is_rejected_precisely() {
        for mode in ["aggressive", "conservative", "off"] {
            let line = format!(
                r#"{{"req":"alloc","ir":"","config":{{"strategy":"ssa","coalesce":"{mode}"}}}}"#
            );
            let err = Request::parse(&line).unwrap_err();
            assert!(
                err.0.contains("ssa") && err.0.contains("coalesce"),
                "error must name the conflicting fields, got: {}",
                err.0
            );
        }
        // Plain ssa with no knobs is legal.
        let line = r#"{"req":"alloc","ir":"","config":{"strategy":"ssa"}}"#;
        assert!(Request::parse(line).is_ok());
    }

    #[test]
    fn batch_request_parses_ids_and_payloads() {
        let line = r#"{"req":"batch","config":{"int_regs":4},"items":[
            {"id":"a","ir":"func A() { b0: ret }"},
            {"id":7,"key":"0xdeadbeefcafe0042"},
            {"id":"c","key":"00000000000000ff"}]}"#
            .replace('\n', " ");
        let Request::Batch { items, config, .. } = Request::parse(&line).unwrap() else {
            panic!("wrong kind")
        };
        assert_eq!(config.target.regs(RegClass::Int), 4);
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].id, Json::Str("a".into()));
        assert!(matches!(&items[0].payload, BatchPayload::Ir(ir) if ir.contains("func A")));
        assert_eq!(items[1].id, Json::Num(7.0));
        assert!(matches!(
            items[1].payload,
            BatchPayload::Key(0xdead_beef_cafe_0042)
        ));
        assert!(matches!(items[2].payload, BatchPayload::Key(0xff)));
    }

    #[test]
    fn malformed_batch_items_are_rejected() {
        for line in [
            r#"{"req":"batch"}"#,                                          // no items
            r#"{"req":"batch","items":[{"ir":"x"}]}"#,                     // no id
            r#"{"req":"batch","items":[{"id":"a"}]}"#,                     // no payload
            r#"{"req":"batch","items":[{"id":"a","ir":"x","key":"00"}]}"#, // both
            r#"{"req":"batch","items":[{"id":"a","key":"zz"}]}"#,          // bad hex
            r#"{"req":"batch","items":[{"id":true,"ir":"x"}]}"#,           // bad id type
            r#"{"req":"batch","items":[{"id":"a","ir":"x","nope":1}]}"#,   // unknown field
        ] {
            assert!(Request::parse(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn deadline_and_health_parse() {
        let Request::Alloc { deadline_ms, .. } =
            Request::parse(r#"{"req":"alloc","ir":"","deadline_ms":250}"#).unwrap()
        else {
            panic!("wrong kind")
        };
        assert_eq!(deadline_ms, Some(250));
        let Request::Alloc { deadline_ms, .. } =
            Request::parse(r#"{"req":"alloc","ir":""}"#).unwrap()
        else {
            panic!("wrong kind")
        };
        assert_eq!(deadline_ms, None);
        // Zero is legal: already expired, cache-only.
        let Request::Batch { deadline_ms, .. } =
            Request::parse(r#"{"req":"batch","items":[],"deadline_ms":0}"#).unwrap()
        else {
            panic!("wrong kind")
        };
        assert_eq!(deadline_ms, Some(0));
        assert!(Request::parse(r#"{"req":"alloc","ir":"","deadline_ms":"soon"}"#).is_err());
        assert!(matches!(
            Request::parse(r#"{"req":"health"}"#),
            Ok(Request::Health)
        ));
    }

    #[test]
    fn unknown_fields_and_kinds_are_rejected() {
        assert!(Request::parse(r#"{"req":"frobnicate"}"#).is_err());
        assert!(
            Request::parse(r#"{"req":"alloc","ir":"","config":{"heuristc":"briggs"}}"#).is_err()
        );
        // Worker counts are the daemon's business, not a config field:
        // sending one is a typo like any other. So are the pre-`Strategy`
        // selector key, the removed graph-repair switch and the removed
        // intra-function thread count.
        for field in [
            "threads",
            "thread_budget",
            "heuristic",
            "incremental",
            "graph_threads",
        ] {
            let line = format!(r#"{{"req":"alloc","ir":"","config":{{"{field}":2}}}}"#);
            let err = Request::parse(&line).unwrap_err();
            assert_eq!(err.0, format!("unknown config field \"{field}\""));
        }
        assert!(Request::parse("not json").is_err());
        assert!(
            Request::parse(r#"{"req":"alloc"}"#).is_err(),
            "ir is required"
        );
    }
}
