//! What the cache actually holds, and how it is serialized for the disk
//! tier.
//!
//! Both cache tiers store [`CacheEntry`] values: a successful allocation
//! ([`FnResult`]) or a remembered [`NonConvergence`] failure — the
//! **negative cache**. Spill-everywhere allocation only gets more
//! expensive as it fails (every extra pass burns a full
//! Build–Simplify–Color cycle before erroring), so a function known not
//! to converge under `max_passes = n` is worth remembering at least as
//! much as a success.
//!
//! Because [`AllocatorConfig::fingerprint`] deliberately excludes
//! `max_passes` (the bound never changes a *converged* result), both
//! entry kinds answer bound-sensitive questions at lookup time:
//!
//! * a positive entry that converged in `p` passes serves any request
//!   with `max_passes ≥ p`, and proves non-convergence for any request
//!   with `max_passes < p`;
//! * a negative entry recorded at bound `n` fails fast for any request
//!   with `max_passes ≤ n`, and is **invalidated** (recomputed, then
//!   overwritten) by a request willing to spend more passes.
//!
//! The disk encoding reuses the serving layer's hand-rolled [`Json`]
//! codec — one compact JSON document per payload, carried opaquely by
//! `optimist-store`'s checksummed records. No new serialization formats,
//! no new dependencies.
//!
//! [`NonConvergence`]: optimist_regalloc::AllocError::NonConvergence
//! [`AllocatorConfig::fingerprint`]: optimist_regalloc::AllocatorConfig::fingerprint

use crate::json::Json;
use crate::protocol::FnResult;

/// One cached fact about a content address: either the allocation result,
/// or proof that allocation fails within a pass bound.
#[derive(Debug, Clone)]
pub enum CacheEntry {
    /// Allocation succeeded; the full wire-ready result.
    Ok(FnResult),
    /// Allocation did not converge within `max_passes` passes. Requests
    /// with a bound ≤ this fail fast; a larger bound invalidates the
    /// entry.
    NonConvergence {
        /// The highest pass bound known to be insufficient.
        max_passes: usize,
    },
}

/// Serialize an entry as the store payload (one compact JSON document).
pub fn encode_entry(entry: &CacheEntry) -> String {
    match entry {
        CacheEntry::Ok(result) => result.to_store_json().to_string(),
        CacheEntry::NonConvergence { max_passes } => Json::obj([
            ("nonconvergence", Json::from(true)),
            ("max_passes", Json::from(*max_passes as u64)),
        ])
        .to_string(),
    }
}

/// Decode a store payload written by [`encode_entry`]. Returns `None` on
/// any mismatch — a payload that does not decode is treated as a cache
/// miss, never served.
pub fn decode_entry(payload: &str) -> Option<CacheEntry> {
    let v = crate::json::parse(payload).ok()?;
    if v.get("nonconvergence").and_then(Json::as_bool) == Some(true) {
        let max_passes = v.get("max_passes")?.as_u64()?;
        return Some(CacheEntry::NonConvergence {
            max_passes: usize::try_from(max_passes).ok()?,
        });
    }
    FnResult::from_json(&v).map(CacheEntry::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_machine::Target;
    use optimist_regalloc::{allocate, AllocStats, AllocatorConfig, Strategy};

    fn sample_result() -> FnResult {
        FnResult {
            name: "sample".into(),
            assignment: vec!["r0".into(), "f1".into(), "spill".into()],
            spilled: vec!["x".into()],
            stats: AllocStats {
                live_ranges: 12,
                registers_spilled: 1,
                spill_cost: 20.5,
                passes: 2,
                coalesced_copies: 3,
            },
        }
    }

    #[test]
    fn positive_entry_round_trips() {
        let entry = CacheEntry::Ok(sample_result());
        let decoded = decode_entry(&encode_entry(&entry)).expect("decodes");
        let CacheEntry::Ok(r) = decoded else {
            panic!("wrong kind");
        };
        let orig = sample_result();
        assert_eq!(r.name, orig.name);
        assert_eq!(r.assignment, orig.assignment);
        assert_eq!(r.spilled, orig.spilled);
        assert_eq!(r.stats.live_ranges, orig.stats.live_ranges);
        assert_eq!(r.stats.registers_spilled, orig.stats.registers_spilled);
        assert_eq!(r.stats.spill_cost, orig.stats.spill_cost);
        assert_eq!(r.stats.passes, orig.stats.passes);
        assert_eq!(r.stats.coalesced_copies, orig.stats.coalesced_copies);
    }

    #[test]
    fn a_record_with_the_removed_stats_member_renders_like_a_fresh_allocation() {
        // A record as daemons wrote it while `AllocStats` still counted
        // incremental graph-repair passes: the extra member is ignored, so
        // the record serves the bytes a fresh allocation would.
        const STORED: &str = concat!(
            r#"{"name":"press","assignment":["r0","r1","r2","r0","r1","r0","r0","r1","r0","#,
            r#""r0","r0","r0","r1","r0","r1","r0","r1","r0","r0"],"#,
            r#""spilled":["v0","v3","v5","v1"],"stats":{"live_ranges":11,"#,
            r#""registers_spilled":4,"spill_cost":10,"passes":3,"coalesced_copies":0,"#,
            r#""incremental_passes":0}}"#
        );
        const PRESS: &str = concat!(
            "func press(v0:int, v1:int, v2:int) -> int {\n",
            "b0:\n",
            "    v3 = add.i v0, v1\n",
            "    v4 = add.i v1, v2\n",
            "    v5 = add.i v0, v2\n",
            "    v6 = add.i v3, v4\n",
            "    v7 = add.i v6, v5\n",
            "    v8 = add.i v7, v0\n",
            "    v9 = add.i v8, v1\n",
            "    v10 = add.i v9, v2\n",
            "    ret v10\n",
            "}\n",
        );
        let f = optimist_ir::parse_function(PRESS).expect("parses");
        let config = AllocatorConfig::new(Target::custom("custom", 3, 8), Strategy::Briggs);
        let fresh = FnResult::from_allocation("press", &allocate(&f, &config).expect("allocates"));
        let Some(CacheEntry::Ok(stored)) = decode_entry(STORED) else {
            panic!("the record decodes");
        };
        let fresh = fresh.to_json(false).to_string();
        assert_eq!(stored.to_json(false).to_string(), fresh);
        assert!(!fresh.contains("incremental"), "{fresh}");
    }

    #[test]
    fn negative_entry_round_trips() {
        let entry = CacheEntry::NonConvergence { max_passes: 7 };
        match decode_entry(&encode_entry(&entry)) {
            Some(CacheEntry::NonConvergence { max_passes: 7 }) => {}
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn damaged_payloads_decode_to_none() {
        assert!(decode_entry("").is_none());
        assert!(decode_entry("{").is_none());
        assert!(decode_entry(r#"{"unrelated":true}"#).is_none());
        assert!(decode_entry(r#"{"nonconvergence":true}"#).is_none());
        // A positive payload with a missing field is rejected wholesale.
        let mut good = encode_entry(&CacheEntry::Ok(sample_result()));
        good = good.replace("\"assignment\"", "\"assignmen7\"");
        assert!(decode_entry(&good).is_none());
    }
}
