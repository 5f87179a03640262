//! Fault injection for the store's I/O sites.
//!
//! A [`FailpointRegistry`] maps named I/O **sites** inside [`Store`]
//! (`put`, `get`, `fsync`, `compact`) to an injected failure
//! [`FailKind`]. Every store owns one registry, armed from the
//! `OPTIMIST_FAILPOINTS` environment variable at open time and
//! re-armable at runtime through [`Store::failpoints`] — the chaos drill
//! (`chaos_store_failures_cost_no_request_and_the_probe_recovers` in
//! `crates/serve/tests/drills.rs`) and the integration tests flip faults
//! on and off mid-run without touching the environment.
//!
//! ## Grammar
//!
//! `OPTIMIST_FAILPOINTS` is a comma-separated list of `site:kind[@n]`
//! clauses:
//!
//! ```text
//! OPTIMIST_FAILPOINTS=put:enospc                # every put fails ENOSPC
//! OPTIMIST_FAILPOINTS=put:short,get:corrupt     # torn appends + bit rot
//! OPTIMIST_FAILPOINTS=fsync:fail@3              # fsyncs fail from the 3rd call on
//! ```
//!
//! `@n` delays the fault: the first `n − 1` hits of the site pass
//! through, the `n`-th and every later hit fail (until the point is
//! cleared). Without `@n` the site fails from its first hit.
//!
//! Kinds: `enospc` (the write answers `ENOSPC` having written nothing),
//! `short` (half the record's bytes land, then `ENOSPC` — the
//! partial-write hazard recovery must clean up), `fail` (a generic I/O
//! error), and `corrupt` (reads succeed but a payload byte comes back
//! flipped — what checksums and decode validation exist to catch).
//!
//! [`Store`]: crate::Store
//! [`Store::failpoints`]: crate::Store::failpoints

use std::collections::HashMap;
use std::io;
use std::sync::Mutex;

/// The failure a tripped failpoint injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The operation fails with `ENOSPC`-style "no space left on device"
    /// without transferring any bytes.
    Enospc,
    /// A write transfers roughly half its bytes, then fails — the
    /// partial-append crash window.
    Short,
    /// A generic I/O error (`other`).
    Fail,
    /// A read succeeds but one payload byte is flipped.
    Corrupt,
}

impl FailKind {
    fn parse(s: &str) -> Option<FailKind> {
        match s {
            "enospc" => Some(FailKind::Enospc),
            "short" => Some(FailKind::Short),
            "fail" => Some(FailKind::Fail),
            "corrupt" => Some(FailKind::Corrupt),
            _ => None,
        }
    }

    /// The `io::Error` this kind injects (for the error-producing kinds).
    pub fn to_error(self) -> io::Error {
        match self {
            FailKind::Enospc | FailKind::Short => {
                io::Error::other("failpoint: no space left on device (injected ENOSPC)")
            }
            FailKind::Fail => io::Error::other("failpoint: injected I/O error"),
            FailKind::Corrupt => io::Error::other("failpoint: injected corruption"),
        }
    }
}

/// One armed failpoint: what to inject and when to start.
#[derive(Debug, Clone, Copy)]
struct Point {
    kind: FailKind,
    /// Fire on the `after`-th hit and every hit beyond (1-based).
    after: u64,
    /// Hits against this point so far.
    hits: u64,
}

/// A registry of armed failpoints, one per [`Store`](crate::Store).
///
/// Checking an unarmed site is one mutex lock on an empty map — the cost
/// only matters when faults are being injected, which is never the
/// production configuration.
#[derive(Debug, Default)]
pub struct FailpointRegistry {
    points: Mutex<HashMap<String, Point>>,
}

impl FailpointRegistry {
    /// An empty registry (no faults).
    pub fn new() -> FailpointRegistry {
        FailpointRegistry::default()
    }

    /// A registry armed from the `OPTIMIST_FAILPOINTS` environment
    /// variable. An unparsable spec disarms everything rather than
    /// guessing — fault injection is a test facility and must never make
    /// a production store fail *accidentally*.
    pub fn from_env() -> FailpointRegistry {
        match std::env::var("OPTIMIST_FAILPOINTS") {
            Ok(spec) => FailpointRegistry::parse(&spec).unwrap_or_default(),
            Err(_) => FailpointRegistry::default(),
        }
    }

    /// Parse a `site:kind[@n],...` spec (see the module docs for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<FailpointRegistry, String> {
        let registry = FailpointRegistry::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site, rest) = clause
                .split_once(':')
                .ok_or_else(|| format!("failpoint clause `{clause}` needs site:kind"))?;
            let (kind, after) = match rest.split_once('@') {
                Some((kind, n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("failpoint `{clause}`: bad trigger count `{n}`"))?;
                    (kind, n.max(1))
                }
                None => (rest, 1),
            };
            let kind = FailKind::parse(kind)
                .ok_or_else(|| format!("failpoint `{clause}`: unknown kind `{kind}`"))?;
            registry.arm_after(site, kind, after);
        }
        Ok(registry)
    }

    /// Arm `site` to inject `kind` from its next hit on.
    pub fn arm(&self, site: &str, kind: FailKind) {
        self.arm_after(site, kind, 1);
    }

    /// Arm `site` to inject `kind` from its `after`-th hit on (1-based;
    /// the first `after − 1` hits pass through).
    pub fn arm_after(&self, site: &str, kind: FailKind, after: u64) {
        self.points.lock().expect("failpoint lock").insert(
            site.to_string(),
            Point {
                kind,
                after: after.max(1),
                hits: 0,
            },
        );
    }

    /// Disarm `site`.
    pub fn clear(&self, site: &str) {
        self.points.lock().expect("failpoint lock").remove(site);
    }

    /// Disarm everything.
    pub fn clear_all(&self) {
        self.points.lock().expect("failpoint lock").clear();
    }

    /// True if any site is armed.
    pub fn any_armed(&self) -> bool {
        !self.points.lock().expect("failpoint lock").is_empty()
    }

    /// Count a hit against `site`, returning the failure to inject (if
    /// the site is armed and past its trigger count).
    pub fn check(&self, site: &str) -> Option<FailKind> {
        let mut points = self.points.lock().expect("failpoint lock");
        let point = points.get_mut(site)?;
        point.hits += 1;
        (point.hits >= point.after).then_some(point.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let fp = FailpointRegistry::parse("put:enospc, fsync:fail@3 ,get:corrupt").unwrap();
        assert_eq!(fp.check("put"), Some(FailKind::Enospc));
        assert_eq!(fp.check("get"), Some(FailKind::Corrupt));
        // fsync fires from the third hit on.
        assert_eq!(fp.check("fsync"), None);
        assert_eq!(fp.check("fsync"), None);
        assert_eq!(fp.check("fsync"), Some(FailKind::Fail));
        assert_eq!(fp.check("fsync"), Some(FailKind::Fail));
        // Unarmed sites never fire.
        assert_eq!(fp.check("compact"), None);
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(FailpointRegistry::parse("put").is_err());
        assert!(FailpointRegistry::parse("put:frob").is_err());
        assert!(FailpointRegistry::parse("put:fail@x").is_err());
        // Empty specs (and empty clauses) are fine: nothing armed.
        assert!(!FailpointRegistry::parse("").unwrap().any_armed());
        assert!(!FailpointRegistry::parse(" , ").unwrap().any_armed());
    }

    #[test]
    fn clear_disarms() {
        let fp = FailpointRegistry::new();
        fp.arm("put", FailKind::Fail);
        assert!(fp.any_armed());
        assert_eq!(fp.check("put"), Some(FailKind::Fail));
        fp.clear("put");
        assert_eq!(fp.check("put"), None);
        assert!(!fp.any_armed());
    }
}
