//! The store's network face: the `optimist-stored` daemon and its client.
//!
//! The embedded log ([`crate::Store`]) serves one process; this module
//! puts it on the wire so a *fleet* of serving daemons can share one warm
//! result tier instead of each owning a cold private disk. Two pieces:
//!
//! - [`server::StoreServer`] — the daemon: `get`/`put`/`ping`/`stats`/
//!   `health`/`shutdown` over TCP, concurrent connections, single-writer
//!   appends, graceful drain;
//! - [`client::StoreClient`] — one blocking connection per store peer,
//!   held by the serving tier's remote/sharded store backends.
//!
//! Both speak NDJSON through the crate's shared [`crate::json`] codec and
//! run on the shared [`crate::daemon`] accept/drain loop. Keys and
//! fingerprints travel as 16-hex strings (the same spelling the serving
//! protocol uses for content keys); payloads travel as JSON strings,
//! which confines them to UTF-8 — fine, because every payload the fleet
//! stores is the serving tier's own JSON-encoded cache entry.
//!
//! Records stay opaque blobs keyed by `(key, fingerprint)` end to end:
//! the daemon never decodes a payload, so the serving tier's cache-entry
//! encoding can evolve without touching the store fleet.

pub mod client;
pub mod server;

pub use client::{StoreClient, StoreClientError};
pub use server::StoreServer;

/// Spell a key or fingerprint the way the serving protocol does: 16 hex
/// digits, zero-padded.
fn hex16(value: u64) -> String {
    format!("{value:016x}")
}

/// Parse a key/fingerprint spelled in hex (1–16 digits).
fn parse_hex16(text: &str) -> Option<u64> {
    if text.is_empty() || text.len() > 16 {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_keys_round_trip_and_reject_garbage() {
        assert_eq!(parse_hex16(&hex16(u64::MAX)), Some(u64::MAX));
        assert_eq!(parse_hex16(&hex16(0)), Some(0));
        assert_eq!(parse_hex16("00000000000000ff"), Some(255));
        assert_eq!(parse_hex16(""), None);
        assert_eq!(parse_hex16("00000000000000ff0"), None, "17 digits");
        assert_eq!(parse_hex16("xyz"), None);
    }
}
