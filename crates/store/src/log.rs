//! A tiny leveled, timestamped stderr logger, shared by both daemons
//! (`optimist-serve` re-exports it as `serve::log`).
//!
//! A daemon needs to say *when* it tripped into degraded mode or
//! started draining, and operators need to silence debug chatter without
//! recompiling — but the no-dependency rule rules out `log`/`env_logger`.
//! This module is the minimal replacement: a process-wide [`Level`]
//! stored in an atomic, ISO-8601 UTC timestamps computed from
//! `SystemTime` by hand, and four macros ([`log_error!`](crate::log_error),
//! [`log_warn!`](crate::log_warn), [`log_info!`](crate::log_info),
//! [`log_debug!`](crate::log_debug)) that format lazily — below-threshold
//! calls never build their message.
//!
//! Output shape, one line per event on stderr:
//!
//! ```text
//! 2026-08-06T14:03:22Z  WARN store put failed (3 consecutive): ...
//! ```
//!
//! Each daemon announces its bound address through this logger as a line
//! ending `listening on HOST:PORT`; scripts scrape it, so that suffix is
//! load-bearing.

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first. The process threshold admits this
/// level and everything above it (`Error` < `Warn` < `Info` < `Debug`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The daemon cannot do what it was asked to do.
    Error,
    /// Something is wrong but service continues (degraded mode, reaped
    /// connections).
    Warn,
    /// Lifecycle milestones: listening, draining, shut down.
    Info,
    /// Per-event chatter for debugging.
    Debug,
}

impl Level {
    /// Parse `error|warn|info|debug` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => " WARN",
            Level::Info => " INFO",
            Level::Debug => "DEBUG",
        }
    }
}

/// The process-wide threshold; `Info` until [`set_level`] changes it.
static LEVEL: AtomicU8 = AtomicU8::new(2);

fn to_u8(level: Level) -> u8 {
    match level {
        Level::Error => 0,
        Level::Warn => 1,
        Level::Info => 2,
        Level::Debug => 3,
    }
}

/// Set the process-wide log threshold.
pub fn set_level(level: Level) {
    LEVEL.store(to_u8(level), Ordering::Relaxed);
}

/// True if `level` would currently be emitted — the macros consult this
/// before formatting.
pub fn enabled(level: Level) -> bool {
    to_u8(level) <= LEVEL.load(Ordering::Relaxed)
}

/// Emit one line at `level` (already threshold-checked by the macros;
/// checking again here keeps direct callers honest).
pub fn log(level: Level, args: fmt::Arguments<'_>) {
    if !enabled(level) {
        return;
    }
    let stderr = std::io::stderr();
    let mut out = stderr.lock();
    let _ = writeln!(out, "{} {} {}", timestamp(), level.label(), args);
}

/// `YYYY-MM-DDThh:mm:ssZ` for the current wall clock, computed without a
/// date crate: days-since-epoch → civil date via the standard
/// Gregorian-calendar algorithm (Howard Hinnant's `civil_from_days`).
fn timestamp() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let (y, mo, d) = civil_from_days(days as i64);
    format!("{y:04}-{mo:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day-of-era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // day-of-year, Mar 1 based
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Log at [`Level::Error`].
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error) {
            $crate::log::log($crate::log::Level::Error, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Warn`].
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::log($crate::log::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Info`].
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::log($crate::log::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::log($crate::log::Level::Debug, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("verbose"), None);
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn threshold_gates_emission() {
        // Tests run in one process; restore the default when done.
        set_level(Level::Error);
        assert!(enabled(Level::Error));
        assert!(!enabled(Level::Warn));
        set_level(Level::Debug);
        assert!(enabled(Level::Debug));
        set_level(Level::Info);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Debug));
    }

    #[test]
    fn civil_date_matches_known_days() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year
        assert_eq!(civil_from_days(19_723 + 59), (2024, 2, 29));
        assert_eq!(civil_from_days(20_671), (2026, 8, 6));
    }
}
