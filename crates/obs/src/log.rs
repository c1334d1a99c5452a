//! A tiny leveled log facade for MRNet diagnostics.
//!
//! Every process in the overlay tags its messages with a "who" (its
//! rank, or a binary name), giving uniform, rank-attributed output:
//!
//! ```text
//! mrnet[3] error: child frame error: ...
//! ```
//!
//! The threshold comes from the `MRNET_LOG` environment variable
//! (`off`, `error`, `warn`, `info`, `debug`, `trace`; default `warn`)
//! and can be overridden programmatically with [`set_max_level`] —
//! benches and tests silence the tree with `MRNET_LOG=off`. Spawned
//! commnode processes inherit the environment, so one setting covers a
//! whole process-mode deployment.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Suppress all output.
    Off = 0,
    /// Unrecoverable or dropped-work conditions.
    Error = 1,
    /// Recoverable anomalies (a frame error the loop survives).
    Warn = 2,
    /// Lifecycle events.
    Info = 3,
    /// Per-operation detail.
    Debug = 4,
    /// Firehose.
    Trace = 5,
}

impl Level {
    /// Parses a level name (case-insensitive); `None` if unknown.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The level's lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

/// Programmatic override; `u8::MAX` means "use the environment".
static OVERRIDE: AtomicU8 = AtomicU8::new(u8::MAX);
static FROM_ENV: OnceLock<Level> = OnceLock::new();

/// The active maximum level: the [`set_max_level`] override if one was
/// installed, otherwise `MRNET_LOG` (default [`Level::Warn`]).
pub fn max_level() -> Level {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o != u8::MAX {
        return Level::from_u8(o);
    }
    *FROM_ENV.get_or_init(|| {
        std::env::var("MRNET_LOG")
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(Level::Warn)
    })
}

/// Overrides the maximum level for this process (takes precedence over
/// `MRNET_LOG`).
pub fn set_max_level(level: Level) {
    OVERRIDE.store(level as u8, Ordering::Relaxed);
}

/// True when a message at `level` would be emitted.
pub fn enabled(level: Level) -> bool {
    level != Level::Off && level <= max_level()
}

/// Emits one line to stderr: `mrnet[<who>] <level>: <message>`. Call
/// through the [`crate::log_error!`]-family macros, which check
/// [`enabled`] first.
pub fn write(level: Level, who: impl std::fmt::Display, args: std::fmt::Arguments<'_>) {
    eprintln!("mrnet[{who}] {}: {args}", level.name());
}

/// Logs at [`Level::Error`]: `log_error!(who, "format", ..)`.
#[macro_export]
macro_rules! log_error {
    ($who:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Error) {
            $crate::log::write($crate::Level::Error, &$who, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`]: `log_warn!(who, "format", ..)`.
#[macro_export]
macro_rules! log_warn {
    ($who:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Warn) {
            $crate::log::write($crate::Level::Warn, &$who, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`]: `log_info!(who, "format", ..)`.
#[macro_export]
macro_rules! log_info {
    ($who:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Info) {
            $crate::log::write($crate::Level::Info, &$who, ::core::format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`]: `log_debug!(who, "format", ..)`.
#[macro_export]
macro_rules! log_debug {
    ($who:expr, $($arg:tt)*) => {
        if $crate::log::enabled($crate::Level::Debug) {
            $crate::log::write($crate::Level::Debug, &$who, ::core::format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that set the process-wide level, which
    /// `cargo test` would otherwise run on parallel threads.
    static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn parse_names() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("ERROR"), Some(Level::Error));
        assert_eq!(Level::parse(" warn "), Some(Level::Warn));
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("trace"), Some(Level::Trace));
        assert_eq!(Level::parse("loud"), None);
    }

    #[test]
    fn levels_order() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Trace);
    }

    #[test]
    fn override_controls_enabled() {
        let _level = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_max_level(Level::Off);
        assert!(!enabled(Level::Error));
        set_max_level(Level::Debug);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Debug));
        assert!(!enabled(Level::Trace));
        // Off is never "enabled", even under a permissive threshold.
        assert!(!enabled(Level::Off));
        set_max_level(Level::Warn);
    }

    #[test]
    fn macros_expand() {
        let _level = LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_max_level(Level::Off);
        log_error!(7u32, "silenced {}", 1);
        log_warn!("tester", "also silenced");
        set_max_level(Level::Warn);
    }
}
