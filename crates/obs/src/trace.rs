//! Tracing's process-wide enable gate and the direction of a traced
//! wave.
//!
//! Tracing is **off by default**. It turns on via `MRNET_TRACE=1` (or
//! `true`/`on`) in the environment, or programmatically with
//! [`set_enabled`] — the API override wins. While it is off,
//! [`crate::TraceSampler`] samples no wave, so the wire carries zero
//! trailer bytes.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// 0 = no override, 1 = forced off, 2 = forced on.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);
static FROM_ENV: OnceLock<bool> = OnceLock::new();

/// True when tracing is active for this process.
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => *FROM_ENV.get_or_init(|| {
            std::env::var("MRNET_TRACE")
                .map(|v| {
                    let v = v.trim().to_ascii_lowercase();
                    v == "1" || v == "true" || v == "on"
                })
                .unwrap_or(false)
        }),
    }
}

/// Forces tracing on or off for this process, overriding
/// `MRNET_TRACE`.
pub fn set_enabled(on: bool) {
    OVERRIDE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Which way a traced wave travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDir {
    /// Toward the root (a reduction leg).
    Up,
    /// Away from the root (a multicast leg).
    Down,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_override_beats_env() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
