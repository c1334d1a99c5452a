//! # mrnet-obs
//!
//! The observability layer beneath the MRNet reproduction: a
//! lock-cheap metrics registry (atomic counters, gauges, fixed-bucket
//! latency histograms), sampled cross-tree wave tracing (in-band
//! envelopes plus the front-end's [`TraceAssembler`]), and a tiny
//! leveled log facade controlled by the `MRNET_LOG` environment
//! variable.
//!
//! Design constraints (mirroring the paper's measurement needs, §4):
//!
//! * **Hot-path cost is one relaxed atomic add.** Counters and
//!   histogram records never take a lock; maps of per-stream and
//!   per-filter instruments are locked only on first lookup, and the
//!   returned `Arc` handles are cached by their users.
//! * **No external dependencies** beyond `std` and `parking_lot`
//!   (already in the workspace). This crate sits below every other
//!   workspace crate, so it depends on none of them; ranks and stream
//!   ids are plain `u32`s here.
//! * **Tracing is off by default** and enabled via `MRNET_TRACE=1` or
//!   [`trace::set_enabled`].
//!
//! Snapshots flatten to parallel name/value arrays
//! ([`MetricsSection`]) so they can ride the MRNet wire format itself:
//! the core crate's in-band introspection stream multicasts a "dump
//! metrics" request and reduces every node's section back through the
//! tree — observability implemented *with* MRNet, as the paper does
//! for tool data.

#![forbid(unsafe_code)]

pub mod assemble;
pub mod export;
pub mod log;
pub mod metrics;
pub mod snapshot;
pub mod trace;
pub mod tracectx;

pub use assemble::{ClockEntry, CorrectedHop, TraceAssembler, WaveTimeline};
pub use export::{json_text, prometheus_text};
pub use log::Level;
pub use metrics::{
    ConnSendStats, Counter, FilterStats, Gauge, Histogram, HistogramSnapshot, NodeMetrics,
    StreamCounters, HIST_BUCKETS,
};
pub use snapshot::{MetricsSection, NetworkSnapshot};
pub use trace::TraceDir;
pub use tracectx::{HopRecord, TraceEnvelope, TraceSampler};
