//! Unified observability layer for the SafeDM simulator.
//!
//! This crate is a leaf: it depends on nothing and knows nothing about
//! pipelines or monitors. Higher layers (`safedm-soc`, `safedm-core`,
//! `safedm-bench`, the `safedm-sim` CLI) register their own metrics and
//! tracks. Four primitives are provided:
//!
//! * [`MetricsRegistry`] — counters, gauges and [`BinnedHistogram`]s behind
//!   a single `enabled` flag; disabled updates cost one branch and touch no
//!   memory. Snapshots are name-sorted, so identical runs serialise to
//!   byte-identical JSON (the determinism guard relies on this).
//! * [`TraceBuffer`] — a bounded ring of spans / instants / counter samples
//!   keyed by simulation cycle, exportable as Chrome trace-event JSON
//!   (chrome://tracing, Perfetto) or JSONL.
//! * [`SelfProfiler`] — wall-clock time per simulator component; kept out of
//!   metric snapshots because wall time is not deterministic.
//! * [`json`] — a dependency-free JSON writer/parser used by the exporters
//!   and by tests that validate exported documents.
//!
//! On top of these sit the campaign-telemetry modules: [`events`] (the
//! per-cell [`events::CellEvent`] record and its JSONL codec), [`aggregate`]
//! (per-kernel summaries, heatmaps and stall Paretos) and [`report`]
//! (terminal and self-contained HTML renderers).
//! Serialised events strip wall-clock by default so campaign telemetry
//! inherits the byte-identical-across-workers contract.
//!
//! Instrumentation must observe, never mutate: nothing in this crate holds a
//! mutable handle into simulated state.

#![warn(missing_docs)]

pub mod aggregate;
pub mod events;
mod hist;
pub mod json;
mod metrics;
mod profiler;
pub mod report;
mod trace;

pub use hist::BinnedHistogram;
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot};
pub use profiler::SelfProfiler;
pub use trace::{SpanId, TraceBuffer, TrackId};
