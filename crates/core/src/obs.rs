//! Run-level observability: a [`RunObserver`] that watches a
//! [`MonitoredSoc`](crate::MonitoredSoc) cycle by cycle.
//!
//! The observer owns a `safedm-obs` [`MetricsRegistry`] and [`TraceBuffer`]
//! and, each cycle, maintains:
//!
//! * **no-diversity episode spans** on the `monitor` track (one span per
//!   contiguous run of `no_diversity` verdicts, mirroring the paper's
//!   History module) plus a histogram of episode lengths;
//! * **lockstep interval spans** — contiguous runs of zero staggering while
//!   both cores are observed;
//! * **counter tracks** sampled every [`ObsConfig::counter_interval`]
//!   cycles: staggering, per-core retired instructions, bus transactions and
//!   accumulated no-diversity cycles;
//! * **mirrored metrics** for every SoC component (via
//!   [`SocMetrics`]) and the monitor's diversity counters.
//!
//! It holds only shared references into the simulated system — observation
//! never mutates core or monitor state. Wall-clock profiling lives in
//! [`safedm_obs::SelfProfiler`], outside this type, so metric snapshots stay
//! deterministic across seeded runs.

use safedm_obs::{
    CounterId, GaugeId, HistogramId, MetricsRegistry, MetricsSnapshot, SpanId, TraceBuffer, TrackId,
};
use safedm_soc::{MpSoc, SocMetrics};

use crate::{CycleReport, SafeDm};

/// Configuration for a [`RunObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Completed trace events retained (ring buffer; oldest dropped).
    pub trace_capacity: usize,
    /// Cycles between counter-track samples (and metric mirroring).
    pub counter_interval: u64,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig { trace_capacity: 1 << 16, counter_interval: 64 }
    }
}

#[derive(Debug, Clone)]
struct MonitorIds {
    cycles_observed: CounterId,
    ds_match_cycles: CounterId,
    is_match_cycles: CounterId,
    no_div_cycles: CounterId,
    zero_stag_cycles: CounterId,
    max_no_div_run: CounterId,
    no_div_episodes: CounterId,
    max_abs_stagger: CounterId,
    hamming_ds_sum: CounterId,
    hamming_is_sum: CounterId,
    stagger: GaugeId,
    episode_len: HistogramId,
}

/// Observes a monitored run and produces metrics + a structured trace.
///
/// Feed it from the observer of
/// [`MonitoredSoc::run_with`](crate::MonitoredSoc::run_with), then call
/// [`RunObserver::finish`] once the run returns.
#[derive(Debug)]
pub struct RunObserver {
    cfg: ObsConfig,
    reg: MetricsRegistry,
    trace: TraceBuffer,
    soc_metrics: SocMetrics,
    mon: MonitorIds,
    monitor_track: TrackId,
    pipeline_track: TrackId,
    bus_track: TrackId,
    phase_track: TrackId,
    no_div_span: Option<(SpanId, u64)>,
    lockstep_span: Option<SpanId>,
    phase_span: Option<SpanId>,
}

impl RunObserver {
    /// Builds an observer for a system with `cores` cores.
    #[must_use]
    pub fn new(cfg: ObsConfig, cores: usize) -> RunObserver {
        let mut reg = MetricsRegistry::new(true);
        let soc_metrics = SocMetrics::register(&mut reg, cores);
        let mon = MonitorIds {
            cycles_observed: reg.counter("monitor.cycles_observed"),
            ds_match_cycles: reg.counter("monitor.ds_match_cycles"),
            is_match_cycles: reg.counter("monitor.is_match_cycles"),
            no_div_cycles: reg.counter("monitor.no_div_cycles"),
            zero_stag_cycles: reg.counter("monitor.zero_stag_cycles"),
            max_no_div_run: reg.counter("monitor.max_no_div_run"),
            no_div_episodes: reg.counter("monitor.no_div_episodes"),
            max_abs_stagger: reg.counter("monitor.max_abs_stagger"),
            hamming_ds_sum: reg.counter("monitor.hamming_ds_sum"),
            hamming_is_sum: reg.counter("monitor.hamming_is_sum"),
            stagger: reg.gauge("monitor.stagger"),
            episode_len: reg.histogram("monitor.no_div_episode_len", 0, 4, 16),
        };
        let mut trace = TraceBuffer::new(cfg.trace_capacity);
        let pipeline_track = trace.track("pipeline");
        let bus_track = trace.track("bus");
        let monitor_track = trace.track("monitor");
        let phase_track = trace.track("phases");
        RunObserver {
            cfg,
            reg,
            trace,
            soc_metrics,
            mon,
            monitor_track,
            pipeline_track,
            bus_track,
            phase_track,
            no_div_span: None,
            lockstep_span: None,
            phase_span: None,
        }
    }

    /// Processes one cycle's verdict, after the monitor observed;
    /// everything is read through shared references.
    pub fn on_cycle(&mut self, soc: &MpSoc, dm: &SafeDm, report: &CycleReport) {
        let cycle = soc.cycle();
        // No-diversity episode spans (+ length histogram on close).
        match (report.no_diversity, self.no_div_span) {
            (true, None) => {
                let id = self.trace.begin_span(self.monitor_track, "no-diversity", cycle);
                self.no_div_span = Some((id, cycle));
            }
            (false, Some((id, started))) => {
                self.trace.end_span(id, cycle);
                self.reg.observe(self.mon.episode_len, cycle - started);
                self.no_div_span = None;
            }
            _ => {}
        }
        // Lockstep (zero-staggering) interval spans.
        let lockstep = report.zero_stagger && report.observed;
        match (lockstep, self.lockstep_span) {
            (true, None) => {
                self.lockstep_span =
                    Some(self.trace.begin_span(self.monitor_track, "lockstep", cycle));
            }
            (false, Some(id)) => {
                self.trace.end_span(id, cycle);
                self.lockstep_span = None;
            }
            _ => {}
        }
        // Periodic counter tracks + metric mirroring.
        if cycle.is_multiple_of(self.cfg.counter_interval) {
            self.sample(soc, dm, cycle);
        }
    }

    /// Opens a named campaign phase span (e.g. `"inject"`, `"drain"`). An
    /// already-open phase is closed first.
    pub fn begin_phase(&mut self, name: &str, cycle: u64) {
        self.end_phase(cycle);
        self.phase_span = Some(self.trace.begin_span(self.phase_track, name, cycle));
    }

    /// Closes the open campaign phase span, if any.
    pub fn end_phase(&mut self, cycle: u64) {
        if let Some(id) = self.phase_span.take() {
            self.trace.end_span(id, cycle);
        }
    }

    /// Records a point event (e.g. a fault injection) on the phase track.
    pub fn mark(&mut self, name: &str, cycle: u64) {
        self.trace.instant(self.phase_track, name, cycle);
    }

    fn sample(&mut self, soc: &MpSoc, dm: &SafeDm, cycle: u64) {
        self.soc_metrics.sample(soc, &mut self.reg);
        let c = dm.counters();
        self.reg.set_total(self.mon.cycles_observed, c.cycles_observed);
        self.reg.set_total(self.mon.ds_match_cycles, c.ds_match_cycles);
        self.reg.set_total(self.mon.is_match_cycles, c.is_match_cycles);
        self.reg.set_total(self.mon.no_div_cycles, c.no_div_cycles);
        self.reg.set_total(self.mon.zero_stag_cycles, dm.instruction_diff().zero_cycles());
        self.reg.set_total(self.mon.max_no_div_run, dm.max_no_div_run());
        self.reg.set_total(self.mon.no_div_episodes, dm.no_diversity_history().total_episodes());
        self.reg.set_total(self.mon.max_abs_stagger, dm.instruction_diff().max_abs());
        if let Some(h) = dm.hamming_stats() {
            self.reg.set_total(self.mon.hamming_ds_sum, h.ds_sum);
            self.reg.set_total(self.mon.hamming_is_sum, h.is_sum);
        }
        let stagger = dm.instruction_diff().value();
        self.reg.set(self.mon.stagger, stagger);
        // Counter tracks for the timeline view.
        self.trace.counter(self.monitor_track, "stagger", cycle, stagger as f64);
        self.trace.counter(self.monitor_track, "no_div_cycles", cycle, c.no_div_cycles as f64);
        let retired: u64 = (0..soc.core_count()).map(|i| soc.core(i).stats().retired).sum();
        self.trace.counter(self.pipeline_track, "retired", cycle, retired as f64);
        let bus = soc.uncore().stats();
        self.trace.counter(self.bus_track, "transactions", cycle, bus.transactions as f64);
        self.trace.counter(self.bus_track, "contended_cycles", cycle, bus.contended_cycles as f64);
    }

    /// Finalises the observation: closes open spans at `soc.cycle()` and
    /// takes a last metric sample.
    pub fn finish(&mut self, soc: &MpSoc, dm: &SafeDm) {
        let cycle = soc.cycle();
        if let Some((id, started)) = self.no_div_span.take() {
            self.trace.end_span(id, cycle);
            self.reg.observe(self.mon.episode_len, cycle - started);
        }
        if let Some(id) = self.lockstep_span.take() {
            self.trace.end_span(id, cycle);
        }
        self.end_phase(cycle);
        self.sample(soc, dm, cycle);
    }

    /// A deterministic snapshot of every metric.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.reg.snapshot()
    }

    /// The event trace as a Chrome trace-event JSON document.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        self.trace.chrome_trace_json()
    }

    /// The event trace as JSON Lines.
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        self.trace.to_jsonl()
    }

    /// The underlying trace buffer.
    #[must_use]
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// The underlying metrics registry (for registering extra metrics).
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MonitoredSoc, SafeDmConfig};
    use safedm_asm::Asm;
    use safedm_isa::Reg;
    use safedm_soc::SocConfig;

    fn loop_prog(iters: i64) -> safedm_asm::Program {
        let mut a = Asm::new();
        a.li(Reg::T0, iters);
        let top = a.here("top");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        a.link(0x8000_0000).unwrap()
    }

    #[test]
    fn observer_tracks_episodes_and_metrics() {
        let mut sys = MonitoredSoc::new(SocConfig::default(), SafeDmConfig::default());
        sys.load_program(&loop_prog(300));
        let mut obs = RunObserver::new(ObsConfig::default(), 2);
        let out = sys.run_with(1_000_000, |sys, r| obs.on_cycle(sys.soc(), sys.monitor(), r));
        assert!(out.run.all_clean());
        obs.finish(sys.soc(), sys.monitor());
        let snap = obs.metrics_snapshot();
        // Mirrored monitor counters match the run result exactly.
        assert_eq!(snap.counter("monitor.no_div_cycles"), Some(out.no_div_cycles));
        assert_eq!(snap.counter("monitor.cycles_observed"), Some(out.cycles_observed));
        assert_eq!(
            snap.counter("core0.retired"),
            Some(sys.soc().core(0).stats().retired),
            "final sample mirrors the SoC stats"
        );
        // A lockstep countdown produces at least one no-diversity episode.
        assert!(snap.histogram("monitor.no_div_episode_len").unwrap().count() > 0);
        let chrome = obs.chrome_trace_json();
        assert!(chrome.contains("no-diversity"));
        assert!(chrome.contains("\"monitor\""));
        assert!(chrome.contains("\"pipeline\""));
        assert!(chrome.contains("\"bus\""));
    }

    #[test]
    fn phases_and_marks_appear_in_trace() {
        let mut obs = RunObserver::new(ObsConfig::default(), 2);
        obs.begin_phase("inject", 10);
        obs.mark("bitflip", 15);
        obs.begin_phase("drain", 20); // implicitly closes "inject"
        obs.end_phase(30);
        let jsonl = obs.trace_jsonl();
        assert!(jsonl.contains("\"inject\""));
        assert!(jsonl.contains("\"bitflip\""));
        assert!(jsonl.contains("\"drain\""));
        assert_eq!(obs.trace().open_spans(), 0);
    }
}
