//! Static gate: cross-validation of the analyzer's predictions against the
//! runtime monitor.
//!
//! The static analyzer promises that DIV001/DIV002 regions produce
//! no-diversity cycles whenever both cores execute them with zero effective
//! staggering. The gate tracks, per predicted region, how many cycles the
//! monitored pair actually spent committing inside it and how many of those
//! cycles the monitor reported no diversity — a self-test of the analyzer
//! (no false "guaranteed" findings) and of the monitor (no missed
//! collisions) at once.
//!
//! The gate only reads what a monitored run reports each cycle (core 0's
//! latest commit PC and the monitor's verdict), so any run loop can feed
//! it: with `safedm-core`, from the observer of `MonitoredSoc::run_with`.

use crate::{AnalysisReport, LintCode, PcSpan};

/// Cross-validation state for one guaranteed (DIV001/DIV002) finding.
#[derive(Debug, Clone)]
pub struct GateCheck {
    /// Which lint predicted the hazard.
    pub code: LintCode,
    /// The predicted no-diversity region.
    pub span: PcSpan,
    /// Monitored cycles in which core 0's latest commit lay in the span.
    pub executed_cycles: u64,
    /// Of those, cycles the monitor reported no diversity.
    pub no_div_cycles: u64,
}

impl GateCheck {
    /// Whether the region was ever executed during the monitored run.
    #[must_use]
    pub fn executed(&self) -> bool {
        self.executed_cycles > 0
    }

    /// Whether the prediction held: an executed region produced at least one
    /// no-diversity cycle (unexecuted regions are vacuously confirmed).
    #[must_use]
    pub fn confirmed(&self) -> bool {
        self.executed_cycles == 0 || self.no_div_cycles > 0
    }
}

/// The gate itself: the static report plus per-finding runtime counters,
/// fed each monitored cycle through [`DiversityGate::observe`].
#[derive(Debug, Clone)]
pub struct DiversityGate {
    report: AnalysisReport,
    checks: Vec<GateCheck>,
}

impl DiversityGate {
    /// Builds a gate tracking every guaranteed hazard of `report`.
    #[must_use]
    pub fn new(report: AnalysisReport) -> DiversityGate {
        let checks = report
            .guaranteed_hazards()
            .map(|d| GateCheck { code: d.code, span: d.span, executed_cycles: 0, no_div_cycles: 0 })
            .collect();
        DiversityGate { report, checks }
    }

    /// The static report the gate was built from.
    #[must_use]
    pub fn report(&self) -> &AnalysisReport {
        &self.report
    }

    /// Per-finding cross-validation counters.
    #[must_use]
    pub fn checks(&self) -> &[GateCheck] {
        &self.checks
    }

    /// Whether every executed predicted region produced no-diversity cycles.
    #[must_use]
    pub fn all_confirmed(&self) -> bool {
        self.checks.iter().all(GateCheck::confirmed)
    }

    /// Number of checks whose region was actually executed.
    #[must_use]
    pub fn executed_count(&self) -> usize {
        self.checks.iter().filter(|c| c.executed()).count()
    }

    /// One line per check, for reports and CLI output.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for c in &self.checks {
            let verdict = match (c.executed(), c.confirmed()) {
                (false, _) => "not executed",
                (true, true) => "CONFIRMED",
                (true, false) => "REFUTED",
            };
            let _ = writeln!(
                out,
                "  {} {}  executed {} cycles, no-diversity {} cycles  -> {}",
                c.code, c.span, c.executed_cycles, c.no_div_cycles, verdict
            );
        }
        if self.checks.is_empty() {
            out.push_str("  (no guaranteed hazards predicted)\n");
        }
        out
    }

    /// Feeds one cycle: `pc` is core 0's most recent commit PC, `observed`
    /// whether the monitor judged the cycle and `no_diversity` its verdict.
    pub fn observe(&mut self, pc: Option<u64>, observed: bool, no_diversity: bool) {
        let Some(pc) = pc.filter(|_| observed) else { return };
        for c in self.checks.iter_mut().filter(|c| c.span.contains(pc)) {
            c.executed_cycles += 1;
            c.no_div_cycles += u64::from(no_diversity);
        }
    }
}
