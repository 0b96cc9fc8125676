//! Run-time check of the provers' verdicts against the SafeDM monitor.
//!
//! [`SoundnessGuard`] has one half per proved verdict:
//!
//! * the **diverse half** checks [`Verdict::ProvedDiverse`], a universal
//!   claim: a no-diversity cycle is a violation once both cores' last
//!   commits have stayed inside the same proved region for
//!   `2 * fifo_depth` consecutive monitored cycles, so both signature
//!   FIFOs hold only in-region traffic;
//! * the **collision half** checks [`Verdict::ProvedCollision`], an
//!   existential claim: per region it counts the monitored cycles that meet
//!   the verdict's precondition (both cores' last commits inside the region
//!   at the stream lead the verdict assumes) and the no-diversity cycles
//!   among them.
//!
//! A run fails on a diverse-half violation, or on a DIV001/DIV002 region
//! that met its precondition without a no-diversity cycle. Any other
//! unconfirmed collision region is reported, not failed.
//!
//! The guard reads plain per-cycle values — both cores' last commit PCs,
//! the committed-instruction stagger and the monitor's verdict — so any run
//! loop can feed it: with `safedm-core`, from the observer of
//! `MonitoredSoc::run_with`.

use std::fmt::Write;

use crate::{LintCode, PairReport, PcSpan, ProveReport, Verdict};

/// The collision half's counters for one `ProvedCollision` region.
#[derive(Debug, Clone)]
pub struct CollisionCheck {
    /// The finding that names the region: DIV001 (iteration-invariant
    /// loop), DIV002 (sled) or DIV005 (lockstep loop).
    pub code: LintCode,
    /// The loop or sled span, plus any spliced callee-body spans.
    pub spans: Vec<PcSpan>,
    /// The stream lead the verdict assumes: exactly 0 when this is 0, else
    /// any multiple of it (an iteration-invariant loop's re-alignment
    /// period).
    pub lead_period: u64,
    /// Monitored cycles that met the precondition.
    pub met_cycles: u64,
    /// Of those, cycles the monitor reported no diversity.
    pub no_div_cycles: u64,
}

impl CollisionCheck {
    /// Whether the precondition held on at least one monitored cycle.
    #[must_use]
    pub fn met(&self) -> bool {
        self.met_cycles > 0
    }

    /// Whether the claim was observed: a no-diversity cycle while the
    /// precondition held.
    #[must_use]
    pub fn confirmed(&self) -> bool {
        self.no_div_cycles > 0
    }

    /// Whether the run fails on this region: a DIV001/DIV002 region met its
    /// precondition without a no-diversity cycle.
    #[must_use]
    pub fn refuted(&self) -> bool {
        self.met() && !self.confirmed() && matches!(self.code, LintCode::Div001 | LintCode::Div002)
    }

    fn holds(&self, pcs: [u64; 2], lead: i64) -> bool {
        let lead_ok = match self.lead_period {
            0 => lead == 0,
            p => lead.rem_euclid(p as i64) == 0,
        };
        lead_ok && pcs.iter().all(|&pc| self.spans.iter().any(|s| s.contains(pc)))
    }
}

/// Both halves of the run-time check of one program's verdicts, fed one
/// monitored cycle at a time through [`SoundnessGuard::observe`].
#[derive(Debug, Clone)]
pub struct SoundnessGuard {
    /// Per `ProvedDiverse` region, the spans core 0 and core 1 must commit
    /// inside.
    diverse: Vec<[Vec<PcSpan>; 2]>,
    collisions: Vec<CollisionCheck>,
    effective_stagger: i64,
    warmup: u64,
    streak: u64,
    region: Option<usize>,
    /// Cycles past the warmup inside one proved-diverse region (the cycles
    /// the diverse half checked).
    pub guarded: u64,
    /// `(cycle, pc0, pc1)` of every no-diversity cycle among them.
    pub violations: Vec<(u64, u64, u64)>,
}

impl SoundnessGuard {
    /// Guards every proved region of `report`, for a monitor whose data
    /// FIFO is `fifo_depth` deep: each `ProvedDiverse` and `ProvedCollision`
    /// loop (with its spliced callees) and each `ProvedCollision` sled.
    #[must_use]
    pub fn new(report: &ProveReport, fifo_depth: usize) -> SoundnessGuard {
        let with = |v: Verdict| report.certificates.iter().filter(move |c| c.verdict == v);
        let diverse = with(Verdict::ProvedDiverse).map(|c| [c.region(), c.region()]).collect();
        let loops = with(Verdict::ProvedCollision).map(|c| CollisionCheck {
            code: if c.ds_period.is_some() { LintCode::Div001 } else { LintCode::Div005 },
            spans: c.region(),
            lead_period: c.realign_period().unwrap_or(0),
            met_cycles: 0,
            no_div_cycles: 0,
        });
        let sleds =
            report.sleds.iter().filter(|s| s.verdict == Verdict::ProvedCollision).map(|s| {
                CollisionCheck {
                    code: LintCode::Div002,
                    spans: vec![s.span],
                    lead_period: 0,
                    met_cycles: 0,
                    no_div_cycles: 0,
                }
            });
        SoundnessGuard {
            collisions: loops.chain(sleds).collect(),
            effective_stagger: report.effective_stagger,
            ..SoundnessGuard::diverse_only(diverse, fifo_depth)
        }
    }

    /// Guards the proved-diverse loop pairs of a twin: core 0 runs the
    /// original span, core 1 its variant. The pair prover proves no
    /// collision, so only the diverse half is armed.
    #[must_use]
    pub fn for_pair(report: &PairReport, fifo_depth: usize) -> SoundnessGuard {
        let diverse = report.diverse_spans().into_iter().map(|(o, v)| [vec![o], vec![v]]).collect();
        SoundnessGuard::diverse_only(diverse, fifo_depth)
    }

    fn diverse_only(diverse: Vec<[Vec<PcSpan>; 2]>, fifo_depth: usize) -> SoundnessGuard {
        SoundnessGuard {
            diverse,
            collisions: Vec::new(),
            effective_stagger: 0,
            warmup: 2 * fifo_depth as u64,
            streak: 0,
            region: None,
            guarded: 0,
            violations: Vec::new(),
        }
    }

    /// Feeds one cycle: `pcs` are both cores' last commit PCs, `stagger`
    /// the committed-instruction stagger (instructions core 0 has committed
    /// minus core 1's, the monitor's instruction diff), and `observed` /
    /// `no_diversity` the monitor's verdict. With core 1 delayed, the
    /// stream lead of a verdict's precondition is `stagger` plus the
    /// effective stagger the verdicts are for.
    pub fn observe(
        &mut self,
        cycle: u64,
        pcs: [Option<u64>; 2],
        stagger: i64,
        observed: bool,
        no_diversity: bool,
    ) {
        let pcs = match pcs {
            [Some(p0), Some(p1)] if observed => [p0, p1],
            _ => {
                (self.region, self.streak) = (None, 0);
                return;
            }
        };
        let inside = |spans: &[Vec<PcSpan>; 2]| {
            pcs.iter().zip(spans).all(|(&pc, s)| s.iter().any(|s| s.contains(pc)))
        };
        match self.diverse.iter().position(inside) {
            Some(r) if self.region == Some(r) => self.streak += 1,
            Some(r) => (self.region, self.streak) = (Some(r), 1),
            None => (self.region, self.streak) = (None, 0),
        }
        if self.streak >= self.warmup {
            self.guarded += 1;
            if no_diversity {
                self.violations.push((cycle, pcs[0], pcs[1]));
            }
        }
        let lead = stagger + self.effective_stagger;
        for c in self.collisions.iter_mut().filter(|c| c.holds(pcs, lead)) {
            c.met_cycles += 1;
            c.no_div_cycles += u64::from(no_diversity);
        }
    }

    /// The collision half's per-region counters.
    #[must_use]
    pub fn collisions(&self) -> &[CollisionCheck] {
        &self.collisions
    }

    /// Collision regions `(met, confirmed, unconfirmed)`: those whose
    /// precondition held, and how many of them did and did not show a
    /// no-diversity cycle.
    #[must_use]
    pub fn collision_counts(&self) -> (usize, usize, usize) {
        let met = self.collisions.iter().filter(|c| c.met()).count();
        let confirmed = self.collisions.iter().filter(|c| c.met() && c.confirmed()).count();
        (met, confirmed, met - confirmed)
    }

    /// Whether the run passes: no diverse-half violation and no refuted
    /// DIV001/DIV002 region.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && !self.collisions.iter().any(CollisionCheck::refuted)
    }

    /// One line per collision region, then one for the diverse half when it
    /// has regions, for reports and CLI output.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for c in &self.collisions {
            let spans: Vec<String> = c.spans.iter().map(ToString::to_string).collect();
            let verdict = match (c.met(), c.confirmed()) {
                (false, _) => "not met",
                (true, true) => "CONFIRMED",
                (true, false) if c.refuted() => "REFUTED",
                (true, false) => "unconfirmed",
            };
            let _ = writeln!(
                out,
                "  {} {}  met {} cycles, no-diversity {} cycles  -> {verdict}",
                c.code,
                spans.join("+"),
                c.met_cycles,
                c.no_div_cycles
            );
        }
        if self.collisions.is_empty() {
            out.push_str("  (no proved-collision regions)\n");
        }
        if !self.diverse.is_empty() {
            let _ = writeln!(
                out,
                "  proved-diverse: {} regions, {} warmup-gated cycles guarded, {} violations",
                self.diverse.len(),
                self.guarded,
                self.violations.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Diagnostic, LoopCertificate, PairCertificate, Sled};
    use safedm_isa::Inst;

    const DEPTH: usize = 8;
    const WARMUP: u64 = 2 * DEPTH as u64;
    const A: PcSpan = PcSpan { start: 0x100, end: 0x110 };
    const B: PcSpan = PcSpan { start: 0x200, end: 0x210 };
    const C: PcSpan = PcSpan { start: 0x300, end: 0x340 };

    fn cert(span: PcSpan, verdict: Verdict, ds_period: Option<u64>) -> LoopCertificate {
        LoopCertificate {
            header_pc: span.start,
            span,
            callee_spans: Vec::new(),
            body_len: Some(span.insts()),
            ds_period,
            is_period: ds_period,
            min_safe_stagger: None,
            witness: None,
            verdict,
            data_independent: false,
        }
    }

    fn report(certificates: Vec<LoopCertificate>, sleds: Vec<Sled>, s_eff: i64) -> ProveReport {
        ProveReport {
            points: Vec::new(),
            certificates,
            sleds,
            diagnostics: Vec::<Diagnostic>::new(),
            effective_stagger: s_eff,
        }
    }

    fn pair(spans: &[(PcSpan, PcSpan)]) -> PairReport {
        let certificates = spans
            .iter()
            .map(|&(o, v)| PairCertificate {
                orig_header: o.start,
                var_header: v.start,
                orig_span: o,
                var_span: v,
                body_len: Some(o.insts()),
                twin_regs: 0,
                prologue_skew: DEPTH,
                verdict: Verdict::ProvedDiverse,
                witness: None,
            })
            .collect();
        PairReport {
            certificates,
            diagnostics: Vec::new(),
            points_mapped: 0,
            points_verified: 0,
            map_ok: true,
        }
    }

    /// Feeds `n` monitored cycles with both cores at `pcs`.
    fn feed(g: &mut SoundnessGuard, n: u64, pcs: [u64; 2], stagger: i64, no_div: bool) {
        for cycle in 0..n {
            g.observe(cycle, pcs.map(Some), stagger, true, no_div);
        }
    }

    #[test]
    fn diverse_half_counts_from_twice_the_fifo_depth() {
        let mut g = SoundnessGuard::for_pair(&pair(&[(A, A)]), DEPTH);
        feed(&mut g, WARMUP - 2, [A.start; 2], 0, false);
        // Streak 2*depth - 1: the FIFOs may still hold pre-region traffic.
        feed(&mut g, 1, [A.start; 2], 0, true);
        assert!(g.violations.is_empty() && g.guarded == 0, "{g:?}");
        // Streak 2*depth: checked.
        feed(&mut g, 1, [A.start; 2], 0, true);
        assert_eq!((g.violations.len(), g.guarded), (1, 1));
        assert!(!g.passed());
    }

    #[test]
    fn diverse_half_streak_resets() {
        let resets: [&dyn Fn(&mut SoundnessGuard); 3] = [
            // A move to another proved region.
            &|g| feed(g, 1, [B.start; 2], 0, false),
            // An unobserved cycle.
            &|g| g.observe(0, [Some(A.start); 2], 0, false, false),
            // A core outside every region.
            &|g| feed(g, 1, [A.start, C.start], 0, false),
        ];
        for reset in resets {
            let mut g = SoundnessGuard::for_pair(&pair(&[(A, A), (B, B)]), DEPTH);
            feed(&mut g, WARMUP - 1, [A.start; 2], 0, false);
            reset(&mut g);
            feed(&mut g, WARMUP - 1, [A.start; 2], 0, true);
            assert!(g.violations.is_empty(), "{g:?}");
            assert_eq!(g.guarded, 0);
        }
    }

    #[test]
    fn pair_regions_pair_a_core0_span_with_a_core1_span() {
        let mut g = SoundnessGuard::for_pair(&pair(&[(A, B)]), DEPTH);
        // Core 0 in the original, core 1 in the variant: guarded.
        feed(&mut g, WARMUP, [A.start, B.start], 0, false);
        assert_eq!(g.guarded, 1);
        // Swapped cores are outside the pair.
        let mut g = SoundnessGuard::for_pair(&pair(&[(A, B)]), DEPTH);
        feed(&mut g, WARMUP + 4, [B.start, A.start], 0, true);
        assert_eq!((g.guarded, g.violations.len()), (0, 0));
        assert!(g.collisions().is_empty());
    }

    #[test]
    fn collision_half_confirms_reports_and_refutes() {
        let sled = Sled {
            span: C,
            inst: Inst::NOP,
            min_safe_stagger: 3,
            verdict: Verdict::ProvedCollision,
        };
        let r = report(
            vec![
                cert(A, Verdict::ProvedCollision, None),
                cert(B, Verdict::ProvedCollision, Some(2)),
                cert(PcSpan { start: 0x400, end: 0x408 }, Verdict::Unknown, None),
            ],
            vec![sled],
            0,
        );
        let mut g = SoundnessGuard::new(&r, DEPTH);
        let codes: Vec<LintCode> = g.collisions().iter().map(|c| c.code).collect();
        assert_eq!(codes, [LintCode::Div005, LintCode::Div001, LintCode::Div002]);

        // DIV005 (lockstep): met at lead 0 only; confirmed by one no-div cycle.
        feed(&mut g, 3, [A.start, A.start + 4], 1, true); // lead 1: not met
        feed(&mut g, 5, [A.start, A.start + 4], 0, false);
        feed(&mut g, 1, [A.start; 2], 0, true);
        // DIV001 (period 2): met at any even lead, never without diversity.
        feed(&mut g, 4, [B.start; 2], -2, false);
        feed(&mut g, 4, [B.start; 2], 1, true); // odd lead: not met
                                                // DIV002: one core outside never meets the precondition.
        feed(&mut g, 4, [C.start, A.start], 0, true);

        let c = g.collisions();
        assert_eq!((c[0].met_cycles, c[0].no_div_cycles), (6, 1));
        assert!(c[0].confirmed() && !c[0].refuted());
        assert_eq!((c[1].met_cycles, c[1].no_div_cycles), (4, 0));
        assert!(c[1].refuted(), "a met DIV001 region without a no-div cycle fails");
        assert!(!c[2].met());
        assert_eq!(g.collision_counts(), (2, 1, 1));
        assert!(!g.passed());
        let text = g.summary();
        assert!(text.contains("CONFIRMED") && text.contains("REFUTED"), "{text}");
        assert!(text.contains("not met"), "{text}");
    }

    #[test]
    fn unconfirmed_lockstep_region_is_reported_not_failed() {
        let r = report(vec![cert(A, Verdict::ProvedCollision, None)], Vec::new(), 0);
        let mut g = SoundnessGuard::new(&r, DEPTH);
        feed(&mut g, 10, [A.start; 2], 0, false);
        assert_eq!(g.collision_counts(), (1, 0, 1));
        assert!(g.passed());
        assert!(g.summary().contains("-> unconfirmed"), "{}", g.summary());
    }

    #[test]
    fn the_stream_lead_adds_the_effective_stagger() {
        // Verdicts for an effective stagger of 4: a period-2 loop is met
        // where the monitor's stagger plus 4 is even.
        let r = report(vec![cert(A, Verdict::ProvedCollision, Some(2))], Vec::new(), 4);
        let mut g = SoundnessGuard::new(&r, DEPTH);
        feed(&mut g, 3, [A.start; 2], -4, true);
        feed(&mut g, 3, [A.start; 2], -3, true);
        assert_eq!(g.collisions()[0].met_cycles, 3);
    }
}
