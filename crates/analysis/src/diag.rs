//! Lint diagnostics and their rustc-style text rendering.

use std::fmt;

use crate::cfg::DecodedProgram;

/// Stable identifier of a diversity lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// Cycle-periodic loop: register-port traffic repeats with a fixed
    /// period, so the data signatures of two cores staggered by a multiple
    /// of the period are guaranteed to collide.
    Div001,
    /// Identical-instruction sled long enough to fill both pipelines with
    /// the same opcodes, guaranteeing an instruction-signature collision for
    /// small staggering.
    Div002,
    /// Data-independent loop: the committed stream reads no load or CSR
    /// value and every read is provably equal across the cores, so
    /// redundant cores compute identical register traffic and diversity
    /// relies on staggering alone.
    Div003,
    /// The configured staggering is unsafe against a hazard found by
    /// DIV001/DIV002 (multiple of a loop period, or smaller than a sled's
    /// minimum safe stagger).
    Div004,
    /// The abstract-interpretation prover proved a data-signature collision
    /// at the configured stagger: either lockstep cores with provably equal
    /// reads, or invariant traffic re-aligning at a stagger ≡ 0 modulo its
    /// rotation period.
    Div005,
    /// The prover proved an instruction-signature collision window: the
    /// opcode streams re-align at the configured stagger even though the
    /// data signature is not proved to collide.
    Div006,
    /// The configured stagger violates a loop's minimum-safe-stagger
    /// certificate (a provably safe stagger exists, but the configured one
    /// is below it).
    Div007,
    /// Diversity of a loop is not provable at the configured stagger — the
    /// prover's explicit `Unknown`, with the refuting witness attached.
    Div008,
    /// The diversity transform left a residue the two-program relational
    /// prover could not certify: a loop-body pair that shares at least one
    /// instruction encoding (or an unmapped / multi-path body), so
    /// encoding-disjointness does not hold at stagger 0.
    Div009,
    /// Correspondence-map violation: the variant is not a faithful renaming
    /// of the original at some mapped point — a semantic-inequivalence
    /// witness for the twin pair.
    Div010,
}

impl LintCode {
    /// All lint codes, in numeric order.
    pub const ALL: [LintCode; 10] = [
        LintCode::Div001,
        LintCode::Div002,
        LintCode::Div003,
        LintCode::Div004,
        LintCode::Div005,
        LintCode::Div006,
        LintCode::Div007,
        LintCode::Div008,
        LintCode::Div009,
        LintCode::Div010,
    ];

    /// The stable rule identifier (`"DIV001"` …), as used in SARIF output,
    /// baseline files and the `--deny/--warn/--allow` CLI flags.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            LintCode::Div001 => "DIV001",
            LintCode::Div002 => "DIV002",
            LintCode::Div003 => "DIV003",
            LintCode::Div004 => "DIV004",
            LintCode::Div005 => "DIV005",
            LintCode::Div006 => "DIV006",
            LintCode::Div007 => "DIV007",
            LintCode::Div008 => "DIV008",
            LintCode::Div009 => "DIV009",
            LintCode::Div010 => "DIV010",
        }
    }

    /// Parses a rule identifier (case-insensitive `DIVnnn`).
    #[must_use]
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.id().eq_ignore_ascii_case(s.trim()))
    }

    /// The severity this lint reports with when no override is configured
    /// and no finding-specific downgrade applies (DIV001 downgrades itself
    /// to a warning when the period exceeds the FIFO depth, for instance).
    /// This is what the SARIF `defaultConfiguration` advertises.
    #[must_use]
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::Div001
            | LintCode::Div002
            | LintCode::Div004
            | LintCode::Div005
            | LintCode::Div007
            | LintCode::Div010 => Severity::Error,
            LintCode::Div003 | LintCode::Div006 | LintCode::Div008 | LintCode::Div009 => {
                Severity::Warning
            }
        }
    }

    /// Short human description of what the lint detects.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            LintCode::Div001 => "cycle-periodic loop (guaranteed data-signature collision)",
            LintCode::Div002 => {
                "identical-instruction sled (guaranteed instruction-signature collision)"
            }
            LintCode::Div003 => "data-independent loop (diversity relies on staggering alone)",
            LintCode::Div004 => "configured staggering defeated by a detected hazard",
            LintCode::Div005 => "proved data-signature collision at the configured stagger",
            LintCode::Div006 => "proved instruction-signature collision window",
            LintCode::Div007 => "configured stagger violates a minimum-safe-stagger certificate",
            LintCode::Div008 => "diversity unprovable at the configured stagger",
            LintCode::Div009 => "transform residue: twin loop pair not provably diverse",
            LintCode::Div010 => "correspondence-map violation: twin is not a faithful renaming",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How certain / severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational.
    Note,
    /// Likely hazard, not guaranteed.
    Warning,
    /// Guaranteed no-diversity hazard under the stated conditions.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        f.write_str(s)
    }
}

/// A per-lint severity override, rustc-flag style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Suppress the lint entirely (`--allow`).
    Allow,
    /// Force findings down to [`Severity::Warning`] (`--warn`).
    Warn,
    /// Force findings up to [`Severity::Error`] (`--deny`).
    Deny,
}

/// The per-lint severity configuration of one analysis run: a sparse map
/// from [`LintCode`] to [`Level`]. Codes without an entry keep whatever
/// severity the lint itself computed. Later [`LintLevels::set`] calls win,
/// so CLI flags compose left-to-right.
#[derive(Debug, Clone, Default)]
pub struct LintLevels {
    overrides: Vec<(LintCode, Level)>,
}

impl LintLevels {
    /// Sets (or replaces) the level for one lint.
    pub fn set(&mut self, code: LintCode, level: Level) {
        if let Some(slot) = self.overrides.iter_mut().find(|(c, _)| *c == code) {
            slot.1 = level;
        } else {
            self.overrides.push((code, level));
        }
    }

    /// The configured level for `code`, if any.
    #[must_use]
    pub fn get(&self, code: LintCode) -> Option<Level> {
        self.overrides.iter().find(|(c, _)| *c == code).map(|(_, l)| *l)
    }

    /// Builds the map from the three comma-separated CLI lists
    /// (`--deny DIV003,DIV008` style). Deny wins over warn wins over allow
    /// when one code appears in several lists.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first entry that is not a known rule id.
    pub fn from_args(
        allow: Option<&str>,
        warn: Option<&str>,
        deny: Option<&str>,
    ) -> Result<LintLevels, String> {
        let mut levels = LintLevels::default();
        for (list, level, flag) in [
            (allow, Level::Allow, "--allow"),
            (warn, Level::Warn, "--warn"),
            (deny, Level::Deny, "--deny"),
        ] {
            let Some(list) = list else { continue };
            for entry in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let code = LintCode::parse(entry).ok_or_else(|| {
                    format!("{flag}: unknown lint `{entry}` (expected DIV001..DIV010)")
                })?;
                levels.set(code, level);
            }
        }
        Ok(levels)
    }

    /// Applies the overrides to a finding list: `Allow` drops the finding,
    /// `Warn`/`Deny` rewrite its severity. Returns the surviving findings in
    /// their original order.
    #[must_use]
    pub fn apply(&self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        if self.overrides.is_empty() {
            return diags;
        }
        diags
            .into_iter()
            .filter_map(|mut d| match self.get(d.code) {
                Some(Level::Allow) => None,
                Some(Level::Warn) => {
                    d.severity = Severity::Warning;
                    Some(d)
                }
                Some(Level::Deny) => {
                    d.severity = Severity::Error;
                    Some(d)
                }
                None => Some(d),
            })
            .collect()
    }
}

/// A half-open PC range `[start, end)` in the text section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcSpan {
    /// First instruction address of the region.
    pub start: u64,
    /// One past the last instruction address.
    pub end: u64,
}

impl PcSpan {
    /// Number of 32-bit instruction slots covered.
    #[must_use]
    pub fn insts(&self) -> u64 {
        (self.end - self.start) / 4
    }

    /// Whether `pc` falls inside the span.
    #[must_use]
    pub fn contains(&self, pc: u64) -> bool {
        self.start <= pc && pc < self.end
    }
}

impl fmt::Display for PcSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}..{:#x}", self.start, self.end)
    }
}

/// One finding of the static diversity analyzer.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// How severe the finding is.
    pub severity: Severity,
    /// The program region the finding is anchored to.
    pub span: PcSpan,
    /// One-line description.
    pub message: String,
    /// Additional `= note:` / `= help:` lines.
    pub notes: Vec<String>,
    /// Traffic period in instructions, for periodic-loop findings.
    pub period: Option<u64>,
    /// Minimum staggering (in committed instructions) that clears the
    /// hazard, when one exists.
    pub min_safe_stagger: Option<u64>,
}

impl Diagnostic {
    /// Renders the diagnostic in rustc style, with a disassembly snippet
    /// taken from `prog` (at most `snippet_lines` lines shown).
    #[must_use]
    pub fn render(&self, prog: &DecodedProgram, snippet_lines: usize) -> String {
        let mut out = String::new();
        use fmt::Write;
        let _ = writeln!(out, "{}[{}]: {}", self.severity, self.code, self.message);
        let _ = writeln!(out, "  --> {} ({} instructions)", self.span, self.span.insts());
        let _ = writeln!(out, "   |");

        let lines: Vec<String> = (self.span.start..self.span.end)
            .step_by(4)
            .filter_map(|pc| prog.index_of(pc))
            .map(|idx| {
                let slot = prog.slots[idx];
                match slot.inst {
                    Some(inst) => format!("   | {:#010x}: {}", slot.pc, inst),
                    None => format!("   | {:#010x}: .word {:#010x}", slot.pc, slot.raw),
                }
            })
            .collect();
        if lines.len() <= snippet_lines.max(2) {
            for l in &lines {
                let _ = writeln!(out, "{l}");
            }
        } else {
            let head = snippet_lines.max(2) - 1;
            for l in &lines[..head] {
                let _ = writeln!(out, "{l}");
            }
            let _ = writeln!(out, "   | ... ({} more)", lines.len() - head - 1);
            let _ = writeln!(out, "{}", lines[lines.len() - 1]);
        }
        let _ = writeln!(out, "   |");
        for n in &self.notes {
            let _ = writeln!(out, "   = {n}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safedm_asm::Asm;

    #[test]
    fn lint_code_ids_parse_back() {
        for code in LintCode::ALL {
            assert_eq!(LintCode::parse(code.id()), Some(code));
            assert_eq!(LintCode::parse(&code.id().to_lowercase()), Some(code));
            assert_eq!(code.id(), code.to_string());
        }
        assert_eq!(LintCode::parse("DIV999"), None);
        assert_eq!(LintCode::parse(""), None);
    }

    #[test]
    fn levels_parse_apply_and_compose() {
        let levels =
            LintLevels::from_args(Some("div003"), Some("DIV001, DIV003"), Some("DIV003")).unwrap();
        // --deny wins: DIV003 moved allow -> warn -> deny.
        assert_eq!(levels.get(LintCode::Div003), Some(Level::Deny));
        assert_eq!(levels.get(LintCode::Div001), Some(Level::Warn));
        assert_eq!(levels.get(LintCode::Div002), None);

        let mk = |code, severity| Diagnostic {
            code,
            severity,
            span: PcSpan { start: 0, end: 4 },
            message: String::new(),
            notes: vec![],
            period: None,
            min_safe_stagger: None,
        };
        let mut levels = LintLevels::default();
        levels.set(LintCode::Div001, Level::Warn);
        levels.set(LintCode::Div002, Level::Allow);
        let out = levels.apply(vec![
            mk(LintCode::Div001, Severity::Error),
            mk(LintCode::Div002, Severity::Error),
            mk(LintCode::Div003, Severity::Warning),
        ]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].code, LintCode::Div001);
        assert_eq!(out[0].severity, Severity::Warning);
        assert_eq!(out[1].code, LintCode::Div003);

        let err = LintLevels::from_args(None, None, Some("DIV042")).unwrap_err();
        assert!(err.contains("--deny") && err.contains("DIV042"), "{err}");
    }

    #[test]
    fn span_contains_and_len() {
        let s = PcSpan { start: 0x100, end: 0x110 };
        assert_eq!(s.insts(), 4);
        assert!(s.contains(0x100));
        assert!(s.contains(0x10c));
        assert!(!s.contains(0x110));
    }

    #[test]
    fn render_elides_long_snippets() {
        let mut a = Asm::new();
        for _ in 0..32 {
            a.nop();
        }
        a.ebreak();
        let prog = DecodedProgram::from_program(&a.link(0x1000).unwrap());
        let d = Diagnostic {
            code: LintCode::Div002,
            severity: Severity::Error,
            span: PcSpan { start: 0x1000, end: 0x1000 + 32 * 4 },
            message: "sled".into(),
            notes: vec!["note: test".into()],
            period: None,
            min_safe_stagger: Some(19),
        };
        let r = d.render(&prog, 6);
        assert!(r.contains("error[DIV002]"));
        assert!(r.contains("(32 instructions)"));
        assert!(r.contains("more)"));
        assert!(r.lines().count() < 16);
    }
}
