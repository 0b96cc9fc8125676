//! The versioned campaign submission surface: [`CampaignSpec`] and
//! [`CellSpec`].
//!
//! Every way of launching a campaign — the `safedm-sim campaign`
//! subcommand, the `table1`/`ccf_campaign` bench binaries, the
//! `safedm-sim serve` HTTP service and the `safedm-sdk` client — builds
//! one of these values and hands it to the shared runner. The spec is the
//! *whole* submission: kernels, grid axes, seed derivation, execution
//! engine, a scheduling hint and the telemetry options. It round-trips
//! through the dependency-free JSON layer (`safedm_obs::json`) under the
//! explicit [`SCHEMA`] version `safedm-api/1`.
//!
//! ## Canonicalisation and content addressing
//!
//! Campaign cells are pure functions of their spec (the determinism
//! contract of the campaign engine), so a cell's result can be served from
//! a cache keyed on *what the cell is* rather than *when it ran*. Two
//! things make that key trustworthy:
//!
//! * [`CampaignSpec::canonical_json`] / [`CellSpec::canonical_json`] emit
//!   every field, in one fixed order, with defaults filled in — so JSON
//!   field order and default elision in a submission can never change the
//!   digest;
//! * the digest input appends [`CODE_VERSION`], so results computed by a
//!   different build of the simulator never alias.
//!
//! Scheduling and telemetry knobs (`jobs`, `keep_timing`) are round-tripped
//! but **excluded** from the digest: they steer how a campaign runs, never
//! what it computes.

use crate::seed::mix64;
use safedm_obs::json::{parse, JsonValue};

/// The API schema version every spec document carries.
pub const SCHEMA: &str = "safedm-api/1";

/// The code version mixed into every content digest. Results are only
/// cache-equivalent between binaries built from the same simulator code;
/// bump the crate version (or this suffix) whenever simulation semantics
/// change.
pub const CODE_VERSION: &str = concat!("safedm/", env!("CARGO_PKG_VERSION"));

/// The largest stagger a spec may ask for, in nops: ten times the paper's
/// largest setup (10,000 nops). The harness jumps over the sled with one
/// `jal`, whose ±1 MiB reach ends at 262,142 nops; this bound stays well
/// inside it and keeps the image a small part of the 16 MiB RAM window.
pub const MAX_STAGGER: u64 = 100_000;

/// The most cells one campaign may enumerate: 34 times the full Table I
/// suite (29 kernels, 290 cells). A server replays a campaign's cached
/// cells before it answers the submission, one lookup per cell, so this
/// also bounds that wait.
pub const MAX_CELLS: u64 = 10_000;

/// Cells per kernel of [`Protocol::Table1`]: 4 runs at 0 nops and 2 at
/// each of the three staggered setups.
const TABLE1_CELLS_PER_KERNEL: u64 = 10;

/// Which campaign protocol a spec requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// The generic kernel × stagger × run grid (`safedm-sim campaign`).
    #[default]
    Grid,
    /// The paper's Table I protocol: the four canonical staggering setups
    /// with 4 seeds at 0 nops and 2 at each staggered setup.
    Table1,
    /// The common-cause fault-injection campaign (one cell per kernel,
    /// `runs` trials each).
    Ccf,
}

impl Protocol {
    /// Canonical lower-case name (the `protocol` JSON vocabulary).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Protocol::Grid => "grid",
            Protocol::Table1 => "table1",
            Protocol::Ccf => "ccf",
        }
    }

    /// Parses a protocol name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values.
    pub fn parse(s: &str) -> Result<Protocol, String> {
        match s.trim() {
            "grid" => Ok(Protocol::Grid),
            "table1" => Ok(Protocol::Table1),
            "ccf" => Ok(Protocol::Ccf),
            other => Err(format!("invalid protocol `{other}` (expected grid, table1 or ccf)")),
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A complete campaign submission.
///
/// The one entry point shared by CLI, server and SDK: everything needed to
/// enumerate and execute a campaign deterministically, plus the scheduling
/// hint (`jobs`) and telemetry options that do not affect results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Campaign protocol.
    pub protocol: Protocol,
    /// Kernel names (the `--kernels` axis; validated by the runner against
    /// the built-in registry).
    pub kernels: Vec<String>,
    /// Staggering axis in nops ([`Protocol::Grid`] only; `table1` pins the
    /// paper's four setups and `ccf` injects at cycle granularity).
    pub staggers: Vec<u64>,
    /// Repeat runs per configuration point ([`Protocol::Ccf`]: trials per
    /// kernel).
    pub runs: u64,
    /// Root seed for per-cell seed derivation; `None` selects the
    /// protocol's literal legacy seeds (the paper-protocol mode).
    pub root_seed: Option<u64>,
    /// Execution engine name (`cycle` or `fast`, with `hybrid` accepted as
    /// an alias of `cycle`; validated by the runner against
    /// `safedm_soc::fastpath::Engine`).
    pub engine: String,
    /// Worker-count hint. Scheduling only — never part of the digest, and a
    /// server is free to clamp it.
    pub jobs: Option<u64>,
    /// Whether serialised events keep per-cell wall-clock (forfeits
    /// byte-identity across runs). Telemetry only — never in the digest.
    pub keep_timing: bool,
}

impl Default for CampaignSpec {
    fn default() -> CampaignSpec {
        CampaignSpec {
            protocol: Protocol::Grid,
            kernels: vec!["bitcount".to_owned(), "fac".to_owned()],
            staggers: vec![0, 100],
            runs: 2,
            root_seed: Some(2024),
            engine: "cycle".to_owned(),
            jobs: None,
            keep_timing: false,
        }
    }
}

fn uint_array(values: &[u64]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|v| JsonValue::Uint(*v)).collect())
}

fn str_array(values: &[String]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|v| JsonValue::Str(v.clone())).collect())
}

impl CampaignSpec {
    /// The spec as a JSON object: every field, fixed order, schema first.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("schema".to_owned(), JsonValue::Str(SCHEMA.to_owned())),
            ("protocol".to_owned(), JsonValue::Str(self.protocol.as_str().to_owned())),
            ("kernels".to_owned(), str_array(&self.kernels)),
            ("staggers".to_owned(), uint_array(&self.staggers)),
            ("runs".to_owned(), JsonValue::Uint(self.runs)),
            ("root_seed".to_owned(), self.root_seed.map_or(JsonValue::Null, JsonValue::Uint)),
            ("engine".to_owned(), JsonValue::Str(self.engine.clone())),
            ("jobs".to_owned(), self.jobs.map_or(JsonValue::Null, JsonValue::Uint)),
            ("keep_timing".to_owned(), JsonValue::Bool(self.keep_timing)),
        ])
    }

    /// The canonical serialised form: compact JSON of [`Self::to_json`].
    /// Parse → canonicalise is idempotent, and any two submissions that
    /// parse to the same spec canonicalise to the same bytes regardless of
    /// their field order or elided defaults.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        self.to_json().render()
    }

    /// Reconstructs a spec from a parsed JSON object. Missing fields take
    /// their defaults (elision-tolerant); ill-typed fields and unknown
    /// protocol/schema values are errors.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(v: &JsonValue) -> Result<CampaignSpec, String> {
        match v.get("schema") {
            None => {}
            Some(s) => match s.as_str() {
                Some(SCHEMA) => {}
                Some(other) => {
                    return Err(format!("unsupported schema `{other}` (expected `{SCHEMA}`)"))
                }
                None => return Err("spec field `schema` is not a string".to_owned()),
            },
        }
        let d = CampaignSpec::default();
        let opt_uint = |key: &str| -> Result<Option<u64>, String> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("spec field `{key}` is not an unsigned integer")),
            }
        };
        let protocol = match v.get("protocol") {
            None => d.protocol,
            Some(p) => Protocol::parse(
                p.as_str().ok_or_else(|| "spec field `protocol` is not a string".to_owned())?,
            )?,
        };
        let kernels = match v.get("kernels") {
            None => d.kernels,
            Some(k) => k
                .as_array()
                .ok_or_else(|| "spec field `kernels` is not an array".to_owned())?
                .iter()
                .map(|e| {
                    e.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "spec field `kernels` has a non-string entry".to_owned())
                })
                .collect::<Result<Vec<String>, String>>()?,
        };
        let staggers = match v.get("staggers") {
            None => d.staggers,
            Some(s) => s
                .as_array()
                .ok_or_else(|| "spec field `staggers` is not an array".to_owned())?
                .iter()
                .map(|e| {
                    e.as_u64()
                        .ok_or_else(|| "spec field `staggers` has a non-integer entry".to_owned())
                })
                .collect::<Result<Vec<u64>, String>>()?,
        };
        let runs = opt_uint("runs")?.unwrap_or(d.runs);
        let root_seed =
            match v.get("root_seed") {
                None => d.root_seed,
                Some(JsonValue::Null) => None,
                Some(x) => Some(x.as_u64().ok_or_else(|| {
                    "spec field `root_seed` is not an unsigned integer".to_owned()
                })?),
            };
        let engine = match v.get("engine") {
            None => d.engine,
            Some(e) => e
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| "spec field `engine` is not a string".to_owned())?,
        };
        let jobs = opt_uint("jobs")?;
        let keep_timing = match v.get("keep_timing") {
            None => d.keep_timing,
            Some(b) => {
                b.as_bool().ok_or_else(|| "spec field `keep_timing` is not a boolean".to_owned())?
            }
        };
        let spec = CampaignSpec {
            protocol,
            kernels,
            staggers,
            runs,
            root_seed,
            engine,
            jobs,
            keep_timing,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text (e.g. an HTTP request body).
    ///
    /// # Errors
    ///
    /// Returns a message for syntax errors and schema violations alike.
    pub fn parse_json(text: &str) -> Result<CampaignSpec, String> {
        let v = parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?;
        CampaignSpec::from_json(&v)
    }

    /// Structural validation (kernel-name existence is the runner's job —
    /// this crate stays registry-agnostic).
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.kernels.is_empty() {
            return Err("spec needs at least one kernel".to_owned());
        }
        if self.protocol == Protocol::Grid && self.staggers.is_empty() {
            return Err("grid spec needs at least one stagger".to_owned());
        }
        if self.runs == 0 {
            return Err("spec field `runs` must be >= 1".to_owned());
        }
        if self.protocol == Protocol::Grid {
            if let Some(nops) = self.staggers.iter().find(|&&n| n > MAX_STAGGER) {
                return Err(format!(
                    "spec field `staggers` has {nops} nops, above the limit of {MAX_STAGGER}"
                ));
            }
        }
        let cells = self.cell_count();
        if cells > MAX_CELLS {
            let fields = match self.protocol {
                Protocol::Grid => "`kernels` × `staggers` × `runs`".to_owned(),
                Protocol::Table1 => format!("`kernels` × {TABLE1_CELLS_PER_KERNEL}"),
                Protocol::Ccf => "`kernels`".to_owned(),
            };
            return Err(format!(
                "spec asks for {cells} cells ({fields}), above the limit of {MAX_CELLS}"
            ));
        }
        Ok(())
    }

    /// How many cells the spec enumerates to (saturating at `u64::MAX`):
    /// kernel × stagger × run for a grid, ten per kernel for Table I, one
    /// per kernel for CCF.
    #[must_use]
    pub fn cell_count(&self) -> u64 {
        let kernels = self.kernels.len() as u64;
        match self.protocol {
            Protocol::Grid => {
                kernels.saturating_mul(self.staggers.len() as u64).saturating_mul(self.runs)
            }
            Protocol::Table1 => kernels.saturating_mul(TABLE1_CELLS_PER_KERNEL),
            Protocol::Ccf => kernels,
        }
    }

    /// The result-identity digest of the whole spec: a content hash over
    /// the canonical form *minus* the scheduling/telemetry fields (`jobs`,
    /// `keep_timing`), salted with [`CODE_VERSION`]. Two specs share a
    /// digest exactly when they ask for the same deterministic results.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let identity = CampaignSpec { jobs: None, keep_timing: false, ..self.clone() };
        content_digest(&identity.canonical_json())
    }
}

/// One campaign cell's identity: everything the cell's result is a function
/// of (with [`CODE_VERSION`] supplied by [`CellSpec::digest`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Campaign protocol the cell belongs to.
    pub protocol: Protocol,
    /// Kernel name.
    pub kernel: String,
    /// Config-point description (e.g. `nops=100`, `trials=120`) — the same
    /// string the cell's `CellEvent` carries.
    pub config: String,
    /// Repeat-run number within the config point.
    pub run: u64,
    /// The cell's derived (or protocol-literal) seed.
    pub seed: u64,
    /// Execution engine name.
    pub engine: String,
}

impl CellSpec {
    /// The canonical serialised form: compact JSON, every field, fixed
    /// order, schema first.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        JsonValue::Obj(vec![
            ("schema".to_owned(), JsonValue::Str(SCHEMA.to_owned())),
            ("protocol".to_owned(), JsonValue::Str(self.protocol.as_str().to_owned())),
            ("kernel".to_owned(), JsonValue::Str(self.kernel.clone())),
            ("config".to_owned(), JsonValue::Str(self.config.clone())),
            ("run".to_owned(), JsonValue::Uint(self.run)),
            ("seed".to_owned(), JsonValue::Uint(self.seed)),
            ("engine".to_owned(), JsonValue::Str(self.engine.clone())),
        ])
        .render()
    }

    /// The cell's content-address: a digest of the canonical form salted
    /// with [`CODE_VERSION`]. The cache-correctness argument: the campaign
    /// engine makes a cell's result a pure function of exactly these fields
    /// plus the code that interprets them, so equal digests imply equal
    /// results.
    #[must_use]
    pub fn digest(&self) -> u64 {
        content_digest(&self.canonical_json())
    }
}

/// FNV-1a 64 over `text` and [`CODE_VERSION`] (NUL-separated so neither can
/// masquerade as a suffix of the other), finished through the splitmix64
/// mixer for avalanche on the low bits.
#[must_use]
pub fn content_digest(text: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in text.as_bytes().iter().chain([0u8].iter()).chain(CODE_VERSION.as_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    mix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_roundtrips_and_validates() {
        let spec = CampaignSpec::default();
        assert!(spec.validate().is_ok());
        let back = CampaignSpec::parse_json(&spec.canonical_json()).unwrap();
        assert_eq!(back, spec);
        // Canonicalisation is idempotent.
        assert_eq!(back.canonical_json(), spec.canonical_json());
    }

    #[test]
    fn elided_defaults_and_field_order_do_not_change_the_digest() {
        let spec = CampaignSpec::default();
        // Fully-elided submission: just the schema.
        let sparse = CampaignSpec::parse_json(r#"{"schema":"safedm-api/1"}"#).unwrap();
        assert_eq!(sparse, spec);
        assert_eq!(sparse.digest(), spec.digest());
        // Reordered fields.
        let reordered = CampaignSpec::parse_json(
            r#"{"engine":"cycle","runs":2,"kernels":["bitcount","fac"],
                "staggers":[0,100],"protocol":"grid","root_seed":2024,
                "schema":"safedm-api/1"}"#,
        )
        .unwrap();
        assert_eq!(reordered.digest(), spec.digest());
    }

    #[test]
    fn scheduling_fields_never_reach_the_digest() {
        let spec = CampaignSpec::default();
        let hinted = CampaignSpec { jobs: Some(16), keep_timing: true, ..spec.clone() };
        assert_eq!(hinted.digest(), spec.digest());
        // ... but result-affecting fields do.
        let other = CampaignSpec { root_seed: Some(2025), ..spec.clone() };
        assert_ne!(other.digest(), spec.digest());
        let other = CampaignSpec { engine: "fast".to_owned(), ..spec.clone() };
        assert_ne!(other.digest(), spec.digest());
    }

    #[test]
    fn bad_specs_are_rejected_with_field_names() {
        let err = CampaignSpec::parse_json(r#"{"schema":"safedm-api/9"}"#).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        let err = CampaignSpec::parse_json(r#"{"protocol":"warp"}"#).unwrap_err();
        assert!(err.contains("invalid protocol"), "{err}");
        let err = CampaignSpec::parse_json(r#"{"runs":0}"#).unwrap_err();
        assert!(err.contains("runs"), "{err}");
        let err = CampaignSpec::parse_json(r#"{"kernels":[]}"#).unwrap_err();
        assert!(err.contains("kernel"), "{err}");
        let err = CampaignSpec::parse_json(r#"{"staggers":"all"}"#).unwrap_err();
        assert!(err.contains("staggers"), "{err}");
        assert!(CampaignSpec::parse_json("not json").is_err());
    }

    #[test]
    fn staggers_and_cell_counts_are_bounded() {
        let one = CampaignSpec {
            kernels: vec!["fac".to_owned()],
            staggers: vec![0],
            runs: 1,
            ..CampaignSpec::default()
        };
        let at = |staggers: Vec<u64>, runs: u64| CampaignSpec { staggers, runs, ..one.clone() };
        assert!(at(vec![0, MAX_STAGGER], MAX_CELLS / 2).validate().is_ok());
        let err = at(vec![0, MAX_STAGGER + 1], 1).validate().unwrap_err();
        assert!(
            err.contains("`staggers`") && err.contains(&(MAX_STAGGER + 1).to_string()),
            "{err}"
        );
        let err = at(vec![0, 100], MAX_CELLS / 2 + 1).validate().unwrap_err();
        assert!(err.contains("`runs`") && err.contains(&(MAX_CELLS + 2).to_string()), "{err}");
        // Products saturate instead of wrapping past the bound.
        assert_eq!(at(vec![0, 100], u64::MAX).cell_count(), u64::MAX);
        assert!(at(vec![0, 100], u64::MAX).validate().is_err());

        // Table I pins ten cells per kernel and ignores `staggers`; CCF has
        // one cell per kernel, whatever its trial count.
        let table1 =
            CampaignSpec { protocol: Protocol::Table1, staggers: vec![u64::MAX], ..one.clone() };
        assert_eq!(table1.cell_count(), TABLE1_CELLS_PER_KERNEL);
        assert!(table1.validate().is_ok());
        let many = vec!["fac".to_owned(); (MAX_CELLS / TABLE1_CELLS_PER_KERNEL) as usize + 1];
        let err = CampaignSpec { kernels: many, ..table1 }.validate().unwrap_err();
        assert!(err.contains("`kernels`"), "{err}");
        let ccf = CampaignSpec { protocol: Protocol::Ccf, runs: u64::MAX, ..one };
        assert_eq!(ccf.cell_count(), 1);
        assert!(ccf.validate().is_ok());
    }

    #[test]
    fn cell_digests_separate_every_identity_field() {
        let cell = CellSpec {
            protocol: Protocol::Grid,
            kernel: "fac".to_owned(),
            config: "nops=100".to_owned(),
            run: 1,
            seed: 42,
            engine: "cycle".to_owned(),
        };
        let d = cell.digest();
        assert_eq!(d, cell.clone().digest());
        assert_ne!(d, CellSpec { kernel: "bitcount".to_owned(), ..cell.clone() }.digest());
        assert_ne!(d, CellSpec { config: "nops=0".to_owned(), ..cell.clone() }.digest());
        assert_ne!(d, CellSpec { run: 2, ..cell.clone() }.digest());
        assert_ne!(d, CellSpec { seed: 43, ..cell.clone() }.digest());
        assert_ne!(d, CellSpec { engine: "fast".to_owned(), ..cell.clone() }.digest());
        assert_ne!(d, CellSpec { protocol: Protocol::Table1, ..cell }.digest());
    }

    #[test]
    fn null_root_seed_selects_legacy_mode() {
        let spec = CampaignSpec::parse_json(r#"{"root_seed":null}"#).unwrap();
        assert_eq!(spec.root_seed, None);
        let back = CampaignSpec::parse_json(&spec.canonical_json()).unwrap();
        assert_eq!(back.root_seed, None);
        assert_ne!(spec.digest(), CampaignSpec::default().digest());
    }
}
