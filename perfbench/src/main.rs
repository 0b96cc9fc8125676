//! The repository's benchmark: four seeded workloads driven through the
//! crates' public APIs, each printing one JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` is the measured run and reports the end-to-end metrics;
//! `--trace 1` is the separate traced run and reports the per-layer
//! metrics (see `README.md` in this directory).

mod membound;
mod metrics;
mod prove;
mod serve;
mod sim;
mod table1;

use std::time::{Duration, Instant};

use metrics::Report;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

const USAGE: &str = "usage: perfbench --workload <table1|membound|serve|prove> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs `f` once; returns its result and its time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "table1" => table1::run(&args),
        "membound" => membound::run(&args),
        "serve" => serve::run(&args),
        "prove" => prove::run(&args),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", report.render(args.trace));
    if report.failed > 0 {
        std::process::exit(1);
    }
}
