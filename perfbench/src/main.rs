//! perfbench — end-to-end and per-layer benchmark of the codec and its
//! encode service.
//!
//! ```text
//! perfbench --workload serve_small|large_lossless|large_lossy --seed N
//!           --seconds S --trace 0|1 [--daemon PATH-TO-j2kserved]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that times each layer from here, around calls into its public
//! functions. Every output is checked. The last stdout line is the result
//! object; the line before it is the detail record (host, op accounting,
//! sample counts). Exit code 1 when a check failed, 2 when the run could
//! not produce a result.

mod check;
mod codec;
mod host;
mod report;
mod serve;
mod stats;
mod workloads;
mod yardstick;

use report::Report;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: Option<PathBuf>,
    /// Every measuring loop stops here, so a slow host still exits in time.
    pub deadline: Instant,
}

/// Wall-clock budget of one run, well inside the 180 s a run may take.
const RUN_BUDGET: Duration = Duration::from_secs(150);

/// SplitMix64: the benchmark's only source of seeded choices.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent seeded stream: `stream` numbers the choice being made.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix(splitmix(seed).wrapping_add(stream))
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut daemon = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|_| bad())?)
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace is required")?,
        daemon,
        deadline: Instant::now() + RUN_BUDGET,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    let mut report = Report::new(&args.workload, args.seed, args.trace);
    let run = match args.workload.as_str() {
        "serve_small" => workloads::serve_small(&args, &mut report),
        "large_lossless" => workloads::large(&args, false, &mut report),
        "large_lossy" => workloads::large(&args, true, &mut report),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = run {
        // No result line; the detail record (with any check failures that
        // led here) goes to stderr.
        eprintln!("{}", report.detail_json(&host::describe()));
        eprintln!("perfbench: {}: {e}", args.workload);
        exit(2);
    }
    eprint!("{}", report.table());
    println!("{}", report.detail_json(&host::describe()));
    println!("{}", report.result_json());
    exit(if report.correct() { 0 } else { 1 });
}
