//! The FlashFuser repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo-cold|serve-warm|validate --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload. It builds its inputs from `--seed`,
//! sets up, measures for about `--seconds`, checks every output, and
//! prints a metric table followed by one JSON result line (see
//! `report.rs`). `--trace 1` additionally calls each layer function of
//! the program directly, inside spans, and reports the per-layer
//! metrics instead of the end-to-end ones. The exit code is 0 only when
//! every operation and correctness check succeeded. See `README.md`.

mod layers;
mod report;
mod serve_warm;
mod trace;
mod validate;
mod zoo_cold;

use flashfuser::core::MachineDescriptor;
use flashfuser::tensor::rng::SplitMix64;
use report::Report;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The machine every workload compiles for.
pub const MACHINE: &str = "h100_sxm";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }

    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// The target machine.
pub fn machine() -> MachineDescriptor {
    MachineDescriptor::builtin(MACHINE).expect("built-in machine id")
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_index(i + 1));
    }
}

/// Runs `setup` `times` times and records the median duration as
/// `setup_s`; the first repetition is timed from process start. Returns
/// the last repetition's product.
pub fn timed_setups<T>(
    report: &mut Report,
    process_start: Instant,
    times: usize,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut seconds = Vec::with_capacity(times);
    let mut product = None;
    for i in 0..times {
        // Drop the previous product first, outside the timed region:
        // each set-up starts clean and none pays for another's teardown.
        drop(product.take());
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        product = Some(setup());
        seconds.push(t0.elapsed().as_secs_f64());
    }
    report.set("setup_s", report::median(&seconds), "s", seconds.len());
    product.expect("at least one set-up")
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload zoo-cold|serve-warm|validate --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", u8::from(args.trace));
    report.note("machine", MACHINE);
    report.note(
        "host_threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match args.workload.as_str() {
        "zoo-cold" => zoo_cold::run(&args, process_start, &mut report),
        "serve-warm" => serve_warm::run(&args, process_start, &mut report),
        "validate" => validate::run(&args, process_start, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other} (zoo-cold, serve-warm, validate)");
            return ExitCode::from(2);
        }
    }
    if report.finish(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
