//! Wall-clock fleet benchmark of `trust_core::parallel::run_parallel`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` times the fleet driver from outside and prints the
//! end-to-end metrics; `--trace 1` makes the traced run and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` for the workloads and what each metric should move.

mod alloc;
mod calls;
mod probes;
mod report;
mod spans;
mod stage;
mod timed;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <signup_storm|continuous_session|lossy_durable> \
--seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--spans-dir" => spans_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced::run(
            args.workload,
            args.seed,
            args.seconds,
            args.spans_dir.as_deref(),
        )
    } else {
        timed::run(args.workload, args.seed, args.seconds)
    };
    match report.and_then(|r| r.to_json()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
