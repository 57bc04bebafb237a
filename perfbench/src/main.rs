//! laacad-perfbench — the LAACAD benchmark of record.
//!
//! One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <corner_converge|async_lossy|host_stream> \
//!     --seed <n> --seconds <s> --trace <0|1> [--threads <t>]
//! ```
//!
//! from the repository root. Inputs are generated from `--seed`; the
//! amount of work is fixed by `--seconds` (sized so that a run takes
//! about that long on a 2-core host), so every metric except time is a
//! function of `(seed, seconds)`. The timed phase is followed by output
//! checks; a failed check counts toward `failed`. With `--trace 0` the
//! last line of stdout carries the end-to-end metrics; with `--trace 1`
//! the run installs telemetry registries and its own spans and reports
//! the per-layer metrics instead, writing the spans to
//! `.bench_out/<workload>-seed<n>.spans.jsonl`. The line before the
//! result is the full row: metadata, every metric, and a fingerprint of
//! the deterministic outputs. `--threads` overrides the workload's
//! thread count (the repeat check compares threads 1 and 2).

mod corner;
mod host;
mod lossy;
mod report;
mod sys;
mod trace;

use report::Report;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub threads: Option<usize>,
}

impl Ctx {
    /// A seed for stream `salt`, derived from the workload seed.
    pub fn derive(&self, salt: u64) -> u64 {
        let mut rng = laacad_region::sampling::SplitMix64::new(
            self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        rng.next_u64()
    }

    /// How many units of `per_second` work fill the run, at least `min`.
    pub fn scaled(&self, per_second: f64, min: usize) -> usize {
        ((self.seconds * per_second).round() as usize).max(min)
    }

    pub fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default)
    }
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--threads" => ctx.threads = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !ctx.seconds.is_finite() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("laacad-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::new(ctx.trace);
    let result: Result<Report, String> = match workload.as_str() {
        "corner_converge" => corner::run(&ctx, &mut tracer),
        "async_lossy" => lossy::run(&ctx, &mut tracer),
        "host_stream" => host::run(&ctx, &mut tracer),
        other => Err(format!("unknown workload {other}")),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("laacad-perfbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };
    if ctx.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/{workload}-seed{}.spans.jsonl",
            ctx.seed
        ));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("laacad-perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    report.emit(ctx.trace);
    ExitCode::SUCCESS
}
