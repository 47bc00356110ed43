//! Layered sweep benchmark for the MACS C-240 reproduction.
//!
//! ```text
//! sweepbench --workload NAME --seed N --seconds S --trace 0|1 \
//!            --macs-bench PATH --out DIR
//! sweepbench --regen-golden FILE
//! ```
//!
//! `--trace 0` drives a real `macs-bench --serve` or `--coordinate`
//! process closed-loop and prints the end-to-end metrics; `--trace 1`
//! is the separate traced run that prints the per-layer metrics. Both
//! check every row against the golden reference and end with one JSON
//! line; a wrong row makes the exit code nonzero. See `README.md`.

mod client;
mod golden;
mod layers;
mod measure;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use c240_obs::json::Json;

use golden::Golden;
use measure::{Ctx, Outcome};
use workload::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    macs_bench: PathBuf,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut macs_bench = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a non-negative integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => trace = Some(number()? != 0),
            "--macs-bench" => macs_bench = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.unwrap_or(false),
        macs_bench: macs_bench.ok_or_else(|| missing("--macs-bench"))?,
        out: out.ok_or_else(|| missing("--out"))?,
    })
}

/// Prints the human-readable table, then the result line.
fn report(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!(
            "{:<40} {:>14.6} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in outcome.errors.iter().take(20) {
        eprintln!("sweepbench: wrong row: {e}");
    }
    let mut metrics = Json::obj();
    for m in &outcome.metrics {
        metrics = metrics.field(
            m.name,
            Json::obj().field("value", m.value).field("unit", m.unit),
        );
    }
    let result = Json::obj()
        .field("correct", outcome.errors.is_empty())
        .field("attempted", outcome.attempted)
        .field("failed", outcome.failed)
        .field("metrics", metrics);
    println!("{result}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--regen-golden") {
        let Some(path) = args.get(1) else {
            eprintln!("sweepbench: --regen-golden needs a file");
            return ExitCode::FAILURE;
        };
        return match golden::regenerate().map(|text| std::fs::write(path, text)) {
            Ok(Ok(())) => ExitCode::SUCCESS,
            Ok(Err(e)) => {
                eprintln!("sweepbench: {path}: {e}");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("sweepbench: golden row failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sweepbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(w) = Workload::build(&args.workload, args.seed) else {
        eprintln!(
            "sweepbench: unknown workload {:?} (known: {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("sweepbench: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        macs_bench: args.macs_bench,
        out: args.out,
        golden: Golden::load(),
    };
    let outcome = (|| {
        if w.coordinate || args.trace {
            ctx.write_seed_journal(&Workload::build("coord_repeat", args.seed).expect("known"))?;
        }
        if args.trace {
            layers::run(&ctx, &w, args.seed)
        } else {
            measure::run(&ctx, &w, args.seconds)
        }
    })();
    match outcome {
        Ok(outcome) => {
            report(&outcome);
            if outcome.errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sweepbench: {e}");
            ExitCode::FAILURE
        }
    }
}
