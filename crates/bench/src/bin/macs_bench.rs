//! `macs-bench` — the sweep server and its coordinator.
//!
//! ```text
//! macs-bench --serve [--journal FILE] [--resume FILE] [--workers N]
//!            [--deadline-ms N] [--max-attempts N] [--backoff-ms N]
//!            [--backoff-cap-ms N] [--jitter-seed N] [--machine PRESET]
//!            [--max-line-bytes N] [--read-timeout-ms N]
//!            [--listen ADDR | --unix PATH]
//!            [--metrics] [--trace-out FILE] [--spans-out FILE]
//!            [--snapshot-every N] [--roofline]
//! macs-bench --coordinate [--fleet N] [--journal FILE] [--resume FILE]
//!            [--lease-ms N] [--queue-max N] [--chaos kill=N,hang=N,corrupt=N]
//!            [--jitter-seed N] [--restart-backoff-ms N]
//!            [--restart-backoff-cap-ms N] [--max-line-bytes N]
//!            [--read-timeout-ms N] [--listen ADDR | --unix PATH] [--metrics]
//!            [-- WORKER_FLAGS...]
//! ```
//!
//! `--coordinate` runs the multi-tenant sweep coordinator (DESIGN.md
//! §17, [`macs_bench::coordinate`]): a fleet of `--fleet` spawned
//! `--serve` worker processes behind a shared content-addressed result
//! cache (`--journal`, warm-started if the file exists), per-point
//! leases with redispatch (`--lease-ms`), bounded admission
//! (`--queue-max`, structured `overloaded` rows past it), and optional
//! fault injection (`--chaos`). Flags after `--` go to each worker's
//! `--serve` invocation verbatim (e.g. `-- --workers 1 --max-attempts 2`).
//!
//! `--serve` turns the binary into the fault-tolerant sweep server
//! (see [`macs_bench::serve`]): newline-delimited JSON sweep points in
//! on stdin (or the given TCP/Unix socket), result rows out on stdout,
//! one summary row at end of stream. `--journal` checkpoints every
//! completed point; `--resume` re-emits already-computed rows verbatim
//! and evaluates only the rest, so a killed sweep loses at most its
//! in-flight points. `--machine` picks the base machine preset the
//! sweep evaluates against (default `c240`); individual points may
//! still name their own preset via the protocol's `machine` field.
//!
//! `--metrics` enables the observability plane: spans, a metrics
//! registry served as Prometheus text on `GET /metrics` over the
//! `--listen`/`--unix` socket (and snapshotted into the journal every
//! `--snapshot-every` rows), and per-row `trace` provenance.
//! `--trace-out` additionally writes a Chrome `trace_event` JSON file
//! per stream (open it in Perfetto or `chrome://tracing`); `--spans-out`
//! writes the same spans as NDJSON. Either implies `--metrics`.
//!
//! `--roofline` stamps every healthy row with a `roofline` object
//! (schema `c240-roofline/v1`, DESIGN.md §16): `macs_core::Roofline`'s
//! JSON for the point's resolved machine, the kernel's bounds and the
//! probes of all the run's CPUs combined — operational intensity, the
//! ceilings, the analytic memory/compute `bound_class`, the
//! `measured_class` of the probed run and the cross-check `verdict`
//! between the two, plus a `finding` on a disagreement. The artifact
//! `macs-report roofline` builds its rows with the same constructor.
//! With `--metrics` it also feeds `macs_points_by_bound_class{class}`
//! and the per-machine ceiling gauges.
//!
//! `MACS_THREADS` sets the `--serve` pool width (default: all cores).
//! Any other first argument, or none, is a usage error (exit status 2).
//! The benchmark of record is `sweepbench/` (see its README).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use c240_isa::{MachineDescription, PRESET_NAMES};
use c240_sim::SimConfig;
use macs_bench::{
    coordinate, serve, transport, ChaosSpec, CoordinateOptions, Listen, ServeObs, ServeOptions,
};

/// The one-line usage printed for anything but a service mode.
const USAGE: &str = "usage: macs-bench --serve [FLAGS] | --coordinate [FLAGS] [-- WORKER_FLAGS]";

/// The `--machine` preset's simulator configuration (the standard C-240
/// when `None`).
fn base_config(machine: Option<&str>) -> Result<SimConfig, String> {
    let Some(name) = machine else {
        return Ok(SimConfig::c240());
    };
    MachineDescription::preset(name)
        .map(|desc| SimConfig::for_machine(&desc))
        .ok_or_else(|| {
            format!(
                "unknown machine preset {name:?} (known presets: {})",
                PRESET_NAMES.join(", ")
            )
        })
}

/// The flags `--serve` and `--coordinate` share.
#[derive(Default)]
struct Shared {
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    jitter_seed: Option<u64>,
    max_line_bytes: usize,
    read_timeout: Option<Duration>,
    listen: Option<Listen>,
    /// Set by `--metrics`, `--trace-out` or `--spans-out`.
    obs: Option<ServeObs>,
}

/// The flag iterator both parsers read values from.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn value(&mut self, flag: &str) -> Result<&'a String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    fn path(&mut self, flag: &str) -> Result<PathBuf, String> {
        self.value(flag).map(PathBuf::from)
    }

    fn number<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| format!("{flag} needs a non-negative integer, got {raw:?}"))
    }

    fn millis(&mut self, flag: &str) -> Result<Duration, String> {
        self.number(flag).map(Duration::from_millis)
    }
}

/// Parses `args`: the shared flags here, every other flag through the
/// mode's `own` parser, which rejects flags it does not know. A mode
/// must not start half-configured.
fn parse_flags(
    args: &[String],
    own: &mut dyn FnMut(&str, &mut Flags) -> Result<(), String>,
) -> Result<Shared, String> {
    let mut shared = Shared {
        max_line_bytes: transport::MAX_LINE_BYTES,
        read_timeout: Some(transport::READ_TIMEOUT),
        ..Shared::default()
    };
    let (mut tcp, mut unix) = (None, None);
    let mut it = Flags(args.iter());
    while let Some(flag) = it.0.next() {
        match flag.as_str() {
            "--journal" => shared.journal = Some(it.path(flag)?),
            "--resume" => shared.resume = Some(it.path(flag)?),
            "--jitter-seed" => shared.jitter_seed = Some(it.number(flag)?),
            "--max-line-bytes" => shared.max_line_bytes = it.number::<usize>(flag)?.max(1),
            "--read-timeout-ms" => {
                shared.read_timeout = Some(it.millis(flag)?).filter(|t| !t.is_zero())
            }
            "--listen" => tcp = Some(it.value(flag)?.clone()),
            "--unix" => unix = Some(it.path(flag)?),
            "--metrics" => {
                shared.obs.get_or_insert_with(ServeObs::default);
            }
            "--trace-out" => {
                shared.obs.get_or_insert_with(ServeObs::default).trace_out = Some(it.path(flag)?)
            }
            "--spans-out" => {
                shared.obs.get_or_insert_with(ServeObs::default).spans_out = Some(it.path(flag)?)
            }
            other => own(other, &mut it)?,
        }
    }
    if tcp.is_some() && unix.is_some() {
        return Err("--listen and --unix are mutually exclusive".into());
    }
    shared.listen = tcp.map(Listen::Tcp).or(unix.map(Listen::Unix));
    Ok(shared)
}

/// Parses the `--serve` flag set into [`ServeOptions`] plus the optional
/// socket to listen on.
fn parse_serve_args(args: &[String]) -> Result<(Option<Listen>, ServeOptions), String> {
    let mut opts = ServeOptions::default();
    let (mut machine, mut snapshot_every) = (None, 8);
    let shared = parse_flags(args, &mut |flag, it| {
        match flag {
            "--workers" => opts.workers = it.number(flag)?,
            "--deadline-ms" => opts.deadline = Some(it.millis(flag)?),
            "--max-attempts" => opts.retry.max_attempts = it.number::<u32>(flag)?.max(1),
            "--backoff-ms" => opts.retry.backoff_base = it.millis(flag)?,
            "--backoff-cap-ms" => opts.retry.backoff_cap = it.millis(flag)?,
            "--machine" => machine = Some(it.value(flag)?.clone()),
            "--roofline" => opts.roofline = true,
            "--snapshot-every" => snapshot_every = it.number(flag)?,
            other => return Err(format!("unknown --serve flag {other:?}")),
        }
        Ok(())
    })?;
    opts.journal = shared.journal;
    opts.resume = shared.resume;
    opts.retry.jitter_seed = shared.jitter_seed;
    opts.max_line_bytes = shared.max_line_bytes;
    opts.read_timeout = shared.read_timeout;
    opts.obs = shared.obs.map(|o| ServeObs {
        snapshot_every,
        ..o
    });
    opts.base = base_config(machine.as_deref())?;
    Ok((shared.listen, opts))
}

/// Parses the `--coordinate` flag set into [`CoordinateOptions`] plus
/// the optional socket to listen on. Everything after a literal `--` is
/// forwarded verbatim to each spawned `--serve` worker.
fn parse_coordinate_args(args: &[String]) -> Result<(Option<Listen>, CoordinateOptions), String> {
    let mut opts = CoordinateOptions::default();
    let (own, forwarded) = match args.iter().position(|a| a == "--") {
        Some(at) => (&args[..at], &args[at + 1..]),
        None => (args, &args[..0]),
    };
    let shared = parse_flags(own, &mut |flag, it| {
        match flag {
            "--fleet" => opts.fleet = it.number::<usize>(flag)?.max(1),
            "--worker-program" => opts.worker_program = Some(it.path(flag)?),
            "--lease-ms" => opts.lease = Duration::from_millis(it.number::<u64>(flag)?.max(1)),
            "--queue-max" => opts.queue_max = it.number::<usize>(flag)?.max(1),
            "--restart-backoff-ms" => opts.restart_backoff.backoff_base = it.millis(flag)?,
            "--restart-backoff-cap-ms" => opts.restart_backoff.backoff_cap = it.millis(flag)?,
            "--chaos" => opts.chaos = Some(ChaosSpec::parse(it.value(flag)?)?),
            other => return Err(format!("unknown --coordinate flag {other:?}")),
        }
        Ok(())
    })?;
    opts.worker_args = forwarded.to_vec();
    opts.journal = shared.journal;
    opts.resume = shared.resume;
    opts.jitter_seed = shared.jitter_seed;
    opts.max_line_bytes = shared.max_line_bytes;
    opts.read_timeout = shared.read_timeout;
    opts.obs = shared.obs;
    Ok((shared.listen, opts))
}

/// The `--serve`/`--coordinate` entry point: stdin/stdout by default, a
/// socket with `--listen`/`--unix`.
fn service_main(mode: &str, args: &[String]) -> ExitCode {
    let served = if mode == "--serve" {
        parse_serve_args(args).map(|(listen, opts)| serve::run(listen.as_ref(), &opts))
    } else {
        parse_coordinate_args(args).map(|(listen, opts)| coordinate::run(listen.as_ref(), &opts))
    };
    match served.and_then(|run| run.map_err(|e| e.to_string())) {
        Ok(outcomes) => {
            if let Some(outcomes) = outcomes {
                eprintln!("macs-bench: {outcomes}");
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("macs-bench {mode}: {message}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(mode @ ("--serve" | "--coordinate")) => service_main(mode, &args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
