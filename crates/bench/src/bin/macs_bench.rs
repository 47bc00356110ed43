//! `macs-bench` — the perf-trajectory harness and sweep server.
//!
//! ```text
//! macs-bench [OUT_DIR]        (default: results)
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
//! (schema `c240-roofline/v1`, DESIGN.md §16): operational intensity,
//! the resolved machine's ceilings, the analytic memory/compute
//! `bound_class`, and — on probed single-CPU rows — the cross-check
//! verdict against the measured stall taxonomy. With `--metrics` it
//! also feeds `macs_points_by_bound_class{class}` and the per-machine
//! ceiling gauges.
//!
//! Runs every LFK kernel once under the counting probe (in parallel on
//! the [`macs_core::pool`]), times the LFK1 simulation with and without
//! the probe (the zero-overhead check for the monomorphized `Probe`
//! plumbing), measures the steady-state fast-forward against exact
//! element stepping at paper-scale pass counts, and writes
//! `OUT_DIR/BENCH_<date>.json`: per-kernel cycles/CPL/CPF plus wall
//! time, the stall breakdown in CPL units, the probe overhead, the
//! fast-forward speedup, and the multi-CPU co-simulation wall-clock at
//! 1/2/4 CPUs (schema `c240-bench/v3`). Committing one such file per
//! working day gives a performance trajectory that is diffable across
//! commits.
//!
//! Environment:
//!
//! * `MACS_THREADS` — pool width (default: all cores).
//! * `MACS_FF=0` — disable fast-forward everywhere. CI's exactness
//!   smoke runs the harness twice (with and without) and diffs the two
//!   JSON artifacts modulo wall-clock fields: every simulated quantity
//!   must be byte-identical.
//! * `MACS_BENCH_FF_SCALE` — pass multiplier for the paper-scale
//!   fast-forward section (default 1000).
//!
//! The binary exits nonzero if any kernel's fast-forward run diverges
//! from its element-stepped run.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use c240_isa::{MachineDescription, PRESET_NAMES};
use c240_obs::json::Json;
use c240_obs::{CounterProbe, StallCause};
use c240_sim::{Cpu, Machine, SimConfig};
use macs_bench::timing::Bench;
use macs_bench::{
    coordinate, serve, transport, ChaosSpec, CoordinateOptions, Listen, ServeObs, ServeOptions,
};

/// Observability overhead budgets, checked by the harness and
/// documented in DESIGN.md §14. `MACS_BENCH_OVERHEAD_CHECK=0` downgrades
/// a blown budget from a failure to a warning (for very noisy hosts).
///
/// The counting probe may cost at most this fraction over `NoProbe` on
/// the LFK1 simulation (the monomorphized plumbing is near-zero; a real
/// regression shows up as 2-10x, far beyond scheduler noise).
const PROBE_OVERHEAD_BUDGET: f64 = 0.50;
/// A span open + one arg + end may cost at most this many nanoseconds
/// (median), including its amortized share of a periodic drain.
const SPAN_HOOK_BUDGET_NS: f64 = 2_000.0;

/// Today's civil date (UTC) as `(year, month, day)`, computed from the
/// Unix time directly — the environment has no date/time crates.
/// Uses the days-to-civil algorithm of Howard Hinnant's `chrono`-
/// compatible date notes (exact for the proleptic Gregorian calendar).
fn civil_date_utc() -> (i64, u32, u32) {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0);
    let days = secs.div_euclid(86_400);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// The harness's simulator configuration: the named machine preset
/// (the standard C-240 when `None`), with fast-forward switched off
/// when `MACS_FF=0` (the CI exactness smoke).
fn harness_config(machine: Option<&str>) -> Result<SimConfig, String> {
    let cfg = match machine {
        None => SimConfig::c240(),
        Some(name) => {
            let desc = MachineDescription::preset(name).ok_or_else(|| {
                format!(
                    "unknown machine preset {name:?} (known presets: {})",
                    PRESET_NAMES.join(", ")
                )
            })?;
            SimConfig::for_machine(&desc)
        }
    };
    Ok(if std::env::var("MACS_FF").as_deref() == Ok("0") {
        cfg.without_fast_forward()
    } else {
        cfg
    })
}

/// One probed run of a kernel's default workload: the per-kernel JSON
/// row (cycles, CPL/CPF, stall breakdown, wall time).
fn kernel_row(kernel: &dyn lfk_suite::LfkKernel, sim: &SimConfig) -> Result<Json, String> {
    let mut cpu = Cpu::new(sim.clone());
    kernel.setup(&mut cpu);
    let mut probe = CounterProbe::new();
    let t0 = Instant::now();
    let stats = cpu
        .run_probed(&kernel.program(), &mut probe)
        .map_err(|e| format!("LFK{}: simulation failed: {e}", kernel.id()))?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let iters = kernel.iterations().max(1) as f64;
    let cpl = stats.cpl(kernel.iterations());
    let totals = probe.totals();
    let mut stall_cpl = Json::obj();
    for cause in StallCause::ALL {
        stall_cpl = stall_cpl.field(cause.key(), totals.get(cause) / iters);
    }
    Ok(Json::obj()
        .field("id", kernel.id())
        .field("name", kernel.name())
        .field("cycles", stats.cycles)
        .field("iterations", kernel.iterations())
        .field("cpl", cpl)
        .field("cpf", cpl / f64::from(kernel.flops_total().max(1)))
        .field("memory_wait_cpl", stats.memory_wait_cycles / iters)
        .field("stall_cpl", stall_cpl)
        .field("stall_total_cpl", totals.total() / iters)
        .field("wall_ns", wall_ns))
}

/// One kernel's paper-scale fast-forward measurement: the same scaled
/// workload simulated with the harness configuration (fast-forward on,
/// unless `MACS_FF=0`) and with exact element stepping; the two runs
/// must produce identical statistics.
fn ff_row(kernel: &dyn lfk_suite::LfkKernel, sim: &SimConfig, scale: i64) -> Result<Json, String> {
    let passes = kernel.passes() * scale;
    let program = kernel.program_with_passes(passes);
    let run = |cfg: SimConfig| {
        let mut cpu = Cpu::new(cfg);
        kernel.setup(&mut cpu);
        let t0 = Instant::now();
        let stats = cpu
            .run(&program)
            .map_err(|e| format!("LFK{}: scaled simulation failed: {e}", kernel.id()))?;
        Ok::<_, String>((
            t0.elapsed().as_nanos() as u64,
            stats,
            cpu.fast_forwarded_instructions(),
        ))
    };
    let (ff_ns, ff_stats, skipped) = run(sim.clone())?;
    let (exact_ns, exact_stats, _) = run(sim.clone().without_fast_forward())?;
    if ff_stats != exact_stats {
        return Err(format!(
            "LFK{}: fast-forward diverged from exact element stepping at {passes} passes",
            kernel.id()
        ));
    }
    Ok(Json::obj()
        .field("id", kernel.id())
        .field("passes", passes as u64)
        .field("cycles", ff_stats.cycles)
        .field("instructions", ff_stats.instructions.total())
        .field(
            "warped_pct",
            100.0 * skipped as f64 / ff_stats.instructions.total().max(1) as f64,
        )
        .field("fast_forward_wall_ns", ff_ns)
        .field("exact_wall_ns", exact_ns)
        .field("speedup", exact_ns as f64 / ff_ns.max(1) as f64))
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
    opts.base = harness_config(machine.as_deref())?;
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
    if let Some(mode @ ("--serve" | "--coordinate")) = args.first().map(String::as_str) {
        return service_main(mode, &args[1..]);
    }
    let out_dir = PathBuf::from(args.first().cloned().unwrap_or_else(|| "results".into()));
    let sim = harness_config(None).expect("the default machine always resolves");
    let threads = macs_core::threads();

    eprintln!("running the ten-kernel suite under the counting probe ({threads} threads)...");
    let suite_t0 = Instant::now();
    let rows =
        macs_core::parallel_map(lfk_suite::all(), |kernel| kernel_row(kernel.as_ref(), &sim));
    let suite_wall_ns = suite_t0.elapsed().as_nanos() as u64;
    let mut kernels: Vec<Json> = Vec::new();
    for row in rows {
        match row {
            Ok(j) => kernels.push(j),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // The no-op probe must cost nothing: time the same LFK1 simulation
    // through `run` (NoProbe) and `run_probed` (CounterProbe).
    eprintln!("timing probe overhead on LFK1...");
    let k1 = lfk_suite::by_id(1).expect("LFK1 is in the registry");
    let program = k1.program();
    let mut bench = Bench::group("probe-overhead");
    let base = bench
        .bench("lfk1_noprobe", || {
            let mut cpu = Cpu::new(sim.clone());
            k1.setup(&mut cpu);
            cpu.run(&program).expect("LFK1 simulates cleanly").cycles
        })
        .clone();
    let probed = bench
        .bench("lfk1_counterprobe", || {
            let mut cpu = Cpu::new(sim.clone());
            k1.setup(&mut cpu);
            let mut probe = CounterProbe::new();
            cpu.run_probed(&program, &mut probe)
                .expect("LFK1 simulates cleanly")
                .cycles
        })
        .clone();
    let relative = probed.median_ns / base.median_ns - 1.0;
    eprintln!("probe overhead: {:+.1}%", 100.0 * relative);

    // Span hooks: open + one arg + end, with the amortized share of a
    // periodic drain (a full buffer would flip spans to the cheaper
    // drop-counting path and hide the real record cost).
    let tracer = c240_obs::Tracer::new();
    let mut span_count: u64 = 0;
    let span_hook = bench
        .bench("span_open_arg_end", || {
            let mut s = tracer.span("bench");
            s.arg("i", 1u64);
            let ns = s.end();
            span_count += 1;
            if span_count.is_multiple_of(4096) {
                std::hint::black_box(tracer.drain().len());
            }
            ns
        })
        .clone();
    drop(tracer);

    // The observability regression guard: both hooks must stay within
    // their documented budgets, or the harness exits nonzero (CI fails).
    let overhead_enforced = std::env::var("MACS_BENCH_OVERHEAD_CHECK").as_deref() != Ok("0");
    let mut overhead_ok = true;
    if relative > PROBE_OVERHEAD_BUDGET {
        eprintln!(
            "probe overhead {:+.1}% exceeds the {:.0}% budget",
            100.0 * relative,
            100.0 * PROBE_OVERHEAD_BUDGET
        );
        overhead_ok = false;
    }
    if span_hook.median_ns > SPAN_HOOK_BUDGET_NS {
        eprintln!(
            "span hook {:.0} ns/span exceeds the {SPAN_HOOK_BUDGET_NS:.0} ns budget",
            span_hook.median_ns
        );
        overhead_ok = false;
    }
    if !overhead_ok && overhead_enforced {
        eprintln!(
            "observability overhead budget blown (set MACS_BENCH_OVERHEAD_CHECK=0 to warn only)"
        );
        return ExitCode::FAILURE;
    }

    // Paper-scale fast-forward vs exact element stepping. Wall times are
    // summed per kernel (a serial-equivalent measure independent of the
    // pool width); the runs themselves go through the pool.
    let scale: i64 = std::env::var("MACS_BENCH_FF_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1000);
    eprintln!("measuring fast-forward vs exact stepping at {scale}x passes...");
    let ff_rows = macs_core::parallel_map(lfk_suite::all(), |kernel| {
        ff_row(kernel.as_ref(), &sim, scale)
    });
    let mut ff_kernels: Vec<Json> = Vec::new();
    let (mut suite_ff_ns, mut suite_exact_ns) = (0u64, 0u64);
    for row in ff_rows {
        match row {
            Ok(j) => {
                let ns = |key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                suite_ff_ns += ns("fast_forward_wall_ns");
                suite_exact_ns += ns("exact_wall_ns");
                ff_kernels.push(j);
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let suite_speedup = suite_exact_ns as f64 / suite_ff_ns.max(1) as f64;
    eprintln!(
        "fast-forward suite: {:.2}s -> {:.2}s ({suite_speedup:.1}x)",
        suite_exact_ns as f64 / 1e9,
        suite_ff_ns as f64 / 1e9,
    );

    // Multi-CPU co-simulation wall-clock: lockstep LFK1 at 1/2/4 CPUs.
    // More than one CPU forgoes fast-forward (the shared banks break
    // periodicity), so this row tracks the real cost of the mode, not
    // just N× the single-CPU time.
    eprintln!("timing multi-CPU co-simulation (lockstep LFK1 at 1/2/4 CPUs)...");
    let mut cosim_rows: Vec<Json> = Vec::new();
    let mut cosim_solo_cycles = 0.0f64;
    for cpus in [1u32, 2, 4] {
        let mut machine = Machine::new(sim.clone().with_cpus(cpus));
        let programs: Vec<_> = (0..cpus as usize)
            .map(|i| {
                k1.setup(machine.cpu_mut(i));
                k1.program()
            })
            .collect();
        let t0 = Instant::now();
        let stats = match machine.run(&programs) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("co-sim at {cpus} CPUs failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let mean_cycles = stats.iter().map(|s| s.cycles).sum::<f64>() / f64::from(cpus);
        if cpus == 1 {
            cosim_solo_cycles = mean_cycles;
        }
        let slowdown = mean_cycles / cosim_solo_cycles;
        eprintln!(
            "  {cpus} CPUs: {:.2}ms wall, mean slowdown {slowdown:.3}x",
            wall_ns as f64 / 1e6
        );
        cosim_rows.push(
            Json::obj()
                .field("cpus", cpus)
                .field("mean_cycles", mean_cycles)
                .field("mean_slowdown", slowdown)
                .field(
                    "contention_wait_cycles",
                    machine.shared().wait_breakdown().contention,
                )
                .field("wall_ns", wall_ns)
                .field("wall_ns_per_cpu", wall_ns / u64::from(cpus)),
        );
    }

    let (y, m, d) = civil_date_utc();
    let date = format!("{y:04}-{m:02}-{d:02}");
    let doc = Json::obj()
        .field("schema", "c240-bench/v3")
        .field("date", date.as_str())
        .field("threads", threads)
        .field("suite_wall_ns", suite_wall_ns)
        .field("kernels", Json::Arr(kernels))
        .field(
            "probe_overhead",
            Json::obj()
                .field("kernel", "LFK1")
                .field("noprobe_median_ns", base.median_ns)
                .field("counterprobe_median_ns", probed.median_ns)
                .field("relative", relative)
                .field("relative_budget", PROBE_OVERHEAD_BUDGET)
                .field("span_hook_median_ns", span_hook.median_ns)
                .field("span_hook_budget_ns", SPAN_HOOK_BUDGET_NS)
                .field("within_budget", overhead_ok),
        )
        .field(
            "fast_forward",
            Json::obj()
                .field("scale", scale as u64)
                .field("suite_fast_forward_ns", suite_ff_ns)
                .field("suite_exact_ns", suite_exact_ns)
                .field("suite_speedup", suite_speedup)
                .field("kernels", Json::Arr(ff_kernels)),
        )
        .field("cosim", Json::Arr(cosim_rows));

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let path = out_dir.join(format!("BENCH_{date}.json"));
    if let Err(e) = std::fs::write(&path, doc.pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", path.display());
    ExitCode::SUCCESS
}
