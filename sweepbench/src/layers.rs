//! The traced run: per-layer numbers from the benchmark's own spans
//! around calls into each layer's public functions, plus the cost of
//! tracing itself.
//!
//! Nothing inside the program is instrumented for this: every span here
//! is opened by the benchmark around one public call. The traced server
//! passes additionally switch on the server's existing observability
//! plane (`--metrics --spans-out`), whose spans are exported beside the
//! benchmark's own for self-time reading.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

use c240_obs::json::Json;
use c240_obs::span::{spans_to_ndjson, SpanRecord};
use c240_obs::{CounterProbe, Tracer};
use c240_sim::{Cpu, Machine, RunStats, SimConfig};
use macs_bench::{eval_point, CoordinateOptions, Coordinator, ServeObs};
use macs_core::supervise::RetryPolicy;
use macs_core::sweep::{parse_point, Journal};
use macs_core::{a_process, x_process, ChimeConfig, KernelBounds};
use macs_experiments::cosim::{run_cosim, Mix};

use crate::measure::{check, median, metric, ms, Ctx, Metric, Mode, Outcome};
use crate::workload::{Class, Expect, Item, Workload, PROBE_LINE};

/// Untraced/traced pass pairs that `trace.overhead_frac` compares.
const OVERHEAD_PAIRS: usize = 2;

/// Repetitions of each cheap in-process call.
const REPS: usize = 20;

/// Repetitions of each whole-suite simulation.
const SIM_REPS: usize = 3;

/// Pass count of the fast-forward layer probe: paper scale, where LFK1
/// probes without ever warping.
const FF_PASSES: i64 = 2000;

/// Coordinator starts with and without the warm-start journal each.
const COORD_STARTS: usize = 5;

/// Co-simulated CPUs of the machine layer probe.
const MACHINE_CPUS: u32 = 4;

/// The median duration of the spans called `name`, and their count.
fn median_ns(records: &[SpanRecord], name: &str) -> (f64, usize) {
    let d: Vec<f64> = records
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.dur_ns as f64)
        .collect();
    (median(&d), d.len())
}

/// Self time per span name: each span's duration minus the part its
/// children cover, summed. Returns `(name, count, self_ns)` rows.
fn self_times(records: &[SpanRecord]) -> Vec<(String, usize, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records.iter().filter(|r| r.parent != 0) {
        *child_ns.entry(r.parent).or_default() += r.dur_ns;
    }
    let mut by_name: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
    for r in records {
        let own = r
            .dur_ns
            .saturating_sub(child_ns.get(&r.id).copied().unwrap_or(0));
        let e = by_name.entry(r.name.as_str()).or_default();
        e.0 += 1;
        e.1 += own;
    }
    by_name
        .into_iter()
        .map(|(n, (c, ns))| (n.to_string(), c, ns))
        .collect()
}

/// Reads a `c240-span/v1` NDJSON export back into records.
fn read_spans(path: &Path) -> Vec<SpanRecord> {
    let text = fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|j| {
            Some(SpanRecord {
                id: j.get("id")?.as_u64()?,
                parent: j.get("parent")?.as_u64()?,
                name: j.get("name")?.as_str()?.to_string(),
                tid: j.get("tid")?.as_u64()?,
                start_ns: j.get("start_ns")?.as_u64()?,
                dur_ns: j.get("dur_ns")?.as_u64()?,
                args: Vec::new(),
            })
        })
        .collect()
}

fn print_self_times(label: &str, records: &[SpanRecord]) {
    println!("# self time, {label} spans: name count self_ms");
    for (name, count, ns) in self_times(records) {
        println!("#   {name:<28} {count:>7} {:>12.3}", ns as f64 / 1e6);
    }
}

/// Integer 1/20-cycle ticks: the simulator's timing grid, so sums of
/// cycle counts stay exact integers.
fn ticks(cycles: f64) -> f64 {
    (cycles * 20.0).round()
}

/// Exact counts of the suite's simulator runs.
#[derive(Default)]
struct Counts {
    instructions: u64,
    cycle_ticks: f64,
    bank_ticks: f64,
    refresh_ticks: f64,
    contention_ticks: f64,
}

impl Counts {
    fn add(&mut self, s: &RunStats) {
        self.instructions += s.instructions.total();
        self.cycle_ticks += ticks(s.cycles);
        self.bank_ticks += ticks(s.memory_waits.bank_busy);
        self.refresh_ticks += ticks(s.memory_waits.refresh);
        self.contention_ticks += ticks(s.memory_waits.contention);
    }
}

/// Whether a fast-forwarded run's cycles, instructions and memory waits
/// equal those of the exact run, bit for bit.
fn same_result(got: &RunStats, want: &RunStats) -> Result<(), String> {
    let fields = |s: &RunStats| {
        [
            ("cycles", s.cycles),
            ("instructions", s.instructions.total() as f64),
            ("bank_busy waits", s.memory_waits.bank_busy),
            ("refresh waits", s.memory_waits.refresh),
            ("contention waits", s.memory_waits.contention),
        ]
    };
    for ((field, got), (_, want)) in fields(got).into_iter().zip(fields(want)) {
        if got.to_bits() != want.to_bits() {
            return Err(format!("{field} {got:?}, exact run {want:?}"));
        }
    }
    Ok(())
}

/// A closed-loop session against an in-process [`Coordinator`]: every
/// line's row and latency, plus the time from `Coordinator::start` to the
/// probe's answer.
struct Session {
    start_s: f64,
    rows: Vec<(Json, f64)>,
}

fn coordinator_session(opts: &CoordinateOptions, items: &[Item]) -> io::Result<Session> {
    let t0 = Instant::now();
    let coordinator = Coordinator::start(opts)?;
    let (ours, theirs) = UnixStream::pair()?;
    let theirs_out = theirs.try_clone()?;
    let session = std::thread::scope(|scope| -> io::Result<Session> {
        let client =
            scope.spawn(|| coordinator.client(BufReader::new(theirs), BufWriter::new(theirs_out)));
        let session = (|| {
            let mut writer = ours.try_clone()?;
            let mut reader = BufReader::new(ours.try_clone()?);
            let mut request = |line: &str| -> io::Result<(Json, f64)> {
                let t = Instant::now();
                writer.write_all(format!("{line}\n").as_bytes())?;
                let mut row = String::new();
                reader.read_line(&mut row)?;
                let row = Json::parse(row.trim_end())
                    .map_err(|e| io::Error::other(format!("unparsable row {row:?}: {e}")))?;
                Ok((row, ms(t.elapsed())))
            };
            request(PROBE_LINE)?;
            let start_s = t0.elapsed().as_secs_f64();
            let rows = items
                .iter()
                .map(|item| request(&item.line))
                .collect::<io::Result<_>>()?;
            Ok(Session { start_s, rows })
        })();
        // Ending the request stream ends the client, failed session or not.
        ours.shutdown(std::net::Shutdown::Write)?;
        client
            .join()
            .map_err(|_| io::Error::other("coordinator client panicked"))??;
        session
    });
    coordinator.shutdown()?;
    session
}

/// The traced run of workload `w`.
pub fn run(ctx: &Ctx, w: &Workload, seed: u64) -> io::Result<Outcome> {
    let tracer = Tracer::with_cap(1 << 20);
    let mut out: Vec<Metric> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;

    // Tracing overhead and the serve split, on the workload's own points.
    let subset = &w.pass[..(w.pass.len() / 4).max(10).min(w.pass.len())];
    let mut untraced = Vec::new();
    let mut default_rss_kib = 0u64;
    let mut traced = Vec::new();
    let mut latency_ms: Vec<Vec<f64>> = vec![Vec::new(); subset.len()];
    for _ in 0..OVERHEAD_PAIRS {
        for tracing in [false, true] {
            let mode = if tracing { Mode::Traced } else { Mode::Timed };
            let mut pass = ctx.pass(w, subset, mode, tracing.then_some(&tracer))?;
            attempted += subset.len();
            failed += subset.len() - pass.correct;
            errors.append(&mut pass.errors);
            if tracing {
                traced.push(pass.points_per_s());
            } else {
                for (all, l) in latency_ms.iter_mut().zip(&pass.latencies_ms) {
                    all.push(*l);
                }
                untraced.push(pass.points_per_s());
                default_rss_kib = default_rss_kib.max(pass.rss_kib);
            }
        }
    }
    let server_spans = read_spans(&ctx.out.join(format!("{}-server-spans.ndjson", w.name)));

    let base = SimConfig::c240();
    let retry = RetryPolicy::default();
    let mut transport_ns = Vec::new();
    let mut eval_rows = Vec::new();
    for (item, lat) in subset.iter().zip(&latency_ms) {
        if item.class != Class::Fresh || !matches!(item.expect, Expect::Row(_)) {
            continue;
        }
        let point = parse_point(&item.line).map_err(|e| io::Error::other(e.to_string()))?;
        let mut eval_ns = f64::INFINITY;
        let mut row = Json::Null;
        for _ in 0..2 {
            let span = tracer.span("bench.serve.eval");
            row = eval_point(&point, &base, None, &retry).row;
            eval_ns = eval_ns.min(span.end() as f64);
        }
        // Minimums on both sides: the cost without interference.
        let latency_ns = lat.iter().copied().fold(f64::INFINITY, f64::min) * 1e6;
        transport_ns.push(latency_ns - eval_ns);
        attempted += 1;
        if let Err(e) = check(&ctx.golden, item, &row) {
            failed += 1;
            errors.push(format!("in-process: {e}"));
        }
        eval_rows.push((point.key(), row));
    }
    if eval_rows.is_empty() {
        return Err(io::Error::other("the traced subset has no simulated point"));
    }

    // Sweep protocol and journal.
    for item in &w.pass {
        let span = tracer.span("core.sweep.parse");
        let parsed = parse_point(&item.line);
        drop(span);
        if let Ok(point) = parsed {
            let span = tracer.span("core.sweep.key");
            let key = point.key();
            drop(span);
            std::hint::black_box(key);
        }
    }
    let scratch = ctx.out.join("trace-journal.ndjson");
    let _ = fs::remove_file(&scratch);
    {
        let mut journal = Journal::open_append(&scratch)?;
        for i in 0..REPS * 10 {
            let (key, row) = &eval_rows[i % eval_rows.len()];
            let span = tracer.span("core.sweep.journal_record");
            journal.record(key, row)?;
            drop(span);
        }
    }
    let seed_journal = ctx.seed_journal();
    let mut journal_rows = 0;
    for _ in 0..5 {
        let span = tracer.span("core.sweep.journal_load");
        journal_rows = Journal::load(&seed_journal)?.len();
        drop(span);
    }

    // Compiler/scheduler, bounds and A/X on the ten kernels.
    let kernels = lfk_suite::all();
    let chime = ChimeConfig::c240();
    for _ in 0..REPS {
        for k in &kernels {
            let span = tracer.span("lfk.program");
            let program = k.try_program_with_passes(k.passes());
            drop(span);
            let program = program.map_err(|e| io::Error::other(e.to_string()))?;
            let span = tracer.span("core.bounds.compute");
            std::hint::black_box(KernelBounds::compute("bench", k.ma(), &program, &chime));
            drop(span);
            let span = tracer.span("core.ax.process");
            std::hint::black_box((a_process(&program), x_process(&program)));
            drop(span);
        }
    }

    // Exact stepping, with and without the counting probe.
    let exact_cfg = base.clone().without_fast_forward();
    let programs: Vec<_> = kernels.iter().map(|k| k.program()).collect();
    let mut exact = Counts::default();
    let mut cosim = Counts::default();
    let mut plain_ns = Vec::new();
    let mut probe_ratio = Vec::new();
    for rep in 0..SIM_REPS {
        let (mut plain, mut probed, mut instructions) = (0u64, 0u64, 0u64);
        for (k, program) in kernels.iter().zip(&programs) {
            let mut cpu = Cpu::new(exact_cfg.clone());
            k.setup(&mut cpu);
            let span = tracer.span("sim.cpu.run");
            let stats = cpu
                .run(program)
                .map_err(|e| io::Error::other(e.to_string()))?;
            plain += span.end();
            instructions += stats.instructions.total();
            if rep == 0 {
                exact.add(&stats);
            }
            let mut cpu = Cpu::new(exact_cfg.clone());
            k.setup(&mut cpu);
            let mut probe = CounterProbe::new();
            let span = tracer.span("obs.probed_run");
            cpu.run_probed(program, &mut probe)
                .map_err(|e| io::Error::other(e.to_string()))?;
            probed += span.end();
        }
        plain_ns.push(plain as f64 / instructions as f64);
        probe_ratio.push(probed as f64 / plain as f64 - 1.0);
    }

    // Fast-forward at paper scale, each run checked against the same
    // program stepped exactly: fast-forward must not change a result.
    let (mut ff_ns, mut ff_instr, mut probes, mut warps, mut skipped) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for k in &kernels {
        let program = k.program_with_passes(FF_PASSES);
        let mut cpu = Cpu::new(base.clone());
        k.setup(&mut cpu);
        let span = tracer.span("sim.fastfwd.run");
        let stats = cpu
            .run(&program)
            .map_err(|e| io::Error::other(e.to_string()))?;
        ff_ns += span.end();
        ff_instr += stats.instructions.total();
        let ff = cpu.ff_stats();
        probes += ff.probes;
        warps += ff.warps;
        skipped += ff.skipped_instructions;
        let mut cpu = Cpu::new(exact_cfg.clone());
        k.setup(&mut cpu);
        let want = cpu
            .run(&program)
            .map_err(|e| io::Error::other(e.to_string()))?;
        attempted += 1;
        if let Err(e) = same_result(&stats, &want) {
            failed += 1;
            errors.push(format!("lfk{} at {FF_PASSES} passes: fast-forward {e}", k.id()));
        }
    }

    // N-CPU co-simulation of the mixed workload.
    let ids = Mix::Mixed.kernel_ids(MACHINE_CPUS);
    let mut machine_ns = Vec::new();
    for rep in 0..SIM_REPS {
        let mut machine = Machine::new(base.clone().with_cpus(MACHINE_CPUS));
        let programs: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let k = lfk_suite::by_id(id).expect("mix kernels are curated");
                k.setup(machine.cpu_mut(i));
                k.program()
            })
            .collect();
        let span = tracer.span("sim.machine.run");
        let stats = machine
            .run(&programs)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let ns = span.end();
        let instructions: u64 = stats.iter().map(|s| s.instructions.total()).sum();
        machine_ns.push(ns as f64 / instructions as f64);
        if rep == 0 {
            for s in &stats {
                cosim.add(s);
            }
        }
    }
    let slowdown = run_cosim(&base.clone().with_cpus(MACHINE_CPUS), Mix::Mixed).mean_slowdown();

    // The cost of one span.
    let scratch_tracer = Tracer::new();
    let mut span_ns = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..1000 {
            drop(scratch_tracer.span("x"));
        }
        span_ns.push(t.elapsed().as_nanos() as f64 / 1000.0);
        scratch_tracer.drain();
    }

    // The coordinator, in-process: bare fleet start, then the
    // coordinator workload's stream against a warm-started journal.
    let coord_w = Workload::build("coord_repeat", seed).expect("known workload");
    let fleet = |journal: Option<&Path>, obs: Option<ServeObs>| CoordinateOptions {
        fleet: 2,
        worker_program: Some(ctx.macs_bench.clone()),
        worker_args: vec!["--workers".into(), "1".into()],
        journal: journal.map(Path::to_path_buf),
        obs,
        ..CoordinateOptions::default()
    };
    // Bare and warm-started starts alternate, so a change in host speed
    // hits both alike; the warm start is their difference.
    let journal = ctx.out.join("trace-coord-journal.ndjson");
    let (mut spawn_s, mut warm_s) = (Vec::new(), Vec::new());
    for _ in 0..COORD_STARTS {
        spawn_s.push(coordinator_session(&fleet(None, None), &[])?.start_s);
        fs::copy(&seed_journal, &journal)?;
        warm_s.push(coordinator_session(&fleet(Some(&journal), None), &[])?.start_s);
    }
    fs::copy(&seed_journal, &journal)?;
    let obs = ServeObs::default();
    let session = coordinator_session(&fleet(Some(&journal), Some(obs.clone())), &coord_w.pass)?;
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    for (item, (row, latency)) in coord_w.pass.iter().zip(&session.rows) {
        attempted += 1;
        if let Err(e) = check(&ctx.golden, item, row) {
            failed += 1;
            errors.push(e);
        }
        match item.class {
            Class::Hit => hit_ms.push(*latency),
            Class::Fresh => miss_ms.push(*latency),
            Class::Invalid => {}
        }
    }
    let counter = |name: &str| obs.metrics.counter(name, &[]).get() as f64;
    let (hits, misses) = (
        counter("macs_cache_hits_total"),
        counter("macs_cache_misses_total"),
    );

    // Exports: the benchmark's spans and the self-time tables.
    let records = tracer.drain();
    fs::write(
        ctx.out.join(format!("{}-bench-spans.ndjson", w.name)),
        spans_to_ndjson(&records),
    )?;
    print_self_times("benchmark", &records);
    print_self_times("server (last traced pass)", &server_spans);

    let (v, n) = median_ns(&records, "lfk.program");
    out.push(metric("lfk.program_ns", v, "ns", n));
    let (v, n) = median_ns(&records, "core.sweep.parse");
    out.push(metric("core.sweep.parse_ns", v, "ns", n));
    let (v, n) = median_ns(&records, "core.sweep.key");
    out.push(metric("core.sweep.key_ns", v, "ns", n));
    let (v, n) = median_ns(&records, "core.sweep.journal_record");
    out.push(metric("core.sweep.journal_record_ns", v, "ns", n));
    let (load_ns, loads) = median_ns(&records, "core.sweep.journal_load");
    out.push(metric(
        "core.sweep.journal_load_ns_per_row",
        load_ns / journal_rows as f64,
        "ns",
        loads,
    ));
    let (v, n) = median_ns(&records, "core.bounds.compute");
    out.push(metric("core.bounds.compute_ns", v, "ns", n));
    let (v, n) = median_ns(&records, "core.ax.process");
    out.push(metric("core.ax.process_ns", v, "ns", n));
    out.push(metric(
        "sim.cpu.exact_ns_per_instr",
        median(&plain_ns),
        "ns",
        SIM_REPS,
    ));
    out.push(metric(
        "sim.fastfwd.ns_per_instr",
        ff_ns as f64 / ff_instr as f64,
        "ns",
        kernels.len(),
    ));
    out.push(metric(
        "sim.fastfwd.warped_frac",
        skipped as f64 / ff_instr as f64,
        "frac",
        kernels.len(),
    ));
    out.push(metric(
        "sim.fastfwd.probes",
        probes as f64,
        "count",
        kernels.len(),
    ));
    out.push(metric(
        "sim.fastfwd.warps",
        warps as f64,
        "count",
        kernels.len(),
    ));
    out.push(metric(
        "sim.machine.ns_per_instr_per_cpu",
        median(&machine_ns),
        "ns",
        SIM_REPS,
    ));
    out.push(metric(
        "sim.cpu.instructions",
        exact.instructions as f64,
        "count",
        1,
    ));
    out.push(metric("sim.cpu.cycles", exact.cycle_ticks, "cycle/20", 1));
    out.push(metric(
        "mem.bank_wait_cycles",
        exact.bank_ticks + cosim.bank_ticks,
        "cycle/20",
        1,
    ));
    out.push(metric(
        "mem.refresh_wait_cycles",
        exact.refresh_ticks + cosim.refresh_ticks,
        "cycle/20",
        1,
    ));
    out.push(metric(
        "mem.contention_wait_cycles",
        exact.contention_ticks + cosim.contention_ticks,
        "cycle/20",
        1,
    ));
    out.push(metric("sim.machine.slowdown", slowdown, "ratio", 1));
    out.push(metric(
        "obs.probe_overhead_frac",
        median(&probe_ratio),
        "frac",
        SIM_REPS,
    ));
    out.push(metric("obs.span_ns", median(&span_ns), "ns", REPS));
    let (eval_ns, n) = median_ns(&records, "bench.serve.eval");
    out.push(metric("bench.serve.eval_ns", eval_ns, "ns", n));
    out.push(metric(
        "bench.serve.transport_ns",
        median(&transport_ns),
        "ns",
        transport_ns.len(),
    ));
    out.push(metric(
        "bench.serve.peak_rss_default_env_mb",
        default_rss_kib as f64 / 1024.0,
        "MiB",
        OVERHEAD_PAIRS,
    ));
    out.push(metric(
        "bench.coordinate.spawn_s",
        median(&spawn_s),
        "s",
        spawn_s.len(),
    ));
    out.push(metric(
        "bench.coordinate.warm_start_s",
        median(&warm_s) - median(&spawn_s),
        "s",
        warm_s.len(),
    ));
    out.push(metric(
        "bench.coordinate.cache_hit_frac",
        hits / (hits + misses),
        "frac",
        (hits + misses) as usize,
    ));
    out.push(metric(
        "bench.coordinate.hit_latency_ms",
        median(&hit_ms),
        "ms",
        hit_ms.len(),
    ));
    out.push(metric(
        "bench.coordinate.miss_latency_ms",
        median(&miss_ms),
        "ms",
        miss_ms.len(),
    ));
    out.push(metric(
        "bench.coordinate.redispatch",
        counter("macs_redispatch_total"),
        "count",
        1,
    ));
    out.push(metric(
        "bench.coordinate.restarts",
        counter("macs_worker_restarts_total"),
        "count",
        1,
    ));
    out.push(metric(
        "trace.overhead_frac",
        1.0 - median(&traced) / median(&untraced),
        "frac",
        OVERHEAD_PAIRS,
    ));
    Ok(Outcome {
        metrics: out,
        attempted,
        failed,
        errors,
    })
}
