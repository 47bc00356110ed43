//! The fault-tolerant sweep server behind `macs-bench --serve`.
//!
//! The server reads newline-delimited sweep requests (the wire protocol
//! of [`macs_core::sweep`]) from stdin, a Unix socket, or a TCP socket,
//! evaluates each point on a supervised worker pool, and streams result
//! rows (schema [`macs_core::sweep::SWEEP_ROW_SCHEMA`]) back as NDJSON,
//! ending with one [`SweepOutcomes`] summary row. The contract is *no
//! dead server*: a malformed line, an invalid configuration, a panicking
//! point, or a point that blows its deadline each become a structured
//! error row while every other point keeps flowing.
//!
//! Supervision is [`macs_core::supervise`](mod@macs_core::supervise):
//! per-point deadline (the request's `deadline_ms`, falling back to the
//! server-wide `--deadline-ms`), capped exponential backoff between
//! retries, and a poison-point blacklist — a point that exhausts its
//! retry budget is journaled as failed, so a `--resume` run does not
//! burn the budget on it again.
//!
//! Checkpointing is the append-only [`Journal`]: every terminal keyed
//! row (ok and failed alike) is flushed line-by-line as it completes, so
//! a `kill -9` loses at most the in-flight points; `--resume <journal>`
//! re-emits completed rows verbatim and computes only the rest. Healthy
//! rows carry only simulated quantities (no wall-clock), which is what
//! makes fresh and resumed runs bit-identical.
//!
//! Observability is opt-in via [`ServeObs`]: hierarchical wall-clock
//! spans (sweep → parse/point → validate/schedule/simulate → attempt),
//! a metrics registry scraped as Prometheus text on `GET /metrics` over
//! the same TCP/Unix listener and snapshotted into the journal as
//! [`c240_obs::METRICS_SCHEMA`] rows, and a per-row `trace` provenance
//! object. All wall-clock lives in the `trace` object and the span
//! buffers — the simulated quantities on a row are untouched, so the
//! resume bit-identity above is preserved row-for-row (a resumed row
//! re-emits the journaled `trace` verbatim).

use std::collections::{BTreeMap, HashSet};
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::transport::{
    base_row, error_row, Listen, Outcome, Reply, Requests, Service, MAX_LINE_BYTES, READ_TIMEOUT,
};
use c240_isa::PRESET_NAMES;
use c240_obs::json::Json;
use c240_obs::span::{spans_to_chrome, spans_to_ndjson};
use c240_obs::{Metrics, Span, StallCause, SweepOutcomes, Tracer};
use c240_sim::{CounterProbe, Cpu, FfStats, NoProbe, SimConfig};
use macs_core::supervise::{
    supervise, supervise_observed, FailureKind, RetryPolicy, SuperviseEvent,
};
use macs_core::sweep::{Fault, Journal, SweepPoint};
use macs_core::{measure, ChimeConfig, KernelBounds, Measurement, Roofline};

/// Stall-cycle metrics are exported as integer *ticks* (1/20 cycle), the
/// simulator's unit of time, so the conversion is exact.
fn ticks(cycles: f64) -> u64 {
    c240_isa::timing::ticks(cycles).max(0) as u64
}

/// The observability plane threaded through a sweep: a span tracer, a
/// metrics registry, and export knobs. Cloning shares the underlying
/// buffers/registry, so the caller keeps a handle to scrape or drain.
#[derive(Debug, Clone, Default)]
pub struct ServeObs {
    /// Records the sweep → point → attempt span hierarchy.
    pub tracer: Tracer,
    /// Counters, gauges, and latency histograms; rendered on
    /// `GET /metrics` and by [`Metrics::render_prometheus`].
    pub metrics: Metrics,
    /// Journal a [`c240_obs::METRICS_SCHEMA`] snapshot every this many
    /// journaled rows (0 = only one snapshot, at end of stream).
    pub snapshot_every: usize,
    /// Write a Chrome `trace_event` JSON file (loads in Perfetto /
    /// `chrome://tracing`) here at end of stream. Each stream overwrites
    /// the file with its own spans.
    pub trace_out: Option<PathBuf>,
    /// Write the same spans as NDJSON ([`c240_obs::SPAN_SCHEMA`]) here
    /// at end of stream.
    pub spans_out: Option<PathBuf>,
}

impl ServeObs {
    /// Publishes the journal's size as `macs_journal_bytes` after a
    /// record, first appending a [`c240_obs::METRICS_SCHEMA`] snapshot
    /// row when `snapshot` is set.
    pub(crate) fn journaled(&self, journal: &mut Journal, snapshot: bool) -> io::Result<()> {
        if snapshot {
            journal.meta(&self.metrics.snapshot_json())?;
        }
        self.metrics
            .gauge("macs_journal_bytes", &[])
            .set(journal.bytes_written().min(i64::MAX as u64) as i64);
        Ok(())
    }

    /// Drains the tracer and writes the configured trace exports.
    pub(crate) fn export(&self) -> io::Result<()> {
        if self.trace_out.is_none() && self.spans_out.is_none() {
            return Ok(());
        }
        let records = self.tracer.drain();
        if let Some(path) = &self.spans_out {
            std::fs::write(path, spans_to_ndjson(&records))?;
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, spans_to_chrome(&records).to_string())?;
        }
        Ok(())
    }
}

/// How the server evaluates and checkpoints a sweep.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The base machine every point's overrides apply to.
    pub base: SimConfig,
    /// Worker threads (0 = [`macs_core::threads`]).
    pub workers: usize,
    /// Server-wide per-point deadline; a request's `deadline_ms`
    /// overrides it.
    pub deadline: Option<Duration>,
    /// Retry budget and backoff shape.
    pub retry: RetryPolicy,
    /// Append completed points to this checkpoint journal.
    pub journal: Option<PathBuf>,
    /// Skip points already completed in this journal, re-emitting their
    /// rows verbatim.
    pub resume: Option<PathBuf>,
    /// Observability plane (spans + metrics + per-row `trace`
    /// provenance). `None` (the default) compiles down to the pre-obs
    /// hot path: no spans, no metrics, rows without a `trace` field.
    pub obs: Option<ServeObs>,
    /// Stamp every healthy row with a `roofline` object (DESIGN.md §16):
    /// both operational intensities, the resolved machine's ceilings,
    /// the analytic `bound_class`, and the stall-taxonomy cross-check
    /// verdict. Off by default, keeping unflagged rows bit-identical to
    /// the pre-roofline output. Roofline fields are pure functions of
    /// simulated quantities, so journaled rows resume bit-identically.
    pub roofline: bool,
    /// Per-line byte ceiling on request streams (see
    /// [`Service::max_line_bytes`]).
    pub max_line_bytes: usize,
    /// Socket read timeout for TCP/Unix streams (see
    /// [`Service::read_timeout`]).
    pub read_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    /// The paper's C-240, auto worker count, no deadline, default
    /// retries, no checkpointing.
    fn default() -> Self {
        ServeOptions {
            base: SimConfig::c240(),
            workers: 0,
            deadline: None,
            retry: RetryPolicy::default(),
            journal: None,
            resume: None,
            obs: None,
            roofline: false,
            max_line_bytes: MAX_LINE_BYTES,
            read_timeout: Some(READ_TIMEOUT),
        }
    }
}

/// Terminal classification of one evaluated point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointClass {
    /// Computed successfully.
    Ok,
    /// Rejected (unknown kernel, invalid config/passes) or failed inside
    /// the simulator — deterministic, not retried.
    Invalid,
    /// Every attempt exceeded its deadline.
    TimedOut,
    /// Every attempt panicked.
    Panicked,
}

/// One evaluated point: the output row plus its accounting.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The NDJSON row to emit (and journal).
    pub row: Json,
    /// Terminal class, for the summary tally.
    pub class: PointClass,
    /// Whether more than one attempt was needed.
    pub retried: bool,
}

/// A point's [`error_row`] plus the attempt accounting every evaluated
/// point reports.
fn supervised_row(
    point: &SweepPoint,
    key: &str,
    kind: &str,
    message: &str,
    attempts: u32,
    backoff_ms: &[u64],
    poisoned: bool,
) -> Json {
    error_row(point, key, kind, message)
        .field("attempts", attempts)
        .field(
            "backoff_ms",
            Json::Arr(backoff_ms.iter().map(|&ms| Json::from(ms)).collect()),
        )
        .field("poisoned", poisoned)
}

/// Per-run telemetry that rides alongside the measurement, fed into the
/// metrics registry and the roofline cross-check. Like the measurement,
/// it is free of wall-clock, which is what keeps fresh and resumed rows
/// bit-identical.
struct RunTelemetry {
    /// CPU 0's fast-forward effectiveness.
    ff: FfStats,
    /// The probes of all the run's CPUs combined; `None` when neither
    /// the metrics plane nor the roofline stamp reads them.
    probe: Option<CounterProbe>,
}

/// Per-row wall-clock provenance, attached as the row's `trace` object
/// when the observability plane is enabled.
#[derive(Default)]
struct Provenance {
    span: u64,
    validate_ns: Option<u64>,
    schedule_ns: Option<u64>,
    simulate_ns: Option<u64>,
    attempts: u32,
    ff: Option<FfStats>,
}

impl Provenance {
    fn to_json(&self) -> Json {
        let mut t = Json::obj().field("span", self.span);
        if let Some(ns) = self.validate_ns {
            t = t.field("validate_ns", ns);
        }
        if let Some(ns) = self.schedule_ns {
            t = t.field("schedule_ns", ns);
        }
        if let Some(ns) = self.simulate_ns {
            t = t.field("simulate_ns", ns);
        }
        t = t.field("attempts", self.attempts);
        if let Some(ff) = self.ff {
            t = t.field(
                "ff",
                Json::obj()
                    .field("probes", ff.probes)
                    .field("warps", ff.warps)
                    .field("skipped_instructions", ff.skipped_instructions),
            );
        }
        t
    }
}

/// Closes out one evaluation: ends the point span with its outcome,
/// feeds the duration histograms, and stamps the row with its `trace`
/// provenance. A no-op without `obs`.
fn finish_eval(
    span: Option<Span>,
    obs: Option<(&ServeObs, u64)>,
    prov: &Provenance,
    mut row: Json,
    class: PointClass,
    retried: bool,
) -> Evaluated {
    if let Some((o, _)) = obs {
        if let Some(mut s) = span {
            s.arg("outcome", Outcome::of(class).label());
            let ns = s.end();
            o.metrics
                .histogram("macs_point_duration_ns", &[])
                .observe(ns);
        }
        if let Some(ns) = prov.simulate_ns {
            o.metrics
                .histogram("macs_simulate_duration_ns", &[])
                .observe(ns);
        }
        row = row.field("trace", prov.to_json());
    }
    Evaluated {
        row,
        class,
        retried,
    }
}

/// Evaluates one parsed point against the base machine, under full
/// supervision. This is the *same* code path the server's workers run —
/// tests compare server output rows against direct `eval_point` calls to
/// prove the transport adds nothing.
pub fn eval_point(
    point: &SweepPoint,
    base: &SimConfig,
    deadline: Option<Duration>,
    retry: &RetryPolicy,
) -> Evaluated {
    eval_point_observed(point, base, deadline, retry, None, false)
}

/// [`eval_point`] with the observability plane attached. When `obs` is
/// `Some((plane, parent))`, opens a `point` span under `parent` (a span
/// id, usually the sweep span) with `validate`/`schedule`/`simulate`
/// phase children and one `attempt` span per supervised attempt, feeds
/// the retry/watchdog/fast-forward/stall counters of `plane.metrics`,
/// and stamps the returned row with a `trace` provenance object. With
/// `None` this is exactly [`eval_point`].
///
/// `roofline` additionally stamps healthy rows with the roofline
/// object of [`ServeOptions::roofline`] and, when metrics are on,
/// feeds the `macs_points_by_bound_class` counter and the per-machine
/// ceiling gauges.
pub fn eval_point_observed(
    point: &SweepPoint,
    base: &SimConfig,
    deadline: Option<Duration>,
    retry: &RetryPolicy,
    obs: Option<(&ServeObs, u64)>,
    roofline: bool,
) -> Evaluated {
    let key = point.key();
    let point_span = obs.map(|(o, parent)| {
        let mut s = o.tracer.span_under("point", parent);
        s.arg("id", point.id.as_str());
        s.arg("key", key.as_str());
        s.arg("kernel", point.kernel);
        s
    });
    let mut prov = Provenance {
        span: point_span.as_ref().map(Span::id).unwrap_or(0),
        ..Provenance::default()
    };
    let rejected =
        |kind: &str, message: &str| supervised_row(point, &key, kind, message, 0, &[], false);
    let reject = |span, prov: &Provenance, row| {
        finish_eval(span, obs, prov, row, PointClass::Invalid, false)
    };

    // Validate: kernel lookup, machine-preset resolution, configuration
    // validation.
    let vspan = point_span.as_ref().map(|s| s.child("validate"));
    let checked = match lfk_suite::by_id(point.kernel) {
        None => Err(format!("LFK{} is not part of the case study", point.kernel)),
        Some(k) => Ok(k),
    };
    let cfg = match point.config(base) {
        Ok(cfg) => cfg,
        Err(e) => {
            prov.validate_ns = vspan.map(Span::end);
            // Structured sibling of the prose message: the resolvable
            // preset names, so sweep drivers can self-correct without
            // parsing the error text.
            let known = Json::Arr(PRESET_NAMES.iter().map(|&n| Json::from(n)).collect());
            let row = rejected("unknown_machine", &e.to_string()).field("known_machines", known);
            return reject(point_span, &prov, row);
        }
    };
    let checked = checked.map(|k| {
        cfg.validate().map_err(|e| e.to_string())?;
        let need = k.footprint_words();
        if cfg.machine.words < need {
            return Err(format!(
                "LFK{} needs a data space of at least {need} words, got {}",
                k.id(),
                cfg.machine.words
            ));
        }
        Ok(k)
    });
    prov.validate_ns = vspan.map(Span::end);
    let kernel = match checked {
        Err(message) => return reject(point_span, &prov, rejected("unknown_kernel", &message)),
        Ok(Err(message)) => return reject(point_span, &prov, rejected("invalid_config", &message)),
        Ok(Ok(k)) => k,
    };

    // Schedule: build the kernel's program (instruction scheduling).
    let sspan = point_span.as_ref().map(|s| s.child("schedule"));
    let passes = point.passes.unwrap_or_else(|| kernel.passes());
    let program = kernel.try_program_with_passes(passes);
    prov.schedule_ns = sspan.map(Span::end);
    let program = match program {
        Ok(p) => p,
        Err(e) => {
            return reject(
                point_span,
                &prov,
                rejected("invalid_passes", &e.to_string()),
            )
        }
    };

    let iters = kernel.iterations_with_passes(passes);
    let flops = kernel.flops_total();
    let fault = point.inject;
    let cpus = cfg.cpus as usize;
    let machine = cfg.machine.name.clone();

    // Roofline inputs (DESIGN.md §16): the point's resolved machine,
    // overrides included, is the roof, and the kernel's bounds on it give
    // the intensities. Both are pure functions of the configuration and
    // the program — no wall-clock — so stamped rows journal and resume
    // bit-identically.
    let roof = roofline.then(|| {
        let bounds = KernelBounds::compute(
            &format!("LFK{}", point.kernel),
            kernel.ma(),
            &program,
            &ChimeConfig::for_machine(&cfg.machine),
        );
        (cfg.machine.clone(), bounds)
    });

    // Simulate: the supervised run, covering every attempt and backoff.
    // Attempt spans are opened by the run closure on the watchdog's
    // thread, parented by id under the simulate span; an attempt
    // abandoned by the watchdog never records a span (its thread dies
    // with the process), keeping recorded trees well-nested.
    let sim_span = point_span.as_ref().map(|s| s.child("simulate"));
    let attempt_ctx = obs.map(|(o, _)| {
        (
            o.tracer.clone(),
            sim_span.as_ref().map(Span::id).unwrap_or(0),
            Arc::new(AtomicU32::new(0)),
        )
    });
    let probed = obs.is_some() || roofline;
    let run = move || -> Result<(Measurement, RunTelemetry), String> {
        let mut attempt_span = attempt_ctx.as_ref().map(|(tracer, parent, count)| {
            let mut s = tracer.span_under("attempt", *parent);
            s.arg("attempt", count.fetch_add(1, Ordering::Relaxed) + 1);
            s
        });
        match fault {
            Some(Fault::Panic) => panic!("injected fault"),
            Some(Fault::SleepMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            None => {}
        }
        // The measured run `analyze_kernel` makes too: the kernel on
        // every CPU, reporting CPU 0 (all CPUs are symmetric under
        // lockstep). It is probed only when the row's stall counters are
        // read (the metrics plane's counters, the roofline verdict); a
        // probe never changes the result.
        let init = |cpu: &mut Cpu| kernel.setup(cpu);
        let mut probes = vec![CounterProbe::new(); cpus];
        let run = if probed {
            measure(&cfg, init, &program, iters, flops, &mut probes)
        } else {
            measure(&cfg, init, &program, iters, flops, &mut vec![NoProbe; cpus])
        };
        let (mut ms, machine) = run.map_err(|e| e.to_string())?;
        let telemetry = RunTelemetry {
            ff: machine.cpu(0).ff_stats(),
            probe: probed.then(|| CounterProbe::roll_up(&probes)),
        };
        if let Some(s) = attempt_span.as_mut() {
            s.arg("ff_skipped_instructions", telemetry.ff.skipped_instructions);
        }
        Ok((ms.swap_remove(0), telemetry))
    };
    let s = match obs {
        Some((o, _)) => {
            let metrics = &o.metrics;
            supervise_observed(run, deadline, retry, &mut |event| match event {
                SuperviseEvent::AttemptFailed { failure, .. } => {
                    metrics
                        .counter("macs_attempt_failures_total", &[("kind", failure.kind())])
                        .inc();
                    if matches!(failure, FailureKind::Deadline { .. }) {
                        metrics.counter("macs_watchdog_fires_total", &[]).inc();
                    }
                }
                SuperviseEvent::Backoff { ms } => {
                    metrics.counter("macs_backoff_sleeps_total", &[]).inc();
                    metrics.counter("macs_backoff_ms_total", &[]).add(ms);
                }
            })
        }
        None => supervise(run, deadline, retry),
    };
    prov.simulate_ns = sim_span.map(Span::end);
    prov.attempts = s.attempts;
    let retried = s.retried();
    let failed = |kind: &str, message: &str, poisoned: bool| {
        supervised_row(
            point,
            &key,
            kind,
            message,
            s.attempts,
            &s.backoff_ms,
            poisoned,
        )
    };
    let (row, class) = match s.result {
        Ok(Ok((m, telemetry))) => {
            prov.ff = Some(telemetry.ff);
            if let Some((o, _)) = obs {
                let metrics = &o.metrics;
                metrics
                    .counter("macs_ff_probes_total", &[])
                    .add(telemetry.ff.probes);
                metrics
                    .counter("macs_ff_warps_total", &[])
                    .add(telemetry.ff.warps);
                metrics
                    .counter("macs_ff_skipped_instructions_total", &[])
                    .add(telemetry.ff.skipped_instructions);
                let probe = telemetry.probe.as_ref().expect("observed runs are probed");
                let stalls = probe.totals();
                for cause in StallCause::ALL {
                    let t = ticks(stalls.get(cause));
                    if t > 0 {
                        metrics
                            .counter("macs_stall_ticks_total", &[("cause", cause.key())])
                            .add(t);
                    }
                }
                metrics
                    .counter("macs_busy_ticks_total", &[])
                    .add(ticks(probe.busy_total()));
            }
            let mut row = base_row(point, &key)
                .field("status", "ok")
                .field("machine", machine.as_str())
                .field("attempts", s.attempts)
                .field("cpus", cpus as u64)
                .field("passes", passes as f64)
                .field("cycles", m.stats.cycles)
                .field("instructions", m.stats.instructions.total())
                .field("iterations", m.iterations)
                .field("cpl", m.cpl())
                .field("cpf", m.cpf())
                .field("mflops", m.mflops())
                .field(
                    "memory_wait_cpl",
                    m.stats.memory_wait_cycles / m.iterations.max(1) as f64,
                );
            if let Some(((roof, bounds), probe)) = roof.as_ref().zip(telemetry.probe.as_ref()) {
                let rf = Roofline::new(roof, cpus as u32, bounds, probe);
                if let Some((o, _)) = obs {
                    let c = &rf.ceilings;
                    let cpus_label = c.cpus.to_string();
                    let labels = [("machine", machine.as_str()), ("cpus", cpus_label.as_str())];
                    o.metrics
                        .counter(
                            "macs_points_by_bound_class",
                            &[("class", rf.point.bound_class.key())],
                        )
                        .inc();
                    o.metrics
                        .gauge("macs_roofline_peak_mflops", &labels)
                        .set(c.peak_mflops.round() as i64);
                    o.metrics
                        .gauge("macs_roofline_bandwidth_milliwords_per_cycle", &labels)
                        .set((c.bandwidth_words_per_cycle * 1000.0).round() as i64);
                }
                row = row.field("roofline", rf.to_json());
            }
            (row, PointClass::Ok)
        }
        Ok(Err(message)) => (failed("sim", &message, false), PointClass::Invalid),
        Err(failure) => {
            let class = match failure {
                FailureKind::Panic { .. } => PointClass::Panicked,
                FailureKind::Deadline { .. } => PointClass::TimedOut,
            };
            (failed(failure.kind(), &failure.message(), true), class)
        }
    };
    finish_eval(point_span, obs, &prov, row, class, retried)
}

/// Serves one request stream to completion: evaluates every line,
/// streams rows to `output` as they finish (completion order, not input
/// order — rows carry their `id` and `key`), then emits the summary row
/// and returns the tally.
///
/// # Errors
///
/// Fails on journal I/O errors and on `output` write errors. Input
/// errors (including a mid-stream EOF) end the stream cleanly — every
/// fully received line is still answered and the summary still emitted.
pub fn serve(
    input: impl BufRead + Send,
    mut output: impl Write,
    opts: &ServeOptions,
) -> io::Result<SweepOutcomes> {
    let resumed: BTreeMap<String, Json> = match &opts.resume {
        Some(path) => Journal::load(path)?,
        None => BTreeMap::new(),
    };
    let mut journal = match &opts.journal {
        Some(path) => Some(Journal::open_append(path)?),
        None => None,
    };
    let workers = if opts.workers == 0 {
        macs_core::threads()
    } else {
        opts.workers
    };
    let obs = opts.obs.as_ref();
    let mut sweep_span = obs.map(|o| {
        let mut s = o.tracer.span("sweep");
        s.arg("workers", workers as u64);
        s
    });
    let sweep_id = sweep_span.as_ref().map(Span::id).unwrap_or(0);
    let (job_tx, job_rx) = mpsc::channel::<SweepPoint>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    // Replies flow to the single writer with the key a worker-computed
    // row is journaled under. Resumed rows are already in the journal;
    // rejected and duplicate lines have no computation to record.
    let (out_tx, out_rx) = mpsc::channel::<(Reply, Option<String>)>();
    let mut outcomes = SweepOutcomes::new();
    let resumed = &resumed;
    std::thread::scope(|scope| -> io::Result<()> {
        let reader_tx = out_tx.clone();
        let depth = obs.map(|o| o.metrics.gauge("macs_queue_depth", &[]));
        let requests = Requests::new(input, opts.max_line_bytes, obs, Some(sweep_id));
        scope.spawn(move || {
            // Send failures below mean the writer already bailed on an
            // output error; keep draining input so the scope can join.
            let mut seen: HashSet<String> = HashSet::new();
            for request in requests {
                let point = match request {
                    Ok(point) => point,
                    Err(row) => {
                        let _ = reader_tx.send((Reply::answered(row, Outcome::Invalid), None));
                        continue;
                    }
                };
                let key = point.key();
                if !seen.insert(key.clone()) {
                    let message = format!("point key {key} was already submitted in this run");
                    let row = supervised_row(&point, &key, "duplicate", &message, 0, &[], false);
                    let _ = reader_tx.send((Reply::answered(row, Outcome::Duplicate), None));
                } else if let Some(row) = resumed.get(&key) {
                    let reply = Reply::answered(row.clone(), Outcome::Resumed);
                    let _ = reader_tx.send((reply, None));
                } else {
                    if let Some(depth) = &depth {
                        depth.add(1);
                    }
                    let _ = job_tx.send(point);
                }
            }
        });
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let tx = out_tx.clone();
            let base = opts.base.clone();
            let retry = opts.retry;
            let deadline = opts.deadline;
            let roofline = opts.roofline;
            let worker_obs = obs.map(|o| {
                (
                    o.clone(),
                    o.metrics.gauge("macs_queue_depth", &[]),
                    o.metrics.gauge("macs_workers_busy", &[]),
                )
            });
            scope.spawn(move || loop {
                let job = job_rx.lock().expect("job queue lock").recv();
                let Ok(point) = job else { break };
                if let Some((_, depth, busy)) = worker_obs.as_ref() {
                    depth.add(-1);
                    busy.add(1);
                }
                let point_deadline = point.deadline_ms.map(Duration::from_millis).or(deadline);
                let evaluated = eval_point_observed(
                    &point,
                    &base,
                    point_deadline,
                    &retry,
                    worker_obs.as_ref().map(|(o, _, _)| (o, sweep_id)),
                    roofline,
                );
                if let Some((_, _, busy)) = worker_obs.as_ref() {
                    busy.add(-1);
                }
                let reply = Reply {
                    row: evaluated.row,
                    outcome: Outcome::of(evaluated.class),
                    retried: evaluated.retried,
                };
                let _ = tx.send((reply, Some(point.key())));
            });
        }
        drop(out_tx);
        let mut journaled_rows = 0usize;
        for (reply, journal_key) in out_rx {
            let report_span = obs.map(|o| o.tracer.span_under("report", sweep_id));
            reply.deliver(&mut output, &mut outcomes, obs.map(|o| &o.metrics))?;
            if let (Some(journal), Some(key)) = (journal.as_mut(), journal_key) {
                journal.record(&key, &reply.row)?;
                if let Some(o) = obs {
                    journaled_rows += 1;
                    o.journaled(journal, journaled_rows.is_multiple_of(o.snapshot_every))?;
                }
            }
            drop(report_span);
        }
        Ok(())
    })?;
    writeln!(output, "{}", outcomes.to_json())?;
    output.flush()?;
    if let Some(o) = obs {
        if let Some(mut s) = sweep_span.take() {
            s.arg("points", outcomes.points());
            s.end();
        }
        // One final snapshot so the journal's last metrics row reflects
        // the whole stream, then flush the configured trace exports.
        if let Some(journal) = journal.as_mut() {
            o.journaled(journal, true)?;
        }
        o.export()?;
    }
    Ok(outcomes)
}

/// Serves stdin → stdout, or every connection on `listen` until
/// accepting fails (see [`Service::run`]). Sweep streams serialize on
/// one lock so concurrent connections never interleave journal writes;
/// with `--journal`/`--resume` on the same file, later connections
/// resume from earlier ones' checkpoints. Metrics scrapes bypass the
/// lock, which is what makes mid-sweep scraping work.
///
/// # Errors
///
/// See [`Service::run`] and [`serve`].
pub fn run(listen: Option<&Listen>, opts: &ServeOptions) -> io::Result<Option<SweepOutcomes>> {
    let sweeps = Mutex::new(());
    let service = Service {
        verb: "serving",
        max_line_bytes: opts.max_line_bytes,
        read_timeout: opts.read_timeout,
        obs: opts.obs.as_ref(),
    };
    service.run(listen, &|input, output| {
        let _guard = sweeps.lock().expect("sweep serialization lock");
        serve(input, output, opts)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs_core::sweep::parse_point;

    fn serve_lines(lines: &str, opts: &ServeOptions) -> (Vec<Json>, SweepOutcomes) {
        let mut out = Vec::new();
        let outcomes = serve(lines.as_bytes(), &mut out, opts).expect("serve succeeds");
        let rows = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("every output line is JSON"))
            .collect();
        (rows, outcomes)
    }

    fn fast_opts() -> ServeOptions {
        ServeOptions {
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                jitter_seed: None,
            },
            ..ServeOptions::default()
        }
    }

    #[test]
    fn empty_input_yields_just_the_summary() {
        let (rows, outcomes) = serve_lines("", &fast_opts());
        assert_eq!(outcomes.points(), 0);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("schema").and_then(Json::as_str),
            Some(c240_obs::SWEEP_SUMMARY_SCHEMA)
        );
    }

    #[test]
    fn a_mixed_stream_degrades_gracefully() {
        let input = "\
            {\"id\":\"good\",\"kernel\":12}\n\
            this is not json\n\
            {\"id\":\"badcfg\",\"kernel\":1,\"config\":{\"cpus\":0}}\n\
            {\"id\":\"nokernel\",\"kernel\":5}\n\
            {\"id\":\"boom\",\"kernel\":1,\"inject\":\"panic\"}\n\
            {\"id\":\"dup\",\"kernel\":12}\n";
        let (rows, outcomes) = serve_lines(input, &fast_opts());
        assert_eq!(outcomes.ok, 1);
        assert_eq!(outcomes.invalid, 3, "{outcomes}");
        assert_eq!(outcomes.panicked, 1);
        assert_eq!(outcomes.duplicate, 1);
        assert_eq!(rows.len(), 7, "six rows plus the summary");
        let by_id = |id: &str| {
            rows.iter()
                .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
                .unwrap_or_else(|| panic!("row {id} missing"))
        };
        assert_eq!(
            by_id("good").get("status").and_then(Json::as_str),
            Some("ok")
        );
        assert_eq!(
            by_id("badcfg").get("error_kind").and_then(Json::as_str),
            Some("invalid_config")
        );
        assert_eq!(
            by_id("nokernel").get("error_kind").and_then(Json::as_str),
            Some("unknown_kernel")
        );
        let boom = by_id("boom");
        assert_eq!(boom.get("error_kind").and_then(Json::as_str), Some("panic"));
        assert_eq!(boom.get("attempts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(boom.get("poisoned"), Some(&Json::Bool(true)));
    }

    #[test]
    fn server_rows_match_direct_eval() {
        let opts = fast_opts();
        let line = "{\"id\":\"k12\",\"kernel\":12,\"config\":{\"chaining\":false}}";
        let (rows, _) = serve_lines(&format!("{line}\n"), &opts);
        let direct = eval_point(&parse_point(line).unwrap(), &opts.base, None, &opts.retry);
        assert_eq!(rows[0], direct.row, "transport must add nothing");
    }

    #[test]
    fn journal_and_resume_round_trip() {
        let dir = std::env::temp_dir().join(format!("macs-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("j.ndjson");
        let input = "{\"id\":\"a\",\"kernel\":12}\n{\"id\":\"b\",\"kernel\":3}\n";
        let mut opts = fast_opts();
        opts.journal = Some(journal.clone());
        let (fresh_rows, fresh) = serve_lines(input, &opts);
        assert_eq!(fresh.ok, 2);
        opts.resume = Some(journal.clone());
        let (resumed_rows, resumed) = serve_lines(input, &opts);
        assert_eq!(resumed.resumed, 2);
        assert_eq!(resumed.ok, 0);
        // Resumed rows are the journaled rows verbatim — bit-identical.
        for row in fresh_rows.iter().filter(|r| r.get("key").is_some()) {
            assert!(resumed_rows.contains(row), "row not re-emitted verbatim");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_oversized_line_becomes_a_structured_row_and_the_stream_continues() {
        let mut opts = fast_opts();
        opts.max_line_bytes = 128;
        let huge = format!("{{\"id\":\"big\",\"junk\":\"{}\"}}", "x".repeat(4096));
        let input = format!("{huge}\n{{\"id\":\"ok\",\"kernel\":12}}\n");
        let (rows, outcomes) = serve_lines(&input, &opts);
        assert_eq!(outcomes.invalid, 1, "{outcomes}");
        assert_eq!(outcomes.ok, 1);
        let abuse = rows
            .iter()
            .find(|r| r.get("error_kind").and_then(Json::as_str) == Some("oversized"))
            .expect("oversized row present");
        assert!(abuse
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("128-byte limit"));
    }

    #[test]
    fn invalid_utf8_degrades_to_a_protocol_row_not_a_dead_stream() {
        let mut input = Vec::new();
        input.extend_from_slice(b"\xff\xfe\xfd\n");
        input.extend_from_slice(b"{\"id\":\"ok\",\"kernel\":12}\n");
        let mut out = Vec::new();
        let outcomes = serve(&input[..], &mut out, &fast_opts()).expect("serve survives");
        assert_eq!(outcomes.invalid, 1);
        assert_eq!(outcomes.ok, 1);
    }

    #[test]
    fn deadline_produces_a_timeout_row_and_the_server_survives() {
        let input =
            "{\"id\":\"slow\",\"kernel\":1,\"inject\":{\"sleep_ms\":2000},\"deadline_ms\":30}\n\
                     {\"id\":\"fast\",\"kernel\":12}\n";
        let mut opts = fast_opts();
        opts.retry = RetryPolicy::once();
        let (rows, outcomes) = serve_lines(input, &opts);
        assert_eq!(outcomes.timed_out, 1);
        assert_eq!(outcomes.ok, 1);
        let slow = rows
            .iter()
            .find(|r| r.get("id").and_then(Json::as_str) == Some("slow"))
            .unwrap();
        assert_eq!(
            slow.get("error_kind").and_then(Json::as_str),
            Some("timeout")
        );
    }
}
