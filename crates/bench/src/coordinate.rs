//! The multi-tenant sweep coordinator behind `macs-bench --coordinate`.
//!
//! The coordinator sits in front of a fleet of spawned `macs-bench
//! --serve` worker processes and gives many concurrent clients one
//! shared, fault-tolerant view of the sweep space (DESIGN.md §17):
//!
//! * **Multi-tenancy** — every TCP/Unix connection is an independent
//!   request stream served concurrently (no serialization, unlike a
//!   single `--serve` process); each client gets exactly one row back
//!   per input line plus its own end-of-stream summary.
//! * **Content-addressed result cache** — points are identified by
//!   their FNV key ([`SweepPoint::key`], which excludes the free-form
//!   `id`), so a point any client already computed — or that is merely
//!   *in flight* for another client — is answered from the cache
//!   without re-simulating. The cache persists as the standard
//!   checkpoint [`Journal`]: a restarted coordinator warm-starts from
//!   it, and cached rows re-emit verbatim (the same bit-identity
//!   contract as `--serve --resume`).
//! * **Worker-fleet supervision** — each dispatched point carries a
//!   lease; a worker that crashes, is `kill -9`ed, or hangs (all of
//!   which `--chaos` injects on a deterministic schedule) has its
//!   in-flight points redispatched to surviving workers and is
//!   restarted under capped, optionally jittered backoff. The cache
//!   entry — not the dispatch — is what resolves a point, so a
//!   redispatch race resolves exactly once and late duplicate answers
//!   are dropped.
//! * **Graceful overload** — admission is a bounded queue; past the
//!   bound, new points are refused with a structured `overloaded`
//!   error row instead of unbounded memory growth. Redispatched points
//!   are exempt (they were already admitted once).
//!
//! Workers run the plain `--serve` stdin protocol with no coordinator-
//! specific code, so a row computed through the coordinator is
//! bit-identical to the row the same point produces under a lone
//! `--serve` process.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use c240_obs::json::Json;
use c240_obs::SweepOutcomes;
use macs_core::supervise::RetryPolicy;
use macs_core::sweep::{Journal, SweepPoint};

use crate::serve::ServeObs;
use crate::transport::{
    error_row, Listen, Outcome, Reply, Requests, Service, MAX_LINE_BYTES, READ_TIMEOUT,
};

/// Fault-injection schedule: every Nth dispatch triggers the named
/// action against the worker it was dispatched to (0 = never). The
/// schedule counts *dispatches*, so a given grid and fleet replay the
/// same injection points deterministically; which points are in flight
/// when the blast lands is timing-dependent, which is exactly what the
/// exactly-once machinery must absorb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// `kill -9` the worker every Nth dispatch.
    pub kill_every: u64,
    /// `kill -STOP` (hang) the worker every Nth dispatch; the hung
    /// worker is detected by lease expiry, killed, and restarted.
    pub hang_every: u64,
    /// Write a garbage line to the worker's stdin every Nth dispatch
    /// (the worker answers with a keyless protocol row, which the
    /// coordinator drops).
    pub corrupt_every: u64,
}

impl ChaosSpec {
    /// Parses `kill=N,hang=N,corrupt=N` (any subset, any order).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed clause.
    pub fn parse(spec: &str) -> Result<ChaosSpec, String> {
        let mut chaos = ChaosSpec::default();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let (action, every) = clause
                .split_once('=')
                .ok_or_else(|| format!("chaos clause {clause:?} is not action=N"))?;
            let every: u64 = every
                .trim()
                .parse()
                .map_err(|_| format!("chaos clause {clause:?} needs an integer period"))?;
            match action.trim() {
                "kill" => chaos.kill_every = every,
                "hang" => chaos.hang_every = every,
                "corrupt" => chaos.corrupt_every = every,
                other => return Err(format!("unknown chaos action {other:?}")),
            }
        }
        Ok(chaos)
    }

    fn is_off(&self) -> bool {
        self.kill_every == 0 && self.hang_every == 0 && self.corrupt_every == 0
    }
}

/// How the coordinator runs its fleet and cache.
#[derive(Debug, Clone)]
pub struct CoordinateOptions {
    /// Worker processes to keep running.
    pub fleet: usize,
    /// The worker executable (`None` = this binary, via
    /// `std::env::current_exe`). Tests point this at the built
    /// `macs-bench` binary.
    pub worker_program: Option<PathBuf>,
    /// Extra flags appended to each worker's `--serve` invocation
    /// (e.g. `--workers 1 --machine c240-64b --max-attempts 2`).
    pub worker_args: Vec<String>,
    /// The persistent result cache: every first-time result is appended
    /// here, and an existing journal warm-starts the in-memory cache.
    pub journal: Option<PathBuf>,
    /// Warm-start the cache from this journal instead of `journal`
    /// (when unset, `journal` itself is loaded if it exists).
    pub resume: Option<PathBuf>,
    /// How long a dispatched point may stay unanswered before its
    /// worker is declared hung, killed, and the point redispatched.
    pub lease: Duration,
    /// Admission-queue bound; new points past it are refused with an
    /// `overloaded` row. Redispatched points are exempt.
    pub queue_max: usize,
    /// Unanswered-point cap per worker. Beyond it a worker takes no new
    /// dispatches, which keeps stdin writes inside the pipe buffer (a
    /// blocked write while holding the fleet lock would stall
    /// supervision) and bounds one worker's blast radius.
    pub worker_inflight_max: usize,
    /// Pacing for worker restarts: `backoff(consecutive_failures)`,
    /// capped, with optional full jitter.
    pub restart_backoff: RetryPolicy,
    /// Seed for restart jitter *and* the per-worker `--jitter-seed`
    /// flags passed to spawned workers (worker i gets `seed + i`), so
    /// a fleet decorrelates its retry storms yet replays exactly.
    /// `None` = no jitter anywhere.
    pub jitter_seed: Option<u64>,
    /// Fault injection; `None` (or an all-zero spec) = off.
    pub chaos: Option<ChaosSpec>,
    /// Per-line byte ceiling on client streams (see
    /// [`Service::max_line_bytes`]).
    pub max_line_bytes: usize,
    /// Socket read timeout for client connections (see
    /// [`Service::read_timeout`]).
    pub read_timeout: Option<Duration>,
    /// Observability plane shared by every client and the supervisor.
    pub obs: Option<ServeObs>,
}

impl Default for CoordinateOptions {
    fn default() -> Self {
        CoordinateOptions {
            fleet: 3,
            worker_program: None,
            worker_args: Vec::new(),
            journal: None,
            resume: None,
            lease: Duration::from_secs(10),
            queue_max: 4096,
            worker_inflight_max: WORKER_INFLIGHT_MAX,
            restart_backoff: RetryPolicy {
                max_attempts: u32::MAX,
                backoff_base: Duration::from_millis(50),
                backoff_cap: Duration::from_secs(2),
                jitter_seed: None,
            },
            jitter_seed: None,
            chaos: None,
            max_line_bytes: MAX_LINE_BYTES,
            read_timeout: Some(READ_TIMEOUT),
            obs: None,
        }
    }
}

/// Default for [`CoordinateOptions::worker_inflight_max`]: comfortably
/// inside the OS pipe buffer at protocol-sized lines.
const WORKER_INFLIGHT_MAX: usize = 64;

/// A client waiting on an in-flight point.
struct Waiter {
    tx: mpsc::Sender<Reply>,
    /// The waiter whose registration created the entry. Its tally reads
    /// the worker's row, retries included, as `--serve` would; everyone
    /// else's says `cached`.
    creator: bool,
}

/// Cache entry for one point key.
enum Entry {
    /// Dispatched (or queued) but unanswered; `waiters` drain on the
    /// first resolution.
    InFlight { waiters: Vec<Waiter> },
    /// Terminal row, re-emitted verbatim to every later asker.
    Done { row: Json, from_journal: bool },
}

/// One queued dispatch.
struct Job {
    key: String,
    line: String,
}

/// Per-point lease: what was dispatched and when it expires.
struct Lease {
    line: String,
    deadline: Instant,
}

/// One worker process slot (a fixed fleet index across restarts).
struct WorkerSlot {
    index: usize,
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    inflight: HashMap<String, Lease>,
    consecutive_failures: u32,
    /// `Some(when)` while the slot is down, waiting to restart.
    restart_at: Option<Instant>,
    alive_gauge: Option<c240_obs::metrics::Gauge>,
}

impl WorkerSlot {
    fn is_up(&self) -> bool {
        self.child.is_some() && self.stdin.is_some()
    }
}

/// Shared coordinator state. Lock discipline: `cache` may nest `queue`
/// or `journal` inside it (registration and resolution); nothing else
/// nests — `workers` and `queue` are only ever held one at a time, so
/// the dispatcher (queue → then workers) and the supervisor (workers →
/// then queue) cannot deadlock.
struct Hub {
    opts: CoordinateOptions,
    cache: Mutex<HashMap<String, Entry>>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    journal: Mutex<Option<Journal>>,
    workers: Mutex<Vec<WorkerSlot>>,
    shutdown: AtomicBool,
    dispatched: AtomicU64,
}

impl Hub {
    fn obs(&self) -> Option<&ServeObs> {
        self.opts.obs.as_ref()
    }

    fn count(&self, name: &'static str) {
        if let Some(o) = self.obs() {
            o.metrics.counter(name, &[]).inc();
        }
    }

    fn queue_depth(&self, depth: usize) {
        if let Some(o) = self.obs() {
            o.metrics
                .gauge("macs_coord_queue_depth", &[])
                .set(depth.min(i64::MAX as usize) as i64);
        }
    }

    fn worker_alive(&self, slot: &WorkerSlot, up: bool) {
        if let Some(g) = &slot.alive_gauge {
            g.set(i64::from(up));
        }
    }
}

/// A running coordinator: fleet + dispatcher + supervisor. Create with
/// [`Coordinator::start`], attach clients with [`Coordinator::client`],
/// stop with [`Coordinator::shutdown`].
pub struct Coordinator {
    hub: Arc<Hub>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Warm-starts the cache, spawns the fleet, and starts the
    /// dispatcher and supervisor threads.
    ///
    /// # Errors
    ///
    /// Fails if the warm-start journal is corrupt, the journal cannot
    /// be opened for append, or no worker can be spawned at all.
    pub fn start(opts: &CoordinateOptions) -> io::Result<Coordinator> {
        let warm: HashMap<String, Entry> = {
            let path = opts.resume.as_ref().or(opts.journal.as_ref());
            match path {
                Some(p) if p.exists() => Journal::load(p)?
                    .into_iter()
                    .map(|(k, row)| {
                        (
                            k,
                            Entry::Done {
                                row,
                                from_journal: true,
                            },
                        )
                    })
                    .collect(),
                _ => HashMap::new(),
            }
        };
        let journal = match &opts.journal {
            Some(p) => Some(Journal::open_append(p)?),
            None => None,
        };
        let fleet = opts.fleet.max(1);
        let hub = Arc::new(Hub {
            opts: CoordinateOptions {
                fleet,
                ..opts.clone()
            },
            cache: Mutex::new(warm),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            journal: Mutex::new(journal),
            workers: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            dispatched: AtomicU64::new(0),
        });
        if let Some(o) = hub.obs() {
            o.metrics
                .gauge("macs_coord_queue_limit", &[])
                .set(hub.opts.queue_max.min(i64::MAX as usize) as i64);
        }
        {
            let mut workers = hub.workers.lock().expect("workers lock");
            for index in 0..fleet {
                let label = index.to_string();
                let mut slot = WorkerSlot {
                    index,
                    child: None,
                    stdin: None,
                    inflight: HashMap::new(),
                    consecutive_failures: 0,
                    restart_at: None,
                    alive_gauge: hub
                        .obs()
                        .map(|o| o.metrics.gauge("macs_worker_alive", &[("worker", &label)])),
                };
                match spawn_worker(&hub, &mut slot) {
                    Ok(()) => {}
                    Err(e) if index == 0 => return Err(e),
                    Err(e) => {
                        eprintln!("macs-bench --coordinate: worker {index} failed to spawn: {e}");
                        slot.restart_at = Some(Instant::now());
                    }
                }
                workers.push(slot);
            }
        }
        if let Some(journal) = hub.journal.lock().expect("journal lock").as_mut() {
            // Provenance: which fleet shape produced the records that
            // follow. Metadata rows are skipped by the loader.
            let _ = journal.meta(
                &Json::obj()
                    .field("schema", "c240-coordinator/v1")
                    .field("fleet", fleet as u64)
                    .field("lease_ms", hub.opts.lease.as_millis() as u64)
                    .field("queue_max", hub.opts.queue_max as u64),
            );
        }
        let dispatcher = {
            let hub = Arc::clone(&hub);
            Some(std::thread::spawn(move || dispatcher_loop(&hub)))
        };
        let supervisor = {
            let hub = Arc::clone(&hub);
            Some(std::thread::spawn(move || supervisor_loop(&hub)))
        };
        Ok(Coordinator {
            hub,
            dispatcher,
            supervisor,
        })
    }

    /// Serves one client request stream to completion: every input line
    /// is answered with exactly one row (from the cache, a worker, or a
    /// structured error), then the client's own summary row.
    ///
    /// # Errors
    ///
    /// Fails on `output` write errors; input errors end the stream
    /// cleanly.
    pub fn client(
        &self,
        input: impl BufRead + Send,
        mut output: impl Write,
    ) -> io::Result<SweepOutcomes> {
        let hub = &self.hub;
        let (tx, rx) = mpsc::channel::<Reply>();
        let mut outcomes = SweepOutcomes::new();
        let client_span = hub.obs().map(|o| o.tracer.span("coordinate-client"));
        let requests = Requests::new(input, hub.opts.max_line_bytes, hub.obs(), None);
        std::thread::scope(|scope| -> io::Result<()> {
            scope.spawn(move || {
                for request in requests {
                    let answered = match request {
                        Ok(point) => register(hub, &point, &tx),
                        Err(row) => Some(Reply::answered(row, Outcome::Invalid)),
                    };
                    if let Some(row) = answered {
                        let _ = tx.send(row);
                    }
                }
                // tx drops here; rx closes once every registered waiter
                // has also resolved and dropped its clone.
            });
            for reply in rx {
                reply.deliver(&mut output, &mut outcomes, None)?;
            }
            Ok(())
        })?;
        writeln!(output, "{}", outcomes.to_json())?;
        output.flush()?;
        if let Some(mut s) = client_span {
            s.arg("points", outcomes.points());
            s.end();
        }
        Ok(outcomes)
    }

    /// Stops the fleet: closes every worker's stdin (EOF lets them
    /// finish in-flight points and emit their summaries), waits
    /// briefly, kills stragglers, and joins the coordinator threads.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O errors from the final metrics snapshot.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.hub.shutdown.store(true, Ordering::SeqCst);
        self.hub.queue_cv.notify_all();
        {
            let mut workers = self.hub.workers.lock().expect("workers lock");
            for slot in workers.iter_mut() {
                slot.stdin = None; // drop = EOF
            }
            for slot in workers.iter_mut() {
                if let Some(child) = slot.child.as_mut() {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    loop {
                        match child.try_wait() {
                            Ok(Some(_)) => break,
                            Ok(None) if Instant::now() < deadline => {
                                std::thread::sleep(Duration::from_millis(20));
                            }
                            _ => {
                                let _ = child.kill();
                                let _ = child.wait();
                                break;
                            }
                        }
                    }
                }
                slot.child = None;
                self.hub.worker_alive(slot, false);
            }
        }
        for handle in [self.dispatcher.take(), self.supervisor.take()]
            .into_iter()
            .flatten()
        {
            let _ = handle.join();
        }
        if let Some(o) = self.hub.obs() {
            if let Some(journal) = self.hub.journal.lock().expect("journal lock").as_mut() {
                journal.meta(&o.metrics.snapshot_json())?;
            }
            o.export()?;
        }
        Ok(())
    }
}

/// Spawns (or respawns) the worker for `slot` and starts its stdout
/// pump thread.
fn spawn_worker(hub: &Arc<Hub>, slot: &mut WorkerSlot) -> io::Result<()> {
    let program = match &hub.opts.worker_program {
        Some(p) => p.clone(),
        None => std::env::current_exe()?,
    };
    let mut cmd = Command::new(program);
    cmd.arg("--serve");
    cmd.args(&hub.opts.worker_args);
    if let Some(seed) = hub.opts.jitter_seed {
        cmd.args([
            "--jitter-seed".to_string(),
            seed.wrapping_add(slot.index as u64).to_string(),
        ]);
    }
    cmd.stdin(Stdio::piped());
    cmd.stdout(Stdio::piped());
    cmd.stderr(Stdio::null());
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take().expect("worker stdin is piped");
    let stdout = child.stdout.take().expect("worker stdout is piped");
    slot.stdin = Some(stdin);
    slot.child = Some(child);
    slot.restart_at = None;
    hub.worker_alive(slot, true);
    let pump_hub = Arc::clone(hub);
    let index = slot.index;
    std::thread::spawn(move || worker_pump(&pump_hub, index, stdout));
    Ok(())
}

/// Reads one worker generation's stdout until EOF, resolving keyed rows.
/// Runs detached: when the worker dies the pipe closes and the thread
/// exits on its own.
fn worker_pump(hub: &Arc<Hub>, index: usize, stdout: std::process::ChildStdout) {
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        let Ok(row) = Json::parse(&line) else {
            continue;
        };
        let key = match row.get("key").and_then(Json::as_str) {
            Some(k) => k.to_string(),
            None => {
                // Keyless output: the worker's end-of-stream summary, or
                // its protocol row answering a chaos-corrupted line.
                if row.get("error_kind").and_then(Json::as_str) == Some("protocol") {
                    hub.count("macs_worker_protocol_rows_total");
                }
                continue;
            }
        };
        {
            let mut workers = hub.workers.lock().expect("workers lock");
            if let Some(slot) = workers.get_mut(index) {
                slot.inflight.remove(&key);
                slot.consecutive_failures = 0;
            }
        }
        resolve(hub, &key, row);
    }
}

/// Transitions a key to `Done` exactly once: journals the row, answers
/// every waiter, and drops late duplicates from redispatch races.
fn resolve(hub: &Arc<Hub>, key: &str, row: Json) {
    let mut cache = hub.cache.lock().expect("cache lock");
    match cache.get_mut(key) {
        Some(Entry::Done { .. }) => {
            // A redispatched copy already resolved this key (or a slow
            // worker answered after its lease was given away).
            drop(cache);
            hub.count("macs_duplicate_results_total");
        }
        Some(entry @ Entry::InFlight { .. }) => {
            let waiters = match std::mem::replace(
                entry,
                Entry::Done {
                    row: row.clone(),
                    from_journal: false,
                },
            ) {
                Entry::InFlight { waiters } => waiters,
                Entry::Done { .. } => unreachable!("matched InFlight above"),
            };
            // Journal inside the cache lock: the InFlight→Done edge
            // happens once, so the journal gets exactly one record per
            // key.
            if let Some(journal) = hub.journal.lock().expect("journal lock").as_mut() {
                let _ = journal.record(key, &row);
                if let Some(o) = hub.obs() {
                    let _ = o.journaled(journal, false);
                }
            }
            drop(cache);
            for waiter in waiters {
                let _ = waiter.tx.send(if waiter.creator {
                    Reply::evaluated(row.clone())
                } else {
                    Reply::answered(row.clone(), Outcome::Cached)
                });
            }
        }
        None => {
            // A row for a key nobody asked for (e.g. a worker answering
            // chaos garbage with a keyed row — impossible today, but a
            // hostile worker binary could). Drop it.
            drop(cache);
            hub.count("macs_unsolicited_results_total");
        }
    }
}

/// Pulls jobs off the admission queue and writes them to workers,
/// injecting chaos on schedule.
fn dispatcher_loop(hub: &Arc<Hub>) {
    loop {
        let job = {
            let mut queue = hub.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    hub.queue_depth(queue.len());
                    break Some(job);
                }
                if hub.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = hub
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .expect("queue lock");
                queue = q;
            }
        };
        let Some(job) = job else { return };
        if !dispatch(hub, job) {
            // No worker could take it; park it at the front and let the
            // supervisor bring a worker back.
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Tries to hand `job` to a worker; on failure requeues it at the front
/// and returns false.
fn dispatch(hub: &Arc<Hub>, job: Job) -> bool {
    let n = hub.dispatched.fetch_add(1, Ordering::SeqCst) + 1;
    let chaos = hub.opts.chaos.filter(|c| !c.is_off());
    let mut workers = hub.workers.lock().expect("workers lock");
    let fleet = workers.len().max(1);
    // Key-hash affinity, falling back to the least-loaded live worker
    // with lease capacity.
    let affinity = (u64::from_str_radix(&job.key, 16).unwrap_or(0) % fleet as u64) as usize;
    let pick = |workers: &[WorkerSlot]| -> Option<usize> {
        let fits =
            |s: &WorkerSlot| s.is_up() && s.inflight.len() < hub.opts.worker_inflight_max.max(1);
        if workers.get(affinity).is_some_and(fits) {
            return Some(affinity);
        }
        workers
            .iter()
            .filter(|s| fits(s))
            .min_by_key(|s| s.inflight.len())
            .map(|s| s.index)
    };
    let Some(index) = pick(&workers) else {
        drop(workers);
        hub.dispatched.fetch_sub(1, Ordering::SeqCst);
        requeue(hub, vec![job]);
        return false;
    };
    let slot = &mut workers[index];
    let wrote = slot
        .stdin
        .as_mut()
        .map(|stdin| writeln!(stdin, "{}", job.line).and_then(|()| stdin.flush()));
    match wrote {
        Some(Ok(())) => {
            slot.inflight.insert(
                job.key.clone(),
                Lease {
                    line: job.line.clone(),
                    deadline: Instant::now() + hub.opts.lease,
                },
            );
        }
        _ => {
            // The pipe is gone: the worker died under us. Take it down
            // for the supervisor and requeue everything it owed.
            let mut lost = take_down(hub, slot, Instant::now());
            lost.push(job);
            drop(workers);
            hub.count("macs_dispatch_failures_total");
            requeue(hub, lost);
            return false;
        }
    }
    if let Some(chaos) = chaos {
        inject_chaos(hub, &mut workers[index], chaos, n);
    }
    true
}

/// Applies whichever chaos actions are due at dispatch `n` to the
/// worker that just received the dispatch.
fn inject_chaos(hub: &Arc<Hub>, slot: &mut WorkerSlot, chaos: ChaosSpec, n: u64) {
    let due = |every: u64| every > 0 && n.is_multiple_of(every);
    let mark = |action: &str| {
        if let Some(o) = hub.obs() {
            o.metrics
                .counter("macs_chaos_injected_total", &[("action", action)])
                .inc();
        }
    };
    if due(chaos.kill_every) {
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            mark("kill");
        }
    } else if due(chaos.hang_every) {
        if let Some(child) = slot.child.as_ref() {
            // SIGSTOP via the kill(1) binary — std has no signal API.
            // The stopped worker stops answering, its leases expire, and
            // the supervisor SIGKILLs and restarts it.
            #[cfg(unix)]
            {
                let _ = Command::new("kill")
                    .args(["-STOP", &child.id().to_string()])
                    .status();
                mark("hang");
            }
            #[cfg(not(unix))]
            {
                let _ = child;
                mark("hang");
            }
        }
    } else if due(chaos.corrupt_every) {
        if let Some(stdin) = slot.stdin.as_mut() {
            let _ = writeln!(stdin, "\u{1}garbage from chaos\u{1}");
            let _ = stdin.flush();
            mark("corrupt");
        }
    }
}

/// Marks a slot dead and strips its leases for redispatch. Caller holds
/// the workers lock and requeues the returned jobs *after* releasing it.
fn take_down(hub: &Arc<Hub>, slot: &mut WorkerSlot, now: Instant) -> Vec<Job> {
    if let Some(mut child) = slot.child.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
    slot.stdin = None;
    slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
    slot.restart_at = Some(now + restart_pause(hub, slot));
    hub.worker_alive(slot, false);
    slot.inflight
        .drain()
        .map(|(key, lease)| Job {
            key,
            line: lease.line,
        })
        .collect()
}

fn restart_pause(hub: &Arc<Hub>, slot: &WorkerSlot) -> Duration {
    let policy = RetryPolicy {
        jitter_seed: hub
            .opts
            .jitter_seed
            .map(|s| s.wrapping_add(0x5eed).wrapping_add(slot.index as u64)),
        ..hub.opts.restart_backoff
    };
    let mut rng = policy.jitter_rng();
    policy.jittered_backoff(slot.consecutive_failures, &mut rng)
}

/// Puts jobs back at the *front* of the queue (they were already
/// admitted once; they bypass the bound and run before new work).
fn requeue(hub: &Arc<Hub>, jobs: Vec<Job>) {
    if jobs.is_empty() {
        return;
    }
    let count = jobs.len() as u64;
    {
        let mut queue = hub.queue.lock().expect("queue lock");
        for job in jobs {
            queue.push_front(job);
        }
        hub.queue_depth(queue.len());
    }
    hub.queue_cv.notify_all();
    if let Some(o) = hub.obs() {
        o.metrics.counter("macs_redispatch_total", &[]).add(count);
    }
}

/// Watches the fleet: reaps crashed workers, expires leases on hung
/// ones, and restarts dead slots once their backoff elapses.
fn supervisor_loop(hub: &Arc<Hub>) {
    while !hub.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        let now = Instant::now();
        let mut lost: Vec<Job> = Vec::new();
        {
            let mut workers = hub.workers.lock().expect("workers lock");
            for slot in workers.iter_mut() {
                if let Some(child) = slot.child.as_mut() {
                    let exited = matches!(child.try_wait(), Ok(Some(_)));
                    let expired = slot.inflight.values().any(|l| l.deadline < now);
                    if exited {
                        hub.count("macs_worker_deaths_total");
                        lost.append(&mut take_down(hub, slot, now));
                    } else if expired {
                        hub.count("macs_lease_expired_total");
                        lost.append(&mut take_down(hub, slot, now));
                    }
                } else if slot.restart_at.is_some_and(|at| at <= now)
                    && !hub.shutdown.load(Ordering::SeqCst)
                {
                    match spawn_worker(hub, slot) {
                        Ok(()) => hub.count("macs_worker_restarts_total"),
                        Err(_) => {
                            slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
                            slot.restart_at = Some(now + restart_pause(hub, slot));
                        }
                    }
                }
            }
        }
        requeue(hub, lost);
    }
}

/// Registers one parsed point for a client: cache hit, join-in-flight,
/// enqueue, or overload refusal. Returns a row to emit immediately, or
/// `None` when the answer will arrive through `tx`.
fn register(hub: &Arc<Hub>, point: &SweepPoint, tx: &mpsc::Sender<Reply>) -> Option<Reply> {
    let key = point.key();
    let mut cache = hub.cache.lock().expect("cache lock");
    match cache.get_mut(&key) {
        Some(Entry::Done { row, from_journal }) => {
            let outcome = if *from_journal {
                Outcome::Resumed
            } else {
                Outcome::Cached
            };
            let row = row.clone();
            drop(cache);
            hub.count("macs_cache_hits_total");
            Some(Reply::answered(row, outcome))
        }
        Some(Entry::InFlight { waiters }) => {
            waiters.push(Waiter {
                tx: tx.clone(),
                creator: false,
            });
            drop(cache);
            hub.count("macs_cache_hits_total");
            None
        }
        None => {
            // Admission control nests queue inside cache so the entry
            // and its job appear atomically.
            let mut queue = hub.queue.lock().expect("queue lock");
            if queue.len() >= hub.opts.queue_max {
                drop(queue);
                drop(cache);
                hub.count("macs_overloaded_total");
                let message = format!(
                    "coordinator admission queue is full ({} points); retry later",
                    hub.opts.queue_max
                );
                let row = error_row(point, &key, "overloaded", &message);
                return Some(Reply::answered(row, Outcome::Overloaded));
            }
            queue.push_back(Job {
                key: key.clone(),
                line: point.request_line(),
            });
            hub.queue_depth(queue.len());
            drop(queue);
            cache.insert(
                key,
                Entry::InFlight {
                    waiters: vec![Waiter {
                        tx: tx.clone(),
                        creator: true,
                    }],
                },
            );
            drop(cache);
            hub.queue_cv.notify_all();
            hub.count("macs_cache_misses_total");
            None
        }
    }
}

/// Starts the fleet, coordinates stdin → stdout or every client on
/// `listen` (concurrently — that is the point of the coordinator; see
/// [`Service::run`]), and shuts the fleet down when serving ends.
///
/// # Errors
///
/// Propagates startup, serving, and shutdown errors.
pub fn run(listen: Option<&Listen>, opts: &CoordinateOptions) -> io::Result<Option<SweepOutcomes>> {
    let coordinator = Coordinator::start(opts)?;
    let service = Service {
        verb: "coordinating",
        max_line_bytes: opts.max_line_bytes,
        read_timeout: opts.read_timeout,
        obs: opts.obs.as_ref(),
    };
    let served = service.run(listen, &|input, output| coordinator.client(input, output));
    let stopped = coordinator.shutdown();
    let outcomes = served?;
    stopped?;
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_spec_parses_any_subset() {
        assert_eq!(
            ChaosSpec::parse("kill=199,corrupt=57").unwrap(),
            ChaosSpec {
                kill_every: 199,
                hang_every: 0,
                corrupt_every: 57,
            }
        );
        assert_eq!(ChaosSpec::parse("").unwrap(), ChaosSpec::default());
        assert!(ChaosSpec::parse("explode=3").is_err());
        assert!(ChaosSpec::parse("kill").is_err());
        assert!(ChaosSpec::parse("kill=many").is_err());
        assert!(ChaosSpec::default().is_off());
    }
}
