//! End-to-end measurement: closed-loop passes through a real
//! `macs-bench --serve` / `--coordinate` process, every row checked
//! against the golden reference.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use c240_obs::json::Json;
use c240_obs::Tracer;
use c240_sim::SimConfig;
use macs_bench::eval_point;
use macs_core::supervise::RetryPolicy;
use macs_core::sweep::Journal;
use macs_experiments::paper::TABLE4;

use crate::client::Server;
use crate::golden::Golden;
use crate::workload::{Class, Expect, Item, Workload, PROBE_LINE};

/// Server starts measured on their own, besides the one of every pass,
/// so `setup_s` is a median of many even when a run fits few passes.
const SETUP_SAMPLES: usize = 8;

/// Timed points per run at least, whatever `--seconds` says: p90 then
/// has at least ten samples beyond it.
const MIN_POINTS: usize = 100;

/// How a pass's server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The default environment: every timed pass.
    Timed,
    /// The server's observability plane on (`--metrics --spans-out`).
    Traced,
    /// glibc's mmap threshold pinned to its initial value. By default
    /// glibc raises the threshold after the first simulated memory image
    /// (8 MiB) is freed, and later images then stay in whichever malloc
    /// arena served them, so peak RSS jumps in 8 MiB steps with point
    /// order and thread timing. Pinned, freed images go back to the OS
    /// and peak RSS is the live memory's.
    Memory,
}

pub struct Ctx {
    pub macs_bench: PathBuf,
    pub out: PathBuf,
    pub golden: Golden,
}

impl Ctx {
    fn journal(&self, w: &Workload) -> PathBuf {
        self.out.join(format!("{}-journal.ndjson", w.name))
    }

    pub fn seed_journal(&self) -> PathBuf {
        self.out.join("coord-seed-journal.ndjson")
    }

    /// Writes the journal the coordinator is warm-started from: real rows
    /// of the workload's journal points, evaluated in-process.
    pub fn write_seed_journal(&self, w: &Workload) -> io::Result<()> {
        let path = self.seed_journal();
        let _ = fs::remove_file(&path);
        let rows = macs_core::parallel_map(w.journal.clone(), |spec| {
            let point = spec.point(&format!("seed-{}", spec.name()));
            let evaluated = eval_point(&point, &SimConfig::c240(), None, &RetryPolicy::default());
            (point.key(), evaluated.row)
        });
        let mut journal = Journal::open_append(&path)?;
        for (key, row) in &rows {
            journal.record(key, row)?;
        }
        Ok(())
    }

    /// The server's arguments; resets the pass's journal first.
    fn server_args(&self, w: &Workload, mode: Mode) -> io::Result<Vec<String>> {
        let journal = self.journal(w);
        if w.coordinate {
            fs::copy(self.seed_journal(), &journal)?;
        } else if journal.exists() {
            fs::remove_file(&journal)?;
        }
        let mut args: Vec<String> = if w.coordinate {
            vec!["--coordinate".into(), "--fleet".into(), "2".into()]
        } else {
            vec!["--serve".into(), "--workers".into(), "1".into()]
        };
        args.extend(["--journal".into(), path_arg(&journal)]);
        if mode == Mode::Traced {
            let spans = self.out.join(format!("{}-server-spans.ndjson", w.name));
            args.extend(["--metrics".into(), "--spans-out".into(), path_arg(&spans)]);
        }
        if w.coordinate {
            args.extend(["--".into(), "--workers".into(), "1".into()]);
        }
        Ok(args)
    }

    /// Starts a server and times it until it answers its first line.
    pub fn start(&self, w: &Workload, mode: Mode) -> io::Result<(Server, f64)> {
        let args = self.server_args(w, mode)?;
        let env: &[(&str, &str)] = match mode {
            Mode::Memory => &[("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072")],
            Mode::Timed | Mode::Traced => &[],
        };
        let t0 = Instant::now();
        let mut server = Server::start(&self.macs_bench, &args, env)?;
        let (row, _) = server.request(PROBE_LINE)?;
        let setup = t0.elapsed().as_secs_f64();
        if row.get("error_kind").and_then(Json::as_str) != Some("protocol") {
            return Err(io::Error::other(format!("unexpected probe answer {row}")));
        }
        Ok((server, setup))
    }

    /// One closed-loop pass of `items` through a fresh server.
    pub fn pass(
        &self,
        w: &Workload,
        items: &[Item],
        mode: Mode,
        tracer: Option<&Tracer>,
    ) -> io::Result<Pass> {
        let (mut server, setup_s) = self.start(w, mode)?;
        let mut pass = Pass {
            setup_s,
            ..Pass::default()
        };
        let pass_span = tracer.map(|t| t.span("bench.pass"));
        let t0 = Instant::now();
        for item in items {
            let span = pass_span.as_ref().map(|s| s.child("bench.request"));
            let (row, latency) = server.request(&item.line)?;
            drop(span);
            pass.latencies_ms.push(ms(latency));
            match check(&self.golden, item, &row) {
                Ok(()) => {
                    pass.correct += 1;
                    if let Expect::Row(spec) = &item.expect {
                        if item.class == Class::Fresh {
                            pass.simulated_instructions +=
                                row.get("instructions").and_then(Json::as_u64).unwrap_or(0);
                        }
                        if spec.is_paper() {
                            let cpf = row.get("cpf").and_then(Json::as_f64).unwrap_or(f64::NAN);
                            pass.paper_cpf.push((spec.kernel, cpf));
                        }
                    }
                }
                Err(e) => pass.errors.push(e),
            }
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        drop(pass_span);
        pass.rss_kib = server.peak_rss_kib();
        let summary = server.finish()?;
        let answered = summary.get("points").and_then(Json::as_u64);
        if answered != Some(items.len() as u64 + 1) {
            pass.errors.push(format!(
                "summary counts {answered:?} points, sent {}",
                items.len() + 1
            ));
        }
        Ok(pass)
    }
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether `row` is the right answer to `item`.
pub fn check(golden: &Golden, item: &Item, row: &Json) -> Result<(), String> {
    match &item.expect {
        Expect::Row(spec) => golden.check(spec, row),
        Expect::Error(kind) => {
            let got = row.get("error_kind").and_then(Json::as_str);
            if row.get("status").and_then(Json::as_str) == Some("error") && got == Some(kind) {
                Ok(())
            } else {
                Err(format!(
                    "{}: expected a {kind} error row, got {row}",
                    item.line
                ))
            }
        }
    }
}

#[derive(Default)]
pub struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    pub correct: usize,
    pub latencies_ms: Vec<f64>,
    pub simulated_instructions: u64,
    pub rss_kib: u64,
    pub paper_cpf: Vec<(u32, f64)>,
    pub errors: Vec<String>,
}

impl Pass {
    pub fn points_per_s(&self) -> f64 {
        self.correct as f64 / self.wall_s
    }
}

/// The median of `values` (the mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in `0..=1`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// One metric as printed: value, unit and the samples it rests on.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The result of a run: its metrics and every wrong answer.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

/// Mean |simulated CPF − Table 4 `t_p`| / `t_p` over the paper points,
/// in percent.
fn tp_err_pct(paper_cpf: &[(u32, f64)]) -> f64 {
    let errs: Vec<f64> = TABLE4
        .iter()
        .map(|row| {
            paper_cpf
                .iter()
                .find(|(k, _)| *k == row.id)
                .map_or(f64::NAN, |(_, cpf)| (cpf - row.t_p).abs() / row.t_p)
        })
        .collect();
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}

/// The untraced run: an untimed pass that warms up and measures peak
/// memory, extra server starts, then whole timed passes until `seconds`
/// have gone and at least [`MIN_POINTS`] points were timed.
pub fn run(ctx: &Ctx, w: &Workload, seconds: f64) -> io::Result<Outcome> {
    let memory = ctx.pass(w, &w.pass, Mode::Memory, None)?;
    let mut errors = memory.errors;
    let mut setups = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (server, setup) = ctx.start(w, Mode::Timed)?;
        server.finish()?;
        setups.push(setup);
    }
    let mut passes: Vec<Pass> = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || passes.len() * w.pass.len() < MIN_POINTS {
        let mut pass = ctx.pass(w, &w.pass, Mode::Timed, None)?;
        setups.push(pass.setup_s);
        errors.append(&mut pass.errors);
        passes.push(pass);
    }
    let attempted = passes.len() * w.pass.len();
    let correct: usize = passes.iter().map(|p| p.correct).sum();
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.clone()).collect();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let n = passes.len();
    let metrics = vec![
        metric("points_per_s", per_pass(&Pass::points_per_s), "1/s", n),
        metric(
            "latency_p50_ms",
            percentile(&latencies, 0.5),
            "ms",
            latencies.len(),
        ),
        metric(
            "latency_p90_ms",
            percentile(&latencies, 0.9),
            "ms",
            latencies.len(),
        ),
        metric(
            "sim_minstr_per_s",
            per_pass(&|p| p.simulated_instructions as f64 / p.wall_s / 1e6),
            "Minstr/s",
            n,
        ),
        metric("setup_s", median(&setups), "s", setups.len()),
        metric(
            "ok_frac",
            correct as f64 / attempted as f64,
            "frac",
            attempted,
        ),
        metric("peak_rss_mb", memory.rss_kib as f64 / 1024.0, "MiB", 1),
        metric(
            "tp_err_vs_paper_pct",
            tp_err_pct(&passes[0].paper_cpf),
            "%",
            passes[0].paper_cpf.len(),
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed: attempted - correct,
        errors,
    })
}
