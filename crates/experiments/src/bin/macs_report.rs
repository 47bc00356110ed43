//! `macs-report` — regenerate the paper's tables and figures.
//!
//! ```text
//! macs-report [ARTIFACT...] [--machine PRESET] [--cpus N]
//!             [--mix lockstep|mixed]
//!             [--csv DIR] [--json PATH] [--trace-out DIR]
//!             [--kernels a,b,..] [--ablations t1,t2,..] [--shard I/N]
//!
//! ARTIFACT: table1 table2 table3 table4 table5 fig1 fig2 fig3 lfk1
//!           cosim roofline sweep-grid all   (default: all)
//! --machine PRESET: generate every artifact for this machine preset
//!                  (c240, c240-64b, dual-port; default c240). For
//!                  `sweep-grid`, stamps the preset onto every request
//!                  line so rows land under per-machine journal keys.
//! --cpus N:        co-simulated CPUs for the `cosim` artifact
//!                  (default: the machine's port count — 4 on the C-240,
//!                  the machine the paper's bands describe), at most
//!                  that port count, and per-point CPUs for `sweep-grid`
//! --mix MIX:       restrict `cosim` to one workload mix
//!                  (default: both lockstep and mixed)
//! --csv DIR:       additionally write each table as CSV into DIR
//! --json PATH:     write the full suite as structured run reports
//!                  (one RunReport per kernel, schema-stable JSON)
//! --trace-out DIR: write a per-kernel pipeline trace (event log +
//!                  ASCII Gantt) and stall-account CSV into DIR
//! --kernels:       restrict `sweep-grid` to these kernel ids
//! --ablations:     restrict `sweep-grid` to these ablation tags
//!                  (baseline nochain nobubbles norefresh nopair)
//! --shard I/N:     emit only shard I of N of the `sweep-grid` points
//! ```
//!
//! `sweep-grid` prints wire-protocol request lines for the kernels ×
//! ablations grid — pipe them into `macs-bench --serve`. It is not part
//! of `all` (it writes requests, not artifacts).
//!
//! `roofline` (DESIGN.md §16) places the kernels × ablations × CPU
//! counts grid under the machine's roof, cross-checking every analytic
//! `bound_class` against the probed stall taxonomy. It is explicit-only
//! (150 measured runs — not part of `all`); with `--csv DIR` it also
//! writes `roofline.csv` and `roofline.json` (schema `c240-roofline/v1`)
//! into DIR, and `--cpus N` restricts the grid to one CPU count. The
//! process exits non-zero if any *baseline* row's classification
//! disagrees with the measurement — the artifact doubles as the
//! cross-check gate CI runs per preset.

use std::path::PathBuf;
use std::process::ExitCode;

use c240_isa::{MachineDescription, PRESET_NAMES};
use c240_obs::json::Json;
use c240_sim::{SimConfig, Trace};
use macs_core::{measure, RunReport, RUN_REPORT_SCHEMA};
use macs_experiments::cosim::{cosim_csv, cosim_table, run_cosim, Mix};
use macs_experiments::{
    figures, run_roofline, run_roofline_with, tables, worked_example, Ablation, GridSpec, Suite,
};

struct Args {
    artifacts: Vec<String>,
    machine: MachineDescription,
    cpus: Option<u32>,
    mix: Option<Mix>,
    csv_dir: Option<PathBuf>,
    json_path: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    kernels: Option<Vec<u32>>,
    ablations: Option<Vec<Ablation>>,
    shard: (u32, u32),
}

fn parse_args() -> Result<Args, String> {
    let mut artifacts = Vec::new();
    let mut machine: Option<MachineDescription> = None;
    let mut cpus: Option<u32> = None;
    let mut mix = None;
    let mut csv_dir = None;
    let mut json_path = None;
    let mut trace_dir = None;
    let mut kernels = None;
    let mut ablations = None;
    let mut shard = (0u32, 1u32);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--machine" => {
                let name = it.next().ok_or("--machine requires a preset name")?;
                machine = Some(MachineDescription::preset(&name).ok_or_else(|| {
                    format!(
                        "--machine {name}: unknown preset (known: {})",
                        PRESET_NAMES.join(", ")
                    )
                })?);
            }
            "--cpus" => {
                let n = it.next().ok_or("--cpus requires a count")?;
                cpus = Some(
                    n.parse::<u32>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--cpus {n}: expected a positive integer"))?,
                );
            }
            "--mix" => {
                let m = it.next().ok_or("--mix requires lockstep|mixed")?;
                mix = Some(
                    Mix::parse(&m)
                        .ok_or_else(|| format!("--mix {m}: expected `lockstep` or `mixed`"))?,
                );
            }
            "--csv" => {
                let dir = it.next().ok_or("--csv requires a directory")?;
                csv_dir = Some(PathBuf::from(dir));
            }
            "--json" => {
                let path = it.next().ok_or("--json requires a file path")?;
                json_path = Some(PathBuf::from(path));
            }
            "--trace-out" => {
                let dir = it.next().ok_or("--trace-out requires a directory")?;
                trace_dir = Some(PathBuf::from(dir));
            }
            "--kernels" => {
                let list = it
                    .next()
                    .ok_or("--kernels requires a comma-separated list")?;
                let parsed: Result<Vec<u32>, String> = list
                    .split(',')
                    .map(|k| {
                        k.trim()
                            .parse::<u32>()
                            .map_err(|_| format!("--kernels: bad kernel id {k:?}"))
                    })
                    .collect();
                kernels = Some(parsed?);
            }
            "--ablations" => {
                let list = it
                    .next()
                    .ok_or("--ablations requires a comma-separated list")?;
                let parsed: Result<Vec<Ablation>, String> = list
                    .split(',')
                    .map(|t| {
                        Ablation::parse(t.trim())
                            .ok_or_else(|| format!("--ablations: unknown tag {t:?}"))
                    })
                    .collect();
                ablations = Some(parsed?);
            }
            "--shard" => {
                let spec = it.next().ok_or("--shard requires I/N")?;
                shard = spec
                    .split_once('/')
                    .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)))
                    .filter(|&(i, n): &(u32, u32)| n >= 1 && i < n)
                    .ok_or_else(|| format!("--shard {spec}: expected I/N with I < N"))?;
            }
            "--help" | "-h" => return Err(
                "usage: macs-report [table1..table5|fig1..fig3|lfk1|asm|cosim|roofline|sweep-grid|all]... \
                     [--machine PRESET] [--cpus N] [--mix lockstep|mixed] [--csv DIR] \
                     [--json PATH] [--trace-out DIR] [--kernels a,b,..] \
                     [--ablations t1,t2,..] [--shard I/N]"
                    .to_string(),
            ),
            known @ ("table1" | "table2" | "table3" | "table4" | "table5" | "fig1" | "fig2"
            | "fig3" | "lfk1" | "asm" | "cosim" | "roofline" | "sweep-grid" | "all") => {
                artifacts.push(known.to_string())
            }
            other => return Err(format!("unknown artifact `{other}` (try --help)")),
        }
    }
    if artifacts.is_empty() {
        artifacts.push("all".to_string());
    }
    let machine = machine.unwrap_or_else(MachineDescription::c240);
    // `cosim` (in `all`) and `roofline` co-simulate `--cpus` CPUs on this
    // machine; `sweep-grid` preempts both and leaves points to the server.
    let asked = |names: &[&str]| artifacts.iter().any(|a| names.contains(&a.as_str()));
    let co_simulates = asked(&["cosim", "all", "roofline"]) && !asked(&["sweep-grid"]);
    if let Some(n) = cpus.filter(|_| co_simulates) {
        let mut config = SimConfig::for_machine(&machine);
        config.cpus = n;
        config.validate().map_err(|e| format!("--cpus {n}: {e}"))?;
    }
    Ok(Args {
        artifacts,
        machine,
        cpus,
        mix,
        csv_dir,
        json_path,
        trace_dir,
        kernels,
        ablations,
        shard,
    })
}

/// The whole suite as one JSON document: a versioned envelope around one
/// [`RunReport`] per kernel, in paper order.
fn suite_json(suite: &Suite) -> Json {
    let reports: Vec<Json> = suite
        .rows
        .iter()
        .map(|r| RunReport::new(r.id, r.analysis.clone()).to_json())
        .collect();
    Json::obj()
        .field("schema", "c240-suite-report/v1")
        .field("report_schema", RUN_REPORT_SCHEMA)
        .field("avg_measured_cpf", suite.avg_measured_cpf())
        .field("kernels", Json::Arr(reports))
}

/// Runs each kernel once with tracing enabled and writes its event log
/// plus ASCII Gantt chart, and its per-lane stall accounts as CSV.
fn write_traces(dir: &PathBuf, suite: &Suite) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for row in &suite.rows {
        let kernel = lfk_suite::by_id(row.id).expect("suite rows come from the registry");
        let mut trace = Trace::default();
        if let Err(e) = measure(
            &suite.sim,
            |cpu| kernel.setup(cpu),
            &kernel.program(),
            kernel.iterations(),
            kernel.flops_total(),
            std::slice::from_mut(&mut trace),
        ) {
            eprintln!("LFK{}: trace run failed: {e}", row.id);
            continue;
        }
        // The origin stamp places this run (whose event timestamps are
        // simulated cycles) on the process's shared monotonic timeline,
        // the same clock the observability spans use — so a trace can be
        // correlated wall-clock-wise with a concurrent span export.
        let mut text = format!(
            "LFK{} — {} ({} events, {} dropped past cap, origin {} ns)\n\n",
            row.id,
            kernel.name(),
            trace.events().len(),
            trace.dropped(),
            trace.origin_ns()
        );
        for event in trace.events().iter().take(64) {
            text.push_str(&event.to_string());
            text.push('\n');
        }
        text.push('\n');
        text.push_str(&trace.gantt(24, 4.0));
        let path = dir.join(format!("lfk{:02}_trace.txt", row.id));
        std::fs::write(&path, text)?;
        eprintln!("wrote {}", path.display());

        let csv = RunReport::new(row.id, row.analysis.clone()).to_csv();
        let path = dir.join(format!("lfk{:02}_stalls.csv", row.id));
        std::fs::write(&path, csv)?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // sweep-grid writes protocol requests, not artifacts, so it is
    // explicit-only (never part of `all`) and preempts everything else.
    if args.artifacts.iter().any(|a| a == "sweep-grid") {
        let mut grid = GridSpec {
            // The base machine needs no tag; naming a preset stamps it
            // onto every request line (and thus every journal key).
            machine: Some(args.machine.name.clone()).filter(|name| name != "c240"),
            shard_index: args.shard.0,
            shard_count: args.shard.1,
            ..GridSpec::default()
        };
        if let Some(kernels) = args.kernels {
            grid.kernels = kernels;
        }
        if let Some(ablations) = args.ablations {
            grid.ablations = ablations;
        }
        if let Some(cpus) = args.cpus {
            grid.cpus = cpus;
        }
        print!("{}", grid.request_lines());
        return ExitCode::SUCCESS;
    }
    let want = |name: &str| {
        args.artifacts.iter().any(|a| a == name) || args.artifacts.iter().any(|a| a == "all")
    };

    // Bit-identical to `SimConfig::c240()` for the default machine
    // (pinned by tests/machine_presets.rs), so the default artifacts are
    // unchanged by the preset plumbing.
    let sim = SimConfig::for_machine(&args.machine);
    if args.machine.name != "c240" {
        eprintln!("machine preset: {}", args.machine.name);
    }
    let needs_suite = ["table2", "table3", "table4", "table5", "fig1", "fig3"]
        .iter()
        .any(|a| want(a))
        || args.json_path.is_some()
        || args.trace_dir.is_some();
    let suite = if needs_suite {
        eprintln!("running the ten-kernel case study (bounds + 3 measurements each)...");
        Some(Suite::run_with(&sim))
    } else {
        None
    };

    let mut csv_outputs: Vec<(String, String)> = Vec::new();
    let mut emit_table = |t: &macs_core::TextTable, file: &str| {
        println!("{}", t.render());
        csv_outputs.push((file.to_string(), t.to_csv()));
    };

    if want("table1") {
        emit_table(&tables::table1(&sim), "table1.csv");
    }
    if let Some(suite) = &suite {
        if want("table2") {
            emit_table(&tables::table2(suite), "table2.csv");
        }
        if want("table3") {
            emit_table(&tables::table3(suite), "table3.csv");
        }
        if want("table4") {
            emit_table(&tables::table4(suite), "table4.csv");
        }
        if want("table5") {
            emit_table(&tables::table5(suite), "table5.csv");
        }
        if want("fig1") {
            println!("{}", figures::fig1(suite));
        }
        if want("fig3") {
            eprintln!("measuring the loaded-machine (multi-process) runs...");
            emit_table(&figures::fig3(suite), "fig3.csv");
            println!("{}", figures::fig3_bars(suite));
        }
    }
    if want("fig2") {
        println!("{}", figures::fig2(&sim));
    }
    if want("cosim") {
        let mixes = match args.mix {
            Some(m) => vec![m],
            None => vec![Mix::Lockstep, Mix::Mixed],
        };
        // Default to fully populating the machine's memory ports — the
        // 4-CPU C-240 is what the paper's bands describe; a 2-port
        // preset co-simulates 2.
        let cpus = args.cpus.unwrap_or(args.machine.ports);
        for mix in mixes {
            eprintln!("co-simulating {cpus} CPUs ({mix} mix)...");
            let report = run_cosim(&sim.clone().with_cpus(cpus), mix);
            println!("{}", cosim_table(&report));
            csv_outputs.push((format!("cosim_{mix}.csv"), cosim_csv(&report)));
        }
    }
    // Explicit-only like sweep-grid: the grid is 150 measured runs, so it
    // never rides along with `all`.
    let mut roofline_failed = false;
    if args.artifacts.iter().any(|a| a == "roofline") {
        eprintln!(
            "placing the kernels x ablations x CPUs grid under the {} roof...",
            args.machine.name
        );
        let report = match args.cpus {
            Some(n) => run_roofline_with(&args.machine, &[n]),
            None => run_roofline(&args.machine),
        };
        let Ok(report) = report.inspect_err(|e| eprintln!("roofline: {e}")) else {
            return ExitCode::FAILURE;
        };
        println!("{}", report.table().render());
        for row in report.baseline_disagreements() {
            roofline_failed = true;
            if let Some(finding) = row.roofline.finding() {
                eprintln!("LFK{} x{}: {finding}", row.kernel, row.cpus);
            }
        }
        csv_outputs.push(("roofline.csv".to_string(), report.to_csv()));
        if let Some(dir) = &args.csv_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let path = dir.join("roofline.json");
            if let Err(e) = std::fs::write(&path, report.to_json().pretty()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    if want("lfk1") {
        println!("{}", worked_example(&sim));
    }
    if want("asm") {
        for kernel in lfk_suite::all() {
            println!(
                "; ===== LFK{} — {} =====\n; {}\n{}",
                kernel.id(),
                kernel.name(),
                kernel.fortran().replace('\n', "\n; "),
                kernel.program()
            );
        }
    }

    if let Some(suite) = &suite {
        if let Some(path) = &args.json_path {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("cannot create {}: {e}", parent.display());
                    return ExitCode::FAILURE;
                }
            }
            if let Err(e) = std::fs::write(path, suite_json(suite).pretty()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
        if let Some(dir) = &args.trace_dir {
            if let Err(e) = write_traces(dir, suite) {
                eprintln!("cannot write traces into {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(dir) = &args.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for (file, csv) in &csv_outputs {
            let path = dir.join(file);
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    if roofline_failed {
        eprintln!("roofline: baseline classification disagrees with the stall taxonomy");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
