//! Multi-CPU co-simulation experiments: the paper's §4.2 contention
//! bands reproduced with *emergent* contention.
//!
//! The paper reports two rules of thumb for a four-CPU C-240: four
//! processes of the **same executable** fall into lockstep and cost each
//! other only 5–10%, while four **unrelated programs** collide
//! irregularly and stretch memory accesses by 40–60%. The legacy model
//! injected those numbers through synthetic
//! [`ContentionStream`](c240_mem::ContentionStream)s; this module
//! instead co-simulates N real CPUs against one shared set of banks
//! (see [`Machine`]) and *measures* the slowdown each CPU suffers
//! relative to running its workload alone on an idle machine.
//!
//! [`cosim_table`] renders the comparison; `macs-report --cpus 4 --mix
//! lockstep|mixed` prints it, and the CI band check asserts the
//! measured slowdowns stay inside the paper's windows.

use c240_mem::{ContentionConfig, WaitBreakdown};
use c240_sim::{Machine, NoProbe, SimConfig};
use lfk_suite::LfkKernel;
use macs_core::measure;

/// How the co-simulated CPUs' workloads relate to each other (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every CPU runs the same kernel — the paper's same-executable
    /// case: streams phase-lock at bank-offset slots and the cost is
    /// mild (5–10%).
    Lockstep,
    /// Each CPU runs a different kernel — the paper's unrelated-programs
    /// case: incommensurate reference patterns collide irregularly
    /// (40–60%).
    Mixed,
}

impl Mix {
    /// Stable lowercase name (CLI flag value, JSON key).
    pub fn key(self) -> &'static str {
        match self {
            Mix::Lockstep => "lockstep",
            Mix::Mixed => "mixed",
        }
    }

    /// Parses a `--mix` value.
    pub fn parse(s: &str) -> Option<Mix> {
        match s {
            "lockstep" => Some(Mix::Lockstep),
            "mixed" => Some(Mix::Mixed),
            _ => None,
        }
    }

    /// The paper's slowdown band for this mix on a four-CPU machine,
    /// as (low, high) multipliers of single-CPU time.
    pub fn band(self) -> (f64, f64) {
        match self {
            Mix::Lockstep => (1.05, 1.10),
            Mix::Mixed => (1.40, 1.60),
        }
    }

    /// The kernels the `cpus` CPUs run. Lockstep: LFK1 (hydro fragment,
    /// the unit-stride stream the paper's lockstep argument is about) on
    /// every CPU. Mixed: the suite's first four kernels — hydro, ICCG,
    /// inner product, banded linear equations — whose strides and duty
    /// cycles are mutually incommensurate.
    pub fn kernel_ids(self, cpus: u32) -> Vec<u32> {
        match self {
            Mix::Lockstep => vec![1; cpus as usize],
            Mix::Mixed => {
                let pool = [1u32, 2, 3, 4];
                (0..cpus as usize).map(|i| pool[i % pool.len()]).collect()
            }
        }
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// One CPU's outcome in a co-simulated run.
#[derive(Debug, Clone)]
pub struct CoSimCpuRow {
    /// CPU index (also its arbitration tie-break priority).
    pub cpu: u32,
    /// LFK kernel this CPU ran.
    pub kernel: u32,
    /// Cycles with the neighbors competing for banks.
    pub cycles: f64,
    /// Cycles for the identical workload alone on an idle machine.
    pub solo_cycles: f64,
    /// `cycles / solo_cycles`.
    pub slowdown: f64,
    /// This CPU's memory wait split (bank busy / refresh / contention).
    pub waits: WaitBreakdown,
    /// Memory accesses this CPU's port served.
    pub accesses: u64,
}

/// A full co-simulation experiment: per-CPU rows plus machine totals.
#[derive(Debug, Clone)]
pub struct CoSimReport {
    /// Number of co-simulated CPUs.
    pub cpus: u32,
    /// Workload relation across CPUs.
    pub mix: Mix,
    /// Per-CPU outcomes, in CPU order.
    pub rows: Vec<CoSimCpuRow>,
    /// Machine-wide wait breakdown (the per-CPU rows sum to this).
    pub shared_waits: WaitBreakdown,
    /// Machine-wide access count.
    pub shared_accesses: u64,
}

impl CoSimReport {
    /// Mean slowdown across CPUs — the number compared against the
    /// paper's band.
    pub fn mean_slowdown(&self) -> f64 {
        let s: f64 = self.rows.iter().map(|r| r.slowdown).sum();
        s / self.rows.len() as f64
    }

    /// Whether the mean slowdown falls inside the paper's §4.2 band for
    /// this mix (only meaningful for the four-CPU configuration the
    /// paper describes).
    pub fn in_band(&self) -> bool {
        let (lo, hi) = self.mix.band();
        let s = self.mean_slowdown();
        (lo..=hi).contains(&s)
    }
}

/// Builds the co-sim machine configuration from a baseline: same
/// machine, `cpus` ports, synthetic contention stripped (the co-sim
/// neighbors *are* the contention).
fn cosim_config(sim: &SimConfig, cpus: u32) -> SimConfig {
    SimConfig {
        contention: ContentionConfig::idle(),
        ..sim.clone()
    }
    .with_cpus(cpus)
}

/// Runs one kernel alone on an otherwise idle single-CPU machine and
/// returns its cycles — the denominator of every slowdown.
fn solo_run(kernel: &dyn LfkKernel, sim: &SimConfig) -> f64 {
    let (solo, _) = measure(
        &cosim_config(sim, 1),
        |cpu| kernel.setup(cpu),
        &kernel.program(),
        kernel.iterations(),
        kernel.flops_total(),
        &mut [NoProbe],
    )
    .expect("curated kernels simulate cleanly");
    solo[0].stats.cycles
}

/// Co-simulates `sim.cpus` CPUs (at least 2 for a meaningful
/// experiment, but 1 works and reproduces the solo run) under the given
/// workload mix, against solo baselines of the same kernels.
///
/// Every run in here is deterministic and single-threaded; the solo
/// baselines are independent and are evaluated on the
/// [`macs_core::pool`] (`MACS_THREADS` changes wall-clock only, never
/// results).
///
/// # Panics
///
/// Panics if the simulator rejects a curated kernel (a bug in this
/// crate, not in user input).
pub fn run_cosim(sim: &SimConfig, mix: Mix) -> CoSimReport {
    let cpus = sim.cpus.max(1);
    let ids = mix.kernel_ids(cpus);
    let kernels: Vec<Box<dyn LfkKernel>> = ids
        .iter()
        .map(|&id| lfk_suite::by_id(id).expect("mix uses curated kernel ids"))
        .collect();

    // Solo baselines (dedup by kernel id — lockstep needs only one).
    let mut unique_ids: Vec<u32> = ids.clone();
    unique_ids.sort_unstable();
    unique_ids.dedup();
    let solo: Vec<(u32, f64)> = macs_core::parallel_map(unique_ids, |id| {
        let k = lfk_suite::by_id(id).expect("curated id");
        (id, solo_run(k.as_ref(), sim))
    });
    let solo_cycles = |id: u32| solo.iter().find(|(i, _)| *i == id).expect("solo run").1;

    // The co-simulation itself.
    let mut machine = Machine::new(cosim_config(sim, cpus));
    let programs: Vec<_> = kernels
        .iter()
        .enumerate()
        .map(|(i, k)| {
            k.setup(machine.cpu_mut(i));
            k.program()
        })
        .collect();
    let stats = machine
        .run(&programs)
        .expect("curated kernels simulate cleanly");

    let rows = stats
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let base = solo_cycles(ids[i]);
            CoSimCpuRow {
                cpu: i as u32,
                kernel: ids[i],
                cycles: s.cycles,
                solo_cycles: base,
                slowdown: s.cycles / base,
                waits: s.memory_waits,
                accesses: s.memory_accesses,
            }
        })
        .collect();

    CoSimReport {
        cpus,
        mix,
        rows,
        shared_waits: machine.wait_ticks().cycles(),
        shared_accesses: machine.access_count(),
    }
}

/// Renders the co-sim report as an aligned text table.
pub fn cosim_table(report: &CoSimReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let (lo, hi) = report.mix.band();
    let _ = writeln!(
        out,
        "Co-simulated contention — {} CPUs, {} mix (paper band {:.2}x–{:.2}x)",
        report.cpus, report.mix, lo, hi
    );
    let _ = writeln!(
        out,
        "{:>4} {:>7} {:>12} {:>12} {:>9} {:>11} {:>11} {:>11}",
        "cpu", "kernel", "cycles", "solo", "slowdown", "bank_busy", "refresh", "contention"
    );
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>12.1} {:>12.1} {:>8.3}x {:>11.1} {:>11.1} {:>11.1}",
            r.cpu,
            format!("LFK{}", r.kernel),
            r.cycles,
            r.solo_cycles,
            r.slowdown,
            r.waits.bank_busy,
            r.waits.refresh,
            r.waits.contention
        );
    }
    let _ = writeln!(
        out,
        "mean slowdown {:.3}x — {}",
        report.mean_slowdown(),
        if report.cpus == 4 {
            if report.in_band() {
                "inside the paper's band"
            } else {
                "OUTSIDE the paper's band"
            }
        } else {
            "(band defined for 4 CPUs)"
        }
    );
    let _ = writeln!(
        out,
        "shared totals: {} accesses, waits bank_busy {:.1} refresh {:.1} contention {:.1}",
        report.shared_accesses,
        report.shared_waits.bank_busy,
        report.shared_waits.refresh,
        report.shared_waits.contention
    );
    out
}

/// Renders the co-sim report as CSV (one row per CPU, totals last).
pub fn cosim_csv(report: &CoSimReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "cpu,kernel,cycles,solo_cycles,slowdown,bank_busy,refresh,contention,accesses\n",
    );
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{},LFK{},{},{},{:.6},{},{},{},{}",
            r.cpu,
            r.kernel,
            r.cycles,
            r.solo_cycles,
            r.slowdown,
            r.waits.bank_busy,
            r.waits.refresh,
            r.waits.contention,
            r.accesses
        );
    }
    let w = &report.shared_waits;
    let _ = writeln!(
        out,
        "machine,{},,,{:.6},{},{},{},{}",
        report.mix,
        report.mean_slowdown(),
        w.bank_busy,
        w.refresh,
        w.contention,
        report.shared_accesses
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_calibration() {
        let report = run_cosim(&SimConfig::c240().with_cpus(4), Mix::Lockstep);
        eprintln!("{}", cosim_table(&report));
        assert!(report.in_band(), "mean {:.4}", report.mean_slowdown());
    }

    #[test]
    fn mixed_calibration() {
        let report = run_cosim(&SimConfig::c240().with_cpus(4), Mix::Mixed);
        eprintln!("{}", cosim_table(&report));
        assert!(report.in_band(), "mean {:.4}", report.mean_slowdown());
    }
}
