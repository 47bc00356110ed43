//! The roofline artifact: every kernel × ablation × CPU count placed
//! under its machine's roof, with the analytic classification
//! cross-checked against the measured stall taxonomy (DESIGN.md §16).
//!
//! Every row is one [`macs_core::measure`] run with a probe per CPU (a
//! lockstep co-simulation above one CPU) and one [`Roofline`], built by
//! [`Roofline::new`] from the machine, the CPU count, the kernel's
//! bounds and those probes rolled up — the same constructor served
//! `--roofline` rows use. The row's roofline holds its ceilings, both
//! intensities (MA: where a perfectly compiled kernel could sit;
//! compiled: where the generated code does sit, and what the
//! [`macs_core::BoundClass`] is judged on) and the verdict.
//!
//! The roof itself is always the named machine's baseline roof: each
//! row passes the preset, not its ablated configuration, so ablations
//! move the measured point, not the ceilings, and a non-baseline row's
//! verdict reports how far the ablated machine has drifted from the
//! roof that nominally describes it. The agreement guarantee (asserted
//! in tests and CI) therefore covers the `baseline` rows; ablated rows
//! are informative.

use c240_isa::{MachineDescription, CLOCK_MHZ};
use c240_obs::json::Json;
use c240_sim::{ConfigError, CounterProbe, SimConfig};
use macs_core::sweep::SweepPoint;
use macs_core::{
    measure, ChimeConfig, KernelBounds, MachineCeilings, Roofline, TextTable, ROOFLINE_SCHEMA,
};

use crate::Ablation;

/// One kernel × ablation × CPU count under the roof.
#[derive(Debug, Clone)]
pub struct RooflineRow {
    /// Kernel number.
    pub kernel: u32,
    /// The machine-model ablation the measured run used.
    pub ablation: Ablation,
    /// CPUs the row ran on (lockstep co-simulation above 1).
    pub cpus: u32,
    /// Aggregate measured MFLOPS across all CPUs of the run.
    pub measured_mflops: f64,
    /// The kernel under the baseline machine's roof at `cpus` CPUs,
    /// checked against the run's probes.
    pub roofline: Roofline,
}

/// The artifact: rows for one machine, under per-CPU-count ceilings.
#[derive(Debug, Clone)]
pub struct RooflineReport {
    /// The machine whose roof the rows sit under.
    pub machine: MachineDescription,
    /// Ceilings per CPU count, ascending.
    pub ceilings: Vec<MachineCeilings>,
    /// Kernel-major rows (then ablation, then CPU count).
    pub rows: Vec<RooflineRow>,
}

/// Applies one ablation (and a CPU count) to the machine's base
/// configuration through the same [`SweepPoint::config`] path the sweep
/// server uses, so artifact rows and served rows can never drift, and
/// validates the result as the server does.
fn ablated_config(
    base: &SimConfig,
    ablation: Ablation,
    cpus: u32,
) -> Result<SimConfig, ConfigError> {
    let mut overrides = ablation.overrides();
    if cpus > 1 {
        overrides.cpus = Some(cpus);
    }
    let point = SweepPoint {
        id: String::new(),
        kernel: 0,
        machine: None,
        passes: None,
        deadline_ms: None,
        inject: None,
        overrides,
    };
    let cfg = point
        .config(base)
        .expect("a point without a machine name always resolves");
    cfg.validate()?;
    Ok(cfg)
}

fn eval_row(
    machine: &MachineDescription,
    kernel_id: u32,
    ablation: Ablation,
    cfg: &SimConfig,
) -> RooflineRow {
    let kernel = lfk_suite::by_id(kernel_id).expect("roofline grid uses registry kernels");
    let program = kernel.program();
    let chime = ChimeConfig::for_machine(machine);
    let bounds = KernelBounds::compute(&format!("LFK{kernel_id}"), kernel.ma(), &program, &chime);
    let mut probes = vec![CounterProbe::new(); cfg.cpus as usize];
    let (ms, _) = measure(
        cfg,
        |cpu| kernel.setup(cpu),
        &program,
        kernel.iterations(),
        kernel.flops_total(),
        &mut probes,
    )
    .expect("curated kernels simulate cleanly");
    let flops: u64 = ms.iter().map(|m| m.stats.flops).sum();
    let cycles = ms.iter().map(|m| m.stats.cycles).fold(0.0, f64::max);
    let measured_mflops = if cycles > 0.0 {
        flops as f64 * CLOCK_MHZ / cycles
    } else {
        0.0
    };
    RooflineRow {
        kernel: kernel_id,
        ablation,
        cpus: cfg.cpus,
        measured_mflops,
        roofline: Roofline::new(machine, cfg.cpus, &bounds, &CounterProbe::roll_up(&probes)),
    }
}

/// Runs the roofline grid on `machine` at the given CPU counts.
///
/// # Errors
///
/// The [`SimConfig::validate`] error of the first ablation × CPU count
/// the machine cannot run — a CPU count above its memory ports, say —
/// before any kernel runs.
pub fn run_roofline_with(
    machine: &MachineDescription,
    cpu_counts: &[u32],
) -> Result<RooflineReport, ConfigError> {
    let base = SimConfig::for_machine(machine);
    let mut configs = Vec::new();
    for &a in &Ablation::ALL {
        for &n in cpu_counts {
            configs.push((a, ablated_config(&base, a, n)?));
        }
    }
    let specs: Vec<(u32, Ablation, &SimConfig)> = lfk_suite::IDS
        .iter()
        .flat_map(|&k| configs.iter().map(move |(a, cfg)| (k, *a, cfg)))
        .collect();
    let rows = macs_core::parallel_map(specs, |(k, a, cfg)| eval_row(machine, k, a, cfg));
    Ok(RooflineReport {
        machine: machine.clone(),
        ceilings: cpu_counts
            .iter()
            .map(|&n| MachineCeilings::of(machine, n))
            .collect(),
        rows,
    })
}

/// Runs the standard grid: every registry kernel × every ablation at
/// 1 and 2 CPUs plus the machine's full port count.
///
/// # Errors
///
/// As [`run_roofline_with`].
pub fn run_roofline(machine: &MachineDescription) -> Result<RooflineReport, ConfigError> {
    let mut cpu_counts = vec![1, 2.min(machine.ports), machine.ports];
    cpu_counts.sort_unstable();
    cpu_counts.dedup();
    run_roofline_with(machine, &cpu_counts)
}

impl RooflineReport {
    /// Baseline single-ablation rows whose analytic class the measured
    /// stall taxonomy contradicts — the set tests and CI assert empty
    /// on every preset.
    pub fn baseline_disagreements(&self) -> Vec<&RooflineRow> {
        self.rows
            .iter()
            .filter(|r| r.ablation == Ablation::Baseline && r.roofline.verdict.is_disagreement())
            .collect()
    }

    /// The terminal rendering.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Roofline — {} (peak {:.0} MFLOPS/CPU-set, ridge {:.2} flops/word at 1 CPU)",
                self.machine.name,
                self.ceilings.first().map(|c| c.peak_mflops).unwrap_or(0.0),
                self.ceilings.first().map(|c| c.ridge).unwrap_or(0.0),
            ),
            &[
                "LFK", "ablation", "cpus", "i_MA", "i", "attain", "roof", "meas", "class",
                "measured", "verdict",
            ],
        );
        for r in &self.rows {
            let rf = &r.roofline;
            t.row(vec![
                r.kernel.to_string(),
                r.ablation.tag().to_string(),
                r.cpus.to_string(),
                format!("{:.3}", rf.intensity_ma),
                format!("{:.3}", rf.point.intensity),
                format!("{:.1}", rf.point.attainable_mflops),
                format!("{:.1}", rf.point.ceiling),
                format!("{:.2}", r.measured_mflops),
                rf.point.bound_class.key().to_string(),
                rf.verdict.measured().key().to_string(),
                rf.verdict.key().to_string(),
            ]);
        }
        t
    }

    /// Machine-readable CSV (full precision, one row per grid point).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "machine,kernel,ablation,cpus,intensity_ma,intensity,ridge,peak_mflops,\
             bandwidth_mwords,attainable_mflops,measured_mflops,bound_class,measured_class,verdict\n",
        );
        for r in &self.rows {
            let rf = &r.roofline;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                self.machine.name,
                r.kernel,
                r.ablation.tag(),
                r.cpus,
                rf.intensity_ma,
                rf.point.intensity,
                rf.ceilings.ridge,
                rf.ceilings.peak_mflops,
                rf.ceilings.bandwidth_mwords(),
                rf.point.attainable_mflops,
                r.measured_mflops,
                rf.point.bound_class.key(),
                rf.verdict.measured().key(),
                rf.verdict.key(),
            ));
        }
        out
    }

    /// The artifact as one schema-stamped JSON document.
    pub fn to_json(&self) -> Json {
        let ceilings: Vec<Json> = self
            .ceilings
            .iter()
            .map(|c| {
                Json::obj()
                    .field("cpus", c.cpus)
                    .field("clock_mhz", CLOCK_MHZ)
                    .field("peak_mflops", c.peak_mflops)
                    .field("bandwidth_words_per_cycle", c.bandwidth_words_per_cycle)
                    .field("bandwidth_mwords", c.bandwidth_mwords())
                    .field("ridge", c.ridge)
            })
            .collect();
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|r| {
                let rf = &r.roofline;
                Json::obj()
                    .field("kernel", r.kernel)
                    .field("ablation", r.ablation.tag())
                    .field("cpus", r.cpus)
                    .field("intensity_ma", rf.intensity_ma)
                    .field("intensity", rf.point.intensity)
                    .field("attainable_mflops", rf.point.attainable_mflops)
                    .field("ceiling_mflops", rf.point.ceiling)
                    .field("measured_mflops", r.measured_mflops)
                    .field("bound_class", rf.point.bound_class.key())
                    .field("measured_class", rf.verdict.measured().key())
                    .field("verdict", rf.verdict.key())
            })
            .collect();
        Json::obj()
            .field("schema", ROOFLINE_SCHEMA)
            .field("machine", self.machine.name.as_str())
            .field("ceilings", Json::Arr(ceilings))
            .field("rows", Json::Arr(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_grid_rows_are_probed_and_classified() {
        let machine = MachineDescription::c240();
        let report = run_roofline_with(&machine, &[1]).expect("1 CPU fits the ports");
        assert_eq!(report.rows.len(), 10 * Ablation::ALL.len());
        assert_eq!(report.ceilings.len(), 1);
        for r in &report.rows {
            let rf = &r.roofline;
            assert!(rf.point.intensity > 0.0 && rf.point.intensity.is_finite());
            assert!(rf.point.attainable_mflops <= rf.point.ceiling);
            assert_eq!(rf.ceilings, report.ceilings[0]);
            assert!(r.measured_mflops > 0.0);
            // Every row is probed: its verdict compares the two classes.
            assert_eq!(
                rf.verdict.is_disagreement(),
                rf.verdict.measured() != rf.point.bound_class
            );
        }
        assert!(
            report.baseline_disagreements().is_empty(),
            "baseline classification must match the stall taxonomy"
        );
    }

    #[test]
    fn cpu_counts_above_the_ports_are_refused_before_any_run() {
        let err = run_roofline_with(&MachineDescription::dual_port(), &[1, 8])
            .expect_err("8 CPUs cannot share 2 memory ports");
        let message = err.to_string();
        assert!(message.contains("dual-port"), "{message}");
        assert!(
            message.contains("CPU count 8 exceeds the machine's 2 memory ports"),
            "{message}"
        );
    }

    #[test]
    fn csv_and_json_are_schema_stable() {
        let machine = MachineDescription::c240();
        let mut report = run_roofline_with(&machine, &[1]).expect("1 CPU fits the ports");
        report.rows.truncate(1);
        let csv = report.to_csv();
        assert!(csv.starts_with("machine,kernel,ablation,cpus,"));
        assert_eq!(csv.lines().count(), 2);
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(ROOFLINE_SCHEMA)
        );
        let rendered = json.to_string();
        let parsed = Json::parse(&rendered).expect("round-trips");
        assert_eq!(parsed, json);
    }
}
