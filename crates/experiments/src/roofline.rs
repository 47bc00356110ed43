//! The roofline artifact: every kernel × ablation × CPU count placed
//! under its machine's roof, with the analytic classification
//! cross-checked against the measured stall taxonomy (DESIGN.md §16).
//!
//! Each row carries both intensities of `macs_core`'s roofline model
//! ([`macs_core::operational_intensity`] and
//! [`macs_core::compiled_intensity`]) — the MA intensity (where a
//! perfectly compiled kernel could sit) and the compiled intensity
//! (where the generated code does sit, and what the
//! [`macs_core::BoundClass`] is judged on) — plus a probed
//! [`RooflineVerdict`]: single-CPU rows use the probed measurement
//! path, multi-CPU rows a probed lockstep co-simulation, so *every*
//! row's classification is checked against a measured
//! [`c240_sim::StallRollup`].
//!
//! The roof itself is always the named machine's baseline roof:
//! ablations move the measured point, not the ceilings, so a
//! non-baseline row's verdict reports how far the ablated machine has
//! drifted from the roof that nominally describes it. The agreement
//! guarantee (asserted in tests and CI) therefore covers the
//! `baseline` rows; ablated rows are informative.

use c240_isa::MachineDescription;
use c240_obs::json::Json;
use c240_sim::{CoSimProbes, Cpu, Machine, SimConfig, StallRollup};
use macs_core::sweep::SweepPoint;
use macs_core::{
    compiled_intensity, measure_probed, measured_class, operational_intensity, BoundClass,
    ChimeConfig, KernelBounds, MachineCeilings, RooflinePoint, RooflineVerdict, TextTable,
    ROOFLINE_SCHEMA,
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
    /// MA intensity: source flops per perfectly-compiled memory word.
    pub intensity_ma: f64,
    /// The kernel placed at its *compiled* intensity (source flops per
    /// word the generated code moves) — the classifying placement.
    pub point: RooflinePoint,
    /// Aggregate measured MFLOPS across all CPUs of the run.
    pub measured_mflops: f64,
    /// What the probed stall taxonomy said the kernel was bound by.
    pub measured: BoundClass,
    /// Analytic-vs-measured cross-check outcome.
    pub verdict: RooflineVerdict,
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
/// server uses, so artifact rows and served rows can never drift.
fn ablated_config(base: &SimConfig, ablation: Ablation, cpus: u32) -> SimConfig {
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
    point
        .config(base)
        .expect("a point without a machine name always resolves")
}

fn eval_row(
    machine: &MachineDescription,
    ceilings: &MachineCeilings,
    kernel_id: u32,
    ablation: Ablation,
    cpus: u32,
) -> RooflineRow {
    let kernel = lfk_suite::by_id(kernel_id).expect("roofline grid uses registry kernels");
    let program = kernel.program();
    let chime = ChimeConfig::for_machine(machine);
    let bounds = KernelBounds::compute(&format!("LFK{kernel_id}"), kernel.ma(), &program, &chime);
    let cfg = ablated_config(&SimConfig::for_machine(machine), ablation, cpus);
    let (rollup, flops, cycles) = if cpus <= 1 {
        let mut cpu = Cpu::new(cfg);
        kernel.setup(&mut cpu);
        let (m, probe) = measure_probed(
            &mut cpu,
            &program,
            kernel.iterations(),
            kernel.flops_total(),
        )
        .expect("curated kernels simulate cleanly");
        (StallRollup::of_probe(&probe), m.stats.flops, m.stats.cycles)
    } else {
        let mut sim = Machine::new(cfg);
        let programs: Vec<_> = (0..cpus as usize)
            .map(|i| {
                kernel.setup(sim.cpu_mut(i));
                program.clone()
            })
            .collect();
        let mut probes = CoSimProbes::new(cpus as usize);
        let stats = sim
            .run_probed(&programs, probes.as_mut_slice())
            .expect("curated kernels co-simulate cleanly");
        let flops: u64 = stats.iter().map(|s| s.flops).sum();
        let cycles = stats.iter().map(|s| s.cycles).fold(0.0, f64::max);
        (StallRollup::of_probe(&probes.combined()), flops, cycles)
    };
    let point = ceilings.place(compiled_intensity(&bounds));
    let measured_mflops = if cycles > 0.0 {
        flops as f64 * ceilings.clock_mhz / cycles
    } else {
        0.0
    };
    RooflineRow {
        kernel: kernel_id,
        ablation,
        cpus,
        intensity_ma: operational_intensity(&bounds.ma),
        point,
        measured_mflops,
        measured: measured_class(&rollup),
        verdict: RooflineVerdict::check(point.bound_class, &rollup),
    }
}

/// Runs the roofline grid on `machine` at the given CPU counts.
pub fn run_roofline_with(machine: &MachineDescription, cpu_counts: &[u32]) -> RooflineReport {
    let ceilings: Vec<MachineCeilings> = cpu_counts
        .iter()
        .map(|&n| MachineCeilings::of(machine, n))
        .collect();
    let specs: Vec<(u32, Ablation, u32)> = lfk_suite::IDS
        .iter()
        .flat_map(|&k| {
            Ablation::ALL
                .iter()
                .flat_map(move |&a| cpu_counts.iter().map(move |&n| (k, a, n)))
        })
        .collect();
    let rows = macs_core::parallel_map(specs, |(k, a, n)| {
        let ceilings = ceilings
            .iter()
            .find(|c| c.cpus == n)
            .expect("specs only name listed CPU counts");
        eval_row(machine, ceilings, k, a, n)
    });
    RooflineReport {
        machine: machine.clone(),
        ceilings,
        rows,
    }
}

/// Runs the standard grid: every registry kernel × every ablation at
/// 1 and 2 CPUs plus the machine's full port count.
pub fn run_roofline(machine: &MachineDescription) -> RooflineReport {
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
            .filter(|r| r.ablation == Ablation::Baseline && r.verdict.is_disagreement())
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
            t.row(vec![
                r.kernel.to_string(),
                r.ablation.tag().to_string(),
                r.cpus.to_string(),
                format!("{:.3}", r.intensity_ma),
                format!("{:.3}", r.point.intensity),
                format!("{:.1}", r.point.attainable_mflops),
                format!("{:.1}", r.point.ceiling),
                format!("{:.2}", r.measured_mflops),
                r.point.bound_class.key().to_string(),
                r.measured.key().to_string(),
                r.verdict.key().to_string(),
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
            let c = self
                .ceilings
                .iter()
                .find(|c| c.cpus == r.cpus)
                .expect("every row's CPU count has ceilings");
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                self.machine.name,
                r.kernel,
                r.ablation.tag(),
                r.cpus,
                r.intensity_ma,
                r.point.intensity,
                c.ridge,
                c.peak_mflops,
                c.bandwidth_mwords(),
                r.point.attainable_mflops,
                r.measured_mflops,
                r.point.bound_class.key(),
                r.measured.key(),
                r.verdict.key(),
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
                    .field("clock_mhz", c.clock_mhz)
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
                Json::obj()
                    .field("kernel", r.kernel)
                    .field("ablation", r.ablation.tag())
                    .field("cpus", r.cpus)
                    .field("intensity_ma", r.intensity_ma)
                    .field("intensity", r.point.intensity)
                    .field("attainable_mflops", r.point.attainable_mflops)
                    .field("ceiling_mflops", r.point.ceiling)
                    .field("measured_mflops", r.measured_mflops)
                    .field("bound_class", r.point.bound_class.key())
                    .field("measured_class", r.measured.key())
                    .field("verdict", r.verdict.key())
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
        let report = run_roofline_with(&machine, &[1]);
        assert_eq!(report.rows.len(), 10 * Ablation::ALL.len());
        assert_eq!(report.ceilings.len(), 1);
        for r in &report.rows {
            assert!(r.point.intensity > 0.0 && r.point.intensity.is_finite());
            assert!(r.point.attainable_mflops <= r.point.ceiling);
            assert!(r.measured_mflops > 0.0);
            // Every row is probed, so no verdict is ever Unchecked.
            assert_ne!(r.verdict, RooflineVerdict::Unchecked);
        }
        assert!(
            report.baseline_disagreements().is_empty(),
            "baseline classification must match the stall taxonomy"
        );
    }

    #[test]
    fn csv_and_json_are_schema_stable() {
        let machine = MachineDescription::c240();
        let mut report = run_roofline_with(&machine, &[1]);
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
