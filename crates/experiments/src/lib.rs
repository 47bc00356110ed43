//! Reproduction drivers for every table and figure of the MACS paper.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 (instruction timing)          | [`tables::table1`] |
//! | Table 2 (LFK workload)                | [`tables::table2`] |
//! | Table 3 (performance bounds, CPL)     | [`tables::table3`] |
//! | Table 4 (bounds vs measured, CPF)     | [`tables::table4`] |
//! | Table 5 (MACS bounds & A/X, CPL)      | [`tables::table5`] |
//! | Figure 1 (hierarchy)                  | [`figures::fig1`] |
//! | Figure 2 (chaining timeline)          | [`figures::fig2`] |
//! | Figure 3 (per-kernel bars, 1/4 CPUs)  | [`figures::fig3`] |
//! | §3.5 worked example (LFK1 chimes)     | [`worked_example`] |
//!
//! All of them consume a [`Suite`]: the ten kernels analyzed end-to-end
//! (bounds + full/A/X measurements on the simulator). The `macs-report`
//! binary renders everything as text and CSV.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cosim;
pub mod figures;
pub mod paper;
pub mod roofline;
pub mod sweep;
pub mod tables;
mod worked;

pub use roofline::{run_roofline, run_roofline_with, RooflineReport, RooflineRow};
pub use sweep::{Ablation, GridSpec};
pub use worked::{worked_example, WorkedExample};

use c240_sim::SimConfig;
use lfk_suite::LfkKernel;
use macs_core::{analyze_kernel, KernelAnalysis};

/// One kernel's full analysis.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel number.
    pub id: u32,
    /// The complete hierarchy: bounds, A/X, measured, diagnosis.
    pub analysis: KernelAnalysis,
}

/// The ten kernels analyzed end to end.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Per-kernel rows, in paper order.
    pub rows: Vec<KernelRow>,
    /// The simulator configuration the measurements used; the bounds
    /// used the chime model derived from its machine.
    pub sim: SimConfig,
}

/// Analyzes a single LFK kernel end to end (bounds + three measured
/// runs) on the machine `sim` describes.
///
/// # Panics
///
/// Panics if the simulator rejects the curated kernel (a bug in this
/// crate, not in user input).
pub fn analyze_lfk(kernel: &dyn LfkKernel, sim: &SimConfig) -> KernelAnalysis {
    let program = kernel.program();
    analyze_kernel(
        &format!("LFK{}", kernel.id()),
        kernel.ma(),
        &program,
        kernel.iterations(),
        &|cpu| kernel.setup(cpu),
        sim,
    )
    .expect("curated kernels simulate cleanly")
}

impl Suite {
    /// Runs the full case study on the paper's machine configuration.
    pub fn run() -> Suite {
        Suite::run_with(&SimConfig::c240())
    }

    /// Runs the full case study on a custom machine (ablations).
    ///
    /// The ten kernels are independent model evaluations, so they run
    /// on the [`macs_core::pool`] (all cores by default; pin with
    /// `MACS_THREADS`). Row order is the paper's regardless of the
    /// worker schedule.
    pub fn run_with(sim: &SimConfig) -> Suite {
        let rows = macs_core::parallel_map(lfk_suite::all(), |k| KernelRow {
            id: k.id(),
            analysis: analyze_lfk(k.as_ref(), sim),
        });
        Suite {
            rows,
            sim: sim.clone(),
        }
    }

    /// The row for a kernel id.
    pub fn row(&self, id: u32) -> Option<&KernelRow> {
        self.rows.iter().find(|r| r.id == id)
    }

    /// Average measured CPF (the paper's Table 4 "AVG" row).
    pub fn avg_measured_cpf(&self) -> f64 {
        let s: f64 = self.rows.iter().map(|r| r.analysis.t_p_cpf()).sum();
        s / self.rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_orders_kernels() {
        let suite = Suite::run();
        assert_eq!(suite.rows.len(), 10);
        assert_eq!(
            suite.rows.iter().map(|r| r.id).collect::<Vec<_>>(),
            lfk_suite::IDS.to_vec()
        );
        assert!(suite.row(1).is_some());
        assert!(suite.row(5).is_none());
    }

    #[test]
    fn bounds_hierarchy_is_monotone_everywhere() {
        let suite = Suite::run();
        for r in &suite.rows {
            assert!(
                r.analysis.bounds.is_monotone(),
                "LFK{}: MA {} MAC {} MACS {}",
                r.id,
                r.analysis.bounds.t_ma_cpl(),
                r.analysis.bounds.t_mac_cpl(),
                r.analysis.bounds.t_macs_cpl()
            );
        }
    }

    #[test]
    fn measurements_respect_the_bounds_and_eq18() {
        let suite = Suite::run();
        for r in &suite.rows {
            let a = &r.analysis;
            // Bounds are lower bounds on measured time.
            assert!(
                a.t_p_cpl() >= a.bounds.t_macs_cpl() * 0.995,
                "LFK{}: measured {} below MACS bound {}",
                r.id,
                a.t_p_cpl(),
                a.bounds.t_macs_cpl()
            );
            // Eq. 18: max(t_x, t_a) ≤ t_p ≤ t_x + t_a.
            assert!(
                a.t_p_cpl() + 1e-6 >= a.t_a_cpl().max(a.t_x_cpl()) * 0.98,
                "LFK{}: t_p {} below max(t_a {}, t_x {})",
                r.id,
                a.t_p_cpl(),
                a.t_a_cpl(),
                a.t_x_cpl()
            );
            assert!(
                a.t_p_cpl() <= a.t_a_cpl() + a.t_x_cpl(),
                "LFK{}: t_p {} above t_a+t_x {}",
                r.id,
                a.t_p_cpl(),
                a.t_a_cpl() + a.t_x_cpl()
            );
        }
    }
}
