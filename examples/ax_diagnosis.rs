//! A/X diagnosis (§3.6, §4.4): run the access-only and execute-only
//! variants of two problem kernels and read the bottleneck off the
//! hierarchy.
//!
//! ```text
//! cargo run --release --example ax_diagnosis
//! ```
//!
//! * LFK 8: scalar loads split chimes — `t_MACS` explains nearly all of
//!   `t_p`, but A and X overlap poorly.
//! * LFK 6: reduction + triangular vector lengths — most of `t_p` is
//!   unmodeled short-vector overhead.

use c240_sim::SimConfig;
use lfk_suite::by_id;
use macs_core::analyze_kernel;

fn main() {
    for id in [8u32, 6] {
        let kernel = by_id(id).expect("case-study kernel");
        let analysis = analyze_kernel(
            &format!("LFK{id}"),
            kernel.ma(),
            &kernel.program(),
            kernel.iterations(),
            &|cpu| kernel.setup(cpu),
            &SimConfig::c240(),
        )
        .expect("kernel simulates cleanly");

        println!("=== LFK{id} — {} ===", kernel.name());
        println!(
            "  t_x = {:7.2} CPL (execute-only)   vs t^f_MACS = {:7.2}",
            analysis.t_x_cpl(),
            analysis.bounds.macs.f_cpl()
        );
        println!(
            "  t_a = {:7.2} CPL (access-only)    vs t^m_MACS = {:7.2}",
            analysis.t_a_cpl(),
            analysis.bounds.macs.m_cpl()
        );
        println!(
            "  t_p = {:7.2} CPL  — Eq. 18 band [{:.2}, {:.2}], overlap quality {:.2}",
            analysis.t_p_cpl(),
            analysis.t_a_cpl().max(analysis.t_x_cpl()),
            analysis.t_a_cpl() + analysis.t_x_cpl(),
            analysis.ax_overlap()
        );
        println!("  diagnosis:");
        for finding in analysis.findings() {
            println!("    - {finding}");
        }
        println!();
    }
}
