//! Quickstart: the full MACS methodology on one kernel.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Takes the paper's worked example (LFK 1), computes the MA/MAC/MACS
//! bounds from its source workload and compiled schedule, measures the
//! full code and its A/X variants on the cycle-level C-240 simulator,
//! and prints the hierarchy with the automated gap diagnosis.

use c240_sim::SimConfig;
use lfk_suite::by_id;
use macs_core::{analyze_kernel, hierarchy_figure};

fn main() {
    let kernel = by_id(1).expect("LFK1 is part of the case study");
    println!("Kernel: LFK{} — {}", kernel.id(), kernel.name());
    println!("{}\n", kernel.fortran());

    let program = kernel.program();
    let analysis = analyze_kernel(
        "LFK1",
        kernel.ma(),
        &program,
        kernel.iterations(),
        &|cpu| kernel.setup(cpu),
        &SimConfig::c240(),
    )
    .expect("LFK1 simulates cleanly");

    println!("{}", hierarchy_figure(&analysis));
    println!(
        "CPF: bound {:.3} (paper 0.840), measured {:.3} (paper 0.852)",
        analysis.bounds.t_macs_cpf(),
        analysis.t_p_cpf()
    );
    println!(
        "The MACS bound explains {:.1}% of measured run time (paper: 98.6%).",
        100.0 * analysis.pct_macs()
    );
}
