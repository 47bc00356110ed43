//! Regeneration of the paper's figures.

use std::fmt::Write as _;

use c240_isa::asm::assemble;
use c240_mem::ContentionConfig;
use c240_sim::{Cpu, NoProbe, SimConfig, Trace};
use macs_core::{hierarchy_figure, measure, TextTable};

use crate::Suite;

/// Figure 1: the hierarchy of performance models and measurements,
/// rendered with every kernel's numbers filled in.
pub fn fig1(suite: &Suite) -> String {
    let mut out = String::new();
    for r in &suite.rows {
        out.push_str(&hierarchy_figure(&r.analysis));
        out.push('\n');
    }
    out
}

/// Figure 2: chaining with tailgating in the function unit pipelines —
/// the §3.3 example (ld/add/mul twice) traced on the simulator and
/// rendered as a Gantt chart, plus the headline numbers.
pub fn fig2(sim: &SimConfig) -> String {
    // Two identical chimes; the second tailgates the first (§3.3).
    let program = assemble(
        "mov #128,vl
         ld.l 0(a5),v0
         add.d v0,v1,v2
         mul.d v2,v3,v5
         ld.l 1024(a5),v0
         add.d v0,v1,v2
         mul.d v2,v3,v5
         halt",
    )
    .expect("figure 2 example is valid");

    let mut cpu = Cpu::new(sim.clone().without_refresh());
    let mut trace = Trace::default();
    let stats = cpu
        .run_probed(&program, &mut trace)
        .expect("figure 2 example runs");
    let events = trace.events();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2: Chaining with tailgating (VL = 128, two ld/add/mul chimes)\n"
    );
    out.push_str(&trace.gantt(6, 2.0));
    let first_chime_end = events[2].last_result;
    let second_chime_end = events[5].last_result;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "first chime completes at cycle {:.0} (paper: 162 with chaining, 422 without)",
        first_chime_end
    );
    let _ = writeln!(
        out,
        "second chime adds {:.0} cycles (paper: VL + ΣB = 132 in steady state)",
        second_chime_end - first_chime_end
    );
    let _ = writeln!(out, "total: {:.0} cycles", stats.cycles);
    out
}

/// Figure 3 data: per-kernel CPF for the three bounds, the single-CPU
/// measurement, and the measurement with three busy neighbor CPUs
/// (the paper's "multiple process" bars) — one unprobed
/// [`measure`] run per kernel on the loaded machine.
pub fn fig3(suite: &Suite) -> TextTable {
    let mut t = TextTable::new(
        "Figure 3: Performance of LFK kernels (CPF; single vs loaded machine)",
        &[
            "LFK", "t_MA", "t_MAC", "t_MACS", "single", "multi", "slowdown",
        ],
    );
    let busy_sim = SimConfig {
        contention: ContentionConfig::mixed(3),
        ..suite.sim.clone()
    };
    for r in &suite.rows {
        let kernel = lfk_suite::by_id(r.id).expect("suite kernels exist");
        let (busy, _) = measure(
            &busy_sim,
            |cpu| kernel.setup(cpu),
            &kernel.program(),
            kernel.iterations(),
            r.analysis.bounds.flops,
            &mut vec![NoProbe; busy_sim.cpus as usize],
        )
        .expect("curated kernels simulate cleanly");
        let single = r.analysis.t_p_cpf();
        let multi = busy[0].cpf();
        t.row(vec![
            r.id.to_string(),
            format!("{:.3}", r.analysis.bounds.t_ma_cpf()),
            format!("{:.3}", r.analysis.bounds.t_mac_cpf()),
            format!("{:.3}", r.analysis.bounds.t_macs_cpf()),
            format!("{single:.3}"),
            format!("{multi:.3}"),
            format!("{:.2}x", multi / single),
        ]);
    }
    t
}

/// Renders a text bar chart of Figure 3 from its table (one row per
/// kernel, bars proportional to CPF).
pub fn fig3_bars(suite: &Suite) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3 (bars, CPF; # = bound→measured gap):\n");
    for r in &suite.rows {
        let a = &r.analysis;
        let bound = a.bounds.t_macs_cpf();
        let meas = a.t_p_cpf();
        let scale = 18.0;
        let b = (bound * scale).round() as usize;
        let m = (meas * scale).round() as usize;
        let _ = writeln!(
            out,
            "LFK{:<3} |{}{}| {:.3} → {:.3} CPF",
            r.id,
            "=".repeat(b),
            "#".repeat(m.saturating_sub(b)),
            bound,
            meas
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reproduces_section_3_3_numbers() {
        let text = fig2(&SimConfig::c240());
        assert!(text.contains("ld.l"), "{text}");
        // First chime ≈ 162 cycles (the set-vl issue shifts by 1).
        let line = text
            .lines()
            .find(|l| l.contains("first chime"))
            .unwrap()
            .to_string();
        let cycles: f64 = line.split_whitespace().nth(5).unwrap().parse().unwrap();
        assert!((160.0..=165.0).contains(&cycles), "{line}");
        // Steady chime ≈ 132.
        let line2 = text
            .lines()
            .find(|l| l.contains("second chime"))
            .unwrap()
            .to_string();
        let delta: f64 = line2.split_whitespace().nth(3).unwrap().parse().unwrap();
        assert!((130.0..=134.0).contains(&delta), "{line2}");
    }
}
