//! The §3.5 worked example: LFK1 chime by chime.

use std::fmt;

use c240_isa::asm::assemble;
use c240_isa::Instruction;
use c240_sim::{Cpu, SimConfig};
use macs_core::{partition_chimes, ChimeConfig};

/// The §3.5 analysis of LFK1: the chime partition with per-chime bound
/// costs and per-chime calibration-loop measurements.
#[derive(Debug, Clone)]
pub struct WorkedExample {
    /// Per chime: instruction texts, bound cost, calibration-loop
    /// measured cost (cycles per iteration at VL = 128).
    pub chimes: Vec<(Vec<String>, f64, f64)>,
    /// Sum of chime bound costs (the paper's 527).
    pub bound_sum: f64,
    /// Bound including refresh (the paper's 537.54).
    pub bound_with_refresh: f64,
    /// `t_MACS` in CPL (the paper's 4.200).
    pub t_macs_cpl: f64,
    /// `t_MACS` in CPF (the paper's 0.840).
    pub t_macs_cpf: f64,
    /// Full-loop measured cycles per iteration (the paper's 545.28).
    pub measured_per_iteration: f64,
    /// Measured CPF (the paper's 0.852).
    pub measured_cpf: f64,
}

impl fmt::Display for WorkedExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "LFK1 worked example (§3.5):")?;
        for (i, (instrs, bound, measured)) in self.chimes.iter().enumerate() {
            writeln!(
                f,
                "  chime {}: bound {:>6.1} cycles, calibration loop {:>7.2} — {}",
                i + 1,
                bound,
                measured,
                instrs.join(" ; ")
            )?;
        }
        writeln!(
            f,
            "  sum of chime bounds:   {:>8.2} (paper: 527)",
            self.bound_sum
        )?;
        writeln!(
            f,
            "  with refresh (x1.02):  {:>8.2} (paper: 537.54)",
            self.bound_with_refresh
        )?;
        writeln!(
            f,
            "  t_MACS = {:.3} CPL = {:.3} CPF (paper: 4.200 / 0.840)",
            self.t_macs_cpl, self.t_macs_cpf
        )?;
        writeln!(
            f,
            "  measured full loop:    {:>8.2} cycles/iteration (paper: 545.28)",
            self.measured_per_iteration
        )?;
        write!(f, "  measured CPF: {:.3} (paper: 0.852)", self.measured_cpf)
    }
}

const LFK1_BODY: &str = "L7:
    mov s0,vl
    ld.l 40120(a5),v0
    mul.d v0,s1,v1
    ld.l 40128(a5),v2
    mul.d v2,s3,v0
    add.d v1,v0,v3
    ld.l 32032(a5),v1
    mul.d v1,v3,v2
    add.d v2,s7,v0
    st.l v0,24024(a5)
    add.w #1024,a5
    sub.w #128,s0
    lt.w #0,s0
    jbrs.t L7
    halt";

/// Runs the §3.5 worked example end to end on the machine `sim`
/// describes (its chime model included).
pub fn worked_example(sim: &SimConfig) -> WorkedExample {
    let chime = ChimeConfig::for_machine(&sim.machine);
    let program = assemble(LFK1_BODY).expect("LFK1 listing assembles");
    let l = program.innermost_loop().expect("LFK1 has a loop");
    let body = program.loop_body(l);
    let partition = partition_chimes(body, &chime);

    let mut chimes = Vec::new();
    for c in partition.chimes() {
        let instrs: Vec<Instruction> = c.members.iter().map(|&i| body[i].clone()).collect();
        let texts: Vec<String> = instrs.iter().map(|i| i.to_string()).collect();
        let measured = calibrate_chime(&instrs, sim);
        chimes.push((texts, c.cost(chime.vl), measured));
    }

    // Full-loop measurement (steady state by differencing two lengths).
    let measured_per_iteration = {
        let run = |iters: u32| {
            let mut cpu = Cpu::new(sim.clone());
            cpu.set_sreg_int(0, i64::from(iters) * 128);
            cpu.set_sreg_fp(1, 2.0);
            cpu.set_sreg_fp(3, 3.0);
            cpu.set_sreg_fp(7, 4.0);
            cpu.run(&program).expect("LFK1 runs").cycles
        };
        (run(60) - run(20)) / 40.0
    };

    WorkedExample {
        chimes,
        bound_sum: partition.raw_cycles(),
        bound_with_refresh: partition.cycles(),
        t_macs_cpl: partition.cpl(),
        t_macs_cpf: partition.cpf(5),
        measured_per_iteration,
        measured_cpf: measured_per_iteration / 128.0 / 5.0,
    }
}

/// Builds and times a calibration loop duplicating one chime, as the
/// paper did to validate each chime's cost (131.93, 133.33, …).
fn calibrate_chime(instrs: &[Instruction], sim: &SimConfig) -> f64 {
    let chime: String = instrs.iter().map(|ins| format!("{ins}\n")).collect();
    let build = |iters: i64| {
        assemble(&format!(
            "mov #128,vl\nmov #{iters},s0\nL:\n{chime}sub.w #1,s0\nlt.w #0,s0\njbrs.t L\nhalt"
        ))
        .expect("chime calibration loop is valid")
    };
    let quiet = sim.clone().without_refresh();
    let run = |iters: i64| {
        let mut cpu = Cpu::new(quiet.clone());
        cpu.set_sreg_fp(1, 2.0);
        cpu.set_sreg_fp(3, 3.0);
        cpu.set_sreg_fp(7, 4.0);
        cpu.run(&build(iters))
            .expect("calibration loop runs")
            .cycles
    };
    (run(60) - run(20)) / 40.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example_matches_paper() {
        let w = worked_example(&SimConfig::c240());
        assert_eq!(w.chimes.len(), 4);
        // Paper chime bounds: 131, 132, 132, 132.
        let bounds: Vec<f64> = w.chimes.iter().map(|c| c.1).collect();
        assert_eq!(bounds, vec![131.0, 132.0, 132.0, 132.0]);
        // Calibration loops land within a few cycles of the bounds
        // (paper: 131.93, 133.33, 133.33, 132.35).
        for (texts, bound, measured) in &w.chimes {
            assert!(
                (measured - bound).abs() < 4.0,
                "chime {texts:?}: bound {bound} vs measured {measured}"
            );
        }
        assert_eq!(w.bound_sum, 527.0);
        assert!((w.bound_with_refresh - 537.54).abs() < 0.01);
        assert!((w.t_macs_cpl - 4.200).abs() < 0.001);
        assert!((w.t_macs_cpf - 0.840).abs() < 0.001);
        // Steady-state full loop: at or just above the bound.
        assert!(
            w.measured_per_iteration >= w.bound_with_refresh - 0.5
                && w.measured_per_iteration < 546.0,
            "measured {} per iteration",
            w.measured_per_iteration
        );
        let text = w.to_string();
        assert!(text.contains("chime 1"));
        assert!(text.contains("537.54"));
    }
}
