//! Full hierarchical analysis of one kernel: bounds, A/X measurements,
//! and actual performance (Figure 1 of the paper).

use std::fmt;

use c240_isa::Program;
use c240_sim::{CounterProbe, Cpu, NoProbe, SimConfig, SimError};
use macs_compiler::MaWorkload;

use crate::ax::{a_process, prime_registers, x_process};
use crate::bounds::KernelBounds;
use crate::chime::ChimeConfig;
use crate::diagnose::{diagnose, Finding};
use crate::measure::{measure, Measurement};

/// Everything the MACS methodology produces for one kernel: the three
/// calculated bounds, the A/X measurements, and the measured run time.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAnalysis {
    /// The analytic bounds hierarchy (MA, MAC, MACS).
    pub bounds: KernelBounds,
    /// Measured full-code performance (`t_p`).
    pub measured: Measurement,
    /// Measured access-only performance (`t_a`).
    pub a_process: Measurement,
    /// Measured execute-only performance (`t_x`).
    pub x_process: Measurement,
    /// Whether the compiled loop contains vector reduction instructions
    /// (drives the reduction-bottleneck diagnosis of §4.4).
    pub has_reduction: bool,
    /// Cycle attribution of the full-code run: per-lane busy/stall/idle
    /// accounts and per-pc stall counters (the measured counterpart of
    /// the analytic gap commentary).
    pub telemetry: CounterProbe,
}

impl KernelAnalysis {
    /// `t_p` in CPL.
    pub fn t_p_cpl(&self) -> f64 {
        self.measured.cpl()
    }

    /// `t_a` in CPL.
    pub fn t_a_cpl(&self) -> f64 {
        self.a_process.cpl()
    }

    /// `t_x` in CPL.
    pub fn t_x_cpl(&self) -> f64 {
        self.x_process.cpl()
    }

    /// `t_p` in CPF.
    pub fn t_p_cpf(&self) -> f64 {
        self.measured.cpf()
    }

    /// Fraction of measured run time explained by the MA bound
    /// (`t_MA / t_p`, the paper's "% of MA Bnd").
    pub fn pct_ma(&self) -> f64 {
        self.bounds.t_ma_cpl() / self.t_p_cpl()
    }

    /// `t_MAC / t_p`.
    pub fn pct_mac(&self) -> f64 {
        self.bounds.t_mac_cpl() / self.t_p_cpl()
    }

    /// `t_MACS / t_p`.
    pub fn pct_macs(&self) -> f64 {
        self.bounds.t_macs_cpl() / self.t_p_cpl()
    }

    /// Where `t_p` sits between perfect A/X overlap (`max(t_a, t_x)`)
    /// and none (`t_a + t_x`): 1 is perfect overlap, 0 is fully serial.
    /// Values outside `[0, 1]` indicate measurement effects beyond the
    /// Eq. 18 band.
    pub fn ax_overlap(&self) -> f64 {
        let lo = self.t_a_cpl().max(self.t_x_cpl());
        let hi = self.t_a_cpl() + self.t_x_cpl();
        if hi <= lo {
            return 1.0;
        }
        (hi - self.t_p_cpl()) / (hi - lo)
    }

    /// The §4.4 gap diagnosis.
    pub fn findings(&self) -> Vec<Finding> {
        diagnose(self)
    }
}

impl fmt::Display for KernelAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.bounds.name)?;
        writeln!(
            f,
            "  bounds    (CPL): t_MA {:>7.3}   t_MAC {:>7.3}   t_MACS {:>7.3}",
            self.bounds.t_ma_cpl(),
            self.bounds.t_mac_cpl(),
            self.bounds.t_macs_cpl()
        )?;
        writeln!(
            f,
            "  components(CPL): t_f  {:>7.3}   t'_f  {:>7.3}   t^f    {:>7.3}",
            self.bounds.ma.t_f(),
            self.bounds.mac.t_f(),
            self.bounds.macs.f_cpl()
        )?;
        writeln!(
            f,
            "                   t_m  {:>7.3}   t'_m  {:>7.3}   t^m    {:>7.3}",
            self.bounds.ma.t_m(),
            self.bounds.mac.t_m(),
            self.bounds.macs.m_cpl()
        )?;
        writeln!(
            f,
            "  measured  (CPL): t_x  {:>7.3}   t_a   {:>7.3}   t_p    {:>7.3}",
            self.t_x_cpl(),
            self.t_a_cpl(),
            self.t_p_cpl()
        )?;
        writeln!(
            f,
            "  explained      : MA {:>5.1}%   MAC {:>5.1}%   MACS {:>5.1}%   A/X overlap {:.2}",
            100.0 * self.pct_ma(),
            100.0 * self.pct_mac(),
            100.0 * self.pct_macs(),
            self.ax_overlap()
        )?;
        for finding in self.findings() {
            writeln!(f, "  - {finding}")?;
        }
        Ok(())
    }
}

/// Runs the complete MACS methodology for one compiled kernel on the
/// machine `sim_config` describes: the bounds use the chime model
/// derived from that same machine ([`ChimeConfig::for_machine`]).
///
/// `setup` initializes each fresh CPU (memory contents, registers);
/// it runs before the full, A-process, and X-process measurements. Each
/// is one [`measure`] run; when `sim_config` co-simulates several CPUs,
/// CPU 0 reports.
///
/// # Errors
///
/// Propagates simulator errors from any of the three runs.
pub fn analyze_kernel(
    name: &str,
    ma: MaWorkload,
    program: &Program,
    iterations: u64,
    setup: &dyn Fn(&mut Cpu),
    sim_config: &SimConfig,
) -> Result<KernelAnalysis, SimError> {
    let chime = ChimeConfig::for_machine(&sim_config.machine);
    let bounds = KernelBounds::compute(name, ma, program, &chime);
    let flops = bounds.flops;

    let cpus = sim_config.cpus.max(1) as usize;
    let mut probes = vec![CounterProbe::new(); cpus];
    let (mut measured, _) = measure(sim_config, setup, program, iterations, flops, &mut probes)?;
    let unprobed = |setup: &dyn Fn(&mut Cpu), program: &Program| {
        let mut quiet = vec![NoProbe; cpus];
        measure(sim_config, setup, program, iterations, flops, &mut quiet)
            .map(|(mut ms, _)| ms.swap_remove(0))
    };
    let a = unprobed(setup, &a_process(program))?;
    let primed = |cpu: &mut Cpu| {
        setup(cpu);
        prime_registers(cpu);
    };
    let x = unprobed(&primed, &x_process(program))?;

    let has_reduction = program
        .instructions()
        .iter()
        .any(|i| matches!(i.timing_class(), Some(c240_isa::TimingClass::Reduction)));

    Ok(KernelAnalysis {
        bounds,
        measured: measured.swap_remove(0),
        a_process: a,
        x_process: x,
        has_reduction,
        telemetry: probes.swap_remove(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_isa::asm::assemble;

    fn lfk1_program(n: u64) -> Program {
        assemble(&format!(
            "   mov #{n},s0
            L7:
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
                halt"
        ))
        .unwrap()
    }

    fn lfk1_ma() -> MaWorkload {
        MaWorkload {
            f_a: 2,
            f_m: 3,
            loads: 2,
            stores: 1,
        }
    }

    #[test]
    fn lfk1_analysis_reproduces_table_4_row() {
        let n = 5120; // 40 full strips
        let program = lfk1_program(n);
        let analysis = analyze_kernel(
            "LFK1",
            lfk1_ma(),
            &program,
            n,
            &|cpu| {
                cpu.set_sreg_fp(1, 2.0);
                cpu.set_sreg_fp(3, 3.0);
                cpu.set_sreg_fp(7, 4.0);
            },
            &SimConfig::c240(),
        )
        .unwrap();
        // Paper Table 4 row 1: 0.600 / 0.800 / 0.840 bounds; measured
        // 0.852 CPF with MACS explaining ≥ 95%.
        assert_eq!(analysis.bounds.t_ma_cpf(), 0.600);
        assert_eq!(analysis.bounds.t_mac_cpf(), 0.800);
        assert!((analysis.bounds.t_macs_cpf() - 0.840).abs() < 0.001);
        let t_p = analysis.t_p_cpf();
        assert!(
            (0.840..=0.88).contains(&t_p),
            "measured t_p = {t_p} CPF, paper says 0.852"
        );
        assert!(analysis.pct_macs() > 0.95);
        // Eq. 18 band.
        assert!(analysis.t_p_cpl() >= analysis.t_a_cpl().max(analysis.t_x_cpl()) - 0.01);
        assert!(analysis.t_p_cpl() <= analysis.t_a_cpl() + analysis.t_x_cpl());
        // A-process near t^m bound, X-process near t^f bound (Table 5).
        assert!((analysis.t_a_cpl() - analysis.bounds.macs.m_cpl()).abs() < 0.35);
        assert!((analysis.t_x_cpl() - analysis.bounds.macs.f_cpl()).abs() < 0.35);
        assert!(!analysis.has_reduction);
        let text = analysis.to_string();
        assert!(text.contains("explained"));
    }
}
