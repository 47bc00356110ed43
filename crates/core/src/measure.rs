//! Measurement harness: running programs on the simulator and converting
//! to the paper's units (CPL, CPF, MFLOPS).

use std::fmt;

use c240_isa::{Program, CLOCK_MHZ};
use c240_sim::{Cpu, Machine, Probe, RunStats, SimConfig, SimError};

/// One measured run in the paper's units.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Raw simulator statistics.
    pub stats: RunStats,
    /// Source-loop iterations the run executed.
    pub iterations: u64,
    /// Source flops per iteration (the CPF divisor).
    pub flops_per_iteration: u32,
}

impl Measurement {
    /// Cycles per source-loop iteration.
    pub fn cpl(&self) -> f64 {
        self.stats.cpl(self.iterations)
    }

    /// Cycles per (source) floating point operation.
    pub fn cpf(&self) -> f64 {
        self.cpl() / f64::from(self.flops_per_iteration.max(1))
    }

    /// Delivered MFLOPS at the C-240 clock, based on *source* flops
    /// (the paper's accounting — compiler-added work does not count as
    /// useful flops).
    pub fn mflops(&self) -> f64 {
        CLOCK_MHZ / self.cpf()
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} cycles over {} iterations = {:.3} CPL = {:.3} CPF = {:.2} MFLOPS",
            self.stats.cycles,
            self.iterations,
            self.cpl(),
            self.cpf(),
            self.mflops()
        )
    }
}

/// Runs `program` on the machine `config` describes — the paper's
/// measured run `t_p`, at any CPU count — and expresses each CPU's result
/// per source iteration.
///
/// A fresh [`Machine`] of [`SimConfig::cpus`] CPUs is built and `setup`
/// initializes every CPU (memory contents, registers) in CPU order. Each
/// CPU then runs `program`, reporting its cycle attribution to the probe
/// of the same index ([`NoProbe`](c240_sim::NoProbe) when nothing reads
/// it). One CPU runs its own loop, exactly [`Cpu::run_probed`]; more run
/// in lockstep against the shared banks (§4.2, see [`Machine`]). The
/// machine comes back with the measurements so the caller can read each
/// CPU's registers, memory and [`Cpu::ff_stats`].
///
/// # Errors
///
/// Propagates simulator errors (runaway loop, bad address).
///
/// # Panics
///
/// Panics if `probes.len()` differs from the machine's CPU count.
pub fn measure<P: Probe>(
    config: &SimConfig,
    mut setup: impl FnMut(&mut Cpu),
    program: &Program,
    iterations: u64,
    flops_per_iteration: u32,
    probes: &mut [P],
) -> Result<(Vec<Measurement>, Machine), SimError> {
    let mut machine = Machine::new(config.clone());
    for i in 0..machine.cpus() {
        setup(machine.cpu_mut(i));
    }
    let stats = machine.run_probed(&vec![program; machine.cpus()], probes)?;
    let measurements = stats
        .into_iter()
        .map(|stats| Measurement {
            stats,
            iterations,
            flops_per_iteration,
        })
        .collect();
    Ok((measurements, machine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_isa::asm::assemble;
    use c240_sim::{CounterProbe, NoProbe};

    fn copy_loop() -> Program {
        assemble(
            "   mov #1024,s0
            L:
                mov s0,vl
                ld.l 0(a1),v0
                add.d v0,v0,v1
                st.l v1,0(a2)
                add.w #1024,a1
                add.w #1024,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                halt",
        )
        .unwrap()
    }

    fn setup(cpu: &mut Cpu) {
        cpu.set_areg(2, 80000);
    }

    #[test]
    fn measure_simple_loop() {
        let config = SimConfig::c240().without_refresh();
        let (ms, _) = measure(&config, setup, &copy_loop(), 1024, 1, &mut [NoProbe]).unwrap();
        let m = &ms[0];
        // Two memory chimes per iteration: ~2 CPL steady state plus
        // startup amortized over 8 strips.
        assert!(m.cpl() > 2.0 && m.cpl() < 2.4, "cpl {}", m.cpl());
        assert_eq!(m.cpf(), m.cpl());
        assert!((m.mflops() - CLOCK_MHZ / m.cpf()).abs() < 1e-9);
    }

    #[test]
    fn one_cpu_is_the_plain_cpu_run_and_more_share_the_banks() {
        let program = copy_loop();
        let mut cpu = Cpu::new(SimConfig::c240());
        setup(&mut cpu);
        let mut plain_probe = CounterProbe::new();
        let plain = cpu.run_probed(&program, &mut plain_probe).unwrap();

        let mut probe = [CounterProbe::new()];
        let (solo, machine) =
            measure(&SimConfig::c240(), setup, &program, 1024, 1, &mut probe).unwrap();
        assert_eq!(solo[0].stats, plain);
        assert_eq!(probe[0], plain_probe);
        assert_eq!(machine.cpu(0).ff_stats(), cpu.ff_stats());

        let mut probes = vec![CounterProbe::new(); 2];
        let config = SimConfig::c240().with_cpus(2);
        let (pair, machine) = measure(&config, setup, &program, 1024, 1, &mut probes).unwrap();
        assert_eq!(pair.len(), 2);
        assert_eq!(machine.cpus(), 2);
        for (m, probe) in pair.iter().zip(&probes) {
            assert!(m.stats.cycles >= plain.cycles, "sharing banks cannot help");
            assert!(probe.busy_total() > 0.0, "every CPU reports to its probe");
        }
    }

    #[test]
    fn display_mentions_units() {
        let (ms, _) = measure(
            &SimConfig::c240(),
            |_| {},
            &assemble("nop\nhalt").unwrap(),
            1,
            1,
            &mut [NoProbe],
        )
        .unwrap();
        let text = ms[0].to_string();
        assert!(text.contains("CPL"));
        assert!(text.contains("MFLOPS"));
    }
}
