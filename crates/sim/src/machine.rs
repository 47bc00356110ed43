//! Multi-CPU co-simulation: N CPUs, one shared set of memory banks.
//!
//! The C-240 is a four-CPU machine; the paper's §4.2 contention numbers
//! (lockstep neighbors cost 5–10%, unrelated programs 40–60%) describe
//! what one CPU loses when the other three compete for the same 32
//! banks. A [`Machine`] reproduces this by *co-simulating* the CPUs: it
//! owns the one shared [`BankState`] and steps the CPUs against it
//! instruction by instruction, so every grant search on any port sees
//! every other port's outstanding bank claims, and contention **emerges**
//! from the interleaved traffic instead of being injected by synthetic
//! [`ContentionStream`]s.
//!
//! # Arbitration and determinism
//!
//! CPUs are stepped one instruction at a time; before each step the
//! shared bank state is swapped into the stepping CPU's memory view
//! (O(1)) and swapped back out after. The driver always picks the
//! non-halted CPU with the **lowest issue clock, ties broken by lowest
//! CPU index** — a fixed, deterministic arbitration order that keeps the
//! interleaved grant streams as close to causal order as
//! per-instruction granularity allows. The whole co-simulation runs on
//! the calling thread; results are bit-reproducible and independent of
//! `MACS_THREADS` or any other environment.
//!
//! # Fast-forward
//!
//! Steady-state fast-forward keys on *one* CPU's periodic timing state;
//! with neighbors banging the same banks that state no longer determines
//! the future, so the [`Machine`] disables fast-forward whenever it
//! drives more than one CPU. A one-CPU machine has no neighbors to
//! arbitrate against: it runs that CPU's own [`Cpu::run_probed`] loop,
//! against the CPU's own banks and with fast-forward as
//! [`SimConfig::fast_forward`] sets it, so it costs and reports exactly
//! what the plain single-CPU simulator does (asserted in
//! `tests/cosim.rs`).
//!
//! [`ContentionStream`]: c240_mem::ContentionStream
//!
//! # Example
//!
//! ```
//! use c240_isa::ProgramBuilder;
//! use c240_sim::{Machine, SimConfig};
//!
//! let mut b = ProgramBuilder::new();
//! b.set_vl_imm(128);
//! b.vload("a1", 0, "v0");
//! b.vstore("v0", "a2", 0);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut machine = Machine::new(SimConfig::c240().with_cpus(4));
//! for i in 0..machine.cpus() {
//!     machine.cpu_mut(i).set_areg(1, 0);
//!     machine.cpu_mut(i).set_areg(2, 4096 * 8);
//! }
//! let programs = vec![program; 4];
//! let stats = machine.run(&programs)?;
//! assert_eq!(stats.len(), 4);
//! // The machine's totals sum its four ports.
//! assert_eq!(machine.access_count(),
//!            stats.iter().map(|s| s.memory_accesses).sum::<u64>());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::borrow::Borrow;

use c240_mem::{BankState, WaitTicks};
use c240_obs::{NoProbe, Probe};

use c240_isa::timing::TICKS_PER_CYCLE;
use c240_isa::Program;

use crate::config::SimConfig;
use crate::cpu::Cpu;
use crate::error::SimError;
use crate::stats::RunStats;

/// N co-simulated CPUs sharing one set of memory banks.
#[derive(Debug, Clone)]
pub struct Machine {
    cpus: Vec<Cpu>,
    shared: BankState,
}

impl Machine {
    /// Builds a machine with [`SimConfig::cpus`] CPUs, each a full
    /// [`Cpu`] with its own data space and scalar cache, port `i`
    /// charging its bank claims to view id `i`.
    pub fn new(config: SimConfig) -> Self {
        let n = config.cpus.max(1);
        let banks = config.machine.banks;
        let cpus = (0..n)
            .map(|i| {
                let mut cpu = Cpu::new(config.clone());
                cpu.mem_mut().set_view(i);
                cpu
            })
            .collect();
        // Shared state keeps each bank's claims, so a grant can fit into
        // the idle windows between another CPU's bank rotations. A lone
        // CPU never touches it: it grants against its own single-port
        // state, as the plain `Cpu` does.
        let shared = BankState::multiport(banks);
        Machine { cpus, shared }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    /// CPU `i` (workload setup: poke data, set registers).
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpus()`.
    pub fn cpu(&self, i: usize) -> &Cpu {
        &self.cpus[i]
    }

    /// Mutable CPU `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= cpus()`.
    pub fn cpu_mut(&mut self, i: usize) -> &mut Cpu {
        &mut self.cpus[i]
    }

    /// The last run's memory waits by cause in ticks, summed over the
    /// CPUs.
    pub fn wait_ticks(&self) -> WaitTicks {
        let mut total = WaitTicks::default();
        for cpu in &self.cpus {
            total += cpu.mem().wait_ticks();
        }
        total
    }

    /// The last run's memory accesses, summed over the CPUs.
    pub fn access_count(&self) -> u64 {
        self.cpus.iter().map(|cpu| cpu.mem().access_count()).sum()
    }

    /// Co-simulates one program per CPU to completion; returns each
    /// CPU's statistics in CPU order.
    ///
    /// # Errors
    ///
    /// The first CPU error ([`SimError::InstructionLimit`],
    /// [`SimError::FellOffEnd`]) aborts the whole co-simulation.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != cpus()`.
    pub fn run(&mut self, programs: &[Program]) -> Result<Vec<RunStats>, SimError> {
        let mut probes: Vec<NoProbe> = self.cpus.iter().map(|_| NoProbe).collect();
        self.run_probed(programs, &mut probes)
    }

    /// Like [`Machine::run`], reporting each CPU's cycle attribution to
    /// the probe of the same index. `programs` holds one program (or a
    /// reference to one) per CPU.
    ///
    /// # Errors
    ///
    /// Same as [`Machine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` or `probes.len()` differs from
    /// `cpus()`.
    pub fn run_probed<P: Probe>(
        &mut self,
        programs: &[impl Borrow<Program>],
        probes: &mut [P],
    ) -> Result<Vec<RunStats>, SimError> {
        let n = self.cpus.len();
        assert_eq!(programs.len(), n, "one program per CPU");
        assert_eq!(probes.len(), n, "one probe per CPU");
        if let [cpu] = self.cpus.as_mut_slice() {
            // Nothing to arbitrate: the CPU's own loop, fast-forward
            // included.
            return Ok(vec![cpu.run_probed(programs[0].borrow(), &mut probes[0])?]);
        }
        self.shared.reset();
        let mut cursors: Vec<_> = self
            .cpus
            .iter_mut()
            .map(|cpu| cpu.begin_run::<P>(false))
            .collect();
        // Fixed arbitration order: lowest issue clock, then lowest CPU
        // index (`min_by_key` keeps the first minimum). Deterministic — no
        // threads, no host state.
        while let Some(i) = (0..n)
            .filter(|&i| !cursors[i].halted())
            .min_by_key(|&i| self.cpus[i].issue_clock())
        {
            // Every future request starts at or after the arbitration
            // winner's issue clock (it holds the minimum); claims well
            // behind it are dead weight. The margin generously covers
            // any pipeline-internal earliest below the issue clock.
            self.shared
                .set_horizon(self.cpus[i].issue_clock() - 512 * TICKS_PER_CYCLE);
            self.cpus[i].mem_mut().swap_bank_state(&mut self.shared);
            let stepped =
                self.cpus[i].step_one(programs[i].borrow(), &mut probes[i], &mut cursors[i]);
            // Swap the shared state back out before propagating an error
            // so the machine stays consistent either way.
            self.cpus[i].mem_mut().swap_bank_state(&mut self.shared);
            stepped?;
        }
        Ok(self
            .cpus
            .iter_mut()
            .zip(probes.iter_mut())
            .map(|(cpu, probe)| cpu.finish_run(probe))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_isa::ProgramBuilder;

    fn stream_program(iters: i64) -> Program {
        // A strip-mined unit-stride copy loop: load 128, store 128,
        // advance, decrement, branch back.
        let mut b = ProgramBuilder::new();
        b.mov_int(iters, "s0");
        b.set_vl_imm(128);
        b.label("L");
        b.vload("a1", 0, "v0");
        b.vstore("v0", "a2", 0);
        b.int_op_imm("add", 128 * 8, "a1");
        b.int_op_imm("add", 128 * 8, "a2");
        b.int_op_imm("sub", 1, "s0");
        b.cmp_imm("lt", 0, "s0");
        b.branch_true("L");
        b.halt();
        b.build().expect("valid program")
    }

    fn setup(cpu: &mut Cpu) {
        cpu.set_areg(1, 0);
        cpu.set_areg(2, 64 * 1024 * 8);
    }

    #[test]
    fn single_cpu_machine_matches_plain_cpu() {
        let program = stream_program(8);
        let mut plain = Cpu::new(SimConfig::c240());
        setup(&mut plain);
        let expect = plain.run(&program).expect("plain run");

        let mut machine = Machine::new(SimConfig::c240().with_cpus(1));
        setup(machine.cpu_mut(0));
        let got = machine
            .run(std::slice::from_ref(&program))
            .expect("co-sim run");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], expect);
    }

    #[test]
    fn four_cpus_slow_each_other_down() {
        let program = stream_program(8);
        let mut solo = Machine::new(SimConfig::c240().with_cpus(1));
        setup(solo.cpu_mut(0));
        let alone = solo.run(std::slice::from_ref(&program)).expect("solo")[0].cycles;

        let mut machine = Machine::new(SimConfig::c240().with_cpus(4));
        for i in 0..4 {
            setup(machine.cpu_mut(i));
        }
        let programs = vec![program; 4];
        let stats = machine.run(&programs).expect("co-sim");
        for s in &stats {
            assert!(s.cycles >= alone, "sharing banks cannot speed a CPU up");
        }
        // Contention must show up in the machine's wait totals.
        assert!(machine.wait_ticks().contention > 0);
    }

    #[test]
    fn co_simulation_is_deterministic() {
        let program = stream_program(6);
        let run = || {
            let mut machine = Machine::new(SimConfig::c240().with_cpus(3));
            for i in 0..3 {
                setup(machine.cpu_mut(i));
            }
            let programs = vec![program.clone(); 3];
            machine.run(&programs).expect("co-sim")
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "one program per CPU")]
    fn program_count_must_match() {
        let mut machine = Machine::new(SimConfig::c240().with_cpus(2));
        let _ = machine.run(&[]);
    }
}
