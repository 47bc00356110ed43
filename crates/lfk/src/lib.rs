//! The Lawrence Livermore Fortran Kernels used by the MACS paper's case
//! study: LFK 1, 2, 3, 4, 6, 7, 8, 9, 10 and 12.
//!
//! Each kernel provides:
//!
//! * the original Fortran inner loop (documentation),
//! * the **MA workload** of the source (perfect-reuse operation counts),
//! * **curated C-240 assembly** reproducing the instruction mix the
//!   paper's `fc` V6.1 compiler generated (Table 2), including each
//!   kernel's characteristic pathology — compiler reloads (1, 7, 12),
//!   halving segment structure (2), per-strip reductions (3, 4, 6),
//!   spilled base constants splitting chimes (8), strided streams
//!   (9, 10) — wrapped in the standard LFK outer repetition loop,
//! * a **reference Rust implementation** and a functional check that the
//!   simulator computed the same values,
//! * where the kernel is a single vectorizable loop, its compiler-IR form
//!   for use with [`macs_compiler::compile`].
//!
//! # Example
//!
//! ```
//! use lfk_suite::{by_id, LfkKernel};
//! use c240_sim::{Cpu, SimConfig};
//!
//! let k1 = by_id(1).expect("LFK1 exists");
//! assert_eq!(k1.ma().t_ma_cpl(), 3.0);        // paper Table 3
//! let mut cpu = Cpu::new(SimConfig::c240());
//! k1.setup(&mut cpu);
//! cpu.run(&k1.program())?;
//! k1.check(&cpu)?;                            // simulator matches reference
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
mod k01;
mod k02;
mod k03;
mod k04;
mod k06;
mod k07;
mod k08;
mod k09;
mod k10;
mod k12;

use std::error::Error;
use std::fmt;

use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::{Kernel, MaWorkload};

/// A kernel of the case-study workload.
pub trait LfkKernel: Send + Sync {
    /// Kernel number (1, 2, 3, 4, 6, 7, 8, 9, 10 or 12).
    fn id(&self) -> u32;

    /// Short name, e.g. `"hydro fragment"`.
    fn name(&self) -> &'static str;

    /// The original Fortran inner loop.
    fn fortran(&self) -> &'static str;

    /// Source-level `(f_a, f_m)` per inner iteration.
    fn flops(&self) -> (u32, u32);

    /// The MA workload (perfect-reuse counts, §3.1).
    fn ma(&self) -> MaWorkload;

    /// Total inner-loop iterations one run of [`LfkKernel::program`]
    /// executes (across all passes and segments) — the CPL divisor.
    fn iterations(&self) -> u64;

    /// Repetitions of the outer measurement loop in
    /// [`LfkKernel::program`] (the `mov #passes,a0` counter every
    /// kernel's listing starts with).
    fn passes(&self) -> i64;

    /// One past the highest word address [`LfkKernel::setup`] or the
    /// program touches, at any pass count: the smallest data space
    /// (`MemConfig::words`) the kernel runs in.
    fn footprint_words(&self) -> u64;

    /// The kernel's program with the outer repetition loop run `passes`
    /// times instead of the default, for sweep points and paper-scale
    /// runs that leave the curated default workloads untouched.
    /// [`LfkKernel::check`] is only guaranteed for the default pass
    /// count (kernels whose reference accumulates per pass depend on it).
    ///
    /// # Panics
    ///
    /// Panics if `passes < 1`; [`LfkKernel::try_program_with_passes`] is
    /// the fallible form for untrusted pass counts.
    fn program_with_passes(&self, passes: i64) -> Program;

    /// Fallible form of [`LfkKernel::program_with_passes`] for pass
    /// counts arriving from untrusted input (the sweep wire protocol).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPasses`] when `passes < 1`.
    fn try_program_with_passes(&self, passes: i64) -> Result<Program, InvalidPasses> {
        if passes < 1 {
            return Err(InvalidPasses { passes });
        }
        Ok(self.program_with_passes(passes))
    }

    /// The curated compiled program (prologue, outer repetition, strip
    /// loops, `halt`).
    fn program(&self) -> Program {
        self.program_with_passes(self.passes())
    }

    /// [`LfkKernel::iterations`] scaled to a non-default pass count.
    fn iterations_with_passes(&self, passes: i64) -> u64 {
        self.iterations() / self.passes() as u64 * passes as u64
    }

    /// Initializes memory and registers on a fresh CPU.
    fn setup(&self, cpu: &mut Cpu);

    /// Verifies the simulator's results against the reference
    /// implementation.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError`] describing the first mismatching output.
    fn check(&self, cpu: &Cpu) -> Result<(), CheckError>;

    /// The kernel as compiler IR, where it is a single vectorizable loop.
    fn ir(&self) -> Option<Kernel> {
        None
    }

    /// Source flops per iteration, total.
    fn flops_total(&self) -> u32 {
        let (a, m) = self.flops();
        a + m
    }
}

/// A non-positive outer-loop pass count was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidPasses {
    /// The offending count.
    pub passes: i64,
}

impl fmt::Display for InvalidPasses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pass count {} must be at least 1", self.passes)
    }
}

impl Error for InvalidPasses {}

/// A functional mismatch between simulator and reference.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckError {
    /// Which output (array name and index).
    pub location: String,
    /// Value the simulator produced.
    pub simulated: f64,
    /// Value the reference produced.
    pub expected: f64,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mismatch at {}: simulated {} vs reference {}",
            self.location, self.simulated, self.expected
        )
    }
}

impl Error for CheckError {}

/// All ten kernels in paper order.
pub fn all() -> Vec<Box<dyn LfkKernel>> {
    vec![
        Box::new(k01::Lfk1),
        Box::new(k02::Lfk2),
        Box::new(k03::Lfk3),
        Box::new(k04::Lfk4),
        Box::new(k06::Lfk6),
        Box::new(k07::Lfk7),
        Box::new(k08::Lfk8),
        Box::new(k09::Lfk9),
        Box::new(k10::Lfk10),
        Box::new(k12::Lfk12),
    ]
}

/// The kernel with the given number, if it is part of the case study.
pub fn by_id(id: u32) -> Option<Box<dyn LfkKernel>> {
    all().into_iter().find(|k| k.id() == id)
}

/// The kernel ids of the case study, in paper order.
pub const IDS: [u32; 10] = [1, 2, 3, 4, 6, 7, 8, 9, 10, 12];

#[cfg(test)]
mod tests {
    use super::*;
    use c240_sim::{RunStats, SimConfig};

    #[test]
    fn bad_pass_counts_are_rejected_without_panicking() {
        let k1 = by_id(1).unwrap();
        assert_eq!(
            k1.try_program_with_passes(0),
            Err(InvalidPasses { passes: 0 })
        );
        assert_eq!(
            k1.try_program_with_passes(-7),
            Err(InvalidPasses { passes: -7 })
        );
        assert!(InvalidPasses { passes: -7 }.to_string().contains("-7"));
        let ok = k1.try_program_with_passes(2).unwrap();
        assert_eq!(ok, k1.program_with_passes(2));
    }

    #[test]
    fn registry_is_complete_and_ordered() {
        let kernels = all();
        assert_eq!(kernels.len(), 10);
        let ids: Vec<u32> = kernels.iter().map(|k| k.id()).collect();
        assert_eq!(ids, IDS);
    }

    #[test]
    fn by_id_finds_only_case_study_kernels() {
        assert!(by_id(1).is_some());
        assert!(by_id(12).is_some());
        assert!(by_id(5).is_none());
        assert!(by_id(11).is_none());
        assert!(by_id(13).is_none());
    }

    /// Runs `k` for `passes` in a data space of `words` words; `None` if
    /// setup or the run fails.
    fn run_in(k: &dyn LfkKernel, words: usize, passes: i64) -> Option<(Cpu, RunStats)> {
        let mut cfg = SimConfig::c240();
        cfg.mem = cfg.mem.with_words(words);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut cpu = Cpu::new(cfg);
            k.setup(&mut cpu);
            let stats = cpu.run(&k.program_with_passes(passes)).ok()?;
            Some((cpu, stats))
        }))
        .ok()
        .flatten()
    }

    #[test]
    fn every_kernel_runs_in_exactly_its_footprint() {
        let full = SimConfig::c240().mem.words;
        for k in all() {
            let words = k.footprint_words() as usize;
            for passes in [1, 2, k.passes()] {
                let (cpu, stats) = run_in(k.as_ref(), words, passes)
                    .unwrap_or_else(|| panic!("LFK{} fails in {words} words", k.id()));
                assert_eq!(stats, run_in(k.as_ref(), full, passes).unwrap().1);
                if passes == k.passes() {
                    k.check(&cpu).unwrap();
                }
            }
            assert!(
                run_in(k.as_ref(), words - 1, 1).is_none(),
                "LFK{} also runs in {} words",
                k.id(),
                words - 1
            );
        }
    }

    #[test]
    fn every_kernel_has_flops_and_fortran() {
        for k in all() {
            assert!(k.flops_total() > 0, "kernel {}", k.id());
            assert!(!k.fortran().is_empty());
            assert!(!k.name().is_empty());
            assert!(k.iterations() > 0);
        }
    }

    #[test]
    fn ma_bounds_match_paper_table_3() {
        // t_MA in CPL per kernel (Table 3 / derived from Table 4).
        let expected = [
            (1, 3.0),
            (2, 5.0),
            (3, 2.0),
            (4, 2.0),
            (6, 2.0),
            (7, 8.0),
            (8, 21.0),
            (9, 11.0),
            (10, 20.0),
            (12, 2.0),
        ];
        for (id, t_ma) in expected {
            let k = by_id(id).unwrap();
            assert_eq!(k.ma().t_ma_cpl(), t_ma, "LFK{id}");
        }
    }

    #[test]
    fn ma_cpf_matches_paper_table_4() {
        let expected = [
            (1, 0.600),
            (2, 1.250),
            (3, 1.000),
            (4, 1.000),
            (6, 1.000),
            (7, 0.500),
            (8, 0.583),
            (9, 0.647),
            (10, 2.222),
            (12, 2.000),
        ];
        for (id, cpf) in expected {
            let k = by_id(id).unwrap();
            assert!(
                (k.ma().t_ma_cpf() - cpf).abs() < 0.001,
                "LFK{id}: {} vs {cpf}",
                k.ma().t_ma_cpf()
            );
        }
    }
}
