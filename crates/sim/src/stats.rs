//! Run statistics reported by the simulator.

use std::fmt;

use c240_isa::{InstrClass, Pipe, CLOCK_MHZ};
use c240_mem::WaitBreakdown;
use c240_obs::{CounterProbe, Lane};

/// Aggregate statistics of one simulated run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Total run time in cycles (when the last result lands).
    pub cycles: f64,
    /// Executed instructions by class.
    pub instructions: ClassCounts,
    /// Vector elements processed, per pipe.
    pub elements: [u64; 3],
    /// Floating point operations performed (vector + scalar), counted
    /// as executed elements.
    pub flops: u64,
    /// Memory accesses issued (vector elements + scalar, including cache
    /// misses only for scalars).
    pub memory_accesses: u64,
    /// Cycles memory accesses spent waiting on banks/refresh/contention.
    pub memory_wait_cycles: f64,
    /// The same wait cycles split by cause. The causes sum to the total
    /// exactly in ticks, but each is rounded to `f64` on its own, so
    /// `memory_waits.total()` equals `memory_wait_cycles` only to within
    /// rounding (see [`WaitBreakdown`]).
    pub memory_waits: WaitBreakdown,
    /// Scalar cache hits.
    pub cache_hits: u64,
    /// Scalar cache misses.
    pub cache_misses: u64,
    /// Taken branches.
    pub branches_taken: u64,
}

/// Executed-instruction counts by [`InstrClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounts {
    /// Vector loads/stores.
    pub vector_mem: u64,
    /// Vector floating point.
    pub vector_fp: u64,
    /// Scalar loads/stores.
    pub scalar_mem: u64,
    /// Other scalar instructions.
    pub scalar: u64,
    /// Branches and jumps.
    pub control: u64,
}

impl ClassCounts {
    /// Total executed instructions.
    pub fn total(&self) -> u64 {
        self.vector_mem + self.vector_fp + self.scalar_mem + self.scalar + self.control
    }

    pub(crate) fn bump(&mut self, class: InstrClass) {
        match class {
            InstrClass::VectorMem => self.vector_mem += 1,
            InstrClass::VectorFp => self.vector_fp += 1,
            InstrClass::ScalarMem => self.scalar_mem += 1,
            InstrClass::Scalar => self.scalar += 1,
            InstrClass::Control => self.control += 1,
        }
    }
}

impl RunStats {
    /// Elements processed on one pipe.
    pub fn elements_on(&self, pipe: Pipe) -> u64 {
        self.elements[match pipe {
            Pipe::LoadStore => 0,
            Pipe::Add => 1,
            Pipe::Multiply => 2,
        }]
    }

    /// Cycles per `iterations` source-loop iterations — the paper's CPL
    /// when `iterations` is the number of inner-loop iterations executed.
    pub fn cpl(&self, iterations: u64) -> f64 {
        assert!(iterations > 0, "iterations must be positive");
        self.cycles / iterations as f64
    }

    /// Achieved MFLOPS at the C-240 clock (40 ns cycle).
    pub fn mflops(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.flops as f64 * CLOCK_MHZ / self.cycles
        }
    }
}

/// Memory-side vs compute-side occupancy rolled up from a probed run —
/// the measured half of the roofline cross-check (DESIGN.md §16).
///
/// The roofline question is which resource a kernel *occupies* longer,
/// not which stalls more: a unit-stride memory-bound loop keeps the
/// load/store pipe streaming with few attributed bank waits, so the
/// rollup counts useful streaming time alongside the attributed stalls
/// on each side of the [`c240_obs::StallCause`] taxonomy.
///
/// Two stall families are deliberately charged to *neither* side:
/// chain waits, because a chained consumer idles in the shadow of its
/// producer's streaming time — which is already counted on whichever
/// side the producer pipe belongs to — and scalar-lane issue
/// interlocks, which are loop overhead rather than roof pressure.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallRollup {
    /// Cycles the vector load/store pipe streamed elements.
    pub ld_busy: f64,
    /// Cycles the busier floating point pipe (add or multiply) streamed
    /// elements.
    pub fp_busy: f64,
    /// Attributed memory-side stall cycles (bank busy, refresh,
    /// contention, scalar cache misses, memory-port fences), summed
    /// over all lanes.
    pub memory_stalls: f64,
    /// Structural compute stall cycles on the FP lanes — tailgate
    /// bubbles, pair conflicts, operand barriers, drains — excluding
    /// chain waits (see the type-level note).
    pub compute_stalls: f64,
}

impl StallRollup {
    /// Rolls one probe's lane accounts up into the two roofline sides.
    pub fn of_probe(probe: &CounterProbe) -> Self {
        use c240_obs::StallCause;
        let mut memory_stalls = 0.0;
        let mut compute_stalls = 0.0;
        for (lane, acct) in probe.lanes() {
            memory_stalls += acct.stalls.memory_side();
            if matches!(lane, Lane::Add | Lane::Mul) {
                compute_stalls +=
                    acct.stalls.compute_wait() - acct.stalls.get(StallCause::ChainWait);
            }
        }
        StallRollup {
            ld_busy: probe.lane(Lane::Ld).busy,
            fp_busy: probe.lane(Lane::Add).busy.max(probe.lane(Lane::Mul).busy),
            memory_stalls,
            compute_stalls,
        }
    }

    /// Cycles the memory system was the occupied resource: load/store
    /// streaming plus memory-side waits.
    pub fn memory_occupancy(&self) -> f64 {
        self.ld_busy + self.memory_stalls
    }

    /// Cycles the FP pipes were the occupied resource: the busier FP
    /// pipe's streaming plus dependence/issue waits.
    pub fn compute_occupancy(&self) -> f64 {
        self.fp_busy + self.compute_stalls
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles:           {:.2}", self.cycles)?;
        writeln!(f, "instructions:     {}", self.instructions.total())?;
        writeln!(
            f,
            "  vector mem/fp:  {} / {}",
            self.instructions.vector_mem, self.instructions.vector_fp
        )?;
        writeln!(
            f,
            "  scalar mem/alu: {} / {}",
            self.instructions.scalar_mem, self.instructions.scalar
        )?;
        writeln!(f, "  control:        {}", self.instructions.control)?;
        writeln!(
            f,
            "elements ld/add/mul: {} / {} / {}",
            self.elements[0], self.elements[1], self.elements[2]
        )?;
        writeln!(f, "flops:            {}", self.flops)?;
        writeln!(f, "memory accesses:  {}", self.memory_accesses)?;
        writeln!(f, "memory wait:      {:.2} cycles", self.memory_wait_cycles)?;
        writeln!(
            f,
            "  bank/refr/cont: {:.2} / {:.2} / {:.2}",
            self.memory_waits.bank_busy, self.memory_waits.refresh, self.memory_waits.contention
        )?;
        writeln!(
            f,
            "cache hit/miss:   {} / {}",
            self.cache_hits, self.cache_misses
        )?;
        write!(f, "MFLOPS:           {:.2}", self.mflops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_bump_and_total() {
        let mut c = ClassCounts::default();
        c.bump(InstrClass::VectorMem);
        c.bump(InstrClass::VectorFp);
        c.bump(InstrClass::VectorFp);
        c.bump(InstrClass::Scalar);
        c.bump(InstrClass::ScalarMem);
        c.bump(InstrClass::Control);
        assert_eq!(c.total(), 6);
        assert_eq!(c.vector_fp, 2);
    }

    #[test]
    fn cpl_and_mflops() {
        let stats = RunStats {
            cycles: 1000.0,
            flops: 500,
            ..RunStats::default()
        };
        assert_eq!(stats.cpl(100), 10.0);
        // 500 flops in 1000 cycles at 25 MHz = 12.5 MFLOPS.
        assert!((stats.mflops() - 12.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn cpl_zero_iterations_panics() {
        let stats = RunStats::default();
        let _ = stats.cpl(0);
    }

    #[test]
    fn display_is_nonempty() {
        let text = RunStats::default().to_string();
        assert!(text.contains("cycles"));
    }

    #[test]
    fn stall_rollup_splits_sides() {
        use c240_obs::{Probe, StallCause};
        const T: i64 = c240_isa::timing::TICKS_PER_CYCLE;
        let mut p = CounterProbe::new();
        p.busy(Lane::Ld, 10 * T, 1);
        p.busy(Lane::Add, 4 * T, 2);
        p.busy(Lane::Mul, 6 * T, 3);
        p.stall(Lane::Ld, StallCause::BankBusy, 2 * T, 1);
        p.stall(Lane::ScalarMem, StallCause::ScalarCacheMiss, T, 4);
        p.stall(Lane::Mul, StallCause::PairConflict, 4 * T, 3);
        // Neither side: chain waits shadow their producer's streaming
        // time; scalar issue interlocks are loop overhead; ld-lane
        // bubbles are not FP-lane stalls.
        p.stall(Lane::Add, StallCause::ChainWait, 3 * T, 2);
        p.stall(Lane::Scalar, StallCause::IssueInterlock, 9 * T, 5);
        p.stall(Lane::Ld, StallCause::TailgateBubble, 5 * T, 1);
        let r = StallRollup::of_probe(&p);
        assert_eq!(r.ld_busy, 10.0);
        assert_eq!(r.fp_busy, 6.0);
        assert_eq!(r.memory_stalls, 3.0);
        assert_eq!(r.compute_stalls, 4.0);
        assert_eq!(r.memory_occupancy(), 13.0);
        assert_eq!(r.compute_occupancy(), 10.0);
    }
}
