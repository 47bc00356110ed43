//! The cycle-level CPU model: in-order single issue, an Address/Scalar
//! Unit, and a Vector Processor with three chained pipes.
//!
//! This module holds the CPU's state, its construction, its public API
//! and the run loop; a step's work splits into four child modules: `exec`
//! (the data semantics), `timing` (scalar issue, scalar memory and stall
//! attribution), `vector` (the vector instruction skeleton) and `warp`
//! (the fast-forward plumbing).
//!
//! # Integer ticks
//!
//! Every simulated time is an exact `i64` count of ticks, 20 per cycle
//! (`c240_isa::timing::TICKS_PER_CYCLE`): ready times, the clock, pipe
//! and credit state, probe amounts, and the memory system's bank times
//! and wait totals. [`Cpu::new`] converts the configuration's timing
//! tables to ticks once; times become `f64` cycles only where they leave
//! the simulator, in [`RunStats`] and probe read-outs such as trace
//! events.

mod exec;
mod timing;
mod vector;
mod warp;

use c240_isa::timing::{cycles, ticks, TimingClass, VectorTicks};
use c240_isa::{AReg, Instruction, Program, SReg, VReg, MAX_VL};
use c240_mem::{MemorySystem, ScalarCache};
use c240_obs::{Lane, NoProbe, Probe};

use self::exec::Touched;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::fastfwd::{FastForward, FfStats, Step};
use crate::row::{TimingRow, VLEN};
use crate::stats::RunStats;

const VREGS: usize = 8;

/// The configuration's timing parameters in ticks, converted once by
/// [`Cpu::new`].
#[derive(Debug, Clone)]
struct Ticks {
    /// Vector timing, indexed by `TimingClass as usize`.
    vector: [VectorTicks; 8],
    issue: i64,
    branch_taken_penalty: i64,
    int_latency: i64,
    fp_add_latency: i64,
    fp_mul_latency: i64,
    fp_div_latency: i64,
    cache_hit: i64,
    cache_miss: i64,
}

impl Ticks {
    fn of(config: &SimConfig) -> Self {
        let machine = &config.machine;
        let mut vector = [VectorTicks::default(); 8];
        for class in TimingClass::all() {
            vector[class as usize] = machine.timing.get(class).ticks();
        }
        let scalar = &machine.scalar;
        Ticks {
            vector,
            issue: ticks(scalar.issue),
            branch_taken_penalty: ticks(scalar.branch_taken_penalty),
            int_latency: ticks(scalar.int_latency),
            fp_add_latency: ticks(scalar.fp_add_latency),
            fp_mul_latency: ticks(scalar.fp_mul_latency),
            fp_div_latency: ticks(scalar.fp_div_latency),
            cache_hit: ticks(machine.cache_hit_latency as f64),
            cache_miss: ticks(machine.cache_miss_penalty as f64),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PipeState {
    /// Earliest tick the next instruction's first element may enter.
    next_entry: i64,
    /// Earliest tick the next instruction for this pipe may issue
    /// (one-deep reservation station).
    issue_gate: i64,
}

/// Ticks a pipe's `next_entry` was pushed forward, remembered by cause
/// so the wait can be attributed when the *next* instruction on the pipe
/// actually pays for it. Consumed (zeroed) at each attribution.
#[derive(Debug, Clone, Copy, Default)]
struct PipeCredits {
    /// Tailgate bubbles `B` charged at retire (Eq. 13).
    bubble: i64,
    /// Post-reduction serialization of all pipes.
    reduction: i64,
    /// Scalar memory access fencing the vector stream (shared port).
    fence: i64,
}

/// The `max` terms that produced a vector instruction's first-element
/// entry time, passed to [`Cpu::attribute_entry`] for stall attribution.
struct EntryTerms {
    issue_done: i64,
    fence: i64,
    barrier: i64,
    chain0: i64,
    pre_pair: i64,
    entry0: i64,
}

fn lane_of(slot: usize) -> Lane {
    match slot {
        0 => Lane::Ld,
        1 => Lane::Add,
        _ => Lane::Mul,
    }
}

#[derive(Debug, Clone, Copy)]
struct ActiveVec {
    pair_reads: [u8; 4],
    pair_writes: [u8; 4],
    end: i64,
}

/// Progress of an open run: where the next fetch happens and how many
/// instructions have executed. Held by the driver (the single-CPU run
/// loop, or the co-sim `Machine`) rather than the `Cpu` so several CPUs'
/// runs can be interleaved.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunCursor {
    pc: usize,
    executed: u64,
    halted: bool,
}

impl RunCursor {
    /// Whether the run has reached its `halt`.
    pub(crate) fn halted(&self) -> bool {
        self.halted
    }
}

/// One simulated C-240 CPU attached to a memory system.
///
/// # Example
///
/// ```
/// use c240_isa::ProgramBuilder;
/// use c240_sim::{Cpu, SimConfig};
///
/// let mut b = ProgramBuilder::new();
/// b.set_vl_imm(128);
/// b.vload("a1", 0, "v0");
/// b.vadd("v0", "v0", "v1");
/// b.vstore("v1", "a2", 0);
/// b.halt();
/// let program = b.build()?;
///
/// let mut cpu = Cpu::new(SimConfig::c240());
/// cpu.mem_mut().poke(0, 2.5);
/// cpu.set_areg(1, 0);
/// cpu.set_areg(2, 1024 * 8);
/// let stats = cpu.run(&program)?;
/// assert_eq!(cpu.mem().peek(1024), 5.0);
/// assert!(stats.cycles > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    config: SimConfig,
    ticks: Ticks,
    mem: MemorySystem,
    cache: ScalarCache,

    // Architectural state.
    a: [i64; 8],
    s: [u64; 8],
    a_ready: [i64; 8],
    s_ready: [i64; 8],
    vdata: Vec<[f64; VLEN]>,
    vready: Vec<TimingRow>,
    vread_until: Vec<TimingRow>,
    vl: u32,
    tflag: bool,

    // Timing state, in ticks.
    clock: i64,
    end: i64,
    pipes: [PipeState; 3],
    scalar_mem_fence: i64,
    active: Vec<ActiveVec>,

    // Telemetry state (only maintained while a probe with
    // `Probe::ENABLED` drives the run; `credits` costs a few integer adds
    // regardless, the `acct` cursors are fully gated).
    acct: [i64; Lane::COUNT],
    credits: [PipeCredits; 3],

    stats: RunStats,

    // Steady-state fast-forward detector and its telemetry for the last
    // run (see `fastfwd` module).
    ff: FastForward,
}

impl Cpu {
    /// Creates a CPU with fresh (zeroed) memory.
    ///
    /// The configuration's timing parameters are converted to ticks here,
    /// once, each rounded to the nearest tick
    /// ([`c240_isa::timing::ticks`]). [`SimConfig::validate`] rejects a
    /// value off the 1/20-cycle grid; an unvalidated one runs as if
    /// rounded onto it (a reduction `Z` of 1.33 runs as 1.35), and one
    /// beyond the `i64` tick range saturates.
    pub fn new(config: SimConfig) -> Self {
        let mem = MemorySystem::new(&config.machine, &config.contention);
        let cache = ScalarCache::new(&config.machine);
        Cpu {
            ticks: Ticks::of(&config),
            config,
            mem,
            cache,
            a: [0; 8],
            s: [0; 8],
            a_ready: [0; 8],
            s_ready: [0; 8],
            vdata: vec![[0.0; VLEN]; 8],
            vready: vec![TimingRow::ZERO; VREGS],
            vread_until: vec![TimingRow::ZERO; VREGS],
            vl: MAX_VL,
            tflag: false,
            clock: 0,
            end: 0,
            pipes: [PipeState::default(); 3],
            scalar_mem_fence: 0,
            active: Vec::new(),
            acct: [0; Lane::COUNT],
            credits: [PipeCredits::default(); 3],
            stats: RunStats::default(),
            ff: FastForward::default(),
        }
    }

    /// The configuration this CPU runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Read access to memory (for checking results).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to memory (for initializing workload data).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Sets an address register before a run (byte address / integer).
    ///
    /// # Panics
    ///
    /// Panics if `index > 7`.
    pub fn set_areg(&mut self, index: u8, value: i64) {
        let r = AReg::new(index).expect("address register index");
        self.a[usize::from(r.index())] = value;
    }

    /// Sets a scalar register to a floating point value before a run.
    ///
    /// # Panics
    ///
    /// Panics if `index > 7`.
    pub fn set_sreg_fp(&mut self, index: u8, value: f64) {
        let r = SReg::new(index).expect("scalar register index");
        self.s[usize::from(r.index())] = value.to_bits();
    }

    /// Sets a scalar register to an integer value before a run.
    ///
    /// # Panics
    ///
    /// Panics if `index > 7`.
    pub fn set_sreg_int(&mut self, index: u8, value: i64) {
        let r = SReg::new(index).expect("scalar register index");
        self.s[usize::from(r.index())] = value as u64;
    }

    /// Reads a scalar register as floating point after a run.
    ///
    /// # Panics
    ///
    /// Panics if `index > 7`.
    pub fn sreg_fp(&self, index: u8) -> f64 {
        let r = SReg::new(index).expect("scalar register index");
        f64::from_bits(self.s[usize::from(r.index())])
    }

    /// Reads an address register after a run.
    ///
    /// # Panics
    ///
    /// Panics if `index > 7`.
    pub fn areg(&self, index: u8) -> i64 {
        let r = AReg::new(index).expect("address register index");
        self.a[usize::from(r.index())]
    }

    /// Fills a vector register with a constant before a run — the
    /// "register priming" the paper's X-process tool performs so that
    /// execute-only code computes on benign values (§3.6).
    ///
    /// # Panics
    ///
    /// Panics if `index > 7`.
    pub fn set_vreg_fill(&mut self, index: u8, value: f64) {
        let r = VReg::new(index).expect("vector register index");
        self.vdata[usize::from(r.index())].fill(value);
    }

    /// Clears all timing state and statistics, but keeps memory contents
    /// and register *values* (so registers initialized with the `set_*`
    /// methods survive into the run). Called automatically by
    /// [`Cpu::run`].
    pub fn reset_timing(&mut self) {
        self.a_ready = [0; 8];
        self.s_ready = [0; 8];
        for row in self.vready.iter_mut().chain(&mut self.vread_until) {
            *row = TimingRow::ZERO;
        }
        self.vl = MAX_VL;
        self.tflag = false;
        self.clock = 0;
        self.end = 0;
        self.pipes = [PipeState::default(); 3];
        self.scalar_mem_fence = 0;
        self.active.clear();
        self.acct = [0; Lane::COUNT];
        self.credits = [PipeCredits::default(); 3];
        self.stats = RunStats::default();
        self.mem.reset_timing();
        self.cache.reset();
        self.ff = FastForward::default();
    }

    /// Fast-forward telemetry for the last run (probe/warp/skip counts).
    /// Skipped instructions are still fully accounted in the run's
    /// statistics; the counts only reveal how much exact stepping was
    /// avoided.
    pub fn ff_stats(&self) -> FfStats {
        self.ff.stats
    }

    /// Runs `program` from its first instruction until `halt`.
    ///
    /// Timing state and statistics are reset first; memory data and
    /// registers set via the `set_*` methods are kept.
    ///
    /// # Errors
    ///
    /// [`SimError::InstructionLimit`] if the run exceeds
    /// [`SimConfig::max_instructions`] (runaway loop), or
    /// [`SimError::FellOffEnd`] if control flow runs past the last
    /// instruction without a `halt`.
    pub fn run(&mut self, program: &Program) -> Result<RunStats, SimError> {
        self.run_probed(program, &mut NoProbe)
    }

    /// Runs `program` like [`Cpu::run`], reporting cycle attribution to
    /// `probe`.
    ///
    /// With an enabled probe (e.g. `c240_obs::CounterProbe`) every tick
    /// of every lane is tagged as busy, stalled on a specific
    /// [`StallCause`](crate::StallCause), or idle, so that per lane
    /// `busy + stalls + idle` is exactly the run's length in ticks.
    /// With [`NoProbe`] the attribution arithmetic is compiled out and
    /// this is exactly [`Cpu::run`]. A probe that is not
    /// [`Probe::WARPABLE`], such as a [`crate::Trace`], turns steady-state
    /// fast-forward off for the run.
    ///
    /// # Errors
    ///
    /// Same as [`Cpu::run`].
    pub fn run_probed<P: Probe>(
        &mut self,
        program: &Program,
        probe: &mut P,
    ) -> Result<RunStats, SimError> {
        let mut cursor = self.begin_run::<P>(true);
        while !cursor.halted {
            self.step_one(program, probe, &mut cursor)?;
        }
        Ok(self.finish_run(probe))
    }

    /// Resets state and opens a run, returning the cursor an external
    /// driver (or [`Cpu::run_probed`] itself) advances with
    /// [`Cpu::step_one`]. `allow_ff` gates steady-state fast-forward on
    /// top of the configuration: a co-sim driver passes `false` for
    /// multi-CPU runs, where a single CPU's periodic state no longer
    /// determines the shared memory's future.
    pub(crate) fn begin_run<P: Probe>(&mut self, allow_ff: bool) -> RunCursor {
        self.reset_timing();
        // Fast-forward translates the probe's counters with the timing
        // state, so the probe must expose them all (a trace, say, cannot).
        self.ff.enabled = allow_ff && self.config.fast_forward && P::WARPABLE;
        RunCursor {
            pc: 0,
            executed: 0,
            halted: false,
        }
    }

    /// Executes the next instruction of an open run (one fetch,
    /// [`Cpu::execute`] then [`Cpu::time`], fast-forward bookkeeping) and
    /// advances `cursor`.
    /// On `halt` the cursor is marked halted without executing further.
    /// The body is the exact loop body of the single-CPU run path, so a
    /// driver interleaving several CPUs' `step_one` calls produces, for
    /// one CPU, the identical instruction-by-instruction sequence.
    pub(crate) fn step_one<P: Probe>(
        &mut self,
        program: &Program,
        probe: &mut P,
        cursor: &mut RunCursor,
    ) -> Result<(), SimError> {
        let pc = cursor.pc;
        let Some(ins) = program.instructions().get(pc) else {
            return Err(SimError::FellOffEnd { pc });
        };
        cursor.executed += 1;
        if cursor.executed > self.config.max_instructions {
            return Err(SimError::InstructionLimit {
                limit: self.config.max_instructions,
            });
        }
        let (next, touched) = self.execute(ins, pc, program)?;
        if matches!(ins, Instruction::Halt) {
            cursor.halted = true;
            return Ok(());
        }
        let armed = self.finish_step(probe, ins, pc, next, touched, cursor.executed);
        cursor.pc = next;
        if armed {
            self.ff_warp(probe, program, cursor)?;
        }
        // Only vector instructions and warps move the rows.
        #[cfg(test)]
        if ins.is_vector() || armed {
            self.assert_row_summaries(pc);
        }
        Ok(())
    }

    /// The vector registers' ready rows, for tests.
    #[cfg(test)]
    pub(crate) fn ready_rows(&self) -> &[TimingRow] {
        &self.vready
    }

    /// Panics unless every timing row's summary matches its ticks: the
    /// unit tests check this after every step.
    #[cfg(test)]
    fn assert_row_summaries(&self, pc: usize) {
        for (v, row) in self.vready.iter().enumerate() {
            assert!(row.summary_holds(), "after pc {pc}: v{v} ready {row:?}");
        }
        for (v, row) in self.vread_until.iter().enumerate() {
            assert!(row.summary_holds(), "after pc {pc}: v{v} read {row:?}");
        }
    }

    /// The tail of a step after [`Cpu::execute`]: its timing, its
    /// recording while the detector records a period, and the detector's
    /// loop-head arrival when it branched back to `next`. Exact stepping
    /// and the warp's diverging iteration share it. Returns whether a
    /// verified period is armed for warping at `next`.
    fn finish_step<P: Probe>(
        &mut self,
        probe: &mut P,
        ins: &Instruction,
        pc: usize,
        next: usize,
        touched: Touched,
        executed: u64,
    ) -> bool {
        self.time(probe, ins, pc, touched);
        if self.ff.is_recording() {
            let check = self.step_check(touched);
            self.ff.push_step(Step {
                pc: pc as u32,
                check,
            });
        }
        next < pc && self.ff.active() && self.ff_loop_head(probe, next, executed)
    }

    /// Closes an open run: freezes cycle/memory/cache statistics, closes
    /// every probe lane's account out to the end of the run, and returns
    /// the statistics.
    pub(crate) fn finish_run<P: Probe>(&mut self, probe: &mut P) -> RunStats {
        let total = self.end.max(self.clock);
        self.stats.cycles = cycles(total);
        self.stats.memory_accesses = self.mem.access_count();
        let waits = self.mem.wait_ticks();
        self.stats.memory_wait_cycles = cycles(waits.total());
        self.stats.memory_waits = waits.cycles();
        self.stats.cache_hits = self.cache.hits();
        self.stats.cache_misses = self.cache.misses();
        if P::ENABLED {
            // Close every lane's account out to the end of the run.
            for slot in 0..3 {
                probe.idle(lane_of(slot), (total - self.acct[slot]).max(0));
            }
            probe.idle(Lane::Scalar, (total - self.clock).max(0));
            probe.idle(
                Lane::ScalarMem,
                (total - self.acct[Lane::ScalarMem as usize]).max(0),
            );
        }
        std::mem::take(&mut self.stats)
    }

    /// The scalar issue clock in ticks — the co-sim driver's arbitration
    /// key: always stepping the CPU whose issue clock is lowest keeps the
    /// interleaved grant streams as close to causal order as
    /// per-instruction granularity allows.
    pub(crate) fn issue_clock(&self) -> i64 {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;
    use c240_isa::{Pipe, ProgramBuilder};
    use c240_obs::StallCause;

    fn quiet_config() -> SimConfig {
        SimConfig::c240().without_refresh()
    }

    /// §3.3 worked example: ld/add/mul chained chime at VL=128 completes
    /// in 162 cycles; without chaining 422.
    #[test]
    fn chaining_example_of_section_3_3() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(128);
        b.vload("a5", 0, "v0");
        b.vadd("v0", "v1", "v2");
        b.vmul("v2", "v3", "v5");
        b.halt();
        let p = b.build().unwrap();

        let mut cpu = Cpu::new(quiet_config());
        let stats = cpu.run(&p).unwrap();
        // Issue starts after the set-vl (1 cycle); the paper counts from
        // the load's issue. Completion = last mul result.
        // ld enters at 1+2=3, elements 3..130, v0[e] ready 13+e.
        // add chained: entry=13+e, ready 23+e; mul: entry 23+e ready 35+e.
        // Last result at 35+127 = 162 → elapsed 162 - issue_start(1) = 161,
        // i.e. the paper's 162 counting inclusively.
        let elapsed = stats.cycles - 1.0;
        assert!(
            (161.0..=163.0).contains(&elapsed),
            "chained chime took {elapsed}"
        );

        let mut cpu2 = Cpu::new(quiet_config().without_chaining());
        let stats2 = cpu2.run(&p).unwrap();
        let elapsed2 = stats2.cycles - 1.0;
        assert!(
            (415.0..=425.0).contains(&elapsed2),
            "unchained chime took {elapsed2}"
        );
    }

    /// §3.3: with a second identical chime following, the second chime
    /// asymptotically costs VL + ΣB cycles.
    #[test]
    fn steady_state_chime_costs_vl_plus_bubbles() {
        let chime_loop = |iters: i64| {
            let mut b = ProgramBuilder::new();
            b.set_vl_imm(128);
            b.mov_int(iters, "s0");
            b.label("L");
            b.vload("a5", 0, "v0");
            b.vadd("v0", "v1", "v2");
            b.vmul("v2", "v3", "v5");
            b.int_op_imm("sub", 1, "s0");
            b.cmp_imm("lt", 0, "s0");
            b.branch_true("L");
            b.halt();
            b.build().unwrap()
        };
        let mut cpu = Cpu::new(quiet_config());
        let t20 = cpu.run(&chime_loop(20)).unwrap().cycles;
        let t60 = cpu.run(&chime_loop(60)).unwrap().cycles;
        // Each iteration is one chime {ld,add,mul}: ΣB = 2+1+1 = 4, so the
        // steady-state period is VL + ΣB = 132 cycles (§3.3: "the B
        // values add 4 cycles to each chime ... 132 cycles per
        // successive chime").
        let period = (t60 - t20) / 40.0;
        assert!(
            (131.5..=132.5).contains(&period),
            "steady chime period {period}, paper says 132"
        );
    }

    /// The paper's LFK1 assembly costs 527 cycles/iteration before
    /// refresh (§3.5) — four chimes of 131 + 132 + 132 + 132.
    #[test]
    fn lfk1_loop_costs_527_per_iteration_without_refresh() {
        let p = lfk1_program(40);
        let mut cpu = Cpu::new(quiet_config());
        cpu.set_areg(5, 0);
        cpu.set_sreg_fp(1, 2.0);
        cpu.set_sreg_fp(3, 3.0);
        cpu.set_sreg_fp(7, 4.0);
        cpu.set_sreg_int(0, 40 * 128);
        let stats = cpu.run(&p).unwrap();
        let per_iter = stats.cycles / 40.0;
        assert!(
            (525.0..=532.0).contains(&per_iter),
            "LFK1 iteration cost {per_iter}, paper says 527"
        );
    }

    /// Fast-forward telemetry is coherent: a steady loop warps at least
    /// once, probes at least as often as it warps, and skips
    /// instructions; with fast-forward off every counter is zero.
    #[test]
    fn ff_stats_report_probes_warps_and_skips() {
        let p = lfk1_program(40);
        let mut cpu = Cpu::new(quiet_config());
        cpu.set_sreg_int(0, 40 * 128);
        cpu.run(&p).unwrap();
        let stats = cpu.ff_stats();
        assert!(stats.warps >= 1, "steady LFK1 loop should warp: {stats:?}");
        assert!(stats.probes >= stats.warps, "{stats:?}");
        assert!(stats.skipped_instructions > 0, "{stats:?}");

        let mut exact = Cpu::new(SimConfig {
            fast_forward: false,
            ..quiet_config()
        });
        exact.set_sreg_int(0, 40 * 128);
        exact.run(&p).unwrap();
        assert_eq!(exact.ff_stats(), FfStats::default());
    }

    /// A loop that warps and then leaves its period mid-iteration, after
    /// a scalar store, a vector store over the line that store cached, a
    /// `SetVl` that shortens the vector length and a `Cmp` that clears
    /// the T flag. The warp has executed those steps when the branch
    /// leaves; timing them afterwards, each with the vector length it
    /// ran at, must give the exact run's timing, data and telemetry.
    #[test]
    fn warp_times_a_diverging_iteration_exactly() {
        use c240_obs::CounterProbe;
        let mut b = ProgramBuilder::new();
        b.mov_int(40 * 128 + 50, "s1");
        b.set_vl_imm(128);
        b.label("L");
        b.sstore("a4", "a5", 0);
        b.vstore("v0", "a2", 0);
        b.set_vl("s1");
        b.vadd("v0", "v1", "v0");
        b.int_op_imm("sub", 128, "s1");
        b.cmp_imm("lt", 0, "s1");
        b.branch_false("done");
        b.int_op_imm("add", 1, "a4");
        b.jump("L");
        b.label("done");
        b.vstore("v0", "a3", 0);
        b.halt();
        let p = b.build().unwrap();
        // The stored word shares a cache line with the vector store's
        // last two words (1002 + 126 and 127), so each vector store
        // invalidates it.
        let (vbase, word, out) = (1002, 1002 + 128, 4000);
        let run = |config: SimConfig| {
            let mut cpu = Cpu::new(config);
            cpu.set_areg(2, vbase * 8);
            cpu.set_areg(3, out * 8);
            cpu.set_areg(5, word * 8);
            cpu.set_vreg_fill(0, 1.0);
            cpu.set_vreg_fill(1, 0.5);
            let mut probe = CounterProbe::new();
            let stats = cpu.run_probed(&p, &mut probe).unwrap();
            let data: Vec<u64> = (0..out as u64 + 128)
                .map(|w| cpu.mem().peek(w).to_bits())
                .collect();
            let regs: Vec<u64> = (0..8)
                .map(|r| cpu.areg(r) as u64)
                .chain((0..8).map(|r| cpu.sreg_fp(r).to_bits()))
                .collect();
            (stats, probe, data, regs, cpu.ff_stats())
        };
        let (stats, probe, data, regs, ff) = run(quiet_config());
        let exact = run(quiet_config().without_fast_forward());
        // One warp from the 13th loop-head arrival skips the remaining 27
        // full iterations; the 28th replayed iteration is the one that
        // leaves the period.
        let warped = FfStats {
            probes: 13,
            warps: 1,
            skipped_instructions: 27 * 9,
        };
        assert_eq!(ff, warped);
        assert_eq!(stats.cache_misses, 41, "every scalar store misses");
        assert_eq!(stats, exact.0);
        assert_eq!(probe, exact.1);
        assert_eq!(data, exact.2);
        assert_eq!(regs, exact.3);
    }

    /// With refresh enabled the same loop costs ≈ 2% more (537.5), and
    /// the full measured time lands close to the paper's 545 (which
    /// includes effects our simulator also exhibits only partially).
    #[test]
    fn lfk1_loop_with_refresh_costs_about_537() {
        let p = lfk1_program(40);
        let mut cpu = Cpu::new(SimConfig::c240());
        cpu.set_areg(5, 0);
        cpu.set_sreg_fp(1, 2.0);
        cpu.set_sreg_fp(3, 3.0);
        cpu.set_sreg_fp(7, 4.0);
        cpu.set_sreg_int(0, 40 * 128);
        let stats = cpu.run(&p).unwrap();
        let per_iter = stats.cycles / 40.0;
        assert!(
            (533.0..=548.0).contains(&per_iter),
            "LFK1 iteration cost with refresh {per_iter}, paper bound 537.5, measured 545"
        );
    }

    /// Builds the paper's §3.5 LFK1 inner loop (3 loads, 3 muls, 2 adds,
    /// 1 store per strip) running `strips` strips of 128.
    fn lfk1_program(strips: u32) -> Program {
        let mut b = ProgramBuilder::new();
        b.mov_int((strips * 128) as i64, "s0");
        b.label("L7");
        b.set_vl("s0");
        b.vload("a5", 40120, "v0");
        b.vmul("v0", "s1", "v1");
        b.vload("a5", 40128, "v2");
        b.vmul("v2", "s3", "v0");
        b.vadd("v1", "v0", "v3");
        b.vload("a5", 32032, "v1");
        b.vmul("v1", "v3", "v2");
        b.vadd("v2", "s7", "v0");
        b.vstore("v0", "a5", 24024);
        b.int_op_imm("add", 1024, "a5");
        b.int_op_imm("sub", 128, "s0");
        b.cmp_imm("lt", 0, "s0");
        b.branch_true("L7");
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn functional_vector_add_and_store() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(4);
        b.vload("a1", 0, "v0");
        b.vload("a2", 0, "v1");
        b.vadd("v0", "v1", "v2");
        b.vmul("v2", "s1", "v3");
        b.vstore("v3", "a3", 0);
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        for i in 0..4 {
            cpu.mem_mut().poke(i, (i + 1) as f64);
            cpu.mem_mut().poke(100 + i, 10.0);
        }
        cpu.set_areg(1, 0);
        cpu.set_areg(2, 800);
        cpu.set_areg(3, 1600);
        cpu.set_sreg_fp(1, 2.0);
        cpu.run(&p).unwrap();
        for i in 0..4u64 {
            assert_eq!(cpu.mem().peek(200 + i), 2.0 * (i as f64 + 1.0 + 10.0));
        }
    }

    #[test]
    fn strided_load_gathers() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(3);
        b.vload_strided("a1", 0, 5, "v0");
        b.vstore("v0", "a2", 0);
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        for i in 0..16 {
            cpu.mem_mut().poke(i, i as f64);
        }
        cpu.set_areg(1, 0);
        cpu.set_areg(2, 800);
        cpu.run(&p).unwrap();
        assert_eq!(cpu.mem().peek(100), 0.0);
        assert_eq!(cpu.mem().peek(101), 5.0);
        assert_eq!(cpu.mem().peek(102), 10.0);
    }

    #[test]
    fn reduction_sums_elements() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(8);
        b.vload("a1", 0, "v0");
        b.vsum("v0", "s2");
        b.mov_fp(100.0, "s3");
        b.vradd("v0", "s3");
        b.vrsub("v0", "s3");
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        for i in 0..8 {
            cpu.mem_mut().poke(i, (i + 1) as f64);
        }
        cpu.set_areg(1, 0);
        cpu.run(&p).unwrap();
        assert_eq!(cpu.sreg_fp(2), 36.0);
        assert_eq!(cpu.sreg_fp(3), 100.0); // +36 then -36
    }

    #[test]
    fn reduction_is_slower_than_add() {
        // Z = 1.35 for reductions: a VL=128 sum takes noticeably longer
        // than a VL=128 elementwise add.
        let mut b1 = ProgramBuilder::new();
        b1.set_vl_imm(128);
        b1.vsum("v0", "s2");
        b1.halt();
        let mut b2 = ProgramBuilder::new();
        b2.set_vl_imm(128);
        b2.vadd("v0", "v1", "v2");
        b2.halt();
        let mut cpu = Cpu::new(quiet_config());
        let t_sum = cpu.run(&b1.build().unwrap()).unwrap().cycles;
        let t_add = cpu.run(&b2.build().unwrap()).unwrap().cycles;
        assert!(t_sum > t_add + 40.0, "sum {t_sum} vs add {t_add}");
    }

    #[test]
    fn scalar_load_splits_vector_memory_stream() {
        // Two vector loads with a scalar load between them: the scalar
        // access must wait for the first vector load to drain and fences
        // the second one — two separate chimes plus the scalar access.
        let mut with_split = ProgramBuilder::new();
        with_split.set_vl_imm(128);
        with_split.vload("a1", 0, "v0");
        with_split.sload("a2", 0, "s1");
        with_split.vload("a1", 8192, "v1");
        with_split.halt();
        let mut without = ProgramBuilder::new();
        without.set_vl_imm(128);
        without.vload("a1", 0, "v0");
        without.vload("a1", 8192, "v1");
        without.sload("a2", 0, "s1");
        without.halt();
        let mut cpu = Cpu::new(quiet_config());
        cpu.set_areg(2, 80000);
        let t_split = cpu.run(&with_split.build().unwrap()).unwrap().cycles;
        let mut cpu2 = Cpu::new(quiet_config());
        cpu2.set_areg(2, 80000);
        let t_clean = cpu2.run(&without.build().unwrap()).unwrap().cycles;
        assert!(
            t_split > t_clean + 2.0,
            "split {t_split} should exceed clean {t_clean}"
        );
    }

    #[test]
    fn register_pair_conflict_delays_start() {
        // mul.d v6,v1,v4 after add.d v2,v6,v6: three reads of pair
        // {v2,v6} among concurrent instructions → no chime sharing (§3.3).
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(128);
        b.vadd("v2", "v6", "v6");
        b.vmul("v6", "v1", "v4");
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        let t_constrained = cpu.run(&p).unwrap().cycles;
        let mut cpu2 = Cpu::new(quiet_config().without_pair_constraint());
        let t_free = cpu2.run(&p).unwrap().cycles;
        assert!(
            t_constrained > t_free + 60.0,
            "pair constraint {t_constrained} vs unconstrained {t_free}"
        );
    }

    #[test]
    fn divide_is_long_but_maskable() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(128);
        b.vdiv("v0", "v1", "v2");
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        cpu.set_sreg_fp(0, 1.0);
        let t = cpu.run(&p).unwrap().cycles;
        // X + Y + Z·VL = 2 + 72 + 4·128 = 586 (last result lands at
        // entry + Z·(VL-1) + Y = 583 with the set-vl issue cycle).
        assert!((580.0..=590.0).contains(&t), "divide took {t}");
    }

    #[test]
    fn scalar_loop_runs_functionally() {
        let mut b = ProgramBuilder::new();
        b.mov_int(0, "s1");
        b.mov_int(10, "s0");
        b.label("L");
        b.int_op_imm("add", 3, "s1");
        b.int_op_imm("sub", 1, "s0");
        b.cmp_imm("lt", 0, "s0");
        b.branch_true("L");
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        let stats = cpu.run(&p).unwrap();
        assert_eq!(cpu.sreg_fp(1).to_bits() as i64, 30); // raw int in s1
        assert_eq!(stats.branches_taken, 9);
    }

    #[test]
    fn scalar_fp_ops() {
        let mut b = ProgramBuilder::new();
        b.mov_fp(6.0, "s1");
        b.mov_fp(4.0, "s2");
        b.fp_op("add", "s1", "s2", "s3");
        b.fp_op("sub", "s1", "s2", "s4");
        b.fp_op("mul", "s1", "s2", "s5");
        b.fp_op("div", "s1", "s2", "s6");
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        cpu.run(&p).unwrap();
        assert_eq!(cpu.sreg_fp(3), 10.0);
        assert_eq!(cpu.sreg_fp(4), 2.0);
        assert_eq!(cpu.sreg_fp(5), 24.0);
        assert_eq!(cpu.sreg_fp(6), 1.5);
    }

    #[test]
    fn scalar_memory_roundtrip() {
        let mut b = ProgramBuilder::new();
        b.mov_fp(7.5, "s1");
        b.sstore("s1", "a0", 40);
        b.sload("a0", 40, "s2");
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        cpu.run(&p).unwrap();
        assert_eq!(cpu.sreg_fp(2), 7.5);
        assert_eq!(cpu.mem().peek(5), 7.5);
    }

    #[test]
    fn address_loads_convert() {
        let mut b = ProgramBuilder::new();
        b.sload("a0", 0, "a1");
        b.set_vl_imm(1);
        b.vload("a1", 0, "v0");
        b.vstore("v0", "a2", 0);
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        cpu.mem_mut().poke(0, 800.0); // byte address 800 = word 100
        cpu.mem_mut().poke(100, 3.25);
        cpu.set_areg(2, 4000);
        cpu.run(&p).unwrap();
        assert_eq!(cpu.areg(1), 800);
        assert_eq!(cpu.mem().peek(500), 3.25);
    }

    /// `ld.w 0(a1),a1` reads its address before overwriting `a1`: the
    /// loaded value is no valid address, yet the access and its timing
    /// use the old one.
    #[test]
    fn load_into_its_own_base_register_uses_the_old_address() {
        let mut b = ProgramBuilder::new();
        b.sload("a1", 0, "a1");
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        cpu.mem_mut().poke(100, -8.0);
        cpu.set_areg(1, 800);
        let stats = cpu.run(&p).unwrap();
        assert_eq!(cpu.areg(1), -8);
        assert_eq!((stats.cache_misses, stats.memory_accesses), (1, 1));
    }

    /// A loop that never ends hits the instruction limit. With
    /// fast-forward on, the instruction budget caps the warp's `k` and
    /// exact stepping then reaches the same limit.
    #[test]
    fn runaway_loop_hits_instruction_limit() {
        let mut b = ProgramBuilder::new();
        b.label("L");
        b.nop();
        b.jump("L");
        let p = b.build().unwrap();
        let mut config = quiet_config();
        config.max_instructions = 1000;
        for config in [config.clone(), config.without_fast_forward()] {
            let mut cpu = Cpu::new(config.clone());
            let err = cpu.run(&p).unwrap_err();
            assert_eq!(err, SimError::InstructionLimit { limit: 1000 });
            let ff = cpu.ff_stats();
            assert_eq!(ff.warps > 0, config.fast_forward, "{ff:?}");
        }
    }

    #[test]
    fn falling_off_end_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        assert!(matches!(
            cpu.run(&p).unwrap_err(),
            SimError::FellOffEnd { pc: 1 }
        ));
    }

    #[test]
    fn trace_records_vector_instructions() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(16);
        b.vload("a0", 0, "v0");
        b.vadd("v0", "v0", "v1");
        b.halt();
        let p = b.build().unwrap();
        let mut trace = Trace::default();
        Cpu::new(quiet_config()).run_probed(&p, &mut trace).unwrap();
        assert_eq!(trace.events().len(), 2);
        assert!(trace.events()[0].text.contains("ld.l"));
        assert_eq!(trace.events()[0].pipe, Pipe::LoadStore);
        assert_eq!(trace.events()[1].pipe, Pipe::Add);
        assert_eq!(trace.events()[1].vl, 16);
    }

    /// A probe observes without steering. Probed and unprobed runs take
    /// the same grant path, the one stream walker, so the probe must
    /// leave the cycle count alone, and each lane's account must
    /// partition the wall clock exactly.
    #[test]
    fn probed_run_matches_unprobed_and_partitions_wallclock() {
        use c240_obs::CounterProbe;
        let p = lfk1_program(10);
        let setup = |cpu: &mut Cpu| {
            cpu.set_areg(5, 0);
            cpu.set_sreg_fp(1, 2.0);
            cpu.set_sreg_fp(3, 3.0);
            cpu.set_sreg_fp(7, 4.0);
            cpu.set_sreg_int(0, 10 * 128);
        };
        let mut plain = Cpu::new(SimConfig::c240());
        setup(&mut plain);
        let base = plain.run(&p).unwrap();

        let mut cpu = Cpu::new(SimConfig::c240());
        setup(&mut cpu);
        let mut probe = CounterProbe::new();
        let stats = cpu.run_probed(&p, &mut probe).unwrap();

        // Observation must not perturb the model.
        assert_eq!(stats.cycles, base.cycles);

        // Every lane's account partitions the wall clock exactly.
        for (lane, acct) in probe.lanes() {
            let accounted = acct.accounted();
            assert!(
                (accounted - stats.cycles).abs() < 1e-6 * stats.cycles.max(1.0),
                "lane {lane}: accounted {accounted} != cycles {}",
                stats.cycles
            );
        }

        // The memory-wait causes seen by the probe equal the memory
        // system's own breakdown (vector lanes only touch vector memory
        // here; LFK1 has no scalar memory traffic in the loop).
        let totals = probe.totals();
        assert!(
            (totals.memory_wait() - stats.memory_wait_cycles).abs() < 1e-9,
            "probe memory wait {} vs stats {}",
            totals.memory_wait(),
            stats.memory_wait_cycles
        );
        assert!(
            (stats.memory_waits.total() - stats.memory_wait_cycles).abs() < 1e-12,
            "breakdown total {} vs wait {}",
            stats.memory_waits.total(),
            stats.memory_wait_cycles
        );

        // LFK1 runs chained chimes: refresh and tailgate bubbles must
        // both show up in the attribution.
        assert!(totals.get(StallCause::Refresh) > 0.0);
        assert!(totals.get(StallCause::TailgateBubble) > 0.0);
    }

    #[test]
    fn trace_events_carry_their_pc() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(16);
        b.vload("a0", 0, "v0");
        b.vadd("v0", "v0", "v1");
        b.halt();
        let p = b.build().unwrap();
        let mut trace = Trace::default();
        Cpu::new(quiet_config()).run_probed(&p, &mut trace).unwrap();
        let pcs: Vec<usize> = trace.events().iter().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![1, 2]);
    }

    #[test]
    fn trace_respects_configured_cap() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(8);
        b.mov_int(6, "s0");
        b.label("L");
        b.vadd("v0", "v0", "v1");
        b.int_op_imm("sub", 1, "s0");
        b.cmp_imm("lt", 0, "s0");
        b.branch_true("L");
        b.halt();
        let p = b.build().unwrap();
        let mut trace = Trace::with_cap(2);
        Cpu::new(quiet_config()).run_probed(&p, &mut trace).unwrap();
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 4);
    }

    #[test]
    fn ablations_zero_their_stall_category() {
        use c240_obs::CounterProbe;
        let p = lfk1_program(4);
        let run_with = |config: SimConfig| {
            let mut cpu = Cpu::new(config);
            cpu.set_areg(5, 0);
            cpu.set_sreg_fp(1, 2.0);
            cpu.set_sreg_fp(3, 3.0);
            cpu.set_sreg_fp(7, 4.0);
            cpu.set_sreg_int(0, 4 * 128);
            let mut probe = CounterProbe::new();
            cpu.run_probed(&p, &mut probe).unwrap();
            probe.totals()
        };
        let no_refresh = run_with(SimConfig::c240().without_refresh());
        assert_eq!(no_refresh.get(StallCause::Refresh), 0.0);
        let no_bubbles = run_with(SimConfig::c240().without_bubbles());
        assert_eq!(no_bubbles.get(StallCause::TailgateBubble), 0.0);
        // The full machine shows both.
        let full = run_with(SimConfig::c240());
        assert!(full.get(StallCause::Refresh) > 0.0);
        assert!(full.get(StallCause::TailgateBubble) > 0.0);
    }

    #[test]
    fn scalar_mem_lane_accounts_cache_misses() {
        use c240_obs::CounterProbe;
        let mut b = ProgramBuilder::new();
        b.sload("a0", 0, "s1"); // cold: miss
        b.sload("a0", 0, "s2"); // warm: hit
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        let mut probe = CounterProbe::new();
        let stats = cpu.run_probed(&p, &mut probe).unwrap();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        let acct = probe.lane(Lane::ScalarMem);
        let miss_penalty = cpu.config().machine.cache_miss_penalty as f64;
        assert!(
            (acct.stalls.get(StallCause::ScalarCacheMiss) - miss_penalty).abs() < 1e-9,
            "miss penalty attribution: {}",
            acct.stalls.get(StallCause::ScalarCacheMiss)
        );
        // Two accesses each pay the hit latency as busy time.
        let hit = cpu.config().machine.cache_hit_latency as f64;
        assert!((acct.busy - 2.0 * hit).abs() < 1e-9, "busy {}", acct.busy);
    }

    #[test]
    fn stats_count_elements_and_flops() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(64);
        b.vload("a0", 0, "v0");
        b.vmul("v0", "v0", "v1");
        b.vadd("v1", "v0", "v2");
        b.vstore("v2", "a1", 8192);
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet_config());
        let stats = cpu.run(&p).unwrap();
        assert_eq!(stats.elements_on(Pipe::LoadStore), 128);
        assert_eq!(stats.elements_on(Pipe::Add), 64);
        assert_eq!(stats.elements_on(Pipe::Multiply), 64);
        assert_eq!(stats.flops, 128);
        assert_eq!(stats.instructions.vector_mem, 2);
        assert_eq!(stats.instructions.vector_fp, 2);
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use c240_isa::asm::assemble;
    use c240_isa::{Pipe, ProgramBuilder};

    fn quiet() -> SimConfig {
        SimConfig::c240().without_refresh()
    }

    #[test]
    fn unaligned_scalar_address_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.mov_int(3, "a0"); // not 8-byte aligned
        b.sload("a0", 0, "s1");
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet());
        assert!(matches!(
            cpu.run(&p).unwrap_err(),
            SimError::BadAddress { byte_addr: 3 }
        ));
    }

    #[test]
    fn negative_scalar_address_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.mov_int(-8, "a0");
        b.sstore("s0", "a0", 0);
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet());
        assert!(matches!(
            cpu.run(&p).unwrap_err(),
            SimError::BadAddress { byte_addr: -8 }
        ));
    }

    #[test]
    fn zero_vl_vector_ops_are_cheap_nops() {
        let p = assemble(
            "mov #0,vl
             ld.l 0(a1),v0
             add.d v0,v0,v1
             mul.d v1,v1,v2
             st.l v2,0(a2)
             sum.d v0,s1
             halt",
        )
        .unwrap();
        let mut cpu = Cpu::new(quiet());
        let stats = cpu.run(&p).unwrap();
        // Only issue slots: no elements, no flops, no memory traffic.
        assert_eq!(stats.flops, 0);
        assert_eq!(stats.memory_accesses, 0);
        assert!(stats.cycles < 10.0, "{}", stats.cycles);
    }

    #[test]
    fn vl_clamps_to_hardware_maximum() {
        let p = assemble(
            "mov #4000,s0
             mov s0,vl
             ld.l 0(a1),v0
             halt",
        )
        .unwrap();
        let mut cpu = Cpu::new(quiet());
        let stats = cpu.run(&p).unwrap();
        assert_eq!(stats.elements_on(Pipe::LoadStore), 128);
    }

    #[test]
    fn negative_count_clamps_vl_to_zero() {
        let p = assemble(
            "mov #-5,s0
             mov s0,vl
             ld.l 0(a1),v0
             halt",
        )
        .unwrap();
        let mut cpu = Cpu::new(quiet());
        let stats = cpu.run(&p).unwrap();
        assert_eq!(stats.elements_on(Pipe::LoadStore), 0);
    }

    #[test]
    fn smov_between_register_files() {
        let p = assemble(
            "mov #816,a1
             mov a1,s3
             mov s3,a2
             halt",
        )
        .unwrap();
        let mut cpu = Cpu::new(quiet());
        cpu.run(&p).unwrap();
        assert_eq!(cpu.areg(2), 816);
    }

    #[test]
    fn branch_false_falls_through_and_takes() {
        let p = assemble(
            "   mov #1,s0
                lt.w #0,s0      ; T = true
                jbrs.f skip     ; not taken
                mov #7,a1
            skip:
                gt.w #0,s0      ; T = false (0 > 1 is false)
                jbrs.f end      ; taken
                mov #9,a1
            end:
                halt",
        )
        .unwrap();
        let mut cpu = Cpu::new(quiet());
        let stats = cpu.run(&p).unwrap();
        assert_eq!(cpu.areg(1), 7);
        assert_eq!(stats.branches_taken, 1);
    }

    #[test]
    fn strided_store_scatters() {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(3);
        b.vload("a1", 0, "v0");
        b.vstore_strided("v0", "a2", 0, 4);
        b.halt();
        let p = b.build().unwrap();
        let mut cpu = Cpu::new(quiet());
        for i in 0..3 {
            cpu.mem_mut().poke(i, (i + 1) as f64);
        }
        cpu.set_areg(2, 800);
        cpu.run(&p).unwrap();
        assert_eq!(cpu.mem().peek(100), 1.0);
        assert_eq!(cpu.mem().peek(104), 2.0);
        assert_eq!(cpu.mem().peek(108), 3.0);
        assert_eq!(cpu.mem().peek(101), 0.0);
    }

    #[test]
    fn vector_store_invalidates_scalar_cache() {
        // Scalar load warms the cache; a vector store overwrites the
        // word; the next scalar load must see the new value.
        let p = assemble(
            "   ld.d 0(a1),s1
                mov #1,vl
                ld.l 64(a1),v0
                st.l v0,0(a1)
                ld.d 0(a1),s2
                halt",
        )
        .unwrap();
        let mut cpu = Cpu::new(quiet());
        cpu.mem_mut().poke(0, 5.0);
        cpu.mem_mut().poke(8, 9.0);
        cpu.run(&p).unwrap();
        assert_eq!(cpu.sreg_fp(1), 5.0);
        assert_eq!(cpu.sreg_fp(2), 9.0);
    }

    #[test]
    fn cloned_cpu_is_independent() {
        let mut a = Cpu::new(quiet());
        a.mem_mut().poke(0, 1.0);
        let mut b = a.clone();
        b.mem_mut().poke(0, 2.0);
        assert_eq!(a.mem().peek(0), 1.0);
        assert_eq!(b.mem().peek(0), 2.0);
    }

    #[test]
    fn stats_display_mentions_mflops() {
        let p = assemble("mov #8,vl\nadd.d v0,v0,v1\nhalt").unwrap();
        let mut cpu = Cpu::new(quiet());
        let stats = cpu.run(&p).unwrap();
        assert!(stats.to_string().contains("MFLOPS"));
        assert!(stats.mflops() > 0.0);
    }

    const SMALL_WORDS: u64 = 4096;

    /// Runs `program` with `a1 = a1` on a `SMALL_WORDS`-word memory,
    /// with fast-forward on and then off, and returns both errors.
    fn run_err(program: &Program, a1: i64) -> [(SimError, FfStats); 2] {
        let mut config = quiet();
        config.machine.words = SMALL_WORDS;
        [config.clone(), config.without_fast_forward()].map(|config| {
            let mut cpu = Cpu::new(config);
            cpu.set_areg(1, a1);
            let err = cpu.run(program).unwrap_err();
            (err, cpu.ff_stats())
        })
    }

    /// One vector load or store of `vl` elements at `stride` words.
    fn one_access(store: bool, vl: u32, stride: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.set_vl_imm(vl);
        if store {
            b.vstore_strided("v0", "a1", 0, stride);
        } else {
            b.vload_strided("a1", 0, stride, "v0");
        }
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn bad_vector_addresses_are_errors() {
        let near_end = (SMALL_WORDS as i64 - 4) * 8;
        // (a1, stride, offending byte address)
        let cases = [
            (4, 1, 4),                       // unaligned base
            (-8, 1, -8),                     // negative base
            (16, -1, -40),                   // element 7 walks to word -5
            (near_end, 1, near_end + 7 * 8), // element 7 is past the end
        ];
        for store in [false, true] {
            for (a1, stride, byte_addr) in cases {
                for (err, _) in run_err(&one_access(store, 8, stride), a1) {
                    assert_eq!(
                        err,
                        SimError::BadAddress { byte_addr },
                        "store {store} a1 {a1} stride {stride}"
                    );
                }
            }
            // The same stream walking down from there stays inside, and
            // at VL 0 no address is checked at all.
            for (a1, vl, stride) in [(near_end, 8, -1), (-8, 0, 1), (4, 0, 1)] {
                let mut config = quiet();
                config.machine.words = SMALL_WORDS;
                let mut cpu = Cpu::new(config);
                cpu.set_areg(1, a1);
                cpu.run(&one_access(store, vl, stride)).unwrap();
            }
        }
    }

    /// A strip loop whose stream walks one strip per iteration until it
    /// leaves the data space: fast-forward warps over the in-range
    /// strips, and the warp replay must hand the bad strip back to exact
    /// stepping, which reports it instead of panicking.
    #[test]
    fn strip_loop_running_off_memory_is_an_error() {
        let strip_bytes = 128 * 8;
        for store in [false, true] {
            for (a1, step, byte_addr) in [
                (0, strip_bytes, SMALL_WORDS as i64 * 8),
                ((SMALL_WORDS as i64 - 128) * 8, -strip_bytes, -strip_bytes),
            ] {
                let mut b = ProgramBuilder::new();
                b.set_vl_imm(128);
                b.mov_int(1000, "s0");
                b.label("L");
                if store {
                    b.vstore("v0", "a1", 0);
                } else {
                    b.vload("a1", 0, "v0");
                }
                b.int_op_imm("add", step, "a1");
                b.int_op_imm("sub", 1, "s0");
                b.cmp_imm("lt", 0, "s0");
                b.branch_true("L");
                b.halt();
                let p = b.build().unwrap();
                let [(ff_err, ff), (exact_err, exact)] = run_err(&p, a1);
                assert_eq!(ff_err, SimError::BadAddress { byte_addr });
                assert_eq!(exact_err, ff_err);
                assert!(ff.warps > 0, "fast-forward never warped: {ff:?}");
                assert_eq!(exact.warps, 0);
            }
        }
    }

    #[test]
    fn scalar_address_past_the_end_is_an_error() {
        let byte_addr = SMALL_WORDS as i64 * 8;
        for store in [false, true] {
            let mut b = ProgramBuilder::new();
            if store {
                b.sstore("s0", "a1", 0);
            } else {
                b.sload("a1", 0, "s0");
            }
            b.halt();
            for (err, _) in run_err(&b.build().unwrap(), byte_addr) {
                assert_eq!(err, SimError::BadAddress { byte_addr });
            }
        }
    }
}
