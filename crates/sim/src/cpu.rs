//! The cycle-level CPU model: in-order single issue, an Address/Scalar
//! Unit, and a Vector Processor with three chained pipes.
//!
//! # Timing model
//!
//! Element `e` of a vector instruction *enters* its pipe at
//!
//! ```text
//! entry(e) = max(entry(e-1) + Z,
//!                operand element e available      (chaining),
//!                bank/refresh/contention grant     (memory ops))
//! entry(0) additionally waits for: issue completion (X cycles),
//!                pipe availability (tailgating), the scalar-memory fence,
//!                and the register-pair port constraint
//! ```
//!
//! and its result is available `Y` cycles later. When an instruction
//! enters a pipe behind a previous instruction, its restart handshake
//! stalls the VP's element advance for `B` cycles — charged to **all**
//! pipes — so a steady-state chime costs `Z·VL + Σᵢ Bᵢ` cycles exactly as
//! the paper's Eq. 13 prescribes, and a full LFK1 iteration costs the
//! paper's 527 cycles before refresh.
//!
//! # One path per vector instruction
//!
//! Every vector instruction runs the same skeleton. Its executor waits
//! for its own scalar operands and computes its own entry terms, then
//! [`Cpu::vector_enter`] issues it: reservation station, X overhead, the
//! `max` above, register-pair admission and stall attribution. The
//! executor steps its elements, and [`Cpu::vector_retire`] does the
//! shared bookkeeping: lane busy time, element and flop counts, pipe
//! availability, bubbles and the probe's [`Probe::vector`] event, which
//! is how a [`crate::Trace`] records the pipeline. Arithmetic and reductions
//! time their elements a register row at a time. Each row carries an
//! exact summary (a [`TimingRow`]'s line and ceiling), and when the
//! summaries prove every row feeding the entries at or below the line
//! `entry0 + e·Z`, each element's pacing term already covers its operands,
//! so the entries are that line: [`Cpu::time_straight`] writes the rows as
//! straight fills, with no chain wait. Otherwise [`Cpu::time_elements`]
//! takes the `max` of the rows and one serial scan ([`entry_scan`]), as
//! exact stepping always did. Loads and stores are granted by the memory
//! system's one stream walker, [`MemorySystem::grant_stream`], which
//! grants the regular stretches of a stream in runs; their sinks write the
//! rows and report whether the grants form a line, and
//! [`Cpu::vector_stream`] attributes their waits.
//!
//! # One data semantics, one timing-field walk
//!
//! Each instruction's data effects exist once, in [`Cpu::execute`]:
//! register and memory values, scalar-cache tags and hit/miss counts,
//! the instruction, element, flop and branch counts, and the next pc. It
//! returns what the instruction [`Touched`] (a vector stream's first word,
//! stride and length; a scalar access's word, cache outcome and
//! direction; a taken branch). Exact stepping runs `execute` and then
//! [`Cpu::time`], which does timing only and reads addresses from that
//! return value. The fast-forward warp replays a recorded period through
//! the same `execute` and compares each step's [`Cpu::step_check`] with
//! the one recorded. It never undoes a step: when an iteration leaves the
//! recorded path, the steps it already executed are timed afterwards, as
//! exact stepping would have timed them. Everything fast-forward
//! translates is walked by one visitor, [`Cpu::ff_fields`], clock first:
//! the CPU's timing state, the memory system's bank times, wait totals
//! and access count, and the probe's counters. The snapshot reads
//! through it and the warp's shift translates through it.
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

use c240_isa::timing::{self, TimingClass, VectorTicks, TICKS_PER_CYCLE};
use c240_isa::{
    AReg, Instruction, IntOperand, MemRef, Pipe, Program, SReg, ScalarReg, ScalarValue, VOperand,
    VReg, MAX_VL, WORD_BYTES,
};
use c240_mem::{MemorySystem, ScalarCache, StreamGrants, WaitTicks};
use c240_obs::{Lane, NoProbe, Probe, StallCause};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::fastfwd::{
    hash_words, ArrivalAction, FastForward, PeriodRecord, Snapshot, SnapshotWhy, Step, StepCheck,
};
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
            issue: timing::ticks(scalar.issue),
            branch_taken_penalty: timing::ticks(scalar.branch_taken_penalty),
            int_latency: timing::ticks(scalar.int_latency),
            fp_add_latency: timing::ticks(scalar.fp_add_latency),
            fp_mul_latency: timing::ticks(scalar.fp_mul_latency),
            fp_div_latency: timing::ticks(scalar.fp_div_latency),
            cache_hit: timing::ticks(machine.cache_hit_latency as f64),
            cache_miss: timing::ticks(machine.cache_miss_penalty as f64),
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

/// Result of scheduling one vector instruction's element stream.
struct Schedule {
    entry0: i64,
    last_entry: i64,
    first_result: i64,
    last_result: i64,
}

impl Schedule {
    /// A stream whose every element's result follows its entry by `y`.
    fn stream(entry0: i64, last_entry: i64, y: i64) -> Self {
        Schedule {
            entry0,
            last_entry,
            first_result: entry0 + y,
            last_result: last_entry + y,
        }
    }
}

/// A vector instruction between [`Cpu::vector_enter`] and
/// [`Cpu::vector_retire`]: its pipe and timing, when its issue began, and
/// when its first element entered the pipe.
#[derive(Clone, Copy)]
struct Entered {
    pipe: Pipe,
    timing: VectorTicks,
    issue_start: i64,
    entry0: i64,
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

    // Steady-state fast-forward detector (see `fastfwd` module).
    ff: FastForward,
    // Instructions skipped analytically by fast-forward in the last run.
    ff_skipped: u64,
    // Backward-branch arrivals the detector examined in the last run.
    ff_probes: u64,
    // Warps that actually skipped iterations in the last run.
    ff_warps: u64,
}

/// Fast-forward telemetry for one run: how often the steady-state
/// detector probed a loop head, how often a verified period actually
/// warped, and how many instructions the warps skipped. The hit/miss
/// split (`warps` vs `probes`) is what the sweep service's metrics plane
/// exports — a sweep whose points never warp is paying full element
/// stepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FfStats {
    /// Taken-backward-branch arrivals the detector examined.
    pub probes: u64,
    /// Warps that skipped at least one iteration (fast-forward hits).
    pub warps: u64,
    /// Instructions skipped analytically across all warps.
    pub skipped_instructions: u64,
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
        let mem = MemorySystem::new(config.mem_config());
        let cache = ScalarCache::new(config.cache_config());
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
            ff: FastForward::new(),
            ff_skipped: 0,
            ff_probes: 0,
            ff_warps: 0,
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
        self.ff = FastForward::new();
        self.ff_skipped = 0;
        self.ff_probes = 0;
        self.ff_warps = 0;
    }

    /// Fast-forward telemetry for the last run (probe/warp/skip counts).
    /// Skipped instructions are still fully accounted in the run's
    /// statistics; the counts only reveal how much exact stepping was
    /// avoided.
    pub fn ff_stats(&self) -> FfStats {
        FfStats {
            probes: self.ff_probes,
            warps: self.ff_warps,
            skipped_instructions: self.ff_skipped,
        }
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
    /// [`StallCause`], or idle, so that per lane
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
        self.stats.cycles = timing::cycles(total);
        self.stats.memory_accesses = self.mem.access_count();
        self.stats.memory_wait_cycles = self.mem.wait_cycles();
        self.stats.memory_waits = self.mem.wait_breakdown();
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

    // ---- data semantics -------------------------------------------------

    /// The data semantics of one instruction, the one copy exact stepping
    /// and the fast-forward warp share: register and memory values,
    /// scalar-cache tags and hit/miss counts, the instruction, element,
    /// flop and branch counts, and the next pc. Returns the next pc and
    /// what the instruction [`Touched`]; every address in it was read
    /// before the instruction overwrote its base register.
    ///
    /// A zero-length vector instruction moves no data and checks no
    /// address; a load or store still reports its first element's word,
    /// or `None` for a bad one.
    fn execute(
        &mut self,
        ins: &Instruction,
        pc: usize,
        program: &Program,
    ) -> Result<(usize, Touched), SimError> {
        use Instruction::*;
        self.stats.instructions.bump(ins.class());
        let vl = self.vl;
        let n = vl as usize;
        let touched = match *ins {
            VLoad { addr, .. } | VStore { addr, .. } if n == 0 => Touched::Stream {
                base: self.vector_base(addr).ok(),
                stride: addr.stride.words(),
                vl,
            },
            _ if n == 0 && ins.is_vector() => Touched::Vector { vl },
            VLoad { addr, dst } => {
                let (base, stride) = (self.vector_base(addr)?, addr.stride.words());
                let row = &mut self.vdata[usize::from(dst.index())][..n];
                if stride == 1 {
                    let read = self.mem.read_run(base as u64, row);
                    assert!(read, "vector_base checked the run");
                } else {
                    for (e, value) in row.iter_mut().enumerate() {
                        *value = self.mem.peek(element_addr(base, stride, e));
                    }
                }
                Touched::Stream {
                    base: Some(base),
                    stride,
                    vl,
                }
            }
            VStore { src, addr } => {
                let (base, stride) = (self.vector_base(addr)?, addr.stride.words());
                let values = &self.vdata[usize::from(src.index())][..n];
                if stride == 1 {
                    self.mem.store_run(base as u64, values);
                    self.cache.invalidate_run(base as u64, n);
                } else {
                    self.mem.store_strided(base as u64, stride, values);
                    for e in 0..n {
                        self.cache.invalidate(element_addr(base, stride, e));
                    }
                }
                Touched::Stream {
                    base: Some(base),
                    stride,
                    vl,
                }
            }
            VAdd { a, b, dst } => self.vector_map(a, b, dst, |x, y| x + y),
            VSub { a, b, dst } => self.vector_map(a, b, dst, |x, y| x - y),
            VMul { a, b, dst } => self.vector_map(a, b, dst, |x, y| x * y),
            VDiv { a, b, dst } => self.vector_map(a, b, dst, |x, y| x / y),
            VNeg { src, dst } => {
                self.vector_map(VOperand::V(src), VOperand::V(src), dst, |x, _| -x)
            }
            VSum { src, dst } => self.vector_sum(src, dst, false, 1.0),
            VRAdd { src, acc } => self.vector_sum(src, acc, true, 1.0),
            VRSub { src, acc } => self.vector_sum(src, acc, true, -1.0),
            SetVl { src } => {
                let count = self.s[usize::from(src.index())] as i64;
                self.vl = count.clamp(0, i64::from(MAX_VL)) as u32;
                Touched::Regs
            }
            SetVlImm { value } => {
                self.vl = value.min(MAX_VL);
                Touched::Regs
            }
            SMovImm { value, dst } => {
                let bits = match value {
                    ScalarValue::Int(i) => i as u64,
                    ScalarValue::Fp(x) => x.to_bits(),
                };
                self.set_reg(dst, bits);
                Touched::Regs
            }
            SMov { src, dst } => {
                self.set_reg(dst, self.reg_bits(src));
                Touched::Regs
            }
            SIntOp { op, src, dst } => {
                let value = op.apply(self.reg_bits(dst) as i64, self.int_operand(src));
                self.set_reg(dst, value as u64);
                Touched::Regs
            }
            SFpOp { op, a, b, dst } => {
                let va = f64::from_bits(self.s[usize::from(a.index())]);
                let vb = f64::from_bits(self.s[usize::from(b.index())]);
                self.s[usize::from(dst.index())] = op.apply(va, vb).to_bits();
                Touched::Regs
            }
            SLoad { addr, dst } => {
                let word = self.scalar_addr(addr)?;
                let hit = self.cache.access(word);
                self.set_reg(dst, encode_loaded(dst, self.mem.peek(word)));
                Touched::Scalar {
                    word,
                    hit,
                    store: false,
                }
            }
            SStore { src, addr } => {
                let word = self.scalar_addr(addr)?;
                let hit = self.cache.access(word);
                let bits = self.reg_bits(src);
                let value = match src {
                    ScalarReg::S(_) => f64::from_bits(bits),
                    ScalarReg::A(_) => bits as i64 as f64,
                };
                self.mem.poke(word, value);
                Touched::Scalar {
                    word,
                    hit,
                    store: true,
                }
            }
            Cmp { op, lhs, rhs } => {
                self.tflag = op.apply(self.int_operand(lhs), self.reg_bits(rhs) as i64);
                Touched::Regs
            }
            BranchT { ref target } | BranchF { ref target } | Jump { ref target } => {
                let take = match ins {
                    BranchT { .. } => self.tflag,
                    BranchF { .. } => !self.tflag,
                    _ => true,
                };
                if take {
                    self.stats.branches_taken += 1;
                    return Ok((self.resolve(program, target), Touched::Taken));
                }
                Touched::Regs
            }
            Halt | Nop => Touched::Regs,
            _ => return Err(SimError::Unsupported { pc }),
        };
        if let Some(pipe) = ins.pipe() {
            self.stats.elements[pipe.index()] += n as u64;
            // Every element through the add or multiply pipe is one flop.
            if pipe != Pipe::LoadStore {
                self.stats.flops += n as u64;
            }
        }
        Ok((pc + 1, touched))
    }

    /// `dst[e] = f(a[e], b[e])` over the vector length, for
    /// [`Cpu::execute`].
    fn vector_map(
        &mut self,
        a: VOperand,
        b: VOperand,
        dst: VReg,
        f: impl Fn(f64, f64) -> f64,
    ) -> Touched {
        let d = usize::from(dst.index());
        // Element e reads only index e of its operands, so computing in
        // place is safe when `dst` is one of them.
        for e in 0..self.vl as usize {
            let value = f(self.operand_value(a, e), self.operand_value(b, e));
            self.vdata[d][e] = value;
        }
        Touched::Vector { vl: self.vl }
    }

    /// Element `e` of a vector operand; a scalar operand is every element.
    fn operand_value(&self, op: VOperand, e: usize) -> f64 {
        match op {
            VOperand::V(v) => self.vdata[usize::from(v.index())][e],
            VOperand::S(s) => f64::from_bits(self.s[usize::from(s.index())]),
        }
    }

    /// Sums `src` into scalar `dst` for [`Cpu::execute`]: `dst = sum` for
    /// a plain reduction, `dst += sign · sum` when `accumulate` is set.
    fn vector_sum(&mut self, src: VReg, dst: SReg, accumulate: bool, sign: f64) -> Touched {
        let d = usize::from(dst.index());
        let s: f64 = self.vdata[usize::from(src.index())][..self.vl as usize]
            .iter()
            .sum();
        let base = if accumulate {
            f64::from_bits(self.s[d])
        } else {
            0.0
        };
        self.s[d] = (base + sign * s).to_bits();
        Touched::Vector { vl: self.vl }
    }

    // ---- timing -------------------------------------------------------

    /// The timing of an instruction [`Cpu::execute`] has just run: issue,
    /// ready times, pipes, memory grants and probe attribution. Addresses,
    /// zero-length vector instructions and branch outcomes come from
    /// `touched`, never from registers the instruction may have
    /// overwritten; no vector instruction writes the vector length.
    fn time<P: Probe>(&mut self, probe: &mut P, ins: &Instruction, pc: usize, touched: Touched) {
        use Instruction::*;
        match (ins, touched) {
            (_, Touched::Vector { vl: 0 } | Touched::Stream { vl: 0, .. }) => {
                // A zero-length vector instruction only occupies issue.
                self.issue_scalar(probe, pc);
            }
            (
                &VLoad { addr, dst },
                Touched::Stream {
                    base: Some(base), ..
                },
            ) => {
                self.vector_load(probe, pc, ins, addr, dst, base);
            }
            (
                &VStore { src, addr },
                Touched::Stream {
                    base: Some(base), ..
                },
            ) => {
                self.vector_store(probe, pc, ins, src, addr, base);
            }
            (
                &(VAdd { a, b, dst }
                | VSub { a, b, dst }
                | VMul { a, b, dst }
                | VDiv { a, b, dst }),
                _,
            ) => self.vector_arith(probe, pc, ins, a, b, dst),
            (&VNeg { src, dst }, _) => {
                let op = VOperand::V(src);
                self.vector_arith(probe, pc, ins, op, op, dst);
            }
            (&VSum { src, dst }, _) => self.vector_reduce(probe, pc, ins, src, dst, false),
            (&(VRAdd { src, acc } | VRSub { src, acc }), _) => {
                self.vector_reduce(probe, pc, ins, src, acc, true);
            }
            (&SetVl { src }, _) => {
                self.scalar_wait(probe, pc, self.s_ready[usize::from(src.index())]);
                self.issue_scalar(probe, pc);
            }
            (SetVlImm { .. } | Nop, _) => self.issue_scalar(probe, pc),
            (&SMovImm { dst, .. }, _) => {
                self.issue_scalar(probe, pc);
                self.set_ready(dst, self.clock);
            }
            (&SMov { src, dst }, _) => {
                self.scalar_wait(probe, pc, self.reg_ready(src));
                self.issue_scalar(probe, pc);
                self.set_ready(dst, self.clock);
            }
            (&SIntOp { src, dst, .. }, _) => {
                let ready = self.int_operand_ready(src).max(self.reg_ready(dst));
                self.scalar_wait(probe, pc, ready);
                self.issue_scalar(probe, pc);
                self.set_ready(dst, self.clock + self.ticks.int_latency - TICKS_PER_CYCLE);
            }
            (&SFpOp { op, a, b, dst }, _) => {
                let ready =
                    self.s_ready[usize::from(a.index())].max(self.s_ready[usize::from(b.index())]);
                self.scalar_wait(probe, pc, ready);
                self.issue_scalar(probe, pc);
                let lat = match op {
                    c240_isa::FpOp::Add | c240_isa::FpOp::Sub => self.ticks.fp_add_latency,
                    c240_isa::FpOp::Mul => self.ticks.fp_mul_latency,
                    c240_isa::FpOp::Div => self.ticks.fp_div_latency,
                };
                self.set_ready(ScalarReg::S(dst), self.clock + lat - TICKS_PER_CYCLE);
            }
            (&SLoad { addr, dst }, Touched::Scalar { word, hit, .. }) => {
                self.scalar_wait(probe, pc, self.a_ready[usize::from(addr.base.index())]);
                self.issue_scalar(probe, pc);
                let done = self.scalar_mem(probe, pc, word, hit, false);
                self.set_ready(dst, done);
            }
            (&SStore { src, addr }, Touched::Scalar { word, hit, .. }) => {
                let ready = self.a_ready[usize::from(addr.base.index())].max(self.reg_ready(src));
                self.scalar_wait(probe, pc, ready);
                self.issue_scalar(probe, pc);
                self.scalar_mem(probe, pc, word, hit, true);
            }
            (&Cmp { lhs, rhs, .. }, _) => {
                let ready = self.int_operand_ready(lhs).max(self.reg_ready(rhs));
                self.scalar_wait(probe, pc, ready);
                self.issue_scalar(probe, pc);
            }
            (BranchT { .. } | BranchF { .. } | Jump { .. }, _) => {
                self.issue_scalar(probe, pc);
                if let Touched::Taken = touched {
                    let penalty = self.ticks.branch_taken_penalty;
                    if P::ENABLED {
                        probe.busy(Lane::Scalar, penalty, pc);
                    }
                    self.clock += penalty;
                }
            }
            _ => unreachable!("execute returned what no instruction touches: {ins}"),
        }
    }

    fn resolve(&self, program: &Program, label: &str) -> usize {
        program
            .label(label)
            .expect("labels validated at program construction")
    }

    fn issue_scalar<P: Probe>(&mut self, probe: &mut P, pc: usize) {
        if P::ENABLED {
            probe.busy(Lane::Scalar, self.ticks.issue, pc);
        }
        self.clock += self.ticks.issue;
        self.end = self.end.max(self.clock);
    }

    /// Advances the scalar clock to `t`, charging any wait to the issue
    /// interlock (a RAW dependence or structural issue block).
    fn scalar_wait<P: Probe>(&mut self, probe: &mut P, pc: usize, t: i64) {
        if t > self.clock {
            if P::ENABLED {
                probe.stall(Lane::Scalar, StallCause::IssueInterlock, t - self.clock, pc);
            }
            self.clock = t;
        }
    }

    /// Charges the gap between a pipe's account cursor and a vector
    /// instruction's first-element entry time to the responsible causes.
    ///
    /// Each `max` term that produced the entry time is charged
    /// `max(term − running, 0)` in a fixed order, so the charges sum to
    /// exactly `entry0 − acct[slot]` and no cycle is counted twice. The
    /// pipe-availability term is split using the [`PipeCredits`] recorded
    /// when `next_entry` was pushed; the credits are consumed here.
    fn attribute_entry<P: Probe>(&mut self, probe: &mut P, pc: usize, slot: usize, t: EntryTerms) {
        let lane = lane_of(slot);
        let mut run = self.acct[slot];
        if t.issue_done > run {
            probe.idle(lane, t.issue_done - run);
            run = t.issue_done;
        }
        let ne = self.pipes[slot].next_entry;
        if ne > run {
            let mut gap = ne - run;
            let c = self.credits[slot];
            let bubble = gap.min(c.bubble);
            probe.stall(lane, StallCause::TailgateBubble, bubble, pc);
            gap -= bubble;
            let reduction = gap.min(c.reduction);
            probe.stall(lane, StallCause::ReductionDrain, reduction, pc);
            gap -= reduction;
            let fence = gap.min(c.fence);
            probe.stall(lane, StallCause::MemPortConflict, fence, pc);
            gap -= fence;
            probe.stall(lane, StallCause::PipeDrain, gap, pc);
            run = ne;
        }
        self.credits[slot] = PipeCredits::default();
        if t.fence > run {
            probe.stall(lane, StallCause::MemPortConflict, t.fence - run, pc);
            run = t.fence;
        }
        if t.barrier > run {
            probe.stall(lane, StallCause::OperandBarrier, t.barrier - run, pc);
            run = t.barrier;
        }
        if t.chain0 > run {
            probe.stall(lane, StallCause::ChainWait, t.chain0 - run, pc);
            run = t.chain0;
        }
        run = run.max(t.pre_pair);
        if t.entry0 > run {
            probe.stall(lane, StallCause::PairConflict, t.entry0 - run, pc);
        }
        self.acct[slot] = t.entry0;
    }

    /// Reports the bank/refresh/contention waits of a memory access or
    /// stream.
    fn attribute_mem<P: Probe>(probe: &mut P, lane: Lane, pc: usize, waits: WaitTicks) {
        probe.stall(lane, StallCause::BankBusy, waits.bank_busy, pc);
        probe.stall(lane, StallCause::Refresh, waits.refresh, pc);
        probe.stall(lane, StallCause::Contention, waits.contention, pc);
    }

    // ---- scalar register plumbing -------------------------------------

    fn reg_bits(&self, r: ScalarReg) -> u64 {
        match r {
            ScalarReg::S(s) => self.s[usize::from(s.index())],
            ScalarReg::A(a) => self.a[usize::from(a.index())] as u64,
        }
    }

    fn set_reg(&mut self, r: ScalarReg, bits: u64) {
        match r {
            ScalarReg::S(s) => self.s[usize::from(s.index())] = bits,
            ScalarReg::A(a) => self.a[usize::from(a.index())] = bits as i64,
        }
    }

    fn int_operand(&self, op: IntOperand) -> i64 {
        match op {
            IntOperand::Imm(i) => i,
            IntOperand::Reg(r) => self.reg_bits(r) as i64,
        }
    }

    fn reg_ready(&self, r: ScalarReg) -> i64 {
        match r {
            ScalarReg::S(s) => self.s_ready[usize::from(s.index())],
            ScalarReg::A(a) => self.a_ready[usize::from(a.index())],
        }
    }

    /// Records when `r`'s new value is ready.
    fn set_ready(&mut self, r: ScalarReg, ready: i64) {
        match r {
            ScalarReg::S(s) => self.s_ready[usize::from(s.index())] = ready,
            ScalarReg::A(a) => self.a_ready[usize::from(a.index())] = ready,
        }
        self.end = self.end.max(ready);
    }

    fn int_operand_ready(&self, op: IntOperand) -> i64 {
        match op {
            IntOperand::Imm(_) => 0,
            IntOperand::Reg(r) => self.reg_ready(r),
        }
    }

    // ---- vector machinery ---------------------------------------------

    /// Earliest start satisfying the register-pair port constraint, and
    /// registration of this instruction's usage.
    ///
    /// An instruction engages its register-pair ports while its elements
    /// traverse the pipe — `duration ≈ Z·VL` cycles from its first entry.
    /// Instructions in successive chimes therefore do not conflict, while
    /// a would-be chime-mate that violates the ≤2-read/≤1-write rule is
    /// pushed to the next chime (§3.3).
    fn pair_admit(&mut self, ins: &Instruction, mut t: i64, duration: i64) -> i64 {
        if !self.config.machine.pair_constraint {
            return t;
        }
        let (reads, writes) = ins.pair_usage();
        loop {
            self.active.retain(|a| a.end > t);
            let mut ok = true;
            let mut next_free = i64::MAX;
            for p in 0..4 {
                let r: u8 = self.active.iter().map(|a| a.pair_reads[p]).sum::<u8>() + reads[p];
                let w: u8 = self.active.iter().map(|a| a.pair_writes[p]).sum::<u8>() + writes[p];
                if r > 2 || w > 1 {
                    ok = false;
                    for a in &self.active {
                        if a.pair_reads[p] > 0 || a.pair_writes[p] > 0 {
                            next_free = next_free.min(a.end);
                        }
                    }
                }
            }
            if ok {
                break;
            }
            debug_assert!(next_free < i64::MAX, "pair conflict with no active cause");
            t = next_free;
        }
        self.active.push(ActiveVec {
            pair_reads: reads,
            pair_writes: writes,
            end: t + duration,
        });
        t
    }

    /// Issue and first-element entry, common to every vector instruction;
    /// the caller has already waited for its scalar operands. Waits for
    /// the pipe's reservation station, charges the X overhead, and takes
    /// the first-element entry time as the `max` of issue completion, pipe
    /// availability and the caller's `fence` (scalar memory port),
    /// `barrier` (unchained operands) and `chain0` (element 0's operands)
    /// terms. The register-pair ports then admit it, and an enabled probe
    /// is charged the wait before it.
    fn vector_enter<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        ins: &Instruction,
        fence: i64,
        barrier: i64,
        chain0: i64,
    ) -> Entered {
        let pipe = ins.pipe().expect("vector instruction");
        let class = ins.timing_class().expect("vector instruction");
        let timing = self.ticks.vector[class as usize];
        let slot = pipe.index();
        let issue_start = self.clock;
        self.scalar_wait(probe, pc, self.pipes[slot].issue_gate);
        if P::ENABLED {
            probe.busy(Lane::Scalar, timing.x, pc);
        }
        self.clock += timing.x;
        self.end = self.end.max(self.clock);
        let issue_done = self.clock;
        let pre_pair = issue_done
            .max(self.pipes[slot].next_entry)
            .max(fence)
            .max(barrier)
            .max(chain0);
        let entry0 = self.pair_admit(ins, pre_pair, timing.z * i64::from(self.vl));
        if P::ENABLED {
            self.attribute_entry(
                probe,
                pc,
                slot,
                EntryTerms {
                    issue_done,
                    fence,
                    barrier,
                    chain0,
                    pre_pair,
                    entry0,
                },
            );
        }
        Entered {
            pipe,
            timing,
            issue_start,
            entry0,
        }
    }

    /// Retire bookkeeping shared by every vector instruction: the lane's
    /// busy time, the pipe's next entry and reservation station, the
    /// tailgate bubbles, and the probe's [`Probe::vector`] event.
    fn vector_retire<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        ins: &Instruction,
        entered: Entered,
        sched: Schedule,
    ) {
        let (pipe, timing) = (entered.pipe, entered.timing);
        let slot = pipe.index();
        if P::ENABLED {
            probe.busy(lane_of(slot), timing.z * i64::from(self.vl), pc);
            self.acct[slot] = sched.last_entry + timing.z;
        }
        // max: a reduction may already have pushed the pipe further
        // (scalar-result serialization).
        self.pipes[slot].next_entry = self.pipes[slot].next_entry.max(sched.last_entry + timing.z);
        self.pipes[slot].issue_gate = sched.entry0;
        // The restart handshake stalls the VP element advance for B
        // cycles on every pipe (Eq. 13: a chime costs Z·VL + ΣB).
        for (p, credit) in self.pipes.iter_mut().zip(self.credits.iter_mut()) {
            p.next_entry += timing.b;
            credit.bubble += timing.b;
        }
        self.end = self.end.max(sched.last_result);
        probe.vector(
            pc,
            lane_of(slot),
            ins,
            self.vl,
            [
                entered.issue_start,
                sched.entry0,
                sched.last_entry,
                sched.first_result,
                sched.last_result,
            ],
        );
    }

    /// If chaining is disabled, operands must be fully complete.
    fn no_chain_barrier(&self, ops: &[VOperand]) -> i64 {
        if self.config.machine.chaining {
            return 0;
        }
        let vl = self.vl as usize;
        let mut t = 0;
        for op in ops {
            if let VOperand::V(v) = op {
                t = t.max(self.vready[usize::from(v.index())].max(vl));
            }
        }
        t
    }

    fn scalar_operand_wait<P: Probe>(&mut self, probe: &mut P, pc: usize, op: VOperand) {
        if let VOperand::S(s) = op {
            let ready = self.s_ready[usize::from(s.index())];
            self.scalar_wait(probe, pc, ready);
        }
    }

    fn vector_arith<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        ins: &Instruction,
        a: VOperand,
        b: VOperand,
        dst: VReg,
    ) {
        self.scalar_operand_wait(probe, pc, a);
        self.scalar_operand_wait(probe, pc, b);
        let d = usize::from(dst.index());
        let barrier = self.no_chain_barrier(&[a, b]);
        // The vector registers read, each once (`vneg` names its source
        // twice).
        let mut reads = [a, b].map(|op| match op {
            VOperand::V(v) => Some(usize::from(v.index())),
            VOperand::S(_) => None,
        });
        if reads[1] == reads[0] {
            reads[1] = None;
        }
        let chain0 = self.chain0(reads, Some(d));
        let entered = self.vector_enter(probe, pc, ins, 0, barrier, chain0);
        let Entered { timing, entry0, .. } = entered;
        let (chain_wait, last_entry) = self.time_elements(reads, Some(d), entry0, timing);
        if P::ENABLED {
            let lane = lane_of(entered.pipe.index());
            probe.stall(lane, StallCause::ChainWait, chain_wait, pc);
        }
        let sched = Schedule::stream(entry0, last_entry, timing.y);
        self.vector_retire(probe, pc, ins, entered, sched);
    }

    /// The rows element `e` of an arithmetic instruction or reduction
    /// waits for: the `reads` registers' ready rows and, for an arithmetic
    /// instruction, the destination `dst`'s pending reads.
    fn chain_rows(
        &self,
        reads: [Option<usize>; 2],
        dst: Option<usize>,
    ) -> impl Iterator<Item = &TimingRow> {
        let ready = reads.into_iter().flatten().map(|v| &self.vready[v]);
        ready.chain(dst.map(|d| &self.vread_until[d]))
    }

    /// The tick element 0 of an arithmetic instruction or reduction may
    /// enter at, as far as its [`Cpu::chain_rows`] allow.
    fn chain0(&self, reads: [Option<usize>; 2], dst: Option<usize>) -> i64 {
        self.chain_rows(reads, dst)
            .map(|row| row.ticks[0])
            .max()
            .expect("a vector instruction reads or writes a register")
    }

    /// Times the elements of an arithmetic instruction or reduction whose
    /// element 0 entered at `entry0` and writes the rows: the `reads`
    /// registers are read at each element's entry, and `dst`'s elements
    /// are ready `y` after it. Returns the chain wait and the last
    /// element's entry.
    ///
    /// Element `e` enters at `max(entry(e-1) + z, c_e)`, `c_e` the latest
    /// of its [`Cpu::chain_rows`] ([`entry_scan`]), and `entry0` is at
    /// least `c_0`. When the row summaries prove every chain row at or
    /// below the line `entry0 + e·z`, each element's pacing term already
    /// covers `c_e`, so the entries are that line and nothing waits; the
    /// rows are then written as straight fills ([`Cpu::time_straight`]).
    /// Otherwise the elements are scanned, and if none waited after all,
    /// their entries are the line too.
    fn time_elements(
        &mut self,
        reads: [Option<usize>; 2],
        dst: Option<usize>,
        entry0: i64,
        timing: VectorTicks,
    ) -> (i64, i64) {
        let n = self.vl as usize;
        if self
            .chain_rows(reads, dst)
            .all(|row| row.below(n, entry0, timing.z))
        {
            return (0, self.time_straight(reads, dst, n, entry0, timing));
        }
        let mut entries = [i64::MIN; VLEN];
        let entries = &mut entries[..n];
        for row in self.chain_rows(reads, dst) {
            for (t, &ready) in entries.iter_mut().zip(&row.ticks) {
                *t = (*t).max(ready);
            }
        }
        let chain_wait = entry_scan(entry0, timing.z, entries);
        if chain_wait == 0 {
            return (0, self.time_straight(reads, dst, n, entry0, timing));
        }
        for &v in reads.iter().flatten() {
            self.vread_until[v].raise_to(entries);
        }
        if let Some(d) = dst {
            self.vready[d].write(entries, timing.y);
        }
        (chain_wait, entries[n - 1])
    }

    /// The row writes of an arithmetic instruction or reduction whose
    /// element `e` enters at `entry0 + e·z` (see [`Cpu::time_elements`]).
    /// Returns the last element's entry.
    fn time_straight(
        &mut self,
        reads: [Option<usize>; 2],
        dst: Option<usize>,
        n: usize,
        entry0: i64,
        timing: VectorTicks,
    ) -> i64 {
        for &v in reads.iter().flatten() {
            self.vread_until[v].raise(n, entry0, timing.z);
        }
        if let Some(d) = dst {
            self.vready[d].fill(n, entry0 + timing.y, timing.z);
        }
        entry0 + (n as i64 - 1) * timing.z
    }

    /// The timing of a reduction of `src` into scalar `dst`, which an
    /// accumulating reduction also reads.
    fn vector_reduce<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        ins: &Instruction,
        src: VReg,
        dst: SReg,
        accumulate: bool,
    ) {
        let d = usize::from(dst.index());
        if accumulate {
            self.scalar_wait(probe, pc, self.s_ready[d]);
        }
        let barrier = self.no_chain_barrier(&[VOperand::V(src)]);
        let reads = [Some(usize::from(src.index())), None];
        let chain0 = self.chain0(reads, None);
        let entered = self.vector_enter(probe, pc, ins, 0, barrier, chain0);
        let Entered { timing, entry0, .. } = entered;
        let (chain_wait, entry) = self.time_elements(reads, None, entry0, timing);
        if P::ENABLED {
            let lane = lane_of(entered.pipe.index());
            probe.stall(lane, StallCause::ChainWait, chain_wait, pc);
        }
        let last_result = entry + timing.y;
        self.s_ready[d] = last_result;

        // A reduction funnels the VP into the scalar unit: the VP
        // sequencer cannot run further vector work past it until the
        // scalar result is delivered, so all pipes resume afterwards.
        // (This is what makes the reduction kernels LFK4/6 as expensive
        // as the paper measures; see §3.4's note that reduction chimes
        // involve "numerous special cases".)
        for (p, credit) in self.pipes.iter_mut().zip(self.credits.iter_mut()) {
            if last_result > p.next_entry {
                credit.reduction += last_result - p.next_entry;
                p.next_entry = last_result;
            }
        }

        // The one result is the sum, available after the last element.
        let sched = Schedule::stream(entry0, entry, timing.y);
        let sched = Schedule {
            first_result: sched.last_result,
            ..sched
        };
        self.vector_retire(probe, pc, ins, entered, sched);
    }

    /// The word address of a vector access's element 0, after checking
    /// its whole `vl`-element stream: every element must be an aligned,
    /// non-negative byte address inside the data space. Element addresses
    /// are affine in the index, so the first and last bound them all.
    fn vector_base(&self, addr: MemRef) -> Result<i64, SimError> {
        let first =
            self.word_addr(self.a[usize::from(addr.base.index())].saturating_add(addr.offset))?;
        let span = addr
            .stride
            .words()
            .saturating_mul(i64::from(self.vl.saturating_sub(1)));
        self.word_addr(first.saturating_add(span).saturating_mul(WORD_BYTES as i64))?;
        Ok(first)
    }

    /// The word address of byte address `byte`, which must be aligned,
    /// non-negative and inside the data space.
    fn word_addr(&self, byte: i64) -> Result<i64, SimError> {
        let word = byte / WORD_BYTES as i64;
        if byte < 0 || byte % WORD_BYTES as i64 != 0 || word >= self.mem.words() as i64 {
            return Err(SimError::BadAddress { byte_addr: byte });
        }
        Ok(word)
    }

    /// The schedule of a vector memory instruction whose elements
    /// [`MemorySystem::grant_stream`] granted, with the stream's chain and
    /// memory waits attributed once, summed. The walker is the one stream
    /// path: loads and stores, probed or not, single CPU or co-simulated,
    /// take it alike.
    fn vector_stream<P: Probe>(
        probe: &mut P,
        pc: usize,
        entered: Entered,
        walk: StreamGrants,
    ) -> Schedule {
        if P::ENABLED {
            let lane = lane_of(entered.pipe.index());
            probe.stall(lane, StallCause::ChainWait, walk.chain_wait, pc);
            Self::attribute_mem(probe, lane, pc, walk.waits);
        }
        Schedule::stream(walk.first, walk.last, entered.timing.y)
    }

    /// The timing of a vector load from the stream at word `base`.
    fn vector_load<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        ins: &Instruction,
        addr: MemRef,
        dst: VReg,
        base: i64,
    ) {
        self.scalar_wait(probe, pc, self.a_ready[usize::from(addr.base.index())]);
        let d = usize::from(dst.index());
        let fence = self.scalar_mem_fence;
        let chain0 = self.vread_until[d].ticks[0];
        let entered = self.vector_enter(probe, pc, ins, fence, 0, chain0);
        let Entered { timing, entry0, .. } = entered;
        let n = self.vl as usize;
        // Element entries chain only on the destination's pending reads.
        let (chain, ready) = (&self.vread_until[d].ticks, &mut self.vready[d]);
        let mut high = i64::MIN;
        let walk = self.mem.grant_stream(
            base as u64,
            addr.stride.words(),
            entry0,
            timing.z,
            &chain[..n],
            |e, _, granted| {
                ready.ticks[e] = granted + timing.y;
                high = high.max(granted + timing.y);
            },
        );
        // Each grant is at least `z` after the one before, so the grants
        // are a line exactly when the last is `(n − 1)·z` after the first.
        if walk.last - walk.first == (n as i64 - 1) * timing.z {
            ready.wrote_line(n, walk.first + timing.y, timing.z);
        } else {
            ready.wrote_below(n, high);
        }
        let sched = Self::vector_stream(probe, pc, entered, walk);
        self.vector_retire(probe, pc, ins, entered, sched);
    }

    /// The timing of a vector store to the stream at word `base`.
    fn vector_store<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        ins: &Instruction,
        src: VReg,
        addr: MemRef,
        base: i64,
    ) {
        self.scalar_wait(probe, pc, self.a_ready[usize::from(addr.base.index())]);
        let s = usize::from(src.index());
        let barrier = self.no_chain_barrier(&[VOperand::V(src)]);
        let fence = self.scalar_mem_fence;
        let entered = self.vector_enter(probe, pc, ins, fence, barrier, self.vready[s].ticks[0]);
        let Entered { timing, entry0, .. } = entered;
        let n = self.vl as usize;
        // Element entries chain on the source operand, which each element
        // reads when it requests.
        let (chain, read) = (&self.vready[s].ticks, &mut self.vread_until[s]);
        let (mut higher, mut high) = (false, i64::MIN);
        let walk = self.mem.grant_stream(
            base as u64,
            addr.stride.words(),
            entry0,
            timing.z,
            &chain[..n],
            |e, requested, _| {
                let until = &mut read.ticks[e];
                higher |= *until > requested;
                *until = (*until).max(requested);
                high = high.max(requested);
            },
        );
        // Element 0 requests at `entry0` and every later one at its
        // predecessor's grant plus `z` when no chain term bound; on a
        // straight run of grants from `entry0` the requests are then the
        // line `entry0 + e·z`, and the row is that line when no old tick
        // was higher.
        let straight = walk.first == entry0
            && walk.chain_wait == 0
            && walk.last - walk.first == (n as i64 - 1) * timing.z;
        if straight && !higher {
            read.wrote_line(n, entry0, timing.z);
        } else {
            read.raised(high);
        }
        let sched = Self::vector_stream(probe, pc, entered, walk);
        self.vector_retire(probe, pc, ins, entered, sched);
    }

    fn scalar_addr(&self, addr: MemRef) -> Result<u64, SimError> {
        let byte = self.a[usize::from(addr.base.index())].saturating_add(addr.offset);
        self.word_addr(byte).map(|word| word as u64)
    }

    /// Opens the scalar-memory lane's account for an access starting at
    /// `start`: idle until the issue clock, then the wait for the shared
    /// memory port.
    fn scalar_mem_open<P: Probe>(&mut self, probe: &mut P, pc: usize, start: i64) {
        let run = self.acct[Lane::ScalarMem as usize];
        probe.idle(Lane::ScalarMem, (self.clock - run).max(0));
        let run = run.max(self.clock);
        probe.stall(
            Lane::ScalarMem,
            StallCause::MemPortConflict,
            (start - run).max(0),
            pc,
        );
    }

    /// Closes the scalar-memory lane's account for an access that ran
    /// `start..done`: the memory-system wait split by cause, the cache
    /// hit latency as busy time, and whatever remains (the miss penalty,
    /// if any) as a scalar-cache miss.
    fn scalar_mem_close<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        before: WaitTicks,
        start: i64,
        done: i64,
    ) {
        let waits = self.mem.wait_ticks() - before;
        Self::attribute_mem(probe, Lane::ScalarMem, pc, waits);
        let mem_wait = waits.total();
        let hit = self.ticks.cache_hit;
        probe.busy(Lane::ScalarMem, hit, pc);
        probe.stall(
            Lane::ScalarMem,
            StallCause::ScalarCacheMiss,
            (done - start) - mem_wait - hit,
            pc,
        );
        self.acct[Lane::ScalarMem as usize] = done;
    }

    /// Raises the load/store pipe's fence after a scalar access,
    /// remembering the raise so the next vector memory instruction can
    /// attribute its wait to the shared port.
    fn fence_vector_stream(&mut self, done: i64) {
        self.scalar_mem_fence = self.scalar_mem_fence.max(done);
        let slot = Pipe::LoadStore.index();
        let p = &mut self.pipes[slot];
        if done > p.next_entry {
            self.credits[slot].fence += done - p.next_entry;
            p.next_entry = done;
        }
    }

    /// The timing of a scalar access to `word`, which hit or missed the
    /// cache as `hit` says. The single memory port makes it wait for the
    /// vector memory stream scheduled so far, and it fences later vector
    /// memory instructions — this is what splits chimes (§3.3). A load
    /// hit costs the hit latency; a load miss adds its memory grant and
    /// the miss penalty; a store always writes through to its grant.
    /// Returns the tick the access completes.
    fn scalar_mem<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        word: u64,
        hit: bool,
        store: bool,
    ) -> i64 {
        let start = self
            .clock
            .max(self.pipes[Pipe::LoadStore.index()].next_entry);
        let before = if P::ENABLED {
            self.scalar_mem_open(probe, pc, start);
            self.mem.wait_ticks()
        } else {
            WaitTicks::default()
        };
        let (hit_ticks, miss_ticks) = (self.ticks.cache_hit, self.ticks.cache_miss);
        let done = if store {
            self.mem.grant(word, start) + hit_ticks
        } else if hit {
            start + hit_ticks
        } else {
            self.mem.grant(word, start) + hit_ticks + miss_ticks
        };
        if P::ENABLED {
            self.scalar_mem_close(probe, pc, before, start, done);
        }
        self.fence_vector_stream(done);
        self.end = self.end.max(done);
        done
    }

    // ---- steady-state fast-forward ------------------------------------
    //
    // Detection and the exactness argument live in the `fastfwd` module;
    // this section supplies the machine-specific pieces: the discrete
    // key, the one walk over the translated timing fields, each step's
    // check, and the warp, which replays a recorded period through
    // `execute` and times the steps of an iteration that leaves it.

    /// Discrete state that must match exactly for two loop-head arrivals
    /// to be candidate period endpoints. The clock phases force the
    /// period's clock delta to be a multiple of the refresh period and of
    /// the contention pattern period, which is what preserves all modular
    /// arithmetic under translation.
    fn ff_key(&self) -> Vec<u64> {
        let mc = self.mem.config();
        let mut key = Vec::with_capacity(6 + 2 * self.active.len());
        key.push(u64::from(self.vl));
        key.push(u64::from(self.tflag));
        key.push(self.active.len() as u64);
        for av in &self.active {
            key.push(u64::from(u32::from_le_bytes(av.pair_reads)));
            key.push(u64::from(u32::from_le_bytes(av.pair_writes)));
        }
        // Phases are the clock's tick residues, which repeat exactly
        // whenever the true phase repeats.
        let ticks_per_cycle = TICKS_PER_CYCLE as u64;
        let clock = self.clock as u64;
        if mc.refresh_enabled && mc.refresh_period > 0 {
            key.push(clock % (mc.refresh_period * ticks_per_cycle));
        }
        let pp = mc.contention.pattern_period(mc.banks);
        if pp > 1 {
            key.push(clock % (pp * ticks_per_cycle));
        }
        key
    }

    /// Visits every field fast-forward translates, clock first: the CPU's
    /// timing state, then the memory system's bank free times, wait
    /// totals and access count ([`MemorySystem::visit_timing`]), then the
    /// probe's counters ([`Probe::visit_counters`]). The snapshot reads
    /// through this one walk and the warp translates through it, so their
    /// field orders cannot drift apart.
    fn ff_fields<P: Probe>(&mut self, probe: &mut P, mut visit: impl FnMut(&mut i64)) {
        visit(&mut self.clock);
        visit(&mut self.end);
        visit(&mut self.scalar_mem_fence);
        for p in &mut self.pipes {
            visit(&mut p.next_entry);
            visit(&mut p.issue_gate);
        }
        for r in self
            .a_ready
            .iter_mut()
            .chain(&mut self.s_ready)
            .chain(&mut self.acct)
        {
            visit(r);
        }
        for c in &mut self.credits {
            visit(&mut c.bubble);
            visit(&mut c.reduction);
            visit(&mut c.fence);
        }
        for r in self
            .vready
            .iter_mut()
            .chain(&mut self.vread_until)
            .flat_map(|row| &mut row.ticks)
        {
            visit(r);
        }
        for av in &mut self.active {
            visit(&mut av.end);
        }
        self.mem.visit_timing(&mut visit);
        probe.visit_counters(visit);
    }

    /// Full snapshot of the state fast-forward translates.
    fn ff_snapshot<P: Probe>(&mut self, probe: &mut P, executed: u64) -> Snapshot {
        let mut fields = Vec::with_capacity(2 * VREGS * VLEN + 128);
        self.ff_fields(probe, |f| fields.push(*f));
        Snapshot {
            key: self.ff_key(),
            fields,
            executed,
        }
    }

    /// Translates every field by `k` periods of its delta: exactly the
    /// values the naive run would have reached.
    fn ff_apply_shift<P: Probe>(&mut self, probe: &mut P, rec: &PeriodRecord, k: u64) {
        let k = k as i64;
        let mut deltas = rec.field_deltas.iter();
        self.ff_fields(probe, |f| {
            let d = deltas
                .next()
                .expect("snapshot and shift walk the same fields");
            *f += k * d;
        });
        for row in self.vready.iter_mut().chain(&mut self.vread_until) {
            row.resummarize();
        }
    }

    /// Drives the detector at a taken backward branch to `target`.
    /// Returns true when a verified period record is armed for warping.
    fn ff_loop_head<P: Probe>(&mut self, probe: &mut P, target: usize, executed: u64) -> bool {
        self.ff_probes += 1;
        let h = hash_words(&self.ff_key());
        match self.ff.arrival(target, h) {
            ArrivalAction::Nothing => false,
            ArrivalAction::Snapshot(why) => {
                let snap = self.ff_snapshot(probe, executed);
                match why {
                    SnapshotWhy::Base => {
                        self.ff.begin(snap);
                        false
                    }
                    SnapshotWhy::Measure => {
                        self.ff.measure(snap);
                        false
                    }
                    SnapshotWhy::Confirm => self.ff.confirm(snap),
                }
            }
        }
    }

    /// The fast-forward check of an executed instruction: what must
    /// repeat for a replay to keep the recorded timing. Recording stores
    /// it, and the warp compares each replayed step's check against it.
    /// A vector stream checks its first element's bank (0 for a bad
    /// address), stride and length; a scalar access checks its cache
    /// outcome and, when it reaches the banks, its bank. A load hit never
    /// does, so it records bank 0.
    fn step_check(&self, touched: Touched) -> StepCheck {
        let banks = u64::from(self.mem.config().banks);
        let residue = |word: u64| (word % banks) as u32;
        match touched {
            Touched::Regs | Touched::Taken | Touched::Vector { .. } => StepCheck::Plain,
            Touched::Stream { base, stride, vl } => StepCheck::VecMem {
                residue: base.map_or(0, |word| residue(word as u64)),
                stride,
                vl,
            },
            Touched::Scalar { word, hit, store } => StepCheck::SMem {
                residue: if hit && !store { 0 } else { residue(word) },
                hit,
                store,
            },
        }
    }

    /// Replays the verified period at the loop head `cursor.pc` through
    /// [`Cpu::execute`] as many whole times as the program follows it,
    /// then translates all timing state by that many periods. The steps
    /// of the iteration that left the period have executed by then; they
    /// are timed next, through [`Cpu::finish_step`], each with the vector
    /// length and T flag it left, which are the only data state timing and
    /// the detector read. `cursor` ends where exact stepping would be. A
    /// step that fails to execute returns its error after the steps
    /// before it are timed.
    fn ff_warp<P: Probe>(
        &mut self,
        probe: &mut P,
        program: &Program,
        cursor: &mut RunCursor,
    ) -> Result<(), SimError> {
        let rec = match self.ff.record.take() {
            Some(rec) if !rec.steps.is_empty() && rec.instructions > 0 => rec,
            _ => {
                self.ff.finish_warp();
                return Ok(());
            }
        };
        let budget =
            self.config.max_instructions.saturating_sub(cursor.executed) / rec.instructions;
        // Cap k so no translation can come near the end of the `i64` range.
        let max_d = rec
            .field_deltas
            .iter()
            .map(|d| d.unsigned_abs())
            .max()
            .unwrap_or(0);
        let k_max = budget.min((i64::MAX as u64 / 4).checked_div(max_d).unwrap_or(u64::MAX));
        let mut k: u64 = 0;
        let mut prefix = Vec::new();
        let mut result = Ok(());
        while k < k_max {
            match self.warp_one(program, &rec, cursor.pc, &mut prefix) {
                Ok(true) => {
                    k += 1;
                    prefix.clear();
                }
                Ok(false) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if k > 0 {
            self.ff_apply_shift(probe, &rec, k);
            self.ff_warps += 1;
        }
        self.ff_skipped += k * rec.instructions;
        cursor.executed += k * rec.instructions;
        self.ff.finish_warp();
        for step in prefix {
            cursor.executed += 1;
            self.vl = step.vl;
            self.tflag = step.tflag;
            let ins = &program.instructions()[step.pc];
            if self.finish_step(
                probe,
                ins,
                step.pc,
                step.next,
                step.touched,
                cursor.executed,
            ) {
                // The steps after this one have executed already, so the
                // period confirmed here cannot be replayed.
                self.ff.finish_warp();
            }
            cursor.pc = step.next;
        }
        result
    }

    /// One replay of the recorded period from `loop_pc` through
    /// [`Cpu::execute`], each executed step appended to `prefix`. Returns
    /// whether the iteration followed the recorded path back to
    /// `loop_pc`. It stops at the first step that leaves the path (not
    /// executed) or fails its check (executed), and at an `execute` error.
    fn warp_one(
        &mut self,
        program: &Program,
        rec: &PeriodRecord,
        loop_pc: usize,
        prefix: &mut Vec<Executed>,
    ) -> Result<bool, SimError> {
        let mut pc = loop_pc;
        for step in &rec.steps {
            if pc != step.pc as usize {
                return Ok(false);
            }
            let (next, touched) = self.execute(&program.instructions()[pc], pc, program)?;
            prefix.push(Executed {
                pc,
                next,
                touched,
                vl: self.vl,
                tflag: self.tflag,
            });
            if self.step_check(touched) != step.check {
                return Ok(false);
            }
            pc = next;
        }
        Ok(pc == loop_pc)
    }
}

/// A step the warp executed in an iteration that may still leave the
/// recorded period: what [`Cpu::finish_step`] needs to time it later,
/// and the vector length and T flag it left behind.
#[derive(Debug, Clone, Copy)]
struct Executed {
    pc: usize,
    next: usize,
    touched: Touched,
    vl: u32,
    tflag: bool,
}

/// What an executed instruction touched: everything its timing and its
/// fast-forward check need from the data path, read before the
/// instruction overwrote any register.
#[derive(Debug, Clone, Copy)]
enum Touched {
    /// Scalar registers or flags only, and no taken branch.
    Regs,
    /// A taken branch or jump.
    Taken,
    /// A vector instruction over `vl` elements that touches no memory.
    Vector { vl: u32 },
    /// A vector load or store over `vl` elements from word `base` at
    /// `stride` words. `base` is `None` only for a zero-length access to
    /// a bad address, which moves nothing.
    Stream {
        base: Option<i64>,
        stride: i64,
        vl: u32,
    },
    /// A scalar load or store of `word`, and whether it hit the cache.
    Scalar { word: u64, hit: bool, store: bool },
}

/// Word address of element `e` of a stream whose range
/// [`Cpu::vector_base`] checked.
fn element_addr(base: i64, stride: i64, e: usize) -> u64 {
    (base + stride * e as i64) as u64
}

/// Turns a row of element ready times into the row of pipe entry ticks,
/// in place: element 0 enters at `entry0`, element `e` at
/// `max(entry(e-1) + z, ready(e))`. Returns the ticks the elements waited
/// on their ready times beyond that pacing, summed.
fn entry_scan(entry0: i64, z: i64, row: &mut [i64]) -> i64 {
    let Some((first, rest)) = row.split_first_mut() else {
        return 0;
    };
    *first = entry0;
    let mut entry = entry0;
    for t in rest.iter_mut() {
        entry = (entry + z).max(*t);
        *t = entry;
    }
    // Each element waited its entry less its predecessor's plus z, so the
    // sum telescopes.
    entry - entry0 - z * rest.len() as i64
}

/// Memory words are `f64`; an address register receiving a load converts
/// the value to an integer (addresses stored in memory round-trip through
/// `f64`, exact below 2^53).
fn encode_loaded(dst: ScalarReg, value: f64) -> u64 {
    match dst {
        ScalarReg::S(_) => value.to_bits(),
        ScalarReg::A(_) => (value as i64) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;
    use c240_isa::ProgramBuilder;

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
    use c240_isa::ProgramBuilder;

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
