//! Cycle-accounting telemetry for the C-240 simulator.
//!
//! The MACS methodology (Boyd & Davidson, ISCA 1993) is an exercise in
//! *attribution*: each gap in the bounds hierarchy t_MA → t_MAC →
//! t_MACS → t_p is blamed on a specific machine or compiler mechanism.
//! This crate gives the simulator the measurement substrate to do the
//! same from the other direction — every cycle a functional unit is not
//! making progress is tagged with a [`StallCause`], so a run produces a
//! complete wall-clock partition per [`Lane`]:
//!
//! ```text
//! cycles == busy + Σ stall(cause) + idle        (exactly, per lane)
//! ```
//!
//! The simulator reports events through the [`Probe`] trait, which is
//! monomorphized into the hot path: with the default [`NoProbe`] every
//! hook is an empty inline function and `Probe::ENABLED` is `false`, so
//! attribution arithmetic is skipped entirely and the instrumented
//! simulator compiles to the same code as the uninstrumented one.
//! [`CounterProbe`] accumulates totals, per-lane and per-pc breakdowns.
//! The probe is the simulator's only observation channel: its pipeline
//! trace (`c240_sim::Trace`) is a probe too, fed by [`Probe::vector`].
//! A probe that exposes its counters through [`Probe::visit_counters`]
//! and declares itself [`Probe::WARPABLE`] lets the simulator
//! fast-forward the runs it observes.
//!
//! The [`json`] module hosts the small writer and parser used for
//! `RunReport` artifacts, sweep rows and journals (no serde: the crate
//! has no dependencies). The [`span`] and [`metrics`] modules extend the same
//! attribution discipline from simulated cycles to the wall clock of the
//! sweep service itself: hierarchical spans partition where a point's
//! real time went, and the metrics registry keeps service-level counters
//! that reconcile exactly with [`SweepOutcomes`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod span;
pub mod sweep;

pub use metrics::{Metrics, METRICS_SCHEMA};
pub use span::{Span, SpanRecord, Tracer, SPAN_SCHEMA};
pub use sweep::{SweepOutcomes, SWEEP_SUMMARY_SCHEMA};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process's monotonic origin (first call wins;
/// every span, metrics snapshot, and trace anchor in the process shares
/// this clock, so wall-clock spans and sim-cycle traces correlate on one
/// timeline).
pub fn monotonic_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    Instant::now().duration_since(origin).as_nanos() as u64
}

/// Ticks per cycle of the machine's timing quantum. Private copy of
/// `c240_isa::timing::TICKS_PER_CYCLE` — this crate is dependency-free.
const TICKS_PER_CYCLE: i64 = 20;

/// Ticks as cycles, for read-outs.
fn cycles(ticks: i64) -> f64 {
    ticks as f64 / TICKS_PER_CYCLE as f64
}

/// Why a lane spent a cycle not making progress.
///
/// The taxonomy follows the paper's gap commentary (§4.4): memory-side
/// causes first (the M and A of MACS), then dependence/issue causes
/// (C and S), then the structural hazards the case study calls out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum StallCause {
    /// Memory bank still cycling from an earlier access (§3.1 stride
    /// degree of freedom D).
    BankBusy,
    /// DRAM refresh window stole the cycle (Table 1's 1.58% tax).
    Refresh,
    /// A background CPU's request won the bank this cycle (§4.2).
    Contention,
    /// Waiting for a chained operand to be produced element-by-element
    /// (§3.3 — chaining hides most, but not all, of this).
    ChainWait,
    /// Chaining disabled: waiting for a producer to *complete* before
    /// the first element may start (the Cray-2-style drain).
    OperandBarrier,
    /// Instruction issue blocked behind an earlier instruction on the
    /// same pipe or an unresolved scalar dependence (RAW interlock).
    IssueInterlock,
    /// The tailgating restriction's inter-instruction bubble B (Eq. 13).
    TailgateBubble,
    /// Post-reduction pipe drain: a reduction ties up all pipes until
    /// its scalar result is ready.
    ReductionDrain,
    /// Waiting for the pipe's previous vector instruction to finish
    /// streaming, beyond any tailgate bubble (structural pipe busy).
    PipeDrain,
    /// Register-pair read/write port conflict delayed issue (§3.2's
    /// "fourth degree of freedom").
    PairConflict,
    /// Scalar load missed the scalar cache and paid the memory penalty.
    ScalarCacheMiss,
    /// Scalar memory access serialized against vector memory streams
    /// (shared memory-port fence).
    MemPortConflict,
}

impl StallCause {
    /// Every cause, in display order.
    pub const ALL: [StallCause; 12] = [
        StallCause::BankBusy,
        StallCause::Refresh,
        StallCause::Contention,
        StallCause::ChainWait,
        StallCause::OperandBarrier,
        StallCause::IssueInterlock,
        StallCause::TailgateBubble,
        StallCause::ReductionDrain,
        StallCause::PipeDrain,
        StallCause::PairConflict,
        StallCause::ScalarCacheMiss,
        StallCause::MemPortConflict,
    ];

    /// Number of distinct causes.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in JSON reports and CSV headers.
    pub fn key(self) -> &'static str {
        match self {
            StallCause::BankBusy => "bank_busy",
            StallCause::Refresh => "refresh",
            StallCause::Contention => "contention",
            StallCause::ChainWait => "chain_wait",
            StallCause::OperandBarrier => "operand_barrier",
            StallCause::IssueInterlock => "issue_interlock",
            StallCause::TailgateBubble => "tailgate_bubble",
            StallCause::ReductionDrain => "reduction_drain",
            StallCause::PipeDrain => "pipe_drain",
            StallCause::PairConflict => "pair_conflict",
            StallCause::ScalarCacheMiss => "scalar_cache_miss",
            StallCause::MemPortConflict => "mem_port_conflict",
        }
    }

    /// True for the causes that make up vector memory wait time — the
    /// bank/refresh/contention split of `memory_wait_cycles`.
    pub fn is_memory_wait(self) -> bool {
        matches!(
            self,
            StallCause::BankBusy | StallCause::Refresh | StallCause::Contention
        )
    }

    /// True for the causes the roofline cross-check charges to the
    /// *memory* side: the vector memory waits plus the scalar memory
    /// hazards (cache misses and the shared memory-port fence).
    pub fn is_memory_side(self) -> bool {
        self.is_memory_wait()
            || matches!(
                self,
                StallCause::ScalarCacheMiss | StallCause::MemPortConflict
            )
    }

    /// True for the causes the roofline cross-check charges to the
    /// *compute* side: dependence, issue, and structural hazards between
    /// the function-unit pipes (everything that is not a memory-side
    /// wait).
    pub fn is_compute_wait(self) -> bool {
        !self.is_memory_side()
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// A functional-unit lane whose time is being accounted.
///
/// The three vector pipes mirror `c240_isa::Pipe`; the two scalar lanes
/// separate scalar execution from scalar memory traffic, which stalls
/// for different reasons (cache misses and the shared memory port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Lane {
    /// Vector load/store pipe.
    Ld,
    /// Vector add pipe.
    Add,
    /// Vector multiply pipe.
    Mul,
    /// Scalar execution (issue, branches, integer/fp scalar ops).
    Scalar,
    /// Scalar memory accesses (through the scalar cache).
    ScalarMem,
}

impl Lane {
    /// Every lane, in display order.
    pub const ALL: [Lane; 5] = [
        Lane::Ld,
        Lane::Add,
        Lane::Mul,
        Lane::Scalar,
        Lane::ScalarMem,
    ];

    /// Number of lanes.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in JSON reports and CSV headers.
    pub fn key(self) -> &'static str {
        match self {
            Lane::Ld => "ld",
            Lane::Add => "add",
            Lane::Mul => "mul",
            Lane::Scalar => "scalar",
            Lane::ScalarMem => "scalar_mem",
        }
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Cycles lost per [`StallCause`]: a read-out of [`CounterProbe`]'s
/// tick counters, and the sum of several.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallCounters {
    cycles: [f64; StallCause::COUNT],
}

impl StallCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cycles charged to `cause`.
    pub fn get(&self, cause: StallCause) -> f64 {
        self.cycles[cause as usize]
    }

    /// Total stalled cycles across all causes.
    pub fn total(&self) -> f64 {
        self.cycles.iter().sum()
    }

    /// Total over the memory-wait causes (bank busy + refresh +
    /// contention).
    pub fn memory_wait(&self) -> f64 {
        StallCause::ALL
            .iter()
            .filter(|c| c.is_memory_wait())
            .map(|&c| self.get(c))
            .sum()
    }

    /// Total over the memory-side causes — [`Self::memory_wait`] plus
    /// the scalar memory hazards (see [`StallCause::is_memory_side`]).
    pub fn memory_side(&self) -> f64 {
        StallCause::ALL
            .iter()
            .filter(|c| c.is_memory_side())
            .map(|&c| self.get(c))
            .sum()
    }

    /// Total over the compute-side causes (see
    /// [`StallCause::is_compute_wait`]); `memory_side() +
    /// compute_wait() == total()` identically.
    pub fn compute_wait(&self) -> f64 {
        StallCause::ALL
            .iter()
            .filter(|c| c.is_compute_wait())
            .map(|&c| self.get(c))
            .sum()
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &StallCounters) {
        for (a, b) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *a += b;
        }
    }

    /// `(cause, cycles)` pairs with nonzero cycles, largest first.
    pub fn nonzero(&self) -> Vec<(StallCause, f64)> {
        let mut v: Vec<(StallCause, f64)> = StallCause::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, cy)| cy > 0.0)
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

/// The complete wall-clock partition of one lane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaneAccount {
    /// Cycles the lane was doing useful work (streaming elements,
    /// executing a scalar op, servicing a hit).
    pub busy: f64,
    /// Cycles lost to attributed stalls.
    pub stalls: StallCounters,
    /// Cycles with nothing scheduled on the lane.
    pub idle: f64,
}

impl LaneAccount {
    /// `busy + stalls + idle` — equals wall-clock cycles when the
    /// account is complete.
    pub fn accounted(&self) -> f64 {
        self.busy + self.stalls.total() + self.idle
    }

    /// Busy fraction of the accounted time (0 when nothing accounted).
    pub fn utilization(&self) -> f64 {
        let t = self.accounted();
        if t > 0.0 {
            self.busy / t
        } else {
            0.0
        }
    }
}

/// Observation hooks the simulator drives — the one way a run reports
/// anything beyond its `RunStats`. Every amount is in *ticks* (1/20
/// cycle, the simulator's exact unit of time).
///
/// Implementations with `ENABLED == false` (the default, [`NoProbe`])
/// compile the attribution hooks away; the simulator also uses
/// `P::ENABLED` to skip the bookkeeping that *prepares* their arguments,
/// so a disabled probe costs nothing beyond monomorphization.
/// [`Probe::vector`] is called either way.
pub trait Probe {
    /// Whether the simulator should compute attribution at all.
    const ENABLED: bool = false;

    /// Whether the simulator may fast-forward a run this probe observes.
    /// A warpable probe exposes every counter it keeps through
    /// [`Probe::visit_counters`], and those counters must advance by the
    /// same amount in every period of a periodic loop. The default is
    /// `false`: the simulator then never fast-forwards the run and steps
    /// every element exactly.
    const WARPABLE: bool = false;

    /// `lane` lost `ticks` to `cause` while executing the instruction at
    /// `pc`.
    #[inline(always)]
    fn stall(&mut self, lane: Lane, cause: StallCause, ticks: i64, pc: usize) {
        let _ = (lane, cause, ticks, pc);
    }

    /// `lane` did useful work for `ticks` on behalf of `pc`.
    #[inline(always)]
    fn busy(&mut self, lane: Lane, ticks: i64, pc: usize) {
        let _ = (lane, ticks, pc);
    }

    /// `lane` had nothing scheduled for `ticks`.
    #[inline(always)]
    fn idle(&mut self, lane: Lane, ticks: i64) {
        let _ = (lane, ticks);
    }

    /// The vector instruction `text` at `pc` retired on `lane` after
    /// streaming `vl` elements. `ticks` holds its five times: issue
    /// start, first and last element entry, first and last result.
    #[inline(always)]
    fn vector(&mut self, pc: usize, lane: Lane, text: &dyn fmt::Display, vl: u32, ticks: [i64; 5]) {
        let _ = (pc, lane, text, vl, ticks);
    }

    /// Visits every counter of a [`Probe::WARPABLE`] probe, in an order
    /// that depends only on which counters exist. The simulator's
    /// fast-forward walks them with its own timing fields: it snapshots
    /// them to measure per-period deltas, and translates them by whole
    /// periods (see `c240-sim`'s fast-forward docs).
    fn visit_counters(&mut self, visit: impl FnMut(&mut i64)) {
        let _ = visit;
    }
}

/// The zero-cost probe: every hook is a no-op and `ENABLED` is false.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    const WARPABLE: bool = true;
}

/// One lane's account in ticks: what [`CounterProbe`] accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct LaneTicks {
    busy: i64,
    idle: i64,
    stalls: [i64; StallCause::COUNT],
}

/// Stall tick counts as cycles.
fn stall_cycles(ticks: &[i64; StallCause::COUNT]) -> StallCounters {
    StallCounters {
        cycles: ticks.map(cycles),
    }
}

/// Accumulating probe: totals, per-lane accounts, and a per-pc stall
/// breakdown. It counts exact ticks; the accessors read them out in
/// cycles.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterProbe {
    lanes: [LaneTicks; Lane::COUNT],
    by_pc: BTreeMap<usize, [i64; StallCause::COUNT]>,
}

impl CounterProbe {
    /// A fresh, all-zero probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// The account for one lane.
    pub fn lane(&self, lane: Lane) -> LaneAccount {
        let t = &self.lanes[lane as usize];
        LaneAccount {
            busy: cycles(t.busy),
            stalls: stall_cycles(&t.stalls),
            idle: cycles(t.idle),
        }
    }

    /// All lanes in display order.
    pub fn lanes(&self) -> impl Iterator<Item = (Lane, LaneAccount)> + '_ {
        Lane::ALL.iter().map(move |&l| (l, self.lane(l)))
    }

    /// Stall totals summed over every lane.
    pub fn totals(&self) -> StallCounters {
        let mut t = StallCounters::new();
        for (_, account) in self.lanes() {
            t.merge(&account.stalls);
        }
        t
    }

    /// Busy cycles summed over every lane.
    pub fn busy_total(&self) -> f64 {
        self.lanes().map(|(_, a)| a.busy).sum()
    }

    /// Per-pc stall breakdown (pcs with at least one attributed stall),
    /// in ascending pc order.
    pub fn by_pc(&self) -> impl Iterator<Item = (usize, StallCounters)> + '_ {
        self.by_pc.iter().map(|(&pc, t)| (pc, stall_cycles(t)))
    }

    /// The `n` pcs losing the most cycles, largest first.
    pub fn hottest_pcs(&self, n: usize) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self.by_pc().map(|(pc, c)| (pc, c.total())).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Machine-level roll-up of a co-simulation's per-CPU probes: lane
    /// accounts add, per-pc stall maps union-and-add. Each per-CPU probe
    /// keeps the exact `busy + stalls + idle == cycles` partition against
    /// its own CPU's clock; the roll-up's partition holds against the sum
    /// of the CPUs' cycle counts.
    pub fn roll_up(probes: &[CounterProbe]) -> CounterProbe {
        let mut total = CounterProbe::new();
        for p in probes {
            for (mine, theirs) in total.lanes.iter_mut().zip(&p.lanes) {
                mine.busy += theirs.busy;
                mine.idle += theirs.idle;
                add_ticks(&mut mine.stalls, &theirs.stalls);
            }
            for (&pc, theirs) in &p.by_pc {
                add_ticks(total.by_pc.entry(pc).or_default(), theirs);
            }
        }
        total
    }
}

fn add_ticks(mine: &mut [i64; StallCause::COUNT], theirs: &[i64; StallCause::COUNT]) {
    for (a, b) in mine.iter_mut().zip(theirs) {
        *a += b;
    }
}

impl Probe for CounterProbe {
    const ENABLED: bool = true;

    #[inline]
    fn stall(&mut self, lane: Lane, cause: StallCause, ticks: i64, pc: usize) {
        debug_assert!(ticks >= 0, "negative stall: {ticks} ticks for {cause:?}");
        if ticks <= 0 {
            return;
        }
        self.lanes[lane as usize].stalls[cause as usize] += ticks;
        self.by_pc.entry(pc).or_default()[cause as usize] += ticks;
    }

    #[inline]
    fn busy(&mut self, lane: Lane, ticks: i64, pc: usize) {
        let _ = pc;
        debug_assert!(ticks >= 0, "negative busy: {ticks} ticks");
        self.lanes[lane as usize].busy += ticks.max(0);
    }

    #[inline]
    fn idle(&mut self, lane: Lane, ticks: i64) {
        debug_assert!(ticks >= 0, "negative idle: {ticks} ticks");
        self.lanes[lane as usize].idle += ticks.max(0);
    }

    const WARPABLE: bool = true;

    /// Per lane `busy, idle, stalls × 12`, then per `by_pc` entry
    /// (ascending pc) a copy of the pc and its `stalls × 12`. A change in
    /// the set of pcs changes the walk's length or a pc slot's delta, so
    /// fast-forward rejects the period; the shift leaves the key alone.
    fn visit_counters(&mut self, mut visit: impl FnMut(&mut i64)) {
        for account in &mut self.lanes {
            visit(&mut account.busy);
            visit(&mut account.idle);
            account.stalls.iter_mut().for_each(&mut visit);
        }
        for (&pc, stalls) in &mut self.by_pc {
            visit(&mut (pc as i64));
            stalls.iter_mut().for_each(&mut visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_merge() {
        let mut p = CounterProbe::new();
        p.stall(Lane::Ld, StallCause::BankBusy, 3 * T, 0);
        p.stall(Lane::Ld, StallCause::Refresh, 2 * T, 0);
        p.stall(Lane::Add, StallCause::BankBusy, T, 0);
        p.stall(Lane::Add, StallCause::ChainWait, 4 * T, 0);
        let mut a = p.lane(Lane::Ld).stalls;
        a.merge(&p.lane(Lane::Add).stalls);
        assert_eq!(a.get(StallCause::BankBusy), 4.0);
        assert_eq!(a.total(), 10.0);
        assert_eq!(a.memory_wait(), 6.0);
        let nz = a.nonzero();
        assert_eq!(nz[0], (StallCause::BankBusy, 4.0));
        assert_eq!(nz.len(), 3);
    }

    const T: i64 = TICKS_PER_CYCLE;

    /// `pc`'s per-pc stall counters.
    fn at_pc(p: &CounterProbe, pc: usize) -> StallCounters {
        p.by_pc()
            .find(|&(at, _)| at == pc)
            .expect("pc has stalls")
            .1
    }

    #[test]
    fn lane_account_partition() {
        let mut p = CounterProbe::new();
        p.busy(Lane::Ld, 10 * T, 3);
        p.stall(Lane::Ld, StallCause::BankBusy, 50, 3);
        p.idle(Lane::Ld, 150);
        let acct = p.lane(Lane::Ld);
        assert_eq!(acct.accounted(), 20.0);
        assert_eq!(acct.utilization(), 0.5);
        assert_eq!(at_pc(&p, 3).get(StallCause::BankBusy), 2.5);
    }

    #[test]
    fn ticks_read_out_as_the_nearest_cycles() {
        // 27 ticks is the reduction's 1.35-cycle element time; repeated
        // additions stay exact, unlike 1.35 added in f64.
        let mut p = CounterProbe::new();
        for _ in 0..3 {
            p.busy(Lane::Add, 27, 0);
        }
        assert_eq!(p.lane(Lane::Add).busy.to_bits(), 4.05f64.to_bits());
        assert_ne!((1.35f64 + 1.35 + 1.35).to_bits(), 4.05f64.to_bits());
    }

    #[test]
    fn zero_and_negative_events_ignored() {
        let mut p = CounterProbe::new();
        p.stall(Lane::Add, StallCause::ChainWait, 0, 1);
        p.busy(Lane::Add, 0, 1);
        assert_eq!(p.totals().total(), 0.0);
        assert!(p.by_pc().next().is_none());
    }

    #[test]
    fn hottest_pcs_orders_by_lost_cycles() {
        let mut p = CounterProbe::new();
        p.stall(Lane::Ld, StallCause::BankBusy, T, 10);
        p.stall(Lane::Add, StallCause::ChainWait, 5 * T, 20);
        p.stall(Lane::Mul, StallCause::TailgateBubble, 3 * T, 30);
        let hot = p.hottest_pcs(2);
        assert_eq!(hot, vec![(20, 5.0), (30, 3.0)]);
    }

    /// The probe's counters, read through the visitor.
    fn counters(p: &mut CounterProbe) -> Vec<i64> {
        let mut v = Vec::new();
        p.visit_counters(|c| v.push(*c));
        v
    }

    #[test]
    fn ff_counters_shift_by_whole_periods() {
        let mut p = CounterProbe::new();
        p.busy(Lane::Ld, 3, 0);
        p.stall(Lane::Mul, StallCause::PipeDrain, 7, 4);
        let before = counters(&mut p);
        p.busy(Lane::Ld, 3, 0);
        p.stall(Lane::Mul, StallCause::PipeDrain, 7, 4);
        let after = counters(&mut p);
        assert_eq!(before.len(), after.len());
        let mut deltas = after.iter().zip(&before).map(|(a, b)| a - b);
        p.visit_counters(|c| *c += 10 * deltas.next().expect("same layout"));
        assert!(deltas.next().is_none());
        assert_eq!(p.lane(Lane::Ld).busy, cycles(3 * 12));
        assert_eq!(at_pc(&p, 4).get(StallCause::PipeDrain), cycles(7 * 12));
        // The pc slot is a copy: shifting it moves no stall to another pc.
        assert_eq!(p.by_pc().map(|(pc, _)| pc).collect::<Vec<_>>(), vec![4]);
        // A new pc lengthens the walk.
        p.stall(Lane::Add, StallCause::ChainWait, 1, 9);
        assert_eq!(counters(&mut p).len(), after.len() + 1 + StallCause::COUNT);
    }

    #[test]
    fn cosim_probes_roll_up() {
        let mut probes = vec![CounterProbe::new(); 2];
        probes[0].busy(Lane::Ld, 4 * T, 1);
        probes[0].stall(Lane::Ld, StallCause::Contention, 2 * T, 1);
        probes[0].idle(Lane::Ld, T);
        probes[1].busy(Lane::Ld, 3 * T, 1);
        probes[1].stall(Lane::Ld, StallCause::BankBusy, 5 * T, 2);
        let total = CounterProbe::roll_up(&probes);
        let lane = total.lane(Lane::Ld);
        assert_eq!(lane.busy, 7.0);
        assert_eq!(lane.idle, 1.0);
        assert_eq!(lane.stalls.get(StallCause::Contention), 2.0);
        assert_eq!(lane.stalls.get(StallCause::BankBusy), 5.0);
        // Per-pc union: pc 1 from CPU 0, pc 2 from CPU 1.
        assert_eq!(at_pc(&total, 1).get(StallCause::Contention), 2.0);
        assert_eq!(at_pc(&total, 2).get(StallCause::BankBusy), 5.0);
        // Roll-up accounted == sum of per-CPU accounted.
        let per_cpu: f64 = probes.iter().map(|p| p.lane(Lane::Ld).accounted()).sum();
        assert_eq!(lane.accounted(), per_cpu);
    }

    #[test]
    fn noprobe_is_disabled() {
        const { assert!(!<NoProbe as Probe>::ENABLED) };
        const { assert!(<CounterProbe as Probe>::ENABLED) };
        const { assert!(<NoProbe as Probe>::WARPABLE && <CounterProbe as Probe>::WARPABLE) };
    }

    #[test]
    fn sides_partition_the_taxonomy() {
        // Every cause is on exactly one side of the roofline rollup.
        for cause in StallCause::ALL {
            assert_ne!(cause.is_memory_side(), cause.is_compute_wait(), "{cause}");
        }
        let mut p = CounterProbe::new();
        for cause in StallCause::ALL {
            p.stall(Lane::Mul, cause, T, 0);
        }
        let c = p.lane(Lane::Mul).stalls;
        assert_eq!(c.memory_side() + c.compute_wait(), c.total());
        assert_eq!(c.memory_wait(), 3.0);
        assert_eq!(c.memory_side(), 5.0);
        assert_eq!(c.compute_wait(), 7.0);
    }

    #[test]
    fn keys_are_stable_and_unique() {
        let mut keys: Vec<&str> = StallCause::ALL.iter().map(|c| c.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), StallCause::COUNT);
        let mut lanes: Vec<&str> = Lane::ALL.iter().map(|l| l.key()).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), Lane::COUNT);
    }
}
