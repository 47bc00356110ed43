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

/// Grid points per cycle of the machine's timing quantum. Private copy of
/// `c240_isa::timing::TICKS_PER_CYCLE` — this crate is dependency-free.
const TICKS_PER_CYCLE: f64 = 20.0;

/// Rounds to the canonical `f64` of the nearest 1/20-cycle grid point, so
/// accumulated counters stay a pure function of their integer tick count
/// (see `c240_isa::timing::quantize`).
#[inline]
fn q(x: f64) -> f64 {
    (x * TICKS_PER_CYCLE).round() / TICKS_PER_CYCLE
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

/// Cycles lost per [`StallCause`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StallCounters {
    cycles: [f64; StallCause::COUNT],
}

impl StallCounters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `cause`.
    pub fn add(&mut self, cause: StallCause, cycles: f64) {
        self.cycles[cause as usize] = q(self.cycles[cause as usize] + cycles);
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

    /// Accumulates `other` into `self` (machine-level roll-up across
    /// co-simulated CPUs).
    pub fn merge(&mut self, other: &LaneAccount) {
        self.busy += other.busy;
        self.idle += other.idle;
        self.stalls.merge(&other.stalls);
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

/// Observation hooks the simulator drives.
///
/// Implementations with `ENABLED == false` (the default, [`NoProbe`])
/// compile every hook away; the simulator also uses `P::ENABLED` to
/// skip the bookkeeping that *prepares* hook arguments, so a disabled
/// probe costs nothing beyond monomorphization.
pub trait Probe {
    /// Whether the simulator should compute attribution at all.
    const ENABLED: bool = false;

    /// `lane` lost `cycles` to `cause` while executing the instruction
    /// at `pc`.
    #[inline(always)]
    fn stall(&mut self, lane: Lane, cause: StallCause, cycles: f64, pc: usize) {
        let _ = (lane, cause, cycles, pc);
    }

    /// `lane` did useful work for `cycles` on behalf of `pc`.
    #[inline(always)]
    fn busy(&mut self, lane: Lane, cycles: f64, pc: usize) {
        let _ = (lane, cycles, pc);
    }

    /// `lane` had nothing scheduled for `cycles`.
    #[inline(always)]
    fn idle(&mut self, lane: Lane, cycles: f64) {
        let _ = (lane, cycles);
    }

    /// Flattens every accumulated counter into a deterministic `Vec` so
    /// the simulator's steady-state fast-forward can compute per-period
    /// deltas and later scale them (see `c240-sim`'s fast-forward docs).
    ///
    /// Returning `None` (the default for external probes) declares the
    /// probe opaque: the simulator then never fast-forwards a probed run,
    /// falling back to exact element stepping.
    fn ff_counters(&self) -> Option<Vec<f64>> {
        None
    }

    /// Adds `k · deltas[i]` to the counter at flattened index `i`, in the
    /// same order [`Probe::ff_counters`] produced. Only called with
    /// deltas previously derived from this probe's own `ff_counters`.
    fn ff_apply(&mut self, deltas: &[f64], k: f64) {
        let _ = (deltas, k);
    }
}

/// The zero-cost probe: every hook is a no-op and `ENABLED` is false.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    fn ff_counters(&self) -> Option<Vec<f64>> {
        Some(Vec::new())
    }
}

/// Accumulating probe: totals, per-lane accounts, and a per-pc stall
/// breakdown.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterProbe {
    lanes: [LaneAccount; Lane::COUNT],
    by_pc: BTreeMap<usize, StallCounters>,
}

impl CounterProbe {
    /// A fresh, all-zero probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// The account for one lane.
    pub fn lane(&self, lane: Lane) -> &LaneAccount {
        &self.lanes[lane as usize]
    }

    /// All lanes in display order.
    pub fn lanes(&self) -> impl Iterator<Item = (Lane, &LaneAccount)> {
        Lane::ALL.iter().map(move |&l| (l, &self.lanes[l as usize]))
    }

    /// Stall totals summed over every lane.
    pub fn totals(&self) -> StallCounters {
        let mut t = StallCounters::new();
        for account in &self.lanes {
            t.merge(&account.stalls);
        }
        t
    }

    /// Busy cycles summed over every lane.
    pub fn busy_total(&self) -> f64 {
        self.lanes.iter().map(|a| a.busy).sum()
    }

    /// Per-pc stall breakdown (pcs with at least one attributed stall).
    pub fn by_pc(&self) -> &BTreeMap<usize, StallCounters> {
        &self.by_pc
    }

    /// The `n` pcs losing the most cycles, largest first.
    pub fn hottest_pcs(&self, n: usize) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self.by_pc.iter().map(|(&pc, c)| (pc, c.total())).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Accumulates `other` into `self`: lane accounts add, per-pc stall
    /// maps union-and-add. Used to roll a co-simulated machine's per-CPU
    /// probes up into machine totals.
    pub fn merge(&mut self, other: &CounterProbe) {
        for (mine, theirs) in self.lanes.iter_mut().zip(other.lanes.iter()) {
            mine.merge(theirs);
        }
        for (&pc, counters) in &other.by_pc {
            self.by_pc.entry(pc).or_default().merge(counters);
        }
    }
}

/// One [`CounterProbe`] per co-simulated CPU, plus a machine roll-up.
///
/// The per-CPU probes keep the exact `busy + stalls + idle == cycles`
/// partition *per CPU* (each CPU has its own wall clock); the
/// [`CoSimProbes::combined`] roll-up sums them for machine-level views,
/// where the partition holds against the sum of the CPUs' cycle counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoSimProbes {
    probes: Vec<CounterProbe>,
}

impl CoSimProbes {
    /// `n` fresh probes (one per CPU).
    pub fn new(n: usize) -> Self {
        CoSimProbes {
            probes: vec![CounterProbe::new(); n],
        }
    }

    /// Number of per-CPU probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether there are no probes.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// CPU `i`'s probe.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn cpu(&self, i: usize) -> &CounterProbe {
        &self.probes[i]
    }

    /// All per-CPU probes in CPU order.
    pub fn all(&self) -> &[CounterProbe] {
        &self.probes
    }

    /// Mutable slice to hand to a co-sim driver (one probe per CPU, in
    /// CPU order).
    pub fn as_mut_slice(&mut self) -> &mut [CounterProbe] {
        &mut self.probes
    }

    /// Machine-level roll-up: every CPU's accounts summed.
    pub fn combined(&self) -> CounterProbe {
        let mut total = CounterProbe::new();
        for p in &self.probes {
            total.merge(p);
        }
        total
    }
}

impl Probe for CounterProbe {
    const ENABLED: bool = true;

    #[inline]
    fn stall(&mut self, lane: Lane, cause: StallCause, cycles: f64, pc: usize) {
        debug_assert!(cycles >= -1e-9, "negative stall: {cycles} for {cause:?}");
        if cycles <= 0.0 {
            return;
        }
        self.lanes[lane as usize].stalls.add(cause, cycles);
        self.by_pc.entry(pc).or_default().add(cause, cycles);
    }

    #[inline]
    fn busy(&mut self, lane: Lane, cycles: f64, pc: usize) {
        let _ = pc;
        debug_assert!(cycles >= -1e-9, "negative busy: {cycles}");
        if cycles > 0.0 {
            let a = &mut self.lanes[lane as usize];
            a.busy = q(a.busy + cycles);
        }
    }

    #[inline]
    fn idle(&mut self, lane: Lane, cycles: f64) {
        debug_assert!(cycles >= -1e-9, "negative idle: {cycles}");
        if cycles > 0.0 {
            let a = &mut self.lanes[lane as usize];
            a.idle = q(a.idle + cycles);
        }
    }

    /// Layout: per lane `[busy, idle, stalls × 12]`, then per `by_pc`
    /// entry (ascending pc) `[pc, stalls × 12]`. Embedding the pc makes a
    /// change in the pc set show up as a nonzero/non-stale delta, which
    /// the fast-forward detector rejects.
    fn ff_counters(&self) -> Option<Vec<f64>> {
        let mut v = Vec::with_capacity(
            Lane::COUNT * (2 + StallCause::COUNT) + self.by_pc.len() * (1 + StallCause::COUNT),
        );
        for account in &self.lanes {
            v.push(account.busy);
            v.push(account.idle);
            v.extend_from_slice(&account.stalls.cycles);
        }
        for (&pc, counters) in &self.by_pc {
            v.push(pc as f64);
            v.extend_from_slice(&counters.cycles);
        }
        Some(v)
    }

    fn ff_apply(&mut self, deltas: &[f64], k: f64) {
        // Deltas arrive in ticks (1/20 cycle); translating in integer tick
        // arithmetic reproduces the canonical value the element-stepped
        // run would have accumulated.
        let translate = |c: &mut f64, d: f64| {
            *c = ((*c * TICKS_PER_CYCLE).round() + k * d) / TICKS_PER_CYCLE;
        };
        let mut it = deltas.iter();
        let mut next = || *it.next().expect("ff delta layout mismatch");
        for account in &mut self.lanes {
            translate(&mut account.busy, next());
            translate(&mut account.idle, next());
            for c in &mut account.stalls.cycles {
                translate(c, next());
            }
        }
        for counters in self.by_pc.values_mut() {
            let _pc = next();
            for c in &mut counters.cycles {
                translate(c, next());
            }
        }
        assert!(it.next().is_none(), "ff delta layout mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_merge() {
        let mut a = StallCounters::new();
        a.add(StallCause::BankBusy, 3.0);
        a.add(StallCause::Refresh, 2.0);
        let mut b = StallCounters::new();
        b.add(StallCause::BankBusy, 1.0);
        b.add(StallCause::ChainWait, 4.0);
        a.merge(&b);
        assert_eq!(a.get(StallCause::BankBusy), 4.0);
        assert_eq!(a.total(), 10.0);
        assert_eq!(a.memory_wait(), 6.0);
        let nz = a.nonzero();
        assert_eq!(nz[0], (StallCause::BankBusy, 4.0));
        assert_eq!(nz.len(), 3);
    }

    #[test]
    fn lane_account_partition() {
        let mut p = CounterProbe::new();
        p.busy(Lane::Ld, 10.0, 3);
        p.stall(Lane::Ld, StallCause::BankBusy, 2.5, 3);
        p.idle(Lane::Ld, 7.5);
        let acct = p.lane(Lane::Ld);
        assert_eq!(acct.accounted(), 20.0);
        assert_eq!(acct.utilization(), 0.5);
        assert_eq!(p.by_pc()[&3].get(StallCause::BankBusy), 2.5);
    }

    #[test]
    fn zero_and_negative_events_ignored() {
        let mut p = CounterProbe::new();
        p.stall(Lane::Add, StallCause::ChainWait, 0.0, 1);
        p.busy(Lane::Add, 0.0, 1);
        assert_eq!(p.totals().total(), 0.0);
        assert!(p.by_pc().is_empty());
    }

    #[test]
    fn hottest_pcs_orders_by_lost_cycles() {
        let mut p = CounterProbe::new();
        p.stall(Lane::Ld, StallCause::BankBusy, 1.0, 10);
        p.stall(Lane::Add, StallCause::ChainWait, 5.0, 20);
        p.stall(Lane::Mul, StallCause::TailgateBubble, 3.0, 30);
        let hot = p.hottest_pcs(2);
        assert_eq!(hot, vec![(20, 5.0), (30, 3.0)]);
    }

    #[test]
    fn cosim_probes_roll_up() {
        let mut probes = CoSimProbes::new(2);
        {
            let s = probes.as_mut_slice();
            s[0].busy(Lane::Ld, 4.0, 1);
            s[0].stall(Lane::Ld, StallCause::Contention, 2.0, 1);
            s[0].idle(Lane::Ld, 1.0);
            s[1].busy(Lane::Ld, 3.0, 1);
            s[1].stall(Lane::Ld, StallCause::BankBusy, 5.0, 2);
        }
        assert_eq!(probes.len(), 2);
        let total = probes.combined();
        let lane = total.lane(Lane::Ld);
        assert_eq!(lane.busy, 7.0);
        assert_eq!(lane.idle, 1.0);
        assert_eq!(lane.stalls.get(StallCause::Contention), 2.0);
        assert_eq!(lane.stalls.get(StallCause::BankBusy), 5.0);
        // Per-pc union: pc 1 from CPU 0, pc 2 from CPU 1.
        assert_eq!(total.by_pc()[&1].get(StallCause::Contention), 2.0);
        assert_eq!(total.by_pc()[&2].get(StallCause::BankBusy), 5.0);
        // Roll-up accounted == sum of per-CPU accounted.
        let per_cpu: f64 = probes
            .all()
            .iter()
            .map(|p| p.lane(Lane::Ld).accounted())
            .sum();
        assert_eq!(lane.accounted(), per_cpu);
    }

    #[test]
    fn noprobe_is_disabled() {
        const { assert!(!<NoProbe as Probe>::ENABLED) };
        const { assert!(<CounterProbe as Probe>::ENABLED) };
    }

    #[test]
    fn sides_partition_the_taxonomy() {
        // Every cause is on exactly one side of the roofline rollup.
        for cause in StallCause::ALL {
            assert_ne!(cause.is_memory_side(), cause.is_compute_wait(), "{cause}");
        }
        let mut c = StallCounters::new();
        for cause in StallCause::ALL {
            c.add(cause, 1.0);
        }
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
