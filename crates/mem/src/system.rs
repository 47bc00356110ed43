//! The banked memory system: data storage plus access timing.
//!
//! The system is split in two: [`BankState`] holds the per-bank
//! arbitration state, while [`MemorySystem`] is a per-CPU *view* over it —
//! private data space and the only access and wait counters, on top of
//! the banks. A single-CPU simulation grants against its own single-port
//! state (each bank's free time). A co-simulation driver
//! (`c240_sim::Machine`) keeps one shared state (each bank's claims) and
//! swaps it into whichever CPU's view is stepping, so contention between
//! CPUs *emerges* from real interleaved traffic instead of the synthetic
//! [`ContentionStream`]s.
//!
//! Every time here is an exact integer tick count (20 ticks per cycle).
//!
//! This module holds [`MemorySystem`], its wait counters and the stream
//! walker ([`MemorySystem::grant_stream`]). Three child modules hold the
//! rest: `data` (the data store and its bounds checks), `banks` (the
//! bank state in its two modes) and `port` (one view's grant search over
//! the bank state, and the runs that grant without one).
//!
//! [`ContentionStream`]: crate::ContentionStream

mod banks;
mod data;
mod port;

use c240_isa::timing::cycles;
use c240_isa::MachineDescription;

pub use self::banks::BankState;
use self::banks::Banks;
use self::port::{next_bank, Port, RefreshWindows};
use crate::contention::{ClaimTable, ContentionConfig};
use crate::{bank_of, cycle_ticks, rotation};

/// The memory system as seen from one CPU port: word-addressed data plus
/// the (possibly shared) per-bank availability.
///
/// The data space holds [`MachineDescription::words`] words, all `0.0`
/// until written. Its storage grows on write, to the highest word
/// written, so creating a memory allocates nothing in proportion to its
/// size.
///
/// Timing methods take the earliest tick an access may start and return
/// the tick at which the bank granted it. Between request and grant the
/// access may wait for: the bank's recovery from one of this CPU's own
/// earlier accesses (bank busy), another CPU's claim on the bank
/// (contention — only in co-simulation), a refresh window, or a
/// synthetic background contention claim.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    /// The number of interleaved banks.
    banks: u32,
    /// Size of the data space in words: the bound every access is
    /// checked against.
    words: usize,
    /// The bank busy time in ticks.
    busy: i64,
    /// The refresh period and window in ticks, when refresh is modeled.
    refresh: Option<(i64, i64)>,
    /// The background streams' claims (no rows on an idle machine).
    background: ClaimTable,
    /// The data space's words up to the highest one written so far;
    /// every word at or past its length reads `0.0`. `words`, not this
    /// length, bounds the data space.
    data: Vec<f64>,
    bank: BankState,
    view: u32,
    accesses: u64,
    breakdown: WaitTicks,
}

/// Cycles accesses spent waiting, split by cause: a [`WaitTicks`] read
/// out in cycles ([`WaitTicks::cycles`]).
///
/// Every bump of the grant-search cursor is charged to exactly one
/// cause, so in ticks the causes sum to the total exactly. In cycles
/// each cause is rounded to `f64` on its own, so their sum matches the
/// total only to within rounding: three causes of 1 tick each read out
/// as `0.05` and sum to `0.15000000000000002`, while 3 ticks read out as
/// `0.15`. Compare sums of cycles with a tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WaitBreakdown {
    /// Waiting for a bank still cycling from an earlier access by the
    /// same CPU.
    pub bank_busy: f64,
    /// Waiting out refresh windows (each blocked access pays the full
    /// window, per §3.2 of the paper).
    pub refresh: f64,
    /// Waiting behind other CPUs' bank claims — co-simulated neighbor
    /// CPUs or synthetic background streams.
    pub contention: f64,
}

impl WaitBreakdown {
    /// Sum of all causes: the total wait cycles, to within rounding.
    pub fn total(&self) -> f64 {
        self.bank_busy + self.refresh + self.contention
    }
}

/// A [`WaitBreakdown`] in ticks: the form the memory system counts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaitTicks {
    /// Waiting for a bank still recovering from this CPU's own access.
    pub bank_busy: i64,
    /// Waiting out refresh windows.
    pub refresh: i64,
    /// Waiting behind other CPUs' or background streams' claims.
    pub contention: i64,
}

impl std::ops::AddAssign for WaitTicks {
    fn add_assign(&mut self, other: WaitTicks) {
        self.bank_busy += other.bank_busy;
        self.refresh += other.refresh;
        self.contention += other.contention;
    }
}

impl std::ops::Sub for WaitTicks {
    type Output = WaitTicks;

    /// The waits accrued between an earlier read-out and this one.
    fn sub(self, earlier: WaitTicks) -> WaitTicks {
        WaitTicks {
            bank_busy: self.bank_busy - earlier.bank_busy,
            refresh: self.refresh - earlier.refresh,
            contention: self.contention - earlier.contention,
        }
    }
}

impl WaitTicks {
    /// Sum of all causes.
    pub fn total(&self) -> i64 {
        self.bank_busy + self.refresh + self.contention
    }

    /// The same waits in cycles.
    pub fn cycles(&self) -> WaitBreakdown {
        WaitBreakdown {
            bank_busy: cycles(self.bank_busy),
            refresh: cycles(self.refresh),
            contention: cycles(self.contention),
        }
    }

    fn add(&mut self, cause: Wait, ticks: i64) {
        *match cause {
            Wait::BankBusy => &mut self.bank_busy,
            Wait::Refresh => &mut self.refresh,
            Wait::Contention => &mut self.contention,
        } += ticks;
    }
}

/// The cause a grant-search wait is charged to.
#[derive(Clone, Copy)]
enum Wait {
    BankBusy,
    Refresh,
    Contention,
}

/// What [`MemorySystem::grant_stream`] reports about a granted stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamGrants {
    /// The tick element 0 was granted (the stream's `entry0` when it is
    /// empty).
    pub first: i64,
    /// The tick the last element was granted.
    pub last: i64,
    /// Ticks the elements' requests waited on their `chain` terms beyond
    /// the previous grant plus `z`, summed.
    pub chain_wait: i64,
    /// The stream's memory waits by cause, already added to the view's
    /// breakdown.
    pub waits: WaitTicks,
    /// Elements granted in runs, at the previous grant plus `z`, without
    /// a search (see [`MemorySystem::grant_stream`]).
    pub(crate) run_elements: usize,
}

impl MemorySystem {
    /// Creates a memory whose every word reads `0.0`, with the machine's
    /// bank geometry, refresh and data space and `contention`'s
    /// background claims, its cycle parameters converted to ticks once.
    ///
    /// # Panics
    ///
    /// Panics if the contention's claim table exceeds its bounds
    /// ([`validate`](fn@crate::validate) rejects such a configuration
    /// first).
    pub fn new(machine: &MachineDescription, contention: &ContentionConfig) -> Self {
        let banks = machine.banks;
        let busy = cycle_ticks(machine.bank_busy);
        MemorySystem {
            banks,
            words: usize::try_from(machine.words).expect("the data space fits in usize"),
            busy,
            refresh: machine
                .modeled_refresh()
                .map(|(period, len)| (cycle_ticks(period), cycle_ticks(len))),
            background: contention
                .claims(banks, busy)
                .expect("contention claim table exceeds its bounds"),
            data: Vec::new(),
            bank: BankState::new(banks),
            view: 0,
            accesses: 0,
            breakdown: WaitTicks::default(),
        }
    }

    /// Size of the data space in words
    /// ([`MachineDescription::words`]).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Accesses served through *this view* (this CPU's port).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// This view's wait beyond its accesses' earliest starts, split by
    /// cause, in ticks ([`WaitTicks::cycles`] reads it out in cycles).
    pub fn wait_ticks(&self) -> WaitTicks {
        self.breakdown
    }

    /// Assigns the view id this port charges its shared bank claims to
    /// (0 by default). A co-sim driver gives each CPU a distinct id so
    /// waits behind another CPU's claim are attributed to contention.
    pub fn set_view(&mut self, view: u32) {
        self.view = view;
    }

    /// Swaps this view's bank state with `other` — O(1). A co-sim driver
    /// swaps its one shared [`BankState`] in before stepping a CPU and
    /// back out afterwards, so all CPUs arbitrate against the same banks.
    pub fn swap_bank_state(&mut self, other: &mut BankState) {
        std::mem::swap(&mut self.bank, other);
    }

    /// Clears all timing state (bank availability, statistics) while
    /// keeping data — used between measurement runs.
    pub fn reset_timing(&mut self) {
        self.bank.reset();
        self.accesses = 0;
        self.breakdown = WaitTicks::default();
    }

    /// Finds and claims the earliest grant tick for an access to `addr`
    /// starting no earlier than `earliest`; the data moves separately
    /// ([`MemorySystem::peek`], [`MemorySystem::poke`]). It is the
    /// one-element [`MemorySystem::grant_stream`].
    ///
    /// On single-port state every wait behind the bank's last claim is
    /// bank busy. On shared state a wait behind a claim of this view is
    /// bank busy, and one behind a *different* view's claim (another
    /// co-simulated CPU) is contention — the same category the synthetic
    /// background streams use, so the attribution taxonomy is identical
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn grant(&mut self, addr: u64, earliest: i64) -> i64 {
        self.grant_stream(addr, 0, earliest, 0, &[0], |_, _, _| {})
            .first
    }

    /// Grants a strided vector stream element by element, exactly as
    /// [`MemorySystem::grant`] would grant each one in turn: element 0
    /// requests at `entry0`, element `e` at `max(grant(e-1) + z,
    /// chain[e])`, and the stream has `chain.len()` elements at word
    /// `base + stride·e`. `sink(e, request, grant)` receives every
    /// element's request and grant tick.
    ///
    /// No element pays a division: the bank index steps by `stride mod
    /// banks`, and the refresh phase is a cursor that only moves
    /// forward, since the grants of one stream are monotone. The bounds
    /// are checked once, on the first and last element, and the access and
    /// wait counters are added once.
    ///
    /// On a single-port view with no background claims, elements go in
    /// *runs*: after a search grants an element at `last`, the elements
    /// after it are granted at `last + z`, `last + 2z`, and so on, with no
    /// search, while each one's chain term, its bank's free time and the
    /// next refresh window (found once per run from the refresh cursor)
    /// all clear its tick. Those are the three things the search would
    /// have waited on, so the search would have granted the same tick,
    /// charged nothing, and claimed the bank the same way (see
    /// `Port::run`). The first element that fails a check is searched
    /// as usual, and a new run starts from its grant. Shared state and
    /// background contention search every element.
    ///
    /// # Panics
    ///
    /// Panics if the first or last element is outside the configured
    /// memory size.
    pub fn grant_stream(
        &mut self,
        base: u64,
        stride: i64,
        entry0: i64,
        z: i64,
        chain: &[i64],
        mut sink: impl FnMut(usize, i64, i64),
    ) -> StreamGrants {
        let Some(span) = chain.len().checked_sub(1) else {
            return StreamGrants {
                first: entry0,
                last: entry0,
                chain_wait: 0,
                waits: WaitTicks::default(),
                run_elements: 0,
            };
        };
        self.check(base, 1);
        self.check(
            base.wrapping_add_signed(stride.wrapping_mul(span as i64)),
            1,
        );
        let banks = self.banks as usize;
        let step = stride.rem_euclid(banks as i64) as usize;
        let next = |bank| next_bank(bank, step, banks);
        let runs = matches!(self.bank.0, Banks::Single(_)) && !self.background.has_rows() && z >= 0;
        let rotation = if runs {
            self.banks_touched(stride) as usize
        } else {
            0
        };
        let mut bank = bank_of(base, self.banks) as usize;
        let mut port = self.port(entry0.max(0));
        let first = port.search(bank, entry0.max(0));
        sink(0, entry0, first);
        let (mut last, mut chain_wait, mut run_elements) = (first, 0, 0);
        // From here on `bank` is element `e`'s.
        bank = next(bank);
        let mut e = 1;
        while e < chain.len() {
            if runs {
                let (k, after) = port.run(&chain[e..], bank, step, rotation, last, z);
                for j in e..e + k {
                    last += z;
                    sink(j, last, last);
                }
                (e, bank, run_elements) = (e + k, after, run_elements + k);
                if e == chain.len() {
                    break;
                }
            }
            let ideal = last + z;
            let request = ideal.max(chain[e]);
            chain_wait += request - ideal;
            last = port.search(bank, request.max(0));
            sink(e, request, last);
            (e, bank) = (e + 1, next(bank));
        }
        let waits = port.waits;
        self.count(chain.len() as u64, waits);
        StreamGrants {
            first,
            last,
            chain_wait,
            waits,
            run_elements,
        }
    }

    /// The grant search for this view, borrowed apart from the rest of
    /// the memory system, with its refresh cursor at tick `t`.
    fn port(&mut self, t: i64) -> Port<'_> {
        Port {
            banks: &mut self.bank.0,
            background: &self.background,
            background_start: 0,
            busy: self.busy,
            view: self.view,
            refresh: self.refresh.map(|(period, len)| RefreshWindows {
                period,
                len,
                start: t - t % period,
            }),
            waits: WaitTicks::default(),
        }
    }

    /// Adds `accesses` accesses and their `waits` to this view's
    /// counters.
    fn count(&mut self, accesses: u64, waits: WaitTicks) {
        self.accesses += accesses;
        self.breakdown += waits;
    }

    /// Visits every count this view keeps that a periodic loop advances:
    /// the banks' free times (single-port state; shared claims are not
    /// visited), this view's wait breakdown in ticks, and its access
    /// count. The simulator's steady-state fast-forward snapshots these
    /// and translates them by whole periods.
    pub fn visit_timing(&mut self, mut visit: impl FnMut(&mut i64)) {
        if let Banks::Single(free) = &mut self.bank.0 {
            for free in free {
                visit(free);
            }
        }
        visit(&mut self.breakdown.bank_busy);
        visit(&mut self.breakdown.refresh);
        visit(&mut self.breakdown.contention);
        let mut accesses = self.accesses as i64;
        visit(&mut accesses);
        self.accesses = accesses as u64;
    }

    /// The number of distinct banks a stride touches before repeating —
    /// `banks / gcd(stride, banks)`.
    fn banks_touched(&self, stride_words: i64) -> u32 {
        rotation(stride_words.unsigned_abs(), self.banks) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::ContentionStream;
    use c240_isa::timing::TICKS_PER_CYCLE as T;

    /// The C-240 without refresh.
    fn quiet_machine() -> MachineDescription {
        MachineDescription {
            refresh_enabled: false,
            ..MachineDescription::c240()
        }
    }

    /// A memory of `machine` on an otherwise idle machine.
    fn idle(machine: &MachineDescription) -> MemorySystem {
        MemorySystem::new(machine, &ContentionConfig::idle())
    }

    fn quiet() -> MemorySystem {
        idle(&quiet_machine())
    }

    #[test]
    fn unit_stride_streams_at_one_per_cycle() {
        let mut mem = quiet();
        let mut t = 0;
        for i in 0..256u64 {
            let g = mem.grant(i, t);
            assert_eq!(g, t, "element {i} should not wait");
            t += T;
        }
        assert_eq!(mem.wait_ticks().total(), 0);
    }

    #[test]
    fn same_bank_accesses_wait_bank_busy() {
        let mut mem = quiet();
        let t0 = mem.grant(0, 0);
        let t1 = mem.grant(32, t0 + T); // same bank 0
        assert_eq!(t0, 0);
        assert_eq!(t1, 8 * T);
    }

    #[test]
    fn stride_32_is_bank_limited() {
        let mut mem = quiet();
        let mut t = 0;
        let mut grants = Vec::new();
        for i in 0..16u64 {
            let g = mem.grant(i * 32, t);
            grants.push(g);
            t = g + T; // port wants one per cycle
        }
        // Steady state: one element per 8 cycles.
        let deltas: Vec<i64> = grants.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == 8 * T), "{deltas:?}");
    }

    #[test]
    fn refresh_blocks_grants() {
        let mut mem = idle(&MachineDescription::c240());
        // Request at cycle 2 lands inside the refresh window [0, 8) and
        // pays the full 8-cycle stall (§3.2 of the paper).
        let g = mem.grant(0, 2 * T);
        assert_eq!(g, 10 * T);
        // Request at 401 lands inside [400, 408).
        let g2 = mem.grant(1, 401 * T);
        assert_eq!(g2, 409 * T);
        // Requests between windows go through immediately.
        let g3 = mem.grant(2, 100 * T);
        assert_eq!(g3, 100 * T);
    }

    #[test]
    fn refresh_costs_about_two_percent() {
        let mut mem = idle(&MachineDescription::c240());
        let mut t = 0;
        let n = 40_000u64;
        for i in 0..n {
            let g = mem.grant(i % 1000, t);
            t = g + T;
        }
        let ideal = (n as i64 * T) as f64;
        let slowdown = t as f64 / ideal;
        assert!(
            (1.015..1.025).contains(&slowdown),
            "refresh slowdown {slowdown} should be ~1.02"
        );
    }

    #[test]
    fn write_then_read_roundtrips_data() {
        let mut mem = quiet();
        let t = mem.grant(77, 0);
        mem.poke(77, 3.25);
        assert_eq!(mem.grant(77, t + T), t + 8 * T);
        assert_eq!(mem.peek(77), 3.25);
    }

    #[test]
    fn poke_peek() {
        let mut mem = quiet();
        mem.poke(5, -1.5);
        assert_eq!(mem.peek(5), -1.5);
        assert_eq!(mem.access_count(), 0);
    }

    fn sixteen_words() -> MemorySystem {
        idle(&MachineDescription {
            words: 16,
            ..MachineDescription::c240()
        })
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let _ = sixteen_words().peek(16);
    }

    #[test]
    fn storage_grows_on_write_and_reads_zero_above_it() {
        let mut mem = sixteen_words();
        assert_eq!(mem.words(), 16);
        assert_eq!(mem.peek(15), 0.0);
        mem.store_run(2, &[1.0, 2.0, 3.0]);
        // Straddles the written length (5), then lies wholly above it.
        let mut run = [f64::NAN; 6];
        assert!(mem.read_run(3, &mut run));
        assert_eq!(run, [2.0, 3.0, 0.0, 0.0, 0.0, 0.0]);
        let mut run = [f64::NAN; 4];
        assert!(mem.read_run(12, &mut run));
        assert_eq!(run, [0.0; 4]);
        mem.poke(15, 7.5);
        assert_eq!(mem.peek(15), 7.5);
        assert_eq!(mem.peek(14), 0.0);
        let mut whole = [f64::NAN; 16];
        assert!(mem.read_run(0, &mut whole));
        assert_eq!(&whole[..6], &[0.0, 0.0, 1.0, 2.0, 3.0, 0.0]);
        assert_eq!(whole[15], 7.5);
    }

    #[test]
    fn runs_past_the_data_space_are_refused() {
        let mem = sixteen_words();
        let mut run = [f64::NAN; 4];
        assert!(!mem.read_run(13, &mut run));
        assert!(!mem.read_run(16, &mut run[..1]));
        assert!(!mem.read_run(u64::MAX, &mut run));
        assert!(
            run.iter().all(|x| x.is_nan()),
            "a refused read copies nothing"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn poke_past_the_data_space_panics() {
        sixteen_words().poke(16, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds: word address 16 >= 16 words")]
    fn store_run_past_the_data_space_panics() {
        sixteen_words().store_run(14, &[1.0; 3]);
    }

    #[test]
    fn strided_stores_grow_once_and_match_pokes() {
        for stride in [3i64, -5, 0] {
            let mut strided = sixteen_words();
            let mut poked = sixteen_words();
            let values = [1.5, 2.5, 3.5];
            let base = if stride < 0 { 12 } else { 2 };
            strided.store_strided(base, stride, &values);
            for (e, &v) in values.iter().enumerate() {
                poked.poke(base.wrapping_add_signed(stride * e as i64), v);
            }
            let (mut a, mut b) = ([0.0; 16], [0.0; 16]);
            assert!(strided.read_run(0, &mut a) && poked.read_run(0, &mut b));
            assert_eq!(a, b, "stride {stride}");
            assert_eq!(strided.data.len(), poked.data.len(), "stride {stride}");
        }
        let mut mem = sixteen_words();
        mem.store_strided(20, 1, &[]);
        assert!(mem.data.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn strided_store_past_the_data_space_panics() {
        sixteen_words().store_strided(10, 3, &[0.0; 3]);
    }

    #[test]
    fn cloned_stores_are_independent() {
        let mut a = sixteen_words();
        a.poke(1, 1.0);
        let mut b = a.clone();
        b.poke(1, 2.0);
        b.poke(9, 3.0);
        a.poke(4, 4.0);
        assert_eq!((a.peek(1), a.peek(9), a.peek(4)), (1.0, 0.0, 4.0));
        assert_eq!((b.peek(1), b.peek(9), b.peek(4)), (2.0, 3.0, 0.0));
    }

    #[test]
    fn reset_timing_keeps_data() {
        let mut mem = quiet();
        mem.grant(3, 0);
        mem.poke(3, 9.0);
        mem.reset_timing();
        assert_eq!(mem.peek(3), 9.0);
        assert_eq!(mem.access_count(), 0);
        let g = mem.grant(3, 0);
        assert_eq!(g, 0);
    }

    #[test]
    fn contention_delays_grants() {
        let contention = ContentionConfig {
            streams: vec![ContentionStream::unit(0)],
        };
        let mut mem = MemorySystem::new(&quiet_machine(), &contention);
        // The stream claims bank 0 during [0, 8).
        let g = mem.grant(0, 0);
        assert_eq!(g, 8 * T);
    }

    #[test]
    fn mixed_contention_slows_unit_stream() {
        let mut mem = MemorySystem::new(&quiet_machine(), &ContentionConfig::mixed(3));
        let mut t = 0;
        let n = 10_000u64;
        for i in 0..n {
            let g = mem.grant(i, t);
            t = g + T;
        }
        let slowdown = t as f64 / (n as i64 * T) as f64;
        // §4.2: typical contention stretches a 40 ns access to 56–64 ns.
        assert!(
            (1.35..=1.65).contains(&slowdown),
            "mixed contention slowdown {slowdown} should be ~1.4-1.6"
        );
    }

    #[test]
    fn lockstep_contention_is_mild() {
        let mut mem = MemorySystem::new(&quiet_machine(), &ContentionConfig::lockstep(3));
        let mut t = 0;
        let n = 40_000u64;
        for i in 0..n {
            let g = mem.grant(i, t);
            t = g + T;
        }
        let slowdown = t as f64 / (n as i64 * T) as f64;
        // §4.2: same-executable neighbors cost only 5-10%.
        assert!(
            (1.04..=1.12).contains(&slowdown),
            "lockstep contention slowdown {slowdown} should be ~1.05-1.10"
        );
    }

    #[test]
    fn banks_touched() {
        let mem = quiet();
        assert_eq!(mem.banks_touched(1), 32);
        assert_eq!(mem.banks_touched(2), 16);
        assert_eq!(mem.banks_touched(32), 1);
        assert_eq!(mem.banks_touched(25), 32);
        assert_eq!(mem.banks_touched(0), 1);
        assert_eq!(mem.banks_touched(-2), 16);
    }

    #[test]
    fn wait_statistics_accumulate() {
        let mut mem = quiet();
        let _ = mem.grant(0, 0);
        let _ = mem.grant(32, 0); // waits 8 cycles
        assert_eq!(mem.wait_ticks().total(), 8 * T);
        assert_eq!(mem.access_count(), 2);
        assert_eq!(mem.wait_ticks().cycles().bank_busy, 8.0);
    }

    #[test]
    fn wait_breakdown_sums_exactly_under_all_causes() {
        // Refresh + contention + bank recycling all active at once.
        let mut mem = MemorySystem::new(&MachineDescription::c240(), &ContentionConfig::mixed(3));
        let (mut t, mut stalled) = (0, 0);
        for i in 0..5_000u64 {
            let addr = (i * 7) % 2000;
            let g = mem.grant(addr, t);
            // Re-read the same bank one cycle after its grant: the bank
            // is still recycling, so this charges bank_busy.
            let g2 = mem.grant(addr, g + T);
            stalled += (g - t) + (g2 - (g + T));
            t = g2 + T;
        }
        let b = mem.wait_ticks();
        // Exact, not approximate: every tick between a request and its
        // grant was charged to exactly one cause.
        assert_eq!(b.total(), stalled);
        assert!(b.bank_busy > 0 && b.refresh > 0 && b.contention > 0);
        // In cycles the causes sum to the total only to within rounding.
        assert!((b.cycles().total() - cycles(b.total())).abs() < 1e-9);
        // Ablations zero their category.
        let mut quiet_mem = quiet();
        let (mut t, mut stalled) = (0, 0);
        for i in 0..1_000u64 {
            let g = quiet_mem.grant(i % 64, t);
            stalled += g - t;
            t = g + T;
        }
        let qb = quiet_mem.wait_ticks();
        assert_eq!(qb.refresh, 0);
        assert_eq!(qb.contention, 0);
        assert_eq!(qb.total(), stalled);
    }

    /// What the oracle saw of shared-state searches: how many were
    /// displaced by two or more claims in a row of displacements, and how
    /// many grants fit a gap before a later claim.
    #[derive(Default)]
    struct Crowding {
        displaced_twice: u32,
        fitted: u32,
    }

    /// The per-element grant search as it stood before the stream
    /// walker, kept as the walker's oracle: `%` for the bank and the
    /// refresh phase, a prune on every access and a front-to-back scan
    /// for the first overlapping claim on shared state, and the counters
    /// bumped per access.
    fn oracle_grant(mem: &mut MemorySystem, addr: u64, earliest: i64, seen: &mut Crowding) -> i64 {
        mem.check(addr, 1);
        let bank = (addr % u64::from(mem.banks)) as usize;
        let earliest = earliest.max(0);
        let busy = mem.busy;
        if let Banks::Shared { claims, horizon } = &mut mem.bank.0 {
            let horizon = *horizon;
            claims[bank].retain(|&(s, _)| s + busy > horizon);
        }
        let (mut t, mut displaced) = (earliest, 0);
        loop {
            match &mem.bank.0 {
                Banks::Single(free) => {
                    if t < free[bank] {
                        let end = free[bank];
                        mem.breakdown.bank_busy += end - t;
                        t = end;
                        continue;
                    }
                }
                Banks::Shared { claims, .. } => {
                    let hit = claims[bank]
                        .iter()
                        .find(|&&(s, _)| s < t + busy && s + busy > t)
                        .copied();
                    if let Some((s, owner)) = hit {
                        if owner == mem.view {
                            mem.breakdown.bank_busy += s + busy - t;
                        } else {
                            mem.breakdown.contention += s + busy - t;
                        }
                        t = s + busy;
                        displaced += 1;
                        continue;
                    }
                }
            }
            if let Some((period, len)) = mem.refresh {
                if t % period < len {
                    mem.breakdown.refresh += len;
                    t += len;
                    continue;
                }
            }
            if let Some(end) = mem.background.blocking_end(bank, t, &mut 0) {
                mem.breakdown.contention += end - t;
                t = end;
                continue;
            }
            break;
        }
        match &mut mem.bank.0 {
            Banks::Single(free) => {
                if t + busy >= free[bank] {
                    free[bank] = t + busy;
                }
            }
            Banks::Shared { claims, .. } => {
                let pos = claims[bank].partition_point(|&(s, _)| s <= t);
                seen.displaced_twice += u32::from(displaced >= 2);
                seen.fitted += u32::from(pos < claims[bank].len());
                claims[bank].insert(pos, (t, mem.view));
            }
        }
        mem.accesses += 1;
        t
    }

    /// A small deterministic generator for the walker grid.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    /// `grant_stream` grants every element exactly as the oracle's
    /// per-element search does, and leaves identical bank state (free
    /// times, or shared claims and horizon), wait breakdown and access
    /// count. Walks bank counts, strides (zero and negative included),
    /// lengths, starts on both sides of refresh windows and seeded chain
    /// delays, in six modes: single-port with earlier traffic of this view
    /// and a foreign one, single-port without refresh, shared state with
    /// foreign claims (some already dead at the horizon), crowded shared
    /// state, and lockstep and mixed background contention.
    ///
    /// In the crowded mode two foreign views leave a claim on every bank
    /// every 8 to 16 cycles, so the gaps between claims are both shorter
    /// and longer than the bank busy time. There the walker's forward
    /// cursor must match the oracle's front-to-back scan through chains
    /// of displacements, refresh waits that skip claims (its refresh
    /// window is 20 cycles, over twice the bank busy time), and grants
    /// fitted into a gap before a later claim; the oracle counts the
    /// first and last kinds of search and the test fails unless both
    /// occur.
    ///
    /// The walker's runs (elements granted at the previous grant plus
    /// `z` without a search) get cases that break them: `z` at or above
    /// a refresh window (200 and 400 ticks), strides 16 and 32 whose
    /// bank rotation times `z` falls short of the bank busy time, chain
    /// terms that start binding only part-way through the stream, and
    /// fresh traffic on the stream's first-rotation banks. Runs must
    /// also carry most elements of the idle single-port cases and share
    /// a tenth of the streams with searches, so the test fails if they
    /// silently never engage.
    #[test]
    fn grant_stream_matches_per_element_grants() {
        const OFFSET: u64 = 1024; // below every negative-stride stream
        let strides = [0i64, 1, 2, 3, 7, 16, 32, 64, -1, -5];
        let lengths = [1usize, 2, 7, 64, 128];
        // In ticks: cycles 0, 7.5 and 400 start inside a refresh window;
        // 8, 399.5 and 1208.5 just after or before one.
        let starts = [0i64, 150, 160, 7990, 8000, 24_170];
        let modes = [
            "single",
            "norefresh",
            "multiport",
            "crowded",
            "lockstep",
            "mixed",
        ];
        let mut rng = Lcg(0x5eed);
        let (mut cases, mut waited, mut chained, mut refreshed, mut pruned) = (0u32, 0, 0, 0, 0);
        // Elements after the first in the idle single-port modes, and
        // how many of them runs granted.
        let (mut idle_elements, mut idle_ran, mut broken) = (0usize, 0usize, 0u32);
        let mut seen = Crowding::default();
        for banks in [1u32, 2, 16, 32, 64] {
            for mode in modes {
                if banks < 32 && matches!(mode, "lockstep" | "mixed") {
                    continue; // background streams saturate so few banks
                }
                let machine = MachineDescription {
                    banks,
                    words: 10_000,
                    refresh_enabled: mode != "norefresh",
                    // A window at least twice the bank busy time can carry
                    // a search past a claim without overlapping it.
                    refresh_len: if mode == "crowded" { 20 } else { 8 },
                    ..MachineDescription::c240()
                };
                let contention = match mode {
                    "lockstep" => ContentionConfig::lockstep(3),
                    "mixed" => ContentionConfig::mixed(3),
                    _ => ContentionConfig::idle(),
                };
                let mut seeded = MemorySystem::new(&machine, &contention);
                if matches!(mode, "multiport" | "crowded") {
                    seeded.swap_bank_state(&mut BankState::multiport(banks));
                }
                if mode == "crowded" {
                    let busy = seeded.busy;
                    for bank in 0..u64::from(banks) {
                        let mut at = rng.below(2 * busy as u64) as i64;
                        while at < 40_000 {
                            seeded.set_view(1 + (at & 1) as u32);
                            let granted = seeded.grant(OFFSET + bank, at);
                            at = granted + busy + rng.below(2 * busy as u64) as i64;
                        }
                    }
                }
                // Earlier traffic: this view's and a foreign view's.
                for (view, word, at) in
                    [(0, 0, 6), (3, 5, 2), (3, 1, 140), (0, 9, 395), (3, 2, 1200)]
                {
                    seeded.set_view(view);
                    let _ = seeded.grant(OFFSET + word, at * T);
                }
                seeded.set_view(0);
                for &stride in &strides {
                    for &n in &lengths {
                        for &entry0 in &starts {
                            let base = OFFSET + rng.below(u64::from(banks));
                            let z = [20, 27, 38, 200, 400][rng.below(5) as usize];
                            // Chain terms bind at random elements, or
                            // only from element `quiet` on.
                            let quiet = match rng.below(3) {
                                0 => rng.below(n as u64) as i64,
                                _ => 0,
                            };
                            let chain: Vec<i64> = (0..n as i64)
                                .map(|e| match rng.below(4) {
                                    0 if e >= quiet => entry0 + z * e + rng.below(200) as i64,
                                    _ => rng.below(entry0 as u64 + 1) as i64,
                                })
                                .collect();
                            // Fresh traffic on a bank of the stream's
                            // first rotation, claimed part-way through
                            // the stream's would-be run.
                            let fresh = (rng.below(3) == 0).then(|| {
                                let k = rng.below(n.min(8) as u64) as i64;
                                let word = base.wrapping_add_signed(stride * k);
                                let at = entry0 + z * k - rng.below(3) as i64 * T;
                                (word, at.max(0))
                            });
                            let case = format!(
                                "banks {banks} {mode} base {base} stride {stride} n {n} \
                                 entry0 {entry0} z {z} quiet {quiet} fresh {fresh:?}"
                            );
                            let mut walker = seeded.clone();
                            if let Some((word, at)) = fresh {
                                walker.set_view(3);
                                let _ = walker.grant(word, at);
                                walker.set_view(0);
                            }
                            let seeded = walker.clone();
                            // Every request of the stream is at or after
                            // `entry0`, so it may serve as the horizon.
                            walker.bank.set_horizon(entry0);
                            let mut oracle = walker.clone();
                            let mut walked = Vec::new();
                            let got =
                                walker.grant_stream(base, stride, entry0, z, &chain, |e, r, g| {
                                    walked.push((e, r, g))
                                });
                            let (mut prev, mut chain_wait) = (0, 0);
                            for (e, &ready) in chain.iter().enumerate() {
                                let request = if e == 0 {
                                    entry0
                                } else {
                                    chain_wait += ready.max(prev + z) - (prev + z);
                                    ready.max(prev + z)
                                };
                                let word = base.wrapping_add_signed(stride * e as i64);
                                prev = oracle_grant(&mut oracle, word, request, &mut seen);
                                assert_eq!(walked[e], (e, request, prev), "element {e}: {case}");
                            }
                            assert_eq!(walked.len(), n, "{case}");
                            let want = StreamGrants {
                                first: walked[0].2,
                                last: prev,
                                chain_wait,
                                waits: oracle.wait_ticks() - seeded.wait_ticks(),
                                run_elements: got.run_elements,
                            };
                            assert_eq!(got, want, "{case}");
                            assert_eq!(walker.bank, oracle.bank, "{case}");
                            assert_eq!(walker.wait_ticks(), oracle.wait_ticks(), "{case}");
                            // Every tick between request and grant is charged.
                            let stalled: i64 = walked.iter().map(|&(_, r, g)| g - r.max(0)).sum();
                            let charged = walker.wait_ticks().total() - seeded.wait_ticks().total();
                            assert_eq!(charged, stalled, "{case}");
                            assert_eq!(walker.access_count(), oracle.access_count(), "{case}");
                            cases += 1;
                            let claims = |m: &MemorySystem| match &m.bank.0 {
                                Banks::Single(_) => 0,
                                Banks::Shared { claims, .. } => claims.iter().map(Vec::len).sum(),
                            };
                            pruned += u32::from(claims(&walker) < claims(&seeded) + n);
                            waited += u32::from(walked.iter().any(|&(_, r, g)| g > r));
                            chained += u32::from(chain_wait > 0);
                            refreshed += u32::from(
                                walker.wait_ticks().refresh > seeded.wait_ticks().refresh,
                            );
                            assert!(got.run_elements < n, "{case}");
                            if matches!(mode, "single" | "norefresh") {
                                idle_elements += n - 1;
                                idle_ran += got.run_elements;
                                // Streams granted partly in runs and
                                // partly by searches past element 0.
                                let searched = (1..n).any(|e| {
                                    let (_, r, g) = walked[e];
                                    g != walked[e - 1].2 + z || r != g
                                });
                                broken += u32::from(got.run_elements > 0 && searched);
                            } else {
                                assert_eq!(got.run_elements, 0, "{case}");
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, (3 * 4 + 2 * 6) * 10 * 5 * 6);
        // An empty stream grants nothing.
        let mut mem = quiet();
        let empty = mem.grant_stream(0, 1, 5, T, &[], |_, _, _| unreachable!());
        assert_eq!((empty.first, empty.last, mem.access_count()), (5, 5, 0));
        assert!(
            waited > cases / 2
                && chained > cases / 8
                && refreshed > cases / 4
                && pruned > cases / 20
                && broken > cases / 10
                && idle_ran > idle_elements / 2
                && seen.displaced_twice > cases
                && seen.fitted > cases,
            "{cases} cases: {waited} waited, {chained} chained, {refreshed} refreshed, \
             {pruned} pruned, {broken} broken runs; runs granted {idle_ran} of \
             {idle_elements} idle single-port elements; {} shared searches displaced \
             twice or more, {} fitted before a later claim",
            seen.displaced_twice,
            seen.fitted
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn grant_stream_checks_its_last_element() {
        let mut mem = idle(&MachineDescription {
            words: 64,
            ..MachineDescription::c240()
        });
        let _ = mem.grant_stream(60, 2, 0, T, &[0; 3], |_, _, _| {});
    }

    #[test]
    fn shared_bank_state_charges_foreign_claims_to_contention() {
        // Two views arbitrate over one BankState: B's wait behind A's
        // claim is contention; A's wait behind its own claim stays
        // bank-busy.
        let mut a = quiet();
        let mut b = quiet();
        b.set_view(1);
        let mut shared = BankState::multiport(32);

        a.swap_bank_state(&mut shared);
        let g = a.grant(0, 0); // A claims bank 0 for [0, 8)
        assert_eq!(g, 0);
        a.swap_bank_state(&mut shared);

        b.swap_bank_state(&mut shared);
        let g = b.grant(32, T); // same bank, different view
        assert_eq!(g, 8 * T);
        b.swap_bank_state(&mut shared);

        assert_eq!(b.wait_ticks().contention, 7 * T);
        assert_eq!(b.wait_ticks().bank_busy, 0);
        assert_eq!(a.wait_ticks().total(), 0);

        // A's next access to bank 0 waits behind B's claim: contention.
        a.swap_bank_state(&mut shared);
        let g = a.grant(64, 9 * T); // bank 0, now owned by B until 16
        assert_eq!(g, 16 * T);
        a.swap_bank_state(&mut shared);
        assert_eq!(a.wait_ticks().contention, 7 * T);
        assert_eq!((a.access_count(), b.access_count()), (2, 1));
    }
}
