//! The banked memory system: data storage plus access timing.
//!
//! Since the multi-CPU co-simulation refactor the system is split in
//! two: [`BankState`] holds the *shared* arbitration state (per-bank
//! earliest-free times, which CPU last claimed each bank, and
//! machine-wide counters), while [`MemorySystem`] is a per-CPU *view*
//! over it — private data space and private accounting on top of the
//! shared banks. A single-CPU simulation owns both halves and behaves
//! exactly as before; a co-simulation driver (`c240_sim::Machine`)
//! keeps one `BankState` and swaps it into whichever CPU's view is
//! stepping, so contention between CPUs *emerges* from real interleaved
//! traffic instead of the synthetic [`ContentionStream`]s.
//!
//! Every time here is an exact integer tick count (20 ticks per cycle).
//!
//! [`ContentionStream`]: crate::ContentionStream

use crate::contention::ContentionConfig;
use crate::{bank_of, cycle_ticks, cycles, gcd, Journal};

/// Configuration of the memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Number of interleaved banks (32 in the standard C-240).
    pub banks: u32,
    /// Bank cycle (recovery) time in cycles (8 on the C-240).
    pub bank_busy: u64,
    /// Cycles between refresh windows (400 on the C-240 = 16 µs).
    pub refresh_period: u64,
    /// Length of each refresh window in cycles (8 on the C-240).
    pub refresh_len: u64,
    /// Whether refresh is modeled (disable for ablations).
    pub refresh_enabled: bool,
    /// Memory size in 8-byte words.
    pub words: usize,
    /// Background traffic from the other CPUs.
    pub contention: ContentionConfig,
}

impl MemConfig {
    /// The standard C-240 configuration (§2 of the paper) with 8 MiB of
    /// data space and an otherwise idle machine.
    pub fn c240() -> Self {
        MemConfig {
            banks: 32,
            bank_busy: 8,
            refresh_period: 400,
            refresh_len: 8,
            refresh_enabled: true,
            words: 1 << 20,
            contention: ContentionConfig::idle(),
        }
    }

    /// Same configuration with refresh disabled (ablation).
    pub fn without_refresh(mut self) -> Self {
        self.refresh_enabled = false;
        self
    }

    /// Same configuration with the given background contention.
    pub fn with_contention(mut self, contention: ContentionConfig) -> Self {
        self.contention = contention;
        self
    }

    /// Same configuration with a different bank count.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or above [`crate::MAX_BANKS`]. Wire
    /// input is checked by [`MemConfig::validate`] instead.
    pub fn with_banks(mut self, banks: u32) -> Self {
        self.banks = banks;
        self.check_banks()
            .expect("memory must have at least one bank");
        self
    }

    /// Same configuration with a different data size in words.
    pub fn with_words(mut self, words: usize) -> Self {
        self.words = words;
        self
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::c240()
    }
}

/// The shared half of the memory system: per-bank arbitration state plus
/// machine-wide accounting, common to every CPU port.
///
/// A single-CPU [`MemorySystem`] owns its own `BankState`; a co-sim
/// driver owns one and swaps it between the CPUs' views with
/// [`MemorySystem::swap_bank_state`] (an O(1) pointer swap) so every
/// grant search sees every other CPU's outstanding claims.
#[derive(Debug, Clone, PartialEq)]
pub struct BankState {
    /// Earliest tick each bank is free of *all* claims so far (the end
    /// of its latest claim).
    free: Vec<i64>,
    /// The view (CPU port) that last claimed each bank — waits behind a
    /// foreign claim are charged to contention, not bank-busy.
    owner: Vec<u32>,
    /// Multiport mode only: each bank's outstanding claim windows as
    /// `(start, owner)` pairs sorted by start (every claim lasts the
    /// configured bank-busy time). Empty in single-port mode.
    claims: Vec<Vec<(i64, u32)>>,
    /// Whether grant searches fit into idle windows *between* claims
    /// (multiport co-sim) or only after the latest claim (single-port).
    multiport: bool,
    /// Claims ending at or before this tick can no longer affect any
    /// future request and are pruned.
    horizon: i64,
    /// Machine-wide accesses across all views.
    accesses: u64,
    /// Machine-wide wait breakdown across all views.
    breakdown: WaitTicks,
}

impl BankState {
    /// Fresh (all banks free at tick 0) single-port state for `banks`
    /// banks: a request waits until the bank's latest claim ends. Exact
    /// for one CPU, whose port serializes requests in non-decreasing
    /// earliest-start order, so an idle window behind the cursor can
    /// never be used anyway.
    pub fn new(banks: u32) -> Self {
        BankState {
            free: vec![0; banks as usize],
            owner: vec![0; banks as usize],
            claims: Vec::new(),
            multiport: false,
            horizon: 0,
            accesses: 0,
            breakdown: WaitTicks::default(),
        }
    }

    /// Fresh *multiport* state: claims are tracked individually and a
    /// grant search may fit into an idle window between two existing
    /// claims. Co-simulated CPUs interleave out of timestamp order (CPU
    /// A steps a whole vector instruction — claiming several rotations
    /// of each bank — before CPU B's earlier-cycle request arrives), so
    /// the single `free` cursor would force B behind A's *last*
    /// rotation; window-fitting restores the interleaved packing the
    /// real banks provide. For requests arriving in non-decreasing
    /// earliest order (any single port) the two modes grant identically.
    pub fn multiport(banks: u32) -> Self {
        BankState {
            claims: vec![Vec::new(); banks as usize],
            multiport: true,
            ..BankState::new(banks)
        }
    }

    /// Whether this state window-fits (see [`BankState::multiport`]).
    pub fn is_multiport(&self) -> bool {
        self.multiport
    }

    /// Declares that every future request starts at or after tick
    /// `tick` (the co-sim driver's minimum issue clock, minus margin):
    /// claims ending at or before it are dead and get pruned. Monotonic
    /// — lower values than a previous horizon are ignored.
    pub fn set_horizon(&mut self, tick: i64) {
        self.horizon = self.horizon.max(tick);
    }

    /// Clears all arbitration state and counters.
    pub fn reset(&mut self) {
        self.free.fill(0);
        self.owner.fill(0);
        for c in &mut self.claims {
            c.clear();
        }
        self.horizon = 0;
        self.accesses = 0;
        self.breakdown = WaitTicks::default();
    }

    /// Total accesses served across every view sharing this state.
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Total wait cycles across every view sharing this state.
    pub fn wait_cycles(&self) -> f64 {
        cycles(self.breakdown.total())
    }

    /// The machine-wide wait breakdown across every view sharing this
    /// state. Per-view breakdowns sum to this exactly.
    pub fn wait_breakdown(&self) -> WaitBreakdown {
        self.breakdown.cycles()
    }

    /// The machine-wide wait split by cause, in ticks. Per-view
    /// [`MemorySystem::wait_ticks`] sum to this exactly.
    pub fn wait_ticks(&self) -> WaitTicks {
        self.breakdown
    }
}

/// The memory system as seen from one CPU port: word-addressed data plus
/// the (possibly shared) per-bank availability.
///
/// Timing methods take the earliest tick an access may start and return
/// the tick at which the bank granted it. Between request and grant the
/// access may wait for: the bank's recovery from one of this CPU's own
/// earlier accesses (bank busy), another CPU's claim on the bank
/// (contention — only in co-simulation), a refresh window, or a
/// synthetic background contention claim.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    /// The bank busy time in ticks.
    busy: i64,
    /// The refresh period and window in ticks, when refresh is modeled.
    refresh: Option<(i64, i64)>,
    data: Vec<f64>,
    bank: BankState,
    view: u32,
    accesses: u64,
    breakdown: WaitTicks,
}

/// Cycles accesses spent waiting, split by cause.
///
/// Every bump of the grant-search cursor is charged to exactly one
/// field, so `bank_busy + refresh + contention` equals
/// [`MemorySystem::wait_cycles`] identically — not approximately.
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
    /// Sum of all causes; equals total wait cycles.
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
    /// and the shared breakdown.
    pub waits: WaitTicks,
}

/// The refresh windows as a cursor: `start` is the first tick of the
/// refresh period holding the latest tick asked about. The searches of a
/// stream paced by a non-negative `z` only ask about later ticks, so the
/// cursor only moves forward, and it divides only when a search leaves
/// the current period.
#[derive(Clone, Copy)]
struct RefreshWindows {
    period: i64,
    len: i64,
    start: i64,
}

impl RefreshWindows {
    /// Whether tick `t` (not negative) falls inside a refresh window.
    fn blocks(&mut self, t: i64) -> bool {
        let mut into = t - self.start;
        if !(0..self.period).contains(&into) {
            into = t % self.period;
            self.start = t - into;
        }
        into < self.len
    }
}

/// One view's grant search over the bank state, borrowed apart from the
/// rest of the memory system for one access or one stream: the one search
/// body behind [`MemorySystem::grant`] and [`MemorySystem::grant_stream`].
/// Its borrows alias nothing else, so a stream's walk keeps them in
/// registers. Waits collect in `waits` until the caller counts them.
struct Port<'a> {
    free: &'a mut [i64],
    owner: &'a mut [u32],
    claims: &'a mut [Vec<(i64, u32)>],
    multiport: bool,
    horizon: i64,
    contention: &'a ContentionConfig,
    banks: u32,
    busy: i64,
    view: u32,
    refresh: Option<RefreshWindows>,
    waits: WaitTicks,
}

impl Port<'_> {
    /// Finds the earliest tick from `earliest` on at which `bank` is free
    /// of claims, refresh and background contention, charges each wait
    /// to its cause, and claims the bank from that tick. The refresh
    /// cursor must not have been asked about a later tick than
    /// `earliest`.
    #[inline(always)]
    fn search(&mut self, bank: usize, earliest: i64) -> i64 {
        let busy = self.busy;
        let mut t = earliest;
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(
                guard < 100_000,
                "memory grant search did not converge (bank {bank}, tick {t}); \
                 contention configuration saturates the bank"
            );
            if self.multiport {
                // Window fit: slide past the first claim overlapping
                // [t, t+busy), charging the displacement to its owner's
                // category, and retry (idle windows between later claims
                // remain usable).
                let hit = self.claims[bank]
                    .iter()
                    .find(|&&(s, _)| s < t + busy && s + busy > t)
                    .copied();
                if let Some((s, owner)) = hit {
                    let end = s + busy;
                    self.waits.add(self.owner_cause(owner), end - t);
                    t = end;
                    continue;
                }
            } else if t < self.free[bank] {
                let end = self.free[bank];
                self.waits.add(self.owner_cause(self.owner[bank]), end - t);
                t = end;
                continue;
            }
            if let Some(windows) = &mut self.refresh {
                if windows.blocks(t) {
                    // The paper (§3.2): a refresh "will force the VP to
                    // stall for eight cycles" — the blocked access pays
                    // the full window (re-arbitration included), not just
                    // the remainder of it.
                    let len = windows.len;
                    self.waits.add(Wait::Refresh, len);
                    t += len;
                    continue;
                }
            }
            if let Some(end) = self
                .contention
                .blocking_claim_end(bank as u32, self.banks, t, busy)
            {
                self.waits.add(Wait::Contention, end - t);
                t = end;
                continue;
            }
            break;
        }
        let end = t + busy;
        if self.multiport {
            let pos = self.claims[bank].partition_point(|&(s, _)| s <= t);
            self.claims[bank].insert(pos, (t, self.view));
        }
        if end >= self.free[bank] {
            self.free[bank] = end;
            self.owner[bank] = self.view;
        }
        t
    }

    /// Drops `bank`'s claims that end at or before the horizon (multiport
    /// mode): no future request can overlap them.
    #[inline(always)]
    fn prune(&mut self, bank: usize) {
        if self.multiport {
            let (busy, horizon) = (self.busy, self.horizon);
            self.claims[bank].retain(|&(s, _)| s + busy > horizon);
        }
    }

    /// The cause a wait behind a claim by view `owner` is charged to.
    fn owner_cause(&self, owner: u32) -> Wait {
        if owner == self.view {
            Wait::BankBusy
        } else {
            Wait::Contention
        }
    }
}

impl MemorySystem {
    /// Creates a zero-filled memory with the given configuration, its
    /// cycle parameters converted to ticks once.
    pub fn new(config: MemConfig) -> Self {
        let banks = config.banks;
        let words = config.words;
        let refresh = (config.refresh_enabled && config.refresh_period > 0).then(|| {
            (
                cycle_ticks(config.refresh_period),
                cycle_ticks(config.refresh_len),
            )
        });
        MemorySystem {
            busy: cycle_ticks(config.bank_busy),
            refresh,
            config,
            data: vec![0.0; words],
            bank: BankState::new(banks),
            view: 0,
            accesses: 0,
            breakdown: WaitTicks::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Memory size in words.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Accesses served through *this view* (this CPU's port).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Cycles this view's accesses spent waiting beyond their earliest
    /// start.
    pub fn wait_cycles(&self) -> f64 {
        cycles(self.breakdown.total())
    }

    /// This view's wait cycles split by cause (bank busy, refresh,
    /// contention).
    pub fn wait_breakdown(&self) -> WaitBreakdown {
        self.breakdown.cycles()
    }

    /// This view's wait split by cause, in ticks.
    pub fn wait_ticks(&self) -> WaitTicks {
        self.breakdown
    }

    /// The view id this port charges its bank claims to (0 outside
    /// co-simulation).
    pub fn view(&self) -> u32 {
        self.view
    }

    /// Assigns the view id. A co-sim driver gives each CPU a distinct id
    /// so waits behind another CPU's claim are attributed to contention.
    pub fn set_view(&mut self, view: u32) {
        self.view = view;
    }

    /// The shared arbitration state this view currently holds (bank
    /// availability plus machine-wide counters).
    pub fn shared(&self) -> &BankState {
        &self.bank
    }

    /// Swaps this view's bank state with `other` — O(1). A co-sim driver
    /// swaps its one shared [`BankState`] in before stepping a CPU and
    /// back out afterwards, so all CPUs arbitrate against the same banks.
    pub fn swap_bank_state(&mut self, other: &mut BankState) {
        std::mem::swap(&mut self.bank, other);
    }

    /// Reads `addr` (word address) no earlier than tick `earliest`;
    /// returns the granted tick and the value.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size, which
    /// indicates a bug in the simulated program.
    pub fn read(&mut self, addr: u64, earliest: i64) -> (i64, f64) {
        let value = self.peek(addr);
        let t = self.grant(addr, earliest);
        (t, value)
    }

    /// Writes `value` to `addr` no earlier than tick `earliest`; returns
    /// the granted tick.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn write(&mut self, addr: u64, value: f64, earliest: i64) -> i64 {
        self.check(addr);
        let t = self.grant(addr, earliest);
        self.data[addr as usize] = value;
        t
    }

    /// Reads data without touching timing state (test/setup use).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn peek(&self, addr: u64) -> f64 {
        self.check(addr);
        self.data[addr as usize]
    }

    /// Writes data without touching timing state (test/setup use).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn poke(&mut self, addr: u64, value: f64) {
        self.check(addr);
        self.data[addr as usize] = value;
    }

    /// A contiguous run of `n` words starting at `addr`, or `None` if
    /// the run leaves the configured memory. Bulk data access, timing
    /// untouched: the simulator's unit-stride vector loads read through
    /// it, and checks compare whole data spaces with it.
    pub fn peek_run(&self, addr: u64, n: usize) -> Option<&[f64]> {
        self.data
            .get(addr as usize..(addr as usize).checked_add(n)?)
    }

    /// Writes `value` to `addr` without touching timing state, reporting
    /// the old value to `journal`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn store(&mut self, addr: u64, value: f64, journal: &mut impl Journal) {
        self.check(addr);
        let word = &mut self.data[addr as usize];
        journal.word(addr, *word);
        *word = value;
    }

    /// Writes `values` to the run of words starting at `addr` without
    /// touching timing state, reporting the old run to `journal`.
    ///
    /// # Panics
    ///
    /// Panics if the run leaves the configured memory.
    pub fn store_run(&mut self, addr: u64, values: &[f64], journal: &mut impl Journal) {
        let start = addr as usize;
        let run = &mut self.data[start..start + values.len()];
        journal.run(addr, run);
        run.copy_from_slice(values);
    }

    /// Clears all timing state (bank availability, statistics) while
    /// keeping data — used between measurement runs.
    pub fn reset_timing(&mut self) {
        self.bank.reset();
        self.accesses = 0;
        self.breakdown = WaitTicks::default();
    }

    fn check(&self, addr: u64) {
        assert!(
            (addr as usize) < self.data.len(),
            "memory access out of bounds: word address {addr} >= {} words",
            self.data.len()
        );
    }

    /// Finds and claims the earliest grant tick for an access to `addr`
    /// starting no earlier than `earliest`; the data moves separately
    /// ([`MemorySystem::peek`], [`MemorySystem::store`]).
    ///
    /// Waits behind a bank claimed by this view are charged to bank
    /// busy; waits behind a bank last claimed by a *different* view
    /// (another co-simulated CPU) are charged to contention — the same
    /// category the synthetic background streams use, so the attribution
    /// taxonomy is identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn grant(&mut self, addr: u64, earliest: i64) -> i64 {
        self.check(addr);
        let bank = bank_of(addr, self.config.banks) as usize;
        let earliest = earliest.max(0);
        let mut port = self.port(earliest);
        port.prune(bank);
        let t = port.search(bank, earliest);
        let waits = port.waits;
        self.count(1, waits);
        t
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
    /// are checked once, on the first and last element; the access and
    /// wait counters are added once; and in multiport mode each touched
    /// bank's dead claims are pruned once per stream, since the horizon
    /// cannot move while a stream is walked.
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
            };
        };
        self.check(base);
        self.check(base.wrapping_add_signed(stride.wrapping_mul(span as i64)));
        let banks = self.config.banks as usize;
        let step = stride.rem_euclid(banks as i64) as usize;
        let next = |bank: usize| {
            let bank = bank + step;
            if bank >= banks {
                bank - banks
            } else {
                bank
            }
        };
        let touched = if self.bank.multiport {
            (self.banks_touched(stride) as usize).min(chain.len())
        } else {
            0
        };
        let mut bank = bank_of(base, self.config.banks) as usize;
        let mut port = self.port(entry0.max(0));
        let mut pruned = bank;
        for _ in 0..touched {
            port.prune(pruned);
            pruned = next(pruned);
        }
        let first = port.search(bank, entry0.max(0));
        sink(0, entry0, first);
        let (mut last, mut chain_wait) = (first, 0);
        for (e, &ready) in chain.iter().enumerate().skip(1) {
            bank = next(bank);
            let ideal = last + z;
            let request = ideal.max(ready);
            chain_wait += request - ideal;
            last = port.search(bank, request.max(0));
            sink(e, request, last);
        }
        let waits = port.waits;
        self.count(chain.len() as u64, waits);
        StreamGrants {
            first,
            last,
            chain_wait,
            waits,
        }
    }

    /// The grant search for this view, borrowed apart from the rest of
    /// the memory system, with its refresh cursor at tick `t`.
    fn port(&mut self, t: i64) -> Port<'_> {
        let bank = &mut self.bank;
        Port {
            free: &mut bank.free,
            owner: &mut bank.owner,
            claims: &mut bank.claims,
            multiport: bank.multiport,
            horizon: bank.horizon,
            contention: &self.config.contention,
            banks: self.config.banks,
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

    /// Adds `accesses` accesses and their `waits` to this view's and the
    /// shared counters.
    fn count(&mut self, accesses: u64, waits: WaitTicks) {
        self.accesses += accesses;
        self.bank.accesses += accesses;
        self.breakdown += waits;
        self.bank.breakdown += waits;
    }

    /// Visits every tick count of timing state this view holds: the
    /// banks' free times, then this view's and the shared state's wait
    /// breakdowns. The simulator's steady-state fast-forward
    /// snapshots these and translates them by whole periods.
    pub fn visit_timing(&mut self, mut visit: impl FnMut(&mut i64)) {
        for free in &mut self.bank.free {
            visit(free);
        }
        for breakdown in [&mut self.breakdown, &mut self.bank.breakdown] {
            visit(&mut breakdown.bank_busy);
            visit(&mut breakdown.refresh);
            visit(&mut breakdown.contention);
        }
    }

    /// Adds `k` periods of `accesses` accesses each to this view's and
    /// the shared access counts — the fast-forward path's replacement
    /// for `k` repetitions of identical per-period traffic.
    pub fn ff_apply(&mut self, accesses: u64, k: u64) {
        self.accesses += accesses * k;
        self.bank.accesses += accesses * k;
    }

    /// The number of distinct banks a stride touches before repeating —
    /// `banks / gcd(stride, banks)`.
    pub fn banks_touched(&self, stride_words: i64) -> u32 {
        let banks = u64::from(self.config.banks);
        let s = stride_words.unsigned_abs() % banks;
        let g = gcd(if s == 0 { banks } else { s }, banks);
        (banks / g) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::ContentionStream;
    use crate::TICKS_PER_CYCLE as T;

    fn quiet() -> MemorySystem {
        MemorySystem::new(MemConfig::c240().without_refresh())
    }

    #[test]
    fn unit_stride_streams_at_one_per_cycle() {
        let mut mem = quiet();
        let mut t = 0;
        for i in 0..256u64 {
            let (g, _) = mem.read(i, t);
            assert_eq!(g, t, "element {i} should not wait");
            t += T;
        }
        assert_eq!(mem.wait_cycles(), 0.0);
    }

    #[test]
    fn same_bank_accesses_wait_bank_busy() {
        let mut mem = quiet();
        let (t0, _) = mem.read(0, 0);
        let (t1, _) = mem.read(32, t0 + T); // same bank 0
        assert_eq!(t0, 0);
        assert_eq!(t1, 8 * T);
    }

    #[test]
    fn stride_32_is_bank_limited() {
        let mut mem = quiet();
        let mut t = 0;
        let mut grants = Vec::new();
        for i in 0..16u64 {
            let (g, _) = mem.read(i * 32, t);
            grants.push(g);
            t = g + T; // port wants one per cycle
        }
        // Steady state: one element per 8 cycles.
        let deltas: Vec<i64> = grants.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(deltas.iter().all(|&d| d == 8 * T), "{deltas:?}");
    }

    #[test]
    fn refresh_blocks_grants() {
        let mut mem = MemorySystem::new(MemConfig::c240());
        // Request at cycle 2 lands inside the refresh window [0, 8) and
        // pays the full 8-cycle stall (§3.2 of the paper).
        let (g, _) = mem.read(0, 2 * T);
        assert_eq!(g, 10 * T);
        // Request at 401 lands inside [400, 408).
        let (g2, _) = mem.read(1, 401 * T);
        assert_eq!(g2, 409 * T);
        // Requests between windows go through immediately.
        let (g3, _) = mem.read(2, 100 * T);
        assert_eq!(g3, 100 * T);
    }

    #[test]
    fn refresh_costs_about_two_percent() {
        let mut mem = MemorySystem::new(MemConfig::c240());
        let mut t = 0;
        let n = 40_000u64;
        for i in 0..n {
            let (g, _) = mem.read(i % 1000, t);
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
        let t = mem.write(77, 3.25, 0);
        let (_, v) = mem.read(77, t + 8 * T);
        assert_eq!(v, 3.25);
    }

    #[test]
    fn poke_peek() {
        let mut mem = quiet();
        mem.poke(5, -1.5);
        assert_eq!(mem.peek(5), -1.5);
        assert_eq!(mem.access_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mem = MemorySystem::new(MemConfig::c240().with_words(16));
        let _ = mem.peek(16);
    }

    #[test]
    fn reset_timing_keeps_data() {
        let mut mem = quiet();
        mem.write(3, 9.0, 0);
        mem.reset_timing();
        assert_eq!(mem.peek(3), 9.0);
        assert_eq!(mem.access_count(), 0);
        let (g, _) = mem.read(3, 0);
        assert_eq!(g, 0);
    }

    #[test]
    fn contention_delays_grants() {
        let cfg = MemConfig::c240()
            .without_refresh()
            .with_contention(ContentionConfig::idle().with_stream(ContentionStream::unit(0)));
        let mut mem = MemorySystem::new(cfg);
        // The stream claims bank 0 during [0, 8).
        let (g, _) = mem.read(0, 0);
        assert_eq!(g, 8 * T);
    }

    #[test]
    fn mixed_contention_slows_unit_stream() {
        let busy = MemConfig::c240()
            .without_refresh()
            .with_contention(ContentionConfig::mixed(3));
        let mut mem = MemorySystem::new(busy);
        let mut t = 0;
        let n = 10_000u64;
        for i in 0..n {
            let (g, _) = mem.read(i, t);
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
        let busy = MemConfig::c240()
            .without_refresh()
            .with_contention(ContentionConfig::lockstep(3));
        let mut mem = MemorySystem::new(busy);
        let mut t = 0;
        let n = 40_000u64;
        for i in 0..n {
            let (g, _) = mem.read(i, t);
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
        let _ = mem.read(0, 0);
        let _ = mem.read(32, 0); // waits 8 cycles
        assert_eq!(mem.wait_cycles(), 8.0);
        assert_eq!(mem.access_count(), 2);
        assert_eq!(mem.wait_breakdown().bank_busy, 8.0);
    }

    #[test]
    fn wait_breakdown_sums_exactly_under_all_causes() {
        // Refresh + contention + bank recycling all active at once.
        let cfg = MemConfig::c240().with_contention(ContentionConfig::mixed(3));
        let mut mem = MemorySystem::new(cfg);
        let mut t = 0;
        for i in 0..5_000u64 {
            let addr = (i * 7) % 2000;
            let (g, _) = mem.read(addr, t);
            // Re-read the same bank one cycle after its grant: the bank
            // is still recycling, so this charges bank_busy.
            let (g2, _) = mem.read(addr, g + T);
            t = g2 + T;
        }
        let b = mem.wait_breakdown();
        // Exact, not approximate: every cursor bump was charged once.
        assert_eq!(b.total(), mem.wait_cycles());
        assert!(b.bank_busy > 0.0 && b.refresh > 0.0 && b.contention > 0.0);
        // Ablations zero their category.
        let mut quiet_mem = MemorySystem::new(MemConfig::c240().without_refresh());
        let mut t = 0;
        for i in 0..1_000u64 {
            let (g, _) = quiet_mem.read(i % 64, t);
            t = g + T;
        }
        let qb = quiet_mem.wait_breakdown();
        assert_eq!(qb.refresh, 0.0);
        assert_eq!(qb.contention, 0.0);
        assert_eq!(qb.total(), quiet_mem.wait_cycles());
    }

    /// The per-element grant search as it stood before the stream
    /// walker, kept as the walker's oracle: `%` for the bank and the
    /// refresh phase, a prune on every access in multiport mode, and the
    /// counters bumped per access.
    fn oracle_grant(mem: &mut MemorySystem, addr: u64, earliest: i64) -> i64 {
        mem.check(addr);
        let bank = (addr % u64::from(mem.config.banks)) as usize;
        let earliest = earliest.max(0);
        let busy = mem.busy;
        if mem.bank.multiport {
            let horizon = mem.bank.horizon;
            mem.bank.claims[bank].retain(|&(s, _)| s + busy > horizon);
        }
        let mut t = earliest;
        loop {
            if mem.bank.multiport {
                let hit = mem.bank.claims[bank]
                    .iter()
                    .find(|&&(s, _)| s < t + busy && s + busy > t)
                    .copied();
                if let Some((s, owner)) = hit {
                    charge(mem, owner, s + busy - t);
                    t = s + busy;
                    continue;
                }
            } else if t < mem.bank.free[bank] {
                let end = mem.bank.free[bank];
                charge(mem, mem.bank.owner[bank], end - t);
                t = end;
                continue;
            }
            if let Some((period, len)) = mem.refresh {
                if t % period < len {
                    mem.breakdown.refresh += len;
                    mem.bank.breakdown.refresh += len;
                    t += len;
                    continue;
                }
            }
            let contention = &mem.config.contention;
            if let Some(end) = contention.blocking_claim_end(bank as u32, mem.config.banks, t, busy)
            {
                mem.breakdown.contention += end - t;
                mem.bank.breakdown.contention += end - t;
                t = end;
                continue;
            }
            break;
        }
        if mem.bank.multiport {
            let pos = mem.bank.claims[bank].partition_point(|&(s, _)| s <= t);
            mem.bank.claims[bank].insert(pos, (t, mem.view));
        }
        if t + busy >= mem.bank.free[bank] {
            mem.bank.free[bank] = t + busy;
            mem.bank.owner[bank] = mem.view;
        }
        mem.accesses += 1;
        mem.bank.accesses += 1;
        t
    }

    /// Charges a wait behind a claim by view `owner` to the view's and
    /// the shared breakdown: bank busy for its own claim, contention for
    /// another view's.
    fn charge(mem: &mut MemorySystem, owner: u32, ticks: i64) {
        for waits in [&mut mem.breakdown, &mut mem.bank.breakdown] {
            if owner == mem.view {
                waits.bank_busy += ticks;
            } else {
                waits.contention += ticks;
            }
        }
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
    /// times, owners, multiport claims, horizon), wait breakdowns and
    /// access counts in the view and the shared state. Walks bank counts,
    /// strides (zero and negative included), lengths, starts on both
    /// sides of refresh windows and seeded chain delays, in five modes:
    /// single-port with earlier traffic of this view and a foreign one,
    /// single-port without refresh, multiport with foreign claims (some
    /// already dead at the horizon), and lockstep and mixed background
    /// contention.
    #[test]
    fn grant_stream_matches_per_element_grants() {
        const OFFSET: u64 = 1024; // below every negative-stride stream
        let strides = [0i64, 1, 2, 3, 7, 16, 32, 64, -1, -5];
        let lengths = [1usize, 2, 7, 64, 128];
        // In ticks: cycles 0, 7.5 and 400 start inside a refresh window;
        // 8, 399.5 and 1208.5 just after or before one.
        let starts = [0i64, 150, 160, 7990, 8000, 24_170];
        let modes = ["single", "norefresh", "multiport", "lockstep", "mixed"];
        let mut rng = Lcg(0x5eed);
        let (mut cases, mut waited, mut chained, mut refreshed, mut pruned) = (0u32, 0, 0, 0, 0);
        for banks in [1u32, 2, 16, 32, 64] {
            for mode in modes {
                if banks < 32 && matches!(mode, "lockstep" | "mixed") {
                    continue; // background streams saturate so few banks
                }
                let mut cfg = MemConfig::c240().with_banks(banks).with_words(10_000);
                cfg.refresh_enabled = mode != "norefresh";
                cfg.contention = match mode {
                    "lockstep" => ContentionConfig::lockstep(3),
                    "mixed" => ContentionConfig::mixed(3),
                    _ => ContentionConfig::idle(),
                };
                let mut seeded = MemorySystem::new(cfg);
                if mode == "multiport" {
                    seeded.swap_bank_state(&mut BankState::multiport(banks));
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
                            let z = [20, 27, 38][rng.below(3) as usize];
                            let chain: Vec<i64> = (0..n as i64)
                                .map(|e| match rng.below(4) {
                                    0 => entry0 + z * e + rng.below(200) as i64,
                                    _ => rng.below(entry0 as u64 + 1) as i64,
                                })
                                .collect();
                            let case = format!(
                                "banks {banks} {mode} base {base} stride {stride} n {n} \
                                 entry0 {entry0} z {z}"
                            );
                            // Every request of the stream is at or after
                            // `entry0`, so it may serve as the horizon.
                            let mut walker = seeded.clone();
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
                                prev = oracle_grant(&mut oracle, word, request);
                                assert_eq!(walked[e], (e, request, prev), "element {e}: {case}");
                            }
                            assert_eq!(walked.len(), n, "{case}");
                            let want = StreamGrants {
                                first: walked[0].2,
                                last: prev,
                                chain_wait,
                                waits: oracle.wait_ticks() - seeded.wait_ticks(),
                            };
                            assert_eq!(got, want, "{case}");
                            assert_eq!(walker.shared(), oracle.shared(), "{case}");
                            assert_eq!(walker.wait_ticks(), oracle.wait_ticks(), "{case}");
                            // Every tick between request and grant is charged.
                            let stalled: i64 = walked.iter().map(|&(_, r, g)| g - r.max(0)).sum();
                            let charged = walker.wait_ticks().total() - seeded.wait_ticks().total();
                            assert_eq!(charged, stalled, "{case}");
                            assert_eq!(walker.access_count(), oracle.access_count(), "{case}");
                            cases += 1;
                            let claims = |m: &MemorySystem| m.bank.claims.concat().len();
                            pruned += u32::from(claims(&walker) < claims(&seeded) + n);
                            waited += u32::from(walked.iter().any(|&(_, r, g)| g > r));
                            chained += u32::from(chain_wait > 0);
                            refreshed += u32::from(
                                walker.wait_ticks().refresh > seeded.wait_ticks().refresh,
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(cases, (3 * 3 + 2 * 5) * 10 * 5 * 6);
        // An empty stream grants nothing.
        let mut mem = quiet();
        let empty = mem.grant_stream(0, 1, 5, T, &[], |_, _, _| unreachable!());
        assert_eq!((empty.first, empty.last, mem.access_count()), (5, 5, 0));
        assert!(
            waited > cases / 2
                && chained > cases / 8
                && refreshed > cases / 4
                && pruned > cases / 20,
            "{cases} cases: {waited} waited, {chained} chained, {refreshed} refreshed, \
             {pruned} pruned"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn grant_stream_checks_its_last_element() {
        let mut mem = MemorySystem::new(MemConfig::c240().with_words(64));
        let _ = mem.grant_stream(60, 2, 0, T, &[0; 3], |_, _, _| {});
    }

    #[test]
    fn shared_bank_state_charges_foreign_claims_to_contention() {
        // Two views arbitrate over one BankState: B's wait behind A's
        // claim is contention; A's wait behind its own claim stays
        // bank-busy. The shared totals see both.
        let mut a = quiet();
        let mut b = quiet();
        b.set_view(1);
        let mut shared = BankState::new(32);

        a.swap_bank_state(&mut shared);
        let (g, _) = a.read(0, 0); // A claims bank 0 for [0, 8)
        assert_eq!(g, 0);
        a.swap_bank_state(&mut shared);

        b.swap_bank_state(&mut shared);
        let (g, _) = b.read(32, T); // same bank, different view
        assert_eq!(g, 8 * T);
        b.swap_bank_state(&mut shared);

        assert_eq!(b.wait_breakdown().contention, 7.0);
        assert_eq!(b.wait_breakdown().bank_busy, 0.0);
        assert_eq!(a.wait_breakdown().total(), 0.0);

        // A re-reading its own bank still charges bank busy.
        a.swap_bank_state(&mut shared);
        let (g, _) = a.read(64, 9 * T); // bank 0, now owned by B until 16
        assert_eq!(g, 16 * T);
        a.swap_bank_state(&mut shared);
        assert_eq!(a.wait_breakdown().contention, 7.0);

        // Per-view breakdowns sum to the shared machine-wide totals.
        let total = shared.wait_breakdown();
        let sum_bank = a.wait_breakdown().bank_busy + b.wait_breakdown().bank_busy;
        let sum_cont = a.wait_breakdown().contention + b.wait_breakdown().contention;
        assert_eq!(total.bank_busy, sum_bank);
        assert_eq!(total.contention, sum_cont);
        assert_eq!(shared.access_count(), a.access_count() + b.access_count());
        assert_eq!(shared.wait_cycles(), a.wait_cycles() + b.wait_cycles());
    }
}
