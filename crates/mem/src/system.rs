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
//! [`ContentionStream`]: crate::ContentionStream

use crate::contention::{ClaimTable, ContentionConfig};
use crate::{bank_of, cycle_ticks, cycles, period_offset, rotation};

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
    /// Size of the data space in 8-byte words: the bound every access is
    /// checked against. Storage is allocated only for the words written,
    /// so a large data space costs nothing until it is used.
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
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::c240()
    }
}

/// The per-bank arbitration state a view grants against, in one of two
/// modes, each with one job: one CPU's own port ([`BankState::new`]) or
/// the banks a co-simulated machine shares ([`BankState::multiport`]). It
/// keeps no counters; each view counts its own traffic. A co-sim driver
/// owns one shared state and swaps it between the CPUs' views with
/// [`MemorySystem::swap_bank_state`] (O(1)), so every grant search sees
/// every other CPU's outstanding claims.
#[derive(Debug, Clone, PartialEq)]
pub struct BankState(Banks);

#[derive(Debug, Clone, PartialEq)]
enum Banks {
    /// Earliest tick each bank is free of the port's latest claim.
    Single(Vec<i64>),
    /// Each bank's claims as `(start, owner view)` pairs. Every claim
    /// lasts the bank busy time and was granted into a window free of the
    /// others, so a bank's claims are sorted by start and disjoint.
    /// Claims ending at or before `horizon` can no longer affect any
    /// request and are pruned.
    Shared {
        claims: Vec<Vec<(i64, u32)>>,
        horizon: i64,
    },
}

impl BankState {
    /// Fresh single-port state (all banks free at tick 0) for `banks`
    /// banks. It keeps only the tick each bank is free of the port's
    /// latest claim, so every wait behind it is bank busy. Exact for one
    /// CPU, whose port serializes requests in non-decreasing
    /// earliest-start order, so an idle window behind the cursor can never
    /// be used anyway.
    pub fn new(banks: u32) -> Self {
        BankState(Banks::Single(vec![0; banks as usize]))
    }

    /// Fresh shared state for `banks` banks: claims are kept one by one,
    /// and a grant search may fit into an idle window between two of
    /// them. Co-simulated CPUs interleave out of timestamp order (CPU A
    /// steps a whole vector instruction — claiming several rotations of
    /// each bank — before CPU B's earlier-cycle request arrives), so a
    /// single free time per bank would force B behind A's *last*
    /// rotation; window fitting restores the interleaved packing the real
    /// banks provide. For requests arriving in non-decreasing earliest
    /// order (any single port) the two modes grant identically.
    pub fn multiport(banks: u32) -> Self {
        BankState(Banks::Shared {
            claims: vec![Vec::new(); banks as usize],
            horizon: 0,
        })
    }

    /// Declares that every future request starts at or after tick
    /// `tick` (the co-sim driver's minimum issue clock, minus margin):
    /// shared claims ending at or before it are dead and get pruned.
    /// Monotonic — lower values than a previous horizon are ignored. A
    /// single-port state keeps no claims, so this does nothing there.
    pub fn set_horizon(&mut self, tick: i64) {
        if let Banks::Shared { horizon, .. } = &mut self.0 {
            *horizon = (*horizon).max(tick);
        }
    }

    /// Clears all arbitration state.
    pub fn reset(&mut self) {
        match &mut self.0 {
            Banks::Single(free) => free.fill(0),
            Banks::Shared { claims, horizon } => {
                for c in claims {
                    c.clear();
                }
                *horizon = 0;
            }
        }
    }
}

/// The memory system as seen from one CPU port: word-addressed data plus
/// the (possibly shared) per-bank availability.
///
/// The data space holds [`MemConfig::words`] words, all `0.0` until
/// written. Its storage grows on write, to the highest word written, so
/// creating a memory allocates nothing in proportion to its size.
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
    /// The background streams' claims (no rows on an idle machine).
    background: ClaimTable,
    /// The data space's words up to the highest one written so far;
    /// every word at or past its length reads `0.0`. `config.words`, not
    /// this length, bounds the data space.
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
    /// breakdown.
    pub waits: WaitTicks,
    /// Elements granted in runs, at the previous grant plus `z`, without
    /// a search (see [`MemorySystem::grant_stream`]).
    pub(crate) run_elements: usize,
}

/// The refresh windows, read through a [`period_offset`] cursor: the
/// searches of a stream paced by a non-negative `z` ask about ever later
/// ticks, so it divides only when a search leaves the current period.
#[derive(Clone, Copy)]
struct RefreshWindows {
    period: i64,
    len: i64,
    start: i64,
}

impl RefreshWindows {
    /// Whether tick `t` (not negative) falls inside a refresh window.
    fn blocks(&mut self, t: i64) -> bool {
        period_offset(t, self.period, &mut self.start) < self.len
    }
}

/// One view's grant search over the bank state, borrowed apart from the
/// rest of the memory system for one stream: the one search body behind
/// [`MemorySystem::grant_stream`]. Its borrows alias nothing else, so a
/// stream's walk keeps them in registers. Waits collect in `waits` until
/// the caller counts them.
struct Port<'a> {
    banks: &'a mut Banks,
    background: &'a ClaimTable,
    background_start: i64,
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
    ///
    /// On shared state the search first drops `bank`'s claims that end at
    /// or before the horizon, which no request can overlap, and then walks
    /// the rest forward from the first one ending after `earliest`. The
    /// claims are sorted and disjoint, so the first one ending after `t`
    /// is the only one that can overlap `[t, t + busy)`; a displacement
    /// moves `t` to its end and the cursor past it, and a refresh or
    /// background wait moves the cursor past the claims that ended
    /// meanwhile. When nothing blocks `t`, every claim before the cursor
    /// has ended by `t` and the cursor's claim starts after it, so the new
    /// claim goes in at the cursor. This is the first fit a front-to-back
    /// scan for the first overlapping claim would find.
    #[inline(always)]
    fn search(&mut self, bank: usize, earliest: i64) -> i64 {
        let busy = self.busy;
        let mut t = earliest;
        let mut cursor = match &mut *self.banks {
            Banks::Single(_) => 0,
            Banks::Shared { claims, horizon } => {
                // The dead claims are a prefix: drop them first.
                let claims = &mut claims[bank];
                claims.drain(..claims.partition_point(|&(s, _)| s + busy <= *horizon));
                claims.partition_point(|&(s, _)| s + busy <= t)
            }
        };
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(
                guard < 100_000,
                "memory grant search did not converge (bank {bank}, tick {t}); \
                 contention configuration saturates the bank"
            );
            match &*self.banks {
                Banks::Single(free) => {
                    if t < free[bank] {
                        self.waits.add(Wait::BankBusy, free[bank] - t);
                        t = free[bank];
                        continue;
                    }
                }
                Banks::Shared { claims, .. } => {
                    let claims = &claims[bank];
                    while claims.get(cursor).is_some_and(|&(s, _)| s + busy <= t) {
                        cursor += 1;
                    }
                    if let Some(&(s, owner)) = claims.get(cursor).filter(|&&(s, _)| s < t + busy) {
                        let cause = if owner == self.view {
                            Wait::BankBusy
                        } else {
                            Wait::Contention
                        };
                        self.waits.add(cause, s + busy - t);
                        t = s + busy;
                        cursor += 1;
                        continue;
                    }
                }
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
                .background
                .blocking_end(bank, t, &mut self.background_start)
            {
                self.waits.add(Wait::Contention, end - t);
                t = end;
                continue;
            }
            break;
        }
        match self.banks {
            Banks::Single(free) => free[bank] = t + busy,
            Banks::Shared { claims, .. } => claims[bank].insert(cursor, (t, self.view)),
        }
        t
    }

    /// How many of a single-port stream's next elements go in a run
    /// after a search granted the element before them at `last`, and
    /// claims their banks: the run grants them at `last + z`,
    /// `last + 2z`, and so on. `chain` holds the elements' chain terms;
    /// the first is on `bank`, each next one `step` banks on, and the
    /// stream comes back to a bank every `rotation` elements. `z` is not
    /// negative.
    ///
    /// An element joins the run while its tick is clear of refresh, its
    /// chain term is due by then and its bank is free by then. The
    /// search left the refresh cursor on `last`'s period, and `last` lies
    /// past that period's window, so every tick before the next period
    /// is clear. The run's first `rotation` elements are on distinct
    /// banks, each free as the bank state says. Every later element finds
    /// its bank last claimed `rotation` elements earlier, `rotation·z`
    /// before its own tick, so its bank is free exactly when
    /// `rotation·z` covers the bank busy time. The run's element
    /// `rotation − 1` already proved that: its bank is the searched
    /// element's, claimed at `last`. So past the first rotation only the
    /// chain terms are checked. Only the last claim on each bank
    /// survives, so only the run's last `rotation` elements are claimed,
    /// as the search's claims would have left them. Returns the run's
    /// length and the bank of the element after it.
    fn run(
        &mut self,
        chain: &[i64],
        mut bank: usize,
        step: usize,
        rotation: usize,
        last: i64,
        z: i64,
    ) -> (usize, usize) {
        let Banks::Single(free) = &mut *self.banks else {
            unreachable!("runs grant only on single-port state");
        };
        let banks = free.len();
        let next = |bank| next_bank(bank, step, banks);
        let period_end = self
            .refresh
            .as_ref()
            .map_or(i64::MAX, |windows| windows.start + windows.period);
        let most = match z {
            0 => usize::MAX,
            _ => ((period_end - 1 - last) / z) as usize,
        };
        let chain = &chain[..most.min(chain.len())];
        let head = chain.len().min(rotation);
        let (mut k, mut t, mut b) = (0, last + z, bank);
        while k < head && chain[k] <= t && free[b] <= t {
            (k, t, b) = (k + 1, t + z, next(b));
        }
        if k == head {
            while k < chain.len() && chain[k] <= t {
                (k, t) = (k + 1, t + z);
            }
        }
        // The last `rotation` elements are on distinct banks, and the
        // bank sequence repeats every `rotation` elements.
        let claims = k.min(rotation);
        if k > claims {
            bank = (bank + (k - claims) * step) % banks;
        }
        // Each claim ends past the bank's free time, which was at most
        // the element's tick, so it takes the bank as a search would.
        let mut end = last + (k - claims + 1) as i64 * z + self.busy;
        for _ in 0..claims {
            free[bank] = end;
            (end, bank) = (end + z, next(bank));
        }
        (k, bank)
    }
}

/// The bank `step` banks after `bank`, of `banks`, without a division
/// (`step < banks`).
fn next_bank(bank: usize, step: usize, banks: usize) -> usize {
    let bank = bank + step;
    if bank >= banks {
        bank - banks
    } else {
        bank
    }
}

impl MemorySystem {
    /// Creates a memory whose every word reads `0.0`, with the given
    /// configuration, its cycle parameters converted to ticks once.
    pub fn new(config: MemConfig) -> Self {
        let banks = config.banks;
        let refresh = (config.refresh_enabled && config.refresh_period > 0).then(|| {
            (
                cycle_ticks(config.refresh_period),
                cycle_ticks(config.refresh_len),
            )
        });
        let busy = cycle_ticks(config.bank_busy);
        MemorySystem {
            busy,
            refresh,
            background: config
                .contention
                .claims(banks, busy)
                .expect("contention claim table exceeds its bounds"),
            config,
            data: Vec::new(),
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

    /// Size of the data space in words ([`MemConfig::words`]).
    pub fn words(&self) -> usize {
        self.config.words
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

    /// Reads data without touching timing state (test/setup use).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn peek(&self, addr: u64) -> f64 {
        self.check(addr, 1);
        self.data.get(addr as usize).copied().unwrap_or(0.0)
    }

    /// Writes data without touching timing state: setup, and the
    /// simulator's scalar stores (the grant is separate). Strided vector
    /// stores write through [`MemorySystem::store_strided`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the configured memory size.
    pub fn poke(&mut self, addr: u64, value: f64) {
        self.check(addr, 1);
        self.written(addr, 1)[0] = value;
    }

    /// Copies the run of `dst.len()` words starting at `addr` into `dst`
    /// and returns `true`, or returns `false`, copying nothing, if the
    /// run leaves the configured memory. Bulk data access, timing
    /// untouched: the simulator's unit-stride vector loads read through
    /// it, and checks compare whole data spaces with it.
    pub fn read_run(&self, addr: u64, dst: &mut [f64]) -> bool {
        if !self.in_bounds(addr, dst.len()) {
            return false;
        }
        let len = self.data.len();
        let start = (addr as usize).min(len);
        let end = (addr as usize + dst.len()).min(len);
        let (stored, unwritten) = dst.split_at_mut(end - start);
        stored.copy_from_slice(&self.data[start..end]);
        unwritten.fill(0.0);
        true
    }

    /// Writes `values` to the run of words starting at `addr` without
    /// touching timing state.
    ///
    /// # Panics
    ///
    /// Panics if the run leaves the configured memory.
    pub fn store_run(&mut self, addr: u64, values: &[f64]) {
        self.check(addr, values.len());
        self.written(addr, values.len()).copy_from_slice(values);
    }

    /// Writes `values` to the words `addr + stride·e` without touching
    /// timing state: the simulator's strided vector stores. The storage
    /// grows once, to the highest of those words.
    ///
    /// # Panics
    ///
    /// Panics if the first or last word is outside the configured memory;
    /// the words between them are then inside it too.
    pub fn store_strided(&mut self, addr: u64, stride: i64, values: &[f64]) {
        let Some(span) = values.len().checked_sub(1) else {
            return;
        };
        let last = addr.wrapping_add_signed(stride.wrapping_mul(span as i64));
        self.check(addr, 1);
        self.check(last, 1);
        let high = addr.max(last) as usize;
        if high >= self.data.len() {
            self.data.resize(high + 1, 0.0);
        }
        let mut word = addr;
        for &value in values {
            self.data[word as usize] = value;
            word = word.wrapping_add_signed(stride);
        }
    }

    /// The stored run of `n` words at `addr`, growing the storage to
    /// cover it; the caller has checked the run's bounds.
    fn written(&mut self, addr: u64, n: usize) -> &mut [f64] {
        let (start, end) = (addr as usize, addr as usize + n);
        if end > self.data.len() {
            self.data.resize(end, 0.0);
        }
        &mut self.data[start..end]
    }

    /// Clears all timing state (bank availability, statistics) while
    /// keeping data — used between measurement runs.
    pub fn reset_timing(&mut self) {
        self.bank.reset();
        self.accesses = 0;
        self.breakdown = WaitTicks::default();
    }

    /// Whether the run of `n` words starting at `addr` lies inside the
    /// configured memory.
    fn in_bounds(&self, addr: u64, n: usize) -> bool {
        usize::try_from(addr)
            .ok()
            .and_then(|start| start.checked_add(n))
            .is_some_and(|end| end <= self.config.words)
    }

    /// Panics unless the run of `n` words starting at `addr` lies inside
    /// the configured memory, naming the run's last word.
    fn check(&self, addr: u64, n: usize) {
        assert!(
            self.in_bounds(addr, n),
            "memory access out of bounds: word address {} >= {} words",
            addr.saturating_add(n.saturating_sub(1) as u64),
            self.config.words
        );
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
        let banks = self.config.banks as usize;
        let step = stride.rem_euclid(banks as i64) as usize;
        let next = |bank| next_bank(bank, step, banks);
        let runs = matches!(self.bank.0, Banks::Single(_)) && !self.background.has_rows() && z >= 0;
        let rotation = if runs {
            self.banks_touched(stride) as usize
        } else {
            0
        };
        let mut bank = bank_of(base, self.config.banks) as usize;
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
    pub fn banks_touched(&self, stride_words: i64) -> u32 {
        rotation(stride_words.unsigned_abs(), self.config.banks) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::ContentionStream;
    use crate::TICKS_PER_CYCLE as T;

    fn quiet_config() -> MemConfig {
        MemConfig {
            refresh_enabled: false,
            ..MemConfig::c240()
        }
    }

    fn quiet() -> MemorySystem {
        MemorySystem::new(quiet_config())
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
        assert_eq!(mem.wait_cycles(), 0.0);
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
        let mut mem = MemorySystem::new(MemConfig::c240());
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
        let mut mem = MemorySystem::new(MemConfig::c240());
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
        MemorySystem::new(MemConfig {
            words: 16,
            ..MemConfig::c240()
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
        let cfg = MemConfig {
            contention: ContentionConfig::idle().with_stream(ContentionStream::unit(0)),
            ..quiet_config()
        };
        let mut mem = MemorySystem::new(cfg);
        // The stream claims bank 0 during [0, 8).
        let g = mem.grant(0, 0);
        assert_eq!(g, 8 * T);
    }

    #[test]
    fn mixed_contention_slows_unit_stream() {
        let busy = MemConfig {
            contention: ContentionConfig::mixed(3),
            ..quiet_config()
        };
        let mut mem = MemorySystem::new(busy);
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
        let busy = MemConfig {
            contention: ContentionConfig::lockstep(3),
            ..quiet_config()
        };
        let mut mem = MemorySystem::new(busy);
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
        assert_eq!(mem.wait_cycles(), 8.0);
        assert_eq!(mem.access_count(), 2);
        assert_eq!(mem.wait_breakdown().bank_busy, 8.0);
    }

    #[test]
    fn wait_breakdown_sums_exactly_under_all_causes() {
        // Refresh + contention + bank recycling all active at once.
        let cfg = MemConfig {
            contention: ContentionConfig::mixed(3),
            ..MemConfig::c240()
        };
        let mut mem = MemorySystem::new(cfg);
        let mut t = 0;
        for i in 0..5_000u64 {
            let addr = (i * 7) % 2000;
            let g = mem.grant(addr, t);
            // Re-read the same bank one cycle after its grant: the bank
            // is still recycling, so this charges bank_busy.
            let g2 = mem.grant(addr, g + T);
            t = g2 + T;
        }
        let b = mem.wait_breakdown();
        // Exact, not approximate: every cursor bump was charged once.
        assert_eq!(b.total(), mem.wait_cycles());
        assert!(b.bank_busy > 0.0 && b.refresh > 0.0 && b.contention > 0.0);
        // Ablations zero their category.
        let mut quiet_mem = quiet();
        let mut t = 0;
        for i in 0..1_000u64 {
            let g = quiet_mem.grant(i % 64, t);
            t = g + T;
        }
        let qb = quiet_mem.wait_breakdown();
        assert_eq!(qb.refresh, 0.0);
        assert_eq!(qb.contention, 0.0);
        assert_eq!(qb.total(), quiet_mem.wait_cycles());
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
        let bank = (addr % u64::from(mem.config.banks)) as usize;
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
                let cfg = MemConfig {
                    banks,
                    words: 10_000,
                    refresh_enabled: mode != "norefresh",
                    // A window at least twice the bank busy time can carry
                    // a search past a claim without overlapping it.
                    refresh_len: if mode == "crowded" { 20 } else { 8 },
                    contention: match mode {
                        "lockstep" => ContentionConfig::lockstep(3),
                        "mixed" => ContentionConfig::mixed(3),
                        _ => ContentionConfig::idle(),
                    },
                    ..MemConfig::c240()
                };
                let mut seeded = MemorySystem::new(cfg);
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
        let mut mem = MemorySystem::new(MemConfig {
            words: 64,
            ..MemConfig::c240()
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

        assert_eq!(b.wait_breakdown().contention, 7.0);
        assert_eq!(b.wait_breakdown().bank_busy, 0.0);
        assert_eq!(a.wait_breakdown().total(), 0.0);

        // A's next access to bank 0 waits behind B's claim: contention.
        a.swap_bank_state(&mut shared);
        let g = a.grant(64, 9 * T); // bank 0, now owned by B until 16
        assert_eq!(g, 16 * T);
        a.swap_bank_state(&mut shared);
        assert_eq!(a.wait_breakdown().contention, 7.0);
        assert_eq!((a.access_count(), b.access_count()), (2, 1));
    }
}
