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
    /// Machine-wide wait ticks across all views.
    waited: i64,
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
            waited: 0,
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
        self.waited = 0;
        self.breakdown = WaitTicks::default();
    }

    /// Total accesses served across every view sharing this state.
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Total wait cycles across every view sharing this state.
    pub fn wait_cycles(&self) -> f64 {
        cycles(self.waited)
    }

    /// The machine-wide wait breakdown across every view sharing this
    /// state. Per-view breakdowns sum to this exactly.
    pub fn wait_breakdown(&self) -> WaitBreakdown {
        self.breakdown.cycles()
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
    waited: i64,
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
            waited: 0,
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
        cycles(self.waited)
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
        self.waited = 0;
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
        let busy = self.busy;
        if self.bank.multiport {
            let horizon = self.bank.horizon;
            self.bank.claims[bank].retain(|&(s, _)| s + busy > horizon);
        }
        let mut t = earliest;
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(
                guard < 100_000,
                "memory grant search did not converge (bank {bank}, tick {t}); \
                 contention configuration saturates the bank"
            );
            if self.bank.multiport {
                // Window fit: slide past the first claim overlapping
                // [t, t+busy), charging the displacement to its owner's
                // category, and retry (idle windows between later claims
                // remain usable).
                let hit = self.bank.claims[bank]
                    .iter()
                    .find(|&&(s, _)| s < t + busy && s + busy > t)
                    .copied();
                if let Some((s, owner)) = hit {
                    let end = s + busy;
                    self.charge(self.owner_cause(owner), end - t);
                    t = end;
                    continue;
                }
            } else if t < self.bank.free[bank] {
                let end = self.bank.free[bank];
                self.charge(self.owner_cause(self.bank.owner[bank]), end - t);
                t = end;
                continue;
            }
            if let Some((period, len)) = self.refresh {
                if t % period < len {
                    // The paper (§3.2): a refresh "will force the VP to
                    // stall for eight cycles" — the blocked access pays
                    // the full window (re-arbitration included), not just
                    // the remainder of it.
                    self.charge(Wait::Refresh, len);
                    t += len;
                    continue;
                }
            }
            if let Some(end) =
                self.config
                    .contention
                    .blocking_claim_end(bank as u32, self.config.banks, t, busy)
            {
                self.charge(Wait::Contention, end - t);
                t = end;
                continue;
            }
            break;
        }
        let end = t + busy;
        if self.bank.multiport {
            let pos = self.bank.claims[bank].partition_point(|&(s, _)| s <= t);
            self.bank.claims[bank].insert(pos, (t, self.view));
        }
        if end >= self.bank.free[bank] {
            self.bank.free[bank] = end;
            self.bank.owner[bank] = self.view;
        }
        self.accesses += 1;
        self.bank.accesses += 1;
        self.waited += t - earliest;
        self.bank.waited += t - earliest;
        t
    }

    /// The cause a wait behind a claim by view `owner` is charged to.
    fn owner_cause(&self, owner: u32) -> Wait {
        if owner == self.view {
            Wait::BankBusy
        } else {
            Wait::Contention
        }
    }

    /// Charges `ticks` of waiting to `cause` in this view's and the
    /// shared breakdown.
    fn charge(&mut self, cause: Wait, ticks: i64) {
        self.breakdown.add(cause, ticks);
        self.bank.breakdown.add(cause, ticks);
    }

    /// Visits every tick count of timing state this view holds: the
    /// banks' free times, then this view's and the shared state's wait
    /// totals and breakdowns. The simulator's steady-state fast-forward
    /// snapshots these and translates them by whole periods.
    pub fn visit_timing(&mut self, mut visit: impl FnMut(&mut i64)) {
        for free in &mut self.bank.free {
            visit(free);
        }
        for (waited, breakdown) in [
            (&mut self.waited, &mut self.breakdown),
            (&mut self.bank.waited, &mut self.bank.breakdown),
        ] {
            visit(waited);
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

    /// Whether a strided element stream of `n` accesses starting at word
    /// `base`, paced exactly `z` ticks apart from tick `start`, is
    /// provably conflict-free: every grant lands at its requested tick
    /// with zero wait. True only when contention is idle, the whole
    /// stream stays clear of refresh windows, same-bank revisits are
    /// spaced at least the bank recovery time apart, and every touched
    /// bank has already recovered from earlier traffic (its own or, in
    /// co-simulation, any other CPU's).
    pub fn stream_conflict_free(&self, base: i64, stride: i64, n: u32, start: i64, z: i64) -> bool {
        if n == 0 {
            return true;
        }
        if !self.config.contention.is_idle() {
            return false;
        }
        if let Some((period, len)) = self.refresh {
            let into = start.rem_euclid(period);
            if into < len || into + z * i64::from(n - 1) >= period {
                return false;
            }
        }
        // Same-bank revisit spacing: a stride touching `r` distinct banks
        // revisits each one every `r` elements = `z·r` ticks.
        let r = self.banks_touched(stride);
        if n > r && z * i64::from(r) < self.busy {
            return false;
        }
        // Every touched bank must be free by the stream's start.
        let banks = i64::from(self.config.banks);
        let mut bank = base.rem_euclid(banks);
        let step = stride.rem_euclid(banks);
        for _ in 0..r.min(n) {
            if self.bank.free[bank as usize] > start {
                return false;
            }
            bank = (bank + step) % banks;
        }
        true
    }

    /// Claims a conflict-free stream's grants in closed form: the
    /// per-element search of [`MemorySystem::grant`] collapses to
    /// a counter bump plus final per-bank recovery times. Must only be
    /// called after [`MemorySystem::stream_conflict_free`] returned true
    /// for the same arguments; produces identical timing state to `n`
    /// individual grants at `start + z·e`.
    pub fn claim_stream(&mut self, base: i64, stride: i64, n: u32, start: i64, z: i64) {
        if n == 0 {
            return;
        }
        self.accesses += u64::from(n);
        self.bank.accesses += u64::from(n);
        let banks = i64::from(self.config.banks);
        let r = self.banks_touched(stride);
        let step = stride.rem_euclid(banks);
        if self.bank.multiport {
            // Window-fitting neighbors must see every element's claim,
            // not just the last visit per bank. The conflict-free
            // precondition guarantees all existing claims on touched
            // banks end by `start`, so pushing in element order keeps
            // each bank's claim list sorted.
            let mut bank = base.rem_euclid(banks);
            for e in 0..n {
                self.bank.claims[bank as usize].push((start + z * i64::from(e), self.view));
                bank = (bank + step) % banks;
            }
        }
        // Only the last visit to each bank determines its recovery time.
        let first = n.saturating_sub(r);
        let mut bank = (base + stride * i64::from(first)).rem_euclid(banks);
        for e in first..n {
            self.bank.free[bank as usize] = start + z * i64::from(e) + self.busy;
            self.bank.owner[bank as usize] = self.view;
            bank = (bank + step) % banks;
        }
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

    /// `claim_stream` is the closed form of `n` reads at `start + z·e`:
    /// wherever `stream_conflict_free` holds, the two leave the shared
    /// bank state and this view's counters identical, and every read is
    /// granted exactly at its request. Walks a deterministic grid of
    /// bank counts, refresh, single-port and multiport arbitration, bases,
    /// strides, lengths, starts and element rates; earlier traffic on
    /// banks 0 and 5 makes some streams start before a bank recovers.
    #[test]
    fn claim_stream_matches_per_element_grants() {
        const OFFSET: i64 = 4096; // a multiple of every bank count below
        let strides = [1i64, 2, 3, 7, 16, 31, 32, -1, -3];
        let lengths = [1u32, 2, 8, 31, 32, 33, 128];
        // In ticks: cycles 0, 8.35, 13, 20.05, 30 and 380.6; rates of 1,
        // 1.35 and 1.9 cycles per element.
        let starts = [0, 167, 260, 401, 600, 7612];
        let rates = [20, 27, 38];
        let (mut claimed, mut refused) = (0u32, 0u32);
        for banks in [32u32, 64] {
            for refresh in [true, false] {
                for multiport in [false, true] {
                    let mut cfg = MemConfig::c240().with_banks(banks).with_words(8192);
                    cfg.refresh_enabled = refresh;
                    let fresh = || {
                        let mut mem = MemorySystem::new(cfg.clone());
                        if multiport {
                            mem.swap_bank_state(&mut BankState::multiport(banks));
                        }
                        let _ = mem.read(OFFSET as u64, 6 * T);
                        let _ = mem.read(OFFSET as u64 + 5, 6 * T);
                        mem
                    };
                    let (mut closed, mut stepped) = (fresh(), fresh());
                    for bank in 0..i64::from(banks) {
                        let base = OFFSET + bank;
                        for &stride in &strides {
                            for &n in &lengths {
                                for &start in &starts {
                                    for &z in &rates {
                                        if !closed.stream_conflict_free(base, stride, n, start, z) {
                                            refused += 1;
                                            continue;
                                        }
                                        claimed += 1;
                                        closed.claim_stream(base, stride, n, start, z);
                                        for e in 0..n {
                                            let word = (base + stride * i64::from(e)) as u64;
                                            let request = start + z * i64::from(e);
                                            let (granted, _) = stepped.read(word, request);
                                            assert_eq!(granted, request, "element {e}");
                                        }
                                        let case = format!(
                                            "banks {banks} refresh {refresh} multiport {multiport} \
                                             base {base} stride {stride} n {n} start {start} z {z}"
                                        );
                                        assert_eq!(closed.shared(), stepped.shared(), "{case}");
                                        assert_eq!(closed.access_count(), stepped.access_count());
                                        assert_eq!(closed.wait_cycles(), stepped.wait_cycles());
                                        assert_eq!(
                                            closed.wait_breakdown(),
                                            stepped.wait_breakdown()
                                        );
                                        closed = fresh();
                                        stepped = fresh();
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            claimed > 10_000 && refused > 10_000,
            "{claimed} claimed, {refused} refused"
        );
    }

    #[test]
    fn conflicting_streams_are_refused() {
        let mut mem = MemorySystem::new(MemConfig::c240());
        // Crosses the refresh window at cycle 400.
        assert!(mem.stream_conflict_free(0, 1, 8, 380 * T, T));
        assert!(!mem.stream_conflict_free(0, 1, 32, 380 * T, T));
        // Starts before a touched bank recovers: bank 0 is busy until 108.
        let _ = mem.read(0, 100 * T);
        assert!(!mem.stream_conflict_free(0, 1, 8, 104 * T, T));
        assert!(mem.stream_conflict_free(0, 1, 8, 108 * T, T));
        // Revisits a bank within the bank busy time: stride 16 alternates
        // two banks, so each is revisited 2 cycles later.
        assert!(!mem.stream_conflict_free(1, 16, 4, 200 * T, T));
        assert!(!mem.stream_conflict_free(1, 32, 2, 200 * T, T));
        assert!(mem.stream_conflict_free(1, 16, 4, 200 * T, 4 * T));
        // Any background contention refuses the closed form.
        let busy = MemorySystem::new(
            MemConfig::c240()
                .without_refresh()
                .with_contention(ContentionConfig::mixed(1)),
        );
        assert!(!busy.stream_conflict_free(0, 1, 8, 200 * T, T));
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
