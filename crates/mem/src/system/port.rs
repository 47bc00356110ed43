//! Port search and run: one view's grant search over the bank state,
//! the refresh windows it reads, and the runs that grant a single-port
//! stream's elements without a search.

use super::banks::Banks;
use super::{Wait, WaitTicks};
use crate::contention::ClaimTable;
use crate::period_offset;

/// The refresh windows, read through a [`period_offset`] cursor: the
/// searches of a stream paced by a non-negative `z` ask about ever later
/// ticks, so it divides only when a search leaves the current period.
#[derive(Clone, Copy)]
pub(super) struct RefreshWindows {
    pub(super) period: i64,
    pub(super) len: i64,
    pub(super) start: i64,
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
///
/// [`MemorySystem::grant_stream`]: super::MemorySystem::grant_stream
pub(super) struct Port<'a> {
    pub(super) banks: &'a mut Banks,
    pub(super) background: &'a ClaimTable,
    pub(super) background_start: i64,
    pub(super) busy: i64,
    pub(super) view: u32,
    pub(super) refresh: Option<RefreshWindows>,
    pub(super) waits: WaitTicks,
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
    pub(super) fn search(&mut self, bank: usize, earliest: i64) -> i64 {
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
    pub(super) fn run(
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
pub(super) fn next_bank(bank: usize, step: usize, banks: usize) -> usize {
    let bank = bank + step;
    if bank >= banks {
        bank - banks
    } else {
        bank
    }
}
