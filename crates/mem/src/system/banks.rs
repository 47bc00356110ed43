//! The bank state: the per-bank arbitration state a view grants
//! against, in its single-port and shared modes.

/// The per-bank arbitration state a view grants against, in one of two
/// modes, each with one job: one CPU's own port ([`BankState::new`]) or
/// the banks a co-simulated machine shares ([`BankState::multiport`]). It
/// keeps no counters; each view counts its own traffic. A co-sim driver
/// owns one shared state and swaps it between the CPUs' views with
/// [`MemorySystem::swap_bank_state`] (O(1)), so every grant search sees
/// every other CPU's outstanding claims.
///
/// [`MemorySystem::swap_bank_state`]: super::MemorySystem::swap_bank_state
#[derive(Debug, Clone, PartialEq)]
pub struct BankState(pub(super) Banks);

#[derive(Debug, Clone, PartialEq)]
pub(super) enum Banks {
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
