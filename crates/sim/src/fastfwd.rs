//! Steady-state fast-forward: detect that a loop's *timing* state has
//! become exactly periodic, then skip whole periods analytically while
//! executing only the functional (data) semantics of the skipped
//! iterations.
//!
//! # How detection works
//!
//! Every taken backward branch is a potential loop boundary. At each
//! arrival at a loop head the CPU computes a cheap *key* — vector
//! length, T-flag, active register-pair claims, and the clock phase
//! modulo the refresh period and the contention pattern period. When the
//! key repeats, the iteration count between the repeats is a candidate
//! period `m`, and the detector runs a three-snapshot protocol:
//!
//! 1. **Measure**: snapshot the full timing state `S0` now and `S1`
//!    after `m` more arrivals, and take every field's tick delta; the
//!    clock's must be positive.
//! 2. **Confirm**: record the executed instruction path for one more
//!    period and snapshot `S2`; require `S2−S1` to equal `S1−S0`
//!    field for field.
//! 3. **Warp**: replay the recorded path *functionally* (registers,
//!    memory data, cache tags — no timing) through the same `execute`
//!    exact stepping uses, as long as every step reproduces its recorded
//!    check; then add `k` periods of each field's delta to every field,
//!    for the `k` whole periods replayed, and time the steps the
//!    iteration that left the path had executed.
//!
//! The fields are one vector, walked by the CPU's one visitor: its own
//! timing state, the memory system's bank times, wait totals and access
//! count, and the probe's counters. Snapshot and shift both go through
//! that walk, so they cannot disagree on the layout.
//!
//! # Why this is exact
//!
//! Every timing parameter of the machine — including the 1.35-cycle
//! reduction element rate — is a multiple of 1/20 cycle, and the
//! simulator keeps every time as an integer count of these ticks.
//! Snapshot deltas and their `k`-fold translation are therefore exact
//! integer arithmetic, and reproduce the values the naive run would have
//! reached after `k` more periods. The key's phase components guarantee
//! the period's clock delta is a multiple of the refresh period and of
//! the contention pattern period, so modular clock arithmetic is
//! preserved too. Anything outside these preconditions — a changed
//! field count (a probe gaining a pc), a changed instruction path or
//! bank-residue pattern — fails a check and the run falls back to exact
//! element stepping, which is always correct. The replayed iteration
//! that fails is not undone: timing and the key read no data state but
//! the vector length and the T flag, so its executed steps are timed
//! afterwards, each with the vector length and T flag it left, and give
//! what stepping them exactly would have.

/// Per-instruction verification payload recorded for one loop period.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StepCheck {
    /// No timing-relevant operands beyond the instruction itself.
    Plain,
    /// Vector memory op: first-element bank residue, stride and VL must
    /// repeat for the recorded grant pattern to stay valid.
    VecMem { residue: u32, stride: i64, vl: u32 },
    /// Scalar memory op: cache hit/miss outcome (and bank residue for
    /// accesses that reach memory) must repeat.
    SMem {
        residue: u32,
        hit: bool,
        store: bool,
    },
}

/// One executed instruction of the recorded period.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Step {
    pub pc: u32,
    pub check: StepCheck,
}

/// A full snapshot of everything that must evolve periodically.
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    /// Discrete state that must match *exactly* between periods.
    pub key: Vec<u64>,
    /// Every translated field, clock first, in the order of the CPU's one
    /// field walk (times in ticks, memory and probe counters included).
    pub fields: Vec<i64>,
    /// Instructions executed since the start of the run.
    pub executed: u64,
}

/// The verified per-period deltas plus the recorded instruction path.
/// Timing deltas are in ticks; counts are in their native units.
#[derive(Debug, Clone)]
pub(crate) struct PeriodRecord {
    pub steps: Vec<Step>,
    pub field_deltas: Vec<i64>,
    pub instructions: u64,
}

/// Computes the per-period deltas between two snapshots, or `None` when
/// the pair cannot prove periodicity (key mismatch, a changed field
/// count, a clock that did not advance).
pub(crate) fn diff_snapshots(a: &Snapshot, b: &Snapshot) -> Option<PeriodRecord> {
    if a.key != b.key || a.fields.len() != b.fields.len() {
        return None;
    }
    let field_deltas: Vec<i64> = a.fields.iter().zip(&b.fields).map(|(x, y)| y - x).collect();
    // fields[0] is the clock: its tick delta must be strictly positive.
    if *field_deltas.first()? <= 0 {
        return None;
    }
    Some(PeriodRecord {
        steps: Vec::new(),
        field_deltas,
        instructions: b.executed.checked_sub(a.executed)?,
    })
}

/// Whether two period measurements agree exactly (same deltas, same path
/// length).
pub(crate) fn periods_agree(a: &PeriodRecord, b: &PeriodRecord) -> bool {
    a.field_deltas == b.field_deltas && a.instructions == b.instructions
}

/// FNV-1a over 64-bit words — cheap, deterministic, dependency-free.
pub(crate) fn hash_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

#[derive(Debug, Clone, PartialEq, Default)]
enum Phase {
    #[default]
    Idle,
    /// Waiting for arrival number `target` at `loop_pc` to take `S1`.
    Measure { target: u64 },
    /// Recording the path; waiting for arrival `target` to take `S2`.
    Confirm { target: u64 },
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

/// Detection state machine. Owned by the CPU; one candidate in flight.
/// The default is a fresh, disabled detector.
#[derive(Debug, Clone, Default)]
pub(crate) struct FastForward {
    pub enabled: bool,
    /// The run's probes, warps and skipped instructions so far.
    pub stats: FfStats,
    dead: bool,
    failures: u32,
    phase: Phase,
    loop_pc: usize,
    period_m: u64,
    base: Option<Snapshot>,
    first: Option<PeriodRecord>,
    pub record: Option<PeriodRecord>,
    steps: Vec<Step>,
    recording: bool,
    /// Arrival counts per branch target.
    counts: std::collections::HashMap<usize, u64>,
    /// Per branch target: key hash → most recent arrival count with that
    /// key. O(1) per arrival; overwriting keeps the most recent match,
    /// which yields the smallest (innermost) candidate period.
    history: std::collections::HashMap<usize, std::collections::HashMap<u64, u64>>,
    /// Failed candidates per branch target. A loop head whose key
    /// repeats without its timing state being periodic (phase
    /// collisions under refresh are common in short strip loops) gets
    /// blacklisted after a few attempts so it cannot starve a detectable
    /// outer loop of the candidate slot or burn the global budget.
    failed: std::collections::HashMap<usize, u32>,
}

/// Total failed candidates before detection is disabled for the run.
const FAIL_BUDGET: u32 = 256;
/// Failed candidates at a single loop head before that head is ignored.
const PC_FAIL_BUDGET: u32 = 4;
// The refresh phase realigns within 20 · 400 = 8000 arrivals in the
// worst case (one-tick-per-period drift), so admit periods that long.
const MAX_PERIOD_ITERS: u64 = 8192;
const MAX_PERIOD_STEPS: usize = 1 << 17;
const HIST_CAP: usize = 8192;
const MAX_TRACKED_PCS: usize = 16;

impl FastForward {
    pub fn active(&self) -> bool {
        self.enabled && !self.dead
    }

    pub fn is_recording(&self) -> bool {
        self.recording
    }

    pub fn push_step(&mut self, step: Step) {
        if self.steps.len() >= MAX_PERIOD_STEPS {
            self.abort_candidate();
            return;
        }
        self.steps.push(step);
    }

    fn abort_candidate(&mut self) {
        let was_candidate = !matches!(self.phase, Phase::Idle);
        self.phase = Phase::Idle;
        self.base = None;
        self.first = None;
        self.steps = Vec::new();
        self.recording = false;
        self.failures += 1;
        if was_candidate {
            let pc_failures = self.failed.entry(self.loop_pc).or_insert(0);
            *pc_failures += 1;
            if *pc_failures >= PC_FAIL_BUDGET {
                // Stop even hashing keys for this head.
                self.history.remove(&self.loop_pc);
            }
        }
        if self.failures >= FAIL_BUDGET {
            self.dead = true;
            self.counts = std::collections::HashMap::new();
            self.history = std::collections::HashMap::new();
        }
    }

    /// Registers an arrival at branch target `pc` with key hash `h`.
    /// Returns the candidate period when a measurement should start (the
    /// caller then supplies the base snapshot via [`Self::begin`]).
    pub fn arrival(&mut self, pc: usize, h: u64) -> ArrivalAction {
        let count = {
            let c = self.counts.entry(pc).or_insert(0);
            *c += 1;
            *c
        };
        match self.phase {
            Phase::Idle => {
                if self.failed.get(&pc).is_some_and(|&f| f >= PC_FAIL_BUDGET) {
                    return ArrivalAction::Nothing;
                }
                let candidate =
                    if self.history.len() < MAX_TRACKED_PCS || self.history.contains_key(&pc) {
                        let seen = self.history.entry(pc).or_default();
                        let m = seen
                            .get(&h)
                            .map(|&rc| count - rc)
                            .filter(|&m| (1..=MAX_PERIOD_ITERS).contains(&m));
                        if seen.len() >= HIST_CAP {
                            // Entries older than the longest admissible period
                            // can never produce a candidate again.
                            seen.retain(|_, &mut rc| count - rc < MAX_PERIOD_ITERS);
                        }
                        seen.insert(h, count);
                        m
                    } else {
                        None
                    };
                match candidate {
                    Some(m) => {
                        self.loop_pc = pc;
                        self.period_m = m;
                        self.phase = Phase::Measure { target: count + m };
                        ArrivalAction::Snapshot(SnapshotWhy::Base)
                    }
                    None => ArrivalAction::Nothing,
                }
            }
            Phase::Measure { target } if pc == self.loop_pc && count == target => {
                ArrivalAction::Snapshot(SnapshotWhy::Measure)
            }
            Phase::Confirm { target } if pc == self.loop_pc && count == target => {
                ArrivalAction::Snapshot(SnapshotWhy::Confirm)
            }
            _ => ArrivalAction::Nothing,
        }
    }

    /// Installs the base snapshot after [`ArrivalAction::Snapshot`]
    /// with [`SnapshotWhy::Base`].
    pub fn begin(&mut self, snap: Snapshot) {
        self.base = Some(snap);
    }

    /// Consumes the `S1` snapshot; on success recording starts.
    pub fn measure(&mut self, snap: Snapshot) {
        let Some(base) = self.base.take() else {
            self.abort_candidate();
            return;
        };
        match diff_snapshots(&base, &snap) {
            Some(rec) => {
                self.first = Some(rec);
                self.base = Some(snap);
                self.steps = Vec::new();
                self.recording = true;
                let count = self.counts[&self.loop_pc];
                self.phase = Phase::Confirm {
                    target: count + self.period_m,
                };
            }
            None => self.abort_candidate(),
        }
    }

    /// Consumes the `S2` snapshot; returns true when the period is
    /// confirmed and [`Self::record`] holds the verified record.
    pub fn confirm(&mut self, snap: Snapshot) -> bool {
        self.recording = false;
        let (Some(base), Some(first)) = (self.base.take(), self.first.take()) else {
            self.abort_candidate();
            return false;
        };
        match diff_snapshots(&base, &snap) {
            Some(mut rec) if periods_agree(&first, &rec) => {
                rec.steps = std::mem::take(&mut self.steps);
                self.record = Some(rec);
                self.phase = Phase::Idle;
                true
            }
            _ => {
                self.abort_candidate();
                false
            }
        }
    }

    /// Clears all detection state after a warp (successful or not) so a
    /// later loop can be detected afresh.
    pub fn finish_warp(&mut self) {
        self.phase = Phase::Idle;
        self.base = None;
        self.first = None;
        self.record = None;
        self.steps = Vec::new();
        self.recording = false;
        self.counts = std::collections::HashMap::new();
        self.history = std::collections::HashMap::new();
    }
}

/// What the CPU should do at a loop-head arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ArrivalAction {
    Nothing,
    Snapshot(SnapshotWhy),
}

/// Which protocol step the requested snapshot feeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SnapshotWhy {
    Base,
    Measure,
    Confirm,
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_obs::{CounterProbe, Lane, Probe, StallCause};

    fn snap(fields: Vec<i64>, executed: u64) -> Snapshot {
        Snapshot {
            key: vec![1, 2],
            fields,
            executed,
        }
    }

    #[test]
    fn integer_deltas_accepted_in_ticks() {
        // Cycles 100 and 5 to 632 and 537: 532 cycles each.
        let a = snap(vec![2000, 100, 0], 50);
        let b = snap(vec![12640, 10740, 0], 63);
        let rec = diff_snapshots(&a, &b).unwrap();
        assert_eq!(rec.field_deltas, vec![10640, 10640, 0]);
        assert_eq!(rec.instructions, 13);
    }

    #[test]
    fn grid_deltas_accepted() {
        // Half cycles and 1.35-cycle reduction steps are whole ticks.
        let a = snap(vec![2000, 100], 1);
        let b = snap(vec![12750, 10850], 2);
        let rec = diff_snapshots(&a, &b).unwrap();
        assert_eq!(rec.field_deltas, vec![10750, 10750]);
        let a = snap(vec![0], 1);
        let b = snap(vec![27], 2);
        assert_eq!(diff_snapshots(&a, &b).unwrap().field_deltas, vec![27]);
    }

    #[test]
    fn key_mismatch_rejected() {
        let a = snap(vec![2000], 1);
        let mut b = snap(vec![10000], 2);
        b.key = vec![9];
        assert!(diff_snapshots(&a, &b).is_none());
    }

    #[test]
    fn non_advancing_clock_rejected() {
        let a = snap(vec![2000], 1);
        let b = snap(vec![2000], 2);
        assert!(diff_snapshots(&a, &b).is_none());
    }

    #[test]
    fn periods_agree_is_bitwise() {
        let a = snap(vec![0, 20], 0);
        let b = snap(vec![10640, 10660], 10);
        let c = snap(vec![21280, 21300], 20);
        let r1 = diff_snapshots(&a, &b).unwrap();
        let r2 = diff_snapshots(&b, &c).unwrap();
        assert!(periods_agree(&r1, &r2));
        let d = snap(vec![31921, 31940], 30);
        assert!(!periods_agree(&r2, &diff_snapshots(&c, &d).unwrap()));
    }

    /// A snapshot whose fields are a clock and then `probe`'s counters,
    /// read through the probe's visitor.
    fn probed(clock: i64, probe: &mut CounterProbe, executed: u64) -> Snapshot {
        let mut fields = vec![clock];
        probe.visit_counters(|c| fields.push(*c));
        snap(fields, executed)
    }

    /// A probe that has charged `ticks` of bank busy to `pc`.
    fn stalled_at(pc: usize, ticks: i64) -> CounterProbe {
        let mut p = CounterProbe::new();
        p.stall(Lane::Ld, StallCause::BankBusy, ticks, pc);
        p
    }

    #[test]
    fn probe_gaining_a_pc_is_rejected_on_length() {
        let mut p = stalled_at(3, 20);
        let a = probed(2000, &mut p, 1);
        p.stall(Lane::Ld, StallCause::BankBusy, 20, 3);
        p.stall(Lane::Mul, StallCause::PipeDrain, 20, 5);
        let b = probed(4000, &mut p, 2);
        assert!(a.fields.len() < b.fields.len());
        assert!(diff_snapshots(&a, &b).is_none());
    }

    #[test]
    fn probe_swapping_a_pc_is_rejected_by_the_periods() {
        let s0 = probed(0, &mut stalled_at(3, 20), 0);
        let s1 = probed(1000, &mut stalled_at(3, 40), 10);
        let first = diff_snapshots(&s0, &s1).unwrap();
        // Same length, same stall deltas, but the stalls moved to pc 4:
        // only the pc copy in the walk tells the periods apart.
        let swapped = probed(2000, &mut stalled_at(4, 60), 20);
        assert_eq!(swapped.fields.len(), s1.fields.len());
        assert!(!periods_agree(
            &first,
            &diff_snapshots(&s1, &swapped).unwrap()
        ));
        let same = probed(2000, &mut stalled_at(3, 60), 20);
        assert!(periods_agree(&first, &diff_snapshots(&s1, &same).unwrap()));
    }

    #[test]
    fn state_machine_full_protocol() {
        let mut ff = FastForward {
            enabled: true,
            ..FastForward::default()
        };
        // Two arrivals with the same key hash → candidate with m = 1.
        assert_eq!(ff.arrival(7, 42), ArrivalAction::Nothing);
        assert_eq!(
            ff.arrival(7, 42),
            ArrivalAction::Snapshot(SnapshotWhy::Base)
        );
        ff.begin(snap(vec![2000], 10));
        assert_eq!(
            ff.arrival(7, 42),
            ArrivalAction::Snapshot(SnapshotWhy::Measure)
        );
        ff.measure(snap(vec![12640], 20));
        assert!(ff.is_recording());
        ff.push_step(Step {
            pc: 7,
            check: StepCheck::Plain,
        });
        assert_eq!(
            ff.arrival(7, 42),
            ArrivalAction::Snapshot(SnapshotWhy::Confirm)
        );
        assert!(ff.confirm(snap(vec![23280], 30)));
        let rec = ff.record.clone().unwrap();
        assert_eq!(rec.field_deltas, vec![10640]);
        assert_eq!(rec.steps.len(), 1);
    }

    /// Drives one failing candidate (a clock that did not advance) at
    /// `pc`.
    fn fail_candidate_at(ff: &mut FastForward, pc: usize) {
        loop {
            if let ArrivalAction::Snapshot(SnapshotWhy::Base) = ff.arrival(pc, 1) {
                break;
            }
        }
        ff.begin(snap(vec![2000], 1));
        loop {
            if let ArrivalAction::Snapshot(SnapshotWhy::Measure) = ff.arrival(pc, 1) {
                break;
            }
        }
        ff.measure(snap(vec![2000], 2));
    }

    #[test]
    fn noisy_loop_head_is_blacklisted_but_others_still_try() {
        let mut ff = FastForward {
            enabled: true,
            ..FastForward::default()
        };
        for _ in 0..PC_FAIL_BUDGET {
            assert!(ff.active());
            fail_candidate_at(&mut ff, 3);
        }
        // pc 3 is blacklisted: repeating keys no longer start candidates.
        for _ in 0..16 {
            assert_eq!(ff.arrival(3, 1), ArrivalAction::Nothing);
        }
        assert!(ff.active(), "one noisy head must not kill detection");
        // A different head can still become a candidate.
        assert_eq!(ff.arrival(9, 5), ArrivalAction::Nothing);
        assert_eq!(ff.arrival(9, 5), ArrivalAction::Snapshot(SnapshotWhy::Base));
    }

    #[test]
    fn global_fail_budget_kills_detection() {
        let mut ff = FastForward {
            enabled: true,
            ..FastForward::default()
        };
        // Exhaust one head after another: each blacklisted head frees
        // its tracking slot, so fresh heads keep failing until the
        // global budget ends detection for the whole run.
        let mut pc = 0usize;
        while ff.active() {
            for _ in 0..PC_FAIL_BUDGET {
                if !ff.active() {
                    break;
                }
                fail_candidate_at(&mut ff, pc);
            }
            pc += 1;
            assert!(pc < 1_000, "global budget never tripped");
        }
        assert!(!ff.active());
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        assert_eq!(hash_words(&[1, 2, 3]), hash_words(&[1, 2, 3]));
        assert_ne!(hash_words(&[1, 2, 3]), hash_words(&[1, 2, 4]));
    }
}
