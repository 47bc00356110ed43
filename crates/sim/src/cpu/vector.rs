//! The skeleton every vector instruction runs.
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
//! system's one stream walker,
//! [`MemorySystem::grant_stream`](c240_mem::MemorySystem::grant_stream),
//! which grants the regular stretches of a stream in runs; their sinks
//! write the rows and report whether the grants form a line, and
//! [`Cpu::vector_stream`] attributes their waits.

use c240_isa::timing::VectorTicks;
use c240_isa::{Instruction, MemRef, Pipe, SReg, VOperand, VReg};
use c240_mem::StreamGrants;
use c240_obs::{Lane, Probe, StallCause};

use super::{lane_of, ActiveVec, Cpu, EntryTerms};
use crate::row::{TimingRow, VLEN};

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

impl Cpu {
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

    pub(super) fn vector_arith<P: Probe>(
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
    pub(super) fn vector_reduce<P: Probe>(
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

    /// The schedule of a vector memory instruction whose elements the
    /// stream walker granted
    /// ([`MemorySystem::grant_stream`](c240_mem::MemorySystem::grant_stream)),
    /// with the stream's chain and memory waits attributed once, summed.
    /// The walker is the one stream path: loads and stores, probed or not,
    /// single CPU or co-simulated, take it alike.
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
    pub(super) fn vector_load<P: Probe>(
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
    pub(super) fn vector_store<P: Probe>(
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
