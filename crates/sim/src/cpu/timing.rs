//! The timing of an instruction [`Cpu::execute`] has run: [`Cpu::time`]
//! dispatches it, scalar instructions issue and wait on their operands
//! here, scalar memory accesses take the shared port and fence the
//! vector stream, and an enabled probe is charged each stall by cause.

use c240_isa::timing::TICKS_PER_CYCLE;
use c240_isa::{Instruction, IntOperand, Pipe, ScalarReg, VOperand};
use c240_mem::WaitTicks;
use c240_obs::{Lane, Probe, StallCause};

use super::exec::Touched;
use super::{lane_of, Cpu, EntryTerms, PipeCredits};

impl Cpu {
    /// The timing of an instruction [`Cpu::execute`] has just run: issue,
    /// ready times, pipes, memory grants and probe attribution. Addresses,
    /// zero-length vector instructions and branch outcomes come from
    /// `touched`, never from registers the instruction may have
    /// overwritten; no vector instruction writes the vector length.
    pub(super) fn time<P: Probe>(
        &mut self,
        probe: &mut P,
        ins: &Instruction,
        pc: usize,
        touched: Touched,
    ) {
        use Instruction::*;
        match (ins, touched) {
            (_, Touched::Vector { vl: 0 } | Touched::Stream { vl: 0, .. }) => {
                // A zero-length vector instruction only occupies issue.
                self.issue_scalar(probe, pc);
            }
            (
                &VLoad { addr, dst },
                Touched::Stream {
                    base: Some(base), ..
                },
            ) => {
                self.vector_load(probe, pc, ins, addr, dst, base);
            }
            (
                &VStore { src, addr },
                Touched::Stream {
                    base: Some(base), ..
                },
            ) => {
                self.vector_store(probe, pc, ins, src, addr, base);
            }
            (
                &(VAdd { a, b, dst }
                | VSub { a, b, dst }
                | VMul { a, b, dst }
                | VDiv { a, b, dst }),
                _,
            ) => self.vector_arith(probe, pc, ins, a, b, dst),
            (&VNeg { src, dst }, _) => {
                let op = VOperand::V(src);
                self.vector_arith(probe, pc, ins, op, op, dst);
            }
            (&VSum { src, dst }, _) => self.vector_reduce(probe, pc, ins, src, dst, false),
            (&(VRAdd { src, acc } | VRSub { src, acc }), _) => {
                self.vector_reduce(probe, pc, ins, src, acc, true);
            }
            (&SetVl { src }, _) => {
                self.scalar_wait(probe, pc, self.s_ready[usize::from(src.index())]);
                self.issue_scalar(probe, pc);
            }
            (SetVlImm { .. } | Nop, _) => self.issue_scalar(probe, pc),
            (&SMovImm { dst, .. }, _) => {
                self.issue_scalar(probe, pc);
                self.set_ready(dst, self.clock);
            }
            (&SMov { src, dst }, _) => {
                self.scalar_wait(probe, pc, self.reg_ready(src));
                self.issue_scalar(probe, pc);
                self.set_ready(dst, self.clock);
            }
            (&SIntOp { src, dst, .. }, _) => {
                let ready = self.int_operand_ready(src).max(self.reg_ready(dst));
                self.scalar_wait(probe, pc, ready);
                self.issue_scalar(probe, pc);
                self.set_ready(dst, self.clock + self.ticks.int_latency - TICKS_PER_CYCLE);
            }
            (&SFpOp { op, a, b, dst }, _) => {
                let ready =
                    self.s_ready[usize::from(a.index())].max(self.s_ready[usize::from(b.index())]);
                self.scalar_wait(probe, pc, ready);
                self.issue_scalar(probe, pc);
                let lat = match op {
                    c240_isa::FpOp::Add | c240_isa::FpOp::Sub => self.ticks.fp_add_latency,
                    c240_isa::FpOp::Mul => self.ticks.fp_mul_latency,
                    c240_isa::FpOp::Div => self.ticks.fp_div_latency,
                };
                self.set_ready(ScalarReg::S(dst), self.clock + lat - TICKS_PER_CYCLE);
            }
            (&SLoad { addr, dst }, Touched::Scalar { word, hit, .. }) => {
                self.scalar_wait(probe, pc, self.a_ready[usize::from(addr.base.index())]);
                self.issue_scalar(probe, pc);
                let done = self.scalar_mem(probe, pc, word, hit, false);
                self.set_ready(dst, done);
            }
            (&SStore { src, addr }, Touched::Scalar { word, hit, .. }) => {
                let ready = self.a_ready[usize::from(addr.base.index())].max(self.reg_ready(src));
                self.scalar_wait(probe, pc, ready);
                self.issue_scalar(probe, pc);
                self.scalar_mem(probe, pc, word, hit, true);
            }
            (&Cmp { lhs, rhs, .. }, _) => {
                let ready = self.int_operand_ready(lhs).max(self.reg_ready(rhs));
                self.scalar_wait(probe, pc, ready);
                self.issue_scalar(probe, pc);
            }
            (BranchT { .. } | BranchF { .. } | Jump { .. }, _) => {
                self.issue_scalar(probe, pc);
                if let Touched::Taken = touched {
                    let penalty = self.ticks.branch_taken_penalty;
                    if P::ENABLED {
                        probe.busy(Lane::Scalar, penalty, pc);
                    }
                    self.clock += penalty;
                }
            }
            _ => unreachable!("execute returned what no instruction touches: {ins}"),
        }
    }

    fn issue_scalar<P: Probe>(&mut self, probe: &mut P, pc: usize) {
        if P::ENABLED {
            probe.busy(Lane::Scalar, self.ticks.issue, pc);
        }
        self.clock += self.ticks.issue;
        self.end = self.end.max(self.clock);
    }

    /// Advances the scalar clock to `t`, charging any wait to the issue
    /// interlock (a RAW dependence or structural issue block).
    pub(super) fn scalar_wait<P: Probe>(&mut self, probe: &mut P, pc: usize, t: i64) {
        if t > self.clock {
            if P::ENABLED {
                probe.stall(Lane::Scalar, StallCause::IssueInterlock, t - self.clock, pc);
            }
            self.clock = t;
        }
    }

    /// Charges the gap between a pipe's account cursor and a vector
    /// instruction's first-element entry time to the responsible causes.
    ///
    /// Each `max` term that produced the entry time is charged
    /// `max(term − running, 0)` in a fixed order, so the charges sum to
    /// exactly `entry0 − acct[slot]` and no cycle is counted twice. The
    /// pipe-availability term is split using the [`PipeCredits`] recorded
    /// when `next_entry` was pushed; the credits are consumed here.
    pub(super) fn attribute_entry<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        slot: usize,
        t: EntryTerms,
    ) {
        let lane = lane_of(slot);
        let mut run = self.acct[slot];
        if t.issue_done > run {
            probe.idle(lane, t.issue_done - run);
            run = t.issue_done;
        }
        let ne = self.pipes[slot].next_entry;
        if ne > run {
            let mut gap = ne - run;
            let c = self.credits[slot];
            let bubble = gap.min(c.bubble);
            probe.stall(lane, StallCause::TailgateBubble, bubble, pc);
            gap -= bubble;
            let reduction = gap.min(c.reduction);
            probe.stall(lane, StallCause::ReductionDrain, reduction, pc);
            gap -= reduction;
            let fence = gap.min(c.fence);
            probe.stall(lane, StallCause::MemPortConflict, fence, pc);
            gap -= fence;
            probe.stall(lane, StallCause::PipeDrain, gap, pc);
            run = ne;
        }
        self.credits[slot] = PipeCredits::default();
        if t.fence > run {
            probe.stall(lane, StallCause::MemPortConflict, t.fence - run, pc);
            run = t.fence;
        }
        if t.barrier > run {
            probe.stall(lane, StallCause::OperandBarrier, t.barrier - run, pc);
            run = t.barrier;
        }
        if t.chain0 > run {
            probe.stall(lane, StallCause::ChainWait, t.chain0 - run, pc);
            run = t.chain0;
        }
        run = run.max(t.pre_pair);
        if t.entry0 > run {
            probe.stall(lane, StallCause::PairConflict, t.entry0 - run, pc);
        }
        self.acct[slot] = t.entry0;
    }

    /// Reports the bank/refresh/contention waits of a memory access or
    /// stream.
    pub(super) fn attribute_mem<P: Probe>(probe: &mut P, lane: Lane, pc: usize, waits: WaitTicks) {
        probe.stall(lane, StallCause::BankBusy, waits.bank_busy, pc);
        probe.stall(lane, StallCause::Refresh, waits.refresh, pc);
        probe.stall(lane, StallCause::Contention, waits.contention, pc);
    }

    fn reg_ready(&self, r: ScalarReg) -> i64 {
        match r {
            ScalarReg::S(s) => self.s_ready[usize::from(s.index())],
            ScalarReg::A(a) => self.a_ready[usize::from(a.index())],
        }
    }

    /// Records when `r`'s new value is ready.
    fn set_ready(&mut self, r: ScalarReg, ready: i64) {
        match r {
            ScalarReg::S(s) => self.s_ready[usize::from(s.index())] = ready,
            ScalarReg::A(a) => self.a_ready[usize::from(a.index())] = ready,
        }
        self.end = self.end.max(ready);
    }

    fn int_operand_ready(&self, op: IntOperand) -> i64 {
        match op {
            IntOperand::Imm(_) => 0,
            IntOperand::Reg(r) => self.reg_ready(r),
        }
    }

    /// Opens the scalar-memory lane's account for an access starting at
    /// `start`: idle until the issue clock, then the wait for the shared
    /// memory port.
    fn scalar_mem_open<P: Probe>(&mut self, probe: &mut P, pc: usize, start: i64) {
        let run = self.acct[Lane::ScalarMem as usize];
        probe.idle(Lane::ScalarMem, (self.clock - run).max(0));
        let run = run.max(self.clock);
        probe.stall(
            Lane::ScalarMem,
            StallCause::MemPortConflict,
            (start - run).max(0),
            pc,
        );
    }

    /// Closes the scalar-memory lane's account for an access that ran
    /// `start..done`: the memory-system wait split by cause, the cache
    /// hit latency as busy time, and whatever remains (the miss penalty,
    /// if any) as a scalar-cache miss.
    fn scalar_mem_close<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        before: WaitTicks,
        start: i64,
        done: i64,
    ) {
        let waits = self.mem.wait_ticks() - before;
        Self::attribute_mem(probe, Lane::ScalarMem, pc, waits);
        let mem_wait = waits.total();
        let hit = self.ticks.cache_hit;
        probe.busy(Lane::ScalarMem, hit, pc);
        probe.stall(
            Lane::ScalarMem,
            StallCause::ScalarCacheMiss,
            (done - start) - mem_wait - hit,
            pc,
        );
        self.acct[Lane::ScalarMem as usize] = done;
    }

    /// Raises the load/store pipe's fence after a scalar access,
    /// remembering the raise so the next vector memory instruction can
    /// attribute its wait to the shared port.
    fn fence_vector_stream(&mut self, done: i64) {
        self.scalar_mem_fence = self.scalar_mem_fence.max(done);
        let slot = Pipe::LoadStore.index();
        let p = &mut self.pipes[slot];
        if done > p.next_entry {
            self.credits[slot].fence += done - p.next_entry;
            p.next_entry = done;
        }
    }

    /// The timing of a scalar access to `word`, which hit or missed the
    /// cache as `hit` says. The single memory port makes it wait for the
    /// vector memory stream scheduled so far, and it fences later vector
    /// memory instructions — this is what splits chimes (§3.3). A load
    /// hit costs the hit latency; a load miss adds its memory grant and
    /// the miss penalty; a store always writes through to its grant.
    /// Returns the tick the access completes.
    fn scalar_mem<P: Probe>(
        &mut self,
        probe: &mut P,
        pc: usize,
        word: u64,
        hit: bool,
        store: bool,
    ) -> i64 {
        let start = self
            .clock
            .max(self.pipes[Pipe::LoadStore.index()].next_entry);
        let before = if P::ENABLED {
            self.scalar_mem_open(probe, pc, start);
            self.mem.wait_ticks()
        } else {
            WaitTicks::default()
        };
        let (hit_ticks, miss_ticks) = (self.ticks.cache_hit, self.ticks.cache_miss);
        let done = if store {
            self.mem.grant(word, start) + hit_ticks
        } else if hit {
            start + hit_ticks
        } else {
            self.mem.grant(word, start) + hit_ticks + miss_ticks
        };
        if P::ENABLED {
            self.scalar_mem_close(probe, pc, before, start, done);
        }
        self.fence_vector_stream(done);
        self.end = self.end.max(done);
        done
    }
}
