//! The machine-specific pieces of steady-state fast-forward; detection
//! and the exactness argument live in the `fastfwd` module.
//!
//! # One timing-field walk
//!
//! The warp replays a recorded period through the same
//! `execute` exact stepping runs and compares each step's
//! [`Cpu::step_check`] with the one recorded. It never undoes a step:
//! when an iteration leaves the recorded path, the steps it already
//! executed are timed afterwards, as exact stepping would have timed
//! them. Everything fast-forward translates is walked by one visitor,
//! [`Cpu::ff_fields`], clock first: the CPU's timing state, the memory
//! system's bank times, wait totals and access count, and the probe's
//! counters. The snapshot reads through it and the warp's shift
//! translates through it.

use c240_isa::timing::TICKS_PER_CYCLE;
use c240_isa::Program;
use c240_obs::Probe;

use super::exec::Touched;
use super::{Cpu, RunCursor, VREGS};
use crate::error::SimError;
use crate::fastfwd::{hash_words, ArrivalAction, PeriodRecord, Snapshot, SnapshotWhy, StepCheck};
use crate::row::VLEN;

impl Cpu {
    /// Discrete state that must match exactly for two loop-head arrivals
    /// to be candidate period endpoints. The clock phases force the
    /// period's clock delta to be a multiple of the refresh period and of
    /// the contention pattern period, which is what preserves all modular
    /// arithmetic under translation.
    fn ff_key(&self) -> Vec<u64> {
        let machine = &self.config.machine;
        let mut key = Vec::with_capacity(6 + 2 * self.active.len());
        key.push(u64::from(self.vl));
        key.push(u64::from(self.tflag));
        key.push(self.active.len() as u64);
        for av in &self.active {
            key.push(u64::from(u32::from_le_bytes(av.pair_reads)));
            key.push(u64::from(u32::from_le_bytes(av.pair_writes)));
        }
        // Phases are the clock's tick residues, which repeat exactly
        // whenever the true phase repeats.
        let ticks_per_cycle = TICKS_PER_CYCLE as u64;
        let clock = self.clock as u64;
        if let Some((period, _)) = machine.modeled_refresh() {
            key.push(clock % (period * ticks_per_cycle));
        }
        let pp = self.config.contention.pattern_period(machine.banks);
        if pp > 1 {
            key.push(clock % (pp * ticks_per_cycle));
        }
        key
    }

    /// Visits every field fast-forward translates, clock first: the CPU's
    /// timing state, then the memory system's bank free times, wait
    /// totals and access count
    /// ([`MemorySystem::visit_timing`](c240_mem::MemorySystem::visit_timing)),
    /// then the probe's counters ([`Probe::visit_counters`]). The snapshot
    /// reads through this one walk and the warp translates through it, so
    /// their field orders cannot drift apart.
    fn ff_fields<P: Probe>(&mut self, probe: &mut P, mut visit: impl FnMut(&mut i64)) {
        visit(&mut self.clock);
        visit(&mut self.end);
        visit(&mut self.scalar_mem_fence);
        for p in &mut self.pipes {
            visit(&mut p.next_entry);
            visit(&mut p.issue_gate);
        }
        for r in self
            .a_ready
            .iter_mut()
            .chain(&mut self.s_ready)
            .chain(&mut self.acct)
        {
            visit(r);
        }
        for c in &mut self.credits {
            visit(&mut c.bubble);
            visit(&mut c.reduction);
            visit(&mut c.fence);
        }
        for r in self
            .vready
            .iter_mut()
            .chain(&mut self.vread_until)
            .flat_map(|row| &mut row.ticks)
        {
            visit(r);
        }
        for av in &mut self.active {
            visit(&mut av.end);
        }
        self.mem.visit_timing(&mut visit);
        probe.visit_counters(visit);
    }

    /// Full snapshot of the state fast-forward translates.
    fn ff_snapshot<P: Probe>(&mut self, probe: &mut P, executed: u64) -> Snapshot {
        let mut fields = Vec::with_capacity(2 * VREGS * VLEN + 128);
        self.ff_fields(probe, |f| fields.push(*f));
        Snapshot {
            key: self.ff_key(),
            fields,
            executed,
        }
    }

    /// Translates every field by `k` periods of its delta: exactly the
    /// values the naive run would have reached.
    fn ff_apply_shift<P: Probe>(&mut self, probe: &mut P, rec: &PeriodRecord, k: u64) {
        let k = k as i64;
        let mut deltas = rec.field_deltas.iter();
        self.ff_fields(probe, |f| {
            let d = deltas
                .next()
                .expect("snapshot and shift walk the same fields");
            *f += k * d;
        });
        for row in self.vready.iter_mut().chain(&mut self.vread_until) {
            row.resummarize();
        }
    }

    /// Drives the detector at a taken backward branch to `target`.
    /// Returns true when a verified period record is armed for warping.
    pub(super) fn ff_loop_head<P: Probe>(
        &mut self,
        probe: &mut P,
        target: usize,
        executed: u64,
    ) -> bool {
        self.ff.stats.probes += 1;
        let h = hash_words(&self.ff_key());
        match self.ff.arrival(target, h) {
            ArrivalAction::Nothing => false,
            ArrivalAction::Snapshot(why) => {
                let snap = self.ff_snapshot(probe, executed);
                match why {
                    SnapshotWhy::Base => {
                        self.ff.begin(snap);
                        false
                    }
                    SnapshotWhy::Measure => {
                        self.ff.measure(snap);
                        false
                    }
                    SnapshotWhy::Confirm => self.ff.confirm(snap),
                }
            }
        }
    }

    /// The fast-forward check of an executed instruction: what must
    /// repeat for a replay to keep the recorded timing. Recording stores
    /// it, and the warp compares each replayed step's check against it.
    /// A vector stream checks its first element's bank (0 for a bad
    /// address), stride and length; a scalar access checks its cache
    /// outcome and, when it reaches the banks, its bank. A load hit never
    /// does, so it records bank 0.
    pub(super) fn step_check(&self, touched: Touched) -> StepCheck {
        let banks = u64::from(self.config.machine.banks);
        let residue = |word: u64| (word % banks) as u32;
        match touched {
            Touched::Regs | Touched::Taken | Touched::Vector { .. } => StepCheck::Plain,
            Touched::Stream { base, stride, vl } => StepCheck::VecMem {
                residue: base.map_or(0, |word| residue(word as u64)),
                stride,
                vl,
            },
            Touched::Scalar { word, hit, store } => StepCheck::SMem {
                residue: if hit && !store { 0 } else { residue(word) },
                hit,
                store,
            },
        }
    }

    /// Replays the verified period at the loop head `cursor.pc` through
    /// [`Cpu::execute`] as many whole times as the program follows it,
    /// then translates all timing state by that many periods. The steps
    /// of the iteration that left the period have executed by then; they
    /// are timed next, through [`Cpu::finish_step`], each with the vector
    /// length and T flag it left, which are the only data state timing and
    /// the detector read. `cursor` ends where exact stepping would be. A
    /// step that fails to execute returns its error after the steps
    /// before it are timed.
    pub(super) fn ff_warp<P: Probe>(
        &mut self,
        probe: &mut P,
        program: &Program,
        cursor: &mut RunCursor,
    ) -> Result<(), SimError> {
        let rec = match self.ff.record.take() {
            Some(rec) if !rec.steps.is_empty() && rec.instructions > 0 => rec,
            _ => {
                self.ff.finish_warp();
                return Ok(());
            }
        };
        let budget =
            self.config.max_instructions.saturating_sub(cursor.executed) / rec.instructions;
        // Cap k so no translation can come near the end of the `i64` range.
        let max_d = rec
            .field_deltas
            .iter()
            .map(|d| d.unsigned_abs())
            .max()
            .unwrap_or(0);
        let k_max = budget.min((i64::MAX as u64 / 4).checked_div(max_d).unwrap_or(u64::MAX));
        let mut k: u64 = 0;
        let mut prefix = Vec::new();
        let mut result = Ok(());
        while k < k_max {
            match self.warp_one(program, &rec, cursor.pc, &mut prefix) {
                Ok(true) => {
                    k += 1;
                    prefix.clear();
                }
                Ok(false) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if k > 0 {
            self.ff_apply_shift(probe, &rec, k);
            self.ff.stats.warps += 1;
        }
        self.ff.stats.skipped_instructions += k * rec.instructions;
        cursor.executed += k * rec.instructions;
        self.ff.finish_warp();
        for step in prefix {
            cursor.executed += 1;
            self.vl = step.vl;
            self.tflag = step.tflag;
            let ins = &program.instructions()[step.pc];
            if self.finish_step(
                probe,
                ins,
                step.pc,
                step.next,
                step.touched,
                cursor.executed,
            ) {
                // The steps after this one have executed already, so the
                // period confirmed here cannot be replayed.
                self.ff.finish_warp();
            }
            cursor.pc = step.next;
        }
        result
    }

    /// One replay of the recorded period from `loop_pc` through
    /// [`Cpu::execute`], each executed step appended to `prefix`. Returns
    /// whether the iteration followed the recorded path back to
    /// `loop_pc`. It stops at the first step that leaves the path (not
    /// executed) or fails its check (executed), and at an `execute` error.
    fn warp_one(
        &mut self,
        program: &Program,
        rec: &PeriodRecord,
        loop_pc: usize,
        prefix: &mut Vec<Executed>,
    ) -> Result<bool, SimError> {
        let mut pc = loop_pc;
        for step in &rec.steps {
            if pc != step.pc as usize {
                return Ok(false);
            }
            let (next, touched) = self.execute(&program.instructions()[pc], pc, program)?;
            prefix.push(Executed {
                pc,
                next,
                touched,
                vl: self.vl,
                tflag: self.tflag,
            });
            if self.step_check(touched) != step.check {
                return Ok(false);
            }
            pc = next;
        }
        Ok(pc == loop_pc)
    }
}

/// A step the warp executed in an iteration that may still leave the
/// recorded period: what [`Cpu::finish_step`] needs to time it later,
/// and the vector length and T flag it left behind.
#[derive(Debug, Clone, Copy)]
struct Executed {
    pc: usize,
    next: usize,
    touched: Touched,
    vl: u32,
    tflag: bool,
}
