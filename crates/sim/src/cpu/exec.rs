//! One data semantics: each instruction's data effects exist once, in
//! [`Cpu::execute`], the one copy exact stepping and the fast-forward
//! warp share:
//! register and memory values, scalar-cache tags and hit/miss counts,
//! the instruction, element, flop and branch counts, and the next pc. It
//! returns what the instruction [`Touched`] (a vector stream's first word,
//! stride and length; a scalar access's word, cache outcome and
//! direction; a taken branch). Exact stepping runs `execute` and then
//! [`Cpu::time`], which does timing only and reads addresses from that
//! return value.

use c240_isa::{
    Instruction, IntOperand, MemRef, Pipe, Program, SReg, ScalarReg, ScalarValue, VOperand, VReg,
    MAX_VL, WORD_BYTES,
};

use super::Cpu;
use crate::error::SimError;

impl Cpu {
    /// The data semantics of one instruction, the one copy exact stepping
    /// and the fast-forward warp share: register and memory values,
    /// scalar-cache tags and hit/miss counts, the instruction, element,
    /// flop and branch counts, and the next pc. Returns the next pc and
    /// what the instruction [`Touched`]; every address in it was read
    /// before the instruction overwrote its base register.
    ///
    /// A zero-length vector instruction moves no data and checks no
    /// address; a load or store still reports its first element's word,
    /// or `None` for a bad one.
    pub(super) fn execute(
        &mut self,
        ins: &Instruction,
        pc: usize,
        program: &Program,
    ) -> Result<(usize, Touched), SimError> {
        use Instruction::*;
        self.stats.instructions.bump(ins.class());
        let vl = self.vl;
        let n = vl as usize;
        let touched = match *ins {
            VLoad { addr, .. } | VStore { addr, .. } if n == 0 => Touched::Stream {
                base: self.vector_base(addr).ok(),
                stride: addr.stride.words(),
                vl,
            },
            _ if n == 0 && ins.is_vector() => Touched::Vector { vl },
            VLoad { addr, dst } => {
                let (base, stride) = (self.vector_base(addr)?, addr.stride.words());
                let row = &mut self.vdata[usize::from(dst.index())][..n];
                if stride == 1 {
                    let read = self.mem.read_run(base as u64, row);
                    assert!(read, "vector_base checked the run");
                } else {
                    for (e, value) in row.iter_mut().enumerate() {
                        *value = self.mem.peek(element_addr(base, stride, e));
                    }
                }
                Touched::Stream {
                    base: Some(base),
                    stride,
                    vl,
                }
            }
            VStore { src, addr } => {
                let (base, stride) = (self.vector_base(addr)?, addr.stride.words());
                let values = &self.vdata[usize::from(src.index())][..n];
                if stride == 1 {
                    self.mem.store_run(base as u64, values);
                    self.cache.invalidate_run(base as u64, n);
                } else {
                    self.mem.store_strided(base as u64, stride, values);
                    for e in 0..n {
                        self.cache.invalidate(element_addr(base, stride, e));
                    }
                }
                Touched::Stream {
                    base: Some(base),
                    stride,
                    vl,
                }
            }
            VAdd { a, b, dst } => self.vector_map(a, b, dst, |x, y| x + y),
            VSub { a, b, dst } => self.vector_map(a, b, dst, |x, y| x - y),
            VMul { a, b, dst } => self.vector_map(a, b, dst, |x, y| x * y),
            VDiv { a, b, dst } => self.vector_map(a, b, dst, |x, y| x / y),
            VNeg { src, dst } => {
                self.vector_map(VOperand::V(src), VOperand::V(src), dst, |x, _| -x)
            }
            VSum { src, dst } => self.vector_sum(src, dst, false, 1.0),
            VRAdd { src, acc } => self.vector_sum(src, acc, true, 1.0),
            VRSub { src, acc } => self.vector_sum(src, acc, true, -1.0),
            SetVl { src } => {
                let count = self.s[usize::from(src.index())] as i64;
                self.vl = count.clamp(0, i64::from(MAX_VL)) as u32;
                Touched::Regs
            }
            SetVlImm { value } => {
                self.vl = value.min(MAX_VL);
                Touched::Regs
            }
            SMovImm { value, dst } => {
                let bits = match value {
                    ScalarValue::Int(i) => i as u64,
                    ScalarValue::Fp(x) => x.to_bits(),
                };
                self.set_reg(dst, bits);
                Touched::Regs
            }
            SMov { src, dst } => {
                self.set_reg(dst, self.reg_bits(src));
                Touched::Regs
            }
            SIntOp { op, src, dst } => {
                let value = op.apply(self.reg_bits(dst) as i64, self.int_operand(src));
                self.set_reg(dst, value as u64);
                Touched::Regs
            }
            SFpOp { op, a, b, dst } => {
                let va = f64::from_bits(self.s[usize::from(a.index())]);
                let vb = f64::from_bits(self.s[usize::from(b.index())]);
                self.s[usize::from(dst.index())] = op.apply(va, vb).to_bits();
                Touched::Regs
            }
            SLoad { addr, dst } => {
                let word = self.scalar_addr(addr)?;
                let hit = self.cache.access(word);
                self.set_reg(dst, encode_loaded(dst, self.mem.peek(word)));
                Touched::Scalar {
                    word,
                    hit,
                    store: false,
                }
            }
            SStore { src, addr } => {
                let word = self.scalar_addr(addr)?;
                let hit = self.cache.access(word);
                let bits = self.reg_bits(src);
                let value = match src {
                    ScalarReg::S(_) => f64::from_bits(bits),
                    ScalarReg::A(_) => bits as i64 as f64,
                };
                self.mem.poke(word, value);
                Touched::Scalar {
                    word,
                    hit,
                    store: true,
                }
            }
            Cmp { op, lhs, rhs } => {
                self.tflag = op.apply(self.int_operand(lhs), self.reg_bits(rhs) as i64);
                Touched::Regs
            }
            BranchT { ref target } | BranchF { ref target } | Jump { ref target } => {
                let take = match ins {
                    BranchT { .. } => self.tflag,
                    BranchF { .. } => !self.tflag,
                    _ => true,
                };
                if take {
                    self.stats.branches_taken += 1;
                    let next = program
                        .label(target)
                        .expect("labels validated at program construction");
                    return Ok((next, Touched::Taken));
                }
                Touched::Regs
            }
            Halt | Nop => Touched::Regs,
            _ => return Err(SimError::Unsupported { pc }),
        };
        if let Some(pipe) = ins.pipe() {
            self.stats.elements[pipe.index()] += n as u64;
            // Every element through the add or multiply pipe is one flop.
            if pipe != Pipe::LoadStore {
                self.stats.flops += n as u64;
            }
        }
        Ok((pc + 1, touched))
    }

    /// `dst[e] = f(a[e], b[e])` over the vector length, for
    /// [`Cpu::execute`].
    fn vector_map(
        &mut self,
        a: VOperand,
        b: VOperand,
        dst: VReg,
        f: impl Fn(f64, f64) -> f64,
    ) -> Touched {
        let d = usize::from(dst.index());
        // Element e reads only index e of its operands, so computing in
        // place is safe when `dst` is one of them.
        for e in 0..self.vl as usize {
            let value = f(self.operand_value(a, e), self.operand_value(b, e));
            self.vdata[d][e] = value;
        }
        Touched::Vector { vl: self.vl }
    }

    /// Element `e` of a vector operand; a scalar operand is every element.
    fn operand_value(&self, op: VOperand, e: usize) -> f64 {
        match op {
            VOperand::V(v) => self.vdata[usize::from(v.index())][e],
            VOperand::S(s) => f64::from_bits(self.s[usize::from(s.index())]),
        }
    }

    /// Sums `src` into scalar `dst` for [`Cpu::execute`]: `dst = sum` for
    /// a plain reduction, `dst += sign · sum` when `accumulate` is set.
    fn vector_sum(&mut self, src: VReg, dst: SReg, accumulate: bool, sign: f64) -> Touched {
        let d = usize::from(dst.index());
        let s: f64 = self.vdata[usize::from(src.index())][..self.vl as usize]
            .iter()
            .sum();
        let base = if accumulate {
            f64::from_bits(self.s[d])
        } else {
            0.0
        };
        self.s[d] = (base + sign * s).to_bits();
        Touched::Vector { vl: self.vl }
    }

    fn reg_bits(&self, r: ScalarReg) -> u64 {
        match r {
            ScalarReg::S(s) => self.s[usize::from(s.index())],
            ScalarReg::A(a) => self.a[usize::from(a.index())] as u64,
        }
    }

    fn set_reg(&mut self, r: ScalarReg, bits: u64) {
        match r {
            ScalarReg::S(s) => self.s[usize::from(s.index())] = bits,
            ScalarReg::A(a) => self.a[usize::from(a.index())] = bits as i64,
        }
    }

    fn int_operand(&self, op: IntOperand) -> i64 {
        match op {
            IntOperand::Imm(i) => i,
            IntOperand::Reg(r) => self.reg_bits(r) as i64,
        }
    }

    /// The word address of a vector access's element 0, after checking
    /// its whole `vl`-element stream: every element must be an aligned,
    /// non-negative byte address inside the data space. Element addresses
    /// are affine in the index, so the first and last bound them all.
    fn vector_base(&self, addr: MemRef) -> Result<i64, SimError> {
        let first =
            self.word_addr(self.a[usize::from(addr.base.index())].saturating_add(addr.offset))?;
        let span = addr
            .stride
            .words()
            .saturating_mul(i64::from(self.vl.saturating_sub(1)));
        self.word_addr(first.saturating_add(span).saturating_mul(WORD_BYTES as i64))?;
        Ok(first)
    }

    /// The word address of byte address `byte`, which must be aligned,
    /// non-negative and inside the data space.
    fn word_addr(&self, byte: i64) -> Result<i64, SimError> {
        let word = byte / WORD_BYTES as i64;
        if byte < 0 || byte % WORD_BYTES as i64 != 0 || word >= self.mem.words() as i64 {
            return Err(SimError::BadAddress { byte_addr: byte });
        }
        Ok(word)
    }

    fn scalar_addr(&self, addr: MemRef) -> Result<u64, SimError> {
        let byte = self.a[usize::from(addr.base.index())].saturating_add(addr.offset);
        self.word_addr(byte).map(|word| word as u64)
    }
}

/// What an executed instruction touched: everything its timing and its
/// fast-forward check need from the data path, read before the
/// instruction overwrote any register.
#[derive(Debug, Clone, Copy)]
pub(super) enum Touched {
    /// Scalar registers or flags only, and no taken branch.
    Regs,
    /// A taken branch or jump.
    Taken,
    /// A vector instruction over `vl` elements that touches no memory.
    Vector { vl: u32 },
    /// A vector load or store over `vl` elements from word `base` at
    /// `stride` words. `base` is `None` only for a zero-length access to
    /// a bad address, which moves nothing.
    Stream {
        base: Option<i64>,
        stride: i64,
        vl: u32,
    },
    /// A scalar load or store of `word`, and whether it hit the cache.
    Scalar { word: u64, hit: bool, store: bool },
}

/// Word address of element `e` of a stream whose range
/// [`Cpu::vector_base`] checked.
fn element_addr(base: i64, stride: i64, e: usize) -> u64 {
    (base + stride * e as i64) as u64
}

/// Memory words are `f64`; an address register receiving a load converts
/// the value to an integer (addresses stored in memory round-trip through
/// `f64`, exact below 2^53).
fn encode_loaded(dst: ScalarReg, value: f64) -> u64 {
    match dst {
        ScalarReg::S(_) => value.to_bits(),
        ScalarReg::A(_) => (value as i64) as u64,
    }
}
