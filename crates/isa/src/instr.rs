//! The instruction set: vector memory, vector arithmetic, scalar/address
//! arithmetic, scalar memory, and control flow, together with the static
//! classification queries used by the MACS bound calculators.

use std::fmt;

use crate::reg::{AReg, SReg, VReg};
use crate::timing::TimingClass;
use crate::value::ScalarValue;

/// The three vector function pipes of the C-240 VP (§2 of the paper).
///
/// Each pipe can execute at most one vector instruction per chime; the
/// load/store pipe is the VP's only interface to memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pipe {
    /// The memory interface pipe (`ld`/`st`).
    LoadStore,
    /// Additions, subtractions, negations, reductions, logicals.
    Add,
    /// Multiplications, divisions, square roots.
    Multiply,
}

impl Pipe {
    /// All three pipes in a fixed order.
    pub fn all() -> [Pipe; 3] {
        [Pipe::LoadStore, Pipe::Add, Pipe::Multiply]
    }

    /// The pipe's position in [`Pipe::all`], for per-pipe arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Pipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Pipe::LoadStore => "load/store",
            Pipe::Add => "add",
            Pipe::Multiply => "multiply",
        };
        f.write_str(name)
    }
}

/// Element stride of a vector memory access, in 8-byte words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Stride {
    /// Consecutive words (stride 1) — the common, conflict-free case.
    #[default]
    Unit,
    /// A constant word stride (may be negative); `Words(1)` is
    /// equivalent to [`Stride::Unit`].
    Words(i64),
}

impl Stride {
    /// The stride in words.
    pub fn words(self) -> i64 {
        match self {
            Stride::Unit => 1,
            Stride::Words(w) => w,
        }
    }

    /// Whether this is a unit-stride access.
    pub fn is_unit(self) -> bool {
        self.words() == 1
    }
}

/// A memory operand: `offset(base)` with an optional vector stride,
/// e.g. `40120(a5)` or `0(a2):5` for a stride of five words.
///
/// `offset` is in **bytes** to match the paper's listings (`space1+40120`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base address register.
    pub base: AReg,
    /// Constant byte offset added to the base.
    pub offset: i64,
    /// Element stride (vector accesses only; ignored for scalar accesses).
    pub stride: Stride,
}

impl MemRef {
    /// A unit-stride reference `offset(base)`.
    pub fn new(base: AReg, offset: i64) -> Self {
        MemRef {
            base,
            offset,
            stride: Stride::Unit,
        }
    }

    /// The same reference with an explicit word stride.
    pub fn with_stride(mut self, words: i64) -> Self {
        self.stride = if words == 1 {
            Stride::Unit
        } else {
            Stride::Words(words)
        };
        self
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.offset, self.base)?;
        if let Stride::Words(w) = self.stride {
            if w != 1 {
                write!(f, ":{w}")?;
            }
        }
        Ok(())
    }
}

/// An operand of a vector arithmetic instruction: a vector register or a
/// scalar register broadcast across all elements (`mul.d v0,s1,v1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VOperand {
    /// A vector register operand.
    V(VReg),
    /// A scalar register broadcast operand.
    S(SReg),
}

impl VOperand {
    /// The vector register, if this operand is one.
    pub fn as_vreg(self) -> Option<VReg> {
        match self {
            VOperand::V(v) => Some(v),
            VOperand::S(_) => None,
        }
    }

    /// The scalar register, if this operand is one.
    pub fn as_sreg(self) -> Option<SReg> {
        match self {
            VOperand::S(s) => Some(s),
            VOperand::V(_) => None,
        }
    }
}

impl From<VReg> for VOperand {
    fn from(v: VReg) -> Self {
        VOperand::V(v)
    }
}

impl From<SReg> for VOperand {
    fn from(s: SReg) -> Self {
        VOperand::S(s)
    }
}

impl fmt::Display for VOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VOperand::V(v) => v.fmt(f),
            VOperand::S(s) => s.fmt(f),
        }
    }
}

/// A scalar destination/source register: an `s` or an `a` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarReg {
    /// A scalar data register.
    S(SReg),
    /// An address register.
    A(AReg),
}

impl From<SReg> for ScalarReg {
    fn from(s: SReg) -> Self {
        ScalarReg::S(s)
    }
}

impl From<AReg> for ScalarReg {
    fn from(a: AReg) -> Self {
        ScalarReg::A(a)
    }
}

impl fmt::Display for ScalarReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarReg::S(s) => s.fmt(f),
            ScalarReg::A(a) => a.fmt(f),
        }
    }
}

/// Integer operand of a two-address scalar integer instruction:
/// an immediate (`#1024`) or a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntOperand {
    /// Immediate integer.
    Imm(i64),
    /// Register operand.
    Reg(ScalarReg),
}

impl fmt::Display for IntOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntOperand::Imm(i) => write!(f, "#{i}"),
            IntOperand::Reg(r) => r.fmt(f),
        }
    }
}

/// Two-address integer operations (`add.w #1024,a5` means `a5 += 1024`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntOp {
    /// `dst += src`
    Add,
    /// `dst -= src`
    Sub,
    /// `dst *= src`
    Mul,
    /// `dst <<= src`
    Shl,
    /// `dst >>= src` (arithmetic)
    Shr,
}

impl IntOp {
    /// Assembly mnemonic stem (`add` for `add.w`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            IntOp::Add => "add",
            IntOp::Sub => "sub",
            IntOp::Mul => "mul",
            IntOp::Shl => "shl",
            IntOp::Shr => "shr",
        }
    }

    /// Applies the operation.
    pub fn apply(self, dst: i64, src: i64) -> i64 {
        match self {
            IntOp::Add => dst.wrapping_add(src),
            IntOp::Sub => dst.wrapping_sub(src),
            IntOp::Mul => dst.wrapping_mul(src),
            IntOp::Shl => dst.wrapping_shl(src as u32),
            IntOp::Shr => dst.wrapping_shr(src as u32),
        }
    }
}

/// Three-address scalar floating point operations (`add.d s1,s2,s3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// `dst = a + b`
    Add,
    /// `dst = a - b`
    Sub,
    /// `dst = a * b`
    Mul,
    /// `dst = a / b`
    Div,
}

impl FpOp {
    /// Assembly mnemonic stem (`add` for `add.d`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Add => "add",
            FpOp::Sub => "sub",
            FpOp::Mul => "mul",
            FpOp::Div => "div",
        }
    }

    /// Applies the operation.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            FpOp::Add => a + b,
            FpOp::Sub => a - b,
            FpOp::Mul => a * b,
            FpOp::Div => a / b,
        }
    }
}

/// Comparison predicates (`lt.w #0,s0` sets the test flag to `0 < s0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `lhs < rhs`
    Lt,
    /// `lhs <= rhs`
    Le,
    /// `lhs == rhs`
    Eq,
    /// `lhs != rhs`
    Ne,
    /// `lhs > rhs`
    Gt,
    /// `lhs >= rhs`
    Ge,
}

impl CmpOp {
    /// Assembly mnemonic stem (`lt` for `lt.w`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Evaluates the predicate.
    pub fn apply(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// Coarse instruction class used by workload counting and the A/X code
/// transformers (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Vector load or store.
    VectorMem,
    /// Vector floating point arithmetic (add/sub/mul/div/neg/reductions).
    VectorFp,
    /// Scalar load or store (contends for the single memory port).
    ScalarMem,
    /// Other scalar computation (address arithmetic, moves, compares).
    Scalar,
    /// Branches and jumps.
    Control,
}

/// One machine instruction.
///
/// Vector arithmetic is three-address over [`VOperand`]s (at least one of
/// which must be a vector register); scalar integer arithmetic is
/// two-address in the style of the paper's listings (`add.w #1024,a5`).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Instruction {
    /// `ld.l off(aN)[:stride],vD` — vector load.
    VLoad {
        /// Source address.
        addr: MemRef,
        /// Destination vector register.
        dst: VReg,
    },
    /// `st.l vS,off(aN)[:stride]` — vector store.
    VStore {
        /// Source vector register.
        src: VReg,
        /// Destination address.
        addr: MemRef,
    },
    /// `add.d a,b,vD` — elementwise addition (add pipe).
    VAdd {
        /// First operand.
        a: VOperand,
        /// Second operand.
        b: VOperand,
        /// Destination vector register.
        dst: VReg,
    },
    /// `sub.d a,b,vD` — elementwise subtraction `a - b` (add pipe).
    VSub {
        /// First operand.
        a: VOperand,
        /// Second operand.
        b: VOperand,
        /// Destination vector register.
        dst: VReg,
    },
    /// `mul.d a,b,vD` — elementwise multiplication (multiply pipe).
    VMul {
        /// First operand.
        a: VOperand,
        /// Second operand.
        b: VOperand,
        /// Destination vector register.
        dst: VReg,
    },
    /// `div.d a,b,vD` — elementwise division `a / b` (multiply pipe).
    VDiv {
        /// First operand.
        a: VOperand,
        /// Second operand.
        b: VOperand,
        /// Destination vector register.
        dst: VReg,
    },
    /// `neg.d vS,vD` — elementwise negation (add pipe).
    VNeg {
        /// Source vector register.
        src: VReg,
        /// Destination vector register.
        dst: VReg,
    },
    /// `sum.d vS,sD` — full sum reduction into a scalar register
    /// (add pipe, `Z = 1.35`, Table 1 footnote b).
    VSum {
        /// Source vector register.
        src: VReg,
        /// Destination scalar register.
        dst: SReg,
    },
    /// `radd.d vS,sD` — accumulating sum reduction `sD += Σ vS`
    /// (add pipe, reduction timing).
    VRAdd {
        /// Source vector register.
        src: VReg,
        /// Accumulator scalar register (read and written).
        acc: SReg,
    },
    /// `rsub.d vS,sD` — accumulating difference reduction `sD -= Σ vS`
    /// (add pipe, reduction timing).
    VRSub {
        /// Source vector register.
        src: VReg,
        /// Accumulator scalar register (read and written).
        acc: SReg,
    },

    /// `mov sN,vl` — set the vector length register from a scalar register,
    /// clamped to [`crate::MAX_VL`].
    SetVl {
        /// Scalar register holding the requested length.
        src: SReg,
    },
    /// `mov #n,vl` — set the vector length register to an immediate.
    SetVlImm {
        /// Requested vector length (clamped to [`crate::MAX_VL`]).
        value: u32,
    },
    /// `mov #imm,rD` — load an immediate into a scalar/address register.
    SMovImm {
        /// Immediate value.
        value: ScalarValue,
        /// Destination register.
        dst: ScalarReg,
    },
    /// `mov rS,rD` — register-to-register move.
    SMov {
        /// Source register.
        src: ScalarReg,
        /// Destination register.
        dst: ScalarReg,
    },
    /// `op.w src,rD` — two-address integer arithmetic, `rD = rD op src`.
    SIntOp {
        /// Operation.
        op: IntOp,
        /// Source operand (immediate or register).
        src: IntOperand,
        /// Destination (and left-hand) register.
        dst: ScalarReg,
    },
    /// `op.d sA,sB,sD` — three-address scalar floating point, `sD = sA op sB`.
    SFpOp {
        /// Operation.
        op: FpOp,
        /// Left operand.
        a: SReg,
        /// Right operand.
        b: SReg,
        /// Destination register.
        dst: SReg,
    },
    /// `ld.w off(aN),rD` / `ld.d off(aN),sD` — scalar load.
    ///
    /// Scalar loads use the CPU's single memory port and therefore split
    /// vector chimes (§3.3).
    SLoad {
        /// Source address (stride ignored).
        addr: MemRef,
        /// Destination register.
        dst: ScalarReg,
    },
    /// `st.d sS,off(aN)` — scalar store (also uses the memory port).
    SStore {
        /// Source register.
        src: ScalarReg,
        /// Destination address (stride ignored).
        addr: MemRef,
    },
    /// `cmp.w lhs,rS` — compare and set the test flag `T = lhs op rhs`.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Left operand (immediate or register).
        lhs: IntOperand,
        /// Right operand register.
        rhs: ScalarReg,
    },
    /// `jbrs.t L` — branch to `L` if the test flag is set.
    BranchT {
        /// Target label.
        target: String,
    },
    /// `jbrs.f L` — branch to `L` if the test flag is clear.
    BranchF {
        /// Target label.
        target: String,
    },
    /// `jbr L` — unconditional jump.
    Jump {
        /// Target label.
        target: String,
    },
    /// `halt` — stop execution (end of measured program).
    Halt,
    /// `nop` — one issue slot, no effect.
    Nop,
}

impl Instruction {
    /// Whether this is a vector instruction (touches a vector register or
    /// the vector pipes). Matches the paper's definition in §3.5: "any
    /// instruction that accesses at least one of the eight vector
    /// registers".
    pub fn is_vector(&self) -> bool {
        self.pipe().is_some()
    }

    /// The vector pipe this instruction executes on, or `None` for scalar
    /// and control instructions.
    pub fn pipe(&self) -> Option<Pipe> {
        use Instruction::*;
        match self {
            VLoad { .. } | VStore { .. } => Some(Pipe::LoadStore),
            VAdd { .. } | VSub { .. } | VNeg { .. } | VSum { .. } | VRAdd { .. } | VRSub { .. } => {
                Some(Pipe::Add)
            }
            VMul { .. } | VDiv { .. } => Some(Pipe::Multiply),
            _ => None,
        }
    }

    /// The coarse class used by workload counting and A/X transforms.
    pub fn class(&self) -> InstrClass {
        use Instruction::*;
        match self {
            VLoad { .. } | VStore { .. } => InstrClass::VectorMem,
            VAdd { .. }
            | VSub { .. }
            | VMul { .. }
            | VDiv { .. }
            | VNeg { .. }
            | VSum { .. }
            | VRAdd { .. }
            | VRSub { .. } => InstrClass::VectorFp,
            SLoad { .. } | SStore { .. } => InstrClass::ScalarMem,
            BranchT { .. } | BranchF { .. } | Jump { .. } => InstrClass::Control,
            SetVl { .. }
            | SetVlImm { .. }
            | SMovImm { .. }
            | SMov { .. }
            | SIntOp { .. }
            | SFpOp { .. }
            | Cmp { .. }
            | Halt
            | Nop => InstrClass::Scalar,
        }
    }

    /// Whether this is a vector memory access (load or store).
    pub fn is_vector_memory(&self) -> bool {
        self.class() == InstrClass::VectorMem
    }

    /// Whether this is vector floating point arithmetic.
    pub fn is_vector_fp(&self) -> bool {
        self.class() == InstrClass::VectorFp
    }

    /// Whether this is a scalar memory access.
    pub fn is_scalar_memory(&self) -> bool {
        self.class() == InstrClass::ScalarMem
    }

    /// The timing class indexing Table 1 of the paper, for vector
    /// instructions.
    pub fn timing_class(&self) -> Option<TimingClass> {
        use Instruction::*;
        Some(match self {
            VLoad { .. } => TimingClass::Load,
            VStore { .. } => TimingClass::Store,
            VAdd { .. } => TimingClass::Add,
            VSub { .. } => TimingClass::Sub,
            VMul { .. } => TimingClass::Mul,
            VDiv { .. } => TimingClass::Div,
            VNeg { .. } => TimingClass::Neg,
            VSum { .. } | VRAdd { .. } | VRSub { .. } => TimingClass::Reduction,
            _ => return None,
        })
    }

    /// Vector registers read by this instruction.
    pub fn vector_reads(&self) -> Vec<VReg> {
        self.vector_read_slots().into_iter().flatten().collect()
    }

    /// [`Instruction::vector_reads`] without an allocation: the read
    /// registers in order, then `None`s.
    fn vector_read_slots(&self) -> [Option<VReg>; 2] {
        use Instruction::*;
        match self {
            VStore { src, .. }
            | VNeg { src, .. }
            | VSum { src, .. }
            | VRAdd { src, .. }
            | VRSub { src, .. } => [Some(*src), None],
            VAdd { a, b, .. } | VSub { a, b, .. } | VMul { a, b, .. } | VDiv { a, b, .. } => {
                match (a.as_vreg(), b.as_vreg()) {
                    (None, b) => [b, None],
                    (a, b) => [a, b],
                }
            }
            _ => [None, None],
        }
    }

    /// The vector register written by this instruction, if any.
    pub fn vector_write(&self) -> Option<VReg> {
        use Instruction::*;
        match self {
            VLoad { dst, .. }
            | VAdd { dst, .. }
            | VSub { dst, .. }
            | VMul { dst, .. }
            | VDiv { dst, .. }
            | VNeg { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Read/write counts against each vector register *pair*, used to check
    /// the ≤2-reads/≤1-write chime constraint of §3.3.
    ///
    /// Returns `(reads, writes)` indexed by [`RegPair::index`](crate::RegPair::index).
    pub fn pair_usage(&self) -> ([u8; 4], [u8; 4]) {
        let mut reads = [0u8; 4];
        let mut writes = [0u8; 4];
        for r in self.vector_read_slots().into_iter().flatten() {
            reads[usize::from(r.pair().index())] += 1;
        }
        if let Some(w) = self.vector_write() {
            writes[usize::from(w.pair().index())] += 1;
        }
        (reads, writes)
    }

    /// Floating point operations per element as `(additions, multiplications)`,
    /// using the paper's accounting: add-class ops (including subtract,
    /// negate and reductions) count toward `f_a`; multiply-class ops
    /// (including divide) toward `f_m`.
    pub fn flops_per_element(&self) -> (u32, u32) {
        use Instruction::*;
        match self {
            VAdd { .. } | VSub { .. } | VNeg { .. } | VSum { .. } | VRAdd { .. } | VRSub { .. } => {
                (1, 0)
            }
            VMul { .. } | VDiv { .. } => (0, 1),
            _ => (0, 0),
        }
    }

    /// Branch/jump target label, if this is a control transfer.
    pub fn target(&self) -> Option<&str> {
        use Instruction::*;
        match self {
            BranchT { target } | BranchF { target } | Jump { target } => Some(target),
            _ => None,
        }
    }

    /// Whether this instruction falls through to the next one
    /// (false only for `jbr` and `halt`).
    pub fn falls_through(&self) -> bool {
        !matches!(self, Instruction::Jump { .. } | Instruction::Halt)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match self {
            VLoad { addr, dst } => write!(f, "ld.l {addr},{dst}"),
            VStore { src, addr } => write!(f, "st.l {src},{addr}"),
            VAdd { a, b, dst } => write!(f, "add.d {a},{b},{dst}"),
            VSub { a, b, dst } => write!(f, "sub.d {a},{b},{dst}"),
            VMul { a, b, dst } => write!(f, "mul.d {a},{b},{dst}"),
            VDiv { a, b, dst } => write!(f, "div.d {a},{b},{dst}"),
            VNeg { src, dst } => write!(f, "neg.d {src},{dst}"),
            VSum { src, dst } => write!(f, "sum.d {src},{dst}"),
            VRAdd { src, acc } => write!(f, "radd.d {src},{acc}"),
            VRSub { src, acc } => write!(f, "rsub.d {src},{acc}"),
            SetVl { src } => write!(f, "mov {src},vl"),
            SetVlImm { value } => write!(f, "mov #{value},vl"),
            SMovImm { value, dst } => write!(f, "mov {value},{dst}"),
            SMov { src, dst } => write!(f, "mov {src},{dst}"),
            SIntOp { op, src, dst } => write!(f, "{}.w {src},{dst}", op.mnemonic()),
            SFpOp { op, a, b, dst } => write!(f, "{}.s {a},{b},{dst}", op.mnemonic()),
            SLoad { addr, dst } => write!(f, "ld.w {addr},{dst}"),
            SStore { src, addr } => write!(f, "st.w {src},{addr}"),
            Cmp { op, lhs, rhs } => write!(f, "{}.w {lhs},{rhs}", op.mnemonic()),
            BranchT { target } => write!(f, "jbrs.t {target}"),
            BranchF { target } => write!(f, "jbrs.f {target}"),
            Jump { target } => write!(f, "jbr {target}"),
            Halt => write!(f, "halt"),
            Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u8) -> VReg {
        VReg::new(i).unwrap()
    }

    fn s(i: u8) -> SReg {
        SReg::new(i).unwrap()
    }

    fn a(i: u8) -> AReg {
        AReg::new(i).unwrap()
    }

    #[test]
    fn pipe_assignment_matches_paper() {
        let ld = Instruction::VLoad {
            addr: MemRef::new(a(5), 0),
            dst: v(0),
        };
        let st = Instruction::VStore {
            src: v(0),
            addr: MemRef::new(a(5), 0),
        };
        let add = Instruction::VAdd {
            a: v(0).into(),
            b: v(1).into(),
            dst: v(2),
        };
        let mul = Instruction::VMul {
            a: v(0).into(),
            b: v(1).into(),
            dst: v(2),
        };
        let div = Instruction::VDiv {
            a: v(0).into(),
            b: v(1).into(),
            dst: v(2),
        };
        assert_eq!(ld.pipe(), Some(Pipe::LoadStore));
        assert_eq!(st.pipe(), Some(Pipe::LoadStore));
        assert_eq!(add.pipe(), Some(Pipe::Add));
        assert_eq!(mul.pipe(), Some(Pipe::Multiply));
        assert_eq!(div.pipe(), Some(Pipe::Multiply));
    }

    #[test]
    fn scalar_ops_have_no_pipe() {
        let mov = Instruction::SMovImm {
            value: ScalarValue::Int(1),
            dst: s(0).into(),
        };
        assert_eq!(mov.pipe(), None);
        assert!(!mov.is_vector());
        assert_eq!(mov.class(), InstrClass::Scalar);
    }

    #[test]
    fn flop_accounting() {
        let add = Instruction::VAdd {
            a: v(0).into(),
            b: s(1).into(),
            dst: v(2),
        };
        let mul = Instruction::VMul {
            a: v(0).into(),
            b: v(1).into(),
            dst: v(2),
        };
        let sum = Instruction::VSum {
            src: v(0),
            dst: s(3),
        };
        assert_eq!(add.flops_per_element(), (1, 0));
        assert_eq!(mul.flops_per_element(), (0, 1));
        assert_eq!(sum.flops_per_element(), (1, 0));
    }

    #[test]
    fn reads_and_writes() {
        let mul = Instruction::VMul {
            a: v(6).into(),
            b: s(1).into(),
            dst: v(4),
        };
        assert_eq!(mul.vector_reads(), vec![v(6)]);
        assert_eq!(mul.vector_write(), Some(v(4)));
        let (reads, writes) = mul.pair_usage();
        assert_eq!(reads, [0, 0, 1, 0]); // v6 is in pair {v2,v6}
        assert_eq!(writes, [1, 0, 0, 0]); // v4 is in pair {v0,v4}
    }

    #[test]
    fn store_reads_but_does_not_write() {
        let st = Instruction::VStore {
            src: v(0),
            addr: MemRef::new(a(5), 24024),
        };
        assert_eq!(st.vector_reads(), vec![v(0)]);
        assert_eq!(st.vector_write(), None);
        assert!(st.is_vector_memory());
        assert!(!st.is_vector_fp());
    }

    #[test]
    fn display_paper_syntax() {
        let ld = Instruction::VLoad {
            addr: MemRef::new(a(5), 40120),
            dst: v(0),
        };
        assert_eq!(ld.to_string(), "ld.l 40120(a5),v0");
        let strided = Instruction::VLoad {
            addr: MemRef::new(a(2), 0).with_stride(5),
            dst: v(1),
        };
        assert_eq!(strided.to_string(), "ld.l 0(a2):5,v1");
        let mul = Instruction::VMul {
            a: v(0).into(),
            b: s(1).into(),
            dst: v(1),
        };
        assert_eq!(mul.to_string(), "mul.d v0,s1,v1");
        let br = Instruction::BranchT {
            target: "L7".into(),
        };
        assert_eq!(br.to_string(), "jbrs.t L7");
    }

    #[test]
    fn int_and_fp_op_semantics() {
        assert_eq!(IntOp::Add.apply(5, 3), 8);
        assert_eq!(IntOp::Sub.apply(5, 3), 2);
        assert_eq!(IntOp::Mul.apply(5, 3), 15);
        assert_eq!(IntOp::Shl.apply(1, 4), 16);
        assert_eq!(IntOp::Shr.apply(-16, 2), -4);
        assert_eq!(FpOp::Div.apply(1.0, 4.0), 0.25);
    }

    #[test]
    fn cmp_semantics() {
        assert!(CmpOp::Lt.apply(0, 5));
        assert!(!CmpOp::Lt.apply(5, 5));
        assert!(CmpOp::Le.apply(5, 5));
        assert!(CmpOp::Ne.apply(1, 2));
        assert!(CmpOp::Ge.apply(2, 2));
        assert!(CmpOp::Gt.apply(3, 2));
        assert!(CmpOp::Eq.apply(4, 4));
    }

    #[test]
    fn control_flow_queries() {
        let j = Instruction::Jump { target: "L".into() };
        assert_eq!(j.target(), Some("L"));
        assert!(!j.falls_through());
        assert!(!Instruction::Halt.falls_through());
        let b = Instruction::BranchF { target: "X".into() };
        assert!(b.falls_through());
        assert_eq!(b.class(), InstrClass::Control);
    }

    #[test]
    fn timing_classes() {
        let red = Instruction::VRAdd {
            src: v(0),
            acc: s(1),
        };
        assert_eq!(red.timing_class(), Some(TimingClass::Reduction));
        assert_eq!(red.pipe(), Some(Pipe::Add));
        let div = Instruction::VDiv {
            a: v(0).into(),
            b: v(1).into(),
            dst: v(2),
        };
        assert_eq!(div.timing_class(), Some(TimingClass::Div));
        assert_eq!(Instruction::Nop.timing_class(), None);
    }
}
