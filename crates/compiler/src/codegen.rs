//! The vectorizing code generator: kernel IR → strip-mined C-240
//! assembly (the "C" and "S" of the MACS model).
//!
//! The generator strip-mines the inner loop by the hardware vector length
//! (128), maps each stream reference to a vector load/store, evaluates
//! the expression DAG on the three vector pipes, and emits scalar strip
//! bookkeeping. Like the paper's `fc` compiler, it performs **no**
//! cross-iteration reuse (every stream reference is re-loaded each strip,
//! the source of the MA → MAC gap), and its instruction order — the
//! schedule "S" — is selectable via [`ScheduleStrategy`].
//!
//! The generator writes its output as a listing in the paper's notation
//! (the notation of the curated LFK kernels) and hands it to
//! [`assemble`], so a compiled kernel is an ordinary listing that the
//! assembler checks like any other.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use c240_isa::asm::assemble;
use c240_isa::{MemRef, Program, ScalarValue};

use crate::analysis::analyze_ma;
use crate::error::CompileError;
use crate::expr::{BinOp, Expr, StreamRef};
use crate::kernel::{Kernel, Stmt};
use crate::layout::Layout;
use crate::MaWorkload;

/// Instruction-ordering strategy — the "S" knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleStrategy {
    /// Loads are emitted at first use, interleaving memory and arithmetic
    /// so chimes chain a load with its consumers (the schedule the
    /// paper's compiler produces for well-behaved kernels).
    #[default]
    Interleaved,
    /// All loads of a statement are emitted before any arithmetic — a
    /// naive vectorizer schedule that produces memory-only chimes
    /// followed by arithmetic-only chimes and a worse MACS bound.
    LoadsFirst,
}

/// How scalar reductions are vectorized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionStyle {
    /// Accumulate elementwise into a vector register inside the loop and
    /// reduce once in the epilogue (how LFK3's dot product compiles —
    /// no `Z = 1.35` penalty in the steady state).
    #[default]
    Elementwise,
    /// Reduce into the scalar accumulator every strip with a vector
    /// reduction instruction (`Z = 1.35` per strip — how the reduction
    /// kernels LFK4/LFK6 behave).
    PerStrip,
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileOptions {
    /// Instruction ordering.
    pub schedule: ScheduleStrategy,
    /// Reduction vectorization style.
    pub reduction: ReductionStyle,
}

/// A compiled kernel: the program plus everything needed to run and
/// interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// The generated program (prologue, strip loop, epilogue, `halt`).
    pub program: Program,
    /// Array placement in memory.
    pub layout: Layout,
    /// Source iterations the program executes.
    pub iterations: u64,
    /// For each reduction accumulator: the scalar register index holding
    /// its final value after the run.
    pub reduction_regs: BTreeMap<String, u8>,
    /// Arrays whose base pointers live in memory (more arrays than
    /// address registers) and are reloaded each strip — scalar memory
    /// traffic that splits chimes.
    pub spilled_arrays: Vec<String>,
    /// The MA workload of the source kernel (for CPF conversions).
    pub ma: MaWorkload,
}

/// Operand produced by expression emission.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    /// Scalar register (broadcast).
    S(u8),
    /// Vector register owned by the expression (freeable).
    Temp(u8),
    /// Vector register pinned for the statement (cached load or
    /// accumulator).
    Pinned(u8),
}

impl Operand {
    fn is_vector(self) -> bool {
        !matches!(self, Operand::S(_))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::S(i) => write!(f, "s{i}"),
            Operand::Temp(i) | Operand::Pinned(i) => write!(f, "v{i}"),
        }
    }
}

/// Appends one indented instruction line to the listing (writing to a
/// `String` cannot fail).
macro_rules! emit {
    ($cg:expr, $($instr:tt)+) => {{
        $cg.listing.push_str("    ");
        let _ = writeln!($cg.listing, $($instr)+);
    }};
}

struct VAlloc {
    free: Vec<u8>,
}

impl VAlloc {
    fn new(reserved: &[u8]) -> Self {
        VAlloc {
            free: (0..8u8).rev().filter(|r| !reserved.contains(r)).collect(),
        }
    }

    fn alloc(&mut self) -> Result<u8, CompileError> {
        self.free.pop().ok_or(CompileError::VectorRegisterPressure)
    }

    fn release(&mut self, op: Operand) {
        if let Operand::Temp(r) = op {
            self.free.push(r);
        }
    }
}

struct Codegen<'k> {
    kernel: &'k Kernel,
    options: CompileOptions,
    layout: Layout,
    listing: String,
    sregs: BTreeMap<ScalarKey, u8>,
    aregs: BTreeMap<String, u8>,
    spilled: BTreeMap<String, u64>, // array -> pointer-table word offset
    array_step: BTreeMap<String, i64>,
    acc_vregs: BTreeMap<String, u8>,
    valloc: VAlloc,
    load_cache: BTreeMap<(String, i64, i64), u8>,
    ref_counts: BTreeMap<(String, i64, i64), usize>,
    temp_sreg: Option<u8>,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ScalarKey {
    Param(String),
    Const(u64), // f64 bits
}

/// Compiles `kernel` to a strip-mined vector program executing
/// `iterations` source iterations.
///
/// # Errors
///
/// See [`CompileError`] — undeclared names, register pressure, negative
/// offsets, inconsistent strides, or array overruns.
///
/// # Example
///
/// ```
/// use macs_compiler::{compile, CompileOptions, Kernel, load, param};
///
/// let triad = Kernel::new("triad")
///     .array("x", 1000).array("y", 1000).array("z", 1000)
///     .param("a", 3.0)
///     .store("x", 0, load("y", 0) + param("a") * load("z", 0));
/// let compiled = compile(&triad, 1000, CompileOptions::default())?;
/// assert!(compiled.program.innermost_loop().is_some());
/// # Ok::<(), macs_compiler::CompileError>(())
/// ```
pub fn compile(
    kernel: &Kernel,
    iterations: u64,
    options: CompileOptions,
) -> Result<CompiledKernel, CompileError> {
    if kernel.body().is_empty() {
        return Err(CompileError::EmptyBody);
    }
    validate(kernel, iterations)?;
    let accumulators = kernel.accumulators();
    // Fold loop-invariant scalar subtrees using the kernel's parameter
    // values (accumulators excluded — they change at runtime).
    let body = kernel.folded_body();

    let layout = Layout::for_kernel(kernel);
    let mut cg = Codegen {
        kernel,
        options,
        layout,
        listing: String::new(),
        sregs: BTreeMap::new(),
        aregs: BTreeMap::new(),
        spilled: BTreeMap::new(),
        array_step: BTreeMap::new(),
        acc_vregs: BTreeMap::new(),
        valloc: VAlloc::new(&[]),
        load_cache: BTreeMap::new(),
        ref_counts: BTreeMap::new(),
        temp_sreg: None,
    };
    cg.assign_scalars(&body, &accumulators)?;
    cg.assign_arrays(&body)?;
    cg.assign_accumulators(&accumulators)?;
    cg.emit(&body, iterations)?;
    let program = assemble(&cg.listing).expect("generated listing assembles");
    let reduction_regs = accumulators
        .iter()
        .map(|a| (a.clone(), cg.sregs[&ScalarKey::Param(a.clone())]))
        .collect();
    Ok(CompiledKernel {
        program,
        layout: cg.layout,
        iterations,
        reduction_regs,
        spilled_arrays: cg.spilled.keys().cloned().collect(),
        ma: analyze_ma(kernel),
    })
}

fn validate(kernel: &Kernel, iterations: u64) -> Result<(), CompileError> {
    let declared: BTreeMap<&str, u64> = kernel
        .arrays()
        .iter()
        .map(|a| (a.name.as_str(), a.len))
        .collect();
    let mut refs: Vec<StreamRef> = Vec::new();
    for stmt in kernel.body() {
        stmt.value().collect_loads(&mut refs);
        if let Stmt::Store { target, .. } = stmt {
            refs.push(target.clone());
        }
        if let Stmt::Reduce { acc, .. } = stmt {
            if !kernel.params().contains_key(acc) {
                return Err(CompileError::UnknownParam(acc.clone()));
            }
        }
        check_params(stmt.value(), kernel)?;
    }
    for r in &refs {
        let Some(&len) = declared.get(r.array.as_str()) else {
            return Err(CompileError::UnknownArray(r.array.clone()));
        };
        let step = r.resolved_step(kernel.loop_step());
        if step < 1 {
            return Err(CompileError::MixedSteps(r.array.clone()));
        }
        if r.offset < 0 {
            return Err(CompileError::NegativeOffset(r.array.clone()));
        }
        let needed = (iterations.saturating_sub(1)) * step as u64 + r.offset as u64 + 1;
        if needed > len {
            return Err(CompileError::ArrayOverrun {
                array: r.array.clone(),
                needed,
                declared: len,
            });
        }
    }
    Ok(())
}

fn check_params(e: &Expr, kernel: &Kernel) -> Result<(), CompileError> {
    match e {
        Expr::Param(p) => {
            if kernel.params().contains_key(p) {
                Ok(())
            } else {
                Err(CompileError::UnknownParam(p.clone()))
            }
        }
        Expr::Bin(_, a, b) => {
            check_params(a, kernel)?;
            check_params(b, kernel)
        }
        Expr::Neg(x) => check_params(x, kernel),
        Expr::Load(_) | Expr::Const(_) => Ok(()),
    }
}

impl Codegen<'_> {
    fn assign_scalars(&mut self, body: &[Stmt], accs: &[String]) -> Result<(), CompileError> {
        // s0 is the strip counter; the rest hold parameters/constants.
        let mut keys: Vec<ScalarKey> = Vec::new();
        for stmt in body {
            collect_scalars(stmt.value(), &mut keys);
        }
        for acc in accs {
            let k = ScalarKey::Param(acc.clone());
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let needs_temp =
            !accs.is_empty() && matches!(self.options.reduction, ReductionStyle::Elementwise);
        let available = 7 - usize::from(needs_temp);
        if keys.len() > available {
            return Err(CompileError::ScalarRegisterPressure {
                needed: keys.len() + 1 + usize::from(needs_temp),
                available: 8,
            });
        }
        for (i, k) in keys.iter().enumerate() {
            self.sregs.insert(k.clone(), (i + 1) as u8);
        }
        if needs_temp {
            self.temp_sreg = Some((keys.len() + 1) as u8);
        }
        Ok(())
    }

    fn assign_arrays(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        let mut refs: Vec<StreamRef> = Vec::new();
        for stmt in body {
            stmt.value().collect_loads(&mut refs);
            if let Stmt::Store { target, .. } = stmt {
                refs.push(target.clone());
            }
        }
        let mut order: Vec<String> = Vec::new();
        for r in &refs {
            let step = r.resolved_step(self.kernel.loop_step());
            match self.array_step.get(&r.array) {
                Some(&s) if s != step => return Err(CompileError::MixedSteps(r.array.clone())),
                Some(_) => {}
                None => {
                    self.array_step.insert(r.array.clone(), step);
                    order.push(r.array.clone());
                }
            }
        }
        // a0 holds zero (pointer-table base), a7 is the spill scratch;
        // a1..a6 hold array bases.
        for (i, name) in order.iter().enumerate() {
            if i < 6 {
                self.aregs.insert(name.clone(), (i + 1) as u8);
            } else {
                let slot = Layout::POINTER_TABLE + (i - 6) as u64;
                self.spilled.insert(name.clone(), slot);
            }
        }
        Ok(())
    }

    fn assign_accumulators(&mut self, accs: &[String]) -> Result<(), CompileError> {
        if matches!(self.options.reduction, ReductionStyle::PerStrip) {
            return Ok(());
        }
        let mut reserved = Vec::new();
        for acc in accs {
            if reserved.len() >= 8 {
                return Err(CompileError::VectorRegisterPressure);
            }
            let r = reserved.len() as u8;
            self.acc_vregs.insert(acc.clone(), r);
            reserved.push(r);
        }
        self.valloc = VAlloc::new(&reserved);
        Ok(())
    }

    fn sreg_of(&self, key: &ScalarKey) -> u8 {
        self.sregs[key]
    }

    fn emit(&mut self, body: &[Stmt], iterations: u64) -> Result<(), CompileError> {
        self.emit_prologue(iterations);
        self.listing.push_str("strip:\n");
        emit!(self, "mov s0,vl");
        for stmt in body {
            self.emit_stmt(stmt)?;
            // Return cached-load registers to the pool.
            for (_, reg) in std::mem::take(&mut self.load_cache) {
                self.valloc.free.push(reg);
            }
        }
        self.emit_strip_bookkeeping();
        emit!(self, "lt.w #0,s0");
        emit!(self, "jbrs.t strip");
        self.emit_epilogue(body);
        emit!(self, "halt");
        Ok(())
    }

    fn emit_prologue(&mut self, iterations: u64) {
        emit!(self, "mov #{},s0", iterations as i64);
        for (key, reg) in &self.sregs {
            let value = match key {
                ScalarKey::Param(p) => self.kernel.params()[p],
                ScalarKey::Const(bits) => f64::from_bits(*bits),
            };
            emit!(self, "mov {},s{reg}", ScalarValue::Fp(value));
        }
        emit!(self, "mov #0,a0");
        for (name, reg) in &self.aregs {
            let base = self.layout.base_byte(name).expect("declared array");
            emit!(self, "mov #{base},a{reg}");
        }
        for (name, slot) in &self.spilled {
            let base = self.layout.base_byte(name).expect("declared array");
            emit!(self, "mov #{base},a7");
            emit!(self, "st.w a7,{}(a0)", slot * c240_isa::WORD_BYTES);
        }
        // Zero the elementwise accumulators.
        for r in self.acc_vregs.values() {
            emit!(self, "sub.d v{r},v{r},v{r}");
        }
    }

    fn emit_strip_bookkeeping(&mut self) {
        for (name, reg) in &self.aregs {
            let advance = 128 * self.array_step[name] * c240_isa::WORD_BYTES as i64;
            emit!(self, "add.w #{advance},a{reg}");
        }
        for (name, slot) in &self.spilled {
            let advance = 128 * self.array_step[name] * c240_isa::WORD_BYTES as i64;
            let off = slot * c240_isa::WORD_BYTES;
            emit!(self, "ld.w {off}(a0),a7");
            emit!(self, "add.w #{advance},a7");
            emit!(self, "st.w a7,{off}(a0)");
        }
        emit!(self, "sub.w #128,s0");
    }

    fn emit_epilogue(&mut self, body: &[Stmt]) {
        if !matches!(self.options.reduction, ReductionStyle::Elementwise) {
            return;
        }
        if self.acc_vregs.is_empty() {
            return;
        }
        // The strip loop leaves VL at the final (possibly short) strip
        // length; the lane reduction must cover the whole register.
        emit!(self, "mov #{},vl", c240_isa::MAX_VL);
        let temp = self.temp_sreg;
        for stmt in body {
            if let Stmt::Reduce { acc, .. } = stmt {
                let vacc = self.acc_vregs[acc];
                let sacc = self.sreg_of(&ScalarKey::Param(acc.clone()));
                let st = temp.expect("temp sreg reserved for reductions");
                emit!(self, "sum.d v{vacc},s{st}");
                // The lanes already carry the sign (subtract reductions
                // accumulated negated values), so the merge is an add.
                emit!(self, "add.s s{sacc},s{st},s{sacc}");
            }
        }
    }

    fn emit_stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        let mut refs = Vec::new();
        stmt.value().collect_loads(&mut refs);
        self.ref_counts.clear();
        for r in &refs {
            let step = r.resolved_step(self.kernel.loop_step());
            *self
                .ref_counts
                .entry((r.array.clone(), r.offset, step))
                .or_insert(0) += 1;
        }
        if matches!(self.options.schedule, ScheduleStrategy::LoadsFirst) {
            for r in &refs {
                self.emit_load_cached(r)?;
            }
        }
        match stmt {
            Stmt::Store { target, value } => {
                let op = self.emit_expr(value)?;
                if !op.is_vector() {
                    return Err(CompileError::ScalarStore);
                }
                let addr = self.stream_address(target);
                emit!(self, "st.l {op},{addr}");
                self.valloc.release(op);
            }
            Stmt::Reduce {
                acc,
                subtract,
                value,
            } => {
                let op = self.emit_expr(value)?;
                if !op.is_vector() {
                    return Err(CompileError::ScalarStore);
                }
                match self.options.reduction {
                    ReductionStyle::Elementwise => {
                        let vacc = self.acc_vregs[acc];
                        let mnemonic = if *subtract { "sub.d" } else { "add.d" };
                        emit!(self, "{mnemonic} v{vacc},{op},v{vacc}");
                    }
                    ReductionStyle::PerStrip => {
                        let sacc = self.sreg_of(&ScalarKey::Param(acc.clone()));
                        let mnemonic = if *subtract { "rsub.d" } else { "radd.d" };
                        emit!(self, "{mnemonic} {op},s{sacc}");
                    }
                }
                self.valloc.release(op);
            }
        }
        Ok(())
    }

    /// The memory operand addressing a stream, reloading the base into
    /// `a7` from the pointer table when the array has no address register.
    fn stream_address(&mut self, r: &StreamRef) -> MemRef {
        let reg = match self.aregs.get(&r.array) {
            Some(&reg) => reg,
            None => {
                let slot = self.spilled[&r.array];
                emit!(self, "ld.w {}(a0),a7", slot * c240_isa::WORD_BYTES);
                7
            }
        };
        let base = c240_isa::AReg::new(reg).expect("a0..a7");
        let step = r.resolved_step(self.kernel.loop_step());
        MemRef::new(base, r.offset * c240_isa::WORD_BYTES as i64).with_stride(step)
    }

    fn emit_load_cached(&mut self, r: &StreamRef) -> Result<u8, CompileError> {
        let step = r.resolved_step(self.kernel.loop_step());
        let key = (r.array.clone(), r.offset, step);
        if let Some(&reg) = self.load_cache.get(&key) {
            return Ok(reg);
        }
        let reg = self.valloc.alloc()?;
        let addr = self.stream_address(r);
        emit!(self, "ld.l {addr},v{reg}");
        self.load_cache.insert(key, reg);
        Ok(reg)
    }

    /// Emits (or reuses) the load for a stream reference. References used
    /// more than once in the statement — and everything under the
    /// loads-first schedule — are cached for the statement; single-use
    /// references are freeable temporaries.
    fn emit_load_operand(&mut self, r: &StreamRef) -> Result<Operand, CompileError> {
        let step = r.resolved_step(self.kernel.loop_step());
        let key = (r.array.clone(), r.offset, step);
        let shared = matches!(self.options.schedule, ScheduleStrategy::LoadsFirst)
            || self.ref_counts.get(&key).copied().unwrap_or(0) > 1;
        if shared {
            return Ok(Operand::Pinned(self.emit_load_cached(r)?));
        }
        let reg = self.valloc.alloc()?;
        let addr = self.stream_address(r);
        emit!(self, "ld.l {addr},v{reg}");
        Ok(Operand::Temp(reg))
    }

    fn emit_expr(&mut self, e: &Expr) -> Result<Operand, CompileError> {
        match e {
            Expr::Load(r) => self.emit_load_operand(r),
            Expr::Param(p) => {
                if let Some(&v) = self.acc_vregs.get(p) {
                    // An accumulator referenced in an expression reads the
                    // running elementwise partial — unusual, but defined.
                    return Ok(Operand::Pinned(v));
                }
                Ok(Operand::S(self.sreg_of(&ScalarKey::Param(p.clone()))))
            }
            Expr::Const(c) => Ok(Operand::S(self.sreg_of(&ScalarKey::Const(c.to_bits())))),
            Expr::Neg(x) => {
                let op = self.emit_expr(x)?;
                if !op.is_vector() {
                    return Err(CompileError::ScalarStore);
                }
                let dst = match op {
                    Operand::Temp(r) => r,
                    _ => self.valloc.alloc()?,
                };
                emit!(self, "neg.d {op},v{dst}");
                Ok(Operand::Temp(dst))
            }
            Expr::Bin(op, a, b) => {
                let oa = self.emit_expr(a)?;
                let ob = self.emit_expr(b)?;
                if !oa.is_vector() && !ob.is_vector() {
                    return Err(CompileError::ScalarStore);
                }
                let dst = match (oa, ob) {
                    (Operand::Temp(r), other) => {
                        self.valloc.release(other);
                        r
                    }
                    (_, Operand::Temp(r)) => r,
                    _ => self.valloc.alloc()?,
                };
                let mnemonic = match op {
                    BinOp::Add => "add.d",
                    BinOp::Sub => "sub.d",
                    BinOp::Mul => "mul.d",
                    BinOp::Div => "div.d",
                };
                emit!(self, "{mnemonic} {oa},{ob},v{dst}");
                Ok(Operand::Temp(dst))
            }
        }
    }
}

fn collect_scalars(e: &Expr, out: &mut Vec<ScalarKey>) {
    match e {
        Expr::Param(p) => {
            let k = ScalarKey::Param(p.clone());
            if !out.contains(&k) {
                out.push(k);
            }
        }
        Expr::Const(c) => {
            let k = ScalarKey::Const(c.to_bits());
            if !out.contains(&k) {
                out.push(k);
            }
        }
        Expr::Bin(_, a, b) => {
            collect_scalars(a, out);
            collect_scalars(b, out);
        }
        Expr::Neg(x) => collect_scalars(x, out),
        Expr::Load(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{con, load, load_strided, param};
    use c240_isa::InstrClass;

    fn triad() -> Kernel {
        Kernel::new("triad")
            .array("x", 2000)
            .array("y", 2000)
            .array("z", 2000)
            .param("a", 3.0)
            .store("x", 0, load("y", 0) + param("a") * load("z", 0))
    }

    fn count_class(p: &Program, class: InstrClass) -> usize {
        let l = p.innermost_loop().unwrap();
        p.loop_body(l).iter().filter(|i| i.class() == class).count()
    }

    #[test]
    fn triad_compiles_to_expected_shape() {
        let c = compile(&triad(), 1000, CompileOptions::default()).unwrap();
        // Loop body: 2 loads + 1 store, 1 mul + 1 add.
        assert_eq!(count_class(&c.program, InstrClass::VectorMem), 3);
        assert_eq!(count_class(&c.program, InstrClass::VectorFp), 2);
        assert!(c.spilled_arrays.is_empty());
        assert_eq!(c.ma.t_ma_cpl(), 3.0);
    }

    #[test]
    fn loads_first_schedule_reorders() {
        let c = compile(
            &triad(),
            1000,
            CompileOptions {
                schedule: ScheduleStrategy::LoadsFirst,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let l = c.program.innermost_loop().unwrap();
        let body = c.program.loop_body(l);
        let classes: Vec<_> = body
            .iter()
            .filter(|i| i.is_vector())
            .map(|i| i.class())
            .collect();
        // Both loads precede all arithmetic.
        assert_eq!(classes[0], InstrClass::VectorMem);
        assert_eq!(classes[1], InstrClass::VectorMem);
        assert_eq!(classes[2], InstrClass::VectorFp);
    }

    #[test]
    fn duplicate_loads_are_cached_within_a_statement() {
        let k = Kernel::new("sq").array("a", 2000).array("o", 2000).store(
            "o",
            0,
            load("a", 0) * load("a", 0),
        );
        let c = compile(&k, 1000, CompileOptions::default()).unwrap();
        assert_eq!(count_class(&c.program, InstrClass::VectorMem), 2); // 1 ld + 1 st
    }

    #[test]
    fn distinct_offsets_reload_like_fc() {
        // The MAC gap: zx(k+10) and zx(k+11) are separate loads even
        // though MA counts them once.
        let k = Kernel::new("lfk1ish")
            .array("x", 2000)
            .array("zx", 2100)
            .store("x", 0, load("zx", 10) + load("zx", 11));
        let c = compile(&k, 1000, CompileOptions::default()).unwrap();
        assert_eq!(count_class(&c.program, InstrClass::VectorMem), 3);
        assert_eq!(c.ma.loads, 1);
    }

    #[test]
    fn invariant_subtrees_fold() {
        let k = Kernel::new("f")
            .array("a", 2000)
            .array("o", 2000)
            .param("p", 2.0)
            .store("o", 0, (param("p") * con(3.0) + con(1.0)) * load("a", 0));
        let c = compile(&k, 100, CompileOptions::default()).unwrap();
        // Only one vector multiply; the scalar subtree became a constant.
        assert_eq!(count_class(&c.program, InstrClass::VectorFp), 1);
    }

    #[test]
    fn reduction_styles_differ() {
        let dot = Kernel::new("dot")
            .array("x", 2000)
            .array("z", 2000)
            .param("q", 0.0)
            .reduce("q", false, load("z", 0) * load("x", 0));
        let ew = compile(&dot, 1000, CompileOptions::default()).unwrap();
        let ps = compile(
            &dot,
            1000,
            CompileOptions {
                reduction: ReductionStyle::PerStrip,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let has_reduction_in_loop = |c: &CompiledKernel| {
            let l = c.program.innermost_loop().unwrap();
            c.program.loop_body(l).iter().any(|i| {
                matches!(
                    i,
                    c240_isa::Instruction::VRAdd { .. } | c240_isa::Instruction::VRSub { .. }
                )
            })
        };
        assert!(!has_reduction_in_loop(&ew));
        assert!(has_reduction_in_loop(&ps));
        assert_eq!(ew.reduction_regs.len(), 1);
    }

    #[test]
    fn many_arrays_spill_base_pointers() {
        let mut k = Kernel::new("many").array("o", 2000);
        let mut expr = load("a0arr", 0);
        k = k.array("a0arr", 2000);
        for i in 1..8 {
            let name = format!("a{i}arr");
            k = k.array(&name, 2000);
            expr = expr + load(&name, 0);
        }
        let k = k.store("o", 0, expr);
        let c = compile(&k, 1000, CompileOptions::default()).unwrap();
        assert!(!c.spilled_arrays.is_empty());
        // Spilled arrays produce scalar memory traffic in the loop.
        assert!(count_class(&c.program, InstrClass::ScalarMem) > 0);
    }

    #[test]
    fn error_cases() {
        let bad_array = Kernel::new("e1").store("o", 0, con(1.0) + load("a", 0));
        assert!(matches!(
            compile(&bad_array, 10, CompileOptions::default()),
            Err(CompileError::UnknownArray(_) | CompileError::ScalarStore)
        ));

        let bad_param = Kernel::new("e2").array("a", 100).array("o", 100).store(
            "o",
            0,
            param("zz") * load("a", 0),
        );
        assert!(matches!(
            compile(&bad_param, 10, CompileOptions::default()),
            Err(CompileError::UnknownParam(p)) if p == "zz"
        ));

        let empty = Kernel::new("e3");
        assert_eq!(
            compile(&empty, 10, CompileOptions::default()),
            Err(CompileError::EmptyBody)
        );

        let overrun = Kernel::new("e4")
            .array("a", 50)
            .array("o", 100)
            .store("o", 0, load("a", 0));
        assert!(matches!(
            compile(&overrun, 100, CompileOptions::default()),
            Err(CompileError::ArrayOverrun { .. })
        ));

        let negative =
            Kernel::new("e5")
                .array("a", 100)
                .array("o", 100)
                .store("o", 0, load("a", -1));
        assert!(matches!(
            compile(&negative, 10, CompileOptions::default()),
            Err(CompileError::NegativeOffset(_))
        ));

        let mixed = Kernel::new("e6").array("a", 5000).array("o", 100).store(
            "o",
            0,
            load("a", 0) + load_strided("a", 0, 3),
        );
        assert!(matches!(
            compile(&mixed, 10, CompileOptions::default()),
            Err(CompileError::MixedSteps(_))
        ));
    }

    #[test]
    fn strided_kernel_compiles_with_strided_access() {
        let k = Kernel::new("s").array("px", 30000).array("o", 2000).store(
            "o",
            0,
            load_strided("px", 4, 25) + load_strided("px", 5, 25),
        );
        let c = compile(&k, 1000, CompileOptions::default()).unwrap();
        let l = c.program.innermost_loop().unwrap();
        let strided = c.program.loop_body(l).iter().any(
            |i| matches!(i, c240_isa::Instruction::VLoad { addr, .. } if addr.stride.words() == 25),
        );
        assert!(strided);
    }
}
