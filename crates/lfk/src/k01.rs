//! LFK 1 — hydro fragment.
//!
//! The paper's worked example (§3.5). The compiler reloads `ZX(k+11)`
//! even though perfect index analysis would reuse the previous
//! iteration's `ZX(k+10)` — the MA→MAC gap of one load per iteration.

use c240_isa::asm::assemble;
use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::{analyze_ma, load, param, Kernel, MaWorkload};

use crate::data::{compare, peek_slice, poke_slice, Fill, EXACT};
use crate::{CheckError, LfkKernel};

const N: usize = 1001;
const PASSES: i64 = 20;

/// Byte base the paper's listing calls `space1`.
const SPACE1: i64 = 4096;
const X_OFF: i64 = 24024;
const Y_OFF: i64 = 32032;
/// Byte offset of `ZX(k+10)` — the array itself starts 10 words lower.
const ZX10_OFF: i64 = 40120;

const X_WORD: u64 = ((SPACE1 + X_OFF) / 8) as u64;
const Y_WORD: u64 = ((SPACE1 + Y_OFF) / 8) as u64;
const ZX_WORD: u64 = ((SPACE1 + ZX10_OFF) / 8) as u64 - 10;

const Q: f64 = 1.5;
const R: f64 = 0.5;
const T: f64 = 0.25;

/// LFK 1.
pub struct Lfk1;

impl Lfk1 {
    fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut f = Fill::new(1);
        let y = f.vec(N);
        let zx = f.vec(N + 11);
        (y, zx)
    }

    fn reference(&self) -> Vec<f64> {
        let (y, zx) = self.inputs();
        (0..N)
            .map(|k| Q + y[k] * (R * zx[k + 10] + T * zx[k + 11]))
            .collect()
    }
}

impl LfkKernel for Lfk1 {
    fn id(&self) -> u32 {
        1
    }

    fn name(&self) -> &'static str {
        "hydro fragment"
    }

    fn fortran(&self) -> &'static str {
        "DO 1 k = 1,n\n1    X(k) = Q + Y(k)*(R*ZX(k+10) + T*ZX(k+11))"
    }

    fn flops(&self) -> (u32, u32) {
        (2, 3)
    }

    fn ma(&self) -> MaWorkload {
        analyze_ma(&self.ir().expect("LFK1 has an IR form"))
    }

    fn iterations(&self) -> u64 {
        PASSES as u64 * N as u64
    }

    fn passes(&self) -> i64 {
        PASSES
    }

    fn footprint_words(&self) -> u64 {
        // `ZX`, the highest array, holds `N + 11` words.
        ZX_WORD + (N + 11) as u64
    }

    fn program_with_passes(&self, passes: i64) -> Program {
        assert!(passes >= 1, "at least one pass");
        // The §3.5 listing, wrapped in the standard LFK repetition loop.
        assemble(&format!(
            "   mov #{passes},a0
            pass:
                mov #{SPACE1},a5
                mov #{N},s0
            L7:
                mov s0,vl
                ld.l {ZX10_OFF}(a5),v0      ; ZX(k+10)
                mul.d v0,s1,v1              ; R*ZX(k+10)
                ld.l {zx11}(a5),v2          ; ZX(k+11)
                mul.d v2,s3,v0              ; T*ZX(k+11)
                add.d v1,v0,v3
                ld.l {Y_OFF}(a5),v1         ; Y(k)
                mul.d v1,v3,v2
                add.d v2,s7,v0              ; + Q
                st.l v0,{X_OFF}(a5)         ; X(k)
                add.w #1024,a5
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L7
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t pass
                halt",
            zx11 = ZX10_OFF + 8,
        ))
        .expect("LFK1 assembly is valid")
    }

    fn setup(&self, cpu: &mut Cpu) {
        let (y, zx) = self.inputs();
        poke_slice(cpu, Y_WORD, &y);
        poke_slice(cpu, ZX_WORD, &zx);
        cpu.set_sreg_fp(1, R);
        cpu.set_sreg_fp(3, T);
        cpu.set_sreg_fp(7, Q);
    }

    fn check(&self, cpu: &Cpu) -> Result<(), CheckError> {
        let x = peek_slice(cpu, X_WORD, N);
        compare("X", &x, &self.reference(), EXACT)
    }

    fn ir(&self) -> Option<Kernel> {
        Some(
            Kernel::new("lfk1")
                .array("x", N as u64)
                .array("y", N as u64)
                .array("zx", (N + 11) as u64)
                .param("q", Q)
                .param("r", R)
                .param("t", T)
                .store(
                    "x",
                    0,
                    param("q")
                        + load("y", 0)
                            * (param("r") * load("zx", 10) + param("t") * load("zx", 11)),
                ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_sim::SimConfig;

    #[test]
    fn ma_counts_match_paper() {
        let ma = Lfk1.ma();
        assert_eq!((ma.f_a, ma.f_m, ma.loads, ma.stores), (2, 3, 2, 1));
        assert_eq!(ma.t_ma_cpl(), 3.0);
    }

    #[test]
    fn functional_check_passes() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk1.setup(&mut cpu);
        cpu.run(&Lfk1.program()).unwrap();
        Lfk1.check(&cpu).unwrap();
    }

    #[test]
    fn measured_cpf_is_near_paper() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk1.setup(&mut cpu);
        let stats = cpu.run(&Lfk1.program()).unwrap();
        let cpf = stats.cycles / Lfk1.iterations() as f64 / 5.0;
        // Paper: 0.852 CPF measured, 0.840 bound.
        assert!(
            (0.840..=0.88).contains(&cpf),
            "LFK1 measured {cpf} CPF (paper 0.852)"
        );
    }

    #[test]
    fn macs_bound_is_pinned() {
        // Paper Table 3/5: 4.20 CPL.
        use macs_core_shim::*;
        let b = bound_cpl(&Lfk1.program(), Lfk1.ma());
        assert!(
            (b - 4.1996).abs() < 0.003,
            "t_MACS = {b} CPL, expected 4.1996"
        );
    }

    /// lfk-suite cannot depend on macs-core (dependency direction), so
    /// the bound used for pinning is recomputed with the same published
    /// algorithm: chimes of `Z_max·VL + ΣB` with the cyclic ≥4-memory-run
    /// refresh factor. The authoritative implementation lives in
    /// macs-core and is cross-checked in the workspace integration tests.
    mod macs_core_shim {
        use c240_isa::{Instruction, Program, TimingClass};
        use macs_compiler::MaWorkload;

        pub fn bound_cpl(program: &Program, _ma: MaWorkload) -> f64 {
            let l = program.innermost_loop().expect("strip loop");
            let body = program.loop_body(l);
            partition_cpl(body)
        }

        fn timing(class: TimingClass) -> (f64, f64) {
            // (Z, B) from Table 1.
            match class {
                TimingClass::Load => (1.0, 2.0),
                TimingClass::Store => (1.0, 4.0),
                TimingClass::Mul => (1.0, 1.0),
                TimingClass::Div => (4.0, 21.0),
                TimingClass::Reduction => (1.35, 0.0),
                _ => (1.0, 1.0),
            }
        }

        #[allow(unused_assignments)] // the closing macro resets state once more at the end
        fn partition_cpl(body: &[Instruction]) -> f64 {
            const VL: f64 = 128.0;
            let mut chimes: Vec<(f64, f64, bool)> = Vec::new(); // (z_max, b_sum, has_mem)
            let mut pipes = [false; 3];
            let mut reads = [0u8; 4];
            let mut writes = [0u8; 4];
            let mut open = false;
            let mut z_max = 0.0f64;
            let mut b_sum = 0.0;
            let mut has_mem = false;
            let mut fence = false;
            macro_rules! close {
                () => {
                    if open {
                        chimes.push((z_max, b_sum, has_mem));
                        pipes = [false; 3];
                        reads = [0; 4];
                        writes = [0; 4];
                        z_max = 0.0;
                        b_sum = 0.0;
                        has_mem = false;
                        fence = false;
                        open = false;
                    }
                };
            }
            for ins in body {
                if ins.is_scalar_memory() {
                    if has_mem {
                        close!();
                    } else {
                        fence = true;
                    }
                    continue;
                }
                let Some(pipe) = ins.pipe() else { continue };
                let slot = match pipe {
                    c240_isa::Pipe::LoadStore => 0,
                    c240_isa::Pipe::Add => 1,
                    c240_isa::Pipe::Multiply => 2,
                };
                let (r, w) = ins.pair_usage();
                let pair_ok = (0..4).all(|p| reads[p] + r[p] <= 2 && writes[p] + w[p] <= 1);
                let fence_ok = !(ins.is_vector_memory() && fence);
                if pipes[slot] || !pair_ok || !fence_ok {
                    close!();
                }
                let (z, b) = timing(ins.timing_class().expect("vector"));
                pipes[slot] = true;
                for p in 0..4 {
                    reads[p] += r[p];
                    writes[p] += w[p];
                }
                z_max = z_max.max(z);
                b_sum += b;
                has_mem |= ins.is_vector_memory();
                open = true;
            }
            close!();
            // Cyclic refresh runs of >= 4 memory chimes (all-mem loops
            // wrap indefinitely).
            let n = chimes.len();
            let mem: Vec<bool> = chimes.iter().map(|c| c.2).collect();
            let mut scaled = vec![false; n];
            if mem.iter().all(|&m| m) {
                scaled = vec![true; n];
            } else if let Some(start) = mem.iter().position(|&m| !m) {
                let mut i = 0;
                while i < n {
                    let idx = (start + i) % n;
                    if !mem[idx] {
                        i += 1;
                        continue;
                    }
                    let mut len = 0;
                    while len < n && mem[(start + i + len) % n] {
                        len += 1;
                    }
                    if len >= 4 {
                        for k in 0..len {
                            scaled[(start + i + k) % n] = true;
                        }
                    }
                    i += len;
                }
            }
            let total: f64 = chimes
                .iter()
                .zip(&scaled)
                .map(|(&(z, b, _), &s)| {
                    let cost = z * VL + b;
                    if s {
                        cost * 1.02
                    } else {
                        cost
                    }
                })
                .sum();
            total / VL
        }
    }
}
