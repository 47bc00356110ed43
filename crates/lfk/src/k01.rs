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
        let b = crate::macs_bound_cpl(&Lfk1);
        assert!(
            (b - 4.1996).abs() < 0.003,
            "t_MACS = {b} CPL, expected 4.1996"
        );
    }
}
