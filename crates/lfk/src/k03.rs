//! LFK 3 — inner product.
//!
//! Compiled the way vectorizing compilers handle clean dot products:
//! elementwise partial sums accumulate into a vector register inside the
//! strip loop (no reduction instruction in the steady state), with one
//! `sum.d` in the epilogue. `t_MA = t_MAC = 2` CPL; the MACS bound adds
//! only bubbles and refresh (1.044 CPF, Table 4).

use c240_isa::asm::assemble;
use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::{analyze_ma, load, Kernel, MaWorkload};

use crate::data::{compare, poke_slice, Fill, REDUCED};
use crate::{CheckError, LfkKernel};

const N: usize = 1001;
const PASSES: i64 = 20;
const Z_WORD: u64 = 2048;
const X_WORD: u64 = 4096;
const Q0: f64 = 0.5;

/// LFK 3.
pub struct Lfk3;

impl Lfk3 {
    fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut f = Fill::new(3);
        let z = f.vec(N);
        let x = f.vec(N);
        (z, x)
    }

    fn reference(&self) -> f64 {
        let (z, x) = self.inputs();
        let dot: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        Q0 + PASSES as f64 * dot
    }
}

impl LfkKernel for Lfk3 {
    fn id(&self) -> u32 {
        3
    }

    fn name(&self) -> &'static str {
        "inner product"
    }

    fn fortran(&self) -> &'static str {
        "DO 3 k = 1,n\n3    Q = Q + Z(k)*X(k)"
    }

    fn flops(&self) -> (u32, u32) {
        (1, 1)
    }

    fn ma(&self) -> MaWorkload {
        analyze_ma(&self.ir().expect("LFK3 has an IR form"))
    }

    fn iterations(&self) -> u64 {
        PASSES as u64 * N as u64
    }

    fn passes(&self) -> i64 {
        PASSES
    }

    fn footprint_words(&self) -> u64 {
        // `X` lies above `Z`.
        X_WORD + N as u64
    }

    fn program_with_passes(&self, passes: i64) -> Program {
        assert!(passes >= 1, "at least one pass");
        assemble(&format!(
            "   mov #{passes},a0
                sub.d v7,v7,v7          ; zero the partial-sum register
            pass:
                mov #{z_byte},a1
                mov #{x_byte},a2
                mov #{N},s0
            L:
                mov s0,vl
                ld.l 0(a1),v0           ; Z(k)
                ld.l 0(a2),v1           ; X(k)
                mul.d v0,v1,v2
                add.d v7,v2,v7          ; elementwise partial sums
                add.w #1024,a1
                add.w #1024,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t pass
                mov #128,vl
                sum.d v7,s2
                add.s s7,s2,s7          ; Q = Q0 + total
                halt",
            z_byte = Z_WORD * 8,
            x_byte = X_WORD * 8,
        ))
        .expect("LFK3 assembly is valid")
    }

    fn setup(&self, cpu: &mut Cpu) {
        let (z, x) = self.inputs();
        poke_slice(cpu, Z_WORD, &z);
        poke_slice(cpu, X_WORD, &x);
        cpu.set_sreg_fp(7, Q0);
    }

    fn check(&self, cpu: &Cpu) -> Result<(), CheckError> {
        compare("Q", &[cpu.sreg_fp(7)], &[self.reference()], REDUCED)
    }

    fn ir(&self) -> Option<Kernel> {
        Some(
            Kernel::new("lfk3")
                .array("z", N as u64)
                .array("x", N as u64)
                .param("q", Q0)
                .reduce("q", false, load("z", 0) * load("x", 0)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_sim::SimConfig;

    #[test]
    fn ma_counts_match_paper() {
        let ma = Lfk3.ma();
        assert_eq!((ma.f_a, ma.f_m, ma.loads, ma.stores), (1, 1, 2, 0));
        assert_eq!(ma.t_ma_cpf(), 1.0);
    }

    #[test]
    fn functional_check_passes() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk3.setup(&mut cpu);
        cpu.run(&Lfk3.program()).unwrap();
        Lfk3.check(&cpu).unwrap();
    }

    #[test]
    fn measured_cpf_is_near_paper() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk3.setup(&mut cpu);
        let stats = cpu.run(&Lfk3.program()).unwrap();
        let cpf = stats.cycles / Lfk3.iterations() as f64 / 2.0;
        // Paper: 1.128 CPF measured, 1.044 bound.
        assert!(
            (1.044..=1.16).contains(&cpf),
            "LFK3 measured {cpf} CPF (paper 1.128)"
        );
    }

    #[test]
    fn macs_bound_is_pinned() {
        // Paper Table 3/5: 2.09 (paper prints 2.08/2.09) CPL.
        let b = crate::macs_bound_cpl(&Lfk3);
        assert!(
            (b - 2.0878).abs() < 0.003,
            "t_MACS = {b} CPL, expected 2.0878"
        );
    }
}
