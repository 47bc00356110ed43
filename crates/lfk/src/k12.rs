//! LFK 12 — first difference.
//!
//! Like LFK1, the compiler reloads the shifted reuse stream: `Y(k+1)`
//! and `Y(k)` are one MA stream but two compiled loads, raising `t_m`
//! from 2 to 3 (Table 3) and CPF from 2.0 to 3.0.

use c240_isa::asm::assemble;
use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::{analyze_ma, load, Kernel, MaWorkload};

use crate::data::{compare, peek_slice, poke_slice, Fill, EXACT};
use crate::{CheckError, LfkKernel};

const N: usize = 1000;
const PASSES: i64 = 20;
const X_WORD: u64 = 4096;
const Y_WORD: u64 = 2048;

/// LFK 12.
pub struct Lfk12;

impl Lfk12 {
    fn inputs(&self) -> Vec<f64> {
        Fill::new(12).vec(N + 1)
    }

    fn reference(&self) -> Vec<f64> {
        let y = self.inputs();
        (0..N).map(|k| y[k + 1] - y[k]).collect()
    }
}

impl LfkKernel for Lfk12 {
    fn id(&self) -> u32 {
        12
    }

    fn name(&self) -> &'static str {
        "first difference"
    }

    fn fortran(&self) -> &'static str {
        "DO 12 k = 1,n\n12   X(k) = Y(k+1) - Y(k)"
    }

    fn flops(&self) -> (u32, u32) {
        (1, 0)
    }

    fn ma(&self) -> MaWorkload {
        analyze_ma(&self.ir().expect("LFK12 has an IR form"))
    }

    fn iterations(&self) -> u64 {
        PASSES as u64 * N as u64
    }

    fn passes(&self) -> i64 {
        PASSES
    }

    fn footprint_words(&self) -> u64 {
        // The output `X` lies above `Y`.
        X_WORD + N as u64
    }

    fn program_with_passes(&self, passes: i64) -> Program {
        assert!(passes >= 1, "at least one pass");
        assemble(&format!(
            "   mov #{passes},a0
            pass:
                mov #{x_byte},a1
                mov #{y_byte},a2
                mov #{N},s0
            L:
                mov s0,vl
                ld.l 8(a2),v0           ; Y(k+1)
                ld.l 0(a2),v1           ; Y(k)
                sub.d v0,v1,v2
                st.l v2,0(a1)           ; X(k)
                add.w #1024,a1
                add.w #1024,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t pass
                halt",
            x_byte = X_WORD * 8,
            y_byte = Y_WORD * 8,
        ))
        .expect("LFK12 assembly is valid")
    }

    fn setup(&self, cpu: &mut Cpu) {
        poke_slice(cpu, Y_WORD, &self.inputs());
    }

    fn check(&self, cpu: &Cpu) -> Result<(), CheckError> {
        let x = peek_slice(cpu, X_WORD, N);
        compare("X", &x, &self.reference(), EXACT)
    }

    fn ir(&self) -> Option<Kernel> {
        Some(
            Kernel::new("lfk12")
                .array("x", N as u64)
                .array("y", (N + 1) as u64)
                .store("x", 0, load("y", 1) - load("y", 0)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_sim::SimConfig;

    #[test]
    fn ma_counts_match_paper() {
        let ma = Lfk12.ma();
        assert_eq!((ma.f_a, ma.f_m, ma.loads, ma.stores), (1, 0, 1, 1));
        assert_eq!(ma.t_ma_cpf(), 2.0);
    }

    #[test]
    fn functional_check_passes() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk12.setup(&mut cpu);
        cpu.run(&Lfk12.program()).unwrap();
        Lfk12.check(&cpu).unwrap();
    }

    #[test]
    fn measured_cpf_is_near_paper() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk12.setup(&mut cpu);
        let stats = cpu.run(&Lfk12.program()).unwrap();
        let cpf = stats.cycles / Lfk12.iterations() as f64;
        // Paper: 3.182 CPF measured, 3.132 bound.
        assert!(
            (3.13..=3.30).contains(&cpf),
            "LFK12 measured {cpf} CPF (paper 3.182)"
        );
    }

    #[test]
    fn macs_bound_is_pinned() {
        // Paper Table 3/5: 3.13 CPL.
        let b = crate::macs_bound_cpl(&Lfk12);
        assert!(
            (b - 3.1317).abs() < 0.003,
            "t_MACS = {b} CPL, expected 3.1317"
        );
    }
}
