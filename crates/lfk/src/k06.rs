//! LFK 6 — general linear recurrence equations.
//!
//! A triangular recurrence: row `i` reduces `i` products of `B(k,i)·W(k)`
//! into `W(i)`. The inner loop has the same two-load / multiply /
//! accumulate shape as LFK 4 (same bounds: `t_MA = t_MAC = 2` CPL,
//! `t_MACS ≈ 2.44`), but the vector length ramps 1…63, so startup and
//! per-row scalar work dominate the measurement — the paper explains
//! only 46% of it (§4.4).

use c240_isa::asm::assemble;
use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::MaWorkload;

use crate::data::{compare, Fill, REDUCED};
use crate::{CheckError, LfkKernel};

const N: usize = 64;
const PASSES: i64 = 30;
const W_WORD: u64 = 2048;
const B_WORD: u64 = 4096;

/// LFK 6.
pub struct Lfk6;

impl Lfk6 {
    fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut f = Fill::new(6);
        let w = f.vec(N);
        let b = f.clone().with_scale(1.0 / (N * N) as f64).vec(N * N);
        (w, b)
    }

    fn reference(&self) -> Vec<f64> {
        let (mut w, b) = self.inputs();
        for _pass in 0..PASSES {
            for i in 1..N {
                // Mirror the compiled association: one reduction per
                // strip (the whole row fits one strip at n = 64).
                let sum: f64 = (0..i).map(|k| b[k + N * i] * w[k]).sum();
                w[i] += sum;
            }
        }
        w
    }
}

impl LfkKernel for Lfk6 {
    fn id(&self) -> u32 {
        6
    }

    fn name(&self) -> &'static str {
        "general linear recurrence"
    }

    fn fortran(&self) -> &'static str {
        "DO 6 i = 2,n\n    DO 6 k = 1,i-1\n6       W(i) = W(i) + B(k,i)*W(k)"
    }

    fn flops(&self) -> (u32, u32) {
        (1, 1)
    }

    fn ma(&self) -> MaWorkload {
        // Two unit-stride loads (B column, W prefix), one multiply, one
        // accumulate — identical shape to LFK 4.
        MaWorkload {
            f_a: 1,
            f_m: 1,
            loads: 2,
            stores: 0,
        }
    }

    fn iterations(&self) -> u64 {
        PASSES as u64 * ((N * (N - 1)) / 2) as u64
    }

    fn passes(&self) -> i64 {
        PASSES
    }

    fn footprint_words(&self) -> u64 {
        // The `N`×`N` matrix `B` lies above `W`.
        B_WORD + (N * N) as u64
    }

    fn program_with_passes(&self, passes: i64) -> Program {
        assert!(passes >= 1, "at least one pass");
        // a0 passes; a4 = current row i; a5 = &B(1,i); a6 = &W(i);
        // a1/a2 working pointers; s4 = W(i) accumulator.
        assemble(&format!(
            "   mov #{passes},a0
            pass:
                mov #1,a4
                mov #{b_col1_byte},a5
                mov #{w1_byte},a6
            row:
                mov a5,a1
                mov #{w_byte},a2
                ld.d 0(a6),s4           ; temp = W(i)
                mov a4,s0               ; i inner iterations
            L:
                mov s0,vl
                ld.l 0(a1),v0           ; B(k,i)
                ld.l 0(a2),v1           ; W(k)
                mul.d v0,v1,v2
                radd.d v2,s4            ; W(i) += Σ
                add.w #1024,a1
                add.w #1024,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                st.d s4,0(a6)           ; W(i) = temp
                add.w #{col_step},a5
                add.w #8,a6
                add.w #1,a4
                lt.w a4,a7              ; loop while i < n  (a7 = n)
                jbrs.t row
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t pass
                halt",
            b_col1_byte = (B_WORD + N as u64) * 8, // column i=1 (0-based)
            w1_byte = (W_WORD + 1) * 8,
            w_byte = W_WORD * 8,
            col_step = N * 8,
        ))
        .expect("LFK6 assembly is valid")
    }

    fn setup(&self, cpu: &mut Cpu) {
        let (w, b) = self.inputs();
        crate::data::poke_slice(cpu, W_WORD, &w);
        crate::data::poke_slice(cpu, B_WORD, &b);
        cpu.set_areg(7, N as i64);
    }

    fn check(&self, cpu: &Cpu) -> Result<(), CheckError> {
        let expected = self.reference();
        let simulated = crate::data::peek_slice(cpu, W_WORD, N);
        compare("W", &simulated, &expected, REDUCED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_sim::SimConfig;

    #[test]
    fn ma_counts_match_paper() {
        let ma = Lfk6.ma();
        assert_eq!(ma.t_ma_cpl(), 2.0);
        assert_eq!(ma.t_ma_cpf(), 1.0);
    }

    #[test]
    fn functional_check_passes() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk6.setup(&mut cpu);
        cpu.run(&Lfk6.program()).unwrap();
        Lfk6.check(&cpu).unwrap();
    }

    #[test]
    fn measured_cpf_shows_short_vector_gap() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk6.setup(&mut cpu);
        let stats = cpu.run(&Lfk6.program()).unwrap();
        let cpf = stats.cycles / Lfk6.iterations() as f64 / 2.0;
        // Paper: 2.632 CPF measured vs 1.226 bound (46% explained) —
        // the triangular vector lengths kill the steady state.
        assert!(
            cpf > 1.8,
            "LFK6 measured {cpf} CPF should far exceed the 1.226 bound"
        );
        assert!(cpf < 3.6, "LFK6 measured {cpf} CPF unreasonably large");
    }

    #[test]
    fn macs_bound_is_pinned() {
        // Paper Table 3/5: 2.44 CPL.
        let b = crate::macs_bound_cpl(&Lfk6);
        assert!(
            (b - 2.4368).abs() < 0.02,
            "t_MACS = {b} CPL, expected 2.4368"
        );
    }
}
