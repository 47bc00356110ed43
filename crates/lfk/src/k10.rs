//! LFK 10 — difference predictors.
//!
//! A pure data-motion kernel: twenty stride-25 memory operations against
//! nine subtractions per iteration. The memory port dominates everything
//! (`t_MA = t_MAC = 20` CPL; MACS adds only bubbles and refresh:
//! 20.95 CPL = 2.328 CPF).

use c240_isa::asm::assemble;
use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::MaWorkload;

use crate::data::{compare, Fill, EXACT};
use crate::{CheckError, LfkKernel};

const N: usize = 101;
const PASSES: i64 = 60;
const LDA: usize = 25;
const PX_WORD: u64 = 2048;
const CX_WORD: u64 = 8192;

/// LFK 10.
pub struct Lfk10;

impl Lfk10 {
    fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut f = Fill::new(10).with_scale(0.125);
        let px = f.vec(LDA * N);
        let cx = f.vec(LDA * N);
        (px, cx)
    }

    /// Runs the reference for all passes, returning the final PX.
    fn reference(&self) -> Vec<f64> {
        let (mut px, cx) = self.inputs();
        for _pass in 0..PASSES {
            for i in 0..N {
                let col = i * LDA;
                let mut d_prev = cx[col + 4]; // CX(5,i)
                for j in 5..=13 {
                    let d_new = d_prev - px[col + j - 1];
                    px[col + j - 1] = d_prev;
                    d_prev = d_new;
                }
                px[col + 13] = d_prev; // PX(14,i)
            }
        }
        px
    }
}

impl LfkKernel for Lfk10 {
    fn id(&self) -> u32 {
        10
    }

    fn name(&self) -> &'static str {
        "difference predictors"
    }

    fn fortran(&self) -> &'static str {
        "DO 10 i = 1,n\n\
         \x20  AR      = CX(5,i)\n\
         \x20  BR      = AR - PX(5,i)\n\
         \x20  PX(5,i) = AR\n\
         \x20  CR      = BR - PX(6,i)\n\
         \x20  PX(6,i) = BR\n\
         \x20  ...continuing the difference chain through PX(14,i)"
    }

    fn flops(&self) -> (u32, u32) {
        (9, 0)
    }

    fn ma(&self) -> MaWorkload {
        // Twenty distinct stride-25 streams: CX(5,:) and PX(5..13,:)
        // loaded, PX(5..14,:) stored; no two streams are congruent, so
        // perfect index analysis eliminates nothing. (The difference
        // chain's temporaries live in registers, so the kernel has no
        // expressible single-statement IR form; counts are by
        // inspection, matching Table 2.)
        MaWorkload {
            f_a: 9,
            f_m: 0,
            loads: 10,
            stores: 10,
        }
    }

    fn iterations(&self) -> u64 {
        PASSES as u64 * N as u64
    }

    fn passes(&self) -> i64 {
        PASSES
    }

    fn footprint_words(&self) -> u64 {
        // `CX` lies above `PX`.
        CX_WORD + (LDA * N) as u64
    }

    fn program_with_passes(&self, passes: i64) -> Program {
        assert!(passes >= 1, "at least one pass");
        // The d-values rotate v0→v2→v4→v6, loads rotate v1→v3→v5→v7:
        // each {load, subtract} chime writes two distinct register pairs
        // and reads two, inside the §3.3 port limits.
        let off = |j: usize| ((j - 1) * 8) as i64;
        let mut body = String::new();
        body.push_str(&format!(
            "    ld.l {}(a2):25,v0     ; c1: CX(5,i)\n",
            off(5)
        ));
        let d = ["v0", "v2", "v4", "v6"];
        let l = ["v1", "v3", "v5", "v7"];
        for (stage, j) in (5..=13).enumerate() {
            let dp = d[stage % 4];
            let dn = d[(stage + 1) % 4];
            let lr = l[stage % 4];
            body.push_str(&format!(
                "    ld.l {o}(a1):25,{lr}     ; PX({j},i)\n    sub.d {dp},{lr},{dn}\n    st.l {dp},{o}(a1):25\n",
                o = off(j),
            ));
        }
        // The ninth difference lands in PX(14,i).
        body.push_str(&format!(
            "    st.l {},{}(a1):25     ; PX(14,i)\n",
            d[(9) % 4],
            off(14)
        ));
        assemble(&format!(
            "   mov #{passes},a0
                mov #{N},vl
            pass:
                mov #{px_byte},a1
                mov #{cx_byte},a2
            {body}
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t pass
                halt",
            px_byte = PX_WORD * 8,
            cx_byte = CX_WORD * 8,
        ))
        .expect("LFK10 assembly is valid")
    }

    fn setup(&self, cpu: &mut Cpu) {
        let (px, cx) = self.inputs();
        crate::data::poke_slice(cpu, PX_WORD, &px);
        crate::data::poke_slice(cpu, CX_WORD, &cx);
    }

    fn check(&self, cpu: &Cpu) -> Result<(), CheckError> {
        let expected = self.reference();
        let simulated = crate::data::peek_slice(cpu, PX_WORD, LDA * N);
        compare("PX", &simulated, &expected, EXACT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_sim::SimConfig;

    #[test]
    fn ma_counts_match_paper() {
        let ma = Lfk10.ma();
        assert_eq!(ma.t_ma_cpl(), 20.0);
        assert!((ma.t_ma_cpf() - 2.222).abs() < 0.001);
    }

    #[test]
    fn functional_check_passes() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk10.setup(&mut cpu);
        cpu.run(&Lfk10.program()).unwrap();
        Lfk10.check(&cpu).unwrap();
    }

    #[test]
    fn measured_cpf_is_near_paper() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk10.setup(&mut cpu);
        let stats = cpu.run(&Lfk10.program()).unwrap();
        let cpf = stats.cycles / Lfk10.iterations() as f64 / 9.0;
        // Paper: 2.442 CPF measured, 2.328 bound.
        assert!(
            (2.32..=2.55).contains(&cpf),
            "LFK10 measured {cpf} CPF (paper 2.442)"
        );
    }

    #[test]
    fn macs_bound_is_pinned() {
        // Paper Table 3/5: 20.95 CPL.
        let b = crate::macs_bound_cpl(&Lfk10);
        assert!(
            (b - 20.9523).abs() < 0.003,
            "t_MACS = {b} CPL, expected 20.9523"
        );
    }
}
