//! LFK 4 — banded linear equations.
//!
//! A dot-product reduction with a stride-5 stream, compiled per-strip:
//! the `rsub.d` reduction's `Z = 1.35` slope puts the reduction chime at
//! 1.35·VL cycles and serializes the VP behind the scalar result —
//! `t_MACS = 2.44` CPL (paper: 2.45) against `t_MA = t_MAC = 2`.
//! Each of the three outer bands adds scalar prologue/epilogue work
//! (`temp` load, final multiply and store) that the bound excludes.

use c240_isa::asm::assemble;
use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::MaWorkload;

use crate::data::{compare, Fill, REDUCED};
use crate::{CheckError, LfkKernel};

const N: usize = 1001;
const M: usize = 497;
/// Inner iterations per band: j = 5, 10, …, 1000 (1-based).
const INNER: usize = 200;
const BANDS: usize = 3;
const PASSES: i64 = 20;
const X_WORD: u64 = 2048;
const Y_WORD: u64 = 4096;
const XZ_WORD: u64 = 6144;
const W: f64 = 1e-3;

/// LFK 4.
pub struct Lfk4;

impl Lfk4 {
    fn inputs(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut f = Fill::new(4);
        let x = f.vec(N + 8);
        let y = f.vec(N);
        let xz = f.clone().with_scale(0.01).vec(2 * M + INNER);
        (x, y, xz)
    }

    fn reference(&self) -> Vec<f64> {
        let (mut x, y, xz) = self.inputs();
        for _pass in 0..PASSES {
            for band in 0..BANDS {
                let b = band * M;
                let mut temp = x[b + 5];
                // The compiled code reduces strip-by-strip (128 + 72):
                // mirror that association.
                let mut j0 = 0;
                while j0 < INNER {
                    let len = (INNER - j0).min(128);
                    let sum: f64 = (j0..j0 + len).map(|j| xz[b + j] * y[4 + 5 * j]).sum();
                    temp -= sum;
                    j0 += len;
                }
                x[b + 5] = y[4] * temp;
            }
        }
        x
    }
}

impl LfkKernel for Lfk4 {
    fn id(&self) -> u32 {
        4
    }

    fn name(&self) -> &'static str {
        "banded linear equations"
    }

    fn fortran(&self) -> &'static str {
        "    m = (1001-7)/2\n    DO 4 k = 7,1001,m\n        lw = k-6\n        temp = X(k-1)\n\
         CDIR$ IVDEP\n        DO 404 j = 5,n,5\n            temp = temp - XZ(lw)*Y(j)\n\
         404     lw = lw+1\n4       X(k-1) = Y(5)*temp"
    }

    fn flops(&self) -> (u32, u32) {
        (1, 1)
    }

    fn ma(&self) -> MaWorkload {
        // Inner loop: XZ unit stride and Y stride 5 — two loads, no
        // store, one multiply, one accumulate-subtract. t_m = 2 = t_MA.
        MaWorkload {
            f_a: 1,
            f_m: 1,
            loads: 2,
            stores: 0,
        }
    }

    fn iterations(&self) -> u64 {
        PASSES as u64 * (BANDS * INNER) as u64
    }

    fn passes(&self) -> i64 {
        PASSES
    }

    fn footprint_words(&self) -> u64 {
        // `XZ` lies above `X` and `Y`.
        XZ_WORD + (2 * M + INNER) as u64
    }

    fn program_with_passes(&self, passes: i64) -> Program {
        assert!(passes >= 1, "at least one pass");
        // a0 passes; a6 band counter; a4 = &XZ band base; a5 = &X(k-1);
        // a1/a2 working stream pointers; s1 = Y(5); s4 = temp.
        assemble(&format!(
            "   mov #{passes},a0
            pass:
                mov #{BANDS},a6
                mov #{xz_byte},a4
                mov #{x5_byte},a5
            band:
                mov a4,a1
                mov #{y4_byte},a2
                ld.d 0(a5),s4           ; temp = X(k-1)
                mov #{INNER},s0
            L:
                mov s0,vl
                ld.l 0(a1),v0           ; XZ(lw)
                ld.l 0(a2):5,v1         ; Y(j), stride 5
                mul.d v0,v1,v2
                rsub.d v2,s4            ; temp -= Σ XZ·Y
                add.w #1024,a1
                add.w #5120,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                mul.s s1,s4,s4          ; temp = Y(5)*temp
                st.d s4,0(a5)           ; X(k-1) = ...
                add.w #{band_step},a4
                add.w #{band_step},a5
                sub.w #1,a6
                lt.w #0,a6
                jbrs.t band
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t pass
                halt",
            xz_byte = XZ_WORD * 8,
            x5_byte = (X_WORD + 5) * 8,
            y4_byte = (Y_WORD + 4) * 8,
            band_step = M * 8,
        ))
        .expect("LFK4 assembly is valid")
    }

    fn setup(&self, cpu: &mut Cpu) {
        let (x, y, xz) = self.inputs();
        crate::data::poke_slice(cpu, X_WORD, &x);
        crate::data::poke_slice(cpu, Y_WORD, &y);
        crate::data::poke_slice(cpu, XZ_WORD, &xz);
        cpu.set_sreg_fp(1, y[4]);
        // W is folded into the data scale in this variant; keep the
        // constant documented for fidelity.
        let _ = W;
    }

    fn check(&self, cpu: &Cpu) -> Result<(), CheckError> {
        let expected = self.reference();
        let simulated = crate::data::peek_slice(cpu, X_WORD, N + 8);
        compare("X", &simulated, &expected, REDUCED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_sim::SimConfig;

    #[test]
    fn ma_counts_match_paper() {
        let ma = Lfk4.ma();
        assert_eq!(ma.t_ma_cpl(), 2.0);
        assert_eq!(ma.t_ma_cpf(), 1.0);
    }

    #[test]
    fn functional_check_passes() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk4.setup(&mut cpu);
        cpu.run(&Lfk4.program()).unwrap();
        Lfk4.check(&cpu).unwrap();
    }

    #[test]
    fn measured_cpf_shows_reduction_gap() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk4.setup(&mut cpu);
        let stats = cpu.run(&Lfk4.program()).unwrap();
        let cpf = stats.cycles / Lfk4.iterations() as f64 / 2.0;
        // Paper: 1.863 CPF measured vs 1.226 bound — the reduction and
        // the per-band scalar work dominate.
        assert!(
            cpf > 1.30,
            "LFK4 measured {cpf} CPF should exceed the 1.226 bound clearly"
        );
        assert!(cpf < 2.3, "LFK4 measured {cpf} CPF unreasonably large");
    }

    #[test]
    fn macs_bound_is_pinned() {
        // Paper Table 3/5: 2.45 CPL.
        let b = crate::macs_bound_cpl(&Lfk4);
        assert!(
            (b - 2.4368).abs() < 0.02,
            "t_MACS = {b} CPL, expected 2.4368"
        );
    }
}
