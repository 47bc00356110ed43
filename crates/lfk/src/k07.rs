//! LFK 7 — equation of state fragment.
//!
//! The compiler loses all reuse of the `u(k)…u(k+6)` window (3 MA loads
//! become 9 compiled loads — the largest MA→MAC gap of the suite), and
//! its schedule leaves the adds and multiplies imperfectly overlapped:
//! the f-only partition has **nine** chimes for eight multiplies
//! (`t^f − t'_f > 1`, §4.4), while the full code still packs into ten
//! memory chimes (`t_MACS = 10.50` CPL, 0.656 CPF).
//!
//! The curated schedule reassociates the tail as `t·A + t²·B`
//! (`t²` precomputed in the prologue) so the final add chains straight
//! into the store — flop counts are unchanged.

use c240_isa::asm::assemble;
use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::{analyze_ma, load, param, Kernel, MaWorkload};

use crate::data::{compare, peek_slice, poke_slice, Fill, REDUCED};
use crate::{CheckError, LfkKernel};

const N: usize = 995;
const PASSES: i64 = 20;
const Y_WORD: u64 = 2048;
const Z_WORD: u64 = 4096;
const U_WORD: u64 = 6144;
const X_WORD: u64 = 8192;
const R: f64 = 0.125;
const T: f64 = 0.25;

/// LFK 7.
pub struct Lfk7;

impl Lfk7 {
    fn inputs(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut f = Fill::new(7);
        let y = f.vec(N);
        let z = f.vec(N);
        let u = f.vec(N + 6);
        (y, z, u)
    }

    fn reference(&self) -> Vec<f64> {
        let (y, z, u) = self.inputs();
        let t2 = T * T;
        (0..N)
            .map(|k| {
                // Mirror the compiled association: P1 + t·A + t²·B.
                let p1 = u[k] + R * (z[k] + R * y[k]);
                let a = u[k + 3] + R * (u[k + 2] + R * u[k + 1]);
                let b = u[k + 6] + R * (u[k + 5] + R * u[k + 4]);
                (p1 + T * a) + t2 * b
            })
            .collect()
    }
}

impl LfkKernel for Lfk7 {
    fn id(&self) -> u32 {
        7
    }

    fn name(&self) -> &'static str {
        "equation of state fragment"
    }

    fn fortran(&self) -> &'static str {
        "DO 7 k = 1,n\n7    X(k) = U(k) + R*(Z(k) + R*Y(k)) +\n\
         \x20       T*(U(k+3) + R*(U(k+2) + R*U(k+1)) +\n\
         \x20          T*(U(k+6) + R*(U(k+5) + R*U(k+4))))"
    }

    fn flops(&self) -> (u32, u32) {
        (8, 8)
    }

    fn ma(&self) -> MaWorkload {
        analyze_ma(&self.ir().expect("LFK7 has an IR form"))
    }

    fn iterations(&self) -> u64 {
        PASSES as u64 * N as u64
    }

    fn passes(&self) -> i64 {
        PASSES
    }

    fn footprint_words(&self) -> u64 {
        // The output `X` lies above `Y`, `Z` and `U`.
        X_WORD + N as u64
    }

    fn program_with_passes(&self, passes: i64) -> Program {
        assert!(passes >= 1, "at least one pass");
        assemble(&format!(
            "   mov #{passes},a0
                mul.s s3,s3,s2          ; t2 = t*t
            pass:
                mov #{y_byte},a1
                mov #{z_byte},a2
                mov #{u_byte},a3
                mov #{x_byte},a4
                mov #{N},s0
            L:
                mov s0,vl
                ld.l 0(a1),v0           ; c1: y(k)
                mul.d s1,v0,v1          ;     m1 = r*y
                ld.l 0(a2),v2           ; c2: z(k)
                add.d v2,v1,v3          ;     a1 = z + m1
                mul.d s1,v3,v1          ;     m2 = r*a1
                ld.l 0(a3),v4           ; c3: u(k)
                add.d v4,v1,v5          ;     P1 = u + m2
                ld.l 8(a3),v2           ; c4: u(k+1)
                mul.d s1,v2,v3          ;     m3 = r*u1
                ld.l 16(a3),v6          ; c5: u(k+2)
                add.d v6,v3,v0          ;     a3 = u2 + m3
                mul.d s1,v0,v3          ;     m4 = r*a3
                ld.l 24(a3),v2          ; c6: u(k+3)
                add.d v2,v3,v0          ;     A  = u3 + m4
                mul.d s3,v0,v7          ;     mA = t*A
                ld.l 32(a3),v2          ; c7: u(k+4)
                mul.d s1,v2,v3          ;     m5 = r*u4
                add.d v5,v7,v5          ;     ax1 = P1 + mA
                ld.l 40(a3),v4          ; c8: u(k+5)
                add.d v4,v3,v6          ;     a5 = u5 + m5
                mul.d s1,v6,v3          ;     m6 = r*a5
                ld.l 48(a3),v2          ; c9: u(k+6)
                add.d v2,v3,v0          ;     B  = u6 + m6
                mul.d s2,v0,v3          ;     mB = t2*B
                add.d v5,v3,v1          ; c10: x = ax1 + mB
                st.l v1,0(a4)
                add.w #1024,a1
                add.w #1024,a2
                add.w #1024,a3
                add.w #1024,a4
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t pass
                halt",
            y_byte = Y_WORD * 8,
            z_byte = Z_WORD * 8,
            u_byte = U_WORD * 8,
            x_byte = X_WORD * 8,
        ))
        .expect("LFK7 assembly is valid")
    }

    fn setup(&self, cpu: &mut Cpu) {
        let (y, z, u) = self.inputs();
        poke_slice(cpu, Y_WORD, &y);
        poke_slice(cpu, Z_WORD, &z);
        poke_slice(cpu, U_WORD, &u);
        cpu.set_sreg_fp(1, R);
        cpu.set_sreg_fp(3, T);
    }

    fn check(&self, cpu: &Cpu) -> Result<(), CheckError> {
        let x = peek_slice(cpu, X_WORD, N);
        compare("X", &x, &self.reference(), REDUCED)
    }

    fn ir(&self) -> Option<Kernel> {
        let u = |o| load("u", o);
        Some(
            Kernel::new("lfk7")
                .array("x", N as u64)
                .array("y", N as u64)
                .array("z", N as u64)
                .array("u", (N + 6) as u64)
                .param("r", R)
                .param("t", T)
                .store(
                    "x",
                    0,
                    u(0) + param("r") * (load("z", 0) + param("r") * load("y", 0))
                        + param("t")
                            * (u(3)
                                + param("r") * (u(2) + param("r") * u(1))
                                + param("t") * (u(6) + param("r") * (u(5) + param("r") * u(4)))),
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
        let ma = Lfk7.ma();
        assert_eq!((ma.f_a, ma.f_m), (8, 8));
        assert_eq!((ma.loads, ma.stores), (3, 1));
        assert_eq!(ma.t_ma_cpl(), 8.0);
        assert_eq!(ma.t_ma_cpf(), 0.5);
    }

    #[test]
    fn functional_check_passes() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk7.setup(&mut cpu);
        cpu.run(&Lfk7.program()).unwrap();
        Lfk7.check(&cpu).unwrap();
    }

    #[test]
    fn measured_cpf_is_near_paper() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk7.setup(&mut cpu);
        let stats = cpu.run(&Lfk7.program()).unwrap();
        let cpf = stats.cycles / Lfk7.iterations() as f64 / 16.0;
        // Paper: 0.681 CPF measured, 0.656 bound.
        assert!(
            (0.655..=0.70).contains(&cpf),
            "LFK7 measured {cpf} CPF (paper 0.681)"
        );
    }

    #[test]
    fn macs_bound_is_pinned() {
        // Paper Table 3/5: 10.50 CPL.
        let b = crate::macs_bound_cpl(&Lfk7);
        assert!(
            (b - 10.5028).abs() < 0.003,
            "t_MACS = {b} CPL, expected 10.5028"
        );
    }
}
