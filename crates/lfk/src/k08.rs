//! LFK 8 — ADI (alternating direction implicit) integration.
//!
//! The register-pressure kernel: eleven loop-invariant coefficients
//! cannot fit the eight scalar registers, so six of them are reloaded
//! from memory *inside* the loop. Each scalar load competes for the
//! single memory port and splits potential chimes (§3.3) — `t_MACS`
//! rises far above both `t'_m` (21.85) and `t'_f` (21.28), to ~30 CPL,
//! and the A- and X-processes overlap poorly (§4.4).

use c240_isa::asm::assemble;
use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::MaWorkload;

use crate::data::{compare, Fill, EXACT};
use crate::{CheckError, LfkKernel};

/// ky runs 1..=NY (0-based interior of a 101-column plane).
const NY: usize = 99;
const LD1: usize = 5; // kx dimension
const LD2: usize = 101; // ky dimension
const PLANE: usize = LD1 * LD2; // 505 words per nl plane
const PASSES: i64 = 40;

const U1_WORD: u64 = 10240;
const U2_WORD: u64 = 13312;
const U3_WORD: u64 = 16384;
const DU1_WORD: u64 = 4097;
const DU2_WORD: u64 = 4353;
const DU3_WORD: u64 = 4609;
/// Six spilled coefficients live just below du1.
const TABLE_WORD: u64 = DU1_WORD - 9;

const SIG: f64 = 0.25;
const TWO: f64 = 2.0;
const A: [[f64; 3]; 3] = [
    [0.011, 0.012, 0.013],
    [0.021, 0.022, 0.023],
    [0.031, 0.032, 0.033],
];

/// LFK 8.
pub struct Lfk8;

impl Lfk8 {
    fn inputs(&self) -> [Vec<f64>; 3] {
        let mut f = Fill::new(8);
        [f.vec(2 * PLANE), f.vec(2 * PLANE), f.vec(2 * PLANE)]
    }

    /// Index into a u array: (kx, ky, nl), all 0-based.
    fn at(kx: usize, ky: usize, nl: usize) -> usize {
        kx + LD1 * ky + PLANE * nl
    }

    /// One pass of the reference (plane 0 → plane 1; passes are
    /// idempotent). Returns `(u1, u2, u3, du1, du2, du3)`.
    #[allow(clippy::type_complexity)]
    fn reference(&self) -> ([Vec<f64>; 3], [Vec<f64>; 3]) {
        let mut u = self.inputs();
        let mut du = [vec![0.0; LD2], vec![0.0; LD2], vec![0.0; LD2]];
        let at = Self::at;
        for kx in 1..=2 {
            for ky in 1..=NY {
                for s in 0..3 {
                    du[s][ky] = u[s][at(kx, ky + 1, 0)] - u[s][at(kx, ky - 1, 0)];
                }
                for s in 0..3 {
                    // Mirror the compiled association exactly.
                    let uc = u[s][at(kx, ky, 0)];
                    let two_uc = TWO * uc;
                    let mut acc = uc + A[s][0] * du[0][ky];
                    acc += A[s][1] * du[1][ky];
                    acc += A[s][2] * du[2][ky];
                    let mut inner = u[s][at(kx + 1, ky, 0)] - two_uc;
                    inner += u[s][at(kx - 1, ky, 0)];
                    u[s][at(kx, ky, 1)] = acc + SIG * inner;
                }
            }
        }
        (u, du)
    }

    fn stmt_block(u_base: &str, table: [i64; 3], coeff_regs: Option<[&'static str; 3]>) -> String {
        // One u-array update. When `coeff_regs` is None the three
        // coefficients are reloaded through s6 from the spill table.
        let mut s = String::new();
        let coeff = |i: usize, out: &mut String| -> &'static str {
            match coeff_regs {
                Some(regs) => regs[i],
                None => {
                    out.push_str(&format!("    ld.d {}(a4),s6\n", table[i] * 8));
                    "s6"
                }
            }
        };
        let du = ["v5", "v6", "v7"];
        let c0 = coeff(0, &mut s);
        s.push_str(&format!(
            "    ld.l 0({u_base}):5,v0\n    mul.d s2,v0,v4\n    mul.d {c0},{},v3\n    add.d v0,v3,v0\n",
            du[0]
        ));
        let c1 = coeff(1, &mut s);
        s.push_str(&format!(
            "    ld.l 8({u_base}):5,v1\n    mul.d {c1},{},v3\n    add.d v0,v3,v0\n",
            du[1]
        ));
        let c2 = coeff(2, &mut s);
        s.push_str(&format!(
            "    ld.l -8({u_base}):5,v2\n    mul.d {c2},{},v3\n    add.d v0,v3,v0\n",
            du[2]
        ));
        s.push_str(&format!(
            "    sub.d v1,v4,v1\n    add.d v1,v2,v1\n    mul.d s1,v1,v2\n    add.d v0,v2,v3\n    st.l v3,4040({u_base}):5\n"
        ));
        s
    }
}

impl LfkKernel for Lfk8 {
    fn id(&self) -> u32 {
        8
    }

    fn name(&self) -> &'static str {
        "ADI integration"
    }

    fn fortran(&self) -> &'static str {
        "DO 8 kx = 2,3\n DO 8 ky = 2,n\n\
         \x20 DU1(ky) = U1(kx,ky+1,nl1) - U1(kx,ky-1,nl1)\n\
         \x20 DU2(ky) = U2(kx,ky+1,nl1) - U2(kx,ky-1,nl1)\n\
         \x20 DU3(ky) = U3(kx,ky+1,nl1) - U3(kx,ky-1,nl1)\n\
         \x20 U1(kx,ky,nl2) = U1(kx,ky,nl1) + A11*DU1(ky) + A12*DU2(ky) + A13*DU3(ky)\n\
         \x20   + SIG*(U1(kx+1,ky,nl1) - 2.*U1(kx,ky,nl1) + U1(kx-1,ky,nl1))\n\
         \x20 U2(...) = ... A21,A22,A23 ...\n8 U3(...) = ... A31,A32,A33 ..."
    }

    fn flops(&self) -> (u32, u32) {
        (21, 15)
    }

    fn ma(&self) -> MaWorkload {
        // Per iteration: each u-array contributes one merged (kx,·)
        // stream plus the (kx±1,·) streams = 9 loads (du values stay in
        // registers under perfect compilation); stores: du1..3 and the
        // three nl2 planes = 6. t_f = max(21,15) = 21 = t_MA (one of the
        // two compute-bound kernels of the suite).
        MaWorkload {
            f_a: 21,
            f_m: 15,
            loads: 9,
            stores: 6,
        }
    }

    fn iterations(&self) -> u64 {
        PASSES as u64 * 2 * NY as u64
    }

    fn passes(&self) -> i64 {
        PASSES
    }

    fn footprint_words(&self) -> u64 {
        // `U3` lies above `U1`, `U2`, the `DU` planes and the spill table.
        U3_WORD + 2 * PLANE as u64
    }

    fn program_with_passes(&self, passes: i64) -> Program {
        assert!(passes >= 1, "at least one pass");
        let du_stmt = |u_base: &str, du_reg: &str, du_ptr: &str| {
            format!(
                "    ld.l 40({u_base}):5,v0\n    ld.l -40({u_base}):5,v1\n    sub.d v0,v1,{du_reg}\n    st.l {du_reg},0({du_ptr})\n"
            )
        };
        let mut body = String::new();
        body.push_str(&du_stmt("a1", "v5", "a4"));
        body.push_str(&du_stmt("a2", "v6", "a5"));
        body.push_str(&du_stmt("a3", "v7", "a6"));
        body.push_str(&Self::stmt_block("a1", [0, 0, 0], Some(["s3", "s4", "s5"])));
        body.push_str(&Self::stmt_block("a2", [-9, -8, -7], None));
        body.push_str(&Self::stmt_block("a3", [-6, -5, -4], None));
        assemble(&format!(
            "   mov #{passes},a0
                mov #{NY},vl
            pass:
                mov #{u1},a1
                mov #{u2},a2
                mov #{u3},a3
                mov #{du1},a4
                mov #{du2},a5
                mov #{du3},a6
                mov #2,a7
            kx:
            {body}
                add.w #8,a1
                add.w #8,a2
                add.w #8,a3
                sub.w #1,a7
                lt.w #0,a7
                jbrs.t kx
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t pass
                halt",
            u1 = (U1_WORD as i64 + Self::at(1, 1, 0) as i64) * 8,
            u2 = (U2_WORD as i64 + Self::at(1, 1, 0) as i64) * 8,
            u3 = (U3_WORD as i64 + Self::at(1, 1, 0) as i64) * 8,
            du1 = DU1_WORD * 8,
            du2 = DU2_WORD * 8,
            du3 = DU3_WORD * 8,
        ))
        .expect("LFK8 assembly is valid")
    }

    fn setup(&self, cpu: &mut Cpu) {
        let u = self.inputs();
        crate::data::poke_slice(cpu, U1_WORD, &u[0]);
        crate::data::poke_slice(cpu, U2_WORD, &u[1]);
        crate::data::poke_slice(cpu, U3_WORD, &u[2]);
        cpu.set_sreg_fp(1, SIG);
        cpu.set_sreg_fp(2, TWO);
        cpu.set_sreg_fp(3, A[0][0]);
        cpu.set_sreg_fp(4, A[0][1]);
        cpu.set_sreg_fp(5, A[0][2]);
        // Spill table: a21,a22,a23,a31,a32,a33.
        for (i, v) in A[1].iter().chain(A[2].iter()).enumerate() {
            cpu.mem_mut().poke(TABLE_WORD + i as u64, *v);
        }
    }

    fn check(&self, cpu: &Cpu) -> Result<(), CheckError> {
        let (u, du) = self.reference();
        for (name, base, expected) in [
            ("U1", U1_WORD, &u[0]),
            ("U2", U2_WORD, &u[1]),
            ("U3", U3_WORD, &u[2]),
        ] {
            let simulated = crate::data::peek_slice(cpu, base, 2 * PLANE);
            compare(name, &simulated, expected, EXACT)?;
        }
        for (name, base, expected) in [
            ("DU1", DU1_WORD - 1, &du[0]),
            ("DU2", DU2_WORD - 1, &du[1]),
            ("DU3", DU3_WORD - 1, &du[2]),
        ] {
            let simulated = crate::data::peek_slice(cpu, base, LD2);
            compare(name, &simulated, expected, EXACT)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_sim::SimConfig;

    #[test]
    fn ma_counts_match_paper() {
        let ma = Lfk8.ma();
        assert_eq!(ma.t_f(), 21.0);
        assert_eq!(ma.t_m(), 15.0);
        assert_eq!(ma.t_ma_cpl(), 21.0);
        assert!((ma.t_ma_cpf() - 0.583).abs() < 0.001);
    }

    #[test]
    fn loop_body_has_spilled_scalar_loads() {
        let p = Lfk8.program();
        let l = p.innermost_loop().unwrap();
        let scalar_loads = p
            .loop_body(l)
            .iter()
            .filter(|i| i.is_scalar_memory())
            .count();
        assert_eq!(scalar_loads, 6);
        let vec_mem = p
            .loop_body(l)
            .iter()
            .filter(|i| i.is_vector_memory())
            .count();
        assert_eq!(vec_mem, 21); // 15 loads + 6 stores (Table 2 MAC)
    }

    #[test]
    fn functional_check_passes() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk8.setup(&mut cpu);
        cpu.run(&Lfk8.program()).unwrap();
        Lfk8.check(&cpu).unwrap();
    }

    #[test]
    fn measured_cpf_is_near_paper() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk8.setup(&mut cpu);
        let stats = cpu.run(&Lfk8.program()).unwrap();
        let cpf = stats.cycles / Lfk8.iterations() as f64 / 36.0;
        // Paper: 0.858 CPF measured, 0.824 bound.
        assert!(
            (0.80..=0.99).contains(&cpf),
            "LFK8 measured {cpf} CPF (paper 0.858)"
        );
    }

    #[test]
    fn macs_bound_is_pinned() {
        // Paper Table 3/5: 30.15 (schedule differs; see EXPERIMENTS.md) CPL.
        let b = crate::macs_bound_cpl(&Lfk8);
        assert!((b - 33.93).abs() < 0.06, "t_MACS = {b} CPL, expected 33.93");
    }
}
