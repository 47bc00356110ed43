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
        use macs_core_shim::*;
        let b = bound_cpl(&Lfk10.program(), Lfk10.ma());
        assert!(
            (b - 20.9523).abs() < 0.003,
            "t_MACS = {b} CPL, expected 20.9523"
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
