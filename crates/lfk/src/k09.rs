//! LFK 9 — integrate predictors.
//!
//! Ten stride-25 streams of the `PX(25,101)` workspace feed a 17-flop
//! polynomial update. No reuse exists to lose (`t_MA = t_MAC = 11` CPL);
//! the MACS bound adds only bubbles and refresh (11.55 CPL, 0.679 CPF).
//! All eight scalar registers hold coefficients, so the strip counter
//! lives in an address register and the vector length is set once per
//! pass (`n = 101` is a single strip).

use c240_isa::asm::assemble;
use c240_isa::Program;
use c240_sim::Cpu;
use macs_compiler::{analyze_ma, load_strided, param, Kernel, MaWorkload};

use crate::data::{compare, Fill, EXACT};
use crate::{CheckError, LfkKernel};

const N: usize = 101;
const PASSES: i64 = 60;
const LDA: usize = 25;
const PX_WORD: u64 = 2048;

// Coefficients (the physical values do not matter to the model; any
// loop-invariant set works).
const C0: f64 = 0.0625;
const DM: [f64; 7] = [0.03, 0.035, 0.04, 0.045, 0.05, 0.055, 0.06]; // dm22..dm28

/// LFK 9.
pub struct Lfk9;

impl Lfk9 {
    fn inputs(&self) -> Vec<f64> {
        // The whole PX workspace; row j, column i at (j-1) + LDA*(i-1).
        Fill::new(9).vec(LDA * N)
    }

    fn reference(&self) -> Vec<f64> {
        let px = self.inputs();
        let at = |j: usize, i: usize| px[(j - 1) + LDA * (i - 1)];
        (1..=N)
            .map(|i| {
                // Mirror the compiled association: the C0 term first,
                // then dm28·px13 … dm22·px7, then + px3.
                let mut acc = C0 * (at(5, i) + at(6, i));
                for (idx, j) in (7..=13).rev().enumerate() {
                    acc += DM[6 - idx] * at(j, i);
                }
                acc + at(3, i)
            })
            .collect()
    }
}

impl LfkKernel for Lfk9 {
    fn id(&self) -> u32 {
        9
    }

    fn name(&self) -> &'static str {
        "integrate predictors"
    }

    fn fortran(&self) -> &'static str {
        "DO 9 i = 1,n\n9    PX(1,i) = DM28*PX(13,i) + DM27*PX(12,i) + DM26*PX(11,i) +\n\
         \x20            DM25*PX(10,i) + DM24*PX(9,i) + DM23*PX(8,i) +\n\
         \x20            DM22*PX(7,i) + C0*(PX(5,i) + PX(6,i)) + PX(3,i)"
    }

    fn flops(&self) -> (u32, u32) {
        (9, 8)
    }

    fn ma(&self) -> MaWorkload {
        analyze_ma(&self.ir().expect("LFK9 has an IR form"))
    }

    fn iterations(&self) -> u64 {
        PASSES as u64 * N as u64
    }

    fn passes(&self) -> i64 {
        PASSES
    }

    fn footprint_words(&self) -> u64 {
        // The whole `PX` workspace.
        PX_WORD + (LDA * N) as u64
    }

    fn program_with_passes(&self, passes: i64) -> Program {
        assert!(passes >= 1, "at least one pass");
        // Byte offset of row j: (j-1)*8.
        let off = |j: i64| (j - 1) * 8;
        assemble(&format!(
            "   mov #{passes},a0
                mov #{N},vl
            pass:
                mov #{px_byte},a1
                ld.l {o5}(a1):25,v1     ; c1: px(5,i)
                ld.l {o6}(a1):25,v0     ; c2: px(6,i)
                add.d v1,v0,v2          ;     px5+px6
                mul.d s0,v2,v5          ;     acc = c0*(px5+px6)
                ld.l {o13}(a1):25,v1    ; c3: px(13,i)
                mul.d s7,v1,v2          ;     dm28*px13
                add.d v5,v2,v4
                ld.l {o12}(a1):25,v0    ; c4: px(12,i)
                mul.d s6,v0,v3          ;     dm27*px12
                add.d v4,v3,v5
                ld.l {o11}(a1):25,v1    ; c5
                mul.d s5,v1,v2
                add.d v5,v2,v4
                ld.l {o10}(a1):25,v0    ; c6
                mul.d s4,v0,v3
                add.d v4,v3,v5
                ld.l {o9}(a1):25,v1     ; c7
                mul.d s3,v1,v2
                add.d v5,v2,v4
                ld.l {o8}(a1):25,v0     ; c8
                mul.d s2,v0,v3
                add.d v4,v3,v5
                ld.l {o7}(a1):25,v1     ; c9
                mul.d s1,v1,v2
                add.d v5,v2,v4
                ld.l {o3}(a1):25,v0     ; c10: px(3,i)
                add.d v4,v0,v3
                st.l v3,{o1}(a1):25     ; c11: px(1,i)
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t pass
                halt",
            px_byte = PX_WORD * 8,
            o1 = off(1),
            o3 = off(3),
            o5 = off(5),
            o6 = off(6),
            o7 = off(7),
            o8 = off(8),
            o9 = off(9),
            o10 = off(10),
            o11 = off(11),
            o12 = off(12),
            o13 = off(13),
        ))
        .expect("LFK9 assembly is valid")
    }

    fn setup(&self, cpu: &mut Cpu) {
        crate::data::poke_slice(cpu, PX_WORD, &self.inputs());
        cpu.set_sreg_fp(0, C0);
        for (i, &dm) in DM.iter().enumerate() {
            cpu.set_sreg_fp(1 + i as u8, dm);
        }
    }

    fn check(&self, cpu: &Cpu) -> Result<(), CheckError> {
        let expected = self.reference();
        let simulated: Vec<f64> = (0..N)
            .map(|i| cpu.mem().peek(PX_WORD + (i * LDA) as u64))
            .collect();
        compare("PX(1,:)", &simulated, &expected, EXACT)
    }

    fn ir(&self) -> Option<Kernel> {
        let px = |j: i64| load_strided("px", j - 1, LDA as i64);
        Some(
            Kernel::new("lfk9")
                .array("px", (LDA * N) as u64)
                .param("c0", C0)
                .param("dm22", DM[0])
                .param("dm23", DM[1])
                .param("dm24", DM[2])
                .param("dm25", DM[3])
                .param("dm26", DM[4])
                .param("dm27", DM[5])
                .param("dm28", DM[6])
                .store_strided(
                    "px",
                    0,
                    LDA as i64,
                    param("dm28") * px(13)
                        + param("dm27") * px(12)
                        + param("dm26") * px(11)
                        + param("dm25") * px(10)
                        + param("dm24") * px(9)
                        + param("dm23") * px(8)
                        + param("dm22") * px(7)
                        + param("c0") * (px(5) + px(6))
                        + px(3),
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
        let ma = Lfk9.ma();
        assert_eq!((ma.f_a, ma.f_m), (9, 8));
        assert_eq!((ma.loads, ma.stores), (10, 1));
        assert_eq!(ma.t_ma_cpl(), 11.0);
        assert!((ma.t_ma_cpf() - 0.647).abs() < 0.001);
    }

    #[test]
    fn functional_check_passes() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk9.setup(&mut cpu);
        cpu.run(&Lfk9.program()).unwrap();
        Lfk9.check(&cpu).unwrap();
    }

    #[test]
    fn measured_cpf_is_near_paper() {
        let mut cpu = Cpu::new(SimConfig::c240());
        Lfk9.setup(&mut cpu);
        let stats = cpu.run(&Lfk9.program()).unwrap();
        let cpf = stats.cycles / Lfk9.iterations() as f64 / 17.0;
        // Paper: 0.749 CPF measured, 0.679 bound (VL is only 101 here,
        // so the short-vector overhead shows up in the measurement).
        assert!(
            (0.679..=0.78).contains(&cpf),
            "LFK9 measured {cpf} CPF (paper 0.749)"
        );
    }

    #[test]
    fn macs_bound_is_pinned() {
        // Paper Table 3/5: 11.55 CPL.
        use macs_core_shim::*;
        let b = bound_cpl(&Lfk9.program(), Lfk9.ma());
        assert!(
            (b - 11.5472).abs() < 0.003,
            "t_MACS = {b} CPL, expected 11.5472"
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
