//! Chime partitioning and the MACS bound (§3.3–§3.4 of the paper).
//!
//! A *chime* is a group of vector instructions that execute concurrently
//! (chained) on the three pipes. The partitioner applies the paper's
//! rules to a compiled loop body:
//!
//! * at most one vector instruction per pipe per chime,
//! * at most two reads and one write per vector register pair,
//! * a chime with a vector memory access cannot span a scalar memory
//!   access (the single memory port),
//!
//! and each chime costs `Z_max·VL + Σᵢ Bᵢ` cycles (Eq. 13; the first
//! instruction contributes `B + VL`, later ones `B` each). Groups of four
//! or more successive chimes that each touch memory — evaluated
//! *cyclically*, because the loop repeats — pay the 2% refresh factor.

use c240_isa::{Instruction, MachineDescription, MAX_VL};

/// Minimum cyclic run of memory chimes that incurs the refresh factor:
/// the paper's "four or more" successive memory chimes (§3.4).
const REFRESH_MIN_RUN: usize = 4;

/// Bank geometry for the *MACS-D* extension: §3.1 suggests "a fifth
/// degree of freedom, D, after M, A, C and S to bind the allocation
/// (decomposition) of the data structures in memory". With a bank model
/// attached, a strided memory instruction's effective per-element time
/// is limited by how quickly its stride revisits banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankModel {
    /// Number of interleaved banks (32 on the C-240).
    pub banks: u32,
    /// Bank cycle (recovery) time in cycles (8 on the C-240).
    pub bank_busy: u64,
}

impl BankModel {
    /// The standard C-240 memory geometry.
    pub fn c240() -> Self {
        BankModel::for_machine(&MachineDescription::c240())
    }

    /// The bank geometry of a declarative machine description.
    pub fn for_machine(machine: &MachineDescription) -> Self {
        BankModel {
            banks: machine.banks,
            bank_busy: machine.bank_busy,
        }
    }

    /// Effective cycles per element for a given word stride.
    ///
    /// ```
    /// use macs_core::BankModel;
    /// let bm = BankModel::c240();
    /// assert_eq!(bm.z_effective(1), 1.0);   // unit stride: full rate
    /// assert_eq!(bm.z_effective(8), 2.0);   // 4 banks share the stream
    /// assert_eq!(bm.z_effective(32), 8.0);  // one bank: bank-cycle bound
    /// ```
    pub fn z_effective(&self, stride_words: i64) -> f64 {
        c240_mem::stride_cycles_per_element(stride_words, self.banks, self.bank_busy)
    }
}

/// Parameters of the chime-cost model: the machine it bounds, plus what
/// is not the machine.
///
/// The timing table, the pair constraint and the refresh duty cycle are
/// read from [`ChimeConfig::machine`], the same description the
/// simulator runs. An ablated bound model is therefore the model of an
/// ablated description, e.g.
/// `ChimeConfig::for_machine(&SimConfig::c240().without_bubbles().machine)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChimeConfig {
    /// The machine bounded: its timing table (Table 1), register-pair
    /// port rule, and refresh duty cycle (the 2% refresh factor of
    /// [`MachineDescription::refresh_factor`]).
    pub machine: MachineDescription,
    /// Vector length of the steady-state strips ([`MAX_VL`] unless a VL
    /// variant sets it with [`ChimeConfig::with_vl`]).
    pub vl: u32,
    /// Optional MACS-D bank model: binds the data decomposition "D" so
    /// strided streams are charged their bank-limited element rate.
    pub bank_model: Option<BankModel>,
}

impl ChimeConfig {
    /// The paper's C-240 model: VL = 128, 2% refresh over runs of ≥ 4
    /// memory chimes, pair constraint on.
    pub fn c240() -> Self {
        ChimeConfig::for_machine(&MachineDescription::c240())
    }

    /// The chime-cost model of a declarative machine description at the
    /// full vector length: the refresh factor is computed from the bank
    /// refresh duty cycle (`(period + len) / period`; exactly the paper's
    /// 1.02 for the C-240's 8-in-400). The MACS-D bank model stays
    /// detached; attach it with [`ChimeConfig::with_bank_model`] +
    /// [`BankModel::for_machine`] for stride-aware bounds.
    pub fn for_machine(machine: &MachineDescription) -> Self {
        ChimeConfig {
            machine: machine.clone(),
            vl: MAX_VL,
            bank_model: None,
        }
    }

    /// Same model with the MACS-D bank extension attached.
    pub fn with_bank_model(mut self, model: BankModel) -> Self {
        self.bank_model = Some(model);
        self
    }

    /// Same model with a different vector length.
    pub fn with_vl(mut self, vl: u32) -> Self {
        assert!(vl > 0, "vector length must be positive");
        self.vl = vl;
        self
    }
}

/// One chime: its member instructions (indices into the analyzed body)
/// and cost components.
#[derive(Debug, Clone, PartialEq)]
pub struct Chime {
    /// Indices of member instructions in the analyzed body.
    pub members: Vec<usize>,
    /// Whether the chime contains a vector memory access.
    pub has_memory: bool,
    /// Largest per-element time among members.
    pub z_max: f64,
    /// Sum of the members' tailgating bubbles.
    pub b_sum: f64,
}

impl Chime {
    /// The chime's cost in cycles at vector length `vl` (Eq. 13).
    pub fn cost(&self, vl: u32) -> f64 {
        self.z_max * f64::from(vl) + self.b_sum
    }
}

/// The result of partitioning a loop body into chimes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChimePartition {
    chimes: Vec<Chime>,
    splits: u32,
    vl: u32,
    raw_cycles: f64,
    cycles: f64,
}

impl ChimePartition {
    /// The chimes in program order.
    pub fn chimes(&self) -> &[Chime] {
        &self.chimes
    }

    /// How many chime boundaries were forced by scalar memory accesses.
    pub fn scalar_splits(&self) -> u32 {
        self.splits
    }

    /// Total cycles per loop iteration *before* the refresh factor.
    pub fn raw_cycles(&self) -> f64 {
        self.raw_cycles
    }

    /// Total cycles per loop iteration including the refresh factor.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// The bound in CPL: cycles divided by the vector length.
    pub fn cpl(&self) -> f64 {
        if self.chimes.is_empty() {
            0.0
        } else {
            self.cycles / f64::from(self.vl)
        }
    }

    /// The bound in CPF: CPL divided by the source flop count.
    ///
    /// # Panics
    ///
    /// Panics if `source_flops` is zero.
    pub fn cpf(&self, source_flops: u32) -> f64 {
        assert!(source_flops > 0, "CPF undefined for zero flops");
        self.cpl() / f64::from(source_flops)
    }
}

struct OpenChime {
    members: Vec<usize>,
    pipes_used: [bool; 3],
    pair_reads: [u8; 4],
    pair_writes: [u8; 4],
    has_memory: bool,
    scalar_fence: bool,
    z_max: f64,
    b_sum: f64,
}

impl OpenChime {
    fn new() -> Self {
        OpenChime {
            members: Vec::new(),
            pipes_used: [false; 3],
            pair_reads: [0; 4],
            pair_writes: [0; 4],
            has_memory: false,
            scalar_fence: false,
            z_max: 0.0,
            b_sum: 0.0,
        }
    }

    fn close(&mut self) -> Option<Chime> {
        if self.members.is_empty() {
            self.scalar_fence = false;
            return None;
        }
        let chime = Chime {
            members: std::mem::take(&mut self.members),
            has_memory: self.has_memory,
            z_max: self.z_max,
            b_sum: self.b_sum,
        };
        *self = OpenChime::new();
        Some(chime)
    }
}

/// Partitions a loop body into chimes and computes the MACS cost.
///
/// Non-memory scalar instructions are ignored (they are masked by the
/// vector work, §3.3); scalar memory instructions act as chime fences.
///
/// # Example
///
/// The paper's LFK1 body partitions into the four chimes of §3.5 costing
/// 527 cycles, 537.54 with refresh — 4.200 CPL:
///
/// ```
/// use c240_isa::asm::assemble;
/// use macs_core::{partition_chimes, ChimeConfig};
///
/// let p = assemble("L7:
///     mov s0,vl
///     ld.l 40120(a5),v0
///     mul.d v0,s1,v1
///     ld.l 40128(a5),v2
///     mul.d v2,s3,v0
///     add.d v1,v0,v3
///     ld.l 32032(a5),v1
///     mul.d v1,v3,v2
///     add.d v2,s7,v0
///     st.l v0,24024(a5)
///     add.w #1024,a5
///     sub.w #128,s0
///     lt.w #0,s0
///     jbrs.t L7
///     halt").unwrap();
/// let body = p.loop_body(p.innermost_loop().unwrap());
/// let part = partition_chimes(body, &ChimeConfig::c240());
/// assert_eq!(part.chimes().len(), 4);
/// assert_eq!(part.raw_cycles(), 527.0);
/// assert!((part.cpl() - 4.200).abs() < 0.001);
/// ```
pub fn partition_chimes(body: &[Instruction], config: &ChimeConfig) -> ChimePartition {
    let mut chimes = Vec::new();
    let mut open = OpenChime::new();
    let mut splits = 0u32;
    for (idx, ins) in body.iter().enumerate() {
        if ins.is_scalar_memory() {
            // The single memory port: a chime with a vector memory access
            // cannot span this instruction.
            if open.has_memory {
                chimes.extend(open.close());
                splits += 1;
            } else {
                open.scalar_fence = true;
            }
            continue;
        }
        let Some(pipe) = ins.pipe() else {
            continue; // other scalar/control work is masked
        };
        let timing = config
            .machine
            .timing
            .get(ins.timing_class().expect("vector instruction"));
        // MACS-D: a strided memory instruction cannot stream faster than
        // its bank-revisit rate permits.
        let z = match (&config.bank_model, ins) {
            (Some(bm), Instruction::VLoad { addr, .. })
            | (Some(bm), Instruction::VStore { addr, .. }) => {
                timing.z.max(bm.z_effective(addr.stride.words()))
            }
            _ => timing.z,
        };
        let (reads, writes) = ins.pair_usage();
        let fits = {
            let slot = pipe.index();
            let pipe_ok = !open.pipes_used[slot];
            let fence_ok = !(ins.is_vector_memory() && open.scalar_fence);
            let pair_ok = !config.machine.pair_constraint
                || (0..4).all(|p| {
                    open.pair_reads[p] + reads[p] <= 2 && open.pair_writes[p] + writes[p] <= 1
                });
            pipe_ok && fence_ok && pair_ok
        };
        if !fits {
            if ins.is_vector_memory() && open.scalar_fence && !open.pipes_used[0] {
                // Fence-forced boundary (port conflict, not pipe reuse).
                splits += 1;
            }
            chimes.extend(open.close());
        }
        open.pipes_used[pipe.index()] = true;
        open.has_memory |= ins.is_vector_memory();
        open.z_max = open.z_max.max(z);
        open.b_sum += timing.b;
        for p in 0..4 {
            open.pair_reads[p] += reads[p];
            open.pair_writes[p] += writes[p];
        }
        open.members.push(idx);
    }
    chimes.extend(open.close());

    let vl = config.vl;
    let raw_cycles: f64 = chimes.iter().map(|c| c.cost(vl)).sum();
    let cycles = if config.machine.refresh_enabled {
        apply_refresh(&chimes, vl, config.machine.refresh_factor())
    } else {
        raw_cycles
    };
    ChimePartition {
        chimes,
        splits,
        vl,
        raw_cycles,
        cycles,
    }
}

/// Applies the refresh factor (the paper's 2%) to maximal cyclic runs
/// of ≥ [`REFRESH_MIN_RUN`] memory chimes (§3.4; the loop repeats, so
/// the run containing the last→first wraparound counts too).
fn apply_refresh(chimes: &[Chime], vl: u32, refresh_factor: f64) -> f64 {
    let n = chimes.len();
    if n == 0 {
        return 0.0;
    }
    let mem: Vec<bool> = chimes.iter().map(|c| c.has_memory).collect();
    let mut scaled = vec![false; n];
    if mem.iter().all(|&m| m) {
        scaled.fill(true);
    } else {
        // Walk maximal runs in the cyclic order: start just after a
        // non-memory chime.
        let start = mem.iter().position(|&m| !m).expect("some non-memory chime");
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
            if len >= REFRESH_MIN_RUN {
                for k in 0..len {
                    scaled[(start + i + k) % n] = true;
                }
            }
            i += len;
        }
    }
    chimes
        .iter()
        .zip(&scaled)
        .map(|(c, &s)| {
            let cost = c.cost(vl);
            if s {
                cost * refresh_factor
            } else {
                cost
            }
        })
        .sum()
}

/// The loop body with all vector memory instructions deleted — the input
/// for `t^f_MACS` (§3.4).
pub fn body_without_memory(body: &[Instruction]) -> Vec<Instruction> {
    body.iter()
        .filter(|i| !i.is_vector_memory())
        .cloned()
        .collect()
}

/// The loop body with all vector floating point instructions deleted —
/// the input for `t^m_MACS` (§3.4).
pub fn body_without_fp(body: &[Instruction]) -> Vec<Instruction> {
    body.iter().filter(|i| !i.is_vector_fp()).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_isa::asm::assemble;
    use c240_isa::Program;
    use c240_sim::SimConfig;

    fn body_of(src: &str) -> (Program, Vec<Instruction>) {
        let p = assemble(src).unwrap();
        let l = p.innermost_loop().unwrap();
        let body = p.loop_body(l).to_vec();
        (p, body)
    }

    const LFK1: &str = "L7:
        mov s0,vl
        ld.l 40120(a5),v0
        mul.d v0,s1,v1
        ld.l 40128(a5),v2
        mul.d v2,s3,v0
        add.d v1,v0,v3
        ld.l 32032(a5),v1
        mul.d v1,v3,v2
        add.d v2,s7,v0
        st.l v0,24024(a5)
        add.w #1024,a5
        sub.w #128,s0
        lt.w #0,s0
        jbrs.t L7
        halt";

    #[test]
    fn lfk1_partitions_into_paper_chimes() {
        let (_, body) = body_of(LFK1);
        let part = partition_chimes(&body, &ChimeConfig::c240());
        assert_eq!(part.chimes().len(), 4);
        // Chime sizes 2, 3, 3, 1 (§3.5).
        let sizes: Vec<usize> = part.chimes().iter().map(|c| c.members.len()).collect();
        assert_eq!(sizes, vec![2, 3, 3, 1]);
        // Costs 131, 132, 132, 132.
        let costs: Vec<f64> = part.chimes().iter().map(|c| c.cost(128)).collect();
        assert_eq!(costs, vec![131.0, 132.0, 132.0, 132.0]);
        assert_eq!(part.raw_cycles(), 527.0);
        // All four chimes touch memory → the whole loop pays refresh.
        assert!((part.cycles() - 537.54).abs() < 0.01);
        assert!((part.cpl() - 4.1995).abs() < 0.001);
        assert!((part.cpf(5) - 0.840).abs() < 0.001);
    }

    #[test]
    fn lfk1_f_and_m_sub_bounds() {
        let (_, body) = body_of(LFK1);
        let cfg = ChimeConfig::c240();
        let f = partition_chimes(&body_without_memory(&body), &cfg);
        // 3 f-chimes {mul}, {mul,add}, {mul,add}: 129+130+130 = 389.
        assert_eq!(f.chimes().len(), 3);
        assert_eq!(f.raw_cycles(), 389.0);
        assert!((f.cpl() - 3.039).abs() < 0.01); // paper: 3.04
        let m = partition_chimes(&body_without_fp(&body), &cfg);
        assert_eq!(m.chimes().len(), 4);
        // 3 loads + 1 store: 130·3 + 132 = 522, ×1.02 = 532.44.
        assert_eq!(m.raw_cycles(), 522.0);
        assert!((m.cpl() - 4.16).abs() < 0.01);
    }

    #[test]
    fn pair_rule_splits_chimes() {
        // §3.3 examples (14)-(17): three reads of {v2,v6}, then two
        // writes of {v2,v6} — both must split.
        let (_, body) = body_of(
            "L:
            add.d v2,v6,v6
            mul.d v6,v1,v4
            jbrs.t L
            halt",
        );
        let part = partition_chimes(&body, &ChimeConfig::c240());
        assert_eq!(part.chimes().len(), 2);

        let (_, body2) = body_of(
            "L:
            add.d v1,v0,v2
            mul.d v2,v1,v6
            jbrs.t L
            halt",
        );
        let part2 = partition_chimes(&body2, &ChimeConfig::c240());
        assert_eq!(part2.chimes().len(), 2);

        // Without the pair constraint both pairs fit in one chime.
        let mut cfg = ChimeConfig::c240();
        cfg.machine.pair_constraint = false;
        assert_eq!(partition_chimes(&body, &cfg).chimes().len(), 1);
    }

    #[test]
    fn scalar_memory_splits_memory_chimes() {
        let (_, body) = body_of(
            "L:
            ld.l 0(a1),v0
            ld.w 0(a0),a7
            ld.l 0(a7),v1
            jbrs.t L
            halt",
        );
        let part = partition_chimes(&body, &ChimeConfig::c240());
        // The two loads would be two chimes anyway (one pipe), but the
        // scalar load forces the split accounting.
        assert_eq!(part.chimes().len(), 2);
        assert_eq!(part.scalar_splits(), 1);
    }

    #[test]
    fn scalar_memory_does_not_split_fp_chimes() {
        // §4.4 LFK8: a scalar load splits a load-add-multiply chime but
        // not an add-multiply chime.
        let (_, body) = body_of(
            "L:
            mul.d v0,v1,v2
            ld.w 0(a0),a7
            add.d v2,v3,v4
            jbrs.t L
            halt",
        );
        let part = partition_chimes(&body, &ChimeConfig::c240());
        assert_eq!(part.chimes().len(), 1);
        assert_eq!(part.scalar_splits(), 0);
    }

    #[test]
    fn scalar_memory_fences_later_vector_memory() {
        // scalar-then-vector: the chime is terminated before the vector
        // memory reference (§3.3: "whichever comes later").
        let (_, body) = body_of(
            "L:
            mul.d v0,v1,v2
            ld.w 0(a0),a7
            ld.l 0(a1),v3
            add.d v3,v2,v4
            jbrs.t L
            halt",
        );
        let part = partition_chimes(&body, &ChimeConfig::c240());
        // {mul} | {ld, add}: the vector load cannot join the mul's chime.
        assert_eq!(part.chimes().len(), 2);
        assert_eq!(part.chimes()[0].members.len(), 1);
    }

    #[test]
    fn refresh_applies_to_cyclic_runs() {
        // Three memory chimes per iteration, all memory → cyclic run is
        // unbounded → refresh applies even though 3 < 4 (LFK12's case).
        let (_, body) = body_of(
            "L:
            ld.l 0(a1),v0
            ld.l 0(a2),v1
            st.l v0,0(a3)
            jbrs.t L
            halt",
        );
        let part = partition_chimes(&body, &ChimeConfig::c240());
        assert_eq!(part.chimes().len(), 3);
        assert_eq!(part.raw_cycles(), 130.0 + 130.0 + 132.0);
        assert!((part.cycles() - 392.0 * 1.02).abs() < 1e-9);
        // LFK12 check: (130+131+132)·1.02/128 = 3.132 with the sub in
        // chime 2.
        let (_, body12) = body_of(
            "L:
            ld.l 8(a1),v0
            ld.l 0(a1),v1
            sub.d v0,v1,v2
            st.l v2,0(a2)
            jbrs.t L
            halt",
        );
        let p12 = partition_chimes(&body12, &ChimeConfig::c240());
        assert!((p12.cpf(1) - 3.132).abs() < 0.002);
    }

    #[test]
    fn short_memory_runs_avoid_refresh() {
        // 2 memory chimes + 2 fp-only chimes: maximal cyclic memory run
        // is 2 < 4 → no refresh.
        let (_, body) = body_of(
            "L:
            ld.l 0(a1),v0
            ld.l 0(a2),v1
            mul.d v0,v1,v2
            mul.d v2,v2,v3
            add.d v3,v3,v4
            add.d v4,v4,v5
            jbrs.t L
            halt",
        );
        let part = partition_chimes(&body, &ChimeConfig::c240());
        assert_eq!(part.cycles(), part.raw_cycles());
    }

    #[test]
    fn wraparound_run_counts() {
        // Per iteration: mem, mem, fp-only, mem, mem. Cyclically the two
        // trailing + two leading memory chimes form a run of 4 → refresh
        // on those, not on the fp chime.
        let (_, body) = body_of(
            "L:
            ld.l 0(a1),v0
            ld.l 0(a2),v1
            mul.d v0,v1,v2
            add.d v2,v2,v3
            st.l v2,0(a3)
            st.l v3,0(a4)
            jbrs.t L
            halt",
        );
        let part = partition_chimes(&body, &ChimeConfig::c240());
        // Chimes: {ld,mul}, {ld,add}, {st}, {st} — wait, both fp ops
        // chain into the loads' chimes, so every chime has memory here.
        assert!(part.chimes().iter().all(|c| c.has_memory));
        assert!((part.cycles() - part.raw_cycles() * 1.02).abs() < 1e-9);
    }

    #[test]
    fn reduction_chime_costs_z_max() {
        let (_, body) = body_of(
            "L:
            ld.l 0(a1),v0
            mul.d v0,s1,v1
            ld.l 0(a2),v2
            rsub.d v2,s4
            jbrs.t L
            halt",
        );
        let part = partition_chimes(&body, &ChimeConfig::c240());
        assert_eq!(part.chimes().len(), 2);
        // Chime 2 carries the reduction: 1.35·128 + B(ld 2 + rsub 0).
        let c2 = &part.chimes()[1];
        assert_eq!(c2.z_max, 1.35);
        assert!((c2.cost(128) - 174.8).abs() < 1e-9);
        // Total ≈ (131 + 174.8)·1.02 = 311.9 → 2.437 CPL (paper: 2.45).
        assert!((part.cpl() - 2.437).abs() < 0.005);
    }

    #[test]
    fn empty_body_partitions_empty() {
        let part = partition_chimes(&[], &ChimeConfig::c240());
        assert!(part.chimes().is_empty());
        assert_eq!(part.cpl(), 0.0);
        assert_eq!(part.cycles(), 0.0);
    }

    #[test]
    fn without_bubbles_drops_b() {
        let (_, body) = body_of(LFK1);
        let machine = SimConfig::c240()
            .without_bubbles()
            .without_refresh()
            .machine;
        let part = partition_chimes(&body, &ChimeConfig::for_machine(&machine));
        assert_eq!(part.raw_cycles(), 512.0); // 4 × 128
    }

    #[test]
    fn vl_scales_costs() {
        let (_, body) = body_of(LFK1);
        let machine = SimConfig::c240().without_refresh().machine;
        let part = partition_chimes(&body, &ChimeConfig::for_machine(&machine).with_vl(64));
        assert_eq!(part.raw_cycles(), 4.0 * 64.0 + 15.0);
        // CPL is still per source iteration: cycles / VL.
        assert!((part.cpl() - (271.0 / 64.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero flops")]
    fn cpf_zero_flops_panics() {
        let part = partition_chimes(&[], &ChimeConfig::c240());
        let _ = part.cpf(0);
    }
}
