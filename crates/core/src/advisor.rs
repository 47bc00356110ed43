//! Goal-directed optimization advice — the paper's conclusion made
//! executable: "Aspects of the MACS bounds hierarchy could be
//! incorporated within a goal-directed optimizing compiler that would
//! efficiently assess where and how best to spend its time" (§5).
//!
//! Each gap in the hierarchy prices a specific transformation: closing
//! MA→MAC means eliminating compiler-inserted work, MAC→MACS means
//! rescheduling, MACS→measured means attacking unmodeled structure.
//! [`advise`] turns an analyzed kernel into a ranked to-do list with
//! estimated cycle savings.

use std::fmt;

use c240_isa::Instruction;

use crate::analysis::KernelAnalysis;
use crate::chime::partition_chimes;
use crate::reschedule::reschedule_for_chimes;

/// A transformation the hierarchy suggests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Action {
    /// Keep shifted reused vectors in registers (or shift them) instead
    /// of reloading — closes the MA→MAC gap (§4.4, LFK 1/7/12).
    EliminateCompilerReloads,
    /// Reorder instructions / reallocate registers for denser chimes —
    /// closes the MAC→MACS gap (§3.4).
    ImproveSchedule,
    /// Hoist spilled scalars out of the loop so scalar memory accesses
    /// stop splitting chimes (§4.4, LFK 8).
    HoistScalarMemory,
    /// Restructure the algorithm to reduce memory operations per flop —
    /// the memory port is the binding resource.
    ReduceMemoryTraffic,
    /// Lengthen vectors / fuse segments / move outer-loop work out of
    /// the hot path — the measurement is dominated by per-entry
    /// overheads the steady-state model excludes (§4.4, LFK 2/4/6).
    AmortizeOuterOverhead,
    /// Improve access/execute overlap (software pipelining across
    /// chimes; §3.6, §4.4 LFK 8).
    ImproveAxOverlap,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Action::EliminateCompilerReloads => "eliminate compiler-inserted reloads",
            Action::ImproveSchedule => "improve the instruction schedule",
            Action::HoistScalarMemory => "hoist scalar memory accesses out of the loop",
            Action::ReduceMemoryTraffic => "reduce memory operations per flop",
            Action::AmortizeOuterOverhead => "amortize outer-loop and startup overhead",
            Action::ImproveAxOverlap => "improve access/execute overlap",
        };
        f.write_str(text)
    }
}

/// One piece of ranked advice.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// The suggested transformation.
    pub action: Action,
    /// Estimated saving in CPL if fully successful.
    pub est_saving_cpl: f64,
    /// Why the hierarchy suggests it.
    pub rationale: String,
}

impl fmt::Display for Advice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (≈{:.2} CPL): {}",
            self.action, self.est_saving_cpl, self.rationale
        )
    }
}

/// Prices every gap in the hierarchy and returns the transformations
/// ranked by estimated saving (largest first). Gaps below `min_cpl`
/// (default callers pass ~0.05) are not reported.
pub fn advise(a: &KernelAnalysis, min_cpl: f64) -> Vec<Advice> {
    let mut advice = Vec::new();
    let b = &a.bounds;

    let reload_gap = b.t_mac_cpl() - b.t_ma_cpl();
    if reload_gap > min_cpl {
        advice.push(Advice {
            action: Action::EliminateCompilerReloads,
            est_saving_cpl: reload_gap,
            rationale: format!(
                "the compiled code performs {:.0} memory ops/iteration vs {:.0} under \
                 perfect reuse; register the shifted reuse streams",
                b.mac.t_m(),
                b.ma.t_m()
            ),
        });
    }

    // Reordering and scalar hoisting are priced *exactly* by applying
    // the transformations to the body and repartitioning.
    let cfg = &b.chime_config;
    let best_with = partition_chimes(&reschedule_for_chimes(&b.body, cfg), cfg);
    let no_scalar: Vec<Instruction> = b
        .body
        .iter()
        .filter(|i| !i.is_scalar_memory())
        .cloned()
        .collect();
    let best_without = partition_chimes(&reschedule_for_chimes(&no_scalar, cfg), cfg);

    let schedule_gap = b.macs.full.cpl() - best_with.cpl();
    if schedule_gap > min_cpl {
        advice.push(Advice {
            action: Action::ImproveSchedule,
            est_saving_cpl: schedule_gap,
            rationale: format!(
                "reordering the body (dependence-safely) repacks the chimes from \
                 {:.2} to {:.2} CPL",
                b.macs.full.cpl(),
                best_with.cpl()
            ),
        });
    }

    let split_gap = best_with.cpl() - best_without.cpl();
    if split_gap > min_cpl {
        advice.push(Advice {
            action: Action::HoistScalarMemory,
            est_saving_cpl: split_gap,
            rationale: format!(
                "{} scalar memory accesses fence the memory port; hoisting them \
                 (e.g. keeping spilled coefficients in registers) saves another \
                 {split_gap:.2} CPL over the best schedule",
                b.macs.full.scalar_splits(),
            ),
        });
    }

    let imbalance = b.mac.t_m() - b.mac.t_f();
    if imbalance > min_cpl {
        advice.push(Advice {
            action: Action::ReduceMemoryTraffic,
            est_saving_cpl: imbalance,
            rationale: format!(
                "memory ({:.0} ops) outweighs arithmetic ({:.0}) per iteration; the \
                 single port is the binding resource",
                b.mac.t_m(),
                b.mac.t_f()
            ),
        });
    }

    let unmodeled = a.t_p_cpl() - b.t_macs_cpl();
    if unmodeled > min_cpl && a.pct_macs() < 0.9 {
        advice.push(Advice {
            action: Action::AmortizeOuterOverhead,
            est_saving_cpl: unmodeled,
            rationale: format!(
                "measured time exceeds the schedule bound by {:.2} CPL — short vectors, \
                 outer-loop control and startup dominate (the model's excluded terms)",
                unmodeled
            ),
        });
    }

    let overlap_gap = a.t_p_cpl() - a.t_a_cpl().max(a.t_x_cpl());
    if overlap_gap > min_cpl && a.ax_overlap() < 0.6 {
        advice.push(Advice {
            action: Action::ImproveAxOverlap,
            est_saving_cpl: overlap_gap,
            rationale: format!(
                "t_p ({:.2}) sits {:.2} CPL above max(t_a, t_x): the access and execute \
                 processes serialize instead of overlapping",
                a.t_p_cpl(),
                overlap_gap
            ),
        });
    }

    advice.sort_by(|x, y| y.est_saving_cpl.partial_cmp(&x.est_saving_cpl).unwrap());
    advice
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_kernel;
    use c240_sim::SimConfig;

    fn analyze_lfk(id: u32) -> KernelAnalysis {
        let kernel = lfk_suite_for_tests::by_id(id);
        analyze_kernel(
            &format!("LFK{id}"),
            kernel.0,
            &kernel.1,
            kernel.2,
            &kernel.3,
            &SimConfig::c240(),
        )
        .unwrap()
    }

    /// macs-core cannot depend on lfk-suite (dependency direction), so
    /// the advisor's kernel-level behavior is tested with hand-rolled
    /// programs here and against the real kernels in the workspace
    /// integration tests.
    mod lfk_suite_for_tests {
        use c240_isa::asm::assemble;
        use c240_isa::Program;
        use c240_sim::Cpu;
        use macs_compiler::MaWorkload;

        type Setup = Box<dyn Fn(&mut Cpu)>;

        pub fn by_id(id: u32) -> (MaWorkload, Program, u64, Setup) {
            match id {
                // An LFK1-style loop: one reloaded stream.
                1 => (
                    MaWorkload {
                        f_a: 1,
                        f_m: 0,
                        loads: 1,
                        stores: 1,
                    },
                    assemble(
                        "   mov #2560,s0
                        L:
                            mov s0,vl
                            ld.l 0(a1),v0
                            ld.l 8(a1),v1
                            add.d v0,v1,v2
                            st.l v2,0(a2)
                            add.w #1024,a1
                            add.w #1024,a2
                            sub.w #128,s0
                            lt.w #0,s0
                            jbrs.t L
                            halt",
                    )
                    .unwrap(),
                    2560,
                    Box::new(|_| {}),
                ),
                // An LFK8-style loop: a spilled coefficient reloaded in
                // the loop fences the chime that would otherwise chain
                // the load with its consumers.
                8 => (
                    MaWorkload {
                        f_a: 1,
                        f_m: 1,
                        loads: 1,
                        stores: 0,
                    },
                    assemble(
                        "   mov #2560,s0
                        L:
                            mov s0,vl
                            ld.l 0(a1),v0
                            ld.d 0(a0),s1
                            mul.d s1,v0,v2
                            add.d v2,v2,v3
                            add.w #1024,a1
                            sub.w #128,s0
                            lt.w #0,s0
                            jbrs.t L
                            halt",
                    )
                    .unwrap(),
                    2560,
                    Box::new(|_| {}),
                ),
                other => panic!("no test kernel {other}"),
            }
        }
    }

    #[test]
    fn reload_advice_priced_for_lfk1_style_loop() {
        let a = analyze_lfk(1);
        let advice = advise(&a, 0.05);
        assert!(!advice.is_empty());
        let reload = advice
            .iter()
            .find(|adv| adv.action == Action::EliminateCompilerReloads)
            .expect("reload advice present");
        assert!((reload.est_saving_cpl - 1.0).abs() < 0.01);
        // The loop is memory-bound, so traffic reduction ranks first.
        assert_eq!(advice[0].action, Action::ReduceMemoryTraffic);
    }

    #[test]
    fn scalar_hoisting_advised_for_split_loop() {
        let a = analyze_lfk(8);
        let advice = advise(&a, 0.05);
        assert!(
            advice
                .iter()
                .any(|adv| adv.action == Action::HoistScalarMemory),
            "{advice:?}"
        );
        // The split saving is priced by repartitioning, so it is exact.
        let split = advice
            .iter()
            .find(|adv| adv.action == Action::HoistScalarMemory)
            .unwrap();
        assert!(split.est_saving_cpl > 0.3, "{}", split.est_saving_cpl);
    }

    #[test]
    fn savings_are_sorted_and_displayed() {
        let a = analyze_lfk(8);
        let advice = advise(&a, 0.01);
        for pair in advice.windows(2) {
            assert!(pair[0].est_saving_cpl >= pair[1].est_saving_cpl);
        }
        for adv in &advice {
            assert!(!adv.to_string().is_empty());
        }
    }

    #[test]
    fn clean_loop_gets_little_advice() {
        // A loop already at its MA bound (no reloads, perfect chimes).
        let a = {
            let p = c240_isa::asm::assemble(
                "   mov #2560,s0
                L:
                    mov s0,vl
                    ld.l 0(a1),v0
                    mul.d v0,v0,v1
                    add.d v1,v1,v2
                    st.l v2,0(a2)
                    add.w #1024,a1
                    add.w #1024,a2
                    sub.w #128,s0
                    lt.w #0,s0
                    jbrs.t L
                    halt",
            )
            .unwrap();
            analyze_kernel(
                "clean",
                macs_compiler::MaWorkload {
                    f_a: 1,
                    f_m: 1,
                    loads: 1,
                    stores: 1,
                },
                &p,
                2560,
                &|cpu| cpu.set_areg(2, 400000),
                &SimConfig::c240(),
            )
            .unwrap()
        };
        let advice = advise(&a, 0.3);
        assert!(
            advice.len() <= 1,
            "clean loop should get at most marginal advice: {advice:?}"
        );
    }
}
