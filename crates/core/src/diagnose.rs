//! Automated gap diagnosis: the §4.4 reasoning as decision rules.
//!
//! Each [`Finding`] names a specific cause of lost performance, derived
//! from the relative positions of the bounds and measurements in the
//! hierarchy — the paper's per-kernel commentary, mechanized.

use std::fmt;

use crate::analysis::KernelAnalysis;

/// A diagnosed cause of performance loss (or an all-clear).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Finding {
    /// The MACS bound explains ~90% or more of measured time: the
    /// schedule model captures the loop; optimize the workload, not the
    /// model (LFK 1, 3, 7, 8, 9, 10, 12 — the paper's §4.4 counts 86-91%
    /// as "small gap").
    NearBound {
        /// `t_MACS / t_p`.
        explained: f64,
    },
    /// The compiler inserted memory operations beyond the ideal —
    /// typically reloads of shifted reused vectors (LFK 1, 7, 12).
    CompilerInsertedMemOps {
        /// `t'_m − t_m` in CPL.
        extra_cpl: f64,
    },
    /// Vector adds and multiplies do not overlap perfectly into chimes:
    /// `t^f_MACS − t'_f > 1` (LFK 7's ninth chime).
    ImperfectFpOverlap {
        /// `t^f_MACS − t'_f` in CPL.
        gap_cpl: f64,
    },
    /// Scalar memory accesses split potential chimes; `t_MACS` rises
    /// far above `t'_m` and `t'_f` (LFK 8).
    ScalarSplitsChimes {
        /// Number of forced chime boundaries per iteration.
        splits: u32,
        /// Measured memory-port serialization per iteration: cycles the
        /// probed run attributed to [`c240_sim::StallCause::MemPortConflict`],
        /// in CPL.
        mem_port_stall_cpl: f64,
    },
    /// The A- and X-processes overlap poorly:
    /// `t_p` is much greater than `max(t_a, t_x)` (LFK 2, 4, 6, 8).
    PoorAxOverlap {
        /// Overlap quality, 1 = perfect, 0 = fully serialized.
        overlap: f64,
    },
    /// Memory accesses dominate: `t_a ≫ t_x` and `t_p ≈ t_a`.
    MemoryBottleneck {
        /// Measured memory wait per iteration (bank + refresh +
        /// contention), in CPL.
        wait_cpl: f64,
        /// The bank-busy share of `wait_cpl`.
        bank_busy_cpl: f64,
        /// The refresh share of `wait_cpl`.
        refresh_cpl: f64,
        /// The contention share of `wait_cpl`: waits behind banks
        /// claimed by *other* traffic — co-simulated neighbor CPUs
        /// (`c240_sim::Machine`) or synthetic background streams.
        contention_cpl: f64,
    },
    /// Vector reductions interact badly with memory accesses:
    /// execute-only time dominates and the loop carries a reduction
    /// (LFK 4, 6).
    ReductionBottleneck {
        /// Measured post-reduction pipe serialization per iteration:
        /// cycles attributed to
        /// [`c240_sim::StallCause::ReductionDrain`], in CPL.
        drain_cpl: f64,
    },
    /// Much of the measured time is unmodeled (outer-loop overhead,
    /// short vectors, scalar code): `t_MACS` explains little of `t_p`
    /// (LFK 2, 4, 6).
    UnmodeledEffects {
        /// `t_MACS / t_p`.
        explained: f64,
    },
    /// The analytic roofline classification (intensity vs ridge,
    /// DESIGN.md §16) disagrees with the measured stall-taxonomy side —
    /// either the MA intensity misrepresents the compiled code's traffic
    /// or an unmodeled hazard dominates the run.
    RooflineMismatch {
        /// What the intensity-vs-ridge rule concluded.
        analytic: crate::roofline::BoundClass,
        /// What the measured occupancy rollup concluded.
        measured: crate::roofline::BoundClass,
        /// The kernel's operational intensity, in flops per word.
        intensity: f64,
        /// The machine's ridge point, in flops per word.
        ridge: f64,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::NearBound { explained } => write!(
                f,
                "MACS bound explains {:.1}% of run time; the schedule model captures this loop",
                100.0 * explained
            ),
            Finding::CompilerInsertedMemOps { extra_cpl } => write!(
                f,
                "compiler inserted {extra_cpl:.1} extra memory ops/iteration beyond perfect reuse \
                 (vector reload of shifted reused data)"
            ),
            Finding::ImperfectFpOverlap { gap_cpl } => write!(
                f,
                "adds and multiplies overlap imperfectly into chimes (t^f exceeds t'_f by \
                 {gap_cpl:.2} CPL)"
            ),
            Finding::ScalarSplitsChimes {
                splits,
                mem_port_stall_cpl,
            } => write!(
                f,
                "{splits} scalar memory access(es) per iteration split potential chimes \
                 (measured {mem_port_stall_cpl:.2} CPL of memory-port serialization)"
            ),
            Finding::PoorAxOverlap { overlap } => write!(
                f,
                "access and execute processes overlap poorly (overlap quality {overlap:.2})"
            ),
            Finding::MemoryBottleneck {
                wait_cpl,
                bank_busy_cpl,
                refresh_cpl,
                contention_cpl,
            } => write!(
                f,
                "performance is bottlenecked in the access (memory) process \
                 (measured {wait_cpl:.2} CPL of memory wait: {bank_busy_cpl:.2} bank busy, \
                 {refresh_cpl:.2} refresh, {contention_cpl:.2} contention from other traffic)"
            ),
            Finding::ReductionBottleneck { drain_cpl } => write!(
                f,
                "vector reduction interacts with memory accesses as the chief bottleneck \
                 (measured {drain_cpl:.2} CPL of post-reduction pipe drain)"
            ),
            Finding::UnmodeledEffects { explained } => write!(
                f,
                "unmodeled effects dominate: MACS explains only {:.1}% (outer-loop overhead, \
                 short vectors, scalar code)",
                100.0 * explained
            ),
            Finding::RooflineMismatch {
                analytic,
                measured,
                intensity,
                ridge,
            } => write!(
                f,
                "roofline cross-check disagrees: intensity {intensity:.2} flops/word vs ridge \
                 {ridge:.2} says {analytic}-bound, but the measured stall taxonomy says \
                 {measured}-bound"
            ),
        }
    }
}

/// Applies the §4.4 decision rules to an analysis.
///
/// Where the probed run measured a matching stall category, the finding
/// carries the measured cycles (per iteration, in CPL) so the diagnosis
/// is backed by counters rather than bound arithmetic alone.
pub fn diagnose(a: &KernelAnalysis) -> Vec<Finding> {
    use c240_sim::StallCause;

    let mut findings = Vec::new();
    let explained = a.pct_macs();
    let iters = a.measured.iterations.max(1) as f64;
    let stall_totals = a.telemetry.totals();

    if explained >= 0.88 {
        findings.push(Finding::NearBound { explained });
    } else if explained < 0.75 {
        findings.push(Finding::UnmodeledEffects { explained });
    }

    let extra_mem = a.bounds.mac.t_m() - a.bounds.ma.t_m();
    if extra_mem >= 1.0 {
        findings.push(Finding::CompilerInsertedMemOps {
            extra_cpl: extra_mem,
        });
    }

    let fp_gap = a.bounds.macs.f_cpl() - a.bounds.mac.t_f();
    if fp_gap > 1.0 {
        findings.push(Finding::ImperfectFpOverlap { gap_cpl: fp_gap });
    }

    let splits = a.bounds.macs.full.scalar_splits();
    if splits > 0 {
        findings.push(Finding::ScalarSplitsChimes {
            splits,
            mem_port_stall_cpl: stall_totals.get(StallCause::MemPortConflict) / iters,
        });
    }

    let overlap = a.ax_overlap();
    if overlap < 0.6 {
        findings.push(Finding::PoorAxOverlap { overlap });
    }

    if a.t_a_cpl() > 1.25 * a.t_x_cpl() && a.pct_macs() >= 0.75 {
        let waits = a.measured.stats.memory_waits;
        findings.push(Finding::MemoryBottleneck {
            wait_cpl: waits.total() / iters,
            bank_busy_cpl: waits.bank_busy / iters,
            refresh_cpl: waits.refresh / iters,
            contention_cpl: waits.contention / iters,
        });
    }

    if a.has_reduction && a.t_x_cpl() > 1.1 * a.t_a_cpl() {
        findings.push(Finding::ReductionBottleneck {
            drain_cpl: stall_totals.get(StallCause::ReductionDrain) / iters,
        });
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_kernel;
    use c240_isa::asm::assemble;
    use c240_sim::SimConfig;
    use macs_compiler::MaWorkload;

    fn analyze(src: &str, ma: MaWorkload, iterations: u64) -> KernelAnalysis {
        let p = assemble(src).unwrap();
        analyze_kernel(
            "test",
            ma,
            &p,
            iterations,
            &|cpu| {
                cpu.set_sreg_fp(1, 2.0);
            },
            &SimConfig::c240(),
        )
        .unwrap()
    }

    #[test]
    fn clean_loop_is_near_bound() {
        let a = analyze(
            "   mov #2560,s0
            L:
                mov s0,vl
                ld.l 0(a1),v0
                mul.d v0,s1,v1
                st.l v1,0(a2)
                add.w #1024,a1
                add.w #1024,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                halt",
            MaWorkload {
                f_a: 0,
                f_m: 1,
                loads: 1,
                stores: 1,
            },
            2560,
        );
        let findings = a.findings();
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, Finding::NearBound { .. })),
            "{findings:?}"
        );
        // Memory-bound loop: t_a >> t_x, and the finding cites the
        // measured wait breakdown.
        let mem = findings
            .iter()
            .find(|f| matches!(f, Finding::MemoryBottleneck { .. }))
            .expect("memory bottleneck diagnosed");
        if let Finding::MemoryBottleneck {
            wait_cpl,
            bank_busy_cpl,
            refresh_cpl,
            contention_cpl,
        } = mem
        {
            assert!(
                (wait_cpl - (bank_busy_cpl + refresh_cpl + contention_cpl)).abs() < 1e-9,
                "breakdown must sum to the total wait"
            );
            assert!(*refresh_cpl > 0.0, "refresh runs on the full machine");
        }
    }

    #[test]
    fn compiler_reloads_are_flagged() {
        // MA says 1 load; the code does 3 (LFK1-style reloads).
        let a = analyze(
            "   mov #2560,s0
            L:
                mov s0,vl
                ld.l 0(a1),v0
                ld.l 8(a1),v1
                ld.l 16(a1),v2
                add.d v0,v1,v3
                add.d v3,v2,v4
                st.l v4,0(a2)
                add.w #1024,a1
                add.w #1024,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                halt",
            MaWorkload {
                f_a: 2,
                f_m: 0,
                loads: 1,
                stores: 1,
            },
            2560,
        );
        assert!(a
            .findings()
            .iter()
            .any(|f| matches!(f, Finding::CompilerInsertedMemOps { .. })));
    }

    #[test]
    fn scalar_splits_are_flagged() {
        let a = analyze(
            "   mov #2560,s0
            L:
                mov s0,vl
                ld.l 0(a1),v0
                ld.w 0(a0),a3
                ld.l 0(a3),v1
                add.d v0,v1,v2
                st.l v2,0(a2)
                add.w #1024,a1
                add.w #1024,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                halt",
            MaWorkload {
                f_a: 1,
                f_m: 0,
                loads: 2,
                stores: 1,
            },
            2560,
        );
        let findings = a.findings();
        let split = findings
            .iter()
            .find(|f| matches!(f, Finding::ScalarSplitsChimes { .. }))
            .expect("scalar split diagnosed");
        if let Finding::ScalarSplitsChimes {
            mem_port_stall_cpl, ..
        } = split
        {
            assert!(
                *mem_port_stall_cpl > 0.0,
                "scalar split must show measured memory-port serialization"
            );
        }
    }

    #[test]
    fn reduction_bottleneck_flagged() {
        let a = analyze(
            "   mov #2560,s0
            L:
                mov s0,vl
                ld.l 0(a1),v0
                mul.d v0,s1,v1
                radd.d v1,s2
                add.w #1024,a1
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                halt",
            MaWorkload {
                f_a: 1,
                f_m: 1,
                loads: 1,
                stores: 0,
            },
            2560,
        );
        assert!(a.has_reduction);
        let findings = a.findings();
        let red = findings
            .iter()
            .find(|f| matches!(f, Finding::ReductionBottleneck { .. }))
            .unwrap_or_else(|| panic!("{findings:?} t_x={} t_a={}", a.t_x_cpl(), a.t_a_cpl()));
        if let Finding::ReductionBottleneck { drain_cpl } = red {
            assert!(
                *drain_cpl > 0.0,
                "reduction loop must show measured pipe drain"
            );
        }
    }

    #[test]
    fn findings_display() {
        for f in [
            Finding::NearBound { explained: 0.95 },
            Finding::CompilerInsertedMemOps { extra_cpl: 1.0 },
            Finding::ImperfectFpOverlap { gap_cpl: 1.1 },
            Finding::ScalarSplitsChimes {
                splits: 8,
                mem_port_stall_cpl: 12.5,
            },
            Finding::PoorAxOverlap { overlap: 0.3 },
            Finding::MemoryBottleneck {
                wait_cpl: 2.0,
                bank_busy_cpl: 1.0,
                refresh_cpl: 0.5,
                contention_cpl: 0.5,
            },
            Finding::ReductionBottleneck { drain_cpl: 40.0 },
            Finding::UnmodeledEffects { explained: 0.4 },
            Finding::RooflineMismatch {
                analytic: crate::roofline::BoundClass::Compute,
                measured: crate::roofline::BoundClass::Memory,
                intensity: 2.4,
                ridge: 2.0,
            },
        ] {
            assert!(!f.to_string().is_empty());
        }
    }
}
