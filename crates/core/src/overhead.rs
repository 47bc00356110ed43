//! Outer-loop and startup overhead modeling — the extension the paper
//! points to for its unexplained kernels (§4.4, LFK2: "Outer loop
//! overhead and scalar code could be modeled as in \[5\]").
//!
//! The steady-state MACS bound deliberately ignores everything that
//! happens *between* entries of the vectorized inner loop: the scalar
//! control block of the enclosing loop, pipeline fill on entry, and
//! drain on exit. For kernels whose vector segments are short (LFK 2's
//! halving tree, LFK 6's triangle, LFK 4's three bands) these terms
//! dominate. [`OverheadModel`] estimates them statically from the
//! program, and [`segmented_macs_cpl`] combines them with per-segment
//! chime costs into an *extended bound* `t_MACS+O`.

use c240_isa::{InstrClass, Instruction, Program};

use crate::chime::{partition_chimes, ChimeConfig};

/// Static per-entry overhead costs of a program's inner loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Scalar cycles executed per inner-loop *entry* (the enclosing
    /// loop's control block: issue slots, branch penalties, scalar
    /// memory accesses).
    pub scalar_cycles_per_entry: f64,
    /// Pipeline fill + drain cycles per entry (first results must
    /// traverse `X + Y`; the last chime must drain before the scalar
    /// epilogue can observe results).
    pub startup_cycles_per_entry: f64,
}

impl OverheadModel {
    /// Total per-entry overhead in cycles.
    pub fn per_entry(&self) -> f64 {
        self.scalar_cycles_per_entry + self.startup_cycles_per_entry
    }
}

/// Cost constants for scalar instructions, matching the simulator's
/// scalar timing model. Roughly half of the plain scalar control block
/// is masked under the preceding segment's vector drain (the [5]-style
/// models the paper cites fit such masking factors empirically); memory
/// accesses and taken branches serialize and are charged in full.
const ISSUE: f64 = 1.0;
const SCALAR_MASK: f64 = 0.5;
const BRANCH_PENALTY: f64 = 2.0;
const SCALAR_MEM_EXTRA: f64 = 3.0; // cache hit + port arbitration

/// Estimates the per-entry overhead of a program's innermost loop:
/// the instructions of its *enclosing* loop body (outside the inner
/// loop) are charged as the scalar control block, and the inner loop's
/// first/last chime latencies as fill/drain.
///
/// Returns `None` if the program has no loop.
pub fn analyze_overhead(program: &Program, config: &ChimeConfig) -> Option<OverheadModel> {
    let loops = program.loops();
    let inner = program.innermost_loop()?;

    // The tightest loop strictly containing the inner loop, if any.
    let enclosing = loops
        .iter()
        .filter(|l| l.head <= inner.head && l.branch >= inner.branch && l.len() > inner.len())
        .min_by_key(|l| l.len());

    let mut scalar = 0.0;
    if let Some(outer) = enclosing {
        for idx in outer.body() {
            if idx >= inner.head && idx <= inner.branch {
                continue;
            }
            let ins = &program.instructions()[idx];
            scalar += match ins.class() {
                InstrClass::ScalarMem => ISSUE + SCALAR_MEM_EXTRA,
                InstrClass::Control => ISSUE + BRANCH_PENALTY,
                InstrClass::Scalar => ISSUE * SCALAR_MASK,
                // Vector work outside the inner loop is epilogue/prologue
                // work per entry: charge its serial latency.
                InstrClass::VectorFp | InstrClass::VectorMem => {
                    let t = config
                        .timing
                        .get(ins.timing_class().expect("vector instruction"));
                    t.x + t.y
                }
            };
        }
    }

    // Fill: the first element result of the deepest chained chime needs
    // X + Y per chain level; drain symmetric. Estimate from the largest
    // chime of the body.
    let body = program.loop_body(inner);
    let part = partition_chimes(body, config);
    let _ = &part; // the partition validates the body shape
    let y_max = [
        c240_isa::TimingClass::Load,
        c240_isa::TimingClass::Mul,
        c240_isa::TimingClass::Add,
    ]
    .iter()
    .map(|&c| config.timing.get(c).y)
    .fold(0.0, f64::max);
    let startup = 2.0 + y_max;

    Some(OverheadModel {
        scalar_cycles_per_entry: scalar,
        startup_cycles_per_entry: startup,
    })
}

/// The extended bound `t_MACS+O` in CPL for a loop executed as a
/// sequence of *segments* (vector-entry lengths in iterations):
/// each segment is strip-mined at the hardware vector length, charged
/// its chime costs at the actual strip VLs, plus one per-entry overhead.
///
/// # Panics
///
/// Panics if `segments` is empty or contains a zero.
///
/// # Example
///
/// Short segments pay their startup over fewer iterations:
///
/// ```
/// use c240_isa::asm::assemble;
/// use macs_core::{segmented_macs_cpl, ChimeConfig, OverheadModel};
///
/// let p = assemble("L:\n ld.l 0(a1),v0\n add.d v0,v0,v1\n jbrs.t L\n halt")?;
/// let body = p.loop_body(p.innermost_loop().unwrap());
/// let overhead = OverheadModel {
///     scalar_cycles_per_entry: 20.0,
///     startup_cycles_per_entry: 14.0,
/// };
/// let cfg = ChimeConfig::c240();
/// let long = segmented_macs_cpl(body, &cfg, &[1024], &overhead);
/// let short = segmented_macs_cpl(body, &cfg, &[16; 64], &overhead);
/// assert!(short > 2.0 * long);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn segmented_macs_cpl(
    body: &[Instruction],
    config: &ChimeConfig,
    segments: &[u64],
    overhead: &OverheadModel,
) -> f64 {
    assert!(!segments.is_empty(), "need at least one segment");
    let max_vl = u64::from(config.vl);
    let mut total_cycles = 0.0;
    let mut total_iterations = 0u64;
    for &len in segments {
        assert!(len > 0, "segments must be nonempty");
        total_iterations += len;
        let mut remaining = len;
        while remaining > 0 {
            let vl = remaining.min(max_vl) as u32;
            let part = partition_chimes(body, &config.clone().with_vl(vl));
            total_cycles += part.cycles();
            remaining -= u64::from(vl);
        }
        total_cycles += overhead.per_entry();
    }
    total_cycles / total_iterations as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_isa::asm::assemble;

    fn nested() -> Program {
        assemble(
            "   mov #10,a0
            outer:
                mov #4096,a1
                mov #1000,s0
                ld.w 0(a7),a2
            L:
                mov s0,vl
                ld.l 0(a1),v0
                add.d v0,v0,v1
                st.l v1,0(a2)
                add.w #1024,a1
                add.w #1024,a2
                sub.w #128,s0
                lt.w #0,s0
                jbrs.t L
                sub.w #1,a0
                lt.w #0,a0
                jbrs.t outer
                halt",
        )
        .unwrap()
    }

    #[test]
    fn overhead_counts_enclosing_block() {
        let m = analyze_overhead(&nested(), &ChimeConfig::c240()).unwrap();
        // Outer block: 3 movs (masked half) + 1 scalar load + sub + cmp
        // + branch.
        assert!(m.scalar_cycles_per_entry >= 8.0, "{m:?}");
        assert!(m.scalar_cycles_per_entry <= 20.0, "{m:?}");
        assert!(m.startup_cycles_per_entry >= 12.0);
    }

    #[test]
    fn no_loop_no_overhead() {
        let p = assemble("nop\nhalt").unwrap();
        assert!(analyze_overhead(&p, &ChimeConfig::c240()).is_none());
    }

    #[test]
    fn innermost_only_loop_has_no_scalar_block() {
        let p = assemble(
            "L:
            ld.l 0(a1),v0
            jbrs.t L
            halt",
        )
        .unwrap();
        let m = analyze_overhead(&p, &ChimeConfig::c240()).unwrap();
        assert_eq!(m.scalar_cycles_per_entry, 0.0);
    }

    #[test]
    fn segmented_bound_grows_as_segments_shrink() {
        let p = nested();
        let body = p.loop_body(p.innermost_loop().unwrap());
        let cfg = ChimeConfig::c240();
        let m = analyze_overhead(&p, &cfg).unwrap();
        let long = segmented_macs_cpl(body, &cfg, &[1024], &m);
        let short = segmented_macs_cpl(body, &cfg, &[64; 16], &m);
        let tiny = segmented_macs_cpl(body, &cfg, &[8; 128], &m);
        assert!(
            short > long * 1.15,
            "short-segment CPL {short} vs long {long}"
        );
        assert!(tiny > short * 1.5, "tiny {tiny} vs short {short}");
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_segments_panic() {
        let p = nested();
        let body = p.loop_body(p.innermost_loop().unwrap());
        let m = OverheadModel {
            scalar_cycles_per_entry: 0.0,
            startup_cycles_per_entry: 0.0,
        };
        let _ = segmented_macs_cpl(body, &ChimeConfig::c240(), &[], &m);
    }
}
