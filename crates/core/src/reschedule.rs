//! Model-driven rescheduling: reorder a loop body, dependence-safely,
//! so the chime partition gets denser — the "S" of MACS turned from a
//! diagnosis into a transformation (the paper's §5 vision of a
//! goal-directed optimizing compiler).
//!
//! The transformer is deliberately conservative:
//!
//! * only *vector* instructions move, and only within a contiguous run
//!   of vector instructions (scalar, control and reduction instructions
//!   are immovable fences);
//! * register dependences (RAW, WAR, WAW on vector registers) are
//!   honored;
//! * stores are ordered against every other memory access (no alias
//!   analysis).
//!
//! Within these constraints a greedy list scheduler fills each chime
//! with at most one instruction per pipe, respecting the register-pair
//! port limits.

use c240_isa::{Instruction, Pipe};

use crate::chime::{partition_chimes, ChimeConfig};

/// Reorders `body` to minimize the chime cost; returns the new body and
/// is guaranteed to be a permutation preserving all modeled dependences.
///
/// If the reordering does not improve the partition cost, the original
/// order is returned unchanged.
///
/// # Example
///
/// A loads-first body repacks so each load chains with its consumer:
///
/// ```
/// use c240_isa::asm::assemble;
/// use macs_core::{partition_chimes, reschedule_for_chimes, ChimeConfig};
///
/// let p = assemble("L:
///     ld.l 0(a1),v0
///     ld.l 0(a2),v1
///     ld.l 0(a3),v2
///     mul.d v0,s1,v3
///     mul.d v1,s1,v4      ; second multiply strands in its own chime
///     add.d v3,v2,v5
///     jbrs.t L\n halt")?;
/// let body = p.loop_body(p.innermost_loop().unwrap());
/// let cfg = ChimeConfig::c240();
/// let before = partition_chimes(body, &cfg);
/// let after = partition_chimes(&reschedule_for_chimes(body, &cfg), &cfg);
/// assert!(after.cycles() <= before.cycles());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn reschedule_for_chimes(body: &[Instruction], config: &ChimeConfig) -> Vec<Instruction> {
    let mut out: Vec<Instruction> = Vec::with_capacity(body.len());
    let mut run: Vec<Instruction> = Vec::new();
    for ins in body {
        if movable(ins) {
            run.push(ins.clone());
        } else {
            flush_run(&mut out, &mut run, config);
            out.push(ins.clone());
        }
    }
    flush_run(&mut out, &mut run, config);

    let before = partition_chimes(body, config).cycles();
    let after = partition_chimes(&out, config).cycles();
    if after < before {
        out
    } else {
        body.to_vec()
    }
}

/// Vector instructions that neither touch scalar state nor carry
/// reduction semantics may be reordered.
fn movable(ins: &Instruction) -> bool {
    ins.is_vector()
        && !matches!(
            ins,
            Instruction::VSum { .. } | Instruction::VRAdd { .. } | Instruction::VRSub { .. }
        )
}

fn flush_run(out: &mut Vec<Instruction>, run: &mut Vec<Instruction>, config: &ChimeConfig) {
    if run.is_empty() {
        return;
    }
    let scheduled = schedule_run(run, config);
    out.extend(scheduled);
    run.clear();
}

/// Dependence edges within a run: `deps[j]` lists indices that must
/// precede instruction `j`.
fn dependences(run: &[Instruction]) -> Vec<Vec<usize>> {
    let n = run.len();
    let mut deps = vec![Vec::new(); n];
    for j in 0..n {
        for i in 0..j {
            if depends(&run[i], &run[j]) {
                deps[j].push(i);
            }
        }
    }
    deps
}

/// Whether `later` must stay after `earlier`.
fn depends(earlier: &Instruction, later: &Instruction) -> bool {
    // Register dependences.
    let ew = earlier.vector_write();
    let lw = later.vector_write();
    let raw = ew.is_some_and(|w| later.vector_reads().contains(&w));
    let war = lw.is_some_and(|w| earlier.vector_reads().contains(&w));
    let waw = ew.is_some() && ew == lw;
    if raw || war || waw {
        return true;
    }
    // Memory order: stores fence all memory accesses (no alias info).
    let emem = earlier.is_vector_memory();
    let lmem = later.is_vector_memory();
    let estore = matches!(earlier, Instruction::VStore { .. });
    let lstore = matches!(later, Instruction::VStore { .. });
    emem && lmem && (estore || lstore)
}

/// Greedy chime-packing list scheduler over one run.
fn schedule_run(run: &[Instruction], config: &ChimeConfig) -> Vec<Instruction> {
    let n = run.len();
    let deps = dependences(run);
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);

    // Pipe preference inside a chime: memory first (it anchors the
    // chime), then multiply, then add — matching how the paper's dense
    // schedules look.
    let pipe_rank = |ins: &Instruction| match ins.pipe().expect("vector instruction") {
        Pipe::LoadStore => 0,
        Pipe::Multiply => 1,
        Pipe::Add => 2,
    };

    while order.len() < n {
        // Open a fresh chime.
        let mut pipes = [false; 3];
        let mut reads = [0u8; 4];
        let mut writes = [0u8; 4];
        let mut placed_any = false;
        loop {
            // Candidates: unemitted, all deps emitted, fits the chime.
            let mut best: Option<usize> = None;
            for j in 0..n {
                if emitted[j] || !deps[j].iter().all(|&d| emitted[d]) {
                    continue;
                }
                let ins = &run[j];
                let slot = ins.pipe().expect("vector instruction").index();
                if pipes[slot] {
                    continue;
                }
                if config.machine.pair_constraint {
                    let (r, w) = ins.pair_usage();
                    let fits = (0..4).all(|p| reads[p] + r[p] <= 2 && writes[p] + w[p] <= 1);
                    if !fits {
                        continue;
                    }
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let (rb, rj) = (pipe_rank(&run[b]), pipe_rank(ins));
                        rj < rb || (rj == rb && j < b)
                    }
                };
                if better {
                    best = Some(j);
                }
            }
            let Some(j) = best else { break };
            let ins = &run[j];
            let slot = ins.pipe().expect("vector instruction").index();
            pipes[slot] = true;
            let (r, w) = ins.pair_usage();
            for p in 0..4 {
                reads[p] += r[p];
                writes[p] += w[p];
            }
            emitted[j] = true;
            order.push(ins.clone());
            placed_any = true;
        }
        assert!(
            placed_any,
            "scheduler made no progress (cyclic dependence?)"
        );
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use c240_isa::asm::assemble;
    use c240_sim::{Cpu, SimConfig};

    fn body_of(src: &str) -> Vec<Instruction> {
        let p = assemble(src).unwrap();
        let l = p.innermost_loop().unwrap();
        p.loop_body(l).to_vec()
    }

    const LOADS_FIRST: &str = "   mov #1280,s0
    L:
        mov s0,vl
        ld.l 0(a1),v0
        ld.l 0(a2),v2
        mul.d v0,s1,v1
        add.d v1,v2,v3
        st.l v3,0(a3)
        add.w #1024,a1
        add.w #1024,a2
        add.w #1024,a3
        sub.w #128,s0
        lt.w #0,s0
        jbrs.t L
        halt";

    #[test]
    fn packs_loads_first_schedule_tighter() {
        let body = body_of(LOADS_FIRST);
        let config = ChimeConfig::c240();
        let before = partition_chimes(&body, &config);
        let resched = reschedule_for_chimes(&body, &config);
        let after = partition_chimes(&resched, &config);
        assert!(
            after.cycles() <= before.cycles(),
            "{} vs {}",
            after.cycles(),
            before.cycles()
        );
        // The triad packs into 3 memory-anchored chimes.
        assert_eq!(after.chimes().len(), 3);
    }

    #[test]
    fn rescheduled_code_computes_the_same_values() {
        let program = assemble(LOADS_FIRST).unwrap();
        let l = program.innermost_loop().unwrap();
        let config = ChimeConfig::c240();
        let resched = reschedule_for_chimes(program.loop_body(l), &config);
        let program2 = program.with_loop_body(l, resched);

        let run = |p: &c240_isa::Program| {
            let mut cpu = Cpu::new(SimConfig::c240());
            for i in 0..2048u64 {
                cpu.mem_mut().poke(i, (i % 13) as f64 + 0.5);
                cpu.mem_mut().poke(40960 + i, (i % 7) as f64 + 0.25);
            }
            cpu.set_areg(1, 0);
            cpu.set_areg(2, 40960 * 8);
            cpu.set_areg(3, 90000 * 8);
            cpu.set_sreg_fp(1, 1.5);
            cpu.run(p).unwrap();
            (0..1280u64)
                .map(|i| cpu.mem().peek(90000 + i))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&program), run(&program2));
    }

    #[test]
    fn dependences_are_respected() {
        // mul consumes the load's result: cannot move before it.
        let body = body_of(
            "L:
            ld.l 0(a1),v0
            mul.d v0,s1,v1
            jbrs.t L
            halt",
        );
        let resched = reschedule_for_chimes(&body, &ChimeConfig::c240());
        let ld_pos = resched.iter().position(|i| i.is_vector_memory()).unwrap();
        let mul_pos = resched
            .iter()
            .position(|i| matches!(i, Instruction::VMul { .. }))
            .unwrap();
        assert!(ld_pos < mul_pos);
    }

    #[test]
    fn stores_fence_memory_order() {
        // st then ld of possibly-aliasing memory must not swap.
        let body = body_of(
            "L:
            st.l v0,0(a1)
            ld.l 0(a1),v1
            jbrs.t L
            halt",
        );
        let resched = reschedule_for_chimes(&body, &ChimeConfig::c240());
        assert!(matches!(
            resched.iter().find(|i| i.is_vector_memory()).unwrap(),
            Instruction::VStore { .. }
        ));
    }

    #[test]
    fn reductions_and_scalars_do_not_move() {
        let body = body_of(
            "L:
            ld.l 0(a1),v0
            radd.d v0,s4
            ld.l 0(a2),v1
            jbrs.t L
            halt",
        );
        let resched = reschedule_for_chimes(&body, &ChimeConfig::c240());
        // The reduction stays between the two loads (fences both runs);
        // a cost-neutral result returns the original order.
        let kinds: Vec<bool> = resched
            .iter()
            .map(|i| matches!(i, Instruction::VRAdd { .. }))
            .collect();
        assert_eq!(kinds.iter().filter(|&&k| k).count(), 1);
        assert!(kinds[1], "reduction moved: {resched:?}");
    }

    #[test]
    fn already_good_schedules_are_left_alone() {
        let body = body_of(
            "L:
            ld.l 0(a1),v0
            mul.d v0,s1,v1
            ld.l 0(a2),v2
            add.d v1,v2,v3
            st.l v3,0(a3)
            jbrs.t L
            halt",
        );
        let config = ChimeConfig::c240();
        let resched = reschedule_for_chimes(&body, &config);
        let before = partition_chimes(&body, &config).cycles();
        let after = partition_chimes(&resched, &config).cycles();
        assert!(after <= before);
    }
}
