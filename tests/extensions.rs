//! Integration tests for the paper-suggested extensions: the MACS-D
//! decomposition bound, the outer-loop overhead model, the optimization
//! advisor, and the chime rescheduler — exercised on the real case-study
//! kernels and the simulator.

use c240_isa::asm::assemble;
use c240_sim::{Cpu, SimConfig};
use lfk_suite::by_id;
use macs_core::{
    advise, analyze_kernel, analyze_overhead, partition_chimes, reschedule_for_chimes,
    segmented_macs_cpl, Action, BankModel, ChimeConfig,
};

fn analyze(id: u32) -> macs_core::KernelAnalysis {
    let k = by_id(id).unwrap();
    analyze_kernel(
        &format!("LFK{id}"),
        k.ma(),
        &k.program(),
        k.iterations(),
        &|cpu| k.setup(cpu),
        &SimConfig::c240(),
        &ChimeConfig::c240(),
    )
    .unwrap()
}

// ---------- MACS-D (bank decomposition bound) -----------------------

/// Plain MACS underestimates a bank-pathological stride; MACS-D prices
/// it, and the simulator confirms it.
#[test]
fn macs_d_prices_bank_conflicts() {
    let program = assemble(
        "   mov #1280,s0
        L:
            mov s0,vl
            ld.l 0(a1):8,v0
            add.d v0,v0,v1
            st.l v1,0(a2)
            add.w #8192,a1
            add.w #1024,a2
            sub.w #128,s0
            lt.w #0,s0
            jbrs.t L
            halt",
    )
    .unwrap();
    let body = program.loop_body(program.innermost_loop().unwrap());

    let plain = partition_chimes(body, &ChimeConfig::c240());
    let with_d = partition_chimes(
        body,
        &ChimeConfig::c240().with_bank_model(BankModel::c240()),
    );
    // Stride 8 on 32 banks touches 4 banks: 2 cycles/element.
    assert!(
        with_d.cpl() > plain.cpl() * 1.4,
        "{} vs {}",
        with_d.cpl(),
        plain.cpl()
    );

    let mut cpu = Cpu::new(SimConfig::c240());
    cpu.set_areg(2, 800_000);
    let measured = cpu.run(&program).unwrap().cycles / 1280.0;
    assert!(
        measured > plain.cpl() * 1.2,
        "plain bound {} should badly underestimate measured {}",
        plain.cpl(),
        measured
    );
    assert!(
        measured >= with_d.cpl() * 0.97,
        "MACS-D {} should lower-bound measured {}",
        with_d.cpl(),
        measured
    );
    // The figures EXPERIMENTS.md quotes.
    assert_eq!(
        format!("{:.2} {:.2} {measured:.2}", plain.cpl(), with_d.cpl()),
        "2.10 3.12 3.10"
    );
}

/// On unit-stride code MACS-D changes nothing.
#[test]
fn macs_d_is_inert_for_unit_stride() {
    let k = by_id(1).unwrap();
    let program = k.program();
    let body = program.loop_body(program.innermost_loop().unwrap());
    let plain = partition_chimes(body, &ChimeConfig::c240());
    let with_d = partition_chimes(
        body,
        &ChimeConfig::c240().with_bank_model(BankModel::c240()),
    );
    assert_eq!(plain.cycles(), with_d.cycles());
}

/// The strided case-study kernels (stride 25, coprime with 32 banks)
/// are also unaffected — the paper chose its workloads well.
#[test]
fn macs_d_is_inert_for_the_case_study() {
    for id in [9u32, 10] {
        let k = by_id(id).unwrap();
        let program = k.program();
        let body = program.loop_body(program.innermost_loop().unwrap());
        let plain = partition_chimes(body, &ChimeConfig::c240());
        let with_d = partition_chimes(
            body,
            &ChimeConfig::c240().with_bank_model(BankModel::c240()),
        );
        assert_eq!(plain.cycles(), with_d.cycles(), "LFK{id}");
    }
}

// ---------- outer-loop overhead model (t_MACS+O) ---------------------

/// The extended bound closes most of LFK2's unexplained gap: plain MACS
/// explains ~66% of the measurement, MACS+O should explain ≥ 85%.
#[test]
fn extended_bound_explains_lfk2() {
    let a = analyze(2);
    let k = by_id(2).unwrap();
    let program = k.program();
    let body = program.loop_body(program.innermost_loop().unwrap());
    let cfg = ChimeConfig::c240();
    let overhead = analyze_overhead(&program, &cfg).expect("LFK2 has nested loops");

    // LFK2's per-pass segments: the halving tree 50, 25, 12, 6, 3, 1.
    let segments = [50u64, 25, 12, 6, 3, 1];
    let extended = segmented_macs_cpl(body, &cfg, &segments, &overhead);
    let plain = a.bounds.t_macs_cpl();
    let measured = a.t_p_cpl();

    assert!(extended > plain, "extended {extended} vs plain {plain}");
    let explained = extended / measured;
    assert!(
        explained > 0.85,
        "MACS+O explains {:.1}% (plain: {:.1}%)",
        100.0 * explained,
        100.0 * (plain / measured)
    );
    // MACS+O is an *estimate*, not a bound; a slight overshoot from the
    // serial chime-sum at tiny vector lengths is expected.
    assert!(
        explained < 1.15,
        "MACS+O {extended} overshoots measured {measured}"
    );
}

/// Same exercise for the triangular kernel LFK6 (segments 1..63).
#[test]
fn extended_bound_explains_lfk6() {
    let a = analyze(6);
    let k = by_id(6).unwrap();
    let program = k.program();
    let body = program.loop_body(program.innermost_loop().unwrap());
    let cfg = ChimeConfig::c240();
    let overhead = analyze_overhead(&program, &cfg).expect("LFK6 has nested loops");
    let segments: Vec<u64> = (1..=63).collect();
    let extended = segmented_macs_cpl(body, &cfg, &segments, &overhead);
    let explained = extended / a.t_p_cpl();
    assert!(
        explained > 0.75 && explained < 1.15,
        "MACS+O explains {:.1}% of LFK6 (plain: {:.1}%)",
        100.0 * explained,
        100.0 * a.pct_macs()
    );
}

// ---------- optimization advisor -------------------------------------

#[test]
fn advisor_tells_the_papers_story() {
    // LFK1/7/12: the compiler reloads shifted reuse streams.
    for id in [1u32, 7, 12] {
        let advice = advise(&analyze(id), 0.05);
        assert!(
            advice
                .iter()
                .any(|a| a.action == Action::EliminateCompilerReloads),
            "LFK{id}: {advice:?}"
        );
    }
    // LFK2/6: amortizing the outer overhead ranks at or near the top.
    for id in [2u32, 6] {
        let advice = advise(&analyze(id), 0.05);
        let pos = advice
            .iter()
            .position(|a| a.action == Action::AmortizeOuterOverhead)
            .unwrap_or(usize::MAX);
        assert!(pos <= 1, "LFK{id}: {advice:?}");
    }
    // LFK8: scheduling/hoisting and overlap dominate.
    let advice8 = advise(&analyze(8), 0.05);
    assert!(
        advice8.iter().any(|a| matches!(
            a.action,
            Action::ImproveSchedule | Action::HoistScalarMemory | Action::ImproveAxOverlap
        )),
        "{advice8:?}"
    );
}

#[test]
fn advisor_estimates_are_positive_and_ranked() {
    for id in lfk_suite::IDS {
        let advice = advise(&analyze(id), 0.05);
        for pair in advice.windows(2) {
            assert!(pair[0].est_saving_cpl >= pair[1].est_saving_cpl);
        }
        for adv in &advice {
            assert!(adv.est_saving_cpl > 0.0, "LFK{id}: {adv:?}");
        }
    }
}

// ---------- rescheduler ----------------------------------------------

/// The rescheduler recovers the interleaved bound from a loads-first
/// compiled kernel, and the reordered code still computes the same
/// values.
#[test]
fn rescheduler_repairs_a_naive_compiler_schedule() {
    use macs_compiler::{compile, load, param, CompileOptions, Kernel, ScheduleStrategy};
    // A five-load stencil: the loads-first schedule strands four
    // arithmetic ops in f-only chimes; a two-load triad would not show
    // the effect (its partitions coincide).
    let kernel = Kernel::new("stencil")
        .array("x", 2100)
        .array("y", 2100)
        .param("a", 3.0)
        .store(
            "y",
            0,
            param("a") * (load("x", 0) + load("x", 1) + load("x", 2) + load("x", 3) + load("x", 4)),
        );
    let naive = compile(
        &kernel,
        1000,
        CompileOptions {
            schedule: ScheduleStrategy::LoadsFirst,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let good = compile(&kernel, 1000, CompileOptions::default()).unwrap();

    let cfg = ChimeConfig::c240();
    let l = naive.program.innermost_loop().unwrap();
    let body = naive.program.loop_body(l);
    let resched = reschedule_for_chimes(body, &cfg);

    let naive_cpl = partition_chimes(body, &cfg).cpl();
    let resched_cpl = partition_chimes(&resched, &cfg).cpl();
    let good_l = good.program.innermost_loop().unwrap();
    let good_cpl = partition_chimes(good.program.loop_body(good_l), &cfg).cpl();

    // Reordering recovers most — not all — of the gap: the loads-first
    // *register allocation* (five simultaneously-live loads) also costs
    // chimes, and the rescheduler does not reallocate registers
    // ("reordering the sequence of instructions or reallocating the
    // registers may change the MACS bound", §3.4).
    assert!(
        resched_cpl < naive_cpl - 1.0,
        "{resched_cpl} vs naive {naive_cpl}"
    );
    assert!(
        resched_cpl <= good_cpl + 1.1,
        "rescheduled {resched_cpl} vs interleaved-compiled {good_cpl}"
    );

    // Functional equivalence of the rescheduled program.
    let rescheduled_program = naive.program.with_loop_body(l, resched);
    let run = |p: &c240_isa::Program| {
        let mut cpu = Cpu::new(SimConfig::c240());
        let xbase = naive.layout.base_word("x").unwrap();
        for i in 0..2100u64 {
            cpu.mem_mut().poke(xbase + i, (i % 17) as f64 + 0.5);
        }
        cpu.run(p).unwrap();
        let ybase = naive.layout.base_word("y").unwrap();
        (0..1000u64)
            .map(|i| cpu.mem().peek(ybase + i))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(&naive.program), run(&rescheduled_program));
}

/// Rescheduling every case-study kernel never *worsens* the bound and
/// never changes the computed values.
#[test]
fn rescheduler_is_safe_on_the_case_study() {
    let cfg = ChimeConfig::c240();
    for id in lfk_suite::IDS {
        let k = by_id(id).unwrap();
        let program = k.program();
        let l = program.innermost_loop().unwrap();
        let body = program.loop_body(l);
        let resched = reschedule_for_chimes(body, &cfg);
        let before = partition_chimes(body, &cfg).cycles();
        let after = partition_chimes(&resched, &cfg).cycles();
        assert!(after <= before + 1e-9, "LFK{id}: {after} vs {before}");

        let program2 = program.with_loop_body(l, resched);
        let mut cpu = Cpu::new(SimConfig::c240());
        k.setup(&mut cpu);
        cpu.run(&program2)
            .unwrap_or_else(|e| panic!("LFK{id} rescheduled failed: {e}"));
        k.check(&cpu)
            .unwrap_or_else(|e| panic!("LFK{id} rescheduled: {e}"));
    }
}
