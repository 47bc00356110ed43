//! Functional cross-validation: every kernel's simulated results equal
//! its reference implementation — under every timing configuration,
//! because timing must never change semantics.

use c240_mem::ContentionConfig;
use c240_sim::{Cpu, SimConfig};
use lfk_suite::{all, by_id};

#[test]
fn all_kernels_match_reference_on_the_paper_machine() {
    for kernel in all() {
        let mut cpu = Cpu::new(SimConfig::c240());
        kernel.setup(&mut cpu);
        cpu.run(&kernel.program())
            .unwrap_or_else(|e| panic!("LFK{} failed to run: {e}", kernel.id()));
        kernel
            .check(&cpu)
            .unwrap_or_else(|e| panic!("LFK{}: {e}", kernel.id()));
    }
}

#[test]
fn timing_configuration_never_changes_results() {
    let configs = [
        SimConfig::c240().without_refresh(),
        SimConfig::c240().without_bubbles(),
        SimConfig::c240().without_chaining(),
        SimConfig::c240().without_pair_constraint(),
        SimConfig {
            contention: ContentionConfig::mixed(3),
            ..SimConfig::c240()
        },
    ];
    // The structurally distinct kernels cover all instruction classes.
    for id in [1u32, 2, 4, 8, 10] {
        for config in &configs {
            let kernel = by_id(id).unwrap();
            let mut cpu = Cpu::new(config.clone());
            kernel.setup(&mut cpu);
            cpu.run(&kernel.program())
                .unwrap_or_else(|e| panic!("LFK{id} failed: {e}"));
            kernel
                .check(&cpu)
                .unwrap_or_else(|e| panic!("LFK{id} with {config:?}: {e}"));
        }
    }
}

#[test]
fn contention_slows_but_lockstep_slows_less() {
    // A unit-stride memory-bound kernel: the lockstep phenomenon (§4.2)
    // is about same-executable neighbors whose unit-stride streams
    // interleave; strided streams (LFK 9/10) cannot settle in and pay
    // closer to the mixed-program penalty.
    let run = |config: SimConfig| {
        let kernel = by_id(12).unwrap();
        let mut cpu = Cpu::new(config);
        kernel.setup(&mut cpu);
        cpu.run(&kernel.program()).unwrap().cycles
    };
    let idle = run(SimConfig::c240());
    let lockstep = run(SimConfig {
        contention: ContentionConfig::lockstep(3),
        ..SimConfig::c240()
    });
    let mixed = run(SimConfig {
        contention: ContentionConfig::mixed(3),
        ..SimConfig::c240()
    });
    assert!(idle < lockstep, "idle {idle} vs lockstep {lockstep}");
    assert!(lockstep < mixed, "lockstep {lockstep} vs mixed {mixed}");
    // §4.2's rule of thumb: different programs cost roughly 20%+ on a
    // memory-bound loop; same-executable neighbors far less.
    assert!(mixed / idle > 1.15, "mixed slowdown {}", mixed / idle);
    assert!(
        lockstep / idle < 1.15,
        "lockstep slowdown {}",
        lockstep / idle
    );
}

#[test]
fn a_and_x_processes_run_for_every_kernel() {
    for kernel in all() {
        let program = kernel.program();
        for (what, transformed) in [
            ("A", macs_core::a_process(&program)),
            ("X", macs_core::x_process(&program)),
        ] {
            let mut cpu = Cpu::new(SimConfig::c240());
            kernel.setup(&mut cpu);
            macs_core::prime_registers(&mut cpu);
            let stats = cpu
                .run(&transformed)
                .unwrap_or_else(|e| panic!("LFK{} {what}-process failed: {e}", kernel.id()));
            assert!(stats.cycles > 0.0);
        }
    }
}
