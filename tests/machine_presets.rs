//! Machine-description presets: exactness and transfer.
//!
//! The declarative [`MachineDescription`] refactor is only allowed to
//! exist because `MachineDescription::c240()` reproduces the historical
//! hard-coded C-240 *bit-identically* — same configuration structs,
//! same statistics, same wait breakdowns, same per-pc telemetry, with
//! fast-forward on and off. The exactness matrix here pins that
//! contract across the whole LFK suite.
//!
//! The non-C-240 presets then demonstrate the paper's §6 claim that the
//! methodology transfers: more banks strictly reduce bank-busy waits,
//! fewer ports shift the multi-CPU contention bands, and the MACS
//! bounds hierarchy stays monotone on machines nobody hand-tuned the
//! model for.

use c240_isa::asm::assemble;
use c240_isa::{MachineDescription, ScalarTiming, TimingTable, PRESET_NAMES};
use c240_mem::ContentionConfig;
use c240_sim::{ConfigError, CounterProbe, Cpu, Machine, RunStats, SimConfig};
use macs_core::ChimeConfig;
use macs_experiments::Ablation;

/// The C-240 configuration as the pre-refactor code spelled it: every
/// constant written out literally, none derived from a description.
/// This is the frozen reference the preset must keep matching.
fn legacy_literal_c240() -> SimConfig {
    SimConfig {
        machine: MachineDescription {
            name: "c240".into(),
            chaining: true,
            pair_constraint: true,
            timing: TimingTable::c240(),
            scalar: ScalarTiming {
                issue: 1.0,
                branch_taken_penalty: 2.0,
                int_latency: 1.0,
                fp_add_latency: 2.0,
                fp_mul_latency: 3.0,
                fp_div_latency: 12.0,
            },
            banks: 32,
            bank_busy: 8,
            refresh_period: 400,
            refresh_len: 8,
            refresh_enabled: true,
            words: 1 << 20,
            cache_lines: 256,
            cache_line_words: 4,
            cache_hit_latency: 2,
            cache_miss_penalty: 4,
            ports: 4,
        },
        contention: ContentionConfig::idle(),
        max_instructions: 200_000_000,
        fast_forward: true,
        cpus: 1,
    }
}

#[test]
fn c240_preset_equals_the_legacy_literal_config() {
    let literal = legacy_literal_c240();
    assert_eq!(SimConfig::c240(), literal);
    assert_eq!(SimConfig::for_machine(&MachineDescription::c240()), literal);
    // The bound model holds the same machine the simulator runs.
    assert_eq!(ChimeConfig::c240().machine, literal.machine);
    // The 1.02 refresh factor of §3.2 must come out of the description's
    // integer fields exactly, not as a nearby float.
    assert_eq!(MachineDescription::c240().refresh_factor(), 1.02);
}

/// The paper's ordering t_MA ≤ t_MAC ≤ t_MACS ≤ t_p on every preset
/// under every ablation, for every kernel: the bounds come from the
/// bound model of the ablated machine, t_p from simulating that same
/// machine, so the two sides can only agree if every field the bounds
/// read is one the simulator runs.
#[test]
fn bound_ladder_holds_on_every_preset_and_ablation() {
    let mut cases = Vec::new();
    for machine in MachineDescription::presets() {
        let sim = SimConfig::for_machine(&machine);
        for ablation in Ablation::ALL {
            let cfg = match ablation {
                Ablation::Baseline => sim.clone(),
                Ablation::NoChaining => sim.clone().without_chaining(),
                Ablation::NoBubbles => sim.clone().without_bubbles(),
                Ablation::NoRefresh => sim.clone().without_refresh(),
                Ablation::NoPairConstraint => sim.clone().without_pair_constraint(),
            };
            for id in lfk_suite::IDS {
                cases.push((cfg.clone(), ablation, id));
            }
        }
    }
    assert_eq!(cases.len(), 150);
    let violations: Vec<String> = macs_core::parallel_map(cases, |(cfg, ablation, id)| {
        let kernel = lfk_suite::by_id(id).expect("registry kernel");
        let a = macs_experiments::analyze_lfk(kernel.as_ref(), &cfg);
        let ladder = [
            a.bounds.t_ma_cpl(),
            a.bounds.t_mac_cpl(),
            a.bounds.t_macs_cpl(),
            a.t_p_cpl(),
        ];
        let holds = ladder.windows(2).all(|w| w[0] <= w[1]);
        (!holds).then(|| {
            format!(
                "LFK{id} on {} {}: MA {} MAC {} MACS {} t_p {}",
                cfg.machine.name,
                ablation.tag(),
                ladder[0],
                ladder[1],
                ladder[2],
                ladder[3]
            )
        })
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        violations.is_empty(),
        "ladder broken:\n{}",
        violations.join("\n")
    );
}

/// Runs one kernel and returns everything observable: stats (cycles,
/// instruction classes, wait breakdown), whole-probe telemetry
/// (per-lane accounts and per-pc stall counters), and results check.
fn observe(config: SimConfig, kernel: &dyn lfk_suite::LfkKernel) -> (RunStats, CounterProbe) {
    let mut cpu = Cpu::new(config);
    kernel.setup(&mut cpu);
    let mut probe = CounterProbe::new();
    let stats = cpu
        .run_probed(&kernel.program(), &mut probe)
        .unwrap_or_else(|e| panic!("LFK{} failed: {e}", kernel.id()));
    kernel
        .check(&cpu)
        .unwrap_or_else(|e| panic!("LFK{} wrong results: {e}", kernel.id()));
    (stats, probe)
}

/// The exactness matrix: every LFK kernel, fast-forward on and off,
/// simulated under the preset-derived configuration and under the
/// legacy literal one. All statistics and telemetry must be equal —
/// bitwise, since both `RunStats` and `CounterProbe` compare `f64`s.
#[test]
fn c240_exactness_matrix_across_the_suite() {
    for kernel in lfk_suite::all() {
        let kernel = kernel.as_ref();
        for fast_forward in [true, false] {
            let derive = |mut cfg: SimConfig| {
                cfg.fast_forward = fast_forward;
                cfg
            };
            let (preset_stats, preset_probe) = observe(derive(SimConfig::c240()), kernel);
            let (literal_stats, literal_probe) = observe(derive(legacy_literal_c240()), kernel);
            assert_eq!(
                preset_stats,
                literal_stats,
                "LFK{} (fast_forward={fast_forward}): preset stats diverge from the literal config",
                kernel.id()
            );
            assert_eq!(
                preset_probe,
                literal_probe,
                "LFK{} (fast_forward={fast_forward}): preset telemetry diverges",
                kernel.id()
            );
        }
    }
}

/// A deliberately bank-hostile access pattern: stride-16 vector loads.
/// On 32 banks the stream alternates between just two banks, revisiting
/// each while it is still cycling (`bank_busy = 8`); on 64 banks it
/// spreads over four, so every revisit arrives later in the recovery.
fn stride16_stats(machine: &MachineDescription) -> RunStats {
    let program = assemble(
        "mov #64,vl
         ld.l 0(a1):16,v0
         ld.l 8(a1):16,v1
         add.d v0,v1,v2
         halt",
    )
    .unwrap();
    let mut cpu = Cpu::new(SimConfig::for_machine(machine));
    cpu.set_areg(1, 0);
    cpu.run(&program).unwrap()
}

#[test]
fn sixty_four_banks_strictly_reduce_bank_waits() {
    let narrow = stride16_stats(&MachineDescription::c240());
    let wide = stride16_stats(&MachineDescription::c240_64banks());
    assert!(
        wide.memory_waits.bank_busy < narrow.memory_waits.bank_busy,
        "64 banks must wait strictly less: 32-bank bank_busy {} vs 64-bank {}",
        narrow.memory_waits.bank_busy,
        wide.memory_waits.bank_busy
    );
    assert!(
        wide.cycles < narrow.cycles,
        "fewer bank waits must show up in cycles: {} vs {}",
        narrow.cycles,
        wide.cycles
    );
}

/// Two CPUs running the same memory-bound kernel through shared banks:
/// the dual-port hypothetical has half the banks of the C-240, so the
/// same co-schedule lands in a different (worse) contention band.
#[test]
fn dual_port_preset_shifts_the_contention_bands() {
    let cosim_waits = |machine: &MachineDescription| {
        let config = SimConfig::for_machine(machine).with_cpus(2);
        let kernel = lfk_suite::by_id(1).unwrap();
        let mut m = Machine::new(config);
        let programs: Vec<_> = (0..2)
            .map(|i| {
                kernel.setup(m.cpu_mut(i));
                kernel.program()
            })
            .collect();
        let stats = m.run(&programs).unwrap();
        (
            stats.iter().map(|s| s.cycles).sum::<f64>(),
            stats.iter().map(|s| s.memory_waits.contention).sum::<f64>(),
        )
    };
    let (c240_cycles, c240_contention) = cosim_waits(&MachineDescription::c240());
    let (dual_cycles, dual_contention) = cosim_waits(&MachineDescription::dual_port());
    assert!(
        dual_contention > c240_contention,
        "16 banks / 2 ports must contend more than 32 banks / 4 ports: {dual_contention} vs {c240_contention}"
    );
    assert!(
        dual_cycles > c240_cycles,
        "the extra contention must cost cycles: {dual_cycles} vs {c240_cycles}"
    );
    // And the port count is a real limit, not a label: a third CPU does
    // not fit a two-port machine.
    let mut three = SimConfig::for_machine(&MachineDescription::dual_port());
    three.cpus = 3;
    let err = three.validate().unwrap_err();
    assert_eq!(
        err.root(),
        &ConfigError::MoreCpusThanPorts { cpus: 3, ports: 2 }
    );
}

/// §6 transfer: the bounds hierarchy and the A/X decomposition hold on
/// machines other than the one the model was calibrated against.
#[test]
fn bounds_hierarchy_and_ax_analysis_transfer_to_other_presets() {
    for machine in [
        MachineDescription::c240_64banks(),
        MachineDescription::dual_port(),
    ] {
        let sim = SimConfig::for_machine(&machine);
        // Three structurally distinct kernels: vector memory-bound,
        // reduction, strided.
        for id in [1u32, 3, 9] {
            let Some(kernel) = lfk_suite::by_id(id) else {
                continue;
            };
            let analysis = macs_experiments::analyze_lfk(kernel.as_ref(), &sim);
            assert!(
                analysis.bounds.is_monotone(),
                "LFK{id} on {}: MA {} MAC {} MACS {} not monotone",
                machine.name,
                analysis.bounds.t_ma_cpl(),
                analysis.bounds.t_mac_cpl(),
                analysis.bounds.t_macs_cpl()
            );
            assert!(
                analysis.t_a_cpl() > 0.0 && analysis.t_x_cpl() > 0.0,
                "LFK{id} on {}: A/X processes must run",
                machine.name
            );
            // The measured run can never beat the serial sum of its
            // decoupled halves (Eq. 18's upper band).
            assert!(
                analysis.t_p_cpl() <= analysis.t_a_cpl() + analysis.t_x_cpl() + 1e-9,
                "LFK{id} on {}: t_p {} exceeds t_a+t_x {}",
                machine.name,
                analysis.t_p_cpl(),
                analysis.t_a_cpl() + analysis.t_x_cpl()
            );
        }
    }
}

#[test]
fn every_named_preset_resolves_and_validates() {
    for name in PRESET_NAMES {
        let machine = MachineDescription::preset(name)
            .unwrap_or_else(|| panic!("preset {name:?} must resolve"));
        assert_eq!(machine.name, name);
        let sim = SimConfig::for_machine(&machine);
        assert_eq!(sim.machine, machine);
        sim.validate()
            .unwrap_or_else(|e| panic!("preset {name:?} must validate: {e}"));
    }
    assert!(MachineDescription::preset("c241").is_none());
}
