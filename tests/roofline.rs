//! Roofline layer (DESIGN.md §16): golden operational intensities for
//! every registry kernel, the analytic-vs-measured classification
//! agreement guarantee on every machine preset, and a ridge-flip
//! property as the bank count sweeps.

// Only a slice of the shared generator is needed here.
#[allow(dead_code)]
mod prop_support;

use c240_isa::MachineDescription;
use c240_sim::{CounterProbe, SimConfig, StallRollup};
use macs_core::{
    compiled_intensity, measure, operational_intensity, BoundClass, ChimeConfig, KernelBounds,
    MachineCeilings, Roofline,
};
use prop_support::Rng;

/// Golden MA intensities, hand-derived from Table 2's per-iteration
/// workloads as `(f_a + f_m) / (loads + stores)`. LFK9's odd fraction:
/// 17 flops over 11 memory words.
const GOLDEN_MA: [(u32, f64); 10] = [
    (1, 5.0 / 3.0),
    (2, 4.0 / 5.0),
    (3, 1.0),
    (4, 1.0),
    (6, 1.0),
    (7, 8.0 / 2.0),
    (8, 36.0 / 15.0),
    (9, 17.0 / 11.0),
    (10, 9.0 / 20.0),
    (12, 1.0 / 2.0),
];

#[test]
fn golden_ma_intensities() {
    for (id, expected) in GOLDEN_MA {
        let kernel = lfk_suite::by_id(id).expect("registry kernel");
        let got = operational_intensity(&kernel.ma());
        assert!(
            (got - expected).abs() < 1e-12,
            "LFK{id}: MA intensity {got} != hand-derived {expected}"
        );
    }
}

#[test]
fn compiled_intensity_never_exceeds_ma_intensity() {
    // A compiler can add memory traffic (reloads) but never flops, so
    // the compiled point always sits at or left of the MA point. LFK7
    // is the big split: 4.0 flops/word at MA, 1.6 compiled.
    let chime = ChimeConfig::c240();
    for kernel in lfk_suite::all() {
        let bounds = KernelBounds::compute(
            &format!("LFK{}", kernel.id()),
            kernel.ma(),
            &kernel.program(),
            &chime,
        );
        let i_ma = operational_intensity(&bounds.ma);
        let i = compiled_intensity(&bounds);
        assert!(
            i <= i_ma + 1e-12,
            "LFK{}: compiled intensity {i} above MA intensity {i_ma}",
            kernel.id()
        );
    }
    let k7 = lfk_suite::by_id(7).expect("LFK7");
    let bounds = KernelBounds::compute("LFK7", k7.ma(), &k7.program(), &chime);
    assert!((compiled_intensity(&bounds) - 1.6).abs() < 1e-12);
}

/// The PR's hard guarantee: on every preset, every kernel's analytic
/// `bound_class` (compiled intensity vs the ridge) matches what the
/// probed stall taxonomy measures.
#[test]
fn analytic_class_agrees_with_stall_taxonomy_on_every_preset() {
    for machine in MachineDescription::presets() {
        let sim = SimConfig::for_machine(&machine);
        let chime = ChimeConfig::for_machine(&machine);
        for kernel in lfk_suite::all() {
            let program = kernel.program();
            let bounds = KernelBounds::compute(
                &format!("LFK{}", kernel.id()),
                kernel.ma(),
                &program,
                &chime,
            );
            let mut probe = [CounterProbe::new()];
            measure(
                &sim,
                |cpu| kernel.setup(cpu),
                &program,
                kernel.iterations(),
                kernel.flops_total(),
                &mut probe,
            )
            .expect("curated kernels simulate cleanly");
            let roofline = Roofline::new(&machine, 1, &bounds, &probe[0]);
            let rollup = StallRollup::of_probe(&probe[0]);
            assert!(
                !roofline.verdict.is_disagreement(),
                "{} LFK{}: analytic {} vs measured {} (mem_occ {:.0}, cmp_occ {:.0})",
                machine.name,
                kernel.id(),
                roofline.point.bound_class,
                roofline.verdict.measured(),
                rollup.memory_occupancy(),
                rollup.compute_occupancy(),
            );
        }
    }
}

/// As the bank count sweeps upward at full port population, the
/// bandwidth roof rises, the ridge falls, and a fixed intensity flips
/// from memory- to compute-bound exactly once — at the first bank count
/// whose ridge drops to the intensity.
#[test]
fn bound_class_flips_exactly_at_the_ridge_as_banks_sweep() {
    // 4 CPUs: the port cap is 4 words/cycle, so the bank term
    // (banks / (8 × 1.02)) stays the binding one for banks ≤ 32 and the
    // ridge actually moves with the sweep. At 1 CPU the 1-word/cycle
    // port cap would pin the ridge from 9 banks on.
    let cpus = 4;
    let mut rng = Rng::new(0xB0DF);
    for case in 0..64 {
        let mut machine = MachineDescription::c240();
        // Intensities spanning both sides of the reachable ridge range
        // (the ridge floors at peak/port_cap = 2.0 once banks saturate
        // the ports).
        let intensity = 2.05 + (rng.next() % 1000) as f64 / 1000.0 * 50.0;
        let mut classes = Vec::new();
        for banks in 1..=200 {
            machine.banks = banks;
            let ceilings = MachineCeilings::of(&machine, cpus);
            let expected = if intensity >= ceilings.ridge {
                BoundClass::Compute
            } else {
                BoundClass::Memory
            };
            let got = ceilings.classify(intensity);
            assert_eq!(
                got, expected,
                "case {case} (seed 0xB0DF): banks {banks}, intensity {intensity}"
            );
            classes.push(got);
        }
        // Monotone: once compute-bound, more banks never flip it back.
        let flips = classes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            flips <= 1,
            "case {case}: classification flipped {flips} times across the bank sweep"
        );
        if let Some(first_compute) = classes.iter().position(|&c| c == BoundClass::Compute) {
            machine.banks = (first_compute + 1) as u32;
            let at_flip = MachineCeilings::of(&machine, cpus);
            assert!(
                intensity >= at_flip.ridge,
                "case {case}: flipped before the ridge reached the intensity"
            );
            if first_compute > 0 {
                machine.banks = first_compute as u32;
                let before_flip = MachineCeilings::of(&machine, cpus);
                assert!(
                    intensity < before_flip.ridge,
                    "case {case}: ridge was already below the intensity one bank earlier"
                );
            }
        }
    }
}

/// The ceilings scale with the geometry the presets vary: banks raise
/// the multi-CPU bandwidth roof, ports cap it.
#[test]
fn preset_ceilings_order_as_designed() {
    let c240 = MachineDescription::c240();
    let wide = MachineDescription::c240_64banks();
    let dual = MachineDescription::dual_port();
    // 64 banks beat 32 at full port population, but the port cap hides
    // the difference at 1 CPU.
    assert!(
        wide.sustained_bandwidth_words_per_cycle(4) > c240.sustained_bandwidth_words_per_cycle(4)
    );
    assert_eq!(
        wide.sustained_bandwidth_words_per_cycle(1),
        c240.sustained_bandwidth_words_per_cycle(1)
    );
    // Two ports cap the dual-port chassis at 2 words/cycle regardless
    // of how many CPUs ask.
    assert_eq!(dual.port_bandwidth_words_per_cycle(4), 2.0);
    // Peak flop rate is per-CPU and preset-independent here.
    assert_eq!(c240.peak_mflops(1), 50.0);
    assert_eq!(dual.peak_mflops(1), 50.0);
}
