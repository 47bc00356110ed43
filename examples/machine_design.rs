//! Machine design space: what would LFK 1 cost on variants of the
//! C-240? The bounds hierarchy doubles as an architect's tool — the
//! paper's conclusion suggests exactly this use.
//!
//! Whole machines come from declarative [`MachineDescription`] presets
//! (DESIGN.md §15); single-feature ablations toggle switches on the
//! configuration's description, which both the simulator and the bound
//! model read.
//!
//! ```text
//! cargo run --release --example machine_design
//! ```

use c240_isa::MachineDescription;
use c240_mem::ContentionConfig;
use c240_sim::{Cpu, NoProbe, SimConfig};
use lfk_suite::by_id;
use macs_core::{measure, ChimeConfig, KernelBounds};

fn main() {
    let kernel = by_id(1).expect("LFK1");
    let program = kernel.program();

    println!("LFK1 on C-240 design variants (CPF):\n");
    println!("{:<34} {:>8} {:>9}", "machine", "t_MACS", "measured");

    // Each variant is one configuration; its bound model is derived from
    // the same machine description the simulator runs. The chime bound
    // presumes chaining, so with chaining off it stays put and the
    // measurement blows past it.
    let variants: Vec<(&str, SimConfig)> = vec![
        ("C-240 (paper)", SimConfig::c240()),
        (
            "64-bank chassis (preset c240-64b)",
            SimConfig::for_machine(&MachineDescription::c240_64banks()),
        ),
        (
            "2-port variant (preset dual-port)",
            SimConfig::for_machine(&MachineDescription::dual_port()),
        ),
        (
            "no tailgating bubbles (Eq. 5)",
            SimConfig::c240().without_bubbles(),
        ),
        ("no memory refresh", SimConfig::c240().without_refresh()),
        (
            "no chaining (Cray-2 style)",
            SimConfig::c240().without_chaining(),
        ),
        (
            "3 busy neighbor CPUs (mixed)",
            SimConfig {
                contention: ContentionConfig::mixed(3),
                ..SimConfig::c240()
            },
        ),
        (
            "3 lockstep neighbor CPUs",
            SimConfig {
                contention: ContentionConfig::lockstep(3),
                ..SimConfig::c240()
            },
        ),
    ];

    for (name, sim) in variants {
        let chime = ChimeConfig::for_machine(&sim.machine);
        let bounds = KernelBounds::compute("LFK1", kernel.ma(), &program, &chime);
        let setup = |cpu: &mut Cpu| kernel.setup(cpu);
        let iters = kernel.iterations();
        let run = measure(&sim, setup, &program, iters, bounds.flops, &mut [NoProbe]);
        let measured = run.expect("LFK1 runs").0[0].cpf();
        println!(
            "{:<34} {:>8.3} {:>9.3}",
            name,
            bounds.t_macs_cpf(),
            measured
        );
    }

    // The same descriptions also carry their roofline ceilings
    // (DESIGN.md §16): peak vector flop rate and sustained memory
    // bandwidth, at 1 CPU and with every port populated.
    println!("\nRoofline ceilings per preset (computed, not tabulated):\n");
    println!(
        "{:<12} {:>6} {:>12} {:>10} {:>8}",
        "preset", "cpus", "peak MFLOPS", "bw w/cyc", "ridge"
    );
    for preset in MachineDescription::presets() {
        for cpus in [1, preset.ports] {
            println!(
                "{:<12} {:>6} {:>12.0} {:>10.2} {:>8.2}",
                preset.name,
                cpus,
                preset.peak_mflops(cpus),
                preset.sustained_bandwidth_words_per_cycle(cpus),
                preset.ridge_intensity(cpus),
            );
        }
    }

    println!(
        "\nReadings: bubbles and refresh cost ~2% each on this kernel; losing\n\
         chaining roughly triples the time (§3.3's 162 vs 422); a loaded\n\
         machine degrades memory-bound loops per §4.2's rules of thumb.\n\
         The ceilings say why: every preset's ridge sits at or above 2\n\
         flops/word, while the compiled kernels all stream below it —\n\
         memory-bound across the board, so bank and port changes move the\n\
         roof and FP-side changes do not."
    );
}
