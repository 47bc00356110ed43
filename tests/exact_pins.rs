//! Absolute results of exact stepping, pinned.
//!
//! The fast-forward tests compare the simulator with itself (a warped run
//! against an element-stepped one), and sweepbench's golden rows cover
//! only idle machines. This test pins what exact stepping itself produces
//! for every LFK kernel on every machine preset, under every ablation of
//! the standard grid, on an idle machine and under `lockstep:3` and
//! `mixed:3` background contention, plus two co-simulated CPUs on the
//! C-240. Co-simulated machines get more rows: four CPUs on `c240` and
//! `c240-64b`, two on `c240-64b` and `dual-port`, two under `mixed:3` and
//! four under `lockstep:3` on `c240`, each under every ablation. Per
//! point the table holds each CPU's cycles, instruction count, memory
//! waits by cause in ticks, and the probe's stall cycles by cause. A
//! point the configuration validator refuses (dual-port has no port for
//! three background CPUs) pins its error. Every point runs one outer pass
//! with fast-forward off, so each instruction is stepped.
//!
//! The first 500 lines of `exact_pins.txt` were generated before the
//! simulator's batched element timing existed, and the 300 co-simulated
//! lines after them before the shared bank state lost its free times and
//! owners. The table must never be regenerated to make a timing change
//! pass: any difference is a change in simulated results.
//! On a mismatch the computed table is written next to the test binary's
//! scratch space (`CARGO_TARGET_TMPDIR`) for inspection.

use c240_isa::PRESET_NAMES;
use c240_obs::StallCause;
use c240_sim::{CounterProbe, SimConfig};
use lfk_suite::LfkKernel;
use macs_core::measure;
use macs_core::sweep::{Contention, SweepPoint};
use macs_experiments::sweep::Ablation;

const PINS: &str = include_str!("exact_pins.txt");

/// The table line of one point: its name, then each CPU's results or the
/// configuration error.
fn pin_line(
    kernel: &dyn LfkKernel,
    machine: &str,
    ablation: Ablation,
    contention: Contention,
    cpus: u32,
) -> String {
    let mut overrides = ablation.overrides();
    overrides.contention = Some(contention);
    overrides.fast_forward = Some(false);
    overrides.cpus = Some(cpus);
    let point = SweepPoint {
        id: String::new(),
        kernel: kernel.id(),
        machine: Some(machine.to_string()),
        passes: Some(1),
        deadline_ms: None,
        inject: None,
        overrides,
    };
    let background = match contention {
        Contention::Idle => "idle".to_string(),
        Contention::Lockstep(n) => format!("lockstep:{n}"),
        Contention::Mixed(n) => format!("mixed:{n}"),
    };
    let name = format!(
        "{machine} {} {background} cpus:{cpus} lfk{}",
        ablation.tag(),
        kernel.id()
    );
    let cfg = point
        .config(&SimConfig::c240())
        .expect("every preset name resolves");
    if let Err(e) = cfg.validate() {
        return format!("{name} | error: {e}");
    }
    let program = kernel.program_with_passes(1);
    let mut probes = vec![CounterProbe::new(); cpus as usize];
    let (ms, machine) = measure(
        &cfg,
        |cpu| kernel.setup(cpu),
        &program,
        kernel.iterations_with_passes(1),
        kernel.flops_total(),
        &mut probes,
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut line = name;
    for (i, (m, probe)) in ms.iter().zip(&probes).enumerate() {
        let waits = machine.cpu(i).mem().wait_ticks();
        let stalls = probe.totals();
        let stalls: Vec<String> = StallCause::ALL
            .iter()
            .map(|&c| stalls.get(c).to_string())
            .collect();
        line += &format!(
            " | cycles {} instr {} waits {} {} {} stalls {}",
            m.stats.cycles,
            m.stats.instructions.total(),
            waits.bank_busy,
            waits.refresh,
            waits.contention,
            stalls.join(",")
        );
    }
    line
}

/// Every point's line, kernel-major within machine, ablation and
/// background, then the two-CPU C-240 points, then the other
/// co-simulated combinations, kernel-major within ablation.
fn table() -> Vec<String> {
    let kernels = lfk_suite::all();
    let backgrounds = [
        Contention::Idle,
        Contention::Lockstep(3),
        Contention::Mixed(3),
    ];
    let mut lines = Vec::new();
    for machine in PRESET_NAMES {
        for ablation in Ablation::ALL {
            for background in backgrounds {
                for kernel in &kernels {
                    lines.push(pin_line(kernel.as_ref(), machine, ablation, background, 1));
                }
            }
        }
    }
    for ablation in Ablation::ALL {
        for kernel in &kernels {
            lines.push(pin_line(
                kernel.as_ref(),
                "c240",
                ablation,
                Contention::Idle,
                2,
            ));
        }
    }
    let cosim = [
        ("c240", Contention::Idle, 4),
        ("c240-64b", Contention::Idle, 4),
        ("c240-64b", Contention::Idle, 2),
        ("dual-port", Contention::Idle, 2),
        ("c240", Contention::Mixed(3), 2),
        ("c240", Contention::Lockstep(3), 4),
    ];
    for (machine, background, cpus) in cosim {
        for ablation in Ablation::ALL {
            for kernel in &kernels {
                lines.push(pin_line(
                    kernel.as_ref(),
                    machine,
                    ablation,
                    background,
                    cpus,
                ));
            }
        }
    }
    lines
}

#[test]
fn exact_stepping_matches_the_pinned_table() {
    let got = table();
    let want: Vec<&str> = PINS.lines().collect();
    assert_eq!(
        got.len(),
        3 * 5 * 3 * 10 + 5 * 10 + 6 * 5 * 10,
        "one line per point"
    );
    let errors = got.iter().filter(|l| l.contains("| error: ")).count();
    assert!(
        errors > 0 && errors < got.len() / 4,
        "{errors} refused points"
    );
    if got.iter().map(String::as_str).ne(want.iter().copied()) {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exact_pins.txt");
        std::fs::write(&out, got.join("\n") + "\n").expect("write the computed table");
        let first = got
            .iter()
            .zip(want.iter().chain(std::iter::repeat(&"<missing>")))
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()));
        panic!(
            "{} pinned lines, {} computed; first difference at line {}:\n  want {}\n  got  {}\n\
             computed table written to {}",
            want.len(),
            got.len(),
            first + 1,
            want.get(first).unwrap_or(&"<missing>"),
            got.get(first).map_or("<missing>", String::as_str),
            out.display()
        );
    }
}
