//! Steady-state fast-forward equivalence tests.
//!
//! The fast-forward engine (DESIGN.md, "Steady-state fast-forward") is
//! only allowed to exist because it is *bit-exact*: a fast-forwarded run
//! must produce exactly the same cycle count, statistics, memory wait
//! breakdown, and per-lane stall telemetry as stepping every element.
//! These tests enforce that contract over the whole LFK suite crossed
//! with the model ablations and background-contention settings, and also
//! prove the engine actually engages (a green equivalence suite would be
//! vacuous if detection never fired).

use c240_mem::ContentionConfig;
use c240_sim::{CounterProbe, Cpu, FfStats, NoProbe, RunStats, SimConfig, Trace};
use lfk_suite::LfkKernel;

/// Everything a run leaves behind that fast-forward must reproduce.
struct Outcome {
    stats: RunStats,
    probe: CounterProbe,
    /// The whole data space, as bits.
    data: Vec<u64>,
    /// The eight A registers, then the eight S registers, as bits.
    regs: [u64; 16],
    /// The run's fast-forward bookkeeping.
    ff: FfStats,
}

/// Runs `kernel` for `passes` outer passes under `config`. At the
/// kernel's default pass count it also validates the numerical results,
/// so we know the functional warp replay stored the right values, not
/// just the right cycle counts.
fn run_one(config: SimConfig, kernel: &dyn LfkKernel, passes: i64) -> Outcome {
    let mut cpu = Cpu::new(config);
    kernel.setup(&mut cpu);
    let mut probe = CounterProbe::new();
    let stats = cpu
        .run_probed(&kernel.program_with_passes(passes), &mut probe)
        .unwrap_or_else(|e| panic!("LFK{} failed: {e}", kernel.id()));
    if passes == kernel.passes() {
        kernel
            .check(&cpu)
            .unwrap_or_else(|e| panic!("LFK{} wrong results: {e}", kernel.id()));
    }
    let mut data = vec![0.0; cpu.mem().words()];
    assert!(cpu.mem().read_run(0, &mut data), "the whole data space");
    Outcome {
        stats,
        probe,
        data: data.iter().map(|x| x.to_bits()).collect(),
        regs: std::array::from_fn(|i| match i {
            0..=7 => cpu.areg(i as u8) as u64,
            _ => cpu.sreg_fp(i as u8 - 8).to_bits(),
        }),
        ff: cpu.ff_stats(),
    }
}

/// Each kernel's fast-forward bookkeeping, `[probes, warps, skipped
/// instructions]`, in suite order (LFK 1, 2, 3, 4, 6, 7, 8, 9, 10, 12).
type FfPins = [[u64; 3]; 10];

/// Asserts exact (not approximate) equality between a fast-forwarded and
/// an element-stepped run of every kernel under `config`, at each
/// kernel's default pass count, and that the fast-forwarded runs probed,
/// warped and skipped exactly as `ff` pins. Returns the total
/// instructions fast-forwarded, so callers can assert engagement.
fn assert_suite_equivalent(config: SimConfig, label: &str, ff: &FfPins) -> u64 {
    assert_suite_equivalent_at(config, label, None, ff)
}

/// [`assert_suite_equivalent`] with every kernel run for `passes` outer
/// passes (`None`: each kernel's default).
fn assert_suite_equivalent_at(
    config: SimConfig,
    label: &str,
    passes: Option<i64>,
    ff: &FfPins,
) -> u64 {
    let mut total_skipped = 0;
    let kernels = lfk_suite::all();
    assert_eq!(kernels.len(), ff.len(), "one pin per kernel");
    for (kernel, &pin) in kernels.iter().zip(ff) {
        let kernel = kernel.as_ref();
        let passes = passes.unwrap_or(kernel.passes());
        let fast = run_one(config.clone(), kernel, passes);
        let exact = run_one(config.clone().without_fast_forward(), kernel, passes);
        assert_eq!(
            exact.ff,
            FfStats::default(),
            "fast_forward=false must never probe"
        );
        // RunStats derives PartialEq over f64 fields, so this is bitwise
        // cycle/stat equality — it covers cycles, instruction classes,
        // element counts, flops, memory accesses, and the memory wait
        // breakdown (bank busy / refresh / contention).
        assert_eq!(
            fast.stats,
            exact.stats,
            "LFK{} [{label}]: fast-forwarded stats diverge from exact run",
            kernel.id()
        );
        // Whole-probe equality: per-lane busy/idle and every stall
        // cause, both machine-wide and per-pc.
        assert_eq!(
            fast.probe,
            exact.probe,
            "LFK{} [{label}]: fast-forwarded telemetry diverges from exact run",
            kernel.id()
        );
        // Bitwise data: a reassociated reduction in the warp would pass
        // the kernels' tolerance-based checks but not this.
        assert_eq!(
            fast.regs,
            exact.regs,
            "LFK{} [{label}]: fast-forwarded A/S registers diverge from exact run",
            kernel.id()
        );
        if fast.data != exact.data {
            let word = (0..).zip(&fast.data).find(|&(w, &x)| x != exact.data[w]);
            panic!(
                "LFK{} [{label}]: fast-forwarded data diverges from exact run at word {:?}",
                kernel.id(),
                word.map(|(w, _)| w)
            );
        }
        let got = [fast.ff.probes, fast.ff.warps, fast.ff.skipped_instructions];
        assert_eq!(
            got,
            pin,
            "LFK{} [{label}]: fast-forward bookkeeping moved",
            kernel.id()
        );
        total_skipped += fast.ff.skipped_instructions;
    }
    total_skipped
}

fn with_contention(config: SimConfig, contention: ContentionConfig) -> SimConfig {
    SimConfig {
        contention,
        ..config
    }
}

// ---- the full machine, three contention settings -------------------------

#[test]
fn suite_exact_under_full_machine_idle() {
    assert_suite_equivalent(
        SimConfig::c240(),
        "c240/idle",
        &[
            [159, 0, 0],
            [359, 0, 0],
            [159, 0, 0],
            [119, 0, 0],
            [1889, 0, 0],
            [159, 0, 0],
            [79, 0, 0],
            [59, 0, 0],
            [59, 0, 0],
            [159, 0, 0],
        ],
    );
}

/// Fast-forward must actually engage somewhere, or the equivalence
/// matrix above is vacuous. Without refresh a strip loop's timing state
/// repeats after one iteration, so the suite warps most of its work;
/// with refresh, phase realignment (`clock mod 400`) takes ~32+
/// iterations, so engagement needs loops longer than the default
/// kernels' — asserted on a paper-scale loop below.
#[test]
fn fast_forward_engages_on_the_suite_without_refresh() {
    let skipped = assert_suite_equivalent(
        SimConfig::c240().without_refresh(),
        "no-refresh/idle",
        &[
            [99, 20, 840],
            [23, 1, 14728],
            [99, 20, 600],
            [23, 1, 1584],
            [251, 1, 32916],
            [99, 20, 2040],
            [7, 1, 5328],
            [4, 1, 1760],
            [4, 1, 1870],
            [99, 20, 600],
        ],
    );
    assert!(
        skipped > 10_000,
        "fast-forward barely engaged without refresh ({skipped} instructions)"
    );
}

/// On a long loop the warp engages even with refresh on (the detector
/// waits out the 400-cycle phase lcm), and the run stays bit-exact.
#[test]
fn fast_forward_engages_under_refresh_on_long_loops() {
    use c240_isa::ProgramBuilder;
    let mut b = ProgramBuilder::new();
    b.set_vl_imm(128);
    // Long enough that the detector's warm-up (three observations of the
    // ~400-iteration refresh-phase period) is a small fraction of the run.
    b.mov_int(20_000, "s0");
    b.label("L");
    b.vload("a1", 0, "v0");
    b.vmul("v0", "s1", "v1");
    b.vstore("v1", "a2", 0);
    b.int_op_imm("sub", 1, "s0");
    b.cmp_imm("lt", 0, "s0");
    b.branch_true("L");
    b.halt();
    let program = b.build().expect("long loop assembles");

    let run = |config: SimConfig| {
        let mut cpu = Cpu::new(config);
        cpu.set_areg(1, 0);
        cpu.set_areg(2, 80_000);
        cpu.set_sreg_fp(1, 2.0);
        let stats = cpu.run(&program).expect("long loop runs");
        let out = cpu.mem().peek(80_000);
        (stats, out, cpu.ff_stats())
    };
    let (fast, fast_out, ff) = run(SimConfig::c240());
    let (exact, exact_out, _) = run(SimConfig::c240().without_fast_forward());
    assert_eq!(fast, exact);
    assert_eq!(fast_out.to_bits(), exact_out.to_bits());
    assert_eq!(
        ff,
        FfStats {
            probes: 1183,
            warps: 1,
            skipped_instructions: 112_896,
        },
        "refresh-phase periods were not detected as before"
    );
}

/// With refresh on, the suite's default pass counts are too short for a
/// warp, so the rows above never replay one. At 200 passes the warps
/// replay loads at strides 1, 2, 5 and 25, strided stores, `radd.d`
/// reductions and scalar `ld.w`/`st.w`, and must stay bit-exact.
#[test]
fn suite_warps_exactly_under_full_machine_idle_at_200_passes() {
    let skipped = assert_suite_equivalent_at(
        SimConfig::c240(),
        "c240/idle@200",
        Some(200),
        &[
            [1599, 0, 0],
            [959, 1, 10520],
            [1599, 0, 0],
            [1199, 0, 0],
            [10205, 1, 48108],
            [767, 1, 29120],
            [159, 1, 17760],
            [104, 1, 3040],
            [199, 0, 0],
            [1599, 0, 0],
        ],
    );
    assert!(skipped > 0, "no warp at 200 passes under c240/idle");
}

/// [`suite_warps_exactly_under_full_machine_idle_at_200_passes`] under
/// lockstep background contention.
#[test]
fn suite_warps_exactly_under_full_machine_lockstep_contention_at_200_passes() {
    let config = with_contention(SimConfig::c240(), ContentionConfig::lockstep(3));
    let skipped = assert_suite_equivalent_at(
        config,
        "c240/lockstep(3)@200",
        Some(200),
        &[
            [1207, 1, 5733],
            [599, 1, 26300],
            [799, 1, 8600],
            [551, 1, 10692],
            [6299, 1, 126600],
            [1599, 0, 0],
            [159, 1, 17760],
            [71, 1, 4096],
            [156, 1, 1462],
            [535, 1, 11438],
        ],
    );
    assert!(skipped > 0, "no warp at 200 passes under c240/lockstep(3)");
}

#[test]
fn suite_exact_under_full_machine_lockstep_contention() {
    assert_suite_equivalent(
        with_contention(SimConfig::c240(), ContentionConfig::lockstep(3)),
        "c240/lockstep(3)",
        &[
            [159, 0, 0],
            [359, 0, 0],
            [159, 0, 0],
            [119, 0, 0],
            [1889, 0, 0],
            [159, 0, 0],
            [79, 0, 0],
            [59, 0, 0],
            [59, 0, 0],
            [159, 0, 0],
        ],
    );
}

#[test]
fn suite_exact_under_full_machine_mixed_contention() {
    assert_suite_equivalent(
        with_contention(SimConfig::c240(), ContentionConfig::mixed(3)),
        "c240/mixed(3)",
        &[
            [159, 0, 0],
            [47, 1, 13676],
            [159, 0, 0],
            [119, 0, 0],
            [1448, 1, 8862],
            [159, 0, 0],
            [79, 0, 0],
            [59, 0, 0],
            [41, 1, 612],
            [159, 0, 0],
        ],
    );
}

// ---- ablated machines × three contention settings ------------------------

#[test]
fn suite_exact_without_chaining() {
    let base = SimConfig::c240().without_chaining();
    assert_suite_equivalent(
        base.clone(),
        "no-chaining/idle",
        &[
            [159, 0, 0],
            [359, 0, 0],
            [159, 0, 0],
            [119, 0, 0],
            [1889, 0, 0],
            [159, 0, 0],
            [9, 1, 5180],
            [59, 0, 0],
            [59, 0, 0],
            [159, 0, 0],
        ],
    );
    assert_suite_equivalent(
        with_contention(base.clone(), ContentionConfig::lockstep(3)),
        "no-chaining/lockstep(3)",
        &[
            [159, 0, 0],
            [359, 0, 0],
            [159, 0, 0],
            [119, 0, 0],
            [1889, 0, 0],
            [159, 0, 0],
            [79, 0, 0],
            [15, 1, 1408],
            [59, 0, 0],
            [159, 0, 0],
        ],
    );
    assert_suite_equivalent(
        with_contention(base, ContentionConfig::mixed(3)),
        "no-chaining/mixed(3)",
        &[
            [159, 0, 0],
            [281, 1, 3419],
            [159, 0, 0],
            [119, 0, 0],
            [1889, 0, 0],
            [159, 0, 0],
            [39, 1, 2960],
            [59, 0, 0],
            [41, 1, 612],
            [159, 0, 0],
        ],
    );
}

#[test]
fn suite_exact_without_bubbles() {
    let base = SimConfig::c240().without_bubbles();
    assert_suite_equivalent(
        base.clone(),
        "no-bubbles/idle",
        &[
            [159, 0, 0],
            [359, 0, 0],
            [159, 0, 0],
            [119, 0, 0],
            [1889, 0, 0],
            [159, 0, 0],
            [79, 0, 0],
            [15, 1, 1408],
            [59, 0, 0],
            [159, 0, 0],
        ],
    );
    assert_suite_equivalent(
        with_contention(base.clone(), ContentionConfig::lockstep(3)),
        "no-bubbles/lockstep(3)",
        &[
            [159, 0, 0],
            [359, 0, 0],
            [159, 0, 0],
            [119, 0, 0],
            [1889, 0, 0],
            [159, 0, 0],
            [79, 0, 0],
            [59, 0, 0],
            [59, 0, 0],
            [159, 0, 0],
        ],
    );
    assert_suite_equivalent(
        with_contention(base, ContentionConfig::mixed(3)),
        "no-bubbles/mixed(3)",
        &[
            [159, 0, 0],
            [359, 0, 0],
            [159, 0, 0],
            [119, 0, 0],
            [1889, 0, 0],
            [159, 0, 0],
            [31, 1, 3552],
            [44, 1, 480],
            [24, 1, 1190],
            [159, 0, 0],
        ],
    );
}

#[test]
fn suite_exact_without_refresh() {
    let base = SimConfig::c240().without_refresh();
    assert_suite_equivalent(
        base.clone(),
        "no-refresh/idle",
        &[
            [99, 20, 840],
            [23, 1, 14728],
            [99, 20, 600],
            [23, 1, 1584],
            [251, 1, 32916],
            [99, 20, 2040],
            [7, 1, 5328],
            [4, 1, 1760],
            [4, 1, 1870],
            [99, 20, 600],
        ],
    );
    assert_suite_equivalent(
        with_contention(base.clone(), ContentionConfig::lockstep(3)),
        "no-refresh/lockstep(3)",
        &[
            [39, 1, 1755],
            [23, 1, 14728],
            [127, 1, 344],
            [83, 1, 594],
            [377, 1, 30384],
            [159, 0, 0],
            [39, 1, 2960],
            [59, 0, 0],
            [7, 1, 1768],
            [159, 0, 0],
        ],
    );
    assert_suite_equivalent(
        with_contention(base, ContentionConfig::mixed(3)),
        "no-refresh/mixed(3)",
        &[
            [63, 1, 1404],
            [23, 1, 14728],
            [118, 20, 410],
            [23, 1, 1584],
            [251, 1, 32916],
            [99, 20, 2040],
            [9, 1, 5180],
            [11, 1, 1536],
            [4, 1, 1870],
            [138, 20, 210],
        ],
    );
}

// ---- edge cases ----------------------------------------------------------

/// A `Trace` probe is not warpable, so tracing disables fast-forward
/// (the skipped iterations would be missing from the trace), and the run
/// still matches both the exact run and a `NoProbe` run. Without refresh
/// that `NoProbe` run warps within LFK1's default passes.
#[test]
fn tracing_disables_fast_forward_but_stays_exact() {
    let kernel = lfk_suite::by_id(1).expect("LFK1 exists");
    let program = kernel.program();
    for config in [SimConfig::c240(), SimConfig::c240().without_refresh()] {
        let mut cpu = Cpu::new(config.clone());
        kernel.setup(&mut cpu);
        let mut trace = Trace::default();
        let stats = cpu.run_probed(&program, &mut trace).expect("traced run");
        assert_eq!(cpu.ff_stats().skipped_instructions, 0);
        assert!(!trace.events().is_empty() || trace.dropped() > 0);

        let mut exact = Cpu::new(config.clone().without_fast_forward());
        kernel.setup(&mut exact);
        let exact_stats = exact.run(&program).expect("exact run");
        assert_eq!(stats, exact_stats);

        let mut plain = Cpu::new(config.clone());
        kernel.setup(&mut plain);
        let plain_stats = plain
            .run_probed(&program, &mut NoProbe)
            .expect("NoProbe run");
        assert_eq!(stats, plain_stats);
        if !config.machine.refresh_enabled {
            assert!(plain.ff_stats().skipped_instructions > 0, "LFK1 warps");
        }
    }
}

/// A cpu can be reused across runs: fast-forward state resets with the
/// timing state, and the second run still matches a fresh exact run.
#[test]
fn reset_timing_clears_fast_forward_state() {
    let kernel = lfk_suite::by_id(7).expect("LFK7 exists");
    let mut cpu = Cpu::new(SimConfig::c240());
    kernel.setup(&mut cpu);
    let first = cpu.run(&kernel.program()).expect("first run");
    cpu.reset_timing();
    kernel.setup(&mut cpu);
    let second = cpu.run(&kernel.program()).expect("second run");
    assert_eq!(first, second);
}
