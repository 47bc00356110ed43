//! Co-simulation integration suite: the multi-CPU machine's accounting
//! invariants, its bit-exact single-CPU degeneration, and determinism.

use c240_isa::timing::exact_ticks;
use c240_isa::PRESET_NAMES;
use c240_mem::WaitTicks;
use c240_obs::{LaneAccount, StallCause};
use c240_sim::{CoSimProbes, CounterProbe, Cpu, Machine, SimConfig};
use macs_experiments::cosim::{run_cosim, Mix};
use macs_experiments::sweep::GridSpec;

fn kernel(id: u32) -> Box<dyn lfk_suite::LfkKernel> {
    lfk_suite::by_id(id).expect("curated kernel id")
}

/// A 1-CPU machine is the legacy simulator: identical `RunStats` *and*
/// identical per-lane / per-pc stall attribution, fast-forward included,
/// for every LFK kernel on every machine preset under every ablation.
#[test]
fn single_cpu_cosim_is_bit_identical_to_legacy() {
    let mut compared = 0;
    for machine in PRESET_NAMES {
        let grid = GridSpec {
            machine: Some(machine.to_string()),
            ..GridSpec::default()
        };
        for point in grid.points() {
            let config = point.config(&SimConfig::c240()).expect("preset");
            let k = kernel(point.kernel);
            let program = k.program();

            let mut cpu = Cpu::new(config.clone());
            k.setup(&mut cpu);
            let mut legacy_probe = CounterProbe::new();
            let legacy = cpu
                .run_probed(&program, &mut legacy_probe)
                .expect("legacy run");

            let mut machine = Machine::new(config.with_cpus(1));
            k.setup(machine.cpu_mut(0));
            let mut probes = CoSimProbes::new(1);
            let stats = machine
                .run_probed(std::slice::from_ref(&program), probes.as_mut_slice())
                .expect("co-sim run");

            let id = &point.id;
            assert_eq!(stats.len(), 1);
            assert_eq!(stats[0], legacy, "{id}: RunStats must be bit-identical");
            assert_eq!(
                *probes.cpu(0),
                legacy_probe,
                "{id}: stall attribution must be bit-identical"
            );
            compared += 1;
        }
    }
    assert_eq!(compared, 3 * 10 * 5);
}

/// `cycles` as exact ticks; every simulated time is a whole number of
/// them.
fn ticks(cycles: f64) -> i64 {
    exact_ticks(cycles).unwrap_or_else(|| panic!("{cycles} is off the 1/20-cycle grid"))
}

/// A lane's busy, stalled and idle time in ticks.
fn accounted_ticks(acct: LaneAccount) -> i64 {
    let stalls: i64 = StallCause::ALL
        .iter()
        .map(|&c| ticks(acct.stalls.get(c)))
        .sum();
    ticks(acct.busy) + stalls + ticks(acct.idle)
}

/// Per-CPU accounting stays exact under contention, in ticks: each CPU's
/// wait breakdown is its memory system's wait ticks, each lane's
/// busy+stalls+idle covers its wall clock, and the per-CPU counters sum
/// to the shared bank state's machine totals.
#[test]
fn wait_breakdown_invariants_under_cosim() {
    let cpus = 4usize;
    let ids = Mix::Mixed.kernel_ids(cpus as u32);
    let mut machine = Machine::new(SimConfig::c240().with_cpus(cpus as u32));
    let programs: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let k = kernel(id);
            k.setup(machine.cpu_mut(i));
            k.program()
        })
        .collect();
    let mut probes = CoSimProbes::new(cpus);
    let stats = machine
        .run_probed(&programs, probes.as_mut_slice())
        .expect("co-sim run");

    let mut acc_sum = 0u64;
    let mut wait_sum = WaitTicks::default();
    let mut cycle_sum = 0i64;
    for (i, s) in stats.iter().enumerate() {
        let w = machine.cpu(i).mem().wait_ticks();
        assert_eq!(s.memory_waits, w.cycles(), "cpu {i}: breakdown");
        assert_eq!(
            ticks(s.memory_wait_cycles),
            w.total(),
            "cpu {i}: wait total"
        );
        let cycles = ticks(s.cycles);
        for (lane, acct) in probes.cpu(i).lanes() {
            assert_eq!(accounted_ticks(acct), cycles, "cpu {i} lane {lane}");
        }
        acc_sum += s.memory_accesses;
        wait_sum += w;
        cycle_sum += cycles;
    }

    let shared = machine.shared();
    assert_eq!(shared.access_count(), acc_sum);
    assert_eq!(shared.wait_ticks(), wait_sum);
    assert_eq!(ticks(shared.wait_cycles()), wait_sum.total());
    // Neighbors really did collide.
    assert!(wait_sum.contention > 0, "mixed co-sim must show contention");

    // The machine roll-up preserves the partition against summed clocks.
    for (lane, acct) in probes.combined().lanes() {
        assert_eq!(accounted_ticks(acct), cycle_sum, "combined lane {lane}");
    }
}

/// Two identical co-simulations produce identical stats and identical
/// attribution — the machine is single-threaded and reads no host state
/// (`MACS_THREADS` only parallelizes the independent solo baselines).
#[test]
fn co_simulation_is_reproducible() {
    let run = || {
        let ids = Mix::Mixed.kernel_ids(4);
        let mut machine = Machine::new(SimConfig::c240().with_cpus(4));
        let programs: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let k = kernel(id);
                k.setup(machine.cpu_mut(i));
                k.program()
            })
            .collect();
        let mut probes = CoSimProbes::new(4);
        let stats = machine
            .run_probed(&programs, probes.as_mut_slice())
            .expect("co-sim run");
        (stats, probes)
    };
    let (s1, p1) = run();
    let (s2, p2) = run();
    assert_eq!(s1, s2);
    assert_eq!(p1, p2);
}

/// The report layer reproduces the paper's §4.2 bands end to end (the
/// same check CI's cosim-validation job runs).
#[test]
fn report_bands_hold_end_to_end() {
    for mix in [Mix::Lockstep, Mix::Mixed] {
        let report = run_cosim(&SimConfig::c240().with_cpus(4), mix);
        assert_eq!(report.cpus, 4);
        assert_eq!(report.rows.len(), 4);
        assert!(
            report.in_band(),
            "{mix}: mean slowdown {:.4} outside band {:?}",
            report.mean_slowdown(),
            mix.band()
        );
        for r in &report.rows {
            assert!(
                r.slowdown >= 1.0,
                "cpu {}: sharing banks cannot speed a CPU up",
                r.cpu
            );
        }
    }
}
