//! Integration tests for the cycle-accounting telemetry layer: the
//! probe's wall-clock partition, the memory wait breakdown, ablation
//! zeroing, measured-counter citations in the diagnosis, and the
//! stability of the RunReport JSON schema.

use c240_isa::timing::exact_ticks;
use c240_sim::{CounterProbe, Cpu, Lane, SimConfig, StallCause};
use lfk_suite::LfkKernel;
use macs_core::{Finding, RunReport, RUN_REPORT_SCHEMA};
use macs_experiments::analyze_lfk;

fn run_probed(config: SimConfig, kernel: &dyn LfkKernel) -> (c240_sim::RunStats, CounterProbe) {
    let mut cpu = Cpu::new(config);
    kernel.setup(&mut cpu);
    let mut probe = CounterProbe::new();
    let stats = cpu
        .run_probed(&kernel.program(), &mut probe)
        .unwrap_or_else(|e| panic!("LFK{} failed: {e}", kernel.id()));
    (stats, probe)
}

/// Every lane of every kernel satisfies `busy + stalls + idle == cycles`
/// (the telemetry layer's defining invariant), and the probe's memory
/// wait agrees with the memory system's own counter.
#[test]
fn every_kernel_partitions_wall_clock() {
    for kernel in lfk_suite::all() {
        let (stats, probe) = run_probed(SimConfig::c240(), kernel.as_ref());
        let cycles = stats.cycles;
        for (lane, acct) in probe.lanes() {
            let sum = acct.busy + acct.stalls.total() + acct.idle;
            assert!(
                (sum - cycles).abs() <= 1e-6 * cycles.max(1.0),
                "LFK{} lane {lane}: busy {} + stalls {} + idle {} != cycles {cycles}",
                kernel.id(),
                acct.busy,
                acct.stalls.total(),
                acct.idle,
            );
            assert!(acct.busy >= 0.0 && acct.idle >= -1e-9);
        }
        let probe_mem = probe.totals().memory_wait();
        assert!(
            (probe_mem - stats.memory_wait_cycles).abs() <= 1e-6 * cycles.max(1.0),
            "LFK{}: probe memory wait {probe_mem} != stats {}",
            kernel.id(),
            stats.memory_wait_cycles,
        );
    }
}

/// The memory system's wait breakdown is exact, not approximate:
/// `bank_busy + refresh + contention == memory_wait_cycles` per kernel.
#[test]
fn memory_wait_breakdown_is_exact() {
    for kernel in lfk_suite::all() {
        let (stats, _) = run_probed(SimConfig::c240(), kernel.as_ref());
        let b = stats.memory_waits;
        assert!(
            (b.total() - stats.memory_wait_cycles).abs() < 1e-9 * stats.cycles.max(1.0),
            "LFK{}: {} + {} + {} != {}",
            kernel.id(),
            b.bank_busy,
            b.refresh,
            b.contention,
            stats.memory_wait_cycles,
        );
    }
}

/// Per-lane attribution, pinned exactly: busy, idle and each stall cause
/// in ticks (1/20 cycle), in `StallCause::ALL` order, for every LFK
/// kernel on the c240 baseline, without chaining and without refresh.
/// Every read-out must also be exactly its tick count over 20.
#[test]
fn per_lane_tick_counts_are_pinned() {
    let configs = [
        ("baseline", SimConfig::c240()),
        ("nochain", SimConfig::c240().without_chaining()),
        ("norefresh", SimConfig::c240().without_refresh()),
    ];
    let ticks = |cycles: f64| exact_ticks(cycles).unwrap_or_else(|| panic!("{cycles:?}"));
    let mut checked = 0;
    for (name, config) in &configs {
        for kernel in lfk_suite::all() {
            let (_, probe) = run_probed(config.clone(), kernel.as_ref());
            for (lane, acct) in probe.lanes() {
                let mut got = vec![ticks(acct.busy), ticks(acct.idle)];
                got.extend(StallCause::ALL.map(|c| ticks(acct.stalls.get(c))));
                let key = (*name, kernel.id(), lane.key());
                let want = PINNED_TICKS
                    .iter()
                    .find(|(n, id, l, _)| (*n, *id, *l) == key)
                    .unwrap_or_else(|| panic!("{key:?} is not pinned"));
                assert_eq!(got, want.3, "{key:?}");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, PINNED_TICKS.len());
}

/// `(config, LFK id, lane, [busy, idle, stalls...])` in ticks.
#[rustfmt::skip]
static PINNED_TICKS: [(&str, u32, &str, [i64; 14]); 150] = [
    ("baseline", 1, "ld", [1601600, 300, 0, 33760, 0, 0, 0, 0, 47920, 0, 0, 0, 0, 0]),
    ("baseline", 1, "add", [800800, 409580, 0, 0, 0, 460400, 0, 0, 12800, 0, 0, 0, 0, 0]),
    ("baseline", 1, "mul", [1201200, 2560, 0, 0, 0, 432220, 0, 0, 47600, 0, 0, 0, 0, 0]),
    ("baseline", 1, "scalar", [81980, 4440, 0, 0, 0, 0, 0, 1597160, 0, 0, 0, 0, 0, 0]),
    ("baseline", 1, "scalar_mem", [0, 1683580, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 2, "ld", [698400, 177880, 15560, 16960, 0, 109240, 0, 0, 86620, 0, 0, 0, 0, 0]),
    ("baseline", 2, "add", [232800, 426860, 0, 0, 0, 334600, 0, 0, 42000, 0, 0, 68400, 0, 0]),
    ("baseline", 2, "mul", [232800, 498740, 0, 0, 0, 359000, 0, 0, 14120, 0, 0, 0, 0, 0]),
    ("baseline", 2, "scalar", [402000, 440, 0, 0, 0, 0, 0, 702220, 0, 0, 0, 0, 0, 0]),
    ("baseline", 2, "scalar_mem", [57600, 757300, 0, 1440, 0, 0, 0, 0, 0, 0, 0, 0, 0, 288320]),
    ("baseline", 3, "ld", [800800, 4309, 0, 16640, 0, 0, 0, 0, 19120, 0, 0, 0, 0, 0]),
    ("baseline", 3, "add", [406416, 273, 0, 0, 0, 414960, 0, 0, 19220, 0, 0, 0, 0, 0]),
    ("baseline", 3, "mul", [400400, 4309, 0, 0, 0, 417200, 0, 0, 18960, 0, 0, 0, 0, 0]),
    ("baseline", 3, "scalar", [53700, 20, 0, 0, 0, 0, 0, 787149, 0, 0, 0, 0, 0, 0]),
    ("baseline", 3, "scalar_mem", [0, 840869, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 4, "ld", [480000, 88968, 3180, 10080, 0, 0, 0, 0, 8480, 84022, 0, 0, 0, 200]),
    ("baseline", 4, "add", [324000, 59580, 0, 0, 0, 291350, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 4, "mul", [240000, 162630, 0, 0, 0, 272300, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 4, "scalar", [53980, 0, 0, 0, 0, 0, 0, 620950, 0, 0, 0, 0, 0, 0]),
    ("baseline", 4, "scalar_mem", [4800, 669410, 0, 480, 0, 0, 0, 0, 0, 0, 0, 0, 240, 0]),
    ("baseline", 6, "ld", [2419200, 2136224, 18120, 56320, 0, 0, 0, 0, 75600, 0, 0, 0, 0, 200]),
    ("baseline", 6, "add", [1632960, 1130190, 0, 0, 0, 1942514, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 6, "mul", [1209600, 1914664, 0, 0, 0, 1581400, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 6, "scalar", [986380, 0, 0, 0, 0, 0, 0, 3719284, 0, 0, 0, 0, 0, 0]),
    ("baseline", 6, "scalar_mem", [151200, 4546624, 0, 6560, 0, 0, 0, 0, 0, 0, 0, 0, 1280, 0]),
    ("baseline", 7, "ld", [3980000, 380, 6580, 83840, 0, 54400, 0, 0, 121520, 0, 0, 12840, 0, 0]),
    ("baseline", 7, "add", [3184000, 66640, 0, 0, 0, 906780, 0, 0, 89600, 0, 0, 12540, 0, 0]),
    ("baseline", 7, "mul", [3184000, 22000, 0, 0, 0, 951320, 0, 0, 102240, 0, 0, 0, 0, 0]),
    ("baseline", 7, "scalar", [201600, 4260, 0, 0, 0, 0, 0, 4053700, 0, 0, 0, 0, 0, 0]),
    ("baseline", 7, "scalar_mem", [0, 4259560, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 8, "ld", [3326400, 1510380, 10120, 69760, 0, 520800, 0, 0, 74860, 0, 0, 0, 0, 8120]),
    ("baseline", 8, "add", [3326400, 942840, 0, 0, 0, 1052700, 0, 0, 57600, 0, 0, 140900, 0, 0]),
    ("baseline", 8, "mul", [2376000, 1625880, 0, 0, 0, 1042400, 0, 0, 49600, 0, 0, 426560, 0, 0]),
    ("baseline", 8, "scalar", [212800, 4280, 0, 0, 0, 0, 0, 5303360, 0, 0, 0, 0, 0, 0]),
    ("baseline", 8, "scalar_mem", [19200, 4814360, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 160, 686720]),
    ("baseline", 9, "ld", [1333200, 280, 3540, 28640, 0, 0, 0, 0, 49120, 0, 0, 151020, 0, 0]),
    ("baseline", 9, "add", [1090800, 128680, 0, 0, 0, 307920, 0, 0, 38400, 0, 0, 0, 0, 0]),
    ("baseline", 9, "mul", [969600, 279020, 0, 0, 0, 284780, 0, 0, 32400, 0, 0, 0, 0, 0]),
    ("baseline", 9, "scalar", [74400, 4180, 0, 0, 0, 0, 0, 1487220, 0, 0, 0, 0, 0, 0]),
    ("baseline", 9, "scalar_mem", [0, 1565800, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 10, "ld", [2424000, 300, 1200, 51200, 0, 0, 0, 0, 82720, 0, 0, 0, 0, 0]),
    ("baseline", 10, "add", [1090800, 253060, 0, 0, 0, 1148960, 0, 0, 66600, 0, 0, 0, 0, 0]),
    ("baseline", 10, "mul", [0, 2559420, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 10, "scalar", [78000, 4200, 0, 0, 0, 0, 0, 2477220, 0, 0, 0, 0, 0, 0]),
    ("baseline", 10, "scalar_mem", [0, 2559420, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 12, "ld", [1200000, 320, 14000, 25440, 0, 0, 0, 0, 28720, 0, 0, 0, 0, 0]),
    ("baseline", 12, "add", [400000, 411280, 0, 0, 0, 457200, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 12, "mul", [0, 1268480, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("baseline", 12, "scalar", [53580, 4360, 0, 0, 0, 0, 0, 1210540, 0, 0, 0, 0, 0, 0]),
    ("baseline", 12, "scalar_mem", [0, 1268480, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 1, "ld", [1601600, 300, 0, 33120, 0, 451600, 880800, 0, 47920, 0, 0, 0, 0, 0]),
    ("nochain", 1, "add", [800800, 900540, 0, 0, 0, 0, 1301200, 0, 12800, 0, 0, 0, 0, 0]),
    ("nochain", 1, "mul", [1201200, 480040, 0, 0, 0, 0, 1311700, 0, 22400, 0, 0, 0, 0, 0]),
    ("nochain", 1, "scalar", [81980, 9100, 0, 0, 0, 0, 0, 2924260, 0, 0, 0, 0, 0, 0]),
    ("nochain", 1, "scalar_mem", [0, 3015340, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 2, "ld", [698400, 185660, 15560, 20480, 0, 1240, 405840, 0, 81400, 0, 0, 0, 0, 0]),
    ("nochain", 2, "add", [232800, 510780, 0, 0, 0, 0, 623000, 0, 42000, 0, 0, 0, 0, 0]),
    ("nochain", 2, "mul", [232800, 584100, 0, 0, 0, 0, 547320, 0, 44360, 0, 0, 0, 0, 0]),
    ("nochain", 2, "scalar", [402000, 440, 0, 0, 0, 0, 0, 1006140, 0, 0, 0, 0, 0, 0]),
    ("nochain", 2, "scalar_mem", [57600, 775020, 0, 640, 0, 0, 0, 0, 0, 0, 0, 0, 0, 575320]),
    ("nochain", 3, "ld", [800800, 8629, 0, 16480, 0, 15900, 0, 0, 19120, 0, 0, 0, 0, 0]),
    ("nochain", 3, "add", [406416, 273, 0, 0, 0, 0, 435020, 0, 19220, 0, 0, 0, 0, 0]),
    ("nochain", 3, "mul", [400400, 6429, 0, 0, 0, 0, 435020, 0, 19080, 0, 0, 0, 0, 0]),
    ("nochain", 3, "scalar", [53700, 20, 0, 0, 0, 0, 0, 807209, 0, 0, 0, 0, 0, 0]),
    ("nochain", 3, "scalar_mem", [0, 860929, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 4, "ld", [480000, 261400, 3140, 9600, 0, 0, 0, 0, 8480, 391740, 0, 0, 0, 200]),
    ("nochain", 4, "add", [324000, 59900, 0, 0, 0, 0, 770660, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 4, "mul", [240000, 405500, 0, 0, 0, 0, 509060, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 4, "scalar", [53980, 0, 0, 0, 0, 0, 0, 1100580, 0, 0, 0, 0, 0, 0]),
    ("nochain", 4, "scalar_mem", [4800, 1149200, 0, 320, 0, 0, 0, 0, 0, 0, 0, 0, 240, 0]),
    ("nochain", 6, "ld", [2419200, 4496710, 18140, 56800, 0, 0, 0, 0, 75600, 0, 0, 0, 0, 200]),
    ("nochain", 6, "add", [1632960, 1130950, 0, 0, 0, 0, 4302740, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 6, "mul", [1209600, 3104110, 0, 0, 0, 0, 2752940, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 6, "scalar", [986380, 0, 0, 0, 0, 0, 0, 6080270, 0, 0, 0, 0, 0, 0]),
    ("nochain", 6, "scalar_mem", [151200, 6905210, 0, 8960, 0, 0, 0, 0, 0, 0, 0, 0, 1280, 0]),
    ("nochain", 7, "ld", [3980000, 1009920, 4980, 84000, 0, 420400, 1274000, 0, 68020, 0, 0, 0, 0, 0]),
    ("nochain", 7, "add", [3184000, 504320, 0, 0, 0, 0, 3079400, 0, 73600, 0, 0, 0, 0, 0]),
    ("nochain", 7, "mul", [3184000, 477280, 0, 0, 0, 0, 3084040, 0, 96000, 0, 0, 0, 0, 0]),
    ("nochain", 7, "scalar", [201600, 8560, 0, 0, 0, 0, 0, 6631160, 0, 0, 0, 0, 0, 0]),
    ("nochain", 7, "scalar_mem", [0, 6841320, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 8, "ld", [3326400, 2174560, 4800, 14720, 0, 0, 2092800, 0, 62400, 0, 0, 0, 0, 6480]),
    ("nochain", 8, "add", [3326400, 1653360, 0, 0, 0, 0, 2644800, 0, 57600, 0, 0, 0, 0, 0]),
    ("nochain", 8, "mul", [2376000, 3177440, 0, 0, 0, 67200, 2018320, 0, 43200, 0, 0, 0, 0, 0]),
    ("nochain", 8, "scalar", [212800, 8580, 0, 0, 0, 0, 0, 7460780, 0, 0, 0, 0, 0, 0]),
    ("nochain", 8, "scalar_mem", [19200, 6305200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 160, 1357600]),
    ("nochain", 9, "ld", [1333200, 280, 3540, 31200, 0, 6000, 139200, 0, 49120, 0, 0, 2084400, 0, 0]),
    ("nochain", 9, "add", [1090800, 163660, 0, 0, 0, 0, 2360080, 0, 32400, 0, 0, 0, 0, 0]),
    ("nochain", 9, "mul", [969600, 540140, 0, 0, 0, 0, 2104800, 0, 32400, 0, 0, 0, 0, 0]),
    ("nochain", 9, "scalar", [74400, 6500, 0, 0, 0, 0, 0, 3566040, 0, 0, 0, 0, 0, 0]),
    ("nochain", 9, "scalar_mem", [0, 3646940, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 10, "ld", [2424000, 300, 1200, 51360, 0, 0, 10480, 0, 82720, 0, 0, 0, 0, 0]),
    ("nochain", 10, "add", [1090800, 144700, 0, 0, 0, 0, 1267360, 0, 67200, 0, 0, 0, 0, 0]),
    ("nochain", 10, "mul", [0, 2570060, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 10, "scalar", [78000, 4580, 0, 0, 0, 0, 0, 2487480, 0, 0, 0, 0, 0, 0]),
    ("nochain", 10, "scalar_mem", [0, 2570060, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 12, "ld", [1200000, 320, 14000, 25600, 0, 0, 448000, 0, 28720, 0, 0, 0, 0, 0]),
    ("nochain", 12, "add", [400000, 463600, 0, 0, 0, 0, 853040, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 12, "mul", [0, 1716640, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("nochain", 12, "scalar", [53580, 6580, 0, 0, 0, 0, 0, 1656480, 0, 0, 0, 0, 0, 0]),
    ("nochain", 12, "scalar_mem", [0, 1716640, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 1, "ld", [1601600, 300, 0, 0, 0, 0, 0, 0, 47920, 0, 0, 0, 0, 0]),
    ("norefresh", 1, "add", [800800, 400620, 0, 0, 0, 435600, 0, 0, 12800, 0, 0, 0, 0, 0]),
    ("norefresh", 1, "mul", [1201200, 2320, 0, 0, 0, 398460, 0, 0, 47840, 0, 0, 0, 0, 0]),
    ("norefresh", 1, "scalar", [81980, 4280, 0, 0, 0, 0, 0, 1563560, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 1, "scalar_mem", [0, 1649820, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 2, "ld", [698400, 176820, 15600, 0, 0, 109200, 0, 0, 86400, 0, 0, 0, 0, 0]),
    ("norefresh", 2, "add", [232800, 419220, 0, 0, 0, 324000, 0, 0, 42000, 0, 0, 68400, 0, 0]),
    ("norefresh", 2, "mul", [232800, 491220, 0, 0, 0, 348000, 0, 0, 14400, 0, 0, 0, 0, 0]),
    ("norefresh", 2, "scalar", [402000, 440, 0, 0, 0, 0, 0, 683980, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 2, "scalar_mem", [57600, 745860, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 282960]),
    ("norefresh", 3, "ld", [800800, 4309, 0, 0, 0, 0, 0, 0, 19120, 0, 0, 0, 0, 0]),
    ("norefresh", 3, "add", [406416, 273, 0, 0, 0, 398320, 0, 0, 19220, 0, 0, 0, 0, 0]),
    ("norefresh", 3, "mul", [400400, 4189, 0, 0, 0, 400560, 0, 0, 19080, 0, 0, 0, 0, 0]),
    ("norefresh", 3, "scalar", [53700, 20, 0, 0, 0, 0, 0, 770509, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 3, "scalar_mem", [0, 824229, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 4, "ld", [480000, 90460, 3200, 0, 0, 0, 0, 0, 8480, 86660, 0, 0, 0, 40]),
    ("norefresh", 4, "add", [324000, 59260, 0, 0, 0, 285580, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 4, "mul", [240000, 166440, 0, 0, 0, 262400, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 4, "scalar", [53980, 0, 0, 0, 0, 0, 0, 614860, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 4, "scalar_mem", [4800, 663800, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 240, 0]),
    ("norefresh", 6, "ld", [2419200, 2153110, 18040, 0, 0, 0, 0, 0, 75600, 0, 0, 0, 0, 40]),
    ("norefresh", 6, "add", [1632960, 1125030, 0, 0, 0, 1908000, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 6, "mul", [1209600, 1926390, 0, 0, 0, 1530000, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 6, "scalar", [986380, 0, 0, 0, 0, 0, 0, 3679610, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 6, "scalar_mem", [151200, 4513510, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1280, 0]),
    ("norefresh", 7, "ld", [3980000, 380, 6380, 0, 0, 54400, 0, 0, 121520, 0, 0, 19200, 0, 0]),
    ("norefresh", 7, "add", [3184000, 58320, 0, 0, 0, 831160, 0, 0, 89600, 0, 0, 18800, 0, 0]),
    ("norefresh", 7, "mul", [3184000, 21520, 0, 0, 0, 874000, 0, 0, 102360, 0, 0, 0, 0, 0]),
    ("norefresh", 7, "scalar", [201600, 4100, 0, 0, 0, 0, 0, 3976180, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 7, "scalar_mem", [0, 4181880, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 8, "ld", [3326400, 1555520, 9600, 0, 0, 523200, 0, 0, 62400, 0, 0, 0, 0, 6480]),
    ("norefresh", 8, "add", [3326400, 922000, 0, 0, 0, 1036800, 0, 0, 57600, 0, 0, 140800, 0, 0]),
    ("norefresh", 8, "mul", [2376000, 1597920, 0, 0, 0, 1032880, 0, 0, 49600, 0, 0, 427200, 0, 0]),
    ("norefresh", 8, "scalar", [212800, 4120, 0, 0, 0, 0, 0, 5266680, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 8, "scalar_mem", [19200, 4795440, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 160, 668800]),
    ("norefresh", 9, "ld", [1333200, 280, 3540, 0, 0, 0, 0, 0, 49120, 0, 0, 170400, 0, 0]),
    ("norefresh", 9, "add", [1090800, 126140, 0, 0, 0, 301200, 0, 0, 38400, 0, 0, 0, 0, 0]),
    ("norefresh", 9, "mul", [969600, 276140, 0, 0, 0, 278400, 0, 0, 32400, 0, 0, 0, 0, 0]),
    ("norefresh", 9, "scalar", [74400, 4180, 0, 0, 0, 0, 0, 1477960, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 9, "scalar_mem", [0, 1556540, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 10, "ld", [2424000, 300, 1200, 0, 0, 0, 0, 0, 82720, 0, 0, 0, 0, 0]),
    ("norefresh", 10, "add", [1090800, 248620, 0, 0, 0, 1101600, 0, 0, 67200, 0, 0, 0, 0, 0]),
    ("norefresh", 10, "mul", [0, 2508220, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 10, "scalar", [78000, 4200, 0, 0, 0, 0, 0, 2426020, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 10, "scalar_mem", [0, 2508220, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 12, "ld", [1200000, 320, 14000, 0, 0, 0, 0, 0, 28720, 0, 0, 0, 0, 0]),
    ("norefresh", 12, "add", [400000, 403440, 0, 0, 0, 439600, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 12, "mul", [0, 1243040, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 12, "scalar", [53580, 4200, 0, 0, 0, 0, 0, 1185260, 0, 0, 0, 0, 0, 0]),
    ("norefresh", 12, "scalar_mem", [0, 1243040, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
];

/// Turning a hardware hazard off in the machine model zeroes exactly its
/// stall category, for every kernel.
#[test]
fn ablations_zero_their_stall_categories() {
    for kernel in lfk_suite::all() {
        let id = kernel.id();
        let (_, p) = run_probed(SimConfig::c240().without_refresh(), kernel.as_ref());
        assert_eq!(p.totals().get(StallCause::Refresh), 0.0, "LFK{id} refresh");

        let (_, p) = run_probed(SimConfig::c240().without_bubbles(), kernel.as_ref());
        assert_eq!(
            p.totals().get(StallCause::TailgateBubble),
            0.0,
            "LFK{id} bubbles"
        );

        let (_, p) = run_probed(SimConfig::c240().without_pair_constraint(), kernel.as_ref());
        assert_eq!(
            p.totals().get(StallCause::PairConflict),
            0.0,
            "LFK{id} pair"
        );
    }
}

/// Disabling chaining converts chain slip into full operand barriers on
/// a chain-dominated kernel (LFK1), and the partition invariant holds
/// under every ablation.
#[test]
fn chaining_ablation_moves_chain_wait_to_barriers() {
    let k1 = lfk_suite::by_id(1).expect("LFK1 exists");
    let (full_stats, full) = run_probed(SimConfig::c240(), k1.as_ref());
    let (nochain_stats, nochain) = run_probed(SimConfig::c240().without_chaining(), k1.as_ref());

    let full_chain = full.totals().get(StallCause::ChainWait);
    assert!(
        full_chain > 0.0,
        "LFK1 with chaining should show chain slip"
    );
    assert_eq!(full.totals().get(StallCause::OperandBarrier), 0.0);

    assert!(
        nochain.totals().get(StallCause::OperandBarrier) > 0.0,
        "without chaining, operands wait at a full barrier"
    );
    assert!(nochain_stats.cycles > full_stats.cycles);

    for (stats, probe) in [(&full_stats, &full), (&nochain_stats, &nochain)] {
        for (lane, acct) in probe.lanes() {
            let sum = acct.accounted();
            assert!(
                (sum - stats.cycles).abs() <= 1e-6 * stats.cycles,
                "lane {lane}: {sum} != {}",
                stats.cycles
            );
        }
    }
}

/// The §4.4 diagnosis cites measured counters: the memory finding's
/// breakdown comes from the memory system and sums to its total.
#[test]
fn findings_cite_measured_counters() {
    let k1 = lfk_suite::by_id(1).expect("LFK1 exists");
    let analysis = analyze_lfk(k1.as_ref(), &SimConfig::c240());
    let findings = analysis.findings();
    let mem = findings.iter().find_map(|f| match f {
        Finding::MemoryBottleneck {
            wait_cpl,
            bank_busy_cpl,
            refresh_cpl,
            contention_cpl,
        } => Some((*wait_cpl, *bank_busy_cpl, *refresh_cpl, *contention_cpl)),
        _ => None,
    });
    let (wait, bank, refresh, contention) = mem.expect("LFK1 reports its memory waits");
    assert!((bank + refresh + contention - wait).abs() < 1e-9);
    assert!(refresh > 0.0, "the C-240 refreshes during LFK1");
}

/// Every kernel's RunReport carries the full stable schema: all
/// sections, every lane, every stall cause, and the lane partition
/// rendered into JSON still sums to the run's cycles.
#[test]
fn run_reports_are_schema_stable_for_every_kernel() {
    let sections = [
        "schema",
        "kernel",
        "run",
        "memory",
        "bounds",
        "ax",
        "lanes",
        "stall_totals",
        "stall_total_cycles",
        "hottest_pcs",
        "findings",
    ];
    for kernel in lfk_suite::all() {
        let analysis = analyze_lfk(kernel.as_ref(), &SimConfig::c240());
        let report = RunReport::new(kernel.id(), analysis);
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(|s| s.as_str()),
            Some(RUN_REPORT_SCHEMA)
        );
        for section in sections {
            assert!(
                json.get(section).is_some(),
                "LFK{} missing `{section}`",
                kernel.id()
            );
        }
        let cycles = json
            .get("run")
            .and_then(|r| r.get("cycles"))
            .and_then(|c| c.as_f64())
            .expect("run.cycles");
        let lanes = json.get("lanes").expect("lanes");
        for lane in Lane::ALL {
            let entry = lanes
                .get(lane.key())
                .unwrap_or_else(|| panic!("LFK{} missing lane {lane}", kernel.id()));
            let busy = entry.get("busy").and_then(|v| v.as_f64()).unwrap();
            let stalled = entry.get("stalled").and_then(|v| v.as_f64()).unwrap();
            let idle = entry.get("idle").and_then(|v| v.as_f64()).unwrap();
            assert!(
                (busy + stalled + idle - cycles).abs() <= 1e-6 * cycles.max(1.0),
                "LFK{} lane {lane} partition broken in JSON",
                kernel.id()
            );
            let stalls = entry.get("stalls").expect("stalls");
            for cause in StallCause::ALL {
                assert!(
                    stalls.get(cause.key()).is_some(),
                    "LFK{} lane {lane} missing cause {cause}",
                    kernel.id()
                );
            }
        }
        // CSV carries the same matrix.
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), Lane::COUNT + 1);
        assert!(csv.starts_with("lane,busy,idle,"));
    }
}
