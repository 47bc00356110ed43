//! Process-level checks of `macs-report`'s `--cpus` validation.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_macs-report"))
        .args(args)
        .output()
        .expect("macs-report runs")
}

/// `cosim` (also inside `all`) and `roofline` co-simulate `--cpus` CPUs,
/// so a count above the machine's memory ports is a usage error naming
/// the port count, not a panic and not a silent run.
#[test]
fn cpus_above_the_port_count_is_a_usage_error() {
    let cases: [(&[&str], &str); 4] = [
        (&["cosim", "--cpus", "8"], "4 memory ports"),
        (&["all", "--cpus", "5"], "4 memory ports"),
        (
            &["roofline", "--machine", "dual-port", "--cpus", "8"],
            "2 memory ports",
        ),
        (
            &["roofline", "--machine", "dual-port", "--cpus", "3"],
            "2 memory ports",
        ),
    ];
    for (args, ports) in cases {
        let out = report(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains(ports), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} writes no artifact");
    }
}

/// `sweep-grid` only writes request lines; the server validates each
/// point, so any CPU count is accepted here.
#[test]
fn sweep_grid_leaves_cpu_counts_to_the_server() {
    let out = report(&[
        "sweep-grid",
        "--cpus",
        "8",
        "--kernels",
        "1",
        "--ablations",
        "baseline",
    ]);
    assert!(out.status.success());
    let lines = String::from_utf8(out.stdout).expect("utf-8 requests");
    assert!(lines.contains("\"cpus\":8"), "{lines}");
}
