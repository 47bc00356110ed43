//! `lfk-run` — run one (or all) of the case-study kernels on the
//! simulated C-240, verify the numerics against the reference
//! implementation, and print the measured performance.
//!
//! ```text
//! lfk-run [IDS...] [--no-refresh] [--no-chaining] [--no-bubbles] [--busy]
//! ```

use std::process::ExitCode;

use c240_mem::ContentionConfig;
use c240_sim::{Cpu, NoProbe, SimConfig};
use lfk_suite::{all, by_id, LfkKernel};
use macs_core::measure;

fn main() -> ExitCode {
    let mut ids: Vec<u32> = Vec::new();
    let mut config = SimConfig::c240();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-refresh" => config = config.without_refresh(),
            "--no-chaining" => config = config.without_chaining(),
            "--no-bubbles" => config = config.without_bubbles(),
            "--busy" => config.contention = ContentionConfig::mixed(3),
            "--help" | "-h" => {
                eprintln!(
                    "usage: lfk-run [IDS...] [--no-refresh] [--no-chaining] \
                     [--no-bubbles] [--busy]"
                );
                return ExitCode::SUCCESS;
            }
            other => match other.parse::<u32>() {
                Ok(id) if by_id(id).is_some() => ids.push(id),
                _ => {
                    eprintln!("unknown kernel or flag `{other}` (kernels: 1 2 3 4 6 7 8 9 10 12)");
                    return ExitCode::FAILURE;
                }
            },
        }
    }

    let kernels: Vec<Box<dyn LfkKernel>> = if ids.is_empty() {
        all()
    } else {
        ids.iter()
            .map(|&id| by_id(id).expect("validated"))
            .collect()
    };

    println!(
        "{:<5} {:<28} {:>10} {:>9} {:>9} {:>8}   check",
        "LFK", "name", "cycles", "CPL", "CPF", "MFLOPS"
    );
    let mut failed = false;
    for kernel in kernels {
        let setup = |cpu: &mut Cpu| kernel.setup(cpu);
        let (program, iters, flops) = (kernel.program(), kernel.iterations(), kernel.flops_total());
        let run = measure(&config, setup, &program, iters, flops, &mut [NoProbe]);
        let (m, machine) = match run {
            Ok((mut ms, machine)) => (ms.swap_remove(0), machine),
            Err(e) => {
                eprintln!("LFK{}: simulation failed: {e}", kernel.id());
                failed = true;
                continue;
            }
        };
        let verdict = match kernel.check(machine.cpu(0)) {
            Ok(()) => "ok".to_string(),
            Err(e) => {
                failed = true;
                format!("FAILED: {e}")
            }
        };
        println!(
            "{:<5} {:<28} {:>10.0} {:>9.3} {:>9.3} {:>8.2}   {verdict}",
            kernel.id(),
            kernel.name(),
            m.stats.cycles,
            m.cpl(),
            m.cpf(),
            m.mflops(),
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
