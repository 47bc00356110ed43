//! `lfk-run` — run one (or all) of the case-study kernels on the
//! simulated C-240, verify the numerics against the reference
//! implementation, and print the measured performance.
//!
//! ```text
//! lfk-run [IDS...] [--no-refresh] [--no-chaining] [--no-bubbles] [--busy]
//! ```

use std::process::ExitCode;

use c240_mem::ContentionConfig;
use c240_sim::{Cpu, SimConfig};
use lfk_suite::{all, by_id, LfkKernel};

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
        let mut cpu = Cpu::new(config.clone());
        kernel.setup(&mut cpu);
        let stats = match cpu.run(&kernel.program()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("LFK{}: simulation failed: {e}", kernel.id());
                failed = true;
                continue;
            }
        };
        let cpl = stats.cycles / kernel.iterations() as f64;
        let cpf = cpl / f64::from(kernel.flops_total());
        let verdict = match kernel.check(&cpu) {
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
            stats.cycles,
            cpl,
            cpf,
            c240_isa::CLOCK_MHZ / cpf,
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
