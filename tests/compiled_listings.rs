//! The compiler's instruction-level output, pinned.
//!
//! `compiler_simulator.rs` checks that compiled code computes the right
//! values; this test pins what the compiler emits. The committed
//! `compiled_listings.txt` holds `compile(..).program.to_string()` for
//! every LFK kernel with an IR form under both schedules and both
//! reduction styles, and for the first 64 random kernels of the
//! `compiled_kernels_match_interpreter` property (same seeds, same trip
//! counts). A kernel that does not compile pins its error instead.
//!
//! The table must never be regenerated to make a code generator change
//! pass: any difference is a change in the generated programs. On a
//! mismatch the computed table is written to the test binary's scratch
//! space (`CARGO_TARGET_TMPDIR`) for a line diff.

// Only the seeded generator and the random kernels are needed here.
#[allow(dead_code)]
mod prop_support;

use std::fmt::Write as _;

use macs_compiler::{compile, CompileOptions, Kernel, ReductionStyle, ScheduleStrategy};
use prop_support::{kernel, Rng};

const PINS: &str = include_str!("compiled_listings.txt");

fn section(out: &mut String, title: &str, kernel: &Kernel, n: u64, options: CompileOptions) {
    let _ = writeln!(out, "== {title} n={n} ==");
    match compile(kernel, n, options) {
        Ok(compiled) => out.push_str(&compiled.program.to_string()),
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
        }
    }
}

fn listings() -> String {
    let mut out = String::new();
    for id in [1, 3, 7, 9, 12] {
        let k = lfk_suite::by_id(id).expect("registered kernel");
        let ir = k.ir().expect("kernel has an IR form");
        let n = k.iterations() / k.passes() as u64;
        for schedule in [ScheduleStrategy::Interleaved, ScheduleStrategy::LoadsFirst] {
            for reduction in [ReductionStyle::Elementwise, ReductionStyle::PerStrip] {
                let title = format!("lfk{id} {schedule:?} {reduction:?}");
                let options = CompileOptions {
                    schedule,
                    reduction,
                };
                section(&mut out, &title, &ir, n, options);
            }
        }
    }
    for seed in 0..64u64 {
        let mut rng = Rng::new(4000 + seed);
        let k = kernel(&mut rng);
        let n = rng.range_u64(100, 400);
        let title = format!("random seed {seed}");
        section(&mut out, &title, &k, n, CompileOptions::default());
    }
    out
}

#[test]
fn compiled_listings_match_the_pinned_table() {
    let got = listings();
    if got != PINS {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("compiled_listings.txt");
        std::fs::write(&out, &got).expect("write the computed table");
        let want: Vec<&str> = PINS.lines().collect();
        let got: Vec<&str> = got.lines().collect();
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
            got.get(first).unwrap_or(&"<missing>"),
            out.display()
        );
    }
}
