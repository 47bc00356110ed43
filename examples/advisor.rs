//! The goal-directed toolchain built on the hierarchy (§5 of the
//! paper): ranked optimization advice, an exact rescheduling fix, and
//! the extended `MACS+O` bound that explains the "unexplainable"
//! kernels.
//!
//! ```text
//! cargo run --release --example advisor
//! ```

use c240_sim::SimConfig;
use lfk_suite::by_id;
use macs_core::{
    advise, analyze_kernel, analyze_overhead, partition_chimes, reschedule_for_chimes,
    segmented_macs_cpl, ChimeConfig,
};

fn main() {
    let sim = SimConfig::c240();
    let chime = ChimeConfig::c240();

    // ---- ranked advice for every kernel -----------------------------
    println!("Goal-directed advice (top item per kernel):\n");
    for id in lfk_suite::IDS {
        let k = by_id(id).expect("case-study kernel");
        let analysis = analyze_kernel(
            &format!("LFK{id}"),
            k.ma(),
            &k.program(),
            k.iterations(),
            &|cpu| k.setup(cpu),
            &sim,
        )
        .expect("kernel simulates");
        match advise(&analysis, 0.05).into_iter().next() {
            Some(top) => println!("  LFK{id:<3} {top}"),
            None => println!("  LFK{id:<3} at its bound — nothing to do"),
        }
    }

    // ---- the rescheduler as a concrete fix --------------------------
    // A naive loads-first schedule of a 5-point stencil: the model-driven
    // rescheduler repacks it.
    println!("\nRescheduling a naive loads-first stencil (chime model as cost function):");
    let naive = {
        use macs_compiler::{compile, load, param, CompileOptions, Kernel, ScheduleStrategy};
        let stencil = Kernel::new("stencil")
            .array("x", 2100)
            .array("y", 2100)
            .param("a", 0.2)
            .store(
                "y",
                0,
                param("a")
                    * (load("x", 0) + load("x", 1) + load("x", 2) + load("x", 3) + load("x", 4)),
            );
        compile(
            &stencil,
            2000,
            CompileOptions {
                schedule: ScheduleStrategy::LoadsFirst,
                ..CompileOptions::default()
            },
        )
        .expect("stencil compiles")
    };
    let l = naive.program.innermost_loop().unwrap();
    let body = naive.program.loop_body(l);
    let before = partition_chimes(body, &chime);
    let after = partition_chimes(&reschedule_for_chimes(body, &chime), &chime);
    println!(
        "  t_MACS {:.2} -> {:.2} CPL ({} -> {} chimes), dependence-safe",
        before.cpl(),
        after.cpl(),
        before.chimes().len(),
        after.chimes().len()
    );

    // And the honest negative result: LFK8's hand allocation recycles
    // v0..v4 so aggressively that WAR/WAW chains pin the order — §3.4's
    // point that "reallocating the registers may change the MACS bound"
    // (reordering alone cannot).
    let k8 = by_id(8).unwrap();
    let p8 = k8.program();
    let l8 = p8.innermost_loop().unwrap();
    let b8 = p8.loop_body(l8);
    let before8 = partition_chimes(b8, &chime);
    let after8 = partition_chimes(&reschedule_for_chimes(b8, &chime), &chime);
    println!(
        "  LFK8 for contrast: {:.2} -> {:.2} CPL — register recycling pins its \
         schedule;\n  only reallocation (or hoisting the spilled coefficients) can \
         free it.",
        before8.cpl(),
        after8.cpl()
    );

    // ---- MACS+O on the worst-explained kernel ------------------------
    println!("\nExtended bound t_MACS+O on LFK2 (the paper's warning-flag kernel):");
    let k2 = by_id(2).unwrap();
    let p2 = k2.program();
    let body2 = p2.loop_body(p2.innermost_loop().unwrap());
    let overhead = analyze_overhead(&p2, &chime).expect("LFK2 is nested");
    let segments = [50u64, 25, 12, 6, 3, 1];
    let extended = segmented_macs_cpl(body2, &chime, &segments, &overhead);
    let a2 = analyze_kernel(
        "LFK2",
        k2.ma(),
        &p2,
        k2.iterations(),
        &|cpu| k2.setup(cpu),
        &sim,
    )
    .unwrap();
    println!(
        "  plain t_MACS {:.2} CPL explains {:.0}% of measured {:.2};",
        a2.bounds.t_macs_cpl(),
        100.0 * a2.pct_macs(),
        a2.t_p_cpl()
    );
    println!(
        "  with per-segment overhead ({:.0} cycles/entry) and short-strip costs:",
        overhead.per_entry()
    );
    println!(
        "  t_MACS+O = {:.2} CPL — {:.0}% explained",
        extended,
        100.0 * extended / a2.t_p_cpl()
    );
}
