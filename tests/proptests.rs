//! Property-based tests over the core invariants:
//!
//! * assembler/disassembler round-trip,
//! * chime-partition structure (every vector instruction in exactly one
//!   chime, per-chime port limits respected),
//! * `t_MA ≤ t_MAC ≤ t_MACS` for compiler-generated programs,
//! * compiled code computes exactly what the IR interpreter computes,
//! * simulated time is monotone under added work and added contention.
//!
//! The container this repo builds in has no network access, so instead
//! of the `proptest` crate these properties run on a small deterministic
//! xorshift generator (`tests/prop_support.rs`): every case is seeded,
//! so a failure message's seed reproduces the exact inputs.

mod prop_support;

use std::collections::BTreeMap;

use prop_support::{kernel, Rng};

use c240_isa::asm::assemble;
use c240_isa::{Instruction, MemRef, Program, ScalarValue, VOperand};
use c240_mem::ContentionConfig;
use c240_sim::{Cpu, SimConfig};
use macs_compiler::{compile, CompileOptions};
use macs_core::{partition_chimes, ChimeConfig, KernelBounds};

fn vreg(i: u8) -> c240_isa::VReg {
    c240_isa::VReg::new(i % 8).unwrap()
}

fn sreg(i: u8) -> c240_isa::SReg {
    c240_isa::SReg::new(i % 8).unwrap()
}

fn areg(i: u8) -> c240_isa::AReg {
    c240_isa::AReg::new(i % 8).unwrap()
}

fn voperand(rng: &mut Rng) -> VOperand {
    if rng.bool() {
        VOperand::V(vreg(rng.u8()))
    } else {
        VOperand::S(sreg(rng.u8()))
    }
}

fn memref(rng: &mut Rng) -> MemRef {
    let base = rng.u8();
    let off = rng.range_i64(-64, 64) * 8;
    let stride = if rng.bool() { 1 } else { rng.range_i64(2, 32) };
    MemRef::new(areg(base), off).with_stride(stride)
}

/// An integer, or a finite float drawn from random bits (so every
/// exponent and digit count occurs).
fn immediate(rng: &mut Rng) -> ScalarValue {
    if rng.bool() {
        return ScalarValue::Int(rng.next() as i64);
    }
    loop {
        let x = f64::from_bits(rng.next());
        if x.is_finite() {
            return ScalarValue::Fp(x);
        }
    }
}

/// Random instructions covering every variant the assembler prints.
fn instruction(rng: &mut Rng) -> Instruction {
    match rng.range_u64(0, 11) {
        0 => Instruction::VLoad {
            addr: memref(rng),
            dst: vreg(rng.u8()),
        },
        1 => Instruction::VStore {
            src: vreg(rng.u8()),
            addr: memref(rng),
        },
        2 => Instruction::VAdd {
            a: VOperand::V(vreg(rng.u8())),
            b: voperand(rng),
            dst: vreg(rng.u8()),
        },
        3 => Instruction::VSub {
            a: VOperand::V(vreg(rng.u8())),
            b: voperand(rng),
            dst: vreg(rng.u8()),
        },
        4 => Instruction::VMul {
            a: voperand(rng),
            b: VOperand::V(vreg(rng.u8())),
            dst: vreg(rng.u8()),
        },
        5 => Instruction::VNeg {
            src: vreg(rng.u8()),
            dst: vreg(rng.u8()),
        },
        6 => Instruction::VSum {
            src: vreg(rng.u8()),
            dst: sreg(rng.u8()),
        },
        7 => Instruction::VRAdd {
            src: vreg(rng.u8()),
            acc: sreg(rng.u8()),
        },
        8 => Instruction::SMovImm {
            value: immediate(rng),
            dst: c240_isa::ScalarReg::S(sreg(rng.u8())),
        },
        9 => Instruction::SLoad {
            addr: memref(rng),
            dst: c240_isa::ScalarReg::A(areg(rng.u8())),
        },
        _ => Instruction::Nop,
    }
}

fn instruction_vec(rng: &mut Rng, min: usize, max: usize) -> Vec<Instruction> {
    let n = rng.range_usize(min, max);
    (0..n).map(|_| instruction(rng)).collect()
}

#[test]
fn assembler_roundtrip() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let instrs = instruction_vec(&mut rng, 1, 40);
        let program = Program::new(instrs, Default::default()).unwrap();
        let text = program.to_string();
        let reassembled = assemble(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        assert_eq!(program, reassembled, "seed {seed}");
    }
}

#[test]
fn chime_partition_covers_each_vector_instruction_once() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(1000 + seed);
        let instrs = instruction_vec(&mut rng, 1, 40);
        let config = ChimeConfig::c240();
        let part = partition_chimes(&instrs, &config);
        // Every vector instruction appears in exactly one chime.
        let mut seen = vec![0u32; instrs.len()];
        for chime in part.chimes() {
            assert!(!chime.members.is_empty(), "seed {seed}");
            for &m in &chime.members {
                seen[m] += 1;
            }
            // Port limits hold within the chime.
            let mut pipes = [0u8; 3];
            let mut reads = [0u8; 4];
            let mut writes = [0u8; 4];
            for &m in &chime.members {
                let ins = &instrs[m];
                let slot = match ins.pipe().unwrap() {
                    c240_isa::Pipe::LoadStore => 0,
                    c240_isa::Pipe::Add => 1,
                    c240_isa::Pipe::Multiply => 2,
                };
                pipes[slot] += 1;
                let (r, w) = ins.pair_usage();
                for p in 0..4 {
                    reads[p] += r[p];
                    writes[p] += w[p];
                }
            }
            assert!(
                pipes.iter().all(|&c| c <= 1),
                "seed {seed}: pipe reuse in a chime"
            );
            assert!(
                reads.iter().all(|&c| c <= 2),
                "seed {seed}: pair read limit"
            );
            assert!(
                writes.iter().all(|&c| c <= 1),
                "seed {seed}: pair write limit"
            );
            // Cost is at least one element sweep.
            assert!(chime.cost(config.vl) >= f64::from(config.vl), "seed {seed}");
        }
        for (i, ins) in instrs.iter().enumerate() {
            let expected = u32::from(ins.is_vector());
            assert_eq!(seen[i], expected, "seed {seed}: instruction {i} coverage");
        }
        // Refresh never shrinks the cost.
        assert!(part.cycles() >= part.raw_cycles() - 1e-9, "seed {seed}");
    }
}

#[test]
fn sim_time_grows_with_iterations() {
    let program = |n: i64| {
        assemble(&format!(
            "   mov #128,vl
                mov #{n},s0
            L:
                ld.l 0(a1),v0
                add.d v0,v0,v1
                sub.w #1,s0
                lt.w #0,s0
                jbrs.t L
                halt"
        ))
        .unwrap()
    };
    let mut cpu = Cpu::new(SimConfig::c240());
    for strips in 1i64..20 {
        let short = cpu.run(&program(strips)).unwrap().cycles;
        let long = cpu.run(&program(strips + 1)).unwrap().cycles;
        assert!(long > short, "strips {strips}: {long} <= {short}");
    }
}

#[test]
fn contention_never_speeds_up_memory_loops() {
    let strides = [3u64, 7, 11];
    let program = assemble(
        "   mov #128,vl
            mov #10,s0
        L:
            ld.l 0(a1),v0
            ld.l 8192(a1),v1
            add.w #1024,a1
            sub.w #1,s0
            lt.w #0,s0
            jbrs.t L
            halt",
    )
    .unwrap();
    let quiet = Cpu::new(SimConfig::c240()).run(&program).unwrap().cycles;
    for seed in 0..24u64 {
        let mut rng = Rng::new(2000 + seed);
        let phase = rng.range_u64(0, 32);
        let stride = strides[rng.range_usize(0, 3)];
        let busy_cfg = SimConfig {
            contention: ContentionConfig {
                streams: vec![c240_mem::ContentionStream {
                    stride,
                    phase,
                    duty_num: 1,
                    duty_den: 2,
                }],
            },
            ..SimConfig::c240()
        };
        let busy = Cpu::new(busy_cfg).run(&program).unwrap().cycles;
        assert!(
            busy + 1e-9 >= quiet,
            "seed {seed}: busy {busy} < quiet {quiet}"
        );
    }
    // Bank counts that are not powers of two, strides sharing factors
    // with them, and bank busy times past two rotations, where every
    // claim still running must block: each accepted configuration
    // against the same memory without the stream.
    let (mut accepted, mut long_busy) = (0u32, 0u32);
    for seed in 0..48u64 {
        let mut rng = Rng::new(3000 + seed);
        let banks = [3u32, 5, 6, 9, 12, 15, 24, 31][rng.range_usize(0, 8)];
        let mut quiet_cfg = SimConfig::c240();
        quiet_cfg.machine.banks = banks;
        quiet_cfg.machine.bank_busy = rng.range_u64(1, 4 * u64::from(banks));
        let stream = c240_mem::ContentionStream {
            stride: rng.range_u64(0, 16),
            phase: rng.range_u64(0, 64),
            duty_num: 1,
            duty_den: rng.range_u64(2, 5) as u32,
        };
        let busy_cfg = SimConfig {
            contention: ContentionConfig {
                streams: vec![stream],
            },
            ..quiet_cfg.clone()
        };
        if busy_cfg.validate().is_err() {
            continue;
        }
        accepted += 1;
        long_busy += u32::from(quiet_cfg.machine.bank_busy > 2 * u64::from(banks));
        let run = |cfg| Cpu::new(cfg).run(&program).unwrap().cycles;
        let (quiet, busy) = (run(quiet_cfg), run(busy_cfg));
        assert!(
            busy + 1e-9 >= quiet,
            "seed {seed}: busy {busy} < quiet {quiet}"
        );
    }
    assert!(
        accepted >= 24 && long_busy >= 4,
        "{accepted} accepted, {long_busy} past two rotations"
    );
}

#[test]
fn bounds_hierarchy_monotone_for_random_kernels() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(3000 + seed);
        let k = kernel(&mut rng);
        let Ok(compiled) = compile(&k, 1000, CompileOptions::default()) else {
            // Register pressure or a scalar-only store — fine to skip.
            continue;
        };
        let ma = macs_compiler::analyze_ma(&k);
        if ma.f_a + ma.f_m == 0 {
            continue;
        }
        let bounds = KernelBounds::compute("random", ma, &compiled.program, &ChimeConfig::c240());
        assert!(
            bounds.is_monotone(),
            "seed {seed}: MA {} MAC {} MACS {}\n{}",
            bounds.t_ma_cpl(),
            bounds.t_mac_cpl(),
            bounds.t_macs_cpl(),
            compiled.program
        );
    }
}

#[test]
fn compiled_kernels_match_interpreter() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(4000 + seed);
        let k = kernel(&mut rng);
        let n = rng.range_u64(100, 400);
        let Ok(compiled) = compile(&k, n, CompileOptions::default()) else {
            continue;
        };
        // Bind data, run, compare against the interpreter.
        let mut data: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (i, decl) in k.arrays().iter().enumerate() {
            data.insert(
                decl.name.clone(),
                (0..decl.len)
                    .map(|j| 0.5 + ((j * 7 + i as u64 * 13) % 11) as f64 / 11.0)
                    .collect(),
            );
        }
        let mut cpu = Cpu::new(SimConfig::c240());
        for decl in k.arrays() {
            let base = compiled.layout.base_word(&decl.name).unwrap();
            for (j, &v) in data[&decl.name].iter().enumerate() {
                cpu.mem_mut().poke(base + j as u64, v);
            }
        }
        cpu.run(&compiled.program).unwrap();

        let mut expected = data.clone();
        k.interpret(&mut expected, n);

        let base = compiled.layout.base_word("o").unwrap();
        for j in 0..n {
            let got = cpu.mem().peek(base + j);
            let want = expected["o"][j as usize];
            let rel = (got - want).abs() / want.abs().max(1.0);
            assert!(rel < 1e-10, "seed {seed}: o[{j}]: {got} vs {want}");
        }
    }
}

/// The assembler never panics on arbitrary input — it returns a
/// structured error with a line number instead.
#[test]
fn assembler_never_panics() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(5000 + seed);
        let source = rng.ascii_string(0, 200);
        match assemble(&source) {
            Ok(program) => {
                // Whatever parsed must render and re-parse identically.
                let text = program.to_string();
                let again = assemble(&text).unwrap();
                assert_eq!(program, again, "seed {seed}");
            }
            Err(e) => {
                assert!(!e.to_string().is_empty(), "seed {seed}");
            }
        }
    }
}

/// Near-miss assembly (valid mnemonics, scrambled operands) also fails
/// cleanly.
#[test]
fn assembler_rejects_near_misses() {
    let mnemonics = [
        "ld.l", "st.l", "add.d", "mul.d", "mov", "sum.d", "jbrs.t", "halt",
    ];
    for seed in 0..256u64 {
        let mut rng = Rng::new(6000 + seed);
        let mnemonic = mnemonics[rng.range_usize(0, mnemonics.len())];
        let operands = rng.string_from(b"abcdefghijklmnopqrstuvwxyz0123456789#(),:.-", 0, 24);
        let source = format!("{mnemonic} {operands}");
        let _ = assemble(&source); // must not panic
    }
}

/// Memory grants are monotone: asking later never gets an earlier grant,
/// and the same access pattern is deterministic.
#[test]
fn memory_grants_are_monotone_and_deterministic() {
    use c240_isa::MachineDescription;
    use c240_mem::{ContentionConfig, MemorySystem};
    let c240 = || MemorySystem::new(&MachineDescription::c240(), &ContentionConfig::idle());
    for seed in 0..48u64 {
        let mut rng = Rng::new(7000 + seed);
        let addrs: Vec<u64> = (0..rng.range_usize(1, 64))
            .map(|_| rng.range_u64(0, 4096))
            .collect();
        let delay = rng.range_u64(0, 16);
        // Times are in ticks, 20 per cycle.
        let cycle = 20;
        let mut early = c240();
        let mut late = c240();
        let mut t_early = 0;
        let mut t_late = delay as i64 * cycle;
        for &a in &addrs {
            let g1 = early.grant(a, t_early);
            let g2 = late.grant(a, t_late);
            assert!(g2 >= g1, "seed {seed}: later request granted earlier");
            t_early = g1 + cycle;
            t_late = g2 + cycle;
        }
        // Determinism.
        let mut again = c240();
        let mut t = 0;
        let mut grants = Vec::new();
        for &a in &addrs {
            let g = again.grant(a, t);
            grants.push(g);
            t = g + cycle;
        }
        let mut once_more = c240();
        let mut t2 = 0;
        for (&a, &g) in addrs.iter().zip(&grants) {
            let gg = once_more.grant(a, t2);
            assert_eq!(gg, g, "seed {seed}");
            t2 = gg + cycle;
        }
    }
}

/// The rescheduler output is always a permutation of its input.
#[test]
fn rescheduler_permutes() {
    use macs_core::reschedule_for_chimes;
    for seed in 0..64u64 {
        let mut rng = Rng::new(8000 + seed);
        let instrs = instruction_vec(&mut rng, 1, 24);
        let out = reschedule_for_chimes(&instrs, &ChimeConfig::c240());
        assert_eq!(out.len(), instrs.len(), "seed {seed}");
        let mut a: Vec<String> = instrs.iter().map(|i| i.to_string()).collect();
        let mut b: Vec<String> = out.iter().map(|i| i.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "seed {seed}");
        // And never worse under the chime model.
        let before = partition_chimes(&instrs, &ChimeConfig::c240()).cycles();
        let after = partition_chimes(&out, &ChimeConfig::c240()).cycles();
        assert!(after <= before + 1e-9, "seed {seed}");
    }
}
