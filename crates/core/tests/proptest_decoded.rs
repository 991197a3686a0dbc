//! Differential property test: the pre-decoded µop engine is byte-identical
//! to a walk-the-instruction-list reference interpreter.
//!
//! Arbitrary programs are generated for all four ISA dialects — scalar
//! control flow (forward and backward branches, loads, stores, ALU chains)
//! plus dialect-specific media, accumulator and matrix instructions — and
//! executed by both engines from identical machine states. Everything
//! observable must agree exactly:
//!
//! * the emitted [`DynInst`] sequence (classes, pcs, operands, element
//!   counts, memory access lists, branch outcomes),
//! * the final architectural state (integer/media registers, matrix
//!   registers, accumulators, memory),
//! * the fuel accounting, including the exact `FuelExhausted` error on
//!   non-terminating programs.
//!
//! The same reference checks the two ways a run can leave detail:
//! arbitrary interleavings of `fast_forward` and `stream_segment` windows,
//! and a sink whose [`TraceSink::demand`] follows an arbitrary
//! `Detail`/`Skip` schedule through `stream_with_fuel`. Skipped
//! instructions must change the architectural state exactly as emitted
//! ones do, and every emitted instruction must be the reference's
//! instruction at the same dynamic index.

use mom_core::matrix::{v, va};
use mom_core::ops::MomOp;
use mom_core::program::{ExecError, Program, ProgramBuilder, DEFAULT_FUEL};
use mom_core::state::Machine;
use mom_core::{ExecCursor, Inst};
use mom_isa::mdmx::{AccOp, MdmxOp};
use mom_isa::mem::MemImage;
use mom_isa::mmx::{MmxOp, PackedBinOp, ShiftKind};
use mom_isa::packed::{Lane, Saturation};
use mom_isa::regs::{a, m, r};
use mom_isa::scalar::{AluOp, Cond, ScalarOp};
use mom_isa::state::ControlFlow;
use mom_isa::trace::{BranchInfo, Demand, DynInst, InstClass, IsaKind, Trace, TraceSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MEM_BASE: u64 = 0x1000;
const MEM_SIZE: usize = 8192;

/// A fresh machine with deterministically scribbled memory so loads observe
/// non-trivial data.
fn machine(seed: u64) -> Machine {
    let mut machine = Machine::new(MemImage::new(MEM_BASE, MEM_SIZE));
    let mut state = seed | 1;
    for i in 0..(MEM_SIZE / 8) as u64 {
        // xorshift64 — cheap, deterministic, full-width patterns.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        machine.mem_mut().write_u64(MEM_BASE + i * 8, state);
    }
    machine
}

/// The reference interpreter: walk the instruction list, executing each
/// [`Inst`] through [`Inst::execute`] and assembling its [`DynInst`] with the
/// builder methods. It re-pays every per-dynamic-instruction decode cost the
/// decoded engine removes, which is why it lives here and not on a hot path.
fn stream_with_fuel_legacy<S: TraceSink + ?Sized>(
    program: &Program,
    machine: &mut Machine,
    sink: &mut S,
    fuel: usize,
) -> Result<usize, ExecError> {
    let insts = program.insts();
    let mut pc = 0usize;
    let mut executed = 0usize;
    while pc < insts.len() {
        if executed >= fuel {
            return Err(ExecError::FuelExhausted { executed });
        }
        let inst = &insts[pc];
        // Capture VL before execution for vector occupancy (SetVl itself
        // is not a vector instruction, so ordering does not matter).
        let elems = if inst.is_vector() { machine.mom.vl().max(1) as u16 } else { 1 };
        let outcome = inst.execute(machine);
        executed += 1;

        let mut dyn_inst = DynInst::new(inst.class(), pc as u64).with_elems(elems);
        for s in inst.srcs() {
            dyn_inst = dyn_inst.with_src(s);
        }
        for d in inst.dsts() {
            dyn_inst = dyn_inst.with_dst(d);
        }
        dyn_inst.mem = outcome.mem;

        let next_pc = match outcome.flow {
            ControlFlow::Fall => pc + 1,
            ControlFlow::Branch(label) => program.target(label),
            ControlFlow::Halt => insts.len(),
        };

        if dyn_inst.class == InstClass::Branch {
            let (taken, target, conditional) = match (&outcome.flow, inst) {
                (ControlFlow::Branch(label), Inst::Scalar(ScalarOp::Jmp { .. })) => {
                    (true, program.target(*label) as u64, false)
                }
                (ControlFlow::Branch(label), _) => (true, program.target(*label) as u64, true),
                (_, Inst::Scalar(ScalarOp::Br { target, .. })) => {
                    (false, program.target(*target) as u64, true)
                }
                _ => (false, (pc + 1) as u64, true),
            };
            dyn_inst =
                dyn_inst.with_branch(BranchInfo { taken, conditional, pc: pc as u64, target });
        }

        sink.emit(dyn_inst);
        pc = next_pc;
    }
    Ok(executed)
}

/// [`stream_with_fuel_legacy`] into a collected trace with the default
/// budget — the reference equivalent of [`Program::run`].
fn run_legacy(program: &Program, machine: &mut Machine) -> Result<Trace, ExecError> {
    let mut trace = Trace::new(program.isa());
    stream_with_fuel_legacy(program, machine, &mut trace, DEFAULT_FUEL)?;
    Ok(trace)
}

/// Emit one pseudo-random instruction for `isa` into the builder. `labels`
/// holds backward branch targets already bound; forward branches are bound by
/// the caller afterwards.
fn push_random_inst(
    b: &mut ProgramBuilder,
    isa: IsaKind,
    rng: &mut StdRng,
    backward: &[mom_isa::scalar::Label],
    forward: &mut Vec<mom_isa::scalar::Label>,
) {
    // Registers r(1)..r(12) hold data; r(13) is always a valid in-image
    // address; strides stay small so strided rows stay inside the image.
    let reg = |rng: &mut StdRng| r(1 + rng.gen::<usize>() % 12);
    let lane = |rng: &mut StdRng| {
        [Lane::U8, Lane::I8, Lane::U16, Lane::I16, Lane::U32, Lane::I32][rng.gen::<usize>() % 6]
    };
    let wide_lane = |rng: &mut StdRng| [Lane::U8, Lane::I8, Lane::U16, Lane::I16][rng.gen::<usize>() % 4];
    let sat = |rng: &mut StdRng| {
        if rng.gen::<bool>() {
            Saturation::Saturating
        } else {
            Saturation::Wrapping
        }
    };
    let bin_op = |rng: &mut StdRng| PackedBinOp::ALL[rng.gen::<usize>() % PackedBinOp::ALL.len()];
    let acc_op = |rng: &mut StdRng| AccOp::ALL[rng.gen::<usize>() % AccOp::ALL.len()];
    let shift_kind = |rng: &mut StdRng| {
        [ShiftKind::LeftLogical, ShiftKind::RightLogical, ShiftKind::RightArith]
            [rng.gen::<usize>() % 3]
    };
    let media = |rng: &mut StdRng| m(rng.gen::<usize>() % 8);
    let mom_reg = |rng: &mut StdRng| v(rng.gen::<usize>() % 8);
    let offset = |rng: &mut StdRng| (rng.gen::<u64>() % 512) as i64 * 8;

    // Scalar instructions are common to every dialect; media instructions
    // only appear in their own dialect.
    let scalar_only = isa == IsaKind::Alpha || rng.gen::<u64>() % 100 < 55;
    if scalar_only {
        match rng.gen::<u64>() % 100 {
            0..=14 => b.push(ScalarOp::Li { rd: reg(rng), imm: rng.gen::<i64>() % 10_000 }),
            15..=39 => b.push(ScalarOp::Alu {
                op: [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::And, AluOp::Or, AluOp::Xor, AluOp::Min, AluOp::Max]
                    [rng.gen::<usize>() % 8],
                rd: reg(rng),
                ra: reg(rng),
                rb: reg(rng),
            }),
            40..=49 => b.push(ScalarOp::AluI {
                op: [AluOp::Add, AluOp::Sll, AluOp::Srl, AluOp::Sra][rng.gen::<usize>() % 4],
                rd: reg(rng),
                ra: reg(rng),
                imm: (rng.gen::<u64>() % 16) as i64,
            }),
            50..=57 => b.push(ScalarOp::Ld {
                rd: reg(rng),
                base: r(13),
                offset: offset(rng),
                size: [1, 2, 4, 8][rng.gen::<usize>() % 4],
                signed: rng.gen::<bool>(),
            }),
            58..=64 => b.push(ScalarOp::St {
                rs: reg(rng),
                base: r(13),
                offset: offset(rng),
                size: [1, 2, 4, 8][rng.gen::<usize>() % 4],
            }),
            65..=72 => b.push(ScalarOp::CmpSet {
                cond: [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge][rng.gen::<usize>() % 6],
                rd: reg(rng),
                ra: reg(rng),
                rb: reg(rng),
            }),
            73..=78 => b.push(ScalarOp::CMov { rd: reg(rng), rc: reg(rng), rs: reg(rng) }),
            79..=82 => b.push(ScalarOp::Abs { rd: reg(rng), ra: reg(rng) }),
            83..=86 => b.push(ScalarOp::Mov { rd: reg(rng), rs: reg(rng) }),
            87..=89 => b.push(ScalarOp::Nop),
            // Branches: backward targets re-enter already-emitted code (the
            // countdown register r(14) guarantees termination); forward
            // targets are bound after the whole body is emitted.
            90..=94 if !backward.is_empty() => {
                let target = backward[rng.gen::<usize>() % backward.len()];
                // Count down r(14) and loop only while it stays positive.
                b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(14), ra: r(14), imm: -1 });
                b.push(ScalarOp::Br { cond: Cond::Gt, ra: r(14), rb: r(31), target })
            }
            _ => {
                let target = b.new_label();
                forward.push(target);
                b.push(ScalarOp::Br {
                    cond: [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Gt][rng.gen::<usize>() % 4],
                    ra: reg(rng),
                    rb: reg(rng),
                    target,
                })
            }
        };
        return;
    }

    match isa {
        IsaKind::Alpha => unreachable!("handled above"),
        IsaKind::Mmx | IsaKind::Mdmx => {
            let op = match rng.gen::<u64>() % 100 {
                0..=11 => MmxOp::Ld { md: media(rng), base: r(13), offset: offset(rng) },
                12..=19 => MmxOp::St { ms: media(rng), base: r(13), offset: offset(rng) },
                20..=24 => MmxOp::Splat { md: media(rng), rs: reg(rng), lane: lane(rng) },
                25..=29 => MmxOp::FromInt { md: media(rng), rs: reg(rng) },
                30..=34 => MmxOp::ToInt { rd: reg(rng), ms: media(rng), lane: Lane::U8, idx: (rng.gen::<u64>() % 8) as u8 },
                35..=54 => MmxOp::Packed {
                    op: bin_op(rng),
                    md: media(rng),
                    ma: media(rng),
                    mb: media(rng),
                    lane: lane(rng),
                    sat: sat(rng),
                },
                55..=61 => MmxOp::Shift {
                    kind: shift_kind(rng),
                    md: media(rng),
                    ms: media(rng),
                    lane: lane(rng),
                    amount: (rng.gen::<u64>() % 17) as u8,
                },
                62..=66 => MmxOp::Select { md: media(rng), mask: media(rng), ma: media(rng), mb: media(rng), lane: lane(rng) },
                67..=71 => MmxOp::Pack {
                    md: media(rng),
                    ma: media(rng),
                    mb: media(rng),
                    from: if rng.gen::<bool>() { Lane::I16 } else { Lane::I32 },
                    to_signed: rng.gen::<bool>(),
                },
                72..=76 => MmxOp::UnpackLo { md: media(rng), ma: media(rng), mb: media(rng), lane: lane(rng) },
                77..=81 => MmxOp::UnpackHi { md: media(rng), ma: media(rng), mb: media(rng), lane: lane(rng) },
                82..=86 => MmxOp::WidenLo { md: media(rng), ms: media(rng), lane: wide_lane(rng) },
                87..=91 => MmxOp::WidenHi { md: media(rng), ms: media(rng), lane: wide_lane(rng) },
                92..=95 => MmxOp::Sad { md: media(rng), ma: media(rng), mb: media(rng), lane: lane(rng) },
                _ => MmxOp::ReduceSum { rd: reg(rng), ms: media(rng), lane: lane(rng) },
            };
            if isa == IsaKind::Mmx {
                b.push(op);
            } else if rng.gen::<u64>() % 100 < 70 {
                b.push(MdmxOp::Simd(op));
            } else {
                // MDMX accumulator forms. AccClear precedes accumulation
                // often enough that lane modes stay coherent; an unconditional
                // clear first keeps the generated program architecturally
                // well-defined (no mid-stream lane-mode switches).
                let acc = a(rng.gen::<usize>() % 2);
                b.push(MdmxOp::AccClear { acc });
                let lane = wide_lane(rng);
                b.push(MdmxOp::Acc { op: acc_op(rng), acc, ma: media(rng), mb: media(rng), lane });
                match rng.gen::<u64>() % 3 {
                    0 => b.push(MdmxOp::ReadAcc {
                        md: media(rng),
                        acc,
                        lane,
                        shift: (rng.gen::<u64>() % 8) as u8,
                        sat: sat(rng),
                    }),
                    1 => b.push(MdmxOp::ReduceAcc { rd: reg(rng), acc }),
                    _ => &mut *b,
                };
            }
        }
        IsaKind::Mom => {
            match rng.gen::<u64>() % 100 {
                0..=7 => b.push(MomOp::SetVlI { vl: (rng.gen::<u64>() % 17) as u8 }),
                8..=10 => {
                    // SetVl from a register constrained to a small value.
                    b.push(ScalarOp::Li { rd: r(15), imm: (rng.gen::<u64>() % 20) as i64 });
                    b.push(MomOp::SetVl { rs: r(15) })
                }
                11..=22 => {
                    // Strided load with a safe base/stride (set up r(13)/r(16)
                    // so 16 rows stay inside the image).
                    b.push(ScalarOp::Li { rd: r(16), imm: (8 + (rng.gen::<u64>() % 4) * 8) as i64 });
                    b.push(MomOp::Ld { vd: mom_reg(rng), base: r(13), stride: r(16) })
                }
                23..=29 => {
                    b.push(ScalarOp::Li { rd: r(16), imm: (8 + (rng.gen::<u64>() % 4) * 8) as i64 });
                    b.push(MomOp::St { vs: mom_reg(rng), base: r(13), stride: r(16) })
                }
                30..=44 => b.push(MomOp::Packed {
                    op: bin_op(rng),
                    vd: mom_reg(rng),
                    va: mom_reg(rng),
                    vb: mom_reg(rng),
                    lane: lane(rng),
                    sat: sat(rng),
                }),
                45..=51 => b.push(MomOp::PackedMedia {
                    op: bin_op(rng),
                    vd: mom_reg(rng),
                    va: mom_reg(rng),
                    mb: media(rng),
                    lane: lane(rng),
                    sat: sat(rng),
                }),
                52..=56 => b.push(MomOp::Shift {
                    kind: shift_kind(rng),
                    vd: mom_reg(rng),
                    va: mom_reg(rng),
                    lane: lane(rng),
                    amount: (rng.gen::<u64>() % 17) as u8,
                }),
                57..=59 => b.push(MomOp::Select {
                    vd: mom_reg(rng),
                    mask: mom_reg(rng),
                    va: mom_reg(rng),
                    vb: mom_reg(rng),
                    lane: lane(rng),
                }),
                60..=62 => b.push(MomOp::Pack {
                    vd: mom_reg(rng),
                    va: mom_reg(rng),
                    vb: mom_reg(rng),
                    from: if rng.gen::<bool>() { Lane::I16 } else { Lane::I32 },
                    to_signed: rng.gen::<bool>(),
                }),
                63..=66 => b.push(MomOp::UnpackLo { vd: mom_reg(rng), va: mom_reg(rng), vb: mom_reg(rng), lane: lane(rng) }),
                67..=69 => b.push(MomOp::UnpackHi { vd: mom_reg(rng), va: mom_reg(rng), vb: mom_reg(rng), lane: lane(rng) }),
                70..=72 => b.push(MomOp::WidenLo { vd: mom_reg(rng), va: mom_reg(rng), lane: wide_lane(rng) }),
                73..=74 => b.push(MomOp::WidenHi { vd: mom_reg(rng), va: mom_reg(rng), lane: wide_lane(rng) }),
                75..=77 => b.push(MomOp::Transpose { vd: mom_reg(rng), va: mom_reg(rng), lane: if rng.gen::<bool>() { Lane::U8 } else { Lane::I16 } }),
                78..=79 => b.push(MomOp::TransposePair {
                    vd_lo: v(0),
                    vd_hi: v(1),
                    va_lo: mom_reg(rng),
                    va_hi: mom_reg(rng),
                }),
                80..=89 => {
                    let acc = va(rng.gen::<usize>() % 2);
                    b.push(MomOp::AccClear { acc });
                    let lane = wide_lane(rng);
                    b.push(MomOp::Acc { op: acc_op(rng), acc, va: mom_reg(rng), vb: mom_reg(rng), lane });
                    match rng.gen::<u64>() % 3 {
                        0 => b.push(MomOp::ReadAcc {
                            md: media(rng),
                            acc,
                            lane,
                            shift: (rng.gen::<u64>() % 8) as u8,
                            sat: sat(rng),
                        }),
                        1 => b.push(MomOp::ReduceAcc { rd: reg(rng), acc }),
                        _ => &mut *b,
                    }
                }
                90..=94 => {
                    let acc = va(rng.gen::<usize>() % 2);
                    b.push(MomOp::AccClear { acc });
                    b.push(MomOp::AccMedia {
                        op: acc_op(rng),
                        acc,
                        va: mom_reg(rng),
                        mb: media(rng),
                        lane: wide_lane(rng),
                    })
                }
                95..=97 => b.push(MomOp::RowToMedia { md: media(rng), vs: mom_reg(rng), row: (rng.gen::<u64>() % 16) as u8 }),
                _ => b.push(MomOp::MediaToRow { vd: mom_reg(rng), row: (rng.gen::<u64>() % 16) as u8, ms: media(rng) }),
            };
        }
    }
}

/// Generate an arbitrary terminating program for `isa` from `seed`.
fn random_program(isa: IsaKind, seed: u64, body_len: usize) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new(isa);
    // Data setup: registers hold bounded values, r(13) a valid base address,
    // r(14) the backward-branch fuel countdown, media registers scribbled
    // from memory (MMX/MDMX only).
    for i in 1..=12 {
        b.push(ScalarOp::Li { rd: r(i), imm: (rng.gen::<i64>() % 2_000) - 1_000 });
    }
    b.push(ScalarOp::Li { rd: r(13), imm: MEM_BASE as i64 });
    b.push(ScalarOp::Li { rd: r(14), imm: 24 });
    if matches!(isa, IsaKind::Mmx | IsaKind::Mdmx) {
        for i in 0..8 {
            let op = MmxOp::Ld { md: m(i), base: r(13), offset: (i as i64) * 64 };
            if isa == IsaKind::Mmx {
                b.push(op);
            } else {
                b.push(MdmxOp::Simd(op));
            }
        }
    }
    if isa == IsaKind::Mom {
        b.push(ScalarOp::Li { rd: r(16), imm: 16 });
        for i in 0..4 {
            b.push(MomOp::Ld { vd: v(i), base: r(13), stride: r(16) });
        }
    }

    let mut backward = Vec::new();
    let mut forward = Vec::new();
    for _ in 0..body_len {
        if rng.gen::<u64>() % 8 == 0 {
            backward.push(b.bind_here());
        }
        push_random_inst(&mut b, isa, &mut rng, &backward, &mut forward);
    }
    // Bind every forward branch beyond the last instruction, then halt.
    for label in forward {
        b.bind(label);
    }
    b.push(ScalarOp::Halt);
    b.build().expect("generated program has consistent labels")
}

/// Everything observable about one machine after execution, for equality
/// checks: integer registers, media registers, matrix rows, accumulator
/// lanes and memory bytes.
type Observation = (Vec<i64>, Vec<u64>, Vec<u64>, Vec<i64>, Vec<u8>);

fn observe(machine: &Machine) -> Observation {
    let ints: Vec<i64> = (0..32).map(|i| machine.core.int.read(r(i))).collect();
    let media: Vec<u64> = (0..32).map(|i| machine.core.media.read(m(i)).bits()).collect();
    let matrix: Vec<u64> = (0..16)
        .flat_map(|reg| (0..16).map(move |row| (reg, row)))
        .map(|(reg, row)| machine.mom.matrix.read(v(reg)).row(row).bits())
        .collect();
    let mut accs: Vec<i64> = Vec::new();
    for acc in &machine.core.accs {
        accs.extend(acc.lanes());
    }
    for acc in &machine.mom.accs {
        accs.extend(acc.lanes());
    }
    let mem = machine.mem().read_bytes(MEM_BASE, MEM_SIZE).to_vec();
    (ints, media, matrix, accs, mem)
}

fn assert_equivalent(isa: IsaKind, seed: u64, body_len: usize) {
    let program = random_program(isa, seed, body_len);

    let mut legacy_machine = machine(seed);
    let legacy: Result<Trace, _> = run_legacy(&program, &mut legacy_machine);
    let mut decoded_machine = machine(seed);
    let decoded = program.decode().run(&mut decoded_machine);

    match (&legacy, &decoded) {
        (Ok(lt), Ok(dt)) => {
            assert_eq!(lt.len(), dt.len(), "{isa} trace lengths differ");
            for (i, (l, d)) in lt.insts.iter().zip(&dt.insts).enumerate() {
                assert_eq!(l, d, "{isa} dynamic instruction {i} differs");
            }
            assert_eq!(lt.isa, dt.isa);
        }
        (l, d) => assert_eq!(l, d, "{isa} outcome differs"),
    }
    assert_eq!(observe(&legacy_machine), observe(&decoded_machine), "{isa} state differs");
}

/// Drive the decoded engine through random windows, each either a
/// `fast_forward` or a `stream_segment` of a random length, and compare
/// with the reference run of the whole program.
fn assert_interleaving_equivalent(isa: IsaKind, seed: u64, body_len: usize, schedule: u64) {
    let program = random_program(isa, seed, body_len);
    let mut legacy_machine = machine(seed);
    let Ok(reference) = run_legacy(&program, &mut legacy_machine) else {
        return; // Non-terminating programs are covered by the fuel tests.
    };
    let decoded = program.decode();
    let mut decoded_machine = machine(seed);
    let mut cursor = ExecCursor::start();
    let mut rng = StdRng::seed_from_u64(schedule);
    let mut executed = 0u64;
    while !cursor.is_done(&decoded) {
        let max = rng.gen::<u64>() % 40;
        if rng.gen::<bool>() {
            executed += decoded.fast_forward(&mut decoded_machine, &mut cursor, max);
        } else {
            let mut window: Vec<DynInst> = Vec::new();
            let n = decoded.stream_segment(&mut decoded_machine, &mut window, &mut cursor, max);
            assert_eq!(n, window.len() as u64, "{isa}: a segment emits what it executes");
            for (k, inst) in window.iter().enumerate() {
                let index = executed as usize + k;
                assert_eq!(inst, &reference.insts[index], "{isa}: dynamic instruction {index} differs");
            }
            executed += n;
        }
    }
    assert_eq!(executed, reference.len() as u64, "{isa}: executed counts differ");
    assert_eq!(observe(&legacy_machine), observe(&decoded_machine), "{isa}: state differs");
}

/// A sink that answers [`TraceSink::demand`] from a fixed cyclic schedule
/// of windows and records every emitted instruction with its dynamic index.
struct Scheduled {
    windows: Vec<Demand>,
    /// Current window and how much of it has been consumed.
    window: usize,
    used: u64,
    /// Dynamic index of the next instruction.
    pos: u64,
    emitted: Vec<(u64, DynInst)>,
}

impl Scheduled {
    fn len_of(d: Demand) -> u64 {
        match d {
            Demand::Detail(n) | Demand::Skip(n) => n,
        }
    }

    fn advance(&mut self, n: u64) {
        self.pos += n;
        self.used += n;
        while self.used >= Self::len_of(self.windows[self.window]) {
            self.used -= Self::len_of(self.windows[self.window]);
            self.window = (self.window + 1) % self.windows.len();
        }
    }
}

impl TraceSink for Scheduled {
    fn emit(&mut self, inst: DynInst) {
        assert!(
            matches!(self.demand(), Demand::Detail(_)),
            "instruction {} emitted inside a skip window",
            self.pos
        );
        self.emitted.push((self.pos, inst));
        self.advance(1);
    }

    fn demand(&self) -> Demand {
        let left = Self::len_of(self.windows[self.window]) - self.used;
        match self.windows[self.window] {
            Demand::Detail(_) => Demand::Detail(left),
            Demand::Skip(_) => Demand::Skip(left),
        }
    }

    fn skip(&mut self, n: u64) {
        match self.demand() {
            Demand::Skip(left) => assert!(n <= left, "skipped {n}, allowed {left}"),
            Demand::Detail(_) => panic!("skip called inside a detail window"),
        }
        self.advance(n);
    }
}

/// Run `program` through `stream_with_fuel` into a [`Scheduled`] sink at a
/// fuel below, at and above the program's length, and compare each outcome
/// with the reference at the same fuel.
fn assert_schedule_equivalent(isa: IsaKind, seed: u64, body_len: usize, schedule: u64) {
    let program = random_program(isa, seed, body_len);
    let Ok(full) = run_legacy(&program, &mut machine(seed)) else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(schedule);
    let windows: Vec<Demand> = (0..1 + rng.gen::<usize>() % 6)
        .map(|_| {
            let n = 1 + rng.gen::<u64>() % 30;
            if rng.gen::<bool>() {
                Demand::Detail(n)
            } else {
                Demand::Skip(n)
            }
        })
        .collect();
    let len = full.len();
    let decoded = program.decode();
    for fuel in [rng.gen::<usize>() % len.max(1), len, len + 1 + rng.gen::<usize>() % 50] {
        let mut legacy_machine = machine(seed);
        let mut reference = Trace::new(isa);
        let legacy = stream_with_fuel_legacy(&program, &mut legacy_machine, &mut reference, fuel);

        let mut decoded_machine = machine(seed);
        let mut sink = Scheduled { windows: windows.clone(), window: 0, used: 0, pos: 0, emitted: Vec::new() };
        let outcome = decoded.stream_with_fuel(&mut decoded_machine, &mut sink, fuel);
        assert_eq!(legacy, outcome, "{isa} at fuel {fuel}: outcome differs");
        let executed = match outcome {
            Ok(n) | Err(ExecError::FuelExhausted { executed: n }) => n,
        };
        assert_eq!(sink.pos, executed as u64, "{isa} at fuel {fuel}: sink saw a different count");
        for (index, inst) in &sink.emitted {
            assert_eq!(inst, &reference.insts[*index as usize], "{isa} at fuel {fuel}: instruction {index} differs");
        }
        assert_eq!(observe(&legacy_machine), observe(&decoded_machine), "{isa} at fuel {fuel}: state differs");
    }
}

proptest! {
    // Each case generates, decodes and doubly executes a whole program; the
    // case count is kept CI-friendly. `PROPTEST_CASES` overrides it.
    #![proptest_config(Config::with_cases(48))]

    #[test]
    fn decoded_equals_legacy_alpha(seed in any::<u64>(), body in 10usize..120) {
        assert_equivalent(IsaKind::Alpha, seed, body);
    }

    #[test]
    fn decoded_equals_legacy_mmx(seed in any::<u64>(), body in 10usize..100) {
        assert_equivalent(IsaKind::Mmx, seed, body);
    }

    #[test]
    fn decoded_equals_legacy_mdmx(seed in any::<u64>(), body in 10usize..100) {
        assert_equivalent(IsaKind::Mdmx, seed, body);
    }

    #[test]
    fn decoded_equals_legacy_mom(seed in any::<u64>(), body in 10usize..80) {
        assert_equivalent(IsaKind::Mom, seed, body);
    }

    #[test]
    fn fuel_exhaustion_is_identical(fuel in 0usize..200) {
        // A loop of 121 dynamic instructions must exhaust fuel at exactly
        // the same count, with exactly the same instructions already emitted
        // by both engines — and must complete, not fail, when the budget
        // covers it exactly (fuel == 121) or with room to spare.
        let mut b = ProgramBuilder::new(IsaKind::Alpha);
        b.push(ScalarOp::Li { rd: r(1), imm: 40 });
        let top = b.bind_here();
        let done = b.new_label();
        b.push(ScalarOp::AluI { op: AluOp::Add, rd: r(1), ra: r(1), imm: -1 });
        b.push(ScalarOp::Br { cond: Cond::Le, ra: r(1), rb: r(31), target: done });
        b.push(ScalarOp::Jmp { target: top });
        b.bind(done);
        b.push(ScalarOp::Halt);
        let program = b.build().unwrap();

        let mut legacy_sink = Trace::new(IsaKind::Alpha);
        let legacy = stream_with_fuel_legacy(&program, &mut machine(1), &mut legacy_sink, fuel);
        let mut decoded_sink = Trace::new(IsaKind::Alpha);
        let decoded = program.decode().stream_with_fuel(&mut machine(1), &mut decoded_sink, fuel);
        prop_assert_eq!(&legacy, &decoded);
        if fuel >= 121 {
            prop_assert_eq!(decoded, Ok(121));
        }
        let legacy_insts: Vec<DynInst> = legacy_sink.insts;
        prop_assert_eq!(legacy_insts, decoded_sink.insts);
    }

    #[test]
    fn interleaved_fast_forward_equals_legacy(
        seed in any::<u64>(),
        body in 10usize..80,
        schedule in any::<u64>(),
    ) {
        for isa in IsaKind::ALL {
            assert_interleaving_equivalent(isa, seed, body, schedule);
        }
    }

    #[test]
    fn demand_schedules_equal_legacy(
        seed in any::<u64>(),
        body in 10usize..80,
        schedule in any::<u64>(),
    ) {
        for isa in IsaKind::ALL {
            assert_schedule_equivalent(isa, seed, body, schedule);
        }
    }
}
