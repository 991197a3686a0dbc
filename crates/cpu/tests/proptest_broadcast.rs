//! Property-based equivalence of the broadcast fan-out: feeding one
//! arbitrary `DynInst` stream through `Broadcast([sim1..simN])` must be
//! byte-identical — cycles, all statistics, instructions fed — to running
//! the same stream through each simulator independently. This is the
//! correctness foundation of the shared-functional-pass experiment runner:
//! one interpretation, N timing simulations, no observable difference.

use mom_cpu::{MachineDescriptor, SimResult};
use mom_isa::trace::{
    ArchReg, BranchInfo, Broadcast, DynInst, InstClass, IsaKind, MemAccess, MemKind, TraceSink,
};
use mom_mem::MemModelKind;
use proptest::prelude::*;

/// Decode one generated tuple into a dynamic instruction covering every
/// instruction class, vector occupancy, spilled `MemList`s and both branch
/// outcomes (the same shape as `proptest_stream.rs`).
fn decode_inst(index: usize, sel: usize, bits: u64, elems: u16, flag: bool) -> DynInst {
    let pc = bits >> 48 & 0x3f;
    let ra = (bits & 31) as u8;
    let rb = (bits >> 5 & 31) as u8;
    let rd = (bits >> 10 & 31) as u8;
    match sel % 8 {
        0 => DynInst::new(InstClass::IntSimple, pc)
            .with_src(ArchReg::int(ra))
            .with_src(ArchReg::int(rb))
            .with_dst(ArchReg::int(rd)),
        1 => DynInst::new(InstClass::IntComplex, pc)
            .with_src(ArchReg::int(ra))
            .with_dst(ArchReg::int(rd)),
        2 => DynInst::new(InstClass::MediaSimple, pc)
            .with_src(ArchReg::media(ra % 8))
            .with_dst(ArchReg::mom(rd % 16))
            .with_elems(elems),
        3 => DynInst::new(InstClass::MediaComplex, pc)
            .with_src(ArchReg::mom_acc(ra % 2))
            .with_src(ArchReg::mom(rb % 16))
            .with_dst(ArchReg::mom_acc(ra % 2))
            .with_elems(elems),
        4 => {
            let n = if flag { elems } else { 1 };
            DynInst::new(InstClass::Load, pc)
                .with_src(ArchReg::int(ra))
                .with_dst(ArchReg::int(rd))
                .with_elems(n)
                .with_mem(
                    (0..n as u64)
                        .map(|k| MemAccess {
                            addr: (bits & 0xffff) * 8 + k * 16 + index as u64,
                            size: 8,
                            kind: MemKind::Load,
                        })
                        .collect::<Vec<_>>(),
                )
        }
        5 => DynInst::new(InstClass::Store, pc).with_src(ArchReg::int(ra)).with_mem(vec![
            MemAccess { addr: (bits & 0xffff) * 4, size: 4, kind: MemKind::Store },
        ]),
        6 => DynInst::new(InstClass::Branch, pc).with_branch(BranchInfo {
            taken: flag,
            conditional: bits & 1 == 0,
            pc,
            target: bits >> 40 & 0x3f,
        }),
        _ => DynInst::new(InstClass::Nop, pc),
    }
}

/// The machine grid one broadcast fans out to: a mix of widths, memory
/// latencies and a ROB override, like a real `(workload, isa)` group of the
/// sweep experiment.
fn descriptors() -> Vec<MachineDescriptor> {
    vec![
        MachineDescriptor::for_cell(1, IsaKind::Mom, MemModelKind::Perfect { latency: 1 }),
        MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 1 }),
        MachineDescriptor::for_cell(4, IsaKind::Mom, MemModelKind::Perfect { latency: 50 }),
        MachineDescriptor::for_cell(8, IsaKind::Mom, MemModelKind::Perfect { latency: 1 }).with_rob(16),
    ]
}

proptest! {
    #![proptest_config(Config::with_cases(32))]

    /// Broadcast(N sims) over an arbitrary stream == N independent runs:
    /// identical `SimResult`s (cycles, branches, mispredictions, memory
    /// retries/accesses) and identical instructions-fed accounting.
    #[test]
    fn broadcast_fanout_is_byte_identical_to_independent_runs(
        raw in prop::collection::vec((0usize..8, any::<u64>(), 1u16..=16, any::<bool>()), 0..300),
    ) {
        let insts: Vec<DynInst> = raw
            .iter()
            .enumerate()
            .map(|(i, &(sel, bits, elems, flag))| decode_inst(i, sel, bits, elems, flag))
            .collect();

        // Independent single-sink runs.
        let independent: Vec<SimResult> = descriptors()
            .iter()
            .map(|desc| {
                let mut machine = desc.build();
                let mut sim = machine.sim();
                for inst in &insts {
                    sim.feed(inst);
                }
                sim.finish()
            })
            .collect();

        // One shared pass through the broadcast.
        let mut machines: Vec<_> = descriptors().iter().map(|d| d.build()).collect();
        let fanned: Vec<SimResult> = {
            let streams: Vec<_> = machines.iter_mut().map(|m| m.sim()).collect();
            let mut fan = Broadcast::new(streams);
            for inst in &insts {
                fan.emit(inst.clone());
            }
            let children = fan.into_inner();
            for child in &children {
                prop_assert_eq!(child.fed(), insts.len(), "fuel accounting diverged");
            }
            children.into_iter().map(|s| s.finish()).collect()
        };

        prop_assert_eq!(independent, fanned);
    }
}
