//! The differential oracle of the exact engine, shared by the integration
//! tests.
//!
//! The runner interprets each fan-out group once and broadcasts the stream
//! to every member simulator, never materializing a trace. The oracle takes
//! the opposite route for every grid cell on its own: build the cell's
//! complete `(workload, ISA)` trace (kernels verified against their golden
//! reference), then replay it on a freshly built machine with
//! `SimMachine::simulate_trace_probed`. No grouping, no broadcast, no
//! machine pool, no threads — so a cell that picks up another member's
//! instructions, or a pooled machine that leaks state, shows up as a field
//! mismatch here.

use mom_apps::{stream_app, AppParams};
use mom_isa::trace::{IsaKind, Trace};
use mom_kernels::{build_kernel, KernelParams};
use mom_lab::spec::Workload;
use mom_lab::RunResult;

/// The complete dynamic trace of one workload on one ISA.
fn build_trace(workload: Workload, isa: IsaKind, scale: usize, seed: u64) -> Trace {
    let mut trace = Trace::new(isa);
    match workload {
        Workload::Kernel(kernel) => {
            build_kernel(kernel, isa, &KernelParams { seed, scale })
                .stream_verified(&mut trace)
                .unwrap_or_else(|e| panic!("{kernel} ({isa}) failed verification: {e}"));
        }
        Workload::App(app) => {
            stream_app(app, isa, &AppParams { seed, scale }, &mut trace)
                .unwrap_or_else(|e| panic!("{app} ({isa}) failed to build: {e}"));
        }
    }
    trace
}

/// Assert that every cell of an exact grid run equals its independent trace
/// replay: cycles, committed instructions, branches, mispredictions, memory
/// accesses, stall breakdown, interval timeline and memory-system
/// statistics. Static experiments have no cells and pass trivially.
pub fn assert_matches_trace_replay(result: &RunResult) {
    let Some(grid) = result.spec.grid() else { return };
    let cells = result.cells().expect("a grid spec yields grid cells");
    let specs = grid.cells();
    assert_eq!(cells.len(), specs.len(), "{}: cell count", result.spec.name);
    let mut traces: Vec<((Workload, IsaKind), Trace)> = Vec::new();
    for (spec_cell, got) in specs.iter().zip(cells) {
        let config = &grid.configs[spec_cell.config];
        let pair = (spec_cell.workload, config.isa);
        let trace = match traces.iter().position(|(p, _)| *p == pair) {
            Some(i) => &traces[i].1,
            None => {
                traces.push((pair, build_trace(pair.0, pair.1, grid.scale, grid.seed)));
                &traces.last().expect("just pushed").1
            }
        };
        let mut machine = config.descriptor(spec_cell.way).build();
        let (sim, probe) = machine.simulate_trace_probed(trace);
        let cell = format!(
            "{}: {} / {} / {}-way",
            result.spec.name,
            spec_cell.workload.label(),
            config.label,
            spec_cell.way
        );
        assert_eq!(
            (got.workload, got.config_label.as_str(), got.way),
            (spec_cell.workload, config.label.as_str(), spec_cell.way),
            "{cell}: cell order"
        );
        assert_eq!(got.cycles, sim.cycles, "{cell}: cycles");
        assert_eq!(got.instructions, sim.committed, "{cell}: committed");
        assert_eq!(got.branches, sim.branches, "{cell}: branches");
        assert_eq!(got.mispredictions, sim.mispredictions, "{cell}: mispredictions");
        assert_eq!(got.mem_accesses, sim.mem_accesses, "{cell}: mem_accesses");
        assert_eq!(got.breakdown, probe.breakdown, "{cell}: stall breakdown");
        assert_eq!(got.intervals, probe.intervals, "{cell}: intervals");
        assert_eq!(got.mem_stats, machine.mem_stats(), "{cell}: memory statistics");
        assert!(got.sampling.is_none(), "{cell}: exact cells carry no sampling section");
    }
}
