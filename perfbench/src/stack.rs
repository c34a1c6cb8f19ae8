//! The circuit every workload runs: 10-sort# over 16-bit valid strings,
//! built, verified and compiled through the program's public functions.

use std::time::Instant;

use mcs_bench::throughput::cell_network;
use mcs_bench::verify::zero_one_circuit_check;
use mcs_bench::{measure, Measurement};
use mcs_logic::plane::kernel::{self, KernelId};
use mcs_logic::PlaneWidth;
use mcs_netlist::passes::PassManager;
use mcs_netlist::tech::TechLibrary;
use mcs_netlist::{EvalTape, Netlist};
use mcs_networks::circuit::{build_sorting_circuit, TwoSortFlavor};
use mcs_networks::verify::zero_one_verify;

use crate::trace::{Open, Tracer};

pub const CHANNELS: usize = 10;
pub const WIDTH: usize = 16;
/// Ports of the circuit: one per key bit.
pub const PORTS: usize = CHANNELS * WIDTH;
/// Plane width and kernel the program picks by default.
pub const PLANE: PlaneWidth = PlaneWidth::X4;

pub fn kernel() -> KernelId {
    kernel::preferred()
}

pub struct Stack {
    pub circuit: Netlist,
    pub tape: EvalTape,
}

/// Builds the network and circuit, verifies both by the 0-1 principle and
/// compiles the tape — the set-up every path of the program performs.
pub fn build(tracer: &mut Tracer, parent: Open) -> Result<Stack, String> {
    let network = cell_network(CHANNELS);
    let circuit = tracer.span("circuit.build", 0, parent, 1, || {
        build_sorting_circuit(&network, WIDTH, TwoSortFlavor::Paper)
    });
    tracer.span("verify.zero_one", 0, parent, 1, || -> Result<(), String> {
        zero_one_verify(&network).map_err(|e| format!("network fails 0-1 check: {e}"))?;
        zero_one_circuit_check(&circuit, CHANNELS, WIDTH).map_err(|e| e.to_string())
    })?;
    let tape = tracer.span("tape.compile", 0, parent, 1, || EvalTape::compile(&circuit));
    Ok(Stack { circuit, tape })
}

/// Repeats the full set-up `reps` times and returns the last stack with
/// every set-up's wall time in seconds (the scratch allocation is part of
/// being ready to evaluate).
pub fn build_timed(tracer: &mut Tracer, reps: usize) -> Result<(Stack, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let root = tracer.open("setup", rep as u64, crate::trace::ROOT);
        let stack = build(tracer, root)?;
        let scratch = stack
            .tape
            .try_scratch(PLANE, kernel())
            .map_err(|e| e.to_string())?;
        tracer.close(root, 1);
        times.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&scratch);
        last = Some(stack);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Modelled figures of the served netlist and of the pass-optimized one,
/// under the paper-calibrated library.
pub struct Figures {
    pub served: Measurement,
    pub optimized: Measurement,
}

pub fn figures(stack: &Stack, tracer: &mut Tracer, pass_reps: usize) -> Figures {
    let lib = TechLibrary::paper_calibrated();
    let mut optimized = None;
    for rep in 0..pass_reps {
        let result = tracer.span("passes.run", rep as u64, crate::trace::ROOT, 1, || {
            PassManager::standard().run(&stack.circuit, &lib)
        });
        optimized = Some(result.netlist);
    }
    Figures {
        served: measure(&stack.circuit, &lib),
        optimized: measure(&optimized.expect("at least one pass run"), &lib),
    }
}
