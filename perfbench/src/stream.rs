//! `stream-10x16`: the throughput engine through repeated
//! `throughput::run_cell` calls. Its inputs are private to the program, so
//! its outputs are checked by properties: the checksum must not depend on
//! the repetition, the plane width or the kernel, the program's own
//! pre-flight differential must have run, and the circuit it reports must
//! be the one the benchmark built.

use std::time::Instant;

use mcs_bench::throughput::{run_cell, CellReport, ThroughputConfig};
use mcs_logic::plane::kernel::KernelId;
use mcs_logic::PlaneWidth;

use crate::stack::{self, Stack, CHANNELS, WIDTH};
use crate::trace::{Tracer, ROOT};
use crate::workload::{Budget, Outcome, Rep};

/// Vectors per `run_cell` call: four 8192-lane chunks.
pub const VECTORS: u64 = 32_768;
/// Calls per repetition.
const CALLS: usize = 4;

pub fn config(seed: u64) -> ThroughputConfig {
    let mut cfg = ThroughputConfig::new(CHANNELS, WIDTH);
    cfg.vectors = VECTORS;
    cfg.workers = 1;
    cfg.seed = seed;
    cfg
}

fn call(cfg: &ThroughputConfig) -> Result<CellReport, String> {
    run_cell(cfg).map_err(|e| format!("run_cell: {e}"))
}

/// Why one report breaks the properties, if it does.
fn violation(
    report: &CellReport,
    cfg: &ThroughputConfig,
    stack: &Stack,
    checksum: u64,
) -> Option<String> {
    if report.checksum != checksum {
        return Some(format!(
            "checksum {:016x}, expected {checksum:016x}",
            report.checksum
        ));
    }
    if report.differential_lanes != cfg.sample_lanes {
        return Some(format!(
            "pre-flight covered {} lanes, configured {}",
            report.differential_lanes, cfg.sample_lanes
        ));
    }
    if report.gates != stack.circuit.gate_count() || report.depth != stack.circuit.depth() {
        return Some(format!(
            "engine ran {} gates / depth {}, benchmark built {} / {}",
            report.gates,
            report.depth,
            stack.circuit.gate_count(),
            stack.circuit.depth()
        ));
    }
    (report.vectors != cfg.vectors)
        .then(|| format!("streamed {} vectors of {}", report.vectors, cfg.vectors))
}

pub fn run(
    stack: &Stack,
    seed: u64,
    budget: Budget,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let cfg = config(seed);
    let mut outcome = Outcome::default();

    // Untimed: the same stream at every plane width, through the scalar and
    // the preferred kernel, must give one checksum.
    let mut checksum = None;
    for plane in PlaneWidth::ALL {
        for kernel in [KernelId::Scalar, stack::kernel()] {
            let mut c = cfg;
            c.plane_width = plane;
            c.kernel = kernel;
            let sum = call(&c)?.checksum;
            match checksum {
                None => checksum = Some(sum),
                Some(s) if s != sum => outcome.problems.push(format!(
                    "checksum {sum:016x} at plane width {plane} / {} differs from {s:016x}",
                    kernel.name()
                )),
                Some(_) => {}
            }
        }
    }
    let checksum = checksum.expect("at least one configuration");

    // Reserve the benchmark's own records up front: its small allocations
    // between `run_cell`'s large aligned ones fragment the heap, and peak
    // RSS then differs from run to run by several MiB.
    let most = 4096;
    outcome.reps.reserve(most);
    outcome.setup_s.reserve(most * CALLS);
    outcome.latencies_ms.reserve(most * CALLS);
    for name in ["throughput.preflight_ms", "throughput.vectors_per_s"] {
        outcome.layer.entry(name).or_default().reserve(most * CALLS);
    }
    let started = Instant::now();
    let mut i = 0u64;
    while budget.another_round(started, outcome.reps.len()) {
        let traced = tracer.start_round(outcome.reps.len());
        let mut rep = Rep {
            vectors: 0,
            vector_secs: 0.0,
            requests: 0,
            request_secs: 0.0,
            latencies: outcome.latencies_ms.len()..outcome.latencies_ms.len(),
            traced,
        };
        for _ in 0..CALLS {
            let t0 = Instant::now();
            let report = tracer.span("throughput.run_cell", i, ROOT, cfg.vectors, || call(&cfg))?;
            let wall = t0.elapsed().as_secs_f64();
            let streaming = report.elapsed.as_secs_f64();
            outcome.attempted += 1;
            if let Some(why) = violation(&report, &cfg, stack, checksum) {
                eprintln!("stream-10x16: run_cell call {i}: {why}");
                outcome.failed += 1;
            }
            outcome.latencies_ms.push(wall * 1e3);
            rep.latencies.end += 1;
            outcome.setup_s.push(wall - streaming);
            outcome.sample("throughput.preflight_ms", (wall - streaming) * 1e3);
            outcome.sample("throughput.vectors_per_s", cfg.vectors as f64 / streaming);
            rep.vectors += cfg.vectors;
            rep.vector_secs += streaming;
            rep.requests += 1;
            rep.request_secs += wall;
            i += 1;
        }
        outcome.reps.push(rep);
    }
    Ok(outcome)
}
