//! Benchmark of the 10-sort#(16) stack: library tape, streaming engine,
//! pipe serving and TCP serving.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The untraced run (`--trace 0`) measures the end-to-end metrics; the
//! traced run (`--trace 1`) records a span around every timed call into a
//! layer of the program and reports the per-layer metrics. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See README.md for what each metric means.

mod oracle;
mod serve;
mod stack;
mod stream;
mod tape;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use trace::{Segment, Tracer};
use workload::{Budget, Kind, Outcome};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// Set-ups in a probe of a layer the workload does not exercise.
const PROBE_SETUP_REPS: usize = 3;
/// Pass-manager runs per traced run.
const PASS_REPS: usize = 5;
/// Share of `--seconds` the traced run gives the workload itself, in
/// alternating traced and untraced rounds; the rest is left for the
/// probes.
const WORKLOAD_SHARE: f64 = 0.8;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {value} is out of range"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_kind(
    kind: Kind,
    stack: &stack::Stack,
    seed: u64,
    budget: Budget,
    tracer: &mut Tracer,
    setups: usize,
) -> Result<Outcome, String> {
    match kind {
        Kind::Tape => tape::run(stack, seed, budget, tracer),
        Kind::Stream => stream::run(stack, seed, budget, tracer),
        Kind::ServePipe => serve::run_pipe(stack, seed, budget, tracer, setups),
        Kind::ServeTcp => serve::run_tcp(seed, budget, tracer, setups),
    }
}

/// Fixed probe length for a layer the workload does not exercise.
fn probe_budget(kind: Kind) -> Budget {
    Budget::Rounds(match kind {
        Kind::Tape => 1,
        Kind::Stream => 2,
        Kind::ServePipe | Kind::ServeTcp => 1,
    })
}

fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median vector rate over the repetitions that were, or were not, traced.
fn vector_rate(outcome: &Outcome, traced: bool) -> f64 {
    let rates: Vec<f64> = outcome
        .reps
        .iter()
        .filter(|r| r.traced == traced)
        .map(|r| r.vector_rate())
        .collect();
    median(&rates)
}

/// Peak resident set of this process, from /proc, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where a metric goes in the output: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Fewest latencies a repetition must hold for its own p90 to have ten
/// samples beyond it.
const REP_QUANTILE_SAMPLES: usize = 100;

/// Latency quantile `q`: the median over repetitions of each repetition's
/// own quantile where every repetition holds enough latencies (so that a
/// phase of host interference moves a few repetitions, not the tail of
/// the whole run), else the quantile of all latencies pooled.
fn latency_quantile(outcome: &Outcome, q: f64) -> f64 {
    if outcome
        .reps
        .iter()
        .all(|r| r.latencies.len() >= REP_QUANTILE_SAMPLES)
    {
        median(
            &outcome
                .reps
                .iter()
                .map(|r| quantile(outcome.rep_latencies(r), q))
                .collect::<Vec<_>>(),
        )
    } else {
        quantile(&outcome.latencies_ms, q)
    }
}

fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let requests: Vec<f64> = outcome.reps.iter().map(|r| r.request_rate()).collect();
    vec![
        ("setup_s", median(&outcome.setup_s), "s"),
        ("vectors_per_s", vector_rate(outcome, false), "1/s"),
        ("requests_per_s", median(&requests), "1/s"),
        ("e2e_p50_ms", latency_quantile(outcome, 0.5), "ms"),
        ("e2e_p90_ms", latency_quantile(outcome, 0.9), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Per-layer metrics read off spans: span name, metric name, divisor to
/// the metric's unit, and whether it is per work item or per call.
const SPAN_METRICS: [(&str, &str, f64, bool); 12] = [
    ("circuit.build", "circuit.build_ms", 1e6, false),
    ("verify.zero_one", "verify.zero_one_ms", 1e6, false),
    ("tape.compile", "tape.compile_ms", 1e6, false),
    ("passes.run", "passes.run_ms", 1e6, false),
    ("tape.eval_block_with", "tape.eval_ns_per_vector", 1.0, true),
    (
        "kernel.scalar_eval",
        "kernel.scalar_eval_ns_per_vector",
        1.0,
        true,
    ),
    (
        "netlist.eval_block",
        "netlist.eval_ns_per_vector",
        1.0,
        true,
    ),
    ("server.engine_new", "server.engine_new_ms", 1e6, false),
    (
        "server.parse_frame",
        "server.parse_ns_per_request",
        1.0,
        false,
    ),
    ("block.pack_rows", "block.pack_us_per_batch", 1e3, false),
    ("tape.eval_batch", "tape.eval_us_per_batch", 1e3, false),
    (
        "server.format_ok",
        "server.format_ns_per_request",
        1.0,
        false,
    ),
];

/// Per-layer samples of one segment: the spans it recorded plus the
/// samples its workloads derived.
fn layer_samples<'a>(
    tracer: &Tracer,
    segment: Segment,
    outcomes: impl Iterator<Item = &'a Outcome>,
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, metric, divisor, per_item) in SPAN_METRICS {
        let values = tracer
            .spans()
            .iter()
            .filter(|s| s.name == span && s.segment == segment)
            .map(|s| {
                let ns =
                    s.duration_ns() as f64 / if per_item { s.items.max(1) as f64 } else { 1.0 };
                ns / divisor
            });
        samples.entry(metric).or_default().extend(values);
    }
    for outcome in outcomes {
        for (name, values) in &outcome.layer {
            samples.entry(name).or_default().extend(values);
        }
    }
    samples
}

fn per_layer(
    stack: &stack::Stack,
    figures: &stack::Figures,
    tracer: &Tracer,
    main: &Outcome,
    probes: &[Outcome],
    overhead_pct: f64,
) -> Result<Vec<Metric>, String> {
    let own = layer_samples(tracer, Segment::Main, std::iter::once(main));
    let probed = layer_samples(tracer, Segment::Probe, probes.iter());
    // A layer the workload exercises is measured on the workload; any
    // other layer on the fixed probe.
    let pick = |name: &str| -> Result<f64, String> {
        [&own, &probed]
            .iter()
            .find_map(|m| m.get(name).filter(|v| !v.is_empty()).map(|v| median(v)))
            .ok_or_else(|| format!("no samples for per-layer metric {name}"))
    };
    let scratch_kib = (stack.tape.slot_count() * stack::PLANE.words() * 16) as f64 / 1024.0;
    let tape_eval = pick("tape.eval_ns_per_vector")?;
    let mut m: Vec<Metric> = vec![
        ("circuit.build_ms", pick("circuit.build_ms")?, "ms"),
        ("circuit.gates", figures.served.gates as f64, "count"),
        ("circuit.area_um2", figures.served.area_um2, "um2"),
        ("circuit.delay_ps", figures.served.delay_ps, "ps_model"),
        ("passes.run_ms", pick("passes.run_ms")?, "ms"),
        ("passes.gates", figures.optimized.gates as f64, "count"),
        ("passes.area_um2", figures.optimized.area_um2, "um2"),
        ("passes.delay_ps", figures.optimized.delay_ps, "ps_model"),
        ("verify.zero_one_ms", pick("verify.zero_one_ms")?, "ms"),
        ("tape.compile_ms", pick("tape.compile_ms")?, "ms"),
        ("tape.slots", stack.tape.slot_count() as f64, "count"),
        ("tape.scratch_kib", scratch_kib, "KiB"),
        ("tape.eval_ns_per_vector", tape_eval, "ns"),
        (
            "kernel.scalar_eval_ns_per_vector",
            pick("kernel.scalar_eval_ns_per_vector")?,
            "ns",
        ),
        (
            "netlist.eval_ns_per_vector",
            pick("netlist.eval_ns_per_vector")?,
            "ns",
        ),
        (
            "throughput.preflight_ms",
            pick("throughput.preflight_ms")?,
            "ms",
        ),
        (
            "throughput.gen_digest_ns_per_vector",
            1e9 / pick("throughput.vectors_per_s")? - tape_eval,
            "ns",
        ),
        ("server.engine_new_ms", pick("server.engine_new_ms")?, "ms"),
        (
            "server.parse_ns_per_request",
            pick("server.parse_ns_per_request")?,
            "ns",
        ),
        (
            "block.pack_us_per_batch",
            pick("block.pack_us_per_batch")?,
            "us",
        ),
        (
            "tape.eval_us_per_batch",
            pick("tape.eval_us_per_batch")?,
            "us",
        ),
        (
            "server.unpack_us_per_batch",
            pick("server.unpack_us_per_batch")?,
            "us",
        ),
        (
            "server.format_ns_per_request",
            pick("server.format_ns_per_request")?,
            "ns",
        ),
        (
            "server.lanes_per_batch",
            pick("server.lanes_per_batch")?,
            "count",
        ),
        ("server.queue_mean_us", pick("server.queue_mean_us")?, "us"),
        (
            "server.coalesce_mean_us",
            pick("server.coalesce_mean_us")?,
            "us",
        ),
        ("server.write_mean_us", pick("server.write_mean_us")?, "us"),
        ("server.e2e_mean_us", pick("server.e2e_mean_us")?, "us"),
        ("server.socket_ms", pick("server.socket_ms")?, "ms"),
    ];
    m.push(("trace.overhead_pct", overhead_pct, "%"));
    Ok(m)
}

struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

fn run(args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::new(args.trace);
    let (stack, stack_setup) = stack::build_timed(&mut tracer, SETUP_REPS)?;
    let kind = args.workload;
    if !args.trace {
        let mut outcome = run_kind(
            kind,
            &stack,
            args.seed,
            Budget::Seconds(args.seconds),
            &mut tracer,
            SETUP_REPS,
        )?;
        if kind == Kind::Tape {
            outcome.setup_s = stack_setup;
        }
        return Ok(Report {
            metrics: end_to_end(&outcome),
            attempted: outcome.attempted,
            failed: outcome.failed,
            problems: outcome.problems,
            notes: outcome.notes.into_values().collect(),
        });
    }

    let figures = stack::figures(&stack, &mut tracer, PASS_REPS);
    let own_budget = Budget::Seconds(args.seconds * WORKLOAD_SHARE);
    tracer.set_alternate(true);
    let own = run_kind(kind, &stack, args.seed, own_budget, &mut tracer, SETUP_REPS)?;
    tracer.set_alternate(false);
    tracer.set_enabled(true);
    tracer.set_segment(Segment::Probe);
    let mut probes = Vec::new();
    for other in Kind::ALL.into_iter().filter(|&k| k != kind) {
        probes.push(run_kind(
            other,
            &stack,
            args.seed,
            probe_budget(other),
            &mut tracer,
            PROBE_SETUP_REPS,
        )?);
    }
    let overhead_pct = (vector_rate(&own, false) / vector_rate(&own, true) - 1.0) * 100.0;
    let metrics = per_layer(&stack, &figures, &tracer, &own, &probes, overhead_pct)?;

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", kind.name(), args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );
    println!(
        "# {:<34} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, self_ms)) in tracer.summary() {
        println!("# {name:<34} {count:>8} {total:>12.3} {self_ms:>12.3}");
    }

    let all = std::iter::once(&own).chain(probes.iter());
    let (mut attempted, mut failed, mut problems, mut notes) = (0, 0, Vec::new(), Vec::new());
    for o in all {
        attempted += o.attempted;
        failed += o.failed;
        problems.extend(o.problems.iter().cloned());
        notes.extend(o.notes.values().cloned());
    }
    Ok(Report {
        metrics,
        attempted,
        failed,
        problems,
        notes,
    })
}

/// CPU model and processor count, from /proc/cpuinfo.
fn cpu() -> (String, usize) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = info.lines().filter(|l| l.starts_with("processor")).count();
    (model, nproc)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The commit checked out in the current directory, if it is a git
/// working tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            }),
            None => Some(head),
        },
        None => None,
    }
    .unwrap_or_else(|| "unknown".into())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, _, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} was not measured");
        return ExitCode::FAILURE;
    }
    for p in &report.problems {
        eprintln!("perfbench: property violated: {p}");
    }
    let (model, nproc) = cpu();
    println!(
        "# context {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpu\": \"{}\", \"nproc\": {nproc}, \
         \"kernel\": \"{}\", \"plane_width\": \"{}\", \"workers\": 1, \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"attempted\": {}, \"failed\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_escape(&model),
        stack::kernel().name(),
        stack::PLANE,
        json_escape(&rustc_version()),
        json_escape(&git_commit()),
        report.attempted,
        report.failed,
    );
    for note in &report.notes {
        println!("# note {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("# {name:<36} {value:>16.4} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
