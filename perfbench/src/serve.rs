//! The two serving workloads.
//!
//! `serve-pipe-10x16` feeds `serve_lines` a pre-generated in-memory stream
//! of `sort` frames and stamps, from outside the program, when each line
//! is handed to it and when each reply line comes back. `serve-tcp-10x16`
//! runs `serve_tcp` on localhost and drives it closed-loop from one client
//! thread holding two connections, one request outstanding on each.
//!
//! Each request holds 1 to 10 keys, uniform, and each key is uniform over
//! all 2^17 − 1 valid strings of width 16, so about half are metastable.
//! Every reply is checked against the line the benchmark's own formatter
//! builds from the sorted ranks.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use mcs_bench::metrics::LatencyHistogram;
use mcs_bench::server::{
    format_ok, parse_frame, serve_lines, serve_tcp, Frame, Request, ServeReport, ServerConfig,
    SortEngine,
};
use mcs_gray::ValidString;
use mcs_logic::{Trit, TritBlock};

use crate::oracle::{self, Rng};
use crate::stack::{self, Stack, CHANNELS, WIDTH};
use crate::trace::{Tracer, ROOT};
use crate::workload::{Budget, Outcome, Rep};

/// Requests per `serve_lines` call.
const PIPE_REQUESTS: usize = 16_384;
/// Requests per round of the traced run that are also sent through the
/// serving layers one public call at a time.
const DECOMPOSED_REQUESTS: usize = 4_096;
/// Every this many pipe requests, one latency is kept: enough for the
/// quantiles, and memory that does not grow with the length of the run.
const LATENCY_STRIDE: usize = 64;
/// The server's default plane fill.
const BATCH: usize = 256;
/// Requests each TCP connection completes per round.
const TCP_PER_CONN: usize = 8;
/// Distinct TCP requests, used in turn.
const TCP_POOL: usize = 512;
/// Longest a TCP client waits for a reply before the run fails.
const TCP_TIMEOUT: Duration = Duration::from_secs(20);

pub fn config() -> ServerConfig {
    let mut cfg = ServerConfig::new(CHANNELS, WIDTH);
    cfg.workers = 1;
    cfg
}

/// One request: its frame and the reply it is owed.
struct Exchange {
    frame: String,
    reply: String,
}

fn exchanges(rng: &mut Rng, n: usize, prefix: &str) -> Vec<Exchange> {
    let count = oracle::rank_count(WIDTH);
    (0..n)
        .map(|i| {
            let keys = 1 + rng.below(CHANNELS as u64) as usize;
            let ranks: Vec<u64> = (0..keys).map(|_| rng.below(count)).collect();
            let id = format!("{prefix}{i}");
            Exchange {
                frame: oracle::request_line(WIDTH, &id, &ranks),
                reply: oracle::expected_reply(WIDTH, &id, &ranks),
            }
        })
        .collect()
}

/// `reps` engine set-ups, each timed and recorded as a span.
fn engines(reps: usize, tracer: &mut Tracer, outcome: &mut Outcome) -> Result<SortEngine, String> {
    let mut engine = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let e = tracer.span("server.engine_new", rep as u64, ROOT, 1, || {
            SortEngine::new(config())
        });
        outcome.setup_s.push(t0.elapsed().as_secs_f64());
        engine = Some(e.map_err(|e| format!("SortEngine::new: {e}"))?);
    }
    Ok(engine.expect("at least one set-up"))
}

/// Exact mean of a stage histogram (recorded in nanoseconds), in µs.
fn mean_us(h: &LatencyHistogram) -> f64 {
    h.sum() as f64 / h.count().max(1) as f64 / 1e3
}

fn stage_samples(outcome: &mut Outcome, report: &ServeReport) {
    outcome.sample("server.queue_mean_us", mean_us(&report.stages.queue));
    outcome.sample("server.coalesce_mean_us", mean_us(&report.stages.coalesce));
    outcome.sample("server.write_mean_us", mean_us(&report.stages.write));
    outcome.sample("server.e2e_mean_us", mean_us(&report.stages.e2e));
    outcome.sample(
        "server.lanes_per_batch",
        report.served as f64 / report.batches.max(1) as f64,
    );
    // The program's quantiles are upper bounds of log2 buckets; only the
    // exact means are used above. Say where a quantile overshoots the max.
    for (stage, h) in report.stages.stages() {
        let (p50, p90, max) = (h.quantile(0.5), h.quantile(0.9), h.max());
        if p50 > max || p90 > max {
            outcome.notes.insert(
                stage,
                format!(
                    "ServeReport stage {stage}: p50 {} us, p90 {} us, observed max {} us",
                    p50 / 1000,
                    p90 / 1000,
                    max / 1000
                ),
            );
        }
    }
}

/// Hands the server one line per read and stamps when each line starts.
struct StampedInput<'a> {
    data: &'a [u8],
    pos: usize,
    line_end: usize,
    stamps: Vec<Instant>,
}

impl Read for StampedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for StampedInput<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.line_end && self.pos < self.data.len() {
            let rest = &self.data[self.pos..];
            self.line_end = self.pos
                + rest
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(rest.len(), |i| i + 1);
            self.stamps.push(Instant::now());
        }
        Ok(&self.data[self.pos..self.line_end])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.line_end);
    }
}

/// Collects the reply bytes and stamps when each reply line ends.
struct StampedSink {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for StampedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            self.stamps.push(Instant::now());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Number of reply lines that differ from the expected ones, counting a
/// missing line as a difference.
fn failed_replies(got: &[u8], expected: &[Exchange]) -> u64 {
    let mut lines = got.split_inclusive(|&b| b == b'\n');
    expected
        .iter()
        .filter(|x| lines.next() != Some(x.reply.as_bytes()))
        .count() as u64
}

pub fn run_pipe(
    stack: &Stack,
    seed: u64,
    budget: Budget,
    tracer: &mut Tracer,
    setups: usize,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let engine = engines(setups, tracer, &mut outcome)?;
    let stream = exchanges(&mut Rng::new(seed ^ 0x7069_7065), PIPE_REQUESTS, "p");
    let input: Vec<u8> = stream.iter().flat_map(|x| x.frame.bytes()).collect();
    let reply_bytes: usize = stream.iter().map(|x| x.reply.len()).sum();
    let mut decomposer = Decomposer::new(stack, &engine)?;

    let started = Instant::now();
    while budget.another_round(started, outcome.reps.len()) {
        let traced = tracer.start_round(outcome.reps.len());
        let round = outcome.reps.len() as u64;
        let mut reader = StampedInput {
            data: &input,
            pos: 0,
            line_end: 0,
            stamps: Vec::with_capacity(PIPE_REQUESTS),
        };
        let mut sink = StampedSink {
            bytes: Vec::with_capacity(reply_bytes),
            stamps: Vec::with_capacity(PIPE_REQUESTS),
        };
        let t0 = Instant::now();
        let report = tracer.span(
            "server.serve_lines",
            round,
            ROOT,
            PIPE_REQUESTS as u64,
            || serve_lines(&engine, &mut reader, &mut sink),
        );
        let secs = t0.elapsed().as_secs_f64();
        let report = report.map_err(|e| format!("serve_lines: {e}"))?;
        outcome.attempted += PIPE_REQUESTS as u64;
        let failed = failed_replies(&sink.bytes, &stream);
        outcome.failed += failed;
        let first = outcome.latencies_ms.len();
        outcome.latencies_ms.extend(
            reader
                .stamps
                .iter()
                .zip(&sink.stamps)
                .step_by(LATENCY_STRIDE)
                .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3),
        );
        let ok = PIPE_REQUESTS as u64 - failed;
        outcome.reps.push(Rep {
            vectors: ok,
            vector_secs: secs,
            requests: ok,
            request_secs: secs,
            latencies: first..outcome.latencies_ms.len(),
            traced,
        });
        stage_samples(&mut outcome, &report);
        if traced {
            decomposer.run(&stream[..DECOMPOSED_REQUESTS], tracer, &mut outcome);
        }
    }
    Ok(outcome)
}

/// Sends requests through the serving layers one public call at a time —
/// `parse_frame`, `TritBlock::pack_rows`, tape eval, `sort_batch`,
/// `format_ok` — so each layer's cost is timed from outside the program.
struct Decomposer<'a> {
    stack: &'a Stack,
    engine: &'a SortEngine,
    cfg: ServerConfig,
    pad: ValidString,
    tape_scratch: mcs_netlist::TapeScratch,
    engine_scratch: mcs_netlist::TapeScratch,
    batch: u64,
}

impl<'a> Decomposer<'a> {
    fn new(stack: &'a Stack, engine: &'a SortEngine) -> Result<Decomposer<'a>, String> {
        Ok(Decomposer {
            stack,
            engine,
            cfg: config(),
            pad: ValidString::stable(WIDTH, (1 << WIDTH) - 1).map_err(|e| e.to_string())?,
            tape_scratch: stack
                .tape
                .try_scratch(stack::PLANE, stack::kernel())
                .map_err(|e| e.to_string())?,
            engine_scratch: engine.scratch(),
            batch: 0,
        })
    }

    fn run(&mut self, exchanges: &[Exchange], tracer: &mut Tracer, outcome: &mut Outcome) {
        for chunk in exchanges.chunks(BATCH) {
            let id = self.batch;
            self.batch += 1;
            let root = tracer.open("pipe.batch", id, ROOT);
            let mut requests: Vec<Request> = Vec::with_capacity(chunk.len());
            for x in chunk {
                match tracer.span("server.parse_frame", id, root, 1, || {
                    parse_frame(&x.frame, &self.cfg)
                }) {
                    Ok(Some(Frame::Sort(r))) => requests.push(r),
                    other => outcome
                        .problems
                        .push(format!("parse_frame({:?}) gave {other:?}", x.frame)),
                }
            }
            let rows: Vec<Vec<Trit>> = requests
                .iter()
                .map(|r| {
                    let mut row: Vec<Trit> = r.keys.iter().flat_map(|k| k.bits().iter()).collect();
                    for _ in r.keys.len()..CHANNELS {
                        row.extend(self.pad.bits().iter());
                    }
                    row
                })
                .collect();
            let lanes = rows.len() as u64;
            let t = Instant::now();
            let blocks = tracer.span("block.pack_rows", id, root, lanes, || {
                TritBlock::pack_rows(&rows)
            });
            let pack = t.elapsed();
            let t = Instant::now();
            let out = tracer.span("tape.eval_batch", id, root, lanes, || {
                self.stack
                    .tape
                    .eval_block_with(&blocks, &mut self.tape_scratch)
            });
            let eval = t.elapsed();
            std::hint::black_box(&out);
            let t = Instant::now();
            let sorted = tracer.span("server.sort_batch", id, root, lanes, || {
                self.engine.sort_batch(&requests, &mut self.engine_scratch)
            });
            let sort = t.elapsed();
            outcome.sample(
                "server.unpack_us_per_batch",
                (sort.as_secs_f64() - pack.as_secs_f64() - eval.as_secs_f64()) * 1e6,
            );
            match sorted {
                Ok(sorted) => {
                    for ((r, keys), x) in requests.iter().zip(&sorted).zip(chunk) {
                        let line =
                            tracer.span("server.format_ok", id, root, 1, || format_ok(&r.id, keys));
                        if x.reply.strip_suffix('\n') != Some(line.as_str()) {
                            outcome.problems.push(format!(
                                "sort_batch + format_ok gave {line:?}, expected {:?}",
                                x.reply
                            ));
                        }
                    }
                }
                Err(e) => outcome.problems.push(format!("sort_batch: {e}")),
            }
            tracer.close(root, lanes);
        }
    }
}

/// One client connection with a line reader on it.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // The client sends each request in one write; it must not be the
        // one holding data back.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TCP_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line)
    }
}

/// A request on the wire: which exchange, and when its write began and
/// ended.
struct InFlight {
    index: usize,
    sent: Instant,
    written: Instant,
}

fn send(conn: &mut Conn, pool: &[Exchange], index: usize) -> std::io::Result<InFlight> {
    let sent = Instant::now();
    conn.stream
        .write_all(pool[index % pool.len()].frame.as_bytes())?;
    Ok(InFlight {
        index,
        sent,
        written: Instant::now(),
    })
}

fn tcp_client(
    addr: SocketAddr,
    pool: &[Exchange],
    budget: Budget,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> std::io::Result<()> {
    let mut conns = [Conn::open(addr)?, Conn::open(addr)?];
    let mut next = 0usize;
    let started = Instant::now();
    while budget.another_round(started, outcome.reps.len()) {
        let traced = tracer.start_round(outcome.reps.len());
        let round_start = Instant::now();
        let mut inflight = Vec::with_capacity(conns.len());
        for conn in &mut conns {
            inflight.push(send(conn, pool, next)?);
            next += 1;
        }
        let mut ok = 0;
        let first = outcome.latencies_ms.len();
        for step in 0..TCP_PER_CONN {
            for (conn, slot) in conns.iter_mut().zip(inflight.iter_mut()) {
                let read_start = Instant::now();
                let line = conn.read_line()?;
                let done = Instant::now();
                let ms = done.duration_since(slot.sent).as_secs_f64() * 1e3;
                outcome.latencies_ms.push(ms);
                let trace_id = slot.index as u64;
                let root = tracer.record("tcp.request", trace_id, ROOT, slot.sent, done, 1);
                tracer.record("tcp.write", trace_id, root, slot.sent, slot.written, 1);
                tracer.record("tcp.read_line", trace_id, root, read_start, done, 1);
                outcome.attempted += 1;
                if line == pool[slot.index % pool.len()].reply {
                    ok += 1;
                } else {
                    eprintln!("serve-tcp-10x16: reply {line:?} to request {}", slot.index);
                    outcome.failed += 1;
                }
                if step + 1 < TCP_PER_CONN {
                    *slot = send(conn, pool, next)?;
                    next += 1;
                }
            }
        }
        let secs = round_start.elapsed().as_secs_f64();
        outcome.reps.push(Rep {
            vectors: ok,
            vector_secs: secs,
            requests: ok,
            request_secs: secs,
            latencies: first..outcome.latencies_ms.len(),
            traced,
        });
    }
    Ok(())
}

/// Asks the server to drain and stop.
fn shutdown(addr: SocketAddr) -> std::io::Result<()> {
    let mut conn = Conn::open(addr)?;
    conn.stream.write_all(b"shutdown bench\n")?;
    let line = conn.read_line()?;
    if line.trim_end() != "ok bench draining" {
        return Err(std::io::Error::other(format!("shutdown answered {line:?}")));
    }
    Ok(())
}

pub fn run_tcp(
    seed: u64,
    budget: Budget,
    tracer: &mut Tracer,
    setups: usize,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let engine = engines(setups, tracer, &mut outcome)?;
    let pool = exchanges(&mut Rng::new(seed ^ 0x7463_7020), TCP_POOL, "t");
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (client, stopped, report) = std::thread::scope(|s| {
        let server = s.spawn(|| serve_tcp(&engine, listener));
        let client = tcp_client(addr, &pool, budget, tracer, &mut outcome);
        // The client's connections are closed by now; the server stops once
        // told to, whether or not the client finished its rounds.
        let stopped = shutdown(addr);
        let report = server.join();
        (client, stopped, report)
    });
    client.map_err(|e| format!("tcp client: {e}"))?;
    stopped.map_err(|e| format!("tcp shutdown: {e}"))?;
    let report = report
        .map_err(|_| "serve_tcp panicked".to_string())?
        .map_err(|e| format!("serve_tcp: {e}"))?;
    stage_samples(&mut outcome, &report);
    // The time a reply spends in the socket after the server wrote it.
    let latencies = &outcome.latencies_ms;
    let client_ms = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let server_ms = mean_us(&report.stages.e2e) / 1e3;
    outcome.sample("server.socket_ms", client_ms - server_ms);
    Ok(outcome)
}
