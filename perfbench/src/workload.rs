//! What every workload reports, and how long it runs.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Kind {
    Tape,
    Stream,
    ServePipe,
    ServeTcp,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Tape, Kind::Stream, Kind::ServePipe, Kind::ServeTcp];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tape => "tape-10x16",
            Kind::Stream => "stream-10x16",
            Kind::ServePipe => "serve-pipe-10x16",
            Kind::ServeTcp => "serve-tcp-10x16",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// How long a workload runs: whole rounds until `Seconds` have passed (at
/// least two rounds, one traced and one not when rounds alternate), or
/// exactly `Rounds` rounds.
#[derive(Copy, Clone, Debug)]
pub enum Budget {
    Seconds(f64),
    Rounds(usize),
}

impl Budget {
    pub fn another_round(self, started: Instant, done: usize) -> bool {
        match self {
            Budget::Seconds(s) => done < 2 || started.elapsed().as_secs_f64() < s,
            Budget::Rounds(n) => done < n,
        }
    }
}

/// One timed repetition: how many vectors were sorted in how long, and
/// how many calls or requests were answered in how long. The two times
/// differ only on `stream-10x16`, whose vectors are timed by the engine's
/// streaming loop and whose calls by their wall time.
#[derive(Clone, Debug)]
pub struct Rep {
    pub vectors: u64,
    pub vector_secs: f64,
    pub requests: u64,
    pub request_secs: f64,
    /// The repetition's entries in [`Outcome::latencies_ms`].
    pub latencies: Range<usize>,
    /// Whether spans were recorded during the repetition.
    pub traced: bool,
}

impl Rep {
    pub fn vector_rate(&self) -> f64 {
        self.vectors as f64 / self.vector_secs
    }

    pub fn request_rate(&self) -> f64 {
        self.requests as f64 / self.request_secs
    }
}

#[derive(Default, Debug)]
pub struct Outcome {
    /// Operations attempted and failed (vectors, `run_cell` calls or
    /// requests, by workload).
    pub attempted: u64,
    pub failed: u64,
    pub reps: Vec<Rep>,
    /// Caller-side latency of every call or request (of every 64th request
    /// on `serve-pipe-10x16`), in milliseconds, in the order of the
    /// repetitions. One buffer rather than one per repetition, so that the
    /// benchmark's own records do not fragment the program's heap.
    pub latencies_ms: Vec<f64>,
    /// Time from nothing to ready, once per set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Per-layer samples that are derived rather than read off one span.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
    /// Violated properties that are not tied to one operation.
    pub problems: Vec<String>,
    /// Observations about the program printed with the result, by topic.
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn rep_latencies(&self, rep: &Rep) -> &[f64] {
        &self.latencies_ms[rep.latencies.clone()]
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.layer.entry(name).or_default().push(value);
    }
}
