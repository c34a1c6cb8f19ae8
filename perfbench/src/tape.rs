//! `tape-10x16`: the library path. Random valid strings are packed into
//! `TritBlock`s untimed; the timed call is `EvalTape::eval_block_with` on
//! chunks of the engine's default 8192 lanes.

use std::time::Instant;

use mcs_logic::plane::kernel::KernelId;
use mcs_logic::{TritBlock, TritWord};

use crate::oracle::{self, Rng};
use crate::stack::{self, Stack, CHANNELS, PORTS, WIDTH};
use crate::trace::{Tracer, ROOT};
use crate::workload::{Budget, Outcome, Rep};

/// Lanes per call: the throughput engine's default chunk.
pub const CHUNK_LANES: usize = 8192;
/// Distinct chunks in the pool.
const POOL: usize = 8;
/// Passes over the pool per repetition: 1024 calls, about two seconds.
/// A shared host slows the tape in phases of a second or two; a
/// repetition longer than a phase averages over them, where the median of
/// shorter ones jumps between the phases' levels.
const PASSES: usize = 128;
/// In the traced run, every this many calls the same chunk also goes
/// through the scalar kernel and the netlist interpreter.
const REFERENCE_EVERY: usize = 4;

/// Random keys of `lanes` vectors, as ranks, lane-major.
pub fn random_ranks(rng: &mut Rng, lanes: usize) -> Vec<u64> {
    let n = oracle::rank_count(WIDTH);
    (0..lanes * CHANNELS).map(|_| rng.below(n)).collect()
}

/// Packs lane-major ranks into one block per port with the benchmark's
/// own encoder. Port `c·B + b` carries bit `b` (most significant first)
/// of channel `c`.
pub fn pack(ranks: &[u64], lanes: usize) -> Vec<TritBlock> {
    let words = lanes.div_ceil(64);
    let mut z = vec![0u64; PORTS * words];
    let mut o = vec![0u64; PORTS * words];
    for lane in 0..lanes {
        let (k, j) = (lane / 64, lane % 64);
        for c in 0..CHANNELS {
            let (zz, oo) = oracle::encode(WIDTH, ranks[lane * CHANNELS + c]);
            for b in 0..WIDTH {
                let pos = WIDTH - 1 - b;
                let at = (c * WIDTH + b) * words + k;
                z[at] |= ((zz >> pos) & 1) << j;
                o[at] |= ((oo >> pos) & 1) << j;
            }
        }
    }
    (0..PORTS)
        .map(|p| {
            let ws = (0..words)
                .map(|k| {
                    // Lanes past the end are stable 0.
                    let pad = !TritWord::lane_mask((lanes - 64 * k).min(64));
                    TritWord::from_planes(z[p * words + k] | pad, o[p * words + k])
                })
                .collect();
            TritBlock::from_words(ws, lanes)
        })
        .collect()
}

/// Sorted ranks of each lane, lane-major: what the outputs must read.
pub fn sorted_ranks(ranks: &[u64]) -> Vec<u64> {
    let mut sorted = ranks.to_vec();
    for lane in sorted.chunks_mut(CHANNELS) {
        lane.sort_unstable();
    }
    sorted
}

/// Decodes every output lane with the benchmark's own decoder and returns
/// how many lanes differ from `sorted`.
pub fn failed_lanes(out: &[TritBlock], sorted: &[u64], lanes: usize) -> u64 {
    if out.len() != PORTS || out.iter().any(|b| b.lanes() != lanes) {
        return lanes as u64;
    }
    let mut failed = 0;
    let mut zp = [0u64; PORTS];
    let mut op = [0u64; PORTS];
    for k in 0..lanes.div_ceil(64) {
        for p in 0..PORTS {
            let w = out[p].word(k);
            zp[p] = w.can_zero_plane();
            op[p] = w.can_one_plane();
        }
        for j in 0..(lanes - 64 * k).min(64) {
            let lane = 64 * k + j;
            let bad = (0..CHANNELS).any(|c| {
                let (mut z, mut o) = (0u64, 0u64);
                for b in 0..WIDTH {
                    z = (z << 1) | ((zp[c * WIDTH + b] >> j) & 1);
                    o = (o << 1) | ((op[c * WIDTH + b] >> j) & 1);
                }
                oracle::decode(WIDTH, z, o) != Some(sorted[lane * CHANNELS + c])
            });
            failed += u64::from(bad);
        }
    }
    failed
}

/// A cheap fingerprint of an output, to see that a repeated call on the
/// same chunk returned what the checked first call did.
pub fn digest(out: &[TritBlock]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for block in out {
        for w in block.words() {
            h = (h ^ w.can_zero_plane()).wrapping_mul(0x1000_0000_01b3);
            h = (h ^ w.can_one_plane()).wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

struct Chunk {
    blocks: Vec<TritBlock>,
    sorted: Vec<u64>,
    digest: Option<u64>,
}

pub fn run(
    stack: &Stack,
    seed: u64,
    budget: Budget,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed ^ 0x7461_7065);
    let mut pool: Vec<Chunk> = (0..POOL)
        .map(|_| {
            let ranks = random_ranks(&mut rng, CHUNK_LANES);
            Chunk {
                blocks: pack(&ranks, CHUNK_LANES),
                sorted: sorted_ranks(&ranks),
                digest: None,
            }
        })
        .collect();
    let mut scratch = stack
        .tape
        .try_scratch(stack::PLANE, stack::kernel())
        .map_err(|e| e.to_string())?;
    let mut scalar = stack
        .tape
        .try_scratch(stack::PLANE, KernelId::Scalar)
        .map_err(|e| e.to_string())?;

    let mut outcome = Outcome::default();
    let started = Instant::now();
    let mut call = 0usize;
    while budget.another_round(started, outcome.reps.len()) {
        let traced = tracer.start_round(outcome.reps.len());
        let mut busy = 0.0;
        let first = outcome.latencies_ms.len();
        for k in 0..POOL * PASSES {
            let chunk = &mut pool[k % POOL];
            let root = tracer.open("tape.chunk", call as u64, ROOT);
            let t0 = Instant::now();
            let out = tracer.span(
                "tape.eval_block_with",
                call as u64,
                root,
                CHUNK_LANES as u64,
                || stack.tape.eval_block_with(&chunk.blocks, &mut scratch),
            );
            let secs = t0.elapsed().as_secs_f64();
            busy += secs;
            outcome.latencies_ms.push(secs * 1e3);
            if traced && call.is_multiple_of(REFERENCE_EVERY) {
                let by_scalar = tracer.span(
                    "kernel.scalar_eval",
                    call as u64,
                    root,
                    CHUNK_LANES as u64,
                    || stack.tape.eval_block_with(&chunk.blocks, &mut scalar),
                );
                let by_netlist = tracer.span(
                    "netlist.eval_block",
                    call as u64,
                    root,
                    CHUNK_LANES as u64,
                    || stack.circuit.eval_block(&chunk.blocks),
                );
                if digest(&by_scalar) != digest(&out) || digest(&by_netlist) != digest(&out) {
                    outcome.problems.push(format!(
                        "call {call}: scalar kernel or netlist interpreter disagrees with the tape"
                    ));
                }
            }
            tracer.close(root, CHUNK_LANES as u64);
            let d = digest(&out);
            if chunk.digest != Some(d) {
                // Every distinct chunk is decoded lane by lane once; a
                // repeat is decoded again only if its output changed.
                outcome.failed += failed_lanes(&out, &chunk.sorted, CHUNK_LANES);
                chunk.digest.get_or_insert(d);
            }
            outcome.attempted += CHUNK_LANES as u64;
            call += 1;
        }
        outcome.reps.push(Rep {
            vectors: (POOL * PASSES * CHUNK_LANES) as u64,
            vector_secs: busy,
            requests: (POOL * PASSES) as u64,
            request_secs: busy,
            latencies: first..outcome.latencies_ms.len(),
            traced,
        });
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_gray::ValidString;
    use mcs_logic::Trit;

    #[test]
    fn pack_matches_the_program_encoding_and_the_tape_sorts() {
        let mut tracer = Tracer::new(false);
        let stack = stack::build(&mut tracer, ROOT).unwrap();
        let mut rng = Rng::new(3);
        let lanes = 130;
        let ranks = random_ranks(&mut rng, lanes);
        let blocks = pack(&ranks, lanes);
        for lane in [0, 63, 64, 129] {
            let bits: Vec<Trit> = TritBlock::unpack_lane(&blocks, lane);
            for c in 0..CHANNELS {
                let v = ValidString::from_rank(WIDTH, ranks[lane * CHANNELS + c]).unwrap();
                assert_eq!(&bits[c * WIDTH..(c + 1) * WIDTH], v.bits().as_slice());
            }
        }
        let out = stack.tape.eval_block(&blocks);
        assert_eq!(failed_lanes(&out, &sorted_ranks(&ranks), lanes), 0);
        // An unsorted expectation must be caught.
        assert_eq!(
            failed_lanes(&blocks, &sorted_ranks(&ranks), lanes),
            lanes as u64
        );
    }
}
