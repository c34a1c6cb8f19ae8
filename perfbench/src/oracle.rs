//! The benchmark's own model of valid strings, written apart from the
//! program so that a fault in the program's encoder, decoder or formatter
//! cannot hide itself.
//!
//! A valid string of width `B` is named by its rank in the total order,
//! `0 ..= 2^{B+1} − 2`: rank `2x` is the reflected Gray codeword `rg(x)`,
//! rank `2x + 1` is the superposition `rg(x) ∗ rg(x + 1)`, which has one
//! metastable bit where the two codewords differ.
//!
//! A string is held as two bit masks over its `B` positions, most
//! significant position first (bit `B − 1` of the mask is the first
//! character): `can_zero` and `can_one`, the same two-plane encoding the
//! program's packed words use (`0` = only zero, `1` = only one, `M` = both).

/// Number of valid strings of width `width`.
pub fn rank_count(width: usize) -> u64 {
    (1u64 << (width + 1)) - 1
}

/// Reflected Gray codeword of `x`.
fn rg(x: u64) -> u64 {
    x ^ (x >> 1)
}

/// Value of a stable reflected Gray codeword: the prefix XOR of its bits
/// from the most significant down.
fn rg_inverse(mut g: u64) -> u64 {
    let mut shift = 1;
    while shift < 64 {
        g ^= g >> shift;
        shift <<= 1;
    }
    g
}

/// Encodes `rank` as `(can_zero, can_one)` masks of width `width`.
///
/// # Panics
///
/// Panics if `rank` is out of range for `width`.
pub fn encode(width: usize, rank: u64) -> (u64, u64) {
    assert!(
        rank < rank_count(width),
        "rank {rank} out of range for width {width}"
    );
    let mask = (1u64 << width) - 1;
    let x = rank / 2;
    if rank.is_multiple_of(2) {
        let g = rg(x);
        (!g & mask, g)
    } else {
        let (a, b) = (rg(x), rg(x + 1));
        (!(a & b) & mask, a | b)
    }
}

/// Decodes `(can_zero, can_one)` masks of width `width` back to a rank, or
/// `None` if they do not form a valid string.
pub fn decode(width: usize, can_zero: u64, can_one: u64) -> Option<u64> {
    let mask = (1u64 << width) - 1;
    let (z, o) = (can_zero & mask, can_one & mask);
    if z | o != mask || can_zero & !mask != 0 || can_one & !mask != 0 {
        return None;
    }
    let meta = z & o;
    match meta.count_ones() {
        0 => Some(2 * rg_inverse(o)),
        1 => {
            let (low, high) = {
                let (a, b) = (rg_inverse(o & !meta), rg_inverse(o));
                (a.min(b), a.max(b))
            };
            (high == low + 1).then_some(2 * low + 1)
        }
        _ => None,
    }
}

/// Writes the string of `rank` (`0`, `1`, `M`, most significant first).
pub fn push_key(out: &mut String, width: usize, rank: u64) {
    let (z, o) = encode(width, rank);
    for pos in (0..width).rev() {
        out.push(match ((z >> pos) & 1, (o >> pos) & 1) {
            (1, 0) => '0',
            (0, 1) => '1',
            _ => 'M',
        });
    }
}

/// The `sort` frame for a request of `ranks`.
pub fn request_line(width: usize, id: &str, ranks: &[u64]) -> String {
    let mut line = format!("sort {id}");
    for &r in ranks {
        line.push(' ');
        push_key(&mut line, width, r);
    }
    line.push('\n');
    line
}

/// The `ok` reply the program owes for a request of `ranks`: the keys in
/// ascending rank order.
pub fn expected_reply(width: usize, id: &str, ranks: &[u64]) -> String {
    let mut sorted = ranks.to_vec();
    sorted.sort_unstable();
    let mut line = format!("ok {id}");
    for r in sorted {
        line.push(' ');
        push_key(&mut line, width, r);
    }
    line.push('\n');
    line
}

/// splitmix64: the benchmark's input stream, a pure function of the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5065_7266_4265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0 .. n` (Lemire's multiply-shift; the bias is below
    /// 2^-40 for the ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_gray::ValidString;
    use mcs_logic::Trit;

    fn masks_of(v: &ValidString) -> (u64, u64) {
        let mut z = 0;
        let mut o = 0;
        for t in v.bits().iter() {
            z <<= 1;
            o <<= 1;
            match t {
                Trit::Zero => z |= 1,
                Trit::One => o |= 1,
                Trit::Meta => {
                    z |= 1;
                    o |= 1;
                }
            }
        }
        (z, o)
    }

    #[test]
    fn encoder_and_decoder_agree_with_the_program_for_every_valid_string() {
        for width in 1..=8 {
            assert_eq!(rank_count(width), ValidString::count(width));
            for rank in 0..rank_count(width) {
                let program = ValidString::from_rank(width, rank).unwrap();
                assert_eq!(program.rank(), rank);
                assert_eq!(
                    encode(width, rank),
                    masks_of(&program),
                    "B={width} r={rank}"
                );
                let (z, o) = masks_of(&program);
                assert_eq!(decode(width, z, o), Some(rank), "B={width} r={rank}");
                let mut s = String::new();
                push_key(&mut s, width, rank);
                assert_eq!(s, program.to_string());
            }
        }
    }

    #[test]
    fn decoder_rejects_every_invalid_string() {
        for width in 1..=8 {
            let mut valid = 0;
            // Every ternary string as (can_zero, can_one) with no bit empty.
            for z in 0..1u64 << width {
                for o in 0..1u64 << width {
                    if z | o != (1 << width) - 1 {
                        continue;
                    }
                    match decode(width, z, o) {
                        Some(rank) => {
                            valid += 1;
                            assert_eq!(encode(width, rank), (z, o));
                        }
                        None => {
                            let text: String = (0..width)
                                .rev()
                                .map(|p| match ((z >> p) & 1, (o >> p) & 1) {
                                    (1, 0) => '0',
                                    (0, 1) => '1',
                                    _ => 'M',
                                })
                                .collect();
                            assert!(text.parse::<ValidString>().is_err(), "{text}");
                        }
                    }
                }
            }
            assert_eq!(valid, rank_count(width));
        }
    }

    #[test]
    fn reply_lists_keys_in_rank_order() {
        assert_eq!(request_line(2, "a", &[4, 1]), "sort a 11 0M\n");
        assert_eq!(expected_reply(2, "a", &[4, 1]), "ok a 0M 11\n");
    }
}
