//! CxtVLC — context-dependent variable-length coding of quad
//! significance patterns, plus the exponent side-information (`u_q`
//! Elias-gamma, per-sample unary offsets) that rides in the same
//! bit-stream.
//!
//! A quad's significance pattern `rho` is 4 bits (one per sample, scan
//! order (0,0),(1,0),(0,1),(1,1)). Two canonical prefix-code tables are
//! selected by the quad context:
//!
//! * context 0 (no significant coded neighbor quad): the MEL coder has
//!   already said "some sample is significant", so `rho != 0`. Singles
//!   are by far the most likely — 3 bits; pairs 5; triples and the full
//!   quad 6.
//! * context 1 (a coded neighbor quad is significant): all 16 patterns
//!   occur; significance clusters, so the empty pattern is short (2
//!   bits) and dense patterns are cheaper than in context 0.
//!
//! Both tables satisfy the Kraft inequality with slack (checked by a
//! unit test) and have a maximum codeword length of 6 bits, so decoding
//! is a single 64-entry table lookup on a 6-bit peek.

use crate::bitio::{BitReader, BitWriter};

/// Maximum codeword length across both tables.
pub const MAX_LEN: usize = 6;

/// One canonical prefix-code table over the 16 quad patterns.
pub struct VlcTable {
    /// Codeword length per pattern (0 = pattern unused in this context).
    pub len: [u8; 16],
    /// Right-aligned codeword bits per pattern.
    pub code: [u16; 16],
    /// Decode LUT over a 6-bit peek: `(pattern, length)`; length 0
    /// marks a hole (no codeword has this prefix).
    lut: [(u8, u8); 1 << MAX_LEN],
}

impl VlcTable {
    /// Build the canonical code for the given length assignment:
    /// codewords are assigned in (length, pattern) order, which makes
    /// the code prefix-free whenever the lengths satisfy Kraft.
    fn build(len: [u8; 16]) -> VlcTable {
        let mut syms: Vec<u8> = (0u8..16).filter(|&s| len[s as usize] > 0).collect();
        syms.sort_by_key(|&s| (len[s as usize], s));
        let mut code = [0u16; 16];
        let mut next = 0u16;
        let mut prev = len[syms[0] as usize];
        for &s in &syms {
            let l = len[s as usize];
            next <<= l - prev;
            code[s as usize] = next;
            next += 1;
            prev = l;
        }
        let mut lut = [(0u8, 0u8); 1 << MAX_LEN];
        for &s in &syms {
            let l = len[s as usize] as usize;
            let base = (code[s as usize] as usize) << (MAX_LEN - l);
            for pad in 0..(1usize << (MAX_LEN - l)) {
                lut[base | pad] = (s, l as u8);
            }
        }
        VlcTable { len, code, lut }
    }

    /// Emit the codeword for `rho`.
    #[inline]
    pub fn put(&self, w: &mut BitWriter, rho: u8) {
        let l = self.len[rho as usize];
        debug_assert!(l > 0, "pattern {rho} unused in this context");
        w.put_bits(u32::from(self.code[rho as usize]), l as usize);
    }

    /// Decode one pattern; `None` on a prefix that matches no codeword
    /// (corrupt stream).
    #[inline]
    pub fn get(&self, r: &mut BitReader<'_>) -> Option<u8> {
        let (sym, l) = self.lut[r.peek(MAX_LEN) as usize];
        if l == 0 {
            return None;
        }
        r.skip(l as usize);
        Some(sym)
    }
}

fn popcount4(rho: u8) -> u32 {
    (rho & 0xf).count_ones()
}

fn lengths_for_ctx(ctx: usize) -> [u8; 16] {
    let mut len = [0u8; 16];
    for rho in 0u8..16 {
        len[rho as usize] = match (ctx, popcount4(rho)) {
            (0, 0) => 0, // impossible: MEL already coded "significant"
            (0, 1) => 3,
            (0, 2) => 5,
            (0, 3) => 6,
            (0, 4) => 6,
            (1, 0) => 2,
            (1, 1) => 4,
            (1, 2) => 5,
            (1, 3) => 5,
            (1, 4) => 5,
            _ => unreachable!(),
        };
    }
    len
}

/// The two context tables, built once.
pub fn tables() -> &'static [VlcTable; 2] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[VlcTable; 2]> = OnceLock::new();
    TABLES.get_or_init(|| {
        [
            VlcTable::build(lengths_for_ctx(0)),
            VlcTable::build(lengths_for_ctx(1)),
        ]
    })
}

/// Elias-gamma code for `v >= 1`: `b-1` zeros then the `b` bits of `v`
/// (MSB first), where `b = bit-length(v)`.
#[inline]
pub fn put_gamma(w: &mut BitWriter, v: u32) {
    debug_assert!(v >= 1);
    let b = 32 - v.leading_zeros();
    w.put_bits(0, (b - 1) as usize);
    w.put_bits(v, b as usize);
}

/// Decode an Elias-gamma value; `None` if the prefix of zeros is
/// implausibly long (corrupt or truncated stream).
#[inline]
pub fn get_gamma(r: &mut BitReader<'_>) -> Option<u32> {
    let mut zeros = 0u32;
    while r.bit() == 0 {
        zeros += 1;
        if zeros > 31 {
            return None;
        }
    }
    let mut v = 1u32;
    for _ in 0..zeros {
        v = (v << 1) | r.bit();
    }
    Some(v)
}

/// Unary code for `v`: `v` ones then a zero.
#[inline]
pub fn put_unary(w: &mut BitWriter, v: u32) {
    let mut ones = v;
    while ones >= 32 {
        w.put_bits(u32::MAX, 32);
        ones -= 32;
    }
    // `ones` ones then the zero: at most 32 bits in one write.
    w.put_bits(((1u64 << (ones + 1)) - 2) as u32, (ones + 1) as usize);
}

/// Decode a unary value with an upper bound (`None` past `cap`).
#[inline]
pub fn get_unary(r: &mut BitReader<'_>, cap: u32) -> Option<u32> {
    let mut v = 0u32;
    while r.bit() == 1 {
        v += 1;
        if v > cap {
            return None;
        }
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_tables_satisfy_kraft() {
        for ctx in 0..2 {
            let len = lengths_for_ctx(ctx);
            let kraft: f64 = len
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| f64::powi(0.5, i32::from(l)))
                .sum();
            assert!(kraft <= 1.0 + 1e-12, "ctx {ctx} kraft {kraft}");
            // And every usable pattern has a codeword.
            for rho in 0u8..16 {
                let used = !(ctx == 0 && rho == 0);
                assert_eq!(len[rho as usize] > 0, used, "ctx {ctx} rho {rho}");
            }
        }
    }

    #[test]
    fn codewords_roundtrip_and_are_prefix_free() {
        for (ctx, t) in tables().iter().enumerate() {
            let start: u8 = if ctx == 0 { 1 } else { 0 };
            let mut w = BitWriter::new();
            for rho in start..16 {
                t.put(&mut w, rho);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for rho in start..16 {
                assert_eq!(t.get(&mut r), Some(rho), "ctx {ctx}");
            }
        }
    }

    #[test]
    fn gamma_and_unary_roundtrip() {
        let mut w = BitWriter::new();
        for v in 1..40u32 {
            put_gamma(&mut w, v);
        }
        for v in 0..12u32 {
            put_unary(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for v in 1..40u32 {
            assert_eq!(get_gamma(&mut r), Some(v));
        }
        for v in 0..12u32 {
            assert_eq!(get_unary(&mut r, 32), Some(v));
        }
    }

    #[test]
    fn unary_writes_v_ones_then_a_zero_at_any_length() {
        for v in [0u32, 1, 30, 31, 32, 33, 63, 64, 70] {
            let mut w = BitWriter::new();
            put_unary(&mut w, v);
            assert_eq!(w.len_bits(), v as usize + 1);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert!((0..v).all(|_| r.bit() == 1), "v={v}");
            assert_eq!(r.bit(), 0, "v={v}");
        }
    }

    #[test]
    fn corrupt_prefixes_are_rejected() {
        // A context-0 stream starting with the all-ones hole (no 6-bit
        // codeword is 111111 in either table's canonical assignment at
        // full Kraft slack) must return None rather than alias.
        let bytes = [0xff, 0xff];
        // ctx0's deepest codeword ends well before 0b111111 (Kraft 0.766),
        // so the all-ones prefix is a hole in both tables.
        assert_eq!(tables()[0].get(&mut BitReader::new(&bytes)), None);
        assert_eq!(tables()[1].get(&mut BitReader::new(&bytes)), None);
        // An all-zero gamma prefix never terminates within 32 bits.
        assert_eq!(get_gamma(&mut BitReader::new(&[0u8; 5])), None);
    }
}
