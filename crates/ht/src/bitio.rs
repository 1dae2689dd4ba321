//! MSB-first bit packing for the HT segment streams.
//!
//! All three cleanup sub-streams (MEL, VLC, MagSgn) and the raw
//! refinement passes pack bits most-significant-bit first into whole
//! bytes, with zero padding at the end. Unlike the standard's MagSgn
//! byte-stuffing rules, no `0xFF` avoidance is needed here: every pass
//! segment's byte length travels explicitly in the packet headers
//! (TERMALL-style), so the decoder never scans for marker bytes.

/// MSB-first bit writer. Bits collect in a 64-bit accumulator, which
/// goes out 32 bits at a time.
#[derive(Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits in the low `nbits` bits; anything above is stale.
    acc: u64,
    /// Pending bit count, always below 32 between calls.
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn put_bit(&mut self, bit: u32) {
        debug_assert!(bit <= 1);
        self.put_bits(bit, 1);
    }

    /// Write the low `n` bits of `v`, most significant first (`n <= 32`).
    /// `n == 0` writes nothing.
    #[inline]
    pub fn put_bits(&mut self, v: u32, n: usize) {
        debug_assert!(n <= 32);
        let n = n as u32;
        self.acc = (self.acc << n) | (u64::from(v) & ((1u64 << n) - 1));
        self.nbits += n;
        if self.nbits >= 32 {
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            self.buf.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Bits written so far (before padding).
    pub fn len_bits(&self) -> usize {
        self.buf.len() * 8 + self.nbits as usize
    }

    /// Pad the final partial byte with zeros and return the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
        if self.nbits > 0 {
            self.buf.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.buf
    }
}

/// MSB-first bit reader. Reads past the end yield zero bits — the
/// decoder's structural validation (exponent bounds, LUT holes) turns
/// trailing garbage into a typed error rather than a panic.
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0 }
    }

    #[inline]
    pub fn bit(&mut self) -> u32 {
        let b = self.peek(1);
        self.pos += 1;
        b
    }

    /// Read `n` bits MSB first (`n <= 32`).
    #[inline]
    pub fn bits(&mut self, n: usize) -> u32 {
        let v = self.peek(n);
        self.pos += n;
        v
    }

    /// Look at the next `n` bits without consuming (zero-padded past
    /// the end of the buffer).
    #[inline]
    pub fn peek(&self, n: usize) -> u32 {
        let mut v = 0u32;
        for i in 0..n {
            let p = self.pos + i;
            let byte = self.data.get(p / 8).copied().unwrap_or(0);
            v = (v << 1) | u32::from((byte >> (7 - p % 8)) & 1);
        }
        v
    }

    #[inline]
    pub fn skip(&mut self, n: usize) {
        self.pos += n;
    }

    /// True once reads have gone past the last real byte.
    pub fn overrun(&self) -> bool {
        self.pos > self.data.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip_msb_first() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bit(1);
        w.put_bits(0x5a, 8);
        w.put_bits(3, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(4), 0b1011);
        assert_eq!(r.bit(), 1);
        assert_eq!(r.bits(8), 0x5a);
        assert_eq!(r.bits(2), 3);
        assert!(!r.overrun());
    }

    #[test]
    fn reads_past_end_are_zero() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.bits(8), 0xff);
        assert_eq!(r.bits(5), 0);
        assert!(r.overrun());
    }

    #[test]
    fn accumulator_matches_bitwise_packing() {
        // Runs of every width 0..=32 cross the 32-bit flush boundary at
        // every offset; the bytes must equal a one-bit-at-a-time packing.
        let mut x: u32 = 0x2545_F491;
        let mut w = BitWriter::new();
        let mut bits = Vec::new();
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let n = (x % 33) as usize;
            let v = x.rotate_left(7);
            w.put_bits(v, n);
            bits.extend((0..n).rev().map(|i| (v >> i) & 1));
        }
        assert_eq!(w.len_bits(), bits.len());
        let mut want = vec![0u8; bits.len().div_ceil(8)];
        for (i, &b) in bits.iter().enumerate() {
            want[i / 8] |= (b as u8) << (7 - i % 8);
        }
        assert_eq!(w.finish(), want);
    }

    #[test]
    fn padding_is_zeros() {
        let mut w = BitWriter::new();
        w.put_bits(0b111, 3);
        assert_eq!(w.finish(), vec![0b1110_0000]);
    }
}
