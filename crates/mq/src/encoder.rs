//! MQ encoder (JPEG2000 Annex C.2, software-conventions form).

use crate::table::QE_TABLE;
use crate::Contexts;

/// The MQ arithmetic encoder.
///
/// Register conventions follow the standard's software implementation:
/// `c` is the 28-bit code register (carry appears at bit 27), `a` the 16-bit
/// interval register renormalized to keep `a >= 0x8000`, `ct` the downcounter
/// to the next byte emission.
///
/// The byte the standard calls `B` — the last one emitted, which a carry
/// can still change — lives in a register, and is appended to the output
/// only once the next byte replaces it. Before the first byte of a segment
/// `B` is the standard's "byte before the buffer", which is discarded. The
/// output buffer therefore only ever grows at its end, so one encoder can
/// code every terminated segment of a code block into one buffer:
/// [`MqEncoder::flush`] ends a segment, [`MqEncoder::restart`] starts the
/// next one behind it.
#[derive(Debug, Clone)]
pub struct MqEncoder {
    c: u32,
    a: u32,
    ct: u32,
    /// The byte `B`; meaningful once `seg_bytes > 0`.
    b: u8,
    /// Bytes of the current segment emitted so far, `B` included.
    seg_bytes: usize,
    /// Every finished segment, then the current one without `B`.
    out: Vec<u8>,
    /// Decisions encoded since the last restart.
    symbols: u64,
}

impl Default for MqEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl MqEncoder {
    /// INITENC.
    pub fn new() -> Self {
        MqEncoder {
            c: 0,
            a: 0x8000,
            ct: 12,
            b: 0,
            seg_bytes: 0,
            out: Vec::new(),
            symbols: 0,
        }
    }

    /// INITENC for a new segment behind the bytes already in the buffer.
    /// The buffer and its capacity are kept.
    pub fn restart(&mut self) {
        self.c = 0;
        self.a = 0x8000;
        self.ct = 12;
        self.b = 0;
        self.seg_bytes = 0;
        self.symbols = 0;
    }

    /// Number of decisions encoded since the last restart.
    #[inline]
    pub fn symbols(&self) -> u64 {
        self.symbols
    }

    /// Bytes of the current segment emitted so far. This is the standard's
    /// `B - start` count used for per-pass rate accounting (an upper bound
    /// before flush).
    #[inline]
    pub fn bytes_so_far(&self) -> usize {
        self.seg_bytes
    }

    /// ENCODE one `decision` in context `cx` of `ctxs`.
    #[inline]
    pub fn encode(&mut self, ctxs: &mut Contexts, cx: usize, decision: u8) {
        self.symbols += 1;
        let st = ctxs.get_mut(cx);
        let row = QE_TABLE[st.index as usize];
        let qe = row.qe as u32;
        self.a -= qe;
        if decision == st.mps {
            // CODEMPS
            if self.a & 0x8000 == 0 {
                if self.a < qe {
                    self.a = qe;
                } else {
                    self.c += qe;
                }
                st.index = row.nmps;
                self.renorm();
            } else {
                self.c += qe;
            }
        } else {
            // CODELPS
            if self.a < qe {
                self.c += qe;
            } else {
                self.a = qe;
            }
            st.mps ^= row.switch_mps;
            st.index = row.nlps;
            self.renorm();
        }
    }

    /// RENORME. The standard shifts one bit at a time and runs BYTEOUT
    /// whenever `ct` reaches 0; here the whole shift count comes from one
    /// leading-zeros count, and the shift is split only at those `ct`
    /// boundaries, so BYTEOUT sees the same `c` at the same points.
    #[inline]
    fn renorm(&mut self) {
        // `a` is nonzero and below 0x8000: shift until bit 15 is set.
        let mut n = self.a.leading_zeros() - 16;
        self.a <<= n;
        loop {
            let s = n.min(self.ct);
            self.c <<= s;
            self.ct -= s;
            n -= s;
            if self.ct == 0 {
                self.byte_out();
            }
            if n == 0 {
                break;
            }
        }
    }

    /// BYTEOUT with 0xFF bit-stuffing.
    fn byte_out(&mut self) {
        if self.b == 0xFF {
            self.emit(20);
        } else if self.c & 0x800_0000 == 0 {
            self.emit(19);
        } else {
            // Propagate the carry into B.
            self.b = self.b.wrapping_add(1);
            if self.b == 0xFF {
                self.c &= 0x7FF_FFFF;
                self.emit(20);
            } else {
                self.emit(19);
            }
        }
    }

    /// Commit B and take the next byte from `c` at bit `shift`: 20 after
    /// an 0xFF (a stuffed bit, 7 payload bits), else 19.
    #[inline]
    fn emit(&mut self, shift: u32) {
        if self.seg_bytes > 0 {
            self.out.push(self.b);
        }
        self.seg_bytes += 1;
        self.b = (self.c >> shift) as u8;
        self.c &= (1 << shift) - 1;
        self.ct = 27 - shift;
    }

    /// FLUSH: SETBITS and emit the remaining register contents, ending the
    /// segment in the buffer. A trailing 0xFF is dropped per the
    /// standard's "if B == 0xFF, discard" rule. Returns the buffer length,
    /// i.e. the end offset of this segment. Call [`MqEncoder::restart`]
    /// before coding the next segment.
    pub fn flush(&mut self) -> usize {
        // SETBITS
        let tempc = self.c + self.a;
        self.c |= 0xFFFF;
        if self.c >= tempc {
            self.c -= 0x8000;
        }
        self.c <<= self.ct;
        self.byte_out();
        self.c <<= self.ct;
        self.byte_out();
        if self.b != 0xFF {
            self.out.push(self.b);
        }
        self.out.len()
    }

    /// The bytes of every flushed segment, back to back.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    /// The output buffer, for callers that interleave segments coded by
    /// another coder (raw bypass passes). Only valid between a flush and
    /// the next restart.
    pub fn buffer_mut(&mut self) -> &mut Vec<u8> {
        &mut self.out
    }

    /// Flush the one segment coded since construction and return it.
    pub fn finish(mut self) -> Vec<u8> {
        self.flush();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Contexts;

    #[test]
    fn empty_flush_is_small() {
        let enc = MqEncoder::new();
        let bytes = enc.finish();
        // Flushing an empty coder produces at most a few bytes.
        assert!(bytes.len() <= 3, "{bytes:?}");
    }

    #[test]
    fn all_mps_compresses_hard() {
        let mut ctxs = Contexts::new(1);
        let mut enc = MqEncoder::new();
        for _ in 0..10_000 {
            enc.encode(&mut ctxs, 0, 0);
        }
        assert_eq!(enc.symbols(), 10_000);
        let bytes = enc.finish();
        // 10k highly-predictable symbols should land well under 100 bytes.
        assert!(bytes.len() < 100, "got {} bytes", bytes.len());
    }

    #[test]
    fn alternating_bits_cost_about_one_bit_each() {
        let mut ctxs = Contexts::new(1);
        let mut enc = MqEncoder::new();
        let n = 8_192usize;
        for i in 0..n {
            enc.encode(&mut ctxs, 0, (i & 1) as u8);
        }
        let bytes = enc.finish();
        let bits_per_symbol = (bytes.len() * 8) as f64 / n as f64;
        assert!(
            (0.9..1.2).contains(&bits_per_symbol),
            "bits/symbol = {bits_per_symbol}"
        );
    }

    /// The standard's encoder exactly as Annex C.2 draws it: RENORME one
    /// bit per iteration, a sentinel byte before the buffer, one buffer
    /// per segment. The byte-identity oracle for [`MqEncoder`].
    struct Reference {
        c: u32,
        a: u32,
        ct: i32,
        out: Vec<u8>,
        bp: usize,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                c: 0,
                a: 0x8000,
                ct: 12,
                out: vec![0],
                bp: 0,
            }
        }

        fn encode(&mut self, ctxs: &mut Contexts, cx: usize, d: u8) {
            let st = ctxs.get_mut(cx);
            let row = QE_TABLE[st.index as usize];
            let qe = row.qe as u32;
            self.a -= qe;
            if d == st.mps {
                if self.a & 0x8000 == 0 {
                    if self.a < qe {
                        self.a = qe;
                    } else {
                        self.c += qe;
                    }
                    st.index = row.nmps;
                    self.renorm();
                } else {
                    self.c += qe;
                }
            } else {
                if self.a < qe {
                    self.c += qe;
                } else {
                    self.a = qe;
                }
                if row.switch_mps == 1 {
                    st.mps ^= 1;
                }
                st.index = row.nlps;
                self.renorm();
            }
        }

        fn renorm(&mut self) {
            loop {
                self.a <<= 1;
                self.c <<= 1;
                self.ct -= 1;
                if self.ct == 0 {
                    self.byte_out();
                }
                if self.a & 0x8000 != 0 {
                    break;
                }
            }
        }

        fn byte_out(&mut self) {
            let carry = self.out[self.bp] != 0xFF && self.c & 0x800_0000 != 0;
            if carry {
                self.out[self.bp] += 1;
                if self.out[self.bp] == 0xFF {
                    self.c &= 0x7FF_FFFF;
                }
            }
            self.bp += 1;
            if self.out[self.bp - 1] == 0xFF {
                self.out.push((self.c >> 20) as u8);
                self.c &= 0xF_FFFF;
                self.ct = 7;
            } else {
                self.out.push((self.c >> 19) as u8);
                self.c &= 0x7_FFFF;
                self.ct = 8;
            }
        }

        fn finish(mut self) -> Vec<u8> {
            let tempc = self.c + self.a;
            self.c |= 0xFFFF;
            if self.c >= tempc {
                self.c -= 0x8000;
            }
            self.c <<= self.ct;
            self.byte_out();
            self.c <<= self.ct;
            self.byte_out();
            let mut v = self.out.split_off(1);
            if v.last() == Some(&0xFF) {
                v.pop();
            }
            v
        }
    }

    #[test]
    fn segments_match_the_bitwise_reference_byte_for_byte() {
        // Skewed and uniform sources over 19 contexts, cut into segments
        // of random length: one restarted encoder must produce exactly
        // the concatenation of one reference encoder per segment.
        let mut x: u64 = 0x5EED;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for round in 0..200 {
            let bias = [2u32, 3, 8, 40, 400][round % 5];
            let mut ctxs = Contexts::new(19);
            let mut ref_ctxs = Contexts::new(19);
            let mut enc = MqEncoder::new();
            let mut want = Vec::new();
            let mut ends = Vec::new();
            for _ in 0..(next() % 6 + 1) {
                enc.restart();
                let mut r = Reference::new();
                let n = next() % 3000;
                for _ in 0..n {
                    let cx = (next() % 19) as usize;
                    let d = u8::from(next() % bias == 0);
                    enc.encode(&mut ctxs, cx, d);
                    r.encode(&mut ref_ctxs, cx, d);
                }
                assert_eq!(enc.symbols(), u64::from(n));
                ends.push(enc.flush());
                want.extend(r.finish());
                assert_eq!(*ends.last().unwrap(), want.len(), "round {round}");
            }
            assert_eq!(enc.into_bytes(), want, "round {round}");
        }
    }

    #[test]
    fn no_marker_bytes_in_output_interior() {
        // After any 0xFF the next byte must be < 0x90 (bit stuffing).
        let mut ctxs = Contexts::new(4);
        let mut enc = MqEncoder::new();
        let mut x: u32 = 123456789;
        for _ in 0..50_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let cx = (x >> 7) as usize % 4;
            let d = ((x >> 13) & 1) as u8;
            enc.encode(&mut ctxs, cx, d);
        }
        let bytes = enc.finish();
        for w in bytes.windows(2) {
            if w[0] == 0xFF {
                assert!(w[1] < 0x90, "marker {:02X}{:02X} in MQ output", w[0], w[1]);
            }
        }
    }
}
