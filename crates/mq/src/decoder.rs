//! MQ decoder (JPEG2000 Annex C.3, software-conventions form).

use crate::table::QE_TABLE;
use crate::Contexts;

/// The MQ arithmetic decoder, mirror of [`crate::MqEncoder`].
///
/// Reads past the end of the segment are modelled as the standard requires:
/// once the input is exhausted the decoder feeds `0xFF` fill bytes (`1`
/// bits), which is what lets truncated coding passes still decode a prefix.
#[derive(Debug, Clone)]
pub struct MqDecoder<'a> {
    data: &'a [u8],
    bp: usize,
    c: u32,
    a: u32,
    ct: u32,
    symbols: u64,
}

impl<'a> MqDecoder<'a> {
    /// INITDEC over a (possibly truncated) MQ segment.
    pub fn new(data: &'a [u8]) -> Self {
        let mut d = MqDecoder {
            data,
            bp: 0,
            c: 0,
            a: 0,
            ct: 0,
            symbols: 0,
        };
        d.c = (d.byte_at(0) as u32) << 16;
        d.byte_in();
        d.c <<= 7;
        d.ct -= 7;
        d.a = 0x8000;
        d
    }

    /// Number of decisions decoded so far.
    #[inline]
    pub fn symbols(&self) -> u64 {
        self.symbols
    }

    #[inline]
    fn byte_at(&self, i: usize) -> u8 {
        // Past-the-end bytes read as 0xFF (marker-like), per C.3.4.
        self.data.get(i).copied().unwrap_or(0xFF)
    }

    /// BYTEIN with bit-unstuffing.
    fn byte_in(&mut self) {
        if self.byte_at(self.bp) == 0xFF {
            if self.byte_at(self.bp + 1) > 0x8F {
                // Marker (or synthesized end-of-data): feed 1-bits.
                self.c += 0xFF00;
                self.ct = 8;
            } else {
                self.bp += 1;
                self.c += (self.byte_at(self.bp) as u32) << 9;
                self.ct = 7;
            }
        } else {
            self.bp += 1;
            self.c += (self.byte_at(self.bp) as u32) << 8;
            self.ct = 8;
        }
    }

    /// DECODE one decision in context `cx`.
    #[inline]
    pub fn decode(&mut self, ctxs: &mut Contexts, cx: usize) -> u8 {
        self.symbols += 1;
        let st = ctxs.get_mut(cx);
        let row = QE_TABLE[st.index as usize];
        let qe = row.qe as u32;
        self.a -= qe;
        let d;
        if (self.c >> 16) < qe {
            // LPS exchange path.
            if self.a < qe {
                self.a = qe;
                d = st.mps;
                st.index = row.nmps;
            } else {
                self.a = qe;
                d = 1 - st.mps;
                if row.switch_mps == 1 {
                    st.mps ^= 1;
                }
                st.index = row.nlps;
            }
            self.renorm();
        } else {
            self.c -= qe << 16;
            if self.a & 0x8000 == 0 {
                // MPS exchange path.
                if self.a < qe {
                    d = 1 - st.mps;
                    if row.switch_mps == 1 {
                        st.mps ^= 1;
                    }
                    st.index = row.nlps;
                } else {
                    d = st.mps;
                    st.index = row.nmps;
                }
                self.renorm();
            } else {
                d = st.mps;
            }
        }
        d
    }

    /// RENORMD. The standard runs BYTEIN whenever `ct` is 0 before a
    /// one-bit shift; here the shift count comes from one leading-zeros
    /// count and is split only where `ct` reaches 0, so BYTEIN runs at the
    /// same points with the same `c`.
    #[inline]
    fn renorm(&mut self) {
        // `a` is nonzero and below 0x8000: shift until bit 15 is set.
        let mut n = self.a.leading_zeros() - 16;
        self.a <<= n;
        loop {
            if self.ct == 0 {
                self.byte_in();
            }
            let s = n.min(self.ct);
            self.c <<= s;
            self.ct -= s;
            n -= s;
            if n == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::QE_TABLE;
    use crate::{Contexts, MqEncoder};

    fn roundtrip(seq: &[(usize, u8)], nctx: usize) {
        let mut ectx = Contexts::new(nctx);
        let mut enc = MqEncoder::new();
        for &(cx, d) in seq {
            enc.encode(&mut ectx, cx, d);
        }
        let bytes = enc.finish();
        let mut dctx = Contexts::new(nctx);
        let mut dec = MqDecoder::new(&bytes);
        for (i, &(cx, d)) in seq.iter().enumerate() {
            let got = dec.decode(&mut dctx, cx);
            assert_eq!(got, d, "symbol {i} of {}", seq.len());
        }
    }

    #[test]
    fn roundtrip_simple_patterns() {
        roundtrip(&[(0, 1)], 1);
        roundtrip(&[(0, 0), (0, 1), (0, 0), (0, 1)], 1);
        let ones: Vec<_> = (0..1000).map(|_| (0usize, 1u8)).collect();
        roundtrip(&ones, 1);
        let zeros: Vec<_> = (0..1000).map(|_| (0usize, 0u8)).collect();
        roundtrip(&zeros, 1);
    }

    #[test]
    fn roundtrip_multi_context_lcg() {
        let mut x: u32 = 0xDEADBEEF;
        let seq: Vec<(usize, u8)> = (0..20_000)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                ((x >> 9) as usize % 19, ((x >> 21) & 1) as u8)
            })
            .collect();
        roundtrip(&seq, 19);
    }

    #[test]
    fn roundtrip_skewed_sources() {
        // 1-in-16 ones: exercises the fast-attack part of the table.
        let mut x: u32 = 7;
        let seq: Vec<(usize, u8)> = (0..30_000)
            .map(|_| {
                x = x.wrapping_mul(22695477).wrapping_add(1);
                (0usize, u8::from((x >> 16).is_multiple_of(16)))
            })
            .collect();
        roundtrip(&seq, 1);
    }

    /// The decoder exactly as Annex C.3 draws it: RENORMD one bit per
    /// iteration. The oracle for [`MqDecoder`], driven by the same BYTEIN.
    fn decode_bitwise(d: &mut MqDecoder<'_>, ctxs: &mut Contexts, cx: usize) -> u8 {
        let st = ctxs.get_mut(cx);
        let row = QE_TABLE[st.index as usize];
        let qe = row.qe as u32;
        d.a -= qe;
        let (bit, renorm) = if (d.c >> 16) < qe {
            if d.a < qe {
                d.a = qe;
                st.index = row.nmps;
                (st.mps, true)
            } else {
                d.a = qe;
                let bit = 1 - st.mps;
                st.mps ^= row.switch_mps;
                st.index = row.nlps;
                (bit, true)
            }
        } else {
            d.c -= qe << 16;
            if d.a & 0x8000 != 0 {
                (st.mps, false)
            } else if d.a < qe {
                let bit = 1 - st.mps;
                st.mps ^= row.switch_mps;
                st.index = row.nlps;
                (bit, true)
            } else {
                st.index = row.nmps;
                (st.mps, true)
            }
        };
        if renorm {
            loop {
                if d.ct == 0 {
                    d.byte_in();
                }
                d.a <<= 1;
                d.c <<= 1;
                d.ct -= 1;
                if d.a & 0x8000 != 0 {
                    break;
                }
            }
        }
        bit
    }

    #[test]
    fn decisions_match_the_bitwise_reference_on_arbitrary_bytes() {
        // Arbitrary input, not only encoder output: 0xFF runs, marker-like
        // pairs and reads far past the end must all decode the same.
        let mut x: u64 = 77;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        for round in 0..300 {
            let len = (next() % 64) as usize;
            let data: Vec<u8> = (0..len)
                .map(|_| match next() % 4 {
                    0 => 0xFF,
                    1 => 0x8F + (next() % 2) as u8,
                    _ => next() as u8,
                })
                .collect();
            let mut fast = MqDecoder::new(&data);
            let mut slow = MqDecoder::new(&data);
            let (mut cf, mut cs) = (Contexts::new(19), Contexts::new(19));
            for i in 0..2000 {
                let cx = (next() % 19) as usize;
                let want = decode_bitwise(&mut slow, &mut cs, cx);
                assert_eq!(fast.decode(&mut cf, cx), want, "round {round} decision {i}");
            }
            assert_eq!(
                (fast.c, fast.a, fast.ct, fast.bp),
                (slow.c, slow.a, slow.ct, slow.bp)
            );
        }
    }

    #[test]
    fn decoder_survives_truncation() {
        // Decoding from a truncated segment must not panic and must still
        // return *some* decisions (the standard guarantees a decodable
        // prefix; we check robustness, not the exact prefix length).
        let mut ectx = Contexts::new(2);
        let mut enc = MqEncoder::new();
        let mut x: u32 = 99;
        let mut seq = Vec::new();
        for _ in 0..5_000 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let cx = (x >> 5) as usize % 2;
            let d = ((x >> 11) & 1) as u8;
            seq.push((cx, d));
            enc.encode(&mut ectx, cx, d);
        }
        let bytes = enc.finish();
        let cut = bytes.len() / 2;
        let mut dctx = Contexts::new(2);
        let mut dec = MqDecoder::new(&bytes[..cut]);
        let mut correct_prefix = 0usize;
        for &(cx, d) in &seq {
            if dec.decode(&mut dctx, cx) == d {
                correct_prefix += 1;
            } else {
                break;
            }
        }
        // At least ~cut bytes worth of decisions decode correctly.
        assert!(correct_prefix > 100, "only {correct_prefix} correct");
    }
}
