//! Property tests for Tier-1, tag trees, and rate allocation.

use ebcot::block::{decode_block, encode_block, BandKind};
use ebcot::header::{decode_packet, encode_packet, Contribution, PrecinctState};
use ebcot::rate::{allocate, BlockSummary};
use ebcot::tagtree::TagTree;
use mqcoder::{RawDecoder, RawEncoder};
use proptest::prelude::*;

fn band_strategy() -> impl Strategy<Value = BandKind> {
    prop_oneof![Just(BandKind::LlLh), Just(BandKind::Hl), Just(BandKind::Hh)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tier1_roundtrip(
        w in 1usize..33,
        h in 1usize..33,
        kind in band_strategy(),
        seed in any::<u32>(),
        spread in 1i32..20_000,
    ) {
        let mut x = seed | 1;
        let data: Vec<i32> = (0..w * h)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                ((x >> 8) as i32 % (2 * spread + 1)) - spread
            })
            .collect();
        let blk = encode_block(&data, w, h, kind);
        let got = decode_block(
            &blk.data, &blk.pass_ends, blk.passes.len(), w, h, kind,
            blk.num_planes, false,
        );
        prop_assert_eq!(got, data);
    }

    #[test]
    fn tier1_truncation_never_overshoots(
        seed in any::<u32>(),
        keep_frac in 0.0f64..1.0,
    ) {
        let mut x = seed | 1;
        let data: Vec<i32> = (0..12 * 12)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                ((x >> 9) as i32 % 513) - 256
            })
            .collect();
        let blk = encode_block(&data, 12, 12, BandKind::LlLh);
        if blk.passes.is_empty() {
            return Ok(());
        }
        let keep = ((blk.passes.len() as f64 * keep_frac) as usize).clamp(1, blk.passes.len());
        let bytes = blk.bytes_for_passes(keep);
        let got = decode_block(
            &blk.data[..bytes], &blk.pass_ends[..keep], keep, 12, 12,
            BandKind::LlLh, blk.num_planes, false,
        );
        for (g, t) in got.iter().zip(&data) {
            prop_assert!(g.unsigned_abs() <= t.unsigned_abs());
            if *g != 0 {
                prop_assert_eq!(g.signum(), t.signum());
            }
        }
    }

    #[test]
    fn tagtree_arbitrary_values_roundtrip(
        w in 1usize..9,
        h in 1usize..9,
        vals in prop::collection::vec(0u32..12, 64),
    ) {
        let mut enc = TagTree::new(w, h);
        for y in 0..h {
            for x in 0..w {
                enc.set_value(x, y, vals[y * 8 + x]);
            }
        }
        let mut out = RawEncoder::new();
        for y in 0..h {
            for x in 0..w {
                enc.encode_value(x, y, &mut out);
            }
        }
        let bytes = out.finish();
        let mut dec = TagTree::new(w, h);
        let mut inp = RawDecoder::new(&bytes);
        for y in 0..h {
            for x in 0..w {
                prop_assert_eq!(dec.decode_value(x, y, &mut inp), vals[y * 8 + x]);
            }
        }
    }

    #[test]
    fn packet_header_consumes_exactly_its_own_bytes(
        cbw in 1usize..4,
        cbh in 1usize..3,
        seed in any::<u32>(),
        body in prop::collection::vec(any::<u8>(), 0..6),
    ) {
        // Two layers of random contributions; pass lengths lean towards
        // all-ones values so headers often end on an 0xFF byte. Whatever
        // body follows, the decoder must stop at the header's last byte.
        let mut x = seed | 1;
        let mut r = move || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 8) as usize
        };
        let n = cbw * cbh;
        let first: Vec<u32> = (0..n).map(|_| [0, 0, 1, u32::MAX][r() % 4]).collect();
        let zbp: Vec<u32> = (0..n).map(|_| (r() % 12) as u32).collect();
        let mut enc = PrecinctState::new(cbw, cbh);
        enc.set_encoder_values(&first, &zbp);
        let mut dec = PrecinctState::new(cbw, cbh);
        for layer in 0..2u32 {
            let contribs: Vec<Contribution> = (0..n)
                .map(|i| {
                    let np = if first[i] == layer {
                        r() % 6 + 1
                    } else if first[i] < layer {
                        r() % 4
                    } else {
                        0
                    };
                    let pass_lens = (0..np)
                        .map(|_| if r() % 2 == 0 { (1 << (r() % 14)) - 1 } else { r() % 5000 })
                        .collect();
                    Contribution { num_passes: np, pass_lens, zero_planes: zbp[i] }
                })
                .collect();
            let hdr = encode_packet(&mut enc, layer, &contribs);
            let mut stream = hdr.clone();
            stream.extend_from_slice(&body);
            let (got, used) = decode_packet(&mut dec, layer, &stream).unwrap();
            prop_assert_eq!(used, hdr.len());
            for (i, (g, c)) in got.iter().zip(&contribs).enumerate() {
                prop_assert_eq!(g.num_passes, c.num_passes);
                prop_assert_eq!(&g.pass_lens, &c.pass_lens);
                if first[i] == layer {
                    prop_assert_eq!(g.zero_planes, zbp[i]);
                }
            }
        }
    }

    #[test]
    fn allocation_always_within_budget(
        nblocks in 1usize..30,
        seed in any::<u32>(),
        budget in 0usize..50_000,
    ) {
        let mut x = seed | 1;
        let mut r = move || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 8) as usize
        };
        let blocks: Vec<BlockSummary> = (0..nblocks)
            .map(|_| {
                let n = r() % 10 + 1;
                let mut rate = 0usize;
                let mut dist = 0.0f64;
                let mut rates = Vec::new();
                let mut dists = Vec::new();
                for _ in 0..n {
                    rate += r() % 500;
                    dist += (r() % 1000) as f64;
                    rates.push(rate);
                    dists.push(dist);
                }
                BlockSummary { rates, dists }
            })
            .collect();
        let a = allocate(&blocks, budget);
        prop_assert!(a.total_bytes <= budget || budget == 0 && a.total_bytes == 0);
        // passes chosen are within range and bytes accounted correctly.
        let mut total = 0usize;
        for (n, b) in a.passes.iter().zip(&blocks) {
            prop_assert!(*n <= b.rates.len());
            if *n > 0 {
                total += b.rates[*n - 1];
            }
        }
        prop_assert_eq!(total, a.total_bytes);
    }
}
