//! Byte pins for the MQ Tier-1 block coder.
//!
//! Each test encodes seeded blocks of one shape — every band class, bypass
//! off and on, sparse, dense and ±30000 content — and compares an FNV-64
//! over everything the encoder reports (`data`, `pass_ends`, `num_planes`
//! and each pass's `rate_bytes`, `symbols` and `dist_reduction` bits) and
//! over a truncated midpoint decode with a recorded constant. Every block
//! must also decode back exactly. The constants were recorded with the
//! bit-at-a-time MQ coder and the byte-per-cell significance grid; any
//! rewrite of the hot loops must reproduce them unchanged.

use ebcot::block::{decode_block_opts, encode_block_opts, BandKind};

const KINDS: [BandKind; 3] = [BandKind::LlLh, BandKind::Hl, BandKind::Hh];

#[derive(Debug, Clone, Copy)]
enum Content {
    /// About one sample in twelve nonzero, magnitudes up to 200.
    Sparse,
    /// Every sample drawn from ±150.
    Dense,
    /// Every sample drawn from ±30000.
    Extreme,
}

const CONTENTS: [Content; 3] = [Content::Sparse, Content::Dense, Content::Extreme];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw(state: &mut u64, spread: i64) -> i32 {
    ((splitmix(state) % (2 * spread as u64 + 1)) as i64 - spread) as i32
}

fn block(w: usize, h: usize, content: Content, seed: u64) -> Vec<i32> {
    let mut s = seed;
    (0..w * h)
        .map(|_| match content {
            Content::Sparse => {
                if splitmix(&mut s).is_multiple_of(12) {
                    draw(&mut s, 200)
                } else {
                    0
                }
            }
            Content::Dense => draw(&mut s, 150),
            Content::Extreme => draw(&mut s, 30_000),
        })
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Hash of every block of a `w`×`h` shape; panics on a failed round trip.
fn shape_hash(w: usize, h: usize) -> u64 {
    let mut fnv = Fnv::new();
    for (ki, &kind) in KINDS.iter().enumerate() {
        for bypass in [false, true] {
            for (ci, &content) in CONTENTS.iter().enumerate() {
                let seed = (w * 1000 + h) as u64 * 97 + (ki * 3 + ci) as u64;
                let data = block(w, h, content, seed);
                let blk = encode_block_opts(&data, w, h, kind, bypass);
                fnv.bytes(&blk.data);
                fnv.u64(u64::from(blk.num_planes));
                for &e in &blk.pass_ends {
                    fnv.u64(e as u64);
                }
                for p in &blk.passes {
                    fnv.u64(p.rate_bytes as u64);
                    fnv.u64(p.symbols);
                    fnv.u64(p.dist_reduction.to_bits());
                }
                let n = blk.passes.len();
                let full = decode_block_opts(
                    &blk.data,
                    &blk.pass_ends,
                    n,
                    w,
                    h,
                    kind,
                    blk.num_planes,
                    false,
                    bypass,
                );
                assert_eq!(full, data, "{w}x{h} {kind:?} bypass={bypass} {content:?}");
                // A prefix decode reads past its last segment's end.
                let keep = n / 2;
                let part = decode_block_opts(
                    &blk.data[..blk.bytes_for_passes(keep)],
                    &blk.pass_ends[..keep],
                    keep,
                    w,
                    h,
                    kind,
                    blk.num_planes,
                    true,
                    bypass,
                );
                for v in part {
                    fnv.u64(v as u32 as u64);
                }
            }
        }
    }
    fnv.0
}

fn check(w: usize, h: usize, pinned: u64) {
    let got = shape_hash(w, h);
    assert_eq!(
        got, pinned,
        "{w}x{h}: got {got:#018x}, pinned {pinned:#018x}"
    );
}

#[test]
fn pinned_1x1() {
    check(1, 1, 0xc611_1f95_9ed2_c469);
}

#[test]
fn pinned_1x9() {
    check(1, 9, 0x809e_c9f1_010c_c463);
}

#[test]
fn pinned_9x1() {
    check(9, 1, 0x3128_eb8a_b4ac_f405);
}

#[test]
fn pinned_5x7() {
    check(5, 7, 0xb05d_28cb_bc80_b814);
}

#[test]
fn pinned_33x17() {
    check(33, 17, 0x4ed2_ab41_b055_1c00);
}

#[test]
fn pinned_64x64() {
    check(64, 64, 0x311a_ca3c_4753_5abd);
}
