//! Tier-1 code-block coder and decoder (JPEG2000 Annex D).
//!
//! Coefficients are coded in sign-magnitude form, bit-plane by bit-plane,
//! most significant plane first. Each plane below the first runs three
//! passes — significance propagation, magnitude refinement, cleanup — and
//! every pass ends with an MQ termination (the standard's TERMALL /
//! RESTART style), so truncation at any pass boundary is *exact*: rate
//! control can drop a suffix of passes and the decoder reconstructs the
//! included prefix bit-for-bit.
//!
//! The coder also measures, per pass, the byte cost, the estimated
//! distortion reduction (for PCRD), and the MQ decision count (the Tier-1
//! work items consumed by the `cellsim` cost model).

use crate::context::{initial_contexts, mr_context, sc_context, zc_context, CTX_RL, CTX_UNI};
use mqcoder::{Contexts, MqDecoder, MqEncoder, RawDecoder, RawEncoder};

/// Band class for context selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandKind {
    /// LL and LH (vertically low-pass) bands share one table.
    LlLh,
    /// HL: horizontally high-pass (h/v roles swap).
    Hl,
    /// HH: diagonally oriented.
    Hh,
}

/// Coding pass type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassType {
    /// Significance propagation.
    SigProp,
    /// Magnitude refinement.
    MagRef,
    /// Cleanup.
    Cleanup,
}

/// Bookkeeping for one coding pass.
#[derive(Debug, Clone)]
pub struct PassInfo {
    /// Pass type.
    pub pass_type: PassType,
    /// Bit-plane index (0 = least significant).
    pub plane: u8,
    /// Cumulative compressed bytes through the end of this pass.
    pub rate_bytes: usize,
    /// Estimated distortion reduction of this pass, in (quantizer-index)^2
    /// units; multiply by (step * L2 basis norm)^2 to get image-domain MSE.
    pub dist_reduction: f64,
    /// MQ decisions coded in this pass (Tier-1 work items).
    pub symbols: u64,
}

/// Output of [`encode_block`].
#[derive(Debug, Clone)]
pub struct EncodedBlock {
    /// Concatenated per-pass MQ segments.
    pub data: Vec<u8>,
    /// Byte offset of the end of each pass's segment within `data`.
    pub pass_ends: Vec<usize>,
    /// Per-pass metadata (same length as `pass_ends`).
    pub passes: Vec<PassInfo>,
    /// Number of coded magnitude bit-planes (0 for an all-zero block).
    pub num_planes: u8,
    /// Block width.
    pub w: usize,
    /// Block height.
    pub h: usize,
}

impl EncodedBlock {
    /// Total MQ decisions across passes.
    pub fn total_symbols(&self) -> u64 {
        self.passes.iter().map(|p| p.symbols).sum()
    }

    /// Bytes if truncated to the first `n` passes.
    pub fn bytes_for_passes(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.pass_ends[n.min(self.pass_ends.len()) - 1]
        }
    }
}

// Per-cell state bits. Each padded grid cell holds one `u16`:
//
// * bits 0-3: the cell's own SIG, VISITED, REFINED and NEG;
// * bits 4-11: the SIG bits of its 8 neighbours;
// * bits 12-15: the NEG bits of its W, E, N and S neighbours.
//
// `Grid::set_sig` writes a newly significant sample's bits into its 8
// neighbours once, so every context below is one load of the cell's own
// word. A NEG neighbour bit is only ever set together with the matching
// SIG neighbour bit.
const SIG: u16 = 1;
const VISITED: u16 = 1 << 1;
const REFINED: u16 = 1 << 2;
const NEG: u16 = 1 << 3;
const SIG_W: u16 = 1 << 4;
const SIG_E: u16 = 1 << 5;
const SIG_N: u16 = 1 << 6;
const SIG_S: u16 = 1 << 7;
const SIG_NW: u16 = 1 << 8;
const SIG_NE: u16 = 1 << 9;
const SIG_SW: u16 = 1 << 10;
const SIG_SE: u16 = 1 << 11;
/// Any of the 8 neighbours significant.
const NB_SIG: u16 = 0xFF0;
const NEG_W: u16 = 1 << 12;
const NEG_E: u16 = 1 << 13;
const NEG_N: u16 = 1 << 14;
const NEG_S: u16 = 1 << 15;

/// Zero-coding table index: the 8 neighbour SIG bits.
#[inline]
fn zc_index(f: u16) -> usize {
    ((f >> 4) & 0xFF) as usize
}

/// Sign-coding table index: W/E/N/S SIG bits low, their NEG bits high.
#[inline]
fn sc_index(f: u16) -> usize {
    (((f >> 4) & 0x0F) | ((f >> 8) & 0xF0)) as usize
}

/// Zero-coding context for every neighbour-significance mask
/// ([`zc_index`]), built from the [`zc_context`] reference.
fn zc_table(kind: BandKind) -> &'static [u8; 256] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u8; 256]; 3]> = OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        let mut t = [[0u8; 256]; 3];
        let bit = |m: usize, b: u16| u32::from(m as u16 & (b >> 4) != 0);
        for (k, kind) in [BandKind::LlLh, BandKind::Hl, BandKind::Hh]
            .into_iter()
            .enumerate()
        {
            for (m, cx) in t[k].iter_mut().enumerate() {
                let h = bit(m, SIG_W) + bit(m, SIG_E);
                let v = bit(m, SIG_N) + bit(m, SIG_S);
                let d = bit(m, SIG_NW) + bit(m, SIG_NE) + bit(m, SIG_SW) + bit(m, SIG_SE);
                *cx = zc_context(kind, h, v, d) as u8;
            }
        }
        t
    });
    match kind {
        BandKind::LlLh => &tables[0],
        BandKind::Hl => &tables[1],
        BandKind::Hh => &tables[2],
    }
}

/// Sign-coding (context, xor) for every [`sc_index`], built from the
/// [`sc_context`] reference: a significant neighbour contributes +1, or
/// -1 when negative, and each direction's sum is clamped to -1..=1.
fn sc_table() -> &'static [(u8, u8); 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[(u8, u8); 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [(0u8, 0u8); 256];
        for (m, e) in t.iter_mut().enumerate() {
            let f = ((m & 0x0F) << 4 | (m & 0xF0) << 8) as u16;
            let c = |sig: u16, neg: u16| match (f & sig != 0, f & neg != 0) {
                (false, _) => 0,
                (true, false) => 1,
                (true, true) => -1,
            };
            let hc = (c(SIG_W, NEG_W) + c(SIG_E, NEG_E)).clamp(-1, 1);
            let vc = (c(SIG_N, NEG_N) + c(SIG_S, NEG_S)).clamp(-1, 1);
            let (cx, xor) = sc_context(hc, vc);
            *e = (cx as u8, xor);
        }
        t
    })
}

/// Shared significance/sign state grid.
///
/// Flags live in a `(w + 2) x (h + 2)` array whose one-cell border is never
/// coded: it absorbs the neighbour writes of edge samples, so
/// [`Grid::set_sig`] needs no bounds branches and the "outside the block =
/// insignificant" rule holds by value.
struct Grid {
    w: usize,
    h: usize,
    /// Padded row stride, `w + 2`.
    stride: usize,
    flags: Vec<u16>,
}

impl Grid {
    fn new(w: usize, h: usize) -> Self {
        Grid {
            w,
            h,
            stride: w + 2,
            flags: vec![0; (w + 2) * (h + 2)],
        }
    }

    /// Index of interior cell `(x, y)` in the padded array.
    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        (y + 1) * self.stride + (x + 1)
    }

    /// Mark cell `i` significant with sign `neg`, and tell its neighbours.
    #[inline]
    fn set_sig(&mut self, i: usize, neg: bool) {
        let s = self.stride;
        let n = u16::from(neg);
        let f = &mut self.flags[i - s - 1..=i + s + 1];
        f[s + 1] |= SIG | (n * NEG);
        f[0] |= SIG_SE;
        f[1] |= SIG_S | (n * NEG_S);
        f[2] |= SIG_SW;
        f[s] |= SIG_E | (n * NEG_E);
        f[s + 2] |= SIG_W | (n * NEG_W);
        f[2 * s] |= SIG_NE;
        f[2 * s + 1] |= SIG_N | (n * NEG_N);
        f[2 * s + 2] |= SIG_NW;
    }

    fn clear_visited(&mut self) {
        for f in &mut self.flags {
            *f &= !VISITED;
        }
    }

    /// Panics unless every interior cell's neighbour bits equal the SIG and
    /// NEG bits of its 8 actual neighbours.
    #[cfg(test)]
    fn check_neighbour_bits(&self) {
        let s = self.stride as isize;
        let own = |i: isize| -> (bool, bool) {
            let f = self.flags[i as usize];
            (f & SIG != 0, f & NEG != 0)
        };
        for y in 0..self.h {
            for x in 0..self.w {
                let i = self.idx(x, y) as isize;
                let mut want = 0u16;
                for (off, sig, neg) in [
                    (-1, SIG_W, NEG_W),
                    (1, SIG_E, NEG_E),
                    (-s, SIG_N, NEG_N),
                    (s, SIG_S, NEG_S),
                    (-s - 1, SIG_NW, 0),
                    (-s + 1, SIG_NE, 0),
                    (s - 1, SIG_SW, 0),
                    (s + 1, SIG_SE, 0),
                ] {
                    let (is_sig, is_neg) = own(i + off);
                    if is_sig {
                        want |= sig | if is_neg { neg } else { 0 };
                    }
                }
                let got = self.flags[i as usize] & !0xF;
                assert_eq!(got, want, "cell ({x}, {y})");
            }
        }
    }
}

fn num_planes_of(mags: &[u32]) -> u8 {
    let max = mags.iter().copied().max().unwrap_or(0);
    (32 - max.leading_zeros()) as u8
}

/// Distortion-reduction estimate when a sample becomes significant at
/// plane `p` (reconstruction moves from 0 to the interval midpoint).
#[inline]
fn d_sig(p: u8) -> f64 {
    2.25 * f64::powi(4.0, p as i32)
}

/// Distortion-reduction estimate for one refinement bit at plane `p`
/// (uncertainty interval halves).
#[inline]
fn d_ref(p: u8) -> f64 {
    0.25 * f64::powi(4.0, p as i32)
}

/// True when a pass is raw-coded under selective arithmetic-coding bypass
/// (Annex D.5): significance-propagation and magnitude-refinement passes
/// below the four most significant bit planes skip the MQ coder.
#[inline]
pub fn pass_is_raw(bypass: bool, pt: PassType, plane: u8, num_planes: u8) -> bool {
    bypass && pt != PassType::Cleanup && plane + 4 < num_planes
}

/// The passes of `plane`, most significant plane first: the top plane has
/// only a cleanup pass.
fn plane_passes(plane: u8, num_planes: u8) -> &'static [PassType] {
    if plane == num_planes - 1 {
        &[PassType::Cleanup]
    } else {
        &[PassType::SigProp, PassType::MagRef, PassType::Cleanup]
    }
}

/// Encode one code block of signed quantizer indices.
pub fn encode_block(data: &[i32], w: usize, h: usize, kind: BandKind) -> EncodedBlock {
    encode_block_opts(data, w, h, kind, false)
}

/// [`encode_block`] with the selective arithmetic-coding-bypass option
/// ("lazy" mode): cheaper Tier-1 at a small rate cost.
pub fn encode_block_opts(
    data: &[i32],
    w: usize,
    h: usize,
    kind: BandKind,
    bypass: bool,
) -> EncodedBlock {
    assert_eq!(data.len(), w * h, "block data size");
    // Per-code-block trace span: free (one atomic load) while tracing
    // is disabled; Tier-1 cost is data dependent, so these spans are
    // the ground truth behind the dynamic work queue's utilization.
    let mut span = obs::trace::span("tier1")
        .cat("block")
        .arg("w", w as u64)
        .arg("h", h as u64);
    let samples = (w * h) as u64;
    let mut meas = obs::counters::measure(
        obs::counters::Kernel::Tier1Mq,
        samples,
        samples * std::mem::size_of::<i32>() as u64,
    );
    let mags: Vec<u32> = data.iter().map(|&v| v.unsigned_abs()).collect();
    let num_planes = num_planes_of(&mags);
    let mut blk = EncodedBlock {
        data: Vec::new(),
        pass_ends: Vec::new(),
        passes: Vec::new(),
        num_planes,
        w,
        h,
    };
    if num_planes == 0 {
        span.set_arg("symbols", 0);
        return blk;
    }
    let mut grid = Grid::new(w, h);
    for (i, &v) in data.iter().enumerate() {
        if v < 0 {
            let c = grid.idx(i % w, i / w);
            grid.flags[c] |= NEG;
        }
    }
    let mut ctxs = initial_contexts();
    let zc = zc_table(kind);
    // One coder for the whole block: every pass is a terminated segment
    // flushed straight behind the previous one.
    let mut enc = MqEncoder::new();

    for plane in (0..num_planes).rev() {
        for &pt in plane_passes(plane, num_planes) {
            let (end, symbols, coded) = if pass_is_raw(bypass, pt, plane, num_planes) {
                let mut raw = RawEncoder::new();
                let (bits, coded) = match pt {
                    PassType::SigProp => sig_prop_enc_raw(&mut raw, &mut grid, &mags, plane),
                    PassType::MagRef => mag_ref_enc_raw(&mut raw, &mut grid, &mags, plane),
                    PassType::Cleanup => unreachable!("cleanup is never raw"),
                };
                let out = enc.buffer_mut();
                out.extend_from_slice(&raw.finish());
                (out.len(), bits, coded)
            } else {
                enc.restart();
                let coded = match pt {
                    PassType::SigProp => {
                        sig_prop_enc(&mut enc, &mut ctxs, &mut grid, &mags, plane, zc)
                    }
                    PassType::MagRef => mag_ref_enc(&mut enc, &mut ctxs, &mut grid, &mags, plane),
                    PassType::Cleanup => {
                        let coded = cleanup_enc(&mut enc, &mut ctxs, &mut grid, &mags, plane, zc);
                        grid.clear_visited();
                        coded
                    }
                };
                let symbols = enc.symbols();
                (enc.flush(), symbols, coded)
            };
            #[cfg(test)]
            grid.check_neighbour_bits();
            // Every sample coded in a pass adds the same unit (9 or 1
            // times a power of two), so the product equals the running
            // sum exactly (DESIGN.md §19).
            let unit = if pt == PassType::MagRef {
                d_ref(plane)
            } else {
                d_sig(plane)
            };
            blk.pass_ends.push(end);
            blk.passes.push(PassInfo {
                pass_type: pt,
                plane,
                rate_bytes: end,
                dist_reduction: f64::from(coded) * unit,
                symbols,
            });
        }
    }
    blk.data = enc.into_bytes();
    span.set_arg("symbols", blk.total_symbols());
    meas.add_symbols(blk.total_symbols());
    blk
}

/// The bit of sample `j` at `plane`.
#[inline]
fn bit_of(mags: &[u32], j: usize, plane: u8) -> u8 {
    ((mags[j] >> plane) & 1) as u8
}

/// Sign of a sample whose flags are `f`, coded in its neighbourhood's
/// sign context.
#[inline]
fn code_sign_enc(enc: &mut MqEncoder, ctxs: &mut Contexts, f: u16) {
    let (cx, xor) = sc_table()[sc_index(f)];
    enc.encode(ctxs, cx as usize, u8::from(f & NEG != 0) ^ xor);
}

/// Significance propagation: samples not yet significant with at least
/// one significant neighbour (a nonzero zero-coding context). Returns the
/// samples that became significant.
fn sig_prop_enc(
    enc: &mut MqEncoder,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &[u32],
    plane: u8,
    zc: &[u8; 256],
) -> u32 {
    let mut coded = 0;
    stripe_scan(grid.w, grid.h, |i, j| {
        let f = grid.flags[i];
        if f & SIG == 0 && f & NB_SIG != 0 {
            let bit = bit_of(mags, j, plane);
            enc.encode(ctxs, zc[zc_index(f)] as usize, bit);
            grid.flags[i] |= VISITED;
            if bit == 1 {
                code_sign_enc(enc, ctxs, f);
                grid.set_sig(i, f & NEG != 0);
                coded += 1;
            }
        }
    });
    coded
}

/// Magnitude refinement: significant samples not coded in this plane's
/// significance pass. Returns the samples refined.
fn mag_ref_enc(
    enc: &mut MqEncoder,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &[u32],
    plane: u8,
) -> u32 {
    let mut coded = 0;
    stripe_scan(grid.w, grid.h, |i, j| {
        let f = grid.flags[i];
        if f & (SIG | VISITED) == SIG {
            let cx = mr_context(f & REFINED == 0, f & NB_SIG != 0);
            enc.encode(ctxs, cx, bit_of(mags, j, plane));
            grid.flags[i] |= REFINED;
            coded += 1;
        }
    });
    coded
}

/// Raw (bypass) significance propagation: same membership rule as the MQ
/// pass, but bits and signs are emitted uncoded. Returns (bits emitted,
/// samples that became significant).
fn sig_prop_enc_raw(enc: &mut RawEncoder, grid: &mut Grid, mags: &[u32], plane: u8) -> (u64, u32) {
    let (mut bits, mut coded) = (0u64, 0u32);
    stripe_scan(grid.w, grid.h, |i, j| {
        let f = grid.flags[i];
        if f & SIG == 0 && f & NB_SIG != 0 {
            let bit = bit_of(mags, j, plane);
            enc.put(bit);
            bits += 1;
            grid.flags[i] |= VISITED;
            if bit == 1 {
                let neg = f & NEG != 0;
                enc.put(u8::from(neg));
                bits += 1;
                grid.set_sig(i, neg);
                coded += 1;
            }
        }
    });
    (bits, coded)
}

/// Raw (bypass) magnitude refinement. Returns (bits emitted, samples
/// refined), which are equal.
fn mag_ref_enc_raw(enc: &mut RawEncoder, grid: &mut Grid, mags: &[u32], plane: u8) -> (u64, u32) {
    let mut coded = 0u32;
    stripe_scan(grid.w, grid.h, |i, j| {
        if grid.flags[i] & (SIG | VISITED) == SIG {
            enc.put(bit_of(mags, j, plane));
            grid.flags[i] |= REFINED;
            coded += 1;
        }
    });
    (u64::from(coded), coded)
}

/// Cleanup: every sample no earlier pass of this plane coded. A full
/// stripe column of four uncoded samples with no significant neighbour
/// enters run mode. Returns the samples that became significant.
fn cleanup_enc(
    enc: &mut MqEncoder,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &[u32],
    plane: u8,
    zc: &[u8; 256],
) -> u32 {
    let (w, h, s) = (grid.w, grid.h, grid.stride);
    let mut coded = 0;
    let mut y0 = 0;
    while y0 < h {
        let rows = (h - y0).min(4);
        for x in 0..w {
            let (i0, j0) = (grid.idx(x, y0), y0 * w + x);
            let mut start_row = 0;
            if rows == 4 && run_mode(&grid.flags, i0, s) {
                let first_sig = (0..4).find(|&r| bit_of(mags, j0 + r * w, plane) == 1);
                let Some(r) = first_sig else {
                    enc.encode(ctxs, CTX_RL, 0);
                    continue;
                };
                enc.encode(ctxs, CTX_RL, 1);
                enc.encode(ctxs, CTX_UNI, ((r >> 1) & 1) as u8);
                enc.encode(ctxs, CTX_UNI, (r & 1) as u8);
                let i = i0 + r * s;
                let f = grid.flags[i];
                code_sign_enc(enc, ctxs, f);
                grid.set_sig(i, f & NEG != 0);
                coded += 1;
                start_row = r + 1;
            }
            for r in start_row..rows {
                let i = i0 + r * s;
                let f = grid.flags[i];
                if f & (SIG | VISITED) != 0 {
                    continue;
                }
                let bit = bit_of(mags, j0 + r * w, plane);
                enc.encode(ctxs, zc[zc_index(f)] as usize, bit);
                if bit == 1 {
                    code_sign_enc(enc, ctxs, f);
                    grid.set_sig(i, f & NEG != 0);
                    coded += 1;
                }
            }
        }
        y0 += 4;
    }
    coded
}

/// Run-mode test for the four-row stripe column starting at padded index
/// `i0`: no sample coded yet or significant, and no significant neighbour
/// (every zero-coding context is 0).
#[inline]
fn run_mode(flags: &[u16], i0: usize, s: usize) -> bool {
    (flags[i0] | flags[i0 + s] | flags[i0 + 2 * s] | flags[i0 + 3 * s]) & (SIG | VISITED | NB_SIG)
        == 0
}

/// Visit every cell of a `w`×`h` block in stripe order (columns of four
/// rows), passing the padded grid index and the raster index.
#[inline(always)]
fn stripe_scan(w: usize, h: usize, mut visit: impl FnMut(usize, usize)) {
    let s = w + 2;
    let mut y0 = 0;
    while y0 < h {
        let rows = (h - y0).min(4);
        for x in 0..w {
            let (mut i, mut j) = ((y0 + 1) * s + x + 1, y0 * w + x);
            for _ in 0..rows {
                visit(i, j);
                i += s;
                j += w;
            }
        }
        y0 += 4;
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Decode the sign of a sample whose flags are `f`; true when negative.
#[inline]
fn decode_sign(dec: &mut MqDecoder<'_>, ctxs: &mut Contexts, f: u16) -> bool {
    let (cx, xor) = sc_table()[sc_index(f)];
    dec.decode(ctxs, cx as usize) ^ xor == 1
}

/// Decode the first `num_passes` passes of a block coded by
/// [`encode_block`]. `pass_ends` are the per-pass segment ends (as in
/// [`EncodedBlock::pass_ends`], possibly truncated); `data` must contain at
/// least `pass_ends[num_passes - 1]` bytes.
///
/// When `midpoint` is set, partially decoded magnitudes are reconstructed
/// at the midpoint of their uncertainty interval (standard lossy decoder
/// behavior); exact lossless reconstruction requires all passes and
/// `midpoint = false` (the adjustment would be zero anyway at plane 0).
#[allow(clippy::too_many_arguments)]
pub fn decode_block(
    data: &[u8],
    pass_ends: &[usize],
    num_passes: usize,
    w: usize,
    h: usize,
    kind: BandKind,
    num_planes: u8,
    midpoint: bool,
) -> Vec<i32> {
    decode_block_opts(
        data, pass_ends, num_passes, w, h, kind, num_planes, midpoint, false,
    )
}

/// [`decode_block`] with the selective arithmetic-coding-bypass option;
/// `bypass` must match the encoder's setting (signalled in COD).
#[allow(clippy::too_many_arguments)]
pub fn decode_block_opts(
    data: &[u8],
    pass_ends: &[usize],
    num_passes: usize,
    w: usize,
    h: usize,
    kind: BandKind,
    num_planes: u8,
    midpoint: bool,
    bypass: bool,
) -> Vec<i32> {
    if num_planes == 0 || num_passes == 0 {
        return vec![0; w * h];
    }
    let mut mags = vec![0u32; w * h];
    let mut grid = Grid::new(w, h);
    let mut ctxs = initial_contexts();
    let zc = zc_table(kind);
    let mut pass_idx = 0usize;
    let mut seg_start = 0usize;
    let mut last_plane = num_planes - 1;

    'outer: for plane in (0..num_planes).rev() {
        for &pt in plane_passes(plane, num_planes) {
            if pass_idx >= num_passes {
                break 'outer;
            }
            let seg_end = pass_ends[pass_idx];
            let seg = &data[seg_start..seg_end];
            if pass_is_raw(bypass, pt, plane, num_planes) {
                let mut dec = RawDecoder::new(seg);
                match pt {
                    PassType::SigProp => sig_prop_dec_raw(&mut dec, &mut grid, &mut mags, plane),
                    PassType::MagRef => mag_ref_dec_raw(&mut dec, &mut grid, &mut mags, plane),
                    PassType::Cleanup => unreachable!("cleanup is never raw"),
                }
            } else {
                let mut dec = MqDecoder::new(seg);
                match pt {
                    PassType::SigProp => {
                        sig_prop_dec(&mut dec, &mut ctxs, &mut grid, &mut mags, plane, zc)
                    }
                    PassType::MagRef => {
                        mag_ref_dec(&mut dec, &mut ctxs, &mut grid, &mut mags, plane)
                    }
                    PassType::Cleanup => {
                        cleanup_dec(&mut dec, &mut ctxs, &mut grid, &mut mags, plane, zc);
                        grid.clear_visited();
                    }
                }
            }
            #[cfg(test)]
            grid.check_neighbour_bits();
            last_plane = plane;
            seg_start = seg_end;
            pass_idx += 1;
        }
    }

    let half = if midpoint && last_plane > 0 {
        1u32 << (last_plane - 1)
    } else {
        0
    };
    (0..w * h)
        .map(|j| {
            let m = mags[j];
            if m == 0 {
                0
            } else {
                let v = (m + half) as i32;
                if grid.flags[grid.idx(j % w, j / w)] & NEG != 0 {
                    -v
                } else {
                    v
                }
            }
        })
        .collect()
}

fn sig_prop_dec(
    dec: &mut MqDecoder<'_>,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &mut [u32],
    plane: u8,
    zc: &[u8; 256],
) {
    stripe_scan(grid.w, grid.h, |i, j| {
        let f = grid.flags[i];
        if f & SIG == 0 && f & NB_SIG != 0 {
            let bit = dec.decode(ctxs, zc[zc_index(f)] as usize);
            grid.flags[i] |= VISITED;
            if bit == 1 {
                let neg = decode_sign(dec, ctxs, f);
                grid.set_sig(i, neg);
                mags[j] |= 1 << plane;
            }
        }
    });
}

fn mag_ref_dec(
    dec: &mut MqDecoder<'_>,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &mut [u32],
    plane: u8,
) {
    stripe_scan(grid.w, grid.h, |i, j| {
        let f = grid.flags[i];
        if f & (SIG | VISITED) == SIG {
            let cx = mr_context(f & REFINED == 0, f & NB_SIG != 0);
            mags[j] |= u32::from(dec.decode(ctxs, cx)) << plane;
            grid.flags[i] |= REFINED;
        }
    });
}

/// Raw (bypass) significance-propagation decode.
fn sig_prop_dec_raw(dec: &mut RawDecoder<'_>, grid: &mut Grid, mags: &mut [u32], plane: u8) {
    stripe_scan(grid.w, grid.h, |i, j| {
        let f = grid.flags[i];
        if f & SIG == 0 && f & NB_SIG != 0 {
            let bit = dec.get();
            grid.flags[i] |= VISITED;
            if bit == 1 {
                let neg = dec.get() == 1;
                grid.set_sig(i, neg);
                mags[j] |= 1 << plane;
            }
        }
    });
}

/// Raw (bypass) magnitude-refinement decode.
fn mag_ref_dec_raw(dec: &mut RawDecoder<'_>, grid: &mut Grid, mags: &mut [u32], plane: u8) {
    stripe_scan(grid.w, grid.h, |i, j| {
        if grid.flags[i] & (SIG | VISITED) == SIG {
            mags[j] |= u32::from(dec.get()) << plane;
            grid.flags[i] |= REFINED;
        }
    });
}

fn cleanup_dec(
    dec: &mut MqDecoder<'_>,
    ctxs: &mut Contexts,
    grid: &mut Grid,
    mags: &mut [u32],
    plane: u8,
    zc: &[u8; 256],
) {
    let (w, h, s) = (grid.w, grid.h, grid.stride);
    let mut y0 = 0;
    while y0 < h {
        let rows = (h - y0).min(4);
        for x in 0..w {
            let (i0, j0) = (grid.idx(x, y0), y0 * w + x);
            let mut start_row = 0;
            if rows == 4 && run_mode(&grid.flags, i0, s) {
                if dec.decode(ctxs, CTX_RL) == 0 {
                    continue;
                }
                let r = ((dec.decode(ctxs, CTX_UNI) << 1) | dec.decode(ctxs, CTX_UNI)) as usize;
                let i = i0 + r * s;
                let neg = decode_sign(dec, ctxs, grid.flags[i]);
                grid.set_sig(i, neg);
                mags[j0 + r * w] |= 1 << plane;
                start_row = r + 1;
            }
            for r in start_row..rows {
                let i = i0 + r * s;
                let f = grid.flags[i];
                if f & (SIG | VISITED) != 0 {
                    continue;
                }
                if dec.decode(ctxs, zc[zc_index(f)] as usize) == 1 {
                    let neg = decode_sign(dec, ctxs, f);
                    grid.set_sig(i, neg);
                    mags[j0 + r * w] |= 1 << plane;
                }
            }
        }
        y0 += 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[i32], w: usize, h: usize, kind: BandKind) {
        let blk = encode_block(data, w, h, kind);
        let got = decode_block(
            &blk.data,
            &blk.pass_ends,
            blk.passes.len(),
            w,
            h,
            kind,
            blk.num_planes,
            false,
        );
        assert_eq!(got, data, "{w}x{h} {kind:?}");
    }

    fn pseudo(n: usize, seed: u32, spread: i32) -> Vec<i32> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                ((x >> 10) as i32 % (2 * spread + 1)) - spread
            })
            .collect()
    }

    /// Neighbour offsets `(dx, dy)` from a cell, W E N S NW NE SW SE.
    const AROUND: [(isize, isize); 8] = [
        (-1, 0),
        (1, 0),
        (0, -1),
        (0, 1),
        (-1, -1),
        (1, -1),
        (-1, 1),
        (1, 1),
    ];

    /// A 3x3 grid whose centre has the neighbours `sig` (bit k =
    /// `AROUND[k]`) significant, those in `neg` negative. Returns the
    /// centre's flags, written only through [`Grid::set_sig`].
    fn centre_flags(sig: u8, neg: u8) -> u16 {
        let mut g = Grid::new(3, 3);
        for (k, &(dx, dy)) in AROUND.iter().enumerate() {
            if sig >> k & 1 == 1 {
                let i = g.idx((1 + dx) as usize, (1 + dy) as usize);
                g.set_sig(i, neg >> k & 1 == 1);
            }
        }
        g.flags[g.idx(1, 1)]
    }

    #[test]
    fn zero_coding_table_matches_reference_for_every_mask() {
        for kind in [BandKind::LlLh, BandKind::Hl, BandKind::Hh] {
            for sig in 0..=255u8 {
                let n = |ks: &[usize]| ks.iter().map(|&k| u32::from(sig >> k & 1)).sum();
                let (h, v, d) = (n(&[0, 1]), n(&[2, 3]), n(&[4, 5, 6, 7]));
                let f = centre_flags(sig, 0);
                let cx = zc_table(kind)[zc_index(f)];
                assert_eq!(cx as usize, zc_context(kind, h, v, d), "{kind:?} {sig:08b}");
                // Context 0 exactly when no neighbour is significant: the
                // significance-pass membership and run-mode tests rely on it.
                assert_eq!(cx == 0, f & NB_SIG == 0, "{kind:?} {sig:08b}");
            }
        }
    }

    #[test]
    fn sign_coding_table_matches_reference_for_every_mask() {
        for sig in 0..=255u8 {
            for neg in 0..=255u8 {
                let c = |k: usize| match (sig >> k & 1, neg >> k & 1) {
                    (0, _) => 0,
                    (_, 0) => 1,
                    _ => -1,
                };
                let hc = (c(0) + c(1)).clamp(-1, 1);
                let vc = (c(2) + c(3)).clamp(-1, 1);
                let (cx, xor) = sc_table()[sc_index(centre_flags(sig, neg))];
                assert_eq!(
                    (cx as usize, xor),
                    sc_context(hc, vc),
                    "sig {sig:08b} neg {neg:08b}"
                );
            }
        }
    }

    #[test]
    fn neighbour_bits_match_actual_neighbours_after_every_pass() {
        // Under `cfg(test)` the encoder and the decoder run
        // `Grid::check_neighbour_bits` after every pass; these blocks give
        // it every shape class, band class and both pass codings.
        for (w, h) in [(1usize, 1usize), (1, 9), (9, 1), (5, 7), (33, 17), (64, 64)] {
            for kind in [BandKind::LlLh, BandKind::Hl, BandKind::Hh] {
                for (seed, spread) in [(3u32, 3i32), (11, 400), (29, 30_000)] {
                    let data = pseudo(w * h, seed + (w * h) as u32, spread);
                    for bypass in [false, true] {
                        let blk = encode_block_opts(&data, w, h, kind, bypass);
                        let got = decode_block_opts(
                            &blk.data,
                            &blk.pass_ends,
                            blk.passes.len(),
                            w,
                            h,
                            kind,
                            blk.num_planes,
                            false,
                            bypass,
                        );
                        assert_eq!(got, data, "{w}x{h} {kind:?} bypass={bypass}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_block_is_empty() {
        let blk = encode_block(&[0; 16], 4, 4, BandKind::LlLh);
        assert_eq!(blk.num_planes, 0);
        assert!(blk.data.is_empty());
        assert!(blk.passes.is_empty());
        let got = decode_block(&[], &[], 0, 4, 4, BandKind::LlLh, 0, false);
        assert_eq!(got, vec![0; 16]);
    }

    #[test]
    fn single_coefficient() {
        for v in [1i32, -1, 2, -7, 255, -256] {
            let mut data = vec![0i32; 16];
            data[5] = v;
            roundtrip(&data, 4, 4, BandKind::Hh);
        }
    }

    #[test]
    fn roundtrip_various_shapes() {
        for (w, h) in [
            (4usize, 4usize),
            (8, 8),
            (5, 7),
            (1, 9),
            (9, 1),
            (3, 4),
            (64, 64),
        ] {
            for kind in [BandKind::LlLh, BandKind::Hl, BandKind::Hh] {
                let data = pseudo(w * h, (w * 31 + h) as u32, 100);
                roundtrip(&data, w, h, kind);
            }
        }
    }

    #[test]
    fn roundtrip_sparse_blocks() {
        // Mostly zeros: exercises run-length coding heavily.
        let mut data = vec![0i32; 32 * 32];
        for i in (0..data.len()).step_by(97) {
            data[i] = ((i as i32 % 13) - 6) * 3;
        }
        roundtrip(&data, 32, 32, BandKind::LlLh);
    }

    #[test]
    fn roundtrip_dense_large_values() {
        let data = pseudo(32 * 32, 99, 30_000);
        roundtrip(&data, 32, 32, BandKind::Hl);
    }

    #[test]
    fn pass_structure_is_3n_minus_2() {
        let data = pseudo(16 * 16, 5, 100);
        let blk = encode_block(&data, 16, 16, BandKind::LlLh);
        assert!(blk.num_planes > 0);
        assert_eq!(blk.passes.len(), 3 * blk.num_planes as usize - 2);
        assert_eq!(blk.passes[0].pass_type, PassType::Cleanup);
        if blk.passes.len() > 1 {
            assert_eq!(blk.passes[1].pass_type, PassType::SigProp);
            assert_eq!(blk.passes[2].pass_type, PassType::MagRef);
        }
        // Rates are cumulative and non-decreasing; ends match data length.
        for w in blk.passes.windows(2) {
            assert!(w[1].rate_bytes >= w[0].rate_bytes);
        }
        assert_eq!(*blk.pass_ends.last().unwrap(), blk.data.len());
    }

    #[test]
    fn truncated_decode_is_exact_prefix() {
        // Dropping trailing passes must reproduce exactly the coefficients
        // implied by the included planes (no corruption of earlier planes).
        let data = pseudo(16 * 16, 1234, 500);
        let blk = encode_block(&data, 16, 16, BandKind::LlLh);
        let total = blk.passes.len();
        for keep in [1usize, 2, total / 2, total - 1, total] {
            let keep = keep.clamp(1, total);
            let bytes = blk.bytes_for_passes(keep);
            let got = decode_block(
                &blk.data[..bytes],
                &blk.pass_ends[..keep],
                keep,
                16,
                16,
                BandKind::LlLh,
                blk.num_planes,
                false,
            );
            // Every decoded magnitude must be a prefix (high planes) of the
            // true magnitude, and the full decode must be exact.
            for (g, &t) in got.iter().zip(&data) {
                let (gm, tm) = (g.unsigned_abs(), t.unsigned_abs());
                assert!(gm <= tm, "keep={keep}: {gm} > {tm}");
                if keep == total {
                    assert_eq!(*g, t);
                }
                if gm > 0 {
                    assert_eq!(g.signum(), t.signum());
                }
            }
        }
    }

    #[test]
    fn midpoint_reconstruction_reduces_error() {
        let data = pseudo(16 * 16, 777, 1000);
        let blk = encode_block(&data, 16, 16, BandKind::Hh);
        let keep = blk.passes.len() / 2;
        let bytes = blk.bytes_for_passes(keep);
        let err = |v: &[i32]| -> f64 {
            v.iter()
                .zip(&data)
                .map(|(g, t)| ((g - t) as f64).powi(2))
                .sum()
        };
        let plain = decode_block(
            &blk.data[..bytes],
            &blk.pass_ends[..keep],
            keep,
            16,
            16,
            BandKind::Hh,
            blk.num_planes,
            false,
        );
        let mid = decode_block(
            &blk.data[..bytes],
            &blk.pass_ends[..keep],
            keep,
            16,
            16,
            BandKind::Hh,
            blk.num_planes,
            true,
        );
        assert!(
            err(&mid) <= err(&plain),
            "midpoint {} plain {}",
            err(&mid),
            err(&plain)
        );
    }

    #[test]
    fn distortion_estimates_decrease_with_plane() {
        let data = pseudo(32 * 32, 4242, 2000);
        let blk = encode_block(&data, 32, 32, BandKind::LlLh);
        // Cleanup of the top plane must claim more distortion reduction
        // than the cleanup of the bottom plane.
        let first = &blk.passes[0];
        let last = blk
            .passes
            .iter()
            .rev()
            .find(|p| p.pass_type == PassType::Cleanup)
            .unwrap();
        assert!(first.dist_reduction > last.dist_reduction);
        assert!(blk.total_symbols() > 0);
    }

    #[test]
    fn compresses_structured_data() {
        // A smooth gradient block should code well below 16 bits/sample.
        let mut data = vec![0i32; 64 * 64];
        for y in 0..64 {
            for x in 0..64 {
                data[y * 64 + x] = (x as i32 - 32) * 2;
            }
        }
        let blk = encode_block(&data, 64, 64, BandKind::LlLh);
        assert!(blk.data.len() < 64 * 64 * 2 / 4, "{} bytes", blk.data.len());
    }

    #[test]
    fn bypass_roundtrip_various() {
        for (w, h, spread) in [(16usize, 16usize, 30_000i32), (8, 8, 500), (33, 17, 4_000)] {
            for kind in [BandKind::LlLh, BandKind::Hl, BandKind::Hh] {
                let data = pseudo(w * h, (w + h) as u32 * 7 + 1, spread);
                let blk = encode_block_opts(&data, w, h, kind, true);
                let got = decode_block_opts(
                    &blk.data,
                    &blk.pass_ends,
                    blk.passes.len(),
                    w,
                    h,
                    kind,
                    blk.num_planes,
                    false,
                    true,
                );
                assert_eq!(got, data, "{w}x{h} {kind:?}");
            }
        }
    }

    #[test]
    fn bypass_reduces_mq_symbols() {
        // Bypass converts deep-plane SPP/MRP decisions to raw bits, which
        // are cheaper; total MQ decisions must drop (raw bits counted as
        // symbols too, but the point is the segments stay decodable and
        // the stream only grows slightly).
        let data = pseudo(32 * 32, 321, 20_000);
        let mq = encode_block_opts(&data, 32, 32, BandKind::LlLh, false);
        let raw = encode_block_opts(&data, 32, 32, BandKind::LlLh, true);
        assert_eq!(mq.passes.len(), raw.passes.len());
        // The raw stream costs at most ~15% more bytes.
        assert!(
            (raw.data.len() as f64) < mq.data.len() as f64 * 1.15,
            "raw {} vs mq {}",
            raw.data.len(),
            mq.data.len()
        );
    }

    #[test]
    fn bypass_rule_matches_standard() {
        // First four coded planes always use the MQ coder; deeper SPP/MRP
        // go raw; cleanup never does.
        assert!(!pass_is_raw(true, PassType::SigProp, 8, 12));
        assert!(!pass_is_raw(true, PassType::SigProp, 9, 12));
        assert!(pass_is_raw(true, PassType::SigProp, 7, 12));
        assert!(pass_is_raw(true, PassType::MagRef, 0, 12));
        assert!(!pass_is_raw(true, PassType::Cleanup, 0, 12));
        assert!(!pass_is_raw(false, PassType::SigProp, 0, 12));
    }

    #[test]
    fn bypass_truncation_still_exact_prefix() {
        let data = pseudo(16 * 16, 99, 9_000);
        let blk = encode_block_opts(&data, 16, 16, BandKind::Hh, true);
        let keep = blk.passes.len() / 2;
        let bytes = blk.bytes_for_passes(keep);
        let got = decode_block_opts(
            &blk.data[..bytes],
            &blk.pass_ends[..keep],
            keep,
            16,
            16,
            BandKind::Hh,
            blk.num_planes,
            false,
            true,
        );
        for (g, t) in got.iter().zip(&data) {
            assert!(g.unsigned_abs() <= t.unsigned_abs());
        }
    }

    #[test]
    fn all_negative_block() {
        let data = vec![-5i32; 8 * 8];
        roundtrip(&data, 8, 8, BandKind::Hl);
    }

    #[test]
    fn alternating_signs() {
        let data: Vec<i32> = (0..64).map(|i| if i % 2 == 0 { 9 } else { -9 }).collect();
        roundtrip(&data, 8, 8, BandKind::LlLh);
    }
}
