//! Library calls and the codec's layers, each timed from here around a
//! call into the module's public functions: the program itself is not
//! instrumented.

use ebcot::block::{decode_block_opts, encode_block_opts, BandKind, EncodedBlock};
use ebcot::rate::{allocate, BlockSummary};
use imgio::Image;
use j2k_core::codestream::{self, Parsed, Quant};
use j2k_core::pipeline::band_kind;
use j2k_core::{EncoderParams, Mode};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use wavelet::norms;

/// Milliseconds since `t0`.
pub fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// How a caller drives the encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Encoder {
    /// `j2k_core::encode`.
    Sequential,
    /// `j2k_core::encode_parallel` with this many workers.
    Parallel(usize),
}

/// One encode call through `encoder`.
pub fn encode_with(im: &Image, p: &EncoderParams, encoder: Encoder) -> Result<Vec<u8>, String> {
    match encoder {
        Encoder::Sequential => j2k_core::encode(im, p).map_err(|e| format!("encode: {e}")),
        Encoder::Parallel(w) => {
            j2k_core::encode_parallel(im, p, w).map_err(|e| format!("encode_parallel({w}): {e}"))
        }
    }
}

/// One code block cut from the transform output.
struct Cut {
    band_idx: usize,
    w: usize,
    h: usize,
    kind: BandKind,
    data: Vec<i32>,
}

/// One block the decoder would decode: what the codestream carries.
struct DecJob {
    block: usize,
    data: Vec<u8>,
    pass_ends: Vec<usize>,
    passes: usize,
    planes: u8,
}

/// Inputs of the layer calls for one image, prepared outside the timers.
pub struct Prep {
    params: EncoderParams,
    coeffs: Vec<Vec<i32>>,
    blocks: Vec<Cut>,
    parsed: Parsed,
    dec: Vec<DecJob>,
    weights: Vec<f64>,
    budget: usize,
    reference: Vec<u8>,
}

/// Per-layer wall times of one image, in ms, plus Tier-1 work counts.
#[derive(Debug, Clone, Copy)]
pub struct LayerTimes {
    pub transform: f64,
    pub tier1: f64,
    pub rate: f64,
    pub tier1_dec: f64,
    pub samples: u64,
    pub symbols: u64,
}

impl Prep {
    pub fn new(im: &Image, params: &EncoderParams, reference: &[u8]) -> Result<Prep, String> {
        let coeffs = j2k_core::transform_coefficients(im, params).map_err(|e| e.to_string())?;
        let bands = wavelet::subbands(im.width, im.height, params.levels);
        let cb = params.cb_size;
        let mut blocks = Vec::new();
        let mut index = HashMap::new();
        for (c, plane) in coeffs.iter().enumerate() {
            for (bi, b) in bands.iter().enumerate() {
                for by in 0..b.h.div_ceil(cb) {
                    for bx in 0..b.w.div_ceil(cb) {
                        let (x0, y0) = (b.x0 + bx * cb, b.y0 + by * cb);
                        let w = cb.min(b.x0 + b.w - x0);
                        let h = cb.min(b.y0 + b.h - y0);
                        let mut data = Vec::with_capacity(w * h);
                        for y in y0..y0 + h {
                            data.extend_from_slice(&plane[y * im.width + x0..][..w]);
                        }
                        index.insert((c, bi, bx, by), blocks.len());
                        blocks.push(Cut {
                            band_idx: bi,
                            w,
                            h,
                            kind: band_kind(b.band),
                            data,
                        });
                    }
                }
            }
        }
        let parsed = codestream::parse(reference).map_err(|e| format!("parse: {e}"))?;
        let hdr = &parsed.header;
        let mut dec = Vec::with_capacity(parsed.blocks.len());
        for bs in &parsed.blocks {
            let block = *index
                .get(&(bs.comp, bs.band_idx, bs.bx, bs.by))
                .ok_or("codestream block outside the band grid")?;
            let pass_ends = bs
                .pass_lens
                .iter()
                .scan(0, |acc, l| {
                    *acc += l;
                    Some(*acc)
                })
                .collect();
            dec.push(DecJob {
                block,
                data: bs.data.clone(),
                pass_ends,
                passes: bs.layer_passes.last().copied().unwrap_or(0),
                planes: hdr.max_planes(bs.band_idx) - bs.zero_planes as u8,
            });
        }
        // Image-domain distortion weights, as the encoder derives them.
        let weights = bands
            .iter()
            .enumerate()
            .map(|(bi, b)| {
                let lev = b.level.max(1);
                match &hdr.quant {
                    Quant::Reversible(_) => norms::l2_norm_53(b.band, lev).powi(2),
                    Quant::Scalar(steps) => {
                        let r_bits = im.bit_depth as i32 + b.band.gain_log2() as i32;
                        (steps[bi].delta(r_bits) * norms::l2_norm_97(b.band, lev)).powi(2)
                    }
                }
            })
            .collect();
        let budget = match params.mode {
            Mode::Lossless => usize::MAX,
            Mode::Lossy { rate } => {
                ((rate * im.raw_bytes() as f64) as usize).saturating_sub(120 + blocks.len() * 2)
            }
        };
        Ok(Prep {
            params: *params,
            coeffs,
            blocks,
            parsed,
            dec,
            weights,
            budget,
            reference: reference.to_vec(),
        })
    }

    /// Time the transform, Tier-1, rate control + Tier-2, and Tier-1
    /// decode of `im` once each, checking every output.
    pub fn layers(&self, im: &Image) -> Result<LayerTimes, String> {
        let p = &self.params;
        let t0 = Instant::now();
        let coeffs = j2k_core::transform_coefficients(im, p).map_err(|e| e.to_string())?;
        let transform = ms(t0);
        if coeffs != self.coeffs {
            return Err("transform output changed between calls".into());
        }

        let t0 = Instant::now();
        let encs: Vec<EncodedBlock> = self
            .blocks
            .iter()
            .map(|b| encode_block_opts(&b.data, b.w, b.h, b.kind, p.bypass))
            .collect();
        let tier1 = ms(t0);

        let t0 = Instant::now();
        let summaries: Vec<BlockSummary> = encs
            .iter()
            .zip(&self.blocks)
            .map(|(e, b)| BlockSummary::from_block(e, self.weights[b.band_idx]))
            .collect();
        black_box(allocate(&summaries, self.budget));
        let bytes = codestream::write(&self.parsed.header, &self.parsed.blocks);
        let rate = ms(t0);
        if bytes != self.reference {
            return Err("Tier-2 rewrite of the parsed codestream differs from it".into());
        }

        let lossless = matches!(p.mode, Mode::Lossless);
        let t0 = Instant::now();
        let decoded: Vec<Vec<i32>> = self
            .dec
            .iter()
            .map(|d| {
                let b = &self.blocks[d.block];
                decode_block_opts(
                    &d.data,
                    &d.pass_ends,
                    d.passes,
                    b.w,
                    b.h,
                    b.kind,
                    d.planes,
                    !lossless,
                    p.bypass,
                )
            })
            .collect();
        let tier1_dec = ms(t0);

        for (d, out) in self.dec.iter().zip(&decoded) {
            // The timed Tier-1 must emit the codec's bits: the codestream
            // carries a prefix (all passes when lossless) of each block.
            if !encs[d.block].data.starts_with(&d.data) {
                return Err("timed Tier-1 output is not the codec's".into());
            }
            if lossless && *out != self.blocks[d.block].data {
                return Err("Tier-1 decode of a lossless block is not exact".into());
            }
        }
        Ok(LayerTimes {
            transform,
            tier1,
            rate,
            tier1_dec,
            samples: self.blocks.iter().map(|b| (b.w * b.h) as u64).sum(),
            symbols: encs.iter().map(EncodedBlock::total_symbols).sum(),
        })
    }
}
