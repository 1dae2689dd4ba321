//! The sequential reference pipeline: encode and decode.
//!
//! This is the ground truth that the host-parallel and Cell-simulated
//! drivers must match byte-for-byte. Stage order follows the paper's
//! Figure 2.

use crate::codestream::{self, BlockStream, MainHeader, Quant};
use crate::profile::{BlockWork, LevelWork, StageTime, WorkloadProfile};
use crate::quant::{band_delta, dequantize, StepSize, GUARD_BITS};
use crate::{mct, Arithmetic, CodecError, EncoderParams, Mode};
use ebcot::block::{BandKind, EncodedBlock};
use ebcot::rate::{search_threshold, BlockSummary, PreparedBlock, Threshold};
use imgio::Image;
use wavelet::{low_len, norms, Band, Subband};
use xpart::AlignedPlane;

/// Map subband orientation to Tier-1 context class.
pub fn band_kind(b: Band) -> BandKind {
    match b {
        Band::LL | Band::LH => BandKind::LlLh,
        Band::HL => BandKind::Hl,
        Band::HH => BandKind::Hh,
    }
}

/// Default base quantizer step for `depth`-bit imagery (image-domain
/// units); per-band steps divide by the basis norm (see [`band_delta`]),
/// so a unit index error costs `base/sqrt(12)` RMSE in every band. The
/// value trades quality ceiling (~41 dB for 8-bit) against the number of
/// magnitude bit planes Tier-1 has to code.
pub fn default_base_step(depth: u8) -> f64 {
    f64::powi(2.0, depth as i32 - 8) / 2.0
}

/// Per-level transform regions, finest first (mirrors the wavelet crate's
/// internal recursion).
pub fn level_dims(w: usize, h: usize, levels: usize) -> Vec<(usize, usize)> {
    let (mut cw, mut ch) = (w, h);
    let mut v = Vec::new();
    for _ in 0..levels {
        if cw < 2 && ch < 2 {
            break;
        }
        v.push((cw, ch));
        cw = low_len(cw);
        ch = low_len(ch);
    }
    v
}

/// One Tier-1-coded block with its placement, R-D weight, and the
/// rate-control preparation (weighted distortion curve + convex hull)
/// finalized the moment Tier-1 finished the block — on the worker that
/// coded it, not in a sequential post-pass.
pub(crate) struct BlockRecord {
    pub comp: usize,
    pub band_idx: usize,
    pub bx: usize,
    pub by: usize,
    pub enc: EncodedBlock,
    /// Per-block PCRD input (weighted distortions + hull), ready for the
    /// λ search.
    pub rd: PreparedBlock,
}

impl BlockRecord {
    /// Assemble a record, running the per-block R-D preparation (the
    /// parallelizable slice of rate control) inline. `weight` is the
    /// image-domain distortion weight, (delta * basis norm)^2.
    pub(crate) fn new(
        comp: usize,
        band_idx: usize,
        bx: usize,
        by: usize,
        enc: EncodedBlock,
        weight: f64,
    ) -> BlockRecord {
        let _sp = obs::trace::span("rate-prep").cat("chunk");
        let rd = PreparedBlock::new(BlockSummary::from_block(&enc, weight));
        BlockRecord {
            comp,
            band_idx,
            bx,
            by,
            enc,
            rd,
        }
    }
}

/// Everything shared between the sample stages and entropy stages.
pub(crate) struct Transformed {
    /// Coefficient planes as quantizer indices (one per component).
    pub indices: Vec<AlignedPlane<i32>>,
    /// Per-band quantization (indexes match `bands`).
    pub quant: Quant,
    /// Subband geometry.
    pub bands: Vec<Subband>,
    /// Per-band M_b (max magnitude bit planes).
    pub max_planes: Vec<u8>,
    /// Per-band distortion weight ((delta * norm)^2).
    pub weights: Vec<f64>,
}

/// Run level shift + MCT + DWT + quantization, producing quantizer-index
/// planes and the quantization signalling. Shared by every driver.
pub(crate) fn transform_samples(
    image: &Image,
    params: &EncoderParams,
) -> Result<Transformed, CodecError> {
    let (w, h) = (image.width, image.height);
    let comps = image.comps();
    let depth = image.bit_depth;
    let shift = 1i32 << (depth - 1);
    let use_mct = comps == 3;
    let bands = wavelet::subbands(w, h, params.levels);

    let mut int_planes: Vec<AlignedPlane<i32>> = image
        .planes
        .iter()
        .map(|p| {
            let dense: Vec<i32> = p.iter().map(|&v| v as i32).collect();
            AlignedPlane::from_dense(w, h, &dense).map_err(|e| CodecError::Image(e.to_string()))
        })
        .collect::<Result<_, _>>()?;

    match params.mode {
        Mode::Lossless => {
            if use_mct {
                mct::forward_rct_shift(&mut int_planes, shift);
            } else {
                for p in &mut int_planes {
                    mct::level_shift(p, shift);
                }
            }
            for p in &mut int_planes {
                wavelet::forward_2d_53(p, params.levels, params.variant);
            }
            let depth_eff = depth + u8::from(use_mct);
            let exps: Vec<u8> = bands
                .iter()
                .map(|b| depth_eff + b.band.gain_log2())
                .collect();
            let max_planes: Vec<u8> = exps.iter().map(|&e| GUARD_BITS + e - 1).collect();
            let weights: Vec<f64> = bands
                .iter()
                .map(|b| {
                    let n = norms::l2_norm_53(b.band, b.level.max(1));
                    n * n
                })
                .collect();
            Ok(Transformed {
                indices: int_planes,
                quant: Quant::Reversible(exps),
                bands,
                max_planes,
                weights,
            })
        }
        Mode::Lossy { .. } => {
            let base = default_base_step(depth);
            let mut fp: Vec<AlignedPlane<f32>> = if use_mct {
                mct::forward_ict_shift(&int_planes, shift as f32)
            } else {
                int_planes
                    .iter_mut()
                    .map(|p| {
                        mct::level_shift(p, shift);
                        p.to_f32()
                    })
                    .collect()
            };
            // Sample transform in the selected arithmetic.
            let coeff_value: Vec<AlignedPlane<f32>> = match params.arithmetic {
                Arithmetic::Float32 => {
                    for p in &mut fp {
                        wavelet::forward_2d_97(p, params.levels, params.variant);
                    }
                    fp
                }
                Arithmetic::FixedQ13 => {
                    let mut q13: Vec<AlignedPlane<i32>> = fp
                        .iter()
                        .map(|p| p.map(|v| (v * 8192.0).round() as i32))
                        .collect();
                    for p in &mut q13 {
                        wavelet::transform2d::forward_2d_97_fixed(p, params.levels, params.variant);
                    }
                    q13.iter().map(|p| p.map(|v| v as f32 / 8192.0)).collect()
                }
            };
            // Quantize per band.
            let q_samples = (w * h * comps) as u64;
            let qm = obs::counters::measure(
                obs::counters::Kernel::Quantize,
                q_samples,
                q_samples * std::mem::size_of::<i32>() as u64,
            );
            let mut steps = Vec::with_capacity(bands.len());
            let mut weights = Vec::with_capacity(bands.len());
            let mut indices: Vec<AlignedPlane<i32>> = (0..comps)
                .map(|_| AlignedPlane::new(w, h).expect("geometry"))
                .collect();
            for b in &bands {
                let lev = b.level.max(1);
                let delta = band_delta(base, b.band, lev);
                let r_bits = depth as i32 + b.band.gain_log2() as i32;
                let step = StepSize::from_delta(delta, r_bits);
                let delta_sig = step.delta(r_bits); // signalled value
                let nrm = norms::l2_norm_97(b.band, lev);
                steps.push(step);
                weights.push((delta_sig * nrm) * (delta_sig * nrm));
                for (c, plane) in coeff_value.iter().enumerate() {
                    for y in b.y0..b.y0 + b.h {
                        let src = &plane.row(y)[b.x0..b.x0 + b.w];
                        let dst = &mut indices[c].row_mut(y)[b.x0..b.x0 + b.w];
                        crate::kernels::quantize_row(src, dst, delta_sig);
                    }
                }
            }
            drop(qm);
            let max_planes: Vec<u8> = steps.iter().map(|s| GUARD_BITS + s.exponent - 1).collect();
            Ok(Transformed {
                indices,
                quant: Quant::Scalar(steps),
                bands,
                max_planes,
                weights,
            })
        }
    }
}

/// Extract the block grid of one band: `(bx, by, x0, y0, bw, bh)` tuples.
pub(crate) fn block_grid(
    b: &Subband,
    cb: usize,
) -> Vec<(usize, usize, usize, usize, usize, usize)> {
    let mut v = Vec::new();
    let gw = b.w.div_ceil(cb);
    let gh = b.h.div_ceil(cb);
    for by in 0..gh {
        for bx in 0..gw {
            let x0 = b.x0 + bx * cb;
            let y0 = b.y0 + by * cb;
            let bw = cb.min(b.x0 + b.w - x0);
            let bh = cb.min(b.y0 + b.h - y0);
            v.push((bx, by, x0, y0, bw, bh));
        }
    }
    v
}

/// Tier-1 encode every code block of every band/component (sequentially).
pub(crate) fn tier1_all(t: &Transformed, params: &EncoderParams) -> Vec<BlockRecord> {
    let mut out = Vec::new();
    for (c, plane) in t.indices.iter().enumerate() {
        for (bi, b) in t.bands.iter().enumerate() {
            for (bx, by, x0, y0, bw, bh) in block_grid(b, params.cb_size) {
                let mut data = Vec::with_capacity(bw * bh);
                for y in y0..y0 + bh {
                    for x in x0..x0 + bw {
                        data.push(plane.get(x, y));
                    }
                }
                let enc = params.coder.block_coder().encode(
                    &data,
                    bw,
                    bh,
                    band_kind(b.band),
                    params.bypass,
                );
                assert!(
                    enc.num_planes <= t.max_planes[bi],
                    "band {bi}: {} planes exceed M_b {}",
                    enc.num_planes,
                    t.max_planes[bi]
                );
                out.push(BlockRecord::new(c, bi, bx, by, enc, t.weights[bi]));
            }
        }
    }
    out
}

/// What one quality layer keeps: either everything (lossless final
/// layer) or the truncations induced by a searched slope threshold.
enum LayerPlan {
    All,
    Th(Threshold),
}

/// Rate allocation: per-block cumulative kept passes per layer, plus the
/// PCRD work count. The global λ search per layer stays sequential (it
/// needs every block's hull), but the per-block truncation application —
/// the bulk of the loop when blocks are many — fans out over `workers`
/// threads in disjoint block ranges, so the result is identical for every
/// worker count. Errors only when the `rate.block` failpoint injects one.
pub(crate) fn allocate_layers(
    records: &[BlockRecord],
    params: &EncoderParams,
    raw_bytes: u64,
    extra_reserve: usize,
    workers: usize,
) -> Result<(Vec<Vec<usize>>, u64), CodecError> {
    let prepared: Vec<&PreparedBlock> = records.iter().map(|r| &r.rd).collect();
    let mut rc_items = 0u64;

    // Sequential part: one threshold search per layer.
    let search_span = obs::trace::span("rate-search").cat("stage");
    let plans: Vec<LayerPlan> = match params.mode {
        Mode::Lossless => (0..params.layers)
            .map(|l| {
                if l + 1 == params.layers {
                    // All passes, all in the final layer.
                    LayerPlan::All
                } else {
                    // Earlier layers split the total bytes evenly.
                    let frac = (l + 1) as f64 / params.layers as f64;
                    let budget: usize =
                        (records.iter().map(|r| r.enc.data.len() as f64).sum::<f64>() * frac)
                            as usize;
                    let th = search_threshold(&prepared, budget);
                    rc_items += th.passes_examined;
                    LayerPlan::Th(th)
                }
            })
            .collect(),
        Mode::Lossy { rate } => {
            // Reserve a sliver for markers and packet headers.
            let header_estimate = 120 + records.len() * 2 + extra_reserve;
            let budget_total = ((rate * raw_bytes as f64) as usize).saturating_sub(header_estimate);
            (0..params.layers)
                .map(|l| {
                    let frac = (l + 1) as f64 / params.layers as f64;
                    let th = search_threshold(&prepared, (budget_total as f64 * frac) as usize);
                    rc_items += th.passes_examined;
                    LayerPlan::Th(th)
                })
                .collect()
        }
    };
    drop(search_span);

    // Parallel part: apply every layer's plan to each block, including the
    // cross-layer monotonicity fix-up (block-local, so it rides along).
    let apply_block = |r: &BlockRecord| -> Option<Vec<usize>> {
        // Failpoint `rate.block`: fires once per block per allocation.
        if faultsim::eval("rate.block").is_some() {
            return None;
        }
        let mut k: Vec<usize> = plans
            .iter()
            .map(|p| match p {
                LayerPlan::All => r.enc.passes.len(),
                LayerPlan::Th(th) => th.apply(&r.rd),
            })
            .collect();
        for l in 1..k.len() {
            if k[l] < k[l - 1] {
                k[l] = k[l - 1];
            }
        }
        Some(k)
    };

    let kept = fan_out_map(records, workers, "rate-apply", apply_block)
        .ok_or_else(|| CodecError::Injected("rate.block".into()))?;
    Ok((kept, rc_items))
}

/// Map `f` over `items` with `workers` threads on disjoint contiguous
/// ranges, preserving order. `f` returning `None` (an injected fault)
/// makes the whole map `None`. Runs inline without spawning when one
/// worker (or one item) suffices, so the sequential driver never pays for
/// threads it didn't ask for.
pub(crate) fn fan_out_map<T, U, F>(
    items: &[T],
    workers: usize,
    stage: &'static str,
    f: F,
) -> Option<Vec<U>>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> Option<U> + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let n_chunks = items.len().div_ceil(chunk);
    let parent_trace = obs::trace::current();
    let mut out: Vec<Option<Vec<U>>> = Vec::new();
    out.resize_with(n_chunks, || None);
    std::thread::scope(|scope| {
        for (wi, (slice, slot)) in items.chunks(chunk).zip(out.iter_mut()).enumerate() {
            let f = &f;
            scope.spawn(move || {
                obs::trace::set_current(parent_trace);
                {
                    let _sp = obs::trace::span(stage)
                        .cat("chunk")
                        .arg("worker", wi as u64)
                        .arg("items", slice.len() as u64);
                    *slot = slice.iter().map(f).collect();
                }
                // Scoped threads join closures, not TLS destructors.
                obs::trace::flush_thread();
            });
        }
    });
    let mut all = Vec::with_capacity(items.len());
    for part in out {
        all.extend(part?);
    }
    Some(all)
}

/// Assemble the final codestream from coded blocks + allocations. Tier-2
/// packet formation fans out per (component, subband) precinct chain over
/// `workers` threads inside [`codestream::write_workers`]; the only error
/// is an injected `tier2.precinct` fault.
pub(crate) fn assemble(
    image: &Image,
    params: &EncoderParams,
    t: &Transformed,
    records: &[BlockRecord],
    kept: &[Vec<usize>],
    workers: usize,
) -> Result<Vec<u8>, CodecError> {
    let header = MainHeader {
        width: image.width,
        height: image.height,
        comps: image.comps(),
        depth: image.bit_depth,
        levels: params.levels,
        layers: params.layers,
        cb_size: params.cb_size,
        lossless: matches!(params.mode, Mode::Lossless),
        mct: image.comps() == 3,
        arithmetic: params.arithmetic,
        bypass: params.bypass,
        coder: params.coder,
        guard: GUARD_BITS,
        quant: t.quant.clone(),
    };
    let mut streams = Vec::new();
    for (r, k) in records.iter().zip(kept) {
        let last = *k.last().unwrap_or(&0);
        if last == 0 {
            continue;
        }
        let lens: Vec<usize> = (0..last)
            .map(|i| r.enc.pass_ends[i] - if i == 0 { 0 } else { r.enc.pass_ends[i - 1] })
            .collect();
        streams.push(BlockStream {
            comp: r.comp,
            band_idx: r.band_idx,
            bx: r.bx,
            by: r.by,
            zero_planes: (t.max_planes[r.band_idx] - r.enc.num_planes) as u32,
            layer_passes: k.clone(),
            pass_lens: lens,
            data: r.enc.data[..r.enc.bytes_for_passes(last)].to_vec(),
        });
    }
    codestream::write_workers(&header, &streams, workers).map_err(CodecError::Injected)
}

/// Encode `image` with `params`, returning the codestream.
pub fn encode(image: &Image, params: &EncoderParams) -> Result<Vec<u8>, CodecError> {
    encode_with_profile(image, params).map(|(bytes, _)| bytes)
}

/// Dense quantizer-index planes produced by the sample stages (level
/// shift, MCT, DWT, quantization), one per component, in the sequential
/// reference arithmetic. Diagnostic API for the differential tests: the
/// chunked host-parallel transform must reproduce these coefficient for
/// coefficient (see `parallel::transform_coefficients_parallel`).
pub fn transform_coefficients(
    image: &Image,
    params: &EncoderParams,
) -> Result<Vec<Vec<i32>>, CodecError> {
    params.validate()?;
    image
        .validate()
        .map_err(|e| CodecError::Image(e.to_string()))?;
    let t = transform_samples(image, params)?;
    Ok(t.indices.iter().map(|p| p.to_dense()).collect())
}

/// Encode and also return the measured [`WorkloadProfile`] that drives the
/// machine models.
pub fn encode_with_profile(
    image: &Image,
    params: &EncoderParams,
) -> Result<(Vec<u8>, WorkloadProfile), CodecError> {
    params.validate()?;
    image
        .validate()
        .map_err(|e| CodecError::Image(e.to_string()))?;
    let tr_span = obs::trace::span("stage:transform").cat("stage");
    let t0 = std::time::Instant::now();
    let t = transform_samples(image, params)?;
    let transform_secs = t0.elapsed().as_secs_f64();
    drop(tr_span);
    let t1_span = obs::trace::span("stage:tier1")
        .cat("stage")
        .arg("coder", params.coder.id());
    let t1 = std::time::Instant::now();
    let records = tier1_all(&t, params);
    let tier1_secs = t1.elapsed().as_secs_f64();
    drop(t1_span);
    let rc_span = obs::trace::span("stage:rate-control").cat("stage");
    let raw = image.raw_bytes() as u64;
    let out = rate_control_and_assemble(image, params, &t, &records, raw, 1)?;
    drop(rc_span);
    let stage_times = vec![
        StageTime::new("transform", transform_secs),
        StageTime::new("tier1", tier1_secs),
        StageTime::new("rate-control", out.alloc_secs),
        StageTime::new("tier2", out.tier2_secs),
    ];
    let profile = build_profile(image, params, &records, &out, stage_times, Vec::new());
    Ok((out.bytes, profile))
}

/// Everything the rate-control/Tier-2 tail produced, including the
/// budget-shrink retry history the conformance tests pin down.
pub(crate) struct RateOutcome {
    /// The finished codestream.
    pub bytes: Vec<u8>,
    /// Coding passes examined by every PCRD search (profile work items).
    pub rc_items: u64,
    /// Budget-shrink retries taken (0 = first assembly fit).
    pub retries: u64,
    /// Whether the final stream is within the lossy byte budget
    /// (trivially true for lossless).
    pub converged: bool,
    /// `reserve` after each retry — must grow strictly monotonically.
    /// Only the in-module retry-loop tests read it; the non-test lib
    /// target carries it as diagnostic state.
    #[cfg_attr(not(test), allow(dead_code))]
    pub reserves: Vec<usize>,
    /// Cumulative wall seconds in allocation (search + apply), across
    /// retries.
    pub alloc_secs: f64,
    /// Cumulative wall seconds in Tier-2 packet assembly, across retries.
    pub tier2_secs: f64,
}

/// PCRD rate allocation plus codestream assembly, including the lossy
/// budget-shrink retry loop. Shared by the sequential and parallel drivers
/// so they stay byte-identical by construction; `workers` fans out the
/// per-block truncation application and the per-precinct Tier-2 assembly
/// without changing a byte (disjoint partitions + ordered merge).
pub(crate) fn rate_control_and_assemble(
    image: &Image,
    params: &EncoderParams,
    t: &Transformed,
    records: &[BlockRecord],
    raw: u64,
    workers: usize,
) -> Result<RateOutcome, CodecError> {
    let mut alloc_secs = 0.0;
    let mut tier2_secs = 0.0;
    let ta = std::time::Instant::now();
    let (mut kept, mut rc_items) = allocate_layers(records, params, raw, 0, workers)?;
    alloc_secs += ta.elapsed().as_secs_f64();
    let t2_span = obs::trace::span("tier2").cat("stage");
    let tt = std::time::Instant::now();
    let mut bytes = assemble(image, params, t, records, &kept, workers)?;
    tier2_secs += tt.elapsed().as_secs_f64();
    drop(t2_span);
    let mut retries = 0u64;
    let mut reserves = Vec::new();
    let mut converged = true;
    if let Mode::Lossy { rate } = params.mode {
        // The packet-header overhead is only known after assembly; shrink
        // the payload budget and retry until the target is met.
        let limit = (rate * raw as f64) as usize;
        let mut reserve = 0usize;
        let mut tries = 0;
        while bytes.len() > limit && tries < 8 {
            reserve += (bytes.len() - limit) + 32;
            reserves.push(reserve);
            let ta = std::time::Instant::now();
            let (k, rc) = allocate_layers(records, params, raw, reserve, workers)?;
            alloc_secs += ta.elapsed().as_secs_f64();
            kept = k;
            rc_items += rc;
            let t2_span = obs::trace::span("tier2").cat("stage");
            let tt = std::time::Instant::now();
            bytes = assemble(image, params, t, records, &kept, workers)?;
            tier2_secs += tt.elapsed().as_secs_f64();
            drop(t2_span);
            tries += 1;
        }
        retries = tries;
        converged = bytes.len() <= limit;
    }
    Ok(RateOutcome {
        bytes,
        rc_items,
        retries,
        converged,
        reserves,
        alloc_secs,
        tier2_secs,
    })
}

/// Build the measured [`WorkloadProfile`] from the Tier-1 records and the
/// driver's stage measurements.
pub(crate) fn build_profile(
    image: &Image,
    params: &EncoderParams,
    records: &[BlockRecord],
    out: &RateOutcome,
    stage_times: Vec<StageTime>,
    worker_jobs: Vec<u64>,
) -> WorkloadProfile {
    WorkloadProfile {
        params: *params,
        width: image.width,
        height: image.height,
        comps: image.comps(),
        samples: (image.width * image.height * image.comps()) as u64,
        raw_bytes: image.raw_bytes() as u64,
        levels: level_dims(image.width, image.height, params.levels)
            .into_iter()
            .map(|(w, h)| LevelWork {
                w: w as u64,
                h: h as u64,
            })
            .collect(),
        blocks: records
            .iter()
            .map(|r| {
                let symbols = match params.coder {
                    // Effective MQ Tier-1 work: raw (bypass) bits avoid
                    // the MQ coder's renormalization/byte-out machinery
                    // and cost roughly a quarter of an MQ decision.
                    crate::coder::Coder::Mq => {
                        let (mut mq, mut raw) = (0u64, 0u64);
                        for pi in &r.enc.passes {
                            if ebcot::block::pass_is_raw(
                                params.bypass,
                                pi.pass_type,
                                pi.plane,
                                r.enc.num_planes,
                            ) {
                                raw += pi.symbols;
                            } else {
                                mq += pi.symbols;
                            }
                        }
                        mq + raw / 4
                    }
                    // HT symbols are already work items (quads + MagSgn
                    // emissions + raw-pass sample visits), all of
                    // comparable branch-light cost; the per-item rate
                    // difference lives in the cost model's kernel entry.
                    crate::coder::Coder::Ht => r.enc.total_symbols(),
                };
                BlockWork {
                    samples: (r.enc.w * r.enc.h) as u64,
                    symbols,
                    passes: r.enc.passes.len() as u64,
                    bytes: r.enc.data.len() as u64,
                }
            })
            .collect(),
        rate_control_items: out.rc_items,
        rate_retries: out.retries,
        rate_converged: out.converged,
        output_bytes: out.bytes.len() as u64,
        stage_times,
        worker_jobs,
    }
}

/// Decode a codestream produced by any of this crate's encoders.
pub fn decode(data: &[u8]) -> Result<Image, CodecError> {
    decode_layers(data, usize::MAX)
}

/// Decode only the first `max_layers` quality layers (progressive
/// decoding): the defining JPEG2000 feature that a truncated or partially
/// fetched stream still yields a complete, lower-quality image.
pub fn decode_layers(data: &[u8], max_layers: usize) -> Result<Image, CodecError> {
    decode_inner(data, max_layers, 0)
}

/// Decode at reduced resolution, discarding the `discard_levels` finest
/// resolution levels: the output is the image downscaled by
/// `2^discard_levels` (resolution-progressive decoding).
pub fn decode_resolution(data: &[u8], discard_levels: usize) -> Result<Image, CodecError> {
    decode_inner(data, usize::MAX, discard_levels)
}

/// Decode with both progressive controls at once: keep only the first
/// `max_layers` quality layers (`usize::MAX` = all) *and* discard the
/// `discard_levels` finest resolution levels. The plumbing entry point
/// for the CLI and the serve-level `Decode` request.
pub fn decode_opts(
    data: &[u8],
    max_layers: usize,
    discard_levels: usize,
) -> Result<Image, CodecError> {
    decode_inner(data, max_layers, discard_levels)
}

/// Best-effort decode of a (possibly truncated) codestream prefix.
///
/// The main header must be intact — header damage is unrecoverable and
/// returns the usual typed [`CodecError`]. The packet walk, however, is
/// lenient: parsing stops at the first truncated or undecodable packet,
/// whole quality layers parsed before that point are kept, and the image
/// is reconstructed from them. Returns the image plus the number of
/// complete layers recovered (`0..=layers`); zero recovered layers still
/// yields a valid (flat) image of the right geometry, so the caller can
/// always measure it.
pub fn decode_prefix(data: &[u8]) -> Result<(Image, usize), CodecError> {
    let (parsed, complete_layers) = codestream::parse_prefix(data)?;
    let img = decode_parsed(parsed, usize::MAX, 0, true)?;
    Ok((img, complete_layers))
}

fn decode_inner(
    data: &[u8],
    max_layers: usize,
    discard_levels: usize,
) -> Result<Image, CodecError> {
    decode_parsed(codestream::parse(data)?, max_layers, discard_levels, false)
}

fn decode_parsed(
    parsed: codestream::Parsed,
    max_layers: usize,
    discard_levels: usize,
    lenient: bool,
) -> Result<Image, CodecError> {
    let hdr = &parsed.header;
    let (w, h) = (hdr.width, hdr.height);
    let bands = hdr.bands();
    let cb = hdr.cb_size;

    // Reconstruct quantizer-index planes.
    let mut indices: Vec<AlignedPlane<i32>> = (0..hdr.comps)
        .map(|_| AlignedPlane::new(w, h).map_err(|e| CodecError::Codestream(e.to_string())))
        .collect::<Result<_, _>>()?;
    for blk in &parsed.blocks {
        let b = bands
            .get(blk.band_idx)
            .ok_or_else(|| CodecError::Codestream("band index out of range".into()))?;
        let x0 = b.x0 + blk.bx * cb;
        let y0 = b.y0 + blk.by * cb;
        if x0 >= b.x0 + b.w || y0 >= b.y0 + b.h || blk.comp >= hdr.comps {
            return Err(CodecError::Codestream("block outside band".into()));
        }
        let bw = cb.min(b.x0 + b.w - x0);
        let bh = cb.min(b.y0 + b.h - y0);
        let mp = hdr.max_planes(blk.band_idx) as u32;
        if blk.zero_planes > mp {
            return Err(CodecError::Codestream("zero planes exceed M_b".into()));
        }
        let num_planes = (mp - blk.zero_planes) as u8;
        if num_planes > 31 {
            return Err(CodecError::Codestream(format!(
                "implausible bit-plane count {num_planes}"
            )));
        }
        let layer_idx = max_layers.min(blk.layer_passes.len());
        let mut pass_ends = Vec::with_capacity(blk.pass_lens.len());
        let mut acc = 0usize;
        for &l in &blk.pass_lens {
            acc += l;
            pass_ends.push(acc);
        }
        // On an injected block-decode fault in lenient mode
        // (`decode_prefix`), fall back one whole quality layer at a time
        // — the same commit-only-whole-layers contract the packet walk
        // honors for `decode.packet`. Strict decode surfaces the error.
        let mut li = layer_idx;
        let vals = loop {
            let num_passes = if li == 0 { 0 } else { blk.layer_passes[li - 1] };
            match hdr.coder.block_coder().decode(
                &blk.data,
                &pass_ends,
                num_passes,
                bw,
                bh,
                band_kind(b.band),
                num_planes,
                !hdr.lossless,
                hdr.bypass,
            ) {
                Ok(v) => break v,
                Err(CodecError::Injected(_)) if lenient && li > 0 => li -= 1,
                Err(e) => return Err(e),
            }
        };
        for y in 0..bh {
            for x in 0..bw {
                indices[blk.comp].set(x0 + x, y0 + y, vals[y * bw + x]);
            }
        }
    }

    let depth = hdr.depth;
    let shift = 1i32 << (depth - 1);
    let maxv = ((1u32 << depth) - 1) as i32;
    // Output dimensions after discarding the finest resolution levels.
    let discard = discard_levels.min(hdr.levels);
    let (ow, oh) = {
        let (mut cw, mut ch) = (w, h);
        for _ in 0..discard {
            cw = low_len(cw);
            ch = low_len(ch);
        }
        (cw, ch)
    };
    let mut out =
        Image::new(ow, oh, hdr.comps, depth).map_err(|e| CodecError::Codestream(e.to_string()))?;

    if hdr.lossless {
        let mut planes = indices;
        for p in &mut planes {
            wavelet::transform2d::inverse_2d_53_partial(p, hdr.levels, discard);
        }
        let mut planes: Vec<AlignedPlane<i32>> = planes.iter().map(|p| crop(p, ow, oh)).collect();
        if hdr.mct && hdr.comps == 3 {
            mct::inverse_rct_shift(&mut planes, shift);
        } else {
            for p in &mut planes {
                mct::level_unshift(p, shift);
            }
        }
        for (c, p) in planes.iter().enumerate() {
            for y in 0..oh {
                for x in 0..ow {
                    out.planes[c][y * ow + x] = p.get(x, y).clamp(0, maxv) as u16;
                }
            }
        }
        return Ok(out);
    }

    // Lossy: dequantize then inverse 9/7.
    let steps = match &hdr.quant {
        Quant::Scalar(s) => s.clone(),
        Quant::Reversible(_) => {
            return Err(CodecError::Codestream(
                "lossy stream with reversible quant".into(),
            ))
        }
    };
    let mut planes: Vec<AlignedPlane<f32>> = (0..hdr.comps)
        .map(|_| AlignedPlane::new(w, h).map_err(|e| CodecError::Codestream(e.to_string())))
        .collect::<Result<_, _>>()?;
    for (bi, b) in bands.iter().enumerate() {
        let step = steps
            .get(bi)
            .ok_or_else(|| CodecError::Codestream("missing band step".into()))?;
        let r_bits = depth as i32 + b.band.gain_log2() as i32;
        let delta = step.delta(r_bits);
        for c in 0..hdr.comps {
            for y in b.y0..b.y0 + b.h {
                for x in b.x0..b.x0 + b.w {
                    planes[c].set(x, y, dequantize(indices[c].get(x, y), delta));
                }
            }
        }
    }
    match hdr.arithmetic {
        Arithmetic::Float32 => {
            for p in &mut planes {
                wavelet::transform2d::inverse_2d_97_partial(p, hdr.levels, discard);
            }
        }
        Arithmetic::FixedQ13 => {
            // The fixed inverse has no partial variant; reduced-resolution
            // decode of a fixed-point stream falls back to full inversion
            // followed by DWT-domain cropping via the f32 path.
            let mut q13: Vec<AlignedPlane<i32>> = planes
                .iter()
                .map(|p| p.map(|v| (v * 8192.0).round() as i32))
                .collect();
            for p in &mut q13 {
                wavelet::transform2d::inverse_2d_97_fixed(p, hdr.levels);
            }
            planes = q13.iter().map(|p| p.map(|v| v as f32 / 8192.0)).collect();
            if discard > 0 {
                for p in &mut planes {
                    wavelet::forward_2d_97(p, discard, wavelet::VerticalVariant::Merged);
                }
            }
        }
    }
    let planes: Vec<AlignedPlane<f32>> = planes.iter().map(|p| crop(p, ow, oh)).collect();
    let int_planes: Vec<AlignedPlane<i32>> = if hdr.mct && hdr.comps == 3 {
        mct::inverse_ict_shift(&planes, shift as f32)
    } else {
        planes
            .iter()
            .map(|p| {
                let mut q = p.to_i32_rounded();
                mct::level_unshift(&mut q, shift);
                q
            })
            .collect()
    };
    for (c, p) in int_planes.iter().enumerate() {
        for y in 0..oh {
            for x in 0..ow {
                out.planes[c][y * ow + x] = p.get(x, y).clamp(0, maxv) as u16;
            }
        }
    }
    Ok(out)
}

/// Copy the top-left `cw x ch` region of a plane (no-op-sized copy when
/// the geometry already matches).
fn crop<T: Copy + Default>(p: &AlignedPlane<T>, cw: usize, ch: usize) -> AlignedPlane<T> {
    if cw == p.width() && ch == p.height() {
        return p.clone();
    }
    let mut out = AlignedPlane::<T>::new(cw, ch).expect("crop geometry");
    for y in 0..ch {
        out.row_mut(y).copy_from_slice(&p.row(y)[..cw]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use imgio::synth;

    #[test]
    fn lossless_roundtrip_gray() {
        let im = synth::natural(96, 64, 7);
        let bytes = encode(&im, &EncoderParams::lossless()).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, im);
    }

    #[test]
    fn lossless_roundtrip_rgb() {
        let im = synth::natural_rgb(64, 48, 3);
        let params = EncoderParams {
            levels: 3,
            cb_size: 32,
            ..EncoderParams::lossless()
        };
        let bytes = encode(&im, &params).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, im);
    }

    #[test]
    fn lossless_compresses_natural_images() {
        let im = synth::natural(128, 128, 9);
        let bytes = encode(&im, &EncoderParams::lossless()).unwrap();
        assert!(
            bytes.len() < im.raw_bytes() * 8 / 10,
            "{} vs raw {}",
            bytes.len(),
            im.raw_bytes()
        );
    }

    #[test]
    fn lossy_rate_is_respected_and_quality_reasonable() {
        let im = synth::natural(128, 128, 11);
        for rate in [0.5, 0.25, 0.1] {
            let bytes = encode(&im, &EncoderParams::lossy(rate)).unwrap();
            let limit = (im.raw_bytes() as f64 * rate) as usize;
            assert!(
                bytes.len() <= limit + 64,
                "rate {rate}: {} > {limit}",
                bytes.len()
            );
            let back = decode(&bytes).unwrap();
            let p = imgio::psnr(&im, &back).unwrap();
            assert!(p > 24.0, "rate {rate}: psnr {p}");
        }
    }

    #[test]
    fn lossy_quality_monotone_in_rate() {
        let im = synth::natural(96, 96, 5);
        let mut prev = 0.0;
        for rate in [0.05, 0.15, 0.5] {
            let bytes = encode(&im, &EncoderParams::lossy(rate)).unwrap();
            let back = decode(&bytes).unwrap();
            let p = imgio::psnr(&im, &back).unwrap();
            assert!(p >= prev - 0.2, "rate {rate}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn fixed_point_path_works() {
        let im = synth::natural(64, 64, 2);
        let params = EncoderParams {
            arithmetic: Arithmetic::FixedQ13,
            ..EncoderParams::lossy(0.3)
        };
        let bytes = encode(&im, &params).unwrap();
        let back = decode(&bytes).unwrap();
        let p = imgio::psnr(&im, &back).unwrap();
        assert!(p > 25.0, "fixed-point psnr {p}");
    }

    #[test]
    fn fixed_and_float_agree_closely() {
        let im = synth::natural(64, 64, 4);
        let pf = EncoderParams::lossy(0.4);
        let pq = EncoderParams {
            arithmetic: Arithmetic::FixedQ13,
            ..pf
        };
        let f = decode(&encode(&im, &pf).unwrap()).unwrap();
        let q = decode(&encode(&im, &pq).unwrap()).unwrap();
        let p = imgio::psnr(&f, &q).unwrap();
        assert!(p > 35.0, "float-vs-fixed psnr {p}");
    }

    #[test]
    fn progressive_layer_decode_improves_quality() {
        let im = synth::natural(96, 96, 44);
        let params = EncoderParams {
            layers: 4,
            ..EncoderParams::lossy(0.4)
        };
        let bytes = encode(&im, &params).unwrap();
        let mut prev = 0.0f64;
        for l in 1..=4 {
            let partial = decode_layers(&bytes, l).unwrap();
            let p = imgio::psnr(&im, &partial).unwrap();
            assert!(p >= prev - 0.01, "layer {l}: {p} < {prev}");
            prev = p;
        }
        // Full decode equals decode of all layers.
        assert_eq!(decode(&bytes).unwrap(), decode_layers(&bytes, 4).unwrap());
        assert!(prev > 25.0, "final quality {prev}");
    }

    #[test]
    fn prefix_decode_of_full_stream_is_exact() {
        let im = synth::natural(64, 48, 21);
        let params = EncoderParams {
            layers: 3,
            ..EncoderParams::lossy(0.4)
        };
        let bytes = encode(&im, &params).unwrap();
        let (prefix, layers) = decode_prefix(&bytes).unwrap();
        assert_eq!(layers, 3);
        assert_eq!(prefix, decode(&bytes).unwrap());
    }

    #[test]
    fn prefix_decode_of_truncated_stream_degrades_monotonically() {
        let im = synth::natural(80, 64, 33);
        let params = EncoderParams {
            layers: 4,
            ..EncoderParams::lossy(0.5)
        };
        let bytes = encode(&im, &params).unwrap();
        // Walk prefixes from nothing to everything: every successful
        // decode is geometrically valid, layer recovery is monotone, and
        // quality at each recovered layer count matches decode_layers.
        let mut last_layers = 0usize;
        let mut any_partial = false;
        for cut in (0..=bytes.len()).step_by(97) {
            match decode_prefix(&bytes[..cut]) {
                Err(_) => assert_eq!(last_layers, 0, "typed errors only before packets"),
                Ok((img, layers)) => {
                    assert_eq!((img.width, img.height, img.comps()), (80, 64, 1));
                    assert!(layers >= last_layers, "cut {cut}: layer count regressed");
                    if layers > 0 && layers < 4 {
                        any_partial = true;
                        assert_eq!(img, decode_layers(&bytes, layers).unwrap());
                    }
                    last_layers = layers;
                }
            }
        }
        let (full, layers) = decode_prefix(&bytes).unwrap();
        assert_eq!(layers, 4);
        assert_eq!(full, decode(&bytes).unwrap());
        assert!(any_partial, "truncation walk never hit a partial stream");
    }

    #[test]
    fn resolution_progressive_decode() {
        let im = synth::natural(64, 48, 12);
        let bytes = encode(
            &im,
            &EncoderParams {
                levels: 3,
                ..Default::default()
            },
        )
        .unwrap();
        // Full resolution = normal decode.
        assert_eq!(decode_resolution(&bytes, 0).unwrap(), im);
        // Each discarded level halves the dimensions (ceil).
        let half = decode_resolution(&bytes, 1).unwrap();
        assert_eq!((half.width, half.height), (32, 24));
        let eighth = decode_resolution(&bytes, 3).unwrap();
        assert_eq!((eighth.width, eighth.height), (8, 6));
        // Discarding more than `levels` clamps to the deepest LL.
        let floor = decode_resolution(&bytes, 99).unwrap();
        assert_eq!((floor.width, floor.height), (8, 6));
        // The reduced image is a low-pass version: its mean tracks the
        // original's mean closely.
        let mean = |im: &Image| {
            im.planes[0].iter().map(|&v| v as f64).sum::<f64>() / im.planes[0].len() as f64
        };
        assert!((mean(&half) - mean(&im)).abs() < 8.0);
    }

    #[test]
    fn resolution_progressive_decode_lossy_rgb() {
        let im = synth::natural_rgb(64, 64, 9);
        let bytes = encode(
            &im,
            &EncoderParams {
                levels: 3,
                ..EncoderParams::lossy(0.5)
            },
        )
        .unwrap();
        let half = decode_resolution(&bytes, 1).unwrap();
        assert_eq!((half.width, half.height, half.comps()), (32, 32, 3));
        // Downscale the original by simple 2x2 averaging and compare: the
        // DWT LL is a (better) low-pass of the same content.
        let mut ds = Image::new(32, 32, 3, 8).unwrap();
        for c in 0..3 {
            for y in 0..32 {
                for x in 0..32 {
                    let s: u32 = [(0, 0), (1, 0), (0, 1), (1, 1)]
                        .iter()
                        .map(|&(dx, dy)| im.get(c, 2 * x + dx, 2 * y + dy) as u32)
                        .sum();
                    ds.set(c, x, y, (s / 4) as u16);
                }
            }
        }
        let p = imgio::psnr(&ds, &half).unwrap();
        assert!(p > 20.0, "half-res vs box-downscale PSNR {p}");
    }

    #[test]
    fn zero_layers_decodes_to_flat_image() {
        let im = synth::natural(32, 32, 1);
        let bytes = encode(&im, &EncoderParams::lossless()).unwrap();
        let flat = decode_layers(&bytes, 0).unwrap();
        assert_eq!(flat.width, 32);
        // All coefficients dropped: the reconstruction is the level-shift
        // midpoint everywhere.
        assert!(flat.planes[0].iter().all(|&v| v == flat.planes[0][0]));
    }

    #[test]
    fn bypass_mode_roundtrips_and_is_signalled() {
        let im = synth::natural(96, 96, 61);
        let params = EncoderParams {
            bypass: true,
            ..EncoderParams::lossless()
        };
        let bytes = encode(&im, &params).unwrap();
        assert_eq!(decode(&bytes).unwrap(), im);
        let parsed = codestream::parse(&bytes).unwrap();
        assert!(parsed.header.bypass);
        // Lossy bypass too.
        let params = EncoderParams {
            bypass: true,
            ..EncoderParams::lossy(0.2)
        };
        let bytes = encode(&im, &params).unwrap();
        let back = decode(&bytes).unwrap();
        assert!(imgio::psnr(&im, &back).unwrap() > 25.0);
    }

    #[test]
    fn multi_layer_lossless_roundtrip() {
        let im = synth::natural(48, 48, 6);
        let params = EncoderParams {
            layers: 3,
            levels: 3,
            ..EncoderParams::lossless()
        };
        let bytes = encode(&im, &params).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, im);
    }

    #[test]
    fn all_variants_and_sizes_agree() {
        use wavelet::VerticalVariant;
        let im = synth::natural(33, 41, 8);
        let base = EncoderParams {
            levels: 2,
            ..EncoderParams::lossless()
        };
        let reference = encode(&im, &base).unwrap();
        for variant in [
            VerticalVariant::Separate,
            VerticalVariant::Interleaved,
            VerticalVariant::Merged,
        ] {
            let p = EncoderParams { variant, ..base };
            assert_eq!(encode(&im, &p).unwrap(), reference, "{variant:?}");
        }
    }

    #[test]
    fn profile_measures_real_work() {
        let im = synth::natural(64, 64, 1);
        let (bytes, prof) = encode_with_profile(&im, &EncoderParams::lossless()).unwrap();
        assert_eq!(prof.output_bytes as usize, bytes.len());
        assert!(
            prof.tier1_symbols() > prof.samples,
            "EBCOT codes >1 decision/sample"
        );
        assert_eq!(prof.samples, 64 * 64);
        assert_eq!(prof.rate_control_items, 0);
        assert!(!prof.blocks.is_empty());
        let (_, lossy_prof) = encode_with_profile(&im, &EncoderParams::lossy(0.2)).unwrap();
        assert!(lossy_prof.rate_control_items > 0);
    }

    #[test]
    fn extreme_images_roundtrip_lossless() {
        for im in [
            synth::flat(32, 32, 0),
            synth::flat(32, 32, 255),
            synth::checkerboard(33, 31, 1),
            synth::noise(40, 40, 1),
            synth::gradient(17, 64),
        ] {
            let bytes = encode(
                &im,
                &EncoderParams {
                    levels: 3,
                    ..Default::default()
                },
            )
            .unwrap();
            let back = decode(&bytes).unwrap();
            assert_eq!(back, im);
        }
    }

    #[test]
    fn budget_shrink_retries_multiple_times_and_converges() {
        // Probed configuration: the first reserve bump is insufficient, so
        // the shrink loop has to iterate (3 retries at the time of writing;
        // the test only pins >= 2 so R-D-neutral tweaks don't break it).
        let im = synth::noise(64, 64, 6);
        let params = EncoderParams {
            layers: 6,
            cb_size: 32,
            ..EncoderParams::lossy(0.08)
        };
        let t = transform_samples(&im, &params).unwrap();
        let records = tier1_all(&t, &params);
        let raw = im.raw_bytes() as u64;
        let out = rate_control_and_assemble(&im, &params, &t, &records, raw, 1).unwrap();
        assert!(out.retries >= 2, "wanted >=2 retries, got {}", out.retries);
        assert!(out.converged);
        assert!(out.bytes.len() <= (0.08 * raw as f64) as usize);
        // One reserve recorded per retry, growing strictly monotonically.
        assert_eq!(out.reserves.len() as u64, out.retries);
        for w in out.reserves.windows(2) {
            assert!(w[1] > w[0], "reserve not monotonic: {:?}", out.reserves);
        }
        // The whole retry history is worker-count invariant.
        for workers in [2usize, 5, 8] {
            let o = rate_control_and_assemble(&im, &params, &t, &records, raw, workers).unwrap();
            assert_eq!(o.bytes, out.bytes, "workers={workers}");
            assert_eq!(o.retries, out.retries, "workers={workers}");
            assert_eq!(o.reserves, out.reserves, "workers={workers}");
            assert_eq!(o.rc_items, out.rc_items, "workers={workers}");
        }
    }

    #[test]
    fn budget_shrink_exhaustion_is_clean() {
        // An infeasible budget (the fixed marker overhead alone exceeds
        // it): the loop must stop at 8 tries, report non-convergence, and
        // still hand back a decodable stream.
        let im = synth::noise(8, 8, 5);
        let params = EncoderParams::lossy(0.02);
        let t = transform_samples(&im, &params).unwrap();
        let records = tier1_all(&t, &params);
        let raw = im.raw_bytes() as u64;
        let out = rate_control_and_assemble(&im, &params, &t, &records, raw, 1).unwrap();
        assert_eq!(out.retries, 8);
        assert!(!out.converged);
        assert_eq!(out.reserves.len(), 8);
        for w in out.reserves.windows(2) {
            assert!(w[1] > w[0], "reserve not monotonic: {:?}", out.reserves);
        }
        decode(&out.bytes).unwrap();
        // The profile surfaces the exhaustion for callers.
        let (_, prof) = encode_with_profile(&im, &params).unwrap();
        assert_eq!(prof.rate_retries, 8);
        assert!(!prof.rate_converged);
    }

    #[test]
    fn tiny_images_roundtrip() {
        for (w, h) in [(1usize, 1usize), (2, 2), (1, 17), (16, 1), (5, 5)] {
            let mut im = Image::new(w, h, 1, 8).unwrap();
            for (i, v) in im.planes[0].iter_mut().enumerate() {
                *v = ((i * 37) % 256) as u16;
            }
            let params = EncoderParams {
                levels: 1,
                ..EncoderParams::lossless()
            };
            let back = decode(&encode(&im, &params).unwrap()).unwrap();
            assert_eq!(back, im, "{w}x{h}");
        }
    }
}
