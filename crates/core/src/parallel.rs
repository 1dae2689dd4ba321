//! Host-thread implementation of the paper's parallelization strategy.
//!
//! Mirrors the Cell mapping with real threads, end to end:
//!
//! * The **sample stages** (level shift + MCT merged, DWT, quantization)
//!   are decomposed by the same column-chunk plan the Cell path uses
//!   ([`xpart::ChunkPlan`]): constant-width chunks (a cache-line multiple)
//!   go round-robin to the spawned workers — the SPE role — while the
//!   arbitrary-width remainder chunk stays on the calling thread — the PPE
//!   role. Vertical lifting runs per column chunk, horizontal lifting per
//!   row band ("an identical number of rows to each SPE").
//! * **Tier-1** uses a dynamic work queue of code blocks (an atomic
//!   cursor), exactly like the paper's SPE/PPE queue.
//!
//! One `workers` knob drives both fan-outs. At one worker nothing is
//! spawned: the calling thread runs every stage and drains the Tier-1
//! queue itself (DESIGN.md §9). Output is byte-identical to
//! the sequential encoder for every worker count — parallelization must
//! never change the codestream (asserted by tests and proptests): the
//! vertical filter is column-local, the horizontal filter row-local, and
//! level shift / MCT / quantization are elementwise, so any disjoint
//! partition performs the same arithmetic on the same operands.

use crate::control::EncodeControl;
use crate::kernels::{ict_forward_row, level_shift_row, rct_forward_row};
use crate::pipeline::{
    band_kind, block_grid, build_profile, default_base_step, rate_control_and_assemble,
    BlockRecord, Transformed,
};
use crate::profile::StageTime;
use crate::quant::{band_delta, StepSize, GUARD_BITS};
use crate::{codestream::Quant, Arithmetic, CodecError, EncoderParams, Mode, WorkloadProfile};
use imgio::Image;
use obs::trace;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use wavelet::rowops::{Region, SharedPlane};
use wavelet::{horizontal, norms, vertical};
use xpart::{AlignedPlane, ChunkPlan, Owner, PlanConfig, CACHE_LINE};

/// Tuning knobs of the host-parallel driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelOptions {
    /// Constant column-chunk width in *bytes* for the sample stages; must
    /// be a positive multiple of [`xpart::CACHE_LINE`] (the configurable
    /// "line size"). `None` auto-sizes to roughly four chunks per worker,
    /// like the Cell driver's column grouping.
    pub chunk_width_bytes: Option<usize>,
}

/// Encode with `workers` threads (clamped to at least 1).
pub fn encode_parallel(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
) -> Result<Vec<u8>, CodecError> {
    encode_parallel_opts(image, params, workers, &ParallelOptions::default()).map(|(b, _)| b)
}

/// Encode with `workers` threads and also return the measured
/// [`WorkloadProfile`], including per-stage wall times and per-worker job
/// counts (`worker_jobs`: spawned workers first, calling thread last).
pub fn encode_parallel_with_profile(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
) -> Result<(Vec<u8>, WorkloadProfile), CodecError> {
    encode_parallel_opts(image, params, workers, &ParallelOptions::default())
}

/// [`encode_parallel_with_profile`] with explicit [`ParallelOptions`].
pub fn encode_parallel_opts(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
    opts: &ParallelOptions,
) -> Result<(Vec<u8>, WorkloadProfile), CodecError> {
    encode_parallel_ctl(image, params, workers, opts, None)
}

/// Cancellable / deadline-aware encode: identical to
/// [`encode_parallel_opts`] but polls `ctl` at every stage boundary and,
/// during Tier-1, once per code block, returning
/// [`CodecError::Cancelled`] / [`CodecError::Deadline`] instead of a
/// codestream when the control stops the encode. The produced codestream
/// (when the encode completes) is byte-identical to the sequential
/// encoder — the control adds checkpoints, never arithmetic.
pub fn encode_parallel_ctl(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
    opts: &ParallelOptions,
    ctl: Option<&EncodeControl>,
) -> Result<(Vec<u8>, WorkloadProfile), CodecError> {
    params.validate()?;
    image
        .validate()
        .map_err(|e| CodecError::Image(e.to_string()))?;
    let workers = workers.max(1);
    if let Some(c) = ctl {
        c.check()?;
    }

    // Sample stages, chunk-parallel.
    let (t, stats) = transform_samples_parallel_ctl(image, params, workers, opts, ctl)?;
    let mut stage_times = stats.stage_times;
    let mut worker_jobs = stats.worker_jobs;

    // Build the block job list (comp, band, grid position, geometry).
    struct Job {
        comp: usize,
        band_idx: usize,
        bx: usize,
        by: usize,
        x0: usize,
        y0: usize,
        bw: usize,
        bh: usize,
    }
    let mut jobs = Vec::new();
    for c in 0..t.indices.len() {
        for (bi, b) in t.bands.iter().enumerate() {
            for (bx, by, x0, y0, bw, bh) in block_grid(b, params.cb_size) {
                jobs.push(Job {
                    comp: c,
                    band_idx: bi,
                    bx,
                    by,
                    x0,
                    y0,
                    bw,
                    bh,
                });
            }
        }
    }

    // Tier-1 work queue: workers pull the next job index atomically.
    let stage_span = trace::span("stage:tier1")
        .cat("stage")
        .arg("coder", params.coder.id());
    let t1 = Instant::now();
    let cursor = AtomicUsize::new(0);
    // First injected `tier1.block` error, if the failpoint fires: the
    // erroring worker parks its message here and stops claiming jobs.
    let injected: Mutex<Option<String>> = Mutex::new(None);
    let tier1_counts: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let mut slots: Vec<Option<BlockRecord>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);
    let slot_ptr = SlotVec(slots.as_mut_ptr());
    let njobs = jobs.len();
    // One worker's pull loop; `wi` indexes its job counter.
    let work = |wi: usize| loop {
        if ctl.is_some_and(|c| c.is_stopped()) {
            break;
        }
        // Failpoint `tier1.block`: fires once per claimed code block. A
        // panic here unwinds to the caller (through the scope join when
        // workers run on spawned threads) — the service's catch_unwind
        // lever; an error stops this worker and fails the whole encode
        // after the barrier.
        if let Some(msg) = faultsim::eval("tier1.block") {
            *injected.lock().unwrap_or_else(|e| e.into_inner()) = Some(msg);
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= njobs {
            break;
        }
        tier1_counts[wi].fetch_add(1, Ordering::Relaxed);
        let j = &jobs[i];
        let plane = &t.indices[j.comp];
        let mut data = Vec::with_capacity(j.bw * j.bh);
        for y in j.y0..j.y0 + j.bh {
            for x in j.x0..j.x0 + j.bw {
                data.push(plane.get(x, y));
            }
        }
        let enc = params.coder.block_coder().encode(
            &data,
            j.bw,
            j.bh,
            band_kind(t.bands[j.band_idx].band),
            params.bypass,
        );
        // R-D preparation (truncation rates/distortions + convex hull)
        // runs here, on the worker that coded the block — the post-pass
        // slice of rate control rides the queue.
        let rec = BlockRecord::new(j.comp, j.band_idx, j.bx, j.by, enc, t.weights[j.band_idx]);
        // SAFETY: each index i is claimed by exactly one worker
        // (fetch_add), so no two threads write the same slot, and the
        // main thread only reads after every worker has returned.
        unsafe { *slot_ptr.base().add(i) = Some(rec) };
    };
    if workers == 1 {
        // One worker runs on the calling thread: no spawn, no join.
        work(0);
    } else {
        let parent_trace = trace::current();
        std::thread::scope(|scope| {
            for wi in 0..workers {
                let work = &work;
                scope.spawn(move || {
                    // Scoped threads don't inherit the TLS trace id.
                    trace::set_current(parent_trace);
                    work(wi);
                    // Flush before the closure returns: `thread::scope`
                    // only waits for closures, not TLS destructors, so the
                    // Drop flush could race the caller's trace drain.
                    trace::flush_thread();
                });
            }
        });
    }
    drop(stage_span);
    stage_times.push(StageTime::new("tier1", t1.elapsed().as_secs_f64()));
    let tier1_counts: Vec<u64> = tier1_counts.into_iter().map(|c| c.into_inner()).collect();
    accumulate(&mut worker_jobs, &tier1_counts);
    if let Some(c) = ctl {
        // A stopped Tier-1 leaves unclaimed slots; bail before unwrapping.
        c.check()?;
    }
    // Same for an injected `tier1.block` error: the erroring worker left
    // its claimed slot (and any unclaimed tail) empty.
    if let Some(msg) = injected.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(CodecError::Injected(msg));
    }

    let records: Vec<BlockRecord> = slots
        .into_iter()
        .map(|s| s.expect("every job completed"))
        .collect();
    let rc_span = trace::span("stage:rate-control").cat("stage");
    let raw = image.raw_bytes() as u64;
    let out = rate_control_and_assemble(image, params, &t, &records, raw, workers)?;
    drop(rc_span);
    stage_times.push(StageTime::new("rate-control", out.alloc_secs));
    stage_times.push(StageTime::new("tier2", out.tier2_secs));

    let profile = build_profile(image, params, &records, &out, stage_times, worker_jobs);
    Ok((out.bytes, profile))
}

/// Dense quantizer-index planes from the *chunk-parallel* sample stages.
/// Diagnostic counterpart of [`crate::pipeline::transform_coefficients`];
/// the differential proptests assert the two agree coefficient for
/// coefficient for every worker count and chunk width.
pub fn transform_coefficients_parallel(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
    opts: &ParallelOptions,
) -> Result<Vec<Vec<i32>>, CodecError> {
    params.validate()?;
    image
        .validate()
        .map_err(|e| CodecError::Image(e.to_string()))?;
    let (t, _) = transform_samples_parallel(image, params, workers.max(1), opts)?;
    Ok(t.indices.iter().map(|p| p.to_dense()).collect())
}

/// Shared raw pointer to the result slots; Sync because slot indices are
/// partitioned dynamically but uniquely by the atomic cursor.
struct SlotVec(*mut Option<BlockRecord>);
unsafe impl Sync for SlotVec {}

impl SlotVec {
    /// The base pointer. A method, so closures capture the `Sync`
    /// wrapper rather than the raw pointer field.
    fn base(&self) -> *mut Option<BlockRecord> {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Chunk-parallel sample stages
// ---------------------------------------------------------------------------

/// Measurements of the parallel transform: per-stage wall times plus jobs
/// executed per worker (spawned workers first, calling thread last).
pub(crate) struct TransformStats {
    pub stage_times: Vec<StageTime>,
    pub worker_jobs: Vec<u64>,
}

fn accumulate(totals: &mut [u64], counts: &[u64]) {
    for (t, c) in totals.iter_mut().zip(counts) {
        *t += c;
    }
}

/// Auto-sized chunk width in bytes: roughly four constant-width chunks per
/// worker, floored to one cache line (mirrors the Cell driver's sizing).
fn auto_chunk_bytes(width: usize, workers: usize) -> usize {
    let target = (width * 4) / (4 * workers.max(1));
    (target / CACHE_LINE).max(1) * CACHE_LINE
}

/// Column-chunk plan for an extent of `width` samples: constant-width
/// chunks round-robin over `workers`, remainder to the calling thread.
fn plan_for(width: usize, workers: usize, opts: &ParallelOptions) -> Result<ChunkPlan, CodecError> {
    let chunk = opts
        .chunk_width_bytes
        .unwrap_or_else(|| auto_chunk_bytes(width, workers));
    ChunkPlan::build(
        width,
        1,
        &PlanConfig {
            num_spes: workers,
            elem_size: 4,
            chunk_width_bytes: chunk,
            buffering: 1,
            // Host threads have no Local Store limit.
            ls_budget: usize::MAX / 2,
        },
    )
    .map_err(|e| CodecError::Params(format!("chunk plan: {e}")))
}

/// One unit of chunked work: a component index plus the plane region it
/// covers. For fused multi-component kernels (RCT/ICT) `comp` is 0 and the
/// job covers all components at once.
#[derive(Clone, Copy)]
struct ChunkJob {
    comp: usize,
    region: Region,
    /// Dense chunk index within the stage (the plan's `ChunkDesc::id`
    /// for column chunks, the band index for row bands); rides into
    /// trace span args so a trace can be joined back to the plan.
    chunk: usize,
}

/// Static job assignment for one stage: a list per spawned worker (the SPE
/// role) plus the calling thread's remainder list (the PPE role).
struct Assignment {
    per_worker: Vec<Vec<ChunkJob>>,
    calling: Vec<ChunkJob>,
}

/// Column decomposition: every plan chunk becomes a full-height region.
fn assign_columns(plan: &ChunkPlan, comps: usize, h: usize, workers: usize) -> Assignment {
    let mut per_worker = vec![Vec::new(); workers];
    let mut calling = Vec::new();
    for comp in 0..comps {
        for c in plan.chunks() {
            let job = ChunkJob {
                comp,
                region: Region {
                    x0: c.x0,
                    y0: 0,
                    w: c.width,
                    h,
                },
                chunk: c.id,
            };
            match c.owner {
                Owner::Spe(i) => per_worker[i].push(job),
                Owner::Ppe => calling.push(job),
            }
        }
    }
    Assignment {
        per_worker,
        calling,
    }
}

/// Row decomposition for horizontal filtering: an identical number of rows
/// per worker (the paper assigns no rows to the PPE in this stage).
fn assign_rows(w: usize, h: usize, comps: usize, workers: usize) -> Assignment {
    let mut per_worker = vec![Vec::new(); workers];
    let band = h.div_ceil(workers).max(1);
    for comp in 0..comps {
        let mut y0 = 0;
        let mut wi = 0;
        while y0 < h {
            let bh = band.min(h - y0);
            per_worker[wi % workers].push(ChunkJob {
                comp,
                region: Region {
                    x0: 0,
                    y0,
                    w,
                    h: bh,
                },
                chunk: wi,
            });
            y0 += bh;
            wi += 1;
        }
    }
    Assignment {
        per_worker,
        calling: Vec::new(),
    }
}

impl Assignment {
    /// Run `f` over every job: worker `i` processes its list on its own
    /// thread while the calling thread processes the remainder, then all
    /// threads join (a stage barrier). With a single worker nothing is
    /// spawned: the calling thread runs that worker's list, then the
    /// remainder. Returns per-worker job counts with the calling thread
    /// last.
    ///
    /// When tracing is enabled every job runs under a span named
    /// `stage` (args: worker / chunk / comp), and spawned threads
    /// inherit the caller's trace id explicitly (TLS doesn't cross
    /// `thread::scope`). Each spawned closure flushes its local trace
    /// buffer before returning — the scope barrier waits for closures,
    /// not TLS destructors, so the Drop flush alone would race the
    /// caller's trace drain.
    fn run<F>(&self, stage: &'static str, f: F) -> Vec<u64>
    where
        F: Fn(ChunkJob) + Sync,
    {
        let traced = |wi: usize, j: ChunkJob| {
            let _sp = trace::span(stage)
                .cat("chunk")
                .arg("worker", wi as u64)
                .arg("chunk", j.chunk as u64)
                .arg("comp", j.comp as u64);
            f(j);
        };
        let calling_wi = self.per_worker.len();
        let run_calling = || {
            for &j in &self.calling {
                traced(calling_wi, j);
            }
        };
        if let [list] = self.per_worker.as_slice() {
            for &j in list {
                traced(0, j);
            }
            run_calling();
        } else {
            let parent_trace = trace::current();
            std::thread::scope(|scope| {
                for (wi, list) in self.per_worker.iter().enumerate() {
                    let traced = &traced;
                    scope.spawn(move || {
                        trace::set_current(parent_trace);
                        for &j in list {
                            traced(wi, j);
                        }
                        trace::flush_thread();
                    });
                }
                run_calling();
            });
        }
        let mut counts: Vec<u64> = self.per_worker.iter().map(|l| l.len() as u64).collect();
        counts.push(self.calling.len() as u64);
        counts
    }
}

/// Chunk-parallel version of [`crate::pipeline::transform_samples`]:
/// byte-identical output by construction (same arithmetic on the same
/// operands, only partitioned), plus stage measurements.
pub(crate) fn transform_samples_parallel(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
    opts: &ParallelOptions,
) -> Result<(Transformed, TransformStats), CodecError> {
    transform_samples_parallel_ctl(image, params, workers, opts, None)
}

/// [`transform_samples_parallel`] with an optional [`EncodeControl`]
/// polled after each stage and between DWT levels.
pub(crate) fn transform_samples_parallel_ctl(
    image: &Image,
    params: &EncoderParams,
    workers: usize,
    opts: &ParallelOptions,
    ctl: Option<&EncodeControl>,
) -> Result<(Transformed, TransformStats), CodecError> {
    let (w, h) = (image.width, image.height);
    let comps = image.comps();
    let depth = image.bit_depth;
    let shift = 1i32 << (depth - 1);
    let use_mct = comps == 3;
    let variant = params.variant;
    let bands = wavelet::subbands(w, h, params.levels);
    let mut worker_jobs = vec![0u64; workers + 1];
    let mut stage_times = Vec::new();

    let cv_span = trace::span("stage:convert").cat("stage");
    let t0 = Instant::now();
    let mut int_planes: Vec<AlignedPlane<i32>> = image
        .planes
        .iter()
        .map(|p| {
            let dense: Vec<i32> = p.iter().map(|&v| v as i32).collect();
            AlignedPlane::from_dense(w, h, &dense).map_err(|e| CodecError::Image(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    drop(cv_span);
    stage_times.push(StageTime::new("convert", t0.elapsed().as_secs_f64()));
    if let Some(c) = ctl {
        c.check()?;
    }

    let plan = plan_for(w, workers, opts)?;
    if trace::enabled() {
        // Record the column-chunk plan itself: one instant per chunk,
        // dynamically named (`chunk-3`), so a trace can be read against
        // the decomposition that produced it.
        for c in plan.chunks() {
            trace::instant(
                c.label(),
                &[
                    ("x0", c.x0 as u64),
                    ("w", c.width as u64),
                    ("remainder", u64::from(c.is_remainder)),
                ],
            );
        }
    }
    let regions = wavelet::level_regions(w, h, params.levels);

    match params.mode {
        Mode::Lossless => {
            // Level shift + RCT, merged, by column chunk.
            let mct_span = trace::span("stage:mct").cat("stage");
            let t1 = Instant::now();
            {
                let shared: Vec<SharedPlane<i32>> =
                    int_planes.iter_mut().map(SharedPlane::new).collect();
                let asg = assign_columns(&plan, if use_mct { 1 } else { comps }, h, workers);
                // SAFETY: plan chunks are pairwise disjoint column ranges
                // and each job is executed by exactly one thread, so live
                // views never overlap.
                let counts = asg.run("mct", |j| unsafe {
                    if use_mct {
                        let mut ry = shared[0].rows(j.region);
                        let mut ru = shared[1].rows(j.region);
                        let mut rv = shared[2].rows(j.region);
                        for y in 0..j.region.h {
                            rct_forward_row(ry.row_mut(y), ru.row_mut(y), rv.row_mut(y), shift);
                        }
                    } else {
                        let mut rows = shared[j.comp].rows(j.region);
                        for y in 0..j.region.h {
                            level_shift_row(rows.row_mut(y), shift);
                        }
                    }
                });
                accumulate(&mut worker_jobs, &counts);
            }
            drop(mct_span);
            stage_times.push(StageTime::new("mct", t1.elapsed().as_secs_f64()));
            if let Some(c) = ctl {
                c.check()?;
            }

            // 5/3 DWT level by level: vertical by column chunk, then (after
            // the barrier) horizontal by row band.
            let dwt_span = trace::span("stage:dwt").cat("stage");
            let t2 = Instant::now();
            {
                let shared: Vec<SharedPlane<i32>> =
                    int_planes.iter_mut().map(SharedPlane::new).collect();
                for (li, r) in regions.iter().enumerate() {
                    if let Some(c) = ctl {
                        c.check()?;
                    }
                    // Failpoint `dwt.level`: fires once per decomposition
                    // level, on the calling thread — the clean-error lever
                    // for the service's failure (not crash) paths.
                    if let Some(msg) = faultsim::eval("dwt.level") {
                        return Err(CodecError::Injected(msg));
                    }
                    let _lvl = if trace::enabled() {
                        trace::span(format!("dwt-level-{}", li + 1)).cat("stage")
                    } else {
                        trace::Span::disabled()
                    };
                    let lplan = plan_for(r.w, workers, opts)?;
                    let vert = assign_columns(&lplan, comps, r.h, workers);
                    // SAFETY: disjoint column chunks, one thread per job.
                    let counts = vert.run("dwt", |j| unsafe {
                        vertical::fwd53_rows(shared[j.comp].rows(j.region), variant);
                    });
                    accumulate(&mut worker_jobs, &counts);
                    let horiz = assign_rows(r.w, r.h, comps, workers);
                    // SAFETY: disjoint row bands, one thread per job.
                    let counts = horiz.run("dwt", |j| unsafe {
                        horizontal::fwd53_rows(shared[j.comp].rows(j.region));
                    });
                    accumulate(&mut worker_jobs, &counts);
                }
            }
            drop(dwt_span);
            stage_times.push(StageTime::new("dwt", t2.elapsed().as_secs_f64()));

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
            Ok((
                Transformed {
                    indices: int_planes,
                    quant: Quant::Reversible(exps),
                    bands,
                    max_planes,
                    weights,
                },
                TransformStats {
                    stage_times,
                    worker_jobs,
                },
            ))
        }
        Mode::Lossy { .. } => {
            let base = default_base_step(depth);

            // Level shift + ICT, merged, by column chunk, straight into the
            // arithmetic's working representation (f32 or Q13).
            let mct_span = trace::span("stage:mct").cat("stage");
            let t1 = Instant::now();
            let fixed = params.arithmetic == Arithmetic::FixedQ13;
            let mut fp: Vec<AlignedPlane<f32>> = if fixed {
                Vec::new()
            } else {
                (0..comps)
                    .map(|_| AlignedPlane::new(w, h).expect("geometry"))
                    .collect()
            };
            let mut q13: Vec<AlignedPlane<i32>> = if fixed {
                (0..comps)
                    .map(|_| AlignedPlane::new(w, h).expect("geometry"))
                    .collect()
            } else {
                Vec::new()
            };
            {
                let src = &int_planes;
                let out_f: Vec<SharedPlane<f32>> = fp.iter_mut().map(SharedPlane::new).collect();
                let out_q: Vec<SharedPlane<i32>> = q13.iter_mut().map(SharedPlane::new).collect();
                let asg = assign_columns(&plan, if use_mct { 1 } else { comps }, h, workers);
                // SAFETY: disjoint column chunks, one thread per job; the
                // int planes are only read (shared borrows).
                let counts = asg.run("mct", |j| unsafe {
                    let (x0, cw) = (j.region.x0, j.region.w);
                    let mut ybuf = vec![0f32; cw];
                    let mut cbuf = vec![0f32; cw];
                    let mut rbuf = vec![0f32; cw];
                    for y in 0..j.region.h {
                        if use_mct {
                            let r = &src[0].row(y)[x0..x0 + cw];
                            let g = &src[1].row(y)[x0..x0 + cw];
                            let b = &src[2].row(y)[x0..x0 + cw];
                            ict_forward_row(r, g, b, &mut ybuf, &mut cbuf, &mut rbuf, shift as f32);
                            for (c, buf) in [&ybuf, &cbuf, &rbuf].into_iter().enumerate() {
                                if fixed {
                                    let mut rows = out_q[c].rows(j.region);
                                    for (d, &v) in rows.row_mut(y).iter_mut().zip(buf) {
                                        *d = (v * 8192.0).round() as i32;
                                    }
                                } else {
                                    out_f[c].rows(j.region).row_mut(y).copy_from_slice(buf);
                                }
                            }
                        } else {
                            let s = &src[j.comp].row(y)[x0..x0 + cw];
                            if fixed {
                                let mut rows = out_q[j.comp].rows(j.region);
                                for (d, &v) in rows.row_mut(y).iter_mut().zip(s) {
                                    *d = (((v - shift) as f32) * 8192.0).round() as i32;
                                }
                            } else {
                                let mut rows = out_f[j.comp].rows(j.region);
                                for (d, &v) in rows.row_mut(y).iter_mut().zip(s) {
                                    *d = (v - shift) as f32;
                                }
                            }
                        }
                    }
                });
                accumulate(&mut worker_jobs, &counts);
            }
            drop(mct_span);
            stage_times.push(StageTime::new("mct", t1.elapsed().as_secs_f64()));
            if let Some(c) = ctl {
                c.check()?;
            }

            // 9/7 DWT level by level, vertical chunks then horizontal bands.
            let dwt_span = trace::span("stage:dwt").cat("stage");
            let t2 = Instant::now();
            {
                let shared_f: Vec<SharedPlane<f32>> = fp.iter_mut().map(SharedPlane::new).collect();
                let shared_q: Vec<SharedPlane<i32>> =
                    q13.iter_mut().map(SharedPlane::new).collect();
                for (li, r) in regions.iter().enumerate() {
                    if let Some(c) = ctl {
                        c.check()?;
                    }
                    // Failpoint `dwt.level`: fires once per decomposition
                    // level, on the calling thread — the clean-error lever
                    // for the service's failure (not crash) paths.
                    if let Some(msg) = faultsim::eval("dwt.level") {
                        return Err(CodecError::Injected(msg));
                    }
                    let _lvl = if trace::enabled() {
                        trace::span(format!("dwt-level-{}", li + 1)).cat("stage")
                    } else {
                        trace::Span::disabled()
                    };
                    let lplan = plan_for(r.w, workers, opts)?;
                    let vert = assign_columns(&lplan, comps, r.h, workers);
                    // SAFETY: disjoint column chunks, one thread per job.
                    let counts = vert.run("dwt", |j| unsafe {
                        if fixed {
                            vertical::fwd97_rows(shared_q[j.comp].rows(j.region), variant);
                        } else {
                            vertical::fwd97_rows(shared_f[j.comp].rows(j.region), variant);
                        }
                    });
                    accumulate(&mut worker_jobs, &counts);
                    let horiz = assign_rows(r.w, r.h, comps, workers);
                    // SAFETY: disjoint row bands, one thread per job.
                    let counts = horiz.run("dwt", |j| unsafe {
                        if fixed {
                            horizontal::fwd97_fixed_rows(shared_q[j.comp].rows(j.region));
                        } else {
                            horizontal::fwd97_rows(shared_f[j.comp].rows(j.region));
                        }
                    });
                    accumulate(&mut worker_jobs, &counts);
                }
            }
            drop(dwt_span);
            stage_times.push(StageTime::new("dwt", t2.elapsed().as_secs_f64()));
            if let Some(c) = ctl {
                c.check()?;
            }

            // Per-band signalled steps and weights (cheap, calling thread;
            // same order and arithmetic as the sequential pipeline).
            let mut steps = Vec::with_capacity(bands.len());
            let mut weights = Vec::with_capacity(bands.len());
            let mut delta_sigs = Vec::with_capacity(bands.len());
            for b in &bands {
                let lev = b.level.max(1);
                let delta = band_delta(base, b.band, lev);
                let r_bits = depth as i32 + b.band.gain_log2() as i32;
                let step = StepSize::from_delta(delta, r_bits);
                let delta_sig = step.delta(r_bits);
                let nrm = norms::l2_norm_97(b.band, lev);
                steps.push(step);
                weights.push((delta_sig * nrm) * (delta_sig * nrm));
                delta_sigs.push(delta_sig);
            }

            // Quantize by column chunk (elementwise over band rectangles;
            // Q13 coefficients drop back to f32 exactly as sequentially).
            let q_span = trace::span("stage:quantize").cat("stage");
            let t3 = Instant::now();
            let q_samples = (w * h * comps) as u64;
            let qm = obs::counters::measure(
                obs::counters::Kernel::Quantize,
                q_samples,
                q_samples * std::mem::size_of::<i32>() as u64,
            );
            let mut indices: Vec<AlignedPlane<i32>> = (0..comps)
                .map(|_| AlignedPlane::new(w, h).expect("geometry"))
                .collect();
            {
                let fp = &fp;
                let q13 = &q13;
                let bands = &bands;
                let delta_sigs = &delta_sigs;
                let out: Vec<SharedPlane<i32>> = indices.iter_mut().map(SharedPlane::new).collect();
                let asg = assign_columns(&plan, comps, h, workers);
                // SAFETY: disjoint column chunks, one thread per job; the
                // coefficient planes are only read.
                let counts = asg.run("quantize", |j| unsafe {
                    let (x0, cw) = (j.region.x0, j.region.w);
                    let mut rows = out[j.comp].rows(j.region);
                    for (bi, b) in bands.iter().enumerate() {
                        let lo = b.x0.max(x0);
                        let hi = (b.x0 + b.w).min(x0 + cw);
                        if lo >= hi {
                            continue;
                        }
                        let d = delta_sigs[bi];
                        for y in b.y0..b.y0 + b.h {
                            let dst = &mut rows.row_mut(y)[lo - x0..hi - x0];
                            if fixed {
                                let s = q13[j.comp].row(y);
                                crate::kernels::quantize_q13_row(&s[lo..hi], dst, d);
                            } else {
                                let s = fp[j.comp].row(y);
                                crate::kernels::quantize_row(&s[lo..hi], dst, d);
                            }
                        }
                    }
                });
                accumulate(&mut worker_jobs, &counts);
            }
            drop(qm);
            drop(q_span);
            stage_times.push(StageTime::new("quantize", t3.elapsed().as_secs_f64()));

            let max_planes: Vec<u8> = steps.iter().map(|s| GUARD_BITS + s.exponent - 1).collect();
            Ok((
                Transformed {
                    indices,
                    quant: Quant::Scalar(steps),
                    bands,
                    max_planes,
                    weights,
                },
                TransformStats {
                    stage_times,
                    worker_jobs,
                },
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imgio::synth;

    #[test]
    fn parallel_matches_sequential_lossless() {
        let im = synth::natural_rgb(96, 64, 13);
        let params = EncoderParams {
            levels: 3,
            ..EncoderParams::lossless()
        };
        let seq = crate::encode(&im, &params).unwrap();
        for workers in [1usize, 2, 4, 7] {
            let par = encode_parallel(&im, &params, workers).unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn parallel_matches_sequential_lossy() {
        let im = synth::natural(80, 80, 21);
        let params = EncoderParams::lossy(0.2);
        let seq = crate::encode(&im, &params).unwrap();
        let par = encode_parallel(&im, &params, 3).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_matches_sequential_lossy_fixed() {
        let im = synth::natural_rgb(72, 56, 5);
        let params = EncoderParams {
            arithmetic: Arithmetic::FixedQ13,
            ..EncoderParams::lossy(0.3)
        };
        let seq = crate::encode(&im, &params).unwrap();
        for workers in [1usize, 2, 5] {
            let par = encode_parallel(&im, &params, workers).unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn parallel_output_decodes() {
        let im = synth::natural(64, 64, 30);
        let bytes = encode_parallel(&im, &EncoderParams::lossless(), 4).unwrap();
        let back = crate::decode(&bytes).unwrap();
        assert_eq!(back, im);
    }

    #[test]
    fn explicit_chunk_width_is_honored_and_identical() {
        let im = synth::natural_rgb(100, 40, 8);
        let params = EncoderParams::lossless();
        let seq = crate::pipeline::transform_coefficients(&im, &params).unwrap();
        for cw in [CACHE_LINE, 2 * CACHE_LINE, 5 * CACHE_LINE] {
            let opts = ParallelOptions {
                chunk_width_bytes: Some(cw),
            };
            let par = transform_coefficients_parallel(&im, &params, 3, &opts).unwrap();
            assert_eq!(par, seq, "chunk_width_bytes={cw}");
        }
    }

    #[test]
    fn bad_chunk_width_is_rejected() {
        let im = synth::natural(32, 32, 1);
        let opts = ParallelOptions {
            chunk_width_bytes: Some(CACHE_LINE + 1),
        };
        let err = transform_coefficients_parallel(&im, &EncoderParams::lossless(), 2, &opts);
        assert!(matches!(err, Err(CodecError::Params(_))));
    }

    #[test]
    fn cancelled_control_stops_encode() {
        let im = synth::natural(64, 64, 9);
        let ctl = EncodeControl::new();
        ctl.cancel();
        let r = encode_parallel_ctl(
            &im,
            &EncoderParams::lossless(),
            2,
            &ParallelOptions::default(),
            Some(&ctl),
        );
        assert!(matches!(r, Err(CodecError::Cancelled)));
    }

    #[test]
    fn expired_deadline_stops_encode() {
        let im = synth::natural(64, 64, 9);
        let ctl =
            EncodeControl::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        let r = encode_parallel_ctl(
            &im,
            &EncoderParams::lossy(0.2),
            2,
            &ParallelOptions::default(),
            Some(&ctl),
        );
        assert!(matches!(r, Err(CodecError::Deadline)));
    }

    #[test]
    fn live_control_is_byte_identical() {
        let im = synth::natural_rgb(80, 48, 17);
        let params = EncoderParams::lossless();
        let seq = crate::encode(&im, &params).unwrap();
        let ctl =
            EncodeControl::with_deadline(Instant::now() + std::time::Duration::from_secs(600));
        let (par, _) =
            encode_parallel_ctl(&im, &params, 3, &ParallelOptions::default(), Some(&ctl)).unwrap();
        assert_eq!(par, seq);
    }

    /// Encode with tracing on; return the codestream, the job's events
    /// and the calling thread's trace tid.
    fn traced_encode(
        im: &Image,
        params: &EncoderParams,
        workers: usize,
    ) -> (Vec<u8>, Vec<trace::Event>, u64) {
        let id = trace::next_trace_id();
        trace::set_current(id);
        trace::instant("caller", &[]);
        let par = encode_parallel(im, params, workers).unwrap();
        trace::set_current(0);
        let events = trace::take_job(id);
        let caller = events
            .iter()
            .find(|e| e.name == "caller")
            .expect("caller instant recorded")
            .tid;
        (par, events, caller)
    }

    // One test for both worker counts: tracing is a process-global
    // switch, so two traced tests running at once would disable each
    // other's spans.
    #[test]
    fn traced_encode_is_byte_identical_and_covers_stages() {
        let im = synth::natural_rgb(96, 64, 11);
        let params = EncoderParams::lossy(0.25);
        let seq = crate::encode(&im, &params).unwrap();
        trace::set_enabled(true);
        let (par, events, caller) = traced_encode(&im, &params, 3);
        let (par1, events1, caller1) = traced_encode(&im, &params, 1);
        trace::set_enabled(false);
        assert_eq!(par, seq, "tracing must not perturb the codestream");
        for name in [
            "mct",
            "dwt",
            "quantize",
            "tier1",
            "dwt-level-1",
            "chunk-0",
            "stage:rate-control",
        ] {
            assert!(
                events.iter().any(|e| e.name == name),
                "missing event {name} in {:?}",
                events.iter().map(|e| e.name.clone()).collect::<Vec<_>>()
            );
        }
        // Chunk spans fan out: more than one distinct worker arg, and
        // Tier-1 leaves the calling thread.
        let mut workers: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "mct")
            .filter_map(|e| e.args.iter().find(|(k, _)| *k == "worker").map(|&(_, v)| v))
            .collect();
        workers.sort_unstable();
        workers.dedup();
        assert!(
            workers.len() >= 2,
            "mct chunk spans on one worker only: {workers:?}"
        );
        assert!(events.iter().any(|e| e.name == "tier1" && e.tid != caller));

        // One worker: same bytes, and every stage, chunk and Tier-1 span
        // ran on the calling thread.
        assert_eq!(par1, seq, "workers=1 must match the sequential encoder");
        let on_path: Vec<&trace::Event> = events1
            .iter()
            .filter(|e| e.cat == "stage" || e.cat == "chunk" || e.name == "tier1")
            .collect();
        for name in [
            "stage:mct",
            "stage:dwt",
            "stage:tier1",
            "mct",
            "dwt",
            "tier1",
        ] {
            assert!(
                on_path.iter().any(|e| e.name == name),
                "missing event {name} at workers=1"
            );
        }
        for e in on_path {
            assert_eq!(e.tid, caller1, "{} ran off the calling thread", e.name);
        }
    }

    #[test]
    fn profile_reports_multi_worker_jobs_and_stages() {
        let im = synth::natural_rgb(256, 64, 3);
        let workers = 4;
        let (_, prof) =
            encode_parallel_with_profile(&im, &EncoderParams::lossless(), workers).unwrap();
        assert_eq!(prof.worker_jobs.len(), workers + 1);
        let busy = prof.worker_jobs[..workers]
            .iter()
            .filter(|&&c| c > 0)
            .count();
        assert!(
            busy >= 2,
            "sample stages did not fan out: {:?}",
            prof.worker_jobs
        );
        let names: Vec<&str> = prof.stage_times.iter().map(|s| s.name.as_ref()).collect();
        for want in ["convert", "mct", "dwt", "tier1", "rate-control"] {
            assert!(names.contains(&want), "missing stage {want} in {names:?}");
        }
    }
}
