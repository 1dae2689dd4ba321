//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use crate::check;
use crate::codec::{encode_with, ms, Encoder, LayerTimes, Prep};
use crate::host;
use crate::report::{Ops, Report};
use crate::serve::{client_loop, ClientLog, Daemon, Plan};
use crate::stats::{p50, plain_median, tail};
use crate::yardstick::Pace;
use crate::{derive, Args};
use imgio::Image;
use j2k_core::{EncoderParams, ParallelOptions};
use j2k_serve::wire::{EncodeRequest, Request};
use j2k_serve::{EncodeJob, EncodeService, JobOutcome, ServiceConfig};
use obs::counters::{self, Kernel};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Samples per timing so a guarded median exists (10 beyond it).
const MIN_SAMPLES: usize = 20;
/// Requests per run on serve_small, so a p95 has 10 samples beyond it.
const MIN_REQUESTS: usize = 200;
/// Clients of the closed loop (= `nproc` of the reference host).
const CLIENTS: usize = 2;
/// Side of the large workloads' RGB image...
const LARGE_SIDE: usize = 1024;
/// ...a mosaic of independently seeded tiles of this side, so one run's
/// content averages many draws and varies little from seed to seed.
const TILE_SIDE: usize = 256;
/// Lossy target rate, output bits per input bit.
const LOSSY_RATE: f64 = 0.1;
/// Workers of the parallel encode checked against the sequential one.
const FAN_OUT: usize = 2;
/// Image sides of the serve mix, in equal shares.
const SERVE_SIDES: [usize; 3] = [32, 64, 128];
/// Distinct images per side in the serve mix.
const PER_SIDE: usize = 16;
/// serve_small alternates TCP and in-process slices of this length, so
/// both sample the whole run (host speed drifts over seconds).
const SLICE_S: f64 = 2.0;
/// Share of each slice spent in the TCP loop.
const TCP_SHARE: f64 = 0.7;
/// PSNR reported for a bit-exact reconstruction (whose PSNR is
/// infinite); a lossless decode that is not bit-exact fails its check.
const PSNR_EXACT_DB: f64 = 100.0;
/// Lossy decodes below this are wrong, not merely lossy.
const PSNR_FLOOR_DB: f64 = 20.0;

/// A seeded permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = crate::splitmix(s);
        v.swap(i, (s % (i as u64 + 1)) as usize);
    }
    v
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// Report a timing as its median and its guarded tail (p95 when the run
/// has enough samples); `how` qualifies the statistic, e.g. as scaled.
fn median_and_tail(
    r: &mut Report,
    (p50_name, tail_name): (&'static str, &'static str),
    v: &[f64],
    how: &str,
) -> Result<(), String> {
    r.metric(p50_name, "ms", p50(v)?, v.len(), format!("p50{how}"));
    let (q, t) = tail(v, 0.95)?;
    r.metric(
        tail_name,
        "ms",
        t,
        v.len(),
        format!("p{:.1}{how}", q * 100.0),
    );
    Ok(())
}

/// Set-up times, s: wall and scaled to the reference host by a yardstick
/// timed before each set-up.
#[derive(Default)]
struct Setups {
    scaled: Vec<f64>,
    wall: Vec<f64>,
}

impl Setups {
    /// Time one set-up.
    fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let pace = Pace::now();
        let t0 = Instant::now();
        let out = setup()?;
        let s = secs(t0);
        self.scaled.push(s * pace.scale());
        self.wall.push(s);
        Ok(out)
    }

    fn report(&self, r: &mut Report) {
        let n = self.scaled.len();
        r.metric(
            "setup_s",
            "s",
            plain_median(&self.scaled),
            n,
            "median, host-scaled",
        );
        r.unscaled("setup_ms", plain_median(&self.wall) * 1e3);
    }
}

/// Checked in-process encode and decode times, ms: scaled to the
/// reference host (each call by the yardstick timed just before it), and
/// wall.
#[derive(Default)]
struct Calls {
    enc: Vec<f64>,
    dec: Vec<f64>,
    enc_wall: Vec<f64>,
    dec_wall: Vec<f64>,
    yardstick: Vec<f64>,
}

impl Calls {
    fn len(&self) -> usize {
        self.enc.len()
    }

    /// `encode_ms_p50` and `decode_ms_p50`, with the unscaled medians and
    /// the yardstick's median in the detail record.
    fn report(&self, r: &mut Report) -> Result<(), String> {
        r.metric(
            "encode_ms_p50",
            "ms",
            p50(&self.enc)?,
            self.len(),
            "p50, host-scaled",
        );
        r.metric(
            "decode_ms_p50",
            "ms",
            p50(&self.dec)?,
            self.len(),
            "p50, host-scaled",
        );
        r.unscaled("encode_ms_p50", p50(&self.enc_wall)?);
        r.unscaled("decode_ms_p50", p50(&self.dec_wall)?);
        r.unscaled("yardstick_ms_p50", plain_median(&self.yardstick));
        Ok(())
    }
}

fn psnr_db(original: &Image, decoded: &Image) -> Result<f64, String> {
    let db = j2k_metrics::psnr(original, decoded).map_err(|e| format!("psnr: {e:?}"))?;
    Ok(if db.is_finite() { db } else { PSNR_EXACT_DB })
}

fn own_peak_rss_mb() -> Result<f64, String> {
    host::peak_rss_mb("/proc/self/status")
}

// ---------------------------------------------------------------------------
// serve_small
// ---------------------------------------------------------------------------

/// The serve mix: images, their encode requests and reference codestreams.
struct Mix {
    images: Vec<Image>,
    requests: Vec<Request>,
    refs: Vec<Vec<u8>>,
}

impl Mix {
    fn new(seed: u64) -> Result<Mix, String> {
        let params = EncoderParams::lossless();
        let mut images = Vec::new();
        for (si, &side) in SERVE_SIDES.iter().enumerate() {
            for j in 0..PER_SIDE {
                let s = derive(seed, (si * PER_SIDE + j) as u64);
                images.push(imgio::synth::natural_rgb(side, side, s));
            }
        }
        let refs = images
            .iter()
            .map(|im| encode_with(im, &params, Encoder::Sequential))
            .collect::<Result<Vec<_>, _>>()?;
        let requests = images
            .iter()
            .map(|im| {
                Request::Encode(EncodeRequest {
                    priority: 0,
                    allow_degraded: false,
                    timeout_ms: 0,
                    params,
                    image: im.clone(),
                })
            })
            .collect();
        Ok(Mix {
            images,
            requests,
            refs,
        })
    }

    /// Each client's request order: its own seeded cycle over the mix.
    fn orders(&self, seed: u64) -> Vec<Vec<usize>> {
        (0..CLIENTS)
            .map(|c| permutation(self.images.len(), derive(seed, 0x0DE5 + c as u64)))
            .collect()
    }

    fn bpp(&self) -> f64 {
        let bits: usize = self.refs.iter().map(|r| r.len() * 8).sum();
        let px: usize = self.images.iter().map(|im| im.width * im.height).sum();
        bits as f64 / px as f64
    }
}

/// Set up (mix + daemon) `setups` times and keep the last; returns the
/// set-up times too. Also proves the reply check can fail.
fn serve_setup(a: &Args, r: &mut Report, setups: usize) -> Result<(Mix, Daemon, Setups), String> {
    let bin = a.daemon.as_ref().ok_or("serve_small needs --daemon")?;
    let mut times = Setups::default();
    let mut kept: Option<(Mix, Daemon)> = None;
    for _ in 0..setups {
        let started = times.time(|| Ok((Mix::new(a.seed)?, Daemon::start(bin)?)))?;
        if let Some((_, old)) = kept.replace(started) {
            old.stop()?;
        }
    }
    let (mix, daemon) = kept.ok_or("no set-up ran")?;
    let frame = daemon.reply_frame(&mix.requests[0])?;
    if let Err(e) = check::corrupted_reply_is_caught(&frame, &mix.refs[0], a.seed) {
        r.fail(format!("self-test: {e}"));
    }
    Ok((mix, daemon, times))
}

/// Run the closed loop with one client per order, client `c` starting at
/// position `starts[c]` of its order, for `seconds` and at least
/// `min_total` requests. Returns the logs and the wall time.
fn closed_loop(
    daemon: &Daemon,
    mix: &Mix,
    orders: &[Vec<usize>],
    starts: &[usize],
    (seconds, min_total): (f64, usize),
    time_frames: Option<u64>,
    deadline: Instant,
) -> (Vec<ClientLog>, f64) {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|s| {
        let hs: Vec<_> = orders
            .iter()
            .zip(starts)
            .enumerate()
            .map(|(c, (order, &start))| {
                let plan = Plan {
                    requests: &mix.requests,
                    refs: &mix.refs,
                    order,
                    start,
                    until,
                    min_requests: min_total.div_ceil(orders.len()),
                    hard_stop: deadline,
                    time_frames: time_frames.map(|seed| derive(seed, c as u64)),
                };
                s.spawn(move || client_loop(daemon.addr, &plan))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, secs(t0))
}

fn absorb(r: &mut Report, logs: &[ClientLog]) {
    for l in logs {
        r.ops.add(l.ops);
        for f in &l.failures {
            r.fail(f.clone());
        }
    }
}

/// Library-caller phase: encode and decode the mix images in `order` from
/// position `*pos` on one thread, checking both, for `seconds` and at
/// least `min` pairs. Appends to `calls`.
fn local_phase(
    mix: &Mix,
    order: &[usize],
    pos: &mut usize,
    (seconds, min): (f64, usize),
    deadline: Instant,
    calls: &mut Calls,
    r: &mut Report,
) {
    let params = EncoderParams::lossless();
    let t0 = Instant::now();
    let mut done = 0;
    while (secs(t0) < seconds || done < min) && Instant::now() < deadline {
        let k = order[*pos % order.len()];
        *pos += 1;
        done += 1;
        let ops = encode_decode(&mix.images[k], &params, &mix.refs[k], calls, r);
        r.ops.add(ops);
    }
}

/// One checked encode + decode of `im`: the op's accounting. When both
/// calls returned and passed their checks, their times join `calls`.
fn encode_decode(
    im: &Image,
    params: &EncoderParams,
    reference: &[u8],
    calls: &mut Calls,
    r: &mut Report,
) -> Ops {
    let enc_pace = Pace::now();
    let t0 = Instant::now();
    let encoded = encode_with(im, params, Encoder::Sequential);
    let e = ms(t0);
    let dec_pace = Pace::now();
    let t0 = Instant::now();
    let decoded = encoded
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|cs| j2k_core::decode(cs).map_err(|e| format!("decode: {e}")));
    let d = ms(t0);
    let verdict = encoded.and_then(|cs| {
        check::same_codestream(&cs, reference)?;
        let decoded = decoded?;
        if params.mode == j2k_core::Mode::Lossless {
            check::bit_exact(&decoded, im)
        } else {
            let db = psnr_db(im, &decoded)?;
            if db < PSNR_FLOOR_DB {
                Err(format!(
                    "lossy decode at {db:.2} dB is below {PSNR_FLOOR_DB} dB"
                ))
            } else {
                Ok(())
            }
        }
    });
    let mut ops = Ops {
        attempted: 1,
        ..Ops::default()
    };
    match verdict {
        Ok(()) => {
            ops.succeeded = 1;
            calls.enc.push(e * enc_pace.scale());
            calls.dec.push(d * dec_pace.scale());
            calls.enc_wall.push(e);
            calls.dec_wall.push(d);
            calls.yardstick.push(enc_pace.yardstick_ms);
            calls.yardstick.push(dec_pace.yardstick_ms);
        }
        Err(m) => {
            ops.failed = 1;
            r.fail(m);
        }
    }
    ops
}

pub fn serve_small(a: &Args, r: &mut Report) -> Result<(), String> {
    if a.trace {
        return serve_small_traced(a, r);
    }
    let (mix, daemon, setups) = serve_setup(a, r, SETUPS)?;
    setups.report(r);
    let orders = mix.orders(a.seed);

    // Alternate TCP and in-process slices, then top up each to the
    // samples its percentiles need.
    let slices = (a.seconds / SLICE_S).round().max(1.0) as usize;
    let slice = a.seconds / slices as f64;
    let mut starts = vec![0; orders.len()];
    let mut logs = Vec::new();
    let mut wall = 0.0;
    let (mut calls, mut pos) = (Calls::default(), 0);
    for k in 0..=slices {
        let sent: usize = logs.iter().map(|l: &ClientLog| l.sent).sum();
        let top_up = k == slices;
        let (secs_tcp, min_tcp) = if top_up {
            (0.0, MIN_REQUESTS.saturating_sub(sent))
        } else {
            (slice * TCP_SHARE, 0)
        };
        if !top_up || min_tcp > 0 {
            let (l, w) = closed_loop(
                &daemon,
                &mix,
                &orders,
                &starts,
                (secs_tcp, min_tcp),
                None,
                a.deadline,
            );
            for (st, cl) in starts.iter_mut().zip(&l) {
                *st += cl.sent;
            }
            logs.extend(l);
            wall += w;
        }
        let local = if top_up {
            (0.0, MIN_SAMPLES.saturating_sub(calls.len()))
        } else {
            (slice * (1.0 - TCP_SHARE), 0)
        };
        local_phase(&mix, &orders[0], &mut pos, local, a.deadline, &mut calls, r);
    }
    absorb(r, &logs);
    let rtts: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.rtts.iter().map(|x| x.1))
        .collect();
    let served: u64 = logs.iter().map(|l| l.ops.succeeded).sum();
    r.metric(
        "jobs_per_s",
        "1/s",
        served as f64 / wall,
        served as usize,
        "served/wall",
    );
    median_and_tail(r, ("latency_ms_p50", "latency_ms_p95"), &rtts, "")?;
    let rss = daemon.peak_rss_mb()?;
    calls.report(r)?;
    r.metric(
        "output_bpp",
        "bit/px",
        mix.bpp(),
        mix.refs.len(),
        "mix total",
    );
    let decoded = j2k_core::decode(&mix.refs[0]).map_err(|e| format!("decode: {e}"))?;
    r.metric(
        "psnr_db",
        "dB",
        psnr_db(&mix.images[0], &decoded)?,
        1,
        "exact",
    );
    r.metric("peak_rss_mb", "MiB", rss, 1, "daemon VmHWM");
    daemon.stop()
}

/// In-process closed loop with `CLIENTS` threads over the mix: each call
/// returns its checked outcome; collects (image, ms) samples until every
/// image has `MIN_SAMPLES` and `seconds` have passed.
fn in_process_loop<F>(
    orders: &[Vec<usize>],
    seconds: f64,
    deadline: Instant,
    call: F,
) -> (Vec<(usize, f64)>, Ops, Vec<String>)
where
    F: Fn(usize) -> Result<(), String> + Sync,
{
    let t0 = Instant::now();
    let rounds = MIN_SAMPLES.div_ceil(CLIENTS);
    let logs: Vec<_> = std::thread::scope(|s| {
        let hs: Vec<_> = orders
            .iter()
            .map(|order| {
                let call = &call;
                s.spawn(move || {
                    let mut out = (Vec::new(), Ops::default(), Vec::new());
                    let mut i = 0;
                    while (i < rounds * order.len() || secs(t0) < seconds)
                        && Instant::now() < deadline
                    {
                        let k = order[i % order.len()];
                        i += 1;
                        out.1.attempted += 1;
                        let t = Instant::now();
                        match call(k) {
                            Ok(()) => {
                                out.0.push((k, ms(t)));
                                out.1.succeeded += 1;
                            }
                            Err(e) => {
                                out.1.failed += 1;
                                out.2.push(e);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("in-process client panicked"))
            .collect()
    });
    let mut all = (Vec::new(), Ops::default(), Vec::new());
    for (v, o, f) in logs {
        all.0.extend(v);
        all.1.add(o);
        all.2.extend(f);
    }
    all
}

/// Guarded per-image medians of (image, ms) samples.
fn per_image_p50(samples: &[(usize, f64)], images: usize) -> Result<Vec<f64>, String> {
    (0..images)
        .map(|k| {
            let v: Vec<f64> = samples.iter().filter(|s| s.0 == k).map(|s| s.1).collect();
            p50(&v)
        })
        .collect()
}

fn serve_small_traced(a: &Args, r: &mut Report) -> Result<(), String> {
    let (mix, daemon, _) = serve_setup(a, r, 1)?;
    let orders = mix.orders(a.seed);
    let params = EncoderParams::lossless();
    counters::reset();

    // Wire: a seeded half of the requests time their frame work.
    let (logs, _) = closed_loop(
        &daemon,
        &mix,
        &orders,
        &[0; CLIENTS],
        (a.seconds * 0.4, MIN_REQUESTS),
        Some(a.seed),
        a.deadline,
    );
    absorb(r, &logs);
    let rtt = |timed: bool| -> Vec<(usize, f64)> {
        logs.iter()
            .flat_map(|l| l.rtts.iter().filter(|x| x.2 == timed).map(|x| (x.0, x.1)))
            .collect()
    };
    let (plain, timed) = (rtt(false), rtt(true));
    let frame_us: Vec<f64> = logs.iter().flat_map(|l| l.frame_us.clone()).collect();

    // Service: the same closed loop in process, then the direct call it wraps.
    counters::set_enabled(true);
    let cfg = ServiceConfig {
        pool_threads: 2,
        workers_per_job: 1,
        ..ServiceConfig::default()
    };
    let svc = EncodeService::start(cfg);
    let (sw, ops, fails) = in_process_loop(&orders, a.seconds * 0.1, a.deadline, |k| {
        let job = EncodeJob::new(mix.images[k].clone(), params);
        let h = svc.submit(job).map_err(|e| format!("submit: {e:?}"))?;
        match h.wait() {
            JobOutcome::Completed {
                codestream,
                degraded: false,
                ..
            } => check::same_codestream(&codestream, &mix.refs[k]),
            other => Err(format!("service outcome {other:?}")),
        }
    });
    svc.shutdown();
    r.ops.add(ops);
    fails.into_iter().for_each(|f| r.fail(f));
    let opts = ParallelOptions::default();
    let (direct, ops, fails) = in_process_loop(&orders, a.seconds * 0.1, a.deadline, |k| {
        let (cs, _) = j2k_core::encode_parallel_ctl(&mix.images[k], &params, 1, &opts, None)
            .map_err(|e| format!("encode_parallel_ctl: {e}"))?;
        check::same_codestream(&cs, &mix.refs[k])
    });
    r.ops.add(ops);
    fails.into_iter().for_each(|f| r.fail(f));
    let sw_med = per_image_p50(&sw, mix.images.len())?;
    let direct_med = per_image_p50(&direct, mix.images.len())?;
    let residue: Vec<f64> = plain.iter().map(|&(k, t)| t - sw_med[k]).collect();
    let overhead: Vec<f64> = sw.iter().map(|&(k, t)| t - direct_med[k]).collect();
    let sw_ms: Vec<f64> = sw.iter().map(|s| s.1).collect();
    r.metric(
        "wire.residue_ms_p50",
        "ms",
        p50(&residue)?,
        residue.len(),
        "p50",
    );
    r.metric(
        "wire.frame_us_p50",
        "us",
        p50(&frame_us)?,
        frame_us.len(),
        "p50",
    );
    r.metric(
        "service.submit_wait_ms_p50",
        "ms",
        p50(&sw_ms)?,
        sw_ms.len(),
        "p50",
    );
    r.metric(
        "service.overhead_ms_p50",
        "ms",
        p50(&overhead)?,
        overhead.len(),
        "p50",
    );

    // Codec layers on the mix, one caller.
    let preps = mix
        .images
        .iter()
        .zip(&mix.refs)
        .map(|(im, cs)| Prep::new(im, &params, cs))
        .collect::<Result<Vec<_>, _>>()?;
    let t0 = Instant::now();
    let mut rounds = Rounds::default();
    let mut i = 0;
    while (rounds.encode.len() < MIN_SAMPLES || secs(t0) < a.seconds * 0.3)
        && Instant::now() < a.deadline
    {
        let k = orders[0][i % mix.images.len()];
        i += 1;
        rounds.run(&mix.images[k], &params, &preps[k], &mix.refs[k], r);
    }
    counters::set_enabled(false);
    rounds.report(r, false)?;
    kernel_metrics(r);

    let p_plain: Vec<f64> = plain.iter().map(|x| x.1).collect();
    let p_timed: Vec<f64> = timed.iter().map(|x| x.1).collect();
    r.metric(
        "trace.overhead_share",
        "share",
        p50(&p_timed)? / p50(&p_plain)? - 1.0,
        p_timed.len() + p_plain.len(),
        "p50 timed / p50 plain - 1",
    );
    daemon.stop()
}

// ---------------------------------------------------------------------------
// Codec layer rounds (shared by every traced run)
// ---------------------------------------------------------------------------

/// Per-round samples of the codec's calls and layers.
#[derive(Default)]
struct Rounds {
    encode: Vec<f64>,
    w1: Vec<f64>,
    w2: Vec<f64>,
    decode: Vec<f64>,
    layers: Vec<LayerTimes>,
}

impl Rounds {
    /// One round on one image: sequential encode, its layers, decode,
    /// then encode_parallel at one and two workers. Each call sits next
    /// to the one it is compared with (encode and its layers, Tier-1
    /// decode and decode), so host speed drift between them stays small.
    /// All outputs checked.
    fn run(
        &mut self,
        im: &Image,
        p: &EncoderParams,
        prep: &Prep,
        reference: &[u8],
        r: &mut Report,
    ) {
        let encode = |encoder: Encoder, out: &mut Vec<f64>| {
            let t0 = Instant::now();
            let cs = encode_with(im, p, encoder);
            out.push(ms(t0));
            cs.and_then(|cs| check::same_codestream(&cs, reference))
        };
        let mut results = vec![encode(Encoder::Sequential, &mut self.encode)];
        results.push(prep.layers(im).map(|t| self.layers.push(t)));
        let t0 = Instant::now();
        let decoded = j2k_core::decode(reference).map_err(|e| format!("decode: {e}"));
        self.decode.push(ms(t0));
        let lossless = p.mode == j2k_core::Mode::Lossless;
        results.push(decoded.and_then(|d| {
            if lossless {
                check::bit_exact(&d, im)
            } else {
                Ok(())
            }
        }));
        results.push(encode(Encoder::Parallel(1), &mut self.w1));
        results.push(encode(Encoder::Parallel(2), &mut self.w2));
        for res in results {
            r.ops.attempted += 1;
            match res {
                Ok(()) => r.ops.succeeded += 1,
                Err(e) => {
                    r.ops.failed += 1;
                    r.fail(e);
                }
            }
        }
    }

    /// Layer metrics. Shares are of the sequential `encode` (or `decode`)
    /// timed in the same rounds, as ratios of sums, so the layers of one
    /// call reconcile with it. `check_coverage` fails the run when the
    /// layers explain less than 90% of the encode in the median round.
    fn report(&self, r: &mut Report, check_coverage: bool) -> Result<(), String> {
        let n = self.layers.len();
        let col = |f: fn(&LayerTimes) -> f64| -> Vec<f64> { self.layers.iter().map(f).collect() };
        let (tr, t1, rc, t1d) = (
            col(|t| t.transform),
            col(|t| t.tier1),
            col(|t| t.rate),
            col(|t| t.tier1_dec),
        );
        let enc = sum(&self.encode);
        let dec = sum(&self.decode);
        let t1_s = sum(&t1) / 1e3;
        let samples: u64 = self.layers.iter().map(|t| t.samples).sum();
        let symbols: u64 = self.layers.iter().map(|t| t.symbols).sum();

        r.metric(
            "parallel.w1_overhead_ratio",
            "ratio",
            sum(&self.w1) / enc,
            n,
            "sum w1 / sum encode",
        );
        r.metric(
            "parallel.speedup_w2",
            "ratio",
            sum(&self.w1) / sum(&self.w2),
            n,
            "sum w1 / sum w2",
        );
        r.metric("transform.ms_p50", "ms", p50(&tr)?, n, "p50");
        r.metric("transform.share", "share", sum(&tr) / enc, n, "of encode");
        r.metric("tier1.ms_p50", "ms", p50(&t1)?, n, "p50");
        r.metric("tier1.share", "share", sum(&t1) / enc, n, "of encode");
        r.metric(
            "tier1.msamples_s",
            "Msample/s",
            samples as f64 / t1_s / 1e6,
            n,
            "sum/sum",
        );
        r.metric(
            "tier1.msym_s",
            "Msym/s",
            symbols as f64 / t1_s / 1e6,
            n,
            "sum/sum",
        );
        r.metric("tier1_dec.ms_p50", "ms", p50(&t1d)?, n, "p50");
        r.metric("tier1_dec.share", "share", sum(&t1d) / dec, n, "of decode");
        r.metric("rate.ms_p50", "ms", p50(&rc)?, n, "p50");
        r.metric("rate.share", "share", sum(&rc) / enc, n, "of encode");
        // Reconciliation per round: the encode against its own layers.
        let (mut covered, mut rest) = (Vec::new(), Vec::new());
        for (t, e) in self.layers.iter().zip(&self.encode) {
            let layers = t.transform + t.tier1 + t.rate;
            covered.push(layers / e);
            rest.push(e - layers);
        }
        let coverage = p50(&covered)?;
        r.metric(
            "trace.coverage",
            "share",
            coverage,
            n,
            "p50 of layers / encode",
        );
        r.metric(
            "trace.residue_ms",
            "ms",
            p50(&rest)?,
            n,
            "p50 of encode - layers",
        );
        if check_coverage && coverage < 0.9 {
            r.fail(format!(
                "layers explain {:.1}% of encode_ms_p50; need 90%",
                coverage * 100.0
            ));
        }
        Ok(())
    }
}

/// The counted sample kernels, read once per traced run.
const SAMPLE_KERNELS: [(Kernel, &str); 7] = [
    (Kernel::MctRct, "kernel.mct_rct.gbps"),
    (Kernel::MctIct, "kernel.mct_ict.gbps"),
    (Kernel::Dwt53Vertical, "kernel.dwt53_vertical.gbps"),
    (Kernel::Dwt53Horizontal, "kernel.dwt53_horizontal.gbps"),
    (Kernel::Dwt97Vertical, "kernel.dwt97_vertical.gbps"),
    (Kernel::Dwt97Horizontal, "kernel.dwt97_horizontal.gbps"),
    (Kernel::Quantize, "kernel.quantize.gbps"),
];

/// Kernel throughput from `obs::counters`, snapshotted once after the run
/// (reset before it). A kernel the workload never calls reads 0.
fn kernel_metrics(r: &mut Report) {
    let snap = counters::snapshot();
    let of = |k: Kernel| snap.iter().find(|s| s.kernel == k).copied();
    for (k, name) in SAMPLE_KERNELS {
        let s = of(k).expect("every kernel is snapshotted");
        r.metric(
            name,
            "GB/s",
            s.gb_per_sec(),
            s.invocations as usize,
            "counters",
        );
    }
    let t1 = of(Kernel::Tier1Mq).expect("every kernel is snapshotted");
    r.metric(
        "kernel.tier1_mq.msym_s",
        "Msym/s",
        t1.symbols_per_sec() / 1e6,
        t1.invocations as usize,
        "counters",
    );
}

// ---------------------------------------------------------------------------
// large_lossless / large_lossy
// ---------------------------------------------------------------------------

struct Large {
    image: Image,
    params: EncoderParams,
    reference: Vec<u8>,
}

/// The large RGB image: `natural_rgb` tiles with independent seeds.
fn mosaic(seed: u64) -> Image {
    let mut im = Image::new(LARGE_SIDE, LARGE_SIDE, 3, 8).expect("valid geometry");
    let per_row = LARGE_SIDE / TILE_SIDE;
    for t in 0..per_row * per_row {
        let tile = imgio::synth::natural_rgb(TILE_SIDE, TILE_SIDE, derive(seed, t as u64));
        let (x0, y0) = ((t % per_row) * TILE_SIDE, (t / per_row) * TILE_SIDE);
        for (dst, src) in im.planes.iter_mut().zip(&tile.planes) {
            for y in 0..TILE_SIDE {
                let row = &src[y * TILE_SIDE..][..TILE_SIDE];
                dst[(y0 + y) * LARGE_SIDE + x0..][..TILE_SIDE].copy_from_slice(row);
            }
        }
    }
    im
}

fn large_setup(
    a: &Args,
    lossy: bool,
    r: &mut Report,
    setups: usize,
) -> Result<(Large, Setups), String> {
    let params = if lossy {
        EncoderParams::lossy(LOSSY_RATE)
    } else {
        EncoderParams::lossless()
    };
    let mut times = Setups::default();
    let mut kept = None;
    for _ in 0..setups {
        kept = Some(times.time(|| {
            let image = mosaic(a.seed);
            let reference = encode_with(&image, &params, Encoder::Sequential)?;
            Ok(Large {
                image,
                params,
                reference,
            })
        })?);
    }
    let l = kept.ok_or("no set-up ran")?;
    if let Err(e) = check::corrupted_codestream_is_caught(&l.reference, a.seed) {
        r.fail(format!("self-test: {e}"));
    }
    Ok((l, times))
}

pub fn large(a: &Args, lossy: bool, r: &mut Report) -> Result<(), String> {
    if a.trace {
        return large_traced(a, lossy, r);
    }
    let (l, setups) = large_setup(a, lossy, r, SETUPS)?;
    setups.report(r);
    // The parallel encoder's fan-out must reproduce the sequential bytes.
    r.ops.attempted += 1;
    let fan_out = encode_with(&l.image, &l.params, Encoder::Parallel(FAN_OUT));
    match fan_out.and_then(|cs| check::same_codestream(&cs, &l.reference)) {
        Ok(()) => r.ops.succeeded += 1,
        Err(e) => {
            r.ops.failed += 1;
            r.fail(e);
        }
    }
    let mut calls = Calls::default();
    let t0 = Instant::now();
    // The minimum counts attempts, so a codec whose outputs fail their
    // checks ends the run on time instead of at the deadline.
    let mut attempted = 0;
    while (secs(t0) < a.seconds || attempted < MIN_SAMPLES) && Instant::now() < a.deadline {
        let ops = encode_decode(&l.image, &l.params, &l.reference, &mut calls, r);
        r.ops.add(ops);
        attempted += 1;
    }
    // One op is an encode + decode pair; its latency is the two calls'.
    let lat: Vec<f64> = calls
        .enc
        .iter()
        .zip(&calls.dec)
        .map(|(e, d)| e + d)
        .collect();
    r.metric(
        "jobs_per_s",
        "1/s",
        1e3 * lat.len() as f64 / sum(&lat),
        lat.len(),
        "ops/call time, host-scaled",
    );
    median_and_tail(
        r,
        ("latency_ms_p50", "latency_ms_p95"),
        &lat,
        ", host-scaled",
    )?;
    calls.report(r)?;
    let px = (l.image.width * l.image.height) as f64;
    r.metric(
        "output_bpp",
        "bit/px",
        (l.reference.len() * 8) as f64 / px,
        1,
        "exact",
    );
    let decoded = j2k_core::decode(&l.reference).map_err(|e| format!("decode: {e}"))?;
    r.metric("psnr_db", "dB", psnr_db(&l.image, &decoded)?, 1, "exact");
    r.metric("peak_rss_mb", "MiB", own_peak_rss_mb()?, 1, "own VmHWM");
    Ok(())
}

fn large_traced(a: &Args, lossy: bool, r: &mut Report) -> Result<(), String> {
    let (l, _) = large_setup(a, lossy, r, 1)?;
    let prep = Prep::new(&l.image, &l.params, &l.reference)?;

    counters::reset();
    let mut rounds = Rounds::default();
    let mut plain = Vec::new();
    let t0 = Instant::now();
    while (rounds.encode.len() < MIN_SAMPLES || secs(t0) < a.seconds) && Instant::now() < a.deadline
    {
        let t = Instant::now();
        let cs = encode_with(&l.image, &l.params, Encoder::Sequential);
        plain.push(ms(t));
        r.ops.attempted += 1;
        match cs.and_then(|cs| check::same_codestream(&cs, &l.reference)) {
            Ok(()) => r.ops.succeeded += 1,
            Err(e) => {
                r.ops.failed += 1;
                r.fail(e);
            }
        }
        counters::set_enabled(true);
        rounds.run(&l.image, &l.params, &prep, &l.reference, r);
        counters::set_enabled(false);
    }
    let traced = &rounds.encode;
    // The caller is in process: no wire or service on this path.
    for (name, unit) in [
        ("wire.residue_ms_p50", "ms"),
        ("wire.frame_us_p50", "us"),
        ("service.submit_wait_ms_p50", "ms"),
        ("service.overhead_ms_p50", "ms"),
    ] {
        r.metric(name, unit, 0.0, 0, "not on this path");
    }
    rounds.report(r, !lossy)?;
    kernel_metrics(r);
    r.metric(
        "trace.overhead_share",
        "share",
        p50(traced)? / p50(&plain)? - 1.0,
        traced.len() + plain.len(),
        "p50 counted / p50 plain - 1",
    );
    Ok(())
}
