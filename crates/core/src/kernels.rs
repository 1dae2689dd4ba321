//! Row-granular MCT / level-shift / quantization kernels.
//!
//! Like the DWT row primitives in `wavelet::rowops`, these are plain slice
//! loops that LLVM autovectorizes; they are the only implementation.
//! Hand-written SSE2 versions measured 0.83–1.02x on the MCT kernels, and
//! quantize only won while its scalar form could not vectorize (DESIGN.md
//! section 18).
//!
//! The inverse ICT lives in [`crate::mct`]: its `(x + shift).round()` is
//! round-half-away-from-zero, which does not vectorize cheaply, and the
//! decode path is not performance-critical.

/// Forward RCT with level shift, in place on three component rows.
pub fn rct_forward_row(r: &mut [i32], g: &mut [i32], b: &mut [i32], shift: i32) {
    let n = r.len().min(g.len()).min(b.len());
    for i in 0..n {
        let rv = r[i] - shift;
        let gv = g[i] - shift;
        let bv = b[i] - shift;
        r[i] = (rv + 2 * gv + bv) >> 2;
        g[i] = bv - gv;
        b[i] = rv - gv;
    }
}

/// Inverse RCT with level unshift, in place (Y/U/V rows become R/G/B).
pub fn rct_inverse_row(y: &mut [i32], u: &mut [i32], v: &mut [i32], shift: i32) {
    let n = y.len().min(u.len()).min(v.len());
    for i in 0..n {
        let g = y[i] - ((u[i] + v[i]) >> 2);
        let r = v[i] + g;
        let b = u[i] + g;
        y[i] = r + shift;
        u[i] = g + shift;
        v[i] = b + shift;
    }
}

/// Forward ICT with level shift: integer R/G/B rows in, float Y/Cb/Cr out.
#[allow(clippy::too_many_arguments)]
pub fn ict_forward_row(
    r: &[i32],
    g: &[i32],
    b: &[i32],
    yy: &mut [f32],
    cb: &mut [f32],
    cr: &mut [f32],
    shift: f32,
) {
    let n = r.len().min(g.len()).min(b.len());
    for i in 0..n {
        let rv = r[i] as f32 - shift;
        let gv = g[i] as f32 - shift;
        let bv = b[i] as f32 - shift;
        yy[i] = 0.299 * rv + 0.587 * gv + 0.114 * bv;
        cb[i] = -0.168_736 * rv - 0.331_264 * gv + 0.5 * bv;
        cr[i] = 0.5 * rv - 0.418_688 * gv - 0.081_312 * bv;
    }
}

/// Level shift a row in place: `v -= shift`.
pub fn level_shift_row(row: &mut [i32], shift: i32) {
    for v in row.iter_mut() {
        *v -= shift;
    }
}

/// Dead-zone quantize a row of `f32` coefficients into `i32` indices.
///
/// Bit-identical to [`crate::quant::quantize`] per sample, written without
/// the `i64` round trip so LLVM vectorizes the `f64` divide: `max`
/// returns `0.0` for a NaN quotient and clamps a negative one (negative
/// `delta`), `min` saturates quotients at or above `2^31 - 1`, and the
/// final `as i32` truncates toward zero like the reference `as i64`.
pub fn quantize_row(src: &[f32], dst: &mut [i32], delta: f64) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = quantize_one(v, delta);
    }
}

/// Dead-zone quantize a row of Q13 fixed-point coefficients
/// (`value = raw / 2^13`), matching the fixed DWT path.
pub fn quantize_q13_row(src: &[i32], dst: &mut [i32], delta: f64) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = quantize_one(v as f32 / 8192.0, delta);
    }
}

#[inline]
fn quantize_one(v: f32, delta: f64) -> i32 {
    let q = (v.abs() as f64 / delta).max(0.0).min(i32::MAX as f64) as i32;
    if v < 0.0 {
        -q
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize;

    fn pcg(seed: &mut u64) -> u32 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 33) as u32
    }

    #[test]
    fn rct_forward_then_inverse_is_identity() {
        let mut s = 7u64;
        for n in 0..=19usize {
            let r0: Vec<i32> = (0..n).map(|_| pcg(&mut s) as i32 % 4096).collect();
            let g0: Vec<i32> = (0..n).map(|_| pcg(&mut s) as i32 % 4096).collect();
            let b0: Vec<i32> = (0..n).map(|_| pcg(&mut s) as i32 % 4096).collect();
            let (mut r, mut g, mut b) = (r0.clone(), g0.clone(), b0.clone());
            rct_forward_row(&mut r, &mut g, &mut b, 128);
            rct_inverse_row(&mut r, &mut g, &mut b, 128);
            assert_eq!((r, g, b), (r0, g0, b0), "n={n}");
        }
    }

    #[test]
    fn ict_row_matches_per_sample_expression() {
        let mut s = 9u64;
        for n in 0..=19usize {
            let r: Vec<i32> = (0..n).map(|_| pcg(&mut s) as i32 % 65536).collect();
            let g: Vec<i32> = (0..n).map(|_| pcg(&mut s) as i32 % 65536).collect();
            let b: Vec<i32> = (0..n).map(|_| pcg(&mut s) as i32 % 65536).collect();
            let (mut y, mut cb, mut cr) = (vec![0f32; n], vec![0f32; n], vec![0f32; n]);
            ict_forward_row(&r, &g, &b, &mut y, &mut cb, &mut cr, 128.0);
            for i in 0..n {
                let (rv, gv, bv) = (
                    r[i] as f32 - 128.0,
                    g[i] as f32 - 128.0,
                    b[i] as f32 - 128.0,
                );
                let want = [
                    0.299 * rv + 0.587 * gv + 0.114 * bv,
                    -0.168_736 * rv - 0.331_264 * gv + 0.5 * bv,
                    0.5 * rv - 0.418_688 * gv - 0.081_312 * bv,
                ];
                let got = [y[i], cb[i], cr[i]];
                assert_eq!(got.map(f32::to_bits), want.map(f32::to_bits), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn quantize_row_matches_reference_including_edges() {
        let special = [
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            1e30,
            -1e30,
            0.4999,
            -0.4999,
            2_147_483_520.0, // largest f32 below 2^31
            2_147_483_648.0,
            -2_147_483_648.0,
        ];
        let deltas = [0.5f64, 1.0, 1e-30, 0.0, -0.0, -0.5, f64::NAN, f64::INFINITY];
        for delta in deltas {
            let mut src: Vec<f32> = special.to_vec();
            let mut s = 11u64;
            for _ in 0..37 {
                src.push((pcg(&mut s) as i32 % 100000) as f32 * 0.037);
            }
            for _ in 0..64 {
                src.push(f32::from_bits(pcg(&mut s)));
            }
            let mut got = vec![0i32; src.len()];
            quantize_row(&src, &mut got, delta);
            let want: Vec<i32> = src.iter().map(|&v| quantize(v, delta)).collect();
            assert_eq!(got, want, "delta={delta}");
        }
    }

    #[test]
    fn quantize_q13_row_matches_reference() {
        let mut s = 13u64;
        let src: Vec<i32> = (0..41)
            .map(|_| pcg(&mut s) as i32)
            .chain([i32::MAX, i32::MIN, 0, -1, 1])
            .collect();
        for delta in [0.25f64, 3.7, 1e-9] {
            let mut got = vec![0i32; src.len()];
            quantize_q13_row(&src, &mut got, delta);
            let want: Vec<i32> = src
                .iter()
                .map(|&v| quantize(v as f32 / 8192.0, delta))
                .collect();
            assert_eq!(got, want, "delta={delta}");
        }
    }
}
