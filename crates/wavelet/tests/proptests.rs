//! Property tests: perfect reconstruction and variant equivalence over
//! arbitrary image content and geometry.

use proptest::prelude::*;
use wavelet::rowops::Region;
use wavelet::vertical::VerticalVariant;
use wavelet::{forward_2d_53, forward_2d_97, inverse_2d_53, inverse_2d_97};
use xpart::AlignedPlane;

fn plane_strategy() -> impl Strategy<Value = (AlignedPlane<i32>, usize)> {
    (2usize..48, 2usize..48, 1usize..5, any::<u32>()).prop_map(|(w, h, levels, seed)| {
        let mut p = AlignedPlane::<i32>::new(w, h).unwrap();
        let mut x = seed | 1;
        p.for_each_mut(|_, _, v| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            *v = ((x >> 7) % 2047) as i32 - 1023; // ~11-bit dynamic range
        });
        (p, levels)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dwt53_perfect_reconstruction((p0, levels) in plane_strategy()) {
        for variant in [
            VerticalVariant::Separate,
            VerticalVariant::Interleaved,
            VerticalVariant::Merged,
        ] {
            let mut p = p0.clone();
            forward_2d_53(&mut p, levels, variant);
            inverse_2d_53(&mut p, levels);
            prop_assert_eq!(p.to_dense(), p0.to_dense(), "{:?}", variant);
        }
    }

    #[test]
    fn dwt53_variants_identical((p0, levels) in plane_strategy()) {
        let mut a = p0.clone();
        let mut b = p0.clone();
        let mut c = p0.clone();
        forward_2d_53(&mut a, levels, VerticalVariant::Separate);
        forward_2d_53(&mut b, levels, VerticalVariant::Interleaved);
        forward_2d_53(&mut c, levels, VerticalVariant::Merged);
        prop_assert_eq!(a.to_dense(), b.to_dense());
        prop_assert_eq!(a.to_dense(), c.to_dense());
    }

    #[test]
    fn dwt97_reconstruction_close((p0, levels) in plane_strategy()) {
        let f0 = p0.to_f32();
        let mut f = f0.clone();
        forward_2d_97(&mut f, levels, VerticalVariant::Merged);
        inverse_2d_97(&mut f, levels);
        for (g, e) in f.to_dense().iter().zip(f0.to_dense()) {
            prop_assert!((g - e).abs() < 0.5, "{} vs {}", g, e);
        }
    }

    #[test]
    fn dwt97_variants_bit_identical((p0, levels) in plane_strategy()) {
        let f0 = p0.to_f32();
        let mut a = f0.clone();
        let mut b = f0.clone();
        let mut c = f0.clone();
        forward_2d_97(&mut a, levels, VerticalVariant::Separate);
        forward_2d_97(&mut b, levels, VerticalVariant::Interleaved);
        forward_2d_97(&mut c, levels, VerticalVariant::Merged);
        prop_assert_eq!(a.to_dense(), b.to_dense());
        prop_assert_eq!(a.to_dense(), c.to_dense());
    }

    #[test]
    fn vertical_outside_region_untouched(
        (p0, _) in plane_strategy(),
        fx in 0.0f64..0.5,
        fw in 0.3f64..1.0,
    ) {
        // Column-group processing must never write outside its group. Any
        // x0 that is not a multiple of 4 puts the region's row base off
        // every vector-width boundary; the variants must still agree and
        // the inverse must restore the plane.
        let w = p0.width();
        let x0 = ((w as f64 * fx) as usize).min(w - 1);
        let gw = (((w - x0) as f64 * fw) as usize).max(1);
        let region = Region { x0, y0: 0, w: gw, h: p0.height() };
        let mut want = p0.clone();
        wavelet::vertical::fwd53_vertical(&mut want, region, VerticalVariant::Merged);
        for y in 0..p0.height() {
            for x in 0..w {
                if !(x0..x0 + gw).contains(&x) {
                    prop_assert_eq!(want.get(x, y), p0.get(x, y));
                }
            }
        }
        for variant in [VerticalVariant::Separate, VerticalVariant::Interleaved] {
            let mut p = p0.clone();
            wavelet::vertical::fwd53_vertical(&mut p, region, variant);
            prop_assert_eq!(p.to_dense(), want.to_dense(), "{:?} x0={}", variant, x0);
        }
        wavelet::vertical::inv53_vertical(&mut want, region);
        prop_assert_eq!(want.to_dense(), p0.to_dense(), "x0={}", x0);
    }

    #[test]
    fn column_group_processing_equals_whole_plane(
        (p0, _) in plane_strategy(),
        ngroups in 1usize..5,
    ) {
        // The paper's column grouping: filtering each group independently
        // must equal filtering the whole plane at once.
        let w = p0.width();
        let mut whole = p0.clone();
        wavelet::vertical::fwd53_vertical(
            &mut whole, Region::full(&p0), VerticalVariant::Merged);
        let mut grouped = p0.clone();
        let gw = w.div_ceil(ngroups);
        let mut x0 = 0;
        while x0 < w {
            let g = gw.min(w - x0);
            let region = Region { x0, y0: 0, w: g, h: p0.height() };
            wavelet::vertical::fwd53_vertical(&mut grouped, region, VerticalVariant::Merged);
            x0 += g;
        }
        prop_assert_eq!(grouped.to_dense(), whole.to_dense());
    }
}
