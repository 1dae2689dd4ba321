//! Discrete wavelet transforms for the JPEG2000-on-Cell reproduction.
//!
//! Implements the two JPEG2000 Part 1 filter banks and the loop-scheduling
//! variants studied in Section 4 of Kang & Bader (ICPP 2008):
//!
//! * **Reversible 5/3** (lossless): integer lifting, exactly invertible.
//! * **Irreversible 9/7** (lossy): four-step lifting in `f32` (the paper's
//!   choice for the Cell SPE) and in Jasper-style Q13 fixed point (the
//!   representation the paper *replaces*), plus a convolution baseline
//!   matching Muta et al.'s approach.
//!
//! The vertical (column) filter comes in three scheduling variants that all
//! produce identical outputs but move different amounts of data — the key
//! trade-off of the paper:
//!
//! | variant | passes over the column group (5/3) | passes (9/7) |
//! |---|---|---|
//! | [`VerticalVariant::Separate`] (Algorithm 1) | split + 2 lifting = 3 | split + 4 lifting + scale = 6 |
//! | [`VerticalVariant::Interleaved`] (Algorithm 2) | split + 1 fused = 2 | split + 1 fused = 2 |
//! | [`VerticalVariant::Merged`] | 1 fused + ½ aux copy = 1.5 | 1 fused + ½ aux copy = 1.5 |
//!
//! `Merged` folds the split step into the fused lifting loop; because the
//! in-place update of the high-pass rows would overwrite not-yet-read input
//! rows, the high half is staged through an auxiliary buffer whose traffic is
//! half the column group ("this halves the amount of data transfer for the
//! splitting step").

pub mod conv;
pub mod dispatch;
pub mod fixed;
pub mod horizontal;
pub mod line;
pub mod norms;
pub mod rowops;
pub mod transform2d;
pub mod vertical;

pub use rowops::{Region, Rows, SharedPlane};
pub use transform2d::{
    forward_2d_53, forward_2d_97, inverse_2d_53, inverse_2d_97, level_regions, subbands, Band,
    Subband,
};
pub use vertical::VerticalVariant;

/// Which filter bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Filter {
    /// Reversible Le Gall 5/3 (lossless path).
    Rev53,
    /// Irreversible CDF 9/7 (lossy path).
    Irr97,
}

/// 9/7 lifting constants (JPEG2000 Part 1, Annex F.4.8.2).
pub mod consts {
    /// First predict step.
    pub const ALPHA: f32 = -1.586_134_3;
    /// First update step.
    pub const BETA: f32 = -0.052_980_118;
    /// Second predict step.
    pub const GAMMA: f32 = 0.882_911_1;
    /// Second update step.
    pub const DELTA: f32 = 0.443_506_85;
    /// Scaling constant; low-pass samples scale by `1/K`, high-pass by `K`.
    pub const K: f32 = 1.230_174_1;
    /// `1/K`.
    pub const INV_K: f32 = 1.0 / K;
}

/// Number of low-pass samples produced from an extent of `n`.
#[inline]
pub fn low_len(n: usize) -> usize {
    n - n / 2
}

/// Number of high-pass samples produced from an extent of `n`.
#[inline]
pub fn high_len(n: usize) -> usize {
    n / 2
}

/// Data-movement accounting for one vertical filtering of a `w x h` region,
/// in elements. These analytic counts drive the `cellsim` DMA model; the
/// unit tests pin them against hand-computed values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Elements loaded from main memory (GET).
    pub loads: u64,
    /// Elements stored to main memory (PUT).
    pub stores: u64,
}

impl Traffic {
    /// Total elements moved.
    pub fn total(&self) -> u64 {
        self.loads + self.stores
    }

    /// Element-wise sum.
    pub fn add(&self, o: &Traffic) -> Traffic {
        Traffic {
            loads: self.loads + o.loads,
            stores: self.stores + o.stores,
        }
    }
}

/// Analytic DMA traffic of one *vertical* filtering pass over a `w x h`
/// region under the given variant and filter, in elements.
///
/// Each "pass" streams the whole region in and out once (`2*w*h`); the
/// merged variant additionally stages the high half through the auxiliary
/// buffer (`2 * w * h/2` extra: one store to + one load from the buffer).
pub fn vertical_traffic(variant: VerticalVariant, filter: Filter, w: u64, h: u64) -> Traffic {
    let full = w * h;
    let half = w * (h / 2);
    let passes: u64 = match (variant, filter) {
        (VerticalVariant::Separate, Filter::Rev53) => 3, // split + 2 lifting
        (VerticalVariant::Separate, Filter::Irr97) => 6, // split + 4 lifting + scale
        (VerticalVariant::Interleaved, _) => 2,          // split + fused lifting
        (VerticalVariant::Merged, _) => 1,               // fused single loop
    };
    let mut t = Traffic {
        loads: passes * full,
        stores: passes * full,
    };
    if variant == VerticalVariant::Merged {
        // High half staged through the auxiliary buffer and copied back.
        t.loads += half;
        t.stores += half;
    }
    t
}

/// Analytic DMA traffic of one *horizontal* filtering pass (always a single
/// in/out stream of the region: each row is transformed independently in the
/// Local Store).
pub fn horizontal_traffic(w: u64, h: u64) -> Traffic {
    Traffic {
        loads: w * h,
        stores: w * h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_lengths() {
        assert_eq!(low_len(8), 4);
        assert_eq!(high_len(8), 4);
        assert_eq!(low_len(9), 5);
        assert_eq!(high_len(9), 4);
        assert_eq!(low_len(1), 1);
        assert_eq!(high_len(1), 0);
    }

    #[test]
    fn traffic_ratios_match_paper_story() {
        // Lossless: separate/interleaved/merged pass counts 3/2/1.5.
        let sep = vertical_traffic(VerticalVariant::Separate, Filter::Rev53, 100, 64);
        let int = vertical_traffic(VerticalVariant::Interleaved, Filter::Rev53, 100, 64);
        let mer = vertical_traffic(VerticalVariant::Merged, Filter::Rev53, 100, 64);
        assert_eq!(sep.total(), 3 * 2 * 6400);
        assert_eq!(int.total(), 2 * 2 * 6400);
        assert_eq!(mer.total(), 2 * 6400 + 6400); // one pass + aux half both ways
        assert!(mer.total() < int.total());
        // Lossy separate is 6 passes.
        let sep97 = vertical_traffic(VerticalVariant::Separate, Filter::Irr97, 100, 64);
        assert_eq!(sep97.total(), 6 * 2 * 6400);
    }

    #[test]
    fn traffic_add() {
        let a = Traffic {
            loads: 1,
            stores: 2,
        };
        let b = Traffic {
            loads: 10,
            stores: 20,
        };
        assert_eq!(
            a.add(&b),
            Traffic {
                loads: 11,
                stores: 22
            }
        );
    }
}
