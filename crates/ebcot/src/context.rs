//! Context assignment for Tier-1 bit modeling (JPEG2000 Annex D).
//!
//! Context labels 0..=18:
//! * 0..=8   — zero coding (significance), band-orientation dependent;
//! * 9..=13  — sign coding (plus an XOR flip bit);
//! * 14..=16 — magnitude refinement;
//! * 17      — run-length (cleanup run mode);
//! * 18      — UNIFORM (near-equiprobable side information).

use mqcoder::{Contexts, CtxState};

/// Number of adaptive contexts.
pub const NUM_CTX: usize = 19;
/// Run-length context label.
pub const CTX_RL: usize = 17;
/// UNIFORM context label.
pub const CTX_UNI: usize = 18;
/// First sign context label.
pub const CTX_SIGN0: usize = 9;
/// First magnitude-refinement context label.
pub const CTX_MAG0: usize = 14;

/// Fresh context bank with the standard initial states:
/// all-zero-neighborhood significance context at state 4, run-length at
/// state 3, UNIFORM at state 46, everything else at state 0.
pub fn initial_contexts() -> Contexts {
    let mut c = Contexts::new(NUM_CTX);
    c.set(0, CtxState::at(4));
    c.set(CTX_RL, CtxState::at(3));
    c.set(CTX_UNI, CtxState::at(46));
    c
}

/// Zero-coding context from neighbor significance counts, for a band class.
///
/// `h` = significant horizontal neighbors (0..=2), `v` = vertical (0..=2),
/// `d` = diagonal (0..=4).
#[inline]
pub fn zc_context(kind: crate::BandKind, h: u32, v: u32, d: u32) -> usize {
    use crate::BandKind::*;
    let (h, v) = match kind {
        // HL is horizontally high-pass: the roles of h and v swap.
        Hl => (v, h),
        LlLh => (h, v),
        Hh => {
            // HH keys primarily on the diagonal count.
            return match (d, h + v) {
                (d, _) if d >= 3 => 8,
                (2, hv) if hv >= 1 => 7,
                (2, _) => 6,
                (1, hv) if hv >= 2 => 5,
                (1, 1) => 4,
                (1, _) => 3,
                (0, hv) if hv >= 2 => 2,
                (0, 1) => 1,
                _ => 0,
            };
        }
    };
    match (h, v, d) {
        (2, _, _) => 8,
        (1, v, _) if v >= 1 => 7,
        (1, 0, d) if d >= 1 => 6,
        (1, 0, 0) => 5,
        (0, 2, _) => 4,
        (0, 1, _) => 3,
        (0, 0, d) if d >= 2 => 2,
        (0, 0, 1) => 1,
        _ => 0,
    }
}

/// Sign-coding context and XOR flip from net neighbor sign contributions.
///
/// `hc`/`vc` are the clamped sums of (significant) horizontal/vertical
/// neighbor signs: -1, 0, or +1 (positive = +1 contribution).
#[inline]
pub fn sc_context(hc: i32, vc: i32) -> (usize, u8) {
    debug_assert!((-1..=1).contains(&hc) && (-1..=1).contains(&vc));
    match (hc, vc) {
        (1, 1) => (13, 0),
        (1, 0) => (12, 0),
        (1, -1) => (11, 0),
        (0, 1) => (10, 0),
        (0, 0) => (9, 0),
        (0, -1) => (10, 1),
        (-1, 1) => (11, 1),
        (-1, 0) => (12, 1),
        (-1, -1) => (13, 1),
        _ => unreachable!(),
    }
}

/// Magnitude-refinement context: `first` = first refinement of this sample,
/// `any_sig_neighbor` = any of the 8 neighbors significant.
#[inline]
pub fn mr_context(first: bool, any_sig_neighbor: bool) -> usize {
    if !first {
        16
    } else if any_sig_neighbor {
        15
    } else {
        14
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BandKind;

    #[test]
    fn initial_states_match_standard() {
        let c = initial_contexts();
        assert_eq!(c.get(0).index, 4);
        assert_eq!(c.get(CTX_RL).index, 3);
        assert_eq!(c.get(CTX_UNI).index, 46);
        assert_eq!(c.get(5).index, 0);
        assert_eq!(c.len(), 19);
    }

    #[test]
    fn zc_lllh_table() {
        let k = BandKind::LlLh;
        assert_eq!(zc_context(k, 0, 0, 0), 0);
        assert_eq!(zc_context(k, 0, 0, 1), 1);
        assert_eq!(zc_context(k, 0, 0, 3), 2);
        assert_eq!(zc_context(k, 0, 1, 2), 3);
        assert_eq!(zc_context(k, 0, 2, 0), 4);
        assert_eq!(zc_context(k, 1, 0, 0), 5);
        assert_eq!(zc_context(k, 1, 0, 2), 6);
        assert_eq!(zc_context(k, 1, 1, 0), 7);
        assert_eq!(zc_context(k, 2, 0, 0), 8);
        assert_eq!(zc_context(k, 2, 2, 4), 8);
    }

    #[test]
    fn zc_hl_swaps_h_and_v() {
        for h in 0..=2u32 {
            for v in 0..=2u32 {
                for d in 0..=4u32 {
                    assert_eq!(
                        zc_context(BandKind::Hl, h, v, d),
                        zc_context(BandKind::LlLh, v, h, d),
                        "h={h} v={v} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn zc_hh_table() {
        let k = BandKind::Hh;
        assert_eq!(zc_context(k, 0, 0, 0), 0);
        assert_eq!(zc_context(k, 1, 0, 0), 1);
        assert_eq!(zc_context(k, 1, 1, 0), 2);
        assert_eq!(zc_context(k, 0, 0, 1), 3);
        assert_eq!(zc_context(k, 1, 0, 1), 4);
        assert_eq!(zc_context(k, 2, 1, 1), 5);
        assert_eq!(zc_context(k, 0, 0, 2), 6);
        assert_eq!(zc_context(k, 2, 0, 2), 7);
        assert_eq!(zc_context(k, 0, 0, 3), 8);
        assert_eq!(zc_context(k, 2, 2, 4), 8);
    }

    #[test]
    fn sign_contexts_are_symmetric() {
        // Flipping both contributions gives the same context with the
        // opposite XOR bit.
        for hc in -1..=1 {
            for vc in -1..=1 {
                let (c1, x1) = sc_context(hc, vc);
                let (c2, x2) = sc_context(-hc, -vc);
                assert_eq!(c1, c2);
                if (hc, vc) != (0, 0) {
                    assert_ne!(x1, x2);
                }
            }
        }
        assert_eq!(sc_context(0, 0), (9, 0));
    }

    #[test]
    fn mr_contexts() {
        assert_eq!(mr_context(true, false), 14);
        assert_eq!(mr_context(true, true), 15);
        assert_eq!(mr_context(false, false), 16);
        assert_eq!(mr_context(false, true), 16);
    }
}
