//! Host-speed scaling of in-process timings.
//!
//! The reference host (a 2-vCPU shared Xeon VM) drifts in speed by 20–40%
//! over seconds to minutes as its neighbours load the machine: the
//! medians of the same encode in ten 30 s runs spread by a fifth of
//! their value. No amount of sampling inside a run removes drift that is
//! slower than the run.
//!
//! So every in-process call the benchmark reports is paired with a
//! yardstick timed just before it: a fixed, branchy adaptive binary
//! arithmetic coder over a fixed bit stream, the same kind of work as
//! Tier-1 MQ coding, which is most of the codec's time. The call's wall
//! time is reported scaled by [`REFERENCE_MS`] ÷ the yardstick's time,
//! i.e. as milliseconds on a host whose yardstick takes exactly
//! [`REFERENCE_MS`]. On the reference host, over a ten-minute trace cut
//! into fourteen 30 s windows, this took the spread (IQR/median) of the
//! windows' median 512² encode time from 0.19 to 0.024, and of the
//! decode time from 0.17 to 0.023.
//!
//! The yardstick is the benchmark's own code and takes no input from the
//! seed, so it is the same work in every commit: a change to the program
//! moves the scaled time exactly as it moves the wall time. The unscaled
//! wall times are kept in the detail record.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Yardstick time, in ms, of the host that scaled times are expressed
/// on: the reference host measured 10–14.7 ms (10th–90th percentile).
pub const REFERENCE_MS: f64 = 10.0;

/// Bits the yardstick codes per measurement.
const BITS: usize = 2_000_000;

/// The fixed bit stream: about 2 ones in 7, from a fixed xorshift.
fn bits() -> &'static [u8] {
    static BITS_CELL: OnceLock<Vec<u8>> = OnceLock::new();
    BITS_CELL.get_or_init(|| {
        let mut s = 0x1234_5678_9ABC_DEF0u64;
        (0..BITS)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                u8::from((s >> 11) % 7 < 2)
            })
            .collect()
    })
}

/// Adaptive binary range coder with 64 contexts chosen by the last six
/// bits; returns a digest so nothing is optimised away.
fn code(bits: &[u8]) -> u64 {
    let mut p = [2048u32; 64];
    let (mut low, mut range, mut out, mut ctx) = (0u64, u32::MAX, 0u64, 0usize);
    for &b in bits {
        let pr = p[ctx];
        let split = ((u64::from(range) * u64::from(pr)) >> 12) as u32;
        if b & 1 == 1 {
            range = split;
            p[ctx] = pr + ((4096 - pr) >> 4);
        } else {
            low += u64::from(split);
            range -= split;
            p[ctx] = pr - (pr >> 4);
        }
        while range < 1 << 24 {
            range <<= 8;
            out = out.wrapping_mul(31).wrapping_add(low >> 56);
            low = (low << 8) & 0xFFFF_FFFF_FFFF;
        }
        ctx = ((ctx << 1) | usize::from(b & 1)) & 63;
    }
    out ^ low
}

/// A host-speed reading: multiply a wall time taken right after it by
/// [`Pace::scale`] to express it on the reference host.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// The yardstick's time for this reading, ms.
    pub yardstick_ms: f64,
}

impl Pace {
    /// Time the yardstick once.
    pub fn now() -> Pace {
        let bits = bits();
        let t0 = Instant::now();
        black_box(code(black_box(bits)));
        Pace {
            yardstick_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    pub fn scale(self) -> f64 {
        REFERENCE_MS / self.yardstick_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_yardstick_is_fixed_work() {
        // The same digest every time, on every host: the bit stream and
        // the coder take no input from the run.
        assert_eq!(code(bits()), code(bits()));
        assert_eq!(bits().len(), BITS);
        let ones = bits().iter().filter(|&&b| b == 1).count();
        assert!((500_000..650_000).contains(&ones), "{ones} ones");
    }

    #[test]
    fn scaling_is_relative_to_the_reference() {
        let p = Pace {
            yardstick_ms: 2.0 * REFERENCE_MS,
        };
        assert_eq!(p.scale(), 0.5);
    }
}
