//! Injection tests for the rate-control/Tier-2 failpoints (`rate.block`,
//! `tier2.precinct`). Requires `--features failpoints`; without it the
//! file compiles away, matching the production build. This binary is its
//! own process, so arming the global registry here cannot leak into the
//! crate's other test binaries; within the binary, every test holds
//! [`registry_lock`] so no test resets or arms the registry under another.

#![cfg(feature = "failpoints")]

use faultsim::{FaultAction, FaultSpec};
use j2k_core::{encode_parallel, CodecError, EncoderParams};
use std::sync::{Mutex, MutexGuard};

/// Serializes this binary's tests around the process-global failpoint
/// registry. Poison-tolerant: one failed test must not fail the others.
fn registry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Each failpoint fires once and must surface as `CodecError::Injected`
/// with the armed message, from both the sequential-tail (workers=1) and
/// fanned-out paths.
#[test]
fn rate_and_tier2_faults_surface_as_errors() {
    let _g = registry_lock();
    let im = imgio::synth::natural(48, 48, 3);
    let params = EncoderParams::lossy(0.3);
    for fp in ["rate.block", "tier2.precinct"] {
        for workers in [1usize, 3] {
            faultsim::reset();
            faultsim::arm(fp, FaultSpec::once(FaultAction::Error(fp.to_string())));
            let r = encode_parallel(&im, &params, workers);
            faultsim::reset();
            match r {
                Err(CodecError::Injected(msg)) => {
                    assert_eq!(msg, fp, "workers={workers}")
                }
                other => panic!("{fp} workers={workers}: expected injected error, got {other:?}"),
            }
        }
    }
    // Registry clean again: the same encode succeeds and matches the
    // sequential bytes.
    let seq = j2k_core::encode(&im, &params).unwrap();
    assert_eq!(encode_parallel(&im, &params, 3).unwrap(), seq);
}

/// A fault armed to fire deep into the hit sequence still lands (the
/// per-block / per-unit hit counting is wired through the fan-out).
#[test]
fn late_hit_faults_still_fire() {
    let _g = registry_lock();
    let im = imgio::synth::natural_rgb(64, 48, 9);
    let params = EncoderParams {
        levels: 3,
        ..EncoderParams::lossy(0.25)
    };
    faultsim::reset();
    // comps * bands = 3 * 10 units; hit 12 is mid-fan-out.
    faultsim::arm(
        "tier2.precinct",
        FaultSpec::at(FaultAction::Error("late".into()), 12, 1),
    );
    let r = encode_parallel(&im, &params, 4);
    faultsim::reset();
    assert!(
        matches!(r, Err(CodecError::Injected(ref m)) if m == "late"),
        "got {r:?}"
    );
}
