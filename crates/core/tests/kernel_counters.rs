//! The encoder's MCT stage feeds the process-global kernel counters that
//! the service exports (`j2k_kernel_*{kernel="mct_rct"|"mct_ict"}`) and
//! the benches turn into GB/s. Lives in its own integration binary
//! because enabling the counters would race with unrelated tests in a
//! shared process; it holds a single test for the same reason.

use j2k_core::{encode_parallel, EncoderParams};
use obs::counters::{self, Kernel, KernelSnapshot};

fn snap(kernel: Kernel) -> KernelSnapshot {
    counters::snapshot()
        .into_iter()
        .find(|s| s.kernel == kernel)
        .unwrap()
}

#[test]
fn mct_stage_is_counted_at_every_worker_count() {
    let (w, h) = (48usize, 40usize);
    let rgb = imgio::synth::natural_rgb(w, h, 7);
    let gray = imgio::synth::natural(w, h, 7);
    let samples = (w * h * 3) as u64;
    counters::set_enabled(true);
    for (params, kernel) in [
        (EncoderParams::lossless(), Kernel::MctRct),
        (EncoderParams::lossy(0.3), Kernel::MctIct),
    ] {
        for workers in [1usize, 2] {
            counters::reset();
            encode_parallel(&rgb, &params, workers).unwrap();
            let s = snap(kernel);
            let what = format!("{} at workers={workers}", kernel.name());
            assert!(s.invocations >= 1, "{what}: no invocation recorded");
            assert_eq!(s.samples, samples, "{what}: samples per encode");
            assert_eq!(s.bytes, samples * 4, "{what}: bytes per encode");

            // A single-component image has no inter-component transform.
            counters::reset();
            encode_parallel(&gray, &params, workers).unwrap();
            let s = snap(kernel);
            assert_eq!(s.invocations, 0, "gray {what}");
        }
    }
    counters::set_enabled(false);
}
