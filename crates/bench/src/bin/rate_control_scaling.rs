//! Rate-control/Tier-2 tail scaling: sweep worker counts over the lossy
//! paper workload and measure how the formerly sequential tail — PCRD
//! allocation (threshold search + per-block truncation application) plus
//! Tier-2 packet assembly — scales once both fan out over the worker
//! pool. The `--spes` list is reused as the worker counts.
//!
//! Prints a table (or `--csv`) and, with `--out FILE`, writes the
//! machine-readable `BENCH_rate.json` consumed by CI. Asserts the
//! codestream stays byte-identical to the one-worker encode at every
//! worker count, so the numbers can never come from a divergent encode.

use j2k_bench::{lossy_params, ms, parse_args, row, workload_rgb, BenchReport, Direction};
use j2k_core::{encode, encode_parallel_with_profile, WorkloadProfile};

fn stage(prof: &WorkloadProfile, name: &str) -> f64 {
    prof.stage_times
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.seconds)
}

struct Row {
    workers: usize,
    alloc: f64,
    tier2: f64,
    total: f64,
    retries: u64,
}

fn main() {
    let args = parse_args();
    let im = workload_rgb(&args);
    let params = lossy_params(args.levels);
    let seq = encode(&im, &params).expect("one-worker encode");

    println!(
        "rate-control/Tier-2 tail scaling ({}x{} RGB lossy, rate 0.1)",
        args.size, args.size
    );
    row(
        args.csv,
        &[
            "workers".into(),
            "rate_ctl_ms".into(),
            "tier2_ms".into(),
            "tail_ms".into(),
            "total_ms".into(),
            "tail_share".into(),
            "tail_speedup".into(),
        ],
    );

    let mut rows: Vec<Row> = Vec::new();
    for &n in &args.spes {
        let t0 = std::time::Instant::now();
        let (bytes, prof) = encode_parallel_with_profile(&im, &params, n).expect("parallel encode");
        let total = t0.elapsed().as_secs_f64();
        assert_eq!(bytes, seq, "codestream changed at workers={n}");
        let r = Row {
            workers: n,
            alloc: stage(&prof, "rate-control"),
            tier2: stage(&prof, "tier2"),
            total,
            retries: prof.rate_retries,
        };
        let tail = r.alloc + r.tier2;
        let base = rows.first().map_or(tail, |b| b.alloc + b.tier2);
        row(
            args.csv,
            &[
                n.to_string(),
                ms(r.alloc),
                ms(r.tier2),
                ms(tail),
                ms(r.total),
                format!("{:.3}", tail / r.total.max(1e-12)),
                format!("{:.2}", base / tail.max(1e-12)),
            ],
        );
        rows.push(r);
    }

    if let Some(path) = &args.out {
        let base_tail = rows.first().map_or(0.0, |b| b.alloc + b.tier2);
        let body: Vec<String> = rows
            .iter()
            .map(|r| {
                let tail = r.alloc + r.tier2;
                format!(
                    "{{\"workers\":{},\"rate_control_ms\":{:.3},\"tier2_ms\":{:.3},\
                     \"tail_ms\":{:.3},\"total_ms\":{:.3},\"tail_share\":{:.4},\
                     \"tail_speedup\":{:.3},\"rate_retries\":{}}}",
                    r.workers,
                    r.alloc * 1e3,
                    r.tier2 * 1e3,
                    tail * 1e3,
                    r.total * 1e3,
                    tail / r.total.max(1e-12),
                    base_tail / tail.max(1e-12),
                    r.retries,
                )
            })
            .collect();
        let config = format!(
            "{{\"size\":{},\"seed\":{},\"levels\":{},\"rate\":0.1,\
             \"workers\":[{}],\"host_cores\":{}}}",
            args.size,
            args.seed,
            args.levels,
            args.spes
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(","),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        let last = rows.last().expect("at least one worker count");
        let last_tail = last.alloc + last.tier2;
        let report = BenchReport::new("rate_control_scaling")
            .config(&config)
            .metric("tail_ms_max_workers", last_tail * 1e3, Direction::Lower)
            .metric(
                "tail_share_max_workers",
                last_tail / last.total.max(1e-12),
                Direction::Lower,
            )
            .metric(
                "tail_speedup_max_workers",
                base_tail / last_tail.max(1e-12),
                Direction::Higher,
            )
            .detail(&format!("{{\"rows\":[{}]}}", body.join(",")));
        std::fs::write(path, format!("{}\n", report.to_json())).expect("write --out file");
        println!("wrote {path}");
    }
}
