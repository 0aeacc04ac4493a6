//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve-price|edge-weather-720|train-price> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics from a separate traced run. Every metric is printed by
//! name with its unit; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `README.md` in this
//! directory defines each metric and says why each workload was chosen.

mod common;
mod edge;
mod fixtures;
mod ladder;
mod replay;
mod serve;
mod trace;
mod train;

use common::{peak_rss_mb, Report};

/// Every end-to-end metric, printed by every workload's untraced run.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "success_rate",
    "peak_rss_mb",
    "windows_per_s",
    "latency_p50_ms",
    "latency_tail_ms",
    "latency_p50_ms.light",
    "latency_p50_ms.mid",
    "latency_p50_ms.heavy",
    "max_rate_rps",
    "val_mse",
];

/// Every per-layer metric with its unit, printed by every traced run. A
/// layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("serve.queue_us.p50", "us"),
    ("serve.queue_us.tail", "us"),
    ("serve.run_us.p50", "us"),
    ("serve.transport_us.p50", "us"),
    ("serve.batch_mean", "count"),
    ("serve.coalesced_share", "share"),
    ("serve.late_ms.tail", "ms"),
    ("serve.reconcile", "share"),
    ("proto.parse_us", "us"),
    ("proto.body_bytes", "B"),
    ("session.get_us", "us"),
    ("session.validate_us", "us"),
    ("session.compiles", "count"),
    ("session.hit_share", "share"),
    ("serde.write_us", "us"),
    ("exec.compile_ms", "ms"),
    ("exec.bind_us", "us"),
    ("exec.run_ms.p50", "ms"),
    ("exec.arena_bytes", "B"),
    ("exec.steps", "count"),
    ("exec.fused_ops", "count"),
    ("kernel.matmul.ms", "ms"),
    ("kernel.matmul.macs", "count"),
    ("kernel.matmul.gmacs", "GMAC/s"),
    ("kernel.matmul.bytes", "B"),
    ("kernel.softmax.ms", "ms"),
    ("kernel.elementwise.ms", "ms"),
    ("kernel.coverage", "share"),
    ("par.speedup.exec", "x"),
    ("par.speedup.train", "x"),
    ("data.batch_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.contrastive_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.optim_ms", "ms"),
    ("train.val_ms", "ms"),
    ("train.tape_nodes", "count"),
    ("tensor.copied_bytes", "B"),
    ("train.reconcile", "share"),
    ("trace.overhead", "share"),
    ("clock.instant_step_ns", "ns"),
    ("clock.schedstat_step_ms", "ms"),
    ("clock.procstat_step_ms", "ms"),
];

/// Write a traced run's spans next to the build output.
pub fn write_spans(tracer: &trace::Tracer, workload: &str) {
    let path = common::scratch_dir().join(format!("spans-{workload}.jsonl"));
    if let Err(e) = tracer.write(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = common::parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
        std::process::exit(2);
    });
    let mut report: Report = match args.workload.as_str() {
        "serve-price" => serve::run(&args),
        "edge-weather-720" => edge::run(&args),
        "train-price" => train::run(&args),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let (instant_ns, schedstat_ms, procstat_ms) = trace::clock_steps();
        report.metric("clock.instant_step_ns", instant_ns, "ns");
        report.metric("clock.schedstat_step_ms", schedstat_ms, "ms");
        report.metric("clock.procstat_step_ms", procstat_ms, "ms");
        for (name, unit) in PER_LAYER {
            if !report.has(name) {
                report.metric(name, 0.0, unit);
            }
        }
        for name in report.names() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| *n == name),
                "{name} is not a per-layer metric"
            );
        }
    } else {
        report.metric(
            "success_rate",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
            "share",
        );
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        for name in END_TO_END {
            assert!(report.has(name), "workload did not report {name}");
        }
        for name in report.names() {
            assert!(
                END_TO_END.contains(&name),
                "{name} is not an end-to-end metric"
            );
        }
    }
    report.print();
}
