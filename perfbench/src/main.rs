//! End-to-end and per-layer benchmark of the DIP planner.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_dynamic --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1` serves
//! every request of the same loop a second time right after the untraced
//! one, with spans around the calls into each layer, and reports the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod alloc_count;
mod common;
mod cpu;
mod record;
mod trace;
mod wl_cold;
mod wl_elastic;
mod wl_zipf;

use common::{Args, Report};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["cold_dynamic", "zipf_session", "elastic_failover"];

/// End-to-end metrics (untraced run), reported by every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("plans_per_s", "1/s"),
    ("plan_p90_ms", "ms"),
    ("sim_tokens_per_s", "tokens/s"),
];

/// Per-layer metrics (traced run). A workload that never calls a layer
/// reports 0 for that layer's metrics.
const PER_LAYER: [(&str, &str); 25] = [
    ("session.lookup_us", "us"),
    ("session.fuzzy_ms", "ms"),
    ("session.cold_ms", "ms"),
    ("session.key_us", "us"),
    ("session.hit_ratio", "ratio"),
    ("delta.replan_ms", "ms"),
    ("partitioner.offline_ms", "ms"),
    ("partitioner.split_us", "us"),
    ("graph.build_ms", "ms"),
    ("graph.items", "count"),
    ("graph.reprice_us", "us"),
    ("ordering.search_ms", "ms"),
    ("ordering.evals", "count"),
    ("ordering.us_per_eval", "us"),
    ("ordering.improving_frac", "ratio"),
    ("dual_queue.schedule_us", "us"),
    ("memopt.solve_ms", "ms"),
    ("elastic.replan_ms", "ms"),
    ("elastic.candidates", "count"),
    ("elastic.recovery_s", "s"),
    ("topology.delta_us", "us"),
    ("migration.bytes_moved", "bytes"),
    ("alloc.per_plan", "count"),
    ("alloc.per_eval", "count"),
    ("trace.overhead_frac", "ratio"),
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} loadavg={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::nproc(),
        common::load_average()
    );
    let mut report = Report::default();
    match args.workload.as_str() {
        "cold_dynamic" => wl_cold::run(&args, &mut report),
        "zipf_session" => wl_zipf::run(&args, &mut report),
        "elastic_failover" => wl_elastic::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    }
    record::check(&args, &mut report);

    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(extra) = report
        .metrics
        .keys()
        .find(|name| !declared.iter().any(|(d, _)| d == *name))
    {
        eprintln!("perfbench: internal error: undeclared metric {extra}");
        return ExitCode::from(3);
    }
    if report.attempted == 0 {
        // The run stopped before its first request (a set-up step failed,
        // as the recorded failure says): count that as one failed attempt.
        report.attempted = 1;
        report.failed = 1;
    }
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = match report.metrics.get(*name) {
            Some(&value) => value,
            // A per-layer metric of a layer this workload never calls.
            None if args.trace => 0.0,
            // An end-to-end metric is missing only when the run stopped early.
            None => f64::NAN,
        };
        if !value.is_finite() {
            report.fail(format!("metric {name} is not finite: {value}"));
        }
        println!("metric {name:<24} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            common::json_number(value)
        ));
    }
    for line in &report.failures {
        println!("CHECK FAILED: {line}");
    }
    println!(
        "error_rate {:.6} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted as f64,
        report.failed,
        report.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
