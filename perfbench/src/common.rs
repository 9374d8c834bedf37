//! Shared pieces: command line, result collection, statistics and the
//! planner configuration every workload uses.

use crate::cpu::CpuRotation;
use dip_core::{DipPlan, DipPlanner, PlannerConfig, PlanningSession, SessionConfig};
use dip_models::{BatchWorkload, LmmSpec};
use dip_pipeline::ParallelConfig;
use dip_sim::{CalibrationRegistry, ClusterSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds must lie in (0, 120], got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one run measured and which checks failed.
#[derive(Default)]
pub struct Report {
    /// Timed requests attempted.
    pub attempted: u64,
    /// Timed requests that returned an error.
    pub failed: u64,
    /// Failed correctness checks; the run is correct when this is empty.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic values that must repeat exactly across runs of one
    /// seed (see `record.rs`).
    pub witnesses: BTreeMap<&'static str, u64>,
}

impl Report {
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.failures.len() < 32 {
            self.failures.push(what);
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Counts one timed request and its error, if any.
    pub fn attempt<T, E: std::fmt::Display>(&mut self, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(err) => {
                self.failed += 1;
                self.fail(format!("request failed: {err}"));
                None
            }
        }
    }
}

/// Nearest-rank percentile of `values` (`q` in (0, 1]); `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// What a closed timed loop measured.
pub struct Served {
    /// Latency of every request made, in seconds.
    pub latencies: Vec<f64>,
    /// Requests that returned a value.
    pub completed: u64,
    /// Seconds spent inside the requests: the untimed work between them
    /// (checks, traced copies, interleaved set-ups) is left out.
    pub request_s: f64,
}

impl Served {
    pub fn plans_per_s(&self) -> f64 {
        self.completed as f64 / self.request_s
    }
}

/// Runs a workload's closed timed loop over `n` inputs: one caller sends the
/// next request after the previous one returns. Request `i` serves input
/// `i % n`; `request(idx)` is timed, and `served(i, idx, value, latency,
/// report)` runs untimed after every request that returned a value.
/// `interlude` runs untimed `interludes` times, spread evenly over the run,
/// so that work sampled there (the workloads re-run their set-up) sees the
/// same machine state as the requests. The loop stops once `seconds` have
/// passed and it has made at least `n.max(100)` requests, so a 90th
/// percentile has at least 10 samples beyond it, or after `4 × seconds`.
/// Between requests the thread moves over the allowed CPUs (see `cpu.rs`).
pub fn closed_loop<T, E: std::fmt::Display>(
    n: usize,
    seconds: f64,
    report: &mut Report,
    mut request: impl FnMut(usize) -> Result<T, E>,
    mut served: impl FnMut(usize, usize, T, f64, &mut Report),
    interludes: usize,
    mut interlude: impl FnMut(&mut Report),
) -> Served {
    let mut out = Served {
        latencies: Vec::new(),
        completed: 0,
        request_s: 0.0,
    };
    let start = Instant::now();
    let hard_stop = seconds * 4.0;
    let mut done_interludes = 0;
    let mut cpus = CpuRotation::new();
    let mut i = 0usize;
    loop {
        let idx = i % n;
        cpus.tick();
        let t = Instant::now();
        let result = request(idx);
        let latency = t.elapsed().as_secs_f64();
        out.latencies.push(latency);
        out.request_s += latency;
        if let Some(value) = report.attempt(result) {
            out.completed += 1;
            served(i, idx, value, latency, report);
        }
        i += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if done_interludes < interludes
            && elapsed >= seconds * (done_interludes + 1) as f64 / (interludes + 1) as f64
        {
            interlude(report);
            done_interludes += 1;
        }
        if (elapsed >= seconds && i >= n.max(100)) || elapsed >= hard_stop {
            break;
        }
    }
    println!(
        "timed: {} of {i} requests completed in {:.3} s of request time, {:.3} s of run; {:.2} passes of {n} inputs; {done_interludes} interludes",
        out.completed,
        out.request_s,
        start.elapsed().as_secs_f64(),
        i as f64 / n as f64
    );
    out
}

/// Reports `setup_s` as the median of the run's set-ups, printing each.
pub fn setup_metric(report: &mut Report, setup_s: &[f64]) {
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("samples setup_s={} [{}]", setup_s.len(), each.join(" "));
    report.metric("setup_s", median(setup_s));
}

/// Reports `plan_p90_ms` from per-request latencies in seconds, printing
/// the median and the sample counts next to it. The latencies are cut into
/// consecutive windows of `window` requests and the lowest of the windows'
/// 90th percentiles is reported; `window` at least the request count gives
/// the run's 90th percentile. The median is not a metric: request latencies
/// cluster by request shape, so it jumps between clusters as the host drifts
/// and moved twice as much between runs as the 90th percentile.
pub fn latency_metrics(report: &mut Report, latencies_s: &[f64], window: usize) {
    let n = latencies_s.len();
    let p90s: Vec<f64> = latencies_s
        .chunks(window.max(1))
        .map(|w| percentile(w, 0.9))
        .collect();
    let p90 = p90s.iter().copied().fold(f64::NAN, f64::min);
    report.metric("plan_p90_ms", p90 * 1e3);
    let per_window = window.min(n);
    println!(
        "samples plan_p90_ms={per_window} per window x {} windows (beyond p90: {}); median latency {:.4} ms",
        p90s.len(),
        per_window - (0.9 * per_window as f64).ceil() as usize,
        median(latencies_s) * 1e3
    );
    report.check(per_window >= 100, || {
        format!("plan_p90_ms needs windows of at least 100 requests, the run made {n} in windows of {per_window}")
    });
}

/// The planner configuration of every workload: one planner thread, MCTS at
/// the 300 ms virtual budget, and the calibration registry resolved at
/// construction (an empty registry resolves to the built-in constants).
/// `search.streams` keeps its default, so plans are bit-identical to
/// multi-worker plans.
pub fn planner_config() -> PlannerConfig {
    let mut config = PlannerConfig::default()
        .with_num_threads(1)
        .with_calibration(CalibrationRegistry::new(Vec::new()));
    config.search.time_budget = Duration::from_millis(300);
    config
}

/// Microbatches per iteration of every workload.
pub const MICROBATCHES: usize = 12;

/// The parallel layout of every workload: TP 4, PP 4, DP 1.
pub fn parallel() -> ParallelConfig {
    ParallelConfig::new(4, 4, 1)
}

/// Durations of the repeated set-ups of one run.
#[derive(Default)]
pub struct SetupTimes {
    /// Whole set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// The offline partition alone, in seconds.
    pub offline_s: Vec<f64>,
}

/// One set-up of a planning session on `cluster`: construction (which
/// resolves the calibration registry), the offline partition against
/// [`representative`], and a warm-up plan of `MICROBATCHES` copies of it on
/// the session's planner, which leaves the session's caches empty. None of
/// it depends on the seed.
pub fn set_up_session<'a>(
    spec: &'a LmmSpec,
    cluster: &'a ClusterSpec,
    config: SessionConfig,
    times: &mut SetupTimes,
) -> Result<PlanningSession<'a>, String> {
    let start = Instant::now();
    let mut session =
        PlanningSession::with_config(spec, parallel(), cluster, planner_config(), config);
    let offline = Instant::now();
    session
        .offline_partition(&representative())
        .map_err(|e| format!("offline partition: {e}"))?;
    times.offline_s.push(offline.elapsed().as_secs_f64());
    session
        .planner()
        .plan_iteration(&vec![representative(); MICROBATCHES])
        .map_err(|e| format!("warm-up plan: {e}"))?;
    times.setup_s.push(start.elapsed().as_secs_f64());
    Ok(session)
}

/// The representative microbatch of every workload's offline partition:
/// fig8b's 12-image VLM microbatch. It does not depend on the seed, so every
/// seed plans against the same placement.
pub fn representative() -> BatchWorkload {
    dip_bench::vlm_batch(12)
}

/// FNV-1a over 64-bit words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn tokens(microbatches: &[BatchWorkload]) -> u64 {
    microbatches.iter().map(BatchWorkload::total_tokens).sum()
}

/// The deterministic identity of a plan: what a bit-identical replan must
/// reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanPrint {
    pub priorities: Vec<i64>,
    pub planned_time_bits: u64,
    pub evaluations: u64,
    pub items: usize,
}

impl PlanPrint {
    pub fn of(plan: &DipPlan) -> Self {
        Self {
            priorities: plan.segment_priorities.clone(),
            planned_time_bits: plan.stats.planned_time_s.to_bits(),
            evaluations: plan.stats.search_evaluations,
            items: plan.graph.len(),
        }
    }
}

/// Simulates `plan` and returns its iteration time in seconds, or records a
/// failed check.
pub fn simulate(planner: &DipPlanner<'_>, plan: &DipPlan, report: &mut Report) -> Option<f64> {
    match planner.simulate(plan) {
        Ok(outcome) if outcome.metrics.iteration_time_s > 0.0 => {
            Some(outcome.metrics.iteration_time_s)
        }
        Ok(outcome) => {
            report.fail(format!(
                "simulated iteration time {} is not positive",
                outcome.metrics.iteration_time_s
            ));
            None
        }
        Err(err) => {
            report.fail(format!("plan does not simulate: {err}"));
            None
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The 1/5/15-minute load averages, or `unknown`.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(","))
        .unwrap_or_else(|| "unknown".into())
}

/// `value` as a JSON number with every digit Rust prints for it.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}
