//! `zipf_session`: the seeded `zipf_request_stream` (hot base shapes ×
//! in-bucket jitter variants) through a `SessionConfig::fuzzy()` session.
//! The stream has more distinct exact signatures than the session's
//! 64-entry LRU holds, so evictions keep feeding the fuzzy tier. Lookup,
//! hashing and delta replanning dominate the request count; the full
//! search runs only on the few cold misses.
//!
//! A run draws four streams from seeds derived from the workload seed. The
//! timed passes cycle the streams, each through a fresh session. The first
//! pass of each stream records its tier sequence and plans, and its plans
//! are simulated after the pass; every later pass of the stream must
//! reproduce them exactly.

use crate::common::{self, Args, PlanPrint, Report, SetupTimes};
use crate::cpu::CpuRotation;
use crate::trace::TracedRun;
use dip_bench::zipf_request_stream;
use dip_core::{
    BucketingConfig, CanonicalSignature, DipPlan, PlanRequest, PlanTier, PlanningSession,
    SessionConfig, WorkloadSignature,
};
use dip_models::zoo;
use dip_sim::ClusterSpec;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Requests per pass.
const STREAM: usize = 3000;
/// Hot base shapes (Zipf ranks).
const HOT: usize = 12;
/// In-bucket jitter variants per base shape. With 7, about 77% of the
/// requests are exact hits, so the 90th percentile lies well inside the
/// fuzzy tier (see `check_tier_shares`).
const VARIANTS: usize = 7;
/// Zipf skew exponent.
const EXPONENT: f64 = 1.1;
/// Streams per run, each from its own seed derived from the workload seed;
/// cycling them averages out how one seed's draw splits the tiers.
const STREAMS: usize = 4;

fn tier_index(tier: PlanTier) -> usize {
    match tier {
        PlanTier::Exact => 0,
        PlanTier::Fuzzy => 1,
        PlanTier::Cold | PlanTier::Elastic => 2,
    }
}

const TIER_NAMES: [&str; 3] = ["exact", "fuzzy", "cold"];

/// A 64-bit identity of a served request: its tier and plan print.
fn request_print(tier: PlanTier, plan: &DipPlan) -> u64 {
    let print = PlanPrint::of(plan);
    let words = [
        tier_index(tier) as u64,
        print.planned_time_bits,
        print.evaluations,
        print.items as u64,
    ];
    common::fnv1a(
        words
            .into_iter()
            .chain(print.priorities.iter().map(|&p| p as u64)),
    )
}

pub fn run(args: &Args, report: &mut Report) {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let bucketing = BucketingConfig::default();
    let streams: Vec<Vec<PlanRequest>> = (0..STREAMS as u64)
        .map(|k| {
            zipf_request_stream(
                STREAM,
                HOT,
                VARIANTS,
                common::MICROBATCHES,
                EXPONENT,
                args.seed.wrapping_mul(STREAMS as u64).wrapping_add(k),
                &bucketing,
            )
        })
        .collect();

    let mut times = SetupTimes::default();
    let set_up = |times: &mut SetupTimes, report: &mut Report| {
        common::set_up_session(&spec, &cluster, SessionConfig::fuzzy(), times)
            .map_err(|err| report.fail(err))
            .ok()
    };

    // Timed passes, cycling the streams, each through a fresh session; the
    // set-ups, checks and simulations between the requests are untimed.
    // With tracing on, a second, traced session serves every request right
    // after the untraced one, so both halves see the same machine state.
    let mut expected: Vec<Vec<u64>> = Vec::with_capacity(STREAMS);
    let mut tiers = [0u64; 3];
    let mut simulated: HashMap<(u64, u64), f64> = HashMap::new();
    let (mut sim_s, mut sim_tokens) = (0.0f64, 0u64);
    let mut latencies = Vec::new();
    let mut tier_latencies: [Vec<f64>; 3] = Default::default();
    let (mut completed, mut request_s, mut passes) = (0u64, 0.0f64, 0usize);
    let mut traced = args.trace.then(Traced::default);
    let mut prints = Vec::with_capacity(STREAM);
    let mut keys = Vec::with_capacity(STREAM);
    let mut cpus = CpuRotation::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || passes < STREAMS {
        let stream = &streams[passes % STREAMS];
        let first = passes < STREAMS;
        let Some(session) = set_up(&mut times, report) else {
            return;
        };
        let shadow = match traced {
            Some(_) => match set_up(&mut times, report) {
                Some(shadow) => Some(shadow),
                None => return,
            },
            None => None,
        };
        let mut anchors: HashMap<u64, DipPlan> = HashMap::new();
        // First pass: the distinct (request shape, plan) pairs to simulate.
        let mut to_simulate: HashMap<(u64, u64), DipPlan> = HashMap::new();
        let mut stream_tiers = [0u64; 3];
        prints.clear();
        keys.clear();
        for (i, request) in stream.iter().enumerate() {
            cpus.tick();
            let t = Instant::now();
            let result = session.plan(request);
            let latency = t.elapsed().as_secs_f64();
            latencies.push(latency);
            request_s += latency;
            let Some(outcome) = report.attempt(result) else {
                prints.push(0);
                continue;
            };
            completed += 1;
            let tier = tier_index(outcome.tier);
            tier_latencies[tier].push(latency);
            stream_tiers[tier] += 1;
            let print = request_print(outcome.tier, &outcome.plan);
            prints.push(print);
            if let (Some(traced), Some(shadow)) = (&mut traced, &shadow) {
                traced.serve(shadow, request, print, latency, &mut anchors, report);
            }
            if first {
                // An exact hit serves a clone of an earlier plan: simulate
                // each distinct (request shape, plan) once.
                let key = (session.cache_key(request), print);
                keys.push((i, key));
                if !simulated.contains_key(&key) {
                    to_simulate.entry(key).or_insert(outcome.plan);
                }
            }
        }
        if first {
            check_tiers(report, &session, stream_tiers);
            for (total, count) in tiers.iter_mut().zip(stream_tiers) {
                *total += count;
            }
            for (key, plan) in &to_simulate {
                if let Some(time) = common::simulate(session.planner(), plan, report) {
                    simulated.insert(*key, time);
                }
            }
            for (i, key) in &keys {
                if let Some(&time) = simulated.get(key) {
                    sim_s += time;
                    sim_tokens += common::tokens(stream[*i].microbatches());
                }
            }
            expected.push(prints.clone());
        } else {
            report.check(prints == expected[passes % STREAMS], || {
                format!("timed pass {passes}: tiers or plans differ from the stream's first pass")
            });
        }
        passes += 1;
    }
    let sim_tokens_per_s = sim_tokens as f64 / sim_s;
    report
        .witnesses
        .insert("sim_tokens_per_s_bits", sim_tokens_per_s.to_bits());
    report.witnesses.insert("exact_requests", tiers[0]);
    report.witnesses.insert("fuzzy_requests", tiers[1]);
    report.witnesses.insert("cold_requests", tiers[2]);
    println!(
        "streams: {STREAMS} x {STREAM} requests: {} exact, {} fuzzy, {} cold; {} distinct plans simulated",
        tiers[0],
        tiers[1],
        tiers[2],
        simulated.len()
    );
    check_tier_shares(report, tiers);
    println!(
        "timed: {completed} requests in {request_s:.3} s of request time over {passes} passes, {:.3} s of run",
        start.elapsed().as_secs_f64()
    );
    for (name, values) in TIER_NAMES.iter().zip(&tier_latencies) {
        println!(
            "tier {name:<5} p50 {:>10.4} ms over {} samples",
            common::median(values) * 1e3,
            values.len()
        );
    }

    let Some(traced) = traced else {
        common::setup_metric(report, &times.setup_s);
        report.metric("plans_per_s", completed as f64 / request_s);
        // One window per pass: the fuzzy replans that set the 90th
        // percentile are the requests most exposed to host drift, and the
        // least disturbed pass measures them most steadily.
        common::latency_metrics(report, &latencies, STREAM);
        report.metric("sim_tokens_per_s", sim_tokens_per_s);
        return;
    };

    let median_of = |name: &str| common::median(&traced.run.tracer.durations_s(name));
    report.metric("session.lookup_us", median_of(SPAN_NAMES[0]) * 1e6);
    report.metric("session.fuzzy_ms", median_of(SPAN_NAMES[1]) * 1e3);
    report.metric("session.cold_ms", median_of(SPAN_NAMES[2]) * 1e3);
    report.metric("session.key_us", median_of("session.key") * 1e6);
    report.metric(
        "session.hit_ratio",
        traced.hits as f64 / traced.run.requests.max(1) as f64,
    );
    report.metric("delta.replan_ms", median_of("delta.replan") * 1e3);
    report.metric(
        "partitioner.offline_ms",
        common::median(&times.offline_s) * 1e3,
    );
    traced.run.finish(report, args);
}

/// Per-layer totals of the traced run.
#[derive(Default)]
struct Traced {
    run: TracedRun,
    hits: u64,
}

impl Traced {
    /// Serves `request` through the traced `shadow` session, which must
    /// reproduce the untraced session's outcome (`print`, served in
    /// `untraced_s`). A fuzzy hit is also replanned directly against the
    /// anchor the run keeps per fuzzy key, which must give the same plan.
    fn serve(
        &mut self,
        shadow: &PlanningSession<'_>,
        request: &PlanRequest,
        print: u64,
        untraced_s: f64,
        anchors: &mut HashMap<u64, DipPlan>,
        report: &mut Report,
    ) {
        let id = self.run.next_id();
        let tracer = &mut self.run.tracer;
        let span = tracer.begin("session.key", id);
        black_box(WorkloadSignature::of(black_box(request.microbatches())));
        black_box(CanonicalSignature::of(
            black_box(request.microbatches()),
            &BucketingConfig::default(),
        ));
        tracer.end(span);

        let result = self.run.serve(
            untraced_s,
            |_, _| shadow.plan(request),
            |result| {
                let tier = result.as_ref().map_or(PlanTier::Cold, |o| o.tier);
                SPAN_NAMES[tier_index(tier)]
            },
        );
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(err) => return report.fail(format!("traced request {id}: {err}")),
        };
        report.check(request_print(outcome.tier, &outcome.plan) == print, || {
            format!("traced request {id} differs from the untraced session's outcome")
        });
        let fuzzy_key = shadow.fuzzy_key(request).expect("the fuzzy tier is on");
        match outcome.tier {
            PlanTier::Exact => self.hits += 1,
            PlanTier::Fuzzy => {
                self.hits += 1;
                let Some(anchor) = anchors.get(&fuzzy_key) else {
                    return report.fail(format!("fuzzy request {id} has no cold anchor"));
                };
                let tracer = &mut self.run.tracer;
                let span = tracer.begin("delta.replan", id);
                let delta = shadow
                    .planner()
                    .plan_iteration_delta(request.microbatches(), anchor);
                tracer.end(span);
                match delta {
                    Ok(plan) => report
                        .check(PlanPrint::of(&plan) == PlanPrint::of(&outcome.plan), || {
                            format!("delta replan {id} differs from the session's fuzzy plan")
                        }),
                    Err(err) => report.fail(format!("delta replan {id}: {err}")),
                }
            }
            PlanTier::Cold | PlanTier::Elastic => {
                anchors.entry(fuzzy_key).or_insert(outcome.plan);
            }
        }
    }
}

/// Largest share of exact hits among the requests. Exact hits take tens of
/// microseconds and fuzzy hits milliseconds, so `plan_p90_ms` measures the
/// fuzzy tier only while well over 10% of the requests miss the exact tier.
const MAX_EXACT_SHARE: f64 = 0.85;
/// Largest share of cold misses, for the same reason at the other end.
const MAX_COLD_SHARE: f64 = 0.05;

/// The 90th percentile must lie well inside the fuzzy tier, not on the
/// boundary of a neighbouring tier.
fn check_tier_shares(report: &mut Report, tiers: [u64; 3]) {
    let total = tiers.iter().sum::<u64>().max(1) as f64;
    let (exact, cold) = (tiers[0] as f64 / total, tiers[2] as f64 / total);
    println!("tier shares: exact {exact:.4}, cold {cold:.4}");
    report.check(exact <= MAX_EXACT_SHARE && cold <= MAX_COLD_SHARE, || {
        format!(
            "tier shares exact {exact:.4} / cold {cold:.4} put plan_p90_ms near a tier boundary \
             (limits {MAX_EXACT_SHARE} / {MAX_COLD_SHARE})"
        )
    });
}

/// Span names of `session.plan` by the tier that served it.
const SPAN_NAMES: [&str; 3] = [
    "session.plan.exact",
    "session.plan.fuzzy",
    "session.plan.cold",
];

/// The tier counts must add up to the request count and agree with the
/// session's own statistics.
fn check_tiers(report: &mut Report, session: &PlanningSession<'_>, tiers: [u64; 3]) {
    let stats = session.stats();
    report.check(tiers.iter().sum::<u64>() == STREAM as u64, || {
        format!("tier counts {tiers:?} do not add up to {STREAM} requests")
    });
    report.check(
        stats.requests == STREAM as u64
            && [stats.exact_hits, stats.fuzzy_hits, stats.cache_misses] == tiers,
        || format!("session statistics {stats:?} disagree with the served tiers {tiers:?}"),
    );
}
