//! `elastic_failover`: seeded `FailureSchedule`s (node kills, restores and
//! an addition) over `ClusterTopology::mixed_h800_h20(1, 1)`, each fault
//! recovered with `DipPlanner::replan_elastic` at migration weight 0. The
//! closed loop cycles the schedules' events, so it repeats every replan
//! many times. It is the only workload on a heterogeneous topology and the
//! only one whose topology changes mid-run.

use crate::common::{self, Args, PlanPrint, Report};
use crate::trace::TracedRun;
use dip_core::{DipPlan, DipPlanner, ElasticConfig, ElasticOutcome};
use dip_data::{FailureSchedule, FaultEvent, ScheduledFault};
use dip_models::{zoo, BatchWorkload};
use dip_sim::ClusterTopology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run, one before the timed loop and the rest spread over it;
/// `setup_s` is their median.
const SETUPS: usize = 5;
/// Failure schedules per run, each with its own derived seed.
const SCHEDULES: usize = 4;

/// One topology change: the iteration's microbatches and the topologies
/// before and after.
struct Event {
    iteration: usize,
    microbatches: Vec<BatchWorkload>,
    old: ClusterTopology,
    new: ClusterTopology,
}

/// A set-up event: the plan running when the fault hits, and the planner
/// on the new topology that recovers it.
struct Prepared<'a> {
    running: DipPlan,
    replanner: DipPlanner<'a>,
}

/// What a repeated replan must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct ReplanPrint {
    plan: PlanPrint,
    candidate: String,
    candidates: usize,
    bytes_moved: u64,
    recovery_bits: u64,
}

impl ReplanPrint {
    fn of(outcome: &ElasticOutcome) -> Self {
        Self {
            plan: PlanPrint::of(&outcome.plan),
            candidate: outcome.candidate.to_string(),
            candidates: outcome.candidates.len(),
            bytes_moved: outcome.migration.bytes_moved,
            recovery_bits: recovery_s(outcome).to_bits(),
        }
    }
}

/// Virtual planning time plus state-transfer time of one recovery.
fn recovery_s(outcome: &ElasticOutcome) -> f64 {
    outcome.planning_virtual_s + outcome.migration.transfer_time_s
}

/// The topology changes of the workload. Schedule `k` kills the base
/// topology's H800 node (even `k`) or H20 node (odd `k`), restores it, kills
/// the other node and adds a second node of the first victim's kind, at four
/// iterations of the seeded fig8b envelope drawn from the schedule's own
/// seed. Every run thus sees the same mix of 8- and 16-GPU, homogeneous and
/// mixed topologies; the seed moves the iterations and their microbatches.
fn events(seed: u64) -> Vec<Event> {
    let iterations = crate::wl_cold::envelope(seed);
    let base = ClusterTopology::mixed_h800_h20(1, 1);
    let mut events = Vec::new();
    for k in 0..SCHEDULES {
        let mut rng =
            StdRng::seed_from_u64(seed.wrapping_mul(SCHEDULES as u64).wrapping_add(k as u64));
        let mut pool: Vec<usize> = (1..iterations.len()).collect();
        let mut at: Vec<usize> = (0..4)
            .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
            .collect();
        at.sort_unstable();
        let (victim, other) = (k % 2, 1 - k % 2);
        let faults = [
            FaultEvent::Kill(victim),
            FaultEvent::Restore(victim),
            FaultEvent::Kill(other),
            FaultEvent::Add(base.nodes()[victim]),
        ];
        let schedule = FailureSchedule::new(
            base.clone(),
            at.into_iter()
                .zip(faults)
                .map(|(iteration, event)| ScheduledFault { iteration, event })
                .collect(),
        );
        let mut topology = base.clone();
        for (iteration, new) in schedule.topologies() {
            events.push(Event {
                iteration,
                microbatches: iterations[iteration].clone(),
                old: topology.clone(),
                new: new.clone(),
            });
            topology = new;
        }
    }
    events
}

fn set_up<'a>(
    spec: &'a dip_models::LmmSpec,
    events: &[Event],
    offline_s: &mut Vec<f64>,
) -> Result<Vec<Prepared<'a>>, String> {
    let parallel = common::parallel();
    let mut prepared = Vec::with_capacity(events.len());
    for event in events {
        let planner =
            DipPlanner::on_topology(spec, parallel, event.old.clone(), common::planner_config());
        let offline = Instant::now();
        planner
            .offline_partition(&common::representative())
            .map_err(|e| format!("offline partition: {e}"))?;
        offline_s.push(offline.elapsed().as_secs_f64());
        let running = planner
            .plan_iteration(&event.microbatches)
            .map_err(|e| format!("pre-fault plan at iteration {}: {e}", event.iteration))?;
        let replanner =
            DipPlanner::on_topology(spec, parallel, event.new.clone(), common::planner_config());
        replanner
            .offline_partition(&common::representative())
            .map_err(|e| format!("offline partition: {e}"))?;
        prepared.push(Prepared { running, replanner });
    }
    // Untimed warm-up: every replan once.
    for (event, prep) in events.iter().zip(&prepared) {
        replan(event, prep).map_err(|e| format!("warm-up replan: {e}"))?;
    }
    Ok(prepared)
}

fn replan(event: &Event, prep: &Prepared<'_>) -> Result<ElasticOutcome, dip_core::DipError> {
    let config = ElasticConfig {
        migration_weight: 0.0,
        ..ElasticConfig::default()
    };
    prep.replanner
        .replan_elastic(&event.microbatches, &prep.running, &event.old, &config)
}

pub fn run(args: &Args, report: &mut Report) {
    let spec = zoo::vlm_s();
    let events = events(args.seed);
    let n = events.len();
    if n == 0 {
        return report.fail("the seeded schedules produced no topology change");
    }

    // Set-up: planners on both topologies of every event, offline
    // partitions, the pre-fault plans and one warm-up replan per event.
    // Further set-ups are spread over the timed loop and discarded.
    let mut setup_s = Vec::new();
    let mut offline_s = Vec::new();
    let mut timed_set_up = |setup_s: &mut Vec<f64>| {
        let start = Instant::now();
        let prepared = set_up(&spec, &events, &mut offline_s);
        setup_s.push(start.elapsed().as_secs_f64());
        prepared
    };
    let prepared = match timed_set_up(&mut setup_s) {
        Ok(prepared) => prepared,
        Err(err) => return report.fail(err),
    };
    println!("{n} topology changes from {SCHEDULES} schedules");

    // Timed closed loop over the events. With tracing on, each event is
    // replanned again with spans right after its untraced replan, so both
    // halves see the same machine state.
    let mut first_pass: Vec<Option<ElasticOutcome>> = vec![None; n];
    let mut traced = args.trace.then(TracedRun::default);
    let served = common::closed_loop(
        n,
        args.seconds,
        report,
        |idx| replan(&events[idx], &prepared[idx]),
        |i, idx, outcome, latency, report| {
            let print = ReplanPrint::of(&outcome);
            if let Some(traced) = &mut traced {
                replan_traced(
                    traced,
                    &events[idx],
                    &prepared[idx],
                    &print,
                    latency,
                    report,
                );
            }
            match &first_pass[idx] {
                Some(first) => report.check(ReplanPrint::of(first) == print, || {
                    format!("replan {i}: the recovery differs from the first pass's recovery of the same event")
                }),
                None => first_pass[idx] = Some(outcome),
            }
        },
        SETUPS - 1,
        |report| {
            if let Err(err) = timed_set_up(&mut setup_s) {
                report.fail(err);
            }
        },
    );

    // Outside the timed loop: plan quality, and each recovery against a
    // cold restart (a full-budget plan plus a full state restore).
    let (mut sim_s, mut sim_tokens) = (0.0f64, 0u64);
    let (mut recovery_total, mut candidates, mut bytes_moved) = (0.0f64, 0usize, 0u64);
    println!(
        "event iteration gpus      candidate          cands  bytes_moved    recovery_s  cold_s"
    );
    for (k, ((event, prep), outcome)) in events.iter().zip(&prepared).zip(&first_pass).enumerate() {
        let Some(outcome) = outcome else {
            report.fail(format!("event {k} never recovered"));
            continue;
        };
        if let Some(t) = common::simulate(&prep.replanner, &outcome.plan, report) {
            sim_s += t;
            sim_tokens += common::tokens(&event.microbatches);
        }
        let recovery = recovery_s(outcome);
        let cold = match prep.replanner.plan_iteration(&event.microbatches) {
            Ok(cold_plan) => prep.replanner.cold_recovery_time_s(&cold_plan),
            Err(err) => {
                report.fail(format!("event {k}: cold plan: {err}"));
                continue;
            }
        };
        report.check(recovery < cold, || {
            format!(
                "event {k}: elastic recovery {recovery} s does not beat the cold restart {cold} s"
            )
        });
        recovery_total += recovery;
        candidates += outcome.candidates.len();
        bytes_moved += outcome.migration.bytes_moved;
        println!(
            "{k:>5} {:>9} {:>2}->{:<2}    {:<18} {:>5} {:>12} {:>12.6} {:>8.4}",
            event.iteration,
            event.old.num_gpus(),
            event.new.num_gpus(),
            outcome.candidate.to_string(),
            outcome.candidates.len(),
            outcome.migration.bytes_moved,
            recovery,
            cold
        );
    }
    let sim_tokens_per_s = sim_tokens as f64 / sim_s;
    report
        .witnesses
        .insert("sim_tokens_per_s_bits", sim_tokens_per_s.to_bits());
    report
        .witnesses
        .insert("recovery_total_bits", recovery_total.to_bits());
    report.witnesses.insert("bytes_moved", bytes_moved);

    let Some(traced) = traced else {
        common::setup_metric(report, &setup_s);
        report.metric("plans_per_s", served.plans_per_s());
        common::latency_metrics(report, &served.latencies, usize::MAX);
        report.metric("sim_tokens_per_s", sim_tokens_per_s);
        return;
    };

    let median_of = |name: &str| common::median(&traced.tracer.durations_s(name));
    report.metric("elastic.replan_ms", median_of("elastic.replan") * 1e3);
    report.metric("elastic.candidates", candidates as f64 / n as f64);
    report.metric("elastic.recovery_s", recovery_total / n as f64);
    report.metric("topology.delta_us", median_of("topology.delta") * 1e6);
    report.metric("migration.bytes_moved", bytes_moved as f64 / n as f64);
    report.metric("partitioner.offline_ms", common::median(&offline_s) * 1e3);
    traced.finish(report, args);
}

/// Replans `event` again with spans right after its untraced replan
/// (`print`, in `untraced_s`), which the traced replan must reproduce.
fn replan_traced(
    traced: &mut TracedRun,
    event: &Event,
    prep: &Prepared<'_>,
    print: &ReplanPrint,
    untraced_s: f64,
    report: &mut Report,
) {
    let id = traced.next_id();
    let span = traced.tracer.begin("topology.delta", id);
    black_box(
        event
            .old
            .delta_to(black_box(&event.new), common::parallel().tp),
    );
    traced.tracer.end(span);

    let result = traced.serve(untraced_s, |_, _| replan(event, prep), |_| "elastic.replan");
    match result {
        Ok(outcome) => report.check(ReplanPrint::of(&outcome) == *print, || {
            format!("traced replan {id} differs from the untraced recovery")
        }),
        Err(err) => report.fail(format!("traced replan {id}: {err}")),
    }
}
