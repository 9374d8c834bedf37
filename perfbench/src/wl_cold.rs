//! `cold_dynamic`: VLM-S on two H800 nodes, `ParallelConfig(4, 4, 1)`,
//! 12 microbatches per iteration, planned through a `SessionConfig::cold()`
//! session (no cache, no warm start) with MCTS at the 300 ms virtual
//! budget. The closed loop cycles the seeded fig8b rise-and-fall envelope,
//! so every request pays the full planning pipeline.
//!
//! The traced run replays `DipPlanner::plan_iteration`'s phases through
//! their public functions, one span per phase, and checks that the replay
//! reproduces the untraced plans bit for bit.

use crate::alloc_count;
use crate::common::{self, Args, PlanPrint, Report, SetupTimes};
use crate::trace::{TracedRun, Tracer};
use dip_core::{
    optimize_memory_detailed, search_ordering, BucketingConfig, CanonicalSignature, DipPlan,
    DipPlanner, ModalityAwarePartitioner, OrderingSearchConfig, PlanRequest, SessionConfig,
    WorkloadSignature,
};
use dip_data::{BatchGenerator, DatasetMix, DynamicWorkloadController, ImageBoundSchedule};
use dip_models::{zoo, BatchWorkload, LmmSpec};
use dip_pipeline::{dual_queue, DualQueueConfig, ParallelConfig, RankOrders, StageGraphBuilder};
use dip_sim::ClusterSpec;
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per run, one before the timed loop and the rest spread over it;
/// `setup_s` is their median.
const SETUPS: usize = 15;
/// Iterations of the rise-and-fall envelope the loop cycles through.
const ENVELOPE: usize = 40;

/// The seeded fig8b envelope: two rise-and-fall patterns of iterations.
pub fn envelope(seed: u64) -> Vec<Vec<BatchWorkload>> {
    let generator = BatchGenerator::vlm(DatasetMix::vlm_default(), common::MICROBATCHES, seed);
    let mut controller = DynamicWorkloadController::new(
        generator,
        ImageBoundSchedule::new(ImageBoundSchedule::fig8b().iter().take(ENVELOPE).collect()),
    );
    controller
        .collect_trace()
        .iter()
        .map(|iteration| iteration.batch.workloads())
        .collect()
}

/// The phases of one replayed cold plan.
struct Replayed {
    priorities: Vec<i64>,
    orders: RankOrders,
    makespan: f64,
    evaluations: u64,
    progress_points: usize,
    search_s: f64,
    search_allocations: u64,
}

/// Replays `plan_iteration`'s phases for `microbatches` on `planner` (whose
/// offline partition is already pinned), one span per phase call.
fn replay(
    spec: &LmmSpec,
    parallel: ParallelConfig,
    planner: &DipPlanner<'_>,
    microbatches: &[BatchWorkload],
    tracer: &mut Tracer,
    request: u64,
) -> Result<Replayed, String> {
    let config = planner.config();

    let span = tracer.begin("partitioner.split", request);
    let partition = planner
        .partition_output()
        .ok_or("the offline partition is not pinned")?;
    let sub_plan =
        ModalityAwarePartitioner::new(spec, parallel, *planner.timing(), config.partitioner)
            .on_topology(planner.topology())
            .sub_microbatch_plan(&partition, microbatches);
    tracer.end(span);

    let span = tracer.begin("graph.build", request);
    let builder = StageGraphBuilder::new_on(spec, &partition.placement, planner.topology())
        .with_efficiency(config.efficiency)
        .with_workers(1);
    let prepared = builder
        .prepare(microbatches, &sub_plan)
        .map_err(|e| format!("preparing the stage graph: {e}"))?;
    let (mut graph, _) = builder.build_prepared(&prepared);
    tracer.end(span);

    let budget = planner
        .topology()
        .activation_budget(&graph.static_memory, parallel.tp);
    let base_queue = DualQueueConfig {
        memory_limit: Some(budget.clone()),
        ..DualQueueConfig::default()
    };
    let search_config = OrderingSearchConfig {
        dual_queue: base_queue.clone(),
        seed_ordering: None,
        ..config.search.clone()
    };
    let span = tracer.begin("ordering.search", request);
    let allocations_before = alloc_count::allocations();
    let search = search_ordering(&graph, partition.placement.segments.len(), &search_config);
    let search_allocations = alloc_count::allocations() - allocations_before;
    let search_s = tracer.end(span);

    let span = tracer.begin("memopt.solve", request);
    let memopt = optimize_memory_detailed(&graph, &search.orders, &budget, &config.memory, 1)
        .map_err(|e| format!("memory optimisation: {e}"))?;
    tracer.end(span);

    let span = tracer.begin("graph.reprice", request);
    graph.reprice(&memopt.plan);
    tracer.end(span);

    let queue = DualQueueConfig {
        segment_priorities: search.segment_priorities.clone(),
        ..base_queue
    };
    let span = tracer.begin("dual_queue.schedule", request);
    let (orders, makespan) = dual_queue::schedule(&graph, &queue);
    tracer.end(span);

    Ok(Replayed {
        priorities: search.segment_priorities,
        orders,
        makespan,
        evaluations: search.evaluations,
        progress_points: search.progress.len(),
        search_s,
        search_allocations,
    })
}

/// Per-layer totals of the traced run.
#[derive(Default)]
struct Traced {
    run: TracedRun,
    search_s: f64,
    evaluations: u64,
    progress_points: usize,
    search_allocations: u64,
}

impl Traced {
    /// Replays the request of `plan` twice right after it was planned: once
    /// untraced, the baseline of `trace.overhead_frac`, and once with spans
    /// and allocation counting, which must reproduce `plan`.
    fn replay_after(
        &mut self,
        spec: &LmmSpec,
        planner: &DipPlanner<'_>,
        microbatches: &[BatchWorkload],
        plan: &DipPlan,
        report: &mut Report,
    ) {
        let id = self.run.next_id();
        let tracer = &mut self.run.tracer;
        let span = tracer.begin("session.key", id);
        black_box(WorkloadSignature::of(black_box(microbatches)));
        black_box(CanonicalSignature::of(
            black_box(microbatches),
            &BucketingConfig::default(),
        ));
        tracer.end(span);

        let parallel = common::parallel();
        let t = Instant::now();
        let untraced = replay(
            spec,
            parallel,
            planner,
            microbatches,
            &mut Tracer::disabled(),
            id,
        );
        let untraced_s = t.elapsed().as_secs_f64();
        drop(black_box(untraced));
        let result = self.run.serve(
            untraced_s,
            |tracer, id| replay(spec, parallel, planner, microbatches, tracer, id),
            |_| "request",
        );

        let replayed = match result {
            Ok(replayed) => replayed,
            Err(err) => return report.fail(format!("traced replay {id}: {err}")),
        };
        report.check(
            replayed.priorities == plan.segment_priorities
                && replayed.orders == plan.orders
                && replayed.makespan.to_bits() == plan.stats.planned_time_s.to_bits()
                && replayed.evaluations == plan.stats.search_evaluations,
            || {
                format!(
                    "traced replay {id}: priorities, orders or makespan differ from plan_iteration"
                )
            },
        );
        self.search_s += replayed.search_s;
        self.evaluations += replayed.evaluations;
        self.progress_points += replayed.progress_points;
        self.search_allocations += replayed.search_allocations;
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let spec = zoo::vlm_s();
    let cluster = ClusterSpec::h800_cluster(2);
    let requests: Vec<PlanRequest> = envelope(args.seed)
        .into_iter()
        .map(PlanRequest::new)
        .collect();

    let mut times = SetupTimes::default();
    let session = match common::set_up_session(&spec, &cluster, SessionConfig::cold(), &mut times) {
        Ok(session) => session,
        Err(err) => return report.fail(err),
    };

    // Timed closed loop. With tracing on, each request is replayed right
    // after its untraced plan, so all halves see the same machine state.
    // The further set-ups are spread over the loop and discarded.
    let n = requests.len();
    let mut first_pass: Vec<Option<DipPlan>> = vec![None; n];
    let mut traced = args.trace.then(Traced::default);
    let served = common::closed_loop(
        n,
        args.seconds,
        report,
        |idx| session.plan(&requests[idx]),
        |i, idx, outcome, _, report| {
            if let Some(traced) = &mut traced {
                traced.replay_after(
                    &spec,
                    session.planner(),
                    requests[idx].microbatches(),
                    &outcome.plan,
                    report,
                );
            }
            match &first_pass[idx] {
                None => first_pass[idx] = Some(outcome.plan),
                Some(first) => report.check(PlanPrint::of(first) == PlanPrint::of(&outcome.plan), || {
                    format!("request {i}: the plan differs from the first pass's plan of the same iteration")
                }),
            }
        },
        SETUPS - 1,
        |report| {
            if let Err(err) =
                common::set_up_session(&spec, &cluster, SessionConfig::cold(), &mut times)
            {
                report.fail(err);
            }
        },
    );

    // Plan quality, outside the timed loop: tokens of the served plans over
    // their summed simulated iteration time (one pass of the envelope).
    let mut sim_s = 0.0;
    let mut sim_tokens = 0u64;
    let mut evaluations = 0u64;
    let mut items = Vec::new();
    for (request, plan) in requests.iter().zip(&first_pass) {
        let Some(plan) = plan else {
            report.fail("an envelope iteration never planned");
            continue;
        };
        if let Some(t) = common::simulate(session.planner(), plan, report) {
            sim_s += t;
            sim_tokens += common::tokens(request.microbatches());
        }
        evaluations += plan.stats.search_evaluations;
        items.push(plan.graph.len() as f64);
    }
    let sim_tokens_per_s = sim_tokens as f64 / sim_s;
    report
        .witnesses
        .insert("sim_tokens_per_s_bits", sim_tokens_per_s.to_bits());
    report.witnesses.insert("pass_evaluations", evaluations);
    println!("quality: {evaluations} search evaluations per pass of the envelope");

    let Some(traced) = traced else {
        common::setup_metric(report, &times.setup_s);
        report.metric("plans_per_s", served.plans_per_s());
        common::latency_metrics(report, &served.latencies, usize::MAX);
        report.metric("sim_tokens_per_s", sim_tokens_per_s);
        return;
    };

    let tracer = &traced.run.tracer;
    let us = |name: &str| common::median(&tracer.durations_s(name)) * 1e6;
    let ms = |name: &str| common::median(&tracer.durations_s(name)) * 1e3;
    let evals = traced.evaluations.max(1) as f64;
    report.metric("session.key_us", us("session.key"));
    report.metric(
        "partitioner.offline_ms",
        common::median(&times.offline_s) * 1e3,
    );
    report.metric("partitioner.split_us", us("partitioner.split"));
    report.metric("graph.build_ms", ms("graph.build"));
    report.metric("graph.items", common::median(&items));
    report.metric("graph.reprice_us", us("graph.reprice"));
    report.metric("ordering.search_ms", ms("ordering.search"));
    report.metric("ordering.evals", evaluations as f64 / n as f64);
    report.metric("ordering.us_per_eval", traced.search_s * 1e6 / evals);
    report.metric(
        "ordering.improving_frac",
        traced.progress_points as f64 / evals,
    );
    report.metric("dual_queue.schedule_us", us("dual_queue.schedule"));
    report.metric("memopt.solve_ms", ms("memopt.solve"));
    report.metric("alloc.per_eval", traced.search_allocations as f64 / evals);
    traced.run.finish(report, args);
}
