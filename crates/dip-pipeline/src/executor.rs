//! Turns a stage graph plus per-rank execution orders into a simulated
//! iteration: the execution-plan deployment step of §6.3, replayed on the
//! discrete-event engine instead of a GPU cluster.

use crate::dual_queue::RankOrders;
use crate::graph::{Direction, StageGraph};
use crate::placement::{ParallelConfig, PipelineError};
use dip_sim::{
    ClusterTopology, EngineReport, IterationMetrics, SimEngine, Task, TaskKind, TimingModel,
};

/// Configuration of the plan executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// The parallelism configuration (needed for DP gradient synchronisation
    /// and cluster-level MFU).
    pub parallel: ParallelConfig,
    /// Whether to append the optimizer step and data-parallel gradient
    /// all-reduce to the iteration.
    pub include_optimizer: bool,
}

impl ExecutorConfig {
    /// A configuration with the optimizer step included.
    pub fn new(parallel: ParallelConfig) -> Self {
        Self {
            parallel,
            include_optimizer: true,
        }
    }
}

/// The outcome of executing a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// The raw engine report (timelines, memory traces, bubbles).
    pub report: EngineReport,
    /// Aggregated iteration metrics.
    pub metrics: IterationMetrics,
}

/// Executes `orders` over `graph` on the simulated cluster `topology`.
/// Optimizer steps are priced on each rank's own device and the
/// data-parallel all-reduce on the slowest network link of the cluster;
/// cluster peak FLOP/s (for MFU) sums the devices the job occupies.
///
/// # Errors
///
/// Returns [`PipelineError::Simulation`] if the schedule is inconsistent with
/// the graph's data dependencies (e.g. it deadlocks) or does not cover every
/// stage exactly once.
pub fn execute(
    graph: &StageGraph,
    orders: &RankOrders,
    topology: &ClusterTopology,
    timing: &TimingModel,
    config: &ExecutorConfig,
) -> Result<ExecutionOutcome, PipelineError> {
    if orders.orders.len() != graph.num_ranks {
        return Err(PipelineError::Simulation(format!(
            "schedule has {} ranks, graph has {}",
            orders.orders.len(),
            graph.num_ranks
        )));
    }
    if orders.num_stages() != graph.len() {
        return Err(PipelineError::Simulation(format!(
            "schedule covers {} stages, graph has {}",
            orders.num_stages(),
            graph.len()
        )));
    }

    let mut engine = SimEngine::new(graph.num_ranks);
    for (rank, bytes) in graph.static_memory.iter().enumerate() {
        engine.set_static_memory(rank, *bytes as i64);
    }

    // First pass: assign engine task ids in insertion order (rank by rank,
    // following the schedule order).
    let mut task_id_of_stage = vec![usize::MAX; graph.len()];
    let mut next_task = 0usize;
    for rank_order in &orders.orders {
        for stage in rank_order {
            if task_id_of_stage[stage.0] != usize::MAX {
                return Err(PipelineError::Simulation(format!(
                    "stage {} appears more than once in the schedule",
                    stage.0
                )));
            }
            task_id_of_stage[stage.0] = next_task;
            next_task += 1;
        }
    }

    // Second pass: create the tasks with translated dependencies.
    for rank_order in &orders.orders {
        for stage in rank_order {
            let item = graph.item(*stage);
            let kind = match item.direction {
                Direction::Forward => TaskKind::Forward,
                Direction::Backward => TaskKind::Backward,
            };
            let mut task = Task::compute(item.rank, item.duration, kind).with_label(format!(
                "{:?} seg{} mb{}.{} r{}",
                item.direction, item.segment, item.microbatch, item.sub_microbatch, item.rank
            ));
            match item.direction {
                Direction::Forward => {
                    task.mem_at_start = item.activation_bytes as i64;
                }
                Direction::Backward => {
                    task.mem_at_end = -(item.activation_bytes as i64);
                }
            }
            for (dep, lag) in graph.deps_of(item.id) {
                task = task.after(dip_sim::TaskId(task_id_of_stage[dep.0]), *lag);
            }
            engine.add_task(task);
        }
    }

    // Optimizer step + data-parallel gradient all-reduce at the end of the
    // iteration on every rank.
    if config.include_optimizer {
        for rank in 0..graph.num_ranks {
            let param_bytes = graph.param_bytes_per_rank.get(rank).copied().unwrap_or(0);
            // The memory-bound optimizer update runs at the HBM bandwidth of
            // the device hosting this rank.
            let rank_timing = TimingModel::new(
                topology.rank_device(rank, config.parallel.tp),
                timing.efficiency,
            );
            let mut duration = rank_timing.optimizer_step_latency(param_bytes);
            if config.parallel.dp > 1 {
                duration += timing.allreduce_latency(
                    param_bytes,
                    config.parallel.dp,
                    topology.min_net_bandwidth(),
                );
            }
            engine.add_task(
                Task::compute(rank, duration, TaskKind::Optimizer).with_label("optimizer"),
            );
        }
    }

    let report = engine.run().map_err(|e| match e {
        // An inconsistent report is a bug in the engine/graph accounting,
        // not an invalid schedule — keep the two classes distinguishable.
        dip_sim::engine::EngineError::InconsistentReport { .. } => {
            PipelineError::Internal(e.to_string())
        }
        _ => PipelineError::Simulation(e.to_string()),
    })?;

    // The simulator replays one data-parallel replica, priced on replica 0's
    // devices (rank r → GPUs r*tp..), and assumes every other replica is
    // placed on an identical device set — so the MFU denominator is replica
    // 0's aggregate peak times dp, consistent with the simulated timings.
    let cluster_peak =
        topology.peak_flops_of(config.parallel.tp * config.parallel.pp) * config.parallel.dp as f64;
    let total_model_flops = graph.model_flops * config.parallel.dp as f64;
    // `try_bubble_fraction` (rather than the debug-asserting accessor) so a
    // busy-time over-accounting fails the simulation in release builds too,
    // instead of flowing into the metrics as a silently wrong number.
    let bubble_fraction = report
        .try_bubble_fraction()
        .map_err(|e| PipelineError::Internal(e.to_string()))?;
    let metrics = IterationMetrics::new(
        report.makespan,
        total_model_flops,
        cluster_peak,
        bubble_fraction,
        report.max_peak_memory(),
    );

    Ok(ExecutionOutcome { report, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual_queue::{schedule, DualQueueConfig};
    use crate::graph::{StageGraphBuilder, SubMicrobatchPlan};
    use crate::partition::balanced_param_placement;
    use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    use dip_sim::{ClusterSpec, EfficiencyModel, GpuSpec};

    fn setup(
        num_microbatches: usize,
    ) -> (StageGraph, ClusterTopology, TimingModel, ParallelConfig) {
        let spec = zoo::lm_7b();
        let parallel = ParallelConfig::new(2, 4, 1);
        let placement = balanced_param_placement(&spec, parallel, 1);
        let cluster = ClusterSpec::h800_cluster(1);
        let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
        let batch = BatchWorkload::new().with(Modality::Text, ModalityWorkload::from_tokens(8192));
        let batches = vec![batch; num_microbatches];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = builder.build(&batches, &plan).unwrap();
        let timing = TimingModel::new(cluster.gpu, EfficiencyModel::default());
        (graph, cluster.topology(), timing, parallel)
    }

    #[test]
    fn executes_a_1f1b_schedule_and_reports_metrics() {
        let (graph, topology, timing, parallel) = setup(8);
        let (orders, estimated) = schedule(&graph, &DualQueueConfig::default());
        let outcome = execute(
            &graph,
            &orders,
            &topology,
            &timing,
            &ExecutorConfig::new(parallel),
        )
        .unwrap();
        assert!(outcome.metrics.iteration_time_s > 0.0);
        assert!(outcome.metrics.mfu > 0.0 && outcome.metrics.mfu < 1.0);
        // The scheduler's internal estimate and the engine should agree
        // closely (the engine adds the optimizer step).
        assert!(outcome.metrics.iteration_time_s >= estimated * 0.99);
        // More microbatches amortise the pipeline bubble.
        assert!(outcome.metrics.bubble_fraction < 0.8);
    }

    #[test]
    fn more_microbatches_reduce_bubble_fraction() {
        let (graph_small, topology, timing, parallel) = setup(2);
        let (graph_large, ..) = setup(16);
        let run = |g: &StageGraph| {
            let (orders, _) = schedule(g, &DualQueueConfig::default());
            execute(
                g,
                &orders,
                &topology,
                &timing,
                &ExecutorConfig::new(parallel),
            )
            .unwrap()
            .metrics
        };
        let small = run(&graph_small);
        let large = run(&graph_large);
        assert!(large.bubble_fraction < small.bubble_fraction);
        assert!(large.mfu > small.mfu);
    }

    #[test]
    fn rejects_incomplete_schedules() {
        let (graph, topology, timing, parallel) = setup(2);
        let (mut orders, _) = schedule(&graph, &DualQueueConfig::default());
        orders.orders[0].pop();
        let err = execute(
            &graph,
            &orders,
            &topology,
            &timing,
            &ExecutorConfig::new(parallel),
        )
        .unwrap_err();
        assert!(matches!(err, PipelineError::Simulation(_)));
    }

    #[test]
    fn peak_memory_respects_activation_accounting() {
        let (graph, topology, timing, parallel) = setup(4);
        let (orders, _) = schedule(&graph, &DualQueueConfig::default());
        let outcome = execute(
            &graph,
            &orders,
            &topology,
            &timing,
            &ExecutorConfig::new(parallel),
        )
        .unwrap();
        let static_max = graph.static_memory.iter().copied().max().unwrap_or(0) as i64;
        assert!(outcome.metrics.peak_memory_bytes >= static_max);
        let gpu = GpuSpec::preset(dip_sim::GpuGeneration::H800);
        // Sanity: a 7B model at TP2/PP4 should fit in the H800.
        assert!(outcome.metrics.peak_memory_bytes < gpu.mem_capacity as i64 * 2);
    }
}
