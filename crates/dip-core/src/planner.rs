//! The DIP online planner (§3.2): for every training iteration, prefetched
//! microbatch metadata is turned into sub-microbatches, a pipeline schedule
//! is searched on idle CPU workers, per-layer memory strategies are chosen,
//! and the resulting execution plan is deployed (here: simulated).

use crate::error::{DipError, ResultExt};
use crate::memopt::{optimize_memory, MemoryOptConfig};
use crate::ordering::{
    ordering_from_priorities, search_ordering, OrderingResult, OrderingSearchConfig, SearchStrategy,
};
use crate::partitioner::{ModalityAwarePartitioner, PartitionerConfig, PartitionerOutput};
use crate::sync::lock;
use dip_models::{BatchWorkload, LmmSpec, Modality};
use dip_pipeline::{
    dual_queue, execute, DualQueueConfig, ExecutionOutcome, ExecutorConfig, MemoryPlan,
    ParallelConfig, Placement, RankOrders, StageGraph, StageGraphBuilder, SubMicrobatchPlan,
};
use dip_sim::{
    CalibrationRegistry, CalibrationSource, ClusterSpec, ClusterTopology, EfficiencyModel,
    TimingModel,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of the DIP planner.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Modality-aware partitioner settings (§4).
    pub partitioner: PartitionerConfig,
    /// Segment-ordering search settings (§5.1).
    pub search: OrderingSearchConfig,
    /// Per-layer memory optimisation settings (§5.3).
    pub memory: MemoryOptConfig,
    /// Efficiency factors of the underlying timing model.
    pub efficiency: EfficiencyModel,
    /// Enables the pipeline schedule searcher. Disabling it yields the
    /// "DIP (no-opt)" variant of Fig. 8b (modality-aware partitioner only).
    pub enable_search: bool,
    /// Enables per-layer memory optimisation.
    pub enable_memory_opt: bool,
    /// The planner's total CPU-thread budget.
    /// [`crate::PlanningSession::plan_many`] sizes its worker pool as
    /// `num_threads / search.workers` (at least one), so batch planning
    /// never runs more than `num_threads` concurrent threads in total:
    /// within a plan only the ordering-search streams run in parallel.
    /// Set together with `search.workers` via
    /// [`PlannerConfig::with_num_threads`].
    pub num_threads: usize,
    /// Fleet calibration artifacts, consulted when the planner is bound to
    /// a topology: the registry resolves through its fallback chain (exact
    /// fingerprint → device-kind defaults → built-in constants), rewrites
    /// the topology's device timing parameters and installs the calibrated
    /// link latencies and virtual-clock [`dip_sim::CostModel`]s into this
    /// config. `None` skips resolution entirely and is bit-identical to a
    /// registry that resolves to the built-in tier.
    pub calibration: Option<CalibrationRegistry>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            partitioner: PartitionerConfig::default(),
            search: OrderingSearchConfig::default(),
            memory: MemoryOptConfig::default(),
            efficiency: EfficiencyModel::default(),
            enable_search: true,
            enable_memory_opt: true,
            num_threads: 4,
            calibration: None,
        }
    }
}

impl PlannerConfig {
    /// A configuration with a short search budget, handy for tests and
    /// examples. The budget is virtual time: ~40 ms worth of evaluations
    /// per stream under the calibrated cost model, identical on any
    /// machine.
    pub fn fast() -> Self {
        Self {
            search: OrderingSearchConfig {
                time_budget: Duration::from_millis(40),
                streams: 2,
                workers: 2,
                ..OrderingSearchConfig::default()
            },
            ..Self::default()
        }
    }

    /// The "DIP (no-opt)" variant: modality-aware partitioning only, no
    /// schedule search and no memory optimisation (Fig. 8b / Table 5 row 1).
    pub fn no_opt() -> Self {
        Self {
            enable_search: false,
            enable_memory_opt: false,
            ..Self::fast()
        }
    }

    /// Selects the ordering-search strategy (MCTS, DFS or random).
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.search.strategy = strategy;
        self
    }

    /// Gives the planner an `n`-thread CPU budget: `n` ordering-search
    /// workers per plan (the graph build and the memory optimiser are
    /// serial), with [`crate::PlanningSession::plan_many`] sizing its pool
    /// within the same budget (so with all `n` threads devoted to the
    /// search, batch planning proceeds one plan at a time). To fan out
    /// across plans instead, set `search.workers` to 1 and keep
    /// `num_threads` at the core count.
    ///
    /// Purely a throughput knob: `search.streams` (the search-space shape)
    /// is deliberately left untouched, so two machines configured with
    /// different thread budgets still plan **bit-identically** for a fixed
    /// seed.
    pub fn with_num_threads(mut self, n: usize) -> Self {
        let n = n.max(1);
        self.search.workers = n;
        self.num_threads = n;
        self
    }

    /// Installs a fleet calibration registry; see
    /// [`PlannerConfig::calibration`].
    pub fn with_calibration(mut self, registry: CalibrationRegistry) -> Self {
        self.calibration = Some(registry);
        self
    }
}

/// Which tier of the planning-session's three-tier lookup produced a plan:
/// exact cache hit, fuzzy hit (delta replan from an in-bucket neighbour) or
/// cold (planned from scratch). Single-shot [`DipPlanner`] plans are
/// [`PlanTier::Cold`]; [`DipPlanner::replan_elastic`] plans are
/// [`PlanTier::Elastic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlanTier {
    /// Planned from scratch: full ordering search plus memory ILP.
    #[default]
    Cold,
    /// Served from the exact-signature plan cache without re-planning.
    Exact,
    /// Delta-replanned from an in-bucket neighbour's cached plan (the
    /// neighbour's partition and memory plan are reused; only a tiny
    /// seeded ordering search runs).
    Fuzzy,
    /// Elastically replanned across a cluster-topology change
    /// ([`DipPlanner::replan_elastic`]): the old plan's sub-microbatch
    /// table and memory plan are reused, candidate placements are priced
    /// against a migration-cost objective, and only a small seeded
    /// ordering search runs per candidate.
    Elastic,
}

/// Statistics of one planning invocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlannerStats {
    /// Wall-clock time spent planning (all phases).
    pub planning_time: Duration,
    /// Wall-clock time of the partitioning phase (sub-microbatch planning;
    /// includes the offline partition on the first iteration). Stage-graph
    /// construction is accounted separately in `graph_build_time`.
    pub partition_time: Duration,
    /// Wall-clock time of the stage-graph construction phase: the one full
    /// serial expansion per plan (workload splitting, stage pricing and
    /// dependency wiring). The later memory-plan application is an
    /// in-place [`StageGraph::reprice`] counted under `memopt_time`.
    pub graph_build_time: Duration,
    /// Wall-clock time of the schedule-search phase (§5.1–5.2).
    pub search_time: Duration,
    /// Summed per-stream task wall time of the search phase (see
    /// [`crate::OrderingResult::cpu_time`] for the exact semantics).
    /// `search_cpu_time / search_time` exposes the phase's parallel
    /// speedup — it approaches the worker count when the root-parallel
    /// search scales on dedicated cores, and overstates it when workers
    /// oversubscribe the machine.
    pub search_cpu_time: Duration,
    /// Wall-clock time of the memory-optimisation phase (§5.3), including
    /// the in-place reprice under the chosen strategies and the
    /// re-interleave.
    pub memopt_time: Duration,
    /// Number of schedule candidates evaluated by the searcher.
    pub search_evaluations: u64,
    /// How many of `search_evaluations` the incumbent cutoff bound aborted
    /// early (random/DFS strategies only — see
    /// [`OrderingSearchConfig::prune_bounded_evaluations`]). Pruned
    /// evaluations still count against every quota, so this is a pure
    /// wall-clock saving at an unchanged plan.
    pub search_pruned_evaluations: u64,
    /// How many of `search_evaluations` the search's ordering memo
    /// answered without an interleave pass (see
    /// [`OrderingResult::memo_hits`]). Like pruning, a wall-clock saving at
    /// an unchanged plan; it varies with thread timing at more than one
    /// worker.
    pub search_memo_hits: u64,
    /// Schedule candidates evaluated by each parallel search worker, in
    /// worker-index order (empty when the search was skipped or the graph
    /// has a single segment).
    pub search_worker_evaluations: Vec<u64>,
    /// The searcher's own estimate of the planned iteration time (seconds).
    pub planned_time_s: f64,
    /// True when the plan was served from a [`crate::PlanningSession`]
    /// cache instead of being computed (equivalent to
    /// `tier == PlanTier::Exact`).
    pub cache_hit: bool,
    /// True when the schedule search was warm-started from a previous
    /// iteration's best ordering.
    pub warm_started: bool,
    /// The lookup tier that produced this plan — the per-tier latency
    /// split: `planning_time` under [`PlanTier::Exact`] is pure cache
    /// lookup, under [`PlanTier::Fuzzy`] one graph expansion + reprice +
    /// delta search, under [`PlanTier::Cold`] the full pipeline.
    pub tier: PlanTier,
}

/// A deployed execution plan for one training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct DipPlan {
    /// The stage graph (with memory strategies applied).
    pub graph: StageGraph,
    /// Per-rank execution orders.
    pub orders: RankOrders,
    /// The segment priorities chosen by the searcher.
    pub segment_priorities: Vec<i64>,
    /// The per-stage-pair memory strategies.
    pub memory_plan: MemoryPlan,
    /// The sub-microbatch plan used for this iteration.
    pub sub_microbatches: SubMicrobatchPlan,
    /// The model-chunk placement the plan executes — provenance for elastic
    /// replanning, where the old placement seeds the candidate set and
    /// migration pricing compares old and new layer hosts.
    pub placement: Placement,
    /// The sorted union of modalities across the planned request's
    /// microbatches. Delta replans guard on it: a plan for a different
    /// modality set is structurally incompatible as an anchor.
    pub modalities: Vec<Modality>,
    /// Fingerprint of the cluster topology the plan was priced on
    /// ([`ClusterTopology::fingerprint`]). Delta replans guard on it, and
    /// elastic replans use it to detect the no-change fast path.
    pub topology_fingerprint: u64,
    /// Planner statistics.
    pub stats: PlannerStats,
}

/// The sorted union of modalities across a request's microbatches.
pub(crate) fn request_modalities(microbatches: &[BatchWorkload]) -> Vec<Modality> {
    let mut set = std::collections::BTreeSet::new();
    for microbatch in microbatches {
        set.extend(microbatch.modalities());
    }
    set.into_iter().collect()
}

/// The DIP training planner.
///
/// Single-shot planning of one iteration; multi-iteration workloads should
/// go through [`crate::PlanningSession`], which adds plan caching and
/// warm-started search on top.
///
/// ```
/// use dip_core::{DipPlanner, PlannerConfig};
/// use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
/// use dip_pipeline::ParallelConfig;
/// use dip_sim::ClusterTopology;
///
/// let spec = zoo::vlm_s();
/// // A heterogeneous cluster: 8 H800s plus 8 H20s. (For uniform clusters,
/// // `DipPlanner::new` over a `ClusterSpec` is equivalent.)
/// let topology = ClusterTopology::mixed_h800_h20(1, 1);
/// let planner = DipPlanner::on_topology(
///     &spec,
///     ParallelConfig::new(4, 4, 1),
///     topology,
///     PlannerConfig::fast(),
/// );
/// let batch = BatchWorkload::new()
///     .with(Modality::Text, ModalityWorkload::new(6502, 1))
///     .with(Modality::Image, ModalityWorkload::new(1690, 10));
/// let (plan, outcome) = planner.plan_and_simulate(&[batch]).unwrap();
/// assert!(outcome.metrics.iteration_time_s > 0.0);
/// assert!(plan.graph.critical_rank_time() > 0.0);
/// ```
#[derive(Debug)]
pub struct DipPlanner<'a> {
    pub(crate) spec: &'a LmmSpec,
    pub(crate) parallel: ParallelConfig,
    pub(crate) topology: ClusterTopology,
    pub(crate) config: PlannerConfig,
    timing: TimingModel,
    calibration_source: CalibrationSource,
    partition: Mutex<Option<PartitionerOutput>>,
}

impl<'a> DipPlanner<'a> {
    /// Creates a planner for a homogeneous cluster. The offline model-chunk
    /// partitioning happens on the first planned iteration (or via
    /// [`DipPlanner::offline_partition`]).
    pub fn new(
        spec: &'a LmmSpec,
        parallel: ParallelConfig,
        cluster: &ClusterSpec,
        config: PlannerConfig,
    ) -> Self {
        Self::on_topology(spec, parallel, cluster.topology(), config)
    }

    /// Creates a planner over an explicit (possibly heterogeneous) cluster
    /// topology: stage timings are priced on each rank's own device,
    /// per-rank memory budgets follow the hosting device's capacity, and
    /// the capacity-aware placement mode distributes layers by device
    /// capability.
    pub fn on_topology(
        spec: &'a LmmSpec,
        parallel: ParallelConfig,
        mut topology: ClusterTopology,
        mut config: PlannerConfig,
    ) -> Self {
        // Resolve the fleet calibration once, up front: the resolved
        // artifact rewrites the topology's device timing parameters, so
        // every downstream pricing site (stage graph, placement DP,
        // executor, cache fingerprints) sees calibrated devices without
        // any per-site plumbing. A constants-encoding artifact rewrites
        // every field to its current value and is bit-identical to `None`.
        let calibration_source = match &config.calibration {
            Some(registry) => {
                let resolved = registry.resolve(&topology);
                topology = resolved.apply(&topology);
                resolved.apply_latencies(&mut config.efficiency);
                config.search.eval_cost = resolved.eval_cost;
                config.memory.node_cost = resolved.ilp_node_cost;
                resolved.source
            }
            None => CalibrationSource::BuiltIn,
        };
        // Offline decisions that predate placement (segment counts,
        // sub-microbatch sizes) are priced on the reference device.
        let timing = TimingModel::new(topology.reference_device(), config.efficiency);
        Self {
            spec,
            parallel,
            topology,
            config,
            timing,
            calibration_source,
            partition: Mutex::new(None),
        }
    }

    /// Which tier of the calibration fallback chain supplied this planner's
    /// timing parameters ([`dip_sim::CalibrationSource::BuiltIn`] when no
    /// registry is configured).
    pub fn calibration_source(&self) -> CalibrationSource {
        self.calibration_source
    }

    /// The reference timing model used by the planner for offline decisions.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The cluster topology the planner plans for.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The planner configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Activation-memory budget per pipeline rank: the usable memory of the
    /// device hosting each rank minus that rank's static footprint.
    pub(crate) fn activation_budget(&self, static_memory: &[u64]) -> Vec<u64> {
        self.topology
            .activation_budget(static_memory, self.parallel.tp)
    }

    /// A partitioner bound to this planner's topology and configuration.
    fn partitioner(&self) -> ModalityAwarePartitioner<'a> {
        ModalityAwarePartitioner::new(
            self.spec,
            self.parallel,
            self.timing,
            self.config.partitioner,
        )
        .on_topology(&self.topology)
    }

    /// Runs (or re-runs) the offline phase against a representative
    /// microbatch, fixing the model-chunk placement for subsequent
    /// iterations.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::Pipeline`] if the resulting placement is invalid
    /// for the model specification.
    pub fn offline_partition(
        &self,
        representative: &BatchWorkload,
    ) -> Result<PartitionerOutput, DipError> {
        let output = self.partitioner().partition(representative)?;
        *lock(&self.partition) = Some(output.clone());
        Ok(output)
    }

    /// The fixed partitioner output, if the offline phase has run.
    pub fn partition_output(&self) -> Option<PartitionerOutput> {
        lock(&self.partition).clone()
    }

    /// Runs the offline phase against `representative` only if no placement
    /// is pinned yet, holding the partition lock across the whole
    /// check-and-pin — so concurrent planners on a fresh shared planner
    /// agree on one placement (the second caller blocks, then reads the
    /// first's output) instead of racing last-write-wins.
    ///
    /// # Errors
    ///
    /// Propagates [`DipError`] from the partitioner.
    pub fn offline_partition_if_absent(
        &self,
        representative: &BatchWorkload,
    ) -> Result<PartitionerOutput, DipError> {
        let mut guard = lock(&self.partition);
        if let Some(p) = guard.clone() {
            return Ok(p);
        }
        let output = self.partitioner().partition(representative)?;
        *guard = Some(output.clone());
        Ok(output)
    }

    fn ensure_partition(
        &self,
        microbatches: &[BatchWorkload],
    ) -> Result<PartitionerOutput, DipError> {
        // Use the heaviest microbatch of the first iteration as the
        // representative workload.
        let representative = microbatches
            .iter()
            .max_by(|a, b| a.total_tokens().cmp(&b.total_tokens()))
            .cloned()
            .unwrap_or_default();
        self.offline_partition_if_absent(&representative)
    }

    /// Plans one training iteration from prefetched microbatch metadata
    /// (workflow steps ①–③ of §3.2).
    ///
    /// # Errors
    ///
    /// Returns [`DipError`] wrapping failures from partitioning, stage-graph
    /// construction or memory optimisation.
    pub fn plan_iteration(&self, microbatches: &[BatchWorkload]) -> Result<DipPlan, DipError> {
        self.plan_iteration_seeded(microbatches, None)
    }

    /// Like [`DipPlanner::plan_iteration`], but warm-starts the schedule
    /// search from `seed_ordering` (normally the best ordering of a previous
    /// iteration with a similar shape; see
    /// [`crate::ordering_from_priorities`]). The [`crate::PlanningSession`]
    /// layer uses this on every cache miss after the first plan.
    ///
    /// # Errors
    ///
    /// Returns [`DipError`] wrapping failures from partitioning, stage-graph
    /// construction or memory optimisation.
    pub fn plan_iteration_seeded(
        &self,
        microbatches: &[BatchWorkload],
        seed_ordering: Option<&[usize]>,
    ) -> Result<DipPlan, DipError> {
        if microbatches.is_empty() {
            return Err(DipError::invalid_request(
                "cannot plan an iteration with zero microbatches",
            ));
        }
        let start = Instant::now();
        let partition = self.ensure_partition(microbatches)?;
        let sub_plan = self
            .partitioner()
            .sub_microbatch_plan(&partition, microbatches);
        let partition_time = start.elapsed();

        // The plan's one full stage-graph expansion. The memory plan chosen
        // later is applied by an in-place reprice, never a rebuild.
        let build_start = Instant::now();
        let builder = StageGraphBuilder::new_on(self.spec, &partition.placement, &self.topology)
            .with_efficiency(self.config.efficiency);
        let graph = builder
            .build(microbatches, &sub_plan)
            .planning_context("building stage graph")?;
        let graph_build_time = build_start.elapsed();

        let budget: Vec<u64> = self.activation_budget(&graph.static_memory);
        let base_queue = DualQueueConfig {
            memory_limit: Some(budget.clone()),
            ..DualQueueConfig::default()
        };

        // Phase ①+②: segment reordering + stage interleaving.
        let search_start = Instant::now();
        let warm_started = self.config.enable_search && seed_ordering.is_some();
        let num_segments = partition.placement.segments.len();
        let search = if self.config.enable_search {
            let search_config = OrderingSearchConfig {
                dual_queue: base_queue.clone(),
                seed_ordering: seed_ordering.map(<[usize]>::to_vec),
                ..self.config.search.clone()
            };
            search_ordering(&graph, num_segments, &search_config)
        } else {
            OrderingResult::unsearched(&graph, vec![0; num_segments], &base_queue)
        };
        let search_time = search_start.elapsed();

        // Phase ③: per-layer memory optimisation (the per-rank ILPs, in
        // rank order), then reprice the graph in place with the chosen
        // strategies and re-interleave with the same priorities. The
        // reprice is bit-identical to a full rebuild (memory strategies
        // only retime stages; dependencies and lags are untouched) at a
        // fraction of the cost.
        let memopt_start = Instant::now();
        let (graph, orders, memory_plan, planned_time) = if self.config.enable_memory_opt {
            let memory_plan =
                optimize_memory(&graph, &search.orders, &budget, &self.config.memory)?;
            let mut graph = graph;
            graph.reprice(&memory_plan);
            let queue = DualQueueConfig {
                segment_priorities: search.segment_priorities.clone(),
                ..base_queue
            };
            let (orders, makespan) = dual_queue::schedule(&graph, &queue);
            (graph, orders, memory_plan, makespan)
        } else {
            (graph, search.orders, MemoryPlan::new(), search.best_time_s)
        };
        let memopt_time = memopt_start.elapsed();

        Ok(DipPlan {
            graph,
            orders,
            segment_priorities: search.segment_priorities,
            memory_plan,
            sub_microbatches: sub_plan,
            placement: partition.placement,
            modalities: request_modalities(microbatches),
            topology_fingerprint: self.topology.fingerprint(),
            stats: PlannerStats {
                planning_time: start.elapsed(),
                partition_time,
                graph_build_time,
                search_time,
                search_cpu_time: search.cpu_time,
                memopt_time,
                search_evaluations: search.evaluations,
                search_worker_evaluations: search.worker_evaluations,
                search_pruned_evaluations: search.pruned_evaluations,
                search_memo_hits: search.memo_hits,
                planned_time_s: planned_time,
                cache_hit: false,
                warm_started,
                tier: PlanTier::Cold,
            },
        })
    }

    /// Delta-replans one iteration from a cached neighbour's plan — the
    /// fuzzy tier of the [`crate::PlanningSession`] three-tier lookup. The
    /// anchor's sub-microbatch splits and per-stage-pair memory strategies
    /// are adopted as-is; the stage graph is expanded once for the *new*
    /// workloads (so every stage is priced against the real shape) and
    /// repriced in place under the adopted strategies; then only a tiny
    /// ordering search runs, seeded from the anchor's best ordering and
    /// budgeted by [`OrderingSearchConfig::delta_budget`] — no full MCTS
    /// budget and no memory ILP. With a zero delta budget (or one too
    /// small to buy a single evaluation) the anchor's ordering is adopted
    /// verbatim: one deterministic interleave pass, no search at all.
    ///
    /// Like every search in this crate the delta budget is virtual time,
    /// so a fixed seed yields a bit-identical delta plan at any worker
    /// count on any machine.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::InvalidRequest`] when the anchor is
    /// structurally incompatible with the request, with the message naming
    /// the mismatched field — topology fingerprint, modality set,
    /// microbatch count or segment count (callers fall back to a cold
    /// plan) — and otherwise propagates stage-graph construction failures.
    pub fn plan_iteration_delta(
        &self,
        microbatches: &[BatchWorkload],
        anchor: &DipPlan,
    ) -> Result<DipPlan, DipError> {
        if microbatches.is_empty() {
            return Err(DipError::invalid_request(
                "cannot plan an iteration with zero microbatches",
            ));
        }
        let fingerprint = self.topology.fingerprint();
        if anchor.topology_fingerprint != fingerprint {
            return Err(DipError::invalid_request(format!(
                "anchor topology fingerprint {:#018x} does not match the \
                 planner topology fingerprint {:#018x}",
                anchor.topology_fingerprint, fingerprint
            )));
        }
        let modalities = request_modalities(microbatches);
        if anchor.modalities != modalities {
            return Err(DipError::invalid_request(format!(
                "anchor modality set {:?} does not match the request \
                 modality set {:?}",
                anchor.modalities, modalities
            )));
        }
        let start = Instant::now();
        let sub_plan = anchor.sub_microbatches.clone();
        if sub_plan.num_microbatches() != microbatches.len() {
            return Err(DipError::invalid_request(format!(
                "anchor microbatch count {} does not match the request \
                 microbatch count {}",
                sub_plan.num_microbatches(),
                microbatches.len()
            )));
        }
        let partition = self.ensure_partition(microbatches)?;
        let num_segments = partition.placement.segments.len();
        if sub_plan.num_segments() != num_segments
            || anchor.segment_priorities.len() != num_segments
        {
            return Err(DipError::invalid_request(format!(
                "anchor segment count {} ({} priorities) does not match the \
                 partition segment count {}",
                sub_plan.num_segments(),
                anchor.segment_priorities.len(),
                num_segments
            )));
        }
        let partition_time = start.elapsed();

        // One stage-graph expansion for the new shape. Reusing the anchor's
        // sub-microbatch table keeps the stage-pair indexing aligned with
        // the anchor's memory plan, so the strategies transfer one-to-one.
        let build_start = Instant::now();
        let builder = StageGraphBuilder::new_on(self.spec, &partition.placement, &self.topology)
            .with_efficiency(self.config.efficiency);
        let mut graph = builder
            .build(microbatches, &sub_plan)
            .planning_context("building stage graph for delta replan")?;
        let graph_build_time = build_start.elapsed();

        // Adopt the anchor's memory strategies by repricing in place
        // *before* scheduling, so the delta search sees final timings.
        let memopt_start = Instant::now();
        let memory_plan = anchor.memory_plan.clone();
        graph.reprice(&memory_plan);
        let memopt_time = memopt_start.elapsed();

        let budget: Vec<u64> = self.activation_budget(&graph.static_memory);
        let base_queue = DualQueueConfig {
            memory_limit: Some(budget),
            ..DualQueueConfig::default()
        };

        let search_start = Instant::now();
        let delta_config = OrderingSearchConfig {
            time_budget: self.config.search.delta_budget,
            dual_queue: base_queue.clone(),
            seed_ordering: Some(ordering_from_priorities(&anchor.segment_priorities)),
            ..self.config.search.clone()
        };
        let quota = delta_config.evaluation_quota(graph.len());
        let search = if self.config.enable_search && quota > 0 {
            search_ordering(&graph, num_segments, &delta_config)
        } else {
            // Zero (or sub-evaluation) delta budget: serve the
            // anchor's ordering verbatim.
            OrderingResult::unsearched(&graph, anchor.segment_priorities.clone(), &base_queue)
        };
        let search_time = search_start.elapsed();

        Ok(DipPlan {
            graph,
            orders: search.orders,
            segment_priorities: search.segment_priorities,
            memory_plan,
            sub_microbatches: sub_plan,
            placement: partition.placement,
            modalities,
            topology_fingerprint: fingerprint,
            stats: PlannerStats {
                planning_time: start.elapsed(),
                partition_time,
                graph_build_time,
                search_time,
                search_cpu_time: search.cpu_time,
                memopt_time,
                search_evaluations: search.evaluations,
                search_worker_evaluations: search.worker_evaluations,
                search_pruned_evaluations: search.pruned_evaluations,
                search_memo_hits: search.memo_hits,
                planned_time_s: search.best_time_s,
                cache_hit: false,
                warm_started: true,
                tier: PlanTier::Fuzzy,
            },
        })
    }

    /// Simulates the deployment of a plan (workflow step ④), returning the
    /// iteration's metrics.
    ///
    /// # Errors
    ///
    /// Returns [`DipError::Pipeline`] if the plan is inconsistent.
    pub fn simulate(&self, plan: &DipPlan) -> Result<ExecutionOutcome, DipError> {
        execute(
            &plan.graph,
            &plan.orders,
            &self.topology,
            &self.timing,
            &ExecutorConfig::new(self.parallel),
        )
        .planning_context("simulating plan deployment")
    }

    /// Convenience: plan and simulate one iteration.
    ///
    /// # Errors
    ///
    /// Returns [`DipError`] from planning or simulation.
    pub fn plan_and_simulate(
        &self,
        microbatches: &[BatchWorkload],
    ) -> Result<(DipPlan, ExecutionOutcome), DipError> {
        let plan = self.plan_iteration(microbatches)?;
        let outcome = self.simulate(&plan)?;
        Ok((plan, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, Modality, ModalityWorkload};
    use dip_pipeline::baselines::{simulate_megatron, BaselineContext};

    fn vlm_batch(images: u64) -> BatchWorkload {
        BatchWorkload::new()
            .with(
                Modality::Text,
                ModalityWorkload::new(8192 - images * 169, 1),
            )
            .with(Modality::Image, ModalityWorkload::new(images * 169, images))
    }

    #[test]
    fn planner_produces_a_valid_plan_and_simulation() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let planner = DipPlanner::new(
            &spec,
            ParallelConfig::new(4, 4, 1),
            &cluster,
            PlannerConfig::fast(),
        );
        let batches: Vec<BatchWorkload> =
            [10u64, 40, 2, 30].iter().map(|&i| vlm_batch(i)).collect();
        let (plan, outcome) = planner.plan_and_simulate(&batches).unwrap();
        assert!(outcome.metrics.iteration_time_s > 0.0);
        assert!(outcome.metrics.mfu > 0.0);
        assert!(plan.stats.planning_time > Duration::ZERO);
        assert_eq!(plan.orders.num_stages(), plan.graph.len());
        assert!(plan.stats.graph_build_time > Duration::ZERO);
        assert!(planner.partition_output().is_some());
    }

    #[test]
    fn num_threads_knob_reaches_search_and_worker_stats() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let config = PlannerConfig::fast().with_num_threads(2);
        assert_eq!(config.num_threads, 2);
        assert_eq!(config.search.workers, 2);
        let planner = DipPlanner::new(&spec, ParallelConfig::new(4, 4, 1), &cluster, config);
        let batches: Vec<BatchWorkload> = [10u64, 40].iter().map(|&i| vlm_batch(i)).collect();
        let plan = planner.plan_iteration(&batches).unwrap();
        assert_eq!(plan.stats.search_worker_evaluations.len(), 2);
        // The total includes the incumbent evaluations on top of the
        // per-worker counts.
        assert!(plan.stats.search_evaluations > plan.stats.search_worker_evaluations.iter().sum());
    }

    #[test]
    fn dip_outperforms_megatron_on_dynamic_vlm_workloads() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let parallel = ParallelConfig::new(4, 4, 1);
        let counts = [2u64, 40, 10, 30, 0, 44, 16, 24, 4, 36, 20, 12];
        let batches: Vec<BatchWorkload> = counts.iter().map(|&i| vlm_batch(i)).collect();

        let planner = DipPlanner::new(&spec, parallel, &cluster, PlannerConfig::fast());
        let (_, dip) = planner.plan_and_simulate(&batches).unwrap();

        let ctx = BaselineContext::new(&spec, parallel, &cluster);
        let megatron = simulate_megatron(&ctx, &batches, 1).unwrap();

        assert!(
            dip.metrics.iteration_time_s < megatron.metrics.iteration_time_s,
            "DIP {} vs Megatron {}",
            dip.metrics.iteration_time_s,
            megatron.metrics.iteration_time_s
        );
    }

    #[test]
    fn full_dip_is_at_least_as_fast_as_no_opt() {
        let spec = zoo::vlm_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let parallel = ParallelConfig::new(4, 4, 1);
        let batches: Vec<BatchWorkload> =
            [24u64, 8, 40, 16].iter().map(|&i| vlm_batch(i)).collect();

        let full = DipPlanner::new(&spec, parallel, &cluster, PlannerConfig::fast());
        let (_, full_outcome) = full.plan_and_simulate(&batches).unwrap();
        let no_opt = DipPlanner::new(&spec, parallel, &cluster, PlannerConfig::no_opt());
        let (_, no_opt_outcome) = no_opt.plan_and_simulate(&batches).unwrap();

        assert!(
            full_outcome.metrics.iteration_time_s <= no_opt_outcome.metrics.iteration_time_s * 1.05,
            "full {} vs no-opt {}",
            full_outcome.metrics.iteration_time_s,
            no_opt_outcome.metrics.iteration_time_s
        );
    }

    #[test]
    fn planner_works_for_t2v_models() {
        let spec = zoo::t2v_s();
        let cluster = ClusterSpec::h800_cluster(2);
        let planner = DipPlanner::new(
            &spec,
            ParallelConfig::new(4, 4, 1),
            &cluster,
            PlannerConfig::fast(),
        );
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(900, 6))
            .with(Modality::Video, ModalityWorkload::new(16 * 1560, 4));
        let (_, outcome) = planner.plan_and_simulate(&vec![batch; 4]).unwrap();
        assert!(outcome.metrics.iteration_time_s > 0.0);
    }

    #[test]
    fn peak_memory_stays_within_gpu_capacity() {
        let spec = zoo::vlm_m();
        let cluster = ClusterSpec::h800_cluster(4);
        let planner = DipPlanner::new(
            &spec,
            ParallelConfig::new(8, 4, 1),
            &cluster,
            PlannerConfig::fast(),
        );
        let batches: Vec<BatchWorkload> = [30u64, 45, 20, 40, 10, 48]
            .iter()
            .map(|&i| vlm_batch(i))
            .collect();
        let (_, outcome) = planner.plan_and_simulate(&batches).unwrap();
        assert!(
            outcome.metrics.peak_memory_bytes <= cluster.gpu.mem_capacity as i64,
            "peak {} exceeds capacity {}",
            outcome.metrics.peak_memory_bytes,
            cluster.gpu.mem_capacity
        );
    }
}
