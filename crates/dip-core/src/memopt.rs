//! Per-layer memory optimisation (§5.3).
//!
//! With the stage interleaving fixed by the dual-queue scheduler, each
//! pipeline rank is optimised independently: for every (forward, backward)
//! stage pair a memory-saving strategy is chosen from a candidate ladder so
//! that total latency is minimised while the activation memory alive at any
//! point of the rank's schedule stays within budget. The per-rank problem is
//! a group-choice ILP solved with a greedy warm start and a 5% optimality
//! gap, exactly as the paper describes.
//!
//! # Deterministic solves
//!
//! [`optimize_memory`] solves the per-rank subproblems one after another in
//! rank order. Each solve is bounded by a deterministic branch-and-bound
//! *node* budget derived from the configured (virtual) time limit via the
//! calibrated per-node cost model — never by a wall clock — so the chosen
//! plan is the same on any machine.

use crate::error::DipError;
use dip_pipeline::{Direction, MemoryPlan, MemoryStrategy, RankOrders, StageGraph};
use dip_sim::{CostModel, StageTiming};
use dip_solver::{Candidate, GroupChoiceProblem, SolveOptions};
use std::collections::BTreeMap;
use std::time::Duration;

/// Configuration of the memory optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryOptConfig {
    /// Number of candidate strategies per stage pair (the paper's `S`, e.g. 10).
    pub candidates_per_pair: usize,
    /// Relative optimality gap allowed for early termination.
    pub optimality_gap: f64,
    /// **Virtual-time** limit per pipeline rank: converted into a
    /// deterministic branch-and-bound node budget via [`Self::node_cost`],
    /// so the per-rank solve returns the same selection on any machine
    /// (a wall clock never stops it).
    pub time_limit: Duration,
    /// Calibrated cost model of one branch-and-bound node, per constraint
    /// group — the virtual clock rate that converts [`Self::time_limit`]
    /// into a node budget.
    pub node_cost: CostModel,
}

impl Default for MemoryOptConfig {
    fn default() -> Self {
        Self {
            candidates_per_pair: 10,
            optimality_gap: 0.05,
            time_limit: Duration::from_millis(100),
            node_cost: CostModel::REFERENCE_ILP_NODE,
        }
    }
}

impl MemoryOptConfig {
    /// The deterministic branch-and-bound node budget for one rank's ILP
    /// with `groups` stage pairs: the virtual time limit divided by the
    /// calibrated per-node cost.
    pub fn node_budget(&self, groups: usize) -> u64 {
        self.node_cost.quota(self.time_limit, groups as u64)
    }
}

/// The outcome of [`optimize_memory_detailed`], kept only for `perfbench/`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryOptOutcome {
    /// The chosen per-stage-pair strategies.
    pub plan: MemoryPlan,
}

/// Runs per-rank memory optimisation over a stage graph and a fixed
/// interleaving, returning the chosen [`MemoryPlan`]. The per-rank ILPs
/// are solved in rank order.
///
/// `capacity_per_rank` is the activation-memory budget of each rank (GPU
/// memory minus the static parameter/optimizer footprint). Ranks whose
/// budget cannot be met even by the most aggressive strategy fall back to
/// applying that strategy uniformly.
///
/// # Errors
///
/// Returns [`DipError::Solver`] when the configuration admits no candidate
/// strategies (`candidates_per_pair == 0`), leaving the group-choice ILP
/// without a feasible selection.
pub fn optimize_memory(
    graph: &StageGraph,
    orders: &RankOrders,
    capacity_per_rank: &[u64],
    config: &MemoryOptConfig,
) -> Result<MemoryPlan, DipError> {
    if config.candidates_per_pair == 0 {
        return Err(DipError::solver(
            "memory optimisation",
            "candidates_per_pair is 0: the group-choice ILP has no candidates to select from",
        ));
    }
    let ladder = MemoryStrategy::ladder(config.candidates_per_pair);
    let mut plan = MemoryPlan::new();
    for (rank, order) in orders.orders.iter().enumerate() {
        let selections = solve_rank(graph, order, capacity_per_rank, rank, config, &ladder);
        for (stage_pair, strategy) in selections {
            plan.set(stage_pair, strategy);
        }
    }
    Ok(plan)
}

/// Has no effect beyond [`optimize_memory`]: `_threads` is ignored and the
/// plan is wrapped into a [`MemoryOptOutcome`]. Kept only because
/// `perfbench/` calls it.
///
/// # Errors
///
/// Same as [`optimize_memory`].
pub fn optimize_memory_detailed(
    graph: &StageGraph,
    orders: &RankOrders,
    capacity_per_rank: &[u64],
    config: &MemoryOptConfig,
    _threads: usize,
) -> Result<MemoryOptOutcome, DipError> {
    optimize_memory(graph, orders, capacity_per_rank, config).map(|plan| MemoryOptOutcome { plan })
}

/// Solves one rank's group-choice ILP, returning the chosen strategy per
/// stage pair hosted on the rank (empty when the rank hosts no complete
/// pair). Pure function of its inputs: no clock is consulted.
fn solve_rank(
    graph: &StageGraph,
    order: &[dip_pipeline::StageId],
    capacity_per_rank: &[u64],
    rank: usize,
    config: &MemoryOptConfig,
    ladder: &[MemoryStrategy],
) -> Vec<(usize, MemoryStrategy)> {
    let capacity = capacity_per_rank.get(rank).copied().unwrap_or(u64::MAX);

    // Collect the stage pairs on this rank with their alive intervals
    // (positions of the forward and backward stage in the rank's order).
    #[derive(Debug)]
    struct PairInfo {
        stage_pair: usize,
        base: StageTiming,
        fwd_pos: usize,
        bwd_pos: usize,
    }
    // (forward position, backward position, accumulated base timing).
    type PendingPair = (Option<usize>, Option<usize>, Option<StageTiming>);
    let mut pairs: BTreeMap<usize, PendingPair> = BTreeMap::new();
    for (pos, id) in order.iter().enumerate() {
        let item = graph.item(*id);
        let entry = pairs.entry(item.stage_pair).or_insert((None, None, None));
        match item.direction {
            Direction::Forward => {
                entry.0 = Some(pos);
                let timing = entry.2.get_or_insert(StageTiming::default());
                timing.fwd_s = item.duration;
                timing.activation_bytes = item.activation_bytes;
                timing.p2p_bytes = item.p2p_bytes;
            }
            Direction::Backward => {
                entry.1 = Some(pos);
                let timing = entry.2.get_or_insert(StageTiming::default());
                timing.bwd_s = item.duration;
                timing.activation_bytes = item.activation_bytes;
            }
        }
    }
    let infos: Vec<PairInfo> = pairs
        .into_iter()
        .filter_map(|(stage_pair, (f, b, t))| {
            Some(PairInfo {
                stage_pair,
                base: t?,
                fwd_pos: f?,
                bwd_pos: b?,
            })
        })
        .collect();
    if infos.is_empty() {
        return Vec::new();
    }

    // Candidate timings per pair.
    let candidate_timings: Vec<Vec<StageTiming>> = infos
        .iter()
        .map(|info| ladder.iter().map(|s| s.apply(&info.base)).collect())
        .collect();

    // One memory constraint per pair, anchored at its forward position:
    // every pair alive at that position contributes its resident bytes.
    let capacities = vec![capacity as f64; infos.len()];
    let mut problem = GroupChoiceProblem::new(capacities);
    for (i, info) in infos.iter().enumerate() {
        let candidates: Vec<Candidate> = candidate_timings[i]
            .iter()
            .map(|t| {
                let weights: Vec<f64> = infos
                    .iter()
                    .map(|anchor| {
                        let k = anchor.fwd_pos;
                        if info.fwd_pos <= k && k <= info.bwd_pos {
                            t.activation_bytes as f64
                        } else {
                            0.0
                        }
                    })
                    .collect();
                Candidate::new(t.fwd_s + t.bwd_s, weights)
            })
            .collect();
        problem.add_group(candidates);
    }

    let solution = dip_solver::ilp::solve(
        &problem,
        &SolveOptions {
            // The node budget — not a clock — bounds the solve, keeping it
            // deterministic on any machine; the wall-clock limit is set
            // far beyond any realistic node budget as a pure backstop.
            time_limit: Duration::from_secs(3600),
            node_limit: Some(config.node_budget(infos.len())),
            optimality_gap: config.optimality_gap,
            warm_start: true,
        },
    );

    if solution.is_feasible() {
        infos
            .iter()
            .enumerate()
            .map(|(i, info)| (info.stage_pair, ladder[solution.selection[i]]))
            .collect()
    } else {
        // Budget unattainable: fall back to the most aggressive strategy.
        let most_aggressive = *ladder.last().expect("ladder is non-empty");
        infos
            .iter()
            .map(|info| (info.stage_pair, most_aggressive))
            .collect()
    }
}

/// Estimated activation peak of one rank's order under a memory plan, using
/// the same anchored-interval approximation the optimiser itself uses.
pub fn estimated_peak_activation(
    graph: &StageGraph,
    order: &[dip_pipeline::StageId],
    plan: &MemoryPlan,
) -> u64 {
    let mut live: BTreeMap<usize, u64> = BTreeMap::new();
    let mut peak = 0u64;
    let mut current = 0u64;
    for id in order {
        let item = graph.item(*id);
        let strategy = plan.get(item.stage_pair);
        let base = StageTiming {
            fwd_s: 0.0,
            bwd_s: 0.0,
            activation_bytes: item.activation_bytes,
            p2p_bytes: item.p2p_bytes,
        };
        let resident = strategy.apply(&base).activation_bytes;
        match item.direction {
            Direction::Forward => {
                live.insert(item.stage_pair, resident);
                current += resident;
                peak = peak.max(current);
            }
            Direction::Backward => {
                if let Some(bytes) = live.remove(&item.stage_pair) {
                    current = current.saturating_sub(bytes);
                }
            }
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    use dip_pipeline::{
        balanced_param_placement, dual_queue, DualQueueConfig, ParallelConfig, StageGraphBuilder,
        SubMicrobatchPlan,
    };
    use dip_sim::ClusterSpec;

    fn graph_and_orders(num_microbatches: usize) -> (StageGraph, RankOrders) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = balanced_param_placement(&spec, parallel, 1);
        let cluster = ClusterSpec::h800_cluster(2);
        let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6502, 1))
            .with(Modality::Image, ModalityWorkload::new(1690, 10));
        let batches = vec![batch; num_microbatches];
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), batches.len());
        let graph = builder.build(&batches, &plan).unwrap();
        let (orders, _) = dual_queue::schedule(&graph, &DualQueueConfig::default());
        (graph, orders)
    }

    #[test]
    fn generous_budget_keeps_everything_resident() {
        let (graph, orders) = graph_and_orders(4);
        let plan = optimize_memory(
            &graph,
            &orders,
            &vec![u64::MAX / 2; graph.num_ranks],
            &MemoryOptConfig::default(),
        )
        .unwrap();
        for rank in 0..graph.num_ranks {
            for id in &orders.orders[rank] {
                let item = graph.item(*id);
                assert_eq!(plan.get(item.stage_pair), MemoryStrategy::NONE);
            }
        }
    }

    #[test]
    fn tight_budget_forces_memory_saving_strategies() {
        let (graph, orders) = graph_and_orders(8);
        // Measure the unconstrained peak, then demand a quarter of it.
        let none_plan = MemoryPlan::new();
        let unconstrained: Vec<u64> = orders
            .orders
            .iter()
            .map(|o| estimated_peak_activation(&graph, o, &none_plan))
            .collect();
        let budget: Vec<u64> = unconstrained.iter().map(|p| p / 4 + 1).collect();
        let plan = optimize_memory(&graph, &orders, &budget, &MemoryOptConfig::default()).unwrap();
        assert!(!plan.is_empty());
        // The optimised plan must respect the budget (by the optimiser's own
        // accounting) on every rank where a feasible choice exists.
        for (rank, order) in orders.orders.iter().enumerate() {
            let peak = estimated_peak_activation(&graph, order, &plan);
            let most_aggressive_plan = MemoryPlan::uniform(
                graph.num_stage_pairs,
                *MemoryStrategy::ladder(10).last().unwrap(),
            );
            let floor = estimated_peak_activation(&graph, order, &most_aggressive_plan);
            assert!(
                peak <= budget[rank].max(floor),
                "rank {rank}: peak {peak} > budget {}",
                budget[rank]
            );
        }
    }

    #[test]
    fn tighter_budgets_never_reduce_total_latency() {
        let (graph, orders) = graph_and_orders(6);
        let none_plan = MemoryPlan::new();
        let unconstrained: Vec<u64> = orders
            .orders
            .iter()
            .map(|o| estimated_peak_activation(&graph, o, &none_plan))
            .collect();
        let total_latency = |plan: &MemoryPlan| -> f64 {
            let ladder_base: f64 = graph
                .items()
                .iter()
                .map(|item| {
                    let strategy = plan.get(item.stage_pair);
                    let base = StageTiming {
                        fwd_s: if item.direction == Direction::Forward {
                            item.duration
                        } else {
                            0.0
                        },
                        bwd_s: if item.direction == Direction::Backward {
                            item.duration
                        } else {
                            0.0
                        },
                        activation_bytes: item.activation_bytes,
                        p2p_bytes: item.p2p_bytes,
                    };
                    let t = strategy.apply(&base);
                    t.fwd_s + t.bwd_s
                })
                .sum();
            ladder_base
        };
        let loose_budget: Vec<u64> = unconstrained.iter().map(|p| p * 2).collect();
        let tight_budget: Vec<u64> = unconstrained.iter().map(|p| p / 3 + 1).collect();
        let loose =
            optimize_memory(&graph, &orders, &loose_budget, &MemoryOptConfig::default()).unwrap();
        let tight =
            optimize_memory(&graph, &orders, &tight_budget, &MemoryOptConfig::default()).unwrap();
        assert!(total_latency(&tight) >= total_latency(&loose) - 1e-9);
    }

    #[test]
    fn zero_candidates_is_a_solver_error() {
        let (graph, orders) = graph_and_orders(2);
        let config = MemoryOptConfig {
            candidates_per_pair: 0,
            ..MemoryOptConfig::default()
        };
        let err = optimize_memory(
            &graph,
            &orders,
            &vec![u64::MAX / 2; graph.num_ranks],
            &config,
        )
        .unwrap_err();
        assert!(matches!(err, crate::DipError::Solver { .. }));
        assert!(err.to_string().contains("candidates_per_pair"));
    }

    #[test]
    fn impossible_budget_falls_back_to_most_aggressive_strategy() {
        let (graph, orders) = graph_and_orders(4);
        let plan = optimize_memory(
            &graph,
            &orders,
            &vec![1; graph.num_ranks],
            &MemoryOptConfig::default(),
        )
        .unwrap();
        let most_aggressive = *MemoryStrategy::ladder(10).last().unwrap();
        let item = graph.item(orders.orders[0][0]);
        assert_eq!(plan.get(item.stage_pair), most_aggressive);
    }
}
