//! The monolithic-ILP scheduling baseline (§5.4, Fig. 12).
//!
//! Instead of DIP's decomposed three-phase search, the baseline formulates
//! the whole problem jointly: it enumerates segment orderings exhaustively
//! and, for each ordering, solves one *global* exact ILP that picks a memory
//! strategy for every stage pair of every pipeline rank simultaneously
//! (`p·n·S` variables, `p·n` constraints), with no optimality gap. The paper
//! solves this formulation with Gurobi/Z3; this reproduction uses the same
//! in-repo branch-and-bound engine, which exhibits the same exponential
//! growth in solve time as the number of microbatches increases.

use dip_pipeline::{dual_queue, Direction, DualQueueConfig, MemoryStrategy, StageGraph};
use dip_sim::StageTiming;
use dip_solver::{Candidate, GroupChoiceProblem, SolveOptions, SolveStatus};
use std::time::{Duration, Instant};

/// The result of a monolithic-ILP search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonolithicResult {
    /// Best simulated iteration time found (seconds); infinite if nothing
    /// completed before the time limit.
    pub best_time_s: f64,
    /// Wall-clock time spent searching.
    pub search_time: Duration,
    /// Whether the time limit was hit before the search space was exhausted.
    pub timed_out: bool,
    /// Number of (ordering, ILP) subproblems solved to completion.
    pub subproblems_solved: u64,
    /// Branch-and-bound nodes explored across all ILP solves.
    pub ilp_nodes: u64,
}

/// Runs the monolithic baseline over a stage graph with `num_segments`
/// placement segments and per-rank activation budgets `capacity_per_rank`.
///
/// `candidates_per_pair` is the size of the memory-strategy ladder (the
/// paper's `S`); `time_limit` bounds the whole search.
pub fn monolithic_ilp_search(
    graph: &StageGraph,
    num_segments: usize,
    capacity_per_rank: &[u64],
    candidates_per_pair: usize,
    time_limit: Duration,
) -> MonolithicResult {
    let start = Instant::now();
    let ladder = MemoryStrategy::ladder(candidates_per_pair);
    let mut best_time = f64::INFINITY;
    let mut timed_out = false;
    let mut subproblems = 0u64;
    let mut ilp_nodes = 0u64;

    let mut orderings = Permutations::new(num_segments.max(1));
    while let Some(ordering) = orderings.next_permutation() {
        if start.elapsed() >= time_limit {
            timed_out = true;
            break;
        }
        // Fix the interleaving implied by this ordering.
        let n = ordering.len();
        let mut priorities = vec![0i64; n];
        for (pos, &seg) in ordering.iter().enumerate() {
            priorities[seg] = (n - pos) as i64;
        }
        let queue = DualQueueConfig {
            segment_priorities: priorities,
            memory_limit: Some(capacity_per_rank.to_vec()),
            ..DualQueueConfig::default()
        };
        let (orders, makespan) = dual_queue::schedule(graph, &queue);

        // Global exact ILP over every rank's stage pairs at once.
        let mut problem = GroupChoiceProblem::new(Vec::new());
        let mut constraint_count = 0usize;
        // Constraints: for every rank, one per stage pair anchored at its
        // forward position.
        let mut pair_intervals: Vec<(usize, usize, usize, StageTiming)> = Vec::new(); // (rank, fwd_pos, bwd_pos, base)
        for (rank, order) in orders.orders.iter().enumerate() {
            let mut fwd_pos = std::collections::BTreeMap::new();
            let mut bases: std::collections::BTreeMap<usize, StageTiming> =
                std::collections::BTreeMap::new();
            for (pos, id) in order.iter().enumerate() {
                let item = graph.item(*id);
                let base = bases.entry(item.stage_pair).or_default();
                match item.direction {
                    Direction::Forward => {
                        fwd_pos.insert(item.stage_pair, pos);
                        base.fwd_s = item.duration;
                        base.activation_bytes = item.activation_bytes;
                    }
                    Direction::Backward => {
                        base.bwd_s = item.duration;
                        if let Some(&f) = fwd_pos.get(&item.stage_pair) {
                            pair_intervals.push((rank, f, pos, bases[&item.stage_pair]));
                            constraint_count += 1;
                        }
                    }
                }
            }
        }
        let mut capacities = vec![0.0f64; constraint_count];
        for (k, (rank, ..)) in pair_intervals.iter().enumerate() {
            capacities[k] = capacity_per_rank.get(*rank).copied().unwrap_or(u64::MAX) as f64;
        }
        problem.capacities = capacities;
        for (rank, fwd, bwd, base) in &pair_intervals {
            let candidates: Vec<Candidate> = ladder
                .iter()
                .map(|s| {
                    let t = s.apply(base);
                    let weights: Vec<f64> = pair_intervals
                        .iter()
                        .map(|(r2, f2, _, _)| {
                            if r2 == rank && fwd <= f2 && f2 <= bwd {
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

        let remaining = time_limit.saturating_sub(start.elapsed());
        let solution = dip_solver::ilp::solve(
            &problem,
            &SolveOptions {
                time_limit: remaining,
                // The monolithic baseline is deliberately wall-clock
                // bounded: demonstrating its blow-up against the clock is
                // the point of Fig. 12, so it gets no deterministic budget.
                node_limit: None,
                optimality_gap: 0.0,
                warm_start: false,
            },
        );
        ilp_nodes += solution.nodes_explored;
        if solution.status == SolveStatus::TimeLimit {
            timed_out = true;
        }
        if solution.is_feasible() {
            subproblems += 1;
            // Estimate the resulting iteration time: the interleaving's
            // makespan plus the extra recomputation latency the ILP accepted.
            let baseline_latency: f64 = pair_intervals
                .iter()
                .map(|(_, _, _, b)| b.fwd_s + b.bwd_s)
                .sum();
            let extra = (solution.objective - baseline_latency).max(0.0);
            best_time = best_time.min(makespan + extra / graph.num_ranks.max(1) as f64);
        }
        if timed_out {
            break;
        }
    }

    MonolithicResult {
        best_time_s: best_time,
        search_time: start.elapsed(),
        timed_out,
        subproblems_solved: subproblems,
        ilp_nodes,
    }
}

/// Plain lexicographic permutation generator (avoids allocating all `n!`
/// permutations up front).
struct Permutations {
    current: Vec<usize>,
    first: bool,
    done: bool,
}

impl Permutations {
    fn new(n: usize) -> Self {
        Self {
            current: (0..n).collect(),
            first: true,
            done: false,
        }
    }

    fn next_permutation(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        if self.first {
            self.first = false;
            return Some(self.current.clone());
        }
        // Standard next-permutation algorithm.
        let v = &mut self.current;
        let n = v.len();
        if n < 2 {
            self.done = true;
            return None;
        }
        let mut i = n - 1;
        while i > 0 && v[i - 1] >= v[i] {
            i -= 1;
        }
        if i == 0 {
            self.done = true;
            return None;
        }
        let mut j = n - 1;
        while v[j] <= v[i - 1] {
            j -= 1;
        }
        v.swap(i - 1, j);
        v[i..].reverse();
        Some(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};
    use dip_pipeline::{separated_placement, ParallelConfig, StageGraphBuilder, SubMicrobatchPlan};
    use dip_sim::ClusterSpec;
    use std::collections::BTreeMap;

    fn graph(num_microbatches: usize) -> (StageGraph, usize) {
        let spec = zoo::vlm_s();
        let parallel = ParallelConfig::new(4, 4, 1);
        let placement = separated_placement(&spec, parallel, &BTreeMap::new());
        let cluster = ClusterSpec::h800_cluster(2);
        let builder = StageGraphBuilder::new(&spec, &placement, &cluster);
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6502, 1))
            .with(Modality::Image, ModalityWorkload::new(1690, 10));
        let plan = SubMicrobatchPlan::uniform(placement.segments.len(), num_microbatches);
        let g = builder
            .build(&vec![batch; num_microbatches], &plan)
            .unwrap();
        let n = placement.segments.len();
        (g, n)
    }

    #[test]
    fn permutation_generator_enumerates_all_orderings() {
        let mut p = Permutations::new(3);
        let mut count = 0;
        while p.next_permutation().is_some() {
            count += 1;
        }
        assert_eq!(count, 6);
        let mut single = Permutations::new(1);
        assert_eq!(single.next_permutation(), Some(vec![0]));
        assert_eq!(single.next_permutation(), None);
    }

    #[test]
    fn monolithic_search_finds_a_schedule_on_tiny_instances() {
        let (g, n) = graph(2);
        let result = monolithic_ilp_search(
            &g,
            n,
            &vec![u64::MAX / 4; g.num_ranks],
            4,
            Duration::from_secs(5),
        );
        assert!(result.best_time_s.is_finite());
        assert!(result.subproblems_solved >= 1);
    }

    #[test]
    fn monolithic_search_times_out_gracefully() {
        let (g, n) = graph(6);
        let result = monolithic_ilp_search(
            &g,
            n,
            &vec![u64::MAX / 4; g.num_ranks],
            6,
            Duration::from_millis(20),
        );
        assert!(result.timed_out || result.search_time <= Duration::from_millis(200));
    }

    #[test]
    fn search_time_grows_with_microbatch_count() {
        let budget = Duration::from_secs(3);
        let (small, n) = graph(2);
        let (large, _) = graph(6);
        let t_small =
            monolithic_ilp_search(&small, n, &vec![u64::MAX / 4; small.num_ranks], 4, budget)
                .search_time;
        let t_large =
            monolithic_ilp_search(&large, n, &vec![u64::MAX / 4; large.num_ranks], 4, budget)
                .search_time;
        assert!(t_large >= t_small);
    }
}
