//! A branch-and-bound solver for *group-choice* integer programs:
//!
//! * variables are grouped; exactly one candidate must be chosen per group
//!   (the `Σ_j o_{i,j} = 1` selection constraints of §5.3);
//! * every linear constraint has non-negative coefficients and an upper
//!   bound (the peak-memory constraints of §5.3);
//! * the objective is the sum of the chosen candidates' costs, minimised.
//!
//! The solver supports a greedy warm start, an optimality-gap early exit and
//! a wall-clock time limit — the three ingredients the paper credits for
//! bringing per-instance solve time under 10 ms (§5.3 "Optimizations").

use std::time::{Duration, Instant};

/// One selectable candidate within a group.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Contribution to the objective (e.g. latency).
    pub cost: f64,
    /// Contribution to each constraint's left-hand side (e.g. bytes of
    /// memory occupied while the constraint's time window is active).
    /// Must be the same length as [`GroupChoiceProblem::capacities`]; missing
    /// trailing entries are treated as zero.
    pub weights: Vec<f64>,
}

impl Candidate {
    /// A candidate with the given cost and constraint weights.
    pub fn new(cost: f64, weights: Vec<f64>) -> Self {
        Self { cost, weights }
    }

    fn weight(&self, constraint: usize) -> f64 {
        self.weights.get(constraint).copied().unwrap_or(0.0)
    }
}

/// A group-choice ILP instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupChoiceProblem {
    /// Candidate lists, one per group; exactly one candidate is chosen per group.
    pub groups: Vec<Vec<Candidate>>,
    /// Right-hand sides of the `≤` constraints.
    pub capacities: Vec<f64>,
}

impl GroupChoiceProblem {
    /// Creates an empty problem with the given constraint capacities.
    pub fn new(capacities: Vec<f64>) -> Self {
        Self {
            groups: Vec::new(),
            capacities,
        }
    }

    /// Appends a group of candidates, returning its index.
    pub fn add_group(&mut self, candidates: Vec<Candidate>) -> usize {
        self.groups.push(candidates);
        self.groups.len() - 1
    }

    /// Number of groups (decision positions).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of binary variables in the flattened formulation.
    pub fn num_variables(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Evaluates the objective of a selection (one index per group).
    ///
    /// # Panics
    ///
    /// Panics if `selection` has the wrong length or an index is out of range.
    pub fn objective(&self, selection: &[usize]) -> f64 {
        assert_eq!(selection.len(), self.groups.len());
        selection
            .iter()
            .zip(&self.groups)
            .map(|(&i, g)| g[i].cost)
            .sum()
    }

    /// Checks whether a selection satisfies every constraint.
    pub fn is_feasible(&self, selection: &[usize]) -> bool {
        if selection.len() != self.groups.len() {
            return false;
        }
        for (k, &cap) in self.capacities.iter().enumerate() {
            let lhs: f64 = selection
                .iter()
                .zip(&self.groups)
                .map(|(&i, g)| g[i].weight(k))
                .sum();
            if lhs > cap + 1e-9 {
                return false;
            }
        }
        true
    }

    /// A greedy warm start: for each group pick the cheapest candidate that
    /// keeps all constraints satisfiable; if none does, pick the candidate
    /// with the smallest maximum constraint utilisation. Returns `None` if
    /// the result is infeasible.
    pub fn greedy_solution(&self) -> Option<Vec<usize>> {
        let mut remaining = self.capacities.clone();
        let mut selection = Vec::with_capacity(self.groups.len());
        for group in &self.groups {
            let mut best: Option<usize> = None;
            for (idx, cand) in group.iter().enumerate() {
                let fits =
                    (0..self.capacities.len()).all(|k| cand.weight(k) <= remaining[k] + 1e-9);
                if fits && best.is_none_or(|b| cand.cost < group[b].cost) {
                    best = Some(idx);
                }
            }
            let pick = best.or_else(|| {
                // Nothing fits: take the least-overflowing candidate and hope
                // later groups leave slack (they will not; the caller detects
                // infeasibility at the end).
                group
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let ua: f64 = a.weights.iter().sum();
                        let ub: f64 = b.weights.iter().sum();
                        ua.partial_cmp(&ub).unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|(i, _)| i)
            })?;
            for (k, r) in remaining.iter_mut().enumerate() {
                *r -= group[pick].weight(k);
            }
            selection.push(pick);
        }
        if self.is_feasible(&selection) {
            Some(selection)
        } else {
            None
        }
    }
}

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Wall-clock limit; the best incumbent found so far is returned when hit.
    pub time_limit: Duration,
    /// Deterministic budget on explored branch-and-bound nodes; the best
    /// incumbent found so far is returned when hit. Unlike `time_limit`,
    /// a node budget yields the same solution on any machine — the memory
    /// optimiser derives it from its (virtual) time limit via a calibrated
    /// per-node cost model so its plans are reproducible.
    pub node_limit: Option<u64>,
    /// Relative optimality gap that permits early termination (e.g. `0.05`).
    pub optimality_gap: f64,
    /// Whether to seed the search with [`GroupChoiceProblem::greedy_solution`].
    pub warm_start: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            time_limit: Duration::from_secs(10),
            node_limit: None,
            optimality_gap: 0.0,
            warm_start: true,
        }
    }
}

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal (within floating-point tolerance).
    Optimal,
    /// Stopped early because the incumbent is within the requested gap.
    WithinGap,
    /// Stopped at the time limit with a feasible incumbent.
    TimeLimit,
    /// Stopped at the deterministic node budget with a feasible incumbent.
    NodeLimit,
    /// No feasible selection exists (or none was found before the time limit).
    Infeasible,
}

/// A solver result.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Chosen candidate index per group (empty when infeasible).
    pub selection: Vec<usize>,
    /// Objective value of the selection (`f64::INFINITY` when infeasible).
    pub objective: f64,
    /// Termination reason.
    pub status: SolveStatus,
    /// Number of branch-and-bound nodes explored.
    pub nodes_explored: u64,
    /// Wall-clock time spent solving.
    pub elapsed: Duration,
}

impl Solution {
    /// True if a feasible selection was produced.
    pub fn is_feasible(&self) -> bool {
        !matches!(self.status, SolveStatus::Infeasible)
    }
}

/// Solves a [`GroupChoiceProblem`] by depth-first branch and bound.
///
/// Groups are branched in order of decreasing cost spread (most impactful
/// first); within a group, candidates are tried cheapest-first. The lower
/// bound of a partial assignment is its cost plus the sum of each remaining
/// group's cheapest candidate — admissible because all costs are
/// non-negative contributions.
pub fn solve(problem: &GroupChoiceProblem, options: &SolveOptions) -> Solution {
    let start = Instant::now();
    if problem.groups.is_empty() {
        return Solution {
            selection: Vec::new(),
            objective: 0.0,
            status: SolveStatus::Optimal,
            nodes_explored: 0,
            elapsed: start.elapsed(),
        };
    }
    if problem.groups.iter().any(Vec::is_empty) {
        return infeasible(start, 0);
    }

    // Branch order: groups with the largest cost spread first.
    let mut order: Vec<usize> = (0..problem.groups.len()).collect();
    order.sort_by(|&a, &b| {
        let spread = |g: &Vec<Candidate>| {
            let min = g.iter().map(|c| c.cost).fold(f64::INFINITY, f64::min);
            let max = g.iter().map(|c| c.cost).fold(f64::NEG_INFINITY, f64::max);
            max - min
        };
        spread(&problem.groups[b])
            .partial_cmp(&spread(&problem.groups[a]))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Per-group candidate order: cheapest first.
    let sorted_candidates: Vec<Vec<usize>> = problem
        .groups
        .iter()
        .map(|g| {
            let mut idx: Vec<usize> = (0..g.len()).collect();
            idx.sort_by(|&x, &y| {
                g[x].cost
                    .partial_cmp(&g[y].cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            idx
        })
        .collect();

    // Suffix minimum cost along the branch order (for the lower bound).
    let mut suffix_min = vec![0.0f64; order.len() + 1];
    for d in (0..order.len()).rev() {
        let g = &problem.groups[order[d]];
        let min = g.iter().map(|c| c.cost).fold(f64::INFINITY, f64::min);
        suffix_min[d] = suffix_min[d + 1] + min;
    }

    let mut incumbent: Option<Vec<usize>> = if options.warm_start {
        problem.greedy_solution()
    } else {
        None
    };
    let mut incumbent_cost = incumbent
        .as_ref()
        .map(|s| problem.objective(s))
        .unwrap_or(f64::INFINITY);

    let mut nodes = 0u64;
    let mut selection = vec![usize::MAX; problem.groups.len()];
    let mut usage = vec![0.0f64; problem.capacities.len()];
    let mut timed_out = false;
    let mut node_budget_hit = false;
    let mut gap_exit = false;

    // Iterative DFS with explicit stack of (depth, next candidate position).
    struct Frame {
        depth: usize,
        cand_pos: usize,
    }
    let mut stack = vec![Frame {
        depth: 0,
        cand_pos: 0,
    }];

    'search: while let Some(frame) = stack.last_mut() {
        if nodes.is_multiple_of(1024) && start.elapsed() > options.time_limit {
            timed_out = true;
            break 'search;
        }
        if options.node_limit.is_some_and(|cap| nodes >= cap) {
            node_budget_hit = true;
            break 'search;
        }
        let depth = frame.depth;
        if depth == problem.groups.len() {
            // Complete assignment.
            let cost = problem.objective(&selection);
            if cost < incumbent_cost {
                incumbent_cost = cost;
                incumbent = Some(selection.clone());
            }
            stack.pop();
            if let Some(parent) = stack.last() {
                undo(problem, &order, parent.depth, &mut selection, &mut usage);
            }
            continue;
        }
        let group_idx = order[depth];
        let group = &problem.groups[group_idx];
        let cand_order = &sorted_candidates[group_idx];

        // Find the next candidate to try at this depth.
        let mut advanced = false;
        while frame.cand_pos < cand_order.len() {
            let cand_idx = cand_order[frame.cand_pos];
            frame.cand_pos += 1;
            nodes += 1;
            let cand = &group[cand_idx];

            // Bound: cost so far + this candidate + cheapest completion.
            let cost_so_far: f64 = (0..depth)
                .map(|d| problem.groups[order[d]][selection[order[d]]].cost)
                .sum();
            let bound = cost_so_far + cand.cost + suffix_min[depth + 1];
            let cutoff = incumbent_cost * (1.0 - options.optimality_gap).max(0.0);
            if bound >= cutoff && incumbent_cost.is_finite() {
                continue;
            }
            // Feasibility: constraints are monotone, prune on violation.
            let fits = (0..problem.capacities.len())
                .all(|k| usage[k] + cand.weight(k) <= problem.capacities[k] + 1e-9);
            if !fits {
                continue;
            }
            // Take the candidate.
            selection[group_idx] = cand_idx;
            for (k, u) in usage.iter_mut().enumerate() {
                *u += cand.weight(k);
            }
            stack.push(Frame {
                depth: depth + 1,
                cand_pos: 0,
            });
            advanced = true;
            break;
        }
        if !advanced {
            // Exhausted this group's candidates; backtrack.
            stack.pop();
            if let Some(parent) = stack.last() {
                undo(problem, &order, parent.depth, &mut selection, &mut usage);
            }
        }
        // Gap-based early exit: the global lower bound is the root's suffix
        // minimum; if the incumbent is within the gap of it, stop.
        if incumbent_cost.is_finite()
            && options.optimality_gap > 0.0
            && incumbent_cost <= suffix_min[0] * (1.0 + options.optimality_gap)
        {
            gap_exit = true;
            break 'search;
        }
    }

    match incumbent {
        Some(selection) => {
            let status = if timed_out {
                SolveStatus::TimeLimit
            } else if node_budget_hit {
                SolveStatus::NodeLimit
            } else if gap_exit {
                SolveStatus::WithinGap
            } else {
                SolveStatus::Optimal
            };
            Solution {
                objective: incumbent_cost,
                selection,
                status,
                nodes_explored: nodes,
                elapsed: start.elapsed(),
            }
        }
        None => infeasible(start, nodes),
    }
}

/// Removes the contribution of the candidate previously chosen at `depth`.
fn undo(
    problem: &GroupChoiceProblem,
    order: &[usize],
    depth: usize,
    selection: &mut [usize],
    usage: &mut [f64],
) {
    let group_idx = order[depth];
    let cand_idx = selection[group_idx];
    if cand_idx == usize::MAX {
        return;
    }
    let cand = &problem.groups[group_idx][cand_idx];
    for (k, u) in usage.iter_mut().enumerate() {
        *u -= cand.weight(k);
    }
    selection[group_idx] = usize::MAX;
}

fn infeasible(start: Instant, nodes: u64) -> Solution {
    Solution {
        selection: Vec::new(),
        objective: f64::INFINITY,
        status: SolveStatus::Infeasible,
        nodes_explored: nodes,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cand(cost: f64, weights: &[f64]) -> Candidate {
        Candidate::new(cost, weights.to_vec())
    }

    fn brute_force(problem: &GroupChoiceProblem) -> Option<f64> {
        let mut best: Option<f64> = None;
        let mut indices = vec![0usize; problem.groups.len()];
        if problem.groups.iter().any(Vec::is_empty) {
            return None;
        }
        loop {
            if problem.is_feasible(&indices) {
                let cost = problem.objective(&indices);
                if best.is_none_or(|b| cost < b) {
                    best = Some(cost);
                }
            }
            let mut k = problem.groups.len();
            loop {
                if k == 0 {
                    return best;
                }
                k -= 1;
                indices[k] += 1;
                if indices[k] < problem.groups[k].len() {
                    break;
                }
                indices[k] = 0;
            }
        }
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let sol = solve(&GroupChoiceProblem::default(), &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn unconstrained_problem_picks_cheapest_per_group() {
        let mut p = GroupChoiceProblem::new(vec![]);
        p.add_group(vec![cand(5.0, &[]), cand(2.0, &[]), cand(9.0, &[])]);
        p.add_group(vec![cand(1.0, &[]), cand(4.0, &[])]);
        let sol = solve(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 3.0).abs() < 1e-9);
        assert_eq!(sol.selection, vec![1, 0]);
    }

    #[test]
    fn memory_constraint_forces_a_tradeoff() {
        // Cheapest picks use 10 + 10 = 20 > 15, so one group must switch to a
        // slower but lighter candidate.
        let mut p = GroupChoiceProblem::new(vec![15.0]);
        p.add_group(vec![cand(1.0, &[10.0]), cand(3.0, &[4.0])]);
        p.add_group(vec![cand(1.0, &[10.0]), cand(5.0, &[4.0])]);
        let sol = solve(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(
            (sol.objective - 4.0).abs() < 1e-9,
            "objective {}",
            sol.objective
        );
        assert!(p.is_feasible(&sol.selection));
    }

    #[test]
    fn detects_infeasibility() {
        let mut p = GroupChoiceProblem::new(vec![5.0]);
        p.add_group(vec![cand(1.0, &[10.0])]);
        let sol = solve(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Infeasible);
        assert!(!sol.is_feasible());
        assert!(sol.objective.is_infinite());
    }

    #[test]
    fn empty_group_is_infeasible() {
        let mut p = GroupChoiceProblem::new(vec![]);
        p.add_group(vec![]);
        let sol = solve(&p, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn warm_start_matches_cold_start_objective() {
        let mut p = GroupChoiceProblem::new(vec![30.0, 25.0]);
        for i in 0..6 {
            p.add_group(vec![
                cand(1.0 + i as f64, &[8.0, 2.0]),
                cand(4.0 + i as f64, &[3.0, 6.0]),
                cand(9.0, &[1.0, 1.0]),
            ]);
        }
        let warm = solve(&p, &SolveOptions::default());
        let cold = solve(
            &p,
            &SolveOptions {
                warm_start: false,
                ..SolveOptions::default()
            },
        );
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn optimality_gap_allows_early_exit_with_bounded_regret() {
        let mut p = GroupChoiceProblem::new(vec![100.0]);
        for i in 0..8 {
            p.add_group(vec![
                cand(10.0, &[6.0 + (i % 3) as f64]),
                cand(10.4, &[2.0]),
            ]);
        }
        let exact = solve(&p, &SolveOptions::default());
        let approx = solve(
            &p,
            &SolveOptions {
                optimality_gap: 0.05,
                ..SolveOptions::default()
            },
        );
        assert!(approx.is_feasible());
        assert!(approx.objective <= exact.objective * 1.05 + 1e-9);
    }

    #[test]
    fn greedy_solution_is_feasible_when_returned() {
        // Loose capacity: greedy succeeds and is feasible.
        let mut p = GroupChoiceProblem::new(vec![20.0]);
        p.add_group(vec![cand(1.0, &[10.0]), cand(2.0, &[5.0])]);
        p.add_group(vec![cand(1.0, &[10.0]), cand(2.0, &[5.0])]);
        let greedy = p.greedy_solution().unwrap();
        assert!(p.is_feasible(&greedy));

        // Tight capacity: the myopic greedy may fail even though a feasible
        // selection exists; the exact solver must still find it.
        let mut tight = GroupChoiceProblem::new(vec![12.0]);
        tight.add_group(vec![cand(1.0, &[10.0]), cand(2.0, &[5.0])]);
        tight.add_group(vec![cand(1.0, &[10.0]), cand(2.0, &[5.0])]);
        if let Some(sel) = tight.greedy_solution() {
            assert!(tight.is_feasible(&sel));
        }
        let sol = solve(&tight, &SolveOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn time_limit_returns_incumbent() {
        // A large, loose problem; with a zero time budget the solver should
        // still return the greedy incumbent rather than nothing.
        let mut p = GroupChoiceProblem::new(vec![1e12]);
        for i in 0..40 {
            p.add_group(vec![
                cand(1.0 + (i % 7) as f64, &[1.0]),
                cand(2.0, &[0.5]),
                cand(3.0, &[0.1]),
            ]);
        }
        let sol = solve(
            &p,
            &SolveOptions {
                time_limit: Duration::from_millis(0),
                ..SolveOptions::default()
            },
        );
        assert!(sol.is_feasible());
    }

    #[test]
    fn node_limit_returns_incumbent_deterministically() {
        // No warm start, so the incumbent must come from the tree search —
        // a budget of 40 nodes reaches one complete assignment (30 groups)
        // and then stops, exercising the budget-bounded exit.
        let mut p = GroupChoiceProblem::new(vec![1e12]);
        for i in 0..30 {
            p.add_group(vec![
                cand(1.0 + (i % 5) as f64, &[1.0]),
                cand(2.0, &[0.5]),
                cand(3.0, &[0.1]),
            ]);
        }
        let bounded = SolveOptions {
            node_limit: Some(40),
            warm_start: false,
            ..SolveOptions::default()
        };
        let a = solve(&p, &bounded);
        let b = solve(&p, &bounded);
        assert_eq!(a.status, SolveStatus::NodeLimit);
        assert!(a.is_feasible());
        // Same budget ⇒ bit-identical solution (the budget is counted, not
        // clocked, so this holds on any machine).
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(a.nodes_explored, b.nodes_explored);

        // A generous node budget proves optimality like the unbounded solve.
        let generous = solve(
            &p,
            &SolveOptions {
                node_limit: Some(u64::MAX),
                ..SolveOptions::default()
            },
        );
        let unbounded = solve(&p, &SolveOptions::default());
        assert_eq!(generous.status, SolveStatus::Optimal);
        assert_eq!(generous.selection, unbounded.selection);
    }

    proptest! {
        #[test]
        fn solver_matches_brute_force_on_small_instances(
            groups in prop::collection::vec(
                prop::collection::vec((0.0f64..20.0, 0.0f64..10.0), 1..4),
                1..5,
            ),
            capacity in 5.0f64..30.0,
        ) {
            let mut p = GroupChoiceProblem::new(vec![capacity]);
            for g in groups {
                p.add_group(g.into_iter().map(|(c, w)| cand(c, &[w])).collect());
            }
            let sol = solve(&p, &SolveOptions::default());
            let brute = brute_force(&p);
            match (brute, sol.status) {
                (Some(best), SolveStatus::Optimal) => {
                    prop_assert!((sol.objective - best).abs() < 1e-6,
                        "solver {} vs brute {}", sol.objective, best);
                    prop_assert!(p.is_feasible(&sol.selection));
                }
                (None, SolveStatus::Infeasible) => {}
                (b, s) => prop_assert!(false, "mismatch: brute {b:?}, status {s:?}"),
            }
        }
    }
}
