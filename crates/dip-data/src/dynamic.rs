use crate::generator::{BatchGenerator, TrainingBatch};

/// A per-iteration schedule of image-count bounds, reproducing the manual
/// workload control of the paper's dynamic-workload study (Fig. 8b).
///
/// The paper monitors 40 iterations showing two "rise-and-fall" patterns:
/// the lower bound rises from 0 to 16 (upper bound fixed at 32) over the
/// first five iterations, peaking at an average of ~22 images per
/// microbatch, after which both bounds decay to zero by iteration 20.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageBoundSchedule {
    bounds: Vec<(u64, u64)>,
}

impl ImageBoundSchedule {
    /// Builds a schedule from explicit per-iteration bounds.
    pub fn new(bounds: Vec<(u64, u64)>) -> Self {
        Self { bounds }
    }

    /// The 40-iteration rise-and-fall schedule used in Fig. 8b
    /// (two repetitions of a 20-iteration pattern).
    pub fn fig8b() -> Self {
        let mut bounds = Vec::with_capacity(40);
        for _ in 0..2 {
            bounds.extend(Self::rise_and_fall_pattern());
        }
        Self { bounds }
    }

    /// One 20-iteration rise-and-fall pattern.
    fn rise_and_fall_pattern() -> Vec<(u64, u64)> {
        let mut pattern = Vec::with_capacity(20);
        // Iterations 1–5: lower bound rises 0 → 16, upper bound fixed at 32.
        for i in 0..5u64 {
            pattern.push((i * 4, 32));
        }
        // Iterations 6–20: both bounds decay towards zero.
        for i in 0..15u64 {
            let frac = 1.0 - (i + 1) as f64 / 15.0;
            let lower = (16.0 * frac).round() as u64;
            let upper = (32.0 * frac).round() as u64;
            pattern.push((lower.min(upper), upper));
        }
        pattern
    }

    /// Number of iterations covered by the schedule.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True when the schedule covers no iterations.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Bounds for iteration `index` (clamped to the last entry past the end).
    pub fn bounds_at(&self, index: usize) -> (u64, u64) {
        if self.bounds.is_empty() {
            return (0, 0);
        }
        self.bounds[index.min(self.bounds.len() - 1)]
    }

    /// Iterates over the bounds in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds.iter().copied()
    }
}

/// Drives a [`BatchGenerator`] through an [`ImageBoundSchedule`], producing
/// the batch of each controlled iteration together with its bounds.
#[derive(Debug)]
pub struct DynamicWorkloadController {
    generator: BatchGenerator,
    schedule: ImageBoundSchedule,
    iteration: usize,
}

impl DynamicWorkloadController {
    /// Creates a controller over `generator` following `schedule`.
    pub fn new(generator: BatchGenerator, schedule: ImageBoundSchedule) -> Self {
        Self {
            generator,
            schedule,
            iteration: 0,
        }
    }

    /// The iteration index of the next batch to be produced.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// True once the schedule has been exhausted.
    pub fn finished(&self) -> bool {
        self.iteration >= self.schedule.len()
    }

    /// Produces the next controlled iteration, or `None` when the schedule is
    /// exhausted.
    pub fn next_iteration(&mut self) -> Option<ControlledIteration> {
        if self.finished() {
            return None;
        }
        let bounds = self.schedule.bounds_at(self.iteration);
        self.generator.set_image_bounds(Some(bounds));
        let batch = self.generator.next_batch();
        let iteration = self.iteration;
        self.iteration += 1;
        Some(ControlledIteration {
            iteration,
            bounds,
            batch,
        })
    }

    /// Drains the remaining iterations into a replayable [`WorkloadTrace`].
    pub fn collect_trace(&mut self) -> WorkloadTrace {
        let mut iterations = Vec::new();
        while let Some(iteration) = self.next_iteration() {
            iterations.push(iteration);
        }
        WorkloadTrace { iterations }
    }
}

/// A recorded sequence of controlled iterations that can be replayed.
///
/// Training epochs (and the paper's repeated rise-and-fall envelope) revisit
/// the same workload shapes; replaying a recorded trace reproduces the exact
/// microbatch workloads — and therefore the exact workload signatures — of
/// the original pass, which is what lets a
/// `dip_core`-style planning session serve repeated iterations from its plan
/// cache.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadTrace {
    iterations: Vec<ControlledIteration>,
}

impl WorkloadTrace {
    /// Builds a trace from explicit iterations.
    pub fn new(iterations: Vec<ControlledIteration>) -> Self {
        Self { iterations }
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.iterations.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.iterations.is_empty()
    }

    /// The recorded iterations, in order.
    pub fn iter(&self) -> impl Iterator<Item = &ControlledIteration> + '_ {
        self.iterations.iter()
    }

    /// Replays the trace `repeats` times, renumbering the iteration indices
    /// consecutively across passes. The workloads of pass `r > 0` are
    /// identical to pass 0.
    pub fn replay(&self, repeats: usize) -> impl Iterator<Item = ControlledIteration> + '_ {
        let len = self.len();
        (0..repeats.saturating_mul(len)).map(move |i| {
            let mut iteration = self.iterations[i % len].clone();
            iteration.iteration = i;
            iteration
        })
    }
}

/// One iteration produced by the [`DynamicWorkloadController`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledIteration {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// The (lower, upper) image-count bounds in force.
    pub bounds: (u64, u64),
    /// The generated data batch.
    pub batch: TrainingBatch,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetMix;

    #[test]
    fn fig8b_schedule_has_40_iterations_with_two_peaks() {
        let s = ImageBoundSchedule::fig8b();
        assert_eq!(s.len(), 40);
        // Peak of the first pattern at iteration 4 (lower bound 16, upper 32).
        assert_eq!(s.bounds_at(4), (16, 32));
        // End of the first pattern decays to zero.
        assert_eq!(s.bounds_at(19), (0, 0));
        // Second pattern repeats.
        assert_eq!(s.bounds_at(24), (16, 32));
        assert_eq!(s.bounds_at(39), (0, 0));
    }

    #[test]
    fn bounds_are_always_consistent() {
        let s = ImageBoundSchedule::fig8b();
        for (lo, hi) in s.iter() {
            assert!(lo <= hi);
            assert!(hi <= 32);
        }
    }

    #[test]
    fn bounds_at_clamps_past_the_end() {
        let s = ImageBoundSchedule::new(vec![(1, 2), (3, 4)]);
        assert_eq!(s.bounds_at(100), (3, 4));
        assert!(!s.is_empty());
        assert_eq!(ImageBoundSchedule::new(vec![]).bounds_at(5), (0, 0));
    }

    #[test]
    fn collected_traces_replay_identical_workloads() {
        let generator = BatchGenerator::vlm(DatasetMix::vlm_default(), 4, 3);
        let mut controller = DynamicWorkloadController::new(
            generator,
            ImageBoundSchedule::new(vec![(0, 8), (4, 16), (0, 4)]),
        );
        let trace = controller.collect_trace();
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());

        let replayed: Vec<_> = trace.replay(2).collect();
        assert_eq!(replayed.len(), 6);
        for (i, iteration) in replayed.iter().enumerate() {
            assert_eq!(iteration.iteration, i, "indices renumbered across passes");
            let original = &replayed[i % 3];
            assert_eq!(iteration.batch.workloads(), original.batch.workloads());
            assert_eq!(iteration.bounds, original.bounds);
        }
        assert_eq!(WorkloadTrace::default().replay(5).count(), 0);
    }

    #[test]
    fn controller_walks_the_schedule_and_respects_bounds() {
        let generator = BatchGenerator::vlm(DatasetMix::vlm_default(), 4, 3);
        let mut controller = DynamicWorkloadController::new(generator, ImageBoundSchedule::fig8b());
        let mut count = 0;
        let mut peak_avg: f64 = 0.0;
        while let Some(iter) = controller.next_iteration() {
            let (lo, hi) = iter.bounds;
            for mb in &iter.batch.microbatches {
                assert!(mb.num_images() >= lo && mb.num_images() <= hi);
            }
            peak_avg = peak_avg.max(iter.batch.avg_images_per_microbatch());
            count += 1;
        }
        assert_eq!(count, 40);
        assert!(controller.finished());
        // Peak average image count should approach the paper's ~22 images.
        assert!(peak_avg >= 16.0, "peak avg {peak_avg}");
    }
}
