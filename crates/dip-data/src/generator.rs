use crate::datasets::DatasetMix;
use crate::packing::{pack_t2v, pack_vlm, Microbatch, T2vPackingConfig, VlmPackingConfig};
use crate::sample::{DataSample, ImageInstance};
use dip_models::BatchWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One training iteration's worth of data: a fixed number of microbatches.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingBatch {
    /// The microbatches processed in this iteration (per data-parallel replica).
    pub microbatches: Vec<Microbatch>,
}

impl TrainingBatch {
    /// Total tokens across all microbatches and modalities.
    pub fn total_tokens(&self) -> u64 {
        self.microbatches
            .iter()
            .map(|m| m.workload().total_tokens())
            .sum()
    }

    /// Total number of images across microbatches.
    pub fn total_images(&self) -> u64 {
        self.microbatches.iter().map(Microbatch::num_images).sum()
    }

    /// Average images per microbatch (the orange line of Fig. 8b).
    pub fn avg_images_per_microbatch(&self) -> f64 {
        if self.microbatches.is_empty() {
            0.0
        } else {
            self.total_images() as f64 / self.microbatches.len() as f64
        }
    }

    /// Per-microbatch workload metadata.
    pub fn workloads(&self) -> Vec<BatchWorkload> {
        self.microbatches.iter().map(Microbatch::workload).collect()
    }
}

/// Which packing rule a [`BatchGenerator`] applies.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PackingMode {
    Vlm(VlmPackingConfig),
    T2v(T2vPackingConfig),
}

/// Generates a reproducible stream of packed training batches from a dataset
/// mixture. Each call to [`BatchGenerator::next_batch`] yields the data of
/// one training iteration.
#[derive(Debug, Clone)]
pub struct BatchGenerator {
    mix: DatasetMix,
    mode: PackingMode,
    microbatches_per_iteration: usize,
    rng: StdRng,
    /// Optional per-microbatch image-count bounds (lower, upper), used by the
    /// dynamic-workload experiments (Fig. 8b).
    image_bounds: Option<(u64, u64)>,
}

impl BatchGenerator {
    /// A VLM batch generator with the paper's default packing (8192 tokens,
    /// ≤48 images per sequence).
    pub fn vlm(mix: DatasetMix, microbatches_per_iteration: usize, seed: u64) -> Self {
        Self {
            mix,
            mode: PackingMode::Vlm(VlmPackingConfig::default()),
            microbatches_per_iteration,
            rng: StdRng::seed_from_u64(seed),
            image_bounds: None,
        }
    }

    /// A T2V batch generator with the paper's default clip grouping
    /// (≤16 s, ≤8 clips per microbatch).
    pub fn t2v(mix: DatasetMix, microbatches_per_iteration: usize, seed: u64) -> Self {
        Self {
            mix,
            mode: PackingMode::T2v(T2vPackingConfig::default()),
            microbatches_per_iteration,
            rng: StdRng::seed_from_u64(seed),
            image_bounds: None,
        }
    }

    /// Number of microbatches produced per iteration.
    pub fn microbatches_per_iteration(&self) -> usize {
        self.microbatches_per_iteration
    }

    /// Constrains every generated microbatch to carry between `lower` and
    /// `upper` images (inclusive). Pass `None` to lift the constraint.
    /// Only meaningful for VLM generators.
    pub fn set_image_bounds(&mut self, bounds: Option<(u64, u64)>) {
        self.image_bounds = bounds;
    }

    /// Produces the next training iteration's microbatches.
    pub fn next_batch(&mut self) -> TrainingBatch {
        let microbatches = match (self.mode, self.image_bounds) {
            (PackingMode::Vlm(config), None) => self.generate_vlm(&config),
            (PackingMode::Vlm(config), Some(bounds)) => self.generate_bounded_vlm(&config, bounds),
            (PackingMode::T2v(config), _) => self.generate_t2v(&config),
        };
        TrainingBatch { microbatches }
    }

    fn generate_vlm(&mut self, config: &VlmPackingConfig) -> Vec<Microbatch> {
        let mut batches: Vec<Microbatch> = Vec::new();
        // Draw samples until packing yields enough complete microbatches.
        let mut pending: Vec<DataSample> = Vec::new();
        while batches.len() < self.microbatches_per_iteration {
            for _ in 0..64 {
                pending.push(self.mix.sample(&mut self.rng));
            }
            batches = pack_vlm(&pending, config);
            // The final batch may be partially filled; keep drawing until the
            // count exceeds the target, then drop the trailing partial batch.
            if batches.len() > self.microbatches_per_iteration {
                break;
            }
        }
        batches.truncate(self.microbatches_per_iteration);
        batches
    }

    /// Builds microbatches whose image count is drawn uniformly from the
    /// configured bounds, filling the remaining context with text.
    fn generate_bounded_vlm(
        &mut self,
        config: &VlmPackingConfig,
        (lower, upper): (u64, u64),
    ) -> Vec<Microbatch> {
        let upper = upper.min(config.max_images);
        let lower = lower.min(upper);
        (0..self.microbatches_per_iteration)
            .map(|_| {
                let images = if lower == upper {
                    lower
                } else {
                    self.rng.gen_range(lower..=upper)
                };
                let image_tokens = images * config.tokens_per_image;
                let text_tokens = config.context_length.saturating_sub(image_tokens);
                let sample = DataSample {
                    text_tokens,
                    images: vec![ImageInstance::default(); images as usize],
                    videos: Vec::new(),
                };
                Microbatch {
                    samples: vec![sample],
                }
            })
            .collect()
    }

    fn generate_t2v(&mut self, config: &T2vPackingConfig) -> Vec<Microbatch> {
        let mut batches: Vec<Microbatch> = Vec::new();
        let mut pending: Vec<DataSample> = Vec::new();
        while batches.len() < self.microbatches_per_iteration {
            for _ in 0..32 {
                pending.push(self.mix.sample(&mut self.rng));
            }
            batches = pack_t2v(&pending, config);
            if batches.len() > self.microbatches_per_iteration {
                break;
            }
        }
        batches.truncate(self.microbatches_per_iteration);
        batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetMix;

    #[test]
    fn vlm_generator_yields_requested_microbatches() {
        let mut gen = BatchGenerator::vlm(DatasetMix::vlm_default(), 8, 1);
        let batch = gen.next_batch();
        assert_eq!(batch.microbatches.len(), 8);
        for mb in &batch.microbatches {
            assert!(mb.sequence_tokens() <= 8192);
            assert!(mb.num_images() <= 48);
        }
    }

    #[test]
    fn t2v_generator_yields_requested_microbatches() {
        let mut gen = BatchGenerator::t2v(DatasetMix::t2v_default(), 6, 2);
        let batch = gen.next_batch();
        assert_eq!(batch.microbatches.len(), 6);
        assert!(batch.total_tokens() > 0);
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = BatchGenerator::vlm(DatasetMix::vlm_default(), 4, 99);
        let mut b = BatchGenerator::vlm(DatasetMix::vlm_default(), 4, 99);
        assert_eq!(a.next_batch(), b.next_batch());
        assert_eq!(a.next_batch(), b.next_batch());
    }

    #[test]
    fn image_bounds_are_respected() {
        let mut gen = BatchGenerator::vlm(DatasetMix::vlm_default(), 16, 5);
        gen.set_image_bounds(Some((10, 20)));
        let batch = gen.next_batch();
        for mb in &batch.microbatches {
            let n = mb.num_images();
            assert!((10..=20).contains(&n), "images {n}");
            assert_eq!(mb.sequence_tokens(), 8192);
        }
        let avg = batch.avg_images_per_microbatch();
        assert!((10.0..=20.0).contains(&avg));
    }

    #[test]
    fn zero_image_bounds_produce_pure_text() {
        let mut gen = BatchGenerator::vlm(DatasetMix::vlm_default(), 4, 5);
        gen.set_image_bounds(Some((0, 0)));
        let batch = gen.next_batch();
        assert_eq!(batch.total_images(), 0);
        assert_eq!(batch.total_tokens(), 4 * 8192);
    }

    #[test]
    fn batches_differ_across_iterations() {
        let mut gen = BatchGenerator::vlm(DatasetMix::vlm_default(), 4, 77);
        let a = gen.next_batch();
        let b = gen.next_batch();
        assert_ne!(a, b);
    }
}
