use crate::sample::DataSample;
use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};

/// Packing configuration for vision-language models (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlmPackingConfig {
    /// Maximum packed sequence length in tokens (text + image patch tokens).
    pub context_length: u64,
    /// Patch tokens contributed by each image.
    pub tokens_per_image: u64,
    /// Maximum number of images per packed sequence.
    pub max_images: u64,
}

impl Default for VlmPackingConfig {
    fn default() -> Self {
        Self {
            context_length: zoo::VLM_CONTEXT_LENGTH,
            tokens_per_image: zoo::TOKENS_PER_IMAGE,
            max_images: zoo::MAX_IMAGES_PER_SEQUENCE,
        }
    }
}

/// Packing configuration for text-to-video models (§7.1, MovieGen-style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct T2vPackingConfig {
    /// Maximum total video duration per microbatch, in seconds.
    pub max_duration_s: f64,
    /// Maximum number of clips grouped into a microbatch.
    pub max_clips: usize,
}

impl Default for T2vPackingConfig {
    fn default() -> Self {
        Self {
            max_duration_s: 16.0,
            max_clips: 8,
        }
    }
}

/// A packed microbatch: the unit of work passed through the pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Microbatch {
    /// The samples packed into this microbatch.
    pub samples: Vec<DataSample>,
}

impl Microbatch {
    /// Number of images across the packed samples.
    pub fn num_images(&self) -> u64 {
        self.samples.iter().map(|s| s.num_images() as u64).sum()
    }

    /// Number of video clips across the packed samples.
    pub fn num_clips(&self) -> u64 {
        self.samples.iter().map(|s| s.videos.len() as u64).sum()
    }

    /// Total text tokens (including video captions).
    pub fn text_tokens(&self) -> u64 {
        self.samples
            .iter()
            .map(|s| s.text_tokens + s.video_caption_tokens())
            .sum()
    }

    /// Total image patch tokens.
    pub fn image_tokens(&self) -> u64 {
        self.samples.iter().map(DataSample::image_tokens).sum()
    }

    /// Total video tokens.
    pub fn video_tokens(&self) -> u64 {
        self.samples.iter().map(DataSample::video_tokens).sum()
    }

    /// Total video duration in seconds.
    pub fn video_duration_s(&self) -> f64 {
        self.samples.iter().map(DataSample::video_duration_s).sum()
    }

    /// Length of the packed backbone sequence (text + image tokens).
    pub fn sequence_tokens(&self) -> u64 {
        self.samples.iter().map(DataSample::sequence_tokens).sum()
    }

    /// Per-modality workload metadata for this microbatch: this is what the
    /// DIP planner prefetches ahead of the GPU workers (§3.2 step ①).
    pub fn workload(&self) -> BatchWorkload {
        let mut batch = BatchWorkload::new();
        if self.text_tokens() > 0 {
            batch.add(Modality::Text, ModalityWorkload::new(self.text_tokens(), 1));
        }
        if self.num_images() > 0 {
            batch.add(
                Modality::Image,
                ModalityWorkload::new(self.image_tokens(), self.num_images()),
            );
        }
        if self.video_tokens() > 0 {
            batch.add(
                Modality::Video,
                ModalityWorkload::new(self.video_tokens(), self.num_clips().max(1)),
            );
        }
        batch
    }
}

/// Greedily packs image/text samples into microbatches bounded by the VLM
/// context length and image cap (§7.1). Samples longer than the context
/// length are truncated to fit rather than dropped.
pub fn pack_vlm(samples: &[DataSample], config: &VlmPackingConfig) -> Vec<Microbatch> {
    let mut batches = Vec::new();
    let mut current = Microbatch::default();
    let mut current_tokens = 0u64;
    let mut current_images = 0u64;

    for sample in samples {
        let mut sample = sample.clone();
        // Truncate over-long samples to the context length, dropping images
        // past the image cap first and then text tokens.
        while sample.num_images() as u64 > config.max_images {
            sample.images.pop();
        }
        let max_text = config.context_length.saturating_sub(sample.image_tokens());
        if sample.text_tokens > max_text {
            sample.text_tokens = max_text;
        }

        let tokens = sample.sequence_tokens();
        let images = sample.num_images() as u64;
        let fits = current_tokens + tokens <= config.context_length
            && current_images + images <= config.max_images;
        if !fits && !current.samples.is_empty() {
            batches.push(std::mem::take(&mut current));
            current_tokens = 0;
            current_images = 0;
        }
        current_tokens += tokens;
        current_images += images;
        current.samples.push(sample);
    }
    if !current.samples.is_empty() {
        batches.push(current);
    }
    batches
}

/// Groups video samples into microbatches bounded by total duration and clip
/// count (§7.1). Clips longer than the duration cap form their own microbatch.
pub fn pack_t2v(samples: &[DataSample], config: &T2vPackingConfig) -> Vec<Microbatch> {
    let mut batches = Vec::new();
    let mut current = Microbatch::default();
    let mut current_duration = 0.0f64;
    let mut current_clips = 0usize;

    for sample in samples {
        let duration = sample.video_duration_s();
        let clips = sample.videos.len();
        let fits = current_duration + duration <= config.max_duration_s
            && current_clips + clips <= config.max_clips;
        if !fits && !current.samples.is_empty() {
            batches.push(std::mem::take(&mut current));
            current_duration = 0.0;
            current_clips = 0;
        }
        current_duration += duration;
        current_clips += clips;
        current.samples.push(sample.clone());
    }
    if !current.samples.is_empty() {
        batches.push(current);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{DatasetKind, DatasetModel};
    use crate::sample::VideoClip;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn laion_samples(n: usize) -> Vec<DataSample> {
        let mut rng = StdRng::seed_from_u64(5);
        let model = DatasetModel::new(DatasetKind::Laion2B);
        (0..n).map(|_| model.sample(&mut rng)).collect()
    }

    #[test]
    fn vlm_packing_respects_context_and_image_caps() {
        let samples = laion_samples(2000);
        let config = VlmPackingConfig::default();
        let batches = pack_vlm(&samples, &config);
        assert!(!batches.is_empty());
        for b in &batches {
            assert!(b.sequence_tokens() <= config.context_length);
            assert!(b.num_images() <= config.max_images);
        }
        // No sample lost.
        let packed: usize = batches.iter().map(|b| b.samples.len()).sum();
        assert_eq!(packed, samples.len());
    }

    #[test]
    fn laion_packing_produces_image_dense_batches() {
        // LAION captions are ~16 tokens, so packed sequences are image-dense:
        // most batches should carry at least 40 images (close to the 48 cap).
        let samples = laion_samples(2000);
        let batches = pack_vlm(&samples, &VlmPackingConfig::default());
        let dense: usize = batches.iter().filter(|b| b.num_images() >= 40).count();
        assert!(dense * 2 > batches.len(), "{}/{}", dense, batches.len());
    }

    #[test]
    fn oversized_samples_are_truncated_to_fit() {
        let huge = DataSample::text(50_000);
        let batches = pack_vlm(&[huge], &VlmPackingConfig::default());
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].sequence_tokens(), 8192);
    }

    #[test]
    fn t2v_packing_respects_duration_and_clip_caps() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = DatasetModel::new(DatasetKind::InternVid);
        let samples: Vec<_> = (0..500).map(|_| model.sample(&mut rng)).collect();
        let config = T2vPackingConfig::default();
        let batches = pack_t2v(&samples, &config);
        for b in &batches {
            // A single clip may exceed the cap on its own; grouped clips must not.
            if b.num_clips() > 1 {
                assert!(b.video_duration_s() <= config.max_duration_s + 1e-9);
            }
            assert!(b.num_clips() <= config.max_clips as u64);
        }
        let packed: usize = batches.iter().map(|b| b.samples.len()).sum();
        assert_eq!(packed, samples.len());
    }

    #[test]
    fn workload_metadata_matches_contents() {
        let mut sample = DataSample::image_caption(100);
        sample.videos.push(VideoClip {
            duration_s: 4.0,
            video_tokens: 6000,
            caption_tokens: 40,
        });
        let mb = Microbatch {
            samples: vec![sample],
        };
        let wl = mb.workload();
        assert_eq!(wl.get(Modality::Text).tokens, 140);
        assert_eq!(wl.get(Modality::Image).tokens, 169);
        assert_eq!(wl.get(Modality::Video).tokens, 6000);
    }

    #[test]
    fn empty_input_produces_no_batches() {
        assert!(pack_vlm(&[], &VlmPackingConfig::default()).is_empty());
        assert!(pack_t2v(&[], &T2vPackingConfig::default()).is_empty());
    }
}
