use crate::sample::{DataSample, ImageInstance, VideoClip};
use rand::Rng;

/// Spatio-temporal DiT tokens produced per second of 16-fps video
/// (MovieGen-style latent patchification).
pub const VIDEO_TOKENS_PER_SECOND: u64 = 1560;

/// The open-source datasets modelled in the paper's evaluation (Fig. 4a–b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// OBELICS: interleaved image–text web documents with highly variable
    /// text-to-image ratios (0.4 – 3115 tokens/image).
    Obelics,
    /// LAION-2B: image–caption pairs with short captions (≈16.4 tokens/image).
    Laion2B,
    /// ScienceQA: single diagram plus a medium-length question/explanation.
    ScienceQa,
    /// ShareGPT4Video: video clips with dense captions.
    ShareGpt4Video,
    /// InternVid: video clips with terse captions.
    InternVid,
    /// MMTrail-2M: trailer clips with language and music descriptions.
    MmTrail2M,
}

impl DatasetKind {
    /// All modelled datasets.
    pub const ALL: [DatasetKind; 6] = [
        DatasetKind::Obelics,
        DatasetKind::Laion2B,
        DatasetKind::ScienceQa,
        DatasetKind::ShareGpt4Video,
        DatasetKind::InternVid,
        DatasetKind::MmTrail2M,
    ];

    /// Whether the dataset carries video (as opposed to image) data.
    pub fn is_video(self) -> bool {
        matches!(
            self,
            DatasetKind::ShareGpt4Video | DatasetKind::InternVid | DatasetKind::MmTrail2M
        )
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Obelics => "OBELICS",
            DatasetKind::Laion2B => "LAION-2B",
            DatasetKind::ScienceQa => "ScienceQA",
            DatasetKind::ShareGpt4Video => "ShareGPT4Video",
            DatasetKind::InternVid => "InternVid",
            DatasetKind::MmTrail2M => "MMTrail-2M",
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Samples a log-normal variate with the given log-space mean and deviation.
fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    // Box–Muller transform; avoids an extra distribution dependency.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

/// A generative model of one dataset, producing [`DataSample`]s whose
/// modality-ratio statistics match the paper's Fig. 4a–b.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetModel {
    kind: DatasetKind,
}

impl DatasetModel {
    /// The model for a given dataset.
    pub fn new(kind: DatasetKind) -> Self {
        Self { kind }
    }

    /// The dataset this model imitates.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Draws one training sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> DataSample {
        match self.kind {
            DatasetKind::Laion2B => {
                // Short captions: ~16.4 tokens/image on average.
                let caption = lognormal(rng, 16.4_f64.ln(), 0.55).clamp(3.0, 120.0) as u64;
                DataSample::image_caption(caption)
            }
            DatasetKind::ScienceQa => {
                // One diagram plus a question and explanation.
                let text = lognormal(rng, 130.0_f64.ln(), 0.45).clamp(30.0, 400.0) as u64;
                DataSample::image_caption(text)
            }
            DatasetKind::Obelics => {
                // Interleaved documents: several images, very long-tailed
                // text-to-image ratio (0.4 .. 3115 tokens/image).
                let num_images = 1 + (lognormal(rng, 0.8, 0.7) as usize).min(11);
                let tokens_per_image = lognormal(rng, 150.0_f64.ln(), 1.4).clamp(0.4, 3115.0);
                let text = (tokens_per_image * num_images as f64).min(7_500.0) as u64;
                DataSample {
                    text_tokens: text.max(1),
                    images: vec![ImageInstance::default(); num_images],
                    videos: Vec::new(),
                }
            }
            DatasetKind::ShareGpt4Video => self.video_sample(rng, 40.0, 0.35, 10.0, 70.0),
            DatasetKind::InternVid => self.video_sample(rng, 8.0, 0.55, 1.0, 30.0),
            DatasetKind::MmTrail2M => self.video_sample(rng, 20.0, 0.45, 3.0, 55.0),
        }
    }

    fn video_sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mean_tokens_per_second: f64,
        sigma: f64,
        lo: f64,
        hi: f64,
    ) -> DataSample {
        let duration_s: f64 = rng.gen_range(2.0..=16.0);
        let tokens_per_second = lognormal(rng, mean_tokens_per_second.ln(), sigma).clamp(lo, hi);
        let caption_tokens = (tokens_per_second * duration_s).max(1.0) as u64;
        let video_tokens = (duration_s * VIDEO_TOKENS_PER_SECOND as f64) as u64;
        DataSample {
            text_tokens: 0,
            images: Vec::new(),
            videos: vec![VideoClip {
                duration_s,
                video_tokens,
                caption_tokens,
            }],
        }
    }
}

/// Summary statistics of a set of samples, as plotted in Fig. 4a–b.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DatasetStats {
    /// Number of samples summarised.
    pub num_samples: usize,
    /// Mean text tokens per image (image datasets only).
    pub mean_tokens_per_image: f64,
    /// Minimum and maximum tokens-per-image ratio observed.
    pub tokens_per_image_range: (f64, f64),
    /// Mean caption tokens per second of video (video datasets only).
    pub mean_tokens_per_second: f64,
    /// Mean number of images per sample.
    pub mean_images_per_sample: f64,
}

impl DatasetStats {
    /// Computes statistics over a slice of samples.
    pub fn from_samples(samples: &[DataSample]) -> Self {
        let mut stats = DatasetStats {
            num_samples: samples.len(),
            tokens_per_image_range: (f64::INFINITY, f64::NEG_INFINITY),
            ..Self::default()
        };
        let mut ratio_count = 0usize;
        let mut tps_count = 0usize;
        for s in samples {
            stats.mean_images_per_sample += s.num_images() as f64;
            if let Some(r) = s.tokens_per_image() {
                stats.mean_tokens_per_image += r;
                ratio_count += 1;
                stats.tokens_per_image_range.0 = stats.tokens_per_image_range.0.min(r);
                stats.tokens_per_image_range.1 = stats.tokens_per_image_range.1.max(r);
            }
            if let Some(t) = s.tokens_per_second() {
                stats.mean_tokens_per_second += t;
                tps_count += 1;
            }
        }
        if !samples.is_empty() {
            stats.mean_images_per_sample /= samples.len() as f64;
        }
        if ratio_count > 0 {
            stats.mean_tokens_per_image /= ratio_count as f64;
        } else {
            stats.tokens_per_image_range = (0.0, 0.0);
        }
        if tps_count > 0 {
            stats.mean_tokens_per_second /= tps_count as f64;
        }
        stats
    }
}

/// A weighted mixture of datasets, used to draw a realistic training stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetMix {
    components: Vec<(DatasetKind, f64)>,
}

impl DatasetMix {
    /// Creates a mixture from `(dataset, weight)` pairs. Weights need not sum
    /// to one; they are normalised internally. Non-positive weights are dropped.
    pub fn new(components: impl IntoIterator<Item = (DatasetKind, f64)>) -> Self {
        let components: Vec<_> = components.into_iter().filter(|(_, w)| *w > 0.0).collect();
        Self { components }
    }

    /// The default VLM training mixture (interleaved documents, captions and QA).
    pub fn vlm_default() -> Self {
        Self::new([
            (DatasetKind::Obelics, 0.40),
            (DatasetKind::Laion2B, 0.40),
            (DatasetKind::ScienceQa, 0.20),
        ])
    }

    /// The default T2V training mixture.
    pub fn t2v_default() -> Self {
        Self::new([
            (DatasetKind::ShareGpt4Video, 0.40),
            (DatasetKind::InternVid, 0.30),
            (DatasetKind::MmTrail2M, 0.30),
        ])
    }

    /// The component datasets and weights.
    pub fn components(&self) -> &[(DatasetKind, f64)] {
        &self.components
    }

    /// True when every component is a video dataset.
    pub fn is_video(&self) -> bool {
        !self.components.is_empty() && self.components.iter().all(|(k, _)| k.is_video())
    }

    /// Draws one sample from the mixture.
    ///
    /// # Panics
    ///
    /// Panics if the mixture has no components.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> DataSample {
        assert!(!self.components.is_empty(), "empty dataset mixture");
        let total: f64 = self.components.iter().map(|(_, w)| w).sum();
        let mut target = rng.gen_range(0.0..total);
        for (kind, weight) in &self.components {
            if target < *weight {
                return DatasetModel::new(*kind).sample(rng);
            }
            target -= weight;
        }
        let (kind, _) = self.components[self.components.len() - 1];
        DatasetModel::new(kind).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(kind: DatasetKind, n: usize) -> Vec<DataSample> {
        let mut rng = StdRng::seed_from_u64(7);
        let model = DatasetModel::new(kind);
        (0..n).map(|_| model.sample(&mut rng)).collect()
    }

    #[test]
    fn laion_has_short_captions() {
        let stats = DatasetStats::from_samples(&draw(DatasetKind::Laion2B, 4000));
        assert!(
            (10.0..25.0).contains(&stats.mean_tokens_per_image),
            "mean {}",
            stats.mean_tokens_per_image
        );
        assert_eq!(stats.mean_images_per_sample, 1.0);
    }

    #[test]
    fn obelics_has_long_tailed_ratios() {
        let stats = DatasetStats::from_samples(&draw(DatasetKind::Obelics, 4000));
        assert!(stats.mean_tokens_per_image > 50.0);
        assert!(stats.tokens_per_image_range.1 > 500.0);
        assert!(stats.mean_images_per_sample > 1.5);
    }

    #[test]
    fn sciencqa_sits_between_laion_and_obelics_tail() {
        let stats = DatasetStats::from_samples(&draw(DatasetKind::ScienceQa, 4000));
        assert!(
            (80.0..250.0).contains(&stats.mean_tokens_per_image),
            "mean {}",
            stats.mean_tokens_per_image
        );
    }

    #[test]
    fn video_datasets_have_expected_density_ordering() {
        let sharegpt = DatasetStats::from_samples(&draw(DatasetKind::ShareGpt4Video, 3000));
        let internvid = DatasetStats::from_samples(&draw(DatasetKind::InternVid, 3000));
        let mmtrail = DatasetStats::from_samples(&draw(DatasetKind::MmTrail2M, 3000));
        assert!(sharegpt.mean_tokens_per_second > mmtrail.mean_tokens_per_second);
        assert!(mmtrail.mean_tokens_per_second > internvid.mean_tokens_per_second);
    }

    #[test]
    fn video_samples_respect_duration_cap() {
        for s in draw(DatasetKind::ShareGpt4Video, 500) {
            assert!(s.video_duration_s() <= 16.0 + 1e-9);
            assert!(s.video_tokens() > 0);
        }
    }

    #[test]
    fn mixture_draws_from_all_components() {
        let mix = DatasetMix::vlm_default();
        let mut rng = StdRng::seed_from_u64(3);
        let mut saw_multi_image = false;
        let mut saw_single_image = false;
        for _ in 0..500 {
            let s = mix.sample(&mut rng);
            if s.num_images() > 1 {
                saw_multi_image = true;
            }
            if s.num_images() == 1 {
                saw_single_image = true;
            }
        }
        assert!(saw_multi_image && saw_single_image);
        assert!(!mix.is_video());
        assert!(DatasetMix::t2v_default().is_video());
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let mix = DatasetMix::vlm_default();
        let a: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(11);
            (0..50).map(|_| mix.sample(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(11);
            (0..50).map(|_| mix.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
