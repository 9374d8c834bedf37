use dip_models::{zoo, BatchWorkload, Modality, ModalityWorkload};

/// A single image attached to a training sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageInstance {
    /// Number of patch tokens this image contributes after the ViT encoder
    /// and spatial merging (169 for the paper's 728-px configuration).
    pub patch_tokens: u64,
}

impl Default for ImageInstance {
    fn default() -> Self {
        Self {
            patch_tokens: zoo::TOKENS_PER_IMAGE,
        }
    }
}

/// A video clip attached to a training sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VideoClip {
    /// Clip duration in seconds (paper caps at 16 s, transcoded at 16 fps).
    pub duration_s: f64,
    /// Spatio-temporal tokens the clip occupies in the DiT.
    pub video_tokens: u64,
    /// Caption text tokens accompanying the clip.
    pub caption_tokens: u64,
}

/// One multimodal training sample before packing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataSample {
    /// Plain text tokens (captions, document text, questions...).
    pub text_tokens: u64,
    /// Images embedded in the sample.
    pub images: Vec<ImageInstance>,
    /// Video clips embedded in the sample.
    pub videos: Vec<VideoClip>,
}

impl DataSample {
    /// A pure-text sample.
    pub fn text(tokens: u64) -> Self {
        Self {
            text_tokens: tokens,
            ..Self::default()
        }
    }

    /// A caption + single-image sample (LAION-style).
    pub fn image_caption(caption_tokens: u64) -> Self {
        Self {
            text_tokens: caption_tokens,
            images: vec![ImageInstance::default()],
            ..Self::default()
        }
    }

    /// Number of images in the sample.
    pub fn num_images(&self) -> usize {
        self.images.len()
    }

    /// Total image patch tokens in the sample.
    pub fn image_tokens(&self) -> u64 {
        self.images.iter().map(|i| i.patch_tokens).sum()
    }

    /// Total video tokens in the sample.
    pub fn video_tokens(&self) -> u64 {
        self.videos.iter().map(|v| v.video_tokens).sum()
    }

    /// Total video duration in seconds.
    pub fn video_duration_s(&self) -> f64 {
        self.videos.iter().map(|v| v.duration_s).sum()
    }

    /// Total caption tokens carried by video clips.
    pub fn video_caption_tokens(&self) -> u64 {
        self.videos.iter().map(|v| v.caption_tokens).sum()
    }

    /// Length of this sample in the backbone's packed sequence: text tokens
    /// plus one slot per image patch token (the paper packs image tokens
    /// inline with text up to the 8192-token context).
    pub fn sequence_tokens(&self) -> u64 {
        self.text_tokens + self.image_tokens() + self.video_caption_tokens()
    }

    /// Ratio of text tokens to images — the quantity plotted in Fig. 4a.
    /// Returns `None` for samples without images.
    pub fn tokens_per_image(&self) -> Option<f64> {
        if self.images.is_empty() {
            None
        } else {
            Some(self.text_tokens as f64 / self.images.len() as f64)
        }
    }

    /// Ratio of caption tokens per second of video — Fig. 4b. `None` when
    /// there is no video.
    pub fn tokens_per_second(&self) -> Option<f64> {
        let dur = self.video_duration_s();
        if dur <= 0.0 {
            None
        } else {
            Some(self.video_caption_tokens() as f64 / dur)
        }
    }

    /// Converts this sample to per-modality workload metadata.
    pub fn workload(&self) -> BatchWorkload {
        let mut batch = BatchWorkload::new();
        if self.text_tokens + self.video_caption_tokens() > 0 {
            batch.add(
                Modality::Text,
                ModalityWorkload::new(self.text_tokens + self.video_caption_tokens(), 1),
            );
        }
        if !self.images.is_empty() {
            batch.add(
                Modality::Image,
                ModalityWorkload::new(self.image_tokens(), self.images.len() as u64),
            );
        }
        if !self.videos.is_empty() {
            batch.add(
                Modality::Video,
                ModalityWorkload::new(self.video_tokens(), self.videos.len() as u64),
            );
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_caption_sample_has_one_image() {
        let s = DataSample::image_caption(16);
        assert_eq!(s.num_images(), 1);
        assert_eq!(s.image_tokens(), zoo::TOKENS_PER_IMAGE);
        assert_eq!(s.tokens_per_image(), Some(16.0));
        assert_eq!(s.sequence_tokens(), 16 + 169);
    }

    #[test]
    fn text_sample_has_no_ratio() {
        let s = DataSample::text(100);
        assert_eq!(s.tokens_per_image(), None);
        assert_eq!(s.tokens_per_second(), None);
    }

    #[test]
    fn workload_splits_by_modality() {
        let mut s = DataSample::image_caption(100);
        s.videos.push(VideoClip {
            duration_s: 8.0,
            video_tokens: 2048,
            caption_tokens: 60,
        });
        let wl = s.workload();
        assert_eq!(wl.get(Modality::Text).tokens, 160);
        assert_eq!(wl.get(Modality::Image).tokens, 169);
        assert_eq!(wl.get(Modality::Video).tokens, 2048);
        assert_eq!(s.tokens_per_second(), Some(7.5));
    }
}
