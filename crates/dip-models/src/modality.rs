use std::fmt;

/// The data modality a module consumes or produces.
///
/// DIP's scheduling is *modality aware*: computations belonging to different
/// modalities are placed into dedicated pipeline segments and batched into
/// modality-specific sub-microbatches, so every workload and module is
/// labelled with its modality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Modality {
    /// Natural-language text tokens.
    Text,
    /// Image patch tokens (e.g. produced by a ViT patch embedding).
    Image,
    /// Video tokens (spatio-temporal patches).
    Video,
    /// Audio tokens.
    Audio,
}

impl Modality {
    /// All modalities, in a stable order.
    pub const ALL: [Modality; 4] = [
        Modality::Text,
        Modality::Image,
        Modality::Video,
        Modality::Audio,
    ];

    /// A short lowercase name, useful for reports and plots.
    pub fn name(self) -> &'static str {
        match self {
            Modality::Text => "text",
            Modality::Image => "image",
            Modality::Video => "video",
            Modality::Audio => "audio",
        }
    }
}

impl fmt::Display for Modality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The role a modality module plays inside an LMM (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleRole {
    /// Converts raw modality data into token embeddings (e.g. ViT image encoder).
    Encoder,
    /// The central autoregressive or diffusion backbone (e.g. an LLM or DiT).
    Backbone,
    /// Converts backbone representations into output modalities (e.g. a DiT video decoder).
    Decoder,
    /// A lightweight modality adapter/projector between an encoder/decoder and the backbone.
    Adapter,
}

impl ModuleRole {
    /// A short lowercase name, useful for reports.
    pub fn name(self) -> &'static str {
        match self {
            ModuleRole::Encoder => "encoder",
            ModuleRole::Backbone => "backbone",
            ModuleRole::Decoder => "decoder",
            ModuleRole::Adapter => "adapter",
        }
    }

    /// Whether stages of this role are memory-heavy modality stages
    /// (encoders, decoders and their adapters hold large per-instance
    /// activations relative to their FLOPs) rather than the FLOP-heavy
    /// backbone. Capacity-aware placement uses this to decide whether a
    /// module's layers should follow per-device HBM capacity or per-device
    /// compute throughput.
    pub fn is_memory_heavy(self) -> bool {
        !matches!(self, ModuleRole::Backbone)
    }
}

impl fmt::Display for ModuleRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modality_names_are_distinct() {
        let names: std::collections::HashSet<_> = Modality::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), Modality::ALL.len());
    }

    #[test]
    fn display_matches_name() {
        for m in Modality::ALL {
            assert_eq!(m.to_string(), m.name());
        }
        assert_eq!(ModuleRole::Backbone.to_string(), "backbone");
    }

    #[test]
    fn only_the_backbone_is_flop_heavy() {
        assert!(!ModuleRole::Backbone.is_memory_heavy());
        for role in [
            ModuleRole::Encoder,
            ModuleRole::Decoder,
            ModuleRole::Adapter,
        ] {
            assert!(role.is_memory_heavy(), "{role} should be memory-heavy");
        }
    }

    #[test]
    fn modalities_are_ordered() {
        assert!(Modality::Text < Modality::Image);
        assert!(Modality::Image < Modality::Video);
    }
}
