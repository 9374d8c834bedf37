use crate::{
    BatchWorkload, LayerCost, Modality, ModalityModule, ModalityWorkload, ModelError, ModuleRole,
};

/// Index of a module within an [`LmmSpec`], in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub usize);

impl std::fmt::Display for ModuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// How a module's workload is derived from a batch's per-modality metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSource {
    /// The module processes exactly the tokens of one modality
    /// (e.g. the ViT encoder processes image patch tokens).
    Single(Modality),
    /// The module processes the concatenation of all modality tokens
    /// (e.g. an LLM backbone whose input sequence interleaves text and
    /// image tokens).
    AllTokens,
}

impl WorkloadSource {
    /// Extracts the module workload from batch metadata.
    pub fn extract(&self, batch: &BatchWorkload) -> ModalityWorkload {
        match self {
            WorkloadSource::Single(m) => batch.get(*m),
            WorkloadSource::AllTokens => {
                let tokens = batch.total_tokens();
                let sequences = batch
                    .iter()
                    .map(|(_, w)| w.sequences)
                    .max()
                    .unwrap_or(0)
                    .max(u64::from(tokens > 0));
                ModalityWorkload { tokens, sequences }
            }
        }
    }
}

/// A complete large multimodal model: an ordered list of modality modules
/// with the backbone in the middle (Fig. 1 of the paper).
///
/// Modules are stored in *execution order*: every encoder and input adapter
/// appears before the backbone, every output adapter and decoder after it.
/// The pipeline planner relies on this order for data dependencies between
/// pipeline segments (an encoder's forward must finish before the backbone's
/// forward of the same microbatch starts, and conversely for backward).
#[derive(Debug, Clone, PartialEq)]
pub struct LmmSpec {
    name: String,
    modules: Vec<ModalityModule>,
    sources: Vec<WorkloadSource>,
}

impl LmmSpec {
    /// Builds an [`LmmSpecBuilder`].
    pub fn builder(name: impl Into<String>) -> LmmSpecBuilder {
        LmmSpecBuilder {
            name: name.into(),
            modules: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// The model's name (e.g. `"VLM-S"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All modules in execution order.
    pub fn modules(&self) -> &[ModalityModule] {
        &self.modules
    }

    /// Number of modules.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// The module with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn module(&self, id: ModuleId) -> &ModalityModule {
        &self.modules[id.0]
    }

    /// The workload source of the module with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn source(&self, id: ModuleId) -> WorkloadSource {
        self.sources[id.0]
    }

    /// Iterates `(id, module)` pairs in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (ModuleId, &ModalityModule)> {
        self.modules
            .iter()
            .enumerate()
            .map(|(i, m)| (ModuleId(i), m))
    }

    /// The backbone module, if any.
    pub fn backbone(&self) -> Option<&ModalityModule> {
        self.modules
            .iter()
            .find(|m| m.role() == ModuleRole::Backbone)
    }

    /// The id of the backbone module, if any.
    pub fn backbone_id(&self) -> Option<ModuleId> {
        self.iter()
            .find(|(_, m)| m.role() == ModuleRole::Backbone)
            .map(|(id, _)| id)
    }

    /// The encoder modules (in execution order).
    pub fn encoders(&self) -> impl Iterator<Item = (ModuleId, &ModalityModule)> {
        self.iter().filter(|(_, m)| m.role() == ModuleRole::Encoder)
    }

    /// The decoder modules (in execution order).
    pub fn decoders(&self) -> impl Iterator<Item = (ModuleId, &ModalityModule)> {
        self.iter().filter(|(_, m)| m.role() == ModuleRole::Decoder)
    }

    /// Looks a module up by name.
    pub fn module_by_name(&self, name: &str) -> Result<(ModuleId, &ModalityModule), ModelError> {
        self.iter()
            .find(|(_, m)| m.name() == name)
            .ok_or_else(|| ModelError::UnknownModule {
                module: name.to_owned(),
            })
    }

    /// Total parameter count across all modules.
    pub fn param_count(&self) -> u64 {
        self.modules.iter().map(ModalityModule::param_count).sum()
    }

    /// Total parameter count in billions.
    pub fn param_billions(&self) -> f64 {
        self.param_count() as f64 / 1e9
    }

    /// The workload each module must process for a given batch.
    pub fn module_workloads(&self, batch: &BatchWorkload) -> Vec<(ModuleId, ModalityWorkload)> {
        self.iter()
            .map(|(id, _)| (id, self.sources[id.0].extract(batch)))
            .collect()
    }

    /// Total model FLOPs (forward + backward) of one microbatch across the
    /// whole model at tensor-parallel degree 1 — the quantity used to compute
    /// model FLOPs utilisation (MFU).
    pub fn model_flops(&self, batch: &BatchWorkload) -> f64 {
        self.module_workloads(batch)
            .iter()
            .map(|(id, wl)| {
                let c = self.module(*id).cost(wl, 1);
                c.total_flops()
            })
            .sum()
    }

    /// Per-GPU cost of the whole model over `batch` at tensor-parallel degree `tp`.
    pub fn cost(&self, batch: &BatchWorkload, tp: usize) -> LayerCost {
        self.module_workloads(batch)
            .iter()
            .map(|(id, wl)| self.module(*id).cost(wl, tp))
            .sum()
    }
}

/// Incremental builder for [`LmmSpec`].
#[derive(Debug, Clone)]
pub struct LmmSpecBuilder {
    name: String,
    modules: Vec<ModalityModule>,
    sources: Vec<WorkloadSource>,
}

impl LmmSpecBuilder {
    /// Appends a module that processes a single modality's tokens.
    pub fn module(mut self, module: ModalityModule) -> Self {
        let source = WorkloadSource::Single(module.modality());
        self.modules.push(module);
        self.sources.push(source);
        self
    }

    /// Appends a module whose workload is the concatenation of all modality
    /// tokens (typically the LLM backbone of a VLM).
    pub fn module_over_all_tokens(mut self, module: ModalityModule) -> Self {
        self.modules.push(module);
        self.sources.push(WorkloadSource::AllTokens);
        self
    }

    /// Finalises the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptySpec`] if no modules were added and
    /// [`ModelError::MultipleBackbones`] if more than one backbone was added.
    pub fn build(self) -> Result<LmmSpec, ModelError> {
        if self.modules.is_empty() {
            return Err(ModelError::EmptySpec);
        }
        let backbones = self
            .modules
            .iter()
            .filter(|m| m.role() == ModuleRole::Backbone)
            .count();
        if backbones > 1 {
            return Err(ModelError::MultipleBackbones);
        }
        Ok(LmmSpec {
            name: self.name,
            modules: self.modules,
            sources: self.sources,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerSpec, TransformerKind, TransformerLayer};

    fn layer(dim: usize, kind: TransformerKind) -> LayerSpec {
        LayerSpec::Transformer(TransformerLayer::new(dim, dim * 4, 16, 16, kind).unwrap())
    }

    fn tiny_vlm() -> LmmSpec {
        let vit = ModalityModule::new(
            "vit",
            Modality::Image,
            ModuleRole::Encoder,
            vec![layer(1024, TransformerKind::VitEncoder); 4],
        )
        .unwrap();
        let lm = ModalityModule::new(
            "lm",
            Modality::Text,
            ModuleRole::Backbone,
            vec![layer(2048, TransformerKind::CausalLm); 8],
        )
        .unwrap();
        LmmSpec::builder("tiny-vlm")
            .module(vit)
            .module_over_all_tokens(lm)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            LmmSpec::builder("empty").build().unwrap_err(),
            ModelError::EmptySpec
        );
        let bb = ModalityModule::new(
            "bb",
            Modality::Text,
            ModuleRole::Backbone,
            vec![layer(256, TransformerKind::CausalLm)],
        )
        .unwrap();
        let err = LmmSpec::builder("two")
            .module(bb.clone())
            .module(bb)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::MultipleBackbones);
    }

    #[test]
    fn backbone_sees_all_tokens() {
        let vlm = tiny_vlm();
        let batch = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(6000, 1))
            .with(Modality::Image, ModalityWorkload::new(2000, 10));
        let workloads = vlm.module_workloads(&batch);
        let (_, vit_wl) = workloads[0];
        let (_, lm_wl) = workloads[1];
        assert_eq!(vit_wl.tokens, 2000);
        assert_eq!(lm_wl.tokens, 8000);
    }

    #[test]
    fn lookup_by_name() {
        let vlm = tiny_vlm();
        assert!(vlm.module_by_name("vit").is_ok());
        assert!(matches!(
            vlm.module_by_name("nonexistent"),
            Err(ModelError::UnknownModule { .. })
        ));
    }

    #[test]
    fn backbone_and_encoders_are_identified() {
        let vlm = tiny_vlm();
        assert_eq!(vlm.backbone().unwrap().name(), "lm");
        assert_eq!(vlm.backbone_id(), Some(ModuleId(1)));
        assert_eq!(vlm.encoders().count(), 1);
        assert_eq!(vlm.decoders().count(), 0);
    }

    #[test]
    fn model_flops_increase_with_images() {
        let vlm = tiny_vlm();
        let few = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(8000, 1))
            .with(Modality::Image, ModalityWorkload::new(169, 1));
        let many = BatchWorkload::new()
            .with(Modality::Text, ModalityWorkload::new(8000, 1))
            .with(Modality::Image, ModalityWorkload::new(169 * 40, 40));
        assert!(vlm.model_flops(&many) > vlm.model_flops(&few));
    }
}
