//! The fleet calibration artifact: persistent, versioned ECM parameters.
//!
//! [`crate::calibration`] can *fit* efficiency factors and cost models, but a
//! fit that lives only inside one process is re-derived everywhere and drifts
//! silently. This module makes calibration a **fleet artifact** — a small,
//! schema-versioned JSON document (produced by the `dip-calibrate` binary,
//! committed next to `BENCH_baseline.json`) that any planner process loads at
//! startup:
//!
//! * [`EcmDeviceParams`] — per-device-kind ECM parameters: peak FLOP/s,
//!   sustained memory bandwidth (B/s) and per-link injection bandwidths
//!   (B/s), keyed by [`crate::GpuSpec::device_key`];
//! * [`CalibrationArtifact`] — the document: a set of device entries, the
//!   fleet-wide fixed link latencies (s), and the fitted planner
//!   [`CostModel`]s (per-evaluation and per-ILP-node virtual clock rates);
//! * [`CalibrationRegistry`] — an ordered collection of artifacts resolved
//!   against a [`ClusterTopology`] through the documented fallback chain;
//! * [`ResolvedCalibration`] — the outcome: rewrites a topology's device
//!   timing parameters ([`ResolvedCalibration::apply`]) and supplies the
//!   planner's latency constants and cost models.
//!
//! # Fallback chain
//!
//! [`CalibrationRegistry::resolve`] walks three tiers, most specific first:
//!
//! 1. **Exact fingerprint** — an artifact whose `topology_fingerprint`
//!    equals [`ClusterTopology::fingerprint`] of the cluster being planned
//!    for. This is a measurement of *this very fleet*.
//! 2. **Device-kind defaults** — the first fleet-agnostic artifact
//!    (`topology_fingerprint` absent) carrying parameters for at least one
//!    device kind present in the topology. Entries match by
//!    [`crate::GpuSpec::device_key`]; unmatched device kinds keep their
//!    spec-sheet numbers.
//! 3. **Built-in constants** — [`CalibrationArtifact::builtin_defaults`],
//!    which encodes exactly the H800/H20/H100 preset values and the
//!    reference cost models. Resolving through this tier is bit-identical
//!    to not calibrating at all (proptest-enforced in
//!    `tests/calibration_artifact.rs`).
//!
//! # Units
//!
//! All throughputs are raw spec-level ceilings — FLOP/s and B/s **before**
//! the [`crate::EfficiencyModel`] α factors are applied — so a calibrated
//! artifact composes with any efficiency model exactly like the presets do.
//! All latencies are in seconds.

use crate::calibration::CostModel;
use crate::efficiency::EfficiencyModel;
use crate::hardware::{GpuGeneration, GpuSpec};
use crate::topology::{ClusterTopology, NodeSpec};
use dip_models::json::{self, JsonValue};

/// Current schema version of the calibration artifact JSON. Readers reject
/// any other version ([`ArtifactError::SchemaVersion`]) instead of guessing.
pub const CALIBRATION_SCHEMA_VERSION: u32 = 1;

/// ECM parameters of one device kind: the separately saturating resource
/// ceilings the roofline prices against. Throughputs are raw (pre-α)
/// ceilings in FLOP/s and B/s; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct EcmDeviceParams {
    /// Human-readable device name ("H800", "H20", ...); informational only.
    pub label: String,
    /// The [`GpuSpec::device_key`] this entry applies to.
    pub device_key: u64,
    /// Peak dense bf16 compute in FLOP/s (`F` in the ECM formula).
    pub peak_flops: f64,
    /// Sustained HBM bandwidth in B/s (`B_mem`).
    pub mem_bandwidth: f64,
    /// Intra-node (NVLink) injection bandwidth in B/s per GPU.
    pub nvlink_bandwidth: f64,
    /// Inter-node network injection bandwidth in B/s per GPU.
    pub net_bandwidth: f64,
}

impl EcmDeviceParams {
    /// Parameters reproducing `spec`'s own timing fields, keyed by its
    /// device key — the identity calibration for that device kind.
    pub fn from_spec(label: &str, spec: &GpuSpec) -> Self {
        Self {
            label: label.to_string(),
            device_key: spec.device_key(),
            peak_flops: spec.peak_flops,
            mem_bandwidth: spec.mem_bandwidth,
            nvlink_bandwidth: spec.nvlink_bandwidth,
            net_bandwidth: spec.net_bandwidth,
        }
    }

    /// Rewrites the timing fields of `spec` from these parameters. Memory
    /// *capacity* is not a timing resource and is kept from the spec.
    pub fn apply_to(&self, spec: &GpuSpec) -> GpuSpec {
        GpuSpec {
            peak_flops: self.peak_flops,
            mem_bandwidth: self.mem_bandwidth,
            mem_capacity: spec.mem_capacity,
            nvlink_bandwidth: self.nvlink_bandwidth,
            net_bandwidth: self.net_bandwidth,
        }
    }
}

/// A versioned fleet calibration document. See the module docs for the
/// schema, the fallback chain and the unit conventions.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationArtifact {
    /// Schema version; must equal [`CALIBRATION_SCHEMA_VERSION`] to load.
    pub schema_version: u32,
    /// The [`ClusterTopology::fingerprint`] this artifact was measured on,
    /// or `None` for a fleet-agnostic device-kind default set.
    pub topology_fingerprint: Option<u64>,
    /// Per-device-kind ECM parameters.
    pub devices: Vec<EcmDeviceParams>,
    /// Fixed point-to-point link latency in seconds (cable + NIC + stack).
    pub link_latency_s: f64,
    /// Fixed base latency of a collective in seconds.
    pub collective_latency_s: f64,
    /// Fitted cost of one segment-ordering evaluation (the planner's
    /// virtual clock rate for search budgets).
    pub eval_cost: CostModel,
    /// Fitted cost of one branch-and-bound node of the memory ILP.
    pub ilp_node_cost: CostModel,
}

impl CalibrationArtifact {
    /// The built-in constants as an artifact: identity parameters for the
    /// H800, H20 and H100 presets, the default 15 µs / 50 µs latencies and
    /// the reference cost models. This is exactly what the committed
    /// `CALIBRATION_default.json` holds (a `bench_check` assertion keeps
    /// the two in sync), and planning through it is bit-identical to not
    /// calibrating at all.
    pub fn builtin_defaults() -> Self {
        let eff = EfficiencyModel::default();
        Self {
            schema_version: CALIBRATION_SCHEMA_VERSION,
            topology_fingerprint: None,
            devices: vec![
                EcmDeviceParams::from_spec("H800", &GpuSpec::preset(GpuGeneration::H800)),
                EcmDeviceParams::from_spec("H20", &GpuSpec::preset(GpuGeneration::H20)),
                EcmDeviceParams::from_spec("H100", &GpuSpec::preset(GpuGeneration::H100)),
            ],
            link_latency_s: eff.link_latency_s,
            collective_latency_s: eff.collective_latency_s,
            eval_cost: CostModel::REFERENCE_EVALUATION,
            ilp_node_cost: CostModel::REFERENCE_ILP_NODE,
        }
    }

    /// The built-in constants pinned to a specific fleet: like
    /// [`CalibrationArtifact::builtin_defaults`] but carrying `topology`'s
    /// fingerprint, so it resolves through the *exact* tier.
    pub fn builtin_for(topology: &ClusterTopology) -> Self {
        Self {
            topology_fingerprint: Some(topology.fingerprint()),
            ..Self::builtin_defaults()
        }
    }

    /// The entry for a device key, if any.
    pub fn device_for(&self, key: u64) -> Option<&EcmDeviceParams> {
        self.devices.iter().find(|d| d.device_key == key)
    }

    /// Whether this artifact carries parameters for at least one device
    /// kind present in `topology`.
    pub fn covers(&self, topology: &ClusterTopology) -> bool {
        topology
            .nodes()
            .iter()
            .any(|n| self.device_for(n.gpu.device_key()).is_some())
    }

    /// Serializes the artifact to its canonical JSON form. Numbers use
    /// shortest-round-trip formatting and 64-bit keys are hex strings, so
    /// `from_json(to_json(a)) == a` bit for bit.
    pub fn to_json(&self) -> String {
        let devices = self
            .devices
            .iter()
            .map(|d| {
                JsonValue::Object(vec![
                    ("label".into(), JsonValue::String(d.label.clone())),
                    ("device_key".into(), hex_u64(d.device_key)),
                    ("peak_flops".into(), JsonValue::Number(d.peak_flops)),
                    ("mem_bandwidth".into(), JsonValue::Number(d.mem_bandwidth)),
                    (
                        "nvlink_bandwidth".into(),
                        JsonValue::Number(d.nvlink_bandwidth),
                    ),
                    ("net_bandwidth".into(), JsonValue::Number(d.net_bandwidth)),
                ])
            })
            .collect();
        let root = JsonValue::Object(vec![
            ("schema".into(), JsonValue::String("dip-calibration".into())),
            (
                "schema_version".into(),
                JsonValue::Number(self.schema_version as f64),
            ),
            (
                "topology_fingerprint".into(),
                match self.topology_fingerprint {
                    Some(fp) => hex_u64(fp),
                    None => JsonValue::Null,
                },
            ),
            (
                "link_latency_s".into(),
                JsonValue::Number(self.link_latency_s),
            ),
            (
                "collective_latency_s".into(),
                JsonValue::Number(self.collective_latency_s),
            ),
            ("eval_cost".into(), cost_to_json(&self.eval_cost)),
            ("ilp_node_cost".into(), cost_to_json(&self.ilp_node_cost)),
            ("devices".into(), JsonValue::Array(devices)),
        ]);
        let mut out = root.to_json();
        out.push('\n');
        out
    }

    /// Parses an artifact from JSON, rejecting unknown schema versions and
    /// malformed documents.
    pub fn from_json(input: &str) -> Result<Self, ArtifactError> {
        let root = json::parse(input).map_err(|e| ArtifactError::Parse(e.to_string()))?;
        let version = field_f64(&root, "schema_version")? as u32;
        if version != CALIBRATION_SCHEMA_VERSION {
            return Err(ArtifactError::SchemaVersion {
                found: version,
                expected: CALIBRATION_SCHEMA_VERSION,
            });
        }
        let topology_fingerprint = match root.get("topology_fingerprint") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(parse_hex_u64(v, "topology_fingerprint")?),
        };
        let mut devices = Vec::new();
        let list = root
            .get("devices")
            .and_then(JsonValue::as_array)
            .ok_or(ArtifactError::MissingField("devices"))?;
        for entry in list {
            devices.push(EcmDeviceParams {
                label: entry
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or(ArtifactError::MissingField("devices[].label"))?
                    .to_string(),
                device_key: parse_hex_u64(
                    entry
                        .get("device_key")
                        .ok_or(ArtifactError::MissingField("devices[].device_key"))?,
                    "devices[].device_key",
                )?,
                peak_flops: field_f64(entry, "peak_flops")?,
                mem_bandwidth: field_f64(entry, "mem_bandwidth")?,
                nvlink_bandwidth: field_f64(entry, "nvlink_bandwidth")?,
                net_bandwidth: field_f64(entry, "net_bandwidth")?,
            });
        }
        Ok(Self {
            schema_version: version,
            topology_fingerprint,
            devices,
            link_latency_s: field_f64(&root, "link_latency_s")?,
            collective_latency_s: field_f64(&root, "collective_latency_s")?,
            eval_cost: cost_from_json(&root, "eval_cost")?,
            ilp_node_cost: cost_from_json(&root, "ilp_node_cost")?,
        })
    }
}

fn hex_u64(value: u64) -> JsonValue {
    JsonValue::String(format!("0x{value:016x}"))
}

fn cost_to_json(cost: &CostModel) -> JsonValue {
    JsonValue::Object(vec![
        ("base_s".into(), JsonValue::Number(cost.base_s)),
        ("per_unit_s".into(), JsonValue::Number(cost.per_unit_s)),
    ])
}

fn cost_from_json(parent: &JsonValue, key: &'static str) -> Result<CostModel, ArtifactError> {
    let obj = parent.get(key).ok_or(ArtifactError::MissingField(key))?;
    Ok(CostModel {
        base_s: field_f64(obj, "base_s")?,
        per_unit_s: field_f64(obj, "per_unit_s")?,
    })
}

fn field_f64(obj: &JsonValue, key: &'static str) -> Result<f64, ArtifactError> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or(ArtifactError::MissingField(key))
}

fn parse_hex_u64(value: &JsonValue, field: &'static str) -> Result<u64, ArtifactError> {
    let s = value.as_str().ok_or(ArtifactError::MissingField(field))?;
    let hex = s
        .strip_prefix("0x")
        .ok_or(ArtifactError::MissingField(field))?;
    u64::from_str_radix(hex, 16).map_err(|_| ArtifactError::MissingField(field))
}

/// Errors loading a [`CalibrationArtifact`] from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The document is not valid JSON.
    Parse(String),
    /// The document declares a schema version this reader does not speak.
    SchemaVersion {
        /// Version found in the document.
        found: u32,
        /// Version this reader requires.
        expected: u32,
    },
    /// A required field is absent or of the wrong type.
    MissingField(&'static str),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Parse(e) => write!(f, "calibration artifact is not valid JSON: {e}"),
            ArtifactError::SchemaVersion { found, expected } => write!(
                f,
                "calibration artifact schema version {found} unsupported (expected {expected})"
            ),
            ArtifactError::MissingField(name) => {
                write!(
                    f,
                    "calibration artifact field `{name}` missing or malformed"
                )
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Which tier of the fallback chain a resolution came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationSource {
    /// An artifact measured on this exact fleet (fingerprint match).
    Exact,
    /// A fleet-agnostic artifact matched by device kind.
    DeviceKind,
    /// No artifact applied; built-in constants.
    BuiltIn,
}

impl std::fmt::Display for CalibrationSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationSource::Exact => write!(f, "exact-fingerprint artifact"),
            CalibrationSource::DeviceKind => write!(f, "device-kind artifact"),
            CalibrationSource::BuiltIn => write!(f, "built-in constants"),
        }
    }
}

/// An ordered set of calibration artifacts the planner consults, most
/// specific first within each tier (earlier artifacts win ties).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationRegistry {
    artifacts: Vec<CalibrationArtifact>,
}

impl CalibrationRegistry {
    /// A registry over the given artifacts.
    pub fn new(artifacts: Vec<CalibrationArtifact>) -> Self {
        Self { artifacts }
    }

    /// A registry holding a single artifact.
    pub fn from_artifact(artifact: CalibrationArtifact) -> Self {
        Self::new(vec![artifact])
    }

    /// The artifacts, in consultation order.
    pub fn artifacts(&self) -> &[CalibrationArtifact] {
        &self.artifacts
    }

    /// Resolves the registry against a topology through the fallback chain
    /// (module docs): exact fingerprint → device-kind defaults → built-in
    /// constants. Never fails; the last tier always applies.
    pub fn resolve(&self, topology: &ClusterTopology) -> ResolvedCalibration {
        let fp = topology.fingerprint();
        if let Some(a) = self
            .artifacts
            .iter()
            .find(|a| a.topology_fingerprint == Some(fp))
        {
            return ResolvedCalibration::from_artifact(a, CalibrationSource::Exact);
        }
        if let Some(a) = self
            .artifacts
            .iter()
            .find(|a| a.topology_fingerprint.is_none() && a.covers(topology))
        {
            return ResolvedCalibration::from_artifact(a, CalibrationSource::DeviceKind);
        }
        ResolvedCalibration::builtin()
    }
}

/// The outcome of resolving a registry against a topology: everything the
/// planner rewires before planning starts.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCalibration {
    /// Which fallback tier supplied the parameters.
    pub source: CalibrationSource,
    /// Device entries used by [`ResolvedCalibration::apply`].
    pub devices: Vec<EcmDeviceParams>,
    /// Fixed point-to-point link latency (s) for the efficiency model.
    pub link_latency_s: f64,
    /// Fixed collective base latency (s) for the efficiency model.
    pub collective_latency_s: f64,
    /// Virtual clock rate for ordering-search budgets.
    pub eval_cost: CostModel,
    /// Virtual clock rate for memory-ILP budgets.
    pub ilp_node_cost: CostModel,
}

impl ResolvedCalibration {
    fn from_artifact(artifact: &CalibrationArtifact, source: CalibrationSource) -> Self {
        Self {
            source,
            devices: artifact.devices.clone(),
            link_latency_s: artifact.link_latency_s,
            collective_latency_s: artifact.collective_latency_s,
            eval_cost: artifact.eval_cost,
            ilp_node_cost: artifact.ilp_node_cost,
        }
    }

    /// The built-in tier: identical to resolving an empty registry.
    pub fn builtin() -> Self {
        Self::from_artifact(
            &CalibrationArtifact::builtin_defaults(),
            CalibrationSource::BuiltIn,
        )
    }

    /// Rewrites every node's device timing parameters from the calibrated
    /// entries, matching by [`GpuSpec::device_key`]. Device kinds without
    /// an entry — and memory capacity, which is not a timing resource —
    /// are left untouched. An artifact encoding a device's own spec values
    /// returns a byte-identical topology, which is what makes the built-in
    /// tier bit-identical to the uncalibrated path.
    pub fn apply(&self, topology: &ClusterTopology) -> ClusterTopology {
        ClusterTopology::new(
            topology
                .nodes()
                .iter()
                .map(|node| {
                    let gpu = match self
                        .devices
                        .iter()
                        .find(|d| d.device_key == node.gpu.device_key())
                    {
                        Some(params) => params.apply_to(&node.gpu),
                        None => node.gpu,
                    };
                    NodeSpec {
                        gpu,
                        gpus: node.gpus,
                        cpu_cores: node.cpu_cores,
                    }
                })
                .collect(),
        )
    }

    /// Installs the calibrated fixed latencies into an efficiency model
    /// (the companion of [`ResolvedCalibration::apply`] for the parameters
    /// that live on [`EfficiencyModel`] rather than on device specs).
    pub fn apply_latencies(&self, efficiency: &mut EfficiencyModel) {
        efficiency.link_latency_s = self.link_latency_s;
        efficiency.collective_latency_s = self.collective_latency_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::ClusterSpec;

    #[test]
    fn json_round_trip_is_bit_exact() {
        let mut artifact = CalibrationArtifact::builtin_defaults();
        artifact.topology_fingerprint = Some(ClusterTopology::mixed_h800_h20(1, 1).fingerprint());
        artifact.eval_cost = CostModel::new(55.5e-6, 1.25e-6);
        let text = artifact.to_json();
        let back = CalibrationArtifact::from_json(&text).expect("round trip");
        assert_eq!(back, artifact);
        // Bit-exact on every float, not just approximately equal.
        assert_eq!(
            back.devices[0].peak_flops.to_bits(),
            artifact.devices[0].peak_flops.to_bits()
        );
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let mut artifact = CalibrationArtifact::builtin_defaults();
        artifact.schema_version = CALIBRATION_SCHEMA_VERSION + 1;
        let err = CalibrationArtifact::from_json(&artifact.to_json()).unwrap_err();
        assert_eq!(
            err,
            ArtifactError::SchemaVersion {
                found: CALIBRATION_SCHEMA_VERSION + 1,
                expected: CALIBRATION_SCHEMA_VERSION,
            }
        );
        assert!(CalibrationArtifact::from_json("not json").is_err());
        assert!(matches!(
            CalibrationArtifact::from_json("{}"),
            Err(ArtifactError::MissingField("schema_version"))
        ));
    }

    #[test]
    fn builtin_defaults_cover_every_preset() {
        let artifact = CalibrationArtifact::builtin_defaults();
        for generation in [GpuGeneration::H800, GpuGeneration::H20, GpuGeneration::H100] {
            let spec = GpuSpec::preset(generation);
            let entry = artifact
                .device_for(spec.device_key())
                .unwrap_or_else(|| panic!("missing entry for {generation:?}"));
            assert_eq!(entry.apply_to(&spec), spec);
        }
    }

    #[test]
    fn fallback_chain_resolves_most_specific_first() {
        let topo = ClusterTopology::uniform(&ClusterSpec::h800_cluster(2));
        let other = ClusterTopology::uniform(&ClusterSpec::h20_cluster(2));

        // Empty registry → built-in tier.
        let empty = CalibrationRegistry::default();
        assert_eq!(empty.resolve(&topo).source, CalibrationSource::BuiltIn);

        // A device-kind artifact covering H800 matches topo, not via exact.
        let kind_artifact = CalibrationArtifact::builtin_defaults();
        let registry = CalibrationRegistry::from_artifact(kind_artifact.clone());
        assert_eq!(
            registry.resolve(&topo).source,
            CalibrationSource::DeviceKind
        );

        // An exact artifact for `topo` outranks the device-kind one even
        // when listed after it.
        let exact = CalibrationArtifact::builtin_for(&topo);
        let registry = CalibrationRegistry::new(vec![kind_artifact.clone(), exact]);
        assert_eq!(registry.resolve(&topo).source, CalibrationSource::Exact);
        // … but only for that topology; `other` still matches by kind.
        assert_eq!(
            registry.resolve(&other).source,
            CalibrationSource::DeviceKind
        );

        // An artifact covering no device kind of the topology is skipped.
        let mut foreign = CalibrationArtifact::builtin_defaults();
        foreign.devices.clear();
        let registry = CalibrationRegistry::from_artifact(foreign);
        assert_eq!(registry.resolve(&topo).source, CalibrationSource::BuiltIn);
    }

    #[test]
    fn constants_artifact_applies_as_identity() {
        let topo = ClusterTopology::mixed_h800_h20(2, 1);
        let resolved = CalibrationRegistry::from_artifact(CalibrationArtifact::builtin_for(&topo))
            .resolve(&topo);
        let rewritten = resolved.apply(&topo);
        assert_eq!(rewritten, topo);
        assert_eq!(rewritten.fingerprint(), topo.fingerprint());
        let mut eff = EfficiencyModel::default();
        let before = eff;
        resolved.apply_latencies(&mut eff);
        assert_eq!(eff, before);
    }

    #[test]
    fn measured_artifact_rewrites_timing_but_not_capacity() {
        let topo = ClusterTopology::uniform(&ClusterSpec::h800_cluster(1));
        let mut artifact = CalibrationArtifact::builtin_for(&topo);
        let h800_key = GpuSpec::preset(GpuGeneration::H800).device_key();
        let entry = artifact
            .devices
            .iter_mut()
            .find(|d| d.device_key == h800_key)
            .unwrap();
        entry.peak_flops *= 0.5;
        entry.mem_bandwidth *= 0.9;
        artifact.link_latency_s = 22e-6;
        let resolved = CalibrationRegistry::from_artifact(artifact).resolve(&topo);
        assert_eq!(resolved.source, CalibrationSource::Exact);
        let rewritten = resolved.apply(&topo);
        let gpu = rewritten.nodes()[0].gpu;
        let original = topo.nodes()[0].gpu;
        assert_eq!(gpu.peak_flops, original.peak_flops * 0.5);
        assert_eq!(gpu.mem_capacity, original.mem_capacity);
        assert_ne!(rewritten.fingerprint(), topo.fingerprint());
        let mut eff = EfficiencyModel::default();
        resolved.apply_latencies(&mut eff);
        assert_eq!(eff.link_latency_s, 22e-6);
    }
}
