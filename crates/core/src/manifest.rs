//! Deployment manifest: a platform-agnostic description of a hybrid CNN.
//!
//! The paper's future work calls for "extensions to the ONNX standard to
//! facilitate the platform-agnostic description of hybrid-CNNs" so that a
//! lightweight, certifiable workflow can carry the reliability contract
//! alongside the model. This module provides that artefact in JSON: the
//! architecture summary, the reliable partition and its redundancy
//! policy, the qualifier thresholds, and the quantified guarantee — the
//! exact set of numbers a safety assessor needs to reconstruct the
//! system's claims.

use crate::error::HybridError;
use crate::guarantee::{conv_layer_guarantee, LayerGuarantee};
use crate::hybrid::{HybridCnn, QualificationMode};
use relcnn_relexec::conv::ConvPlan;
use relcnn_relexec::RedundancyMode;
use relcnn_tensor::conv::ConvGeometry;
use serde::{Deserialize, Serialize};

/// One layer of the architecture summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerEntry {
    /// Layer index.
    pub index: usize,
    /// Layer kind name.
    pub kind: String,
    /// Whether the layer belongs to the reliable (DCNN) partition.
    pub reliable: bool,
}

/// The reliability contract of the reliable partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityContract {
    /// Redundancy mode of the qualified operations.
    pub redundancy: RedundancyMode,
    /// Leaky-bucket factor (Algorithm 3).
    pub bucket_factor: u32,
    /// Leaky-bucket ceiling (Algorithm 3).
    pub bucket_ceiling: u32,
    /// Per-operation retry budget.
    pub max_retries: u32,
    /// The quantified guarantee for the reliable partition (conv-1, and
    /// its ReLU when the partition extends through it) at the declared
    /// reference BER.
    pub conv1_guarantee: LayerGuarantee,
    /// The BER the guarantee is quoted at.
    pub reference_ber: f64,
}

/// The qualifier's certification-relevant constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualifierContract {
    /// Evidence source (Figure 1 parallel vs Figure 2 hybrid).
    pub mode: QualificationMode,
    /// Ray count of the radial signature.
    pub angles: usize,
    /// SAX segments / alphabet.
    pub sax_segments: usize,
    /// SAX alphabet size.
    pub sax_alphabet: usize,
    /// MINDIST acceptance threshold.
    pub max_mindist: f64,
    /// Reference octagon SAX word (the a-priori bound of the surrogate
    /// function, §III-B).
    pub reference_octagon_word: String,
}

/// The complete deployment manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentManifest {
    /// Manifest format version.
    pub format: String,
    /// Input geometry `[3, size, size]`.
    pub image_size: usize,
    /// Output classes with safety-criticality flags.
    pub classes: Vec<ClassEntry>,
    /// Architecture summary, in execution order.
    pub layers: Vec<LayerEntry>,
    /// The reliable partition's contract.
    pub reliability: ReliabilityContract,
    /// The qualifier's contract.
    pub qualifier: QualifierContract,
}

/// One class of the manifest's catalogue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassEntry {
    /// Dense class index.
    pub index: usize,
    /// Human-readable name (catalogue label or `class-N`).
    pub name: String,
    /// Whether results of this class require qualification.
    pub safety_critical: bool,
    /// Expected outline shape, when the class is qualifiable.
    pub expected_shape: Option<String>,
}

/// Manifest format identifier.
pub const MANIFEST_FORMAT: &str = "relcnn-hybrid-manifest-v1";

impl HybridCnn {
    /// Produces the deployment manifest for this network at the given
    /// reference bit error rate.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::BadConfig`] if the network's conv-1
    /// geometry cannot be reconstructed (cannot occur for networks built
    /// by this crate).
    pub fn deployment_manifest(
        &self,
        reference_ber: f64,
    ) -> Result<DeploymentManifest, HybridError> {
        let config = self.config();
        let conv = self
            .network_ref()
            .conv2d_at(0)
            .ok_or_else(|| HybridError::BadConfig {
                reason: "manifest requires a conv-1 layer".into(),
            })?;
        let geom = ConvGeometry::new(
            config.image_size,
            config.image_size,
            conv.kernel_size(),
            conv.kernel_size(),
            conv.stride(),
            conv.padding(),
        )?;
        // `classify` runs conv-1 with the layer's bias, and the ReLU stage
        // when the partition extends through it.
        let (in_c, out_c) = (conv.in_channels(), conv.out_channels());
        let plan = ConvPlan::new(&geom, in_c, out_c, true, config.reliable_relu);
        let conv1_guarantee =
            conv_layer_guarantee(&plan, config.redundancy, reference_ber, config.conv.retry);
        let layers = self
            .network_ref()
            .layer_names()
            .iter()
            .enumerate()
            .map(|(index, kind)| LayerEntry {
                index,
                kind: kind.to_string(),
                // The reliable partition is the conv-1 prefix.
                reliable: index == 0,
            })
            .collect();
        let classes = (0..config.num_classes)
            .map(|index| ClassEntry {
                index,
                name: relcnn_gtsrb::SignClass::from_index(index)
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| format!("class-{index}")),
                safety_critical: config.safety_critical.get(index).copied().unwrap_or(false),
                expected_shape: config
                    .class_shapes
                    .get(index)
                    .copied()
                    .flatten()
                    .map(|s| s.to_string()),
            })
            .collect();
        let qualifier = QualifierContract {
            mode: config.qualification,
            angles: config.qualifier.angles,
            sax_segments: config.qualifier.sax.segments(),
            sax_alphabet: config.qualifier.sax.alphabet(),
            max_mindist: config.qualifier.max_mindist,
            reference_octagon_word: self.qualifier().reference_word(8)?.to_string(),
        };
        Ok(DeploymentManifest {
            format: MANIFEST_FORMAT.to_string(),
            image_size: config.image_size,
            classes,
            layers,
            reliability: ReliabilityContract {
                redundancy: config.redundancy,
                bucket_factor: config.conv.bucket.factor,
                bucket_ceiling: config.conv.bucket.ceiling,
                max_retries: config.conv.retry.max_retries,
                conv1_guarantee,
                reference_ber,
            },
            qualifier,
        })
    }
}

impl DeploymentManifest {
    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest is always serialisable")
    }

    /// Parses a manifest from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::BadConfig`] for malformed JSON or a foreign
    /// format tag.
    pub fn from_json(json: &str) -> Result<DeploymentManifest, HybridError> {
        let manifest: DeploymentManifest =
            serde_json::from_str(json).map_err(|e| HybridError::BadConfig {
                reason: format!("manifest parse: {e}"),
            })?;
        if manifest.format != MANIFEST_FORMAT {
            return Err(HybridError::BadConfig {
                reason: format!("unknown manifest format {:?}", manifest.format),
            });
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::HybridConfig;

    #[test]
    fn manifest_roundtrip_and_contents() {
        let hybrid = HybridCnn::untrained(&HybridConfig::tiny(1)).unwrap();
        let manifest = hybrid.deployment_manifest(1e-9).unwrap();
        assert_eq!(manifest.format, MANIFEST_FORMAT);
        assert_eq!(manifest.classes.len(), 8);
        assert!(manifest.classes[0].safety_critical, "stop is critical");
        assert_eq!(
            manifest.classes[0].expected_shape.as_deref(),
            Some("octagon")
        );
        assert!(!manifest.layers.is_empty());
        assert!(manifest.layers[0].reliable);
        assert!(manifest.layers[1..].iter().all(|l| !l.reliable));
        assert!(manifest.reliability.conv1_guarantee.silent_bound < 1e-6);
        assert!(!manifest.qualifier.reference_octagon_word.is_empty());

        let json = manifest.to_json();
        let back = DeploymentManifest::from_json(&json).unwrap();
        assert_eq!(manifest, back);
    }

    #[test]
    fn manifest_rejects_foreign_format() {
        let hybrid = HybridCnn::untrained(&HybridConfig::tiny(2)).unwrap();
        let mut manifest = hybrid.deployment_manifest(1e-9).unwrap();
        manifest.format = "something-else".into();
        let json = serde_json::to_string(&manifest).unwrap();
        assert!(DeploymentManifest::from_json(&json).is_err());
        assert!(DeploymentManifest::from_json("not json").is_err());
    }

    #[test]
    fn guarantee_scales_with_redundancy() {
        let mut config = HybridConfig::tiny(3);
        config.redundancy = relcnn_relexec::RedundancyMode::Plain;
        let plain = HybridCnn::untrained(&config)
            .unwrap()
            .deployment_manifest(1e-7)
            .unwrap();
        let mut config = HybridConfig::tiny(3);
        config.redundancy = relcnn_relexec::RedundancyMode::Dmr;
        let dmr = HybridCnn::untrained(&config)
            .unwrap()
            .deployment_manifest(1e-7)
            .unwrap();
        assert!(
            plain.reliability.conv1_guarantee.silent_bound
                > 1e3 * dmr.reliability.conv1_guarantee.silent_bound
        );
    }
}
