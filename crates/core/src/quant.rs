//! Int8 quantized inference: trunk-weight quantization tables, the snapshot
//! `quant` section payload, and the [`QuantInferencer`] / [`Scorer`] types
//! the serving stack runs behind `--quant`.
//!
//! ## What gets quantized
//!
//! The MFLM trunk — the per-feature channel/trend GRU matrices, the
//! feature-interaction projections, the fusion, aggregation, and prediction
//! head weights. These are every hot `x · W` product in the serving forward
//! pass. The BiEL embedding (two rank-1 products per feature), all biases,
//! and the cohort-exploitation path (small, and the source of the paper's
//! interpretability numbers) stay f32.
//!
//! ## Scheme and reproducibility
//!
//! Weights use `int8-perchan-v1` (see [`cohortnet_tensor::quant`]): one
//! `absmax/127` scale per output channel, computed **at snapshot save** and
//! stored in the optional `#section quant` payload. Quantization is a pure
//! function of the f32 weights, so `save → load → save` stays byte-identical
//! and a fixed snapshot scores bit-identically on every SIMD backend and
//! thread count (integer accumulation is exact). What the quantized path
//! gives up is bit-identity *with the f32 path* — accuracy drift is bounded
//! by the AUC/PR-AUC contract tests instead.
//!
//! A snapshot whose quant section carries an unknown scheme (written by a
//! newer build) is not an error: the loader keeps the f32 weights, logs a
//! warning, and serving falls back to the f32 path.

use crate::infer::{Inferencer, ScoreOutput, ScoreRequest};
use crate::model::CohortNetModel;
use cohortnet_tensor::quant::QuantMatrix;
use cohortnet_tensor::ParamStore;
use std::fmt::Write as _;

/// The quantization scheme this build writes and understands.
pub const QUANT_SCHEME: &str = "int8-perchan-v1";

/// An ordered collection of quantized trunk weights, keyed by the stable
/// tensor names of [`crate::mflm::Mflm::quant_trunk`] — the one enumeration
/// both snapshot save and [`Inferencer`] compilation use, so the names in a
/// stored table always line up with the weights the forward pass reads.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTable {
    entries: Vec<(String, QuantMatrix)>,
}

/// Typed failures while parsing a `quant` section payload.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantParseError {
    /// The scheme line names a quantization this build does not implement —
    /// callers should fall back to the f32 path, not fail the load.
    UnsupportedScheme(String),
    /// The payload is structurally broken (1-based line within the section).
    Malformed {
        /// Line number within the section payload.
        line: usize,
        /// What was wrong.
        why: String,
    },
}

impl std::fmt::Display for QuantParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantParseError::UnsupportedScheme(s) => {
                write!(
                    f,
                    "unsupported quantization scheme {s:?} (this build speaks {QUANT_SCHEME:?})"
                )
            }
            QuantParseError::Malformed { line, why } => {
                write!(f, "malformed quant section at line {line}: {why}")
            }
        }
    }
}

impl std::error::Error for QuantParseError {}

impl QuantTable {
    /// Quantizes every trunk tensor of `model` at `absmax/127` per output
    /// channel. Pure function of the weights — called at snapshot save, and
    /// again by [`crate::snapshot::LoadedModel::quant_inferencer`] when a
    /// snapshot predates the quant section.
    pub fn build(model: &CohortNetModel, ps: &ParamStore) -> QuantTable {
        QuantTable {
            entries: model
                .mflm
                .quant_trunk()
                .into_iter()
                .map(|(name, id)| (name, QuantMatrix::quantize(ps.value(id))))
                .collect(),
        }
    }

    /// Looks a tensor up by its stable name.
    pub fn get(&self, name: &str) -> Option<&QuantMatrix> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, q)| q)
    }

    /// Number of quantized tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialises the table as a snapshot section payload:
    ///
    /// ```text
    /// scheme\tint8-perchan-v1
    /// tensor\t<name>\t<k>\t<n>
    /// scales\t<n f32 values>
    /// data\t<k*n i8 values, channel-contiguous>
    /// ```
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "scheme\t{QUANT_SCHEME}");
        for (name, q) in &self.entries {
            let _ = writeln!(s, "tensor\t{name}\t{}\t{}", q.k(), q.n());
            s.push_str("scales");
            for v in q.scales() {
                let _ = write!(s, "\t{v}");
            }
            s.push('\n');
            s.push_str("data");
            for v in q.data() {
                let _ = write!(s, "\t{v}");
            }
            s.push('\n');
        }
        s
    }

    /// Parses a section payload written by [`QuantTable::to_text`]. An
    /// unknown scheme returns [`QuantParseError::UnsupportedScheme`] so the
    /// caller can fall back to f32; anything structurally broken is
    /// [`QuantParseError::Malformed`].
    pub fn from_text(text: &str) -> Result<QuantTable, QuantParseError> {
        let mut lines = text.lines().enumerate().peekable();
        let scheme = match lines.next() {
            Some((_, l)) => l
                .strip_prefix("scheme\t")
                .ok_or(QuantParseError::Malformed {
                    line: 1,
                    why: "expected a scheme line".into(),
                })?,
            None => {
                return Err(QuantParseError::Malformed {
                    line: 1,
                    why: "empty quant section".into(),
                })
            }
        };
        if scheme != QUANT_SCHEME {
            return Err(QuantParseError::UnsupportedScheme(scheme.to_string()));
        }
        let mut entries = Vec::new();
        while let Some((idx, line)) = lines.next() {
            let n_line = idx + 1;
            let bad = |why: String| QuantParseError::Malformed { line: n_line, why };
            let mut parts = line.split('\t');
            if parts.next() != Some("tensor") {
                return Err(bad(format!("expected a tensor line, got {line:?}")));
            }
            let name = parts
                .next()
                .ok_or_else(|| bad("tensor line has no name".into()))?
                .to_string();
            let k: usize = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(format!("tensor {name:?} has a bad k")))?;
            let n: usize = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(format!("tensor {name:?} has a bad n")))?;
            let (s_idx, s_line) = lines
                .next()
                .ok_or_else(|| bad(format!("tensor {name:?} is missing its scales line")))?;
            let scales: Vec<f32> = s_line
                .strip_prefix("scales")
                .ok_or(QuantParseError::Malformed {
                    line: s_idx + 1,
                    why: format!("tensor {name:?}: expected a scales line"),
                })?
                .split('\t')
                .skip(1)
                .map(|v| v.parse::<f32>())
                .collect::<Result<_, _>>()
                .map_err(|_| QuantParseError::Malformed {
                    line: s_idx + 1,
                    why: format!("tensor {name:?} has a non-numeric scale"),
                })?;
            let (d_idx, d_line) = lines
                .next()
                .ok_or_else(|| bad(format!("tensor {name:?} is missing its data line")))?;
            let data: Vec<i8> = d_line
                .strip_prefix("data")
                .ok_or(QuantParseError::Malformed {
                    line: d_idx + 1,
                    why: format!("tensor {name:?}: expected a data line"),
                })?
                .split('\t')
                .skip(1)
                .map(|v| v.parse::<i8>())
                .collect::<Result<_, _>>()
                .map_err(|_| QuantParseError::Malformed {
                    line: d_idx + 1,
                    why: format!("tensor {name:?} has a non-i8 weight"),
                })?;
            if !scales.iter().all(|s| s.is_finite()) {
                return Err(QuantParseError::Malformed {
                    line: s_idx + 1,
                    why: format!("tensor {name:?} has a non-finite scale"),
                });
            }
            if scales.len() != n || data.len() != k * n {
                return Err(bad(format!(
                    "tensor {name:?}: shape {k}x{n} disagrees with {} scales / {} weights",
                    scales.len(),
                    data.len()
                )));
            }
            entries.push((name, QuantMatrix::from_parts(k, n, data, scales)));
        }
        Ok(QuantTable { entries })
    }
}

/// An [`Inferencer`] whose MFLM trunk runs the int8 kernels. Scores are
/// bit-reproducible for a fixed snapshot (every SIMD backend and thread
/// count agrees), and close — not bit-equal — to the f32 path; the accuracy
/// contract tests bound the AUC/PR-AUC drift.
#[derive(Debug, Clone)]
pub struct QuantInferencer {
    inner: Inferencer,
}

impl QuantInferencer {
    /// Compiles `model` with the trunk weights taken from `table`.
    pub fn compile(
        model: &CohortNetModel,
        ps: &ParamStore,
        time_steps: usize,
        table: &QuantTable,
    ) -> QuantInferencer {
        QuantInferencer {
            inner: Inferencer::compile_with_table(model, ps, time_steps, table),
        }
    }

    /// The underlying inferencer (quantized trunk) — shares the full
    /// [`Inferencer`] scoring/metadata API.
    pub fn as_inferencer(&self) -> &Inferencer {
        &self.inner
    }

    /// See [`Inferencer::score_requests`].
    pub fn score_requests(&self, reqs: &[ScoreRequest]) -> ScoreOutput {
        self.inner.score_requests(reqs)
    }

    /// See [`Inferencer::score_requests_parallel`].
    pub fn score_requests_parallel(&self, reqs: &[ScoreRequest], n_threads: usize) -> ScoreOutput {
        self.inner.score_requests_parallel(reqs, n_threads)
    }
}

/// The scoring engine's model handle: the f32 path or the quantized path,
/// behind one API so the serving stack is precision-agnostic.
#[derive(Debug, Clone)]
pub enum Scorer {
    /// Bit-identical-to-training f32 inference.
    F32(Inferencer),
    /// Int8 trunk inference (snapshot-anchored reproducibility).
    Quant(QuantInferencer),
}

impl Scorer {
    /// The underlying inferencer, whichever precision it carries.
    pub fn inferencer(&self) -> &Inferencer {
        match self {
            Scorer::F32(inf) => inf,
            Scorer::Quant(q) => q.as_inferencer(),
        }
    }

    /// Whether this scorer runs the int8 trunk.
    pub fn quantized(&self) -> bool {
        matches!(self, Scorer::Quant(_))
    }

    /// See [`Inferencer::score_requests_parallel`].
    pub fn score_requests_parallel(&self, reqs: &[ScoreRequest], n_threads: usize) -> ScoreOutput {
        self.inferencer().score_requests_parallel(reqs, n_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CohortNetConfig;
    use crate::train::train_without_cohorts;
    use cohortnet_ehr::standardize::Standardizer;
    use cohortnet_ehr::synth::generate;
    use cohortnet_ehr::{profiles, split::split_80_10_10};
    use cohortnet_models::data::prepare;

    fn tiny_model() -> (crate::train::TrainedCohortNet, usize) {
        let mut profile = profiles::mimic3_like(0.1);
        profile.n_patients = 24;
        profile.time_steps = 3;
        let ds = generate(&profile);
        let split = split_80_10_10(&ds, 3);
        let mut train = ds.subset(&split.train);
        let scaler = Standardizer::fit(&train);
        scaler.apply(&mut train);
        let mut cfg = CohortNetConfig::for_dataset(&train, &scaler);
        cfg.epochs_pretrain = 1;
        cfg.epochs_exploit = 0;
        cfg.verbose = false;
        let prepared = prepare(&train);
        let t = prepared.time_steps;
        (train_without_cohorts(&prepared, &cfg), t)
    }

    #[test]
    fn table_text_round_trips_exactly() {
        let (trained, _t) = tiny_model();
        let table = QuantTable::build(&trained.model, &trained.params);
        assert!(!table.is_empty());
        let text = table.to_text();
        let back = QuantTable::from_text(&text).expect("parse back");
        assert_eq!(table, back);
        assert_eq!(
            back.to_text(),
            text,
            "serialise → parse → serialise drifted"
        );
    }

    #[test]
    fn unknown_scheme_is_typed_not_fatal() {
        let err = QuantTable::from_text("scheme\tint8-perchan-v99\n").unwrap_err();
        assert_eq!(
            err,
            QuantParseError::UnsupportedScheme("int8-perchan-v99".into())
        );
    }

    #[test]
    fn truncated_table_is_malformed() {
        let text = format!("scheme\t{QUANT_SCHEME}\ntensor\tx\t2\t2\n");
        assert!(matches!(
            QuantTable::from_text(&text).unwrap_err(),
            QuantParseError::Malformed { .. }
        ));
    }

    #[test]
    fn non_finite_scale_is_malformed() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!(
                "scheme\t{QUANT_SCHEME}\ntensor\tx\t1\t2\nscales\t0.5\t{bad}\ndata\t1\t2\n"
            );
            match QuantTable::from_text(&text).unwrap_err() {
                QuantParseError::Malformed { line, why } => {
                    assert_eq!(line, 3, "{bad}");
                    assert!(why.contains("non-finite"), "{bad}: {why}");
                }
                other => panic!("{bad}: expected a malformed table, got {other:?}"),
            }
        }
    }

    #[test]
    fn quant_scores_are_reproducible_and_close_to_f32() {
        let (trained, t) = tiny_model();
        let table = QuantTable::build(&trained.model, &trained.params);
        let qinf = QuantInferencer::compile(&trained.model, &trained.params, t, &table);
        let f32_inf = Inferencer::compile(&trained.model, &trained.params, t);

        let nf = f32_inf.n_features();
        let reqs: Vec<ScoreRequest> = (0..6)
            .map(|r| ScoreRequest {
                x: (0..t * nf)
                    .map(|i| ((i + r * 13) as f32 * 0.29).sin())
                    .collect(),
                mask: vec![1.0; nf],
            })
            .collect();

        let q1 = qinf.score_requests(&reqs);
        let q2 = qinf.score_requests_parallel(&reqs, 4);
        for (a, b) in q1.logits.as_slice().iter().zip(q2.logits.as_slice()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "quant path not thread-reproducible"
            );
        }

        let f = f32_inf.score_requests(&reqs);
        for (a, b) in q1.probs.as_slice().iter().zip(f.probs.as_slice()) {
            assert!(
                (a - b).abs() < 0.15,
                "quant prob drifted too far: {a} vs {b}"
            );
        }
    }
}
