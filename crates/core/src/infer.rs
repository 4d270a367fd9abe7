//! Inference-only scoring for serving (no autodiff tape).
//!
//! [`Inferencer::compile`] snapshots a trained [`CohortNetModel`]'s weights
//! into a per-parameter [`Weights`] table (f32, or the int8 trunk of
//! [`crate::quant`]), precomputes everything that is constant per model —
//! the CEM cohort keys/values ([`Cem::cohort_kv`]) and the packed
//! [`CohortIndex`] for Eq. 10 matching — and then [`Inferencer::score`] runs
//! the model's own forward ([`crate::mflm::Mflm::forward`],
//! [`Cem::forward`]) on the non-recording [`Eval`] executor. This module
//! holds no model arithmetic: only compilation, minibatch assembly and
//! output assembly.
//!
//! Two contracts, both test-enforced:
//!
//! * **bit-identity** — `score` logits equal [`CohortNetModel::forward_trace`]
//!   logits to the bit, because the forward is the same code and every
//!   [`cohortnet_tensor::Exec`] op computes the same bits on either executor;
//! * **row independence** — every op maps batch row `r` to output row `r`
//!   without reading other rows, so a patient's scores do not depend on which
//!   other patients share the minibatch (or on how many worker threads the
//!   GEMM uses). This is what lets the serving engine coalesce concurrent
//!   requests into one batch without changing any response.

use crate::cdm::FeatureStates;
use crate::cem::{Cem, CohortKv};
use crate::index::{CohortIndex, IndexCache};
use crate::mflm::Mflm;
use crate::model::CohortNetModel;
use crate::quant::QuantTable;
use cohortnet_parallel::par_map;
use cohortnet_tensor::exec::{Eval, Weights};
use cohortnet_tensor::{Matrix, ParamStore};

/// The cohort-calibration half of the compiled model (absent for a model
/// that never ran discovery — the `w/o c` configuration).
#[derive(Debug, Clone)]
struct CohortPath {
    states: FeatureStates,
    index: CohortIndex,
    kv: CohortKv<Matrix>,
}

/// One scored minibatch.
#[derive(Debug, Clone)]
pub struct ScoreOutput {
    /// Combined logits of Eq. 14 (`batch x n_labels`).
    pub logits: Matrix,
    /// Individual-path logits `w^p·h̃ + b^p` alone.
    pub base_logits: Matrix,
    /// Cohort-calibration logits `w^c·ĥ`, `None` without discovery.
    pub cem_logits: Option<Matrix>,
    /// `σ(logits)` — the predicted probabilities.
    pub probs: Matrix,
}

/// One patient scored with its intermediate cohort artefacts exposed: the
/// state grid and the matched-cohort bitmaps that [`Inferencer::score`]
/// computes internally. The streaming session layer scores through this so
/// it can carry the artefacts across re-scores (incremental index probing)
/// and so the differential tests can compare them against the batch path.
#[derive(Debug, Clone)]
pub struct DetailedScore {
    /// The scores, bit-identical to `score_requests(&[req])`.
    pub output: ScoreOutput,
    /// The `(T x F)` feature-state grid (`None` without discovery).
    pub state_grid: Option<Vec<u8>>,
    /// Packed Eq. 10 bitmaps, one per anchor feature (`None` without
    /// discovery).
    pub bitmaps: Option<Vec<Vec<u64>>>,
}

/// A dense time-series scoring request: one patient's raw (standardized)
/// grid plus the presence mask, in the same layout as
/// [`cohortnet_models::data::PreparedPatient`].
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    /// Row-major `(T x F)` standardized feature values.
    pub x: Vec<f32>,
    /// Per-feature presence flags (`F` entries, `1.0` = observed).
    pub mask: Vec<f32>,
}

impl ScoreOutput {
    /// Combines the individual-path logits with the optional calibration
    /// logits (Eq. 14) and applies the sigmoid.
    fn new(base_logits: Matrix, cem_logits: Option<Matrix>) -> ScoreOutput {
        let logits = match &cem_logits {
            Some(c) => base_logits.add(c),
            None => base_logits.clone(),
        };
        ScoreOutput {
            probs: logits.map(|x| 1.0 / (1.0 + (-x).exp())),
            logits,
            base_logits,
            cem_logits,
        }
    }
}

/// A compiled, tape-free CohortNet ready for online scoring.
#[derive(Debug, Clone)]
pub struct Inferencer {
    mflm: Mflm,
    cem: Cem,
    weights: Weights,
    cohorts: Option<CohortPath>,
    n_labels: usize,
    time_steps: usize,
    quantized: bool,
}

impl Inferencer {
    /// Snapshots `model`'s weights and precomputes the serving-time
    /// constants (cohort keys/values, packed cohort index).
    ///
    /// `time_steps` is the grid length the model was trained on — scoring
    /// requests must carry exactly `time_steps * n_features` values (the
    /// config does not record it; the data pipeline does).
    pub fn compile(model: &CohortNetModel, ps: &ParamStore, time_steps: usize) -> Self {
        Self::compile_inner(model, ps, time_steps, None)
    }

    /// [`Inferencer::compile`] with the MFLM trunk weights replaced by their
    /// int8 quantizations from `table` (built by [`crate::quant`] with the
    /// same stable tensor names). The BiEL embedding, all biases, and the
    /// cohort-exploitation path stay f32.
    pub(crate) fn compile_with_table(
        model: &CohortNetModel,
        ps: &ParamStore,
        time_steps: usize,
        table: &QuantTable,
    ) -> Self {
        Self::compile_inner(model, ps, time_steps, Some(table))
    }

    fn compile_inner(
        model: &CohortNetModel,
        ps: &ParamStore,
        time_steps: usize,
        table: Option<&QuantTable>,
    ) -> Self {
        let mut weights = Weights::from_store(ps);
        if let Some(table) = table {
            // The table is built from the same enumeration, so a missing
            // name is a programming error, not bad data.
            for (name, id) in model.mflm.quant_trunk() {
                let q = table
                    .get(&name)
                    .unwrap_or_else(|| panic!("quant table is missing trunk tensor {name:?}"));
                weights.set_int8(id, q.clone());
            }
        }
        let cohorts = model.discovery.as_ref().map(|d| CohortPath {
            states: d.states.clone(),
            index: CohortIndex::compile(&d.pool),
            kv: model.cem.cohort_kv(&mut Eval, &weights, &d.pool),
        });
        Inferencer {
            mflm: model.mflm.clone(),
            cem: model.cem.clone(),
            weights,
            cohorts,
            n_labels: model.cfg.n_labels,
            time_steps,
            quantized: table.is_some(),
        }
    }

    /// Whether the MFLM trunk runs the int8 quantized kernels (`true` only
    /// for inferencers compiled through [`crate::quant::QuantInferencer`]).
    pub fn quantized(&self) -> bool {
        self.quantized
    }

    /// Number of medical features the model was trained on.
    pub fn n_features(&self) -> usize {
        self.mflm.n_features()
    }

    /// Number of time steps per patient grid.
    pub fn time_steps(&self) -> usize {
        self.time_steps
    }

    /// Number of prediction labels.
    pub fn n_labels(&self) -> usize {
        self.n_labels
    }

    /// Whether the cohort-calibration path is active.
    pub fn has_cohorts(&self) -> bool {
        self.cohorts.is_some()
    }

    /// Scores one minibatch: `steps` is one `(batch x F)` matrix per time
    /// step, `mask` the `(batch x F)` presence mask.
    ///
    /// Bit-identical to the tape forward over the same rows, regardless of
    /// batch composition or GEMM thread count.
    pub fn score(&self, steps: &[Matrix], mask: &Matrix) -> ScoreOutput {
        self.run(steps, mask, None).output
    }

    /// The one scoring body. Eq. 10 bitmaps come from the compiled
    /// [`CohortIndex`], or — for a single-row batch — from `cache`'s
    /// incremental probe. Bitmaps are exact `u64`s, so the source changes
    /// no arithmetic.
    fn run(
        &self,
        steps: &[Matrix],
        mask: &Matrix,
        cache: Option<&mut IndexCache>,
    ) -> DetailedScore {
        // Chaos injection sites (inert single atomic load unless a plan is
        // installed): `infer.worker` simulates a worker-thread panic
        // mid-batch — via `score_requests_parallel` this runs *inside* a
        // `par_map` worker — and `infer.latency` stalls the forward pass
        // without touching any computed value. Both entry points (batch
        // and streaming) reach them.
        cohortnet_chaos::panic_if_fires("infer.worker");
        cohortnet_chaos::delay_ms_if_fires("infer.latency");
        let (batch, nf, t_steps) = (mask.rows(), self.n_features(), steps.len());
        assert_eq!(mask.cols(), nf, "mask width != n_features");
        for step in steps {
            assert_eq!(
                step.shape(),
                (batch, nf),
                "step shape != (batch x n_features)"
            );
        }
        let e = &mut Eval;
        let states = self.cohorts.as_ref().map(|c| &c.states);
        let trunk = self
            .mflm
            .forward(e, &self.weights, steps, mask, states, false);
        let base_logits = trunk.logits;
        let Some(c) = &self.cohorts else {
            return DetailedScore {
                output: ScoreOutput::new(base_logits, None),
                state_grid: None,
                bitmaps: None,
            };
        };
        let grid = trunk.states.expect("state model given");
        let bitmaps: Vec<Vec<Vec<u64>>> = match cache {
            Some(cache) => {
                assert_eq!(batch, 1, "cached bitmaps are per-patient");
                vec![cache.probe(&c.index, &grid, t_steps, nf).to_vec()]
            }
            None => (0..batch)
                .map(|r| {
                    let row = &grid[r * t_steps * nf..(r + 1) * t_steps * nf];
                    (0..nf)
                        .map(|i| c.index.bitmap_words(i, row, t_steps, nf))
                        .collect()
                })
                .collect(),
        };
        let cem = self
            .cem
            .forward(e, &self.weights, &c.kv, &trunk.h_final, &bitmaps);
        DetailedScore {
            output: ScoreOutput::new(base_logits, Some(cem.logits)),
            state_grid: Some(grid),
            bitmaps: bitmaps.into_iter().next(),
        }
    }

    /// Assembles the minibatch of `reqs`: one `(batch x F)` matrix per time
    /// step and the presence mask. Request order is row order.
    fn minibatch(&self, reqs: &[ScoreRequest]) -> (Vec<Matrix>, Matrix) {
        let (nf, t_steps) = (self.n_features(), self.time_steps);
        for (r, req) in reqs.iter().enumerate() {
            assert_eq!(
                req.x.len(),
                t_steps * nf,
                "request {r}: grid must be T*F = {} values",
                t_steps * nf
            );
            assert_eq!(
                req.mask.len(),
                nf,
                "request {r}: mask must have F = {nf} values"
            );
        }
        let steps = (0..t_steps)
            .map(|t| {
                let mut m = Matrix::zeros(reqs.len(), nf);
                for (r, req) in reqs.iter().enumerate() {
                    m.row_mut(r).copy_from_slice(&req.x[t * nf..(t + 1) * nf]);
                }
                m
            })
            .collect();
        let mut mask = Matrix::zeros(reqs.len(), nf);
        for (r, req) in reqs.iter().enumerate() {
            mask.row_mut(r).copy_from_slice(&req.mask);
        }
        (steps, mask)
    }

    /// Scores a slice of per-patient requests, assembling the minibatch
    /// internally. Request order is preserved: output row `r` is request `r`.
    pub fn score_requests(&self, reqs: &[ScoreRequest]) -> ScoreOutput {
        let (steps, mask) = self.minibatch(reqs);
        self.score(&steps, &mask)
    }

    /// Scores one patient, returning the intermediate cohort artefacts and
    /// routing the Eq. 10 index probes through `cache` — the streaming
    /// re-score path. Anchors whose mask columns kept their state
    /// assignments since the previous probe on the same cache reuse the
    /// stored bitmap words instead of re-walking the grid; debug builds
    /// recompute every reused bitmap with the full scan and assert equality.
    ///
    /// The scores are bit-identical to `score_requests(&[req])`: the trunk
    /// is the same code path, and cached bitmaps are exact integers.
    pub fn score_one_with_cache(
        &self,
        req: &ScoreRequest,
        cache: &mut IndexCache,
    ) -> DetailedScore {
        let (steps, mask) = self.minibatch(std::slice::from_ref(req));
        self.run(&steps, &mask, Some(cache))
    }

    /// [`Inferencer::score_requests`] sharded over `n_threads` workers via
    /// [`cohortnet_parallel`]. Row independence makes the result bit-equal
    /// to the single-threaded call; shards are reassembled in request order.
    pub fn score_requests_parallel(&self, reqs: &[ScoreRequest], n_threads: usize) -> ScoreOutput {
        if reqs.len() <= 1 || n_threads == 1 {
            return self.score_requests(reqs);
        }
        let shard = reqs.len().div_ceil(n_threads.max(1));
        let chunks: Vec<&[ScoreRequest]> = reqs.chunks(shard).collect();
        let outs = par_map(n_threads, &chunks, |_, chunk| self.score_requests(chunk));
        let cat = |part: fn(&ScoreOutput) -> &Matrix| {
            Matrix::concat_rows(&outs.iter().map(part).collect::<Vec<_>>())
        };
        ScoreOutput {
            logits: cat(|o| &o.logits),
            base_logits: cat(|o| &o.base_logits),
            probs: cat(|o| &o.probs),
            cem_logits: outs
                .iter()
                .map(|o| o.cem_logits.as_ref())
                .collect::<Option<Vec<_>>>()
                .map(|parts| Matrix::concat_rows(&parts)),
        }
    }
}
