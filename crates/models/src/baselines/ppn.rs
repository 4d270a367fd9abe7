//! PPN baseline (Yu et al., 2024).
//!
//! "identifies typical patients to serve as prototypes and leverages these
//! prototypes by calculating similarity metrics when assessing new
//! patients". Prototypes are real training patients closest to K-Means
//! centroids of the representation space (refreshed per epoch); prediction
//! attends over the prototypes by scaled-dot similarity and concatenates the
//! prototype context with the individual representation.

use crate::data::{make_batch, Batch, Prepared};
use crate::traits::SequenceModel;
use cohortnet_clustering::{kmeans_fit, KMeansConfig};
use cohortnet_tensor::nn::{GruCell, Linear};
use cohortnet_tensor::{Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// PPN: prototype-patient network over a GRU backbone.
#[derive(Debug, Clone)]
pub struct PpnModel {
    backbone: GruCell,
    head: Linear,
    hidden: usize,
    n_prototypes: usize,
    /// Flattened `n_prototypes x hidden` prototype representations.
    prototypes: Vec<f32>,
    /// Training-set indices of the chosen typical patients (diagnostics).
    prototype_ids: Vec<usize>,
}

impl PpnModel {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        hidden: usize,
        n_prototypes: usize,
    ) -> Self {
        PpnModel {
            backbone: GruCell::new(ps, rng, "ppn.backbone", n_features, hidden),
            head: Linear::new(ps, rng, "ppn.head", 2 * hidden, n_labels),
            hidden,
            n_prototypes,
            prototypes: Vec::new(),
            prototype_ids: Vec::new(),
        }
    }

    /// The training-set patient indices currently serving as prototypes.
    pub fn prototype_ids(&self) -> &[usize] {
        &self.prototype_ids
    }

    fn backbone_forward(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var {
        let mut h = self.backbone.init_state(t, batch.size);
        for step in &batch.steps {
            let x = t.constant(step.clone());
            h = self.backbone.step(t, ps, &x, &h);
        }
        h
    }

    fn all_representations(&self, ps: &ParamStore, prep: &Prepared) -> Matrix {
        let indices: Vec<usize> = (0..prep.patients.len()).collect();
        let mut rows: Vec<f32> = Vec::with_capacity(prep.patients.len() * self.hidden);
        for chunk in indices.chunks(128) {
            let batch = make_batch(prep, chunk);
            let mut t = Tape::new();
            let h = self.backbone_forward(&mut t, ps, &batch);
            rows.extend_from_slice(t.value(h).as_slice());
        }
        Matrix::from_vec(prep.patients.len(), self.hidden, rows)
    }
}

impl SequenceModel for PpnModel {
    fn name(&self) -> &'static str {
        "PPN"
    }

    fn forward(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var {
        let h = self.backbone_forward(t, ps, batch);
        let context = if self.prototypes.is_empty() {
            t.constant(Matrix::zeros(batch.size, self.hidden))
        } else {
            let k = self.prototypes.len() / self.hidden;
            let protos = t.constant(Matrix::from_vec(k, self.hidden, self.prototypes.clone()));
            // Similarity attention: softmax(h P^T / sqrt(d)) P. The prototype
            // matrix is constant, but gradients flow through h into the
            // attention weights — the network learns how to use prototypes.
            let pt = t.transpose(protos);
            let scores = t.matmul(h, pt);
            let scaled = t.scale(scores, 1.0 / (self.hidden as f32).sqrt());
            let alpha = t.softmax_rows(scaled);
            t.matmul(alpha, protos)
        };
        let joined = t.concat_cols(&[h, context]);
        self.head.forward(t, ps, &joined)
    }

    fn refresh(&mut self, ps: &ParamStore, prep: &Prepared, rng: &mut StdRng) {
        let reps = self.all_representations(ps, prep);
        let km = kmeans_fit(
            reps.as_slice(),
            self.hidden,
            KMeansConfig {
                k: self.n_prototypes,
                max_iter: 20,
                tol: 1e-4,
            },
            rng,
        );
        // Typical patients: the real representation nearest each centroid —
        // PPN's distinction from GRASP ("potentially deviating from
        // centroids" is avoided by using actual patients).
        self.prototypes.clear();
        self.prototype_ids.clear();
        for c in 0..km.k {
            let centroid = km.centroid(c);
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for r in 0..reps.rows() {
                let d = reps.row_distance_sq(r, centroid) as f64;
                if d < best_d {
                    best_d = d;
                    best = r;
                }
            }
            self.prototypes.extend_from_slice(reps.row(best));
            self.prototype_ids.push(best);
        }
    }

    fn needs_refresh(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_learns, tiny_prep};
    use rand::SeedableRng;

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(17);
        let mut model = PpnModel::new(&mut ps, &mut rng, prep.n_features, 1, 16, 6);
        assert_learns(&mut model, &mut ps, &prep);
    }

    #[test]
    fn prototypes_are_real_patients() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(18);
        let mut model = PpnModel::new(&mut ps, &mut rng, prep.n_features, 1, 8, 4);
        model.refresh(&ps, &prep, &mut rng);
        assert_eq!(model.prototype_ids().len(), 4);
        // Each prototype representation matches the stored patient's rep.
        let reps = model.all_representations(&ps, &prep);
        for (i, &pid) in model.prototype_ids().iter().enumerate() {
            assert_eq!(reps.row(pid), &model.prototypes[i * 8..(i + 1) * 8]);
        }
    }
}
