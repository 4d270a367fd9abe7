//! GRU baseline (Chung et al., 2014): like the LSTM baseline but with the
//! lighter gated recurrent unit — the paper notes it "requires fewer
//! parameters than LSTM".

use crate::data::Batch;
use crate::traits::SequenceModel;
use cohortnet_tensor::nn::{GruCell, Linear};
use cohortnet_tensor::{ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// Plain GRU sequence classifier.
#[derive(Debug, Clone)]
pub struct GruModel {
    cell: GruCell,
    head: Linear,
}

impl GruModel {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        hidden: usize,
    ) -> Self {
        GruModel {
            cell: GruCell::new(ps, rng, "gru.cell", n_features, hidden),
            head: Linear::new(ps, rng, "gru.head", hidden, n_labels),
        }
    }
}

impl SequenceModel for GruModel {
    fn name(&self) -> &'static str {
        "GRU"
    }

    fn forward(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var {
        let mut h = self.cell.init_state(t, batch.size);
        for step in &batch.steps {
            let x = t.constant(step.clone());
            h = self.cell.step(t, ps, &x, &h);
        }
        self.head.forward(t, ps, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_learns, tiny_multilabel_prep, tiny_prep};

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(2);
        let mut model = GruModel::new(&mut ps, &mut rng, prep.n_features, 1, 16);
        assert_learns(&mut model, &mut ps, &prep);
    }

    #[test]
    fn multilabel_head_width() {
        let prep = tiny_multilabel_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(3);
        let model = GruModel::new(&mut ps, &mut rng, prep.n_features, prep.n_labels, 16);
        let batch = crate::data::make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &ps, &batch);
        assert_eq!(tape.value(logits).shape(), (2, 25));
    }

    #[test]
    fn gru_has_fewer_params_than_lstm() {
        let mut ps_gru = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(4);
        let _ = GruModel::new(&mut ps_gru, &mut rng, 20, 1, 16);
        let mut ps_lstm = ParamStore::new();
        let _ = crate::baselines::lstm::LstmModel::new(&mut ps_lstm, &mut rng, 20, 1, 16);
        assert!(ps_gru.num_scalars() < ps_lstm.num_scalars());
    }
}
