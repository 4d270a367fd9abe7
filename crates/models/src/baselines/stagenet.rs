//! StageNet baseline (Gao et al., 2020).
//!
//! "models disease progression stages and incorporates them into learning
//! disease progression patterns". We implement the core stage-aware
//! mechanism: a per-step stage-progression gate computed from the input and
//! hidden state that re-calibrates the LSTM cell memory, so the network can
//! discount stale memory when the disease stage shifts. The original's
//! stage-adaptive convolutional re-calibration over a window of cell states
//! is simplified to this gate (documented in DESIGN.md — the gate is the
//! component that carries the stage signal).

use crate::data::Batch;
use crate::traits::SequenceModel;
use cohortnet_tensor::nn::{Linear, LstmCell};
use cohortnet_tensor::{ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// StageNet: stage-aware LSTM with cell-memory re-calibration.
#[derive(Debug, Clone)]
pub struct StageNetModel {
    cell: LstmCell,
    stage_gate: Linear,
    head: Linear,
    hidden: usize,
}

impl StageNetModel {
    /// Builds the model, registering parameters in `ps`.
    pub fn new(
        ps: &mut ParamStore,
        rng: &mut StdRng,
        n_features: usize,
        n_labels: usize,
        hidden: usize,
    ) -> Self {
        StageNetModel {
            cell: LstmCell::new(ps, rng, "stagenet.cell", n_features, hidden),
            stage_gate: Linear::new(ps, rng, "stagenet.stage", n_features + hidden, 1),
            head: Linear::new(ps, rng, "stagenet.head", hidden, n_labels),
            hidden,
        }
    }

    /// Stage-progression values per step for interpretation: a column per
    /// time step in `(0, 1)`, where low values indicate a stage transition
    /// (memory discount).
    pub fn stage_trace(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var {
        let (_, stages) = self.run(t, ps, batch);
        t.concat_cols(&stages)
    }

    fn run(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> (Var, Vec<Var>) {
        let mut state = self.cell.init_state(t, batch.size);
        let mut stages = Vec::with_capacity(batch.steps.len());
        for step in &batch.steps {
            let x = t.constant(step.clone());
            // Stage gate from current input and hidden state.
            let joined = t.concat_cols(&[x, state.h]);
            let gate_pre = self.stage_gate.forward(t, ps, &joined);
            let gate = t.sigmoid(gate_pre);
            // Re-calibrate cell memory before the step: stale memory is
            // discounted when the stage shifts (gate -> 0).
            let c_scaled = t.mul_col_broadcast(state.c, gate);
            state = self.cell.step(
                t,
                ps,
                x,
                cohortnet_tensor::nn::LstmState {
                    h: state.h,
                    c: c_scaled,
                },
            );
            stages.push(gate);
        }
        let _ = self.hidden;
        (state.h, stages)
    }
}

impl SequenceModel for StageNetModel {
    fn name(&self) -> &'static str {
        "StageNet"
    }

    fn forward(&self, t: &mut Tape, ps: &ParamStore, batch: &Batch) -> Var {
        let (h, _) = self.run(t, ps, batch);
        self.head.forward(t, ps, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_learns, tiny_prep};

    #[test]
    fn learns_planted_signal() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(9);
        let mut model = StageNetModel::new(&mut ps, &mut rng, prep.n_features, 1, 16);
        assert_learns(&mut model, &mut ps, &prep);
    }

    #[test]
    fn stage_trace_in_unit_interval() {
        let prep = tiny_prep();
        let mut ps = ParamStore::new();
        let mut rng = rand::SeedableRng::seed_from_u64(10);
        let model = StageNetModel::new(&mut ps, &mut rng, prep.n_features, 1, 16);
        let batch = crate::data::make_batch(&prep, &[0, 1]);
        let mut tape = Tape::new();
        let trace = model.stage_trace(&mut tape, &ps, &batch);
        let v = tape.value(trace);
        assert_eq!(v.shape(), (2, prep.time_steps));
        assert!(v.as_slice().iter().all(|&x| x > 0.0 && x < 1.0));
    }
}
