//! Integration tests for the §Discussions extensions: adaptive per-feature
//! state budgets, attention-threshold masks, and iterative cohort updates —
//! exercised through the full pipeline, not just their units.

use cohortnet::cdm::mine_patterns;
use cohortnet::config::CohortNetConfig;
use cohortnet::train::{train_cohortnet, train_without_cohorts};
use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
use cohortnet_models::data::{make_batch, prepare, Prepared};
use cohortnet_models::trainer::evaluate;
use cohortnet_tensor::{Matrix, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(n: usize, t: usize) -> (CohortNetConfig, Prepared) {
    let mut profile = profiles::mimic3_like(0.1);
    profile.n_patients = n;
    profile.time_steps = t;
    profile.healthy_rate = 0.5;
    let mut ds = generate(&profile);
    let scaler = Standardizer::fit(&ds);
    scaler.apply(&mut ds);
    let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
    cfg.epochs_pretrain = 4;
    cfg.epochs_exploit = 2;
    cfg.lr = 3e-3;
    cfg.k_states = 5;
    cfg.min_frequency = 3;
    cfg.min_patients = 2;
    cfg.state_fit_samples = 3000;
    (cfg, prepare(&ds))
}

#[test]
fn adaptive_k_pipeline_runs_and_reduces_sparse_state_budgets() {
    let (mut cfg, prep) = setup(300, 6);
    cfg.adaptive_k = true;
    let trained = train_cohortnet(&prep, &cfg);
    let d = trained.model.discovery.as_ref().unwrap();
    // Sparse features (e.g. PIP, missing in ~45% of patients and rarely
    // charted) must get fewer states than dense vitals.
    let ks: Vec<usize> = d
        .states
        .models
        .iter()
        .map(|m| m.as_ref().map_or(0, |c| c.k))
        .collect();
    let max_k = ks.iter().copied().max().unwrap();
    let min_k = ks.iter().copied().filter(|&k| k > 0).min().unwrap();
    assert_eq!(max_k, cfg.k_states, "densest feature gets the ceiling");
    assert!(min_k < max_k, "adaptive budgets all equal: {ks:?}");
    // The pipeline still predicts.
    let r = evaluate(&trained.model, &trained.params, &prep, 64);
    assert!(r.auc_roc > 0.55, "train AUC {:.3}", r.auc_roc);
}

#[test]
fn threshold_masks_pipeline_produces_variable_width_patterns() {
    let (mut cfg, prep) = setup(200, 6);
    cfg.mask_threshold = Some(1.05);
    cfg.n_top = 3; // cap
    let trained = train_cohortnet(&prep, &cfg);
    let pool = &trained.model.discovery.as_ref().unwrap().pool;
    let widths: Vec<usize> = pool.masks.iter().map(Vec::len).collect();
    assert!(
        widths.iter().all(|&w| (2..=4).contains(&w)),
        "widths out of range: {widths:?}"
    );
    // Every cohort's pattern matches its mask width.
    for (f, cohorts) in pool.per_feature.iter().enumerate() {
        for c in cohorts {
            assert_eq!(c.pattern.len(), pool.masks[f].len());
        }
    }
}

#[test]
fn incremental_update_approximates_full_rebuild() {
    let (cfg, prep) = setup(260, 6);
    // Pre-train a backbone, discover on the first half.
    let trained = train_without_cohorts(&prep, &cfg);
    let half = prep.patients.len() / 2;
    let first = Prepared {
        n_features: prep.n_features,
        time_steps: prep.time_steps,
        n_labels: prep.n_labels,
        patients: prep.patients[..half].to_vec(),
    };
    let second = Prepared {
        n_features: prep.n_features,
        time_steps: prep.time_steps,
        n_labels: prep.n_labels,
        patients: prep.patients[half..].to_vec(),
    };
    let mut rng = StdRng::seed_from_u64(1);
    let d_half =
        cohortnet::discover::discover(&trained.model.mflm, &trained.params, &first, &cfg, &mut rng);

    // Helper: states + channel representations of a prepared set under the
    // half's fitted state models.
    let states_and_h = |pp: &Prepared| -> (Vec<u8>, Matrix) {
        let nf = pp.n_features;
        let t_steps = pp.time_steps;
        let n = pp.patients.len();
        let mut states = vec![0u8; n * t_steps * nf];
        let mut hh = Matrix::zeros(n, nf * cfg.d_hidden);
        for chunk in (0..n).collect::<Vec<_>>().chunks(32) {
            let batch = make_batch(pp, chunk);
            let mut tape = Tape::new();
            let trace = trained.model.mflm.forward(
                &mut tape,
                &trained.params,
                &batch.steps,
                &batch.mask,
                Some(&d_half.states),
                false,
            );
            let bs = trace.states.as_ref().expect("state model given");
            for (r, &p) in chunk.iter().enumerate() {
                states[p * t_steps * nf..(p + 1) * t_steps * nf]
                    .copy_from_slice(&bs[r * t_steps * nf..(r + 1) * t_steps * nf]);
                for (f, &h) in trace.h_final.iter().enumerate() {
                    hh.row_mut(p)[f * cfg.d_hidden..(f + 1) * cfg.d_hidden]
                        .copy_from_slice(tape.value(h).row(r));
                }
            }
        }
        (states, hh)
    };

    let nf = prep.n_features;
    let t_steps = prep.time_steps;

    // Reference: a rebuild over ALL patients under the SAME states/masks —
    // this isolates the pool-update strategy from state/mask drift.
    let (states_all, h_all) = states_and_h(&prep);
    let mined_all = mine_patterns(
        &states_all,
        prep.patients.len(),
        t_steps,
        nf,
        &d_half.pool.masks,
    );
    let labels_all: Vec<Vec<u8>> = prep.patients.iter().map(|p| p.labels_u8.clone()).collect();
    let rebuild = cohortnet::crlm::CohortPool::build(
        mined_all,
        d_half.pool.masks.clone(),
        &h_all,
        &labels_all,
        &cfg,
    );

    // Incremental fold of the second half into the half-pool.
    let mut pool = d_half.pool.clone();
    let (states2, h2) = states_and_h(&second);
    let mined2 = mine_patterns(&states2, second.patients.len(), t_steps, nf, &pool.masks);
    let labels2: Vec<Vec<u8>> = second
        .patients
        .iter()
        .map(|p| p.labels_u8.clone())
        .collect();
    let admitted = pool.update_with(mined2, &h2, &labels2, &cfg);
    assert!(admitted > 0, "second half brought no new patterns");
    let d_full = rebuild;

    // The incremental pool must cover the well-supported cohorts of the
    // full rebuild. It cannot cover everything: a borderline pattern whose
    // occurrences straddle the halves passes the filters only when counted
    // jointly — that accuracy/cost trade is exactly what this strategy
    // accepts. So the coverage check targets cohorts with comfortable
    // evidence (≥ 3x the filter thresholds), which must appear in at least
    // one half.
    let mut covered = 0usize;
    let mut total = 0usize;
    for f in 0..nf {
        for c in &d_full.per_feature[f] {
            if c.frequency < 3 * cfg.min_frequency || c.n_patients < 3 * cfg.min_patients {
                continue;
            }
            total += 1;
            if pool.lookup(f, c.key).is_some() {
                covered += 1;
            }
        }
    }
    assert!(total > 0, "no well-supported cohorts to check");
    let coverage = covered as f64 / total as f64;
    assert!(
        coverage > 0.7,
        "incremental pool covers only {coverage:.2} of {total}"
    );
}
