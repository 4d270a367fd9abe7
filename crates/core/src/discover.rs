//! The cohort-discovery driver: Steps 2 and 3 of the pipeline.
//!
//! Orchestrates the two batched passes over the training set that connect
//! MFLM to the cohort pool:
//!
//! * **pass 1** — collect reservoir samples of fused representations per
//!   feature and the mean interaction attention;
//! * **fit** — per-feature K-Means state models (Eq. 7) and pattern masks
//!   (Eq. 8);
//! * **pass 2** — assign every `(patient, t, feature)` state and harvest the
//!   final channel representations `h_i^T`;
//! * **mine + represent** — pattern mining and cohort-pool construction
//!   (Eq. 9 with credibility filters).
//!
//! Every stage is timed individually because Figures 12 and 13 report the
//! per-step scaling behaviour.

use crate::cdm::{build_masks, mine_patterns_threads, FeatureStates, StateSampler};
use crate::config::CohortNetConfig;
use crate::crlm::CohortPool;
use crate::mflm::Mflm;
use cohortnet_models::data::{make_batch, Prepared};
use cohortnet_obs::{obs_debug, obs_info};
use cohortnet_tensor::exec::{Eval, Weights};
use cohortnet_tensor::{Matrix, ParamStore};
use rand::rngs::StdRng;
use std::time::Instant;

/// Log target for the discovery pipeline.
const LOG: &str = "cohortnet.discover";

/// Registers (get-or-create) the discovery stage telemetry in the global
/// registry and records one run's timings.
fn publish_stage_metrics(timing: &DiscoveryTiming, cohorts: usize) {
    let reg = cohortnet_obs::metrics::global();
    reg.counter(
        "cohortnet_discover_runs_total",
        "Discovery pipeline runs completed.",
    )
    .inc();
    reg.counter(
        "cohortnet_discover_cohorts_last",
        "Cohorts found by discovery runs (cumulative).",
    )
    .add(cohorts as u64);
    for (name, help, sec) in [
        (
            "cohortnet_discover_collect_us",
            "Pass-1 representation collection time per run, microseconds.",
            timing.collect_sec,
        ),
        (
            "cohortnet_discover_fit_us",
            "Per-feature state-fit time per run, microseconds.",
            timing.fit_sec,
        ),
        (
            "cohortnet_discover_assign_us",
            "Pass-2 state-assignment time per run, microseconds.",
            timing.assign_sec,
        ),
        (
            "cohortnet_discover_mine_us",
            "Pattern-mining time per run, microseconds.",
            timing.mine_sec,
        ),
        (
            "cohortnet_discover_represent_us",
            "Cohort retrieval + representation time per run, microseconds.",
            timing.represent_sec,
        ),
    ] {
        reg.histogram(name, help, cohortnet_obs::metrics::DURATION_US_BOUNDS)
            .observe((sec * 1e6) as u64);
    }
}

/// The stage-summary table logged at the end of every discovery run.
fn log_stage_summary(timing: &DiscoveryTiming, cohorts: usize, threads: usize) {
    obs_info!(
        target: LOG,
        "discovery stage summary",
        collect_s = format!("{:.3}", timing.collect_sec),
        fit_s = format!("{:.3}", timing.fit_sec),
        assign_s = format!("{:.3}", timing.assign_sec),
        mine_s = format!("{:.3}", timing.mine_sec),
        represent_s = format!("{:.3}", timing.represent_sec),
        step2_s = format!("{:.3}", timing.step2_sec()),
        step3_s = format!("{:.3}", timing.step3_sec()),
        cohorts = cohorts,
        n_threads = threads,
    );
}

/// Everything pass 1 extracts from one inference batch. Workers return these
/// and the driver folds them **in chunk order**, so the attention reduction
/// and the reservoir's RNG consumption are identical at any thread count.
struct CollectHarvest {
    /// Partial attention sum (`F x F`) over this batch.
    attn_sum: Matrix,
    /// Attention accumulation count for this batch.
    attn_count: usize,
    /// Observed fused vectors in the exact `(t, f, r)` order the sequential
    /// loop would offer them to the reservoir sampler.
    offers: Vec<(usize, Vec<f32>)>,
}

/// Everything pass 2 extracts from one inference batch: the per-patient
/// state grid and final channel representations, keyed by training index.
struct AssignHarvest {
    /// `(patient, T*F states, nf*d_hidden h_final row)` per batch row.
    rows: Vec<(usize, Vec<u8>, Vec<f32>)>,
}

/// Wall-clock breakdown of the discovery pipeline.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryTiming {
    /// Pass 1: representation collection (forward passes + sampling).
    pub collect_sec: f64,
    /// Per-feature K-Means fitting.
    pub fit_sec: f64,
    /// Pass 2: state assignment over all samples and time steps.
    pub assign_sec: f64,
    /// Pattern mining over the state tensor.
    pub mine_sec: f64,
    /// Cohort retrieval + representation learning (Step 3).
    pub represent_sec: f64,
}

impl DiscoveryTiming {
    /// Total time of the paper's "Step 2" (feature states + patterns).
    pub fn step2_sec(&self) -> f64 {
        self.collect_sec + self.fit_sec + self.assign_sec + self.mine_sec
    }

    /// Total time of the paper's "Step 3" (cohort representation learning).
    pub fn step3_sec(&self) -> f64 {
        self.represent_sec
    }
}

/// The fitted discovery artefacts carried by a trained CohortNet.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Per-feature state models.
    pub states: FeatureStates,
    /// The cohort pool `Pool(ξ)`.
    pub pool: CohortPool,
    /// Mean interaction attention (`F x F`) the masks were built from.
    pub attn_mean: Matrix,
    /// Stage timings.
    pub timing: DiscoveryTiming,
}

/// Runs the full discovery pipeline (Steps 2 + 3) over a training set with
/// the paper's K-Means state modelling.
pub fn discover(
    mflm: &Mflm,
    ps: &ParamStore,
    prep: &Prepared,
    cfg: &CohortNetConfig,
    rng: &mut StdRng,
) -> Discovery {
    discover_with_algo(
        mflm,
        ps,
        prep,
        cfg,
        crate::cdm::StateClusterAlgo::KMeans,
        1.0,
        rng,
    )
}

/// Like [`discover`] but with a selectable clustering backend and sample
/// ratio — the Appendix C.2 / Fig. 14 comparison.
pub fn discover_with_algo(
    mflm: &Mflm,
    ps: &ParamStore,
    prep: &Prepared,
    cfg: &CohortNetConfig,
    algo: crate::cdm::StateClusterAlgo,
    sample_ratio: f32,
    rng: &mut StdRng,
) -> Discovery {
    if let Err(e) = cfg.validate() {
        panic!("invalid CohortNetConfig: {e}");
    }
    cohortnet_obs::init_from_env();
    let mut discover_span = cohortnet_obs::span::span("discover");
    let nf = prep.n_features;
    let t_steps = prep.time_steps;
    let n_patients = prep.patients.len();
    discover_span
        .arg("patients", n_patients)
        .arg("features", nf)
        .arg("time_steps", t_steps);
    obs_debug!(
        target: LOG,
        "discovery start",
        patients = n_patients,
        features = nf,
        time_steps = t_steps,
        n_threads = cfg.n_threads,
    );
    let indices: Vec<usize> = (0..n_patients).collect();
    let infer_batch = cfg.batch_size.max(16);
    // Granularity: several inference batches per parallel task, so task
    // spawn/scheduling overhead amortises (the PR-1 per-batch tasks were so
    // fine that dispatch cost outweighed the work and the threads sweep
    // regressed). Each task still loops over `infer_batch`-sized sub-chunks
    // and returns one harvest per sub-chunk, so forward values and the
    // driver's fold order are exactly those of the fine-grained loop — the
    // coarsening is invisible to the determinism contract.
    let task_rows = infer_batch * 4;
    let threads = cfg.n_threads;
    // Both passes only read forward values, so they run on the
    // non-recording executor over one weight table: no per-op graph and no
    // per-use weight copy, and the same bits as the tape by the `Exec`
    // contract.
    let weights = &Weights::from_store(ps);
    let mut timing = DiscoveryTiming::default();

    // ---- Pass 1: sample fused representations + accumulate attention.
    // Workers run the expensive MFLM forward per batch; the driver folds the
    // harvests in chunk order, so attention sums reduce in a fixed order and
    // the reservoir sampler consumes the parent RNG exactly as the
    // sequential loop would.
    let t0 = Instant::now();
    let stage_span = cohortnet_obs::span::span("cdm.collect");
    let mut sampler = StateSampler::new(nf, cfg.d_fused, cfg.state_fit_samples);
    let mut attn_sum = Matrix::zeros(nf, nf);
    let mut attn_count = 0usize;
    let harvests = cohortnet_parallel::par_chunks(threads, &indices, task_rows, |_, task| {
        task.chunks(infer_batch)
            .map(|chunk| {
                let batch = make_batch(prep, chunk);
                let trace =
                    mflm.forward(&mut Eval, weights, &batch.steps, &batch.mask, None, false);
                let mut offers = Vec::new();
                for values in &trace.o {
                    for f in 0..nf {
                        for r in 0..batch.size {
                            if batch.mask[(r, f)] > 0.5 {
                                offers.push((f, values.row(f * batch.size + r).to_vec()));
                            }
                        }
                    }
                }
                CollectHarvest {
                    attn_sum: trace.attn_sum.clone(),
                    attn_count: trace.attn_count,
                    offers,
                }
            })
            .collect::<Vec<_>>()
    });
    for harvest in harvests.iter().flatten() {
        attn_sum.add_assign(&harvest.attn_sum);
        attn_count += harvest.attn_count;
        for (f, o) in &harvest.offers {
            sampler.offer(*f, o, rng);
        }
    }
    drop(harvests);
    let attn_mean = attn_sum.scale(1.0 / attn_count.max(1) as f32);
    drop(stage_span);
    timing.collect_sec = t0.elapsed().as_secs_f64();

    // ---- Fit state models and pattern masks (one thread per feature fit,
    // each on its own seed-split RNG stream).
    let t0 = Instant::now();
    let stage_span = cohortnet_obs::span::span("cdm.fit");
    let ks = if cfg.adaptive_k {
        sampler.adaptive_ks(cfg.k_states)
    } else {
        vec![cfg.k_states; nf]
    };
    let states = sampler.fit_with_ks_threads(&ks, algo, sample_ratio, threads, rng);
    let masks = match cfg.mask_threshold {
        Some(th) => crate::cdm::build_masks_threshold(&attn_mean, th, cfg.n_top),
        None => build_masks(&attn_mean, cfg.n_top),
    };
    drop(stage_span);
    timing.fit_sec = t0.elapsed().as_secs_f64();

    // ---- Pass 2: assign all states; harvest h_i^T. No RNG involved — each
    // worker's rows land at positions fixed by the patient index.
    let t0 = Instant::now();
    let stage_span = cohortnet_obs::span::span("cdm.assign");
    let mut state_tensor = vec![0u8; n_patients * t_steps * nf];
    let mut h_final_all = Matrix::zeros(n_patients, nf * cfg.d_hidden);
    let states_ref = &states;
    let harvests = cohortnet_parallel::par_chunks(threads, &indices, task_rows, |_, task| {
        task.chunks(infer_batch)
            .map(|chunk| {
                let batch = make_batch(prep, chunk);
                let trace = mflm.forward(
                    &mut Eval,
                    weights,
                    &batch.steps,
                    &batch.mask,
                    Some(states_ref),
                    false,
                );
                let bs = trace.states.as_ref().expect("state model given");
                let rows = chunk
                    .iter()
                    .enumerate()
                    .map(|(r, &p)| {
                        let grid = bs[r * t_steps * nf..(r + 1) * t_steps * nf].to_vec();
                        let mut h_row = vec![0.0f32; nf * cfg.d_hidden];
                        for (f, hv) in trace.h_final.iter().enumerate() {
                            h_row[f * cfg.d_hidden..(f + 1) * cfg.d_hidden]
                                .copy_from_slice(hv.row(r));
                        }
                        (p, grid, h_row)
                    })
                    .collect();
                AssignHarvest { rows }
            })
            .collect::<Vec<_>>()
    });
    for harvest in harvests.iter().flatten() {
        for (p, grid, h_row) in &harvest.rows {
            state_tensor[p * t_steps * nf..(p + 1) * t_steps * nf].copy_from_slice(grid);
            h_final_all.row_mut(*p).copy_from_slice(h_row);
        }
    }
    drop(harvests);
    drop(stage_span);
    timing.assign_sec = t0.elapsed().as_secs_f64();

    // ---- Mine patterns, sharded per anchor feature.
    let t0 = Instant::now();
    let stage_span = cohortnet_obs::span::span("cdm.mine");
    let mined = mine_patterns_threads(&state_tensor, n_patients, t_steps, nf, &masks, threads);
    drop(stage_span);
    timing.mine_sec = t0.elapsed().as_secs_f64();

    // ---- Step 3: cohort representations.
    let t0 = Instant::now();
    let stage_span = cohortnet_obs::span::span("crlm.represent");
    let labels: Vec<Vec<u8>> = prep.patients.iter().map(|p| p.labels_u8.clone()).collect();
    let pool = CohortPool::build(mined, masks, &h_final_all, &labels, cfg);
    drop(stage_span);
    timing.represent_sec = t0.elapsed().as_secs_f64();

    let cohorts = pool.total_cohorts();
    publish_stage_metrics(&timing, cohorts);
    log_stage_summary(&timing, cohorts, cfg.n_threads);
    drop(discover_span);
    cohortnet_obs::trace::flush();

    Discovery {
        states,
        pool,
        attn_mean,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohortnet_ehr::{profiles, standardize::Standardizer, synth::generate};
    use cohortnet_models::data::prepare;
    use cohortnet_tensor::Tape;
    use rand::SeedableRng;

    fn setup() -> (CohortNetConfig, Prepared) {
        let mut c = profiles::mimic3_like(0.05);
        c.n_patients = 80;
        c.time_steps = 6;
        let mut ds = generate(&c);
        let scaler = Standardizer::fit(&ds);
        scaler.apply(&mut ds);
        let mut cfg = CohortNetConfig::for_dataset(&ds, &scaler);
        cfg.k_states = 4;
        cfg.min_frequency = 4;
        cfg.min_patients = 2;
        cfg.state_fit_samples = 2000;
        (cfg, prepare(&ds))
    }

    #[test]
    fn discovery_produces_cohorts() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let d = discover(&mflm, &ps, &prep, &cfg, &mut rng);
        assert!(d.pool.total_cohorts() > 0, "no cohorts discovered");
        assert_eq!(d.pool.masks.len(), prep.n_features);
        for m in &d.pool.masks {
            assert_eq!(m.len(), cfg.n_top + 1);
        }
        // Timings populated.
        assert!(d.timing.step2_sec() > 0.0);
    }

    #[test]
    fn cohort_patterns_reference_masked_features() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let d = discover(&mflm, &ps, &prep, &cfg, &mut rng);
        for (i, cohorts) in d.pool.per_feature.iter().enumerate() {
            for c in cohorts {
                assert_eq!(c.feature, i);
                let features: Vec<usize> = c.pattern.iter().map(|&(f, _)| f).collect();
                assert_eq!(
                    features, d.pool.masks[i],
                    "pattern features must equal mask"
                );
                assert!(c.frequency >= cfg.min_frequency);
                assert!(c.n_patients >= cfg.min_patients);
            }
        }
    }

    #[test]
    fn batch_states_match_manual_assignment() {
        let (cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        let d = discover(&mflm, &ps, &prep, &cfg, &mut rng);
        let batch = make_batch(&prep, &[3, 7]);
        let mut tape = Tape::new();
        let trace = mflm.forward(
            &mut tape,
            &ps,
            &batch.steps,
            &batch.mask,
            Some(&d.states),
            false,
        );
        let bs = trace.states.expect("state model given");
        assert_eq!(bs.len(), 2 * prep.time_steps * prep.n_features);
        // Missing features always map to state 0.
        for r in 0..2 {
            for f in 0..prep.n_features {
                if batch.mask[(r, f)] < 0.5 {
                    for t in 0..prep.time_steps {
                        let nf = prep.n_features;
                        assert_eq!(bs[r * prep.time_steps * nf + t * nf + f], 0);
                    }
                }
            }
        }
    }

    #[test]
    fn higher_k_yields_more_cohorts() {
        // Fig. 8's headline trend: more states -> finer, more numerous
        // cohorts with fewer patients each.
        let (mut cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        cfg.k_states = 2;
        cfg.max_cohorts_per_feature = 10_000;
        cfg.min_frequency = 1;
        cfg.min_patients = 1;
        let d_small = discover(&mflm, &ps, &prep, &cfg, &mut StdRng::seed_from_u64(4));
        cfg.k_states = 6;
        let d_large = discover(&mflm, &ps, &prep, &cfg, &mut StdRng::seed_from_u64(4));
        assert!(
            d_large.pool.total_cohorts() > d_small.pool.total_cohorts(),
            "k=6 {} vs k=2 {}",
            d_large.pool.total_cohorts(),
            d_small.pool.total_cohorts()
        );
        assert!(d_large.pool.avg_patients_per_cohort() < d_small.pool.avg_patients_per_cohort(),);
    }

    #[test]
    fn discovery_is_bit_identical_across_thread_counts() {
        let (mut cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        cfg.n_threads = 1;
        let reference = discover(&mflm, &ps, &prep, &cfg, &mut StdRng::seed_from_u64(6));
        for threads in [2, 4] {
            cfg.n_threads = threads;
            let d = discover(&mflm, &ps, &prep, &cfg, &mut StdRng::seed_from_u64(6));
            assert_eq!(d.pool.masks, reference.pool.masks, "{threads} threads");
            assert_eq!(
                d.attn_mean.as_slice(),
                reference.attn_mean.as_slice(),
                "attention differs at {threads} threads"
            );
            assert_eq!(
                d.pool.total_cohorts(),
                reference.pool.total_cohorts(),
                "{threads} threads"
            );
            for (f, (a, b)) in d
                .pool
                .per_feature
                .iter()
                .zip(&reference.pool.per_feature)
                .enumerate()
            {
                assert_eq!(
                    a.len(),
                    b.len(),
                    "feature {f} cohort count at {threads} threads"
                );
                for (ca, cb) in a.iter().zip(b) {
                    assert_eq!(ca.pattern, cb.pattern, "feature {f} at {threads} threads");
                    assert_eq!(ca.frequency, cb.frequency);
                    assert_eq!(ca.n_patients, cb.n_patients);
                    assert_eq!(
                        ca.repr, cb.repr,
                        "cohort representation must be bit-identical"
                    );
                }
            }
            for (ma, mb) in d.states.models.iter().zip(&reference.states.models) {
                match (ma, mb) {
                    (Some(a), Some(b)) => assert_eq!(a.centroids, b.centroids),
                    (None, None) => {}
                    _ => panic!("model presence differs at {threads} threads"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid CohortNetConfig")]
    fn discovery_rejects_key_aliasing_configs() {
        let (mut cfg, prep) = setup();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mflm = Mflm::new(&mut ps, &mut rng, &cfg);
        // 16 learned states would alias in the 4-bit pattern-key encoding;
        // this must fail loudly in release builds too.
        cfg.k_states = 16;
        discover(&mflm, &ps, &prep, &cfg, &mut rng);
    }
}
