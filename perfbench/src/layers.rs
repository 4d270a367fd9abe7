//! In-process timing of each layer's public entry points, on the
//! workload's own model and inputs. Every call is bracketed by a span from
//! the outside; nothing is timed inside the program.

use std::time::{Duration, Instant};

use cohortnet::index::CohortIndex;
use cohortnet::infer::ScoreRequest;
use cohortnet::quant::Scorer;
use cohortnet::snapshot::{load_snapshot, LoadedModel};
use cohortnet::stream::{StreamConfig, StreamSession, DEFAULT_HORIZON_HOURS};
use cohortnet::IndexCache;
use cohortnet_serve::server::parse_score_instances;
use cohortnet_tensor::Matrix;

use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::{Inputs, Setup, WARD};
use crate::{metric, Metric};

/// The traced binary's allocation counter: runs the closure with counting
/// on and returns the (allocations, bytes) it made.
pub type AllocCounter = fn(&mut dyn FnMut()) -> (u64, u64);

/// Repetitions sized so each sweep costs about `budget_ms`, at least `min`.
fn reps(one_us: f64, budget_ms: f64, min: usize) -> usize {
    ((budget_ms * 1e3 / one_us.max(1e-3)) as usize).clamp(min, 5_000)
}

/// Times batch-1 `Scorer::score_requests_parallel` calls (the engine's
/// thread count) for about `budget`, at least five of them, each after an
/// idle `gap` as the workload's arrivals are: a scorer woken after a gap
/// runs slower on a busy host than one called back to back, and
/// `infer.b1_us` is compared with the server's `serve.compute_us`.
/// Returns each call's µs.
pub fn infer_b1(
    scorer: &Scorer,
    reqs: &[ScoreRequest],
    rec: &mut Recorder,
    gap: Duration,
    budget: Duration,
) -> Vec<f64> {
    let start = Instant::now();
    let first = rec.count("infer.b1");
    let mut out = Vec::new();
    while out.len() < 5 || start.elapsed() < budget {
        let i = first + out.len();
        let r = i % reqs.len();
        std::thread::sleep(gap);
        let (_, us) = rec.time("infer.b1", 0, i as u64, || {
            scorer.score_requests_parallel(&reqs[r..r + 1], 0)
        });
        out.push(us);
    }
    out
}

/// Times the layers reachable in-process and returns their metrics;
/// `b1` holds the [`infer_b1`] timings taken alongside the traced replay.
pub fn sweep(
    s: &Setup,
    model: &LoadedModel,
    inp: &Inputs,
    rec: &mut Recorder,
    allocs: Option<AllocCounter>,
    b1: &[f64],
) -> Vec<Metric> {
    // The engine's thread count: all cores.
    let threads = 0;
    let mut m: Vec<Metric> = Vec::new();
    // Spans of in-process calls have no parent; each call is its own request.
    let root = 0;

    // snapshot: load, then compile the scorer.
    let mut load = Vec::new();
    let mut compile = Vec::new();
    for i in 0..5 {
        let (loaded, us) = rec.time("snapshot.load", root, i, || {
            load_snapshot(&s.snapshot).expect("loads")
        });
        load.push(us);
        let (_, us) = rec.time("infer.compile", root, i, || loaded.scorer(false));
        compile.push(us);
    }
    m.push(metric("snapshot.load_ms", median(&load) / 1e3, "ms"));
    m.push(metric("infer.compile_ms", median(&compile) / 1e3, "ms"));

    // server: request decoding on the workload's own bodies.
    let mut parse = Vec::new();
    for (i, body) in inp.single.iter().enumerate() {
        let (_, us) = rec.time("json.parse_score", root, i as u64, || {
            parse_score_instances(body)
        });
        parse.push(us);
    }
    m.push(metric("json.parse_score_us", median(&parse), "us"));

    // infer: batch 16 through the engine's scoring call (batch 1 is timed
    // alongside the traced replay).
    let scorer = model.scorer(false);
    let reqs: &[ScoreRequest] = &inp.requests;
    let b1_us = median(b1);
    m.push(metric("infer.b1_us", b1_us, "us"));
    let mut b16 = Vec::new();
    for i in 0..reps(b1_us * 6.0, 600.0, 7) {
        let st = (i * WARD) % (reqs.len() - WARD);
        let (_, us) = rec.time("infer.b16", root, i as u64, || {
            scorer.score_requests_parallel(&reqs[st..st + WARD], threads)
        });
        b16.push(us / WARD as f64);
    }
    m.push(metric("infer.b16_us_per_row", median(&b16), "us"));
    if let Some(count) = allocs {
        let (n, bytes) = count(&mut || {
            std::hint::black_box(scorer.score_requests_parallel(&reqs[..1], threads));
        });
        m.push(metric("infer.allocs_per_row", n as f64, "count"));
        m.push(metric("infer.alloc_bytes_per_row", bytes as f64, "bytes"));
    }

    // index: probe every anchor for one patient's state grid.
    let inf = model.inferencer();
    let pool = &model
        .model
        .discovery
        .as_ref()
        .expect("workload models discover cohorts")
        .pool;
    let index = CohortIndex::compile(pool);
    let detail = inf.score_one_with_cache(&reqs[0], &mut IndexCache::new());
    let grid = detail.state_grid.expect("state grid with cohorts");
    let (t, nf) = (inf.time_steps(), inf.n_features());
    let probe = |g: &[u8]| {
        (0..index.n_features())
            .map(|a| index.bitmap_words(a, g, t, nf).len())
            .sum::<usize>()
    };
    let (_, warm) = rec.time("index.probe", root, 0, || probe(&grid));
    let mut pr = Vec::new();
    for i in 0..reps(warm, 100.0, 50) {
        let (_, us) = rec.time("index.probe", root, i as u64, || probe(&grid));
        pr.push(us);
    }
    m.push(metric("index.probe_us", median(&pr), "us"));

    // stream: replay admissions event by event, scoring after each one as
    // `/ingest` with `score: true` does.
    let cfg = StreamConfig::for_inferencer(&inf, DEFAULT_HORIZON_HOURS);
    let budget = 40usize;
    let (mut ing, mut sc) = (Vec::new(), Vec::new());
    let (mut accepted, mut stale, mut full, mut reused) = (0u64, 0u64, 0u64, 0u64);
    'outer: for (si, events) in inp.streams.iter().enumerate() {
        let mut sess = StreamSession::new(cfg, model.scaler.clone());
        for (k, ev) in events.iter().enumerate() {
            if ing.len() >= budget {
                let (f, r) = sess.probe_stats();
                full += f;
                reused += r;
                break 'outer;
            }
            let id = (si * 10_000 + k) as u64;
            let (out, us) = rec.time("stream.ingest", root, id, || sess.ingest(*ev));
            ing.push(us);
            match out {
                Ok(o) if o.accepted => accepted += 1,
                Ok(_) => stale += 1,
                Err(e) => panic!("generated event rejected: {e}"),
            }
            let (_, us) = rec.time("stream.score", root, id, || sess.score(&inf));
            sc.push(us);
        }
        let (f, r) = sess.probe_stats();
        full += f;
        reused += r;
    }
    m.push(metric("stream.ingest_us", median(&ing), "us"));
    m.push(metric("stream.score_us", median(&sc), "us"));
    m.push(metric(
        "stream.probe_reuse_ratio",
        reused as f64 / (full + reused).max(1) as f64,
        "ratio",
    ));
    m.push(metric(
        "stream.stale_frac",
        stale as f64 / (accepted + stale).max(1) as f64,
        "ratio",
    ));

    // tensor: the FIL Q/K/V projection, (b x d_embed) . (d_embed x d_embed),
    // issued 3F times per time step — the trunk's most frequent GEMM.
    let d = model.model.cfg.d_embed;
    let w = Matrix::from_fn(d, d, |i, j| ((i * 7 + j * 3) % 11) as f32 * 0.01);
    for (name, b) in [("tensor.gemm_b1_ns", 1usize), ("tensor.gemm_b16_ns", WARD)] {
        let x = Matrix::from_fn(b, d, |i, j| ((i + j) % 5) as f32 * 0.1);
        let calls = 2000;
        let mut per = Vec::new();
        for i in 0..15 {
            let (_, us) = rec.time(name, root, i, || {
                let mut acc = 0.0f32;
                for _ in 0..calls {
                    acc += std::hint::black_box(&x)
                        .matmul(std::hint::black_box(&w))
                        .as_slice()[0];
                }
                acc
            });
            per.push(us * 1e3 / calls as f64);
        }
        m.push(metric(name, median(&per), "ns"));
    }

    // train: what `train_cohortnet` reported, per step.
    let tm = &s.timing;
    let dt = &tm.discovery;
    m.push(metric("train.step1_s", tm.step1.total_sec, "s"));
    m.push(metric("train.collect_s", dt.collect_sec, "s"));
    m.push(metric("train.fit_s", dt.fit_sec, "s"));
    m.push(metric("train.assign_s", dt.assign_sec, "s"));
    m.push(metric("train.mine_s", dt.mine_sec, "s"));
    m.push(metric("train.represent_s", dt.represent_sec, "s"));
    m.push(metric("train.step4_s", tm.step4.total_sec, "s"));
    m.push(metric(
        "train.sec_per_batch",
        (tm.step1.sec_per_batch + tm.step4.sec_per_batch) / 2.0,
        "s",
    ));
    m.push(metric("discovery.cohorts", s.cohorts as f64, "count"));
    m
}

/// Sum of the step times `train_cohortnet` reports, seconds.
pub fn train_steps_sum(s: &Setup) -> f64 {
    let tm = &s.timing;
    tm.step1.total_sec + tm.discovery.step2_sec() + tm.discovery.step3_sec() + tm.step4.total_sec
}
