//! The benchmark's own arithmetic: percentiles, the tail-sample rule, the
//! rate-ladder verdict and the unattributed remainder. Kept free of I/O so
//! the unit tests below pin every rule a reported number depends on.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;
/// The tail percentile reported and held to the ladder's latency limit.
pub const TAIL: f64 = 95.0;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly after the nearest rank of `p`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    n - nearest_rank(p, n)
}

/// Whether percentile `p` of `n` samples may be reported: at least
/// [`MIN_BEYOND`] samples must lie beyond it.
pub fn tail_reportable(p: f64, n: usize) -> bool {
    n > 0 && samples_beyond(p, n) >= MIN_BEYOND
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whether the client-side backlog grew over a run. `backlog[i]` is the
/// number of requests due but not yet answered, sampled at the i-th
/// scheduled arrival. The backlog grows when the mean of the last third
/// exceeds the mean of the first third by more than `slack` requests.
pub fn backlog_grows(backlog: &[usize], slack: f64) -> bool {
    let third = backlog.len() / 3;
    if third == 0 {
        return false;
    }
    let avg = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    avg(&backlog[backlog.len() - third..]) > avg(&backlog[..third]) + slack
}

/// One rung of a rate ladder, as measured.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Completed requests per second of the rung's schedule span.
    pub achieved_rps: f64,
    /// Latency of every scheduled request in ms; a request that failed or
    /// was never sent is `f64::INFINITY` (it misses any limit).
    pub latencies_ms: Vec<f64>,
    /// Whether the backlog grew over the rung.
    pub backlog_grew: bool,
}

impl Rung {
    /// The rung meets `limit_ms` at the [`TAIL`] percentile and its
    /// backlog did not grow.
    pub fn passes(&self, limit_ms: f64) -> bool {
        !self.latencies_ms.is_empty()
            && !self.backlog_grew
            && percentile(&sorted(&self.latencies_ms), TAIL) <= limit_ms
    }
}

/// Consecutive failing rungs after which an ascending ladder stops: one
/// failure may be a passing stall of the host, two mark the capacity.
pub const FAILS_TO_STOP: usize = 2;

/// Whether an ascending ladder is done: its last [`FAILS_TO_STOP`] rungs
/// all failed.
pub fn ladder_done(rungs: &[Rung], limit_ms: f64) -> bool {
    rungs.len() >= FAILS_TO_STOP
        && rungs[rungs.len() - FAILS_TO_STOP..]
            .iter()
            .all(|r| !r.passes(limit_ms))
}

/// The highest sustained rate of a ladder: the achieved rate of the
/// highest offered rate that passes. `None` when no rung passes.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.passes(limit_ms))
        .max_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps))
        .map(|r| r.achieved_rps)
}

/// Mean end-to-end latency minus the parts the layers account for: the
/// mean client connection wait plus the sum of the mean server stages.
pub fn unattributed_remainder(mean_e2e: f64, mean_conn_wait: f64, stage_means: &[f64]) -> f64 {
    mean_e2e - mean_conn_wait - stage_means.iter().sum::<f64>()
}

/// Self time of a span: its duration minus the union of the parts of its
/// interval that its children cover. `children` are `(start, end)` pairs.
pub fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        // Rank rounds up: p50 of 5 samples is the 3rd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 is rank 990: exactly 10 beyond.
        assert_eq!(samples_beyond(99.0, 1000), 10);
        assert!(tail_reportable(99.0, 1000));
        assert!(!tail_reportable(99.0, 999));
        assert!(!tail_reportable(99.0, 0));
        // p95 needs 200, p50 only 20.
        assert!(tail_reportable(TAIL, 200));
        assert!(!tail_reportable(TAIL, 199));
        assert!(tail_reportable(50.0, 20));
        assert!(!tail_reportable(50.0, 19));
    }

    fn rung(offered: f64, lat: f64, n: usize, grew: bool) -> Rung {
        Rung {
            offered_rps: offered,
            achieved_rps: offered * 0.99,
            latencies_ms: vec![lat; n],
            backlog_grew: grew,
        }
    }

    #[test]
    fn ladder_max_rate() {
        let ladder = vec![
            rung(100.0, 5.0, 200, false),
            rung(115.0, 6.0, 200, false),
            rung(132.0, 50.0, 200, false),
            rung(152.0, 7.0, 200, false),
            rung(175.0, 50.0, 200, false),
            rung(201.0, 60.0, 200, true),
        ];
        // One failing rung (a stall) does not end the ladder; two do.
        assert!(!ladder_done(&ladder[..3], 20.0));
        assert!(!ladder_done(&ladder[..4], 20.0));
        assert!(ladder_done(&ladder, 20.0));
        // The highest passing rung counts, even above a failed one.
        assert_eq!(max_rate(&ladder, 20.0), Some(152.0 * 0.99));
        assert_eq!(max_rate(&ladder[4..], 20.0), None);
        // Exactly 5% over the limit still meets p95; one more does not.
        let mut edge = rung(100.0, 5.0, 200, false);
        for l in &mut edge.latencies_ms[..10] {
            *l = f64::INFINITY;
        }
        assert!(edge.passes(20.0));
        edge.latencies_ms[10] = f64::INFINITY;
        assert!(!edge.passes(20.0));
    }

    #[test]
    fn growing_backlog_fails_a_rung() {
        assert!(!rung(100.0, 5.0, 200, true).passes(20.0));
        let steady = [1, 2, 1, 2, 1, 2, 1, 2, 1];
        assert!(!backlog_grows(&steady, 2.0));
        let growing: Vec<usize> = (0..30).collect();
        assert!(backlog_grows(&growing, 2.0));
        // Too few samples to judge.
        assert!(!backlog_grows(&[0, 9], 2.0));
    }

    #[test]
    fn remainder_and_self_time() {
        let r = unattributed_remainder(10.0, 1.5, &[0.5, 2.0, 5.0]);
        assert!((r - 1.0).abs() < 1e-12);
        // Overlapping children are counted once; parts outside are clipped.
        let st = self_time(0.0, 10.0, &[(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]);
        assert!((st - 6.0).abs() < 1e-12);
        assert_eq!(self_time(0.0, 4.0, &[]), 4.0);
    }
}
