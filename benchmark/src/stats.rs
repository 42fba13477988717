//! The estimator arithmetic: percentiles, chunks, the quiet decile, and
//! the layer reconciliation.
//!
//! A phase is cut into chunks so that a neighbour's burst lands in some
//! of them and not in a whole number; see [`quiet_decile`] for what is
//! then done with the chunks.

/// The `p`-th percentile (0–100) by nearest rank on a sorted copy; 0 for
/// an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median (mean of the two middle values for an even count); 0 for
/// an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One timed sample of a phase: when it completed (seconds from the
/// phase start) and how long it took (microseconds).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub at_s: f64,
    pub micros: f64,
}

/// How many chunks to cut `expected` samples over `seconds` into: about a
/// hundred samples a chunk (so a chunk's p90 has ten beyond it), at most
/// four chunks a second, at least one.
pub fn chunk_count(expected: f64, seconds: f64) -> usize {
    let by_samples = (expected / 100.0).floor();
    by_samples.clamp(1.0, (seconds * 4.0).max(1.0)) as usize
}

/// The `q`-quantile (0–1) with linear interpolation between ranks; 0 for
/// an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Which way a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The run's value of a chunked metric: the chunk values of all
/// instances pooled, and of those the decile on the *good* side (the
/// 10th percentile of a time, the 90th of a rate).
///
/// On a shared two-core box interference comes in bursts of a few
/// hundred milliseconds to a few seconds and only ever makes a chunk
/// worse, so the median chunk follows the neighbours while the good
/// decile follows the program: it is what the run measured while it was
/// left alone. A decile, not the single best chunk, so that one lucky
/// chunk does not own the number either.
pub fn quiet_decile(chunks: &[f64], better: Better) -> f64 {
    quantile(
        chunks,
        match better {
            Better::Lower => 0.1,
            Better::Higher => 0.9,
        },
    )
}

/// Each chunk's `p`-th percentile: `[0, seconds)` cut into `chunks`
/// equal windows by sample time; a sample past the end (a reply that
/// straggled in) falls into the last window; empty windows are dropped.
pub fn chunk_percentiles(samples: &[Sample], seconds: f64, chunks: usize, p: f64) -> Vec<f64> {
    let chunks = chunks.max(1);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); chunks];
    for s in samples {
        let i = ((s.at_s / seconds) * chunks as f64) as usize;
        windows[i.min(chunks - 1)].push(s.micros);
    }
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, p))
        .collect()
}

/// Completions per second over `[0, seconds)`; samples past the end are
/// not counted — a phase measures what completed inside it.
pub fn rate(samples: &[Sample], seconds: f64) -> f64 {
    samples.iter().filter(|s| s.at_s < seconds).count() as f64 / seconds
}

/// The per-workload reconciliation line: what the replay attributes to
/// layers, what the server says a request took, what the client saw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reconciliation {
    /// Sum of the replayed layer times.
    pub layer_sum_us: f64,
    /// The server's own per-request service time.
    pub service_us: f64,
    /// The paced client median.
    pub client_p50_us: f64,
    /// Service time no replayed layer accounts for.
    pub unattributed_us: f64,
    /// Client time outside the server's service time: sockets, the
    /// worker's idle nap, queueing.
    pub residual_us: f64,
}

pub fn reconcile(layer_sum_us: f64, service_us: f64, client_p50_us: f64) -> Reconciliation {
    Reconciliation {
        layer_sum_us,
        service_us,
        client_p50_us,
        unattributed_us: service_us - layer_sum_us,
        residual_us: client_p50_us - service_us,
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median_on_small_samples() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(min(&[3.0, 2.0, 9.0]), 2.0);
    }

    #[test]
    fn a_burst_owns_its_own_chunks_and_not_the_quiet_decile() {
        // Ten one-second chunks of 1 µs samples; three of them are all
        // 1000 µs.
        let mut samples = Vec::new();
        for i in 0..1000 {
            let at_s = i as f64 / 100.0;
            let micros = if (2.0..5.0).contains(&at_s) {
                1000.0
            } else {
                1.0
            };
            samples.push(Sample { at_s, micros });
        }
        // A straggler lands in the last window.
        samples.push(Sample {
            at_s: 10.5,
            micros: 1.0,
        });
        let p50s = chunk_percentiles(&samples, 10.0, 10, 50.0);
        assert_eq!(p50s.len(), 10);
        assert_eq!(p50s.iter().filter(|v| **v == 1000.0).count(), 3);
        assert_eq!(quiet_decile(&p50s, Better::Lower), 1.0);
        // The whole-phase p90 would have been owned by the burst.
        let all: Vec<f64> = samples.iter().map(|s| s.micros).collect();
        assert_eq!(percentile(&all, 90.0), 1000.0);
    }

    #[test]
    fn quantiles_interpolate_and_the_quiet_decile_knows_its_side() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.25), 2.5);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quiet_decile(&v, Better::Lower), 1.0);
        assert_eq!(quiet_decile(&v, Better::Higher), 9.0);
    }

    #[test]
    fn rate_ignores_stragglers() {
        let mut samples: Vec<Sample> = (0..30)
            .map(|k| Sample {
                at_s: k as f64 / 10.0,
                micros: 1.0,
            })
            .collect();
        samples.push(Sample {
            at_s: 3.5,
            micros: 1.0,
        });
        assert_eq!(rate(&samples, 3.0), 10.0);
    }

    #[test]
    fn chunk_count_wants_a_hundred_samples_a_chunk() {
        assert_eq!(chunk_count(9000.0, 3.0), 12);
        assert_eq!(chunk_count(180.0, 3.0), 1);
        assert_eq!(chunk_count(750.0, 3.0), 7);
        assert_eq!(chunk_count(0.0, 3.0), 1);
    }

    #[test]
    fn reconciliation_closes_by_construction() {
        let r = reconcile(40.0, 55.0, 220.0);
        assert_eq!(r.unattributed_us, 15.0);
        assert_eq!(r.residual_us, 165.0);
        assert_eq!(
            r.layer_sum_us + r.unattributed_us + r.residual_us,
            r.client_p50_us
        );
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
