//! Order statistics of client latencies, and the counters read from a
//! daemon's `stats` answer.

use optimist::serve::Json;

/// The median of `values`, averaging the two middle values of an even
/// count.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// The mean of the values ranked within the middle `share` of `values`
/// (at least the middle one): a median estimate that moves smoothly when
/// the values cluster with gaps between the clusters, where the plain
/// order statistic jumps from one cluster to the next.
pub fn central_mean(values: &[f64], share: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let lo = (n * (0.5 - share / 2.0)).floor() as usize;
    let hi = ((n * (0.5 + share / 2.0)).ceil() as usize).max(lo + 1);
    let middle = &sorted[lo..hi.min(sorted.len())];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The tail: the highest nearest-rank percentile that leaves at least
/// ten samples beyond it. Returns `(value, percentile)`, or `None` with
/// fewer than eleven samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    let rank = n.checked_sub(10).filter(|&r| r >= 1)?;
    Some((sorted[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// The counters the expectation checks and per-layer ratios use.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub alloc: f64,
    pub hits: f64,
    pub misses: f64,
    pub memo_hits: f64,
    pub store_hits: f64,
    pub store_misses: f64,
    pub store_errors: f64,
    pub failovers: f64,
    pub queue_samples: f64,
    pub queue_total: f64,
    pub busy_max: f64,
}

fn num(v: &Json, path: &[&str]) -> f64 {
    let mut cur = Some(v);
    for key in path {
        cur = cur.and_then(|c| c.get(key));
    }
    cur.and_then(Json::as_f64).unwrap_or(0.0)
}

impl Counters {
    pub fn read(stats: &Json) -> Counters {
        let failovers = stats
            .get("store")
            .and_then(|s| s.get("peers"))
            .and_then(Json::as_arr)
            .map_or(0.0, |peers| {
                peers.iter().map(|p| num(p, &["failovers"])).sum()
            });
        Counters {
            alloc: num(stats, &["requests", "alloc"]),
            hits: num(stats, &["cache", "hits"]),
            misses: num(stats, &["cache", "misses"]),
            memo_hits: num(stats, &["cache", "memo_hits"]),
            store_hits: num(stats, &["store", "hits"]),
            store_misses: num(stats, &["store", "misses"]),
            store_errors: num(stats, &["store", "errors"]),
            failovers,
            queue_samples: num(stats, &["stream", "pool_queue_depth", "count"]),
            queue_total: num(stats, &["stream", "pool_queue_depth", "total_jobs"]),
            busy_max: num(stats, &["workers", "high_water"]),
        }
    }

    /// What happened between `before` and `self` on one daemon.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            alloc: self.alloc - before.alloc,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            memo_hits: self.memo_hits - before.memo_hits,
            store_hits: self.store_hits - before.store_hits,
            store_misses: self.store_misses - before.store_misses,
            store_errors: self.store_errors - before.store_errors,
            failovers: self.failovers - before.failovers,
            queue_samples: self.queue_samples - before.queue_samples,
            queue_total: self.queue_total - before.queue_total,
            busy_max: self.busy_max,
        }
    }

    /// Two daemons' counters together.
    pub fn plus(&self, o: &Counters) -> Counters {
        Counters {
            alloc: self.alloc + o.alloc,
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            memo_hits: self.memo_hits + o.memo_hits,
            store_hits: self.store_hits + o.store_hits,
            store_misses: self.store_misses + o.store_misses,
            store_errors: self.store_errors + o.store_errors,
            failovers: self.failovers + o.failovers,
            queue_samples: self.queue_samples + o.queue_samples,
            queue_total: self.queue_total + o.queue_total,
            busy_max: self.busy_max.max(o.busy_max),
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    pub fn memo_hit_ratio(&self) -> f64 {
        ratio(self.memo_hits, self.alloc)
    }

    pub fn store_hit_ratio(&self) -> f64 {
        ratio(self.store_hits, self.store_hits + self.store_misses)
    }

    pub fn queue_depth(&self) -> f64 {
        ratio(self.queue_total, self.queue_samples)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
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
    fn tail_leaves_at_least_ten_samples_beyond_it() {
        for n in 11..400 {
            let sorted: Vec<f64> = (0..n).map(f64::from).collect();
            let (value, pct) = tail(&sorted).expect("eleven or more samples have a tail");
            let beyond = sorted.iter().filter(|&&v| v > value).count();
            assert_eq!(beyond, 10, "n={n}");
            assert!(pct < 100.0 && pct > 0.0);
        }
        assert!(tail(&[1.0; 10]).is_none());
    }

    #[test]
    fn central_mean_averages_the_middle_share() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(central_mean(&v, 0.2), 50.5);
        assert_eq!(central_mean(&[7.0], 0.2), 7.0);
        assert_eq!(central_mean(&[1.0, 2.0, 9.0], 0.2), 2.0);
    }

    #[test]
    fn median_averages_the_middle_of_an_even_count() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
