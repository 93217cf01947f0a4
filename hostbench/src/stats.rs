//! Order statistics and the simulated-counter roll-up.

use cohort::scenarios::RunResult;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `v` without the lowest and highest `trim` share of its values
/// (at least one value is kept); 0 when empty.
pub fn trimmed_mean(v: &[f64], trim: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = ((s.len() as f64 * trim) as usize).min((s.len() - 1) / 2);
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Harrell–Davis estimate of percentile `p` (0 < p < 100) of `v`: the mean
/// of all order statistics, each weighted by the mass of
/// Beta(q(n+1), (1-q)(n+1)), q = p/100, over its rank's share of [0, 1].
/// A single order statistic jumps when the calls of a pass have a gap in
/// cost at that rank and host speed moves the gap by one rank; this
/// estimate moves smoothly.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    /// Midpoint-rule steps per rank.
    const STEPS: usize = 32;
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let q = p / 100.0;
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let h = 1.0 / (n * STEPS) as f64;
    let log_density: Vec<f64> = (0..n * STEPS)
        .map(|k| {
            let t = (k as f64 + 0.5) * h;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    // Scaled by the peak, so that large n does not underflow.
    let peak = log_density.iter().copied().fold(f64::MIN, f64::max);
    let (mut sum, mut total) = (0.0, 0.0);
    for (x, rank) in s.iter().zip(log_density.chunks(STEPS)) {
        let w: f64 = rank.iter().map(|l| (l - peak).exp()).sum();
        sum += w * x;
        total += w;
    }
    sum / total
}

/// Passes whose samples fix the tail percentile.
pub const TAIL_PASSES: usize = 8;

/// The tail percentile for a workload with `per_pass` calls per pass: the
/// highest of p99.9/p99/p95/p90/p75 that leaves at least 10 samples
/// beyond it in [`TAIL_PASSES`] passes (p50 when none does). Fixing it by
/// the pass shape, not by how many passes fit the window, keeps a faster
/// program from being measured at a higher percentile.
pub fn tail_percentile(per_pass: usize) -> f64 {
    let n = per_pass * TAIL_PASSES;
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n >= ((p / 100.0) * n as f64).ceil() as usize + 10)
        .unwrap_or(50.0)
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated work summed over every run of a pass, per component class.
/// Every field is a deterministic function of the simulated runs.
#[derive(Default)]
pub struct SimCounts {
    /// Σ end-to-end simulated cycles.
    pub cycles: u64,
    /// Σ cycles the step kernel executed.
    pub stepped: u64,
    /// Σ cycles the lookahead fast-forwarded.
    pub ff: u64,
    /// `(class.counter, Σ value)` over every component scope, e.g.
    /// `("core.instret", 1234)` from `core#1.instret` + `core#4.instret`.
    pub counters: Vec<(String, u64)>,
    /// Per run: the worst engine's input-queue occupancy p50 (runs
    /// without engines are skipped).
    pub occupancy_p50: Vec<u64>,
}

impl SimCounts {
    /// Adds one run.
    pub fn add(&mut self, r: &RunResult) {
        self.cycles += r.cycles;
        self.stepped += r.barrier_activations;
        self.ff += r.ff_cycles;
        for (key, value) in stats_counters(&r.stats_json) {
            let (scope, name) = key.split_once('.').unwrap_or((key, ""));
            let class = scope.split('#').next().unwrap_or(scope);
            let k = format!("{class}.{name}");
            match self.counters.iter_mut().find(|(n, _)| *n == k) {
                Some((_, v)) => *v += value,
                None => self.counters.push((k, value)),
            }
        }
        let occ = r
            .histograms
            .iter()
            .filter(|(n, _)| n.ends_with("in_queue_occupancy"))
            .map(|(_, h)| h.p50)
            .max();
        if let Some(o) = occ {
            self.occupancy_p50.push(o);
        }
    }

    /// A summed counter (`class.name`), 0 when absent.
    pub fn get(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == key)
            .map_or(0, |(_, v)| *v)
    }

    /// `hits / (hits + misses)`, 0 when both are 0.
    pub fn ratio(&self, hits: &str, misses: &str) -> f64 {
        let h = self.get(hits) as f64;
        let total = h + self.get(misses) as f64;
        if total == 0.0 {
            0.0
        } else {
            h / total
        }
    }
}

/// The `"counters"` object of a `stats_json` snapshot as `(key, value)`.
fn stats_counters(json: &str) -> impl Iterator<Item = (&str, u64)> {
    let body = json
        .split_once("\"counters\": {")
        .map_or("", |(_, rest)| rest.split_once('}').map_or("", |(b, _)| b));
    body.split(',').filter_map(|entry| {
        let (k, v) = entry.split_once(':')?;
        Some((k.trim().trim_matches('"'), v.trim().parse().ok()?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(42), 95.0);
        assert_eq!(tail_percentile(56), 95.0);
        assert_eq!(tail_percentile(1024), 99.0);
        assert_eq!(tail_percentile(7), 75.0);
        assert_eq!(tail_percentile(1), 50.0);
    }

    #[test]
    fn percentile_is_smooth_and_symmetric() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((percentile(&v, 50.0) - 5.0).abs() < 1e-9);
        assert!(percentile(&v, 25.0) < percentile(&v, 50.0));
        assert!(percentile(&v, 95.0) < 9.0);
        assert_eq!(percentile(&[4.0; 1024], 99.0), 4.0);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
        // A gap next to the median rank: the estimate sits inside the gap
        // instead of on one of its edges.
        let gap: Vec<f64> = (0..48).map(|i| if i < 24 { 4.0 } else { 7.0 }).collect();
        let m = percentile(&gap, 50.0);
        assert!(m > 4.5 && m < 6.5, "{m}");
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v, 0.1), 5.5);
        assert_eq!(
            trimmed_mean(&[1.0, 2.0, 100.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], 0.1),
            5.5
        );
        assert_eq!(trimmed_mean(&[7.0], 0.4), 7.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn counters_parse_from_stats_json() {
        let json = "{\n  \"counters\": {\n    \"core#1.instret\": 7,\n    \"noc.flits\": 3\n  },\n  \"histograms\": {}}";
        let got: Vec<_> = stats_counters(json).collect();
        assert_eq!(got, vec![("core#1.instret", 7), ("noc.flits", 3)]);
    }
}
