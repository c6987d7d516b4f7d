//! Sample statistics and the open-loop arrival schedule.
//!
//! Percentiles use the nearest-rank rule on a sorted copy and always travel
//! with their sample count, so a p95 over 25 samples is visibly weaker than
//! one over 1500.

use std::time::{Duration, Instant};

/// A percentile summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples summarised.
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    /// How many samples lie strictly above the p95 value.
    pub beyond_p95: usize,
}

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// `[0, 1]`: the smallest sample with at least `q` of the samples at or
/// below it. `None` for an empty set.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median and p95 of `samples`, with the sample count. An empty set
/// summarises to zeros with `n == 0`.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 0.50).unwrap_or(0.0);
    let p95 = percentile(&sorted, 0.95).unwrap_or(0.0);
    Summary {
        n: sorted.len(),
        p50,
        p95,
        beyond_p95: sorted.iter().filter(|&&v| v > p95).count(),
    }
}

/// Arithmetic mean of `samples`; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median of `samples` (nearest rank); 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// Values grouped into consecutive windows of `width` covering `span`, by
/// each sample's offset from the start of the span. Samples past the last
/// whole window are left out.
pub fn windows(samples: &[(Duration, f64)], width: Duration, span: Duration) -> Vec<Vec<f64>> {
    let n = (span.as_secs_f64() / width.as_secs_f64()).floor() as usize;
    let mut out = vec![Vec::new(); n];
    for &(at, v) in samples {
        let i = (at.as_secs_f64() / width.as_secs_f64()).floor() as usize;
        if let Some(w) = out.get_mut(i) {
            w.push(v);
        }
    }
    out
}

/// Percentiles taken per window, then the median across windows: one
/// disturbed window moves the result by at most one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub windows: usize,
    /// Fewest samples in any window.
    pub min_samples: usize,
    pub p50: f64,
    pub p95: f64,
}

pub fn windowed_summary(windows: &[Vec<f64>]) -> Windowed {
    let per: Vec<Summary> = windows.iter().map(|w| summarize(w)).collect();
    Windowed {
        windows: per.len(),
        min_samples: per.iter().map(|s| s.n).min().unwrap_or(0),
        p50: median(&per.iter().map(|s| s.p50).collect::<Vec<_>>()),
        p95: median(&per.iter().map(|s| s.p95).collect::<Vec<_>>()),
    }
}

/// Median number of samples per window, as a rate per second.
pub fn windowed_rate(windows: &[Vec<f64>], width: Duration) -> f64 {
    let counts: Vec<f64> = windows.iter().map(|w| w.len() as f64).collect();
    median(&counts) / width.as_secs_f64()
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// An open-loop arrival schedule: arrivals fall due at fixed offsets from
/// `start`, whether or not earlier arrivals have been served.
#[derive(Debug, Clone)]
pub struct Schedule {
    start: Instant,
    offsets: Vec<Duration>,
    /// Mean time between arrivals.
    interval: Duration,
    next: usize,
}

impl Schedule {
    /// Arrivals at the given offsets (ascending) from `start`.
    pub fn from_offsets(start: Instant, offsets: Vec<Duration>, interval: Duration) -> Schedule {
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Schedule {
            start,
            offsets,
            interval,
            next: 0,
        }
    }

    /// Poisson arrivals at `rate` per second for `length`: exponential gaps
    /// drawn from `seed`, so the same seed gives the same schedule. Random
    /// gaps keep the arrivals from locking into step with any periodic
    /// loop inside the system under test.
    pub fn poisson(start: Instant, rate: f64, length: Duration, seed: u64) -> Schedule {
        assert!(rate > 0.0, "open-loop rate must be positive");
        let mut state = seed;
        let mut at = 0.0;
        let mut offsets = Vec::new();
        loop {
            // Uniform in (0, 1] from the top 53 bits of a splitmix64 draw.
            let u = ((splitmix64(&mut state) >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += -u.ln() / rate;
            if at >= length.as_secs_f64() {
                break;
            }
            offsets.push(Duration::from_secs_f64(at));
        }
        Schedule::from_offsets(start, offsets, Duration::from_secs_f64(1.0 / rate))
    }

    /// Mean time between arrivals.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The next arrival `(index, due)` if it is due at `now`.
    pub fn pop_due(&mut self, now: Instant) -> Option<(u64, Instant)> {
        let due = self.next_due()?;
        if due > now {
            return None;
        }
        let i = self.next as u64;
        self.next += 1;
        Some((i, due))
    }

    /// When the next arrival falls due; `None` once the schedule is spent.
    pub fn next_due(&self) -> Option<Instant> {
        self.offsets.get(self.next).map(|&o| self.start + o)
    }

    /// True once every arrival has been handed out.
    pub fn done(&self) -> bool {
        self.next >= self.offsets.len()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How late the generator ran: for each arrival, the time between its due
/// time and the moment the generator first tried to submit it.
#[derive(Debug, Default, Clone)]
pub struct LagLog {
    lags_ms: Vec<f64>,
}

impl LagLog {
    /// Record that an arrival due at `due` was first attempted at `at`
    /// (an attempt before the due time counts as zero lag).
    pub fn record(&mut self, due: Instant, at: Instant) {
        self.lags_ms.push(ms(at.saturating_duration_since(due)));
    }

    /// Lag percentiles over every recorded arrival, in milliseconds.
    pub fn summary(&self) -> Summary {
        summarize(&self.lags_ms)
    }

    /// The generator fell behind when its p95 lag exceeds the mean gap
    /// between arrivals: arrivals then bunch up instead of arriving at the
    /// offered rate.
    pub fn fell_behind(&self, interval: Duration) -> bool {
        self.summary().p95 > ms(interval)
    }
}

/// Median time of `f` over repetitions filling about `budget`.
pub fn time_median(budget: Duration, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    Duration::from_secs_f64(median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
    }

    #[test]
    fn summary_states_its_sample_count() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p95, 949.0);
        assert_eq!(s.beyond_p95, 50);
        // Twenty samples leave only one beyond the p95.
        let few: Vec<f64> = (0..20).map(f64::from).collect();
        let s = summarize(&few);
        assert_eq!((s.n, s.beyond_p95), (20, 1));
        assert_eq!(summarize(&[]).n, 0);
    }

    #[test]
    fn mean_moves_smoothly_where_the_median_jumps() {
        // Two modes 2 ms apart, as the serve node's 2 ms loop makes them:
        // shifting 2% of the samples between the modes moves the median
        // from one mode to the other but the mean by only 2% of the gap.
        let mix = |low: usize| -> Vec<f64> {
            (0..100).map(|i| if i < low { 3.5 } else { 5.5 }).collect()
        };
        assert_eq!(median(&mix(51)), 3.5);
        assert_eq!(median(&mix(49)), 5.5);
        assert!((mean(&mix(51)) - 4.48).abs() < 1e-9);
        assert!((mean(&mix(49)) - 4.52).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn windows_take_medians_of_per_window_percentiles() {
        let sec = Duration::from_secs(1);
        // Three one-second windows of 100 samples; the middle one is
        // disturbed, and a sample past the span is ignored.
        let mut samples = Vec::new();
        for w in 0..3u32 {
            for i in 0..100u32 {
                let at = sec * w + Duration::from_millis(10) * i;
                let v = if w == 1 {
                    100.0 + f64::from(i)
                } else {
                    f64::from(i)
                };
                samples.push((at, v));
            }
        }
        samples.push((sec * 3, 1e9));
        let ws = windows(&samples, sec, sec * 3);
        assert_eq!(
            ws.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![100, 100, 100]
        );
        let s = windowed_summary(&ws);
        assert_eq!((s.windows, s.min_samples), (3, 100));
        assert_eq!((s.p50, s.p95), (49.0, 94.0));
        assert_eq!(windowed_rate(&ws, sec), 100.0);
        // A partial trailing window is not a window.
        assert_eq!(windows(&samples, sec, sec * 5 / 2).len(), 2);
    }

    #[test]
    fn schedule_releases_arrivals_when_due() {
        let t0 = Instant::now();
        let ms10 = Duration::from_millis(10);
        let offsets = (0..5u32).map(|i| ms10 * i).collect();
        let mut s = Schedule::from_offsets(t0, offsets, ms10);
        assert_eq!(s.interval(), ms10);
        // Nothing but arrival 0 is due at the start.
        assert_eq!(s.pop_due(t0), Some((0, t0)));
        assert_eq!(s.pop_due(t0), None);
        // A generator that wakes late finds every overdue arrival, each
        // keeping its own due time.
        let late = t0 + Duration::from_millis(35);
        let got: Vec<(u64, Instant)> = std::iter::from_fn(|| s.pop_due(late)).collect();
        assert_eq!(
            got,
            vec![(1, t0 + ms10), (2, t0 + ms10 * 2), (3, t0 + ms10 * 3)]
        );
        assert_eq!(s.next_due(), Some(t0 + ms10 * 4));
        assert_eq!(s.pop_due(t0 + Duration::from_secs(1)).map(|x| x.0), Some(4));
        assert!(s.done());
        assert_eq!(s.pop_due(t0 + Duration::from_secs(1)), None);
        assert_eq!(s.next_due(), None);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_keeps_its_rate() {
        let t0 = Instant::now();
        let len = Duration::from_secs(100);
        let a = Schedule::poisson(t0, 200.0, len, 7);
        let b = Schedule::poisson(t0, 200.0, len, 7);
        let c = Schedule::poisson(t0, 200.0, len, 8);
        assert_eq!(a.offsets, b.offsets);
        assert_ne!(a.offsets, c.offsets);
        assert_eq!(a.interval(), Duration::from_millis(5));
        // 20 000 arrivals expected; the count's standard deviation is 141.
        let n = a.offsets.len() as f64;
        assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals");
        assert!(a.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.offsets.last().is_some_and(|&o| o < len));
        // Exponential gaps: about e^-1 of them exceed the mean.
        let gaps: Vec<f64> = a
            .offsets
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let long = gaps.iter().filter(|&&g| g > 0.005).count() as f64 / gaps.len() as f64;
        assert!((long - (-1.0f64).exp()).abs() < 0.02, "{long}");
    }

    #[test]
    fn lag_counts_from_due_time_and_flags_a_late_generator() {
        let t0 = Instant::now();
        let interval = Duration::from_millis(10);
        let mut on_time = LagLog::default();
        let mut late = LagLog::default();
        for i in 0..100u32 {
            let due = t0 + interval * i;
            // Early attempts clamp to zero lag.
            on_time.record(due, due - Duration::from_micros(50).min(due - t0));
            on_time.record(due, due + Duration::from_millis(1));
            late.record(
                due,
                due + Duration::from_millis(if i % 10 == 0 { 25 } else { 2 }),
            );
        }
        let s = on_time.summary();
        assert_eq!(s.n, 200);
        assert!((s.p95 - 1.0).abs() < 1e-9);
        assert!(!on_time.fell_behind(interval));
        assert!((late.summary().p95 - 25.0).abs() < 1e-9);
        assert!(late.fell_behind(interval));
    }
}
