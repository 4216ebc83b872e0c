//! Lightweight measurement helpers: bucketed time series and summary
//! statistics, used by the EEM samplers, Kati's netload view, and the
//! experiment harness.

use comma_rt::ShedVec;

use crate::time::{SimDuration, SimTime};

/// A bucketed accumulator: values recorded within the same fixed-width time
/// bucket are summed, producing a rate series (e.g. bytes per 100 ms).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bucket: SimDuration,
    current_start: SimTime,
    current_sum: f64,
    samples: ShedVec<(SimTime, f64)>,
    enabled: bool,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        TimeSeries {
            bucket,
            current_start: SimTime::ZERO,
            current_sum: 0.0,
            samples: ShedVec::new(100_000),
            enabled: true,
        }
    }

    /// Enables or disables recording. A disabled series drops
    /// [`TimeSeries::record`]/[`TimeSeries::roll_to`] calls on the floor —
    /// no bucket state, no sample storage, no allocation. Throughput-bound
    /// consumers that never read the series (the sharded benchmarks) turn
    /// it off so per-delivery accounting stays heap-silent; interactive
    /// consumers (Kati's netload view, the EEM samplers) leave it on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Returns the bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Adds `value` at time `now`, rolling buckets forward as needed.
    ///
    /// Buckets are half-open `[start, start + bucket)`: a value recorded
    /// exactly on a bucket boundary first flushes the closing bucket and
    /// then lands in the newly-opened one (pinned by the
    /// `boundary_value_opens_new_bucket` regression test).
    pub fn record(&mut self, now: SimTime, value: f64) {
        if !self.enabled {
            return;
        }
        self.roll_to(now);
        self.current_sum += value;
    }

    /// Flushes any buckets that ended at or before `now` (with zero-fill).
    pub fn roll_to(&mut self, now: SimTime) {
        if !self.enabled {
            return;
        }
        while now >= self.current_start + self.bucket {
            self.samples.push((self.current_start, self.current_sum));
            self.current_start += self.bucket;
            self.current_sum = 0.0;
        }
    }

    /// Returns the completed samples as `(bucket_start, sum)` pairs.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }
}

/// Online summary statistics (count/mean/min/max and population variance via
/// Welford's algorithm).
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation, or 0 if fewer than two observations.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_roll_and_zero_fill() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(100));
        ts.record(SimTime::from_millis(50), 10.0);
        ts.record(SimTime::from_millis(60), 5.0);
        // Jump three buckets ahead: bucket 0 flushed with 15, buckets 1-2
        // flushed with 0.
        ts.record(SimTime::from_millis(350), 7.0);
        let s = ts.samples();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0], (SimTime::ZERO, 15.0));
        assert_eq!(s[1].1, 0.0);
        assert_eq!(s[2].1, 0.0);
        ts.roll_to(SimTime::from_millis(400));
        assert_eq!(ts.samples().last().unwrap().1, 7.0);
    }

    #[test]
    fn boundary_value_opens_new_bucket() {
        // Regression: a value recorded exactly at `current_start + bucket`
        // must open the new bucket, not swell the closing one.
        let mut ts = TimeSeries::new(SimDuration::from_millis(100));
        ts.record(SimTime::from_millis(50), 10.0);
        ts.record(SimTime::from_millis(100), 7.0);
        let s = ts.samples();
        assert_eq!(s.len(), 1, "exactly one bucket closed");
        assert_eq!(s[0], (SimTime::ZERO, 10.0), "closing bucket excludes it");
        ts.roll_to(SimTime::from_millis(200));
        assert_eq!(
            ts.samples()[1],
            (SimTime::from_millis(100), 7.0),
            "the boundary value is the first entry of the new bucket"
        );
    }

    #[test]
    fn summary_statistics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        let empty = Summary::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.min(), 0.0);
    }
}
