//! Retransmission-timeout estimation: Jacobson/Karels smoothed RTT with
//! Karn's rule and exponential backoff (the behaviour §2.2 of the thesis
//! describes).

use comma_netsim::time::SimDuration;

/// RTO estimator state.
///
/// Maintains the smoothed round-trip time (SRTT) and mean deviation
/// (RTTVAR) in microseconds using the standard gains (1/8, 1/4), and
/// produces `RTO = SRTT + 4·RTTVAR`, clamped to configured bounds. Karn's
/// rule is applied by the caller: retransmitted segments are never sampled.
#[derive(Clone, Copy, Debug)]
pub struct RtoEstimator {
    srtt: Option<f64>,
    rttvar: f64,
    min: SimDuration,
    max: SimDuration,
    initial: SimDuration,
    backoff_shift: u32,
}

impl RtoEstimator {
    /// Creates an estimator with the given initial RTO and clamp bounds.
    pub fn new(initial: SimDuration, min: SimDuration, max: SimDuration) -> Self {
        RtoEstimator {
            srtt: None,
            rttvar: 0.0,
            min,
            max,
            initial,
            backoff_shift: 0,
        }
    }

    /// Feeds one RTT sample (a non-retransmitted segment's ACK delay).
    pub fn sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_micros() as f64;
        match self.srtt {
            None => {
                // RFC 6298 §2.2 initial sample.
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                let err = (r - srtt).abs();
                self.rttvar = 0.75 * self.rttvar + 0.25 * err;
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        // A successful sample also ends any backoff sequence.
        self.backoff_shift = 0;
    }

    /// Doubles the effective RTO (called on each retransmission timeout).
    pub fn backoff(&mut self) {
        if self.backoff_shift < 12 {
            self.backoff_shift += 1;
        }
    }

    /// Clears the exponential backoff. Only the handshake completion calls
    /// this: per RFC 6298 §5.7 a data ACK alone must not collapse a
    /// backed-off timer (the ACK may cover a retransmission with no
    /// measurable RTT under Karn's rule); data-path backoff ends through
    /// [`RtoEstimator::sample`] when a fresh measurement arrives.
    pub fn clear_backoff(&mut self) {
        self.backoff_shift = 0;
    }

    /// Returns the current backoff shift (0 = no backoff).
    pub fn backoff_shift(&self) -> u32 {
        self.backoff_shift
    }

    /// Folds the estimator (smoothed RTT, deviation, backoff) into a
    /// canonical state fingerprint. The clamp bounds come from the
    /// configuration and are hashed by the owner.
    pub fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update_u64(self.srtt.map_or(u64::MAX, |v| v.to_bits()));
        h.update_u64(self.rttvar.to_bits());
        h.update_u64(self.backoff_shift as u64);
    }

    /// Returns the smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(|v| SimDuration::from_micros(v as u64))
    }

    /// Current retransmission timeout, including backoff and clamping.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => self.initial,
            Some(srtt) => {
                let rto = srtt + (4.0 * self.rttvar).max(1.0);
                SimDuration::from_micros(rto as u64)
            }
        };
        let backed = base.saturating_mul(1u64 << self.backoff_shift);
        backed.max(self.min).min(self.max)
    }
}

impl Default for RtoEstimator {
    fn default() -> Self {
        RtoEstimator::new(
            SimDuration::from_secs(3),
            SimDuration::from_millis(200),
            SimDuration::from_secs(64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_until_first_sample() {
        let est = RtoEstimator::default();
        assert_eq!(est.rto(), SimDuration::from_secs(3));
        assert!(est.srtt().is_none());
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut est = RtoEstimator::default();
        for _ in 0..50 {
            est.sample(SimDuration::from_millis(100));
        }
        let srtt = est.srtt().unwrap();
        assert!((srtt.as_millis() as i64 - 100).abs() <= 1, "srtt={srtt}");
        // With zero variance the RTO clamps to the minimum.
        assert_eq!(est.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn variance_raises_rto() {
        let mut est = RtoEstimator::default();
        for i in 0..100 {
            let ms = if i % 2 == 0 { 50 } else { 250 };
            est.sample(SimDuration::from_millis(ms));
        }
        // Mean 150 ms, mean deviation ≈ 100 ms → RTO ≈ 550 ms.
        let rto = est.rto();
        assert!(rto > SimDuration::from_millis(350), "rto={rto}");
        assert!(rto < SimDuration::from_millis(800), "rto={rto}");
    }

    #[test]
    fn exponential_backoff_and_clamp() {
        let mut est = RtoEstimator::default();
        est.sample(SimDuration::from_millis(100));
        let base = est.rto();
        est.backoff();
        assert_eq!(
            est.rto(),
            base.saturating_mul(2).max(SimDuration::from_millis(200))
        );
        for _ in 0..20 {
            est.backoff();
        }
        assert_eq!(est.rto(), SimDuration::from_secs(64), "clamped to max");
        est.clear_backoff();
        assert_eq!(est.rto(), base);
    }

    #[test]
    fn sample_resets_backoff() {
        let mut est = RtoEstimator::default();
        est.sample(SimDuration::from_millis(100));
        est.backoff();
        est.backoff();
        assert!(est.backoff_shift() == 2);
        est.sample(SimDuration::from_millis(100));
        assert_eq!(est.backoff_shift(), 0);
    }
}
