//! The `hdiscard` filter: hierarchical discard for layered real-time media
//! (§8.3.2).
//!
//! Media sources encode each frame into layers (0 = base, higher =
//! enhancement). Under constrained wireless conditions the filter drops
//! enhancement layers so the base layer keeps its timing, instead of every
//! layer queueing behind a saturated link. The layer budget is either
//! static or adapts to an EEM metric.


use comma_netsim::packet::Packet;
use comma_proxy::filter::{Capabilities, Filter, FilterCtx, Priority, Verdict};
use comma_proxy::key::StreamKey;

use crate::appdata::Frame;

/// Layer-budget policy.
#[derive(Clone, Debug, PartialEq)]
pub enum DiscardPolicy {
    /// Always forward layers `0..=max_layer`.
    Static {
        /// Highest layer forwarded.
        max_layer: u8,
    },
    /// Adapt the layer budget to a metric: forward all layers while the
    /// metric stays below `thresholds[0]`, drop the top layer above it, two
    /// layers above `thresholds[1]`, and so on.
    Adaptive {
        /// EEM variable to watch (e.g. wireless queue occupancy).
        metric: String,
        /// Ascending thresholds; each one crossed removes one more layer.
        thresholds: Vec<f64>,
        /// Number of layers the source emits.
        total_layers: u8,
    },
}

/// The hierarchical-discard filter (UDP media streams).
#[derive(Clone)]
pub struct HierarchicalDiscard {
    policy: DiscardPolicy,
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames discarded, by layer index (up to 8 tracked).
    pub discarded_by_layer: [u64; 8],
    /// Malformed packets passed through untouched.
    pub unparsed: u64,
}

impl HierarchicalDiscard {
    /// Creates the filter from `add` arguments:
    /// `static <max_layer>` or `adaptive <metric> <total_layers> <t1> [t2 ...]`.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let policy = match args.first().map(|s| s.as_str()) {
            Some("static") => {
                let max_layer = args
                    .get(1)
                    .ok_or("hdiscard static needs a max layer")?
                    .parse()
                    .map_err(|_| "hdiscard: bad layer".to_string())?;
                DiscardPolicy::Static { max_layer }
            }
            Some("adaptive") => {
                let metric = args
                    .get(1)
                    .ok_or("hdiscard adaptive needs a metric")?
                    .clone();
                let total_layers: u8 = args
                    .get(2)
                    .ok_or("hdiscard adaptive needs total layers")?
                    .parse()
                    .map_err(|_| "hdiscard: bad layer count".to_string())?;
                let thresholds: Result<Vec<f64>, _> =
                    args[3..].iter().map(|s| s.parse::<f64>()).collect();
                let thresholds = thresholds.map_err(|_| "hdiscard: bad threshold".to_string())?;
                if thresholds.is_empty() {
                    return Err("hdiscard adaptive needs at least one threshold".into());
                }
                DiscardPolicy::Adaptive {
                    metric,
                    thresholds,
                    total_layers,
                }
            }
            _ => return Err("hdiscard: mode must be 'static' or 'adaptive'".into()),
        };
        Ok(HierarchicalDiscard {
            policy,
            forwarded: 0,
            discarded_by_layer: [0; 8],
            unparsed: 0,
        })
    }

    /// Total frames discarded.
    pub fn discarded(&self) -> u64 {
        self.discarded_by_layer.iter().sum()
    }

    fn max_layer(&self, ctx: &FilterCtx<'_>) -> u8 {
        match &self.policy {
            DiscardPolicy::Static { max_layer } => *max_layer,
            DiscardPolicy::Adaptive {
                metric,
                thresholds,
                total_layers,
            } => {
                let value = ctx.metrics.get(metric).unwrap_or(0.0);
                let crossed = thresholds.iter().filter(|&&t| value >= t).count() as u8;
                total_layers.saturating_sub(1).saturating_sub(crossed)
            }
        }
    }
}

impl Filter for HierarchicalDiscard {
    fn kind(&self) -> &'static str {
        "hdiscard"
    }

    fn priority(&self) -> Priority {
        Priority::Normal
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::DROP
    }

    fn on_out(&mut self, ctx: &mut FilterCtx<'_>, _key: StreamKey, pkt: &mut Packet) -> Verdict {
        let Some(dgram) = pkt.as_udp() else {
            return Verdict::Continue;
        };
        let Some((frame, _)) = Frame::decode(&dgram.payload) else {
            self.unparsed += 1;
            return Verdict::Continue;
        };
        let budget = self.max_layer(ctx);
        if frame.layer > budget {
            let idx = (frame.layer as usize).min(7);
            self.discarded_by_layer[idx] += 1;
            Verdict::Drop
        } else {
            self.forwarded += 1;
            Verdict::Continue
        }
    }

    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        Some(Box::new(self.clone()))
    }
    // state_digest: the policy is fixed at instantiation and the layer
    // decision reads the metric afresh per packet, so the default (empty)
    // digest is exact.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appdata::{synth_body, FrameKind};
    use comma_rt::Bytes;
    use comma_netsim::packet::UdpDatagram;
    use comma_netsim::time::SimTime;
    use comma_proxy::filter::{MetricsSource, NullMetrics};
    use comma_rt::SmallRng;
    use comma_rt::SeedableRng;

    fn media_pkt(layer: u8) -> Packet {
        let frame = Frame {
            kind: FrameKind::VideoLayer,
            importance: 5 - layer,
            layer,
            seq: 1,
            timestamp_us: 0,
            body: synth_body(FrameKind::VideoLayer, 1, 200),
        };
        Packet::udp(
            "11.11.10.99".parse().unwrap(),
            "11.11.10.10".parse().unwrap(),
            UdpDatagram {
                src_port: 5004,
                dst_port: 5004,
                payload: Bytes::from(frame.encode()),
            },
        )
    }

    fn key() -> StreamKey {
        "11.11.10.99 5004 11.11.10.10 5004".parse().unwrap()
    }

    #[test]
    fn static_policy_drops_enhancement_layers() {
        let mut f = HierarchicalDiscard::from_args(&["static".into(), "0".into()]).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let m = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        for layer in 0..3 {
            let mut p = media_pkt(layer);
            let v = f.on_out(&mut ctx, key(), &mut p);
            assert_eq!(v == Verdict::Continue, layer == 0, "layer {layer}");
        }
        assert_eq!(f.forwarded, 1);
        assert_eq!(f.discarded(), 2);
        assert_eq!(f.discarded_by_layer[1], 1);
        assert_eq!(f.discarded_by_layer[2], 1);
    }

    struct Q(f64);
    impl MetricsSource for Q {
        fn get(&self, var: &str) -> Option<f64> {
            (var == "wireless.qlen").then_some(self.0)
        }
    }

    #[test]
    fn adaptive_policy_follows_metric() {
        let mut f = HierarchicalDiscard::from_args(&[
            "adaptive".into(),
            "wireless.qlen".into(),
            "3".into(),
            "2000".into(),
            "8000".into(),
        ])
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(0);

        // Low queue: everything passes.
        let m = Q(100.0);
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        for layer in 0..3 {
            let mut p = media_pkt(layer);
            assert_eq!(f.on_out(&mut ctx, key(), &mut p), Verdict::Continue);
        }
        drop(ctx);

        // Above the first threshold: layer 2 dropped.
        let m = Q(3000.0);
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        let mut p = media_pkt(2);
        assert_eq!(f.on_out(&mut ctx, key(), &mut p), Verdict::Drop);
        let mut p = media_pkt(1);
        assert_eq!(f.on_out(&mut ctx, key(), &mut p), Verdict::Continue);
        drop(ctx);

        // Above both thresholds: only the base layer survives.
        let m = Q(9000.0);
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        let mut p = media_pkt(1);
        assert_eq!(f.on_out(&mut ctx, key(), &mut p), Verdict::Drop);
        let mut p = media_pkt(0);
        assert_eq!(f.on_out(&mut ctx, key(), &mut p), Verdict::Continue);
    }

    #[test]
    fn bad_args_rejected() {
        assert!(HierarchicalDiscard::from_args(&[]).is_err());
        assert!(HierarchicalDiscard::from_args(&["static".into()]).is_err());
        assert!(HierarchicalDiscard::from_args(&["adaptive".into(), "m".into()]).is_err());
        assert!(
            HierarchicalDiscard::from_args(&["adaptive".into(), "m".into(), "3".into()]).is_err()
        );
    }

    #[test]
    fn non_media_passes_untouched() {
        let mut f = HierarchicalDiscard::from_args(&["static".into(), "0".into()]).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let m = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &m);
        let mut p = Packet::udp(
            "1.1.1.1".parse().unwrap(),
            "2.2.2.2".parse().unwrap(),
            UdpDatagram {
                src_port: 1,
                dst_port: 2,
                payload: Bytes::from_static(b"not a frame"),
            },
        );
        assert_eq!(f.on_out(&mut ctx, key(), &mut p), Verdict::Continue);
        assert_eq!(f.unparsed, 1);
    }
}
