//! The `wsize` filter: TCP window-size modification (§8.2.2, after BSSP).
//!
//! Two services share the mechanism of rewriting the advertised window in
//! ACKs intercepted at the base station:
//!
//! - **Prioritization** (`wsize scale <percent>`): shrinking the window
//!   advertised to a low-priority sender forces it to transmit more slowly,
//!   leaving bandwidth and queue space to priority streams.
//! - **Disconnection management** (`wsize zwsm [metric]`): when the mobile
//!   disconnects, the filter sends the wired sender a zero-window-size
//!   message (ZWSM) so the connection stalls in persist mode instead of
//!   entering congestion control; on reconnection it reopens the window and
//!   transmission resumes at full speed.


use comma_netsim::packet::{Packet, TcpFlags, TcpSegment};
use comma_netsim::time::SimDuration;
use comma_proxy::filter::{Capabilities, Filter, FilterCtx, Priority, Verdict};
use comma_proxy::key::StreamKey;

/// Operating mode of the filter.
#[derive(Clone, Debug, PartialEq)]
pub enum WsizeMode {
    /// Scale the advertised window to `percent` of its value.
    Scale {
        /// Percentage 0..=100.
        percent: u8,
    },
    /// Zero-window disconnection management, watching a link-state metric
    /// (1.0 = up) via the EEM.
    Zwsm {
        /// Metric name polled for link state.
        metric: String,
    },
}

/// The window-size modification filter.
#[derive(Clone)]
pub struct Wsize {
    mode: WsizeMode,
    down_key: Option<StreamKey>,
    /// Last ACK seen from the mobile (template for injected ZWSMs).
    last_uplink: Option<(Packet, TcpSegment)>,
    link_up: bool,
    /// Uplink ACKs whose window was rewritten.
    pub windows_rewritten: u64,
    /// ZWSMs injected.
    pub zwsms_sent: u64,
    /// Window-reopen messages injected.
    pub reopens_sent: u64,
}

const POLL_TOKEN: u64 = 1;
const POLL_INTERVAL: SimDuration = SimDuration::from_millis(100);

impl Wsize {
    /// Creates the filter from `add` arguments.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mode = match args.first().map(|s| s.as_str()) {
            Some("scale") | None => {
                let percent: u8 = args
                    .get(1)
                    .map(|s| s.parse().map_err(|_| "wsize: bad percent".to_string()))
                    .transpose()?
                    .unwrap_or(50);
                if percent > 100 {
                    return Err("wsize: percent must be 0..=100".into());
                }
                WsizeMode::Scale { percent }
            }
            Some("zwsm") => WsizeMode::Zwsm {
                metric: args
                    .get(1)
                    .cloned()
                    .unwrap_or_else(|| "wireless.up".to_string()),
            },
            Some(pct) if pct.chars().all(|c| c.is_ascii_digit()) => {
                // Bare percentage, matching the thesis's terse usage.
                let percent: u8 = pct.parse().map_err(|_| "wsize: bad percent".to_string())?;
                if percent > 100 {
                    return Err("wsize: percent must be 0..=100".into());
                }
                WsizeMode::Scale { percent }
            }
            Some(other) => return Err(format!("wsize: unknown mode {other}")),
        };
        Ok(Wsize {
            mode,
            down_key: None,
            last_uplink: None,
            link_up: true,
            windows_rewritten: 0,
            zwsms_sent: 0,
            reopens_sent: 0,
        })
    }

    /// Current mode.
    pub fn mode(&self) -> &WsizeMode {
        &self.mode
    }

    fn make_window_msg(&self, window: u16) -> Option<Packet> {
        let (pkt_template, seg_template) = self.last_uplink.as_ref()?;
        let mut pkt = pkt_template.clone();
        let seg = pkt.as_tcp_mut()?;
        *seg = seg_template.clone();
        seg.window = window;
        seg.flags = TcpFlags::ACK;
        seg.payload = comma_rt::Bytes::new();
        Some(pkt)
    }
}

impl Filter for Wsize {
    fn kind(&self) -> &'static str {
        "wsize"
    }

    fn priority(&self) -> Priority {
        Priority::Lowest
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::MODIFY_HEADERS.with(Capabilities::INJECT)
    }

    fn insert(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
        self.down_key = Some(key);
        if matches!(self.mode, WsizeMode::Zwsm { .. }) {
            ctx.set_timer(POLL_INTERVAL, POLL_TOKEN);
        }
        // The window travels on ACKs flowing back to the sender: bind both
        // directions so the uplink is observable.
        vec![key, key.reverse()]
    }

    fn on_out(&mut self, _ctx: &mut FilterCtx<'_>, key: StreamKey, pkt: &mut Packet) -> Verdict {
        let is_uplink = Some(key) != self.down_key;
        if !is_uplink {
            return Verdict::Continue;
        }
        let Some(seg) = pkt.as_tcp_mut() else {
            return Verdict::Continue;
        };
        if !seg.flags.ack() {
            return Verdict::Continue;
        }
        match &self.mode {
            WsizeMode::Scale { percent } => {
                let scaled = (seg.window as u32 * *percent as u32 / 100) as u16;
                if scaled != seg.window {
                    seg.window = scaled;
                    self.windows_rewritten += 1;
                }
            }
            WsizeMode::Zwsm { .. } => {
                // Remember the most recent uplink ACK as the ZWSM template.
                let seg_copy = seg.clone();
                self.last_uplink = Some((pkt.clone(), seg_copy));
                if !self.link_up {
                    // Disconnected (stray ACK still in flight): hold the
                    // sender closed.
                    if let Some(seg) = pkt.as_tcp_mut() {
                        seg.window = 0;
                        self.windows_rewritten += 1;
                    }
                }
            }
        }
        Verdict::Continue
    }

    fn on_timer(&mut self, ctx: &mut FilterCtx<'_>, token: u64) {
        if token != POLL_TOKEN {
            return;
        }
        if let WsizeMode::Zwsm { metric } = &self.mode {
            let up = ctx.metrics.get(metric).map(|v| v > 0.5).unwrap_or(true);
            if self.link_up && !up {
                // Disconnection detected: stall the sender with a ZWSM.
                if let Some(zwsm) = self.make_window_msg(0) {
                    ctx.inject(zwsm);
                    self.zwsms_sent += 1;
                    ctx.count("wsize.zwsms_sent", 1);
                    ctx.event("wsize.zwsm", vec![]);
                }
            } else if !self.link_up && up {
                // Reconnection: reopen with the last known window.
                let window = self
                    .last_uplink
                    .as_ref()
                    .map(|(_, s)| s.window)
                    .unwrap_or(4096)
                    .max(1);
                if let Some(reopen) = self.make_window_msg(window) {
                    ctx.inject(reopen);
                    self.reopens_sent += 1;
                    ctx.count("wsize.reopens_sent", 1);
                    ctx.event("wsize.reopen", comma_obs::fields!(window = window));
                }
            }
            self.link_up = up;
            ctx.set_timer(POLL_INTERVAL, POLL_TOKEN);
        }
    }

    fn clone_filter(&self) -> Option<Box<dyn Filter>> {
        Some(Box::new(self.clone()))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        StreamKey::digest_option(self.down_key, h);
        h.update_u64(self.link_up as u64);
        match &self.last_uplink {
            None => {
                h.update_u64(u64::MAX);
            }
            Some((pkt, seg)) => {
                pkt.state_digest(h);
                h.update_u64(seg.ack as u64);
                h.update_u64(seg.window as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comma_netsim::time::SimTime;
    use comma_proxy::filter::{MetricsSource, NullMetrics};
    use comma_rt::SmallRng;
    use comma_rt::SeedableRng;

    fn ack(window: u16) -> Packet {
        let mut seg = TcpSegment::new(1169, 7, 500, 900, TcpFlags::ACK);
        seg.window = window;
        Packet::tcp(
            "11.11.10.10".parse().unwrap(),
            "11.11.10.99".parse().unwrap(),
            seg,
        )
    }

    fn down_key() -> StreamKey {
        "11.11.10.99 7 11.11.10.10 1169".parse().unwrap()
    }

    #[test]
    fn scale_mode_shrinks_uplink_windows_only() {
        let mut f = Wsize::from_args(&["scale".into(), "25".into()]).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let metrics = NullMetrics;
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &metrics);
        let keys = f.insert(&mut ctx, down_key());
        assert_eq!(keys.len(), 2);
        let mut up = ack(8000);
        f.on_out(&mut ctx, down_key().reverse(), &mut up);
        assert_eq!(up.as_tcp().unwrap().window, 2000);
        // Downlink packets untouched.
        let mut down = ack(8000);
        f.on_out(&mut ctx, down_key(), &mut down);
        assert_eq!(down.as_tcp().unwrap().window, 8000);
        assert_eq!(f.windows_rewritten, 1);
    }

    #[test]
    fn bare_percentage_arg_accepted() {
        let f = Wsize::from_args(&["30".into()]).unwrap();
        assert_eq!(*f.mode(), WsizeMode::Scale { percent: 30 });
        assert!(Wsize::from_args(&["130".into()]).is_err());
        assert!(Wsize::from_args(&["bogus".into()]).is_err());
    }

    struct LinkState(f64);
    impl MetricsSource for LinkState {
        fn get(&self, var: &str) -> Option<f64> {
            (var == "wireless.up").then_some(self.0)
        }
    }

    #[test]
    fn zwsm_injects_on_disconnect_and_reopen() {
        let mut f = Wsize::from_args(&["zwsm".into()]).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);

        // Learn an uplink ACK template while the link is up.
        let up_metrics = LinkState(1.0);
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &up_metrics);
        f.insert(&mut ctx, down_key());
        let mut up = ack(4096);
        f.on_out(&mut ctx, down_key().reverse(), &mut up);
        f.on_timer(&mut ctx, POLL_TOKEN);
        assert_eq!(f.zwsms_sent, 0);
        drop(ctx);

        // Link goes down: the next poll injects a ZWSM.
        let down_metrics = LinkState(0.0);
        let mut ctx = FilterCtx::new(SimTime::from_millis(100), &mut rng, &down_metrics);
        f.on_timer(&mut ctx, POLL_TOKEN);
        assert_eq!(f.zwsms_sent, 1);
        drop(ctx);

        // Link back up: reopen message carries the remembered window.
        let up_metrics = LinkState(1.0);
        let mut ctx = FilterCtx::new(SimTime::from_millis(200), &mut rng, &up_metrics);
        f.on_timer(&mut ctx, POLL_TOKEN);
        assert_eq!(f.reopens_sent, 1);
    }

    #[test]
    fn zwsm_zeroes_stray_uplink_acks_while_down() {
        let mut f = Wsize::from_args(&["zwsm".into()]).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let down_metrics = LinkState(0.0);
        let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &down_metrics);
        f.insert(&mut ctx, down_key());
        f.on_timer(&mut ctx, POLL_TOKEN); // Observes link down (no template yet).
        let mut up = ack(4096);
        f.on_out(&mut ctx, down_key().reverse(), &mut up);
        assert_eq!(up.as_tcp().unwrap().window, 0);
    }

    /// The remembered uplink packet is folded whole, payload included:
    /// two templates that differ in one piggybacked byte are different
    /// states.
    #[test]
    fn state_digest_sees_template_payload_bytes() {
        let digest_after_uplink = |payload: &'static [u8]| {
            let mut f = Wsize::from_args(&["zwsm".into()]).unwrap();
            let mut rng = SmallRng::seed_from_u64(0);
            let metrics = LinkState(1.0);
            let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &metrics);
            f.insert(&mut ctx, down_key());
            let mut up = ack(4096);
            up.as_tcp_mut().unwrap().payload = comma_rt::Bytes::from_static(payload);
            f.on_out(&mut ctx, down_key().reverse(), &mut up);
            assert!(f.last_uplink.is_some());
            let mut h = comma_rt::digest::StateHasher::new();
            f.state_digest(&mut h);
            h.finish()
        };
        assert_eq!(digest_after_uplink(b"request"), digest_after_uplink(b"request"));
        assert_ne!(digest_after_uplink(b"request"), digest_after_uplink(b"requesT"));
    }
}
