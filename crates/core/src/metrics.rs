//! Wiring between the EEM metrics hub and the rest of the system: the
//! proxy-side [`MetricsSource`] adapter and the periodic sampling loop
//! that plays the role of the thesis's SNMP daemons and kernel counters.

use std::sync::Arc;

use comma_eem::{hub::sample_host, SharedHub, Value};
use comma_netsim::link::ChannelId;
use comma_netsim::node::NodeId;
use comma_netsim::sim::Simulator;
use comma_netsim::time::SimDuration;
use comma_proxy::filter::MetricsSource;
use comma_tcp::host::Host;

/// Adapter exposing one node's hub variables to adaptive proxy filters.
/// The hub is the only store of execution-environment variables, so a
/// value set through Kati or an EEM client is what a filter reads next.
pub struct HubMetrics {
    hub: SharedHub,
    node: String,
}

impl HubMetrics {
    /// Creates an adapter reading `node`'s variables.
    pub fn new(hub: SharedHub, node: impl Into<String>) -> Self {
        HubMetrics {
            hub,
            node: node.into(),
        }
    }
}

impl MetricsSource for HubMetrics {
    fn get(&self, var: &str) -> Option<f64> {
        self.hub.lock().expect("a hub writer panicked").get(&self.node, var)?.as_f64()
    }
}

/// What the periodic sampler observes.
pub struct SamplerSpec {
    /// Hub written by the sampler.
    pub hub: SharedHub,
    /// Hosts whose SNMP counters are published, with their hub node names.
    pub hosts: Vec<(NodeId, String)>,
    /// The monitored wireless channels `(down, up)`; drives `wireless.*`
    /// variables under the given node name.
    pub wireless: Option<(ChannelId, ChannelId, String)>,
    /// Sampling period.
    pub period: SimDuration,
}

/// Installs a self-rescheduling sampling loop on the simulator; the first
/// sample is taken now, so metrics exist at t≈0.
pub fn install_sampler(sim: &mut Simulator, spec: SamplerSpec) {
    tick(sim, Arc::new(spec));
}

fn tick(sim: &mut Simulator, spec: Arc<SamplerSpec>) {
    sample(sim, &spec);
    sim.at(sim.now() + spec.period, move |sim| tick(sim, spec));
}

fn sample(sim: &mut Simulator, spec: &SamplerSpec) {
    let uptime = sim.now().as_secs_f64() as i64;
    let mut hub = spec.hub.lock().expect("a hub writer panicked");
    for (node, name) in &spec.hosts {
        // Hosts may be wrapped (MobileHost); sample only direct hosts here,
        // wrapped ones are sampled by their own integration.
        if let Some(h) = sim.node_mut::<Host>(*node) {
            sample_host(&mut hub, name, h, uptime);
        }
    }
    if let Some((down, up, name)) = &spec.wireless {
        let ch = sim.channel(*down);
        let up_state = ch.params.up && sim.channel(*up).params.up;
        let mut set = |var: &str, v: i64| hub.set(name, var, Value::Long(v));
        set("wireless.up", i64::from(up_state));
        set("wireless.qlen", ch.queued_bytes as i64);
        set("wireless.bw", ch.params.bandwidth_bps as i64);
        set("bytes_tx", ch.stats.delivered_bytes as i64);
        set("wireless.loss_drops", ch.stats.loss_drops as i64);
        set("wireless.down_drops", ch.stats.down_drops as i64);
        set("sysUpTime", uptime);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{MediaSink, MediaSource};
    use crate::topology::{addrs, CommaBuilder, CommaWorld};
    use comma_eem::MetricsHub;
    use comma_netsim::time::SimTime;
    use comma_tcp::apps::{BulkSender, Sink};

    #[test]
    fn hub_metrics_adapter() {
        let hub = MetricsHub::shared();
        hub.lock().unwrap().set("sp", "wireless.up", Value::Long(1));
        hub.lock().unwrap()
            .set("sp", "note", Value::Str("text".into()));
        let m = HubMetrics::new(hub, "sp");
        assert_eq!(m.get("wireless.up"), Some(1.0));
        assert_eq!(m.get("note"), None, "strings have no numeric view");
        assert_eq!(m.get("absent"), None);
    }

    /// The hub is the only store of sampled variables. With observability
    /// on they feed no node-scope gauge (link, TCP and filter metrics stay
    /// in the export), and a value set on the hub directly — Kati, an EEM
    /// client — is what the proxy's filters read at once: `hdiscard
    /// adaptive wireless.up` lets the top layer through as soon as the hub
    /// says the link is down, where a registry mirror used to shadow the
    /// hub until the next sample.
    #[test]
    fn sampler_fills_the_hub_and_only_the_hub() {
        let media = MediaSource::new((addrs::MOBILE, 5004), 3, 100, SimDuration::from_millis(10));
        let bulk = BulkSender::new((addrs::MOBILE, 9000), 5_000);
        let mut world = CommaBuilder::new(3).observability(true).build(
            vec![Box::new(media), Box::new(bulk)],
            vec![Box::new(MediaSink::new(5004)), Box::new(Sink::new(9000))],
        );
        world.sp("add hdiscard 0.0.0.0 0 11.11.10.10 5004 adaptive wireless.up 3 0.5");
        let sink = world.mobile_app_ids[0];
        let top_layer = |w: &mut CommaWorld| w.mobile_app(sink, |s: &mut MediaSink| s.received_by_layer[2]);
        world.run_until(SimTime::from_millis(250));
        assert_eq!(world.hub.lock().unwrap().get("sp", "wireless.up"), Some(&Value::Long(1)));
        assert!(world.hub.lock().unwrap().get("wired", "tcpOutSegs").is_some());
        assert_eq!(top_layer(&mut world), 0, "link up: hdiscard sheds layer 2");

        world.hub.lock().unwrap().set("sp", "wireless.up", Value::Long(0));
        world.run_until(SimTime::from_millis(295));
        assert!(top_layer(&mut world) > 0, "filters read the hub, not a stale mirror");

        // The next sample republishes the link's real state, up or down.
        world.run_until(SimTime::from_millis(350));
        assert_eq!(world.hub.lock().unwrap().get("sp", "wireless.up"), Some(&Value::Long(1)));
        world.sim.channel_mut(world.wireless_ch.0).params.up = false;
        world.run_until(SimTime::from_millis(450));
        assert_eq!(world.hub.lock().unwrap().get("sp", "wireless.up"), Some(&Value::Long(0)));

        let export = world.obs.export_jsonl();
        for node in ["wired", "mobile", "sp"] {
            let scope = format!("\"scope\":\"{node}\",");
            assert!(!export.contains(&scope), "{node}: sampled variables mirrored as gauges");
        }
        for family in ["\"link.", "\"tcp.", "\"filter."] {
            assert!(export.contains(family), "{family}* metrics missing from the export");
        }
    }
}
