//! The metrics hub: the EEM server's modular data source.
//!
//! The thesis's EEM reads SNMP daemons and kernel statistics; here the same
//! role is played by a hub that samplers fill from simulator state (host
//! counters, channel statistics, synthetic load). The hub is shared
//! (`Arc<Mutex<_>>`, so the world that holds it stays `Send`) between the
//! sampling loop, the EEM servers, and adaptive proxy filters.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use comma_tcp::host::Host;

use crate::value::Value;

/// Shared handle to a [`MetricsHub`].
pub type SharedHub = Arc<Mutex<MetricsHub>>;

/// Current variable values, keyed node name → variable → index so a
/// lookup borrows its `&str` arguments instead of building an owned key.
#[derive(Default, Debug)]
pub struct MetricsHub {
    values: HashMap<String, HashMap<String, HashMap<u32, Value>>>,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// Creates a shared, empty hub.
    pub fn shared() -> SharedHub {
        Arc::new(Mutex::new(MetricsHub::new()))
    }

    /// Sets a variable (index 0).
    pub fn set(&mut self, node: &str, var: &str, value: Value) {
        self.set_indexed(node, var, 0, value);
    }

    /// Sets an indexed variable.
    pub fn set_indexed(&mut self, node: &str, var: &str, index: u32, value: Value) {
        if let Some(indexed) = self.values.get_mut(node).and_then(|vars| vars.get_mut(var)) {
            indexed.insert(index, value);
            return;
        }
        // First write of this variable: the only path that builds owned keys.
        let vars = self.values.entry(node.to_string()).or_default();
        vars.entry(var.to_string()).or_default().insert(index, value);
    }

    /// Reads a variable (index 0).
    pub fn get(&self, node: &str, var: &str) -> Option<&Value> {
        self.get_indexed(node, var, 0)
    }

    /// Reads an indexed variable.
    pub fn get_indexed(&self, node: &str, var: &str, index: u32) -> Option<&Value> {
        self.values.get(node)?.get(var)?.get(&index)
    }
}

/// Fills the hub's SNMP-named variables from a host's counters (the "local
/// information sources" of §6.2).
pub fn sample_host(hub: &mut MetricsHub, node: &str, host: &Host, uptime_secs: i64) {
    let c = host.counters;
    let set = |hub: &mut MetricsHub, var: &str, v: i64| hub.set(node, var, Value::Long(v));
    set(hub, "sysUpTime", uptime_secs);
    hub.set(
        node,
        "sysDescr",
        Value::Str(format!("comma-sim host {node}")),
    );
    hub.set(node, "sysName", Value::Str(node.to_string()));
    set(hub, "ipInReceives", c.ip_in_receives as i64);
    set(hub, "ipInDelivers", c.ip_in_delivers as i64);
    set(hub, "ipOutRequests", c.ip_out_requests as i64);
    set(hub, "ipInDiscards", c.ip_in_discards as i64);
    set(hub, "udpInDatagrams", c.udp_in_datagrams as i64);
    set(hub, "udpNoPorts", c.udp_no_ports as i64);
    set(hub, "udpOutDatagrams", c.udp_out_datagrams as i64);
    set(hub, "tcpInSegs", c.tcp_in_segs as i64);
    set(hub, "tcpOutSegs", c.tcp_out_segs as i64);
    set(hub, "tcpActiveOpens", c.tcp_active_opens as i64);
    set(hub, "tcpPassiveOpens", c.tcp_passive_opens as i64);
    set(hub, "tcpEstabResets", c.tcp_estab_resets as i64);
    set(hub, "tcpCurrEstab", host.curr_estab() as i64);
    set(hub, "tcpRetransSegs", host.retrans_segs() as i64);
    set(hub, "tcpRtoAlgorithm", 4); // Van Jacobson's algorithm.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut hub = MetricsHub::new();
        hub.set("proxy", "wireless.up", Value::Long(1));
        hub.set_indexed("proxy", "ifInOctets", 2, Value::Long(500));
        assert_eq!(hub.get("proxy", "wireless.up"), Some(&Value::Long(1)));
        assert_eq!(
            hub.get_indexed("proxy", "ifInOctets", 2),
            Some(&Value::Long(500))
        );
        assert_eq!(hub.get("proxy", "ifInOctets"), None, "index 0 distinct");
        assert_eq!(hub.get("other", "wireless.up"), None);
    }

    #[test]
    fn host_sampler_fills_snmp_names() {
        let mut hub = MetricsHub::new();
        let host = Host::new("m", "10.0.0.1".parse().unwrap());
        sample_host(&mut hub, "m", &host, 42);
        assert_eq!(hub.get("m", "sysUpTime"), Some(&Value::Long(42)));
        assert_eq!(hub.get("m", "tcpCurrEstab"), Some(&Value::Long(0)));
        assert!(matches!(hub.get("m", "sysName"), Some(Value::Str(s)) if s == "m"));
    }
}
