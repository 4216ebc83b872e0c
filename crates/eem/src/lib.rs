//! The Comma Execution-Environment Monitor (EEM, Chapter 6).
//!
//! EEM servers run on any host, gather local network and machine statistics
//! from a modular metrics hub, and push them to interested clients with
//! three notification styles: interrupt callbacks, periodic silent updates
//! to a protected data area, and synchronous-style one-shot polls. The
//! variable set covers the SNMP variables of Table 6.1 and the additional
//! variables of Table 6.2; the client-side API mirrors the `comma_*`
//! functions of Tables 6.3–6.7.
//!
//! All registration and update traffic rides the simulated network as UDP,
//! so the monitor's own overhead (§6.1.2) is measurable — experiment E11
//! reproduces exactly that comparison.

#![warn(missing_docs)]

pub mod client;
pub mod hub;
pub mod id;
pub mod proto;
pub mod server;
pub mod value;
pub mod vars;

pub use client::{EemClient, MonitorApp};
pub use hub::{MetricsHub, SharedHub};
pub use id::{Attr, EemError, Operator, VarId};
pub use proto::{Message, Mode, EEM_PORT};
pub use server::EemServer;
pub use value::{Value, VarType};
pub use vars::{by_name, by_num, COMMA_SYSUPTIME};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use comma_netsim::link::LinkParams;
    use comma_netsim::sim::Simulator;
    use comma_netsim::time::SimTime;
    use comma_tcp::host::Host;

    /// Server + client over the simulated network: periodic updates flow
    /// and the protected data area fills.
    #[test]
    fn end_to_end_periodic_updates() {
        let mut sim = Simulator::new(11);
        let server_addr: comma_netsim::addr::Ipv4Addr = "10.0.0.1".parse().unwrap();
        let client_addr: comma_netsim::addr::Ipv4Addr = "10.0.0.2".parse().unwrap();

        let hub = MetricsHub::shared();
        hub.lock().unwrap().set("gw", "sysUpTime", Value::Long(5));

        let mut server_host = Host::new("gw", server_addr);
        server_host.add_app(Box::new(EemServer::new("gw", hub.clone())));

        let mut id = VarId::init();
        id.set_by_name("sysUpTime").unwrap();
        let mut attr = Attr::init();
        attr.set_lbound(Value::Long(0));
        attr.set_ubound(Value::Long(1_000));
        attr.set_operator(Operator::In).unwrap();
        let mut client_host = Host::new("mobile", client_addr);
        let mon = client_host.add_app(Box::new(MonitorApp::new(
            5000,
            server_addr,
            vec![(id, attr, Mode::Periodic)],
        )));

        let s = sim.add_node(Box::new(server_host));
        let c = sim.add_node(Box::new(client_host));
        sim.connect(s, c, LinkParams::wired(), LinkParams::wired());

        // Advance the hub value over time so periodic updates keep coming.
        for t in 1..=40u64 {
            let hub = hub.clone();
            sim.at(SimTime::from_secs(t), move |_sim| {
                hub.lock().unwrap()
                    .set("gw", "sysUpTime", Value::Long(t as i64));
            });
        }
        sim.run_until(SimTime::from_secs(35));

        let (history_len, reg_id) = sim.with_node::<Host, _>(c, |h| {
            let app = h.app_mut::<MonitorApp>(mon);
            (app.history.len(), app.reg_ids[0])
        });
        assert!(history_len >= 2, "periodic updates arrived: {history_len}");
        let value = sim.with_node::<Host, _>(c, |h| {
            h.app_mut::<MonitorApp>(mon).client.query_getvalue(reg_id)
        });
        match value {
            Some(Value::Long(v)) => assert!((5..=35).contains(&v), "v={v}"),
            other => panic!("unexpected PDA value {other:?}"),
        }
    }

    /// Interrupt-mode registrations notify as soon as the variable enters
    /// the requested range.
    #[test]
    fn interrupt_fires_on_range_entry() {
        let mut sim = Simulator::new(12);
        let server_addr: comma_netsim::addr::Ipv4Addr = "10.0.0.1".parse().unwrap();
        let client_addr: comma_netsim::addr::Ipv4Addr = "10.0.0.2".parse().unwrap();
        let hub = MetricsHub::shared();
        hub.lock().unwrap().set("gw", "cpuLoadAvg", Value::Double(0.1));

        let mut server_host = Host::new("gw", server_addr);
        server_host.add_app(Box::new(EemServer::new("gw", hub.clone())));

        let mut id = VarId::init();
        id.set_by_name("cpuLoadAvg").unwrap();
        let mut attr = Attr::init();
        attr.set_lbound(Value::Double(0.8));
        attr.set_operator(Operator::Gte).unwrap();
        let mut client_host = Host::new("mobile", client_addr);
        let mon = client_host.add_app(Box::new(MonitorApp::new(
            5000,
            server_addr,
            vec![(id, attr, Mode::Interrupt)],
        )));

        let s = sim.add_node(Box::new(server_host));
        let c = sim.add_node(Box::new(client_host));
        sim.connect(s, c, LinkParams::wired(), LinkParams::wired());

        sim.run_until(SimTime::from_secs(5));
        let quiet = sim.with_node::<Host, _>(c, |h| h.app_mut::<MonitorApp>(mon).history.len());
        assert_eq!(quiet, 0, "below threshold: no notification");

        let hub2 = hub.clone();
        sim.at(SimTime::from_secs(6), move |_| {
            hub2.lock().unwrap()
                .set("gw", "cpuLoadAvg", Value::Double(0.95));
        });
        sim.run_until(SimTime::from_secs(9));
        let fired = sim.with_node::<Host, _>(c, |h| h.app_mut::<MonitorApp>(mon).history.len());
        assert_eq!(fired, 1, "one immediate notification on range entry");
    }

    /// One-shot polls answer immediately and leave no registration behind.
    #[test]
    fn poll_once_roundtrip() {
        let mut sim = Simulator::new(13);
        let server_addr: comma_netsim::addr::Ipv4Addr = "10.0.0.1".parse().unwrap();
        let client_addr: comma_netsim::addr::Ipv4Addr = "10.0.0.2".parse().unwrap();
        let hub = MetricsHub::shared();
        hub.lock().unwrap().set("gw", "bytes_rx", Value::Long(123_456));

        let mut server_host = Host::new("gw", server_addr);
        let srv = server_host.add_app(Box::new(EemServer::new("gw", hub.clone())));

        let mut id = VarId::init();
        id.set_by_name("bytes_rx").unwrap();
        let mut attr = Attr::init();
        attr.set_lbound(Value::Long(0));
        attr.set_operator(Operator::Gte).unwrap();
        let mut client_host = Host::new("mobile", client_addr);
        let mon = client_host.add_app(Box::new(MonitorApp::new(
            5000,
            server_addr,
            vec![(id, attr, Mode::Once)],
        )));

        let s = sim.add_node(Box::new(server_host));
        let c = sim.add_node(Box::new(client_host));
        sim.connect(s, c, LinkParams::wired(), LinkParams::wired());
        sim.run_until(SimTime::from_secs(2));

        let (reg_id, reg_count) = sim.with_node::<Host, _>(c, |h| {
            let app = h.app_mut::<MonitorApp>(mon);
            (app.reg_ids[0], app.client.registration_count())
        });
        assert_eq!(reg_count, 0, "once-mode leaves no registration");
        let v = sim.with_node::<Host, _>(c, |h| {
            h.app_mut::<MonitorApp>(mon).client.query_getvalue(reg_id)
        });
        assert_eq!(v, Some(Value::Long(123_456)));
        let polls = sim.with_node::<Host, _>(s, |h| h.app_mut::<EemServer>(srv).stats.polls_served);
        assert_eq!(polls, 1);
    }
}
