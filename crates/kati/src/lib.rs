//! Kati (Chapter 7): the user shell for third-party transparent-service
//! control.
//!
//! Kati is what turns the Comma proxy's filters into *transparent*
//! services: a person (or script) other than the application adds,
//! removes, and monitors stream services, and watches network conditions —
//! the thesis's enabling mechanism for servicing legacy applications.

#![warn(missing_docs)]

pub mod netload;
pub mod shell;

pub use shell::Kati;

#[cfg(test)]
mod tests {
    use super::*;
    use comma_eem::{MetricsHub, Value};
    use comma_filters::standard_catalog;
    use comma_netsim::link::LinkParams;
    use comma_netsim::node::IfaceId;
    use comma_netsim::prelude::*;
    use comma_netsim::routing::RoutingTable;
    use comma_proxy::engine::FilterEngine;
    use comma_proxy::ServiceProxy;
    use comma_tcp::apps::{BulkSender, Sink};
    use comma_tcp::host::Host;

    fn world() -> (Simulator, Kati, comma_netsim::node::NodeId) {
        let mut sim = Simulator::new(21);
        let wired: Ipv4Addr = "11.11.10.99".parse().unwrap();
        let mobile: Ipv4Addr = "11.11.10.10".parse().unwrap();

        let mut sender = Host::new("wired", wired);
        sender.add_app(Box::new(BulkSender::new((mobile, 9000), 200_000)));
        let s = sim.add_node(Box::new(sender));

        let mut table = RoutingTable::new();
        table.add(comma_netsim::addr::Subnet::host(wired), IfaceId(0));
        table.add(comma_netsim::addr::Subnet::host(mobile), IfaceId(1));
        let catalog = standard_catalog(comma_filters::ALL_FILTERS);
        let engine = FilterEngine::new(catalog);
        let sp_node =
            ServiceProxy::new("sp", vec!["11.11.10.1".parse().unwrap()], table, engine, 21);
        let p = sim.add_node(Box::new(sp_node));

        let mut receiver = Host::new("mobile", mobile);
        receiver.add_app(Box::new(Sink::new(9000)));
        let m = sim.add_node(Box::new(receiver));

        sim.connect(s, p, LinkParams::wired(), LinkParams::wired());
        sim.connect(p, m, LinkParams::wireless(), LinkParams::wireless());

        let hub = MetricsHub::shared();
        hub.lock().unwrap().set("sp", "wireless.up", Value::Long(1));
        let kati = Kati::new(p).with_hub(hub);
        (sim, kati, m)
    }

    #[test]
    fn session_controls_services_on_live_stream() {
        let (mut sim, mut kati, mobile) = world();
        // Attach the housekeeping filter to all streams toward the mobile.
        assert_eq!(kati.exec(&mut sim, "add tcp 0.0.0.0 0 11.11.10.10 0"), "");
        // Mid-transfer: a finished stream leaves no entry to list.
        sim.run_until(SimTime::from_millis(500));

        let streams = kati.exec(&mut sim, "streams");
        assert!(streams.contains("11.11.10.99"), "{streams}");
        let report = kati.exec(&mut sim, "report tcp");
        assert!(report.starts_with("tcp\n"));
        assert!(report.contains("-> 11.11.10.10"), "{report}");

        let filters = kati.exec(&mut sim, "filters");
        assert!(filters.contains("tcp"), "{filters}");
        let stats = kati.exec(&mut sim, "stats");
        assert!(stats.contains("packets="));

        sim.run_until(SimTime::from_secs(20));
        let got = sim.with_node::<Host, _>(mobile, |h| {
            h.app_mut::<Sink>(comma_tcp::host::AppId(0)).bytes_received
        });
        assert_eq!(
            got, 200_000,
            "transfer completed under Kati-managed service"
        );
        let streams = kati.exec(&mut sim, "streams");
        assert!(!streams.contains("11.11.10.99"), "the closed stream is gone: {streams}");
    }

    #[test]
    fn netload_shows_traffic() {
        let (mut sim, mut kati, _) = world();
        sim.run_until(SimTime::from_secs(3));
        // Channel 2 is proxy→mobile (third created channel).
        let chart = kati.exec(&mut sim, "netload 2");
        assert!(
            chart.contains('#'),
            "wireless link carried traffic:\n{chart}"
        );
        assert!(chart.contains("peak"));
        let missing = kati.exec(&mut sim, "netload 99");
        assert!(missing.contains("no such channel"));
    }

    #[test]
    fn eem_command_reads_hub() {
        let (mut sim, mut kati, _) = world();
        assert_eq!(
            kati.exec(&mut sim, "eem sp wireless.up"),
            "sp.wireless.up = 1\n"
        );
        assert!(kati.exec(&mut sim, "eem sp nosuch").contains("<no value>"));
        assert!(kati.exec(&mut sim, "eem").contains("usage"));
    }

    #[test]
    fn obs_command_reports_connections_filters_links() {
        let (mut sim, mut kati, _) = world();
        assert!(kati.exec(&mut sim, "obs summary").contains("disabled"));
        assert_eq!(kati.exec(&mut sim, "obs on"), "obs: enabled\n");
        kati.exec(&mut sim, "add tcp 0.0.0.0 0 11.11.10.10 0");
        sim.run_until(SimTime::from_secs(5));
        let s = kati.exec(&mut sim, "obs summary");
        assert!(s.contains("== tcp connections =="), "{s}");
        assert!(s.contains("cwnd"), "{s}");
        assert!(s.contains("== filters =="), "{s}");
        assert!(s.contains("tcp"), "{s}");
        assert!(s.contains("== links =="), "{s}");
        assert!(s.contains("events: "), "{s}");
        let dump = kati.exec(&mut sim, "obs dump");
        assert!(dump.contains("link.offered"), "{dump}");
        assert!(dump.contains("tcp.cwnd"), "{dump}");
        kati.exec(&mut sim, "obs reset");
        let dump2 = kati.exec(&mut sim, "obs dump");
        assert!(!dump2.contains("link.offered"), "{dump2}");
        assert!(kati.exec(&mut sim, "obs bogus").contains("usage"));
    }

    #[test]
    fn transcript_and_help() {
        let (mut sim, mut kati, _) = world();
        kati.exec(&mut sim, "help");
        kati.exec(&mut sim, "bogus");
        let t = kati.render_transcript();
        assert!(t.contains("kati> help"));
        assert!(t.contains("unknown command"));
    }
}
