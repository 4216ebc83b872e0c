//! E01–E03: the worked interface examples of Figs 5.3, 6.2 and 7.1–7.4,
//! replayed against the real implementation.

use comma::topology::{addrs, CommaBuilder};
use comma_eem::{Attr, EemServer, MetricsHub, Mode, MonitorApp, Operator, Value, VarId};
use comma_kati::Kati;
use comma_netsim::link::LinkParams;
use comma_netsim::sim::Simulator;
use comma_netsim::time::SimTime;
use comma_proxy::ServiceProxy;
use comma_tcp::apps::{BulkSender, Sink};
use comma_tcp::host::Host;

use super::{world_seed, Experiment};

/// E01 — the SP telnet session of Fig 5.3, replayed command for command.
pub fn e01_sp_session(seed: u64) -> Experiment {
    let sender = BulkSender::new((addrs::MOBILE, 1169), 400_000);
    let mut world = CommaBuilder::new(world_seed(101, seed))
        .empty_filter_pool()
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(1169))]);

    let mut out = String::new();
    out.push_str("== E01: SP interface session (Fig 5.3) ==\n");
    out.push_str("styx:~> telnet eramosa 12000\n");

    // The thesis session begins with tcp/launcher/wsize active and rdrop
    // loaded but unused.
    for cmd in [
        "load tcp.so",
        "load launcher.so",
        "load wsize.so",
        "load rdrop.so",
        "add launcher 0.0.0.0 0 11.11.10.10 0 tcp wsize:scale:50",
    ] {
        let reply = world.sp(cmd);
        out.push_str(&format!("{cmd}\n{reply}"));
    }
    // Let the stream appear so the launcher instantiates its services.
    world.run_until(SimTime::from_millis(500));

    for cmd in [
        "report",
        "add rdrop 11.11.10.99 1024 11.11.10.10 1169 50",
        "report",
        "delete wsize 11.11.10.99 1024 11.11.10.10 1169",
        "report",
    ] {
        let reply = world.sp(cmd);
        out.push_str(&format!("{cmd}\n{reply}"));
        if cmd.starts_with("add rdrop") {
            world.run_until(SimTime::from_millis(700));
        }
    }
    out.push_str("^]\ntelnet> quit\nConnection closed.\n");
    out.into()
}

/// E02 — the EEM client example of Fig 6.2: register `sysUpTime` with an
/// IN \[0,20\] range and watch the PDA change over two minutes.
pub fn e02_eem_example(seed: u64) -> Experiment {
    let mut sim = Simulator::new(world_seed(102, seed));
    let server_addr: comma_netsim::addr::Ipv4Addr = "11.11.10.1".parse().unwrap();
    let client_addr: comma_netsim::addr::Ipv4Addr = "11.11.10.10".parse().unwrap();
    let hub = MetricsHub::shared();

    let mut server_host = Host::new("gw", server_addr);
    server_host.add_app(Box::new(EemServer::new("gw", hub.clone())));

    let mut id = VarId::init();
    id.set_by_name("sysUpTime").expect("sysUpTime");
    let mut attr = Attr::init();
    attr.set_lbound(Value::Long(0));
    attr.set_ubound(Value::Long(20));
    attr.set_operator(Operator::In).expect("IN");
    let mut client_host = Host::new("mobile", client_addr);
    let mon = client_host.add_app(Box::new(MonitorApp::new(
        5000,
        server_addr,
        vec![(id, attr, Mode::Periodic)],
    )));

    let s = sim.add_node(Box::new(server_host));
    let c = sim.add_node(Box::new(client_host));
    sim.connect(s, c, LinkParams::wired(), LinkParams::wired());

    // Drive sysUpTime like the uptime counter the example watches.
    for t in 0..=130u64 {
        let hub = hub.clone();
        sim.at(SimTime::from_secs(t), move |_| {
            hub.lock().unwrap()
                .set("gw", "sysUpTime", Value::Long(t as i64));
        });
    }

    let mut out = String::new();
    out.push_str("== E02: EEM client example (Fig 6.2) ==\n");
    out.push_str("main: register OK\n");
    // Poll the PDA every ten seconds for two minutes, as the sample code's
    // loop does.
    let mut last: Option<Value> = None;
    for i in 0..12u64 {
        sim.run_until(SimTime::from_secs((i + 1) * 10));
        let (reg, value) = sim.with_node::<Host, _>(c, |h| {
            let app = h.app_mut::<MonitorApp>(mon);
            let reg = app.reg_ids[0];
            (reg, app.client.query_getvalue(reg))
        });
        let _ = reg;
        if let Some(v) = value {
            if last.as_ref() != Some(&v) {
                out.push_str(&format!("main: new value: {v}\n"));
                last = Some(v);
            }
        }
    }
    out.push_str("note: updates stop arriving once sysUpTime leaves the requested [0,20] range\n");
    out.into()
}

/// E03 — the Kati session of Figs 7.1–7.4: observe a live stream, add a
/// compression service from the shell, watch it appear.
pub fn e03_kati_session(seed: u64) -> Experiment {
    let sender = BulkSender::new((addrs::MOBILE, 9000), 2_000_000);
    let mut world = CommaBuilder::new(world_seed(103, seed))
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    let proxy = world.proxy;
    let hub = world.hub.clone();
    let mut kati = Kati::new(proxy).with_hub(hub);

    world.run_until(SimTime::from_secs(1));
    kati.exec(&mut world.sim, "streams");
    kati.exec(&mut world.sim, "eem sp wireless.bw");
    // Fig 7.3: add a service to the selected stream from the shell.
    kati.exec(
        &mut world.sim,
        "add removal 11.11.10.99 1024 11.11.10.10 9000 0",
    );
    world.run_until(SimTime::from_secs(2));
    // Fig 7.4: the new service appears on the stream.
    kati.exec(&mut world.sim, "report removal");
    kati.exec(&mut world.sim, "filters");
    kati.exec(&mut world.sim, "netload 2 50");
    let sp_log_len = world
        .sim
        .with_node::<ServiceProxy, _>(proxy, |sp| sp.engine.log.len());
    let mut out = String::new();
    out.push_str("== E03: Kati session (Figs 7.1-7.4) ==\n");
    out.push_str(&kati.render_transcript());
    out.push_str(&format!("(proxy log now holds {sp_log_len} lines)\n"));
    out.into()
}
