//! The EEM client example of Fig 6.2: register `sysUpTime` with an
//! IN-[0,20] notification range and poll the protected data area.
//!
//! Run with: `cargo run --example eem_monitor`

use comma_repro::prelude::*;

fn main() {
    let mut sim = Simulator::new(62);
    let server_addr = "11.11.10.1".parse().unwrap();
    let client_addr = "11.11.10.10".parse().unwrap();
    let hub = MetricsHub::shared();

    // The EEM server gathers local machine statistics (here: the hub that
    // the sampling loop fills; in the thesis, SNMP and /proc).
    let mut gw = Host::new("gw", server_addr);
    gw.add_app(Box::new(EemServer::new("gw", hub.clone())));

    // The Fig 6.2 client program, step by step:
    //   comma_init();                                  -> MonitorApp/EemClient
    //   comma_attr_setlbound(&attr, 0); setubound(20); setoperator(COMMA_IN);
    //   comma_id_setall(&id, COMMA_SYSUPTIME, 0);
    //   comma_var_register(&id, &attr);
    let mut id = VarId::init();
    id.set_num(comma_eem::COMMA_SYSUPTIME)
        .expect("sysUpTime id");
    let mut attr = Attr::init();
    attr.set_lbound(Value::Long(0));
    attr.set_ubound(Value::Long(20));
    attr.set_operator(Operator::In).expect("IN");
    println!("main: register OK");

    let mut mobile = Host::new("mobile", client_addr);
    let mon = mobile.add_app(Box::new(MonitorApp::new(
        5000,
        server_addr,
        vec![(id, attr, Mode::Periodic)],
    )));

    let s = sim.add_node(Box::new(gw));
    let c = sim.add_node(Box::new(mobile));
    sim.connect(s, c, LinkParams::wired(), LinkParams::wired());

    // Simulate the server host's uptime counter.
    for t in 0..=130u64 {
        let hub = hub.clone();
        sim.at(SimTime::from_secs(t), move |_| {
            hub.lock().unwrap()
                .set("gw", "sysUpTime", Value::Long(t as i64));
        });
    }

    // "Continually read from static store": poll the PDA at ten-second
    // intervals for two minutes, printing changes (lines 71-81).
    let mut seen = 0usize;
    for i in 1..=12u64 {
        sim.run_until(SimTime::from_secs(i * 10));
        let fresh: Vec<String> = sim.with_node::<Host, _>(c, |h| {
            let app = h.app_mut::<MonitorApp>(mon);
            let out = app.history[seen..]
                .iter()
                .map(|(_, v)| v.to_string())
                .collect();
            seen = app.history.len();
            out
        });
        for v in fresh {
            println!("main: new value: {v}");
        }
    }
    println!(
        "(updates ceased once sysUpTime left the [0,20] range — exactly the requested signature)"
    );
}
