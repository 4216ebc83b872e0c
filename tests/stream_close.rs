//! The `tcp` housekeeping filter tears a stream's chain down when the
//! stream closes: on the ACK that covers the second FIN, in the sequence
//! space the peer sees, even with a TTSF rewriting the bytes in between.

use comma_repro::prelude::*;
use comma_repro::proxy::ServiceProxy;

/// The paper's compression service on three streams, oracle attached: each
/// stream is closed once, on its covering ACK, and leaves no flow entry and
/// no instance behind at either proxy that ran `tcp`.
#[test]
fn lit_world_closes_each_stream_once() {
    let ports = [9000u16, 9001, 9002];
    let senders: Vec<Box<dyn App>> = ports
        .iter()
        .map(|&port| {
            let sender = BulkSender::new((addrs::MOBILE, port), 40_000)
                .with_pattern(|i| b"the quick brown fox jumps over the lazy dog. "[i % 45]);
            Box::new(sender) as Box<dyn App>
        })
        .collect();
    let sinks = ports.iter().map(|&port| Box::new(Sink::new(port)) as Box<dyn App>).collect();
    let mut world = CommaBuilder::new(42).double_proxy(true).build(senders, sinks);
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 0");
    world.sp("add compress 0.0.0.0 0 11.11.10.10 0 lzss");
    world.stub_sp("add decompress 0.0.0.0 0 11.11.10.10 0");
    world.attach_oracle();
    world.run_until(SimTime::from_secs(60));

    for id in world.mobile_app_ids.clone() {
        assert_eq!(world.mobile_app::<Sink, _>(id, |s| s.bytes_received), 40_000);
    }
    let (closes, streams, live) = world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
        let closes: Vec<String> = (sp.engine.log.iter())
            .filter(|l| l.ends_with("closed; filters removed"))
            .cloned()
            .collect();
        (closes, sp.engine.streams(), sp.engine.live_instances())
    });
    assert_eq!(closes.len(), ports.len(), "one close per stream: {closes:?}");
    for port in ports {
        let stream = format!(" {} {port} closed", addrs::MOBILE);
        let n = closes.iter().filter(|l| l.contains(&stream)).count();
        assert_eq!(n, 1, "stream to port {port} closed {n} times: {closes:?}");
    }
    assert!(streams.is_empty(), "flow entries outlive their streams: {streams:?}");
    assert_eq!(live, 0, "instances outlive their streams");
    world.assert_oracle_clean();
}
