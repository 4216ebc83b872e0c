//! E15 — the filter-queue ordering semantics of §5.2 / Fig 5.2.
//!
//! The in queue runs top (highest priority) to bottom and is read-only;
//! the out queue runs bottom to top, so higher-priority filters modify
//! last and can override lower-priority changes. A drop mid-queue ends the
//! packet's processing. Capability violations are blocked by the engine
//! (Chapter 9).

use std::any::Any;
use std::sync::{Arc, Mutex};

use comma_repro::prelude::*;

type Log = Arc<Mutex<Vec<String>>>;

/// A probe filter that records its in/out invocations and stamps the TOS
/// byte with its tag in the out pass.
struct Probe {
    tag: &'static str,
    priority: Priority,
    caps: Capabilities,
    log: Log,
    stamp: Option<u8>,
    drop: bool,
}

impl Filter for Probe {
    fn kind(&self) -> &'static str {
        "probe"
    }
    fn priority(&self) -> Priority {
        self.priority
    }
    fn capabilities(&self) -> Capabilities {
        self.caps
    }
    fn on_in(&mut self, _ctx: &mut FilterCtx<'_>, _key: StreamKey, _pkt: &Packet) {
        self.log.lock().unwrap().push(format!("in:{}", self.tag));
    }
    fn on_out(&mut self, _ctx: &mut FilterCtx<'_>, _key: StreamKey, pkt: &mut Packet) -> Verdict {
        self.log.lock().unwrap().push(format!("out:{}", self.tag));
        if let Some(stamp) = self.stamp {
            pkt.ip.tos = stamp;
        }
        if self.drop {
            Verdict::Drop
        } else {
            Verdict::Continue
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

struct World {
    engine: FilterEngine,
    rng: SmallRng,
    log: Log,
}

fn build(probes: Vec<(&'static str, Priority, Capabilities, Option<u8>, bool)>) -> World {
    let log: Log = Arc::default();
    let mut catalog = FilterCatalog::new();
    for (tag, priority, caps, stamp, drop) in probes {
        let log = log.clone();
        catalog.register_loaded(
            tag,
            Box::new(move |_args| {
                Ok(Box::new(Probe {
                    tag,
                    priority,
                    caps,
                    log: log.clone(),
                    stamp,
                    drop,
                }))
            }),
        );
    }
    World {
        engine: FilterEngine::new(catalog),
        rng: SmallRng::seed_from_u64(1),
        log,
    }
}

fn pkt() -> Packet {
    let mut seg = TcpSegment::new(7, 1169, 0, 0, TcpFlags::ACK);
    seg.payload = Bytes::from_static(b"payload");
    Packet::tcp(
        "11.11.10.99".parse().unwrap(),
        "11.11.10.10".parse().unwrap(),
        seg,
    )
}

#[test]
fn in_top_down_out_bottom_up() {
    let all = Capabilities::all();
    let mut w = build(vec![
        ("hi", Priority::Highest, all, None, false),
        ("mid", Priority::Normal, all, None, false),
        ("lo", Priority::Lowest, all, None, false),
    ]);
    for tag in ["hi", "mid", "lo"] {
        w.engine.register(WildKey::ANY, tag, vec![]).unwrap();
    }
    let outs = w
        .engine
        .process(SimTime::ZERO, &mut w.rng, &NullMetrics, pkt());
    assert_eq!(outs.len(), 1);
    assert_eq!(
        *w.log.lock().unwrap(),
        vec!["in:hi", "in:mid", "in:lo", "out:lo", "out:mid", "out:hi"],
        "Fig 5.2 ordering"
    );
}

#[test]
fn higher_priority_overrides_lower() {
    let all = Capabilities::all();
    let mut w = build(vec![
        ("hi", Priority::High, all, Some(0xAA), false),
        ("lo", Priority::Low, all, Some(0x55), false),
    ]);
    w.engine.register(WildKey::ANY, "hi", vec![]).unwrap();
    w.engine.register(WildKey::ANY, "lo", vec![]).unwrap();
    let outs = w
        .engine
        .process(SimTime::ZERO, &mut w.rng, &NullMetrics, pkt());
    // Both stamp; the high-priority filter runs last and wins.
    assert_eq!(outs[0].ip.tos, 0xAA);
}

#[test]
fn drop_short_circuits_remaining_out_methods() {
    let all = Capabilities::all();
    let mut w = build(vec![
        ("hi", Priority::High, all, None, false),
        ("dropper", Priority::Low, all, None, true),
    ]);
    w.engine.register(WildKey::ANY, "hi", vec![]).unwrap();
    w.engine.register(WildKey::ANY, "dropper", vec![]).unwrap();
    let outs = w
        .engine
        .process(SimTime::ZERO, &mut w.rng, &NullMetrics, pkt());
    assert!(outs.is_empty(), "packet dropped");
    // Both saw it on the in pass; only the dropper's out method ran.
    assert_eq!(*w.log.lock().unwrap(), vec!["in:hi", "in:dropper", "out:dropper"]);
    assert_eq!(w.engine.totals.drops, 1);
}

#[test]
fn unauthorized_modification_blocked() {
    // The probe stamps TOS but declares READ_ONLY: the engine must restore
    // the packet and count a violation (Chapter 9).
    let mut w = build(vec![(
        "rogue",
        Priority::Normal,
        Capabilities::READ_ONLY,
        Some(0xEE),
        false,
    )]);
    w.engine.register(WildKey::ANY, "rogue", vec![]).unwrap();
    let outs = w
        .engine
        .process(SimTime::ZERO, &mut w.rng, &NullMetrics, pkt());
    assert_eq!(outs[0].ip.tos, 0, "modification rolled back");
    let infos = w.engine.instance_infos();
    assert_eq!(infos[0].stats.violations, 1);
    assert!(w
        .engine
        .log
        .iter()
        .any(|l| l.contains("unauthorized modification")));
}

#[test]
fn unauthorized_drop_blocked() {
    let mut w = build(vec![(
        "rogue",
        Priority::Normal,
        Capabilities::READ_ONLY,
        None,
        true,
    )]);
    w.engine.register(WildKey::ANY, "rogue", vec![]).unwrap();
    let outs = w
        .engine
        .process(SimTime::ZERO, &mut w.rng, &NullMetrics, pkt());
    assert_eq!(
        outs.len(),
        1,
        "drop verdict ignored without DROP capability"
    );
    assert_eq!(w.engine.instance_infos()[0].stats.violations, 1);
}

#[test]
fn wildcard_instantiates_per_stream() {
    let all = Capabilities::all();
    let mut w = build(vec![("mid", Priority::Normal, all, None, false)]);
    w.engine.register(WildKey::ANY, "mid", vec![]).unwrap();
    // Two distinct streams → two instances.
    w.engine
        .process(SimTime::ZERO, &mut w.rng, &NullMetrics, pkt());
    let mut p2 = pkt();
    p2.as_tcp_mut().unwrap().src_port = 8;
    w.engine
        .process(SimTime::ZERO, &mut w.rng, &NullMetrics, p2);
    assert_eq!(w.engine.live_instances(), 2);
}

#[test]
fn accounting_tracks_bytes_saved() {
    struct Shrinker;
    impl Filter for Shrinker {
        fn kind(&self) -> &'static str {
            "shrinker"
        }
        fn priority(&self) -> Priority {
            Priority::Normal
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::MODIFY_PAYLOAD
        }
        fn on_out(
            &mut self,
            _ctx: &mut FilterCtx<'_>,
            _key: StreamKey,
            pkt: &mut Packet,
        ) -> Verdict {
            if let Some(seg) = pkt.as_tcp_mut() {
                seg.payload = Bytes::from_static(b"x");
            }
            Verdict::Continue
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut catalog = FilterCatalog::new();
    catalog.register_loaded("shrinker", Box::new(|_| Ok(Box::new(Shrinker))));
    let mut engine = FilterEngine::new(catalog);
    engine.register(WildKey::ANY, "shrinker", vec![]).unwrap();
    let mut rng = SmallRng::seed_from_u64(2);
    engine.process(SimTime::ZERO, &mut rng, &NullMetrics, pkt());
    let stats = engine.instance_infos()[0].stats;
    assert_eq!(stats.pkts_modified, 1);
    assert_eq!(stats.bytes_removed, 6, "7-byte payload shrunk to 1");
}
