//! E15 — the filter-queue ordering semantics of §5.2 / Fig 5.2.
//!
//! The in queue runs top (highest priority) to bottom and is read-only;
//! the out queue runs bottom to top, so higher-priority filters modify
//! last and can override lower-priority changes. A drop mid-queue ends the
//! packet's processing. Capability violations are blocked by the engine
//! (Chapter 9).

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
    /// For the table tests: one request, made once, from one callback (an
    /// index into `CALLBACKS`), its injected packets marked with the `u16`.
    ask: Option<(usize, Ask, u16)>,
}

impl Probe {
    fn reached(&mut self, callback: usize, ctx: &mut FilterCtx<'_>) {
        if let Some((_, ask, mark)) = self.ask.take_if(|(at, ..)| *at == callback) {
            ask(ctx, mark);
        }
    }
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
    fn insert(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
        if self.ask.is_some() {
            ctx.set_timer(SimDuration::from_millis(1), WAKE);
        }
        self.reached(0, ctx);
        vec![key]
    }
    fn on_in(&mut self, ctx: &mut FilterCtx<'_>, _key: StreamKey, _pkt: &Packet) {
        self.log.lock().unwrap().push(format!("in:{}", self.tag));
        self.reached(1, ctx);
    }
    fn on_out(&mut self, ctx: &mut FilterCtx<'_>, _key: StreamKey, pkt: &mut Packet) -> Verdict {
        self.log.lock().unwrap().push(format!("out:{}", self.tag));
        self.reached(2, ctx);
        if let Some(stamp) = self.stamp {
            pkt.ip.tos = stamp;
        }
        if self.drop {
            Verdict::Drop
        } else {
            Verdict::Continue
        }
    }
    fn on_timer(&mut self, ctx: &mut FilterCtx<'_>, _token: u64) {
        self.reached(3, ctx);
    }
    fn on_removed(&mut self, ctx: &mut FilterCtx<'_>) {
        self.reached(4, ctx);
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
                    ask: None,
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

    // The rollback target is the packet as the last *authorized* change
    // left it (one snapshot is carried down the out pass and retaken only
    // after a change): a rogue above a legitimate modifier, an idle filter
    // between them, is rolled back to the modifier's packet.
    let mut w = build(vec![
        ("rogue", Priority::Highest, Capabilities::READ_ONLY, Some(0xEE), false),
        ("idle", Priority::Normal, Capabilities::all(), None, false),
        ("lo", Priority::Low, Capabilities::MODIFY_HEADERS, Some(0x55), false),
    ]);
    for tag in ["rogue", "idle", "lo"] {
        w.engine.register(WildKey::ANY, tag, vec![]).unwrap();
    }
    let outs = w
        .engine
        .process(SimTime::ZERO, &mut w.rng, &NullMetrics, pkt());
    assert_eq!(outs[0].ip.tos, 0x55, "lo's stamp survives the rogue's rollback");
    let violations: Vec<u64> = w.engine.instance_infos().iter().map(|i| i.stats.violations).collect();
    assert_eq!(violations, [1, 0, 0], "rogue, idle, lo");
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

// The rule as a table: what each callback may ask the engine for, and what
// becomes of it (the rustdoc table on `Filter`).

/// The five callbacks, in the order an instance meets them.
const CALLBACKS: [&str; 5] = ["insert", "on_in", "on_out", "on_timer", "on_removed"];
/// Timer token an asking probe sets in `insert`, to be brought to `on_timer`.
const WAKE: u64 = 1;
/// Timer token the "timer" request carries.
const ASKED: u64 = 2;

/// A request, given the `ip.id` to mark injected packets with.
type Ask = fn(&mut FilterCtx<'_>, u16);
const ASKS: [(&str, Ask); 5] = [
    ("timer", |c, _| c.set_timer(SimDuration::from_millis(5), ASKED)),
    ("event", |c, _| c.event("asked", vec![])),
    ("count", |c, _| c.count("asker.asked", 1)),
    ("service", |c, _| {
        c.add_service(WildKey::exact("9.9.9.9 1 8.8.8.8 2".parse().unwrap()), "bystander", vec![])
    }),
    // Two packets, so a refusal is seen to count packets, not requests.
    ("inject", |c, mark| {
        c.inject(marked(mark));
        c.inject(marked(mark + 1));
    }),
];

/// The serviced packet carries `ip.id` 0; injected ones carry their mark.
fn marked(id: u16) -> Packet {
    let mut p = pkt();
    p.ip.id = id;
    p
}

fn ids(pkts: Vec<Packet>) -> Vec<u16> {
    pkts.iter().map(|p| p.ip.id).collect()
}

/// An engine, obs on, with the given askers and a `READ_ONLY`, lowest-
/// priority `bystander` on every stream: the first filter of every out
/// pass, who must never pay for what another asked.
fn asking_world(askers: &[(&'static str, usize, Ask, Capabilities, Priority, u16)]) -> (World, Obs) {
    let mut w = build(vec![("bystander", Priority::Lowest, Capabilities::READ_ONLY, None, false)]);
    for &(tag, at, ask, caps, priority, mark) in askers {
        let log = w.log.clone();
        let asker = move |_: &[String]| {
            let (log, ask) = (log.clone(), Some((at, ask, mark)));
            Ok(Box::new(Probe { tag, priority, caps, log, stamp: None, drop: false, ask }) as Box<dyn Filter>)
        };
        w.engine.catalog.register_loaded(tag, Box::new(asker));
        w.engine.register(WildKey::ANY, tag, vec![]).unwrap();
    }
    w.engine.register(WildKey::ANY, "bystander", vec![]).unwrap();
    let obs = Obs::enabled();
    w.engine.set_obs(obs.clone());
    (w, obs)
}

/// (`InstanceStats::violations`, `filter.violations`, blocked-injection
/// log lines) of the one live instance of `kind`.
fn refusals(engine: &FilterEngine, obs: &Obs, kind: &str) -> (u64, u64, usize) {
    let line = format!("engine: blocked unauthorized injection by {kind} on ");
    let stats = engine.instance_infos().into_iter().find(|i| i.kind == kind).map(|i| i.stats);
    (
        stats.map_or(0, |s| s.violations),
        obs.counter(kind, "filter.violations"),
        engine.log.iter().filter(|l| l.starts_with(&line)).count(),
    )
}

/// Every callback × {timer, event, count, service request, injection with
/// `INJECT`, injection without}: an honoured request takes effect exactly
/// once and where the table says; a refused one is recorded against the
/// filter that made it — two packets in each of its two books, one log
/// line — and never against the bystander.
///
/// Fails at the parent of PR 24 three ways. An `on_in` injection was judged
/// by the *bystander's* capabilities: refused despite `INJECT`, and billed
/// to the bystander — a `READ_ONLY` out filter paying for a higher-priority
/// filter's in method. A refused `on_timer` injection wrote no log line
/// and no `filter.violations`. An `insert` injection was emitted nowhere
/// and counted nowhere.
#[test]
fn every_callback_settles_by_one_rule() {
    let cells = (0..5).flat_map(|at| (0..5).map(move |a| (at, a, Capabilities::INJECT)));
    for (at, a, caps) in cells.chain((0..5).map(|at| (at, 4, Capabilities::READ_ONLY))) {
        let (callback, (what, ask)) = (CALLBACKS[at], ASKS[a]);
        let cell = format!("`{what}` from `{callback}` with {caps:?}");
        let (mut w, obs) = asking_world(&[("asker", at, ask, caps, Priority::High, 10)]);
        let registered = w.engine.registrations().len();

        // Drive every callback: a packet (insert, in, out), the wake-up
        // timer, removal; a second packet shows nothing was left behind.
        let now = SimTime::ZERO;
        let first = w.engine.process(now, &mut w.rng, &NullMetrics, marked(0));
        let timers: Vec<_> = w.engine.drain_pending_timers().collect();
        let wake = timers.iter().find(|t| t.1 & 0xffff_ffff == WAKE).expect("set in insert").1;
        let fired = w.engine.on_timer(now, &mut w.rng, &NullMetrics, wake);
        let live = refusals(&w.engine, &obs, "asker").0;
        assert_eq!(w.engine.deregister(now, &mut w.rng, &NullMetrics, "asker", WildKey::ANY), 1);
        let timers = [timers, w.engine.drain_pending_timers().collect()].concat();
        let second = w.engine.process(now, &mut w.rng, &NullMetrics, marked(0));

        // Honoured: exactly the effect asked for, exactly once.
        let injects = what == "inject";
        let honoured = !injects || (caps == Capabilities::INJECT && callback != "on_removed");
        let effects = [
            timers.iter().filter(|t| t.1 & 0xffff_ffff == ASKED).count(),
            w.engine.log.iter().filter(|l| l.starts_with("asker: asked")).count(),
            obs.counter("asker", "asker.asked") as usize,
            w.engine.registrations().len() + 1 - registered,
            w.engine.totals.injected as usize,
        ];
        let mut want = [0; 5];
        want[a] = if injects { 2 * honoured as usize } else { 1 };
        assert_eq!(effects, want, "{cell}: [timers, events, counts, services, injections]");
        let injected = [obs.counter("asker", "filter.injected"), obs.counter("engine", "engine.injected")];
        assert_eq!(injected, [want[4] as u64; 2], "{cell}: the obs book agrees");
        let mut emitted = [vec![0], vec![], vec![0]];
        match callback {
            _ if !(injects && honoured) => {}
            "insert" => emitted[0] = vec![10, 11, 0],
            "on_timer" => emitted[1] = vec![10, 11],
            _ => emitted[0] = vec![0, 10, 11],
        }
        assert_eq!([ids(first), ids(fired), ids(second)], emitted, "{cell}: emitted where");

        // Refused: on the asker's account (`on_removed`'s `InstanceStats`
        // are gone with the instance), never on the bystander's.
        let refused = 2 * !honoured as u64;
        let (_, counted, lines) = refusals(&w.engine, &obs, "asker");
        assert_eq!((counted, lines), (refused, !honoured as usize), "{cell}: violations, log lines");
        assert_eq!(live, if callback == "on_removed" { 0 } else { refused }, "{cell}: InstanceStats");
        assert_eq!(refusals(&w.engine, &obs, "bystander"), (0, 0, 0), "{cell}: bystander billed");
    }
}

/// Emission order (`FilterCtx::inject`): what `insert` injects, the packet,
/// in-pass injections (highest priority first), then out-pass injections in
/// visit order (lowest priority first).
#[test]
fn injections_follow_the_packet_in_pass_order() {
    let (all, inject) = (Capabilities::all(), ASKS[4].1);
    let (mut w, _obs) = asking_world(&[
        ("ins", 0, inject, all, Priority::Normal, 10),
        ("in-hi", 1, inject, all, Priority::High, 20),
        ("in-lo", 1, inject, all, Priority::Low, 30),
        ("out-hi", 2, inject, all, Priority::High, 40),
        ("out-lo", 2, inject, all, Priority::Low, 50),
    ]);
    let outs = w.engine.process(SimTime::ZERO, &mut w.rng, &NullMetrics, marked(0));
    assert_eq!(ids(outs), vec![10, 11, 0, 20, 21, 30, 31, 50, 51, 40, 41]);
}

#[test]
fn unauthorized_injection_blocked() {
    let (mut w, obs) =
        asking_world(&[("rogue", 2, ASKS[4].1, Capabilities::READ_ONLY, Priority::Normal, 10)]);
    let outs = w.engine.process(SimTime::ZERO, &mut w.rng, &NullMetrics, marked(0));
    assert_eq!(ids(outs), vec![0], "the packet passes, the injections do not");
    assert_eq!(refusals(&w.engine, &obs, "rogue"), (2, 2, 1), "one violation per packet refused");
    assert_eq!(w.engine.totals.injected, 0);
}
