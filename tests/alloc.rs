//! Allocation-regression suite: with the `alloc-stats` feature (a counting
//! `#[global_allocator]` in `comma-rt`), the steady-state hot loops must be
//! heap-silent — every buffer they touch is recycled, every payload pooled.
//! Warmup (the first simulated second) may allocate freely; anything after
//! it is a regression.
//!
//! Run with `cargo test --features alloc-stats --test alloc` or via
//! `./scripts/ci.sh alloc`. Without the feature the whole file compiles
//! away.
#![cfg(feature = "alloc-stats")]

use comma_bench::scale::{
    engine_alloc_probe, engine_alloc_probe_on, event_core_alloc_probe, fluid_alloc_probe,
    sharded_alloc_probe,
};

#[test]
fn serial_event_core_is_allocation_free_after_warmup() {
    let (warm, steady, _) = event_core_alloc_probe(32, 7);
    assert!(warm > 0, "warmup fills recycled buffers, so it must allocate");
    assert_eq!(
        steady, 0,
        "the serial event core allocated {steady} times in steady state \
         (after {warm} warmup allocations)"
    );
}

#[test]
fn sharded_window_loop_is_allocation_free_after_warmup() {
    for workers in [1usize, 2] {
        let (warm, steady, _) = sharded_alloc_probe(4, workers, 7);
        assert!(warm > 0, "warmup fills lanes and scratch, so it must allocate");
        assert_eq!(
            steady, 0,
            "the sharded window loop ({workers} workers) allocated {steady} \
             times in steady state (after {warm} warmup allocations)"
        );
    }
}

#[test]
fn fluid_epoch_is_allocation_free_after_warmup() {
    // 1,000 users leave the probe link underloaded (O(1) decision),
    // 10,000 overload it (water-filling walk): both epoch paths.
    for users in [1_000usize, 10_000] {
        let (warm, steady) = fluid_alloc_probe(users, 7);
        assert!(warm > 0, "construction and active-set growth must allocate");
        assert_eq!(
            steady, 0,
            "FluidState::epoch ({users} users) allocated {steady} times in \
             steady state (after {warm} warmup allocations)"
        );
    }
}

#[test]
fn proxy_packet_path_is_allocation_free_after_warmup() {
    let (warm, steady) = engine_alloc_probe();
    assert!(warm > 0, "instantiating the chain must allocate");
    assert_eq!(
        steady, 0,
        "1,000 steady-state segments through tcp → snoop → wsize → tcp allocated \
         {steady} times (after {warm} warmup allocations)"
    );
}

/// The same chain watched: with obs enabled the packet path still does not
/// touch the heap (every counter is a resolved write site, the dispatch
/// histogram exists after the first packet, and this chain emits no
/// flight-recorder events in steady state), and the registry cannot
/// disagree with the structs the engine keeps beside it.
#[test]
fn lit_packet_path_is_allocation_free_after_warmup() {
    use comma_repro::obs::Obs;
    let obs = Obs::enabled();
    let mut engine = comma_bench::scale::four_filter_engine();
    engine.set_obs(obs.clone());
    let (warm, steady) = engine_alloc_probe_on(&mut engine);
    assert!(warm > 0, "instantiating the chain and resolving its write sites must allocate");
    assert_eq!(steady, 0, "1,000 lit steady-state segments allocated {steady} times");
    assert_eq!(obs.counter("engine", "engine.pkts"), engine.totals.pkts);
    assert_eq!(engine.totals.pkts, 1_200);
    assert_eq!(obs.counter("engine", "engine.batches"), engine.totals.batches);
    assert_eq!(obs.counter("engine", "engine.modified"), engine.totals.modified);
    assert_eq!(obs.counter("engine", "engine.drops"), engine.totals.drops);
    let infos = engine.instance_infos();
    for kind in ["tcp", "snoop", "wsize"] {
        let of_kind = || infos.iter().filter(|i| i.kind == kind).map(|i| i.stats);
        assert!(of_kind().count() > 0, "{kind} instantiated");
        assert_eq!(
            obs.counter(kind, "filter.pkts"),
            of_kind().map(|s| s.pkts_seen).sum::<u64>(),
            "{kind} filter.pkts"
        );
        assert_eq!(
            obs.counter(kind, "filter.modified"),
            of_kind().map(|s| s.pkts_modified).sum::<u64>(),
            "{kind} filter.modified"
        );
    }
}

/// A clean segment costs the oracle no allocation: no flow label is
/// formatted for a violation that never comes, and the stream log grows by
/// doubling, not per segment.
#[test]
fn oracle_clean_segment_allocates_nothing() {
    use comma_repro::faultcheck::{Oracle, OracleConfig};
    use comma_repro::netsim::node::NodeId;
    use comma_repro::netsim::packet::{Packet, TcpFlags, TcpSegment};
    use comma_repro::netsim::sim::PacketObserver;
    use comma_repro::netsim::time::SimTime;
    use comma_repro::prelude::addrs;

    const MSS: usize = 1460;
    let (a, b) = (NodeId(0), NodeId(1));
    let mut oracle = Oracle::new(OracleConfig::new(vec![(a, addrs::WIRED), (b, addrs::MOBILE)]));
    let now = SimTime::ZERO;
    let both = |oracle: &mut Oracle, pkt: &Packet, from: NodeId, to: NodeId| {
        oracle.on_tx(now, from, pkt);
        oracle.on_deliver(now, to, pkt);
    };
    // Handshake: ISNs 100 and 500; `b` advertises the window `a` sends into.
    let syn = TcpSegment::new(7, 9000, 100, 0, TcpFlags::SYN);
    both(&mut oracle, &Packet::tcp(addrs::WIRED, addrs::MOBILE, syn), a, b);
    let mut synack = TcpSegment::new(9000, 7, 500, 101, TcpFlags::SYN | TcpFlags::ACK);
    synack.window = u16::MAX;
    both(&mut oracle, &Packet::tcp(addrs::MOBILE, addrs::WIRED, synack), b, a);

    let payload = comma_rt::Bytes::from(vec![0x5au8; MSS]);
    let mut seq = 101u32;
    let mut exchange = |oracle: &mut Oracle, n: usize| {
        for _ in 0..n {
            let mut seg = TcpSegment::new(7, 9000, seq, 501, TcpFlags::ACK);
            seg.payload = payload.clone();
            seq += MSS as u32;
            both(oracle, &Packet::tcp(addrs::WIRED, addrs::MOBILE, seg), a, b);
            // The receiver's ACK opens the window for the next one.
            let mut ack = TcpSegment::new(9000, 7, 501, seq, TcpFlags::ACK);
            ack.window = u16::MAX;
            both(oracle, &Packet::tcp(addrs::MOBILE, addrs::WIRED, ack), b, a);
        }
    };
    exchange(&mut oracle, 8);
    let steady = comma_rt::alloc::AllocScope::begin();
    exchange(&mut oracle, 1_000);
    let allocs = steady.delta().allocs;
    // Two logs (sent, delivered) of 1,008 × 1,460 bytes past an 8-segment
    // head start: at most eight doublings of `data` and of the bitset each.
    assert!(allocs <= 32, "1,000 clean segments allocated {allocs} times");
    let report = oracle.finish();
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.segments_checked, 2 * (2 + 2 * 1_008));
    assert_eq!(report.truncated_flows, 1, "1.47 MB one way runs past the 1 MiB stream cap");
}

/// What one compressed segment costs the heap in the paper's compression
/// service: an MSS of `bulk_lit`'s prose through a `compress lzss` TTSF
/// (the proxy), its output through a `decompress` TTSF (the stub), and the
/// receiver's ACK back through both so the edit maps stay trimmed. The
/// filters are called directly with one long-lived `FilterCtx`, so what is
/// counted is the service's own work, not the engine's per-packet context
/// (whose request vectors add eight more a segment through a real engine).
#[test]
fn compressed_segment_allocations_are_bounded() {
    use comma_repro::filters::appdata::seeded_prose;
    use comma_repro::filters::catalog::DEFAULT_BLOCK;
    use comma_repro::filters::codec::Method;
    use comma_repro::filters::transform::{Compressor, Decompressor};
    use comma_repro::filters::ttsf::Ttsf;
    use comma_repro::netsim::packet::{Packet, TcpFlags, TcpSegment};
    use comma_repro::netsim::time::SimTime;
    use comma_repro::prelude::addrs;
    use comma_repro::proxy::filter::{Filter, FilterCtx, NullMetrics, Verdict};
    use comma_repro::proxy::key::StreamKey;
    use comma_repro::rt::{Bytes, SeedableRng, SmallRng};

    const MSS: usize = 1460;
    let down = |seq: u32, flags: TcpFlags, payload: Bytes| {
        let mut seg = TcpSegment::new(7, 9000, seq, 1, flags);
        seg.payload = payload;
        Packet::tcp(addrs::WIRED, addrs::MOBILE, seg)
    };
    let ack = |ack: u32| {
        let mut seg = TcpSegment::new(9000, 7, 1, ack, TcpFlags::ACK);
        seg.window = u16::MAX;
        Packet::tcp(addrs::MOBILE, addrs::WIRED, seg)
    };
    let key = StreamKey::of_packet(&down(0, TcpFlags::SYN, Bytes::new())).expect("tcp");
    let mut proxy = Ttsf::new(Box::new(Compressor::new(Method::Lzss, DEFAULT_BLOCK)));
    let mut stub = Ttsf::new(Box::new(Decompressor::new()));
    let mut rng = SmallRng::seed_from_u64(1);
    let mut ctx = FilterCtx::new(SimTime::ZERO, &mut rng, &NullMetrics);
    // The SYN opens both edit maps at 1.
    for ttsf in [&mut proxy, &mut stub] {
        ttsf.insert(&mut ctx, key);
        let verdict = ttsf.on_out(&mut ctx, key, &mut down(0, TcpFlags::SYN, Bytes::new()));
        assert_eq!(verdict, Verdict::Continue);
    }
    let text = Bytes::from(seeded_prose(42, 1_200 * MSS));
    let mut sent = 0;
    let mut send = |n: usize| {
        for i in sent..sent + n {
            let seq = 1 + (i * MSS) as u32;
            let raw = text.slice(i * MSS..(i + 1) * MSS);
            let mut pkt = down(seq, TcpFlags::ACK, raw.clone());
            proxy.on_out(&mut ctx, key, &mut pkt);
            let payload = &pkt.as_tcp().expect("tcp").payload;
            assert!(payload.len() < MSS, "prose compresses");
            let record = proxy.map().and_then(|m| m.records().last()).expect("a record");
            assert!(record.out.ptr_eq(payload), "edit-map record and payload share one buffer");
            stub.on_out(&mut ctx, key, &mut pkt);
            assert_eq!(pkt.as_tcp().expect("tcp").payload, raw, "segment {i} round-trips");
            let next = seq + MSS as u32;
            let mut up = ack(next);
            stub.on_out(&mut ctx, key.reverse(), &mut up);
            proxy.on_out(&mut ctx, key.reverse(), &mut up);
            assert_eq!(up.as_tcp().expect("tcp").ack, next, "the ACK maps back unchanged");
        }
        sent += n;
        assert!(ctx.take_injections().is_empty(), "every emission fits one packet");
    };
    send(200);
    let steady = comma_rt::alloc::AllocScope::begin();
    send(1_000);
    // Five a segment: the compressor's hash chains, its output and that
    // output's `Bytes`; the decompressor's output and its `Bytes` (plus
    // `ctx`'s request vectors doubling). The parent made 15,021 here and
    // never shared a record with its packet; the ceiling is this tree's
    // 5,006, under half of that.
    let allocs = steady.delta().allocs;
    assert!(allocs <= 5_010, "1,000 compressed segments allocated {allocs} times");
}

/// A block whose header declares more than its method's bound allows for
/// its stored bytes is refused before anything is reserved for it: three
/// stored RLE bytes decode to at most 255, so a header claiming 65,535
/// must not cost 64 KiB.
#[test]
fn block_past_the_codec_bound_reserves_nothing() {
    use comma_repro::filters::transform::{Decompressor, StreamTransformer, BLOCK_MAGIC};

    let rle_frame = [BLOCK_MAGIC, 1, 0xff, 0xff, 0, 3, 0x90, b'a', 255];
    let mut deco = Decompressor::new();
    let scope = comma_rt::alloc::AllocScope::begin();
    let out = deco.transform(&rle_frame);
    let peak = scope.peak_live_bytes();
    assert!(out.is_empty() && deco.errors == 1, "the block is refused");
    assert!(peak < 1_024, "a refused block held {peak} bytes at once");
}

#[test]
fn hub_metrics_lookup_is_allocation_free() {
    use comma_repro::core::HubMetrics;
    use comma_repro::eem::{MetricsHub, Value};
    use comma_repro::proxy::filter::MetricsSource;
    let hub = MetricsHub::shared();
    hub.lock().unwrap().set("sp", "wireless.qlen", Value::Long(9));
    let metrics = HubMetrics::new(hub, "sp");
    let scope = comma_rt::alloc::AllocScope::begin();
    assert_eq!(metrics.get("wireless.qlen"), Some(9.0), "present variable");
    assert_eq!(metrics.get("absent"), None, "absent variable");
    assert_eq!(scope.delta().allocs, 0, "a hub lookup must borrow its key");
}

/// ROADMAP item 4's "bytes per flow", as a number that repeats exactly:
/// what 200 finished 4 KiB transfers through `tcp, snoop, wsize, tcp`
/// still hold, per flow, after the last TIME-WAIT.
#[test]
fn finished_flow_retains_bounded_bytes() {
    let per_flow = comma_bench::scale::finished_flow_retained_bytes(200, 4096, 7);
    println!("retained bytes per finished flow: {per_flow}");
    // Measures 4,151, the thread's one 16,635-byte pattern period included.
    // The tree that closed a stream on its second FIN+ACK, and so rebuilt
    // and kept a chain for its final ACK, measured 4,804; the tree that
    // copied `BulkSender`'s pattern into every write, 5,011; before the
    // zero-copy `SendBuffer`, reused instance slots and the flat Snoop
    // cache, 6,419; before the one-slab wheel and the self-freeing
    // `SendBuffer`, 31,890.
    assert!(per_flow <= 4_151, "a finished flow retains {per_flow} requested bytes");
}

/// A finished flow leaves nothing at the proxy: N transfers through
/// `tcp, snoop, wsize, tcp`, one after another on a loss-free path, end
/// with no flow entry and no filter instance. Each flow created its own
/// chain once and closed it once. (Closing on the second FIN+ACK left a
/// chain, rebuilt by the final ACK, behind every flow.)
#[test]
fn finished_flows_leave_no_entry_and_no_instance() {
    use comma_repro::prelude::*;
    use comma_repro::proxy::ServiceProxy;
    use comma_repro::tcp::apps::SocketId;

    /// `left` transfers of `bytes` each, the next opened when the peer
    /// closes the last.
    #[derive(Clone)]
    struct OneAfterAnother {
        left: usize,
        bytes: usize,
    }
    impl App for OneAfterAnother {
        fn name(&self) -> &str {
            "one-after-another"
        }
        fn on_start(&mut self, ctx: &mut AppCtx) {
            ctx.connect((addrs::MOBILE, 9000));
        }
        fn on_connected(&mut self, ctx: &mut AppCtx, sock: SocketId) {
            ctx.send(sock, vec![7u8; self.bytes]);
            ctx.close(sock);
        }
        fn on_peer_closed(&mut self, ctx: &mut AppCtx, _sock: SocketId) {
            self.left -= 1;
            if self.left > 0 {
                ctx.connect((addrs::MOBILE, 9000));
            }
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    const FLOWS: usize = 20;
    let sender = OneAfterAnother { left: FLOWS, bytes: 4_096 };
    let mut world = CommaBuilder::new(7)
        .eem(false)
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    for service in ["tcp", "snoop", "wsize", "tcp"] {
        world.sp(&format!("add {service} 0.0.0.0 0 11.11.10.10 0"));
    }
    world.run_until(SimTime::from_secs(120));
    let sink = world.mobile_app_ids[0];
    let (received, closed) = world.mobile_app::<Sink, _>(sink, |s| (s.bytes_received, s.closed));
    assert_eq!((received, closed), (FLOWS * 4_096, FLOWS), "every transfer ran to its close");
    let (streams, live, totals) = world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
        (sp.engine.streams(), sp.engine.live_instances(), sp.engine.totals)
    });
    assert!(streams.is_empty(), "flow entries outlive their flows: {streams:?}");
    assert_eq!(live, 0, "instances outlive their flows");
    assert_eq!(totals.instances_created, 4 * FLOWS as u64, "one chain a flow");
    assert_eq!(totals.instances_dropped, 4 * FLOWS as u64);
    assert_eq!(totals.streams_closed, FLOWS as u64);
}

/// The most bytes the many-flows workload (200 flows × 4 KiB through
/// `tcp, snoop, wsize, tcp`, build included) holds at once: a memory gate
/// that reads the same on every host, where RSS does not.
#[test]
fn many_flows_peak_live_bytes_is_pinned() {
    let peak = comma_bench::scale::run_many_flows(200, 4096, 7).peak_live_bytes.unwrap();
    println!("many-flows peak live bytes: {peak}");
    // Measures 993,394 in the whole suite (993,434 alone: what ran before
    // in the process moves it). Holding nodes in shared cells, so forks can
    // share them, costs each node 32 B (reference counts, a
    // wider slot), and the simulator's own copy of each node's name is
    // gone: 24 B less in all than the tree before, which measured 993,418.
    // The tree that rebuilt a chain for every final ACK
    // measured 1,021,544; the tree that copied `BulkSender`'s pattern into
    // a fresh 4 KiB `Vec` per flow, 1,795,847; the tree before the
    // filter catalog kept its loaded set as a second map of names,
    // 1,797,227; the tree that copied every written byte into the send
    // buffer and every segment out of it, 2,236,491.
    assert!(peak <= 993_418, "the many-flows workload peaked at {peak} live bytes");
}

/// A data segment is a slice of the write it lies in: sending a window of
/// segments out of one written chunk allocates nothing per segment. (The
/// tree that copied each payload out of a contiguous buffer made 97
/// allocations here, two a segment.)
#[test]
fn segments_sent_from_a_written_chunk_allocate_no_payload() {
    use comma_repro::netsim::time::SimTime;
    use comma_repro::rt::Bytes;
    use comma_repro::tcp::config::TcpConfig;
    use comma_repro::tcp::conn::{Effects, TcpConnection};

    let now = SimTime::ZERO;
    let cfg = TcpConfig {
        initial_cwnd_segments: 64,
        ..TcpConfig::default().with_recv_buffer(65_535)
    };
    let (mut a, mut b) = (TcpConnection::new(cfg.clone(), 100), TcpConnection::new(cfg, 500));
    b.listen();
    let fx = |f: &mut dyn FnMut(&mut Effects)| {
        let mut eff = Effects::default();
        f(&mut eff);
        eff.segments
    };
    let syn = fx(&mut |e| a.connect(now, e)).remove(0);
    let synack = fx(&mut |e| b.on_segment(now, &syn, e)).remove(0);
    let ack = fx(&mut |e| a.on_segment(now, &synack, e)).remove(0);
    fx(&mut |e| b.on_segment(now, &ack, e));

    let chunk = Bytes::from(vec![0x5au8; 64 * 1460]);
    let scope = comma_rt::alloc::AllocScope::begin();
    let sent = fx(&mut |e| a.write(now, chunk.clone(), e));
    let allocs = scope.delta().allocs;
    assert_eq!(sent.len(), 45, "a 65,535-byte window: 44 full segments and a short one");
    let storage = chunk.as_ptr() as usize..chunk.as_ptr() as usize + chunk.len();
    for seg in &sent {
        assert!(storage.contains(&(seg.payload.as_ptr() as usize)), "a payload was copied");
    }
    // What is left is the send buffer's list of writes (one) and the
    // fresh effects list doubling from 4 to 64 slots (five; a host keeps
    // its own).
    println!("{} segments, {allocs} allocations", sent.len());
    assert!(allocs <= 6, "{} segments allocated {allocs} times", sent.len());
}

/// A default-pattern `BulkSender` write is a view of the thread's one
/// period buffer: K senders' writes all lie in that storage and hold no
/// bytes of their own, at any K. (The tree that copied the pattern into a
/// fresh `Vec` per write failed the storage check.)
#[test]
fn default_pattern_writes_allocate_no_payload_storage() {
    use comma_repro::prelude::*;
    use comma_repro::tcp::apps::{AppOp, SocketId};

    let writes = |k: usize, payloads: &mut Vec<Bytes>| {
        let scope = comma_rt::alloc::AllocScope::begin();
        for i in 0..k {
            let mut sender = BulkSender::new((addrs::MOBILE, 9000 + i as u16), 4_096 + i);
            let mut ctx = AppCtx::new(SimTime::ZERO);
            sender.on_connected(&mut ctx, SocketId(i));
            payloads.extend(ctx.take_ops().into_iter().filter_map(|op| match op {
                AppOp::Send { data, .. } => Some(data),
                _ => None,
            }));
        }
        scope.delta()
    };
    let mut payloads = Vec::with_capacity(1 + 1 + 256);
    writes(1, &mut payloads); // builds this thread's period
    let one = writes(1, &mut payloads);
    let many = writes(256, &mut payloads);
    let start = payloads[0].as_ptr() as usize;
    let storage = start..start + 251 + BulkSender::CHUNK;
    assert_eq!(payloads.len(), 258);
    for p in &payloads {
        assert!(storage.contains(&(p.as_ptr() as usize)), "a write was copied");
    }
    println!("one sender {one:?}; 256 senders {many:?}");
    // Each sender allocates its op list and nothing else, and gives it back.
    assert_eq!(many.alloc_bytes, 256 * one.alloc_bytes, "a write allocated payload");
    assert_eq!(many.alloc_bytes - many.dealloc_bytes, 0, "256 writes hold bytes");
}

/// Reference model for the default pattern: whatever the transfer's length
/// (up to three chunks, biased to straddle the 251-byte period and the
/// chunk edge), the sink receives `(i % 251) as u8` at every offset.
#[test]
fn default_pattern_delivers_i_mod_251() {
    use comma_repro::prelude::*;
    use comma_repro::rt::prop::Runner;

    const CHUNK: usize = BulkSender::CHUNK;
    Runner::new("default_pattern_delivers_i_mod_251").run(
        |rng| {
            let total = match rng.gen_range(0..3) {
                0 => rng.gen_range(0..3 * CHUNK + 1),
                1 => rng.gen_range(1..3) * CHUNK + rng.gen_range(0..520) - 260,
                _ => rng.gen_range(1..3 * CHUNK / 251 + 1) * 251 + rng.gen_range(0..3) - 1,
            };
            (total, rng.gen::<u64>())
        },
        |&(total, seed)| {
            let mut world = CommaBuilder::new(seed).build(
                vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), total))],
                vec![Box::new(Sink::new(9000).with_capture(total))],
            );
            world.run_until(SimTime::from_secs(60));
            let sink = world.mobile_app_ids[0];
            let got = world.mobile_app::<Sink, _>(sink, |s| s.capture.clone());
            ensure_eq!(got.len(), total, "bytes delivered");
            let bad = (0..total).find(|&i| got[i] != (i % 251) as u8);
            ensure!(bad.is_none(), "byte {bad:?} of {total} differs from i % 251");
            Ok(())
        },
    );
}

/// The wheel holds memory for what is pending at once, not for the largest
/// burst a slot ever saw times the slots in use: after a 1,000-entry
/// same-microsecond burst, 10⁵ schedule/pop rounds that walk all six
/// levels reuse the burst's cells and allocate nothing.
#[test]
fn wheel_memory_tracks_pending_not_bursts() {
    use comma_repro::netsim::sched::TimerWheel;
    use comma_repro::netsim::time::SimTime;
    // 96 bytes with a niche, like the simulator's event: a 128-byte cell.
    type Item = (std::num::NonZeroU64, [u64; 11]);
    const CELL: u64 = 128;
    let item = |n: u64| (std::num::NonZeroU64::MIN.saturating_add(n), [n; 11]);

    let whole = comma_rt::alloc::AllocScope::begin();
    let mut wheel: TimerWheel<Item> = TimerWheel::new();
    for n in 0..1_000 {
        wheel.schedule(SimTime::from_micros(5), item(n));
    }
    // One entry through the overflow heap too: the rounds below cross the
    // wheel's 2^36 µs span a few hundred times.
    let mut at = 1u64 << 40;
    wheel.schedule(SimTime::from_micros(at), item(0));
    while wheel.pop().is_some() {}

    let steady = comma_rt::alloc::AllocScope::begin();
    for round in 0..100_000u64 {
        at += 1 << (6 * (round % 6)); // lands `round % 6` levels up
        wheel.schedule(SimTime::from_micros(at), item(round));
        assert_eq!(wheel.pop().map(|(t, _)| t.as_micros()), Some(at));
    }
    assert_eq!(steady.delta().allocs, 0, "single-entry rounds reuse the burst's cells");
    let held = whole.delta();
    let (cells, ready, overflow) = (2 * 1_024 * CELL, 2 * 1_024 * 4, 4 * 24);
    assert!(
        held.alloc_bytes - held.dealloc_bytes <= cells + ready + overflow,
        "the wheel holds {} bytes after a 1,000-entry burst",
        held.alloc_bytes - held.dealloc_bytes
    );
}

/// What one model-checking fork costs the heap: `Simulator::snapshot` of
/// the default `McConfig` world copies only what a step can change
/// (configuration, names and the oracle's stream logs are shared by
/// refcount), and a node only once per written state: the first fork after
/// a write clones the node and hands the copy to the fork, later forks
/// share it until one side writes it again.
#[test]
fn mc_fork_cost_is_pinned() {
    use comma_repro::mc::scenario::build_scenario;
    use comma_repro::mc::McConfig;
    use comma_repro::netsim::sim::{ForkPool, McAction, Simulator};

    let measure = |f: &mut dyn FnMut()| {
        let scope = comma_rt::alloc::AllocScope::begin();
        f();
        let cost = scope.delta();
        (cost.allocs, cost.alloc_bytes)
    };
    let fork_cost = |sim: &Simulator| {
        let mut fork = None;
        let cost = measure(&mut || fork = Some(sim.snapshot().expect("the mc world is snapshot-capable")));
        drop(fork);
        cost
    };
    let step = |sim: &mut Simulator| sim.mc_step(0, McAction::Deliver).expect("a due event");
    let step_cost = |sim: &mut Simulator| measure(&mut || step(sim));
    // 30 events in, mid-transfer, where the next event is a delivery: it
    // writes exactly one node.
    let at_a_delivery = || {
        let mut sim = build_scenario(&McConfig::default()).sim;
        for _ in 0..30 {
            step(&mut sim);
        }
        while !sim.mc_options()[0].is_delivery {
            step(&mut sim);
        }
        sim
    };
    let mut sim = at_a_delivery();
    let first = fork_cost(&sim);
    let second = fork_cost(&sim);
    // The explorer's fork: into a finished branch a pool kept.
    let mut pool = ForkPool::default();
    let kept = pool.fork(&sim).expect("a fork");
    pool.recycle(kept);
    let mut pooled = None;
    let into_kept = measure(&mut || pooled = Some(pool.fork(&sim).expect("a fork")));
    drop(pooled);
    let held = sim.snapshot().expect("a third fork, kept while the original steps");
    let shared_step = step_cost(&mut sim);
    let after_write = fork_cost(&sim);
    drop(held);
    let unshared_step = step_cost(&mut at_a_delivery());
    println!(
        "first fork {first:?}, second fork {second:?}, fork into a kept branch {into_kept:?}, \
         fork after a write {after_write:?}; step {unshared_step:?}, step under a fork {shared_step:?}"
    );
    // At this point, 34 events in, the tree that cloned every node on every
    // fork paid 57 allocations / 11,942 B for each fork, and the tree that
    // cloned each node's state at its first fork paid that for the first.
    //
    // A fork shares all three nodes (two hosts and the proxy) and copies
    // the scheduler, channels, RNG streams, interface table and oracle: 12
    // allocations. The first fork of a state also asks each node whether
    // it can be copied, which copies nothing.
    assert_eq!(first, (12, 3_432), "first fork of a never-forked world");
    assert_eq!(second, (12, 3_432), "second fork, no step between");
    // The same fork into a finished branch: every table, the oracle's flow
    // table included, is copied into buffers the branch kept.
    assert_eq!(into_kept, (0, 0), "a fork into a kept branch, no step between");
    // The delivery wrote one node, the host it arrived at: only that node
    // is checked again, and nothing is copied.
    assert_eq!(after_write, (12, 3_432), "fork after a step that wrote one node");
    // A node is copied by the step that writes it while another world
    // still shares it, and only then: the nine allocations of the copy,
    // and two for the scratch buffers a copy starts without.
    assert_eq!(unshared_step, (0, 0), "the delivery in a world no fork shares");
    assert_eq!(shared_step, (11, 2_244), "the same delivery while a fork shares the node");
}

/// A decision point reads the world without allocating: on a fork warmed
/// by ten steps, the explorer's three reads at each of the next twenty —
/// the alternatives, the fingerprint (whose pending-event walk and node
/// digests run again after every step) and the invariant sweep — allocate
/// nothing.
#[test]
fn mc_decision_point_reads_allocate_nothing() {
    use comma_repro::mc::scenario::{build_scenario, check_invariants};
    use comma_repro::mc::McConfig;
    use comma_repro::netsim::sim::{McAction, Simulator};

    let world = build_scenario(&McConfig::default());
    let (mut sim, proxy) = (world.sim, world.proxy);
    let step = |sim: &mut Simulator| sim.mc_step(0, McAction::Deliver).expect("a due event");
    for _ in 0..30 {
        step(&mut sim);
    }
    let mut fork = sim.snapshot().expect("the mc world is snapshot-capable");
    let read = |sim: &mut Simulator| {
        let scope = comma_rt::alloc::AllocScope::begin();
        assert!(!sim.mc_options().is_empty());
        sim.state_hash();
        assert_eq!(check_invariants(sim, proxy), None);
        scope.delta().allocs
    };
    for _ in 0..10 {
        read(&mut fork);
        step(&mut fork);
    }
    let mut allocs = 0;
    for _ in 0..20 {
        allocs += read(&mut fork);
        step(&mut fork);
    }
    assert_eq!(allocs, 0, "twenty warmed decision points allocated {allocs} times");
}
