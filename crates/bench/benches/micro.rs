//! Micro-benchmarks of the reproduction's hot paths, on the `comma_rt`
//! bench harness (`cargo bench -p comma-bench --bench micro`; set
//! `COMMA_BENCH_FAST=1` for a quick smoke run).

use comma_rt::bench::Bench;
use comma_rt::Bytes;

use comma_filters::appdata::seeded_prose;
use comma_filters::codec::Method;
use comma_filters::editmap::EditMap;
use comma_filters::standard_catalog;
use comma_netsim::packet::{Packet, TcpFlags, TcpSegment};
use comma_netsim::time::SimTime;
use comma_netsim::wire;
use comma_proxy::engine::FilterEngine;
use comma_proxy::filter::NullMetrics;
use comma_proxy::WildKey;
use comma_rt::SeedableRng;
use comma_rt::SmallRng;

fn data_packet(len: usize) -> Packet {
    let mut seg = TcpSegment::new(7, 1169, 1000, 0, TcpFlags::ACK);
    seg.payload = Bytes::from(vec![0xabu8; len]);
    Packet::tcp(
        "11.11.10.99".parse().unwrap(),
        "11.11.10.10".parse().unwrap(),
        seg,
    )
}

fn bench_wire(bench: &mut Bench) {
    let pkt = data_packet(1400);
    let bytes = wire::encode(&pkt);
    let mut g = bench.group("wire");
    g.throughput_bytes(bytes.len() as u64);
    g.bench("encode_1400B", || wire::encode(&pkt));
    g.bench("decode_1400B", || wire::decode(&bytes).unwrap());
    g.finish();
}

/// What `bulk_lit` compresses: its seeded prose, one 1,460-byte MSS block at
/// a time (a short-period string would hit an 18-byte match at every
/// position and never exercise the per-item branching that costs). The
/// random row is the block the compress service gives up on: the encoder
/// stops at the raw length and the block travels stored.
fn bench_codecs(bench: &mut Bench) {
    use comma_filters::transform::{Compressor, StreamTransformer};
    use comma_rt::Rng;
    const MSS: usize = 1460;
    let text = seeded_prose(42, 16 * MSS);
    let mut rng = SmallRng::seed_from_u64(4);
    let random: Vec<u8> = (0..text.len()).map(|_| rng.gen()).collect();
    let mut compressor = Compressor::new(Method::Lzss, MSS);
    let packed: Vec<Vec<u8>> = text.chunks(MSS).map(|b| Method::Lzss.compress(b)).collect();
    let mut g = bench.group("codec");
    g.throughput_bytes(text.len() as u64);
    g.bench("lzss_compress_prose_1460B", || {
        text.chunks(MSS).map(|b| Method::Lzss.compress(b).len()).sum::<usize>()
    });
    g.bench("lzss_compress_random_1460B", || {
        random.chunks(MSS).map(|b| compressor.transform(b).len()).sum::<usize>()
    });
    g.bench("lzss_decompress_prose_1460B", || {
        packed.iter().map(|p| Method::Lzss.decompress(p).unwrap().len()).sum::<usize>()
    });
    g.bench("lzss_decompress_exact_prose_1460B", || {
        packed
            .iter()
            .map(|p| Method::Lzss.decompress_exact(p, MSS).unwrap().len())
            .sum::<usize>()
    });
    g.bench("rle_compress_prose_1460B", || {
        text.chunks(MSS).map(|b| Method::Rle.compress(b).len()).sum::<usize>()
    });
    g.finish();
}

fn bench_editmap(bench: &mut Bench) {
    let mut g = bench.group("editmap");
    g.bench_batched(
        "push_map_inverse_100edits",
        || EditMap::new(0),
        |mut map| {
            for _ in 0..100 {
                map.push(1460, Bytes::from(vec![0u8; 700]), false);
            }
            let mut acc = 0u32;
            for k in 0..100u32 {
                acc = acc.wrapping_add(map.map_seq(k * 1460));
                acc = acc.wrapping_add(map.inverse_ack(k * 700));
            }
            acc
        },
    );
    g.finish();
}

fn bench_engine(bench: &mut Bench) {
    let mut g = bench.group("filter-engine");
    for depth in [0usize, 1, 4] {
        let mut engine = FilterEngine::new(standard_catalog(comma_filters::ALL_FILTERS));
        for _ in 0..depth {
            engine.register(WildKey::ANY, "tcp", vec![]).unwrap();
        }
        let mut rng = SmallRng::seed_from_u64(1);
        // Prime the queue.
        engine.process(SimTime::ZERO, &mut rng, &NullMetrics, data_packet(1400));
        g.bench(format!("per_packet_depth{depth}"), || {
            engine.process(SimTime::ZERO, &mut rng, &NullMetrics, data_packet(1400))
        });
    }

    // The ISSUE-tracked fast-path benches: a packet through an empty queue
    // (pure dispatch overhead) and through a realistic 4-filter chain
    // (tcp → snoop → wsize → tcp), payload untouched — the zero-clone path.
    let mut passthrough = FilterEngine::new(standard_catalog(comma_filters::ALL_FILTERS));
    let mut rng = SmallRng::seed_from_u64(2);
    passthrough.process(SimTime::ZERO, &mut rng, &NullMetrics, data_packet(1400));
    g.bench("engine_process_passthrough", || {
        passthrough.process(SimTime::ZERO, &mut rng, &NullMetrics, data_packet(1400))
    });

    let mut chain = comma_bench::scale::four_filter_engine();
    let mut rng = SmallRng::seed_from_u64(3);
    chain.process(SimTime::ZERO, &mut rng, &NullMetrics, data_packet(1400));
    let mut seq = 0u32;
    g.bench("engine_process_4filter_chain", || {
        seq = seq.wrapping_add(1400);
        let mut pkt = data_packet(1400);
        if let comma_netsim::packet::IpPayload::Tcp(seg) = &mut pkt.body {
            seg.seq = seq;
        }
        chain.process(SimTime::ZERO, &mut rng, &NullMetrics, pkt)
    });
    g.finish();
}

fn bench_flow_table(bench: &mut Bench) {
    use comma_proxy::flow::FlowTable;
    use comma_proxy::StreamKey;
    use std::sync::Arc;

    let mut g = bench.group("flow-table");
    let mut table = FlowTable::new();
    let keys: Vec<StreamKey> = (0..64u16)
        .map(|i| {
            StreamKey::new(
                "11.11.10.99".parse().unwrap(),
                1024 + i,
                "11.11.10.10".parse().unwrap(),
                9000,
            )
        })
        .collect();
    for key in &keys {
        table.entry(*key).members = Arc::from(vec![0, 1, 2, 3]);
    }
    let mut i = 0usize;
    g.bench("flow_table_lookup", || {
        i = (i + 1) & 63;
        table.members(keys[i])
    });
    g.finish();
}

fn bench_sched(bench: &mut Bench) {
    use comma_netsim::sched::TimerWheel;
    use comma_rt::Rng;

    let mut g = bench.group("sched");

    // Steady-state schedule+pop at three standing queue depths. Each
    // iteration replaces one popped entry, so the depth stays constant;
    // the wheel's cost is O(1) amortized where the heap pays O(log n).
    for depth in [100usize, 10_000, 100_000] {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut rng = SmallRng::seed_from_u64(depth as u64);
        let mut now = 0u64;
        for i in 0..depth {
            wheel.schedule(SimTime::from_micros(rng.gen_range(0..1_000_000)), i as u64);
        }
        g.bench(format!("sched_schedule_pop_depth{depth}"), || {
            let (t, v) = wheel.pop().expect("queue never drains");
            now = t.as_micros();
            wheel.schedule(
                SimTime::from_micros(now + 1 + rng.gen_range(0..1_000_000)),
                v,
            );
            v
        });
    }

    // Cancel cost: allocate a handle, schedule, cancel. The cancelled
    // entry never dispatches; the wheel purges it lazily.
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut i = 0u64;
    g.bench("sched_cancel", || {
        i += 1;
        let h = wheel.schedule_with_handle(SimTime::from_micros(i + 500), i);
        wheel.cancel(h)
    });

    // Cascade cost: 1,000 entries 50 ms out sit two levels up, so popping
    // them all carries each one down through two slot lists to level 0.
    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    let mut now = 0u64;
    g.bench("sched_cascade", || {
        for i in 0..1_000u64 {
            wheel.schedule(SimTime::from_micros(now + 50_000 + i), i);
        }
        while let Some((t, _)) = wheel.pop() {
            now = t.as_micros();
        }
        now
    });
    g.finish();
}

fn bench_fluid(bench: &mut Bench) {
    use comma_bench::scale::{step_fluid, warmed_fluid};

    // One `FluidState::epoch` of a warmed default population on the metro
    // link: apply the due toggles to the maintained sorted active set,
    // then the O(1) underload decision (100 and 1,000 users) or the
    // water-filling walk of an overloaded link (10,000).
    let mut g = bench.group("fluid");
    for users in [100usize, 1_000, 10_000] {
        let (mut state, mut t) = warmed_fluid(users, users as u64);
        g.bench(format!("fluid_solver_epoch_{users}"), move || {
            step_fluid(&mut state, &mut t);
            state.residual_bps()
        });
    }
    g.finish();
}

fn bench_simulation(bench: &mut Bench) {
    use comma::topology::{addrs, CommaBuilder};
    use comma_tcp::apps::{BulkSender, Sink};
    let mut g = bench.group("simulation");
    g.sample_size(10);
    g.bench("bulk_1MB_end_to_end", || {
        let mut world = CommaBuilder::new(1).eem(false).build(
            vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), 1_000_000))],
            vec![Box::new(Sink::new(9000))],
        );
        world.run_until(SimTime::from_secs(60));
        world.mobile_app::<Sink, _>(world.mobile_app_ids[0], |s| s.bytes_received)
    });
    g.finish();
}

fn bench_mc(bench: &mut Bench) {
    use comma_mc::{explore, McConfig};
    let mut g = bench.group("mc");
    g.sample_size(10);
    // Explored-states-per-second proxy: one full single-flow exploration
    // (faults=1) per iteration; divide the reported states by the
    // iteration time for the rate. The config is small enough to finish
    // in milliseconds but still exercises snapshot, fingerprint, and
    // branch enumeration on every hot path.
    let cfg = McConfig {
        flows: 1,
        ..McConfig::default()
    };
    g.bench("explore_flow1_fault1_states", || {
        explore(&cfg).states_explored
    });
    g.finish();
}

fn bench_obs(bench: &mut Bench) {
    use comma::topology::{addrs, CommaBuilder};
    use comma_tcp::apps::{BulkSender, Sink};
    let mut g = bench.group("obs");
    // The raw handle: the disabled path must cost one boolean load.
    let disabled = comma_obs::Obs::new();
    g.bench("counter_inc_disabled", || {
        disabled.inc("ch0", "link.enqueued");
        disabled.is_enabled()
    });
    let enabled = comma_obs::Obs::enabled();
    g.bench("counter_inc_enabled", || {
        enabled.inc("ch0", "link.enqueued");
        enabled.is_enabled()
    });
    // The same writes through resolved handles: no lock, no lookup.
    let counter = enabled.counter_handle("ch0", "link.enqueued");
    g.bench("counter_handle_inc_enabled", || {
        counter.inc();
        enabled.is_enabled()
    });
    let gauge = enabled.gauge_handle("wired.conn.1", "tcp.cwnd");
    let mut cwnd = 0.0f64;
    g.bench("gauge_handle_set_enabled", || {
        cwnd += 1460.0;
        gauge.set(cwnd);
        enabled.is_enabled()
    });
    // The instrumented stack end to end (netsim enqueue/dequeue, TCP state
    // publication, engine dispatch), observability off vs on. The "off"
    // number is the regression guard: it should be statistically
    // indistinguishable from the pre-instrumentation cost.
    g.sample_size(10);
    for on in [false, true] {
        g.bench(
            format!("bulk_256k_obs_{}", if on { "on" } else { "off" }),
            || {
                let mut world = CommaBuilder::new(1).eem(false).observability(on).build(
                    vec![Box::new(BulkSender::new((addrs::MOBILE, 9000), 256_000))],
                    vec![Box::new(Sink::new(9000))],
                );
                world.run_until(SimTime::from_secs(30));
                world.mobile_app::<Sink, _>(world.mobile_app_ids[0], |s| s.bytes_received)
            },
        );
    }
    g.finish();
}

/// The oracle's per-segment cost where the bytes are: one emitted MSS
/// segment through every sent-side check and into the stream log, fresh
/// (in order) and as an exact retransmission. 512 segments keep a stream
/// under the oracle's 1 MiB log cap.
fn bench_oracle(bench: &mut Bench) {
    use comma_faultcheck::{Oracle, OracleConfig};
    use comma_netsim::node::NodeId;
    use comma_netsim::sim::PacketObserver;
    const MSS: u32 = 1460;
    const SEGS: u32 = 512;
    let (src, dst) = ("11.11.10.99".parse().unwrap(), "11.11.10.10".parse().unwrap());
    let established = || {
        let mut oracle = Oracle::new(OracleConfig::new(vec![(NodeId(0), src), (NodeId(1), dst)]));
        let syn = TcpSegment::new(7, 1169, 1000, 0, TcpFlags::SYN);
        oracle.on_tx(SimTime::ZERO, NodeId(0), &Packet::tcp(src, dst, syn));
        oracle
    };
    let segment = |k: u32| {
        let mut seg = TcpSegment::new(7, 1169, 1001 + k * MSS, 0, TcpFlags::ACK);
        seg.payload = Bytes::from(vec![k as u8; MSS as usize]);
        Packet::tcp(src, dst, seg)
    };
    let segments: Vec<Packet> = (0..SEGS).map(segment).collect();
    let mut g = bench.group("oracle");
    g.throughput_bytes(MSS as u64);
    let (mut oracle, mut k) = (established(), 0usize);
    g.bench("record_mss_in_order", || {
        if k == segments.len() {
            (oracle, k) = (established(), 0);
        }
        oracle.on_tx(SimTime::ZERO, NodeId(0), &segments[k]);
        k += 1;
    });
    let mut oracle = established();
    for pkt in &segments {
        oracle.on_tx(SimTime::ZERO, NodeId(0), pkt);
    }
    let mut k = 0usize;
    g.bench("record_mss_retransmit", || {
        oracle.on_tx(SimTime::ZERO, NodeId(0), &segments[k % segments.len()]);
        k += 1;
    });
    g.finish();
    assert!(oracle.finish().is_clean(), "the benched stream is a legal one");
}

fn main() {
    let mut bench = Bench::new();
    bench_wire(&mut bench);
    bench_codecs(&mut bench);
    bench_editmap(&mut bench);
    bench_engine(&mut bench);
    bench_flow_table(&mut bench);
    bench_sched(&mut bench);
    bench_fluid(&mut bench);
    bench_simulation(&mut bench);
    bench_mc(&mut bench);
    bench_obs(&mut bench);
    bench_oracle(&mut bench);
    bench.finish();
}
