//! The engine's two public packet entries are one path: `process_batch`
//! (what the Service Proxy node and the benchmark's replay call) must be
//! observationally identical to `process` per packet, however the input
//! is chunked.

use comma_repro::prelude::*;
use comma_repro::rt::prop::{gen, Runner};

use comma_repro::netsim::addr::Ipv4Addr;
use comma_repro::netsim::packet::{IcmpMessage, IpPayload};
use comma_repro::netsim::wire;

const SRC: Ipv4Addr = Ipv4Addr::new(11, 11, 10, 99);
const DST: Ipv4Addr = Ipv4Addr::new(11, 11, 10, 10);

/// Two rewriting/observing filters, one stateful injector/dropper, and one
/// RNG-consuming dropper.
const CHAIN: &[(&str, &[&str])] = &[
    ("tcp", &[]),
    ("snoop", &[]),
    ("wsize", &["scale", "90"]),
    ("rdrop", &["30"]),
];

fn build_engine() -> FilterEngine {
    let mut engine = FilterEngine::new(standard_catalog(ALL_FILTERS));
    for (name, args) in CHAIN {
        let args = args.iter().map(|a| a.to_string()).collect();
        engine
            .register(WildKey::ANY, name, args)
            .expect("register chain filter");
    }
    engine
}

#[derive(Debug, Clone)]
enum Step {
    /// A data segment (possibly zero-length) on `flow`; `flags` adds FIN
    /// or RST, `tunnelled` wraps it in an IP-in-IP header.
    Seg {
        flow: usize,
        len: usize,
        flags: TcpFlags,
        tunnelled: bool,
    },
    /// A non-keyed packet spliced between the flows.
    Icmp,
}

fn gen_step(rng: &mut SmallRng, flows: usize) -> Step {
    let flags = match rng.gen_range(0u32..40) {
        0 => TcpFlags::FIN | TcpFlags::ACK,
        1 => TcpFlags::RST,
        _ => TcpFlags::ACK,
    };
    Step::Seg {
        flow: rng.gen_range(0..flows),
        len: if rng.gen_range(0u32..8) == 0 {
            0
        } else {
            rng.gen_range(1usize..300)
        },
        flags,
        tunnelled: rng.gen_range(0u32..30) == 0,
    }
}

/// Per-flow seq cursors, a SYN opening each flow.
fn build_packets(steps: &[Step]) -> Vec<Packet> {
    let mut seqs = [0u32; 8];
    let mut opened = [false; 8];
    let mut pkts = Vec::with_capacity(steps.len() + 8);
    for step in steps {
        let &Step::Seg {
            flow,
            len,
            flags,
            tunnelled,
        } = step
        else {
            let echo = IcmpMessage::EchoRequest {
                id: 9,
                seq: 1,
                payload: Bytes::from(vec![1u8; 32]),
            };
            pkts.push(Packet::icmp(SRC, DST, echo));
            continue;
        };
        let sport = 5000 + flow as u16;
        if !opened[flow] {
            opened[flow] = true;
            pkts.push(Packet::tcp(
                SRC,
                DST,
                TcpSegment::new(sport, 9000, seqs[flow], 0, TcpFlags::SYN),
            ));
            seqs[flow] = seqs[flow].wrapping_add(1);
        }
        let mut seg = TcpSegment::new(sport, 9000, seqs[flow], 77, flags);
        seg.payload = Bytes::from(vec![(flow as u8) ^ 0x5a; len]);
        seqs[flow] = seqs[flow].wrapping_add(len as u32);
        let pkt = Packet::tcp(SRC, DST, seg);
        pkts.push(if tunnelled {
            Packet::encap(DST, SRC, pkt)
        } else {
            pkt
        });
    }
    pkts
}

/// What identifies an input packet after the chain has touched it: `wsize`
/// rewrites the window, nothing rewrites ports, seq or length.
fn ident(pkt: &Packet) -> String {
    match &pkt.body {
        IpPayload::Encap(inner) => format!("encap {}", ident(inner)),
        IpPayload::Tcp(seg) => {
            format!(
                "{} {} {:?} {}",
                seg.src_port,
                seg.seq,
                seg.flags,
                seg.payload.len()
            )
        }
        _ => pkt.summary().to_string(),
    }
}

/// Everything observable about a dispatch run, for exact comparison.
#[derive(PartialEq, Debug)]
struct RunResult {
    /// Wire encodings of the forwarded packets, in order.
    survivors: Vec<Vec<u8>>,
    /// Inputs that produced no output, in order.
    dropped: Vec<String>,
    totals: String,
    log: Vec<String>,
    /// The next draw after the run: equal iff the same number of draws
    /// were taken (and, with equal survivors, in the same order).
    next_draw: u64,
}

fn run(pkts: &[Packet], seed: u64, chunk: Option<usize>) -> RunResult {
    let mut engine = build_engine();
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut out, mut dropped) = (Vec::new(), Vec::new());
    match chunk {
        None => {
            for pkt in pkts {
                let outs = engine.process(SimTime::ZERO, &mut rng, &NullMetrics, pkt.clone());
                if outs.is_empty() {
                    dropped.push(pkt.clone());
                }
                out.extend(outs);
            }
        }
        Some(n) => {
            for chunk in pkts.chunks(n) {
                let mut input = chunk.to_vec();
                engine.process_batch(
                    SimTime::ZERO,
                    &mut rng,
                    &NullMetrics,
                    &mut input,
                    &mut out,
                    &mut dropped,
                );
                assert!(input.is_empty(), "process_batch drains its input");
            }
        }
    }
    RunResult {
        survivors: out.iter().map(wire::encode).collect(),
        dropped: dropped.iter().map(ident).collect(),
        totals: format!("{:?}", engine.totals),
        log: engine.log.to_vec(),
        next_draw: rng.gen(),
    }
}

/// Random multi-flow interleavings — SYN/FIN/RST lifecycles, zero-length
/// segments, a spliced ICMP packet, a tunnelled segment — come out of
/// `process_batch` in chunks of 1/4/16/64 exactly as they come out of
/// `process` per packet: survivors, drops, totals, log, RNG draws.
#[test]
fn batched_dispatch_matches_scalar_on_random_interleavings() {
    Runner::new("batched_dispatch_matches_scalar_on_random_interleavings")
        .cases(60)
        .run(
            |rng| {
                let flows = rng.gen_range(1usize..5);
                let mut steps = gen::vec_of(rng, 1..120, |rng| gen_step(rng, flows));
                let at = rng.gen_range(0..steps.len() + 1);
                steps.insert(at, Step::Icmp);
                let at = rng.gen_range(0..steps.len() + 1);
                let tunnelled = Step::Seg {
                    flow: 0,
                    len: 64,
                    flags: TcpFlags::ACK,
                    tunnelled: true,
                };
                steps.insert(at, tunnelled);
                (steps, rng.gen::<u64>())
            },
            |(steps, seed)| {
                let pkts = build_packets(steps);
                let reference = run(&pkts, *seed, None);
                let is_icmp = |bytes: &Vec<u8>| {
                    wire::decode(bytes).is_ok_and(|p| matches!(p.body, IpPayload::Icmp(_)))
                };
                ensure_eq!(
                    reference.survivors.iter().filter(|b| is_icmp(b)).count(),
                    1,
                    "the ICMP splice passes through"
                );
                for chunk in [1usize, 4, 16, 64] {
                    ensure!(
                        run(&pkts, *seed, Some(chunk)) == reference,
                        "process_batch in chunks of {chunk} diverged from per-packet process"
                    );
                }
                Ok(())
            },
        );
}
