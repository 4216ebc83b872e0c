//! Property-based tests over the core data structures and codecs, running
//! on the seeded `comma_rt::prop` runner (≥ 100 generated cases each; a
//! failing case prints its `COMMA_PROP_REPLAY` seed).

use comma_repro::prelude::*;
use comma_repro::rt::prop::{gen, Runner};

use comma_repro::filters::codec::{lzss_compress, lzss_decompress, rle_compress, rle_decompress};
use comma_repro::netsim::fluid::{max_min_allocate, max_min_rates, FluidConfig, FluidState};
use comma_repro::netsim::wire;
use comma_repro::netsim::sim::PacketObserver;
use comma_repro::tcp::buffer::RecvBuffer;
use comma_repro::tcp::seq::{
    seq_diff, seq_ge, seq_gt, seq_in, seq_le, seq_lt, seq_max, seq_min,
};

// ---------------------------------------------------------------------
// Edit map (the TTSF's core invariants).
// ---------------------------------------------------------------------

/// An edit script: (start_seq, edits of (orig_len, out_len_or_identity)).
type EditScript = (u32, Vec<(u16, Option<u16>)>);

fn edit_script(rng: &mut SmallRng) -> EditScript {
    let start = rng.gen::<u32>();
    let script = gen::vec_of(rng, 1..20, |rng| {
        let orig_len = rng.gen_range(1u16..3000);
        let out_len = gen::option(rng, 0.5, |rng| rng.gen_range(0u16..3000));
        (orig_len, out_len)
    });
    (start, script)
}

fn build_map(start: u32, script: &[(u16, Option<u16>)]) -> EditMap {
    let mut map = EditMap::new(start);
    for (orig_len, out_len) in script {
        let ol = *orig_len as u32;
        match out_len {
            // Identity edit.
            None => map.push(ol, Bytes::from(vec![1u8; ol as usize]), true),
            Some(n) => map.push(ol, Bytes::from(vec![2u8; *n as usize]), false),
        };
    }
    map
}

/// Forward mapping is monotone (never decreasing) along the original
/// stream, and the inverse of a fully covered frontier is the frontier.
#[test]
fn editmap_monotone_and_frontier_roundtrip() {
    Runner::new("editmap_monotone_and_frontier_roundtrip")
        .cases(200)
        .run(edit_script, |(start, script)| {
            let map = build_map(*start, script);
            let total: u32 = script.iter().map(|(l, _)| *l as u32).sum();
            let mut prev = map.map_seq(*start);
            let mut pos = *start;
            for (orig_len, _) in script {
                pos = pos.wrapping_add(*orig_len as u32);
                let mapped = map.map_seq(pos);
                ensure!(seq_le(prev, mapped), "mapping went backwards at {pos}");
                prev = mapped;
            }
            ensure_eq!(map.frontier_orig(), start.wrapping_add(total));
            ensure_eq!(map.inverse_ack(map.frontier_new()), map.frontier_orig());
            Ok(())
        });
}

/// The inverse ACK translation is conservative: it never claims more
/// original bytes than the frontier, and translating any mapped position
/// yields an original position at or before the source.
#[test]
fn editmap_inverse_conservative() {
    Runner::new("editmap_inverse_conservative")
        .cases(200)
        .run(edit_script, |(start, script)| {
            let map = build_map(*start, script);
            let frontier = map.frontier_orig();
            let new_span = seq_diff(map.frontier_new(), map.base_new());
            // Sample ACK positions across the output space.
            for k in 0..=10u32 {
                let ack = map.base_new().wrapping_add(new_span / 10 * k);
                let orig = map.inverse_ack(ack);
                ensure!(seq_le(orig, frontier), "inverse beyond frontier");
                // Mapping the result back never overshoots the ack.
                let remapped = map.map_seq(orig);
                ensure!(seq_le(remapped, ack), "round trip must stay conservative");
            }
            Ok(())
        });
}

/// Trimming never changes the mapping of retained positions.
#[test]
fn editmap_trim_preserves_mapping() {
    Runner::new("editmap_trim_preserves_mapping")
        .cases(200)
        .run(edit_script, |(start, script)| {
            let mut map = build_map(*start, script);
            let probe_orig = map.frontier_orig();
            let before = map.map_seq(probe_orig);
            // Trim halfway through the output space.
            let half = map
                .base_new()
                .wrapping_add(seq_diff(map.frontier_new(), map.base_new()) / 2);
            map.trim(half);
            ensure_eq!(map.map_seq(probe_orig), before);
            Ok(())
        });
}

/// Wrap-aware sequence comparisons agree with plain offset order for any
/// base — including bases a few bytes before the 2³² boundary — as long as
/// both points sit within half the sequence space of each other.
#[test]
fn seq_arithmetic_respects_offset_order_across_wrap() {
    Runner::new("seq_arithmetic_respects_offset_order_across_wrap")
        .cases(300)
        .run(
            |rng| {
                // Half the cases pin the base right at the wrap boundary,
                // where naive `<` comparisons break.
                let base = if rng.gen::<bool>() {
                    u32::MAX - rng.gen_range(0u32..4096)
                } else {
                    rng.gen::<u32>()
                };
                let d1 = rng.gen_range(0u32..(1 << 30));
                let d2 = rng.gen_range(0u32..(1 << 30));
                (base, d1, d2)
            },
            |(base, d1, d2)| {
                let a = base.wrapping_add(*d1);
                let b = base.wrapping_add(*d2);
                ensure_eq!(seq_lt(a, b), d1 < d2);
                ensure_eq!(seq_le(a, b), d1 <= d2);
                ensure_eq!(seq_gt(a, b), d1 > d2);
                ensure_eq!(seq_ge(a, b), d1 >= d2);
                ensure_eq!(seq_max(a, b), base.wrapping_add(*d1.max(d2)));
                ensure_eq!(seq_min(a, b), base.wrapping_add(*d1.min(d2)));
                if d1 < d2 {
                    ensure_eq!(seq_diff(b, a), d2 - d1);
                    ensure!(seq_in(a, a, b), "lo is in [lo, hi)");
                    ensure!(!seq_in(b, a, b), "hi is not in [lo, hi)");
                }
                Ok(())
            },
        );
}

/// `EditMap::check_invariants` holds for arbitrary edit scripts whose
/// records tile across the 2³² boundary, and keeps holding after trimming
/// any prefix of the output space.
#[test]
fn editmap_invariants_hold_across_wrap_and_trim() {
    Runner::new("editmap_invariants_hold_across_wrap_and_trim")
        .cases(200)
        .run(
            |rng| {
                let (_, script) = edit_script(rng);
                // Start within ±4 KiB of the boundary so most maps wrap.
                let start = u32::MAX
                    .wrapping_sub(4096)
                    .wrapping_add(rng.gen_range(0u32..8192));
                let trim_tenths = rng.gen_range(0u32..11);
                (start, script, trim_tenths)
            },
            |(start, script, trim_tenths)| {
                let mut map = build_map(*start, script);
                if let Err(e) = map.check_invariants() {
                    ensure!(false, "fresh map: {e}");
                }
                let span = seq_diff(map.frontier_new(), map.base_new());
                let cut = map.base_new().wrapping_add(span / 10 * trim_tenths);
                map.trim(cut);
                if let Err(e) = map.check_invariants() {
                    ensure!(false, "after trim({cut}): {e}");
                }
                Ok(())
            },
        );
}

// ---------------------------------------------------------------------
// Conformance oracle on wrapped flows.
// ---------------------------------------------------------------------

/// Feeds one legal TCP exchange (handshake, chunked data, cumulative ACKs,
/// FIN) through the oracle as both transmit and delivery events.
fn play_exchange(o: &mut Oracle, isn_a: u32, isn_b: u32, data: &[u8], chunk: usize) {
    const A: comma_netsim::addr::Ipv4Addr = comma_netsim::addr::Ipv4Addr::new(10, 0, 0, 1);
    const B: comma_netsim::addr::Ipv4Addr = comma_netsim::addr::Ipv4Addr::new(10, 0, 0, 2);
    let t = SimTime::from_millis(1);
    let send = |o: &mut Oracle, from_a: bool, seq: u32, ack: u32, flags: TcpFlags, payload: &[u8]| {
        let (src, dst, sport, dport, tx, rx) = if from_a {
            (A, B, 1000, 2000, NodeId(0), NodeId(1))
        } else {
            (B, A, 2000, 1000, NodeId(1), NodeId(0))
        };
        let mut s = TcpSegment::new(sport, dport, seq, ack, flags);
        s.window = u16::MAX;
        s.payload = Bytes::from(payload.to_vec());
        let pkt = Packet::tcp(src, dst, s);
        o.on_tx(t, tx, &pkt);
        o.on_deliver(t, rx, &pkt);
    };
    send(o, true, isn_a, 0, TcpFlags::SYN, &[]);
    send(
        o,
        false,
        isn_b,
        isn_a.wrapping_add(1),
        TcpFlags::SYN | TcpFlags::ACK,
        &[],
    );
    send(
        o,
        true,
        isn_a.wrapping_add(1),
        isn_b.wrapping_add(1),
        TcpFlags::ACK,
        &[],
    );
    let mut off = 0usize;
    while off < data.len() {
        let end = (off + chunk).min(data.len());
        let seq = isn_a.wrapping_add(1).wrapping_add(off as u32);
        send(
            o,
            true,
            seq,
            isn_b.wrapping_add(1),
            TcpFlags::ACK,
            &data[off..end],
        );
        let ack = isn_a.wrapping_add(1).wrapping_add(end as u32);
        send(o, false, isn_b.wrapping_add(1), ack, TcpFlags::ACK, &[]);
        off = end;
    }
    let fin = isn_a.wrapping_add(1).wrapping_add(data.len() as u32);
    send(
        o,
        true,
        fin,
        isn_b.wrapping_add(1),
        TcpFlags::FIN | TcpFlags::ACK,
        &[],
    );
    send(
        o,
        false,
        isn_b.wrapping_add(1),
        fin.wrapping_add(1),
        TcpFlags::ACK,
        &[],
    );
}

/// Any legal exchange stays oracle-clean — in strict mode, with every
/// invariant armed — no matter where the ISNs sit relative to the wrap
/// point or how the data is chunked. The data deliberately straddles the
/// boundary in most cases.
#[test]
fn oracle_clean_on_wrapped_flows() {
    Runner::new("oracle_clean_on_wrapped_flows").cases(150).run(
        |rng| {
            // ISN within 2 KiB before the wrap (or anywhere, sometimes).
            let isn_a = if rng.gen_range(0u32..4) == 0 {
                rng.gen::<u32>()
            } else {
                u32::MAX - rng.gen_range(0u32..2048)
            };
            let isn_b = rng.gen::<u32>();
            let data = gen::bytes(rng, 1..4096);
            let chunk = rng.gen_range(1usize..1500);
            (isn_a, isn_b, data, chunk)
        },
        |(isn_a, isn_b, data, chunk)| {
            let mut o = Oracle::new(OracleConfig::new(vec![
                (NodeId(0), "10.0.0.1".parse().unwrap()),
                (NodeId(1), "10.0.0.2".parse().unwrap()),
            ]));
            play_exchange(&mut o, *isn_a, *isn_b, data, *chunk);
            let r = o.finish();
            ensure!(r.is_clean(), "wrapped flow flagged:\n{}", r.render());
            ensure_eq!(r.flows, 1);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Codecs.
// ---------------------------------------------------------------------

#[test]
fn lzss_roundtrips() {
    Runner::new("lzss_roundtrips").cases(100).run(
        |rng| gen::bytes(rng, 0..8192),
        |data| {
            let packed = lzss_compress(data);
            ensure_eq!(&lzss_decompress(&packed).unwrap(), data);
            Ok(())
        },
    );
}

#[test]
fn rle_roundtrips() {
    Runner::new("rle_roundtrips").cases(100).run(
        |rng| gen::bytes(rng, 0..8192),
        |data| {
            let packed = rle_compress(data);
            ensure_eq!(&rle_decompress(&packed).unwrap(), data);
            Ok(())
        },
    );
}

/// Compressible inputs (few distinct symbols, repeated blocks) really
/// compress.
#[test]
fn lzss_compresses_redundancy() {
    Runner::new("lzss_compresses_redundancy").cases(100).run(
        |rng| gen::vec_of(rng, 64..256, |rng| rng.gen_range(0u8..4)),
        |seedling| {
            let mut data = Vec::new();
            for _ in 0..8 {
                data.extend_from_slice(seedling);
            }
            let packed = lzss_compress(&data);
            ensure!(packed.len() < data.len(), "{} !< {}", packed.len(), data.len());
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Wire format.
// ---------------------------------------------------------------------

fn arb_tcp_packet(rng: &mut SmallRng) -> Packet {
    let mut seg = TcpSegment::new(
        rng.gen(),
        rng.gen(),
        rng.gen(),
        rng.gen(),
        TcpFlags(rng.gen_range(0u8..0x40)),
    );
    seg.window = rng.gen();
    if let Some(m) = gen::option(rng, 0.5, |rng| rng.gen_range(1u16..9000)) {
        seg.options.push(TcpOption::Mss(m));
    }
    seg.payload = Bytes::from(gen::bytes(rng, 0..1500));
    Packet::tcp(
        comma_netsim::addr::Ipv4Addr(rng.gen()),
        comma_netsim::addr::Ipv4Addr(rng.gen()),
        seg,
    )
}

#[test]
fn wire_roundtrip_tcp() {
    Runner::new("wire_roundtrip_tcp")
        .cases(200)
        .run(arb_tcp_packet, |pkt| {
            let bytes = wire::encode(pkt);
            ensure_eq!(bytes.len(), pkt.wire_len());
            let decoded = wire::decode(&bytes).unwrap();
            ensure_eq!(&decoded, pkt);
            Ok(())
        });
}

#[test]
fn wire_roundtrip_udp() {
    Runner::new("wire_roundtrip_udp").cases(200).run(
        |rng| {
            (
                rng.gen::<u16>(),
                rng.gen::<u16>(),
                gen::bytes(rng, 0..1500),
            )
        },
        |(sport, dport, payload)| {
            let pkt = Packet::udp(
                comma_netsim::addr::Ipv4Addr(7),
                comma_netsim::addr::Ipv4Addr(9),
                UdpDatagram {
                    src_port: *sport,
                    dst_port: *dport,
                    payload: Bytes::from(payload.clone()),
                },
            );
            let decoded = wire::decode(&wire::encode(&pkt)).unwrap();
            ensure_eq!(decoded, pkt);
            Ok(())
        },
    );
}

/// Single-bit corruption anywhere in a TCP packet is detected by the IP
/// or TCP checksum.
#[test]
fn wire_detects_bit_flips() {
    Runner::new("wire_detects_bit_flips").cases(200).run(
        |rng| {
            let pkt = arb_tcp_packet(rng);
            let wire_len = pkt.wire_len();
            let idx = gen::index(rng, wire_len);
            let bit = rng.gen_range(0u8..8);
            (pkt, idx, bit)
        },
        |(pkt, idx, bit)| {
            let mut bytes = wire::encode(pkt);
            bytes[*idx] ^= 1 << bit;
            match wire::decode(&bytes) {
                Err(_) => {} // Detected.
                Ok(decoded) => {
                    // The TCP header has no unchecked bytes, so any decode
                    // that still succeeds must differ from the original.
                    ensure_ne!(&decoded, pkt, "corruption silently accepted");
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Receive-buffer reassembly (retransmit idempotence).
// ---------------------------------------------------------------------

/// Arbitrary segmentation, duplication, and reordering of a stream
/// reassembles to exactly the original bytes; duplicate (retransmitted)
/// segments never change the reassembled output.
#[test]
fn recv_buffer_reassembles() {
    Runner::new("recv_buffer_reassembles").cases(100).run(
        |rng| {
            let len = rng.gen_range(1usize..2000);
            let cuts = gen::vec_of(rng, 1..20, |rng| gen::index(rng, len));
            (len, cuts, rng.gen::<u64>(), rng.gen::<bool>())
        },
        |(len, cuts, order, dup_first)| {
            let len = *len;
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            // Build segments from cut points.
            let mut points: Vec<usize> = cuts.clone();
            points.push(0);
            points.push(len);
            points.sort_unstable();
            points.dedup();
            let mut segs: Vec<(u32, Vec<u8>)> = points
                .windows(2)
                .map(|w| (w[0] as u32, data[w[0]..w[1]].to_vec()))
                .collect();
            if *dup_first && !segs.is_empty() {
                segs.push(segs[0].clone());
            }
            // Deterministic shuffle from `order`.
            let mut state = order | 1;
            for i in (1..segs.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                segs.swap(i, j);
            }
            let mut rb = RecvBuffer::new(0, 65_535);
            let mut out = Vec::new();
            // Feed twice so late-arriving heads fill holes and every
            // segment is effectively retransmitted once.
            for _ in 0..2 {
                for (seq, bytes) in &segs {
                    rb.receive(*seq, bytes);
                    out.extend_from_slice(&rb.take());
                }
            }
            ensure_eq!(&out, &data);
            ensure!(!rb.has_holes(), "holes after full reassembly");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------
// Fluid background solver (hybrid fidelity, see DESIGN.md).
// ---------------------------------------------------------------------

/// Arbitrary solver input: background demands, link capacity, and the
/// number of always-backlogged (greedy) foreground participants.
fn arb_fluid_input(rng: &mut SmallRng) -> (Vec<u64>, u64, usize) {
    let demands = gen::vec_of(rng, 1..40, |rng| rng.gen_range(1u64..50_000));
    let capacity = rng.gen_range(1u64..2_000_000);
    let greedy = rng.gen_range(0usize..3);
    (demands, capacity, greedy)
}

/// No flow exceeds its demand, the rates never oversubscribe the link,
/// and with no greedy participant the solver is exactly work-conserving:
/// it hands out `min(total demand, capacity)` — in particular the link
/// saturates whenever any flow is left unsatisfied.
#[test]
fn fluid_rates_capped_by_demand_and_capacity() {
    Runner::new("fluid_rates_capped_by_demand_and_capacity")
        .cases(300)
        .run(arb_fluid_input, |(demands, capacity, greedy)| {
            let rates = max_min_rates(demands, *capacity, *greedy);
            ensure_eq!(rates.len(), demands.len());
            let mut sum = 0u64;
            for (r, d) in rates.iter().zip(demands) {
                ensure!(r <= d, "rate {r} exceeds demand {d}");
                sum += r;
            }
            ensure!(sum <= *capacity, "rates oversubscribe the link");
            if *greedy == 0 {
                let total: u64 = demands.iter().sum();
                ensure_eq!(sum, total.min(*capacity), "solver not work-conserving");
            }
            Ok(())
        });
}

/// Max-min fairness at the bottleneck: any flow left short of its demand
/// is bottlenecked at this link, so no other flow may hold more than that
/// flow's rate plus the one-unit integer-remainder slack.
#[test]
fn fluid_unsatisfied_flows_bottlenecked_at_link() {
    Runner::new("fluid_unsatisfied_flows_bottlenecked_at_link")
        .cases(300)
        .run(arb_fluid_input, |(demands, capacity, greedy)| {
            let rates = max_min_rates(demands, *capacity, *greedy);
            for (i, (r, d)) in rates.iter().zip(demands).enumerate() {
                if r < d {
                    for (j, other) in rates.iter().enumerate() {
                        ensure!(
                            j == i || *other <= r + 1,
                            "flow {j} ({other} bps) outranks unsatisfied flow {i} ({r} bps)"
                        );
                    }
                }
            }
            Ok(())
        });
}

/// A departure never decreases any remaining flow's rate — freed capacity
/// only redistributes upward (the invariant that lets epochs re-solve in
/// place without transient rate dips).
#[test]
fn fluid_departures_never_decrease_remaining_rates() {
    Runner::new("fluid_departures_never_decrease_remaining_rates")
        .cases(300)
        .run(
            |rng| {
                let (demands, capacity, greedy) = arb_fluid_input(rng);
                let leave = gen::index(rng, demands.len());
                (demands, capacity, greedy, leave)
            },
            |(demands, capacity, greedy, leave)| {
                let before = max_min_rates(demands, *capacity, *greedy);
                let mut rest = demands.clone();
                rest.remove(*leave);
                let after = max_min_rates(&rest, *capacity, *greedy);
                let mut j = 0usize;
                for (i, b) in before.iter().enumerate() {
                    if i == *leave {
                        continue;
                    }
                    ensure!(
                        after[j] >= *b,
                        "departure decreased flow {i}: {b} -> {}",
                        after[j]
                    );
                    j += 1;
                }
                Ok(())
            },
        );
}

/// The per-link epoch schedule — epoch times, active populations, and
/// solved aggregate rates — is a pure function of the seed.
#[test]
fn fluid_epoch_schedule_deterministic_per_seed() {
    Runner::new("fluid_epoch_schedule_deterministic_per_seed")
        .cases(50)
        .run(
            |rng| (rng.gen::<u64>(), rng.gen_range(2usize..200)),
            |(seed, users)| {
                let trace = |seed: u64| {
                    let mut st = FluidState::new(FluidConfig::users(*users), seed);
                    let mut now = SimTime::ZERO;
                    let mut out = Vec::new();
                    for _ in 0..50 {
                        let next = st.epoch(now, 8_000_000, 131_072);
                        out.push((now.as_micros(), st.active_flows(), st.bg_rate_bps()));
                        match next {
                            Some(t) => now = t,
                            None => break,
                        }
                    }
                    out
                };
                let a = trace(*seed);
                ensure_eq!(a, trace(*seed), "same seed diverged");
                ensure!(a.len() > 1, "no epochs scheduled");
                Ok(())
            },
        );
}

/// One differential case: a population shape, a load regime, and a
/// capacity step applied between two grid slots the way
/// `Simulator::set_link_bandwidth` does.
#[derive(Debug)]
struct FluidCase {
    seed: u64,
    users: usize,
    jitter_pct: u32,
    /// Offered load at the mean on-fraction, in percent of capacity:
    /// 10 (underloaded), 100 (saturated) or 1000 (10x overloaded).
    load_pct: u64,
    step_at: usize,
    step_capacity: u64,
}

/// `FluidState::epoch` keeps the active set across epochs as a running
/// count and `offered` sum, plus a bitset over the population's demand
/// rank built the first time an underload cannot be proved without the
/// order; after every epoch its outputs must equal a from-scratch re-solve
/// — scan the per-flow ground truth, sort, water-fill — and the maintained
/// state must pass `check_invariants`. Jitter 0 makes every demand equal,
/// so the rank's tie-break by flow index is exercised.
#[test]
fn fluid_incremental_epoch_matches_from_scratch_solve() {
    const CAPACITY: u64 = 8_000_000;
    const LIMIT: usize = 131_072;
    Runner::new("fluid_incremental_epoch_matches_from_scratch_solve")
        .cases(240)
        .run(
            |rng| FluidCase {
                seed: rng.gen::<u64>(),
                users: if rng.gen_bool(0.5) {
                    rng.gen_range(1usize..33)
                } else {
                    rng.gen_range(33usize..3_001)
                },
                jitter_pct: [0, 0, 10, 50, 100][gen::index(rng, 5)],
                load_pct: [10, 100, 1_000][gen::index(rng, 3)],
                step_at: rng.gen_range(1usize..40),
                step_capacity: [CAPACITY / 10, CAPACITY / 2, CAPACITY * 4][gen::index(rng, 3)],
            },
            |case| {
                // A third of the users are on at a time (on 200 ms / off
                // 400 ms), so this demand offers `load_pct` of capacity.
                let demand = (CAPACITY * case.load_pct * 3 / (100 * case.users as u64)).max(1);
                let mut cfg = FluidConfig::users(case.users)
                    .with_demand(demand)
                    .with_on_off(SimDuration::from_millis(200), SimDuration::from_millis(400))
                    .with_ramp(SimDuration::from_millis(150));
                cfg.demand_jitter_pct = case.jitter_pct;
                let mut st = FluidState::new(cfg, case.seed);
                let mut capacity = CAPACITY;
                let mut now = SimTime::ZERO;
                // Reference fluid queue, integrated with the reference
                // rates only.
                let (mut queue, mut growth, mut as_of) = (0.0f64, 0.0f64, 0u64);
                let mut saw_unsatisfied = false;
                for step in 0..60 {
                    let Some(next) = st.epoch(now, capacity, LIMIT) else {
                        break;
                    };
                    st.check_invariants()?;
                    let mut truth: Vec<u64> = st.on_demands().collect();
                    let offered: u64 = truth.iter().sum();
                    let rates_sum: u64 = max_min_rates(&truth, capacity, 1).iter().sum();
                    truth.sort_unstable();
                    let (bg, residual) = max_min_allocate(&truth, capacity, 1);
                    ensure_eq!(st.active_flows(), truth.len(), "step {step}");
                    ensure_eq!(st.bg_rate_bps(), bg, "step {step}");
                    ensure_eq!(st.residual_bps(), residual, "step {step}");
                    ensure_eq!(rates_sum, bg, "per-flow rates disagree at step {step}");
                    saw_unsatisfied |= bg < offered;
                    let dt = (now.as_micros() - as_of) as f64;
                    queue = (queue + growth * dt).clamp(0.0, LIMIT as f64);
                    as_of = now.as_micros();
                    growth = (offered as f64 - capacity as f64) / 8e6;
                    let mid = SimTime::from_micros((now.as_micros() + next.as_micros()) / 2);
                    for at in [now, mid, next] {
                        let dt = (at.as_micros() - as_of) as f64;
                        let expect = (queue + growth * dt).clamp(0.0, LIMIT as f64) as u64;
                        ensure_eq!(st.queue_bytes_at(at, LIMIT), expect, "queue at step {step}");
                    }
                    // The capacity step re-solves between grid slots with
                    // no toggle due; every other epoch lands on the grid.
                    if step == case.step_at {
                        capacity = case.step_capacity;
                        now = mid;
                    } else {
                        now = next;
                    }
                }
                ensure!(st.epochs() > 1, "no epochs scheduled");
                if case.load_pct == 1_000 && case.users >= 33 {
                    ensure!(saw_unsatisfied, "10x overload never left a flow short");
                }
                Ok(())
            },
        );
}

// ---------------------------------------------------------------------
// Observability histograms (comma-obs).
// ---------------------------------------------------------------------

/// Bucket counts always sum to the sample count, for arbitrary bounds and
/// samples (including values past the last bound, which land in the
/// overflow bucket), and min/max/sum stay consistent.
#[test]
fn histogram_bucket_counts_sum_to_sample_count() {
    use comma_repro::obs::Histogram;
    Runner::new("histogram_bucket_counts_sum_to_sample_count")
        .cases(200)
        .run(
            |rng| {
                let mut bounds = gen::vec_of(rng, 1..12, |rng| rng.gen_range(1u64..1_000_000));
                bounds.sort_unstable();
                bounds.dedup();
                let samples = gen::vec_of(rng, 0..200, |rng| rng.gen_range(0u64..2_000_000));
                (bounds, samples)
            },
            |(bounds, samples)| {
                let mut h = Histogram::new(bounds);
                for &v in samples {
                    h.record(v);
                }
                let bucket_sum: u64 = h.counts().iter().sum();
                ensure_eq!(bucket_sum, samples.len() as u64);
                ensure_eq!(h.count(), samples.len() as u64);
                ensure_eq!(h.sum(), samples.iter().sum::<u64>());
                ensure_eq!(h.min(), samples.iter().min().copied());
                ensure_eq!(h.max(), samples.iter().max().copied());
                ensure_eq!(h.counts().len(), h.bounds().len() + 1, "overflow bucket");
                Ok(())
            },
        );
}

// ---------------------------------------------------------------------
// ShedVec: the shared shed-oldest policy ≡ the log that shifts per shed.
// ---------------------------------------------------------------------

/// After any interleaving of pushes and cap changes (caps 1/2/3/64, lowered
/// and raised mid-stream) the retained slice and the shed count equal the
/// naive reference that `remove(0)`s one item at a time.
#[test]
fn shed_vec_matches_naive_remove_front_reference() {
    use comma_repro::rt::ShedVec;
    const CAPS: [usize; 4] = [1, 2, 3, 64];
    Runner::new("shed_vec_matches_naive_remove_front_reference")
        .cases(200)
        .run(
            |rng| {
                // `Some(cap)` changes the cap, `None` pushes the next item.
                let ops = gen::vec_of(rng, 0..400, |rng| {
                    gen::option(rng, 0.05, |rng| CAPS[gen::index(rng, 4)])
                });
                (CAPS[gen::index(rng, 4)], ops)
            },
            |(cap, ops)| {
                let (mut log, mut naive, mut naive_cap) = (ShedVec::new(*cap), Vec::new(), *cap);
                let (mut shed, mut naive_shed) = (0usize, 0usize);
                for (i, op) in ops.iter().enumerate() {
                    match op {
                        Some(cap) => {
                            shed += log.set_cap(*cap);
                            naive_cap = *cap;
                        }
                        None => {
                            shed += log.push(i) as usize;
                            naive.push(i);
                        }
                    }
                    while naive.len() > naive_cap {
                        naive.remove(0);
                        naive_shed += 1;
                    }
                    ensure_eq!(&log[..], &naive[..], "retained slice after op {i}");
                    ensure_eq!(shed, naive_shed, "shed count after op {i}");
                }
                Ok(())
            },
        );
}

// ---------------------------------------------------------------------
// Snoop: demand-driven ticks ≡ the tick that never stops.
// ---------------------------------------------------------------------

const SNOOP_TICK_US: u64 = 50_000;
const SNOOP_SEG: u32 = 100;

#[derive(Clone, Debug)]
enum SnoopOp {
    /// Downlink data segment `idx` of the stream; below the send frontier
    /// it is a sender retransmission.
    Data(u32),
    /// Uplink ACK covering `segs` segments and advertising `win`.
    Ack { segs: u32, win: u16 },
    /// Downlink RST (empties the cache).
    Rst,
    /// Advances the clock. A tick due exactly at the new instant fires
    /// before the packets that follow when `ticks_first`, after them
    /// otherwise — both orders exist in the simulator.
    Advance { us: u64, ticks_first: bool },
}

/// Random interleavings whose time advances are biased to put grid points
/// exactly on, one microsecond before and one microsecond after packets.
fn snoop_script(rng: &mut SmallRng) -> (u64, u32, Vec<SnoopOp>) {
    let start_us = rng.gen_range(0u64..10_000_000);
    let isn = match rng.gen_range(0u32..3) {
        0 => u32::MAX - rng.gen_range(0u32..2_000),
        _ => rng.gen(),
    };
    let (mut elapsed, mut frontier, mut acked, mut win) = (0u64, 0u32, 0u32, 8_192u16);
    let mut ops = vec![SnoopOp::Data(0)];
    frontier += 1;
    for _ in 0..rng.gen_range(5usize..160) {
        let op = match rng.gen_range(0u32..100) {
            0..=29 => {
                let idx = if frontier > 0 && rng.gen_bool(0.25) {
                    rng.gen_range(0..frontier)
                } else {
                    frontier += 1;
                    frontier - 1
                };
                SnoopOp::Data(idx)
            }
            30..=54 => {
                match rng.gen_range(0u32..10) {
                    // New ACK (when anything is outstanding), else a dup.
                    0..=4 if acked < frontier => acked = rng.gen_range(acked + 1..frontier + 1),
                    // Window update.
                    5..=6 => win = win.wrapping_add(rng.gen_range(1u16..512)),
                    // True duplicate.
                    _ => {}
                }
                SnoopOp::Ack { segs: acked, win }
            }
            55..=57 => SnoopOp::Rst,
            _ => {
                let to_grid = SNOOP_TICK_US - elapsed % SNOOP_TICK_US;
                let us = match rng.gen_range(0u32..10) {
                    0..=2 => to_grid,
                    3 => to_grid - 1,
                    4 => to_grid + 1,
                    5..=7 => rng.gen_range(0u64..30_000),
                    _ => rng.gen_range(0u64..400_000),
                };
                elapsed += us;
                SnoopOp::Advance { us, ticks_first: rng.gen_bool(0.5) }
            }
        };
        ops.push(op);
    }
    (start_us, isn, ops)
}

/// One `snoop`-only filter engine plus the timer facility a proxy node
/// would provide.
struct SnoopRig {
    engine: FilterEngine,
    rng: SmallRng,
    origin: SimTime,
    /// `Some(next)`: the always-ticking reference — `on_timer` at every
    /// `origin + k·50 ms`, whatever the filter asked for. `None`: the
    /// production contract — fire exactly what the filter armed.
    always_tick_at: Option<SimTime>,
    token: Option<u64>,
    armed: Option<SimTime>,
    fires: u64,
    /// Every packet a tick injected, with its instant.
    timer_out: Vec<(SimTime, Packet)>,
}

impl SnoopRig {
    fn new(origin: SimTime, always_ticking: bool) -> Self {
        let mut engine = FilterEngine::new(standard_catalog(ALL_FILTERS));
        engine.register(WildKey::ANY, "snoop", vec![]).expect("snoop is in the catalog");
        engine.set_obs(Obs::enabled());
        SnoopRig {
            engine,
            rng: SmallRng::seed_from_u64(1),
            origin,
            always_tick_at: always_ticking.then(|| origin + SimDuration::from_micros(SNOOP_TICK_US)),
            token: None,
            armed: None,
            fires: 0,
            timer_out: Vec::new(),
        }
    }

    /// Collects what the filter armed at `now`, checking the arming rule:
    /// on the grid, strictly in the future, at most one tick pending.
    fn collect_armed(&mut self, now: SimTime) -> Result<(), String> {
        for (delay, token) in self.engine.drain_pending_timers() {
            let at = now + delay;
            ensure!(delay.as_micros() > 0, "tick armed for its own instant {now}");
            ensure_eq!(
                (at - self.origin).as_micros() % SNOOP_TICK_US,
                0,
                "tick armed off the grid at {now}"
            );
            self.token = Some(token);
            if self.always_tick_at.is_none() {
                ensure!(self.armed.is_none(), "second tick armed at {now} while one is pending");
                self.armed = Some(at);
            }
        }
        Ok(())
    }

    fn packet(&mut self, now: SimTime, pkt: Packet) -> Result<Vec<Packet>, String> {
        let out = self.engine.process(now, &mut self.rng, &NullMetrics, pkt);
        self.collect_armed(now)?;
        Ok(out)
    }

    /// Fires every tick due before `until` (and those due exactly at it
    /// when `inclusive`).
    fn fire_due(&mut self, until: SimTime, inclusive: bool) -> Result<(), String> {
        let due = |at: SimTime| at < until || (inclusive && at == until);
        loop {
            let at = match (self.always_tick_at, self.armed) {
                (Some(next), _) if due(next) => {
                    self.always_tick_at = Some(next + SimDuration::from_micros(SNOOP_TICK_US));
                    next
                }
                (None, Some(at)) if due(at) => {
                    self.armed = None;
                    at
                }
                _ => return Ok(()),
            };
            // Before the first arming the reference has no token to fire
            // with, and no cached segment a tick could act on either.
            let Some(token) = self.token else { continue };
            self.fires += 1;
            for pkt in self.engine.on_timer(at, &mut self.rng, &NullMetrics, token) {
                self.timer_out.push((at, pkt));
            }
            self.collect_armed(at)?;
        }
    }

    fn snoop_state(&mut self) -> Option<(comma_repro::filters::snoop::SnoopStats, u64)> {
        self.engine
            .instances_ref::<comma_repro::filters::snoop::Snoop>("snoop")
            .next()
            .map(|s| (s.stats, s.srtt_us().to_bits()))
    }

    /// The engine's timer accounting agrees with what the rig delivered.
    fn check_fire_accounting(&self) -> Result<(), String> {
        ensure_eq!(self.engine.totals.timer_fires, self.fires);
        ensure_eq!(self.engine.instance_infos()[0].stats.timer_fires, self.fires);
        ensure_eq!(self.engine.obs().counter("snoop", "filter.timer_fires"), self.fires);
        ensure_eq!(self.engine.obs().counter("engine", "engine.timer_fires"), self.fires);
        Ok(())
    }
}

/// The production `snoop` arms a tick only while its cache holds work; the
/// reference is the same filter ticked at `insert + k·50 ms` forever, as
/// every Snoop did before ticks became demand-driven. Same injections at
/// the same instants, same verdicts, same counters, same RTT estimate.
#[test]
fn snoop_demand_driven_ticks_match_always_ticking_reference() {
    let server: comma_repro::netsim::addr::Ipv4Addr = "11.11.10.99".parse().unwrap();
    let mobile: comma_repro::netsim::addr::Ipv4Addr = "11.11.10.10".parse().unwrap();
    Runner::new("snoop_demand_driven_ticks_match_always_ticking_reference")
        .cases(300)
        .run(snoop_script, |(start_us, isn, ops)| {
            let start = SimTime::from_micros(*start_us);
            let mut lazy = SnoopRig::new(start, false);
            let mut eager = SnoopRig::new(start, true);
            let mut now = start;
            let seq_of = |idx: u32| isn.wrapping_add(idx.wrapping_mul(SNOOP_SEG));
            for (i, op) in ops.iter().enumerate() {
                let pkt = match *op {
                    SnoopOp::Advance { us, ticks_first } => {
                        now += SimDuration::from_micros(us);
                        lazy.fire_due(now, ticks_first)?;
                        eager.fire_due(now, ticks_first)?;
                        None
                    }
                    SnoopOp::Data(idx) => {
                        let mut seg = TcpSegment::new(7, 1169, seq_of(idx), 0, TcpFlags::ACK);
                        seg.payload = Bytes::from(vec![idx as u8; SNOOP_SEG as usize]);
                        Some(Packet::tcp(server, mobile, seg))
                    }
                    SnoopOp::Rst => Some(Packet::tcp(
                        server,
                        mobile,
                        TcpSegment::new(7, 1169, seq_of(0), 0, TcpFlags::RST),
                    )),
                    SnoopOp::Ack { segs, win } => {
                        let mut seg = TcpSegment::new(1169, 7, 0, seq_of(segs), TcpFlags::ACK);
                        seg.window = win;
                        Some(Packet::tcp(mobile, server, seg))
                    }
                };
                if let Some(pkt) = pkt {
                    let got = lazy.packet(now, pkt.clone())?;
                    let want = eager.packet(now, pkt)?;
                    ensure_eq!(got, want, "op {i} {op:?} at {now}: verdict/injections");
                }
                ensure_eq!(lazy.timer_out, eager.timer_out, "op {i} {op:?} at {now}: tick injections");
                ensure_eq!(lazy.snoop_state(), eager.snoop_state(), "op {i} {op:?} at {now}");
            }
            // Let whatever is still cached time out (the retry cap is 50).
            now += SimDuration::from_micros(60 * SNOOP_TICK_US);
            lazy.fire_due(now, true)?;
            eager.fire_due(now, true)?;
            ensure_eq!(lazy.timer_out, eager.timer_out, "final drain");
            ensure_eq!(lazy.snoop_state(), eager.snoop_state(), "final drain");
            ensure!(lazy.fires <= eager.fires, "{} > {}", lazy.fires, eager.fires);
            lazy.check_fire_accounting()?;
            eager.check_fire_accounting()
        });
}

// ---------------------------------------------------------------------
// Decoders never panic: hostile input to every parser a peer can reach.
// ---------------------------------------------------------------------

/// Numbers at the edges of what a text field parses into.
const EXTREME_NUMBERS: &[&str] = &["0", "-1", "4294967296", "18446744073709551615", "1e999", "NaN"];

/// A seeded mutation of one of `valid`: a truncation, one to four bit
/// flips, a splice of two encodings at random cut points, or a run of
/// ASCII digits replaced by an extreme number.
fn mutate(rng: &mut SmallRng, valid: &[Vec<u8>]) -> Vec<u8> {
    let a = &valid[gen::index(rng, valid.len())];
    match rng.gen_range(0u8..4) {
        0 => a[..gen::index(rng, a.len())].to_vec(),
        1 => {
            let mut v = a.clone();
            for _ in 0..rng.gen_range(1..5) {
                let i = gen::index(rng, v.len());
                if let Some(byte) = v.get_mut(i) {
                    *byte ^= 1 << rng.gen_range(0u8..8);
                }
            }
            v
        }
        2 => {
            let b = &valid[gen::index(rng, valid.len())];
            let mut v = a[..gen::index(rng, a.len() + 1)].to_vec();
            v.extend_from_slice(&b[gen::index(rng, b.len() + 1)..]);
            v
        }
        _ => {
            let digit_runs: Vec<usize> = (0..a.len())
                .filter(|&i| a[i].is_ascii_digit() && (i == 0 || !a[i - 1].is_ascii_digit()))
                .collect();
            let Some(&start) = digit_runs.get(gen::index(rng, digit_runs.len())) else {
                return a.clone();
            };
            let end = (start..a.len()).find(|&i| !a[i].is_ascii_digit()).unwrap_or(a.len());
            let number = EXTREME_NUMBERS[gen::index(rng, EXTREME_NUMBERS.len())];
            [&a[..start], number.as_bytes(), &a[end..]].concat()
        }
    }
}

/// Eight valid encodings and 32 mutations of them, made by `valid`.
fn mutated_corpus(
    rng: &mut SmallRng,
    mut valid: impl FnMut(&mut SmallRng) -> Vec<u8>,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let corpus: Vec<Vec<u8>> = (0..8).map(|_| valid(rng)).collect();
    let mutants = (0..32).map(|_| mutate(rng, &corpus)).collect();
    (corpus, mutants)
}

fn arb_wire_packet(rng: &mut SmallRng) -> Vec<u8> {
    let (src, dst) = (
        comma_netsim::addr::Ipv4Addr(rng.gen()),
        comma_netsim::addr::Ipv4Addr(rng.gen()),
    );
    let pkt = match rng.gen_range(0u8..3) {
        0 => arb_tcp_packet(rng),
        1 => Packet::udp(
            src,
            dst,
            UdpDatagram {
                src_port: rng.gen(),
                dst_port: rng.gen(),
                payload: Bytes::from(gen::bytes(rng, 0..600)),
            },
        ),
        _ => Packet::icmp(
            src,
            dst,
            comma_repro::netsim::packet::IcmpMessage::EchoRequest {
                id: rng.gen(),
                seq: rng.gen(),
                payload: Bytes::from(gen::bytes(rng, 0..600)),
            },
        ),
    };
    wire::encode(&pkt)
}

/// `wire::decode` answers every truncation, bit flip and splice of valid
/// packets with a packet or a typed error, never a panic; a strict prefix
/// of a packet is always an error, and whatever decodes re-encodes.
#[test]
fn wire_decode_never_panics_on_mutated_packets() {
    Runner::new("wire_decode_never_panics_on_mutated_packets")
        .cases(150)
        .run(
            |rng| mutated_corpus(rng, arb_wire_packet),
            |(corpus, mutants)| {
                for bytes in corpus {
                    let cut = &bytes[..bytes.len() / 2];
                    ensure!(wire::decode(cut).is_err(), "a half packet decoded: {cut:02x?}");
                }
                for bytes in mutants {
                    if let Ok(pkt) = wire::decode(bytes) {
                        ensure_eq!(wire::encode(&pkt).len(), pkt.wire_len());
                    }
                }
                Ok(())
            },
        );
}

fn arb_eem_value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0u8..3) {
        0 => Value::Long(rng.gen::<u64>() as i64 >> rng.gen_range(0..63)),
        1 => Value::Double(rng.gen_range(0u64..1_000_000) as f64 / 7.0),
        _ => Value::Str(["rtt", "11.11.10.10", "a b", ""][gen::index(rng, 4)].to_string()),
    }
}

fn arb_eem_line(rng: &mut SmallRng) -> Vec<u8> {
    use comma_repro::eem::proto::Message;
    let msg = match rng.gen_range(0u8..4) {
        0 => Message::Register {
            reg_id: rng.gen(),
            var_num: rng.gen(),
            index: rng.gen(),
            mode: [Mode::Interrupt, Mode::Periodic, Mode::Once][gen::index(rng, 3)],
            op: [Operator::Gt, Operator::Lte, Operator::In, Operator::Out][gen::index(rng, 4)],
            lbound: arb_eem_value(rng),
            ubound: gen::option(rng, 0.5, arb_eem_value),
        },
        1 => Message::Deregister { reg_id: rng.gen() },
        2 => Message::Update {
            reg_id: rng.gen(),
            in_range: rng.gen_bool(0.5),
            value: arb_eem_value(rng),
        },
        _ => Message::Nak { reg_id: rng.gen() },
    };
    msg.encode().into_bytes()
}

/// `eem::proto::Message::decode` answers every mutated line with a
/// message or `None`, and whatever it accepts re-encodes to a line it
/// accepts again.
#[test]
fn eem_message_decode_never_panics_on_mutated_lines() {
    use comma_repro::eem::proto::Message;
    Runner::new("eem_message_decode_never_panics_on_mutated_lines")
        .cases(150)
        .run(
            |rng| mutated_corpus(rng, arb_eem_line),
            |(corpus, mutants)| {
                for line in corpus.iter().chain(mutants) {
                    let line = String::from_utf8_lossy(line);
                    if let Some(msg) = Message::decode(&line) {
                        let again = Message::decode(&msg.encode());
                        ensure!(again.is_some(), "{line:?} decoded to {msg:?}, which does not re-decode");
                    }
                }
                Ok(())
            },
        );
}

fn arb_mip_line(rng: &mut SmallRng) -> Vec<u8> {
    use comma_repro::mobileip::MipMessage;
    let addr = |rng: &mut SmallRng| comma_netsim::addr::Ipv4Addr(rng.gen());
    let msg = match rng.gen_range(0u8..3) {
        0 => MipMessage::RegistrationRequest {
            home_addr: addr(rng),
            home_agent: addr(rng),
            care_of: addr(rng),
            lifetime: rng.gen(),
            id: rng.gen(),
        },
        1 => MipMessage::RegistrationReply {
            home_addr: addr(rng),
            code: rng.gen(),
            id: rng.gen(),
            lifetime: rng.gen(),
        },
        _ => MipMessage::BindingUpdate {
            home_addr: addr(rng),
            care_of: addr(rng),
            lifetime: rng.gen(),
        },
    };
    msg.encode().into_bytes()
}

/// `MipMessage::decode` answers every mutated registration line with a
/// message or `None`; whatever it accepts round-trips exactly.
#[test]
fn mip_message_decode_never_panics_on_mutated_lines() {
    use comma_repro::mobileip::MipMessage;
    Runner::new("mip_message_decode_never_panics_on_mutated_lines")
        .cases(150)
        .run(
            |rng| mutated_corpus(rng, arb_mip_line),
            |(corpus, mutants)| {
                for line in corpus.iter().chain(mutants) {
                    let line = String::from_utf8_lossy(line);
                    if let Some(msg) = MipMessage::decode(&line) {
                        ensure_eq!(MipMessage::decode(&msg.encode()), Some(msg.clone()), "{line:?}");
                    }
                }
                Ok(())
            },
        );
}

/// Console lines Kati sends, one per command and filter argument shape.
const SP_LINES: &[&str] = &[
    "load /filters/rdrop.so",
    "remove /filters/rdrop.so",
    "add tcp 0.0.0.0 0 11.11.10.10 0",
    "add snoop 0.0.0.0 0 11.11.10.10 0 200",
    "add wsize 0.0.0.0 0 11.11.10.10 0 scale 90",
    "add rdrop 0.0.0.0 0 11.11.10.10 9000 0.25",
    "add hdiscard 0.0.0.0 0 11.11.10.10 9000 2 1 4 0.5 0.25",
    "add compress 0.0.0.0 0 11.11.10.10 9000 lzss 4096",
    "add removal 0.0.0.0 0 11.11.10.10 9000 2",
    "add launcher 0.0.0.0 0 11.11.10.10 9000 rdrop 0.5",
    "delete snoop 0.0.0.0 0 11.11.10.10 0",
    "delete compress 0.0.0.0 0 11.11.10.10 9000",
    "report",
    "report wsize",
];

/// `ServiceProxy::exec` answers every mutated console line with output
/// or silence, never a panic — and so does a short TCP exchange through
/// whatever services the lines registered, which is where a filter's
/// arguments are first parsed.
#[test]
fn sp_console_never_panics_on_mutated_lines() {
    Runner::new("sp_console_never_panics_on_mutated_lines")
        .cases(150)
        .run(
            |rng| {
                let valid: Vec<Vec<u8>> = SP_LINES.iter().map(|l| l.as_bytes().to_vec()).collect();
                gen::vec_of(rng, 1..8, |rng| {
                    if rng.gen_bool(0.3) {
                        valid[gen::index(rng, valid.len())].clone()
                    } else {
                        mutate(rng, &valid)
                    }
                })
            },
            |lines| {
                sp_console_session(lines);
                Ok(())
            },
        );
    let valid: Vec<Vec<u8>> = SP_LINES.iter().map(|l| l.as_bytes().to_vec()).collect();
    let sp = sp_console_session(&valid);
    let streams = sp.engine.streams();
    assert!(
        streams.iter().any(|(_, kinds)| kinds.len() >= 4),
        "the unmutated lines deploy services: {streams:?}"
    );
}

/// Runs `lines` through a fresh proxy's console, then one TCP exchange
/// from a server to the mobile every valid line names.
fn sp_console_session(lines: &[Vec<u8>]) -> ServiceProxy {
    let server: comma_repro::netsim::addr::Ipv4Addr = "11.11.10.99".parse().unwrap();
    let mobile: comma_repro::netsim::addr::Ipv4Addr = "11.11.10.10".parse().unwrap();
    let engine = FilterEngine::new(standard_catalog(ALL_FILTERS));
    let table = comma_repro::netsim::routing::RoutingTable::new();
    let mut sp = ServiceProxy::new("sp", vec![], table, engine, 1);
    let mut now = SimTime::ZERO;
    for line in lines {
        sp.exec(now, &String::from_utf8_lossy(line));
    }
    let mut rng = SmallRng::seed_from_u64(2);
    let mut data = TcpSegment::new(9000, 9000, 1, 1, TcpFlags::ACK);
    data.payload = Bytes::from(vec![b'a'; 1_000]);
    let exchange = [
        Packet::tcp(server, mobile, TcpSegment::new(9000, 9000, 0, 0, TcpFlags::SYN)),
        Packet::tcp(mobile, server, TcpSegment::new(9000, 9000, 0, 1, TcpFlags::SYN | TcpFlags::ACK)),
        Packet::tcp(server, mobile, data),
        Packet::tcp(mobile, server, TcpSegment::new(9000, 9000, 1, 1_001, TcpFlags::ACK)),
    ];
    for pkt in exchange {
        now += SimDuration::from_millis(10);
        sp.engine.process(now, &mut rng, &NullMetrics, pkt);
    }
    sp.exec(now, "report");
    sp
}
