//! Ablation studies of the design choices DESIGN.md calls out: the
//! snoop local-RTO clamp and the compression block size.

use comma::topology::{addrs, CommaBuilder};
use comma_netsim::link::{LinkParams, LossModel};
use comma_netsim::time::SimTime;
use comma_tcp::apps::{BulkSender, Sink};
use comma_tcp::TcpConfig;

use super::{world_seed, Claim, Experiment};
use crate::table::{f, n, Table};

/// A1 — the snoop local retransmission timer must be clamped to link
/// timescales: delayed-ACK-inflated RTT samples otherwise push local
/// recovery out toward the sender's own RTO, erasing snoop's benefit.
pub fn a1_snoop_rto_clamp(seed: u64) -> Experiment {
    let mut t = Table::new(
        "A1 (ablation): snoop local-RTO ceiling at 10% loss",
        &[
            "local-RTO ceiling",
            "completion s",
            "local retx",
            "sender timeouts",
        ],
    );
    for ceiling_ms in [200u64, 1_000, 10_000] {
        let sender = BulkSender::new((addrs::MOBILE, 9000), 200_000);
        let loss = LossModel::Uniform { p: 0.10 };
        let mut world = CommaBuilder::new(world_seed(701, seed))
            .tcp(TcpConfig::era_1998())
            .wireless(
                LinkParams::wireless().with_loss(loss.clone()),
                LinkParams::wireless().with_loss(LossModel::Uniform { p: 0.025 }),
            )
            .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
        world.sp(&format!(
            "add snoop 0.0.0.0 0 11.11.10.10 9000 {ceiling_ms}"
        ));
        world.run_until(SimTime::from_secs(600));
        let sink = world.mobile_app_ids[0];
        let (bytes, finished) =
            world.mobile_app::<Sink, _>(sink, |s| (s.bytes_received, s.last_data_at));
        assert_eq!(bytes, 200_000);
        let (local, timeouts) = {
            use comma_filters::snoop::Snoop;
            use comma_proxy::ServiceProxy;
            let snoop_stats = world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
                sp.engine.instances_ref::<Snoop>("snoop").next().map(|s| s.stats)
            });
            let timeouts = world
                .sim
                .with_node::<comma_tcp::host::Host, _>(world.wired, |h| {
                    h.socket_infos()
                        .iter()
                        .map(|s| s.stats.timeouts)
                        .sum::<u64>()
                });
            (
                snoop_stats
                    .map(|s| s.local_retx + s.timeout_retx)
                    .unwrap_or(0),
                timeouts,
            )
        };
        t.row(&[
            format!("{ceiling_ms} ms"),
            f(finished.map(|x| x.as_secs_f64()).unwrap_or(f64::NAN), 2),
            n(local),
            n(timeouts),
        ]);
    }
    t.note("an unclamped timer (inflated by 200 ms delayed-ACK samples) slows local recovery");
    t.render().into()
}

/// A2 — compression block size: larger blocks compress better but couple
/// more of the stream to each loss; packet-size blocks keep ACK clocking
/// responsive.
pub fn a2_compress_block_size(seed: u64) -> Experiment {
    let mut t = Table::new(
        "A2 (ablation): compression block size (text corpus, 5% wireless loss)",
        &["block size", "wireless bytes", "ratio", "completion s"],
    );
    let pattern = |i: usize| b"the quick brown fox jumps over the lazy dog. "[i % 45];
    let total = 200_000usize;
    let mut exact = Vec::new();
    for block in [128usize, 512, 1460, 4096] {
        let sender = BulkSender::new((addrs::MOBILE, 9000), total).with_pattern(pattern);
        let loss = LossModel::Uniform { p: 0.05 };
        let mut world = CommaBuilder::new(world_seed(702, seed))
            .double_proxy(true)
            .wireless(
                LinkParams::wireless().with_loss(loss),
                LinkParams::wireless(),
            )
            .build(
                vec![Box::new(sender)],
                vec![Box::new(Sink::new(9000).with_capture(total))],
            );
        world.sp(&format!(
            "add compress 0.0.0.0 0 11.11.10.10 9000 lzss {block}"
        ));
        world.stub_sp("add decompress 0.0.0.0 0 11.11.10.10 9000");
        world.run_until(SimTime::from_secs(300));
        let sink = world.mobile_app_ids[0];
        let capture = world.mobile_app::<Sink, _>(sink, |s| s.capture.clone());
        if capture.len() == total && capture.iter().enumerate().all(|(i, b)| *b == pattern(i)) {
            exact.push(block.to_string());
        }
        let finished = world.mobile_app::<Sink, _>(sink, |s| s.last_data_at);
        let wireless = world.wireless_down_bytes();
        t.row(&[
            n(block as u64),
            n(wireless),
            f(wireless as f64 / total as f64, 2),
            f(finished.map(|x| x.as_secs_f64()).unwrap_or(f64::NAN), 2),
        ]);
    }
    let claim = Claim {
        id: "A2",
        thesis_ref: "Fig 8.4",
        statement: "delivery is byte-exact at every block size",
        holds: exact.len() == 4,
        evidence: format!(
            "byte-exact at block sizes [{}] of the 4 swept",
            exact.join(", ")
        ),
    };
    Experiment::decided(t, vec![claim])
}
