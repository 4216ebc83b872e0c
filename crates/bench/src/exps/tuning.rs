//! E06/E07/E08: the protocol-tuning experiments — snoop across loss rates,
//! BSSP window prioritization, and ZWSM disconnection management.

use comma::topology::{addrs, CommaBuilder};
use comma_netsim::link::{LinkParams, LossModel};
use comma_netsim::time::SimTime;
use comma_tcp::apps::{BulkSender, Sink};
use comma_tcp::host::Host;
use comma_tcp::TcpConfig;

use super::{world_seed, Claim, Experiment};
use crate::table::{f, n, Table};

fn lossy(p: f64) -> LinkParams {
    LinkParams::wireless().with_loss(LossModel::Uniform { p })
}

/// One E06 transfer: completion seconds (NaN, which fails every comparison
/// a claim makes, unless every byte arrived), sender timeouts and
/// end-to-end retransmissions, oracle findings.
pub fn lossy_run(seed: u64, loss: f64, with_snoop: bool) -> (f64, u64, u64, u64) {
    let sender = BulkSender::new((addrs::MOBILE, 9000), 200_000);
    let mut world = CommaBuilder::new(seed)
        .tcp(TcpConfig::era_1998())
        .wireless(lossy(loss), lossy(loss / 4.0))
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    if with_snoop {
        world.sp("add snoop 0.0.0.0 0 11.11.10.10 9000");
    }
    world.attach_oracle();
    world.run_until(SimTime::from_secs(600));
    let sink = world.mobile_app_ids[0];
    let (bytes, finished) =
        world.mobile_app::<Sink, _>(sink, |s| (s.bytes_received, s.last_data_at));
    let (timeouts, retx) = world.sim.with_node::<Host, _>(world.wired, |h| {
        let stats = h.socket_infos().into_iter().map(|s| s.stats);
        stats.fold((0, 0), |(t, r), s| (t + s.timeouts, r + s.retransmits))
    });
    (
        finished
            .filter(|_| bytes == 200_000)
            .map_or(f64::NAN, |t| t.as_secs_f64()),
        timeouts,
        retx,
        world.oracle_report().total_violations,
    )
}

/// E06 — the snoop figure: 200 KB transfer over a 1 Mbit/s wireless link,
/// completion time vs loss rate, plain TCP (era config) vs snoop.
pub fn e06_snoop_sweep(seed: u64) -> Experiment {
    let mut t = Table::new(
        "E06: snoop vs plain TCP across loss rates (§8.2.1, after [3,4])",
        &[
            "loss",
            "plain s",
            "snoop s",
            "speedup",
            "plain timeouts",
            "snoop timeouts",
            "plain retx(e2e)",
            "snoop retx(e2e)",
        ],
    );
    let mut runs = Vec::new();
    for (i, loss) in [0.0, 0.02, 0.05, 0.10, 0.15].iter().enumerate() {
        let world = world_seed(600 + i as u64, seed);
        let (pt, pto, pre, pf) = lossy_run(world, *loss, false);
        let (st, sto, sre, sf) = lossy_run(world, *loss, true);
        runs.push((pt, pto, st, sto, pf + sf));
        t.row(&[
            format!("{:.0}%", loss * 100.0),
            f(pt, 2),
            f(st, 2),
            format!("{:.1}x", pt / st),
            n(pto),
            n(sto),
            n(pre),
            n(sre),
        ]);
    }
    // The 0% and 10% cells decide; every transfer they compare must end
    // within 300 s, and no run may trip the oracle.
    let ((p0, _, s0, _, _), (p10, pto10, s10, sto10, _)) = (runs[0], runs[3]);
    let findings: u64 = runs.iter().map(|r| r.4).sum();
    let claim = Claim {
        id: "E06",
        thesis_ref: "§8.2.1",
        statement: "snoop's gain grows with the error rate, ~nil at zero loss",
        holds: p10 > 1.5 * s10
            && sto10 < pto10
            && s0 < 1.15 * p0
            && [p0, s0, p10, s10].iter().all(|t| *t < 300.0)
            && findings == 0,
        evidence: format!(
            "at 10% loss snoop {s10:.2} s vs plain {p10:.2} s ({:.1}x, bound 1.5x), sender timeouts {pto10} -> {sto10}; at 0% snoop/plain {:.2} (bound 1.15); oracle findings {findings}",
            p10 / s10,
            s0 / p0
        ),
    };
    Experiment::decided(t, vec![claim])
}

/// One E07 world: two competing 4 MB bulk streams, the background one's
/// advertised window scaled to `scale` % (100 installs no `wsize`);
/// priority and background bytes received at 10 s, oracle findings.
pub fn wsize_run(seed: u64, scale: u8) -> (usize, usize, u64) {
    let priority = BulkSender::new((addrs::MOBILE, 9001), 4_000_000);
    let background = BulkSender::new((addrs::MOBILE, 9002), 4_000_000);
    let mut world = CommaBuilder::new(seed).build(
        vec![Box::new(priority), Box::new(background)],
        vec![Box::new(Sink::new(9001)), Box::new(Sink::new(9002))],
    );
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 0");
    if scale < 100 {
        world.sp(&format!(
            "add wsize 0.0.0.0 0 11.11.10.10 9002 scale {scale}"
        ));
    }
    world.attach_oracle();
    world.run_until(SimTime::from_secs(10));
    let p = world.mobile_app::<Sink, _>(world.mobile_app_ids[0], |s| s.bytes_received);
    let b = world.mobile_app::<Sink, _>(world.mobile_app_ids[1], |s| s.bytes_received);
    (p, b, world.oracle_report().total_violations)
}

/// E07 — BSSP prioritization: two competing bulk streams; the background
/// stream's advertised window is scaled down.
pub fn e07_prioritization(seed: u64) -> Experiment {
    let mut t = Table::new(
        "E07: wsize prioritization of competing streams (§8.2.2, after BSSP)",
        &[
            "background window",
            "priority KB @10s",
            "background KB @10s",
            "share",
        ],
    );
    let (mut shares, mut findings) = (Vec::new(), 0);
    for scale in [100u8, 50, 25, 10] {
        let (p, b, found) = wsize_run(world_seed(607, seed), scale);
        t.row(&[
            format!("{scale}%"),
            n((p / 1024) as u64),
            n((b / 1024) as u64),
            format!(
                "{:.0}% / {:.0}%",
                100.0 * p as f64 / (p + b) as f64,
                100.0 * b as f64 / (p + b) as f64
            ),
        ]);
        shares.push((p, b));
        findings += found;
    }
    // Unmanaged, the streams split the link roughly fairly; at scale 10
    // the priority stream takes the lion's share and gains outright.
    let ((p_fair, b_fair), (p_prio, b_prio)) = (shares[0], shares[3]);
    let fair = p_fair as f64 / b_fair.max(1) as f64;
    let claim = Claim {
        id: "E07",
        thesis_ref: "§8.2.2",
        statement: "shrinking the advertised window slows low-priority streams",
        holds: (0.5..2.0).contains(&fair)
            && p_prio as f64 > 2.5 * b_prio as f64
            && p_prio > p_fair
            && findings == 0,
        evidence: format!(
            "priority/background {fair:.2} unmanaged (bounds 0.5-2.0), {:.1}x with the background window at 10% (bound 2.5x); priority bytes {p_fair} -> {p_prio}; oracle findings {findings}",
            p_prio as f64 / b_prio.max(1) as f64
        ),
    };
    Experiment::decided(t, vec![claim])
}

/// One E08 arm: what a 1.5 MB transfer through a 30 s outage (3 s to 33 s)
/// did, with or without ZWSM.
pub struct ZwsmRun {
    /// Completion seconds; NaN unless every byte arrived.
    pub completion_s: f64,
    /// Sender retransmission timeouts.
    pub timeouts: u64,
    /// Sender zero-window freezes.
    pub freezes: u64,
    /// Seconds after the reconnection until data arrived again.
    pub resume_s: Option<f64>,
    /// Oracle findings.
    pub findings: u64,
}

/// Runs one E08 arm in the world seeded `seed`.
pub fn zwsm_run(seed: u64, with_zwsm: bool) -> ZwsmRun {
    let sender = BulkSender::new((addrs::MOBILE, 9000), 1_500_000);
    let mut world = CommaBuilder::new(seed)
        .build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    if with_zwsm {
        world.sp("add wsize 0.0.0.0 0 11.11.10.10 9000 zwsm wireless.up");
    }
    world.attach_oracle();
    world.set_wireless_up_at(SimTime::from_secs(3), false);
    world.set_wireless_up_at(SimTime::from_secs(33), true);
    // Track when data resumes after the reconnection.
    world.run_until(SimTime::from_secs(33));
    let sink = world.mobile_app_ids[0];
    let before = world.mobile_app::<Sink, _>(sink, |s| s.bytes_received);
    let mut resume_s = None;
    for tick in 0..4000u64 {
        world.run_until(
            SimTime::from_secs(33) + comma_netsim::time::SimDuration::from_millis(tick * 50),
        );
        let now_bytes = world.mobile_app::<Sink, _>(sink, |s| s.bytes_received);
        if now_bytes > before {
            resume_s = Some(tick as f64 * 0.05);
            break;
        }
    }
    world.run_until(SimTime::from_secs(400));
    let (bytes, finished) =
        world.mobile_app::<Sink, _>(sink, |s| (s.bytes_received, s.last_data_at));
    let (timeouts, freezes) = world.sim.with_node::<Host, _>(world.wired, |h| {
        let stats = h.socket_infos().into_iter().map(|s| s.stats);
        stats.fold((0, 0), |(t, z), s| {
            (t + s.timeouts, z + s.zero_window_freezes)
        })
    });
    ZwsmRun {
        completion_s: finished
            .filter(|_| bytes == 1_500_000)
            .map_or(f64::NAN, |t| t.as_secs_f64()),
        timeouts,
        freezes,
        resume_s,
        findings: world.oracle_report().total_violations,
    }
}

/// E08 — ZWSM disconnection management: a 30 s outage mid-transfer.
pub fn e08_zwsm(seed: u64) -> Experiment {
    let mut t = Table::new(
        "E08: ZWSM disconnection management (§8.2.2)",
        &[
            "service",
            "completion s",
            "timeouts",
            "zero-window freezes",
            "resume delay s",
        ],
    );
    let mut arms = Vec::new();
    for with_zwsm in [false, true] {
        let arm = zwsm_run(world_seed(608, seed), with_zwsm);
        t.row(&[
            if with_zwsm {
                "wsize zwsm".into()
            } else {
                "none".into()
            },
            f(arm.completion_s, 2),
            n(arm.timeouts),
            n(arm.freezes),
            arm.resume_s.map(|r| f(r, 2)).unwrap_or_else(|| "-".into()),
        ]);
        arms.push(arm);
    }
    // Both transfers must deliver every byte within 200 s.
    let (plain, zwsm, freezes) = (arms[0].completion_s, arms[1].completion_s, arms[1].freezes);
    let (pf, zf) = (arms[0].findings, arms[1].findings);
    let claim = Claim {
        id: "E08",
        thesis_ref: "§8.2.2",
        statement: "ZWSM keeps the stream alive and restarts it faster after reconnect",
        holds: zwsm + 5.0 < plain && plain < 200.0 && freezes >= 1 && pf + zf == 0,
        evidence: format!(
            "completion {plain:.2} s without, {zwsm:.2} s with ZWSM ({:.2} s sooner, bound 5 s); ZWSM freezes {freezes}; oracle findings {}",
            plain - zwsm,
            pf + zf
        ),
    };
    Experiment::decided(t, vec![claim])
}
