//! E04/E05 — the transparent stream services of Chapter 8 running end to
//! end over live TCP connections, including under wireless loss (which
//! forces the TTSF retransmission-replay machinery to work).

use comma_repro::prelude::*;
use comma_repro::filters::appdata::{synth_body, FrameKind, FrameParser};

/// E04 (Fig 8.3 as a service), in E04's own world at a seed the report does
/// not print: the `removal` service drops low-importance records in flight;
/// the receiver sees a valid, reduced record stream and both endpoints
/// terminate cleanly — all over one un-split connection.
#[test]
fn removal_service_drops_records_transparently() {
    let run = comma_bench::exps::services::removal_run(41, 2);
    assert!(
        run.closed,
        "both endpoints closed (FIN handled through the TTSF)"
    );
    assert_eq!(run.trailing, 0, "no trailing garbage");
    // Importance cycles 0..=3 over 100 records: 50 have importance >= 2.
    assert_eq!(run.frames.len(), 50);
    assert!(run.frames.iter().all(|f| f.importance >= 2));
    // Record bodies arrive intact.
    for f in &run.frames {
        assert_eq!(f.body, synth_body(FrameKind::Text, f.seq, 400));
    }
    // The wireless hop carried roughly half the bytes.
    assert!(
        (run.wireless as usize) < run.sent * 7 / 10,
        "wireless {} vs sent {}: reduction visible",
        run.wireless,
        run.sent
    );
    assert_eq!(run.findings, 0, "oracle clean");
}

/// E05 under stress: packet compression with a bursty-lossy wireless link.
/// Retransmissions must replay identical transformed bytes or the
/// decompressor desynchronizes — exact delivery proves the edit map's
/// replay correctness.
#[test]
fn compression_survives_wireless_loss() {
    let loss = LossModel::Gilbert {
        p_good_to_bad: 0.02,
        p_bad_to_good: 0.3,
        loss_good: 0.005,
        loss_bad: 0.3,
    };
    let sender = BulkSender::new((addrs::MOBILE, 9000), 150_000)
        .with_pattern(|i| b"wireless networks vary widely. "[i % 31]);
    let mut world = CommaBuilder::new(42)
        .double_proxy(true)
        .wireless(
            LinkParams::wireless().with_loss(loss.clone()),
            LinkParams::wireless().with_loss(loss),
        )
        .build(
            vec![Box::new(sender)],
            vec![Box::new(Sink::new(9000).with_capture(150_000))],
        );
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    world.sp("add compress 0.0.0.0 0 11.11.10.10 9000 lzss");
    world.stub_sp("add decompress 0.0.0.0 0 11.11.10.10 9000");
    world.attach_oracle();
    world.run_until(SimTime::from_secs(120));

    let sink = world.mobile_app_ids[0];
    let capture = world.mobile_app::<Sink, _>(sink, |s| s.capture.clone());
    assert_eq!(capture.len(), 150_000, "full delivery despite loss");
    for (i, b) in capture.iter().enumerate() {
        assert_eq!(*b, b"wireless networks vary widely. "[i % 31], "byte {i}");
    }
    // Loss actually occurred (the test exercised the replay path).
    let drops = world.sim.channel(world.wireless_ch.0).stats.loss_drops;
    assert!(drops > 0, "the wireless link dropped packets: {drops}");
    world.assert_oracle_clean();
}

/// The data-type translation service (§8.3.3): colour images shrink to
/// monochrome in flight, other records pass untouched.
#[test]
fn translation_converts_data_types() {
    let sender = RecordSender::synthetic((addrs::MOBILE, 9000), 40, 600);
    let mut world = CommaBuilder::new(43).build(
        vec![Box::new(sender)],
        vec![Box::new(Sink::new(9000).with_capture(1 << 20))],
    );
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    world.sp("add translate 0.0.0.0 0 11.11.10.10 9000");
    world.attach_oracle();
    world.run_until(SimTime::from_secs(30));

    let sink = world.mobile_app_ids[0];
    let capture = world.mobile_app::<Sink, _>(sink, |s| s.capture.clone());
    let mut parser = FrameParser::new();
    let frames = parser.push(&capture);
    assert_eq!(
        frames.len(),
        40,
        "every record arrives (translation is lossless in count)"
    );
    use comma_filters::appdata::FrameKind;
    for f in &frames {
        match f.kind {
            FrameKind::ImageColor => panic!("colour images must have been translated"),
            FrameKind::ImageMono => assert_eq!(f.body.len(), 200, "600 → 200 bytes"),
            FrameKind::Telemetry => assert_eq!(f.body.len(), 600, "telemetry untouched"),
            _ => {}
        }
    }
    assert!(frames.iter().any(|f| f.kind == FrameKind::ImageMono));
    world.assert_oracle_clean();
}

/// TTSF accounting is visible through the proxy (what Kati displays).
#[test]
fn ttsf_stats_exposed_for_monitoring() {
    let sender = RecordSender::synthetic((addrs::MOBILE, 9000), 40, 300);
    let mut world =
        CommaBuilder::new(44).build(vec![Box::new(sender)], vec![Box::new(Sink::new(9000))]);
    world.sp("add removal 0.0.0.0 0 11.11.10.10 9000 2");
    world.attach_oracle();
    world.run_until(SimTime::from_secs(20));
    let (in_bytes, out_bytes, saved) = world.sim.with_node::<ServiceProxy, _>(world.proxy, |sp| {
        let ttsf = sp.engine.instances_ref::<Ttsf>("removal").next().expect("ttsf live");
        (
            ttsf.stats.in_bytes,
            ttsf.stats.out_bytes,
            ttsf.bytes_saved(),
        )
    });
    assert!(in_bytes > out_bytes, "in={in_bytes} out={out_bytes}");
    assert!(saved > 0);
    world.assert_oracle_clean();
}
