//! E04/E05/E13: the data-manipulation services — removal (Fig 8.3),
//! packet compression (Fig 8.4), and the per-class reduction matrix
//! (Table 8.1).

use comma::media::RecordSender;
use comma::topology::{addrs, CommaBuilder};
use comma_filters::appdata::{synth_body, Frame, FrameKind, FrameParser};
use comma_filters::codec::Method;
use comma_filters::transform::{StreamTransformer, Translator};
use comma_netsim::time::SimTime;
use comma_tcp::apps::{BulkSender, Sink};

use super::{world_seed, Claim, Experiment};
use crate::table::{f, n, Table};

/// One E04 world: 100 records of 400 B, importance cycling 0..=3, sent
/// through a `removal` service at `min_importance`, run for 60 s.
pub struct RemovalRun {
    /// The records the mobile received, parsed.
    pub frames: Vec<Frame>,
    /// Received bytes that parse into no whole record.
    pub trailing: usize,
    /// Payload bytes the sender sent.
    pub sent: usize,
    /// Bytes the wireless downlink carried.
    pub wireless: u64,
    /// Whether the sender finished and the mobile saw the close.
    pub closed: bool,
    /// Oracle findings.
    pub findings: u64,
}

/// Runs one E04 world seeded `seed`.
pub fn removal_run(seed: u64, min_importance: u8) -> RemovalRun {
    let sender = RecordSender::synthetic((addrs::MOBILE, 9000), 100, 400);
    let mut world = CommaBuilder::new(seed).build(
        vec![Box::new(sender)],
        vec![Box::new(Sink::new(9000).with_capture(1 << 21))],
    );
    world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
    world.sp(&format!(
        "add removal 0.0.0.0 0 11.11.10.10 9000 {min_importance}"
    ));
    world.attach_oracle();
    world.run_until(SimTime::from_secs(60));
    let sink = world.mobile_app_ids[0];
    let (capture, received_close) =
        world.mobile_app::<Sink, _>(sink, |s| (s.capture.clone(), s.closed > 0));
    let mut parser = FrameParser::new();
    let frames = parser.push(&capture);
    let (sent, sender_closed) =
        world.wired_app::<RecordSender, _>(world.wired_app_ids[0], |s| (s.bytes_sent, s.done));
    RemovalRun {
        frames,
        trailing: parser.pending(),
        sent,
        wireless: world.wireless_down_bytes(),
        closed: sender_closed && received_close,
        findings: world.oracle_report().total_violations,
    }
}

/// E04 — transparent data removal (the packet-dropping service of
/// Fig 8.3, realized as record removal under the TTSF).
pub fn e04_removal(seed: u64) -> Experiment {
    let mut t = Table::new(
        "E04: transparent record removal (Fig 8.3 / §8.3.1)",
        &[
            "min importance",
            "records in",
            "records out",
            "payload bytes",
            "wireless bytes",
            "saved",
        ],
    );
    let (mut kept, mut predicted, mut findings, mut closed_at) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut below, mut damaged, mut trailing, mut clean) = (0, 0, 0, true);
    let mut share_at_2 = f64::NAN;
    for min_importance in [0u8, 1, 2, 3] {
        let run = removal_run(world_seed(104 + min_importance as u64, seed), min_importance);
        let frames = &run.frames;
        t.row(&[
            n(min_importance as u64),
            n(100),
            n(frames.len() as u64),
            n(run.sent as u64),
            n(run.wireless),
            format!("{:.0}%", 100.0 * (1.0 - run.wireless as f64 / run.sent as f64)),
        ]);
        // Importance cycles 0..=3, so each level holds a quarter of the records.
        let expected = 25 * (4 - min_importance as usize);
        clean &= frames.len() == expected && run.findings == 0;
        kept.push(frames.len().to_string());
        predicted.push(expected.to_string());
        findings.push(run.findings.to_string());
        below += frames
            .iter()
            .filter(|f| f.importance < min_importance)
            .count();
        damaged += frames
            .iter()
            .filter(|f| f.body != synth_body(FrameKind::Text, f.seq, 400))
            .count();
        trailing += run.trailing;
        if run.closed {
            closed_at.push(min_importance.to_string());
        }
        if min_importance == 2 {
            share_at_2 = run.wireless as f64 / run.sent as f64;
        }
    }
    let intact = Claim {
        id: "E04.intact",
        thesis_ref: "Fig 8.3",
        statement: "every surviving record parses intact; both endpoints close cleanly",
        holds: closed_at.len() == 4 && damaged == 0 && trailing == 0,
        evidence: format!(
            "both endpoints closed at thresholds [{}] of 0-3; {damaged} damaged records, {trailing} trailing bytes",
            closed_at.join(", ")
        ),
    };
    let removal = Claim {
        id: "E04",
        thesis_ref: "§8.3.1",
        statement: "low-importance data removable without endpoint cooperation",
        holds: clean && below == 0 && share_at_2 < 0.7,
        evidence: format!(
            "records kept {} of {} predicted at thresholds 0-3, {below} below threshold; wireless {:.0}% of sent at threshold 2; oracle findings {}",
            kept.join("/"),
            predicted.join("/"),
            100.0 * share_at_2,
            findings.join("/")
        ),
    };
    Experiment::decided(t, vec![intact, removal])
}

/// E05 — packet compression (Fig 8.4): per-corpus wireless-byte reduction
/// through the compress/decompress double proxy, with exact delivery.
pub fn e05_compression(seed: u64) -> Experiment {
    let mut t = Table::new(
        "E05: transparent packet compression (Fig 8.4 / §8.1.6)",
        &[
            "corpus",
            "method",
            "payload bytes",
            "wireless bytes",
            "ratio",
            "exact",
        ],
    );
    let corpora: [(&str, fn(usize) -> u8); 3] = [
        ("text", |i| {
            b"the quick brown fox jumps over the lazy dog. "[i % 45]
        }),
        ("image-like", |i| ((i / 40) % 251) as u8),
        ("random", |i| {
            let mut x = i as u64;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 251) as u8
        }),
    ];
    let (mut exact_cells, mut findings) = (0, 0);
    let mut best = [f64::INFINITY; 3];
    for (c, (name, pattern)) in corpora.into_iter().enumerate() {
        for method in ["lzss", "rle"] {
            let total = 300_000usize;
            let sender = BulkSender::new((addrs::MOBILE, 9000), total).with_pattern(pattern);
            let mut world = CommaBuilder::new(world_seed(105, seed))
                .double_proxy(true)
                .build(
                    vec![Box::new(sender)],
                    vec![Box::new(Sink::new(9000).with_capture(total))],
                );
            world.sp("add tcp 0.0.0.0 0 11.11.10.10 9000");
            world.sp(&format!("add compress 0.0.0.0 0 11.11.10.10 9000 {method}"));
            world.stub_sp("add decompress 0.0.0.0 0 11.11.10.10 9000");
            world.attach_oracle();
            world.run_until(SimTime::from_secs(120));
            let sink = world.mobile_app_ids[0];
            let capture = world.mobile_app::<Sink, _>(sink, |s| s.capture.clone());
            let exact =
                capture.len() == total && capture.iter().enumerate().all(|(i, b)| *b == pattern(i));
            let wireless = world.wireless_down_bytes();
            let ratio = wireless as f64 / total as f64;
            t.row(&[
                name.to_string(),
                method.to_string(),
                n(total as u64),
                n(wireless),
                f(ratio, 2),
                if exact { "yes".into() } else { "NO".into() },
            ]);
            exact_cells += exact as usize;
            findings += world.oracle_report().total_violations;
            best[c] = best[c].min(ratio);
        }
    }
    t.note("ratio < 1 = wireless savings; random data costs only framing overhead");
    // Text and image-like data shrink by at least half; random data pays
    // framing only, since the stored-block escape bounds expansion.
    let claim = Claim {
        id: "E05",
        thesis_ref: "§8.1.6",
        statement: "proxy-side compression reduces wireless usage transparently",
        holds: exact_cells == 6 && findings == 0 && best[0] < 0.5 && best[1] < 0.5 && best[2] <= 1.1,
        evidence: format!(
            "exact in {exact_cells} of 6 cells, oracle findings {findings}; best ratio text {:.2}, image-like {:.2}, random {:.2}",
            best[0], best[1], best[2]
        ),
    };
    Experiment::decided(t, vec![claim])
}

/// E13 — Table 8.1: each data class and its reduction method, measured at
/// the transformer level.
pub fn e13_reduction_matrix(_seed: u64) -> Experiment {
    let mut t = Table::new(
        "E13: data classes and reduction methods (Table 8.1)",
        &["data class", "method", "bytes in", "bytes out", "ratio"],
    );
    let text: Vec<u8> = (0..50_000)
        .map(|i| b"monitoring wireless links varies widely "[i % 40])
        .collect();
    let image: Vec<u8> = (0..50_000)
        .map(|i| if i % 100 < 92 { 0 } else { (i % 251) as u8 })
        .collect();
    let translated = |kind| {
        let frame = Frame {
            kind,
            importance: 5,
            layer: 0,
            seq: 0,
            timestamp_us: 0,
            body: synth_body(kind, 0, 30_000),
        };
        let out = Translator::translate_frame(&frame).expect("translatable");
        (frame.body.len(), out.body.len())
    };
    let mut removal = comma_filters::transform::RecordDrop::new(2);
    let mut stream = Vec::new();
    for i in 0..100u32 {
        stream.extend(
            Frame {
                kind: FrameKind::Telemetry,
                importance: (i % 4) as u8,
                layer: 0,
                seq: i,
                timestamp_us: 0,
                body: synth_body(FrameKind::Text, i, 300),
            }
            .encode(),
        );
    }
    let mut removed = removal.transform(&stream);
    removed.extend(removal.flush());
    let rows = [
        (
            "text",
            "lossless compression (lzss)",
            (text.len(), Method::Lzss.compress(&text).len()),
        ),
        (
            "image (sparse)",
            "run-length encoding",
            (image.len(), Method::Rle.compress(&image).len()),
        ),
        (
            "colour image",
            "type translation (colour->mono)",
            translated(FrameKind::ImageColor),
        ),
        (
            "formatted text",
            "type translation (PostScript->ASCII)",
            translated(FrameKind::FormattedText),
        ),
        ("audio", "2:1 downsampling", translated(FrameKind::Audio)),
        (
            "record stream",
            "importance-based removal (>=2)",
            (stream.len(), removed.len()),
        ),
    ];
    let mut ratios = Vec::new();
    for (class, method, (bytes_in, bytes_out)) in rows {
        let ratio = f(bytes_out as f64 / bytes_in as f64, 2);
        t.row(&[
            class.into(),
            method.into(),
            n(bytes_in as u64),
            n(bytes_out as u64),
            ratio.clone(),
        ]);
        ratios.push(ratio);
    }
    let claim = Claim {
        id: "E13",
        thesis_ref: "Table 8.1",
        statement: "each class reduces by its characteristic method, as Table 8.1 proposes",
        holds: rows
            .iter()
            .all(|(_, _, (bytes_in, bytes_out))| 2 * bytes_out <= *bytes_in),
        evidence: format!(
            "out/in ratios {} against a bound of 0.50",
            ratios.join(", ")
        ),
    };
    Experiment::decided(t, vec![claim])
}
