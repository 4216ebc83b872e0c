//! E06/E07/E08 — the protocol-tuning services of §8.2 checked at seeds the
//! report does not print. Each test runs its experiment's own world
//! (`comma_bench::exps::tuning`), so the report and these checks cannot
//! drift apart.

use comma_bench::exps::tuning::{lossy_run, wsize_run, zwsm_run};

/// E06 — snoop hides wireless losses from the sender: transfers finish
/// substantially faster and with fewer end-to-end timeouts at 10% loss.
#[test]
fn snoop_beats_plain_tcp_on_lossy_link() {
    let (plain_t, plain_to, _, plain_found) = lossy_run(61, 0.10, false);
    let (snoop_t, snoop_to, _, snoop_found) = lossy_run(61, 0.10, true);
    assert!(plain_t < 300.0, "plain transfer completed by 300 s: {plain_t:.1}s");
    assert_eq!((plain_found, snoop_found), (0, 0), "oracle clean");
    assert!(
        snoop_t * 1.5 < plain_t,
        "snoop {snoop_t:.1}s vs plain {plain_t:.1}s at 10% loss"
    );
    assert!(
        snoop_to < plain_to,
        "snoop timeouts {snoop_to} < plain {plain_to}"
    );
}

/// E06 control — at zero loss, snoop costs (almost) nothing.
#[test]
fn snoop_harmless_without_loss() {
    let (plain_t, _, _, plain_found) = lossy_run(62, 0.0, false);
    let (snoop_t, _, _, snoop_found) = lossy_run(62, 0.0, true);
    assert!(plain_t < 300.0, "plain transfer completed by 300 s: {plain_t:.1}s");
    assert_eq!((plain_found, snoop_found), (0, 0), "oracle clean");
    assert!(
        snoop_t < plain_t * 1.15,
        "snoop {snoop_t:.2}s vs plain {plain_t:.2}s at 0% loss"
    );
}

/// E07 — BSSP prioritization: shrinking the advertised window of a
/// background stream shifts wireless bandwidth to the priority stream.
#[test]
fn wsize_prioritization_shifts_bandwidth() {
    let (p_fair, b_fair, fair_found) = wsize_run(63, 100);
    let (p_prio, b_prio, prio_found) = wsize_run(63, 10);
    assert_eq!((fair_found, prio_found), (0, 0), "oracle clean");
    // Unmanaged: roughly fair sharing.
    let fair_ratio = p_fair as f64 / b_fair.max(1) as f64;
    assert!(
        (0.5..2.0).contains(&fair_ratio),
        "fair split, got {fair_ratio:.2}"
    );
    // Managed: the priority stream gets the lion's share.
    assert!(
        p_prio as f64 > b_prio as f64 * 2.5,
        "priority {p_prio} vs background {b_prio}"
    );
    assert!(p_prio > p_fair, "priority stream strictly gains");
}

/// E08 — ZWSM disconnection management: with the service, a stream frozen
/// by a zero window resumes promptly after a 30 s disconnection; without
/// it, exponential backoff and slow start delay recovery.
#[test]
fn zwsm_recovers_faster_from_disconnection() {
    let without = zwsm_run(64, false);
    let with = zwsm_run(64, true);
    assert!(
        without.completion_s < 200.0,
        "transfer survives the disconnection without zwsm: {:.1}s",
        without.completion_s
    );
    assert_eq!((without.findings, with.findings), (0, 0), "oracle clean");
    assert!(
        with.completion_s + 5.0 < without.completion_s,
        "zwsm {:.1}s vs plain {:.1}s end-to-end",
        with.completion_s,
        without.completion_s
    );
}

/// The zero-window freeze itself: during the outage the ZWSM-managed
/// sender records freezes instead of congestion timeouts.
#[test]
fn zwsm_converts_timeouts_to_freezes() {
    let run = zwsm_run(65, true);
    assert!(run.freezes > 0, "the ZWSM put the sender into persist-freeze");
    assert_eq!(run.findings, 0, "oracle clean");
}
