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
    engine_alloc_probe, event_core_alloc_probe, fluid_alloc_probe, sharded_alloc_probe,
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
