//! Sharded parallel simulation: conservative time-window synchronization
//! over per-shard [`Simulator`]s running on `std::thread` workers.
//!
//! # Model
//!
//! A [`ShardPlan`] splits one topology into shards — in the Comma world,
//! one shard per wireless cell (mobile host + Service Proxy) plus wired
//! backbone shards — connected only by *boundary links* declared with
//! [`Simulator::connect_boundary`]. Every shard is an ordinary,
//! fully-deterministic `Simulator`; the runner advances them in lockstep
//! windows and ferries cross-shard packets between them.
//!
//! # Conservative lookahead
//!
//! Let `L` be the plan's lookahead: the minimum latency of any boundary
//! link (the builder validates this). Each synchronization round:
//!
//! 1. every worker ingests the packets its shards were sent last round,
//! 2. the global minimum next-event time `T` is computed at a barrier,
//! 3. every shard executes the window `[T, T+L)` in parallel.
//!
//! A packet crossing a boundary inside the window is exported with
//! arrival time `tc + latency ≥ T + L` (transmission completes at
//! `tc ≥ T`, latency `≥ L`), i.e. at or after the window's end — so no
//! shard can receive an event inside a window it is concurrently
//! executing. Cross-window transfers are merged before delivery in
//! `(arrival time, source shard, sequence)` order, which is independent
//! of thread scheduling; the whole run is therefore bit-exact for any
//! worker count, including `workers = 1` (the serial runner).
//!
//! # Window skip
//!
//! The next window always starts at the *global minimum next-event time*
//! `T`, not at the previous window's end: when every shard's queue is
//! quiet past the last window, the global clock jumps straight over the
//! gap instead of grinding through empty fixed-lookahead windows. The
//! skip is conservative and needs no null messages: a cross-shard packet
//! can only be created by an event executing in some shard, every pending
//! event is at `≥ T` by definition of the minimum, and its earliest
//! cross-shard consequence lands at `≥ T + L` — so the skipped span
//! `(prev_end, T)` provably contains no event and no in-flight transfer.
//! The runner counts skipped spans in [`ShardStats::windows_skipped`]
//! (in units of whole lookahead windows not executed).
//!
//! # Transfer lanes
//!
//! Cross-shard packets travel through per-`(src, dst)`-shard *transfer
//! lanes*: `Mutex<Vec<XferMsg>>` buffers that only one worker touches in
//! any phase. The source shard's worker appends during window execution;
//! the destination's worker drains at the next round's ingest; the round's
//! two barriers (the min-reduction barrier and the post-export barrier)
//! separate the phases, so every lock is uncontended — the mutex is there
//! so the compiler can check what the barriers guarantee. Ingest moves a
//! destination's lanes into one per-worker staging buffer and sorts it on
//! `(time, src, seq)` unless it already is (one lane's appends are in order
//! except under reordering fault injection) — a total order, so it is
//! independent of which lane was drained first. Steady state allocates
//! nothing: lane capacity, the ingest staging buffer and the export
//! staging buffer are all retained across windows.
//!
//! # Determinism across partitionings
//!
//! Worker-count invariance comes from the protocol above. *Partitioning*
//! invariance (the same topology built as one shard or many) additionally
//! requires that every RNG stream depends only on the world seed and a
//! stable entity key — use [`Simulator::add_node_keyed`] /
//! [`Simulator::connect_keyed`], as the partition-aware topology builder
//! does.
//!
//! # Ownership
//!
//! `Simulator` is `Send`, and the [`ShardedSimulator`] owns every shard as
//! an ordinary value on the thread that holds the runner. Between runs a
//! shard is reached with a plain `&mut` ([`ShardedSimulator::with_shard`]);
//! during [`ShardedSimulator::run_until`] the shards are lent, disjointly,
//! to scoped worker threads that are joined before the call returns. Worker
//! 0 is the calling thread, so `workers = 1` spawns nothing.

use std::any::Any;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use comma_obs::Obs;

use crate::link::ChannelId;
use crate::packet::Packet;
use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};

/// Identifier of a directed cross-shard boundary link (one per direction).
pub type BoundaryId = u32;

/// Sentinel window end meaning "nothing left to do before the target".
const STOP: u64 = u64::MAX;

/// What a shard-builder closure reports back: where each inbound boundary
/// terminates inside the shard.
#[derive(Default)]
pub struct ShardWiring {
    /// `(boundary id, ingress channel)` pairs: packets exported by peers
    /// under that boundary id are injected on that channel.
    pub ingress: Vec<(BoundaryId, ChannelId)>,
}

impl ShardWiring {
    /// An empty wiring (no inbound boundaries).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the ingress channel for a boundary (builder-style).
    pub fn ingress(mut self, boundary: BoundaryId, ch: ChannelId) -> Self {
        self.ingress.push((boundary, ch));
        self
    }
}

struct BoundaryDecl {
    src_shard: usize,
    dst_shard: usize,
}

/// A partitioned topology under construction: the shards built so far plus
/// the declared boundaries between them. Consumed by
/// [`ShardedSimulator::new`].
pub struct ShardPlan {
    seed: u64,
    lookahead: SimDuration,
    shards: Vec<Simulator>,
    /// `boundary id → (shard, ingress channel)`, as the builders registered
    /// them.
    ingress: HashMap<BoundaryId, (usize, ChannelId)>,
    boundaries: Vec<BoundaryDecl>,
}

impl ShardPlan {
    /// Creates a plan. `lookahead` must be positive and no larger than the
    /// latency of any boundary link the builders create (the runner
    /// asserts the consequence at run time: no export may arrive before
    /// the end of the window it was sent in).
    pub fn new(seed: u64, lookahead: SimDuration) -> Self {
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative lookahead must be positive"
        );
        ShardPlan {
            seed,
            lookahead,
            shards: Vec::new(),
            ingress: HashMap::new(),
            boundaries: Vec::new(),
        }
    }

    /// Adds a shard: `build` runs at once against a fresh simulator and
    /// returns the shard's wiring plus anything else the caller wants out
    /// of construction (node and app ids, typically), which is handed back
    /// beside the shard's index.
    ///
    /// # Panics
    ///
    /// Panics if `build` registers an ingress for a boundary that already
    /// has one.
    pub fn add_shard<R>(
        &mut self,
        build: impl FnOnce(&mut Simulator) -> (ShardWiring, R),
    ) -> (usize, R) {
        let shard = self.shards.len();
        let mut sim = Simulator::new(self.seed);
        let (wiring, out) = build(&mut sim);
        for (b, ch) in wiring.ingress {
            let prev = self.ingress.insert(b, (shard, ch));
            assert!(prev.is_none(), "boundary {b} has two ingress registrations");
        }
        self.shards.push(sim);
        (shard, out)
    }

    /// Declares a directed boundary from `src_shard` to `dst_shard`,
    /// returning its id. The source shard's builder must create the
    /// egress half ([`Simulator::connect_boundary`]) under this id, and
    /// the destination shard's builder must register the ingress half in
    /// its [`ShardWiring`].
    pub fn declare_boundary(&mut self, src_shard: usize, dst_shard: usize) -> BoundaryId {
        let id = self.boundaries.len() as BoundaryId;
        self.boundaries.push(BoundaryDecl {
            src_shard,
            dst_shard,
        });
        id
    }

    /// Number of shards added so far.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// A cross-shard packet in flight between synchronization rounds.
struct XferMsg {
    time: u64,
    src_shard: u32,
    seq: u32,
    boundary: BoundaryId,
    pkt: Packet,
}

/// A barrier that can be poisoned: when a worker panics, it poisons the
/// barrier instead of leaving its peers blocked forever; every subsequent
/// or pending `wait` panics, unwinding the whole gang deterministically.
struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    count: usize,
    gen: u64,
    poisoned: bool,
}

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        PoisonBarrier {
            n,
            state: Mutex::new(BarrierState {
                count: 0,
                gen: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        self.wait_leader(|| {});
    }

    /// Barrier wait with a *reduction hook*: `leader` runs exactly once
    /// per generation, on the last thread to arrive, inside the barrier's
    /// critical section — every peer is parked on the condvar, so the
    /// closure has exclusive, mutex-ordered access to whatever shared
    /// state it reduces. This folds the runner's old
    /// store–barrier–compute–barrier sequence into a single barrier per
    /// round.
    fn wait_leader(&self, leader: impl FnOnce()) {
        let mut s = self.state.lock().expect("barrier lock");
        assert!(!s.poisoned, "shard worker panicked; barrier poisoned");
        s.count += 1;
        if s.count == self.n {
            leader();
            s.count = 0;
            s.gen = s.gen.wrapping_add(1);
            self.cv.notify_all();
            return;
        }
        let gen = s.gen;
        while s.gen == gen && !s.poisoned {
            s = self.cv.wait(s).expect("barrier lock");
        }
        assert!(!s.poisoned, "shard worker panicked; barrier poisoned");
    }

    fn poison(&self) {
        if let Ok(mut s) = self.state.lock() {
            s.poisoned = true;
        }
        self.cv.notify_all();
    }
}

/// Where a boundary's traffic goes.
struct Route {
    /// Ingress channel in the destination shard.
    ingress: ChannelId,
    /// The shard declared as the boundary's source.
    src_shard: usize,
    /// Index of the `(src, dst)` transfer lane.
    lane: usize,
}

/// State shared by all workers for window synchronization and transfer.
struct SyncState {
    barrier: PoisonBarrier,
    /// Per-worker minimum next-event time (µs; `u64::MAX` when idle).
    /// Written before / read inside the reduction barrier, whose mutex
    /// provides the ordering — hence `Relaxed` everywhere.
    local_min: Vec<AtomicU64>,
    /// End (exclusive, µs) of the current window; [`STOP`] to finish.
    /// Written by the reduction leader, read by everyone after the
    /// barrier releases them.
    window_end: AtomicU64,
    /// End of the previously executed window (µs; `u64::MAX` when there
    /// is none, e.g. after a [`STOP`]). Only the reduction leader touches
    /// it, inside the barrier's critical section.
    prev_window_end: AtomicU64,
    /// Cumulative count of whole lookahead windows the global clock
    /// jumped over (see the module-level *Window skip* section).
    windows_skipped: AtomicU64,
    /// Transfer lanes, one per distinct declared `(src, dst)` shard pair,
    /// ordered by that pair. In the write phase (window execution → export
    /// barrier) only the worker owning the *source* shard locks a lane; in
    /// the read phase (export barrier → next reduction barrier) only the
    /// worker owning the *destination* shard does, and it leaves the lane
    /// empty with its capacity intact.
    lanes: Vec<Mutex<Vec<XferMsg>>>,
    /// `dst shard → lane indices feeding it`.
    in_lanes: Vec<Vec<usize>>,
    /// `boundary id → route`.
    route: Vec<Route>,
}

impl SyncState {
    fn lane(&self, lane: usize) -> MutexGuard<'_, Vec<XferMsg>> {
        self.lanes[lane]
            .lock()
            .expect("a worker panicked holding a lane; the run is already unwinding")
    }
}

/// Per-`run_until` report from one worker.
#[derive(Default)]
struct RunReport {
    windows: u64,
    xfer_pkts: u64,
    xfer_batches: u64,
    max_batch_depth: u64,
    barrier_wait_ns: u64,
    /// Heap allocations this worker's thread performed inside the window
    /// loop (zero unless built with `comma-rt/alloc-stats`).
    allocs: u64,
}

/// Cumulative runner statistics; all fields except `barrier_wait_ns` and
/// `allocs` depend only on the deterministic event stream (identical for
/// any worker count).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Whole lookahead windows the global clock skipped over because no
    /// shard had an event in them (adaptive window advancement).
    pub windows_skipped: u64,
    /// Packets transferred across shard boundaries.
    pub xfer_pkts: u64,
    /// Non-empty transfer-lane flushes (one per lane per window that
    /// carried traffic).
    pub xfer_batches: u64,
    /// Deepest per-shard ingest merge (messages across all of a
    /// destination's lanes in one round).
    pub max_batch_depth: u64,
    /// Total events processed across all shards.
    pub events: u64,
    /// Wall-clock nanoseconds workers spent waiting at barriers (summed
    /// over workers; *not* deterministic — exported under a `wall.` key).
    pub barrier_wait_ns: u64,
    /// Heap allocations performed inside the workers' window loops,
    /// cumulative over runs (zero unless built with
    /// `comma-rt/alloc-stats`). Deterministic for a fixed configuration
    /// but *worker-count dependent* — exported under a `wall.` key.
    pub allocs: u64,
    /// Retained transfer-lane capacity in bytes (a footprint gauge, not a
    /// cumulative counter): the lane memory the runner holds between
    /// windows instead of reallocating each round.
    pub lane_bytes: u64,
}

/// The sharded parallel runner: it owns the per-shard [`Simulator`]s and
/// advances them in conservative lookahead windows.
///
/// `workers = 1` is the serial runner — same protocol, no thread spawned —
/// and produces byte-identical results to any other worker count.
pub struct ShardedSimulator {
    shards: Vec<Simulator>,
    /// Per-shard export sequence numbers (monotonic for the runner's
    /// lifetime; merged ingest sorts on `(time, src shard, seq)`).
    seqs: Vec<u32>,
    /// One per worker, lent out for each run; shard `s` runs on worker
    /// `s % workers`.
    scratch: Vec<Scratch>,
    now: SimTime,
    lookahead: SimDuration,
    stats: ShardStats,
    sync: SyncState,
    /// Observability handle for `shard.*` runner gauges (window count,
    /// transfer depth, lookahead) — disabled by default, like
    /// [`Simulator::obs`]. Each shard's simulator has its own handle, which
    /// [`ShardedSimulator::with_shard`] can switch on like any other.
    pub obs: Obs,
}

impl ShardedSimulator {
    /// Takes ownership of the plan's shards, wires the boundary routes and
    /// fixes the worker count (clamped to `1..=shard count`).
    ///
    /// # Panics
    ///
    /// Panics if the plan has no shards, or if a declared boundary is
    /// missing its ingress registration (or registers it in the wrong
    /// shard).
    pub fn new(plan: ShardPlan, workers: usize) -> Self {
        let n_shards = plan.shards.len();
        assert!(n_shards > 0, "shard plan has no shards");
        let n_workers = workers.clamp(1, n_shards);

        // One transfer lane per distinct declared (src, dst) shard pair;
        // multiple boundaries between the same pair share a lane (their
        // messages stay in per-source `seq` order either way).
        let mut lane_pairs: Vec<(usize, usize)> = plan
            .boundaries
            .iter()
            .map(|d| (d.src_shard, d.dst_shard))
            .collect();
        lane_pairs.sort_unstable();
        lane_pairs.dedup();
        let mut in_lanes: Vec<Vec<usize>> = (0..n_shards).map(|_| Vec::new()).collect();
        for (lane, &(_, dst)) in lane_pairs.iter().enumerate() {
            in_lanes[dst].push(lane);
        }
        let route = plan
            .boundaries
            .iter()
            .enumerate()
            .map(|(b, decl)| {
                let (shard, ingress) = *plan
                    .ingress
                    .get(&(b as BoundaryId))
                    .unwrap_or_else(|| panic!("boundary {b} has no ingress registration"));
                assert_eq!(
                    shard, decl.dst_shard,
                    "boundary {b} ingress registered in shard {shard}, declared dst {}",
                    decl.dst_shard
                );
                let lane = lane_pairs
                    .binary_search(&(decl.src_shard, decl.dst_shard))
                    .expect("every declared boundary has a lane");
                Route {
                    ingress,
                    src_shard: decl.src_shard,
                    lane,
                }
            })
            .collect();

        ShardedSimulator {
            shards: plan.shards,
            seqs: vec![0; n_shards],
            scratch: (0..n_workers).map(|_| Scratch::default()).collect(),
            now: SimTime::ZERO,
            lookahead: plan.lookahead,
            stats: ShardStats::default(),
            sync: SyncState {
                barrier: PoisonBarrier::new(n_workers),
                local_min: (0..n_workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
                window_end: AtomicU64::new(STOP),
                prev_window_end: AtomicU64::new(u64::MAX),
                windows_skipped: AtomicU64::new(0),
                lanes: lane_pairs.iter().map(|_| Mutex::default()).collect(),
                in_lanes,
                route,
            },
            obs: Obs::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of workers a run uses (the calling thread included).
    pub fn worker_count(&self) -> usize {
        self.scratch.len()
    }

    /// Global simulated time: every shard has reached exactly this time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative runner statistics.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Advances every shard to `t` using conservative lookahead windows.
    /// The calling thread is worker 0; the other workers are scoped threads
    /// that live for this call only.
    ///
    /// # Panics
    ///
    /// A panic inside any shard unwinds out of this call with its own
    /// payload, after every worker has stopped.
    pub fn run_until(&mut self, t: SimTime) {
        let target_us = t.as_micros();
        let lookahead_us = self.lookahead.as_micros();
        let state = &self.sync;
        let mut dealt: Vec<Vec<Owned<'_>>> = self.scratch.iter().map(|_| Vec::new()).collect();
        for (shard, (sim, seq)) in self.shards.iter_mut().zip(&mut self.seqs).enumerate() {
            let worker = shard % dealt.len();
            dealt[worker].push(Owned { shard, sim, seq });
        }
        let results: Vec<_> = std::thread::scope(|scope| {
            let mut jobs = dealt.into_iter().zip(&mut self.scratch).enumerate();
            let (_, (owned, scratch)) = jobs.next().expect("at least one worker");
            let spawned: Vec<_> = jobs
                .map(|(w, (owned, scratch))| {
                    scope.spawn(move || {
                        run_worker(w, target_us, lookahead_us, state, owned, scratch)
                    })
                })
                .collect();
            let mine = run_worker(0, target_us, lookahead_us, state, owned, scratch);
            let joined = spawned.into_iter().map(|h| h.join().and_then(|r| r));
            std::iter::once(mine).chain(joined).collect()
        });

        let mut windows = 0;
        let mut failure: Option<Box<dyn Any + Send>> = None;
        for result in results {
            match result {
                Ok(report) => {
                    // Every worker counts the same rounds.
                    windows = report.windows;
                    self.stats.xfer_pkts += report.xfer_pkts;
                    self.stats.xfer_batches += report.xfer_batches;
                    self.stats.max_batch_depth =
                        self.stats.max_batch_depth.max(report.max_batch_depth);
                    self.stats.barrier_wait_ns += report.barrier_wait_ns;
                    self.stats.allocs += report.allocs;
                }
                // Keep the root-cause panic; a "barrier poisoned" echo
                // from a peer never shadows it.
                Err(payload) => {
                    let echo = |p| panic_message(p).contains("barrier poisoned");
                    if failure.as_deref().is_none_or(echo) {
                        failure = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = failure {
            resume_unwind(payload);
        }
        self.now = self.now.max(t);
        self.stats.windows += windows;
        self.stats.windows_skipped = self.sync.windows_skipped.load(Ordering::Relaxed);
        self.stats.events = self.shards.iter().map(Simulator::events_processed).sum();
        self.stats.lane_bytes = (0..self.sync.lanes.len())
            .map(|lane| (self.sync.lane(lane).capacity() * std::mem::size_of::<XferMsg>()) as u64)
            .sum();
        self.obs_gauges();
    }

    /// Publishes runner gauges under the `shard` scope. Everything except
    /// the `wall.`-prefixed barrier timing depends only on the
    /// deterministic event stream, so seeded obs exports stay
    /// byte-identical across worker counts.
    fn obs_gauges(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        let s = &self.stats;
        self.obs.gauge("shard", "shards", self.shard_count() as f64);
        self.obs.gauge("shard", "workers", self.worker_count() as f64);
        self.obs
            .gauge("shard", "lookahead_us", self.lookahead.as_micros() as f64);
        self.obs.gauge("shard", "windows", s.windows as f64);
        self.obs
            .gauge("shard", "windows_skipped", s.windows_skipped as f64);
        self.obs.gauge("shard", "xfer_pkts", s.xfer_pkts as f64);
        self.obs.gauge("shard", "xfer_batches", s.xfer_batches as f64);
        self.obs
            .gauge("shard", "max_batch_depth", s.max_batch_depth as f64);
        self.obs.gauge("shard", "events", s.events as f64);
        self.obs.gauge("shard", "lane_bytes", s.lane_bytes as f64);
        // Wall-clock / worker-count-dependent values: quarantined out of
        // deterministic exports by their `wall.` key prefix.
        self.obs
            .gauge("shard", "wall.barrier_ns", s.barrier_wait_ns as f64);
        self.obs.gauge("shard", "wall.allocs", s.allocs as f64);
    }

    /// Runs `f` against one shard's simulator and returns the result.
    pub fn with_shard<R>(&mut self, shard: usize, f: impl FnOnce(&mut Simulator) -> R) -> R {
        f(&mut self.shards[shard])
    }

    /// Enables (or disables) per-channel rate-series recording on every
    /// shard (see [`Simulator::set_record_series`]). Throughput benchmarks
    /// turn it off: an unread series otherwise grows sample storage on
    /// every delivery.
    pub fn set_record_series(&mut self, on: bool) {
        for sim in &mut self.shards {
            sim.set_record_series(on);
        }
    }

    /// Enables full packet-trace capture on every shard with the given
    /// entry cap (per shard).
    pub fn set_trace_capture(&mut self, on: bool, max_entries: usize) {
        for sim in &mut self.shards {
            sim.trace.set_capture(on);
            sim.trace.set_max_entries(max_entries);
        }
    }

    /// Collects every shard's captured trace (rendered with node *names*,
    /// which are partition-invariant) and merges it into one canonical
    /// sequence ordered by `(time, line)`. Two runs of the same topology —
    /// any worker count, any partitioning with identical node names — are
    /// byte-identical here if and only if they moved the same packets at
    /// the same times.
    pub fn merged_trace(&mut self) -> Vec<(u64, String)> {
        let mut merged: Vec<(u64, String)> =
            self.shards.iter().flat_map(Simulator::render_trace_named).collect();
        merged.sort();
        merged
    }

    /// FNV-1a digest of [`ShardedSimulator::merged_trace`].
    pub fn merged_trace_digest(&mut self) -> u64 {
        let mut digest = comma_rt::digest::Fnv1a::new();
        for (t, line) in self.merged_trace() {
            writeln!(digest, "{t} {line}").expect("hashing cannot fail");
        }
        digest.finish()
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Recycled per-worker scratch. Every buffer is cleared, never dropped, so
/// a warmed-up worker's window loop performs zero heap allocations.
#[derive(Default)]
struct Scratch {
    /// Staging for [`Simulator::drain_outbox`] during export.
    outbox: Vec<(BoundaryId, SimTime, Packet)>,
    /// Staging for one destination shard's ingest merge.
    inbox: Vec<XferMsg>,
}

/// One shard lent to a worker for the length of a run.
struct Owned<'a> {
    shard: usize,
    sim: &'a mut Simulator,
    /// The shard's next export sequence number.
    seq: &'a mut u32,
}

/// One worker's whole `run_until`. A panic in any of its shards is caught
/// here so the barrier can be poisoned before the worker stops: its peers
/// unwind instead of waiting forever.
fn run_worker(
    worker: usize,
    target_us: u64,
    lookahead_us: u64,
    state: &SyncState,
    mut owned: Vec<Owned<'_>>,
    scratch: &mut Scratch,
) -> std::thread::Result<RunReport> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Meter the whole run on this thread (worker 0 has spawned its
        // peers by now): with `comma-rt/alloc-stats` the steady-state
        // window loop is asserted allocation-free, so anything counted
        // here is warm-up (first-run capacity growth) or node-level churn.
        let scope = comma_rt::alloc::AllocScope::begin();
        let mut report = run_rounds(worker, target_us, lookahead_us, state, &mut owned, scratch);
        report.allocs = scope.delta().allocs;
        report
    }));
    if result.is_err() {
        state.barrier.poison();
    }
    result
}

/// Moves every message waiting in the lanes that feed `shard` into its
/// simulator, oldest first, in the deterministic `(time, src shard, seq)`
/// order.
fn ingest_lanes(
    shard: usize,
    sim: &mut Simulator,
    state: &SyncState,
    inbox: &mut Vec<XferMsg>,
    report: &mut RunReport,
) {
    for &lane in &state.in_lanes[shard] {
        let mut buf = state.lane(lane);
        if !buf.is_empty() {
            report.xfer_batches += 1;
            // Leaves the lane empty with its capacity intact.
            inbox.append(&mut buf);
        }
    }
    // One lane arrives in send order, which is already merge order unless
    // fault injection delayed a packet past a later one; several lanes
    // end to end rarely are. Check (one linear pass) and only then sort.
    let key = |m: &XferMsg| (m.time, m.src_shard, m.seq);
    if !inbox.is_sorted_by_key(key) {
        inbox.sort_unstable_by_key(key);
    }
    report.max_batch_depth = report.max_batch_depth.max(inbox.len() as u64);
    for m in inbox.drain(..) {
        let ingress = state.route[m.boundary as usize].ingress;
        sim.inject_boundary(ingress, SimTime::from_micros(m.time), m.pkt);
    }
}

/// One `run_until` on one worker: conservative lookahead rounds until the
/// global minimum next-event time passes `target_us`.
fn run_rounds(
    worker: usize,
    target_us: u64,
    lookahead_us: u64,
    state: &SyncState,
    owned: &mut [Owned<'_>],
    scratch: &mut Scratch,
) -> RunReport {
    let mut report = RunReport::default();
    let mut waited = std::time::Duration::ZERO;
    for o in owned.iter_mut() {
        o.sim.start();
    }
    loop {
        // Phase 1: ingest last round's transfers (the lanes' read phase),
        // then publish this worker's minimum next-event time.
        let mut local_min = u64::MAX;
        for o in owned.iter_mut() {
            ingest_lanes(o.shard, o.sim, state, &mut scratch.inbox, &mut report);
            if let Some(t) = o.sim.next_event_time() {
                local_min = local_min.min(t.as_micros());
            }
        }
        state.local_min[worker].store(local_min, Ordering::Relaxed);

        // Phase 2: one barrier; the last thread to arrive reduces the
        // global minimum and opens the next window (or closes the run).
        let t0 = Instant::now();
        state.barrier.wait_leader(|| {
            let global_min = state
                .local_min
                .iter()
                .map(|m| m.load(Ordering::Relaxed))
                .min()
                .expect("at least one worker");
            let end = if global_min == u64::MAX || global_min > target_us {
                STOP
            } else {
                global_min
                    .saturating_add(lookahead_us)
                    .min(target_us.saturating_add(1))
            };
            let prev = state.prev_window_end.load(Ordering::Relaxed);
            if end == STOP {
                // Segment boundary: the gap to the next `run_until`'s
                // first window is idle time between runs, not a skip.
                state.prev_window_end.store(u64::MAX, Ordering::Relaxed);
            } else {
                if prev != u64::MAX && global_min > prev {
                    // The window opens past the previous window's end:
                    // adaptive advancement jumped the global clock over
                    // `global_min - prev` µs of provably-empty time.
                    state
                        .windows_skipped
                        .fetch_add((global_min - prev) / lookahead_us, Ordering::Relaxed);
                }
                state.prev_window_end.store(end, Ordering::Relaxed);
            }
            state.window_end.store(end, Ordering::Relaxed);
        });
        waited += t0.elapsed();

        let end = state.window_end.load(Ordering::Relaxed);
        if end == STOP {
            // Nothing due at or before the target anywhere: advance every
            // shard's clock to the target and finish. No events run, so
            // no exports can appear here.
            for o in owned.iter_mut() {
                o.sim.run_until(SimTime::from_micros(target_us));
            }
            break;
        }
        report.windows += 1;

        // Phase 3: execute the window [global_min, end) in parallel and
        // append boundary crossings to their lanes (the write phase) for
        // next round's ingest.
        for o in owned.iter_mut() {
            let shard = o.shard;
            o.sim.run_until(SimTime::from_micros(end - 1));
            o.sim.drain_outbox(&mut scratch.outbox);
            for (boundary, at, pkt) in scratch.outbox.drain(..) {
                let at_us = at.as_micros();
                assert!(
                    at_us >= end,
                    "lookahead violation: shard {shard} exported a packet on \
                     boundary {boundary} arriving at {at_us} µs, inside the \
                     current window (end {end} µs); boundary-link latency \
                     must be at least the declared lookahead ({lookahead_us} µs)"
                );
                let seq = *o.seq;
                *o.seq = seq.wrapping_add(1);
                let route = &state.route[boundary as usize];
                debug_assert_eq!(
                    route.src_shard, shard,
                    "boundary {boundary} egress created in shard {shard}, declared src {}",
                    route.src_shard
                );
                state.lane(route.lane).push(XferMsg {
                    time: at_us,
                    src_shard: shard as u32,
                    seq,
                    boundary,
                    pkt,
                });
                report.xfer_pkts += 1;
            }
        }
        // Phase 4: everyone finished the window (and its exports) before
        // anyone ingests the next round — the write→read phase flip.
        let t0 = Instant::now();
        state.barrier.wait();
        waited += t0.elapsed();
    }
    report.barrier_wait_ns = waited.as_nanos() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;
    use crate::link::LinkParams;
    use crate::node::{IfaceId, Node, NodeCtx, NodeId};
    use crate::packet::{IcmpMessage, IpPayload, Packet};
    use comma_rt::Bytes;

    /// Test node: sends a ping on each of its ifaces every `period`,
    /// counts pings it receives, and echoes nothing (one-way traffic keeps
    /// the arithmetic simple).
    struct Pinger {
        name: String,
        addr: Ipv4Addr,
        period: SimDuration,
        ifaces: usize,
        sent: u64,
        received: u64,
        /// When set (a splitmix64 state): give up the CPU a pseudo-random
        /// 0–3 times per dispatch, so the order workers reach the barriers
        /// in is scrambled while the simulated behaviour is untouched.
        stall: Option<u64>,
    }

    impl Pinger {
        fn new(name: &str, last_octet: u8, period_ms: u64) -> Self {
            Pinger {
                name: name.to_string(),
                addr: Ipv4Addr::new(10, 0, 0, last_octet),
                period: SimDuration::from_millis(period_ms),
                ifaces: 1,
                sent: 0,
                received: 0,
                stall: None,
            }
        }

        fn stall(&mut self) {
            if let Some(state) = &mut self.stall {
                for _ in 0..comma_rt::rng::splitmix64(state) >> 62 {
                    std::thread::yield_now();
                }
            }
        }
    }

    impl Node for Pinger {
        fn name(&self) -> &str {
            &self.name
        }
        fn addresses(&self) -> Vec<Ipv4Addr> {
            vec![self.addr]
        }
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer_after(self.period, 0);
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
            self.stall();
            if let IpPayload::Icmp(IcmpMessage::EchoRequest { .. }) = pkt.body {
                self.received += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            self.stall();
            for iface in 0..self.ifaces {
                let pkt = Packet::icmp(
                    self.addr,
                    self.addr,
                    IcmpMessage::EchoRequest {
                        id: 0,
                        seq: (self.sent & 0xffff) as u16,
                        payload: Bytes::from_static(&[0u8; 32]),
                    },
                );
                ctx.send(IfaceId(iface), pkt);
                self.sent += 1;
            }
            ctx.set_timer_after(self.period, 0);
        }
    }

    /// Two shards, one node each, linked by a 10 ms wired boundary in both
    /// directions; traffic flows both ways across it.
    fn two_shard_plan(seed: u64) -> ShardPlan {
        let mut plan = ShardPlan::new(seed, SimDuration::from_millis(10));
        let wired = || LinkParams::wired().with_latency(SimDuration::from_millis(10));
        let (s0, ()) = plan.add_shard(|sim| {
            let a = sim.add_node_keyed(Box::new(Pinger::new("alpha", 1, 7)), 100);
            // Boundary ids are allocated in declaration order below:
            // 0 = s0→s1, 1 = s1→s0.
            let (_, ing) = sim.connect_boundary(a, 0, wired(), wired(), 500, 0);
            (ShardWiring::new().ingress(1, ing), ())
        });
        let (s1, ()) = plan.add_shard(|sim| {
            let b = sim.add_node_keyed(Box::new(Pinger::new("beta", 2, 11)), 101);
            let (_, ing) = sim.connect_boundary(b, 1, wired(), wired(), 500, 1);
            (ShardWiring::new().ingress(0, ing), ())
        });
        let b01 = plan.declare_boundary(s0, s1);
        let b10 = plan.declare_boundary(s1, s0);
        assert_eq!((b01, b10), (0, 1));
        plan
    }

    fn run_counts(workers: usize) -> (u64, u64, u64) {
        let mut sharded = ShardedSimulator::new(two_shard_plan(9), workers);
        sharded.run_until(SimTime::from_secs(2));
        let (a_sent, a_recv) =
            sharded.with_shard(0, |sim| sim.with_node::<Pinger, _>(NodeId(0), |p| (p.sent, p.received)));
        let (_b_sent, b_recv) =
            sharded.with_shard(1, |sim| sim.with_node::<Pinger, _>(NodeId(0), |p| (p.sent, p.received)));
        assert_eq!(sharded.now(), SimTime::from_secs(2));
        assert!(a_sent > 0 && b_recv > 0 && a_recv > 0, "traffic crossed both ways");
        (a_sent, a_recv, b_recv)
    }

    #[test]
    fn cross_boundary_traffic_flows_and_is_worker_invariant() {
        let serial = run_counts(1);
        let parallel = run_counts(2);
        assert_eq!(serial, parallel, "results must not depend on worker count");
        // alpha pings every 7 ms for 2 s; all but the last in-flight few
        // arrive (10 ms one-way).
        assert!(serial.2 >= serial.0 - 3, "{serial:?}");
    }

    #[test]
    fn merged_trace_digest_is_worker_invariant() {
        let digest = |workers: usize| {
            let mut s = ShardedSimulator::new(two_shard_plan(23), workers);
            s.set_trace_capture(true, 1 << 20);
            s.run_until(SimTime::from_millis(500));
            s.merged_trace_digest()
        };
        let d1 = digest(1);
        let d2 = digest(2);
        assert_eq!(d1, d2);
        assert_ne!(d1, 0);
    }

    #[test]
    fn stats_are_deterministic_and_windows_advance() {
        let stats = |workers: usize| {
            let mut s = ShardedSimulator::new(two_shard_plan(5), workers);
            s.run_until(SimTime::from_millis(200));
            let st = s.stats();
            (
                st.windows,
                st.windows_skipped,
                st.xfer_pkts,
                st.xfer_batches,
                st.max_batch_depth,
                st.events,
            )
        };
        assert_eq!(stats(1), stats(2), "all event-stream stats are worker-invariant");
        let (windows, _, xfer, batches, _, events) = stats(2);
        assert!(windows > 0 && xfer > 0 && batches > 0 && events > 0);
    }

    #[test]
    fn sparse_traffic_skips_windows() {
        // One lonely pinger with a 50 ms period and a 1 ms lookahead: the
        // clock must jump the dead time between pings instead of grinding
        // through ~49 empty windows per period.
        let mut plan = ShardPlan::new(3, SimDuration::from_millis(1));
        plan.add_shard(|sim| {
            sim.add_node_keyed(Box::new(Pinger::new("solo", 1, 50)), 100);
            (ShardWiring::new(), ())
        });
        let mut s = ShardedSimulator::new(plan, 1);
        s.run_until(SimTime::from_secs(1));
        let st = s.stats();
        assert!(
            st.windows < 100,
            "adaptive advancement keeps executed windows near the event count, got {}",
            st.windows
        );
        assert!(
            st.windows_skipped > 500,
            "~49 empty windows per 50 ms period must be skipped, got {}",
            st.windows_skipped
        );
    }

    #[test]
    fn run_until_is_resumable_in_segments() {
        let mut whole = ShardedSimulator::new(two_shard_plan(7), 2);
        whole.run_until(SimTime::from_secs(1));
        let mut segmented = ShardedSimulator::new(two_shard_plan(7), 2);
        for ms in [50u64, 400, 730, 1000] {
            segmented.run_until(SimTime::from_millis(ms));
        }
        // A thousand runs spawn (and join) the second worker a thousand
        // times; each must pick up exactly where the last one stopped.
        let mut stepped = ShardedSimulator::new(two_shard_plan(7), 2);
        for ms in 1..=1000u64 {
            stepped.run_until(SimTime::from_millis(ms));
        }
        let counts = |s: &mut ShardedSimulator| {
            let a = s.with_shard(0, |sim| sim.with_node::<Pinger, _>(NodeId(0), |p| (p.sent, p.received)));
            let b = s.with_shard(1, |sim| sim.with_node::<Pinger, _>(NodeId(0), |p| (p.sent, p.received)));
            (a, b)
        };
        assert_eq!(counts(&mut whole), counts(&mut segmented));
        assert_eq!(counts(&mut whole), counts(&mut stepped));
    }

    #[test]
    fn worker_panic_propagates_with_message() {
        // Shard 1 runs on the spawned worker: its panic must outrank the
        // "barrier poisoned" echo worker 0 (the caller) dies of.
        for bad in [0, 1] {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut plan = ShardPlan::new(1, SimDuration::from_millis(1));
                for shard in 0..2 {
                    plan.add_shard(|sim| {
                        if shard == bad {
                            sim.at(SimTime::from_millis(5), |_| panic!("boom in shard"));
                        }
                        (ShardWiring::new(), ())
                    });
                }
                let mut s = ShardedSimulator::new(plan, 2);
                s.run_until(SimTime::from_secs(1));
            }));
            let payload = result.expect_err("must propagate");
            let msg = panic_message(&*payload);
            assert!(msg.contains("boom in shard"), "got: {msg}");
        }
    }

    #[test]
    fn with_shard_panic_is_the_closures_own_and_spares_the_other_shards() {
        let mut s = ShardedSimulator::new(two_shard_plan(3), 2);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            s.with_shard(0, |_| panic!("closure went wrong"));
        }))
        .expect_err("must propagate");
        assert_eq!(panic_message(&*payload), "closure went wrong");
        s.run_until(SimTime::from_millis(100));
        let received = s.with_shard(1, |sim| sim.with_node::<Pinger, _>(NodeId(0), |p| p.received));
        assert!(received > 0, "shard 1 still runs and still hears from shard 0");
    }

    /// The lane protocol under scrambled barrier arrival: an 8-shard ring
    /// with a boundary to each neighbour (two lanes feed every shard, and
    /// equal periods make their arrivals tie on time), nodes that stall at
    /// random, every way of dealing 8 shards to 1/2/3/7 workers.
    #[test]
    fn lane_protocol_is_invariant_under_barrier_arrival_order() {
        const N: usize = 8;
        let run = |seed: u64, workers: usize| {
            let wired = || LinkParams::wired().with_latency(SimDuration::from_millis(2));
            let mut plan = ShardPlan::new(seed, SimDuration::from_millis(2));
            for i in 0..N {
                let (next, prev) = ((i + 1) % N, (i + N - 1) % N);
                plan.add_shard(|sim| {
                    let mut node = Pinger::new(&format!("ring{i}"), i as u8, 1 + seed % 3);
                    node.ifaces = 2;
                    node.stall = Some(seed << 8 | i as u64);
                    let node = sim.add_node_keyed(Box::new(node), i as u64);
                    // Boundary 2i runs i → i+1, boundary 2i+1 runs i → i−1;
                    // each iface hears the neighbour it talks to.
                    let key = 500 + i as u64;
                    let (_, from_next) = sim.connect_boundary(node, 2 * i as u32, wired(), wired(), key, 0);
                    let (_, from_prev) = sim.connect_boundary(node, 2 * i as u32 + 1, wired(), wired(), key, 1);
                    let wiring = ShardWiring::new()
                        .ingress(2 * next as u32 + 1, from_next)
                        .ingress(2 * prev as u32, from_prev);
                    (wiring, ())
                });
            }
            for i in 0..N {
                plan.declare_boundary(i, (i + 1) % N);
                plan.declare_boundary(i, (i + N - 1) % N);
            }
            let mut s = ShardedSimulator::new(plan, workers);
            s.set_trace_capture(true, 1 << 20);
            s.run_until(SimTime::from_millis(60));
            let st = s.stats();
            assert!(st.xfer_pkts > 0 && st.max_batch_depth > 1, "{st:?}");
            (s.merged_trace_digest(), st.windows, st.windows_skipped, st.xfer_pkts, st.events)
        };
        for seed in 0..20 {
            let serial = run(seed, 1);
            for workers in [2, 3, 7] {
                assert_eq!(run(seed, workers), serial, "seed {seed}, {workers} workers");
            }
        }
    }

    #[test]
    fn with_shard_returns_typed_results() {
        let mut s = ShardedSimulator::new(two_shard_plan(3), 1);
        let names: Vec<String> = s.with_shard(0, |sim| {
            (0..sim.node_count()).map(|i| sim.node_name(NodeId(i)).to_string()).collect()
        });
        assert_eq!(names, vec!["alpha".to_string()]);
    }
}
