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
//! lanes*: plain `Vec<XferMsg>` buffers owned one phase at a time. The
//! source shard's worker appends during window execution; the
//! destination's worker drains at the next round's ingest; the round's
//! two barriers (the min-reduction barrier and the post-export barrier)
//! separate the phases, so the lanes need no locks and no atomics — the
//! barrier's own mutex provides the happens-before edge. Each lane is
//! kept `(time, seq)`-sorted at export (appends are already in order
//! except under reordering fault injection), and ingest performs a k-way
//! streaming merge across a destination's lanes on `(time, src, seq)` —
//! identical total order to the old sort-a-fresh-`Vec` inbox, with zero
//! steady-state allocation: lane capacity, merge scratch, and the export
//! staging buffer are all retained across windows.
//! # Determinism across partitionings
//!
//! Worker-count invariance comes from the protocol above. *Partitioning*
//! invariance (the same topology built as one shard or many) additionally
//! requires that every RNG stream depends only on the world seed and a
//! stable entity key — use [`Simulator::add_node_keyed`] /
//! [`Simulator::connect_keyed`], as the partition-aware topology builder
//! does.
//!
//! `Simulator` is intentionally not `Send` (observability handles are
//! reference-counted), so shards are *built inside* their owning worker
//! thread from `Send` builder closures and never move; the main thread
//! talks to them through command channels ([`ShardedSimulator::with_shard`]).

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
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
/// terminates inside the shard, plus an arbitrary `Send` tag the caller
/// can retrieve with [`ShardedSimulator::take_tag`] (topology builders use
/// it to return node/app ids minted during in-thread construction).
pub struct ShardWiring {
    /// `(boundary id, ingress channel)` pairs: packets exported by peers
    /// under that boundary id are injected on that channel.
    pub ingress: Vec<(BoundaryId, ChannelId)>,
    /// Caller data produced during construction.
    pub tag: Box<dyn Any + Send>,
}

impl Default for ShardWiring {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardWiring {
    /// An empty wiring (no inbound boundaries, unit tag).
    pub fn new() -> Self {
        ShardWiring {
            ingress: Vec::new(),
            tag: Box::new(()),
        }
    }

    /// Registers the ingress channel for a boundary (builder-style).
    pub fn ingress(mut self, boundary: BoundaryId, ch: ChannelId) -> Self {
        self.ingress.push((boundary, ch));
        self
    }

    /// Attaches caller data (builder-style).
    pub fn with_tag(mut self, tag: Box<dyn Any + Send>) -> Self {
        self.tag = tag;
        self
    }
}

/// A closure that builds one shard's contents inside its worker thread.
pub type ShardBuilder = Box<dyn FnOnce(&mut Simulator) -> ShardWiring + Send + 'static>;

struct BoundaryDecl {
    src_shard: usize,
    dst_shard: usize,
}

/// A partitioned-topology description: per-shard builder closures plus the
/// declared boundaries between them. Consumed by [`ShardedSimulator::new`].
pub struct ShardPlan {
    seed: u64,
    lookahead: SimDuration,
    builders: Vec<ShardBuilder>,
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
            builders: Vec::new(),
            boundaries: Vec::new(),
        }
    }

    /// The world seed every shard simulator is constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The conservative lookahead window.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Adds a shard, returning its index. The closure runs once, inside
    /// the worker thread that owns the shard.
    pub fn add_shard(
        &mut self,
        builder: impl FnOnce(&mut Simulator) -> ShardWiring + Send + 'static,
    ) -> usize {
        self.builders.push(Box::new(builder));
        self.builders.len() - 1
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
        self.builders.len()
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

/// One single-writer/single-reader transfer lane between an ordered
/// `(src, dst)` shard pair: the unlocked replacement for the old
/// `Mutex<Vec<XferMsg>>` inboxes.
///
/// Access is phase-disciplined by the round's barriers, never by a lock:
///
/// - **write phase** (window execution → export barrier): only the worker
///   owning the *source* shard touches the lane, appending exports;
/// - **read phase** (export barrier → next reduction barrier): only the
///   worker owning the *destination* shard touches it, draining messages
///   and `clear()`ing — which retains capacity, so a warmed-up lane never
///   reallocates.
///
/// The export barrier between the phases is a mutex+condvar, so every
/// write in phase N is visible to the reader in phase N+1 (release on
/// barrier entry, acquire on exit). The reader finishes before its own
/// reduction-barrier arrival, which in turn happens before any writer
/// starts the next window — the two exclusive windows can never overlap.
struct Lane {
    buf: UnsafeCell<Vec<XferMsg>>,
}

// SAFETY: see the phase discipline above — at any instant at most one
// thread holds a reference into `buf`, and phase transitions synchronize
// through the `PoisonBarrier` mutex.
unsafe impl Sync for Lane {}

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
    /// ordered by that pair.
    lanes: Vec<Lane>,
    /// `dst shard → lane indices feeding it`, ascending source shard: the
    /// k-way ingest merge visits them in tie-break order.
    in_lanes: Vec<Vec<usize>>,
    /// `lane index → source shard` (capacity accounting attribution).
    lane_src: Vec<usize>,
    /// `boundary id → (destination shard, ingress channel index, declared
    /// source shard, lane index)`; set once after all shards report their
    /// wiring.
    route: OnceLock<Vec<(usize, usize, usize, usize)>>,
}

/// Commands the main thread sends to a worker.
enum Cmd {
    Run { target_us: u64 },
    Exec { shard: usize, f: ExecFn, reply: Sender<Result<Box<dyn Any + Send>, String>> },
    Shutdown,
}

type ExecFn = Box<dyn FnOnce(&mut Simulator) -> Box<dyn Any + Send> + Send>;

/// Per-`run_until` report from one worker.
#[derive(Clone, Copy, Default)]
struct RunReport {
    windows: u64,
    xfer_pkts: u64,
    xfer_batches: u64,
    max_batch_depth: u64,
    events: u64,
    barrier_wait_ns: u64,
    /// Heap allocations this worker's thread performed inside the window
    /// loop (zero unless built with `comma-rt/alloc-stats`).
    allocs: u64,
    /// Retained capacity (bytes) of the lanes this worker writes.
    lane_bytes: u64,
}

enum WorkerMsg {
    Built {
        wirings: Vec<(usize, Vec<(BoundaryId, ChannelId)>, Box<dyn Any + Send>)>,
    },
    RunDone {
        report: RunReport,
    },
    Panicked {
        msg: String,
    },
}

struct WorkerHandle {
    cmd_tx: Sender<Cmd>,
    join: Option<JoinHandle<()>>,
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

/// The sharded parallel runner: per-shard [`Simulator`]s pinned to worker
/// threads, advanced in conservative lookahead windows.
///
/// `workers = 1` is the serial runner — same protocol, one thread — and
/// produces byte-identical results to any other worker count.
pub struct ShardedSimulator {
    workers: Vec<WorkerHandle>,
    done_rx: Receiver<WorkerMsg>,
    /// `shard index → worker index` (round-robin).
    assignment: Vec<usize>,
    tags: Vec<Option<Box<dyn Any + Send>>>,
    now: SimTime,
    lookahead: SimDuration,
    stats: ShardStats,
    /// Shared synchronization state (for reading leader-side counters like
    /// `windows_skipped` after a run; the main thread never touches lanes).
    sync: Arc<SyncState>,
    /// Observability handle for `shard.*` runner gauges (window count,
    /// transfer depth, lookahead) — disabled by default, like
    /// [`Simulator::obs`]. Per-shard simulators have their own (disabled)
    /// handles; reference-counted registries cannot cross threads.
    pub obs: Obs,
}

impl ShardedSimulator {
    /// Spawns `workers` threads (clamped to `1..=shard count`), builds
    /// every shard inside its owning thread, and wires the boundary
    /// routes.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no shards, if a declared boundary is missing
    /// its ingress registration (or registers it in the wrong shard), or
    /// if a builder closure panics.
    pub fn new(plan: ShardPlan, workers: usize) -> Self {
        let n_shards = plan.builders.len();
        assert!(n_shards > 0, "shard plan has no shards");
        let n_workers = workers.clamp(1, n_shards);
        let assignment: Vec<usize> = (0..n_shards).map(|s| s % n_workers).collect();

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
            // `lane_pairs` is sorted by (src, dst), so each destination's
            // lane list comes out in ascending source-shard order — the
            // ingest merge's tie-break order.
            in_lanes[dst].push(lane);
        }
        let state = Arc::new(SyncState {
            barrier: PoisonBarrier::new(n_workers),
            local_min: (0..n_workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
            window_end: AtomicU64::new(STOP),
            prev_window_end: AtomicU64::new(u64::MAX),
            windows_skipped: AtomicU64::new(0),
            lanes: lane_pairs
                .iter()
                .map(|_| Lane {
                    buf: UnsafeCell::new(Vec::new()),
                })
                .collect(),
            in_lanes,
            lane_src: lane_pairs.iter().map(|&(src, _)| src).collect(),
            route: OnceLock::new(),
        });

        let (done_tx, done_rx) = channel::<WorkerMsg>();
        let seed = plan.seed;
        let lookahead_us = plan.lookahead.as_micros();

        // Distribute builders round-robin, preserving shard order within
        // each worker.
        let mut per_worker: Vec<Vec<(usize, ShardBuilder)>> =
            (0..n_workers).map(|_| Vec::new()).collect();
        for (idx, builder) in plan.builders.into_iter().enumerate() {
            per_worker[assignment[idx]].push((idx, builder));
        }

        let mut handles = Vec::with_capacity(n_workers);
        for (w, builders) in per_worker.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = channel::<Cmd>();
            let state = Arc::clone(&state);
            let done_tx = done_tx.clone();
            let join = std::thread::Builder::new()
                .name(format!("shard-worker-{w}"))
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        worker_main(w, seed, lookahead_us, builders, &state, &cmd_rx, &done_tx)
                    }));
                    if let Err(payload) = result {
                        state.barrier.poison();
                        let _ = done_tx.send(WorkerMsg::Panicked {
                            msg: panic_message(payload),
                        });
                    }
                })
                .expect("spawn shard worker");
            handles.push(WorkerHandle {
                cmd_tx,
                join: Some(join),
            });
        }

        // Collect every shard's wiring and assemble the boundary routes.
        let mut tags: Vec<Option<Box<dyn Any + Send>>> =
            (0..n_shards).map(|_| None).collect();
        let mut ingress: HashMap<BoundaryId, (usize, ChannelId)> = HashMap::new();
        let mut built = 0usize;
        while built < n_workers {
            match done_rx.recv().expect("worker hung up during build") {
                WorkerMsg::Built { wirings } => {
                    built += 1;
                    for (shard, pairs, tag) in wirings {
                        tags[shard] = Some(tag);
                        for (b, ch) in pairs {
                            let prev = ingress.insert(b, (shard, ch));
                            assert!(
                                prev.is_none(),
                                "boundary {b} has two ingress registrations"
                            );
                        }
                    }
                }
                WorkerMsg::Panicked { msg } => {
                    panic!("shard builder panicked: {msg}")
                }
                WorkerMsg::RunDone { .. } => unreachable!("no run issued yet"),
            }
        }
        let route: Vec<(usize, usize, usize, usize)> = plan
            .boundaries
            .iter()
            .enumerate()
            .map(|(b, decl)| {
                let (shard, ch) = *ingress
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
                (shard, ch.0, decl.src_shard, lane)
            })
            .collect();
        state
            .route
            .set(route)
            .unwrap_or_else(|_| unreachable!("route set once"));

        ShardedSimulator {
            workers: handles,
            done_rx,
            assignment,
            tags,
            now: SimTime::ZERO,
            lookahead: plan.lookahead,
            stats: ShardStats::default(),
            sync: state,
            obs: Obs::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.assignment.len()
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The conservative lookahead window.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Global simulated time: every shard has reached exactly this time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative runner statistics.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.stats.events
    }

    /// Takes the tag the shard's builder closure returned.
    pub fn take_tag(&mut self, shard: usize) -> Box<dyn Any + Send> {
        self.tags[shard].take().expect("tag already taken")
    }

    /// Advances every shard to `t` using conservative lookahead windows.
    pub fn run_until(&mut self, t: SimTime) {
        let target_us = t.as_micros();
        for w in &self.workers {
            w.cmd_tx
                .send(Cmd::Run { target_us })
                .expect("shard worker is gone");
        }
        let mut merged = RunReport::default();
        let mut failure: Option<String> = None;
        let mut done = 0usize;
        while done < self.workers.len() {
            match self.done_rx.recv() {
                Ok(WorkerMsg::RunDone { report }) => {
                    done += 1;
                    merged.windows = merged.windows.max(report.windows);
                    merged.xfer_pkts += report.xfer_pkts;
                    merged.xfer_batches += report.xfer_batches;
                    merged.max_batch_depth = merged.max_batch_depth.max(report.max_batch_depth);
                    merged.events += report.events;
                    merged.barrier_wait_ns += report.barrier_wait_ns;
                    merged.allocs += report.allocs;
                    merged.lane_bytes += report.lane_bytes;
                }
                Ok(WorkerMsg::Panicked { msg }) => {
                    done += 1;
                    // Keep the root-cause panic; a "barrier poisoned" echo
                    // from a peer never shadows it.
                    let echo = msg.contains("barrier poisoned");
                    match &failure {
                        None => failure = Some(msg),
                        Some(cur) if cur.contains("barrier poisoned") && !echo => {
                            failure = Some(msg)
                        }
                        _ => {}
                    }
                }
                Ok(WorkerMsg::Built { .. }) => unreachable!("build already finished"),
                Err(_) => break,
            }
        }
        if let Some(msg) = failure {
            panic!("shard worker panicked: {msg}");
        }
        self.now = self.now.max(t);
        self.stats.windows += merged.windows;
        self.stats.windows_skipped = self.sync.windows_skipped.load(Ordering::Relaxed);
        self.stats.xfer_pkts += merged.xfer_pkts;
        self.stats.xfer_batches += merged.xfer_batches;
        self.stats.max_batch_depth = self.stats.max_batch_depth.max(merged.max_batch_depth);
        self.stats.events = merged.events;
        self.stats.barrier_wait_ns += merged.barrier_wait_ns;
        self.stats.allocs += merged.allocs;
        self.stats.lane_bytes = merged.lane_bytes;
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

    /// Runs `f` against one shard's simulator inside its worker thread and
    /// returns the result. Panics in `f` propagate to the caller.
    pub fn with_shard<R: Send + 'static>(
        &mut self,
        shard: usize,
        f: impl FnOnce(&mut Simulator) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = channel();
        let w = self.assignment[shard];
        self.workers[w]
            .cmd_tx
            .send(Cmd::Exec {
                shard,
                f: Box::new(move |sim| Box::new(f(sim)) as Box<dyn Any + Send>),
                reply: tx,
            })
            .expect("shard worker is gone");
        match rx.recv().expect("shard worker is gone") {
            Ok(result) => *result
                .downcast::<R>()
                .expect("shard closure returned the wrong type"),
            Err(msg) => panic!("shard {shard} closure panicked: {msg}"),
        }
    }

    /// Enables (or disables) per-channel rate-series recording on every
    /// shard (see [`Simulator::set_record_series`]). Throughput benchmarks
    /// turn it off: an unread series otherwise grows sample storage on
    /// every delivery.
    pub fn set_record_series(&mut self, on: bool) {
        for shard in 0..self.shard_count() {
            self.with_shard(shard, move |sim| sim.set_record_series(on));
        }
    }

    /// Enables full packet-trace capture on every shard with the given
    /// entry cap (per shard).
    pub fn set_trace_capture(&mut self, on: bool, max_entries: usize) {
        for shard in 0..self.shard_count() {
            self.with_shard(shard, move |sim| {
                sim.trace.set_capture(on);
                sim.trace.set_max_entries(max_entries);
            });
        }
    }

    /// Collects every shard's captured trace (rendered with node *names*,
    /// which are partition-invariant) and merges it into one canonical
    /// sequence ordered by `(time, line)`. Two runs of the same topology —
    /// any worker count, any partitioning with identical node names — are
    /// byte-identical here if and only if they moved the same packets at
    /// the same times.
    pub fn merged_trace(&mut self) -> Vec<(u64, String)> {
        let mut per_shard = Vec::with_capacity(self.shard_count());
        for shard in 0..self.shard_count() {
            let mut rendered = self.with_shard(shard, |sim| sim.render_trace_named());
            // Per-shard traces are time-ordered already; same-instant
            // lines may need a local swap into (time, line) order, which
            // the adaptive merge sort sees as nearly-sorted input.
            rendered.sort();
            per_shard.push(rendered);
        }
        merge_sorted_traces(per_shard)
    }

    /// FNV-1a digest of [`ShardedSimulator::merged_trace`].
    pub fn merged_trace_digest(&mut self) -> u64 {
        let mut digest = comma_rt::digest::Fnv1a::new();
        let mut num = [0u8; 20];
        for (t, line) in self.merged_trace() {
            digest.update(u64_decimal(t, &mut num));
            digest.update(b" ");
            digest.update(line.as_bytes());
            digest.update(b"\n");
        }
        digest.finish()
    }
}

/// Formats `v` as decimal digits into `buf`, returning the used suffix —
/// the digest loop's allocation-free stand-in for `v.to_string()`
/// (byte-identical output, pinned by a unit test).
fn u64_decimal(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &buf[i..]
}

/// Merges per-shard `(time, line)` traces — each already sorted — into one
/// canonical `(time, line)`-ordered sequence, *moving* every line instead
/// of cloning it. Equivalent to concatenating and sorting (total order,
/// stability irrelevant for equal keys), but does one k-way front scan per
/// line and exactly one output allocation. Public for the
/// `shard_trace_merge` micro benchmark.
pub fn merge_sorted_traces(mut shards: Vec<Vec<(u64, String)>>) -> Vec<(u64, String)> {
    if shards.len() == 1 {
        return shards.pop().unwrap();
    }
    let total = shards.iter().map(Vec::len).sum();
    let mut out: Vec<(u64, String)> = Vec::with_capacity(total);
    let mut pos: Vec<usize> = vec![0; shards.len()];
    loop {
        let mut best: Option<usize> = None;
        for i in 0..shards.len() {
            if pos[i] >= shards[i].len() {
                continue;
            }
            best = Some(match best {
                None => i,
                Some(b) => {
                    let cand = &shards[i][pos[i]];
                    let cur = &shards[b][pos[b]];
                    if (cand.0, &cand.1) < (cur.0, &cur.1) {
                        i
                    } else {
                        b
                    }
                }
            });
        }
        let Some(b) = best else { break };
        let (t, line) = &mut shards[b][pos[b]];
        out.push((*t, std::mem::take(line)));
        pos[b] += 1;
    }
    out
}

impl Drop for ShardedSimulator {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.cmd_tx.send(Cmd::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(join) = w.join.take() {
                // A worker that panicked already reported it; don't
                // double-panic during unwinding.
                let _ = join.join();
            }
        }
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Recycled per-worker scratch. Every buffer is cleared, never dropped, so
/// a warmed-up worker's window loop performs zero heap allocations.
#[derive(Default)]
struct Scratch {
    /// Staging for [`Simulator::drain_outbox`] during export.
    outbox: Vec<(BoundaryId, SimTime, Packet)>,
    /// Lanes this worker pushed into during the current window
    /// (empty → non-empty transitions; one entry per lane per window).
    touched: Vec<usize>,
    /// Lane indices with messages remaining, for the k-way ingest merge.
    heads: Vec<usize>,
}

/// Body of one worker thread: builds its shards, then serves commands.
fn worker_main(
    worker: usize,
    seed: u64,
    lookahead_us: u64,
    builders: Vec<(usize, ShardBuilder)>,
    state: &SyncState,
    cmd_rx: &Receiver<Cmd>,
    done_tx: &Sender<WorkerMsg>,
) {
    let mut owned: Vec<(usize, Simulator)> = Vec::with_capacity(builders.len());
    let mut wirings = Vec::with_capacity(builders.len());
    for (shard, builder) in builders {
        let mut sim = Simulator::new(seed);
        let wiring = builder(&mut sim);
        wirings.push((shard, wiring.ingress, wiring.tag));
        owned.push((shard, sim));
    }
    done_tx
        .send(WorkerMsg::Built { wirings })
        .expect("main thread is gone");

    // Per-owned-shard export sequence numbers (monotonic for the run's
    // lifetime; merged ingest sorts on (time, src shard, seq)).
    let mut seqs: Vec<u32> = vec![0; owned.len()];
    let mut scratch = Scratch::default();

    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            Cmd::Shutdown => break,
            Cmd::Exec { shard, f, reply } => {
                let sim = owned
                    .iter_mut()
                    .find(|(i, _)| *i == shard)
                    .map(|(_, s)| s)
                    .expect("exec routed to the wrong worker");
                let result = catch_unwind(AssertUnwindSafe(|| f(sim)));
                let _ = reply.send(result.map_err(panic_message));
            }
            Cmd::Run { target_us } => {
                // Meter the whole run on this thread: with
                // `comma-rt/alloc-stats` the steady-state window loop is
                // asserted allocation-free, so anything counted here is
                // warm-up (first-run capacity growth) or node-level churn.
                let scope = comma_rt::alloc::AllocScope::begin();
                let mut report = run_rounds(
                    worker,
                    target_us,
                    lookahead_us,
                    state,
                    &mut owned,
                    &mut seqs,
                    &mut scratch,
                );
                report.allocs = scope.delta().allocs;
                done_tx
                    .send(WorkerMsg::RunDone { report })
                    .expect("main thread is gone");
            }
        }
    }
}

/// Drains every lane feeding `shard` into its simulator, oldest first, in
/// the deterministic `(time, src shard, seq)` merge order. Lanes are
/// per-source and `(time, seq)`-sorted, so a k-way front merge reproduces
/// the old global sort exactly — without allocating: each lane is reversed
/// in place and consumed back-to-front with `pop`, which retains capacity.
fn ingest_lanes(
    shard: usize,
    sim: &mut Simulator,
    state: &SyncState,
    heads: &mut Vec<usize>,
    report: &mut RunReport,
) {
    let route = state.route.get().expect("routes wired before first run");
    let lanes_in = &state.in_lanes[shard];
    if let [lane] = lanes_in[..] {
        // Single feeding lane: its (time, seq) order IS the merge order.
        // SAFETY: read phase — this worker owns destination `shard`; see
        // the `Lane` phase discipline.
        let buf = unsafe { &mut *state.lanes[lane].buf.get() };
        if buf.is_empty() {
            return;
        }
        report.max_batch_depth = report.max_batch_depth.max(buf.len() as u64);
        for m in buf.drain(..) {
            let (_, ch, _, _) = route[m.boundary as usize];
            sim.inject_boundary(ChannelId(ch), SimTime::from_micros(m.time), m.pkt);
        }
        return;
    }
    heads.clear();
    let mut depth = 0u64;
    for &lane in lanes_in {
        // SAFETY: read phase (as above).
        let buf = unsafe { &mut *state.lanes[lane].buf.get() };
        if !buf.is_empty() {
            depth += buf.len() as u64;
            // Consume smallest-first via pop() below.
            buf.reverse();
            heads.push(lane);
        }
    }
    if heads.is_empty() {
        return;
    }
    report.max_batch_depth = report.max_batch_depth.max(depth);
    while !heads.is_empty() {
        let mut best = 0usize;
        let mut best_key = {
            // SAFETY: read phase (as above); `heads` only holds non-empty
            // lanes.
            let m = unsafe { &*state.lanes[heads[0]].buf.get() }.last().unwrap();
            (m.time, m.src_shard, m.seq)
        };
        for (i, &lane) in heads.iter().enumerate().skip(1) {
            // SAFETY: read phase (as above).
            let m = unsafe { &*state.lanes[lane].buf.get() }.last().unwrap();
            let key = (m.time, m.src_shard, m.seq);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        // SAFETY: read phase (as above).
        let buf = unsafe { &mut *state.lanes[heads[best]].buf.get() };
        let m = buf.pop().unwrap();
        if buf.is_empty() {
            heads.swap_remove(best);
        }
        let (_, ch, _, _) = route[m.boundary as usize];
        sim.inject_boundary(ChannelId(ch), SimTime::from_micros(m.time), m.pkt);
    }
}

/// One `run_until` on one worker: conservative lookahead rounds until the
/// global minimum next-event time passes `target_us`.
fn run_rounds(
    worker: usize,
    target_us: u64,
    lookahead_us: u64,
    state: &SyncState,
    owned: &mut [(usize, Simulator)],
    seqs: &mut [u32],
    scratch: &mut Scratch,
) -> RunReport {
    let route = state.route.get().expect("routes wired before first run");
    let mut report = RunReport::default();
    let mut waited = std::time::Duration::ZERO;
    for (_, sim) in owned.iter_mut() {
        sim.start();
    }
    loop {
        // Phase 1: ingest last round's transfers (the lanes' read phase),
        // then publish this worker's minimum next-event time.
        let mut local_min = u64::MAX;
        for (shard, sim) in owned.iter_mut() {
            ingest_lanes(*shard, sim, state, &mut scratch.heads, &mut report);
            if let Some(t) = sim.next_event_time() {
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
            for (_, sim) in owned.iter_mut() {
                sim.run_until(SimTime::from_micros(target_us));
            }
            break;
        }
        report.windows += 1;

        // Phase 3: execute the window [global_min, end) in parallel and
        // append boundary crossings to their lanes (the write phase) for
        // next round's ingest.
        for (pos, (shard, sim)) in owned.iter_mut().enumerate() {
            sim.run_until(SimTime::from_micros(end - 1));
            sim.drain_outbox(&mut scratch.outbox);
            for (boundary, at, pkt) in scratch.outbox.drain(..) {
                let at_us = at.as_micros();
                assert!(
                    at_us >= end,
                    "lookahead violation: shard {shard} exported a packet on \
                     boundary {boundary} arriving at {at_us} µs, inside the \
                     current window (end {end} µs); boundary-link latency \
                     must be at least the declared lookahead ({lookahead_us} µs)"
                );
                let seq = seqs[pos];
                seqs[pos] = seq.wrapping_add(1);
                let (_, _, declared_src, lane) = route[boundary as usize];
                debug_assert_eq!(
                    declared_src, *shard,
                    "boundary {boundary} egress created in shard {shard}, declared src {declared_src}"
                );
                // SAFETY: write phase — this worker owns source shard
                // `shard`, and each lane has exactly one source shard; see
                // the `Lane` phase discipline.
                let buf = unsafe { &mut *state.lanes[lane].buf.get() };
                if buf.is_empty() {
                    scratch.touched.push(lane);
                }
                buf.push(XferMsg {
                    time: at_us,
                    src_shard: *shard as u32,
                    seq,
                    boundary,
                    pkt,
                });
                report.xfer_pkts += 1;
            }
        }
        // Outbox drains in send order, so lanes come out (time, seq)-
        // sorted already — except under fault injection, whose extra
        // per-packet delay makes arrival times non-monotonic. Check (one
        // linear pass over what this window appended) and only then sort.
        for &lane in &scratch.touched {
            report.xfer_batches += 1;
            // SAFETY: write phase (as above).
            let buf = unsafe { &mut *state.lanes[lane].buf.get() };
            let sorted = buf
                .windows(2)
                .all(|w| (w[0].time, w[0].seq) <= (w[1].time, w[1].seq));
            if !sorted {
                buf.sort_unstable_by_key(|m| (m.time, m.seq));
            }
        }
        scratch.touched.clear();

        // Phase 4: everyone finished the window (and its exports) before
        // anyone ingests the next round — the write→read phase flip.
        let t0 = Instant::now();
        state.barrier.wait();
        waited += t0.elapsed();
    }
    report.events = owned.iter().map(|(_, sim)| sim.events_processed()).sum();
    report.barrier_wait_ns = waited.as_nanos() as u64;
    // Retained lane capacity, attributed to the worker owning each lane's
    // source shard. Reading here is race-free: the STOP round executed no
    // window, so no thread has touched any lane since the final barrier.
    for (lane, &src) in state.lane_src.iter().enumerate() {
        if owned.iter().any(|(s, _)| *s == src) {
            // SAFETY: post-STOP quiescence (above).
            let buf = unsafe { &*state.lanes[lane].buf.get() };
            report.lane_bytes +=
                (buf.capacity() * std::mem::size_of::<XferMsg>()) as u64;
        }
    }
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
    use std::any::Any;

    /// Test node: sends a ping on iface 0 every `period`, counts pings it
    /// receives, and echoes nothing (one-way traffic keeps the arithmetic
    /// simple).
    struct Pinger {
        name: String,
        addr: Ipv4Addr,
        period: SimDuration,
        sent: u64,
        received: u64,
    }

    impl Pinger {
        fn new(name: &str, last_octet: u8, period_ms: u64) -> Self {
            Pinger {
                name: name.to_string(),
                addr: Ipv4Addr::new(10, 0, 0, last_octet),
                period: SimDuration::from_millis(period_ms),
                sent: 0,
                received: 0,
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
            if let IpPayload::Icmp(IcmpMessage::EchoRequest { .. }) = pkt.body {
                self.received += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
            let pkt = Packet::icmp(
                self.addr,
                self.addr,
                IcmpMessage::EchoRequest {
                    id: 0,
                    seq: (self.sent & 0xffff) as u16,
                    payload: Bytes::from_static(&[0u8; 32]),
                },
            );
            ctx.send(IfaceId(0), pkt);
            self.sent += 1;
            ctx.set_timer_after(self.period, 0);
        }
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Two shards, one node each, linked by a 10 ms wired boundary in both
    /// directions; traffic flows both ways across it.
    fn two_shard_plan(seed: u64) -> ShardPlan {
        let mut plan = ShardPlan::new(seed, SimDuration::from_millis(10));
        let wired = || LinkParams::wired().with_latency(SimDuration::from_millis(10));
        let s0 = plan.add_shard(move |sim| {
            let a = sim.add_node_keyed(Box::new(Pinger::new("alpha", 1, 7)), 100);
            // Boundary ids are allocated in declaration order below:
            // 0 = s0→s1, 1 = s1→s0.
            let (_, ing) = sim.connect_boundary(a, 0, wired(), wired(), 500, 0);
            ShardWiring::new().ingress(1, ing)
        });
        let s1 = plan.add_shard(move |sim| {
            let b = sim.add_node_keyed(Box::new(Pinger::new("beta", 2, 11)), 101);
            let (_, ing) = sim.connect_boundary(b, 1, wired(), wired(), 500, 1);
            ShardWiring::new().ingress(0, ing)
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
            ShardWiring::new()
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
    fn u64_decimal_matches_to_string() {
        let mut buf = [0u8; 20];
        for v in [0u64, 1, 9, 10, 99, 12_345, u64::MAX] {
            assert_eq!(u64_decimal(v, &mut buf), v.to_string().as_bytes());
        }
    }

    #[test]
    fn merge_sorted_traces_equals_concat_and_sort() {
        let shards = vec![
            vec![(1, "b".to_string()), (1, "c".to_string()), (5, "a".to_string())],
            vec![(1, "a".to_string()), (4, "z".to_string())],
            vec![],
            vec![(0, "x".to_string()), (5, "a".to_string())],
        ];
        let mut expect: Vec<(u64, String)> = shards.iter().flatten().cloned().collect();
        expect.sort();
        assert_eq!(merge_sorted_traces(shards), expect);
    }

    #[test]
    fn run_until_is_resumable_in_segments() {
        let mut whole = ShardedSimulator::new(two_shard_plan(7), 2);
        whole.run_until(SimTime::from_secs(1));
        let mut segmented = ShardedSimulator::new(two_shard_plan(7), 2);
        for ms in [50u64, 400, 730, 1000] {
            segmented.run_until(SimTime::from_millis(ms));
        }
        let counts = |s: &mut ShardedSimulator| {
            let a = s.with_shard(0, |sim| sim.with_node::<Pinger, _>(NodeId(0), |p| (p.sent, p.received)));
            let b = s.with_shard(1, |sim| sim.with_node::<Pinger, _>(NodeId(0), |p| (p.sent, p.received)));
            (a, b)
        };
        assert_eq!(counts(&mut whole), counts(&mut segmented));
    }

    #[test]
    fn worker_panic_propagates_with_message() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut plan = ShardPlan::new(1, SimDuration::from_millis(1));
            plan.add_shard(|sim| {
                sim.at(SimTime::from_millis(5), |_| panic!("boom in shard"));
                ShardWiring::new()
            });
            plan.add_shard(|_| ShardWiring::new());
            let mut s = ShardedSimulator::new(plan, 2);
            s.run_until(SimTime::from_secs(1));
        }));
        let msg = panic_message(result.expect_err("must propagate"));
        assert!(msg.contains("boom in shard"), "got: {msg}");
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
