//! Partition-aware topology builder: declarative wireless *cells* compiled
//! onto the sharded parallel runner.
//!
//! [`TopologyBuilder`] describes a deployment as a set of named
//! [`CellSpec`]s — each a wireless cell in the thesis's sense: a Service
//! Proxy at the wired/wireless boundary, a mobile host behind the wireless
//! link, and a wired correspondent host reached over the wired backbone.
//! [`TopologyBuilder::build`] validates the description (typed
//! [`TopologyError`]s, not panics) and compiles it onto a
//! [`ShardedSimulator`]: one shard per cell (proxy + mobile) plus one or
//! more backbone shards holding the wired hosts (round-robin under
//! [`TopologyBuilder::backbone_shards`]), connected by wired-only
//! boundary links whose latency bounds the runner's conservative
//! lookahead.
//!
//! The same description compiled with [`TopologyBuilder::single_shard`]
//! produces the whole topology inside one shard. Because every RNG stream
//! is keyed by `(world seed, entity key)` rather than by insertion order,
//! the two compilations move byte-identical traffic — the golden-digest
//! tests pin this.

use comma_eem::MetricsHub;
use comma_faultcheck::{FaultPlan, Oracle, OracleConfig, OracleReport};
use comma_filters::standard_catalog;
use comma_netsim::addr::{Ipv4Addr, Subnet};
use comma_netsim::fluid::{FluidConfig, FluidTotals};
use comma_netsim::link::{ChannelId, LinkKind, LinkParams};
use comma_netsim::node::{IfaceId, NodeId};
use comma_netsim::shard::{BoundaryId, ShardPlan, ShardStats, ShardWiring, ShardedSimulator};
use comma_netsim::sim::Simulator;
use comma_netsim::time::{SimDuration, SimTime};
use comma_proxy::engine::FilterEngine;
use comma_proxy::ServiceProxy;
use comma_tcp::apps::{BulkSender, Sink};
use comma_tcp::host::{AppId, Host};
use comma_tcp::TcpConfig;

use crate::metrics::HubMetrics;
use crate::topology::{assert_report_clean, finish_oracle, push_editmap_violations, sweep_proxy};

/// One wireless cell: a wired correspondent host, the cell's Service
/// Proxy, and a mobile host, with per-cell link parameters, transfers,
/// filter registrations, and an optional fault plan.
#[derive(Clone)]
pub struct CellSpec {
    name: String,
    wireless_down: LinkParams,
    wireless_up: LinkParams,
    tcp_cfg: TcpConfig,
    /// `(mobile port, bytes)` bulk transfers, wired → mobile.
    transfers: Vec<(u16, u64)>,
    /// SP console commands run at build time; `{wired}`, `{proxy}` and
    /// `{mobile}` expand to the cell's addresses.
    filters: Vec<String>,
    fault_plan: Option<FaultPlan>,
    /// Fluid background population on the wireless downlink (the
    /// direction bulk data and the thesis's proxy machinery care about).
    background: Option<FluidConfig>,
}

impl CellSpec {
    /// A cell with default wireless/TCP parameters and no traffic.
    pub fn new(name: impl Into<String>) -> Self {
        CellSpec {
            name: name.into(),
            wireless_down: LinkParams::wireless(),
            wireless_up: LinkParams::wireless(),
            tcp_cfg: TcpConfig::default(),
            transfers: Vec::new(),
            filters: Vec::new(),
            fault_plan: None,
            background: None,
        }
    }

    /// Sets both wireless directions.
    pub fn wireless(mut self, down: LinkParams, up: LinkParams) -> Self {
        self.wireless_down = down;
        self.wireless_up = up;
        self
    }

    /// Sets the TCP configuration for both of the cell's hosts.
    pub fn tcp(mut self, cfg: TcpConfig) -> Self {
        self.tcp_cfg = cfg;
        self
    }

    /// Adds a bulk transfer: a [`BulkSender`] on the wired host streaming
    /// `bytes` to a [`Sink`] on the mobile at `port`.
    pub fn transfer(mut self, port: u16, bytes: u64) -> Self {
        self.transfers.push((port, bytes));
        self
    }

    /// Queues an SP console command to run against the cell's proxy at
    /// build time. `{wired}`, `{proxy}` and `{mobile}` expand to the
    /// cell's addresses.
    pub fn filter(mut self, cmd: impl Into<String>) -> Self {
        self.filters.push(cmd.into());
        self
    }

    /// Applies a fault plan to the cell's wireless link (both directions).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Puts `n` fluid background users (default [`FluidConfig`]) on the
    /// cell's wireless downlink. Their aggregate load costs O(rate-change
    /// epochs), not O(packets), so metro-scale populations fit in the
    /// event budget; foreground traffic sees the residual bandwidth and
    /// shared queue they leave behind.
    pub fn background_users(self, n: usize) -> Self {
        self.background(FluidConfig::users(n))
    }

    /// Puts a fully configured fluid background population on the cell's
    /// wireless downlink.
    pub fn background(mut self, cfg: FluidConfig) -> Self {
        self.background = Some(cfg);
        self
    }
}

/// Why a topology description failed to compile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The builder has no cells.
    NoCells,
    /// Two cells share a name (names key traces and lookups).
    DuplicateCell(String),
    /// The backbone link — the only inter-shard edge — must be wired.
    WirelessBoundary,
    /// Conservative lookahead must be positive, so the backbone link needs
    /// a non-zero latency.
    ZeroLookahead,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NoCells => write!(f, "topology has no cells"),
            TopologyError::DuplicateCell(name) => {
                write!(f, "duplicate cell name {name:?}")
            }
            TopologyError::WirelessBoundary => {
                write!(f, "backbone (inter-shard) links must be wired")
            }
            TopologyError::ZeroLookahead => {
                write!(f, "backbone latency must be positive: it bounds the lookahead")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Declarative builder for multi-cell topologies on the sharded runner.
pub struct TopologyBuilder {
    seed: u64,
    cells: Vec<CellSpec>,
    backbone: LinkParams,
    workers: usize,
    single: bool,
    backbone_shards: usize,
    record_series: bool,
}

impl TopologyBuilder {
    /// A builder with default (wired) backbone parameters and no cells.
    pub fn new(seed: u64) -> Self {
        TopologyBuilder {
            seed,
            cells: Vec::new(),
            backbone: LinkParams::wired(),
            workers: 1,
            single: false,
            backbone_shards: 1,
            record_series: true,
        }
    }

    /// Adds a cell.
    pub fn cell(mut self, spec: CellSpec) -> Self {
        self.cells.push(spec);
        self
    }

    /// Sets the backbone link parameters (each cell's wired host ↔ its
    /// proxy; the only inter-shard edges). Must be wired; its latency is
    /// the conservative lookahead.
    pub fn backbone(mut self, params: LinkParams) -> Self {
        self.backbone = params;
        self
    }

    /// Sets the worker-thread count (default 1). Results never depend on
    /// this.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Escape hatch: compile the whole topology into one shard (one plain
    /// `Simulator`), exactly as a non-partitioned build would. Golden
    /// tests pin that this moves byte-identical traffic to the
    /// partitioned build.
    pub fn single_shard(mut self) -> Self {
        self.single = true;
        self
    }

    /// Splits the wired backbone across `n` shards (clamped to the cell
    /// count): cell `i`'s wired host lands in backbone shard `i % n`.
    /// Defaults to 1. A single backbone shard serializes every cell's
    /// wired-side work through one simulator, which caps parallel speedup
    /// at roughly 2× no matter the worker count; splitting it restores
    /// per-worker scaling. Results are partition-invariant either way
    /// (golden-digest tests pin single vs split backbones). Ignored by
    /// [`TopologyBuilder::single_shard`] builds.
    pub fn backbone_shards(mut self, n: usize) -> Self {
        self.backbone_shards = n.max(1);
        self
    }

    /// Enables or disables per-channel rate-series recording (default
    /// on). Benchmarks turn it off: an unread series otherwise grows
    /// sample storage on every delivery, which the allocation-accounting
    /// harness would (correctly) flag.
    pub fn record_series(mut self, on: bool) -> Self {
        self.record_series = on;
        self
    }

    /// Validates the description and builds the world.
    pub fn build(self) -> Result<ShardedWorld, TopologyError> {
        if self.cells.is_empty() {
            return Err(TopologyError::NoCells);
        }
        let mut names: Vec<&str> = self.cells.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(TopologyError::DuplicateCell(w[0].to_string()));
        }
        if self.backbone.kind != LinkKind::Wired {
            return Err(TopologyError::WirelessBoundary);
        }
        let lookahead = self.backbone.latency;
        if lookahead == SimDuration::ZERO {
            return Err(TopologyError::ZeroLookahead);
        }

        let fault_reorders = self
            .cells
            .iter()
            .any(|c| c.fault_plan.as_ref().is_some_and(|p| p.perturbs_delivery_order()));

        let mut plan = ShardPlan::new(self.seed, lookahead);
        let n_cells = self.cells.len();
        let backbone = &self.backbone;

        let cells: Vec<CellHandle> = if self.single {
            let (_, handles) = plan.add_shard(|sim| {
                let handles = self.cells.iter().enumerate().map(|(i, spec)| {
                    // The wired host goes in first so NodeId order matches
                    // the backbone variant's dispatch order.
                    let wired = build_wired_host(sim, i, spec);
                    let (handle, _) = build_cell(sim, i, spec, 0, (0, wired), |sim, sp| {
                        let link = cell_keys(i).wired_link;
                        sim.connect_keyed(wired, sp, backbone.clone(), backbone.clone(), link)
                    });
                    handle
                });
                (ShardWiring::new(), handles.collect())
            });
            handles
        } else {
            // Shards 0..B: the wired backbone, split round-robin (cell
            // i's wired host in backbone shard i % B). Shards B..B+n:
            // one per cell. Boundary ids: cell i uses 2i (backbone →
            // cell) and 2i+1 (cell → backbone), independent of the split.
            let b_count = self.backbone_shards.clamp(1, n_cells);
            // `cell → (backbone shard, wired host)`, filled as the
            // backbone shards are built.
            let mut wired = vec![(0, NodeId(0)); n_cells];
            for b in 0..b_count {
                let (shard, ()) = plan.add_shard(|sim| {
                    let mut wiring = ShardWiring::new();
                    for (i, spec) in self.cells.iter().enumerate().skip(b).step_by(b_count) {
                        let host = build_wired_host(sim, i, spec);
                        // Egress = wired → cell proxy: direction salt 0,
                        // like connect_keyed's a→b stream when `a` is the
                        // wired host.
                        let (_, ingress) = sim.connect_boundary(
                            host,
                            down_boundary(i),
                            backbone.clone(),
                            backbone.clone(),
                            cell_keys(i).wired_link,
                            0,
                        );
                        wiring = wiring.ingress(up_boundary(i), ingress);
                        wired[i] = (b, host);
                    }
                    (wiring, ())
                });
                debug_assert_eq!(shard, b);
            }
            let cell_shards = self.cells.iter().enumerate().map(|(i, spec)| {
                let shard = plan.shard_count();
                let (_, handle) = plan.add_shard(|sim| {
                    // Egress = proxy → backbone: direction salt 1 (the
                    // b→a stream of the same keyed link).
                    let (handle, (_, ingress)) =
                        build_cell(sim, i, spec, shard, wired[i], |sim, sp| {
                            let link = cell_keys(i).wired_link;
                            let (up, down) = (backbone.clone(), backbone.clone());
                            sim.connect_boundary(sp, up_boundary(i), up, down, link, 1)
                        });
                    (ShardWiring::new().ingress(down_boundary(i), ingress), handle)
                });
                plan.declare_boundary(wired[i].0, shard);
                plan.declare_boundary(shard, wired[i].0);
                handle
            });
            cell_shards.collect()
        };
        let mut runner = ShardedSimulator::new(plan, self.workers);
        if !self.record_series {
            runner.set_record_series(false);
        }
        Ok(ShardedWorld {
            runner,
            cells,
            names: self.cells.into_iter().map(|c| c.name).collect(),
            fault_reorders,
        })
    }
}

/// Boundary-id helpers: cell `i` receives on `2i`, sends on `2i+1`.
fn down_boundary(cell: usize) -> BoundaryId {
    (cell * 2) as BoundaryId
}

fn up_boundary(cell: usize) -> BoundaryId {
    (cell * 2 + 1) as BoundaryId
}

/// Stable entity keys for cell `i`: every RNG stream in the topology is
/// derived from `(world seed, one of these)`, which is what makes the
/// single-shard and partitioned builds byte-identical.
fn cell_keys(cell: usize) -> CellKeys {
    let base = (cell as u64) * 16;
    CellKeys {
        wired_node: base,
        proxy_node: base + 1,
        mobile_node: base + 2,
        wired_link: base + 8,
        wireless_link: base + 9,
        fluid: base + 10,
    }
}

struct CellKeys {
    wired_node: u64,
    proxy_node: u64,
    mobile_node: u64,
    wired_link: u64,
    wireless_link: u64,
    fluid: u64,
}

/// Per-cell addresses: cell `i` lives in `10.(1 + i/256).(i % 256).0/24`.
fn cell_addrs(cell: usize) -> (Ipv4Addr, Ipv4Addr, Ipv4Addr) {
    let b = (1 + (cell >> 8)) as u8;
    let c = (cell & 0xff) as u8;
    (
        Ipv4Addr::new(10, b, c, 1), // wired host
        Ipv4Addr::new(10, b, c, 2), // proxy
        Ipv4Addr::new(10, b, c, 3), // mobile
    )
}

/// Builds cell `i`'s wired host, with one [`BulkSender`] per transfer, into
/// `sim` — the cell's own shard in a single-shard build, a backbone shard
/// otherwise.
fn build_wired_host(sim: &mut Simulator, cell: usize, spec: &CellSpec) -> NodeId {
    let (wired_addr, _, mobile_addr) = cell_addrs(cell);
    let mut host = Host::new(format!("{}.wired", spec.name), wired_addr);
    host.set_default_config(spec.tcp_cfg.clone());
    for &(port, bytes) in &spec.transfers {
        host.add_app(Box::new(BulkSender::new((mobile_addr, port), bytes as usize)));
    }
    sim.add_node_keyed(Box::new(host), cell_keys(cell).wired_node)
}

/// Builds one cell — proxy, mobile host, wireless link, filters, faults —
/// into `sim`, which is shard `shard`; the cell's wired host already exists
/// as `wired = (shard, node)`. `wire_proxy` attaches the freshly added
/// proxy to it (a local link or a boundary link to the backbone shard);
/// whatever it returns is handed back beside the handle.
fn build_cell<W>(
    sim: &mut Simulator,
    cell: usize,
    spec: &CellSpec,
    shard: usize,
    wired: (usize, NodeId),
    wire_proxy: impl FnOnce(&mut Simulator, NodeId) -> W,
) -> (CellHandle, W) {
    let keys = cell_keys(cell);
    let (wired_addr, proxy_addr, mobile_addr) = cell_addrs(cell);

    // The proxy: iface 0 toward the wired side, iface 1 wireless.
    let mut table = comma_netsim::routing::RoutingTable::new();
    table.add(Subnet::host(wired_addr), IfaceId(0));
    table.add_default(IfaceId(1));
    let hub = MetricsHub::shared();
    let mut sp = ServiceProxy::new(
        format!("{}.sp", spec.name),
        vec![proxy_addr],
        table,
        FilterEngine::new(standard_catalog(comma_filters::ALL_FILTERS)),
        sim.seed() ^ keys.proxy_node,
    );
    sp.set_metrics(Box::new(HubMetrics::new(hub, "sp")));
    sp.set_obs(sim.obs.clone());
    let sp_id = sim.add_node_keyed(Box::new(sp), keys.proxy_node);

    // Wired side first, so the proxy's iface 0 is the wired-facing one in
    // both build modes.
    let wired_link = wire_proxy(sim, sp_id);

    let mut mobile = Host::new(format!("{}.mobile", spec.name), mobile_addr);
    mobile.set_default_config(spec.tcp_cfg.clone());
    let sinks: Vec<AppId> = spec
        .transfers
        .iter()
        .map(|&(port, _)| mobile.add_app(Box::new(Sink::new(port))))
        .collect();
    let mobile_id = sim.add_node_keyed(Box::new(mobile), keys.mobile_node);

    let wireless = sim.connect_keyed(
        sp_id,
        mobile_id,
        spec.wireless_down.clone(),
        spec.wireless_up.clone(),
        keys.wireless_link,
    );

    if let Some(cfg) = &spec.background {
        sim.attach_fluid(wireless.0, cfg.clone(), keys.fluid);
    }

    for cmd in &spec.filters {
        let line = cmd
            .replace("{wired}", &wired_addr.to_string())
            .replace("{proxy}", &proxy_addr.to_string())
            .replace("{mobile}", &mobile_addr.to_string());
        let now = sim.now();
        sim.with_node::<ServiceProxy, _>(sp_id, move |sp| sp.exec(now, &line));
    }

    if let Some(plan) = &spec.fault_plan {
        // Keyed like the link itself, not by the shard-local channel ids,
        // so a plan draws the same stream for this cell in any partitioning
        // and a different one for every other cell.
        let key = 2 * keys.wireless_link;
        plan.apply(sim, &[(wireless.0, key), (wireless.1, key + 1)]);
    }

    let handle = CellHandle {
        shard,
        wired_shard: wired.0,
        wired: wired.1,
        sp: sp_id,
        mobile: mobile_id,
        sinks,
        wireless,
    };
    (handle, wired_link)
}

/// One built cell's handles.
struct CellHandle {
    shard: usize,
    wired_shard: usize,
    wired: NodeId,
    sp: NodeId,
    mobile: NodeId,
    sinks: Vec<AppId>,
    wireless: (ChannelId, ChannelId),
}

/// A multi-cell deployment running on the sharded runner.
pub struct ShardedWorld {
    /// The underlying sharded runner (shard gauges live on `runner.obs`).
    pub runner: ShardedSimulator,
    cells: Vec<CellHandle>,
    names: Vec<String>,
    fault_reorders: bool,
}

impl ShardedWorld {
    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The cell's name.
    pub fn cell_name(&self, cell: usize) -> &str {
        &self.names[cell]
    }

    /// Advances every shard to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.runner.run_until(t);
    }

    /// Global simulated time.
    pub fn now(&self) -> SimTime {
        self.runner.now()
    }

    /// Runner statistics (windows, cross-shard transfers, barrier waits).
    pub fn stats(&self) -> ShardStats {
        self.runner.stats()
    }

    /// Fluid background-model totals summed over every shard (links,
    /// users, active flows, solver epochs), each link caught up through
    /// now first ([`Simulator::fluid_totals`]).
    pub fn fluid_totals(&mut self) -> FluidTotals {
        let mut total = FluidTotals::default();
        for shard in 0..self.runner.shard_count() {
            total.merge(self.runner.with_shard(shard, |sim| sim.fluid_totals()));
        }
        total
    }

    /// Packets offered to links, summed over every shard (see
    /// [`comma_netsim::sim::Simulator::link_pkts`]).
    pub fn link_pkts(&mut self) -> u64 {
        (0..self.runner.shard_count())
            .map(|shard| self.runner.with_shard(shard, |sim| sim.link_pkts()))
            .sum()
    }

    /// Executes an SP console command on a cell's proxy.
    pub fn sp(&mut self, cell: usize, line: &str) -> String {
        let h = &self.cells[cell];
        let now = self.runner.now();
        self.runner
            .with_shard(h.shard, |sim| sim.with_node::<ServiceProxy, _>(h.sp, |p| p.exec(now, line)))
    }

    /// Bytes received by one cell's sinks, in transfer order.
    pub fn delivered_bytes(&mut self, cell: usize) -> Vec<u64> {
        let h = &self.cells[cell];
        self.runner.with_shard(h.shard, |sim| {
            sim.with_node::<Host, _>(h.mobile, |host| {
                h.sinks
                    .iter()
                    .map(|&s| host.app_mut::<Sink>(s).bytes_received as u64)
                    .collect()
            })
        })
    }

    /// Total bytes received by every sink in the world.
    pub fn total_delivered(&mut self) -> u64 {
        (0..self.cell_count())
            .map(|c| self.delivered_bytes(c).iter().sum::<u64>())
            .sum()
    }

    /// FNV-1a digest over `(cell, sink, bytes received)` for every sink —
    /// the cheap workload-level determinism check.
    pub fn delivered_digest(&mut self) -> u64 {
        let mut digest = comma_rt::digest::Fnv1a::new();
        for cell in 0..self.cell_count() {
            for (i, bytes) in self.delivered_bytes(cell).iter().enumerate() {
                digest.update((cell as u64).to_le_bytes());
                digest.update((i as u64).to_le_bytes());
                digest.update(bytes.to_le_bytes());
            }
        }
        digest.finish()
    }

    /// Enables full packet-trace capture on every shard (`max_entries`
    /// per shard).
    pub fn set_trace_capture(&mut self, on: bool, max_entries: usize) {
        self.runner.set_trace_capture(on, max_entries);
    }

    /// Canonical merged trace digest (see
    /// [`ShardedSimulator::merged_trace_digest`]); byte-identical across
    /// worker counts *and* across single-shard vs partitioned builds.
    pub fn trace_digest(&mut self) -> u64 {
        self.runner.merged_trace_digest()
    }

    /// Schedules a wireless up/down change for one cell at `t`
    /// (disconnection scenarios). `t` must be at or after the current
    /// time.
    pub fn set_wireless_up_at(&mut self, cell: usize, t: SimTime, up: bool) {
        let h = &self.cells[cell];
        let (d, u) = h.wireless;
        self.runner.with_shard(h.shard, |sim| {
            sim.at(t, move |sim| {
                sim.channel_mut(d).params.up = up;
                sim.channel_mut(u).params.up = up;
            });
        });
    }

    /// Typed access to a cell's mobile-host application.
    pub fn mobile_app<T: 'static, R>(
        &mut self,
        cell: usize,
        app: AppId,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let h = &self.cells[cell];
        self.runner.with_shard(h.shard, |sim| {
            sim.with_node::<Host, _>(h.mobile, |host| f(host.app_mut::<T>(app)))
        })
    }

    /// The sink app ids of a cell, in transfer order.
    pub fn sink_ids(&self, cell: usize) -> Vec<AppId> {
        self.cells[cell].sinks.clone()
    }

    /// Installs the TCP conformance oracle on every shard, each watching
    /// the true TCP endpoints it hosts (wired hosts on the backbone
    /// shard, mobiles on cell shards). Per-endpoint invariants (V1–V5)
    /// are checked everywhere; the cross-endpoint strict checks (V7/V8)
    /// additionally require both endpoints in the same shard, so they
    /// only apply to [`TopologyBuilder::single_shard`] builds with no
    /// transforming services.
    pub fn attach_oracle(&mut self) {
        let reorders = self.fault_reorders;
        // Group endpoints by shard: single-shard builds put everything in
        // one oracle (full strict semantics), partitioned builds get one
        // oracle per shard, told its endpoints' peers live elsewhere.
        let mut by_shard = std::collections::BTreeMap::<usize, OracleConfig>::new();
        let empty = || OracleConfig::new(Vec::new());
        for (cell, h) in self.cells.iter().enumerate() {
            let (wired_addr, _, mobile_addr) = cell_addrs(cell);
            let backbone = by_shard.entry(h.wired_shard).or_insert_with(empty);
            backbone.endpoints.push((h.wired, wired_addr));
            if h.shard != h.wired_shard {
                backbone.remote_endpoints.push(mobile_addr);
            }
            let cell = by_shard.entry(h.shard).or_insert_with(empty);
            cell.endpoints.push((h.mobile, mobile_addr));
            if h.shard != h.wired_shard {
                cell.remote_endpoints.push(wired_addr);
            }
        }
        for (shard, mut cfg) in by_shard {
            cfg.allow_reordered_delivery = reorders;
            self.runner
                .with_shard(shard, |sim| sim.set_packet_observer(Box::new(Oracle::new(cfg))));
        }
    }

    /// Finalizes every shard's oracle through the one lifecycle
    /// (`sweep_proxy` per cell proxy, `finish_oracle` per shard) and
    /// merges the reports. `flows` sums per-oracle views, so a flow whose
    /// ends live in different shards counts once from each end.
    ///
    /// # Panics
    ///
    /// Panics if [`ShardedWorld::attach_oracle`] was not called.
    pub fn oracle_report(&mut self) -> OracleReport {
        let mut transformed = false;
        let mut editmap_errs: Vec<String> = Vec::new();
        for (cell, h) in self.cells.iter().enumerate() {
            let label = format!("{}.sp", self.names[cell]);
            let (rewrites, errs) = self
                .runner
                .with_shard(h.shard, |sim| sweep_proxy(sim, h.sp, &label));
            transformed |= rewrites;
            editmap_errs.extend(errs);
        }
        let mut shards: Vec<usize> = self
            .cells
            .iter()
            .flat_map(|h| [h.shard, h.wired_shard])
            .collect();
        shards.sort_unstable();
        shards.dedup();
        // Strict mode needs both endpoints visible to one oracle (only
        // true in single-shard builds) and no transforming services.
        let strict = shards.len() == 1 && !transformed;

        let mut merged = OracleReport::default();
        for shard in shards {
            merged.merge(self.runner.with_shard(shard, |sim| finish_oracle(sim, strict)));
        }
        push_editmap_violations(&mut merged, self.runner.now(), editmap_errs);
        merged
    }

    /// [`ShardedWorld::oracle_report`], asserting the run was clean.
    ///
    /// # Panics
    ///
    /// Panics with every retained violation if any oracle found one.
    pub fn assert_oracle_clean(&mut self) {
        assert_report_clean(&self.oracle_report());
    }
}
