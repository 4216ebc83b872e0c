//! The Service Proxy node: a router with the filtering engine inserted into
//! its forwarding path (Fig 5.1), placed at the wired/wireless bottleneck.

use std::sync::Arc;

use comma_netsim::addr::Ipv4Addr;
use comma_netsim::node::{IfaceId, Node, NodeCtx};
use comma_netsim::packet::Packet;
use comma_netsim::routing::{forward_step, RoutingTable};
use comma_netsim::time::SimTime;
use comma_netsim::trace::DropReason;
use comma_rt::SmallRng;
use comma_rt::SeedableRng;

use crate::command;
use crate::engine::FilterEngine;
use crate::filter::{MetricsSource, NullMetrics};

/// The Comma Service Proxy (SP).
///
/// Every packet routed through the node passes the packet-interception
/// module and the filter queues before re-injection onto the network. The
/// SP command interface (§5.3) is exposed via [`ServiceProxy::exec`].
pub struct ServiceProxy {
    /// Shared with snapshots (a name never changes).
    name: Arc<str>,
    addrs: Vec<Ipv4Addr>,
    /// Forwarding table.
    pub table: RoutingTable,
    /// The filtering engine.
    pub engine: FilterEngine,
    /// Read-only to the proxy, so shared with snapshots.
    metrics: Arc<dyn MetricsSource>,
    rng: SmallRng,
    /// Packets forwarded (post-filtering).
    pub forwarded: u64,
    /// Packets dropped by filters.
    pub filtered_out: u64,
    /// Reusable [`FilterEngine::process_batch`] buffers (capacity persists
    /// across packets; steady state allocates nothing).
    input: Vec<Packet>,
    out: Vec<Packet>,
    dropped: Vec<Packet>,
}

impl ServiceProxy {
    /// Creates a proxy with the given routing table and engine; `seed`
    /// drives the deterministic randomness stream used by filters.
    pub fn new(
        name: impl Into<String>,
        addrs: Vec<Ipv4Addr>,
        table: RoutingTable,
        engine: FilterEngine,
        seed: u64,
    ) -> Self {
        ServiceProxy {
            name: Arc::from(name.into()),
            addrs,
            table,
            engine,
            metrics: Arc::new(NullMetrics),
            rng: SmallRng::seed_from_u64(seed ^ 0x5350_5350),
            forwarded: 0,
            filtered_out: 0,
            input: Vec::new(),
            out: Vec::new(),
            dropped: Vec::new(),
        }
    }

    /// Installs an EEM-backed metrics source for adaptive filters.
    pub fn set_metrics(&mut self, metrics: Box<dyn MetricsSource>) {
        self.metrics = Arc::from(metrics);
    }

    /// Shares an observability handle with the filtering engine (typically
    /// the simulator's; see `comma_obs::Obs`).
    pub fn set_obs(&mut self, obs: comma_obs::Obs) {
        self.engine.set_obs(obs);
    }

    /// Executes one SP console command (§5.3.1) and returns its output.
    pub fn exec(&mut self, now: SimTime, line: &str) -> String {
        command::execute(
            &mut self.engine,
            now,
            &mut self.rng,
            self.metrics.as_ref(),
            line,
        )
    }

    fn forward(&mut self, ctx: &mut NodeCtx<'_>, mut pkt: Packet) {
        if let Some(iface) = forward_step(ctx, &self.table, &mut pkt) {
            self.forwarded += 1;
            ctx.send(iface, pkt);
        }
    }

    fn arm_pending_timers(&mut self, ctx: &mut NodeCtx<'_>) {
        for (delay, token) in self.engine.drain_pending_timers() {
            ctx.set_timer_after(delay, token);
        }
    }
}

impl Node for ServiceProxy {
    fn name(&self) -> &str {
        &self.name
    }

    fn addresses(&self) -> Vec<Ipv4Addr> {
        self.addrs.clone()
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, pkt: Packet) {
        if self.addrs.contains(&pkt.ip.dst) {
            return; // Console traffic terminates here.
        }
        // Read only when the engine emits nothing and capture is on.
        let summary = ctx.trace.capturing().then(|| pkt.summary());
        self.input.push(pkt);
        self.engine.process_batch(
            ctx.now,
            &mut self.rng,
            self.metrics.as_ref(),
            &mut self.input,
            &mut self.out,
            &mut self.dropped,
        );
        if !self.dropped.is_empty() {
            self.dropped.clear();
            self.filtered_out += 1;
            if let Some(summary) = summary {
                ctx.trace.drop_pkt(ctx.now, ctx.node, DropReason::Filter, || summary);
            }
        }
        let mut out = std::mem::take(&mut self.out);
        for pkt in out.drain(..) {
            self.forward(ctx, pkt);
        }
        self.out = out;
        self.arm_pending_timers(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let outs = self
            .engine
            .on_timer(ctx.now, &mut self.rng, self.metrics.as_ref(), token);
        for out in outs {
            self.forward(ctx, out);
        }
        self.arm_pending_timers(ctx);
    }

    fn can_clone(&self) -> bool {
        self.engine.can_clone()
    }

    fn clone_node(&self) -> Option<Arc<dyn Node>> {
        Some(Arc::new(ServiceProxy {
            name: self.name.clone(),
            addrs: self.addrs.clone(),
            table: self.table.clone(),
            engine: self.engine.try_clone().ok()?,
            metrics: Arc::clone(&self.metrics),
            rng: self.rng.clone(),
            forwarded: self.forwarded,
            filtered_out: self.filtered_out,
            input: Vec::new(),
            out: Vec::new(),
            dropped: Vec::new(),
        }))
    }

    fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        for w in self.rng.state_words() {
            h.update_u64(w);
        }
        self.engine.state_digest(h);
    }
}
