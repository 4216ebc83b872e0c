//! The standard Comma deployment (Fig 4.1): a wired host, the Service
//! Proxy at the wired/wireless boundary, and a mobile host — with optional
//! EEM instrumentation and a mobile-side stub proxy for double-proxy
//! services (§10.2.4).

use comma_eem::{EemServer, MetricsHub, SharedHub};
use comma_faultcheck::{FaultPlan, Oracle, OracleConfig, OracleReport, Violation};
use comma_filters::{editmap_errors, registered_kinds, standard_catalog, TRANSFORMING};
use comma_netsim::addr::Subnet;
use comma_netsim::link::{ChannelId, LinkParams};
use comma_netsim::node::{IfaceId, NodeId};
use comma_netsim::sim::Simulator;
use comma_netsim::time::{SimDuration, SimTime};
use comma_proxy::engine::FilterEngine;
use comma_proxy::ServiceProxy;
use comma_tcp::apps::App;
use comma_tcp::host::Host;
use comma_tcp::TcpConfig;

use crate::metrics::{install_sampler, HubMetrics, SamplerSpec};

/// Canonical addresses, matching the thesis's examples.
pub mod addrs {
    use comma_netsim::addr::Ipv4Addr;

    /// The wired (fixed) host, `11.11.10.99`.
    pub const WIRED: Ipv4Addr = Ipv4Addr::new(11, 11, 10, 99);
    /// The Service Proxy (`eramosa`'s stand-in), `11.11.10.1`.
    pub const PROXY: Ipv4Addr = Ipv4Addr::new(11, 11, 10, 1);
    /// The mobile-side stub proxy, `11.11.10.2`.
    pub const STUB: Ipv4Addr = Ipv4Addr::new(11, 11, 10, 2);
    /// The mobile host, `11.11.10.10`.
    pub const MOBILE: Ipv4Addr = Ipv4Addr::new(11, 11, 10, 10);
}

/// Builder for the standard topology.
pub struct CommaBuilder {
    seed: u64,
    wired_params: LinkParams,
    wireless_down: LinkParams,
    wireless_up: LinkParams,
    tcp_cfg: TcpConfig,
    double_proxy: bool,
    eem: bool,
    observability: bool,
    sampler_period: SimDuration,
    preload_all: bool,
}

impl CommaBuilder {
    /// Creates a builder with default wired/wireless parameters.
    pub fn new(seed: u64) -> Self {
        CommaBuilder {
            seed,
            wired_params: LinkParams::wired(),
            wireless_down: LinkParams::wireless(),
            wireless_up: LinkParams::wireless(),
            tcp_cfg: TcpConfig::default(),
            double_proxy: false,
            eem: true,
            observability: false,
            sampler_period: SimDuration::from_millis(100),
            preload_all: true,
        }
    }

    /// Sets both wireless directions.
    pub fn wireless(mut self, down: LinkParams, up: LinkParams) -> Self {
        self.wireless_down = down;
        self.wireless_up = up;
        self
    }

    /// Sets the wired link (both directions).
    pub fn wired(mut self, params: LinkParams) -> Self {
        self.wired_params = params;
        self
    }

    /// Sets the TCP configuration for both hosts.
    pub fn tcp(mut self, cfg: TcpConfig) -> Self {
        self.tcp_cfg = cfg;
        self
    }

    /// Adds the mobile-side stub proxy (double-proxy services).
    pub fn double_proxy(mut self, on: bool) -> Self {
        self.double_proxy = on;
        self
    }

    /// Enables or disables EEM servers and the metrics sampler.
    pub fn eem(mut self, on: bool) -> Self {
        self.eem = on;
        self
    }

    /// Enables observability (the `comma-obs` registry and flight recorder)
    /// for the whole world: netsim links, TCP connections, both proxy
    /// engines, and the EEM sampler all record into one shared handle,
    /// available as [`CommaWorld::obs`]. Off by default (zero overhead).
    pub fn observability(mut self, on: bool) -> Self {
        self.observability = on;
        self
    }

    /// Starts the main proxy with an *empty* loaded-filter pool, so a
    /// session must `load` filters explicitly (the Fig 5.3 situation).
    pub fn empty_filter_pool(mut self) -> Self {
        self.preload_all = false;
        self
    }

    /// Builds the world with the given applications installed.
    pub fn build(
        self,
        wired_apps: Vec<Box<dyn App>>,
        mobile_apps: Vec<Box<dyn App>>,
    ) -> CommaWorld {
        let mut sim = Simulator::new(self.seed);
        if self.observability {
            sim.obs.set_enabled(true);
        }
        let obs = sim.obs.clone();
        let hub = MetricsHub::shared();

        // One host constructor for both ends: TCP defaults, the caller's
        // apps in order, then the EEM server.
        let host = |name: &str, addr, apps: Vec<Box<dyn App>>| {
            let mut host = Host::new(name, addr);
            host.set_default_config(self.tcp_cfg.clone());
            let app_ids: Vec<_> = apps.into_iter().map(|app| host.add_app(app)).collect();
            if self.eem {
                host.add_app(Box::new(EemServer::new(name, hub.clone())));
            }
            (Box::new(host), app_ids)
        };
        // Likewise for the proxies; both read the "sp" hub variables.
        let service_proxy = |name: &str, addr, table, filters: &[&str], seed| {
            let engine = FilterEngine::new(standard_catalog(filters));
            let mut sp = ServiceProxy::new(name, vec![addr], table, engine, seed);
            sp.set_metrics(Box::new(HubMetrics::new(hub.clone(), "sp")));
            sp.set_obs(obs.clone());
            Box::new(sp)
        };

        let (wired_host, wired_app_ids) = host("wired", addrs::WIRED, wired_apps);
        let wired = sim.add_node(wired_host);

        // The Service Proxy: iface0 toward the wired side, iface1 wireless.
        let mut table = comma_netsim::routing::RoutingTable::new();
        table.add(Subnet::host(addrs::WIRED), IfaceId(0));
        table.add_default(IfaceId(1));
        let pool: &[&str] = if self.preload_all { comma_filters::ALL_FILTERS } else { &[] };
        let proxy = sim.add_node(service_proxy("sp", addrs::PROXY, table, pool, self.seed));

        let (mobile_host, mobile_app_ids) = host("mobile", addrs::MOBILE, mobile_apps);
        let mobile = sim.add_node(mobile_host);

        sim.connect(
            wired,
            proxy,
            self.wired_params.clone(),
            self.wired_params.clone(),
        );

        let (stub, wireless_ch) = if self.double_proxy {
            // SP ──wireless── stub ──fast local── mobile.
            let mut stub_table = comma_netsim::routing::RoutingTable::new();
            stub_table.add(Subnet::host(addrs::MOBILE), IfaceId(1));
            stub_table.add_default(IfaceId(0));
            let stub_seed = self.seed ^ 0xbeef;
            let all = comma_filters::ALL_FILTERS;
            let stub = sim.add_node(service_proxy("stub", addrs::STUB, stub_table, all, stub_seed));
            let wireless = sim.connect(
                proxy,
                stub,
                self.wireless_down.clone(),
                self.wireless_up.clone(),
            );
            // The mobile hangs off the stub on a fast local hop.
            let local = LinkParams::wired().with_latency(SimDuration::from_micros(100));
            sim.connect(stub, mobile, local.clone(), local);
            (Some(stub), wireless)
        } else {
            let wireless = sim.connect(
                proxy,
                mobile,
                self.wireless_down.clone(),
                self.wireless_up.clone(),
            );
            (None, wireless)
        };

        if self.eem {
            install_sampler(
                &mut sim,
                SamplerSpec {
                    hub: hub.clone(),
                    hosts: vec![(wired, "wired".into()), (mobile, "mobile".into())],
                    wireless: Some((wireless_ch.0, wireless_ch.1, "sp".into())),
                    period: self.sampler_period,
                },
            );
        }

        CommaWorld {
            sim,
            wired,
            proxy,
            stub,
            mobile,
            wireless_ch,
            hub,
            obs,
            wired_app_ids,
            mobile_app_ids,
            fault_reorders: false,
        }
    }
}

/// A built Comma deployment.
pub struct CommaWorld {
    /// The simulator.
    pub sim: Simulator,
    /// The wired host node.
    pub wired: NodeId,
    /// The Service Proxy node.
    pub proxy: NodeId,
    /// The mobile-side stub proxy, when double-proxy is enabled.
    pub stub: Option<NodeId>,
    /// The mobile host node.
    pub mobile: NodeId,
    /// The wireless channels `(toward mobile, toward wired)`.
    pub wireless_ch: (ChannelId, ChannelId),
    /// The shared metrics hub.
    pub hub: SharedHub,
    /// The world's observability handle (shared by the simulator, the
    /// proxies, and the sampler). Disabled unless the builder's
    /// [`CommaBuilder::observability`] was set; may be toggled at runtime.
    pub obs: comma_obs::Obs,
    /// Application ids installed on the wired host, in insertion order.
    pub wired_app_ids: Vec<comma_tcp::host::AppId>,
    /// Application ids installed on the mobile host, in insertion order.
    pub mobile_app_ids: Vec<comma_tcp::host::AppId>,
    /// An applied fault plan reorders/duplicates deliveries (relaxes the
    /// oracle's delivered-ACK monotonicity check).
    fault_reorders: bool,
}

impl CommaWorld {
    /// Executes an SP console command on the main proxy.
    pub fn sp(&mut self, line: &str) -> String {
        let now = self.sim.now();
        self.sim
            .with_node(self.proxy, |sp: &mut ServiceProxy| sp.exec(now, line))
    }

    /// Executes an SP console command on the stub proxy.
    ///
    /// # Panics
    ///
    /// Panics if the world was built without [`CommaBuilder::double_proxy`].
    pub fn stub_sp(&mut self, line: &str) -> String {
        let stub = self.stub.expect("world has no stub proxy");
        let now = self.sim.now();
        self.sim
            .with_node(stub, |sp: &mut ServiceProxy| sp.exec(now, line))
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Typed access to a wired-host application.
    pub fn wired_app<T: 'static, R>(
        &mut self,
        app: comma_tcp::host::AppId,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        self.sim
            .with_node::<Host, _>(self.wired, |h| f(h.app_mut::<T>(app)))
    }

    /// Typed access to a mobile-host application.
    pub fn mobile_app<T: 'static, R>(
        &mut self,
        app: comma_tcp::host::AppId,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        self.sim
            .with_node::<Host, _>(self.mobile, |h| f(h.app_mut::<T>(app)))
    }

    /// Bytes delivered across the wireless downlink so far.
    pub fn wireless_down_bytes(&self) -> u64 {
        self.sim.channel(self.wireless_ch.0).stats.delivered_bytes
    }

    /// Schedules a wireless up/down change at `t`.
    pub fn set_wireless_up_at(&mut self, t: SimTime, up: bool) {
        let (d, u) = self.wireless_ch;
        self.sim.at(t, move |sim| {
            sim.channel_mut(d).params.up = up;
            sim.channel_mut(u).params.up = up;
        });
    }

    /// Applies a [`FaultPlan`] to both directions of the wireless link.
    /// Call before running; the plan's per-packet fault models and churn
    /// script replay identically for one (world seed, plan) pair. Plans
    /// that reorder or duplicate packets automatically relax the oracle's
    /// delivered-ACK monotonicity check (whether the oracle is attached
    /// before or after this call).
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let (d, u) = self.wireless_ch;
        plan.apply(&mut self.sim, &[(d, d.0 as u64), (u, u.0 as u64)]);
        if plan.perturbs_delivery_order() {
            self.fault_reorders = true;
            self.sim
                .with_packet_observer(|o: &mut Oracle| o.set_allow_reordered_delivery(true));
        }
    }

    /// Installs the TCP conformance oracle as the simulator's packet
    /// observer, watching the wired and mobile endpoints. Call before
    /// running; collect with [`CommaWorld::oracle_report`] or assert with
    /// [`CommaWorld::assert_oracle_clean`] after.
    pub fn attach_oracle(&mut self) {
        let mut cfg = OracleConfig::new(vec![
            (self.wired, addrs::WIRED),
            (self.mobile, addrs::MOBILE),
        ]);
        cfg.allow_reordered_delivery = self.fault_reorders;
        let oracle = Oracle::new(cfg).with_obs(self.obs.clone());
        self.sim.set_packet_observer(Box::new(oracle));
    }

    /// Finalizes the oracle through the one lifecycle (`sweep_proxy` per
    /// proxy, then `finish_oracle`) and returns the combined report.
    ///
    /// # Panics
    ///
    /// Panics if no oracle is attached.
    pub fn oracle_report(&mut self) -> OracleReport {
        let mut transformed = false;
        let mut editmap_errs: Vec<String> = Vec::new();
        for (node, label) in [(Some(self.proxy), "sp"), (self.stub, "stub")] {
            let Some(node) = node else { continue };
            let (rewrites, errs) = sweep_proxy(&self.sim, node, label);
            transformed |= rewrites;
            editmap_errs.extend(errs);
        }
        let mut report = finish_oracle(&mut self.sim, !transformed);
        push_editmap_violations(&mut report, self.sim.now(), editmap_errs);
        report
    }

    /// [`CommaWorld::oracle_report`], asserting the run was violation-free.
    ///
    /// # Panics
    ///
    /// Panics with every retained violation if the oracle found any.
    pub fn assert_oracle_clean(&mut self) {
        assert_report_clean(&self.oracle_report());
    }

    /// Wild-card key matching every stream toward the mobile.
    pub fn to_mobile_wild(&self) -> comma_proxy::WildKey {
        comma_proxy::WildKey {
            src: None,
            sport: None,
            dst: Some(addrs::MOBILE),
            dport: None,
        }
    }
}

/// First half of the oracle lifecycle, once per proxy: whether a service
/// that rewrites payload bytes or sequence spaces is registered on `node`
/// (that makes the strict end-to-end identity checks, V7 payload identity
/// and V8 ack provenance, legitimately inapplicable), and the structural
/// errors of every live TTSF edit map there, prefixed with `label`.
pub(crate) fn sweep_proxy(sim: &Simulator, node: NodeId, label: &str) -> (bool, Vec<String>) {
    let sp = sim.node_ref::<ServiceProxy>(node).expect("the node is a proxy");
    let rewrites = registered_kinds(&sp.engine)
        .iter()
        .any(|k| TRANSFORMING.contains(&k.as_str()));
    (rewrites, editmap_errors(&sp.engine, label).collect())
}

/// Second half, once per simulator: decides strict mode and consumes the
/// attached oracle into its report, leaving an empty one in its place. The
/// always-on invariants are reported regardless of `strict`.
///
/// # Panics
///
/// Panics if the simulator's packet observer is not an [`Oracle`].
pub(crate) fn finish_oracle(sim: &mut Simulator, strict: bool) -> OracleReport {
    sim.with_packet_observer(|oracle: &mut Oracle| {
        oracle.set_strict(strict);
        std::mem::replace(oracle, Oracle::new(OracleConfig::new(Vec::new()))).finish()
    })
    .expect("no oracle attached: call attach_oracle() before running")
}

/// Appends one `editmap-invariant` violation per edit-map sweep error.
pub(crate) fn push_editmap_violations(report: &mut OracleReport, time: SimTime, errs: Vec<String>) {
    for detail in errs {
        report.push(Violation {
            time,
            kind: "editmap-invariant",
            flow: "ttsf".to_string(),
            detail,
        });
    }
}

/// Panics with every retained violation unless `report` is clean.
pub(crate) fn assert_report_clean(report: &OracleReport) {
    assert!(
        report.is_clean(),
        "conformance oracle found {} violation(s) over {} flows / {} segments:\n{}",
        report.total_violations,
        report.flows,
        report.segments_checked,
        report.render()
    );
}
