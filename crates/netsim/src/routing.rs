//! Longest-prefix routing tables and a plain IP router node.


use crate::addr::{Ipv4Addr, Subnet};
use crate::node::{IfaceId, Node, NodeCtx};
use crate::packet::Packet;
use crate::trace::DropReason;

/// One routing-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub subnet: Subnet,
    /// Outgoing interface.
    pub iface: IfaceId,
}

/// A longest-prefix-match routing table.
///
/// # Examples
///
/// ```
/// use comma_netsim::prelude::*;
///
/// let mut table = RoutingTable::new();
/// table.add("10.0.0.0/8".parse().unwrap(), IfaceId(0));
/// table.add("10.1.0.0/16".parse().unwrap(), IfaceId(1));
/// let dst: Ipv4Addr = "10.1.2.3".parse().unwrap();
/// assert_eq!(table.lookup(dst), Some(IfaceId(1)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    routes: Vec<Route>,
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RoutingTable { routes: Vec::new() }
    }

    /// Adds a route; longer prefixes take precedence regardless of insertion
    /// order. Re-adding an identical prefix replaces the old entry.
    pub fn add(&mut self, subnet: Subnet, iface: IfaceId) {
        if let Some(existing) = self.routes.iter_mut().find(|r| r.subnet == subnet) {
            existing.iface = iface;
            return;
        }
        self.routes.push(Route { subnet, iface });
        // Keep sorted by descending prefix length so lookup is first-match.
        self.routes
            .sort_by_key(|r| std::cmp::Reverse(r.subnet.prefix_len));
    }

    /// Adds a default route (`0.0.0.0/0`).
    pub fn add_default(&mut self, iface: IfaceId) {
        self.add(Subnet::DEFAULT, iface);
    }

    /// Removes the route for an exact prefix; returns whether one existed.
    pub fn remove(&mut self, subnet: Subnet) -> bool {
        let before = self.routes.len();
        self.routes.retain(|r| r.subnet != subnet);
        self.routes.len() != before
    }

    /// Looks up the outgoing interface for `dst`.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<IfaceId> {
        self.routes
            .iter()
            .find(|r| r.subnet.contains(dst))
            .map(|r| r.iface)
    }

    /// Returns all routes, longest prefix first.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }
}

/// A plain IP router: decrements TTL and forwards by longest prefix.
///
/// The Comma Service Proxy is built on the same forwarding logic (see the
/// `comma-proxy` crate) with a filtering engine inserted into the path.
pub struct Router {
    name: String,
    addrs: Vec<Ipv4Addr>,
    /// The forwarding table (public so scenarios can rewire it).
    pub table: RoutingTable,
}

impl Router {
    /// Creates a router with the given name, addresses, and table.
    pub fn new(name: impl Into<String>, addrs: Vec<Ipv4Addr>, table: RoutingTable) -> Self {
        Router {
            name: name.into(),
            addrs,
            table,
        }
    }
}

/// Shared forwarding step used by [`Router`] and proxy nodes: decrements the
/// TTL and returns the outgoing interface, tracing drops.
pub fn forward_step(
    ctx: &mut NodeCtx<'_>,
    table: &RoutingTable,
    pkt: &mut Packet,
) -> Option<IfaceId> {
    if pkt.ip.ttl <= 1 {
        ctx.trace.drop_pkt(ctx.now, ctx.node, DropReason::TtlExpired, || pkt.summary());
        return None;
    }
    pkt.ip.ttl -= 1;
    match table.lookup(pkt.ip.dst) {
        Some(iface) => Some(iface),
        None => {
            ctx.trace.drop_pkt(ctx.now, ctx.node, DropReason::NoRoute, || pkt.summary());
            None
        }
    }
}

impl Node for Router {
    fn name(&self) -> &str {
        &self.name
    }

    fn addresses(&self) -> Vec<Ipv4Addr> {
        self.addrs.clone()
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _iface: IfaceId, mut pkt: Packet) {
        if self.addrs.contains(&pkt.ip.dst) {
            // Plain routers sink packets addressed to themselves.
            return;
        }
        if let Some(out) = forward_step(ctx, &self.table, &mut pkt) {
            ctx.send(out, pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{TcpFlags, TcpSegment};
    use crate::time::SimTime;
    use crate::trace::Trace;
    use comma_rt::SmallRng;
    use comma_rt::SeedableRng;

    fn ctx_parts() -> (SmallRng, Trace) {
        (SmallRng::seed_from_u64(0), Trace::new())
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RoutingTable::new();
        t.add_default(IfaceId(0));
        t.add("192.168.0.0/16".parse().unwrap(), IfaceId(1));
        t.add("192.168.7.0/24".parse().unwrap(), IfaceId(2));
        assert_eq!(t.lookup("8.8.8.8".parse().unwrap()), Some(IfaceId(0)));
        assert_eq!(t.lookup("192.168.1.1".parse().unwrap()), Some(IfaceId(1)));
        assert_eq!(t.lookup("192.168.7.9".parse().unwrap()), Some(IfaceId(2)));
    }

    #[test]
    fn replace_and_remove() {
        let mut t = RoutingTable::new();
        let net: Subnet = "10.0.0.0/8".parse().unwrap();
        t.add(net, IfaceId(0));
        t.add(net, IfaceId(3));
        assert_eq!(t.routes().len(), 1);
        assert_eq!(t.lookup("10.1.1.1".parse().unwrap()), Some(IfaceId(3)));
        assert!(t.remove(net));
        assert!(!t.remove(net));
        assert_eq!(t.lookup("10.1.1.1".parse().unwrap()), None);
    }

    #[test]
    fn router_forwards_and_decrements_ttl() {
        let mut table = RoutingTable::new();
        table.add("20.0.0.0/8".parse().unwrap(), IfaceId(1));
        let mut router = Router::new("r", vec!["1.1.1.1".parse().unwrap()], table);
        let (mut rng, mut trace) = ctx_parts();
        let mut ctx = NodeCtx::new(
            SimTime::ZERO,
            crate::node::NodeId(0),
            2,
            &mut rng,
            &mut trace,
        );
        let pkt = Packet::tcp(
            "30.0.0.1".parse().unwrap(),
            "20.0.0.5".parse().unwrap(),
            TcpSegment::new(1, 2, 0, 0, TcpFlags::ACK),
        );
        router.on_packet(&mut ctx, IfaceId(0), pkt);
        let (outputs, _) = ctx.take_effects();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].0, IfaceId(1));
        assert_eq!(outputs[0].1.ip.ttl, 63);
    }

    #[test]
    fn ttl_expiry_and_no_route_drop() {
        let mut router = Router::new("r", vec![], RoutingTable::new());
        let (mut rng, mut trace) = ctx_parts();
        trace.set_capture(true);
        let mut ctx = NodeCtx::new(
            SimTime::ZERO,
            crate::node::NodeId(0),
            1,
            &mut rng,
            &mut trace,
        );
        let mut pkt = Packet::tcp(
            "30.0.0.1".parse().unwrap(),
            "20.0.0.5".parse().unwrap(),
            TcpSegment::new(1, 2, 0, 0, TcpFlags::ACK),
        );
        pkt.ip.ttl = 1;
        router.on_packet(&mut ctx, IfaceId(0), pkt.clone());
        pkt.ip.ttl = 64;
        router.on_packet(&mut ctx, IfaceId(0), pkt);
        let (outputs, _) = ctx.take_effects();
        assert!(outputs.is_empty());
        let drops: Vec<DropReason> = trace
            .entries()
            .iter()
            .filter_map(|e| match e.event {
                crate::trace::TraceEvent::Drop { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(drops, [DropReason::TtlExpired, DropReason::NoRoute]);
    }

    #[test]
    fn packets_to_self_are_sunk() {
        let addr: Ipv4Addr = "1.1.1.1".parse().unwrap();
        let mut table = RoutingTable::new();
        table.add_default(IfaceId(0));
        let mut router = Router::new("r", vec![addr], table);
        let (mut rng, mut trace) = ctx_parts();
        let mut ctx = NodeCtx::new(
            SimTime::ZERO,
            crate::node::NodeId(0),
            1,
            &mut rng,
            &mut trace,
        );
        let pkt = Packet::tcp(
            "30.0.0.1".parse().unwrap(),
            addr,
            TcpSegment::new(1, 2, 0, 0, TcpFlags::ACK),
        );
        router.on_packet(&mut ctx, IfaceId(0), pkt);
        let (outputs, _) = ctx.take_effects();
        assert!(outputs.is_empty());
    }
}
