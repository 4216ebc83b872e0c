//! The EEM client library (§6.3.2): registration, the protected data area
//! (PDA), and interrupt/periodic/poll notification.
//!
//! [`EemClient`] is embeddable: an application holds one and forwards its
//! UDP traffic to [`EemClient::handle_udp`], mirroring the thesis's
//! client thread. [`MonitorApp`] wraps a client as a standalone
//! application for tools and tests.

use std::any::Any;
use std::collections::HashMap;

use comma_rt::Bytes;
use comma_netsim::addr::Ipv4Addr;
use comma_tcp::apps::{App, AppCtx, AppOp};

use crate::id::{Attr, EemError, VarId};
use crate::proto::{Message, Mode, EEM_PORT};
use crate::value::Value;

/// Callback invoked for interrupt-style notifications (`comma_setcallback`).
pub type Callback = Box<dyn FnMut(u32, &Value) + Send + Sync>;

/// One slot of the protected data area.
#[derive(Clone, Debug)]
struct PdaEntry {
    value: Value,
    in_range: bool,
    changed: bool,
}

/// Client traffic counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Registration datagrams sent.
    pub regs_sent: u64,
    /// Updates received.
    pub updates_received: u64,
    /// Registration NAKs received.
    pub naks: u64,
}

/// The EEM client (`comma_init` … `comma_term`).
pub struct EemClient {
    local_port: u16,
    default_server: Ipv4Addr,
    next_reg: u32,
    regs: HashMap<u32, (VarId, Mode)>,
    pda: HashMap<u32, PdaEntry>,
    callback: Option<Callback>,
    /// Counters.
    pub stats: ClientStats,
}

impl EemClient {
    /// Creates a client that will talk to the EEM server on
    /// `default_server` unless an id carries its own server.
    pub fn new(local_port: u16, default_server: Ipv4Addr) -> Self {
        EemClient {
            local_port,
            default_server,
            next_reg: 1,
            regs: HashMap::new(),
            pda: HashMap::new(),
            callback: None,
            stats: ClientStats::default(),
        }
    }

    /// `comma_init`: binds the client's UDP port. Call from the embedding
    /// application's `on_start`.
    pub fn init(&mut self, ctx: &mut AppCtx) {
        ctx.op(AppOp::BindUdp {
            port: self.local_port,
        });
    }

    /// `comma_setcallback`: interrupt-style notification target.
    pub fn set_callback(&mut self, cb: Callback) {
        self.callback = Some(cb);
    }

    /// The client's UDP port.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    fn server_of(&self, id: &VarId) -> (Ipv4Addr, u16) {
        (id.server().unwrap_or(self.default_server), EEM_PORT)
    }

    /// `comma_var_register`: registers `id` with `attr` in the given mode;
    /// returns the registration handle.
    pub fn var_register(
        &mut self,
        ctx: &mut AppCtx,
        id: &VarId,
        attr: &Attr,
        mode: Mode,
    ) -> Result<u32, EemError> {
        attr.validate()?;
        if id.is_index_reqd() && id.index().is_none() {
            return Err(EemError(format!(
                "variable {} requires an index",
                id.get_name().unwrap_or("?")
            )));
        }
        let reg_id = self.next_reg;
        self.next_reg += 1;
        let msg = Message::Register {
            reg_id,
            var_num: id.num(),
            index: id.index().unwrap_or(0),
            mode,
            op: attr.operator().expect("validated"),
            lbound: attr.lbound().expect("validated").clone(),
            ubound: attr.ubound().cloned(),
        };
        self.stats.regs_sent += 1;
        ctx.op(AppOp::SendUdp {
            src_port: self.local_port,
            dst: self.server_of(id),
            payload: Bytes::from(msg.encode().into_bytes()),
        });
        if mode != Mode::Once {
            self.regs.insert(reg_id, (id.clone(), mode));
        }
        Ok(reg_id)
    }

    /// `comma_var_deregister`.
    pub fn var_deregister(&mut self, ctx: &mut AppCtx, reg_id: u32) {
        if let Some((id, _)) = self.regs.remove(&reg_id) {
            ctx.op(AppOp::SendUdp {
                src_port: self.local_port,
                dst: self.server_of(&id),
                payload: Bytes::from(Message::Deregister { reg_id }.encode().into_bytes()),
            });
        }
        self.pda.remove(&reg_id);
    }

    /// `comma_var_deregisterall`.
    pub fn var_deregister_all(&mut self, ctx: &mut AppCtx) {
        let ids: Vec<u32> = self.regs.keys().copied().collect();
        for reg_id in ids {
            self.var_deregister(ctx, reg_id);
        }
    }

    /// `comma_query_getvalue_once`: one-shot poll. The reply lands in the
    /// PDA under the returned registration id.
    pub fn query_getvalue_once(
        &mut self,
        ctx: &mut AppCtx,
        id: &VarId,
        attr: &Attr,
    ) -> Result<u32, EemError> {
        self.var_register(ctx, id, attr, Mode::Once)
    }

    /// Feeds a received UDP datagram to the client; returns `true` if it
    /// was EEM traffic.
    pub fn handle_udp(&mut self, _from: (Ipv4Addr, u16), dst_port: u16, payload: &[u8]) -> bool {
        if dst_port != self.local_port {
            return false;
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return false;
        };
        let msgs = Message::decode_batch(text);
        if msgs.is_empty() {
            return false;
        }
        for msg in msgs {
            match msg {
                Message::Update {
                    reg_id,
                    in_range,
                    value,
                } => {
                    self.stats.updates_received += 1;
                    let is_interrupt = matches!(self.regs.get(&reg_id), Some((_, Mode::Interrupt)));
                    if is_interrupt || self.callback.is_some() {
                        if let Some(cb) = self.callback.as_mut() {
                            cb(reg_id, &value);
                        }
                    }
                    self.pda.insert(
                        reg_id,
                        PdaEntry {
                            value,
                            in_range,
                            changed: true,
                        },
                    );
                }
                Message::Nak { reg_id } => {
                    self.stats.naks += 1;
                    self.regs.remove(&reg_id);
                }
                _ => {}
            }
        }
        true
    }

    /// `comma_query_getvalue`: most recent value from the PDA.
    pub fn query_getvalue(&mut self, reg_id: u32) -> Option<Value> {
        let entry = self.pda.get_mut(&reg_id)?;
        entry.changed = false;
        Some(entry.value.clone())
    }

    /// `comma_query_isinrange`.
    pub fn query_isinrange(&self, reg_id: u32) -> Option<bool> {
        self.pda.get(&reg_id).map(|e| e.in_range)
    }

    /// `comma_query_haschanged`: whether the value changed since the last
    /// [`EemClient::query_getvalue`].
    pub fn query_haschanged(&self, reg_id: u32) -> bool {
        self.pda.get(&reg_id).map(|e| e.changed).unwrap_or(false)
    }

    /// Active (non-once) registrations.
    pub fn registration_count(&self) -> usize {
        self.regs.len()
    }
}

/// A standalone application wrapping an [`EemClient`]: registers a fixed
/// set of variables at start and collects updates (tools and tests).
pub struct MonitorApp {
    /// The embedded client.
    pub client: EemClient,
    regs_at_start: Vec<(VarId, Attr, Mode)>,
    /// Registration ids returned at start, in order.
    pub reg_ids: Vec<u32>,
    /// Every update observed, in arrival order.
    pub history: Vec<(u32, Value)>,
}

impl MonitorApp {
    /// Creates a monitor app.
    pub fn new(local_port: u16, server: Ipv4Addr, regs: Vec<(VarId, Attr, Mode)>) -> Self {
        MonitorApp {
            client: EemClient::new(local_port, server),
            regs_at_start: regs,
            reg_ids: Vec::new(),
            history: Vec::new(),
        }
    }
}

impl App for MonitorApp {
    fn name(&self) -> &str {
        "eem-monitor"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        self.client.init(ctx);
        let regs = std::mem::take(&mut self.regs_at_start);
        for (id, attr, mode) in regs {
            if let Ok(reg_id) = self.client.var_register(ctx, &id, &attr, mode) {
                self.reg_ids.push(reg_id);
            }
        }
    }

    fn on_udp(&mut self, _ctx: &mut AppCtx, from: (Ipv4Addr, u16), dst_port: u16, payload: Bytes) {
        let before = self.client.stats.updates_received;
        self.client.handle_udp(from, dst_port, &payload);
        if self.client.stats.updates_received > before {
            // Record what arrived (PDA holds the latest; replay from it).
            for (&reg_id, _) in self.client.regs.clone().iter() {
                if self.client.query_haschanged(reg_id) {
                    if let Some(v) = self.client.query_getvalue(reg_id) {
                        self.history.push((reg_id, v));
                    }
                }
            }
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Operator;
    use comma_netsim::time::SimTime;

    fn id_uptime() -> VarId {
        VarId::named("sysUpTime").unwrap()
    }

    fn attr_in(lo: i64, hi: i64) -> Attr {
        let mut a = Attr::init();
        a.set_lbound(Value::Long(lo));
        a.set_ubound(Value::Long(hi));
        a.set_operator(Operator::In).unwrap();
        a
    }

    #[test]
    fn register_emits_wire_message() {
        let mut client = EemClient::new(5000, "10.0.0.9".parse().unwrap());
        let mut ctx = AppCtx::new(SimTime::ZERO);
        client.init(&mut ctx);
        let reg = client
            .var_register(&mut ctx, &id_uptime(), &attr_in(0, 20), Mode::Periodic)
            .unwrap();
        let ops = ctx.take_ops();
        assert_eq!(ops.len(), 2, "bind + register");
        match &ops[1] {
            AppOp::SendUdp { dst, payload, .. } => {
                assert_eq!(dst.0, "10.0.0.9".parse().unwrap());
                assert_eq!(dst.1, EEM_PORT);
                let msg = Message::decode(std::str::from_utf8(payload).unwrap()).unwrap();
                assert!(matches!(msg, Message::Register { var_num: 3, .. }));
            }
            other => panic!("unexpected op {other:?}"),
        }
        assert_eq!(client.registration_count(), 1);
        let _ = reg;
    }

    #[test]
    fn update_lands_in_pda_and_flags_change() {
        let mut client = EemClient::new(5000, "10.0.0.9".parse().unwrap());
        let mut ctx = AppCtx::new(SimTime::ZERO);
        let reg = client
            .var_register(&mut ctx, &id_uptime(), &attr_in(0, 20), Mode::Periodic)
            .unwrap();
        let upd = Message::Update {
            reg_id: reg,
            in_range: true,
            value: Value::Long(12),
        };
        assert!(client.handle_udp(
            ("10.0.0.9".parse().unwrap(), EEM_PORT),
            5000,
            upd.encode().as_bytes()
        ));
        assert!(client.query_haschanged(reg));
        assert_eq!(client.query_isinrange(reg), Some(true));
        assert_eq!(client.query_getvalue(reg), Some(Value::Long(12)));
        assert!(
            !client.query_haschanged(reg),
            "read clears the changed flag"
        );
    }

    #[test]
    fn callback_invoked_on_update() {
        use std::sync::{Arc, Mutex};
        let hits: Arc<Mutex<Vec<(u32, Value)>>> = Arc::default();
        let mut client = EemClient::new(5000, "10.0.0.9".parse().unwrap());
        let sink = hits.clone();
        client.set_callback(Box::new(move |reg, v| {
            sink.lock().unwrap().push((reg, v.clone()))
        }));
        let mut ctx = AppCtx::new(SimTime::ZERO);
        let reg = client
            .var_register(&mut ctx, &id_uptime(), &attr_in(0, 20), Mode::Interrupt)
            .unwrap();
        let upd = Message::Update {
            reg_id: reg,
            in_range: true,
            value: Value::Long(5),
        };
        client.handle_udp(
            ("10.0.0.9".parse().unwrap(), EEM_PORT),
            5000,
            upd.encode().as_bytes(),
        );
        assert_eq!(hits.lock().unwrap().len(), 1);
    }

    #[test]
    fn register_requires_valid_attr_and_index() {
        let mut client = EemClient::new(5000, "10.0.0.9".parse().unwrap());
        let mut ctx = AppCtx::new(SimTime::ZERO);
        let incomplete = Attr::init();
        assert!(client
            .var_register(&mut ctx, &id_uptime(), &incomplete, Mode::Periodic)
            .is_err());
        // Indexed variable without an index fails.
        let mut id = VarId::named("ifInOctets").unwrap();
        assert!(client
            .var_register(&mut ctx, &id, &attr_in(0, 100), Mode::Periodic)
            .is_err());
        id.set_index(1);
        assert!(client
            .var_register(&mut ctx, &id, &attr_in(0, 100), Mode::Periodic)
            .is_ok());
    }

    #[test]
    fn deregister_all_clears() {
        let mut client = EemClient::new(5000, "10.0.0.9".parse().unwrap());
        let mut ctx = AppCtx::new(SimTime::ZERO);
        client
            .var_register(&mut ctx, &id_uptime(), &attr_in(0, 20), Mode::Periodic)
            .unwrap();
        client
            .var_register(&mut ctx, &id_uptime(), &attr_in(20, 40), Mode::Periodic)
            .unwrap();
        assert_eq!(client.registration_count(), 2);
        client.var_deregister_all(&mut ctx);
        assert_eq!(client.registration_count(), 0);
        let dereg_count = ctx
            .take_ops()
            .iter()
            .filter(|op| match op {
                AppOp::SendUdp { payload, .. } => {
                    std::str::from_utf8(payload).unwrap().starts_with("DEREG")
                }
                _ => false,
            })
            .count();
        assert_eq!(dereg_count, 2);
    }
}
