//! The EEM server (§6.2): accepts registrations, periodically checks the
//! registered variables against each client's criteria, and pushes
//! interrupt or batched periodic updates.

use std::any::Any;
use std::collections::HashMap;

use comma_rt::Bytes;
use comma_netsim::addr::Ipv4Addr;
use comma_netsim::time::SimDuration;
use comma_tcp::apps::{App, AppCtx, AppOp};

use crate::hub::SharedHub;
use crate::id::{Attr, Operator};
use crate::proto::{Message, Mode, EEM_PORT};
use crate::value::Value;
use crate::vars;

/// Server traffic counters (experiment E11 measures these).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Registrations accepted.
    pub registrations: u64,
    /// Update datagrams sent.
    pub updates_sent: u64,
    /// Update payload bytes sent.
    pub update_bytes: u64,
    /// One-shot polls served.
    pub polls_served: u64,
}

struct Registration {
    client: (Ipv4Addr, u16),
    var_num: u16,
    index: u32,
    mode: Mode,
    attr: Attr,
    last_sent: Option<Value>,
    was_in_range: bool,
}

/// The EEM server application: install on any host next to a metrics hub.
pub struct EemServer {
    node_name: String,
    hub: SharedHub,
    port: u16,
    check_interval: SimDuration,
    update_every: u32,
    ticks: u32,
    regs: HashMap<((Ipv4Addr, u16), u32), Registration>,
    /// Counters.
    pub stats: ServerStats,
}

const TICK_TOKEN: u64 = 0xEE;

impl EemServer {
    /// Creates a server for `node_name`, reading from `hub`, on the default
    /// EEM port.
    pub fn new(node_name: impl Into<String>, hub: SharedHub) -> Self {
        EemServer {
            node_name: node_name.into(),
            hub,
            port: EEM_PORT,
            check_interval: SimDuration::from_secs(1),
            update_every: 10, // 10 s periodic updates, as in the thesis.
            ticks: 0,
            regs: HashMap::new(),
            stats: ServerStats::default(),
        }
    }

    fn sample(&self, var_num: u16, index: u32) -> Option<Value> {
        let spec = vars::by_num(var_num)?;
        self.hub
            .lock()
            .expect("a hub writer panicked")
            .get_indexed(&self.node_name, spec.name, index)
            .cloned()
    }

    fn send(&mut self, ctx: &mut AppCtx, client: (Ipv4Addr, u16), msgs: &[Message]) {
        if msgs.is_empty() {
            return;
        }
        let payload = Message::encode_batch(msgs);
        self.stats.updates_sent += 1;
        self.stats.update_bytes += payload.len() as u64;
        ctx.op(AppOp::SendUdp {
            src_port: self.port,
            dst: client,
            payload: Bytes::from(payload.into_bytes()),
        });
    }

    fn attr_from(op: Operator, lbound: Value, ubound: Option<Value>) -> Attr {
        let mut attr = Attr::init();
        attr.set_lbound(lbound);
        if let Some(u) = ubound {
            attr.set_ubound(u);
        }
        // Operator type errors were filtered client-side; ignore here.
        let _ = attr.set_operator(op);
        attr
    }
}

impl App for EemServer {
    fn name(&self) -> &str {
        "eem-server"
    }

    fn on_start(&mut self, ctx: &mut AppCtx) {
        ctx.op(AppOp::BindUdp { port: self.port });
        ctx.timer(self.check_interval, TICK_TOKEN);
    }

    fn on_udp(&mut self, ctx: &mut AppCtx, from: (Ipv4Addr, u16), _dst_port: u16, payload: Bytes) {
        let Ok(text) = std::str::from_utf8(&payload) else {
            return;
        };
        for msg in Message::decode_batch(text) {
            match msg {
                Message::Register {
                    reg_id,
                    var_num,
                    index,
                    mode,
                    op,
                    lbound,
                    ubound,
                } => {
                    if vars::by_num(var_num).is_none() {
                        self.send(ctx, from, &[Message::Nak { reg_id }]);
                        continue;
                    }
                    if mode == Mode::Once {
                        // Temporary registration: immediately removed after
                        // the metric is retrieved (§6.2).
                        let value = self.sample(var_num, index).unwrap_or(Value::Long(0));
                        let attr = Self::attr_from(op, lbound, ubound);
                        let in_range = attr.matches(&value);
                        self.stats.polls_served += 1;
                        self.send(
                            ctx,
                            from,
                            &[Message::Update {
                                reg_id,
                                in_range,
                                value,
                            }],
                        );
                        continue;
                    }
                    self.stats.registrations += 1;
                    self.regs.insert(
                        (from, reg_id),
                        Registration {
                            client: from,
                            var_num,
                            index,
                            mode,
                            attr: Self::attr_from(op, lbound, ubound),
                            last_sent: None,
                            was_in_range: false,
                        },
                    );
                }
                Message::Deregister { reg_id } => {
                    self.regs.remove(&(from, reg_id));
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, token: u64) {
        if token != TICK_TOKEN {
            return;
        }
        self.ticks += 1;
        let periodic_due = self.ticks.is_multiple_of(self.update_every);
        // Evaluate all registrations, gathering messages per client.
        let mut immediate: Vec<((Ipv4Addr, u16), Message)> = Vec::new();
        let mut batched: HashMap<(Ipv4Addr, u16), Vec<Message>> = HashMap::new();
        let keys: Vec<((Ipv4Addr, u16), u32)> = self.regs.keys().cloned().collect();
        for key in keys {
            let sampled = {
                let reg = self.regs.get(&key).expect("reg");
                self.sample(reg.var_num, reg.index)
            };
            let Some(value) = sampled else { continue };
            let reg = self.regs.get_mut(&key).expect("reg");
            let in_range = reg.attr.matches(&value);
            match reg.mode {
                Mode::Interrupt => {
                    // Notify immediately when the variable moves into range.
                    if in_range && !reg.was_in_range {
                        immediate.push((
                            reg.client,
                            Message::Update {
                                reg_id: key.1,
                                in_range,
                                value: value.clone(),
                            },
                        ));
                        reg.last_sent = Some(value.clone());
                    }
                }
                Mode::Periodic => {
                    if periodic_due && in_range && reg.last_sent.as_ref() != Some(&value) {
                        batched
                            .entry(reg.client)
                            .or_default()
                            .push(Message::Update {
                                reg_id: key.1,
                                in_range,
                                value: value.clone(),
                            });
                        reg.last_sent = Some(value.clone());
                    }
                }
                Mode::Once => {}
            }
            reg.was_in_range = in_range;
        }
        for (client, msg) in immediate {
            self.send(ctx, client, &[msg]);
        }
        for (client, msgs) in batched {
            self.send(ctx, client, &msgs);
        }
        ctx.timer(self.check_interval, TICK_TOKEN);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}
