//! The Kati shell (Chapter 7): a third-party window onto the Service
//! Proxy's streams and filters and the EEM's metrics.
//!
//! The thesis's Kati is a Tcl/Tk GUI; every one of its views and actions
//! maps onto a shell command here:
//!
//! | GUI element (Figs 7.1–7.4)        | Shell command            |
//! |-----------------------------------|--------------------------|
//! | main window stream list           | `streams`                |
//! | per-stream filter list            | `filters`                |
//! | "Add service" dialog              | `add <filter> <key> ...` |
//! | "Remove service"                  | `delete <filter> <key>`  |
//! | xnetload window                   | `netload <channel>`      |
//! | (wall-clock passing)              | `run <seconds>`          |
//! | execution-time statistics         | `eem <node> <var>`       |
//! | SP console                        | `sp <raw command>`       |

use comma_eem::SharedHub;
use comma_netsim::link::ChannelId;
use comma_netsim::node::NodeId;
use comma_netsim::sim::Simulator;
use comma_proxy::ServiceProxy;

use crate::netload;

/// The Kati shell, bound to one Service Proxy in a simulation.
pub struct Kati {
    sp: NodeId,
    hub: Option<SharedHub>,
    /// Transcript of every command and its output.
    pub transcript: Vec<(String, String)>,
}

impl Kati {
    /// Creates a shell controlling the proxy at `sp`.
    pub fn new(sp: NodeId) -> Self {
        Kati {
            sp,
            hub: None,
            transcript: Vec::new(),
        }
    }

    /// Attaches a metrics hub for the `eem` command.
    pub fn with_hub(mut self, hub: SharedHub) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Executes one command, recording it in the transcript.
    pub fn exec(&mut self, sim: &mut Simulator, line: &str) -> String {
        let out = self.dispatch(sim, line);
        self.transcript.push((line.to_string(), out.clone()));
        out
    }

    fn dispatch(&mut self, sim: &mut Simulator, line: &str) -> String {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return String::new();
        };
        let rest: Vec<&str> = parts.collect();
        match cmd {
            // SP console passthrough, both spelled out and bare.
            "sp" => self.sp_exec(sim, &rest.join(" ")),
            "load" | "remove" | "add" | "delete" | "report" => self.sp_exec(sim, line),
            "run" => {
                let Some(secs) = rest.first().and_then(|x| x.parse::<f64>().ok()) else {
                    return "usage: run <seconds>\n".into();
                };
                let target = sim.now() + comma_netsim::time::SimDuration::from_secs_f64(secs);
                sim.run_until(target);
                format!("advanced to {}\n", sim.now())
            }
            "streams" => self.streams(sim),
            "filters" => self.filters(sim),
            "stats" => self.stats(sim),
            "log" => self.log(sim, rest.first().and_then(|n| n.parse().ok()).unwrap_or(10)),
            "netload" => {
                let Some(ch) = rest.first().and_then(|c| c.parse::<usize>().ok()) else {
                    return "usage: netload <channel> [width]\n".into();
                };
                let width = rest.get(1).and_then(|w| w.parse().ok()).unwrap_or(60);
                self.netload(sim, ChannelId(ch), width)
            }
            "eem" => {
                let (Some(node), Some(var)) = (rest.first(), rest.get(1)) else {
                    return "usage: eem <node> <variable>\n".into();
                };
                self.eem(node, var)
            }
            "obs" => self.obs(sim, rest.first().copied().unwrap_or("summary")),
            "mc" => Self::mc(&rest),
            "help" => HELP.to_string(),
            _ => format!("kati: unknown command '{cmd}' (try 'help')\n"),
        }
    }

    /// Runs the `comma-mc` interleaving checker on its self-contained
    /// TCP+TTSF scenario (not the shell's bound world — the checker needs
    /// snapshot-capable nodes and its own oracle wiring).
    fn mc(args: &[&str]) -> String {
        const USAGE: &str =
            "usage: mc [seed N] [depth N] [steps N] [faults N] [flows N] [bytes N] [mutate]\n";
        let mut cfg = comma_mc::McConfig::default();
        let mut i = 0;
        while i < args.len() {
            if args[i] == "mutate" {
                cfg.mutate_skip_ack_translation = true;
                i += 1;
                continue;
            }
            let Some(val) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                return USAGE.into();
            };
            match args[i] {
                "seed" => cfg.seed = val,
                "depth" => cfg.max_depth = val as usize,
                "steps" => cfg.step_budget = val,
                "faults" => cfg.max_faults = val as usize,
                "flows" => cfg.flows = val as usize,
                "bytes" => cfg.transfer_bytes = val as usize,
                _ => return USAGE.into(),
            }
            i += 2;
        }
        let report = comma_mc::explore(&cfg);
        let mut out = report.render();
        out.push('\n');
        out
    }

    fn sp_exec(&mut self, sim: &mut Simulator, line: &str) -> String {
        let now = sim.now();
        let line = line.to_string();
        sim.with_node::<ServiceProxy, _>(self.sp, move |sp| sp.exec(now, &line))
    }

    fn streams(&mut self, sim: &mut Simulator) -> String {
        sim.with_node::<ServiceProxy, _>(self.sp, |sp| {
            let streams = sp.engine.streams();
            if streams.is_empty() {
                return "no active streams\n".to_string();
            }
            let mut out = String::new();
            for (key, filters) in streams {
                out.push_str(&format!("{key}  [{}]\n", filters.join(", ")));
            }
            out
        })
    }

    fn filters(&mut self, sim: &mut Simulator) -> String {
        sim.with_node::<ServiceProxy, _>(self.sp, |sp| {
            let infos = sp.engine.instance_infos();
            if infos.is_empty() {
                return "no live filter instances\n".to_string();
            }
            let mut out = String::new();
            for info in infos {
                out.push_str(&format!(
                    "#{} {} prio={} keys={} seen={} modified={} dropped={} injected={} timers={} saved={}B\n",
                    info.id,
                    info.kind,
                    info.priority,
                    info.keys.len(),
                    info.stats.pkts_seen,
                    info.stats.pkts_modified,
                    info.stats.pkts_dropped,
                    info.stats.pkts_injected,
                    info.stats.timer_fires,
                    info.stats.bytes_removed as i64 - info.stats.bytes_added as i64,
                ));
            }
            out
        })
    }

    fn stats(&mut self, sim: &mut Simulator) -> String {
        sim.with_node::<ServiceProxy, _>(self.sp, |sp| {
            let t = sp.engine.totals;
            format!(
                "packets={} modified={} dropped={} injected={} forwarded={} live-filters={}\n",
                t.pkts,
                t.modified,
                t.drops,
                t.injected,
                sp.forwarded,
                sp.engine.live_instances()
            )
        })
    }

    fn log(&mut self, sim: &mut Simulator, n: usize) -> String {
        sim.with_node::<ServiceProxy, _>(self.sp, |sp| {
            let log = &sp.engine.log;
            let start = log.len().saturating_sub(n);
            let mut out = String::new();
            for line in &log[start..] {
                out.push_str(line);
                out.push('\n');
            }
            out
        })
    }

    fn netload(&mut self, sim: &mut Simulator, ch: ChannelId, width: usize) -> String {
        if ch.0 >= sim.channel_count() {
            return format!("no such channel {}\n", ch.0);
        }
        let now = sim.now();
        let channel = sim.channel_mut(ch);
        channel.series.roll_to(now);
        netload::render(&channel.series, width, 8)
    }

    /// The `obs` command: a window onto the unified observability layer
    /// (the simulator's shared `comma_obs::Obs` handle).
    fn obs(&mut self, sim: &mut Simulator, sub: &str) -> String {
        let obs = sim.obs.clone();
        match sub {
            "on" => {
                obs.set_enabled(true);
                // Share the simulator's handle with the bound proxy's
                // engine so per-filter metrics land in the same registry.
                let o = obs.clone();
                sim.with_node::<ServiceProxy, _>(self.sp, move |sp| sp.set_obs(o));
                "obs: enabled\n".to_string()
            }
            "off" => {
                obs.set_enabled(false);
                "obs: disabled\n".to_string()
            }
            "reset" => {
                obs.reset();
                "obs: metrics and events cleared\n".to_string()
            }
            "dump" => obs.export_jsonl(),
            "summary" => {
                if !obs.is_enabled() {
                    return "obs: disabled (try 'obs on', then run traffic)\n".to_string();
                }
                Self::obs_summary(&obs)
            }
            _ => "usage: obs [summary|dump|reset|on|off]\n".to_string(),
        }
    }

    /// Domain-specific summary: per-connection TCP state, per-filter
    /// accounting, per-link counters, recorder occupancy.
    fn obs_summary(obs: &comma_obs::Obs) -> String {
        use comma_obs::table::Table;
        let mut out = String::new();

        let conns: Vec<String> = obs
            .gauge_scopes()
            .into_iter()
            .filter(|s| s.contains(".conn."))
            .collect();
        if !conns.is_empty() {
            let mut t = Table::new(
                "tcp connections",
                &[
                    "connection",
                    "cwnd",
                    "ssthresh",
                    "rto_ms",
                    "retx",
                    "timeouts",
                    "dupacks",
                ],
            );
            for c in &conns {
                let g = |k: &str| obs.gauge_value(c, k).unwrap_or(0.0);
                t.row(&[
                    c.clone(),
                    (g("tcp.cwnd") as u64).to_string(),
                    (g("tcp.ssthresh") as u64).to_string(),
                    comma_obs::table::f(g("tcp.rto_us") / 1000.0, 1),
                    (g("tcp.retransmits") as u64).to_string(),
                    (g("tcp.timeouts") as u64).to_string(),
                    (g("tcp.dup_acks") as u64).to_string(),
                ]);
            }
            out.push_str(&t.render());
        }

        let filters: Vec<String> = obs
            .counter_scopes()
            .into_iter()
            .filter(|s| obs.counter(s, "filter.pkts") > 0)
            .collect();
        if !filters.is_empty() {
            let mut t = Table::new(
                "filters",
                &[
                    "filter",
                    "pkts",
                    "bytes",
                    "drops",
                    "modified",
                    "injected",
                    "violations",
                ],
            );
            for f in &filters {
                t.row(&[
                    f.clone(),
                    obs.counter(f, "filter.pkts").to_string(),
                    obs.counter(f, "filter.bytes").to_string(),
                    obs.counter(f, "filter.drops").to_string(),
                    obs.counter(f, "filter.modified").to_string(),
                    obs.counter(f, "filter.injected").to_string(),
                    obs.counter(f, "filter.violations").to_string(),
                ]);
            }
            out.push_str(&t.render());
        }

        let links: Vec<String> = obs
            .counter_scopes()
            .into_iter()
            .filter(|s| obs.counter(s, "link.offered") > 0)
            .collect();
        if !links.is_empty() {
            let mut t = Table::new(
                "links",
                &["channel", "offered", "enqueued", "dequeued", "delivered", "drops"],
            );
            for l in &links {
                let drops = obs.counter(l, "link.drop.down")
                    + obs.counter(l, "link.drop.queue_full")
                    + obs.counter(l, "link.drop.loss");
                t.row(&[
                    l.clone(),
                    obs.counter(l, "link.offered").to_string(),
                    obs.counter(l, "link.enqueued").to_string(),
                    obs.counter(l, "link.dequeued").to_string(),
                    obs.counter(l, "link.delivered_pkts").to_string(),
                    drops.to_string(),
                ]);
            }
            out.push_str(&t.render());
        }

        out.push_str(&format!(
            "events: {} buffered, {} dropped\n",
            obs.events_len(),
            obs.dropped_events()
        ));
        out
    }

    fn eem(&mut self, node: &str, var: &str) -> String {
        let Some(hub) = &self.hub else {
            return "kati: no EEM hub attached\n".to_string();
        };
        match hub.lock().expect("a hub writer panicked").get(node, var) {
            Some(v) => format!("{node}.{var} = {v}\n"),
            None => format!("{node}.{var} = <no value>\n"),
        }
    }

    /// Renders the recorded session as a console transcript.
    pub fn render_transcript(&self) -> String {
        let mut out = String::new();
        for (cmd, reply) in &self.transcript {
            out.push_str(&format!("kati> {cmd}\n"));
            out.push_str(reply);
        }
        out
    }
}

const HELP: &str = "\
Kati commands:
  report [filter]            SP report (filters and their keys)
  load/remove <file>         manage the SP filter pool
  add <filter> <key> [args]  attach a service to streams matching key
  delete <filter> <key>      remove a service
  streams                    active streams and their filter queues
  filters                    live filter instances with accounting
  stats                      proxy totals
  log [n]                    last n proxy log lines
  netload <channel> [w]      link load chart (xnetload)
  run <seconds>              advance simulated time
  eem <node> <var>           read an execution-environment metric
  obs [summary|dump|reset|on|off]
                             unified observability: summary tables,
                             JSONL dump, clear, toggle recording
  mc [seed N] [depth N] [steps N] [faults N] [flows N] [bytes N] [mutate]
                             model-check the TCP+TTSF scenario (self-
                             contained world; 'mutate' arms the known
                             ACK-translation bug the checker must find)
  help                       this text
";
