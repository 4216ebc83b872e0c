//! The filtering mechanism (Fig 5.1/5.2): stream registry, filter pool,
//! per-key in/out filter queues, and filter accounting.
//!
//! # The fast dispatch path
//!
//! One private per-packet core, `dispatch`, sits behind both public
//! entries, [`FilterEngine::process`] and [`FilterEngine::process_batch`],
//! and reads top to bottom as *lookup → in pass → out pass → settle*:
//! whatever a filter callback — `insert`, `on_in`, `on_out`, `on_timer`,
//! `on_removed` — leaves in its [`FilterCtx`] goes through the one private
//! `settle`, so the rule for each kind of request (the `INJECT` check
//! among them) is written once; the table is on [`Filter`]. Every single
//! packet traverses the core, so it is written to avoid per-packet
//! allocation and deep copies entirely (see DESIGN.md's "Performance"
//! section):
//!
//! - survivors land in caller-owned buffers (`process_batch`), so a
//!   caller that keeps them forwards a steady-state packet without
//!   touching the heap;
//! - flow state lives in an FNV-hashed [`FlowTable`] whose entries cache
//!   the member list as an `Arc<[usize]>` (refcount bump per packet, no
//!   `Vec` clone) behind a registration-generation stamp (no per-packet
//!   wild-card scan);
//! - the pre-`on_out` snapshot the capability check diffs against is a
//!   plain [`Packet`] — header fields by value plus a refcount bump on the
//!   payload's `Bytes` handle, copied inline — taken once per packet and
//!   again only after a filter changed something; payload change detection
//!   answers from pointer identity, then length, and compares bytes only
//!   when a filter *replaced* the buffer with one of equal length;
//! - filter kinds are interned once and an instance names its kind by
//!   index, so attributing stats, obs scopes, and log lines costs an index,
//!   not four `String` allocations per filter per packet;
//! - with obs enabled, the per-packet `engine.*` / `filter.*` counters are
//!   write sites that found their registry cell on the first write
//!   ([`comma_obs::LazyCounter`]), kept per engine and per *kind* — never
//!   per instance or per flow, which a 10,000-flow dark run would pay for.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use comma_netsim::packet::{IcmpMessage, IpPayload, Packet, TcpSegment};
use comma_netsim::time::SimTime;
use comma_obs::{LazyCounter, LazyGauge, Obs};
use comma_rt::{Bytes, ShedVec, SmallRng};

use crate::filter::{Capabilities, Filter, FilterCtx, MetricsSource, Priority, Verdict};
use crate::flow::FlowTable;
use crate::key::{StreamKey, WildKey};

/// Factory producing filter instances from `add`-command arguments.
pub type FilterFactory =
    Box<dyn Fn(&[String]) -> Result<Box<dyn Filter>, String> + Send + Sync>;

/// The filter pool: factories known to the proxy ("compiled in" or loadable
/// from the repository), each flagged with whether it is currently loaded.
/// The map sits behind an `Arc`, so cloning the catalog (a world snapshot)
/// is a refcount bump; `register`/`load`/`unload` write through
/// [`Arc::make_mut`], which copies the map only while another catalog still
/// shares it.
#[derive(Clone, Default)]
pub struct FilterCatalog {
    filters: Arc<BTreeMap<String, CatalogEntry>>,
}

#[derive(Clone)]
struct CatalogEntry {
    factory: Arc<FilterFactory>,
    loaded: bool,
}

/// The registered name a library file selects: its stem (e.g. `rdrop`
/// from `/lib/rdrop.so`).
fn library_stem(library_file: &str) -> &str {
    let file = library_file.rsplit('/').next().unwrap_or(library_file);
    file.split('.').next().unwrap_or(file)
}

impl FilterCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        FilterCatalog::default()
    }

    /// Registers a factory under `name` (the filter repository). A name
    /// already registered keeps its loaded state.
    pub fn register(&mut self, name: impl Into<String>, factory: FilterFactory) {
        self.insert(name.into(), factory, false);
    }

    /// Registers a factory and immediately loads it (a "standard set"
    /// filter compiled into the SP, §5.2).
    pub fn register_loaded(&mut self, name: impl Into<String>, factory: FilterFactory) {
        self.insert(name.into(), factory, true);
    }

    fn insert(&mut self, name: String, factory: FilterFactory, load: bool) {
        let factory = Arc::new(factory);
        Arc::make_mut(&mut self.filters)
            .entry(name)
            .and_modify(|e| {
                e.factory = factory.clone();
                e.loaded |= load;
            })
            .or_insert(CatalogEntry { factory, loaded: load });
    }

    /// Loads a filter library file; returns the registered filter name.
    /// The file stem (e.g. `rdrop` from `/lib/rdrop.so`) selects the
    /// factory.
    pub fn load(&mut self, library_file: &str) -> Option<String> {
        let stem = library_stem(library_file);
        self.set_loaded(stem, true)?;
        Some(stem.to_string())
    }

    /// Unloads a filter library file; returns whether it was loaded.
    pub fn unload(&mut self, library_file: &str) -> bool {
        self.set_loaded(library_stem(library_file), false) == Some(true)
    }

    /// Sets `name`'s loaded flag; returns its previous value, or `None`
    /// (changing nothing) when no such factory is registered.
    fn set_loaded(&mut self, name: &str, loaded: bool) -> Option<bool> {
        let was = self.filters.get(name)?.loaded;
        if was != loaded {
            Arc::make_mut(&mut self.filters).get_mut(name)?.loaded = loaded;
        }
        Some(was)
    }

    /// Returns `true` if `name` is loaded and instantiable.
    pub fn is_loaded(&self, name: &str) -> bool {
        self.filters.get(name).is_some_and(|e| e.loaded)
    }

    /// Names of loaded filters, sorted.
    pub fn loaded_names(&self) -> Vec<String> {
        self.filters.iter().filter(|(_, e)| e.loaded).map(|(n, _)| n.clone()).collect()
    }

    /// The factory of `name`, if it is loaded.
    fn factory(&self, name: &str) -> Option<Arc<FilterFactory>> {
        self.filters.get(name).filter(|e| e.loaded).map(|e| e.factory.clone())
    }
}

/// A service request in the stream registry, as
/// [`FilterEngine::registrations`] reports it: apply `filter` to streams
/// matching `wild`.
#[derive(Debug, Clone)]
pub struct Registration {
    /// Registry slot.
    pub id: usize,
    /// Key pattern.
    pub wild: WildKey,
    /// Filter name.
    pub filter: String,
    /// Instantiation arguments.
    pub args: Vec<String>,
}

/// A registration as [`FilterEngine::register`] compiled it: factory, kind
/// and arguments resolved once, so that expanding a new flow clones and
/// looks up nothing. Its slot in the table is its id.
#[derive(Clone)]
struct Compiled {
    wild: WildKey,
    /// Catalog name, as an index into [`FilterEngine::kinds`].
    kind: u32,
    factory: Arc<FilterFactory>,
    args: Arc<[String]>,
}

/// Per-instance accounting (§5.2 "filter accounting").
#[derive(Clone, Copy, Debug, Default)]
pub struct InstanceStats {
    /// Packets inspected by the in method.
    pub pkts_seen: u64,
    /// Packets modified by the out method.
    pub pkts_modified: u64,
    /// Packets dropped by the out method.
    pub pkts_dropped: u64,
    /// Packets injected.
    pub pkts_injected: u64,
    /// Payload bytes removed (positive) or added (negative net effect is
    /// folded into `bytes_added`).
    pub bytes_removed: u64,
    /// Payload bytes added.
    pub bytes_added: u64,
    /// Capability violations blocked by the engine.
    pub violations: u64,
    /// Timer callbacks delivered to the instance. A count that grows while
    /// `pkts_seen` stands still is a timer doing no work for the stream.
    pub timer_fires: u64,
}

struct Instance {
    filter: Box<dyn Filter>,
    /// Catalog name, as an index into [`FilterEngine::kinds`] (and the
    /// parallel `kind_obs`).
    kind: u32,
    registration: usize,
    /// The keys `insert` returned, sorted and deduplicated.
    keys: Vec<StreamKey>,
    /// Creation stamp, unique and increasing: equal priorities queue in
    /// the order their instances were created, whichever slots they hold.
    seq: u64,
    priority: Priority,
    caps: Capabilities,
    stats: InstanceStats,
}

/// Bounded engine diagnostic log: keeps the most recent lines (violation
/// reports, filter events, teardown notices) up to a cap, counting what it
/// sheds — a violation-heavy stream must not grow memory without bound.
///
/// Dereferences to `[String]` — the retained lines, oldest first — so
/// indexing, slicing, and iteration read like the plain `Vec<String>` it
/// replaces.
#[derive(Clone, Debug)]
pub struct EngineLog {
    lines: ShedVec<String>,
    dropped: u64,
}

impl EngineLog {
    /// Default retention cap.
    pub const DEFAULT_MAX_ENTRIES: usize = 10_000;

    /// Creates an empty log with the default cap.
    pub fn new() -> Self {
        EngineLog {
            lines: ShedVec::new(Self::DEFAULT_MAX_ENTRIES),
            dropped: 0,
        }
    }

    /// Limits the number of retained lines (oldest dropped first, like
    /// `Trace::set_max_entries`). A cap of zero is treated as one.
    pub fn set_max_entries(&mut self, max: usize) {
        self.dropped += self.lines.set_cap(max) as u64;
    }

    /// Appends a line, shedding the oldest if at capacity.
    pub fn push(&mut self, line: String) {
        self.dropped += self.lines.push(line) as u64;
    }

    /// How many lines have been shed to stay under the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for EngineLog {
    fn default() -> Self {
        EngineLog::new()
    }
}

impl Deref for EngineLog {
    type Target = [String];
    fn deref(&self) -> &[String] {
        &self.lines
    }
}

/// Engine-level totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Packets offered to the engine.
    pub pkts: u64,
    /// Packets dropped by filters.
    pub drops: u64,
    /// Packets modified by filters.
    pub modified: u64,
    /// Packets injected by filters.
    pub injected: u64,
    /// Dispatches through the filter queues: one per keyed packet.
    pub batches: u64,
    /// Packets carried by those dispatches (equal to `batches`).
    pub batch_pkts: u64,
    /// Filter timer callbacks dispatched.
    pub timer_fires: u64,
    /// Filter instances created (one per registration a new flow matched).
    pub instances_created: u64,
    /// Filter instances removed: their stream closed, or their
    /// registration was deleted.
    pub instances_dropped: u64,
    /// Streams torn down after a filter reported them closed.
    pub streams_closed: u64,
}

/// Snapshot of one filter instance for monitoring tools.
#[derive(Clone, Debug)]
pub struct InstanceInfo {
    /// Instance slot (reused once the instance and its pending timers
    /// are gone).
    pub id: usize,
    /// Filter name.
    pub kind: String,
    /// Keys currently serviced.
    pub keys: Vec<StreamKey>,
    /// Priority.
    pub priority: Priority,
    /// Accounting counters.
    pub stats: InstanceStats,
}

/// The `engine`-scope counters as obs write sites.
#[derive(Clone, Default)]
struct EngineObs {
    pkts: LazyCounter,
    batches: LazyCounter,
    batch_pkts: LazyCounter,
    drops: LazyCounter,
    modified: LazyCounter,
    injected: LazyCounter,
    timer_fires: LazyCounter,
    instances_created: LazyCounter,
    instances_dropped: LazyCounter,
    streams_closed: LazyCounter,
}

/// One filter kind's counters as obs write sites (scope = the kind name).
#[derive(Clone, Default)]
struct KindObs {
    pkts: LazyCounter,
    bytes: LazyCounter,
    drops: LazyCounter,
    modified: LazyCounter,
    injected: LazyCounter,
    violations: LazyCounter,
    timer_fires: LazyCounter,
    /// Keys the filter supplies itself through [`FilterCtx::count`] /
    /// [`FilterCtx::gauge`], found by the address of the key literal (two
    /// literals that spell one key resolve to one cell all the same).
    counts: Vec<(&'static str, LazyCounter)>,
    gauges: Vec<(&'static str, LazyGauge)>,
}

/// The write site of `key` in a filter-supplied list, added on first use.
fn site<'a, T: Default>(sites: &'a mut Vec<(&'static str, T)>, key: &'static str) -> &'a mut T {
    let at = sites.iter().position(|(k, _)| std::ptr::eq(*k, key));
    let at = at.unwrap_or_else(|| {
        sites.push((key, T::default()));
        sites.len() - 1
    });
    &mut sites[at].1
}

/// The Service Proxy filtering engine.
pub struct FilterEngine {
    /// The filter pool.
    pub catalog: FilterCatalog,
    /// The stream registry, compiled, shared with snapshots of this engine
    /// until either side registers or deregisters ([`Arc::make_mut`]).
    registrations: Arc<Vec<Option<Compiled>>>,
    /// Bumped on every registration-set change; flow entries stamped with
    /// an older generation re-expand on their next packet.
    reg_generation: u64,
    /// Instance slots; a timer token and a flow's member list name an
    /// instance by slot. A slot is reused only once its instance is gone
    /// *and* no timer the instance armed is still pending, so a stale
    /// timer finds an empty slot, never a stranger.
    instances: Vec<Option<Instance>>,
    /// Per slot, timers armed and not yet fired.
    armed: Vec<u32>,
    /// Slots that are empty with nothing pending, reused last-freed first.
    free: Vec<usize>,
    /// The next instance's [`Instance::seq`].
    next_seq: u64,
    flows: FlowTable,
    /// Interned filter-kind names (tiny; linear scan on intern), one per
    /// registered name. Only `register` adds one, so snapshots share the
    /// list like the registrations.
    kinds: Arc<Vec<Arc<str>>>,
    /// Per-kind obs write sites, parallel to `kinds` up to the highest kind
    /// instantiated so far.
    kind_obs: Vec<KindObs>,
    engine_obs: EngineObs,
    /// Diagnostic log lines emitted by filters and the engine (bounded;
    /// see [`EngineLog`]).
    pub log: EngineLog,
    /// Engine totals.
    pub totals: EngineStats,
    pending_timers: Vec<(comma_netsim::time::SimDuration, u64)>,
    /// `expand_queue` scratch, kept for its capacity: the `(key,
    /// instance)` links a round makes.
    expand_links: Vec<(StreamKey, usize)>,
    /// Observability handle (disabled by default). When enabled, the engine
    /// keeps per-filter packet/byte/drop counters (scope = filter kind),
    /// forwards filter events to the flight recorder, and samples dispatch
    /// wall-clock latency (`wall.`-prefixed, never exported).
    obs: Obs,
}

impl FilterEngine {
    /// Creates an engine over a catalog.
    pub fn new(catalog: FilterCatalog) -> Self {
        FilterEngine {
            catalog,
            registrations: Arc::default(),
            reg_generation: 1,
            instances: Vec::new(),
            armed: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            flows: FlowTable::new(),
            kinds: Arc::default(),
            kind_obs: Vec::new(),
            engine_obs: EngineObs::default(),
            log: EngineLog::new(),
            totals: EngineStats::default(),
            pending_timers: Vec::new(),
            expand_links: Vec::new(),
            obs: Obs::new(),
        }
    }

    /// Interns a filter-kind name; repeated kinds share one slot.
    fn intern_kind(&mut self, name: &str) -> u32 {
        let at = self.kinds.iter().position(|k| &**k == name);
        at.unwrap_or_else(|| {
            let kinds = Arc::make_mut(&mut self.kinds);
            kinds.push(Arc::from(name));
            kinds.len() - 1
        }) as u32
    }

    /// Shares an observability handle with the engine (typically the
    /// simulator's). Replaces the default disabled handle, at any time:
    /// every cached write site checks which `Obs` it is shown, so the next
    /// write resolves against `obs` and nothing more reaches the old one.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The engine's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Adds a service registration: apply `filter` (with `args`) to streams
    /// matching `wild`. Fails if the filter is not loaded. The factory, the
    /// kind and the arguments are resolved here, once: unloading the filter
    /// later refuses new registrations, and a `delete` ends this one.
    pub fn register(
        &mut self,
        wild: WildKey,
        filter: &str,
        args: Vec<String>,
    ) -> Result<usize, String> {
        let factory = (self.catalog.factory(filter))
            .ok_or_else(|| format!("filter {filter} not loaded"))?;
        let kind = self.intern_kind(filter);
        let id = self.registrations.len();
        let args = Arc::from(args);
        Arc::make_mut(&mut self.registrations).push(Some(Compiled { wild, kind, factory, args }));
        // Existing flows matching the new registration pick it up on their
        // next packet: the generation bump invalidates their stamps, and
        // the applied-set check keeps expansion idempotent.
        self.reg_generation += 1;
        Ok(id)
    }

    /// Removes registrations of `filter` whose pattern equals `wild`, and
    /// tears down the instances they created. Returns how many
    /// registrations were removed.
    pub fn deregister(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        metrics: &dyn MetricsSource,
        filter: &str,
        wild: WildKey,
    ) -> usize {
        let mut removed_regs = Vec::new();
        for (id, slot) in Arc::make_mut(&mut self.registrations).iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|reg| {
                &*self.kinds[reg.kind as usize] == filter && reg.wild == wild
            }) {
                removed_regs.push(id);
                *slot = None;
            }
        }
        for &reg_id in &removed_regs {
            let victims: Vec<usize> = self
                .instances
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| {
                    slot.as_ref()
                        .filter(|inst| inst.registration == reg_id)
                        .map(|_| i)
                })
                .collect();
            for inst_id in victims {
                self.remove_instance(now, rng, metrics, inst_id);
            }
            for entry in self.flows.values_mut() {
                entry.unmark_applied(reg_id);
            }
        }
        if !removed_regs.is_empty() {
            self.reg_generation += 1;
        }
        removed_regs.len()
    }

    fn remove_instance(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        metrics: &dyn MetricsSource,
        inst_id: usize,
    ) {
        let Some(inst) = self.instances[inst_id].as_mut() else {
            return;
        };
        // Nothing follows a removal, so `on_removed` has nowhere to emit.
        let mut ctx = FilterCtx::new(now, rng, metrics);
        inst.filter.on_removed(&mut ctx);
        self.settle(&mut ctx, inst_id, &"removal", None);
        let inst = self.instances[inst_id].take().expect("checked above");
        self.totals.instances_dropped += 1;
        let (obs, eo) = (&self.obs, &mut self.engine_obs);
        eo.instances_dropped.inc(obs, "engine", "engine.instances_dropped");
        // A flow entry lists `m` ⇒ its key ∈ `instances[m].keys`:
        // `expand_queue` lists an instance under exactly the keys it
        // records, and `teardown_stream` drops a key from its members'
        // sets as it drops the entry. So the instance's own keys name
        // every entry that can still list it.
        for &k in &inst.keys {
            if let Some(entry) = self.flows.get_mut(k) {
                entry.members = entry.members.iter().copied().filter(|&m| m != inst_id).collect();
            }
        }
        debug_assert!(
            self.flows.iter().all(|(_, e)| !e.members.contains(&inst_id)),
            "a flow entry outside instance {inst_id}'s keys still lists it"
        );
        self.release_if_idle(inst_id);
    }

    /// Puts `slot` on the free list if its instance is gone and no timer
    /// it armed is pending. Called exactly when one of the two becomes
    /// true, so a slot is listed at most once.
    fn release_if_idle(&mut self, slot: usize) {
        if self.instances[slot].is_none() && self.armed[slot] == 0 {
            self.free.push(slot);
        }
    }

    /// Current registrations.
    pub fn registrations(&self) -> Vec<Registration> {
        (self.registrations.iter().enumerate())
            .filter_map(|(id, reg)| {
                let reg = reg.as_ref()?;
                Some(Registration {
                    id,
                    wild: reg.wild,
                    filter: self.kinds[reg.kind as usize].to_string(),
                    args: reg.args.to_vec(),
                })
            })
            .collect()
    }

    /// Monitoring snapshot of live filter instances.
    pub fn instance_infos(&self) -> Vec<InstanceInfo> {
        self.instances
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| {
                slot.as_ref().map(|inst| InstanceInfo {
                    id,
                    kind: self.kinds[inst.kind as usize].to_string(),
                    keys: inst.keys.clone(),
                    priority: inst.priority,
                    stats: inst.stats,
                })
            })
            .collect()
    }

    /// Active stream keys with the filters applied to each, in queue order
    /// (sorted by key for stable display).
    pub fn streams(&self) -> Vec<(StreamKey, Vec<String>)> {
        let mut out: Vec<(StreamKey, Vec<String>)> = self
            .flows
            .iter()
            .map(|(key, entry)| {
                let names = entry
                    .members
                    .iter()
                    .filter_map(|&m| self.instances[m].as_ref())
                    .map(|i| self.kinds[i.kind as usize].to_string())
                    .collect();
                (*key, names)
            })
            .collect();
        out.sort_by_key(|(key, _)| *key);
        out
    }

    /// Typed read access to every live instance of a filter kind
    /// (invariant sweeps), in slot order, collecting nothing.
    pub fn instances_ref<'a, T: 'static>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a T> + 'a {
        self.instances
            .iter()
            .flatten()
            .filter(move |i| &*self.kinds[i.kind as usize] == kind)
            .filter_map(|i| (&*i.filter as &dyn Any).downcast_ref::<T>())
    }

    /// Typed access to every live instance of a filter kind (tools).
    pub fn instances_as<T: 'static>(&mut self, kind: &str) -> Vec<&mut T> {
        self.instances
            .iter_mut()
            .flatten()
            .filter(|i| &*self.kinds[i.kind as usize] == kind)
            .filter_map(|i| (&mut *i.filter as &mut dyn Any).downcast_mut::<T>())
            .collect()
    }

    // ------------------------------------------------------------------
    // The packet path.
    // ------------------------------------------------------------------

    /// Runs a packet through the filter queues. Returns the packets to
    /// forward: empty if dropped, the (possibly modified) packet plus any
    /// injected packets otherwise.
    ///
    /// Tunneled traffic is intercepted *inside* its encapsulation: a proxy
    /// co-located with a Mobile IP agent path (§5.1.1's "merge the
    /// interception point with the FA") services the inner stream and
    /// re-wraps the results in the original tunnel header.
    pub fn process(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        metrics: &dyn MetricsSource,
        pkt: Packet,
    ) -> Vec<Packet> {
        let (mut out, mut dropped) = (Vec::new(), Vec::new());
        self.dispatch(now, rng, metrics, pkt, &mut out, &mut dropped);
        out
    }

    /// [`FilterEngine::process`] for each packet of `input` in turn, into
    /// caller-owned buffers: a caller that keeps the three vectors across
    /// calls (the Service Proxy node does) forwards a steady-state packet
    /// without allocating.
    ///
    /// `input` is drained. Each packet's survivors — the packet itself,
    /// then the injections it caused — are appended to `out`; an input
    /// packet that produced *no* output (dropped, nothing injected) is
    /// appended to `dropped` so callers can trace it. Both buffers are
    /// appended to, never cleared.
    pub fn process_batch(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        metrics: &dyn MetricsSource,
        input: &mut Vec<Packet>,
        out: &mut Vec<Packet>,
        dropped: &mut Vec<Packet>,
    ) {
        for pkt in input.drain(..) {
            self.dispatch(now, rng, metrics, pkt, out, dropped);
        }
    }

    /// The dispatch core: one packet through its stream's in queue
    /// (highest priority first, read-only) and out queue (lowest priority
    /// first, so higher priorities override), with every declared
    /// capability enforced by snapshot/diff/restore around each out method.
    fn dispatch(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        metrics: &dyn MetricsSource,
        mut pkt: Packet,
        out: &mut Vec<Packet>,
        dropped_out: &mut Vec<Packet>,
    ) {
        if let IpPayload::Encap(inner) = pkt.body {
            // Service the inner stream, then put the tunnel header back on
            // whatever came out of it, where it lies.
            let (out_from, dropped_from) = (out.len(), dropped_out.len());
            self.dispatch(now, rng, metrics, *inner, out, dropped_out);
            let (outs, drops) = (&mut out[out_from..], &mut dropped_out[dropped_from..]);
            for slot in outs.iter_mut().chain(drops) {
                let body = IpPayload::Icmp(IcmpMessage::RouterSolicitation); // placeholder
                let ip = pkt.ip.clone();
                let inner = std::mem::replace(slot, Packet { ip, body });
                slot.body = IpPayload::Encap(Box::new(inner));
            }
            return;
        }
        self.totals.pkts += 1;
        let (obs, eo) = (&self.obs, &mut self.engine_obs);
        eo.pkts.inc(obs, "engine", "engine.pkts");
        let Some(key) = StreamKey::of_packet(&pkt) else {
            out.push(pkt); // Non-keyed traffic passes through.
            return;
        };
        // One dispatch per keyed packet: `batch_pkts / batches` is 1.
        self.totals.batches += 1;
        self.totals.batch_pkts += 1;
        eo.batches.inc(obs, "engine", "engine.batches");
        eo.batch_pkts.inc(obs, "engine", "engine.batch_pkts");
        let members = self.queue_members(now, rng, metrics, key, out);
        if members.is_empty() {
            out.push(pkt);
            return;
        }
        // Host wall-clock dispatch latency; `wall.`-prefixed keys never
        // reach the deterministic export.
        let wall_start = self.obs.is_enabled().then(std::time::Instant::now);

        // Injections go straight to `out`; the packet itself is slotted in
        // ahead of them once the out pass has decided its fate.
        let out_from = out.len();
        let mut is_dropped = false;
        let mut is_modified = false;
        let mut ctx = FilterCtx::new(now, rng, metrics);
        // In pass: every member reads the packet, highest priority first.
        for &m in members.iter() {
            let Some(inst) = self.instances[m].as_mut() else {
                continue;
            };
            inst.stats.pkts_seen += 1;
            inst.filter.on_in(&mut ctx, key, &pkt);
            self.settle(&mut ctx, m, &key, Some(&mut *out));
        }
        // Out pass: a dropped packet is never shown to the remaining
        // filters. `snap` is the packet as the last authorized change left
        // it — what each `on_out` is diffed against and, on a violation,
        // rolled back to — so it is retaken only when a filter changed it.
        let mut snap = snapshot(&pkt);
        for &m in members.iter().rev() {
            if is_dropped {
                break;
            }
            let Some(inst) = self.instances[m].as_mut() else {
                continue;
            };
            let caps = inst.caps;
            let before_payload = payload_len(&snap);
            let verdict = inst.filter.on_out(&mut ctx, key, &mut pkt);
            let kind = &*self.kinds[inst.kind as usize];
            let stats = &mut inst.stats;
            let (hdr_changed, payload_changed) = diff(&snap, &pkt);
            let violated = (hdr_changed && !caps.allows(Capabilities::MODIFY_HEADERS))
                || (payload_changed && !caps.allows(Capabilities::MODIFY_PAYLOAD));
            let mut violations = 0u64;
            let mut modified = false;
            if violated {
                violations += 1;
                pkt = snap.clone();
                self.log.push(format!(
                    "engine: blocked unauthorized modification by {kind} on {key}"
                ));
            } else if hdr_changed || payload_changed {
                modified = true;
                is_modified = true;
                stats.pkts_modified += 1;
                let after_len = payload_len(&pkt);
                if after_len < before_payload {
                    stats.bytes_removed += (before_payload - after_len) as u64;
                } else {
                    stats.bytes_added += (after_len - before_payload) as u64;
                }
                snap = snapshot(&pkt);
            }
            if verdict == Verdict::Drop {
                if caps.allows(Capabilities::DROP) {
                    is_dropped = true;
                    stats.pkts_dropped += 1;
                } else {
                    violations += 1;
                    self.log.push(format!(
                        "engine: blocked unauthorized drop by {kind} on {key}"
                    ));
                }
            }
            stats.violations += violations;
            if self.obs.is_enabled() {
                let (obs, ko) = (&self.obs, &mut self.kind_obs[inst.kind as usize]);
                ko.pkts.inc(obs, kind, "filter.pkts");
                ko.bytes.add(obs, kind, "filter.bytes", before_payload as u64);
                if is_dropped {
                    ko.drops.inc(obs, kind, "filter.drops");
                }
                if modified {
                    ko.modified.inc(obs, kind, "filter.modified");
                }
                if violations > 0 {
                    ko.violations.add(obs, kind, "filter.violations", violations);
                }
            }
            self.settle(&mut ctx, m, &key, Some(&mut *out));
        }
        self.close_streams(&mut ctx);
        if is_dropped {
            self.totals.drops += 1;
            self.engine_obs.drops.inc(&self.obs, "engine", "engine.drops");
            if out.len() == out_from {
                dropped_out.push(pkt);
            } // else: the packet itself is consumed, its injections carry on.
        } else {
            if is_modified {
                self.totals.modified += 1;
                self.engine_obs.modified.inc(&self.obs, "engine", "engine.modified");
            }
            out.insert(out_from, pkt);
        }
        if let Some(t0) = wall_start {
            self.obs.hist(
                "engine",
                "wall.dispatch_ns",
                t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            );
        }
    }

    /// The one door out of a filter callback: applies whatever `insert`,
    /// `on_in`, `on_out`, `on_timer` or `on_removed` left in `ctx`, on
    /// behalf of the instance that was called (the table is on [`Filter`]).
    /// Injections are emitted into `out` if the instance declares
    /// [`Capabilities::INJECT`] and the callback has somewhere to emit
    /// (`out` is `None` for `on_removed`); otherwise they are a violation
    /// recorded against that instance, `whence` saying where. Stream-closed
    /// reports stay in `ctx` for [`FilterEngine::close_streams`].
    fn settle(
        &mut self,
        ctx: &mut FilterCtx<'_>,
        inst_id: usize,
        whence: &dyn fmt::Display,
        out: Option<&mut Vec<Packet>>,
    ) {
        if ctx.nothing_to_settle() {
            return;
        }
        let inst = self.instances[inst_id].as_mut().expect("the instance just called");
        let (obs, ko) = (&self.obs, &mut self.kind_obs[inst.kind as usize]);
        let kind = &*self.kinds[inst.kind as usize];
        if !ctx.injections.is_empty() {
            let n = ctx.injections.len() as u64;
            match out {
                Some(out) if inst.caps.allows(Capabilities::INJECT) => {
                    out.append(&mut ctx.injections);
                    inst.stats.pkts_injected += n;
                    self.totals.injected += n;
                    ko.injected.add(obs, kind, "filter.injected", n);
                    self.engine_obs.injected.add(obs, "engine", "engine.injected", n);
                }
                _ => {
                    ctx.injections.clear();
                    inst.stats.violations += n;
                    ko.violations.add(obs, kind, "filter.violations", n);
                    self.log.push(format!(
                        "engine: blocked unauthorized injection by {kind} on {whence}"
                    ));
                }
            }
        }
        self.armed[inst_id] += ctx.timers.len() as u32;
        for (delay, token) in ctx.timers.drain(..) {
            let enc = ((inst_id as u64) << 32) | (token & 0xffff_ffff);
            self.pending_timers.push((delay, enc));
        }
        // Events become proxy-log lines (and flight-recorder entries when
        // obs is enabled); counts and gauges land in the registry under the
        // filter-kind scope.
        let enabled = obs.is_enabled();
        for (name, fields) in ctx.events.drain(..) {
            let mut line = String::from(name);
            for (k, v) in &fields {
                line.push(' ');
                line.push_str(k);
                line.push('=');
                line.push_str(&v.to_string());
            }
            self.log.push(format!("{kind}: {line}"));
            if enabled {
                obs.event(ctx.now.as_micros(), kind, name, fields);
            }
        }
        for (key, n) in ctx.counts.drain(..) {
            if enabled {
                site(&mut ko.counts, key).add(obs, kind, key, n);
            }
        }
        for (key, v) in ctx.gauge_sets.drain(..) {
            if enabled {
                site(&mut ko.gauges, key).set(obs, kind, key, v);
            }
        }
        for (wild, filter, args) in ctx.service_requests.drain(..) {
            if let Err(e) = self.register(wild, &filter, args) {
                self.log
                    .push(format!("engine: service request rejected: {e}"));
            }
        }
    }

    /// Ends a round of callbacks (one packet's two passes, one timer):
    /// tears down the streams the round reported closed. Deferred to here
    /// so that no member of a queue disappears while the queue is walked.
    fn close_streams(&mut self, ctx: &mut FilterCtx<'_>) {
        for k in ctx.take_closed_streams() {
            self.teardown_stream(ctx.now, ctx.rng, ctx.metrics, k);
        }
    }

    /// Drains the timer requests produced by the last `process`/`on_timer`
    /// call; the owning node must arm these on its own timer facility. The
    /// buffer keeps its capacity for the next call.
    pub fn drain_pending_timers(
        &mut self,
    ) -> std::vec::Drain<'_, (comma_netsim::time::SimDuration, u64)> {
        self.pending_timers.drain(..)
    }

    /// Dispatches a filter timer (token as produced by
    /// [`FilterEngine::drain_pending_timers`]). Returns packets to inject.
    pub fn on_timer(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        metrics: &dyn MetricsSource,
        token: u64,
    ) -> Vec<Packet> {
        let inst_id = (token >> 32) as usize;
        // The fired timer no longer holds its slot (a token this engine
        // never issued holds nothing).
        let was_armed = self.armed.get(inst_id).is_some_and(|&n| n > 0);
        if was_armed {
            self.armed[inst_id] -= 1;
        }
        let Some(inst) = self.instances.get_mut(inst_id).and_then(Option::as_mut) else {
            if was_armed {
                self.release_if_idle(inst_id);
            }
            return Vec::new();
        };
        inst.stats.timer_fires += 1;
        self.totals.timer_fires += 1;
        let (obs, ko, eo) = (&self.obs, &mut self.kind_obs[inst.kind as usize], &mut self.engine_obs);
        ko.timer_fires.inc(obs, &self.kinds[inst.kind as usize], "filter.timer_fires");
        eo.timer_fires.inc(obs, "engine", "engine.timer_fires");
        let mut ctx = FilterCtx::new(now, rng, metrics);
        inst.filter.on_timer(&mut ctx, token & 0xffff_ffff);
        let mut out = Vec::new();
        self.settle(&mut ctx, inst_id, &"a timer", Some(&mut out));
        self.close_streams(&mut ctx);
        out
    }

    /// The per-packet flow lookup. Fast path: one FNV hash probe and a
    /// refcount bump on the cached member list. The wild-card registration
    /// scan and instantiation run only when the flow is new or the
    /// registration set changed since the flow was stamped.
    fn queue_members(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        metrics: &dyn MetricsSource,
        key: StreamKey,
        out: &mut Vec<Packet>,
    ) -> Arc<[usize]> {
        if let Some(entry) = self.flows.get(key) {
            if entry.generation == self.reg_generation {
                return Arc::clone(&entry.members);
            }
        }
        self.expand_queue(now, rng, metrics, key, out);
        Arc::clone(&self.flows.get(key).expect("flow entry").members)
    }

    /// Instantiates every registration that matches `key` and is not yet
    /// applied to it, and lists each new instance under the keys its
    /// `insert` returned. A launcher-style filter may register further
    /// services during `insert`, so this runs in rounds until nothing new
    /// matches (the applied-set check guarantees progress). A round walks
    /// the registrations present when it starts, clones none of them, and
    /// rebuilds each key it touched once, with one sort.
    fn expand_queue(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        metrics: &dyn MetricsSource,
        key: StreamKey,
        out: &mut Vec<Packet>,
    ) {
        let mut links = std::mem::take(&mut self.expand_links);
        for _round in 0..10 {
            // Instantiating one registration marks only itself applied, so
            // deciding each as it comes up picks the set a scan up front
            // would; what `insert` registers waits for the next round.
            let mut matched = false;
            for id in 0..self.registrations.len() {
                let applied = self.flows.get(key).is_some_and(|entry| entry.is_applied(id));
                let Some(reg) = self.registrations[id].as_ref() else {
                    continue;
                };
                if applied || !reg.wild.matches(key) {
                    continue;
                }
                matched = true;
                let kind = reg.kind;
                match (reg.factory)(&reg.args) {
                    Ok(filter) => {
                        let mut ctx = FilterCtx::new(now, rng, metrics);
                        let inst_id = self.place(&mut ctx, key, filter, kind, id, out);
                        let inst = self.instances[inst_id].as_ref().expect("just placed");
                        for &k in &inst.keys {
                            self.flows.entry(k).mark_applied(id);
                            links.push((k, inst_id));
                        }
                    }
                    Err(e) => {
                        let name = &self.kinds[kind as usize];
                        self.log.push(format!("engine: cannot instantiate {name}: {e}"));
                        // Mark applied so we do not retry per packet.
                        self.flows.entry(key).mark_applied(id);
                    }
                }
            }
            if !matched {
                break;
            }
            // In-method order: descending priority, then creation order.
            links.sort_unstable();
            for run in links.chunk_by(|a, b| a.0 == b.0) {
                let entry = self.flows.entry(run[0].0);
                // Exact-size, so collected straight into one allocation.
                let new = run.iter().map(|&(_, m)| m);
                let mut members: Arc<[usize]> = entry.members.iter().copied().chain(new).collect();
                Arc::get_mut(&mut members).expect("unshared").sort_by_key(|&m| {
                    let inst = self.instances[m].as_ref().expect("a listed member is live");
                    (std::cmp::Reverse(inst.priority), inst.seq)
                });
                entry.members = members;
            }
            links.clear();
        }
        // Stamp the flow (creating it if nothing matched) so the next
        // packet takes the fast path.
        self.flows.entry(key).generation = self.reg_generation;
        self.expand_links = links;
    }

    /// Inserts a new instance of registration `reg` on `key` into a free
    /// slot and settles what its `insert` asked for; returns the slot. What
    /// `insert` injects goes out ahead of the packet that brought the
    /// stream into being.
    fn place(
        &mut self,
        ctx: &mut FilterCtx<'_>,
        key: StreamKey,
        mut filter: Box<dyn Filter>,
        kind: u32,
        reg: usize,
        out: &mut Vec<Packet>,
    ) -> usize {
        let mut keys = filter.insert(ctx, key);
        keys.sort_unstable();
        keys.dedup();
        let inst = Some(Instance {
            priority: filter.priority(),
            caps: filter.capabilities(),
            filter,
            kind,
            registration: reg,
            keys,
            seq: self.next_seq,
            stats: InstanceStats::default(),
        });
        self.next_seq += 1;
        if self.kind_obs.len() <= kind as usize {
            self.kind_obs.resize_with(kind as usize + 1, KindObs::default);
        }
        self.totals.instances_created += 1;
        let (obs, eo) = (&self.obs, &mut self.engine_obs);
        eo.instances_created.inc(obs, "engine", "engine.instances_created");
        let inst_id = match self.free.pop() {
            Some(slot) => {
                self.instances[slot] = inst;
                slot
            }
            None => {
                self.instances.push(inst);
                self.armed.push(0);
                self.instances.len() - 1
            }
        };
        self.settle(ctx, inst_id, &key, Some(out));
        inst_id
    }

    /// Tears down the filter queues for `key` and its reverse; instances
    /// left with no keys are removed. Logs the close only when either key
    /// had an entry: a chain with two closers (`tcp … tcp`) reports every
    /// close twice.
    pub fn teardown_stream(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        metrics: &dyn MetricsSource,
        key: StreamKey,
    ) {
        let mut removed = false;
        for k in [key, key.reverse()] {
            let Some(entry) = self.flows.remove(k) else {
                continue;
            };
            removed = true;
            for &m in entry.members.iter() {
                if let Some(inst) = self.instances[m].as_mut() {
                    if let Ok(at) = inst.keys.binary_search(&k) {
                        inst.keys.remove(at);
                    }
                    if inst.keys.is_empty() {
                        self.remove_instance(now, rng, metrics, m);
                    }
                }
            }
        }
        if removed {
            self.totals.streams_closed += 1;
            let (obs, eo) = (&self.obs, &mut self.engine_obs);
            eo.streams_closed.inc(obs, "engine", "engine.streams_closed");
            self.log
                .push(format!("engine: stream {key} closed; filters removed"));
        }
    }

    /// Report body (§5.3): each loaded filter followed by the keys it
    /// services (wild-card registrations and live stream bindings).
    pub fn report_lines(&self, filter: Option<&str>) -> Vec<String> {
        let mut lines = Vec::new();
        let names: Vec<String> = match filter {
            Some(f) => {
                if self.catalog.is_loaded(f) {
                    vec![f.to_string()]
                } else {
                    return lines;
                }
            }
            None => self.catalog.loaded_names(),
        };
        for name in names {
            lines.push(name.clone());
            let mut keys: Vec<String> = Vec::new();
            for reg in self.registrations.iter().flatten() {
                if *self.kinds[reg.kind as usize] == *name && !reg.wild.is_exact() {
                    keys.push(reg.wild.to_string());
                }
            }
            for inst in self.instances.iter().flatten() {
                if *self.kinds[inst.kind as usize] == *name {
                    for k in &inst.keys {
                        keys.push(k.to_string());
                    }
                }
            }
            keys.dedup();
            for k in keys {
                lines.push(format!("\t{k}"));
            }
        }
        lines
    }
}

// Field added after the struct for readability of the main methods.
impl FilterEngine {
    /// Number of live filter instances.
    pub fn live_instances(&self) -> usize {
        self.instances.iter().flatten().count()
    }

    /// Whether [`FilterEngine::try_clone`] would succeed: every live
    /// instance passes [`Filter::can_clone`].
    pub fn can_clone(&self) -> bool {
        self.instances.iter().flatten().all(|inst| inst.filter.can_clone())
    }

    /// Copies the engine for a world snapshot. What a packet or timer can
    /// change is copied: filter instances clone through
    /// [`Filter::clone_filter`], and the flow table, slot bookkeeping and
    /// log clone plainly. What only a console command changes — the
    /// catalog's factory map with its loaded flags, and the registration
    /// table — is shared by refcount; every write to it goes through
    /// [`Arc::make_mut`], which copies it first while the other engine
    /// still holds it, so neither engine ever sees the other's change.
    /// Fails, naming the filter kind, when an instance does not support
    /// cloning.
    pub fn try_clone(&self) -> Result<FilterEngine, String> {
        let mut instances = Vec::with_capacity(self.instances.len());
        for slot in &self.instances {
            instances.push(match slot {
                None => None,
                Some(inst) => {
                    let filter = inst.filter.clone_filter().ok_or_else(|| {
                        let kind = &self.kinds[inst.kind as usize];
                        format!("filter {kind} does not implement clone_filter")
                    })?;
                    Some(Instance {
                        filter,
                        kind: inst.kind,
                        registration: inst.registration,
                        keys: inst.keys.clone(),
                        seq: inst.seq,
                        priority: inst.priority,
                        caps: inst.caps,
                        stats: inst.stats,
                    })
                }
            });
        }
        Ok(FilterEngine {
            catalog: self.catalog.clone(),
            registrations: self.registrations.clone(),
            reg_generation: self.reg_generation,
            instances,
            armed: self.armed.clone(),
            free: self.free.clone(),
            next_seq: self.next_seq,
            flows: self.flows.clone(),
            kinds: self.kinds.clone(),
            // Write sites go with the shared `obs` below: the copy adds into
            // the cells the original adds into.
            kind_obs: self.kind_obs.clone(),
            engine_obs: self.engine_obs.clone(),
            log: self.log.clone(),
            totals: self.totals,
            pending_timers: self.pending_timers.clone(),
            expand_links: Vec::new(),
            obs: self.obs.clone(),
        })
    }

    /// Folds behavior-relevant engine state — registration set, per-flow
    /// queue state, and every instance's [`Filter::state_digest`] — into a
    /// canonical world fingerprint. Counters and the diagnostic log are
    /// excluded.
    pub fn state_digest(&self, h: &mut comma_rt::digest::StateHasher) {
        h.update_u64(self.reg_generation);
        for (id, reg) in self.registrations.iter().enumerate() {
            if let Some(reg) = reg {
                h.update_u64(id as u64);
                reg.wild.state_digest(h);
                h.update(&*self.kinds[reg.kind as usize]);
            }
        }
        // Instance slot order records packet-arrival history (wildcard
        // registrations spawn an instance when a stream's first packet
        // shows up), while per-packet processing selects instances by
        // stream key — so slot order is not behavior. Each instance's word
        // names its kind and keys, and the words are folded as a sum, which
        // no order changes: schedules that converge on the same instance
        // set hash equal regardless of spawn order.
        let (mut live, mut insts) = (0u64, 0u64);
        for inst in self.instances.iter().flatten() {
            let mut sub = comma_rt::digest::StateHasher::new();
            sub.update(&*self.kinds[inst.kind as usize]);
            sub.update_u64(inst.keys.len() as u64);
            for k in &inst.keys {
                k.state_digest(&mut sub);
            }
            inst.filter.state_digest(&mut sub);
            live += 1;
            insts = insts.wrapping_add(sub.finish());
        }
        h.update_u64(live).update_u64(insts);
        self.flows.state_digest(h);
        // Timer tokens name instances, and instance numbering is arrival
        // history too; the delay alone is the behavior-relevant part.
        for (delay, _token) in &self.pending_timers {
            h.update_u64(delay.as_micros());
        }
    }
}

fn payload_len(pkt: &Packet) -> usize {
    match &pkt.body {
        IpPayload::Tcp(seg) => seg.payload.len(),
        IpPayload::Udp(d) => d.payload.len(),
        _ => 0,
    }
}

/// Detects whether a payload was modified without reading untouched bytes:
/// same `Bytes` view (pointer + offset + length) means provably unchanged;
/// different lengths mean provably changed; only a *replaced* same-length
/// buffer is compared, and that compare stops at the first differing byte.
fn payload_modified(before: &Bytes, after: &Bytes) -> bool {
    !before.ptr_eq(after) && (before.len() != after.len() || before[..] != after[..])
}

/// The copy of a packet that capability enforcement diffs each `on_out`
/// against and, on a violation, puts back. Payload bytes are shared, never
/// copied. The TCP case is spelled out so that it inlines into the dispatch
/// loop: `Packet::clone` is an out-of-line call into another crate
/// (EXPERIMENTS.md "PR 24").
#[inline]
fn snapshot(pkt: &Packet) -> Packet {
    match &pkt.body {
        IpPayload::Tcp(seg) => Packet {
            ip: pkt.ip.clone(),
            body: IpPayload::Tcp(TcpSegment {
                src_port: seg.src_port,
                dst_port: seg.dst_port,
                seq: seg.seq,
                ack: seg.ack,
                flags: seg.flags,
                window: seg.window,
                // Empty on data segments, so cloning it does not allocate.
                options: seg.options.clone(),
                payload: seg.payload.clone(),
            }),
        },
        _ => pkt.clone(),
    }
}

/// Classifies what `on_out` did to the packet as (header changed, payload
/// changed) — the capability-enforcement diff.
fn diff(before: &Packet, after: &Packet) -> (bool, bool) {
    match (&before.body, &after.body) {
        (IpPayload::Tcp(a), IpPayload::Tcp(b)) => {
            let hdr = before.ip != after.ip
                || a.src_port != b.src_port
                || a.dst_port != b.dst_port
                || a.seq != b.seq
                || a.ack != b.ack
                || a.flags != b.flags
                || a.window != b.window
                || a.options != b.options;
            (hdr, payload_modified(&a.payload, &b.payload))
        }
        (IpPayload::Udp(a), IpPayload::Udp(b)) => {
            let hdr =
                before.ip != after.ip || a.src_port != b.src_port || a.dst_port != b.dst_port;
            (hdr, payload_modified(&a.payload, &b.payload))
        }
        // ICMP/Encap never reach the keyed dispatch loop (no [`StreamKey`]);
        // a filter that replaced the body variant changed header and payload.
        _ => {
            let changed = before != after;
            (changed, changed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comma_netsim::packet::TcpFlags;

    #[test]
    fn engine_log_caps_retention_and_counts_dropped() {
        let mut log = EngineLog::new();
        log.set_max_entries(3);
        for i in 0..10 {
            log.push(format!("line {i}"));
        }
        assert_eq!(log.len(), 3, "retention is capped");
        assert_eq!(log.dropped(), 7, "shed lines are counted");
        assert_eq!(
            &log[..],
            &["line 7".to_string(), "line 8".to_string(), "line 9".to_string()],
            "most-recent lines are kept, oldest shed first"
        );
        // Lowering the cap trims immediately.
        log.set_max_entries(1);
        assert_eq!(&log[..], &["line 9".to_string()]);
        assert_eq!(log.dropped(), 9);
        // Deref keeps Vec-style call sites working.
        assert!(log.iter().any(|l| l.contains("line 9")));
    }

    #[test]
    fn engine_log_default_cap_bounds_violation_floods() {
        let mut log = EngineLog::new();
        for i in 0..(EngineLog::DEFAULT_MAX_ENTRIES + 500) {
            log.push(format!("engine: blocked unauthorized modification #{i}"));
        }
        assert_eq!(log.len(), EngineLog::DEFAULT_MAX_ENTRIES);
        assert_eq!(log.dropped(), 500);
    }

    #[test]
    fn payload_modified_is_identity_then_length_then_bytes() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let shared = a.clone();
        assert!(!payload_modified(&a, &shared), "same view: nothing is read");
        let equal_copy = Bytes::from(vec![1u8, 2, 3, 4]);
        assert!(
            !payload_modified(&a, &equal_copy),
            "distinct allocation, equal bytes: unchanged"
        );
        let changed = Bytes::from(vec![1u8, 2, 3, 5]);
        assert!(!changed.ptr_eq(&a) && changed.len() == a.len());
        assert!(payload_modified(&a, &changed), "fresh buffer, same length, one byte off");
        let longer = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        assert!(payload_modified(&a, &longer), "length change short-circuits");
    }

    /// A filter serving its own stream plus the `also` keys (launcher
    /// style: one instance, several keys).
    struct Multi {
        also: Vec<StreamKey>,
    }

    impl Filter for Multi {
        fn kind(&self) -> &'static str {
            "multi"
        }
        fn priority(&self) -> Priority {
            Priority::Normal
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::all()
        }
        fn insert(&mut self, _ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
            std::iter::once(key).chain(self.also.iter().copied()).collect()
        }
        fn on_out(&mut self, ctx: &mut FilterCtx<'_>, _key: StreamKey, pkt: &mut Packet) -> Verdict {
            ctx.count("multi.seen", 1);
            ctx.gauge("multi.ttl", pkt.ip.ttl as f64);
            Verdict::Continue
        }
    }

    fn key(n: u8) -> StreamKey {
        format!("1.2.3.{n} 5 6.7.8.9 10").parse().expect("stream key")
    }

    fn multi_engine(also: Vec<StreamKey>) -> (FilterEngine, SmallRng) {
        let mut catalog = FilterCatalog::new();
        catalog.register_loaded(
            "multi",
            Box::new(move |_args| Ok(Box::new(Multi { also: also.clone() }))),
        );
        let mut engine = FilterEngine::new(catalog);
        engine.register(WildKey::ANY, "multi", vec![]).expect("loaded");
        (engine, comma_rt::SeedableRng::seed_from_u64(1))
    }

    #[test]
    fn teardown_leaves_unrelated_member_lists_untouched() {
        let (mut engine, mut rng) = multi_engine(vec![]);
        let metrics = crate::filter::NullMetrics;
        let a = engine.queue_members(SimTime::ZERO, &mut rng, &metrics, key(1), &mut Vec::new());
        let b = engine.queue_members(SimTime::ZERO, &mut rng, &metrics, key(2), &mut Vec::new());
        assert_eq!((&a[..], &b[..]), (&[0][..], &[1][..]), "one instance per flow");
        engine.teardown_stream(SimTime::ZERO, &mut rng, &metrics, key(1));
        assert!(engine.flows.get(key(1)).is_none() && engine.instances[0].is_none());
        let after = engine.flows.members(key(2)).expect("flow 2 survives");
        assert!(Arc::ptr_eq(&b, &after), "flows sharing nothing keep their cached list");
    }

    #[test]
    fn instance_losing_one_key_keeps_serving_the_other() {
        let (mut engine, mut rng) = multi_engine(vec![key(9)]);
        let metrics = crate::filter::NullMetrics;
        engine.queue_members(SimTime::ZERO, &mut rng, &metrics, key(1), &mut Vec::new());
        assert_eq!(engine.instance_infos()[0].keys, vec![key(1), key(9)]);
        engine.teardown_stream(SimTime::ZERO, &mut rng, &metrics, key(1));
        assert_eq!(engine.instance_infos()[0].keys, vec![key(9)], "instance survives");
        assert_eq!(&engine.flows.members(key(9)).expect("other key stays")[..], &[0]);
        // Deregistering removes the instance through its remaining key.
        engine.deregister(SimTime::ZERO, &mut rng, &metrics, "multi", WildKey::ANY);
        assert!(engine.instance_infos().is_empty());
        assert!(engine.flows.members(key(9)).expect("entry stays").is_empty());
    }

    /// `kati> obs on` hands a live engine a new `Obs`: every cached write
    /// site (engine, kind, filter-supplied) must follow it, and nothing
    /// more may reach the old registry.
    #[test]
    fn set_obs_after_traffic_moves_every_write_to_the_new_handle() {
        let (mut engine, mut rng) = multi_engine(vec![]);
        let metrics = crate::filter::NullMetrics;
        let mut send = |engine: &mut FilterEngine, n: usize| {
            for _ in 0..n {
                let seg = TcpSegment::new(5, 10, 0, 0, TcpFlags::ACK);
                let pkt = Packet::tcp("1.2.3.1".parse().unwrap(), "6.7.8.9".parse().unwrap(), seg);
                assert_eq!(engine.process(SimTime::ZERO, &mut rng, &metrics, pkt).len(), 1);
            }
        };
        let read = |obs: &Obs| {
            [("engine", "engine.pkts"), ("engine", "engine.batches"), ("multi", "filter.pkts"), ("multi", "multi.seen")]
                .map(|(scope, key)| obs.counter(scope, key))
        };
        let (first, second) = (Obs::enabled(), Obs::enabled());
        engine.set_obs(first.clone());
        send(&mut engine, 3);
        assert_eq!(read(&first), [3; 4]);
        engine.set_obs(second.clone());
        send(&mut engine, 2);
        assert_eq!(read(&first), [3; 4], "the old registry is left as it was");
        assert_eq!(read(&second), [2; 4], "the new one sees only what came after");
        assert_eq!(second.gauge_value("multi", "multi.ttl"), Some(64.0));
        assert_eq!(engine.totals.pkts, 5);
    }

    type CallLog = Arc<std::sync::Mutex<Vec<String>>>;

    /// A stand-in for a filter of the pass-through chain, writing each
    /// callback it gets to a shared log as `<label> <callback>`. Like the
    /// real ones it serves its stream and the reverse; a `tcp` closes the
    /// stream on a RST, a `snoop` arms one tick when it is inserted (as the
    /// real one does on its first cached segment).
    struct Stub {
        label: String,
        priority: Priority,
        log: CallLog,
    }

    impl Filter for Stub {
        fn kind(&self) -> &'static str {
            "stub"
        }
        fn priority(&self) -> Priority {
            self.priority
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::READ_ONLY
        }
        fn insert(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey) -> Vec<StreamKey> {
            if self.label == "snoop" {
                ctx.set_timer(comma_netsim::time::SimDuration::from_millis(50), 7);
            }
            vec![key, key.reverse()]
        }
        fn on_in(&mut self, _ctx: &mut FilterCtx<'_>, _key: StreamKey, _pkt: &Packet) {
            self.log.lock().unwrap().push(format!("{} in", self.label));
        }
        fn on_out(&mut self, ctx: &mut FilterCtx<'_>, key: StreamKey, pkt: &mut Packet) -> Verdict {
            self.log.lock().unwrap().push(format!("{} out", self.label));
            if self.label.starts_with("tcp") && pkt.as_tcp().is_some_and(|s| s.flags.rst()) {
                ctx.stream_closed(key);
            }
            Verdict::Continue
        }
        fn on_timer(&mut self, _ctx: &mut FilterCtx<'_>, _token: u64) {
            self.log.lock().unwrap().push(format!("{} timer", self.label));
        }
    }

    /// An engine running `tcp, snoop, wsize, tcp` as stand-ins (the two
    /// `tcp`s labelled `tcp-a` and `tcp-b`), its rng, and the call log.
    fn chain_engine() -> (FilterEngine, SmallRng, CallLog) {
        let log = CallLog::default();
        let mut catalog = FilterCatalog::new();
        use Priority::{High, Highest, Lowest};
        for (name, priority) in [("tcp", Highest), ("snoop", High), ("wsize", Lowest)] {
            let log = log.clone();
            catalog.register_loaded(
                name,
                Box::new(move |args| {
                    let label = args.first().cloned().unwrap_or_else(|| name.to_string());
                    Ok(Box::new(Stub { label, priority, log: log.clone() }))
                }),
            );
        }
        let mut engine = FilterEngine::new(catalog);
        let (a, b) = (Some("tcp-a"), Some("tcp-b"));
        let chain = [("tcp", a), ("snoop", None), ("wsize", None), ("tcp", b)];
        for (name, label) in chain {
            let args = label.map(String::from).into_iter().collect();
            engine.register(WildKey::ANY, name, args).expect("loaded");
        }
        (engine, comma_rt::SeedableRng::seed_from_u64(1), log)
    }

    /// One packet of flow `n` (`key(n)`) with `flags`, through the engine.
    fn send(engine: &mut FilterEngine, rng: &mut SmallRng, n: u8, flags: TcpFlags) {
        let pkt = Packet::tcp(
            format!("1.2.3.{n}").parse().unwrap(),
            "6.7.8.9".parse().unwrap(),
            TcpSegment::new(5, 10, 0, 0, flags),
        );
        engine.process(SimTime::ZERO, rng, &crate::filter::NullMetrics, pkt);
    }

    /// Fires every timer the engine has asked for so far.
    fn fire_all(engine: &mut FilterEngine, rng: &mut SmallRng) {
        let tokens: Vec<(comma_netsim::time::SimDuration, u64)> =
            engine.drain_pending_timers().collect();
        for (_, token) in tokens {
            engine.on_timer(SimTime::ZERO, rng, &crate::filter::NullMetrics, token);
        }
    }

    /// Slot of the live instance labelled `label` (the stand-ins' labels
    /// are their catalog names, the `tcp`s aside).
    fn slot_of(engine: &FilterEngine, label: &str) -> usize {
        let (kind, nth) = match label {
            "tcp-a" => ("tcp", 0),
            "tcp-b" => ("tcp", 1),
            other => (other, 0),
        };
        let mut live: Vec<(u64, usize)> = (engine.instances.iter().enumerate())
            .filter_map(|(slot, i)| i.as_ref().map(|i| (i, slot)))
            .filter(|(i, _)| &*engine.kinds[i.kind as usize] == kind)
            .map(|(i, slot)| (i.seq, slot))
            .collect();
        live.sort_unstable();
        live[nth].1
    }

    /// N sequential flows, then N more: the engine holds as many slots as
    /// one flow needs, not one per instance ever created.
    #[test]
    fn sequential_flows_reuse_instance_slots() {
        let (mut engine, mut rng, _) = chain_engine();
        let mut flows = |engine: &mut FilterEngine, range: std::ops::Range<u8>| {
            for n in range {
                send(engine, &mut rng, n, TcpFlags::SYN);
                assert_eq!(engine.live_instances(), 4);
                send(engine, &mut rng, n, TcpFlags::RST);
                assert_eq!(engine.live_instances(), 0);
                fire_all(engine, &mut rng);
            }
        };
        flows(&mut engine, 0..20);
        let after_n = engine.instances.len();
        flows(&mut engine, 20..40);
        assert_eq!(engine.instances.len(), after_n, "slots after 2N flows");
        assert_eq!(after_n, 4, "one flow's worth");
        assert_eq!(engine.free.len(), 4, "every slot idle again");
    }

    /// Both `tcp`s of the chain report a RST's close; the stream is torn
    /// down and logged once, and a close of a stream with no entry logs
    /// nothing.
    #[test]
    fn a_closed_stream_logs_one_line() {
        let (mut engine, mut rng, _) = chain_engine();
        let closes = |engine: &FilterEngine| {
            engine.log.iter().filter(|l| l.ends_with("closed; filters removed")).count()
        };
        for n in 1..=3 {
            send(&mut engine, &mut rng, n, TcpFlags::SYN);
            send(&mut engine, &mut rng, n, TcpFlags::RST);
            assert_eq!(closes(&engine), n as usize, "after closing flow {n}");
        }
        let metrics = crate::filter::NullMetrics;
        engine.teardown_stream(SimTime::ZERO, &mut rng, &metrics, key(1));
        assert_eq!(closes(&engine), 3, "no entry, no line");
    }

    /// A tick armed by an instance that is then removed keeps its slot:
    /// the next flow is placed elsewhere, the tick reaches no live
    /// instance, and only then is the slot handed out again.
    #[test]
    fn a_pending_timer_holds_its_slot_until_it_fires() {
        let (mut engine, mut rng, log) = chain_engine();
        send(&mut engine, &mut rng, 1, TcpFlags::SYN);
        let held = slot_of(&engine, "snoop");
        send(&mut engine, &mut rng, 1, TcpFlags::RST);
        let tick: Vec<_> = engine.drain_pending_timers().collect();
        assert_eq!(tick.len(), 1, "flow 1's snoop armed one tick");
        assert_eq!(engine.armed[held], 1);

        send(&mut engine, &mut rng, 2, TcpFlags::SYN);
        assert!(engine.instances[held].is_none(), "the held slot stays empty");
        assert_eq!(engine.instances.len(), 5, "flow 2 took the three idle slots and a new one");
        engine.drain_pending_timers(); // flow 2's own tick never fires here

        log.lock().unwrap().clear();
        let out = engine.on_timer(SimTime::ZERO, &mut rng, &crate::filter::NullMetrics, tick[0].1);
        assert!(out.is_empty());
        let calls = std::mem::take(&mut *log.lock().unwrap());
        assert!(calls.is_empty(), "the stale tick reached {calls:?}");
        assert_eq!(engine.free, vec![held], "fired, the slot is idle");

        send(&mut engine, &mut rng, 3, TcpFlags::SYN);
        assert!(engine.instances[held].is_some(), "flow 3 reuses it");
        assert!(engine.free.is_empty());
    }

    /// Equal priorities queue in creation order, not slot order: after
    /// reuse hands `tcp-b` a lower slot than `tcp-a`, one packet still
    /// meets `tcp-a` first on the way in and last on the way out, exactly
    /// as on a fresh engine.
    #[test]
    fn equal_priorities_keep_creation_order_in_reused_slots() {
        let calls = |engine: &mut FilterEngine, rng: &mut SmallRng, log: &CallLog, n: u8| {
            send(engine, rng, n, TcpFlags::SYN);
            log.lock().unwrap().clear();
            send(engine, rng, n, TcpFlags::ACK);
            std::mem::take(&mut *log.lock().unwrap())
        };
        let (mut fresh, mut rng, log) = chain_engine();
        let want = calls(&mut fresh, &mut rng, &log, 1);
        assert_eq!(want[..2], ["tcp-a in", "tcp-b in"]);
        assert_eq!(want[6..], ["tcp-b out", "tcp-a out"]);

        let (mut reused, mut rng, log) = chain_engine();
        send(&mut reused, &mut rng, 1, TcpFlags::SYN);
        send(&mut reused, &mut rng, 1, TcpFlags::RST);
        fire_all(&mut reused, &mut rng);
        let got = calls(&mut reused, &mut rng, &log, 2);
        assert!(
            slot_of(&reused, "tcp-b") < slot_of(&reused, "tcp-a"),
            "the scenario must put the later instance in the lower slot"
        );
        assert_eq!(got, want);
    }
}
