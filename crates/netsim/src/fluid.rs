//! Fluid background traffic: aggregate many-user load at O(rate-change
//! epochs) cost instead of O(packets).
//!
//! A metro-scale cell serves thousands of background users, but what the
//! foreground proxy/TCP machinery actually experiences is the *residual
//! capacity* and *queue occupancy* those users leave behind — not the
//! identity of every competing packet. This module models a link's
//! background population as a set of fluid flows with seeded on/off
//! schedules and per-flow demand. A max-min fair-share solver (with the
//! packet-level foreground traffic as one always-backlogged participant)
//! re-solves only at *epochs* — flow arrivals/departures and capacity
//! changes — and the fluid queue evolves piecewise-linearly between
//! epochs, so it can be sampled lazily at packet-arrival times without
//! any extra events.
//!
//! Epoch times are quantized to a configurable grid
//! ([`FluidConfig::quantum`]): many user transitions in the same grid
//! slot share a single re-solve, which bounds the epoch count by
//! `horizon / quantum` per link — independent of the user count. Epochs
//! are not even events: the simulator catches a link up
//! (`FluidState::catch_up`) only when the link is read.
//!
//! Everything is integer or order-independent arithmetic driven by one
//! keyed [`SmallRng`] stream per link, so fluid-enabled topologies remain
//! byte-identical across partitionings, like every other keyed stream in
//! the simulator.

use comma_rt::digest::StateHasher;
use comma_rt::{Rng, SeedableRng, SmallRng};

use crate::time::{SimDuration, SimTime};

/// Max-min fair-share rates for `demands` sharing `capacity_bps` with
/// `greedy` additional always-backlogged (unbounded-demand) participants.
/// Returns the per-flow rates in input order; the greedy participants
/// split whatever the demand-limited flows leave behind.
///
/// The allocation is the exact integer water-filling solution: flows are
/// satisfied in ascending demand order while `demand * shares <=
/// remaining`; the rest share the remaining capacity equally, with the
/// integer remainder handed one bit/s at a time to the lowest-demand
/// unsatisfied flows. Deterministic, and monotone under departures:
/// removing a flow never decreases any remaining flow's rate.
pub fn max_min_rates(demands: &[u64], capacity_bps: u64, greedy: usize) -> Vec<u64> {
    let n = demands.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| (demands[i as usize], i));
    let mut rates = vec![0u64; n];
    let mut remaining = capacity_bps;
    let mut shares = (n + greedy) as u64;
    let mut idx = 0;
    while idx < n {
        let d = demands[order[idx] as usize];
        if (d as u128) * (shares as u128) <= remaining as u128 {
            rates[order[idx] as usize] = d;
            remaining -= d;
            shares -= 1;
            idx += 1;
        } else {
            break;
        }
    }
    if idx < n && shares > 0 {
        let q = remaining / shares;
        let mut extra = remaining % shares;
        for &i in &order[idx..] {
            let bump = u64::from(extra > 0);
            extra -= bump;
            rates[i as usize] = q + bump;
        }
    }
    rates
}

/// Aggregate form of [`max_min_rates`] for the epochs of a contended
/// link (an underloaded one is decided in O(1), see
/// [`FluidState::epoch`]): given the *ascending-sorted* active demands,
/// returns
/// `(background_total_bps, residual_bps)` where the residual is what the
/// `greedy` always-backlogged participants (the packet-level foreground
/// traffic) keep. `background_total + residual == capacity` whenever any
/// flow is unsatisfied, and the residual never falls below
/// `capacity / (flows + greedy)` — the foreground is a first-class
/// sharer, never starved.
pub fn max_min_allocate(sorted_demands: &[u64], capacity_bps: u64, greedy: usize) -> (u64, u64) {
    let mut remaining = capacity_bps;
    let mut shares = (sorted_demands.len() + greedy) as u64;
    let mut satisfied = 0u64;
    let mut k = 0usize;
    for &d in sorted_demands {
        if (d as u128) * (shares as u128) <= remaining as u128 {
            satisfied += d;
            remaining -= d;
            shares -= 1;
            k += 1;
        } else {
            break;
        }
    }
    let unsat = (sorted_demands.len() - k) as u64;
    if unsat > 0 && shares > 0 {
        let q = remaining / shares;
        let extra = unsat.min(remaining % shares);
        let bg = satisfied + q * unsat + extra;
        (bg, capacity_bps - bg)
    } else {
        (satisfied, remaining)
    }
}

/// Configuration of a link's fluid background-flow population.
#[derive(Clone, Debug)]
pub struct FluidConfig {
    /// Number of background users (fluid flows) on the link.
    pub users: usize,
    /// Mean per-flow demand while a flow is on, in bits per second.
    pub demand_bps: u64,
    /// Per-flow demand jitter: each flow's demand is drawn uniformly in
    /// `demand_bps ± demand_bps * jitter / 100` once at construction.
    pub demand_jitter_pct: u32,
    /// Mean duration of a flow's on period.
    pub mean_on: SimDuration,
    /// Mean duration of a flow's off period.
    pub mean_off: SimDuration,
    /// Flows first wake uniformly across this ramp after attachment, so
    /// load builds up instead of arriving as one synchronized step.
    pub arrival_ramp: SimDuration,
    /// Epoch grid: on/off transition times round up to a multiple of this
    /// quantum, so transitions sharing a slot cost one re-solve event.
    pub quantum: SimDuration,
}

impl FluidConfig {
    /// A metro-cell background population: `n` users at ~4 kbit/s mean
    /// demand (±50%), on ~2 s / off ~4 s, ramping in over 1 s, epochs on
    /// a 10 ms grid.
    pub fn users(n: usize) -> Self {
        FluidConfig {
            users: n,
            demand_bps: 4_000,
            demand_jitter_pct: 50,
            mean_on: SimDuration::from_secs(2),
            mean_off: SimDuration::from_secs(4),
            arrival_ramp: SimDuration::from_secs(1),
            quantum: SimDuration::from_millis(10),
        }
    }

    /// Returns `self` with the given mean per-flow demand.
    pub fn with_demand(mut self, bps: u64) -> Self {
        self.demand_bps = bps;
        self
    }

    /// Returns `self` with the given mean on/off durations.
    pub fn with_on_off(mut self, on: SimDuration, off: SimDuration) -> Self {
        self.mean_on = on;
        self.mean_off = off;
        self
    }

    /// Returns `self` with the given arrival ramp.
    pub fn with_ramp(mut self, ramp: SimDuration) -> Self {
        self.arrival_ramp = ramp;
        self
    }
}

/// One background user: a fixed demand and an on/off toggle.
#[derive(Clone, Copy, Debug)]
struct BgFlow {
    demand_bps: u64,
    /// Position in the population's `(demand, flow)` order, once ranked.
    rank: u32,
    on: bool,
}

/// Aggregate fluid statistics summed across channels (see
/// [`crate::sim::Simulator::fluid_totals`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FluidTotals {
    /// Channels with a fluid population attached.
    pub links: u64,
    /// Total background users across those channels.
    pub users: u64,
    /// Background flows currently in their on period.
    pub active: u64,
    /// Total rate-solver epochs executed.
    pub epochs: u64,
    /// Flow slots those epochs examined: one per applied toggle, plus the
    /// slots each solve read and the population once per rank build (see
    /// [`FluidState::flow_visits`]).
    /// Deterministic, so `flow_visits / epochs` is a noise-free gate on
    /// the per-epoch cost.
    pub flow_visits: u64,
}

impl FluidTotals {
    /// Accumulates another total into `self`.
    pub fn merge(&mut self, other: FluidTotals) {
        self.links += other.links;
        self.users += other.users;
        self.active += other.active;
        self.epochs += other.epochs;
        self.flow_visits += other.flow_visits;
    }
}

/// End of a [`Calendar`] slot list.
const NIL: u32 = u32::MAX;

/// Pending on/off toggles on the quantum grid. Every flow has exactly one
/// pending toggle, and every toggle lies fewer than `heads.len()` slots
/// past the last drained one (see [`FluidState::new`]), so a ring of slot
/// heads, each the first flow of a list threaded through `next`, holds
/// them all without a heap.
#[derive(Clone, Debug)]
struct Calendar {
    /// First flow of each slot's list, at ring position `slot % len`.
    heads: Vec<u32>,
    /// Per-flow link to the next flow of the same slot.
    next: Vec<u32>,
    /// First slot not yet drained: every pending toggle lies in
    /// `[cur, cur + heads.len())`.
    cur: u64,
}

impl Calendar {
    fn new(users: usize, slots: usize) -> Self {
        Calendar {
            heads: vec![NIL; slots],
            next: vec![NIL; users],
            cur: 0,
        }
    }

    fn at(&self, slot: u64) -> usize {
        (slot % self.heads.len() as u64) as usize
    }

    fn push(&mut self, slot: u64, flow: u32) {
        debug_assert!(
            slot >= self.cur && slot - self.cur < self.heads.len() as u64,
            "slot {slot} aliases inside the ring [{}, +{})",
            self.cur,
            self.heads.len()
        );
        let at = self.at(slot);
        self.next[flow as usize] = self.heads[at];
        self.heads[at] = flow;
    }

    /// Moves every toggle in slots `..= last` to `due` as `(slot, flow)`,
    /// slot by slot. Nothing is pushed back while draining, so a toggle
    /// rescheduled from `due` cannot land in a slot still to be drained,
    /// however many slots one call spans.
    fn drain_through(&mut self, last: u64, due: &mut Vec<(u64, u32)>) {
        for slot in self.cur..(last + 1).min(self.cur + self.heads.len() as u64) {
            let at = self.at(slot);
            let mut flow = std::mem::replace(&mut self.heads[at], NIL);
            while flow != NIL {
                due.push((slot, flow));
                flow = self.next[flow as usize];
            }
        }
        self.cur = self.cur.max(last + 1);
    }

    /// Earliest slot holding a toggle.
    fn first_pending(&self) -> Option<u64> {
        (self.cur..self.cur + self.heads.len() as u64).find(|&s| self.heads[self.at(s)] != NIL)
    }
}

/// Positions of the set bits of `bits`, ascending.
fn set_bits(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
            .take(word.count_ones() as usize)
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

/// The flows currently on: their count and demand sum, and — once a solve
/// has needed the order — a bitset over the population's demand rank.
/// Rank `r` is the `r`-th flow in ascending `(demand, flow)` order and its
/// bit is set while that flow is on, so a toggle flips one bit and an
/// ascending walk of the set bits reads the on demands sorted.
#[derive(Clone, Debug, Default)]
struct ActiveSet {
    /// Sum of the on flows' demands: the offered load.
    sum: u64,
    count: usize,
    /// Flow at each rank; empty until [`ActiveSet::build_rank`].
    by_rank: Vec<u32>,
    bits: Vec<u64>,
    /// The last contended solve's ascending demands (a reused buffer).
    sorted: Vec<u64>,
}

impl ActiveSet {
    /// Accounts for `flow`'s toggle to its current `on` state.
    fn toggle(&mut self, flow: &BgFlow) {
        if flow.on {
            self.sum += flow.demand_bps;
            self.count += 1;
        } else {
            self.sum -= flow.demand_bps;
            self.count -= 1;
        }
        if let Some(word) = self.bits.get_mut(flow.rank as usize / 64) {
            *word ^= 1 << (flow.rank % 64);
        }
    }

    /// Ranks the population once and sets the bits of the flows that are
    /// on; returns the flows visited.
    fn build_rank(&mut self, flows: &mut [BgFlow]) -> usize {
        self.by_rank = (0..flows.len() as u32).collect();
        self.by_rank.sort_unstable_by_key(|&i| (flows[i as usize].demand_bps, i));
        self.bits = vec![0; flows.len().div_ceil(64)];
        for (r, &i) in self.by_rank.iter().enumerate() {
            let flow = &mut flows[i as usize];
            flow.rank = r as u32;
            self.bits[r / 64] |= u64::from(flow.on) << (r % 64);
        }
        flows.len()
    }

    /// The largest on demand, read at the highest set bit (0 if none).
    fn d_max(&self, flows: &[BgFlow]) -> u64 {
        self.bits.iter().rposition(|&word| word != 0).map_or(0, |w| {
            let top = w * 64 + 63 - self.bits[w].leading_zeros() as usize;
            flows[self.by_rank[top] as usize].demand_bps
        })
    }

    /// The on demands in ascending order, walked from the bitset.
    fn sorted(&mut self, flows: &[BgFlow]) -> &[u64] {
        self.sorted.clear();
        self.sorted
            .extend(set_bits(&self.bits).map(|r| flows[self.by_rank[r] as usize].demand_bps));
        &self.sorted
    }
}

/// Per-link fluid background state: the flow population, its pending
/// on/off schedule, and the current max-min allocation.
///
/// Driven by [`FluidState::epoch`] at quantized transition times, applied
/// in order by `FluidState::catch_up` when the state is read; between
/// epochs the fluid queue is sampled lazily via
/// [`FluidState::queue_bytes_at`].
#[derive(Clone, Debug)]
pub struct FluidState {
    cfg: FluidConfig,
    quantum_us: u64,
    flows: Vec<BgFlow>,
    /// Largest demand in the population: bounds every active set's
    /// largest, so `offered + max_demand <= capacity` proves an underload
    /// without reading the order.
    max_demand: u64,
    toggles: Calendar,
    /// Toggles the last epoch applied, as `(slot, flow)` in application
    /// order (a reused buffer).
    due: Vec<(u64, u32)>,
    rng: SmallRng,
    active: ActiveSet,
    /// Capacity the last epoch solved against, or a requested re-solve
    /// will ([`FluidState::solve_at`]).
    capacity_bps: u64,
    bg_rate_bps: u64,
    residual_bps: u64,
    /// Fluid queue growth between epochs, bytes per microsecond (signed:
    /// negative drains).
    growth_bytes_per_us: f64,
    queue_bytes: f64,
    queue_as_of: SimTime,
    epochs: u64,
    flow_visits: u64,
    /// See [`FluidState::next_epoch`].
    next_epoch: Option<SimTime>,
}

impl FluidState {
    /// Builds the population from a config and a stream seed (derive it
    /// with the keyed scheme; see
    /// [`crate::sim::Simulator::attach_fluid`]). Toggle schedules are
    /// absolute from simulation start.
    ///
    /// A toggle applied at `now` lands at most
    /// `ceil(1.5 × max(mean_on, mean_off) / quantum) + 1` slots past
    /// `now`'s, and a first arrival at most `ceil(arrival_ramp / quantum)`
    /// past slot 0, so a ring of `max(1.5 × max(mean_on, mean_off),
    /// arrival_ramp) / quantum + 2` slots never aliases two pending slots.
    pub fn new(cfg: FluidConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let quantum_us = cfg.quantum.as_micros().max(1);
        let ramp = cfg.arrival_ramp.as_micros();
        let mean = cfg.mean_on.max(cfg.mean_off).as_micros().max(1);
        let slots = (mean + mean / 2).max(ramp) / quantum_us + 2;
        let jitter = cfg.demand_bps * cfg.demand_jitter_pct as u64 / 100;
        let lo = cfg.demand_bps.saturating_sub(jitter).max(1);
        let hi = cfg.demand_bps + jitter;
        let mut flows = Vec::with_capacity(cfg.users);
        let mut toggles = Calendar::new(cfg.users, slots as usize);
        let mut max_demand = 0;
        for i in 0..cfg.users {
            let demand_bps = lo + rng.next_u64() % (hi - lo + 1);
            max_demand = max_demand.max(demand_bps);
            flows.push(BgFlow {
                demand_bps,
                rank: 0,
                on: false,
            });
            let arrive = if ramp == 0 {
                1
            } else {
                (rng.next_u64() % (ramp + 1)).div_ceil(quantum_us).max(1)
            };
            toggles.push(arrive, i as u32);
        }
        let next_epoch = toggles.first_pending().map(|slot| SimTime::from_micros(slot * quantum_us));
        FluidState {
            cfg,
            quantum_us,
            flows,
            max_demand,
            toggles,
            due: Vec::new(),
            rng,
            active: ActiveSet::default(),
            capacity_bps: 0,
            bg_rate_bps: 0,
            residual_bps: 0,
            growth_bytes_per_us: 0.0,
            queue_bytes: 0.0,
            queue_as_of: SimTime::ZERO,
            epochs: 0,
            flow_visits: 0,
            next_epoch,
        }
    }

    /// Uniform draw in `[mean/2, 3*mean/2]` (mean-preserving, bounded away
    /// from zero so a flow never toggles twice in the same instant).
    fn draw_duration(rng: &mut SmallRng, mean: SimDuration) -> u64 {
        let m = mean.as_micros().max(1);
        m / 2 + rng.next_u64() % (m + 1)
    }

    /// Advances the model to `now`: integrates the fluid queue at the old
    /// rates, applies every due on/off transition, re-solves the max-min
    /// allocation against `capacity_bps` (foreground as one greedy
    /// participant), and returns the time of the next pending epoch.
    /// Costs O(1) per due transition while the link is underloaded. The
    /// first epoch that cannot prove an underload ranks the population
    /// once (O(n log n)); from then on a transition also flips one bit, and
    /// a contended epoch walks the bitset.
    pub fn epoch(
        &mut self,
        now: SimTime,
        capacity_bps: u64,
        queue_limit_bytes: usize,
    ) -> Option<SimTime> {
        self.queue_bytes = self.queue_bytes_at_f(now, queue_limit_bytes);
        self.queue_as_of = now;
        let now_us = now.as_micros();
        let q = self.quantum_us;
        self.due.clear();
        self.toggles.drain_through(now_us / q, &mut self.due);
        // `(slot, flow)` order is the order a `(time, flow)` min-heap pops
        // them in, so the duration draws below come off the stream in the
        // same order whatever the slot lists' order.
        self.due.sort_unstable();
        for k in 0..self.due.len() {
            let i = self.due[k].1;
            let flow = &mut self.flows[i as usize];
            flow.on = !flow.on;
            let on = flow.on;
            self.active.toggle(flow);
            self.flow_visits += 1;
            let mean = if on { self.cfg.mean_on } else { self.cfg.mean_off };
            let dur = Self::draw_duration(&mut self.rng, mean);
            self.toggles.push((now_us + dur).div_ceil(q).max(now_us / q + 1), i);
        }
        // The water-filling solver satisfies sorted flow `j` iff
        // `S_j + d_j * (N - j + 1) <= capacity` (`S_j` the sum of the
        // demands below it, `+ 1` the greedy foreground). That left side
        // is non-decreasing in `j` — it grows by
        // `(d_{j+1} - d_j) * (N - j)` per step — so everyone is satisfied
        // iff the last flow is: `offered + d_max <= capacity`. `d_max` is
        // at most `max_demand`, so passing with `max_demand` decides it
        // without the order; only a failure reads `d_max` off the rank
        // bitset (built the first time), and only a contended link walks it.
        let offered = self.active.sum;
        let fits = |d: u64| offered as u128 + d as u128 <= capacity_bps as u128;
        let underloaded = fits(self.max_demand) || {
            if self.active.by_rank.is_empty() {
                self.flow_visits += self.active.build_rank(&mut self.flows) as u64;
            }
            fits(self.active.d_max(&self.flows))
        };
        let (bg, residual) = if underloaded {
            self.flow_visits += 1;
            (offered, capacity_bps - offered)
        } else {
            self.flow_visits += self.active.count as u64;
            max_min_allocate(self.active.sorted(&self.flows), capacity_bps, 1)
        };
        self.capacity_bps = capacity_bps;
        self.bg_rate_bps = bg;
        self.residual_bps = residual;
        // The fluid queue absorbs whatever the population offers beyond
        // line rate and drains on spare capacity; the clamp in the lazy
        // integration keeps it within [0, queue_limit].
        self.growth_bytes_per_us = (offered as f64 - capacity_bps as f64) / 8e6;
        self.epochs += 1;
        debug_assert_eq!(self.check_invariants(), Ok(()));
        self.next_epoch = self.toggles.first_pending().map(|slot| SimTime::from_micros(slot * q));
        self.next_epoch
    }

    /// Applies every epoch due by `through`, each at its own time and in
    /// order, at `capacity_bps`; returns the last one's time (`None` when
    /// already current). A link caught up late ends where one stepped epoch
    /// by epoch ends, provided the capacity held in between — which is why
    /// capacity changes go through the simulator's `set_link_bandwidth`.
    /// It panics at any other capacity than the one last solved or
    /// requested, rather than run those epochs at one they never had.
    pub(crate) fn catch_up(
        &mut self,
        through: SimTime,
        capacity_bps: u64,
        queue_limit_bytes: usize,
    ) -> Option<SimTime> {
        assert_eq!(capacity_bps, self.capacity_bps, "fluid capacity changed without a re-solve");
        let mut last = None;
        while let Some(at) = self.next_epoch.filter(|&at| at <= through) {
            self.epoch(at, capacity_bps, queue_limit_bytes);
            last = Some(at);
        }
        last
    }

    /// Requests a re-solve at `at` against `capacity_bps`: the next
    /// [`FluidState::catch_up`] through `at` runs an epoch there.
    pub(crate) fn solve_at(&mut self, at: SimTime, capacity_bps: u64) {
        self.capacity_bps = capacity_bps;
        self.next_epoch = Some(self.next_epoch.map_or(at, |next| next.min(at)));
    }

    /// Time of the next epoch: the first pending toggle's slot, or an
    /// earlier re-solve the simulator requested.
    pub fn next_epoch(&self) -> Option<SimTime> {
        self.next_epoch
    }

    /// Feeds the RNG stream, the next epoch, the active count and load,
    /// the capacity and the fluid queue into `h` (see
    /// `Simulator::state_hash`); the diagnostic counters stay out.
    pub fn state_digest(&self, h: &mut StateHasher) {
        let next = self.next_epoch.map_or(u64::MAX, SimTime::as_micros);
        let (active, queue) = (self.active.count as u64, self.queue_bytes.to_bits());
        let queue_as_of = self.queue_as_of.as_micros();
        let tail = [next, active, self.active.sum, self.capacity_bps, queue, queue_as_of];
        for w in self.rng.state_words().into_iter().chain(tail) {
            h.update_u64(w);
        }
    }

    fn queue_bytes_at_f(&self, now: SimTime, queue_limit_bytes: usize) -> f64 {
        let dt = now.as_micros().saturating_sub(self.queue_as_of.as_micros()) as f64;
        (self.queue_bytes + self.growth_bytes_per_us * dt).clamp(0.0, queue_limit_bytes as f64)
    }

    /// Fluid queue occupancy at `now` (lazy piecewise-linear sample; no
    /// state change).
    pub fn queue_bytes_at(&self, now: SimTime, queue_limit_bytes: usize) -> u64 {
        self.queue_bytes_at_f(now, queue_limit_bytes) as u64
    }

    /// Bandwidth left to packet-level foreground traffic after the
    /// background allocation, as of the last epoch.
    pub fn residual_bps(&self) -> u64 {
        self.residual_bps
    }

    /// Aggregate background rate as of the last epoch.
    pub fn bg_rate_bps(&self) -> u64 {
        self.bg_rate_bps
    }

    /// Flows currently in their on period.
    pub fn active_flows(&self) -> usize {
        self.active.count
    }

    /// Configured population size.
    pub fn users(&self) -> usize {
        self.flows.len()
    }

    /// Epochs (rate re-solves) executed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Flow slots examined by all epochs so far: one per applied toggle,
    /// plus per solve either one (when an O(1) underload test decides) or
    /// the on flows a contended solve walks out of the rank bitset and
    /// hands to the water-filling solver (an upper bound: it stops at the
    /// first unsatisfied flow), plus the whole population once, when the
    /// link builds its rank. The build's sort, the bitset's empty words
    /// and the calendar's slot walk are not counted.
    pub fn flow_visits(&self) -> u64 {
        self.flow_visits
    }

    /// Demands of the flows currently in their on period, in flow-index
    /// order, read from the per-flow ground truth rather than the
    /// maintained active set — what a from-scratch re-solve starts from.
    pub fn on_demands(&self) -> impl Iterator<Item = u64> + '_ {
        self.flows.iter().filter(|f| f.on).map(|f| f.demand_bps)
    }

    /// Checks the incrementally maintained state against the per-flow
    /// ground truth. The active set's count and sum (the offered load) are
    /// the on flows'. Once the rank is built, it orders the whole
    /// population strictly ascending by `(demand, flow)` with each flow
    /// knowing its rank, and the bitset holds exactly `count` bits, each
    /// the rank of a flow that is on. No more than the offered load is
    /// allocated, and a link with an unsatisfied flow is fully allocated.
    /// Allocation-free; asserted after every epoch in debug builds.
    pub fn check_invariants(&self) -> Result<(), String> {
        let a = &self.active;
        let (count, sum) = self.on_demands().fold((0, 0u128), |(n, s), d| (n + 1, s + d as u128));
        if (a.count, a.sum as u128) != (count, sum) {
            return Err(format!(
                "active set holds {} flows offering {}, the on flows {count} offering {sum}",
                a.count, a.sum
            ));
        }
        if !a.by_rank.is_empty() {
            let key = |r: usize| (self.flows[a.by_rank[r] as usize].demand_bps, a.by_rank[r]);
            let misranked = (0..a.by_rank.len()).find(|&r| {
                self.flows[key(r).1 as usize].rank as usize != r || r > 0 && key(r - 1) >= key(r)
            });
            if a.by_rank.len() != self.flows.len() || misranked.is_some() {
                let n = a.by_rank.len();
                return Err(format!("{n} ranks, first out of order: {misranked:?}"));
            }
            let ones: u32 = a.bits.iter().map(|w| w.count_ones()).sum();
            let stray = set_bits(&a.bits)
                .find(|&r| a.by_rank.get(r).is_none_or(|&i| !self.flows[i as usize].on));
            if ones as usize != a.count || stray.is_some() {
                return Err(format!(
                    "{ones} rank bits for {} on flows; first bit of no on flow: {stray:?}",
                    a.count
                ));
            }
        }
        let offered = a.sum;
        if self.bg_rate_bps > offered {
            return Err(format!(
                "background rate {} exceeds offered load {offered}",
                self.bg_rate_bps
            ));
        }
        if self.bg_rate_bps < offered
            && self.bg_rate_bps + self.residual_bps != self.capacity_bps
        {
            return Err(format!(
                "unsatisfied flows but {} + {} != capacity {}",
                self.bg_rate_bps, self.residual_bps, self.capacity_bps
            ));
        }
        Ok(())
    }
}

/// The toggle queue and active set [`FluidState`] used before the grid
/// calendar and the rank bitset: a `(time, flow)` min-heap and a `Vec`
/// kept sorted by one insert or remove per toggle. Kept as the model the
/// calendar's application order, the bitset's ascending walk and every
/// solved rate must match.
#[cfg(test)]
mod reference {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    pub(super) struct HeapFluid {
        cfg: FluidConfig,
        quantum_us: u64,
        flows: Vec<BgFlow>,
        toggles: BinaryHeap<Reverse<(u64, u32)>>,
        rng: SmallRng,
        /// Demands of the flows that are on, ascending.
        pub(super) active: Vec<u64>,
        offered: u64,
        pub(super) bg_rate_bps: u64,
        pub(super) residual_bps: u64,
    }

    impl HeapFluid {
        pub(super) fn new(cfg: FluidConfig, seed: u64) -> Self {
            let mut rng = SmallRng::seed_from_u64(seed);
            let quantum_us = cfg.quantum.as_micros().max(1);
            let ramp = cfg.arrival_ramp.as_micros();
            let jitter = cfg.demand_bps * cfg.demand_jitter_pct as u64 / 100;
            let lo = cfg.demand_bps.saturating_sub(jitter).max(1);
            let hi = cfg.demand_bps + jitter;
            let mut flows = Vec::with_capacity(cfg.users);
            let mut toggles = BinaryHeap::with_capacity(cfg.users);
            for i in 0..cfg.users {
                let demand_bps = lo + rng.next_u64() % (hi - lo + 1);
                flows.push(BgFlow {
                    demand_bps,
                    rank: 0,
                    on: false,
                });
                let arrive = if ramp == 0 {
                    quantum_us
                } else {
                    (rng.next_u64() % (ramp + 1)).div_ceil(quantum_us).max(1) * quantum_us
                };
                toggles.push(Reverse((arrive, i as u32)));
            }
            HeapFluid {
                cfg,
                quantum_us,
                flows,
                toggles,
                rng,
                active: Vec::new(),
                offered: 0,
                bg_rate_bps: 0,
                residual_bps: 0,
            }
        }

        /// [`FluidState::epoch`] without the queue; appends each toggle it
        /// applies to `applied` as `(time µs, flow)`.
        pub(super) fn epoch(
            &mut self,
            now: SimTime,
            capacity_bps: u64,
            applied: &mut Vec<(u64, u32)>,
        ) -> Option<SimTime> {
            let now_us = now.as_micros();
            while let Some(&Reverse((t, i))) = self.toggles.peek() {
                if t > now_us {
                    break;
                }
                self.toggles.pop();
                applied.push((t, i));
                let flow = &mut self.flows[i as usize];
                flow.on = !flow.on;
                let (on, d) = (flow.on, flow.demand_bps);
                let at = self.active.partition_point(|&x| x < d);
                if on {
                    self.active.insert(at, d);
                    self.offered += d;
                } else {
                    self.active.remove(at);
                    self.offered -= d;
                }
                let mean = if on { self.cfg.mean_on } else { self.cfg.mean_off };
                let dur = FluidState::draw_duration(&mut self.rng, mean);
                let next = (now_us + dur)
                    .div_ceil(self.quantum_us)
                    .max(now_us / self.quantum_us + 1)
                    * self.quantum_us;
                self.toggles.push(Reverse((next, i)));
            }
            let d_max = self.active.last().copied().unwrap_or(0);
            let offered = self.offered;
            (self.bg_rate_bps, self.residual_bps) =
                if offered as u128 + d_max as u128 <= capacity_bps as u128 {
                    (offered, capacity_bps - offered)
                } else {
                    max_min_allocate(&self.active, capacity_bps, 1)
                };
            self.toggles
                .peek()
                .map(|&Reverse((t, _))| SimTime::from_micros(t))
        }

        pub(super) fn active_flows(&self) -> usize {
            self.active.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_underload_satisfies_everyone() {
        // 3 flows of 1000 bps on a 10 kbit link: all satisfied, the
        // foreground keeps the rest.
        let (bg, residual) = max_min_allocate(&[1_000, 1_000, 1_000], 10_000, 1);
        assert_eq!(bg, 3_000);
        assert_eq!(residual, 7_000);
    }

    #[test]
    fn allocate_overload_saturates_and_protects_foreground() {
        let demands: Vec<u64> = vec![5_000; 10]; // 50 kbit offered on 10 kbit.
        let (bg, residual) = max_min_allocate(&demands, 10_000, 1);
        assert_eq!(bg + residual, 10_000, "saturated link fully allocated");
        // The foreground is one of 11 equal sharers of a saturated link.
        assert_eq!(residual, 10_000 / 11);
    }

    #[test]
    fn rates_match_aggregate_and_respect_demands() {
        let demands = [400u64, 9_000, 200, 4_000, 4_000];
        let mut sorted = demands.to_vec();
        sorted.sort_unstable();
        let (bg, _residual) = max_min_allocate(&sorted, 10_000, 1);
        let rates = max_min_rates(&demands, 10_000, 1);
        assert_eq!(rates.iter().sum::<u64>(), bg);
        for (r, d) in rates.iter().zip(demands.iter()) {
            assert!(r <= d, "rate {r} exceeds demand {d}");
        }
        // Small flows fit under the fair share and are fully satisfied.
        assert_eq!(rates[0], 400);
        assert_eq!(rates[2], 200);
    }

    #[test]
    fn epoch_count_bounded_by_grid_not_users() {
        // 10× the users on the same quantum grid: epochs (distinct grid
        // slots with transitions) cannot grow 10×.
        let horizon = SimTime::from_secs(5);
        let count = |users: usize| {
            let mut fs = FluidState::new(FluidConfig::users(users), 42);
            let mut t = SimTime::ZERO;
            let mut n = 0u64;
            while let Some(next) = fs.epoch(t, 8_000_000, 32 * 1024) {
                fs.check_invariants().expect("fluid invariants");
                if next > horizon {
                    break;
                }
                t = next;
                n += 1;
            }
            n
        };
        let small = count(500);
        let big = count(5_000);
        assert!(small > 0);
        assert!(
            big <= small * 2,
            "epochs must track grid slots, not users: {small} vs {big}"
        );
        // Both are bounded by the number of grid slots in the horizon.
        let slots = horizon.as_micros() / SimDuration::from_millis(10).as_micros();
        assert!(big <= slots + 1, "epochs {big} exceed grid slots {slots}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FluidState::new(FluidConfig::users(300), 7);
        let mut b = FluidState::new(FluidConfig::users(300), 7);
        let mut t = SimTime::ZERO;
        for _ in 0..200 {
            let na = a.epoch(t, 8_000_000, 32 * 1024);
            let nb = b.epoch(t, 8_000_000, 32 * 1024);
            assert_eq!(na, nb);
            a.check_invariants().expect("fluid invariants");
            assert_eq!(a.active_flows(), b.active_flows());
            assert_eq!(a.residual_bps(), b.residual_bps());
            assert_eq!(
                a.queue_bytes_at(t, 32 * 1024),
                b.queue_bytes_at(t, 32 * 1024)
            );
            match na {
                Some(next) => t = next,
                None => break,
            }
        }
        assert!(a.epochs() >= 100);
    }

    #[test]
    fn queue_grows_under_overload_and_drains_after() {
        let cfg = FluidConfig::users(64)
            .with_demand(1_000_000) // 64 Mbit offered on an 8 Mbit link.
            .with_ramp(SimDuration::from_millis(100));
        let mut fs = FluidState::new(cfg, 3);
        let limit = 32 * 1024;
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(2) {
            match fs.epoch(t, 8_000_000, limit) {
                Some(next) => t = next,
                None => break,
            }
        }
        assert!(
            fs.queue_bytes_at(t, limit) > 0,
            "overloaded population must build a fluid queue"
        );
        // Capacity jumps 100×: the queue drains by the next second.
        let later = SimTime::from_secs(3);
        fs.epoch(later, 800_000_000, limit);
        let drained = SimTime::from_secs(4);
        assert_eq!(fs.queue_bytes_at(drained, limit), 0);
    }

    /// One population for the calendar-against-heap property, and how each
    /// of its epochs picks its instant.
    #[derive(Debug)]
    struct Population {
        seed: u64,
        cfg: FluidConfig,
        capacity: u64,
        /// Per epoch, a draw: its low byte picks on the grid (most), a
        /// capacity step between grid slots, or an epoch late by up to
        /// three ring spans; the rest picks the instant and the capacity.
        steps: Vec<u64>,
    }

    /// Checks the rank bitset against the reference's sorted `active` after
    /// an epoch at `capacity`. `failed` records whether any epoch so far
    /// failed the static test `offered + max_demand <= capacity`; the rank
    /// must exist exactly then, and once it does its ascending bit walk is
    /// the reference's `Vec` and its highest set bit that `Vec`'s last.
    fn bitset_matches_reference(
        st: &mut FluidState,
        model: &reference::HeapFluid,
        capacity: u64,
        failed: &mut bool,
    ) -> Result<(), String> {
        use comma_rt::ensure_eq;

        *failed |= st.active.sum as u128 + st.max_demand as u128 > capacity as u128;
        ensure_eq!(!st.active.by_rank.is_empty(), *failed, "rank built");
        if *failed {
            let last = model.active.last().copied().unwrap_or(0);
            ensure_eq!(st.active.d_max(&st.flows), last, "highest set bit");
            ensure_eq!(st.active.sorted(&st.flows), &model.active[..], "ascending bit walk");
        }
        Ok(())
    }

    /// The grid calendar and the rank bitset against the heap and sorted
    /// `Vec` they replaced, side by side from one seed: every epoch applies
    /// the same toggles in the same `(time, flow)` order, returns the same
    /// next-epoch time, and leaves the same active count, background rate
    /// and residual, and [`bitset_matches_reference`] holds. Populations
    /// cover equal demands (no jitter), no arrival ramp, a quantum longer
    /// than the mean on/off durations, capacity steps between grid slots,
    /// and epochs late enough to drain many slots (past the whole ring) at
    /// once.
    #[test]
    fn calendar_applies_toggles_in_heap_order() {
        use comma_rt::ensure_eq;
        use comma_rt::prop::{gen, Runner};

        const LIMIT: usize = 131_072;
        Runner::new("calendar_applies_toggles_in_heap_order").cases(200).run(
            |rng| {
                let quantum_us = [1_000, 10_000, 50_000, 250_000][gen::index(rng, 4)];
                let mean = |rng: &mut SmallRng| {
                    SimDuration::from_micros(if rng.gen_bool(0.3) {
                        rng.gen_range(1..quantum_us)
                    } else {
                        rng.gen_range(1..2_000_000)
                    })
                };
                let (on, off) = (mean(rng), mean(rng));
                let users = if rng.gen_bool(0.5) {
                    rng.gen_range(1usize..20)
                } else {
                    rng.gen_range(20usize..400)
                };
                let ramp = match rng.gen_range(0u32..3) {
                    0 => SimDuration::ZERO,
                    _ => SimDuration::from_micros(rng.gen_range(0..2_000_000)),
                };
                let mut cfg = FluidConfig::users(users)
                    .with_demand(rng.gen_range(1..50_000))
                    .with_on_off(on, off)
                    .with_ramp(ramp);
                cfg.demand_jitter_pct = [0, 10, 50, 100][gen::index(rng, 4)];
                cfg.quantum = SimDuration::from_micros(quantum_us);
                // From a tenth to ten times everyone's demand at once.
                let all = users as u64 * cfg.demand_bps;
                let capacity = (all * [1, 3, 10, 30, 100][gen::index(rng, 5)] / 10).max(1);
                let steps = (0..80).map(|_| rng.gen()).collect();
                Population {
                    seed: rng.gen(),
                    cfg,
                    capacity,
                    steps,
                }
            },
            |p| {
                let mut st = FluidState::new(p.cfg.clone(), p.seed);
                let mut model = reference::HeapFluid::new(p.cfg.clone(), p.seed);
                let q = st.quantum_us;
                let span = st.toggles.heads.len() as u64 * q;
                let (mut now, mut capacity) = (SimTime::ZERO, p.capacity);
                let (mut applied, mut failed) = (Vec::new(), false);
                for (step, &draw) in p.steps.iter().enumerate() {
                    applied.clear();
                    let next = st.epoch(now, capacity, LIMIT);
                    ensure_eq!(next, model.epoch(now, capacity, &mut applied), "step {step}");
                    let order: Vec<(u64, u32)> =
                        st.due.iter().map(|&(slot, i)| (slot * q, i)).collect();
                    ensure_eq!(order, applied, "application order at step {step}");
                    ensure_eq!(st.active_flows(), model.active_flows(), "step {step}");
                    ensure_eq!(st.bg_rate_bps(), model.bg_rate_bps, "step {step}");
                    ensure_eq!(st.residual_bps(), model.residual_bps, "step {step}");
                    st.check_invariants()?;
                    bitset_matches_reference(&mut st, &model, capacity, &mut failed)
                        .map_err(|e| format!("step {step}: {e}"))?;
                    let Some(next) = next else {
                        return Err(format!("no toggle pending after step {step}"));
                    };
                    let (now_us, next_us, pick) = (now.as_micros(), next.as_micros(), draw >> 8);
                    now = SimTime::from_micros(match draw % 256 {
                        0..=39 => {
                            capacity = (p.capacity * [1, 3, 10, 30][(pick % 4) as usize] / 10).max(1);
                            now_us + pick % (next_us - now_us)
                        }
                        40..=79 => next_us + pick % (3 * span),
                        _ => next_us,
                    });
                }
                Ok(())
            },
        );
    }

    /// A population that runs uncontended for thousands of toggles, then
    /// steps its capacity between contended and underloaded levels.
    #[derive(Debug)]
    struct LateContention {
        seed: u64,
        users: usize,
        jitter_pct: u32,
        /// Toggles applied at a capacity that never contends, first.
        calm_toggles: usize,
        /// Then, per epoch, a capacity: a tenth, a third or all of
        /// everyone's demand at once, or the calm one. Empty: the link
        /// never contends.
        steps: Vec<usize>,
    }

    /// The rank is built lazily: a link that never fails the static
    /// underload test never builds it and pays one visit per toggle plus
    /// one per solve; the first failure, thousands of toggles in, builds it
    /// from the flows that are on, and from then on the bit walk matches
    /// the reference through steps between contended and underloaded.
    #[test]
    fn rank_is_built_on_first_contention_and_walks_in_reference_order() {
        use comma_rt::prop::{gen, Runner};
        use comma_rt::{ensure, ensure_eq};

        const LIMIT: usize = 131_072;
        Runner::new("rank_is_built_on_first_contention_and_walks_in_reference_order")
            .cases(40)
            .run(
                |rng| LateContention {
                    seed: rng.gen(),
                    users: rng.gen_range(500..3_000),
                    jitter_pct: [0, 0, 50, 100][gen::index(rng, 4)],
                    calm_toggles: rng.gen_range(2_000..8_000),
                    steps: match rng.gen_bool(0.2) {
                        true => Vec::new(),
                        false => (0..60).map(|_| gen::index(rng, 4)).collect(),
                    },
                },
                |p| {
                    let mut cfg = FluidConfig::users(p.users)
                        .with_on_off(SimDuration::from_millis(200), SimDuration::from_millis(400))
                        .with_ramp(SimDuration::from_millis(150));
                    cfg.demand_jitter_pct = p.jitter_pct;
                    let all = p.users as u64 * cfg.demand_bps;
                    // Demands reach at most twice the mean, so this is
                    // above everyone on plus the largest demand.
                    let calm = 4 * all;
                    let mut st = FluidState::new(cfg.clone(), p.seed);
                    let mut model = reference::HeapFluid::new(cfg, p.seed);
                    let (mut now, mut applied, mut failed) = (SimTime::ZERO, Vec::new(), false);
                    let (mut toggles, mut contended, mut relieved) = (0, 0, 0);
                    let mut steps = p.steps.iter();
                    loop {
                        let capacity = if toggles < p.calm_toggles {
                            calm
                        } else if let Some(&k) = steps.next() {
                            [all / 10, all / 3, all, calm][k]
                        } else {
                            break;
                        };
                        let visits = st.flow_visits();
                        applied.clear();
                        let next = st.epoch(now, capacity, LIMIT);
                        ensure_eq!(next, model.epoch(now, capacity, &mut applied));
                        ensure_eq!(st.bg_rate_bps(), model.bg_rate_bps);
                        ensure_eq!(st.residual_bps(), model.residual_bps);
                        bitset_matches_reference(&mut st, &model, capacity, &mut failed)
                            .map_err(|e| format!("after {toggles} toggles: {e}"))?;
                        if !failed {
                            let unranked = applied.len() as u64 + 1;
                            ensure_eq!(st.flow_visits() - visits, unranked, "unranked visits");
                        } else if st.bg_rate_bps() < st.active.sum {
                            contended += 1;
                        } else {
                            relieved += 1;
                        }
                        toggles += applied.len();
                        now = next.ok_or("no toggle pending")?;
                    }
                    if p.steps.is_empty() {
                        ensure!(st.active.by_rank.is_empty(), "an uncontended link built the rank");
                    } else {
                        ensure!(contended > 0 && relieved > 0, "{contended} / {relieved}");
                    }
                    Ok(())
                },
            );
    }
}
