//! The depth-first interleaving explorer.

use comma_netsim::node::NodeId;
use comma_netsim::sim::{ForkPool, McAction, McOption, Simulator};
use comma_rt::FnvHashSet;

use crate::scenario::{arm_mutations, build_scenario, check_invariants, McConfig};
use crate::trace::{minimize_mc_trace, McDecision, McTrace};

/// A confirmed invariant violation, as found and as minimized.
#[derive(Clone, Debug)]
pub struct McViolation {
    /// The decision list that first triggered the violation.
    pub trace: McTrace,
    /// The greedily minimized equivalent ([`minimize_mc_trace`]).
    pub minimized: McTrace,
    /// The violated invariant, human-readable.
    pub detail: String,
}

/// What the search covered.
#[derive(Clone, Debug, Default)]
pub struct McReport {
    /// Distinct states visited (by canonical fingerprint).
    pub states_explored: u64,
    /// Arrivals at an already-visited fingerprint (cut branches).
    pub states_pruned: u64,
    /// Steps executed ([`Simulator::mc_step`] applications).
    pub steps_executed: u64,
    /// World copies made ([`ForkPool::fork`] calls): one per fork
    /// alternative except the last, which runs on the original.
    pub snapshots_taken: u64,
    /// Deepest path reached, in decisions.
    pub max_depth_reached: usize,
    /// Paths cut by the depth bound (coverage holes beyond it).
    pub depth_bound_hits: u64,
    /// Quiescent worlds reached (no pending events — full schedules).
    pub terminal_states: u64,
    /// The step budget ran out before the frontier emptied.
    pub budget_exhausted: bool,
    /// First invariant violation found, if any (the search stops on it).
    pub violation: Option<McViolation>,
}

impl McReport {
    /// `true` when the search finished without violation, without
    /// hitting the step budget and without cutting a path at
    /// [`McConfig::max_depth`]: every reachable state was visited.
    pub fn exhausted_clean(&self) -> bool {
        self.violation.is_none() && !self.budget_exhausted && self.depth_bound_hits == 0
    }

    /// Fraction of state arrivals cut by fingerprint pruning.
    pub fn dedup_ratio(&self) -> f64 {
        let total = self.states_explored + self.states_pruned;
        if total == 0 {
            0.0
        } else {
            self.states_pruned as f64 / total as f64
        }
    }

    /// One-paragraph human-readable summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "explored {} states ({} pruned, {:.0}% dedup), {} steps, {} snapshots, \
             depth <= {} ({} depth-bound cuts), {} terminal schedules{}",
            self.states_explored,
            self.states_pruned,
            self.dedup_ratio() * 100.0,
            self.steps_executed,
            self.snapshots_taken,
            self.max_depth_reached,
            self.depth_bound_hits,
            self.terminal_states,
            if self.budget_exhausted {
                "; STEP BUDGET EXHAUSTED"
            } else {
                ""
            },
        );
        match &self.violation {
            // A budget or depth cut leaves states unvisited: clean so far,
            // not clean.
            None if self.budget_exhausted => {
                s.push_str("; no violations within the step budget (search incomplete)")
            }
            None if self.depth_bound_hits > 0 => {
                s.push_str("; no violations within the depth bound (search incomplete)")
            }
            None => s.push_str("; no violations"),
            Some(v) => {
                s.push_str(&format!(
                    "\nVIOLATION: {}\n  trace:     {}\n  minimized: {}",
                    v.detail, v.trace, v.minimized
                ));
            }
        }
        s
    }
}

/// The explorer. Build one per search; [`Explorer::run`] consumes it.
pub struct Explorer {
    cfg: McConfig,
    visited: FnvHashSet<u64>,
    report: McReport,
    path: Vec<McDecision>,
    /// The alternatives of every decision point on the current path, each
    /// point's above its parent's: a stack like `path`, so a decision
    /// point allocates nothing once the deepest one has been reached.
    choices: Vec<McDecision>,
    /// Finished branches, forked into again for their buffers.
    pool: ForkPool,
}

/// Convenience: runs a full search under `cfg`.
pub fn explore(cfg: &McConfig) -> McReport {
    Explorer::new(cfg.clone()).run()
}

impl Explorer {
    /// Creates an explorer for one search.
    pub fn new(cfg: McConfig) -> Self {
        Explorer {
            cfg,
            visited: FnvHashSet::default(),
            report: McReport::default(),
            path: Vec::new(),
            choices: Vec::new(),
            pool: ForkPool::default(),
        }
    }

    /// Runs the depth-first search and returns the coverage report. On a
    /// violation the search stops and the offending trace is minimized.
    pub fn run(mut self) -> McReport {
        let mut world = build_scenario(&self.cfg);
        // The initial state counts as explored; it was asserted clean by
        // construction (build_scenario runs no events).
        self.visited.insert(world.sim.state_hash());
        self.report.states_explored = 1;
        if let Some(detail) = check_invariants(&world.sim, world.proxy) {
            self.record_violation(detail);
            return self.report;
        }
        let proxy = world.proxy;
        self.dfs(&mut world.sim, proxy, 0, 0);
        if let Some(v) = &mut self.report.violation {
            v.minimized = minimize_mc_trace(&self.cfg, &v.trace);
        }
        self.report
    }

    fn stop(&self) -> bool {
        self.report.violation.is_some() || self.report.budget_exhausted
    }

    /// Explores everything reachable from `sim`'s current state.
    /// `self.path` and `self.choices` are restored to their entry lengths.
    fn dfs(&mut self, sim: &mut Simulator, proxy: NodeId, depth: usize, faults: usize) {
        let (path, choices) = (self.path.len(), self.choices.len());
        self.walk(sim, proxy, depth, faults);
        self.path.truncate(path);
        self.choices.truncate(choices);
    }

    /// One decision point per iteration. Forks copy all but the last
    /// alternative: each earlier one is explored to the end on its own
    /// snapshot ([`ForkPool::fork`], into a finished branch's buffers),
    /// then the last is applied to `sim` itself and the loop carries on
    /// from there — nothing reads `sim` once its last child has started,
    /// so that copy would only be thrown away. A single-choice step is the
    /// same code with no earlier alternatives.
    fn walk(&mut self, sim: &mut Simulator, proxy: NodeId, mut depth: usize, mut faults: usize) {
        loop {
            if self.stop() {
                return;
            }
            self.report.max_depth_reached = self.report.max_depth_reached.max(depth);
            if depth >= self.cfg.max_depth {
                self.report.depth_bound_hits += 1;
                return;
            }
            let base = self.choices.len();
            self.enumerate(sim.mc_options(), faults);
            if self.choices.len() == base {
                self.report.terminal_states += 1;
                return;
            }
            let last = self.choices.pop().expect("pushed above");
            // The earlier alternatives are read off the stack by position:
            // each one's subtree pushes and pops above them.
            for i in base..self.choices.len() {
                let d = self.choices[i];
                if self.stop() {
                    return;
                }
                self.report.snapshots_taken += 1;
                let mut branch = match self.pool.fork(sim) {
                    Ok(s) => s,
                    Err(e) => {
                        // Snapshot failure means the world grew state the
                        // plumbing cannot duplicate — a harness bug, not a
                        // protocol violation. Surface it as one anyway so
                        // the CI gate fails loudly.
                        self.record_violation(format!("snapshot failed: {e}"));
                        return;
                    }
                };
                let len_before = self.path.len();
                if self.apply(&mut branch, proxy, d) {
                    let child_faults = faults + (d.action != McAction::Deliver) as usize;
                    if self.note_state(&mut branch) {
                        self.dfs(&mut branch, proxy, depth + 1, child_faults);
                    }
                }
                self.path.truncate(len_before);
                self.pool.recycle(branch);
            }
            self.choices.truncate(base);
            if self.stop() || !self.apply(sim, proxy, last) {
                return;
            }
            depth += 1;
            faults += (last.action != McAction::Deliver) as usize;
            // A deterministic step still reaches a possibly-shared state
            // (schedules converge); prune like any other.
            if !self.note_state(sim) {
                return;
            }
        }
    }

    /// Pushes the branch alternatives at the current due batch onto
    /// `choices`: every fire order, plus fault placements on deliveries
    /// while the path's fault budget lasts.
    fn enumerate(&mut self, options: &[McOption], faults: usize) {
        for o in options {
            self.choices.push(McDecision {
                index: o.index,
                action: McAction::Deliver,
            });
        }
        if faults < self.cfg.max_faults {
            for o in options.iter().filter(|o| o.is_delivery) {
                for action in [McAction::Drop, McAction::Duplicate, McAction::Reorder] {
                    self.choices.push(McDecision {
                        index: o.index,
                        action,
                    });
                }
            }
        }
    }

    /// Executes one decision and checks invariants; pushes it onto the
    /// current path. Returns `false` when the branch must not be explored
    /// further (violation, budget, or a rejected step).
    fn apply(&mut self, sim: &mut Simulator, proxy: NodeId, d: McDecision) -> bool {
        self.report.steps_executed += 1;
        if self.report.steps_executed >= self.cfg.step_budget {
            self.report.budget_exhausted = true;
        }
        if let Err(e) = sim.mc_step(d.index, d.action) {
            // Enumerated from mc_options, so a rejection is a checker bug.
            self.record_violation(format!("mc_step rejected {d:?}: {e}"));
            return false;
        }
        self.path.push(d);
        if self.cfg.mutate_skip_ack_translation {
            arm_mutations(sim, proxy);
        }
        if let Some(detail) = check_invariants(sim, proxy) {
            self.record_violation(detail);
            return false;
        }
        !self.report.budget_exhausted
    }

    /// Fingerprints the reached state; returns `true` when it is new.
    fn note_state(&mut self, sim: &mut Simulator) -> bool {
        if self.visited.insert(sim.state_hash()) {
            self.report.states_explored += 1;
            true
        } else {
            self.report.states_pruned += 1;
            false
        }
    }

    fn record_violation(&mut self, detail: String) {
        if self.report.violation.is_some() {
            return;
        }
        let trace = McTrace {
            seed: self.cfg.seed,
            decisions: self.path.clone(),
        };
        self.report.violation = Some(McViolation {
            minimized: trace.clone(),
            trace,
            detail,
        });
    }
}
