//! Replayable counterexample traces: serialization, deterministic replay,
//! and greedy minimization.

use std::fmt;
use std::str::FromStr;

use comma_netsim::sim::McAction;

use crate::scenario::{arm_mutations, build_scenario, check_invariants, McConfig};

/// One branch decision: which due-batch entry fired, and what happened to
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McDecision {
    /// Index into the due batch ([`comma_netsim::sim::Simulator::mc_options`]).
    pub index: usize,
    /// Fault placement applied (deliveries only; everything else fires
    /// with [`McAction::Deliver`]).
    pub action: McAction,
}

/// A serialized decision list: together with the world seed it replays one
/// explored schedule exactly.
///
/// The text form is `seed=<n> <index>:<action> <index>:<action> ...`, e.g.
/// `seed=1 0:deliver 1:drop 0:deliver`; [`fmt::Display`] and [`FromStr`]
/// round-trip it.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct McTrace {
    /// The scenario seed the decisions were recorded against.
    pub seed: u64,
    /// The decisions, in application order.
    pub decisions: Vec<McDecision>,
}

fn action_name(a: McAction) -> &'static str {
    match a {
        McAction::Deliver => "deliver",
        McAction::Drop => "drop",
        McAction::Duplicate => "duplicate",
        McAction::Reorder => "reorder",
    }
}

fn parse_action(s: &str) -> Option<McAction> {
    match s {
        "deliver" => Some(McAction::Deliver),
        "drop" => Some(McAction::Drop),
        "duplicate" => Some(McAction::Duplicate),
        "reorder" => Some(McAction::Reorder),
        _ => None,
    }
}

impl fmt::Display for McTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for d in &self.decisions {
            write!(f, " {}:{}", d.index, action_name(d.action))?;
        }
        Ok(())
    }
}

impl FromStr for McTrace {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split_whitespace();
        let head = parts.next().ok_or("empty trace")?;
        let seed = head
            .strip_prefix("seed=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad trace header {head:?} (want seed=<n>)"))?;
        let mut decisions = Vec::new();
        for tok in parts {
            let (idx, act) = tok
                .split_once(':')
                .ok_or_else(|| format!("bad decision {tok:?} (want <index>:<action>)"))?;
            let index = idx
                .parse()
                .map_err(|_| format!("bad decision index {idx:?}"))?;
            let action =
                parse_action(act).ok_or_else(|| format!("unknown action {act:?}"))?;
            decisions.push(McDecision { index, action });
        }
        Ok(McTrace { seed, decisions })
    }
}

/// What replaying a trace produced.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The first invariant violation, as `(decisions applied, detail)` —
    /// the violation surfaced after applying that many decisions.
    pub violation: Option<(usize, String)>,
    /// Decisions successfully applied.
    pub steps_applied: usize,
    /// A decision the rebuilt world rejected (stale index), ending the
    /// replay early. `None` on a clean full replay.
    pub error: Option<String>,
}

/// Rebuilds the scenario from `cfg` (with the trace's own seed) and
/// re-executes the decision list, checking invariants after every step.
/// Deterministic: the same `(config, trace)` pair always produces the
/// same outcome.
pub fn replay_mc_trace(cfg: &McConfig, trace: &McTrace) -> ReplayOutcome {
    let mut cfg = cfg.clone();
    cfg.seed = trace.seed;
    let mut world = build_scenario(&cfg);
    for (i, d) in trace.decisions.iter().enumerate() {
        if let Err(e) = world.sim.mc_step(d.index, d.action) {
            return ReplayOutcome {
                violation: None,
                steps_applied: i,
                error: Some(e),
            };
        }
        if cfg.mutate_skip_ack_translation {
            arm_mutations(&mut world.sim, world.proxy);
        }
        if let Some(detail) = check_invariants(&world.sim, world.proxy) {
            return ReplayOutcome {
                violation: Some((i + 1, detail)),
                steps_applied: i + 1,
                error: None,
            };
        }
    }
    ReplayOutcome {
        violation: None,
        steps_applied: trace.decisions.len(),
        error: None,
    }
}

/// Greedily minimizes a violating trace, preserving *some* violation (not
/// necessarily the original one — any invariant failure keeps a candidate).
///
/// Passes, repeated to fixpoint:
///
/// 1. truncate to the first violating step;
/// 2. replace each fault action with a plain delivery;
/// 3. replace each nonzero fire-order index with the default `0`.
///
/// A candidate whose replay rejects a decision (stale index after the
/// edit) is discarded. Returns the input unchanged if it does not violate.
pub fn minimize_mc_trace(cfg: &McConfig, trace: &McTrace) -> McTrace {
    let mut best = trace.clone();
    let Some((step, _)) = replay_mc_trace(cfg, &best).violation else {
        return best;
    };
    best.decisions.truncate(step);
    // Each accepted candidate strictly decreases (faults, nonzero indices,
    // length) lexicographically, so the fixpoint loop terminates.
    loop {
        let mut improved = false;
        let try_candidate = |best: &mut McTrace, mut cand: McTrace| {
            if let Some((step, _)) = replay_mc_trace(cfg, &cand).violation {
                cand.decisions.truncate(step);
                *best = cand;
                return true;
            }
            false
        };
        let mut i = 0;
        while i < best.decisions.len() {
            if best.decisions[i].action != McAction::Deliver {
                let mut cand = best.clone();
                cand.decisions[i].action = McAction::Deliver;
                improved |= try_candidate(&mut best, cand);
            }
            i += 1;
        }
        let mut i = 0;
        while i < best.decisions.len() {
            if best.decisions[i].index != 0 {
                let mut cand = best.clone();
                cand.decisions[i].index = 0;
                improved |= try_candidate(&mut best, cand);
            }
            i += 1;
        }
        if !improved {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_text_round_trips() {
        let t = McTrace {
            seed: 42,
            decisions: vec![
                McDecision {
                    index: 0,
                    action: McAction::Deliver,
                },
                McDecision {
                    index: 2,
                    action: McAction::Drop,
                },
                McDecision {
                    index: 1,
                    action: McAction::Reorder,
                },
            ],
        };
        let s = t.to_string();
        assert_eq!(s, "seed=42 0:deliver 2:drop 1:reorder");
        assert_eq!(s.parse::<McTrace>().unwrap(), t);
        assert!("nonsense".parse::<McTrace>().is_err());
        assert!("seed=1 7".parse::<McTrace>().is_err());
        assert!("seed=1 0:explode".parse::<McTrace>().is_err());
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = McConfig::default();
        // A fault-free prefix of the default schedule.
        let trace = McTrace {
            seed: cfg.seed,
            decisions: vec![
                McDecision {
                    index: 0,
                    action: McAction::Deliver,
                };
                25
            ],
        };
        let a = replay_mc_trace(&cfg, &trace);
        let b = replay_mc_trace(&cfg, &trace);
        assert_eq!(a.steps_applied, b.steps_applied);
        assert!(a.error.is_none(), "default schedule must replay: {:?}", a.error);
        assert!(a.violation.is_none(), "shipped scenario is clean: {:?}", a.violation);
    }
}
