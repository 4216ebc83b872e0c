//! The Service-Proxy command interface (§5.3): the grammar of the telnet
//! console on port 12000, reproduced as an in-process interpreter with the
//! same fail-silent semantics.
//!
//! Commands: `load <file>`, `remove <file>`, `add <filter> <key> [args]`,
//! `delete <filter> <key>`, `report [<filter>]`.

use comma_netsim::time::SimTime;
use comma_rt::SmallRng;

use crate::engine::FilterEngine;
use crate::filter::MetricsSource;
use crate::key::WildKey;

/// Executes one SP command line against an engine, returning the console
/// output (empty for fail-silent commands).
pub fn execute(
    engine: &mut FilterEngine,
    now: SimTime,
    rng: &mut SmallRng,
    metrics: &dyn MetricsSource,
    line: &str,
) -> String {
    let mut parts = line.split_whitespace();
    let Some(cmd) = parts.next() else {
        return String::new();
    };
    let rest: Vec<&str> = parts.collect();
    match cmd {
        "load" => {
            let Some(file) = rest.first() else {
                return String::new();
            };
            match engine.catalog.load(file) {
                Some(name) => format!("{name}\n"),
                None => String::new(),
            }
        }
        "remove" => {
            if let Some(file) = rest.first() {
                engine.catalog.unload(file);
            }
            String::new()
        }
        "add" => {
            if rest.len() < 5 {
                return String::new();
            }
            let filter = rest[0];
            let key_str = rest[1..5].join(" ");
            let Ok(wild) = key_str.parse::<WildKey>() else {
                return String::new();
            };
            let args: Vec<String> = rest[5..].iter().map(|s| s.to_string()).collect();
            let _ = engine.register(wild, filter, args);
            String::new()
        }
        "delete" => {
            if rest.len() < 5 {
                return String::new();
            }
            let filter = rest[0];
            let key_str = rest[1..5].join(" ");
            let Ok(wild) = key_str.parse::<WildKey>() else {
                return String::new();
            };
            engine.deregister(now, rng, metrics, filter, wild);
            String::new()
        }
        "report" => {
            let lines = engine.report_lines(rest.first().copied());
            let mut out = String::new();
            for l in lines {
                out.push_str(&l);
                out.push('\n');
            }
            out
        }
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FilterCatalog;
    use crate::filter::{Capabilities, Filter, NullMetrics, Priority};
    use comma_rt::SeedableRng;

    struct Noop;
    impl Filter for Noop {
        fn kind(&self) -> &'static str {
            "noop"
        }
        fn priority(&self) -> Priority {
            Priority::Normal
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::READ_ONLY
        }
    }

    fn engine() -> FilterEngine {
        let mut catalog = FilterCatalog::new();
        catalog.register("noop", Box::new(|_args| Ok(Box::new(Noop))));
        FilterEngine::new(catalog)
    }

    fn run(engine: &mut FilterEngine, line: &str) -> String {
        let mut rng = SmallRng::seed_from_u64(0);
        execute(engine, SimTime::ZERO, &mut rng, &NullMetrics, line)
    }

    #[test]
    fn load_prints_name_on_success_only() {
        let mut e = engine();
        assert_eq!(run(&mut e, "load /filters/noop.so"), "noop\n");
        assert_eq!(run(&mut e, "load /filters/unknown.so"), "");
        assert_eq!(run(&mut e, "remove noop.so"), "");
        assert!(!e.catalog.is_loaded("noop"));
    }

    #[test]
    fn add_and_report() {
        let mut e = engine();
        run(&mut e, "load noop.so");
        assert_eq!(
            run(&mut e, "add noop 11.11.10.10 0 0.0.0.0 0 extra args"),
            ""
        );
        let report = run(&mut e, "report");
        assert_eq!(report, "noop\n\t11.11.10.10 0 -> 0.0.0.0 0\n");
        let scoped = run(&mut e, "report noop");
        assert_eq!(scoped, report);
        assert_eq!(run(&mut e, "report nosuch"), "");
    }

    #[test]
    fn delete_removes_registration() {
        let mut e = engine();
        run(&mut e, "load noop.so");
        run(&mut e, "add noop 1.2.3.4 5 6.7.8.9 10");
        assert_eq!(e.registrations().len(), 1);
        run(&mut e, "delete noop 1.2.3.4 5 6.7.8.9 10");
        assert!(e.registrations().is_empty());
        let report = run(&mut e, "report");
        assert_eq!(report, "noop\n");
    }

    #[test]
    fn malformed_commands_fail_silent() {
        let mut e = engine();
        assert_eq!(run(&mut e, ""), "");
        assert_eq!(run(&mut e, "add noop 1.2.3.4 5"), "");
        assert_eq!(run(&mut e, "add noop x y z w"), "");
        assert_eq!(run(&mut e, "delete noop"), "");
        assert_eq!(run(&mut e, "frobnicate"), "");
        assert_eq!(run(&mut e, "load"), "");
    }

    #[test]
    fn add_requires_loaded_filter() {
        let mut e = engine();
        // Not loaded yet: add is silently ignored.
        run(&mut e, "add noop 0.0.0.0 0 0.0.0.0 0");
        assert!(e.registrations().is_empty());
    }
}
