//! `BENCHMARK.json` and the catalogue in `src/metrics.rs` say the same
//! thing, within the limits the benchmark contract sets.

use std::path::Path;

use comma_benchmark::json::{parse, Value};
use comma_benchmark::metrics::{END_TO_END, PER_LAYER};
use comma_benchmark::workloads::Workload;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    parse(&text).expect("BENCHMARK.json is JSON")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let m = manifest();
    let keys: Vec<&str> = m.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let seconds = m.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let paths = m.get("paths").and_then(Value::as_arr).unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    let command = m.get("command").and_then(Value::as_arr).unwrap();
    assert!(command.len() <= 32);
    assert_eq!(command[0].as_str(), Some("cargo"));
    assert!(command
        .iter()
        .any(|c| c.as_str() == Some("benchmark/Cargo.toml")));
}

#[test]
fn workloads_match_the_code() {
    let m = manifest();
    let listed = m.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(listed.len(), Workload::ALL.len());
    for (entry, w) in listed.iter().zip(Workload::ALL) {
        assert_eq!(entry.as_obj().unwrap().len(), 2, "exactly name and why");
        assert_eq!(str_of(entry, "name"), w.name());
        assert_eq!(str_of(entry, "why"), w.why());
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }
}

#[test]
fn metrics_match_the_catalogue() {
    let m = manifest();
    let e2e = m.get("end_to_end").and_then(Value::as_arr).unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, want) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(
            entry.as_obj().unwrap().len(),
            4,
            "name, unit, better, bound"
        );
        assert_eq!(str_of(entry, "name"), want.name);
        assert_eq!(str_of(entry, "unit"), want.unit);
        assert_eq!(str_of(entry, "better"), want.better);
        let bound = entry.get("bound").and_then(Value::as_f64).unwrap();
        assert_eq!(bound, want.bound, "{}", want.name);
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let layers = m.get("per_layer").and_then(Value::as_arr).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (entry, want) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(entry.as_obj().unwrap().len(), 3, "name, unit, better");
        assert_eq!(str_of(entry, "name"), want.name);
        assert_eq!(str_of(entry, "unit"), want.unit);
        assert_eq!(str_of(entry, "better"), want.better);
        assert!(want.unit.len() <= 16);
    }
}
