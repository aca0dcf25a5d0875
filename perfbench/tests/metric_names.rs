//! The metrics the benchmark prints are exactly the ones `BENCHMARK.json`
//! declares, in the same order.

use gblas_perfbench::runner::{Layers, Timed, SIM_CALLS};
use gblas_perfbench::workload::Workload;

fn declared() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"name"` values in a slice of the JSON text, in order.
fn names(section: &str) -> Vec<String> {
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn sections(text: &str) -> (Vec<String>, Vec<String>, Vec<String>) {
    let e2e = text.find("\"end_to_end\"").expect("end_to_end");
    let per = text.find("\"per_layer\"").expect("per_layer");
    let work = text.find("\"workloads\"").expect("workloads");
    assert!(work < e2e && e2e < per, "sections in order workloads, end_to_end, per_layer");
    (names(&text[work..e2e]), names(&text[e2e..per]), names(&text[per..]))
}

#[test]
fn workloads_match() {
    let (workloads, _, _) = sections(&declared());
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn end_to_end_metrics_match() {
    let (_, e2e, _) = sections(&declared());
    let samples: Vec<f64> = (1..=SIM_CALLS).map(|v| v as f64).collect();
    let t = Timed {
        shared_ms: samples.clone(),
        dist_ms: samples.clone(),
        shared_cpu_ms: samples.clone(),
        dist_cpu_ms: samples.clone(),
        sim_s: samples,
        ..Timed::default()
    };
    let printed = t.end_to_end(&[1.0, 2.0, 3.0], 1, 10.0).expect("100 samples suffice");
    let gated: Vec<String> =
        printed.iter().filter(|r| r.gated).map(|r| r.metric.0.clone()).collect();
    assert_eq!(e2e, gated);
    assert_eq!(printed.len(), 11, "every end-to-end metric is printed");
}

#[test]
fn per_layer_metrics_match() {
    let (_, _, per) = sections(&declared());
    let printed: Vec<String> = Layers::default().metrics().into_iter().map(|m| m.0).collect();
    assert_eq!(per, printed);
}
