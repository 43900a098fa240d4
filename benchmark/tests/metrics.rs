//! `BENCHMARK.json` and the program agree: every metric it names is
//! printed exactly once, with its unit, by the run that reports it.

mod common;

use ioat_benchmark::cells::{Workload, DEFAULT_SEED};
use ioat_benchmark::report::{END_TO_END, PER_LAYER};

/// `(name, <field>)` of every entry in one list of `BENCHMARK.json`. The
/// file is this repository's own, so a plain scan suffices: the list is
/// the bracketed run after `"<key>":`, its entries flat objects.
fn listed(json: &str, key: &str, second: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[body.find('[').expect("list")..body.find(']').expect("list end")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closing quote")].to_string()
    };
    body.split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, second)))
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn printed_once(text: &str, name: &str, unit: &str) {
    let lines: Vec<&str> = text
        .lines()
        .filter(|l| l.split(' ').next() == Some(name))
        .collect();
    assert_eq!(lines.len(), 1, "{name} printed {} times", lines.len());
    assert!(
        lines[0].ends_with(&format!(" {unit}")),
        "{name} without unit {unit}: {}",
        lines[0]
    );
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let json = benchmark_json();
    let catalogue = |defs: &[ioat_benchmark::report::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end", "unit"), catalogue(END_TO_END));
    assert_eq!(listed(&json, "per_layer", "unit"), catalogue(PER_LAYER));
    let workloads: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(listed(&json, "workloads", "why"), workloads);
}

#[test]
fn untraced_run_prints_every_end_to_end_metric_once() {
    let json = benchmark_json();
    let r = common::mini(Workload::PaperStream, DEFAULT_SEED, None);
    let text = r.text() + &r.json();
    for (name, unit) in listed(&json, "end_to_end", "unit") {
        printed_once(&text, &name, &unit);
        assert!(r.json().contains(&format!("\"{name}\": {{\"value\": ")));
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_once() {
    let json = benchmark_json();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace-fabric_faults.json");
    let r = common::mini(Workload::FabricFaults, DEFAULT_SEED, Some(path.clone()));
    let text = r.text();
    for (name, unit) in listed(&json, "per_layer", "unit") {
        printed_once(&text, &name, &unit);
        assert!(r.json().contains(&format!("\"{name}\": {{\"value\": ")));
    }
    let trace = std::fs::read_to_string(&path).expect("trace written");
    assert!(trace.starts_with("{\"traceEvents\":[") && trace.contains("\"cat\":\"parsim\""));
    let sum: f64 = common::reading(&text, "trace.self_sum_pct")
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        (95.0..=100.5).contains(&sum),
        "self times cover {sum} % of the traced passes"
    );
}
