//! `BENCHMARK.json` at the repository root declares exactly the metrics
//! the binary reports, with the same units.

use bemcap_perfbench::metrics::{END_TO_END, PER_LAYER};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/")
}

fn section<'a>(text: &'a str, key: &str) -> &'a str {
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let rest = &text[start..];
    &rest[..rest.find(']').expect("section closes")]
}

fn declared(text: &str, key: &str) -> Vec<(String, String)> {
    section(text, key)
        .split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').unwrap()].to_string();
            let unit_at = entry.find("\"unit\": \"").expect("unit given") + 9;
            let unit = entry[unit_at..unit_at + entry[unit_at..].find('"').unwrap()].to_string();
            (name, unit)
        })
        .collect()
}

fn expected(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn end_to_end_metrics_match() {
    assert_eq!(declared(&manifest(), "end_to_end"), expected(END_TO_END));
}

#[test]
fn per_layer_metrics_match() {
    assert_eq!(declared(&manifest(), "per_layer"), expected(PER_LAYER));
}

#[test]
fn workloads_are_the_three() {
    let text = manifest();
    let names: Vec<String> = section(&text, "workloads")
        .split("{\"name\": \"")
        .skip(1)
        .map(|e| e[..e.find('"').unwrap()].to_string())
        .collect();
    assert_eq!(names, ["bus-paper", "chip-eco", "serve-mix"]);
}
