//! Self-test of the benchmark at tiny size: the metric names match
//! `BENCHMARK.json` and print with units, the output checks fire on a
//! flipped reference byte, and the traced and untraced phases run the
//! same ops.

use std::path::PathBuf;

use limba_pipebench::live::Live;
use limba_pipebench::posthoc::Posthoc;
use limba_pipebench::whatif::WhatIf;
use limba_pipebench::{layers, measure, run, Config, Outcome, Scale, Workload, WORKLOADS};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("pipebench-selftest-{name}"));
    std::fs::create_dir_all(&dir).expect("test work directory");
    dir
}

/// One tiny run; `test` keeps concurrently running tests apart on disk.
fn tiny(test: &str, workload: &str, trace: bool) -> Outcome {
    run(&Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        work_dir: work_dir(&format!("{test}-{workload}-{trace}")),
    })
    .expect("tiny run succeeds")
}

/// `(name, unit)` of every entry in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn printed(outcome: &Outcome, name: &str, unit: &str) -> bool {
    outcome.lines.iter().any(|l| {
        let mut words = l.split_whitespace().skip(1);
        words.next() == Some(name) && words.nth(1) == Some(unit)
    }) && outcome
        .json()
        .contains(&format!("\"{name}\": {{\"value\": "))
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let names: Vec<(String, String)> = layers::names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(
        per_layer, names,
        "BENCHMARK.json per_layer matches the report"
    );
    for workload in WORKLOADS {
        let plain = tiny("names", workload, false);
        let got: Vec<(String, String)> = plain
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(got, end_to_end, "{workload}: end-to-end metrics");
        for (name, unit) in &end_to_end {
            assert!(printed(&plain, name, unit), "{workload}: {name} [{unit}]");
        }
        assert!(plain.lines.iter().any(|l| l.contains("fail_frac")));
        assert!(plain.json().ends_with("}}}"));

        let traced = tiny("names", workload, true);
        for (name, unit) in &per_layer {
            assert!(printed(&traced, name, unit), "{workload}: {name} [{unit}]");
        }
        assert_eq!(traced.metrics.len(), per_layer.len());
        assert!(traced.lines.iter().any(|l| l.contains("self_ms")));
    }
}

/// Runs op `id` of `w` and expects an output mismatch naming `what`.
fn expect_mismatch(w: &dyn Workload, id: u64, what: &str) {
    let err = w
        .op(id)
        .expect_err("a flipped reference byte must fail the check");
    assert!(err.contains(what), "{err}");
    let err = measure(w, 0.0).expect_err("a mismatch aborts the phase");
    assert!(err.contains(&format!("op {id} (")), "{err}");
}

fn flip(s: &mut String) {
    let mut bytes = std::mem::take(s).into_bytes();
    bytes[0] ^= 1;
    *s = String::from_utf8(bytes).expect("ASCII report stays ASCII");
}

#[test]
fn output_checks_fire_on_a_flipped_reference_byte() {
    let dir = work_dir("flip-posthoc");
    let mut p = Posthoc::setup(3, Scale::Tiny, &dir).expect("posthoc set-up");
    p.op(0).expect("untouched reference matches");
    flip(&mut p.reference[0]);
    expect_mismatch(&p, 0, &p.files[0].name.clone());
    Box::new(p).teardown().expect("teardown");

    let dir = work_dir("flip-whatif");
    let mut w = WhatIf::setup(3, Scale::Tiny, &dir).expect("whatif set-up");
    w.op(0).expect("untouched reference matches");
    w.op(1).expect("untouched digest matches");
    flip(&mut w.reference[0].report);
    let name = w.scenarios[0].name.clone();
    expect_mismatch(&w, 0, &name);
    w.reference[0].digest ^= 1;
    let err = w.op(1).expect_err("a flipped digest must fail the check");
    assert!(err.contains("digest"), "{err}");
    Box::new(w).teardown().expect("teardown");

    let dir = work_dir("flip-live");
    let mut l = Live::setup(3, Scale::Tiny, &dir).expect("live set-up");
    l.begin_phase();
    l.op(0).expect("untouched reference matches");
    flip(&mut l.reference[1]);
    let name = l.files[1].name.clone();
    expect_mismatch(&l, 1, &name);
    Box::new(l).teardown().expect("teardown");
}

#[test]
fn traced_and_untraced_phases_run_the_same_ops() {
    for workload in WORKLOADS {
        let outcome = tiny("ops", workload, true);
        assert!(!outcome.untraced_ops.is_empty());
        assert_eq!(outcome.untraced_ops, outcome.traced_ops, "{workload}");
    }
}
