//! The benchmark's own checks: a reduced-size smoke run of every
//! workload against the committed digests, proof that a corrupted or
//! missing digest is counted as a failure, agreement between the metrics
//! the benchmark prints and the ones `BENCHMARK.json` declares, and
//! agreement between the records the benchmark writes and the ones
//! `fw-bench`'s own suite and serve orchestration write.

use std::path::{Path, PathBuf};

use fw_bench::bench_json::Json;
use fw_bench::serve::{build_serve_record, run_ci_serve_suite};
use fw_bench::suite::{build_bench_report, run_suite};
use perfbench::digest::DigestTable;
use perfbench::workload::{ci_suite, Kind, Scale};
use perfbench::{result_json, run, Opts, Outcome, DEFAULT_SEED};

/// A smoke run whose records go to a directory of the calling test's own.
fn smoke(test: &str, kind: Kind, seed: u64, trace: bool, table: &DigestTable) -> Outcome {
    let opts = Opts {
        kind,
        scale: Scale::Smoke,
        seed,
        seconds: 0.0,
        trace,
        out_dir: out_dir(test),
    };
    run(&opts, table)
}

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("selftest-{test}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_matches_its_committed_smoke_digests() {
    let table = DigestTable::committed();
    for kind in Kind::ALL {
        assert!(
            table.covers(kind.name(), "smoke", DEFAULT_SEED),
            "{} has no smoke digests",
            kind.name()
        );
        let o = smoke("digests", kind, DEFAULT_SEED, false, &table);
        assert!(o.correct, "{}: {:?}", kind.name(), o.problems);
        assert_eq!(o.failed, 0);
        assert!(o.attempted >= 1);
        assert_eq!(printed(&o), declared("end_to_end"), "{}", kind.name());
        assert!(
            o.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{}: {:?}",
            kind.name(),
            o.metrics
        );
        let line = result_json(&o);
        let parsed = Json::parse(&line).unwrap();
        assert!(parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .is_some());
    }
}

#[test]
fn a_corrupted_digest_is_reported_as_a_failure() {
    let mut table = DigestTable::committed();
    let op = "fw/TT/w2000@42";
    let good = table
        .get("suite-ci", "smoke", DEFAULT_SEED, op)
        .expect("committed smoke digest");
    table.set("suite-ci", "smoke", DEFAULT_SEED, op, good ^ 1);
    let o = smoke("corrupted", Kind::SuiteCi, DEFAULT_SEED, false, &table);
    assert!(!o.correct);
    assert_eq!(o.failed, 1, "{:?}", o.problems);
    assert!(o.problems[0].contains(op), "{:?}", o.problems);
    assert!(result_json(&o).starts_with("{\"correct\":false,"));
    let ok_frac = o
        .metrics
        .iter()
        .find(|m| m.name == "ok_frac")
        .unwrap()
        .value;
    assert!(ok_frac < 1.0);
}

#[test]
fn a_committed_operation_the_run_does_not_produce_is_a_failure() {
    let mut table = DigestTable::committed();
    let op = "fw-extra/TT/w4000@42";
    table.set("walks-dense", "smoke", DEFAULT_SEED, op, 0);
    let o = smoke("missing", Kind::WalksDense, DEFAULT_SEED, false, &table);
    assert!(!o.correct);
    assert_eq!(o.failed, 1, "{:?}", o.problems);
    assert!(o.problems[0].contains(op), "{:?}", o.problems);
}

/// perfbench drives the suite and serve layers call by call (to time
/// set-up and each layer), so it re-states `run_suite`'s and
/// `run_ci_serve_suite`'s orchestration. Their records must agree byte
/// for byte, or the benchmark no longer measures what `fwbench` runs.
#[test]
fn the_records_equal_the_ones_fw_bench_orchestration_writes() {
    let table = DigestTable::committed();
    let dir = out_dir("records");
    let o = smoke("records", Kind::SuiteCi, DEFAULT_SEED, false, &table);
    assert!(o.correct, "{:?}", o.problems);
    let res = run_suite(&ci_suite(DEFAULT_SEED, Scale::Smoke)).unwrap();
    assert_eq!(
        read(&dir.join(format!("BENCH_perfbench-smoke-{DEFAULT_SEED}.json"))),
        build_bench_report("perfbench", &res, false).render(),
        "suite-ci's BENCH record differs from run_suite's"
    );

    let o = smoke("records", Kind::Serve, DEFAULT_SEED, false, &table);
    assert!(o.correct, "{:?}", o.problems);
    let res = run_ci_serve_suite("perfbench", DEFAULT_SEED, 40, 1);
    assert_eq!(
        read(&dir.join(format!("SERVE_perfbench-smoke-{DEFAULT_SEED}.json"))),
        build_serve_record(&res).render(),
        "serve's SERVE record differs from run_ci_serve_suite's"
    );
}

#[test]
fn another_seed_runs_the_invariant_checks_only() {
    let table = DigestTable::committed();
    assert!(!table.covers("walks-dense", "smoke", 7));
    let o = smoke("other-seed", Kind::WalksDense, 7, false, &table);
    assert!(o.correct, "{:?}", o.problems);
    assert_eq!(o.attempted, 3);
}

#[test]
fn the_traced_run_prints_every_declared_layer_metric_and_a_span_file() {
    let o = smoke(
        "traced",
        Kind::Serve,
        DEFAULT_SEED,
        true,
        &DigestTable::committed(),
    );
    assert!(o.correct, "{:?}", o.problems);
    assert_eq!(printed(&o), declared("per_layer"));
    let value = |name: &str| o.metrics.iter().find(|m| m.name == name).unwrap().value;
    assert!(value("fw-serve.engine_runs") > 0.0);
    assert!(value("flashwalker.build_ms") > 0.0);
    assert!((0.0..1.0).contains(&value("unattributed_frac")));
    for name in [
        "fw-graph.generate",
        "fw-serve.probe",
        "fw-serve.run_serve",
        "fw-bench.record",
        "rep",
    ] {
        assert!(o.spans.iter().any(|s| s.name == name), "no {name} span");
        assert!(o.layer_table.contains(name));
    }
    let doc = Json::parse(&perfbench::spans::chrome_trace_json(&o.spans)).unwrap();
    assert_eq!(
        doc.get("traceEvents").and_then(Json::as_arr).unwrap().len(),
        o.spans.len() + 1
    );
}
