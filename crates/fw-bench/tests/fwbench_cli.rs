//! CLI regression tests for the record-reading `fwbench` subcommands.
//! `hostperf`: the missing-baseline argument/path cases must exit through
//! the usage and shared-loader paths (2 / 3) instead of panicking, and a
//! baseline whose fallback wall-time is zero or sub-microsecond must be
//! visibly warned about or compared — never silently dropped from the
//! "vs base" column. `compare`: a record whose seed statistics contradict
//! themselves is an invariant failure (4), not a passing row. `why`:
//! records from different RNG universes are refused, as `compare` does.
//!
//! Records are doctored `tests_support::tiny_report` fixtures written to
//! a per-test temp directory; the binary under test comes from
//! `CARGO_BIN_EXE_fwbench`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use fw_bench::bench_json::{tests_support::tiny_report, BenchReport, HostScenario, StatF, StatU};

fn tmp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fwbench_cli_{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_record(dir: &Path, name: &str, rep: &BenchReport) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, rep.render()).expect("write record");
    path
}

fn fwbench(cmd: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fwbench"))
        .arg(cmd)
        .args(args)
        .output()
        .expect("run fwbench")
}

fn hostperf(args: &[&str]) -> Output {
    fwbench("hostperf", args)
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("fwbench exited without a signal")
}

/// A current record with a `host` section covering the given scenario
/// names at a fixed 600 ns mean wall each.
fn current_with_host(names: &[&str]) -> BenchReport {
    let mut rep = tiny_report();
    let stat_u = |v: u64| StatU {
        mean: v,
        min: v,
        max: v,
    };
    let stat_f = |v: f64| StatF {
        mean: v,
        min: v,
        max: v,
    };
    let template = rep.scenarios[0].clone();
    rep.scenarios = names
        .iter()
        .map(|n| {
            let mut s = template.clone();
            s.name = (*n).to_string();
            s
        })
        .collect();
    rep.host = Some(
        names
            .iter()
            .map(|n| HostScenario {
                name: (*n).to_string(),
                wall_ns: stat_u(600),
                host_events: stat_u(1_000),
                events_per_sec: stat_f(1e6),
            })
            .collect(),
    );
    rep.suite_wall_ns = Some(1_000_000);
    rep
}

/// A baseline with no `host` section whose scenario rows carry the given
/// `wall_time_ms` means (the pre-host-section record shape the fallback
/// path exists for).
fn fallback_baseline(rows: &[(&str, f64)]) -> BenchReport {
    let mut rep = tiny_report();
    let template = rep.scenarios[0].clone();
    rep.scenarios = rows
        .iter()
        .map(|(n, ms)| {
            let mut s = template.clone();
            s.name = (*n).to_string();
            s.wall_time_ms = StatF {
                mean: *ms,
                min: *ms,
                max: *ms,
            };
            s
        })
        .collect();
    rep
}

#[test]
fn no_arguments_is_a_usage_error() {
    let out = hostperf(&[]);
    assert_eq!(exit_code(&out), 2);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage:"),
        "stderr should print usage"
    );
}

#[test]
fn missing_baseline_path_exits_through_the_loader_not_a_panic() {
    let dir = tmp_dir("missing_baseline");
    let cur = write_record(&dir, "cur.json", &current_with_host(&["fw/TT/w100"]));
    let out = hostperf(&[cur.to_str().unwrap(), "/nonexistent/baseline.json"]);
    assert_eq!(exit_code(&out), 3, "shared loader's parse exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("fwbench hostperf:"),
        "clean message, got: {err}"
    );
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn baseline_without_any_wall_data_fails_cleanly() {
    let dir = tmp_dir("no_wall");
    let cur = write_record(&dir, "cur.json", &current_with_host(&["fw/TT/w100"]));
    // tiny_report's wall is StatF::zero() and it has no host section —
    // the "never ran --wall" baseline.
    let base = write_record(&dir, "base.json", &tiny_report());
    let out = hostperf(&[cur.to_str().unwrap(), base.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no wall-clock data"), "got: {err}");
    assert!(!err.contains("panicked"), "must not panic: {err}");
}

#[test]
fn sub_microsecond_fallback_wall_is_compared_with_round_half_up() {
    let dir = tmp_dir("submicro");
    let cur = write_record(&dir, "cur.json", &current_with_host(&["fw/TT/w100"]));
    // 0.0003 ms = 300 ns against the current 600 ns: the old floor-cast
    // gave 299 ns (0.49833…x) and anything smaller was dropped entirely.
    let base = write_record(
        &dir,
        "base.json",
        &fallback_baseline(&[("fw/TT/w100", 0.0003)]),
    );
    let out = hostperf(&[cur.to_str().unwrap(), base.to_str().unwrap()]);
    assert_eq!(
        exit_code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0.50x"),
        "300/600 must compare as exactly 0.50x, got:\n{stdout}"
    );
}

#[test]
fn zero_wall_fallback_scenario_warns_visibly_instead_of_silently_dropping() {
    let dir = tmp_dir("zero_wall_row");
    let cur = write_record(
        &dir,
        "cur.json",
        &current_with_host(&["fw/TT/w100", "gw/TT/w100"]),
    );
    // One row has real wall data (so the record passes the global
    // no-wall gate), the other is zero — the shape the old code dropped
    // without a word.
    let base = write_record(
        &dir,
        "base.json",
        &fallback_baseline(&[("fw/TT/w100", 0.0003), ("gw/TT/w100", 0.0)]),
    );
    let out = hostperf(&[cur.to_str().unwrap(), base.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("no baseline wall for 'gw/TT/w100'"),
        "dropped scenario must be named on stderr, got: {err}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0.50x"),
        "the priced row still compares:\n{stdout}"
    );
}

#[test]
fn compare_refuses_corrupt_seed_stats_as_invariant_failures() {
    let dir = tmp_dir("corrupt_stats");
    let base = write_record(&dir, "BENCH_base.json", &tiny_report());
    // min > max used to wrap `max - min` into a ~1.8e14 % noise band that
    // passed the row whatever it held.
    let mut inverted = tiny_report();
    inverted.scenarios[0].sim_time_ns.min = 5_000;
    let mut miscounted = tiny_report();
    miscounted.scenarios[0].num_seeds = 5;
    // A mean outside [min, max] describes no set of seed observations.
    let mut stray_mean = tiny_report();
    stray_mean.scenarios[0]
        .speedup_over_graphwalker
        .as_mut()
        .unwrap()
        .mean = 9.0;
    for (name, rep, want) in [
        ("BENCH_inverted.json", inverted, "min 5000 exceeds max 1010"),
        (
            "BENCH_stray_mean.json",
            stray_mean,
            "speedup_over_graphwalker mean 9 lies outside [min 4.5, max 5.5]",
        ),
        (
            "BENCH_miscounted.json",
            miscounted,
            "num_seeds 5 contradicts",
        ),
    ] {
        let cur = write_record(&dir, name, &rep);
        let out = fwbench("compare", &[base.to_str().unwrap(), cur.to_str().unwrap()]);
        assert_eq!(exit_code(&out), 4, "{name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{name}: {err}");
    }
}

#[test]
fn why_refuses_records_from_different_rng_universes() {
    let dir = tmp_dir("why_rng");
    let mut rep = tiny_report();
    rep.env.critical = true;
    rep.scenarios[0].critical = Some(
        fw_bench::bench_json::Json::parse(
            r#"{"total_ns":1000,"path_segments":1,"truncated":false,
                "shares":[{"name":"a","lane":0,"count":1,"service_ns":1000,"wait_ns":0}]}"#,
        )
        .unwrap(),
    );
    let base = write_record(&dir, "BENCH_global.json", &rep);
    rep.env.rng = fw_sim::RngModel::Sharded;
    let cur = write_record(&dir, "BENCH_sharded.json", &rep);
    let out = fwbench("why", &[base.to_str().unwrap(), cur.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("rng-model mismatch"), "{err}");
}
