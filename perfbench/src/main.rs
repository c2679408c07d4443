//! `perfbench --workload <suite-ci|walks-dense|serve> --seed <n>
//!            --seconds <s> --trace <0|1> [--scale full|smoke]`
//!
//! Runs one workload for about `--seconds`, prints its metrics by name
//! and unit, then, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` records host-time spans around
//! every call into a layer, prints the per-layer table and writes the
//! spans as a Chrome `trace_event` file. Records, computed digests and
//! the span file go to `$CARGO_TARGET_DIR/perfbench-out` (or
//! `perfbench/target/perfbench-out`). Exit code 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::digest::{line, DigestTable};
use perfbench::workload::{Kind, Scale};
use perfbench::{result_json, run, Opts, DEFAULT_SEED};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <suite-ci|walks-dense|serve> [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(kind) = flag("--workload").and_then(Kind::parse) else {
        return usage("--workload wants suite-ci, walks-dense or serve");
    };
    let Ok(seed) = flag("--seed").map_or(Ok(DEFAULT_SEED), str::parse::<u64>) else {
        return usage("--seed wants an unsigned integer");
    };
    let seconds = match flag("--seconds").map_or(Ok(10.0), str::parse::<f64>) {
        Ok(s) if s.is_finite() && s >= 0.0 => s,
        _ => return usage("--seconds wants a non-negative number"),
    };
    let trace = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage("--trace wants 0 or 1"),
    };
    let scale = match flag("--scale").unwrap_or("full") {
        "full" => Scale::Full,
        "smoke" => Scale::Smoke,
        _ => return usage("--scale wants full or smoke"),
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    let out_dir = target.join("perfbench-out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let opts = Opts {
        kind,
        scale,
        seed,
        seconds,
        trace,
        out_dir,
    };
    let outcome = run(&opts, &DigestTable::committed());
    let tag = format!("{}-{}-{seed}", kind.name(), scale.name());

    // The digests this run computed, in `digests.txt` form, for a
    // deliberate rebaseline.
    let digests: Vec<String> = outcome.reps[0]
        .ops
        .iter()
        .map(|op| line(kind.name(), scale.name(), seed, &op.name, op.digest))
        .collect();
    let digest_path = opts.out_dir.join(format!("digests-{tag}.txt"));
    if let Err(e) = std::fs::write(&digest_path, digests.join("\n") + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", digest_path.display());
        return ExitCode::FAILURE;
    }
    if trace {
        let path = opts.out_dir.join(format!("trace-{tag}.json"));
        if let Err(e) = std::fs::write(&path, perfbench::spans::chrome_trace_json(&outcome.spans)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("{}", outcome.layer_table);
        eprintln!("perfbench: wrote {}", path.display());
    }
    for p in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    println!(
        "{} seed={seed} scale={} repetitions={}",
        kind.name(),
        scale.name(),
        outcome.reps.len()
    );
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
