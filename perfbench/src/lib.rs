//! `perfbench` — the repository's benchmark: three workloads driven
//! through the workspace crates' public functions, end-to-end metrics
//! from an untraced run, and a per-layer table from a separate traced
//! run. See `README.md` in this directory for the workloads, the metric
//! → layer → workload map and how to run it.
//!
//! A run repeats its workload until `--seconds` would be exceeded and
//! reports medians over the repetitions. Host times vary run to run;
//! simulated results are deterministic, checked against committed
//! digests at the default seed and against the first repetition always.

pub mod digest;
pub mod spans;
pub mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use digest::DigestTable;
use spans::{totals_by_name, NameTotals, Span, Tracer};
use workload::{run_rep, Ctx, Kind, Rep, Scale};

/// The default workload seed, `fwbench`'s: digests are committed for it,
/// and it reproduces `fwbench run --suite ci` and `fwbench serve --suite ci`.
pub use fw_bench::DEFAULT_SEED;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// A benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload.
    pub kind: Kind,
    /// Workload size.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time budget; at least one repetition always runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where records, digests and the span file go.
    pub out_dir: PathBuf,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No check failed.
    pub correct: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Of those, operations whose output failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The repetitions.
    pub reps: Vec<Rep>,
    /// Every span recorded (traced runs only).
    pub spans: Vec<Span>,
    /// Per span name: median calls, total and self time per repetition.
    pub layer_table: String,
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run a workload for `opts.seconds` and check its outputs.
pub fn run(opts: &Opts, table: &DigestTable) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let ctx = Ctx {
        tracer: &tracer,
        seed: opts.seed,
        scale: opts.scale,
        out_dir: &opts.out_dir,
    };
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut rep_spans = Vec::new();
    // Read after the first repetition: later ones reuse a heap that
    // earlier ones grew, so the process peak would depend on their count.
    let mut first_rep_rss_mb = 0.0;
    // Longest repetition so far, including work after its wall clock
    // stops (the traced run's probe-overhead pairs), to stay in budget.
    let mut longest = 0.0f64;
    loop {
        let t_rep = Instant::now();
        let rep = run_rep(opts.kind, &ctx);
        longest = longest.max(t_rep.elapsed().as_secs_f64());
        if reps.is_empty() {
            first_rep_rss_mb = peak_rss_mb();
        }
        rep_spans.push(tracer.drain());
        eprintln!(
            "perfbench: {} repetition {}: wall {:.3} s, setup {:.3} s",
            opts.kind.name(),
            reps.len() + 1,
            rep.wall_s,
            rep.setup_s
        );
        reps.push(rep);
        if t0.elapsed().as_secs_f64() + longest > opts.seconds {
            break;
        }
    }

    let Checked {
        attempted,
        failed,
        refused,
        problems,
    } = check(&reps, table, opts.kind.name(), opts.scale.name(), opts.seed);
    let ok_frac = ratio((attempted - failed - refused) as f64, attempted as f64);
    let mut per_rep: Vec<Vec<Metric>> = Vec::new();
    for (rep, spans) in reps.iter().zip(&rep_spans) {
        per_rep.push(if opts.trace {
            layer_metrics(rep, spans)
        } else {
            end_to_end(rep, first_rep_rss_mb, ok_frac)
        });
    }
    let metrics: Vec<Metric> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: median(&per_rep.iter().map(|r| r[i].value).collect::<Vec<_>>()),
            ..m.clone()
        })
        .collect();
    let layer_table = if opts.trace {
        layer_table(&reps, &rep_spans)
    } else {
        String::new()
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        problems,
        reps,
        spans: rep_spans.concat(),
        layer_table,
    }
}

/// What [`check`] found.
#[derive(Debug, Clone, Default, PartialEq)]
struct Checked {
    attempted: u64,
    failed: u64,
    refused: u64,
    problems: Vec<String>,
}

/// Check every repetition's operations: no broken invariant, the same
/// operations and digests as the first repetition, and, when digests are
/// committed for `(wl, scale, seed)`, exactly the committed operations
/// with the committed digests. An operation that fails counts all it
/// attempted as failed; refusals count only on operations that pass.
fn check(reps: &[Rep], table: &DigestTable, wl: &str, scale: &str, seed: u64) -> Checked {
    let committed_ops = table.ops(wl, scale, seed);
    let covered = !committed_ops.is_empty();
    let mut c = Checked::default();
    // Work the run skipped fails too: every committed operation must be
    // produced, and every repetition must produce the first one's.
    for name in committed_ops {
        if !reps[0].ops.iter().any(|op| op.name == name) {
            c.attempted += 1;
            c.failed += 1;
            c.problems
                .push(format!("{name}: committed but not produced"));
        }
    }
    for (ri, rep) in reps.iter().enumerate() {
        for missing in reps[0].ops.iter().skip(rep.ops.len()) {
            c.attempted += missing.attempted;
            c.failed += missing.attempted;
            c.problems.push(format!(
                "repetition {} {}: not produced, but the first repetition's was",
                ri + 1,
                missing.name
            ));
        }
        for (oi, op) in rep.ops.iter().enumerate() {
            c.attempted += op.attempted;
            let committed = table.get(wl, scale, seed, &op.name);
            let first = reps[0].ops.get(oi);
            let why = op.error.clone().or_else(|| match committed {
                _ if first.map(|f| (&f.name, f.digest)) != Some((&op.name, op.digest)) => {
                    Some("output differs from the first repetition's".to_string())
                }
                Some(d) if d != op.digest => {
                    Some(format!("digest {:016x} != committed {d:016x}", op.digest))
                }
                None if covered => Some("no committed digest for this operation".to_string()),
                _ => None,
            });
            if let Some(why) = why {
                c.failed += op.attempted;
                c.problems
                    .push(format!("repetition {} {}: {why}", ri + 1, op.name));
            } else {
                c.refused += op.refused;
            }
        }
    }
    c
}

/// The end-to-end metrics of one repetition, with the run's peak RSS
/// and `ok_frac`.
fn end_to_end(rep: &Rep, peak_rss_mb: f64, ok_frac: f64) -> Vec<Metric> {
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("wall_s", "s", rep.wall_s),
        m("setup_s", "s", rep.setup_s),
        m(
            "hops_per_s",
            "hops/s",
            ratio(rep.hops as f64, rep.wall_s - rep.setup_s),
        ),
        m("peak_rss_mb", "MiB", peak_rss_mb),
        m("ok_frac", "ratio", ok_frac),
        m("sim_speedup", "x", rep.sim_speedup),
        m("sim_p99_ms", "ms", rep.sim_p99_ms),
    ]
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(rep: &Rep, spans: &[Span]) -> Vec<Metric> {
    let by = totals_by_name(spans);
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let secs = |ns: u64| ns as f64 / 1e9;
    let c = &rep.counters;
    let (gen, fw_run, gw_run, serve_run) = (
        get("fw-graph.generate"),
        get("flashwalker.run"),
        get("graphwalker.run"),
        get("fw-serve.run_serve"),
    );
    let per_call_ms = |t: NameTotals| ratio(t.total_ns as f64 / 1e6, t.calls as f64);
    let mb = |b: u64| b as f64 / 1e6;
    let root = get("rep");
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("fw-graph.generate_s", "s", secs(gen.self_ns)),
        m(
            "fw-graph.ns_per_edge",
            "ns",
            ratio(gen.total_ns as f64, c.edges as f64),
        ),
        m(
            "fw-graph.partition_s",
            "s",
            secs(get("fw-graph.partition").self_ns),
        ),
        m(
            "flashwalker.build_ms",
            "ms",
            per_call_ms(get("flashwalker.build")),
        ),
        m(
            "graphwalker.build_ms",
            "ms",
            per_call_ms(get("graphwalker.build")),
        ),
        m("flashwalker.run_s", "s", secs(fw_run.self_ns)),
        m(
            "flashwalker.ns_per_event",
            "ns",
            ratio(fw_run.total_ns as f64, c.fw_events as f64),
        ),
        m(
            "flashwalker.ns_per_hop",
            "ns",
            ratio(fw_run.total_ns as f64, c.fw_hops as f64),
        ),
        m("flashwalker.events", "count", c.fw_events as f64),
        m(
            "flashwalker.events_per_hop",
            "ratio",
            ratio(c.fw_events as f64, c.fw_hops as f64),
        ),
        m(
            "flashwalker.fill_no_slot",
            "count",
            c.fw_fill_no_slot as f64,
        ),
        m(
            "flashwalker.fill_yield",
            "ratio",
            ratio(
                c.fw_sg_loads as f64,
                (c.fw_sg_loads + c.fw_fill_no_slot + c.fw_fill_no_candidate) as f64,
            ),
        ),
        m(
            "flashwalker.chip_hops_frac",
            "ratio",
            ratio(c.fw_chip_hops as f64, c.fw_hops as f64),
        ),
        m(
            "flashwalker.cache_hit_ratio",
            "ratio",
            ratio(
                c.fw_cache_hits as f64,
                (c.fw_cache_hits + c.fw_cache_misses) as f64,
            ),
        ),
        m("flashwalker.sg_loads", "count", c.fw_sg_loads as f64),
        m(
            "flashwalker.channel_util",
            "ratio",
            ratio(c.fw_channel_util_sum, c.fw_cells as f64),
        ),
        m(
            "flashwalker.channel_wait_ms",
            "ms",
            ratio(c.fw_channel_wait_ns_sum as f64 / 1e6, c.fw_cells as f64),
        ),
        m("graphwalker.run_s", "s", secs(gw_run.self_ns)),
        m(
            "graphwalker.ns_per_hop",
            "ns",
            ratio(gw_run.total_ns as f64, c.gw_hops as f64),
        ),
        m("graphwalker.block_loads", "count", c.gw_block_loads as f64),
        m("graphwalker.pcie_mb", "MB", mb(c.gw_pcie)),
        m("fw-nand.fw_flash_read_mb", "MB", mb(c.fw_flash_read)),
        m("fw-nand.fw_flash_write_mb", "MB", mb(c.fw_flash_write)),
        m("fw-nand.gw_flash_read_mb", "MB", mb(c.gw_flash_read)),
        m("fw-nand.gw_flash_write_mb", "MB", mb(c.gw_flash_write)),
        m(
            "fw-dram.board_busy_ms",
            "ms",
            c.fw_board_busy_ns as f64 / 1e6,
        ),
        m("fw-trace.overhead_frac", "ratio", rep.probe_overhead_frac),
        m("fw-trace.spans", "count", c.trace_spans as f64),
        m("fw-trace.dropped_spans", "count", c.trace_dropped as f64),
        m(
            "fw-sim.pool_idle_frac",
            "ratio",
            ratio(
                rep.workers as f64 * rep.run_phase_s - rep.cell_wall_s,
                rep.workers as f64 * rep.run_phase_s,
            ),
        ),
        m("fw-serve.run_s", "s", secs(serve_run.self_ns)),
        m("fw-serve.probe_s", "s", secs(get("fw-serve.probe").self_ns)),
        m(
            "fw-serve.ms_per_engine_run",
            "ms",
            ratio(serve_run.total_ns as f64 / 1e6, c.serve_engine_runs as f64),
        ),
        m("fw-serve.engine_runs", "count", c.serve_engine_runs as f64),
        m("fw-serve.batches", "count", c.serve_batches as f64),
        m(
            "fw-serve.cache_hit_ratio",
            "ratio",
            ratio(
                c.serve_cache_hits as f64,
                (c.serve_cache_hits + c.serve_cache_misses) as f64,
            ),
        ),
        m(
            "fw-serve.admit_ratio",
            "ratio",
            ratio(c.serve_admitted as f64, c.serve_offered as f64),
        ),
        m(
            "fw-bench.record_s",
            "s",
            secs(get("fw-bench.record").total_ns),
        ),
        m(
            "unattributed_frac",
            "ratio",
            ratio(root.self_ns as f64, root.total_ns as f64),
        ),
        m("traced_wall_s", "s", rep.wall_s),
    ]
}

/// Per span name, medians over repetitions of calls, total and self
/// seconds, and self time as a share of the repetition's wall.
fn layer_table(reps: &[Rep], rep_spans: &[Vec<Span>]) -> String {
    let per_rep: Vec<BTreeMap<&'static str, NameTotals>> =
        rep_spans.iter().map(|s| totals_by_name(s)).collect();
    let names: std::collections::BTreeSet<&str> =
        per_rep.iter().flat_map(|m| m.keys().copied()).collect();
    let mut out = format!(
        "{:<22} {:>7} {:>10} {:>10} {:>8}\n",
        "span", "calls", "total_s", "self_s", "self%"
    );
    for name in names {
        let col = |f: &dyn Fn(&NameTotals) -> f64| {
            median(
                &per_rep
                    .iter()
                    .map(|m| m.get(name).map_or(0.0, f))
                    .collect::<Vec<_>>(),
            )
        };
        let self_share = median(
            &per_rep
                .iter()
                .zip(reps)
                .map(|(m, r)| {
                    m.get(name)
                        .map_or(0.0, |t| t.self_ns as f64 / 1e9 / r.wall_s)
                })
                .collect::<Vec<_>>(),
        );
        let _ = writeln!(
            out,
            "{:<22} {:>7} {:>10.4} {:>10.4} {:>7.2}%",
            name,
            col(&|t| t.calls as f64),
            col(&|t| t.total_ns as f64 / 1e9),
            col(&|t| t.self_ns as f64 / 1e9),
            self_share * 100.0
        );
    }
    out
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Op;

    fn op(name: &str, digest: u64) -> Op {
        Op {
            name: name.to_string(),
            digest,
            attempted: 1,
            refused: 0,
            error: None,
        }
    }

    fn rep(ops: &[(&str, u64)]) -> Rep {
        Rep {
            ops: ops.iter().map(|&(n, d)| op(n, d)).collect(),
            ..Rep::default()
        }
    }

    fn table(ops: &[(&str, u64)]) -> DigestTable {
        let mut t = DigestTable::default();
        for &(n, d) in ops {
            t.set("w", "full", 1, n, d);
        }
        t
    }

    #[test]
    fn matching_repetitions_pass() {
        let ops = [("a", 1), ("b", 2)];
        let c = check(&[rep(&ops), rep(&ops)], &table(&ops), "w", "full", 1);
        assert_eq!(c.problems, Vec::<String>::new());
        assert_eq!((c.attempted, c.failed), (4, 0));
    }

    #[test]
    fn a_committed_operation_the_run_skipped_fails() {
        let c = check(
            &[rep(&[("a", 1)])],
            &table(&[("a", 1), ("b", 2)]),
            "w",
            "full",
            1,
        );
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(c.problems[0].contains("b: committed but not produced"));
    }

    #[test]
    fn a_repetition_with_fewer_operations_fails() {
        let c = check(
            &[rep(&[("a", 1), ("b", 2)]), rep(&[("a", 1)])],
            &DigestTable::default(),
            "w",
            "full",
            1,
        );
        assert_eq!((c.attempted, c.failed), (4, 1));
        assert!(c.problems[0].contains("repetition 2 b: not produced"));
    }

    #[test]
    fn an_uncommitted_operation_fails_only_when_the_run_is_covered() {
        let reps = [rep(&[("a", 1), ("x", 9)])];
        let covered = check(&reps, &table(&[("a", 1)]), "w", "full", 1);
        assert_eq!(covered.failed, 1);
        assert!(covered.problems[0].contains("no committed digest"));
        let other_seed = check(&reps, &table(&[("a", 1)]), "w", "full", 2);
        assert_eq!(other_seed.failed, 0);
    }
}
