//! End-to-end benchmark of the SkyQuery federation.
//!
//! ```text
//! cargo run --release --manifest-path fedbench/Cargo.toml -- \
//!     --workload <survey-20k|scatter-4x2|repeat-ingest|tenants-jobs> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives one workload in a closed loop through the
//! federation's public calls, checks every answer against the workload's
//! oracle outside the timed region, and prints the metrics as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a separate traced run with `--trace 1`.
//!
//! Network figures are deltas of `SimNetwork::metrics()` snapshots. The
//! benchmark never resets the metrics: the simulated clock that ages
//! leases and cache entries is computed from those totals.

mod replay;
mod tracing;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use skyquery_net::NetworkMetrics;

use tracing::{Recorder, BENCH_HOST};
use workloads::{Class, Ctx, Spec, Workload, SPECS};

/// Set-ups per untraced run, fewest and most; `setup_s` is their median.
/// Between the two, a run takes as many as fit in `SETUP_SHARE` of its
/// measured seconds.
const SETUPS: (usize, usize) = (7, 31);
const SETUP_SHARE: f64 = 0.1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Everything one measured phase observed.
#[derive(Default)]
struct Phase {
    latencies: Vec<f64>,
    waits: Vec<f64>,
    timed_s: f64,
    attempted: usize,
    failed: usize,
    /// Wire bytes, simulated seconds and operations over the
    /// deterministic window.
    window: (u64, f64, usize),
    /// Operations per class with their summed latency.
    classes: BTreeMap<&'static str, (usize, f64)>,
    messages: u64,
    retries: u64,
    faults: u64,
    chunks: u64,
    chunked_ops: usize,
}

impl Phase {
    fn ops(&self) -> usize {
        self.latencies.len()
    }
}

/// Runs batches from 0 until `seconds` have passed, at least
/// `min_batches` ran and the batches make whole passes of `pass`, or
/// until `max_batches` ran. `between` is called untimed after each batch
/// with the number of batches run. Returns the phase and the batches run.
fn measure(
    w: &mut dyn Workload,
    ctx: &mut Ctx,
    (seconds, min_batches, max_batches): (f64, usize, usize),
    pass: usize,
    window: usize,
    between: &mut dyn FnMut(usize),
) -> (Phase, usize) {
    let mut p = Phase::default();
    let start = Instant::now();
    let mut b = 0;
    loop {
        let before = w.net().metrics();
        let batch = w.batch(b, ctx);
        let after = w.net().metrics();
        let (bytes, sim) = net_delta(&before, &after);
        let ops = batch.ops.len();
        if b < window {
            p.window.0 += bytes;
            p.window.1 += sim;
            p.window.2 += ops;
        }
        p.messages += after.total().messages - before.total().messages;
        p.retries += after.retry_total().retries - before.retry_total().retries;
        p.faults += after.fault_total() - before.fault_total();
        let chunks = after.chunk_total().chunks - before.chunk_total().chunks;
        p.chunks += chunks;
        if chunks > 0 {
            p.chunked_ops += ops;
        }
        p.timed_s += batch.timed_s;
        for op in batch.ops {
            p.attempted += 1;
            if !op.ok {
                p.failed += 1;
            }
            p.latencies.push(op.latency_s);
            p.waits.extend(op.wait_sim_s);
            let class = match op.class {
                Class::Read => "read",
                Class::Write => "write",
                Class::Job => "job",
                Class::Hit => "hit",
                Class::Repair => "repair",
                Class::Miss => "miss",
            };
            let e = p.classes.entry(class).or_default();
            e.0 += 1;
            e.1 += op.latency_s;
        }
        b += 1;
        between(b);
        let done = start.elapsed().as_secs_f64() >= seconds && b >= min_batches && b % pass == 0;
        if done || b >= max_batches {
            return (p, b);
        }
    }
}

fn net_delta(before: &NetworkMetrics, after: &NetworkMetrics) -> (u64, f64) {
    (
        after.total().bytes - before.total().bytes,
        after.total().sim_seconds - before.total().sim_seconds,
    )
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Builds the workload and runs the warm-up query; returns the workload
/// and the set-up seconds (build, registration and warm-up).
fn setup(spec: &Spec, seed: u64) -> (Box<dyn Workload>, f64) {
    let (w, build_s) = (spec.setup)(seed);
    let warm_s = workloads::warm_up(w.portal());
    (w, build_s + warm_s)
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn untraced(spec: &Spec, args: &Args) -> Report {
    let mut ctx = Ctx::default();
    let (mut w, first) = setup(spec, args.seed);
    let n = ((SETUP_SHARE * args.seconds / first) as usize).clamp(SETUPS.0, SETUPS.1);
    let mut setups = vec![first];
    // The other set-ups are spread over the run, so that their median
    // sees the same host as the timed operations rather than only the
    // cold start of the process. None runs inside the deterministic
    // window: each consumes transaction ids, whose digits are on the wire.
    let slot = args.seconds / n as f64;
    let start = Instant::now();
    // Peak RSS over the set-up and the deterministic window: a fixed
    // amount of work, read before any further set-up adds to it.
    let mut rss = f64::NAN;
    let mut sample = |b: usize| {
        if b == spec.window {
            rss = peak_rss_mb();
        }
        let due = start.elapsed().as_secs_f64() >= slot * setups.len() as f64;
        if b >= spec.window && setups.len() < n && due {
            setups.push((spec.sample)(args.seed));
        }
    };
    let stop = (args.seconds, spec.window, usize::MAX);
    let (p, _) = measure(
        w.as_mut(),
        &mut ctx,
        stop,
        spec.pass,
        spec.window,
        &mut sample,
    );
    drop(w);
    while setups.len() < n {
        setups.push((spec.sample)(args.seed));
    }
    let ops = p.ops() as f64;
    let (bytes, sim, window_ops) = p.window;
    let ms = |s: f64| s * 1e3;
    let metrics = vec![
        ("latency_p50_ms", ms(quantile(&p.latencies, 0.5)), "ms"),
        ("latency_p90_ms", ms(quantile(&p.latencies, 0.9)), "ms"),
        ("ops_per_s", ops / p.timed_s, "1/s"),
        (
            "wire_bytes_per_op",
            bytes as f64 / window_ops as f64,
            "bytes",
        ),
        ("net_sim_s_per_op", sim / window_ops as f64, "s"),
        ("queue_wait_p50_sim_s", quantile(&p.waits, 0.5), "s"),
        ("queue_wait_p95_sim_s", quantile(&p.waits, 0.95), "s"),
        ("setup_s", quantile(&setups, 0.5), "s"),
        ("peak_rss_mb", rss, "MB"),
    ];
    eprintln!(
        "{}: {} ops in {:.2} s timed; window {} ops; {} set-ups",
        spec.name,
        p.ops(),
        p.timed_s,
        window_ops,
        setups.len()
    );
    report(0, 0, p, ctx.replay_mismatches, metrics)
}

fn report(
    attempted: usize,
    failed: usize,
    p: Phase,
    mismatches: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
) -> Report {
    let attempted = attempted + p.attempted;
    let failed = failed + p.failed;
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if mismatches > 0 {
        eprintln!("{mismatches} kernel replays disagreed with the served answer");
    }
    Report {
        correct: failed == 0 && mismatches == 0 && finite,
        attempted,
        failed,
        metrics,
    }
}

fn traced(spec: &Spec, args: &Args) -> Report {
    let mut ctx = Ctx::default();
    let (mut w, _) = setup(spec, args.seed);
    // Untraced for half the time, then the same batches again traced,
    // so the overhead compares like with like.
    let half = (args.seconds / 2.0, 1, usize::MAX);
    let (plain, ran) = measure(w.as_mut(), &mut ctx, half, spec.pass, 0, &mut |_| {});
    let plain_rate = plain.ops() as f64 / plain.timed_s;

    let rec = Recorder::new();
    for (host, endpoint) in w.endpoints() {
        rec.wrap(w.net(), &host, endpoint);
    }
    ctx.twins = w.twins();
    ctx.rec = Some(rec.clone());
    let (p, _) = measure(w.as_mut(), &mut ctx, (0.0, ran, ran), 1, 0, &mut |_| {});
    ctx.rec = None;
    w.finish(&mut ctx);

    let spans = rec.spans();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-{}", spec.name, args.seed);
    if let Err(e) = tracing::write_spans(&dir, &stem, &spans) {
        eprintln!("could not write the spans to {}: {e}", dir.display());
    }
    let metrics = layer_metrics(&ctx, &p, &spans, plain_rate, w.batch_ops());
    report(
        plain.attempted,
        plain.failed,
        p,
        ctx.replay_mismatches,
        metrics,
    )
}

/// Per-layer metrics of the traced phase.
fn layer_metrics(
    ctx: &Ctx,
    p: &Phase,
    spans: &[tracing::Span],
    plain_rate: f64,
    batch_ops: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let ops = p.ops() as f64;
    let selfs = tracing::self_times(spans);
    let mut dur: BTreeMap<String, f64> = BTreeMap::new();
    let mut own: BTreeMap<String, f64> = BTreeMap::new();
    let mut count: BTreeMap<String, f64> = BTreeMap::new();
    let (mut root_s, mut root_self) = (0.0, 0.0);
    let (mut node_self, mut portal_self) = (0.0, 0.0);
    for (s, self_s) in spans.iter().zip(&selfs) {
        let key = if &*s.host == BENCH_HOST {
            s.name.clone()
        } else if s.host.starts_with("portal.") {
            format!("portal:{}", s.name)
        } else if s.host.starts_with("jobs.") {
            format!("jobs:{}", s.name)
        } else {
            node_self += self_s;
            format!("node:{}", s.name)
        };
        match key.as_str() {
            "op" => {
                root_s += s.end - s.start;
                root_self += self_s;
            }
            "portal.plan" | "portal.execute" | "portal.project" | "portal.refresh"
            | "jobs.pump" => portal_self += self_s,
            _ => {}
        }
        *dur.entry(key.clone()).or_default() += s.end - s.start;
        *own.entry(key.clone()).or_default() += self_s;
        *count.entry(key).or_default() += 1.0;
    }
    let per_op_ms =
        |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0) * 1e3 / ops;
    let per_op = |k: &str| count.get(k).copied().unwrap_or(0.0) / ops;
    let sum = |k: &str| ctx.get(k);
    let class = |k: &str| p.classes.get(k).copied().unwrap_or((0, 0.0));
    let class_ms = |k: &str| {
        let (n, s) = class(k);
        if n == 0 {
            0.0
        } else {
            s * 1e3 / n as f64
        }
    };
    let (hits, repairs, misses) = (class("hit").0, class("repair").0, class("miss").0);
    let reads = (hits + repairs + misses) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let jobs = if batch_ops > 1 { ops } else { 0.0 };
    let writes = class("write").0 as f64;
    let traced_rate = ops / p.timed_s;
    vec![
        ("sql.parse_us", sum("sql.parse_s") * 1e6 / ops, "us"),
        ("portal.plan_ms", per_op_ms(&dur, "portal.plan"), "ms"),
        ("portal.perf_queries_per_op", per_op("node:Query"), "count"),
        ("portal.execute_ms", per_op_ms(&dur, "portal.execute"), "ms"),
        ("portal.project_ms", per_op_ms(&dur, "portal.project"), "ms"),
        ("portal.self_ms", portal_self * 1e3 / ops, "ms"),
        ("net.messages_per_op", p.messages as f64 / ops, "count"),
        (
            "net.http_codec_ms",
            sum("net.http_codec_s") * 1e3 / ops,
            "ms",
        ),
        ("net.retries_per_op", p.retries as f64 / ops, "count"),
        ("net.faults_per_op", p.faults as f64 / ops, "count"),
        ("soap.envelope_ms", sum("soap.envelope_s") * 1e3 / ops, "ms"),
        ("xml.votable_ms", sum("xml.votable_s") * 1e3 / ops, "ms"),
        ("transfer.chunks_per_op", p.chunks as f64 / ops, "count"),
        (
            "transfer.chunked_op_share",
            p.chunked_ops as f64 / ops,
            "ratio",
        ),
        (
            "skynode.fetch_chunk_ms",
            per_op_ms(&own, "node:FetchChunk"),
            "ms",
        ),
        ("skynode.self_ms", node_self * 1e3 / ops, "ms"),
        (
            "skynode.cross_match_ms",
            per_op_ms(&own, "node:CrossMatch"),
            "ms",
        ),
        (
            "skynode.scatter_step_ms",
            per_op_ms(&own, "node:ScatterStep"),
            "ms",
        ),
        (
            "skynode.execute_step_ms",
            per_op_ms(&own, "node:ExecuteStep"),
            "ms",
        ),
        (
            "skynode.delta_step_ms",
            per_op_ms(&own, "node:DeltaStep"),
            "ms",
        ),
        ("skynode.query_ms", per_op_ms(&own, "node:Query"), "ms"),
        (
            "skynode.fetch_checkpoint_ms",
            per_op_ms(&own, "node:FetchCheckpoint"),
            "ms",
        ),
        ("xmatch.kernel_ms", sum("xmatch.kernel_s") * 1e3 / ops, "ms"),
        (
            "xmatch.candidates_examined_per_op",
            sum("xmatch.examined") / ops,
            "count",
        ),
        (
            "xmatch.accept_ratio",
            ratio(sum("xmatch.accepted"), sum("xmatch.probed")),
            "ratio",
        ),
        (
            "xmatch.tuples_out_per_op",
            sum("xmatch.tuples_out") / ops,
            "count",
        ),
        (
            "storage.tile_builds_per_op",
            sum("storage.tile_builds") / ops,
            "count",
        ),
        (
            "storage.ingest_ms",
            ratio(
                dur.get("storage.ingest").copied().unwrap_or(0.0) * 1e3,
                writes,
            ),
            "ms",
        ),
        ("shard.merge_ms", sum("shard.merge_s") * 1e3 / ops, "ms"),
        ("scatter.fanout_per_op", per_op("node:ScatterStep"), "count"),
        (
            "scatter.shards_pruned_per_op",
            sum("scatter.shards_pruned") / ops,
            "count",
        ),
        (
            "scatter.failovers_per_op",
            sum("scatter.failovers") / ops,
            "count",
        ),
        (
            "scatter.hedges_per_op",
            sum("scatter.hedges") / ops,
            "count",
        ),
        ("result_cache.hit_ratio", ratio(hits as f64, reads), "ratio"),
        ("result_cache.repairs_per_op", repairs as f64 / ops, "count"),
        (
            "result_cache.evictions_per_op",
            sum("cache.evictions") / ops,
            "count",
        ),
        ("result_cache.hit_ms", class_ms("hit"), "ms"),
        ("result_cache.repair_ms", class_ms("repair"), "ms"),
        ("result_cache.miss_ms", class_ms("miss"), "ms"),
        (
            "jobs.pump_ms",
            ratio(dur.get("jobs.pump").copied().unwrap_or(0.0) * 1e3, jobs),
            "ms",
        ),
        (
            "jobs.quanta_per_job",
            ratio(sum("jobs.quanta"), jobs),
            "count",
        ),
        (
            "jobs.fetch_pages_per_job",
            ratio(
                count.get("jobs:FetchResults").copied().unwrap_or(0.0)
                    + count.get("jobs:FetchChunk").copied().unwrap_or(0.0),
                jobs,
            ),
            "count",
        ),
        ("jobs.rejects", sum("jobs.rejects"), "count"),
        ("jobs.leases_left", sum("jobs.leases_left"), "count"),
        ("trace.coverage", ratio(root_s - root_self, root_s), "ratio"),
        ("trace.overhead", 1.0 - traced_rate / plain_rate, "ratio"),
    ]
}

fn json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fedbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload) else {
        eprintln!("fedbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let report = if args.trace {
        traced(spec, &args)
    } else {
        untraced(spec, &args)
    };
    for (name, value, unit) in &report.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
