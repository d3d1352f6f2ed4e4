//! `eabench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! eabench --workload <train_eval|serve_zipf|live_delta> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up (timed as
//! `setup_s`), measures for about `--seconds`, checks the program's
//! outputs, and prints one JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured with tracing off; with
//! `--trace 1` they are the per-layer set, from spans and counters the
//! benchmark records around the program's public calls. Metric meanings
//! per workload are in `eabench/NOTES.md`.

mod gen;
mod live_delta;
mod serve_zipf;
mod serving;
mod stats;
mod trace;
mod train_eval;

use stats::Samples;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use trace::Tracer;

/// `k` of every alignment answer the benchmark asks for (Hits@10 shape).
pub const ANSWER_K: usize = 10;

/// End-to-end metrics: every workload reports every one, tracing off.
/// Answer latencies are per-layer metrics: on a shared 2-core VM their
/// run-to-run spread is wider than any bound a regression gate can use
/// (see NOTES.md).
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("hits_at_1", "ratio"),
    ("mrr", "ratio"),
    ("recall_at_10", "ratio"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0: it did no work there.
pub const LAYER: [(&str, &str); 41] = [
    ("align.p50_us", "us"),
    ("align.p99_us", "us"),
    ("align.samples", "count"),
    ("synth.gen_s", "s"),
    ("ann.build_s", "s"),
    ("ann.centroid_scan_us", "us"),
    ("ann.rerank_us", "us"),
    ("ann.scanned_frac", "ratio"),
    ("kernel.pairs_scored_per_query", "count"),
    ("kernel.bytes_per_query", "B"),
    ("index.cache_hit_ratio", "ratio"),
    ("index.batch_occupancy", "count"),
    ("index.query_batch_us", "us"),
    ("conn.parse_ns", "ns"),
    ("server.align_mean_us", "us"),
    ("server.shed_queue", "count"),
    ("server.shed_latency", "count"),
    ("server.pipelined_batches", "count"),
    ("server.knee_qps", "1/s"),
    ("net.client_minus_server_us", "us"),
    ("swap.current_ns", "ns"),
    ("swap.load_ms", "ms"),
    ("swap.build_ms", "ms"),
    ("swap.warmed", "count"),
    ("swap.flip_us", "us"),
    ("swap.detect_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.read_ms", "ms"),
    ("train.MTransE_s", "s"),
    ("train.BootEA_s", "s"),
    ("train.GCNAlign_s", "s"),
    ("train.roster_s", "s"),
    ("train.epoch_ms", "ms"),
    ("train.pairs_per_s", "1/s"),
    ("train.outside_epoch_s", "s"),
    ("eval.s", "s"),
    ("live.train_to_serve_ms", "ms"),
    ("gen.late_p99_us", "us"),
    ("gen.sent", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

const USAGE: &str = "usage: eabench --workload <train_eval|serve_zipf|live_delta> \
--seed N --seconds S --trace 0|1";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads for training and kernel sweeps: the host's cores.
    pub threads: usize,
    /// Scratch directory inside the checkout, removed at the end.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not a u64")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["train_eval", "serve_zipf", "live_delta"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = seed.ok_or("missing --seed")?;
    let work =
        PathBuf::from(".eabench-work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        threads: nproc(),
        work,
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a workload measured and how its operations went.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    incorrect: u64,
    e2e: BTreeMap<String, f64>,
    layer: BTreeMap<String, f64>,
    stamps: BTreeMap<String, String>,
    messages: Vec<String>,
}

impl Outcome {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn attempts(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// One failed operation (refused, errored, panicked, unanswered).
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        self.note(why);
    }

    /// `n` failed operations of one kind.
    pub fn fails(&mut self, n: usize, why: &str) {
        if n > 0 {
            self.failed += n as u64;
            self.note(&format!("{n} x {why}"));
        }
    }

    /// One wrong answer: a failure that also makes the run incorrect.
    pub fn incorrect(&mut self, why: &str) {
        self.incorrect += 1;
        self.fail(why);
    }

    fn note(&mut self, why: &str) {
        if self.messages.len() < 8 {
            self.messages.push(why.to_string());
        }
    }

    pub fn e2e(&mut self, name: &str, v: f64) {
        assert!(
            E2E.iter().any(|(n, _)| *n == name),
            "{name} is not an end-to-end metric"
        );
        self.e2e.insert(name.to_string(), v);
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        assert!(
            LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layer.insert(name.to_string(), v);
    }

    pub fn stamp(&mut self, key: &str, v: impl ToString) {
        self.stamps.insert(key.to_string(), v.to_string());
    }

    /// Sets `align.p50_us` and `align.p99_us`: the exact percentiles of
    /// each window's raw samples, and their median over the windows. Each
    /// p99 needs at least ten samples beyond it; a window without them has
    /// measured too little and counts as a failed operation.
    pub fn latency(&mut self, windows: &[Samples]) {
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for (i, w) in windows.iter().enumerate() {
            if w.beyond(99.0) < stats::MIN_BEYOND {
                self.fail(&format!(
                    "latency window {i}: {} samples are too few for a p99",
                    w.len()
                ));
            }
            if let Some(s) = w.summary() {
                println!(
                    "latency window {i}: p50 {:.1} us, p{} {:.1} us, {} samples",
                    s.p50, s.tail_pct, s.tail, s.count
                );
            }
            p50s.extend(w.percentile(50.0));
            p99s.extend(w.percentile(99.0));
        }
        if p50s.is_empty() {
            self.fail("no latency samples");
            return;
        }
        let (p50, p99) = (stats::median(&p50s), stats::median(&p99s));
        let samples: usize = windows.iter().map(Samples::len).sum();
        println!("align latency: p50 {p50:.1} us, p99 {p99:.1} us (medians over windows), {samples} samples");
        self.layer("align.p50_us", p50);
        self.layer("align.p99_us", p99);
        self.layer("align.samples", samples as f64);
    }
}

/// Overlap of an answer's ids with the exact top-`k` ids.
pub fn recall(got: &[(u32, f32)], exact: &[(u32, f32)]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = got
        .iter()
        .filter(|(id, _)| exact.iter().any(|(e, _)| e == id))
        .count();
    hits as f64 / exact.len() as f64
}

/// `(steal, total)` jiffies of all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: cannot create {}: {e}", args.work.display());
        exit(1);
    }
    // A caught panic is one failed operation, reported with its message.
    // The default hook also prints a backtrace when RUST_BACKTRACE is set,
    // and symbolising it adds up to 15 MiB of resident memory that
    // `peak_rss_mb` would charge to the program.
    std::panic::set_hook(Box::new(|info| eprintln!("{info}")));
    let mut tr = Tracer::new(args.trace);
    let mut out = Outcome::default();
    out.stamp("workload", &args.workload);
    out.stamp("seed", args.seed);
    out.stamp("nproc", nproc());
    out.stamp(
        "kernel_backend",
        openea::math::kernel::active_backend().label(),
    );
    out.stamp("generator_threads", 1);
    out.stamp("trace", args.trace as u8);
    let wall = std::time::Instant::now();
    let jiffies = cpu_jiffies();
    match args.workload.as_str() {
        "train_eval" => train_eval::run(&args, &mut tr, &mut out),
        "serve_zipf" => serve_zipf::run(&args, &mut tr, &mut out),
        _ => live_delta::run(&args, &mut tr, &mut out),
    }
    let wall_s = wall.elapsed().as_secs_f64();
    // CPU time the hypervisor gave to other guests while this run went on:
    // context for reading its timings, not a metric.
    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies, cpu_jiffies()) {
        out.stamp(
            "host_steal_frac",
            format!("{:.4}", (s1 - s0) as f64 / (t1 - t0).max(1) as f64),
        );
    }
    out.e2e("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));

    if args.trace {
        // Tracing cost: spans recorded times the calibrated cost of one,
        // over the traced run's wall time.
        let spans = tr.len() as f64;
        out.layer("trace.spans", spans);
        out.layer(
            "trace.overhead_frac",
            spans * Tracer::cost_per_span_ns() / (wall_s * 1e9),
        );
        let path = PathBuf::from(".eabench-work")
            .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        match tr.write_tsv(&path) {
            Ok(()) => println!("spans: {} written to {}", tr.len(), path.display()),
            Err(e) => out.fail(&format!("cannot write spans: {e}")),
        }
        for (name, ns) in tr.self_time_by_name() {
            println!("self time {name}: {:.3} ms", ns as f64 / 1e6);
        }
    }
    let _ = std::fs::remove_dir_all(&args.work);

    let (metrics, wanted) = if args.trace {
        (&out.layer, &LAYER[..])
    } else {
        (&out.e2e, &E2E[..])
    };
    let mut fields = Vec::new();
    let mut problems = Vec::new();
    for (name, unit) in wanted {
        let v = match metrics.get(*name) {
            Some(&v) => v,
            // A layer the workload did not exercise did no work.
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        if !v.is_finite() {
            problems.push(format!("{name} was not measured as a finite number"));
        }
        println!("metric {name} = {v} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(v),
            json_string(unit)
        ));
    }
    for p in problems {
        out.fail(&p);
    }
    let stamps: Vec<String> = out
        .stamps
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("stamp {{{}}}", stamps.join(", "));
    for m in &out.messages {
        println!("failure: {m}");
    }
    let correct = out.incorrect == 0;
    println!(
        "check: {} ({} attempted, {} failed, {} incorrect)",
        if correct { "correct" } else { "INCORRECT" },
        out.attempted,
        out.failed,
        out.incorrect
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}
