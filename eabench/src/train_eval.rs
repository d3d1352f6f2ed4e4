//! `train_eval`: the paper's own job (Table 5 / Fig. 8) — train and
//! evaluate one approach per family on medium D-Y pairs, fold 0.
//!
//! The trainer, autodiff and evaluation/top-k layers do nearly all of the
//! work; the serving layers do none. After each approach is evaluated,
//! every test entity's top-10 answer is also computed on its own, the way
//! a caller asks the trained model one alignment question at a time: those
//! single-query answers give the `align.*` latencies and are checked bit
//! for bit against the batched dense top-10.

use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::{Args, Outcome, ANSWER_K};
use openea::align::TopKMatrix;
use openea::prelude::*;
use openea_runtime::rng::{split_seed, SeedableRng, SmallRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Entities per KG: the harness's medium scale.
const ENTITIES: usize = 1500;
const FOLDS: usize = 5;
/// One approach per family, by registry name, with its span name.
const ROSTER: [(&str, &str); 3] = [
    ("MTransE", "train.MTransE"),
    ("BootEA", "train.BootEA"),
    ("GCNAlign", "train.GCNAlign"),
];
/// Datasets per run, each from its own stream of the run's seed: the
/// quality and speed figures average over them, which keeps them steady
/// from seed to seed.
const DATASETS: u64 = 3;
/// Groups of repeated set-ups behind `setup_s`. Before each approach run
/// and after the last, one set-up per group runs; `setup_s` is the median
/// of the groups' means. The 2-core VM this was tuned on switches between
/// a fast state and a ~1.6x slower one that lasts seconds. A 30 to 45 ms
/// set-up, or a second of them back to back, lands wholly in one state,
/// so a median over them jumps between the two states' values. Each
/// group's mean samples the whole run instead, and the median of the
/// groups drops a group that one stray set-up pulled off.
const SETUP_GROUPS: usize = 3;
/// Sweeps of single-query answers per approach; sweep `r` of every
/// approach forms latency window `r`.
const SWEEPS: usize = 3;

type Dataset = (u64, KgPair, FoldSplit);

fn setup(seed: u64) -> Vec<Dataset> {
    (0..DATASETS)
        .map(|j| {
            let seed = split_seed(seed, j);
            let pair = PresetConfig::new(DatasetFamily::DY, ENTITIES, false, seed).generate();
            let mut rng = SmallRng::seed_from_u64(seed);
            let fold = k_fold_splits(&pair.alignment, FOLDS, &mut rng).swap_remove(0);
            (seed, pair, fold)
        })
        .collect()
}

/// Times one set-up from `seed` per group, in seconds. The same seed must
/// give the same data every time.
fn time_setups(
    seed: u64,
    data: &[Dataset],
    groups: &mut [Vec<f64>],
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    for group in groups {
        let t = Instant::now();
        let again = tr.time("synth.preset", 0, 0, || setup(seed));
        group.push(t.elapsed().as_secs_f64());
        if !same_data(data, &again) {
            out.incorrect(&format!("set-up from seed {seed} differs between repeats"));
        }
    }
}

/// Whether two set-ups from one seed built the same pairs and folds.
fn same_data(a: &[Dataset], b: &[Dataset]) -> bool {
    let same_kg = |x: &KnowledgeGraph, y: &KnowledgeGraph| {
        x.rel_triples() == y.rel_triples() && x.attr_triples() == y.attr_triples()
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|((s, p, f), (t, q, g))| {
            s == t
                && same_kg(&p.kg1, &q.kg1)
                && same_kg(&p.kg2, &q.kg2)
                && p.alignment == q.alignment
                && (&f.train, &f.valid, &f.test) == (&g.train, &g.valid, &g.test)
        })
}

pub fn run(args: &Args, tr: &mut Tracer, out: &mut Outcome) {
    let t = Instant::now();
    let data = tr.time("synth.preset", 0, 0, || setup(args.seed));
    println!("first set-up: {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
    let mut groups: [Vec<f64>; SETUP_GROUPS] = Default::default();
    out.stamp("train_threads", args.threads);
    out.stamp("datasets", DATASETS);

    let mut job_s = 0.0f64;
    let mut aligned = 0usize;
    // Per roster approach, over its runs that finished: train + evaluate
    // seconds, entities aligned, and each run's Hits@1 and MRR.
    let mut spent = [(0.0f64, 0usize); ROSTER.len()];
    let mut hits1: [Vec<f64>; ROSTER.len()] = Default::default();
    let mut mrr: [Vec<f64>; ROSTER.len()] = Default::default();
    let mut recall = Vec::new();
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); SWEEPS];
    let mut epochs_ms: Vec<f64> = Vec::new();
    let (mut pairs, mut epoch_wall_s, mut outside_s) = (0usize, 0.0f64, 0.0f64);
    let (mut scored, mut bytes) = (Vec::new(), Vec::new());
    let mut request = 0u64;
    for (seed, pair, fold) in &data {
        let defaults = RunConfig::default();
        let rc = RunConfig {
            threads: args.threads,
            seed: *seed,
            // Validation and best-checkpoint selection stay, early stopping
            // does not: every run trains its whole epoch budget, so the
            // work is the same on every seed and throughput measures speed,
            // not how early a pair happened to converge.
            patience: defaults.max_epochs,
            ..defaults
        };
        let ctx = RunContext::new(&rc);
        let sources: Vec<EntityId> = fold.test.iter().map(|&(a, _)| a).collect();
        let targets: Vec<EntityId> = fold.test.iter().map(|&(_, b)| b).collect();
        for (a, &(name, span)) in ROSTER.iter().enumerate() {
            time_setups(args.seed, &data, &mut groups, tr, out);
            request += 1;
            out.attempt();
            let approach = approach_by_name(name).expect("roster approaches are registered");
            let t = Instant::now();
            let root = tr.begin(span, 0, request);
            let trained = catch_unwind(AssertUnwindSafe(|| {
                approach.run_with(pair, fold, &rc, &ctx)
            }));
            tr.end(root);
            let train_s = t.elapsed().as_secs_f64();
            let output = match trained {
                Ok(o) => o,
                Err(panic) => {
                    // The job's wall time includes the failed run.
                    job_s += train_s;
                    out.fail(&format!(
                        "{name} on dataset seed {seed} panicked: {}",
                        panic_text(&panic)
                    ));
                    continue;
                }
            };
            let te = Instant::now();
            let eval = tr.time("eval", 0, request, || {
                evaluate_output(&output, &fold.test, rc.threads)
            });
            let run_s = train_s + te.elapsed().as_secs_f64();
            job_s += run_s;
            aligned += fold.test.len();
            spent[a].0 += run_s;
            spent[a].1 += fold.test.len();
            println!(
                "{name} (dataset seed {seed}): Hits@1 {:.4}, MRR {:.4}, {train_s:.2} s",
                eval.hits1, eval.mrr
            );
            hits1[a].push(eval.hits1);
            mrr[a].push(eval.mrr);

            let walls: f64 = output.trace.epochs.iter().map(|e| e.wall_s).sum();
            epochs_ms.extend(output.trace.epochs.iter().map(|e| e.wall_s * 1e3));
            pairs += output.trace.epochs.iter().map(|e| e.pairs).sum::<usize>();
            epoch_wall_s += walls;
            outside_s += (train_s - walls).max(0.0);

            // One alignment question at a time against the batched answer;
            // a single-query sweep scores the query against every target.
            let (src, dst) = output.gather(&sources, &targets);
            let dim = output.dim;
            scored.push(targets.len() as f64);
            bytes.push((targets.len() * dim * 4) as f64);
            let dense = tr.time("topk.batch", 0, request, || {
                TopKMatrix::compute(&src, &dst, dim, output.metric, ANSWER_K, rc.threads)
            });
            for (sweep, window) in windows.iter_mut().enumerate() {
                for row in 0..sources.len() {
                    let q = &src[row * dim..(row + 1) * dim];
                    let t = Instant::now();
                    let single = TopKMatrix::compute(q, &dst, dim, output.metric, ANSWER_K, 1);
                    window.push(t.elapsed().as_nanos() as f64 / 1e3);
                    if sweep > 0 {
                        continue;
                    }
                    out.attempt();
                    let got = single.row(0);
                    let want = dense.row(row);
                    if !same_bits(got, want) {
                        out.incorrect(&format!(
                            "{name} query {row}: single {got:?} != batched {want:?}"
                        ));
                    }
                    recall.push(crate::recall(got, want));
                }
            }
        }
    }
    time_setups(args.seed, &data, &mut groups, tr, out);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let means: Vec<f64> = groups.iter().map(|g| mean(g)).collect();
    let ms: Vec<String> = means.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!("set-up group means: {} ms", ms.join(" "));
    out.e2e("setup_s", median(&means));
    let timed = 1 + groups.iter().map(Vec::len).sum::<usize>();
    out.layer(
        "synth.gen_s",
        tr.total_ns("synth.preset") as f64 / 1e9 / timed as f64,
    );
    // Quality is averaged per approach first, so a run that panics (one
    // failed operation) does not shift the mix of approaches in the mean.
    let per_approach = |runs: &[Vec<f64>]| {
        let means: Vec<f64> = runs
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| mean(v))
            .collect();
        mean(&means)
    };
    out.e2e("hits_at_1", per_approach(&hits1));
    out.e2e("mrr", per_approach(&mrr));
    out.e2e("recall_at_10", mean(&recall));
    let windows: Vec<Samples> = windows.into_iter().map(Samples::new).collect();
    out.latency(&windows);
    // Test entities aligned per second by the roster. Each approach's
    // seconds per aligned entity come from its runs that finished, so a
    // run that panics neither speeds nor slows the figure. Without a
    // finished run of some approach, all time over all entities is used.
    let roster_s_per_entity: Option<f64> = spent
        .iter()
        .map(|&(s, n)| (n > 0).then(|| s / n as f64))
        .sum();
    out.e2e(
        "throughput_per_s",
        roster_s_per_entity.map_or(aligned as f64 / job_s.max(1e-9), |s| {
            ROSTER.len() as f64 / s.max(1e-12)
        }),
    );

    out.layer("train.roster_s", job_s / DATASETS as f64);
    for (_, span) in ROSTER {
        let name = format!("{span}_s");
        out.layer(&name, tr.total_ns(span) as f64 / 1e9 / DATASETS as f64);
    }
    out.layer("eval.s", tr.total_ns("eval") as f64 / 1e9 / DATASETS as f64);
    out.layer("kernel.pairs_scored_per_query", mean(&scored));
    out.layer("kernel.bytes_per_query", mean(&bytes));
    if !epochs_ms.is_empty() {
        out.layer("train.epoch_ms", median(&epochs_ms));
        out.layer("train.pairs_per_s", pairs as f64 / epoch_wall_s.max(1e-9));
    }
    out.layer("train.outside_epoch_s", outside_s / DATASETS as f64);
}

pub fn same_bits(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(i, s), &(j, t))| i == j && s.to_bits() == t.to_bits())
}

pub fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}
