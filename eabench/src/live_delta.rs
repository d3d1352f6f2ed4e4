//! `live_delta`: writes beside reads. An evolving D-Y pair (`synth::evolve`,
//! 5000 final entities, 4 delta steps) is delta-trained with MTransE, warm
//! started from the generation being served. Each generation is written
//! over the live artifact, and the server's watcher loads, builds, warms
//! and flips it in. Meanwhile one generator thread sends uniform
//! `/align?k=10` reads at a fixed low open-loop rate to the exact index.
//!
//! Every answer is checked: its generation must be one that was published
//! and never move backwards on a connection, and its bits must equal the
//! dense exact answer of that generation.

use crate::gen::{self, LoadResult, LoadSpec};
use crate::serving::{self, Window};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::train_eval::{panic_text, same_bits};
use crate::{Args, Outcome, ANSWER_K};
use openea::approaches::DeltaPlan;
use openea::prelude::*;
use openea::synth::{EvolutionConfig, EvolutionTrace};
use openea_runtime::rng::{split_seed, Rng, SeedableRng, SmallRng};
use openea_serve::index::AlignmentIndex;
use openea_serve::{
    load_artifact, serve_hot, Answer, HotSwapIndex, IndexOptions, ServerHandle, ServerOptions,
    Snapshot, SnapshotWriter, WatcherHandle,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const APPROACH: &str = "MTransE";
const ENTITIES: usize = 5000;
const STEPS: usize = 4;
/// Full-retrain epoch budget (the base generation trains this long).
const FULL_EPOCHS: usize = 300;
/// Delta steps train at most a quarter of it.
const DELTA_EPOCHS: usize = FULL_EPOCHS / 4;
const FOLDS: usize = 5;
const READ_QPS: f64 = 200.0;
const WATCH: Duration = Duration::from_millis(15);
/// Longest wait for a published generation to be served.
const FLIP_TIMEOUT: Duration = Duration::from_secs(30);
const SETUP_REPEATS: usize = 3;

struct Live {
    evolution: EvolutionTrace,
    base: Snapshot,
    hot: Arc<HotSwapIndex>,
    watcher: WatcherHandle,
    handle: ServerHandle,
    addr: SocketAddr,
    live: PathBuf,
}

/// Sets its flag when dropped.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The base generation and every delta step train their whole budget,
/// with no early stop, so each does the same work on every seed: set-up
/// time and train-to-serve lag measure speed, not when validation
/// stopped improving.
fn rc(args: &Args) -> RunConfig {
    RunConfig {
        max_epochs: FULL_EPOCHS,
        patience: usize::MAX,
        threads: args.threads,
        seed: args.seed,
        ..RunConfig::default()
    }
}

fn fold0(pair: &KgPair, seed: u64) -> FoldSplit {
    let mut rng = SmallRng::seed_from_u64(seed);
    k_fold_splits(&pair.alignment, FOLDS, &mut rng).swap_remove(0)
}

/// One trained generation read back from the artifact the engine wrote.
struct Trained {
    snap: Snapshot,
    output: ApproachOutput,
    train_s: f64,
    read_ms: f64,
}

/// Trains one generation through engine → snapshot writer → reload:
/// cold when `parent` is `None`, warm-started delta training otherwise.
fn train(
    args: &Args,
    tr: &mut Tracer,
    pair: &KgPair,
    fold: &FoldSplit,
    parent: Option<(&openea_serve::ModelParams, DeltaPlan)>,
    dir: &Path,
    request: u64,
) -> Result<Trained, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let rc = rc(args);
    let writer = SnapshotWriter::new(dir, Vec::new(), Vec::new());
    let approach = approach_by_name(APPROACH).expect("MTransE is registered");
    let warm = parent.map(|(p, _)| p.warm_start());
    let mut ctx = RunContext::new(&rc).with_artifacts(&writer);
    if let (Some(w), Some((_, plan))) = (warm.as_ref(), parent) {
        ctx = ctx
            .resume_from(w)
            .with_delta(plan)
            .with_budget(Budget::epochs(DELTA_EPOCHS));
    }
    let t = Instant::now();
    let output = tr
        .time("train.MTransE", 0, request, || {
            catch_unwind(AssertUnwindSafe(|| {
                approach.run_with(pair, fold, &rc, &ctx)
            }))
        })
        .map_err(|p| format!("{APPROACH} panicked: {}", panic_text(&p)))?;
    let train_s = t.elapsed().as_secs_f64();
    if let Some(e) = writer.take_error() {
        return Err(format!("snapshot write error: {e}"));
    }
    let t = Instant::now();
    let snap = tr
        .time("snapshot.read", 0, request, || {
            Snapshot::read_from(&writer.final_path(APPROACH))
        })
        .map_err(|e| format!("cannot reload the emitted snapshot: {e}"))?;
    let read_ms = t.elapsed().as_secs_f64() * 1e3;
    if snap.to_output().content_hash() != output.content_hash() {
        return Err("snapshot roundtrip changed the embeddings".into());
    }
    Ok(Trained {
        snap,
        output,
        train_s,
        read_ms,
    })
}

/// Writes `snap` next to `live` and renames it over, atomically.
fn publish(snap: &Snapshot, live: &Path, step: usize) -> Result<f64, String> {
    let tmp = live.with_extension(format!("incoming-{step}"));
    let t = Instant::now();
    snap.write_to(&tmp)
        .map_err(|e| format!("cannot write generation {step}: {e}"))?;
    std::fs::rename(&tmp, live).map_err(|e| format!("cannot publish generation {step}: {e}"))?;
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

fn setup(args: &Args, tr: &mut Tracer, dir: &Path) -> Result<Live, String> {
    let evolution = tr.time("synth.evolve", 0, 0, || {
        EvolutionConfig::new(DatasetFamily::DY, ENTITIES, STEPS, args.seed)
            .with_threads(args.threads)
            .generate()
    });
    let pair = &evolution.steps[0].pair;
    let base = train(
        args,
        tr,
        pair,
        &fold0(pair, args.seed),
        None,
        &dir.join("train"),
        0,
    )?;
    let live = dir.join("live.snap");
    publish(&base.snap, &live, 0)?;
    let (hot, _) = HotSwapIndex::open(&live, IndexOptions::default())
        .map_err(|e| format!("cannot open the live artifact: {e}"))?;
    let watcher = hot.spawn_watcher(WATCH);
    let handle = serve_hot(
        Arc::clone(&hot),
        "127.0.0.1:0".parse().expect("loopback address"),
        ServerOptions::default(),
    )
    .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    let addr = handle.addr();
    Ok(Live {
        evolution,
        base: base.snap,
        hot,
        watcher,
        handle,
        addr,
        live,
    })
}

pub fn run(args: &Args, tr: &mut Tracer, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(mut old) = live.take() {
            let Live {
                ref mut handle,
                ref mut watcher,
                ..
            } = old;
            handle.stop();
            watcher.stop();
        }
        let t = Instant::now();
        match setup(args, tr, &args.work.join(format!("setup-{rep}"))) {
            Ok(l) => live = Some(l),
            Err(e) => {
                out.attempt();
                out.fail(&e);
                return;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let Live {
        evolution,
        base,
        hot,
        mut watcher,
        mut handle,
        addr,
        live,
    } = live.expect("at least one set-up");
    out.e2e("setup_s", median(&setups));
    out.layer(
        "synth.gen_s",
        tr.total_ns("synth.evolve") as f64 / 1e9 / SETUP_REPEATS as f64,
    );
    out.stamp("train_threads", args.threads);
    out.stamp("index_threads", hot.options().threads);
    out.stamp("server_workers", ServerOptions::default().workers);
    out.stamp("conns", gen::CONNS);

    let n_query = base.num_queries() as u32;
    let epoch = tr.epoch();
    let first_seen: Mutex<HashMap<u64, u64>> = Mutex::new(HashMap::new());
    let chain_done = AtomicBool::new(false);
    let before = Window::open(addr, &hot);
    let reads_start = Instant::now();
    let mut chain: Vec<Snapshot> = vec![base];
    let mut lags_ms: Vec<f64> = Vec::new();
    let (mut train_s, mut write_ms, mut read_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut outputs: Vec<(ApproachOutput, FoldSplit)> = Vec::new();

    let reads: LoadResult = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut rng = SmallRng::seed_from_u64(split_seed(args.seed, 0x4EAD));
            gen::run(
                addr,
                &LoadSpec {
                    rate_qps: READ_QPS,
                    duration: Duration::from_secs(3600),
                    grace: Duration::from_secs(5),
                },
                epoch,
                |_| rng.gen_range(0..n_query),
                |_| true,
                |r| {
                    if let (Some(g), Some(done)) = (r.generation, r.done_us) {
                        first_seen
                            .lock()
                            .expect("first-seen map is never poisoned")
                            .entry(g)
                            .or_insert(done);
                    }
                },
                || {
                    chain_done.load(Ordering::SeqCst)
                        && reads_start.elapsed().as_secs_f64() >= args.seconds
                },
            )
        });
        // Stops the reader however the chain ends, a panic included, so
        // the scope never waits on it for long.
        let stop_reads = SetOnDrop(&chain_done);
        let dir = args.work.join("chain");
        for k in 1..=STEPS {
            out.attempt();
            let step = &evolution.steps[k];
            let fold = fold0(&step.pair, args.seed);
            let t0 = epoch.elapsed().as_micros() as u64;
            let params = chain.last().expect("the chain starts at the base").clone();
            let parent_gen = params.generation();
            let params = params.into_model_params();
            let plan = DeltaPlan {
                known1: step.known1(),
                known2: step.known2(),
                new_triples: step.new_rel_triples,
            };
            let trained = match train(
                args,
                tr,
                &step.pair,
                &fold,
                Some((&params, plan)),
                &dir,
                k as u64,
            ) {
                Ok(t) => t,
                Err(e) => {
                    out.fail(&format!("step {k}: {e}"));
                    break;
                }
            };
            if trained.snap.lineage.map(|l| l.parent_generation) != Some(parent_gen) {
                out.incorrect(&format!(
                    "step {k}: lineage does not name the served parent"
                ));
            }
            let target = trained.snap.generation();
            let w = tr.time("snapshot.write", 0, k as u64, || {
                publish(&trained.snap, &live, k)
            });
            match w {
                Ok(ms) => write_ms.push(ms),
                Err(e) => {
                    out.fail(&format!("step {k}: {e}"));
                    break;
                }
            }
            train_s.push(trained.train_s);
            read_ms.push(trained.read_ms);
            chain.push(trained.snap);
            outputs.push((trained.output, fold));
            let wait = Instant::now();
            let seen = loop {
                if let Some(&at) = first_seen
                    .lock()
                    .expect("first-seen map is never poisoned")
                    .get(&target)
                {
                    break Some(at);
                }
                if wait.elapsed() > FLIP_TIMEOUT {
                    break None;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            match seen {
                Some(at) => {
                    let lag = at.saturating_sub(t0) as f64 / 1e3;
                    tr.record("live.train_to_serve", 0, k as u64, t0 * 1000, at * 1000);
                    println!("step {k}: generation {target:#018x} served {lag:.1} ms after training began");
                    lags_ms.push(lag);
                }
                None => {
                    out.fail(&format!("step {k}: generation never served"));
                    break;
                }
            }
        }
        drop(stop_reads);
        reader.join().expect("the read generator does not panic")
    });
    let after = Window::open(addr, &hot);

    out.attempts(reads.records.len());
    out.fails(reads.failed(), "read without a 200");
    out.fails(reads.conn_errors, "read connection error");
    let lat = Samples::new(reads.latencies_us());
    // Back-to-back windows of sends; the latencies are their medians.
    let windows = reads.windows(gen::WINDOW);
    out.latency(&windows);
    let recall = check_reads(args, out, &reads, &chain);
    out.e2e("recall_at_10", recall);

    if outputs.len() < STEPS {
        out.fail("the delta chain did not finish");
    }
    if outputs.is_empty() {
        handle.stop();
        watcher.stop();
        return;
    }
    // Quality of what was served: each delta generation on its own step's
    // test split, averaged over the chain.
    let (mut hits1, mut mrr) = (0.0, 0.0);
    for (k, (output, fold)) in outputs.iter().enumerate() {
        let eval = tr.time("eval", 0, k as u64 + 1, || {
            evaluate_output(output, &fold.test, args.threads)
        });
        hits1 += eval.hits1 / outputs.len() as f64;
        mrr += eval.mrr / outputs.len() as f64;
    }
    out.e2e("hits_at_1", hits1);
    out.e2e("mrr", mrr);
    // Generations served per second of train-to-serve lag over the chain.
    // A median over four steps would sit between the fast early steps and
    // the slow late ones and jump with either.
    out.e2e(
        "throughput_per_s",
        lags_ms.len() as f64 * 1e3 / lags_ms.iter().sum::<f64>(),
    );
    let lag_med = if lags_ms.is_empty() {
        f64::NAN
    } else {
        median(&lags_ms)
    };

    if tr.enabled() {
        serving::layers(tr, out, &hot, &before, &after, &reads, &lat);
        let final_index = hot.current();
        let ids: Vec<u32> = (0..256u32).map(|i| i * 7 % n_query).collect();
        serving::time_query_batch(tr, out, &final_index, &ids);
        let n2 = final_index.index().num_targets();
        let dim = final_index.index().snapshot().dim;
        out.layer("kernel.pairs_scored_per_query", n2 as f64);
        out.layer("kernel.bytes_per_query", (n2 * dim * 4) as f64);
        out.layer("live.train_to_serve_ms", lag_med);
        out.layer("train.MTransE_s", median(&train_s));
        out.layer("snapshot.write_ms", median(&write_ms));
        out.layer("snapshot.read_ms", median(&read_ms));
        out.layer(
            "eval.s",
            tr.total_ns("eval") as f64 / 1e9 / outputs.len() as f64,
        );
        let epochs: Vec<f64> = outputs
            .iter()
            .flat_map(|(o, _)| o.trace.epochs.iter().map(|e| e.wall_s * 1e3))
            .collect();
        let pairs: usize = outputs
            .iter()
            .flat_map(|(o, _)| o.trace.epochs.iter().map(|e| e.pairs))
            .sum();
        let epoch_s: f64 = epochs.iter().sum::<f64>() / 1e3;
        if !epochs.is_empty() {
            out.layer("train.epoch_ms", median(&epochs));
            out.layer("train.pairs_per_s", pairs as f64 / epoch_s.max(1e-9));
        }
        out.layer(
            "train.outside_epoch_s",
            (train_s.iter().sum::<f64>() - epoch_s).max(0.0) / train_s.len().max(1) as f64,
        );
        out.layer(
            "swap.flip_us",
            gen::stat(after.stats_doc(), &["last_flip_us"]),
        );
        out.layer("gen.sent", reads.records.len() as f64);
        if !lags_ms.is_empty() {
            replay_reload(args, tr, out, &chain, &lags_ms, &train_s, &write_ms);
        }
    }
    handle.stop();
    watcher.stop();
}

/// Classifies every read: the generation must have been published, must
/// not move backwards on its connection, and the answer's bits must equal
/// the dense exact answer of that generation. Returns the mean recall of
/// the final generation's answers against its exact top-10.
fn check_reads(args: &Args, out: &mut Outcome, reads: &LoadResult, chain: &[Snapshot]) -> f64 {
    let publish: HashMap<u64, usize> = chain
        .iter()
        .enumerate()
        .map(|(i, s)| (s.generation(), i))
        .collect();
    let mut last = [0usize; gen::CONNS];
    let mut by_gen: HashMap<usize, Vec<(u32, Answer)>> = HashMap::new();
    for (i, r) in reads.records.iter().enumerate().filter(|(_, r)| r.ok()) {
        let Some(g) = r.generation else {
            out.incorrect("answer without a generation");
            continue;
        };
        let Some(&p) = publish.get(&g) else {
            out.incorrect(&format!("answer from unpublished generation {g:#018x}"));
            continue;
        };
        let conn = i % gen::CONNS;
        if p < last[conn] {
            out.incorrect(&format!(
                "connection {conn}: generation moved back from {} to {p}",
                last[conn]
            ));
        }
        last[conn] = last[conn].max(p);
        match r.body.as_deref().and_then(gen::answer_rows) {
            Some(rows) => by_gen.entry(p).or_default().push((r.entity, rows)),
            None => out.incorrect("unparseable answer body"),
        }
    }
    let mut recall = Vec::new();
    for (p, answers) in &by_gen {
        let index = AlignmentIndex::new(chain[*p].clone());
        let queries: Vec<(u32, usize)> = answers.iter().map(|(e, _)| (*e, ANSWER_K)).collect();
        let want = index.answer_batch(&queries, args.threads);
        for ((e, got), want) in answers.iter().zip(&want) {
            if !same_bits(got, want) {
                out.incorrect(&format!(
                    "generation {p} entity {e}: {got:?} != exact {want:?}"
                ));
            }
            if *p == chain.len() - 1 {
                recall.push(crate::recall(got, want));
            }
        }
    }
    if recall.is_empty() {
        out.fail("no answer from the final generation");
        return f64::NAN;
    }
    recall.iter().sum::<f64>() / recall.len() as f64
}

/// The traced run's reload breakdown: each published generation is loaded,
/// built and swapped into a replica index by the same public calls the
/// watcher makes, so their times can be taken apart. Detection is the
/// measured lag minus every traced part.
fn replay_reload(
    args: &Args,
    tr: &mut Tracer,
    out: &mut Outcome,
    chain: &[Snapshot],
    lags_ms: &[f64],
    train_s: &[f64],
    write_ms: &[f64],
) {
    let opts = IndexOptions::default();
    let replica = HotSwapIndex::fixed_with(opts.build(chain[0].clone()), opts);
    let n = chain[0].num_queries() as u32;
    let mut warmed = Vec::new();
    let path = args.work.join("replay.snap");
    for (k, snap) in chain.iter().enumerate().skip(1) {
        // Warm keys for the swap to replay, as live traffic leaves them.
        let current = replica.current();
        for e in 0..64u32 {
            let _ = current.query(e * 13 % n, ANSWER_K);
        }
        drop(current);
        if let Err(e) = snap.write_to(&path) {
            out.fail(&format!("replay write: {e}"));
            return;
        }
        let art = match tr.time("swap.load", 0, k as u64, || load_artifact(&path, u64::MAX)) {
            Ok(a) => a,
            Err(e) => {
                out.fail(&format!("replay load: {e}"));
                return;
            }
        };
        let built = tr.time("swap.build", 0, k as u64, || {
            opts.build(art.snapshot.clone())
        });
        drop(built);
        let outcome = tr.time("swap.swap_in", 0, k as u64, || {
            replica.swap_in(art.snapshot)
        });
        warmed.push(outcome.warmed as f64);
    }
    let median_ms = |name: &str| {
        let ms: Vec<f64> = tr
            .durations(name)
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        median(&ms)
    };
    let (load, build, swap) = (
        median_ms("swap.load"),
        median_ms("swap.build"),
        median_ms("swap.swap_in"),
    );
    out.layer("swap.load_ms", load);
    out.layer("swap.build_ms", build);
    out.layer("swap.warmed", median(&warmed));
    let traced = median(train_s) * 1e3 + median(write_ms) + load + swap;
    out.layer("swap.detect_ms", median(lags_ms) - traced);
}
