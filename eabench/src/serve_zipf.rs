//! `serve_zipf`: open-loop, read-only `/align?k=10` traffic with web-like
//! Zipf(1.1) skew against a million-entity IVF index behind the in-process
//! epoll reactor.
//!
//! Run order: an untimed warm-up that fills the answer cache, a fixed
//! nominal rate (the `align.*` latencies), then saturation bursts whose
//! median drain rate is `throughput_per_s`. The traced run also searches
//! for the knee: the highest offered rate whose p99 stays within
//! [`LIMIT_US`] with at least 99 % of the offered load answered, on a
//! valid generator run.
//! A fixed uniform sample of served answers is then checked bit for bit
//! against `IvfIndex::search` at the served probe and scored against the
//! dense exact top-10 (`recall_at_10`) and the identity gold alignment
//! (`hits_at_1`, `mrr`).

use crate::gen::{self, LoadResult, LoadSpec};
use crate::stats::{median, Samples};
use crate::trace::Tracer;
use crate::train_eval::same_bits;
use crate::{Args, Outcome, ANSWER_K};
use openea::align::{Metric, TopKMatrix};
use openea::approaches::ApproachOutput;
use openea::synth::{generate_embedded_pair, ScaleConfig};
use openea_runtime::rng::{split_seed, Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::replay::Zipf;
use openea_serve::{
    serve_hot, Answer, HotSwapIndex, IndexOptions, Probe, ServerHandle, ServerOptions, Snapshot,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENTITIES: usize = 1_000_000;
const DIM: usize = 32;
const NLIST: usize = 512;
const ZIPF_S: f64 = 1.1;
/// Nominal open-loop rate for the `align.*` latencies: under the knee on a
/// 2-core host.
const NOMINAL_QPS: f64 = 200.0;
/// Share of the run spent at the nominal rate: at 15 s, two back-to-back
/// windows of [`gen::WINDOW`] sends.
const NOMINAL_SHARE: f64 = 0.67;
/// Rate of the verification requests.
const VERIFY_QPS: f64 = 1000.0;
/// Saturation bursts, and requests in each: `throughput_per_s` is the
/// median of their drain rates.
const BURSTS: usize = 5;
const BURST: usize = 1500;
/// Zipf head ranks answered once before timing, so the cache starts warm.
const WARM_KEYS: usize = 1024;
/// The knee's p99 limit.
const LIMIT_US: f64 = 50_000.0;
/// Knee search: first step up from the nominal rate, and the resolution
/// the bisection stops at (finer than the metric's bound).
const KNEE_GROW: f64 = 1.5;
/// Lowest rate the search goes down to before giving up.
const KNEE_FLOOR: f64 = 10.0;
const KNEE_RESOLUTION: f64 = 1.03;
/// Uniform sample of served answers checked against the index and gold.
const VERIFY: usize = 512;
/// Every this many nominal-phase answers is also bit-checked.
const SAMPLE_EVERY: u64 = 16;
const SETUP_REPEATS: usize = 2;

struct Served {
    handle: ServerHandle,
    hot: Arc<HotSwapIndex>,
    addr: SocketAddr,
}

fn setup(args: &Args, tr: &mut Tracer) -> Served {
    let scale = ScaleConfig {
        entities: ENTITIES,
        dim: DIM,
        communities: 0,
        seed: args.seed,
        ..Default::default()
    };
    let pair = tr.time("synth.scale", 0, 0, || {
        generate_embedded_pair(&scale, args.threads)
    });
    let snap = {
        let out = ApproachOutput::new(pair.dim, Metric::Cosine, pair.emb1, pair.emb2);
        Snapshot::from_output(&out, Vec::new(), Vec::new())
    };
    let opts = IndexOptions {
        nlist: NLIST,
        ..IndexOptions::default()
    };
    let index = tr.time("ann.build", 0, 0, || opts.build(snap));
    let hot = HotSwapIndex::fixed_with(index, opts);
    let handle = serve_hot(
        Arc::clone(&hot),
        "127.0.0.1:0".parse().expect("loopback address"),
        ServerOptions::default(),
    )
    .expect("bind an ephemeral loopback port");
    let addr = handle.addr();
    Served { handle, hot, addr }
}

/// Zipf rank → entity: a fixed permutation so the hot set is spread over
/// the id space and differs per seed.
fn rank_to_entity(seed: u64) -> impl Fn(u64) -> u32 {
    let offset = split_seed(seed, 0x0FF5) % ENTITIES as u64;
    move |rank| ((rank * 999_983 + offset) % ENTITIES as u64) as u32
}

fn zipf_entities(seed: u64) -> impl FnMut(u64) -> u32 {
    let zipf = Zipf::new(ENTITIES, ZIPF_S);
    let mut rng = SmallRng::seed_from_u64(split_seed(seed, 0x21BF));
    let entity = rank_to_entity(seed);
    move |_| entity(zipf.sample(&mut rng) as u64)
}

fn spec(rate_qps: f64, seconds: f64, grace: Duration) -> LoadSpec {
    LoadSpec {
        rate_qps,
        duration: Duration::from_secs_f64(seconds),
        grace,
    }
}

/// p99 with unanswered requests counted as slower than any answer.
fn p99_with_losses(r: &LoadResult) -> f64 {
    let mut lat = r.latencies_us();
    lat.extend(std::iter::repeat_n(f64::INFINITY, r.failed()));
    Samples::new(lat).percentile(99.0).unwrap_or(f64::INFINITY)
}

/// A knee point: the generator kept up, p99 (losses counted as misses)
/// is within the limit, and at least 99 % of the offered load was answered.
fn knee_pass(r: &LoadResult) -> bool {
    let achieved = r.completed() as f64 / r.records.len().max(1) as f64;
    late_p99(r) <= gen::MAX_LATE_P99_US && p99_with_losses(r) <= LIMIT_US && achieved >= 0.99
}

fn late_p99(r: &LoadResult) -> f64 {
    Samples::new(r.lateness_us())
        .percentile(99.0)
        .unwrap_or(0.0)
}

pub fn run(args: &Args, tr: &mut Tracer, out: &mut Outcome) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(mut old) = served.take() {
            let Served { ref mut handle, .. } = old;
            handle.stop();
        }
        let t = Instant::now();
        served = Some(setup(args, tr));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Served {
        mut handle,
        hot,
        addr,
    } = served.expect("at least one set-up");
    out.e2e("setup_s", median(&setups));
    out.layer(
        "synth.gen_s",
        tr.total_ns("synth.scale") as f64 / 1e9 / SETUP_REPEATS as f64,
    );
    out.layer(
        "ann.build_s",
        tr.total_ns("ann.build") as f64 / 1e9 / SETUP_REPEATS as f64,
    );
    let opts = hot.options();
    out.stamp("index_threads", opts.threads);
    out.stamp("server_workers", ServerOptions::default().workers);
    out.stamp("conns", gen::CONNS);

    let epoch = tr.epoch();
    let mut entities = zipf_entities(args.seed);

    // Untimed warm-up: the head of the Zipf distribution is answered once
    // in process, so the cache holds the keys that dominate the traffic.
    let head: Vec<u32> = (0..WARM_KEYS as u64)
        .map(rank_to_entity(args.seed))
        .collect();
    for chunk in head.chunks(32) {
        let queries: Vec<(u32, usize, Option<Probe>)> =
            chunk.iter().map(|&e| (e, ANSWER_K, None)).collect();
        if hot
            .current()
            .query_batch(&queries)
            .iter()
            .any(Result::is_err)
        {
            out.fail("warm-up query refused");
        }
    }

    // Nominal rate.
    let before = crate::serving::Window::open(addr, &hot);
    let nominal = gen::run(
        addr,
        &spec(
            NOMINAL_QPS,
            NOMINAL_SHARE * args.seconds,
            Duration::from_secs(5),
        ),
        epoch,
        &mut entities,
        |i| i % SAMPLE_EVERY == 0,
        |_| {},
        || false,
    );
    let after = crate::serving::Window::open(addr, &hot);
    out.attempts(nominal.records.len());
    out.fails(nominal.failed(), "nominal-rate request without a 200");
    out.fails(nominal.conn_errors, "nominal-rate connection error");
    let lat = Samples::new(nominal.latencies_us());
    let windows = nominal.windows(gen::WINDOW);
    out.latency(&windows);
    if tr.enabled() {
        for (i, r) in nominal.records.iter().enumerate() {
            if let Some(done) = r.done_us {
                tr.record("gen.request", 0, i as u64, r.due_us * 1000, done * 1000);
            }
        }
    }

    // Saturation: fixed bursts of the same Zipf stream, each queued at once
    // on the pipelined connections; the median of their drain rates.
    let mut rates = Vec::with_capacity(BURSTS);
    let mut sent = nominal.records.len();
    for _ in 0..BURSTS {
        let burst = gen::run(
            addr,
            &spec(1e6, BURST as f64 / 1e6, Duration::from_secs(60)),
            epoch,
            &mut entities,
            |_| false,
            |_| {},
            || false,
        );
        out.attempts(burst.records.len());
        out.fails(burst.failed(), "burst request without a 200");
        sent += burst.records.len();
        let first = burst.records.iter().map(|r| r.due_us).min().unwrap_or(0);
        let last = burst
            .records
            .iter()
            .filter_map(|r| r.done_us)
            .max()
            .unwrap_or(first);
        let drain_s = (last.saturating_sub(first) as f64 / 1e6).max(1e-6);
        println!("burst: {} answers in {drain_s:.3} s", burst.completed());
        rates.push(burst.completed() as f64 / drain_s);
    }
    out.e2e("throughput_per_s", median(&rates));

    // The traced run also searches for the knee on the same stream.
    let knee = if tr.enabled() {
        knee_search(addr, args, epoch, &mut entities, &nominal, &mut sent)
    } else {
        0.0
    };

    // Fixed uniform sample: bit-exact against the IVF index at the served
    // probe, recall against dense exact top-10, quality against gold.
    let index = hot.current();
    let nprobe = match index.default_probe() {
        Probe::Nprobe(n) => n as usize,
        Probe::Exact => NLIST,
    };
    let mut rng = SmallRng::seed_from_u64(split_seed(args.seed, 0x7E51));
    let verify_ids: Vec<u32> = (0..VERIFY)
        .map(|_| rng.gen_range(0..ENTITIES as u32))
        .collect();
    let check = gen::run(
        addr,
        &spec(
            VERIFY_QPS,
            VERIFY as f64 / VERIFY_QPS,
            Duration::from_secs(10),
        ),
        epoch,
        |i| verify_ids[i as usize % VERIFY],
        |_| true,
        |_| {},
        || false,
    );
    out.attempts(check.records.len());
    out.fails(check.failed(), "verification request without a 200");
    let raw = index.index();
    let snap = raw.snapshot();
    let ivf = raw.ann().expect("serve_zipf builds an IVF index");
    let row = |e: u32| &snap.emb1[e as usize * DIM..(e as usize + 1) * DIM];

    // Answers to check: the verification sample plus the nominal sample.
    let sampled: Vec<(u32, Answer)> = check
        .records
        .iter()
        .chain(nominal.records.iter())
        .filter(|r| r.ok())
        .filter_map(|r| Some((r.entity, gen::answer_rows(r.body.as_deref()?)?)))
        .collect();
    let expected: Vec<Answer> = std::thread::scope(|s| {
        let half = sampled.len() / 2;
        let (a, b) = sampled.split_at(half);
        let search = |part: &[(u32, Answer)]| -> Vec<Answer> {
            part.iter()
                .map(|(e, _)| ivf.search(row(*e), ANSWER_K, nprobe))
                .collect()
        };
        let hb = s.spawn(move || search(b));
        let mut out = search(a);
        out.extend(hb.join().expect("verification thread"));
        out
    });
    for ((e, got), want) in sampled.iter().zip(&expected) {
        if !same_bits(got, want) {
            out.incorrect(&format!("entity {e}: served {got:?} != IVF {want:?}"));
        }
    }
    let mut queries = Vec::with_capacity(VERIFY * DIM);
    for &e in &verify_ids {
        queries.extend_from_slice(row(e));
    }
    let dense = TopKMatrix::compute(
        &queries,
        &snap.emb2,
        DIM,
        Metric::Cosine,
        ANSWER_K,
        args.threads,
    );
    // Request `i` of the check asked for `verify_ids[i]`, dense row `i`.
    let verified: Vec<(usize, Answer)> = check
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.ok())
        .filter_map(|(i, r)| Some((i % VERIFY, gen::answer_rows(r.body.as_deref()?)?)))
        .collect();
    let (mut recall, mut hits1, mut mrr) = (0.0, 0.0, 0.0);
    for (i, got) in &verified {
        recall += crate::recall(got, dense.row(*i));
        if let Some(rank) = got.iter().position(|(t, _)| *t == verify_ids[*i]) {
            mrr += 1.0 / (rank + 1) as f64;
            if rank == 0 {
                hits1 += 1.0;
            }
        }
    }
    let n = verified.len().max(1) as f64;
    out.e2e("recall_at_10", recall / n);
    out.e2e("hits_at_1", hits1 / n);
    out.e2e("mrr", mrr / n);
    out.stamp("nprobe", nprobe);

    if tr.enabled() {
        crate::serving::layers(tr, out, &hot, &before, &after, &nominal, &lat);
        // IVF stages on the verification sample, in process: centroid scan
        // (`probe_order`) and re-rank (`search_counted` minus the scan).
        let mut scanned = 0usize;
        for (i, &e) in verify_ids.iter().enumerate() {
            let q = row(e);
            let open = tr.begin("ann.query", 0, i as u64);
            let parent = open.id();
            let order = tr.time("ann.probe_order", parent, i as u64, || ivf.probe_order(q));
            std::hint::black_box(order);
            let (_, n) = tr.time("ann.search_counted", parent, i as u64, || {
                ivf.search_counted(q, ANSWER_K, nprobe)
            });
            tr.end(open);
            scanned += n;
        }
        let q = VERIFY as f64;
        let scan_ns = tr.total_ns("ann.probe_order");
        let search_ns = tr.total_ns("ann.search_counted");
        out.layer("ann.centroid_scan_us", scan_ns as f64 / q / 1e3);
        out.layer(
            "ann.rerank_us",
            search_ns.saturating_sub(scan_ns) as f64 / q / 1e3,
        );
        out.layer("ann.scanned_frac", scanned as f64 / q / ENTITIES as f64);
        let pairs = scanned as f64 / q + NLIST as f64;
        out.layer("kernel.pairs_scored_per_query", pairs);
        out.layer("kernel.bytes_per_query", pairs * (DIM * 4) as f64);
        crate::serving::time_query_batch(tr, out, &index, &verify_ids);
        out.layer("server.knee_qps", knee);
        out.layer("gen.sent", sent as f64);
    }
    drop(index);
    handle.stop();
}

/// Highest offered rate that passes [`knee_pass`]: brackets from the
/// nominal rate in steps of [`KNEE_GROW`], then bisects geometrically down
/// to [`KNEE_RESOLUTION`].
fn knee_search(
    addr: SocketAddr,
    args: &Args,
    epoch: Instant,
    entities: &mut dyn FnMut(u64) -> u32,
    nominal: &LoadResult,
    sent: &mut usize,
) -> f64 {
    let probe_s = (0.1 * args.seconds).max(0.5);
    let mut probe = |rate: f64, entities: &mut dyn FnMut(u64) -> u32| -> bool {
        let r = gen::run(
            addr,
            &spec(rate, probe_s, Duration::from_secs_f64(LIMIT_US / 1e6)),
            epoch,
            entities,
            |_| false,
            |_| {},
            || false,
        );
        *sent += r.records.len();
        let pass = knee_pass(&r);
        let p99 = p99_with_losses(&r);
        let achieved = r.completed() as f64 / r.records.len().max(1) as f64;
        println!(
            "knee probe {rate:.0} qps: p99 {p99:.0} us, achieved {:.3}, late p99 {:.0} us -> {}",
            achieved,
            late_p99(&r),
            if pass { "pass" } else { "fail" }
        );
        // Let a failed probe's backlog drain before the next one.
        std::thread::sleep(Duration::from_millis(if pass { 20 } else { 300 }));
        pass
    };
    // Bracket the knee from the nominal rate, then bisect geometrically.
    let (mut lo, mut hi) = if knee_pass(nominal) {
        let mut lo = NOMINAL_QPS;
        while probe(lo * KNEE_GROW, entities) {
            lo *= KNEE_GROW;
        }
        (lo, lo * KNEE_GROW)
    } else {
        let mut hi = NOMINAL_QPS;
        while hi > KNEE_FLOOR && !probe(hi / KNEE_GROW, entities) {
            hi /= KNEE_GROW;
        }
        (hi / KNEE_GROW, hi)
    };
    while hi / lo > KNEE_RESOLUTION {
        let mid = (lo * hi).sqrt();
        if probe(mid, entities) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    println!("knee: {lo:.1} qps (p99 <= {LIMIT_US} us, >= 99% achieved)");
    lo
}
