//! Per-layer numbers of the serving path shared by both serve workloads:
//! counter deltas from `/stats` and `BatchIndex::stats`, plus in-process
//! timings of the public calls the server makes per request.

use crate::gen::{self, LoadResult};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Outcome, ANSWER_K};
use openea_runtime::json::Json;
use openea_serve::conn::HttpParser;
use openea_serve::{BatchIndex, HotSwapIndex, IndexStats, Probe};
use std::net::SocketAddr;
use std::time::Instant;

/// Counters at one instant: the server's `/stats` and the live index's.
pub struct Window {
    stats: Json,
    index: IndexStats,
    generation: u64,
}

impl Window {
    pub fn open(addr: SocketAddr, hot: &HotSwapIndex) -> Self {
        let current = hot.current();
        Self {
            stats: gen::fetch_stats(addr).unwrap_or(Json::Null),
            index: current.stats(),
            generation: current.index().generation(),
        }
    }

    pub fn stats_doc(&self) -> &Json {
        &self.stats
    }

    fn align_sum_count(&self) -> (f64, f64) {
        let count = gen::stat(&self.stats, &["endpoints", "align", "count"]);
        let mean = gen::stat(&self.stats, &["endpoints", "align", "mean_us"]);
        (mean * count, count)
    }
}

/// Records the serving layers over the window `before..after`, in which
/// the generator produced `load` with answered latencies `lat`.
pub fn layers(
    tr: &mut Tracer,
    out: &mut Outcome,
    hot: &HotSwapIndex,
    before: &Window,
    after: &Window,
    load: &LoadResult,
    lat: &Samples,
) {
    // A flip in between starts a fresh index, whose counters start at 0.
    let base = if before.generation == after.generation {
        before.index
    } else {
        IndexStats::default()
    };
    let hits = after.index.cache_hits.saturating_sub(base.cache_hits) as f64;
    let misses = after.index.cache_misses.saturating_sub(base.cache_misses) as f64;
    let batches = after.index.batches.saturating_sub(base.batches) as f64;
    let batched = after
        .index
        .batched_queries
        .saturating_sub(base.batched_queries) as f64;
    out.layer("index.cache_hit_ratio", hits / (hits + misses).max(1.0));
    out.layer("index.batch_occupancy", batched / batches.max(1.0));

    let (s0, c0) = before.align_sum_count();
    let (s1, c1) = after.align_sum_count();
    let server_mean = (s1 - s0) / (c1 - c0).max(1.0);
    out.layer("server.align_mean_us", server_mean);
    out.layer(
        "net.client_minus_server_us",
        lat.mean().unwrap_or(0.0) - server_mean,
    );
    let delta = |path: &[&str]| gen::stat(&after.stats, path) - gen::stat(&before.stats, path);
    out.layer("server.shed_queue", delta(&["shed_total", "queue"]));
    out.layer("server.shed_latency", delta(&["shed_total", "latency"]));
    out.layer("server.pipelined_batches", delta(&["pipelined_batches"]));
    out.layer(
        "gen.late_p99_us",
        Samples::new(load.lateness_us())
            .percentile(99.0)
            .unwrap_or(0.0),
    );

    // The reactor's per-request parse, on the requests the generator sent,
    // each fed to the parser before it is parsed, as a socket read would.
    let mut parser = HttpParser::new();
    let mut parsed = 0usize;
    for (i, r) in load.records.iter().enumerate() {
        parser.feed(
            format!(
                "GET /align?entity={}&k={ANSWER_K} HTTP/1.1\r\nHost: eabench\r\n\r\n",
                r.entity
            )
            .as_bytes(),
        );
        if let Ok(Some(req)) = tr.time("conn.parse", 0, i as u64, || parser.next_request()) {
            std::hint::black_box(req);
            parsed += 1;
        }
    }
    if parsed != load.records.len() {
        out.fail(&format!(
            "parser read {parsed} of {} requests",
            load.records.len()
        ));
    }
    out.layer(
        "conn.parse_ns",
        tr.total_ns("conn.parse") as f64 / parsed.max(1) as f64,
    );

    // The per-request load of the live index.
    const LOADS: usize = 100_000;
    let t = Instant::now();
    for _ in 0..LOADS {
        std::hint::black_box(hot.current());
    }
    out.layer(
        "swap.current_ns",
        t.elapsed().as_nanos() as f64 / LOADS as f64,
    );
}

/// Times `BatchIndex::query_batch` over `entities` in batches of 32.
pub fn time_query_batch(tr: &mut Tracer, out: &mut Outcome, index: &BatchIndex, entities: &[u32]) {
    let chunks = entities.chunks(32);
    let calls = chunks.len();
    for (i, chunk) in chunks.enumerate() {
        let queries: Vec<(u32, usize, Option<Probe>)> =
            chunk.iter().map(|&e| (e, ANSWER_K, None)).collect();
        let answers = tr.time("index.query_batch", 0, i as u64, || {
            index.query_batch(&queries)
        });
        if answers.iter().any(Result::is_err) {
            out.fail("query_batch refused a valid query");
        }
    }
    out.layer(
        "index.query_batch_us",
        tr.total_ns("index.query_batch") as f64 / calls.max(1) as f64 / 1e3,
    );
}
