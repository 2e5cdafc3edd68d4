//! The four workloads, each with its oracle.
//!
//! Every workload cycles a pool built from the seed, so every run submits
//! the same operations in the same order, and every answer is compared
//! with an independent reference outside the timed region.
//!
//! Why each workload, and which layers it loads:
//!
//! * `survey-20k` — payload-heavy, no work shared between queries. The
//!   20,000-body paper triple, unsharded, recursive daisy chain, cache
//!   off, 256 KiB parser limit; 3-way XMATCH with AREA radius 15′–60′,
//!   threshold 3.5–4.5σ and `!P` in a quarter of the queries. Large
//!   AREAs take the §6 chunked path, small ones go inline. The
//!   XML/VOTable/SOAP codec, temp-table materialisation and chunk
//!   transfer do most of the work.
//! * `scatter-4x2` — many small messages. The 1,200-body triple dealt
//!   into 4 declination extents × 2 replicas per archive, cache off, one
//!   replica of one extent per archive down for the whole run; small
//!   AREAs touching 1–4 extents. Count-star planning, HTTP/SOAP framing,
//!   scatter fan-out, failover, extent pruning and the shard merge
//!   dominate.
//! * `repeat-ingest` — the only workload where the result cache works:
//!   the 1,200-body triple with an 8-entry cache, Zipf(1.1) reads over
//!   24 queries (a working set larger than the cache) and a seeded write
//!   batch every 20th operation, so hits, incremental repairs, LRU
//!   evictions and tile rebuilds do the work, and a read gain that costs
//!   ingest shows.
//! * `tenants-jobs` — the only workload that runs the job service and
//!   the checkpointed walk: 8 tenants over Free/Standard/Premium, one
//!   submitting half the jobs, waves of 64 jobs drained with `pump` and
//!   fetched through paginated `FetchResults`.
//!
//! Seeds 1–10 tune and check the benchmark; seed 7919 is held out, used
//! only to confirm a later claim on inputs nobody tuned against.
//!
//! Which layer metric should move which end-to-end metric:
//!
//! | layer metrics | should move |
//! |---|---|
//! | `sql.parse_us` | `latency_p50_ms` on scatter-4x2 (small share everywhere) |
//! | `portal.*` | latency on scatter-4x2 (plan) and survey-20k (execute) |
//! | `net.*` | latency on scatter-4x2 |
//! | `soap.envelope_ms`, `xml.votable_ms` | `latency_p50_ms`/`ops_per_s` on survey-20k; ~none on repeat-ingest hits |
//! | `transfer.*`, `skynode.fetch_chunk_ms` | survey-20k |
//! | `skynode.*` per SOAPAction | the workload that uses the action |
//! | `xmatch.*`, `storage.*` | survey-20k, bounded by the kernel's ~2% share; repeat-ingest through rebuilds |
//! | `shard.merge_ms`, `scatter.*` | latency on scatter-4x2 |
//! | `result_cache.*` | `latency_p50_ms`/`ops_per_s` on repeat-ingest only |
//! | `jobs.*` | `ops_per_s` and queue waits on tenants-jobs |
//! | `trace.*` | none (quality of the traced run) |

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use skyquery_core::trace::StatsChain;
use skyquery_core::{ChainMode, ExecutionTrace, FederationConfig, MatchKernel, Portal, ResultSet};
use skyquery_jobs::{JobClient, JobService, JobServiceConfig, JobState, QuotaClass};
use skyquery_net::{Endpoint, SimNetwork};
use skyquery_sim::TestFederation;
use skyquery_storage::Database;

use crate::replay::{self, Replayed};
use crate::tracing::Recorder;
use crate::world::{self, PoolQuery, Sharded};

/// How an operation was served, for the result-cache split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Job,
    Hit,
    Repair,
    Miss,
}

/// One finished operation.
pub struct Op {
    pub latency_s: f64,
    /// Simulated seconds the operation waited before its chain started:
    /// the job service's queue wait for a job, the count-star planning
    /// round trips for a synchronous submit. `None` for writes.
    pub wait_sim_s: Option<f64>,
    pub ok: bool,
    pub class: Class,
}

/// One batch: a single operation, or a wave of jobs run concurrently.
pub struct Batch {
    pub ops: Vec<Op>,
    /// Wall seconds of the timed region (excludes the oracle checks).
    pub timed_s: f64,
}

/// Per-run tracing state: the recorder (traced phase only), per-layer
/// sums, and the twin databases the kernel replay runs against.
#[derive(Default)]
pub struct Ctx {
    pub rec: Option<Arc<Recorder>>,
    pub layers: HashMap<&'static str, f64>,
    pub twins: HashMap<String, Database>,
    pub replay_mismatches: usize,
    next_op: u64,
}

impl Ctx {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_default() += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    fn begin(&mut self) -> Option<usize> {
        self.next_op += 1;
        let op = self.next_op;
        self.rec.as_ref().map(|r| r.begin_op(op))
    }

    fn end(&self, root: Option<usize>) {
        if let (Some(r), Some(idx)) = (&self.rec, root) {
            r.end_op(idx);
        }
    }

    fn phase<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        match &self.rec {
            Some(r) => r.span(name, f),
            None => f(),
        }
    }

    /// After a traced operation: replays its captured messages and adds
    /// the node-reported step counters. No-op when untraced.
    fn after_op(&mut self, sqls: &[&str], stats: Option<&StatsChain>, answer: Option<&ResultSet>) {
        let Some(rec) = self.rec.clone() else {
            return;
        };
        let messages = rec.take_messages();
        let mut r = Replayed::default();
        replay::codecs(&messages, &mut r);
        let chains = replay::kernel(&messages, &mut self.twins, &mut r);
        if let Some(a) = answer {
            if chains.iter().any(|c| c != a) {
                self.replay_mismatches += 1;
            }
        }
        replay::merges(&messages, &mut r);
        let t = Instant::now();
        for sql in sqls {
            let q = skyquery_sql::parse_query(sql).expect("pool SQL parses");
            std::hint::black_box(skyquery_sql::decompose(q).expect("pool SQL decomposes"));
        }
        self.add("sql.parse_s", t.elapsed().as_secs_f64());
        self.add("net.http_codec_s", r.http_s);
        self.add("soap.envelope_s", r.envelope_s);
        self.add("xml.votable_s", r.votable_s);
        self.add("xmatch.kernel_s", r.kernel_s);
        self.add("shard.merge_s", r.merge_s);
        self.add("xmatch.probed", r.kernel.candidates_probed as f64);
        self.add("xmatch.examined", r.kernel.candidates_examined as f64);
        self.add("xmatch.accepted", r.kernel.chi2_accepted as f64);
        self.add("xmatch.tuples_out", r.kernel.tuples_out as f64);
        for (_, s) in stats.map(|c| c.entries.as_slice()).unwrap_or_default() {
            self.add("storage.tile_builds", s.tile_builds as f64);
            self.add("scatter.shards_pruned", s.shards_pruned as f64);
            self.add("scatter.failovers", s.failovers as f64);
            self.add("scatter.hedges", s.hedges as f64);
        }
    }
}

/// A workload: a federation under load plus its oracle.
pub trait Workload {
    fn net(&self) -> &SimNetwork;
    fn portal(&self) -> &Portal;
    /// Every endpoint of the served federation, for the tracing shim.
    fn endpoints(&self) -> Vec<(String, Arc<dyn Endpoint>)>;
    /// Twin databases for the kernel replay.
    fn twins(&self) -> HashMap<String, Database>;
    /// Runs batch `b` and checks every answer.
    fn batch(&mut self, b: usize, ctx: &mut Ctx) -> Batch;
    /// Operations per batch.
    fn batch_ops(&self) -> usize {
        1
    }
    /// End-of-run per-layer readings.
    fn finish(&self, _ctx: &mut Ctx) {}
}

/// Static facts about a workload.
pub struct Spec {
    pub name: &'static str,
    /// Batches in one pass over the pool: timed runs end on a whole pass.
    pub pass: usize,
    /// Batches over which the deterministic metrics are taken; a timed
    /// run is never shorter.
    pub window: usize,
    /// Builds the oracle (untimed), then the served federation; returns
    /// the workload and the seconds the federation build took.
    pub setup: fn(u64) -> (Box<dyn Workload>, f64),
    /// One more set-up sample: builds the served federation alone, runs
    /// the warm-up query and drops it; returns the seconds both took.
    pub sample: fn(u64) -> f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "survey-20k",
        pass: SURVEY_POOL,
        // One pass, so the set-ups that follow the window are spread over
        // the rest of the run. At --seconds 20 the run still makes three
        // passes or more, so the heavy tail behind latency_p90_ms has more
        // than ten samples beyond it.
        window: SURVEY_POOL,
        setup: Survey::setup,
        sample: Survey::sample,
    },
    Spec {
        name: "scatter-4x2",
        pass: SCATTER_POOL,
        window: SCATTER_POOL,
        setup: Scatter::setup,
        sample: Scatter::sample,
    },
    Spec {
        name: "repeat-ingest",
        pass: WRITE_EVERY,
        window: 240,
        setup: Repeat::setup,
        sample: Repeat::sample,
    },
    Spec {
        name: "tenants-jobs",
        pass: 1,
        window: 2,
        setup: Jobs::setup,
        sample: Jobs::sample,
    },
];

/// One synchronous submission, phase by phase — `Portal::submit`'s own
/// steps through its public parts, so the planning round trips can be
/// read off the simulated clock.
fn submit(
    portal: &Portal,
    net: &SimNetwork,
    sql: &str,
    ctx: &mut Ctx,
) -> (skyquery_core::Result<(ResultSet, StatsChain)>, f64, f64) {
    let root = ctx.begin();
    let t0 = Instant::now();
    let sim0 = net.now_s();
    let mut trace = ExecutionTrace::new();
    let planned = ctx.phase("portal.plan", || portal.plan_query(sql, &mut trace));
    let wait = net.now_s() - sim0;
    let r = planned.and_then(|plan| {
        let (set, stats, degradation) =
            ctx.phase("portal.execute", || portal.execute_plan(&plan, &mut trace))?;
        let mut rs = ctx.phase("portal.project", || Portal::project_result(&plan, set))?;
        rs.degraded = degradation.degraded;
        rs.dropped_archives = degradation.dropped;
        Ok((rs, stats))
    });
    let latency = t0.elapsed().as_secs_f64();
    ctx.end(root);
    (r, latency, wait)
}

/// Runs one pooled read and checks it with `check`.
fn read_op(
    portal: &Portal,
    net: &SimNetwork,
    sql: &str,
    ctx: &mut Ctx,
    check: impl FnOnce(&ResultSet) -> bool,
) -> Batch {
    let (r, latency, wait) = submit(portal, net, sql, ctx);
    let ok = match &r {
        Ok((rs, _)) => !rs.degraded && check(rs),
        Err(e) => {
            eprintln!("operation failed: {e}");
            false
        }
    };
    let (stats, answer) = match &r {
        Ok((rs, st)) => (Some(st), Some(rs)),
        Err(_) => (None, None),
    };
    ctx.after_op(&[sql], stats, answer);
    Batch {
        ops: vec![Op {
            latency_s: latency,
            wait_sim_s: Some(wait),
            ok,
            class: Class::Read,
        }],
        timed_s: latency,
    }
}

fn sqls(pool: &[PoolQuery]) -> Vec<String> {
    pool.iter().map(PoolQuery::sql).collect()
}

/// The pool's SQL in seeded order.
fn shuffled(r: &mut StdRng, pool: &[PoolQuery]) -> Vec<String> {
    let mut v = sqls(pool);
    world::shuffle(r, &mut v);
    v
}

/// Runs the warm-up query; returns its seconds. Set-up fails loudly if
/// a fresh federation cannot answer it.
pub fn warm_up(portal: &Portal) -> f64 {
    let (r, s) = timed(|| portal.submit(&world::warmup_sql()));
    match r {
        Ok((rs, _)) if !rs.degraded => s,
        _ => panic!("the warm-up query failed on a fresh federation"),
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------
// survey-20k

const SURVEY_BODIES: usize = 20_000;
const SURVEY_POOL: usize = 48;

struct Survey {
    fed: TestFederation,
    seed: u64,
    pool: Vec<String>,
    /// Sorted rows of each query's pull-to-portal answer.
    reference: Vec<Vec<String>>,
}

impl Survey {
    fn served(seed: u64) -> TestFederation {
        let config = FederationConfig {
            max_message_bytes: 256 * 1024,
            chain_mode: ChainMode::Recursive,
            result_cache_capacity: 0,
            ..FederationConfig::default()
        };
        world::triple(SURVEY_BODIES, seed, config)
    }

    fn sample(seed: u64) -> f64 {
        let (fed, build_s) = timed(|| Survey::served(seed));
        build_s + warm_up(&fed.portal)
    }

    fn setup(seed: u64) -> (Box<dyn Workload>, f64) {
        let mut r = world::rng(seed, 1);
        let kinds: Vec<usize> = (0..SURVEY_POOL).map(|k| usize::from(k % 4 == 3)).collect();
        let pool = world::pool(&mut r, &kinds, (15.0, 60.0), (3.5, 4.5), (-0.6, -0.4), 0.1);
        let pool = shuffled(&mut r, &pool);
        let twin = world::triple(SURVEY_BODIES, seed, FederationConfig::default());
        let reference = pool
            .iter()
            .map(|sql| {
                world::sorted_rows(
                    &twin
                        .portal
                        .submit_pull_to_portal(sql)
                        .expect("pull-to-portal reference"),
                )
            })
            .collect();
        drop(twin);
        let (fed, build_s) = timed(|| Survey::served(seed));
        let w = Survey {
            fed,
            seed,
            pool,
            reference,
        };
        (Box::new(w), build_s)
    }
}

impl Workload for Survey {
    fn net(&self) -> &SimNetwork {
        &self.fed.net
    }
    fn portal(&self) -> &Portal {
        &self.fed.portal
    }
    fn endpoints(&self) -> Vec<(String, Arc<dyn Endpoint>)> {
        world::endpoints(&self.fed.portal, &self.fed.nodes)
    }
    fn twins(&self) -> HashMap<String, Database> {
        world::triple_twins(SURVEY_BODIES, self.seed)
    }
    fn batch(&mut self, b: usize, ctx: &mut Ctx) -> Batch {
        let q = b % self.pool.len();
        let reference = &self.reference[q];
        read_op(&self.fed.portal, &self.fed.net, &self.pool[q], ctx, |rs| {
            world::sorted_rows(rs) == *reference
        })
    }
}

// ---------------------------------------------------------------------
// scatter-4x2

const SCATTER_BODIES: usize = 1_200;
const SCATTER_POOL: usize = 64;

struct Scatter {
    fed: Sharded,
    seed: u64,
    pool: Vec<String>,
    /// Each query's answer on the unsharded, unreplicated twin.
    reference: Vec<ResultSet>,
}

impl Scatter {
    fn served(seed: u64) -> Sharded {
        Sharded::build(SCATTER_BODIES, seed, FederationConfig::default())
    }

    fn sample(seed: u64) -> f64 {
        let (fed, build_s) = timed(|| Scatter::served(seed));
        build_s + warm_up(&fed.portal)
    }

    fn setup(seed: u64) -> (Box<dyn Workload>, f64) {
        let mut r = world::rng(seed, 2);
        let kinds: Vec<usize> = (0..SCATTER_POOL)
            .map(|k| 2 * usize::from(k % 4 == 3))
            .collect();
        let pool = world::pool(&mut r, &kinds, (4.0, 32.0), (3.5, 4.5), (-1.3, 0.3), 0.3);
        let pool = shuffled(&mut r, &pool);
        let twin = world::triple(SCATTER_BODIES, seed, FederationConfig::default());
        let reference = pool
            .iter()
            .map(|sql| twin.portal.submit(sql).expect("twin reference").0)
            .collect();
        drop(twin);
        let (fed, build_s) = timed(|| Scatter::served(seed));
        let w = Scatter {
            fed,
            seed,
            pool,
            reference,
        };
        (Box::new(w), build_s)
    }
}

impl Workload for Scatter {
    fn net(&self) -> &SimNetwork {
        &self.fed.net
    }
    fn portal(&self) -> &Portal {
        &self.fed.portal
    }
    fn endpoints(&self) -> Vec<(String, Arc<dyn Endpoint>)> {
        world::endpoints(&self.fed.portal, &self.fed.nodes)
    }
    fn twins(&self) -> HashMap<String, Database> {
        Sharded::twins(SCATTER_BODIES, self.seed)
    }
    fn batch(&mut self, b: usize, ctx: &mut Ctx) -> Batch {
        let q = b % self.pool.len();
        let reference = &self.reference[q];
        read_op(&self.fed.portal, &self.fed.net, &self.pool[q], ctx, |rs| {
            rs == reference
        })
    }
}

// ---------------------------------------------------------------------
// repeat-ingest

const REPEAT_BODIES: usize = 1_200;
const REPEAT_QUERIES: usize = 24;
const REPEAT_CACHE: usize = 8;
const WRITE_EVERY: usize = 20;
const WRITE_ROWS: usize = 3;
const ZIPF_S: f64 = 1.1;
/// Coprime with `REPEAT_QUERIES`.
const RANK_STRIDE: usize = 7;
/// The Zipf draw sequence is the same for every workload seed: which
/// reads hit, repair or miss then depends on the cache alone, and the
/// seed varies the queries, the sky and the writes behind them.
const READ_SEQUENCE_SEED: u64 = 0x5EED;

struct Repeat {
    fed: TestFederation,
    /// Cache-off twin replaying the same write schedule: the oracle.
    twin: TestFederation,
    seed: u64,
    pool: Vec<String>,
    /// Cumulative Zipf weights over popularity ranks.
    cdf: Vec<f64>,
    /// Query index of each popularity rank.
    by_rank: Vec<usize>,
    reads: StdRng,
    writes: StdRng,
    next_ids: [u64; 3],
    epoch: u64,
    /// Twin answers per (query, write epoch).
    memo: HashMap<(usize, u64), ResultSet>,
}

impl Repeat {
    fn served(seed: u64) -> TestFederation {
        // The batch kernel keeps zone tiles per table, so every write
        // batch invalidates them: the tile rebuilds this workload loads.
        let config = FederationConfig {
            result_cache_capacity: REPEAT_CACHE,
            kernel: MatchKernel::Batch,
            ..FederationConfig::default()
        };
        world::triple(REPEAT_BODIES, seed, config)
    }

    fn sample(seed: u64) -> f64 {
        let (fed, build_s) = timed(|| Repeat::served(seed));
        build_s + warm_up(&fed.portal)
    }

    fn setup(seed: u64) -> (Box<dyn Workload>, f64) {
        let mut r = world::rng(seed, 3);
        let kinds: Vec<usize> = (0..REPEAT_QUERIES)
            .map(|k| usize::from(k % 4 == 3))
            .collect();
        let pool = sqls(&world::pool(
            &mut r,
            &kinds,
            (20.0, 50.0),
            (3.5, 4.5),
            (-0.6, -0.4),
            0.1,
        ));
        // Popularity ranks walk the radius strata with a fixed stride, so
        // the popular queries span small and large AREAs for every seed.
        let by_rank: Vec<usize> = (0..REPEAT_QUERIES)
            .map(|rank| rank * RANK_STRIDE % REPEAT_QUERIES)
            .collect();
        let weights: Vec<f64> = (1..=REPEAT_QUERIES)
            .map(|k| (k as f64).powf(-ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        let twin = world::triple(REPEAT_BODIES, seed, FederationConfig::default());
        let (fed, build_s) = timed(|| Repeat::served(seed));
        let next_ids = std::array::from_fn(|a| {
            let table = world::TRIPLE[a].1;
            fed.nodes[a].with_db(|db| db.row_count(table).expect("table exists")) as u64 + 1
        });
        let w = Repeat {
            fed,
            twin,
            seed,
            pool,
            cdf,
            by_rank,
            reads: world::rng(READ_SEQUENCE_SEED, 4),
            writes: world::rng(seed, 5),
            next_ids,
            epoch: 0,
            memo: HashMap::new(),
        };
        (Box::new(w), build_s)
    }

    fn write(&mut self, ctx: &mut Ctx) -> Batch {
        let rows = world::write_batch(&mut self.writes, WRITE_ROWS, &mut self.next_ids);
        let root = ctx.begin();
        let t0 = Instant::now();
        let nodes = &self.fed.nodes;
        ctx.phase("storage.ingest", || {
            for (a, row) in &rows {
                nodes[*a]
                    .with_db(|db| db.insert(world::TRIPLE[*a].1, row.clone()))
                    .expect("conforming row");
            }
        });
        let refreshed: Vec<_> = ctx.phase("portal.refresh", || {
            world::TRIPLE
                .iter()
                .map(|(archive, _, _)| self.fed.portal.refresh_table_versions(archive))
                .collect()
        });
        let latency = t0.elapsed().as_secs_f64();
        ctx.end(root);
        // Replay the batch on the oracle twin and the replay twins.
        for (a, row) in &rows {
            let (archive, table, _) = world::TRIPLE[*a];
            self.twin.nodes[*a]
                .with_db(|db| db.insert(table, row.clone()))
                .expect("conforming row");
            if let Some(db) = ctx.twins.get_mut(&world::host(archive)) {
                db.insert(table, row.clone()).expect("conforming row");
            }
        }
        for (archive, _, _) in world::TRIPLE {
            self.twin
                .portal
                .refresh_table_versions(archive)
                .expect("twin refresh");
        }
        self.epoch += 1;
        ctx.after_op(&[], None, None);
        let ok = refreshed.iter().all(|r| matches!(r, Ok(1)));
        Batch {
            ops: vec![Op {
                latency_s: latency,
                wait_sim_s: None,
                ok,
                class: Class::Write,
            }],
            timed_s: latency,
        }
    }
}

impl Workload for Repeat {
    fn net(&self) -> &SimNetwork {
        &self.fed.net
    }
    fn portal(&self) -> &Portal {
        &self.fed.portal
    }
    fn endpoints(&self) -> Vec<(String, Arc<dyn Endpoint>)> {
        world::endpoints(&self.fed.portal, &self.fed.nodes)
    }
    fn twins(&self) -> HashMap<String, Database> {
        let mut twins = world::triple_twins(REPEAT_BODIES, self.seed);
        // Bring the twins up to the writes already applied.
        for (i, node) in self.twin.nodes.iter().enumerate() {
            let (archive, table, _) = world::TRIPLE[i];
            let db = twins.get_mut(&world::host(archive)).expect("twin per host");
            let have = db.row_count(table).expect("table exists");
            let rows = node.with_db(|src| src.table(table).expect("table").rows()[have..].to_vec());
            for row in rows {
                db.insert(table, row).expect("conforming row");
            }
        }
        twins
    }
    fn batch(&mut self, b: usize, ctx: &mut Ctx) -> Batch {
        if b % WRITE_EVERY == WRITE_EVERY - 1 {
            return self.write(ctx);
        }
        let u: f64 = self.reads.gen_range(0.0..1.0);
        let rank = self
            .cdf
            .partition_point(|c| *c <= u)
            .min(REPEAT_QUERIES - 1);
        let q = self.by_rank[rank];
        // The oracle: the cache-off twin at the same write epoch.
        let key = (q, self.epoch);
        if !self.memo.contains_key(&key) {
            let rs = self
                .twin
                .portal
                .submit(&self.pool[q])
                .expect("twin reference")
                .0;
            self.memo.insert(key, rs);
        }
        let reference = &self.memo[&key];
        let before = self.fed.portal.cache_report().0;
        let mut batch = read_op(&self.fed.portal, &self.fed.net, &self.pool[q], ctx, |rs| {
            rs == reference
        });
        let after = self.fed.portal.cache_report().0;
        batch.ops[0].class = if after.hits > before.hits {
            Class::Hit
        } else if after.repairs > before.repairs {
            Class::Repair
        } else {
            Class::Miss
        };
        ctx.add(
            "cache.evictions",
            (after.evictions - before.evictions) as f64,
        );
        batch
    }
}

// ---------------------------------------------------------------------
// tenants-jobs

const JOBS_BODIES: usize = 1_200;
const JOBS_POOL: usize = 16;
const WAVE: usize = 64;
const TENANTS: usize = 8;

struct Jobs {
    fed: TestFederation,
    svc: Arc<JobService>,
    client: JobClient,
    seed: u64,
    pool: Vec<String>,
    /// Each query's synchronous `Portal::submit` answer on a twin.
    reference: Vec<ResultSet>,
    tenants: Vec<(String, QuotaClass)>,
    heavy: usize,
    mix: StdRng,
}

impl Jobs {
    fn served(seed: u64) -> (TestFederation, Arc<JobService>) {
        let config = FederationConfig {
            chain_mode: ChainMode::Checkpointed,
            max_message_bytes: 16 * 1024,
            ..FederationConfig::default()
        };
        let fed = world::triple(JOBS_BODIES, seed, config);
        let svc = JobService::start(
            &fed.net,
            "jobs.skyquery.net",
            fed.portal.clone(),
            JobServiceConfig {
                max_running: 4,
                tenant_max_running: 2,
                tenant_max_queued: WAVE / 2,
                max_queued: WAVE,
                ..JobServiceConfig::default()
            },
        );
        (fed, svc)
    }

    fn sample(seed: u64) -> f64 {
        let ((fed, _svc), build_s) = timed(|| Jobs::served(seed));
        build_s + warm_up(&fed.portal)
    }

    fn setup(seed: u64) -> (Box<dyn Workload>, f64) {
        let mut r = world::rng(seed, 6);
        let kinds: Vec<usize> = (0..JOBS_POOL).map(|k| k % 4).collect();
        let pool = world::pool(&mut r, &kinds, (20.0, 50.0), (3.5, 4.5), (-0.6, -0.4), 0.1);
        let pool = shuffled(&mut r, &pool);
        let twin = world::triple(JOBS_BODIES, seed, FederationConfig::default());
        let reference = pool
            .iter()
            .map(|sql| twin.portal.submit(sql).expect("twin reference").0)
            .collect();
        drop(twin);
        let mut classes = [
            QuotaClass::Free,
            QuotaClass::Free,
            QuotaClass::Free,
            QuotaClass::Standard,
            QuotaClass::Standard,
            QuotaClass::Standard,
            QuotaClass::Premium,
            QuotaClass::Premium,
        ];
        world::shuffle(&mut r, &mut classes);
        let tenants = (0..TENANTS)
            .map(|i| (format!("tenant-{i}"), classes[i]))
            .collect();
        let heavy = r.gen_range(0..TENANTS);
        let ((fed, svc), build_s) = timed(|| Jobs::served(seed));
        let client = JobClient::new(&fed.net, "client.skyquery.net", svc.url());
        let w = Jobs {
            fed,
            svc,
            client,
            seed,
            pool,
            reference,
            tenants,
            heavy,
            mix: world::rng(seed, 7),
        };
        (Box::new(w), build_s)
    }
}

impl Workload for Jobs {
    fn net(&self) -> &SimNetwork {
        &self.fed.net
    }
    fn portal(&self) -> &Portal {
        &self.fed.portal
    }
    fn endpoints(&self) -> Vec<(String, Arc<dyn Endpoint>)> {
        let mut eps = world::endpoints(&self.fed.portal, &self.fed.nodes);
        eps.push((
            self.svc.host().to_string(),
            self.svc.clone() as Arc<dyn Endpoint>,
        ));
        eps
    }
    fn twins(&self) -> HashMap<String, Database> {
        world::triple_twins(JOBS_BODIES, self.seed)
    }
    fn batch_ops(&self) -> usize {
        WAVE
    }
    fn batch(&mut self, _b: usize, ctx: &mut Ctx) -> Batch {
        // The wave: every pool query WAVE / JOBS_POOL times, half the jobs
        // from the heavy tenant and the rest dealt round-robin over the
        // others, tenants and queries paired and ordered by the seed.
        let others: Vec<usize> = (0..TENANTS).filter(|t| *t != self.heavy).collect();
        let offset = self.mix.gen_range(0..others.len());
        let mut queries: Vec<usize> = (0..WAVE).map(|j| j % self.pool.len()).collect();
        world::shuffle(&mut self.mix, &mut queries);
        let mut wave: Vec<(usize, usize)> = (0..WAVE)
            .map(|j| {
                let tenant = if j < WAVE / 2 {
                    self.heavy
                } else {
                    others[(j + offset) % others.len()]
                };
                (tenant, queries[j])
            })
            .collect();
        world::shuffle(&mut self.mix, &mut wave);

        let rejected0 = self.fed.net.metrics().job_total().rejected;
        let root = ctx.begin();
        let t0 = Instant::now();
        let mut jobs: Vec<(u64, f64)> = Vec::with_capacity(WAVE);
        let mut submit_err = false;
        ctx.phase("jobs.submit", || {
            for (tenant, q) in &wave {
                let (name, class) = &self.tenants[*tenant];
                let at = t0.elapsed().as_secs_f64();
                match self
                    .client
                    .submit_with(name, &self.pool[*q], 0, *class, None)
                {
                    Ok((id, _)) => jobs.push((id, at)),
                    Err(e) => {
                        eprintln!("job submission failed: {e}");
                        submit_err = true;
                    }
                }
            }
        });
        let mut done: HashMap<u64, (f64, f64, Option<ResultSet>)> = HashMap::new();
        let mut quanta = 0usize;
        while done.len() < jobs.len() {
            let worked = ctx.phase("jobs.pump", || self.svc.pump());
            quanta += worked as usize;
            self.fed.net.advance_clock(0.1);
            let states = self.svc.job_states();
            for (id, _) in &jobs {
                if done.contains_key(id) {
                    continue;
                }
                let state = states
                    .binary_search_by_key(id, |(j, _)| *j)
                    .map(|i| states[i].1)
                    .unwrap_or(JobState::Expired);
                if !state.is_terminal() {
                    continue;
                }
                let status = ctx.phase("jobs.poll", || self.client.poll(*id));
                let rs = ctx.phase("jobs.fetch", || self.client.fetch(*id));
                let wait = status.as_ref().map(|s| s.wait_s).unwrap_or(f64::NAN);
                done.insert(*id, (t0.elapsed().as_secs_f64(), wait, rs.ok()));
            }
            if !worked
                && done.len() < jobs.len()
                && self.svc.running().is_empty()
                && self.svc.queued().is_empty()
            {
                eprintln!("job service idle with unfinished jobs");
                break;
            }
        }
        let timed_s = t0.elapsed().as_secs_f64();
        ctx.end(root);

        ctx.add("jobs.quanta", quanta as f64);
        ctx.add(
            "jobs.rejects",
            (self.fed.net.metrics().job_total().rejected - rejected0) as f64,
        );
        let sqls: Vec<&str> = wave.iter().map(|(_, q)| self.pool[*q].as_str()).collect();
        ctx.after_op(&sqls, None, None);
        let mut ops: Vec<Op> = jobs
            .iter()
            .zip(&wave)
            .map(|((id, at), (_, q))| {
                let (end, wait, rs) = done.get(id).cloned().unwrap_or((f64::NAN, f64::NAN, None));
                let ok = rs
                    .as_ref()
                    .is_some_and(|rs| !rs.degraded && *rs == self.reference[*q]);
                Op {
                    latency_s: end - at,
                    wait_sim_s: Some(wait),
                    ok,
                    class: Class::Job,
                }
            })
            .collect();
        if submit_err {
            ops.push(Op {
                latency_s: f64::NAN,
                wait_sim_s: None,
                ok: false,
                class: Class::Job,
            });
        }
        Batch { ops, timed_s }
    }
    fn finish(&self, ctx: &mut Ctx) {
        let leases: usize = self
            .fed
            .nodes
            .iter()
            .map(|n| n.active_leases())
            .sum::<usize>()
            + self.svc.open_transfers().len();
        ctx.add("jobs.leases_left", leases as f64);
    }
}
