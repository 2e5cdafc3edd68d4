//! Federation builders, seeded query pools and the write schedule.
//!
//! Everything here is a pure function of the workload seed, so the same
//! seed rebuilds the same sky, the same queries and the same writes.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skyquery_core::{ArchiveInfo, FederationConfig, Portal, SkyNode, SkyNodeBuilder, ZoneExtent};
use skyquery_net::{CostModel, Endpoint, FaultKind, FaultPlan, FaultRule, SimNetwork, Url};
use skyquery_sim::survey::shard_schema;
use skyquery_sim::{
    BodyCatalog, CatalogParams, FederationBuilder, QuerySpec, Survey, SurveyParams, TestFederation,
};
use skyquery_storage::{Database, Value};

/// The paper triple: (archive, primary table, alias).
pub const TRIPLE: [(&str, &str, &str); 3] = [
    ("SDSS", "Photo_Object", "O"),
    ("TWOMASS", "Photo_Primary", "T"),
    ("FIRST", "Primary_Object", "P"),
];

/// A seeded generator for one purpose of one workload seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

pub fn catalog_params(bodies: usize, seed: u64) -> CatalogParams {
    CatalogParams {
        count: bodies,
        seed,
        ..CatalogParams::default()
    }
}

pub fn surveys() -> Vec<SurveyParams> {
    vec![
        SurveyParams::sdss_like(),
        SurveyParams::twomass_like(),
        SurveyParams::first_like(),
    ]
}

/// The unsharded paper triple on the 2002 WAN cost model.
pub fn triple(bodies: usize, seed: u64, config: FederationConfig) -> TestFederation {
    FederationBuilder::paper_triple(bodies)
        .catalog(catalog_params(bodies, seed))
        .cost_model(CostModel::internet_2002())
        .config(config)
        .build()
}

/// The host serving an unsharded archive.
pub fn host(archive: &str) -> String {
    format!("{}.skyquery.net", archive.to_ascii_lowercase())
}

/// Archive databases built from the same survey seed as a federation's
/// nodes but owned by the benchmark, keyed by the host that serves the
/// same data: the kernel replay runs against these, never against a
/// serving node's database.
pub fn triple_twins(bodies: usize, seed: u64) -> HashMap<String, Database> {
    let catalog = BodyCatalog::generate(catalog_params(bodies, seed));
    surveys()
        .into_iter()
        .map(|p| (host(&p.name), Survey::observe(&catalog, p).db))
        .collect()
}

/// Zone-grid bounds (0.1° zones from −90°) of the four declination
/// extents of `scatter-4x2`. The populated cap spans dec −1.5°…+0.5°, so
/// the inner bounds at −1.0°, −0.5° and 0.0° split it four ways.
const EXTENT_ZONES: [usize; 5] = [0, 890, 895, 900, 1800];
const ZONES: usize = 1800;
const ZONE_HEIGHT: f64 = 0.1;

fn extent(i: usize) -> ZoneExtent {
    let lo = -90.0 + EXTENT_ZONES[i] as f64 * ZONE_HEIGHT;
    let hi = if EXTENT_ZONES[i + 1] == ZONES {
        90.0
    } else {
        -90.0 + EXTENT_ZONES[i + 1] as f64 * ZONE_HEIGHT
    };
    ZoneExtent::new(lo, hi).expect("extent bounds increase")
}

/// Deals an archive into the four extents the way the repository's own
/// shard deal does: by zone label, in insertion order, each row carrying
/// its global insertion rank.
fn deal(survey: &Survey) -> Vec<Database> {
    let p = &survey.params;
    let mut shards: Vec<Database> = (0..4)
        .map(|_| {
            let mut db = Database::new(p.name.clone());
            db.create_table(shard_schema(&p.table, p.htm_depth))
                .expect("fresh database");
            db.create_btree_index(&p.table, "type")
                .expect("type column exists");
            db
        })
        .collect();
    let table = survey.db.table(&p.table).expect("table exists");
    for (rank, row) in table.rows().iter().enumerate() {
        let dec = row[2].as_f64().expect("dec is FLOAT");
        let zone = skyquery_core::transfer::zone_label(dec, ZONE_HEIGHT) as usize;
        let owner = EXTENT_ZONES[..4].partition_point(|b| *b <= zone) - 1;
        let mut dealt = row.clone();
        dealt.push(Value::Id(rank as u64));
        shards[owner]
            .insert(&p.table, dealt)
            .expect("conforming row");
    }
    shards
}

fn shard_host(archive: &str, shard: usize, replica: usize) -> String {
    let suffix = if replica == 0 {
        String::new()
    } else {
        format!("r{replica}")
    };
    format!(
        "{}-s{shard}{suffix}.skyquery.net",
        archive.to_ascii_lowercase()
    )
}

/// The `scatter-4x2` federation: every archive of the paper triple dealt
/// into four declination extents, each served by two replicas. Per
/// archive, the primary replica of one seeded extent is down for the
/// whole run.
pub struct Sharded {
    pub net: SimNetwork,
    pub portal: Arc<Portal>,
    pub nodes: Vec<Arc<SkyNode>>,
}

impl Sharded {
    pub fn build(bodies: usize, seed: u64, config: FederationConfig) -> Sharded {
        let net = SimNetwork::with_model(CostModel::internet_2002());
        let portal = Portal::start(&net, "portal.skyquery.net", config);
        let catalog = BodyCatalog::generate(catalog_params(bodies, seed));
        let mut pick = rng(seed, 0xD0);
        let mut nodes = Vec::new();
        let mut down = Vec::new();
        for params in surveys() {
            let survey = Survey::observe(&catalog, params.clone());
            down.push(shard_host(&params.name, pick.gen_range(0..4usize), 0));
            for replica in 0..2 {
                for (i, db) in deal(&survey).into_iter().enumerate() {
                    let host = shard_host(&params.name, i, replica);
                    let info = ArchiveInfo {
                        name: params.name.clone(),
                        sigma_arcsec: params.sigma_arcsec,
                        primary_table: params.table.clone(),
                        htm_depth: params.htm_depth,
                        extent: Some(extent(i)),
                    };
                    let node = SkyNodeBuilder::new(info, db)
                        .engine(Arc::new(skyquery_zones::ZoneEngine::new()))
                        .start(&net, host.clone());
                    portal
                        .register_node(&Url::new(host, "/soap"))
                        .expect("registration succeeds");
                    nodes.push(node);
                }
            }
        }
        let plan = down.iter().fold(FaultPlan::new(), |plan, host| {
            plan.rule(FaultRule::new(FaultKind::HostDown).host(host.clone()))
        });
        net.install_faults(plan);
        Sharded { net, portal, nodes }
    }

    /// Shard databases for the kernel replay, keyed by every host that
    /// serves the same data.
    pub fn twins(bodies: usize, seed: u64) -> HashMap<String, Database> {
        let catalog = BodyCatalog::generate(catalog_params(bodies, seed));
        let mut out = HashMap::new();
        for params in surveys() {
            let survey = Survey::observe(&catalog, params.clone());
            for replica in 0..2 {
                for (i, db) in deal(&survey).into_iter().enumerate() {
                    out.insert(shard_host(&params.name, i, replica), db);
                }
            }
        }
        out
    }
}

/// Every endpoint of a federation with its host, for re-binding behind
/// the tracing shim.
pub fn endpoints(portal: &Arc<Portal>, nodes: &[Arc<SkyNode>]) -> Vec<(String, Arc<dyn Endpoint>)> {
    let mut out: Vec<(String, Arc<dyn Endpoint>)> = vec![(
        portal.host().to_string(),
        portal.clone() as Arc<dyn Endpoint>,
    )];
    for n in nodes {
        out.push((n.host().to_string(), n.clone() as Arc<dyn Endpoint>));
    }
    out
}

/// Stratified draws: `n` values in `[lo, hi)`, one per equal-width
/// stratum, in seeded order. Pools drawn this way have nearly the same
/// spread for every seed, so per-operation averages stay comparable
/// across seeds while each query still differs.
pub fn strata(r: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|k| lo + (hi - lo) * (k as f64 + r.gen_range(0.0..1.0)) / n as f64)
        .collect();
    shuffle(r, &mut v);
    v
}

pub fn shuffle<T>(r: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = r.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// One pooled query.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    /// `(archive, table, alias, drop-out)` per participating archive.
    pub archives: Vec<(&'static str, &'static str, &'static str, bool)>,
    pub threshold: f64,
    /// AREA centre (ra°, dec°) and radius (arcmin).
    pub area: (f64, f64, f64),
}

impl PoolQuery {
    pub fn sql(&self) -> String {
        QuerySpec {
            archives: self
                .archives
                .iter()
                .map(|(a, t, al, d)| (a.to_string(), t.to_string(), al.to_string(), *d))
                .collect(),
            threshold: self.threshold,
            area: Some(self.area),
            polygon: None,
            predicates: vec![],
            select: vec![],
        }
        .to_sql()
    }
}

/// Archive lists by shape: the 3-way triple, with or without `!P`, and
/// the two 2-way pairs.
pub fn shape(kind: usize) -> Vec<(&'static str, &'static str, &'static str, bool)> {
    let [o, t, p] = TRIPLE;
    let arch = |(a, tb, al): (&'static str, &'static str, &'static str), d| (a, tb, al, d);
    match kind {
        0 => vec![arch(o, false), arch(t, false), arch(p, false)],
        1 => vec![arch(o, false), arch(t, false), arch(p, true)],
        2 => vec![arch(o, false), arch(t, false)],
        _ => vec![arch(t, false), arch(p, false)],
    }
}

/// A pool of queries, one per entry of `kinds`: radii stratified in
/// ascending order alongside `kinds`, thresholds stratified along a
/// fixed stride through the same order (so each shape gets nearly the
/// same radii and thresholds for every seed), centre declinations
/// stratified in seeded order, centre ra within `ra_offset_deg` of the
/// cap's; the pool is returned in ascending radius order.
pub fn pool(
    r: &mut StdRng,
    kinds: &[usize],
    radius: (f64, f64),
    threshold: (f64, f64),
    dec: (f64, f64),
    ra_offset_deg: f64,
) -> Vec<PoolQuery> {
    let n = kinds.len();
    let decs = strata(r, n, dec.0, dec.1);
    (0..n)
        .map(|k| {
            // Near the strata's midpoints: latency grows with the AREA
            // and the threshold, so a wide jitter would move the pool's
            // percentiles.
            let mut near = |stratum: usize, (lo, hi): (f64, f64)| {
                lo + (hi - lo) * (stratum as f64 + 0.5 + r.gen_range(-0.1..0.1)) / n as f64
            };
            let radius = near(k, radius);
            let threshold = near(k * THRESHOLD_STRIDE % n, threshold);
            let d = decs[k];
            let ra = 185.0 + r.gen_range(-ra_offset_deg..ra_offset_deg) / d.to_radians().cos();
            PoolQuery {
                archives: shape(kinds[k]),
                threshold,
                area: (ra, d, radius),
            }
        })
        .collect()
}

/// Walks the threshold strata against the radius order; coprime with
/// every pool size.
const THRESHOLD_STRIDE: usize = 5;

/// The warm-up query of every workload: the 3-way cross match over the
/// whole populated cap, the same for every seed, so set-up does the same
/// work whatever the pool holds and touches every extent of a sharded
/// archive.
pub fn warmup_sql() -> String {
    PoolQuery {
        archives: shape(0),
        threshold: 4.0,
        area: (185.0, -0.5, 60.0),
    }
    .sql()
}

/// One seeded write batch: `rows` new objects per archive, scattered over
/// the populated cap, with object ids continuing each archive's sequence.
pub fn write_batch(
    r: &mut StdRng,
    rows: usize,
    next_ids: &mut [u64; 3],
) -> Vec<(usize, Vec<Value>)> {
    let mut out = Vec::new();
    for (a, next) in next_ids.iter_mut().enumerate() {
        for _ in 0..rows {
            let ra = 185.0 + r.gen_range(-0.7..0.7);
            let dec = -0.5 + r.gen_range(-0.7..0.7);
            let ty = if r.gen_bool(0.6) { "GALAXY" } else { "STAR" };
            out.push((
                a,
                vec![
                    Value::Id(*next),
                    Value::Float(ra),
                    Value::Float(dec),
                    Value::Text(ty.into()),
                    Value::Float(r.gen_range(1.0..100.0)),
                ],
            ));
            *next += 1;
        }
    }
    out
}

/// Rows sorted by their rendering: the order-free view used where the
/// reference computes the same set in a different order.
pub fn sorted_rows(rs: &skyquery_core::ResultSet) -> Vec<String> {
    let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort_unstable();
    rows
}
