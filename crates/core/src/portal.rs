//! The Portal: SkyQuery's mediator (paper §5.1, §5.3).
//!
//! The Portal provides two services. **Registration** lets archives join
//! the federation: the Portal calls the new node's Meta-data and
//! Information services and catalogs what they return. **SkyQuery**
//! accepts a cross-match query, decomposes it, probes the mandatory
//! archives with count-star performance queries, builds the federated
//! execution plan (drop-outs first, then mandatory archives in decreasing
//! count order), fires the daisy chain, applies the final projection, and
//! relays the result to the client.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use skyquery_net::{
    Endpoint, HttpRequest, HttpResponse, ServiceRecord, ServiceRegistry, SimNetwork, Url,
};
use skyquery_soap::{RpcCall, RpcResponse, SoapValue};
use skyquery_sql::{decompose, parse_query, DecomposedQuery, Expr};
use skyquery_storage::{DataType, Value};

use crate::error::{FederationError, Result};
use crate::meta::{catalog_from_element, ArchiveInfo, RegisteredNode, Registration, ZoneExtent};
use crate::plan::{
    ExecutionPlan, PlanShard, PlanStep, DEFAULT_LEASE_TTL_S, DEFAULT_MAX_MESSAGE_BYTES,
};
use crate::region::Region;
use crate::result::{ResultColumn, ResultSet};
use crate::result_cache::{CacheCounters, CacheEntry, CachedStep, ResultCache, StepVersion};
use crate::retry::RetryPolicy;
use crate::shard;
use crate::skynode::invoke_cross_match;
use crate::trace::{ExecutionTrace, StatsChain};
use crate::transfer::{
    invoke_delta_step, invoke_scatter_step, open_checkpoint, release_checkpoint, renew_lease,
    send_rpc_with, IncomingPartial,
};
use crate::xmatch::MatchKernel;
use crate::xmatch::{PartialSet, PartialTuple, StepStats, TupleBindings};
use skyquery_htm::SkyPoint;

/// How the Portal orders the mandatory archives in the plan list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingStrategy {
    /// The paper's strategy: decreasing count-star estimates, so the
    /// smallest archive seeds the chain and partial results shrink early.
    CountStarDescending,
    /// Adversarial baseline: increasing count estimates.
    CountStarAscending,
    /// Ignore statistics; use the query's FROM order.
    DeclarationOrder,
    /// Random order from a seeded generator (experiment baseline).
    Random(u64),
}

/// How the Portal drives the federated cross-match chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainMode {
    /// The paper's daisy chain: one recursive Cross match call that
    /// unwinds from the seed back to the Portal. A mid-chain failure
    /// aborts the whole submission.
    #[default]
    Recursive,
    /// Portal-driven checkpointed execution: one `ExecuteStep` call per
    /// archive, each committing its partial set as a leased checkpoint
    /// on the executing node. A mid-chain failure re-plans the remaining
    /// steps around the failed node and resumes from the last good
    /// checkpoint instead of re-running the committed prefix.
    Checkpointed,
}

/// Observation state of a host the Portal has marked unhealthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// The host exhausted a retry budget and has not answered since.
    Unhealthy,
    /// Half-open: a cheap Information-service probe succeeded, so the
    /// host is trusted for real traffic again — but its strike history
    /// is retained until a real call clears it entirely.
    Probation,
}

/// Health book-keeping the Portal maintains for one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostHealth {
    /// How many times the host exhausted a retry budget.
    pub strikes: u64,
    /// The current observation state.
    pub state: HostState,
}

/// Federation-wide execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct FederationConfig {
    /// SOAP parser limit every participant enforces.
    pub max_message_bytes: usize,
    /// Whether oversized partial results are chunked (§6 workaround).
    pub chunking: bool,
    /// Plan-ordering strategy.
    pub ordering: OrderingStrategy,
    /// Issue performance queries concurrently (the paper sends them as
    /// asynchronous SOAP messages).
    pub parallel_performance_queries: bool,
    /// Worker threads each SkyNode may use for a cross-match step. `1`
    /// preserves the sequential engine; larger values enable the
    /// zone-partitioned parallel engine where one is installed.
    pub xmatch_workers: usize,
    /// Declination height (degrees) of each zone in the parallel engine.
    pub zone_height_deg: f64,
    /// Whether oversized partial results are split on zone boundaries so
    /// downstream nodes can pipeline zone processing with the transfer.
    pub zone_chunking: bool,
    /// Candidate-probe kernel the nodes use for match/drop-out steps
    /// (columnar zone buckets by default; HTM as the legacy fallback).
    pub kernel: MatchKernel,
    /// Retry policy for every federation RPC the Portal issues and, via
    /// the plan, every onward call along the daisy chain.
    pub retry: RetryPolicy,
    /// How the chain is driven: the paper's recursive daisy chain, or
    /// portal-driven checkpointed execution with failover re-planning.
    pub chain_mode: ChainMode,
    /// Lease TTL (simulated seconds) granted on every transfer session,
    /// exchange transaction, and checkpoint created for this
    /// federation's queries; node janitors reclaim anything older.
    pub lease_ttl_s: f64,
    /// Maximum number of entries in the Portal's cross-match result
    /// cache ([`crate::result_cache`]). `0` (the default) disables
    /// caching entirely — every submission runs the full chain.
    pub result_cache_capacity: usize,
    /// Lease TTL (simulated seconds) on each result-cache entry. An
    /// expired entry is evicted at the next lookup, forcing a clean
    /// cold re-run.
    pub result_cache_ttl_s: f64,
    /// Hedge delay in simulated seconds for replica-aware scatter:
    /// when a picked replica's probe runs longer than this, the Portal
    /// re-issues the probe to a sibling replica and the first response
    /// wins (duplicates are reconciled by the deterministic gather).
    /// `0.0` (the default) disables hedging; failover on unhealthy
    /// replicas is always on.
    pub hedge_delay_s: f64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            max_message_bytes: DEFAULT_MAX_MESSAGE_BYTES,
            chunking: true,
            ordering: OrderingStrategy::CountStarDescending,
            parallel_performance_queries: true,
            xmatch_workers: 1,
            zone_height_deg: crate::plan::DEFAULT_ZONE_HEIGHT_DEG,
            zone_chunking: true,
            kernel: MatchKernel::default(),
            retry: RetryPolicy::default(),
            chain_mode: ChainMode::default(),
            lease_ttl_s: DEFAULT_LEASE_TTL_S,
            result_cache_capacity: 0,
            result_cache_ttl_s: DEFAULT_LEASE_TTL_S,
            hedge_delay_s: 0.0,
        }
    }
}

/// Partial-result honesty: what a degraded execution dropped. Returned
/// alongside every executed plan and stamped onto the client-facing
/// result header, so a caller can always tell a complete answer from a
/// partial one without scraping trace events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Degradation {
    /// Whether any archive (or shard of one) was dropped from the
    /// answer.
    pub degraded: bool,
    /// What was dropped: the archive name for a wholly-skipped drop-out
    /// step, `archive@host` for individual shards lost mid-scatter.
    pub dropped: Vec<String>,
}

impl Degradation {
    /// Folds another degradation record into this one.
    pub fn absorb(&mut self, other: Degradation) {
        self.degraded |= other.degraded;
        self.dropped.extend(other.dropped);
    }
}

/// Outcome of serving one extent from its replica group during a
/// scatter: the winning reply (or final error) plus the failover/hedge
/// book-keeping the Portal folds into the step's statistics.
#[derive(Default)]
struct ExtentOutcome {
    result: Option<Result<(PartialSet, StatsChain)>>,
    failovers: usize,
    hedges: usize,
    hedge_wins: usize,
}

/// The mediator.
pub struct Portal {
    host: String,
    net: SimNetwork,
    config: Mutex<FederationConfig>,
    /// Shard groups keyed by upper-cased logical archive name. Each
    /// group holds the archive's physical shards sorted by the zone
    /// range they own (then by host); an unsharded archive is a group of
    /// one full-sky node.
    nodes: Mutex<HashMap<String, Vec<RegisteredNode>>>,
    /// UDDI-style repository of the federation's services (§3.1:
    /// "services can register themselves and be discovered").
    registry: ServiceRegistry,
    /// Hosts that exhausted a retry budget, with strike counts and a
    /// half-open probation state. A successful real contact clears the
    /// host — unhealthiness is an observation, not a ban; the autonomous
    /// archive may come back any time.
    health: Mutex<HashMap<String, HostHealth>>,
    /// Cross-match result cache: committed per-step partial sets keyed
    /// by plan signature and per-table version vector
    /// ([`crate::result_cache`]). Inert until
    /// [`FederationConfig::result_cache_capacity`] is raised above 0.
    cache: Mutex<ResultCache>,
}

/// How often a failing mandatory step may be deferred (moved to the
/// earliest mandatory slot) before the Portal gives up on the query.
const MAX_STEP_DEFERRALS: u64 = 2;

impl Portal {
    /// Creates a Portal and binds it to `host` on the network.
    pub fn start(
        net: &SimNetwork,
        host: impl Into<String>,
        config: FederationConfig,
    ) -> Arc<Portal> {
        let host = host.into();
        let registry = ServiceRegistry::new();
        registry.register(ServiceRecord {
            provider: "SkyQuery Portal".into(),
            category: "Portal".into(),
            url: Url::new(host.clone(), "/soap"),
            description: "Registration and SkyQuery services".into(),
        });
        let portal = Arc::new(Portal {
            host: host.clone(),
            net: net.clone(),
            config: Mutex::new(config),
            nodes: Mutex::new(HashMap::new()),
            registry,
            health: Mutex::new(HashMap::new()),
            cache: Mutex::new(ResultCache::new()),
        });
        net.bind(host, portal.clone());
        portal
    }

    /// UDDI-style discovery: all registered services in a category
    /// ("Portal", "SkyNode").
    pub fn discover(&self, category: &str) -> Vec<ServiceRecord> {
        self.registry.discover(category)
    }

    /// The Portal's network host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The Portal's SOAP endpoint URL.
    pub fn url(&self) -> Url {
        Url::new(self.host.clone(), "/soap")
    }

    /// Replaces the execution configuration (experiments switch ordering
    /// strategies and message limits between runs).
    pub fn set_config(&self, config: FederationConfig) {
        *self.config.lock() = config;
    }

    /// The current execution configuration.
    pub fn config(&self) -> FederationConfig {
        *self.config.lock()
    }

    /// Hosts currently considered unhealthy (they exhausted a retry
    /// budget more recently than they answered or passed a probe),
    /// sorted. Hosts in probation are excluded.
    pub fn unhealthy_hosts(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .health
            .lock()
            .iter()
            .filter(|(_, h)| h.state == HostState::Unhealthy)
            .map(|(host, _)| host.clone())
            .collect();
        v.sort();
        v
    }

    /// The full health book, sorted by host — for the REPL's `\health`
    /// view. Healthy hosts (no strikes on record) do not appear.
    pub fn health_report(&self) -> Vec<(String, HostHealth)> {
        let mut v: Vec<(String, HostHealth)> = self
            .health
            .lock()
            .iter()
            .map(|(host, h)| (host.clone(), *h))
            .collect();
        v.sort_by(|(a, _), (b, _)| a.cmp(b));
        v
    }

    /// Records one failure in the health book-keeping: exhausting a
    /// retry budget adds a strike and (re)marks the host unhealthy.
    fn note_failure(&self, e: &FederationError) {
        if let FederationError::NodeUnhealthy { host, .. } = e {
            let mut health = self.health.lock();
            let h = health.entry(host.clone()).or_insert(HostHealth {
                strikes: 0,
                state: HostState::Unhealthy,
            });
            h.strikes += 1;
            h.state = HostState::Unhealthy;
        }
    }

    /// Folds one RPC outcome into the health book-keeping.
    fn note_health<T>(&self, result: &Result<T>) {
        if let Err(e) = result {
            self.note_failure(e);
        }
    }

    /// Records a successful contact with `host`, clearing any unhealthy
    /// mark (and its strike history).
    fn note_healthy(&self, host: &str) {
        self.health.lock().remove(host);
    }

    /// Whether `host` is currently marked unhealthy (probation counts as
    /// healthy: real traffic may flow again). Replica selection prefers
    /// the first healthy candidate of a group.
    fn host_is_unhealthy(&self, host: &str) -> bool {
        self.health
            .lock()
            .get(host)
            .is_some_and(|h| h.state == HostState::Unhealthy)
    }

    /// Half-open recovery probe: one cheap Information-service call with
    /// no retries. Success moves an unhealthy host to probation (real
    /// traffic may flow again); failure adds a strike. Returns whether
    /// the probe succeeded. Probing an unknown host returns `false`.
    pub fn probe_host(&self, host: &str) -> bool {
        let url = self
            .nodes
            .lock()
            .values()
            .flatten()
            .find(|n| n.url.host == host)
            .map(|n| n.url.clone());
        let Some(url) = url else { return false };
        let ok = send_rpc_with(
            &self.net,
            &self.host,
            &url,
            &RpcCall::new("Information"),
            RetryPolicy::none(),
        )
        .is_ok();
        let mut health = self.health.lock();
        if ok {
            if let Some(h) = health.get_mut(host) {
                h.state = HostState::Probation;
            }
        } else {
            let h = health.entry(host.to_string()).or_insert(HostHealth {
                strikes: 0,
                state: HostState::Unhealthy,
            });
            h.strikes += 1;
            h.state = HostState::Unhealthy;
        }
        ok
    }

    /// Probes every currently unhealthy host once; returns each host with
    /// its probe outcome.
    pub fn probe_unhealthy_hosts(&self) -> Vec<(String, bool)> {
        self.unhealthy_hosts()
            .into_iter()
            .map(|h| {
                let ok = self.probe_host(&h);
                (h, ok)
            })
            .collect()
    }

    /// Sends one RPC under the configured retry policy, updating the
    /// health book-keeping from the outcome.
    fn call(&self, url: &Url, call: &RpcCall) -> Result<RpcResponse> {
        let result = send_rpc_with(&self.net, &self.host, url, call, self.config().retry);
        self.note_health(&result);
        if result.is_ok() {
            self.note_healthy(&url.host);
        }
        result
    }

    /// Registered archive names, sorted.
    pub fn archives(&self) -> Vec<String> {
        let mut v: Vec<String> = self.nodes.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// The catalog entry for a logical archive: its primary shard (the
    /// one owning the lowest declination range). Metadata — schema, σ,
    /// primary table — is identical across a shard group, so this is the
    /// right entry point for planning lookups; use
    /// [`Portal::shards_of`] for the physical membership.
    pub fn node(&self, archive: &str) -> Option<RegisteredNode> {
        self.nodes
            .lock()
            .get(&archive.to_ascii_uppercase())
            .and_then(|group| group.first().cloned())
    }

    /// All physical shards of a logical archive, in a **deterministic**
    /// order: ascending zone range, then host name within a range — so
    /// replicas of the same extent are adjacent, with the primary
    /// (lowest host) first. Replica selection and gather order both key
    /// off this ordering, so it is re-established here explicitly
    /// rather than trusted to registration-time bookkeeping. Empty if
    /// the archive is not registered.
    pub fn shards_of(&self, archive: &str) -> Vec<RegisteredNode> {
        let mut group = self
            .nodes
            .lock()
            .get(&archive.to_ascii_uppercase())
            .cloned()
            .unwrap_or_default();
        group.sort_by(|a, b| {
            a.extent()
                .dec_lo_deg
                .total_cmp(&b.extent().dec_lo_deg)
                .then_with(|| a.url.host.cmp(&b.url.host))
        });
        group
    }

    /// The UDDI provider name one shard registers under: the archive
    /// name for the group's primary shard, `name@host` for the rest.
    fn provider_name(index: usize, node: &RegisteredNode) -> String {
        if index == 0 {
            node.info.name.clone()
        } else {
            format!("{}@{}", node.info.name, node.url.host)
        }
    }

    /// Rewrites the registry records of one shard group from scratch:
    /// membership and ordering may both have changed, so stale provider
    /// names are dropped before the group re-registers.
    fn sync_registry(&self, name: &str, group: &[RegisteredNode]) {
        self.registry.unregister(name);
        for n in group {
            self.registry
                .unregister(&format!("{}@{}", n.info.name, n.url.host));
        }
        for (i, n) in group.iter().enumerate() {
            let extent = n.extent();
            let range = if extent.is_full_sky() {
                String::new()
            } else {
                format!(", dec [{}, {})", extent.dec_lo_deg, extent.dec_hi_deg)
            };
            self.registry.register(ServiceRecord {
                provider: Self::provider_name(i, n),
                category: "SkyNode".into(),
                url: n.url.clone(),
                description: format!(
                    "σ={}\" archive, primary table {}{range}",
                    n.info.sigma_arcsec, n.info.primary_table
                ),
            });
        }
    }

    /// Registers the SkyNode at `url`: calls its Meta-data and Information
    /// services and catalogs the results (§5.1 registration flow). A node
    /// publishing a [`crate::meta::ZoneExtent`] joins its archive's shard
    /// group as the owner of that zone range; re-registering from the
    /// same host replaces the previous entry. Returns a [`Registration`]
    /// summary of what the Portal now knows about the archive.
    pub fn register_node(&self, url: &Url) -> Result<Registration> {
        let info_resp = self.call(url, &RpcCall::new("Information"))?;
        let info = ArchiveInfo::from_element(
            info_resp
                .require("info")?
                .as_xml()
                .ok_or_else(|| FederationError::protocol("info must be xml"))?,
        )?;
        let meta_resp = self.call(url, &RpcCall::new("Metadata"))?;
        let catalog = catalog_from_element(
            meta_resp
                .require("catalog")?
                .as_xml()
                .ok_or_else(|| FederationError::protocol("catalog must be xml"))?,
        )?;
        let table_count = catalog.tables.len();
        let node = RegisteredNode {
            info: info.clone(),
            url: url.clone(),
            catalog,
        };
        let group = {
            let mut nodes = self.nodes.lock();
            let group = nodes.entry(info.name.to_ascii_uppercase()).or_default();
            group.retain(|n| n.url.host != url.host);
            group.push(node);
            group.sort_by(|a, b| {
                a.extent()
                    .dec_lo_deg
                    .total_cmp(&b.extent().dec_lo_deg)
                    .then_with(|| a.url.host.cmp(&b.url.host))
            });
            group.clone()
        };
        self.sync_registry(&info.name, &group);
        let extent = info.owned_extent();
        // The registering node's replica group: every group member
        // serving exactly the same zone range, itself included.
        let replica_count = group
            .iter()
            .filter(|n| {
                let e = n.extent();
                e.dec_lo_deg == extent.dec_lo_deg && e.dec_hi_deg == extent.dec_hi_deg
            })
            .count();
        Ok(Registration {
            archive: info.name.clone(),
            extent,
            shard_count: group.len(),
            replica_count,
            table_count,
        })
    }

    /// Removes a logical archive — every shard of it — from the
    /// federation.
    pub fn unregister(&self, archive: &str) -> bool {
        let removed = self.nodes.lock().remove(&archive.to_ascii_uppercase());
        if let Some(group) = &removed {
            for (i, n) in group.iter().enumerate() {
                self.registry.unregister(&Self::provider_name(i, n));
            }
        }
        removed.is_some()
    }

    /// EXPLAIN: decomposes and plans the query — running the performance
    /// queries, exactly as a real submission would — but stops before
    /// firing the cross-match chain. Returns a human-readable rendering
    /// of the federated execution plan.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let query = parse_query(sql).map_err(FederationError::Sql)?;
        let dq = decompose(query).map_err(FederationError::Sql)?;
        let mut trace = ExecutionTrace::new();
        let counts = self.run_performance_queries(&dq, &mut trace)?;
        let plan = self.build_plan(&dq, &counts)?;

        let mut out = String::new();
        out.push_str(&format!(
            "Federated cross-match plan (threshold {}\u{3c3})\n",
            plan.threshold
        ));
        match &plan.region {
            Some(r) => out.push_str(&format!("  region: {}\n", r.to_spec())),
            None => out.push_str("  region: whole sky\n"),
        }
        out.push_str("  performance queries:\n");
        for pq in &dq.performance_queries {
            let n = counts.get(&pq.alias).copied().unwrap_or(0);
            out.push_str(&format!("    {}  -> {n}\n", pq.to_sql()));
        }
        out.push_str("  chain (list order; execution starts at the last step):\n");
        for (i, step) in plan.steps.iter().enumerate() {
            out.push_str(&format!(
                "    [{i}] {}{} @ {}  table {}  sigma={}\"  count={}\n",
                if step.dropout { "!" } else { "" },
                step.alias,
                step.url,
                step.table,
                step.sigma_arcsec,
                step.count_estimate
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
            ));
            if let Some(p) = &step.local_sql {
                out.push_str(&format!("         local:    {p}\n"));
            }
            if !step.carried.is_empty() {
                out.push_str(&format!("         carries:  {}\n", step.carried.join(", ")));
            }
            for r in &step.residual_sql {
                out.push_str(&format!("         residual: {r}\n"));
            }
        }
        out.push_str(&format!(
            "  select: {}\n",
            plan.select
                .iter()
                .map(|(e, a)| match a {
                    Some(a) => format!("{e} AS {a}"),
                    None => e.clone(),
                })
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if !plan.order_by.is_empty() {
            out.push_str(&format!(
                "  order by: {}\n",
                plan.order_by
                    .iter()
                    .map(|(e, d)| format!("{e}{}", if *d { " DESC" } else { "" }))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        if let Some(n) = plan.limit {
            out.push_str(&format!("  limit: {n}\n"));
        }
        Ok(out)
    }

    /// Plans a query without firing the chain: parse, decompose, run the
    /// count-star performance queries (steps 2–4 of Figure 3), and build
    /// the federated execution plan (step 5), recording the same trace
    /// events a full submission would. The job service plans here once at
    /// admission, then drives [`Portal::execute_plan`] (or a stepwise
    /// [`StepWalk`]) separately.
    pub fn plan_query(&self, sql: &str, trace: &mut ExecutionTrace) -> Result<ExecutionPlan> {
        let query = parse_query(sql).map_err(FederationError::Sql)?;
        let dq = decompose(query).map_err(FederationError::Sql)?;

        // Step 2 (Figure 3): create performance queries.
        trace.push(
            "Portal",
            "decompose",
            format!(
                "{} archives, {} performance queries",
                dq.archives.len(),
                dq.performance_queries.len()
            ),
        );

        // Steps 3–4: run performance queries against the Query services.
        let counts = self.run_performance_queries(&dq, trace)?;

        // Step 5: build the plan.
        let plan = self.build_plan(&dq, &counts)?;
        trace.push(
            "Portal",
            "plan",
            format!(
                "chain order: {}",
                plan.steps
                    .iter()
                    .map(|s| {
                        format!(
                            "{}{}({})",
                            if s.dropout { "!" } else { "" },
                            s.alias,
                            s.count_estimate
                                .map(|c| c.to_string())
                                .unwrap_or_else(|| "-".into())
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ),
        );
        Ok(plan)
    }

    /// Fires the chain for a prepared plan (steps 6–7 of Figure 3) under
    /// the configured chain mode — the paper's recursive daisy chain, or
    /// a Portal-driven [`StepWalk`] (per-step health book-keeping happens
    /// inside the walk). With the result cache on, a hit is served
    /// without executing any step and a miss runs the caching walk.
    pub fn execute_plan(
        &self,
        plan: &ExecutionPlan,
        trace: &mut ExecutionTrace,
    ) -> Result<(PartialSet, StatsChain, Degradation)> {
        if self.config().result_cache_capacity == 0 {
            return self.execute_plan_direct(plan, trace);
        }
        if let Some((set, stats)) = self.cached_result(plan, trace) {
            // Cached entries are only written by complete (never
            // degraded) walks, so a hit is always a complete answer.
            return Ok((set, stats, Degradation::default()));
        }
        // Miss: run a caching walk so the next repeat of this plan can
        // be served from the cache. On an unhealthy-node failure fall
        // back to the configured chain mode, which can re-plan around
        // the failure; anything else is fatal either way.
        let caching = self.fetch_versions(plan).and_then(|before| {
            let record = CacheRecord {
                before,
                steps: Vec::new(),
            };
            StepWalk::new(
                plan,
                ChainMode::Recursive,
                Committed::Memory(None),
                Some(record),
            )
            .run(self, trace)
        });
        let mut r = match caching {
            Err(FederationError::NodeUnhealthy { .. }) => {
                trace.push(
                    "Portal",
                    "cache",
                    "caching walk hit an unhealthy node; falling back to direct execution"
                        .to_string(),
                );
                self.execute_plan_direct(plan, trace)?
            }
            r => r?,
        };
        self.stamp_cache_counters(&mut r.1);
        Ok(r)
    }

    /// The cache-oblivious execution path: the configured chain mode
    /// over the daisy chain or a Portal-driven step walk.
    fn execute_plan_direct(
        &self,
        plan: &ExecutionPlan,
        trace: &mut ExecutionTrace,
    ) -> Result<(PartialSet, StatsChain, Degradation)> {
        if let Some(walk) = self.step_walk(plan) {
            return walk.run(self, trace);
        }
        let r = invoke_cross_match(&self.net, &self.host, &plan.steps[0].url, plan, 0);
        self.note_health(&r);
        if r.is_ok() {
            self.note_healthy(&plan.steps[0].url.host);
        }
        r.map(|(set, stats)| (set, stats, Degradation::default()))
    }

    /// The Portal-driven walk for `plan` under the configured chain
    /// mode, or `None` when the plan runs as the paper's recursive daisy
    /// chain (an unsharded plan under [`ChainMode::Recursive`]): one
    /// `CrossMatch` call that cannot be sliced. A plan addressing any
    /// sharded or replicated archive is always walked — the
    /// node-to-node daisy chain cannot express a scatter — with the
    /// merged set held in Portal memory; an unsharded plan under
    /// [`ChainMode::Checkpointed`] commits each step as a leased node
    /// checkpoint instead.
    pub fn step_walk(&self, plan: &ExecutionPlan) -> Option<StepWalk> {
        let mode = self.config().chain_mode;
        let committed = if plan.has_shards() {
            Committed::Memory(None)
        } else if mode == ChainMode::Checkpointed {
            Committed::Checkpoint(None)
        } else {
            return None;
        };
        Some(StepWalk::new(plan, mode, committed, None))
    }

    /// Applies the plan's final ORDER BY / LIMIT / SELECT projection
    /// (step 8 of Figure 3) to a matched partial set.
    pub fn project_result(plan: &ExecutionPlan, set: PartialSet) -> Result<ResultSet> {
        project(plan, set)
    }

    /// Submits a cross-match query; returns the result set and the
    /// execution trace (the Figure-3 record).
    pub fn submit(&self, sql: &str) -> Result<(ResultSet, ExecutionTrace)> {
        let mut trace = ExecutionTrace::new();
        trace.push("Client", "submit", format!("query: {sql}"));
        // Retries and injected faults anywhere in the submission —
        // performance queries or the daisy chain — show up as metric
        // deltas; surface them in the trace so recovery is visible.
        let before = self.net.metrics();
        let (retries_before, backoff_before, faults_before) = (
            before.retry_total().retries,
            before.retry_total().backoff_seconds,
            before.fault_total(),
        );
        let plan = self.plan_query(sql, &mut trace)?;
        let chain = self.execute_plan(&plan, &mut trace);
        let after = self.net.metrics();
        let (retries, backoff, faults) = (
            after.retry_total().retries - retries_before,
            after.retry_total().backoff_seconds - backoff_before,
            after.fault_total() - faults_before,
        );
        if retries > 0 || faults > 0 {
            trace.push(
                "Portal",
                "recovery",
                format!(
                    "{retries} retries ({backoff:.3}s backoff), {faults} fault events \
                     during submission"
                ),
            );
        }
        let (set, stats, degradation) = chain?;
        for (alias, s) in &stats.entries {
            trace.push(
                alias.clone(),
                "cross match step",
                format!(
                    "tuples in {}, candidates probed {}, examined {}, chi2 accepted {}, scratch reuse {}, tuples out {}, tile builds {}, tile decodes {}, tile hits {}, cache hits {}, cache misses {}, cache repairs {}, cache evictions {}, failovers {}, hedges {}, hedge wins {}, shards pruned {}",
                    s.tuples_in,
                    s.candidates_probed,
                    s.candidates_examined,
                    s.chi2_accepted,
                    s.scratch_reuse,
                    s.tuples_out,
                    s.tile_builds,
                    s.tile_decodes,
                    s.tile_hits,
                    s.cache_hits,
                    s.cache_misses,
                    s.cache_repairs,
                    s.cache_evictions,
                    s.failovers,
                    s.hedges,
                    s.hedge_wins,
                    s.shards_pruned
                ),
            );
        }

        // Step 8: final projection and relay, with partial-result
        // honesty stamped on the header: a degraded answer says so, and
        // names what it lost, without the client scraping the trace.
        let mut result = project(&plan, set)?;
        result.degraded = degradation.degraded;
        result.dropped_archives = degradation.dropped.clone();
        if degradation.degraded {
            trace.push(
                "Portal",
                "partial result",
                format!(
                    "answer degraded; dropped: {}",
                    degradation.dropped.join(", ")
                ),
            );
        }
        trace.push(
            "Portal",
            "relay",
            format!("{} matched tuples to client", result.row_count()),
        );
        Ok((result, trace))
    }

    /// Attempts to serve `plan` from the result cache: a **hit** (the
    /// registry's table versions match the entry's version vector
    /// exactly) returns the cached final set with zero chain steps
    /// executed; a **monotonically stale** unsharded entry (every
    /// table at or past its cached version) is repaired incrementally
    /// by probing only the delta rows through the node `DeltaStep`
    /// service; anything else — a version regression, a vanished
    /// archive, a stale sharded entry — evicts the entry and returns
    /// `None` so the caller runs the chain cold. Used by
    /// [`Portal::execute_plan`] and by the job service before it
    /// starts a chain walk.
    pub fn cached_result(
        &self,
        plan: &ExecutionPlan,
        trace: &mut ExecutionTrace,
    ) -> Option<(PartialSet, StatsChain)> {
        let config = self.config();
        if config.result_cache_capacity == 0 {
            return None;
        }
        let signature = plan.cache_signature();
        let now = self.net.now_s();
        let current = self.current_versions(plan);
        // Classify under the cache lock; run any repair RPCs outside it.
        let stale = {
            let mut cache = self.cache.lock();
            cache.sweep(now);
            let id = match cache.lookup(&signature) {
                Some(id) => id,
                None => {
                    cache.counters_mut().misses += 1;
                    return None;
                }
            };
            let Some(current) = current.as_ref() else {
                // An archive or table left the registry: the entry can
                // never validate again.
                cache.evict(id);
                cache.counters_mut().misses += 1;
                return None;
            };
            let entry = cache.get(id).expect("looked up above");
            if &entry.versions == current {
                cache.renew(id, now);
                cache.counters_mut().hits += 1;
                let entry = cache.get(id).expect("present");
                let head = entry
                    .steps
                    .first()
                    .expect("a cached entry holds every plan step");
                let set = head.set.clone();
                let mut stats = StatsChain::new();
                for s in entry.steps.iter().rev() {
                    stats.push(s.alias.clone(), s.stats);
                }
                stamp_cache_counters(&mut stats, cache.counters());
                drop(cache);
                trace.push(
                    "Portal",
                    "cache hit",
                    format!(
                        "served {} tuples from the result cache; no chain step executed",
                        set.len()
                    ),
                );
                return Some((set, stats));
            }
            let monotone = entry.versions.len() == current.len()
                && entry.versions.iter().zip(current).all(|(old, new)| {
                    old.len() == new.len()
                        && old.iter().zip(new).all(|(o, c)| {
                            o.host == c.host && o.table == c.table && c.version >= o.version
                        })
                });
            if !monotone || plan.has_shards() {
                // A regression means the provenance no longer describes
                // the tables; a sharded entry keeps no per-shard delta
                // provenance. Either way the entry is unrepairable.
                cache.evict(id);
                cache.counters_mut().misses += 1;
                drop(cache);
                trace.push(
                    "Portal",
                    "cache evict",
                    "stale entry is not incrementally repairable; running the chain cold"
                        .to_string(),
                );
                return None;
            }
            entry.clone()
        };
        let current = current.expect("repair requires current versions");
        match self.repair_entry(plan, &stale, &current) {
            Ok(repaired) => {
                // The delta probes observed authoritative versions:
                // publish them so the next lookup validates as a hit.
                for vs in &repaired.versions {
                    for v in vs {
                        self.update_registry_version(&v.host, &v.table, v.version);
                    }
                }
                let head = repaired
                    .steps
                    .first()
                    .expect("a repaired entry holds every plan step");
                let set = head.set.clone();
                let mut stats = StatsChain::new();
                for s in repaired.steps.iter().rev() {
                    stats.push(s.alias.clone(), s.stats);
                }
                let mut cache = self.cache.lock();
                cache.counters_mut().repairs += 1;
                match cache.lookup(&signature) {
                    Some(id) => {
                        if let Some(slot) = cache.get_mut(id) {
                            *slot = repaired;
                        }
                        cache.renew(id, now);
                    }
                    None => {
                        cache.insert(
                            repaired,
                            now,
                            config.result_cache_ttl_s,
                            config.result_cache_capacity,
                        );
                    }
                }
                stamp_cache_counters(&mut stats, cache.counters());
                drop(cache);
                trace.push(
                    "Portal",
                    "cache repair",
                    format!(
                        "stale entry repaired incrementally ({} tuples); only delta rows probed",
                        set.len()
                    ),
                );
                Some((set, stats))
            }
            Err(e) => {
                let mut cache = self.cache.lock();
                if let Some(id) = cache.lookup(&signature) {
                    cache.evict(id);
                }
                cache.counters_mut().misses += 1;
                drop(cache);
                trace.push(
                    "Portal",
                    "cache evict",
                    format!("incremental repair failed ({e}); running the chain cold"),
                );
                None
            }
        }
    }

    /// The registry's view of each `(host, table)` version the plan
    /// touches — no round trips. `None` when any addressed host or
    /// table is no longer registered.
    fn current_versions(&self, plan: &ExecutionPlan) -> Option<Vec<Vec<StepVersion>>> {
        let nodes = self.nodes.lock();
        let mut out = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let hosts: Vec<&str> = if step.shards.is_empty() {
                vec![step.url.host.as_str()]
            } else {
                step.shards.iter().map(|s| s.url.host.as_str()).collect()
            };
            let mut vs = Vec::with_capacity(hosts.len());
            for host in hosts {
                let node = nodes.values().flatten().find(|n| n.url.host == host)?;
                let version = node
                    .catalog
                    .tables
                    .iter()
                    .find(|t| t.schema.name.eq_ignore_ascii_case(&step.table))
                    .map(|t| t.version)?;
                vs.push(StepVersion {
                    host: host.to_string(),
                    table: step.table.clone(),
                    version,
                });
            }
            out.push(vs);
        }
        Some(out)
    }

    /// Authoritative `(host, table)` versions for every step target,
    /// fetched through each node's Metadata service. The caching walk
    /// brackets its execution with two of these: if any version moved
    /// mid-walk, the walk's provenance is torn and the result is not
    /// cached.
    fn fetch_versions(&self, plan: &ExecutionPlan) -> Result<Vec<Vec<StepVersion>>> {
        let mut out = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let targets: Vec<Url> = if step.shards.is_empty() {
                vec![step.url.clone()]
            } else {
                step.shards.iter().map(|s| s.url.clone()).collect()
            };
            let mut vs = Vec::with_capacity(targets.len());
            for url in &targets {
                let resp = self.call(url, &RpcCall::new("Metadata"))?;
                let catalog = catalog_from_element(
                    resp.require("catalog")?
                        .as_xml()
                        .ok_or_else(|| FederationError::protocol("catalog must be xml"))?,
                )?;
                let version = catalog
                    .tables
                    .iter()
                    .find(|t| t.schema.name.eq_ignore_ascii_case(&step.table))
                    .map(|t| t.version)
                    .ok_or_else(|| {
                        FederationError::protocol(format!(
                            "table {} missing from the {} catalog",
                            step.table, url.host
                        ))
                    })?;
                vs.push(StepVersion {
                    host: url.host.clone(),
                    table: step.table.clone(),
                    version,
                });
            }
            out.push(vs);
        }
        Ok(out)
    }

    /// Updates the registry's version snapshot for one `(host, table)`
    /// pair — called when an authoritative version is learned outside a
    /// full re-registration (delta probes, table transfers, caching
    /// walks).
    pub(crate) fn update_registry_version(&self, host: &str, table: &str, version: u64) {
        let mut nodes = self.nodes.lock();
        for group in nodes.values_mut() {
            for n in group.iter_mut() {
                if n.url.host == host {
                    for t in &mut n.catalog.tables {
                        if t.schema.name.eq_ignore_ascii_case(table) {
                            t.version = version;
                        }
                    }
                }
            }
        }
    }

    /// Re-reads every shard catalog of `archive` through the Metadata
    /// service, refreshing the registry's table-version snapshot (and
    /// schemas) without a full re-registration. Returns the number of
    /// shards refreshed.
    pub fn refresh_table_versions(&self, archive: &str) -> Result<usize> {
        let shards = self.shards_of(archive);
        if shards.is_empty() {
            return Err(FederationError::planning(format!(
                "archive {archive} is not registered"
            )));
        }
        let mut refreshed = 0;
        for shard in &shards {
            let resp = self.call(&shard.url, &RpcCall::new("Metadata"))?;
            let catalog = catalog_from_element(
                resp.require("catalog")?
                    .as_xml()
                    .ok_or_else(|| FederationError::protocol("catalog must be xml"))?,
            )?;
            let mut nodes = self.nodes.lock();
            if let Some(group) = nodes.get_mut(&archive.to_ascii_uppercase()) {
                if let Some(n) = group.iter_mut().find(|n| n.url.host == shard.url.host) {
                    n.catalog = catalog;
                    refreshed += 1;
                }
            }
        }
        Ok(refreshed)
    }

    /// Result-cache effectiveness counters and live entry count — the
    /// REPL's `\cache` view.
    pub fn cache_report(&self) -> (CacheCounters, usize) {
        let cache = self.cache.lock();
        (cache.counters(), cache.len())
    }

    /// Stamps the current cache counters into the first entry of a
    /// stats chain (see [`stamp_cache_counters`]).
    fn stamp_cache_counters(&self, stats: &mut StatsChain) {
        let c = self.cache.lock().counters();
        stamp_cache_counters(stats, c);
    }

    /// Caches what a caching walk recorded — every step's committed
    /// partial set plus per-tuple provenance — unless a table moved
    /// while the walk ran: the walk is bracketed by two authoritative
    /// version fetches, and torn provenance is never cached.
    fn populate_cache(
        &self,
        plan: &ExecutionPlan,
        record: CacheRecord,
        trace: &mut ExecutionTrace,
    ) -> Result<()> {
        let after = self.fetch_versions(plan)?;
        if record.before != after {
            trace.push(
                "Portal",
                "cache",
                "table versions moved during execution; result not cached".to_string(),
            );
            return Ok(());
        }
        for vs in &after {
            for v in vs {
                self.update_registry_version(&v.host, &v.table, v.version);
            }
        }
        // Recorded in execution order (seed first); entries keep plan
        // order.
        let mut steps = record.steps;
        steps.reverse();
        let entry = CacheEntry {
            signature: plan.cache_signature(),
            versions: after,
            steps,
        };
        let config = self.config();
        let now = self.net.now_s();
        self.cache.lock().insert(
            entry,
            now,
            config.result_cache_ttl_s,
            config.result_cache_capacity,
        );
        trace.push(
            "Portal",
            "cache populate",
            format!(
                "cached all {} step partial sets under a {:.0}s lease",
                plan.steps.len(),
                config.result_cache_ttl_s
            ),
        );
        Ok(())
    }

    /// Repairs a monotonically stale cache entry in place of a cold
    /// run: walking the chain in execution order, each step keeps the
    /// cached outputs whose upstream tuples survived, probes **only
    /// the rows inserted since the cached version** (plus any
    /// freshly-appended upstream tuples, which must see the whole
    /// table) through the node `DeltaStep` service, and splices the
    /// delta results into the cached partial set. Because tables are
    /// append-only and kernels emit candidates in row order within
    /// each match group, the spliced set is byte-identical to a cold
    /// run over the same data (proven by the repair proptests).
    fn repair_entry(
        &self,
        plan: &ExecutionPlan,
        entry: &CacheEntry,
        current: &[Vec<StepVersion>],
    ) -> Result<CacheEntry> {
        let n = plan.steps.len();
        if entry.steps.len() != n || entry.versions.len() != n || current.len() != n {
            return Err(FederationError::protocol(
                "cache entry shape does not match the plan",
            ));
        }
        let mut new_steps: Vec<Option<CachedStep>> = (0..n).map(|_| None).collect();
        let mut new_versions = entry.versions.clone();
        let mut up: Option<RepairedUpstream> = None;
        for idx in (0..n).rev() {
            let cached = &entry.steps[idx];
            if cached.src.len() != cached.set.tuples.len() {
                return Err(FederationError::protocol(
                    "cached step provenance is out of sync with its tuples",
                ));
            }
            let v_old = entry.versions[idx]
                .first()
                .map(|v| v.version)
                .ok_or_else(|| FederationError::protocol("cached step has no version record"))?;
            let v_reg = current[idx].first().map(|v| v.version).unwrap_or(v_old);
            let r = StepRepair {
                plan,
                idx,
                cached,
                v_old,
                v_reg,
                needs_delta: v_reg > v_old,
            };
            let versions = &mut new_versions[idx];
            let (repaired, src, stats) = match up.take() {
                None => self.repair_seed(&r, versions)?,
                Some(upstream) if plan.steps[idx].dropout => {
                    self.repair_dropout(&r, upstream, versions)?
                }
                Some(upstream) => self.repair_match(&r, upstream, versions)?,
            };
            new_steps[idx] = Some(CachedStep {
                alias: cached.alias.clone(),
                set: repaired.set.clone(),
                src,
                stats,
            });
            up = Some(repaired);
        }
        Ok(CacheEntry {
            signature: entry.signature.clone(),
            versions: new_versions,
            steps: new_steps
                .into_iter()
                .map(|s| s.expect("every step repaired"))
                .collect(),
        })
    }

    /// Repairs the seed step: cached rows keep their positions (the
    /// seed scans its table in row order, so new rows sort after old
    /// ones) and the delta rows are probed and appended.
    fn repair_seed(
        &self,
        r: &StepRepair,
        versions: &mut [StepVersion],
    ) -> Result<(RepairedUpstream, Vec<u64>, StepStats)> {
        let step = &r.plan.steps[r.idx];
        let mut set = r.cached.set.clone();
        let mut stats = r.cached.stats;
        let old_len = set.tuples.len();
        if r.needs_delta {
            let (delta, chain, version) = invoke_delta_step(
                &self.net, &self.host, &step.url, r.plan, r.idx, r.v_old, None,
            )?;
            if delta.columns != set.columns {
                return Err(FederationError::protocol(
                    "delta seed schema diverged from the cached set",
                ));
            }
            stats = combine_delta_stats(stats, first_stats(&chain));
            set.tuples.extend(delta.tuples);
            if let Some(v) = versions.first_mut() {
                v.version = version;
            }
        }
        stats.tuples_out = set.tuples.len();
        let src: Vec<u64> = (0..set.tuples.len() as u64).collect();
        let map = (0..old_len).map(Some).collect();
        let fresh = (old_len..set.tuples.len()).collect();
        Ok((RepairedUpstream { set, map, fresh }, src, stats))
    }

    /// The two `DeltaStep` probes a match or drop-out repair sends: the
    /// `kept` upstream tuples against only the rows inserted since the
    /// cached version, then the fresh upstream tuples against the whole
    /// table. Each reply is decoded as it arrives; an empty probe is not
    /// sent. Folds the probes' stats into the cached step's and records
    /// the version the probes observed.
    fn probe_deltas<T>(
        &self,
        r: &StepRepair,
        upstream: &RepairedUpstream,
        kept: &[usize],
        versions: &mut [StepVersion],
        decode: impl Fn(PartialSet) -> Result<T>,
    ) -> Result<(Option<T>, Option<T>, StepStats)> {
        let url = &r.plan.steps[r.idx].url;
        let mut stats = r.cached.stats;
        let mut observed: Option<u64> = None;
        let mut probe = |rows: &[usize], since: u64| -> Result<T> {
            let input = tag_with_cache_src(&upstream.set, rows);
            let (reply, chain, version) = invoke_delta_step(
                &self.net,
                &self.host,
                url,
                r.plan,
                r.idx,
                since,
                Some(&Arc::new(input.encode())),
            )?;
            if observed.is_none() && r.needs_delta {
                observed = Some(version);
            }
            stats = combine_delta_stats(stats, first_stats(&chain));
            decode(reply)
        };
        let delta = if r.needs_delta && !kept.is_empty() {
            Some(probe(kept, r.v_old)?)
        } else {
            None
        };
        let full = if !upstream.fresh.is_empty() {
            Some(probe(&upstream.fresh, 0)?)
        } else {
            None
        };
        if r.needs_delta {
            if let Some(v) = versions.first_mut() {
                v.version = observed.unwrap_or(r.v_reg);
            }
        }
        Ok((delta, full, stats))
    }

    /// Repairs one match step. Surviving cached outputs are remapped to
    /// their inputs' new positions; kept inputs are probed against only
    /// the delta rows (their new extensions splice onto the end of
    /// their match groups — within a group candidates come out in row
    /// order, and delta rows have the highest row ids); fresh inputs
    /// are probed against the whole table.
    fn repair_match(
        &self,
        r: &StepRepair,
        upstream: RepairedUpstream,
        versions: &mut [StepVersion],
    ) -> Result<(RepairedUpstream, Vec<u64>, StepStats)> {
        let cached = r.cached;
        let old_of_new = upstream.old_of_new();
        let kept: Vec<usize> = (0..old_of_new.len())
            .filter(|u| old_of_new[*u].is_some())
            .collect();
        let mut old_groups: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in cached.src.iter().enumerate() {
            old_groups.entry(*s).or_default().push(i);
        }
        let (delta_groups, full_groups, mut stats) =
            self.probe_deltas(r, &upstream, &kept, versions, |reply| {
                group_delta_reply(reply, &cached.set.columns)
            })?;
        let (delta_groups, full_groups) = (
            delta_groups.unwrap_or_default(),
            full_groups.unwrap_or_default(),
        );

        let mut tuples = Vec::new();
        let mut src: Vec<u64> = Vec::new();
        let mut map = vec![None; cached.set.tuples.len()];
        let mut fresh = Vec::new();
        for (u, s_old) in old_of_new.iter().enumerate() {
            match s_old {
                Some(s_old) => {
                    if let Some(group) = old_groups.get(&(*s_old as u64)) {
                        for &i in group {
                            map[i] = Some(tuples.len());
                            src.push(u as u64);
                            tuples.push(cached.set.tuples[i].clone());
                        }
                    }
                    if let Some(extra) = delta_groups.get(&(u as u64)) {
                        for t in extra {
                            fresh.push(tuples.len());
                            src.push(u as u64);
                            tuples.push(t.clone());
                        }
                    }
                }
                None => {
                    if let Some(group) = full_groups.get(&(u as u64)) {
                        for t in group {
                            fresh.push(tuples.len());
                            src.push(u as u64);
                            tuples.push(t.clone());
                        }
                    }
                }
            }
        }
        let set = PartialSet {
            columns: cached.set.columns.clone(),
            tuples,
        };
        stats.tuples_in = old_of_new.len();
        stats.tuples_out = set.tuples.len();
        Ok((RepairedUpstream { set, map, fresh }, src, stats))
    }

    /// Repairs one drop-out step. Drop-out is monotone — new rows can
    /// only drop more tuples — so cached survivors need re-probing
    /// against only the delta rows, tuples the cache already dropped
    /// stay dropped, and fresh upstream tuples are filtered against the
    /// whole table.
    fn repair_dropout(
        &self,
        r: &StepRepair,
        upstream: RepairedUpstream,
        versions: &mut [StepVersion],
    ) -> Result<(RepairedUpstream, Vec<u64>, StepStats)> {
        let cached = r.cached;
        let old_of_new = upstream.old_of_new();
        // A drop-out step passes each input through at most once.
        let mut old_out_of_src: HashMap<u64, usize> = HashMap::new();
        for (i, s) in cached.src.iter().enumerate() {
            old_out_of_src.insert(*s, i);
        }
        let candidates: Vec<usize> = (0..old_of_new.len())
            .filter(|u| old_of_new[*u].is_some_and(|s| old_out_of_src.contains_key(&(s as u64))))
            .collect();
        let (survivors_delta, survivors_full, mut stats) =
            self.probe_deltas(r, &upstream, &candidates, versions, |reply| {
                let (_, srcs) = strip_cache_src(reply)?;
                Ok(srcs.into_iter().collect::<HashSet<u64>>())
            })?;
        let survivors_full = survivors_full.unwrap_or_default();

        let mut tuples = Vec::new();
        let mut src: Vec<u64> = Vec::new();
        let mut map = vec![None; cached.set.tuples.len()];
        let mut fresh = Vec::new();
        for (u, s_old) in old_of_new.iter().enumerate() {
            match s_old {
                Some(s_old) => {
                    if let Some(&i) = old_out_of_src.get(&(*s_old as u64)) {
                        let survives = survivors_delta
                            .as_ref()
                            .is_none_or(|s| s.contains(&(u as u64)));
                        if survives {
                            map[i] = Some(tuples.len());
                            src.push(u as u64);
                            tuples.push(cached.set.tuples[i].clone());
                        }
                    }
                }
                None => {
                    if survivors_full.contains(&(u as u64)) {
                        fresh.push(tuples.len());
                        src.push(u as u64);
                        tuples.push(upstream.set.tuples[u].clone());
                    }
                }
            }
        }
        let set = PartialSet {
            columns: cached.set.columns.clone(),
            tuples,
        };
        stats.tuples_in = old_of_new.len();
        stats.tuples_out = set.tuples.len();
        Ok((RepairedUpstream { set, map, fresh }, src, stats))
    }

    /// Scatters one step (`idx`, the tail of `plan.steps`) to its owning
    /// shards in parallel and gathers the replies into one merged
    /// partial set plus the step's merged statistics. Each extent is
    /// served by one replica of its group: the first healthy candidate
    /// in deterministic `(extent, host)` order is probed, a reply slower
    /// than the configured hedge delay races a duplicate probe against
    /// the first untried sibling (first response wins; the loser is
    /// discarded before the gather, so no duplicate rows can merge), and
    /// an unhealthy verdict fails over through the remaining siblings
    /// before the step is allowed to fail. The third return records
    /// partial-result honesty: the lost shards, named `archive@host`,
    /// when a drop-out step lost whole extents but was answered from the
    /// rest (Checkpointed mode only).
    fn scatter_step(
        &self,
        plan: &ExecutionPlan,
        idx: usize,
        input: Option<&PartialSet>,
        mode: ChainMode,
        trace: &mut ExecutionTrace,
    ) -> Result<(PartialSet, StepStats, Option<Loss>)> {
        let step = &plan.steps[idx];
        // One entry per extent: the primary scatter target plus its
        // same-extent replicas (failover/hedge candidates).
        let mut targets: Vec<(Url, Vec<Url>)> = if step.shards.is_empty() {
            vec![(step.url.clone(), Vec::new())]
        } else {
            step.shards
                .iter()
                .map(|s| (s.url.clone(), s.replicas.clone()))
                .collect()
        };
        let multi = targets.len() > 1;
        let dropout = step.dropout;

        // Extent-prune the fan-out: a shard whose declination range
        // cannot intersect any of the input tuples' probe balls is
        // guaranteed to contribute nothing — no extensions on a match
        // step, no dropped tuples on a drop-out step — so skipping the
        // call is byte-identical. Seed steps (no input) always scatter
        // to every shard. At least one target is always kept so the
        // merge sees a well-formed (possibly empty) shard reply.
        let mut shards_pruned = 0usize;
        if multi {
            if let Some(input) = input {
                let span = probe_dec_span(input, plan.threshold, step.sigma_arcsec);
                let mut keep = Vec::with_capacity(targets.len());
                for shard in &step.shards {
                    keep.push(span.is_some_and(|(lo, hi)| {
                        shard.extent.dec_lo_deg <= hi && shard.extent.dec_hi_deg >= lo
                    }));
                }
                if keep.iter().all(|k| !k) {
                    keep[0] = true;
                }
                let mut it = keep.iter();
                targets.retain(|_| *it.next().expect("keep covers targets"));
                shards_pruned = keep.iter().filter(|k| !**k).count();
            }
        }

        // When scattered, a non-drop-out step additionally carries the
        // shard table's rank column so the gather can restore the
        // single-node output order; the input set is tagged with each
        // tuple's index for the same reason.
        let mut wire_plan = plan.clone();
        if multi && !dropout {
            wire_plan.steps[idx]
                .carried
                .push(shard::RANK_COL.to_string());
        }
        // Encoded once, shared by every shard probe (and any retry).
        let input_table = input.map(|set| {
            Arc::new(if multi {
                shard::tag_with_src(set).encode()
            } else {
                set.encode()
            })
        });

        let net = &self.net;
        let host = &self.host;
        let wire = &wire_plan;
        let tbl = input_table.as_ref();
        let hedge_delay = self.config().hedge_delay_s;

        // One probe attempt against one replica, with health
        // book-keeping and the simulated-time cost of the exchange
        // (what the hedge decision races against).
        let probe = |url: &Url| -> (Result<(PartialSet, StatsChain)>, f64) {
            let t0 = net.now_s();
            let r = invoke_scatter_step(net, host, url, wire, idx, tbl);
            let elapsed = net.now_s() - t0;
            self.note_health(&r);
            if r.is_ok() {
                self.note_healthy(&url.host);
            }
            (r, elapsed)
        };

        // Serves one extent from its replica group: healthy-first pick,
        // optional hedge, then failover through the untried siblings on
        // unhealthy verdicts. Replicas hold identical data, so whichever
        // one answers yields byte-identical rows. Non-unhealthy errors
        // (a malformed body surviving its retry budget, a planning
        // error) stay fatal: failing over past a poisoned reply would
        // mask corruption, not route around an outage.
        let serve_extent = |primary: &Url, replicas: &[Url]| -> ExtentOutcome {
            let mut candidates: Vec<&Url> = Vec::with_capacity(1 + replicas.len());
            candidates.push(primary);
            candidates.extend(replicas.iter());
            let pick = candidates
                .iter()
                .position(|u| !self.host_is_unhealthy(&u.host))
                .unwrap_or(0);
            let picked = candidates.remove(pick);
            candidates.insert(0, picked);

            let mut out = ExtentOutcome::default();
            let (mut r, elapsed) = probe(candidates[0]);
            let mut tried = 1;
            if hedge_delay > 0.0 && elapsed >= hedge_delay && candidates.len() > 1 {
                // The picked replica was slower than the hedge delay:
                // model a duplicate probe issued at `hedge_delay` racing
                // the (already-measured) straggler; first response wins
                // and the loser is dropped here, before the gather.
                out.hedges += 1;
                net.record_node_event(host, "hedge");
                let sibling = candidates[1];
                tried = 2;
                let (r2, sibling_elapsed) = probe(sibling);
                let sibling_wins = match (&r, &r2) {
                    (Err(_), Ok(_)) => true,
                    (Ok(_), Ok(_)) => hedge_delay + sibling_elapsed < elapsed,
                    _ => false,
                };
                if sibling_wins {
                    r = r2;
                    out.hedge_wins += 1;
                }
            }
            while matches!(r, Err(FederationError::NodeUnhealthy { .. }))
                && tried < candidates.len()
            {
                let next = candidates[tried];
                tried += 1;
                out.failovers += 1;
                net.record_node_event(host, "failover");
                r = probe(next).0;
            }
            out.result = Some(r);
            out
        };
        let serve_extent = &serve_extent;

        let outcomes: Vec<ExtentOutcome> = if multi {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .iter()
                    .map(|(primary, replicas)| {
                        scope.spawn(move |_| serve_extent(primary, replicas))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect()
            })
            .expect("scope does not panic")
        } else {
            targets
                .iter()
                .map(|(primary, replicas)| serve_extent(primary, replicas))
                .collect()
        };

        let mut parts: Vec<(PartialSet, StepStats)> = Vec::new();
        let mut errs: Vec<(String, FederationError)> = Vec::new();
        let (mut failovers, mut hedges, mut hedge_wins) = (0usize, 0usize, 0usize);
        for ((primary, _), o) in targets.iter().zip(outcomes) {
            failovers += o.failovers;
            hedges += o.hedges;
            hedge_wins += o.hedge_wins;
            match o.result.expect("every extent produced an outcome") {
                Ok((set, chain)) => {
                    let st = chain
                        .entries
                        .into_iter()
                        .next()
                        .map(|(_, s)| s)
                        .unwrap_or_default();
                    parts.push((set, st));
                }
                // A failed extent is named by its primary host — the
                // stable group identity — not whichever replica happened
                // to answer last.
                Err(e) => errs.push((primary.host.clone(), e)),
            }
        }

        if !errs.is_empty() {
            let all_unhealthy = errs
                .iter()
                .all(|(_, e)| matches!(e, FederationError::NodeUnhealthy { .. }));
            // A drop-out step may degrade to the shards that answered:
            // intersecting over fewer shards only weakens the filter,
            // which is a completeness loss, not a correctness one.
            let degradable =
                mode == ChainMode::Checkpointed && dropout && multi && !parts.is_empty();
            if !(all_unhealthy && degradable) {
                // Prefer surfacing a fatal error so the driver aborts
                // rather than deferring a step that can never succeed.
                let fatal = errs
                    .iter()
                    .position(|(_, e)| !matches!(e, FederationError::NodeUnhealthy { .. }))
                    .unwrap_or(0);
                return Err(errs.swap_remove(fatal).1);
            }
            let lost: Vec<&str> = errs.iter().map(|(h, _)| h.as_str()).collect();
            let loss = Loss {
                detail: format!(
                    "drop-out {}: shard(s) {} unreachable; intersecting over {} answering \
                     shard(s)",
                    step.alias,
                    lost.join(", "),
                    parts.len()
                ),
                dropped: lost
                    .iter()
                    .map(|h| format!("{}@{}", step.archive, h))
                    .collect(),
            };
            let (set, mut st) = shard::merge_dropout(&parts)?;
            st.shards_pruned += shards_pruned;
            st.failovers += failovers;
            st.hedges += hedges;
            st.hedge_wins += hedge_wins;
            return Ok((set, st, Some(loss)));
        }

        let (set, mut st) = if !multi {
            parts.into_iter().next().expect("one target answered")
        } else if input.is_none() {
            shard::merge_seed(&parts, &step.alias)?
        } else if dropout {
            shard::merge_dropout(&parts)?
        } else {
            shard::merge_match(&parts, &step.alias)?
        };
        st.shards_pruned += shards_pruned;
        st.failovers += failovers;
        st.hedges += hedges;
        st.hedge_wins += hedge_wins;
        if multi {
            let pruned_note = if shards_pruned > 0 {
                format!(" ({shards_pruned} shard(s) extent-pruned)")
            } else {
                String::new()
            };
            trace.push(
                "Portal",
                "scatter",
                format!(
                    "{}: {} shards -> {} rows merged{}",
                    step.alias,
                    targets.len(),
                    set.len(),
                    pruned_note
                ),
            );
        }
        Ok((set, st, None))
    }

    /// Runs the count-star performance queries, in parallel when
    /// configured (the paper passes them "as asynchronous SOAP messages").
    fn run_performance_queries(
        &self,
        dq: &DecomposedQuery,
        trace: &mut ExecutionTrace,
    ) -> Result<HashMap<String, u64>> {
        let config = self.config();
        let mut out = HashMap::new();
        // One job per (alias, extent): each shard counts its own zone
        // range and the Portal sums the estimates per alias, so a
        // sharded archive orders the plan exactly as its single-node
        // equivalent would. Replicas of an extent hold identical data —
        // each extent is counted once (`shards_of` sorts by extent then
        // host, so a same-extent run is one replica group), or the sum
        // would scale with the replication factor.
        let mut jobs: Vec<(String, String, Vec<Url>)> = Vec::new();
        for pq in &dq.performance_queries {
            let group = self.shards_of(&pq.archive);
            if group.is_empty() {
                return Err(FederationError::planning(format!(
                    "archive {} is not registered with the Portal",
                    pq.archive
                )));
            }
            let mut prev: Option<ZoneExtent> = None;
            for n in group {
                let e = n.extent();
                let dup = prev
                    .is_some_and(|p| p.dec_lo_deg == e.dec_lo_deg && p.dec_hi_deg == e.dec_hi_deg);
                prev = Some(e);
                if dup {
                    let (_, _, siblings) = jobs.last_mut().expect("a replica follows its primary");
                    siblings.push(n.url);
                } else {
                    jobs.push((pq.alias.clone(), pq.to_sql(), vec![n.url]));
                }
            }
        }

        // Counts one extent: healthy-first pick, then failover through
        // the untried siblings on unhealthy verdicts — the scatter's
        // replica selection (§13), so a dead primary cannot fail the
        // query at planning time. Non-unhealthy errors stay fatal.
        let run_one = |alias: &str, sql: &str, candidates: &[Url]| -> Result<(String, u64)> {
            let mut order: Vec<&Url> = candidates.iter().collect();
            let pick = order
                .iter()
                .position(|u| !self.host_is_unhealthy(&u.host))
                .unwrap_or(0);
            let picked = order.remove(pick);
            order.insert(0, picked);
            let mut unhealthy = None;
            for (tried, url) in order.iter().enumerate() {
                if tried > 0 {
                    self.net.record_node_event(&self.host, "failover");
                }
                let r = self.call(
                    url,
                    &RpcCall::new("Query").param("sql", SoapValue::Str(sql.to_string())),
                );
                match r {
                    Ok(resp) => {
                        let count = resp
                            .require("count")?
                            .as_i64()
                            .ok_or_else(|| FederationError::protocol("count must be an integer"))?;
                        return Ok((alias.to_string(), count as u64));
                    }
                    Err(e @ FederationError::NodeUnhealthy { .. }) => unhealthy = Some(e),
                    Err(e) => return Err(e),
                }
            }
            Err(unhealthy.expect("every group has at least one candidate"))
        };

        if config.parallel_performance_queries && jobs.len() > 1 {
            let results: Vec<Result<(String, u64)>> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = jobs
                    .iter()
                    .map(|(alias, sql, url)| scope.spawn(move |_| run_one(alias, sql, url)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("no panics"))
                    .collect()
            })
            .expect("scope does not panic");
            for r in results {
                let (alias, count) = r?;
                *out.entry(alias).or_insert(0) += count;
            }
        } else {
            for (alias, sql, url) in &jobs {
                let (a, c) = run_one(alias, sql, url)?;
                trace.push("Portal", "performance query", format!("{sql} -> {c} [{a}]"));
                *out.entry(a).or_insert(0) += c;
            }
        }
        if config.parallel_performance_queries && !jobs.is_empty() {
            let mut summary: Vec<String> = out
                .iter()
                .map(|(alias, c)| format!("{alias}={c}"))
                .collect();
            summary.sort();
            trace.push(
                "Portal",
                "performance queries",
                format!("count star results: {}", summary.join(", ")),
            );
        }
        Ok(out)
    }

    /// Builds the federated execution plan: drop-outs at the head, then
    /// mandatory archives ordered by the configured strategy.
    fn build_plan(
        &self,
        dq: &DecomposedQuery,
        counts: &HashMap<String, u64>,
    ) -> Result<ExecutionPlan> {
        let config = self.config();
        let mut mandatory: Vec<&str> = dq.xmatch.mandatory();
        match config.ordering {
            OrderingStrategy::CountStarDescending => {
                mandatory.sort_by_key(|a| {
                    std::cmp::Reverse(counts.get(*a).copied().unwrap_or(u64::MAX))
                });
            }
            OrderingStrategy::CountStarAscending => {
                mandatory.sort_by_key(|a| counts.get(*a).copied().unwrap_or(0));
            }
            OrderingStrategy::DeclarationOrder => {}
            OrderingStrategy::Random(seed) => {
                // xorshift64* — deterministic shuffle without a rand dep.
                let mut state = seed | 1;
                let mut next = || {
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    state.wrapping_mul(0x2545F4914F6CDD1D)
                };
                for i in (1..mandatory.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    mandatory.swap(i, j);
                }
            }
        }

        let ordered_aliases: Vec<&str> =
            dq.xmatch.dropouts().into_iter().chain(mandatory).collect();

        let mut steps = Vec::with_capacity(ordered_aliases.len());
        for alias in &ordered_aliases {
            let slice = dq
                .archive(alias)
                .expect("decomposition covers every XMATCH alias");
            let node = self.node(&slice.table.archive).ok_or_else(|| {
                FederationError::planning(format!(
                    "archive {} is not registered with the Portal",
                    slice.table.archive
                ))
            })?;
            // The queried table must exist and carry a position index.
            let schema = node.table_schema(&slice.table.table).ok_or_else(|| {
                FederationError::planning(format!(
                    "archive {} has no table {}",
                    slice.table.archive, slice.table.table
                ))
            })?;
            if schema.position.is_none() {
                return Err(FederationError::planning(format!(
                    "table {}:{} has no position columns; cross match needs the primary table",
                    slice.table.archive, slice.table.table
                )));
            }
            // A shard group of more than one node makes this step a
            // scatter-gather step: the plan lists one entry per distinct
            // zone range — the primary (lowest host) as the scatter
            // target, its same-extent siblings as failover/hedge
            // replicas. `shards_of` orders by (extent, host), so
            // same-extent nodes are adjacent with the primary first.
            let group = self.shards_of(&slice.table.archive);
            let mut extent_groups: Vec<Vec<&RegisteredNode>> = Vec::new();
            for n in &group {
                match extent_groups.last_mut() {
                    Some(eg)
                        if eg[0].extent().dec_lo_deg == n.extent().dec_lo_deg
                            && eg[0].extent().dec_hi_deg == n.extent().dec_hi_deg =>
                    {
                        eg.push(n)
                    }
                    _ => extent_groups.push(vec![n]),
                }
            }
            let replicated = extent_groups.iter().any(|eg| eg.len() > 1);
            // Any replication routes the step through the scatter
            // executor even for a single extent (the daisy chain has no
            // failover); a single unreplicated node keeps the legacy
            // un-scattered wire shape.
            let shards = if extent_groups.len() > 1 || replicated {
                extent_groups
                    .iter()
                    .map(|eg| PlanShard {
                        url: eg[0].url.clone(),
                        extent: eg[0].extent(),
                        replicas: eg[1..].iter().map(|n| n.url.clone()).collect(),
                    })
                    .collect()
            } else {
                Vec::new()
            };
            steps.push(PlanStep {
                alias: slice.table.alias.clone(),
                archive: node.info.name.clone(),
                table: slice.table.table.clone(),
                url: node.url.clone(),
                dropout: slice.dropout,
                sigma_arcsec: node.info.sigma_arcsec,
                local_sql: slice.predicate().map(|e| e.to_string()),
                carried: slice.carried_columns.clone(),
                residual_sql: Vec::new(),
                count_estimate: counts.get(slice.table.alias.as_str()).copied(),
                shards,
            });
        }

        // Residual placement: a residual runs at the earliest processing
        // position (processing order is reversed list order) where every
        // referenced alias has joined the tuple.
        let n = steps.len();
        let alias_order: Vec<String> = steps.iter().map(|s| s.alias.clone()).collect();
        let processing_pos = |alias: &str| -> Option<usize> {
            alias_order
                .iter()
                .position(|a| a == alias)
                .map(|i| n - 1 - i)
        };
        for residual in &dq.residuals {
            let needed = residual_position(residual, &processing_pos)?;
            let step_index = n - 1 - needed;
            steps[step_index].residual_sql.push(residual.to_string());
        }

        let region = match &dq.region {
            Some(spec) => Some(Region::from_spec(spec)?),
            None => None,
        };
        Ok(ExecutionPlan {
            threshold: dq.xmatch.threshold,
            region,
            steps,
            select: dq
                .query
                .select
                .iter()
                .map(|item| match item {
                    skyquery_sql::SelectItem::Expr { expr, alias } => {
                        (expr.to_string(), alias.clone())
                    }
                    skyquery_sql::SelectItem::CountStar
                    | skyquery_sql::SelectItem::Aggregate { .. } => {
                        unreachable!("decompose rejects aggregates")
                    }
                })
                .collect(),
            order_by: dq
                .query
                .order_by
                .iter()
                .map(|k| {
                    (
                        k.expr.to_string(),
                        k.direction == skyquery_sql::ast::SortDirection::Desc,
                    )
                })
                .collect(),
            limit: dq.query.limit,
            max_message_bytes: config.max_message_bytes,
            chunking: config.chunking,
            xmatch_workers: config.xmatch_workers.max(1),
            zone_height_deg: config.zone_height_deg,
            zone_chunking: config.zone_chunking,
            kernel: config.kernel,
            retry: config.retry,
            lease_ttl_s: config.lease_ttl_s,
        })
    }
}

/// Where a [`StepWalk`]'s committed prefix lives between steps.
enum Committed {
    /// A leased checkpoint on the node that executed the last step:
    /// unsharded plans under [`ChainMode::Checkpointed`], one
    /// `ExecuteStep` call per step. Only the checkpoint id, row count
    /// and statistics travel back to the Portal.
    Checkpoint(Option<(Url, u64)>),
    /// The merged partial set, held in Portal memory: sharded plans and
    /// the caching walk, one `ScatterStep` fan-out per step. The nodes
    /// retain no per-query state between steps.
    Memory(Option<PartialSet>),
}

/// What a caching walk records for the result cache: the authoritative
/// table versions fetched before its first step, and each committed
/// step's partial set with its per-tuple provenance, in execution order.
struct CacheRecord {
    before: Vec<Vec<StepVersion>>,
    steps: Vec<CachedStep>,
}

/// What a degraded step lost: the trace detail and the dropped units
/// (see [`Degradation::dropped`]).
struct Loss {
    detail: String,
    dropped: Vec<String>,
}

/// The Portal-driven chain: one plan walked step by step from the seed
/// to the head, each step's input being the committed output of the
/// step before it — a leased checkpoint on the executing node for an
/// unsharded plan under [`ChainMode::Checkpointed`], otherwise the
/// merged set held in Portal memory.
///
/// `Portal::submit` drives a walk to completion in a tight loop; the job
/// service interleaves many walks — one [`StepWalk::step`] per scheduler
/// quantum — so a long chain from one tenant cannot monopolize the
/// Portal, and a cancellation between quanta can
/// [release](StepWalk::release) a retained checkpoint immediately
/// instead of leaking it until its lease lapses.
///
/// The recovery policy is the chain mode the walk was built under.
/// [`ChainMode::Recursive`] fails fast, like the daisy chain. Under
/// [`ChainMode::Checkpointed`] a mid-chain `NodeUnhealthy` failure
/// re-plans: an unreachable drop-out archive is skipped (`degraded`), a
/// drop-out step that lost only some shards is answered from the rest
/// (`degraded`), and a failing mandatory step is deferred behind the
/// other mandatory steps (`replan`) — in every case execution resumes
/// from the committed prefix without re-running any committed step.
pub struct StepWalk {
    plan: ExecutionPlan,
    policy: ChainMode,
    /// Steps not yet executed, in plan-list order (drop-outs at the
    /// head); execution walks from the tail (the seed) toward the head.
    remaining: Vec<PlanStep>,
    executed: Vec<String>,
    deferrals: HashMap<String, u64>,
    committed: Committed,
    /// Set on a caching walk only.
    cache: Option<CacheRecord>,
    stats: StatsChain,
    degradation: Degradation,
    recovering: bool,
}

impl StepWalk {
    fn new(
        plan: &ExecutionPlan,
        policy: ChainMode,
        committed: Committed,
        cache: Option<CacheRecord>,
    ) -> StepWalk {
        StepWalk {
            plan: plan.clone(),
            policy,
            remaining: plan.steps.clone(),
            executed: Vec::new(),
            deferrals: HashMap::new(),
            committed,
            cache,
            stats: StatsChain::new(),
            degradation: Degradation::default(),
            recovering: false,
        }
    }

    /// Whether every step has executed (or been skipped as degraded).
    pub fn is_done(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Executes (or re-plans around) the next step of the chain. A
    /// returned error is fatal for the walk: the caller should
    /// [release](StepWalk::release) the committed prefix and abandon the
    /// query.
    pub fn step(&mut self, portal: &Portal, trace: &mut ExecutionTrace) -> Result<()> {
        let Some(idx) = self.remaining.len().checked_sub(1) else {
            return Ok(());
        };
        let step = self.remaining[idx].clone();
        let mut sub_plan = self.plan.clone();
        sub_plan.steps = self.remaining.clone();
        let (stats, loss, rows) = match self.advance(portal, &sub_plan, idx, trace) {
            Ok(committed) => committed,
            Err(e) => return self.recover(portal, &step, e, trace),
        };
        self.stats.entries.extend(stats.entries);
        match loss {
            Some(loss) => self.degrade(portal, loss, trace),
            None if self.recovering => {
                self.recovering = false;
                trace.push(
                    "Portal",
                    "resume",
                    format!("chain resumed at {} ({rows})", step.alias),
                );
                portal.net.record_node_event(&portal.host, "resume");
            }
            None => {}
        }
        self.executed.push(step.alias);
        self.remaining.pop();
        Ok(())
    }

    /// Runs step `idx` of `plan` (the remaining steps) on top of the
    /// committed prefix and commits its output in the prefix's place.
    /// Returns the step's statistics, what it lost, and a row note for
    /// the resume event.
    fn advance(
        &mut self,
        portal: &Portal,
        plan: &ExecutionPlan,
        idx: usize,
        trace: &mut ExecutionTrace,
    ) -> Result<(StatsChain, Option<Loss>, String)> {
        let step = &plan.steps[idx];
        match &mut self.committed {
            Committed::Checkpoint(prefix) => {
                let mut call = RpcCall::new("ExecuteStep")
                    .param("plan", SoapValue::Xml(plan.to_element()))
                    .param("step", SoapValue::Int(idx as i64));
                if let Some((cp_url, cp_id)) = prefix.as_ref() {
                    call = call
                        .param("checkpoint_url", SoapValue::Str(cp_url.to_string()))
                        .param("checkpoint_id", SoapValue::Int(*cp_id as i64));
                }
                let resp =
                    match send_rpc_with(&portal.net, &portal.host, &step.url, &call, plan.retry) {
                        Ok(resp) => resp,
                        Err(e) => {
                            if matches!(e, FederationError::NodeUnhealthy { .. }) {
                                portal.note_failure(&e);
                                renew_checkpoint(portal, prefix.as_ref(), trace);
                            }
                            return Err(e);
                        }
                    };
                let cp_id = resp
                    .require("checkpoint")?
                    .as_i64()
                    .filter(|v| *v >= 0)
                    .ok_or_else(|| {
                        FederationError::protocol("checkpoint must be a non-negative integer")
                    })? as u64;
                let rows = resp.require("rows")?.as_i64().unwrap_or(-1);
                let chain = StatsChain::from_element(
                    resp.require("stats")?
                        .as_xml()
                        .ok_or_else(|| FederationError::protocol("stats must be xml"))?,
                )?;
                // The new checkpoint supersedes the previous one: release
                // it best-effort (if the holder is unreachable, its
                // janitor reclaims the lease) — but a failed release is
                // tallied, never swallowed: the checkpoint pins node
                // memory until its TTL.
                if let Some((prev_url, prev_id)) = prefix.replace((step.url.clone(), cp_id)) {
                    if release_checkpoint(
                        &portal.net,
                        &portal.host,
                        &prev_url,
                        prev_id,
                        RetryPolicy::none(),
                    )
                    .is_err()
                    {
                        note_release_failure(portal, &prev_url.host, prev_id, Some(trace));
                    }
                }
                portal.note_healthy(&step.url.host);
                Ok((chain, None, format!("checkpoint {cp_id}, {rows} rows")))
            }
            Committed::Memory(prefix) => {
                // A caching walk tags each input tuple with its index
                // and strips the tag from the output: the provenance a
                // later incremental repair keys on.
                let tagged = match (&self.cache, prefix.as_ref()) {
                    (Some(_), Some(set)) => {
                        let all: Vec<usize> = (0..set.tuples.len()).collect();
                        Some(tag_with_cache_src(set, &all))
                    }
                    _ => None,
                };
                let input = tagged.as_ref().or(prefix.as_ref());
                let (set, st, loss) = portal.scatter_step(plan, idx, input, self.policy, trace)?;
                let set = match self.cache.as_mut() {
                    Some(record) => {
                        let (clean, src) = if tagged.is_some() {
                            strip_cache_src(set)?
                        } else {
                            let src = (0..set.len() as u64).collect();
                            (set, src)
                        };
                        record.steps.push(CachedStep {
                            alias: step.alias.clone(),
                            set: clean.clone(),
                            src,
                            stats: st,
                        });
                        clean
                    }
                    None => set,
                };
                let rows = format!("{} rows", set.len());
                *prefix = Some(set);
                let mut chain = StatsChain::new();
                chain.push(step.alias.clone(), st);
                Ok((chain, loss, rows))
            }
        }
    }

    /// The recovery half of the state machine: decides whether the
    /// failure of `step` is survivable under the walk's policy and, if
    /// so, re-plans the remaining steps around it.
    fn recover(
        &mut self,
        portal: &Portal,
        step: &PlanStep,
        e: FederationError,
        trace: &mut ExecutionTrace,
    ) -> Result<()> {
        if self.policy == ChainMode::Recursive
            || !matches!(e, FederationError::NodeUnhealthy { .. })
        {
            return Err(e);
        }
        if step.dropout {
            // A drop-out archive is optional: continue without it and
            // flag the result as degraded — unless the plan routed
            // residuals or carried columns through it, where skipping
            // would change the query's meaning rather than its
            // completeness.
            if !step.residual_sql.is_empty() || !step.carried.is_empty() {
                return Err(e);
            }
            self.remaining.pop();
            let loss = Loss {
                detail: format!(
                    "optional archive {} unreachable; continuing without its drop-out filter",
                    step.alias
                ),
                dropped: vec![step.archive.clone()],
            };
            self.degrade(portal, loss, trace);
            return Ok(());
        }
        // A failing mandatory step is deferred to the earliest mandatory
        // slot (it will execute last); the node may recover meanwhile.
        let first_mandatory = self
            .remaining
            .iter()
            .position(|s| !s.dropout)
            .expect("the failing step itself is mandatory");
        let tries = self.deferrals.entry(step.alias.clone()).or_insert(0);
        if *tries >= MAX_STEP_DEFERRALS || self.remaining.len() - first_mandatory < 2 {
            return Err(e);
        }
        *tries += 1;
        let failed = self.remaining.pop().expect("the failing step is remaining");
        self.remaining.insert(first_mandatory, failed);
        replace_residuals(&mut self.remaining, &self.executed)?;
        trace.push(
            "Portal",
            "replan",
            format!(
                "deferred {} after failure; new order: {}",
                step.alias,
                self.remaining
                    .iter()
                    .rev()
                    .map(|s| s.alias.as_str())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ),
        );
        portal.net.record_node_event(&portal.host, "replan");
        self.recovering = true;
        Ok(())
    }

    /// Records partial-result honesty for a lost archive or shards; the
    /// next undegraded commit is the resume point.
    fn degrade(&mut self, portal: &Portal, loss: Loss, trace: &mut ExecutionTrace) {
        trace.push("Portal", "degraded", loss.detail);
        portal.net.record_node_event(&portal.host, "degraded");
        self.degradation.absorb(Degradation {
            degraded: true,
            dropped: loss.dropped,
        });
        self.recovering = true;
    }

    /// Collects the committed prefix — the matched partial set — plus the
    /// walk's statistics and what it dropped. A node checkpoint is
    /// fetched and released (best-effort, even when collection fails: a
    /// dead walk must not pin node resources until a janitor sweep); a
    /// caching walk caches what it recorded.
    pub fn finish(
        mut self,
        portal: &Portal,
        trace: &mut ExecutionTrace,
    ) -> Result<(PartialSet, StatsChain, Degradation)> {
        let no_steps = || FederationError::planning("step walk committed no steps");
        let set = match &mut self.committed {
            Committed::Checkpoint(prefix) => {
                let (url, id) = prefix.take().ok_or_else(no_steps)?;
                let collected = open_checkpoint(&portal.net, &portal.host, &url, &self.plan, id)
                    .and_then(|incoming| match incoming {
                        IncomingPartial::Inline(set) => Ok(set),
                        IncomingPartial::Chunked(stream) => stream.collect_set(),
                    });
                if release_checkpoint(&portal.net, &portal.host, &url, id, RetryPolicy::none())
                    .is_err()
                {
                    note_release_failure(portal, &url.host, id, None);
                }
                collected?
            }
            Committed::Memory(prefix) => prefix.take().ok_or_else(no_steps)?,
        };
        if let Some(record) = self.cache.take() {
            portal.populate_cache(&self.plan, record, trace)?;
        }
        Ok((set, self.stats, self.degradation))
    }

    /// Drives the walk to completion; a failed walk releases its
    /// committed prefix before the error returns.
    fn run(
        mut self,
        portal: &Portal,
        trace: &mut ExecutionTrace,
    ) -> Result<(PartialSet, StatsChain, Degradation)> {
        while !self.is_done() {
            if let Err(e) = self.step(portal, trace) {
                // The committed prefix will never be resumed: free it now
                // instead of waiting for the holder's janitor.
                self.release(portal);
                return Err(e);
            }
        }
        self.finish(portal, trace)
    }

    /// Best-effort release of a retained checkpoint — the cleanup path
    /// for a failed or cancelled walk. Idempotent, and a no-op for a
    /// prefix held in Portal memory; if the holder is unreachable, its
    /// janitor reclaims the lease at TTL instead, but the failed call is
    /// still tallied in the network metrics.
    pub fn release(&mut self, portal: &Portal) {
        if let Committed::Checkpoint(prefix) = &mut self.committed {
            if let Some((url, id)) = prefix.take() {
                if release_checkpoint(&portal.net, &portal.host, &url, id, RetryPolicy::none())
                    .is_err()
                {
                    note_release_failure(portal, &url.host, id, None);
                }
            }
        }
    }
}

/// Keeps a checkpointed prefix alive while the walk re-plans. A renewal
/// that cannot be delivered is tallied: the checkpoint keeps its old
/// deadline and may lapse before the re-planned chain returns to it.
fn renew_checkpoint(portal: &Portal, prefix: Option<&(Url, u64)>, trace: &mut ExecutionTrace) {
    let Some((cp_url, cp_id)) = prefix else {
        return;
    };
    if renew_lease(
        &portal.net,
        &portal.host,
        cp_url,
        "checkpoint",
        *cp_id,
        RetryPolicy::none(),
    )
    .is_err()
    {
        portal.net.record_renew_failure();
        portal.net.record_node_event(&portal.host, "renew-failed");
        trace.push(
            "Portal",
            "renew failed",
            format!(
                "checkpoint {cp_id} lease on {} not renewed; it may lapse before the \
                 re-planned chain resumes",
                cp_url.host
            ),
        );
    }
}

/// Tallies one failed best-effort checkpoint release: bumps the
/// `release_failures` network metric, records a node event, and — when a
/// trace is in scope — an execution-trace entry. The checkpoint itself
/// is not leaked (the holder's janitor reclaims it at TTL); what must
/// not vanish is the evidence that cleanup RPCs are failing.
fn note_release_failure(
    portal: &Portal,
    holder: &str,
    id: u64,
    trace: Option<&mut ExecutionTrace>,
) {
    portal.net.record_release_failure();
    portal.net.record_node_event(&portal.host, "release-failed");
    if let Some(trace) = trace {
        trace.push(
            "Portal",
            "release failed",
            format!("checkpoint {id} on {holder} not released; its janitor reclaims it at TTL"),
        );
    }
}

/// Portal-private provenance column tagged onto each step's input during
/// a caching walk or repair probe. Node-side match and drop-out carry
/// input columns through untouched (the same property the shard executor
/// relies on for its `__src` tag), so the value survives the round trip
/// and tells the Portal which upstream tuple each output row extends.
/// Stripped before anything is cached or returned.
const CACHE_SRC_COL: &str = "__csrc";

/// Projects the tuples at `indices` out of `set` and appends a
/// [`CACHE_SRC_COL`] column holding each tuple's index in the *full*
/// upstream set — the provenance the repair merge keys on.
fn tag_with_cache_src(set: &PartialSet, indices: &[usize]) -> PartialSet {
    let mut columns = set.columns.clone();
    columns.push(ResultColumn::new(CACHE_SRC_COL, DataType::Id));
    let tuples = indices
        .iter()
        .map(|&i| {
            let t = &set.tuples[i];
            let mut values = t.values.clone();
            values.push(Value::Id(i as u64));
            PartialTuple {
                state: t.state,
                values,
            }
        })
        .collect();
    PartialSet { columns, tuples }
}

/// Removes the [`CACHE_SRC_COL`] column from a node reply, returning
/// the clean set plus each tuple's upstream provenance index.
fn strip_cache_src(mut set: PartialSet) -> Result<(PartialSet, Vec<u64>)> {
    let pos = set
        .columns
        .iter()
        .position(|c| c.name == CACHE_SRC_COL)
        .ok_or_else(|| FederationError::protocol("delta reply lost the cache provenance column"))?;
    set.columns.remove(pos);
    let mut srcs = Vec::with_capacity(set.tuples.len());
    for t in &mut set.tuples {
        match t.values.remove(pos) {
            Value::Id(s) => srcs.push(s),
            other => {
                return Err(FederationError::protocol(format!(
                    "cache provenance column held {other:?}, expected an id"
                )))
            }
        }
    }
    Ok((set, srcs))
}

/// Strips the provenance column from a delta-probe reply, checks the
/// remaining schema still matches the cached set, and groups the reply
/// tuples by upstream index (reply order preserved within each group).
fn group_delta_reply(
    reply: PartialSet,
    expect_columns: &[ResultColumn],
) -> Result<HashMap<u64, Vec<PartialTuple>>> {
    let (clean, srcs) = strip_cache_src(reply)?;
    if clean.columns.as_slice() != expect_columns {
        return Err(FederationError::protocol(
            "delta reply schema diverged from the cached set",
        ));
    }
    let mut groups: HashMap<u64, Vec<PartialTuple>> = HashMap::new();
    for (t, s) in clean.tuples.into_iter().zip(srcs) {
        groups.entry(s).or_default().push(t);
    }
    Ok(groups)
}

/// The stats of the one step a delta probe executed.
fn first_stats(chain: &StatsChain) -> StepStats {
    chain.entries.first().map(|(_, s)| *s).unwrap_or_default()
}

/// Folds a delta probe's stats into a cached step's: kernel-internal
/// counters accumulate (the repaired totals reflect the cached work
/// plus the delta work — an approximation documented in DESIGN.md),
/// while `tuples_in` / `tuples_out` are overwritten by the caller with
/// exact values for the repaired set.
fn combine_delta_stats(mut base: StepStats, delta: StepStats) -> StepStats {
    base.candidates_probed += delta.candidates_probed;
    base.candidates_examined += delta.candidates_examined;
    base.chi2_accepted += delta.chi2_accepted;
    base.scratch_reuse += delta.scratch_reuse;
    base.tile_builds += delta.tile_builds;
    base.tile_decodes += delta.tile_decodes;
    base.tile_hits += delta.tile_hits;
    base
}

/// Writes a cache-counter snapshot into the first entry of a stats
/// chain so the per-step trace lines and the `StatsChain` wire format
/// carry cache effectiveness alongside the kernel counters.
fn stamp_cache_counters(stats: &mut StatsChain, c: CacheCounters) {
    if let Some((_, s)) = stats.entries.first_mut() {
        s.cache_hits = c.hits as usize;
        s.cache_misses = c.misses as usize;
        s.cache_repairs = c.repairs as usize;
        s.cache_evictions = c.evictions as usize;
    }
}

/// Per-step repair state flowing down the chain in execution order: the
/// repaired upstream output, where each old cached upstream row moved
/// (`map[old] = Some(new)`, `None` if it was dropped), and which rows
/// are new since the entry was populated.
struct RepairedUpstream {
    set: PartialSet,
    map: Vec<Option<usize>>,
    fresh: Vec<usize>,
}

impl RepairedUpstream {
    /// The inverse of `map`: for each repaired row, the old cached row
    /// it was (`None` for a fresh row).
    fn old_of_new(&self) -> Vec<Option<usize>> {
        let mut old_of_new = vec![None; self.set.tuples.len()];
        for (old, new) in self.map.iter().enumerate() {
            if let Some(new) = new {
                old_of_new[*new] = Some(old);
            }
        }
        old_of_new
    }
}

/// One step's repair inputs: the cached step, the version it was cached
/// at (`v_old`), the registry's current version (`v_reg`), and whether
/// rows were inserted in between.
struct StepRepair<'a> {
    plan: &'a ExecutionPlan,
    idx: usize,
    cached: &'a CachedStep,
    v_old: u64,
    v_reg: u64,
    needs_delta: bool,
}

// Crate-internal accessors for the baseline strategies (baseline.rs).
impl Portal {
    pub(crate) fn run_performance_queries_for_baseline(
        &self,
        dq: &DecomposedQuery,
        trace: &mut ExecutionTrace,
    ) -> Result<HashMap<String, u64>> {
        self.run_performance_queries(dq, trace)
    }

    pub(crate) fn build_plan_for_baseline(
        &self,
        dq: &DecomposedQuery,
        counts: &HashMap<String, u64>,
    ) -> Result<ExecutionPlan> {
        self.build_plan(dq, counts)
    }

    pub(crate) fn net_clone(&self) -> SimNetwork {
        self.net.clone()
    }
}

/// Final projection, shared with the pull-to-portal baseline.
pub(crate) fn project_for_baseline(plan: &ExecutionPlan, set: PartialSet) -> Result<ResultSet> {
    project(plan, set)
}

/// Re-attaches residual clauses after a re-plan: each residual moves to
/// the earliest remaining processing position where every alias it
/// references is bound — either carried in the checkpointed tuples
/// (already executed) or joined by a remaining step.
fn replace_residuals(remaining: &mut [PlanStep], executed: &[String]) -> Result<()> {
    let pool: Vec<String> = remaining
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.residual_sql))
        .collect();
    let n = remaining.len();
    let alias_order: Vec<String> = remaining.iter().map(|s| s.alias.clone()).collect();
    for sql in pool {
        let expr = skyquery_sql::parse_expr(&sql).map_err(FederationError::Sql)?;
        let mut max_pos = 0usize;
        for a in expr.referenced_aliases() {
            if executed.iter().any(|e| e == a) {
                continue; // already bound in the checkpointed tuples
            }
            let i = alias_order.iter().position(|x| x == a).ok_or_else(|| {
                FederationError::planning(format!("residual references unknown alias {a}"))
            })?;
            max_pos = max_pos.max(n - 1 - i);
        }
        remaining[n - 1 - max_pos].residual_sql.push(sql);
    }
    Ok(())
}

/// Processing position at which a residual becomes evaluable.
fn residual_position(
    residual: &Expr,
    processing_pos: &impl Fn(&str) -> Option<usize>,
) -> Result<usize> {
    let aliases = residual.referenced_aliases();
    let mut max_pos = 0;
    for a in aliases {
        let p = processing_pos(a).ok_or_else(|| {
            FederationError::planning(format!("residual references unknown alias {a}"))
        })?;
        max_pos = max_pos.max(p);
    }
    Ok(max_pos)
}

/// Applies the final ORDER BY / LIMIT / SELECT to the matched tuples.
fn project(plan: &ExecutionPlan, mut set: PartialSet) -> Result<ResultSet> {
    // ORDER BY over the carried columns, then LIMIT, then project.
    if !plan.order_by.is_empty() {
        let keys: Vec<(Expr, bool)> = plan
            .order_by
            .iter()
            .map(|(sql, desc)| {
                Ok((
                    skyquery_sql::parse_expr(sql).map_err(FederationError::Sql)?,
                    *desc,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        let mut keyed: Vec<(Vec<Value>, crate::xmatch::PartialTuple)> =
            Vec::with_capacity(set.tuples.len());
        for tuple in std::mem::take(&mut set.tuples) {
            let b = TupleBindings {
                columns: &set.columns,
                values: &tuple.values,
            };
            let k: Vec<Value> = keys
                .iter()
                .map(|(e, _)| e.eval(&b).map_err(FederationError::Sql))
                .collect::<Result<_>>()?;
            keyed.push((k, tuple));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            for (i, (_, desc)) in keys.iter().enumerate() {
                let ord = a[i].key_cmp(&b[i]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        set.tuples = keyed.into_iter().map(|(_, t)| t).collect();
    }
    if let Some(n) = plan.limit {
        set.tuples.truncate(n);
    }

    let mut items: Vec<(Expr, String)> = Vec::with_capacity(plan.select.len());
    for (sql, alias) in &plan.select {
        let expr = skyquery_sql::parse_expr(sql).map_err(FederationError::Sql)?;
        let name = alias.clone().unwrap_or_else(|| sql.clone());
        items.push((expr, name));
    }

    // Evaluate all rows first, then infer column types from the values
    // (plain column references reuse the carried column's declared type).
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(set.tuples.len());
    for tuple in &set.tuples {
        let b = TupleBindings {
            columns: &set.columns,
            values: &tuple.values,
        };
        let mut row = Vec::with_capacity(items.len());
        for (expr, _) in &items {
            row.push(expr.eval(&b).map_err(FederationError::Sql)?);
        }
        rows.push(row);
    }

    let columns: Vec<ResultColumn> = items
        .iter()
        .enumerate()
        .map(|(i, (expr, name))| {
            let dtype = match expr {
                Expr::Column { alias, column } => set
                    .columns
                    .iter()
                    .find(|c| c.name == format!("{alias}.{column}"))
                    .map(|c| c.dtype),
                _ => None,
            }
            .or_else(|| rows.iter().filter_map(|r| r[i].data_type()).next())
            .unwrap_or(DataType::Float);
            ResultColumn::new(name.clone(), dtype)
        })
        .collect();

    let mut rs = ResultSet::new(columns);
    for row in rows {
        rs.push_row(row)?;
    }
    Ok(rs)
}

impl Endpoint for Portal {
    fn handle(&self, _net: &SimNetwork, req: HttpRequest) -> HttpResponse {
        let body = match std::str::from_utf8(&req.body) {
            Ok(b) => b,
            Err(_) => {
                return HttpResponse::soap_fault(
                    skyquery_soap::SoapFault::client("request body is not UTF-8").to_xml(),
                )
            }
        };
        let call = match RpcCall::parse(body) {
            Ok(c) => c,
            Err(e) => {
                return HttpResponse::soap_fault(
                    skyquery_soap::SoapFault::client(e.to_string()).to_xml(),
                )
            }
        };
        let result = match call.method.as_str() {
            // Registration service (§5.1): "When a SkyNode wishes to join
            // the SkyQuery federation; it calls the Registration service
            // of the Portal."
            "Register" => call
                .require("url")
                .map_err(FederationError::Soap)
                .and_then(|v| {
                    let url_str = v
                        .as_str()
                        .ok_or_else(|| FederationError::protocol("url must be a string"))?;
                    let url = Url::parse(url_str).map_err(FederationError::Net)?;
                    let reg = self.register_node(&url)?;
                    Ok(RpcResponse::new("Register")
                        .result("archive", SoapValue::Str(reg.archive))
                        .result("shards", SoapValue::Int(reg.shard_count as i64))
                        .result("replicas", SoapValue::Int(reg.replica_count as i64)))
                }),
            // The SkyQuery service: accepts the user query from a Client.
            "SkyQuery" => call
                .require("sql")
                .map_err(FederationError::Soap)
                .and_then(|v| {
                    let sql = v
                        .as_str()
                        .ok_or_else(|| FederationError::protocol("sql must be a string"))?;
                    let (result, trace) = self.submit(sql)?;
                    let mut trace_el = skyquery_xml::Element::new("Trace");
                    for e in trace.events() {
                        trace_el = trace_el.with_child(
                            skyquery_xml::Element::new("Event")
                                .with_attr("seq", e.seq.to_string())
                                .with_attr("actor", e.actor.clone())
                                .with_attr("action", e.action.clone())
                                .with_attr("elapsed_us", e.elapsed.as_micros().to_string())
                                .with_text(e.detail.clone()),
                        );
                    }
                    Ok(RpcResponse::new("SkyQuery")
                        .result(
                            "result",
                            SoapValue::EncodedTable(Arc::new(result.encode("result"))),
                        )
                        // Partial-result honesty crosses the wire too:
                        // a remote client sees the same degraded flag a
                        // local caller reads off the ResultSet.
                        .result("degraded", SoapValue::Bool(result.degraded))
                        .result("dropped", SoapValue::Str(result.dropped_archives.join(",")))
                        .result("trace", SoapValue::Xml(trace_el)))
                }),
            other => Err(FederationError::protocol(format!(
                "unknown portal service {other}"
            ))),
        };
        match result {
            Ok(resp) => HttpResponse::ok(resp.to_xml()),
            Err(e) => HttpResponse::soap_fault(e.to_fault().to_xml()),
        }
    }
}

/// The union of the input tuples' probe-ball declination spans, in
/// degrees, padded with the same slack the zone kernels use for band
/// selection. `None` when no tuple has a probe ball — nothing can match
/// at any shard.
fn probe_dec_span(input: &PartialSet, threshold: f64, sigma_arcsec: f64) -> Option<(f64, f64)> {
    let sigma_rad = (sigma_arcsec / 3600.0).to_radians();
    let mut span: Option<(f64, f64)> = None;
    for tuple in &input.tuples {
        let Some(best) = tuple.state.best_position() else {
            continue;
        };
        let dec = SkyPoint::from_vec3(best).dec_deg;
        let r_deg = tuple.state.search_radius(threshold, sigma_rad).to_degrees() + 1e-9;
        let (lo, hi) = (dec - r_deg, dec + r_deg);
        span = Some(match span {
            None => (lo, hi),
            Some((a, b)) => (a.min(lo), b.max(hi)),
        });
    }
    span
}
