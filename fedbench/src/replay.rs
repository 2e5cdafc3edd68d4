//! Replay timings for the layers the endpoint shim cannot split.
//!
//! After each traced operation, the messages its shims captured are fed
//! back through the public codec calls, the cross-match kernel and the
//! shard merge, each timed on its own. Replays run outside the timed
//! region and against databases the benchmark owns.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use skyquery_core::plan::ExecutionPlan;
use skyquery_core::trace::StatsChain;
use skyquery_core::xmatch::{
    apply_residuals, dropout_step, match_step, seed_step, PartialSet, StepStats,
};
use skyquery_core::{shard, Portal, ResultSet};
use skyquery_net::{HttpRequest, HttpResponse};
use skyquery_soap::{Envelope, RpcCall, RpcResponse, SoapValue};
use skyquery_storage::Database;
use skyquery_xml::VoTable;

use crate::tracing::Message;

/// Seconds spent in each replayed layer, and the kernel's counters.
#[derive(Default)]
pub struct Replayed {
    pub http_s: f64,
    pub envelope_s: f64,
    pub votable_s: f64,
    pub kernel_s: f64,
    pub merge_s: f64,
    pub kernel: StepStats,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = black_box(f());
    *acc += t.elapsed().as_secs_f64();
    r
}

fn tables(values: &[(String, SoapValue)]) -> impl Iterator<Item = &VoTable> {
    values.iter().filter_map(|(_, v)| v.as_table())
}

/// Times the HTTP, SOAP-envelope and VOTable codecs on every captured
/// message: encode and decode of each frame, envelope and table.
pub fn codecs(messages: &[Message], out: &mut Replayed) {
    for m in messages {
        timed(&mut out.http_s, || {
            HttpRequest::parse(&m.request.to_bytes()).expect("captured request reparses")
        });
        timed(&mut out.http_s, || {
            HttpResponse::parse(&m.response.to_bytes()).expect("captured response reparses")
        });
        for body in [&m.request.body, &m.response.body] {
            let Ok(xml) = std::str::from_utf8(body) else {
                continue;
            };
            if let Ok(env) = timed(&mut out.envelope_s, || Envelope::parse(xml)) {
                timed(&mut out.envelope_s, || env.to_xml());
            }
        }
        let call = std::str::from_utf8(&m.request.body)
            .ok()
            .and_then(|b| RpcCall::parse(b).ok());
        let resp = std::str::from_utf8(&m.response.body)
            .ok()
            .and_then(|b| RpcResponse::parse(b).ok())
            .and_then(|r| r.ok());
        let call_tables = call.iter().flat_map(|c| tables(&c.params));
        let resp_tables = resp.iter().flat_map(|r| tables(&r.results));
        for t in call_tables.chain(resp_tables) {
            let xml = timed(&mut out.votable_s, || t.to_xml());
            timed(&mut out.votable_s, || {
                VoTable::parse(&xml).expect("table reparses")
            });
            if let Ok(set) = timed(&mut out.votable_s, || PartialSet::from_votable(t)) {
                timed(&mut out.votable_s, || set.to_votable());
            }
        }
    }
}

fn plan_step(call: &RpcCall) -> Option<(ExecutionPlan, usize)> {
    let plan = ExecutionPlan::from_element(call.get("plan")?.as_xml()?).ok()?;
    let step = call.get("step")?.as_i64()? as usize;
    Some((plan, step))
}

fn add(acc: &mut StepStats, s: &StepStats) {
    acc.tuples_in += s.tuples_in;
    acc.candidates_probed += s.candidates_probed;
    acc.candidates_examined += s.candidates_examined;
    acc.chi2_accepted += s.chi2_accepted;
    acc.tuples_out += s.tuples_out;
}

fn twin<'a>(twins: &'a mut HashMap<String, Database>, host: &str) -> &'a mut Database {
    twins
        .get_mut(host)
        .unwrap_or_else(|| panic!("no twin database for {host}"))
}

/// Times `match_step`/`dropout_step` on the operation's incoming sets
/// against the twin databases.
///
/// A `ScatterStep` carries its incoming set inline, so it is replayed
/// as captured. A recursive `CrossMatch` or checkpointed `ExecuteStep`
/// chain receives each incoming set from the step before it; the replay
/// recomputes that chain from the captured plan on the twins (the seed
/// untimed) once per chain, at the seed step's message, and returns each
/// chain's projected answer so the caller can check that the sets it
/// timed are the ones the nodes saw.
pub fn kernel(
    messages: &[Message],
    twins: &mut HashMap<String, Database>,
    out: &mut Replayed,
) -> Vec<ResultSet> {
    let mut answers = Vec::new();
    for m in messages {
        let Some(call) = std::str::from_utf8(&m.request.body)
            .ok()
            .and_then(|b| RpcCall::parse(b).ok())
        else {
            continue;
        };
        match m.action.as_str() {
            "ScatterStep" => {
                let (plan, step) = plan_step(&call).expect("ScatterStep carries plan and step");
                let Some(input) = call.get("input").and_then(|v| v.as_table()) else {
                    continue;
                };
                let inc = PartialSet::from_votable(input).expect("input is a partial set");
                let cfg = plan.step_config(step).expect("valid step");
                let db = twin(twins, &m.host);
                let (_, stats) = timed(&mut out.kernel_s, || {
                    if plan.steps[step].dropout {
                        dropout_step(db, &cfg, &inc)
                    } else {
                        match_step(db, &cfg, &inc)
                    }
                })
                .expect("kernel replays");
                add(&mut out.kernel, &stats);
            }
            "CrossMatch" | "ExecuteStep" => {
                // A chain starts at its seed step: the recursive chain's
                // innermost call, the checkpointed walk's first step
                // (the only one without an incoming checkpoint).
                let (plan, step) = plan_step(&call).expect("chain step carries plan and step");
                let starts = match m.action.as_str() {
                    "CrossMatch" => step == plan.seed_index(),
                    _ => call.get("checkpoint_id").is_none(),
                };
                if starts {
                    answers.push(replay_chain(&plan, twins, out));
                }
            }
            _ => {}
        }
    }
    answers
}

fn replay_chain(
    plan: &ExecutionPlan,
    twins: &mut HashMap<String, Database>,
    out: &mut Replayed,
) -> ResultSet {
    let residuals = |i: usize, set: PartialSet| {
        apply_residuals(set, &plan.residuals(i).expect("valid residuals")).expect("residuals apply")
    };
    let seed = plan.seed_index();
    let cfg = plan.step_config(seed).expect("valid step");
    let (set, _) = seed_step(twin(twins, &plan.steps[seed].url.host), &cfg).expect("seed replays");
    let mut set = residuals(seed, set);
    for i in (0..seed).rev() {
        let cfg = plan.step_config(i).expect("valid step");
        let db = twin(twins, &plan.steps[i].url.host);
        let (next, stats) = timed(&mut out.kernel_s, || {
            if plan.steps[i].dropout {
                dropout_step(db, &cfg, &set)
            } else {
                match_step(db, &cfg, &set)
            }
        })
        .expect("kernel replays");
        add(&mut out.kernel, &stats);
        set = residuals(i, next);
    }
    Portal::project_result(plan, set).expect("projection replays")
}

/// Times the shard merge on each scattered step's captured replies.
/// Returns how many steps were merged.
pub fn merges(messages: &[Message], out: &mut Replayed) -> usize {
    // (plan, step, the step's shard replies), in capture order.
    type Group = (ExecutionPlan, usize, Vec<(PartialSet, StepStats)>);
    let mut groups: Vec<Group> = Vec::new();
    for m in messages.iter().filter(|m| m.action == "ScatterStep") {
        let call = RpcCall::parse(std::str::from_utf8(&m.request.body).expect("utf-8"))
            .expect("captured call parses");
        let (plan, step) = plan_step(&call).expect("ScatterStep carries plan and step");
        if plan.steps[step].shards.is_empty() {
            continue;
        }
        let resp = RpcResponse::parse(std::str::from_utf8(&m.response.body).expect("utf-8"))
            .expect("captured response parses")
            .expect("scatter probe succeeded");
        let Some(table) = resp.get("partial").and_then(|v| v.as_table()) else {
            panic!("scatter replies are expected inline at this workload's sizes");
        };
        let set = PartialSet::from_votable(table).expect("partial set");
        let chain = StatsChain::from_element(
            resp.get("stats")
                .and_then(|v| v.as_xml())
                .expect("stats ride every reply"),
        )
        .expect("stats decode");
        let stats = chain.entries.first().map(|e| e.1).unwrap_or_default();
        match groups.last_mut() {
            Some((_, s, parts)) if *s == step => parts.push((set, stats)),
            _ => groups.push((plan, step, vec![(set, stats)])),
        }
    }
    for (plan, step, parts) in &groups {
        let s = &plan.steps[*step];
        let seeded = *step == plan.seed_index();
        timed(&mut out.merge_s, || {
            if seeded {
                shard::merge_seed(parts, &s.alias)
            } else if s.dropout {
                shard::merge_dropout(parts)
            } else {
                shard::merge_match(parts, &s.alias)
            }
        })
        .expect("captured replies merge");
    }
    groups.len()
}
