//! Receiving a chunked transfer from a sender that lies: declared row
//! counts the receiver must not trust, and chunks whose schema drifts
//! mid-transfer. Both receive paths — the Portal's `collect_set` and a
//! SkyNode's incremental ingest — must answer with a typed protocol
//! error, never an abort or a silently mixed set.

use std::sync::Arc;

use skyquery_core::trace::StatsChain;
use skyquery_core::transfer::{invoke_cross_match, open_chunk_stream};
use skyquery_core::{ExecutionTrace, FederationError, RetryPolicy};
use skyquery_net::{HttpRequest, HttpResponse, SimNetwork, Url};
use skyquery_sim::{xmatch_query, FederationBuilder};
use skyquery_soap::{ChunkManifest, RpcCall, RpcResponse, SoapValue};
use skyquery_xml::{VoCell, VoColumn, VoTable, VoType};

/// A partial-set chunk: the four state columns, then `carried`
/// (`unsignedLong` columns), one row.
fn chunk(carried: &[&str]) -> VoTable {
    let columns = ["__a", "__ax", "__ay", "__az"]
        .iter()
        .map(|n| VoColumn::new(*n, VoType::Float))
        .chain(carried.iter().map(|n| VoColumn::new(*n, VoType::Id)))
        .collect();
    let mut t = VoTable::new("partial", columns);
    let mut row = vec![
        VoCell::Float(1e12),
        VoCell::Float(1e12),
        VoCell::Float(0.0),
        VoCell::Float(0.0),
    ];
    row.extend(carried.iter().map(|_| VoCell::Id(7)));
    t.push_cells(row).unwrap();
    t
}

/// A sender that answers `CrossMatch` with `manifest` and serves
/// `chunks[i]` for `FetchChunk` index `i`.
fn stub_sender(net: &SimNetwork, host: &str, manifest: ChunkManifest, chunks: Vec<VoTable>) -> Url {
    let total = chunks.len() as i64;
    let endpoint = move |_: &SimNetwork, req: HttpRequest| -> HttpResponse {
        let call = RpcCall::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
        let resp = match call.method.as_str() {
            "CrossMatch" => RpcResponse::new("CrossMatch")
                .result("manifest", SoapValue::Xml(manifest.to_element()))
                .result("stats", SoapValue::Xml(StatsChain::new().to_element())),
            "FetchChunk" => {
                let index = call.get("index").and_then(|v| v.as_i64()).unwrap();
                RpcResponse::new("FetchChunk")
                    .result("chunk", SoapValue::Table(chunks[index as usize].clone()))
                    .result("index", SoapValue::Int(index))
                    .result("total", SoapValue::Int(total))
                    .result("transfer_id", SoapValue::Int(manifest.transfer_id as i64))
            }
            _ => RpcResponse::new(call.method.clone()).result("aborted", SoapValue::Bool(true)),
        };
        HttpResponse::ok(resp.to_xml())
    };
    net.bind(host, Arc::new(endpoint));
    Url::new(host, "/soap")
}

fn expect_protocol(err: FederationError, needle: &str) {
    match &err {
        FederationError::Protocol { detail } if detail.contains(needle) => {}
        other => panic!("expected a protocol error mentioning {needle:?}, got {other}"),
    }
}

#[test]
fn declared_row_counts_do_not_size_buffers() {
    let net = SimNetwork::new();
    // One chunk claiming 10^17 rows: sizing a buffer from the claim
    // would abort the process before the first fetch.
    let manifest = ChunkManifest::legacy(1, &[100_000_000_000_000_000]);
    let url = stub_sender(&net, "liar", manifest.clone(), vec![chunk(&["X.a"])]);
    let err = open_chunk_stream(&net, "portal", &url, manifest, RetryPolicy::none())
        .collect_set()
        .unwrap_err();
    expect_protocol(err, "manifest promised");
}

#[test]
fn collect_set_rejects_a_chunk_whose_schema_differs() {
    let net = SimNetwork::new();
    let manifest = ChunkManifest::legacy(2, &[1, 1]);
    let chunks = vec![chunk(&["X.a"]), chunk(&["X.b", "X.c"])];
    let url = stub_sender(&net, "drifter", manifest.clone(), chunks);
    let err = open_chunk_stream(&net, "portal", &url, manifest, RetryPolicy::none())
        .collect_set()
        .unwrap_err();
    expect_protocol(err, "declares columns");

    // A type change under the same name is a different schema too.
    let mut retyped = chunk(&["X.a"]);
    retyped.columns[4].vtype = VoType::Int;
    retyped.rows[0][4] = VoCell::Int(7);
    let manifest = ChunkManifest::legacy(3, &[1, 1]);
    let url = stub_sender(
        &net,
        "retyper",
        manifest.clone(),
        vec![chunk(&["X.a"]), retyped],
    );
    let err = open_chunk_stream(&net, "portal", &url, manifest, RetryPolicy::none())
        .collect_set()
        .unwrap_err();
    expect_protocol(err, "declares columns");
}

#[test]
fn node_ingest_rejects_a_chunk_whose_schema_differs() {
    let fed = FederationBuilder::paper_triple(150).build();
    let sql = xmatch_query(
        &[
            ("SDSS", "Photo_Object", "O"),
            ("TWOMASS", "Photo_Primary", "T"),
        ],
        3.5,
        None,
    );
    let mut plan = fed
        .portal
        .plan_query(&sql, &mut ExecutionTrace::new())
        .unwrap();
    assert_eq!(plan.steps.len(), 2);
    // The seed step's reply comes from a sender whose second chunk
    // declares a different schema than its first; the node running step
    // 0 ingests the transfer chunk by chunk.
    let manifest = ChunkManifest::legacy(4, &[1, 1]);
    let chunks = vec![chunk(&["X.a"]), chunk(&["X.b", "X.c"])];
    plan.steps[1].url = stub_sender(&fed.net, "drifting-seed", manifest, chunks);
    let first = plan.steps[0].url.clone();
    let err = invoke_cross_match(&fed.net, "portal", &first, &plan, 0).unwrap_err();
    match err {
        FederationError::Fault(fault) => {
            assert!(fault.message.contains("declares columns"), "{fault}")
        }
        other => panic!("expected the node's protocol fault, got {other}"),
    }
}
