//! Wire codec parity: the one-pass streaming SOAP/VOTable codec against
//! the element-tree (DOM) codec it replaced.
//!
//! The DOM codec lives on here, and only here, as the oracle: a message
//! is built as an [`Element`] tree and serialized, or parsed into a tree
//! and then walked. The streaming encoder must write the same bytes, and
//! both decoders must return the same values — on random calls and
//! responses, and on every malformed message the DOM path rejects, which
//! the streaming decoder must meet with a typed error, never a panic.
//!
//! Run on its own with `cargo test -p skyquery-core --test wire_codec`.

use std::sync::Arc;

use proptest::prelude::*;
use skyquery_core::xmatch::PartialSet;
use skyquery_core::FederationError;
use skyquery_soap::{
    RpcCall, RpcResponse, SoapError, SoapFault, SoapValue, SKYQUERY_NS, SOAP_ENV_NS,
};
use skyquery_xml::{Element, VoCell, VoColumn, VoTable, VoType, XmlError};

/// The element-tree codec: tables, parameters, envelopes.
mod dom_oracle {
    use super::*;

    fn cell_text(cell: &VoCell) -> Option<String> {
        match cell {
            VoCell::Null => None,
            VoCell::Bool(b) => Some(b.to_string()),
            VoCell::Int(i) => Some(i.to_string()),
            VoCell::Float(x) => Some(format!("{x:?}")),
            VoCell::Text(s) => Some(s.clone()),
            VoCell::Id(u) => Some(u.to_string()),
        }
    }

    pub fn table_to_element(t: &VoTable) -> Element {
        let mut table = Element::new("VOTABLE").with_attr("name", t.name.clone());
        for col in &t.columns {
            table = table.with_child(
                Element::new("FIELD")
                    .with_attr("name", col.name.clone())
                    .with_attr("datatype", col.vtype.as_str()),
            );
        }
        let mut data = Element::new("DATA");
        for row in &t.rows {
            let mut tr = Element::new("TR");
            for cell in row {
                tr = tr.with_child(match cell_text(cell) {
                    Some(text) => Element::new("TD").with_text(text),
                    None => Element::new("TD").with_attr("null", "true"),
                });
            }
            data = data.with_child(tr);
        }
        table.with_child(data)
    }

    pub fn table_from_element(e: &Element) -> Result<VoTable, XmlError> {
        if e.name != "VOTABLE" {
            return Err(XmlError::SchemaViolation {
                detail: format!("expected VOTABLE root, found {}", e.name),
            });
        }
        let mut columns = Vec::new();
        for f in e.children_named("FIELD") {
            let cname = f.require_attr("name")?.to_string();
            let dt = f.require_attr("datatype")?;
            let vtype = VoType::parse(dt).ok_or_else(|| XmlError::SchemaViolation {
                detail: format!("unknown datatype {dt} for field {cname}"),
            })?;
            columns.push(VoColumn::new(cname, vtype));
        }
        let mut table = VoTable::new(e.attr("name").unwrap_or(""), columns);
        if let Some(data) = e.child("DATA") {
            for tr in data.children_named("TR") {
                let row = tr
                    .children_named("TD")
                    .map(|td| (td.attr("null") != Some("true")).then(|| td.text.clone()))
                    .collect();
                table.push_row(row)?;
            }
        }
        Ok(table)
    }

    fn encode_value(value: &SoapValue, name: &str) -> Element {
        let type_name = match value {
            SoapValue::Str(_) => "string",
            SoapValue::Int(_) => "long",
            SoapValue::Float(_) => "double",
            SoapValue::Bool(_) => "boolean",
            SoapValue::Table(_) | SoapValue::EncodedTable(_) => "table",
            SoapValue::Xml(_) => "xml",
            SoapValue::Null => "nil",
        };
        let e = Element::new(name).with_attr("sq:type", type_name);
        match value {
            SoapValue::Str(s) => e.with_text(s.clone()),
            SoapValue::Int(i) => e.with_text(i.to_string()),
            SoapValue::Float(x) => e.with_text(format!("{x:?}")),
            SoapValue::Bool(b) => e.with_text(b.to_string()),
            SoapValue::Table(t) => e.with_child(table_to_element(t)),
            SoapValue::EncodedTable(_) => panic!("the oracle encodes typed tables"),
            SoapValue::Xml(x) => e.with_child(x.clone()),
            SoapValue::Null => e,
        }
    }

    fn decode_value(e: &Element) -> Result<SoapValue, SoapError> {
        let ty = e.attr("sq:type").ok_or_else(|| SoapError::Protocol {
            detail: format!("parameter {} missing sq:type", e.name),
        })?;
        let bad = || SoapError::Protocol {
            detail: format!("parameter {} is ill-typed: {:?}", e.name, e.text),
        };
        Ok(match ty {
            "string" => SoapValue::Str(e.text.clone()),
            "long" => SoapValue::Int(e.text.parse().map_err(|_| bad())?),
            "double" => SoapValue::Float(e.text.parse().map_err(|_| bad())?),
            "boolean" => SoapValue::Bool(e.text.parse().map_err(|_| bad())?),
            "table" => {
                let t = e.children.first().ok_or_else(bad)?;
                SoapValue::Table(table_from_element(t)?)
            }
            "xml" => SoapValue::Xml(e.children.first().cloned().ok_or_else(bad)?),
            "nil" => SoapValue::Null,
            other => {
                return Err(SoapError::Protocol {
                    detail: format!("unknown parameter type {other}"),
                })
            }
        })
    }

    fn envelope_to_xml(body: Element) -> String {
        Element::new("soap:Envelope")
            .with_attr("xmlns:soap", SOAP_ENV_NS)
            .with_child(Element::new("soap:Body").with_child(body))
            .to_xml()
    }

    fn local(name: &str) -> &str {
        name.rsplit_once(':').map(|(_, l)| l).unwrap_or(name)
    }

    fn envelope_body(xml: &str) -> Result<Element, SoapError> {
        let root = Element::parse(xml)?;
        if local(&root.name) != "Envelope" {
            return Err(SoapError::Protocol {
                detail: "root element is not Envelope".into(),
            });
        }
        let ns_ok = root
            .attributes
            .iter()
            .any(|(k, v)| (k == "xmlns" || k.starts_with("xmlns:")) && v == SOAP_ENV_NS);
        if !ns_ok {
            return Err(SoapError::Protocol {
                detail: "missing SOAP envelope namespace".into(),
            });
        }
        let body = root.child("Body").ok_or_else(|| SoapError::Protocol {
            detail: "envelope has no Body".into(),
        })?;
        match body.children.as_slice() {
            [payload] => Ok(payload.clone()),
            _ => Err(SoapError::Protocol {
                detail: "Body must carry exactly one payload element".into(),
            }),
        }
    }

    fn method_element(element: String, params: &[(String, SoapValue)]) -> Element {
        params.iter().fold(
            Element::new(element).with_attr("xmlns:sq", SKYQUERY_NS),
            |m, (name, value)| m.with_child(encode_value(value, name)),
        )
    }

    fn decode_params(body: &Element) -> Result<Vec<(String, SoapValue)>, SoapError> {
        body.children
            .iter()
            .map(|c| Ok((c.name.clone(), decode_value(c)?)))
            .collect()
    }

    pub fn call_to_xml(call: &RpcCall) -> String {
        envelope_to_xml(method_element(format!("sq:{}", call.method), &call.params))
    }

    pub fn response_to_xml(resp: &RpcResponse) -> String {
        envelope_to_xml(method_element(
            format!("sq:{}Response", resp.method),
            &resp.results,
        ))
    }

    pub fn call_parse(xml: &str) -> Result<RpcCall, SoapError> {
        let body = envelope_body(xml)?;
        Ok(RpcCall {
            method: local(&body.name).to_string(),
            params: decode_params(&body)?,
        })
    }

    pub fn response_parse(xml: &str) -> Result<Result<RpcResponse, SoapFault>, SoapError> {
        let body = envelope_body(xml)?;
        let name = local(&body.name);
        if name == "Fault" {
            return Ok(Err(SoapFault {
                code: local(body.child_text("faultcode")?).to_string(),
                message: body.child_text("faultstring")?.to_string(),
                detail: body
                    .child("detail")
                    .map(|d| d.text.clone())
                    .unwrap_or_default(),
            }));
        }
        let method = name
            .strip_suffix("Response")
            .ok_or_else(|| SoapError::Protocol {
                detail: format!("body element {name} is neither a Response nor a Fault"),
            })?;
        Ok(Ok(RpcResponse {
            method: method.to_string(),
            results: decode_params(&body)?,
        }))
    }
}

/// Whether two decoded parameter lists carry the same values (floats
/// compared as their wire text: bit for bit, every NaN alike).
fn same_params(a: &[(String, SoapValue)], b: &[(String, SoapValue)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((na, va), (nb, vb))| {
            na == nb
                && match (va, vb) {
                    (SoapValue::Float(x), SoapValue::Float(y)) => {
                        VoCell::Float(*x) == VoCell::Float(*y)
                    }
                    _ => va == vb,
                }
        })
}

/// Replaces every typed table by its one-pass encoding.
fn pre_encoded(params: &[(String, SoapValue)]) -> Vec<(String, SoapValue)> {
    params
        .iter()
        .map(|(n, v)| match v {
            SoapValue::Table(t) => (n.clone(), SoapValue::EncodedTable(Arc::new(t.encode()))),
            other => (n.clone(), other.clone()),
        })
        .collect()
}

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            Just('&'),
            Just('<'),
            Just('>'),
            Just('"'),
            Just('\''),
            Just(' '),
            Just('é'),
            Just(';'),
        ],
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

const FLOAT_EDGES: [f64; 10] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    5e-324,
    -2.5e-310,
    f64::MAX,
    0.1,
];

/// A cell of type `ty` drawn from `(selector, bits, text)`.
fn cell(ty: VoType, sel: u8, bits: u64, text: &str) -> VoCell {
    if sel.is_multiple_of(6) {
        return VoCell::Null;
    }
    let edge = sel.is_multiple_of(3);
    match ty {
        VoType::Bool => VoCell::Bool(bits & 1 == 1),
        VoType::Int => VoCell::Int(match (edge, bits & 1) {
            (true, 0) => i64::MIN,
            (true, _) => i64::MAX,
            _ => bits as i64,
        }),
        VoType::Float => VoCell::Float(if edge {
            FLOAT_EDGES[(bits % FLOAT_EDGES.len() as u64) as usize]
        } else {
            f64::from_bits(bits)
        }),
        VoType::Text => VoCell::Text(text.to_string()),
        VoType::Id => VoCell::Id(if edge { u64::MAX } else { bits }),
    }
}

const TYPES: [VoType; 5] = [
    VoType::Bool,
    VoType::Int,
    VoType::Float,
    VoType::Text,
    VoType::Id,
];

fn table() -> impl Strategy<Value = VoTable> {
    (
        text(),
        proptest::collection::vec(("[a-zA-Z_][a-zA-Z0-9_.]{0,6}", 0usize..5), 0..5),
        proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u64>(), text()), 5),
            0..6,
        ),
        any::<bool>(),
    )
        .prop_map(|(name, cols, rows, zoned)| {
            let mut columns: Vec<VoColumn> = cols
                .into_iter()
                .map(|(n, t)| VoColumn::new(n, TYPES[t]))
                .collect();
            if zoned {
                columns.insert(0, VoColumn::new("__seq", VoType::Id));
            }
            let mut t = VoTable::new(name, columns);
            for (i, raw) in rows.into_iter().enumerate() {
                let mut row: Vec<VoCell> = Vec::new();
                if zoned {
                    row.push(VoCell::Id(i as u64));
                }
                let width = t.columns.len() - row.len();
                for ((sel, bits, s), col) in raw.iter().zip(&t.columns[row.len()..]).take(width) {
                    row.push(cell(col.vtype, *sel, *bits, s));
                }
                t.push_cells(row).expect("cells follow the columns");
            }
            t
        })
}

fn xml_payload() -> impl Strategy<Value = Element> {
    (
        "[a-zA-Z][a-zA-Z0-9]{0,5}",
        proptest::collection::vec(("[a-z]{1,4}", text()), 0..3),
        text(),
        proptest::collection::vec(("[a-zA-Z]{1,5}", text()), 0..3),
    )
        .prop_map(|(name, attrs, body, leaves)| {
            let mut e = Element::new(name);
            for (i, (k, v)) in attrs.into_iter().enumerate() {
                e = e.with_attr(format!("{k}{i}"), v);
            }
            if leaves.is_empty() {
                e.with_text(body)
            } else {
                leaves.into_iter().fold(e, |e, (n, t)| e.with_leaf(n, t))
            }
        })
}

fn value() -> impl Strategy<Value = SoapValue> {
    prop_oneof![
        text().prop_map(SoapValue::Str),
        any::<i64>().prop_map(SoapValue::Int),
        (any::<u64>(), 0usize..20).prop_map(|(bits, i)| SoapValue::Float(
            FLOAT_EDGES.get(i).copied().unwrap_or(f64::from_bits(bits))
        )),
        any::<bool>().prop_map(SoapValue::Bool),
        Just(SoapValue::Null),
        table().prop_map(SoapValue::Table),
        table().prop_map(SoapValue::Table),
        xml_payload().prop_map(SoapValue::Xml),
    ]
}

fn params() -> impl Strategy<Value = Vec<(String, SoapValue)>> {
    proptest::collection::vec(("[a-zA-Z][a-zA-Z0-9_]{0,8}", value()), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn calls_encode_to_the_oracle_bytes_and_decode_alike(
        method in "[A-Z][a-zA-Z]{0,8}",
        params in params(),
    ) {
        let call = RpcCall { method, params };
        let xml = call.to_xml();
        prop_assert_eq!(&xml, &dom_oracle::call_to_xml(&call));
        let shared = RpcCall { method: call.method.clone(), params: pre_encoded(&call.params) };
        prop_assert_eq!(&shared.to_xml(), &xml);

        let streamed = RpcCall::parse(&xml).unwrap();
        let oracle = dom_oracle::call_parse(&xml).unwrap();
        prop_assert_eq!(&streamed.method, &oracle.method);
        prop_assert!(same_params(&streamed.params, &oracle.params));
        // Typed tables survive the trip exactly.
        for ((_, sent), (_, got)) in call.params.iter().zip(&streamed.params) {
            if let SoapValue::Table(t) = sent {
                prop_assert_eq!(Some(t), got.as_table());
                prop_assert_eq!(got.as_table().unwrap().wire_len(), Some(t.to_xml().len()));
            }
        }
    }

    #[test]
    fn responses_encode_to_the_oracle_bytes_and_decode_alike(
        method in "[A-Z][a-zA-Z]{0,8}",
        results in params(),
    ) {
        let resp = RpcResponse { method, results };
        let xml = resp.to_xml();
        prop_assert_eq!(&xml, &dom_oracle::response_to_xml(&resp));
        let shared = RpcResponse { method: resp.method.clone(), results: pre_encoded(&resp.results) };
        prop_assert_eq!(&shared.to_xml(), &xml);
        prop_assert_eq!(shared.encoded_len(), xml.len());
        prop_assert_eq!(resp.encoded_len(), xml.len());

        let streamed = RpcResponse::parse(&xml).unwrap().unwrap();
        let oracle = dom_oracle::response_parse(&xml).unwrap().unwrap();
        prop_assert_eq!(&streamed.method, &oracle.method);
        prop_assert!(same_params(&streamed.results, &oracle.results));
    }

    #[test]
    fn faults_encode_to_the_oracle_bytes_and_decode_alike(code in "[A-Z][a-z]{0,6}", msg in text(), detail in text()) {
        let fault = SoapFault { code, message: msg, detail };
        let oracle_xml = Element::new("soap:Envelope")
            .with_attr("xmlns:soap", SOAP_ENV_NS)
            .with_child(Element::new("soap:Body").with_child(
                Element::new("soap:Fault")
                    .with_leaf("faultcode", format!("soap:{}", fault.code))
                    .with_leaf("faultstring", fault.message.clone())
                    .with_leaf("detail", fault.detail.clone()),
            ))
            .to_xml();
        prop_assert_eq!(&fault.to_xml(), &oracle_xml);
        let streamed = RpcResponse::parse(&oracle_xml).unwrap().unwrap_err();
        let oracle = dom_oracle::response_parse(&oracle_xml).unwrap().unwrap_err();
        prop_assert_eq!(&streamed, &oracle);
        prop_assert_eq!(&streamed, &fault);
    }
}

/// Which decoder stage must refuse a malformed message.
#[derive(Clone, Copy, Debug)]
enum Stage {
    /// The SOAP/VOTable codec itself (a call document).
    Call,
    /// The SOAP/VOTable codec itself (a response document).
    Response,
    /// The codec accepts the table; the partial-set decode refuses it.
    PartialSet,
}

fn envelope(body: &str) -> String {
    format!(
        r#"<soap:Envelope xmlns:soap="{SOAP_ENV_NS}"><soap:Body>{body}</soap:Body></soap:Envelope>"#
    )
}

/// A `CrossMatchResponse` carrying one table parameter `partial`.
fn partial_reply(fields: &str, rows: &str) -> String {
    envelope(&format!(
        r#"<sq:CrossMatchResponse xmlns:sq="{SKYQUERY_NS}"><partial sq:type="table"><VOTABLE name="partial">{fields}<DATA>{rows}</DATA></VOTABLE></partial></sq:CrossMatchResponse>"#
    ))
}

const STATE_FIELDS: &str = r#"<FIELD name="__a" datatype="double"/><FIELD name="__ax" datatype="double"/><FIELD name="__ay" datatype="double"/><FIELD name="__az" datatype="double"/>"#;

fn call(params: &str) -> String {
    envelope(&format!(
        r#"<sq:M xmlns:sq="{SKYQUERY_NS}">{params}</sq:M>"#
    ))
}

fn malformed() -> Vec<(&'static str, Stage, String)> {
    let id_field = r#"<FIELD name="X.id" datatype="unsignedLong"/>"#;
    let state_row =
        |extra: &str| format!("<TR><TD>1.0</TD><TD>0.5</TD><TD>0.5</TD><TD>0.5</TD>{extra}</TR>");
    vec![
        ("not xml at all", Stage::Call, "hello".into()),
        ("empty document", Stage::Call, String::new()),
        ("truncated", Stage::Call, call(r#"<n sq:type="long">1</n>"#)[..60].to_string()),
        ("mismatched tags", Stage::Call, envelope("<a><b></a></b>")),
        ("bad entity", Stage::Call, call(r#"<s sq:type="string">&nosuch;</s>"#)),
        ("trailing garbage", Stage::Call, call("") + "<junk/>"),
        ("wrong root", Stage::Call, "<NotSoap/>".into()),
        (
            "wrong root, right namespace",
            Stage::Call,
            format!(r#"<soap:Envelop xmlns:soap="{SOAP_ENV_NS}"><soap:Body><sq:M/></soap:Body></soap:Envelop>"#),
        ),
        (
            "missing namespace",
            Stage::Call,
            "<soap:Envelope><soap:Body><sq:M/></soap:Body></soap:Envelope>".into(),
        ),
        (
            "wrong namespace",
            Stage::Call,
            r#"<soap:Envelope xmlns:soap="urn:other"><soap:Body><sq:M/></soap:Body></soap:Envelope>"#.into(),
        ),
        (
            "no Body",
            Stage::Call,
            format!(r#"<soap:Envelope xmlns:soap="{SOAP_ENV_NS}"><soap:Header/></soap:Envelope>"#),
        ),
        ("empty Body", Stage::Call, envelope("")),
        ("two-element Body", Stage::Call, envelope("<sq:A/><sq:B/>")),
        ("missing sq:type", Stage::Call, call("<n>1</n>")),
        ("unknown sq:type", Stage::Call, call(r#"<n sq:type="mystery">1</n>"#)),
        ("ill-typed long", Stage::Call, call(r#"<n sq:type="long">one</n>"#)),
        ("ill-typed double", Stage::Call, call(r#"<n sq:type="double">1.2.3</n>"#)),
        ("ill-typed boolean", Stage::Call, call(r#"<n sq:type="boolean">yes</n>"#)),
        ("table without VOTABLE", Stage::Call, call(r#"<t sq:type="table"/>"#)),
        ("table with a foreign child", Stage::Call, call(r#"<t sq:type="table"><TABLE/></t>"#)),
        ("xml without child", Stage::Call, call(r#"<x sq:type="xml">text only</x>"#)),
        (
            "response body that is not a Response",
            Stage::Response,
            envelope(&format!(r#"<sq:Query xmlns:sq="{SKYQUERY_NS}"/>"#)),
        ),
        (
            "fault without faultstring",
            Stage::Response,
            envelope("<soap:Fault><faultcode>soap:Server</faultcode></soap:Fault>"),
        ),
        (
            "unknown datatype",
            Stage::Response,
            partial_reply(r#"<FIELD name="a" datatype="varchar"/>"#, ""),
        ),
        (
            "FIELD without datatype",
            Stage::Response,
            partial_reply(r#"<FIELD name="a"/>"#, ""),
        ),
        (
            "FIELD without name",
            Stage::Response,
            partial_reply(r#"<FIELD datatype="long"/>"#, ""),
        ),
        (
            "short row",
            Stage::Response,
            partial_reply(&format!("{STATE_FIELDS}{id_field}"), "<TR><TD>1.0</TD></TR>"),
        ),
        (
            "long row",
            Stage::Response,
            partial_reply(STATE_FIELDS, &state_row("<TD>9</TD>")),
        ),
        (
            "ill-typed double cell",
            Stage::Response,
            partial_reply(STATE_FIELDS, "<TR><TD>one</TD><TD>0</TD><TD>0</TD><TD>0</TD></TR>"),
        ),
        (
            "ill-typed long cell",
            Stage::Response,
            partial_reply(r#"<FIELD name="n" datatype="long"/>"#, "<TR><TD>five</TD></TR>"),
        ),
        (
            "ill-typed boolean cell",
            Stage::Response,
            partial_reply(r#"<FIELD name="b" datatype="boolean"/>"#, "<TR><TD>1</TD></TR>"),
        ),
        (
            "negative unsignedLong cell",
            Stage::Response,
            partial_reply(id_field, "<TR><TD>-1</TD></TR>"),
        ),
        (
            "unsignedLong cell past u64::MAX",
            Stage::Response,
            partial_reply(id_field, "<TR><TD>18446744073709551616</TD></TR>"),
        ),
        (
            "missing state columns",
            Stage::PartialSet,
            partial_reply(id_field, "<TR><TD>7</TD></TR>"),
        ),
        (
            "state columns out of order",
            Stage::PartialSet,
            partial_reply(
                r#"<FIELD name="__ax" datatype="double"/><FIELD name="__a" datatype="double"/><FIELD name="__ay" datatype="double"/><FIELD name="__az" datatype="double"/>"#,
                "",
            ),
        ),
        (
            "non-numeric state",
            Stage::PartialSet,
            partial_reply(
                r#"<FIELD name="__a" datatype="char"/><FIELD name="__ax" datatype="double"/><FIELD name="__ay" datatype="double"/><FIELD name="__az" datatype="double"/>"#,
                "<TR><TD>heavy</TD><TD>0</TD><TD>0</TD><TD>0</TD></TR>",
            ),
        ),
        (
            "null state",
            Stage::PartialSet,
            partial_reply(
                STATE_FIELDS,
                r#"<TR><TD null="true"/><TD>0</TD><TD>0</TD><TD>0</TD></TR>"#,
            ),
        ),
    ]
}

fn is_typed(e: &SoapError) -> bool {
    matches!(e, SoapError::Protocol { .. } | SoapError::Xml(_))
}

#[test]
fn malformed_messages_get_typed_errors_from_both_decoders() {
    for (name, stage, xml) in malformed() {
        match stage {
            Stage::Call => {
                let oracle = dom_oracle::call_parse(&xml);
                assert!(oracle.is_err(), "{name}: the DOM oracle accepted it");
                let err = RpcCall::parse(&xml).expect_err(name);
                assert!(is_typed(&err), "{name}: {err:?}");
            }
            Stage::Response => {
                let oracle = dom_oracle::response_parse(&xml);
                assert!(oracle.is_err(), "{name}: the DOM oracle accepted it");
                let err = RpcResponse::parse(&xml).expect_err(name);
                assert!(is_typed(&err), "{name}: {err:?}");
            }
            Stage::PartialSet => {
                let take = |resp: RpcResponse| {
                    resp.get("partial")
                        .and_then(|v| v.as_table())
                        .cloned()
                        .unwrap()
                };
                let oracle = take(dom_oracle::response_parse(&xml).unwrap().unwrap());
                assert!(
                    PartialSet::from_votable(&oracle).is_err(),
                    "{name}: the DOM path accepted it"
                );
                let table = take(RpcResponse::parse(&xml).unwrap().unwrap());
                assert_eq!(table, oracle, "{name}: the decoders disagree on the table");
                for err in [
                    PartialSet::from_votable(&table).unwrap_err(),
                    PartialSet::try_from(table).unwrap_err(),
                ] {
                    assert!(
                        matches!(err, FederationError::Protocol { .. }),
                        "{name}: {err:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn formatting_variations_decode_like_the_oracle() {
    // Whitespace between elements, prefixed table tags, unknown elements
    // and a header: the streaming decoder reads what the tree reads.
    let xml = format!(
        "<Envelope xmlns=\"{SOAP_ENV_NS}\">\n  <Header><h>x</h></Header>\n  <Body>\n    <m:QueryResponse xmlns:m=\"{SKYQUERY_NS}\">\n      <rows sq:type=\"table\">\n        <VOTABLE name=\"r\">\n          <v:FIELD name=\"n\" datatype=\"long\"/>\n          <DESCRIPTION>ignored</DESCRIPTION>\n          <DATA>\n            <TR> <TD>1</TD> <TD null=\"true\"/> </TR>\n            <TR><TD>  </TD></TR>\n          </DATA>\n        </VOTABLE>\n      </rows>\n      <note sq:type=\"string\"> spaced &amp; kept </note>\n    </m:QueryResponse>\n  </Body>\n</Envelope>"
    );
    let xml = xml.replace(
        "<TR> <TD>1</TD> <TD null=\"true\"/> </TR>",
        "<TR> <TD>1</TD> </TR><TR><TD null=\"true\"/></TR>",
    );
    let xml = xml.replace("<TR><TD>  </TD></TR>", "<TR><TD>-3</TD></TR>");
    let streamed = RpcResponse::parse(&xml).unwrap().unwrap();
    let oracle = dom_oracle::response_parse(&xml).unwrap().unwrap();
    assert_eq!(streamed, oracle);
    let rows = streamed.get("rows").and_then(|v| v.as_table()).unwrap();
    assert_eq!(
        rows.rows,
        vec![
            vec![VoCell::Int(1)],
            vec![VoCell::Null],
            vec![VoCell::Int(-3)]
        ]
    );
    assert_eq!(
        streamed.get("note").and_then(|v| v.as_str()),
        Some(" spaced & kept ")
    );
}
