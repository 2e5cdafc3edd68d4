//! SOAP RPC: typed method calls, responses, and faults.
//!
//! Calls are encoded in the RPC style of early SOAP stacks: the body
//! element is the method name in the service namespace, each parameter a
//! child element with an `xsi:type`-like `sq:type` attribute. Result
//! tables ride as embedded VOTable elements — "the SkyNode returns this
//! result, as a serialized XML encoded SOAP message" (§5.3).
//!
//! Both directions are one streaming pass: `to_xml` writes the envelope,
//! the parameters and any table into one [`XmlWriter`], and `parse` walks
//! reader events, decoding table cells straight into typed values. Only
//! `xml` parameters (plans, statistics, manifests) become element trees.

use std::sync::Arc;

use skyquery_xml::{
    Attributes, Element, EncodedTable, Event, VoTable, XmlError, XmlReader, XmlWriter,
};

use crate::envelope::{local_name, read_envelope, write_envelope};
use crate::{SoapError, SKYQUERY_NS};

/// A typed RPC parameter or result value.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapValue {
    /// A string parameter.
    Str(String),
    /// A signed 64-bit integer parameter.
    Int(i64),
    /// A 64-bit float parameter.
    Float(f64),
    /// A boolean parameter.
    Bool(bool),
    /// A whole result table.
    Table(VoTable),
    /// A table already encoded once (a measured reply, a §6 chunk, or
    /// an input sent to several nodes), shared rather than copied until
    /// it is written: the same bytes as [`SoapValue::Table`] of that
    /// table. Decoding yields `Table`.
    EncodedTable(Arc<EncodedTable>),
    /// An arbitrary XML payload (schemas, plans).
    Xml(Element),
    /// Explicit nil.
    Null,
}

impl SoapValue {
    fn type_name(&self) -> &'static str {
        match self {
            SoapValue::Str(_) => "string",
            SoapValue::Int(_) => "long",
            SoapValue::Float(_) => "double",
            SoapValue::Bool(_) => "boolean",
            SoapValue::Table(_) | SoapValue::EncodedTable(_) => "table",
            SoapValue::Xml(_) => "xml",
            SoapValue::Null => "nil",
        }
    }

    /// Writes `<name sq:type="…">value</name>`; `table` handles a
    /// pre-encoded table (`to_xml` copies it in, `encoded_len` only
    /// counts it).
    fn write_to(
        &self,
        w: &mut XmlWriter,
        name: &str,
        table: &mut impl FnMut(&mut XmlWriter, &EncodedTable),
    ) {
        w.open(name).attr("sq:type", self.type_name());
        match self {
            SoapValue::Str(s) => {
                if !s.is_empty() {
                    w.text(s);
                }
            }
            SoapValue::Int(i) => {
                w.text(&i.to_string());
            }
            SoapValue::Float(x) => {
                w.text(&format!("{x:?}"));
            }
            SoapValue::Bool(b) => {
                w.text(if *b { "true" } else { "false" });
            }
            SoapValue::Table(t) => t.write_to(w),
            SoapValue::EncodedTable(t) => table(w, t),
            SoapValue::Xml(x) => x.write_to(w),
            SoapValue::Null => {}
        }
        w.close().expect("opened above");
    }

    /// Decodes the parameter element whose start tag `r` just returned,
    /// reading through its end tag.
    fn read_from(
        r: &mut XmlReader<'_>,
        name: &str,
        attrs: Attributes<'_>,
    ) -> Result<SoapValue, SoapError> {
        let ty = attrs.get("sq:type").ok_or_else(|| SoapError::Protocol {
            detail: format!("parameter {name} missing sq:type"),
        })?;
        let scalar = |r: &mut XmlReader<'_>, what: &str, parse: fn(&str) -> Option<SoapValue>| {
            let text = r.read_text()?;
            parse(&text).ok_or_else(|| SoapError::Protocol {
                detail: format!("parameter {name} is not a valid {what}: {text:?}"),
            })
        };
        Ok(match &*ty {
            "string" => SoapValue::Str(r.read_text()?.into_owned()),
            "long" => scalar(r, "long", |t| t.parse().ok().map(SoapValue::Int))?,
            "double" => scalar(r, "double", |t| t.parse().ok().map(SoapValue::Float))?,
            "boolean" => scalar(r, "boolean", |t| t.parse().ok().map(SoapValue::Bool))?,
            "table" => {
                let table = read_first_child(r, |r, child, attrs| {
                    if child != "VOTABLE" {
                        return Err(SoapError::Xml(XmlError::SchemaViolation {
                            detail: format!("expected VOTABLE root, found {child}"),
                        }));
                    }
                    Ok(VoTable::read_from(r, attrs)?)
                })?;
                SoapValue::Table(table.ok_or_else(|| SoapError::Protocol {
                    detail: format!("table parameter {name} has no VOTABLE child"),
                })?)
            }
            "xml" => {
                let x = read_first_child(r, |r, child, attrs| {
                    Ok(Element::read_from(r, child, attrs)?)
                })?;
                SoapValue::Xml(x.ok_or_else(|| SoapError::Protocol {
                    detail: format!("xml parameter {name} has no child"),
                })?)
            }
            "nil" => {
                r.skip_element()?;
                SoapValue::Null
            }
            other => {
                return Err(SoapError::Protocol {
                    detail: format!("unknown parameter type {other}"),
                })
            }
        })
    }

    /// String view (`None` on type mismatch).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            SoapValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (`None` on type mismatch).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            SoapValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: floats directly, integers widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            SoapValue::Float(x) => Some(*x),
            SoapValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Boolean view (`None` on type mismatch).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            SoapValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Table view (`None` on type mismatch).
    pub fn as_table(&self) -> Option<&VoTable> {
        match self {
            SoapValue::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The table, by value (`None` on type mismatch).
    pub fn into_table(self) -> Option<VoTable> {
        match self {
            SoapValue::Table(t) => Some(t),
            _ => None,
        }
    }

    /// XML-payload view (`None` on type mismatch).
    pub fn as_xml(&self) -> Option<&Element> {
        match self {
            SoapValue::Xml(x) => Some(x),
            _ => None,
        }
    }
}

/// Hands the first child element of the element whose start tag `r` just
/// returned to `read`, then skips to that element's end tag. `None` when
/// there is no child element.
fn read_first_child<'a, T>(
    r: &mut XmlReader<'a>,
    read: impl FnOnce(&mut XmlReader<'a>, &'a str, Attributes<'a>) -> Result<T, SoapError>,
) -> Result<Option<T>, SoapError> {
    let mut read = Some(read);
    let mut out = None;
    while let Some(event) = r.next_in_element()? {
        if let Event::Start { name, attrs } = event {
            match read.take() {
                Some(read) => out = Some(read(r, name, attrs)?),
                None => r.skip_element()?,
            }
        }
    }
    Ok(out)
}

/// Reads the parameter elements of a method element through its end tag.
fn read_params(r: &mut XmlReader<'_>) -> Result<Vec<(String, SoapValue)>, SoapError> {
    let mut params = Vec::new();
    while let Some(event) = r.next_in_element()? {
        if let Event::Start { name, attrs } = event {
            params.push((name.to_string(), SoapValue::read_from(r, name, attrs)?));
        }
    }
    Ok(params)
}

/// Encodes a method element named `element` carrying `params`.
fn encode_method(
    element: &str,
    params: &[(String, SoapValue)],
    table: &mut impl FnMut(&mut XmlWriter, &EncodedTable),
) -> String {
    let mut w = XmlWriter::new();
    write_envelope(&mut w, None, |w| {
        w.open(element).attr("xmlns:sq", SKYQUERY_NS);
        for (name, value) in params {
            value.write_to(w, name, table);
        }
        w.close().expect("opened above");
    });
    w.finish().expect("messages are balanced by construction")
}

fn copy_table(w: &mut XmlWriter, t: &EncodedTable) {
    w.raw(t.as_str());
}

/// An RPC method call.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcCall {
    /// The invoked method name.
    pub method: String,
    /// Named, typed parameters in call order.
    pub params: Vec<(String, SoapValue)>,
}

impl RpcCall {
    /// A call with no parameters yet.
    pub fn new(method: impl Into<String>) -> RpcCall {
        RpcCall {
            method: method.into(),
            params: Vec::new(),
        }
    }

    /// Builder: appends a parameter.
    pub fn param(mut self, name: impl Into<String>, value: SoapValue) -> RpcCall {
        self.params.push((name.into(), value));
        self
    }

    /// Parameter by name.
    pub fn get(&self, name: &str) -> Option<&SoapValue> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Required parameter, with a protocol error naming it when absent.
    pub fn require(&self, name: &str) -> Result<&SoapValue, SoapError> {
        self.get(name).ok_or_else(|| SoapError::Protocol {
            detail: format!("call {} missing parameter {name}", self.method),
        })
    }

    /// The `SOAPAction` header value for this call.
    pub fn soap_action(&self) -> String {
        format!("{SKYQUERY_NS}#{}", self.method)
    }

    /// Encodes to a wire XML document.
    pub fn to_xml(&self) -> String {
        encode_method(
            &format!("sq:{}", self.method),
            &self.params,
            &mut copy_table,
        )
    }

    /// Decodes a wire document into a call.
    pub fn parse(xml: &str) -> Result<RpcCall, SoapError> {
        read_envelope(xml, skip_header, |r, name, _| {
            Ok(RpcCall {
                method: local_name(name).to_string(),
                params: read_params(r)?,
            })
        })
    }
}

fn skip_header(r: &mut XmlReader<'_>, _: &str, _: Attributes<'_>) -> Result<(), SoapError> {
    Ok(r.skip_element()?)
}

/// A successful RPC response: the method name plus named results.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcResponse {
    /// The method this responds to.
    pub method: String,
    /// Named, typed results.
    pub results: Vec<(String, SoapValue)>,
}

impl RpcResponse {
    /// A response with no results yet.
    pub fn new(method: impl Into<String>) -> RpcResponse {
        RpcResponse {
            method: method.into(),
            results: Vec::new(),
        }
    }

    /// Builder: appends a named result.
    pub fn result(mut self, name: impl Into<String>, value: SoapValue) -> RpcResponse {
        self.results.push((name.into(), value));
        self
    }

    /// Result by name.
    pub fn get(&self, name: &str) -> Option<&SoapValue> {
        self.results.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Removes and returns the result named `name` — how a receiver
    /// takes a decoded table without copying it.
    pub fn take(&mut self, name: &str) -> Option<SoapValue> {
        let i = self.results.iter().position(|(n, _)| n == name)?;
        Some(self.results.remove(i).1)
    }

    /// Required result, with a protocol error naming it when absent.
    pub fn require(&self, name: &str) -> Result<&SoapValue, SoapError> {
        self.get(name).ok_or_else(|| SoapError::Protocol {
            detail: format!("response {} missing result {name}", self.method),
        })
    }

    fn element(&self) -> String {
        format!("sq:{}Response", self.method)
    }

    /// Encodes to a wire XML document.
    pub fn to_xml(&self) -> String {
        encode_method(&self.element(), &self.results, &mut copy_table)
    }

    /// The length of [`RpcResponse::to_xml`], with pre-encoded tables
    /// counted rather than copied: what a sender checks against the
    /// receiver's parser limit before deciding to chunk a reply.
    pub fn encoded_len(&self) -> usize {
        let mut tables = 0;
        let rest = encode_method(&self.element(), &self.results, &mut |w, t| {
            w.raw("");
            tables += t.len();
        });
        rest.len() + tables
    }

    /// Decodes a wire document into either a response or a fault.
    pub fn parse(xml: &str) -> Result<std::result::Result<RpcResponse, SoapFault>, SoapError> {
        read_envelope(xml, skip_header, |r, name, attrs| {
            let local = local_name(name);
            if local == "Fault" {
                let fault = Element::read_from(r, name, attrs)?;
                return Ok(Err(SoapFault::from_element(&fault)?));
            }
            let method = local
                .strip_suffix("Response")
                .ok_or_else(|| SoapError::Protocol {
                    detail: format!("body element {local} is neither a Response nor a Fault"),
                })?
                .to_string();
            Ok(Ok(RpcResponse {
                method,
                results: read_params(r)?,
            }))
        })
    }
}

/// A SOAP 1.1 fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoapFault {
    /// `Client`, `Server`, etc.
    pub code: String,
    /// Human-readable fault string.
    pub message: String,
    /// Optional detail (e.g. the failing SkyNode).
    pub detail: String,
}

impl SoapFault {
    /// A `Server`-code fault (the service failed).
    pub fn server(message: impl Into<String>) -> SoapFault {
        SoapFault {
            code: "Server".into(),
            message: message.into(),
            detail: String::new(),
        }
    }

    /// A `Client`-code fault (the request was bad).
    pub fn client(message: impl Into<String>) -> SoapFault {
        SoapFault {
            code: "Client".into(),
            message: message.into(),
            detail: String::new(),
        }
    }

    /// Builder: attaches detail text.
    pub fn with_detail(mut self, detail: impl Into<String>) -> SoapFault {
        self.detail = detail.into();
        self
    }

    /// Encodes to a wire XML document (ridden on HTTP 500).
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        write_envelope(&mut w, None, |w| {
            w.open("soap:Fault");
            w.leaf("faultcode", &format!("soap:{}", self.code))
                .and_then(|w| w.leaf("faultstring", &self.message))
                .and_then(|w| w.leaf("detail", &self.detail))
                .and_then(|w| w.close())
                .expect("leaves are balanced");
        });
        w.finish().expect("faults are balanced by construction")
    }

    fn from_element(e: &Element) -> Result<SoapFault, SoapError> {
        let code_raw = e.child_text("faultcode").map_err(SoapError::Xml)?;
        let code = local_name(code_raw).to_string();
        let message = e
            .child_text("faultstring")
            .map_err(SoapError::Xml)?
            .to_string();
        let detail = e
            .child("detail")
            .map(|d| d.text.clone())
            .unwrap_or_default();
        Ok(SoapFault {
            code,
            message,
            detail,
        })
    }
}

impl std::fmt::Display for SoapFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SOAP fault [{}]: {}", self.code, self.message)?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyquery_xml::{VoColumn, VoType};

    fn table() -> VoTable {
        let mut t = VoTable::new(
            "partial",
            vec![
                VoColumn::new("id", VoType::Id),
                VoColumn::new("ra", VoType::Float),
            ],
        );
        t.push_row(vec![Some("7".into()), Some("185.25".into())])
            .unwrap();
        t
    }

    #[test]
    fn call_roundtrip_all_types() {
        let call = RpcCall::new("CrossMatch")
            .param(
                "plan",
                SoapValue::Xml(Element::new("Plan").with_leaf("step", "1")),
            )
            .param("threshold", SoapValue::Float(3.5))
            .param("depth", SoapValue::Int(12))
            .param("verbose", SoapValue::Bool(true))
            .param("note", SoapValue::Str("hello <world>".into()))
            .param("partial", SoapValue::Table(table()))
            .param("missing", SoapValue::Null);
        let back = RpcCall::parse(&call.to_xml()).unwrap();
        assert_eq!(back, call);
        assert_eq!(back.require("threshold").unwrap().as_f64(), Some(3.5));
        assert_eq!(back.require("depth").unwrap().as_i64(), Some(12));
        assert_eq!(
            back.get("partial").unwrap().as_table().unwrap().row_count(),
            1
        );
        assert!(back.require("nope").is_err());
    }

    #[test]
    fn pre_encoded_tables_write_the_same_bytes() {
        let t = table();
        let plain = RpcResponse::new("CrossMatch")
            .result("partial", SoapValue::Table(t.clone()))
            .result("n", SoapValue::Int(1));
        let mut encoded = RpcResponse::new("CrossMatch")
            .result("partial", SoapValue::EncodedTable(Arc::new(t.encode())))
            .result("n", SoapValue::Int(1));
        assert_eq!(encoded.to_xml(), plain.to_xml());
        assert_eq!(encoded.encoded_len(), plain.to_xml().len());
        assert_eq!(plain.encoded_len(), plain.to_xml().len());
        // Decoding always yields the typed table, which can be taken out.
        let mut back = RpcResponse::parse(&encoded.to_xml()).unwrap().unwrap();
        let got = back
            .take("partial")
            .and_then(SoapValue::into_table)
            .unwrap();
        assert_eq!(got, t);
        assert_eq!(got.wire_len(), Some(t.to_xml().len()));
        assert!(back.get("partial").is_none());
        assert!(encoded.take("missing").is_none());
    }

    #[test]
    fn soap_action_format() {
        assert_eq!(RpcCall::new("Query").soap_action(), "urn:skyquery#Query");
    }

    #[test]
    fn response_roundtrip() {
        let resp = RpcResponse::new("Query").result("count", SoapValue::Int(538));
        let parsed = RpcResponse::parse(&resp.to_xml()).unwrap().unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(parsed.require("count").unwrap().as_i64(), Some(538));
    }

    #[test]
    fn fault_roundtrip() {
        let fault = SoapFault::server("archive offline").with_detail("host sdss unreachable");
        let parsed = RpcResponse::parse(&fault.to_xml()).unwrap().unwrap_err();
        assert_eq!(parsed, fault);
        assert!(parsed.to_string().contains("archive offline"));
    }

    #[test]
    fn response_parse_rejects_non_response() {
        let call = RpcCall::new("Query").to_xml();
        assert!(RpcResponse::parse(&call).is_err());
    }

    #[test]
    fn float_params_roundtrip_exactly() {
        let x = 0.1 + 0.2; // classic non-representable sum
        let call = RpcCall::new("M").param("x", SoapValue::Float(x));
        let back = RpcCall::parse(&call.to_xml()).unwrap();
        assert_eq!(back.get("x").unwrap().as_f64(), Some(x));
    }

    #[test]
    fn decode_rejects_bad_types() {
        let xml = RpcCall::new("M")
            .param("x", SoapValue::Int(1))
            .to_xml()
            .replace(">1<", ">one<");
        assert!(RpcCall::parse(&xml).is_err());
        let xml2 = RpcCall::new("M")
            .param("x", SoapValue::Int(1))
            .to_xml()
            .replace("sq:type=\"long\"", "sq:type=\"mystery\"");
        assert!(RpcCall::parse(&xml2).is_err());
    }

    #[test]
    fn table_param_without_votable_rejected() {
        let xml = format!(
            r#"<soap:Envelope xmlns:soap="{}"><soap:Body><sq:M xmlns:sq="{}"><t sq:type="table"/></sq:M></soap:Body></soap:Envelope>"#,
            crate::SOAP_ENV_NS,
            SKYQUERY_NS
        );
        assert!(RpcCall::parse(&xml).is_err());
    }
}
