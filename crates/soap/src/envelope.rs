//! SOAP 1.1 envelope encoding and decoding.
//!
//! Both directions stream. `write_envelope` writes the envelope tags
//! around a body the caller writes into the same [`XmlWriter`];
//! `read_envelope` checks the envelope while walking reader events and
//! hands the body's payload element to the caller, so an RPC message is
//! decoded without building a tree of it. [`Envelope`] is the typed view
//! that keeps header and payload as element trees.

use skyquery_xml::dom::local_matches;
use skyquery_xml::{Attributes, Element, Event, XmlError, XmlReader, XmlWriter};

use crate::{SoapError, SOAP_ENV_NS};

/// A SOAP envelope: optional header, mandatory body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The single element inside `<soap:Header>`, if any.
    pub header: Option<Element>,
    /// The single element inside `<soap:Body>`.
    pub body: Element,
}

impl Envelope {
    /// Wraps a body payload.
    pub fn new(body: Element) -> Envelope {
        Envelope { header: None, body }
    }

    /// Adds a header block.
    pub fn with_header(mut self, header: Element) -> Envelope {
        self.header = Some(header);
        self
    }

    /// Serializes to the on-the-wire XML document.
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        write_envelope(&mut w, self.header.as_ref(), |w| self.body.write_to(w));
        w.finish().expect("envelopes are balanced by construction")
    }

    /// Parses and validates a wire document.
    pub fn parse(xml: &str) -> Result<Envelope, SoapError> {
        let mut header = None;
        let body = read_envelope(
            xml,
            |r, name, attrs| {
                header = Some(Element::read_from(r, name, attrs)?);
                Ok(())
            },
            |r, name, attrs| Ok(Element::read_from(r, name, attrs)?),
        )?;
        Ok(Envelope { header, body })
    }
}

/// Writes `<soap:Envelope>` (with `header`, if any) around the body
/// payload `body` writes.
pub(crate) fn write_envelope(
    w: &mut XmlWriter,
    header: Option<&Element>,
    body: impl FnOnce(&mut XmlWriter),
) {
    w.open("soap:Envelope").attr("xmlns:soap", SOAP_ENV_NS);
    if let Some(h) = header {
        w.open("soap:Header");
        h.write_to(w);
        w.close().expect("header opened above");
    }
    w.open("soap:Body");
    body(w);
    w.close().expect("body opened above");
    w.close().expect("envelope opened above");
}

/// Walks a wire document: the root must be a SOAP `Envelope` declaring
/// the envelope namespace, and its (first) `Body` must hold exactly one
/// element. `header` is handed the first element of the first `Header`;
/// `payload` is handed the body element's start tag and must read through
/// its end tag. Other envelope children are skipped, and the document
/// must end after the envelope.
pub(crate) fn read_envelope<'a, T>(
    xml: &'a str,
    mut header: impl FnMut(&mut XmlReader<'a>, &'a str, Attributes<'a>) -> Result<(), SoapError>,
    payload: impl FnOnce(&mut XmlReader<'a>, &'a str, Attributes<'a>) -> Result<T, SoapError>,
) -> Result<T, SoapError> {
    let mut r = XmlReader::new(xml);
    let attrs = loop {
        match r.read_event()? {
            Event::Start { name, attrs } if local_matches(name, "Envelope") => break attrs,
            Event::Start { name, .. } => {
                return Err(SoapError::Protocol {
                    detail: format!("root element is {name}, not Envelope"),
                })
            }
            Event::Eof => {
                return Err(SoapError::Xml(XmlError::UnexpectedEof {
                    context: "document has no root element".into(),
                }))
            }
            _ => {}
        }
    };
    // The namespace declaration must be present and correct.
    let ns_ok = attrs
        .iter()
        .any(|(k, v)| (k == "xmlns" || k.starts_with("xmlns:")) && v == SOAP_ENV_NS);
    if !ns_ok {
        return Err(SoapError::Protocol {
            detail: "missing SOAP envelope namespace".into(),
        });
    }
    let mut payload = Some(payload);
    let mut body = None;
    let mut header_seen = false;
    while let Some(event) = r.next_in_element()? {
        match event {
            Event::Start { name, .. } if body.is_none() && local_matches(name, "Body") => {
                let mut value = None;
                while let Some(event) = r.next_in_element()? {
                    if let Event::Start { name, attrs } = event {
                        let Some(read) = payload.take() else {
                            return Err(SoapError::Protocol {
                                detail: "Body carries more than one payload element".into(),
                            });
                        };
                        value = Some(read(&mut r, name, attrs)?);
                    }
                }
                body = Some(value.ok_or_else(|| SoapError::Protocol {
                    detail: "Body is empty".into(),
                })?);
            }
            Event::Start { name, .. } if !header_seen && local_matches(name, "Header") => {
                header_seen = true;
                let mut first = true;
                while let Some(event) = r.next_in_element()? {
                    match event {
                        Event::Start { name, attrs } if first => {
                            first = false;
                            header(&mut r, name, attrs)?;
                        }
                        Event::Start { .. } => r.skip_element()?,
                        _ => {}
                    }
                }
            }
            Event::Start { .. } => r.skip_element()?,
            _ => {}
        }
    }
    r.finish()?;
    body.ok_or_else(|| SoapError::Protocol {
        detail: "envelope has no Body".into(),
    })
}

/// The local part of a possibly prefixed element name.
pub(crate) fn local_name(name: &str) -> &str {
    name.rsplit_once(':')
        .map(|(_, local)| local)
        .unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let env = Envelope::new(
            Element::new("m:CrossMatch")
                .with_attr("xmlns:m", "urn:skyquery")
                .with_leaf("threshold", "3.5"),
        );
        let xml = env.to_xml();
        assert!(xml.starts_with("<soap:Envelope"));
        let back = Envelope::parse(&xml).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn header_preserved() {
        let env =
            Envelope::new(Element::new("x")).with_header(Element::new("TraceId").with_text("abc"));
        let back = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(back.header.unwrap().text, "abc");
    }

    #[test]
    fn rejects_non_envelope() {
        assert!(Envelope::parse("<NotSoap/>").is_err());
    }

    #[test]
    fn rejects_missing_namespace() {
        assert!(
            Envelope::parse("<soap:Envelope><soap:Body><x/></soap:Body></soap:Envelope>").is_err()
        );
    }

    #[test]
    fn rejects_empty_or_crowded_body() {
        let empty = format!(
            r#"<soap:Envelope xmlns:soap="{SOAP_ENV_NS}"><soap:Body></soap:Body></soap:Envelope>"#
        );
        assert!(Envelope::parse(&empty).is_err());
        let two = format!(
            r#"<soap:Envelope xmlns:soap="{SOAP_ENV_NS}"><soap:Body><a/><b/></soap:Body></soap:Envelope>"#
        );
        assert!(Envelope::parse(&two).is_err());
        let none = format!(r#"<soap:Envelope xmlns:soap="{SOAP_ENV_NS}"/>"#);
        assert!(Envelope::parse(&none).is_err());
    }

    #[test]
    fn accepts_default_namespace_form() {
        let xml = format!(r#"<Envelope xmlns="{SOAP_ENV_NS}"><Body><x/></Body></Envelope>"#);
        let env = Envelope::parse(&xml).unwrap();
        assert_eq!(env.body.name, "x");
    }
}
