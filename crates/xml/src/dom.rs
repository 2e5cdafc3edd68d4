//! A small element tree for message construction and navigation.

use crate::reader::{Attributes, Event, XmlReader};
use crate::writer::XmlWriter;
use crate::XmlError;

/// An XML element: name, attributes, child elements, and text content.
///
/// Mixed content is simplified: all text within an element is concatenated
/// into `text`, which is what SOAP-style protocols need.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Element name (possibly `prefix:local`).
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<Element>,
    /// Concatenated text content.
    pub text: String,
}

impl Element {
    /// An empty element with the given name.
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            ..Element::default()
        }
    }

    /// Builder: adds an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Element {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Builder: adds a child element.
    pub fn with_child(mut self, child: Element) -> Element {
        self.children.push(child);
        self
    }

    /// Builder: sets text content.
    pub fn with_text(mut self, text: impl Into<String>) -> Element {
        self.text = text.into();
        self
    }

    /// Builder: adds a `<name>text</name>` child.
    pub fn with_leaf(self, name: impl Into<String>, text: impl Into<String>) -> Element {
        self.with_child(Element::new(name).with_text(text))
    }

    /// The first child with the given name. Names match either exactly or
    /// ignoring a namespace prefix (`Body` matches `soap:Body`).
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children.iter().find(|c| local_matches(&c.name, name))
    }

    /// All children with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children
            .iter()
            .filter(move |c| local_matches(&c.name, name))
    }

    /// Like [`Element::child`] but an error naming the missing path.
    pub fn require_child(&self, name: &str) -> Result<&Element, XmlError> {
        self.child(name).ok_or_else(|| XmlError::MissingNode {
            path: format!("{}/{}", self.name, name),
        })
    }

    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Like [`Element::attr`] but an error naming the missing attribute.
    pub fn require_attr(&self, name: &str) -> Result<&str, XmlError> {
        self.attr(name).ok_or_else(|| XmlError::MissingNode {
            path: format!("{}/@{}", self.name, name),
        })
    }

    /// Text of a required child leaf.
    pub fn child_text(&self, name: &str) -> Result<&str, XmlError> {
        self.require_child(name).map(|c| c.text.as_str())
    }

    /// Serializes compactly (wire form).
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        self.write_to(&mut w);
        w.finish().expect("element trees are always balanced")
    }

    /// Serializes with indentation (debug form).
    pub fn to_pretty_xml(&self) -> String {
        let mut w = XmlWriter::pretty(2);
        w.declaration();
        self.write_to(&mut w);
        w.finish().expect("element trees are always balanced")
    }

    /// Writes this element (text first, then children) into `w`.
    pub fn write_to(&self, w: &mut XmlWriter) {
        w.open(&self.name);
        for (k, v) in &self.attributes {
            w.attr(k, v);
        }
        if !self.text.is_empty() {
            w.text(&self.text);
        }
        for c in &self.children {
            c.write_to(w);
        }
        w.close().expect("balanced by construction");
    }

    /// Parses a document into its root element.
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        let mut reader = XmlReader::new(input);
        // Find the root start element.
        let root = loop {
            match reader.read_event()? {
                Event::Start { name, attrs } => {
                    break Element::read_from(&mut reader, name, attrs)?
                }
                Event::Eof => {
                    return Err(XmlError::UnexpectedEof {
                        context: "document has no root element".into(),
                    })
                }
                _ => {}
            }
        };
        reader.finish()?;
        Ok(root)
    }

    /// Builds the element whose start tag `reader` just returned, reading
    /// through its end tag — how a streaming decoder keeps a small
    /// subtree (a plan, a manifest) as a tree.
    pub fn read_from(
        reader: &mut XmlReader<'_>,
        name: &str,
        attrs: Attributes<'_>,
    ) -> Result<Element, XmlError> {
        let open = |name: &str, attrs: Attributes<'_>| Element {
            name: name.to_string(),
            attributes: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.into_owned()))
                .collect(),
            children: Vec::new(),
            text: String::new(),
        };
        let mut stack = vec![open(name, attrs)];
        loop {
            match reader.read_event()? {
                Event::Start { name, attrs } => stack.push(open(name, attrs)),
                Event::Text(t) => {
                    let top = stack.last_mut().expect("text implies open element");
                    top.text.push_str(&t);
                }
                Event::End { .. } => {
                    let mut done = stack.pop().expect("reader guarantees balance");
                    // Whitespace around child elements is formatting noise
                    // (pretty printing); an all-space *leaf* keeps its text.
                    if !done.children.is_empty() && done.text.trim().is_empty() {
                        done.text.clear();
                    }
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(done),
                        None => return Ok(done),
                    }
                }
                Event::Eof => unreachable!("reader errors on unclosed elements"),
            }
        }
    }
}

/// Whether element name `actual` (possibly `prefix:local`) matches `wanted`
/// (compared against the full name and the local part).
pub fn local_matches(actual: &str, wanted: &str) -> bool {
    actual == wanted
        || actual
            .rsplit_once(':')
            .is_some_and(|(_, local)| local == wanted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("Envelope")
            .with_attr("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/")
            .with_child(
                Element::new("Body")
                    .with_leaf("Method", "CrossMatch")
                    .with_child(
                        Element::new("Param")
                            .with_attr("name", "threshold")
                            .with_text("3.5"),
                    ),
            )
    }

    #[test]
    fn roundtrip_parse_serialize() {
        let e = sample();
        let xml = e.to_xml();
        let back = Element::parse(&xml).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn roundtrip_pretty() {
        let e = sample();
        let back = Element::parse(&e.to_pretty_xml()).unwrap();
        // Pretty printing introduces no semantic change for element-only
        // content; leaf text survives exactly.
        assert_eq!(
            back.child("Body").unwrap().child_text("Method").unwrap(),
            "CrossMatch"
        );
    }

    #[test]
    fn navigation() {
        let e = sample();
        let body = e.require_child("Body").unwrap();
        assert_eq!(body.child_text("Method").unwrap(), "CrossMatch");
        let p = body.require_child("Param").unwrap();
        assert_eq!(p.require_attr("name").unwrap(), "threshold");
        assert_eq!(p.text, "3.5");
        assert!(body.require_child("Nope").is_err());
        assert!(p.require_attr("nope").is_err());
    }

    #[test]
    fn namespace_prefix_matching() {
        let e = Element::parse(
            r#"<soap:Envelope xmlns:soap="u"><soap:Body>x</soap:Body></soap:Envelope>"#,
        )
        .unwrap();
        assert!(e.child("Body").is_some());
        assert!(e.child("soap:Body").is_some());
        assert_eq!(e.child("Body").unwrap().text, "x");
    }

    #[test]
    fn children_named_filters() {
        let e = Element::new("r")
            .with_leaf("x", "1")
            .with_leaf("y", "2")
            .with_leaf("x", "3");
        let xs: Vec<&str> = e.children_named("x").map(|c| c.text.as_str()).collect();
        assert_eq!(xs, vec!["1", "3"]);
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Element::parse("<a/><b/>").is_err());
        assert!(Element::parse("<a/>junk").is_err());
        assert!(Element::parse("<a/>  ").is_ok());
    }

    #[test]
    fn parse_empty_input_fails() {
        assert!(Element::parse("").is_err());
        assert!(Element::parse("<!-- only a comment -->").is_err());
    }

    #[test]
    fn text_escaping_survives_roundtrip() {
        let e = Element::new("q").with_text(r#"a < b & "c" > 'd'"#);
        let back = Element::parse(&e.to_xml()).unwrap();
        assert_eq!(back.text, r#"a < b & "c" > 'd'"#);
    }
}
