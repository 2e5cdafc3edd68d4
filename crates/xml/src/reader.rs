//! A strict pull parser for the XML subset SkyQuery messages use.
//!
//! [`XmlReader::read_event`] is the zero-copy interface: element names,
//! attribute text and character data borrow from the input, and only a
//! run holding an entity reference is copied to expand it. The wire
//! decoders (tables, SOAP calls) walk these events directly;
//! [`XmlReader::next_event`] is the owned form for callers that keep
//! events around.

use std::borrow::Cow;

use crate::escape::unescape_cow;
use crate::XmlError;

/// An owned event produced by [`XmlReader::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent {
    /// `<name attr="v" …>` (also produced for self-closing tags, followed
    /// immediately by the matching `EndElement`).
    StartElement {
        /// The element name as written (including any prefix).
        name: String,
        /// Attributes in document order, values unescaped.
        attributes: Vec<(String, String)>,
    },
    /// `</name>` or the synthetic close of a self-closing tag.
    EndElement {
        /// The closed element's name.
        name: String,
    },
    /// Unescaped character data (entities expanded, CDATA verbatim).
    /// Whitespace-only runs are reported as-is; structural consumers
    /// decide whether they are formatting noise.
    Text(String),
    /// End of input. Returned exactly once; the document must be balanced.
    Eof,
}

/// A borrowed event produced by [`XmlReader::read_event`]: the same
/// sequence as [`XmlEvent`], pointing into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// A start tag (self-closing tags are followed by a synthetic `End`).
    Start {
        /// The element name as written (including any prefix).
        name: &'a str,
        /// The tag's attributes, already checked for well-formedness.
        attrs: Attributes<'a>,
    },
    /// A close tag, or the synthetic close of a self-closing tag.
    End {
        /// The closed element's name.
        name: &'a str,
    },
    /// Character data: borrowed unless an entity had to be expanded.
    Text(Cow<'a, str>),
    /// End of input.
    Eof,
}

impl Event<'_> {
    /// The owned form of this event.
    pub fn into_owned(self) -> XmlEvent {
        match self {
            Event::Start { name, attrs } => XmlEvent::StartElement {
                name: name.to_string(),
                attributes: attrs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.into_owned()))
                    .collect(),
            },
            Event::End { name } => XmlEvent::EndElement {
                name: name.to_string(),
            },
            Event::Text(t) => XmlEvent::Text(t.into_owned()),
            Event::Eof => XmlEvent::Eof,
        }
    }
}

/// The attributes of one start tag: the raw attribute section of the
/// tag, validated (syntax and entities) when the tag was read and decoded
/// on access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attributes<'a> {
    raw: &'a str,
}

impl<'a> Attributes<'a> {
    /// `(name, unescaped value)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, Cow<'a, str>)> {
        let mut rest = self.raw;
        std::iter::from_fn(move || {
            rest = rest.trim_start_matches(is_ws);
            let eq = rest.find('=')?;
            let name = rest[..eq].trim_end_matches(is_ws);
            let after = rest[eq + 1..].trim_start_matches(is_ws);
            let quote = after.chars().next()?;
            let close = after[1..].find(quote)? + 1;
            let value = &after[1..close];
            rest = &after[close + 1..];
            let value = unescape_cow(value).unwrap_or(Cow::Borrowed(value));
            Some((name, value))
        })
    }

    /// The unescaped value of attribute `name`.
    pub fn get(&self, name: &str) -> Option<Cow<'a, str>> {
        self.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

fn is_ws(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

/// Pull parser over a complete in-memory document.
///
/// ```
/// use skyquery_xml::{XmlReader, XmlEvent};
/// let mut r = XmlReader::new("<a x=\"1\"><b>hi &amp; bye</b></a>");
/// assert!(matches!(r.next_event().unwrap(), XmlEvent::StartElement { .. }));
/// ```
#[derive(Debug)]
pub struct XmlReader<'a> {
    src: &'a str,
    input: &'a [u8],
    pos: usize,
    stack: Vec<&'a str>,
    /// Pending synthetic end element from a self-closing tag.
    pending_end: Option<&'a str>,
    finished: bool,
    /// Byte offset at which the last returned event began.
    event_start: usize,
}

impl<'a> XmlReader<'a> {
    /// A reader over a complete document.
    pub fn new(input: &'a str) -> XmlReader<'a> {
        XmlReader {
            src: input,
            input: input.as_bytes(),
            pos: 0,
            stack: Vec::new(),
            pending_end: None,
            finished: false,
            event_start: 0,
        }
    }

    /// Current byte offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Byte offset at which the most recently returned event began (the
    /// `<` of a tag): with [`XmlReader::offset`] after the matching end,
    /// the span an element occupies in the input.
    pub fn event_offset(&self) -> usize {
        self.event_start
    }

    fn err(&self, detail: impl Into<String>) -> XmlError {
        XmlError::Malformed {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_until(&mut self, s: &str) -> Result<(), XmlError> {
        match self.src[self.pos..].find(s) {
            Some(i) => {
                self.pos += i + s.len();
                Ok(())
            }
            None => {
                self.pos = self.input.len();
                Err(XmlError::UnexpectedEof {
                    context: format!("scanning for {s}"),
                })
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            let ok = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let first = self.input[start];
        if first.is_ascii_digit() || first == b'-' || first == b'.' {
            return Err(self.err("names may not start with a digit, '-' or '.'"));
        }
        // Names are ASCII, so the slice falls on character boundaries.
        Ok(&self.src[start..self.pos])
    }

    /// Produces the next event as an owned [`XmlEvent`].
    pub fn next_event(&mut self) -> Result<XmlEvent, XmlError> {
        self.read_event().map(Event::into_owned)
    }

    /// Produces the next event, borrowing from the input.
    pub fn read_event(&mut self) -> Result<Event<'a>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            self.stack.pop();
            return Ok(Event::End { name });
        }
        loop {
            self.event_start = self.pos;
            if self.pos >= self.input.len() {
                if self.finished {
                    return Err(self.err("read past end of document"));
                }
                if let Some(open) = self.stack.last() {
                    return Err(XmlError::UnexpectedEof {
                        context: format!("element <{open}> never closed"),
                    });
                }
                self.finished = true;
                return Ok(Event::Eof);
            }
            if self.peek() == Some(b'<') {
                // Markup.
                if self.starts_with("<!--") {
                    self.skip_until("-->")?;
                    continue;
                }
                if self.starts_with("<![CDATA[") {
                    self.pos += "<![CDATA[".len();
                    let start = self.pos;
                    self.skip_until("]]>")?;
                    return Ok(Event::Text(Cow::Borrowed(&self.src[start..self.pos - 3])));
                }
                if self.starts_with("<?") {
                    self.skip_until("?>")?;
                    continue;
                }
                if self.starts_with("<!") {
                    // DOCTYPE and friends: unsupported, skip to '>'.
                    self.skip_until(">")?;
                    continue;
                }
                if self.starts_with("</") {
                    self.pos += 2;
                    let name = self.read_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after close-tag name"));
                    }
                    self.pos += 1;
                    return match self.stack.pop() {
                        Some(open) if open == name => Ok(Event::End { name }),
                        Some(open) => Err(XmlError::TagMismatch {
                            expected: open.to_string(),
                            found: name.to_string(),
                        }),
                        None => Err(self.err(format!("close tag </{name}> with no open element"))),
                    };
                }
                // Start tag.
                self.pos += 1;
                let name = self.read_name()?;
                let attrs_start = self.pos;
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b'>') => {
                            let attrs = Attributes {
                                raw: &self.src[attrs_start..self.pos],
                            };
                            self.pos += 1;
                            self.stack.push(name);
                            return Ok(Event::Start { name, attrs });
                        }
                        Some(b'/') => {
                            let attrs = Attributes {
                                raw: &self.src[attrs_start..self.pos],
                            };
                            self.pos += 1;
                            if self.peek() != Some(b'>') {
                                return Err(self.err("expected '>' after '/'"));
                            }
                            self.pos += 1;
                            self.stack.push(name);
                            self.pending_end = Some(name);
                            return Ok(Event::Start { name, attrs });
                        }
                        Some(_) => self.scan_attribute()?,
                        None => {
                            return Err(XmlError::UnexpectedEof {
                                context: format!("inside tag <{name}"),
                            })
                        }
                    }
                }
            }
            // Character data.
            let start = self.pos;
            self.pos = match self.src[start..].find('<') {
                Some(i) => start + i,
                None => self.input.len(),
            };
            let raw = &self.src[start..self.pos];
            if self.stack.is_empty() {
                // Whitespace between top-level constructs is fine; anything
                // else is malformed.
                if raw.trim().is_empty() {
                    continue;
                }
                return Err(self.err("character data outside the root element"));
            }
            // Whitespace-only runs are reported too: only a consumer that
            // knows the element structure (e.g. the DOM builder) can tell
            // formatting noise from a meaningful all-space leaf value.
            return Ok(Event::Text(unescape_cow(raw)?));
        }
    }

    /// Checks one `name="value"` attribute, leaving the cursor after it.
    fn scan_attribute(&mut self) -> Result<(), XmlError> {
        let aname = self.read_name()?;
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(self.err(format!("attribute {aname} missing '='")));
        }
        self.pos += 1;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("attribute value must be quoted")),
        };
        self.pos += 1;
        let start = self.pos;
        while self.peek().is_some_and(|c| c != quote) {
            self.pos += 1;
        }
        if self.peek().is_none() {
            return Err(XmlError::UnexpectedEof {
                context: format!("attribute {aname}"),
            });
        }
        unescape_cow(&self.src[start..self.pos])?;
        self.pos += 1;
        Ok(())
    }

    /// The next event inside the innermost open element: `None` once its
    /// end tag has been read. Never `Eof`: input that ends inside an
    /// element is an error, and so is a call with no element open.
    pub fn next_in_element(&mut self) -> Result<Option<Event<'a>>, XmlError> {
        match self.read_event()? {
            Event::End { .. } => Ok(None),
            Event::Eof => Err(self.err("no element is open")),
            event => Ok(Some(event)),
        }
    }

    /// Consumes events through the end of the element whose start tag
    /// was just read (iteratively, so nesting depth costs no stack).
    pub fn skip_element(&mut self) -> Result<(), XmlError> {
        let mut depth = 1usize;
        while depth > 0 {
            match self.next_in_element()? {
                Some(Event::Start { .. }) => depth += 1,
                Some(_) => {}
                None => depth -= 1,
            }
        }
        Ok(())
    }

    /// Reads the character data of the element whose start tag was just
    /// returned, through its end tag. Nested elements are skipped, and
    /// whitespace around them is formatting (empty text), as in the
    /// element tree; the text is borrowed unless it had to be expanded
    /// or joined.
    pub fn read_text(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let mut text: Option<Cow<'a, str>> = None;
        let mut nested = false;
        while let Some(event) = self.next_in_element()? {
            match event {
                Event::Text(t) => match &mut text {
                    None => text = Some(t),
                    Some(acc) => acc.to_mut().push_str(&t),
                },
                // A nested element.
                _ => {
                    nested = true;
                    self.skip_element()?;
                }
            }
        }
        Ok(match text {
            Some(t) if !(nested && t.trim().is_empty()) => t,
            _ => Cow::Borrowed(""),
        })
    }

    /// Consumes the rest of a document whose root element has closed:
    /// only whitespace may follow it.
    pub fn finish(&mut self) -> Result<(), XmlError> {
        loop {
            match self.read_event()? {
                Event::Eof => return Ok(()),
                Event::Text(t) if t.trim().is_empty() => {}
                other => {
                    return Err(XmlError::Malformed {
                        offset: self.pos,
                        detail: format!("content after root element: {:?}", other.into_owned()),
                    })
                }
            }
        }
    }

    /// Collects all events until `Eof`, verifying well-formedness.
    pub fn read_all(mut self) -> Result<Vec<XmlEvent>, XmlError> {
        let mut out = Vec::new();
        loop {
            let ev = self.next_event()?;
            let done = ev == XmlEvent::Eof;
            out.push(ev);
            if done {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(s: &str) -> Vec<XmlEvent> {
        XmlReader::new(s).read_all().unwrap()
    }

    #[test]
    fn simple_nesting() {
        let evs = events(r#"<a x="1"><b>hi</b></a>"#);
        assert_eq!(
            evs,
            vec![
                XmlEvent::StartElement {
                    name: "a".into(),
                    attributes: vec![("x".into(), "1".into())]
                },
                XmlEvent::StartElement {
                    name: "b".into(),
                    attributes: vec![]
                },
                XmlEvent::Text("hi".into()),
                XmlEvent::EndElement { name: "b".into() },
                XmlEvent::EndElement { name: "a".into() },
                XmlEvent::Eof,
            ]
        );
    }

    #[test]
    fn self_closing_produces_both_events() {
        let evs = events("<a><b/></a>");
        assert_eq!(
            evs[1],
            XmlEvent::StartElement {
                name: "b".into(),
                attributes: vec![]
            }
        );
        assert_eq!(evs[2], XmlEvent::EndElement { name: "b".into() });
    }

    #[test]
    fn entities_expanded() {
        let evs = events("<a>x &amp; y &lt;z&gt;</a>");
        assert_eq!(evs[1], XmlEvent::Text("x & y <z>".into()));
    }

    #[test]
    fn attributes_unescaped_and_quoted_either_way() {
        let evs = events(r#"<a x="a&amp;b" y='c"d'/>"#);
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0], ("x".into(), "a&b".into()));
                assert_eq!(attributes[1], ("y".into(), "c\"d".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_declarations_doctype_skipped() {
        let evs = events("<?xml version=\"1.0\"?><!-- hello --><!DOCTYPE a><a><!-- inner -->t</a>");
        assert_eq!(evs.len(), 4); // start, text, end, eof
        assert_eq!(evs[1], XmlEvent::Text("t".into()));
    }

    #[test]
    fn cdata_is_verbatim() {
        let evs = events("<a><![CDATA[1 < 2 & 3]]></a>");
        assert_eq!(evs[1], XmlEvent::Text("1 < 2 & 3".into()));
    }

    #[test]
    fn whitespace_between_elements_reported() {
        let evs = events("<a>\n  <b>x</b>\n</a>");
        // The pull layer reports the formatting runs; the DOM builder is
        // responsible for discarding them.
        assert!(evs
            .iter()
            .any(|e| matches!(e, XmlEvent::Text(t) if t.trim().is_empty())));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = XmlReader::new("<a><b></a></b>").read_all().unwrap_err();
        assert!(matches!(err, XmlError::TagMismatch { .. }));
    }

    #[test]
    fn unclosed_rejected() {
        let err = XmlReader::new("<a><b>").read_all().unwrap_err();
        assert!(matches!(err, XmlError::UnexpectedEof { .. }));
    }

    #[test]
    fn stray_close_rejected() {
        assert!(XmlReader::new("</a>").read_all().is_err());
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(XmlReader::new("hello<a/>").read_all().is_err());
        // but whitespace is fine
        assert!(XmlReader::new("  <a/>  ").read_all().is_ok());
    }

    #[test]
    fn bad_attribute_syntax_rejected() {
        assert!(XmlReader::new("<a x=1/>").read_all().is_err());
        assert!(XmlReader::new("<a x/>").read_all().is_err());
        assert!(XmlReader::new("<a 1x=\"y\"/>").read_all().is_err());
    }

    #[test]
    fn namespaced_names_pass_through() {
        let evs = events(r#"<soap:Envelope xmlns:soap="u"><soap:Body/></soap:Envelope>"#);
        match &evs[0] {
            XmlEvent::StartElement { name, .. } => assert_eq!(name, "soap:Envelope"),
            _ => panic!(),
        }
    }

    #[test]
    fn element_helpers_walk_one_element() {
        let mut r = XmlReader::new("<a><b>x &amp; <i>y</i> z</b><c/>tail</a>");
        assert!(matches!(
            r.read_event().unwrap(),
            Event::Start { name: "a", .. }
        ));
        assert!(matches!(
            r.next_in_element().unwrap(),
            Some(Event::Start { name: "b", .. })
        ));
        // The element's own text runs are joined, the nested element
        // skipped, as in the element tree.
        assert_eq!(r.read_text().unwrap(), "x &  z");
        assert!(matches!(
            r.next_in_element().unwrap(),
            Some(Event::Start { name: "c", .. })
        ));
        r.skip_element().unwrap();
        assert_eq!(
            r.next_in_element().unwrap(),
            Some(Event::Text("tail".into()))
        );
        assert_eq!(r.next_in_element().unwrap(), None);
        r.finish().unwrap();
        // Misuse is an error, not a panic.
        assert!(r.next_in_element().is_err());
    }

    #[test]
    fn events_borrow_unless_an_entity_is_expanded() {
        let mut r = XmlReader::new(r#"<a k="v&amp;w" j='plain'>text</a>"#);
        let Event::Start { attrs, .. } = r.read_event().unwrap() else {
            panic!("expected a start tag");
        };
        assert!(matches!(attrs.get("k"), Some(Cow::Owned(v)) if v == "v&w"));
        assert!(matches!(attrs.get("j"), Some(Cow::Borrowed("plain"))));
        assert_eq!(attrs.get("missing"), None);
        assert!(matches!(
            r.read_event().unwrap(),
            Event::Text(Cow::Borrowed("text"))
        ));
        assert_eq!(r.event_offset(), r#"<a k="v&amp;w" j='plain'>"#.len());
    }

    #[test]
    fn offset_reported_on_error() {
        let err = XmlReader::new("<a><b x=bad></b></a>")
            .read_all()
            .unwrap_err();
        match err {
            XmlError::Malformed { offset, .. } => assert!(offset > 0),
            other => panic!("unexpected {other:?}"),
        }
    }
}
