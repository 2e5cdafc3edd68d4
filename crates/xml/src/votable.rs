//! VOTable-style tabular payloads.
//!
//! Partial cross-match results travel between SkyNodes as XML-encoded
//! tables (paper §5.3: "The SkyNode returns this result, as a serialized
//! XML encoded SOAP message"). The encoding here follows the spirit of the
//! VOTable format the Virtual Observatory adopted: a `FIELD` declaration
//! per column, then one `TR`/`TD` row group per tuple.
//!
//! Cells are typed ([`VoCell`]): each is formatted once on the way out
//! ([`TableEncoder`], straight into the message buffer) and parsed once on
//! the way in ([`VoTable::read_from`], straight from reader events).
//! `Float` cells use Rust's shortest round-trip formatting so values
//! survive serialize/parse exactly.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::dom::local_matches;
use crate::escape::{escape_attr_into, escape_text_into};
use crate::reader::{Attributes, Event, XmlReader};
use crate::writer::XmlWriter;
use crate::XmlError;

/// Column types a VOTable payload can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoType {
    /// `boolean`.
    Bool,
    /// `long` (signed 64-bit).
    Int,
    /// `double`.
    Float,
    /// `char` (text).
    Text,
    /// `unsignedLong` — 64-bit unsigned identifier.
    Id,
}

impl VoType {
    /// The VOTable datatype name.
    pub fn as_str(self) -> &'static str {
        match self {
            VoType::Bool => "boolean",
            VoType::Int => "long",
            VoType::Float => "double",
            VoType::Text => "char",
            VoType::Id => "unsignedLong",
        }
    }

    /// Parses a VOTable datatype name.
    pub fn parse(s: &str) -> Option<VoType> {
        match s {
            "boolean" => Some(VoType::Bool),
            "long" => Some(VoType::Int),
            "double" => Some(VoType::Float),
            "char" => Some(VoType::Text),
            "unsignedLong" => Some(VoType::Id),
            _ => None,
        }
    }
}

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoColumn {
    /// Column name.
    pub name: String,
    /// Cell type.
    pub vtype: VoType,
}

impl VoColumn {
    /// A column declaration.
    pub fn new(name: impl Into<String>, vtype: VoType) -> VoColumn {
        VoColumn {
            name: name.into(),
            vtype,
        }
    }
}

/// A typed cell. `Null` encodes SQL NULL (`<TD null="true"/>`).
///
/// Equality is the equality of the wire text: floats compare bit for bit
/// (so `-0.0 != 0.0`), except that every NaN equals every other NaN, as
/// all of them encode as `NaN`.
#[derive(Debug, Clone)]
pub enum VoCell {
    /// SQL NULL.
    Null,
    /// A `boolean` cell.
    Bool(bool),
    /// A `long` cell.
    Int(i64),
    /// A `double` cell.
    Float(f64),
    /// A `char` cell.
    Text(String),
    /// An `unsignedLong` cell.
    Id(u64),
}

impl VoCell {
    /// Parses the wire text of a non-null cell of type `ty`; `None` when
    /// the text is not a valid value of that type.
    pub fn parse(text: &str, ty: VoType) -> Option<VoCell> {
        Some(match ty {
            VoType::Bool => match text {
                "true" => VoCell::Bool(true),
                "false" => VoCell::Bool(false),
                _ => return None,
            },
            VoType::Int => VoCell::Int(text.parse().ok()?),
            VoType::Float => VoCell::Float(text.parse().ok()?),
            VoType::Text => VoCell::Text(text.to_string()),
            VoType::Id => VoCell::Id(text.parse().ok()?),
        })
    }

    /// The type this cell carries (`None` for `Null`).
    pub fn vtype(&self) -> Option<VoType> {
        match self {
            VoCell::Null => None,
            VoCell::Bool(_) => Some(VoType::Bool),
            VoCell::Int(_) => Some(VoType::Int),
            VoCell::Float(_) => Some(VoType::Float),
            VoCell::Text(_) => Some(VoType::Text),
            VoCell::Id(_) => Some(VoType::Id),
        }
    }
}

impl PartialEq for VoCell {
    fn eq(&self, other: &VoCell) -> bool {
        match (self, other) {
            (VoCell::Null, VoCell::Null) => true,
            (VoCell::Bool(a), VoCell::Bool(b)) => a == b,
            (VoCell::Int(a), VoCell::Int(b)) => a == b,
            (VoCell::Float(a), VoCell::Float(b)) => {
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
            }
            (VoCell::Text(a), VoCell::Text(b)) => a == b,
            (VoCell::Id(a), VoCell::Id(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for VoCell {}

/// A typed table payload.
#[derive(Debug, Clone)]
pub struct VoTable {
    /// Table name (free-form label).
    pub name: String,
    /// Column declarations.
    pub columns: Vec<VoColumn>,
    /// Rows of typed cells.
    pub rows: Vec<Vec<VoCell>>,
    /// Bytes the table occupied in the document it was decoded from.
    wire_len: Option<usize>,
}

/// Equality compares the payload (name, columns, rows), not where the
/// table came from.
impl PartialEq for VoTable {
    fn eq(&self, other: &VoTable) -> bool {
        self.name == other.name && self.columns == other.columns && self.rows == other.rows
    }
}

impl Eq for VoTable {}

impl VoTable {
    /// An empty table with the given columns.
    pub fn new(name: impl Into<String>, columns: Vec<VoColumn>) -> VoTable {
        VoTable {
            name: name.into(),
            columns,
            rows: Vec::new(),
            wire_len: None,
        }
    }

    /// Appends a typed row, checking its arity and that every non-null
    /// cell carries its column's type.
    pub fn push_cells(&mut self, row: Vec<VoCell>) -> Result<(), XmlError> {
        self.check_arity(row.len())?;
        for (cell, col) in row.iter().zip(&self.columns) {
            if cell.vtype().is_some_and(|t| t != col.vtype) {
                return Err(XmlError::SchemaViolation {
                    detail: format!(
                        "cell {cell:?} is not a valid {} for column {}",
                        col.vtype.as_str(),
                        col.name
                    ),
                });
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Appends a row given as wire text (`None` = null), parsing each
    /// cell as its column's type.
    pub fn push_row(&mut self, row: Vec<Option<String>>) -> Result<(), XmlError> {
        self.check_arity(row.len())?;
        let cells = row
            .iter()
            .zip(&self.columns)
            .map(|(cell, col)| match cell {
                None => Ok(VoCell::Null),
                Some(text) => parse_cell(text, col),
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.rows.push(cells);
        Ok(())
    }

    fn check_arity(&self, len: usize) -> Result<(), XmlError> {
        if len == self.columns.len() {
            return Ok(());
        }
        Err(XmlError::SchemaViolation {
            detail: format!(
                "row arity {} != column count {} in table {}",
                len,
                self.columns.len(),
                self.name
            ),
        })
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Bytes this table occupied in the document it was decoded from
    /// (`None` for a table built in memory) — its encoded size, known
    /// without encoding it again.
    pub fn wire_len(&self) -> Option<usize> {
        self.wire_len
    }

    fn columns_iter(&self) -> impl Iterator<Item = (&str, VoType)> {
        self.columns.iter().map(|c| (c.name.as_str(), c.vtype))
    }

    fn write_rows(&self, enc: &mut TableEncoder<'_>) {
        for row in &self.rows {
            enc.row();
            for cell in row {
                enc.cell(cell);
            }
            enc.end_row();
        }
    }

    /// Encodes once, keeping the byte span of every row so chunks can be
    /// sized and cut from this one encoding.
    pub fn encode(&self) -> EncodedTable {
        EncodedTable::build(&self.name, self.columns_iter(), |enc| self.write_rows(enc))
    }

    /// Writes the `VOTABLE` element straight into `w`.
    pub fn write_to(&self, w: &mut XmlWriter) {
        let mut enc = TableEncoder::new(w.raw_buf(), &self.name, self.columns_iter());
        self.write_rows(&mut enc);
        enc.finish();
    }

    /// Serializes to compact XML.
    pub fn to_xml(&self) -> String {
        self.encode().into_string()
    }

    /// Parses from an XML string whose root is the `VOTABLE` element.
    pub fn parse(xml: &str) -> Result<VoTable, XmlError> {
        let mut reader = XmlReader::new(xml);
        loop {
            match reader.read_event()? {
                Event::Start {
                    name: "VOTABLE",
                    attrs,
                } => {
                    let table = VoTable::read_from(&mut reader, attrs)?;
                    reader.finish()?;
                    return Ok(table);
                }
                Event::Start { name, .. } => {
                    return Err(XmlError::SchemaViolation {
                        detail: format!("expected VOTABLE root, found {name}"),
                    })
                }
                Event::Eof => {
                    return Err(XmlError::UnexpectedEof {
                        context: "document has no root element".into(),
                    })
                }
                _ => {}
            }
        }
    }

    /// Decodes the `VOTABLE` element whose start tag `reader` just
    /// returned, reading through its end tag: every `TD` is parsed once,
    /// straight into a typed cell. `FIELD` declarations must precede
    /// `DATA`; unknown elements and stray text are skipped.
    pub fn read_from(
        reader: &mut XmlReader<'_>,
        attrs: Attributes<'_>,
    ) -> Result<VoTable, XmlError> {
        let start = reader.event_offset();
        let name = attrs.get("name").map(Cow::into_owned).unwrap_or_default();
        let mut table = VoTable::new(name, Vec::new());
        let mut data_seen = false;
        while let Some(event) = reader.next_in_element()? {
            match event {
                Event::Start { name, attrs } if local_matches(name, "FIELD") => {
                    if data_seen {
                        return Err(XmlError::SchemaViolation {
                            detail: format!("FIELD after DATA in table {}", table.name),
                        });
                    }
                    let require = |attr: &str| {
                        attrs.get(attr).ok_or_else(|| XmlError::MissingNode {
                            path: format!("{name}/@{attr}"),
                        })
                    };
                    let cname = require("name")?.into_owned();
                    let dt = require("datatype")?;
                    let vtype = VoType::parse(&dt).ok_or_else(|| XmlError::SchemaViolation {
                        detail: format!("unknown datatype {dt} for field {cname}"),
                    })?;
                    table.columns.push(VoColumn::new(cname, vtype));
                    reader.skip_element()?;
                }
                Event::Start { name, .. } if !data_seen && local_matches(name, "DATA") => {
                    data_seen = true;
                    table.read_rows(reader)?;
                }
                Event::Start { .. } => reader.skip_element()?,
                _ => {}
            }
        }
        table.wire_len = Some(reader.offset() - start);
        Ok(table)
    }

    /// Reads the `TR` rows of a `DATA` element through its end tag.
    fn read_rows(&mut self, reader: &mut XmlReader<'_>) -> Result<(), XmlError> {
        while let Some(event) = reader.next_in_element()? {
            match event {
                Event::Start { name, .. } if local_matches(name, "TR") => {
                    let mut row = Vec::with_capacity(self.columns.len());
                    while let Some(event) = reader.next_in_element()? {
                        match event {
                            Event::Start { name, attrs } if local_matches(name, "TD") => {
                                let Some(col) = self.columns.get(row.len()) else {
                                    return Err(self.arity_error(row.len() + 1));
                                };
                                row.push(read_cell(reader, attrs, col)?);
                            }
                            Event::Start { .. } => reader.skip_element()?,
                            _ => {}
                        }
                    }
                    if row.len() != self.columns.len() {
                        return Err(self.arity_error(row.len()));
                    }
                    self.rows.push(row);
                }
                Event::Start { .. } => reader.skip_element()?,
                _ => {}
            }
        }
        Ok(())
    }

    fn arity_error(&self, len: usize) -> XmlError {
        self.check_arity(len)
            .expect_err("called on a mismatched arity")
    }

    /// Splits this table into chunks of at most `rows_per_chunk` rows,
    /// each carrying the full column declaration.
    pub fn chunk_rows(&self, rows_per_chunk: usize) -> Vec<VoTable> {
        assert!(rows_per_chunk > 0);
        if self.rows.is_empty() {
            return vec![self.clone()];
        }
        self.rows
            .chunks(rows_per_chunk)
            .map(|chunk| VoTable {
                rows: chunk.to_vec(),
                ..VoTable::new(self.name.clone(), self.columns.clone())
            })
            .collect()
    }

    /// Concatenates chunks back into one table, verifying identical
    /// schemas.
    pub fn concat(chunks: Vec<VoTable>) -> Result<VoTable, XmlError> {
        let mut iter = chunks.into_iter();
        let mut first = iter.next().ok_or_else(|| XmlError::SchemaViolation {
            detail: "cannot concat zero chunks".into(),
        })?;
        first.wire_len = None;
        for chunk in iter {
            if chunk.columns != first.columns {
                return Err(XmlError::SchemaViolation {
                    detail: format!("chunk schema mismatch in table {}", first.name),
                });
            }
            first.rows.extend(chunk.rows);
        }
        Ok(first)
    }
}

fn parse_cell(text: &str, col: &VoColumn) -> Result<VoCell, XmlError> {
    VoCell::parse(text, col.vtype).ok_or_else(|| XmlError::SchemaViolation {
        detail: format!(
            "cell {text:?} is not a valid {} for column {}",
            col.vtype.as_str(),
            col.name
        ),
    })
}

/// Reads one `TD` (start tag already returned) into a typed cell.
fn read_cell(
    reader: &mut XmlReader<'_>,
    attrs: Attributes<'_>,
    col: &VoColumn,
) -> Result<VoCell, XmlError> {
    let text = reader.read_text()?;
    if attrs.get("null").is_some_and(|v| v == "true") {
        return Ok(VoCell::Null);
    }
    parse_cell(&text, col)
}

/// One encoding of a `VOTABLE` element, with the byte span of each row:
/// what a sender measures messages and cuts §6 chunks from, so a table
/// is formatted exactly once however it is then shipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedTable {
    xml: String,
    layout: Layout,
}

/// Byte offsets of an encoded table's parts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layout {
    /// End of the `<VOTABLE …>` start tag.
    open_end: usize,
    /// Start of the `DATA` element (end of the `FIELD` declarations).
    data_start: usize,
    /// End of each row's `TR` element.
    row_ends: Vec<usize>,
}

const DATA_OPEN: &str = "<DATA>";
const TABLE_CLOSE: &str = "</DATA></VOTABLE>";
const EMPTY_CLOSE: &str = "<DATA/></VOTABLE>";
const ROW_EMPTY: &str = "<TR/>";

impl EncodedTable {
    /// Encodes a table whose rows `rows` writes through the encoder.
    pub fn build<'c>(
        name: &str,
        columns: impl IntoIterator<Item = (&'c str, VoType)>,
        rows: impl FnOnce(&mut TableEncoder<'_>),
    ) -> EncodedTable {
        let mut xml = String::new();
        let mut enc = TableEncoder::new(&mut xml, name, columns);
        rows(&mut enc);
        let layout = enc.finish();
        EncodedTable { xml, layout }
    }

    /// The encoded `VOTABLE` element.
    pub fn as_str(&self) -> &str {
        &self.xml
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.xml.len()
    }

    /// Always false: an encoded table holds at least its `VOTABLE` tags.
    pub fn is_empty(&self) -> bool {
        self.xml.is_empty()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.layout.row_ends.len()
    }

    /// The encoded text.
    pub fn into_string(self) -> String {
        self.xml
    }

    /// The encoded `TR` element of row `i`.
    fn row(&self, i: usize) -> &str {
        let start = match i {
            0 => self.layout.data_start + DATA_OPEN.len(),
            _ => self.layout.row_ends[i - 1],
        };
        &self.xml[start..self.layout.row_ends[i]]
    }

    /// The cells of row `i`: its `TR` element without the row tags.
    fn row_cells(&self, i: usize) -> &str {
        let row = self.row(i);
        match row {
            ROW_EMPTY => "",
            _ => &row["<TR>".len()..row.len() - "</TR>".len()],
        }
    }

    /// Encoded length of [`EncodedTable::chunk`] for `rows` and `index`.
    pub fn chunk_len(&self, rows: &[usize], index: Option<&str>) -> usize {
        let rows_len: usize = rows
            .iter()
            .map(|&i| match index {
                None => self.row(i).len(),
                Some(_) => {
                    "<TR><TD></TD></TR>".len() + decimal_len(i as u64) + self.row_cells(i).len()
                }
            })
            .sum();
        let body = match rows.len() {
            0 => EMPTY_CLOSE.len(),
            _ => DATA_OPEN.len() + rows_len + TABLE_CLOSE.len(),
        };
        self.layout.data_start + index.map_or(0, |c| index_field(c).len()) + body
    }

    /// A table holding rows `rows` of this one, cut from this encoding.
    /// With `index`, the rows sit behind a leading `unsignedLong` column
    /// of that name carrying each row's index in this table.
    pub fn chunk(&self, rows: &[usize], index: Option<&str>) -> EncodedTable {
        let mut xml = String::with_capacity(self.chunk_len(rows, index));
        xml.push_str(&self.xml[..self.layout.open_end]);
        if let Some(column) = index {
            xml.push_str(&index_field(column));
        }
        xml.push_str(&self.xml[self.layout.open_end..self.layout.data_start]);
        let mut layout = Layout {
            open_end: self.layout.open_end,
            data_start: xml.len(),
            row_ends: Vec::with_capacity(rows.len()),
        };
        if !rows.is_empty() {
            xml.push_str(DATA_OPEN);
        }
        for &i in rows {
            match index {
                None => xml.push_str(self.row(i)),
                Some(_) => {
                    xml.push_str("<TR><TD>");
                    push_u64(&mut xml, i as u64);
                    xml.push_str("</TD>");
                    xml.push_str(self.row_cells(i));
                    xml.push_str("</TR>");
                }
            }
            layout.row_ends.push(xml.len());
        }
        close_data(&mut xml, rows.is_empty());
        EncodedTable { xml, layout }
    }
}

fn close_data(xml: &mut String, empty: bool) {
    xml.push_str(if empty { EMPTY_CLOSE } else { TABLE_CLOSE });
}

fn index_field(name: &str) -> String {
    let mut out = String::from("<FIELD name=\"");
    escape_attr_into(&mut out, name);
    out.push_str("\" datatype=\"unsignedLong\"/>");
    out
}

fn decimal_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Writes one `VOTABLE` element into a buffer, row by row, formatting
/// each cell exactly once. Rows are bracketed by [`TableEncoder::row`]
/// and [`TableEncoder::end_row`]; the cells between them must follow the
/// declared columns (the encoder writes what it is given).
pub struct TableEncoder<'b> {
    out: &'b mut String,
    base: usize,
    layout: Layout,
    /// The current row's `<TR` tag awaits its `>` (no cell yet).
    row_open: bool,
}

impl<'b> TableEncoder<'b> {
    /// Starts a table in `out`: the `VOTABLE` start tag and the column
    /// declarations.
    pub fn new<'c>(
        out: &'b mut String,
        name: &str,
        columns: impl IntoIterator<Item = (&'c str, VoType)>,
    ) -> TableEncoder<'b> {
        let base = out.len();
        out.push_str("<VOTABLE name=\"");
        escape_attr_into(out, name);
        out.push_str("\">");
        let open_end = out.len() - base;
        for (cname, vtype) in columns {
            out.push_str("<FIELD name=\"");
            escape_attr_into(out, cname);
            out.push_str("\" datatype=\"");
            out.push_str(vtype.as_str());
            out.push_str("\"/>");
        }
        let data_start = out.len() - base;
        TableEncoder {
            out,
            base,
            layout: Layout {
                open_end,
                data_start,
                row_ends: Vec::new(),
            },
            row_open: false,
        }
    }

    /// Starts a row.
    pub fn row(&mut self) {
        if self.layout.row_ends.is_empty() {
            self.out.push_str(DATA_OPEN);
        }
        self.out.push_str("<TR");
        self.row_open = true;
    }

    /// Ends the current row.
    pub fn end_row(&mut self) {
        if self.row_open {
            self.out.push_str("/>");
            self.row_open = false;
        } else {
            self.out.push_str("</TR>");
        }
        self.layout.row_ends.push(self.out.len() - self.base);
    }

    /// Closes the current row's `<TR` tag before its first cell.
    fn seal_row(&mut self) {
        if self.row_open {
            self.out.push('>');
            self.row_open = false;
        }
    }

    fn td(&mut self) -> &mut String {
        self.seal_row();
        self.out.push_str("<TD>");
        self.out
    }

    /// A null cell.
    pub fn null(&mut self) {
        self.seal_row();
        self.out.push_str("<TD null=\"true\"/>");
    }

    /// A `boolean` cell.
    pub fn bool(&mut self, v: bool) {
        self.td().push_str(if v { "true" } else { "false" });
        self.out.push_str("</TD>");
    }

    /// A `long` cell.
    pub fn int(&mut self, v: i64) {
        let out = self.td();
        if v < 0 {
            out.push('-');
        }
        push_u64(out, v.unsigned_abs());
        self.out.push_str("</TD>");
    }

    /// A `double` cell, in shortest round-trip form.
    pub fn float(&mut self, v: f64) {
        let _ = write!(self.td(), "{v:?}");
        self.out.push_str("</TD>");
    }

    /// A `char` cell (escaped in place; empty text is `<TD/>`).
    pub fn text(&mut self, v: &str) {
        if v.is_empty() {
            self.seal_row();
            self.out.push_str("<TD/>");
            return;
        }
        escape_text_into(self.td(), v);
        self.out.push_str("</TD>");
    }

    /// An `unsignedLong` cell.
    pub fn id(&mut self, v: u64) {
        push_u64(self.td(), v);
        self.out.push_str("</TD>");
    }

    /// A typed cell.
    pub fn cell(&mut self, cell: &VoCell) {
        match cell {
            VoCell::Null => self.null(),
            VoCell::Bool(v) => self.bool(*v),
            VoCell::Int(v) => self.int(*v),
            VoCell::Float(v) => self.float(*v),
            VoCell::Text(v) => self.text(v),
            VoCell::Id(v) => self.id(*v),
        }
    }

    /// Closes the table, returning its layout relative to where it began.
    fn finish(self) -> Layout {
        close_data(self.out, self.layout.row_ends.is_empty());
        self.layout
    }
}

/// Formats an f64 so it round-trips exactly through `parse::<f64>()`.
pub fn format_f64(x: f64) -> String {
    // Rust's Debug formatting for f64 is the shortest representation that
    // round-trips.
    format!("{x:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> VoTable {
        let mut t = VoTable::new(
            "partial",
            vec![
                VoColumn::new("object_id", VoType::Id),
                VoColumn::new("ra", VoType::Float),
                VoColumn::new("type", VoType::Text),
                VoColumn::new("good", VoType::Bool),
            ],
        );
        t.push_row(vec![
            Some("42".into()),
            Some(format_f64(185.000123456789)),
            Some("GALAXY".into()),
            Some("true".into()),
        ])
        .unwrap();
        t.push_row(vec![
            Some("43".into()),
            Some(format_f64(-0.5)),
            None,
            Some("false".into()),
        ])
        .unwrap();
        t
    }

    #[test]
    fn xml_roundtrip() {
        let t = demo();
        let back = VoTable::parse(&t.to_xml()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn float_cells_roundtrip_exactly() {
        for x in [0.1, 1.0 / 3.0, 185.000123456789, f64::MIN_POSITIVE, 1e300] {
            let s = format_f64(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "{s}");
        }
    }

    #[test]
    fn arity_and_type_validation() {
        let mut t = VoTable::new("x", vec![VoColumn::new("n", VoType::Int)]);
        assert!(t.push_row(vec![]).is_err());
        assert!(t.push_row(vec![Some("notanint".into())]).is_err());
        assert!(t.push_row(vec![Some("12".into())]).is_ok());
        assert!(t.push_row(vec![None]).is_ok());
    }

    #[test]
    fn null_cells_distinct_from_empty_text() {
        let mut t = VoTable::new("x", vec![VoColumn::new("s", VoType::Text)]);
        t.push_row(vec![None]).unwrap();
        t.push_row(vec![Some(String::new())]).unwrap();
        let back = VoTable::parse(&t.to_xml()).unwrap();
        assert_eq!(back.rows[0][0], VoCell::Null);
        assert_eq!(back.rows[1][0], VoCell::Text(String::new()));
    }

    #[test]
    fn typed_cells_are_checked_against_columns() {
        let mut t = VoTable::new("x", vec![VoColumn::new("n", VoType::Int)]);
        assert!(t.push_cells(vec![VoCell::Float(1.0)]).is_err());
        assert!(t.push_cells(vec![VoCell::Int(1), VoCell::Int(2)]).is_err());
        assert!(t.push_cells(vec![VoCell::Int(-7)]).is_ok());
        assert!(t.push_cells(vec![VoCell::Null]).is_ok());
        assert_eq!(VoTable::parse(&t.to_xml()).unwrap(), t);
    }

    #[test]
    fn float_cells_compare_as_their_wire_text() {
        assert_eq!(VoCell::Float(f64::NAN), VoCell::Float(-f64::NAN));
        assert_ne!(VoCell::Float(0.0), VoCell::Float(-0.0));
        let mut t = VoTable::new("f", vec![VoColumn::new("x", VoType::Float)]);
        for x in [f64::NAN, f64::INFINITY, -0.0, 5e-324, 1e300] {
            t.push_cells(vec![VoCell::Float(x)]).unwrap();
        }
        assert_eq!(VoTable::parse(&t.to_xml()).unwrap(), t);
    }

    #[test]
    fn decoded_tables_know_their_wire_length() {
        let t = demo();
        assert_eq!(t.wire_len(), None);
        let xml = format!("<p>{}</p>", t.to_xml());
        let mut r = XmlReader::new(&xml);
        r.read_event().unwrap();
        let Event::Start { attrs, .. } = r.read_event().unwrap() else {
            panic!("expected the VOTABLE start");
        };
        let back = VoTable::read_from(&mut r, attrs).unwrap();
        assert_eq!(back.wire_len(), Some(t.to_xml().len()));
    }

    #[test]
    fn chunks_cut_from_one_encoding_match_their_own_encoding() {
        let mut t = VoTable::new(
            "a&b",
            vec![
                VoColumn::new("s", VoType::Text),
                VoColumn::new("x", VoType::Float),
            ],
        );
        t.push_row(vec![Some("<x>".into()), None]).unwrap();
        t.push_row(vec![Some(String::new()), Some("2.5".into())])
            .unwrap();
        t.push_row(vec![None, Some("-1e-9".into())]).unwrap();
        let enc = t.encode();
        assert_eq!(enc.as_str(), t.to_xml());
        for rows in [vec![], vec![1], vec![2, 0], vec![0, 1, 2]] {
            let mut sub = VoTable::new(t.name.clone(), t.columns.clone());
            let mut indexed = VoTable::new(
                t.name.clone(),
                std::iter::once(VoColumn::new("__i", VoType::Id))
                    .chain(t.columns.iter().cloned())
                    .collect(),
            );
            for &i in &rows {
                sub.push_cells(t.rows[i].clone()).unwrap();
                let mut row = vec![VoCell::Id(i as u64)];
                row.extend(t.rows[i].iter().cloned());
                indexed.push_cells(row).unwrap();
            }
            assert_eq!(enc.chunk(&rows, None).as_str(), sub.to_xml());
            assert_eq!(enc.chunk_len(&rows, None), sub.to_xml().len());
            assert_eq!(enc.chunk(&rows, Some("__i")).as_str(), indexed.to_xml());
            assert_eq!(enc.chunk_len(&rows, Some("__i")), indexed.to_xml().len());
        }
        // A zero-column table: rows encode as <TR/>.
        let mut bare = VoTable::new("z", vec![]);
        bare.push_cells(vec![]).unwrap();
        let enc = bare.encode();
        assert!(enc.as_str().contains("<TR/>"));
        assert_eq!(enc.chunk(&[0], None).as_str(), bare.to_xml());
        assert!(enc
            .chunk(&[0], Some("__i"))
            .as_str()
            .contains("<TR><TD>0</TD></TR>"));
    }

    #[test]
    fn chunk_and_concat_roundtrip() {
        let mut t = VoTable::new("big", vec![VoColumn::new("n", VoType::Int)]);
        for i in 0..10 {
            t.push_row(vec![Some(i.to_string())]).unwrap();
        }
        let chunks = t.chunk_rows(3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].row_count(), 3);
        assert_eq!(chunks[3].row_count(), 1);
        let back = VoTable::concat(chunks).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn chunk_empty_table() {
        let t = VoTable::new("empty", vec![VoColumn::new("n", VoType::Int)]);
        let chunks = t.chunk_rows(5);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].row_count(), 0);
    }

    #[test]
    fn concat_rejects_mismatched_schemas() {
        let a = VoTable::new("a", vec![VoColumn::new("n", VoType::Int)]);
        let b = VoTable::new("a", vec![VoColumn::new("n", VoType::Float)]);
        assert!(VoTable::concat(vec![a, b]).is_err());
        assert!(VoTable::concat(vec![]).is_err());
    }

    #[test]
    fn parse_rejects_wrong_root_and_bad_datatype() {
        assert!(VoTable::parse("<NOTVOTABLE/>").is_err());
        assert!(VoTable::parse(
            r#"<VOTABLE name="x"><FIELD name="a" datatype="varchar"/></VOTABLE>"#
        )
        .is_err());
    }

    #[test]
    fn column_index_lookup() {
        let t = demo();
        assert_eq!(t.column_index("ra"), Some(1));
        assert_eq!(t.column_index("nope"), None);
    }
}
