//! Result sets crossing the wire: typed rows ↔ VOTable payloads.

use skyquery_storage::{DataType, Row, Value};
use skyquery_xml::{EncodedTable, TableEncoder, VoCell, VoColumn, VoTable, VoType};

use crate::error::{FederationError, Result};

/// One column of a result set: a (possibly qualified) name plus type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultColumn {
    /// Output column name (often qualified, `alias.column`).
    pub name: String,
    /// Value type.
    pub dtype: DataType,
}

impl ResultColumn {
    /// A named, typed output column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> ResultColumn {
        ResultColumn {
            name: name.into(),
            dtype,
        }
    }
}

/// A materialized query result.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output columns.
    pub columns: Vec<ResultColumn>,
    /// Result rows, each matching `columns` in arity and type.
    pub rows: Vec<Row>,
    /// Partial-result honesty: `true` when the answer was computed
    /// without one or more unreachable archives (or shards of one) and
    /// is therefore complete-minus-those-filters, not wrong. Stamped by
    /// the Portal at relay time; `false` for a complete answer.
    pub degraded: bool,
    /// What a degraded answer dropped: archive names for wholly-skipped
    /// drop-out steps, `archive@host` for shards lost mid-scatter.
    /// Empty unless `degraded`.
    pub dropped_archives: Vec<String>,
}

/// Equality compares the data (columns and rows) only: the degradation
/// header is delivery metadata, and byte-identity checks between a
/// degraded answer and its healthy reference run must compare payloads.
impl PartialEq for ResultSet {
    fn eq(&self, other: &ResultSet) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl ResultSet {
    /// An empty result set with the given columns.
    pub fn new(columns: Vec<ResultColumn>) -> ResultSet {
        ResultSet {
            columns,
            rows: Vec::new(),
            degraded: false,
            dropped_archives: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Index of an output column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Value at `(row, column name)`.
    pub fn value(&self, row: usize, column: &str) -> Option<&Value> {
        let ci = self.column_index(column)?;
        self.rows.get(row).map(|r| &r[ci])
    }

    /// Appends a row after arity checking.
    pub fn push_row(&mut self, row: Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(FederationError::protocol(format!(
                "result row arity {} != {} columns",
                row.len(),
                self.columns.len()
            )));
        }
        self.rows.push(row);
        Ok(())
    }

    /// Encodes into the VOTable wire payload.
    pub fn to_votable(&self, name: &str) -> VoTable {
        let cols = self
            .columns
            .iter()
            .map(|c| VoColumn::new(c.name.clone(), dtype_to_votype(c.dtype)))
            .collect();
        let mut t = VoTable::new(name, cols);
        t.rows = self
            .rows
            .iter()
            .map(|row| row.iter().cloned().map(value_to_cell).collect())
            .collect();
        t
    }

    /// Encodes the VOTable wire payload once, straight from the rows.
    pub fn encode(&self, name: &str) -> EncodedTable {
        let columns = self
            .columns
            .iter()
            .map(|c| (c.name.as_str(), dtype_to_votype(c.dtype)));
        EncodedTable::build(name, columns, |enc| {
            for row in &self.rows {
                enc.row();
                for v in row {
                    encode_value(enc, v);
                }
                enc.end_row();
            }
        })
    }

    /// Decodes from the VOTable wire payload.
    pub fn from_votable(t: &VoTable) -> Result<ResultSet> {
        ResultSet::decode(&t.columns, t.rows.iter().map(|r| r.iter().cloned()))
    }

    fn decode<R>(columns: &[VoColumn], rows: impl Iterator<Item = R>) -> Result<ResultSet>
    where
        R: Iterator<Item = VoCell>,
    {
        let columns = columns
            .iter()
            .map(|c| ResultColumn::new(c.name.clone(), votype_to_dtype(c.vtype)))
            .collect();
        let mut rs = ResultSet::new(columns);
        for row in rows {
            rs.push_row(row.map(cell_to_value).collect())?;
        }
        Ok(rs)
    }

    /// Renders an ASCII table (examples and traces).
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c.name, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Decodes the VOTable wire payload, moving its cells.
impl TryFrom<VoTable> for ResultSet {
    type Error = FederationError;

    fn try_from(t: VoTable) -> Result<ResultSet> {
        ResultSet::decode(&t.columns, t.rows.into_iter().map(Vec::into_iter))
    }
}

pub(crate) fn dtype_to_votype(d: DataType) -> VoType {
    match d {
        DataType::Bool => VoType::Bool,
        DataType::Int => VoType::Int,
        DataType::Float => VoType::Float,
        DataType::Text => VoType::Text,
        DataType::Id => VoType::Id,
    }
}

pub(crate) fn votype_to_dtype(v: VoType) -> DataType {
    match v {
        VoType::Bool => DataType::Bool,
        VoType::Int => DataType::Int,
        VoType::Float => DataType::Float,
        VoType::Text => DataType::Text,
        VoType::Id => DataType::Id,
    }
}

/// A stored value as a wire cell.
pub(crate) fn value_to_cell(v: Value) -> VoCell {
    match v {
        Value::Null => VoCell::Null,
        Value::Bool(b) => VoCell::Bool(b),
        Value::Int(i) => VoCell::Int(i),
        Value::Float(x) => VoCell::Float(x),
        Value::Text(s) => VoCell::Text(s),
        Value::Id(u) => VoCell::Id(u),
    }
}

/// A wire cell as a stored value.
pub(crate) fn cell_to_value(c: VoCell) -> Value {
    match c {
        VoCell::Null => Value::Null,
        VoCell::Bool(b) => Value::Bool(b),
        VoCell::Int(i) => Value::Int(i),
        VoCell::Float(x) => Value::Float(x),
        VoCell::Text(s) => Value::Text(s),
        VoCell::Id(u) => Value::Id(u),
    }
}

/// Writes a stored value as one cell of a table being encoded.
pub(crate) fn encode_value(enc: &mut TableEncoder<'_>, v: &Value) {
    match v {
        Value::Null => enc.null(),
        Value::Bool(b) => enc.bool(*b),
        Value::Int(i) => enc.int(*i),
        Value::Float(x) => enc.float(*x),
        Value::Text(s) => enc.text(s),
        Value::Id(u) => enc.id(*u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ResultSet {
        let mut rs = ResultSet::new(vec![
            ResultColumn::new("O.object_id", DataType::Id),
            ResultColumn::new("O.ra", DataType::Float),
            ResultColumn::new("T.type", DataType::Text),
            ResultColumn::new("match", DataType::Bool),
        ]);
        rs.push_row(vec![
            Value::Id(42),
            Value::Float(185.0001234),
            Value::Text("GALAXY".into()),
            Value::Bool(true),
        ])
        .unwrap();
        rs.push_row(vec![
            Value::Id(43),
            Value::Float(-0.5),
            Value::Null,
            Value::Bool(false),
        ])
        .unwrap();
        rs
    }

    #[test]
    fn votable_roundtrip() {
        let rs = demo();
        let t = rs.to_votable("result");
        let back = ResultSet::from_votable(&t).unwrap();
        assert_eq!(back, rs);
    }

    #[test]
    fn one_pass_encode_matches_the_table_encoding() {
        let rs = demo();
        assert_eq!(rs.encode("r").as_str(), rs.to_votable("r").to_xml());
    }

    #[test]
    fn votable_roundtrip_through_xml() {
        let rs = demo();
        let xml = rs.to_votable("r").to_xml();
        let back = ResultSet::from_votable(&VoTable::parse(&xml).unwrap()).unwrap();
        assert_eq!(back, rs);
    }

    #[test]
    fn arity_enforced() {
        let mut rs = ResultSet::new(vec![ResultColumn::new("a", DataType::Int)]);
        assert!(rs.push_row(vec![]).is_err());
        assert!(rs.push_row(vec![Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn value_lookup() {
        let rs = demo();
        assert_eq!(rs.value(0, "O.object_id"), Some(&Value::Id(42)));
        assert_eq!(rs.value(1, "T.type"), Some(&Value::Null));
        assert_eq!(rs.value(0, "missing"), None);
        assert_eq!(rs.value(9, "O.ra"), None);
    }

    #[test]
    fn ascii_rendering() {
        let text = demo().to_ascii();
        assert!(text.contains("O.object_id"));
        assert!(text.contains("GALAXY"));
        assert!(text.contains("NULL"));
    }

    #[test]
    fn bad_cells_rejected() {
        let mut t = VoTable::new("x", vec![VoColumn::new("n", VoType::Int)]);
        t.push_row(vec![Some("5".into())]).unwrap();
        // Corrupt the cell on the wire: a typed table cannot hold it, so
        // the decode of the payload text must refuse it.
        let xml = t.to_xml().replace("<TD>5</TD>", "<TD>five</TD>");
        assert!(VoTable::parse(&xml).is_err());
        let good = VoTable::parse(&t.to_xml()).unwrap();
        assert_eq!(
            ResultSet::from_votable(&good).unwrap().rows[0][0],
            Value::Int(5)
        );
    }
}
