//! Dependency-free CSV reading and writing.
//!
//! Supports the subset of RFC 4180 the UCI-style pipelines need: quoted
//! fields with embedded commas/quotes/newlines, a header row, configurable
//! missing-value markers (`?` is the UCI convention), and extraction of a
//! label column. Non-numeric fields can be auto-encoded as categorical codes
//! through [`crate::clean::encode_categoricals`]; the reader itself maps
//! unparsable fields to missing so callers choose their policy.
//!
//! # One pass, fields in place
//!
//! Every reader sits on one [`Tokenizer`], which walks the text's bytes
//! once and hands each field to its caller as a `&str`: a slice of the
//! text, or, for a quoted field with a `""` escape or text after its
//! closing quote, the tokenizer's one unescape buffer. [`read_str`]
//! parses each field into the dataset's row-major value buffer as it is
//! yielded; [`parse_records`] copies fields into `String`s for the
//! cleaning passes; the stream pipeline parses one line into its row.
//!
//! The tokenizer scans an unquoted run a word at a time: it loads eight
//! bytes as a `u64`, marks the four bytes that can end the run (`"`, `\n`,
//! `\r` and the delimiter's first UTF-8 byte) with the zero-byte bit trick
//! and jumps to the first of them. For a multi-byte delimiter a hit on its
//! first byte ends the run only where the whole delimiter follows, so one
//! byte then tells the terminator's kind. Both numeric readers convert a
//! field by one rule, [`parse_field`]: trimmed, a missing marker is NaN,
//! anything else goes to `str::parse::<f64>`.
//!
//! [`read_path`] and [`read_from`] never hold the whole text: they read it
//! in 64 KiB chunks, each cut after its last line break outside quotes
//! and fed through the same record loop as [`read_str`]. Reading a file
//! therefore allocates
//! - one chunk buffer, 64 KiB unless a single record is longer,
//! - the value buffer, `rows × columns` numbers: [`read_path`] knows the
//!   file's length and sizes it from the values per byte of the text fed
//!   so far; [`read_from`] grows it by doubling, and the dataset keeps no
//!   spare capacity either way,
//! - one `String` per header name and per distinct label, and
//! - the unescape buffer, when a quoted field needs it,
//!
//! and nothing per data field: reading a 5,000 × 40 CSV takes under 150
//! allocations (`tests/csv_allocations.rs`), and the bytes live at the
//! peak of reading a file stay below its length (`tests/csv_peak.rs`).

use crate::dataset::{DataError, Dataset};
use std::collections::HashMap;
use std::io::{self, Read};
use std::path::Path;

/// Options controlling CSV interpretation.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Whether the first record is a header of column names.
    pub has_header: bool,
    /// Field separator.
    pub delimiter: char,
    /// Strings treated as missing values (compared after trimming).
    pub missing_markers: Vec<String>,
    /// Name (if `has_header`) or index of a column to strip into class
    /// labels. Label values are dense-encoded in order of first appearance.
    pub label_column: Option<ColumnRef>,
}

/// Reference to a column by header name or position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnRef {
    /// By header name (requires `has_header`).
    Name(String),
    /// By zero-based position.
    Index(usize),
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            has_header: true,
            delimiter: ',',
            missing_markers: vec!["?".into(), "".into(), "NA".into(), "NaN".into()],
            label_column: None,
        }
    }
}

/// Parses CSV text into a [`Dataset`].
///
/// Fields matching a missing marker become NaN. Fields that fail to parse as
/// numbers also become NaN — run [`crate::clean::encode_categoricals`] on the
/// raw records (via [`parse_records`]) if categorical columns should be
/// dense-coded instead of dropped.
///
/// Each field is converted as the [`Tokenizer`] yields it, straight into the
/// row-major value buffer. Errors are reported in this order: malformed
/// CSV anywhere in the text, no data records, the first record whose width
/// differs from the first data record's, then the label column.
pub fn read_str(text: &str, options: &CsvOptions) -> Result<Dataset, DataError> {
    let mut records = Records::new(options);
    records.feed(text)?;
    records.finish()
}

/// Reads a CSV file into a [`Dataset`], as [`read_from`] does. A failure to
/// open or read the file names its path.
///
/// The file's length sizes the value buffer: once text has been fed, the
/// buffer is grown to hold the rest at the values per byte seen so far, so
/// it is allocated close to its final size rather than doubled past it.
pub fn read_path<P: AsRef<Path>>(path: P, options: &CsvOptions) -> Result<Dataset, DataError> {
    let path = path.as_ref();
    let io_error = |e: io::Error| DataError::Parse(format!("{}: {e}", path.display()));
    let file = std::fs::File::open(path).map_err(io_error)?;
    let length = file.metadata().map_err(io_error)?.len();
    read_chunks(file, Some(length), options, io_error)
}

/// Reads CSV from `reader` into a [`Dataset`], holding the values and one
/// buffer of text rather than the whole text.
///
/// The text is read in 64 KiB chunks. Each chunk is cut after its last line
/// break outside quotes, checked for UTF-8 and fed through the record loop
/// of [`read_str`]; the tail after the cut starts the next chunk. The
/// buffer grows only for a record longer than it, or, on malformed
/// quoting, up to the rest of the text before the error is found.
///
/// The dataset, and every error, is what [`read_str`] gives for the whole
/// text, except that a read error or invalid UTF-8 anywhere in the stream
/// is reported before any CSV error, as reading the text whole would.
pub fn read_from(reader: impl Read, options: &CsvOptions) -> Result<Dataset, DataError> {
    read_chunks(reader, None, options, |e| DataError::Parse(e.to_string()))
}

/// Bytes a read of [`read_from`] asks for, and the size its buffer starts at.
const CHUNK: usize = 64 * 1024;

/// [`read_from`], with `io_error` turning a read error or invalid UTF-8 into
/// the error to return, and `length`, when known, the text's length in
/// bytes, which sizes the value buffer.
fn read_chunks(
    mut reader: impl Read,
    length: Option<u64>,
    options: &CsvOptions,
    io_error: impl Fn(io::Error) -> DataError,
) -> Result<Dataset, DataError> {
    let mut records = Records::new(options);
    let mut buf = vec![0; CHUNK];
    // `buf[..len]` holds text read but not yet fed; it starts a record.
    let mut len = 0;
    // Bytes fed to `records` so far.
    let mut fed_bytes = 0u64;
    loop {
        if len == buf.len() {
            buf.resize(2 * len, 0); // one record longer than the buffer
        }
        let n = read_some(&mut reader, &mut buf[len..]).map_err(&io_error)?;
        len += n;
        let cut = match n {
            0 => len,
            _ => match record_cut(&buf[..len]) {
                Some(cut) => cut,
                None => continue,
            },
        };
        let fed = match std::str::from_utf8(&buf[..cut]) {
            Ok(text) => records.feed(text).map_err(Some),
            Err(_) => Err(None),
        };
        buf.copy_within(cut..len, 0);
        len -= cut;
        if let Err(csv) = fed {
            return Err(first_error(reader, buf, len, csv, io_error));
        }
        fed_bytes += cut as u64;
        if let Some(length) = length {
            records.reserve_rest(fed_bytes, length.saturating_sub(fed_bytes));
        }
        if n == 0 {
            return records.finish();
        }
    }
}

/// The end of the last line break outside quotes in `bytes`, which start
/// at a record boundary; `None` when there is none.
///
/// A line break is inside a quoted field when an odd number of quotes
/// precede it: a field's opening and closing quotes, and each `""` escape,
/// come in pairs, and any other quote is an error the [`Tokenizer`] reports
/// when it reaches it.
fn record_cut(bytes: &[u8]) -> Option<usize> {
    // Only the parity counts, which a wrapping byte sum keeps; it compiles
    // to byte-wide vector adds, where counting into a `usize` does not.
    let odd = |b: &[u8]| {
        b.iter()
            .fold(0u8, |n, &c| n.wrapping_add(u8::from(c == b'"')))
            & 1
    };
    let (mut end, mut open) = (bytes.len(), odd(bytes));
    while let Some(i) = bytes[..end].iter().rposition(|&c| c == b'\n' || c == b'\r') {
        open ^= odd(&bytes[i..end]);
        if open == 0 {
            return Some(i + 1);
        }
        end = i;
    }
    None
}

/// The error to report for a chunk that failed: its CSV error `csv`, or
/// `None` when the chunk was not UTF-8.
///
/// Reading the text whole reports a read error first, then invalid UTF-8
/// anywhere in the stream, and only then a CSV error; so this reads the
/// rest of the stream, `buf[..len]` first, checking that it is UTF-8.
fn first_error(
    mut reader: impl Read,
    mut buf: Vec<u8>,
    mut len: usize,
    csv: Option<DataError>,
    io_error: impl Fn(io::Error) -> DataError,
) -> DataError {
    let mut valid = csv.is_some();
    loop {
        if valid {
            match std::str::from_utf8(&buf[..len]) {
                Ok(_) => len = 0,
                // A character cut by the read: keep it for the next one.
                Err(e) if e.error_len().is_none() => {
                    buf.copy_within(e.valid_up_to()..len, 0);
                    len -= e.valid_up_to();
                }
                Err(_) => valid = false,
            }
        }
        if !valid {
            len = 0;
        }
        match read_some(&mut reader, &mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e) => return io_error(e),
        }
    }
    match csv {
        Some(csv) if valid && len == 0 => csv,
        _ => io_error(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )),
    }
}

/// One `read`, retried when a signal interrupts it.
fn read_some(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match reader.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            read => return read,
        }
    }
}

/// The record loop under [`read_str`] and [`read_from`]: text in, a chunk
/// at a time, each chunk ending at a record boundary; a [`Dataset`] out.
struct Records<'o> {
    options: &'o CsvOptions,
    /// Records tokenized so far, header included, so that a chunk's
    /// [`Tokenizer`] numbers its records from where the last one stopped.
    tokenized: usize,
    header: Option<Vec<String>>,
    /// The label column, resolved by name once the header is read.
    label: Result<Option<usize>, DataError>,
    values: Vec<f64>,
    labels: Vec<u32>,
    /// Each label seen, with its code: the number of distinct labels
    /// before its first appearance.
    label_codes: HashMap<String, u32>,
    n_rows: usize,
    /// The first data record's width, which every record must have.
    width: usize,
    /// The first record whose width differs, reported once all the text
    /// has been tokenized.
    ragged: Option<DataError>,
}

impl<'o> Records<'o> {
    fn new(options: &'o CsvOptions) -> Self {
        Self {
            options,
            tokenized: 0,
            header: None,
            label: label_index(options, None),
            values: Vec::new(),
            labels: Vec::new(),
            label_codes: HashMap::new(),
            n_rows: 0,
            width: 0,
            ragged: None,
        }
    }

    /// Tokenizes `text`, which ends at a record boundary or at the end of
    /// the CSV, converting each field into the value buffer.
    fn feed(&mut self, text: &str) -> Result<(), DataError> {
        let options = self.options;
        let mut tokens = Tokenizer::new(text, options.delimiter);
        tokens.records = self.tokenized;
        if options.has_header && self.header.is_none() {
            let mut names = Vec::new();
            if tokens
                .next_record(|_, f| names.push(f.trim().to_string()))?
                .is_none()
            {
                return Ok(()); // only blank lines so far
            }
            self.label = label_index(options, Some(&names));
            self.header = Some(names);
        }
        let label_idx = self.label.as_ref().ok().copied().flatten();
        let Self {
            values,
            labels,
            label_codes,
            n_rows,
            width,
            ragged,
            ..
        } = self;
        let mut convert = |j: usize, field: &str| {
            if Some(j) == label_idx {
                let t = trim(field);
                let code = match label_codes.get(t) {
                    Some(&c) => c,
                    None => {
                        let c = label_codes.len() as u32;
                        label_codes.insert(t.to_string(), c);
                        c
                    }
                };
                labels.push(code);
            } else {
                values.push(parse_field(field, &options.missing_markers).unwrap_or(f64::NAN));
            }
        };
        while let Some(n) = tokens.next_record(&mut convert)? {
            *n_rows += 1;
            if *n_rows == 1 {
                *width = n;
            } else if n != *width && ragged.is_none() {
                *ragged = Some(DataError::Parse(format!(
                    "record {n_rows} has {n} fields, expected {width}"
                )));
            }
        }
        self.tokenized = tokens.records;
        Ok(())
    }

    /// Makes room for the values of `rest` more bytes of text, at the
    /// values per byte of the `fed` bytes fed so far, when the buffer's
    /// spare capacity falls short of them.
    ///
    /// The room reserved is 1/64 more than the estimate, so that a later
    /// chunk a little denser than the ones before (the header counts as
    /// text without values) rarely grows the buffer again. The estimate is
    /// a hint: when the allocation fails, the buffer grows as it fills.
    fn reserve_rest(&mut self, fed: u64, rest: u64) {
        if fed == 0 {
            return;
        }
        let per_byte = self.values.len() as f64 / fed as f64;
        let more = (per_byte * rest as f64).ceil() as usize;
        if self.values.capacity() - self.values.len() < more {
            let _ = self
                .values
                .try_reserve_exact(more.saturating_add(more / 64));
        }
    }

    /// The dataset, once all the text has been fed. Its value buffer is
    /// handed over with no spare capacity.
    fn finish(mut self) -> Result<Dataset, DataError> {
        if self.n_rows == 0 {
            return Err(DataError::Empty);
        }
        if let Some(e) = self.ragged {
            return Err(e);
        }
        let width = self.width;
        // A name found past the last field (a header wider than its
        // records) is out of bounds like an index would be.
        let label_idx = self.label?;
        if let Some(index) = label_idx {
            if index >= width {
                return Err(DataError::ColumnIndexOutOfBounds {
                    index,
                    n_dims: width,
                });
            }
        }

        let n_dims = width - usize::from(label_idx.is_some());
        if n_dims == 0 {
            return Err(DataError::Empty);
        }
        self.values.shrink_to_fit();
        let mut ds = Dataset::new(self.values, self.n_rows, n_dims)?;
        if let Some(header) = self.header {
            let names: Vec<String> = header
                .into_iter()
                .enumerate()
                .filter(|(j, _)| Some(*j) != label_idx)
                .map(|(_, h)| h)
                .collect();
            ds.set_names(names)?;
        }
        if label_idx.is_some() {
            ds.set_labels(self.labels)?;
        }
        Ok(ds)
    }
}

/// A field's number: NaN when the trimmed field is one of the `missing`
/// markers, else the trimmed field parsed by `str::parse::<f64>`.
///
/// # Errors
/// The trimmed field, when it is not a marker and does not parse; each
/// caller decides whether that is a missing value or an error.
pub fn parse_field<'f>(field: &'f str, missing: &[String]) -> Result<f64, &'f str> {
    let t = trim(field);
    if missing.iter().any(|m| m == t) {
        return Ok(f64::NAN);
    }
    t.parse::<f64>().map_err(|_| t)
}

/// `field.trim()`, which a field whose first and last bytes are ASCII
/// other than whitespace leaves as it is; only other fields are scanned.
fn trim(field: &str) -> &str {
    // `char::is_whitespace` in ASCII: tab, line feed, vertical tab, form
    // feed, carriage return and space.
    let kept = |b: u8| b.is_ascii() && !matches!(b, b'\t'..=b'\r' | b' ');
    match field.as_bytes() {
        [first, .., last] if kept(*first) && kept(*last) => field,
        [only] if kept(*only) => field,
        _ => field.trim(),
    }
}

/// Resolves [`CsvOptions::label_column`] to a position, by name in the
/// header or as given; `Records::finish` checks it against the records'
/// width.
fn label_index(
    options: &CsvOptions,
    header: Option<&[String]>,
) -> Result<Option<usize>, DataError> {
    Ok(match &options.label_column {
        None => None,
        Some(ColumnRef::Index(i)) => Some(*i),
        Some(ColumnRef::Name(name)) => Some(
            header
                .ok_or_else(|| DataError::Parse("label by name requires a header".into()))?
                .iter()
                .position(|h| h == name)
                .ok_or_else(|| DataError::NoSuchColumn(name.clone()))?,
        ),
    })
}

/// Writes a dataset as CSV (header + rows; missing values as `NaN`, which
/// the default [`CsvOptions::missing_markers`] read back as missing — an
/// empty field would be ambiguous with a blank line for 1-column data).
pub fn write_string(dataset: &Dataset) -> String {
    let mut out = String::new();
    out.push_str(&join_escaped(dataset.names().iter().map(String::as_str)));
    out.push('\n');
    for row in dataset.rows() {
        let fields: Vec<String> = row
            .iter()
            .map(|v| {
                if v.is_nan() {
                    "NaN".to_string()
                } else {
                    format_number(*v)
                }
            })
            .collect();
        out.push_str(&join_escaped(fields.iter().map(String::as_str)));
        out.push('\n');
    }
    out
}

/// Writes a dataset to a file as CSV.
pub fn write_path<P: AsRef<Path>>(dataset: &Dataset, path: P) -> Result<(), DataError> {
    std::fs::write(path.as_ref(), write_string(dataset))
        .map_err(|e| DataError::Parse(format!("{}: {e}", path.as_ref().display())))
}

fn format_number(v: f64) -> String {
    // Shortest representation that round-trips.
    let mut s = format!("{v}");
    if s.ends_with(".0") {
        s.truncate(s.len() - 2);
    }
    s
}

fn join_escaped<'a, I: Iterator<Item = &'a str>>(fields: I) -> String {
    let mut out = String::new();
    for (i, f) in fields.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains([',', '"', '\n', '\r']) {
            out.push('"');
            out.push_str(&f.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out
}

/// Splits CSV text into records of string fields, honoring quotes.
///
/// Exposed so cleaning passes (categorical encoding) can run before numeric
/// conversion.
pub fn parse_records(text: &str, delimiter: char) -> Result<Vec<Vec<String>>, DataError> {
    let mut tokens = Tokenizer::new(text, delimiter);
    let mut records = Vec::new();
    let mut record = Vec::new();
    while tokens
        .next_record(|_, f| record.push(f.to_string()))?
        .is_some()
    {
        records.push(std::mem::take(&mut record));
    }
    Ok(records)
}

/// How a field ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Delimiter,
    Line,
    Text,
}

/// Where a field's value lives.
enum Value {
    /// `text[start..end]`, borrowed as is.
    Slice(usize, usize),
    /// The tokenizer's unescape buffer.
    Unescaped,
}

/// One pass over CSV text, a record at a time, handing each field out as a
/// `&str` without copying it.
///
/// A field outside quotes, or a quoted one with no `""` escape and nothing
/// after its closing quote, is a slice of the text. Any other quoted field
/// is unescaped into one buffer the tokenizer reuses for the next such
/// field. A line ends at `\n`, `\r` or `\r\n`. A line holding nothing at all
/// is skipped, while `""` is a record with one empty field.
///
/// ```
/// use hdoutlier_data::csv::Tokenizer;
/// let mut tokens = Tokenizer::new("a,\"b \"\"c\"\"\"\n\n1,2", ',');
/// let mut fields = Vec::new();
/// assert_eq!(tokens.next_record(|_, f| fields.push(f.to_string())).unwrap(), Some(2));
/// assert_eq!(fields, ["a", "b \"c\""]);
/// assert_eq!(tokens.next_record(|_, _| {}).unwrap(), Some(2));
/// assert_eq!(tokens.next_record(|_, _| {}).unwrap(), None);
/// ```
pub struct Tokenizer<'t> {
    text: &'t str,
    pos: usize,
    delimiter: [u8; 4],
    delimiter_len: usize,
    /// Records handed out so far, for error messages.
    records: usize,
    unescaped: String,
}

impl<'t> Tokenizer<'t> {
    /// A tokenizer over `text` splitting fields on `delimiter`.
    pub fn new(text: &'t str, delimiter: char) -> Self {
        let mut encoded = [0u8; 4];
        let delimiter_len = delimiter.encode_utf8(&mut encoded).len();
        Self {
            text,
            pos: 0,
            delimiter: encoded,
            delimiter_len,
            records: 0,
            unescaped: String::new(),
        }
    }

    /// Calls `field(j, value)` for each field `j` of the next record and
    /// returns how many there were, or `None` once the text is exhausted.
    ///
    /// # Errors
    /// A quote inside an unquoted field (naming the 1-based record), or a
    /// quoted field still open at the end of the text.
    pub fn next_record(
        &mut self,
        mut field: impl FnMut(usize, &str),
    ) -> Result<Option<usize>, DataError> {
        let text = self.text;
        let bytes = text.as_bytes();
        loop {
            if self.pos == bytes.len() {
                return Ok(None);
            }
            let mut n = 0;
            loop {
                let start = self.pos;
                let quoted = bytes.get(start) == Some(&b'"');
                let (value, stop) = if quoted {
                    let close = self.closing_quote(start + 1)?;
                    let stop = self.run_end(close + 1);
                    let value = match self.quoted_value(start + 1, close, stop) {
                        Value::Slice(from, to) => &text[from..to],
                        Value::Unescaped => self.unescaped.as_str(),
                    };
                    (value, stop)
                } else {
                    let stop = self.run_end(start);
                    (&text[start..stop], stop)
                };
                // `run_end` stops only at a quote, a line break or a whole
                // delimiter, so one byte tells them apart. A delimiter's
                // first byte is tested before the line breaks, which it may
                // be.
                let (end, next) = match bytes.get(stop) {
                    None => (End::Text, stop),
                    // The run before this quote is not empty: a quote
                    // opening a field starts a quoted one, and a closing
                    // quote is never followed by another (that would be a
                    // `""` escape).
                    Some(b'"') => {
                        return Err(DataError::Parse(format!(
                            "unexpected quote inside unquoted field at record {}",
                            self.records + 1
                        )))
                    }
                    Some(&b) if b == self.delimiter[0] => {
                        (End::Delimiter, stop + self.delimiter_len)
                    }
                    Some(b'\r') if bytes.get(stop + 1) == Some(&b'\n') => (End::Line, stop + 2),
                    Some(_) => (End::Line, stop + 1),
                };
                self.pos = next;
                if n == 0 && end == End::Line && !quoted && value.is_empty() {
                    break; // a blank line
                }
                field(n, value);
                n += 1;
                if end != End::Delimiter {
                    self.records += 1;
                    return Ok(Some(n));
                }
            }
        }
    }

    /// A quoted field's value: the content from `content` to the closing
    /// quote at `close` with `""` unescaped, then whatever follows the
    /// closing quote up to `stop`. Borrowed when there is nothing to
    /// unescape or append.
    fn quoted_value(&mut self, content: usize, close: usize, stop: usize) -> Value {
        let text = self.text;
        let inner = &text[content..close];
        if stop == close + 1 && !inner.contains("\"\"") {
            return Value::Slice(content, close);
        }
        self.unescaped.clear();
        for (i, part) in inner.split("\"\"").enumerate() {
            if i > 0 {
                self.unescaped.push('"');
            }
            self.unescaped.push_str(part);
        }
        self.unescaped.push_str(&text[close + 1..stop]);
        Value::Unescaped
    }

    /// The index of the quote closing a field whose content starts at
    /// `from`, stepping over `""` escapes.
    fn closing_quote(&self, mut from: usize) -> Result<usize, DataError> {
        let bytes = self.text.as_bytes();
        loop {
            match bytes[from..].iter().position(|&b| b == b'"') {
                None => return Err(DataError::Parse("unterminated quoted field".into())),
                Some(i) if bytes.get(from + i + 1) == Some(&b'"') => from += i + 2,
                Some(i) => return Ok(from + i),
            }
        }
    }

    /// The end of the unquoted run starting at `from`: the next quote,
    /// delimiter or line break, or the end of the text.
    ///
    /// The run is scanned eight bytes at a time for the four stop bytes:
    /// `"`, `\n`, `\r` and the delimiter's first byte. For a multi-byte
    /// delimiter that byte also starts other characters, so a hit on it
    /// ends the run only where the whole delimiter follows.
    fn run_end(&self, mut from: usize) -> usize {
        let bytes = self.text.as_bytes();
        loop {
            let stop = self.next_stop(from);
            if self.delimiter_len == 1
                || bytes.get(stop) != Some(&self.delimiter[0])
                || self.is_delimiter(stop)
            {
                return stop;
            }
            from = stop + 1;
        }
    }

    /// The first stop byte at or after `from`, or the end of the text.
    fn next_stop(&self, mut from: usize) -> usize {
        let bytes = self.text.as_bytes();
        let lead = self.delimiter[0];
        while let Some(word) = bytes.get(from..from + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
            let hits = zero_bytes(word ^ splat(b'"'))
                | zero_bytes(word ^ splat(b'\n'))
                | zero_bytes(word ^ splat(b'\r'))
                | zero_bytes(word ^ splat(lead));
            if hits != 0 {
                // The lowest marked byte is the first stop byte.
                return from + (hits.trailing_zeros() / 8) as usize;
            }
            from += 8;
        }
        bytes[from..]
            .iter()
            .position(|&b| matches!(b, b'"' | b'\n' | b'\r') || b == lead)
            .map_or(bytes.len(), |i| from + i)
    }

    fn is_delimiter(&self, i: usize) -> bool {
        self.text.as_bytes()[i..].starts_with(&self.delimiter[..self.delimiter_len])
    }
}

/// `byte` in each of a word's eight bytes.
const fn splat(byte: u8) -> u64 {
    u64::from_le_bytes([byte; 8])
}

/// A word with the high bit set in each byte of `word` that is zero, and
/// possibly in bytes above one that is zero: a borrow out of a zero byte
/// can mark the byte above it. The lowest set bit therefore always marks
/// the first zero byte, also when several such words are or-ed together.
const fn zero_bytes(word: u64) -> u64 {
    word.wrapping_sub(splat(0x01)) & !word & splat(0x80)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_round_trip() {
        let text = "a,b\n1,2\n3,4.5\n";
        let ds = read_str(text, &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.n_dims(), 2);
        assert_eq!(ds.names(), &["a".to_string(), "b".to_string()]);
        assert_eq!(ds.value(1, 1), 4.5);
        let back = write_string(&ds);
        let ds2 = read_str(&back, &CsvOptions::default()).unwrap();
        assert_eq!(ds, ds2);
    }

    #[test]
    fn missing_markers_become_nan() {
        let text = "a,b\n?,2\n3,\n5,NA\n";
        let ds = read_str(text, &CsvOptions::default()).unwrap();
        assert!(ds.is_missing(0, 0));
        assert!(ds.is_missing(1, 1));
        assert!(ds.is_missing(2, 1));
        assert_eq!(ds.missing_count(), 3);
    }

    #[test]
    fn unparsable_fields_become_nan() {
        let text = "a\nhello\n3\n";
        let ds = read_str(text, &CsvOptions::default()).unwrap();
        assert!(ds.is_missing(0, 0));
        assert_eq!(ds.value(1, 0), 3.0);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let recs = parse_records("\"a,b\",\"say \"\"hi\"\"\"\n1,2\n", ',').unwrap();
        assert_eq!(recs[0], vec!["a,b".to_string(), "say \"hi\"".to_string()]);
        assert_eq!(recs[1], vec!["1".to_string(), "2".to_string()]);
    }

    #[test]
    fn quoted_field_with_newline() {
        let recs = parse_records("\"line1\nline2\",x\n", ',').unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0][0], "line1\nline2");
    }

    #[test]
    fn crlf_and_missing_trailing_newline() {
        let recs = parse_records("a,b\r\n1,2", ',').unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], vec!["1".to_string(), "2".to_string()]);
        // A lone `\r` ends a record too.
        let recs = parse_records("a,b\r1,2\r", ',').unwrap();
        assert_eq!(recs, parse_records("a,b\n1,2\n", ',').unwrap());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let recs = parse_records("a\n\n1\n\n", ',').unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn lone_quoted_empty_field_is_a_record_not_a_blank_line() {
        // Regression (found by fuzzing): `""` is one record with one empty
        // field; a bare newline is a blank line to skip.
        let recs = parse_records("\"\"", ',').unwrap();
        assert_eq!(recs, vec![vec![String::new()]]);
        let recs = parse_records("\"\"\nx\n", ',').unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], vec![String::new()]);
    }

    #[test]
    fn trim_agrees_with_str_trim() {
        let ends = (0..128u8)
            .map(char::from)
            .chain(['\u{85}', '\u{a0}', '\u{3000}', 'é']);
        for c in ends {
            for field in [
                c.to_string(),
                format!("{c}1"),
                format!("1{c}"),
                format!("{c}1{c}"),
            ] {
                assert_eq!(trim(&field), field.trim(), "{field:?}");
            }
        }
    }

    #[test]
    fn labels_are_coded_in_order_of_first_appearance() {
        // Thousands of distinct labels, each seen again later.
        let ids: Vec<usize> = (0..5_000).chain((0..5_000).rev()).collect();
        let mut text = String::from("x,id\n");
        for id in &ids {
            text.push_str(&format!("1, L{} \n", id * 7 % 5_000));
        }
        let options = CsvOptions {
            label_column: Some(ColumnRef::Name("id".into())),
            ..CsvOptions::default()
        };
        let ds = read_str(&text, &options).unwrap();
        let want: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
        assert_eq!(ds.labels(), Some(&want[..]));
    }

    #[test]
    fn label_column_by_name() {
        let text = "f1,class,f2\n1,yes,10\n2,no,20\n3,yes,30\n";
        let options = CsvOptions {
            label_column: Some(ColumnRef::Name("class".into())),
            ..CsvOptions::default()
        };
        let ds = read_str(text, &options).unwrap();
        assert_eq!(ds.n_dims(), 2);
        assert_eq!(ds.names(), &["f1".to_string(), "f2".to_string()]);
        assert_eq!(ds.labels(), Some(&[0, 1, 0][..]));
        assert_eq!(ds.value(2, 1), 30.0);
    }

    #[test]
    fn label_column_by_index_without_header() {
        let text = "1,A\n2,B\n3,A\n";
        let options = CsvOptions {
            has_header: false,
            label_column: Some(ColumnRef::Index(1)),
            ..CsvOptions::default()
        };
        let ds = read_str(text, &options).unwrap();
        assert_eq!(ds.n_dims(), 1);
        assert_eq!(ds.labels(), Some(&[0, 1, 0][..]));
    }

    #[test]
    fn error_cases() {
        assert!(read_str("", &CsvOptions::default()).is_err());
        assert!(read_str("a,b\n", &CsvOptions::default()).is_err()); // header only
        assert!(read_str("a,b\n1\n", &CsvOptions::default()).is_err()); // ragged
        assert!(parse_records("\"unterminated", ',').is_err());
        assert!(parse_records("ab\"cd\n", ',').is_err()); // quote mid-field
        let options = CsvOptions {
            label_column: Some(ColumnRef::Name("nope".into())),
            ..CsvOptions::default()
        };
        assert!(read_str("a,b\n1,2\n", &options).is_err());
        let options = CsvOptions {
            label_column: Some(ColumnRef::Index(9)),
            ..CsvOptions::default()
        };
        assert!(read_str("a,b\n1,2\n", &options).is_err());
        let options = CsvOptions {
            has_header: false,
            label_column: Some(ColumnRef::Name("x".into())),
            ..CsvOptions::default()
        };
        assert!(read_str("1,2\n", &options).is_err());
    }

    #[test]
    fn custom_delimiter() {
        let options = CsvOptions {
            delimiter: ';',
            ..CsvOptions::default()
        };
        let ds = read_str("a;b\n1;2\n", &options).unwrap();
        assert_eq!(ds.value(0, 1), 2.0);
        // A multi-byte delimiter, next to other characters sharing its
        // first UTF-8 byte (`§` and `°` both start with 0xC2).
        let options = CsvOptions {
            delimiter: '§',
            ..CsvOptions::default()
        };
        let ds = read_str("a°§b\n1§2\n", &options).unwrap();
        assert_eq!(ds.names(), &["a°".to_string(), "b".to_string()]);
        assert_eq!(ds.value(0, 1), 2.0);
    }

    /// A reader handing out `pieces`, one per read.
    struct Pieces<'a>(Vec<&'a [u8]>);

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(piece) = self.0.first_mut() else {
                return Ok(0);
            };
            let n = piece.len().min(buf.len());
            buf[..n].copy_from_slice(&piece[..n]);
            *piece = &piece[n..];
            if piece.is_empty() {
                self.0.remove(0);
            }
            Ok(n)
        }
    }

    /// `read_from` over `pieces` reads what `read_str` reads from their
    /// concatenation, errors included.
    fn read_pieces(pieces: &[&str], options: &CsvOptions) -> Result<Dataset, DataError> {
        let chunked = read_from(
            Pieces(pieces.iter().map(|p| p.as_bytes()).collect()),
            options,
        );
        assert_eq!(chunked, read_str(&pieces.concat(), options), "{pieces:?}");
        chunked
    }

    #[test]
    fn crlf_split_across_reads() {
        let options = CsvOptions::default();
        let ds = read_pieces(&["a,b\r", "\n1,2\r", "\n3,4"], &options).unwrap();
        assert_eq!((ds.n_rows(), ds.value(1, 1)), (2, 4.0));
        // Record numbers in errors run on across the reads.
        let err = read_pieces(&["a,b\r", "\n1,2\r", "\nx\"y\n"], &options).unwrap_err();
        assert!(err.to_string().contains("at record 3"), "{err}");
    }

    #[test]
    fn quoted_newline_straddling_reads() {
        let ds = read_pieces(&["\"x\n", "y\",b\n1", ",2\n"], &CsvOptions::default()).unwrap();
        assert_eq!(ds.names(), &["x\ny".to_string(), "b".to_string()]);
        let options = CsvOptions {
            label_column: Some(ColumnRef::Name("class".into())),
            ..CsvOptions::default()
        };
        let ds = read_pieces(&["a,class\n1,\"p\r", "\nq\"\n2,r\n"], &options).unwrap();
        assert_eq!(ds.labels(), Some(&[0, 1][..]));
        assert_eq!(ds.value(1, 0), 2.0);
    }

    #[test]
    fn record_longer_than_a_chunk() {
        let names: Vec<String> = (0..12_000).map(|j| format!("c{j}")).collect();
        let text = format!("{}\n{}\n", names.join(","), vec!["1"; 12_000].join(","));
        assert!(text.find('\n').unwrap() > CHUNK);
        let ds = read_from(text.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(ds, read_str(&text, &CsvOptions::default()).unwrap());
        assert_eq!((ds.n_rows(), ds.n_dims()), (1, 12_000));
    }

    #[test]
    fn invalid_utf8_after_a_csv_error_is_reported_first() {
        // A stray quote in record 2, then invalid UTF-8 chunks later.
        let mut bytes = b"a,b\n1,2\"\n".to_vec();
        for _ in 0..50_000 {
            bytes.extend_from_slice(b"1,2\n");
        }
        bytes.extend_from_slice(b"\xff\n");
        let dir = std::env::temp_dir().join("hdoutlier-csv-utf8-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, &bytes).unwrap();
        // The text std reports when it reads the file whole.
        let invalid = "stream did not contain valid UTF-8";
        assert_eq!(
            read_path(&path, &CsvOptions::default()),
            Err(DataError::Parse(format!("{}: {invalid}", path.display())))
        );
        std::fs::remove_dir_all(&dir).ok();

        // A character split by a read is still UTF-8, so the CSV error
        // stands; cut off at the end, it is not.
        let stray = read_str("a,b\nx\"y\n", &CsvOptions::default()).unwrap_err();
        let read = |pieces: Vec<&[u8]>| read_from(Pieces(pieces), &CsvOptions::default());
        assert_eq!(read(vec![b"a,b\nx\"y\n", b"\xc3", b"\xa9\n"]), Err(stray));
        assert_eq!(
            read(vec![b"a,b\nx\"y\n", b"\xc3"]),
            Err(DataError::Parse(invalid.into()))
        );
    }

    #[test]
    fn writer_escapes_special_names() {
        let mut ds = Dataset::from_rows(vec![vec![1.0, f64::NAN]]).unwrap();
        ds.set_names(vec!["plain", "with,comma"]).unwrap();
        let s = write_string(&ds);
        assert!(s.starts_with("plain,\"with,comma\"\n"));
        assert!(s.contains("1,NaN\n")); // NaN written explicitly
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("hdoutlier-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let ds = Dataset::from_rows(vec![vec![1.5, 2.5], vec![3.0, f64::NAN]]).unwrap();
        write_path(&ds, &path).unwrap();
        let back = read_path(&path, &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.value(0, 1), 2.5);
        assert!(back.is_missing(1, 1));
        assert!(read_path(dir.join("nonexistent.csv"), &CsvOptions::default()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
