//! [`Row`]: one measurement as an ordered list of named cells. The same
//! value is the markdown line `table` prints, the flat JSON object a
//! `BENCH_*.json` file holds, and what a gate reads through typed
//! accessors — so a column is named where it is measured and nowhere else.

use std::fmt;
use std::path::Path;

/// One cell. `Float` carries the number of decimals it is written with,
/// so a regenerated file differs from the committed one in values only.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Int(u64),
    Float(f64, usize),
    Str(String),
}

impl fmt::Display for Value {
    /// The JSON form; strings escape `\` and `"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x, decimals) => write!(f, "{x:.decimals$}"),
            Value::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

/// An ordered list of `(key, value)` cells plus where the row came from
/// (`BENCH_e9.json row 4`, or the experiment name for a fresh
/// measurement), which every access error names.
#[derive(Clone, Debug)]
pub struct Row {
    pub origin: String,
    pub cells: Vec<(String, Value)>,
}

impl Row {
    /// A fresh row; `experiment` becomes its first cell, as in every file.
    pub fn new(experiment: &str) -> Row {
        let row = Row {
            origin: experiment.to_string(),
            cells: Vec::new(),
        };
        row.text("experiment", experiment)
    }

    fn with(mut self, key: &str, value: Value) -> Row {
        self.cells.push((key.to_string(), value));
        self
    }

    /// Appends a counter or a nanosecond reading.
    pub fn int<T: TryInto<u64>>(self, key: &str, value: T) -> Row {
        let Ok(value) = value.try_into() else {
            panic!("{}: `{key}` does not fit a u64", self.origin)
        };
        self.with(key, Value::Int(value))
    }

    /// Appends a ratio or rate, written with `decimals` decimals.
    pub fn float(self, key: &str, value: f64, decimals: usize) -> Row {
        self.with(key, Value::Float(value, decimals))
    }

    /// Appends a name (an arm, a shape, a family).
    pub fn text(self, key: &str, value: &str) -> Row {
        self.with(key, Value::Str(value.to_string()))
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        let cell = self.cells.iter().find(|(name, _)| name == key);
        cell.map(|(_, value)| value)
    }

    /// The one access error: where the row came from, the key, what the
    /// gate wanted and what the row holds.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        want: &str,
        pick: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(pick)
            .ok_or_else(|| self.unexpected(key, want))
    }

    /// The error for a cell that does not hold `want` — a missing or
    /// mistyped column, or a value no gate has a case for (a renamed arm).
    pub fn unexpected(&self, key: &str, want: &str) -> String {
        let found = self
            .get(key)
            .map_or("nothing".to_string(), Value::to_string);
        let origin = &self.origin;
        format!("{origin}: key `{key}` must hold {want}, found {found}")
    }

    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "an integer", |value| match value {
            Value::Int(n) => Some(*n),
            _ => None,
        })
    }

    /// A number; integer cells (nanoseconds, counts) convert.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", |value| match value {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x, _) => Some(*x),
            Value::Str(_) => None,
        })
    }

    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", |value| match value {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// `{"key": value, …}` on one line, the form the files hold.
    pub fn json(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        format!("{{{}}}", cells.join(", "))
    }

    /// `| key | key |` over `|---|---|`: the table header this row fits.
    pub fn markdown_header(&self) -> String {
        let keys: Vec<&str> = self.cells.iter().map(|(key, _)| key.as_str()).collect();
        format!("| {} |\n|{}", keys.join(" | "), "---|".repeat(keys.len()))
    }

    /// `| value | value |`, strings unquoted.
    pub fn markdown(&self) -> String {
        let values: Vec<String> = self
            .cells
            .iter()
            .map(|(_, value)| match value {
                Value::Str(s) => s.clone(),
                number => number.to_string(),
            })
            .collect();
        format!("| {} |", values.join(" | "))
    }

    /// Parses one [`Row::json`] line back; `origin` names it in errors.
    pub fn parse(origin: &str, line: &str) -> Result<Row, String> {
        let malformed = |what: &str| format!("{origin}: malformed row, {what}");
        let line = line.trim().trim_end_matches(',');
        let body = line.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
        let mut rest = body
            .ok_or_else(|| malformed("expected `{…}`"))?
            .trim_start();
        let mut row = Row {
            origin: origin.to_string(),
            cells: Vec::new(),
        };
        while !rest.is_empty() {
            let (key, after) = quoted(rest).ok_or_else(|| malformed("expected a quoted key"))?;
            let after = after.trim_start().strip_prefix(':');
            let after = after.ok_or_else(|| malformed("expected `:`"))?.trim_start();
            let (value, after) = match quoted(after) {
                Some((text, after)) => (Value::Str(text), after),
                None => {
                    let end = after.find(',').unwrap_or(after.len());
                    let token = after[..end].trim();
                    let decimals = token.split_once('.').map(|(_, frac)| frac.len());
                    let value = match decimals {
                        None => token.parse().ok().map(Value::Int),
                        Some(d) => token.parse().ok().map(|x| Value::Float(x, d)),
                    };
                    let value = value.ok_or_else(|| {
                        format!("{origin}: key `{key}` holds `{token}`, not a number or string")
                    })?;
                    (value, &after[end..])
                }
            };
            row.cells.push((key, value));
            rest = after.trim_start();
            rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        }
        Ok(row)
    }

    /// Reads `root/file`, a `BENCH_*.json` file: `[`, one row per line, `]`.
    pub fn load(root: &Path, file: &str) -> Result<Vec<Row>, String> {
        let text = std::fs::read_to_string(root.join(file)).map_err(|error| {
            format!("{file}: cannot read ({error}); run from the repository root")
        })?;
        Row::parse_file(file, &text)
    }

    /// [`Row::load`] on text already in memory; rows are numbered from 1.
    pub fn parse_file(name: &str, text: &str) -> Result<Vec<Row>, String> {
        let lines = text.lines().map(str::trim);
        let rows = lines.filter(|line| !matches!(*line, "" | "[" | "]"));
        rows.enumerate()
            .map(|(i, line)| Row::parse(&format!("{name} row {}", i + 1), line))
            .collect()
    }

    /// The file form of `rows`, the inverse of [`Row::parse_file`].
    pub fn render_file(rows: &[Row]) -> String {
        let lines: Vec<String> = rows.iter().map(|row| format!("  {}", row.json())).collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

/// Splits a leading `"…"` (with `\\` and `\"` escapes) off `text`.
fn quoted(text: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = text.strip_prefix('"')?.char_indices();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' => return Some((out, &text[at + 2..])),
            '\\' => out.push(chars.next()?.1),
            c => out.push(c),
        }
    }
    None
}
