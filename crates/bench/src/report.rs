//! Table printing and JSON experiment records.
//!
//! JSON is emitted by hand (see [`json`]) — the record shape is flat
//! (strings, string arrays, and nested string arrays), so a serializer
//! dependency buys nothing here.

use std::io::Write;
use std::path::Path;

/// Print a fixed-width table with a header row.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |sep: &str| {
        let mut s = String::new();
        for (i, w) in widths.iter().enumerate() {
            s.push_str(if i == 0 { "+" } else { sep });
            s.push_str(&"-".repeat(w + 2));
        }
        s.push('+');
        s
    };
    println!("{}", line("+"));
    let mut h = String::new();
    for (hd, w) in headers.iter().zip(&widths) {
        h.push_str(&format!("| {hd:<w$} "));
    }
    println!("{h}|");
    println!("{}", line("+"));
    for row in rows {
        let mut r = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            r.push_str(&format!("| {cell:>w$} "));
        }
        println!("{r}|");
    }
    println!("{}", line("+"));
}

/// Minimal JSON emission helpers for the flat shapes this crate writes.
pub mod json {
    /// Escape a string per RFC 8259 (quotes, backslash, control chars).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// `"s"` with escaping.
    pub fn string(s: &str) -> String {
        format!("\"{}\"", escape(s))
    }

    /// `["a", "b", ...]` of strings.
    pub fn string_array(items: &[String]) -> String {
        let inner: Vec<String> = items.iter().map(|s| string(s)).collect();
        format!("[{}]", inner.join(", "))
    }

    /// A finite f64 as a JSON number (nan/inf map to null).
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
}

/// A JSON-serializable record of one experiment run (appended to
/// `results/<experiment>.json` by the harness).
pub struct ExperimentRecord {
    pub experiment: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub notes: String,
}

impl ExperimentRecord {
    pub fn new(experiment: &str, headers: &[&str], rows: &[Vec<String>], notes: &str) -> Self {
        ExperimentRecord {
            experiment: experiment.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: rows.to_vec(),
            notes: notes.to_string(),
        }
    }

    /// Pretty-printed JSON object for this record.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> =
            self.rows.iter().map(|r| format!("    {}", json::string_array(r))).collect();
        format!(
            "{{\n  \"experiment\": {},\n  \"headers\": {},\n  \"rows\": [\n{}\n  ],\n  \"notes\": {}\n}}",
            json::string(&self.experiment),
            json::string_array(&self.headers),
            rows.join(",\n"),
            json::string(&self.notes)
        )
    }

    /// Write to `dir/<experiment>.json`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_through_json() {
        let r = ExperimentRecord::new(
            "table3",
            &["n_mu", "qrcp", "kmeans"],
            &[vec!["512".into(), "10.12".into(), "1.61".into()]],
            "scaled",
        );
        let s = r.to_json();
        assert!(s.contains("table3"));
        assert!(s.contains("10.12"));
    }

    #[test]
    fn record_saves_to_disk() {
        let dir = std::env::temp_dir().join("lrtddft_report_test");
        let r = ExperimentRecord::new("t", &["a"], &[vec!["1".into()]], "");
        r.save(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert!(content.contains("\"experiment\": \"t\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json::string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::number(1.5), "1.5");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        print_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
