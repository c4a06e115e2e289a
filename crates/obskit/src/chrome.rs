//! Chrome Trace Event Format export and validation.
//!
//! [`chrome_trace_json`] serialises a [`Trace`] as `{"traceEvents":[...]}`
//! with one process row per simulated MPI rank (`pid` = rank) and one lane
//! per thread (`tid` = process-unique lane id), `B`/`E` duration events for
//! spans, `i` instant events, and `thread_name` metadata (`M`) events
//! labelling each lane (`"rank 2"`, `"bench client 1"`, …). The output loads in
//! `chrome://tracing` and Perfetto.
//!
//! [`validate_chrome_trace`] re-parses exported (or externally produced)
//! JSON with the minimal recursive-descent parser below and checks the
//! schema: `traceEvents` is an array, every event carries
//! `name`/`ph`/`ts`/`pid`/`tid`, and per-`(pid,tid)` lane every `B` has a
//! matching `E` in stack order. Complete (`X`) and metadata (`M`) events
//! are accepted. `repro trace-report --check` builds on it.

use crate::span::EventKind;
use crate::trace::Trace;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serialise a [`Trace`] in Chrome Trace Event Format. Timestamps are
/// microseconds since the session epoch (the format's unit); span/instant
/// args become the event `args` object; the roll-up stage is the `cat`.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for rank in &trace.ranks {
        // Label the lane so unranked worker threads are distinguishable.
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{},\"tid\":{},\"args\":{{\"name\":{}}}}}",
            rank.rank,
            rank.tid,
            escape(&rank.label),
        );
        for ev in &rank.events {
            out.push(',');
            let ph = match ev.kind {
                EventKind::Begin => "B",
                EventKind::End { .. } => "E",
                EventKind::Instant => "i",
            };
            let ts_us = ev.ts_ns as f64 / 1e3;
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts_us:.3},\"pid\":{},\"tid\":{}",
                escape(ev.name),
                ev.stage.label(),
                rank.rank,
                rank.tid,
            );
            if ev.kind == EventKind::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            let aborted = matches!(ev.kind, EventKind::End { aborted: true });
            if !ev.args.is_empty() || aborted {
                out.push_str(",\"args\":{");
                let mut afirst = true;
                for (k, v) in &ev.args {
                    if !afirst {
                        out.push(',');
                    }
                    afirst = false;
                    let _ = write!(out, "{}:{}", escape(k), fmt_number(*v));
                }
                if aborted {
                    if !afirst {
                        out.push(',');
                    }
                    out.push_str("\"aborted\":true");
                }
                out.push('}');
            }
            out.push('}');
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_number(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no Infinity/NaN; clamp to null-ish sentinel.
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON value model + recursive-descent parser (no external deps).
// ---------------------------------------------------------------------------

/// Minimal JSON value for trace validation.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Parse a JSON document. Strict enough for trace files: objects, arrays,
/// strings with escapes, numbers, booleans, null; trailing garbage is an
/// error.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err("truncated \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one full UTF-8 scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// What [`validate_chrome_trace`] learned about a well-formed trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeTraceStats {
    /// Distinct `(pid, tid)` lanes (one per simulated rank).
    pub lanes: usize,
    /// Complete `B`/`E` span pairs.
    pub spans: usize,
    /// `i` instant events.
    pub instants: usize,
    /// Metadata (`M`) events, e.g. `thread_name` lane labels.
    pub metadata: usize,
    /// Distinct `cat` values seen, sorted.
    pub categories: Vec<String>,
}

/// Validate Chrome-trace JSON produced by [`chrome_trace_json`] (or any
/// conforming producer): structural JSON validity, required event fields,
/// and per-lane stack-ordered `B`/`E` matching. Returns summary stats on
/// success, a descriptive error on the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceStats, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing 'traceEvents' key")?
        .as_array()
        .ok_or("'traceEvents' is not an array")?;

    let mut stats = ChromeTraceStats::default();
    let mut lanes: HashMap<(i64, i64), Vec<String>> = HashMap::new();
    let mut cats: Vec<String> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or(format!("event {i}: missing string 'name'"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or(format!("event {i}: missing string 'ph'"))?;
        ev.get("ts")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i}: missing numeric 'ts'"))?;
        let pid = ev
            .get("pid")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i}: missing numeric 'pid'"))? as i64;
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i}: missing numeric 'tid'"))? as i64;
        if let Some(cat) = ev.get("cat").and_then(Value::as_str) {
            if !cats.iter().any(|c| c == cat) {
                cats.push(cat.to_string());
            }
        }
        if ph == "M" {
            // Metadata events label lanes; they don't open one themselves.
            stats.metadata += 1;
            continue;
        }
        let stack = lanes.entry((pid, tid)).or_default();
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                let open = stack.pop().ok_or(format!(
                    "event {i}: 'E' for '{name}' on lane ({pid},{tid}) with no open 'B'"
                ))?;
                if open != name {
                    return Err(format!(
                        "event {i}: 'E' for '{name}' does not match open 'B' for '{open}' on lane ({pid},{tid})"
                    ));
                }
                stats.spans += 1;
            }
            "X" => {
                // Complete event: a self-contained span, no stack involvement.
                ev.get("dur")
                    .and_then(Value::as_f64)
                    .ok_or(format!("event {i}: 'X' event missing numeric 'dur'"))?;
                stats.spans += 1;
            }
            "i" | "I" => stats.instants += 1,
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }
    for ((pid, tid), stack) in &lanes {
        if let Some(open) = stack.last() {
            return Err(format!("lane ({pid},{tid}): span '{open}' never closed"));
        }
    }
    stats.lanes = lanes.len();
    cats.sort();
    stats.categories = cats;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::testutil;
    use crate::{disable, enable, instant, span, take_trace, Stage};

    #[test]
    fn export_roundtrips_through_validator() {
        let _g = testutil::exclusive();
        enable();
        {
            let _outer = span(Stage::Diag, "diag");
            {
                let mut m = span(Stage::Mpi, "mpi:allreduce");
                m.arg("bytes", 4096.0);
            }
            instant(Stage::Diag, "lobpcg.iter", &[("iter", 2.0), ("resid", 1e-6)]);
        }
        disable();
        let t = take_trace();
        let json = chrome_trace_json(&t);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.lanes, 1);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.instants, 1);
        assert!(stats.categories.contains(&"mpi".to_string()));
        assert!(stats.categories.contains(&"diag".to_string()));
    }

    #[test]
    fn validator_rejects_unbalanced_lanes() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":0,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn validator_rejects_mismatched_close() {
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":0,"tid":0},
            {"name":"b","ph":"E","ts":1,"pid":0,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_fields() {
        let json = r#"{"traceEvents":[{"ph":"B","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(json).unwrap_err().contains("'name'"));
        let json = r#"{"traceEvents":[{"name":"a","ph":"B","ts":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(json).unwrap_err().contains("'pid'"));
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_chrome_trace("{not json").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":7}"#).is_err());
        assert!(validate_chrome_trace(r#"{"other":[]}"#).is_err());
    }

    #[test]
    fn lanes_follow_rank_ids() {
        let _g = testutil::exclusive();
        enable();
        std::thread::scope(|s| {
            for rank in 0..4 {
                s.spawn(move || {
                    crate::set_rank(rank);
                    let _sp = span(Stage::Gemm, "work");
                });
            }
        });
        disable();
        let t = take_trace();
        let stats = validate_chrome_trace(&chrome_trace_json(&t)).unwrap();
        assert_eq!(stats.lanes, 4);
        assert_eq!(stats.spans, 4);
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = parse_json(r#"{"s":"a\"b\\c\ndA","n":[-1.5e3,0,12]}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\c\ndA"));
        let arr = v.get("n").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(-1500.0));
        assert_eq!(arr[2].as_f64(), Some(12.0));
    }

    #[test]
    fn escape_produces_valid_json_strings() {
        let s = escape("he said \"hi\"\n\ttab\\end");
        let parsed = parse_json(&s).unwrap();
        assert_eq!(parsed.as_str(), Some("he said \"hi\"\n\ttab\\end"));
    }
}
