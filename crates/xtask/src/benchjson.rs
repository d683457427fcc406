//! Validator for `BENCH_<bin>.json` snapshots (`xtask check-bench`).
//!
//! The bench bins emit their observability snapshot through
//! `saccs_obs::json::bench_snapshot`; CI runs every bench bin's first
//! run under `SACCS_OBS=json` and feeds its snapshot through this
//! validator to catch emitter regressions (truncated writes, broken
//! escaping, dropped sections) without taking a serde dependency. The
//! parser is a minimal recursive-descent pass over the full JSON
//! grammar — strict enough to reject malformed output, small enough to
//! audit.

/// A parsed JSON value; only the shapes the validator inspects are
/// retained structurally (objects), the rest collapse to leaves.
#[derive(Debug, PartialEq)]
pub(crate) enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    pub(crate) fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Sections every snapshot must carry, whatever the bin.
const REQUIRED_KEYS: [&str; 6] = [
    "schema",
    "bin",
    "headline",
    "counters",
    "gauges",
    "histograms",
];

/// Validate one snapshot document; returns the list of problems (empty =
/// valid). Checks syntax, the required top-level keys, and the shape of
/// each section (`schema`/`bin` scalars, the rest objects). Schema 2
/// adds a required `host` object; a schema-1 snapshot, written before
/// snapshots said where they ran, has none.
pub(crate) fn validate(text: &str) -> Vec<String> {
    let root = match Parser::new(text).document() {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let mut problems = Vec::new();
    if !matches!(root, Value::Object(_)) {
        return vec!["top level is not a JSON object".into()];
    }
    let schema_1 = matches!(root.get("schema"), Some(Value::Number(n)) if *n == 1.0);
    let host = (!schema_1).then_some("host");
    for key in REQUIRED_KEYS.into_iter().chain(host) {
        match (key, root.get(key)) {
            (_, None) => problems.push(format!("missing required key `{key}`")),
            ("schema", Some(Value::Number(_))) | ("bin", Some(Value::String(_))) => {}
            ("schema" | "bin", Some(v)) => {
                problems.push(format!("`{key}` has wrong type: {}", type_name(v)))
            }
            (_, Some(Value::Object(_))) => {}
            (_, Some(v)) => problems.push(format!("`{key}` is not an object: {}", type_name(v))),
        }
    }
    if let Some(Value::Object(fields)) = root.get("histograms") {
        for (name, body) in fields {
            for stat in ["count", "p50_ns", "p95_ns", "p99_ns"] {
                if !matches!(body.get(stat), Some(Value::Number(_))) {
                    problems.push(format!("histogram `{name}` missing numeric `{stat}`"));
                }
            }
        }
    }
    problems
}

fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Number(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

/// Minimal JSON parser, shared with the flight-recorder report
/// validator (`reportjson`).
pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    /// Parse exactly one value followed by optional whitespace and EOF.
    pub(crate) fn document(&mut self) -> Result<Value, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Value::String(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected byte `{}` at {}",
                char::from(other),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .bytes
                .get(self.pos)
                .copied()
                .ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogates would need pairing; the emitter
                            // never produces them, so reject outright.
                            out.push(char::from_u32(code).ok_or("\\u escape is a surrogate")?);
                        }
                        _ => return Err(format!("bad escape `\\{}`", char::from(esc))),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the remaining continuation
                    // bytes of this char verbatim (input is valid UTF-8
                    // by construction of `&str`).
                    let start = self.pos - 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "schema": 2,
  "bin": "table3",
  "host": { "cores": 2, "commit": "unknown" },
  "headline": { "total_sentences": 4130 },
  "counters": { "table3.datasets": 4 },
  "gauges": {},
  "histograms": {
    "algo1.rank": { "count": 30, "sum_ns": 12, "min_ns": 1, "max_ns": 2,
                    "p50_ns": 1, "p95_ns": 2, "p99_ns": 2 }
  }
}"#;

    #[test]
    fn accepts_a_well_formed_snapshot() {
        assert_eq!(validate(GOOD), Vec::<String>::new());
    }

    #[test]
    fn rejects_syntax_errors_and_truncation() {
        assert!(validate("{")[0].contains("not valid JSON"));
        assert!(validate(&GOOD[..GOOD.len() - 2])[0].contains("not valid JSON"));
        assert!(validate("{} trailing")[0].contains("not valid JSON"));
    }

    #[test]
    fn host_is_required_from_schema_2() {
        let host = "  \"host\": { \"cores\": 2, \"commit\": \"unknown\" },\n";
        let schema_1 = GOOD.replace("\"schema\": 2", "\"schema\": 1");
        assert_eq!(validate(&schema_1.replace(host, "")), Vec::<String>::new());
        let problems = validate(&GOOD.replace(host, ""));
        assert_eq!(problems, ["missing required key `host`"]);
    }

    /// The snapshots committed at the repository root pass the check
    /// that CI runs on freshly written ones.
    #[test]
    fn committed_snapshots_validate() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut checked = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).unwrap();
                assert_eq!(validate(&text), Vec::<String>::new(), "{name}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no BENCH_*.json under {}", root.display());
    }

    #[test]
    fn reports_each_missing_required_key() {
        let problems = validate(r#"{ "schema": 2, "bin": "t" }"#);
        assert_eq!(problems.len(), 5, "unexpected: {problems:?}");
        for key in ["host", "headline", "counters", "gauges", "histograms"] {
            assert!(
                problems.iter().any(|p| p.contains(key)),
                "no report for {key}"
            );
        }
    }

    #[test]
    fn rejects_wrong_section_types_and_histogram_shape() {
        let problems = validate(
            r#"{ "schema": "one", "bin": "t", "host": {}, "headline": [], "counters": {},
                "gauges": {}, "histograms": { "h": { "count": 1 } } }"#,
        );
        assert!(problems.iter().any(|p| p.contains("`schema`")));
        assert!(problems.iter().any(|p| p.contains("`headline`")));
        assert!(problems.iter().any(|p| p.contains("p50_ns")));
    }

    #[test]
    fn parser_handles_escapes_nesting_and_numbers() {
        let v = Parser::new(r#"{"a\nA": [-1.5e3, true, null, "x"]}"#)
            .document()
            .unwrap();
        assert_eq!(
            v.get("a\nA"),
            Some(&Value::Array(vec![
                Value::Number(-1500.0),
                Value::Bool(true),
                Value::Null,
                Value::String("x".into()),
            ]))
        );
    }
}
