//! The machine-readable analysis report (`--json` / `--check`).
//!
//! [`render`] serders an [`Analysis`] into a stable JSON document: keys
//! appear in a fixed order, maps are `BTreeMap`-sorted, there are no
//! timestamps or machine-local values — two runs over the same tree
//! produce byte-identical output (verify.sh `cmp`s consecutive runs).
//!
//! [`check`] is the schema gate for the committed
//! `results/analyze_report.json`: it re-parses a report with the
//! hand-rolled [`parse`] (the workspace is hermetic — no serde) and
//! enforces the acceptance thresholds: zero open findings on every
//! rule, non-trivial reachability sets behind L007–L009, and a
//! certified wire surface behind L010.

use std::collections::BTreeMap;

use crate::engine::Analysis;
use crate::rules::RuleId;

/// Schema identifier the gate pins.
pub const SCHEMA_VERSION: u64 = 1;

/// Renders the report; see module docs for the stability contract.
pub fn render(a: &Analysis) -> String {
    let mut counts: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for rule in RuleId::ALL {
        counts.insert(rule.code(), (0, 0));
    }
    for d in &a.open {
        counts.entry(d.rule.code()).or_insert((0, 0)).0 += 1;
    }
    for d in &a.suppressed {
        counts.entry(d.rule.code()).or_insert((0, 0)).1 += 1;
    }
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    s.push_str("  \"rules\": {\n");
    let n = counts.len();
    for (i, (code, (open, supp))) in counts.iter().enumerate() {
        s.push_str(&format!(
            "    \"{code}\": {{\"open\": {open}, \"suppressed\": {supp}}}{}\n",
            comma(i, n)
        ));
    }
    s.push_str("  },\n");
    s.push_str("  \"callgraph\": {\n");
    s.push_str(&format!("    \"functions\": {},\n", a.graph.nodes.len()));
    s.push_str(&format!("    \"edges\": {},\n", a.graph.edge_count()));
    s.push_str(&format!("    \"resolved_calls\": {},\n", a.graph.resolved_calls));
    s.push_str(&format!("    \"ambiguous_calls\": {},\n", a.graph.ambiguous_calls));
    s.push_str(&format!(
        "    \"unresolved_calls\": {}\n",
        a.graph.unresolved_total()
    ));
    s.push_str("  },\n");
    s.push_str("  \"reachability\": {\n");
    let nr = a.reach.len();
    for (i, (rule, info)) in a.reach.iter().enumerate() {
        s.push_str(&format!("    \"{}\": {{\n", rule.code()));
        s.push_str("      \"roots\": [");
        for (j, r) in info.roots.iter().enumerate() {
            s.push_str(&format!("\"{r}\"{}", comma(j, info.roots.len())));
        }
        s.push_str("],\n");
        s.push_str(&format!("      \"reachable_fns\": {},\n", info.reachable_fns));
        s.push_str("      \"per_crate\": {");
        let nc = info.per_crate.len();
        for (j, (krate, count)) in info.per_crate.iter().enumerate() {
            s.push_str(&format!("\"{krate}\": {count}{}", comma(j, nc)));
        }
        s.push_str("}\n");
        s.push_str(&format!("    }}{}\n", comma(i, nr)));
    }
    s.push_str("  },\n");
    s.push_str("  \"wire\": {\n");
    s.push_str(&format!("    \"opcodes_total\": {},\n", a.wire.opcodes_total));
    s.push_str(&format!(
        "    \"opcodes_certified\": {},\n",
        a.wire.opcodes_certified
    ));
    s.push_str(&format!(
        "    \"error_codes_total\": {},\n",
        a.wire.error_codes_total
    ));
    s.push_str(&format!(
        "    \"error_codes_certified\": {}\n",
        a.wire.error_codes_certified
    ));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

fn comma(i: usize, n: usize) -> &'static str {
    if i + 1 < n {
        ","
    } else {
        ""
    }
}

/// A parsed JSON value — just enough for the report schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, kept as f64 (the report only holds small integers).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, key-sorted.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, when a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses a JSON document. Errors carry a byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'u' => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("unknown escape \\{}", *other as char)),
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && b[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // {
    let mut m = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(m));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let v = parse_value(b, pos)?;
        m.insert(key, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(m));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // [
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(out));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

/// Minimum reachable-set size each semantic rule must certify, and the
/// minimum certified wire surface — the PR's acceptance floor.
pub const MIN_REACHABLE_FNS: u64 = 10;
/// Minimum certified opcodes / error codes.
pub const MIN_WIRE_CERTIFIED: u64 = 10;

/// Validates a rendered report against the schema + thresholds.
/// Returns every violation, not just the first.
pub fn check(text: &str) -> Result<(), Vec<String>> {
    let v = match parse(text) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };
    let mut errs = Vec::new();
    if v.get("schema_version").and_then(Value::as_u64) != Some(SCHEMA_VERSION) {
        errs.push(format!("schema_version must be {SCHEMA_VERSION}"));
    }
    for rule in RuleId::ALL {
        let code = rule.code();
        match v.get("rules").and_then(|r| r.get(code)) {
            None => errs.push(format!("rules.{code} missing")),
            Some(entry) => match entry.get("open").and_then(Value::as_u64) {
                Some(0) => {}
                Some(n) => errs.push(format!("rules.{code}.open is {n}, want 0")),
                None => errs.push(format!("rules.{code}.open missing")),
            },
        }
    }
    if v.get("callgraph")
        .and_then(|c| c.get("functions"))
        .and_then(Value::as_u64)
        .unwrap_or(0)
        == 0
    {
        errs.push("callgraph.functions is 0 — no graph was built".to_string());
    }
    for code in ["L007", "L008", "L009"] {
        let info = v.get("reachability").and_then(|r| r.get(code));
        let roots = info
            .and_then(|i| i.get("roots"))
            .map(|r| matches!(r, Value::Arr(a) if !a.is_empty()))
            .unwrap_or(false);
        if !roots {
            errs.push(format!("reachability.{code}.roots is empty"));
        }
        let reachable = info
            .and_then(|i| i.get("reachable_fns"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if reachable < MIN_REACHABLE_FNS {
            errs.push(format!(
                "reachability.{code}.reachable_fns is {reachable}, want >= {MIN_REACHABLE_FNS}"
            ));
        }
    }
    for (key, total_key) in [
        ("opcodes_certified", "opcodes_total"),
        ("error_codes_certified", "error_codes_total"),
    ] {
        let wire = v.get("wire");
        let certified = wire
            .and_then(|w| w.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        let total = wire
            .and_then(|w| w.get(total_key))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if certified < MIN_WIRE_CERTIFIED {
            errs.push(format!("wire.{key} is {certified}, want >= {MIN_WIRE_CERTIFIED}"));
        }
        if certified < total {
            errs.push(format!(
                "wire.{key} is {certified} of {total} — uncertified wire surface"
            ));
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{analyze_sources, SourceFile};

    fn tiny_analysis() -> crate::engine::Analysis {
        analyze_sources(&[SourceFile {
            path: "crates/sim/src/runner.rs".into(),
            source: "pub fn simulate_stream_probed() { helper(); }\nfn helper() {}\n".into(),
        }])
    }

    #[test]
    fn render_is_deterministic_and_parses_back() {
        let a = tiny_analysis();
        let one = render(&a);
        let two = render(&a);
        assert_eq!(one, two);
        let v = parse(&one).unwrap();
        assert_eq!(v.get("schema_version").and_then(Value::as_u64), Some(1));
        assert!(v.get("rules").and_then(|r| r.get("L007")).is_some());
        assert_eq!(
            v.get("callgraph")
                .and_then(|c| c.get("functions"))
                .and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn check_rejects_small_reach_sets_and_open_findings() {
        let a = tiny_analysis();
        let errs = check(&render(&a)).unwrap_err();
        // The tiny fixture certifies 2 fns — far below the floor — and
        // has no wire surface at all.
        assert!(errs.iter().any(|e| e.contains("reachable_fns")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("opcodes_certified")), "{errs:?}");
        assert!(!errs.iter().any(|e| e.contains(".open")), "{errs:?}");
    }

    #[test]
    fn check_rejects_bad_json_and_schema() {
        assert!(check("not json").is_err());
        let errs = check("{\"schema_version\": 2}").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("schema_version")));
    }

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v = parse(
            "{\"a\": [1, 2.5, -3], \"b\": {\"c\": \"x\\ny\", \"d\": null, \"e\": true}}",
        )
        .unwrap();
        let Value::Arr(a) = v.get("a").unwrap() else { panic!() };
        assert_eq!(a.len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("c"),
            Some(&Value::Str("x\ny".to_string()))
        );
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1, 2] trailing").is_err());
    }
}
