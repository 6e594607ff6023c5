//! A minimal JSON reader (the workspace takes no external crates) and
//! the tests holding `BENCHMARK.json` to what this binary emits and to
//! the limits the benchmark format sets.

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    fields.push((key, self.value()?));
                    self.ws();
                    if self.s.get(self.i) == Some(&b',') {
                        self.i += 1;
                    } else {
                        self.eat("}")?;
                        return Ok(Json::Obj(fields));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.s.get(self.i) == Some(&b',') {
                        self.i += 1;
                    } else {
                        self.eat("]")?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.i += 1;
                    out.push(match e {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            self.i += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).unwrap_or(""), 16)
                                    .map_err(|e| e.to_string())?;
                            char::from_u32(code).ok_or("bad \\u escape")?
                        }
                        other => other,
                    });
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
    use crate::workloads::ALL;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
        parse(&text).expect("BENCHMARK.json parses")
    }

    /// A name: a letter or digit, then at most 63 of `[A-Za-z0-9_.-]`.
    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn parser_reads_nested_documents() {
        let v = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"A"}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().arr()[1], Json::Num(-2500.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().str(), Some("x\"A"));
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1] 2").is_err());
    }

    #[test]
    fn manifest_has_exactly_the_format_keys() {
        let m = manifest();
        assert_eq!(
            m.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let secs = m.get("run_seconds").and_then(Json::num).unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
        let command = m.get("command").unwrap().arr();
        assert!(!command.is_empty() && command.len() <= 32);
        for c in command {
            let c = c.str().expect("command entries are strings");
            assert!(c.len() <= 200 && !c.starts_with('/') && !c.contains(".."));
        }
        let paths = m.get("paths").unwrap().arr();
        assert!((1..=16).contains(&paths.len()));
        for p in paths {
            let p = p.str().expect("paths are strings");
            assert!(p.len() <= 200 && !p.starts_with('/') && !p.contains(".."));
            assert!(p
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
            // The manifest sits at the repository root.
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
            assert!(
                std::path::Path::new(dir).join(p).is_dir(),
                "{p} is not a directory"
            );
        }
    }

    #[test]
    fn manifest_names_every_workload_the_binary_runs() {
        let m = manifest();
        let workloads = m.get("workloads").unwrap().arr();
        assert!((2..=8).contains(&workloads.len()));
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| {
                assert_eq!(w.keys(), ["name", "why"]);
                let why = w.get("why").and_then(Json::str).unwrap();
                assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
                w.get("name").and_then(Json::str).unwrap()
            })
            .collect();
        assert_eq!(names, ALL.map(|b| b.name()));
        assert!(names.iter().all(|n| valid_name(n)));
    }

    fn check_metrics(list: &Json, defs: &[MetricDef], keys: &[&str]) {
        let metrics = list.arr();
        assert_eq!(metrics.len(), defs.len());
        for (m, d) in metrics.iter().zip(defs) {
            assert_eq!(m.keys(), keys);
            assert_eq!(m.get("name").and_then(Json::str), Some(d.name));
            assert_eq!(m.get("unit").and_then(Json::str), Some(d.unit));
            assert_eq!(m.get("better").and_then(Json::str), Some(d.better));
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {}", d.unit);
            assert!(d.better == "higher" || d.better == "lower");
        }
    }

    #[test]
    fn manifest_metrics_match_what_the_binary_emits() {
        let m = manifest();
        let e2e = m.get("end_to_end").unwrap();
        assert!((1..=16).contains(&e2e.arr().len()));
        check_metrics(e2e, END_TO_END, &["name", "unit", "better", "bound"]);
        let per_layer = m.get("per_layer").unwrap();
        assert!((1..=128).contains(&per_layer.arr().len()));
        check_metrics(per_layer, PER_LAYER, &["name", "unit", "better"]);

        let bounds: Vec<(&str, f64)> = e2e
            .arr()
            .iter()
            .map(|m| {
                let b = m.get("bound").and_then(Json::num).unwrap();
                assert!(b > 0.0 && b <= 0.25, "bound {b} outside (0, 0.25]");
                (m.get("name").and_then(Json::str).unwrap(), b)
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| *n == "setup_s")
            .expect("setup_s");
        assert!(
            bounds.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );

        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "metric names are unique");
    }
}
