//! A minimal JSON reader for the server's replies. The vendored
//! `serde_json` only serialises, so the benchmark parses what it reads.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

/// Reads a `POST /query` reply without building a tree, so the client
/// spends little CPU beside the server: the number of rows, an order-free
/// digest of the row set (the wrapping sum of one hash per row's JSON
/// text), and the epoch. The first `"rows":` is the top-level key because
/// only the variable names precede it.
pub fn query_digest(text: &str) -> Result<(usize, u64, u64), String> {
    let s = text.as_bytes();
    let find = |from: usize, key: &[u8]| {
        s[from..]
            .windows(key.len())
            .position(|w| w == key)
            .map(|p| from + p + key.len())
            .ok_or_else(|| format!("reply without {}", String::from_utf8_lossy(key)))
    };
    let mut i = find(0, b"\"rows\":")?;
    if s.get(i) != Some(&b'[') {
        return Err("rows is not an array".into());
    }
    i += 1;
    let (mut rows, mut digest) = (0usize, 0u64);
    let (mut depth, mut start, mut in_str) = (0usize, i, false);
    while i < s.len() {
        let c = s[i];
        if in_str {
            match c {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
        } else {
            match c {
                b'"' => in_str = true,
                b'[' => {
                    if depth == 0 {
                        start = i;
                    }
                    depth += 1;
                }
                b']' if depth == 0 => break,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        let mut h = std::collections::hash_map::DefaultHasher::new();
                        std::hash::Hash::hash(&s[start..=i], &mut h);
                        digest = digest.wrapping_add(std::hash::Hasher::finish(&h));
                        rows += 1;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    let e = find(i, b"\"epoch\":")?;
    let end = s[e..]
        .iter()
        .position(|c| !c.is_ascii_digit())
        .map_or(s.len(), |p| e + p);
    let epoch = text[e..end].parse().map_err(|_| "bad epoch")?;
    Ok((rows, digest, epoch))
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && matches!(self.s[self.i], b' ' | b'\n' | b'\r' | b'\t') {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    m.insert(k, v);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Obj(m));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Arr(a));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn word(&mut self, w: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("bad escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("bad \\u")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                _ => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_query_reply() {
        let v = parse(r#"{"vars":["x"],"rows":[["<a>"],["\"l\\\"q\""]],"epoch":3,"stats":null}"#)
            .unwrap();
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(3));
        let rows = v.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[1].as_arr().unwrap()[0].as_str(), Some("\"l\\\"q\""));
        assert_eq!(v.get("stats"), Some(&Value::Null));
    }

    #[test]
    fn digest_ignores_row_order() {
        let a = r#"{"vars":["x"],"rows":[["<a>"],["\"l]\\\"q\""]],"epoch":3,"stats":{"rows":2}}"#;
        let b = r#"{"vars":["x"],"rows":[["\"l]\\\"q\""],["<a>"]],"epoch":3,"stats":null}"#;
        let (n, d, e) = query_digest(a).unwrap();
        assert_eq!((n, e), (2, 3));
        assert_eq!(query_digest(b).unwrap(), (n, d, e));
        assert_ne!(
            query_digest(r#"{"vars":[],"rows":[["<b>"]],"epoch":3}"#)
                .unwrap()
                .1,
            d
        );
    }
}
