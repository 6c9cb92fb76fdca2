//! The one JSON reader, string escaper and number writer behind every
//! schema the toolchain reads or writes (the workspace carries no serde;
//! each schema keeps its own field order and layout code).
//!
//! [`parse`] is a recursive-descent reader over a byte cursor. It is
//! total: every input is a [`Json`] value or an error naming a byte
//! offset, and nesting is capped at [`MAX_DEPTH`], so no line can
//! overflow the reading thread's stack.

use std::fmt::Write as _;

/// The deepest container nesting [`parse`] accepts (a top-level array or
/// object is depth 1). The deepest document the toolchain reads is a
/// metrics line at depth 5. A fixed limit, not an option.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers keep their source literal so integer
/// fields (seeds are full-range `u64`) round-trip without a lossy `f64`
/// detour.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The raw number literal, e.g. `"18446744073709551615"`.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if the literal parses as one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing garbage is an error, and so is
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    /// Steps over a container's closing bracket.
    fn close(&mut self, v: Json) -> Result<Json, String> {
        self.pos += 1;
        self.depth -= 1;
        Ok(v)
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            return self.close(Json::Obj(fields));
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
                Some(b'}') => return self.close(Json::Obj(fields)),
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            return self.close(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => return self.close(Json::Arr(items)),
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_owned())?;
                            self.pos += 4;
                            // Surrogate pairs are not worth supporting for
                            // these schemas; map them to the replacement
                            // character rather than rejecting the line.
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        }
                        c => return Err(format!("bad escape `\\{}`", c as char)),
                    }
                }
                Some(_) => {
                    // Copy a maximal run of plain bytes (UTF-8 passes
                    // through untouched).
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string".to_owned())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        // Validate via f64 parse (u64 literals above 2^53 still keep
        // their exact raw form for `as_u64`).
        raw.parse::<f64>()
            .map_err(|_| format!("bad number at byte {start}"))?;
        Ok(Json::Num(raw.to_owned()))
    }
}

/// Appends `s` to `out`, escaped for embedding inside a JSON string
/// literal: quotes, backslashes and every control character.
pub fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    // Every character that needs escaping is ASCII, so `i + 1` is the
    // next character boundary.
    while let Some(i) = rest.find(|c: char| c == '"' || c == '\\' || c < ' ') {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// `s` escaped for embedding inside a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// `s` as a quoted JSON string.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    string_into(&mut out, s);
    out
}

/// Appends [`string`] of `s` to `out`.
pub fn string_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// A float as every exporter writes it: Rust's shortest round-trip `{}`
/// when finite (it re-parses to the same bits), else `+Inf`, `-Inf` or
/// `NaN` — the Prometheus spellings.
#[must_use]
pub fn float_text(v: f64) -> String {
    let mut out = String::new();
    float_text_into(&mut out, v);
    out
}

/// Appends [`float_text`] of `v` to `out`.
fn float_text_into(out: &mut String, v: f64) {
    match v {
        _ if v.is_nan() => out.push_str("NaN"),
        f64::INFINITY => out.push_str("+Inf"),
        f64::NEG_INFINITY => out.push_str("-Inf"),
        // Writing into a `String` cannot fail.
        _ => {
            let _ = write!(out, "{v}");
        }
    }
}

/// `v` as a JSON value: [`float_text`], quoted when not finite (JSON has
/// no `Inf` or `NaN`).
#[must_use]
pub fn number(v: f64) -> String {
    let mut out = String::new();
    number_into(&mut out, v);
    out
}

/// Appends [`number`] of `v` to `out`.
pub fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        float_text_into(out, v);
    } else {
        out.push('"');
        float_text_into(out, v);
        out.push('"');
    }
}

/// Appends `v` in decimal, as `{}` writes it, without the formatting
/// machinery (the exporters write thousands of integers per line).
pub fn uint_into(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// [`number`], or `null` for `None`.
#[must_use]
pub fn opt_number(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), number)
}

/// [`string`], or `null` for `None`.
#[must_use]
pub fn opt_string(s: Option<&str>) -> String {
    s.map_or_else(|| "null".to_owned(), string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn json_parser_handles_nesting_escapes_and_rejects_garbage() {
        let v = parse(r#"{"a":[1,2.5,{"b":"x\ny"}],"c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![
                Json::Num("1".into()),
                Json::Num("2.5".into()),
                Json::Obj(vec![("b".into(), Json::Str("x\ny".into()))]),
            ])
        );
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse(r#"{"a":}"#).is_err());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny\t"), "x\\ny\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn numbers_round_trip_and_non_finite_values_are_strings() {
        assert_eq!(number(0.5), "0.5");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::INFINITY), "\"+Inf\"");
        assert_eq!(number(f64::NEG_INFINITY), "\"-Inf\"");
        assert_eq!(number(f64::NAN), "\"NaN\"");
        assert_eq!(float_text(f64::INFINITY), "+Inf");
        assert_eq!(opt_number(None), "null");
        assert_eq!(opt_string(Some("a\"b")), r#""a\"b""#);
        let x = 0.1 + 0.2;
        let Json::Num(raw) = parse(&number(x)).unwrap() else {
            panic!("a finite value writes a number");
        };
        assert_eq!(raw.parse::<f64>().unwrap().to_bits(), x.to_bits());
    }

    /// `depth` nested containers, alternating arrays and objects.
    fn nested(depth: usize) -> String {
        let mut s = String::new();
        for i in 0..depth {
            s.push_str(if i.is_multiple_of(2) { "[" } else { "{\"k\":" });
        }
        s.push('0');
        for i in (0..depth).rev() {
            s.push(if i.is_multiple_of(2) { ']' } else { '}' });
        }
        s
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // The offending bracket's offset: one byte per `[`, five per `{"k":`.
        let at = (MAX_DEPTH / 2) * 6;
        assert!(err.ends_with(&format!("at byte {at}")), "{err}");
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    /// Characters the escaper must handle: quotes, backslashes, every
    /// kind of control character, and non-ASCII up to the astral planes.
    const SPECIALS: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
        'a', ' ', 'é', '→', '\u{2028}', '\u{FFFD}', '😀',
    ];

    fn text() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            (0..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
            (0u32..0x11_000).prop_map(|c| char::from_u32(c).unwrap_or('?')),
        ];
        proptest::collection::vec(ch, 0..32).prop_map(|cs| cs.into_iter().collect())
    }

    /// A valid `logrel-job-v1` line, the seed for the mutation cases.
    const JOB: &str = r#"{"schema":"logrel-job-v1","id":"j1","spec_path":"examples/htl/infusion_pump.htl","scenario":"crash h1 at 5\n","rounds":500,"replications":2,"seed":18446744073709551615,"lanes":"auto"}"#;

    /// Applies `(position, byte, op)` edits to `JOB`: overwrite, insert
    /// or delete one byte.
    fn mutate(edits: &[(usize, u8, u8)]) -> String {
        let mut bytes = JOB.as_bytes().to_vec();
        for &(at, b, op) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = b,
                1 => bytes.insert(at, b),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest! {
        #[test]
        fn escaped_strings_parse_back_exactly(s in text()) {
            prop_assert_eq!(parse(&string(&s)), Ok(Json::Str(s)));
        }

        /// The in-place writers spell every float and string as the
        /// `format!`-based writers they replaced did.
        #[test]
        fn in_place_writers_match_format(bits in any::<u64>(), s in text()) {
            let v = f64::from_bits(bits);
            let text = match v {
                _ if v.is_nan() => "NaN".to_owned(),
                f64::INFINITY => "+Inf".to_owned(),
                f64::NEG_INFINITY => "-Inf".to_owned(),
                _ => format!("{v}"),
            };
            prop_assert_eq!(&float_text(v), &text);
            let quoted = format!("\"{text}\"");
            prop_assert_eq!(number(v), if v.is_finite() { text } else { quoted });
            prop_assert_eq!(string(&s), format!("\"{}\"", escape(&s)));
            for n in [bits, bits >> 40, bits % 10, u64::MAX] {
                let mut out = String::from("x");
                uint_into(&mut out, n);
                prop_assert_eq!(out, format!("x{n}"));
            }
        }

        #[test]
        fn random_bytes_never_panic_the_reader(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            json_ish in proptest::collection::vec(0usize..24, 0..64),
        ) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
            let alphabet = b"{}[]\":,\\0123456789-+.eE";
            let ish: Vec<u8> = json_ish.iter().map(|&i| alphabet[i % alphabet.len()]).collect();
            let _ = parse(&String::from_utf8_lossy(&ish));
        }

        #[test]
        fn mutated_job_lines_never_panic_the_reader(
            edits in proptest::collection::vec((0usize..256, 0u8..=255, 0u8..3), 1..8),
        ) {
            let _ = parse(&mutate(&edits));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn nesting_parses_up_to_max_depth_and_is_rejected_above(depth in 1usize..=100_000) {
            // Bias half the cases to the neighbourhood of the cap.
            let depth = if depth.is_multiple_of(2) { MAX_DEPTH - 8 + depth % 17 } else { depth };
            prop_assert_eq!(parse(&nested(depth)).is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
        }
    }

    #[test]
    fn the_job_seed_line_is_valid() {
        assert_eq!(
            parse(JOB).unwrap().get("seed").and_then(Json::as_u64),
            Some(u64::MAX)
        );
    }
}
