//! URL parsing, building and query-string encoding.
//!
//! Surfacing is literally "pre-compute URLs", so URLs are a core data type:
//! the surfacer builds them from form submissions, the simulated server parses
//! them back, and the index uses them as document keys. Encoding must
//! round-trip exactly or coverage accounting breaks.

use std::fmt;

/// True for the bytes a query component keeps literal: RFC 3986 unreserved.
fn is_unreserved(b: u8) -> bool {
    matches!(b, b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~')
}

/// Length of what [`encode_component`] writes for `s`.
fn encoded_len(s: &str) -> usize {
    s.bytes()
        .map(|b| if is_unreserved(b) || b == b' ' { 1 } else { 3 })
        .sum()
}

/// Append the percent-encoding of a query component to `out` (RFC 3986
/// unreserved kept literal, space as `+` per form-urlencoding).
pub fn encode_component(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for b in s.bytes() {
        match b {
            b if is_unreserved(b) => out.push(char::from(b)),
            b' ' => out.push('+'),
            _ => {
                out.push('%');
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
}

/// Decode a form-urlencoded component. Invalid escapes are passed through
/// literally (crawler robustness beats strictness).
pub(crate) fn decode_component(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            // A full escape needs two bytes after the '%'; a truncated tail
            // ("%", "%4") falls through to the literal arm below.
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(v) => {
                        out.push(v);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A parsed simulator URL: `http://<host><path>?<k=v&...>`.
///
/// Ordered key/value pairs — order matters for URL identity, matching how a
/// real crawler deduplicates by URL string.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Url {
    /// Host name, e.g. `usedcars-042.sim`.
    pub host: String,
    /// Path beginning with `/`.
    pub path: String,
    /// Query parameters in order of appearance.
    pub params: Vec<(String, String)>,
}

impl Url {
    /// Build a URL from parts.
    pub fn new(host: impl Into<String>, path: impl Into<String>) -> Self {
        let mut path = path.into();
        if !path.starts_with('/') {
            path.insert(0, '/');
        }
        Url {
            host: host.into(),
            path,
            params: Vec::new(),
        }
    }

    /// Append a query parameter.
    pub fn with_param(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.params.push((k.into(), v.into()));
        self
    }

    /// Append the parameters of a `k=v&k2=v2` query string (no leading
    /// `?`), each component percent-decoded. Empty pairs are skipped; a pair
    /// without `=` gets an empty value.
    pub fn with_query(mut self, query: &str) -> Self {
        for pair in query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            self.params.push((decode_component(k), decode_component(v)));
        }
        self
    }

    /// Value of the first parameter named `k`.
    pub fn param(&self, k: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(pk, _)| pk == k)
            .map(|(_, v)| v.as_str())
    }

    /// This URL as a dedup key: its `Display` spelling, written by
    /// [`Url::write_key`] into a `String` allocated at exactly its length.
    pub fn key(&self) -> String {
        let params: usize = self
            .params
            .iter()
            .map(|(k, v)| 2 + encoded_len(k) + encoded_len(v))
            .sum();
        let mut key =
            String::with_capacity("http://".len() + self.host.len() + self.path.len() + params);
        self.write_key(&mut key);
        key
    }

    /// Append this URL's `Display` spelling to `out`: the host, the path and
    /// the percent-encoded parameters written straight into the buffer, with
    /// no `fmt` machinery and no `String` per component.
    pub fn write_key(&self, out: &mut String) {
        out.push_str("http://");
        out.push_str(&self.host);
        out.push_str(&self.path);
        for (i, (k, v)) in self.params.iter().enumerate() {
            out.push(if i == 0 { '?' } else { '&' });
            encode_component(k, out);
            out.push('=');
            encode_component(v, out);
        }
    }

    /// Parse from string form. Returns `None` for anything that is not an
    /// `http://host/path[?query]` URL.
    pub fn parse(s: &str) -> Option<Url> {
        let rest = s.strip_prefix("http://")?;
        let (host_path, query) = rest.split_once('?').unwrap_or((rest, ""));
        let (host, path) = match host_path.split_once('/') {
            Some((h, p)) => (h, format!("/{p}")),
            None => (host_path, "/".to_string()),
        };
        if host.is_empty() {
            return None;
        }
        let url = Url {
            host: host.to_string(),
            path,
            params: Vec::new(),
        };
        Some(url.with_query(query))
    }
}

/// The reference spelling [`Url::write_key`] must equal, through `fmt`.
impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http://{}{}", self.host, self.path)?;
        let mut pair = String::new();
        for (i, (k, v)) in self.params.iter().enumerate() {
            pair.clear();
            encode_component(k, &mut pair);
            pair.push('=');
            encode_component(v, &mut pair);
            write!(f, "{}{pair}", if i == 0 { '?' } else { '&' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`encode_component`] as a function, for the round-trip tests.
    pub(super) fn encoded(s: &str) -> String {
        let mut out = String::new();
        encode_component(s, &mut out);
        out
    }

    #[test]
    fn encode_decode_roundtrip_basic() {
        for s in ["honda civic", "a&b=c", "100%", "zip 94043", "~tilde._-"] {
            assert_eq!(decode_component(&encoded(s)), s);
        }
        let mut out = "x=".to_string();
        encode_component("caf\u{e9} 1%", &mut out);
        assert_eq!(out, "x=caf%C3%A9+1%25", "appends to what the buffer holds");
    }

    #[test]
    fn decode_tolerates_bad_escapes() {
        assert_eq!(decode_component("100%zz"), "100%zz");
        assert_eq!(decode_component("%"), "%");
        assert_eq!(decode_component("%4"), "%4");
    }

    #[test]
    fn decode_tolerates_truncated_escapes_after_valid_ones() {
        // The tail of the buffer after a valid escape must still be handled:
        // the '%' guard is a bounds check, not a validity check.
        assert_eq!(decode_component("%41%"), "A%");
        assert_eq!(decode_component("%41%4"), "A%4");
        assert_eq!(decode_component("a%20%"), "a %");
        assert_eq!(decode_component("%2B%zz%"), "+%zz%");
        // '%' followed by one valid hex digit then end-of-input.
        assert_eq!(decode_component("x%A"), "x%A");
    }

    #[test]
    fn url_display_and_parse_roundtrip() {
        let u = Url::new("cars-01.sim", "/search")
            .with_param("make", "ford")
            .with_param("min price", "1000");
        let s = u.to_string();
        assert_eq!(s, "http://cars-01.sim/search?make=ford&min+price=1000");
        let back = Url::parse(&s).unwrap();
        assert_eq!(back, u);
    }

    #[test]
    fn key_is_the_display_spelling_at_exact_capacity() {
        let urls = [
            Url::new("cars-01.sim", "/search"),
            Url::new("x.sim", "/"),
            Url::new("cars-01.sim", "/search")
                .with_param("a&b", "c=d")
                .with_param("min price", "caf\u{e9} \u{dc}n\u{ef}code")
                .with_param("", "100%~._-"),
        ];
        for u in urls {
            let key = u.key();
            assert_eq!(key, u.to_string());
            assert_eq!(key.capacity(), key.len(), "{key}");
        }
    }

    #[test]
    fn parse_without_query_or_path() {
        let u = Url::parse("http://x.sim").unwrap();
        assert_eq!(u.path, "/");
        assert!(u.params.is_empty());
        assert!(Url::parse("ftp://x").is_none());
        assert!(Url::parse("http://").is_none());
    }

    #[test]
    fn param_lookup_first_wins() {
        let u = Url::parse("http://h.sim/p?a=1&a=2&b=3").unwrap();
        assert_eq!(u.param("a"), Some("1"));
        assert_eq!(u.param("b"), Some("3"));
        assert_eq!(u.param("c"), None);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn component_roundtrip(s in "\\PC{0,40}") {
            prop_assert_eq!(decode_component(&super::tests::encoded(&s)), s);
        }

        #[test]
        fn escape_heavy_roundtrip(s in "[%+ a-fzA-F0-9]{0,24}") {
            // Percent- and plus-heavy inputs stress the escape scanner: the
            // encoded form must round-trip, and decoding the raw (possibly
            // invalid) input must never panic.
            prop_assert_eq!(decode_component(&super::tests::encoded(&s)), s.clone());
            let _ = decode_component(&s);
        }

        #[test]
        fn url_roundtrip(
            host in "[a-z]{1,10}\\.sim",
            path in "/[a-z0-9/]{0,15}",
            params in prop::collection::vec(("[a-z_]{1,8}", "[ -~]{0,12}"), 0..5),
        ) {
            let mut u = Url::new(host, path);
            for (k, v) in params {
                u = u.with_param(k, v);
            }
            let parsed = Url::parse(&u.to_string());
            prop_assert_eq!(parsed, Some(u));
        }

        /// The key writer, into a reused buffer, spells what `Display`
        /// does, for parameters with reserved bytes, spaces, `%` and
        /// non-ASCII text.
        #[test]
        fn written_key_is_the_display_spelling(
            host in "[a-z0-9-]{1,10}\\.sim",
            path in "/[a-z0-9/%]{0,15}",
            params in prop::collection::vec(("[a-z&=?%+ é]{0,6}", "[ -~éü中€]{0,12}"), 0..5),
        ) {
            let mut u = Url::new(host, path);
            for (k, v) in params {
                u = u.with_param(k, v);
            }
            let mut buf = "http://stale.sim/?x=1".to_string();
            buf.clear();
            u.write_key(&mut buf);
            prop_assert_eq!(&buf, &format!("{u}"));
            prop_assert_eq!(u.key(), buf);
        }

        #[test]
        fn parse_never_panics(s in "\\PC{0,60}") {
            let _ = Url::parse(&s);
        }
    }
}
