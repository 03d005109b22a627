//! A deliberately small HTTP/1.1 subset over any [`BufRead`]/[`Write`] pair.
//!
//! The service speaks exactly what its own [`crate::client`] and `curl` need:
//! one request per connection (`Connection: close` semantics), methods `GET`
//! and `POST`, `Content-Length` bodies only (no chunked transfer encoding,
//! no `Expect: 100-continue` handshake), no percent-decoding beyond `+`/`%XX`
//! in query values.  Every limit — request-line length, header count and
//! size, body size — is enforced *while reading*, so a hostile or confused
//! client can make the server respond 4xx but never allocate unbounded
//! memory or hang past the socket timeout.

use serde::Serialize;
use std::io::{BufRead, Write};

/// Upper bound on the request line and on any single header line, bytes.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of request headers.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: method, split path, query pairs, headers, body.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// The path with the query string stripped, e.g. `/datasets/a/chunks`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Headers as `(lowercased-name, value)` pairs, in order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first query parameter named `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first header named `name` (ASCII case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The path split on `/` with empty segments dropped:
    /// `/datasets/a/chunks` → `["datasets", "a", "chunks"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be parsed; each variant maps to one 4xx status.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line, header, or body framing → 400.
    BadRequest(String),
    /// A request using `Transfer-Encoding` instead of `Content-Length` → 411.
    LengthRequired,
    /// The declared body exceeds the server's limit → 413.
    PayloadTooLarge {
        /// Declared `Content-Length`.
        declared: u64,
        /// The server's limit.
        limit: u64,
    },
    /// Request line longer than [`MAX_LINE_BYTES`] → 414.
    UriTooLong,
    /// Too many or too-long headers → 431.
    HeadersTooLarge,
    /// The socket timed out or closed before a full request arrived → 408
    /// (or nothing, if the peer is already gone).
    Io(std::io::Error),
}

impl ParseError {
    fn bad(msg: impl Into<String>) -> ParseError {
        ParseError::BadRequest(msg.into())
    }

    /// The response this parse failure deserves, or `None` when the
    /// connection died and nobody is listening for one.
    pub fn into_response(self) -> Option<Response> {
        match self {
            ParseError::BadRequest(msg) => Some(Response::error(400, &msg)),
            ParseError::LengthRequired => Some(Response::error(
                411,
                "chunked transfer encoding is not supported; send a Content-Length body",
            )),
            ParseError::PayloadTooLarge { declared, limit } => Some(Response::error(
                413,
                &format!("body of {declared} bytes exceeds the {limit}-byte limit"),
            )),
            ParseError::UriTooLong => Some(Response::error(
                414,
                &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            )),
            ParseError::HeadersTooLarge => Some(Response::error(
                431,
                &format!("more than {MAX_HEADERS} headers or a header over {MAX_LINE_BYTES} bytes"),
            )),
            ParseError::Io(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Some(Response::error(408, "timed out reading the request"))
            }
            ParseError::Io(_) => None,
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line of at most `limit` bytes,
/// without the terminator.  `Ok(None)` means clean EOF before any byte.
fn read_line_limited<R: BufRead>(
    reader: &mut R,
    limit: usize,
    over_limit: ParseError,
) -> Result<Option<String>, ParseError> {
    let mut line: Vec<u8> = Vec::new();
    // Read byte-at-a-time off the BufRead (cheap: it is buffered) so the
    // limit cuts off *before* an oversized line is buffered in full.
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(ParseError::bad("connection closed mid-line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| ParseError::bad("request is not valid UTF-8"))?;
                    return Ok(Some(text));
                }
                if line.len() >= limit {
                    return Err(over_limit);
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
}

/// Decodes `%XX` escapes and `+` (as space) in a query component; invalid
/// escapes are passed through literally rather than rejected.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
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

/// Parses one request from `reader`, enforcing every limit while reading.
///
/// `max_body_bytes` bounds the `Content-Length` a `POST` may declare.
/// Returns `Ok(None)` if the peer closed the connection before sending
/// anything (a normal way for health checkers to probe a port).
pub fn parse_request<R: BufRead>(
    reader: &mut R,
    max_body_bytes: u64,
) -> Result<Option<Request>, ParseError> {
    let Some(request_line) = read_line_limited(reader, MAX_LINE_BYTES, ParseError::UriTooLong)?
    else {
        return Ok(None);
    };
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ParseError::bad("malformed request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::bad(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::bad(format!("malformed method {method:?}")));
    }

    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return Err(ParseError::bad(format!(
            "request target {target:?} is not an absolute path"
        )));
    }
    let query: Vec<(String, String)> = query_string
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect();

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line_limited(reader, MAX_LINE_BYTES, ParseError::HeadersTooLarge)?
            .ok_or_else(|| ParseError::bad("connection closed inside the header block"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::HeadersTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::bad(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some() {
        // Simpler to refuse than to half-support: our clients never chunk.
        return Err(ParseError::LengthRequired);
    }
    // No Content-Length and no Transfer-Encoding means no body (RFC 7230
    // §3.3.3) — `curl -X POST` on a body-less route sends exactly that.
    let declared: u64 = match header("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| ParseError::bad(format!("malformed Content-Length {v:?}")))?,
        None => 0,
    };
    if declared > max_body_bytes {
        return Err(ParseError::PayloadTooLarge {
            declared,
            limit: max_body_bytes,
        });
    }

    let mut body = vec![0u8; declared as usize];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            ParseError::bad("connection closed before the declared Content-Length arrived")
        }
        _ => ParseError::Io(e),
    })?;

    Ok(Some(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query,
        headers,
        body,
    }))
}

/// The body of every error response.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

/// A response ready to serialize: status, content type, body, extras.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Additional headers, e.g. `Retry-After` on 503.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// A JSON response with `body` rendered compact.
    pub(crate) fn json_of(status: u16, body: &impl Serialize) -> Response {
        let mut bytes = Vec::new();
        body.serialize(&mut serde::JsonWriter::compact(&mut bytes));
        Response::json(status, bytes)
    }

    /// A JSON error body `{"error":message}` with the given status.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json_of(
            status,
            &ErrorBody {
                error: message.to_owned(),
            },
        )
    }

    /// Attaches an extra header (builder style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Serializes the response (status line, headers, body) to `writer`.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra_headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        writer.write_all(b"\r\n")?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Option<Request>, ParseError> {
        parse_request(&mut Cursor::new(raw.as_bytes().to_vec()), 1024)
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse("GET /datasets/a/chunks?term=42&x=a%20b HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/datasets/a/chunks");
        assert_eq!(req.segments(), vec!["datasets", "a", "chunks"]);
        assert_eq!(req.query_param("term"), Some("42"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.header("HOST"), Some("h"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_exactly() {
        let req = parse("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\n1 2 3")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"1 2 3");
    }

    #[test]
    fn empty_connection_is_not_an_error() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn post_without_length_has_an_empty_body() {
        // What `curl -X POST` sends to body-less routes: no Content-Length,
        // no Transfer-Encoding — by RFC 7230 §3.3.3 that is a bodyless
        // request, not an error.
        let req = parse("POST /x HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn chunked_encoding_is_refused() {
        let err = parse("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert!(matches!(err, ParseError::LengthRequired));
        assert_eq!(err.into_response().unwrap().status, 411);
    }

    #[test]
    fn oversized_declared_body_is_413_without_reading_it() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n").unwrap_err();
        match err {
            ParseError::PayloadTooLarge { declared, limit } => {
                assert_eq!(declared, 99999);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert!(matches!(err, ParseError::BadRequest(_)));
    }

    #[test]
    fn oversized_request_line_is_414() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES + 10));
        assert!(matches!(parse(&long).unwrap_err(), ParseError::UriTooLong));
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(
            parse(&raw).unwrap_err(),
            ParseError::HeadersTooLarge
        ));
    }

    #[test]
    fn garbage_request_line_is_400() {
        assert!(matches!(
            parse("NOT_HTTP\r\n\r\n").unwrap_err(),
            ParseError::BadRequest(_)
        ));
        assert!(matches!(
            parse("GET / SPDY/99\r\n\r\n").unwrap_err(),
            ParseError::BadRequest(_)
        ));
    }

    #[test]
    fn response_serializes_with_extra_headers() {
        let mut out = Vec::new();
        Response::error(503, "busy")
            .with_header("Retry-After", "1")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"error\":\"busy\"}"), "{text}");
    }
}
