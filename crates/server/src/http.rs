//! Hand-rolled HTTP/1.1 request parsing and response writing.
//!
//! The offline build environment has no network crates, so — exactly like
//! the dependency shims stand in for external APIs — this module
//! implements the minimal slice of HTTP/1.1 the front end needs:
//! persistent connections ([`RequestReader`] parses a sequence of
//! requests off one stream, honoring `Connection: close`),
//! `Content-Length` bodies with a hard size cap, and plain status-line
//! responses. It is generic over `Read`/`Write`, so unit tests drive it
//! with in-memory buffers and the server with `TcpStream`s.
//!
//! Framing rules the keep-alive loop depends on (they are what makes
//! connection reuse safe rather than a request-smuggling vector):
//!
//! * Bodies are delimited by exactly one `Content-Length`. Duplicate
//!   headers with *differing* values are rejected as malformed — under
//!   `Connection: close` a parser picking either value is merely sloppy,
//!   but on a reused connection the two interpretations desynchronize
//!   the request boundary between peer and server.
//! * `Transfer-Encoding` is not implemented and is rejected outright
//!   rather than ignored, for the same reason.
//! * Read timeouts surface as [`ParseError::TimedOut`], distinguishing
//!   an idle keep-alive connection (no bytes of a next request yet —
//!   close silently) from a peer that stalled mid-request (answer `408`).

use std::io::{self, BufRead, BufReader, Read, Take, Write};

/// Upper bound on the request line plus headers, defending the reader
/// against unbounded header streams.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Raw (undecoded) path, without the query string. Percent-escapes
    /// decode per segment in [`Request::segments`], so a `%2F` inside a
    /// session name never splits routing.
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
    /// Whether the connection must close after this request: the client
    /// sent `Connection: close`, or spoke HTTP/1.0 without
    /// `Connection: keep-alive`.
    pub close: bool,
}

impl Request {
    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Splits the path into non-empty segments (`/sessions/alice/edits`
    /// → `["sessions", "alice", "edits"]`), percent-decoding each
    /// segment after the split (`+` stays literal — the space
    /// convention is query-string-only).
    pub fn segments(&self) -> Vec<String> {
        self.path
            .split('/')
            .filter(|s| !s.is_empty())
            .map(|s| percent_decode(s, false))
            .collect()
    }
}

/// Why a request could not be parsed; each variant maps to one response
/// status.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line, header, or framing → 400.
    Malformed(String),
    /// Body longer than the configured cap → 413.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The peer closed the connection before sending a request; not an
    /// error worth answering (browsers speculatively open connections).
    Closed,
    /// The stream's read timeout expired. `mid_request` distinguishes a
    /// peer that went quiet between requests (an idle keep-alive
    /// connection — close it silently) from one that stalled after
    /// sending part of a request (a slow or slowloris client → 408).
    TimedOut {
        /// Whether any bytes of the current request had arrived.
        mid_request: bool,
    },
    /// Transport failure while reading.
    Io(io::Error),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ParseError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "request body of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            ParseError::Closed => f.write_str("connection closed before a request arrived"),
            ParseError::TimedOut { mid_request: true } => {
                f.write_str("timed out mid-request waiting for the rest of it")
            }
            ParseError::TimedOut { mid_request: false } => {
                f.write_str("idle connection timed out between requests")
            }
            ParseError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

/// Whether an I/O error kind is a read-timeout expiry. `SO_RCVTIMEO`
/// surfaces as `WouldBlock` on Unix and `TimedOut` on Windows.
fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Parses a sequence of requests off one stream — the per-connection
/// reader behind the server's keep-alive loop.
///
/// The reader owns the connection's buffer, which is what makes
/// persistence correct: bytes the kernel delivered beyond the current
/// request (a pipelined next request) stay buffered here and are parsed
/// by the next [`RequestReader::read`] call instead of being dropped.
/// The underlying stream is wrapped in a [`Take`] whose limit is reset
/// per request, bounding how much one request can pull off the wire
/// even when no newline ever arrives.
#[derive(Debug)]
pub struct RequestReader<S: Read> {
    reader: BufReader<Take<S>>,
    max_body_bytes: usize,
}

impl<S: Read> RequestReader<S> {
    /// Wraps `stream`, enforcing `max_body_bytes` per request.
    pub fn new(stream: S, max_body_bytes: usize) -> RequestReader<S> {
        let limit = (MAX_HEAD_BYTES + max_body_bytes) as u64;
        RequestReader {
            reader: BufReader::new(stream.take(limit)),
            max_body_bytes,
        }
    }

    /// Reads and parses the next request off the stream.
    pub fn read(&mut self) -> Result<Request, ParseError> {
        self.reader
            .get_mut()
            .set_limit((MAX_HEAD_BYTES + self.max_body_bytes) as u64);
        parse_one(&mut self.reader, self.max_body_bytes)
    }

    /// Bytes read off the stream and not yet parsed: after an early
    /// reject, the part of the request the reader already holds.
    pub fn buffered(&self) -> usize {
        self.reader.buffer().len()
    }
}

/// Reads and parses one request from `stream`, enforcing `max_body_bytes`
/// (the single-request entry point; connection loops use [`RequestReader`]).
pub fn read_request(stream: impl Read, max_body_bytes: usize) -> Result<Request, ParseError> {
    RequestReader::new(stream, max_body_bytes).read()
}

fn parse_one(reader: &mut impl BufRead, max_body_bytes: usize) -> Result<Request, ParseError> {
    let mut line = String::new();
    if let Err(err) = read_line(reader, &mut line) {
        // A timeout on the request line with nothing buffered is an idle
        // keep-alive connection, not a stalled request.
        if let ParseError::Io(io_err) = &err {
            if is_timeout(io_err.kind()) {
                return Err(ParseError::TimedOut {
                    mid_request: !line.is_empty(),
                });
            }
        }
        return Err(err);
    }
    if line.is_empty() {
        return Err(ParseError::Closed);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("request line has no path".into()))?;
    let http_10 = match parts.next() {
        Some("HTTP/1.0") => true,
        Some(v) if v.starts_with("HTTP/1.") => false,
        _ => return Err(ParseError::Malformed("expected an HTTP/1.x version".into())),
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive_token = false;
    let mut close_token = false;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        read_line(reader, &mut header).map_err(|err| match err {
            ParseError::Io(io_err) if is_timeout(io_err.kind()) => {
                ParseError::TimedOut { mid_request: true }
            }
            other => other,
        })?;
        head_bytes += header.len() + 2;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ParseError::Malformed("headers too large".into()));
        }
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ParseError::Malformed(format!(
                "header without colon: `{header}`"
            )));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let declared: usize = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Malformed("unreadable Content-Length".into()))?;
            // Identical duplicates collapse; conflicting ones would let
            // the peer and the server frame the body differently — fatal
            // on a reused connection (request smuggling), so reject.
            if content_length.is_some_and(|seen| seen != declared) {
                return Err(ParseError::Malformed(
                    "conflicting Content-Length headers".into(),
                ));
            }
            content_length = Some(declared);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(ParseError::Malformed(
                "Transfer-Encoding is not supported; send a Content-Length body".into(),
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close_token = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive_token = true;
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);

    if content_length > max_body_bytes {
        return Err(ParseError::BodyTooLarge {
            declared: content_length,
            limit: max_body_bytes,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|err| {
        if err.kind() == io::ErrorKind::UnexpectedEof {
            ParseError::Malformed("body shorter than Content-Length".into())
        } else if is_timeout(err.kind()) {
            ParseError::TimedOut { mid_request: true }
        } else {
            ParseError::Io(err)
        }
    })?;
    let body =
        String::from_utf8(body).map_err(|_| ParseError::Malformed("body is not UTF-8".into()))?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, parse_query(q)),
        None => (target, Vec::new()),
    };
    Ok(Request {
        method,
        path: path.to_string(),
        query,
        body,
        close: close_token || (http_10 && !keep_alive_token),
    })
}

/// Reads one CRLF- (or LF-) terminated line, stripping the terminator.
/// On error, bytes read before the failure remain in `out` (the timeout
/// classification above depends on this).
fn read_line(reader: &mut impl BufRead, out: &mut String) -> Result<(), ParseError> {
    reader.read_line(out).map_err(|err| {
        if err.kind() == io::ErrorKind::InvalidData {
            ParseError::Malformed("header line is not UTF-8".into())
        } else {
            ParseError::Io(err)
        }
    })?;
    while out.ends_with('\n') || out.ends_with('\r') {
        out.pop();
    }
    Ok(())
}

fn parse_query(query: &str) -> Vec<(String, String)> {
    // `+`-as-space is a form-encoding convention and applies only here,
    // not in path segments.
    let decode = |s: &str| percent_decode(s, true);
    query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (decode(k), decode(v)),
            None => (decode(pair), String::new()),
        })
        .collect()
}

/// Decodes `%XX` escapes (and optionally `+`-as-space); invalid escapes
/// pass through literally (the router will simply not match them).
fn percent_decode(text: &str, plus_as_space: bool) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
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
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Response body; the server always sends `application/json`.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
        }
    }

    /// Serializes status line, headers, and body to `out`, announcing
    /// whether the connection stays open. The `Content-Length` is always
    /// exact — it is the response framing keep-alive clients rely on.
    pub fn write_with(&self, mut out: impl Write, keep_alive: bool) -> io::Result<()> {
        // Serialize into one buffer and emit a single write: streaming the
        // format fragments straight into an unbuffered socket produces a
        // burst of tiny segments, and on a keep-alive connection Nagle
        // holds the last one until the peer's delayed ACK (~40ms stall).
        let message = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
            self.status,
            reason(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
            self.body
        );
        out.write_all(message.as_bytes())?;
        out.flush()
    }

    /// Serializes status line, headers, and body to `out` with
    /// `Connection: close` (the one-shot path).
    pub fn write_to(&self, out: impl Write) -> io::Result<()> {
        self.write_with(out, false)
    }
}

/// Canonical reason phrases for the statuses the protocol documents.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(raw.as_bytes(), 1024)
    }

    #[test]
    fn parses_get_with_query() {
        let req =
            parse("GET /sessions/alice/diff?from=0&to=2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/sessions/alice/diff");
        assert_eq!(req.query_param("from"), Some("0"));
        assert_eq!(req.query_param("to"), Some("2"));
        assert_eq!(req.segments(), vec!["sessions", "alice", "diff"]);
        assert!(req.body.is_empty());
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_post_with_body() {
        let body = r#"{"name":"alice"}"#;
        let raw = format!(
            "POST /sessions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(&raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, body);
    }

    #[test]
    fn connection_semantics_per_version_and_header() {
        // HTTP/1.1: keep-alive unless `close` is sent.
        assert!(!parse("GET /x HTTP/1.1\r\n\r\n").unwrap().close);
        assert!(
            parse("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .close
        );
        // Token lists and case-insensitivity.
        assert!(
            parse("GET /x HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n")
                .unwrap()
                .close
        );
        // HTTP/1.0: close unless `keep-alive` is sent.
        assert!(parse("GET /x HTTP/1.0\r\n\r\n").unwrap().close);
        assert!(
            !parse("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .close
        );
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        // Differing duplicates are a request-smuggling vector under
        // keep-alive: the parser must not silently pick either value.
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde";
        match parse(raw) {
            Err(ParseError::Malformed(msg)) => {
                assert!(msg.contains("Content-Length"), "{msg}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Identical duplicates collapse to one.
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(parse(raw).unwrap().body, "abc");
    }

    #[test]
    fn transfer_encoding_is_rejected() {
        let raw = "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        assert!(matches!(parse(raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn reader_parses_pipelined_requests_off_one_stream() {
        let raw = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                   GET /c HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = RequestReader::new(raw.as_bytes(), 1024);
        let a = reader.read().unwrap();
        assert_eq!((a.path.as_str(), a.close), ("/a", false));
        let b = reader.read().unwrap();
        assert_eq!((b.path.as_str(), b.body.as_str()), ("/b", "hi"));
        let c = reader.read().unwrap();
        assert_eq!((c.path.as_str(), c.close), ("/c", true));
        assert!(matches!(reader.read(), Err(ParseError::Closed)));
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let raw = "POST /sessions HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        match parse(raw) {
            Err(ParseError::BodyTooLarge { declared, limit }) => {
                assert_eq!(declared, 999999);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(parse(""), Err(ParseError::Closed)));
    }

    /// A reader that yields its script, then fails like an expired
    /// `SO_RCVTIMEO` read forever after.
    struct StallingStream<'a> {
        data: &'a [u8],
    }

    impl Read for StallingStream<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.data.is_empty() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timed out"));
            }
            let n = self.data.len().min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn timeout_classification_idle_vs_mid_request() {
        // Nothing arrived: an idle keep-alive connection.
        let mut reader = RequestReader::new(StallingStream { data: b"" }, 1024);
        assert!(matches!(
            reader.read(),
            Err(ParseError::TimedOut { mid_request: false })
        ));
        // Half a request line: a stalled (slowloris) client.
        let mut reader = RequestReader::new(StallingStream { data: b"GET /hea" }, 1024);
        assert!(matches!(
            reader.read(),
            Err(ParseError::TimedOut { mid_request: true })
        ));
        // Headers arrived, body stalled.
        let mut reader = RequestReader::new(
            StallingStream {
                data: b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal",
            },
            1024,
        );
        assert!(matches!(
            reader.read(),
            Err(ParseError::TimedOut { mid_request: true })
        ));
    }

    #[test]
    fn decodes_percent_escapes_per_segment() {
        let req = parse("GET /sessions/an%20alyst HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/sessions/an%20alyst", "path stays raw");
        assert_eq!(req.segments(), vec!["sessions", "an alyst"]);
        // %2F decodes *inside* a segment instead of splitting routing,
        // and `+` is literal in paths (space only in query strings).
        let req = parse("GET /sessions/a%2Fb+c?q=x+y HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.segments(), vec!["sessions", "a/b+c"]);
        assert_eq!(req.query_param("q"), Some("x y"));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(404, "{\"error\":\"x\"}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 13\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"x\"}"));

        let mut out = Vec::new();
        Response::json(200, "{}")
            .write_with(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
    }
}
