//! A deliberately small HTTP/1.1 implementation over `std::net`.
//!
//! The service needs exactly one shape of exchange: read one request with
//! an optional `Content-Length` body, write one response, close. No
//! keep-alive, no chunked encoding, no TLS. Limits on header and body sizes
//! guard against hostile or broken clients.

use std::io::{self, Write};

/// Maximum accepted size of the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Maximum accepted size of a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method (uppercase, e.g. `GET`).
    pub method: String,
    /// Request path (no normalization; query strings are kept verbatim).
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, RequestError> {
        std::str::from_utf8(&self.body).map_err(|_| RequestError::Malformed("body is not UTF-8"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The request violates the subset of HTTP this server speaks.
    Malformed(&'static str),
    /// The head or body exceeded its size limit.
    TooLarge,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::TooLarge => f.write_str("request too large"),
        }
    }
}

/// Parses a complete request head (everything before the blank line) into
/// a body-less [`Request`] plus the declared `Content-Length`.
fn parse_head(head: &[u8]) -> Result<(Request, usize), RequestError> {
    let head_text =
        std::str::from_utf8(head).map_err(|_| RequestError::Malformed("head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines
        .next()
        .ok_or(RequestError::Malformed("missing request line"))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or(RequestError::Malformed("missing method"))?
        .to_ascii_uppercase();
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(RequestError::Malformed("bad method"));
    }
    let path = parts
        .next()
        .ok_or(RequestError::Malformed("missing path"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(RequestError::Malformed("unsupported HTTP version")),
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Malformed("bad header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut content_length = None;
    for (k, v) in &headers {
        if k == "content-length" {
            let parsed: usize = v
                .parse()
                .map_err(|_| RequestError::Malformed("bad Content-Length"))?;
            // Duplicate Content-Length headers are a classic smuggling
            // vector; accept them only when they agree.
            if content_length.is_some_and(|prev| prev != parsed) {
                return Err(RequestError::Malformed("conflicting Content-Length"));
            }
            content_length = Some(parsed);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge);
    }

    Ok((
        Request {
            method,
            path,
            headers,
            body: Vec::new(),
        },
        content_length,
    ))
}

/// What [`RequestParser::feed`] concluded after consuming more bytes.
#[derive(Debug)]
pub enum ParseStatus {
    /// The request is incomplete; feed more bytes when they arrive.
    NeedMore,
    /// One complete request. Any bytes past the declared body (pipelined
    /// garbage — this server speaks `Connection: close`) are discarded.
    Complete(Request),
}

/// An incremental, nonblocking-friendly request parser: the per-connection
/// read state machine of the event loop.
///
/// Bytes arrive in arbitrary fragments ([`RequestParser::feed`]); the
/// parser buffers them, finds the head/body boundary, enforces
/// [`MAX_HEAD_BYTES`] / [`MAX_BODY_BYTES`], and yields exactly one
/// [`Request`]. It is a one-shot machine — after `Complete` or an error
/// the parser is spent, matching the server's one-exchange connections.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Parsed head plus declared body length, once the blank line was seen.
    head: Option<(Request, usize)>,
    /// Offset of the first body byte in `buf`.
    body_start: usize,
}

impl RequestParser {
    /// A fresh parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Whether no byte has been consumed yet (a clean pre-request EOF is a
    /// probe, not an error worth answering).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && self.head.is_none()
    }

    /// Consumes the next fragment from the wire.
    ///
    /// # Errors
    ///
    /// See [`RequestError`]; once an error is returned the
    /// parser must be discarded (the connection answers 4xx and closes).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<ParseStatus, RequestError> {
        if self.head.is_none() {
            // Resume the boundary scan a few bytes back, in case the blank
            // line straddles two fragments.
            let scan_from = self.buf.len().saturating_sub(3);
            self.buf.extend_from_slice(bytes);
            if let Some((head_len, sep_len)) = find_head_end(&self.buf, scan_from) {
                if head_len + sep_len > MAX_HEAD_BYTES {
                    return Err(RequestError::TooLarge);
                }
                let (request, content_length) = parse_head(&self.buf[..head_len + sep_len])?;
                self.head = Some((request, content_length));
                self.body_start = head_len + sep_len;
            } else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(RequestError::TooLarge);
                }
                return Ok(ParseStatus::NeedMore);
            }
        } else {
            self.buf.extend_from_slice(bytes);
        }

        let (_, content_length) = self.head.as_ref().expect("head parsed above");
        let content_length = *content_length;
        if self.buf.len() < self.body_start + content_length {
            return Ok(ParseStatus::NeedMore);
        }
        let (mut request, _) = self.head.take().expect("head parsed above");
        self.buf.truncate(self.body_start + content_length);
        request.body = self.buf.split_off(self.body_start);
        Ok(ParseStatus::Complete(request))
    }
}

/// Finds the head/body separator (`\r\n\r\n` or `\n\n`) at or after
/// `from`, returning `(head_len_including_separator_start, separator_len)`
/// — i.e. the head slice is `buf[..end]` where `end = head_len + sep_len`.
fn find_head_end(buf: &[u8], from: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < buf.len() {
        if buf[i..].starts_with(b"\r\n\r\n") {
            return Some((i, 4));
        }
        if buf[i..].starts_with(b"\n\n") {
            return Some((i, 2));
        }
        i += 1;
    }
    None
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers (`Content-Length`, `Connection`, and `Content-Type`
    /// are emitted automatically).
    pub headers: Vec<(String, String)>,
    /// Media type of `body`.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Overrides the media type.
    #[must_use]
    pub fn with_content_type(mut self, content_type: &'static str) -> Response {
        self.content_type = content_type;
        self
    }

    /// Serializes and writes the response.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// An in-progress chunked (streaming) HTTP response.
///
/// The batch endpoint streams per-item results as they complete, so it
/// cannot know `Content-Length` up front; instead the head advertises
/// `Transfer-Encoding: chunked` and each item result is written as one
/// self-delimiting chunk. Dropping the writer without [`ChunkedWriter::finish`]
/// leaves the body unterminated — the client sees a truncated transfer,
/// never a silently complete-looking one.
pub struct ChunkedWriter<'a, W: Write> {
    stream: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Writes the response head (status line + headers) and switches the
    /// connection into chunked transfer encoding.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn begin(
        stream: &'a mut W,
        status: u16,
        content_type: &str,
    ) -> io::Result<ChunkedWriter<'a, W>> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\n\
             Connection: close\r\n\r\n",
            status,
            status_reason(status),
            content_type,
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one chunk and flushes it, so a slow batch still delivers
    /// every completed item promptly. Empty chunks are skipped: in chunked
    /// encoding a zero-length chunk terminates the body.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the body with the final zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `raw` to a fresh parser as one fragment and expects a request.
    fn parse(raw: &[u8]) -> Request {
        match RequestParser::new().feed(raw) {
            Ok(ParseStatus::Complete(req)) => req,
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /v1/run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_bad_requests() {
        let raw = b"GET /x SPDY/9\r\n\r\n";
        assert!(RequestParser::new().feed(raw).is_err());
        let raw = b"GET /x HTTP/1.1\r\nContent-Length: zebra\r\n\r\n";
        assert!(RequestParser::new().feed(raw).is_err());
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::begin(&mut out, 200, "application/x-ndjson").unwrap();
        w.chunk(b"{\"index\":0}\n").unwrap();
        w.chunk(b"").unwrap(); // skipped: would terminate the body early
        w.chunk(b"{\"index\":1}\n").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        assert!(!text.contains("Content-Length"), "{text}");
        let body = text.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(
            body,
            "c\r\n{\"index\":0}\n\r\nc\r\n{\"index\":1}\n\r\n0\r\n\r\n"
        );
    }

    #[test]
    fn serializes_a_response() {
        let resp = Response::json(200, "{}").with_header("Retry-After", "1");
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
