//! Minimal HTTP/1.1 framing over a blocking [`TcpStream`].
//!
//! One request per connection (`Connection: close` on every response):
//! with a bounded worker pool and a bounded admission queue, keep-alive
//! would let an idle client pin a worker, which is exactly the resource
//! exhaustion this server exists to prevent. The cost — one TCP
//! handshake per request — is irrelevant next to an NN query.
//!
//! Parsing is deliberately strict and bounded: header block ≤ 8 KiB,
//! body ≤ [`MAX_BODY`], `Content-Length` required for bodies, unknown
//! framing (chunked) rejected. Anything over a limit is a typed error
//! the server maps to `413`/`400` instead of an unbounded read.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request-line + header block.
pub const MAX_HEAD: usize = 8 * 1024;

/// Upper bound on a request body (1 MiB — a 4096-dim f64 point is
/// ~80 KiB of JSON; batches cap out well under this).
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed request head plus its body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the client already per RFC).
    pub method: String,
    /// Path component only — query strings are not part of the protocol
    /// and are left attached (no route uses them).
    pub path: String,
    /// Raw body bytes (UTF-8 is checked at JSON-parse time, not here).
    pub body: Vec<u8>,
    /// Verbatim `traceparent` header value, if the client sent one
    /// (W3C trace-context ingestion; parsed/validated by the server).
    pub traceparent: Option<String>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// Socket error (includes the read deadline passing — the
    /// per-request deadline at the transport layer).
    Io(std::io::Error),
    /// Malformed request line or headers.
    BadRequest(&'static str),
    /// Head or body over the configured limit.
    TooLarge(&'static str),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Io(e) => write!(f, "i/o: {e}"),
            RecvError::BadRequest(w) => write!(f, "bad request: {w}"),
            RecvError::TooLarge(w) => write!(f, "too large: {w}"),
        }
    }
}

/// Reads one request from the stream, all of it before `deadline`: the
/// socket's read timeout is re-armed with the time left before every
/// `read()`, so a slow-loris client that trickles bytes cannot hold a
/// worker past the deadline.
pub fn read_request(stream: &mut TcpStream, deadline: Instant) -> Result<Request, RecvError> {
    // Read until the blank line, never past MAX_HEAD. A byte-at-a-time
    // loop would be slow; read in chunks and keep whatever trailing
    // bytes belong to the body.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() >= MAX_HEAD {
            return Err(RecvError::TooLarge("header block over limit"));
        }
        let mut chunk = [0u8; 1024];
        let n = read_before(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(RecvError::BadRequest("connection closed mid-head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RecvError::BadRequest("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1") {
        return Err(RecvError::BadRequest("malformed request line"));
    }

    let mut content_length: Option<usize> = None;
    let mut traceparent: Option<String> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            let n: usize = value
                .parse()
                .map_err(|_| RecvError::BadRequest("bad content-length"))?;
            content_length = Some(n);
        } else if name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity") {
            return Err(RecvError::BadRequest("chunked bodies not supported"));
        } else if name == "traceparent" && traceparent.is_none() {
            traceparent = Some(value.to_string());
        }
    }

    let body_start = head_end + 4; // past the \r\n\r\n
    let want = content_length.unwrap_or(0);
    if want > MAX_BODY {
        return Err(RecvError::TooLarge("body over limit"));
    }
    let mut body = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < want {
        let mut chunk = vec![0u8; (want - body.len()).min(64 * 1024)];
        let n = read_before(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(RecvError::BadRequest("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(want);

    Ok(Request {
        method,
        path,
        body,
        traceparent,
    })
}

/// One `read()` that blocks no later than `deadline`.
fn read_before(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> Result<usize, RecvError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(RecvError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "request read deadline passed",
        )));
    }
    stream.set_read_timeout(Some(left)).map_err(RecvError::Io)?;
    stream.read(buf).map_err(RecvError::Io)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response and flushes. `extra_headers` are
/// preformatted `Name: value` lines (no trailing CRLF).
pub fn write_response(
    stream: &mut TcpStream,
    write_timeout: Duration,
    status: u16,
    content_type: &str,
    extra_headers: &[String],
    body: &[u8],
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(write_timeout))?;
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = l.accept().expect("accept");
        (a, b)
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(1)
    }

    #[test]
    fn parses_post_with_body() {
        let (mut c, mut s) = pair();
        c.write_all(
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
        )
        .expect("write");
        let req = read_request(&mut s, soon()).expect("read");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"hello world");
        assert_eq!(req.traceparent, None);
    }

    #[test]
    fn captures_traceparent_header() {
        let (mut c, mut s) = pair();
        c.write_all(
            b"POST /query HTTP/1.1\r\nTraceParent: 00-0123456789abcdef0123456789abcdef-fedcba9876543210-01\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("write");
        let req = read_request(&mut s, soon()).expect("read");
        assert_eq!(
            req.traceparent.as_deref(),
            Some("00-0123456789abcdef0123456789abcdef-fedcba9876543210-01")
        );
    }

    #[test]
    fn parses_get_without_body() {
        let (mut c, mut s) = pair();
        c.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write");
        let req = read_request(&mut s, soon()).expect("read");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_head_and_body() {
        let (mut c, mut s) = pair();
        let big = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        c.write_all(big.as_bytes()).expect("write");
        assert!(matches!(
            read_request(&mut s, soon()),
            Err(RecvError::TooLarge(_))
        ));

        let (mut c, mut s) = pair();
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        c.write_all(head.as_bytes()).expect("write");
        assert!(matches!(
            read_request(&mut s, soon()),
            Err(RecvError::TooLarge(_))
        ));
    }

    #[test]
    fn rejects_chunked_and_malformed() {
        let (mut c, mut s) = pair();
        c.write_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
            .expect("write");
        assert!(matches!(
            read_request(&mut s, soon()),
            Err(RecvError::BadRequest(_))
        ));

        let (mut c, mut s) = pair();
        c.write_all(b"NOT-HTTP\r\n\r\n").expect("write");
        assert!(read_request(&mut s, soon()).is_err());
    }

    #[test]
    fn slow_client_times_out() {
        let (_c, mut s) = pair();
        // Client never writes: the read must fail by timeout, not hang.
        let t0 = std::time::Instant::now();
        let r = read_request(&mut s, t0 + Duration::from_millis(100));
        assert!(matches!(r, Err(RecvError::Io(_))));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn trickling_client_cannot_outlast_the_deadline() {
        let (mut c, mut s) = pair();
        // A head that never ends, one byte every 20 ms: each read() sees
        // data well inside any per-read timeout, so only a bound on the
        // whole request can stop it. The writer gives up after ~2 s (or
        // once the server side hangs up).
        let writer = std::thread::spawn(move || {
            if c.write_all(b"GET / HTTP/1.1\r\nX-Pad: ").is_err() {
                return;
            }
            for _ in 0..100 {
                std::thread::sleep(Duration::from_millis(20));
                if c.write_all(b"a").is_err() {
                    return;
                }
            }
        });
        let t0 = Instant::now();
        let r = read_request(&mut s, t0 + Duration::from_millis(100));
        let took = t0.elapsed();
        assert!(matches!(r, Err(RecvError::Io(_))), "{r:?}");
        assert!(took < Duration::from_millis(150), "held for {took:?}");
        drop(s);
        writer.join().expect("writer thread");
    }

    #[test]
    fn response_round_trips() {
        let (mut c, mut s) = pair();
        write_response(
            &mut s,
            Duration::from_secs(1),
            429,
            "application/json",
            &[String::from("Retry-After: 1")],
            b"{\"error\":\"overloaded\"}",
        )
        .expect("write");
        drop(s);
        let mut got = String::new();
        c.read_to_string(&mut got).expect("read");
        assert!(got.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{got}");
        assert!(got.contains("Retry-After: 1\r\n"), "{got}");
        assert!(got.contains("Connection: close\r\n"), "{got}");
        assert!(got.ends_with("{\"error\":\"overloaded\"}"), "{got}");
    }
}
