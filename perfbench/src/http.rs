//! A minimal HTTP/1.1 client for the load generator: one connection per
//! request (the server answers `Connection: close`), the whole request in
//! one write, the whole response read to EOF.
//!
//! The benchmark keeps its own client rather than the server crate's, so
//! that a change to that crate's client cannot change what the benchmark
//! sends or how it times it.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one request may take before it counts as a transport error.
const TIMEOUT: Duration = Duration::from_secs(10);

/// A response as the benchmark needs it.
pub struct Response {
    pub status: u16,
    /// The `traceparent` header, present when the server sampled the request.
    pub traceparent: Option<String>,
    pub body: Vec<u8>,
}

/// Why a request got no response.
#[derive(Debug)]
pub enum Transport {
    /// The peer reset the connection (`ECONNRESET`).
    Reset,
    /// Any other I/O failure, timeouts included.
    Other(std::io::Error),
    /// Bytes arrived but did not form an HTTP/1.1 response.
    Malformed,
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Reset => write!(f, "connection reset"),
            Transport::Other(e) => write!(f, "i/o: {e}"),
            Transport::Malformed => write!(f, "malformed response"),
        }
    }
}

fn io(e: std::io::Error) -> Transport {
    if e.kind() == ErrorKind::ConnectionReset {
        Transport::Reset
    } else {
        Transport::Other(e)
    }
}

/// Sends one request and reads its response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<Response, Transport> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(io)?;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req).map_err(io)?;
    let mut raw = Vec::with_capacity(512);
    stream.read_to_end(&mut raw).map_err(io)?;
    parse(&raw).ok_or(Transport::Malformed)
}

fn parse(raw: &[u8]) -> Option<Response> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()?
        .strip_prefix("HTTP/1.1 ")?
        .get(..3)?
        .parse()
        .ok()?;
    let mut traceparent = None;
    let mut length = None;
    for line in lines {
        let (name, value) = line.split_once(':')?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("traceparent") {
            traceparent = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().ok()?);
        }
    }
    let body = &raw[split + 4..];
    if length? != body.len() {
        return None;
    }
    Some(Response {
        status,
        traceparent,
        body: body.to_vec(),
    })
}

/// `GET path`, failing unless the server answers 200.
pub fn get_ok(addr: SocketAddr, path: &str) -> Result<String, String> {
    let resp = request(addr, "GET", path, b"").map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path} answered {}", resp.status));
    }
    String::from_utf8(resp.body).map_err(|_| format!("GET {path}: body is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_framed_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\ntraceparent: 00-ab-cd-01\r\n\r\n{}";
        let r = parse(raw).expect("valid response");
        assert_eq!(r.status, 200);
        assert_eq!(r.traceparent.as_deref(), Some("00-ab-cd-01"));
        assert_eq!(r.body, b"{}");
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n{}").is_none());
    }
}
