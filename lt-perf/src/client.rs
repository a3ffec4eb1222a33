//! The load generator's own HTTP/1.1 keep-alive client.
//!
//! It behaves the way `curl` does on a reused connection: `TCP_NODELAY` is
//! set, the whole request leaves in one `write`, and responses are framed
//! by `Content-Length` with a bounded head and body. Keeping the shipped
//! `lt_serve::http::Connection` out of the load generator means a change to
//! that client can neither speed up nor slow down what the benchmark
//! measures about the server.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Upper bound on a response's status line and headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a response body (`/metrics` of a fabric is the largest).
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Socket read/write timeout; long-polls are capped server-side at 30 s.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One parsed response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// True when the server announced `Connection: close`.
    pub close: bool,
}

/// A persistent connection to one server, opened on first use and again
/// after the server closes it.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the end of the previous response.
    pending: Vec<u8>,
}

impl Client {
    /// A lazily connected client for `addr`.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            pending: Vec::new(),
        }
    }

    /// Sends one request and reads its response. Any error drops the
    /// connection, so the next call starts on a fresh one.
    pub fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
        let result = self.exchange(method, path, body);
        match &result {
            Ok(response) if !response.close => {}
            _ => {
                self.stream = None;
                self.pending.clear();
            }
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: Option<&str>) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        read_response(stream, &mut self.pending)
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Reads one `Content-Length`-framed response from `stream`. `pending`
/// holds bytes already read past the previous response and keeps any read
/// past this one. Malformed, unframed or oversized responses are errors.
pub fn read_response(stream: &mut impl Read, pending: &mut Vec<u8>) -> io::Result<Response> {
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if pending.len() > MAX_HEAD_BYTES {
            return Err(malformed("response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a full response head",
            ));
        }
        pending.extend_from_slice(&chunk[..n]);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(malformed("response head too large"));
    }
    let head =
        std::str::from_utf8(&pending[..head_end]).map_err(|_| malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("bad header line"))?;
        let value = value.trim();
        if name.trim().eq_ignore_ascii_case("content-length") {
            let n = value
                .parse::<usize>()
                .map_err(|_| malformed("bad Content-Length"))?;
            length = Some(n);
        } else if name.trim().eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| malformed("response has no Content-Length"))?;
    if length > MAX_BODY_BYTES {
        return Err(malformed("response body too large"));
    }
    let body_start = head_end + 4;
    while pending.len() < body_start + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the body",
            ));
        }
        pending.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(pending[body_start..body_start + length].to_vec())
        .map_err(|_| malformed("body is not UTF-8"))?;
    pending.drain(..body_start + length);
    Ok(Response {
        status,
        body,
        close,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves its bytes a few at a time, like a socket under load.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn parse(raw: &[u8], step: usize) -> io::Result<Response> {
        read_response(&mut Trickle { data: raw, step }, &mut Vec::new())
    }

    #[test]
    fn frames_responses_split_across_reads() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"id\": 17}\n";
        for step in [1, 2, 3, 7, 64, 4096] {
            let r = parse(raw, step).unwrap();
            assert_eq!(r.status, 202, "step {step}");
            assert_eq!(r.body, "{\"id\": 17}\n");
            assert!(!r.close);
        }
    }

    #[test]
    fn keeps_bytes_of_the_next_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nabHTTP/1.1 404 Not Found\r\nContent-Length: 1\r\nConnection: close\r\n\r\nz";
        let mut src = Trickle {
            data: raw,
            step: 1000,
        };
        let mut pending = Vec::new();
        let first = read_response(&mut src, &mut pending).unwrap();
        assert_eq!((first.status, first.body.as_str()), (200, "ab"));
        let second = read_response(&mut src, &mut pending).unwrap();
        assert_eq!((second.status, second.body.as_str()), (404, "z"));
        assert!(second.close);
        assert!(pending.is_empty());
    }

    #[test]
    fn bad_framing_is_an_error_not_a_panic() {
        let cases: [&[u8]; 7] = [
            b"HTTP/1.1 200 OK\r\n\r\nbody",
            b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
            b"HTTP/1.1 200 OK\r\nContent-Len",
            b"garbage\r\n\r\n",
            b"",
        ];
        for raw in cases {
            for step in [1, 5, 4096] {
                assert!(
                    parse(raw, step).is_err(),
                    "{:?}",
                    String::from_utf8_lossy(raw)
                );
            }
        }
        let huge = vec![b'x'; MAX_HEAD_BYTES + 10];
        assert!(parse(&huge, 4096).is_err());
    }
}
