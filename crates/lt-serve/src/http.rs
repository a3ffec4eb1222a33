//! A minimal HTTP/1.1 layer over `std::net`, sized for the tuning service.
//!
//! The default is one request per connection (`Connection: close` on every
//! response); clients that send `Connection: keep-alive` explicitly get the
//! connection back for more requests, up to the server's per-connection cap
//! and idle timeout ([`Connection`] is the persistent client). No chunked
//! encoding — the serving protocol is small JSON documents delimited by
//! `Content-Length` in both directions. Head and body sizes are bounded so
//! a misbehaving peer cannot balloon memory.
//!
//! [`serve`] is the one server-side front end: the daemon and the
//! coordinator each hand it a router and the same three [`Limits`].
//!
//! Every message leaves in one `write_all` of one buffer — a response
//! ([`Response::write_connection`]) and a client request alike — and every
//! accepted and client socket sets `TCP_NODELAY`. With the head and body in
//! separate writes, Nagle's algorithm held the later ones until the peer's
//! delayed ACK, about 40 ms on every reused keep-alive connection. Every
//! message is read through a buffer held for the whole connection, so a
//! head costs a `read` per buffer fill rather than one per byte, and bytes
//! of a pipelined next message wait in the buffer for the next read.

use lt_common::json::Value;
use lt_common::obs;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on the request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Socket timeout of the blocking clients; long-polls are capped
/// server-side at 30 s.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, upper-case as sent (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Request target, e.g. `/sessions/3/config` (query strings are kept
    /// verbatim; the service routes on the path only).
    pub path: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` when it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The body as a JSON document, an empty body reading as `{}`. `Err`
    /// is the 400 to answer.
    pub fn json_body(&self) -> Result<Value, Response> {
        let Some(body) = self.body_str() else {
            return Err(Response::error(400, "body is not UTF-8"));
        };
        lt_common::json::parse(if body.trim().is_empty() { "{}" } else { body })
            .map_err(|err| Response::error(400, &format!("invalid JSON: {err}")))
    }

    /// The tenant named by the `X-Tenant` header, `"default"` when it is
    /// absent or blank. Tenancy is declared, not authenticated — this
    /// models quota accounting, not security.
    pub fn tenant(&self) -> String {
        self.header("x-tenant")
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .unwrap_or("default")
            .to_string()
    }

    /// The path without its query string, and its non-empty segments.
    pub fn route_path(&self) -> (&str, Vec<&str>) {
        let path = self.path.split('?').next().unwrap_or("");
        (path, path.split('/').filter(|s| !s.is_empty()).collect())
    }

    /// True when the client explicitly asked to reuse the connection.
    /// HTTP/1.1 defaults to persistent connections, but this service keeps
    /// the historical close-by-default contract — existing clients send no
    /// `Connection` header and expect EOF-delimited responses.
    pub fn wants_keep_alive(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
    }
}

fn malformed(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Reads one message head — start line plus headers — up to the blank line
/// that ends it, a line at a time out of the buffer, so whatever follows
/// the head stays buffered. Bounded by [`MAX_HEAD_BYTES`]; bare-LF line
/// ends are tolerated (curl never sends them, netcat may). `what`
/// ("request"/"response") names the side in errors. Returns the start line
/// and the headers, names lower-cased; a header line without `:` is an
/// error.
fn read_head(stream: &mut impl BufRead, what: &str) -> io::Result<(String, Vec<(String, String)>)> {
    let mut head = Vec::new();
    let head_end = loop {
        let room = (MAX_HEAD_BYTES - head.len()) as u64;
        let read = stream.by_ref().take(room).read_until(b'\n', &mut head)?;
        if head.ends_with(b"\r\n\r\n") {
            break head.len() - 4;
        }
        if head.ends_with(b"\n\n") {
            break head.len() - 2;
        }
        if head.len() >= MAX_HEAD_BYTES {
            return Err(malformed(format!("{what} head too large")));
        }
        // A line cut short below the bound means the stream ended.
        // `UnexpectedEof`, not `InvalidData`: the client's reconnect logic
        // tells a dead keep-alive socket from a protocol error.
        if read == 0 || !head.ends_with(b"\n") {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            ));
        }
    };
    let text = std::str::from_utf8(&head[..head_end])
        .map_err(|_| malformed(format!("{what} head is not UTF-8")))?;
    let mut lines = text.lines();
    let start = lines
        .next()
        .ok_or_else(|| malformed(format!("empty {what}")))?
        .to_string();
    let headers = lines
        .map(|line| {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| malformed("malformed header line"))?;
            Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect::<io::Result<_>>()?;
    Ok((start, headers))
}

/// Reads the `Content-Length` body that follows a head, refusing more
/// than `max` bytes.
fn read_body(
    stream: &mut impl Read,
    headers: &[(String, String)],
    max: usize,
    what: &str,
) -> io::Result<Vec<u8>> {
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| malformed("bad Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max {
        return Err(malformed(format!("{what} body too large")));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;
    Ok(body)
}

/// Reads one request from `stream`. `Err` means the peer sent something
/// that is not HTTP (or exceeded the size bounds); the connection should
/// be answered with 400 and closed.
pub fn read_request(stream: &mut impl BufRead) -> io::Result<Request> {
    let (request_line, headers) = read_head(stream, "request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| malformed("missing request target"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1") => {}
        _ => return Err(malformed("missing or unsupported HTTP version")),
    }
    let body = read_body(stream, &headers, MAX_BODY_BYTES, "request")?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body text (always JSON in this service).
    pub body: String,
    /// Extra headers beyond the standard set (e.g. `Allow` on a 405).
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, value: &Value) -> Response {
        Response {
            status,
            body: value.to_string_pretty(),
            headers: Vec::new(),
        }
    }

    /// Appends an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// A JSON error envelope: `{"error": {"status", "message"}}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            &lt_common::json!({
                "error": lt_common::json!({
                    "status": status,
                    "message": message,
                }),
            }),
        )
    }

    /// 405 for a known path whose method set does not include `method`,
    /// naming the allowed set in the body and the `Allow` header.
    pub fn method_not_allowed(method: &str, path: &str, allow: &'static str) -> Response {
        Response::error(
            405,
            &format!("method {method} not allowed for {path} (allow: {allow})"),
        )
        .with_header("Allow", allow)
    }

    /// Serializes status line, headers and body to `stream`, closing the
    /// connection afterwards (the historical one-request contract).
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        self.write_connection(stream, false)
    }

    /// [`Response::write_to`] with an explicit connection disposition:
    /// `keep_alive` announces the connection stays open for more requests.
    /// The whole message goes out in one write.
    pub fn write_connection(&self, stream: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut message = String::with_capacity(160 + self.body.len());
        let _ = write!(
            message,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.headers {
            let _ = write!(message, "{name}: {value}\r\n");
        }
        message.push_str("\r\n");
        message.push_str(&self.body);
        stream.write_all(message.as_bytes())?;
        stream.flush()
    }
}

/// Reason phrase for the status codes this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Connection limits of a server front end; the daemon and the coordinator
/// read them from the same settings ([`crate::ServerConfig::limits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Concurrent connections; a connection above it is answered 503
    /// without spawning a thread.
    pub max_connections: usize,
    /// Requests served per connection before it is closed, even for
    /// clients asking `Connection: keep-alive`.
    pub keepalive_max: usize,
    /// How long a connection may sit between requests (and one request may
    /// take to arrive), in milliseconds. It never cuts a request being
    /// routed, so long-polls are bounded by their own cap, not by this.
    pub idle_timeout_ms: u64,
}

/// Whose front end [`serve`] runs; it names the threads and the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A tuning daemon or shard: `lt-serve-*` threads, `serve.*` counters.
    Daemon,
    /// The coordinator: `lt-coord-*` threads, `coord.*` counters.
    Coordinator,
}

/// The stop switch of an accept loop, shared with the owning handle and
/// the `POST /shutdown` route.
#[derive(Debug)]
pub struct Shutdown {
    requested: AtomicBool,
    addr: SocketAddr,
}

impl Shutdown {
    /// A switch for the listener bound at `addr`.
    pub fn new(addr: SocketAddr) -> Shutdown {
        Shutdown {
            requested: AtomicBool::new(false),
            addr,
        }
    }

    /// True once [`Shutdown::request`] ran.
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Sets the flag and pokes the listener: the accept loop re-checks the
    /// flag only when `accept()` returns, so without the throwaway
    /// connection it would wait for the next unrelated client.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Decrements the live-connection count when a connection thread exits,
/// however it exits.
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The server front end: runs the accept loop on its own thread until
/// `shutdown` is requested, one thread per admitted connection, and hands
/// every request to `router`.
///
/// - **Connection cap.** Each connection holds a thread for up to the idle
///   timeout, so above `limits.max_connections` the accept loop itself
///   answers 503 and spawns nothing.
/// - **Keep-alive.** Close-by-default with opt-in reuse, up to
///   `limits.keepalive_max` requests per connection, the read timeout
///   doubling as the idle timeout. A malformed first request is answered
///   400; after that, a read error is just the client being done.
pub fn serve<R>(
    listener: TcpListener,
    role: Role,
    limits: Limits,
    shutdown: Arc<Shutdown>,
    router: R,
) -> io::Result<JoinHandle<()>>
where
    R: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let limits = Limits {
        max_connections: limits.max_connections.max(1),
        keepalive_max: limits.keepalive_max.max(1),
        idle_timeout_ms: limits.idle_timeout_ms.max(1),
    };
    let (thread, rejected, reused) = match role {
        Role::Daemon => (
            "lt-serve",
            "serve.connections_rejected",
            "serve.keepalive_reuse",
        ),
        Role::Coordinator => (
            "lt-coord",
            "coord.connections_rejected",
            "coord.keepalive_reuse",
        ),
    };
    let router = Arc::new(router);
    let live = Arc::new(AtomicUsize::new(0));
    std::thread::Builder::new()
        .name(format!("{thread}-accept"))
        .spawn(move || {
            for stream in listener.incoming() {
                if shutdown.is_requested() {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                if live.fetch_add(1, Ordering::SeqCst) >= limits.max_connections {
                    live.fetch_sub(1, Ordering::SeqCst);
                    obs::counter(rejected, 1);
                    // Drain whatever the client already sent (non-blocking,
                    // best effort): closing a socket with unread bytes
                    // resets the connection and would eat the 503.
                    let _ = stream.set_nonblocking(true);
                    let mut scratch = [0u8; 4096];
                    while matches!(stream.read(&mut scratch), Ok(n) if n > 0) {}
                    let _ = stream.set_nonblocking(false);
                    // Tiny fixed body: fits the socket buffer, so this
                    // cannot stall the accept loop for long.
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ = Response::error(503, "too many connections, retry later")
                        .write_to(&mut stream);
                    continue;
                }
                // On spawn failure the unstarted closure is dropped and the
                // moved guard decrements the count right there.
                let guard = LiveGuard(live.clone());
                let router = router.clone();
                let _ = std::thread::Builder::new()
                    .name(format!("{thread}-conn"))
                    .spawn(move || {
                        let _guard = guard;
                        serve_connection(stream, limits, reused, &*router);
                    });
            }
        })
}

/// The keep-alive request loop of one admitted connection; `reused`
/// counts every request after the first. Requests are read through one
/// buffer for the whole connection; responses go straight to the socket.
fn serve_connection(
    stream: TcpStream,
    limits: Limits,
    reused: &'static str,
    router: &impl Fn(&Request) -> Response,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(limits.idle_timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(&stream);
    for served in 0..limits.keepalive_max {
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            Err(err) => {
                if served == 0 {
                    let _ = Response::error(400, &format!("malformed request: {err}"))
                        .write_to(&mut &stream);
                }
                return;
            }
        };
        if served > 0 {
            obs::counter(reused, 1);
        }
        let keep = request.wants_keep_alive() && served + 1 < limits.keepalive_max;
        let response = router(&request);
        if response.write_connection(&mut &stream, keep).is_err() || !keep {
            return;
        }
    }
}

/// Blocking HTTP client for the load generator, tests and examples: opens
/// a fresh connection, sends one request, returns `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let (status, _, body) = request_with(addr, method, path, &[], body)?;
    Ok((status, body))
}

/// Status code, response headers (names lower-cased) and body of one
/// client-side response.
pub type RawResponse = (u16, Vec<(String, String)>, String);

/// Like [`request`], but sends extra request headers (e.g. `X-Tenant`) and
/// returns the response headers (names lower-cased) alongside status and
/// body.
pub fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> io::Result<RawResponse> {
    let stream = connect(addr)?;
    write_request(&mut &stream, addr, method, path, headers, body, false)?;
    read_response(&mut BufReader::new(&stream))
}

/// Opens a client connection with the client timeouts and `TCP_NODELAY`.
fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(stream)
}

/// Writes one client request in one write; `keep_alive` picks the
/// `Connection` header.
fn write_request(
    stream: &mut impl Write,
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
    keep_alive: bool,
) -> io::Result<()> {
    let body = body.unwrap_or("");
    let mut message = String::with_capacity(128 + path.len() + body.len());
    let _ = write!(
        message,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in headers {
        let _ = write!(message, "{name}: {value}\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// Upper bound on a response body the clients will accept.
const MAX_RESPONSE_BYTES: usize = 8 * 1024 * 1024;

/// Reads one `Content-Length`-delimited response — the framing that makes
/// connection reuse possible (an EOF-delimited read would wait out the
/// server's idle timeout on every call).
fn read_response(stream: &mut impl BufRead) -> io::Result<RawResponse> {
    let (status_line, headers) = read_head(stream, "response")?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    let body = read_body(stream, &headers, MAX_RESPONSE_BYTES, "response")?;
    let body = String::from_utf8(body).map_err(|_| malformed("response body is not UTF-8"))?;
    Ok((status, headers, body))
}

/// Why a [`Connection::call_classified`] failed — the distinction the
/// shard-failover path needs.
#[derive(Debug)]
pub enum CallError {
    /// The TCP connect itself was refused or unreachable: the server
    /// process is down and **no request bytes were sent**. Safe to retry
    /// elsewhere (or later, through the coordinator) even for POSTs.
    Refused(io::Error),
    /// The transport or HTTP exchange failed after a connection existed —
    /// the request may have been partially processed; retrying is the
    /// caller's judgement call.
    Transport(io::Error),
}

impl CallError {
    /// The underlying I/O error.
    pub fn into_inner(self) -> io::Error {
        match self {
            CallError::Refused(err) | CallError::Transport(err) => err,
        }
    }

    /// True when the failure was a connect-level refusal (server down).
    pub fn is_refused(&self) -> bool {
        matches!(self, CallError::Refused(_))
    }
}

/// True for error kinds that mean a previously-good keep-alive socket is
/// simply dead (server restarted, idle-closed, or capped the connection) —
/// the cases where a one-shot reconnect-and-retry is sound.
fn is_stale_connection(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WriteZero
    )
}

/// True when a connect attempt failed because nothing is listening.
fn is_refused_connect(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::HostUnreachable
            | io::ErrorKind::NetworkUnreachable
            | io::ErrorKind::AddrNotAvailable
    )
}

/// A persistent client connection: sends `Connection: keep-alive` on every
/// request and reads responses by `Content-Length`, so one TCP connection
/// carries many calls. When the server closes it anyway — per-connection
/// request cap, idle timeout, restart — the next call transparently
/// reconnects once before giving up.
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    /// The open socket, read through a buffer that lives as long as it.
    stream: Option<BufReader<TcpStream>>,
}

impl Connection {
    /// A lazily-connected client for `addr` (the socket opens on first use).
    pub fn new(addr: SocketAddr) -> Connection {
        Connection { addr, stream: None }
    }

    fn stream(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            self.stream = Some(BufReader::new(connect(self.addr)?));
        }
        Ok(self.stream.as_mut().expect("stream just connected"))
    }

    /// Sends one request over the persistent connection and reads the
    /// response. Reconnects and retries once when the connection turned out
    /// to be dead (server-side cap or idle close between calls).
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> io::Result<RawResponse> {
        self.call_classified(method, path, headers, body)
            .map_err(CallError::into_inner)
    }

    /// [`Connection::call`] that reports *why* it failed: a connect-level
    /// refusal ([`CallError::Refused`] — the server is down, nothing was
    /// sent, failover is safe) versus a transport/HTTP failure
    /// ([`CallError::Transport`]).
    ///
    /// A reused keep-alive socket that turns out to be dead (reset, broken
    /// pipe, EOF before the status line) is retried once on a fresh
    /// connection before either classification is reported — but a
    /// protocol-level error (malformed response) is **not** retried: the
    /// request may have been processed, and blind resends would duplicate
    /// non-idempotent calls.
    pub fn call_classified(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<RawResponse, CallError> {
        let reused = self.stream.is_some();
        match self.try_call(method, path, headers, body) {
            Ok(response) => Ok(response),
            Err(err) if reused && is_stale_connection(&err) => {
                self.stream = None;
                self.try_call(method, path, headers, body)
                    .map_err(|err| self.classify(err))
            }
            Err(err) => Err(self.classify(err)),
        }
    }

    fn classify(&self, err: io::Error) -> CallError {
        if is_refused_connect(&err) {
            CallError::Refused(err)
        } else {
            CallError::Transport(err)
        }
    }

    fn try_call(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> io::Result<RawResponse> {
        let addr = self.addr;
        let result = (|| {
            let stream = self.stream()?;
            write_request(stream.get_mut(), addr, method, path, headers, body, true)?;
            read_response(stream)
        })();
        match result {
            Ok((status, headers, body)) => {
                // The server says whether the connection survives this
                // response; believe it rather than discovering a dead
                // socket on the next call.
                let closing = headers
                    .iter()
                    .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
                if closing {
                    self.stream = None;
                }
                Ok((status, headers, body))
            }
            Err(err) => {
                self.stream = None;
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw =
            b"POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\n\r\n{\"seed\": 7}\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body_str(), Some("{\"seed\": 7}\r\n"));
    }

    #[test]
    fn parses_a_get_without_body() {
        let raw = b"GET /metrics HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_truncation_and_oversize() {
        assert!(read_request(&mut &b"not http at all"[..]).is_err());
        assert!(
            read_request(&mut &b"GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"[..]).is_err()
        );
        assert!(
            read_request(&mut &b"GET /x HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n"[..])
                .is_err()
        );
        assert!(
            read_request(&mut &b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..]).is_err()
        );
        assert!(
            read_request(&mut &b"GET /x\r\n\r\n"[..]).is_err(),
            "missing version"
        );
        let huge = vec![b'A'; MAX_HEAD_BYTES + 1];
        assert!(read_request(&mut &huge[..]).is_err());
    }

    #[test]
    fn response_serializes_with_content_length() {
        let resp = Response::json(200, &lt_common::json!({ "ok": true }));
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert!(text.contains(&format!("Content-Length: {}", body.len())));
        let (status, headers, parsed_body) = read_response(&mut text.as_bytes()).unwrap();
        assert_eq!(status, 200);
        assert_eq!(parsed_body, body);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "close"));
    }

    #[test]
    fn extra_headers_are_written() {
        let resp = Response::error(405, "nope").with_header("Allow", "GET, POST");
        let mut out = Vec::new();
        resp.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let head = text.split("\r\n\r\n").next().unwrap();
        assert!(head.contains("\r\nAllow: GET, POST"), "{text}");
        let (status, headers, _) = read_response(&mut text.as_bytes()).unwrap();
        assert_eq!(status, 405);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "allow" && v == "GET, POST"));
    }

    #[test]
    fn keep_alive_is_explicit_opt_in() {
        let raw = b"GET /metrics HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        assert!(read_request(&mut &raw[..]).unwrap().wants_keep_alive());
        let raw = b"GET /metrics HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n";
        assert!(read_request(&mut &raw[..]).unwrap().wants_keep_alive());
        let raw = b"GET /metrics HTTP/1.1\r\n\r\n";
        assert!(!read_request(&mut &raw[..]).unwrap().wants_keep_alive());
        let raw = b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!read_request(&mut &raw[..]).unwrap().wants_keep_alive());
    }

    #[test]
    fn write_connection_announces_the_disposition() {
        let resp = Response::json(200, &lt_common::json!({ "ok": true }));
        let mut out = Vec::new();
        resp.write_connection(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (_, headers, _) = read_response(&mut text.as_bytes()).unwrap();
        assert!(headers
            .iter()
            .any(|(n, v)| n == "connection" && v == "keep-alive"));
    }

    #[test]
    fn read_response_stops_at_content_length() {
        // Two pipelined responses on one stream: the reader must consume
        // exactly one, leaving the second for the next call.
        let mut out = Vec::new();
        Response::json(200, &lt_common::json!({ "first": 1 }))
            .write_connection(&mut out, true)
            .unwrap();
        Response::json(404, &lt_common::json!({ "second": 2 }))
            .write_connection(&mut out, false)
            .unwrap();
        let mut stream = &out[..];
        let (status, _, body) = read_response(&mut stream).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("first"));
        let (status, _, body) = read_response(&mut stream).unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("second"));
        assert!(read_response(&mut stream).is_err(), "stream exhausted");
        // Responses share the request side's head rules.
        assert!(read_response(&mut &b"HTTP/1.1 200 OK\r\nbogus\r\n\r\n"[..]).is_err());
        let bare_lf = b"HTTP/1.1 202 Accepted\nContent-Length: 2\n\nhi";
        let (status, _, body) = read_response(&mut &bare_lf[..]).unwrap();
        assert_eq!((status, body.as_str()), (202, "hi"));
    }

    /// Accepts every byte and counts the `write` calls that carried them.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_leaves_in_one_write() {
        let mut out = CountingWriter::default();
        Response::error(405, "nope")
            .with_header("Allow", "GET, POST")
            .write_connection(&mut out, true)
            .unwrap();
        assert_eq!(out.writes, 1, "response");
        let (status, headers, _) = read_response(&mut &out.bytes[..]).unwrap();
        assert_eq!(status, 405);
        assert!(headers
            .iter()
            .any(|(n, v)| n == "allow" && v == "GET, POST"));

        let mut out = CountingWriter::default();
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let headers = [("X-Tenant", "acme"), ("X-Other", "1")];
        write_request(
            &mut out,
            addr,
            "POST",
            "/sessions",
            &headers,
            Some("{}"),
            true,
        )
        .unwrap();
        assert_eq!(out.writes, 1, "request");
        let req = read_request(&mut &out.bytes[..]).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/sessions")
        );
        assert_eq!(req.tenant(), "acme");
        assert_eq!(req.body_str(), Some("{}"));
        assert!(req.wants_keep_alive());
    }

    /// Hands out as many of its bytes as fit in each `read`, counting the
    /// calls.
    struct CountingReader {
        bytes: Vec<u8>,
        at: usize,
        reads: usize,
    }

    impl Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_head_is_read_per_buffer_fill_not_per_byte() {
        let body = "{\"seed\": 7}";
        let start = format!(
            "POST /sessions HTTP/1.1\r\nHost: 127.0.0.1:7878\r\nContent-Length: {}\r\n",
            body.len()
        );
        // Pad the head to exactly 100 bytes with one more header.
        let pad = 100 - start.len() - "X-Pad: \r\n\r\n".len();
        let head = format!("{start}X-Pad: {}\r\n\r\n", "p".repeat(pad));
        assert_eq!(head.len(), 100);
        let mut source = CountingReader {
            bytes: format!("{head}{body}").into_bytes(),
            at: 0,
            reads: 0,
        };
        let request = read_request(&mut BufReader::new(&mut source)).unwrap();
        assert_eq!(request.path, "/sessions");
        assert_eq!(request.header("x-pad").map(str::len), Some(pad));
        assert_eq!(request.body_str(), Some(body));
        assert!(source.reads <= 2, "{} reads", source.reads);
    }

    #[test]
    fn error_envelope_carries_status_and_message() {
        let resp = Response::error(429, "queue full");
        assert_eq!(resp.status, 429);
        let doc = lt_common::json::parse(&resp.body).unwrap();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("status").and_then(Value::as_i64), Some(429));
        assert_eq!(
            err.get("message").and_then(Value::as_str),
            Some("queue full")
        );
    }
}
