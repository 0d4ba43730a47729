//! A minimal blocking HTTP/1.1 client (keep-alive, JSON bodies).
//!
//! Exists so the load generator, the trace-replay driver and the
//! end-to-end tests talk to the server over *real sockets* without pulling
//! in a client library.  One [`HttpClient`] is one keep-alive connection;
//! requests are strictly sequential, which is also what makes a
//! single-client drive of the server deterministic.

use std::io::{self, Read as _, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http;

/// One keep-alive connection to an `rls-serve` server.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    /// Response bytes read but not yet parsed into a frame.
    buf: Vec<u8>,
    out: Vec<u8>,
}

impl HttpClient {
    /// Connect, with TCP_NODELAY and a 10 s read timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(http::READ_CHUNK),
            out: Vec::with_capacity(512),
        })
    }

    /// Send one request and wait for the response; returns the status code
    /// and the body.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// Send a request without waiting — pair with [`recv`](Self::recv).
    /// Several sends may be in flight at once (HTTP/1.1 pipelining);
    /// responses come back in order.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        self.queue(method, path, body);
        self.flush()
    }

    /// Buffer a request without writing it — pair with
    /// [`flush`](Self::flush).  A pipelined burst queued this way goes out
    /// in one syscall, which keeps the load generator cheap enough to
    /// saturate the server even when both share a core.
    pub fn queue(&mut self, method: &str, path: &str, body: &[u8]) {
        http::append_request(&mut self.out, method, path, body);
    }

    /// Write every queued request in one syscall.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let outcome = self.stream.write_all(&self.out);
        self.out.clear();
        outcome
    }

    /// Receive the next in-order response; returns the status code and the
    /// body.
    pub fn recv(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let (status, body) =
            self.recv_frame(|frame| (parse_status(frame.start_line), frame.body.to_vec()))?;
        Ok((status?, body))
    }

    /// Receive the next in-order response, reading only the status code —
    /// no body copy, no allocation.  The load generator lives here: it
    /// discards response bodies, so paying to copy them would just bill
    /// client overhead to the server under test.
    pub fn recv_status(&mut self) -> io::Result<u16> {
        self.recv_frame(|frame| parse_status(frame.start_line))?
    }

    /// Read the next response frame and extract what the caller needs
    /// while the bytes are still borrowed from the connection buffer.
    fn recv_frame<T>(&mut self, read: impl FnOnce(&http::Frame<'_>) -> T) -> io::Result<T> {
        let mut chunk = [0u8; http::READ_CHUNK];
        loop {
            if let Some((frame, used)) = http::parse_frame(&self.buf)? {
                let value = read(&frame);
                // Keep any pipelined responses for the next call.
                self.buf.drain(..used);
                return Ok(value);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "timed out waiting for the response",
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// [`request`](Self::request) expecting a 200 with a JSON body;
    /// non-200 statuses become errors carrying the server's message.
    pub fn request_ok(&mut self, method: &str, path: &str, body: &[u8]) -> Result<String, String> {
        let (status, body) = self
            .request(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let text = String::from_utf8_lossy(&body).into_owned();
        if status == 200 {
            Ok(text)
        } else {
            Err(format!("{method} {path}: HTTP {status}: {text}"))
        }
    }
}

/// Status code out of a response start line ("HTTP/1.1 200 OK" -> 200).
fn parse_status(start_line: &str) -> io::Result<u16> {
    start_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad response status line"))
}
