//! Minimal HTTP/1.1 message framing.
//!
//! Just enough of RFC 7230 for this crate's API: start line, headers,
//! `Content-Length`-framed bodies and keep-alive.  No chunked encoding, no
//! TLS, no HTTP/2 — both peers are this workspace's own server and client,
//! plus anything curl-shaped.
//!
//! Parsing is buffer-first: each peer accumulates raw bytes per
//! connection and [`parse_frame`] splits complete messages off the front
//! without copying, so a message split across reads is never lost and
//! pipelined messages are handled for free.  The server and the
//! [`HttpClient`](crate::HttpClient) share this one parser.

use std::io;

/// Hard cap on the head (start line + headers) of a message.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a message body (snapshots of large instances are the
/// biggest legitimate payload).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Bytes a peer asks of its socket per read.
pub(crate) const READ_CHUNK: usize = 8 * 1024;

/// A zero-copy view of one HTTP/1.1 message parsed straight out of a
/// connection buffer: every field borrows the buffer, so a pipelined
/// burst parses without a single per-frame allocation.  The server
/// routes requests directly off these borrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The start line, e.g. `POST /v1/arrive HTTP/1.1`.
    pub start_line: &'a str,
    /// Whether the peer asked to close the connection after this message.
    pub close: bool,
    /// The body (empty when there was no `Content-Length`).
    pub body: &'a [u8],
}

/// Parse one complete message from the front of `buf` without copying.
///
/// Returns the frame plus the number of bytes it occupies; the caller
/// drains them once the frame is answered.  `Ok(None)` means the buffer
/// holds no complete message yet (keep reading).  Framing errors — the
/// head/body size caps, a non-UTF-8 head, a bad `Content-Length` — are
/// `InvalidData`, with the messages the server maps to 413
/// ([`is_too_large`]) or 400.
pub fn parse_frame(buf: &[u8]) -> io::Result<Option<(Frame<'_>, usize)>> {
    // A complete head (terminated by CRLFCRLF)?
    let head_end = match find_head_end(buf) {
        Some(end) if end > MAX_HEAD_BYTES => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "message head exceeds the size cap",
            ));
        }
        Some(end) => end,
        None if buf.len() > MAX_HEAD_BYTES => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "message head exceeds the size cap",
            ));
        }
        None => return Ok(None),
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let start_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty head"))?;
    let mut content_length = 0usize;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "body exceeds the size cap",
        ));
    }

    // The whole body, too?
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    let body = &buf[body_start..body_start + content_length];
    Ok(Some((
        Frame {
            start_line,
            close,
            body,
        },
        body_start + content_length,
    )))
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Whether a framing error is the head/body size cap (the server answers
/// those with 413 instead of the generic 400).
pub fn is_too_large(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::InvalidData && e.to_string().contains("size cap")
}

/// The reason phrase for the status codes this crate emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Append one serialized response to `out` (the server batches the
/// responses of a pipelined burst into a single write).
pub fn append_response(out: &mut Vec<u8>, status: u16, body: &[u8], keep_alive: bool) {
    append_response_typed(out, status, "application/json", body, keep_alive);
}

/// [`append_response`] with an explicit `Content-Type` (the metrics
/// endpoint serves Prometheus text, everything else JSON).  Built with
/// plain byte appends — no formatting machinery, no per-response
/// allocation: this runs once per request on the serving hot path.
pub fn append_response_typed(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, status as u64);
    out.push(b' ');
    out.extend_from_slice(reason_phrase(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(out, body.len() as u64);
    // Keep-alive is the HTTP/1.1 default — only announce the exception.
    // Header bytes are priced by the loopback write syscall on every
    // single response, so the hot path sends none it doesn't need.
    if !keep_alive {
        out.extend_from_slice(b"\r\nConnection: close");
    }
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Append `v` in decimal without going through the formatting machinery.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Append one serialized request to `out` (the client batches a
/// pipelined burst into a single write).
pub fn append_request(out: &mut Vec<u8>, method: &str, path: &str, body: &[u8]) {
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: rls-serve\r\nContent-Length: ");
    push_decimal(out, body.len() as u64);
    // Keep-alive is the HTTP/1.1 default; the header would only add
    // bytes to every request the server then has to read and parse.
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An owned copy of a [`Frame`], comparable across buffers.
    type Owned = (String, bool, Vec<u8>);

    /// Feed `chunks` one at a time into a growing buffer, splitting off
    /// every frame complete so far after each one — exactly how a peer
    /// reads a socket.  Returns the frames and the unconsumed tail.
    fn parse_chunks(chunks: &[&[u8]]) -> io::Result<(Vec<Owned>, Vec<u8>)> {
        let mut buf = Vec::new();
        let mut frames = Vec::new();
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            while let Some((frame, used)) = parse_frame(&buf)? {
                frames.push((
                    frame.start_line.to_string(),
                    frame.close,
                    frame.body.to_vec(),
                ));
                buf.drain(..used);
            }
        }
        Ok((frames, buf))
    }

    const PIPELINED: &[u8] = b"POST /v1/arrive HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}\
        GET /healthz HTTP/1.1\r\n\r\n\
        POST /v1/ring HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"source\": 1}\
        GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n";

    #[test]
    fn parses_requests_with_and_without_bodies() {
        let (frames, rest) = parse_chunks(&[
            b"GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /v1/arrive HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"bin\":3}",
        ])
        .unwrap();
        assert!(rest.is_empty());
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0, "GET /v1/stats HTTP/1.1");
        assert!(frames[0].2.is_empty());
        assert_eq!(frames[1].2, b"{\"bin\":3}");
        assert!(!frames[1].1);
    }

    #[test]
    fn split_and_pipelined_messages_both_work() {
        // Any byte split of a valid pipelined stream — one cut or two —
        // yields exactly the frames of the unsplit stream.
        let (whole, rest) = parse_chunks(&[PIPELINED]).unwrap();
        assert!(rest.is_empty());
        assert_eq!(whole.len(), 4);
        assert_eq!(whole[0].2, b"{}");
        assert_eq!(whole[1].0, "GET /healthz HTTP/1.1");
        assert_eq!(whole[2].2, b"{\"source\": 1}");
        assert!(whole[3].1 && !whole[2].1);
        let len = PIPELINED.len();
        for a in 0..=len {
            for b in a..=len {
                let chunks = [&PIPELINED[..a], &PIPELINED[a..b], &PIPELINED[b..]];
                let (frames, rest) = parse_chunks(&chunks).unwrap();
                assert_eq!(frames, whole, "cuts at {a}, {b}");
                assert!(rest.is_empty(), "cuts at {a}, {b}");
            }
        }
    }

    #[test]
    fn mid_message_eof_is_an_error() {
        // A truncated body never parses as a frame; the client reports
        // the peer closing on it as an unexpected EOF.
        let truncated = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}";
        let (frames, rest) = parse_chunks(&[truncated]).unwrap();
        assert!(frames.is_empty());
        assert_eq!(rest, truncated);

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            use std::io::{Read as _, Write as _};
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 256];
            let _ = stream.read(&mut request).unwrap();
            stream.write_all(truncated).unwrap();
            // Dropping the stream closes it mid-body.
        });
        let mut client = crate::HttpClient::connect(addr).unwrap();
        let err = client.request("GET", "/healthz", b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        server.join().unwrap();
    }

    #[test]
    fn oversized_heads_are_rejected() {
        let big = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES + 1)
        );
        // Even dribbled in small chunks, the head cap trips before the
        // terminator ever arrives.
        let chunks: Vec<&[u8]> = big.as_bytes().chunks(1000).collect();
        let err = parse_chunks(&chunks).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(is_too_large(&err));
    }

    #[test]
    fn parse_frame_is_incremental_and_zero_copy() {
        let full = b"POST /v1/arrive HTTP/1.1\r\nContent-Length: 9\r\nConnection: close\r\n\r\n{\"bin\":3}extra";
        // Every strict prefix short of the full message parses to "not
        // yet" — no false frames from split reads.
        let complete = full.len() - 5; // "extra" is pipelined surplus
        for cut in 0..complete {
            assert!(parse_frame(&full[..cut]).unwrap().is_none(), "cut {cut}");
        }
        let (frame, used) = parse_frame(full).unwrap().unwrap();
        assert_eq!(used, complete);
        assert_eq!(frame.start_line, "POST /v1/arrive HTTP/1.1");
        assert!(frame.close);
        assert_eq!(frame.body, b"{\"bin\":3}");
        // The borrows point into the original buffer: zero copies.
        assert_eq!(frame.body.as_ptr(), full[used - 9..].as_ptr());
    }

    #[test]
    fn parse_frame_enforces_the_same_size_caps() {
        let big_head = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES + 1)
        );
        let err = parse_frame(big_head.as_bytes()).unwrap_err();
        assert!(is_too_large(&err));
        // An oversized Content-Length is rejected from the head alone,
        // before any body bytes arrive.
        let big_body = format!(
            "POST /v1/restore HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = parse_frame(big_body.as_bytes()).unwrap_err();
        assert!(is_too_large(&err));
        let bad_len = b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        let err = parse_frame(bad_len).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!is_too_large(&err));
    }

    #[test]
    fn reason_phrases_cover_the_emitted_statuses() {
        for status in [200, 400, 404, 405, 409, 413, 500, 503] {
            assert!(!reason_phrase(status).is_empty());
        }
    }
}
