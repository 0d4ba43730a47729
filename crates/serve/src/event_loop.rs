//! The serve loop: one thread, nonblocking sockets, zero-copy parsing,
//! inline execution, and a bounded park when idle.
//!
//! The loop *is* the engine thread: every command parsed during a sweep
//! executes inline on the [`ServeCore`] it owns, so a pipelined burst
//! coalesces into one batch of engine calls with no thread hand-off and
//! exactly one buffered write-back per connection per sweep.
//!
//! **Idle.**  A sweep that moves no byte is idle.  After [`SPIN_SWEEPS`]
//! idle sweeps (yielding in between: a pipelined burst's next frames are
//! usually already in flight) the loop parks instead of polling:
//! * with connections open, it parks in **one blocking read** on the
//!   open, flushed connection that read most recently, bounded by
//!   [`PARK`].  The kernel wakes the loop the moment that connection's
//!   next request lands, and that request is answered before anything
//!   else — the lone-client wake path costs one read, not a sleep.  Any
//!   other connection (and a new one in the backlog) waits at most
//!   `PARK`: a park that times out is followed by a sweep that reads
//!   every connection and the listener, backoff or not, and a park that
//!   wakes is followed by spin sweeps that read them all anyway;
//! * with no connections, it blocks in `accept`; a client connecting, or
//!   [`HttpServer::shutdown`](crate::HttpServer::shutdown)'s self-connect,
//!   wakes it.
//!
//! Shutdown therefore waits at most `PARK` for a parked loop.
//!
//! **Determinism.**  Commands execute in sweep order: connections are
//! visited in accept order and each connection's frames in arrival order.
//! For a single-connection drive this is byte-stream order, so the
//! bit-equality suite against an offline core holds.  (Across
//! concurrently pipelining connections the interleaving depends on
//! arrival timing; the server promises no more.)  The engine is only
//! ever touched through [`execute`], so batching happens at command
//! granularity, never inside the RNG stream.

use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::core::ServeCore;
use crate::http::{self, READ_CHUNK};
use crate::metrics::{endpoint_index, ServeMetrics};
use crate::server::{
    elapsed_ns, execute, flight_coords, route, to_json, ErrorBody, Routed, MAX_BATCH,
    MAX_CONNECTIONS, PARK,
};
use crate::ServeError;

/// Consecutive idle sweeps before the loop stops spinning and parks.
const SPIN_SWEEPS: u32 = 64;

/// Sleep of an idle loop with connections but none to park on (every one
/// is closing or has output the peer is not reading).
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Cap on per-connection read backoff, in sweeps (see [`Conn::skip`]).
/// Must stay well under [`SPIN_SWEEPS`]: every skip expires before the
/// loop can conclude it is idle, so a backed-off connection is always
/// read at least once between its last byte and a park.
const MAX_READ_SKIP: u8 = 8;

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes (a frame may span many reads).
    buf: Vec<u8>,
    /// Serialized responses not yet fully written back.
    out: Vec<u8>,
    /// Write offset into `out`: a partial write resumes here next sweep.
    out_pos: usize,
    /// Sweeps to skip reading this connection.  A closed-loop client is
    /// silent from write-back until it has drained the whole burst, so
    /// re-reading it every sweep just burns an `EAGAIN` syscall per
    /// connection per sweep; consecutive dry reads back the connection
    /// off exponentially (2, 4, 8, 8, … sweeps, capped at
    /// [`MAX_READ_SKIP`]) and any successful read snaps it back to every
    /// sweep.
    skip: u8,
    /// Consecutive dry reads (drives the exponential backoff).
    dry_reads: u8,
    /// Sweep of the last read that returned bytes (picks the park target).
    last_read: u64,
    /// A `Connection: close` request (or a framing error) was answered:
    /// stop reading, flush `out`, then drop.  Pipelined requests behind
    /// the close are discarded.
    close_after: bool,
    /// The peer half-closed; answer whatever is already complete, then
    /// drop (a partial trailing frame is unanswerable either way).
    eof: bool,
    /// Finished — reaped at the end of the sweep.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::with_capacity(READ_CHUNK),
            out: Vec::with_capacity(1024),
            out_pos: 0,
            skip: 0,
            dry_reads: 0,
            last_read: 0,
            close_after: false,
            eof: false,
            dead: false,
        }
    }

    /// Everything buffered for this connection has been written back.
    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Still reading requests, with nothing left to write: the only kind
    /// of connection whose next byte is worth blocking for.
    fn parkable(&self) -> bool {
        !self.close_after && !self.eof && !self.dead && self.flushed()
    }
}

/// The serve loop: accept burst, pump every connection, reap the dead,
/// park when idle.  Returns the core at shutdown.
pub(crate) fn run(mut core: ServeCore, listener: TcpListener, stop: Arc<AtomicBool>) -> ServeCore {
    let metrics = core.metrics().cloned();
    let mut conns: Vec<Conn> = Vec::new();
    let mut sweep = 0u64;
    let mut idle_sweeps = 0u32;
    let mut accept_skip = 0u8;
    // Acquire pairs with the shutdown path's Release store.
    while !stop.load(Ordering::Acquire) {
        sweep += 1;
        let mut progressed = false;

        // Accept burst: drain the backlog without blocking.  Like the
        // per-connection read backoff, a dry accept backs off for a few
        // sweeps (the backlog queues arrivals meanwhile) so a busy loop
        // is not paying one `EAGAIN` accept per sweep.
        if accept_skip > 0 {
            accept_skip -= 1;
        } else if accept_burst(&listener, &mut conns) {
            progressed = true;
        } else {
            accept_skip = MAX_READ_SKIP;
        }

        // Pump every connection in accept order (stable order is what
        // makes a single-connection drive deterministic).
        for conn in &mut conns {
            progressed |= pump(conn, sweep, &mut core, metrics.as_deref());
        }
        conns.retain(|c| !c.dead);

        if progressed {
            idle_sweeps = 0;
            continue;
        }
        idle_sweeps = idle_sweeps.saturating_add(1);
        if idle_sweeps <= SPIN_SWEEPS {
            std::thread::yield_now();
            continue;
        }
        if conns.is_empty() {
            if let Some(stream) = accept_blocking(&listener) {
                admit(stream, &mut conns);
            }
        } else {
            let target = conns
                .iter_mut()
                .filter(|c| c.parkable())
                .max_by_key(|c| c.last_read);
            match target {
                Some(conn) => {
                    if park(conn, sweep) {
                        // Answer the request that woke the loop before
                        // anything else; the spin sweeps that follow read
                        // every other connection well within `PARK`.
                        answer_buffered(conn, &mut core, metrics.as_deref());
                        flush(conn, metrics.as_deref());
                        idle_sweeps = 0;
                        continue;
                    }
                }
                None => std::thread::sleep(IDLE_SLEEP),
            }
        }
        // The park timed out: the next sweep looks at every connection
        // and the listener, so nobody waits out a backoff on top of it.
        accept_skip = 0;
        for conn in &mut conns {
            conn.skip = 0;
        }
    }
    core
}

/// Accept until the backlog is dry; returns whether anything arrived.
fn accept_burst(listener: &TcpListener, conns: &mut Vec<Conn>) -> bool {
    let mut accepted = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                admit(stream, conns);
                accepted = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // `WouldBlock` ends the burst; any other error (say, out of
            // file descriptors) leaves the connection in the backlog for
            // a later sweep.
            Err(_) => return accepted,
        }
    }
}

/// Block in `accept` (the loop has no connections to park on) until a
/// client — or a shutdown's self-connect — arrives.
fn accept_blocking(listener: &TcpListener) -> Option<TcpStream> {
    if listener.set_nonblocking(false).is_err() {
        std::thread::sleep(IDLE_SLEEP);
        return None;
    }
    let accepted = listener.accept();
    // Back to nonblocking for the sweeps' accept bursts.
    let _ = listener.set_nonblocking(true);
    match accepted {
        Ok((stream, _)) => Some(stream),
        Err(_) => {
            // Interrupted, or a persistent error: never spin on it.
            std::thread::sleep(IDLE_SLEEP);
            None
        }
    }
}

/// Take in one accepted connection, or refuse it past
/// [`MAX_CONNECTIONS`].
fn admit(stream: TcpStream, conns: &mut Vec<Conn>) {
    if conns.len() >= MAX_CONNECTIONS {
        refuse(stream);
        return;
    }
    // The park timeout is set once here: it only bounds reads made in
    // blocking mode, which is exactly the park.
    if stream.set_nonblocking(true).is_err() || stream.set_read_timeout(Some(PARK)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    conns.push(Conn::new(stream));
}

/// Answer `503` with `Connection: close` and drop the connection.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    // Take in whatever request is already here, so closing the socket
    // sends a FIN rather than a reset that could beat the 503 to the
    // client.
    let mut sink = [0u8; READ_CHUNK];
    let _ = stream.read(&mut sink);
    let body = to_json(&ErrorBody {
        error: format!("connection limit ({MAX_CONNECTIONS}) reached"),
    });
    let mut out = Vec::with_capacity(128 + body.len());
    http::append_response(&mut out, 503, body.as_bytes(), false);
    // A fresh socket's send buffer takes the whole reply.
    let _ = stream.write_all(&out);
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// Park: one blocking read on `conn`, bounded by [`PARK`], into the
/// connection's buffer.  Returns whether a request's bytes arrived.
fn park(conn: &mut Conn, sweep: u64) -> bool {
    if conn.stream.set_nonblocking(false).is_err() {
        conn.dead = true;
        return false;
    }
    let mut chunk = [0u8; READ_CHUNK];
    let woke = matches!(read_once(conn, &mut chunk), Fill::Data(_));
    if conn.stream.set_nonblocking(true).is_err() {
        conn.dead = true;
        return false;
    }
    if woke {
        conn.last_read = sweep;
    }
    conn.skip = 0;
    conn.dry_reads = 0;
    woke
}

/// One connection, one sweep: read what's there, answer every complete
/// frame, flush what's pending.  Returns whether anything happened.
fn pump(conn: &mut Conn, sweep: u64, core: &mut ServeCore, metrics: Option<&ServeMetrics>) -> bool {
    let mut progressed = false;
    // Backpressure: a connection whose replies are still unwritten is not
    // read further until the peer drains them.
    if !conn.close_after && !conn.eof && conn.flushed() {
        if conn.skip > 0 {
            conn.skip -= 1;
        } else if read_burst(conn) {
            conn.dry_reads = 0;
            conn.last_read = sweep;
            progressed = true;
        } else if !conn.dead {
            conn.dry_reads = conn.dry_reads.saturating_add(1);
            conn.skip = (1u8 << conn.dry_reads.min(3)).min(MAX_READ_SKIP);
        }
    }
    let answered = if !conn.close_after && !conn.buf.is_empty() {
        answer_buffered(conn, core, metrics)
    } else {
        false
    };
    progressed |= answered;
    progressed |= flush(conn, metrics);
    // Drop once drained: after an answered close, or after EOF once no
    // complete frame remains (`!answered` — a trailing partial frame is
    // dropped).
    if conn.flushed() && (conn.close_after || (conn.eof && !answered)) {
        conn.dead = true;
    }
    progressed
}

/// What one `read` on a connection produced.
enum Fill {
    /// This many bytes, appended to the connection's buffer.
    Data(usize),
    /// The peer closed its side (`conn.eof` is set).
    Eof,
    /// Nothing yet: `EAGAIN` when nonblocking, the timeout when parked.
    Dry,
    /// The connection is broken (`conn.dead` is set).
    Failed,
}

/// One `read` into the connection's buffer.
fn read_once(conn: &mut Conn, chunk: &mut [u8]) -> Fill {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.eof = true;
                return Fill::Eof;
            }
            Ok(k) => {
                conn.buf.extend_from_slice(&chunk[..k]);
                return Fill::Data(k);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Fill::Dry;
            }
            Err(_) => {
                conn.dead = true;
                return Fill::Failed;
            }
        }
    }
}

/// Nonblocking reads until the socket runs dry (or EOF / error); returns
/// whether anything arrived.
fn read_burst(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; READ_CHUNK];
    let mut progressed = false;
    loop {
        match read_once(conn, &mut chunk) {
            Fill::Data(k) if k == chunk.len() => progressed = true,
            Fill::Data(_) | Fill::Eof => return true,
            Fill::Dry | Fill::Failed => return progressed,
        }
    }
}

/// Parse, route and execute every complete buffered frame (up to
/// [`MAX_BATCH`]), appending responses to
/// the connection's write buffer.  Zero-copy: frames borrow `conn.buf`,
/// which is drained once after the burst.
fn answer_buffered(conn: &mut Conn, core: &mut ServeCore, metrics: Option<&ServeMetrics>) -> bool {
    let mut consumed = 0usize;
    let mut answered = 0usize;
    while answered < MAX_BATCH && !conn.close_after {
        let (frame, used) = match http::parse_frame(&conn.buf[consumed..]) {
            Ok(Some(hit)) => hit,
            Ok(None) => break,
            Err(e) => {
                // Framing errors: size caps answer 413, everything else
                // 400, then close.  The rest of the buffer is poisoned —
                // discard it.
                let status = if http::is_too_large(&e) { 413 } else { 400 };
                let body = format!("{{\"error\": {:?}}}", e.to_string());
                http::append_response(&mut conn.out, status, body.as_bytes(), false);
                conn.close_after = true;
                consumed = conn.buf.len();
                answered += 1;
                break;
            }
        };
        let keep_alive = !frame.close;
        if frame.close {
            conn.close_after = true;
        }
        answer_frame(&frame, keep_alive, &mut conn.out, core, metrics);
        consumed += used;
        answered += 1;
    }
    if consumed > 0 {
        conn.buf.drain(..consumed);
    }
    answered > 0
}

/// Route one frame and execute it inline, appending the response.  With
/// no channel between parse and apply, the queue stage is identically
/// zero, and is recorded as such so the stage histogram stays complete.
fn answer_frame(
    frame: &http::Frame<'_>,
    keep_alive: bool,
    out: &mut Vec<u8>,
    core: &mut ServeCore,
    metrics: Option<&ServeMetrics>,
) {
    let parse_start = metrics.map(|_| Instant::now());
    let mut parts = frame.start_line.split_ascii_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        let e = ServeError::bad_request("bad request line");
        if let Some(m) = metrics {
            m.record_request(endpoint_index(""), e.status);
        }
        append_error(out, &e, keep_alive);
        return;
    };
    let endpoint = endpoint_index(path);
    if let Some(m) = metrics {
        m.request_bytes
            .add(0, (frame.start_line.len() + frame.body.len()) as u64);
    }
    let routed = route(method, path, frame.body);
    if let (Some(m), Some(start)) = (metrics, parse_start) {
        m.stage_parse_ns.record(elapsed_ns(start));
    }
    match routed {
        Ok(Routed::Engine(cmd)) => {
            let apply_start = Instant::now();
            let reply = match panic::catch_unwind(AssertUnwindSafe(|| execute(core, &cmd))) {
                Ok(reply) => reply,
                Err(cause) => {
                    // Post-mortem: log the fatal command, dump the
                    // recorder, then let the panic end the loop.
                    if let Some(m) = metrics {
                        let (kind, a, b) = flight_coords(&cmd);
                        m.flight.record(kind, a, b, 0, elapsed_ns(apply_start));
                        eprintln!("event loop panicked mid-command; flight recorder dump:");
                        eprintln!("{}", m.flight_json());
                    }
                    panic::resume_unwind(cause);
                }
            };
            if let Some(m) = metrics {
                let apply_ns = elapsed_ns(apply_start);
                m.stage_queue_ns.record(0);
                m.stage_apply_ns.record(apply_ns);
                let (kind, a, b) = flight_coords(&cmd);
                m.flight.record(kind, a, b, 0, apply_ns);
            }
            let status = match &reply {
                Ok(_) => 200,
                Err(e) => e.status,
            };
            if let Some(m) = metrics {
                m.record_request(endpoint, status);
            }
            match reply {
                Ok(body) => http::append_response(out, 200, body.as_bytes(), keep_alive),
                Err(e) => append_error(out, &e, keep_alive),
            }
        }
        Ok(Routed::Metrics) => match metrics {
            Some(m) => {
                m.record_request(endpoint, 200);
                http::append_response_typed(
                    out,
                    200,
                    "text/plain; version=0.0.4",
                    m.render_prometheus().as_bytes(),
                    keep_alive,
                );
            }
            None => append_error(out, &ServeError::not_found(path), keep_alive),
        },
        Ok(Routed::Flight) => match metrics {
            Some(m) => {
                m.record_request(endpoint, 200);
                http::append_response_typed(
                    out,
                    200,
                    "application/json",
                    m.flight_json().as_bytes(),
                    keep_alive,
                );
            }
            None => append_error(out, &ServeError::not_found(path), keep_alive),
        },
        Err(e) => {
            if let Some(m) = metrics {
                m.record_request(endpoint, e.status);
            }
            append_error(out, &e, keep_alive);
        }
    }
}

/// Serialize one error reply (`{"error": ...}`).
fn append_error(out: &mut Vec<u8>, e: &ServeError, keep_alive: bool) {
    let body = to_json(&ErrorBody {
        error: e.message.clone(),
    });
    http::append_response(out, e.status, body.as_bytes(), keep_alive);
}

/// Write as much pending output as the socket accepts; partial writes
/// park at `out_pos` and resume next sweep.
fn flush(conn: &mut Conn, metrics: Option<&ServeMetrics>) -> bool {
    if conn.flushed() {
        return false;
    }
    let write_start = metrics.map(|_| Instant::now());
    let mut written = 0usize;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(k) => {
                conn.out_pos += k;
                written += k;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if written > 0 {
        if let (Some(m), Some(start)) = (metrics, write_start) {
            m.stage_write_ns.record(elapsed_ns(start));
            m.response_bytes.add(0, written as u64);
        }
    }
    if conn.flushed() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    written > 0
}
