//! TCP transport: length-prefixed frames over real sockets.
//!
//! This is the deployment transport — the overlay network actually
//! crosses process and host boundaries, exactly as the original
//! MRNet's socket layer does. Each frame is a `u32` little-endian
//! length followed by that many payload bytes. Each connection's
//! reader thread delivers inbound frames itself: onto a bounded pull
//! queue for `recv`/`recv_timeout`, or, once the receive side is handed
//! to an event loop ([`Connection::deliver_to`]), straight into that
//! loop's sink — one thread handoff per hop.
//!
//! # Send pipeline
//!
//! Each connection owns a dedicated writer thread fed by a bounded
//! queue of encoded frames, so [`Connection::send`] is an enqueue, not
//! a socket write: a peer that stops reading exerts backpressure only
//! on its own queue, never on the caller's event loop or on sends to
//! sibling connections (until the queue itself fills — see
//! [`SEND_QUEUE_ENV`]). The writer drains the queue with a single
//! vectored write per wake-up — length prefix and payload of every
//! queued frame in one syscall, no intermediate copy, no per-frame
//! flush — and owns failure detection for the send direction.
//!
//! # Failure detection
//!
//! The reader thread classifies how a connection ended and records a
//! *death note*; the receive side surfaces it to callers as its end
//! (the pull methods' error, or the sink's final `Err`):
//!
//! - EOF at a frame boundary → [`TransportError::Closed`] (orderly).
//! - EOF mid-frame, socket error, or corrupt length prefix →
//!   [`TransportError::PeerGone`] with a diagnostic reason.
//! - With heartbeats enabled (`MRNET_HEARTBEAT_SECS`), a peer silent
//!   for three intervals → [`TransportError::PeerGone`] even when the
//!   socket never reports an error (half-open connections, frozen
//!   peers). Heartbeats are `u32::MAX` length prefixes carrying no
//!   payload, invisible to the frame stream.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;

use crate::connection::{
    BoxedConnection, BoxedListener, ConnCounters, ConnStats, Connection, FrameSink, Listener,
};
use crate::error::{Result, TransportError};
use crate::inlet::Inlet;

/// Maximum accepted frame size; protects against corrupt length
/// prefixes.
pub const MAX_FRAME: u32 = 256 << 20;

/// Environment variable enabling keepalive heartbeats: a positive
/// float number of seconds between beats. Unset or non-positive
/// disables them (the default — EOF detection is then the only death
/// signal, which suffices for peers whose kernel closes their sockets).
pub const HEARTBEAT_ENV: &str = "MRNET_HEARTBEAT_SECS";

/// Length-prefix value reserved for heartbeat markers. Distinguishable
/// from real frames because it exceeds [`MAX_FRAME`].
const HEARTBEAT_MARKER: u32 = u32::MAX;

/// A peer is declared dead after this many silent heartbeat intervals.
const HEARTBEAT_MISSES: u32 = 3;

/// How many inbound frames may queue for the pull methods before the
/// reader thread applies back-pressure to the socket.
const INBOUND_DEPTH: usize = 1024;

/// Environment variable overriding the outbound send-queue depth in
/// frames (default [`SEND_QUEUE_DEPTH`]). A blocking send only stalls
/// the caller once this many frames are queued behind the writer
/// thread; `try_send` instead fails with
/// [`TransportError::WouldBlock`] at that point.
pub const SEND_QUEUE_ENV: &str = "MRNET_SEND_QUEUE";

/// Default outbound send-queue depth, in frames.
const SEND_QUEUE_DEPTH: usize = 1024;

/// Upper bound on frames coalesced into one vectored write. Caps the
/// iovec array (well under the kernel's `IOV_MAX`, typically 1024:
/// each frame contributes a length-prefix slice and a payload slice).
const COALESCE_MAX: usize = 64;

fn send_queue_depth() -> usize {
    std::env::var(SEND_QUEUE_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&d| d > 0)
        .unwrap_or(SEND_QUEUE_DEPTH)
}

/// Shared slot where the reader and writer threads record why the
/// connection died; the first diagnosis wins.
type DeathNote = Arc<Mutex<Option<TransportError>>>;

fn heartbeat_interval() -> Option<Duration> {
    let raw = std::env::var(HEARTBEAT_ENV).ok()?;
    let secs: f64 = raw.trim().parse().ok()?;
    if secs > 0.0 && secs.is_finite() {
        Some(Duration::from_secs_f64(secs))
    } else {
        None
    }
}

/// One end of a TCP connection carrying length-prefixed frames.
pub struct TcpConnection {
    outbound: Sender<Bytes>,
    /// The receive side; its counters are this end's.
    inlet: Arc<Inlet>,
    peer: String,
    death: DeathNote,
}

struct ReaderLoop {
    stream: TcpStream,
    inlet: Arc<Inlet>,
    death: DeathNote,
    /// Silence after which the peer is declared dead. `Some` only with
    /// heartbeats, when a socket read timeout lets the reader poll it.
    silence_limit: Option<Duration>,
    last_heard: Instant,
}

impl ReaderLoop {
    fn run(mut self) {
        if let Err(reason) = self.read_frames() {
            // First classification wins: the writer thread may already
            // have recorded why the peer died, and its diagnosis
            // precedes the EOF our own shutdown then feeds this reader.
            self.death.lock().get_or_insert(reason);
        }
        let reason = self.death.lock().clone().unwrap_or(TransportError::Closed);
        self.inlet.end(reason);
    }

    /// Delivers frames until an orderly close (EOF at a frame boundary)
    /// or until the receiver is gone; any other end is a peer death.
    fn read_frames(&mut self) -> Result<()> {
        loop {
            let mut len_buf = [0u8; 4];
            if !self.fill(&mut len_buf)? {
                return Ok(()); // clean close
            }
            let len = u32::from_le_bytes(len_buf);
            if len == HEARTBEAT_MARKER {
                continue; // keepalive only; never surfaced as a frame
            }
            if len > MAX_FRAME {
                return Err(TransportError::PeerGone(format!(
                    "frame length {len} exceeds limit {MAX_FRAME}"
                )));
            }
            let mut payload = BytesMut::zeroed(len as usize);
            if !self.fill(&mut payload)? {
                return Err(TransportError::PeerGone(
                    "connection lost mid-frame".to_owned(),
                ));
            }
            if !self.inlet.push(payload.freeze()) {
                return Ok(()); // the receiver is gone
            }
        }
    }

    /// Fills `buf` from the socket: `Ok(false)` on EOF before its first
    /// byte. EOF after it, a socket error, or silence beyond the
    /// heartbeat limit is a peer death.
    fn fill(&mut self, buf: &mut [u8]) -> Result<bool> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) if filled == 0 => return Ok(false),
                Ok(0) => {
                    return Err(TransportError::PeerGone(
                        "connection lost mid-frame".to_owned(),
                    ))
                }
                Ok(n) => {
                    filled += n;
                    self.last_heard = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    let limit = self
                        .silence_limit
                        .expect("read timeouts only with heartbeats");
                    if self.last_heard.elapsed() > limit {
                        return Err(TransportError::PeerGone(format!(
                            "no data or heartbeat for {limit:?}"
                        )));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::PeerGone(e.to_string())),
            }
        }
        Ok(true)
    }
}

fn spawn(name: &str, body: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(body)
        .expect("spawn tcp connection thread");
}

/// Writes a list of byte segments with as few vectored-write syscalls
/// as possible (one, absent partial writes), resuming after partials.
fn write_segments(stream: &mut TcpStream, segments: &[&[u8]]) -> std::io::Result<()> {
    let mut seg = 0; // first segment with unwritten bytes
    let mut off = 0; // bytes of `segments[seg]` already written
    while seg < segments.len() {
        let slices: Vec<IoSlice<'_>> = std::iter::once(IoSlice::new(&segments[seg][off..]))
            .chain(segments[seg + 1..].iter().map(|s| IoSlice::new(s)))
            .collect();
        let mut n = match stream.write_vectored(&slices) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Advance (seg, off) past the bytes just written; empty
        // segments fall through without a syscall of their own.
        while seg < segments.len() {
            let left = segments[seg].len() - off;
            if n < left {
                off += n;
                break;
            }
            n -= left;
            seg += 1;
            off = 0;
        }
    }
    Ok(())
}

/// Writes `frames` to the socket, each preceded by its length prefix,
/// coalesced into a single vectored write.
fn write_frames(stream: &mut TcpStream, frames: &[Bytes]) -> std::io::Result<()> {
    let headers: Vec<[u8; 4]> = frames
        .iter()
        .map(|f| (f.len() as u32).to_le_bytes())
        .collect();
    let mut segments: Vec<&[u8]> = Vec::with_capacity(frames.len() * 2);
    for (h, f) in headers.iter().zip(frames) {
        segments.push(h);
        segments.push(f);
    }
    write_segments(stream, &segments)
}

/// The dedicated per-connection writer: drains the outbound queue,
/// coalescing everything queued (up to [`COALESCE_MAX`]) into one
/// vectored write, emits keepalive markers when idle, and records the
/// death note when the send direction fails.
struct WriterLoop {
    stream: TcpStream,
    rx: Receiver<Bytes>,
    death: DeathNote,
    counters: Arc<ConnCounters>,
    heartbeat: Option<Duration>,
}

impl WriterLoop {
    fn die(&self, reason: TransportError) {
        self.death.lock().get_or_insert(reason);
    }

    /// Blocks for the next frame, emitting heartbeats while idle.
    /// `None` once every sender has dropped (all queued frames were
    /// already drained by then: the channel only disconnects empty).
    fn next_frame(&mut self) -> Option<Bytes> {
        loop {
            let interval = match self.heartbeat {
                Some(interval) => interval,
                None => return self.rx.recv().ok(),
            };
            match self.rx.recv_timeout(interval) {
                Ok(frame) => return Some(frame),
                Err(RecvTimeoutError::Timeout) => {
                    // Idle: keep the peer's silence detector fed. A
                    // failure here is left for the next data write (or
                    // the reader) to classify.
                    if self
                        .stream
                        .write_all(&HEARTBEAT_MARKER.to_le_bytes())
                        .is_err()
                    {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    fn run(mut self) {
        let mut frames = Vec::with_capacity(COALESCE_MAX);
        while let Some(first) = self.next_frame() {
            frames.clear();
            frames.push(first);
            while frames.len() < COALESCE_MAX {
                match self.rx.try_recv() {
                    Ok(f) => frames.push(f),
                    Err(_) => break,
                }
            }
            if let Err(e) = write_frames(&mut self.stream, &frames) {
                self.die(TransportError::PeerGone(format!("send failed: {e}")));
                break;
            }
            // Transmission accounting happens here, after the bytes
            // actually reached the socket — frames queued toward a
            // peer that dies first are never counted as sent.
            for f in &frames {
                self.counters.note_sent(f.len());
            }
            if frames.len() > 1 {
                self.counters.note_coalesced(frames.len() as u64 - 1);
            }
        }
        // Both exit paths end the connection: shutting down the read
        // direction pops our own reader thread out of its blocking
        // read, and the write direction sends the peer its EOF.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl TcpConnection {
    fn from_stream(stream: TcpStream) -> Result<TcpConnection> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_owned());
        let reader_stream = stream.try_clone()?;
        let heartbeat = heartbeat_interval();
        if let Some(interval) = heartbeat {
            // Poll often enough to notice silence well before the
            //3-interval deadline.
            reader_stream.set_read_timeout(Some((interval / 2).max(Duration::from_millis(5))))?;
        }
        let inlet = Arc::new(Inlet::new(INBOUND_DEPTH, Arc::default()));
        let death: DeathNote = Arc::new(Mutex::new(None));
        let reader = ReaderLoop {
            stream: reader_stream,
            inlet: inlet.clone(),
            death: death.clone(),
            silence_limit: heartbeat.map(|interval| interval * HEARTBEAT_MISSES),
            last_heard: Instant::now(),
        };
        spawn("mrnet-tcp-reader", move || reader.run());
        let (out_tx, out_rx) = bounded(send_queue_depth());
        let writer = WriterLoop {
            stream,
            rx: out_rx,
            death: death.clone(),
            counters: inlet.counters.clone(),
            heartbeat,
        };
        spawn("mrnet-tcp-writer", move || writer.run());
        Ok(TcpConnection {
            outbound: out_tx,
            inlet,
            peer,
            death,
        })
    }

    /// Connects to a listening MRNet process.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpConnection> {
        let stream = TcpStream::connect(addr)?;
        TcpConnection::from_stream(stream)
    }

    /// Why the connection ended: the death note recorded by whichever
    /// of the reader/writer threads diagnosed the failure first,
    /// defaulting to an orderly [`TransportError::Closed`].
    fn death_reason(&self) -> TransportError {
        self.death.lock().clone().unwrap_or(TransportError::Closed)
    }
}

impl Drop for TcpConnection {
    fn drop(&mut self) {
        // Releases a reader waiting on a full pull queue. Dropping the
        // outbound sender next disconnects the writer's channel; the
        // writer drains whatever was already queued (in-flight shutdown
        // frames must still reach the peer) and then shuts the socket
        // down in both directions — giving the peer its EOF and popping
        // our own reader thread out of its blocking read.
        self.inlet.close();
    }
}

impl Connection for TcpConnection {
    fn send(&self, frame: Bytes) -> Result<()> {
        // Fast path: enqueue without blocking. Once the bounded queue
        // is full, count the stall and fall back to a blocking send —
        // that is the backpressure contract of `send`.
        match self.outbound.try_send(frame) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(frame)) => {
                self.inlet.counters.note_stall();
                self.outbound.send(frame).map_err(|_| self.death_reason())
            }
            Err(TrySendError::Disconnected(_)) => Err(self.death_reason()),
        }
    }

    fn try_send(&self, frame: Bytes) -> Result<()> {
        match self.outbound.try_send(frame) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                self.inlet.counters.note_stall();
                Err(TransportError::WouldBlock)
            }
            Err(TrySendError::Disconnected(_)) => Err(self.death_reason()),
        }
    }

    fn recv(&self) -> Result<Bytes> {
        Ok(self
            .inlet
            .pull(None)?
            .expect("an untimed pull yields a frame"))
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Bytes>> {
        self.inlet.pull(Some(timeout))
    }

    fn deliver_to(&self, sink: FrameSink) {
        self.inlet.hand_over(sink);
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn stats(&self) -> ConnStats {
        self.inlet.counters.snapshot_with_depth(self.outbound.len())
    }
}

/// A bound TCP listener accepting MRNet connections.
pub struct TcpTransportListener {
    listener: TcpListener,
    addr: String,
}

impl TcpTransportListener {
    /// Binds to `addr`; use port 0 to let the OS pick (the chosen
    /// address is available via [`Listener::addr`], which is how leaf
    /// processes publish their rendezvous points in mode-2
    /// instantiation).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<TcpTransportListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?.to_string();
        Ok(TcpTransportListener { listener, addr })
    }

    /// Boxes this listener.
    pub fn boxed(self) -> BoxedListener {
        Box::new(self)
    }
}

impl Listener for TcpTransportListener {
    fn accept(&self) -> Result<BoxedConnection> {
        let (stream, _) = self.listener.accept()?;
        Ok(Box::new(TcpConnection::from_stream(stream)?))
    }

    fn addr(&self) -> String {
        self.addr.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inlet::{channel_sink, received};

    fn pair() -> (TcpConnection, BoxedConnection) {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let client = TcpConnection::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn frames_round_trip() {
        let (client, server) = pair();
        client.send(Bytes::from_static(b"hello overlay")).unwrap();
        assert_eq!(server.recv().unwrap(), Bytes::from_static(b"hello overlay"));
        server.send(Bytes::from_static(b"ack")).unwrap();
        assert_eq!(client.recv().unwrap(), Bytes::from_static(b"ack"));
    }

    #[test]
    fn empty_frames_allowed() {
        let (client, server) = pair();
        client.send(Bytes::new()).unwrap();
        assert_eq!(server.recv().unwrap(), Bytes::new());
    }

    #[test]
    fn large_frame() {
        let (client, server) = pair();
        let big = Bytes::from(vec![0xAB; 1 << 20]);
        client.send(big.clone()).unwrap();
        assert_eq!(server.recv().unwrap(), big);
    }

    #[test]
    fn many_ordered_frames() {
        let (client, server) = pair();
        for i in 0..200u32 {
            client
                .send(Bytes::copy_from_slice(&i.to_le_bytes()))
                .unwrap();
        }
        for i in 0..200u32 {
            let f = server.recv().unwrap();
            assert_eq!(u32::from_le_bytes(f[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn stats_count_payload_bytes() {
        let (client, server) = pair();
        client.send(Bytes::from_static(b"abcd")).unwrap();
        assert_eq!(server.recv().unwrap().len(), 4);
        // Send accounting happens on the writer thread after the bytes
        // hit the socket; poll briefly for it to land.
        let deadline = Instant::now() + Duration::from_secs(5);
        let cs = loop {
            let cs = client.stats();
            if cs.frames_sent == 1 || Instant::now() > deadline {
                break cs;
            }
            std::thread::yield_now();
        };
        assert_eq!(cs.frames_sent, 1);
        assert_eq!(cs.bytes_sent, 4); // payload only, not the length prefix
        let ss = server.stats();
        assert_eq!(ss.frames_recv, 1);
        assert_eq!(ss.bytes_recv, 4);
    }

    #[test]
    fn close_detected() {
        let (client, server) = pair();
        drop(client);
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn timeout_and_try_recv() {
        let (client, server) = pair();
        assert_eq!(server.recv_timeout(Duration::ZERO).unwrap(), None);
        assert_eq!(
            server.recv_timeout(Duration::from_millis(10)).unwrap(),
            None
        );
        client.send(Bytes::from_static(b"x")).unwrap();
        assert_eq!(
            server.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Bytes::from_static(b"x"))
        );
    }

    #[test]
    fn connect_refused_is_io_error() {
        // Bind then immediately drop to get a (very likely) dead port.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = TcpConnection::connect(dead).err().expect("must fail");
        assert!(matches!(err, TransportError::Io(_)));
    }

    #[test]
    fn concurrent_senders_interleave_whole_frames() {
        let (client, server) = pair();
        let client = std::sync::Arc::new(client);
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let c = client.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u8 {
                    c.send(Bytes::from(vec![t, i])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = [0u8; 4];
        for _ in 0..200 {
            let f = server.recv().unwrap();
            assert_eq!(f.len(), 2);
            // Frames from each thread arrive in order.
            assert_eq!(f[1], seen[f[0] as usize]);
            seen[f[0] as usize] += 1;
        }
        assert_eq!(seen, [50; 4]);
    }

    /// A raw peer that dies mid-frame is classified `PeerGone`, not a
    /// clean close: the survivor can tell crash from shutdown.
    #[test]
    fn midframe_death_is_peer_gone() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        // Claim a 100-byte frame but deliver only 10 bytes, then die.
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
        raw.flush().unwrap();
        drop(raw);
        let err = server.recv().unwrap_err();
        assert!(
            matches!(err, TransportError::PeerGone(_)),
            "expected PeerGone, got {err:?}"
        );
    }

    /// A corrupt length prefix (beyond MAX_FRAME) marks the peer dead
    /// rather than silently dropping the connection.
    #[test]
    fn oversized_length_is_peer_gone() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        raw.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        raw.flush().unwrap();
        let err = server.recv().unwrap_err();
        match err {
            TransportError::PeerGone(reason) => {
                assert!(reason.contains("exceeds limit"), "reason: {reason}")
            }
            other => panic!("expected PeerGone, got {other:?}"),
        }
    }

    /// N frames handed to one coalesced vectored write arrive as N
    /// intact frames — framing survives the single-syscall path.
    #[test]
    fn coalesced_write_preserves_framing() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        let frames: Vec<Bytes> = (0..10u8)
            .map(|i| Bytes::from(vec![i; i as usize * 37]))
            .collect();
        write_frames(&mut raw, &frames).unwrap();
        for f in &frames {
            assert_eq!(&server.recv().unwrap(), f);
        }
    }

    /// Partial-write resumption in `write_segments` never drops or
    /// reorders bytes even when segments are tiny and numerous.
    #[test]
    fn segmented_write_is_byte_exact() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        // One big frame expressed as many odd-sized segments, with the
        // length prefix up front and an empty segment mixed in.
        let body: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let header = (body.len() as u32).to_le_bytes();
        let mut segments: Vec<&[u8]> = vec![&header, &[]];
        segments.extend(body.chunks(7));
        write_segments(&mut raw, &segments).unwrap();
        assert_eq!(server.recv().unwrap(), Bytes::from(body));
    }

    /// Buffered frames are still delivered after the peer dies; the
    /// death reason only surfaces once the queue drains.
    #[test]
    fn buffered_frames_before_death() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let mut raw = TcpStream::connect(&addr).unwrap();
        let server = listener.accept().unwrap();
        // One complete frame, then a truncated one.
        raw.write_all(&3u32.to_le_bytes()).unwrap();
        raw.write_all(b"abc").unwrap();
        raw.write_all(&50u32.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        drop(raw);
        assert_eq!(server.recv().unwrap(), Bytes::from_static(b"abc"));
        assert!(matches!(
            server.recv().unwrap_err(),
            TransportError::PeerGone(_)
        ));
    }

    fn numbered(i: u32) -> Bytes {
        Bytes::copy_from_slice(&i.to_le_bytes())
    }

    /// Waits until the reader has queued `frames` frames for the pull
    /// methods and, with `ended`, recorded the end.
    fn await_queued(conn: &TcpConnection, frames: usize, ended: bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while conn.inlet.queued_and_ended() != (frames, ended) {
            assert!(
                Instant::now() < deadline,
                "reader never queued {frames} frames"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn handover_delivers_queued_frames_first_then_live_then_one_end() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let client = TcpConnection::connect(listener.addr()).unwrap();
        let (stream, _) = listener.listener.accept().unwrap();
        let server = TcpConnection::from_stream(stream).unwrap();
        for i in 0..3 {
            client.send(numbered(i)).unwrap();
        }
        await_queued(&server, 3, false);
        let (sink, rx) = channel_sink();
        server.deliver_to(sink);
        for i in 3..6 {
            client.send(numbered(i)).unwrap();
        }
        drop(client);
        let mut want: Vec<Result<Bytes>> = (0..6).map(|i| Ok(numbered(i))).collect();
        want.push(Err(TransportError::Closed));
        assert_eq!(received(&rx), want);
    }

    /// Frames racing the handover keep their order: the sink is
    /// installed while the peer is mid-stream.
    #[test]
    fn handover_mid_stream_keeps_order() {
        let (client, server) = pair();
        let sender = std::thread::spawn(move || {
            for i in 0..5_000 {
                client.send(numbered(i)).unwrap();
            }
        });
        assert_eq!(server.recv().unwrap(), numbered(0));
        let (sink, rx) = channel_sink();
        server.deliver_to(sink);
        sender.join().unwrap();
        let mut want: Vec<Result<Bytes>> = (1..5_000).map(|i| Ok(numbered(i))).collect();
        want.push(Err(TransportError::Closed));
        assert_eq!(received(&rx), want);
    }

    #[test]
    fn handover_after_midframe_death_delivers_queued_frames_then_peer_gone() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.addr()).unwrap();
        let (stream, _) = listener.listener.accept().unwrap();
        let server = TcpConnection::from_stream(stream).unwrap();
        raw.write_all(&3u32.to_le_bytes()).unwrap();
        raw.write_all(b"abc").unwrap();
        raw.write_all(&50u32.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        drop(raw);
        await_queued(&server, 1, true);
        let (sink, rx) = channel_sink();
        server.deliver_to(sink);
        let got = received(&rx);
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0], Ok(Bytes::from_static(b"abc")));
        assert!(
            matches!(got[1], Err(TransportError::PeerGone(_))),
            "expected PeerGone, got {:?}",
            got[1]
        );
    }

    #[test]
    fn midframe_death_after_handover_ends_the_sink_with_peer_gone() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.addr()).unwrap();
        let server = listener.accept().unwrap();
        let (sink, rx) = channel_sink();
        server.deliver_to(sink);
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
        raw.flush().unwrap();
        drop(raw);
        let got = received(&rx);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(matches!(got[0], Err(TransportError::PeerGone(_))));
    }

    /// The reader is blocked on a full pull queue when the sink
    /// arrives: the handover completes, and every frame arrives once,
    /// in order.
    #[test]
    fn handover_onto_a_full_pull_queue_loses_nothing() {
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let client = TcpConnection::connect(listener.addr()).unwrap();
        let (stream, _) = listener.listener.accept().unwrap();
        let server = TcpConnection::from_stream(stream).unwrap();
        let total = INBOUND_DEPTH as u32 + 100;
        for i in 0..total {
            client.send(numbered(i)).unwrap();
        }
        await_queued(&server, INBOUND_DEPTH, false);
        let (sink, rx) = channel_sink();
        server.deliver_to(sink);
        drop(client);
        let mut want: Vec<Result<Bytes>> = (0..total).map(|i| Ok(numbered(i))).collect();
        want.push(Err(TransportError::Closed));
        assert_eq!(received(&rx), want);
        let stats = server.stats();
        assert_eq!(stats.frames_recv, total as u64);
        assert_eq!(stats.bytes_recv, 4 * total as u64);
    }
}
