//! The tool back-end API.
//!
//! Mirrors the back-end side of the paper's Figure 2: a back-end joins
//! the network (`MR_Network::init_backend`), performs stream-anonymous
//! receives that yield both the data and the stream it arrived on, and
//! sends scalar values upstream on those streams.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mrnet_obs::tracectx::{self, TraceEnvelope, TraceSampler};
use mrnet_obs::{log_warn, NodeMetrics};
use mrnet_packet::{Packet, PacketBuilder, Rank, StreamId, Value};
use mrnet_transport::{LocalFabric, RetryPolicy, SharedConnection};

use crate::error::{MrnetError, Result};
use crate::event::TopologyEvent;
use crate::introspect::{self, METRICS_REQUEST, METRICS_STREAM};
use crate::proto::{decode_frame, encode_data_frame, encode_traced_data_frame, Control, Frame};
use crate::streams::StreamDef;

/// A tool back-end (daemon) endpoint of the MRNet network.
pub struct Backend {
    rank: Rank,
    conn: SharedConnection,
    streams: Mutex<HashMap<StreamId, StreamDef>>,
    pending: Mutex<VecDeque<Packet>>,
    down: Mutex<bool>,
    metrics: Arc<NodeMetrics>,
    /// Topology events relayed down the tree, queued until the tool
    /// polls [`Backend::try_next_event`].
    events: Mutex<VecDeque<TopologyEvent>>,
    /// Cumulative set of ranks reported failed.
    failed: Mutex<BTreeSet<Rank>>,
    /// Decides which upstream sends originate a sampled trace wave.
    sampler: TraceSampler,
}

impl Backend {
    /// Joins the network over an established connection to the parent
    /// process, announcing this back-end's rank via a subtree report
    /// (§2.5). Used by mode-1 instantiation.
    pub(crate) fn new(rank: Rank, conn: SharedConnection) -> Result<Backend> {
        conn.send(
            Control::SubtreeReport {
                endpoints: vec![rank],
            }
            .to_frame(),
        )?;
        Ok(Backend {
            rank,
            conn,
            streams: Mutex::new(HashMap::new()),
            pending: Mutex::new(VecDeque::new()),
            down: Mutex::new(false),
            metrics: Arc::new(NodeMetrics::new()),
            events: Mutex::new(VecDeque::new()),
            failed: Mutex::new(BTreeSet::new()),
            sampler: TraceSampler::new(),
        })
    }

    /// Mode-2 instantiation: an externally created back-end connects
    /// to a waiting leaf process through the in-process rendezvous
    /// fabric (the analogue of "the leaf processes' host names and
    /// connection port numbers … provided via the environment", §2.5).
    pub fn attach(fabric: &LocalFabric, endpoint: &str, rank: Rank) -> Result<Backend> {
        let conn = fabric.connect(endpoint, &format!("backend-{rank}"))?;
        let conn: SharedConnection = std::sync::Arc::from(conn);
        conn.send(Control::Attach { rank }.to_frame())?;
        Backend::new(rank, conn)
    }

    /// Mode-2 instantiation over TCP: connect to a leaf process's
    /// published address, retrying transient refusals (the §2.5
    /// connect-back race) per `MRNET_CONNECT_RETRIES`.
    pub fn attach_tcp(addr: &str, rank: Rank) -> Result<Backend> {
        let (conn, retries) = RetryPolicy::from_env()
            .connect(addr)
            .map_err(MrnetError::Transport)?;
        let conn: SharedConnection = std::sync::Arc::new(conn);
        conn.send(Control::Attach { rank }.to_frame())?;
        let be = Backend::new(rank, conn)?;
        be.metrics.connect_retries.add(u64::from(retries));
        Ok(be)
    }

    /// This back-end's rank (its end-point identity).
    pub fn rank(&self) -> Rank {
        self.rank
    }

    fn note_shutdown(&self) {
        *self.down.lock() = true;
    }

    /// This back-end's metrics instruments. Updated as the tool thread
    /// pumps the connection; reported upstream automatically whenever
    /// an introspection request reaches this leaf.
    pub fn metrics(&self) -> Arc<NodeMetrics> {
        self.metrics.clone()
    }

    /// Answers an in-band metrics request with this back-end's own
    /// section. The reply bypasses [`Backend::send_packet`]'s stream
    /// checks and counters: introspection traffic reports the network,
    /// it is not part of it.
    fn answer_metrics(&self, request: &Packet) {
        let Ok((req_id, _timeout)) = introspect::decode_request(request) else {
            log_warn!(self.rank, "dropping malformed metrics request");
            return;
        };
        let section = self.metrics.snapshot(self.rank);
        let reply = introspect::encode_reply(req_id, std::slice::from_ref(&section));
        let _ = self
            .conn
            .send(encode_data_frame(std::slice::from_ref(&reply)));
    }

    /// Queues a frame's data packets for [`Backend::recv`], answering
    /// any in-band metrics requests among them.
    fn ingest_packets(&self, packets: Vec<Packet>) {
        let mut requests = Vec::new();
        let mut pending = self.pending.lock();
        for p in packets {
            if p.stream_id() == METRICS_STREAM {
                if p.tag() == METRICS_REQUEST {
                    requests.push(p);
                }
                continue;
            }
            self.metrics.down_pkts_recv.inc();
            self.metrics.stream_counters(p.stream_id()).down_pkts.inc();
            pending.push_back(p);
        }
        drop(pending);
        for request in &requests {
            self.answer_metrics(request);
        }
    }

    fn handle_frame(&self, frame: bytes::Bytes) -> Result<()> {
        match decode_frame(frame)? {
            Frame::Data(packets) => self.ingest_packets(packets),
            Frame::Traced(packets, envelopes) => {
                // A sampled down-wave ends here: stamp the terminal hop
                // and report the completed envelope back up the tree so
                // the front-end's assembler can reconstruct the wave.
                let recv_us = tracectx::wall_us();
                self.metrics.trace_frames.inc();
                self.ingest_packets(packets);
                for mut env in envelopes {
                    env.add_hop(self.rank, recv_us, tracectx::wall_us());
                    self.metrics.trace_hops.inc();
                    let report = introspect::encode_trace_report(&env);
                    let _ = self
                        .conn
                        .send(encode_data_frame(std::slice::from_ref(&report)));
                }
            }
            Frame::Control(pkt) => {
                let control = Control::from_packet(&pkt)?;
                match control {
                    Control::NewStream { .. } => {
                        let def = StreamDef::from_control(&control).expect("NewStream parses");
                        self.streams.lock().insert(def.id, def);
                    }
                    Control::DeleteStream { stream_id } => {
                        self.streams.lock().remove(&stream_id);
                    }
                    Control::RankFailed { rank, subtree } => {
                        // A failure elsewhere in the tree, relayed down
                        // so this back-end can adapt (e.g. note that a
                        // sibling will never contribute again).
                        self.metrics.events_delivered.inc();
                        let mut failed = self.failed.lock();
                        failed.insert(rank);
                        failed.extend(subtree.iter().copied());
                        drop(failed);
                        self.events
                            .lock()
                            .push_back(TopologyEvent::RankFailed { rank, subtree });
                    }
                    Control::ClockPing { t0_us } => {
                        // NTP-style echo: timestamp arrival and
                        // departure so the parent can estimate this
                        // leaf's clock offset and the link RTT.
                        let t1_us = tracectx::wall_us();
                        let _ = self.conn.send(
                            Control::ClockPong {
                                t0_us,
                                t1_us,
                                t2_us: tracectx::wall_us(),
                            }
                            .to_frame(),
                        );
                    }
                    Control::Shutdown => {
                        self.note_shutdown();
                        return Err(MrnetError::Shutdown);
                    }
                    other => {
                        return Err(MrnetError::Protocol(format!(
                            "unexpected control at back-end: {other:?}"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Stream-anonymous blocking receive: the next data packet and the
    /// id of the stream it arrived on (Figure 2's
    /// `MR_Stream::recv(&val, &stream)`).
    pub fn recv(&self) -> Result<(Packet, StreamId)> {
        loop {
            if let Some(p) = self.pending.lock().pop_front() {
                let sid = p.stream_id();
                return Ok((p, sid));
            }
            if *self.down.lock() {
                return Err(MrnetError::Shutdown);
            }
            let frame = self.conn.recv().map_err(|_| {
                self.note_shutdown();
                MrnetError::Shutdown
            })?;
            self.handle_frame(frame)?;
        }
    }

    /// Like [`Backend::recv`] but gives up after `timeout`, returning
    /// `Ok(None)`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<(Packet, StreamId)>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(p) = self.pending.lock().pop_front() {
                let sid = p.stream_id();
                return Ok(Some((p, sid)));
            }
            if *self.down.lock() {
                return Err(MrnetError::Shutdown);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            match self.conn.recv_timeout(deadline - now) {
                Ok(Some(frame)) => self.handle_frame(frame)?,
                Ok(None) => return Ok(None),
                Err(_) => {
                    self.note_shutdown();
                    return Err(MrnetError::Shutdown);
                }
            }
        }
    }

    /// Sends values upstream on `stream` (Figure 2's
    /// `stream->send("%f", value)`). The packet is allocated once:
    /// [`Backend::send_packet`] stamps the rank into it in place.
    pub fn send(&self, stream: StreamId, tag: i32, fmt: &str, values: Vec<Value>) -> Result<()> {
        self.send_packet(Packet::with_fmt_str(stream, tag, fmt, values)?)
    }

    /// Sends a pre-built packet upstream, stamped with this back-end's
    /// rank (in place when the caller hands over its only handle).
    pub fn send_packet(&self, packet: Packet) -> Result<()> {
        if *self.down.lock() {
            return Err(MrnetError::Shutdown);
        }
        let sid = packet.stream_id();
        if !self.streams.lock().contains_key(&sid) {
            return Err(MrnetError::UnknownStream(sid));
        }
        let packet = packet.with_src(self.rank);
        self.metrics.up_pkts_sent.inc();
        self.metrics.stream_counters(sid).up_pkts.inc();
        self.metrics
            .local_up_bytes
            .add(packet.encoded_size_hint() as u64);
        // One in `MRNET_TRACE_SAMPLE` sends originates a traced
        // up-wave; the rest pay zero trailer bytes on the wire.
        let frame = if self.sampler.sample() {
            let env = TraceEnvelope::originate(self.rank, sid);
            self.metrics.trace_frames.inc();
            self.metrics.trace_hops.inc();
            encode_traced_data_frame(std::slice::from_ref(&packet), &[env])
        } else {
            encode_data_frame(std::slice::from_ref(&packet))
        };
        self.conn.send(frame).map_err(MrnetError::Transport)
    }

    /// Convenience: build and send a packet from Rust values.
    pub fn send_values(
        &self,
        stream: StreamId,
        tag: i32,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<()> {
        let mut builder = PacketBuilder::new(stream, tag).src(self.rank);
        for v in values {
            builder = builder.push(v);
        }
        self.send_packet(builder.build())
    }

    /// The definition of a stream this back-end has learned about.
    pub fn stream_def(&self, stream: StreamId) -> Option<StreamDef> {
        self.streams.lock().get(&stream).cloned()
    }

    /// Ids of all streams known to this back-end.
    pub fn known_streams(&self) -> Vec<StreamId> {
        let mut v: Vec<StreamId> = self.streams.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// True once the network has shut down.
    pub fn is_down(&self) -> bool {
        *self.down.lock()
    }

    /// The next queued topology event, if any. Events are enqueued as
    /// the tool thread pumps the connection (via [`Backend::recv`] /
    /// [`Backend::recv_timeout`]); a back-end that never receives will
    /// not observe events.
    pub fn try_next_event(&self) -> Option<TopologyEvent> {
        self.events.lock().pop_front()
    }

    /// Every rank this back-end has heard reported failed, sorted.
    pub fn failed_ranks(&self) -> Vec<Rank> {
        self.failed.lock().iter().copied().collect()
    }
}
