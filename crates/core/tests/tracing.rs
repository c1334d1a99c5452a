//! End-to-end tests of the distributed-tracing subsystem: sampled
//! waves crossing a live 2-level tree, skew-corrected reassembly at
//! the front-end, and the metrics export surfaces.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mrnet::obs::{trace, tracectx, TraceDir};
use mrnet::{launch_local, Backend, SyncMode, Value, WaveTimeline};
use mrnet_topology::{generator, HostPool};

/// The trace enable gate and sampling period are process-global;
/// serialize the tests that flip them.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

const TIMEOUT: Duration = Duration::from_secs(20);

fn pool() -> HostPool {
    HostPool::synthetic(64)
}

fn drive_backends<T: Send + 'static>(
    backends: Vec<Backend>,
    f: impl Fn(Backend) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let handles: Vec<_> = backends
        .into_iter()
        .map(|be| {
            let f = f.clone();
            std::thread::spawn(move || f(be))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Polls `cond` until it returns `Some` or the deadline passes.
fn poll_until<T>(timeout: Duration, mut cond: impl FnMut() -> Option<T>) -> Option<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = cond() {
            return Some(v);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Same-host threads share a clock, but the NTP-style estimates can
/// resolve to a few-µs pseudo-offset (scheduling asymmetry); allow
/// that much slack when asserting causality of corrected stamps.
const CAUSALITY_SLACK_US: u64 = 5_000;

fn assert_causal_path(tl: &WaveTimeline, endpoints: &[u32]) {
    assert_eq!(
        tl.hops.len(),
        3,
        "a 2-level tree path is 3 hops, got {:?}",
        tl.hops
    );
    // One hop record per node on the path, in travel order.
    let ranks: Vec<u32> = tl.hops.iter().map(|h| h.rank).collect();
    let (leaf, mid, root) = match tl.dir {
        TraceDir::Up => (ranks[0], ranks[1], ranks[2]),
        TraceDir::Down => (ranks[2], ranks[1], ranks[0]),
    };
    assert_eq!(root, 0, "wave must touch the front-end: {ranks:?}");
    assert!(
        endpoints.contains(&leaf),
        "wave must terminate at a back-end: {ranks:?}"
    );
    assert!(
        mid != 0 && !endpoints.contains(&mid),
        "middle hop must be an internal node: {ranks:?}"
    );
    for h in &tl.hops {
        assert!(h.recv_us <= h.send_us, "dwell must be non-negative: {h:?}");
    }
    for w in tl.hops.windows(2) {
        assert!(
            w[0].send_us <= w[1].recv_us + CAUSALITY_SLACK_US,
            "corrected stamps must be causal along the path: {:?}",
            tl.hops
        );
    }
}

#[test]
fn sampled_waves_assemble_into_causal_timelines_both_directions() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    tracectx::set_sample_every(1);

    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let endpoints: Vec<u32> = net.endpoints().to_vec();
    let n_backends = endpoints.len();
    assert_eq!(n_backends, 4);

    let comm = net.broadcast_communicator();
    let fmax = net.registry().id_of("f_max").unwrap();
    let stream = net.new_stream(&comm, fmax, SyncMode::WaitForAll).unwrap();
    stream.send(1, "%d", vec![Value::Int32(7)]).unwrap();

    drive_backends(dep.backends, |be| {
        let (pkt, sid) = be.recv().unwrap();
        assert_eq!(pkt.get(0).unwrap().as_i32(), Some(7));
        be.send(sid, 1, "%f", vec![Value::Float(be.rank() as f32)])
            .unwrap();
        // Keep pumping briefly so the clock-sync ping exchanges with
        // this leaf can complete before the handle drops.
        let deadline = Instant::now() + Duration::from_millis(400);
        while Instant::now() < deadline {
            match be.recv_timeout(Duration::from_millis(50)) {
                Ok(_) => {}
                Err(_) => break,
            }
        }
    });
    stream.recv_timeout(TIMEOUT).unwrap();

    let assembler = net.trace_assembler().clone();
    // Every back-end send was sampled (period 1), so four up-waves
    // assemble; the one multicast wave terminates at four back-ends,
    // each reporting its completed down envelope.
    let timelines = poll_until(TIMEOUT, || {
        let tls = assembler.timelines();
        let ups = tls.iter().filter(|t| t.dir == TraceDir::Up).count();
        let downs = tls.iter().filter(|t| t.dir == TraceDir::Down).count();
        (ups >= n_backends && downs >= n_backends).then_some(tls)
    })
    .expect("up and down waves assembled");

    for tl in &timelines {
        assert_causal_path(tl, &endpoints);
    }

    // Per-hop dwell and per-edge histograms populated for the whole
    // path: the root, both internal nodes, and every back-end dwelled
    // at least once.
    let hop_ranks: Vec<u32> = assembler.hop_histograms().iter().map(|(r, _)| *r).collect();
    assert!(hop_ranks.contains(&0), "root hop histogram: {hop_ranks:?}");
    for ep in &endpoints {
        assert!(
            hop_ranks.contains(ep),
            "backend {ep} hop histogram: {hop_ranks:?}"
        );
    }
    assert!(!assembler.edge_histograms().is_empty());
    for (_, h) in assembler.hop_histograms() {
        assert!(h.snapshot().count > 0);
    }

    // The clock handshake resolved the front-end's direct children
    // (internal nodes stay alive and pong all four exchanges).
    let synced = poll_until(TIMEOUT, || {
        let s = assembler.synced_ranks();
        (s.len() >= 2).then_some(s)
    })
    .expect("clock estimates for the internal nodes");
    assert!(synced.iter().all(|r| *r != 0));

    // Both export renderings carry the trace section.
    let export = net.export_metrics(TIMEOUT).unwrap();
    assert!(export.trace.get("trace.waves.assembled").unwrap_or(0) >= 2 * n_backends as u64);
    assert!(export.prometheus.contains("mrnet_trace_waves_assembled"));
    assert!(export.prometheus.contains("mrnet_trace_hop_0_us_bucket"));
    assert!(export.json.contains("trace.waves.assembled"));
    // Node sections saw traced frames on the wire.
    let traced_frames: u64 = export
        .snapshot
        .nodes
        .iter()
        .filter_map(|s| s.get("trace.frames"))
        .sum();
    assert!(traced_frames > 0);

    net.shutdown();
    trace::set_enabled(false);
}

#[test]
fn trace_frames_counts_traced_frames_each_node_sent() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    tracectx::set_sample_every(1);

    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let endpoints: Vec<u32> = net.endpoints().to_vec();
    let comm = net.broadcast_communicator();
    let fmax = net.registry().id_of("f_max").unwrap();
    let stream = net.new_stream(&comm, fmax, SyncMode::WaitForAll).unwrap();
    stream.send(1, "%d", vec![Value::Int32(7)]).unwrap();

    // Each back-end answers the one multicast wave with one traced
    // send, then keeps pumping so its handle answers the metrics
    // request below.
    let stop = Arc::new(AtomicBool::new(false));
    let pumps: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let (_, sid) = be.recv().unwrap();
                be.send(sid, 1, "%f", vec![Value::Float(1.0)]).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    if be.recv_timeout(Duration::from_millis(20)).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();
    stream.recv_timeout(TIMEOUT).unwrap();
    let snap = net.metrics_snapshot(TIMEOUT).unwrap();
    stop.store(true, Ordering::Relaxed);
    for p in pumps {
        p.join().unwrap();
    }

    // Sent frames only: the root multicasts to its 2 children; each
    // internal node multicasts to its 2 back-ends and forwards 1
    // aggregated up-wave; each back-end sends 1 reply.
    assert_eq!(snap.nodes.len(), 7, "every node reported");
    for node in &snap.nodes {
        let expected = if node.rank == 0 {
            2
        } else if endpoints.contains(&node.rank) {
            1
        } else {
            3
        };
        assert_eq!(
            node.get("trace.frames"),
            Some(expected),
            "rank {} trace.frames",
            node.rank
        );
    }

    net.shutdown();
    trace::set_enabled(false);
}

#[test]
fn untraced_runs_pay_zero_trailer_bytes() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(false);

    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let fmax = net.registry().id_of("f_max").unwrap();
    let stream = net.new_stream(&comm, fmax, SyncMode::WaitForAll).unwrap();
    stream.send(1, "%d", vec![Value::Int32(1)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 1, "%f", vec![Value::Float(1.0)]).unwrap();
    });
    stream.recv_timeout(TIMEOUT).unwrap();

    // No node encoded or decoded a traced frame (and a traced encode
    // with no envelopes is byte-identical to a plain data frame — see
    // proto::tests::untraced_frames_carry_zero_trailer_bytes), so the
    // wire carried zero trailer bytes; nothing reached the assembler.
    let snap = net.metrics_snapshot(TIMEOUT).unwrap();
    let traced_frames: u64 = snap
        .nodes
        .iter()
        .filter_map(|s| s.get("trace.frames"))
        .sum();
    assert_eq!(traced_frames, 0);
    let traced_hops: u64 = snap.nodes.iter().filter_map(|s| s.get("trace.hops")).sum();
    assert_eq!(traced_hops, 0);
    let assembler = net.trace_assembler();
    assert_eq!(assembler.assembled.get(), 0);
    assert!(assembler.timelines().is_empty());
    net.shutdown();
}

#[test]
fn metrics_file_dumps_on_shutdown() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    tracectx::set_sample_every(1);

    let path = std::env::temp_dir().join(format!("mrnet-metrics-dump-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("MRNET_METRICS_FILE", &path);

    let topo = generator::balanced(2, 1, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let fmax = net.registry().id_of("f_max").unwrap();
    let stream = net.new_stream(&comm, fmax, SyncMode::WaitForAll).unwrap();
    stream.send(1, "%d", vec![Value::Int32(1)]).unwrap();
    drive_backends(dep.backends, |be| {
        let (_, sid) = be.recv().unwrap();
        be.send(sid, 1, "%f", vec![Value::Float(2.0)]).unwrap();
    });
    stream.recv_timeout(TIMEOUT).unwrap();
    net.shutdown();

    std::env::remove_var("MRNET_METRICS_FILE");
    trace::set_enabled(false);

    let dumped = std::fs::read_to_string(&path).expect("metrics file written on shutdown");
    let _ = std::fs::remove_file(&path);
    assert!(dumped.contains("trace.waves.assembled"));
    assert!(dumped.contains("up.pkts.sent"));
}
