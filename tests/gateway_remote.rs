//! Remote ingress: clients on other fabric hosts reaching the gateway
//! through `GatewayServer`, with per-connection isolation of protocol
//! violations.

use std::sync::Arc;
use std::time::{Duration, Instant};

use faasm::core::{Cluster, ClusterConfig};
use faasm::gateway::codec::{self, FrameBuf, MAX_FRAME};
use faasm::gateway::{
    ClientError, Gateway, GatewayClient, GatewayClientConfig, GatewayConfig, GatewayServer,
    GatewayServerConfig, GatewayStatus, WAIT_TIMEOUT,
};
use faasm::net::stream::{decode_stream_msg, StreamConn, StreamKind};
use faasm::net::Nic;
use faasm::telemetry::Clock;

mod common;

use common::ECHO;

/// Cluster + in-process gateway + a `GatewayServer` on its own fabric
/// host. `alice/slow` calls wait at the gate (`common::GATE`).
fn remote_rig(hosts: usize) -> (Arc<Cluster>, Arc<Gateway>, GatewayServer) {
    rig_on(Cluster::new(hosts))
}

fn rig_on(cluster: Cluster) -> (Arc<Cluster>, Arc<Gateway>, GatewayServer) {
    let cluster = Arc::new(cluster);
    cluster
        .upload_fl("alice", "echo", ECHO, Default::default())
        .unwrap();
    cluster
        .upload_fl("alice", "slow", common::GATE, Default::default())
        .unwrap();
    cluster
        .upload_fl(
            "bob",
            "fail",
            "int main() { return 7; }",
            Default::default(),
        )
        .unwrap();
    let gateway = Arc::new(Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig::default(),
    ));
    let server = GatewayServer::start(Arc::clone(&gateway), cluster.add_fabric_host());
    (cluster, gateway, server)
}

fn connect(cluster: &Cluster, server: &GatewayServer, mtu: usize) -> GatewayClient {
    GatewayClient::with_config(
        cluster.add_fabric_host(),
        server.host_id(),
        GatewayClientConfig { mtu },
    )
    .expect("connect to gateway server")
}

/// Drain one hostile NIC until the server closes the connection, returning
/// the response payloads that arrived first.
fn collect_until_close(nic: &Nic, conn: u64) -> Vec<Vec<u8>> {
    let mut fb = FrameBuf::new();
    let mut frames = Vec::new();
    loop {
        let env = nic
            .recv_timeout(Duration::from_secs(5))
            .expect("server reaction before timeout");
        let Some(msg) = decode_stream_msg(&env.payload) else {
            continue;
        };
        if msg.conn != conn {
            continue;
        }
        match msg.kind {
            StreamKind::Close => return frames,
            StreamKind::Data => {
                fb.feed(&msg.bytes);
                while let Ok(Some(frame)) = fb.next_frame() {
                    frames.push(frame);
                }
            }
            StreamKind::Open => {}
        }
    }
}

#[test]
fn remote_client_matches_in_process_gateway() {
    let (cluster, gateway, server) = remote_rig(2);
    // A deliberately tiny MTU: every frame crosses fragmented.
    let client = connect(&cluster, &server, 7);
    for i in 0..10u8 {
        let input = vec![i, i + 1, i + 2];
        let remote = client.call("alice", "echo", input.clone()).unwrap();
        let local = gateway.call("alice", "echo", input.clone());
        assert_eq!(remote.status, GatewayStatus::Ok, "request {i}");
        assert_eq!(
            remote.output, local.output,
            "remote and in-process ingress must agree"
        );
        assert_eq!(remote.output, input);
    }
    // Guest return codes survive the fabric too.
    let remote = client.call("bob", "fail", vec![]).unwrap();
    assert_eq!(remote.status, GatewayStatus::Failed(7));
    assert_eq!(
        gateway.call("bob", "fail", vec![]).status,
        GatewayStatus::Failed(7)
    );
    assert!(server.frames_received() >= 11);
    assert_eq!(server.connections_dropped(), 0);
}

#[test]
fn async_submit_then_wait_correlates_tickets() {
    let (cluster, _gateway, server) = remote_rig(2);
    let client = connect(&cluster, &server, 64);
    // Fire a burst without waiting: tickets return immediately.
    let tickets: Vec<(u64, Vec<u8>)> = (0..32u8)
        .map(|i| {
            let input = vec![i, 0xAB];
            let t = client.submit("alice", "echo", input.clone()).unwrap();
            (t, input)
        })
        .collect();
    // Claim them in reverse: correlation must hold regardless of order.
    for (ticket, input) in tickets.into_iter().rev() {
        let resp = client.wait(ticket);
        assert_eq!(resp.status, GatewayStatus::Ok);
        assert_eq!(resp.output, input, "ticket {ticket} got the wrong result");
    }
}

#[test]
fn two_clients_multiplex_independently() {
    let (cluster, _gateway, server) = remote_rig(2);
    let a = connect(&cluster, &server, 31);
    let b = connect(&cluster, &server, 1400);
    let ta: Vec<u64> = (0..8u8)
        .map(|i| a.submit("alice", "slow", common::held(1, &[i])).unwrap())
        .collect();
    let tb: Vec<u64> = (0..8u8)
        .map(|i| b.submit("alice", "echo", vec![100 + i]).unwrap())
        .collect();
    // A's calls were in flight while B submitted; now let them finish.
    common::let_through(&cluster, 1);
    for (i, t) in tb.into_iter().enumerate() {
        let r = b.wait(t);
        assert_eq!(r.status, GatewayStatus::Ok);
        assert_eq!(r.output, vec![100 + i as u8]);
    }
    for (i, t) in ta.into_iter().enumerate() {
        let r = a.wait(t);
        assert_eq!(r.status, GatewayStatus::Ok);
        assert_eq!(r.output, vec![i as u8]);
    }
}

#[test]
fn fragmented_responses_from_concurrent_dispatchers_do_not_interleave() {
    let cluster = Arc::new(Cluster::new(2));
    cluster
        .upload_fl("alice", "echo", ECHO, Default::default())
        .unwrap();
    let gateway = Arc::new(Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig {
            dispatchers: 4,
            ..GatewayConfig::default()
        },
    ));
    // A tiny server MTU: every response is many chunks, so concurrent
    // completions would interleave on the wire without serialisation.
    let server = GatewayServer::with_config(
        Arc::clone(&gateway),
        cluster.add_fabric_host(),
        GatewayServerConfig {
            mtu: 8,
            ..GatewayServerConfig::default()
        },
    );
    let client = connect(&cluster, &server, 1400);
    let tickets: Vec<(u64, Vec<u8>)> = (0..48u8)
        .map(|i| {
            let input: Vec<u8> = (0..64).map(|b| b ^ i).collect();
            let t = client.submit("alice", "echo", input.clone()).unwrap();
            (t, input)
        })
        .collect();
    for (ticket, input) in tickets {
        let r = client.wait(ticket);
        assert_eq!(r.status, GatewayStatus::Ok, "ticket {ticket}");
        assert_eq!(r.output, input, "ticket {ticket} got a corrupted response");
    }
    assert!(!client.is_closed(), "stream stayed coherent");
}

#[test]
fn abandoned_tickets_are_swept() {
    // The ticket TTL (WAIT_TIMEOUT) runs on the cluster's clock, which
    // stands still until the test advances it: no sweep can run mid-burst.
    let clock = Clock::manual();
    let config = ClusterConfig {
        hosts: 2,
        ..ClusterConfig::default()
    };
    let (cluster, gateway, server) = rig_on(Cluster::with_clock(config, clock.clone()));
    let client = connect(&cluster, &server, 1400);
    // Fire-and-forget: 300 submits nobody ever waits on (above the sweep
    // threshold of 256).
    for i in 0..300u32 {
        client
            .submit("alice", "echo", i.to_le_bytes().to_vec())
            .unwrap();
    }
    // Let every response arrive: the gateway has answered all 300 (run,
    // or shed at a full queue), and a call made after that is answered on
    // the same stream after them.
    let answered = || gateway.metrics().completed() + gateway.metrics().shed_overloaded();
    let t0 = Instant::now();
    while answered() < 300 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    assert_eq!(
        client.call("alice", "echo", vec![0]).unwrap().status,
        GatewayStatus::Ok
    );
    assert_eq!(client.outstanding(), 300, "all tickets tracked pre-sweep");
    clock.advance(WAIT_TIMEOUT);
    // The next fulfilment triggers the sweep.
    let r = client.call("alice", "echo", vec![1]).unwrap();
    assert_eq!(r.status, GatewayStatus::Ok);
    assert!(
        client.outstanding() < 10,
        "abandoned tickets must be swept, still tracking {}",
        client.outstanding()
    );
}

#[test]
fn malformed_frame_drops_only_the_offending_connection() {
    let (cluster, _gateway, server) = remote_rig(2);
    let good = connect(&cluster, &server, 1400);
    // Put real work in flight on the good connection...
    let tickets: Vec<u64> = (0..8u8)
        .map(|i| good.submit("alice", "slow", common::held(1, &[i])).unwrap())
        .collect();
    // ...then poison a second connection with a well-framed non-request.
    let hostile_nic = cluster.add_fabric_host();
    let hostile = StreamConn::open(hostile_nic.clone(), server.host_id(), 16).unwrap();
    hostile
        .send(&codec::encode_frame(b"definitely not a request"))
        .unwrap();
    let frames = collect_until_close(&hostile_nic, hostile.conn_id());
    // The offender got an explicit seq-0 error before the cut.
    assert_eq!(frames.len(), 1);
    let resp = codec::decode_response(&frames[0]).expect("framed error response");
    assert_eq!(resp.seq, 0);
    assert!(matches!(resp.status, GatewayStatus::Error(_)));
    assert_eq!(server.connections_dropped(), 1);
    // The good connection's in-flight calls are untouched.
    common::let_through(&cluster, 1);
    for (i, t) in tickets.into_iter().enumerate() {
        let r = good.wait(t);
        assert_eq!(r.status, GatewayStatus::Ok, "in-flight call {i} disturbed");
        assert_eq!(r.output, vec![i as u8]);
    }
    assert!(!good.is_closed());
    // And the good connection keeps working after the incident.
    let r = good.call("alice", "echo", vec![9]).unwrap();
    assert_eq!(r.status, GatewayStatus::Ok);
}

#[test]
fn oversized_frame_drops_only_the_offending_connection() {
    let (cluster, _gateway, server) = remote_rig(1);
    let good = connect(&cluster, &server, 1400);
    let tickets: Vec<u64> = (0..4u8)
        .map(|i| good.submit("alice", "slow", common::held(1, &[i])).unwrap())
        .collect();
    // A hostile length prefix: claims u32::MAX bytes follow.
    let hostile_nic = cluster.add_fabric_host();
    let hostile = StreamConn::open(hostile_nic.clone(), server.host_id(), 64).unwrap();
    let mut poison = u32::MAX.to_le_bytes().to_vec();
    poison.extend_from_slice(&[0; 32]);
    hostile.send(&poison).unwrap();
    let frames = collect_until_close(&hostile_nic, hostile.conn_id());
    assert!(
        frames.is_empty(),
        "an oversized prefix is cut without a response"
    );
    assert_eq!(server.connections_dropped(), 1);
    common::let_through(&cluster, 1);
    for t in tickets {
        assert_eq!(good.wait(t).status, GatewayStatus::Ok);
    }
}

#[test]
fn pending_bytes_cap_drops_slow_drip_connections() {
    let cluster = Arc::new(Cluster::new(1));
    cluster
        .upload_fl("alice", "echo", ECHO, Default::default())
        .unwrap();
    let gateway = Arc::new(Gateway::start(
        Arc::clone(&cluster),
        GatewayConfig::default(),
    ));
    let server = GatewayServer::with_config(
        Arc::clone(&gateway),
        cluster.add_fabric_host(),
        GatewayServerConfig {
            max_pending_bytes: 64,
            ..GatewayServerConfig::default()
        },
    );
    // A legal-size frame header (1000 bytes) but the bytes dribble in and
    // never complete: the reassembly buffer may not grow past the cap.
    let hostile_nic = cluster.add_fabric_host();
    let hostile = StreamConn::open(hostile_nic.clone(), server.host_id(), 16).unwrap();
    let mut dribble = 1000u32.to_le_bytes().to_vec();
    dribble.extend_from_slice(&[0; 200]);
    hostile.send(&dribble).unwrap();
    let frames = collect_until_close(&hostile_nic, hostile.conn_id());
    assert!(frames.is_empty());
    assert_eq!(server.connections_dropped(), 1);
    // Within-cap traffic still flows on a fresh connection.
    let client = GatewayClient::with_config(
        cluster.add_fabric_host(),
        server.host_id(),
        GatewayClientConfig { mtu: 16 },
    )
    .unwrap();
    let r = client.call("alice", "echo", vec![1, 2, 3]).unwrap();
    assert_eq!(r.status, GatewayStatus::Ok);
    assert_eq!(r.output, vec![1, 2, 3]);
}

#[test]
fn oversized_request_fails_fast_at_the_client() {
    let (cluster, _gateway, server) = remote_rig(1);
    let client = connect(&cluster, &server, 1400);
    let sent_before = client.nic().stats().bytes_sent();
    let err = client
        .submit("alice", "echo", vec![0u8; MAX_FRAME])
        .unwrap_err();
    assert!(matches!(err, ClientError::Oversized(_)));
    // Nothing was put on the wire: the corrupt frame died at the sender.
    assert_eq!(client.nic().stats().bytes_sent(), sent_before);
    // The client connection is still healthy.
    let r = client.call("alice", "echo", vec![5]).unwrap();
    assert_eq!(r.status, GatewayStatus::Ok);
}

#[test]
fn client_shutdown_resolves_outstanding_waits() {
    let (cluster, _gateway, server) = remote_rig(1);
    let client = connect(&cluster, &server, 1400);
    let t = client
        .submit("alice", "slow", common::held(1, &[1]))
        .unwrap();
    client.shutdown();
    let r = client.wait(t);
    // The call is held at the gate, so no response can race in before
    // shutdown: the wait resolves with an explicit error — never a hang.
    assert!(
        matches!(r.status, GatewayStatus::Error(_)),
        "unexpected status {:?}",
        r.status
    );
    assert!(matches!(
        client.submit("alice", "echo", vec![2]).unwrap_err(),
        ClientError::Closed(_)
    ));
    common::let_through(&cluster, 1);
}
