//! Golden wire vectors: the exact bytes of one encoding per message variant,
//! captured at the commit before the codecs moved onto `faasm_net::wire`.
//! "Byte-identical on the wire" is this test — a codec change that moves a
//! byte (and with it `net_kb_per_call`) fails here, not in a benchmark.

use std::sync::Arc;

use faasm::core::msg::{decode_msg, encode_msg, InstanceMsg};
use faasm::core::{chunk_proto, ProtoFaaslet, ProtoManifest};
use faasm::fvm::InstanceSnapshot;
use faasm::gateway::codec as gw;
use faasm::gateway::{GatewayRequest, GatewayResponse, GatewayStatus};
use faasm::kvs::codec::{
    decode_request_traced, decode_response, encode_request_traced, encode_response,
};
use faasm::kvs::{Digest, KeyMigration, LockMigration, LockMode, Request, Response, ShardStats};
use faasm::mem::{MemorySnapshot, Page, BLOCK_SIZE, PAGE_SIZE};
use faasm::net::HostId;
use faasm::sched::{encode_call, encode_result, CallId, CallResult, CallSpec, CallStatus};
use faasm::telemetry::TraceCtx;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

const TRACE: TraceCtx = TraceCtx {
    trace_id: 0x1122_3344_5566_7788,
    span_id: 0x99aa_bbcc_ddee_ff00,
};

fn entries() -> Vec<KeyMigration> {
    vec![
        KeyMigration {
            key: "plain".into(),
            value: Some(b"v".to_vec()),
            lock: None,
            version: 3,
        },
        KeyMigration {
            key: "locked".into(),
            value: None,
            lock: Some(LockMigration::Writer {
                owner: 42,
                remaining_ms: 1000,
            }),
            version: 0,
        },
        KeyMigration {
            key: "readers".into(),
            value: Some(Vec::new()),
            lock: Some(LockMigration::Readers(vec![(1, 10), (2, 20)])),
            version: u64::MAX,
        },
    ]
}

fn kvs_requests() -> Vec<(&'static str, Request)> {
    let key = || "k".to_string();
    vec![
        ("req.get", Request::Get { key: key() }),
        (
            "req.set",
            Request::Set {
                key: key(),
                value: b"value".to_vec(),
            },
        ),
        (
            "req.get_range",
            Request::GetRange {
                key: key(),
                offset: 5,
                len: 10,
            },
        ),
        (
            "req.set_range",
            Request::SetRange {
                key: key(),
                offset: 3,
                data: b"xyz".to_vec(),
            },
        ),
        (
            "req.append",
            Request::Append {
                key: key(),
                data: b"tail".to_vec(),
            },
        ),
        ("req.del", Request::Del { key: key() }),
        ("req.exists", Request::Exists { key: key() }),
        ("req.strlen", Request::StrLen { key: key() }),
        (
            "req.incr",
            Request::Incr {
                key: key(),
                delta: -3,
            },
        ),
        (
            "req.try_lock",
            Request::TryLock {
                key: key(),
                mode: LockMode::Read,
                owner: 42,
            },
        ),
        (
            "req.unlock",
            Request::Unlock {
                key: key(),
                mode: LockMode::Write,
                owner: 42,
            },
        ),
        ("req.ping", Request::Ping),
        ("req.flush", Request::Flush),
        (
            "req.multi_get_range",
            Request::MultiGetRange {
                key: key(),
                spans: vec![(0, 16), (32, 16), (64, 8)],
            },
        ),
        (
            "req.multi_set_range",
            Request::MultiSetRange {
                key: key(),
                writes: [(0, &b"aa"[..]), (7, b""), (100, b"z")]
                    .into_iter()
                    .collect(),
            },
        ),
        ("req.stats", Request::Stats),
        (
            "req.migrate",
            Request::Migrate {
                epoch: 4,
                shard_count: 3,
            },
        ),
        (
            "req.epoch_commit",
            Request::EpochCommit {
                epoch: 9,
                shard_count: 5,
                dead: vec![1, 3],
                hosts: vec![10, 11, 12, 13, 14],
            },
        ),
        ("req.replicate", Request::Replicate { entries: entries() }),
        (
            "req.handoff_frame",
            Request::HandoffFrame {
                xfer: 77,
                seq: 2,
                last: true,
                entries: entries(),
            },
        ),
        (
            "req.rebuild",
            Request::Rebuild {
                prev_dead: vec![0, 4],
            },
        ),
        ("req.version_of", Request::VersionOf { key: key() }),
        (
            "req.multi_get",
            Request::MultiGet {
                keys: vec!["a".into(), "bb".into(), String::new()],
            },
        ),
    ]
}

fn kvs_responses() -> Vec<(&'static str, Response)> {
    vec![
        ("resp.value_none", Response::Value(None)),
        ("resp.value_some", Response::Value(Some(b"v".to_vec()))),
        ("resp.ok", Response::Ok),
        ("resp.len", Response::Len(9)),
        ("resp.int", Response::Int(-1)),
        ("resp.bool", Response::Bool(true)),
        ("resp.pong", Response::Pong),
        ("resp.err", Response::Err("boom".into())),
        ("resp.spans_none", Response::Spans(None)),
        (
            "resp.spans_some",
            Response::Spans(Some(vec![b"run1".to_vec(), Vec::new(), b"r".to_vec()])),
        ),
        (
            "resp.wrong_epoch",
            Response::WrongEpoch {
                epoch: 7,
                shard_count: 4,
            },
        ),
        (
            "resp.stats",
            Response::Stats(ShardStats {
                epoch: 3,
                keys: 10,
                value_bytes: 4096,
                reads: 100,
                writes: 50,
                lock_ops: 5,
                wrong_epoch_redirects: 2,
                freeze_wait_ns: 1_500_000,
                batched_ops: 12,
                batched_items: 480,
                replication: 2,
                repl_forwards: 31,
                repl_lag_ns: 9_000,
                promotions: 1,
                primary_keys: 7,
                backup_keys: 3,
            }),
        ),
        ("resp.handoff", Response::Handoff(entries())),
        ("resp.repl_ack", Response::ReplAck { applied: 6 }),
        (
            "resp.not_primary",
            Response::NotPrimary {
                epoch: 5,
                shard_count: 3,
            },
        ),
        (
            "resp.unavailable",
            Response::Unavailable {
                epoch: 6,
                shard_count: 2,
            },
        ),
        (
            "resp.multi_values",
            Response::MultiValues(vec![Some(b"v".to_vec()), None, Some(Vec::new())]),
        ),
        (
            "resp.versioned",
            Response::Versioned {
                version: 12,
                inner: Box::new(Response::Value(Some(b"bytes".to_vec()))),
            },
        ),
    ]
}

fn call(i: u64) -> CallSpec {
    CallSpec {
        id: CallId(100 + i),
        user: "tenant".into(),
        function: format!("f{i}"),
        input: vec![i as u8; i as usize],
        trace: if i == 1 { TRACE } else { TraceCtx::NONE },
    }
}

fn gateway_and_bus() -> Vec<(&'static str, Vec<u8>)> {
    let request = GatewayRequest {
        seq: 42,
        tenant: "alice".into(),
        function: "double".into(),
        deadline_ms: 250,
        trace: TRACE,
        input: vec![1, 2, 3, 4],
    };
    let response = |status| {
        gw::encode_response(&GatewayResponse {
            seq: 9,
            status,
            output: b"out".to_vec(),
        })
    };
    let result = |status| CallResult {
        id: CallId(4),
        status,
        output: b"data".to_vec(),
    };
    vec![
        ("gw.request", gw::encode_request(&request)),
        ("gw.frame", gw::encode_frame(b"payload")),
        ("gw.resp_ok", response(GatewayStatus::Ok)),
        ("gw.resp_failed", response(GatewayStatus::Failed(7))),
        (
            "gw.resp_error",
            response(GatewayStatus::Error("boom".into())),
        ),
        ("gw.resp_overloaded", response(GatewayStatus::Overloaded)),
        ("gw.resp_expired", response(GatewayStatus::Expired)),
        ("sched.call", encode_call(&call(1))),
        (
            "sched.result_success",
            encode_result(&result(CallStatus::Success)),
        ),
        (
            "sched.result_failed",
            encode_result(&result(CallStatus::Failed(-2))),
        ),
        (
            "sched.result_error",
            encode_result(&result(CallStatus::Error("trap: out of fuel".into()))),
        ),
        (
            "msg.result",
            encode_msg(&InstanceMsg::Result {
                result: result(CallStatus::Failed(2)),
            }),
        ),
        (
            "msg.invoke_batch",
            encode_msg(&InstanceMsg::InvokeBatch {
                calls: (0..3).map(call).collect(),
                reply_to: HostId(9),
                sent_at_ns: 12_345,
            }),
        ),
        (
            "msg.prestage",
            encode_msg(&InstanceMsg::PreStage {
                user: "tenant".into(),
                function: "hot".into(),
                manifest: vec![7u8; 8],
            }),
        ),
    ]
}

/// A hand-built proto (no compiler in the loop, so its bytes cannot drift
/// with codegen): two pages, one dirty; two globals; a three-slot table.
fn proto() -> ProtoFaaslet {
    let mut dirty = vec![0u8; PAGE_SIZE];
    dirty[10..14].copy_from_slice(b"warm");
    let pages = vec![Arc::new(Page::zeroed()), Arc::new(Page::from_bytes(&dirty))];
    ProtoFaaslet {
        user: "alice".into(),
        function: "f".into(),
        generation: 0x0102,
        snapshot: InstanceSnapshot {
            mem: Some(MemorySnapshot::from_pages(pages, 4).expect("2 <= 4 pages")),
            globals: vec![7, u64::MAX],
            table: vec![Some(5), None, Some(0)],
        },
    }
}

/// A page with blocks 0 and 5 written, pinned by its chunk's block mask,
/// length (`u32`) and SHA-256 rather than by 8 KiB of hex.
fn page_chunk() -> Vec<u8> {
    let page = Page::zeroed();
    page.write(10, b"warm");
    page.write(5 * BLOCK_SIZE + 4000, b"cold");
    let chunk = page.to_chunk();
    let mut pinned = chunk[..2].to_vec();
    pinned.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
    pinned.extend_from_slice(&Digest::of(&chunk).0);
    pinned
}

fn snapshot_plane() -> Vec<(&'static str, Vec<u8>)> {
    let chunked = chunk_proto(&proto()).expect("chunks");
    let meta = chunked.chunks[&chunked.manifest.meta].as_ref().clone();
    let manifest = ProtoManifest {
        meta: Digest([0xAB; 32]),
        pages: vec![Digest([1; 32]), Digest([2; 32])],
    };
    vec![
        ("proto.meta_chunk", meta),
        ("proto.manifest", manifest.to_bytes()),
        // The real manifest pins the meta digest and the page payload
        // bytes too: any moved byte in either changes a digest.
        ("proto.chunked_manifest", chunked.manifest.to_bytes()),
        ("proto.page_chunk", page_chunk()),
    ]
}

fn all() -> Vec<(&'static str, Vec<u8>)> {
    let mut out = Vec::new();
    for (name, req) in kvs_requests() {
        out.push((name, encode_request_traced(&req, 17, TRACE)));
    }
    for (name, resp) in kvs_responses() {
        out.push((name, encode_response(&resp)));
    }
    out.extend(gateway_and_bus());
    out.extend(snapshot_plane());
    out
}

#[test]
fn encodings_match_the_golden_vectors() {
    let actual = all();
    assert_eq!(actual.len(), GOLDEN.len(), "one golden vector per encoding");
    for ((name, bytes), (golden_name, golden)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(hex(bytes), *golden, "{name} moved on the wire");
    }
}

/// Every declared KVS tag has a golden vector, and a vector decodes to a
/// message of the tag it was filed under: a protocol row added without a
/// vector fails here.
#[test]
fn every_kvs_tag_has_a_golden_vector() {
    let sorted = |mut tags: Vec<u8>| {
        tags.sort_unstable();
        tags.dedup();
        tags
    };
    let mut filed = Vec::new();
    for (name, golden) in GOLDEN.iter().filter(|(name, _)| name.starts_with("req.")) {
        let bytes = unhex(golden);
        let (req, epoch, trace) = decode_request_traced(&bytes).expect(name);
        let again = encode_request_traced(&req, epoch, trace);
        assert_eq!(again, bytes, "{name} decodes to the message it encodes");
        assert_eq!(again.capacity(), again.len(), "{name} sized exactly");
        filed.push(bytes[24]);
    }
    assert_eq!(sorted(filed), sorted(Request::TAGS.to_vec()));
    let mut filed = Vec::new();
    for (name, golden) in GOLDEN.iter().filter(|(name, _)| name.starts_with("resp.")) {
        let bytes = unhex(golden);
        let again = encode_response(&decode_response(&bytes).expect(name));
        assert_eq!(again, bytes, "{name} decodes to the message it encodes");
        assert_eq!(again.capacity(), again.len(), "{name} sized exactly");
        filed.push(bytes[0]);
    }
    assert_eq!(sorted(filed), sorted(Response::TAGS.to_vec()));
}

/// The set ops' request tags (9–12), the `Values` response tag (6), the
/// whole-state `Handoff` request tag (21) and the single-call `Invoke` bus
/// tag (0) are no longer assigned: the frames a peer built for them, bare
/// tags and tags followed by hostile counts all decode to an error.
#[test]
fn retired_set_tags_decode_to_errors() {
    assert!(!Request::TAGS.iter().any(|t| (9..=12).contains(t)));
    assert!(!Response::TAGS.contains(&6));
    let stamp = unhex("1100000000000000887766554433221100ffeeddccbbaa99");
    let payloads: [&[u8]; 4] = [
        b"",
        &[1, 0, 0, 0, b's', 1, 0, 0, 0, b'm'],
        &[1, 0, 0, 0, b's'],
        &[0xff; 9],
    ];
    for tag in 9u8..=12 {
        for payload in payloads {
            let mut frame = stamp.clone();
            frame.push(tag);
            frame.extend_from_slice(payload);
            assert!(decode_request_traced(&frame).is_err(), "request tag {tag}");
        }
    }
    let payloads: [&[u8]; 4] = [
        b"",
        &[2, 0, 0, 0, 1, 0, 0, 0, b'a', 2, 0, 0, 0, b'b', b'b'],
        &[0xff, 0xff, 0xff, 0xff],
        &[0; 9],
    ];
    for payload in payloads {
        let mut frame = vec![6u8];
        frame.extend_from_slice(payload);
        assert!(decode_response(&frame).is_err(), "response tag 6");
    }
    // The last `Handoff` and `Invoke` vectors, as a peer sent them.
    let handoff = unhex("1100000000000000887766554433221100ffeeddccbbaa99150300000005000000706c61696e010100000076000300000000000000060000006c6f636b656400022a00000000000000e803000000000000000000000000000007000000726561646572730100000000010200000001000000000000000a0000000000000002000000000000001400000000000000ffffffffffffffff");
    assert!(!Request::TAGS.contains(&21));
    for cut in [25, 29, handoff.len()] {
        assert!(
            decode_request_traced(&handoff[..cut]).is_err(),
            "tag 21, {cut} B"
        );
    }
    let invoke = unhex("00030000006500000000000000887766554433221100ffeeddccbbaa990600000074656e616e740200000066310100000001");
    let frame = |body: &[u8]| {
        // Tag 4, the length-prefixed body, then the padding.
        let mut framed = vec![4u8];
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(body);
        framed.extend_from_slice(&[0; 256]);
        framed
    };
    for cut in [1, 5, invoke.len()] {
        let plain = &invoke[..cut];
        assert_eq!(decode_msg(plain), None, "bus tag 0, {cut} B");
        assert_eq!(decode_msg(&frame(plain)), None, "framed bus tag 0, {cut} B");
    }
    // The same frame around a message that is still assigned decodes.
    let result = encode_msg(&InstanceMsg::Result {
        result: CallResult::success(CallId(4), b"out".to_vec()),
    });
    assert!(decode_msg(&frame(&result)).is_some());
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("req.get", "1100000000000000887766554433221100ffeeddccbbaa9900010000006b"),
    ("req.set", "1100000000000000887766554433221100ffeeddccbbaa9901010000006b0500000076616c7565"),
    ("req.get_range", "1100000000000000887766554433221100ffeeddccbbaa9902010000006b05000000000000000a00000000000000"),
    ("req.set_range", "1100000000000000887766554433221100ffeeddccbbaa9903010000006b03000000000000000300000078797a"),
    ("req.append", "1100000000000000887766554433221100ffeeddccbbaa9904010000006b040000007461696c"),
    ("req.del", "1100000000000000887766554433221100ffeeddccbbaa9905010000006b"),
    ("req.exists", "1100000000000000887766554433221100ffeeddccbbaa9906010000006b"),
    ("req.strlen", "1100000000000000887766554433221100ffeeddccbbaa9907010000006b"),
    ("req.incr", "1100000000000000887766554433221100ffeeddccbbaa9908010000006bfdffffffffffffff"),
    ("req.try_lock", "1100000000000000887766554433221100ffeeddccbbaa990d010000006b002a00000000000000"),
    ("req.unlock", "1100000000000000887766554433221100ffeeddccbbaa990e010000006b012a00000000000000"),
    ("req.ping", "1100000000000000887766554433221100ffeeddccbbaa990f"),
    ("req.flush", "1100000000000000887766554433221100ffeeddccbbaa9910"),
    ("req.multi_get_range", "1100000000000000887766554433221100ffeeddccbbaa9911010000006b03000000000000000000000010000000000000002000000000000000100000000000000040000000000000000800000000000000"),
    // Re-captured on purpose when tag 18 went from an (offset u64, bytes
    // field) list to a varint span table plus one payload field: the one
    // vector that PR changed.
    ("req.multi_set_range", "1100000000000000887766554433221100ffeeddccbbaa9912010000006b03000000000205005d010300000061617a"),
    ("req.stats", "1100000000000000887766554433221100ffeeddccbbaa9913"),
    ("req.migrate", "1100000000000000887766554433221100ffeeddccbbaa991404000000000000000300000000000000"),
    ("req.epoch_commit", "1100000000000000887766554433221100ffeeddccbbaa991609000000000000000500000000000000020000000100000003000000050000000a0000000b0000000c0000000d0000000e000000"),
    // Re-captured on purpose, with `req.handoff_frame` and `resp.handoff`,
    // when a migrated key lost its set-member list (the u32 count after the
    // value): the KVS has no set value kind.
    ("req.replicate", "1100000000000000887766554433221100ffeeddccbbaa99170300000005000000706c61696e010100000076000300000000000000060000006c6f636b656400022a00000000000000e803000000000000000000000000000007000000726561646572730100000000010200000001000000000000000a0000000000000002000000000000001400000000000000ffffffffffffffff"),
    ("req.handoff_frame", "1100000000000000887766554433221100ffeeddccbbaa99184d0000000000000002000000010300000005000000706c61696e010100000076000300000000000000060000006c6f636b656400022a00000000000000e803000000000000000000000000000007000000726561646572730100000000010200000001000000000000000a0000000000000002000000000000001400000000000000ffffffffffffffff"),
    ("req.rebuild", "1100000000000000887766554433221100ffeeddccbbaa9919020000000000000004000000"),
    ("req.version_of", "1100000000000000887766554433221100ffeeddccbbaa991a010000006b"),
    ("req.multi_get", "1100000000000000887766554433221100ffeeddccbbaa991b03000000010000006102000000626200000000"),
    ("resp.value_none", "00"),
    ("resp.value_some", "010100000076"),
    ("resp.ok", "02"),
    ("resp.len", "030900000000000000"),
    ("resp.int", "04ffffffffffffffff"),
    ("resp.bool", "0501"),
    ("resp.pong", "07"),
    ("resp.err", "0804000000626f6f6d"),
    ("resp.spans_none", "09"),
    ("resp.spans_some", "0a030000000400000072756e31000000000100000072"),
    ("resp.wrong_epoch", "0b07000000000000000400000000000000"),
    ("resp.stats", "0c03000000000000000a000000000000000010000000000000640000000000000032000000000000000500000000000000020000000000000060e31600000000000c00000000000000e00100000000000002000000000000001f000000000000002823000000000000010000000000000007000000000000000300000000000000"),
    ("resp.handoff", "0d0300000005000000706c61696e010100000076000300000000000000060000006c6f636b656400022a00000000000000e803000000000000000000000000000007000000726561646572730100000000010200000001000000000000000a0000000000000002000000000000001400000000000000ffffffffffffffff"),
    ("resp.repl_ack", "0e0600000000000000"),
    ("resp.not_primary", "0f05000000000000000300000000000000"),
    ("resp.unavailable", "1006000000000000000200000000000000"),
    ("resp.multi_values", "1203000000010100000076000100000000"),
    ("resp.versioned", "110c0000000000000001050000006279746573"),
    ("gw.request", "012a0000000000000005000000616c69636506000000646f75626c65fa00000000000000887766554433221100ffeeddccbbaa990400000001020304"),
    ("gw.frame", "070000007061796c6f6164"),
    ("gw.resp_ok", "02090000000000000000030000006f7574"),
    ("gw.resp_failed", "0209000000000000000107000000030000006f7574"),
    ("gw.resp_error", "0209000000000000000204000000626f6f6d030000006f7574"),
    ("gw.resp_overloaded", "02090000000000000003030000006f7574"),
    ("gw.resp_expired", "02090000000000000004030000006f7574"),
    ("sched.call", "6500000000000000887766554433221100ffeeddccbbaa990600000074656e616e740200000066310100000001"),
    ("sched.result_success", "0400000000000000000400000064617461"),
    ("sched.result_failed", "040000000000000001feffffff0400000064617461"),
    ("sched.result_error", "04000000000000000211000000747261703a206f7574206f66206675656c0400000064617461"),
    ("msg.result", "01040000000000000001020000000400000064617461"),
    ("msg.invoke_batch", "02090000003930000000000000030000002c0000006400000000000000000000000000000000000000000000000600000074656e616e74020000006630000000002d0000006500000000000000887766554433221100ffeeddccbbaa990600000074656e616e7402000000663101000000012e0000006600000000000000000000000000000000000000000000000600000074656e616e74020000006632020000000202"),
    ("msg.prestage", "030600000074656e616e7403000000686f74080000000707070707070707"),
    // Re-captured on purpose, with `proto.chunked_manifest` (whose meta
    // digest moves with it), when the meta chunk gained the upload
    // generation (u64, after the function name): the two vectors that PR
    // changed.
    ("proto.meta_chunk", "05000000616c69636501000000660201000000000000010200000004000000020000000700000000000000ffffffffffffffff030000000105000000000100000000"),
    ("proto.manifest", "abababababababababababababababababababababababababababababababab0200000001010101010101010101010101010101010101010101010101010101010101010202020202020202020202020202020202020202020202020202020202020202"),
    // Re-captured on purpose when a page chunk became the page's block mask
    // and non-zero 4 KiB blocks (`Page::to_chunk`): the page digests now
    // hash that encoding (a zero page is SHA-256 of `0000`), and the meta
    // digest did not move.
    ("proto.chunked_manifest", "01dedb76cf7378a2b67693a69be7d50e01e0c4923e7e4fae98079415a46f89df0200000096a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7a27450b127a268df4a1f0e2ef4dedafc298399e0f21c9feccf7170a5df932788"),
    // Mask 0x0021 (blocks 0 and 5), 8 194 bytes, then the SHA-256.
    ("proto.page_chunk", "210002200000d24989b9c70830d793fe7dc2e9f7b47160dcd600294d1270449fc06f188e4bf5"),
];
