//! Golden wire bytes of the bulk-stats reply and the TLS-sim record it
//! becomes.
//!
//! The hex literals were captured from the commit *before* the
//! bulk-stats data path was rebuilt (borrowed field names, direct record
//! encoding, in-place record layer); a failing comparison prints the
//! bytes the current code produces. Any later change that moves a byte
//! of the frame, the keystream or the MAC fails here — the wire and the
//! TLS cost model are part of the contract, not an implementation detail.
//!
//! The last test pins the reply records that are their own wire form, and
//! the list replies: its literals were produced on the commit before that
//! change by the field-for-field `Wire*` structs and `Wire*List` newtypes
//! the records and the one `Vec` codec replaced.

use virt_core::driver::{
    DomainRecord, DomainState, DomainStatsRecord, MigrationReport, NodeInfo, PoolRecord,
    VolumeRecord,
};
use virt_core::guard::{GuardPolicy, GuardStatus};
use virt_core::job::{JobKind, JobState, JobStats};
use virt_core::protocol::{
    proc, WireDomain, WireDomainStatsList, WireDomainStatsRecord, WireGuardStatus,
};
use virt_core::typedparam::{ParamValue, TypedParam, TypedParamList};
use virt_core::Uuid;
use virt_rpc::message::{encode_frame, Header, Packet, REMOTE_PROGRAM};
use virt_rpc::transport::{memory_pair, TlsSimTransport, Transport, UnixTransport};
use virt_rpc::xdr::{XdrDecode, XdrEncode};

/// A `CONNECT_GET_ALL_DOMAIN_STATS` reply (serial 7) carrying the three
/// records of [`records`], length prefix included.
const GOLDEN_FRAME: &str = concat!(
    "0000021820008086000000010000002500000001000000070000000000000000",
    "00000000000000000000000000000003000000067765622d3031000000000005",
    "0000000b73746174652e7374617465000000000200000001000000086370752e",
    "74696d65000000040000001cbe991a140000000f62616c6c6f6f6e2e63757272",
    "656e74000000000400000000000008000000000f62616c6c6f6f6e2e6d617869",
    "6d756d000000000400000000000010000000000c766370752e63757272656e74",
    "00000002000000020000000264620000000000080000000b73746174652e7374",
    "617465000000000200000003000000086370752e74696d650000000400000000",
    "000000000000000f62616c6c6f6f6e2e63757272656e74000000000400000000",
    "000002000000000f62616c6c6f6f6e2e6d6178696d756d000000000400000000",
    "000002000000000c766370752e63757272656e74000000020000000100000008",
    "6a6f622e6b696e6400000007000000096d6967726174696f6e00000000000009",
    "6a6f622e73746174650000000000000700000009636f6d706c65746564000000",
    "0000000c6a6f622e70726f677265737300000002000000640000000567c3a473",
    "74000000000000040000000d76656e646f722e637573746f6d00000000000003",
    "fffffffffffffffb0000000000000001ffffffff000000046c6f616400000005",
    "3fe8000000000000000000077461696e746564000000000600000001",
);

/// The record `GOLDEN_FRAME` becomes as the third record (sequence
/// number 2) of a TLS-sim session with client nonce 1 and server nonce
/// 2, as the inner transport carries it (no length prefix).
const GOLDEN_RECORD: &str = concat!(
    "b8a76785562c3689d78e549a07d0c2670a72c717044afe7b6e3ea7bb7a3bc2d8",
    "922bf61772b73ef34563ab0e25c2548bb421e4e567f094938a180aba0b58c688",
    "481af48116dc4f7f46dec98e1ddce945b39ab9bfacaeb50625550d1e9565692d",
    "8c44a165c9cb7ce1bb3cb2ed778ba8b36d74a02e6146a773865b55402a814719",
    "f879a437b13d201e0b4ffca93658417937649356d70db777726fa76083275087",
    "c3d74ae86bd5de88acd297d60ca8b1c17f95e90d8018472ed702f0877c42c966",
    "2a1240079f9371edea3a17d8c7a51a3bbf951e99ca1cfd273109f38e7e50cc47",
    "1a72a287d54d1e7d7ef08ae015d488f16a53b968456c8f50ead556de6129bd3c",
    "c14260d828f4d2956b7de09856b04099456113a24d23f4003e097853272ec0d9",
    "ac76a320542dd3622e7418dd54102c7a5a727d903595dacbf90a25ead720b722",
    "acdeb4dc873a82f63fffa0cfbd95724b691399c0edc5b0bb0fdb2b234432a043",
    "12c676fcaedadc8f6760221f0bdfb45606a93dcb10772dc61dcdbd44d6e6160b",
    "b425193482413cb9a4309cfc139d1569a6ce948e2f922daca283d8f4240d452d",
    "2b6c89b33a14be477540052b6c2138058d68f5ece8327f047bc233b89bf48f29",
    "1ee8dfc5410ab08838f5578c3a21e2629b432c71eb5cadcd0f7b6b77661fe951",
    "c671b1d4f1a3f1f965bdbeb402f8c2015f396880e8b64f52ed5e9f282ebdf307",
    "107bee75dfd50cce92025cd692cf5cf9a13023b3d91d8b866677eaf2c1569534",
);

/// The two 64-byte records (sequence numbers 0 and 1) sent before it.
const GOLDEN_PRELUDE: [&str; 2] = [
    concat!(
        "629ca1b4aa63a0909bee281bd5ad830dc710457b8777552f67221c7ec618dc89",
        "a20addd8257b40197631ab5b8c45b2abd59369d45f90cadef37c04867fa910f3",
        "18366ad9508d4582",
    ),
    concat!(
        "ced053be0515ba4dec8f47186d427268f070d49f17b8535512ef9049cb1c82b8",
        "4f411978c46caa340ecbd1144359a33d1b6080031a701945180df19d50d1bb2b",
        "16187b69e472f81f",
    ),
];

const CLIENT_NONCE: u64 = 1;
const SERVER_NONCE: u64 = 2;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// One plain record, one with `job.*` string params, one with a field
/// name outside the stats vocabulary and every remaining value type.
fn records() -> Vec<DomainStatsRecord> {
    vec![
        DomainStatsRecord {
            name: "web-01".to_string(),
            params: vec![
                TypedParam::uint("state.state", 1),
                TypedParam::ullong("cpu.time", 123_456_789_012),
                TypedParam::ullong("balloon.current", 2048),
                TypedParam::ullong("balloon.maximum", 4096),
                TypedParam::uint("vcpu.current", 2),
            ],
        },
        DomainStatsRecord {
            name: "db".to_string(),
            params: vec![
                TypedParam::uint("state.state", 3),
                TypedParam::ullong("cpu.time", 0),
                TypedParam::ullong("balloon.current", 512),
                TypedParam::ullong("balloon.maximum", 512),
                TypedParam::uint("vcpu.current", 1),
                TypedParam::string("job.kind", "migration"),
                TypedParam::string("job.state", "completed"),
                TypedParam::uint("job.progress", 100),
            ],
        },
        DomainStatsRecord {
            name: "gäst".to_string(),
            params: vec![
                TypedParam::new("vendor.custom", ParamValue::LLong(-5)),
                TypedParam::new("", ParamValue::Int(-1)),
                TypedParam::new("load", ParamValue::Double(0.75)),
                TypedParam::boolean("tainted", true),
            ],
        },
    ]
}

fn wire_list() -> WireDomainStatsList {
    WireDomainStatsList(
        records()
            .into_iter()
            .map(|r| WireDomainStatsRecord {
                name: r.name,
                params: TypedParamList(r.params),
            })
            .collect(),
    )
}

fn reply_header() -> Header {
    Header::call(REMOTE_PROGRAM, proc::CONNECT_GET_ALL_DOMAIN_STATS, 7).reply_ok()
}

fn prelude(i: u8) -> Vec<u8> {
    vec![0xa0 + i; 64]
}

/// A TLS-sim client over one end of a memory pair, with the raw other
/// end standing in for the server so the test sees the records as the
/// inner transport carries them.
fn tls_session() -> (TlsSimTransport<UnixTransport>, UnixTransport) {
    let (client_side, raw) = memory_pair();
    // Queue the server's half of the handshake first: memory sends never
    // block, so the client handshake completes on this thread.
    raw.send_frame(&SERVER_NONCE.to_be_bytes()).unwrap();
    let tls = TlsSimTransport::client(client_side, CLIENT_NONCE).unwrap();
    assert_eq!(raw.recv_frame().unwrap(), CLIENT_NONCE.to_be_bytes());
    (tls, raw)
}

#[test]
fn bulk_stats_reply_frame_matches_the_golden_bytes() {
    let mut frame = Vec::new();
    encode_frame(&reply_header(), &wire_list(), &mut frame);
    assert_eq!(hex(&frame), GOLDEN_FRAME);
}

#[test]
fn golden_frame_decodes_to_the_records() {
    let frame = unhex(GOLDEN_FRAME);
    assert_eq!(
        u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize,
        frame.len() - 4
    );
    let packet = Packet::from_body(&frame[4..]).unwrap();
    assert_eq!(packet.header, reply_header());
    let list: WireDomainStatsList = packet.decode_payload().unwrap();
    assert_eq!(list, wire_list());
}

#[test]
fn tls_sim_seals_the_golden_frame_into_the_golden_record() {
    let (tls, raw) = tls_session();
    for (i, golden) in GOLDEN_PRELUDE.iter().enumerate() {
        tls.send_frame(&prelude(i as u8)).unwrap();
        assert_eq!(hex(&raw.recv_frame().unwrap()), *golden);
    }
    tls.send_framed(&unhex(GOLDEN_FRAME)).unwrap();
    assert_eq!(hex(&raw.recv_frame().unwrap()), GOLDEN_RECORD);
}

#[test]
fn tls_sim_opens_the_golden_record_into_the_golden_frame() {
    // Both directions of a session share the key and count sequence
    // numbers independently, so the sealed records open as received ones.
    let (tls, raw) = tls_session();
    for (i, golden) in GOLDEN_PRELUDE.iter().enumerate() {
        raw.send_frame(&unhex(golden)).unwrap();
        assert_eq!(tls.recv_frame().unwrap(), prelude(i as u8));
    }
    raw.send_frame(&unhex(GOLDEN_RECORD)).unwrap();
    let mut body = vec![0xff; 7]; // stale contents must not leak through
    let n = tls.recv_frame_into(&mut body).unwrap();
    let frame = unhex(GOLDEN_FRAME);
    assert_eq!(n, frame.len() - 4);
    assert_eq!(body, &frame[4..]);
}

#[test]
fn tls_sim_rejects_a_golden_record_with_one_bit_flipped() {
    let (tls, raw) = tls_session();
    let mut record = unhex(GOLDEN_PRELUDE[0]);
    record[10] ^= 0x01;
    raw.send_frame(&record).unwrap();
    let mut body = vec![0xff; 7];
    let err = tls.recv_frame_into(&mut body).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(body.is_empty(), "no unverified byte is handed up");
}

/// `value` encodes to exactly `golden`, and `golden` decodes back to it.
fn pin<T: XdrEncode + XdrDecode + PartialEq + std::fmt::Debug>(value: T, golden: &str) {
    assert_eq!(hex(&value.to_xdr()), golden);
    assert_eq!(T::from_xdr(&unhex(golden)).unwrap(), value);
}

fn domain(name: &str, id: Option<u32>, state: DomainState) -> DomainRecord {
    DomainRecord {
        name: name.to_string(),
        uuid: Uuid::from_bytes([name.len() as u8; 16]),
        id,
        state,
        memory_mib: 2048,
        max_memory_mib: 4096,
        vcpus: 8,
        persistent: true,
        has_managed_save: false,
        autostart: id.is_some(),
        cpu_time_ns: 123_456_789,
    }
}

#[test]
fn reply_records_and_lists_encode_as_the_wire_structs_they_replaced() {
    pin(
        NodeInfo {
            hostname: "node-7".into(),
            hypervisor: "qemu".into(),
            cpus: 16,
            memory_mib: 65536,
            free_memory_mib: 4096,
            active_domains: 10,
            inactive_domains: 3,
        },
        concat!(
            "000000066e6f64652d3700000000000471656d75000000100000000000010000",
            "00000000000010000000000a00000003",
        ),
    );
    pin(
        PoolRecord {
            name: "imgs".into(),
            uuid: Uuid::from_bytes([0x11; 16]),
            backend: "dir".into(),
            capacity_mib: 1000,
            allocation_mib: 300,
            active: true,
            volume_count: 2,
        },
        concat!(
            "00000004696d6773111111111111111111111111111111110000000364697200",
            "00000000000003e8000000000000012c0000000100000002",
        ),
    );
    pin(
        VolumeRecord {
            name: "a.img".into(),
            pool: "imgs".into(),
            capacity_mib: 200,
            allocation_mib: 100,
            format: "raw".into(),
            path: "/var/lib/virt/imgs/a.img".into(),
        },
        concat!(
            "00000005612e696d6700000000000004696d677300000000000000c800000000",
            "000000640000000372617700000000182f7661722f6c69622f766972742f696d",
            "67732f612e696d67",
        ),
    );
    pin(
        MigrationReport {
            total_ms: 5321,
            downtime_ms: 87,
            iterations: 4,
            transferred_mib: 2300,
            converged: true,
        },
        "00000000000014c900000000000000570000000400000000000008fc00000001",
    );
    pin(
        JobStats {
            kind: JobKind::Migration,
            state: JobState::Failed,
            elapsed_ms: 1234,
            data_total_mib: 4096,
            data_processed_mib: 1024,
            data_remaining_mib: 3072,
            memory_iterations: 2,
            error: "link down".into(),
            trace_id: 0xabad_cafe,
        },
        concat!(
            "000000010000000300000000000004d200000000000010000000000000000400",
            "0000000000000c0000000002000000096c696e6b20646f776e00000000000000",
            "abadcafe",
        ),
    );

    let domains: Vec<WireDomain> = [
        domain("web", Some(4), DomainState::Running),
        domain("db-1", None, DomainState::Shutoff),
    ]
    .iter()
    .map(WireDomain::from)
    .collect();
    pin(
        domains,
        concat!(
            "0000000200000003776562000303030303030303030303030303030300000000",
            "0000000400000001000000000000080000000000000010000000000800000001",
            "000000000000000100000000075bcd150000000464622d310404040404040404",
            "0404040404040404ffffffffffffffff00000000000000000000080000000000",
            "000010000000000800000001000000000000000000000000075bcd15",
        ),
    );
    let guards: Vec<WireGuardStatus> = [
        GuardStatus {
            domain: "web".into(),
            policy: GuardPolicy::KeepRunning { max_restarts: 6 },
            restarts: 2,
            gave_up: false,
            next_retry: Some(std::time::Duration::from_millis(150)),
            last_event: "crashed".into(),
        },
        GuardStatus {
            domain: "db-1".into(),
            policy: GuardPolicy::AutoResume,
            restarts: 0,
            gave_up: true,
            next_retry: None,
            last_event: "armed".into(),
        },
    ]
    .iter()
    .map(WireGuardStatus::from)
    .collect();
    pin(
        guards,
        concat!(
            "0000000200000003776562000000000100000000000000060000000200000000",
            "0000000100000000000000960000000763726173686564000000000464622d31",
            "0000000200000000000000000000000000000001000000000000000000000000",
            "0000000561726d6564000000",
        ),
    );
    // Scalar lists go through the same codec.
    pin(vec![1u32, 2, 3], "00000003000000010000000200000003");
    pin(
        vec!["a".to_string(), "bcdef".to_string()],
        "000000020000000161000000000000056263646566000000",
    );

    // An unknown job kind or state still falls back, never errors.
    let mut unknown = unhex("0000000900000063");
    unknown.extend_from_slice(&[0; 48]);
    let stats = JobStats::from_xdr(&unknown).unwrap();
    assert_eq!((stats.kind, stats.state), (JobKind::None, JobState::None));
}
