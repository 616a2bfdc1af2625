//! Property tests over virt-core's data structures: URIs, UUIDs, domain
//! XML descriptions, typed parameters, and protocol records.

use std::borrow::Cow;

use std::net::Ipv4Addr;

use hypersim::network::ForwardMode;
use hypersim::{DomainState, PoolBackend};
use proptest::prelude::*;

use virt_core::driver::{DomainRecord, NetworkRecord};
use virt_core::event::{DomainEvent, DomainEventKind};
use virt_core::typedparam::{stats_field, ParamValue, TypedParam, TypedParamList};
use virt_core::uri::ConnectUri;
use virt_core::xmlfmt::{
    DiskConfig, DomainConfig, InterfaceConfig, NetworkConfig, PoolConfig, VolumeConfig,
};
use virt_core::{Capabilities, DomainStatus, GuardPolicy, GuardRecord, Uuid};
use virt_rpc::xdr::{Cursor, XdrDecode, XdrEncode, XdrError, MAX_ITEM_LEN};

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.-]{0,20}"
}

/// Text that needs every kind of escaping the writer knows, and that the
/// decode may therefore not be able to borrow from the document.
fn awkward_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/&<>'\"\u{e9}\u{df}\u{1f980} ._-]{1,20}"
}

fn domain_config_strategy() -> impl Strategy<Value = DomainConfig> {
    (
        name_strategy(),
        1u64..1_000_000,
        0u64..1_000_000,
        1u32..512,
        prop_oneof![
            Just("qemu".to_string()),
            Just("xen".to_string()),
            Just("lxc".to_string()),
            Just("esx".to_string())
        ],
        0u64..10_000,
        proptest::collection::vec((name_strategy(), awkward_text(), 0u64..100_000), 0..4),
        proptest::collection::vec(awkward_text(), 0..3),
        proptest::bool::ANY,
    )
        .prop_map(
            |(name, memory, extra_max, vcpus, domain_type, dirty, disks, nics, with_uuid)| {
                let mut config = DomainConfig::new(name, memory, vcpus);
                config.max_memory_mib = memory + extra_max;
                config.domain_type = domain_type;
                config.dirty_rate_mib_s = dirty;
                if with_uuid {
                    config.uuid = Some(Uuid::generate());
                }
                for (i, (target, source, capacity)) in disks.into_iter().enumerate() {
                    config.disks.push(DiskConfig {
                        target: format!("{target}{i}"),
                        source: format!("/img/{source}"),
                        capacity_mib: capacity,
                        bus: "virtio".to_string(),
                    });
                }
                for (i, network) in nics.into_iter().enumerate() {
                    config.interfaces.push(InterfaceConfig {
                        mac: format!("52:54:00:00:00:{i:02x}"),
                        network,
                        model: "virtio".to_string(),
                    });
                }
                config
            },
        )
}

proptest! {
    /// Domain descriptions survive the XML round trip exactly.
    #[test]
    fn domain_config_xml_round_trips(config in domain_config_strategy()) {
        let xml = config.to_xml_string();
        let parsed = DomainConfig::from_xml_str(&xml).expect("own xml parses");
        prop_assert_eq!(parsed, config);
    }

    /// The decode reads an owned tree exactly as it reads the text.
    #[test]
    fn domain_config_decodes_alike_from_text_and_from_a_tree(config in domain_config_strategy()) {
        let tree = config.to_xml();
        prop_assert_eq!(DomainConfig::from_xml(&tree).expect("own tree decodes"), config.clone());
        // Pretty-printed: whitespace text between the elements.
        let pretty = tree.to_pretty_string();
        prop_assert_eq!(DomainConfig::from_xml_str(&pretty).expect("pretty form decodes"), config);
    }

    /// The other resource descriptions survive the XML round trip exactly.
    #[test]
    fn network_pool_and_volume_configs_round_trip(
        name in name_strategy(),
        with_uuid: bool,
        bridge in awkward_text(),
        forward in prop_oneof![
            Just(ForwardMode::Nat), Just(ForwardMode::Route),
            Just(ForwardMode::Isolated), Just(ForwardMode::Bridge)
        ],
        subnet: [u8; 4],
        backend in prop_oneof![
            Just(PoolBackend::Dir), Just(PoolBackend::Logical),
            Just(PoolBackend::Iscsi), Just(PoolBackend::NetFs)
        ],
        capacity in 0u64..u64::MAX,
        path in awkward_text(),
        format in awkward_text(),
    ) {
        let mut network = NetworkConfig::new(name.clone(), Ipv4Addr::from(subnet));
        network.uuid = with_uuid.then(Uuid::generate);
        network.bridge = bridge;
        network.forward = forward;
        let parsed = NetworkConfig::from_xml_str(&network.to_xml_string()).expect("own xml parses");
        prop_assert_eq!(parsed, network);

        let mut pool = PoolConfig::new(name.clone(), backend, capacity);
        pool.target_path = path;
        let parsed = PoolConfig::from_xml_str(&pool.to_xml_string()).expect("own xml parses");
        prop_assert_eq!(parsed, pool);

        let mut volume = VolumeConfig::new(name, capacity);
        volume.format = format;
        let parsed = VolumeConfig::from_xml_str(&volume.to_xml_string()).expect("own xml parses");
        prop_assert_eq!(parsed, volume);
    }

    /// The state directory's records survive the XML round trip exactly.
    #[test]
    fn status_and_guard_records_round_trip(
        name in awkward_text(),
        uuid: [u8; 16],
        state in prop_oneof![
            Just(DomainState::Shutoff), Just(DomainState::Running), Just(DomainState::Paused),
            Just(DomainState::Saved), Just(DomainState::Crashed)
        ],
        autostart: bool,
        has_managed_save: bool,
        policy in prop_oneof![
            any::<u32>().prop_map(|max_restarts| GuardPolicy::KeepRunning { max_restarts }),
            Just(GuardPolicy::AutoResume),
            any::<u64>().prop_map(|timeout_ms| GuardPolicy::GracefulStop { timeout_ms }),
        ],
    ) {
        let status = DomainStatus {
            name: name.clone(),
            uuid: Uuid::from_bytes(uuid),
            state,
            autostart,
            has_managed_save,
        };
        let parsed = DomainStatus::from_xml_str(&status.to_xml_string()).expect("own xml parses");
        prop_assert_eq!(parsed, status);

        let record = GuardRecord { domain: name, policy };
        let parsed = GuardRecord::from_xml_str(&record.to_xml_string()).expect("own xml parses");
        prop_assert_eq!(parsed, record);
    }

    /// Capabilities documents survive the round trip.
    #[test]
    fn capabilities_round_trip(
        hypervisor in awkward_text(),
        virt_kind in awkward_text(),
        max_vcpus: u32,
        features in proptest::collection::vec(name_strategy(), 0..5),
    ) {
        let caps = Capabilities { hypervisor, virt_kind, max_vcpus, features };
        let parsed = Capabilities::from_xml_str(&caps.to_xml_string()).expect("own xml parses");
        prop_assert_eq!(parsed, caps);
    }

    /// Config → hypersim spec → config is lossless for all fields the
    /// spec carries.
    #[test]
    fn domain_config_spec_round_trips(config in domain_config_strategy()) {
        let spec = config.to_spec();
        let uuid = config.uuid.unwrap_or(Uuid::NIL);
        let back = DomainConfig::from_spec(&spec, &config.domain_type, uuid);
        prop_assert_eq!(back.name, config.name);
        prop_assert_eq!(back.memory_mib, config.memory_mib);
        prop_assert_eq!(back.max_memory_mib, config.max_memory_mib);
        prop_assert_eq!(back.vcpus, config.vcpus);
        prop_assert_eq!(back.disks, config.disks);
        prop_assert_eq!(back.interfaces, config.interfaces);
        prop_assert_eq!(back.dirty_rate_mib_s, config.dirty_rate_mib_s);
    }

    /// The XML parser never panics on arbitrary input.
    #[test]
    fn domain_xml_parser_never_panics(input in "\\PC{0,300}") {
        let _ = DomainConfig::from_xml_str(&input);
    }

    /// UUID display/parse round trip.
    #[test]
    fn uuid_round_trips(bytes: [u8; 16]) {
        let uuid = Uuid::from_bytes(bytes);
        let parsed: Uuid = uuid.to_string().parse().expect("canonical form parses");
        prop_assert_eq!(parsed, uuid);
    }

    /// The UUID parser never panics.
    #[test]
    fn uuid_parser_never_panics(input in "\\PC{0,64}") {
        let _ = input.parse::<Uuid>();
    }

    /// URI display → parse round trip over structured inputs.
    #[test]
    fn uri_round_trips(
        driver in "[a-z][a-z0-9]{0,8}",
        transport in proptest::option::of(prop_oneof![
            Just("unix"), Just("tcp"), Just("tls"), Just("memory")
        ]),
        user in proptest::option::of("[a-z]{1,8}"),
        host in proptest::option::of("[a-z][a-z0-9.-]{0,15}"),
        port in proptest::option::of(1u16..),
        path in prop_oneof![Just(String::new()), Just("/system".to_string()), Just("/a/b".to_string())],
    ) {
        // Ports and users require a host in the canonical form.
        let host_part = host.clone().unwrap_or_default();
        let mut text = driver.clone();
        if let Some(t) = transport { text.push('+'); text.push_str(t); }
        text.push_str("://");
        if let (Some(u), false) = (&user, host_part.is_empty()) {
            text.push_str(u);
            text.push('@');
        }
        text.push_str(&host_part);
        if let (Some(p), false) = (port, host_part.is_empty()) {
            text.push_str(&format!(":{p}"));
        }
        text.push_str(&path);

        let parsed: ConnectUri = text.parse().expect("constructed uri parses");
        prop_assert_eq!(parsed.to_string(), text.clone());
        // Reparse of the display form is stable.
        let reparsed: ConnectUri = text.parse().expect("display form parses");
        prop_assert_eq!(reparsed, parsed);
    }

    /// The URI parser never panics.
    #[test]
    fn uri_parser_never_panics(input in "\\PC{0,100}") {
        let _ = input.parse::<ConnectUri>();
    }

    /// Typed parameter lists round-trip XDR for every value type.
    #[test]
    fn typed_params_round_trip(
        params in proptest::collection::vec(
            (name_strategy(), prop_oneof![
                any::<i32>().prop_map(ParamValue::Int),
                any::<u32>().prop_map(ParamValue::UInt),
                any::<i64>().prop_map(ParamValue::LLong),
                any::<u64>().prop_map(ParamValue::ULLong),
                proptest::num::f64::NORMAL.prop_map(ParamValue::Double),
                any::<bool>().prop_map(ParamValue::Boolean),
                "\\PC{0,20}".prop_map(ParamValue::Str),
            ]),
            0..8,
        )
    ) {
        let list = TypedParamList(
            params.into_iter().map(|(f, v)| TypedParam::new(f, v)).collect(),
        );
        let decoded = TypedParamList::from_xdr(&list.to_xdr()).expect("decode");
        prop_assert_eq!(decoded, list);
    }

    /// A parameter's name survives the wire whatever it is — one of the
    /// stats vocabulary (decoded borrowed), unknown (decoded owned),
    /// empty, multi-byte, any padding width — and the decoder's choice of
    /// representation is invisible to equality.
    #[test]
    fn typed_param_names_round_trip(
        name in prop_oneof![
            (0usize..stats_field::ALL.len()).prop_map(|i| stats_field::ALL[i].to_string()),
            "\\PC{0,24}",
            // A known name with something appended or cut off is unknown.
            (0usize..stats_field::ALL.len(), "[a-z.]{1,3}")
                .prop_map(|(i, tail)| format!("{}{tail}", stats_field::ALL[i])),
            (0usize..stats_field::ALL.len())
                .prop_map(|i| stats_field::ALL[i][1..].to_string()),
        ],
        value: u32,
    ) {
        let param = TypedParam::uint(name.clone(), value);
        let encoded = param.to_xdr();
        prop_assert_eq!(encoded.len() % 4, 0);
        let decoded = TypedParam::from_xdr(&encoded).expect("decode");
        prop_assert_eq!(&decoded, &param);
        prop_assert_eq!(&*decoded.field, name.as_str());
        let known = stats_field::ALL.contains(&name.as_str());
        prop_assert_eq!(matches!(decoded.field, Cow::Borrowed(_)), known);
        // Same bytes as a plain string name followed by the value.
        let mut plain = name.to_xdr();
        2u32.encode(&mut plain);
        value.encode(&mut plain);
        prop_assert_eq!(encoded, plain);
    }

    /// A damaged parameter name is rejected exactly as a damaged string
    /// is: same variant from `TypedParam::decode` as from
    /// `String::decode` over the same bytes.
    #[test]
    fn typed_param_name_errors_are_string_errors(
        name in "\\PC{1,24}",
        junk in 1u8..=255,
        damage in 0usize..4,
    ) {
        let mut encoded = TypedParam::uint(name.clone(), 7).to_xdr();
        let name_len = name.to_xdr().len();
        match damage {
            0 => encoded[4] = 0xff,                       // invalid UTF-8
            1 => encoded[name_len - 1] = junk,            // padding, or the text's last byte
            2 => encoded[..4].copy_from_slice(&(MAX_ITEM_LEN + 1).to_be_bytes()),
            _ => encoded.truncate(name_len - 1),          // cut inside the name
        }
        let as_string = String::decode(&mut Cursor::new(&encoded)).map(drop);
        let as_param = TypedParam::decode(&mut Cursor::new(&encoded)).map(drop);
        if let Err(expected) = as_string {
            prop_assert_eq!(as_param, Err(expected));
        }
    }

    /// A declared list length never makes the decoder reserve more than
    /// the bytes behind it could hold, and is still rejected as short.
    #[test]
    fn typed_param_list_length_is_bounded_by_the_input(declared in 1u32..=4096, present in 0usize..3) {
        let mut encoded = Vec::new();
        declared.encode(&mut encoded);
        for _ in 0..present.min(declared as usize - 1) {
            TypedParam::uint("", 1).encode(&mut encoded);
        }
        prop_assert!(matches!(
            TypedParamList::from_xdr(&encoded),
            Err(XdrError::UnexpectedEnd { .. })
        ));
    }

    /// Domain records survive their wire form regardless of field values.
    #[test]
    fn wire_domain_round_trips(
        name in "\\PC{0,40}",
        uuid: [u8; 16],
        id in proptest::option::of(any::<u32>()),
        state in 0u32..5,
        memory: u64,
        vcpus: u32,
        persistent: bool,
        has_managed_save: bool,
        autostart: bool,
        cpu_time_ns: u64,
    ) {
        let record = DomainRecord {
            name,
            uuid: Uuid::from_bytes(uuid),
            id,
            state: virt_core::DomainState::from(state),
            memory_mib: memory,
            max_memory_mib: memory,
            vcpus,
            persistent,
            has_managed_save,
            autostart,
            cpu_time_ns,
        };
        let decoded = DomainRecord::from_xdr(&record.to_xdr()).expect("decode");
        prop_assert_eq!(decoded, record);
    }

    /// Network records survive encoding, their leases as three parallel
    /// arrays.
    #[test]
    fn network_record_round_trips(
        name in name_strategy(),
        uuid: [u8; 16],
        bridge in "\\PC{0,16}",
        forward in "\\PC{0,8}",
        active: bool,
        leases in proptest::collection::vec(
            ("\\PC{0,17}", "\\PC{0,15}", name_strategy()),
            0..6,
        ),
    ) {
        let record = NetworkRecord {
            name,
            uuid: Uuid::from_bytes(uuid),
            bridge,
            forward,
            active,
            leases,
        };
        let decoded = NetworkRecord::from_xdr(&record.to_xdr()).expect("decode");
        prop_assert_eq!(decoded, record);
    }

    /// Events of every kind survive encoding.
    #[test]
    fn domain_event_round_trips(
        domain in "\\PC{0,40}",
        uuid: [u8; 16],
        kind in 0u32..15,
        trace_id: u64,
    ) {
        let event = DomainEvent {
            domain,
            uuid: Uuid::from_bytes(uuid),
            kind: DomainEventKind::from_u32(kind).expect("a known kind"),
            trace_id,
        };
        let decoded = DomainEvent::from_xdr(&event.to_xdr()).expect("decode");
        prop_assert_eq!(decoded, event);
    }
}

/// A domain record as a peer might build it: name "vm", UUID of 7s, then
/// the id and state words as given, the rest fixed.
fn domain_bytes(id: i64, state: u32) -> Vec<u8> {
    let mut bytes = "vm".to_xdr();
    bytes.extend_from_slice(&[7; 16]);
    id.encode(&mut bytes);
    state.encode(&mut bytes);
    for field in [512u64, 1024] {
        field.encode(&mut bytes);
    }
    2u32.encode(&mut bytes);
    for flag in [true, false, true] {
        flag.encode(&mut bytes);
    }
    99u64.encode(&mut bytes);
    bytes
}

#[test]
fn a_negative_domain_id_decodes_as_none() {
    for id in [-1, -7, i64::MIN] {
        let record = DomainRecord::from_xdr(&domain_bytes(id, 1)).expect("decode");
        assert_eq!(record.id, None, "id {id}");
        assert_eq!(record.state, virt_core::DomainState::Running);
    }
    let record = DomainRecord::from_xdr(&domain_bytes(12, 1)).expect("decode");
    assert_eq!(record.id, Some(12));
    assert_eq!((record.memory_mib, record.max_memory_mib), (512, 1024));
    assert_eq!(record.vcpus, 2);
    assert!(record.persistent && !record.has_managed_save && record.autostart);
    assert_eq!(record.cpu_time_ns, 99);
    // An encoded inactive record is those bytes exactly.
    assert_eq!(
        DomainRecord { id: None, ..record }.to_xdr(),
        domain_bytes(-1, 1)
    );
}

#[test]
fn an_unknown_domain_state_decodes_as_shutoff() {
    for state in [5, 77, u32::MAX] {
        let record = DomainRecord::from_xdr(&domain_bytes(3, state)).expect("decode");
        assert_eq!(
            record.state,
            virt_core::DomainState::Shutoff,
            "state {state}"
        );
        assert_eq!(record.id, Some(3));
    }
}

#[test]
fn an_event_of_unknown_kind_fails_its_decode() {
    let mut bytes = "vm".to_xdr();
    bytes.extend_from_slice(&[7; 16]);
    15u32.encode(&mut bytes);
    0u64.encode(&mut bytes);
    assert_eq!(
        DomainEvent::from_xdr(&bytes).unwrap_err(),
        XdrError::InvalidDiscriminant(15)
    );
}

/// What a schema violation says is part of the wire contract (the text
/// travels in the error reply); these are the messages of the decode that
/// read an owned tree, captured before it was replaced.
#[test]
fn schema_errors_keep_their_messages() {
    use virt_core::ErrorCode::{InvalidArg, XmlError};
    let domain = |body: &str| DomainConfig::from_xml_str(body).unwrap_err();
    let cases = [
        (
            domain("<domain><memory>1</memory><vcpu>1</vcpu></domain>"),
            XmlError,
            "<domain> is missing required <name> element",
        ),
        (
            domain("<domain><name>  </name><memory>1</memory><vcpu>1</vcpu></domain>"),
            XmlError,
            "<domain> is missing required <name> element",
        ),
        (
            domain("<domain><name>x<!-- c --></name><memory>1</memory><vcpu>1</vcpu></domain>"),
            XmlError,
            "<domain> is missing required <name> element",
        ),
        (
            domain("<domain><name>x</name><memory> lots </memory><vcpu>1</vcpu></domain>"),
            XmlError,
            "<memory> value 'lots' is not a number",
        ),
        (
            domain("<domain><name>x</name><memory>1</memory><vcpu>-1</vcpu></domain>"),
            XmlError,
            "<vcpu> value '-1' is not a number",
        ),
        (
            domain("<domain><name>x</name><memory>1</memory></domain>"),
            XmlError,
            "<domain> is missing required <vcpu> element",
        ),
        (
            domain("<domain><name>x</name><uuid>nope</uuid><memory>1</memory><vcpu>1</vcpu></domain>"),
            InvalidArg,
            "malformed uuid 'nope'",
        ),
        (
            domain("<network><name>x</name></network>"),
            XmlError,
            "expected <domain> document, found <network>",
        ),
        (
            domain(
                "<domain><name>d</name><memory>1</memory><vcpu>1</vcpu>\
                 <devices><disk><source file='/x'/></disk></devices></domain>",
            ),
            XmlError,
            "<disk> is missing <target>",
        ),
        (
            domain(
                "<domain><name>d</name><memory>1</memory><vcpu>1</vcpu>\
                 <devices><disk><target bus='ide'/></disk></devices></domain>",
            ),
            XmlError,
            "<target> is missing dev=",
        ),
        (
            domain(
                "<domain><name>d</name><memory>1</memory><vcpu>1</vcpu>\
                 <devices><disk><target dev='a'/><capacity>big</capacity></disk></devices></domain>",
            ),
            XmlError,
            "<capacity> value 'big' is not a number",
        ),
        (
            domain(
                "<domain><name>d</name><memory>1</memory><vcpu>1</vcpu>\
                 <devices><interface type='network'/></devices></domain>",
            ),
            XmlError,
            "<interface> is missing <mac address=>",
        ),
        (
            domain("<domain><name>x</name>"),
            XmlError,
            "unexpected end of input at byte 22 (element <domain> is never closed)",
        ),
        (
            NetworkConfig::from_xml_str("<pool/>").unwrap_err(),
            XmlError,
            "expected <network> document, found <pool>",
        ),
        (
            NetworkConfig::from_xml_str("<network><name>n</name></network>").unwrap_err(),
            XmlError,
            "<network> is missing <ip address=>",
        ),
        (
            NetworkConfig::from_xml_str("<network><name>n</name><ip address='x'/></network>")
                .unwrap_err(),
            XmlError,
            "bad ip address: invalid IPv4 address syntax",
        ),
        (
            PoolConfig::from_xml_str("<pool><name>p</name></pool>").unwrap_err(),
            XmlError,
            "<pool> is missing required <capacity> element",
        ),
        (
            VolumeConfig::from_xml_str("<volume><capacity>1</capacity></volume>").unwrap_err(),
            XmlError,
            "<volume> is missing required <name> element",
        ),
        (
            DomainStatus::from_xml_str("<wat/>").unwrap_err(),
            XmlError,
            "domstatus: invalid root element",
        ),
        (
            DomainStatus::from_xml_str("<domstatus/>").unwrap_err(),
            XmlError,
            "domstatus: invalid name",
        ),
        (
            DomainStatus::from_xml_str("<domstatus").unwrap_err(),
            XmlError,
            "domstatus: unexpected end of input at byte 10 (in start tag)",
        ),
        (
            GuardRecord::from_xml_str("<guard policy='auto-resume' param='0'><domain/></guard>")
                .unwrap_err(),
            XmlError,
            "guard: invalid domain",
        ),
        (
            GuardRecord::from_xml_str("<guard policy='nap' param='0'><domain>d</domain></guard>")
                .unwrap_err(),
            XmlError,
            "guard: invalid policy",
        ),
        (
            Capabilities::from_xml_str("<caps/>").unwrap_err(),
            XmlError,
            "expected <capabilities>, found <caps>",
        ),
        (
            Capabilities::from_xml_str("<capabilities/>").unwrap_err(),
            XmlError,
            "missing <guest>",
        ),
    ];
    for (err, code, message) in cases {
        assert_eq!((err.code(), err.message()), (code, message));
    }
}
