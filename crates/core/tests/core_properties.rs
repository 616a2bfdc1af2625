//! Property tests over virt-core's data structures: URIs, UUIDs, domain
//! XML descriptions, typed parameters, and protocol records.

use std::borrow::Cow;

use proptest::prelude::*;

use virt_core::protocol::WireDomain;
use virt_core::typedparam::{stats_field, ParamValue, TypedParam, TypedParamList};
use virt_core::uri::ConnectUri;
use virt_core::xmlfmt::{DiskConfig, DomainConfig, InterfaceConfig};
use virt_core::Uuid;
use virt_rpc::xdr::{Cursor, XdrDecode, XdrEncode, XdrError, MAX_ITEM_LEN};

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.-]{0,20}"
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
        proptest::collection::vec((name_strategy(), name_strategy(), 0u64..100_000), 0..4),
        proptest::collection::vec(name_strategy(), 0..3),
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

    /// Wire domain records survive encoding regardless of field values.
    #[test]
    fn wire_domain_round_trips(
        name in "\\PC{0,40}",
        uuid: [u8; 16],
        id in -1i64..100_000,
        state in 0u32..5,
        memory: u64,
        vcpus: u32,
        persistent: bool,
        autostart: bool,
    ) {
        let wire = WireDomain {
            name,
            uuid,
            id,
            state,
            memory_mib: memory,
            max_memory_mib: memory,
            vcpus,
            persistent,
            has_managed_save: false,
            autostart,
            cpu_time_ns: 0,
        };
        let decoded = WireDomain::from_xdr(&wire.to_xdr()).expect("decode");
        prop_assert_eq!(decoded, wire);
    }
}
