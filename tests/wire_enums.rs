//! Every wire enum's numbers and names, pinned.
//!
//! `golden/wire_enums.txt` (`type variant number name`, one line per
//! variant) was captured from the hand-written `as_u32`/`from_u32`/
//! `Display` functions the `wire_enum!` tables replaced, so a row that
//! renumbers or renames a variant fails here and prints the lines the
//! current tables produce. The names of the types that had none
//! (`EventPhase`, `MessageType`, `MessageStatus`, `DomainEventKind`) were
//! captured from the maps their callers kept by hand, or chosen then.

use std::collections::HashSet;
use std::fmt::Debug;

use virt_core::event::DomainEventKind;
use virt_core::log::LogLevel;
use virt_core::metrics::recorder::EventPhase;
use virt_core::metrics::span::Stage;
use virt_core::{DomainState, ErrorCode, JobKind, JobState};
use virt_rpc::message::{MessageStatus, MessageType};
use virt_rpc::TransportKind;

const GOLDEN: &str = include_str!("golden/wire_enums.txt");

/// What the test reads off every wire enum: its table and conversions.
struct Table {
    ty: &'static str,
    rows: Vec<(String, u32, &'static str)>,
    /// `from_u32(as_u32(v)) == Some(v)` for every variant.
    round_trips: bool,
}

fn table<T: Copy + PartialEq + Debug>(
    ty: &'static str,
    all: &[T],
    as_u32: fn(T) -> u32,
    from_u32: fn(u32) -> Option<T>,
    name: fn(T) -> &'static str,
) -> Table {
    Table {
        ty,
        rows: all
            .iter()
            .map(|&v| (format!("{v:?}"), as_u32(v), name(v)))
            .collect(),
        round_trips: all.iter().all(|&v| from_u32(as_u32(v)) == Some(v)),
    }
}

fn tables() -> Vec<Table> {
    vec![
        table(
            "Stage",
            Stage::ALL,
            Stage::as_u32,
            Stage::from_u32,
            Stage::name,
        ),
        table(
            "EventPhase",
            EventPhase::ALL,
            EventPhase::as_u32,
            EventPhase::from_u32,
            EventPhase::name,
        ),
        table(
            "MessageType",
            MessageType::ALL,
            MessageType::as_u32,
            MessageType::from_u32,
            MessageType::name,
        ),
        table(
            "MessageStatus",
            MessageStatus::ALL,
            MessageStatus::as_u32,
            MessageStatus::from_u32,
            MessageStatus::name,
        ),
        table(
            "TransportKind",
            TransportKind::ALL,
            TransportKind::as_u32,
            TransportKind::from_u32,
            TransportKind::name,
        ),
        table(
            "DomainState",
            DomainState::ALL,
            DomainState::as_u32,
            DomainState::from_u32,
            DomainState::name,
        ),
        table(
            "DomainEventKind",
            DomainEventKind::ALL,
            DomainEventKind::as_u32,
            DomainEventKind::from_u32,
            DomainEventKind::name,
        ),
        table(
            "JobKind",
            JobKind::ALL,
            JobKind::as_u32,
            JobKind::from_u32,
            JobKind::name,
        ),
        table(
            "JobState",
            JobState::ALL,
            JobState::as_u32,
            JobState::from_u32,
            JobState::name,
        ),
        table(
            "ErrorCode",
            ErrorCode::ALL,
            ErrorCode::as_u32,
            ErrorCode::from_u32,
            ErrorCode::name,
        ),
        table(
            "LogLevel",
            LogLevel::ALL,
            LogLevel::as_u32,
            LogLevel::from_u32,
            LogLevel::name,
        ),
    ]
}

#[test]
fn every_variant_matches_the_golden_numbers_and_names() {
    let current: Vec<String> = tables()
        .iter()
        .flat_map(|t| {
            t.rows
                .iter()
                .map(|(variant, number, name)| format!("{} {variant} {number} {name}", t.ty))
        })
        .collect();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    if current != golden {
        println!("{}", current.join("\n"));
        panic!(
            "wire enums differ from tests/golden/wire_enums.txt ({} lines now, {} golden); \
             the current lines are printed above",
            current.len(),
            golden.len()
        );
    }
}

#[test]
fn numbers_and_names_are_a_bijection_per_type() {
    for t in tables() {
        assert!(t.round_trips, "{}: from_u32(as_u32(v)) != Some(v)", t.ty);
        let numbers: HashSet<u32> = t.rows.iter().map(|r| r.1).collect();
        let names: HashSet<&str> = t.rows.iter().map(|r| r.2).collect();
        assert_eq!(numbers.len(), t.rows.len(), "{}: a number twice", t.ty);
        assert_eq!(names.len(), t.rows.len(), "{}: a name twice", t.ty);
    }
}

#[test]
fn unknown_numbers_follow_each_types_rule() {
    // No variant: the caller decides (an event of an unknown kind is
    // dropped, a header with an unknown type is an XDR error).
    assert_eq!(DomainEventKind::from_u32(99), None);
    assert_eq!(Stage::from_u32(11), None);
    assert_eq!(MessageType::from_u32(3), None);
    // A fallback variant, so that a newer peer's values do not fail a
    // whole record.
    assert_eq!(DomainState::from(77), DomainState::Shutoff);
    assert_eq!(JobKind::from(99), JobKind::None);
    assert_eq!(JobState::from(99), JobState::None);
    assert_eq!(ErrorCode::from(9999), ErrorCode::Internal);
    // An error naming the range.
    for bad in [0, 5] {
        let err = LogLevel::try_from(bad).unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArg);
        assert!(err.message().contains("out of range 1-4"), "{err}");
    }
}

#[test]
fn log_levels_order_by_number() {
    let mut sorted = LogLevel::ALL.to_vec();
    sorted.sort();
    assert_eq!(sorted, LogLevel::ALL);
    assert!(LogLevel::Debug < LogLevel::Error);
}
