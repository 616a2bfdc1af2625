//! The keepalive (ping/pong) protocol.
//!
//! Either side of a connection may probe liveness: every `interval` it
//! sends a ping; each unanswered ping increments a counter, and when the
//! counter exceeds `count` the connection is declared dead. Any pong (or
//! any other traffic, in libvirt; here: any pong) resets the counter.
//!
//! The probing side's timing is part of the client session's state
//! machine (`session.rs`), which the reconnecting client's listener
//! ticks; the daemon only answers.

use std::time::Duration;

use crate::message::{Header, Packet, KEEPALIVE_PROGRAM};

/// Procedure number of a keepalive ping.
pub const PROC_PING: u32 = 1;
/// Procedure number of a keepalive pong.
pub const PROC_PONG: u32 = 2;
/// Procedure number of a farewell message: an orderly shutdown sends one
/// last `bye` before closing transports, so the peer can distinguish a
/// clean daemon shutdown from a crash or network partition.
pub const PROC_BYE: u32 = 3;

/// Builds a ping packet.
pub fn ping_packet() -> Packet {
    Packet::new(Header::event(KEEPALIVE_PROGRAM, PROC_PING), &())
}

/// Builds a pong packet.
pub fn pong_packet() -> Packet {
    Packet::new(Header::event(KEEPALIVE_PROGRAM, PROC_PONG), &())
}

/// Returns the pong to send if `packet` is a keepalive ping, and `None`
/// otherwise. Connection loops call this before their own dispatch.
pub fn respond(packet: &Packet) -> Option<Packet> {
    (packet.header.program == KEEPALIVE_PROGRAM && packet.header.procedure == PROC_PING)
        .then(pong_packet)
}

/// `true` when `packet` is a keepalive pong.
pub fn is_pong(packet: &Packet) -> bool {
    packet.header.program == KEEPALIVE_PROGRAM && packet.header.procedure == PROC_PONG
}

/// Builds a farewell packet (clean-shutdown notification).
pub fn bye_packet() -> Packet {
    Packet::new(Header::event(KEEPALIVE_PROGRAM, PROC_BYE), &())
}

/// `true` when `packet` is a farewell message.
pub fn is_bye(packet: &Packet) -> bool {
    packet.header.program == KEEPALIVE_PROGRAM && packet.header.procedure == PROC_BYE
}

/// Configuration of the probing side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeepaliveConfig {
    /// Time between pings.
    pub interval: Duration,
    /// Unanswered pings tolerated before declaring the peer dead.
    pub count: u32,
}

impl Default for KeepaliveConfig {
    /// libvirt's defaults: 5 s interval, 5 missed pings.
    fn default() -> Self {
        KeepaliveConfig {
            interval: Duration::from_secs(5),
            count: 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, Tick};
    use std::time::Instant;

    fn cfg(interval_ms: u64, count: u32) -> KeepaliveConfig {
        KeepaliveConfig {
            interval: Duration::from_millis(interval_ms),
            count,
        }
    }

    #[test]
    fn ping_pong_packets_round_trip_classification() {
        let ping = ping_packet();
        let pong = pong_packet();
        assert!(respond(&ping).is_some());
        assert!(respond(&pong).is_none());
        assert!(is_pong(&pong));
        assert!(!is_pong(&ping));
    }

    #[test]
    fn bye_packets_classify_and_never_elicit_a_pong() {
        let bye = bye_packet();
        assert!(is_bye(&bye));
        assert!(!is_bye(&ping_packet()));
        assert!(!is_pong(&bye));
        assert!(respond(&bye).is_none());
    }

    #[test]
    fn respond_ignores_other_programs() {
        let other = Packet::new(
            Header::call(crate::message::REMOTE_PROGRAM, PROC_PING, 1),
            &(),
        );
        assert!(respond(&other).is_none());
    }

    /// A session probing every `interval_ms` on generation 1.
    fn probing(interval_ms: u64, count: u32, now: Instant) -> Session {
        Session::new(0, true, Some(cfg(interval_ms, count)), 7, now)
    }

    #[test]
    fn waits_until_interval_elapses() {
        let t0 = Instant::now();
        let mut session = probing(1000, 3, t0);
        assert_eq!(
            session.tick(1, t0),
            Tick::Wait(t0 + Duration::from_millis(1000))
        );
    }

    #[test]
    fn sends_ping_after_interval() {
        let t0 = Instant::now();
        let mut session = probing(100, 3, t0);
        let t1 = t0 + Duration::from_millis(150);
        assert_eq!(session.tick(1, t1), Tick::Ping);
        // Next ping scheduled one interval later.
        assert_eq!(
            session.tick(1, t1),
            Tick::Wait(t1 + Duration::from_millis(100))
        );
    }

    #[test]
    fn pong_resets_the_counter() {
        let t0 = Instant::now();
        let mut session = probing(100, 2, t0);
        let mut now = t0;
        for _ in 0..2 {
            now += Duration::from_millis(100);
            assert_eq!(session.tick(1, now), Tick::Ping);
        }
        // A pong from another generation is no answer to these pings.
        session.pong(0);
        now += Duration::from_millis(100);
        let mut answered = session.clone();
        assert_eq!(session.tick(1, now), Tick::GiveUp);
        answered.pong(1);
        assert_eq!(answered.tick(1, now), Tick::Ping);
    }

    #[test]
    fn silence_kills_the_connection_after_count_pings() {
        let t0 = Instant::now();
        let count = 3;
        let mut session = probing(100, count, t0);
        let mut now = t0;
        for _ in 0..count {
            now += Duration::from_millis(100);
            assert_eq!(session.tick(1, now), Tick::Ping);
        }
        now += Duration::from_millis(100);
        assert_eq!(session.tick(1, now), Tick::GiveUp);
        // Given up: the generation has nothing left to probe.
        assert_eq!(session.tick(1, now), Tick::Idle);
    }

    #[test]
    fn default_config_matches_libvirt() {
        let d = KeepaliveConfig::default();
        assert_eq!(d.interval, Duration::from_secs(5));
        assert_eq!(d.count, 5);
    }
}
