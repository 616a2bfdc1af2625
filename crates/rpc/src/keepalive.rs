//! The keepalive (ping/pong) protocol.
//!
//! Either side of a connection may probe liveness: every `interval` it
//! sends a ping; each unanswered ping increments a counter, and when the
//! counter exceeds `count` the connection is declared dead. Any pong (or
//! any other traffic, in libvirt; here: any pong) resets the counter.
//!
//! The timing policy is implemented as a pure state machine
//! ([`KeepaliveState`]) so it can be tested without threads or clocks; the
//! daemon and remote driver drive it from their own timers.

use std::time::{Duration, Instant};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// What the driver of the state machine should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepaliveAction {
    /// Nothing to do until the returned deadline.
    Wait(Instant),
    /// Send a ping now.
    SendPing,
    /// The peer is dead; close the connection.
    Dead,
}

/// The probing-side state machine.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use virt_rpc::keepalive::{KeepaliveAction, KeepaliveConfig, KeepaliveState};
///
/// let cfg = KeepaliveConfig { interval: Duration::from_secs(1), count: 2 };
/// let mut ka = KeepaliveState::new(cfg, Instant::now());
/// // Immediately after start there is nothing to do.
/// assert!(matches!(ka.poll(Instant::now()), KeepaliveAction::Wait(_)));
/// ```
#[derive(Debug)]
pub struct KeepaliveState {
    config: KeepaliveConfig,
    next_ping: Instant,
    unanswered: u32,
}

impl KeepaliveState {
    /// Starts the timer at `now`.
    pub fn new(config: KeepaliveConfig, now: Instant) -> Self {
        KeepaliveState {
            config,
            next_ping: now + config.interval,
            unanswered: 0,
        }
    }

    /// Advances the machine to `now` and reports what to do.
    ///
    /// When it returns [`KeepaliveAction::SendPing`], the caller must send
    /// a ping and call [`KeepaliveState::on_ping_sent`].
    pub fn poll(&mut self, now: Instant) -> KeepaliveAction {
        if self.unanswered > self.config.count {
            return KeepaliveAction::Dead;
        }
        if now >= self.next_ping {
            if self.unanswered == self.config.count {
                return KeepaliveAction::Dead;
            }
            return KeepaliveAction::SendPing;
        }
        KeepaliveAction::Wait(self.next_ping)
    }

    /// Records that a ping went out at `now`.
    pub(crate) fn on_ping_sent(&mut self, now: Instant) {
        self.unanswered += 1;
        self.next_ping = now + self.config.interval;
    }

    /// Records a received pong: the peer is alive.
    pub(crate) fn on_pong(&mut self) {
        self.unanswered = 0;
    }

    /// Number of pings currently unanswered.
    #[cfg(test)]
    pub(crate) fn unanswered(&self) -> u32 {
        self.unanswered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn waits_until_interval_elapses() {
        let t0 = Instant::now();
        let mut ka = KeepaliveState::new(cfg(1000, 3), t0);
        match ka.poll(t0) {
            KeepaliveAction::Wait(deadline) => {
                assert_eq!(deadline, t0 + Duration::from_millis(1000))
            }
            other => panic!("expected Wait, got {other:?}"),
        }
    }

    #[test]
    fn sends_ping_after_interval() {
        let t0 = Instant::now();
        let mut ka = KeepaliveState::new(cfg(100, 3), t0);
        let t1 = t0 + Duration::from_millis(150);
        assert_eq!(ka.poll(t1), KeepaliveAction::SendPing);
        ka.on_ping_sent(t1);
        assert_eq!(ka.unanswered(), 1);
        // Next ping scheduled one interval later.
        assert!(matches!(ka.poll(t1), KeepaliveAction::Wait(_)));
    }

    #[test]
    fn pong_resets_the_counter() {
        let t0 = Instant::now();
        let mut ka = KeepaliveState::new(cfg(100, 2), t0);
        let mut now = t0;
        for _ in 0..2 {
            now += Duration::from_millis(100);
            assert_eq!(ka.poll(now), KeepaliveAction::SendPing);
            ka.on_ping_sent(now);
        }
        assert_eq!(ka.unanswered(), 2);
        ka.on_pong();
        assert_eq!(ka.unanswered(), 0);
        now += Duration::from_millis(100);
        assert_eq!(ka.poll(now), KeepaliveAction::SendPing);
    }

    #[test]
    fn silence_kills_the_connection_after_count_pings() {
        let t0 = Instant::now();
        let count = 3;
        let mut ka = KeepaliveState::new(cfg(100, count), t0);
        let mut now = t0;
        for _ in 0..count {
            now += Duration::from_millis(100);
            assert_eq!(ka.poll(now), KeepaliveAction::SendPing);
            ka.on_ping_sent(now);
        }
        now += Duration::from_millis(100);
        assert_eq!(ka.poll(now), KeepaliveAction::Dead);
    }

    #[test]
    fn default_config_matches_libvirt() {
        let d = KeepaliveConfig::default();
        assert_eq!(d.interval, Duration::from_secs(5));
        assert_eq!(d.count, 5);
    }
}
