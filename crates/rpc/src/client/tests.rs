//! Tests of the call client (kept out of `client.rs` so that file holds
//! the one place a thread is started and nothing that looks like it).

use super::*;
use crate::message::REMOTE_PROGRAM;
use crate::transport::{memory_pair, Transport};

/// A trivial echo server: replies to every call with its own payload;
/// procedure 99 replies with an error; procedure 50 sends an event
/// first.
fn spawn_echo_server(server_side: impl Transport + 'static) {
    std::thread::spawn(move || {
        while let Ok(frame) = server_side.recv_frame() {
            let packet = Packet::from_body(&frame).expect("valid packet");
            match packet.header.procedure {
                99 => {
                    let reply =
                        Packet::new(packet.header.reply_error(), &RpcError::new(42, "nope"));
                    let _ = server_side.send_frame(&reply.to_frame()[4..]);
                }
                50 => {
                    let event = Packet::new(Header::event(REMOTE_PROGRAM, 7), &"boom".to_string());
                    let _ = server_side.send_frame(&event.to_frame()[4..]);
                    let reply = Packet {
                        header: packet.header.reply_ok(),
                        payload: packet.payload.clone(),
                    };
                    let _ = server_side.send_frame(&reply.to_frame()[4..]);
                }
                _ => {
                    let reply = Packet {
                        header: packet.header.reply_ok(),
                        payload: packet.payload.clone(),
                    };
                    let _ = server_side.send_frame(&reply.to_frame()[4..]);
                }
            }
        }
    });
}

#[test]
fn call_round_trips() {
    let (client_side, server_side) = memory_pair();
    spawn_echo_server(server_side);
    let client = CallClient::new(client_side);
    let reply: String = client
        .call(REMOTE_PROGRAM, 1, &"hello".to_string())
        .expect("echo");
    assert_eq!(reply, "hello");
    client.close();
}

#[test]
fn error_replies_surface_as_remote_errors() {
    let (client_side, server_side) = memory_pair();
    spawn_echo_server(server_side);
    let client = CallClient::new(client_side);
    let err = client.call::<String>(REMOTE_PROGRAM, 99, &()).unwrap_err();
    match err {
        CallError::Remote(e) => {
            assert_eq!(e.code, 42);
            assert_eq!(e.message, "nope");
        }
        other => panic!("expected Remote error, got {other:?}"),
    }
    client.close();
}

#[test]
fn concurrent_calls_are_matched_by_serial() {
    let (client_side, server_side) = memory_pair();
    spawn_echo_server(server_side);
    let client = CallClient::new(client_side);
    let threads: Vec<_> = (0..16)
        .map(|i| {
            let c = client.clone();
            std::thread::spawn(move || {
                let arg = format!("payload-{i}");
                let reply: String = c.call(REMOTE_PROGRAM, 1, &arg).expect("echo");
                assert_eq!(reply, arg);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    client.close();
}

#[test]
fn events_reach_the_handler() {
    let (client_side, server_side) = memory_pair();
    spawn_echo_server(server_side);
    let client = CallClient::new(client_side);
    let (tx, rx) = std::sync::mpsc::channel();
    client.set_event_handler(move |_, packet| {
        let body: String = packet.decode_payload().expect("event payload");
        tx.send((packet.header.procedure, body)).unwrap();
    });
    let _: String = client
        .call(REMOTE_PROGRAM, 50, &"x".to_string())
        .expect("call ok");
    // The event was ahead of the reply on the wire, so whoever read
    // the reply (here: the caller itself) handled it first.
    let (procedure, body) = rx
        .try_recv()
        .expect("event handled before the call returned");
    assert_eq!(procedure, 7);
    assert_eq!(body, "boom");
    client.close();
}

#[test]
fn an_event_ahead_of_a_reply_is_handled_first_when_a_listener_reads() {
    let (client_side, server_side) = memory_pair();
    spawn_echo_server(server_side);
    let client = CallClient::new(client_side);
    let (tx, rx) = std::sync::mpsc::channel();
    client.set_event_handler(move |_, packet| {
        tx.send(packet.header.procedure).unwrap();
    });
    client.listen(|_| None);
    for _ in 0..50 {
        let _: String = client
            .call(REMOTE_PROGRAM, 50, &"x".to_string())
            .expect("call ok");
        assert_eq!(
            rx.try_recv(),
            Ok(7),
            "event handled before the call returned"
        );
    }
    client.close();
}

#[test]
fn peer_disconnect_fails_in_flight_calls() {
    let (client_side, server_side) = memory_pair();
    // Server that reads one frame then drops the connection.
    std::thread::spawn(move || {
        let _ = server_side.recv_frame();
        let _ = server_side.shutdown();
    });
    let client = CallClient::new(client_side);
    let err = client.call::<String>(REMOTE_PROGRAM, 1, &()).unwrap_err();
    assert!(
        matches!(err, CallError::Disconnected | CallError::Io(_)),
        "got {err:?}"
    );
    assert!(client.is_closed());
}

#[test]
fn calls_after_close_fail_immediately() {
    let (client_side, _server_side) = memory_pair();
    let client = CallClient::new(client_side);
    client.close();
    let err = client.call::<String>(REMOTE_PROGRAM, 1, &()).unwrap_err();
    assert!(matches!(err, CallError::Disconnected));
}

#[test]
fn timeout_fires_when_server_is_silent() {
    let (client_side, _server_side) = memory_pair();
    let client = CallClient::new(client_side);
    client.set_call_timeout(Some(Duration::from_millis(50)));
    let start = std::time::Instant::now();
    let err = client.call::<String>(REMOTE_PROGRAM, 1, &()).unwrap_err();
    assert!(matches!(err, CallError::TimedOut), "got {err:?}");
    assert!(start.elapsed() < Duration::from_secs(5));
    client.close();
}

#[test]
fn garbage_from_peer_closes_the_connection() {
    let (client_side, server_side) = memory_pair();
    std::thread::spawn(move || {
        let _ = server_side.recv_frame();
        // Too short to contain a header.
        let _ = server_side.send_frame(&[1, 2, 3, 4]);
    });
    let client = CallClient::new(client_side);
    let err = client.call::<String>(REMOTE_PROGRAM, 1, &()).unwrap_err();
    assert!(matches!(err, CallError::Disconnected), "got {err:?}");
}

#[test]
fn call_error_display_variants() {
    let remote = CallError::Remote(RpcError::new(1, "x"));
    assert!(remote.to_string().contains("rpc error 1"));
    assert!(CallError::TimedOut.to_string().contains("timed out"));
    assert!(CallError::Disconnected.to_string().contains("closed"));
    assert!(CallError::CircuitOpen.to_string().contains("circuit"));
}

#[test]
fn call_error_source_exposes_the_chain() {
    use std::error::Error as _;
    let io = CallError::Io(std::io::Error::other("boom"));
    assert_eq!(io.source().unwrap().to_string(), "boom");
    let remote = CallError::Remote(RpcError::new(1, "x"));
    assert!(remote.source().is_some());
    assert!(CallError::TimedOut.source().is_none());
    assert!(CallError::Disconnected.source().is_none());
}

#[test]
fn late_replies_are_counted() {
    let (client_side, server_side) = memory_pair();
    // A server whose first reply comes only after the client has
    // given up on it.
    std::thread::spawn(move || {
        let mut slow = Some(Duration::from_millis(80));
        while let Ok(frame) = server_side.recv_frame() {
            let packet = Packet::from_body(&frame).expect("valid packet");
            if let Some(delay) = slow.take() {
                std::thread::sleep(delay);
            }
            let reply = Packet {
                header: packet.header.reply_ok(),
                payload: packet.payload.clone(),
            };
            let _ = server_side.send_frame(&reply.to_frame()[4..]);
        }
    });
    let client = CallClient::new(client_side);
    let counter = crate::process_metrics().counter("rpc.late_replies", "");
    let before = counter.get();
    let err = client
        .call_with_deadline::<String>(
            REMOTE_PROGRAM,
            1,
            &"first".to_string(),
            Some(Instant::now() + Duration::from_millis(10)),
        )
        .unwrap_err();
    assert!(matches!(err, CallError::TimedOut), "got {err:?}");
    // Nobody reads the socket between calls: the late reply is met —
    // and counted — by whoever reads next, and must not be taken for
    // that call's own reply.
    let second: String = client
        .call(REMOTE_PROGRAM, 1, &"second".to_string())
        .expect("second call");
    assert_eq!(second, "second");
    assert_eq!(counter.get() - before, 1, "exactly the one late reply");
    client.close();
}

#[test]
fn a_waiter_takes_over_when_the_readers_deadline_passes() {
    let (client_side, server_side) = memory_pair();
    // Never answers procedure 1; answers procedure 2 once told to.
    let (go, wait) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        while let Ok(frame) = server_side.recv_frame() {
            let packet = Packet::from_body(&frame).expect("valid packet");
            if packet.header.procedure == 2 {
                wait.recv().expect("go");
                let reply = Packet {
                    header: packet.header.reply_ok(),
                    payload: packet.payload.clone(),
                };
                let _ = server_side.send_frame(&reply.to_frame()[4..]);
            }
        }
    });
    let client = CallClient::new(client_side);
    let handoffs = crate::process_metrics().counter("rpc.client.baton_handoffs", "");
    let before = handoffs.get();

    let reader = {
        let client = client.clone();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_millis(300);
            client.call_with_deadline::<String>(REMOTE_PROGRAM, 1, &(), Some(deadline))
        })
    };
    // The only call in flight is the reader's, so once the baton is
    // taken it is the reader that has it — and the next caller parks.
    while !client.inner.receive.lock().baton.is_read() {
        std::thread::yield_now();
    }
    let waiter = {
        let client = client.clone();
        std::thread::spawn(move || client.call::<String>(REMOTE_PROGRAM, 2, &"w".to_string()))
    };
    let err = reader.join().expect("reader thread").unwrap_err();
    assert!(matches!(err, CallError::TimedOut), "got {err:?}");
    // Only now is the waiter's reply sent: it arrives with the first
    // reader gone, so it is read by a waiter that took over.
    go.send(()).expect("server waits");
    assert_eq!(waiter.join().expect("waiter thread").expect("reply"), "w");
    assert!(handoffs.get() > before, "the reader woke its successor");
    client.close();
}

#[test]
fn a_mid_frame_kill_fails_every_waiter_exactly_once() {
    use crate::fault::{FaultMode, FaultyTransport};
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    let (client_stream, mut server_stream) = UnixStream::pair().expect("socketpair");
    let transport = crate::transport::UnixTransport::from_stream(client_stream, "client")
        .expect("client transport");
    let (faulty, control) = FaultyTransport::new(Arc::new(transport));
    let client = CallClient::new(faulty);
    const CALLERS: usize = 6;
    let outcomes = Arc::new(Mutex::new(Vec::new()));
    let callers: Vec<_> = (0..CALLERS)
        .map(|_| {
            let (client, outcomes) = (client.clone(), Arc::clone(&outcomes));
            std::thread::spawn(move || {
                let outcome = client.call::<String>(REMOTE_PROGRAM, 1, &"x".to_string());
                outcomes.lock().push(outcome);
            })
        })
        .collect();
    // Half a reply frame — a prefix promising 64 bytes, 10 delivered —
    // once every call is on the wire; then the connection is reset
    // under whoever is reading.
    let calls = crate::transport::UnixTransport::from_stream(
        server_stream.try_clone().expect("clone"),
        "server",
    )
    .expect("server transport");
    for _ in 0..CALLERS {
        calls.recv_frame().expect("a call");
    }
    server_stream.write_all(&64u32.to_be_bytes()).unwrap();
    server_stream.write_all(&[0u8; 10]).unwrap();
    control.set(FaultMode::ResetOnRecv(0));
    drop(server_stream);
    drop(calls);
    for caller in callers {
        caller.join().expect("caller thread");
    }
    let outcomes = outcomes.lock();
    assert_eq!(outcomes.len(), CALLERS, "every call ended, once");
    for outcome in outcomes.iter() {
        assert!(
            matches!(outcome, Err(CallError::Disconnected | CallError::Io(_))),
            "got {outcome:?}"
        );
    }
    assert!(client.is_closed());
}

#[test]
fn creating_a_client_spawns_nothing_and_dropping_it_hangs_up() {
    let (client_side, server_side) = memory_pair();
    let client = CallClient::new(client_side);
    let handle = client.clone();
    drop(client);
    assert!(server_side.try_recv_frame().expect("still open").is_none());
    drop(handle);
    // The last handle hung up: the peer reads end-of-stream.
    assert!(server_side.recv_frame().is_err());
}

#[test]
fn a_listener_exits_when_the_last_handle_is_dropped() {
    let (client_side, server_side) = memory_pair();
    let client = CallClient::new(client_side);
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    client.listen(move |_| {
        // Dropped with the listener's closure when its thread ends.
        let _ = &tx;
        None
    });
    drop(client);
    assert!(
        rx.recv_timeout(Duration::from_secs(5)).is_err(),
        "nothing is ever sent"
    );
    // `recv_timeout` returned because the sender was dropped, not
    // because five seconds passed: the peer saw the hang-up too.
    assert!(server_side.recv_frame().is_err());
}

#[test]
fn is_closed_looks_at_a_connection_nobody_reads() {
    let (client_side, server_side) = memory_pair();
    let client = CallClient::new(client_side);
    let (tx, rx) = std::sync::mpsc::channel();
    client.set_event_handler(move |_, packet| {
        tx.send(packet.header.procedure).unwrap();
    });
    assert!(!client.is_closed());
    let event = Packet::new(Header::event(REMOTE_PROGRAM, 9), &());
    server_side.send_frame(&event.to_frame()[4..]).unwrap();
    assert!(!client.is_closed());
    assert_eq!(rx.try_recv(), Ok(9), "the look handled the event");
    server_side.shutdown().unwrap();
    assert!(client.is_closed(), "exact the moment it is asked");
}

#[test]
fn per_call_deadline_overrides_the_default_timeout() {
    let (client_side, _server_side) = memory_pair();
    let client = CallClient::new(client_side);
    // Generous default; the per-call deadline must win.
    client.set_call_timeout(Some(Duration::from_secs(30)));
    let start = std::time::Instant::now();
    let err = client
        .call_with_deadline::<String>(
            REMOTE_PROGRAM,
            1,
            &(),
            Some(std::time::Instant::now() + Duration::from_millis(50)),
        )
        .unwrap_err();
    assert!(matches!(err, CallError::TimedOut), "got {err:?}");
    assert!(start.elapsed() < Duration::from_secs(5));
    client.close();
}

#[test]
fn expired_deadline_fails_without_sending() {
    let (client_side, server_side) = memory_pair();
    let client = CallClient::new(client_side);
    let err = client
        .call_with_deadline::<String>(
            REMOTE_PROGRAM,
            1,
            &(),
            Some(std::time::Instant::now() - Duration::from_millis(1)),
        )
        .unwrap_err();
    assert!(matches!(err, CallError::TimedOut), "got {err:?}");
    // Nothing was put on the wire.
    server_side.shutdown().unwrap();
    assert!(server_side.recv_frame().is_err());
    client.close();
}

#[test]
fn deadline_none_uses_the_default_timeout() {
    let (client_side, server_side) = memory_pair();
    spawn_echo_server(server_side);
    let client = CallClient::new(client_side);
    let reply: String = client
        .call_with_deadline(REMOTE_PROGRAM, 1, &"hi".to_string(), None)
        .expect("echo");
    assert_eq!(reply, "hi");
    client.close();
}

/// A transport's name, and a client and a server end of one connection.
type Pair = (&'static str, Box<dyn Transport>, Box<dyn Transport>);

/// A connected pair of each transport a listener watches in its own way:
/// a socket (its descriptor), a memory channel (its ready notifier) and
/// TLS-sim over a socket (the socket under the records).
fn watched_pairs() -> Vec<Pair> {
    use crate::transport::{TlsSimTransport, UnixTransport};
    use std::os::unix::net::UnixStream;

    let unix = |(ours, theirs): (UnixStream, UnixStream)| {
        (
            UnixTransport::from_stream(ours, "client").expect("client transport"),
            UnixTransport::from_stream(theirs, "server").expect("server transport"),
        )
    };
    let (client, server) = unix(UnixStream::pair().expect("socketpair"));
    let (memory_client, memory_server) = memory_pair();
    let (tls_client, tls_server) = unix(UnixStream::pair().expect("socketpair"));
    let tls_server = std::thread::spawn(move || TlsSimTransport::server(tls_server, 2));
    let tls_client = TlsSimTransport::client(tls_client, 1).expect("client handshake");
    let tls_server = tls_server.join().unwrap().expect("server handshake");
    vec![
        ("unix", Box::new(client), Box::new(server)),
        ("memory", Box::new(memory_client), Box::new(memory_server)),
        ("tls", Box::new(tls_client), Box::new(tls_server)),
    ]
}

#[test]
fn a_listener_hands_up_events_between_calls_runs_idle_and_exits_on_every_transport() {
    for (kind, client_side, server_side) in watched_pairs() {
        let client = CallClient::new(client_side);
        let (events, handled) = std::sync::mpsc::channel();
        client.set_event_handler(move |_, packet| {
            let _ = events.send(packet.header.procedure);
        });
        let (ticks, ticked) = std::sync::mpsc::channel::<()>();
        client.listen(move |_| {
            let _ = ticks.send(());
            Some(Instant::now() + Duration::from_millis(5))
        });

        // No call in flight: only the listener can hand it up.
        let event = Packet::new(Header::event(REMOTE_PROGRAM, 9), &());
        server_side.send_frame(&event.to_frame()[4..]).unwrap();
        assert_eq!(
            handled.recv_timeout(Duration::from_secs(5)),
            Ok(9),
            "{kind}: an event between calls"
        );

        // Calls still go through, and a second event after them.
        spawn_echo_server(server_side);
        for n in 0..20u32 {
            let echoed: u32 = client.call(REMOTE_PROGRAM, 1, &n).expect("echo");
            assert_eq!(echoed, n, "{kind}");
        }
        let reply: String = client
            .call(REMOTE_PROGRAM, 50, &"x".to_string())
            .expect("call ok");
        assert_eq!(reply, "x");
        assert_eq!(
            handled.recv_timeout(Duration::from_secs(5)),
            Ok(7),
            "{kind}"
        );

        // The keepalive hook runs on its deadline, with nothing arriving.
        while ticked.try_recv().is_ok() {}
        for _ in 0..3 {
            ticked
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{kind}: idle stopped running"));
        }

        // The listener holds the `idle` closure, and with it `ticks`:
        // once it has exited, the channel reports a disconnect.
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match ticked.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(()) => continue,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("{kind}: the listener outlived the last handle")
                }
            }
        }
    }
}

#[test]
fn a_handler_that_panics_on_a_buffered_event_does_not_wedge_a_listened_connection() {
    use crate::transport::UnixTransport;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let (ours, mut theirs) = UnixStream::pair().expect("socketpair");
    let client = CallClient::new(UnixTransport::from_stream(ours, "client").expect("transport"));
    let (handled, seen) = std::sync::mpsc::channel();
    client.set_event_handler(move |_, packet| {
        assert_ne!(packet.header.procedure, 66, "a handler that panics");
        let _ = handled.send(packet.header.procedure);
    });
    client.listen(|_| None);
    // Each call's reply and an event behind it in one write: the caller's
    // read pulls the event in with its reply, and routes it on its way out.
    let peer = std::thread::spawn(move || {
        for event in [66, 9] {
            let mut prefix = [0u8; 4];
            theirs.read_exact(&mut prefix).unwrap();
            let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
            theirs.read_exact(&mut body).unwrap();
            let call = Packet::from_body(&body).unwrap();
            let reply = Packet {
                header: call.header.reply_ok(),
                payload: call.payload,
            };
            let mut bytes = reply.to_frame();
            bytes.extend(Packet::new(Header::event(REMOTE_PROGRAM, event), &()).to_frame());
            theirs.write_all(&bytes).unwrap();
        }
        theirs
    });
    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        client.call::<u32>(REMOTE_PROGRAM, 1, &1u32)
    }));
    assert!(first.is_err(), "the handler's panic reaches the caller");
    client.set_call_timeout(Some(Duration::from_secs(5)));
    let second: u32 = client
        .call(REMOTE_PROGRAM, 1, &2u32)
        .expect("the baton was put down");
    assert_eq!(second, 2);
    assert_eq!(seen.recv_timeout(Duration::from_secs(5)), Ok(9));
    drop(peer.join().unwrap());
    client.close();
}
