//! Structural guard of the client stub's hot path — counts, not timings.
//!
//! A lone caller reads its own reply: one send, one receive, no thread
//! hop. That shows in numbers that do not depend on the machine — a
//! call through the stub costs the process no more context switches than
//! the same send-then-receive done by hand on a bare transport, the
//! calling thread allocates nothing for the plumbing, no thread exists
//! that the test did not start, and the stub's own counters say every
//! reply was read by its caller. A connection that has a listener (it
//! subscribed to events) is no different: its listener watches the
//! socket only while no call is in flight, so its callers read their own
//! replies too. With many callers on one connection every reply is still
//! accounted for: read by its owner or filed for it, never lost and never
//! late.
//!
//! Run in release by `scripts/ci.sh` (the allocation bound is calibrated
//! for it). One test, its parts in sequence: they read process-wide
//! counters and count the threads of the process, and it pins itself to
//! one CPU — on two, whether caller and peer happen to share one changes
//! how many switches a round trip is accounted for.

use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};

use virt_rpc::message::{self, Header, REMOTE_PROGRAM};
use virt_rpc::transport::{Transport, UnixTransport};
use virt_rpc::CallClient;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
#[path = "support/echo.rs"]
mod echo;
use counting_alloc::allocations_on_this_thread;

extern "C" {
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread, and threads
    /// it spawns afterwards inherit the mask.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Voluntary context switches of every thread of this process: the
/// times a thread blocked. A thread hop is a thread that blocks, and each
/// round trip blocks each side exactly once, whatever else the caller
/// does: a send and a receive by hand block 2.00 times a call. A
/// preemption is not counted: how often the kernel preempts moves with
/// any work a call adds (two `getppid`s a call took the stub from 1.19 to
/// 1.40 times the yardstick in all switches, with no hop), so a count of
/// all switches would measure the scheduler, not the stub.
fn process_context_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .flat_map(|status| {
            status
                .lines()
                .filter_map(|line| line.split_once("ctxt_switches:"))
                .filter(|(kind, _)| *kind == "voluntary_")
                .map(|(_, count)| count.trim().parse::<u64>().expect("a number"))
                .collect::<Vec<_>>()
        })
        .sum()
}

fn threads() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count() as u64
}

/// (replies_direct, replies_routed, baton_handoffs, late_replies).
fn stub_counters() -> [u64; 4] {
    let registry = virt_rpc::process_metrics();
    [
        "rpc.client.replies_direct",
        "rpc.client.replies_routed",
        "rpc.client.baton_handoffs",
        "rpc.late_replies",
    ]
    .map(|name| registry.counter(name, "").get())
}

/// A transport over a Unix socket pair whose peer echoes every call's
/// payload back.
fn echo_transport() -> (UnixTransport, std::thread::JoinHandle<()>) {
    let (client_stream, server_stream) = UnixStream::pair().expect("socketpair");
    let server = UnixTransport::from_stream(server_stream, "server").expect("server transport");
    let client = UnixTransport::from_stream(client_stream, "client").expect("client transport");
    (client, echo::spawn(server))
}

#[test]
fn the_stub_adds_no_thread_no_hop_and_no_allocation() {
    let mask = [1u64; 1];
    // SAFETY: `mask` is a live, initialised 8-byte CPU set and the size
    // passed is its size; the call reads it and touches nothing else.
    // Best effort: unpinned, the comparison below is only noisier.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    creating_clients_starts_no_threads();
    a_lone_caller_reads_its_own_reply_without_a_thread_hop_or_an_allocation();
    a_subscribed_caller_reads_its_own_reply_while_the_listener_sleeps();
    every_reply_is_read_by_its_caller_or_filed_for_it();
}

const WARMUP: u64 = 256;
const CALLS: u64 = 4096;

/// A client over an echoing peer; with a listener that wants nothing
/// but to be there when `subscribed`.
fn echo_client(subscribed: bool) -> (CallClient, std::thread::JoinHandle<()>) {
    let (transport, echo) = echo_transport();
    let client = CallClient::new(transport);
    if subscribed {
        client.listen(|_| None);
    }
    (client, echo)
}

/// Voluntary context switches of the process over `CALLS` round trips
/// done by hand on a bare transport — send, then read your own reply: the
/// yardstick — and over as many calls through the stub, on a connection
/// with a listener when `subscribed`.
fn switches_by_hand_and_through_the_stub(subscribed: bool) -> (u64, u64) {
    let (bare, echo) = echo_transport();
    let (mut frame, mut reply) = (Vec::new(), Vec::new());
    let mut by_hand = |n: u64| {
        message::encode_frame(&Header::call(REMOTE_PROGRAM, 1, n as u32), &n, &mut frame);
        bare.send_framed(&frame).expect("send");
        bare.recv_frame_into(&mut reply).expect("reply");
    };
    (0..WARMUP).for_each(&mut by_hand);
    let before = process_context_switches();
    (0..CALLS).for_each(&mut by_hand);
    let by_hand = process_context_switches() - before;
    bare.shutdown().expect("shutdown");
    echo.join().expect("echo thread");

    let (client, echo) = echo_client(subscribed);
    let call = |n: u64| {
        let echoed: u64 = client.call(REMOTE_PROGRAM, 1, &n).expect("echo");
        assert_eq!(echoed, n);
    };
    (0..WARMUP).for_each(call);
    let before = process_context_switches();
    (0..CALLS).for_each(call);
    let through_the_stub = process_context_switches() - before;
    client.close();
    echo.join().expect("echo thread");
    (by_hand, through_the_stub)
}

fn a_lone_caller_reads_its_own_reply_without_a_thread_hop_or_an_allocation() {
    let (transport, echo) = echo_transport();
    let client = CallClient::new(transport);
    let call = |n: u64| {
        let echoed: u64 = client.call(REMOTE_PROGRAM, 1, &n).expect("echo");
        assert_eq!(echoed, n);
    };
    (0..WARMUP).for_each(call);
    let counters = stub_counters();
    let allocations = allocations_on_this_thread();
    (0..CALLS).for_each(call);
    let allocations = allocations_on_this_thread() - allocations;
    let [direct, routed, handoffs, late] = {
        let after = stub_counters();
        [0, 1, 2, 3].map(|i| after[i] - counters[i])
    };
    client.close();
    echo.join().expect("echo thread");

    assert_eq!(
        [direct, routed, handoffs, late],
        [CALLS, 0, 0, 0],
        "direct / routed / handoffs / late over {CALLS} depth-1 calls"
    );
    assert!(
        allocations <= 2 * CALLS,
        "{allocations} allocations on the calling thread over {CALLS} calls (allowed: 2 per call)"
    );

    // A thread between the socket and the caller is one more sleep and
    // one more wake-up per call: a stub whose replies were relayed
    // through another thread read 2.7 times the yardstick here, this one
    // 1.00 times (and 1.00 with two extra syscalls a call).
    assert_switches_within_the_yardstick(false);
}

/// The best of three attempts: other load on the machine only ever adds
/// switches, so that one says what the code does.
fn assert_switches_within_the_yardstick(subscribed: bool) {
    let attempts: Vec<_> = (0..3)
        .map(|_| switches_by_hand_and_through_the_stub(subscribed))
        .collect();
    assert!(
        attempts
            .iter()
            .any(|(by_hand, through_the_stub)| through_the_stub * 100 <= by_hand * 125),
        "voluntary context switches over {CALLS} calls (by hand, through the stub{}) in \
         three attempts: {attempts:?} (allowed: 1.25 times in the best)",
        if subscribed { " with a listener" } else { "" }
    );
}

/// Context switches of the connection's listener thread.
fn listener_context_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let listeners: Vec<u64> = tasks
        .filter_map(|task| {
            let task = task.ok()?.path();
            // The kernel keeps 15 bytes of "virt-rpc-listener".
            let name = std::fs::read_to_string(task.join("comm")).ok()?;
            (name.trim() == "virt-rpc-listen").then_some(())?;
            let status = std::fs::read_to_string(task.join("status")).ok()?;
            Some(
                status
                    .lines()
                    .filter_map(|line| line.split_once("ctxt_switches:"))
                    .map(|(_, count)| count.trim().parse::<u64>().expect("a number"))
                    .sum(),
            )
        })
        .collect();
    assert_eq!(listeners.len(), 1, "one listener thread");
    listeners[0]
}

/// A listener that kept the baton would read every reply and file it:
/// each call a routed reply and a thread hop. Its watch is armed only
/// while no call is in flight, so it sleeps through the calls.
fn a_subscribed_caller_reads_its_own_reply_while_the_listener_sleeps() {
    let (client, echo) = echo_client(true);
    let call = |n: u64| {
        let echoed: u64 = client.call(REMOTE_PROGRAM, 1, &n).expect("echo");
        assert_eq!(echoed, n);
    };
    (0..WARMUP).for_each(call);
    let counters = stub_counters();
    let listener = listener_context_switches();
    (0..CALLS).for_each(call);
    let listener = listener_context_switches() - listener;
    let [direct, routed, handoffs, late] = {
        let after = stub_counters();
        [0, 1, 2, 3].map(|i| after[i] - counters[i])
    };
    client.close();
    echo.join().expect("echo thread");
    assert_eq!(
        [direct, routed, handoffs, late],
        [CALLS, 0, 0, 0],
        "direct / routed / handoffs / late over {CALLS} depth-1 calls with a listener"
    );
    assert_eq!(
        listener, 0,
        "the listener ran {listener} times over {CALLS} calls"
    );
    assert_switches_within_the_yardstick(true);
}

fn creating_clients_starts_no_threads() {
    let before = threads();
    let clients: Vec<_> = (0..64)
        .map(|_| {
            let (ours, theirs) = UnixStream::pair().expect("socketpair");
            let client =
                CallClient::new(UnixTransport::from_stream(ours, "client").expect("transport"));
            (client, theirs)
        })
        .collect();
    assert_eq!(threads(), before, "64 connections, no new thread");
    drop(clients);
}

fn every_reply_is_read_by_its_caller_or_filed_for_it() {
    const CALLERS: u64 = 16;
    const CALLS_EACH: u64 = 500;
    let (transport, echo) = echo_transport();
    let client = CallClient::new(transport);
    let counters = stub_counters();
    let start = Arc::new(Barrier::new(CALLERS as usize));
    let callers: Vec<_> = (0..CALLERS)
        .map(|caller| {
            let (client, start) = (client.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for n in 0..CALLS_EACH {
                    let sent = caller << 32 | n;
                    let echoed: u64 = client.call(REMOTE_PROGRAM, 1, &sent).expect("echo");
                    assert_eq!(echoed, sent);
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().expect("caller thread");
    }
    let after = stub_counters();
    let [direct, routed, _handoffs, late] = [0, 1, 2, 3].map(|i| after[i] - counters[i]);
    assert_eq!(
        direct + routed,
        CALLERS * CALLS_EACH,
        "direct {direct} + routed {routed}"
    );
    assert_eq!(late, 0);
    client.close();
    echo.join().expect("echo thread");
}
