//! A from-scratch readiness poller for the daemon's event loop.
//!
//! Wraps Linux `epoll` plus an `eventfd` wakeup channel behind a small
//! safe API. No external crates: the three syscalls the loop needs are
//! declared directly against the system libc, which every Rust binary
//! already links. On non-Linux targets [`Poller::new`] reports
//! `Unsupported` and the server falls back to blocking reader threads,
//! so the crate stays portable even though the fast path is Linux-only.
//!
//! Registrations are edge-triggered, and any number of threads may wait
//! on one poller: a readiness change — bytes arriving, room opening up
//! for output, a hangup, an interest change that finds the fd ready —
//! is reported once, to one waiting thread. Bytes a reader leaves in a
//! socket are not reported again, so a reader that stops before a short
//! read (a frame budget) must come back to the fd by itself; a short
//! read means the socket was drained, and whatever arrives next is a
//! new edge. [`Poller::waiting`] counts the threads inside
//! [`Poller::wait`], so a thread can tell whether another is still
//! watching before it takes on work that may block.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Token value reserved for the internal wakeup channel. Connection
/// tokens must stay below this.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending hangup to observe).
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
    /// The peer hung up or the fd errored; the connection is dead.
    pub hangup: bool,
    /// The peer will send nothing more (it shut its write side, hung up
    /// or errored): what the socket holds ends in end-of-stream, and no
    /// further edge announces that end — read until it.
    pub read_closed: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw declarations for the handful of libc entry points the poller
    //! uses. Kept to the minimum: epoll, eventfd, close, read and write.

    use std::os::raw::{c_int, c_uint, c_void};

    pub(crate) const EPOLL_CTL_ADD: c_int = 1;
    pub(crate) const EPOLL_CTL_DEL: c_int = 2;
    pub(crate) const EPOLL_CTL_MOD: c_int = 3;

    pub(crate) const EPOLLIN: u32 = 0x001;
    pub(crate) const EPOLLOUT: u32 = 0x004;
    pub(crate) const EPOLLERR: u32 = 0x008;
    pub(crate) const EPOLLHUP: u32 = 0x010;
    pub(crate) const EPOLLRDHUP: u32 = 0x2000;
    pub(crate) const EPOLLET: u32 = 1 << 31;

    pub(crate) const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub(crate) const EFD_CLOEXEC: c_int = 0o2000000;
    pub(crate) const EFD_NONBLOCK: c_int = 0o4000;

    pub(crate) const MSG_DONTWAIT: c_int = 0x40;

    /// Mirrors `struct epoll_event`. The kernel packs it only on x86
    /// (32- and 64-bit); every other architecture uses natural alignment
    /// with `data` at offset 8, so the repr must match per-arch or
    /// epoll_wait would scribble past the caller's event array.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub(crate) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    // 12 bytes packed on x86/x86-64, 16 bytes naturally aligned elsewhere.
    const _: () = assert!(
        std::mem::size_of::<EpollEvent>()
            == if cfg!(any(target_arch = "x86", target_arch = "x86_64")) {
                12
            } else {
                16
            }
    );

    extern "C" {
        pub(crate) fn epoll_create1(flags: c_int) -> c_int;
        pub(crate) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        pub(crate) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub(crate) fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub(crate) fn close(fd: c_int) -> c_int;
        pub(crate) fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub(crate) fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
        pub(crate) fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

/// Reads what a socket holds right now into `buf` without waiting for
/// more — `WouldBlock` when that is nothing, 0 at end of stream — and
/// without touching the socket's blocking mode, which concurrent
/// senders rely on. `Unsupported` off Linux.
///
/// # Errors
///
/// As `recv(2)` with `MSG_DONTWAIT`.
pub(crate) fn recv_nowait(fd: i32, buf: &mut [u8]) -> io::Result<usize> {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `buf` is a live, exclusively borrowed buffer and the
        // length passed is its length; the kernel writes at most that
        // many bytes into it. A bad `fd` is an error return, not UB.
        let n = unsafe { sys::recv(fd, buf.as_mut_ptr().cast(), buf.len(), sys::MSG_DONTWAIT) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (fd, buf);
        Err(io::ErrorKind::Unsupported.into())
    }
}

/// Caller-kept storage for the events of one [`Poller::wait`]: the
/// kernel fills it in place, so a wait neither zero-fills nor allocates.
pub struct Events {
    #[cfg(target_os = "linux")]
    buf: Vec<sys::EpollEvent>,
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events").field("len", &self.len()).finish()
    }
}

impl Events {
    /// Room for up to `capacity` events per wait (at least one).
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            #[cfg(target_os = "linux")]
            buf: Vec::with_capacity(capacity.max(1)),
        }
    }

    /// Events the last wait delivered.
    pub fn len(&self) -> usize {
        #[cfg(target_os = "linux")]
        {
            self.buf.len()
        }
        #[cfg(not(target_os = "linux"))]
        {
            0
        }
    }

    /// Whether the last wait delivered nothing (it timed out).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The events the last wait delivered, in the kernel's order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PollEvent> + '_ {
        #[cfg(target_os = "linux")]
        {
            self.buf.iter().map(|ev| {
                let (token, bits) = (ev.data, ev.events);
                if token == WAKE_TOKEN {
                    return PollEvent {
                        token,
                        readable: false,
                        writable: false,
                        hangup: false,
                        read_closed: false,
                    };
                }
                PollEvent {
                    token,
                    readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
                    read_closed: bits & (sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                }
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            std::iter::empty()
        }
    }
}

/// An epoll instance plus an eventfd wakeup channel.
///
/// Thread model: any number of threads call [`Poller::wait`], and each
/// readiness change goes to one of them; any thread may call
/// [`Poller::register`], [`Poller::modify`], [`Poller::deregister`] or
/// [`Poller::wake`] concurrently (epoll_ctl is thread-safe against
/// epoll_wait by kernel contract).
#[derive(Debug)]
pub struct Poller {
    #[cfg(target_os = "linux")]
    epfd: std::os::raw::c_int,
    #[cfg(target_os = "linux")]
    wakefd: std::os::raw::c_int,
    /// Threads inside [`Poller::wait`].
    waiting: AtomicUsize,
}

impl Poller {
    /// Threads inside [`Poller::wait`] right now — counted from just
    /// before they block to just after they return, so a thread that
    /// sees another counted knows it is not busy with work of its own.
    pub fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }
}

#[cfg(target_os = "linux")]
impl Poller {
    /// Creates the epoll instance and its wakeup eventfd.
    ///
    /// # Errors
    ///
    /// Kernel resource exhaustion (`EMFILE`/`ENOMEM`).
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let wakefd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if wakefd < 0 {
            let err = io::Error::last_os_error();
            unsafe { sys::close(epfd) };
            return Err(err);
        }
        let poller = Poller {
            epfd,
            wakefd,
            waiting: AtomicUsize::new(0),
        };
        poller.ctl(
            sys::EPOLL_CTL_ADD,
            wakefd,
            sys::EPOLLIN | sys::EPOLLET,
            WAKE_TOKEN,
        )?;
        Ok(poller)
    }

    fn ctl(&self, op: std::os::raw::c_int, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn interest_mask(readable: bool, writable: bool) -> u32 {
        // A peer closing its write side is read-side news: an owner that
        // has stopped reading (backpressure) hears of it when it asks
        // for reads again. Full hangups and errors are reported
        // regardless of the mask.
        let mut mask = sys::EPOLLET;
        if readable {
            mask |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if writable {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    /// Registers `fd` under `token` with the given interest,
    /// edge-triggered. An fd already ready is reported once at once.
    ///
    /// # Errors
    ///
    /// `EEXIST` if already registered; other epoll_ctl failures.
    pub fn register(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        debug_assert_ne!(token, WAKE_TOKEN, "token collides with the wake channel");
        self.ctl(
            sys::EPOLL_CTL_ADD,
            fd,
            Self::interest_mask(readable, writable),
            token,
        )
    }

    /// Replaces the interest set of an already registered fd. Readiness
    /// the new set covers and the fd already has is reported once, as a
    /// new edge.
    ///
    /// # Errors
    ///
    /// `ENOENT` if not registered; other epoll_ctl failures.
    pub fn modify(&self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_MOD,
            fd,
            Self::interest_mask(readable, writable),
            token,
        )
    }

    /// Removes `fd` from the interest set. Safe to call for an fd that was
    /// already closed (the kernel auto-deregisters closed fds).
    pub fn deregister(&self, fd: i32) {
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks until at least one event is ready (or `timeout` passes)
    /// and fills `events` with what is, replacing what it held. Returns
    /// the number of events delivered. Wakeups via [`Poller::wake`] are
    /// consumed internally and reported as an event with [`WAKE_TOKEN`].
    /// The calling thread counts in [`Poller::waiting`] until it returns.
    ///
    /// # Errors
    ///
    /// epoll_wait failures other than `EINTR` (which retries).
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: std::os::raw::c_int = match timeout {
            None => -1,
            Some(t) => t.as_millis().min(i32::MAX as u128) as std::os::raw::c_int,
        };
        let buf = &mut events.buf;
        buf.clear();
        let capacity = buf.capacity().min(i32::MAX as usize);
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let rc = loop {
            // SAFETY: the kernel writes at most `capacity` events into
            // the vector's spare capacity, which is that long.
            let rc = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    buf.as_mut_ptr(),
                    capacity as std::os::raw::c_int,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                break Err(err);
            }
        };
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        let n = rc?;
        // SAFETY: epoll_wait initialised the first `n` entries.
        unsafe { buf.set_len(n) };
        if buf.iter().any(|ev| ev.data == WAKE_TOKEN) {
            self.drain_wake();
        }
        Ok(n)
    }

    /// Wakes one thread blocked in [`Poller::wait`] (or the next to
    /// wait). Cheap and thread-safe; wakes before a waiter takes the
    /// event coalesce into one.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            sys::write(self.wakefd, (&one as *const u64).cast(), 8);
        }
    }

    fn drain_wake(&self) {
        let mut buf = 0u64;
        unsafe {
            sys::read(self.wakefd, (&mut buf as *mut u64).cast(), 8);
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.wakefd);
            sys::close(self.epfd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
impl Poller {
    /// Readiness polling is only implemented on Linux; other targets get
    /// `Unsupported` and the server falls back to reader threads.
    pub fn new() -> io::Result<Poller> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "readiness polling requires linux epoll",
        ))
    }

    pub fn register(
        &self,
        _fd: i32,
        _token: u64,
        _readable: bool,
        _writable: bool,
    ) -> io::Result<()> {
        unreachable!("poller cannot be constructed off-linux")
    }

    pub fn modify(
        &self,
        _fd: i32,
        _token: u64,
        _readable: bool,
        _writable: bool,
    ) -> io::Result<()> {
        unreachable!("poller cannot be constructed off-linux")
    }

    pub fn deregister(&self, _fd: i32) {}

    pub fn wait(&self, _events: &mut Events, _timeout: Option<Duration>) -> io::Result<usize> {
        unreachable!("poller cannot be constructed off-linux")
    }

    pub fn wake(&self) {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    #[test]
    fn wake_unblocks_wait() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Arc::clone(&poller);
        let handle = std::thread::spawn(move || {
            let mut events = Events::with_capacity(8);
            waker
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            events.iter().collect::<Vec<_>>()
        });
        while poller.waiting() == 0 {
            std::thread::yield_now();
        }
        poller.wake();
        let events = handle.join().unwrap();
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        assert_eq!(poller.waiting(), 0);
    }

    #[test]
    fn readable_socket_reports_its_token() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, true, false).unwrap();

        a.write_all(b"x").unwrap();
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("socket event");
        assert!(ev.readable);
        // Edge-triggered: the unread byte is not reported a second time,
        // but a byte arriving after it is a new edge.
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "unread bytes reported again");
        a.write_all(b"y").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        poller.deregister(b.as_raw_fd());
    }

    #[test]
    fn hangup_is_reported() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        poller.register(b.as_raw_fd(), 9, true, false).unwrap();
        drop(a);
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 9).expect("socket event");
        // Peer close arrives as EPOLLRDHUP (readable) and/or EPOLLHUP.
        assert!(ev.readable || ev.hangup);
        assert!(ev.read_closed);
    }

    #[test]
    fn modify_adds_write_interest() {
        let poller = Poller::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        poller.register(b.as_raw_fd(), 3, true, false).unwrap();
        poller.modify(b.as_raw_fd(), 3, true, true).unwrap();
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 3).expect("socket event");
        assert!(ev.writable, "an idle socket is immediately writable");
    }
}
