//! Readiness polling for the reactor — epoll, so the serving layer is
//! Linux only.
//!
//! The reactor needs exactly four things from the OS: "tell me which of
//! these sockets can make progress", "wake me from another thread", a way
//! to register/deregister sockets, and nothing more. This module provides
//! that surface with raw syscalls behind `extern "C"` declarations (the
//! same pattern [`crate::affinity`] uses for `sched_setaffinity`) so the
//! crate stays free of foreign dependencies.
//!
//! Tokens are caller-chosen `u64`s echoed back with each event. The
//! reactor uses connection-slot indices, reserving [`WAKER_TOKEN`] for the
//! cross-thread waker. Events are *hints*: a stale event for a closed slot
//! is harmless because every read/write on a nonblocking socket rechecks
//! readiness by construction.

/// Token the poller reports when [`Waker::wake`] was called.
pub(crate) const WAKER_TOKEN: u64 = u64::MAX;

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    pub(crate) token: u64,
    pub(crate) readable: bool,
    /// Part of the readiness ABI; the reactor flushes on every service
    /// pass, so it never branches on this today.
    #[allow(dead_code)]
    pub(crate) writable: bool,
}

#[cfg(not(target_os = "linux"))]
compile_error!("biq_serve is Linux only: its reactor is built on epoll(7)");

pub(crate) use linux::{Poller, Waker};

/// Raw fd of a socket, for registration. Events remain hints, so a token
/// outliving its socket never corrupts anything.
pub(crate) fn sock_fd(stream: &std::net::TcpStream) -> i32 {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

mod linux {
    use super::{Event, WAKER_TOKEN};
    use std::io;
    use std::sync::Arc;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    /// Kernel `struct epoll_event`. Packed on x86-64 only (the kernel ABI
    /// quirk); naturally aligned everywhere else.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// Owns an fd, closing it on drop.
    struct OwnedFd(i32);

    impl Drop for OwnedFd {
        fn drop(&mut self) {
            unsafe { close(self.0) };
        }
    }

    /// epoll instance plus an eventfd waker registered under [`WAKER_TOKEN`].
    pub(crate) struct Poller {
        epfd: OwnedFd,
        waker: Arc<OwnedFd>,
    }

    /// Wakes the owning [`Poller`] from any thread.
    #[derive(Clone)]
    pub(crate) struct Waker {
        efd: Arc<OwnedFd>,
    }

    impl Waker {
        pub(crate) fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // A full eventfd counter still wakes the poller; ignore errors.
            unsafe { write(self.efd.0, one.as_ptr(), one.len()) };
        }
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let epfd = OwnedFd(epfd);
            let efd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if efd < 0 {
                return Err(io::Error::last_os_error());
            }
            let waker = Arc::new(OwnedFd(efd));
            let mut ev = EpollEvent { events: EPOLLIN, data: WAKER_TOKEN };
            if unsafe { epoll_ctl(epfd.0, EPOLL_CTL_ADD, waker.0, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd, waker })
        }

        pub(crate) fn waker(&self) -> Waker {
            Waker { efd: Arc::clone(&self.waker) }
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            // Error/hangup conditions are always reported by epoll; with
            // both interests off the fd just waits silently (a drained
            // connection parked on in-flight tickets).
            let events =
                if read { EPOLLIN | EPOLLRDHUP } else { 0 } | if write { EPOLLOUT } else { 0 };
            let mut ev = EpollEvent { events, data: token };
            if unsafe { epoll_ctl(self.epfd.0, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn add(&self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
        }

        pub(crate) fn modify(
            &self,
            fd: i32,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
        }

        pub(crate) fn delete(&self, fd: i32) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // Kernels before 2.6.9 required a non-null event for DEL.
            unsafe { epoll_ctl(self.epfd.0, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// Blocks up to `timeout_ms` for readiness; drains the waker if it
        /// fired so the next wait blocks again.
        pub(crate) fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            events.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; 256];
            let n =
                unsafe { epoll_wait(self.epfd.0, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in raw.iter().take(n as usize) {
                let (bits, token) = (ev.events, ev.data);
                if token == WAKER_TOKEN {
                    let mut buf = [0u8; 8];
                    unsafe { read(self.waker.0, buf.as_mut_ptr(), buf.len()) };
                    events.push(Event { token, readable: true, writable: false });
                    continue;
                }
                // Error/hangup surfaces as readable: the next read reports
                // the actual condition (EOF or an io::Error) in-band.
                let err = bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                events.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0 || err,
                    writable: bits & EPOLLOUT != 0 || err,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    #[test]
    fn waker_interrupts_a_long_wait() {
        let poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        // Poll until the wake is observed (a signal can end a wait early,
        // so loop rather than rely on one long block).
        loop {
            poller.wait(&mut events, 2_000).expect("wait");
            if events.iter().any(|e| e.token == WAKER_TOKEN) {
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(5), "wake never observed");
        }
        handle.join().unwrap();
    }

    #[test]
    fn readable_socket_reports_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let poller = Poller::new().expect("poller");
        poller.add(sock_fd(&server), 7, true, false).expect("add");

        client.write_all(b"ping").expect("write");
        let mut events = Vec::new();
        let start = Instant::now();
        loop {
            poller.wait(&mut events, 2_000).expect("wait");
            if let Some(ev) = events.iter().find(|e| e.token == 7) {
                assert!(ev.readable, "socket with buffered bytes must be readable");
                break;
            }
            assert!(start.elapsed() < Duration::from_secs(5), "readiness never observed");
        }
        let mut one = { &server };
        let mut buf = [0u8; 16];
        let n = one.read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");
        poller.delete(sock_fd(&server));
    }
}
