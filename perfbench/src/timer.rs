//! A one-shot `timerfd` the open-loop generator registers with its
//! [`shield_net::poller::Poller`].
//!
//! The poller's timeout is in whole milliseconds, far coarser than the
//! 50–100 µs gap between requests at the nominal rates, and sleeping
//! instead would leave responses that arrive meanwhile unread (and their
//! latencies inflated). A timerfd wakes the same `epoll_wait` that
//! watches the sockets at the next due time, with no timer slack, so the
//! single generator thread neither spins nor oversleeps.

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

const CLOCK_MONOTONIC: i32 = 1;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2000000;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const Itimerspec, old: *mut Itimerspec) -> i32;
}

/// A nonblocking one-shot timer file descriptor.
pub struct Timer {
    fd: File,
}

impl Timer {
    pub fn new() -> io::Result<Timer> {
        // SAFETY: plain syscall with integer arguments only; a
        // non-negative return is a fresh descriptor nobody else owns, so
        // `File` becomes its single owner.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by `timerfd_create` and is owned
        // by nothing else.
        Ok(Timer { fd: unsafe { File::from_raw_fd(fd) } })
    }

    /// Fires once, `after` from now (at least 1 ns: zero would disarm).
    pub fn arm(&self, after: Duration) -> io::Result<()> {
        let after = after.max(Duration::from_nanos(1));
        let spec = Itimerspec {
            it_interval: Timespec { tv_sec: 0, tv_nsec: 0 },
            it_value: Timespec {
                tv_sec: after.as_secs() as i64,
                tv_nsec: i64::from(after.subsec_nanos()),
            },
        };
        // SAFETY: `spec` is a live, correctly laid out `itimerspec` for
        // the duration of the call; the old-value pointer may be null;
        // the descriptor is owned by `self.fd` and still open.
        let rc = unsafe { timerfd_settime(self.fd.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Consumes an expiry so the level-triggered poller stops reporting it.
    pub fn clear(&mut self) {
        let mut buf = [0u8; 8];
        let _ = self.fd.read(&mut buf);
    }

    pub fn raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}
