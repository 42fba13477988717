//! The one blocking primitive of the serving layer: `poll(2)` over a
//! borrowed slice of descriptors, and a [`Waker`] other threads use to
//! end that wait.
//!
//! std links libc but wraps no readiness call, so this module declares
//! the one function it needs — no new dependency. It is the only module
//! of the crate allowed `unsafe` (`#![deny(unsafe_code)]` at the crate
//! root), and the `unsafe` is a single call.
//!
//! Everything is level-triggered: a descriptor that is ready stays
//! ready until the condition is consumed, so a caller that recomputes
//! its interest before every wait can never sleep through an event.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `struct pollfd` of the Linux ABI.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    /// `nfds_t` is `unsigned long` on Linux, the one platform CI and
    /// the benchmark build.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

impl PollFd {
    /// An entry asking whether `fd` can be read and/or written. With
    /// neither asked the entry carries `fd = -1`, which the kernel
    /// skips: `poll` reports `POLLHUP` and `POLLERR` even when no event
    /// is requested, so a hung-up peer nobody wants to hear from would
    /// otherwise end every wait at once.
    pub(crate) fn new(fd: RawFd, read: bool, write: bool) -> PollFd {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        }
    }
}

/// Whole milliseconds covering `timeout`, rounded *up* — a wait that
/// ends a fraction of a millisecond early would find its deadline not
/// yet due and go round again; `-1` (no timeout) for `None`.
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(timeout) => {
            let ms = timeout.as_nanos().div_ceil(1_000_000);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        }
    }
}

/// Blocks until an entry of `fds` is ready or `timeout` has passed
/// (`None` waits for as long as it takes); returns how many entries are
/// ready. Readiness includes hang-up and error on any entry with an
/// interest, so the read or write that follows reports what happened.
/// An interrupted wait reads as zero ready; every caller loops.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> usize {
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
    // values laid out field for field as the kernel's `struct pollfd`,
    // and `nfds` is exactly its length; for the duration of the call
    // the kernel reads `fd` and `events` and writes only `revents`.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms(timeout)) };
    usize::try_from(ready).unwrap_or(0)
}

/// Ends another thread's [`wait`]. A nonblocking socket pair: `wake`
/// writes one byte, the waiting thread polls the other end for
/// readability and empties it with `drain`. Wakes coalesce — any number
/// of them between two drains is one readiness — and a full pipe *is* a
/// pending wake, so `wake` never blocks and never fails.
///
/// The rule that makes it lossless: drain *before* looking at the state
/// a wake announces. A wake that lands after the drain leaves its byte
/// behind and ends the next wait at once.
#[derive(Debug)]
pub struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    pub(crate) fn wake(&self) {
        crate::metrics::metrics().waker_signals.inc();
        // `WouldBlock` means unread wakes already fill the pipe.
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes every pending wake.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.rx).read(&mut sink) {
                // A full buffer may have left more behind; a short read
                // emptied the pipe.
                Ok(n) if n == sink.len() => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // `WouldBlock`: nothing was pending.
                Ok(_) | Err(_) => return,
            }
        }
    }

    /// The entry to wait on.
    pub(crate) fn pollfd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), true, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    const SHORT: Option<Duration> = Some(Duration::from_millis(20));

    #[test]
    fn ten_thousand_wakes_coalesce_to_one_readiness_and_one_drain_empties_it() {
        let waker = Waker::new().unwrap();
        let mut fds = [waker.pollfd()];
        assert_eq!(wait(&mut fds, SHORT), 0, "nothing pending at first");
        for _ in 0..10_000 {
            waker.wake();
        }
        assert_eq!(wait(&mut fds, None), 1);
        assert_eq!(wait(&mut fds, None), 1, "level-triggered until drained");
        waker.drain();
        assert_eq!(wait(&mut fds, SHORT), 0, "one drain consumed them all");
    }

    #[test]
    fn a_wake_from_another_thread_ends_an_unbounded_wait() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let remote = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        assert_eq!(wait(&mut [waker.pollfd()], None), 1);
        handle.join().unwrap();
    }

    #[test]
    fn a_no_interest_entry_on_a_hung_up_socket_does_not_end_the_wait() {
        let (ours, theirs) = UnixStream::pair().unwrap();
        drop(theirs);
        let fd = ours.as_raw_fd();
        // Asked for writability only, the hang-up still comes back …
        assert_eq!(wait(&mut [PollFd::new(fd, false, true)], SHORT), 1);
        // … with no interest the entry is invisible to the kernel.
        let started = Instant::now();
        assert_eq!(wait(&mut [PollFd::new(fd, false, false)], SHORT), 0);
        assert!(started.elapsed() >= SHORT.unwrap());
    }

    #[test]
    fn the_timeout_rounds_up_to_the_millisecond() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_nanos(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1001))), 2);
        assert_eq!(timeout_ms(Some(Duration::MAX)), c_int::MAX);
        let started = Instant::now();
        assert_eq!(wait(&mut [], Some(Duration::from_micros(1200))), 0);
        assert!(started.elapsed() >= Duration::from_micros(1200));
    }
}
