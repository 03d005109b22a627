//! SIGTERM/SIGINT → a process-global shutdown flag and a self-pipe wake.
//!
//! The workspace has no `libc` crate, so the handler is installed through a
//! direct `extern "C"` declaration of POSIX `signal(2)` (libc is always
//! linked on the platforms we target).  The handler body is
//! async-signal-safe by construction: one atomic swap and, on the first
//! signal only, one `write(2)` of a single byte to a pipe — no allocation,
//! no locks.  glibc installs the handler with `SA_RESTART`, so a blocking
//! `accept` is restarted rather than interrupted, and the signal may land
//! on any thread; a thread started by [`on_shutdown`] therefore blocks
//! reading the pipe and turns the byte into a graceful drain.
//!
//! This module is the crate's single, documented exception to the
//! workspace-wide `forbid(unsafe_code)` house rule (the crate root uses
//! `deny` + a scoped `allow` here): std offers no signal API at all, and
//! the alternative — shipping a hand-rolled signalfd/sigaction syscall
//! layer — would be strictly more unsafe code, not less.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; read by the accept loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether a shutdown signal has been received.
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Acquire)
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::SHUTDOWN;
    use std::io::{PipeReader, PipeWriter, Read};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicI32, Ordering};
    use std::sync::OnceLock;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// The self-pipe the handler writes to, created once by [`install`].
    static PIPE: OnceLock<(PipeReader, PipeWriter)> = OnceLock::new();
    /// The pipe's write end as a raw fd, for the handler (-1 until set).
    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" fn on_signal(_signum: i32) {
        // Only the first signal writes, so the pipe never holds more than
        // one byte and the write can never block.
        if !SHUTDOWN.swap(true, Ordering::AcqRel) {
            write_byte(WAKE_FD.load(Ordering::Acquire));
        }
    }

    /// One `write(2)` of one byte: async-signal-safe, result ignored (the
    /// flag is already raised; the byte only wakes the watcher).
    fn write_byte(fd: i32) {
        if fd >= 0 {
            // SAFETY: `write(2)` reads one byte from a live stack value;
            // `fd` is the write end of the pipe held in `PIPE` (never
            // closed) or of a pipe the caller keeps open.
            unsafe {
                write(fd, &1u8, 1);
            }
        }
    }

    extern "C" {
        // POSIX `signal(2)`.  The return value (the previous handler, or
        // SIG_ERR) is pointer-sized; we never inspect it because the only
        // failure mode is an invalid signum, and ours are constants.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    pub fn install() -> std::io::Result<()> {
        if PIPE.get().is_none() {
            let (reader, writer) = std::io::pipe()?;
            let pipe = PIPE.get_or_init(|| (reader, writer));
            WAKE_FD.store(pipe.1.as_raw_fd(), Ordering::Release);
        }
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` that only does
        // async-signal-safe work, and the wake fd it reads is set above.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
        Ok(())
    }

    /// Blocks until a byte arrives on `pipe`, then puts one back so every
    /// other waiter (and every later one) wakes too.
    fn wait(pipe: &(PipeReader, PipeWriter)) -> std::io::Result<()> {
        (&pipe.0).read_exact(&mut [0u8; 1])?;
        write_byte(pipe.1.as_raw_fd());
        Ok(())
    }

    pub fn on_shutdown(f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let Some(pipe) = PIPE.get() else {
            return Ok(());
        };
        std::thread::Builder::new()
            .name("serve-signal".to_owned())
            .spawn(move || {
                if wait(pipe).is_ok() {
                    f();
                }
            })?;
        Ok(())
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::mpsc;
        use std::time::Duration;

        /// The handler's wake on a private pipe (the process-global one
        /// would stop every server in this test binary): one byte written
        /// the way the handler writes it wakes every waiter.
        #[test]
        fn one_handler_byte_wakes_every_waiter() {
            let pipe: &'static _ = Box::leak(Box::new(std::io::pipe().unwrap()));
            let (tx, rx) = mpsc::channel();
            for _ in 0..3 {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(wait(pipe).is_ok()).unwrap());
            }
            assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
            write_byte(pipe.1.as_raw_fd());
            for _ in 0..3 {
                assert!(rx.recv_timeout(Duration::from_secs(5)).unwrap());
            }
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() -> std::io::Result<()> {
        Ok(())
    }

    pub fn on_shutdown(_f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        Ok(())
    }
}

/// Installs the SIGTERM/SIGINT handlers and their wake pipe (no-op off
/// Unix).  Idempotent.
pub fn install() -> std::io::Result<()> {
    imp::install()
}

/// Runs `f` on a new thread once SIGTERM/SIGINT arrives; does nothing when
/// [`install`] was never called.  The thread blocks until the signal (or
/// process exit), so call this once per server run.
pub fn on_shutdown(f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
    imp::on_shutdown(f)
}
