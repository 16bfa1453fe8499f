//! Graceful-shutdown signal plumbing, dependency-free.
//!
//! The portable ways to catch `SIGTERM` need `libc`; this workspace is
//! hermetic, so on Linux we go straight to the kernel with the same
//! raw-syscall idiom `satsolver`'s arena uses for `madvise`:
//! `rt_sigprocmask(SIG_BLOCK, {TERM, INT})` in the main thread *before*
//! any other thread exists (spawned threads inherit the mask), then a
//! `signalfd4` that a dedicated watcher thread blocks on. When a signal
//! arrives it is delivered as a readable event instead of interrupting
//! anything, and the watcher triggers the server's drain path.
//!
//! On other platforms [`SignalFd::block_and_open`] returns `None` and
//! the server simply has no signal-driven shutdown (the `shutdown` op
//! and test handles still work).

/// A readable signalfd carrying blocked `SIGTERM` / `SIGINT`.
#[derive(Debug)]
pub struct SignalFd {
    #[cfg_attr(
        not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )),
        allow(dead_code)
    )]
    fd: i64,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: usize = 0;
        pub const RT_SIGPROCMASK: usize = 14;
        pub const SIGNALFD4: usize = 289;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const READ: usize = 63;
        pub const RT_SIGPROCMASK: usize = 135;
        pub const SIGNALFD4: usize = 74;
    }

    const SIG_BLOCK: usize = 0;
    const SIGSET_BYTES: usize = 8;
    /// `sigset_t` bit for signal `n` is `1 << (n - 1)`.
    const TERM_INT_MASK: u64 = (1 << (15 - 1)) | (1 << (2 - 1));

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall4(nr: usize, a: usize, b: usize, c: usize, d: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall4(nr: usize, a: usize, b: usize, c: usize, d: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "svc 0",
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x8") nr,
            options(nostack),
        );
        ret
    }

    /// Blocks TERM/INT for the calling thread (and every thread it
    /// spawns afterwards) and opens a signalfd for them. Returns the
    /// fd, or `None` if either syscall failed.
    pub fn block_and_open() -> Option<i64> {
        let mask: u64 = TERM_INT_MASK;
        // SAFETY: rt_sigprocmask reads 8 bytes from our stack mask and
        // writes nothing (oldset is null); signalfd4 only allocates an
        // fd. Neither touches memory we do not own.
        unsafe {
            let r = syscall4(
                nr::RT_SIGPROCMASK,
                SIG_BLOCK,
                std::ptr::addr_of!(mask) as usize,
                0,
                SIGSET_BYTES,
            );
            if r < 0 {
                return None;
            }
            let fd = syscall4(
                nr::SIGNALFD4,
                usize::MAX, // -1: create a new fd
                std::ptr::addr_of!(mask) as usize,
                SIGSET_BYTES,
                0,
            );
            if fd < 0 {
                return None;
            }
            Some(fd as i64)
        }
    }

    /// Blocks until the signalfd delivers one `signalfd_siginfo`
    /// (128 bytes). Returns false on read error.
    pub fn wait(fd: i64) -> bool {
        let mut buf = [0u8; 128];
        // SAFETY: read writes at most 128 bytes into our buffer.
        let r = unsafe {
            syscall4(
                nr::READ,
                fd as usize,
                buf.as_mut_ptr() as usize,
                buf.len(),
                0,
            )
        };
        r > 0
    }
}

impl SignalFd {
    /// Blocks `SIGTERM`/`SIGINT` process-wide and opens a signalfd for
    /// them. **Must be called before spawning any thread** — later
    /// threads inherit the mask, which is what routes the signal to the
    /// fd instead of killing the process. Returns `None` off Linux or
    /// on syscall failure, in which case signals keep their default
    /// disposition.
    pub fn block_and_open() -> Option<SignalFd> {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            sys::block_and_open().map(|fd| SignalFd { fd })
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            None
        }
    }

    /// Blocks until a `SIGTERM`/`SIGINT` arrives. Returns false if the
    /// fd failed, in which case the caller should not loop.
    pub fn wait(&self) -> bool {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            sys::wait(self.fd)
        }
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        {
            false
        }
    }
}
