//! Socket substrate: one address/stream/listener type over both
//! Unix-domain and TCP loopback transports.
//!
//! `std::net` only — no async runtime is vendored, so reads block: a site
//! gives each connection a reader thread ([`crate::node`]), and a load
//! worker reads its own connection under a read timeout
//! ([`crate::loadgen`]). Both read with [`Sock::read_frames`], the
//! crate's one read step: one `read` into a [`FrameReader`], then every
//! frame it completed. Writes are one [`Sock::write_all`] of
//! already-framed bytes: the site shell frames a whole drive-loop pass
//! per connection into one buffer and the load worker a whole admission
//! round, and each writes it once; [`Sock::send_frame`] is the
//! single-frame case.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use crate::wire::{frame, FrameReader};

/// A serving or dialing address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// Unix-domain socket path.
    Uds(PathBuf),
    /// TCP socket address (loopback in every shipped experiment).
    Tcp(SocketAddr),
}

/// A connected stream of either flavour.
#[derive(Debug)]
pub enum Sock {
    /// Unix-domain stream.
    Uds(UnixStream),
    /// TCP stream (`TCP_NODELAY` set — frames are latency-bound, tiny).
    Tcp(TcpStream),
}

impl Sock {
    /// Dials `addr` once.
    pub fn connect(addr: &Addr) -> io::Result<Sock> {
        match addr {
            Addr::Uds(p) => Ok(Sock::Uds(UnixStream::connect(p)?)),
            Addr::Tcp(a) => {
                let s = TcpStream::connect_timeout(a, Duration::from_millis(500))?;
                s.set_nodelay(true)?;
                Ok(Sock::Tcp(s))
            }
        }
    }

    /// An independently owned handle to the same connection (for the
    /// reader thread; the writer stays with the drive loop).
    pub fn try_clone(&self) -> io::Result<Sock> {
        match self {
            Sock::Uds(s) => Ok(Sock::Uds(s.try_clone()?)),
            Sock::Tcp(s) => Ok(Sock::Tcp(s.try_clone()?)),
        }
    }

    /// Shuts down both halves, unblocking any reader thread.
    pub fn shutdown(&self) {
        let _ = match self {
            Sock::Uds(s) => s.shutdown(std::net::Shutdown::Both),
            Sock::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// Writes `bytes` — any number of whole frames — with one `write_all`.
    pub fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self {
            Sock::Uds(s) => s.write_all(bytes),
            Sock::Tcp(s) => s.write_all(bytes),
        }
    }

    /// Writes one length-prefixed frame ([`frame`]) with one `write_all`.
    pub fn send_frame(&mut self, body: &[u8]) -> io::Result<()> {
        self.write_all(&frame(body))
    }

    /// Reads into `buf`, returning the byte count (0 = clean EOF).
    pub fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Sock::Uds(s) => s.read(buf),
            Sock::Tcp(s) => s.read(buf),
        }
    }

    /// Bounds how long a read blocks; an expired wait is a `WouldBlock`
    /// or `TimedOut` error from it. `wait` must not be zero.
    pub fn set_read_timeout(&self, wait: Duration) -> io::Result<()> {
        match self {
            Sock::Uds(s) => s.set_read_timeout(Some(wait)),
            Sock::Tcp(s) => s.set_read_timeout(Some(wait)),
        }
    }

    /// The read step: one `read` into `reader`, then each frame body it
    /// completed, in order, to `on_frame`. `Ok(Continue)` once they are
    /// all taken; `Ok(Break)` at EOF, on a length prefix the reader
    /// rejects, or when `on_frame` breaks — one rule for every caller:
    /// whatever cannot be decoded ends the connection, however the bytes
    /// were chunked into reads. A read error (an expired read timeout
    /// included) is returned with nothing read.
    pub fn read_frames(
        &mut self,
        reader: &mut FrameReader,
        mut on_frame: impl FnMut(&[u8]) -> ControlFlow<()>,
    ) -> io::Result<ControlFlow<()>> {
        if reader.fill(|buf| self.read_some(buf))? == 0 {
            return Ok(ControlFlow::Break(()));
        }
        loop {
            match reader.next_frame() {
                Ok(Some(body)) if on_frame(body).is_continue() => {}
                Ok(None) => return Ok(ControlFlow::Continue(())),
                _ => return Ok(ControlFlow::Break(())),
            }
        }
    }
}

/// A bound, non-blocking listener of either flavour.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener (unlinks the path on bind and drop).
    Uds(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds `addr`, replacing a stale UDS path if one exists. The
    /// listener is non-blocking: accept loops poll it so they can also
    /// watch a stop flag.
    pub fn bind(addr: &Addr) -> io::Result<Listener> {
        match addr {
            Addr::Uds(p) => {
                let _ = std::fs::remove_file(p);
                if let Some(dir) = p.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                let l = UnixListener::bind(p)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Uds(l, p.clone()))
            }
            Addr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// Accepts one pending connection if any (`WouldBlock` ⇒ `None`).
    pub fn accept(&self) -> io::Result<Option<Sock>> {
        match self {
            Listener::Uds(l, _) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Sock::Uds(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    s.set_nodelay(true)?;
                    Ok(Some(Sock::Tcp(s)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}
