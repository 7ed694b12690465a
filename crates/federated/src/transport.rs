use crate::error::FedError;
use fedpower_wire::stream;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Duration;

/// The server's handle to one client's duplex link.
///
/// The federation is synchronous (Algorithm 2), so both directions are
/// modeled as one blocking hop: the caller hands in the encoded frame and
/// gets back the bytes *as received on the far side*. [`upload`] moves a
/// frame client → server; [`broadcast`] moves one server → client. A
/// faithful transport returns the frame unchanged; a faulty or lossy one
/// may refuse ([`FedError::UploadDropped`] / [`FedError::DownloadDropped`]
/// / [`FedError::Straggling`] / [`FedError::ClientOffline`]) or deliver
/// mangled bytes, which the wire-level CRC or server admission then
/// rejects.
///
/// [`upload`]: Transport::upload
/// [`broadcast`]: Transport::broadcast
pub trait Transport: Send + fmt::Debug {
    /// The client this link connects to the server.
    fn client_id(&self) -> usize;

    /// Advances the link's notion of the current round (used by fault
    /// middleware; faithful transports ignore it).
    fn begin_round(&mut self, _round: u64) {}

    /// Whether the link's client end is reachable this round.
    fn is_online(&self) -> bool {
        true
    }

    /// Carries an encoded frame client → server, returning the bytes the
    /// server received.
    ///
    /// # Errors
    ///
    /// A [`FedError`] disposition when the frame does not arrive this
    /// attempt (dropped, straggling, client offline, or an I/O failure).
    fn upload(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError>;

    /// Carries an encoded frame server → client, returning the bytes the
    /// client received.
    ///
    /// # Errors
    ///
    /// A [`FedError`] disposition when the frame does not arrive
    /// (download dropped, client offline, or an I/O failure).
    fn broadcast(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError>;

    /// Collects a straggler's frame buffered in a previous round, if one
    /// has become deliverable (faithful transports buffer nothing).
    fn take_stale(&mut self) -> Option<Vec<u8>> {
        None
    }
}

impl Transport for Box<dyn Transport> {
    fn client_id(&self) -> usize {
        (**self).client_id()
    }

    fn begin_round(&mut self, round: u64) {
        (**self).begin_round(round);
    }

    fn is_online(&self) -> bool {
        (**self).is_online()
    }

    fn upload(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        (**self).upload(frame)
    }

    fn broadcast(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        (**self).broadcast(frame)
    }

    fn take_stale(&mut self) -> Option<Vec<u8>> {
        (**self).take_stale()
    }
}

/// In-process transport over std `mpsc` channels — the default backend.
///
/// Frames really do cross a channel pair (one per direction), so byte
/// accounting reflects encoded frames, but delivery is infallible and
/// instantaneous: runs are bit-identical to the pre-transport federation.
#[derive(Debug)]
pub struct ChannelTransport {
    client_id: usize,
    up_tx: Sender<Vec<u8>>,
    up_rx: Receiver<Vec<u8>>,
    down_tx: Sender<Vec<u8>>,
    down_rx: Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// Opens a channel-backed link to `client_id`.
    pub fn connect(client_id: usize) -> Self {
        let (up_tx, up_rx) = channel();
        let (down_tx, down_rx) = channel();
        ChannelTransport {
            client_id,
            up_tx,
            up_rx,
            down_tx,
            down_rx,
        }
    }

    fn hop(
        tx: &Sender<Vec<u8>>,
        rx: &Receiver<Vec<u8>>,
        frame: &[u8],
        on_loss: FedError,
    ) -> Result<Vec<u8>, FedError> {
        if tx.send(frame.to_vec()).is_err() {
            return Err(on_loss);
        }
        match rx.try_recv() {
            Ok(bytes) => Ok(bytes),
            Err(TryRecvError::Empty | TryRecvError::Disconnected) => Err(on_loss),
        }
    }
}

impl Transport for ChannelTransport {
    fn client_id(&self) -> usize {
        self.client_id
    }

    fn upload(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        ChannelTransport::hop(
            &self.up_tx,
            &self.up_rx,
            frame,
            FedError::UploadDropped {
                client_id: self.client_id,
            },
        )
    }

    fn broadcast(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        ChannelTransport::hop(
            &self.down_tx,
            &self.down_rx,
            frame,
            FedError::DownloadDropped {
                client_id: self.client_id,
            },
        )
    }
}

/// How long a TCP endpoint waits for a frame before declaring it dropped.
const TCP_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Loopback TCP transport: frames cross a real socket pair.
///
/// Each link binds an ephemeral listener on `127.0.0.1`, connects, and
/// holds both stream ends. Frames are `u32` little-endian length-prefixed
/// and reassembled through a persistent per-end
/// [`fedpower_wire::stream::FrameReassembler`], so a short read — or a
/// read timeout landing mid-frame — keeps its partial progress instead of
/// desynchronizing the stream (the pre-reassembler implementation used
/// bare `read_exact` and silently discarded a timed-out frame's prefix,
/// corrupting every frame after it). Timeouts and I/O failures map onto
/// the federation's drop dispositions ([`FedError::UploadDropped`] /
/// [`FedError::DownloadDropped`]).
#[derive(Debug)]
pub struct TcpTransport {
    client_id: usize,
    /// The server's end of the socket.
    server_end: TcpStream,
    /// The client's end of the socket.
    client_end: TcpStream,
    /// Reassembly buffer for bytes arriving at the server end.
    server_rx: stream::FrameReassembler,
    /// Reassembly buffer for bytes arriving at the client end.
    client_rx: stream::FrameReassembler,
}

impl TcpTransport {
    /// Opens a loopback TCP link to `client_id`.
    ///
    /// # Errors
    ///
    /// [`FedError::InvalidConfig`] when the local socket pair cannot be
    /// established (no loopback networking available).
    pub fn connect(client_id: usize) -> Result<Self, FedError> {
        let setup = |what: &str, e: std::io::Error| {
            FedError::InvalidConfig(format!("tcp transport for client {client_id}: {what}: {e}"))
        };
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| setup("bind loopback listener", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| setup("resolve listener address", e))?;
        let client_end = TcpStream::connect(addr).map_err(|e| setup("connect", e))?;
        let (server_end, _) = listener.accept().map_err(|e| setup("accept", e))?;
        for end in [&server_end, &client_end] {
            end.set_nodelay(true).map_err(|e| setup("set nodelay", e))?;
            end.set_read_timeout(Some(TCP_READ_TIMEOUT))
                .map_err(|e| setup("set read timeout", e))?;
            end.set_write_timeout(Some(TCP_READ_TIMEOUT))
                .map_err(|e| setup("set write timeout", e))?;
        }
        Ok(TcpTransport {
            client_id,
            server_end,
            client_end,
            server_rx: stream::FrameReassembler::new(),
            client_rx: stream::FrameReassembler::new(),
        })
    }

    fn send_frame(stream: &mut TcpStream, frame: &[u8]) -> std::io::Result<()> {
        stream.write_all(&(frame.len() as u32).to_le_bytes())?;
        stream.write_all(frame)?;
        stream.flush()
    }

    fn hop(
        tx: &TcpStream,
        rx: &mut TcpStream,
        reasm: &mut stream::FrameReassembler,
        frame: &[u8],
    ) -> std::io::Result<Vec<u8>> {
        // Write from a helper thread so a frame larger than the socket
        // buffers cannot deadlock the synchronous send-then-receive hop.
        let mut tx = tx.try_clone()?;
        let frame = frame.to_vec();
        let writer = std::thread::spawn(move || TcpTransport::send_frame(&mut tx, &frame));
        let received = stream::read_frame(rx, reasm);
        match writer.join() {
            Ok(Ok(())) => received,
            Ok(Err(e)) => Err(e),
            Err(_) => Err(std::io::Error::other("frame writer panicked")),
        }
    }
}

impl Transport for TcpTransport {
    fn client_id(&self) -> usize {
        self.client_id
    }

    fn upload(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        TcpTransport::hop(
            &self.client_end,
            &mut self.server_end,
            &mut self.server_rx,
            frame,
        )
        .map_err(|_| FedError::UploadDropped {
            client_id: self.client_id,
        })
    }

    fn broadcast(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        TcpTransport::hop(
            &self.server_end,
            &mut self.client_end,
            &mut self.client_rx,
            frame,
        )
        .map_err(|_| FedError::DownloadDropped {
            client_id: self.client_id,
        })
    }
}

/// Which transport backend a federation moves its frames over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TransportKind {
    /// In-process `mpsc` channels (default; bit-identical to the
    /// pre-transport federation).
    #[default]
    Channel,
    /// Loopback TCP sockets with length-prefixed frames.
    Tcp,
}

impl TransportKind {
    /// Every backend, for sweeps and CLI help text.
    pub const ALL: [TransportKind; 2] = [TransportKind::Channel, TransportKind::Tcp];

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parses a CLI-facing name (as produced by [`TransportKind::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        TransportKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Opens a link of this kind to `client_id`.
    ///
    /// # Errors
    ///
    /// [`FedError::InvalidConfig`] when the backend cannot be set up
    /// (only possible for [`TransportKind::Tcp`]).
    pub fn connect(self, client_id: usize) -> Result<Box<dyn Transport>, FedError> {
        match self {
            TransportKind::Channel => Ok(Box::new(ChannelTransport::connect(client_id))),
            TransportKind::Tcp => Ok(Box::new(TcpTransport::connect(client_id)?)),
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_link(link: &mut dyn Transport) {
        assert!(link.is_online());
        assert!(link.take_stale().is_none());
        link.begin_round(1);
        let up = vec![0xAB; 37];
        assert_eq!(link.upload(&up).unwrap(), up);
        let down = vec![0xCD; 91];
        assert_eq!(link.broadcast(&down).unwrap(), down);
        // Frames are independent: a second exchange is not contaminated
        // by the first.
        assert_eq!(link.upload(&[1, 2, 3]).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn channel_transport_is_a_faithful_link() {
        let mut link = ChannelTransport::connect(4);
        assert_eq!(link.client_id(), 4);
        exercise_link(&mut link);
    }

    #[test]
    fn tcp_transport_is_a_faithful_link() {
        let mut link = TcpTransport::connect(7).expect("loopback TCP available");
        assert_eq!(link.client_id(), 7);
        exercise_link(&mut link);
    }

    #[test]
    fn tcp_short_reads_survive_a_timeout_without_desync() {
        // Regression test for the short-read desync: deliver a frame's
        // length prefix (and part of its body), let the receive attempt
        // time out, then deliver the rest plus a second frame. The old
        // `read_exact`-based receiver discarded the partial progress, so
        // the resumed read misparsed the body tail as a length prefix;
        // the persistent reassembler must hand over both frames intact.
        let mut link = TcpTransport::connect(3).expect("loopback TCP available");
        link.server_end
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let first = vec![0x11u8; 200];
        let second = vec![0x22u8; 32];
        let mut wire = (first.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&first);
        // Prefix + half the body now; the rest after the timeout.
        let cut = 4 + first.len() / 2;
        let mut tx = link.client_end.try_clone().unwrap();
        tx.write_all(&wire[..cut]).unwrap();
        tx.flush().unwrap();
        let timed_out = stream::read_frame(&mut link.server_end, &mut link.server_rx)
            .expect_err("only half a frame has arrived");
        assert!(
            matches!(
                timed_out.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{timed_out:?}"
        );
        tx.write_all(&wire[cut..]).unwrap();
        let mut second_wire = (second.len() as u32).to_le_bytes().to_vec();
        second_wire.extend_from_slice(&second);
        tx.write_all(&second_wire).unwrap();
        tx.flush().unwrap();
        let got_first = stream::read_frame(&mut link.server_end, &mut link.server_rx).unwrap();
        assert_eq!(got_first, first, "partial progress was retained");
        let got_second = stream::read_frame(&mut link.server_end, &mut link.server_rx).unwrap();
        assert_eq!(got_second, second, "stream stayed in sync");
    }

    #[test]
    fn tcp_transport_moves_large_frames_without_blocking() {
        // A frame bigger than typical socket buffers would deadlock a
        // naive write-then-read loopback if both ends blocked; the
        // synchronous hop must still complete.
        let mut link = TcpTransport::connect(0).expect("loopback TCP available");
        let big = vec![0x5A; 1 << 20];
        assert_eq!(link.upload(&big).unwrap(), big);
    }

    #[test]
    fn transport_kind_parses_and_connects() {
        assert_eq!(
            TransportKind::parse("channel"),
            Some(TransportKind::Channel)
        );
        assert_eq!(TransportKind::parse("TCP"), Some(TransportKind::Tcp));
        assert_eq!(TransportKind::parse("carrier-pigeon"), None);
        assert_eq!(TransportKind::default(), TransportKind::Channel);
        for kind in TransportKind::ALL {
            assert_eq!(TransportKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
            let mut link = kind.connect(2).expect("backend available");
            assert_eq!(link.client_id(), 2);
            assert_eq!(link.upload(&[9, 9]).unwrap(), vec![9, 9]);
        }
    }
}
