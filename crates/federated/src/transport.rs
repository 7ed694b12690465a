use crate::error::FedError;
use std::fmt;

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

/// The in-process link a federation connects per client unless given
/// its own links.
///
/// Each hop returns a copy of the encoded frame, so byte accounting
/// reflects encoded frames, but delivery is infallible and instantaneous:
/// runs are bit-identical to the pre-transport federation.
#[derive(Debug)]
pub struct ChannelTransport {
    client_id: usize,
}

impl ChannelTransport {
    /// Opens an in-process link to `client_id`.
    pub fn connect(client_id: usize) -> Self {
        ChannelTransport { client_id }
    }
}

impl Transport for ChannelTransport {
    fn client_id(&self) -> usize {
        self.client_id
    }

    fn upload(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        Ok(frame.to_vec())
    }

    fn broadcast(&mut self, frame: &[u8]) -> Result<Vec<u8>, FedError> {
        Ok(frame.to_vec())
    }
}

/// Which transport backend a federation moves its frames over.
///
/// Only the in-process [`ChannelTransport`] remains; real sockets live in
/// [`crate::netserver`]. The type survives for the deprecated
/// `Federation::with_transport*` / `with_options` forwarders that take
/// it, and goes with them in the first release after 2026-12-01.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process links (bit-identical to the pre-transport federation).
    Channel,
}

impl TransportKind {
    /// Opens a link of this kind to `client_id`.
    ///
    /// # Errors
    ///
    /// None: an in-process link cannot fail to connect. The `Result`
    /// keeps existing callers compiling.
    pub fn connect(self, client_id: usize) -> Result<Box<dyn Transport>, FedError> {
        match self {
            TransportKind::Channel => Ok(Box::new(ChannelTransport::connect(client_id))),
        }
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
}
