//! Identifier newtypes used across the workspace.

use std::fmt;

/// A conference participant. Each client can act as publisher and subscriber
/// at the same time (§4.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// An RTP synchronization source.
///
/// GSO-Simulcast assigns a distinct SSRC to each (client, stream-kind,
/// resolution) tuple during SDP negotiation so that TMMBR feedback can target
/// an individual simulcast layer (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ssrc(pub u32);

impl fmt::Display for Ssrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ssrc:{:#010x}", self.0)
    }
}

/// The kind of media a stream carries.
///
/// A camera video and a screen-share video from the same client have
/// different SSRCs and are never merged by the controller (§4.4, footnote 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamKind {
    /// Audio; not orchestrated by GSO but protected by a bandwidth headroom
    /// subtraction (§7 "Protecting audios").
    Audio,
    /// Camera video, the main orchestrated media.
    Video,
    /// Screen-share video; typically higher priority than camera video.
    Screen,
}

impl StreamKind {
    /// All kinds, in a stable order.
    pub const ALL: [StreamKind; 3] = [StreamKind::Audio, StreamKind::Video, StreamKind::Screen];
}

impl fmt::Display for StreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StreamKind::Audio => "audio",
            StreamKind::Video => "video",
            StreamKind::Screen => "screen",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ClientId(3).to_string(), "client3");
        assert_eq!(Ssrc(0xdead).to_string(), "ssrc:0x0000dead");
        assert_eq!(StreamKind::Screen.to_string(), "screen");
    }

    #[test]
    fn ids_order_by_value() {
        assert!(ClientId(1) < ClientId(2));
        assert!(Ssrc(1) < Ssrc(2));
    }
}
