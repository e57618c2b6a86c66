//! RTP/RTCP wire formats for GSO-Simulcast.
//!
//! Implements the subset of RFC 3550/4585/5104 plus the paper's custom APP
//! messages (§4.2–4.3) that the conferencing stack exchanges; no node sends
//! RTCP sender/receiver reports, plain TMMBR/TMMBN or REMB, so those formats
//! are not implemented:
//!
//! * [`header`] — the RTP fixed header and sequence-number arithmetic.
//! * [`feedback`] — generic NACK (RFC 4585), transport-wide feedback for
//!   sender-side bandwidth estimation, and the RFC 5104 TMMBR entry that
//!   the orchestration messages carry.
//! * [`app`] — GSO's application-defined RTCP (type 204) messages: the SEMB
//!   uplink bandwidth report and the orchestration GTMB/GTBN
//!   request/notification pair with reliability sequence numbers.
//! * [`compound`] — RTCP packet framing and compound packets.
//! * [`mantissa`] — the mantissa·2^exp bitrate encodings of the TMMBR
//!   entry (17-bit mantissa) and SEMB (the REMB draft's 18-bit mantissa).
//! * [`ssrc_alloc`] — deterministic per-(client, kind, resolution) SSRC
//!   assignment (§4.2).

pub mod app;
pub mod compound;
pub mod error;
pub mod feedback;
pub mod header;
pub mod mantissa;
pub mod ssrc_alloc;

pub use app::{GsoTmmbn, GsoTmmbr, Semb};
pub use compound::RtcpPacket;
pub use error::ParseError;
pub use feedback::{Nack, TmmbrEntry, TransportFeedback};
pub use header::{epoch_newer, seq_distance, seq_newer, RtpPacket, RTP_HEADER_LEN};
pub use ssrc_alloc::{decode_ssrc, ssrc_for};
