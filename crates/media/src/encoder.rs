//! The simulcast encoder bank.
//!
//! A publisher runs one encoder per simulcast layer (resolution), each with
//! its own SSRC (§4.2). The controller reconfigures layers via GTMB
//! feedback: setting a layer's target bitrate, or disabling it entirely with
//! a zero bitrate — the mechanism behind "the controller will inform the
//! publisher to stop pushing that stream" (Fig. 3d).
//!
//! Frame sizes track the target bitrate with small log-normal variation and
//! periodically larger keyframes, reproducing the burstiness that makes
//! rate/capacity mismatches cause queueing in the network simulator.

use crate::frame::EncodedFrame;
use gso_util::{Bitrate, DetRng, SimDuration, SimTime, Ssrc};

/// Static configuration of one simulcast layer.
#[derive(Debug, Clone)]
pub struct LayerConfig {
    /// The layer's SSRC (one per resolution, per §4.2).
    pub ssrc: Ssrc,
    /// Vertical resolution in lines.
    pub resolution_lines: u16,
    /// Initial target bitrate; zero starts the layer disabled.
    pub target: Bitrate,
}

/// Interval between keyframes. Conferencing encoders use long GoPs with
/// smoothed intra refresh; a 3 s cadence with a modest keyframe gain keeps
/// the bursts small enough not to destabilize a well-fitted link.
const KEYFRAME_INTERVAL: SimDuration = SimDuration::from_secs(3);
/// Size multiplier of a keyframe relative to a delta frame.
const KEYFRAME_GAIN: f64 = 2.0;
/// Standard deviation of per-frame size variation (fraction of mean).
const SIZE_JITTER: f64 = 0.08;

#[derive(Debug)]
struct Layer {
    ssrc: Ssrc,
    resolution_lines: u16,
    target: Bitrate,
    next_frame_id: u64,
    /// Keyframe phase offset so sibling layers do not all produce their
    /// (larger) keyframes in the same tick — the combined burst would
    /// needlessly spike the uplink queue.
    keyframe_phase: SimDuration,
    last_keyframe: Option<SimTime>,
    /// Rate-control debt: bytes over/under target so far, fed back into the
    /// next frame's size so the long-run average matches the target.
    byte_debt: f64,
    force_keyframe: bool,
}

/// A bank of per-layer encoders for one video source.
#[derive(Debug)]
pub struct SimulcastEncoder {
    /// Frames per second produced by every enabled layer.
    fps: f64,
    layers: Vec<Layer>,
    rng: DetRng,
    /// Accumulated encode work units (see [`crate::cost`]).
    work_units: f64,
}

impl SimulcastEncoder {
    /// Build an encoder bank producing `fps` frames per second on every
    /// enabled layer. Layers with a zero initial target start disabled.
    pub fn new(fps: f64, layers: Vec<LayerConfig>, rng: DetRng) -> Self {
        let n = layers.len().max(1) as u64;
        let layers = layers
            .into_iter()
            .enumerate()
            .map(|(i, l)| Layer {
                ssrc: l.ssrc,
                resolution_lines: l.resolution_lines,
                target: l.target,
                next_frame_id: 0,
                keyframe_phase: KEYFRAME_INTERVAL * i as u64 / n,
                last_keyframe: None,
                byte_debt: 0.0,
                force_keyframe: false,
            })
            .collect();
        SimulcastEncoder { fps, layers, rng, work_units: 0.0 }
    }

    /// The frame production interval.
    pub fn frame_interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.fps)
    }

    /// Set a layer's target bitrate; zero disables it (GTMB semantics).
    /// Returns true if the SSRC matched a layer.
    pub fn set_layer_rate(&mut self, ssrc: Ssrc, target: Bitrate) -> bool {
        match self.layers.iter_mut().find(|l| l.ssrc == ssrc) {
            Some(l) => {
                let was_off = l.target.is_zero();
                l.target = target;
                if was_off && !target.is_zero() {
                    // A re-enabled layer must start with a keyframe so
                    // subscribers can decode immediately.
                    l.force_keyframe = true;
                }
                true
            }
            None => false,
        }
    }

    /// Current target of a layer.
    pub fn layer_rate(&self, ssrc: Ssrc) -> Option<Bitrate> {
        self.layers.iter().find(|l| l.ssrc == ssrc).map(|l| l.target)
    }

    /// Request a keyframe on all enabled layers (e.g. after a new subscriber
    /// joins or a receiver reports an unrecoverable loss).
    pub fn request_keyframe(&mut self) {
        for l in &mut self.layers {
            l.force_keyframe = true;
        }
    }

    /// Sum of enabled layers' targets — what the client is being asked to
    /// push upstream.
    pub fn total_target(&self) -> Bitrate {
        self.layers.iter().map(|l| l.target).sum()
    }

    /// SSRCs of all layers, enabled or not.
    pub fn layer_ssrcs(&self) -> Vec<Ssrc> {
        self.layers.iter().map(|l| l.ssrc).collect()
    }

    /// Produce one frame per enabled layer. Call once per frame interval.
    pub fn tick(&mut self, now: SimTime) -> Vec<EncodedFrame> {
        let mut frames = Vec::new();
        for layer in &mut self.layers {
            if layer.target.is_zero() {
                continue;
            }
            let first = layer.last_keyframe.is_none();
            let keyframe = layer.force_keyframe
                || match layer.last_keyframe {
                    None => true,
                    Some(t) => now.saturating_since(t) >= KEYFRAME_INTERVAL,
                };
            layer.force_keyframe = false;
            if keyframe {
                // The first keyframe is immediate (subscribers need it), but
                // its cadence is back-dated by the layer's phase so sibling
                // layers keyframe at different ticks from then on.
                layer.last_keyframe = Some(if first {
                    now.checked_sub(layer.keyframe_phase).unwrap_or(now)
                } else {
                    now
                });
            }

            // Mean frame size that hits the target on average; keyframes are
            // larger, delta frames proportionally smaller so the GoP still
            // averages to target. With interval K frames and gain g, one key
            // + (K-1) deltas must sum to K·mean_raw.
            let mean_raw = layer.target.as_bps() as f64 / 8.0 / self.fps;
            let frames_per_gop = (KEYFRAME_INTERVAL.as_secs_f64() * self.fps).max(1.0);
            let delta_scale = frames_per_gop / (frames_per_gop - 1.0 + KEYFRAME_GAIN);
            let mean = if keyframe {
                mean_raw * delta_scale * KEYFRAME_GAIN
            } else {
                mean_raw * delta_scale
            };
            // Log-normal-ish jitter plus rate-control debt correction.
            let noisy = mean * (1.0 + SIZE_JITTER * self.rng.gaussian());
            let corrected = (noisy - 0.1 * layer.byte_debt).max(mean * 0.2);
            layer.byte_debt += corrected - mean;

            let size = corrected.round().max(1.0) as usize;
            self.work_units += crate::cost::encode_cost(layer.resolution_lines, size);
            frames.push(EncodedFrame {
                ssrc: layer.ssrc,
                frame_id: layer.next_frame_id,
                keyframe,
                size,
                resolution_lines: layer.resolution_lines,
                captured_at: now,
            });
            layer.next_frame_id += 1;
        }
        // Capture itself costs work regardless of how many layers encode.
        self.work_units += crate::cost::CAPTURE_COST_PER_FRAME;
        frames
    }

    /// Accumulated encode+capture work units.
    pub fn work_units(&self) -> f64 {
        self.work_units
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder(targets: &[(u32, u16, u64)]) -> SimulcastEncoder {
        let layers = targets
            .iter()
            .map(|&(ssrc, lines, kbps)| LayerConfig {
                ssrc: Ssrc(ssrc),
                resolution_lines: lines,
                target: Bitrate::from_kbps(kbps),
            })
            .collect();
        SimulcastEncoder::new(15.0, layers, DetRng::derive(5, "enc"))
    }

    fn run(enc: &mut SimulcastEncoder, seconds: u64) -> Vec<EncodedFrame> {
        let mut frames = Vec::new();
        let dt = enc.frame_interval();
        let mut t = SimTime::ZERO;
        let end = SimTime::from_secs(seconds);
        while t < end {
            frames.extend(enc.tick(t));
            t += dt;
        }
        frames
    }

    #[test]
    fn long_run_rate_tracks_target() {
        let mut enc = encoder(&[(1, 720, 1000)]);
        let frames = run(&mut enc, 30);
        let total: usize = frames.iter().map(|f| f.size).sum();
        let rate = total as f64 * 8.0 / 30.0;
        assert!((rate - 1_000_000.0).abs() / 1_000_000.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn first_frame_is_keyframe_and_cadence_holds() {
        let mut enc = encoder(&[(1, 720, 800)]);
        let frames = run(&mut enc, 10);
        assert!(frames[0].keyframe);
        let keys: Vec<&EncodedFrame> = frames.iter().filter(|f| f.keyframe).collect();
        // 10 s at a 3 s keyframe interval = 4 keyframes (t=0, 3, 6, 9).
        assert_eq!(keys.len(), 4);
        // Keyframes are larger than the average delta frame.
        let avg_delta: f64 =
            frames.iter().filter(|f| !f.keyframe).map(|f| f.size as f64).sum::<f64>()
                / frames.iter().filter(|f| !f.keyframe).count() as f64;
        for k in keys {
            assert!(k.size as f64 > 1.4 * avg_delta);
        }
    }

    #[test]
    fn disabled_layer_produces_nothing() {
        let mut enc = encoder(&[(1, 720, 1000), (2, 180, 0)]);
        let frames = run(&mut enc, 2);
        assert!(frames.iter().all(|f| f.ssrc == Ssrc(1)));
    }

    #[test]
    fn reenabling_layer_forces_keyframe() {
        let mut enc = encoder(&[(1, 720, 1000)]);
        let _ = run(&mut enc, 1); // consume initial keyframe
        assert!(enc.set_layer_rate(Ssrc(1), Bitrate::ZERO));
        assert!(enc.tick(SimTime::from_secs(1)).is_empty());
        assert!(enc.set_layer_rate(Ssrc(1), Bitrate::from_kbps(500)));
        let frames = enc.tick(SimTime::from_millis(1100));
        assert_eq!(frames.len(), 1);
        assert!(frames[0].keyframe, "re-enabled layer must restart with a keyframe");
    }

    #[test]
    fn rate_change_applies() {
        let mut enc = encoder(&[(1, 360, 800)]);
        let _ = run(&mut enc, 5);
        enc.set_layer_rate(Ssrc(1), Bitrate::from_kbps(400));
        let frames: Vec<EncodedFrame> = {
            let dt = enc.frame_interval();
            let mut t = SimTime::from_secs(5);
            let mut out = Vec::new();
            while t < SimTime::from_secs(35) {
                out.extend(enc.tick(t));
                t += dt;
            }
            out
        };
        let total: usize = frames.iter().map(|f| f.size).sum();
        let rate = total as f64 * 8.0 / 30.0;
        assert!((rate - 400_000.0).abs() / 400_000.0 < 0.08, "rate {rate}");
    }

    #[test]
    fn unknown_ssrc_rejected() {
        let mut enc = encoder(&[(1, 720, 1000)]);
        assert!(!enc.set_layer_rate(Ssrc(99), Bitrate::from_kbps(1)));
        assert_eq!(enc.layer_rate(Ssrc(99)), None);
    }

    #[test]
    fn work_units_grow_with_resolution() {
        let mut hi = encoder(&[(1, 720, 1000)]);
        let mut lo = encoder(&[(1, 180, 1000)]);
        let _ = run(&mut hi, 5);
        let _ = run(&mut lo, 5);
        assert!(hi.work_units() > lo.work_units());
    }

    #[test]
    fn total_target_sums_enabled_layers() {
        let enc = encoder(&[(1, 720, 1000), (2, 360, 500), (3, 180, 0)]);
        assert_eq!(enc.total_target(), Bitrate::from_kbps(1500));
        assert_eq!(enc.layer_ssrcs().len(), 3);
    }
}
