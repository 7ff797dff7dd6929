//! On-disk container format for encoded videos.
//!
//! A complete serialisation of [`EncodedVideo`] — stream header, frame
//! headers, payloads — so videos can be written to files, shipped between
//! processes, or placed byte-for-byte onto a storage device. The layout
//! keeps headers contiguous and *in front of* the payloads, mirroring how
//! the approximate store separates precise from approximable bits.
//!
//! ```text
//! [stream header][frame count: u32]
//! per frame: [header length: u32][frame header][payload length: u32]
//! then all payloads, back to back, in coding order
//! ```

use crate::syntax::{EncodedFrame, EncodedVideo, FrameHeader, ParseHeaderError, StreamHeader};

/// Errors from container deserialisation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseContainerError {
    /// The byte stream ended before the declared structures.
    Truncated,
    /// An embedded header failed to parse.
    Header(ParseHeaderError),
    /// A declared size is inconsistent with the buffer.
    InvalidLength,
    /// A frame references a frame that is not coded before it.
    InvalidReference,
    /// The stream holds no frames.
    NoFrames,
    /// The stream header's frame count disagrees with the frames present.
    FrameCountMismatch {
        /// `frame_count` in the stream header.
        declared: u32,
        /// Frames in the container.
        present: usize,
    },
    /// A frame's coding index is not its position in the container.
    InvalidCodingIndex,
    /// A display index is out of range or shared by two frames.
    InvalidDisplayIndex,
}

impl std::fmt::Display for ParseContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseContainerError::Truncated => write!(f, "container truncated"),
            ParseContainerError::Header(e) => write!(f, "bad embedded header: {e}"),
            ParseContainerError::InvalidLength => write!(f, "inconsistent length field"),
            ParseContainerError::InvalidReference => {
                write!(f, "frame references a frame not coded before it")
            }
            ParseContainerError::NoFrames => write!(f, "stream holds no frames"),
            ParseContainerError::FrameCountMismatch { declared, present } => write!(
                f,
                "stream header declares {declared} frames, container holds {present}"
            ),
            ParseContainerError::InvalidCodingIndex => {
                write!(f, "frame coding index differs from its position")
            }
            ParseContainerError::InvalidDisplayIndex => {
                write!(f, "display index out of range or repeated")
            }
        }
    }
}

impl std::error::Error for ParseContainerError {}

impl From<ParseHeaderError> for ParseContainerError {
    fn from(e: ParseHeaderError) -> Self {
        ParseContainerError::Header(e)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ParseContainerError> {
        if self.pos + n > self.bytes.len() {
            return Err(ParseContainerError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_u32(&mut self) -> Result<u32, ParseContainerError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }
}

impl EncodedVideo {
    /// Serialises the whole coded video into one byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let sh = self.header.to_bytes();
        out.extend_from_slice(&(sh.len() as u32).to_be_bytes());
        out.extend_from_slice(&sh);
        out.extend_from_slice(&(self.frames.len() as u32).to_be_bytes());
        for f in &self.frames {
            let fh = f.header.to_bytes();
            out.extend_from_slice(&(fh.len() as u32).to_be_bytes());
            out.extend_from_slice(&fh);
            out.extend_from_slice(&(f.payload.len() as u32).to_be_bytes());
        }
        for f in &self.frames {
            out.extend_from_slice(&f.payload);
        }
        out
    }

    /// Parses a serialised coded video.
    ///
    /// # Errors
    ///
    /// Returns [`ParseContainerError`] for truncated or inconsistent
    /// buffers — this is the *precise* part of storage; corruption here is
    /// a hard error, unlike payload corruption which the decoder absorbs.
    /// A parsed video must also pass [`EncodedVideo::validate`], so
    /// [`crate::decode`] is total on everything this returns.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParseContainerError> {
        let mut c = Cursor { bytes, pos: 0 };
        let sh_len = c.take_u32()? as usize;
        if sh_len > 1024 {
            return Err(ParseContainerError::InvalidLength);
        }
        let header = StreamHeader::from_bytes(c.take(sh_len)?)?;
        let count = c.take_u32()? as usize;
        if count > 10_000_000 {
            return Err(ParseContainerError::InvalidLength);
        }
        // Each frame needs at least its two length fields: a count the
        // buffer cannot hold fails before anything is sized by it.
        if count > (bytes.len() - c.pos) / 8 {
            return Err(ParseContainerError::Truncated);
        }
        let mut metas = Vec::with_capacity(count);
        for _ in 0..count {
            let fh_len = c.take_u32()? as usize;
            if fh_len > 1 << 20 {
                return Err(ParseContainerError::InvalidLength);
            }
            let fh = FrameHeader::from_bytes(c.take(fh_len)?)?;
            let payload_len = c.take_u32()? as usize;
            metas.push((fh, payload_len));
        }
        let mut frames = Vec::with_capacity(count);
        for (header, payload_len) in metas {
            let payload = c.take(payload_len)?.to_vec();
            frames.push(EncodedFrame { header, payload });
        }
        let video = EncodedVideo { header, frames };
        video.validate()?;
        Ok(video)
    }

    /// Checks the structure [`crate::decode`] relies on, which the encoder
    /// always writes:
    ///
    /// - the stream header passes [`StreamHeader::validate`] (bounded,
    ///   nonzero dimensions);
    /// - there is at least one frame, and `frame_count` equals the number
    ///   of frames;
    /// - each frame's `coding_index` is its position;
    /// - display indices are distinct and below `frame_count`;
    /// - `ref_fwd`/`ref_bwd` name frames coded earlier.
    ///
    /// # Errors
    ///
    /// The first violation, as a [`ParseContainerError`].
    pub fn validate(&self) -> Result<(), ParseContainerError> {
        self.header.validate()?;
        let n = self.frames.len();
        if n == 0 {
            return Err(ParseContainerError::NoFrames);
        }
        if self.header.frame_count as usize != n {
            return Err(ParseContainerError::FrameCountMismatch {
                declared: self.header.frame_count,
                present: n,
            });
        }
        let mut shown = vec![false; n];
        for (i, f) in self.frames.iter().enumerate() {
            let h = &f.header;
            if h.coding_index as usize != i {
                return Err(ParseContainerError::InvalidCodingIndex);
            }
            match shown.get_mut(h.display_index as usize) {
                Some(seen @ false) => *seen = true,
                _ => return Err(ParseContainerError::InvalidDisplayIndex),
            }
            if !h
                .ref_fwd
                .into_iter()
                .chain(h.ref_bwd)
                .all(|r| (r as usize) < i)
            {
                return Err(ParseContainerError::InvalidReference);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use crate::syntax::MAX_DIMENSION;
    use vapp_media::{Frame, Video};

    fn sample_stream() -> EncodedVideo {
        let mut v = Video::new(48, 32, 25.0);
        for t in 0..5 {
            let mut f = Frame::new(48, 32);
            for y in 0..32 {
                for x in 0..48 {
                    f.plane_mut().set(x, y, ((x + y * 3 + t * 11) % 256) as u8);
                }
            }
            v.push(f);
        }
        Encoder::new(EncoderConfig {
            keyint: 3,
            bframes: 1,
            ..Default::default()
        })
        .encode(&v)
        .stream
    }

    #[test]
    fn container_roundtrip() {
        let stream = sample_stream();
        let bytes = stream.to_bytes();
        let parsed = EncodedVideo::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, stream);
        // And it still decodes identically.
        assert_eq!(
            crate::decoder::decode(&parsed),
            crate::decoder::decode(&stream)
        );
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample_stream().to_bytes();
        for cut in [0usize, 3, 8, bytes.len() / 2, bytes.len() - 1] {
            let r = EncodedVideo::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corrupt_magic_is_detected() {
        let mut bytes = sample_stream().to_bytes();
        bytes[4] ^= 0xFF; // first byte of the stream header
        assert!(matches!(
            EncodedVideo::from_bytes(&bytes),
            Err(ParseContainerError::Header(_))
        ));
    }

    #[test]
    fn absurd_lengths_are_rejected() {
        let mut bytes = sample_stream().to_bytes();
        // Claim a gigantic stream-header length.
        bytes[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            EncodedVideo::from_bytes(&bytes),
            Err(ParseContainerError::InvalidLength)
        );
    }

    #[test]
    fn references_to_uncoded_frames_are_rejected() {
        let stream = sample_stream();
        let p = stream
            .frames
            .iter()
            .position(|f| f.header.ref_fwd.is_some())
            .expect("the GOP has an inter frame");
        let own = stream.frames[p].header.coding_index;
        // Out of range, the frame itself, and a frame coded later.
        for (fwd, bwd) in [
            (Some(u32::MAX - 1), None),
            (Some(own), None),
            (stream.frames[p].header.ref_fwd, Some(own + 1)),
        ] {
            let mut bad = stream.clone();
            bad.frames[p].header.ref_fwd = fwd;
            bad.frames[p].header.ref_bwd = bwd;
            assert_eq!(
                EncodedVideo::from_bytes(&bad.to_bytes()),
                Err(ParseContainerError::InvalidReference),
                "ref_fwd {fwd:?} ref_bwd {bwd:?}"
            );
        }
    }

    /// Serialises `stream` with its stream header replaced by `header`
    /// (the frames are left as they are).
    fn with_header(stream: &EncodedVideo, header: StreamHeader) -> Vec<u8> {
        EncodedVideo {
            header,
            frames: stream.frames.clone(),
        }
        .to_bytes()
    }

    #[test]
    fn oversized_dimensions_are_rejected_before_decoding() {
        // A 65535x65535 header would make `decode` pad planes to 4 GiB
        // each; it must fail in the parser instead.
        let stream = sample_stream();
        for (width, height) in [(65_535, 65_535), (MAX_DIMENSION + 1, 32), (48, u32::MAX)] {
            let header = StreamHeader {
                width,
                height,
                ..stream.header.clone()
            };
            assert_eq!(
                EncodedVideo::from_bytes(&with_header(&stream, header)),
                Err(ParseContainerError::Header(
                    ParseHeaderError::DimensionsTooLarge { width, height }
                )),
                "{width}x{height}"
            );
        }
        let at_limit = StreamHeader {
            width: MAX_DIMENSION,
            height: MAX_DIMENSION,
            ..stream.header.clone()
        };
        assert!(at_limit.validate().is_ok());
    }

    #[test]
    fn frame_count_must_match_the_frames_present() {
        let stream = sample_stream();
        let n = stream.frames.len();
        for declared in [0u32, n as u32 - 1, n as u32 + 1, u32::MAX] {
            let header = StreamHeader {
                frame_count: declared,
                ..stream.header.clone()
            };
            assert_eq!(
                EncodedVideo::from_bytes(&with_header(&stream, header)),
                Err(ParseContainerError::FrameCountMismatch {
                    declared,
                    present: n
                }),
                "frame_count {declared}"
            );
        }
        // No frames at all: `Video` cannot hold zero frames.
        let empty = EncodedVideo {
            header: StreamHeader {
                frame_count: 0,
                ..stream.header.clone()
            },
            frames: Vec::new(),
        };
        assert_eq!(
            EncodedVideo::from_bytes(&empty.to_bytes()),
            Err(ParseContainerError::NoFrames)
        );
    }

    #[test]
    fn frame_counts_the_buffer_cannot_hold_fail_before_sizing() {
        let mut bytes = sample_stream().to_bytes();
        let sh_len = u32::from_be_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let at = 4 + sh_len;
        bytes[at..at + 4].copy_from_slice(&9_999_999u32.to_be_bytes());
        assert_eq!(
            EncodedVideo::from_bytes(&bytes),
            Err(ParseContainerError::Truncated)
        );
    }

    #[test]
    fn coding_and_display_indices_are_checked() {
        let stream = sample_stream();
        let mut swapped = stream.clone();
        swapped.frames[1].header.coding_index = 2;
        assert_eq!(
            EncodedVideo::from_bytes(&swapped.to_bytes()),
            Err(ParseContainerError::InvalidCodingIndex)
        );
        let n = stream.frames.len() as u32;
        for display in [n, u32::MAX, stream.frames[0].header.display_index] {
            let mut bad = stream.clone();
            bad.frames[1].header.display_index = display;
            assert_eq!(
                EncodedVideo::from_bytes(&bad.to_bytes()),
                Err(ParseContainerError::InvalidDisplayIndex),
                "display index {display}"
            );
        }
    }

    #[test]
    fn decode_panics_only_on_what_the_parser_rejects() {
        let mut bad = sample_stream();
        bad.header.frame_count += 1;
        let caught = std::panic::catch_unwind(|| crate::decoder::decode(&bad));
        let payload = caught.expect_err("an unvalidated stream must not decode");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("declares"), "{msg}");
    }

    #[test]
    fn payload_corruption_survives_the_container() {
        // The container carries corrupt payloads untouched — approximate
        // storage corrupts payload bytes, and the decoder absorbs them.
        let stream = sample_stream();
        let mut bytes = stream.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        let parsed = EncodedVideo::from_bytes(&bytes).unwrap();
        assert_ne!(parsed, stream);
        let _ = crate::decoder::decode(&parsed); // must not panic
    }
}
