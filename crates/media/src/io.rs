//! A minimal raw-video file format (`VRAW`), in the spirit of Y4M:
//! a fixed header followed by packed 8-bit luma frames.
//!
//! ```text
//! "VRAW" | width: u32 | height: u32 | fps*100: u32 | frames: u32 | luma...
//! ```

use crate::{Frame, Plane, Video};

/// Errors from raw-video deserialisation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseRawError {
    /// Magic mismatch: not a VRAW file.
    BadMagic,
    /// Header fields are impossible (zero dimension, absurd size).
    InvalidHeader,
    /// The buffer is shorter than the header promises.
    Truncated,
}

impl std::fmt::Display for ParseRawError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseRawError::BadMagic => write!(f, "not a VRAW raw video"),
            ParseRawError::InvalidHeader => write!(f, "invalid VRAW header"),
            ParseRawError::Truncated => write!(f, "VRAW data truncated"),
        }
    }
}

impl std::error::Error for ParseRawError {}

const MAGIC: &[u8; 4] = b"VRAW";

impl Video {
    /// Serialises the raw video (8-bit luma frames).
    pub fn to_raw_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.total_pixels());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.width() as u32).to_be_bytes());
        out.extend_from_slice(&(self.height() as u32).to_be_bytes());
        out.extend_from_slice(&((self.fps() * 100.0).round() as u32).to_be_bytes());
        out.extend_from_slice(&(self.len() as u32).to_be_bytes());
        for f in self.iter() {
            out.extend_from_slice(f.plane().data());
        }
        out
    }

    /// Parses a serialised raw video.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRawError`] for malformed buffers.
    pub fn from_raw_bytes(bytes: &[u8]) -> Result<Self, ParseRawError> {
        if bytes.len() < 20 {
            return Err(ParseRawError::Truncated);
        }
        if &bytes[0..4] != MAGIC {
            return Err(ParseRawError::BadMagic);
        }
        let field =
            |i: usize| u32::from_be_bytes(bytes[4 + 4 * i..8 + 4 * i].try_into().expect("4 bytes"));
        let (w, h, fps100, n) = (field(0), field(1), field(2), field(3));
        if w == 0 || h == 0 || n == 0 || fps100 == 0 {
            return Err(ParseRawError::InvalidHeader);
        }
        let (w, h, n) = (w as usize, h as usize, n as usize);
        let frame_bytes = w.checked_mul(h).ok_or(ParseRawError::InvalidHeader)?;
        let need = 20usize
            .checked_add(
                frame_bytes
                    .checked_mul(n)
                    .ok_or(ParseRawError::InvalidHeader)?,
            )
            .ok_or(ParseRawError::InvalidHeader)?;
        if bytes.len() < need {
            return Err(ParseRawError::Truncated);
        }
        let mut video = Video::new(w, h, fps100 as f64 / 100.0);
        for i in 0..n {
            let start = 20 + i * frame_bytes;
            let plane = Plane::from_data(w, h, bytes[start..start + frame_bytes].to_vec());
            video.push(Frame::from_plane(plane));
        }
        Ok(video)
    }
}

/// Y4M (YUV4MPEG2) interchange: lets the suite consume and produce files
/// that standard tools (ffmpeg, mpv, x264) understand. Only the luma
/// plane is kept on import; export writes C420 with neutral chroma.
impl Video {
    /// Serialises to YUV4MPEG2 (C420, neutral chroma).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are odd (C420 requires even sizes).
    pub fn to_y4m_bytes(&self) -> Vec<u8> {
        assert!(
            self.width().is_multiple_of(2) && self.height().is_multiple_of(2),
            "C420 needs even dimensions"
        );
        let fps_num = (self.fps() * 100.0).round() as u32;
        let mut out = Vec::new();
        out.extend_from_slice(
            format!(
                "YUV4MPEG2 W{} H{} F{}:100 Ip A1:1 C420\n",
                self.width(),
                self.height(),
                fps_num
            )
            .as_bytes(),
        );
        let chroma = vec![128u8; self.width() / 2 * (self.height() / 2)];
        for f in self.iter() {
            out.extend_from_slice(b"FRAME\n");
            out.extend_from_slice(f.plane().data());
            out.extend_from_slice(&chroma);
            out.extend_from_slice(&chroma);
        }
        out
    }

    /// Parses a YUV4MPEG2 stream (C420 family), keeping the luma plane.
    ///
    /// # Errors
    ///
    /// Returns [`ParseRawError`] for malformed input.
    pub fn from_y4m_bytes(bytes: &[u8]) -> Result<Self, ParseRawError> {
        let header_end = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(ParseRawError::Truncated)?;
        let header =
            std::str::from_utf8(&bytes[..header_end]).map_err(|_| ParseRawError::BadMagic)?;
        if !header.starts_with("YUV4MPEG2") {
            return Err(ParseRawError::BadMagic);
        }
        let mut w = 0usize;
        let mut h = 0usize;
        let mut fps = 25.0f64;
        for tok in header.split_ascii_whitespace().skip(1) {
            // Every parameter is one ASCII letter followed by its value.
            let Some(key) = tok.get(..1) else {
                return Err(ParseRawError::InvalidHeader);
            };
            let val = &tok[1..];
            match key {
                "W" => w = val.parse().map_err(|_| ParseRawError::InvalidHeader)?,
                "H" => h = val.parse().map_err(|_| ParseRawError::InvalidHeader)?,
                "F" => {
                    let mut parts = val.split(':');
                    let num: f64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or(ParseRawError::InvalidHeader)?;
                    let den: f64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or(ParseRawError::InvalidHeader)?;
                    if den > 0.0 && num > 0.0 {
                        fps = num / den;
                    }
                }
                "C" if !val.starts_with("420") => {
                    // Only the 4:2:0 family is supported.
                    return Err(ParseRawError::InvalidHeader);
                }
                _ => {}
            }
        }
        if w == 0 || h == 0 {
            return Err(ParseRawError::InvalidHeader);
        }
        // Sizes from the header are untrusted: overflow is an invalid header.
        let luma = w.checked_mul(h).ok_or(ParseRawError::InvalidHeader)?;
        let frame_len = ((w / 2) * (h / 2))
            .checked_mul(2)
            .and_then(|chroma| chroma.checked_add(luma))
            .ok_or(ParseRawError::InvalidHeader)?;
        let mut video = Video::new(w, h, fps);
        let mut pos = header_end + 1;
        while pos < bytes.len() {
            // FRAME line (may carry parameters; ends at newline).
            let line_end = bytes[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .ok_or(ParseRawError::Truncated)?;
            if !bytes[pos..].starts_with(b"FRAME") {
                return Err(ParseRawError::InvalidHeader);
            }
            pos += line_end + 1;
            if bytes.len() - pos < frame_len {
                return Err(ParseRawError::Truncated);
            }
            let plane = Plane::from_data(w, h, bytes[pos..pos + luma].to_vec());
            video.push(Frame::from_plane(plane));
            pos += frame_len;
        }
        if video.is_empty() {
            return Err(ParseRawError::Truncated);
        }
        Ok(video)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Video {
        let mut v = Video::new(8, 6, 29.97);
        for t in 0..3 {
            let mut f = Frame::new(8, 6);
            for y in 0..6 {
                for x in 0..8 {
                    f.plane_mut().set(x, y, (x * 7 + y * 13 + t * 31) as u8);
                }
            }
            v.push(f);
        }
        v
    }

    #[test]
    fn raw_roundtrip() {
        let v = sample();
        let bytes = v.to_raw_bytes();
        assert_eq!(bytes.len(), 20 + 3 * 48);
        let parsed = Video::from_raw_bytes(&bytes).unwrap();
        assert_eq!(parsed, v);
        assert!((parsed.fps() - 29.97).abs() < 1e-9);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_raw_bytes();
        bytes[0] = b'X';
        assert_eq!(Video::from_raw_bytes(&bytes), Err(ParseRawError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_raw_bytes();
        assert_eq!(
            Video::from_raw_bytes(&bytes[..bytes.len() - 1]),
            Err(ParseRawError::Truncated)
        );
        assert_eq!(
            Video::from_raw_bytes(&bytes[..10]),
            Err(ParseRawError::Truncated)
        );
    }

    #[test]
    fn y4m_roundtrip_preserves_luma() {
        let v = sample(); // 8x6: even dims
        let bytes = v.to_y4m_bytes();
        assert!(bytes.starts_with(b"YUV4MPEG2 W8 H6 F2997:100"));
        let parsed = Video::from_y4m_bytes(&bytes).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn y4m_rejects_bad_input() {
        assert_eq!(
            Video::from_y4m_bytes(b"RIFFxxxx\n"),
            Err(ParseRawError::BadMagic)
        );
        let mut bytes = sample().to_y4m_bytes();
        bytes.truncate(bytes.len() - 5);
        assert_eq!(Video::from_y4m_bytes(&bytes), Err(ParseRawError::Truncated));
        // 4:4:4 is unsupported.
        assert_eq!(
            Video::from_y4m_bytes(b"YUV4MPEG2 W8 H6 F25:1 C444\nFRAME\n"),
            Err(ParseRawError::InvalidHeader)
        );
    }

    #[test]
    fn y4m_multibyte_header_token_is_invalid_not_a_panic() {
        // The first token byte starts a two-byte UTF-8 character, so there
        // is no one-byte key to split off.
        assert_eq!(
            Video::from_y4m_bytes("YUV4MPEG2 W8 H6 éx\nFRAME\n".as_bytes()),
            Err(ParseRawError::InvalidHeader)
        );
        assert_eq!(
            Video::from_y4m_bytes("YUV4MPEG2 \u{1F600} W8 H6\n".as_bytes()),
            Err(ParseRawError::InvalidHeader)
        );
    }

    #[test]
    fn y4m_huge_dimensions_are_typed_errors_not_overflow() {
        // W * H overflows.
        assert_eq!(
            Video::from_y4m_bytes(b"YUV4MPEG2 W4294967296 H4294967296\nFRAME\n"),
            Err(ParseRawError::InvalidHeader)
        );
        // W * H fits but the frame size plus the stream position does not.
        assert_eq!(
            Video::from_y4m_bytes(b"YUV4MPEG2 W18446744073709551615 H1\nFRAME\n"),
            Err(ParseRawError::Truncated)
        );
        // Large but representable dimensions over a short buffer.
        assert_eq!(
            Video::from_y4m_bytes(b"YUV4MPEG2 W100000 H100000\nFRAME\nabc"),
            Err(ParseRawError::Truncated)
        );
    }

    #[test]
    fn zero_fields_rejected() {
        let mut bytes = sample().to_raw_bytes();
        bytes[4..8].copy_from_slice(&0u32.to_be_bytes()); // width = 0
        assert_eq!(
            Video::from_raw_bytes(&bytes),
            Err(ParseRawError::InvalidHeader)
        );
    }
}
