//! Varint byte codec for the segment store's file images.
//!
//! Every file the store writes, a sealed segment or the manifest, is one
//! image framed in `segment.rs`: a magic, a body in this codec, and an
//! FNV-1a checksum trailer. The body holds LEB128 varints for counts,
//! seq deltas, entity ids and seq ranges, and length-prefixed UTF-8
//! strings. A tag is stored as its two sides, each length-prefixed and
//! byte for byte, never re-normalized, so any tag a caller can build
//! comes back unchanged.

use saccs_text::SubjectiveTag;

/// Decode failure: the byte stream was truncated, overflowed a varint,
/// or carried invalid UTF-8 where a string was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended mid-value.
    Truncated,
    /// A varint ran past 10 bytes (not produced by this encoder).
    VarintOverflow,
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "byte stream truncated mid-value"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::BadUtf8 => write!(f, "length-prefixed string is not UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append `v` as an LEB128 varint (7 payload bits per byte, high bit =
/// continuation).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read one LEB128 varint at `*pos`, advancing it past the value.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string at `*pos`.
pub fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let len = get_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(CodecError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
}

/// Append a tag: its opinion, then its aspect, each length-prefixed.
pub fn put_tag(out: &mut Vec<u8>, tag: &SubjectiveTag) {
    put_str(out, &tag.opinion);
    put_str(out, &tag.aspect);
}

/// Read a tag written by [`put_tag`], exactly as it was written.
pub fn get_tag(buf: &[u8], pos: &mut usize) -> Result<SubjectiveTag, CodecError> {
    let opinion = get_str(buf, pos)?;
    let aspect = get_str(buf, pos)?;
    Ok(SubjectiveTag { opinion, aspect })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_and_is_compact() {
        let mut out = Vec::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX];
        for &v in &values {
            put_varint(&mut out, v);
        }
        assert_eq!(out.len(), 1 + 1 + 1 + 2 + 2 + 3 + 10);
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn truncated_varint_errors_instead_of_looping() {
        let buf = [0x80u8, 0x80];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Err(CodecError::Truncated));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0xffu8; 11];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn strings_round_trip() {
        let mut out = Vec::new();
        put_str(&mut out, "delicious");
        put_str(&mut out, "");
        put_str(&mut out, "crème brûlée");
        let mut pos = 0;
        assert_eq!(get_str(&out, &mut pos).unwrap(), "delicious");
        assert_eq!(get_str(&out, &mut pos).unwrap(), "");
        assert_eq!(get_str(&out, &mut pos).unwrap(), "crème brûlée");
        assert_eq!(pos, out.len());
    }
}
