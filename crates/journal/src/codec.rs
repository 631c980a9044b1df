//! A tiny little-endian binary codec shared by the WAL frame format, the
//! snapshot blob format, and the typed record encodings in `gram`.
//!
//! The workspace has no serde (offline, vendored-only dependencies), so
//! records are encoded by hand: fixed-width little-endian integers and
//! length-prefixed byte strings. Decoding is strict — trailing garbage,
//! truncated fields and over-long length prefixes are all errors — which
//! is what lets the WAL treat "payload fails to decode" as corruption.

use std::fmt;

/// Decoding failed: the input is truncated, over-long, or malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Appends little-endian fields to a growing byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter { buf: Vec::with_capacity(capacity) }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte (used for record variant tags).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("field longer than u32::MAX"));
        self.buf.extend_from_slice(v);
    }

    /// Writes a `u32`-length-prefixed byte string made of `parts` laid
    /// end to end: what [`bytes`](Self::bytes) writes for their
    /// concatenation, without building it first.
    pub fn concat<'p>(&mut self, parts: impl Iterator<Item = &'p [u8]> + Clone) {
        let len: usize = parts.clone().map(<[u8]>::len).sum();
        self.u32(u32::try_from(len).expect("field longer than u32::MAX"));
        for part in parts {
            self.buf.extend_from_slice(part);
        }
    }

    /// Writes a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes an optional string: a presence byte, then the string.
    pub fn opt_string(&mut self, v: Option<&str>) {
        match v {
            Some(s) => {
                self.bool(true);
                self.string(s);
            }
            None => self.bool(false),
        }
    }

    /// Writes an optional `u64`: a presence byte, then the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(n) => {
                self.bool(true);
                self.u64(n);
            }
            None => self.bool(false),
        }
    }
}

/// Reads little-endian fields from a byte slice, tracking position.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — decoders call this
    /// last so trailing garbage is rejected.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError(format!("{} trailing bytes after record", self.remaining())))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated field: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a one-byte `bool`; any value other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError("invalid UTF-8 string".into()))
    }

    /// Reads an optional string written by [`ByteWriter::opt_string`].
    pub fn opt_string(&mut self) -> Result<Option<String>, CodecError> {
        if self.bool()? {
            Ok(Some(self.string()?))
        } else {
            Ok(None)
        }
    }

    /// Reads an optional `u64` written by [`ByteWriter::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.bool(true);
        w.string("grid://résumé");
        w.opt_string(None);
        w.opt_string(Some("x"));
        w.opt_u64(Some(9));
        w.opt_u64(None);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "grid://résumé");
        assert_eq!(r.opt_string().unwrap(), None);
        assert_eq!(r.opt_string().unwrap().as_deref(), Some("x"));
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_u64().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn concat_writes_what_bytes_writes_for_the_joined_parts() {
        let parts: [&[u8]; 4] = [b"/", b"CN", b"=", b""];
        let mut joined = ByteWriter::new();
        joined.concat(parts.iter().copied());
        let mut whole = ByteWriter::new();
        whole.bytes(&parts.concat());
        assert_eq!(joined.into_bytes(), whole.into_bytes());
    }

    #[test]
    fn truncated_and_trailing_inputs_are_rejected() {
        let mut w = ByteWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes[..7]);
        assert!(r.u64().is_err());

        let mut r = ByteReader::new(&bytes);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn invalid_bool_and_utf8_are_rejected() {
        let mut r = ByteReader::new(&[2]);
        assert!(r.bool().is_err());

        let mut w = ByteWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.string().is_err());
    }
}
