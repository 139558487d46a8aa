//! Shared little-endian binary codec for the workspace's persisted
//! artifacts.
//!
//! Every on-disk binary format in the workspace (the engine's verdict
//! tables, the compiled classifier model) follows the same conventions:
//! an 8-byte magic tag, little-endian fixed-width integers,
//! length-prefixed UTF-8 strings, strict `0`/`1` verdict bytes, and
//! all-or-nothing decoding — a wrong magic, truncated field, invalid
//! byte, or trailing garbage fails the whole decode (`None`) rather
//! than importing a prefix of unknown integrity. Writers go through
//! [`write_atomic`] (sibling temp file + rename) so a crash mid-save
//! cannot clobber a previous good file.
//!
//! Files whose every byte must be right (the engine's tables, a
//! tenant's residents) end in a `u64` FNV-1a checksum of every byte
//! before it ([`ByteWriter::finish_checksummed`],
//! [`ByteReader::with_checksum`]): a flipped verdict byte or a flipped
//! letter in a name is still a valid byte, so only the checksum keeps
//! it from loading as a different, wrong value. Each FNV-1a step is a
//! bijection of the running hash, so any change confined to one byte is
//! always detected.

use std::fs;
use std::io;
use std::path::Path;

/// Append-only encoder matching [`ByteReader`]'s wire format.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Start a buffer with the format's 8-byte magic tag.
    pub fn with_magic(magic: &[u8; 8]) -> ByteWriter {
        ByteWriter {
            buf: magic.to_vec(),
        }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A boolean as a strict verdict byte (`0`/`1`).
    pub fn verdict(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// A `u32` length prefix followed by the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The buffer followed by a `u64` FNV-1a checksum of every byte in
    /// it, for [`ByteReader::with_checksum`].
    pub fn finish_checksummed(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A bounds-checked little-endian cursor. Every accessor returns `None`
/// on underrun, so corrupted length fields fail cleanly instead of
/// panicking or over-allocating (vectors grow one element per few bytes
/// actually present in the buffer).
#[derive(Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Open a buffer whose first 8 bytes must equal `magic`.
    pub fn with_magic(bytes: &'a [u8], magic: &[u8; 8]) -> Option<ByteReader<'a>> {
        let rest = bytes.strip_prefix(magic.as_slice())?;
        Some(ByteReader { rest })
    }

    /// Open a buffer written by [`ByteWriter::finish_checksummed`]: its
    /// last 8 bytes must be the checksum of the rest, which must start
    /// with `magic`. The reader ends before the checksum.
    pub fn with_checksum(bytes: &'a [u8], magic: &[u8; 8]) -> Option<ByteReader<'a>> {
        let (body, sum) = bytes.split_last_chunk::<8>()?;
        if fnv1a(body) != u64::from_le_bytes(*sum) {
            return None;
        }
        ByteReader::with_magic(body, magic)
    }

    pub fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, tail) = self.rest.split_at_checked(N)?;
        self.rest = tail;
        head.try_into().ok()
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    pub fn u128(&mut self) -> Option<u128> {
        self.take().map(u128::from_le_bytes)
    }

    /// A strict boolean byte: anything other than `0`/`1` is corruption.
    pub fn verdict(&mut self) -> Option<bool> {
        match self.take::<1>()? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let (head, tail) = self.rest.split_at_checked(n)?;
        self.rest = tail;
        String::from_utf8(head.to_vec()).ok()
    }

    /// A `Vec` capacity for `count` elements about to be read, each at
    /// least `min_size` bytes on the wire: never more than the bytes left
    /// can hold, so a corrupt count field cannot over-allocate.
    pub fn capacity(&self, count: u64, min_size: usize) -> usize {
        let fits = self.rest.len() / min_size.max(1);
        usize::try_from(count).map_or(fits, |n| n.min(fits))
    }

    /// All bytes consumed? Trailing garbage means a count field and the
    /// payload disagree — treated as corruption by the decoders.
    pub fn finished(&self) -> bool {
        self.rest.is_empty()
    }
}

/// Write `bytes` to `path` via a sibling temp file and an atomic rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    fs::write(tmp, bytes)?;
    fs::rename(tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"TESTMAG1";

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::with_magic(&MAGIC);
        w.u8(7);
        w.u32(42);
        w.u64(1 << 40);
        w.u128(1 << 100);
        w.verdict(true);
        w.str("2/3");
        let buf = w.finish();
        let mut r = ByteReader::with_magic(&buf, &MAGIC).unwrap();
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(42));
        assert_eq!(r.u64(), Some(1 << 40));
        assert_eq!(r.u128(), Some(1 << 100));
        assert_eq!(r.verdict(), Some(true));
        assert_eq!(r.str().as_deref(), Some("2/3"));
        assert!(r.finished());
    }

    #[test]
    fn bad_magic_and_underruns_fail_cleanly() {
        assert!(ByteReader::with_magic(b"NOTMAGIC", &MAGIC).is_none());
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&3u64.to_le_bytes());
        let mut r = ByteReader::with_magic(&buf, &MAGIC).unwrap();
        assert_eq!(r.u64(), Some(3));
        assert_eq!(r.u32(), None, "underrun must fail, not panic");
    }

    #[test]
    fn verdict_bytes_are_strict() {
        let mut buf = MAGIC.to_vec();
        buf.push(2);
        let mut r = ByteReader::with_magic(&buf, &MAGIC).unwrap();
        assert_eq!(r.verdict(), None);
    }

    #[test]
    fn string_length_is_bounds_checked() {
        let mut w = ByteWriter::with_magic(&MAGIC);
        w.u32(1_000_000); // length prefix far past the buffer end
        let buf = w.finish();
        let mut r = ByteReader::with_magic(&buf, &MAGIC).unwrap();
        assert_eq!(r.str(), None);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn checksummed_buffers_reject_any_flip_or_truncation() {
        let mut w = ByteWriter::with_magic(&MAGIC);
        w.str("a");
        w.verdict(true);
        let buf = w.finish_checksummed();
        let mut r = ByteReader::with_checksum(&buf, &MAGIC).unwrap();
        assert_eq!(r.str().as_deref(), Some("a"));
        assert_eq!(r.verdict(), Some(true));
        assert!(r.finished(), "the checksum is not part of the body");
        for bit in 0..buf.len() * 8 {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                ByteReader::with_checksum(&bad, &MAGIC).is_none(),
                "bit {bit}"
            );
        }
        for len in 0..buf.len() {
            assert!(
                ByteReader::with_checksum(&buf[..len], &MAGIC).is_none(),
                "{len}"
            );
        }
    }

    #[test]
    fn string_must_be_utf8() {
        let mut w = ByteWriter::with_magic(&MAGIC);
        w.u32(1);
        w.u8(0xFF);
        let buf = w.finish();
        let mut r = ByteReader::with_magic(&buf, &MAGIC).unwrap();
        assert_eq!(r.str(), None);
    }
}
