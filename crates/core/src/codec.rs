//! The one on-disk codec of the three file formats: `.popds` corpus
//! entries, `.popbl` baseline records and `POPCKPT3` model checkpoints.
//!
//! * **Layout.** Every file opens with `magic[8] ‖ key:u64` (the key is
//!   the fingerprint it was written under), then the format's own
//!   little-endian fields: [`Put`] writes them, [`Reader`] reads them.
//! * **Length bound.** A [`Reader`] knows how many bytes the open file
//!   has left (from the handle's own metadata, so a concurrent rename
//!   cannot change it) and checks every count against them before it
//!   sizes an allocation: an `L`-byte file costs a small multiple of `L`.
//! * **Damage.** A wrong magic, a stale key, truncation, an oversized
//!   count, a malformed field and trailing bytes ([`Reader::finish`]) are
//!   all `InvalidData`. A cache reads that as a miss and regenerates the
//!   entry; a checkpoint load returns it.
//! * **Durability.** [`atomic_write`] renames a finished temporary file
//!   into place, so a crash never leaves a truncated file under a valid
//!   name.

use pop_nn::Tensor;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The FNV-1a accumulator every cache key in the workspace hashes with —
/// the scenario fingerprint, the model-checkpoint key and the smoke
/// example's corpus checksum all fold through this one implementation,
/// so the constants can never drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// An accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one value in.
    pub fn eat(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds a byte string in (one fold per byte).
    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.eat(b as u64);
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A number no earlier call in this process returned: with the process
/// id it names temporary files and claim stamps uniquely.
pub(crate) fn nonce() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Writes `path` atomically: the content goes to a uniquely-named `.tmp`
/// sibling first and is renamed into place only after a successful flush
/// and fsync. A crash mid-write leaves (at worst) a stray `.tmp` file,
/// never a truncated file with a valid header.
///
/// # Errors
///
/// Propagates I/O failures; on failure the temporary file is removed.
pub fn atomic_write(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_file_name(format!(
        ".{}.{}.{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("cache"),
        std::process::id(),
        nonce(),
    ));
    let result = (|| {
        let mut w = BufWriter::new(File::create(&tmp)?);
        write(&mut w)?;
        w.flush()?;
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// The damage error every decoder reports (`InvalidData`).
fn damage(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("damaged file: {what}"))
}

/// Per-dimension sanity bound of a tensor record: with the checked shape
/// product it keeps a zero-element tensor from carrying a 2³¹ dimension.
const MAX_TENSOR_DIM: usize = 1 << 20;

/// Values staged per bulk read or write: a whole tensor at the usual
/// resolutions, so a body costs one read or write call.
const BULK: usize = 1 << 16;

/// Little-endian field writers for every [`Write`].
pub trait Put: Write {
    /// The shared header: `magic[8] ‖ key:u64`.
    fn put_header(&mut self, magic: &[u8; 8], key: u64) -> io::Result<()> {
        self.write_all(magic)?;
        self.put_u64(key)
    }

    /// A `usize` in a `u32` field (counts, lengths, indices, widths); a
    /// value the field cannot hold fails with `InvalidInput`.
    fn put_usize(&mut self, v: usize) -> io::Result<()> {
        let v = u32::try_from(v).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "value exceeds a u32 field")
        })?;
        self.write_all(&v.to_le_bytes())
    }

    /// A `u64` field.
    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.write_all(&v.to_le_bytes())
    }

    /// An `f32` field.
    fn put_f32(&mut self, v: f32) -> io::Result<()> {
        self.write_all(&v.to_le_bytes())
    }

    /// A length-prefixed UTF-8 string.
    fn put_str(&mut self, s: &str) -> io::Result<()> {
        self.put_usize(s.len())?;
        self.write_all(s.as_bytes())
    }

    /// A bulk `f32` body (no length prefix), staged in 64K-value
    /// chunks rather than one write per value.
    fn put_f32s(&mut self, values: &[f32]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(4 * values.len().min(BULK));
        for chunk in values.chunks(BULK) {
            bytes.clear();
            bytes.extend(chunk.iter().flat_map(|v| v.to_le_bytes()));
            self.write_all(&bytes)?;
        }
        Ok(())
    }

    /// The tensor record: four `u32` dimensions, then the body.
    fn put_tensor(&mut self, t: &Tensor) -> io::Result<()> {
        for d in t.shape() {
            self.put_usize(d)?;
        }
        self.put_f32s(t.data())
    }
}

impl<W: Write + ?Sized> Put for W {}

/// A decoder over `R` that knows how many bytes the file has left. Every
/// read fails with `InvalidData` on damage (a mismatched header, a count
/// the file cannot hold, a malformed field) and on truncation, which it
/// detects before reading.
#[derive(Debug)]
pub struct Reader<R> {
    inner: R,
    left: u64,
}

impl Reader<BufReader<File>> {
    /// Opens `path`, bounded by the length its open handle reports; a
    /// failure to open (e.g. `NotFound`) passes through as it is.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Reader::new(BufReader::new(file), len))
    }
}

impl<R: Read> Reader<R> {
    /// A reader over `inner`, which holds exactly `len` more bytes.
    pub fn new(inner: R, len: u64) -> Self {
        Reader { inner, left: len }
    }

    fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.ensure(buf.len(), 1)?;
        self.inner.read_exact(buf)?;
        self.left -= buf.len() as u64;
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut b = [0u8; N];
        self.fill(&mut b)?;
        Ok(b)
    }

    /// Checks that `n` items of at least `item_bytes` each fit in the
    /// bytes left: the guard before every read and every allocation.
    fn ensure(&self, n: usize, item_bytes: u64) -> io::Result<()> {
        match (n as u64).checked_mul(item_bytes) {
            Some(need) if need <= self.left => Ok(()),
            _ => Err(damage("truncated, or a count past the end")),
        }
    }

    /// Checks the shared header: the format's `magic`, then the `key` the
    /// caller expects. Either mismatch (a foreign or stale file) is damage.
    pub fn header(&mut self, magic: &[u8; 8], key: u64) -> io::Result<()> {
        if &self.array::<8>()? != magic {
            return Err(damage("wrong magic"));
        }
        if self.u64()? != key {
            return Err(damage("key mismatch: written for another configuration"));
        }
        Ok(())
    }

    /// A `u8` field.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A `u32` field.
    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64` field.
    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f32` field.
    pub fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// A `u32` count of items that take at least `item_bytes` each,
    /// rejected unless that many fit in the bytes left. Only a count that
    /// passed here may size an allocation.
    pub fn count(&mut self, item_bytes: u64) -> io::Result<usize> {
        let n = self.u32()? as usize;
        self.ensure(n, item_bytes)?;
        Ok(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> io::Result<String> {
        let mut bytes = vec![0u8; self.count(1)?];
        self.fill(&mut bytes)?;
        String::from_utf8(bytes).map_err(|_| damage("string is not UTF-8"))
    }

    /// Fills `out` from a bulk `f32` body (no length prefix).
    pub fn f32s_into(&mut self, out: &mut [f32]) -> io::Result<()> {
        // Checked first, so the file's length bounds the staging buffer.
        self.ensure(out.len(), 4)?;
        let mut bytes = vec![0u8; 4 * out.len().min(BULK)];
        for chunk in out.chunks_mut(BULK) {
            let (bytes, _) = bytes.split_at_mut(4 * chunk.len());
            self.fill(bytes)?;
            for (v, b) in chunk.iter_mut().zip(bytes.chunks_exact(4)) {
                let mut word = [0u8; 4];
                word.copy_from_slice(b);
                *v = f32::from_le_bytes(word);
            }
        }
        Ok(())
    }

    /// The tensor record written by [`Put::put_tensor`].
    pub fn tensor(&mut self) -> io::Result<Tensor> {
        let mut shape = [0usize; 4];
        for d in &mut shape {
            *d = self.u32()? as usize;
        }
        let len = shape
            .iter()
            .try_fold(1usize, |acc, &d| {
                (d <= MAX_TENSOR_DIM).then(|| acc.checked_mul(d)).flatten()
            })
            .ok_or_else(|| damage("tensor shape"))?;
        self.ensure(len, 4)?;
        let mut data = vec![0.0; len];
        self.f32s_into(&mut data)?;
        Ok(Tensor::from_vec(shape, data))
    }

    /// Ends the decode, handing back the inner reader: bytes left over
    /// mean the file is not what was written, so they are damage too.
    pub fn finish(self) -> io::Result<R> {
        if self.left != 0 {
            return Err(damage("trailing bytes"));
        }
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8]) -> Reader<&[u8]> {
        Reader::new(bytes, bytes.len() as u64)
    }

    #[test]
    fn bulk_bodies_cross_the_staging_buffer() {
        let values: Vec<f32> = (0..2 * BULK + 3).map(|i| i as f32 - 7.5).collect();
        let mut buf = Vec::new();
        buf.put_f32s(&values).unwrap();
        assert_eq!(buf.len(), 4 * values.len());
        let mut back = vec![0.0; values.len()];
        let mut r = reader(&buf);
        r.f32s_into(&mut back).unwrap();
        assert_eq!(back, values);
        r.finish().unwrap();
    }

    #[test]
    fn counts_and_shapes_are_bounded_by_the_bytes_left() {
        // A count of 5 four-byte items needs 20 more bytes.
        let mut buf = Vec::new();
        buf.put_usize(5).unwrap();
        buf.extend_from_slice(&[0; 19]);
        assert!(reader(&buf).count(4).is_err());
        buf.push(0);
        assert_eq!(reader(&buf).count(4).unwrap(), 5);
        // A count whose byte total overflows is rejected, not wrapped.
        let max = u32::MAX.to_le_bytes();
        assert!(reader(&max).count(u64::MAX).is_err());
        // An empty tensor with an absurd dimension is rejected, as is a
        // body the file cannot hold.
        for shape in [[0, 1 << 31, 1, 1], [1, 1, 64, 64]] {
            let mut buf = Vec::new();
            for d in shape {
                buf.put_usize(d).unwrap();
            }
            assert!(reader(&buf).tensor().is_err(), "{shape:?}");
        }
    }
}
