//! Thin refcounted byte buffers: the storage behind [`Key`] and [`Value`].
//!
//! A [`Buf`] is one pointer (8 B) to a heap block holding an 8-byte header
//! — a `u32` reference count and the `u32` length — followed by the bytes.
//! `Arc<[u8]>` spends 16 B on the handle (pointer + length) and 16 B on the
//! block header (strong + weak count, where the weak count is never used).
//! Every replica row, session slot and message that holds a key or value
//! holds one handle, so the handle's size is paid many times per key while
//! the block is paid once: the three replicas of a key share its blocks.
//!
//! The bytes are immutable after construction. `clone` bumps the count with
//! `Relaxed` and aborts on overflow; `drop` decrements with `Release` and
//! the last handle frees the block after an `Acquire` fence — the protocol
//! of `std::sync::Arc`. Equality, ordering and hashing are those of the byte
//! slice, exactly as for `Arc<[u8]>`.
//!
//! This module is the only `unsafe` code outside the counting allocators.
//!
//! [`Key`]: crate::Key
//! [`Value`]: crate::Value

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{self, Layout};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicU32, Ordering};

/// The block header; the bytes follow it.
#[repr(C)]
struct Header {
    refs: AtomicU32,
    len: u32,
}

const HEADER: usize = std::mem::size_of::<Header>();

/// Counts above this abort, as `Arc` does above `isize::MAX`: the headroom
/// up to `u32::MAX` absorbs racing increments before one of them aborts.
const MAX_REFS: u32 = i32::MAX as u32;

/// A cheaply clonable, immutable, refcounted slice of bytes, one pointer
/// wide.
pub struct Buf {
    ptr: NonNull<Header>,
}

const _: () = assert!(std::mem::size_of::<Buf>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Buf>>() == 8);

// SAFETY: `ptr`, the only field, points at a block whose bytes are never
// written after construction and whose count is only touched atomically;
// whichever thread drops the last handle frees it, after the `Acquire`
// fence in `drop`. So a handle may move to another thread, as an
// `Arc<[u8]>` may.
unsafe impl Send for Buf {}
// SAFETY: through `&Buf` a thread only reads the immutable bytes and
// increments the atomic count (`clone`), so handles may be shared between
// threads, as an `Arc<[u8]>` may.
unsafe impl Sync for Buf {}

/// Counts one more handle to the block holding `refs`.
fn bump(refs: &AtomicU32) {
    if refs.fetch_add(1, Ordering::Relaxed) > MAX_REFS {
        std::process::abort();
    }
}

/// Layout of a block holding `len` bytes.
fn layout(len: usize) -> Layout {
    let bytes = Layout::array::<u8>(len).expect("buffer length overflows a layout");
    let (layout, _) = Layout::new::<Header>()
        .extend(bytes)
        .expect("buffer length overflows a layout");
    layout.pad_to_align()
}

impl Buf {
    /// The empty buffer: a block holding only the header.
    pub fn new() -> Buf {
        Buf::copy_from_slice(&[])
    }

    /// Copies `data` into a fresh block.
    ///
    /// # Panics
    ///
    /// When `data` is longer than `u32::MAX` bytes.
    pub fn copy_from_slice(data: &[u8]) -> Buf {
        let len = u32::try_from(data.len()).expect("buffer longer than u32::MAX bytes");
        let layout = layout(data.len());
        // SAFETY: `layout` has a non-zero size: it holds at least the header.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<Header>()) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `raw` is a fresh block of `layout`: aligned for the
        // header and large enough for it plus `data.len()` bytes, and no
        // other pointer to it exists yet. `data` cannot overlap it.
        unsafe {
            ptr.as_ptr().write(Header {
                refs: AtomicU32::new(1),
                len,
            });
            std::ptr::copy_nonoverlapping(data.as_ptr(), raw.add(HEADER), data.len());
        }
        Buf { ptr }
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: this handle holds a count, so the block outlives `self`.
        unsafe { self.ptr.as_ref() }
    }

    /// The bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        let len = self.header().len as usize;
        // SAFETY: the block holds `len` initialised bytes right after the
        // header, never written after construction, and lives as long as
        // `self` holds its count.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().cast::<u8>().add(HEADER), len) }
    }
}

impl Clone for Buf {
    #[inline]
    fn clone(&self) -> Buf {
        bump(&self.header().refs);
        Buf { ptr: self.ptr }
    }
}

impl Drop for Buf {
    fn drop(&mut self) {
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Every other handle's last use happens-before the free.
        fence(Ordering::Acquire);
        let len = self.header().len as usize;
        // SAFETY: the count reached zero, so this was the last handle and
        // nothing else refers to the block. `copy_from_slice` made it with
        // `layout(len)`.
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), layout(len)) }
    }
}

impl Default for Buf {
    fn default() -> Buf {
        Buf::new()
    }
}

impl Deref for Buf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Buf {
    #[inline]
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Buf {
    /// Two handles to one block are equal without reading it, as `Arc`'s
    /// `Eq` does: a row's key is usually the very block the request
    /// carries, and the block is often out of cache.
    #[inline]
    fn eq(&self, other: &Buf) -> bool {
        self.ptr == other.ptr || self.as_slice() == other.as_slice()
    }
}

impl Eq for Buf {}

impl PartialOrd for Buf {
    #[inline]
    fn partial_cmp(&self, other: &Buf) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Buf {
    #[inline]
    fn cmp(&self, other: &Buf) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Buf {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Buf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.as_slice().escape_ascii())
    }
}

impl From<&[u8]> for Buf {
    fn from(data: &[u8]) -> Buf {
        Buf::copy_from_slice(data)
    }
}

impl<const N: usize> From<&[u8; N]> for Buf {
    fn from(data: &[u8; N]) -> Buf {
        Buf::copy_from_slice(data)
    }
}

impl From<&str> for Buf {
    fn from(s: &str) -> Buf {
        Buf::copy_from_slice(s.as_bytes())
    }
}

impl From<Vec<u8>> for Buf {
    fn from(v: Vec<u8>) -> Buf {
        Buf::copy_from_slice(&v)
    }
}

impl From<String> for Buf {
    fn from(s: String) -> Buf {
        Buf::copy_from_slice(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn clone_is_shallow_and_equal() {
        let a = Buf::from(b"hello".to_vec());
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()));
        assert_eq!(a.header().refs.load(Ordering::Relaxed), 2);
        drop(b);
        assert_eq!(a.header().refs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn conversions_and_ordering() {
        let a = Buf::from("abc");
        let b = Buf::copy_from_slice(b"abd");
        assert!(a < b);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[..2], b"ab");
        assert_eq!(a, Buf::from(String::from("abc")));
        assert_eq!(a, Buf::from(b"abc"));
        assert_eq!(a, Buf::from(vec![b'a', b'b', b'c']));
        // Equal, ordered and hashed exactly as the `Arc<[u8]>` it replaced.
        let hash = |x: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            x(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|h| a.hash(h)), hash(&|h| b"abc"[..].hash(h)));
        let arc: std::sync::Arc<[u8]> = std::sync::Arc::from(&b"abc"[..]);
        assert_eq!(hash(&|h| a.hash(h)), hash(&|h| arc.hash(h)));
    }

    #[test]
    fn map_lookups_by_slice_agree() {
        let mut map: HashMap<Buf, usize> = HashMap::new();
        for i in 0..100 {
            map.insert(Buf::from(format!("key-{i}")), i);
        }
        for i in 0..100 {
            assert_eq!(map.get(format!("key-{i}").as_bytes()), Some(&i));
        }
        assert_eq!(map.get(&b"key-100"[..]), None);
    }

    #[test]
    fn the_empty_buffer_works() {
        let e = Buf::new();
        assert!(e.is_empty());
        assert_eq!(e.as_slice(), b"");
        assert_eq!(e, Buf::default());
        assert_eq!(e, Buf::from(Vec::new()));
        assert!(e < Buf::from("a"));
        assert_eq!(format!("{e:?}"), "b\"\"");
        let clones: Vec<Buf> = (0..1000).map(|_| e.clone()).collect();
        drop(clones);
        assert!(e.is_empty());
    }

    #[test]
    fn debug_escapes_non_ascii() {
        assert_eq!(format!("{:?}", Buf::from(&[b'a', 0x1f][..])), "b\"a\\x1f\"");
    }
}
