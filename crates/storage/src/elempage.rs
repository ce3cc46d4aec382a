//! Fixed-layout codec for storing spatial elements on pages.
//!
//! A page starts with a `u16` element count followed by fixed 56-byte
//! records (`id: u64 LE`, then the six `f64 LE` MBB coordinates). With the
//! default 8 KiB page this yields a capacity of 146 elements per page —
//! this is exactly the paper's *space unit* payload (§IV: "we pack as many
//! elements into a space unit as can fit on a disk page").

use bytes::BufMut;
use tfm_geom::{Aabb, Point3, SpatialElement};

/// Bytes per element record: 8 (id) + 6 × 8 (two corners).
pub const RECORD_SIZE: usize = 56;

/// Bytes of page header: the `u16` element count.
pub const HEADER_SIZE: usize = 2;

/// Encoder/decoder for element pages of a fixed page size.
#[derive(Debug, Clone, Copy)]
pub struct ElementPageCodec {
    page_size: usize,
}

impl ElementPageCodec {
    /// Creates a codec for pages of `page_size` bytes.
    ///
    /// # Panics
    /// Panics if the page cannot hold at least one record.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size >= HEADER_SIZE + RECORD_SIZE,
            "page size {page_size} too small for one element record"
        );
        Self { page_size }
    }

    /// Maximum number of elements that fit on one page.
    #[inline]
    pub fn capacity(&self) -> usize {
        (self.page_size - HEADER_SIZE) / RECORD_SIZE
    }

    /// Serializes up to [`capacity`](Self::capacity) elements into a page
    /// image of exactly `page_size` bytes.
    ///
    /// # Panics
    /// Panics if more elements are given than fit.
    pub fn encode(&self, elements: &[SpatialElement]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.page_size);
        self.encode_into(elements, &mut buf);
        buf
    }

    /// Serializes a page image directly into `buf` (cleared first, reusing
    /// its capacity — no intermediate allocation, unlike `encode`). The
    /// write counterpart of [`decode_into`](Self::decode_into): the build
    /// pipeline's page-encode stages reuse one buffer across pages.
    ///
    /// # Panics
    /// Panics if more elements are given than fit.
    pub fn encode_into(&self, elements: &[SpatialElement], buf: &mut Vec<u8>) {
        assert!(
            elements.len() <= self.capacity(),
            "{} elements exceed page capacity {}",
            elements.len(),
            self.capacity()
        );
        buf.clear();
        buf.reserve(self.page_size);
        buf.put_u16_le(elements.len() as u16);
        for e in elements {
            buf.put_u64_le(e.id);
            buf.put_f64_le(e.mbb.min.x);
            buf.put_f64_le(e.mbb.min.y);
            buf.put_f64_le(e.mbb.min.z);
            buf.put_f64_le(e.mbb.max.x);
            buf.put_f64_le(e.mbb.max.y);
            buf.put_f64_le(e.mbb.max.z);
        }
        buf.resize(self.page_size, 0);
    }

    /// Deserializes the elements stored in a page image.
    ///
    /// # Panics
    /// Panics if the page is shorter than its declared payload.
    pub fn decode(&self, page: &[u8]) -> Vec<SpatialElement> {
        self.records(page).collect()
    }

    /// Decodes a page directly into `out` (reusing its capacity — no
    /// intermediate allocation, unlike `decode`).
    ///
    /// # Panics
    /// Panics if the page is shorter than its declared payload.
    pub fn decode_into(&self, page: &[u8], out: &mut Vec<SpatialElement>) {
        out.clear();
        out.extend(self.records(page));
    }

    /// The elements stored in a page image, decoded one fixed-size record
    /// at a time. The iterator knows its length, so collecting it (into a
    /// `Vec` or an `Arc<[SpatialElement]>`) allocates exactly once.
    ///
    /// # Panics
    /// Panics if the page is shorter than its declared payload.
    pub(crate) fn records<'p>(
        &self,
        page: &'p [u8],
    ) -> impl ExactSizeIterator<Item = SpatialElement> + 'p {
        let count = u16::from_le_bytes([page[0], page[1]]) as usize;
        let end = HEADER_SIZE + count * RECORD_SIZE;
        assert!(
            page.len() >= end,
            "corrupt element page: count {count} does not fit {} bytes",
            page.len()
        );
        page[HEADER_SIZE..end].chunks_exact(RECORD_SIZE).map(|r| {
            let word =
                |i: usize| u64::from_le_bytes(r[8 * i..8 * i + 8].try_into().expect("8-byte word"));
            let f = |i| f64::from_bits(word(i));
            let (min, max) = (Point3::new(f(1), f(2), f(3)), Point3::new(f(4), f(5), f(6)));
            SpatialElement::new(word(0), Aabb::new(min, max))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_PAGE_SIZE;

    fn elem(id: u64, lo: f64) -> SpatialElement {
        SpatialElement::new(
            id,
            Aabb::new(
                Point3::new(lo, lo + 1.0, lo + 2.0),
                Point3::new(lo + 3.0, lo + 4.0, lo + 5.0),
            ),
        )
    }

    #[test]
    fn default_page_capacity_matches_paper_math() {
        let c = ElementPageCodec::new(DEFAULT_PAGE_SIZE);
        assert_eq!(c.capacity(), (8192 - 2) / 56); // 146
    }

    #[test]
    fn roundtrip_full_page() {
        let c = ElementPageCodec::new(DEFAULT_PAGE_SIZE);
        let elems: Vec<_> = (0..c.capacity() as u64)
            .map(|i| elem(i, i as f64))
            .collect();
        let page = c.encode(&elems);
        assert_eq!(page.len(), DEFAULT_PAGE_SIZE);
        assert_eq!(c.decode(&page), elems);
    }

    #[test]
    fn roundtrip_empty_and_partial() {
        let c = ElementPageCodec::new(512);
        assert_eq!(c.decode(&c.encode(&[])), vec![]);
        let elems = vec![elem(7, 0.5), elem(9, -3.25)];
        assert_eq!(c.decode(&c.encode(&elems)), elems);
    }

    #[test]
    #[should_panic(expected = "exceed page capacity")]
    fn overfull_page_panics() {
        let c = ElementPageCodec::new(HEADER_SIZE + RECORD_SIZE); // capacity 1
        let elems = vec![elem(0, 0.0), elem(1, 1.0)];
        c.encode(&elems);
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let c = ElementPageCodec::new(512);
        let elems = vec![elem(7, 0.5), elem(9, -3.25)];
        let mut buf = Vec::new();
        c.encode_into(&elems, &mut buf);
        assert_eq!(buf, c.encode(&elems));
        // Reuse with different (and empty) content: cleared each time.
        c.encode_into(&[elem(1, 1.0)], &mut buf);
        assert_eq!(buf, c.encode(&[elem(1, 1.0)]));
        c.encode_into(&[], &mut buf);
        assert_eq!(buf, c.encode(&[]));
        assert_eq!(buf.len(), 512);
    }

    #[test]
    fn decode_into_reuses_buffer() {
        let c = ElementPageCodec::new(512);
        let page = c.encode(&[elem(1, 1.0)]);
        let mut buf = Vec::with_capacity(10);
        c.decode_into(&page, &mut buf);
        assert_eq!(buf.len(), 1);
        c.decode_into(&c.encode(&[]), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn negative_and_fractional_coords_survive() {
        let c = ElementPageCodec::new(512);
        let e = SpatialElement::new(
            u64::MAX,
            Aabb::new(
                Point3::new(-1e9, -0.001, 1e-12),
                Point3::new(-1e8, 0.001, 2e-12),
            ),
        );
        assert_eq!(c.decode(&c.encode(&[e])), vec![e]);
    }

    #[test]
    #[should_panic(expected = "corrupt element page")]
    fn count_past_the_page_end_panics() {
        let c = ElementPageCodec::new(512);
        let mut page = c.encode(&[elem(1, 1.0)]);
        // 10 records need 562 bytes; the page has 512.
        page[..HEADER_SIZE].copy_from_slice(&10u16.to_le_bytes());
        c.decode(&page);
    }

    #[test]
    fn decoders_and_the_shared_cache_agree() {
        use crate::{Disk, DiskModel, SharedPageCache};
        let c = ElementPageCodec::new(512);
        let d = Disk::in_memory(512).with_model(DiskModel::free());
        let pages: Vec<_> = (0..3u64)
            .map(|n| {
                let p = d.allocate();
                let elems: Vec<_> = (0..n * 4).map(|i| elem(i, i as f64 - 5.5)).collect();
                d.write_page(p, &c.encode(&elems));
                p
            })
            .collect();
        let cache = SharedPageCache::new(&d, 8);
        let mut into = vec![elem(99, 0.0)];
        for p in pages {
            let page = d.read_page_vec(p);
            c.decode_into(&page, &mut into);
            assert_eq!(c.decode(&page), into);
            assert_eq!(cache.read_decoded(&c, p).as_ref(), into.as_slice());
            // Twice: the second answer comes from the decoded tier.
            assert_eq!(cache.read_decoded(&c, p).as_ref(), into.as_slice());
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Finite doubles with the edge cases drawn often: signed zeros,
        /// subnormals and the extremes; otherwise any finite bit pattern.
        fn finite_f64() -> impl Strategy<Value = f64> {
            const EDGES: [f64; 7] = [
                0.0,
                -0.0,
                5e-324,
                -5e-324,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::MIN,
            ];
            (0usize..14, any::<u64>()).prop_map(|(i, bits)| match EDGES.get(i) {
                Some(&v) => v,
                // Clearing the exponent of a non-finite pattern leaves a
                // subnormal with the same sign and mantissa.
                None if f64::from_bits(bits).is_finite() => f64::from_bits(bits),
                None => f64::from_bits(bits & !(0x7ff << 52)),
            })
        }

        /// A valid box from six doubles: each axis ordered, where -0.0 and
        /// 0.0 compare equal and keep the order they were drawn in.
        fn arb_elem() -> impl Strategy<Value = SpatialElement> {
            (any::<u64>(), prop::collection::vec(finite_f64(), 6)).prop_map(|(id, v)| {
                let lo = [0, 1, 2].map(|d| if v[d] <= v[d + 3] { v[d] } else { v[d + 3] });
                let hi = [0, 1, 2].map(|d| if v[d] <= v[d + 3] { v[d + 3] } else { v[d] });
                let p = |c: [f64; 3]| Point3::new(c[0], c[1], c[2]);
                SpatialElement::new(id, Aabb::new(p(lo), p(hi)))
            })
        }

        fn bits(e: &SpatialElement) -> (u64, [u64; 6]) {
            let (a, b) = (e.mbb.min, e.mbb.max);
            (e.id, [a.x, a.y, a.z, b.x, b.y, b.z].map(f64::to_bits))
        }

        proptest! {
            #[test]
            fn roundtrip_is_bit_exact(elems in prop::collection::vec(arb_elem(), 0..10)) {
                let c = ElementPageCodec::new(HEADER_SIZE + 9 * RECORD_SIZE);
                let got: Vec<_> = c.decode(&c.encode(&elems)).iter().map(bits).collect();
                let want: Vec<_> = elems.iter().map(bits).collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
