//! Whole-row primitives for the vertical and horizontal filters.
//!
//! The vertical filter processes all columns of a column group in lockstep;
//! each lifting step is an elementwise operation over three rows. These
//! kernels are the only implementation: plain slice loops that LLVM
//! autovectorizes for the target (SSE2 on x86-64, NEON on aarch64), which
//! is the role SPU intrinsics played in the paper's code. Hand-written
//! intrinsics measured within noise of these loops, so none are kept
//! (DESIGN.md section 18).

use xpart::AlignedPlane;

/// A rectangular region of a plane (offsets/extents in elements/rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First column.
    pub x0: usize,
    /// First row.
    pub y0: usize,
    /// Width in elements.
    pub w: usize,
    /// Height in rows.
    pub h: usize,
}

impl Region {
    /// Region covering a whole plane.
    pub fn full<T: Copy + Default>(p: &AlignedPlane<T>) -> Self {
        Region {
            x0: 0,
            y0: 0,
            w: p.width(),
            h: p.height(),
        }
    }
}

/// Mutable row-wise view of a plane region; all row indices are
/// region-relative.
///
/// Internally raw-pointer based so that disjoint regions of the *same*
/// plane can be viewed from different threads through [`SharedPlane`]
/// without materializing aliasing `&mut AlignedPlane` borrows. All row
/// accessors bounds-check against the region before forming a slice.
pub struct Rows<'a, T> {
    ptr: *mut T,
    len: usize,
    stride: usize,
    base: usize,
    w: usize,
    h: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

impl<'a, T: Copy + Default> Rows<'a, T> {
    /// Borrow a region of `plane` as rows.
    pub fn new(plane: &'a mut AlignedPlane<T>, r: Region) -> Self {
        assert!(r.x0 + r.w <= plane.width() && r.y0 + r.h <= plane.height());
        let stride = plane.stride();
        let data = plane.as_mut_slice();
        // SAFETY: the region lies within the plane (asserted above) and the
        // `&mut` borrow guarantees exclusive access for 'a.
        unsafe { Rows::from_raw(data.as_mut_ptr(), data.len(), stride, r) }
    }

    /// Build a view over raw plane storage.
    ///
    /// # Safety
    /// `ptr..ptr+len` must be valid plane storage of row stride `stride`
    /// containing the region `r`, and no other live reference may overlap
    /// the elements of `r` for the lifetime `'a`.
    pub(crate) unsafe fn from_raw(ptr: *mut T, len: usize, stride: usize, r: Region) -> Self {
        let base = r.y0 * stride + r.x0;
        assert!(r.h == 0 || base + (r.h - 1) * stride + r.w <= len);
        Rows {
            ptr,
            len,
            stride,
            base,
            w: r.w,
            h: r.h,
            _marker: std::marker::PhantomData,
        }
    }

    /// Region height in rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.h
    }

    /// Region width in elements.
    #[inline]
    pub fn width(&self) -> usize {
        self.w
    }

    #[inline]
    fn offset(&self, y: usize) -> usize {
        assert!(y < self.h);
        let s = self.base + y * self.stride;
        debug_assert!(s + self.w <= self.len);
        s
    }

    /// Shared row `y`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        let s = self.offset(y);
        // SAFETY: the offset is within the storage (constructor invariant
        // plus the bound checks in `offset`), and `&self` prevents any
        // concurrent `&mut` access through this view.
        unsafe { std::slice::from_raw_parts(self.ptr.add(s) as *const T, self.w) }
    }

    /// Mutable row `y`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        let s = self.offset(y);
        // SAFETY: as in `row`, plus `&mut self` gives exclusive access to
        // the region for the returned lifetime.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(s), self.w) }
    }

    /// Reborrow a column range `[x0, x0 + w)` of this view (all rows).
    ///
    /// Used by the cache-blocked vertical filter: the region is processed
    /// one column group at a time so the pipeline's working set fits the
    /// host cache, and columns are independent so the result is
    /// byte-identical to one full-width pass.
    pub fn subcols(&mut self, x0: usize, w: usize) -> Rows<'_, T> {
        assert!(x0 + w <= self.w);
        Rows {
            ptr: self.ptr,
            len: self.len,
            stride: self.stride,
            base: self.base + x0,
            w,
            h: self.h,
            _marker: std::marker::PhantomData,
        }
    }

    /// One mutable destination row plus two shared source rows.
    ///
    /// `ya`/`yb` may coincide with each other (mirror boundaries) but must
    /// differ from `yd`; rows never overlap because `stride >= w`.
    pub fn dst_src2(&mut self, yd: usize, ya: usize, yb: usize) -> (&mut [T], &[T], &[T]) {
        assert!(yd != ya && yd != yb, "destination row aliases a source row");
        let w = self.w;
        let (od, oa, ob) = (self.offset(yd), self.offset(ya), self.offset(yb));
        // SAFETY: the three row ranges are disjoint — each is `w <= stride`
        // elements starting at distinct multiples of `stride` (yd != ya, yd
        // != yb asserted above), and all lie within the storage (`offset`
        // checks). `a` and `b` may alias each other, which is fine for
        // shared references.
        unsafe {
            let d = std::slice::from_raw_parts_mut(self.ptr.add(od), w);
            let a = std::slice::from_raw_parts(self.ptr.add(oa) as *const T, w);
            let b = std::slice::from_raw_parts(self.ptr.add(ob) as *const T, w);
            (d, a, b)
        }
    }
}

/// A plane handle that can be shared across threads so that *disjoint*
/// regions can be filtered concurrently — the host-thread analogue of
/// several SPEs holding DMA windows into the same main-memory array.
///
/// Constructed from an exclusive borrow, so no safe alias can observe the
/// plane while views exist; the unsafe surface is confined to [`rows`],
/// whose contract is that concurrently live views never overlap.
///
/// [`rows`]: SharedPlane::rows
pub struct SharedPlane<'a, T> {
    ptr: *mut T,
    len: usize,
    stride: usize,
    width: usize,
    height: usize,
    _marker: std::marker::PhantomData<&'a mut AlignedPlane<T>>,
}

// SAFETY: the handle owns an exclusive borrow of the plane; access to the
// underlying storage only happens through `rows`, whose safety contract
// requires concurrently live views to cover disjoint regions.
unsafe impl<T: Send> Send for SharedPlane<'_, T> {}
unsafe impl<T: Send> Sync for SharedPlane<'_, T> {}

impl<'a, T: Copy + Default> SharedPlane<'a, T> {
    /// Wrap an exclusively borrowed plane.
    pub fn new(plane: &'a mut AlignedPlane<T>) -> Self {
        let width = plane.width();
        let height = plane.height();
        let stride = plane.stride();
        let data = plane.as_mut_slice();
        SharedPlane {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            stride,
            width,
            height,
            _marker: std::marker::PhantomData,
        }
    }

    /// Plane width in elements.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in rows.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// View a region of the plane as [`Rows`].
    ///
    /// # Safety
    /// Regions of views that are live at the same time must be pairwise
    /// disjoint (no element may be covered by two live views). The caller
    /// is responsible for that partitioning — e.g. the column chunks of an
    /// `xpart::ChunkPlan` or non-overlapping row bands.
    pub unsafe fn rows(&self, r: Region) -> Rows<'a, T> {
        assert!(r.x0 + r.w <= self.width && r.y0 + r.h <= self.height);
        Rows::from_raw(self.ptr, self.len, self.stride, r)
    }
}

/// `dst -= (a + b) >> 1` elementwise (5/3 predict).
#[inline]
pub fn predict53(dst: &mut [i32], a: &[i32], b: &[i32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d -= (x + y) >> 1;
    }
}

/// `dst += (a + b) >> 1` elementwise (5/3 predict undo).
#[inline]
pub fn unpredict53(dst: &mut [i32], a: &[i32], b: &[i32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += (x + y) >> 1;
    }
}

/// `dst += (a + b + 2) >> 2` elementwise (5/3 update).
#[inline]
pub fn update53(dst: &mut [i32], a: &[i32], b: &[i32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += (x + y + 2) >> 2;
    }
}

/// `dst -= (a + b + 2) >> 2` elementwise (5/3 update undo).
#[inline]
pub fn unupdate53(dst: &mut [i32], a: &[i32], b: &[i32]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d -= (x + y + 2) >> 2;
    }
}

/// `out = center - ((a + b) >> 1)` elementwise.
#[inline]
pub fn predict53_into(out: &mut [i32], center: &[i32], a: &[i32], b: &[i32]) {
    for i in 0..out.len() {
        out[i] = center[i] - ((a[i] + b[i]) >> 1);
    }
}

/// `out = center + ((a + b + 2) >> 2)` elementwise.
#[inline]
pub fn update53_into(out: &mut [i32], center: &[i32], a: &[i32], b: &[i32]) {
    for i in 0..out.len() {
        out[i] = center[i] + ((a[i] + b[i] + 2) >> 2);
    }
}

/// `dst += c * (a + b)` elementwise (9/7 lifting step).
#[inline]
pub fn lift_f32(dst: &mut [f32], a: &[f32], b: &[f32], c: f32) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += c * (x + y);
    }
}

/// `out = center + c * (a + b)` elementwise.
#[inline]
pub fn lift_f32_into(out: &mut [f32], center: &[f32], a: &[f32], b: &[f32], c: f32) {
    for i in 0..out.len() {
        out[i] = center[i] + c * (a[i] + b[i]);
    }
}

/// `dst *= k` elementwise.
#[inline]
pub fn scale_f32(dst: &mut [f32], k: f32) {
    for d in dst {
        *d *= k;
    }
}

/// `dst += (c * (a + b)) >> 13` elementwise (Q13 lifting step).
#[inline]
pub fn lift_q13(dst: &mut [i32], a: &[i32], b: &[i32], c: i32) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += crate::fixed::fix_mul(c, x.wrapping_add(y));
    }
}

/// `out = center + ((c * (a + b)) >> 13)` elementwise.
#[inline]
pub fn lift_q13_into(out: &mut [i32], center: &[i32], a: &[i32], b: &[i32], c: i32) {
    for i in 0..out.len() {
        out[i] = center[i] + crate::fixed::fix_mul(c, a[i].wrapping_add(b[i]));
    }
}

/// `dst = (dst * k) >> 13` elementwise.
#[inline]
pub fn scale_q13(dst: &mut [i32], k: i32) {
    for d in dst {
        *d = crate::fixed::fix_mul(*d, k);
    }
}

/// Split interleaved `src` into `low` (even indices) / `high` (odd).
#[inline]
pub fn deinterleave_i32(src: &[i32], low: &mut [i32], high: &mut [i32]) {
    for (i, l) in low.iter_mut().enumerate() {
        *l = src[2 * i];
    }
    for (i, h) in high.iter_mut().enumerate() {
        *h = src[2 * i + 1];
    }
}

/// Merge `low`/`high` halves into interleaved `dst`.
#[inline]
pub fn interleave_i32(low: &[i32], high: &[i32], dst: &mut [i32]) {
    for (i, &l) in low.iter().enumerate() {
        dst[2 * i] = l;
    }
    for (i, &h) in high.iter().enumerate() {
        dst[2 * i + 1] = h;
    }
}

/// Split interleaved f32 `src` into `low`/`high` (bit-preserving).
#[inline]
pub fn deinterleave_f32(src: &[f32], low: &mut [f32], high: &mut [f32]) {
    for (i, l) in low.iter_mut().enumerate() {
        *l = src[2 * i];
    }
    for (i, h) in high.iter_mut().enumerate() {
        *h = src[2 * i + 1];
    }
}

/// Merge f32 `low`/`high` into interleaved `dst` (bit-preserving).
#[inline]
pub fn interleave_f32(low: &[f32], high: &[f32], dst: &mut [f32]) {
    for (i, &l) in low.iter().enumerate() {
        dst[2 * i] = l;
    }
    for (i, &h) in high.iter().enumerate() {
        dst[2 * i + 1] = h;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_full_covers_plane() {
        let p = AlignedPlane::<i32>::new(10, 4).unwrap();
        let r = Region::full(&p);
        assert_eq!((r.x0, r.y0, r.w, r.h), (0, 0, 10, 4));
    }

    #[test]
    fn rows_view_reads_and_writes_subregion() {
        let mut p = AlignedPlane::<i32>::new(8, 4).unwrap();
        p.for_each_mut(|x, y, v| *v = (10 * y + x) as i32);
        let mut rows = Rows::new(
            &mut p,
            Region {
                x0: 2,
                y0: 1,
                w: 3,
                h: 2,
            },
        );
        assert_eq!(rows.row(0), &[12, 13, 14]);
        rows.row_mut(1)[0] = -1;
        assert_eq!(p.get(2, 2), -1);
    }

    #[test]
    fn dst_src2_allows_mirror_aliasing_of_sources() {
        let mut p = AlignedPlane::<i32>::new(4, 3).unwrap();
        p.for_each_mut(|x, y, v| *v = (y * 4 + x) as i32);
        let r = Region::full(&p);
        let mut rows = Rows::new(&mut p, r);
        let (d, a, b) = rows.dst_src2(2, 0, 0);
        assert_eq!(a, b);
        predict53(d, a, b);
        assert_eq!(p.row(2), &[8, 8, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "aliases")]
    fn dst_src2_rejects_dst_aliasing() {
        let mut p = AlignedPlane::<i32>::new(4, 3).unwrap();
        let r = Region::full(&p);
        let mut rows = Rows::new(&mut p, r);
        let _ = rows.dst_src2(1, 1, 0);
    }

    #[test]
    fn predict_update_inverse_pair() {
        let a = vec![3i32, -5, 100, 7];
        let b = vec![9i32, 2, -4, 0];
        let orig = vec![10i32, 20, 30, -40];
        let mut d = orig.clone();
        predict53(&mut d, &a, &b);
        // inverse of predict is adding the same prediction back
        let mut d2 = d.clone();
        for i in 0..4 {
            d2[i] += (a[i] + b[i]) >> 1;
        }
        assert_eq!(d2, orig);
    }

    #[test]
    fn into_forms_match_inplace_forms() {
        let a = vec![1i32, -2, 3, -4];
        let b = vec![5i32, 6, -7, 8];
        let c = vec![9i32, 10, 11, 12];
        let mut inplace = c.clone();
        predict53(&mut inplace, &a, &b);
        let mut out = vec![0i32; 4];
        predict53_into(&mut out, &c, &a, &b);
        assert_eq!(out, inplace);

        let mut inplace = c.clone();
        update53(&mut inplace, &a, &b);
        let mut out = vec![0i32; 4];
        update53_into(&mut out, &c, &a, &b);
        assert_eq!(out, inplace);

        let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let cf: Vec<f32> = c.iter().map(|&v| v as f32).collect();
        let mut inplace = cf.clone();
        lift_f32(&mut inplace, &af, &bf, 0.5);
        let mut out = vec![0f32; 4];
        lift_f32_into(&mut out, &cf, &af, &bf, 0.5);
        assert_eq!(out, inplace);
    }
}
