//! Memory hints for the edge pool: a cache-line prefetch and huge-page
//! advice. Both only tell the hardware or the kernel what is coming;
//! neither reads, writes or frees memory, so no caller can observe one
//! but through timing. They are the graph crate's only `unsafe`.

/// Huge-page size the advice is worth a system call for: a range that
/// holds no aligned 2 MiB extent cannot get a huge page.
const HUGE_PAGE: usize = 2 << 20;
/// Base page size the advised range is rounded inward to.
#[cfg(target_os = "linux")]
const PAGE: usize = 4 << 10;

/// Start loading the cache line holding `p` into every cache level. A
/// no-op off x86_64.
#[inline(always)]
pub(crate) fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint. It never faults, whatever the
        // address, never changes memory, and `sse`, the one target
        // feature it needs, is part of the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Ask the kernel to back the whole pages of the `bytes` bytes at `buf`
/// with transparent huge pages (`MADV_HUGEPAGE`). Meant for a fresh
/// allocation before its first write, so the first touch of each
/// aligned 2 MiB extent faults in one huge page instead of 512 small
/// ones, and the random probes that follow miss the TLB less. Skipped
/// for buffers too small to hold a huge page; a refusal is ignored,
/// since the advice changes only the page size. A no-op off Linux.
pub(crate) fn advise_huge_pages<T>(buf: *const T, bytes: usize) {
    if bytes < HUGE_PAGE {
        return;
    }
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        let start = (buf as usize).next_multiple_of(PAGE);
        let end = (buf as usize + bytes) & !(PAGE - 1);
        if end > start {
            // SAFETY: `[start, end)` is the whole pages inside the
            // caller's own allocation. `MADV_HUGEPAGE` sets a paging
            // policy on that range: it neither changes nor frees its
            // contents, and unmaps nothing.
            unsafe {
                madvise(start as *mut c_void, end - start, MADV_HUGEPAGE);
            }
        }
    }
}
