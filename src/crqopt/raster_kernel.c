/* y = W x for the half store of crqopt.clustering.build_graph.

   Row d of the (nshifts, n) store w holds W[q - s, q] at column q for the
   positive flat shift s = shifts[d], shifts strictly ascending.  The
   symmetric W has the diagonals -s and +s: row i takes w[d, i] x[i - s]
   (for i >= s) and w[d, i + s] x[i + s] (for i + s < n).

   Each row sums 2 nshifts terms in one order: the lower diagonals in
   descending shift, then the upper ones in ascending shift, so its
   columns ascend.  The rows are taken in blocks of `block`, whose slice of
   y stays in L1 while the terms stream through it four at a time: a row's
   partial sum is loaded once per four terms, not once per term.  A term
   that misses some of the block's rows (at the raster's first and last
   shifts) goes through the block on its own, in the same place of the
   order.  Every product and every sum is rounded on its own, so y is bit
   for bit the sorted CSR product of the store's precision.  That holds
   only as long as nothing contracts a product and a sum into one fused
   multiply-add or reorders the sums: build with -ffp-contract=off and
   without -ffast-math.  The inner loops run along the rows, not along a
   sum, so vectorizing them changes no bits. */

#include <stddef.h>

#if defined(__has_attribute)
#if __has_attribute(target_clones) && defined(__x86_64__) && defined(__ELF__)
/* AVX2 where the CPU has it, SSE2 elsewhere, picked when the library loads */
#define CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONES
#define CLONES
#endif

#define GROUP 4

#define DEFINE_APPLY(NAME, T)                                                  \
    CLONES void NAME(const T *restrict w, const ptrdiff_t *restrict shifts,    \
                     ptrdiff_t nshifts, ptrdiff_t n, ptrdiff_t block,          \
                     const T *restrict x, T *restrict y)                       \
    {                                                                          \
        for (ptrdiff_t lo = 0; lo < n; lo += block) {                          \
            ptrdiff_t hi = n - lo > block ? lo + block : n;                    \
            for (ptrdiff_t i = lo; i < hi; i++)                                \
                y[i] = 0;                                                      \
            for (ptrdiff_t t = 0; t < 2 * nshifts; t += GROUP) {               \
                /* term k: y[i] += wt[k][i] * x[i + off[k]], first <= i < last */ \
                const T *wt[GROUP];                                            \
                ptrdiff_t off[GROUP], first[GROUP], last[GROUP], k = 0;        \
                int whole = 1;                                                 \
                for (; k < GROUP && t + k < 2 * nshifts; k++) {                \
                    int upper = t + k >= nshifts;                              \
                    ptrdiff_t d = upper ? t + k - nshifts : nshifts - 1 - t - k; \
                    ptrdiff_t s = shifts[d];                                   \
                    wt[k] = w + d * n + (upper ? s : 0);                       \
                    off[k] = upper ? s : -s;                                   \
                    first[k] = upper || lo > s ? lo : s;                       \
                    last[k] = !upper || hi < n - s ? hi : n - s;               \
                    whole &= first[k] == lo && last[k] == hi;                  \
                }                                                              \
                if (whole && k == GROUP) {                                     \
                    const T *restrict w0 = wt[0] + lo, *restrict w1 = wt[1] + lo; \
                    const T *restrict w2 = wt[2] + lo, *restrict w3 = wt[3] + lo; \
                    const T *restrict x0 = x + lo + off[0], *restrict x1 = x + lo + off[1]; \
                    const T *restrict x2 = x + lo + off[2], *restrict x3 = x + lo + off[3]; \
                    T *restrict yb = y + lo;                                   \
                    for (ptrdiff_t i = 0; i < hi - lo; i++) {                  \
                        T acc = yb[i];                                         \
                        acc += w0[i] * x0[i];                                  \
                        acc += w1[i] * x1[i];                                  \
                        acc += w2[i] * x2[i];                                  \
                        acc += w3[i] * x3[i];                                  \
                        yb[i] = acc;                                           \
                    }                                                          \
                } else {                                                       \
                    for (ptrdiff_t j = 0; j < k; j++)                          \
                        for (ptrdiff_t i = first[j]; i < last[j]; i++)         \
                            y[i] += wt[j][i] * x[i + off[j]];                  \
                }                                                              \
            }                                                                  \
        }                                                                      \
    }

DEFINE_APPLY(apply_weights_f32, float)
DEFINE_APPLY(apply_weights_f64, double)
