/* C kernels for the word-modular bulk primitives (Kp_kernel.Cstub).

   These are the hot loops of the Theorem-4 pipeline compiled as C so the
   compiler can unroll and autovectorize them: OCaml's code generator
   neither vectorizes nor elides the per-element bounds checks, and every
   profile since the kernel layer landed shows those loops as the raw-speed
   floor.

   Conventions:

   - Vectors and matrices arrive as ordinary OCaml [int array]s — flat
     blocks of tagged immediates, read zero-copy with Long_val(Field(v,i))
     and written with Field(v,i) = Val_long(x).  Storing an immediate over
     an immediate needs no write barrier, so every stub is [@@noalloc]:
     no allocation, no GC interaction, no callbacks.

   - GF(p), p < 2^30: canonical residues in [0,p), so a raw product is
     below 2^60.  No loop divides.  The inner products (dot, dot_acc,
     matvec) split each product into its low 32 bits and its high bits
     and add the halves into two uint64 sums, which cannot overflow below
     2^32 terms, so each row is reduced once, at its end.  A prepared
     dense operator packs its matrix once as uint32 residues, so each
     product is one 32×32→64 widening multiply.  axpy and scale
     multiply by one scalar a per call: one division per call precomputes
     Shoup's quotient of a, and each product is then reduced in 32-bit
     arithmetic.  A prepared butterfly network stores every coefficient
     beside its Shoup quotient, so its apply is 32-bit arithmetic with no
     Barrett step.  A prepared sparse operator is SELL-8 on AVX-512 (the
     rows sorted by length in slices of 8, column-major), whose products
     sum exactly in 64-bit lanes or in split sums, one reduction per row;
     elsewhere it is the CSR loop.  CSR and matmul block ends and
     pointwise products are one Barrett step each.  Regrouping reductions cannot change a
     canonical residue, so the stubs are bit-identical to the derived
     kernel by construction.

   - GF(2): 0/1 in native ints.  Tagged 0/1 values obey
       (2a+1) & (2b+1) = 2(a·b)+1      — AND preserves the tag;
       ((2a+1) ^ (2b+1)) | 1 = 2(a⊕b)+1 — XOR re-tags with "| 1";
     so the elementwise loops run directly on the tagged words.

   - Reduction/packing scratch larger than a few registers (the matmul row
     accumulator, the packed-x words of the GF(2) matvec) lives in an
     int64 Bigarray passed in by the caller: no malloc on the hot path.

   - `restrict` only on memory that is disjoint by construction: the
     words of a prepared butterfly network, and the two halves of a
     butterfly block, which are the two ends of every pair.  Without it
     GCC does not vectorize those loops under OCaml's -fno-strict-aliasing.
     Everywhere else pointers are plain: the elementwise primitives may be
     called with dst aliasing a source at a different offset, and C's
     plain-pointer semantics then match the derived kernel's
     forward-sequential loop exactly (vectorizing compilers version such
     loops behind an overlap check).  The dense matvec's dst must alias
     neither m nor x (Kernel_intf), since four rows are written only after
     all four are summed. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/memory.h>
#include <stdint.h>
#include <string.h>

#define ELT(v, i) Long_val(Field((v), (i)))
#define SET(v, i, x) (Field((v), (i)) = Val_long(x))

/* The dense GF(p) inner products are built once per instruction set and
   the dynamic loader picks the widest clone the CPU runs (an ifunc).
   GCC's function multiversioning needs glibc's ifunc, so other toolchains
   compile the plain body alone; kp_gfp_isa reports the choice.

   Loops are plain C for the compiler to vectorize.  Intrinsics are used
   only where GCC 12 cannot emit the instruction from C: it vectorizes a
   32×32→64 widening multiply as one vpmuludq per 4 products in an avx2
   clone, but emulates the 512-bit one with three vpmuludq per 8 in an
   avx512f clone.  So the prepared dense apply and the butterfly network
   have intrinsics loops for AVX-512 and plain bodies cloned for avx2
   and default only.  The prepared sparse operator has an intrinsics
   loop for AVX-512 too, whose column-major SELL-8 layout turns the
   indexed x loads of 8 rows into one vpgatherdq, and the CSR loop
   elsewhere.  Each apply picks its loop once, by gfp_avx512.

   On a 2-core AVX-512 x86-64 host over GF(998244353) (EXPERIMENTS): at
   n = 512 (median of 21 rounds) an avx512f clone of a packed-row dense
   body ran 96–104 µs, the plain body's avx2 clone 76–81 µs and the
   intrinsics loop 40–42 µs; at n = 1000 the butterfly's avx512f clone
   took about 13.5 µs and its intrinsics loop about 7.5 µs, and a sparse
   apply at 8 entries per row about 12.7 µs by the CSR loop and 5–6.5 µs
   by SELL-8. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) \
    && defined(__GLIBC__)
#define KP_CLONES 1
#define KP_TARGET_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#define KP_TARGET_CLONES_256 \
  __attribute__((target_clones("avx2", "default")))
#include <immintrin.h>
#else
#define KP_CLONES 0
#define KP_TARGET_CLONES
#define KP_TARGET_CLONES_256
#endif

/* raw products that fit on top of a canonical residue without overflowing
   an int64 accumulator: (p-1) + block·(p-1)^2 <= INT64_MAX */
static inline int64_t gfp_block(int64_t p)
{
  int64_t cap = (p - 1) * (p - 1);
  int64_t b;
  if (cap < 1) cap = 1;
  b = (INT64_MAX - (p - 1)) / cap;
  return b < 1 ? 1 : b;
}

/* Barrett reduction of any x < 2^64 by p, with m = floor((2^64-1)/p):
   p·m >= 2^64 - p, so the estimated quotient is short of floor(x/p) by at
   most one, and a single conditional subtraction makes the residue exact */
static inline uint64_t gfp_barrett(uint64_t x, uint64_t p, uint64_t m)
{
#ifdef __SIZEOF_INT128__
  uint64_t q = (uint64_t)(((unsigned __int128)x * m) >> 64);
  uint64_t r = x - q * p;
  return r >= p ? r - p : r;
#else
  (void)m;
  return x % p;
#endif
}

/* the canonical residue of hi·2^32 + lo */
static inline uint64_t gfp_fold(uint64_t lo, uint64_t hi, uint64_t p,
                                uint64_t m)
{
  return gfp_barrett((gfp_barrett(hi, p, m) << 32) + gfp_barrett(lo, p, m),
                     p, m);
}

/* the residue held by a tagged canonical element (Long_val, unsigned) */
#define RES(w) ((uint64_t)((uintnat)(w) >> 1))

/* ------------------------------------------------------------------ */
/* GF(p)                                                              */
/* ------------------------------------------------------------------ */

/* Σ a[k]·b[k] mod p, each product split into its low 32 bits and its
   high bits, one reduction at the end */
static KP_TARGET_CLONES uint64_t gfp_dot_words(const value *a,
                                               const value *b, intnat n,
                                               uint64_t p, uint64_t m)
{
  uint64_t lo = 0, hi = 0;
  intnat k;
  for (k = 0; k < n; k++) {
    uint64_t t = RES(a[k]) * RES(b[k]);
    lo += (uint32_t)t;
    hi += t >> 32;
  }
  return gfp_fold(lo, hi, p, m);
}

CAMLprim value kp_gfp_dot(value va, value vb, value vn, value vp)
{
  uint64_t p = Long_val(vp);
  return Val_long((intnat)gfp_dot_words(Op_val(va), Op_val(vb),
                                        Long_val(vn), p, UINT64_MAX / p));
}

/* init + Σ x[xoff+k]·y[yoff+k]: the split sums of dot, folded once, then
   init added to the canonical residue */
CAMLprim value kp_gfp_dot_acc(value vinit, value vx, value vxoff, value vy,
                              value vyoff, value vlen, value vp)
{
  uint64_t p = Long_val(vp);
  uint64_t r = gfp_dot_words(Op_val(vx) + Long_val(vxoff),
                             Op_val(vy) + Long_val(vyoff), Long_val(vlen), p,
                             UINT64_MAX / p)
               + (uint64_t)Long_val(vinit);
  return Val_long((intnat)(r >= p ? r - p : r));
}

CAMLprim value kp_gfp_dot_acc_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gfp_dot_acc(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6]);
}

/* CSR rows [row_lo, row_hi) into dst[i]: each row's gathered products
   accumulate unreduced, one Barrett step per int64 block */
CAMLprim value kp_gfp_csr_matvec(value vrow_ptr, value vcols, value vvals,
                                 value vrow_lo, value vrow_hi, value vx,
                                 value vdst, value vp)
{
  intnat row_lo = Long_val(vrow_lo), row_hi = Long_val(vrow_hi);
  uint64_t p = Long_val(vp), m = UINT64_MAX / p;
  int64_t block = gfp_block(p);
  intnat i;
  for (i = row_lo; i < row_hi; i++) {
    intnat k = ELT(vrow_ptr, i), hi = ELT(vrow_ptr, i + 1);
    uint64_t acc = 0;
    while (k < hi) {
      intnat stop = ((int64_t)(hi - k) > block) ? k + (intnat)block : hi;
      uint64_t s = acc;
      intnat kk;
      for (kk = k; kk < stop; kk++)
        s += (uint64_t)ELT(vvals, kk) * (uint64_t)ELT(vx, ELT(vcols, kk));
      acc = gfp_barrett(s, p, m);
      k = stop;
    }
    SET(vdst, i, (intnat)acc);
  }
  return Val_unit;
}

CAMLprim value kp_gfp_csr_matvec_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gfp_csr_matvec(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5], argv[6], argv[7]);
}

/* Shoup's product by a fixed a < p < 2^30, with ap = floor(a·2^32/p):
   for x < 2^32, q = floor(ap·x/2^32) is floor(a·x/p) or one less, so
   a·x − q·p lies in [0, 2p) and its low 32 bits are exact — one
   conditional subtraction makes it canonical */
static inline uint32_t gfp_shoup(uint32_t a, uint32_t ap, uint32_t x,
                                 uint32_t p)
{
  uint32_t q = (uint32_t)(((uint64_t)ap * x) >> 32);
  uint32_t r = a * x - q * p;
  return r >= p ? r - p : r;
}

static inline uint32_t gfp_shoup_pre(uint32_t a, uint32_t p)
{
  return (uint32_t)(((uint64_t)a << 32) / p);
}

/* y[i] += a·x[i], forward: with y overlapping x, plain pointers keep the
   derived kernel's sequential semantics */
static KP_TARGET_CLONES void gfp_axpy_words(uint32_t a, const value *x,
                                            value *y, intnat len, uint32_t p)
{
  uint32_t ap = gfp_shoup_pre(a, p);
  intnat i;
  for (i = 0; i < len; i++) {
    uint32_t s = (uint32_t)RES(y[i]) + gfp_shoup(a, ap, (uint32_t)RES(x[i]), p);
    y[i] = Val_long((intnat)(s >= p ? s - p : s));
  }
}

CAMLprim value kp_gfp_axpy(value va, value vx, value vxoff, value vy,
                           value vyoff, value vlen, value vp)
{
  gfp_axpy_words((uint32_t)Long_val(va), Op_val(vx) + Long_val(vxoff),
                 Op_val(vy) + Long_val(vyoff), Long_val(vlen),
                 (uint32_t)Long_val(vp));
  return Val_unit;
}

CAMLprim value kp_gfp_axpy_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gfp_axpy(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                     argv[6]);
}

static KP_TARGET_CLONES void gfp_scale_words(uint32_t a, const value *x,
                                             value *dst, intnat len,
                                             uint32_t p)
{
  uint32_t ap = gfp_shoup_pre(a, p);
  intnat i;
  for (i = 0; i < len; i++)
    dst[i] = Val_long((intnat)gfp_shoup(a, ap, (uint32_t)RES(x[i]), p));
}

CAMLprim value kp_gfp_scale(value va, value vx, value vxoff, value vdst,
                            value vdoff, value vlen, value vp)
{
  gfp_scale_words((uint32_t)Long_val(va), Op_val(vx) + Long_val(vxoff),
                  Op_val(vdst) + Long_val(vdoff), Long_val(vlen),
                  (uint32_t)Long_val(vp));
  return Val_unit;
}

CAMLprim value kp_gfp_scale_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gfp_scale(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                      argv[6]);
}

CAMLprim value kp_gfp_add(value vx, value vxoff, value vy, value vyoff,
                          value vdst, value vdoff, value vlen, value vp)
{
  intnat xoff = Long_val(vxoff), yoff = Long_val(vyoff);
  intnat doff = Long_val(vdoff), len = Long_val(vlen);
  intnat p = Long_val(vp);
  intnat i;
  for (i = 0; i < len; i++) {
    intnat s = ELT(vx, xoff + i) + ELT(vy, yoff + i);
    SET(vdst, doff + i, s >= p ? s - p : s);
  }
  return Val_unit;
}

CAMLprim value kp_gfp_add_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gfp_add(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                    argv[6], argv[7]);
}

CAMLprim value kp_gfp_sub(value vx, value vxoff, value vy, value vyoff,
                          value vdst, value vdoff, value vlen, value vp)
{
  intnat xoff = Long_val(vxoff), yoff = Long_val(vyoff);
  intnat doff = Long_val(vdoff), len = Long_val(vlen);
  intnat p = Long_val(vp);
  intnat i;
  for (i = 0; i < len; i++) {
    intnat d = ELT(vx, xoff + i) - ELT(vy, yoff + i);
    SET(vdst, doff + i, d < 0 ? d + p : d);
  }
  return Val_unit;
}

CAMLprim value kp_gfp_sub_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gfp_sub(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                    argv[6], argv[7]);
}

CAMLprim value kp_gfp_pointwise(value vx, value vxoff, value vy, value vyoff,
                                value vdst, value vdoff, value vlen, value vp)
{
  intnat xoff = Long_val(vxoff), yoff = Long_val(vyoff);
  intnat doff = Long_val(vdoff), len = Long_val(vlen);
  uint64_t p = Long_val(vp), m = UINT64_MAX / p;
  intnat i;
  for (i = 0; i < len; i++) {
    uint64_t r = (uint64_t)ELT(vx, xoff + i) * (uint64_t)ELT(vy, yoff + i);
    SET(vdst, doff + i, (intnat)gfp_barrett(r, p, m));
  }
  return Val_unit;
}

CAMLprim value kp_gfp_pointwise_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gfp_pointwise(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6], argv[7]);
}

/* rows [row_lo, row_hi) of the cols-wide m times x into dst.  Four rows
   per pass share each x[k] load, each with its own pair of split sums;
   the last (row_hi - row_lo) mod 4 rows are dot products of their own. */
static KP_TARGET_CLONES void gfp_matvec_rows(const value *mat, intnat cols,
                                             intnat row_lo, intnat row_hi,
                                             const value *x, value *dst,
                                             uint64_t p, uint64_t m)
{
  intnat i = row_lo, k;
  for (; i + 4 <= row_hi; i += 4) {
    const value *r0 = mat + i * cols, *r1 = r0 + cols, *r2 = r1 + cols,
                *r3 = r2 + cols;
    uint64_t lo0 = 0, hi0 = 0, lo1 = 0, hi1 = 0, lo2 = 0, hi2 = 0, lo3 = 0,
             hi3 = 0;
    for (k = 0; k < cols; k++) {
      uint64_t xk = RES(x[k]);
      uint64_t t0 = RES(r0[k]) * xk, t1 = RES(r1[k]) * xk,
               t2 = RES(r2[k]) * xk, t3 = RES(r3[k]) * xk;
      lo0 += (uint32_t)t0; hi0 += t0 >> 32;
      lo1 += (uint32_t)t1; hi1 += t1 >> 32;
      lo2 += (uint32_t)t2; hi2 += t2 >> 32;
      lo3 += (uint32_t)t3; hi3 += t3 >> 32;
    }
    dst[i] = Val_long((intnat)gfp_fold(lo0, hi0, p, m));
    dst[i + 1] = Val_long((intnat)gfp_fold(lo1, hi1, p, m));
    dst[i + 2] = Val_long((intnat)gfp_fold(lo2, hi2, p, m));
    dst[i + 3] = Val_long((intnat)gfp_fold(lo3, hi3, p, m));
  }
  for (; i < row_hi; i++)
    dst[i] = Val_long((intnat)gfp_dot_words(mat + i * cols, x, cols, p, m));
}

CAMLprim value kp_gfp_matvec(value vm, value vcols, value vrow_lo,
                             value vrow_hi, value vx, value vdst, value vp)
{
  uint64_t p = Long_val(vp);
  gfp_matvec_rows(Op_val(vm), Long_val(vcols), Long_val(vrow_lo),
                  Long_val(vrow_hi), Op_val(vx), Op_val(vdst), p,
                  UINT64_MAX / p);
  return Val_unit;
}

CAMLprim value kp_gfp_matvec_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gfp_matvec(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6]);
}

/* i,k,j product with the output row accumulated unreduced in the int64
   Bigarray scratch [vacc] (>= bcols entries): one load/store of dst per
   row instead of per multiply-add, one Barrett sweep per k-block */
CAMLprim value kp_gfp_matmul(value va, value vb, value vdst, value vinner,
                             value vbcols, value vrow_lo, value vrow_hi,
                             value vp, value vacc)
{
  intnat inner = Long_val(vinner), bcols = Long_val(vbcols);
  intnat row_lo = Long_val(vrow_lo), row_hi = Long_val(vrow_hi);
  uint64_t p = Long_val(vp), m = UINT64_MAX / p;
  int64_t block = gfp_block(p);
  uint64_t *acc = (uint64_t *)Caml_ba_data_val(vacc);
  intnat i;
  for (i = row_lo; i < row_hi; i++) {
    intnat arow = i * inner, orow = i * bcols;
    intnat j, k = 0;
    for (j = 0; j < bcols; j++)
      acc[j] = ELT(vdst, orow + j);
    while (k < inner) {
      intnat stop = ((int64_t)(inner - k) > block) ? k + (intnat)block : inner;
      intnat kk;
      for (kk = k; kk < stop; kk++) {
        uint64_t aik = ELT(va, arow + kk);
        /* adding a zero row then reducing leaves the residues unchanged,
           so skipping is value-preserving */
        if (aik != 0) {
          intnat brow = kk * bcols;
          for (j = 0; j < bcols; j++)
            acc[j] += aik * (uint64_t)ELT(vb, brow + j);
        }
      }
      for (j = 0; j < bcols; j++)
        acc[j] = gfp_barrett(acc[j], p, m);
      k = stop;
    }
    for (j = 0; j < bcols; j++)
      SET(vdst, orow + j, (intnat)acc[j]);
  }
  return Val_unit;
}

CAMLprim value kp_gfp_matmul_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gfp_matmul(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6], argv[7], argv[8]);
}

/* ------------------------------------------------------------------ */
/* GF(p) prepared dense operators                                     */
/* ------------------------------------------------------------------ */

/* A prepared dense operator is one OCaml bytes of uint32 words:
     rows, cols, then the rows·cols residues, row-major.
   Its products are the split sums of gfp_matvec_rows: a residue is below
   p < 2^30, so an entry times an x residue is below 2^60, and the sum of
   two products is below 2^61. */

#define DN_HEAD 2

CAMLprim value kp_gfp_dense_prepare(value vrows, value vcols, value vm)
{
  CAMLparam3(vrows, vcols, vm);
  CAMLlocal1(vop);
  intnat rows = Long_val(vrows), cols = Long_val(vcols), k;
  const value *m;
  uint32_t *w;
  vop = caml_alloc_string((DN_HEAD + rows * cols) * sizeof(uint32_t));
  w = (uint32_t *)Bytes_val(vop);
  m = Op_val(vm);
  w[0] = (uint32_t)rows;
  w[1] = (uint32_t)cols;
  for (k = 0; k < rows * cols; k++)
    w[DN_HEAD + k] = (uint32_t)RES(m[k]);
  CAMLreturn(vop);
}

/* The low 32-bit half of a tagged word 2r+1 is 2r+1 itself (r < 2^30),
   so x[k]'s residue is that half shifted once, read as entry
   2k + DN_LO of x viewed as uint32 words. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define DN_LO 1
#else
#define DN_LO 0
#endif

/* rows [row_lo, row_hi) of the packed cols-wide a times x into dst:
   four rows per pass share each x[k] load, each with its own pair of
   split sums.  Both factors are loaded as 32-bit words, so the avx2
   clone multiplies four products per vpmuludq; with x[k] loaded as a
   64-bit word and truncated, GCC 12 emulated a 64-bit product (three
   vpmuludq per 4) and the avx2 clone ran 127–138 µs at n = 512, against
   76–81 µs this way. */
static KP_TARGET_CLONES_256 void gfp_dense_rows(const uint32_t *a,
                                                intnat cols, intnat row_lo,
                                                intnat row_hi,
                                                const value *x, value *dst,
                                                uint64_t p, uint64_t m)
{
  const uint32_t *xh = (const uint32_t *)x + DN_LO;
  intnat i = row_lo, k;
  for (; i + 4 <= row_hi; i += 4) {
    const uint32_t *r0 = a + i * cols, *r1 = r0 + cols, *r2 = r1 + cols,
                   *r3 = r2 + cols;
    uint64_t lo0 = 0, hi0 = 0, lo1 = 0, hi1 = 0, lo2 = 0, hi2 = 0, lo3 = 0,
             hi3 = 0;
    for (k = 0; k < cols; k++) {
      uint32_t xk = xh[2 * k] >> 1;
      uint64_t t0 = (uint64_t)r0[k] * xk, t1 = (uint64_t)r1[k] * xk,
               t2 = (uint64_t)r2[k] * xk, t3 = (uint64_t)r3[k] * xk;
      lo0 += (uint32_t)t0; hi0 += t0 >> 32;
      lo1 += (uint32_t)t1; hi1 += t1 >> 32;
      lo2 += (uint32_t)t2; hi2 += t2 >> 32;
      lo3 += (uint32_t)t3; hi3 += t3 >> 32;
    }
    dst[i] = Val_long((intnat)gfp_fold(lo0, hi0, p, m));
    dst[i + 1] = Val_long((intnat)gfp_fold(lo1, hi1, p, m));
    dst[i + 2] = Val_long((intnat)gfp_fold(lo2, hi2, p, m));
    dst[i + 3] = Val_long((intnat)gfp_fold(lo3, hi3, p, m));
  }
  for (; i < row_hi; i++) {
    const uint32_t *r = a + i * cols;
    uint64_t lo = 0, hi = 0;
    for (k = 0; k < cols; k++) {
      uint64_t t = (uint64_t)r[k] * (xh[2 * k] >> 1);
      lo += (uint32_t)t; hi += t >> 32;
    }
    dst[i] = Val_long((intnat)gfp_fold(lo, hi, p, m));
  }
}

#if KP_CLONES
/* the same sums with one vpmuludq per 8 products.  Four rows per pass
   share each 16-column block of x, read as tagged words and untagged by
   one shift; each row's 16 entries are two zero-extending 8-lane loads,
   and its two products per lane, below 2^61 together, split into a low
   32-bit lane sum and a high one (no overflow below 2^31 columns).  The
   last cols mod 16 columns add into the folded lane sums one by one,
   and the last rows mod 4 rows run the plain body. */
__attribute__((target("avx512f"))) static void
gfp_dense_rows_avx512(const uint32_t *a, intnat cols, intnat rows,
                      const value *x, value *dst, uint64_t p, uint64_t m)
{
  const __m512i low = _mm512_set1_epi64(0xffffffff);
  intnat wide = cols - cols % 16, i, k, r;
  for (i = 0; i + 4 <= rows; i += 4) {
    const uint32_t *row = a + i * cols;
    __m512i lo[4], hi[4];
    for (r = 0; r < 4; r++)
      lo[r] = hi[r] = _mm512_setzero_si512();
    for (k = 0; k < wide; k += 16) {
      __m512i x0 = _mm512_srli_epi64(_mm512_loadu_si512(x + k), 1);
      __m512i x1 = _mm512_srli_epi64(_mm512_loadu_si512(x + k + 8), 1);
      for (r = 0; r < 4; r++) {
        const uint32_t *e = row + r * cols + k;
        __m512i e0 = _mm512_cvtepu32_epi64(
                    _mm256_loadu_si256((const __m256i *)e)),
                e1 = _mm512_cvtepu32_epi64(
                    _mm256_loadu_si256((const __m256i *)(e + 8)));
        __m512i t = _mm512_add_epi64(_mm512_mul_epu32(e0, x0),
                                     _mm512_mul_epu32(e1, x1));
        lo[r] = _mm512_add_epi64(lo[r], _mm512_and_si512(t, low));
        hi[r] = _mm512_add_epi64(hi[r], _mm512_srli_epi64(t, 32));
      }
    }
    for (r = 0; r < 4; r++) {
      const uint32_t *e = row + r * cols;
      uint64_t l = (uint64_t)_mm512_reduce_add_epi64(lo[r]),
               h = (uint64_t)_mm512_reduce_add_epi64(hi[r]);
      for (k = wide; k < cols; k++) {
        uint64_t t = e[k] * (uint64_t)(uint32_t)RES(x[k]);
        l += (uint32_t)t; h += t >> 32;
      }
      dst[i + r] = Val_long((intnat)gfp_fold(l, h, p, m));
    }
  }
  gfp_dense_rows(a, cols, i, rows, x, dst, p, m);
}
#endif

/* whether the CPU runs AVX-512F: the first check of kp_gfp_isa, and of
   the loader's clone resolver */
static int gfp_avx512(void)
{
#if KP_CLONES
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
#else
  return 0;
#endif
}

/* dst <- A·src for the prepared A by the plain body, whatever the CPU:
   tests run it on AVX-512 hosts too */
CAMLprim value kp_gfp_dense_apply_plain(value vop, value vsrc, value vdst,
                                        value vp)
{
  const uint32_t *w = (const uint32_t *)Bytes_val(vop);
  uint64_t p = Long_val(vp);
  gfp_dense_rows(w + DN_HEAD, w[1], 0, w[0], Op_val(vsrc), Op_val(vdst), p,
                 UINT64_MAX / p);
  return Val_unit;
}

/* dst <- A·src: the AVX-512 loop where the CPU has it, the plain body's
   clone elsewhere */
CAMLprim value kp_gfp_dense_apply(value vop, value vsrc, value vdst,
                                  value vp)
{
#if KP_CLONES
  if (gfp_avx512()) {
    const uint32_t *w = (const uint32_t *)Bytes_val(vop);
    uint64_t p = Long_val(vp);
    gfp_dense_rows_avx512(w + DN_HEAD, w[1], w[0], Op_val(vsrc),
                          Op_val(vdst), p, UINT64_MAX / p);
    return Val_unit;
  }
#endif
  return kp_gfp_dense_apply_plain(vop, vsrc, vdst, vp);
}

/* ------------------------------------------------------------------ */
/* GF(p) butterfly networks                                           */
/* ------------------------------------------------------------------ */

/* A prepared network is one OCaml bytes of uint32 words:
     n, m, p, the m layer strides,
     d[n], d'[n],
     then per layer, with P = its pair count (Kernel_intf.butterfly_pairs):
     a[P], a'[P], b[P], b'[P], c[P], c'[P], dd[P], dd'[P],
   where x' = floor(x·2^32/p) is x's Shoup quotient.  The layers arrive
   as Kernel_intf.butterfly_layer records: fields stride, a, b, c, dd. */

#define BF_HEAD 3

/* Shoup's quotient floor(a·2^32/p) of a < p by the Barrett estimate of
   gfp_barrett (m = floor((2^64-1)/p)) and its one correction: a prepare
   computes m once and divides no further (axpy and scale, with one
   quotient per call, divide once instead) */
static inline uint32_t gfp_shoup_quot(uint32_t a, uint64_t p, uint64_t m)
{
  uint64_t x = (uint64_t)a << 32;
#ifdef __SIZEOF_INT128__
  uint64_t q = (uint64_t)(((unsigned __int128)x * m) >> 64);
  return (uint32_t)(x - q * p >= p ? q + 1 : q);
#else
  (void)m;
  return (uint32_t)(x / p);
#endif
}

CAMLprim value kp_gfp_shoup_quotient(value va, value vp)
{
  uint64_t p = Long_val(vp);
  return Val_long((intnat)gfp_shoup_quot((uint32_t)Long_val(va), p,
                                         UINT64_MAX / p));
}

static intnat bf_pairs(intnat n, intnat s)
{
  intnat full = n / (2 * s), rest = n % (2 * s);
  return full * s + (rest > s ? rest - s : 0);
}

/* the first len entries of the int array v, then their quotients */
static uint32_t *bf_put(uint32_t *out, value v, intnat len, uint64_t p,
                        uint64_t m)
{
  intnat i;
  for (i = 0; i < len; i++) {
    out[i] = (uint32_t)ELT(v, i);
    out[len + i] = gfp_shoup_quot(out[i], p, m);
  }
  return out + 2 * len;
}

CAMLprim value kp_gfp_butterfly_prepare(value vd, value vlayers, value vp)
{
  CAMLparam3(vd, vlayers, vp);
  CAMLlocal1(vnet);
  intnat n = Wosize_val(vd), nl = Wosize_val(vlayers);
  intnat words = BF_HEAD + nl + 2 * n, l, f;
  uint64_t p = Long_val(vp), m = UINT64_MAX / p;
  uint32_t *w;
  for (l = 0; l < nl; l++)
    words += 8 * bf_pairs(n, ELT(Field(vlayers, l), 0));
  vnet = caml_alloc_string(words * sizeof(uint32_t));
  w = (uint32_t *)Bytes_val(vnet);
  w[0] = (uint32_t)n;
  w[1] = (uint32_t)nl;
  w[2] = (uint32_t)p;
  for (l = 0; l < nl; l++)
    w[BF_HEAD + l] = (uint32_t)ELT(Field(vlayers, l), 0);
  w = bf_put(w + BF_HEAD + nl, vd, n, p, m);
  for (l = 0; l < nl; l++) {
    value layer = Field(vlayers, l);
    intnat pairs = bf_pairs(n, ELT(layer, 0));
    for (f = 1; f <= 4; f++)
      w = bf_put(w, Field(layer, f), pairs, p, m);
  }
  CAMLreturn(vnet);
}

/* x·u + y·v mod p for prepared x, y < p (quotients xq, yq) and canonical
   u, v: each Shoup term x·u − floor(xq·u/2^32)·p lies in [0, 2p), so the
   sum lies in [0, 4p) ⊂ [0, 2^32) (p < 2^30) and is exact mod 2^32; two
   conditional subtractions leave the canonical residue */
static inline uint32_t gfp_shoup2(uint32_t x, uint32_t xq, uint32_t u,
                                  uint32_t y, uint32_t yq, uint32_t v,
                                  uint32_t p)
{
  uint32_t q = (uint32_t)(((uint64_t)xq * u) >> 32)
               + (uint32_t)(((uint64_t)yq * v) >> 32);
  uint32_t r = x * u + y * v - q * p;
  r = r >= 2 * p ? r - 2 * p : r;
  return r >= p ? r - p : r;
}

/* the eight coefficient streams of a layer, from a pair index on */
#define BF_PARAMS                                                     \
  const uint32_t *restrict a, const uint32_t *restrict aq,            \
      const uint32_t *restrict b, const uint32_t *restrict bq,        \
      const uint32_t *restrict c, const uint32_t *restrict cq,        \
      const uint32_t *restrict dd, const uint32_t *restrict ddq, uint32_t p
#define BF_ARGS(k)                                                    \
  a + (k), aq + (k), b + (k), bq + (k), c + (k), cq + (k), dd + (k),  \
      ddq + (k), p

/* pairs (lo[j], hi[j]), j < len: one block's two halves */
static inline void bf_run(value *restrict lo, value *restrict hi, intnat len,
                          BF_PARAMS)
{
  intnat j;
  for (j = 0; j < len; j++) {
    uint32_t u = (uint32_t)RES(lo[j]), v = (uint32_t)RES(hi[j]);
    lo[j] = Val_long((intnat)gfp_shoup2(a[j], aq[j], u, b[j], bq[j], v, p));
    hi[j] = Val_long((intnat)gfp_shoup2(c[j], cq[j], u, dd[j], ddq[j], v, p));
  }
}

/* the blocks from number blk on at any stride s, the ragged last block
   with only the pairs that have a partner below n */
static KP_TARGET_CLONES_256 void bf_layer_any(value *w, intnat n, intnat s,
                                              intnat blk, BF_PARAMS)
{
  intnat base;
  for (base = 2 * s * blk; base < n - s; base += 2 * s)
    bf_run(w + base, w + base + s, n - s - base < s ? n - s - base : s,
           BF_ARGS(base / 2));
}

/* the first nblk whole blocks at a stride fixed at compile time: the
   block loop vectorizes across blocks where a run of S pairs is too
   short to fill a vector */
#define BF_FIXED(S)                                                   \
  static KP_TARGET_CLONES_256 void bf_layer_##S(value *w, intnat nblk, \
                                                BF_PARAMS)            \
  {                                                                   \
    intnat blk;                                                       \
    for (blk = 0; blk < nblk; blk++)                                  \
      bf_run(w + 2 * S * blk, w + 2 * S * blk + S, S,                 \
             BF_ARGS(S * blk));                                       \
  }
BF_FIXED(1)
BF_FIXED(2)
BF_FIXED(4)
BF_FIXED(8)

/* w <- d∘w */
static KP_TARGET_CLONES_256 void bf_scale(value *w, intnat n,
                                          const uint32_t *restrict d,
                                          const uint32_t *restrict dq,
                                          uint32_t p)
{
  intnat i;
  for (i = 0; i < n; i++)
    w[i] = Val_long((intnat)gfp_shoup(d[i], dq[i], (uint32_t)RES(w[i]), p));
}

#if KP_CLONES
/* The butterfly with one vpmuludq per 8 Shoup products.  Each 64-bit
   lane holds one pair: its tagged words shifted once are u, v < 2^30,
   and its coefficients are zero-extended from their uint32 streams.  A
   Shoup term x·u − ⌊xq·u/2^32⌋·p lies in [0, 2p) as an integer, so the
   lane sum of two lies in [0, 4p) without wrapping, and two unsigned
   minima against r − 2p and r − p leave the canonical residue, the
   value gfp_shoup2 computes.  (Deferring those minima to one pass at
   the end of the apply measured no faster.) */
#define BF_LD(ptr) \
  _mm512_cvtepu32_epi64(_mm256_loadu_si256((const __m256i *)(ptr)))

/* x·u + y·v mod p, tagged */
__attribute__((target("avx512f"))) static inline __m512i
bf_shoup2_avx512(const uint32_t *x, const uint32_t *xq, __m512i u,
                 const uint32_t *y, const uint32_t *yq, __m512i v, __m512i p)
{
  __m512i q = _mm512_add_epi64(
      _mm512_srli_epi64(_mm512_mul_epu32(BF_LD(xq), u), 32),
      _mm512_srli_epi64(_mm512_mul_epu32(BF_LD(yq), v), 32));
  __m512i r = _mm512_sub_epi64(
      _mm512_add_epi64(_mm512_mul_epu32(BF_LD(x), u),
                       _mm512_mul_epu32(BF_LD(y), v)),
      _mm512_mul_epu32(q, p));
  r = _mm512_min_epu64(r, _mm512_sub_epi64(r, _mm512_add_epi64(p, p)));
  r = _mm512_min_epu64(r, _mm512_sub_epi64(r, p));
  return _mm512_or_si512(_mm512_add_epi64(r, r), _mm512_set1_epi64(1));
}

/* 8 pairs at once: lo and hi hold their tagged ends, coefficients from
   pair index k on */
__attribute__((target("avx512f"))) static inline void
bf_pairs_avx512(__m512i *lo, __m512i *hi, intnat k, BF_PARAMS)
{
  __m512i vp = _mm512_set1_epi64(p);
  __m512i u = _mm512_srli_epi64(*lo, 1), v = _mm512_srli_epi64(*hi, 1);
  *lo = bf_shoup2_avx512(a + k, aq + k, u, b + k, bq + k, v, vp);
  *hi = bf_shoup2_avx512(c + k, cq + k, u, dd + k, ddq + k, v, vp);
}

/* the pairs (lo[j], hi[j]), j < len, 8 at a time; the last len mod 8
   by bf_run */
__attribute__((target("avx512f"))) static void
bf_run_avx512(value *restrict lo, value *restrict hi, intnat len, BF_PARAMS)
{
  intnat j;
  for (j = 0; j + 8 <= len; j += 8) {
    __m512i l = _mm512_loadu_si512(lo + j), h = _mm512_loadu_si512(hi + j);
    bf_pairs_avx512(&l, &h, j, a, aq, b, bq, c, cq, dd, ddq, p);
    _mm512_storeu_si512(lo + j, l);
    _mm512_storeu_si512(hi + j, h);
  }
  bf_run(lo + j, hi + j, len - j, BF_ARGS(j));
}

/* one layer of stride s.  At s = 1, 2 and 4 the 16 words from a
   multiple of 16 on are whole blocks holding 8 pairs, in pair order:
   two vpermt2q gather their lo and hi ends, two more put the results
   back.  Every other stride, and the blocks past the last 16-word chunk
   at s ≤ 4, run over each block's two contiguous halves. */
__attribute__((target("avx512f"))) static void
bf_layer_avx512(value *w, intnat n, intnat s, BF_PARAMS)
{
  intnat base = 0;
  if (s == 1 || s == 2 || s == 4) {
    int64_t ilo[8], ihi[8], out[16];
    intnat j, e;
    for (j = 0; j < 8; j++) {
      ilo[j] = (j / s) * 2 * s + j % s;
      ihi[j] = ilo[j] + s;
    }
    /* word e of the chunk is lo (index j) or hi (index 8 + j) of pair j */
    for (e = 0; e < 16; e++)
      out[e] = e % (2 * s) < s ? (e / (2 * s)) * s + e % (2 * s)
                               : 8 + (e / (2 * s)) * s + e % (2 * s) - s;
    {
      __m512i gl = _mm512_loadu_si512(ilo), gh = _mm512_loadu_si512(ihi),
              p0 = _mm512_loadu_si512(out), p1 = _mm512_loadu_si512(out + 8);
      for (; base + 16 <= n; base += 16) {
        __m512i x0 = _mm512_loadu_si512(w + base),
                x1 = _mm512_loadu_si512(w + base + 8);
        __m512i l = _mm512_permutex2var_epi64(x0, gl, x1),
                h = _mm512_permutex2var_epi64(x0, gh, x1);
        bf_pairs_avx512(&l, &h, base / 2, a, aq, b, bq, c, cq, dd, ddq, p);
        _mm512_storeu_si512(w + base, _mm512_permutex2var_epi64(l, p0, h));
        _mm512_storeu_si512(w + base + 8, _mm512_permutex2var_epi64(l, p1, h));
      }
    }
  }
  for (; base < n - s; base += 2 * s)
    bf_run_avx512(w + base, w + base + s,
                  n - s - base < s ? n - s - base : s, BF_ARGS(base / 2));
}

/* w <- d∘w, 8 Shoup products per vpmuludq; the last n mod 8 by bf_scale */
__attribute__((target("avx512f"))) static void
bf_scale_avx512(value *w, intnat n, const uint32_t *restrict d,
                const uint32_t *restrict dq, uint32_t p)
{
  __m512i vp = _mm512_set1_epi64(p);
  intnat i;
  for (i = 0; i + 8 <= n; i += 8) {
    __m512i u = _mm512_srli_epi64(_mm512_loadu_si512(w + i), 1);
    __m512i q = _mm512_srli_epi64(_mm512_mul_epu32(BF_LD(dq + i), u), 32);
    __m512i r = _mm512_sub_epi64(_mm512_mul_epu32(BF_LD(d + i), u),
                                 _mm512_mul_epu32(q, vp));
    r = _mm512_min_epu64(r, _mm512_sub_epi64(r, vp));
    _mm512_storeu_si512(w + i, _mm512_or_si512(_mm512_add_epi64(r, r),
                                               _mm512_set1_epi64(1)));
  }
  bf_scale(w + i, n - i, d + i, dq + i, p);
}
#endif

/* one layer in place on w from its prepared words co, by the AVX-512
   loop when wide, else the plain body's clones; the transposed layer
   swaps the off-diagonal streams */
static void bf_layer(value *w, intnat n, intnat s, const uint32_t *co,
                     int trans, int wide, uint32_t p)
{
  intnat pairs = bf_pairs(n, s), whole = n / (2 * s), done = whole;
  const uint32_t *a = co, *aq = co + pairs, *b = co + 2 * pairs,
                 *bq = co + 3 * pairs, *c = co + 4 * pairs,
                 *cq = co + 5 * pairs, *dd = co + 6 * pairs,
                 *ddq = co + 7 * pairs;
  if (trans) {
    const uint32_t *t = b, *tq = bq;
    b = c, bq = cq, c = t, cq = tq;
  }
#if KP_CLONES
  if (wide) {
    bf_layer_avx512(w, n, s, BF_ARGS(0));
    return;
  }
#else
  (void)wide;
#endif
  switch (s) {
  case 1: bf_layer_1(w, whole, BF_ARGS(0)); break;
  case 2: bf_layer_2(w, whole, BF_ARGS(0)); break;
  case 4: bf_layer_4(w, whole, BF_ARGS(0)); break;
  case 8: bf_layer_8(w, whole, BF_ARGS(0)); break;
  default: done = 0;
  }
  bf_layer_any(w, n, s, done, BF_ARGS(0));
}

static void bf_diag(value *w, intnat n, const uint32_t *d, int wide,
                    uint32_t p)
{
#if KP_CLONES
  if (wide) {
    bf_scale_avx512(w, n, d, d + n, p);
    return;
  }
#else
  (void)wide;
#endif
  bf_scale(w, n, d, d + n, p);
}

/* forward: dst <- d∘src, then layers 1..m; transposed: dst <- src, then
   layers m..1 transposed, then dst <- d∘dst.  wide picks the AVX-512
   loops for the whole apply. */
static void bf_apply(value vnet, int trans, value vsrc, value vdst, int wide)
{
  const uint32_t *net = (const uint32_t *)Bytes_val(vnet);
  const uint32_t *end = net + caml_string_length(vnet) / sizeof(uint32_t);
  intnat n = net[0], nl = net[1], l;
  uint32_t p = net[2];
  const uint32_t *strides = net + BF_HEAD, *d = strides + nl, *co = d + 2 * n;
  value *w = Op_val(vdst);
  memcpy(w, Op_val(vsrc), n * sizeof(value));
  if (trans) {
    for (l = nl - 1; l >= 0; l--) {
      end -= 8 * bf_pairs(n, strides[l]);
      bf_layer(w, n, strides[l], end, 1, wide, p);
    }
    bf_diag(w, n, d, wide, p);
  }
  else {
    bf_diag(w, n, d, wide, p);
    for (l = 0; l < nl; l++) {
      bf_layer(w, n, strides[l], co, 0, wide, p);
      co += 8 * bf_pairs(n, strides[l]);
    }
  }
}

/* P·src or Pᵀ·src: the AVX-512 loops where the CPU has them, the plain
   body's clones elsewhere */
CAMLprim value kp_gfp_butterfly_apply(value vnet, value vtrans, value vsrc,
                                      value vdst)
{
  bf_apply(vnet, Bool_val(vtrans), vsrc, vdst, gfp_avx512());
  return Val_unit;
}

/* the same by the plain body whatever the CPU: tests run it on AVX-512
   hosts too */
CAMLprim value kp_gfp_butterfly_apply_plain(value vnet, value vtrans,
                                            value vsrc, value vdst)
{
  bf_apply(vnet, Bool_val(vtrans), vsrc, vdst, 0);
  return Val_unit;
}

/* ------------------------------------------------------------------ */
/* GF(p) prepared sparse operators                                    */
/* ------------------------------------------------------------------ */

/* On an AVX-512 host a CSR matrix is prepared once as SELL-8, one OCaml
   bytes of uint32 words:
     rows, slices, perm[rows], width[slices],
     then per slice, per column c < its width: 8 column indices, then
     8 values,
   where perm lists the rows by length, longest first (a stable counting
   sort), slice k holds the rows perm[8k … 8k+7], and its width is the
   length of its first row.  A lane past its row's length, or past the
   last row, holds column 0 and value 0, which adds a zero product.  Other
   hosts keep the CSR arrays and run kp_gfp_csr_matvec: a scalar SELL
   body measured slower than that loop. */

#define SL_HEAD 2

/* the length of CSR row i */
#define SL_LEN(vrow_ptr, i) (ELT(vrow_ptr, (i) + 1) - ELT(vrow_ptr, (i)))

CAMLprim value kp_gfp_sell_prepare(value vrow_ptr, value vcols, value vvals)
{
  CAMLparam3(vrow_ptr, vcols, vvals);
  CAMLlocal1(vop);
  intnat rows = Wosize_val(vrow_ptr) - 1, ns = (rows + 7) / 8;
  intnat maxlen = 0, cells = 0, i, k, l, c, j;
  intnat *slot;
  uint32_t *w, *perm, *width, *e;
  for (i = 0; i < rows; i++)
    if (SL_LEN(vrow_ptr, i) > maxlen) maxlen = SL_LEN(vrow_ptr, i);
  /* slot[len]: the next position of a row of that length, longest first;
     a slice starts at each position 8k and is as wide as its row there */
  slot = caml_stat_alloc((maxlen + 1) * sizeof(intnat));
  memset(slot, 0, (maxlen + 1) * sizeof(intnat));
  for (i = 0; i < rows; i++)
    slot[SL_LEN(vrow_ptr, i)]++;
  for (l = maxlen, k = 0; l >= 0; l--) {
    intnat count = slot[l];
    slot[l] = k;
    cells += l * ((k + count + 7) / 8 - (k + 7) / 8);
    k += count;
  }
  vop = caml_alloc_string((SL_HEAD + rows + ns + 16 * cells)
                          * sizeof(uint32_t));
  w = (uint32_t *)Bytes_val(vop);
  perm = w + SL_HEAD;
  width = perm + rows;
  e = width + ns;
  w[0] = (uint32_t)rows;
  w[1] = (uint32_t)ns;
  for (i = 0; i < rows; i++)
    perm[slot[SL_LEN(vrow_ptr, i)]++] = (uint32_t)i;
  caml_stat_free(slot);
  for (k = 0; k < ns; k++) {
    width[k] = (uint32_t)SL_LEN(vrow_ptr, perm[8 * k]);
    for (c = 0; c < (intnat)width[k]; c++, e += 16)
      for (j = 0; j < 8; j++) {
        intnat r = 8 * k + j;
        if (r < rows && c < SL_LEN(vrow_ptr, perm[r])) {
          intnat at = ELT(vrow_ptr, perm[r]) + c;
          e[j] = (uint32_t)ELT(vcols, at);
          e[8 + j] = (uint32_t)ELT(vvals, at);
        }
        else
          e[j] = e[8 + j] = 0;
      }
  }
  CAMLreturn(vop);
}

#if KP_CLONES
/* dst <- A·x for a SELL-8 operator: per slice column one vpgatherdq of
   8 tagged x words (its signed 32-bit offsets reach 2^31 words),
   shifted once to their residues, and one vpmuludq against the 8
   values.  A product is below (p−1)^2 < 2^60, so a slice no wider than
   fit = ⌊(2^64−1)/(p−1)^2⌋ (at least 16) sums its lanes exactly in 64
   bits and each row takes one Barrett step; a wider slice splits each
   product into a low 32-bit lane sum and a high one (no overflow below
   2^32 columns) and folds each row once. */
__attribute__((target("avx512f"))) static void
gfp_sell_rows_avx512(const uint32_t *w, const value *x, value *dst,
                     uint64_t p, uint64_t m)
{
  const __m512i low = _mm512_set1_epi64(0xffffffff);
  intnat rows = w[0], ns = w[1], k, c, j;
  const uint32_t *perm = w + SL_HEAD, *width = perm + rows,
                 *e = width + ns;
  uint64_t fit = p > 1 ? UINT64_MAX / ((p - 1) * (p - 1)) : UINT64_MAX;
  for (k = 0; k < ns; k++) {
    __m512i lo = _mm512_setzero_si512(), hi = _mm512_setzero_si512();
    intnat lanes = rows - 8 * k < 8 ? rows - 8 * k : 8;
    int exact = width[k] <= fit;
    uint64_t l[8], h[8];
    for (c = 0; c < (intnat)width[k]; c++, e += 16) {
      __m512i xv = _mm512_srli_epi64(
          _mm512_i32gather_epi64(_mm256_loadu_si256((const __m256i *)e),
                                 (const void *)x, 8),
          1);
      __m512i t = _mm512_mul_epu32(BF_LD(e + 8), xv);
      if (exact)
        lo = _mm512_add_epi64(lo, t);
      else {
        lo = _mm512_add_epi64(lo, _mm512_and_si512(t, low));
        hi = _mm512_add_epi64(hi, _mm512_srli_epi64(t, 32));
      }
    }
    _mm512_storeu_si512(l, lo);
    _mm512_storeu_si512(h, hi);
    for (j = 0; j < lanes; j++)
      dst[perm[8 * k + j]] =
          Val_long((intnat)(exact ? gfp_barrett(l[j], p, m)
                                  : gfp_fold(l[j], h[j], p, m)));
  }
}
#endif

/* dst <- A·src for a SELL-8 operator, which only an AVX-512 host
   prepares (Gfp_cstub keeps the CSR arrays elsewhere) */
CAMLprim value kp_gfp_sell_apply(value vop, value vsrc, value vdst, value vp)
{
#if KP_CLONES
  uint64_t p = Long_val(vp);
  gfp_sell_rows_avx512((const uint32_t *)Bytes_val(vop), Op_val(vsrc),
                       Op_val(vdst), p, UINT64_MAX / p);
#else
  (void)vop, (void)vsrc, (void)vdst, (void)vp;
#endif
  return Val_unit;
}

/* the instruction set the GF(p) loops run on.  The loader resolved the
   clones of gfp_dot_words, gfp_matvec_rows, gfp_axpy_words and
   gfp_scale_words to it; on "avx512f" the prepared dense apply
   (gfp_dense_rows_avx512), the butterfly network (bf_layer_avx512,
   bf_scale_avx512) and the prepared sparse operator (SELL-8,
   gfp_sell_rows_avx512) run their intrinsics loops, and on "avx2" and
   "default" the plain bodies' clones of the first two and the CSR loop
   kp_gfp_csr_matvec.  The same feature checks, in the resolver's order. */
CAMLprim value kp_gfp_isa(value unit)
{
  (void)unit;
#if KP_CLONES
  if (gfp_avx512()) return caml_copy_string("avx512f");
  if (__builtin_cpu_supports("avx2")) return caml_copy_string("avx2");
#endif
  return caml_copy_string("default");
}

/* ------------------------------------------------------------------ */
/* GF(2)                                                              */
/* ------------------------------------------------------------------ */

CAMLprim value kp_gf2_dot(value va, value vb, value vn)
{
  intnat n = Long_val(vn);
  uintnat acc = 0;
  intnat k;
  for (k = 0; k < n; k++)
    acc ^= (uintnat)(Field(va, k) & Field(vb, k)) >> 1;
  return Val_long((intnat)(acc & 1));
}

/* init XOR the parity of the ANDs */
CAMLprim value kp_gf2_dot_acc(value vinit, value vx, value vxoff, value vy,
                              value vyoff, value vlen)
{
  const value *x = Op_val(vx) + Long_val(vxoff);
  const value *y = Op_val(vy) + Long_val(vyoff);
  intnat n = Long_val(vlen), k;
  uintnat acc = 0;
  for (k = 0; k < n; k++)
    acc ^= (uintnat)(x[k] & y[k]) >> 1;
  return Val_long((intnat)((Long_val(vinit) ^ acc) & 1));
}

CAMLprim value kp_gf2_dot_acc_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gf2_dot_acc(argv[0], argv[1], argv[2], argv[3], argv[4],
                        argv[5]);
}

CAMLprim value kp_gf2_csr_matvec(value vrow_ptr, value vcols, value vvals,
                                 value vrow_lo, value vrow_hi, value vx,
                                 value vdst)
{
  intnat row_lo = Long_val(vrow_lo), row_hi = Long_val(vrow_hi);
  intnat i;
  for (i = row_lo; i < row_hi; i++) {
    uintnat acc = 0;
    intnat k;
    for (k = ELT(vrow_ptr, i); k < ELT(vrow_ptr, i + 1); k++)
      acc ^= (uintnat)(Field(vvals, k) & Field(vx, ELT(vcols, k))) >> 1;
    SET(vdst, i, (intnat)(acc & 1));
  }
  return Val_unit;
}

CAMLprim value kp_gf2_csr_matvec_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gf2_csr_matvec(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5], argv[6]);
}

/* one butterfly layer on tagged 0/1 words, from a
   Kernel_intf.butterfly_layer record (stride, a, b, c, dd): each product
   is an AND, each two-term sum an XOR re-tagged with "| 1" */
static void gf2_bf_layer(value *w, intnat n, value layer, int trans)
{
  intnat s = ELT(layer, 0), k = 0, blk;
  value va = Field(layer, 1), vd = Field(layer, 4);
  value vlo = Field(layer, trans ? 3 : 2), vup = Field(layer, trans ? 2 : 3);
  for (blk = 0; blk < n; blk += 2 * s) {
    intnat stop = blk + s < n - s ? blk + s : n - s, i;
    for (i = blk; i < stop; i++, k++) {
      value u = w[i], v = w[i + s];
      w[i] = ((Field(va, k) & u) ^ (Field(vlo, k) & v)) | 1;
      w[i + s] = ((Field(vup, k) & u) ^ (Field(vd, k) & v)) | 1;
    }
  }
}

/* the network of diagonal vd and layers vlayers: forward dst <- d∘src,
   then layers 1..m; transposed dst <- src, layers m..1, then d∘dst */
CAMLprim value kp_gf2_butterfly_apply(value vd, value vlayers, value vtrans,
                                      value vsrc, value vdst)
{
  intnat n = Wosize_val(vd), nl = Wosize_val(vlayers), i, l;
  int trans = Bool_val(vtrans);
  value *w = Op_val(vdst);
  memcpy(w, Op_val(vsrc), n * sizeof(value));
  if (trans)
    for (l = nl - 1; l >= 0; l--)
      gf2_bf_layer(w, n, Field(vlayers, l), 1);
  for (i = 0; i < n; i++)
    w[i] &= Field(vd, i);
  if (!trans)
    for (l = 0; l < nl; l++)
      gf2_bf_layer(w, n, Field(vlayers, l), 0);
  return Val_unit;
}

/* caller has already skipped a = 0, so this is y ^= x */
CAMLprim value kp_gf2_axpy(value vx, value vxoff, value vy, value vyoff,
                           value vlen)
{
  intnat xoff = Long_val(vxoff), yoff = Long_val(vyoff), len = Long_val(vlen);
  intnat i;
  for (i = 0; i < len; i++)
    Field(vy, yoff + i) = (Field(vy, yoff + i) ^ Field(vx, xoff + i)) | 1;
  return Val_unit;
}

CAMLprim value kp_gf2_scale(value va, value vx, value vxoff, value vdst,
                            value vdoff, value vlen)
{
  intnat xoff = Long_val(vxoff), doff = Long_val(vdoff), len = Long_val(vlen);
  intnat i;
  for (i = 0; i < len; i++)
    Field(vdst, doff + i) = va & Field(vx, xoff + i);
  return Val_unit;
}

CAMLprim value kp_gf2_scale_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gf2_scale(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* addition and subtraction coincide in characteristic 2 */
CAMLprim value kp_gf2_add(value vx, value vxoff, value vy, value vyoff,
                          value vdst, value vdoff, value vlen)
{
  intnat xoff = Long_val(vxoff), yoff = Long_val(vyoff);
  intnat doff = Long_val(vdoff), len = Long_val(vlen);
  intnat i;
  for (i = 0; i < len; i++)
    Field(vdst, doff + i) = (Field(vx, xoff + i) ^ Field(vy, yoff + i)) | 1;
  return Val_unit;
}

CAMLprim value kp_gf2_add_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gf2_add(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                    argv[6]);
}

CAMLprim value kp_gf2_pointwise(value vx, value vxoff, value vy, value vyoff,
                                value vdst, value vdoff, value vlen)
{
  intnat xoff = Long_val(vxoff), yoff = Long_val(vyoff);
  intnat doff = Long_val(vdoff), len = Long_val(vlen);
  intnat i;
  for (i = 0; i < len; i++)
    Field(vdst, doff + i) = Field(vx, xoff + i) & Field(vy, yoff + i);
  return Val_unit;
}

CAMLprim value kp_gf2_pointwise_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gf2_pointwise(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6]);
}

static inline intnat parity64(uint64_t w)
{
#if defined(__GNUC__) || defined(__clang__)
  return (intnat)__builtin_parityll(w);
#else
  w ^= w >> 32; w ^= w >> 16; w ^= w >> 8; w ^= w >> 4; w ^= w >> 2; w ^= w >> 1;
  return (intnat)(w & 1);
#endif
}

/* bit-packed matvec: x packed once into 64-bit words in the Bigarray
   scratch [vxw] (>= ceil(cols/64) entries), rows packed on the fly,
   one AND + one XOR per 64 elements, parity fold per row.  Any packing
   width yields the same parity, so this is bit-identical to the 62-bit
   pure-OCaml packing. */
CAMLprim value kp_gf2_matvec(value vm, value vcols, value vrow_lo,
                             value vrow_hi, value vx, value vdst, value vxw)
{
  intnat cols = Long_val(vcols);
  intnat row_lo = Long_val(vrow_lo), row_hi = Long_val(vrow_hi);
  intnat nwords = (cols + 63) / 64;
  uint64_t *xw = (uint64_t *)Caml_ba_data_val(vxw);
  intnat w, i;
  for (w = 0; w < nwords; w++) {
    intnat base = w * 64;
    intnat stop = base + 64 < cols ? base + 64 : cols;
    uint64_t wx = 0;
    intnat k;
    for (k = base; k < stop; k++)
      wx = (wx << 1) | (uint64_t)ELT(vx, k);
    xw[w] = wx;
  }
  for (i = row_lo; i < row_hi; i++) {
    intnat rbase = i * cols;
    uint64_t acc = 0;
    for (w = 0; w < nwords; w++) {
      intnat base = w * 64;
      intnat stop = base + 64 < cols ? base + 64 : cols;
      uint64_t wr = 0;
      intnat k;
      for (k = base; k < stop; k++)
        wr = (wr << 1) | (uint64_t)ELT(vm, rbase + k);
      acc ^= wr & xw[w];
    }
    SET(vdst, i, parity64(acc));
  }
  return Val_unit;
}

CAMLprim value kp_gf2_matvec_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gf2_matvec(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6]);
}

/* out row = XOR of the b-rows selected by the 1-bits of the a-row */
CAMLprim value kp_gf2_matmul(value va, value vb, value vdst, value vinner,
                             value vbcols, value vrow_lo, value vrow_hi)
{
  intnat inner = Long_val(vinner), bcols = Long_val(vbcols);
  intnat row_lo = Long_val(vrow_lo), row_hi = Long_val(vrow_hi);
  intnat i;
  for (i = row_lo; i < row_hi; i++) {
    intnat arow = i * inner, orow = i * bcols;
    intnat k;
    for (k = 0; k < inner; k++) {
      if (ELT(va, arow + k) != 0) {
        intnat brow = k * bcols;
        intnat j;
        for (j = 0; j < bcols; j++)
          Field(vdst, orow + j) =
            (Field(vdst, orow + j) ^ Field(vb, brow + j)) | 1;
      }
    }
  }
  return Val_unit;
}

CAMLprim value kp_gf2_matmul_byte(value *argv, int argn)
{
  (void)argn;
  return kp_gf2_matmul(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6]);
}
