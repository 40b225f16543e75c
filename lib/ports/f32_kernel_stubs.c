/* The binary32 row kernel behind F32_kernel.gather.

   Every operation below is one native binary32 operation.  The OCaml
   reference (F32_kernel.min_image, r2 and pair_terms) computes each
   operation on binary32 operands in binary64 and rounds the result to
   binary32; for + - * / that double rounding is innocuous, because
   53 >= 2*24 + 2 (Figueroa, "When is double rounding innocuous?",
   SIGNUM 1995), so both give the same bits.  Comparisons and the
   minimum-image selects are exact in either format.

   That holds only if each C operation is exactly one binary32
   operation: no wider evaluation (checked below), no contraction of a
   multiply and an add into an FMA (the dune stanza passes
   -ffp-contract=off; GCC contracts by default wherever the target has
   an FMA), and no reassociation (no -ffast-math, checked below).  The
   expressions keep the reference's evaluation order.

   The entry points are [@@noalloc]: they read the OCaml values they are
   given in place and write the row's sums into the caller's
   F32_kernel.acc, a flat float record.  An index outside the position
   store makes them return -1 before reading it; the OCaml caller
   raises Invalid_argument. */

#include <float.h>
#include <stddef.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "binary32 operations must evaluate in binary32 (FLT_EVAL_METHOD == 0)"
#endif

#ifdef __FAST_MATH__
#error "compile without -ffast-math: the kernel must round every operation"
#endif

/* F32_kernel.params: box, half_box, rc2, sigma2, eps24, eps4, inv_mass. */
typedef struct {
  float box, half_box, rc2, sigma2, eps24, eps4, inv_mass;
} params;

/* Where the row reads positions: the Cell's staged binary32 streams, or
   the GPU's position texels (an array of Vec4f.t, flat float records
   whose lanes a, b, c hold x, y, z). */
typedef struct {
  const float *x, *y, *z; /* NULL for texels */
  value texels;
  intnat len;
} store;

static inline float wrap(const params *p, float d)
{
  if (d > p->half_box) return d - p->box;
  if (d < -p->half_box) return d + p->box;
  return d;
}

static inline void load(const store *st, intnat j, float *x, float *y,
                        float *z)
{
  if (st->x != NULL) {
    *x = st->x[j];
    *y = st->y[j];
    *z = st->z[j];
  } else {
    value v = Field(st->texels, j);
    *x = (float)Double_flat_field(v, 0);
    *y = (float)Double_flat_field(v, 1);
    *z = (float)Double_flat_field(v, 2);
  }
}

/* Atom i's row over the partners row[0..count), or over every j < count
   when row is NULL.  Returns the interaction count, or -1 when i or a
   partner is outside the store. */
static intnat gather(value vp, value vacc, const store *st, const value *row,
                     intnat count, intnat i)
{
  params p = {
    (float)Double_flat_field(vp, 0), (float)Double_flat_field(vp, 1),
    (float)Double_flat_field(vp, 2), (float)Double_flat_field(vp, 3),
    (float)Double_flat_field(vp, 4), (float)Double_flat_field(vp, 5),
    (float)Double_flat_field(vp, 6)
  };
  float xi, yi, zi, ax = 0.0f, ay = 0.0f, az = 0.0f, pe = 0.0f;
  intnat hits = 0;
  if (i < 0 || i >= st->len || (row == NULL && count > st->len)) return -1;
  load(st, i, &xi, &yi, &zi);
  for (intnat k = 0; k < count; k++) {
    intnat j = k;
    float xj, yj, zj, dx, dy, dz, r2;
    if (row != NULL) {
      j = Long_val(row[k]);
      if (j < 0 || j >= st->len) return -1;
    }
    load(st, j, &xj, &yj, &zj);
    dx = wrap(&p, xi - xj);
    dy = wrap(&p, yi - yj);
    dz = wrap(&p, zi - zj);
    r2 = ((dx * dx) + (dy * dy)) + (dz * dz);
    if (r2 < p.rc2 && r2 > 0.0f) {
      float s2 = p.sigma2 / r2;
      float s6 = (s2 * s2) * s2;
      float s12 = s6 * s6;
      float tm = (s12 + s12) - s6;
      float coeff = ((p.eps24 * tm) / r2) * p.inv_mass;
      ax = ax + (coeff * dx);
      ay = ay + (coeff * dy);
      az = az + (coeff * dz);
      pe = pe + (p.eps4 * (s12 - s6));
      hits++;
    }
  }
  Store_double_flat_field(vacc, 0, ax);
  Store_double_flat_field(vacc, 1, ay);
  Store_double_flat_field(vacc, 2, az);
  Store_double_flat_field(vacc, 3, pe);
  return hits;
}

/* A Staged source block: fields px, py, pz, Float32 bigarrays. */
static void staged_store(store *st, value src)
{
  intnat len = Caml_ba_array_val(Field(src, 0))->dim[0];
  if (Caml_ba_array_val(Field(src, 1))->dim[0] < len)
    len = Caml_ba_array_val(Field(src, 1))->dim[0];
  if (Caml_ba_array_val(Field(src, 2))->dim[0] < len)
    len = Caml_ba_array_val(Field(src, 2))->dim[0];
  st->x = (const float *)Caml_ba_data_val(Field(src, 0));
  st->y = (const float *)Caml_ba_data_val(Field(src, 1));
  st->z = (const float *)Caml_ba_data_val(Field(src, 2));
  st->texels = Val_unit;
  st->len = len;
}

static void texel_store(store *st, value tex)
{
  st->x = st->y = st->z = NULL;
  st->texels = tex;
  st->len = Wosize_val(tex);
}

value mdports_f32_staged_rows(value p, value acc, value src, value row,
                              value i)
{
  store st;
  staged_store(&st, src);
  return Val_long(gather(p, acc, &st, Op_val(row), Wosize_val(row),
                         Long_val(i)));
}

value mdports_f32_staged_all(value p, value acc, value src, value n, value i)
{
  store st;
  staged_store(&st, src);
  return Val_long(gather(p, acc, &st, NULL, Long_val(n), Long_val(i)));
}

value mdports_f32_texels_rows(value p, value acc, value tex, value row,
                              value i)
{
  store st;
  texel_store(&st, tex);
  return Val_long(gather(p, acc, &st, Op_val(row), Wosize_val(row),
                         Long_val(i)));
}

value mdports_f32_texels_all(value p, value acc, value tex, value n,
                             value i)
{
  store st;
  texel_store(&st, tex);
  return Val_long(gather(p, acc, &st, NULL, Long_val(n), Long_val(i)));
}
