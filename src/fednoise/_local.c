/* The local step's arithmetic outside sgd_step: numkit's forward and
 * backward passes, and localnode's total_loss_and_grads and the step's
 * bookkeeping in two calls: select (small_loss_filter, similarity_labels
 * and confident_mask) before the loss and refresh (class_mean_features
 * of the selected rows and blend_with_global) after the step.
 *
 * Each does numpy's operations in numpy's order, so the bits equal
 * numpy's: build with -ffp-contract=off and never with -ffast-math or
 * -Ofast. A .sum() is numpy's pairwise sum (pairwise below) added to
 * +0.0, as its add.reduce does. What no C loop reproduces, numpy's own
 * code does: the matrix products and dots are calls to the cblas_dgemm
 * and cblas_ddot of the BLAS numpy loaded, and tanh, exp and log run
 * numpy's float64 inner loops, each with the arguments numpy passes.
 * _native reads their addresses from numpy and hands them over in a
 * struct numpy_calls; numkit and localnode check every function
 * against their numpy lines before they use any of them.
 *
 * Arrays are C-contiguous: doubles, labels and masks as int64, presence
 * as bytes 0 or 1. A function that returns 1 has met an input it does
 * not reproduce numpy on (a label out of range, a product numpy would
 * not hand to gemm, a row max that is not one value), has no numpy
 * calls or could not allocate, and its caller runs numpy's lines
 * (fednoise_forward's 2 is the one partial result).
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* CBLAS's enumerators. */
enum { ROW_MAJOR = 101, NO_TRANS = 111, TRANS = 112 };

/* A float64 inner loop of a numpy ufunc (PyUFuncGenericFunction). */
typedef void (*loop_fn)(char **args, const ptrdiff_t *dimensions, const ptrdiff_t *steps, void *data);

/* numpy's own calls, laid out as _native.NumpyCalls: its BLAS's ILP64
 * cblas_dgemm and cblas_ddot, and its float64 tanh, exp and log loops,
 * each with its data. */
struct numpy_calls {
    void (*dgemm)(int order, int trans_a, int trans_b, int64_t M, int64_t N, int64_t K,
                  double alpha, const double *A, int64_t lda, const double *B, int64_t ldb,
                  double beta, double *C, int64_t ldc);
    double (*ddot)(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);
    loop_fn tanh_loop;
    void *tanh_data;
    loop_fn exp_loop;
    void *exp_data;
    loop_fn log_loop;
    void *log_data;
};

/* A (M x K) @ B (K x N) into C (M x N), as numpy's matmul calls gemm on
 * C-contiguous operands: a transposed operand (trans_a or trans_b TRANS)
 * is a C-contiguous array's .T, and each leading dimension is the row
 * length of the array as stored. numpy takes gemm only where every side
 * is 2 or more (else gemv, dot or its own loop), and syrk where both
 * operands are one buffer: returns 1 there, having done nothing. */
static int gemm(const struct numpy_calls *np, int trans_a, int trans_b, size_t M, size_t N, size_t K,
                const double *A, const double *B, double *C)
{
    if (M < 2 || N < 2 || K < 2 || A == B)
        return 1;
    np->dgemm(ROW_MAJOR, trans_a, trans_b, M, N, K, 1.0, A, trans_a == NO_TRANS ? K : M,
              B, trans_b == NO_TRANS ? N : K, 0.0, C, N);
    return 0;
}

/* u @ v of two contiguous rows of n: numpy's dot, its BLAS's ddot added
 * to +0.0. */
static double dot(const struct numpy_calls *np, const double *u, const double *v, size_t n)
{
    return 0.0 + np->ddot(n, u, 1, v, 1);
}

/* numpy's float64 loop over n contiguous elements of in, into out. */
static void unary(loop_fn loop, void *data, const double *in, double *out, size_t n)
{
    char *args[2] = {(char *)in, (char *)out};
    ptrdiff_t dimensions[1] = {(ptrdiff_t)n}, steps[2] = {sizeof(double), sizeof(double)};
    loop(args, dimensions, steps, data);
}

/* a[i, j] = a[i, j] + b[j] over the rows of a (rows x n). */
static void add_rows(double *a, const double *b, size_t rows, size_t n)
{
    for (size_t i = 0; i < rows; i++)
        for (size_t j = 0; j < n; j++)
            a[i * n + j] = a[i * n + j] + b[j];
}

/* a.sum(axis=0) of a (rows x n): each column's rows added to +0.0 in row
 * order, as numpy's add.reduce over a C-contiguous array's first axis. */
static void column_sums(const double *a, size_t rows, size_t n, double *out)
{
    for (size_t j = 0; j < n; j++)
        out[j] = 0.0;
    for (size_t i = 0; i < rows; i++)
        for (size_t j = 0; j < n; j++)
            out[j] = out[j] + a[i * n + j];
}

/* numkit.cosine_similarity of one pair from its dot and norms: 0.0 where
 * np.minimum(nu, nv) < eps, which is never where either is NaN. */
static double cosine(double dot, double nu, double nv, double eps)
{
    int zero = !isnan(nu) && !isnan(nv) && (nu < eps || nv < eps);
    return zero ? 0.0 : dot / (nu * nv);
}

/* numpy's pairwise sum of a contiguous run: below 8 elements one by one
 * from -0.0; up to 128 in 8 accumulators, combined in a tree, then the
 * rest in order; above that the two halves, split at a multiple of 8. */
static double pairwise(const double *a, size_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (size_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        size_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    size_t half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* a[:n].sum() */
static double sum(const double *a, size_t n)
{
    return 0.0 + pairwise(a, n);
}

static int out_of_range(const int64_t *y, size_t n, size_t C)
{
    for (size_t i = 0; i < n; i++)
        if (y[i] < 0 || (uint64_t)y[i] >= C)
            return 1;
    return 0;
}

/* The max-shifted softmax and log-softmax of each row of z (B x C), from
 * one set of exponentials, as numkit._softmax_and_log: z = z - max, e =
 * exp(z), total = e.sum(axis=1), probs = e / total, and log-softmax z -
 * log(total) over z in place. Every row is checked before any is
 * shifted: returns 1, with z as it was, where a row's max is not one
 * value, a row with a NaN or whose max is zero with zeros of both signs
 * (numpy's max may give either). */
static int softmax(const struct numpy_calls *np, double *z, size_t B, size_t C, double *probs)
{
    double *max = malloc(sizeof(double) * 3 * B);
    if (!max)
        return 1;
    double *total = max + B, *log_total = total + B;
    for (size_t i = 0; i < B; i++) {
        const double *row = z + i * C;
        int signs = 0;
        max[i] = row[0];
        for (size_t j = 0; j < C; j++) {
            if (isnan(row[j])) {
                free(max);
                return 1;
            }
            if (row[j] > max[i])
                max[i] = row[j];
        }
        for (size_t j = 0; j < C && max[i] == 0.0; j++)
            if (row[j] == 0.0)
                signs |= signbit(row[j]) ? 2 : 1;
        if (signs == 3) {
            free(max);
            return 1;
        }
    }
    for (size_t i = 0; i < B; i++)
        for (size_t j = 0; j < C; j++)
            z[i * C + j] = z[i * C + j] - max[i];
    unary(np->exp_loop, np->exp_data, z, probs, B * C);
    for (size_t i = 0; i < B; i++)
        total[i] = sum(probs + i * C, C);
    for (size_t i = 0; i < B; i++)
        for (size_t j = 0; j < C; j++)
            probs[i * C + j] = probs[i * C + j] / total[i];
    unary(np->log_loop, np->log_data, total, log_total, B);
    for (size_t i = 0; i < B; i++)
        for (size_t j = 0; j < C; j++)
            z[i * C + j] = z[i * C + j] - log_total[i];
    free(max);
    return 0;
}

/* numkit's forward pass of X (B x d_in) through theta's W1, b1, W2, b2:
 * hidden = tanh(X @ W1 + b1), the bias and tanh in place; then, where
 * logits is given, logits = hidden @ W2 + b2; and where probs is given
 * too, the softmax rows into probs and the log-softmax over the logits.
 * Returns 2 where the softmax refuses a row: the hidden layer and the
 * logits are written, and the caller takes numpy's softmax of them. */
int fednoise_forward(const struct numpy_calls *np, const double *X, const double *theta,
                     size_t B, size_t d_in, size_t d_h, size_t C,
                     double *hidden, double *logits, double *probs)
{
    const double *W1 = theta, *b1 = W1 + d_in * d_h, *W2 = b1 + d_h, *b2 = W2 + d_h * C;
    if (!np || gemm(np, NO_TRANS, NO_TRANS, B, d_h, d_in, X, W1, hidden))
        return 1;
    add_rows(hidden, b1, B, d_h);
    unary(np->tanh_loop, np->tanh_data, hidden, hidden, B * d_h);
    if (!logits)
        return 0;
    if (gemm(np, NO_TRANS, NO_TRANS, B, C, d_h, hidden, W2, logits))
        return 1;
    add_rows(logits, b2, B, C);
    return probs && softmax(np, logits, B, C, probs) ? 2 : 0;
}

/* numkit.mlp_backward: the gradient, laid out like theta, of a loss whose
 * partials are d_logits (B x C) and d_hidden (B x d_h), into grads:
 *   dW2 = hidden.T @ d_logits;          db2 = d_logits.sum(axis=0)
 *   dh = d_logits @ W2.T + d_hidden;    dz1 = dh * (1.0 - hidden**2)
 *   dW1 = X.T @ dz1;                    db1 = dz1.sum(axis=0) */
int fednoise_backward(const struct numpy_calls *np, const double *X, const double *theta,
                      const double *hidden, const double *d_logits, const double *d_hidden,
                      size_t B, size_t d_in, size_t d_h, size_t C, double *grads)
{
    const double *W2 = theta + d_in * d_h + d_h;
    double *dW1 = grads, *db1 = dW1 + d_in * d_h, *dW2 = db1 + d_h, *db2 = dW2 + d_h * C;
    if (!np)
        return 1;
    double *dz1 = malloc(sizeof(double) * B * d_h);
    if (!dz1)
        return 1;
    int status = gemm(np, TRANS, NO_TRANS, d_h, C, B, hidden, d_logits, dW2)
                 || gemm(np, NO_TRANS, TRANS, B, d_h, C, d_logits, W2, dz1);
    if (!status) {
        column_sums(d_logits, B, C, db2);
        for (size_t k = 0; k < B * d_h; k++)
            dz1[k] = (dz1[k] + d_hidden[k]) * (1.0 - hidden[k] * hidden[k]);
        status = gemm(np, TRANS, NO_TRANS, d_in, d_h, B, X, dz1, dW1);
        column_sums(dz1, B, d_h, db1);
    }
    free(dz1);
    return status;
}

/* total_loss_and_grads: the loss terms (classification, centroid,
 * entropy) into terms and dLoss/dlogits into d_logits. pseudo (B, C) and
 * centroids (rows, d) may be NULL; hidden (B, d) is read only with
 * centroids and mask only with either. d_hidden, where not NULL, takes
 * dLoss/dhidden; the caller passes NULL where that is all zeros. */
int fednoise_loss(const double *probs, const double *logp, const double *hidden,
                  const int64_t *y, const double *pseudo, const int64_t *mask,
                  const double *centroids, size_t rows, size_t B, size_t C, size_t d,
                  double lam_cen, double lam_e, double *d_logits, double *d_hidden, double *terms)
{
    if (out_of_range(y, B, centroids && rows < C ? rows : C))
        return 1;
    size_t width = C > d ? C : d;
    double *targets = malloc(sizeof(double) * (B * C + B + width));
    if (!targets)
        return 1;
    double *per_row = targets + B * C, *row = per_row + B;
    double n = (double)B;

    /* targets = m*onehot + (1-m)*pseudo, or onehot; classification term. */
    for (size_t i = 0; i < B; i++) {
        double *t = targets + i * C;
        if (pseudo) {
            double m = (double)mask[i], off = m * 0.0, rest = 1.0 - m;
            for (size_t j = 0; j < C; j++)
                t[j] = off + rest * pseudo[i * C + j];
            t[y[i]] = m + rest * pseudo[i * C + y[i]];
        } else {
            memset(t, 0, sizeof(double) * C);
            t[y[i]] = 1.0;
        }
    }
    for (size_t k = 0; k < B * C; k++)
        d_logits[k] = targets[k] * logp[k];
    terms[0] = -sum(d_logits, B * C) / n;
    for (size_t k = 0; k < B * C; k++)
        d_logits[k] = (probs[k] - targets[k]) / n;

    /* Entropy term, with each row's entropy in per_row. */
    terms[2] = 0.0;
    if (lam_e != 0.0) {
        for (size_t i = 0; i < B; i++) {
            for (size_t j = 0; j < C; j++)
                row[j] = probs[i * C + j] * logp[i * C + j];
            per_row[i] = -sum(row, C);
        }
        terms[2] = sum(per_row, B) / n;
        for (size_t i = 0; i < B; i++)
            for (size_t j = 0; j < C; j++) {
                size_t k = i * C + j;
                d_logits[k] = d_logits[k] + lam_e * (-probs[k] * (logp[k] + per_row[i])) / n;
            }
    }

    /* Centroid term, with each row's masked squared distance in per_row. */
    terms[1] = 0.0;
    if (centroids) {
        for (size_t i = 0; i < B; i++) {
            double m = (double)mask[i];
            const double *h = hidden + i * d, *c = centroids + y[i] * d;
            for (size_t j = 0; j < d; j++)
                row[j] = (h[j] - c[j]) * (h[j] - c[j]);
            per_row[i] = m * sum(row, d);
            if (d_hidden)
                for (size_t j = 0; j < d; j++)
                    d_hidden[i * d + j] = lam_cen * (2.0 * m * (h[j] - c[j])) / n;
        }
        terms[1] = sum(per_row, B) / n;
    }
    free(targets);
    return 0;
}

/* class_mean_features: each class's rows of X added to +0.0 in row
 * order, then divided by the count where there is one. The labels are in
 * range. */
static int class_means(const double *X, const int64_t *y, size_t B, size_t d, size_t C,
                       double *means, unsigned char *presence)
{
    size_t *counts = calloc(C, sizeof *counts);
    if (!counts)
        return 1;
    memset(means, 0, sizeof(double) * C * d);
    for (size_t i = 0; i < B; i++) {
        double *v = means + y[i] * d;
        counts[y[i]]++;
        for (size_t j = 0; j < d; j++)
            v[j] += X[i * d + j];
    }
    for (size_t c = 0; c < C; c++) {
        presence[c] = counts[c] > 0;
        if (presence[c])
            for (size_t j = 0; j < d; j++)
                means[c * d + j] /= (double)counts[c];
    }
    free(counts);
    return 0;
}

/* similarity_labels: for each row of U (B x d), the row of V (C x d) of
 * the largest cosine (numkit.cosine_similarity: the dots U @ V.T, each
 * norm the root of its row's dot with itself), with absent classes
 * (present[c] 0) at -inf; ties to the lowest class and the first NaN
 * wins, as numpy's argmax. */
static int similarity(const struct numpy_calls *np, const double *U, const double *V,
                      const unsigned char *present, size_t B, size_t C, size_t d, double eps,
                      int64_t *labels)
{
    double *dots = malloc(sizeof(double) * (B * C + B + C));
    if (!dots)
        return 1;
    double *nu = dots + B * C, *nv = nu + B;
    if (gemm(np, NO_TRANS, TRANS, B, C, d, U, V, dots)) {
        free(dots);
        return 1;
    }
    for (size_t i = 0; i < B; i++)
        nu[i] = sqrt(dot(np, U + i * d, U + i * d, d));
    for (size_t c = 0; c < C; c++)
        nv[c] = sqrt(dot(np, V + c * d, V + c * d, d));
    for (size_t i = 0; i < B; i++) {
        double max = 0.0;
        labels[i] = 0;
        for (size_t c = 0; c < C; c++) {
            double s = present[c] ? cosine(dots[i * C + c], nu[i], nv[c], eps) : -INFINITY;
            if (c == 0 || !(s <= max)) {
                max = s;
                labels[i] = (int64_t)c;
                if (isnan(s))
                    break;
            }
        }
    }
    free(dots);
    return 0;
}

/* blend_with_global: per class, where both sets have it, w = s*s for the
 * cosine s of its pair of rows (cosine_similarity of the stacked rows,
 * one dot each) and (1-w)*P + w*F; else the row of the set that has it,
 * else P's. */
static void blend(const struct numpy_calls *np, const double *P, const double *F,
                  const unsigned char *had, const unsigned char *has, size_t C, size_t d,
                  double eps, double *out, unsigned char *presence)
{
    for (size_t c = 0; c < C; c++) {
        const double *p = P + c * d, *f = F + c * d;
        double *o = out + c * d;
        if (had[c] && has[c]) {
            double s = cosine(dot(np, p, f, d), sqrt(dot(np, p, p, d)), sqrt(dot(np, f, f, d)), eps);
            double w = s * s;
            for (size_t j = 0; j < d; j++)
                o[j] = (1.0 - w) * p[j] + w * f[j];
        } else {
            memcpy(o, has[c] ? f : p, sizeof(double) * d);
        }
        presence[c] = had[c] || has[c];
    }
}

/* x[a] before x[b] in numpy's sort order of float64: NaN after every
 * number. */
static int before(const double *x, int64_t a, int64_t b)
{
    return x[a] < x[b] || (isnan(x[b]) && !isnan(x[a]));
}

/* The indices 0..n-1 ordered by x, equal values (and NaNs) in index
 * order, as numpy's stable argsort: a bottom-up merge sort between the
 * buffers a and b, each of n. Returns the one that holds the order. */
static int64_t *stable_order(const double *x, size_t n, int64_t *a, int64_t *b)
{
    for (size_t i = 0; i < n; i++)
        a[i] = (int64_t)i;
    for (size_t width = 1; width < n; width *= 2) {
        for (size_t lo = 0; lo < n; lo += 2 * width) {
            size_t mid = lo + width < n ? lo + width : n, hi = lo + 2 * width < n ? lo + 2 * width : n;
            size_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                b[k++] = before(x, a[j], a[i]) ? a[j++] : a[i++];
            while (i < mid)
                b[k++] = a[i++];
            while (j < hi)
                b[k++] = a[j++];
        }
        int64_t *t = a;
        a = b;
        b = t;
    }
    return a;
}

/* One step's bookkeeping before the loss, for a batch of B rows whose
 * labels are y, forward pass logp (B x C) and hidden (B x d), at the
 * shard's rows idx:
 *   - small_loss_filter: the k smallest per-example losses -logp[i, y[i]]
 *     (ties to the lower index, NaN last), their indices ascending into
 *     sel (k);
 *   - confident_mask(similarity_labels(hidden, centroids), y) into
 *     mask[idx] (mask has n rows), against the centroids V (C x d),
 *     present where present[c].
 * Returns 1, having written nothing, where a label or row is out of
 * range, k is not in [1, B], no class is present or the similarity
 * product is one numpy would not hand to gemm. */
int fednoise_select(const struct numpy_calls *np, const double *logp, const double *hidden,
                    const int64_t *y, const int64_t *idx, size_t B, size_t C, size_t d,
                    const double *V, const unsigned char *present, double eps, size_t k,
                    size_t n, int64_t *mask, int64_t *sel)
{
    int any = 0;
    for (size_t c = 0; c < C; c++)
        any |= present[c];
    if (!np || !any || k < 1 || k > B || out_of_range(y, B, C) || out_of_range(idx, B, n))
        return 1;
    int64_t *labels = malloc(sizeof(int64_t) * 3 * B + sizeof(double) * B + B);
    if (!labels)
        return 1;
    int64_t *a = labels + B, *b = a + B;
    double *losses = (double *)(b + B);
    unsigned char *kept = (unsigned char *)(losses + B);
    if (similarity(np, hidden, V, present, B, C, d, eps, labels)) {
        free(labels);
        return 1;
    }
    for (size_t i = 0; i < B; i++)
        losses[i] = -logp[i * C + y[i]];
    const int64_t *order = stable_order(losses, B, a, b);
    memset(kept, 0, B);
    for (size_t i = 0; i < k; i++)
        kept[order[i]] = 1;
    for (size_t i = 0, j = 0; i < B; i++)
        if (kept[i])
            sel[j++] = (int64_t)i;
    for (size_t i = 0; i < B; i++)
        mask[idx[i]] = labels[i] == y[i];
    free(labels);
    return 0;
}

/* One step's centroid refresh after sgd_step: the class means of the
 * hidden layer under theta (as fednoise_forward) of the batch's rows sel
 * (k of the B rows of X, d_in wide, gathered as X[sel]), by their labels
 * y[sel]; folded into the running centroids P (C x d_h, present where
 * had) by blend, or where replace, each mean in place of its class's
 * row; into out and presence. Returns 1 where a row or label is out of
 * range or the forward pass refuses (fewer than two rows, say). */
int fednoise_refresh(const struct numpy_calls *np, const double *X, const double *theta,
                     const int64_t *y, const int64_t *sel, size_t k, size_t B, size_t d_in,
                     size_t d_h, size_t C, const double *P, const unsigned char *had, int replace,
                     double eps, double *out, unsigned char *presence)
{
    if (!np || !k || out_of_range(sel, k, B))
        return 1;
    int64_t *labels = malloc(sizeof(int64_t) * k + sizeof(double) * (k * (d_in + d_h) + C * d_h) + C);
    if (!labels)
        return 1;
    double *rows = (double *)(labels + k), *hidden = rows + k * d_in, *means = hidden + k * d_h;
    unsigned char *has = (unsigned char *)(means + C * d_h);
    for (size_t i = 0; i < k; i++) {
        memcpy(rows + i * d_in, X + sel[i] * d_in, sizeof(double) * d_in);
        labels[i] = y[sel[i]];
    }
    int status = out_of_range(labels, k, C)
                 || fednoise_forward(np, rows, theta, k, d_in, d_h, C, hidden, NULL, NULL)
                 || class_means(hidden, labels, k, d_h, C, means, has);
    if (!status && replace) {
        for (size_t c = 0; c < C; c++) {
            memcpy(out + c * d_h, has[c] ? means + c * d_h : P + c * d_h, sizeof(double) * d_h);
            presence[c] = had[c] || has[c];
        }
    } else if (!status) {
        blend(np, P, means, had, has, C, d_h, eps, out, presence);
    }
    free(labels);
    return status;
}
