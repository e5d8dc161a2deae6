/* The bookkeeping of localnode's local step, one function for each of
 * total_loss_and_grads, class_mean_features and blend_with_global (after
 * its cosine).
 *
 * Each does numpy's operations element by element, in numpy's order, so
 * the bits equal numpy's: build with -ffp-contract=off and never with
 * -ffast-math or -Ofast. A .sum() is numpy's pairwise sum (pairwise
 * below) added to +0.0, as its add.reduce does. localnode checks every
 * function against its numpy lines before it uses any of them.
 *
 * Arrays are C-contiguous: doubles, labels and masks as int64, presence
 * as bytes 0 or 1. A function that returns 1 has met a label out of
 * range or could not allocate, and its caller runs numpy's lines, which
 * index (and fail) as numpy does.
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
 * order, then divided by the count where there is one. */
int fednoise_class_means(const double *X, const int64_t *y, size_t B, size_t d, size_t C,
                         double *means, unsigned char *presence)
{
    if (out_of_range(y, B, C))
        return 1;
    size_t *counts = calloc(C ? C : 1, sizeof *counts);
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

/* blend_with_global after its cosines s: w = s*s, (1-w)*P + w*F where
 * both sets have the class, else the one that has it, else P. */
int fednoise_blend(const double *P, const double *F, const double *s,
                    const unsigned char *had, const unsigned char *has, size_t C, size_t d,
                    double *out, unsigned char *presence)
{
    for (size_t c = 0; c < C; c++) {
        const double *p = P + c * d, *f = F + c * d;
        double *o = out + c * d;
        double w = s[c] * s[c];
        if (had[c] && has[c])
            for (size_t j = 0; j < d; j++)
                o[j] = (1.0 - w) * p[j] + w * f[j];
        else
            memcpy(o, has[c] ? f : p, sizeof(double) * d);
        presence[c] = had[c] || has[c];
    }
    return 0;
}
