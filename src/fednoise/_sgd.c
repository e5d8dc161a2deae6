/* The fused momentum SGD step of numkit.sgd_step, over the flat layout
 * W1, b1, W2, b2 (block ends n1, n2, n3, n).
 *
 * It does numpy's operations element by element, in numpy's order:
 *   v = v*m;  v = v + g;  on W1 and W2 only: v = v + wd*w;  w = w - lr*v.
 * IEEE multiplication and addition round each result correctly, so the
 * bits equal numpy's as long as the compiler neither contracts a*b + c
 * into a fused multiply-add nor reassociates: build with
 * -ffp-contract=off and never with -ffast-math or -Ofast.
 *
 * Returns 1, having written nothing, if g holds an inf or a NaN; else 0.
 * The three arrays must not overlap.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define EXPONENT 0x7ff0000000000000ULL

static void step(double *restrict w, double *restrict v, const double *restrict g,
                 size_t lo, size_t hi, double lr, double m, double wd, int decay)
{
    if (decay) {
        for (size_t i = lo; i < hi; i++) {
            double t = v[i] * m;
            t = t + g[i];
            t = t + wd * w[i];
            v[i] = t;
            w[i] = w[i] - lr * t;
        }
    } else {
        for (size_t i = lo; i < hi; i++) {
            double t = v[i] * m;
            t = t + g[i];
            v[i] = t;
            w[i] = w[i] - lr * t;
        }
    }
}

int fednoise_sgd_step(double *restrict w, double *restrict v, const double *restrict g,
                      size_t n1, size_t n2, size_t n3, size_t n,
                      double lr, double m, double wd)
{
    /* An all-ones exponent is an inf or a NaN. */
    uint64_t bad = 0;
    for (size_t i = 0; i < n; i++) {
        uint64_t bits;
        memcpy(&bits, &g[i], sizeof bits);
        bad |= (bits & EXPONENT) == EXPONENT;
    }
    if (bad)
        return 1;
    step(w, v, g, 0, n1, lr, m, wd, 1);
    step(w, v, g, n1, n2, lr, m, wd, 0);
    step(w, v, g, n2, n3, lr, m, wd, 1);
    step(w, v, g, n3, n, lr, m, wd, 0);
    return 0;
}
