/* Compiled kernels of hardyhenon4: the Dormand-Prince 5(4) step loop of
 * integrate, which ends the orbit at its crossing by bisection, the ulp
 * ring scan of fixed_points, the dense Hermite output of a trajectory, the
 * elementwise libm exp and log of transform._exp and transform._log, the
 * elementwise w^q of dynamics._wpow, and the writer and the reader of a
 * field file's 'radius,value' rows.
 *
 * Each but the reader is its Python twin: _steps_py (with _bisect_py),
 * _scan_py, _dense_py and _wpow_py in dynamics.py, _exp_py and _log_py in
 * transform.py, _rows_py in green.py.  The reader reads the rows the writer
 * writes, and every cell as float() reads it (Eisel-Lemire, then strtod);
 * its twin _parse_py reads nothing, and np.loadtxt reads every file it
 * leaves.  The row writer prints repr()'s bytes; the others are written
 * out expression for expression: every sum keeps its left-to-right order, its
 * leading 0.0 and its zero weights; w^p is exp(p log w) for w > 0, else 0;
 * powers go through pow; min and max keep Python's tie rules; exp and log
 * are the libm functions Python's math module calls.  Built with
 * -ffp-contract=off and without -ffast-math, every operation rounds as
 * Python's float does, so both paths give the same bits.  The loader in
 * _dp5.py compiles this file and falls back to the Python twins when it
 * cannot.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double expressions must round to double at every operation"
#endif

/* Return statuses of hh_steps, as END ... OVERFLOW = range(6) in _dp5.py. */
enum { END, BLOW_UP, NON_POSITIVE, FULL, UNDERFLOW, OVERFLOW };

/* Python's min(a, b) and max(a, b): a unless b is strictly smaller / larger. */
static double py_min(double a, double b) { return b < a ? b : a; }
static double py_max(double a, double b) { return b > a ? b : a; }

/* w^p = exp(p log w) for w > 0, else 0.  Sets *ovf where math.exp raises
 * OverflowError: a finite argument whose exp is infinite. */
static double wpow(double w, double p, int *ovf)
{
    if (!(w > 0.0))
        return 0.0;
    double x = p * log(w);
    double r = exp(x);
    if (isinf(r) && isfinite(x))
        *ovf = 1;
    return r;
}

/* Dormand-Prince 5(4) tableau, as _A, _B5 and _E in dynamics.py. */
static const double A21 = 1.0 / 5.0;
static const double A31 = 3.0 / 40.0, A32 = 9.0 / 40.0;
static const double A41 = 44.0 / 45.0, A42 = -56.0 / 15.0, A43 = 32.0 / 9.0;
static const double A51 = 19372.0 / 6561.0, A52 = -25360.0 / 2187.0,
                    A53 = 64448.0 / 6561.0, A54 = -212.0 / 729.0;
static const double A61 = 9017.0 / 3168.0, A62 = -355.0 / 33.0, A63 = 46732.0 / 5247.0,
                    A64 = 49.0 / 176.0, A65 = -5103.0 / 18656.0;
static const double B1 = 35.0 / 384.0, B2 = 0.0, B3 = 500.0 / 1113.0, B4 = 125.0 / 192.0,
                    B5 = -2187.0 / 6784.0, B6 = 11.0 / 84.0;
static const double E1 = 71.0 / 57600.0, E2 = 0.0, E3 = -71.0 / 16695.0, E4 = 71.0 / 1920.0,
                    E5 = -17253.0 / 339200.0, E6 = 22.0 / 525.0, E7 = -1.0 / 40.0;

static const double SAFETY = 0.9, MIN_FACTOR = 0.2, MAX_FACTOR = 10.0;
static const double PI_ALPHA = 0.7 / 5.0, PI_BETA = 0.4 / 5.0;

/* The cubic Hermite interpolant of one dense segment row (ta, tb, ya[0..3],
 * yb[0..3], fa[0..3], fb[0..3]) at t, as _hermite in dynamics.py: y[0..3]
 * gets the 4-jet, or only y[0] where comps is 1. */
static void hermite(double t, const double *seg, int comps, double *y)
{
    double h = seg[1] - seg[0];
    double s = (t - seg[0]) / h;
    double s2 = s * s;
    double s3 = s2 * s;
    double h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
    double h10 = (s3 - 2.0 * s2 + s) * h;
    double h01 = -2.0 * s3 + 3.0 * s2;
    double h11 = (s3 - s2) * h;
    for (int i = 0; i < comps; i++)
        y[i] = h00 * seg[2 + i] + h10 * seg[10 + i] + h01 * seg[6 + i] + h11 * seg[14 + i];
}

/* The crossing of w0 == level inside the segment row seg by 80 halvings,
 * as _bisect_py: out gets tc, then the 4-jet there. */
static void bisect(const double *seg, double level, double *out)
{
    double lo = seg[0], hi = seg[1];
    double flo = seg[2] - level;
    for (int i = 0; i < 80; i++) {
        double mid = 0.5 * (lo + hi);
        double fmid;
        hermite(mid, seg, 1, &fmid);
        fmid = fmid - level;
        if (fmid == 0.0) {
            lo = hi = mid;
            break;
        }
        if ((fmid > 0.0) == (flo > 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    double tc = 0.5 * (lo + hi);
    out[0] = tc;
    hermite(tc, seg, 4, out + 1);
}

/* Accepted steps of the adaptive loop, appended to seg from row cnt[0] on.
 *
 * st (in/out): t, y0..y3, f0..f3 (the field at y), h, err_prev.
 * prm: t1, sgn, rtol, atol, p, a0, a1, a2, a3, blowup_threshold.
 * seg: cap rows of 18 doubles, (t, t_new, y, y_new, f, f_new) per step.
 * cnt (in/out): rows written, rejected steps.
 * Returns END at t1; BLOW_UP or NON_POSITIVE after the step whose w
 * crossed the threshold or 0.0, its row the last one written, with
 * st[0..4] moved back to the crossing in that row and w clamped at 0.0 on
 * a zero crossing; FULL when seg has no room left (call again with a
 * larger seg to go on); UNDERFLOW when the step collapses at st[0]; or
 * OVERFLOW where a stage's w^p overflows.
 */
int hh_steps(double *st, const double *prm, double *seg, int64_t cap, int64_t *cnt)
{
    double t = st[0], y0 = st[1], y1 = st[2], y2 = st[3], y3 = st[4];
    double k10 = st[5], k11 = st[6], k12 = st[7], k13 = st[8];
    double h = st[9], err_prev = st[10];
    const double t1 = prm[0], sgn = prm[1], rtol = prm[2], atol = prm[3];
    const double p = prm[4], a0 = prm[5], a1 = prm[6], a2 = prm[7], a3 = prm[8];
    const double blowup_threshold = prm[9];
    int64_t n = cnt[0], rejected = cnt[1];
    int status = END, ovf = 0;

    while (sgn * (t1 - t) > 0.0) {
        if (n == cap) {
            status = FULL;
            break;
        }
        h = py_min(h, fabs(t1 - t));
        if (h < 1e-13 * py_max(1.0, fabs(t))) {
            status = UNDERFLOW;
            break;
        }
        double hs = sgn * h;
        double u;

        u = y0 + hs * (0.0 + A21 * k10);
        double k20 = y1 + hs * (0.0 + A21 * k11);
        double k21 = y2 + hs * (0.0 + A21 * k12);
        double k22 = y3 + hs * (0.0 + A21 * k13);
        double k23 = wpow(u, p, &ovf) - a3 * k22 - a2 * k21 - a1 * k20 - a0 * u;

        u = y0 + hs * (0.0 + A31 * k10 + A32 * k20);
        double k30 = y1 + hs * (0.0 + A31 * k11 + A32 * k21);
        double k31 = y2 + hs * (0.0 + A31 * k12 + A32 * k22);
        double k32 = y3 + hs * (0.0 + A31 * k13 + A32 * k23);
        double k33 = wpow(u, p, &ovf) - a3 * k32 - a2 * k31 - a1 * k30 - a0 * u;

        u = y0 + hs * (0.0 + A41 * k10 + A42 * k20 + A43 * k30);
        double k40 = y1 + hs * (0.0 + A41 * k11 + A42 * k21 + A43 * k31);
        double k41 = y2 + hs * (0.0 + A41 * k12 + A42 * k22 + A43 * k32);
        double k42 = y3 + hs * (0.0 + A41 * k13 + A42 * k23 + A43 * k33);
        double k43 = wpow(u, p, &ovf) - a3 * k42 - a2 * k41 - a1 * k40 - a0 * u;

        u = y0 + hs * (0.0 + A51 * k10 + A52 * k20 + A53 * k30 + A54 * k40);
        double k50 = y1 + hs * (0.0 + A51 * k11 + A52 * k21 + A53 * k31 + A54 * k41);
        double k51 = y2 + hs * (0.0 + A51 * k12 + A52 * k22 + A53 * k32 + A54 * k42);
        double k52 = y3 + hs * (0.0 + A51 * k13 + A52 * k23 + A53 * k33 + A54 * k43);
        double k53 = wpow(u, p, &ovf) - a3 * k52 - a2 * k51 - a1 * k50 - a0 * u;

        u = y0 + hs * (0.0 + A61 * k10 + A62 * k20 + A63 * k30 + A64 * k40 + A65 * k50);
        double k60 = y1 + hs * (0.0 + A61 * k11 + A62 * k21 + A63 * k31 + A64 * k41 + A65 * k51);
        double k61 = y2 + hs * (0.0 + A61 * k12 + A62 * k22 + A63 * k32 + A64 * k42 + A65 * k52);
        double k62 = y3 + hs * (0.0 + A61 * k13 + A62 * k23 + A63 * k33 + A64 * k43 + A65 * k53);
        double k63 = wpow(u, p, &ovf) - a3 * k62 - a2 * k61 - a1 * k60 - a0 * u;

        double n0 = y0 + hs * (0.0 + B1 * k10 + B2 * k20 + B3 * k30 + B4 * k40 + B5 * k50 + B6 * k60);
        double n1 = y1 + hs * (0.0 + B1 * k11 + B2 * k21 + B3 * k31 + B4 * k41 + B5 * k51 + B6 * k61);
        double n2 = y2 + hs * (0.0 + B1 * k12 + B2 * k22 + B3 * k32 + B4 * k42 + B5 * k52 + B6 * k62);
        double n3 = y3 + hs * (0.0 + B1 * k13 + B2 * k23 + B3 * k33 + B4 * k43 + B5 * k53 + B6 * k63);
        double k70 = n1, k71 = n2, k72 = n3;
        double k73 = wpow(n0, p, &ovf) - a3 * n3 - a2 * n2 - a1 * n1 - a0 * n0;
        /* Python raises at the first overflowing stage; nothing between
         * that stage and here has an effect outside the step. */
        if (ovf)
            return OVERFLOW;
        if (!(isfinite(n0) && isfinite(n1) && isfinite(n2) && isfinite(n3))) {
            h *= 0.25;
            rejected++;
            continue;
        }

        double q0 = hs * (0.0 + E1 * k10 + E2 * k20 + E3 * k30 + E4 * k40 + E5 * k50 + E6 * k60
                          + E7 * k70) / (atol + rtol * py_max(fabs(y0), fabs(n0)));
        double q1 = hs * (0.0 + E1 * k11 + E2 * k21 + E3 * k31 + E4 * k41 + E5 * k51 + E6 * k61
                          + E7 * k71) / (atol + rtol * py_max(fabs(y1), fabs(n1)));
        double q2 = hs * (0.0 + E1 * k12 + E2 * k22 + E3 * k32 + E4 * k42 + E5 * k52 + E6 * k62
                          + E7 * k72) / (atol + rtol * py_max(fabs(y2), fabs(n2)));
        double q3 = hs * (0.0 + E1 * k13 + E2 * k23 + E3 * k33 + E4 * k43 + E5 * k53 + E6 * k63
                          + E7 * k73) / (atol + rtol * py_max(fabs(y3), fabs(n3)));
        double norm = sqrt((0.0 + q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3) / 4.0);
        if (norm > 1.0) {
            h *= py_max(MIN_FACTOR, SAFETY * pow(norm, -0.2));
            rejected++;
            continue;
        }

        double tn = t + hs;
        double *row = seg + 18 * n++;
        row[0] = t;    row[1] = tn;
        row[2] = y0;   row[3] = y1;   row[4] = y2;   row[5] = y3;
        row[6] = n0;   row[7] = n1;   row[8] = n2;   row[9] = n3;
        row[10] = k10; row[11] = k11; row[12] = k12; row[13] = k13;
        row[14] = k70; row[15] = k71; row[16] = k72; row[17] = k73;
        t = tn; y0 = n0; y1 = n1; y2 = n2; y3 = n3;
        k10 = k70; k11 = k71; k12 = k72; k13 = k73;

        if (y0 > blowup_threshold) {
            status = BLOW_UP;
            break;
        }
        if (y0 < 0.0) {
            status = NON_POSITIVE;
            break;
        }

        double factor;
        if (norm == 0.0) {
            factor = MAX_FACTOR;
        } else {
            factor = SAFETY * pow(norm, -PI_ALPHA) * pow(err_prev, PI_BETA);
            factor = py_min(MAX_FACTOR, py_max(MIN_FACTOR, factor));
            err_prev = norm;
        }
        h *= factor;
    }

    st[0] = t;   st[1] = y0;  st[2] = y1;  st[3] = y2;  st[4] = y3;
    st[5] = k10; st[6] = k11; st[7] = k12; st[8] = k13;
    st[9] = h;   st[10] = err_prev;
    cnt[0] = n;
    cnt[1] = rejected;
    if (status == BLOW_UP || status == NON_POSITIVE)
        bisect(seg + 18 * (n - 1), status == BLOW_UP ? blowup_threshold : 0.0, st);
    if (status == NON_POSITIVE)
        st[1] = py_max(st[1], 0.0);
    return status;
}

/* Radii, in ulps, of the rings, as _FIXED_POINT_RINGS in dynamics.py. */
static const int64_t RINGS[] = {16, 128, 2048};

/* The ring scan of fixed_points around seed, whose residual is best_g.
 * Stores the snapped equilibrium in *best and returns the number of ulps
 * whose residual was evaluated, the seed included, or -1 where a residual
 * below the seed overflows (math.exp raises there). */
int64_t hh_scan(double seed, double best_g, double a0, double p, double *best)
{
    double best_w = seed, best_d = 0.0;
    double lo = seed, hi = seed;
    int64_t scanned = 0;
    int ovf = 0;
    for (int r = 0; r < (int)(sizeof RINGS / sizeof RINGS[0]); r++) {
        if (best_g == 0.0
            && (lo == 0.0 || best_d < seed - nextafter(lo, 0.0))
            && best_d < nextafter(hi, INFINITY) - seed)
            break;
        for (int64_t i = scanned; i < RINGS[r]; i++) {
            lo = nextafter(lo, 0.0);
            double g = fabs(wpow(lo, p, &ovf) - a0 * lo);
            if (g <= best_g && (g < best_g || seed - lo <= best_d)) {
                best_w = lo;
                best_g = g;
                best_d = seed - lo;
            }
        }
        if (ovf)
            return -1;
        for (int64_t i = scanned; i < RINGS[r]; i++) {
            hi = nextafter(hi, INFINITY);
            int skip = 0;
            double g = fabs(wpow(hi, p, &skip) - a0 * hi);
            if (skip)
                continue;
            if (g <= best_g && (g < best_g || hi - seed < best_d)) {
                best_w = hi;
                best_g = g;
                best_d = hi - seed;
            }
        }
        scanned = RINGS[r];
    }
    *best = best_w;
    return 1 + 2 * scanned;
}

/* numpy's order on doubles, NaN last: a sorts before b. */
static int npy_lt(double a, double b) { return a < b || (b != b && a == a); }

/* The dense output of the m segment rows at each of the k times ts, as
 * _dense_py: out, k rows of 4, gets the Hermite value in the first segment
 * whose end is at or past t (np.searchsorted on sgn * ends, side left),
 * the last segment where there is none. */
void hh_dense(const double *seg, int64_t m, const double *ts, int64_t k, double *out)
{
    double sgn = seg[1] < seg[0] ? -1.0 : 1.0;
    for (int64_t j = 0; j < k; j++) {
        double v = sgn * ts[j];
        int64_t lo = 0, hi = m;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if (npy_lt(sgn * seg[18 * mid + 1], v))
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo > m - 1)
            lo = m - 1;
        hermite(ts[j], seg + 18 * lo, 4, out + 4 * j);
    }
}

/* out[i] = exp(x[i]) for the n doubles of x, stopping at the first i where
 * math.exp raises OverflowError (a finite x whose exp is infinite).
 * Returns that i, or -1. */
int64_t hh_exp(const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        out[i] = exp(x[i]);
        if (isinf(out[i]) && isfinite(x[i]))
            return i;
    }
    return -1;
}

/* out[i] = log(x[i]) under math.log's rules: log(inf) = inf, log(nan) is
 * that nan, and x <= 0 (-0.0 and -inf too) raises ValueError, where this
 * loop stops.  Returns that i, or -1. */
int64_t hh_log(const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        double v = x[i];
        if (v <= 0.0)
            return i;
        out[i] = isfinite(v) ? log(v) : v;
    }
    return -1;
}

/* out[i] = x[i]^q = exp(q log x[i]) for x[i] > 0, else 0 (NaN too), for the
 * n doubles of x, stopping at the first i where math.exp raises
 * OverflowError.  Returns that i, or -1. */
int64_t hh_wpow(const double *x, int64_t n, double q, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        int ovf = 0;
        out[i] = wpow(x[i], q, &ovf);
        if (ovf)
            return i;
    }
    return -1;
}

/* Rows of the power-of-5 multipliers passed to hh_rows, as POW5_INV_ROWS
 * and POW5_ROWS in _dp5.py: each row is a 128-bit (low, high) word pair. */
enum { POW5_INV_ROWS = 291, POW5_ROWS = 326 };

/* The 128-bit product a * b from 32-bit halves: the low word, *hi the high. */
static uint64_t umul128(uint64_t a, uint64_t b, uint64_t *hi)
{
    uint64_t a_lo = (uint32_t)a, a_hi = a >> 32, b_lo = (uint32_t)b, b_hi = b >> 32;
    uint64_t b00 = a_lo * b_lo, b01 = a_lo * b_hi, b10 = a_hi * b_lo, b11 = a_hi * b_hi;
    uint64_t mid1 = b10 + (b00 >> 32);
    uint64_t mid2 = b01 + (uint32_t)mid1;
    *hi = b11 + (mid1 >> 32) + (mid2 >> 32);
    return (mid2 << 32) | (uint32_t)b00;
}

/* (m * mul) >> j for the 128-bit multiplier mul, m below 2^55 and
 * 64 < j < 128, where the result fits 64 bits. */
static uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    uint64_t high0, high1;
    uint64_t low1 = umul128(m, mul[1], &high1);
    umul128(m, mul[0], &high0);
    uint64_t sum = high0 + low1;
    if (sum < high0)
        high1++;
    return (high1 << (128 - j)) | (sum >> (j - 64));
}

/* The bit length of 5^e, floor(log10(2^e)) and floor(log10(5^e)), exact for
 * every exponent of a double. */
static int32_t pow5bits(int32_t e) { return (int32_t)((((uint32_t)e * 1217359) >> 19) + 1); }
static int32_t log10_pow2(int32_t e) { return (int32_t)(((uint32_t)e * 78913) >> 18); }
static int32_t log10_pow5(int32_t e) { return (int32_t)(((uint32_t)e * 732923) >> 20); }

/* Whether 5^q divides v. */
static int multiple_of_pow5(uint64_t v, int32_t q)
{
    for (; q > 0; q--, v /= 5)
        if (v % 5)
            return 0;
    return 1;
}

/* The shortest digits of the positive finite double with these IEEE fields
 * that read back as it, nearest to it, ties to even: Ryu (Adams, PLDI
 * 2018), with pow5 as built by _dp5._pow5_rows.  Sets *e10 to the power
 * of ten of the last digit and returns the digits, which never end in 0:
 * the search stops only when the interval holds no multiple of ten. */
static uint64_t shortest(uint64_t ieee_m, int32_t ieee_e, const uint64_t *pow5, int32_t *e10)
{
    int32_t e2;
    uint64_t m2;
    if (ieee_e == 0) {
        e2 = 1 - 1023 - 52 - 2;
        m2 = ieee_m;
    } else {
        e2 = ieee_e - 1023 - 52 - 2;
        m2 = (UINT64_C(1) << 52) | ieee_m;
    }
    /* A bound of the rounding interval reads back as x when m2 is even. */
    int accept = (m2 & 1) == 0;
    uint64_t mv = 4 * m2;
    uint32_t mm_shift = ieee_m != 0 || ieee_e <= 1;
    uint64_t mp = mv + 2, mm = mv - 1 - mm_shift;

    uint64_t vr, vp, vm;
    int vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        int32_t q = log10_pow2(e2) - (e2 > 3);
        const uint64_t *mul = pow5 + 2 * q;
        int32_t j = -e2 + q + 124 + pow5bits(q);
        *e10 = q;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if (q <= 21) {
            /* At most one of mp, mv and mm is a multiple of 5. */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept)
                vm_zeros = multiple_of_pow5(mm, q);
            else
                vp -= (uint64_t)multiple_of_pow5(mp, q);
        }
    } else {
        int32_t q = log10_pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - q;
        const uint64_t *mul = pow5 + 2 * (POW5_INV_ROWS + i);
        int32_t j = q - (pow5bits(i) - 125);
        *e10 = q + e2;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mp, mul, j);
        vm = mul_shift(mm, mul, j);
        if (q <= 1) {
            /* mv has two trailing zero bits, mm one where mm_shift is 1. */
            vr_zeros = 1;
            if (accept)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((UINT64_C(1) << q) - 1)) == 0;
        }
    }

    /* Drop digits while the interval still holds a shorter number. */
    int32_t removed = 0;
    uint64_t out;
    if (vm_zeros || vr_zeros) {
        int last = 0;
        while (vp / 10 > vm / 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (int)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_zeros) {
            while (vm % 10 == 0) {
                vr_zeros &= last == 0;
                last = (int)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4; /* an exact tie: round to even */
        out = vr + ((vr == vm && (!accept || !vm_zeros)) || last >= 5);
    } else {
        int round_up = 0;
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        out = vr + (vr == vm || round_up);
    }
    *e10 += removed;
    return out;
}

/* repr(x) at out, in the layout of Python's float repr: fixed notation for
 * 1e-4 <= |x| < 1e16, with ".0" after an integral value, else d.ddde+XX
 * with at least two exponent digits; 0.0, -0.0, inf, -inf and nan.
 * Returns the bytes written, at most 24. */
static int repr_double(double x, const uint64_t *pow5, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t ieee_m = bits & ((UINT64_C(1) << 52) - 1);
    int32_t ieee_e = (int32_t)((bits >> 52) & 0x7ff);
    char *p = out;
    if (ieee_e == 0x7ff && ieee_m) {
        memcpy(p, "nan", 3);
        return 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (ieee_e == 0x7ff || (ieee_e == 0 && ieee_m == 0)) {
        memcpy(p, ieee_e ? "inf" : "0.0", 3);
        return (int)(p - out) + 3;
    }

    int32_t e10;
    uint64_t v = shortest(ieee_m, ieee_e, pow5, &e10);
    char digits[20];
    int nd = 0;
    for (; v; v /= 10)
        digits[19 - nd++] = (char)('0' + v % 10);
    const char *d = digits + 20 - nd;
    /* x = 0.d1d2... * 10^decpt */
    int decpt = nd + e10;

    if (-4 < decpt && decpt <= 16) {
        if (decpt <= 0) {
            memcpy(p, "0.", 2);
            p += 2;
            memset(p, '0', (size_t)-decpt);
            p += -decpt;
            memcpy(p, d, (size_t)nd);
            p += nd;
        } else if (decpt < nd) {
            memcpy(p, d, (size_t)decpt);
            p += decpt;
            *p++ = '.';
            memcpy(p, d + decpt, (size_t)(nd - decpt));
            p += nd - decpt;
        } else {
            memcpy(p, d, (size_t)nd);
            p += nd;
            memset(p, '0', (size_t)(decpt - nd));
            p += decpt - nd;
            memcpy(p, ".0", 2);
            p += 2;
        }
    } else {
        *p++ = d[0];
        if (nd > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(nd - 1));
            p += nd - 1;
        }
        int e = decpt - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        *p++ = (char)('0' + e / 10 % 10);
        *p++ = (char)('0' + e % 10);
    }
    return (int)(p - out);
}

/* The n lines f"{r!r},{v!r}\n" of _rows_py for the columns r and v,
 * written at out, which needs room for 50 bytes a line.  pow5 holds the
 * POW5_INV_ROWS + POW5_ROWS multipliers of shortest().  Returns the bytes
 * written. */
int64_t hh_rows(const double *r, const double *v, int64_t n, const uint64_t *pow5, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        p += repr_double(r[i], pow5, p);
        *p++ = ',';
        p += repr_double(v[i], pow5, p);
        *p++ = '\n';
    }
    return p - out;
}

/* Rows of the power-of-5 multipliers passed to hh_parse, as POW5_Q_MIN and
 * POW5_Q_ROWS in _dp5.py: row i holds 5^(POW5_Q_MIN + i) as a 128-bit
 * (low, high) word pair. */
enum { POW5_Q_MIN = -342, POW5_Q_ROWS = 651 };

/* The leading zero bits of x > 0. */
static int leading_zeros(uint64_t x)
{
    int n = 0;
    for (int bits = 32; bits; bits /= 2) {
        if (!(x >> (64 - bits))) {
            n += bits;
            x <<= bits;
        }
    }
    return n;
}

/* The double nearest w * 10^q, ties to even, for 0 < w < 10^19 and q in
 * [POW5_Q_MIN, POW5_Q_MIN + POW5_Q_ROWS), with pow5 as built by
 * _dp5._pow5_q_rows: Eisel-Lemire (Lemire, "Number Parsing at a Gigabyte
 * per Second", Softw. Pract. Exp. 2021).  Returns 0, leaving *out alone,
 * where the truncated product is too close to a rounding boundary to
 * decide, or where the double would be subnormal or infinite. */
static int eisel_lemire(uint64_t w, int32_t q, const uint64_t *pow5, double *out)
{
    const uint64_t *mul = pow5 + 2 * (q - POW5_Q_MIN);
    int lz = leading_zeros(w);
    w <<= lz;
    /* The high 128 bits of w * mul; the second product only where the 9
     * low bits of the first, which rounding drops, are all ones. */
    uint64_t hi;
    uint64_t lo = umul128(w, mul[1], &hi);
    if ((hi & 0x1ff) == 0x1ff) {
        uint64_t hi2;
        umul128(w, mul[0], &hi2);
        lo += hi2;
        if (lo < hi2)
            hi++;
    }
    /* What the truncation dropped could still carry into hi, except where
     * the row holds 5^q exactly or as a rounded-up reciprocal. */
    if (lo == UINT64_MAX && (q < -27 || q > 55))
        return 0;
    int upper = (int)(hi >> 63);
    int shift = upper + 9;
    uint64_t m = hi >> shift;
    /* The biased exponent: floor(log2(10^q)) + 63 + 1023 + upper - lz, the
     * floor taken on a non-negative shifted value. */
    int32_t e2 = (int32_t)((217706 * (int64_t)q + (INT64_C(2048) << 16)) >> 16) - 2048
                 + 63 + 1023 + upper - lz;
    if (e2 <= 0)
        return 0;
    /* An exact tie, possible only for these q: round to even. */
    if (lo <= 1 && q >= -4 && q <= 23 && (m & 3) == 1 && (m << shift) == hi)
        m &= ~UINT64_C(1);
    m += m & 1;
    m >>= 1;
    if (m >= UINT64_C(2) << 52) {
        m = UINT64_C(1) << 52;
        e2++;
    }
    if (e2 >= 0x7ff)
        return 0;
    uint64_t bits = (m & ((UINT64_C(1) << 52) - 1)) | (uint64_t)e2 << 52;
    memcpy(out, &bits, sizeof bits);
    return 1;
}

static int is_digit(char c) { return c >= '0' && c <= '9'; }

/* The cell -?digits(.digits)?([eE][+-]?digits)? at *ps, read into *out as
 * float() reads it, with *ps moved past it.  Eisel-Lemire reads up to 19
 * significant digits; strtod reads longer cells and every case
 * Eisel-Lemire leaves.  Returns 0 where *ps does not start such a cell,
 * or where strtod stops elsewhere than at its end (under a locale whose
 * decimal point is not '.').  Every scan stops at the first byte that
 * cannot continue the cell, so a NUL after the buffer bounds them. */
static int read_cell(const char **ps, const uint64_t *pow5, double *out)
{
    const char *cell = *ps, *p = cell;
    int neg = *p == '-';
    p += neg;
    const char *digits = p;
    while (*p == '0')
        p++;
    /* The digits from the first nonzero one, wrapping past 19 of them. */
    const char *first = p;
    uint64_t w = 0;
    for (; is_digit(*p); p++)
        w = 10 * w + (uint64_t)(*p - '0');
    if (p == digits)
        return 0;
    int64_t sig = p - first, q = 0; /* the cell is w * 10^q while sig <= 19 */
    if (*p == '.') {
        digits = ++p;
        if (!sig)
            while (*p == '0')
                p++;
        first = p;
        for (; is_digit(*p); p++)
            w = 10 * w + (uint64_t)(*p - '0');
        if (p == digits)
            return 0;
        sig += p - first;
        q = digits - p;
    }
    if (*p == 'e' || *p == 'E') {
        int eneg = p[1] == '-';
        p += 1 + (p[1] == '-' || p[1] == '+');
        int64_t e = 0;
        /* Past 10^5 every cell is 0 or inf; strtod reads those. */
        for (digits = p; is_digit(*p); p++)
            if (e < 100000)
                e = 10 * e + (*p - '0');
        if (p == digits)
            return 0;
        q += eneg ? -e : e;
    }
    *ps = p;
    double x;
    if (sig == 0) {
        *out = neg ? -0.0 : 0.0;
        return 1;
    }
    if (sig <= 19 && q >= POW5_Q_MIN && q < POW5_Q_MIN + POW5_Q_ROWS
        && eisel_lemire(w, (int32_t)q, pow5, &x)) {
        *out = neg ? -x : x;
        return 1;
    }
    char *end;
    *out = strtod(cell, &end);
    return end == p;
}

/* The 'radius,value' rows of a field file's body: the bytes s[start..len)
 * of a buffer with a NUL at s[len], as a Python bytes object has.  Each
 * line is two read_cell cells joined by ',' and ends in '\n', optional on
 * the last line; empty lines are skipped, as np.loadtxt skips them.  Radii
 * go to r, values to v.  Returns the rows read, or -1 at the first line
 * that is no such row, which np.loadtxt then reads or refuses.  With r and
 * v NULL, returns the room each needs instead: one double more than the
 * body has '\n' bytes. */
int64_t hh_parse(const char *s, int64_t start, int64_t len, const uint64_t *pow5,
                 double *r, double *v)
{
    const char *p = s + start, *end = s + len;
    int64_t n = 0;
    if (!r || !v) {
        while ((p = memchr(p, '\n', (size_t)(end - p))) != NULL) {
            p++;
            n++;
        }
        return n + 1;
    }
    while (p < end) {
        if (*p == '\n') {
            p++;
            continue;
        }
        if (!read_cell(&p, pow5, r + n) || *p++ != ',' || !read_cell(&p, pow5, v + n))
            return -1;
        n++;
        if (*p == '\n')
            p++;
        else if (p != end)
            return -1;
    }
    return n;
}
