/* Compiled kernels of hardyhenon4: the Dormand-Prince 5(4) step loop of
 * integrate and classify over many starts in turn, which ends each orbit
 * at its crossing by bisection and writes the orbit's uniform samples as
 * (t, w0..w3) rows (every grid time not past the orbit's end, then the end
 * point), every orbit's samples packed into one buffer and its segment
 * rows either packed the same way or stepped through a ring, the ulp ring
 * scan of fixed_points, which stops where an error bound for libm's exp,
 * log and pow within SCAN_LIBM_ULPS ulps rules out every ulp left, the
 * dense Hermite output of a trajectory, whose segment search walks from
 * each time's segment to the next, the energy of a stack of states, the
 * monotonicity audit of the energy along an orbit, the elementwise libm
 * exp and log of transform._exp and transform._log, the row writer, which
 * prints k double columns as lines of comma-joined repr()s (a field file's
 * 'radius,value' rows, and each float column of a result table), the
 * reader of a field file's rows, and the grid pass, which gives each
 * (n, alpha, p) of a parameter grid its exponents, coefficients, regime,
 * sign codes and w*.
 *
 * Each but the reader is its Python twin, all of them in _dp5.py:
 * _orbits_py (which loops _steps_py, the twin of the static hh_steps, with
 * _bisect_py), _scan_py (with _scan_bound), _dense_py, _energy_py,
 * _audit_py, _exp_py, _log_py, _rows_py and _grid_py, which loops the
 * scalar path of record it is given.  The reader reads the rows the
 * writer writes, and every cell as float() reads it (Eisel-Lemire, then
 * strtod); its twin _parse_py reads nothing, and np.loadtxt reads every
 * file it leaves.  The row writer prints repr()'s bytes; the others are
 * written out expression for expression: every sum keeps its
 * left-to-right order, its leading 0.0 and its zero weights; w^p is
 * exp(p log w) for w > 0, else 0; powers go through pow; min and max keep
 * Python's tie rules, and numpy's maximum keeps its NaN; exp and log are
 * the libm functions Python's math module calls.  Built with
 * -ffp-contract=off and without -ffast-math, every operation rounds as
 * Python's float does, so both paths give the same bits.  The loader in
 * _dp5.py compiles this file and falls back to the Python twins when it
 * cannot; each enum and #define below is written there too, with the same
 * values.
 */

#include <errno.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "double expressions must round to double at every operation"
#endif

/* Return statuses of hh_steps, and of each orbit of hh_orbits, as END ...
 * OVERFLOW = range(6) in _dp5.py. */
enum { END, BLOW_UP, NON_POSITIVE, FULL, UNDERFLOW, OVERFLOW };

/* Doubles per dense segment row, as SEGMENT_COLUMNS in _dp5.py. */
enum { SEGMENT_COLUMNS = 18 };

/* The lengths of hh_steps' st, prm and cnt, as ST_LEN, PRM_LEN and CNT_LEN
 * in _dp5.py. */
enum { ST_LEN = 11, PRM_LEN = 11, CNT_LEN = 3 };

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

/* Dormand-Prince 5(4) tableau, as _A, _B5 and _E in _dp5.py. */
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
 * yb[0..3], fa[0..3], fb[0..3]) at t, as _hermite in _dp5.py: y[0..3]
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

/* The uniform sample k of uniform_times in dynamics.py: t0 + (sgn k) spacing. */
static double grid_time(double t0, double sgn, int64_t k, double spacing)
{
    return t0 + sgn * (double)k * spacing;
}

/* Accepted steps of the adaptive loop, appended to seg from row cnt[0] on,
 * and the orbit's uniform samples, appended to smp from row cnt[2] on, in
 * the direction sgn from t0 to t1.
 *
 * st (in/out, ST_LEN): t, y0..y3, f0..f3 (the field at y), h, err_prev.
 * prm (PRM_LEN): t1, rtol, atol, p, a0..a3, blowup_threshold, t0, spacing.
 * seg: cap rows of SEGMENT_COLUMNS doubles, (t, t_new, y, y_new, f, f_new)
 * per step.
 * smp: scap sample rows (t, y0..y3), the layout of st[0..4].
 * cnt (in/out, CNT_LEN): rows written, rejected steps, samples written.
 *
 * The samples are every grid time not past the orbit's end, then the end
 * point: sample k, at grid_time k, holds the initial state for k = 0, else
 * the Hermite value in the first step whose end is at or past it; the end
 * point (t_end, y), t_end the orbit's last t, follows unless the last grid
 * sample is at t_end.  Each accepted step writes the samples it holds; the
 * orbit's end drops those a crossing step wrote past t_end.
 *
 * Returns END at t1; BLOW_UP or NON_POSITIVE after the step whose w
 * crossed the threshold or 0.0, its row the last one written, with
 * st[0..4] moved back to the crossing in that row and w clamped at 0.0 on
 * a zero crossing; FULL when seg has no room for a step, or smp none for
 * the samples up to the step's end (call again with larger buffers to
 * go on); UNDERFLOW when the step collapses at st[0]; or OVERFLOW where a
 * stage's w^p overflows.  The samples are whole at every status but FULL
 * and OVERFLOW.
 */
static int hh_steps(double *st, const double *prm, double *seg, int64_t cap, int64_t *cnt,
                    double *smp, int64_t scap)
{
    double t = st[0], y0 = st[1], y1 = st[2], y2 = st[3], y3 = st[4];
    double k10 = st[5], k11 = st[6], k12 = st[7], k13 = st[8];
    double h = st[9], err_prev = st[10];
    const double t1 = prm[0], rtol = prm[1], atol = prm[2];
    const double p = prm[3], a0 = prm[4], a1 = prm[5], a2 = prm[6], a3 = prm[7];
    const double blowup_threshold = prm[8], t0 = prm[9], spacing = prm[10];
    const double sgn = t1 > t0 ? 1.0 : -1.0;
    int64_t n = cnt[0], rejected = cnt[1], k = cnt[2];
    int status = END, ovf = 0;
    /* A step ending within room of t0 holds no sample past row scap - 2,
     * with a row to spare for rounding. */
    const double room = (double)(scap - 3) * spacing;

    if (k == 0 && scap > 0) {
        memcpy(smp, st, 5 * sizeof *smp);
        smp[0] = grid_time(t0, sgn, k++, spacing);
    }
    while (sgn * (t1 - t) > 0.0) {
        if (n == cap) {
            status = FULL;
            break;
        }
        h = py_min(h, fabs(t1 - t));
        if (fabs(t + sgn * h - t0) > room) {
            status = FULL;
            break;
        }
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
        double *row = seg + SEGMENT_COLUMNS * n++;
        row[0] = t;    row[1] = tn;
        row[2] = y0;   row[3] = y1;   row[4] = y2;   row[5] = y3;
        row[6] = n0;   row[7] = n1;   row[8] = n2;   row[9] = n3;
        row[10] = k10; row[11] = k11; row[12] = k12; row[13] = k13;
        row[14] = k70; row[15] = k71; row[16] = k72; row[17] = k73;
        t = tn; y0 = n0; y1 = n1; y2 = n2; y3 = n3;
        k10 = k70; k11 = k71; k12 = k72; k13 = k73;
        for (double tk; k < scap && sgn * (tk = grid_time(t0, sgn, k, spacing)) <= sgn * tn; k++) {
            smp[5 * k] = tk;
            hermite(tk, row, 4, smp + 5 * k + 1);
        }

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
    cnt[0] = n;  cnt[1] = rejected;
    if (status == BLOW_UP || status == NON_POSITIVE)
        bisect(seg + SEGMENT_COLUMNS * (n - 1), status == BLOW_UP ? blowup_threshold : 0.0, st);
    if (status == NON_POSITIVE)
        st[1] = py_max(st[1], 0.0);
    if (k > 0 && status != FULL) {
        /* Sample 0 is never past the end; the room check leaves a row for
         * the end point, and k < scap only bounds the write should it not. */
        while (k > 1 && sgn * smp[5 * (k - 1)] > sgn * st[0])
            k--;
        if (smp[5 * (k - 1)] != st[0] && k < scap)
            memcpy(smp + 5 * k++, st, 5 * sizeof *smp);
    }
    cnt[2] = k;
    return status;
}

/* hh_steps for k starts in turn, all with the parameters prm: orbit i
 * steps from st row i (in/out, ST_LEN doubles each) with cnt row i
 * (in/out, CNT_LEN each; zeros for a fresh start) and gets its status in
 * status[i].
 *
 * The segment rows of each orbit follow those of the one before in seg
 * (cap rows) where keep is set.  Else seg is a ring: where it fills, the
 * row count restarts at 0.  hh_steps reads only the last row written, for
 * the crossing and for that step's samples, so no orbit needs more.  The
 * samples of each orbit follow those of the one before in smp (scap rows),
 * from row 0 on.  An orbit ends with its count of kept segment rows in
 * cnt[0], 0 for a ring.  An OVERFLOW orbit keeps no segment row, no sample
 * and no rejected step.
 *
 * Returns k when every orbit has ended, else the index of the orbit whose
 * kept segment rows or samples found no room (FULL): the caller passes
 * that orbit and the rest again, its st and cnt rows as left, with a
 * larger buffer for its rows or samples and those after. */
int64_t hh_orbits(double *st, const double *prm, int64_t k, int keep, double *seg, int64_t cap,
                  int64_t *cnt, int64_t *status, double *smp, int64_t scap)
{
    int64_t rows = 0, used = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t *c = cnt + CNT_LEN * i;
        int s;
        while ((s = hh_steps(st + ST_LEN * i, prm, seg + SEGMENT_COLUMNS * rows, cap - rows, c,
                             smp + 5 * used, scap - used)) == FULL && !keep && c[0] == cap)
            c[0] = 0;
        if (s == FULL)
            return i;
        if (s == OVERFLOW)
            c[0] = c[1] = c[2] = 0;
        if (!keep)
            c[0] = 0; /* a ring's row count is no orbit's */
        status[i] = s;
        rows += c[0];
        used += c[2];
    }
    return k;
}

/* The rings of the scan double from SCAN_FIRST_RING ulps to SCAN_WINDOW,
 * the window's radius; the stop rule allows libm's exp and log, and the
 * pow behind the seed, SCAN_LIBM_ULPS ulps of error.  As the constants of
 * the same names in _dp5.py. */
enum { SCAN_FIRST_RING = 16, SCAN_WINDOW = 2048, SCAN_LIBM_ULPS = 4 };

/* The stop rule of the scan around seed = a0 ** (1/(p-1)), as _scan_bound:
 * no ulp w of the window with k * tau > best_g + c, where
 * tau = |w - seed| / max(w, seed), has a computed residual
 * |exp(p*log(w)) - a0*w| at or below best_g.  Sets k = c = 0, which
 * closes nothing, outside the range the rule covers.
 *
 * Why.  Let u = 2^-53, N = SCAN_LIBM_ULPS, and w_r the exact root, with
 * w_r^(p-1) = a0.  In the normal range an N-ulp error is a relative one of
 * at most 2Nu; the range test keeps the seed, a0*w and w^p there.
 * - L (big_l) >= |ln w| over the window and at w_r: from seed's exponent
 *   e, each such w lies in [2^(e-1), 2^e] up to a factor 1 +- 2^-40.
 * - The seed: p - 1 and 1/(p-1) round by u each and pow errs by 2Nu, so
 *   |ln(seed/w_r)| <= 3u L + 2Nu + O(u^2) <= rho.
 * - The exact residual is a0 w |R - 1| with R = (w/w_r)^(p-1).  As
 *   |ln(w/seed)| >= tau and the window spans |ln(w/seed)| <= 2^-41,
 *   |R - 1| >= (p-1)(tau - rho) e^(-z) and R <= e^z.
 * - The computed residual: exp(p*log(w)) = w^p (1 + e3) e^t with
 *   |e3| <= 2Nu and |t| <= d (log's error and the rounding of p*log);
 *   a0*w rounds by u, and the difference by a factor 1 - u.
 * So residual / (a0 w (1 - u))
 *   >= (p-1)(tau - rho) e^(-z) - e^z ((1 + 2Nu) e^d - 1) - u
 *   >= (p-1) tau (1 - 2^-20) - ((p-1) rho + (2N+1) u + d)(1 + 2^-17)
 * for z, d < 2^-20.  k and c are a0*seed times those two terms, with
 * 1 -+ 1e-5 in place of the factors, which leaves room for w/seed and for
 * every rounding of k, c and the comparison. */
static void scan_bound(double seed, double a0, double p, double *k, double *c)
{
    double scale = a0 * seed;
    *k = *c = 0.0;
    if (!(p > 1.0 && 0x1p-1000 <= seed && seed <= 0x1p1000
          && 0x1p-1000 <= scale && scale <= 0x1p1000))
        return;
    int n = SCAN_LIBM_ULPS, e;
    double u = 0x1p-53;
    frexp(seed, &e);
    double big_l = (e > 1 - e ? e : 1 - e) * 0.6932;
    double rho = 3.0 * u * (big_l + 1.0) + 2.0 * n * u;
    double z = (p - 1.0) * (0x1p-40 + rho);
    double d = p * big_l * (2 * n + 1) * u * (1.0 + 4 * n * u);
    if (!(z < 0x1p-20 && d < 0x1p-20))
        return;
    *k = (p - 1.0) * scale * (1.0 - 1e-5);
    *c = ((p - 1.0) * rho + (2 * n + 1) * u + d) * scale * (1.0 + 1e-5);
}

/* The ring scan of fixed_points around seed = a0 ** (1/(p-1)), whose
 * residual is best_g, as _scan_py.  Before each ring it stops if best_g is
 * an exact zero nearer the seed than the next ulp on both sides, and it
 * closes a side whose next ulp is past scan_bound's bound; a closed side
 * stays closed, since best_g only falls.  Stores the snapped equilibrium
 * in *best and returns the number of ulps whose residual was evaluated,
 * the seed included, or -1 where a residual below the seed overflows
 * (math.exp raises there). */
int64_t hh_scan(double seed, double best_g, double a0, double p, double *best)
{
    double best_w = seed, best_d = 0.0;
    double lo = seed, hi = seed;
    int64_t below = 0, above = 0;
    int ovf = 0;
    double k, c;
    scan_bound(seed, a0, p, &k, &c);
    for (int64_t ring = SCAN_FIRST_RING; ring <= SCAN_WINDOW; ring *= 2) {
        if (best_g == 0.0
            && (lo == 0.0 || best_d < seed - nextafter(lo, 0.0))
            && best_d < nextafter(hi, INFINITY) - seed)
            break;
        if (!(k * ((seed - nextafter(lo, 0.0)) / seed) > best_g + c)) {
            for (int64_t i = below; i < ring; i++) {
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
            below = ring;
        }
        if (!(k * ((nextafter(hi, INFINITY) - seed) / nextafter(hi, INFINITY)) > best_g + c)) {
            for (int64_t i = above; i < ring; i++) {
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
            above = ring;
        }
    }
    *best = best_w;
    return 1 + below + above;
}

/* Row statuses of hh_grid, as ROW_OK ... ROW_SCALAR in _dp5.py: a triple
 * of the problem; one ProblemParams refuses; one whose coefficients
 * overflow a double; one whose equilibrium overflows; one the kernel
 * leaves to the scalar path. */
#define ROW_OK 0
#define ROW_INVALID 1
#define ROW_OVERFLOW 2
#define ROW_EQUILIBRIUM_OVERFLOW 3
#define ROW_SCALAR 4

/* Regime codes, as REGIME_OUT_OF_RANGE ... in _dp5.py, and p's distance
 * from the Hardy-Sobolev exponent below which it is critical, as
 * params.CRITICALITY_TOL. */
#define REGIME_OUT_OF_RANGE 0
#define REGIME_SUBCRITICAL 1
#define REGIME_CRITICAL 2
#define REGIME_SUPERCRITICAL 3
#define CRITICALITY_TOL 1e-12

/* Codes and values per row of hh_grid, as GRID_CODES and GRID_VALUES in
 * _dp5.py. */
#define GRID_CODES 5
#define GRID_VALUES 11

/* x ** y as Python's float power computes it for a finite x >= 0 and a
 * finite y != 0: libm's pow, with *raised set where Python raises
 * OverflowError, at an infinite result or one libm flagged in errno that
 * is not 0.  y is volatile so that the compiler cannot fold pow(x, 2.0)
 * into x * x, which pow need not equal. */
static double py_pow(double x, volatile double y, int *raised)
{
    errno = 0;
    double r = pow(x, y);
    if (isinf(r) || (errno != 0 && r != 0.0))
        *raised = 1;
    return r;
}

/* params._sign_tag as a code: 0 where |x| <= 1e-12 scale, else x's sign. */
static int64_t sign_code(double x, double scale)
{
    if (fabs(x) <= 1e-12 * scale)
        return 0;
    return x > 0.0 ? 1 : -1;
}

/* One grid triple (n, alpha, p) as experiments._scalar_row computes it:
 * ProblemParams' checks, critical_exponents, coefficients, the regime and
 * the sign tags of classify_regime, and fixed_points' w* (_snap).  Fills
 * c[1..4] (the regime, then the sign codes of a0, a1 and a3) and v (the
 * four exponents, B, a0..a4 and w*), and returns the status, c[0].  A
 * value the status leaves out is NaN and a code 0; w* is NaN where a0 <= 0
 * too.  A NaN n marks a triple whose arithmetic in doubles is not the
 * scalar path's (see _grid_args in _dp5.py), or a NaN n of the grid: that
 * row is ROW_SCALAR, and the scalar path decides it. */
static int64_t grid_row(const double *t, int64_t *c, double *v)
{
    double n = t[0], alpha = t[1], p = t[2];
    for (int j = 1; j < GRID_CODES; j++)
        c[j] = 0;
    for (int j = 0; j < GRID_VALUES; j++)
        v[j] = NAN;
    if (isnan(n))
        return ROW_SCALAR;
    if (isinf(n) || n != trunc(n) || !(n > 4.0) || !(alpha > -4.0) || !(p > 1.0)
        || !isfinite(alpha) || !isfinite(p))
        return ROW_INVALID;

    double d = n - 4.0;
    double serrin = (n + alpha) / d, hardy_sobolev = (n + 4.0 + 2.0 * alpha) / d;
    int raised = 0;
    double B = (4.0 + alpha) / (p - 1.0);
    double q = n * n - 10.0 * n + 20.0;
    double b2 = py_pow(B, 2.0, &raised), b3 = py_pow(B, 3.0, &raised);
    double b4 = py_pow(B, 4.0, &raised);
    double a0 = b4 - 2.0 * (n - 4.0) * b3 + q * b2 + 2.0 * (n - 2.0) * (n - 4.0) * B;
    double a1 = -4.0 * b3 + 6.0 * (n - 4.0) * b2 - 2.0 * q * B - 2.0 * (n - 2.0) * (n - 4.0);
    double a2 = 6.0 * b2 - 6.0 * (n - 4.0) * B + q;
    double a3 = -4.0 * B + 2.0 * n - 8.0;
    double a4 = 2.0 * b2 - 2.0 * (n - 4.0) * B - 2.0 * (n - 4.0);
    if (raised || !(isfinite(B) && isfinite(a0) && isfinite(a1) && isfinite(a2)
                    && isfinite(a3) && isfinite(a4)))
        return ROW_OVERFLOW;

    v[0] = serrin;
    v[1] = hardy_sobolev;
    v[2] = (n + 4.0) / d;
    v[3] = (n + 4.0 + alpha) / d;
    v[4] = B;   v[5] = a0;  v[6] = a1;  v[7] = a2;  v[8] = a3;  v[9] = a4;
    if (p <= serrin)
        c[1] = REGIME_OUT_OF_RANGE;
    else if (fabs(p - hardy_sobolev) < CRITICALITY_TOL)
        c[1] = REGIME_CRITICAL;
    else
        c[1] = p < hardy_sobolev ? REGIME_SUBCRITICAL : REGIME_SUPERCRITICAL;
    double scale = 1.0 + fabs(a2);
    c[2] = sign_code(a0, scale);
    c[3] = sign_code(a1, scale);
    c[4] = sign_code(a3, scale);

    if (!(a0 > 0.0))
        return ROW_OK;
    double seed = py_pow(a0, 1.0 / (p - 1.0), &raised);
    if (raised)
        return ROW_EQUILIBRIUM_OVERFLOW;
    double best_g = fabs(wpow(seed, p, &raised) - a0 * seed);
    if (raised || hh_scan(seed, best_g, a0, p, v + 10) < 0)
        return ROW_EQUILIBRIUM_OVERFLOW;
    return ROW_OK;
}

/* The k grid triples, rows of (n, alpha, p), each as grid_row: row i of
 * codes (GRID_CODES) gets its status, its regime and its sign codes, row i
 * of values (GRID_VALUES) the exponents, B, a0..a4 and w*. */
void hh_grid(const double *triples, int64_t k, int64_t *codes, double *values)
{
    for (int64_t i = 0; i < k; i++) {
        int64_t *c = codes + GRID_CODES * i;
        c[0] = grid_row(triples + 3 * i, c, values + GRID_VALUES * i);
    }
}

/* numpy's order on doubles, NaN last: a sorts before b. */
static int npy_lt(double a, double b) { return a < b || (b != b && a == a); }

/* Whether sgn times the end of segment row i sorts before v. */
static int end_below(const double *seg, int64_t i, double sgn, double v)
{
    return npy_lt(sgn * seg[SEGMENT_COLUMNS * i + 1], v);
}

/* The first of the m segment rows whose sgn * end is not below v in numpy's
 * order, m where there is none: np.searchsorted on sgn * ends, side left.
 * The search starts at row j: it gallops away from j, doubling its stride,
 * to bracket the answer, then bisects the bracket, so an answer d rows
 * from j costs O(log d) steps. */
static int64_t walk(const double *seg, int64_t m, double sgn, double v, int64_t j)
{
    int64_t lo, hi, stride = 1;
    /* The answer lies in [lo, hi]: row lo - 1 is below v, row hi is not
     * or is m. */
    if (j < m && end_below(seg, j, sgn, v)) {
        lo = hi = j + 1;
        while (hi < m && end_below(seg, hi, sgn, v)) {
            lo = hi + 1;
            hi += stride;
            stride *= 2;
        }
        if (hi > m)
            hi = m;
    } else {
        hi = j;
        int64_t probe = j - 1;
        while (probe >= 0 && !end_below(seg, probe, sgn, v)) {
            hi = probe;
            probe -= stride;
            stride *= 2;
        }
        lo = probe < 0 ? 0 : probe + 1;
    }
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (end_below(seg, mid, sgn, v))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The dense output of the m segment rows at each of the k times ts, as
 * _dense_py: out, k rows of 4, gets the Hermite value in the first segment
 * whose end is at or past t (np.searchsorted on sgn * ends, side left),
 * the last segment where there is none.  Each time's search walks from
 * the previous time's segment, so times in order cost O(k + m). */
void hh_dense(const double *seg, int64_t m, const double *ts, int64_t k, double *out)
{
    double sgn = seg[1] < seg[0] ? -1.0 : 1.0;
    int64_t i = 0;
    for (int64_t j = 0; j < k; j++) {
        i = walk(seg, m, sgn, sgn * ts[j], i);
        hermite(ts[j], seg + SEGMENT_COLUMNS * (i < m ? i : m - 1), 4, out + 4 * j);
    }
}

/* The energy measure * e(y) of one state y = (w0, w1, w2, w3), as
 * _energy_py: e = w3 w1 - w2^2/2 + a3 w2 w1 + a2 w1^2/2 + a0 w0^2/2
 * - w0^q/q with q = p + 1.  Sets *ovf where w0^q overflows (math.exp
 * raises there). */
static double energy_at(const double *y, double a0, double a2, double a3, double q,
                        double measure, int *ovf)
{
    double w0 = y[0], w1 = y[1], w2 = y[2], w3 = y[3];
    double bracket = w3 * w1 - 0.5 * w2 * w2 + a3 * w2 * w1 + 0.5 * a2 * w1 * w1
                     + 0.5 * a0 * w0 * w0 - wpow(w0, q, ovf) / q;
    return measure * bracket;
}

/* The energy of each of the k rows of 4 of rows, as _energy_py.  Returns 1,
 * and stops, where some w0^(p+1) overflows (math.exp raises there), else 0;
 * its wrapper raises that OverflowError. */
int hh_energy(const double *rows, int64_t k, double a0, double a2, double a3, double p,
              double measure, double *out)
{
    double q = p + 1.0;
    int ovf = 0;
    for (int64_t i = 0; i < k && !ovf; i++)
        out[i] = energy_at(rows + 4 * i, a0, a2, a3, q, measure, &ovf);
    return ovf;
}

/* The finite-difference step of the monotonicity audit and its allowance
 * per increment, a few ulps of the energy's magnitude; as FD_STEP and
 * ULP_ALLOWANCE in _dp5.py. */
static const double FD_STEP = 1e-3, ULP_ALLOWANCE = 4.0 * DBL_EPSILON;

/* np.maximum(a, b): a where a >= b or a is NaN, else b, so a NaN stays. */
static double np_max(double a, double b) { return a >= b || a != a ? a : b; }

/* Row i in increasing t of the k rows of 4 of rows, stored with t
 * decreasing where backward is set. */
static const double *nth_row(const double *rows, int64_t k, int backward, int64_t i)
{
    return rows + 4 * (backward ? k - 1 - i : i);
}

/* The monotonicity audit of energy.audit_monotonicity, as _audit_py.
 *
 * rows: the k audited samples in storage order, with t decreasing along
 * them where backward is set; row i below counts in increasing t.
 * stencil: 2m rows of 4, the dense output at t + FD_STEP of the m
 * samples from row first on, then at t - FD_STEP of the same samples.
 *
 * out[0] gets the largest increment of the energy E between consecutive
 * rows in the direction the regime forbids (an increase, a decrease where
 * supercritical is set), less ULP_ALLOWANCE times the largest of its two
 * |E| and 1.0;
 * out[1] the largest |fd - rate| / (1 + |rate|), fd the centered
 * difference of E over the stencil and rate the exact dE/dt at the sample.
 * Each maximum starts at 0.0 and keeps a NaN, as np.max does.  Returns 1
 * where some w0^(p+1) overflows (math.exp raises there), else 0. */
int hh_audit(const double *rows, int64_t k, int backward, const double *stencil, int64_t m,
             int64_t first, double a0, double a1, double a2, double a3, double p,
             double measure, int supercritical, double *out)
{
    double q = p + 1.0;
    int ovf = 0;
    double violation = 0.0, ea = 0.0;
    for (int64_t i = 0; i < k; i++) {
        double eb = energy_at(nth_row(rows, k, backward, i), a0, a2, a3, q, measure, &ovf);
        if (i > 0) {
            double inc = supercritical ? -(eb - ea) : eb - ea;
            double allowance = ULP_ALLOWANCE * np_max(np_max(fabs(ea), fabs(eb)), 1.0);
            violation = np_max(violation, inc - allowance);
        }
        ea = eb;
    }

    double mismatch = 0.0;
    for (int64_t j = 0; j < m; j++) {
        double fd = (energy_at(stencil + 4 * j, a0, a2, a3, q, measure, &ovf)
                     - energy_at(stencil + 4 * (m + j), a0, a2, a3, q, measure, &ovf))
                    / (2.0 * FD_STEP);
        const double *y = nth_row(rows, k, backward, first + j);
        double rate = measure * (a3 * y[2] * y[2] - a1 * y[1] * y[1]);
        mismatch = np_max(mismatch, fabs(fd - rate) / (1.0 + fabs(rate)));
    }
    out[0] = violation;
    out[1] = mismatch;
    return ovf;
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

/* Rows of the power-of-5 multipliers passed to hh_rows, as POW5_INV_ROWS
 * and POW5_ROWS in _dp5.py: each row is a 128-bit (low, high) word pair. */
enum { POW5_INV_ROWS = 291, POW5_ROWS = 326 };

/* The 128-bit product a * b from 32-bit halves: the low word, *hi the high.
 * Inline, as its callers sit on the row writer's and reader's hot paths. */
static inline uint64_t umul128(uint64_t a, uint64_t b, uint64_t *hi)
{
    uint64_t a_lo = (uint32_t)a, a_hi = a >> 32, b_lo = (uint32_t)b, b_hi = b >> 32;
    uint64_t b00 = a_lo * b_lo, b01 = a_lo * b_hi, b10 = a_hi * b_lo, b11 = a_hi * b_hi;
    uint64_t mid1 = b10 + (b00 >> 32);
    uint64_t mid2 = b01 + (uint32_t)mid1;
    *hi = b11 + (mid1 >> 32) + (mid2 >> 32);
    return (mid2 << 32) | (uint32_t)b00;
}

/* The 128-bit value (hi, lo) shifted right by 0 < dist < 64, low word. */
static uint64_t shift_right128(uint64_t lo, uint64_t hi, int32_t dist)
{
    return (hi << (64 - dist)) | (lo >> dist);
}

/* (4 m * mul) >> j as the return value, ((4 m + 2) * mul) >> j at *vp and
 * ((4 m - 1 - mm_shift) * mul) >> j at *vm, for the 128-bit multiplier
 * mul, m below 2^54 and 65 < j < 128: all three from the two 64x64-bit
 * products of 2m * mul, as Ryu's mulShiftAll64 does without a 128-bit
 * type. */
static uint64_t mul_shift_all(uint64_t m, const uint64_t *mul, int32_t j, uint64_t *vp,
                              uint64_t *vm, uint32_t mm_shift)
{
    m <<= 1;
    /* 2m * mul as the 192-bit (hi, mid, lo). */
    uint64_t tmp, hi;
    uint64_t lo = umul128(m, mul[0], &tmp);
    uint64_t mid = tmp + umul128(m, mul[1], &hi);
    hi += mid < tmp;

    /* (2m + 1) * mul */
    uint64_t lo2 = lo + mul[0];
    uint64_t mid2 = mid + mul[1] + (lo2 < lo);
    uint64_t hi2 = hi + (mid2 < mid);
    *vp = shift_right128(mid2, hi2, j - 65);

    if (mm_shift == 1) {
        /* (2m - 1) * mul */
        uint64_t lo3 = lo - mul[0];
        uint64_t mid3 = mid - mul[1] - (lo3 > lo);
        uint64_t hi3 = hi - (mid3 > mid);
        *vm = shift_right128(mid3, hi3, j - 65);
    } else {
        /* (4m - 1) * mul */
        uint64_t lo3 = lo + lo;
        uint64_t mid3 = mid + mid + (lo3 < lo);
        uint64_t hi3 = hi + hi + (mid3 < mid);
        uint64_t lo4 = lo3 - mul[0];
        uint64_t mid4 = mid3 - mul[1] - (lo4 > lo3);
        uint64_t hi4 = hi3 - (mid4 > mid3);
        *vm = shift_right128(mid4, hi4, j - 64);
    }
    return shift_right128(mid, hi, j - 65);
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

    uint64_t vr, vp, vm;
    int vm_zeros = 0, vr_zeros = 0;
    if (e2 >= 0) {
        int32_t q = log10_pow2(e2) - (e2 > 3);
        const uint64_t *mul = pow5 + 2 * q;
        int32_t j = -e2 + q + 124 + pow5bits(q);
        *e10 = q;
        vr = mul_shift_all(m2, mul, j, &vp, &vm, mm_shift);
        if (q <= 21) {
            /* At most one of mv + 2, mv and mv - 1 - mm_shift is a
             * multiple of 5. */
            if (mv % 5 == 0)
                vr_zeros = multiple_of_pow5(mv, q);
            else if (accept)
                vm_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= (uint64_t)multiple_of_pow5(mv + 2, q);
        }
    } else {
        int32_t q = log10_pow5(-e2) - (-e2 > 1);
        int32_t i = -e2 - q;
        const uint64_t *mul = pow5 + 2 * (POW5_INV_ROWS + i);
        int32_t j = q - (pow5bits(i) - 125);
        *e10 = q + e2;
        vr = mul_shift_all(m2, mul, j, &vp, &vm, mm_shift);
        if (q <= 1) {
            /* mv has two trailing zero bits, mv - 2 one where mm_shift is 1. */
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
        /* The common case: no trailing zeros to track, so two digits go
         * at a time while the interval allows, then at most one more. */
        int round_up = 0;
        while (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        if (vp / 10 > vm / 10) {
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

/* The powers of ten below 10^17, the bound of shortest()'s digits. */
static const uint64_t POW10[17] = {
    UINT64_C(1), UINT64_C(10), UINT64_C(100), UINT64_C(1000), UINT64_C(10000),
    UINT64_C(100000), UINT64_C(1000000), UINT64_C(10000000), UINT64_C(100000000),
    UINT64_C(1000000000), UINT64_C(10000000000), UINT64_C(100000000000),
    UINT64_C(1000000000000), UINT64_C(10000000000000), UINT64_C(100000000000000),
    UINT64_C(1000000000000000), UINT64_C(10000000000000000),
};

/* "00" "01" ... "99": two digits per table entry. */
static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The count low decimal digits of v, written in pairs so that they end
 * just before end.  Returns v with those digits dropped. */
static uint64_t put_digits(char *end, uint64_t v, int count)
{
    for (; count >= 2; count -= 2) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (v % 100), 2);
        v /= 100;
    }
    if (count) {
        *--end = (char)('0' + v % 10);
        v /= 10;
    }
    return v;
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
    /* The digit count, from the top: most doubles print 16 or 17. */
    int nd = 17;
    while (nd > 1 && v < POW10[nd - 1])
        nd--;
    /* x = 0.d1d2... * 10^decpt */
    int decpt = nd + e10;

    if (-4 < decpt && decpt <= 16) {
        if (decpt <= 0) {
            memcpy(p, "0.0000", (size_t)(2 - decpt));
            p += 2 - decpt + nd;
            put_digits(p, v, nd);
        } else if (decpt < nd) {
            v = put_digits(p + nd + 1, v, nd - decpt);
            p[decpt] = '.';
            put_digits(p + decpt, v, decpt);
            p += nd + 1;
        } else {
            p += nd;
            put_digits(p, v, nd);
            memset(p, '0', (size_t)(decpt - nd));
            p += decpt - nd;
            memcpy(p, ".0", 2);
            p += 2;
        }
    } else {
        v = put_digits(p + nd + 1, v, nd - 1);
        p[0] = (char)('0' + v);
        if (nd > 1) {
            p[1] = '.';
            p += nd + 1;
        } else {
            p++;
        }
        int e = decpt - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100)
            *p++ = (char)('0' + e / 100);
        memcpy(p, DIGIT_PAIRS + 2 * (e % 100), 2);
        p += 2;
    }
    return (int)(p - out);
}

/* The n lines of _rows_py for the k >= 1 columns cols[0..k), each line the
 * repr()s of row i's k cells joined by commas, written at out, which
 * needs room for 25 bytes a cell.  pow5 holds the POW5_INV_ROWS +
 * POW5_ROWS multipliers of shortest().  Returns the bytes written. */
int64_t hh_rows(const double *const *cols, int64_t k, int64_t n, const uint64_t *pow5, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < k; j++) {
            p += repr_double(cols[j][i], pow5, p);
            *p++ = ',';
        }
        p[-1] = '\n';
    }
    return p - out;
}

/* Rows of the power-of-5 multipliers passed to hh_parse, as POW5_Q_MIN and
 * POW5_Q_ROWS in _dp5.py: row i holds 5^(POW5_Q_MIN + i) as a 128-bit
 * (low, high) word pair. */
enum { POW5_Q_MIN = -342, POW5_Q_ROWS = 651 };

/* The leading zero bits of 0 < x < 10^19, without a branch: the exponent
 * of x as a double, less one where rounding carried x up to the next
 * power of two. */
static int leading_zeros(uint64_t x)
{
    double d = (double)x;
    uint64_t bits;
    memcpy(&bits, &d, sizeof bits);
    int e = (int)(bits >> 52) - 1023;
    return 63 - e + ((x >> e) == 0);
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

/* The 8 bytes at p as a word, p[0] in the low byte, on any byte order. */
static uint64_t load8(const char *p)
{
    const unsigned char *b = (const unsigned char *)p;
    return (uint64_t)b[0] | (uint64_t)b[1] << 8 | (uint64_t)b[2] << 16 | (uint64_t)b[3] << 24
           | (uint64_t)b[4] << 32 | (uint64_t)b[5] << 40 | (uint64_t)b[6] << 48
           | (uint64_t)b[7] << 56;
}

/* Whether each byte of the word is an ASCII digit: adding 0x46 carries
 * into the top bit of a byte above '9', subtracting 0x30 borrows into it
 * below '0' (Lemire, "Number Parsing at a Gigabyte per Second"). */
static int eight_digits(uint64_t word)
{
    return (((word + UINT64_C(0x4646464646464646)) | (word - UINT64_C(0x3030303030303030)))
            & UINT64_C(0x8080808080808080)) == 0;
}

/* The value of the 8 digits of the word, its low byte first, in three
 * multiplies: pairs, then groups of four, then all eight. */
static uint64_t eight_digit_value(uint64_t word)
{
    const uint64_t mask = UINT64_C(0x000000ff000000ff);
    const uint64_t mul1 = UINT64_C(0x000f424000000064); /* 100 + (1000000 << 32) */
    const uint64_t mul2 = UINT64_C(0x0000271000000001); /* 1 + (10000 << 32) */
    word -= UINT64_C(0x3030303030303030);
    word = word * 10 + (word >> 8);
    return (((word & mask) * mul1) + (((word >> 16) & mask) * mul2)) >> 32;
}

/* The digits at *p into w, as w = 10 w + d for each, wrapping mod 2^64:
 * eight at a time while 8 bytes remain before end, then one at a time.
 * Moves *p past them. */
static uint64_t read_digits(const char **p, const char *end, uint64_t w)
{
    const char *s = *p;
    uint64_t word;
    while (end - s >= 8 && eight_digits(word = load8(s))) {
        w = w * 100000000 + eight_digit_value(word);
        s += 8;
    }
    for (; is_digit(*s); s++)
        w = 10 * w + (uint64_t)(*s - '0');
    *p = s;
    return w;
}

/* The cell -?digits(.digits)?([eE][+-]?digits)? at *ps, read into *out as
 * float() reads it, with *ps moved past it.  Eisel-Lemire reads up to 19
 * significant digits; strtod reads longer cells and every case
 * Eisel-Lemire leaves.  Returns 0 where *ps does not start such a cell,
 * or where strtod stops elsewhere than at its end (under a locale whose
 * decimal point is not '.').  Every scan stops at the first byte that
 * cannot continue the cell, so a NUL at end bounds them; only whole
 * words before end are read 8 bytes at a time. */
static int read_cell(const char **ps, const char *end, const uint64_t *pow5, double *out)
{
    const char *cell = *ps, *p = cell;
    int neg = *p == '-';
    p += neg;
    const char *digits = p;
    while (*p == '0')
        p++;
    /* The digits from the first nonzero one, wrapping past 19 of them. */
    const char *first = p;
    uint64_t w = read_digits(&p, end, 0);
    if (p == digits)
        return 0;
    int64_t sig = p - first, q = 0; /* the cell is w * 10^q while sig <= 19 */
    if (*p == '.') {
        digits = ++p;
        if (!sig)
            while (*p == '0')
                p++;
        first = p;
        w = read_digits(&p, end, w);
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
    char *stop;
    *out = strtod(cell, &stop);
    return stop == p;
}

/* The 'radius,value' rows of a field file's body: the bytes s[start..len)
 * of a buffer with a NUL at s[len], as a Python bytes object has.  Each
 * line is two read_cell cells joined by ',' and ends in '\n', optional on
 * the last line; empty lines are skipped, as np.loadtxt skips them.  Radii
 * go to r, values to v.  Returns the rows read, or -1 at the first line
 * that is no such row, which np.loadtxt then reads or refuses.  r and v
 * need room for one double more than the body has '\n' bytes. */
int64_t hh_parse(const char *s, int64_t start, int64_t len, const uint64_t *pow5,
                 double *r, double *v)
{
    const char *p = s + start, *end = s + len;
    int64_t n = 0;
    while (p < end) {
        if (*p == '\n') {
            p++;
            continue;
        }
        if (!read_cell(&p, end, pow5, r + n) || *p++ != ','
            || !read_cell(&p, end, pow5, v + n))
            return -1;
        n++;
        if (*p == '\n')
            p++;
        else if (p != end)
            return -1;
    }
    return n;
}
