import dataclasses
import math
import re
import struct
import warnings
from decimal import Decimal

import numpy as np
import pytest

from hardyhenon4 import _dp5
from hardyhenon4.params import ProblemParams, coefficients
from hardyhenon4.dynamics import (
    analytic_trajectory,
    equilibrium_trajectory,
    fixed_points,
    mode_trajectory,
)
from hardyhenon4.green import (
    IntegrabilityError,
    RadialField,
    _cumulative_up,
    _panel_increments,
    _project_span,
    bilaplacian_solve_radial,
    biharmonic_span_residual,
    integrability_report,
    make_grid,
    poisson_solve_radial,
    representation_check,
    singularity_bound_check,
    superharmonic_check,
)

PARAMS = ProblemParams(6, 0.0, 4.0)
COEFFS = coefficients(PARAMS)
WSTAR = fixed_points(COEFFS)[1]


# ---------------------------------------------------------------- grid


def test_grid_defaults():
    grid = make_grid()
    assert grid.count == 2048
    assert grid.nodes[-1] == 1.0
    assert grid.t[-1] == 0.0
    assert np.all(np.diff(grid.t) > 0.0)
    assert grid.h == pytest.approx(-math.log(grid.r_min) / grid.count, rel=1e-14)
    # r_min itself is excluded; the first node sits one step above it
    assert grid.nodes[0] > grid.r_min
    assert math.log(grid.nodes[0]) == pytest.approx(
        math.log(grid.r_min) + grid.h, abs=1e-12
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(count=255)


def test_cumulative_quadrature_exact_on_cubics():
    # the 5-node rule integrates polynomials up to degree 4 exactly
    grid = make_grid(count=512)
    t = grid.t
    t0 = t[0]
    cases = [
        (
            t**3 - 2.0 * t**2 + 5.0,
            (t**4 - t0**4) / 4.0 - 2.0 * (t**3 - t0**3) / 3.0 + 5.0 * (t - t0),
        ),
        (t**4 - 3.0 * t, (t**5 - t0**5) / 5.0 - 1.5 * (t**2 - t0**2)),
    ]
    for g, exact in cases:
        F = _cumulative_up(g, grid.h)
        scale = 1.0 + np.max(np.abs(exact))
        assert np.max(np.abs(F - exact)) <= 1e-11 * scale


# Integrals of the degree-4 Lagrange basis over the four panels of five
# nodes, in units of 1/720.
_RULE = (
    (251, 646, -264, 106, -19),
    (-19, 346, 456, -74, 11),
    (11, -74, 456, 346, -19),
    (-19, 106, -264, 646, 251),
)


def _reference_increments(g, h):
    # One window per panel: the first two and the last panel use the end
    # windows, every other panel the window centred on it.  Each sum runs
    # left to right from 0.0 (builtin sum() is compensated from 3.12).
    n = len(g)
    inc = []
    for k in range(n - 1):
        b = min(max(k - 2, 0), n - 5)
        acc = 0.0
        for c, x in zip(_RULE[k - b], g[b : b + 5]):
            acc = acc + (c / 720.0) * float(x)
        inc.append(h * acc)
    return inc


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def test_panel_increments_match_left_to_right_reference():
    rng = np.random.default_rng(7)
    h = math.log(2.0) / 64
    flat = rng.standard_normal(97) * np.exp(rng.uniform(-20.0, 20.0, 97))
    assert _bits(_panel_increments(flat, h)) == _bits(_reference_increments(flat, h))
    stacked = rng.standard_normal((3, 65)) * np.exp(rng.uniform(-5.0, 5.0, (3, 65)))
    got = _panel_increments(stacked, h)
    assert got.shape == (3, 64)
    for row_got, row in zip(got, stacked):
        assert _bits(row_got) == _bits(_reference_increments(row, h))
    five = rng.standard_normal(5)
    assert _bits(_panel_increments(five, h)) == _bits(_reference_increments(five, h))
    with pytest.raises(ValueError, match="at least 5 nodes"):
        _panel_increments(five[:4], h)


# -------------------------------------------------------------- solves


def test_poisson_constant_source():
    # -Delta v = 1 on the unit ball, v(1) = 0  =>  v = (1 - r^2) / (2n)
    grid = make_grid()
    f = RadialField(grid=grid, values=np.ones(grid.count))
    v = poisson_solve_radial(f, 6)
    exact = (1.0 - grid.nodes**2) / 12.0
    assert np.max(np.abs(v.values - exact)) <= 1e-9


def test_poisson_inverse_square_source():
    # -Delta v = r^{-2}  =>  v = -ln(r) / (n - 2)
    grid = make_grid()
    f = RadialField(grid=grid, values=grid.nodes**-2.0)
    v = poisson_solve_radial(f, 6)
    exact = -grid.t / 4.0
    assert np.max(np.abs(v.values - exact)) <= 1e-8


def test_bilaplacian_constant_source():
    # Delta^2 v = 1 with Navier data; v(0) = 5/1152 in dimension 6
    grid = make_grid()
    f = RadialField(grid=grid, values=np.ones(grid.count))
    v = bilaplacian_solve_radial(f, 6)
    assert v.values[0] == pytest.approx(5.0 / 1152.0, abs=1e-12)
    exact = (1.0 - grid.nodes**2) / 144.0 - (1.0 - grid.nodes**4) / 384.0
    assert np.max(np.abs(v.values - exact)) <= 1e-10


def test_bilaplacian_is_two_poisson_solves_to_the_byte():
    # bilaplacian_solve_radial computes the weights e^{nt} and e^{(2-n)t}
    # once for both passes; its bytes are those of the two solves.
    grid = make_grid(2048)
    f = RadialField(grid=grid, values=1.7 * grid.nodes**-1.3)
    for n in (5, 6, 9):
        want = poisson_solve_radial(poisson_solve_radial(f, n), n)
        assert bilaplacian_solve_radial(f, n).values.tobytes() == want.values.tobytes(), n


def test_bilaplacian_raises_what_two_poisson_solves_raise():
    grid = make_grid(count=512)
    cases = [
        (RadialField(grid=grid, values=np.ones(grid.count)), 2),
        (RadialField(grid=grid, values=grid.nodes**-6.0), 6),  # a non-integrable tail
    ]
    for f, n in cases:
        with pytest.raises((ValueError, IntegrabilityError)) as want:
            poisson_solve_radial(poisson_solve_radial(f, n), n)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            bilaplacian_solve_radial(f, n)


def test_solves_are_linear_and_positive():
    grid = make_grid(count=512)
    f1 = RadialField(grid=grid, values=grid.nodes**0.5)
    f2 = RadialField(grid=grid, values=1.0 + grid.nodes**2)
    fsum = RadialField(grid=grid, values=f1.values + 2.0 * f2.values)
    v1 = poisson_solve_radial(f1, 6).values
    v2 = poisson_solve_radial(f2, 6).values
    vsum = poisson_solve_radial(fsum, 6).values
    scale = 1.0 + np.max(np.abs(vsum))
    assert np.max(np.abs(vsum - (v1 + 2.0 * v2))) <= 1e-11 * scale
    assert np.min(v1) >= 0.0 and np.min(v2) >= 0.0


def test_poisson_rejects_low_dimension():
    grid = make_grid(count=512)
    f = RadialField(grid=grid, values=np.ones(grid.count))
    with pytest.raises(ValueError):
        poisson_solve_radial(f, 2)


def test_tail_rejects_borderline_integrand():
    # f = r^{-n} makes the inner integrand constant: not integrable at 0
    grid = make_grid(count=512)
    f = RadialField(grid=grid, values=grid.nodes**-6.0)
    with pytest.raises(IntegrabilityError):
        poisson_solve_radial(f, 6)


def test_tail_needs_two_octaves_below_one(tmp_path):
    # 256 log-uniform radii from 0.61 to 1 make a field RadialField.load
    # takes, but span less than the two octaves below r = 1 that the tail
    # estimate reads.
    radii = np.exp(np.linspace(math.log(0.61), 0.0, 256)).tolist()
    path = tmp_path / "shallow.csv"
    path.write_text("".join(["# radial-field n=6 alpha=0 p=4\n", *(f"{r!r},1.0\n" for r in radii)]))
    with pytest.raises(IntegrabilityError) as err:
        poisson_solve_radial(RadialField.load(path), 6)
    assert str(err.value) == ("grid too shallow for the octave tail estimate: its smallest "
                              "radius 0.61 is above r = 0.249597, two octaves below r = 1")


# -------------------------------------------------------- serialization


def test_field_header_and_round_trip(tmp_path, kernel_paths):
    grid = make_grid(count=512)
    field = RadialField(grid=grid, values=np.sqrt(grid.nodes), n=6, alpha=0.0, p=4.0)
    for kernels in kernel_paths():
        assert field.dumps().splitlines()[0] == "# radial-field n=6 alpha=0 p=4"
        path = tmp_path / "field.csv"
        field.save(path)
        back = RadialField.load(path)
        assert back.n == 6 and back.alpha == 0.0 and back.p == 4.0, kernels
        assert np.array_equal(back.values, field.values), kernels
        assert np.array_equal(back.grid.nodes, grid.nodes), kernels


def test_field_unlabeled_round_trip(tmp_path, kernel_paths):
    grid = make_grid(count=512)
    field = RadialField(grid=grid, values=np.ones(grid.count))
    for kernels in kernel_paths():
        assert field.dumps().splitlines()[0] == "# radial-field n= alpha= p="
        path = tmp_path / "plain.csv"
        field.save(path)
        back = RadialField.load(path)
        assert back.n is None and back.alpha is None and back.p is None, kernels


def test_field_round_trip_is_bitwise(tmp_path, kernel_paths):
    # Random doubles of every magnitude, subnormals and -0.0 included.
    grid = make_grid(count=10000)
    values = np.random.default_rng(3).integers(0, 2**64, grid.count, dtype=np.uint64).view(float)
    values[~np.isfinite(values)] = 1.5
    values[:4] = (5e-324, -2.2250738585072e-308, 1e-310, -0.0)
    field = RadialField(grid=grid, values=values, n=6, alpha=-1.0, p=3.5)
    rows = [f"{float(r)!r},{float(v)!r}" for r, v in zip(grid.nodes, values)]
    for kernels in kernel_paths():
        text = field.dumps()
        assert text == "\n".join(["# radial-field n=6 alpha=-1 p=3.5", *rows]) + "\n", kernels
        path = tmp_path / "field.csv"
        path.write_text(text)
        back = RadialField.load(path)
        assert back.values.tobytes() == values.tobytes(), kernels
        assert back.grid.nodes.tobytes() == grid.nodes.tobytes(), kernels
        # Kernels read both columns in place, without a strided copy.
        assert back.values.flags.c_contiguous and back.grid.nodes.flags.c_contiguous, kernels


def _repr_oracle_doubles() -> np.ndarray:
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    edges = [5e-324, 1.7976931348623157e308, 0.0, -0.0, math.inf, -math.inf, math.nan,
             2.0**53 - 1, 2.0**53 + 1, 1e16, 1e-4,
             math.nextafter(1e16, 0.0), math.nextafter(1e-4, 0.0)]
    random_bits = np.random.default_rng(17).integers(0, 2**64, 200_000, dtype=np.uint64)
    return np.concatenate([
        random_bits.view(float),
        [x for v in powers for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))],
        edges,
    ])


def test_field_rows_print_repr_bytes(kernel_paths):
    # Both kernels write repr() of every double: shortest round-trip digits
    # nearest the value, ties to even, in Python's fixed or exponent layout.
    x = _repr_oracle_doubles()
    y = x[::-1]
    want = "".join([f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())])
    for kernels in kernel_paths():
        assert _dp5.kernels().rows(x, y) == want, kernels
        assert _dp5.kernels().rows(x[:0], y[:0]) == "", kernels


def test_row_writer_prints_any_number_of_columns(kernel_paths):
    # k columns print as lines of k comma-joined reprs; a table prints each
    # float column as k = 1, a field file as k = 2.
    x = _repr_oracle_doubles()
    cols = (x, x[::-1], np.roll(x, 1))
    reprs = [list(map(repr, c.tolist())) for c in cols]
    wants = {k: "".join([",".join(r) + "\n" for r in zip(*reprs[:k])]) for k in (1, 2, 3)}
    for kernels in kernel_paths():
        for k, want in wants.items():
            assert _dp5.kernels().rows(*cols[:k]) == want, (kernels, k)
            assert _dp5.kernels().rows(*(c[:0] for c in cols[:k])) == "", (kernels, k)
        for bad in ((), (x, x[:-1])):
            with pytest.raises(ValueError):
                _dp5.kernels().rows(*bad)


def _shortest_digit_count(text: str) -> int:
    """The significant digits of a repr(): 1 for '100.0', 3 for '1.25e-07'."""
    mantissa = text.lstrip("-").partition("e")[0].replace(".", "")
    return len(mantissa.strip("0"))


def _power_of_ten_edges() -> list[float]:
    # For each 10^k and d = 1..17: d nines just below it, a d-digit 10..01
    # (or 2 for d = 1) just above it, and its neighbouring doubles, which
    # have 16 or 17 digits.
    xs = []
    for k in range(-25, 26):
        power = float(f"1e{k}")
        xs += [power, math.nextafter(power, 0.0), math.nextafter(power, math.inf)]
        for d in range(1, 18):
            xs.append(float(f"{'9' * d}e{k - d}"))
            xs.append(float(f"1{'0' * (d - 2)}1e{k - d + 1}" if d > 1 else f"2e{k}"))
    # Both sides of the fixed/exponent switch.
    for edge in (1e-4, 1e16):
        xs += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    return xs + [-x for x in xs]


def test_row_writer_prints_every_digit_count_around_each_power_of_ten(kernel_paths):
    # The writer counts digits against the powers of ten and writes them
    # in pairs straight to their place: integer-valued and fractional
    # doubles of 1 to 17 shortest digits around each 10^k, in the fixed
    # and the exponent layout, print as repr() does.
    xs = _power_of_ten_edges()
    reprs = list(map(repr, xs))
    kinds = {(x.is_integer(), _shortest_digit_count(r)) for x, r in zip(xs, reprs)}
    assert kinds >= {(integral, d) for integral in (True, False) for d in range(1, 18)}
    assert {"0.0001", "9.999999999999999e-05", "1e+16", "9999999999999998.0"} <= set(reprs)
    want = "".join(r + "\n" for r in reprs)
    for kernels in kernel_paths():
        assert _dp5.kernels().rows(np.array(xs)) == want, kernels


@pytest.mark.parametrize("label", [-1.2345678, 3.14159265, 1e-7, 1e20])
def test_field_header_labels_read_back_bit_for_bit(tmp_path, label, kernel_paths):
    grid = make_grid(count=256)
    field = RadialField(grid=grid, values=np.ones(grid.count), n=5, alpha=label, p=label)
    path = tmp_path / "field.csv"
    for kernels in kernel_paths():
        field.save(path)
        back = RadialField.load(path)
        assert struct.pack("<dd", back.alpha, back.p) == struct.pack("<dd", label, label), kernels
    # Labels that 'g' keeps exact are still written short.
    head = RadialField(grid=grid, values=np.ones(grid.count), n=5, alpha=-1.0, p=2.0).dumps()
    assert head.splitlines()[0] == "# radial-field n=5 alpha=-1 p=2"


def test_field_load_parses_cells_like_float(tmp_path, kernel_paths):
    # Cells need not be repr() output: exponents, signs, padding and CRLF
    # line ends all parse to the double float() gives.
    nodes = make_grid(count=512).nodes
    radii = [f"{float(r):.17e}" for r in nodes]
    values = ["1e-3", " 0.5 ", "+2.5E+01", "-7.25e-310"] * (len(radii) // 4)
    path = tmp_path / "forms.csv"
    path.write_bytes(
        "\r\n".join(["# radial-field n=6 alpha=0 p=4", *map(",".join, zip(radii, values))]).encode()
        + b"\r\n"
    )
    # A header ending in a lone CR is a line of its own, as readline sees it.
    lone_cr = tmp_path / "lone-cr.csv"
    lone_cr.write_bytes(b"# radial-field n=6 alpha=0 p=4\r"
                        + "\n".join(f"{r},1.0" for r in radii).encode())
    for kernels in kernel_paths():
        back = RadialField.load(path)
        assert back.grid.nodes.tobytes() == np.array([float(r) for r in radii]).tobytes(), kernels
        assert back.values.tobytes() == np.array([float(v) for v in values]).tobytes(), kernels
        assert (back.n, back.alpha, back.p) == (6, 0.0, 4.0), kernels
        assert back.values.flags.c_contiguous and back.grid.nodes.flags.c_contiguous, kernels
        back = RadialField.load(lone_cr)
        assert back.grid.nodes.tobytes() == np.array([float(r) for r in radii]).tobytes(), kernels
        assert (back.n, back.alpha, back.p) == (6, 0.0, 4.0), kernels


def _halfway(x: float) -> str:
    """The exact decimal midpoint of x > 0 and the next double up."""
    mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
    return format(mid, "e")


def test_field_load_reads_every_cell_as_float_does(tmp_path, kernel_paths):
    # The reader's oracle is float(): exact midpoints between adjacent
    # doubles (which round to the even one), 17-, 19- and 25-digit cells,
    # subnormals, -0.0 and exponents of +-400 read to the same double on
    # both paths, as do cells after a blank line and a last row without
    # its '\n'.
    x = np.random.default_rng(11).integers(0, 2**64, 2000, dtype=np.uint64).view(float)
    x = np.abs(x[np.isfinite(x) & (x != 0.0)])[:1500].tolist()
    edges = [5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 2.0**53, 2.0**64, 1.0]
    values = [_halfway(v) for v in x[:1000] + edges]
    values += [f"{v:.16e}" for v in x[:500]] + [f"{v:.18e}" for v in x[500:1000]]
    values += [f"{v:.24e}" for v in x[1000:]]
    values += ["-0.0", "-0", "0e400", "1e-400", "-1e-400", "4.9e-324", "2.4703282292062328e-324",
               "-2.2250738585072011e-308", "1e308", "0." + "0" * 399 + "25e400", "9007199254740993",
               "18446744073709551615", "1." + "0" * 30 + "1", "123456789012345678901234567890e-20"]
    values += ["-" + v for v in values[:100]]
    nodes = make_grid(count=len(values)).nodes.tolist()
    rows = [f"{r!r},{v}" for r, v in zip(nodes, values)]
    rows[7] = "\n" + rows[7]
    path, overflow = tmp_path / "oracle.csv", tmp_path / "overflow.csv"
    path.write_text("\n".join(["# radial-field n=6 alpha=0 p=4", *rows]))
    # An overflowing cell reads as inf, as float() reads it.
    rows[9] = f"{nodes[9]!r},1e400"
    overflow.write_text("\n".join(["# radial-field n=6 alpha=0 p=4", *rows]))
    want = np.array([float(v) for v in values])
    data = path.read_bytes()
    for kernels in kernel_paths():
        # The compiled reader takes the whole body; its twin leaves it to numpy.
        assert (_dp5.kernels().parse(data, data.index(b"\n") + 1) is None) == (kernels == "python")
        back = RadialField.load(path)
        assert back.values.tobytes() == want.tobytes(), kernels
        assert back.grid.nodes.tolist() == nodes, kernels
        with pytest.raises(ValueError, match="overflow.csv: non-finite field value at node 9$"):
            RadialField.load(overflow)


def _digit_run(count: int, first: int) -> str:
    return "".join(str((first + i) % 10) for i in range(count))


# Digit runs on either side of one and two 8-byte words, and past the 19
# digits Eisel-Lemire reads.
WORD_EDGE_LENGTHS = (7, 8, 9, 15, 16, 17, 19, 20)


def _word_edge_cells() -> list[str]:
    # Integer and fraction parts of every length above, alone and together,
    # followed by 'e' or by the cell's end; and 17 to 19 digits just below
    # a power of two, which rounds up to it as a double.
    cells = [f"{2**k - 1}e{e}" for k in range(54, 64) for e in (-30, 0, 30)]
    for a in WORD_EDGE_LENGTHS:
        cells += [_digit_run(a, 1), _digit_run(a, 4) + "e-5", "0." + _digit_run(a, 3),
                  "0." + "0" * a + _digit_run(9, 5), "0." + _digit_run(a, 6) + "e+2"]
        cells += [f"{_digit_run(a, 2)}.{_digit_run(b, 7)}" for b in WORD_EDGE_LENGTHS]
        cells += [f"{_digit_run(a, 9)}.{_digit_run(b, 8)}e-{a + b}" for b in WORD_EDGE_LENGTHS]
    return cells + ["-" + c for c in cells]


def test_field_load_reads_digit_runs_across_word_edges(tmp_path, kernel_paths):
    # The compiled reader takes digits eight at a time while 8 bytes remain
    # before the body's end, then one at a time.  Every cell reads as
    # float() reads it: in the radius column (followed by ','), in the value
    # column (followed by '\n'), and as the last cell of a body with no
    # trailing '\n', whose last digits are read one at a time.
    cells = _word_edge_cells()
    want = np.array([float(c) for c in cells])
    nodes = make_grid(count=len(cells)).nodes.tolist()
    path = tmp_path / "edges.csv"
    path.write_text("# radial-field n=6 alpha=0 p=4\n"
                    + "".join(f"{r!r},{c}\n" for r, c in zip(nodes, cells)))
    last = tmp_path / "last.csv"
    for kernels in kernel_paths():
        back = RadialField.load(path)
        assert back.values.tobytes() == want.tobytes(), kernels
        if kernels == "compiled":
            body = "".join(f"{c},{c}\n" for c in cells).encode()
            radii, values = _dp5.kernels().parse(body, 0)
            assert radii.tobytes() == want.tobytes() and values.tobytes() == want.tobytes()
            for i, cell in enumerate(cells):
                for body, column in ((f"1.5,{cell}", 1), (f"{cell},1.5", 0)):
                    got = _dp5.kernels().parse(body.encode(), 0)[column]
                    assert got.tobytes() == want[i : i + 1].tobytes(), body
        for cell in cells[:: len(cells) // 12]:
            rows = [f"{r!r},{1.0 + r}" for r in nodes[:-1]] + [f"{nodes[-1]!r},{cell}"]
            last.write_text("\n".join(["# radial-field n=6 alpha=0 p=4", *rows]))
            assert RadialField.load(last).values[-1] == float(cell), (kernels, cell)


def test_compiled_reader_reads_every_repr_back():
    # The rows the writer prints never leave the compiled reader for numpy.
    kernels = _dp5.load()
    if kernels is None:
        pytest.skip("no compiled kernels")
    x = _repr_oracle_doubles()
    x = x[np.isfinite(x)]
    y = x[::-1].copy()
    data = b"# radial-field n= alpha= p=\n" + kernels.rows(x, y).encode()
    columns = kernels.parse(data, data.index(b"\n") + 1)
    assert columns is not None
    assert columns[0].tobytes() == x.tobytes() and columns[1].tobytes() == y.tobytes()
    assert kernels.parse(data + b"1.5,2.5", len(data))[0].tolist() == [1.5]
    # Results past the doubles' range, and below or at the subnormal edge.
    cells = ["1.8e308", "-1.7976931348623159e308", "1.7976931348623157e308", "2e-324",
             "-3e-324", "2.2250738585072011e-308", "2.2250738585072012e-308", "1e-400"]
    body = "".join(f"{a},{b}\n" for a, b in zip(cells[::2], cells[1::2])).encode()
    radii, values = kernels.parse(body, 0)
    want = np.array([float(c) for c in cells])
    assert radii.tobytes() == want[::2].tobytes() and values.tobytes() == want[1::2].tobytes()
    for body in (b"1.5,2.5\r\n", b"+1.5,2.5\n", b"1.5,2.5,3\n", b"1.5\n", b" 1.5,2.5\n",
                 b"1.,2\n", b".5,2\n", b"1e,2\n", b"nan,2\n", b"1.5;2.5\n", b"1_0,2\n",
                 b"1.5,2.5\x00\n", b"1.5,2.5\n \n", b"1,2\n3", b"1,2\n3,"):
        assert kernels.parse(body, 0) is None, body


def test_row_reader_columns_hold_one_row_per_newline_and_one_more(monkeypatch):
    # The reader writes up to one row per '\n' of the body plus a last row
    # without one, so its columns are sized by that count exactly, counted
    # over slices of COUNT_CHUNK bytes: here slices that split the body
    # anywhere, and start anywhere past the header.
    kernels = _dp5.load()
    if kernels is None:
        pytest.skip("no compiled kernels")
    data = b"# radial-field n=6 alpha=0 p=4\n0.5,1.0\n\n0.75,2.0\n1.0,3.0"
    head = data.index(b"\n") + 1
    for chunk in (1, 3, 7, 1 << 16):
        monkeypatch.setattr(_dp5, "COUNT_CHUNK", chunk)
        for start in range(head, len(data) + 1):
            columns = kernels.parse(data, start)
            if columns is not None:
                assert columns[0].base.shape == (2, data.count(b"\n", start) + 1), (chunk, start)
        assert kernels.parse(data, head)[0].tolist() == [0.5, 0.75, 1.0], chunk


def test_field_files_in_the_writers_grammar_never_reach_numpy(tmp_path, monkeypatch):
    # A file of dumps, and one of np.savetxt's %.18e cells, load without
    # np.loadtxt wherever the kernels are compiled.
    if _dp5.load() is None:
        pytest.skip("no compiled kernels")
    grid = make_grid(count=512)
    field = RadialField(grid=grid, values=-np.sqrt(grid.nodes), n=6, alpha=0.0, p=4.0)
    dumped, saved = tmp_path / "dumps.csv", tmp_path / "savetxt.csv"
    field.save(dumped)
    np.savetxt(saved, np.column_stack([grid.nodes, field.values]), fmt="%.18e", delimiter=",",
               header="radial-field n=6 alpha=0 p=4")

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt read a file in the writer's grammar")

    monkeypatch.setattr(np, "loadtxt", refuse)
    for path in (dumped, saved):
        back = RadialField.load(path)
        assert back.values.tobytes() == field.values.tobytes(), path
        assert back.grid.nodes.tobytes() == grid.nodes.tobytes(), path


def test_field_load_rejects_bad_input(tmp_path, kernel_paths):
    for kernels in kernel_paths():
        _field_load_rejects_bad_input(tmp_path)


def _field_load_rejects_bad_input(tmp_path):
    missing = tmp_path / "no-header.csv"
    missing.write_text("0.5,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        RadialField.load(missing)

    # A header that is not ASCII reads as open() decodes it.
    accented = tmp_path / "accented.csv"
    accented.write_bytes("# radial-field n= alpha= p=\u00e9\n0.5,1.0\n1.0,2.0\n".encode())
    with open(accented) as fh:
        label = fh.readline().split("p=")[1].strip()
    with pytest.raises(ValueError, match=f"header label p={label} is not a finite number"):
        RadialField.load(accented)

    badrow = tmp_path / "bad-row.csv"
    badrow.write_text("# radial-field n= alpha= p=\n0.5;1.0\n")
    with pytest.raises(ValueError, match="radius,value"):
        RadialField.load(badrow)

    nodes = make_grid(count=5000).nodes
    for row in (0, 4500):
        badnum = tmp_path / f"bad-number-{row}.csv"
        cells = [f"{float(r)!r},1.0" for r in nodes]
        cells[row] = f"{float(nodes[row])!r},1.0x"
        badnum.write_text("# radial-field n= alpha= p=\n" + "\n".join(cells) + "\n")
        with pytest.raises(
            ValueError,
            match=rf"bad-number-{row}.csv: .*could not convert string '1.0x' to float64 "
            rf"at row {row}, column 2",
        ):
            RadialField.load(badnum)

    uneven = tmp_path / "uneven.csv"
    uneven.write_text("# radial-field n= alpha= p=\n0.1,1.0\n0.2,1.0\n0.9,1.0\n")
    with pytest.raises(ValueError, match="log-uniform"):
        RadialField.load(uneven)

    header = b"# radial-field n= alpha= p=\n"
    rows = [f"{float(r)!r},1.0\n".encode() for r in make_grid(count=512).nodes]
    nan_row = rows[:4] + [rows[4].replace(b",1.0", b",nan")] + rows[5:]
    for name, body, match in (
        ("nan.csv", nan_row, "non-finite field value at node 4"),
        ("undecodable.csv", rows[:3] + [b"0.5,\xff\xfe\n"] + rows[3:], "decode"),
        ("header-only.csv", [], "0 nodes; need at least 256"),
        ("one-row.csv", rows[-1:], "1 nodes; need at least 256"),
    ):
        path = tmp_path / name
        path.write_bytes(header + b"".join(body))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"{name}: .*{match}"):
                RadialField.load(path)

    nodes = make_grid(count=512).nodes
    for name, radii, match in (
        ("descending.csv", nodes[::-1], "ascending"),
        ("half.csv", nodes / 2.0, "r = 1"),
    ):
        path = tmp_path / name
        path.write_text("# radial-field n= alpha= p=\n" + "".join(f"{float(r)!r},1.0\n" for r in radii))
        with pytest.raises(ValueError, match=match):
            RadialField.load(path)

    # A wrong cell count is named by its first body row, whether every row
    # has it or one row among good ones.
    lines = [f"{float(r)!r},1.0" for r in nodes]
    for name, body, match in (
        ("one-cell.csv", [line.split(",")[0] for line in lines], "body row 0 has 1 cell"),
        ("three-cells.csv", [line + ",2.0" for line in lines], "body row 0 has 3 cells"),
        ("one-cell-at-10.csv", lines[:10] + [lines[10].split(",")[0]] + lines[11:],
         "body row 10 has 1 cell"),
        ("three-cells-at-10.csv", lines[:10] + [lines[10] + ",2.0"] + lines[11:],
         "body row 10 has 3 cells"),
    ):
        path = tmp_path / name
        path.write_text("# radial-field n= alpha= p=\n" + "\n".join(body) + "\n")
        with pytest.raises(ValueError, match=rf"{name}: expected 'radius,value' rows: {match}$"):
            RadialField.load(path)


def test_field_validation():
    grid = make_grid(count=512)
    with pytest.raises(ValueError):
        RadialField(grid=grid, values=np.ones(17))
    vals = np.ones(grid.count)
    vals[100] = math.inf
    with pytest.raises(ValueError, match="node 100"):
        RadialField(grid=grid, values=vals)


# ------------------------------------------------- representation check


def test_biharmonic_functions_have_zero_residual():
    # u in the kernel of Delta^2 with zero source projects away entirely
    grid = make_grid(count=512)
    r = grid.nodes
    u = RadialField(grid=grid, values=1.0 + r**2 + r**-4.0)
    zero = RadialField(grid=grid, values=np.zeros(grid.count))
    assert biharmonic_span_residual(u, zero, 6) <= 1e-10


def test_span_projection_matches_least_squares():
    # np.linalg.lstsq on norm-equilibrated columns, the solver the
    # projection replaced, is an independent reference.  The columns are
    # the biharmonic span {1, r^2, r^-4, r^-2} of n = 6 over the interior
    # window of a 1024-node grid, divided by a profile as the residual
    # divides by |u|; their entries span 27 decades.  A zero column, as an
    # underflowed power would give, leaves the projection unchanged.
    grid = make_grid(count=1024)
    t = grid.t[256:768]
    profile = np.exp(-0.5 * t) * (2.0 + np.sin(t))
    columns = np.exp(np.multiply.outer(t, (0.0, 2.0, -4.0, -2.0))) / profile[:, None]
    target = columns @ np.array([1.0, -2.0, 3e-12, 4e-6]) + 1e-3 * np.cos(3.0 * t)
    scale = np.linalg.norm(columns, axis=0)
    coef, *_ = np.linalg.lstsq(columns / scale, target, rcond=None)
    want = target - (columns / scale) @ coef
    got = _project_span(target, columns)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(target))
    with_zero = np.column_stack([columns[:, :2], np.zeros(len(t)), columns[:, 2:]])
    assert np.array_equal(_project_span(target, with_zero), got)


def test_representation_residual_shrinks_under_refinement():
    traj = equilibrium_trajectory(WSTAR)
    coarse = representation_check(traj, COEFFS, count=2048)
    fine = representation_check(traj, COEFFS, count=4096)
    assert coarse.node_count == 2048
    assert coarse.residual <= 5e-11
    assert fine.residual < coarse.residual


def test_span_residual_needs_one_grid_and_a_u_without_zeros():
    grid = make_grid(count=512)
    u = RadialField(grid=grid, values=np.ones(grid.count))
    other = RadialField(grid=make_grid(count=256), values=np.ones(256))
    # The same node count on a grid that starts elsewhere is another grid.
    moved = RadialField(grid=dataclasses.replace(grid, r_min=2.0 * grid.r_min),
                        values=np.ones(grid.count))
    for source in (other, moved):
        with pytest.raises(ValueError) as err:
            biharmonic_span_residual(u, source, 6)
        assert str(err.value) == "u and source must share a grid"
    u.values[grid.count // 2] = 0.0
    with pytest.raises(ValueError) as err:
        biharmonic_span_residual(u, RadialField(grid=grid, values=np.ones(grid.count)), 6)
    assert str(err.value) == "u vanishes on the interior window; cannot form relative residual"


def test_checks_refuse_an_orbit_whose_w_is_negative(kernel_paths):
    traj = mode_trajectory([(-1.0, COEFFS.B)], 0.0, -16.0)
    for kernels in kernel_paths():
        with pytest.raises(ValueError) as err:
            representation_check(traj, COEFFS)
        assert str(err.value) == "non-positive field value at node 0 (r=9.60152e-07)", kernels
        with pytest.raises(ValueError) as err:
            integrability_report(traj, COEFFS)
        assert str(err.value) == "negative w at t=-0.693147; integrand undefined", kernels


def test_representation_requires_coverage():
    traj = equilibrium_trajectory(WSTAR, t0=0.0, t1=-5.0)
    with pytest.raises(ValueError, match="grid needs"):
        representation_check(traj, COEFFS)


# ------------------------------------------------------- superharmonic


def test_superharmonic_on_singular_orbit():
    traj = equilibrium_trajectory(WSTAR)
    rep = superharmonic_check(traj, COEFFS, WSTAR)
    assert rep.tau == 1.0
    # minimum sits at t = 0 where the r^{-B-2} factor is smallest
    want = COEFFS.B * (6.0 - 2.0 - COEFFS.B) * WSTAR
    assert rep.min_value == pytest.approx(want, rel=1e-13)


def test_superharmonic_rejects_removable_orbit():
    traj = mode_trajectory([(1.0, COEFFS.B)], 0.0, -20.0)
    with pytest.raises(ValueError, match="singular-class"):
        superharmonic_check(traj, COEFFS, WSTAR)


def test_superharmonic_prefix_stops_at_sign_change():
    # plant a sign change of -Delta u near t = ln(0.236)/5 while keeping
    # w0 pinned at the equilibrium so the orbit still classifies singular
    def fn(ts):
        states = np.zeros((len(ts), 4))
        states[:, 0] = WSTAR
        states[:, 2] = 30.0 * np.exp(5.0 * ts)
        return states

    traj = analytic_trajectory(fn, 0.0, -15.0)
    rep = superharmonic_check(traj, COEFFS, WSTAR)
    bracket0 = COEFFS.B * (6.0 - 2.0 - COEFFS.B) * WSTAR
    t_cross = math.log(bracket0 / 30.0) / 5.0
    assert rep.min_value > 0.0
    assert rep.tau < 1.0
    assert rep.tau == pytest.approx(math.exp(t_cross), abs=0.02)


def test_superharmonic_prefix_is_empty_where_the_deepest_sample_fails():
    # -Delta u < 0 toward the singularity, > 0 near r = 1: the prefix from
    # the deep end is empty, so tau is 0 and the minimum is the deepest value.
    def fn(ts):
        states = np.zeros((len(ts), 4))
        states[:, 0] = WSTAR
        states[:, 2] = 30.0 * np.exp(-5.0 * ts)
        return states

    traj = analytic_trajectory(fn, 0.0, -15.0)
    rep = superharmonic_check(traj, COEFFS, WSTAR)
    bracket = COEFFS.B * (6.0 - 2.0 - COEFFS.B) * WSTAR - 30.0 * math.exp(75.0)
    assert rep.tau == 0.0
    assert rep.min_value == pytest.approx(math.exp((COEFFS.B + 2.0) * 15.0) * bracket, rel=1e-12)


# -------------------------------------------------------- integrability


def test_integrability_split_on_singular_orbit():
    traj = equilibrium_trajectory(WSTAR, t1=-16.0)
    rep = integrability_report(traj, COEFFS)
    assert rep.l1_converges
    assert rep.weighted_diverges
    # closed-form shell exponents: n + alpha - pB and 2 + alpha - pB
    assert rep.l1_shell_exponent == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rep.weighted_shell_exponent == pytest.approx(-10.0 / 3.0, abs=1e-9)
    assert all(q < 1.0 for q in rep.l1_ratios[-6:])
    assert all(q > 1.0 for q in rep.weighted_ratios[-6:])


def test_integrability_both_converge_for_bounded_solution():
    traj = mode_trajectory([(1.0, COEFFS.B)], 0.0, -16.0)
    rep = integrability_report(traj, COEFFS)
    assert rep.l1_converges
    assert not rep.weighted_diverges


def test_integrability_error_for_too_singular_profile():
    # u = r^{-5} pushes r^{n-1+alpha} u^p past integrability in dim 6
    traj = mode_trajectory([(1.0, COEFFS.B - 5.0)], 0.0, -16.0)
    with pytest.raises(IntegrabilityError, match="diverges"):
        integrability_report(traj, COEFFS)


def test_integrability_samples_each_shell_node_once():
    calls = []

    def fn(ts):
        calls.append(len(ts))
        return np.tile((WSTAR, 0.0, 0.0, 0.0), (len(ts), 1))

    traj = analytic_trajectory(fn, 0.0, -16.0)
    calls.clear()
    integrability_report(traj, COEFFS)
    # 23 dyadic shells of 65 nodes each, both integrands from one sample
    assert sum(calls) == 23 * 65


def test_integrability_needs_depth_and_boundary():
    shallow = equilibrium_trajectory(WSTAR, t1=-10.0)
    with pytest.raises(ValueError, match="insufficient resolution"):
        integrability_report(shallow, COEFFS)
    offset = equilibrium_trajectory(WSTAR, t0=-1.0, t1=-16.0)
    with pytest.raises(ValueError, match="t = 0"):
        integrability_report(offset, COEFFS)


# --------------------------------------------------- singularity bounds


def test_singularity_bounds_on_equilibrium():
    traj = equilibrium_trajectory(WSTAR)
    rep = singularity_bound_check(traj, COEFFS)
    B = COEFFS.B
    want = (
        WSTAR,
        B * WSTAR,
        B * (B + 1.0) * WSTAR,
        B * (B + 1.0) * (B + 2.0) * WSTAR,
    )
    for got, expect in zip(rep.sup_values, want):
        assert got == pytest.approx(expect, rel=1e-12)


def test_singularity_bounds_need_deep_samples():
    traj = equilibrium_trajectory(WSTAR, t0=0.0, t1=-0.5)
    with pytest.raises(ValueError, match="r <= 1/2"):
        singularity_bound_check(traj, COEFFS)
