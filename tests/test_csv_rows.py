"""cli._csv_rows (qgamma._csvrows): the bulk-row formatter gives exactly the text of '%.17g' % value."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qgamma import _csvrows, cli, kernels

FAST_LO, FAST_HI = _csvrows._FAST_RANGE


def _reference(values) -> list[str]:
    return ["%.17g" % float(v) for v in np.ravel(values)]


@pytest.fixture
def fallbacks(monkeypatch):
    """Every value the row builder hands to cli._fmt, in call order."""
    seen = []
    fmt = cli._fmt

    def counted(v):
        seen.append(v)
        return fmt(v)

    monkeypatch.setattr(cli, "_fmt", counted)
    return seen


def _formatted(values) -> list[str]:
    return "\n".join(cli._csv_rows([np.asarray(values, dtype=float)])).split("\n")


def _in_range(values) -> np.ndarray:
    a = np.abs(np.asarray(values, dtype=float))
    return a[(a >= FAST_LO) & (a <= FAST_HI)]


def test_random_bit_patterns_match_and_almost_never_fall_back(fallbacks):
    bits = np.random.default_rng(20261019).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert _formatted(values) == _reference(values)
    in_range = _in_range(values).size
    assert in_range > 900_000
    assert _in_range(fallbacks).size <= 1e-5 * in_range


def test_special_values_and_powers_of_ten(fallbacks):
    top = np.finfo(float).max
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, top, -top,
               np.finfo(float).tiny, 2.0**-1022 * 3.0, 1.0, -1.0, 1e16, 1e17, 1e-4, 1e-5]
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    neighbours = np.concatenate([np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)])
    values = np.concatenate([special, powers, neighbours, -powers, -neighbours])
    assert _formatted(values) == _reference(values)
    # where log10 rounds across the decade, the exponent is corrected, not left to _fmt
    assert not set(_in_range(fallbacks).tolist()) & set(np.abs(neighbours).tolist())
    # and no power of ten falls back: from 1e17 on, each is an exact multiple of 10**(E - 16)
    assert not set(_in_range(fallbacks).tolist()) & set(powers.tolist())


def _near_ties(k: int) -> list[float]:
    """Doubles x = m 2**(k + r) whose x / 10**k lies 1 / (2 5**k) from a half-integer in [1e16, 1e17)."""
    q = 5**k
    out = []
    for r in range(80):
        for target in ((q - 1) // 2, (q + 1) // 2):
            m = target * pow(2, -r, q) % q  # m 2**r = target (mod 5**k)
            m += -(-(2**52 - m) // q) * q if m < 2**52 else 0
            if m < 2**53 and 1e16 <= m * 2**r / q < 1e17:
                out.append(float(m) * 2.0 ** (k + r))
    return out


def test_values_within_rounding_error_of_a_tie_go_through_fmt(fallbacks):
    # |x| 10**-k is known to ~2**-47, so a distance 1 / (2 5**k) <= 2**-40 from a tie is left to _fmt
    values = [v for k in range(18, 24) for v in _near_ties(k)]
    assert len(values) > 20
    assert _formatted(values) == _reference(values)
    assert sorted(fallbacks) == sorted(values)


def test_rounding_that_carries_into_the_next_decade():
    values = [99999999999999999.0, 9.9999999999999999e-5, 999999999999999.94, 0.99999999999999999,
              9.9999999999999995e22, 9.99999999999999999e-300, 9.99999999999999999e279]
    values += [np.nextafter(v, 0.0) for v in values] + [np.nextafter(v, math.inf) for v in values]
    assert _formatted(values) == _reference(values)


def test_exact_ties_round_half_even():
    # 2**-25 = 2.98023223876953125e-08: its 18th digit is an exact tie
    ties = [2.0**-25, 2.0**-26, 3 * 2.0**-27, 2.0**55 + 2.0**3]
    j = np.arange(1, 61)
    dyadic = (np.arange(1, 2000, 2)[:, None] * 2.0 ** -j[None, :]).ravel()
    m = np.random.default_rng(7).integers(1, 2**53, size=20_000).astype(float)
    wide = np.ldexp(m, -np.random.default_rng(8).integers(0, 61, size=m.size))
    values = np.concatenate([ties, dyadic, -dyadic, wide])
    assert _formatted(values) == _reference(values)


def test_short_decimals_and_zeros_never_fall_back(fallbacks):
    rng = np.random.default_rng(11)
    k = rng.integers(-10**6, 10**6, size=200_000)
    j = rng.integers(0, 20, size=k.size)
    values = np.concatenate([k / 10.0**j, [0.0, -0.0, 0.1, 0.2, 0.3, 0.5, 1.5, 2.25, 1e-4, 123456.789]])
    assert _formatted(values) == _reference(values)
    assert fallbacks == []


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 64), elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_any_float_array_matches_percent_17g(values):
    assert _formatted(values) == _reference(values)


def test_rows_join_literals_and_broadcast_columns_across_chunks():
    rows, cols = _csvrows._ROWS_PER_CHUNK + 5, 3
    x = np.linspace(-2.0, 2.0, rows)
    y = np.array([0.0, 1e-300, math.nan])
    z = np.random.default_rng(3).standard_normal((rows, cols))
    chunks = cli._csv_rows(["head,", x[:, None], ";", y, ",", z, ",tail"])
    assert len(chunks) == math.ceil(rows * cols / _csvrows._ROWS_PER_CHUNK)
    assert all(chunk and not chunk.endswith("\n") for chunk in chunks)
    want = [f"head,{cli._fmt(float(a))};{cli._fmt(float(b))},{cli._fmt(float(c))},tail"
            for a, row_z in zip(x, z) for b, c in zip(y, row_z)]
    assert "\n".join(chunks).split("\n") == want


def _check_chunks(chunks, rows: int, want: list[str]):
    """Whole rows per chunk, no chunk ending in a newline, and the rows of value-by-value formatting."""
    size = _csvrows._ROWS_PER_CHUNK
    assert [chunk.count("\n") + 1 for chunk in chunks] == [min(size, rows - i) for i in range(0, rows, size)]
    assert all(chunk and not chunk.endswith("\n") for chunk in chunks)
    assert "\n".join(chunks).split("\n") == want


def _mixed(rows: int, seed: int) -> np.ndarray:
    """Values of every print form, short decimals, zeros, and values the array path leaves to _fmt."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    values[1::3] = rng.integers(-10**6, 10**6, values[1::3].size) / 10.0 ** rng.integers(0, 12, values[1::3].size)
    values[2::97] = rng.choice([0.0, -0.0, math.nan, -math.inf, 1e-300, 2.0**-25], values[2::97].size)
    return values


@pytest.mark.parametrize("chunks, extra", [(0, 1), (1, 0), (2, 0), (2, 1)])
def test_rows_at_chunk_edges(chunks, extra):
    rows = chunks * _csvrows._ROWS_PER_CHUNK + extra
    x = _mixed(rows, rows)
    _check_chunks(cli._csv_rows(["x=", x, ";"]), rows, [f"x={cli._fmt(float(a))};" for a in x])


def test_successive_calls_use_their_own_templates():
    rows = _csvrows._ROWS_PER_CHUNK + 3
    x, y = _mixed(rows, 1), _mixed(rows, 2)
    want = [f"point,{cli._fmt(float(a))},{cli._fmt(float(b))}" for a, b in zip(x, y)]
    _check_chunks(cli._csv_rows(["point,", x, ",", y]), rows, want)
    z = _mixed(5, 3)
    _check_chunks(cli._csv_rows([z]), 5, [cli._fmt(float(c)) for c in z])
    _check_chunks(cli._csv_rows(["point,", x, ",", y]), rows, want)


def test_a_many_chunk_scan_matches_percent_17g(capsys, fallbacks):
    # 200k points: 49 chunks of rows, as CI and the benchmark scan them
    t, w, _ = kernels.scan_kernel("thm3.4", None, kernels.default_t_grid(points=200_000))
    assert cli.main(["scan-kernel", "thm3.4", "--t-points", "200000"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[1:200_001] == ["point,%.17g,%.17g" % (a, b) for a, b in zip(t.tolist(), w.tolist())]
    assert lines[200_001].startswith("summary,")
    in_range = _in_range(np.concatenate([t, w])).size
    assert _in_range(fallbacks).size <= 1e-5 * in_range
