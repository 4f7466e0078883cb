import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipot import grids
from bipot.bipotentials import GraphSet
from bipot.errors import FormatError, InvalidInputError
from bipot.extreal import as_ext_array
from bipot.grids import Grid, SampledBivariate, SampledFunction, pairing

import oracles


class TestExtReal:
    def test_rejects_nan_and_neg_inf(self):
        with pytest.raises(InvalidInputError, match="NaN"):
            as_ext_array([1.0, float("nan")])
        with pytest.raises(InvalidInputError, match="-inf"):
            as_ext_array([-math.inf])

    def test_tokens_round_trip(self):
        v = np.array([math.inf, -1.25, 0.1 + 0.2, -0.0])
        toks = grids._tokens(v)
        assert toks == ["inf", "-1.25", "0.30000000000000004", "-0.0"]
        back = grids._read_rows(io.StringIO("\n".join(toks)), 0)
        assert back.tobytes() == v[:, None].tobytes()

    def test_array_guards(self):
        with pytest.raises(InvalidInputError):
            as_ext_array([1.0, 2.0], shape=(3,))
        a = as_ext_array([1.0, math.inf])
        assert not a.flags.writeable
        assert as_ext_array(a) is a


class TestGrid:
    def test_nodes_are_lo_plus_ih(self):
        g = Grid.line(-1.0, 1.0, 5)
        h = g.h[0]
        assert np.array_equal(g.axis(0), -1.0 + np.arange(5) * h)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Grid.line(1.0, -1.0, 5)
        with pytest.raises(InvalidInputError):
            Grid.line(0.0, 1.0, 2)
        with pytest.raises(InvalidInputError):
            Grid(lo=(0, 0, 0), hi=(1, 1, 1), n=(4, 4, 4))

    @pytest.mark.parametrize("lo, hi, n", [
        # h = 1.6 is below the ulp 16 of 1e17: 5 distinct first-axis nodes
        ((1e17, 0.0), (1e17 + 64.0, 1.0), (41, 5)),
        # h = 2.5e-17 is below the ulp 2.2e-16 of 1: 6 distinct nodes
        ((1.0,), (1.0 + 1e-15,), (41,)),
    ])
    def test_coincident_nodes_rejected(self, lo, hi, n):
        with pytest.raises(InvalidInputError, match="strictly increasing"):
            Grid(lo, hi, n)

    def test_nodes_one_ulp_apart_accepted(self):
        eps = np.finfo(np.float64).eps
        g = Grid.line(1.0, 1.0 + 40 * eps, 41)
        assert np.array_equal(g.axis(0), 1.0 + np.arange(41) * eps)

    def test_index_coord_bijection(self):
        g = Grid.box((-1.0, 0.0), (1.0, 2.0), (5, 9))
        for idx in np.ndindex(g.shape):
            assert g.snap(g.coords(idx)) == idx

    def test_snap_rejects_outside(self):
        g = Grid.line(0.0, 1.0, 11)
        with pytest.raises(InvalidInputError):
            g.snap([2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_snap_rejects_non_finite(self, bad):
        # nan raised ValueError and inf OverflowError from int(round(t))
        for g, point in ((Grid.line(0.0, 1.0, 11), [bad]),
                         (Grid.box(-1.0, 1.0, 5), [0.0, bad])):
            with pytest.raises(InvalidInputError, match="expected a point"):
                g.snap(point)


class TestSampledCsv:
    def test_function_round_trip_1d(self, tmp_path):
        g = Grid.line(-1.0, 1.0, 9)
        f = SampledFunction.from_callable(
            g, lambda x: np.where(x > 0, x * 1.7, np.inf))
        p = tmp_path / "f.csv"
        f.to_csv(p)
        back = SampledFunction.read_csv(p)
        assert back.grid.n == g.n
        assert np.array_equal(back.vals, f.vals)

    def test_function_round_trip_2d(self, tmp_path):
        g = Grid.box(-1.0, 1.0, (5, 7))
        f = SampledFunction.from_callable(g, lambda a, b: a * b + 0.125)
        p = tmp_path / "f2.csv"
        f.to_csv(p)
        back = SampledFunction.read_csv(p)
        assert np.array_equal(back.vals, f.vals)

    def test_bivariate_round_trip(self, tmp_path):
        gx = Grid.line(-1.0, 1.0, 5)
        gy = Grid.line(0.0, 2.0, 7)
        b = SampledBivariate.from_callable(gx, gy, lambda x, y: x + y * y)
        p = tmp_path / "b.csv"
        b.to_csv(p)
        back = SampledBivariate.read_csv(p)
        assert back.xgrid.n == gx.n and back.ygrid.n == gy.n
        assert np.array_equal(back.vals, b.vals)

    def test_malformed_rows_carry_line_numbers(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,value\n0.0,1.0\n0.5,zardoz\n1.0,2.0\n")
        with pytest.raises(FormatError) as err:
            SampledFunction.read_csv(p)
        assert err.value.line == 3

    def test_missing_rows_rejected(self, tmp_path):
        g = Grid.line(0.0, 1.0, 5)
        f = SampledFunction.from_callable(g, lambda x: x)
        p = tmp_path / "f.csv"
        f.to_csv(p)
        lines = p.read_text().splitlines()
        del lines[3]   # drop an interior node
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            SampledFunction.read_csv(p)


def _token(v) -> str:
    """'inf' for +inf, the shortest round-trip decimal otherwise."""
    return "inf" if v == math.inf else repr(float(v))


def _token_csv(names, grid_list, vals) -> bytes:
    """The CSV layout written value by value through ``_token``."""
    axes = [ax for g in grid_list for ax in g.axes]
    lines = [",".join(names + ["value"])]
    for idx, v in zip(itertools.product(*(range(len(a)) for a in axes)),
                      vals.ravel()):
        lines.append(",".join([_token(axes[k][i]) for k, i in enumerate(idx)]
                              + [_token(v)]))
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(params=["default", "small"])
def blocks(request, monkeypatch):
    """The reader's own block size, then blocks of a few rows, so that
    small files span many blocks."""
    if request.param == "small":
        monkeypatch.setattr(grids, "_BLOCK_CHARS", 64)


class TestCsvCodecs:
    SPECIAL = [-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, math.inf, -2.5, 1.0]

    def test_writer_bytes_match_token_formatting(self, tmp_path):
        g = Grid.line(-1.0, 1.0, len(self.SPECIAL))
        f = SampledFunction(g, self.SPECIAL)
        p = tmp_path / "f.csv"
        f.to_csv(p)
        assert p.read_bytes() == _token_csv(["x"], (g,), f.vals)
        assert b"\n-1.0,-0.0\n" in p.read_bytes()
        assert b",5e-324\n" in p.read_bytes() and b",inf\n" in p.read_bytes()

        gx = Grid.box((-1.0, 0.0), (1.0, 0.3), (3, 4))
        gy = Grid.box((0.1, -1.0), (0.7, 1.0), (5, 3))
        rng = np.random.default_rng(0)
        vals = rng.choice(self.SPECIAL, size=gx.shape + gy.shape)
        b = SampledBivariate(gx, gy, vals)
        p = tmp_path / "b.csv"
        b.to_csv(p)
        assert p.read_bytes() == _token_csv(
            ["x1", "x2", "y1", "y2"], (gx, gy), b.vals)

    def _bivariate_file(self, tmp_path, n=41):
        g = Grid.line(-2.0, 2.0, n)
        b = SampledBivariate.from_callable(g, g, lambda x, y: x * x + y / 3)
        p = tmp_path / "b.csv"
        b.to_csv(p)
        return p, p.read_text().split("\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row[:2] + ["zardoz"], "not an extended real: 'zardoz'"),
        (lambda row: row + ["1.0"], "expected 3 fields, got 4"),
        (lambda row: row[:2] + ["nan"], "not an extended real: 'nan'"),
        (lambda row: row[:2] + ["-inf"], "not an extended real: '-inf'"),
        (lambda row: ["inf"] + row[1:], "coordinates must be finite"),
    ])
    def test_reader_reports_first_bad_line(self, tmp_path, blocks, edit,
                                           message):
        p, lines = self._bivariate_file(tmp_path)
        # a blank line before the edits still counts towards line numbers
        lines.insert(3, "")
        for i in (len(lines) - 40, len(lines) - 3):
            lines[i] = ",".join(edit(lines[i].split(",")))
        p.write_text("\n".join(lines))
        with pytest.raises(FormatError) as err:
            SampledBivariate.read_csv(p)
        line = len(lines) - 40 + 1
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_reader_reports_bad_token_beyond_first_block(self, tmp_path):
        p, lines = self._bivariate_file(tmp_path, n=301)
        assert len(p.read_text()) > 2 * grids._BLOCK_CHARS
        i = len(lines) - 5
        lines[i] = lines[i].rsplit(",", 1)[0] + ",zardoz"
        p.write_text("\n".join(lines))
        with pytest.raises(FormatError) as err:
            SampledBivariate.read_csv(p)
        assert str(err.value) == f"line {i + 1}: not an extended real: 'zardoz'"

    def test_fields_float_rejects_are_stripped(self, tmp_path, blocks):
        # str.strip() removes U+001C..U+001F, float() refuses them: the
        # block is parsed line by line and reads as if unpadded
        p, lines = self._bivariate_file(tmp_path, n=9)
        expected = SampledBivariate.read_csv(p)
        lines[4] = "\x1c" + lines[4].replace(",", " \x1f,")
        p.write_text("\n".join(lines))
        back = SampledBivariate.read_csv(p)
        assert back.vals.tobytes() == expected.vals.tobytes()

    def test_blank_lines_and_crlf_accepted(self, tmp_path, blocks):
        p, lines = self._bivariate_file(tmp_path, n=9)
        expected = SampledBivariate.read_csv(p)
        lines[5:5] = ["", "  \t", ""]
        p.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
        back = SampledBivariate.read_csv(p)
        assert back.vals.tobytes() == expected.vals.tobytes()
        assert back.xgrid == expected.xgrid and back.ygrid == expected.ygrid

    def _message(self, p, text):
        p.write_text(text)
        with pytest.raises(FormatError) as err:
            SampledBivariate.read_csv(p)
        return str(err.value)

    def test_reader_errors_in_file_order(self, tmp_path, blocks):
        # the grid checks run on the blocks as they were read, and refuse
        # a file with the messages a whole-file check gives
        p, lines = self._bivariate_file(tmp_path, n=9)
        rows = lines[1:-1]
        head = lines[0] + "\n"

        def text(body):
            return head + "".join(r + "\n" for r in body)

        swapped = rows.copy()   # (x0, y3) and (x3, y2): x out of order
        swapped[3], swapped[29] = swapped[29], swapped[3]
        assert self._message(p, text(swapped)) == (
            "column 0: rows are not in row-major node order")
        swapped = rows.copy()   # two y-nodes of x8, in the last block
        swapped[75], swapped[77] = swapped[77], swapped[75]
        assert self._message(p, text(swapped)) == (
            "column 1: rows are not in row-major node order")
        assert self._message(p, text(rows[:40] + rows[41:])) == (
            "got 80 rows, expected 81 (full row-major product grid)")
        # a tenth y-coordinate, 0.3 off the y-nodes' 0.5 spacing
        bent = rows.copy()
        bent[60] = ",".join(bent[60].split(",")[:1] + ["0.3", "1.0"])
        assert self._message(p, text(bent)) == (
            "column 1: coordinates are not uniformly spaced")
        narrow = [f"{x},{y},0.0" for x in (0.0, 1.0) for y in range(9)]
        assert self._message(p, text(narrow)) == (
            "column 0: fewer than 3 distinct coordinates")
        # blocks (at _BLOCK_CHARS = 64) of blank lines alone, then a bad
        # token: its line number counts every blank line
        p.write_text(text(rows))
        clean = SampledBivariate.read_csv(p).vals.tobytes()
        spaced = rows[:20] + [""] * 140 + rows[20:]
        p.write_text(text(spaced))
        assert SampledBivariate.read_csv(p).vals.tobytes() == clean
        spaced[165] = spaced[165].rsplit(",", 1)[0] + ",zardoz"
        assert self._message(p, text(spaced)) == (
            "line 167: not an extended real: 'zardoz'")

    @pytest.mark.parametrize("first", ["-0.0", "0.0"])
    def test_mixed_zero_axis_keeps_uniques_zero(self, tmp_path, blocks,
                                                first):
        # x-node 0 typed as both zeros: the grid starts at the zero that
        # np.unique keeps for the whole column
        other = "0.0" if first == "-0.0" else "-0.0"
        xs = [first] * 2 + [other] * 3 + ["0.5"] * 5 + ["1.0"] * 5
        body = "".join(f"{x},{y},{v}\n" for x, (y, v) in zip(
            xs, itertools.cycle([(0.0, 1.0), (0.25, 2.0), (0.5, 3.0),
                                 (0.75, 4.0), (1.0, 5.0)])))
        p = tmp_path / "b.csv"
        p.write_text("x,y,value\n" + body)
        b = SampledBivariate.read_csv(p)
        zero = np.unique(np.array([float(x) for x in xs]))[0]
        assert math.copysign(1.0, b.xgrid.lo[0]) == math.copysign(1.0, zero)
        assert b.xgrid.n == (3,) and b.vals.shape == (3, 5)


def _read_outcome(path, ncoord):
    """What ``_read_rows`` makes of PATH: the array's bytes, or the
    FormatError's message and line."""
    with grids._open_csv(path) as fh:
        fh.readline()
        try:
            a = grids._read_rows(fh, ncoord)
        except FormatError as err:
            return "error", str(err), err.line
    return "rows", a.shape, a.tobytes()


class TestReaderParity:
    """``grids._parse_block`` (numpy's C reader) against the token route
    it replaced, ``oracles.token_parse_block``: the same arrays bit for
    bit, and the same FormatError message and line for every refused
    file, block by block and through the line-by-line reparse."""

    NCOORD = 2
    # each replaces one field; the value column is the last
    ODD_TOKENS = ["inf", "1e999", "-1e999", "-inf", "nan", "-0.0", "1_0",
                  "١٢", "\x1c2.5", "2.5\x1f", " 7 ", "zardoz", "",
                  "Infinity", "+.5e-3", "0x10"]

    def _lines(self, rng, nrows):
        # finite coordinates and values of every magnitude, from raw bits
        bits = rng.integers(0, 2**63 - 2**52, (nrows, self.NCOORD + 1))
        vals = bits.view(np.float64) * rng.choice([-1.0, 1.0], bits.shape)
        return [",".join(map(repr, row)) for row in vals.tolist()]

    def _mutate(self, rng, lines):
        for _ in range(int(rng.integers(0, 3))):
            i = int(rng.integers(len(lines)))
            fields = lines[i].split(",")
            kind = int(rng.integers(5))
            if kind == 0:
                fields.append("1.0")            # too many fields
            elif kind == 1:
                fields.pop()                    # too few fields
            else:
                k = int(rng.integers(len(fields)))
                fields[k] = str(rng.choice(self.ODD_TOKENS))
            lines[i] = ",".join(fields)
        for _ in range(int(rng.integers(0, 3))):
            lines.insert(int(rng.integers(len(lines) + 1)),
                         str(rng.choice(["", "  \t", "\x1c"])))
        return lines

    def _check(self, path, monkeypatch):
        new = _read_outcome(path, self.NCOORD)
        with monkeypatch.context() as m:
            m.setattr(grids, "_parse_block", oracles.token_parse_block)
            old = _read_outcome(path, self.NCOORD)
        assert new == old, path.read_bytes()[:400]
        return new

    def test_seeded_files(self, tmp_path, blocks, monkeypatch):
        rng = np.random.default_rng(12)
        kinds = set()
        for t in range(120):
            lines = self._mutate(rng, self._lines(rng, int(rng.integers(1, 40))))
            eol = "\r\n" if t % 3 == 0 else "\n"
            p = tmp_path / f"f{t}.csv"
            p.write_bytes(("x,y,value" + eol + eol.join(lines) + eol).encode())
            kinds.add(self._check(p, monkeypatch)[0])
        assert kinds == {"rows", "error"}

    @pytest.mark.parametrize("token", ODD_TOKENS)
    @pytest.mark.parametrize("column", [0, 2])
    def test_one_bad_row_in_a_block(self, tmp_path, blocks, monkeypatch,
                                    token, column):
        lines = self._lines(np.random.default_rng(7), 30)
        fields = lines[17].split(",")
        fields[column] = token
        lines[17] = ",".join(fields)
        lines[4:4] = ["", "\x1c"]
        p = tmp_path / "f.csv"
        p.write_bytes(("x,y,value\r\n" + "\r\n".join(lines) + "\r\n").encode())
        self._check(p, monkeypatch)

    def test_blocks_agree_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rows = [ln + "\n" for ln in self._lines(rng, 25)]
            rows[3] = "-0.0,1e-320," + str(rng.choice(["inf", "1e999", "-0.0"])) + "\n"
            new = grids._parse_block(rows, 3, self.NCOORD)
            old = oracles.token_parse_block(rows, 3, self.NCOORD)
            assert new.shape == old.shape and new.tobytes() == old.tobytes()


ext_reals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.just(math.inf))


@st.composite
def grids_of(draw, dim):
    lo = [draw(st.floats(-1e4, 1e4)) for _ in range(dim)]
    width = [draw(st.floats(1e-4, 1e3)) for _ in range(dim)]
    n = [draw(st.integers(3, 7 if dim == 2 else 12)) for _ in range(dim)]
    return Grid(lo, [a + w for a, w in zip(lo, width)], n)


def _values(draw, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(ext_reals, min_size=size, max_size=size)),
                    dtype=np.float64).reshape(shape)


def _same_nodes(a: Grid, b: Grid) -> bool:
    """Equal node coordinates, bit for bit. A file holds only the nodes:
    hi may come back as another float, and h too where several steps give
    the same nodes."""
    return (a.n == b.n and a.lo == b.lo
            and all(x.tobytes() == y.tobytes() for x, y in zip(a.axes, b.axes)))


class TestCsvRoundTripProperties:
    # values and grid nodes come back bit for bit

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([1, 2]))
    def test_sampled_function(self, tmp_path_factory, data, dim):
        g = data.draw(grids_of(dim))
        f = SampledFunction(g, _values(data.draw, g.shape))
        p = tmp_path_factory.mktemp("rt") / "f.csv"
        f.to_csv(p)
        back = SampledFunction.read_csv(p)
        assert _same_nodes(back.grid, g)
        assert back.vals.tobytes() == f.vals.tobytes()

    @pytest.mark.parametrize("lo, hi, n", [
        # hi = the last node read back gives other nodes and another h
        (3.737108549215847, 65.05344509785773, 8),
        (33.354382098849555, 90.60866748426072, 8),
    ])
    def test_nodes_survive_a_drifting_last_node(self, tmp_path, lo, hi, n):
        g = Grid.line(lo, hi, n)
        SampledFunction(g, np.zeros(n)).to_csv(tmp_path / "f.csv")
        back = SampledFunction.read_csv(tmp_path / "f.csv").grid
        assert _same_nodes(back, g) and back.h == g.h

    def test_fine_grid_far_from_zero_reads_back(self, tmp_path):
        # rounding alone makes the node differences of this grid differ by
        # far more than 1e-9 relative
        g = Grid.line(999.0, 999.001, 300)
        SampledFunction(g, np.zeros(300)).to_csv(tmp_path / "f.csv")
        assert _same_nodes(SampledFunction.read_csv(tmp_path / "f.csv").grid, g)
        # hand-typed decimals 0.1, ..., 0.4 lie up to an ulp off the Grid
        # the reader fits to them, and still read
        (tmp_path / "d.csv").write_text(
            "x,value\n" + "".join(f"0.{i},0\n" for i in range(1, 5)))
        assert SampledFunction.read_csv(tmp_path / "d.csv").grid.n == (4,)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.sampled_from([1, 2]))
    def test_sampled_bivariate(self, tmp_path_factory, data, dim):
        gx, gy = data.draw(grids_of(dim)), data.draw(grids_of(dim))
        b = SampledBivariate(gx, gy, _values(data.draw, gx.shape + gy.shape))
        p = tmp_path_factory.mktemp("rt") / "b.csv"
        b.to_csv(p)
        back = SampledBivariate.read_csv(p)
        assert _same_nodes(back.xgrid, gx) and _same_nodes(back.ygrid, gy)
        assert back.vals.tobytes() == b.vals.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.sampled_from([1, 2]))
    def test_graph_set(self, tmp_path_factory, data, dim):
        gx, gy = data.draw(grids_of(dim)), data.draw(grids_of(dim))
        shape = gx.shape + gy.shape
        bits = data.draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))
        m = GraphSet(gx, gy, np.array(bits, dtype=bool).reshape(shape))
        p = tmp_path_factory.mktemp("rt") / "m.csv"
        m.to_csv(p)
        back = GraphSet.read_csv(p)
        assert back.xgrid == gx and back.ygrid == gy
        assert np.array_equal(back.mask, m.mask)


def test_pairing_2d_matches_dot():
    gx = Grid.box((-1.0, 0.0), (1.0, 1.0), (4, 5))
    gy = Grid.box((0.0, -1.0), (2.0, 1.0), (3, 6))
    P = pairing(gx, gy)
    x = gx.coords((2, 3))
    y = gy.coords((1, 4))
    assert P[2, 3, 1, 4] == pytest.approx(x[0] * y[0] + x[1] * y[1], abs=1e-15)
