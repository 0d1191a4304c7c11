"""The vectorized ``%.17g`` formatter of the run CSVs, value by value and file by file."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperflow import csvrows, scenario

DBL_MAX = sys.float_info.max
DBL_MIN = sys.float_info.min  # the smallest normal double


def assert_like_percent(values):
    """Every value's text is the one ``"%.17g" % v`` gives."""
    x = np.asarray(values, dtype=float)
    expected = ["%.17g" % v for v in x.tolist()]
    got = csvrows.texts(x)
    wrong = [(v, e, g) for v, e, g in zip(x.tolist(), expected, got) if e != g]
    assert len(got) == len(expected) and not wrong, wrong[:10]


def neighbours(values):
    """Each value with the doubles just below and above it, and their negatives."""
    x = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        around = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([around, -around])


class TestValueByValue:
    def test_zeros_subnormals_and_extremes(self):
        subnormals = [5e-324, 1e-323, 2.5e-320, 1e-310, DBL_MIN - 5e-324, 4.9406564584124654e-324 * 12345]
        assert_like_percent(neighbours([0.0, DBL_MIN, DBL_MAX, *subnormals]))
        assert csvrows.texts(np.array([0.0, -0.0])) == ["0", "-0"]

    def test_non_finite(self):
        assert csvrows.texts(np.array([math.inf, -math.inf, math.nan])) == ["inf", "-inf", "nan"]

    def test_powers_of_ten_and_their_neighbours(self):
        assert_like_percent(neighbours([float(f"1e{k}") for k in range(-300, 301)]))

    def test_powers_of_two_and_their_neighbours(self):
        assert_like_percent(neighbours([2.0**e for e in range(-1074, 1024)]))

    def test_notation_boundaries(self):
        # X = -5 and 16 are the last exponents of each notation, -4 and 17 the first
        # of the next; 9.99...e-5 and 9.99...e16 round across the boundary
        edges = [1.5e-5, 9.999999999999999e-5, 1e-4, 1.2345e-4, 0.00099999999999999999,
                 1e16, 1.2345678901234567e16, 99999999999999999.0, 1e17, 1.5e17, 123456789012345678.0]
        assert_like_percent(neighbours(edges))

    def test_fixed_notation_points_and_trailing_zeros(self):
        x = [d * 10.0**e for d in (1.0, 1.5, 2.25, 3.125, 9.0, 1.0000000000000002) for e in range(-4, 17)]
        assert_like_percent(neighbours(x + [0.5, 2.0, 10.0, 100.0, -3.0, 123.0, 0.1, 0.2, 0.3]))

    def test_exact_ties(self):
        # 18 significant digits ending in 5: ties, rounded to even by "%.17g"
        ties = [1 + 2**-17, 1 + 3 * 2**-17, 2**-17, 0.5 + 2**-18, 3 * 2**-20, 2.0**60 + 2**8]
        assert_like_percent(neighbours(ties))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(17).integers(0, 2**63, 20000, dtype=np.int64)
        assert_like_percent(neighbours(bits.view(np.float64)))

    def test_random_magnitudes(self):
        rng = np.random.default_rng(18)
        assert_like_percent(neighbours(10.0 ** rng.uniform(-320, 308, 20000)))
        assert_like_percent(neighbours(rng.standard_normal(20000) * 10.0 ** rng.integers(-8, 9, 20000)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        assert_like_percent(values)

    def test_blocks_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(csvrows, "CHUNK", 7)
        assert_like_percent(neighbours(np.linspace(-3.0, 2.0, 41)))


def write_reference(path, symbol, times, values):
    """The row-template writer the formatter replaced: one ``%`` per row."""
    k = values.shape[2]
    row = ",%.17g" * k + "\n"
    stamps = [",%.17g" % t for t in times.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id,t," + ",".join(f"{symbol}_{i + 1}" for i in range(k)) + "\n")
        for sid, block in enumerate(values):
            fh.writelines(str(sid) + stamp + row % tuple(x) for stamp, x in zip(stamps, block.tolist()))


def awkward_values(rng, shape):
    """Values in both notations, with zeros, ties, exact and non-finite ones among them."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 20, shape)
    flat = x.reshape(-1)
    special = [0.0, -0.0, 0.5, -2.0, 1e17, 1e-5, 1 + 2**-17, math.inf, math.nan, 1e300, 5e-324]
    picks = rng.integers(0, flat.size, 3 * len(special))
    flat[picks] = np.resize(special, picks.size)
    return x


class TestWholeFiles:
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("chunk", [1, 5, 64, csvrows.CHUNK])
    def test_bytes_match_the_row_template(self, tmp_path, monkeypatch, k, chunk):
        # chunks of 1 and 5 values end inside rows and inside samples
        monkeypatch.setattr(csvrows, "CHUNK", chunk)
        rng = np.random.default_rng(100 * k + chunk)
        times = np.concatenate([[-3.0], np.sort(rng.uniform(-3.0, 2.0, 11)), [2.0]])
        values = awkward_values(rng, (12, times.size, k))
        scenario._write_sample_rows(tmp_path / "new.csv", "x", csvrows.row_labels(times, len(values)), values)
        write_reference(tmp_path / "old.csv", "x", times, values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_blocks_cover_every_row_once(self, monkeypatch):
        monkeypatch.setattr(csvrows, "CHUNK", 10)
        values = np.arange(3 * 7 * 3, dtype=float).reshape(3, 7, 3)
        blocks = list(csvrows.sample_blocks(csvrows.row_labels(np.arange(7.0), 3), values))
        assert len(blocks) == math.ceil(21 / 3)
        lines = b"".join(blocks).decode().splitlines()
        assert lines == [f"{s},{t},{3 * (7 * s + t)},{3 * (7 * s + t) + 1},{3 * (7 * s + t) + 2}" for s in range(3) for t in range(7)]

    @pytest.mark.parametrize("case", range(12))
    def test_time_constant_values_give_the_broadcast_bytes(self, tmp_path, monkeypatch, case):
        # (S, 1, k) values are formatted once and repeated at every time; the
        # first cases pin S, T and k to 1, and small chunks end inside samples
        rng = np.random.default_rng(900 + case)
        S, T, k = [(1, 5, 3), (4, 1, 2), (3, 6, 1), (1, 1, 1)][case] if case < 4 else rng.integers(1, 9, 3).tolist()
        chunk = int(rng.integers(1, 3 * k * T + 2))
        monkeypatch.setattr(csvrows, "CHUNK", chunk)
        times = np.sort(rng.uniform(-3.0, 2.0, T))
        values = awkward_values(rng, (S, 1, k))
        labels = csvrows.row_labels(times, S)
        formatted, fields = [], csvrows.fields
        monkeypatch.setattr(csvrows, "fields", lambda x: formatted.append(len(x)) or fields(x))
        blocks = list(csvrows.sample_blocks(labels, values))
        assert formatted == [S * k]
        assert all(block.count(b"\n") <= max(1, chunk // k) for block in blocks)
        broadcast = list(csvrows.sample_blocks(labels, np.broadcast_to(values, (S, T, k)).copy()))
        assert b"".join(blocks) == b"".join(broadcast)
        write_reference(tmp_path / "old.csv", "x", times, np.broadcast_to(values, (S, T, k)))
        assert b"".join(blocks) == (tmp_path / "old.csv").read_bytes().split(b"\n", 1)[1]

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("chunk", [1, 5, csvrows.CHUNK])
    @pytest.mark.parametrize("constant", [False, True], ids=["generic", "time_constant"])
    def test_full_slots_beside_one_character_texts(self, tmp_path, monkeypatch, k, chunk, constant):
        # 24- and 23-character texts fill a value's slot; the last is a slow-path value,
        # and "0", "-0" and "1" take one or two of its bytes
        monkeypatch.setattr(csvrows, "CHUNK", chunk)
        edges = [-1.2345678901234567e-123, -0.00012345678901234567, -2.2250738585072014e-308, 0.0, -0.0, 1.0]
        assert max(len("%.17g" % v) for v in edges) == 24
        S, T = len(edges), 5
        cycle = np.arange(S)[:, None, None] + np.arange(1 if constant else T)[None, :, None] + np.arange(k)[None, None, :]
        values = np.array(edges)[cycle % len(edges)]  # every value in every column
        times = np.linspace(-1.0, 0.5, T)
        scenario._write_sample_rows(tmp_path / "new.csv", "x", csvrows.row_labels(times, S), values)
        write_reference(tmp_path / "old.csv", "x", times, np.broadcast_to(values, (S, T, k)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_single_time_and_sample(self, tmp_path):
        times, values = np.array([0.25]), np.array([[[1e-7, -0.0]]])
        scenario._write_sample_rows(tmp_path / "new.csv", "y", csvrows.row_labels(times, 1), values)
        write_reference(tmp_path / "old.csv", "y", times, values)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes() == b"sample_id,t,y_1,y_2\n0,0.25,9.9999999999999995e-08,-0\n"

    def test_a_run_formats_its_labels_once(self, tmp_path, monkeypatch):
        # the trajectory and ball CSVs share one set of sample ids and time stamps
        from hyperflow.catalog import CATALOG

        made, texts = [], csvrows.texts
        monkeypatch.setattr(csvrows, "texts", lambda x: made.append(len(x)) or texts(x))
        path = tmp_path / "scn.json"
        path.write_text(scenario.json.dumps({
            "name": "tube", "descriptor": scenario.descriptor_to_json(CATALOG["tube_h3"]),
            "time_grid": {"start": -1.0, "end": 0.25, "steps": 9}, "outputs": ["trajectory", "ball"],
        }))
        summary = scenario.run_scenario(path, tmp_path / "out", seed=7)
        assert made == [9]
        for name in ("trajectory", "ball"):
            rows = (tmp_path / "out" / f"tube_{name}.csv").read_text().splitlines()[1:]
            assert [row.split(",")[1] for row in rows[:9]] == ["%.17g" % t for t in np.linspace(-1.0, 0.25, 9)]
        assert set(summary["written"]) == {"trajectory", "ball"}


class TestSlotLayout:
    """Each value's text is left-aligned in a 24-byte slot, NULs only after it, and one byte
    follows the slot; the NUL strip sees those 25 bytes per value and no more."""

    def test_value_text_slots(self):
        rng = np.random.default_rng(31)
        slow = [5e-324, 1e-310, 2.2250738585072014e-308, 1 + 2**-17, 3 * 2**-20, math.inf, -math.inf, math.nan, 1e300]
        fast = [0.0, -0.0, 1.0, -1.2345678901234567e-123, -0.00012345678901234567, 12345678901234567.0, 1e17, 0.5]
        x = np.concatenate([slow, fast, awkward_values(rng, 200)])
        values = np.resize(x, (len(x) // 3 + 1) * 3).reshape(-1, 3)
        text = csvrows._value_text(values)
        assert text.dtype == np.uint8 and text.shape == (len(values), 3 * 25)
        slots = text.reshape(len(values), 3, 25)
        assert (slots[:, :-1, 24] == ord(",")).all() and (slots[:, -1, 24] == ord("\n")).all()
        for row, vals in zip(slots, values.tolist()):
            for slot, v in zip(row, vals):
                body = slot[:24].tobytes()
                used = len("%.17g" % v)
                assert body[:used].decode("ascii") == "%.17g" % v
                assert body[used:] == b"\0" * (24 - used)  # NULs only after the text

    def test_fields_are_three_words_per_value(self):
        x = np.array([-1.2345678901234567e-123, 0.0, math.nan, 2.5])
        words = csvrows.fields(x)
        assert words.shape == (4, 3) and words.dtype == np.uint64
        slots = [int(w0) | int(w1) << 64 | int(w2) << 128 for w0, w1, w2 in words.tolist()]
        assert [s.to_bytes(24, "little").rstrip(b"\0").decode("ascii") for s in slots] == ["%.17g" % v for v in x.tolist()]
