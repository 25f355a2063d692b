import csv
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import rows_as_multiset
from ulskit import (
    Dataset,
    EmptyDataset,
    ParseError,
    PretrainedModel,
    RngStream,
    SchemaMismatch,
    SubsampleTooLarge,
    compute_stats,
    concat_datasets,
    load_csv,
    load_model,
    save_csv,
    save_model,
    save_table,
    subsample,
)
from ulskit import data_model


def test_stats_single_row():
    stats = compute_stats(Dataset(np.array([[1.0, 0.0]]), np.array([2.0])))
    assert_allclose(stats.sigma, [[1.0, 0.0], [0.0, 0.0]])
    assert_allclose(stats.m, [2.0, 0.0])
    assert stats.n == 1


def test_stats_hand_sum():
    stats = compute_stats(Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 3.0])))
    assert_allclose(stats.sigma, [[1.0]])
    assert_allclose(stats.m, [2.0])


def test_stats_duplication_invariant():
    rng = RngStream(0, 0)
    x = rng.standard_normal((7, 3))
    y = rng.standard_normal(7)
    once = compute_stats(Dataset(x, y))
    twice = compute_stats(Dataset(np.vstack([x, x]), np.concatenate([y, y])))
    assert_allclose(twice.sigma, once.sigma, rtol=1e-14)
    assert_allclose(twice.m, once.m, rtol=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_stats_permutation_invariant(seed):
    rng = RngStream(seed, 0)
    x = rng.standard_normal((40, 4))
    y = rng.standard_normal(40)
    perm = rng.permutation(40)
    base = compute_stats(Dataset(x, y))
    shuffled = compute_stats(Dataset(x[perm], y[perm]))
    assert np.max(np.abs(shuffled.sigma - base.sigma)) <= 1e-12
    assert np.max(np.abs(shuffled.m - base.m)) <= 1e-12


def test_stats_pool_and_remove():
    rng = RngStream(8, 0)
    a = Dataset(rng.standard_normal((30, 4)), rng.standard_normal(30))
    b = Dataset(rng.standard_normal((11, 4)), rng.standard_normal(11), "forget")
    st_a, st_b = compute_stats(a), compute_stats(b)
    pooled = st_a + st_b
    stacked = compute_stats(concat_datasets([a, b], "remaining"))
    assert pooled.n == stacked.n == 41
    assert_allclose(pooled.sigma, stacked.sigma, rtol=1e-12)
    assert_allclose(pooled.m, stacked.m, rtol=1e-12)
    back = pooled - st_b
    assert back.n == 30
    assert_allclose(back.sigma, st_a.sigma, rtol=1e-12)
    assert_allclose(back.m, st_a.m, rtol=1e-12)


def test_empty_only_for_forget():
    Dataset(np.empty((0, 2)), np.empty(0), "forget")
    with pytest.raises(EmptyDataset):
        Dataset(np.empty((0, 2)), np.empty(0), "remaining")


def test_subsample_full_is_permutation():
    rng = RngStream(1, 0)
    d = Dataset(rng.standard_normal((9, 2)), rng.standard_normal(9))
    out = subsample(d, 9, RngStream(1, 1))
    assert_allclose(rows_as_multiset(out), rows_as_multiset(d))
    assert out.role == "subsample"


def test_subsample_deterministic():
    d = Dataset(np.arange(6.0).reshape(3, 2), np.array([0.0, 1.0, 2.0]))
    first = subsample(d, 1, RngStream(4, 2))
    second = subsample(d, 1, RngStream(4, 2))
    assert np.array_equal(first.x, second.x)


def test_subsample_is_submultiset():
    rng = RngStream(2, 0)
    d = Dataset(rng.standard_normal((12, 3)), rng.standard_normal(12))
    out = subsample(d, 5, RngStream(2, 1))
    pool = {tuple(row) for row in rows_as_multiset(d)}
    assert all(tuple(row) in pool for row in rows_as_multiset(out))


def test_subsample_uniform_frequencies():
    d = Dataset(np.arange(4.0).reshape(4, 1), np.arange(4.0))
    counts = np.zeros(4)
    for k in range(10_000):
        row = subsample(d, 1, RngStream(100, k))
        counts[int(row.y[0])] += 1
    freqs = counts / 10_000
    assert np.all(np.abs(freqs - 0.25) <= 0.02)


def test_subsample_too_large():
    d = Dataset(np.ones((3, 1)), np.ones(3))
    with pytest.raises(SubsampleTooLarge):
        subsample(d, 4, RngStream(0, 0))


def test_csv_two_rows(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("y,x1\n1.0,2.0\n3.0,4.0\n")
    d = load_csv(path)
    assert (d.n, d.p) == (2, 1)
    assert_allclose(d.y, [1.0, 3.0])
    assert_allclose(d.x[:, 0], [2.0, 4.0])


def test_csv_roundtrip(tmp_path):
    rng = RngStream(7, 0)
    d = Dataset(rng.standard_normal((100, 5)), rng.standard_normal(100))
    path = tmp_path / "round.csv"
    save_csv(d, path)
    back = load_csv(path)
    assert np.array_equal(back.x, d.x)
    assert np.array_equal(back.y, d.y)


def test_csv_nan_cell_named(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1\n1.0,2.0\n3.0,NaN\n")
    with pytest.raises(ParseError, match="row 3, column 2"):
        load_csv(path)


def test_csv_garbage_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1\nhello,2.0\n")
    with pytest.raises(ParseError, match="row 2, column 1"):
        load_csv(path)


def test_csv_overlong_cell_named(tmp_path):
    # longer than the csv module's field size limit (131072 characters)
    path = tmp_path / "long.csv"
    path.write_text("y,x1\n1.0,2.0\n3.0," + "4" * 200_000 + "\n")
    with pytest.raises(ParseError, match="row 3"):
        load_csv(path)


def test_csv_extreme_values_roundtrip(tmp_path):
    values = np.array([-0.0, 5e-324, 1.7976931348623157e308, -1e308, 0.1, -2.5])
    d = Dataset(values[:, None], values[::-1].copy())
    path = tmp_path / "extreme.csv"
    save_csv(d, path)
    lines = path.read_text().splitlines()
    assert lines[1] == "-2.5,-0"
    assert lines[2] == "0.10000000000000001,4.9406564584124654e-324"
    back = load_csv(path)
    assert np.array_equal(back.x, d.x) and np.array_equal(back.y, d.y)
    assert np.signbit(back.x[0, 0])


def test_csv_header_only_roundtrip(tmp_path):
    path = tmp_path / "empty.csv"
    save_csv(Dataset(np.empty((0, 3)), np.empty(0), "forget"), path)
    assert path.read_text() == "y,x1,x2,x3\n"
    assert load_csv(path, role="forget").n == 0


def test_csv_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,a1\n1.0,2.0\n")
    with pytest.raises(SchemaMismatch):
        load_csv(path)
    path.write_text("y,x1\n1.0,2.0\n")
    with pytest.raises(SchemaMismatch):
        load_csv(path, expected_p=3)


# (id, file text, expected): the (y, x) read as a forget set, or the error
# class and its message, where {path} stands for the file's path.
AWKWARD_CSV = [
    ("no-final-newline", "y,x1\n1,2\n3,4", ([1.0, 3.0], [[2.0], [4.0]])),
    ("crlf", "y,x1\r\n1,2\r\n3,4\r\n", ([1.0, 3.0], [[2.0], [4.0]])),
    ("cr-only", "y,x1\r1,2\r3,4\r", ([1.0, 3.0], [[2.0], [4.0]])),
    ("padded", "y,x1\n 1 ,\t2\n", ([1.0], [[2.0]])),
    ("underflow", "y,x1\n1e-400,-0\n", ([0.0], [[-0.0]])),
    ("underscore", "y,x1\n1_0,2\n", ([10.0], [[2.0]])),
    ("arabic-indic", "y,x1\n\u0661,\u0663.\u0665\n", ([1.0], [[3.5]])),
    ("quoted", 'y,x1\n"2.5",1\n', ([2.5], [[1.0]])),
    ("quoted-header", '"y","x1"\n1,2\n', ([1.0], [[2.0]])),
    ("quoted-newline-number", 'y,x1\n"1\n",2\n', ([1.0], [[2.0]])),
    ("header-only", "y,x1\n", ([], np.empty((0, 1)))),
    ("header-only-no-newline", "y,x1", ([], np.empty((0, 1)))),
    ("empty-file", "", (SchemaMismatch, "{path}: file is empty")),
    ("bom-header", "\ufeffy,x1\n1,2\n",
     (SchemaMismatch, "{path}: header must start with 'y', got ['\\ufeffy']")),
    ("blank-line-inside", "y,x1\n1,2\n\n3,4\n",
     (ParseError, "{path}: row 3 has 0 fields, expected 2")),
    ("blank-body", "y,x1\n\n",
     (ParseError, "{path}: row 2 has 0 fields, expected 2")),
    ("blank-line-at-end", "y,x1\n1,2\n\n",
     (ParseError, "{path}: row 3 has 0 fields, expected 2")),
    ("whitespace-line", "y,x1\n1,2\n  \n",
     (ParseError, "{path}: row 3 has 1 fields, expected 2")),
    ("comment-line", "y,x1\n#c\n1,2\n",
     (ParseError, "{path}: row 2 has 1 fields, expected 2")),
    ("comment-in-cell", "y,x1\n1,2#c\n",
     (ParseError, "{path}: row 2, column 2: cannot parse '2#c'")),
    ("short-row", "y,x1,x2\n1,2\n",
     (ParseError, "{path}: row 2 has 2 fields, expected 3")),
    ("long-row", "y,x1\n1,2,3\n",
     (ParseError, "{path}: row 2 has 3 fields, expected 2")),
    ("empty-field", "y,x1\n1,\n",
     (ParseError, "{path}: row 2, column 2: cannot parse ''")),
    ("quoted-comma", 'y,x1\n"1,5",1\n',
     (ParseError, "{path}: row 2, column 1: cannot parse '1,5'")),
    ("quoted-newline", 'y,x1\n"1\n2",3\n',
     (ParseError, "{path}: row 2, column 1: cannot parse '1\\n2'")),
    ("hex", "y,x1\n0x10,1\n",
     (ParseError, "{path}: row 2, column 1: cannot parse '0x10'")),
    ("bom-cell", "y,x1\n\ufeff1,2\n",
     (ParseError, "{path}: row 2, column 1: cannot parse '\\ufeff1'")),
    ("file-separator", "y,x1\n1,\x1c2\n",
     (ParseError, "{path}: row 2, column 2: cannot parse '\\x1c2'")),
    ("inf", "y,x1\ninf,1\n",
     (ParseError, "{path}: row 2, column 1: non-finite value 'inf'")),
    ("overflow", "y,x1\n1,1e400\n",
     (ParseError, "{path}: row 2, column 2: non-finite value '1e400'")),
    ("overlong-finite-cell", "y,x1\n1,0." + "0" * 200_000 + "1\n",
     (ParseError, "{path}: row 2: field larger than field limit (131072)")),
]


@pytest.mark.parametrize("parser", ["loadtxt-first", "cell-scan"])
@pytest.mark.parametrize(
    "text,expected", [pytest.param(t, e, id=name) for name, t, e in AWKWARD_CSV]
)
def test_csv_awkward_inputs(tmp_path, monkeypatch, text, expected, parser):
    # the cell scan alone must give what the vectorized parse plus fallback gives
    if parser == "cell-scan":
        monkeypatch.setattr(data_model, "_parse_body", lambda lines, p: None)
    path = tmp_path / "awkward.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(expected[0], type):
            with pytest.raises(expected[0]) as info:
                load_csv(path, role="forget")
            assert str(info.value) == expected[1].format(path=path)
        else:
            d = load_csv(path, role="forget")
            assert d.y.tobytes() == np.asarray(expected[0], dtype=float).tobytes()
            assert d.x.tobytes() == np.asarray(expected[1], dtype=float).tobytes()
            assert d.x.shape == (len(expected[0]), 1)
    assert not caught


def test_csv_loadtxt_matches_float_bitwise(tmp_path):
    rng = RngStream(11, 0)
    # magnitudes from 1e-300 to 1e300, so rounding of every kind is exercised
    scale = 10.0 ** np.floor(600.0 * rng.uniform((2000, 21)) - 300.0)
    values = rng.standard_normal((2000, 21)) * scale
    path = tmp_path / "doubles.csv"
    save_csv(Dataset(values[:, 1:], values[:, 0]), path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    ref = np.array([[float(cell) for cell in row] for row in csv.reader(lines[1:])])
    assert data_model._parse_body(lines[1:], 20) is not None  # no fallback
    d = load_csv(path)
    assert d.y.tobytes() == ref[:, 0].tobytes()
    assert d.x.tobytes() == ref[:, 1:].tobytes()
    assert d.x.flags.c_contiguous and d.y.flags.c_contiguous


@pytest.mark.parametrize("role", ["remaining", "subsample", "test"])
def test_csv_header_only_is_an_input_error(tmp_path, role):
    path = tmp_path / "empty.csv"
    path.write_text("y,x1\n")
    with pytest.raises(SchemaMismatch) as info:
        load_csv(path, role=role)
    assert str(path) in str(info.value) and repr(role) in str(info.value)


def test_stats_reject_overflowing_moments():
    x = np.ones((3, 1))
    with pytest.raises(ValueError, match="moments overflow"):
        compute_stats(Dataset(x, np.full(3, 1e308)))


def test_model_json_roundtrip(tmp_path):
    model = PretrainedModel(np.array([0.5, -1.5]), 10, 8, 2, "squared")
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.theta_p, model.theta_p)
    assert (back.n_total, back.n_remaining, back.n_forget) == (10, 8, 2)
    assert back.loss_id == "squared"


def test_model_json_missing_key(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"theta": [1.0], "n_total": 2}')
    with pytest.raises(SchemaMismatch):
        load_model(path)


def test_weight_profile_exact_complement():
    for n_f in (1, 7, 333):
        w = PretrainedModel(np.zeros(1), 1000, 1000 - n_f, n_f)
        assert w.omega_f + w.omega_r == 1.0


def test_model_count_invariant():
    with pytest.raises(ValueError):
        PretrainedModel(np.zeros(2), 10, 8, 3)


def test_save_table_cell_rules(tmp_path):
    path = tmp_path / "table.csv"
    rows = [("uls", None, True, False, 3),
            ("tl", float("inf"), float("nan"), np.int64(12), 0.1),
            ("", -float("inf"), np.float64(2.5), 1e-300, -7)]
    save_table(("method", "a", "b", "c", "d"), rows, path)
    assert path.read_bytes() == (
        b"method,a,b,c,d\n"
        b"uls,,1,0,3\n"
        b"tl,inf,nan,12,0.10000000000000001\n"
        b",-inf,2.5,1e-300,-7\n"
    )
