"""JSON/CSV encodings: round trips, schemas, group files."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from classops import cli, serialize
from classops.groups import GroupConstructionError, build_group
from classops.representations import character_table, irreps
from classops.coupling import conjugation_decomposition, su2_coupling_table
from classops.serialize import (
    REPORT_SCHEMA,
    TABLES_SCHEMA,
    coupling_table_document,
    csv_lines,
    format_float,
    json_text,
    load_group_file,
    tables_document,
)
from helpers import decode_complex_array, oracle_json_text, read_tables_2, unitarity_residual


def test_complex_array_round_trip():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    decoded = decode_complex_array(json.loads(json_text(arr)))
    assert decoded.shape == arr.shape
    assert np.array_equal(decoded, arr)


def test_format_float_17_significant_digits():
    assert format_float(1 / 3) == "3.3333333333333331e-01"
    assert format_float(0.0) == "0.0000000000000000e+00"
    assert float(format_float(np.pi)) == np.pi  # lossless round trip


def test_csv_lines():
    lines = csv_lines(["a", "b", "c"], [[1, 0.5, True], ["x", 2.0 + 1.0j, False]])
    assert lines[0] == "a,b,c"
    assert lines[1].startswith("1,5.0000000000000000e-01,1")
    assert "j" in lines[2] and lines[2].endswith(",0")


def test_group_file_round_trip(tmp_path):
    for spec in (
        {"catalog": {"family": "dihedral", "n": 4}},
        {"generators": ["(1 2)", "(1 2 3)"]},
        {"table": build_group("C3").mult_table.tolist()},
    ):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(spec))
        group = load_group_file(path)
        group.validate()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"table": [[0, 1], [1, 1]]}))
    with pytest.raises(GroupConstructionError):
        load_group_file(bad)


def test_tables_document_schema():
    group = build_group("S3")
    table = character_table(group)
    reps = irreps(group, table)
    coupling = conjugation_decomposition(group, reps, table)
    doc = tables_document(group, table, reps, coupling)
    assert doc["schema"] == TABLES_SCHEMA
    assert doc["group"]["order"] == 6
    assert [r["dim"] for r in doc["irreps"]] == [1, 1, 2]
    assert len(doc["coupling"]) == 3
    # the document holds the arrays themselves; json_text spells them
    assert doc["character_table"]["values"] is table.values
    assert doc["group"]["generators"] is group.generators
    loaded = json.loads(json_text(doc))
    values = decode_complex_array(loaded["character_table"]["values"])
    assert np.max(np.abs(values - table.values)) < 1e-15
    images = decode_complex_array(loaded["irreps"][2]["generator_images"])
    assert np.array_equal(images, reps[2].matrices[group.generators])
    assert images.shape == (2, 2, 2)


@pytest.mark.parametrize("make", [
    lambda: conjugation_decomposition(
        build_group("S3"),
        irreps(build_group("S3")),
        character_table(build_group("S3")),
    )[2],
    lambda: su2_coupling_table(2),
])
def test_coupling_table_round_trip(make):
    table = make()
    doc = json.loads(json_text(coupling_table_document(table)))
    assert set(doc) == {"sigma", "kind", "basis"}
    assert doc["sigma"] == table.sigma
    assert list(doc["basis"]) == [str(g) for g in table.gammas]
    for gamma in table.gammas:
        assert np.array_equal(decode_complex_array(doc["basis"][str(gamma)]), table.basis[gamma])
    assert unitarity_residual(table) < 1e-10


def _coupling_tables(spec):
    if spec == "su2":
        return [su2_coupling_table(3)]
    group = build_group(spec)
    table = character_table(group)
    reps = irreps(group, table)
    return conjugation_decomposition(group, reps, table)


@pytest.mark.parametrize("spec", ["S4", ["(1 2 3)", "(1 2 3 4 5)"], "su2"], ids=["S4", "A5-generators", "su2"])
def test_coupling_tables_round_trip_through_json_text(spec):
    # the written text parses back to the same floats, so the basis is exact,
    # and so is all a reader forms from it: the components, their
    # multiplicities, sigma's dimension and the coefficients conj(basis)
    for table in _coupling_tables(spec):
        doc = json.loads(json_text(coupling_table_document(table)))
        assert (doc["sigma"], doc["kind"]) == (table.sigma, table.kind)
        basis = {int(g): decode_complex_array(e) for g, e in doc["basis"].items()}
        assert list(basis) == table.gammas
        assert {g: e.shape[0] for g, e in basis.items()} == table.multiplicities
        for g, e in basis.items():
            assert e.shape[-1] == table.sigma_dim
            assert np.array_equal(e, table.basis[g])


def test_report_schema_name():
    assert REPORT_SCHEMA == "classop-report/1"


# ---------------------------------------------------------------------------
# json_text against the json module's indent-2 rendering
# ---------------------------------------------------------------------------


def assert_same_text(text: str, expected: str) -> None:
    # pytest's own diff of two texts of a megabyte runs for minutes
    if text != expected:
        at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
        window = slice(max(0, at - 40), at + 40)
        pytest.fail(f"texts part at offset {at}: {text[window]!r} != {expected[window]!r}")


def _full_tables(group):
    table = character_table(group, seed=3)
    reps = irreps(group, table, seed=3)
    return table, reps, conjugation_decomposition(group, reps, table)


def _full_tables_document(group):
    return tables_document(group, *_full_tables(group))


def _a5_from_file(tmp_path):
    path = tmp_path / "a5.json"
    path.write_text(json.dumps({"generators": ["(1 2 3)", "(1 2 3 4 5)"], "name": "A5"}))
    return load_group_file(path)


def _d60_from_file(tmp_path):
    reflection = "".join(f"({i} {62 - i})" for i in range(2, 31))
    path = tmp_path / "d60.json"
    path.write_text(json.dumps({"generators": ["(" + " ".join(map(str, range(1, 61))) + ")", reflection]}))
    return load_group_file(path)


@pytest.mark.parametrize("make", [
    lambda tmp_path: _full_tables_document(build_group("C12")),
    lambda tmp_path: _full_tables_document(build_group("S4")),
    lambda tmp_path: _full_tables_document(_a5_from_file(tmp_path)),
    lambda tmp_path: _full_tables_document(build_group({"table": build_group("D4").mult_table.tolist(), "name": "T"})),
    lambda tmp_path: coupling_table_document(su2_coupling_table(2)),
    lambda tmp_path: _full_tables_document(build_group("C150")),
    lambda tmp_path: _full_tables_document(_d60_from_file(tmp_path)),
], ids=["C12", "S4", "file-A5", "table-D4", "su2-coupling-2", "C150", "file-D60"])
def test_json_text_is_the_indent_2_rendering_of_tables(make, tmp_path):
    document = make(tmp_path)
    assert_same_text(json_text(document), oracle_json_text(document))


def test_json_text_of_c150_tables_peaks_below_three_times_its_text():
    # one list of chunks and one join: the writer holds the text about twice
    document = _full_tables_document(build_group("C150"))
    tracemalloc.start()
    try:
        text = json_text(document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * len(text)


@pytest.mark.parametrize("make", [
    lambda tmp_path: build_group("C12"),
    lambda tmp_path: build_group("S4"),
    _a5_from_file,
    lambda tmp_path: build_group({"table": build_group("D4").mult_table.tolist(), "name": "T"}),
    lambda tmp_path: build_group("C150"),
    lambda tmp_path: build_group("C1"),
    lambda tmp_path: build_group("S1"),
], ids=["C12", "S4", "file-A5", "table-D4", "C150", "C1", "S1"])
def test_tables_2_rebuild_every_irrep_from_its_generator_images(make, tmp_path):
    group = make(tmp_path)
    table, reps, coupling = _full_tables(group)
    document = json.loads(json_text(tables_document(group, table, reps, coupling)))
    assert document["schema"] == TABLES_SCHEMA == "classop-tables/2"
    rebuilt = read_tables_2(document)
    assert [m.shape for m in rebuilt] == [rep.matrices.shape for rep in reps]
    for mats, rep in zip(rebuilt, reps):
        assert np.max(np.abs(mats - rep.matrices)) <= 1e-12
    if group.generators:
        # one generator-image entry of the largest irrep moved by 1e-6 is refused
        document["irreps"][-1]["generator_images"][0][0][0][0] += 1e-6
        with pytest.raises(ValueError, match="from the table"):
            read_tables_2(document)


def _float_count(o) -> int:
    if isinstance(o, float):
        return 1
    if isinstance(o, list):
        return sum(map(_float_count, o))
    if isinstance(o, dict):
        return sum(map(_float_count, o.values()))
    return 0


@pytest.mark.parametrize("spec", [
    {"generators": ["(1 2)", "(1 2 3 4 5)"]},
    {"catalog": {"family": "cyclic", "n": 60}},
], ids=["file-S5", "C60"])
def test_tables_2_holds_no_stack_over_the_group(spec, tmp_path):
    # 2 floats per complex entry: the k x k table, each irrep on the generators
    # and one d_sigma^2 x d_sigma^2 coupling basis per sigma, nothing |G| long
    path, out = tmp_path / "group.json", tmp_path / "tables.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["export-tables", "--group", f"file:{path}", "--output", str(out)]) == 0
    group = build_group(spec)
    dims = character_table(group).dims
    expected = 2 * (len(dims) ** 2 + len(group.generators) * int(np.sum(dims ** 2)) + int(np.sum(dims ** 4)))
    assert _float_count(json.loads(out.read_text())) == expected


@pytest.mark.parametrize("argv", [
    ["finite-verify", "--group", "S3", "--n-random", "2"],
    ["wigner-eckart", "--group", "D4"],
    ["wigner-eckart", "--group", "su2", "--max-spin-x2", "3", "--psi", "1.1"],
    ["scan", "--group", "Q8"],
    ["su2-verify"],
    ["su2-verify", "--j2", "5", "--psi", "0.4", "--quadrature", "8", "16"],
], ids=lambda argv: "-".join(argv[:3]))
def test_json_text_is_the_indent_2_rendering_of_reports(argv, monkeypatch, capsys):
    documents = []

    def recording(document):
        documents.append(document)
        return json_text(document)

    monkeypatch.setattr(serialize, "json_text", recording)
    assert cli.main(argv) in (0, 1)
    out = capsys.readouterr().out
    assert len(documents) == 1
    assert_same_text(out, oracle_json_text(documents[0]))


ADVERSARIAL_DOCUMENT = {
    "floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1],
    "float block": [[[1.5, math.nan], [-0.0, -math.inf]], [[5e-324, 1e16], [math.inf, 2.0]]],
    "int then float": [1, 2.0],
    "bool then float": [True, 1.0],
    "empty rows": [[], []],
    "one empty row": [[]],
    "ragged": [[1.0], [2.0, 3.0]],
    "ragged deeper": [[[1.0, 2.0]], [[3.0]]],
    "tuples": (1.0, (2.0, 3.0), [(4.0, 5.0), (6.0, 7.0)]),
    "nan": math.nan,
    "minus infinity": -math.inf,
    "numpy scalar": np.float64(0.1),
    "numpy scalar in a block": [[np.float64(1.0), 2.0], [3.0, 4.0]],
    "strings spelling floats": ["nan", "inf", "-Infinity"],
    "ints": [0, -1, 10**20, True],
    "empty": {},
    "empty list": [],
    "scalars": [None, True, False, "", 0],
    "rows of dicts": [{"b": [1.0, 2.0], "a": None}, {}],
    "complex": [complex(1.5, -0.0), complex(math.nan, -math.inf), np.complex128(5e-324 - 1j)],
    "arrays": [np.array(-0.0), np.array(2j), np.zeros((2, 0, 3)), np.zeros((0,), complex),
               np.array([[1 + 2j, math.nan], [-0.0j, complex(math.inf, 5e-324)]]),
               np.arange(24.0).reshape(2, 3, 4)[:, ::2, ::-1]],
    "caf\u00e9 \u043a\u043b\u044e\u0447 \x00\x1f\t\"\\ \U0001f600": "\u00ff\x7f\x01\n\u2028 \ud83d\ude00",
}


def test_json_text_is_the_indent_2_rendering_of_an_adversarial_document():
    assert_same_text(json_text(ADVERSARIAL_DOCUMENT), oracle_json_text(ADVERSARIAL_DOCUMENT))


def test_json_text_rejects_what_json_rejects():
    # a byte-swapped array too: its bits are not native float64 bits
    rejected = (np.int64(3), {1j: 2}, np.arange(3), np.array([True, False]), np.zeros(2, np.float32),
                [np.zeros((2, 2), np.complex64)], {"a": [np.arange(2)]},
                np.zeros(300, ">f8"), np.ones((2, 200), ">c16"), np.ones(3, ">f8"))
    for value in rejected:
        with pytest.raises(TypeError):
            oracle_json_text(value)
        with pytest.raises(TypeError):
            json_text(value)


_SPECIAL_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)
_ARRAYS = hnp.arrays(np.float64, _SHAPES, elements=_SPECIAL_FLOATS) | hnp.arrays(
    np.complex128, _SHAPES, elements=st.builds(complex, _SPECIAL_FLOATS, _SPECIAL_FLOATS)
)


@given(_ARRAYS)
def test_json_text_writes_an_array_as_the_indent_2_rendering_of_its_nested_lists(arr):
    assert_same_text(json_text(arr), oracle_json_text(arr))
    assert_same_text(json_text({"a": [arr, arr.T]}), oracle_json_text({"a": [arr, arr.T]}))


_LEAVES = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.builds(complex, _SPECIAL_FLOATS, _SPECIAL_FLOATS),
    _ARRAYS,
)


@st.composite
def _float_blocks(draw):
    """Rectangular nested lists of floats of depth 1 to 4, empty axes included."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    size = math.prod(shape)
    values = draw(st.lists(st.floats(), min_size=size, max_size=size))
    return np.array(values, dtype=float).reshape(shape).tolist()


_JSON_VALUES = st.recursive(
    _LEAVES | _float_blocks(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
def test_json_text_matches_the_indent_2_rendering_on_generated_values(value):
    assert_same_text(json_text(value), oracle_json_text(value))


# ---------------------------------------------------------------------------
# arrays large enough that each distinct float is spelled once
# ---------------------------------------------------------------------------

# equal bits spell alike: -0.0 and 0.0, and two NaN payloads, stay apart
_NANS = np.array([0x7FF8000000000001, 0xFFF4000000000000], np.uint64).view(np.float64).tolist()
_POOL = [0.0, -0.0, *_NANS, math.inf, -math.inf, 5e-324, 0.1, 1e16]


def _pool_array(leaves: int, dtype, view: bool) -> np.ndarray:
    """An array of ``leaves`` floats drawn from ``_POOL``, C-order or a reversed strided view."""
    floats = np.array(_POOL)[np.random.default_rng(leaves).integers(len(_POOL), size=(1, 2, leaves))]
    base = floats.view(dtype)  # a complex entry is two leaves, its NaN payloads kept
    return base[:, ::2, ::-1] if view else base[:, :1]


@pytest.mark.parametrize("view", [False, True], ids=["C-order", "view"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float", "complex"])
@pytest.mark.parametrize("offset", [-1, 0, 1, None], ids=["below", "at", "above", "4096"])
def test_json_text_spells_each_distinct_float_once_from_the_threshold(offset, dtype, view, monkeypatch):
    threshold = serialize._SPELL_ONCE_MIN
    width = 2 if dtype == np.complex128 else 1  # leaves per entry
    leaves = 4096 if offset is None else threshold + offset * width
    arr = _pool_array(leaves, dtype, view)
    assert arr.size * width == leaves and arr.flags.c_contiguous != view
    unique_calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: unique_calls.append(a) or unique(*a, **k))
    for document in (arr, {"a": [arr, arr.T]}):
        assert_same_text(json_text(document), oracle_json_text(document))
    assert len(unique_calls) == (0 if leaves < threshold else 3)


_REPEATED_FLOATS = st.sampled_from(_POOL) | st.floats()
# every element drawn (no fill value), so a large array holds both zeros and both NaNs
_REPEATING = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=40), elements=_REPEATED_FLOATS, fill=st.nothing()
) | hnp.arrays(
    np.complex128, hnp.array_shapes(min_dims=1, max_dims=2, max_side=40),
    elements=st.builds(complex, _REPEATED_FLOATS, _REPEATED_FLOATS), fill=st.nothing(),
)


@settings(max_examples=50)  # up to 3200 leaves each: the oracle's json.dumps dominates
@given(_REPEATING)
def test_json_text_matches_the_indent_2_rendering_on_arrays_with_repeated_values(arr):
    assert_same_text(json_text(arr), oracle_json_text(arr))
