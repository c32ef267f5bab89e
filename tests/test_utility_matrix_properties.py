"""Property tests of the utility-matrix block reader.

A file either loads into well-formed matrices or is rejected with a
``ValidationError`` that names the file: no other exception may escape,
since the CLI turns any other one into an ``internal error`` exit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crpo.core import ValidationError  # noqa: E402
from crpo.dataio import load_utility_matrices, save_utility_matrices  # noqa: E402
from crpo.scoring import UtilityMatrix  # noqa: E402

# Surrogates cannot be written as UTF-8, so no file could hold them.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
IDS = st.lists(st.sampled_from(["A", "B", "C"]), max_size=4)
HEADERS = st.one_of(
    st.fixed_dictionaries({"source_id": st.sampled_from(["s1", "s2"]), "ids": IDS}),
    st.fixed_dictionaries({"source_id": JSON_VALUES, "ids": JSON_VALUES | IDS}),
    st.dictionaries(st.sampled_from(["source_id", "ids", "x"]), JSON_VALUES, max_size=3),
    JSON_VALUES,
)
TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "oops", "0x1p-2", "1_0", "{}", ""]),
)


@st.composite
def blocks(draw) -> list[str]:
    header = draw(HEADERS)
    lines = [json.dumps(header, ensure_ascii=False)]
    if draw(st.booleans()):
        lines[0] = lines[0][: draw(st.integers(0, len(lines[0])))]
    ids = header.get("ids") if isinstance(header, dict) else None
    width = len(ids) if isinstance(ids, list) else draw(st.integers(0, 3))
    n_rows = draw(st.sampled_from([width, width, max(width - 1, 0), width + 1]))
    for _ in range(n_rows):
        row_width = draw(st.sampled_from([width, width, width + 1, max(width - 1, 0)]))
        lines.append(" ".join(draw(st.lists(TOKENS, min_size=row_width, max_size=row_width))))
    if draw(st.booleans()):
        lines.append("")
    return lines


@pytest.fixture(scope="module")
def path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("matrices") / "util.txt"


@settings(max_examples=200, deadline=None)
@given(st.lists(blocks(), max_size=3))
def test_corrupted_files_load_or_raise_validation_error(path, file_blocks):
    path.write_text("\n".join(line for block in file_blocks for line in block), encoding="utf-8")
    try:
        matrices = load_utility_matrices(path)
    except ValidationError as err:
        assert "util.txt" in str(err)
        return
    for source_id, matrix in matrices.items():
        assert isinstance(source_id, str)
        assert matrix.ids and all(isinstance(c, str) for c in matrix.ids)
        assert matrix.values.shape == (len(matrix.ids), len(matrix.ids))
        assert np.isfinite(matrix.values).all()


@st.composite
def matrix_entries(draw) -> tuple[str, UtilityMatrix]:
    ids = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    k = len(ids)
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=k * k, max_size=k * k
        )
    )
    return draw(TEXT), UtilityMatrix(ids=tuple(ids), values=np.reshape(values, (k, k)))


@settings(max_examples=100, deadline=None)
@given(st.lists(matrix_entries(), max_size=3, unique_by=lambda entry: entry[0]))
def test_save_then_load_round_trips_any_ids_and_values(path, entries):
    save_utility_matrices(entries, path)
    back = load_utility_matrices(path)
    assert list(back) == [source_id for source_id, _ in entries]
    for source_id, matrix in entries:
        assert back[source_id].ids == matrix.ids
        np.testing.assert_array_equal(back[source_id].values, matrix.values)
