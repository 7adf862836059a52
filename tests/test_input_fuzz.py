"""The field-dump reader returns or raises InvalidSpec, whatever the text.

Arbitrary text rarely gets past a header check, so the strategies also
build near-valid files: the expected keys in order, with values drawn
from numbers, special floats and free text.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsground import InvalidSpec, load_field

_NUMBERS = st.one_of(
    st.integers(-5, 70).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["0.0 1.0", "0.0 1.0 0.0 1.0", "0.5", "0.5 0.5", "1e400",
                     "-0", "nan", "inf", "()", "none", "1,2", "0.0,1.0", ""]),
)
_VALUE = st.one_of(_NUMBERS, st.text(max_size=20))

_DUMP_KEYS = ("dimension", "bounds", "star_center", "n", "values")


@st.composite
def _dump_text(draw):
    header = draw(st.sampled_from(["nlsground-field 1", "nlsground-field 2", ""]))
    keys = draw(st.lists(st.sampled_from(_DUMP_KEYS + ("x",)), max_size=6)
                | st.just(list(_DUMP_KEYS)))
    rows = [f"{key} {draw(_VALUE)}" for key in keys]
    rows += draw(st.lists(_VALUE, max_size=12))
    return "\n".join([header] + rows)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _returns_or_invalid(reader, path):
    try:
        reader(path)
    except InvalidSpec:
        pass


@given(text=st.one_of(st.text(), _dump_text()))
@settings(max_examples=200, deadline=None)
def test_load_field_returns_or_raises_invalid_spec(text, scratch):
    path = scratch / "u.field"
    path.write_text(text, encoding="utf-8")
    _returns_or_invalid(load_field, path)


@given(data=st.binary(max_size=64))
@settings(max_examples=50, deadline=None)
def test_readers_reject_undecodable_bytes(data, scratch):
    path = scratch / "raw"
    path.write_bytes(b"\xff" + data)
    _returns_or_invalid(load_field, path)


@pytest.mark.parametrize("bounds, n", [
    ("-1e308 1e308", 3),       # the length overflows to an infinite spacing
    ("0.0 1.0", 10 ** 12),     # rejected by its value count, before any grid
])
def test_load_field_rejects_bad_grid(scratch, bounds, n):
    path = scratch / "bad.field"
    path.write_text("\n".join(["nlsground-field 1", "dimension 1",
                               f"bounds {bounds}", "star_center ", f"n {n}",
                               "values 3", "1.0", "2.0", "3.0"]) + "\n")
    with pytest.raises(InvalidSpec):
        load_field(path)
