"""Property tests for the two file boundaries: config files and field files.

Every example is drawn from a fixed derandomized stream with no example
database, so a run is as deterministic as the rest of the suite.  Each
property states that a malformed file raises the boundary's typed error and
nothing else, and that a file the reader accepts is written back as the same field.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kornlab import cli
from kornlab.fields import CorruptFieldError, GridField, GridSpec, dump_field, load_field, \
    random_bandlimited

PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


# ----------------------------------------------------------------------------
# config files

_NUMBERS = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.floats(allow_nan=True),
                     st.sampled_from([0, 1, 2, 4, 16, 64.0, 1.5, True, False]))
_JSON = st.recursive(st.one_of(st.none(), _NUMBERS, st.text(max_size=8)),
                     lambda inner: st.one_of(st.lists(inner, max_size=6),
                                             st.dictionaries(st.text(max_size=6), inner,
                                                             max_size=4)),
                     max_leaves=12)
_BOX = st.one_of(
    st.lists(_NUMBERS, min_size=5, max_size=7),
    st.lists(_NUMBERS, min_size=5, max_size=7).map(lambda v: ",".join(map(str, v))),
    st.lists(st.text(max_size=4), max_size=8).map(",".join),
    _JSON)
_VALUES = {"box": _BOX, "format": st.one_of(st.sampled_from(["json", "csv", "xml"]), _JSON),
           "out": st.one_of(st.text(max_size=8), _JSON)}
_KEYS = sorted(cli.DEFAULTS) + ["unknown"]
_CONFIG = st.one_of(
    _JSON,
    st.lists(st.sampled_from(_KEYS), unique=True, max_size=len(_KEYS)).flatmap(
        lambda keys: st.fixed_dictionaries({k: _VALUES.get(k, _NUMBERS) for k in keys})))


@PROPERTY
@given(data=_CONFIG)
def test_config_file_raises_only_usage_errors(scratch, data):
    path = scratch / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    args = cli.build_parser().parse_args(["korn", "--config", str(path)])
    try:
        cfg = cli.resolve_config(args)
    except cli.UsageError:
        return
    assert set(cfg) == set(cli.DEFAULTS)
    assert cfg["format"] in ("json", "csv") and len(cfg["box"]) == 6


# ----------------------------------------------------------------------------
# field files

_ITEMS = {   # key: (the values dump_field writes, garbled values)
    "rank": ("012", st.one_of(st.integers(-2, 4).map(str), st.text(max_size=3))),
    "n": ("48", st.one_of(st.sampled_from([3, 0, -4, 6, 16, 2 ** 21]).map(str),
                          st.integers(-10, 10 ** 6).map(str), st.text(max_size=3))),
    "reality": (("real", "complex"), st.one_of(st.sampled_from(["Real", ""]), st.text(max_size=4))),
}


@st.composite
def _headers(draw):
    """A v1 header whose items are kept, garbled, shuffled, dropped or repeated."""
    keys = draw(st.one_of(st.just(list(_ITEMS)), st.permutations(list(_ITEMS)),
                          st.lists(st.sampled_from(list(_ITEMS) + ["junk"]), max_size=5)))
    items = []
    for key in keys:
        good, garbled = _ITEMS.get(key, ("", st.text(max_size=4)))
        keep = good and draw(st.sampled_from([True, True, True, False]))
        items.append("%s=%s" % (key, draw(st.sampled_from(good) if keep else garbled)))
    return "; ".join(["kornlab-field v1"] + items)


@st.composite
def _payloads(draw, header):
    """A field or noise that fits the header, noise of another size, then cut or padded."""
    meta = dict(item.strip().partition("=")[::2] for item in header.split(";")[1:])
    try:
        spec, rank = GridSpec(int(meta["n"])), int(meta["rank"])
        fits = spec.n <= 8 and rank in (0, 1, 2)
    except (KeyError, ValueError):
        fits = False
    how = draw(st.sampled_from(["field", "noise", "sized"])) if fits else "sized"
    rng = np.random.default_rng(draw(st.integers(0, 99)))
    if how == "field":
        coef = random_bandlimited(spec, rng, 1, ("scalar", "vector", "general")[rank]).coef
        raw = np.ascontiguousarray(coef, dtype="<c8").tobytes()
    elif how == "noise":
        raw = rng.bytes(8 * 3 ** rank * spec.n ** 3)
    else:
        raw = rng.bytes(draw(st.sampled_from([0, 8, 8 * 64, 8 * 3 * 64, 8 * 9 * 512])))
    cut = draw(st.sampled_from([0, 0, 0, -8, -1, 1, 8]))
    return raw[:cut] if cut < 0 else raw + bytes(cut)


@PROPERTY
@given(data=st.data())
def test_field_file_raises_only_corrupt_field_errors(scratch, data):
    header = data.draw(_headers())
    path = scratch / "field.bin"
    path.write_bytes(header.encode("utf-8") + b"\n" + data.draw(_payloads(header)))
    try:
        f = load_field(path)
    except CorruptFieldError:
        return
    assert isinstance(f, GridField)
    # what load_field accepts, dump_field writes back under the same header
    dump_field(f, scratch / "again.bin")
    assert load_field(scratch / "again.bin").coef.tobytes() == f.coef.tobytes()
