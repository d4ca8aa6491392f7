"""Property tests for the file boundaries and the command line.

Every example is drawn from a fixed derandomized stream with no example
database, so a run is as deterministic as the rest of the suite.  Each
file property states that a malformed file raises the boundary's typed
error and nothing else, and that a file the reader accepts is written back
as the same field; a written field reads back as itself, complex64-rounded.
The command line, on bounded arguments, exits 0, 1 or 2 and never raises,
and it exits 1 exactly when its report names errors.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kornlab import cli
from kornlab.fields import CorruptFieldError, GridField, GridSpec, dump_field, \
    field_from_samples, load_field, random_bandlimited

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
    seed = draw(st.integers(0, 99))
    rng = np.random.default_rng(seed)
    if how == "field":
        coef = random_bandlimited(spec, seed, 1, ("scalar", "vector", "general")[rank]).coef
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
    # what load_field accepts, dump_field writes back under the same header,
    # byte for byte
    dump_field(f, scratch / "again.bin")
    with open(scratch / "again.bin", "rb") as fh:
        assert fh.readline() == header.encode("utf-8") + b"\n"
    assert load_field(scratch / "again.bin").coef.tobytes() == f.coef.tobytes()


@PROPERTY
@given(rank=st.integers(0, 2), n=st.sampled_from([4, 8]),
       reality=st.sampled_from(["real", "complex"]), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.integers(-60, 60))
def test_field_file_round_trip(scratch, rank, n, reality, seed, scale):
    rng = np.random.default_rng(seed)
    shape = (n, n, n) + (3,) * rank
    samples = rng.standard_normal(shape) + (1j * rng.standard_normal(shape)
                                            if reality == "complex" else 0.0)
    f = field_from_samples(GridSpec(n), rank, 2.0 ** scale * samples)
    dump_field(f, scratch / "round.bin")
    g = load_field(scratch / "round.bin")
    assert (g.rank, g.spec.n, g.reality) == (rank, n, reality)
    assert np.array_equal(g.coef, f.coef.astype(np.complex64))


# ----------------------------------------------------------------------------
# the command line on bounded arguments

_LO_AND_SIDES = st.tuples(*[st.floats(-2.0, 1.0)] * 3, *[st.floats(0.125, 2.0)] * 3)
_OPTIONS = st.tuples(st.integers(0, 2 ** 16), st.integers(1, 50), st.integers(1, 4),
                     st.sampled_from([4, 8]), st.floats(1.0, 64.0), _LO_AND_SIDES)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@settings(PROPERTY, max_examples=3)
@given(options=_OPTIONS)
def test_cli_exits_1_exactly_when_it_names_errors(command, fmt, options):
    seed, samples, kmax, grid_n, p, box = options
    box = box[:3] + tuple(lo + width for lo, width in zip(box[:3], box[3:]))
    argv = [command, "--format", fmt, "--seed", str(seed), "--samples", str(samples),
            "--kmax", str(kmax), "--grid-n", str(grid_n), "--p", repr(p),
            "--box=" + ",".join(map(repr, box))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    assert status in (0, 1, 2)
    named = [line.partition("kornlab: error: ")[2] for line in err.getvalue().splitlines()
             if line.startswith("kornlab: error: ")]
    if status != 2 and fmt == "json":
        assert json.loads(out.getvalue())["errors"] == named
    assert bool(named) == (status == 1)
