import ast
import math
import os
import re
import struct
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kornlab import fields, korn_estimator
from kornlab.algebra3 import EYE3, cross, dev, sym, tr
from kornlab.fields import (
    BadExponentError, BandTooWideError, BoxDomain, CorruptFieldError,
    GridField, GridSpec, NonFiniteError, RankMismatchError, UnderResolvedError,
    apply_operator,
    bump_profile, dump_field, field_from_coef, field_from_samples, growth_ratio,
    halfspace_ratio, load_field, pointwise_part, random_bandlimited, values,
)
from kornlab.symbol import KernelWitness

RNG = np.random.default_rng(20240819)


def grid_xyz(spec):
    x = spec.x
    return np.meshgrid(x, x, x, indexing="ij")


# ----------------------------------------------------------------------------
# construction


def test_gridspec_validation():
    for bad in (0, 3, 6, 12, -8):
        with pytest.raises(ValueError):
            GridSpec(bad)
    spec = GridSpec(8)
    assert_allclose(spec.x, 2.0 * np.pi * np.arange(8) / 8)
    assert list(spec.frequencies) == [0, 1, 2, 3, -4, -3, -2, -1]


def test_gridspec_reads_n_as_an_integer():
    spec = GridSpec(np.int64(8))
    assert spec.n == 8 and type(spec.n) is int


_CUBE = BoxDomain(lo=(-1, -1, -1), hi=(1, 1, 1))


@pytest.mark.parametrize("call, message", [
    (lambda: GridSpec(8.0), "integer"),
    (lambda: GridSpec(np.float64(8)), "integer"),
    (lambda: GridSpec(True), "integer"),
    (lambda: growth_ratio(True, 2.0, _CUBE), "integer"),
    (lambda: halfspace_ratio(True, 2.0), "integer"),
    (lambda: korn_estimator.korn_constant(True), "integer"),
    (lambda: growth_ratio(1, "2", _CUBE), "real number"),
    (lambda: growth_ratio(1, True, _CUBE), "real number"),
    (lambda: halfspace_ratio(2, np.bool_(True)), "real number"),
], ids=["grid-float", "grid-float64", "grid-bool", "growth-k-bool", "halfspace-k-bool",
        "kmax-bool", "growth-p-str", "growth-p-bool", "halfspace-p-npbool"])
def test_counts_and_exponents_refuse_bools_and_non_numbers(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_samples_values_roundtrip():
    spec = GridSpec(8)
    for rank in (0, 1, 2):
        shape = (8, 8, 8) + (3,) * rank
        samples = RNG.standard_normal(shape)
        f = field_from_samples(spec, rank, samples)
        assert_allclose(values(f), samples, atol=1e-12)
        assert values(f).dtype == np.float64


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_real_values_match_the_full_inverse_transform(n, rank):
    # random samples put content on every Nyquist plane, which the half
    # spectrum k1 = 0..n/2 of values must keep
    rng = np.random.default_rng(100 * n + rank)
    f = field_from_samples(GridSpec(n), rank, rng.standard_normal((n, n, n) + (3,) * rank))
    got = values(f)
    want = np.fft.ifftn(f.coef, axes=(0, 1, 2)).real
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_real_tag_is_validated():
    spec = GridSpec(4)
    coef = RNG.standard_normal((4, 4, 4)) + 1j * RNG.standard_normal((4, 4, 4))
    with pytest.raises(ValueError, match="^coefficients lack conjugate symmetry$"):
        field_from_coef(spec, 0, coef)
    # one non-finite coefficient fails closed
    for bad in (np.nan, np.inf):
        coef = random_bandlimited(spec, 1, 1, "scalar").coef.copy()
        coef[1, 0, 0] = bad
        with pytest.raises(ValueError, match="^coefficients are not finite$"):
            field_from_coef(spec, 0, coef)


def test_field_shape_and_rank_checks():
    spec = GridSpec(4)
    with pytest.raises(ValueError):
        GridField(spec, 3, np.zeros((4, 4, 4, 3, 3, 3)))
    with pytest.raises(ValueError):
        GridField(spec, 1, np.zeros((4, 4, 4)))
    with pytest.raises(ValueError, match="sample shape"):
        field_from_samples(spec, 1, np.zeros((4, 4, 4)))


@pytest.mark.parametrize("rank", [True, 1.0])
def test_field_rank_is_a_count(rank):
    # the rank is read by the library's count reader, as a config count is
    with pytest.raises(TypeError, match="rank must be an integer"):
        GridField(GridSpec(4), rank, np.zeros((4, 4, 4, 3)))


def test_field_rank_and_spec_types(tmp_path):
    f = GridField(GridSpec(4), np.int64(1), np.zeros((4, 4, 4, 3)))
    assert type(f.rank) is int and f.rank == 1
    with pytest.raises(ValueError, match=r"rank must be >= 0"):
        GridField(GridSpec(4), -1, np.zeros((4, 4, 4)))
    with pytest.raises(TypeError, match="spec must be a GridSpec"):
        GridField(4, 0, np.zeros((4, 4, 4)))
    # field_from_samples reads its rank as the constructor does, capped at 2
    with pytest.raises(ValueError, match="^rank must be 0, 1 or 2, got 1000"):
        field_from_samples(GridSpec(4), 10 ** 30, np.zeros((4, 4, 4)))
    with pytest.raises(TypeError, match="^rank must be an integer"):
        field_from_samples(GridSpec(4), 1.0, np.zeros((4, 4, 4, 3)))
    # every field function refuses an argument of the wrong class by name
    f = GridField(GridSpec(4), 0, np.zeros((4, 4, 4)))
    for call, message in [
            (lambda: values(np.zeros((4, 4, 4))), "^field must be a GridField, got array"),
            (lambda: fields.coef_peak("f"), "^field must be a GridField, got 'f'$"),
            (lambda: apply_operator(3, "grad"), "^field must be a GridField, got 3$"),
            (lambda: pointwise_part([f], "spherical"), r"^field must be a GridField, got \[Grid"),
            (lambda: random_bandlimited(8, 1, 1), "^spec must be a GridSpec, got 8$"),
            (lambda: field_from_samples(4, 0, np.zeros((4, 4, 4))),
             "^spec must be a GridSpec, got 4$"),
            (lambda: dump_field("f", tmp_path / "f.bin"), "^field must be a GridField, got 'f'$"),
            (lambda: dump_field(None, tmp_path / "f.bin"), "^field must be a GridField, got None$"),
            (lambda: dump_field(True, tmp_path / "f.bin"), "^field must be a GridField, got True$")]:
        with pytest.raises(TypeError, match=message):
            call()
    # dump_field reads its field before it opens the path: no file is created
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("dtype", [bool, str, object])
def test_field_entry_points_refuse_bools_text_and_objects(dtype):
    # coefficients are read as integer, float or complex arrays and samples as
    # integer or float ones: a bool array no longer gives a field, nor text one
    # parsed as numbers
    grid = np.ones((4, 4, 4), dtype=int)
    assert_array_equal(values(field_from_samples(GridSpec(4), 0, grid)), grid)
    assert_array_equal(GridField(GridSpec(4), 0, grid).coef, grid)
    with pytest.raises(TypeError, match="^coefficients must be a real or complex array"):
        GridField(GridSpec(4), 0, grid.astype(dtype))
    with pytest.raises(TypeError, match="^samples must be a real array"):
        field_from_samples(GridSpec(4), 0, grid.astype(dtype))


def test_field_arithmetic():
    spec = GridSpec(8)
    f = random_bandlimited(spec, 1, 2)
    g = random_bandlimited(spec, 2, 2)
    assert_allclose(values(f + g), values(f) + values(g), atol=1e-12)
    assert_allclose(values(f - g), values(f) - values(g), atol=1e-12)
    assert_allclose(values(2.5 * f), 2.5 * values(f), atol=1e-12)
    h = random_bandlimited(spec, 1, 2, "vector")
    with pytest.raises(RankMismatchError):
        f + h
    with pytest.raises(TypeError):
        f + 1


def test_scalar_factor_is_a_finite_number():
    # a bool, text or complex number is not a number to scale a real field by;
    # a non-finite factor is refused, so a field stays finite
    f = random_bandlimited(GridSpec(4), 1, 1, "scalar")
    for bad in ("2", True, 1j, 1 + 0j):
        with pytest.raises(TypeError):
            f * bad
        with pytest.raises(TypeError):
            bad * f
    with pytest.raises(TypeError, match="^scalar must be a real number, got 1j$"):
        f * 1j
    with pytest.raises(ValueError, match="^scalar must be finite$"):
        f * math.nan
    with pytest.raises(ValueError, match="^scalar must be finite$"):
        math.inf * f
    assert_array_equal((f * np.float32(2.0)).coef, 2.0 * f.coef)


def test_coefficients_are_frozen():
    spec = GridSpec(4)
    f = field_from_samples(spec, 0, RNG.standard_normal((4, 4, 4)))
    with pytest.raises(ValueError):
        f.coef[0, 0, 0] = 1.0
    # derived fields keep their coefficients without a copy, frozen too,
    # including the transpose, which is a view of its input's coefficients
    P = random_bandlimited(spec, 1, 1)
    u = random_bandlimited(spec, 1, 1, "vector")
    derived = [apply_operator(P, "inc"), apply_operator(u, "grad"),
               apply_operator(f, "grad"), P + P, P - P, 2.0 * P]
    by_rank = (f, u, P)
    derived += [pointwise_part(by_rank[rank], part)
                for part, (rank, _, _) in fields._PARTS.items()]
    for g in derived:
        with pytest.raises(ValueError):
            g.coef[(0,) * g.coef.ndim] = 1.0
        with pytest.raises(ValueError):
            g._planes[(0,) * g._planes.ndim] = 1.0
    # a real field's coef is built on read; what it stores is its planes
    assert np.shares_memory(pointwise_part(P, "transpose")._planes, P._planes)


def _at_top_frequency(rank, n=8, axis=1):
    # the real field 2e308 cos(3 x1), along e_2 (or e_axis) for a vector field: its
    # coefficients sit at k1 = +-3, the highest frequency a derivative keeps on n = 8
    coef = np.zeros(fields._coef_shape(rank, n), complex)
    slot = (axis,) * rank
    coef[(3, 0, 0) + slot] = coef[(-3, 0, 0) + slot] = 1e308
    return field_from_coef(GridSpec(n), rank, coef)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, call", [
    ("*", lambda: random_bandlimited(GridSpec(8), 1, 2) * 1e308),
    ("+", lambda: _at_top_frequency(0) + _at_top_frequency(0)),
    ("grad", lambda: apply_operator(_at_top_frequency(0), "grad")),
    ("curl_vec", lambda: apply_operator(_at_top_frequency(1), "curl_vec")),
    # div sums c * K itself, so the exit's guard names it, not algebra3's dot pairing
    ("div", lambda: apply_operator(_at_top_frequency(1, axis=0), "div")),
    # entries of 1.5e308 in two slots are finite, their Hermitian norm is not
    ("*", lambda: (_at_top_frequency(1, axis=0) + _at_top_frequency(1)) * 1.5),
], ids=["scale", "sum", "grad", "curl_vec", "div", "norm"])
def test_a_derived_field_that_overflows_is_named(name, call):
    # finite planes whose map overflows, in an entry or in a coefficient's norm, do
    # not leave _map_planes: a ValueError names the map, with no numpy warning, so
    # every field is finite, and so is its coef_peak
    with pytest.raises(ValueError, match="^coefficients are too large: %s overflows$"
                       % re.escape(repr(name))):
        call()


@pytest.mark.filterwarnings("error")
def test_the_symmetry_snap_is_finite_and_quiet_near_the_double_limit():
    # the snap and the defect halve before they add: a coefficient of 1.7e308 is
    # stored as itself, and an asymmetric pair whose defect overflows is refused
    coef = np.zeros((8, 8, 8), complex)
    coef[0, 0, 0] = 1.7e308
    f = field_from_coef(GridSpec(8), 0, coef)
    assert_array_equal(f.coef, coef)
    assert fields.coef_peak(f) == 1.7e308
    coef[3, 0, 0] = 1.7e308 + 1.7e308j
    coef[-3, 0, 0] = -np.conj(coef[3, 0, 0])
    with pytest.raises(ValueError, match="^coefficients lack conjugate symmetry$"):
        field_from_coef(GridSpec(8), 0, coef)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_a_coefficient_whose_norm_overflows_is_refused(rank):
    # 1.7e308 + 1.7e308j at k1 = +-1 is finite, but its modulus, 2.4e308, is not: the
    # constructor refuses it, so coef_peak never reads inf; 1.7e308 alone is stored
    coef = np.zeros(fields._coef_shape(rank, 4), complex)
    slot = (0,) * rank
    coef[(1, 0, 0) + slot] = 1.7e308
    coef[(-1, 0, 0) + slot] = 1.7e308
    assert fields.coef_peak(field_from_coef(GridSpec(4), rank, coef)) == 1.7e308
    coef[(1, 0, 0) + slot] = 1.7e308 + 1.7e308j
    coef[(-1, 0, 0) + slot] = 1.7e308 - 1.7e308j
    with pytest.raises(ValueError, match="^coefficients are too large: their norm overflows$"):
        field_from_coef(GridSpec(4), rank, coef)
    if rank:
        # finite moduli whose sum of squares over the slots overflows: 1.2e308 in 3 slots
        coef[...] = 0.0
        coef[(1, 0, 0)] = coef[(-1, 0, 0)] = 1.2e308
        with pytest.raises(ValueError, match="norm overflows$"):
            field_from_coef(GridSpec(4), rank, coef)


@pytest.mark.filterwarnings("error")
def test_samples_whose_transform_overflows_are_refused_quietly():
    # the mean of 512 finite samples of 1e307 overflows inside the FFT
    with pytest.raises(ValueError, match="^coefficients are not finite$"):
        field_from_samples(GridSpec(8), 0, np.full((8, 8, 8), 1e307))


def _asymmetry(f):
    n = f.spec.n
    return float(np.abs(f.coef - fields._mirror(f.coef, np.arange(n), n)).max())


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [8, 16])
def test_derived_fields_stay_exactly_conjugate_symmetric(n):
    # derived fields are built without a symmetry check, so every map that
    # builds them must keep the exact symmetry the entry fields were snapped
    # to; full-band samples include the unpaired Nyquist planes
    spec = GridSpec(n)
    rng = np.random.default_rng(n)
    f, g = ({rank: field_from_samples(spec, rank, rng.standard_normal(fields._coef_shape(rank, n)))
             for rank in (0, 1, 2)} for _ in range(2))
    assert all(_asymmetry(h) == 0.0 for h in (*f.values(), *g.values()))
    # each map runs on the stored planes k1 = 0..n/2 of a real field; the same
    # map on the full spectrum, computed here, gives those planes bit for bit
    K = fields._freq_grids(n)
    derived, full = {}, {}
    for op, rows in fields._OPS.items():
        for rank, (_, fn) in rows.items():
            name = "%s of rank %d" % (op, rank)
            derived[name] = apply_operator(f[rank], op)
            full[name] = fn(f[rank].coef, K)
    for part, (rank, _, fn) in fields._PARTS.items():
        derived[part] = pointwise_part(f[rank], part)
        full[part] = fn(f[rank].coef)
    for rank in (0, 1, 2):
        derived["sum of rank %d" % rank] = f[rank] + g[rank]
        full["sum of rank %d" % rank] = f[rank].coef + g[rank].coef
        derived["difference of rank %d" % rank] = f[rank] - g[rank]
        full["difference of rank %d" % rank] = f[rank].coef - g[rank].coef
        derived["scalar multiple of rank %d" % rank] = -2.75 * f[rank]
        full["scalar multiple of rank %d" % rank] = complex(-2.75) * f[rank].coef
    for name, h in derived.items():
        # derived fields skip the constructor's shape check: each map's
        # declared output rank must match the coefficients it builds
        assert h.coef.shape == fields._coef_shape(h.rank, n), name
        assert _asymmetry(h) == 0.0, name
        assert _same_bits(h._planes, full[name][:n // 2 + 1]), name


def _full_band(f):
    # the same field through the checked constructor, which stores the full band
    return GridField(f.spec, f.rank, f.coef)


@pytest.mark.parametrize("n, kmax", [(8, 1), (8, 3), (16, 1), (16, 7)])
def test_band_fields_store_and_map_only_their_band(n, kmax, tmp_path):
    spec = GridSpec(n)
    f, g = ({rank: random_bandlimited(spec, seed + rank, kmax, s)
             for rank, s in enumerate(("scalar", "vector", "general"))}
            for seed in (n + kmax, 2 * n + kmax))
    w = 2 * kmax + 1
    for rank, h in f.items():
        assert h._planes.shape == (kmax + 1, w, w) + (3,) * rank
    pairs = {"field of rank %d" % rank: (h, _full_band(h)) for rank, h in f.items()}
    for op, rows in fields._OPS.items():
        for rank in rows:
            pairs["%s of rank %d" % (op, rank)] = (apply_operator(f[rank], op),
                                                   apply_operator(_full_band(f[rank]), op))
    for part, (rank, _, _) in fields._PARTS.items():
        pairs[part] = pointwise_part(f[rank], part), pointwise_part(_full_band(f[rank]), part)
    for rank in (0, 1, 2):
        a, b = _full_band(f[rank]), _full_band(g[rank])
        pairs["sum of rank %d" % rank] = f[rank] + g[rank], a + b
        pairs["difference of rank %d" % rank] = f[rank] - g[rank], a - b
        pairs["scalar multiple of rank %d" % rank] = -2.75 * f[rank], -2.75 * a
    i = fields._box_index(kmax, n)
    for name, (h, full) in pairs.items():
        # the box is the band's, and on it each map does the full band's arithmetic
        assert h._planes.shape[:3] == (kmax + 1, w, w), name
        assert _same_bits(h._planes, full._planes[:kmax + 1, i[:, None], i]), name
        # outside the band both hold zeros: +0.0 embedded, while a map of the full
        # band writes a zero whose sign depends on the map (K * 0.0 is -0.0 for K < 0),
        # so coef is compared bit for bit once every zero is +0.0
        assert _same_bits(h.coef + 0.0, full.coef + 0.0), name
        assert _same_bits(values(h), values(full)), name
        assert fields.coef_peak(h) == fields.coef_peak(full), name
    # a random field writes the file its full-band copy writes (a derived field too:
    # test_a_field_file_does_not_depend_on_the_band)
    for h in (*f.values(), *g.values()):
        dump_field(h, tmp_path / "band.bin")
        dump_field(_full_band(h), tmp_path / "full.bin")
        assert (tmp_path / "band.bin").read_bytes() == (tmp_path / "full.bin").read_bytes()


@pytest.mark.parametrize("n, kmax", [(8, 1), (16, 7)])
def test_a_field_file_does_not_depend_on_the_band(n, kmax, tmp_path):
    # a map of the full band writes -0.0 where the band's embedding holds +0.0 (K * 0.0
    # for K < 0), and dump_field writes every zero as +0.0: after every operator and
    # part, a band field and its full-band copy write the same bytes
    spec = GridSpec(n)
    f = {rank: random_bandlimited(spec, n + rank, kmax, s)
         for rank, s in enumerate(("scalar", "vector", "general"))}
    maps = [(op, rank, lambda h, op=op: apply_operator(h, op))
            for op, rows in fields._OPS.items() for rank in rows]
    maps += [(part, rank, lambda h, part=part: pointwise_part(h, part))
             for part, (rank, _, _) in fields._PARTS.items()]
    signed_zeros = 0
    for name, rank, fn in maps:
        band, full = fn(f[rank]), fn(_full_band(f[rank]))
        assert np.array_equal(band.coef, full.coef), name
        signed_zeros += not _same_bits(band.coef, full.coef)
        dump_field(band, tmp_path / "band.bin")
        dump_field(full, tmp_path / "full.bin")
        assert (tmp_path / "band.bin").read_bytes() == (tmp_path / "full.bin").read_bytes(), name
    # the maps do write zeros of both signs, so the files would differ unnormalized
    assert signed_zeros


def test_sums_of_fields_in_different_bands_are_in_the_wider_band():
    # the narrower box is embedded in zeros in the wider one; a sampled field is full-band
    spec = GridSpec(8)
    one, three = random_bandlimited(spec, 5, 1), random_bandlimited(spec, 6, 3)
    sampled = field_from_samples(spec, 2, RNG.standard_normal((8, 8, 8, 3, 3)))
    for a, b in [(one, three), (three, one), (one, sampled), (sampled, three), (one, one)]:
        for op, h, full in [("+", a + b, _full_band(a) + _full_band(b)),
                            ("-", a - b, _full_band(a) - _full_band(b))]:
            assert len(h._planes) == max(len(a._planes), len(b._planes)), op
            assert _same_bits(h.coef, full.coef), op
            assert _same_bits(values(h), values(full)), op


def test_only_fields_knows_the_stored_layout():
    # the box a field stores (planes k1 = 0..b of its band b, their frequencies, the
    # embedding and mirror to the full spectrum, the unchecked build) is known to fields
    # alone: every other module maps a field through fields._map_planes
    layout = {"_planes", "_freq_grids", "_full", "_derived", "_reflect", "_mirror",
              "_box_index", "_band_freqs", "_embed"}
    here = os.path.dirname(fields.__file__)
    uses = []
    for name in sorted(os.listdir(here)):
        if not name.endswith(".py") or name == "fields.py":
            continue
        with open(os.path.join(here, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            slot = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
            if slot and getattr(node, slot) in layout:
                uses.append("%s:%d %s" % (name, node.lineno, getattr(node, slot)))
    assert not uses


def test_reality_is_checked_once_per_entry_field(monkeypatch):
    # the default spectral suite builds 15 random fields (three draws of
    # five); everything else it builds is derived and is not re-checked
    from kornlab import identities
    calls = []
    mirror = fields._mirror

    def counting(coef, k1, n):
        calls.append(coef.shape)
        return mirror(coef, k1, n)

    monkeypatch.setattr(fields, "_mirror", counting)
    assert all(res.passed for res in identities.run_spectral())
    assert len(calls) == 15


# ----------------------------------------------------------------------------
# differential operators


def test_grad_of_sine():
    spec = GridSpec(16)
    X1, _, _ = grid_xyz(spec)
    f = field_from_samples(spec, 0, np.sin(X1))
    g = apply_operator(f, "grad")
    assert g.rank == 1
    v = values(g)
    assert_allclose(v[..., 0], np.cos(X1), atol=1e-12)
    assert_allclose(v[..., 1], 0.0, atol=1e-12)
    assert_allclose(v[..., 2], 0.0, atol=1e-12)


def test_div_and_curl_vec():
    spec = GridSpec(16)
    X1, _, _ = grid_xyz(spec)
    u = field_from_samples(spec, 1, np.stack([
        np.sin(X1), np.zeros_like(X1), np.sin(X1)], axis=-1))
    assert_allclose(values(apply_operator(u, "div")), np.cos(X1), atol=1e-12)
    c = values(apply_operator(u, "curl_vec"))
    assert_allclose(c[..., 0], 0.0, atol=1e-12)
    assert_allclose(c[..., 1], -np.cos(X1), atol=1e-12)
    assert_allclose(c[..., 2], 0.0, atol=1e-12)


def test_matrix_curl_is_rowwise():
    # P = sin(x3) e1 (x) e2 has Curl P = -cos(x3) e1 (x) e1
    spec = GridSpec(16)
    _, _, X3 = grid_xyz(spec)
    P = np.zeros((16, 16, 16, 3, 3))
    P[..., 0, 1] = np.sin(X3)
    c = values(apply_operator(field_from_samples(spec, 2, P), "curl_mat"))
    want = np.zeros_like(c)
    want[..., 0, 0] = -np.cos(X3)
    assert_allclose(c, want, atol=1e-12)


def test_curl_of_constant_skew_vanishes():
    spec = GridSpec(8)
    P = np.zeros((8, 8, 8, 3, 3))
    P[..., 0, 1], P[..., 1, 0] = 1.0, -1.0
    c = apply_operator(field_from_samples(spec, 2, P), "curl_mat")
    assert_allclose(values(c), 0.0, atol=1e-13)


def test_inc_is_curl_transpose_curl():
    spec = GridSpec(16)
    f = random_bandlimited(spec, 6, 4)
    by_hand = apply_operator(
        pointwise_part(apply_operator(f, "curl_mat"), "transpose"), "curl_mat")
    assert_allclose(values(apply_operator(f, "inc")), values(by_hand), atol=1e-10)


def test_operator_rank_checks():
    spec = GridSpec(8)
    scal = random_bandlimited(spec, 1, 2, "scalar")
    vec = random_bandlimited(spec, 1, 2, "vector")
    mat = random_bandlimited(spec, 1, 2)
    with pytest.raises(RankMismatchError):
        apply_operator(scal, "div")
    with pytest.raises(RankMismatchError):
        apply_operator(vec, "curl_mat")
    with pytest.raises(RankMismatchError, match="grad needs a field of rank 0 or 1"):
        apply_operator(mat, "grad")
    with pytest.raises(RankMismatchError):
        apply_operator(mat, "curl_vec")
    with pytest.raises(ValueError):
        apply_operator(vec, "laplace")
    # a projected curl has one spelling, pointwise_part(apply_operator(P, "curl_mat"), part)
    for op in ("sym_curl", "devsym_curl"):
        with pytest.raises(ValueError):
            apply_operator(mat, op)


def test_nyquist_mode_has_zero_derivative():
    # the unpaired checkerboard mode cos((n/2) x1) is invisible to the
    # derivative multipliers: its gradient is dropped, not aliased
    spec = GridSpec(8)
    X1, _, _ = grid_xyz(spec)
    f = field_from_samples(spec, 0, np.cos(4.0 * X1))
    assert_allclose(values(f), np.cos(4.0 * X1), atol=1e-12)
    assert_allclose(values(apply_operator(f, "grad")), 0.0, atol=1e-12)


def test_derivatives_preserve_real_tag():
    spec = GridSpec(16)
    f = random_bandlimited(spec, 9, 7)   # band right up to n/2 - 1
    for op in ("curl_mat", "inc"):
        g = apply_operator(f, op)
        assert _asymmetry(g) == 0.0
        assert np.isrealobj(values(g))


# ----------------------------------------------------------------------------
# pointwise maps


def test_pointwise_parts():
    spec = GridSpec(8)
    f = random_bandlimited(spec, 3, 2)
    V = values(f)
    assert_allclose(values(pointwise_part(f, "sym")),
                    0.5 * (V + V.swapaxes(-1, -2)), atol=1e-12)
    assert_allclose(values(pointwise_part(f, "skew")),
                    0.5 * (V - V.swapaxes(-1, -2)), atol=1e-12)
    assert_allclose(values(pointwise_part(f, "transpose")),
                    V.swapaxes(-1, -2), atol=1e-12)
    D = values(pointwise_part(f, "dev"))
    assert_allclose(np.einsum("...ii->...", D), 0.0, atol=1e-12)
    DS = values(pointwise_part(f, "devsym"))
    assert_allclose(DS, DS.swapaxes(-1, -2), atol=1e-12)
    assert_allclose(np.einsum("...ii->...", DS), 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        pointwise_part(f, "hermitian")
    with pytest.raises(RankMismatchError):
        pointwise_part(random_bandlimited(spec, 1, 2, "scalar"), "sym")


def test_trace_axl_anti_spherical():
    spec = GridSpec(8)
    u = random_bandlimited(spec, 4, 2, "vector")
    z = random_bandlimited(spec, 4, 2, "scalar")
    assert_allclose(values(pointwise_part(pointwise_part(u, "anti"), "axl")), values(u),
                    atol=1e-12)
    sph = pointwise_part(z, "spherical")
    assert_allclose(values(pointwise_part(sph, "trace")), 3.0 * values(z), atol=1e-12)
    sph = values(sph)
    assert_allclose(sph[..., 0, 1], 0.0, atol=1e-13)
    assert_allclose(sph[..., 0, 0], values(z), atol=1e-12)
    with pytest.raises(RankMismatchError):
        pointwise_part(u, "axl")
    with pytest.raises(RankMismatchError):
        pointwise_part(z, "anti")
    with pytest.raises(RankMismatchError):
        pointwise_part(u, "spherical")
    with pytest.raises(RankMismatchError):
        pointwise_part(z, "trace")


# ----------------------------------------------------------------------------
# random band-limited fields


def test_bandlimited_band_and_tag():
    spec = GridSpec(16)
    f = random_bandlimited(spec, 7, 3)
    assert _asymmetry(f) == 0.0
    k = np.fft.fftfreq(16) * 16
    outside = np.abs(k) > 3
    assert_allclose(f.coef[outside], 0.0)
    assert_allclose(f.coef[:, outside], 0.0)
    assert_allclose(f.coef[:, :, outside], 0.0)
    assert float(np.abs(f.coef).max()) > 0.0


def test_bandlimited_structures():
    spec = GridSpec(8)
    for structure, (rank, part) in fields._STRUCTURES.items():
        f = random_bandlimited(spec, 2, 2, structure)
        assert f.rank == rank
        V = values(f)
        assert V.shape == (8, 8, 8) + (3,) * rank
        if part is not None:
            sign = {"sym": 1.0, "skew": -1.0}[part]
            assert_allclose(V, sign * V.swapaxes(-1, -2), atol=1e-12)
    for structure in ("diagonal", "skew_plus_spherical"):
        with pytest.raises(ValueError):
            random_bandlimited(spec, 2, 2, structure)


def test_bandlimited_is_seeded():
    spec = GridSpec(8)
    a = random_bandlimited(spec, 42, 3)
    b = random_bandlimited(spec, 42, 3)
    assert_allclose(a.coef, b.coef)
    c = random_bandlimited(spec, 43, 3)
    assert float(np.abs(a.coef - c.coef).max()) > 1.0


def test_band_too_wide():
    spec = GridSpec(8)
    with pytest.raises(BandTooWideError):
        random_bandlimited(spec, 1, 4)      # needs kmax <= n/2 - 1 = 3
    with pytest.raises(BandTooWideError):
        random_bandlimited(spec, 1, -1, "scalar")
    random_bandlimited(spec, 1, 3)          # boundary value is fine


@pytest.mark.parametrize("kmax", [2.5, True, 3.0, "3", None, 3 + 0j])
def test_band_must_be_an_integer(kmax):
    # read as every other count is, before the band test: a bool or a
    # non-integral value is a TypeError that names kmax
    with pytest.raises(TypeError, match="^kmax must be an integer"):
        random_bandlimited(GridSpec(8), 1, kmax)


@pytest.mark.parametrize("seed, error", [(True, TypeError), ("1", TypeError), (1.0, TypeError),
                                         (-1, ValueError)])
def test_bandlimited_reads_the_seed_as_a_count(seed, error):
    with pytest.raises(error, match="^seed must be"):
        random_bandlimited(GridSpec(8), seed, 1)


# ----------------------------------------------------------------------------
# box quadrature


def test_box_validation():
    with pytest.raises(ValueError):
        BoxDomain(lo=(0, 0, 0), hi=(1, 1, 0))
    with pytest.raises(ValueError):
        BoxDomain(lo=(0, 0), hi=(1, 1))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            BoxDomain(lo=(bad, 0, 0), hi=(1, 1, 1))
        with pytest.raises(ValueError, match="finite"):
            BoxDomain(lo=(0, 0, 0), hi=(1, 1, bad))


@pytest.mark.parametrize("lo, hi", [
    ((True, 0, 0), (2, 1, 1)),
    (("-1",) * 3, ("1",) * 3),
    ((0, 0, 0), (1, 1, None)),
    ((0, 0, 0), (1, 1, np.bool_(True))),
], ids=["bool", "str", "none", "npbool"])
def test_box_refuses_bools_and_non_numbers(lo, hi):
    with pytest.raises(TypeError, match="box coordinate must be a real number"):
        BoxDomain(lo=lo, hi=hi)


def test_axis_rule_integrates_polynomials(monkeypatch):
    box = BoxDomain(lo=(-1.0, 0.0, 0.0), hi=(2.0, 1.0, 1.0))
    x, w = box.axis_rule(0, 3)     # 3-point Gauss is exact to degree 5
    assert np.sum(w * x ** 5) == pytest.approx((2.0 ** 6 - 1.0) / 6.0, rel=1e-13)
    assert np.sum(w) == pytest.approx(3.0, rel=1e-14)
    # the rule on [-1, 1] is cached per size: writing into a mapped rule
    # must not reach the cache, and the cached arrays refuse writes
    x_saved, w_saved = x.copy(), w.copy()
    x[:] = 7.0
    w[:] = 7.0
    x2, w2 = box.axis_rule(0, 3)
    assert np.array_equal(x2, x_saved) and np.array_equal(w2, w_saved)
    with pytest.raises(ValueError):
        fields._legendre(3)[0][0] = 7.0

    # one Legendre rule per distinct size over a whole growth sweep
    sizes = Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counting(m):
        sizes[m] += 1
        return leggauss(m)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    fields._legendre.cache_clear()
    fields._growth_rule.cache_clear()
    for k in range(1, 21):
        growth_ratio(k, 2.0, box)
    assert sizes and set(sizes.values()) == {1}, sizes


def _drifting(m):
    # the L^2 norm on the unit box of a field equal to m, the rule size:
    # it depends on the rule size, so refinement never settles
    return float(m)


def test_under_resolved_error():
    with pytest.raises(UnderResolvedError):
        fields._resolve(_drifting)


def test_patched_quadrature_cap_takes_effect(monkeypatch):
    # the refinement loop reads QUAD_CAP when it runs, not when it is defined
    monkeypatch.setattr(fields, "QUAD_CAP", 128)
    with pytest.raises(UnderResolvedError, match="by 128 points/axis"):
        fields._resolve(_drifting)


def test_non_finite_quadrature_is_an_error():
    for bad in (np.inf, np.nan):
        with pytest.raises(NonFiniteError):
            fields._resolve(lambda m, bad=bad: bad)
    assert issubclass(NonFiniteError, ArithmeticError)


def test_growth_ratio_exact_values():
    box = BoxDomain(lo=(-1, -1, -1), hi=(1, 1, 1))
    # p = 2 integrands are polynomials, so the resolved values are exact
    assert growth_ratio(1, 2.0, box) == pytest.approx(np.sqrt(1.5), rel=1e-12)
    assert growth_ratio(2, 2.0, box) == pytest.approx(2.0 * np.sqrt(15.0 / 14.0),
                                                      rel=1e-12)
    # N(j) = integral of |z|^(2j) over the unit box, exact; the ratio at
    # p = 2 is k sqrt(N(k-1) / N(k)), and the resolved rule is exact there
    def moment(j):
        return 2 * sum(math.comb(j, i) * Fraction(2, 2 * i + 1) * Fraction(2, 2 * (j - i) + 1)
                       for i in range(j + 1))
    for k in range(1, 101):
        exact = k * math.sqrt(moment(k - 1) / moment(k))
        assert growth_ratio(k, 2.0, box) == pytest.approx(exact, rel=3e-14), k


def test_growth_ratio_other_exponent_and_box():
    tall = BoxDomain(lo=(-1, -1, 0), hi=(1, 1, 9))
    wide = BoxDomain(lo=(-1, -1, 0), hi=(1, 1, 1))
    # the x3 extent cancels from the quotient
    assert growth_ratio(3, 4.0, tall) == pytest.approx(
        growth_ratio(3, 4.0, wide), rel=1e-9)
    with pytest.raises(ValueError):
        growth_ratio(0, 2.0, wide)
    with pytest.raises(TypeError):
        growth_ratio(2.5, 2.0, wide)
    with pytest.raises(BadExponentError):
        growth_ratio(2, 0.5, wide)


def test_growth_ratio_refuses_a_box_that_is_no_box_domain():
    # the corners a BoxDomain would be built from are not one
    with pytest.raises(TypeError, match="^box must be a BoxDomain"):
        growth_ratio(1, 2.0, ((-1, -1, -1), (1, 1, 1)))


@pytest.mark.parametrize("e", [-1000, -530, 530, 1000])
def test_growth_ratio_scales_exactly_on_tiny_and_huge_boxes(e):
    # z -> 2^e z multiplies the quotient by 2^-e; squares and weight
    # products of such nodes under- or overflow unless they are rescaled
    unit = BoxDomain(lo=(-1, -1, -1), hi=(1, 1, 1))
    h = 2.0 ** e
    box = BoxDomain(lo=(-h, -h, -1), hi=(h, h, 1))
    for k in (1, 7, 40):
        for p in (1, 2, 64):
            assert growth_ratio(k, p, box) == growth_ratio(k, p, unit) * 2.0 ** -e, (k, p)


def _growth_full_rule(k, p, box):
    """growth_ratio summing every (x1, x2) node, the reference for the mirror fold."""
    powers = np.array([k - 1, k])[:, None, None] * p / 2.0
    s = math.ldexp(0.5, math.frexp(max(map(abs, box.lo[:2] + box.hi[:2])))[1])

    def compute(m):
        (x1, w1), (x2, w2) = (box.axis_rule(axis, m) for axis in (0, 1))
        r2 = (x1[:, None] / s) ** 2 + (x2[None, :] / s) ** 2
        top = r2.max()
        below, above = (r2 / top) ** powers @ (w2 / s) @ (w1 / s)
        return k / np.sqrt(top) * (below / above) ** (1.0 / p) / s

    return fields._resolve(compute)


def test_growth_ratio_matches_the_full_rule_reference(monkeypatch):
    # each side returns its quotient at every level instead of the settled
    # one; an axis symmetric about 0 is folded, which moves only the order
    # of the sum, and a box symmetric in neither axis sums the same terms
    monkeypatch.setattr(fields, "_resolve", lambda compute: [compute(m) for m in (16, 64, 256)])
    boxes = {2: BoxDomain(lo=(-1, -1, -1), hi=(1, 1, 1)),
             1: BoxDomain(lo=(-1.5, -0.5, 0.0), hi=(1.5, 2.0, 1.0)),
             0: BoxDomain(lo=(-0.7, -0.3, -1.0), hi=(0.9, 1.3, 1.0))}
    for folded, box in boxes.items():
        for k in (1, 7, 40):
            for p in (1, 2, 64):
                got, want = growth_ratio(k, p, box), _growth_full_rule(k, p, box)
                if folded:
                    assert_allclose(got, want, rtol=4e-15, atol=0.0, err_msg=str((box, k, p)))
                else:
                    assert got == want, (k, p)


def test_growth_rule_is_built_once_per_box_and_size(monkeypatch):
    # the sweep at p = 1 and p = 2 reads one set of tables per rule size
    box = BoxDomain(lo=(-1.0, -1.0, -1.0), hi=(1.0, 1.0, 1.0))
    built = Counter()
    rules = fields._rules

    def counting(box, m, axes, even):
        built[box, m] += 1
        return rules(box, m, axes, even)

    monkeypatch.setattr(fields, "_rules", counting)
    fields._growth_rule.cache_clear()
    for p in (1.0, 2.0):
        for k in range(1, 21):
            growth_ratio(k, p, box)
    assert built and set(built.values()) == {1}, built


def test_growth_rule_tables_refuse_writes():
    box = BoxDomain(lo=(-1.5, -0.5, 0.0), hi=(1.5, 2.0, 1.0))
    for table in fields._growth_rule(box, 64)[:3]:
        with pytest.raises(ValueError):
            table[0] = 7.0


def test_growth_ratio_large_exponent():
    # |z|^(k p) overflows a double for k*p beyond about 2000 on the unit
    # box; the ratio must stay above its floor k / max|z| = k / sqrt(2)
    # and keep increasing instead of collapsing to 0 or failing to settle
    box = BoxDomain(lo=(-1, -1, -1), hi=(1, 1, 1))
    ratios = [growth_ratio(k, 64.0, box) for k in range(1, 101)]
    for k, r in enumerate(ratios, start=1):
        assert r >= k / np.sqrt(2.0), "k=%d: %r" % (k, r)
    for k in range(5, 101):
        assert ratios[k - 1] > ratios[k - 2], "not increasing at k=%d" % k


def test_bump_profile_shape():
    r = np.linspace(0.0, 3.0, 301)
    g, gp = bump_profile(r)
    assert_allclose(g[r <= 1.0], 1.0)
    assert_allclose(g[r >= 2.0], 0.0)
    assert_allclose(gp[(r <= 1.0) | (r >= 2.0)], 0.0)
    # near the plateau edges the glued quotient rounds to exactly 1.0 / 0.0,
    # so strict inequalities only hold away from them
    strict = (r > 1.2) & (r < 1.8)
    assert np.all(g[strict] > 0.0) and np.all(g[strict] < 1.0)
    assert np.all(np.diff(g) <= 0.0)
    assert np.all(gp <= 0.0)


def test_bump_profile_derivative():
    r = np.linspace(1.05, 1.95, 19)
    h = 1e-6
    g_plus, _ = bump_profile(r + h)
    g_minus, _ = bump_profile(r - h)
    _, gp = bump_profile(r)
    assert_allclose(gp, (g_plus - g_minus) / (2.0 * h), atol=1e-7)


def test_bump_profile_is_flat_at_the_support_edges():
    # the glued quotient rounds to exactly 0 / 1 one ulp inside each edge,
    # which is what lets halfspace_ratio drop the nodes off the ball
    g, gp = bump_profile(np.nextafter(2.0, 0.0))
    assert g == 0.0 and gp == 0.0
    g, gp = bump_profile(np.nextafter(1.0, 2.0))
    assert g == 1.0 and gp == 0.0


@pytest.mark.filterwarnings("error")
def test_bump_profile_is_exact_and_quiet_at_huge_radii():
    # the shell's quotients are discarded there, and their squares overflow silently
    g, gp = bump_profile(1e308)
    assert g == 0.0 and gp == 0.0
    g, gp = bump_profile(-1e308)
    assert g == 1.0 and gp == 0.0


def test_box_sum_on_the_support_of_a_ball():
    box = BoxDomain(lo=(-1.5, -2.0, -1.0), hi=(1.0, 1.5, 2.0))
    radius = 1.7
    seen = []

    def bump(X1, X2, X3):
        seen.append((X1, X2, X3))
        f = np.maximum(radius ** 2 - (X1 ** 2 + X2 ** 2 + X3 ** 2), 0.0) ** 2
        return np.stack([f, f * np.exp(X1 - X2)])

    for m in (16, 64):
        full = fields._box_sum(box, m, bump)
        seen.clear()
        cut = fields._box_sum(box, m, bump, radius=radius)
        assert_allclose(cut, full, rtol=1e-15, atol=0.0)
        # every node passed is strictly inside the ball, and no call passes
        # more than one block
        X1, X2, X3 = (np.concatenate(axis) for axis in zip(*seen))
        assert np.all(X1 ** 2 + X2 ** 2 + X3 ** 2 < radius ** 2)
        assert max(x.size for x, _, _ in seen) <= fields._BLOCK
        # the nodes passed are exactly the grid's in-ball nodes, each once
        G1, G2, G3 = np.meshgrid(*(box.axis_rule(axis, m)[0] for axis in range(3)),
                                 indexing="ij")
        inside = G1 ** 2 + G2 ** 2 + G3 ** 2 < radius ** 2
        want = sorted(zip(G1[inside], G2[inside], G3[inside]))
        assert sorted(zip(X1, X2, X3)) == want


@pytest.mark.parametrize("reach", [4.0, 2.89])
def test_discs_are_the_exact_prefixes_inside_the_ball(reach):
    # reach - c rounds, so searchsorted alone can count a node whose d + c
    # rounds to reach (reach 4) or miss one whose d + c rounds below it
    # (reach 2.89); c within three ulps of each node's own edge meets both
    rng = np.random.default_rng(7)
    x1, x2 = -1.5 * rng.random(40), 1.5 * rng.random(30)
    w1, w2 = rng.random(40), rng.random(30)
    edge = reach - (x1[:, None] ** 2 + x2[None, :] ** 2).ravel()
    c = (edge[:, None] + np.spacing(edge)[:, None] * np.arange(-3, 4)).ravel()
    X1, X2, W, n = fields._discs(x1, w1, x2, w2, c, reach)
    d = X1 ** 2 + X2 ** 2
    assert np.all(np.diff(d) >= 0.0)
    assert_array_equal(n, [np.count_nonzero(d + cv < reach) for cv in c])
    # every node once, with its own weight product
    G1, G2 = np.meshgrid(x1, x2, indexing="ij")
    want = sorted(zip(G1.ravel(), G2.ravel(), np.outer(w1, w2).ravel()))
    assert sorted(zip(X1, X2, W)) == want


def test_box_sum_folds_even_axes():
    box = BoxDomain(lo=(-1.5, -2.0, -1.0), hi=(1.0, 2.0, 1.0))
    radius = 1.7

    def even(X1, X2, x3):
        f = np.maximum(radius ** 2 - (X1 ** 2 + X2 ** 2 + x3 ** 2), 0.0) ** 2
        return np.stack([f, f * np.exp(X1 - X2 ** 2) * np.cos(x3)])

    for m in (16, 64):
        for cut in (np.inf, radius):
            assert_allclose(fields._box_sum(box, m, even, radius=cut, even=(1, 2)),
                            fields._box_sum(box, m, even, radius=cut),
                            rtol=1e-15, atol=0.0, err_msg="m=%d radius=%r" % (m, cut))
    # an axis that is not symmetric about 0, or an odd m, is summed unfolded
    lopsided = BoxDomain(lo=(-1.0, -2.0, -1.0), hi=(1.0, 1.5, 1.0))
    assert_array_equal(fields._box_sum(lopsided, 16, even, even=(1,)),
                       fields._box_sum(lopsided, 16, even))
    assert_array_equal(fields._box_sum(box, 15, even, even=(2,)),
                       fields._box_sum(box, 15, even))


def _witness_forms():
    """The half-space witness forms, derived numerically from KernelWitness.

    The Grams of x -> sym(p_hat x x) and x -> dev sym(p_hat x x), and the
    vector t with t . x = Im tr sym(p_hat x x).
    """
    sym_imgs = sym(cross(KernelWitness().p_hat, EYE3))      # sym(p_hat x e_j), over j
    dev_imgs = dev(sym_imgs)
    gram_sym = np.real(np.einsum("jab,lab->jl", sym_imgs, sym_imgs.conj()))
    gram_dev = np.real(np.einsum("jab,lab->jl", dev_imgs, dev_imgs.conj()))
    return gram_sym, gram_dev, np.imag(tr(sym_imgs))


def test_halfspace_forms_are_the_witness_forms():
    # exact equality, off-diagonals included: zero off-diagonal entries and
    # t2 = t3 = 0 make the integrands even in x2 and x3, which is what lets
    # halfspace_ratio sum only the quarter x2, x3 > 0
    gram_sym, gram_dev, t_sym = _witness_forms()
    assert np.array_equal(gram_sym, np.diag(fields._GRAM_SYM))
    assert np.array_equal(gram_dev, np.diag(fields._GRAM_DEV))
    assert np.array_equal(t_sym, [fields._T1, 0.0, 0.0])


def _halfspace_full_planes(k, p):
    """halfspace_ratio as it was first written, the reference for the support sum.

    The cutoff-gradient coefficients c = (eta'(r)/r) * x are stacked to
    (3, nodes) and contracted with the witness Grams by einsum, on every
    node of the box.
    """
    gram_sym, gram_dev, t_sym = _witness_forms()
    box = BoxDomain(lo=(-2.0, -2.0, -2.0), hi=(0.0, 2.0, 2.0))

    def integrands(X1, X2, x3):
        r = np.sqrt(X1 ** 2 + X2 ** 2 + x3 ** 2)
        g, gp = bump_profile(r)
        rs = np.maximum(r, 1e-300)
        c = np.stack([gp * X1 / rs, gp * X2 / rs, gp * (x3 / rs)])
        dev_sq = np.einsum("j...,jl,l...->...", c, gram_dev, c)
        sym_sq = (3.0 * g * g
                  + (2.0 * g / k) * np.einsum("j,j...->...", t_sym, c)
                  + np.einsum("j...,jl,l...->...", c, gram_sym, c) / k ** 2)
        return np.exp(p * k * X1) * np.stack([np.maximum(sym_sq, 0.0) ** (p / 2.0),
                                              dev_sq ** (p / 2.0) / k ** p])

    def compute(m):
        num, den = fields._box_sum(box, m, integrands) ** (1.0 / p)
        return num / den

    return fields._resolve(compute)


def test_halfspace_ratio_matches_the_full_plane_reference(monkeypatch):
    # the refinement would not settle on rules this small, so each side
    # returns its quotient at every level instead of the settled one
    monkeypatch.setattr(fields, "_resolve", lambda compute: [compute(m) for m in (16, 32, 64)])
    for p in (1.0, 2.0, 3.0):
        for k in (2, 8, 32):
            assert_allclose(halfspace_ratio(k, p), _halfspace_full_planes(k, p),
                            rtol=1e-13, atol=0.0, err_msg="p=%r k=%d" % (p, k))


def test_halfspace_ratio_traced_peak_stays_small():
    # the sum passes the ball's nodes in blocks of at most _BLOCK = 4096
    # nodes: 0.89 MiB traced (0.86 MiB with one call per plane's bounding
    # square); the whole level flattened into one call held 21 MiB.  The first
    # call imports and caches the Legendre rules
    halfspace_ratio(2, 2.0)
    tracemalloc.start()
    try:
        halfspace_ratio(32, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, "traced peak %.2f MiB" % (peak / 2 ** 20)


def test_halfspace_ratio_reference_values():
    # reference values from an independent direct quadrature of the
    # boundary-layer family
    assert halfspace_ratio(2, 2.0) == pytest.approx(2.669, rel=2e-3)
    assert halfspace_ratio(4, 2.0) == pytest.approx(4.958, rel=2e-3)
    with pytest.raises(ValueError):
        halfspace_ratio(0, 2.0)
    with pytest.raises(TypeError):
        halfspace_ratio(2.5, 2.0)


# ----------------------------------------------------------------------------
# on-disk format


def test_dump_load_roundtrip(tmp_path):
    spec = GridSpec(8)
    for rank, structure in enumerate(("scalar", "vector", "general")):
        f = random_bandlimited(spec, 7, 3, structure)
        path = tmp_path / ("field_rank%d.bin" % rank)
        dump_field(f, path)
        g = load_field(path)
        assert g.rank == rank and g.spec.n == 8
        scale = float(np.abs(f.coef).max())
        assert_allclose(g.coef, f.coef, atol=2e-6 * scale)
        assert_allclose(values(g), values(f), atol=2e-6 * scale)


def test_field_files_take_a_path_only():
    # an int names a descriptor to open(): neither call may write to it or close it
    f = random_bandlimited(GridSpec(4), 1, 1, "scalar")
    r, w = os.pipe()
    try:
        with pytest.raises(TypeError, match="^path must be a str or os.PathLike"):
            dump_field(f, w)
        with pytest.raises(TypeError, match="^path must be a str or os.PathLike"):
            load_field(r)
        os.fstat(r), os.fstat(w)
    finally:
        os.close(r)
        os.close(w)


def test_dump_header_is_ascii(tmp_path):
    spec = GridSpec(4)
    f = field_from_samples(spec, 0, RNG.standard_normal((4, 4, 4)))
    path = tmp_path / "f.bin"
    dump_field(f, path)
    with open(path, "rb") as fh:
        header = fh.readline()
    assert header == b"kornlab-field v1; rank=0; n=4; reality=real\n"


def test_dump_byte_order(tmp_path):
    # k1 outermost, then k2, k3, then the tensor slots, each value as
    # little-endian (real, imag) float32, a zero as +0.0
    n = 4
    f = field_from_samples(GridSpec(n), 2, np.arange(n ** 3 * 9.0).reshape(n, n, n, 3, 3))
    coef = f.coef
    path = tmp_path / "order.bin"
    dump_field(f, path)
    want = bytearray()
    for k1 in range(n):
        for k2 in range(n):
            for k3 in range(n):
                for i in range(3):
                    for j in range(3):
                        z = coef[k1, k2, k3, i, j]
                        want += struct.pack("<ff", z.real + 0.0, z.imag + 0.0)
    with open(path, "rb") as fh:
        assert fh.readline() == b"kornlab-field v1; rank=2; n=4; reality=real\n"
        assert fh.read() == bytes(want)


def test_load_rejects_other_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"some other format\n\x00\x01")
    with pytest.raises(ValueError):
        load_field(path)


def test_load_rejects_corrupt_files(tmp_path):
    spec = GridSpec(4)
    path = tmp_path / "f.bin"
    dump_field(random_bandlimited(spec, 3, 1), path)
    good = path.read_bytes()
    header, payload = good.split(b"\n", 1)
    corrupt = {
        "truncated": good[:-8],
        "wrong_n": header.replace(b"n=4", b"n=8") + b"\n" + payload,
        # 27 values match the payload size of n = 3, which is no grid size
        "n_not_power_of_two": header.replace(b"rank=2; n=4", b"rank=0; n=3") + b"\n"
        + payload[:8 * 27],
        "missing_rank": header.replace(b" rank=2;", b"") + b"\n" + payload,
        "bad_rank": header.replace(b"rank=2", b"rank=two") + b"\n" + payload,
        "bad_reality": header.replace(b"reality=real", b"reality=maybe") + b"\n" + payload,
        # every field is real: the tag dump_field once wrote for a complex one is refused
        "complex": header.replace(b"reality=real", b"reality=complex") + b"\n" + payload,
        "asymmetric": header + b"\n" + _edit_payload(payload, (1, 0, 0, 0, 1), 1.0),
        "infinite": header + b"\n" + _edit_payload(payload, (0, 0, 0, 0, 0), np.inf),
        # n^3 * 9 * 8 bytes overflows int64 from n = 2^21
        "huge_n": header.replace(b"n=4", b"n=2097152") + b"\n",
        "huger_n": header.replace(b"n=4", b"n=4194304") + b"\n",
    }
    for name, data in corrupt.items():
        path.write_bytes(data)
        with pytest.raises(CorruptFieldError):
            load_field(path)
    path.write_bytes(corrupt["huge_n"])
    with pytest.raises(CorruptFieldError, match="needs %d$" % (8 * 9 * 2097152 ** 3)):
        load_field(path)
    path.write_bytes(good)
    assert load_field(path).rank == 2


@pytest.mark.parametrize("header", [
    b"kornlab-field v12; rank=0; n=4; reality=real",
    b"kornlab-field v1; reality=real; n=4; rank=0; junk=1",
    b"kornlab-field v1; rank=0; n=004; reality=real; rank=0",
    b"kornlab-field v1; rank=0; n=004; reality=real",
    b"kornlab-field v1; rank=+0; n=4; reality=real",
    b"kornlab-field v1; rank=0; n=4; reality=real; junk=1",
    b"kornlab-field v1;  rank=0; n=4; reality=real",
    b" kornlab-field v1; rank=0; n=4; reality=real",
    b"kornlab-field v1; rank=0; n=4; reality=real ",
    b"kornlab-field v1; rank=0; n=4; reality=real\r",
    b"kornlab-field v1; rank=0; n=4; reality=complex",
], ids=["v12", "permuted-junk", "repeated", "leading-zero", "signed-rank", "trailing-junk",
        "double-space", "leading-space", "trailing-space", "crlf", "complex"])
def test_load_refuses_any_header_dump_field_does_not_write(tmp_path, header):
    # each of these names a rank-0, n = 4, real field that fits the payload
    path = tmp_path / "f.bin"
    dump_field(random_bandlimited(GridSpec(4), 3, 1, "scalar"), path)
    payload = path.read_bytes().split(b"\n", 1)[1]
    path.write_bytes(header + b"\n" + payload)
    with pytest.raises(CorruptFieldError, match="^header is not"):
        load_field(path)


def test_load_takes_a_signalling_nan_without_a_warning(tmp_path):
    # a float32 signalling NaN raises numpy's "invalid value" warning when it
    # is widened; the field is named as non-finite
    path = tmp_path / "f.bin"
    payload = np.zeros(2 * 64, dtype="<u4")
    payload[2] = 0x7FA00000
    path.write_bytes(b"kornlab-field v1; rank=0; n=4; reality=real\n" + payload.tobytes())
    with pytest.raises(CorruptFieldError, match="not finite"):
        load_field(path)


def _edit_payload(payload, index, add):
    """A rank-2, n = 4 complex64 payload with add put onto one coefficient."""
    coef = np.frombuffer(payload, dtype="<c8").reshape(4, 4, 4, 3, 3).copy()
    coef[index] += add
    return coef.tobytes()


def test_dump_bytes_do_not_depend_on_the_route(tmp_path):
    # a derived field may hold a -0.0 where the snap at entry writes +0.0;
    # its file is the same as that of the same values built by the constructor
    spec = GridSpec(8)
    derived = apply_operator(random_bandlimited(spec, 3, 2), "inc")
    entered = GridField(spec, 2, derived.coef)
    assert np.array_equal(derived.coef, entered.coef)
    dump_field(derived, tmp_path / "derived.bin")
    dump_field(entered, tmp_path / "entered.bin")
    assert (tmp_path / "derived.bin").read_bytes() == (tmp_path / "entered.bin").read_bytes()
