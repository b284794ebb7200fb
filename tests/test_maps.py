import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loewner_cert import (
    BadDimensions,
    Conjugation,
    Diag,
    DimensionMismatch,
    MapFamily,
    NotHermitian,
    ParseError,
    Pinch,
    build_gap_problem,
    check_unital_family,
    family_from_obj,
    family_to_obj,
    identity_family,
    map_from_obj,
    map_to_obj,
    power,
    random_hermitian,
    random_unital_family,
)

seeds = st.integers(0, 2**32 - 1)


def test_conjugation_apply():
    V = np.array([[1.0], [0.0]], dtype=complex)
    phi = Conjugation(V)
    assert phi.input_dim == 2 and phi.output_dim == 1
    X = np.array([[3.0, 1.0], [1.0, 2.0]], dtype=complex)
    assert phi.apply(X)[0, 0] == 3.0


def test_conjugation_dim_check():
    phi = Conjugation(np.eye(2, dtype=complex))
    with pytest.raises(DimensionMismatch):
        phi.apply(np.eye(3))


def test_pinch_partition_validation():
    with pytest.raises(BadDimensions):
        Pinch(3, ((0, 1),))
    with pytest.raises(BadDimensions):
        Pinch(3, ((0, 1), (1, 2)))
    Pinch(3, ((2, 0), (1,)))  # order inside blocks is free
    with pytest.raises(BadDimensions, match=r"do not partition range\(-1\)"):
        Diag(-1)


@pytest.mark.parametrize("make,message", [
    (lambda: Pinch(0, ()), r"^a pinch map needs dim >= 1, got 0$"),
    (lambda: Diag(0), r"^a diag map needs dim >= 1, got 0$"),
    (lambda: Conjugation(np.zeros((2, 0))),
     r"^V must be a matrix with a row and a column, got shape \(2, 0\)$"),
    (lambda: Conjugation(np.zeros((0, 2))),
     r"^V must be a matrix with a row and a column, got shape \(0, 2\)$"),
])
def test_a_map_of_size_0_is_refused_at_construction(make, message):
    with pytest.raises(BadDimensions, match=message):
        make()


@pytest.mark.parametrize("entry", [1.7, True, np.bool_(True), "1", None])
def test_pinch_refuses_non_integral_entries(entry):
    with pytest.raises(BadDimensions, match=f"pinch block entry {entry!r}"):
        Pinch(2, ((0,), (entry,)))


def test_pinch_accepts_integral_floats_and_numpy_ints():
    for entry in (1.0, np.int64(1), np.float64(1.0), np.uint8(1)):
        phi = Pinch(2, ((np.int32(0),), (entry,)))
        assert phi.blocks == ((0,), (1,))
        assert all(type(i) is int for blk in phi.blocks for i in blk)


def test_pinch_apply_zeroes_off_blocks():
    X = np.arange(9, dtype=float).reshape(3, 3)
    X = 0.5 * (X + X.T).astype(complex)
    Y = Pinch(3, ((0, 1), (2,))).apply(X)
    assert Y[0, 2] == 0 and Y[1, 2] == 0
    assert np.array_equal(Y[:2, :2], X[:2, :2])
    assert Y[2, 2] == X[2, 2]


def test_diag_apply():
    X = np.array([[1.0, 5.0], [5.0, 2.0]], dtype=complex)
    assert np.array_equal(Diag(2).apply(X), np.diag([1.0, 2.0]))


@st.composite
def partitions(draw):
    n = draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    edges = [0, *cuts, n]
    return n, tuple(tuple(perm[a:b]) for a, b in zip(edges, edges[1:]))


@given(part=partitions(), seed=seeds)
def test_pinch_apply_is_a_blockwise_copy(part, seed):
    n, blocks = part
    X = random_hermitian(n, -2.0, 2.0, np.random.default_rng(seed))  # exactly Hermitian
    Y = np.zeros_like(X)
    for blk in blocks:
        Y[np.ix_(blk, blk)] = X[np.ix_(blk, blk)]
    assert Pinch(n, blocks).apply(X).tobytes() == Y.tobytes()


@given(n=st.integers(1, 7), seed=seeds)
def test_diag_is_the_singleton_pinch(n, seed):
    X = random_hermitian(n, -2.0, 2.0, np.random.default_rng(seed))  # exactly Hermitian
    phi = Diag(n)
    assert isinstance(phi, Pinch) and phi.blocks == tuple((i,) for i in range(n))
    # the imaginary parts are +0, as in the real diagonal cast to complex
    expected = np.diag(np.diagonal(X).real).astype(complex)
    assert phi.apply(X).tobytes() == expected.tobytes()
    back = map_from_obj(map_to_obj(phi))
    assert type(back) is Diag and back == phi
    assert map_to_obj(phi) == {"variant": "diag", "dim": n}


@given(seed=seeds)
def test_maps_preserve_positivity(seed):
    rng = np.random.default_rng(seed)
    X = random_hermitian(4, 0.0, 2.0, rng)
    V = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    for phi in (Conjugation(V), Pinch(4, ((0, 2), (1, 3))), Diag(4)):
        w = np.linalg.eigvalsh(phi.apply(X))
        assert w[0] >= -1e-10 * (1 + abs(w[-1]))


def test_family_requires_common_output():
    with pytest.raises(DimensionMismatch):
        MapFamily((Diag(2), Diag(3)))
    with pytest.raises(BadDimensions):
        MapFamily(())


@pytest.mark.parametrize("phi", [Conjugation(np.eye(2)), Pinch(2, ((0, 1),)), Diag(2)],
                         ids=["conjugation", "pinch", "diag"])
def test_apply_and_apply_sum_check_their_arguments(phi):
    skew = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotHermitian):
        phi.apply(skew)
    with pytest.raises(NotHermitian):
        MapFamily((phi, phi)).apply_sum([np.eye(2), skew])
    with pytest.raises(DimensionMismatch, match=r"^map expects 2x2, got \(3, 3\)"):
        phi.apply(np.eye(3))


def test_a_stack_maps_to_the_bits_of_its_matrices():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    fam = MapFamily((Conjugation(V), Pinch(3, ((0, 2), (1,))), Diag(3)))
    stacks = [np.stack([random_hermitian(n, -1.0, 1.0, rng) for _ in range(4)])
              for n in (2, 3, 3)]
    total = fam._map_sum(stacks)
    assert total.shape == (4, 3, 3)
    for j in range(4):
        assert np.array_equal(total[j], fam.apply_sum([S[j] for S in stacks]))


def test_family_apply_sum_checks_length():
    fam = identity_family(2)
    with pytest.raises(DimensionMismatch):
        fam.apply_sum([np.eye(2), np.eye(2)])


def test_identity_family_unital():
    chk = check_unital_family(identity_family(3))
    assert chk.holds and chk.defect == 0.0


def test_unital_maps_identity_to_identity():
    fam = random_unital_family(3, 2, 4, seed=7)
    total = fam.apply_sum([np.eye(2, dtype=complex)] * 3)
    assert np.linalg.norm(total - np.eye(4)) < 1e-12


@given(count=st.integers(1, 4), n=st.integers(1, 4), seed=seeds)
def test_random_unital_family_defect(count, n, seed):
    k = min(count * n, 3)
    fam = random_unital_family(count, n, k, seed)
    assert len(fam) == count
    assert fam.output_dim == k
    assert fam.input_dims == (n,) * count
    assert fam.unital_defect() < 1e-12


def test_random_unital_family_size_check():
    with pytest.raises(BadDimensions):
        random_unital_family(1, 2, 3, seed=0)
    with pytest.raises(BadDimensions):
        random_unital_family(0, 2, 1, seed=0)


def test_two_identities_not_unital():
    fam = MapFamily((Conjugation(np.eye(2, dtype=complex)),) * 2)
    chk = check_unital_family(fam)
    assert not chk.holds and chk.defect > 1.0


# -- JSON form ---------------------------------------------------------


def test_map_obj_roundtrip():
    rng = np.random.default_rng(1)
    V = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    for phi in (Conjugation(V), Conjugation(V.real.astype(complex)),
                Pinch(3, ((0,), (1, 2))), Diag(4)):
        back = map_from_obj(map_to_obj(phi))
        assert type(back) is type(phi)
        X = random_hermitian(phi.input_dim, -1.0, 1.0, rng)
        assert np.allclose(phi.apply(X), back.apply(X))


def test_conjugation_obj_omits_zero_imag():
    obj = map_to_obj(Conjugation(np.eye(2, dtype=complex)))
    assert "V_im" not in obj


def test_family_obj_roundtrip():
    fam = random_unital_family(2, 3, 3, seed=11)
    back = family_from_obj(family_to_obj(fam))
    assert len(back) == 2
    assert back.unital_defect() < 1e-12


def test_family_from_obj_accepts_wrapper():
    fam = family_from_obj({"maps": [{"variant": "diag", "dim": 2}]})
    assert isinstance(fam.maps[0], Diag)


@pytest.mark.parametrize("obj", [
    {"variant": "nope"}, {"variant": "conjugation"},
    {"variant": "pinch", "dim": 2}, {"variant": "diag"},
    {}, 7,
])
def test_map_from_obj_rejects(obj):
    with pytest.raises(ParseError):
        map_from_obj(obj)


@pytest.mark.parametrize("obj,field", [
    ({"variant": "pinch", "dim": 2, "blocks": 5}, "'blocks'"),
    ({"variant": "pinch", "dim": 2, "blocks": [[0, "one"]]}, "'blocks'"),
    ({"variant": "pinch", "dim": "two", "blocks": [[0, 1]]}, "'dim'"),
    ({"variant": "diag", "dim": None}, "'dim'"),
    ({"variant": "conjugation", "V_re": [[1.0, 0.0], [0.0]]}, "'V_re'"),
    ({"variant": "conjugation", "V_re": [[1.0]], "V_im": [["i"]]}, "'V_im'"),
    # numbers that are not integers are refused, not truncated
    ({"variant": "pinch", "dim": 2.5, "blocks": [[0], [1.7]]}, "'blocks'"),
    ({"variant": "pinch", "dim": 2.5, "blocks": [[0], [1]]}, "'dim'"),
    ({"variant": "diag", "dim": True}, "'dim'"),
])
def test_map_from_obj_names_malformed_field(obj, field):
    with pytest.raises(ParseError, match=field):
        map_from_obj(obj)


def test_map_from_obj_takes_integral_floats():
    assert map_from_obj({"variant": "pinch", "dim": 2.0, "blocks": [[0.0], [1]]}) == \
        Pinch(2, ((0,), (1,)))


def test_family_from_obj_rejects_nonlist():
    with pytest.raises(ParseError):
        family_from_obj({"not_maps": []})


def test_split_unitary_pair_is_unital():
    V = np.eye(2, dtype=complex) / np.sqrt(2.0)
    chk = check_unital_family(MapFamily((Conjugation(V), Conjugation(V))))
    assert chk.holds and chk.defect < 1e-15


def test_doubled_identity_defect_is_norm_of_identity():
    fam = MapFamily((Conjugation(np.eye(2, dtype=complex)),) * 2)
    assert abs(check_unital_family(fam).defect - np.sqrt(2.0)) < 1e-14


def test_overflowing_family_defect_is_not_finite_and_warns_nothing():
    fam = MapFamily((Conjugation(np.diag([1e200, 1e200])),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        chk = check_unital_family(fam)
    assert not chk.holds and not np.isfinite(chk.defect)


def test_a_later_edit_of_the_callers_v_changes_nothing():
    # the map keeps its own V: with the caller's V = I edited to
    # [[1, 1], [0, 1]], V* X V of diag(1, 2) would have off-diagonal 1
    V = np.eye(2, dtype=complex)
    phi = Conjugation(V)
    fam = MapFamily((phi,))
    V[0, 1] = 1.0
    X = np.diag([1.0, 2.0]).astype(complex)
    assert np.array_equal(phi.apply(X), X)
    assert np.array_equal(fam.apply_sum([X]), X) and fam.unital_defect() == 0.0
    assert np.array_equal(phi.V, np.eye(2))
    pinch = Pinch(2, ((0,), (1,)))
    for frozen in (phi.V, phi._VH, pinch._kept):
        with pytest.raises(ValueError):
            frozen[0, 1] = 1


def test_two_assemblies_with_one_family_map_the_identity_once(monkeypatch):
    fam = random_unital_family(3, 3, 3, seed=8)
    defect = fam.unital_defect()
    fam = MapFamily(fam.maps)  # a new family, whose defect is not computed yet
    identities = []
    real_map = Conjugation._map

    def recorded(self, X):
        identities.append(np.array_equal(X, np.eye(3)))
        return real_map(self, X)

    monkeypatch.setattr(Conjugation, "_map", recorded)
    rng = np.random.default_rng(9)
    a_ops, b_ops = ([random_hermitian(3, 0.3, 2.0, rng) for _ in range(3)] for _ in range(2))
    first, second = (build_gap_problem("delta", power(2), a_ops, b_ops, family=fam)
                     for _ in range(2))
    # each map once on I, on the first assembly; then on the operands only
    assert identities.count(True) == 3 and len(identities) == 3 + 2 * 6
    assert all(np.array_equal(getattr(first, M), getattr(second, M)) for M in "CSD")
    assert fam.unital_defect() == defect == check_unital_family(fam).defect


@pytest.mark.parametrize("count,n,k", [(1, 3, 3), (3, 2, 2), (2, 2, 4)])
def test_random_unital_family_shapes(count, n, k):
    fam = random_unital_family(count, n, k, seed=5)
    assert fam.output_dim == k and fam.input_dims == (n,) * count
    assert fam.unital_defect() < 1e-10


def test_mapped_sum_spectrum_stays_in_window():
    # unitality keeps the spectrum of sum(maps, operands) inside the
    # operands' common spectral window
    lo, hi = 0.3, 1.9
    for trial in range(200):
        rng = np.random.default_rng([97, trial])
        count = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        fam = random_unital_family(count, n, n, seed=int(rng.integers(2**31)))
        ops = [random_hermitian(n, lo, hi, rng) for _ in range(count)]
        w = np.linalg.eigvalsh(fam.apply_sum(ops))
        assert w[0] >= lo - 1e-10 and w[-1] <= hi + 1e-10
