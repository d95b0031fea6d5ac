import operator

from heisweil.groups import closure, extend_hom
from heisweil.heisenberg import HElem, HeisenbergGroup
from heisweil.linalg import CycMatrix
from heisweil.mackey import symmetric_group
from heisweil.symplectic import SymplecticSpace


def _heisenberg_law(space):
    """(w1, z1)(w2, z2) = (w1 + w2, z1 + z2 + (1/2)<w1, w2>) on HElem tuples."""
    p, half, form = space.p, space.half, space.form.tolist()

    def mul(a, b):
        pair = sum(
            x * form[i][j] * y for i, x in enumerate(a.w) for j, y in enumerate(b.w)
        )
        w = tuple((x + y) % p for x, y in zip(a.w, b.w))
        return HElem(w, (a.z + b.z + half * pair) % p)

    return mul


def test_closure_is_breadth_first():
    assert closure([0], [1], lambda x, g: (x + g) % 5) == [0, 1, 2, 3, 4]
    assert closure([0], [2, 3], lambda x, g: (x + g) % 6) == [0, 2, 3, 4, 5, 1]


def _s3_generators():
    s3 = symmetric_group(3)
    rot = next(a for a in range(6) if s3.element_order(a) == 3)
    flip = next(a for a in range(6) if s3.element_order(a) == 2)
    return s3, rot, flip


def _scalar(n, value):
    return CycMatrix(n, [[value]])


def test_extend_hom_sign_character():
    s3, rot, flip = _s3_generators()
    images = extend_hom(
        s3, {rot: _scalar(3, 1), flip: _scalar(3, -1)}, operator.matmul, _scalar(3, 1)
    )
    assert images is not None and sorted(images) == list(range(6))
    for a in range(6):
        for b in range(6):
            assert images[a] @ images[b] == images[s3.mul(a, b)]


def test_extend_hom_rejects_inconsistent_images():
    # rot has order 3, but (-1)^3 = -1
    s3, rot, flip = _s3_generators()
    images = {rot: _scalar(3, -1), flip: _scalar(3, 1)}
    assert extend_hom(s3, images, operator.matmul, _scalar(3, 1)) is None


def test_extend_hom_rejects_non_generating_set():
    s3, rot, _ = _s3_generators()
    assert extend_hom(s3, {rot: _scalar(3, 1)}, operator.matmul, _scalar(3, 1)) is None


def test_heisenberg_closure_matches_table_closure_p3():
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    law = _heisenberg_law(g.space)
    one = HElem((0, 0), 0)
    for a in range(g.order):
        for b in range(g.order):
            on_table = {g.names[i] for i in g.subgroup_generated([a, b])}
            by_law = closure([one], [g.names[a], g.names[b]], law)
            assert set(by_law) == on_table


def test_is_subgroup_rejects_a_set_missing_one_product():
    g = HeisenbergGroup(SymplecticSpace(3, 1))
    for sub in g.all_subgroups():
        assert g.is_subgroup(sub)
        for x in sorted(sub)[1:]:
            assert not g.is_subgroup(sub - {x})
    s3 = symmetric_group(3)
    assert s3.is_subgroup(range(6)) and s3.is_subgroup([0])
    assert not s3.is_subgroup(range(1, 6))  # no identity
    assert not s3.is_subgroup([])
