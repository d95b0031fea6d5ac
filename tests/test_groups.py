import operator

from heisweil.groups import closure, extend_hom
from heisweil.heisenberg import HeisenbergGroup
from heisweil.linalg import CycMatrix
from heisweil.mackey import heisenberg_table_group, symmetric_group
from heisweil.symplectic import SymplecticSpace


def test_closure_is_breadth_first():
    assert closure([0], [1], lambda x, g: (x + g) % 5) == [0, 1, 2, 3, 4]
    assert closure([0], [2, 3], lambda x, g: (x + g) % 6) == [0, 2, 3, 4, 5, 1]


def _s3_generators():
    s3 = symmetric_group(3)
    rot = next(a for a in range(6) if s3.element_order(a) == 3)
    flip = next(a for a in range(6) if s3.element_order(a) == 2)
    return s3, rot, flip


def _scalar(n, value):
    return CycMatrix.from_entries(n, [[value]])


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
    tg = heisenberg_table_group(g)
    for a in range(tg.order):
        for b in range(tg.order):
            on_table = {tg.names[i] for i in tg.subgroup_generated([a, b])}
            assert g.subgroup_generated([tg.names[a], tg.names[b]]) == on_table
